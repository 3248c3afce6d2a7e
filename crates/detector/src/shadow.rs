//! Epoch-optimized shadow memory: the fast Phase-1 engine.
//!
//! [`EpochEngine`] computes exactly the candidate-pair set of the naive
//! [`DetectorEngine`](crate::DetectorEngine) (the differential tests in
//! `tests/` and `crates/detector/tests/` prove it byte-identical on every
//! workload), but restructures the per-event work around three
//! observations:
//!
//! 1. **Epochs, not clocks** (FastTrack). A remembered access only ever
//!    needs the accessing thread's *own* clock component: by the ownership
//!    lemma (see [`vclock::Epoch`]), `old ⊑ new` collapses to
//!    `new.clock[old.thread] ≥ old.time`, and the reverse direction
//!    `new ⊑ old` is impossible because the new access just ticked its own
//!    component past anything any older clock can know. So the naive
//!    engine's two O(threads) pointwise comparisons — plus the full-clock
//!    clone it stores per access — become one `u64` comparison and a
//!    16-byte `Copy`.
//! 2. **Adaptive shadow words.** A location starts *exclusive*: as long as
//!    every access comes from one thread, no race check can fire, so the
//!    engine only deduplicates against the (usually single) stored
//!    signature and returns. The word *inflates* to the shared
//!    representation — a vector of access records forming the bounded,
//!    signature-memoised candidate history — only when a second thread
//!    actually touches the location. Each stored record also remembers how
//!    much of the history its signature has been race-checked against, so
//!    a loop re-executing the same access degenerates to a signature
//!    lookup: re-checking older records is provably redundant (clocks only
//!    grow — an ordered verdict stays ordered, and a racy verdict already
//!    put the pair in the set).
//! 3. **Dense indices, not hashing.** Shadow state lives in a flat
//!    `Vec<ShadowWord>`; globals map to slots by direct array index and
//!    object fields/elements through a tiny per-object key list, so the hot
//!    path never hashes a [`Loc`]. Locksets are interned once per *change*
//!    of a thread's held-lock set (a per-thread cache makes the unchanged
//!    case a short slice compare), so the signature memoisation and the
//!    common-lock check compare `u32` ids instead of `Vec<ObjId>`s.

use crate::engine::{disjoint, Policy};
use crate::report::RacePair;
use cil::flat::{GlobalId, InstrId};
use cil::Symbol;
use interp::{Event, Loc, MsgId, ObjId, Observer, ThreadId};
use std::collections::{BTreeSet, HashMap};
use vclock::VectorClock;

/// One remembered access: the epoch `(thread, time)` plus the signature
/// fields the memoisation and the race predicate need. 32 bytes, `Copy` —
/// vs the naive engine's heap-backed clock and lockset per access.
#[derive(Clone, Copy, Debug)]
struct AccessRec {
    thread: u32,
    /// The accessing thread's own clock component at the access (its
    /// [`vclock::Epoch`] time; the thread id doubles as the epoch thread).
    time: u64,
    instr: InstrId,
    /// Interned lockset id (see [`LocksetTable`]).
    lockset: u32,
    is_write: bool,
    /// How many history records this signature has been race-checked
    /// against (a history prefix length). A later occurrence of the same
    /// signature only needs to check records *beyond* this prefix: against
    /// anything older, the duplicate's verdict is implied — clocks only
    /// grow, so if the first occurrence was ordered after an old record,
    /// every later occurrence is too, and if it raced, the pair is already
    /// in the set. In steady-state loops this makes a repeated access O(1)
    /// after the signature lookup.
    checked: u32,
}

impl AccessRec {
    #[inline]
    fn same_signature(&self, other: &AccessRec) -> bool {
        self.thread == other.thread
            && self.instr == other.instr
            && self.is_write == other.is_write
            && self.lockset == other.lockset
    }
}

/// Per-location shadow state. `first` is stored inline so the dominant
/// "one signature ever" case costs no per-location heap allocation beyond
/// the flat shadow vector itself.
#[derive(Clone, Debug)]
struct ShadowWord {
    first: AccessRec,
    rest: Vec<AccessRec>,
    /// `true` while every access to this location came from `first.thread`
    /// — the cheap representation; cleared on inflation.
    exclusive: bool,
    /// Index of the most recently matched record. Schedulers run threads
    /// in slices, so consecutive accesses to a word usually repeat one
    /// signature; checking the hint first makes those lookups O(1).
    hint: u32,
}

impl ShadowWord {
    /// History length, counting the inline `first` record.
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn get(&self, index: usize) -> &AccessRec {
        if index == 0 {
            &self.first
        } else {
            &self.rest[index - 1]
        }
    }

    /// Index of the record with `rec`'s signature, if any. Signatures are
    /// unique in a history (duplicates are never pushed), so this is the
    /// only candidate. The hint short-circuits the repeated-access case.
    fn find_signature(&self, rec: &AccessRec) -> Option<usize> {
        let hint = self.hint as usize;
        if hint < self.len() && self.get(hint).same_signature(rec) {
            return Some(hint);
        }
        if self.first.same_signature(rec) {
            return Some(0);
        }
        self.rest
            .iter()
            .position(|old| old.same_signature(rec))
            .map(|pos| pos + 1)
    }
}

/// Locksets interned to dense `u32` ids; id 0 is the empty set.
#[derive(Clone, Debug)]
struct LocksetTable {
    sets: Vec<Box<[ObjId]>>,
    index: HashMap<Box<[ObjId]>, u32>,
}

impl LocksetTable {
    fn new() -> Self {
        let empty: Box<[ObjId]> = Box::new([]);
        LocksetTable {
            sets: vec![empty.clone()],
            index: HashMap::from([(empty, 0)]),
        }
    }

    /// Interns a sorted lockset. Only reached when a thread's held-lock
    /// set changed since its previous access (the per-thread cache filters
    /// the common case), so the hash is off the hot path.
    fn intern(&mut self, locks: &[ObjId]) -> u32 {
        if locks.is_empty() {
            return 0;
        }
        if let Some(&id) = self.index.get(locks) {
            return id;
        }
        let id = self.sets.len() as u32;
        let boxed: Box<[ObjId]> = locks.into();
        self.sets.push(boxed.clone());
        self.index.insert(boxed, id);
        id
    }

    /// Merge-scan disjointness over interned ids, with the two O(1)
    /// outcomes (empty set, identical non-empty set) short-circuited.
    #[inline]
    fn disjoint(&self, a: u32, b: u32) -> bool {
        if a == 0 || b == 0 {
            return true;
        }
        if a == b {
            return false;
        }
        disjoint(&self.sets[a as usize], &self.sets[b as usize])
    }
}

/// Per-thread cache of every lockset the thread has held, with its
/// interned id. Threads hold a handful of distinct locksets over a whole
/// run — but *alternate* between them constantly (enter `sync`, leave
/// `sync`), so a single-entry cache would re-intern on nearly every
/// access. A short linear scan resolves any previously seen set without
/// hashing.
#[derive(Clone, Debug, Default)]
struct ThreadLocksets {
    entries: Vec<(Vec<ObjId>, u32)>,
}

const FIELD_TAG: u64 = 1 << 32;
const ELEM_TAG: u64 = 2 << 32;
const NO_SLOT: u32 = u32::MAX;

/// Maps dynamic locations to dense shadow-word slots without hashing:
/// globals by direct index, object fields/elements through a short
/// per-object `(key, slot)` list (objects have few distinct fields).
#[derive(Clone, Debug, Default)]
struct LocIndex {
    globals: Vec<u32>,
    objects: Vec<Vec<(u64, u32)>>,
}

impl LocIndex {
    /// Returns the location's slot and whether it was just created (in
    /// which case the caller must push shadow word number `next`).
    fn slot(&mut self, loc: Loc, next: u32) -> (u32, bool) {
        match loc {
            Loc::Global(GlobalId(global)) => {
                let global = global as usize;
                if global >= self.globals.len() {
                    self.globals.resize(global + 1, NO_SLOT);
                }
                if self.globals[global] == NO_SLOT {
                    self.globals[global] = next;
                    (next, true)
                } else {
                    (self.globals[global], false)
                }
            }
            Loc::Field(ObjId(obj), Symbol(sym)) => {
                self.object_slot(obj, FIELD_TAG | u64::from(sym), next)
            }
            Loc::Elem(ObjId(obj), index) => {
                self.object_slot(obj, ELEM_TAG | u64::from(index), next)
            }
        }
    }

    fn object_slot(&mut self, obj: u32, key: u64, next: u32) -> (u32, bool) {
        let obj = obj as usize;
        if obj >= self.objects.len() {
            self.objects.resize_with(obj + 1, Vec::new);
        }
        let entries = &mut self.objects[obj];
        for &(stored, slot) in entries.iter() {
            if stored == key {
                return (slot, false);
            }
        }
        entries.push((key, next));
        (next, true)
    }
}

/// The epoch-optimized Phase-1 engine ([`crate::predict_races`] runs it).
///
/// Drop-in replacement for [`crate::DetectorEngine`] as an [`Observer`]:
/// same policies, same candidate-pair output, O(1) per-access
/// happens-before checks and no per-event heap allocation.
#[derive(Clone, Debug)]
pub struct EpochEngine {
    policy: Policy,
    clocks: Vec<VectorClock>,
    msg_clocks: HashMap<MsgId, VectorClock>,
    release_clocks: HashMap<ObjId, VectorClock>,
    locksets: LocksetTable,
    thread_locksets: Vec<ThreadLocksets>,
    locs: LocIndex,
    shadow: Vec<ShadowWord>,
    races: BTreeSet<RacePair>,
    events_seen: u64,
}

impl EpochEngine {
    /// Creates an engine with the given policy.
    pub fn new(policy: Policy) -> Self {
        EpochEngine {
            policy,
            clocks: Vec::new(),
            msg_clocks: HashMap::new(),
            release_clocks: HashMap::new(),
            locksets: LocksetTable::new(),
            thread_locksets: Vec::new(),
            locs: LocIndex::default(),
            shadow: Vec::new(),
            races: BTreeSet::new(),
            events_seen: 0,
        }
    }

    /// The policy this engine applies.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of events processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The distinct racing statement pairs found so far, in stable order.
    pub fn races(&self) -> impl Iterator<Item = RacePair> + '_ {
        self.races.iter().copied()
    }

    /// Consumes the engine, returning the racing pairs.
    pub fn into_races(self) -> Vec<RacePair> {
        self.races.into_iter().collect()
    }

    /// Number of distinct racing pairs.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// Number of distinct locations with shadow state.
    pub fn location_count(&self) -> usize {
        self.shadow.len()
    }

    /// Locations that inflated to the shared representation (a second
    /// thread touched them). The exclusive remainder never ran a race
    /// check.
    pub fn inflated_count(&self) -> usize {
        self.shadow.iter().filter(|word| !word.exclusive).count()
    }

    fn ensure_thread(&mut self, thread: usize) {
        if thread >= self.clocks.len() {
            self.clocks.resize(thread + 1, VectorClock::new());
            self.thread_locksets
                .resize_with(thread + 1, ThreadLocksets::default);
        }
    }

    fn tick(&mut self, thread: ThreadId) -> u64 {
        let index = thread.index();
        self.ensure_thread(index);
        self.clocks[index].tick(index)
    }

    fn uses_lock_edges(&self) -> bool {
        self.policy == Policy::HappensBefore
    }

    fn on_mem(
        &mut self,
        thread: ThreadId,
        instr: InstrId,
        loc: Loc,
        is_write: bool,
        locks: &[ObjId],
    ) {
        let index = thread.index();
        let time = self.tick(thread);

        // Lockset interning behind a per-thread cache of every set the
        // thread has held: the overwhelmingly common case (re-holding a
        // known set, including re-entering the same `sync` block each loop
        // iteration) costs a short linear scan and no hashing.
        let cache = &mut self.thread_locksets[index];
        let lockset = match cache.entries.iter().find(|(held, _)| held == locks) {
            Some(&(_, id)) => id,
            None => {
                let id = self.locksets.intern(locks);
                cache.entries.push((locks.to_vec(), id));
                id
            }
        };
        let mut rec = AccessRec {
            thread: index as u32,
            time,
            instr,
            lockset,
            is_write,
            checked: 0,
        };

        let (slot, created) = self.locs.slot(loc, self.shadow.len() as u32);
        if created {
            rec.checked = 1; // checked against the whole (empty) history + itself
            self.shadow.push(ShadowWord {
                first: rec,
                rest: Vec::new(),
                exclusive: true,
                hint: 0,
            });
            return;
        }
        let slot = slot as usize;
        let word = &self.shadow[slot];
        let len = word.len();

        // A repeated signature only needs to be race-checked against
        // records added since its last check (see `AccessRec::checked`);
        // in the steady state of a loop that prefix covers everything and
        // the access costs one signature lookup. New signatures check the
        // whole history.
        let found = word.find_signature(&rec);
        let start = match found {
            Some(at) => {
                let checked = word.get(at).checked as usize;
                if checked >= len {
                    self.shadow[slot].hint = at as u32;
                    return;
                }
                checked
            }
            None => 0,
        };

        // The happens-before side of the predicate is the O(1) epoch
        // check: `old` is ordered before `rec` iff rec's clock already
        // covers old's epoch; the other direction can never hold because
        // `rec` just ticked its own component (see module docs).
        let clock = &self.clocks[index];
        for at in start..len {
            let old = word.get(at);
            if old.thread != rec.thread && (old.is_write || rec.is_write) {
                let racy = match self.policy {
                    Policy::Hybrid => {
                        self.locksets.disjoint(old.lockset, rec.lockset)
                            && clock.get(old.thread as usize) < old.time
                    }
                    Policy::HappensBefore => clock.get(old.thread as usize) < old.time,
                    Policy::Lockset => self.locksets.disjoint(old.lockset, rec.lockset),
                };
                if racy {
                    self.races.insert(RacePair::new(old.instr, rec.instr));
                }
            }
        }

        let word = &mut self.shadow[slot];
        match found {
            Some(at) => {
                // Duplicate: memoised out, but remember how far it checked.
                let stored = if at == 0 {
                    &mut word.first
                } else {
                    &mut word.rest[at - 1]
                };
                stored.checked = len as u32;
                word.hint = at as u32;
            }
            None => {
                // `+ 1` counts the record itself: it can never race with
                // its own (same-thread) later occurrences.
                rec.checked = (len + 1) as u32;
                let foreign = rec.thread != word.first.thread;
                word.rest.push(rec);
                word.hint = len as u32;
                if foreign {
                    word.exclusive = false;
                }
            }
        }
    }
}

impl Observer for EpochEngine {
    fn on_event(&mut self, event: &Event) {
        self.events_seen += 1;
        match event {
            Event::Mem {
                thread,
                instr,
                loc,
                is_write,
                locks,
            } => self.on_mem(*thread, *instr, *loc, *is_write, locks),
            Event::Send { msg, thread } => {
                self.tick(*thread);
                let snapshot = self.clocks[thread.index()].clone();
                self.msg_clocks.insert(*msg, snapshot);
            }
            Event::Recv { msg, thread } => {
                let index = thread.index();
                self.ensure_thread(index);
                if let Some(snapshot) = self.msg_clocks.get(msg) {
                    self.clocks[index].join(snapshot);
                }
                self.tick(*thread);
            }
            Event::Acquire { thread, obj, .. } => {
                if self.uses_lock_edges() {
                    let index = thread.index();
                    self.ensure_thread(index);
                    if let Some(snapshot) = self.release_clocks.get(obj) {
                        self.clocks[index].join(snapshot);
                    }
                    self.tick(*thread);
                }
            }
            Event::Release { thread, obj, .. } => {
                if self.uses_lock_edges() {
                    self.tick(*thread);
                    let snapshot = self.clocks[thread.index()].clone();
                    self.release_clocks.insert(*obj, snapshot);
                }
            }
            Event::ThreadSpawned { .. }
            | Event::ThreadExited { .. }
            | Event::ExceptionThrown { .. }
            | Event::ExceptionCaught { .. }
            | Event::Allocated { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil::flat::GlobalId;

    fn mem(thread: u32, instr: u32, loc: Loc, is_write: bool, locks: &[u32]) -> Event {
        Event::Mem {
            thread: ThreadId(thread),
            instr: InstrId(instr),
            loc,
            is_write,
            locks: locks.iter().map(|&lock| ObjId(lock)).collect(),
        }
    }

    const G: Loc = Loc::Global(GlobalId(0));

    #[test]
    fn unsynchronized_write_write_is_a_race_under_all_policies() {
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let mut engine = EpochEngine::new(policy);
            engine.on_event(&mem(0, 10, G, true, &[]));
            engine.on_event(&mem(1, 20, G, true, &[]));
            assert_eq!(engine.race_count(), 1, "{policy:?}");
            assert_eq!(
                engine.races().next().unwrap(),
                RacePair::new(InstrId(10), InstrId(20))
            );
        }
    }

    #[test]
    fn read_read_is_never_a_race() {
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let mut engine = EpochEngine::new(policy);
            engine.on_event(&mem(0, 10, G, false, &[]));
            engine.on_event(&mem(1, 20, G, false, &[]));
            assert_eq!(engine.race_count(), 0, "{policy:?}");
        }
    }

    #[test]
    fn common_lock_suppresses_hybrid_and_lockset() {
        for policy in [Policy::Hybrid, Policy::Lockset] {
            let mut engine = EpochEngine::new(policy);
            engine.on_event(&mem(0, 10, G, true, &[1, 2]));
            engine.on_event(&mem(1, 20, G, true, &[2, 3]));
            assert_eq!(engine.race_count(), 0, "{policy:?}: share lock 2");
        }
    }

    #[test]
    fn spawn_edge_orders_accesses_for_hybrid() {
        let mut engine = EpochEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 10, G, true, &[]));
        engine.on_event(&Event::Send {
            msg: 1,
            thread: ThreadId(0),
        });
        engine.on_event(&Event::Recv {
            msg: 1,
            thread: ThreadId(1),
        });
        engine.on_event(&mem(1, 20, G, true, &[]));
        assert_eq!(engine.race_count(), 0, "ordered by the spawn edge");
    }

    #[test]
    fn lock_edges_only_order_happens_before_policy() {
        let events = [
            Event::Acquire {
                thread: ThreadId(0),
                obj: ObjId(9),
                instr: InstrId(100),
            },
            mem(0, 10, G, true, &[9]),
            Event::Release {
                thread: ThreadId(0),
                obj: ObjId(9),
                instr: InstrId(101),
            },
            Event::Acquire {
                thread: ThreadId(1),
                obj: ObjId(9),
                instr: InstrId(102),
            },
            mem(1, 20, G, true, &[9]),
            Event::Release {
                thread: ThreadId(1),
                obj: ObjId(9),
                instr: InstrId(103),
            },
        ];
        let mut hb = EpochEngine::new(Policy::HappensBefore);
        for event in &events {
            hb.on_event(event);
        }
        assert_eq!(hb.race_count(), 0);

        let mut hb2 = EpochEngine::new(Policy::HappensBefore);
        hb2.on_event(&mem(0, 10, G, true, &[1]));
        hb2.on_event(&mem(1, 20, G, true, &[2]));
        assert_eq!(hb2.race_count(), 1);
    }

    #[test]
    fn histories_stay_memoised_in_loops() {
        let mut engine = EpochEngine::new(Policy::Hybrid);
        for _ in 0..1000 {
            engine.on_event(&mem(0, 10, G, true, &[]));
        }
        engine.on_event(&mem(1, 20, G, false, &[]));
        assert_eq!(engine.race_count(), 1);
        let word = &engine.shadow[0];
        assert!(
            word.rest.len() <= 1,
            "history stays bounded, got {}",
            1 + word.rest.len()
        );
    }

    #[test]
    fn exclusive_locations_never_inflate() {
        let mut engine = EpochEngine::new(Policy::Hybrid);
        for instr in 0..8 {
            engine.on_event(&mem(0, instr, G, true, &[]));
            engine.on_event(&mem(0, instr, Loc::Global(GlobalId(1)), false, &[]));
        }
        assert_eq!(engine.location_count(), 2);
        assert_eq!(
            engine.inflated_count(),
            0,
            "single-thread accesses stay cheap"
        );
        // A second thread inflates exactly the location it touches.
        engine.on_event(&mem(1, 99, G, false, &[]));
        assert_eq!(engine.inflated_count(), 1);
    }

    #[test]
    fn same_statement_can_race_with_itself_across_threads() {
        let mut engine = EpochEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 10, G, true, &[]));
        engine.on_event(&mem(1, 10, G, true, &[]));
        assert_eq!(
            engine.races().next().unwrap(),
            RacePair::new(InstrId(10), InstrId(10))
        );
    }

    #[test]
    fn distinct_locations_do_not_interact() {
        let mut engine = EpochEngine::new(Policy::Lockset);
        engine.on_event(&mem(0, 10, Loc::Global(GlobalId(0)), true, &[]));
        engine.on_event(&mem(1, 20, Loc::Global(GlobalId(1)), true, &[]));
        assert_eq!(engine.race_count(), 0);
    }

    #[test]
    fn field_and_elem_locations_resolve_through_the_object_index() {
        let mut engine = EpochEngine::new(Policy::Hybrid);
        let field_a = Loc::Field(ObjId(3), Symbol(0));
        let field_b = Loc::Field(ObjId(3), Symbol(1));
        let elem = Loc::Elem(ObjId(3), 0);
        engine.on_event(&mem(0, 1, field_a, true, &[]));
        engine.on_event(&mem(0, 2, field_b, true, &[]));
        engine.on_event(&mem(0, 3, elem, true, &[]));
        assert_eq!(engine.location_count(), 3, "three distinct locations");
        engine.on_event(&mem(1, 4, field_a, true, &[]));
        assert_eq!(engine.race_count(), 1, "only field_a races");
    }

    #[test]
    fn lockset_interning_deduplicates_ids() {
        let mut table = LocksetTable::new();
        let a = table.intern(&[ObjId(1), ObjId(2)]);
        let b = table.intern(&[ObjId(1), ObjId(2)]);
        let c = table.intern(&[ObjId(3)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(table.intern(&[]), 0);
        assert!(table.disjoint(0, a));
        assert!(!table.disjoint(a, b));
        assert!(table.disjoint(a, c));
    }

    #[test]
    fn later_duplicate_access_still_finds_new_pairs() {
        // t0 writes s1; sync edge t0→t1; t1 writes s2 (ordered after s1's
        // first occurrence, so no race yet); t0 writes s1 *again* — same
        // signature, but this occurrence is concurrent with s2. The naive
        // engine finds (s1, s2) while race-checking the duplicate before
        // dropping it; the fast path must too.
        let mut engine = EpochEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 1, G, true, &[]));
        engine.on_event(&Event::Send {
            msg: 7,
            thread: ThreadId(0),
        });
        engine.on_event(&Event::Recv {
            msg: 7,
            thread: ThreadId(1),
        });
        engine.on_event(&mem(1, 2, G, true, &[]));
        assert_eq!(engine.race_count(), 0, "ordered by the edge");
        engine.on_event(&mem(0, 1, G, true, &[]));
        assert_eq!(engine.race_count(), 1, "duplicate is still race-checked");
        assert_eq!(
            engine.races().next().unwrap(),
            RacePair::new(InstrId(1), InstrId(2))
        );
    }
}
