//! The shared detection engine behind the three detectors.
//!
//! All three classic dynamic detectors share the same skeleton — observe
//! `MEM` events, keep per-location access histories, and flag conflicting
//! access pairs — and differ only in the *predicate* applied to a pair:
//!
//! | policy                    | lockset check | happens-before check        |
//! |---------------------------|---------------|-----------------------------|
//! | [`Policy::Hybrid`]        | disjoint      | program order + `SND`/`RCV` |
//! | [`Policy::HappensBefore`] | —             | …plus lock release→acquire  |
//! | [`Policy::Lockset`]       | disjoint      | —                           |
//!
//! `Hybrid` is the paper's Phase 1 (O'Callahan & Choi): *predictive* because
//! it deliberately ignores the accidental ordering imposed by lock
//! acquisition order in the observed run. `HappensBefore` is the precise
//! but non-predictive baseline (§1's third comparison point). `Lockset` is
//! Eraser: most predictive, most false positives.

use crate::report::RacePair;
use cil::flat::InstrId;
use interp::{Event, Loc, MsgId, ObjId, Observer, ThreadId};
use std::collections::{BTreeSet, HashMap};
use vclock::VectorClock;

/// Which race predicate the engine applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Locksets + happens-before over thread start/join/notify–wait edges
    /// (the paper's Phase 1).
    Hybrid,
    /// Pure happens-before, including lock release→acquire edges: precise,
    /// detects only races that (nearly) happened in this execution.
    HappensBefore,
    /// Locksets only (Eraser-style): maximally predictive, noisiest.
    Lockset,
}

/// One remembered access to a location.
#[derive(Clone, Debug)]
struct Stored {
    thread: ThreadId,
    instr: InstrId,
    is_write: bool,
    locks: Vec<ObjId>,
    clock: VectorClock,
}

/// A race-detection engine parameterised by [`Policy`].
///
/// Feed it events by using it as an [`Observer`] during a run, then collect
/// [`RacePair`]s with [`DetectorEngine::races`].
#[derive(Clone, Debug)]
pub struct DetectorEngine {
    policy: Policy,
    memoise: bool,
    clocks: Vec<VectorClock>,
    msg_clocks: HashMap<MsgId, VectorClock>,
    release_clocks: HashMap<ObjId, VectorClock>,
    histories: HashMap<Loc, Vec<Stored>>,
    races: BTreeSet<RacePair>,
    events_seen: u64,
}

impl DetectorEngine {
    /// Creates an engine with the given policy.
    pub fn new(policy: Policy) -> Self {
        DetectorEngine {
            policy,
            memoise: true,
            clocks: Vec::new(),
            msg_clocks: HashMap::new(),
            release_clocks: HashMap::new(),
            histories: HashMap::new(),
            races: BTreeSet::new(),
            events_seen: 0,
        }
    }

    /// Creates an engine that keeps the **full** access history per
    /// location instead of memoising by `(thread, statement, lockset)`
    /// signature — the naive O(n²) formulation. The paper notes its own
    /// hybrid implementation was "not an optimized one" and timed out on
    /// the compute kernels (Table 1's `> 3600` cells); this mode exists to
    /// reproduce that blow-up in the overhead benchmark.
    pub fn new_unoptimized(policy: Policy) -> Self {
        DetectorEngine {
            memoise: false,
            ..Self::new(policy)
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

    fn clock_mut(&mut self, thread: ThreadId) -> &mut VectorClock {
        if thread.index() >= self.clocks.len() {
            self.clocks.resize(thread.index() + 1, VectorClock::new());
        }
        &mut self.clocks[thread.index()]
    }

    fn tick(&mut self, thread: ThreadId) {
        let index = thread.index();
        self.clock_mut(thread).tick(index);
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
        locks: Vec<ObjId>,
    ) {
        self.tick(thread);
        let new = Stored {
            thread,
            instr,
            is_write,
            locks,
            clock: self.clocks[thread.index()].clone(),
        };
        let policy = self.policy;
        let history = self.histories.entry(loc).or_default();
        let mut found_races = Vec::new();
        for old in history.iter() {
            if old.thread != thread
                && (old.is_write || new.is_write)
                && race_predicate(policy, old, &new)
            {
                found_races.push(RacePair::new(old.instr, new.instr));
            }
        }
        // Memoise: keep only the first access per (thread, stmt, write-kind,
        // lockset) signature. This bounds history size in loops; it is the
        // standard trimming optimisation and can only lose duplicate
        // *statement pairs*, which the report deduplicates anyway.
        let duplicate = self.memoise
            && history.iter().any(|old| {
                old.thread == new.thread
                    && old.instr == new.instr
                    && old.is_write == new.is_write
                    && old.locks == new.locks
            });
        if !duplicate {
            history.push(new);
        }
        self.races.extend(found_races);
    }
}

/// The per-policy race predicate over a stored and a new access (distinct
/// threads and read/write conflict already established by the caller).
fn race_predicate(policy: Policy, old: &Stored, new: &Stored) -> bool {
    debug_assert_ne!(old.thread, new.thread);
    match policy {
        Policy::Hybrid => disjoint(&old.locks, &new.locks) && old.clock.concurrent(&new.clock),
        Policy::HappensBefore => old.clock.concurrent(&new.clock),
        Policy::Lockset => disjoint(&old.locks, &new.locks),
    }
}

/// Common-lock check as a single merge scan over the two sorted locksets
/// (O(|a| + |b|), not the nested-loop O(|a| · |b|)). Both sides are sorted:
/// `ThreadState::lockset` sorts before emitting the `MEM` event, and the
/// epoch engine interns those same slices. Shared by both Phase-1 engines.
pub(crate) fn disjoint(a: &[ObjId], b: &[ObjId]) -> bool {
    let mut ia = 0;
    let mut ib = 0;
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

impl Observer for DetectorEngine {
    fn on_event(&mut self, event: &Event) {
        self.events_seen += 1;
        match event {
            Event::Mem {
                thread,
                instr,
                loc,
                is_write,
                locks,
            } => self.on_mem(*thread, *instr, *loc, *is_write, locks.clone()),
            Event::Send { msg, thread } => {
                self.tick(*thread);
                let snapshot = self.clock_mut(*thread).clone();
                self.msg_clocks.insert(*msg, snapshot);
            }
            Event::Recv { msg, thread } => {
                if let Some(snapshot) = self.msg_clocks.get(msg).cloned() {
                    self.clock_mut(*thread).join(&snapshot);
                }
                self.tick(*thread);
            }
            Event::Acquire { thread, obj, .. } => {
                if self.uses_lock_edges() {
                    if let Some(snapshot) = self.release_clocks.get(obj).cloned() {
                        self.clock_mut(*thread).join(&snapshot);
                    }
                    self.tick(*thread);
                }
            }
            Event::Release { thread, obj, .. } => {
                if self.uses_lock_edges() {
                    self.tick(*thread);
                    let snapshot = self.clock_mut(*thread).clone();
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
            let mut engine = DetectorEngine::new(policy);
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
            let mut engine = DetectorEngine::new(policy);
            engine.on_event(&mem(0, 10, G, false, &[]));
            engine.on_event(&mem(1, 20, G, false, &[]));
            assert_eq!(engine.race_count(), 0, "{policy:?}");
        }
    }

    #[test]
    fn same_thread_accesses_do_not_race() {
        let mut engine = DetectorEngine::new(Policy::Lockset);
        engine.on_event(&mem(0, 10, G, true, &[]));
        engine.on_event(&mem(0, 20, G, true, &[]));
        assert_eq!(engine.race_count(), 0);
    }

    #[test]
    fn common_lock_suppresses_hybrid_and_lockset() {
        for policy in [Policy::Hybrid, Policy::Lockset] {
            let mut engine = DetectorEngine::new(policy);
            engine.on_event(&mem(0, 10, G, true, &[1, 2]));
            engine.on_event(&mem(1, 20, G, true, &[2, 3]));
            assert_eq!(engine.race_count(), 0, "{policy:?}: share lock 2");
        }
    }

    #[test]
    fn spawn_edge_orders_accesses_for_hybrid() {
        let mut engine = DetectorEngine::new(Policy::Hybrid);
        // Parent writes, then spawns child (Send/Recv), child writes.
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
        // t0 writes under lock, releases; t1 acquires same lock, writes.
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
        // HappensBefore: ordered by the release→acquire edge → no race.
        let mut hb = DetectorEngine::new(Policy::HappensBefore);
        for event in &events {
            hb.on_event(event);
        }
        assert_eq!(hb.race_count(), 0);

        // The same trace with *different* locks is an HB race.
        let mut hb2 = DetectorEngine::new(Policy::HappensBefore);
        hb2.on_event(&mem(0, 10, G, true, &[1]));
        hb2.on_event(&mem(1, 20, G, true, &[2]));
        assert_eq!(hb2.race_count(), 1);
    }

    #[test]
    fn hybrid_predicts_race_hidden_by_lock_ordering() {
        // The signature difference: accesses to a location protected by
        // *different* locks in two threads, where the observed run ordered
        // them via an unrelated common lock. Hybrid still predicts; a pure
        // HB detector with lock edges would only see it by luck.
        let mut engine = DetectorEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 10, G, true, &[5]));
        engine.on_event(&mem(1, 20, G, true, &[6]));
        assert_eq!(engine.race_count(), 1);
    }

    #[test]
    fn histories_are_memoised_in_loops() {
        let mut engine = DetectorEngine::new(Policy::Hybrid);
        for _ in 0..1000 {
            engine.on_event(&mem(0, 10, G, true, &[]));
        }
        engine.on_event(&mem(1, 20, G, false, &[]));
        assert_eq!(engine.race_count(), 1);
        let history_len = engine.histories.get(&G).map(Vec::len).unwrap();
        assert!(history_len <= 2, "history stays bounded, got {history_len}");
    }

    #[test]
    fn same_statement_can_race_with_itself_across_threads() {
        let mut engine = DetectorEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 10, G, true, &[]));
        engine.on_event(&mem(1, 10, G, true, &[]));
        assert_eq!(
            engine.races().next().unwrap(),
            RacePair::new(InstrId(10), InstrId(10))
        );
    }

    #[test]
    fn distinct_locations_do_not_interact() {
        let mut engine = DetectorEngine::new(Policy::Lockset);
        engine.on_event(&mem(0, 10, Loc::Global(GlobalId(0)), true, &[]));
        engine.on_event(&mem(1, 20, Loc::Global(GlobalId(1)), true, &[]));
        assert_eq!(engine.race_count(), 0);
    }

    #[test]
    fn notify_wait_edge_orders_hybrid() {
        // Writer writes then notifies (Send); waiter receives then writes.
        let mut engine = DetectorEngine::new(Policy::Hybrid);
        engine.on_event(&mem(0, 10, G, true, &[7]));
        engine.on_event(&Event::Send {
            msg: 5,
            thread: ThreadId(0),
        });
        engine.on_event(&Event::Recv {
            msg: 5,
            thread: ThreadId(1),
        });
        engine.on_event(&mem(1, 20, G, true, &[8]));
        assert_eq!(engine.race_count(), 0);
    }

    #[test]
    fn disjoint_merge_scan_on_disjoint_sets() {
        assert!(disjoint(&[ObjId(1), ObjId(3)], &[ObjId(2), ObjId(4)]));
        assert!(disjoint(&[ObjId(1)], &[ObjId(2)]));
        assert!(disjoint(&[], &[ObjId(1)]));
        assert!(disjoint(&[ObjId(1)], &[]));
        assert!(disjoint(&[], &[]));
        // Interleaved without ever colliding.
        assert!(disjoint(
            &[ObjId(0), ObjId(2), ObjId(4), ObjId(6)],
            &[ObjId(1), ObjId(3), ObjId(5), ObjId(7)]
        ));
    }

    #[test]
    fn disjoint_merge_scan_on_overlapping_sets() {
        assert!(!disjoint(&[ObjId(1), ObjId(3)], &[ObjId(3)]));
        assert!(!disjoint(&[ObjId(3)], &[ObjId(1), ObjId(3)]));
        // Common element in the middle, found without a full product scan.
        assert!(!disjoint(
            &[ObjId(1), ObjId(5), ObjId(9)],
            &[ObjId(2), ObjId(5), ObjId(8)]
        ));
    }

    #[test]
    fn disjoint_merge_scan_on_subset_locksets() {
        // Subset in either direction is never disjoint (common lock exists).
        let inner = [ObjId(2), ObjId(4)];
        let outer = [ObjId(1), ObjId(2), ObjId(3), ObjId(4), ObjId(5)];
        assert!(!disjoint(&inner, &outer));
        assert!(!disjoint(&outer, &inner));
        assert!(!disjoint(&inner, &inner)); // a set is a subset of itself
    }
}
