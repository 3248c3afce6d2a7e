//! Snapshot-accelerated Phase 2: prologue forking and the decision-prefix
//! trie.
//!
//! A Phase-2 trial is a pure function of `(program, entry, race set, seed)`
//! (paper §2.2), and the scheduler is *deterministic up to its random
//! choices*: between two draws whose outcome actually matters (a pick among
//! ≥ 2 candidates, or a race-resolving coin), every step of the interpreter
//! and every forced draw (`below(1)`, which consumes a word but can only
//! return 0) is fully determined by the state. Two seeds that make the same
//! sequence of *non-forced* choices therefore walk through identical
//! states.
//!
//! This module exploits that in two tiers, both built on
//! [`interp::Snapshot`] (copy-on-write heap pages and `Arc`-shared thread
//! states, so captures cost refcount bumps, not heap copies):
//!
//! * **Entry prologue** ([`SnapshotMode::PrologueOnly`]): the
//!   single-threaded prefix of a run — up to the first shared-memory
//!   access or `spawn` — consists solely of forced draws and is identical
//!   for *every pair and every seed*. It is executed once per
//!   `(program, entry)` and every trial forks from its snapshot.
//! * **Decision-prefix trie** ([`SnapshotMode::PrefixTrie`]): per pair, a
//!   trie keyed by non-forced choice outcomes memoizes snapshots taken at
//!   scheduler loop-tops. A new trial first *simulates* its seed's draws
//!   down the trie (no interpreter involved) and resumes from the deepest
//!   snapshot on its matching path, re-executing only the divergent
//!   suffix.
//!
//! Correctness argument (the reports stay byte-identical to the
//! non-snapshot path): a snapshot records the full machine state at a
//! scheduler loop-top plus the number of RNG draws consumed to reach it. A
//! resumed trial rebuilds `Rng::seeded(seed)` and discards exactly that
//! many draws (a jump in O(log draws), not a loop), so every subsequent
//! draw — forced or not — produces the same word the uncached run would
//! have produced at the same point. The trie only resumes a seed from a
//! node when simulating the seed's own stream reproduces every non-forced
//! outcome on the path, so the skipped prefix is exactly what the seed
//! would have executed. Eviction removes snapshots, never trie structure,
//! and a missing snapshot only costs re-execution — it cannot change an
//! outcome.
//!
//! Snapshots are excluded whenever `record_schedule` or `wall_clock` are
//! set: schedule traces would have to be captured per snapshot (an O(steps)
//! copy that defeats the point), and wall-clock deadlines are inherently
//! non-replayable.

use crate::config::FuzzConfig;
use crate::outcome::RealRaceEvent;
use interp::{Execution, Limits, Prologue, Rng, Snapshot, ThreadId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// How aggressively Phase 2 reuses execution prefixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotMode {
    /// No snapshotting: every trial replays from instruction zero.
    Off,
    /// Fork each trial from the shared single-threaded entry prologue.
    PrologueOnly,
    /// Prologue forking plus the per-pair decision-prefix trie.
    PrefixTrie,
}

impl SnapshotMode {
    /// All modes, for sweeps.
    pub const ALL: [SnapshotMode; 3] = [
        SnapshotMode::Off,
        SnapshotMode::PrologueOnly,
        SnapshotMode::PrefixTrie,
    ];

    /// Short stable name (bench tables, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotMode::Off => "off",
            SnapshotMode::PrologueOnly => "prologue",
            SnapshotMode::PrefixTrie => "trie",
        }
    }
}

/// Snapshot-acceleration settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotOptions {
    /// Reuse tier. Defaults to [`SnapshotMode::PrefixTrie`].
    pub mode: SnapshotMode,
    /// Maximum trie depth (non-forced choices) tracked per trial; beyond
    /// it the trial runs free. Bounds trie growth on long schedules.
    pub max_depth: usize,
    /// Approximate snapshot-memory budget per pair, in bytes. When an
    /// installation pushes the total over it, least-recently-used
    /// snapshots are evicted (trie structure is kept). The newest snapshot
    /// is never evicted by its own installation, so a tiny budget
    /// degenerates to a 1-snapshot cache, not an empty one.
    pub budget_bytes: u64,
    /// A snapshot is only captured once it would advance the trial's
    /// resume frontier by at least this many interpreter steps. Dense
    /// choice points (every loop iteration a pick) make per-node snapshots
    /// worthless — resuming one node deeper skips one step — so capture
    /// effort is spent only where a resume actually pays. `0` captures at
    /// every eligible loop-top (tests exercising eviction pressure).
    pub min_capture_gain: u64,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        SnapshotOptions {
            mode: SnapshotMode::PrefixTrie,
            max_depth: 64,
            budget_bytes: 32 << 20,
            min_capture_gain: 256,
        }
    }
}

impl SnapshotOptions {
    /// Convenience: everything off.
    pub fn off() -> Self {
        SnapshotOptions {
            mode: SnapshotMode::Off,
            ..SnapshotOptions::default()
        }
    }

    /// Convenience: the given mode with default depth/budget.
    pub fn with_mode(mode: SnapshotMode) -> Self {
        SnapshotOptions {
            mode,
            ..SnapshotOptions::default()
        }
    }
}

/// Above this trie depth, capture a pending snapshot at most once every
/// `CAPTURE_INTERVAL` loop-tops across the whole trial. Deep nodes are
/// reached by few seeds, so dense capture there is pure overhead; the
/// throttle keeps capture cost O(state) per interval instead of per
/// decision.
const CAPTURE_INTERVAL: u32 = 32;

/// Up to this trie depth, capture one pending snapshot per inter-choice
/// segment (the first loop-top after each descent). Shallow nodes are
/// shared by many seeds — the expected deepest shared prefix over N random
/// seeds is ~log2(N) choices — so a snapshot on each of them is what turns
/// prefix sharing into skipped steps. Bounded: at most this many shallow
/// captures per trial.
const SHALLOW_CAPTURE_DEPTH: usize = 12;

/// Everything a trial needs to continue mid-run: machine state plus the
/// scheduler's own bookkeeping at a loop-top.
pub(crate) struct TrialSnapshot {
    pub(crate) exec: Snapshot,
    pub(crate) postponed: Vec<(ThreadId, u64)>,
    pub(crate) races: Vec<RealRaceEvent>,
    pub(crate) decisions: u64,
    /// RNG draws consumed to reach this state; resume discards this many
    /// with `Rng::discard`, which jumps in O(log draws), so resuming a deep
    /// snapshot costs no more RNG work than resuming a shallow one.
    pub(crate) draws: u64,
}

impl TrialSnapshot {
    /// A trial's state at the end of the entry prologue: every decision
    /// before it made one forced draw.
    fn prologue(prologue: Prologue) -> Self {
        TrialSnapshot {
            exec: prologue.snapshot,
            postponed: Vec::new(),
            races: Vec::new(),
            decisions: prologue.forced,
            draws: prologue.forced,
        }
    }

    fn approx_bytes(&self) -> u64 {
        self.exec.approx_bytes()
            + (self.postponed.len() * 16) as u64
            + (self.races.len() * 96) as u64
    }
}

/// A non-forced scheduler choice: the only points where seeds diverge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Choice {
    /// `rng.below(bound)` with `bound >= 2` (candidate pick or postponed
    /// eviction).
    Pick { bound: u32 },
    /// The race-resolving coin flip (Algorithm 1 line 11).
    Coin,
}

struct Stored {
    snap: Arc<TrialSnapshot>,
    bytes: u64,
    last_used: u64,
    /// `last_used` at the time the node (re-)entered the eviction queue;
    /// `last_used > enqueued` means "touched since queued" and earns a
    /// second chance instead of eviction.
    enqueued: u64,
}

#[derive(Default)]
struct Node {
    /// The choice taken at this node; `None` until the first trial reaches
    /// it (freshly created children are labelled on their first visit).
    choice: Option<Choice>,
    /// Total RNG draws (forced ones included) consumed before this node's
    /// own draw — what the seed walker discards while simulating.
    draws_before: u64,
    /// `(outcome, node index)` pairs, small and scanned linearly.
    children: Vec<(u32, usize)>,
    snapshot: Option<Stored>,
}

struct Trie {
    nodes: Vec<Node>,
    bytes: u64,
    clock: u64,
    /// Second-chance (CLOCK) eviction queue: indices of nodes holding a
    /// snapshot, in (re-)enqueue order. Approximates LRU with O(1)
    /// amortised evictions — a full scan per eviction is quadratic once
    /// the trie holds thousands of nodes.
    queue: std::collections::VecDeque<usize>,
}

impl Trie {
    fn new() -> Self {
        Trie {
            nodes: vec![Node::default()],
            bytes: 0,
            clock: 0,
            queue: std::collections::VecDeque::new(),
        }
    }
}

/// Snapshot statistics for one pair, mirrored into
/// [`crate::PairReport::snapshots`]. Advisory: excluded from report
/// identity (Debug/serialisation), since hit patterns legitimately vary
/// with worker interleaving while outcomes do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Trials that consulted the cache.
    pub trials: u64,
    /// Trials that resumed from a snapshot (prologue or trie).
    pub cache_hits: u64,
    /// Interpreter steps skipped by resuming instead of re-executing.
    pub fast_forwarded_steps: u64,
    /// Snapshots installed into the trie.
    pub captures: u64,
    /// Snapshots evicted under the memory budget.
    pub evictions: u64,
}

impl SnapshotStats {
    /// Field-wise sum (campaign-level aggregation).
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.trials += other.trials;
        self.cache_hits += other.cache_hits;
        self.fast_forwarded_steps += other.fast_forwarded_steps;
        self.captures += other.captures;
        self.evictions += other.evictions;
    }

    /// Cache hits per trial, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.trials as f64
        }
    }
}

#[derive(Default)]
struct AtomicStats {
    trials: AtomicU64,
    cache_hits: AtomicU64,
    fast_forwarded_steps: AtomicU64,
    captures: AtomicU64,
    evictions: AtomicU64,
}

enum PrologueSlot {
    NotComputed,
    Ready(Option<Arc<TrialSnapshot>>),
}

/// Per-`(program, entry)` shared state: the options and the entry-prologue
/// snapshot, computed on first use unless Phase 1 handed it over. One of
/// these is shared by every [`PairCache`] of an analysis run.
pub struct EntryCache {
    options: SnapshotOptions,
    prologue: Mutex<PrologueSlot>,
}

impl EntryCache {
    /// Creates the shared per-entry state.
    pub fn new(options: SnapshotOptions) -> Arc<Self> {
        Arc::new(EntryCache {
            options,
            prologue: Mutex::new(PrologueSlot::NotComputed),
        })
    }

    /// [`EntryCache::new`], with the prologue slot filled from the one
    /// Phase 1 captured under `phase1` limits
    /// ([`detector::predict_races_with_prologue`]) when that capture is the
    /// state [`compute_prologue`] would produce under `config`: the
    /// prologue is enabled, both runs had the same heap budget, and its end
    /// lies below `config`'s step limit, so Phase 2 would not cut it short.
    /// (A capture always lies below Phase 1's own step limit: `drive`
    /// checks it before every decision.) Otherwise the slot stays lazy.
    pub(crate) fn with_prologue(
        options: SnapshotOptions,
        prologue: Option<Prologue>,
        phase1: &Limits,
        config: &FuzzConfig,
    ) -> Arc<Self> {
        let handed = prologue.filter(|prologue| {
            !config.switch_only_at_sync
                && phase1.max_heap_cells == config.max_heap_cells
                && prologue.snapshot.steps() < config.max_steps
        });
        let slot = match handed {
            Some(prologue) => {
                PrologueSlot::Ready(Some(Arc::new(TrialSnapshot::prologue(prologue))))
            }
            None => PrologueSlot::NotComputed,
        };
        Arc::new(EntryCache {
            options,
            prologue: Mutex::new(slot),
        })
    }

    /// The options this cache was built with.
    pub fn options(&self) -> SnapshotOptions {
        self.options
    }

    /// Whether the prologue slot is filled.
    #[cfg(test)]
    pub(crate) fn prologue_ready(&self) -> bool {
        matches!(
            *self.prologue.lock().expect("prologue lock"),
            PrologueSlot::Ready(_)
        )
    }

    /// The entry-prologue snapshot, computed on first use.
    fn prologue(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> Option<Arc<TrialSnapshot>> {
        let mut slot = self.prologue.lock().expect("prologue lock");
        if let PrologueSlot::Ready(cached) = &*slot {
            return cached.clone();
        }
        let computed = compute_prologue(program, entry, config).map(Arc::new);
        *slot = PrologueSlot::Ready(computed.clone());
        computed
    }
}

/// The entry prologue under `config` ([`interp::run_prologue`]): the state
/// at the first loop-top where the next instruction is a shared-memory
/// access or a `spawn`, the thread blocked or exited, or the step budget
/// or an engine error ended the run. The scheduler loop's single-thread
/// decisions there are one forced draw and one step each, and every
/// statement before that point is outside every race set (race-set
/// members are memory accesses), so the state and draw count are identical
/// for every pair and seed. Disabled under `switch_only_at_sync`, where the
/// first draw covers a whole run-to-sync segment and an early stop would
/// not be a loop-top.
fn compute_prologue(
    program: &cil::Program,
    entry: &str,
    config: &FuzzConfig,
) -> Option<TrialSnapshot> {
    if config.switch_only_at_sync {
        return None;
    }
    let mut exec = Execution::new(program, entry).ok()?;
    let limits = Limits {
        max_steps: config.max_steps,
        deadline: None,
        max_heap_cells: config.max_heap_cells,
    };
    interp::run_prologue(&mut exec, limits).map(TrialSnapshot::prologue)
}

/// The per-pair snapshot cache: decision-prefix trie plus statistics.
/// Shared (`Arc`) read-side by every worker fuzzing the pair; the trie is
/// guarded by a mutex that is only taken at trial start and at non-forced
/// choices, never per step.
pub struct PairCache {
    shared: Arc<EntryCache>,
    trie: Mutex<Trie>,
    stats: AtomicStats,
}

impl PairCache {
    /// Creates a cache for one pair, sharing `entry`'s prologue.
    pub fn new(shared: Arc<EntryCache>) -> Arc<Self> {
        Arc::new(PairCache {
            shared,
            trie: Mutex::new(Trie::new()),
            stats: AtomicStats::default(),
        })
    }

    /// The options in force.
    pub fn options(&self) -> SnapshotOptions {
        self.shared.options
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            trials: self.stats.trials.load(Relaxed),
            cache_hits: self.stats.cache_hits.load(Relaxed),
            fast_forwarded_steps: self.stats.fast_forwarded_steps.load(Relaxed),
            captures: self.stats.captures.load(Relaxed),
            evictions: self.stats.evictions.load(Relaxed),
        }
    }

    /// Number of snapshots currently resident (tests/benches).
    pub fn resident_snapshots(&self) -> usize {
        let trie = self.trie.lock().expect("trie lock");
        trie.nodes
            .iter()
            .filter(|node| node.snapshot.is_some())
            .count()
    }

    /// Starts a trial for `seed`: walks the trie under the seed's
    /// simulated draw stream, picks the deepest matching snapshot (falling
    /// back to the entry prologue), and returns the bookkeeping session
    /// the scheduler loop drives.
    pub(crate) fn begin_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> TrialSession {
        self.stats.trials.fetch_add(1, Relaxed);
        let options = self.shared.options;
        let trie_enabled = options.mode == SnapshotMode::PrefixTrie;

        let mut resume: Option<Arc<TrialSnapshot>> = None;
        if trie_enabled {
            let mut sim = Rng::seeded(config.seed);
            let mut consumed: u64 = 0;
            let mut trie = self.trie.lock().expect("trie lock");
            let mut at = 0usize;
            let mut depth = 0usize;
            let mut best: Option<(usize, usize)> =
                trie.nodes[0].snapshot.is_some().then_some((0, 0));
            loop {
                let node = &trie.nodes[at];
                let Some(choice) = node.choice else { break };
                debug_assert!(node.draws_before >= consumed, "draw counter went backwards");
                sim.discard(node.draws_before - consumed);
                consumed = node.draws_before + 1;
                let outcome = match choice {
                    Choice::Pick { bound } => sim.below(bound as usize) as u32,
                    Choice::Coin => sim.coin() as u32,
                };
                let Some(&(_, child)) = node
                    .children
                    .iter()
                    .find(|(key, _)| *key == outcome)
                else {
                    break;
                };
                at = child;
                depth += 1;
                if trie.nodes[at].snapshot.is_some() {
                    best = Some((at, depth));
                }
            }
            if let Some((node, depth)) = best {
                trie.clock += 1;
                let clock = trie.clock;
                let stored = trie.nodes[node].snapshot.as_mut().expect("best has snapshot");
                stored.last_used = clock;
                resume = Some(Arc::clone(&stored.snap));
                self.stats.cache_hits.fetch_add(1, Relaxed);
                self.stats
                    .fast_forwarded_steps
                    .fetch_add(stored.snap.exec.steps(), Relaxed);
                // Resuming from `node`'s snapshot puts the machine just
                // before `node`'s own choice, so the cursor restarts there
                // and re-descends live — deeper matches stay valid and are
                // re-entered as their choices fire. `want_pending` starts
                // false (the cursor node has its snapshot) and capture
                // resumes past it, so a seed that recurs — campaign
                // retries, replay — pushes its snapshot frontier deeper on
                // every run.
                let frontier_steps = stored.snap.exec.steps();
                return TrialSession {
                    cursor: node,
                    resume,
                    pending: None,
                    want_pending: false,
                    depth,
                    ticks: 0,
                    done: false,
                    min_gain: options.min_capture_gain,
                    frontier_steps,
                };
            }
        }

        if resume.is_none() {
            if let Some(prologue) = self.shared.prologue(program, entry, config) {
                self.stats.cache_hits.fetch_add(1, Relaxed);
                self.stats
                    .fast_forwarded_steps
                    .fetch_add(prologue.exec.steps(), Relaxed);
                resume = Some(prologue);
            }
        }
        let frontier_steps = resume.as_ref().map_or(0, |snap| snap.exec.steps());
        TrialSession {
            cursor: 0,
            resume,
            pending: None,
            want_pending: trie_enabled,
            depth: 0,
            ticks: 0,
            done: !trie_enabled,
            min_gain: options.min_capture_gain,
            frontier_steps,
        }
    }
}

/// Per-trial trie bookkeeping, driven by the scheduler loop.
pub(crate) struct TrialSession {
    cursor: usize,
    resume: Option<Arc<TrialSnapshot>>,
    pending: Option<TrialSnapshot>,
    want_pending: bool,
    depth: usize,
    ticks: u32,
    done: bool,
    /// [`SnapshotOptions::min_capture_gain`], copied at trial start.
    min_gain: u64,
    /// Steps at the most recent resume point or capture: a new capture
    /// must beat this by `min_gain` to be worth its O(state) cost.
    frontier_steps: u64,
}

impl TrialSession {
    /// The snapshot this trial resumes from, if any.
    pub(crate) fn resume_point(&self) -> Option<Arc<TrialSnapshot>> {
        self.resume.clone()
    }

    /// Called at every scheduler loop-top: captures the state as a pending
    /// snapshot for the current trie node. Shallow nodes
    /// (`depth < SHALLOW_CAPTURE_DEPTH`) get one capture per inter-choice
    /// segment — they are the nodes many seeds share; deeper ones only at
    /// the trial-global `CAPTURE_INTERVAL` throttle. Any loop-top on the
    /// matched path is a sound capture point (resume replays the forced
    /// draws between it and the node's own choice), so throttling trades
    /// resume granularity, never correctness.
    pub(crate) fn at_loop_top(
        &mut self,
        exec: &Execution<'_>,
        postponed: &[(ThreadId, u64)],
        races: &[RealRaceEvent],
        decisions: u64,
        draws: u64,
    ) {
        let capture = self.captures_at(exec.steps());
        self.tick();
        if !capture {
            return;
        }
        self.frontier_steps = exec.steps();
        self.pending = Some(TrialSnapshot {
            exec: exec.snapshot(),
            postponed: postponed.to_vec(),
            races: races.to_vec(),
            decisions,
            draws,
        });
    }

    /// Whether [`TrialSession::at_loop_top`] would capture at a loop-top
    /// reached after `steps` statements.
    fn captures_at(&self, steps: u64) -> bool {
        if self.done || !self.want_pending {
            return false;
        }
        if steps < self.frontier_steps + self.min_gain {
            return false; // resuming here would barely beat the existing frontier
        }
        if self.depth < SHALLOW_CAPTURE_DEPTH {
            self.pending.is_none()
        } else {
            self.ticks.is_multiple_of(CAPTURE_INTERVAL)
        }
    }

    /// Counts a loop-top towards the deep-node capture throttle.
    fn tick(&mut self) {
        if !self.done && self.want_pending {
            self.ticks += 1;
        }
    }

    /// The bookkeeping of [`TrialSession::at_loop_top`] for a loop-top the
    /// scheduler replays without materialising the state (DESIGN.md §5.2),
    /// reached after `steps` statements. Returns `false`, changing nothing,
    /// if `at_loop_top` would capture there: the caller must then
    /// materialise the state and call it.
    pub(crate) fn replay_loop_top(&mut self, steps: u64) -> bool {
        if self.captures_at(steps) {
            return false;
        }
        self.tick();
        true
    }

    /// Records a non-forced `below(bound)` pick (`bound >= 2`).
    pub(crate) fn on_pick(
        &mut self,
        cache: &PairCache,
        bound: usize,
        outcome: usize,
        draws_before: u64,
    ) {
        self.on_choice(cache, Choice::Pick { bound: bound as u32 }, outcome as u32, draws_before);
    }

    /// Records the race-resolution coin flip.
    pub(crate) fn on_coin(&mut self, cache: &PairCache, outcome: bool, draws_before: u64) {
        self.on_choice(cache, Choice::Coin, outcome as u32, draws_before);
    }

    fn on_choice(&mut self, cache: &PairCache, choice: Choice, outcome: u32, draws_before: u64) {
        if self.done {
            return;
        }
        let options = cache.shared.options;
        let mut trie = cache.trie.lock().expect("trie lock");
        match trie.nodes[self.cursor].choice {
            None => {
                let node = &mut trie.nodes[self.cursor];
                node.choice = Some(choice);
                node.draws_before = draws_before;
            }
            Some(existing) => {
                // Determinism guard: every trial reaching this node must
                // see the same choice site. If not, stop touching the trie
                // (the Off path semantics are unaffected).
                if existing != choice || trie.nodes[self.cursor].draws_before != draws_before {
                    debug_assert!(false, "decision-prefix divergence at equal paths");
                    self.done = true;
                    return;
                }
            }
        }
        if trie.nodes[self.cursor].snapshot.is_none() {
            if let Some(snap) = self.pending.take() {
                install(&mut trie, &cache.stats, self.cursor, snap, options.budget_bytes);
            }
        }
        self.pending = None;
        let child = match trie.nodes[self.cursor]
            .children
            .iter()
            .find(|(key, _)| *key == outcome)
        {
            Some(&(_, child)) => child,
            None => {
                let child = trie.nodes.len();
                trie.nodes.push(Node::default());
                trie.nodes[self.cursor].children.push((outcome, child));
                child
            }
        };
        self.cursor = child;
        self.depth += 1;
        if self.depth >= options.max_depth {
            self.done = true;
            self.want_pending = false;
            return;
        }
        self.want_pending = trie.nodes[child].snapshot.is_none();
    }
}

fn install(trie: &mut Trie, stats: &AtomicStats, node: usize, snap: TrialSnapshot, budget: u64) {
    let bytes = snap.approx_bytes().max(1);
    trie.clock += 1;
    let clock = trie.clock;
    trie.nodes[node].snapshot = Some(Stored {
        snap: Arc::new(snap),
        bytes,
        last_used: clock,
        enqueued: clock,
    });
    trie.bytes += bytes;
    trie.queue.push_back(node);
    stats.captures.fetch_add(1, Relaxed);
    // Second-chance eviction, sparing the snapshot just installed: a
    // queued node touched since it was enqueued is requeued once instead
    // of evicted, so hot (shallow, frequently resumed) snapshots survive
    // budget pressure — approximate LRU at O(1) amortised per eviction.
    // The trie keeps its structure (choices, draw counts, children) so
    // future walks still match; a missing snapshot only costs
    // re-execution.
    while trie.bytes > budget {
        let Some(victim) = trie.queue.pop_front() else { break };
        if victim == node {
            trie.queue.push_back(victim);
            if trie.queue.len() == 1 {
                break; // only the just-installed snapshot remains
            }
            continue;
        }
        let stored = trie.nodes[victim]
            .snapshot
            .as_mut()
            .expect("queued nodes hold snapshots");
        if stored.last_used > stored.enqueued {
            stored.enqueued = clock;
            trie.queue.push_back(victim);
            continue;
        }
        let stored = trie.nodes[victim].snapshot.take().expect("checked above");
        trie.bytes -= stored.bytes;
        stats.evictions.fetch_add(1, Relaxed);
    }
}

// Snapshots cross the PR-3 work-stealing pool; keep the whole cache stack
// shareable by construction.
#[allow(dead_code)]
fn assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<TrialSnapshot>();
    assert::<EntryCache>();
    assert::<PairCache>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_trie() {
        let options = SnapshotOptions::default();
        assert_eq!(options.mode, SnapshotMode::PrefixTrie);
        assert!(options.budget_bytes > 0);
        assert!(options.max_depth > 0);
    }

    #[test]
    fn prologue_stops_before_first_memory_access() {
        let program = cil::compile(
            r#"
            global x = 0;
            proc main() {
                var i = 0;
                while (i < 5) { i = i + 1; }
                x = 1;
            }
            "#,
        )
        .unwrap();
        let config = FuzzConfig::seeded(1);
        let snap = compute_prologue(&program, "main", &config).expect("has prologue");
        // The prologue must stop before `x = 1` (a global store) but after
        // making progress through the pure local loop.
        assert!(snap.exec.steps() > 5);
        assert_eq!(snap.draws, snap.decisions);
        assert!(snap.postponed.is_empty() && snap.races.is_empty());
    }

    #[test]
    fn prologue_disabled_under_switch_only_at_sync() {
        let program = cil::compile("proc main() { var i = 0; i = i + 1; }").unwrap();
        let mut config = FuzzConfig::seeded(1);
        config.switch_only_at_sync = true;
        assert!(compute_prologue(&program, "main", &config).is_none());
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = SnapshotStats {
            trials: 10,
            cache_hits: 5,
            fast_forwarded_steps: 100,
            captures: 3,
            evictions: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.trials, 20);
        assert_eq!(a.cache_hits, 10);
        assert!((b.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(SnapshotStats::default().hit_rate(), 0.0);
    }
}
