//! Snapshot-accelerated Phase 2: every trial forks from the entry prologue.
//!
//! A Phase-2 trial is a pure function of `(program, entry, race set, seed)`
//! (paper §2.2), and the scheduler is *deterministic up to its random
//! choices*: a forced draw (`below(1)`, which consumes a word but can only
//! return 0) leaves nothing to chance. The single-threaded prefix of a run
//! — up to the first shared-memory access or `spawn` — consists solely of
//! forced draws and is identical for *every pair and every seed*, so it is
//! the one prefix all trials share. It is executed once per
//! `(program, entry)` (or handed over by Phase 1), kept as an
//! [`interp::Snapshot`] (copy-on-write heap pages and `Arc`-shared thread
//! states, so forking costs refcount bumps, not heap copies), and every
//! trial forks from it.
//!
//! Correctness argument (the reports stay byte-identical to the
//! non-snapshot path): the prologue ends at a scheduler loop-top, after
//! `forced` decisions that each made one forced draw and ran one statement.
//! A resumed trial rebuilds `Rng::seeded(seed)` and discards exactly
//! `forced` draws (a jump in O(log forced), not a loop), so every later
//! draw produces the word the uncached run would have produced at the
//! same point. No postponement or race can have happened before the
//! prologue's end: race-set members are memory accesses, and the prologue
//! stops before the first one.
//!
//! Snapshots are excluded whenever `record_schedule` or `wall_clock` are
//! set: schedule traces would have to be captured with the snapshot (an
//! O(steps) copy that defeats the point), and wall-clock deadlines are
//! inherently non-replayable.

use crate::config::FuzzConfig;
use interp::{Execution, Limits, Prologue};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Whether Phase 2 forks its trials from the entry prologue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotMode {
    /// No snapshotting: every trial replays from instruction zero.
    Off,
    /// Fork each trial from the shared single-threaded entry prologue.
    PrologueOnly,
}

impl SnapshotMode {
    /// All modes, for sweeps.
    pub const ALL: [SnapshotMode; 2] = [SnapshotMode::Off, SnapshotMode::PrologueOnly];

    /// Short stable name (bench tables, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotMode::Off => "off",
            SnapshotMode::PrologueOnly => "prologue",
        }
    }
}

/// Snapshot-acceleration settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotOptions {
    /// Reuse tier. Defaults to [`SnapshotMode::PrologueOnly`].
    pub mode: SnapshotMode,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        SnapshotOptions::with_mode(SnapshotMode::PrologueOnly)
    }
}

impl SnapshotOptions {
    /// Convenience: everything off.
    pub fn off() -> Self {
        SnapshotOptions::with_mode(SnapshotMode::Off)
    }

    /// Convenience: the given mode.
    pub fn with_mode(mode: SnapshotMode) -> Self {
        SnapshotOptions { mode }
    }
}

/// Snapshot statistics for one pair, mirrored into
/// [`crate::PairReport::snapshots`]. Advisory: excluded from report
/// identity (Debug/serialisation). Each trial's hit and fast-forward
/// depend only on the entry prologue, so the statistics are the same
/// whatever the worker count and interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Trials that consulted the cache.
    pub trials: u64,
    /// Trials that resumed from the entry prologue.
    pub cache_hits: u64,
    /// Interpreter steps skipped by resuming instead of re-executing.
    pub fast_forwarded_steps: u64,
    /// Always 0: no snapshot is captured after the prologue. Kept only
    /// because the end-to-end benchmark (`e2e/`) reads it.
    pub captures: u64,
    /// Always 0: the prologue snapshot is never evicted. Kept only because
    /// the end-to-end benchmark (`e2e/`) reads it.
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

/// Per-`(program, entry)` shared state: the options and the entry-prologue
/// snapshot, computed on first use unless Phase 1 handed it over. One of
/// these is shared by every [`PairCache`] of an analysis run.
pub struct EntryCache {
    options: SnapshotOptions,
    /// `None` inside: the entry has no prologue to fork from.
    prologue: OnceLock<Option<Prologue>>,
}

impl EntryCache {
    /// Creates the shared per-entry state.
    pub fn new(options: SnapshotOptions) -> Arc<Self> {
        Arc::new(EntryCache {
            options,
            prologue: OnceLock::new(),
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
        let cache = EntryCache::new(options);
        if let Some(prologue) = handed {
            let _ = cache.prologue.set(Some(prologue));
        }
        cache
    }

    /// The options this cache was built with.
    pub fn options(&self) -> SnapshotOptions {
        self.options
    }

    /// Whether the prologue slot is filled.
    #[cfg(test)]
    pub(crate) fn prologue_ready(&self) -> bool {
        self.prologue.get().is_some()
    }

    /// The entry-prologue snapshot, computed on first use.
    fn prologue(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> Option<&Prologue> {
        self.prologue
            .get_or_init(|| compute_prologue(program, entry, config))
            .as_ref()
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
fn compute_prologue(program: &cil::Program, entry: &str, config: &FuzzConfig) -> Option<Prologue> {
    if config.switch_only_at_sync {
        return None;
    }
    let mut exec = Execution::new(program, entry).ok()?;
    let limits = Limits {
        max_steps: config.max_steps,
        deadline: None,
        max_heap_cells: config.max_heap_cells,
    };
    interp::run_prologue(&mut exec, limits)
}

/// The per-pair view of an [`EntryCache`]: its prologue plus this pair's
/// statistics. Shared (`Arc`) by every worker fuzzing the pair; a trial
/// touches only atomic counters.
pub struct PairCache {
    shared: Arc<EntryCache>,
    trials: AtomicU64,
    cache_hits: AtomicU64,
    fast_forwarded_steps: AtomicU64,
}

impl PairCache {
    /// Creates a cache for one pair, sharing `entry`'s prologue.
    pub fn new(shared: Arc<EntryCache>) -> Arc<Self> {
        Arc::new(PairCache {
            shared,
            trials: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            fast_forwarded_steps: AtomicU64::new(0),
        })
    }

    /// The options in force.
    pub fn options(&self) -> SnapshotOptions {
        self.shared.options
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            trials: self.trials.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            fast_forwarded_steps: self.fast_forwarded_steps.load(Relaxed),
            captures: 0,
            evictions: 0,
        }
    }

    /// Starts a trial: the prologue it resumes from, if the entry has one.
    pub(crate) fn begin_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        config: &FuzzConfig,
    ) -> Option<&Prologue> {
        self.trials.fetch_add(1, Relaxed);
        let prologue = self.shared.prologue(program, entry, config)?;
        self.cache_hits.fetch_add(1, Relaxed);
        self.fast_forwarded_steps
            .fetch_add(prologue.snapshot.steps(), Relaxed);
        Some(prologue)
    }
}

// Snapshots cross the PR-3 work-stealing pool; keep the whole cache stack
// shareable by construction.
#[allow(dead_code)]
fn assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<EntryCache>();
    assert::<PairCache>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_fork_from_the_prologue() {
        assert_eq!(SnapshotOptions::default().mode, SnapshotMode::PrologueOnly);
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
        let prologue = compute_prologue(&program, "main", &config).expect("has prologue");
        // The prologue must stop before `x = 1` (a global store) but after
        // making progress through the pure local loop.
        assert!(prologue.snapshot.steps() > 5);
        assert_eq!(prologue.forced, prologue.snapshot.steps());
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
