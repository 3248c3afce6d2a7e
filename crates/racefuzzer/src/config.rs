//! Configuration for the race-directed random scheduler.

use std::time::Duration;

/// Tunables for one RaceFuzzer execution ([`crate::fuzz_once`]).
///
/// An execution is a pure function of `(program, race set, config)`; in
/// particular re-running with the same [`FuzzConfig::seed`] replays the
/// identical schedule (paper §2.2: replay needs no event recording). The
/// one exception is [`FuzzConfig::wall_clock`]: a wall-clock cutoff is
/// inherently machine-dependent, so campaign drivers record *which* budget
/// fired and replay with the deterministic step budget.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed for every random choice the scheduler makes.
    pub seed: u64,
    /// Hard cap on executed statements (livelock/step-limit safety net).
    pub max_steps: u64,
    /// Wall-clock budget for the execution; `None` means unbounded.
    /// Polled every few hundred scheduler decisions.
    pub wall_clock: Option<Duration>,
    /// Evict a thread from the postponed set after it has been postponed
    /// for this many scheduler decisions — the paper's §4 monitor that
    /// breaks livelocks caused by postponing (e.g. a peer spinning on a
    /// flag the postponed thread would set).
    pub postpone_limit: u64,
    /// Record the chosen thread at every step (for debugging and the replay
    /// tests; *not* needed for replay itself).
    pub record_schedule: bool,
    /// Require the two postponed statements to target the **same dynamic
    /// memory location** before reporting a race (Algorithm 2). Disabling
    /// this is an ablation: any two postponed `RaceSet` statements are
    /// declared "racing", which reintroduces exactly the false warnings the
    /// paper's location check eliminates (e.g. two threads iterating
    /// *different* collection objects through the same code).
    pub location_precise: bool,
    /// The paper's §4 implementation optimisation: "RaceFuzzer only
    /// performs thread switches before synchronization operations" (plus
    /// the racing statements). When `true`, a scheduled thread keeps
    /// running until its next statement is a synchronization operation, a
    /// `RaceSet` statement, or it blocks/exits — fewer scheduling
    /// decisions, same postponement guarantees. `false` (the default)
    /// follows Algorithm 1 literally, deciding at every statement.
    pub switch_only_at_sync: bool,
    /// Heap-cell budget per trial ([`interp::Limits::max_heap_cells`]);
    /// `None` means unbounded. An adversarial workload that allocates
    /// without bound ends its trial with a typed
    /// [`interp::ExecError::MemoryBudget`] engine error — a reported
    /// termination, counted in [`crate::PairReport::memory_trials`] —
    /// instead of OOM-killing the harness process.
    pub max_heap_cells: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            max_steps: 2_000_000,
            wall_clock: None,
            postpone_limit: 20_000,
            record_schedule: false,
            location_precise: true,
            switch_only_at_sync: false,
            max_heap_cells: None,
        }
    }
}

impl FuzzConfig {
    /// A config with the given seed and defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        FuzzConfig {
            seed,
            ..Self::default()
        }
    }

    /// Builder-style: record the schedule trace.
    pub fn recording(mut self) -> Self {
        self.record_schedule = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sets_only_the_seed() {
        let config = FuzzConfig::seeded(9);
        assert_eq!(config.seed, 9);
        assert_eq!(config.max_steps, FuzzConfig::default().max_steps);
        assert!(!config.record_schedule);
        assert!(config.recording().record_schedule);
    }
}
