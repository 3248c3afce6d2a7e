//! **RaceFuzzer** — race-directed random testing of concurrent programs.
//!
//! Reproduction of Koushik Sen, *Race Directed Random Testing of Concurrent
//! Programs*, PLDI 2008. The technique separates real races from the false
//! alarms of an imprecise detector **without manual inspection**, and
//! discovers whether each real race can crash the program:
//!
//! 1. **Phase 1** (the `detector` crate): hybrid dynamic race detection
//!    computes *potential* racing statement pairs.
//! 2. **Phase 2** (this crate, [`fuzz_once`]): for each pair, a controlled
//!    random scheduler postpones threads arriving at the pair's statements
//!    until two of them are about to touch the same dynamic memory location
//!    — a **real race**, created with high probability regardless of how
//!    far apart the statements are in a normal schedule (paper §3.2) — and
//!    then resolves the race with a coin flip to expose crashes in either
//!    order.
//!
//! Key properties, all tested in this workspace:
//!
//! * **No false warnings**: a reported race is two threads observably at
//!   the same location, one writing, temporally adjacent.
//! * **Seed-only replay**: executions are a pure function of the seed — no
//!   event logging needed ([`replay`]).
//! * **Low overhead**: only synchronization operations and the single
//!   target pair are consulted; no global tracing observer runs.
//!
//! # Examples
//!
//! Find and confirm the race of the paper's Figure 1 style example:
//!
//! ```
//! use racefuzzer::{analyze, AnalyzeOptions};
//!
//! let program = cil::compile(
//!     r#"
//!     global z = 0;
//!     proc child() { z = 1; }
//!     proc main() {
//!         var t = spawn child();
//!         if (z == 1) { throw Error1; }
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let report = analyze(&program, "main", &AnalyzeOptions::with_trials(20)).unwrap();
//! assert_eq!(report.real_races().len(), report.potential.len());
//! assert!(!report.exception_pairs().is_empty()); // the race can throw
//! ```

pub mod algorithm;
pub mod atomicity;
pub mod config;
pub mod deadlock;
pub mod outcome;
pub mod parallel;
pub mod runner;
pub mod snapshot;
mod spin;
pub mod trace;

pub use algorithm::{fuzz_once, fuzz_pair_once, fuzz_pair_once_cached};
pub use atomicity::{
    analyze_atomicity, fuzz_atomicity_once, AtomicityOutcome, AtomicityReport, ViolationEvent,
};
pub use config::FuzzConfig;
pub use deadlock::{
    confirm_deadlock, hunt_deadlocks, DeadlockConfirmation, DeadlockHuntReport, DeadlockOptions,
};
pub use outcome::{FuzzOutcome, RealRaceEvent};
pub use parallel::ParallelOptions;
pub use runner::{
    analyze, fuzz_pair, gather_candidates, simple_random_exceptions, AnalysisReport,
    AnalyzeOptions, CandidateSource, PairReport, Provenance,
};
pub use snapshot::{EntryCache, PairCache, SnapshotMode, SnapshotOptions, SnapshotStats};
pub use trace::render_trace;

use detector::RacePair;
use interp::SetupError;

/// Replays a race-directed execution from its seed alone.
///
/// Identical to [`fuzz_pair_once`] — replay *is* re-execution, because every
/// scheduling decision is derived from the seed (paper §2.2). The schedule
/// trace is recorded so the caller can inspect or diff it.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn replay(
    program: &cil::Program,
    entry: &str,
    pair: RacePair,
    seed: u64,
) -> Result<FuzzOutcome, SetupError> {
    fuzz_pair_once(
        program,
        entry,
        pair,
        &FuzzConfig::seeded(seed).recording(),
    )
}
