//! Umbrella crate for the RaceFuzzer reproduction workspace.
//!
//! Re-exports the workspace crates under one name so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! * [`cil`] — the concurrent intermediate language (parser → checker →
//!   flat IR),
//! * [`interp`] — the deterministic interpreter with full scheduler
//!   control,
//! * [`detector`] — Phase 1: hybrid / happens-before / lockset race
//!   prediction,
//! * [`racefuzzer`] — Phase 2: the race-directed random scheduler
//!   (the paper's contribution),
//! * [`workloads`] — CIL models of the paper's Table-1 benchmarks,
//! * [`campaign`] — fault-tolerant campaign driver: panic isolation,
//!   trial budgets, failure artifacts, checkpoint/resume.
//!
//! # Quickstart
//!
//! ```
//! use racefuzzer_suite::prelude::*;
//!
//! let program = cil::compile(
//!     r#"
//!     global x = 0;
//!     proc child() { x = 1; }
//!     proc main() {
//!         var t = spawn child();
//!         var v = x;
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let report = analyze(&program, "main", &AnalyzeOptions::with_trials(20)).unwrap();
//! assert_eq!(report.real_races().len(), 1);
//! ```

pub use campaign;
pub use cil;
pub use detector;
pub use interp;
pub use racefuzzer;
pub use sana;
pub use vclock;
pub use workloads;

pub mod torture;

/// The most common imports for using the two-phase pipeline.
pub mod prelude {
    pub use campaign::{
        Campaign, CampaignJob, CampaignOptions, CampaignReport, FailureArtifact, FailureKind,
    };
    pub use cil;
    pub use detector::{
        predict_races, DetectorEngine, EpochEngine, Policy, PredictConfig, RacePair,
    };
    pub use interp::{
        run_with, Limits, NullObserver, RandomScheduler, RoundRobinScheduler, RunToBlockScheduler,
        Termination,
    };
    pub use racefuzzer::{
        analyze, fuzz_pair, fuzz_pair_once, gather_candidates, hunt_deadlocks, render_trace,
        replay, AnalysisReport, AnalyzeOptions, CandidateSource, DeadlockOptions, FuzzConfig,
        ParallelOptions, Provenance,
    };
    pub use sana::{
        CandidateStats, FilterStats, PruneReason, StaticCandidateReport, StaticRaceFilter,
    };
}
