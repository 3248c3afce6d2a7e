//! Deadlock-directed random testing.
//!
//! The paper points out (§1) that the race-directed scheduler is really a
//! *statement-set*-directed scheduler: "the only thing that the random
//! scheduler needs to know is a set of statements whose simultaneous
//! execution could lead to a concurrency problem", naming potential
//! deadlocks as a source of such sets. This module closes that loop:
//!
//! 1. **Predict** — `detector::predict_deadlocks` builds the lock-order
//!    graph of a few observed runs and reports cycles (with gate-lock
//!    filtering).
//! 2. **Confirm** — for each candidate cycle, run [`crate::fuzz_once`]
//!    with the cycle's *inner acquisition statements* as the target set.
//!    A thread arriving at an inner acquisition is postponed (while the
//!    lock is still free); once every cycle participant holds its outer
//!    lock, each postponed thread's acquisition is now *disabled* rather
//!    than postponed, and the run ends in `Enabled(s) = ∅` with live
//!    threads — Algorithm 1's "ERROR: actual deadlock found".
//!
//! Candidates whose cycles cannot actually close (e.g. acquisition orders
//! serialised by program logic the lock-order graph cannot see) are
//! refuted the same way false races are: the deadlock never materialises
//! in any trial.

use crate::algorithm::fuzz_once;
use crate::config::FuzzConfig;
use detector::{predict_deadlocks, DeadlockCandidate};
use interp::SetupError;

/// Statistics from attempting to confirm one candidate cycle.
#[derive(Clone, Debug)]
pub struct DeadlockConfirmation {
    /// The predicted cycle.
    pub candidate: DeadlockCandidate,
    /// Trials run.
    pub trials: usize,
    /// Trials that ended in a real deadlock.
    pub deadlocks: usize,
    /// Seed of the first deadlocking trial (for replay).
    pub first_seed: Option<u64>,
}

impl DeadlockConfirmation {
    /// `true` if the cycle was driven into an actual deadlock.
    pub fn is_real(&self) -> bool {
        self.deadlocks > 0
    }

    /// Estimated probability of creating the deadlock per trial.
    pub fn hit_probability(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.deadlocks as f64 / self.trials as f64
        }
    }
}

/// The full predict-then-confirm deadlock report.
#[derive(Clone, Debug)]
pub struct DeadlockHuntReport {
    /// Phase-1 candidates, in stable order.
    pub candidates: Vec<DeadlockCandidate>,
    /// Per-candidate confirmation statistics (parallel to `candidates`).
    pub confirmations: Vec<DeadlockConfirmation>,
}

impl DeadlockHuntReport {
    /// The candidates confirmed as real deadlocks.
    pub fn real_deadlocks(&self) -> Vec<&DeadlockCandidate> {
        self.confirmations
            .iter()
            .filter(|confirmation| confirmation.is_real())
            .map(|confirmation| &confirmation.candidate)
            .collect()
    }
}

/// Options for [`hunt_deadlocks`].
#[derive(Clone, Debug)]
pub struct DeadlockOptions {
    /// Random observation runs for the lock-order graph.
    pub observation_runs: u64,
    /// Maximum cycle length to report (2 = AB/BA inversions only).
    pub max_cycle: usize,
    /// Confirmation trials per candidate.
    pub trials: usize,
    /// Seed of the first trial.
    pub base_seed: u64,
    /// Scheduler configuration template (seed overwritten per trial).
    pub fuzz: FuzzConfig,
}

impl Default for DeadlockOptions {
    fn default() -> Self {
        DeadlockOptions {
            observation_runs: 5,
            max_cycle: 3,
            trials: 50,
            base_seed: 1,
            fuzz: FuzzConfig::default(),
        }
    }
}

/// Confirms one predicted cycle by biased random scheduling.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn confirm_deadlock(
    program: &cil::Program,
    entry: &str,
    candidate: &DeadlockCandidate,
    options: &DeadlockOptions,
) -> Result<DeadlockConfirmation, SetupError> {
    let targets = candidate.inner_sites();
    let mut confirmation = DeadlockConfirmation {
        candidate: candidate.clone(),
        trials: options.trials,
        deadlocks: 0,
        first_seed: None,
    };
    for trial in 0..options.trials {
        let seed = options.base_seed + trial as u64;
        let config = FuzzConfig {
            seed,
            ..options.fuzz.clone()
        };
        let outcome = fuzz_once(program, entry, &targets, &config)?;
        if outcome.deadlocked() {
            confirmation.deadlocks += 1;
            confirmation.first_seed.get_or_insert(seed);
        }
    }
    Ok(confirmation)
}

/// Runs the complete deadlock pipeline: predict cycles, then attempt to
/// confirm each one.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
///
/// # Examples
///
/// ```
/// let program = cil::compile(
///     r#"
///     class Lock { }
///     global a;
///     global b;
///     proc t1() { sync (a) { sync (b) { nop; } } }
///     proc t2() { sync (b) { sync (a) { nop; } } }
///     proc main() {
///         a = new Lock;
///         b = new Lock;
///         var x = spawn t1();
///         var y = spawn t2();
///         join x;
///         join y;
///     }
///     "#,
/// )
/// .unwrap();
/// let report = racefuzzer::hunt_deadlocks(
///     &program,
///     "main",
///     &racefuzzer::DeadlockOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(report.real_deadlocks().len(), 1);
/// ```
pub fn hunt_deadlocks(
    program: &cil::Program,
    entry: &str,
    options: &DeadlockOptions,
) -> Result<DeadlockHuntReport, SetupError> {
    let candidates =
        predict_deadlocks(program, entry, options.observation_runs, options.max_cycle)?;
    let mut confirmations = Vec::with_capacity(candidates.len());
    for candidate in &candidates {
        confirmations.push(confirm_deadlock(program, entry, candidate, options)?);
    }
    Ok(DeadlockHuntReport {
        candidates,
        confirmations,
    })
}
