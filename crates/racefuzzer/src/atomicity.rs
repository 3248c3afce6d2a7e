//! Atomicity-violation-directed random testing.
//!
//! The third problem class the paper's §1 names: "we can bias the random
//! scheduler by … potential atomicity violations". Given a predicted
//! split-region candidate (`detector::AtomicityCandidate` — two accesses
//! by one thread in different critical sections of the same lock, plus a
//! conflicting remote access), the scheduler:
//!
//! * postpones threads arriving at the **remote** statement while no
//!   thread is mid-region, and
//! * the moment some thread is *between* the region's two halves, releases
//!   a postponed remote thread whose access targets the same dynamic
//!   location — forcing the unserialisable interleaving
//!   `first … remote … second`.
//!
//! Because every access involved is lock-protected, these bugs are
//! invisible to data-race detection — the canonical demonstration that
//! race-freedom is not atomicity.

use crate::config::FuzzConfig;
use detector::{predict_atomicity_violations, AtomicityCandidate};
use interp::{
    Execution, Loc, NullObserver, Rng, SetupError, Status, Termination, ThreadId, UncaughtException,
};

/// A forced unserialisable interleaving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationEvent {
    /// Scheduler step at which the remote access was interleaved.
    pub step: u64,
    /// The thread mid-region.
    pub region_thread: ThreadId,
    /// The remote thread whose access was injected.
    pub remote_thread: ThreadId,
    /// The contested location.
    pub loc: Loc,
}

/// Outcome of one atomicity-directed execution.
#[derive(Clone, Debug)]
pub struct AtomicityOutcome {
    /// The seed that produced (and replays) this execution.
    pub seed: u64,
    /// Forced interleavings, in order.
    pub violations: Vec<ViolationEvent>,
    /// Why the run ended.
    pub termination: Termination,
    /// Exceptions that killed threads.
    pub uncaught: Vec<UncaughtException>,
    /// Statements executed.
    pub steps: u64,
    /// `print` output.
    pub output: Vec<String>,
}

impl AtomicityOutcome {
    /// `true` if the unserialisable interleaving was created.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Runs one atomicity-directed execution for `target`.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn fuzz_atomicity_once(
    program: &cil::Program,
    entry: &str,
    target: &AtomicityCandidate,
    config: &FuzzConfig,
) -> Result<AtomicityOutcome, SetupError> {
    let mut exec = Execution::new(program, entry)?;
    let mut rng = Rng::seeded(config.seed);
    let mut observer = NullObserver;

    let mut postponed: Vec<(ThreadId, u64)> = Vec::new();
    let mut violations: Vec<ViolationEvent> = Vec::new();
    // Threads currently between `first` and `second`, with the location
    // their `first` touched.
    let mut mid_region: Vec<(ThreadId, Loc)> = Vec::new();
    let mut decisions: u64 = 0;
    // Per-decision scratch, reused for the whole run.
    let mut enabled: Vec<ThreadId> = Vec::new();
    let mut expired: Vec<ThreadId> = Vec::new();
    let mut candidates: Vec<ThreadId> = Vec::new();

    let termination = loop {
        if let Some(error) = exec.engine_error() {
            break Termination::EngineError(error.clone());
        }
        if exec.steps() >= config.max_steps {
            break Termination::StepLimit;
        }
        exec.enabled_into(&mut enabled);
        if enabled.is_empty() {
            let alive = exec.alive();
            break if alive.is_empty() {
                Termination::AllExited
            } else {
                Termination::Deadlock(alive)
            };
        }
        decisions += 1;

        // Livelock monitor, as in the race algorithm.
        expired.clear();
        expired.extend(
            postponed
                .iter()
                .filter(|&&(_, since)| decisions.saturating_sub(since) > config.postpone_limit)
                .map(|&(thread, _)| thread),
        );
        for &thread in &expired {
            postponed.retain(|&(held, _)| held != thread);
            if exec.is_enabled(thread) {
                exec.step(thread, &mut observer);
            }
        }
        postponed.retain(|&(thread, _)| exec.is_enabled(thread));
        mid_region.retain(|&(thread, _)| *exec.status(thread) != Status::Exited);

        // The payoff move: a thread is mid-region and a postponed remote
        // access targets the same location → inject it now.
        if let Some((region_thread, loc)) = mid_region.first().copied() {
            let injectable = postponed.iter().map(|&(thread, _)| thread).find(|&thread| {
                exec.next_access(thread)
                    .is_some_and(|access| access.loc == loc)
            });
            if let Some(remote_thread) = injectable {
                violations.push(ViolationEvent {
                    step: exec.steps(),
                    region_thread,
                    remote_thread,
                    loc,
                });
                postponed.retain(|&(held, _)| held != remote_thread);
                exec.step(remote_thread, &mut observer);
                continue;
            }
        }

        candidates.clear();
        candidates.extend(enabled.iter().copied().filter(|thread| {
            exec.is_enabled(*thread) && postponed.iter().all(|&(held, _)| held != *thread)
        }));
        if candidates.is_empty() {
            if postponed.is_empty() {
                continue;
            }
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            if exec.is_enabled(freed) {
                exec.step(freed, &mut observer);
            }
            continue;
        }

        let chosen = *rng.choose(&candidates);
        let next = exec.next_instr(chosen);

        // Postpone remote arrivals while no region is open.
        if next == Some(target.remote) && mid_region.is_empty() {
            postponed.push((chosen, decisions));
        } else {
            // A remote access executing while another thread is mid-region
            // on the same location is the violation, whichever scheduling
            // path brought it here.
            if next == Some(target.remote) {
                let contested = exec.next_access(chosen).map(|access| access.loc);
                if let Some(&(region_thread, loc)) = mid_region
                    .iter()
                    .find(|&&(thread, loc)| thread != chosen && Some(loc) == contested)
                {
                    violations.push(ViolationEvent {
                        step: exec.steps(),
                        region_thread,
                        remote_thread: chosen,
                        loc,
                    });
                }
            }
            // Track region entry/exit around the step.
            let entering = next == Some(target.first);
            let entering_loc = entering
                .then(|| exec.next_access(chosen).map(|access| access.loc))
                .flatten();
            let exiting = next == Some(target.second);
            exec.step(chosen, &mut observer);
            if let Some(loc) = entering_loc {
                if !mid_region.iter().any(|&(thread, _)| thread == chosen) {
                    mid_region.push((chosen, loc));
                }
            }
            if exiting {
                mid_region.retain(|&(thread, _)| thread != chosen);
            }
        }

        // All enabled postponed → release one.
        exec.enabled_into(&mut enabled);
        if !enabled.is_empty()
            && enabled
                .iter()
                .all(|thread| postponed.iter().any(|&(held, _)| held == *thread))
        {
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            if exec.is_enabled(freed) {
                exec.step(freed, &mut observer);
            }
        }
    };

    Ok(AtomicityOutcome {
        seed: config.seed,
        violations,
        termination,
        uncaught: exec.uncaught().to_vec(),
        steps: exec.steps(),
        output: exec.output().to_vec(),
    })
}

/// Statistics from fuzzing one atomicity candidate.
#[derive(Clone, Debug)]
pub struct AtomicityPairReport {
    /// The candidate.
    pub target: AtomicityCandidate,
    /// Trials run.
    pub trials: usize,
    /// Trials in which the interleaving was forced.
    pub violations: usize,
    /// Trials in which a thread died of an exception.
    pub exception_trials: usize,
    /// Seed of the first violating trial.
    pub first_seed: Option<u64>,
}

impl AtomicityPairReport {
    /// `true` if the violation was ever created.
    pub fn is_real(&self) -> bool {
        self.violations > 0
    }
}

/// The full atomicity report: candidates and per-candidate statistics.
#[derive(Clone, Debug)]
pub struct AtomicityReport {
    /// Phase-1 candidates.
    pub candidates: Vec<AtomicityCandidate>,
    /// Per-candidate results (parallel to `candidates`).
    pub reports: Vec<AtomicityPairReport>,
}

impl AtomicityReport {
    /// Candidates whose interleaving was actually created.
    pub fn real_violations(&self) -> Vec<AtomicityCandidate> {
        self.reports
            .iter()
            .filter(|report| report.is_real())
            .map(|report| report.target)
            .collect()
    }
}

/// Runs the complete predict-then-force atomicity pipeline.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn analyze_atomicity(
    program: &cil::Program,
    entry: &str,
    trials: usize,
    base_seed: u64,
    config: &FuzzConfig,
) -> Result<AtomicityReport, SetupError> {
    let candidates = predict_atomicity_violations(program, entry, 5)?;
    let mut reports = Vec::with_capacity(candidates.len());
    for &candidate in &candidates {
        let mut report = AtomicityPairReport {
            target: candidate,
            trials,
            violations: 0,
            exception_trials: 0,
            first_seed: None,
        };
        for trial in 0..trials {
            let seed = base_seed + trial as u64;
            let outcome = fuzz_atomicity_once(
                program,
                entry,
                &candidate,
                &FuzzConfig {
                    seed,
                    ..config.clone()
                },
            )?;
            if outcome.violated() {
                report.violations += 1;
                report.first_seed.get_or_insert(seed);
            }
            if !outcome.uncaught.is_empty() {
                report.exception_trials += 1;
            }
        }
        reports.push(report);
    }
    Ok(AtomicityReport {
        candidates,
        reports,
    })
}
