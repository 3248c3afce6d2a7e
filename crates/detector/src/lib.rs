//! Phase 1 of RaceFuzzer: imprecise-but-predictive race detection.
//!
//! The paper's pipeline starts by running the program once (or a few times)
//! under an *imprecise* dynamic race detector to compute potential racing
//! statement pairs. This crate provides that detector — the **hybrid**
//! lockset + happens-before analysis of O'Callahan & Choi, PPoPP 2003, which
//! the paper uses — plus the two classic baselines it is positioned against
//! (§1, §6): precise **happens-before** detection and Eraser-style
//! **lockset** detection.
//!
//! # Examples
//!
//! ```
//! use detector::{predict_races, PredictConfig};
//!
//! let program = cil::compile(
//!     r#"
//!     global x = 0;
//!     proc child() { x = 2; }
//!     proc main() {
//!         var t = spawn child();
//!         x = 1;          // races with the child's write
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
//! assert_eq!(races.len(), 1);
//! ```

pub mod atomicity;
pub mod engine;
pub mod lockgraph;
pub mod report;
pub mod shadow;

pub use atomicity::{predict_atomicity_violations, AtomicityCandidate, AtomicityObserver};
pub use engine::{DetectorEngine, Policy};
pub use lockgraph::{predict_deadlocks, DeadlockCandidate, LockGraph};
pub use report::RacePair;
pub use shadow::EpochEngine;

use interp::{
    drive, drive_prefix_capturing, Execution, Limits, Observer, Prologue, RandomScheduler,
    RoundRobinScheduler, Scheduler, SetupError, Termination, ThreadId,
};
use std::collections::BTreeSet;

/// Configuration for [`predict_races`].
#[derive(Clone, Debug)]
pub struct PredictConfig {
    /// Detection policy (default: [`Policy::Hybrid`], as in the paper).
    pub policy: Policy,
    /// Seeds for additional randomly-scheduled observation runs. The
    /// detector also always performs one fair round-robin ("normal") run.
    /// More runs observe more code and predict more pairs.
    pub seeds: Vec<u64>,
    /// Per-run execution limits.
    pub limits: Limits,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            policy: Policy::Hybrid,
            seeds: vec![1, 2],
            limits: Limits::default(),
        }
    }
}

impl PredictConfig {
    /// Convenience: hybrid policy with `count` random observation runs.
    pub fn with_runs(count: u64) -> Self {
        PredictConfig {
            seeds: (1..=count).collect(),
            ..Self::default()
        }
    }
}

/// Runs the program under observation and returns the predicted racing
/// statement pairs (the paper's Phase 1).
///
/// Race pairs are unioned across one deterministic run plus one run per
/// configured seed, then returned in stable order.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_races(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
) -> Result<Vec<RacePair>, SetupError> {
    predict_with(program, entry, config, EpochEngine::new, |engine| {
        engine.races().collect()
    })
}

/// [`predict_races`], plus the entry [`Prologue`] its observation runs
/// passed through, for Phase 2 to fork its trials from instead of running
/// the warm-up again.
///
/// The prologue is captured under `config.limits`; it is `None` when the
/// program has none, or when the shared prefix was cut short by the step
/// limit before the prologue's end or by a deadline or an engine error
/// anywhere.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_races_with_prologue(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
) -> Result<(Vec<RacePair>, Option<Prologue>), SetupError> {
    predict_with_prologue(program, entry, config, EpochEngine::new, |engine| {
        engine.races().collect()
    })
}

/// The engine-generic prediction loop behind [`predict_races`]: one fair
/// round-robin run plus one random run per seed, racing pairs unioned in
/// stable order.
///
/// `new_engine` builds the observer and `races` reads its racing pairs
/// back. [`predict_races`] passes [`EpochEngine::new`]; the differential
/// suites pass [`DetectorEngine::new`], the full-clock formulation the
/// epoch engine is checked against. The schedules share one run of the
/// single-threaded entry prefix; the engine is cloned at its end, once per
/// schedule.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_with<E: Observer + Clone>(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
    new_engine: impl Fn(Policy) -> E,
    races: impl Fn(&E) -> Vec<RacePair>,
) -> Result<Vec<RacePair>, SetupError> {
    predict_with_prologue(program, entry, config, new_engine, races).map(|(races, _)| races)
}

/// [`predict_with`], plus the prologue [`observe`] captured.
fn predict_with_prologue<E: Observer + Clone>(
    program: &cil::Program,
    entry: &str,
    config: &PredictConfig,
    new_engine: impl Fn(Policy) -> E,
    races: impl Fn(&E) -> Vec<RacePair>,
) -> Result<(Vec<RacePair>, Option<Prologue>), SetupError> {
    let mut all: BTreeSet<RacePair> = BTreeSet::new();
    let prologue = observe(
        program,
        entry,
        &config.seeds,
        config.limits,
        new_engine(config.policy),
        |engine| all.extend(races(engine)),
    )?;
    Ok((all.into_iter().collect(), prologue))
}

/// The Phase-1 observation loop shared by races, deadlocks and atomicity:
/// runs the program under `observer` once per observation schedule — one
/// deterministic fair round-robin run (busy-wait synchronization in the
/// observed program requires scheduler fairness to terminate), then one
/// random run per seed — and hands each run's final observer to `collect`.
///
/// The result equals a fresh [`interp::run_with`] per schedule, but the
/// single-threaded entry prefix runs once. Until the first `spawn` the only
/// enabled thread is thread 0, so every schedule's pick is forced and the
/// machine and observer states there are the same for all of them. The
/// prefix runs once under [`drive_prefix_capturing`]; each schedule then resumes a
/// snapshot of that state with a clone of the observer, replays the forced
/// picks on its scheduler (so a round-robin quantum or a random stream ends
/// where the unshared run leaves it), and [`drive`]s to the end.
pub(crate) fn observe<E: Observer + Clone>(
    program: &cil::Program,
    entry: &str,
    seeds: &[u64],
    limits: Limits,
    mut observer: E,
    mut collect: impl FnMut(&E),
) -> Result<Option<Prologue>, SetupError> {
    let mut exec = Execution::new(program, entry)?;
    let started = std::time::Instant::now();
    let (prefix, prologue) = drive_prefix_capturing(&mut exec, &mut observer, limits);
    let forced = match prefix {
        Ok(forced) => forced,
        Err(termination) => {
            // The prefix ended the run, so every schedule ends here too.
            collect(&observer);
            let cut = matches!(
                termination,
                Termination::DeadlineExceeded | Termination::EngineError(_)
            );
            return Ok(prologue.filter(|_| !cut));
        }
    };
    // Each schedule's deadline counts the shared prefix, as its own run
    // would have.
    let limits = Limits {
        deadline: limits
            .deadline
            .map(|deadline| deadline.saturating_sub(started.elapsed())),
        ..limits
    };
    let fork = exec.snapshot();
    let round_robin: Box<dyn Scheduler> = Box::new(RoundRobinScheduler::new(7));
    let random = seeds
        .iter()
        .map(|&seed| Box::new(RandomScheduler::seeded(seed)) as Box<dyn Scheduler>);
    for mut scheduler in std::iter::once(round_robin).chain(random) {
        exec.restore(&fork);
        for _ in 0..forced {
            scheduler.pick(&exec, &[ThreadId(0)]);
        }
        let mut observer = observer.clone();
        drive(&mut exec, scheduler.as_mut(), &mut observer, limits);
        collect(&observer);
    }
    Ok(prologue)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(source: &str) -> (cil::Program, Vec<RacePair>) {
        let program = cil::compile(source).unwrap();
        let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
        (program, races)
    }

    #[test]
    fn lock_protected_counter_has_no_races() {
        let (_, races) = predict(
            r#"
            class Lock { }
            global l;
            global count = 0;
            proc worker() {
                var i = 0;
                while (i < 5) {
                    sync (l) { count = count + 1; }
                    i = i + 1;
                }
            }
            proc main() {
                l = new Lock;
                var a = spawn worker();
                var b = spawn worker();
                join a; join b;
            }
            "#,
        );
        assert!(races.is_empty(), "got {races:?}");
    }

    #[test]
    fn unprotected_counter_races_with_itself() {
        let (program, races) = predict(
            r#"
            global count = 0;
            proc worker() { count = count + 1; }
            proc main() {
                var a = spawn worker();
                var b = spawn worker();
                join a; join b;
            }
            "#,
        );
        // load/load, load/store, store/store combinations on `count`,
        // all between the two dynamic instances of the same statements.
        assert!(!races.is_empty());
        for race in &races {
            let text = race.describe(&program);
            assert!(text.contains("count"), "{text}");
        }
    }

    #[test]
    fn join_edge_prevents_false_positive() {
        let (_, races) = predict(
            r#"
            global x = 0;
            proc child() { x = 1; }
            proc main() {
                var t = spawn child();
                join t;
                x = 2;     // ordered after the child's write by join
            }
            "#,
        );
        assert!(races.is_empty(), "got {races:?}");
    }

    #[test]
    fn tagged_pair_is_predicted() {
        let program = cil::compile(
            r#"
            global z = 0;
            proc child() { @w z = 1; }
            proc main() {
                var t = spawn child();
                @r var v = z;
                join t;
            }
            "#,
        )
        .unwrap();
        let races = predict_races(&program, "main", &PredictConfig::default()).unwrap();
        let expected = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
        assert_eq!(races, vec![expected]);
    }

    #[test]
    fn more_runs_can_only_add_pairs() {
        let source = r#"
            global a = 0;
            global b = 0;
            proc child() {
                if (a == 1) { b = 1; }
            }
            proc main() {
                var t = spawn child();
                a = 1;
                var v = b;
                join t;
            }
        "#;
        let program = cil::compile(source).unwrap();
        let few = predict_races(&program, "main", &PredictConfig::with_runs(1)).unwrap();
        let many = predict_races(&program, "main", &PredictConfig::with_runs(20)).unwrap();
        for pair in &few {
            assert!(many.contains(pair));
        }
        assert!(many.len() >= few.len());
    }
}
