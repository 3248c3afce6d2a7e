//! Phase 1 runs the single-threaded entry prefix once and forks every
//! observation schedule from it. Before the first `spawn` the only enabled
//! thread is `main`, so every scheduler's pick is forced and the fork point
//! is the same state for all schedules.
//!
//! The oracle is the unshared loop Phase 1 used before: a fresh `run_with`
//! per schedule — one round-robin(7) run, then one random run per seed —
//! with the results unioned. Races, deadlock candidates and atomicity
//! candidates must equal it on the workloads, the `.cil` corpus, generated
//! programs, and the edge cases where the prefix is cut short or ends the
//! run. The interpreter-level fork (`drive_prefix`, snapshot, forced picks,
//! `drive`) is checked run by run against `run_with` as well.

mod support;

use proptest::prelude::*;
use racefuzzer_suite::detector::{
    predict_atomicity_violations, predict_deadlocks, AtomicityObserver, LockGraph,
};
use racefuzzer_suite::interp::{
    drive, drive_prefix, Execution, Observer, RunOutcome, Scheduler, SetupError, ThreadId,
};
use racefuzzer_suite::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;
use support::arb_program;

/// The observation schedules in Phase-1 order.
fn schedules(seeds: &[u64]) -> Vec<Box<dyn Scheduler>> {
    let mut schedules: Vec<Box<dyn Scheduler>> = vec![Box::new(RoundRobinScheduler::new(7))];
    schedules.extend(
        seeds
            .iter()
            .map(|&seed| Box::new(RandomScheduler::seeded(seed)) as Box<dyn Scheduler>),
    );
    schedules
}

/// The unshared observation loop: a fresh `run_with` and a fresh observer
/// per schedule, `read` results unioned in stable order.
fn oracle<E: Observer, T: Ord>(
    program: &cil::Program,
    seeds: &[u64],
    limits: Limits,
    new_observer: impl Fn() -> E,
    read: impl Fn(&E) -> Vec<T>,
) -> Result<Vec<T>, SetupError> {
    let mut all = BTreeSet::new();
    for mut scheduler in schedules(seeds) {
        let mut observer = new_observer();
        run_with(program, "main", scheduler.as_mut(), &mut observer, limits)?;
        all.extend(read(&observer));
    }
    Ok(all.into_iter().collect())
}

fn oracle_races(program: &cil::Program, config: &PredictConfig) -> Vec<RacePair> {
    oracle(
        program,
        &config.seeds,
        config.limits,
        || EpochEngine::new(config.policy),
        |engine| engine.races().collect(),
    )
    .expect("oracle prediction runs")
}

/// Asserts `predict_races` equals the oracle under `config`.
fn assert_races_match(name: &str, program: &cil::Program, config: &PredictConfig) {
    let shared = predict_races(program, "main", config)
        .unwrap_or_else(|error| panic!("{name}: prediction failed: {error:?}"));
    assert_eq!(
        shared,
        oracle_races(program, config),
        "{name}: shared-prefix races diverge from the unshared loop under {config:?}"
    );
}

/// Asserts deadlock and atomicity candidates equal the oracle, with the
/// observation-run counts `hunt_deadlocks` and `hunt_atomicity` use.
fn assert_candidates_match(name: &str, program: &cil::Program) {
    let seeds: Vec<u64> = (1..=5).collect();
    let deadlocks = predict_deadlocks(program, "main", 5, 3).expect("deadlock prediction runs");
    let expected = oracle(
        program,
        &seeds,
        Limits::default(),
        LockGraph::new,
        |graph| graph.candidates(3),
    )
    .expect("oracle runs");
    assert_eq!(deadlocks, expected, "{name}: deadlock candidates diverge");

    let atomicity =
        predict_atomicity_violations(program, "main", 5).expect("atomicity prediction runs");
    let expected = oracle(
        program,
        &seeds,
        Limits::default(),
        AtomicityObserver::new,
        AtomicityObserver::candidates,
    )
    .expect("oracle runs");
    assert_eq!(atomicity, expected, "{name}: atomicity candidates diverge");
}

/// What a run leaves behind, in a comparable form.
fn summary(outcome: &RunOutcome) -> String {
    format!(
        "{:?} after {} steps, output {:?}, uncaught {:?}",
        outcome.termination, outcome.steps, outcome.output, outcome.uncaught
    )
}

/// Runs every schedule through the fork by hand — `drive_prefix` once,
/// then per schedule resume, replay the forced picks, `drive` — and checks
/// each run against its own `run_with`. Returns the forced-step count, or
/// `None` when the prefix ended the run.
fn assert_fork_matches(
    name: &str,
    program: &cil::Program,
    seeds: &[u64],
    limits: Limits,
) -> Option<u64> {
    let mut exec = Execution::new(program, "main").expect("entry resolves");
    let prefix = drive_prefix(&mut exec, &mut NullObserver, limits);
    let fork = exec.snapshot();
    for (index, (mut forked, mut unshared)) in schedules(seeds)
        .into_iter()
        .zip(schedules(seeds))
        .enumerate()
    {
        let mut exec = Execution::resume(program, &fork);
        let termination = match &prefix {
            Ok(forced) => {
                for _ in 0..*forced {
                    forked.pick(&exec, &[ThreadId(0)]);
                }
                drive(&mut exec, forked.as_mut(), &mut NullObserver, limits)
            }
            Err(termination) => termination.clone(),
        };
        let shared = RunOutcome {
            termination,
            steps: exec.steps(),
            uncaught: exec.uncaught().to_vec(),
            output: exec.output().to_vec(),
        };
        let expected = run_with(
            program,
            "main",
            unshared.as_mut(),
            &mut NullObserver,
            limits,
        )
        .expect("entry resolves");
        assert_eq!(
            summary(&shared),
            summary(&expected),
            "{name}: schedule {index} diverges through the fork"
        );
    }
    prefix.ok()
}

/// Every prediction entry point equals its oracle on `source`, and so does
/// every run through the fork.
fn assert_all_match(name: &str, source: &str, config: &PredictConfig) -> Option<u64> {
    let program = cil::compile(source).unwrap_or_else(|error| panic!("{name}: {error}"));
    assert_races_match(name, &program, config);
    assert_candidates_match(name, &program);
    assert_fork_matches(name, &program, &config.seeds, config.limits)
}

#[test]
fn races_match_the_unshared_loop_on_all_workloads() {
    for workload in workloads::all() {
        let program = &workload.program;
        assert_eq!(workload.entry, "main", "{}: entry", workload.name);
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            for base in [PredictConfig::default(), PredictConfig::with_runs(10)] {
                let config = PredictConfig { policy, ..base };
                assert_races_match(workload.name, program, &config);
            }
        }
        let forced = assert_fork_matches(workload.name, program, &[1, 2], Limits::default());
        assert!(
            forced.is_some_and(|forced| forced > 0),
            "{}: prefix ran",
            workload.name
        );
    }
}

#[test]
fn deadlock_and_atomicity_candidates_match_the_unshared_loop() {
    for workload in workloads::all() {
        assert_candidates_match(workload.name, &workload.program);
    }
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cil");
    for name in [
        "dining_philosophers.cil",
        "figure1.cil",
        "figure2.cil",
        "split_region.cil",
    ] {
        let source = std::fs::read_to_string(corpus.join(name)).expect("corpus file reads");
        let program = cil::compile(&source).expect("corpus file compiles");
        assert_candidates_match(name, &program);
    }
}

/// A racy program whose `main` first runs `warmup` iterations writing a
/// shared global and a heap array alone, so the prefix leaves detector
/// state behind for every schedule to inherit.
fn prologue_program(warmup: u64) -> String {
    format!(
        r#"
        class Lock {{ }}
        global lk;
        global x = 0;
        global data;
        proc worker(v) {{
            var old = x;
            x = old + v;
            sync (lk) {{ data[0] = v; }}
        }}
        proc main() {{
            lk = new Lock;
            data = new [4];
            var i = 0;
            while (i < {warmup}) {{
                x = i;
                data[i % 4] = i;
                i = i + 1;
            }}
            var a = spawn worker(1);
            var b = spawn worker(2);
            x = 7;
            join a;
            join b;
        }}
        "#
    )
}

#[test]
fn a_long_prologue_is_shared_exactly() {
    for warmup in [0, 1, 63, 300, 2_000] {
        let forced = assert_all_match(
            &format!("prologue {warmup}"),
            &prologue_program(warmup),
            &PredictConfig::with_runs(4),
        );
        assert!(
            forced.is_some_and(|forced| forced > warmup),
            "warm-up {warmup} is forced"
        );
    }
}

#[test]
fn an_entry_that_spawns_first_forks_after_one_step() {
    let source = r#"
        global x = 0;
        proc child() { x = 1; }
        proc main() {
            var t = spawn child();
            x = 2;
            join t;
        }
    "#;
    let forced = assert_all_match("spawn first", source, &PredictConfig::default());
    // The spawn itself runs while `main` is alone; nothing after it does.
    assert_eq!(forced, Some(1));
}

#[test]
fn a_step_limit_inside_the_prefix_ends_every_schedule_there() {
    let source = prologue_program(1_000);
    let program = cil::compile(&source).unwrap();
    let mut exec = Execution::new(&program, "main").unwrap();
    let prefix = drive_prefix(&mut exec, &mut NullObserver, Limits::default())
        .expect("the warm-up ends in a spawn");
    for max_steps in [
        0,
        1,
        10,
        255,
        256,
        257,
        prefix - 1,
        prefix,
        prefix + 1,
        prefix + 300,
    ] {
        let config = PredictConfig {
            limits: Limits::steps(max_steps),
            ..PredictConfig::with_runs(3)
        };
        let forced = assert_all_match(&format!("max_steps {max_steps}"), &source, &config);
        let expected = (max_steps > prefix).then_some(prefix);
        assert_eq!(
            forced, expected,
            "max_steps {max_steps} of a {prefix}-step prefix"
        );
    }
}

#[test]
fn a_heap_budget_exhausted_inside_the_prefix_ends_every_schedule_there() {
    let source = r#"
        global x = 0;
        proc child() { x = 1; }
        proc main() {
            var i = 0;
            while (i < 100) {
                var a = new [10];
                x = i;
                i = i + 1;
            }
            var t = spawn child();
            x = 2;
            join t;
        }
    "#;
    let program = cil::compile(source).unwrap();
    let limits = Limits::default().with_heap_cells(200);
    let config = PredictConfig {
        limits,
        ..PredictConfig::default()
    };
    assert_races_match("heap budget", &program, &config);
    assert_eq!(
        assert_fork_matches("heap budget", &program, &[1, 2], limits),
        None
    );
    let outcome = run_with(
        &program,
        "main",
        &mut RandomScheduler::seeded(1),
        &mut NullObserver,
        limits,
    )
    .unwrap();
    assert!(
        matches!(outcome.termination, Termination::EngineError(_)),
        "{:?}",
        outcome.termination
    );
}

#[test]
fn main_dying_before_it_spawns_matches_the_oracle() {
    let source = r#"
        global x = 0;
        proc child() { x = 1; }
        proc main() {
            x = 5;
            if (x == 5) { throw Boom; }
            var t = spawn child();
            x = 2;
            join t;
        }
    "#;
    let forced = assert_all_match("uncaught", source, &PredictConfig::default());
    assert!(
        forced.is_some(),
        "the prefix hands the exited main to drive"
    );
    let program = cil::compile(source).unwrap();
    let outcome = run_with(
        &program,
        "main",
        &mut RoundRobinScheduler::new(7),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    assert_eq!(outcome.termination, Termination::AllExited);
    assert!(outcome.has_uncaught(&program, "Boom"));
}

#[test]
fn main_waiting_alone_deadlocks_as_before() {
    let source = r#"
        class Obj { }
        global l;
        global x = 0;
        proc main() {
            l = new Obj;
            x = 1;
            sync (l) { wait l; }
            x = 2;
        }
    "#;
    let forced = assert_all_match("lonely wait", source, &PredictConfig::default());
    assert!(forced.is_some());
    let program = cil::compile(source).unwrap();
    let outcome = run_with(
        &program,
        "main",
        &mut RandomScheduler::seeded(1),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    assert_eq!(
        outcome.termination,
        Termination::Deadlock(vec![ThreadId(0)])
    );
}

#[test]
fn no_seeds_leaves_only_the_round_robin_run() {
    let config = PredictConfig {
        seeds: vec![],
        ..PredictConfig::default()
    };
    let forced = assert_all_match("no seeds", &prologue_program(50), &config);
    assert!(forced.is_some());
}

#[test]
fn a_zero_deadline_stops_at_the_same_poll_with_or_without_the_fork() {
    // A long warm-up: the first deadline poll falls inside the prefix.
    let long = r#"
        global x = 0;
        proc child() { x = 1; }
        proc main() {
            var i = 0;
            while (i < 1000000) { i = i + 1; }
            var t = spawn child();
            x = 2;
            join t;
        }
    "#;
    let zero = Limits::default().with_deadline(Duration::ZERO);
    let config = PredictConfig {
        limits: zero,
        ..PredictConfig::with_runs(3)
    };
    assert_eq!(
        assert_all_match("zero deadline, long prefix", long, &config),
        None
    );
    // A short warm-up: the first poll falls after the fork, and the resumed
    // runs must poll at the same decision the unshared runs do.
    let short = r#"
        global x = 0;
        proc worker(n) {
            var i = 0;
            while (i < 300) { x = x + n; i = i + 1; }
        }
        proc main() {
            var i = 0;
            while (i < 20) { x = i; i = i + 1; }
            var a = spawn worker(1);
            var b = spawn worker(2);
            join a;
            join b;
        }
    "#;
    let forced = assert_all_match("zero deadline, short prefix", short, &config);
    assert!(forced.is_some_and(|forced| forced < 255));
    let outcome = run_with(
        &cil::compile(short).unwrap(),
        "main",
        &mut RandomScheduler::seeded(1),
        &mut NullObserver,
        zero,
    )
    .unwrap();
    assert_eq!(outcome.termination, Termination::DeadlineExceeded);
    assert_eq!(outcome.steps, 255, "the first poll is at decision 256");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated programs, as generated and with a global-writing warm-up
    /// spliced into `main` ahead of the spawns.
    #[test]
    fn generated_programs_match_the_unshared_loop(
        (source, _) in arb_program(2, true),
        warmup in 0u64..40
    ) {
        let program = cil::compile(&source).expect("generated source compiles");
        assert_races_match("generated", &program, &PredictConfig::with_runs(3));
        let warmed = source.replacen(
            "    lk = new Lock;\n",
            &format!(
                "    lk = new Lock;\n    var w = 0;\n    while (w < {warmup}) {{ g0 = w; g1 = g0; w = w + 1; }}\n"
            ),
            1,
        );
        prop_assert_ne!(&warmed, &source);
        let program = cil::compile(&warmed).expect("warmed source compiles");
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let config = PredictConfig { policy, ..PredictConfig::with_runs(3) };
            assert_races_match("generated with warm-up", &program, &config);
        }
    }
}
