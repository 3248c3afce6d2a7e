//! Engine lockstep differential test: the register-bytecode VM and the
//! tree-walking interpreter must be observably identical, state by state.
//!
//! The whole pipeline runs the bytecode engine. The tree-walker survives
//! only as the reference semantics this suite replays against, selected
//! per execution with `Execution::set_engine`. The harness records Phase-2
//! schedules with `fuzz_pair_once` under both `switch_only_at_sync`
//! settings, for every predicted pair of every Table-1 workload and of
//! generated programs, plus one untargeted schedule per seed. It then
//! replays each schedule on a bytecode and a tree-walk `Execution` side by
//! side:
//!
//! - before every step, and after the last, every thread's `is_enabled`,
//!   `enabled_pc` and `next_access` agree;
//! - every step returns the same `StepResult`;
//! - at the end, steps, output and uncaught exceptions agree, and match
//!   the recorded trial.
//!
//! Each schedule is replayed twice: under `NullObserver`, Phase 2's
//! event-free fast path, and under `RecordingObserver`, Phase 1's event
//! path, where the two event streams must be equal as well.

use proptest::prelude::*;
use racefuzzer_suite::interp::{
    ExecEngine, Execution, NullObserver, Observer, RecordingObserver, StepResult, ThreadId,
};
use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::{fuzz_once, FuzzOutcome};
use std::collections::BTreeSet;
use std::ops::Range;

/// Recorded trials per target and scheduler setting on the Table-1
/// workloads.
const WORKLOAD_SEEDS: Range<u64> = 0..3;

/// Step budget of the recorded workload trials. Under `switch_only_at_sync`
/// a spinning thread can run to the budget; replaying the default two
/// million statements four times over shows nothing a shorter cut misses.
const WORKLOAD_MAX_STEPS: u64 = 250_000;

/// Compares every thread's scheduler-visible state on both engines.
fn check_state(bytecode: &Execution, tree_walk: &Execution) -> Result<(), String> {
    if bytecode.thread_count() != tree_walk.thread_count() {
        return Err(format!(
            "thread count: bytecode {} vs tree-walk {}",
            bytecode.thread_count(),
            tree_walk.thread_count()
        ));
    }
    for index in 0..bytecode.thread_count() {
        let thread = ThreadId(index as u32);
        let view = |exec: &Execution| {
            (
                exec.is_enabled(thread),
                exec.enabled_pc(thread),
                exec.next_access(thread),
            )
        };
        let (left, right) = (view(bytecode), view(tree_walk));
        if left != right {
            return Err(format!(
                "thread {index} (is_enabled, enabled_pc, next_access): \
                 bytecode {left:?} vs tree-walk {right:?}"
            ));
        }
    }
    Ok(())
}

/// Replays the schedule `outcome` recorded on a bytecode and a tree-walk
/// execution in lockstep, each delivering its events to its own observer.
fn replay(
    program: &cil::Program,
    entry: &str,
    outcome: &FuzzOutcome,
    bytecode_observer: &mut dyn Observer,
    tree_walk_observer: &mut dyn Observer,
) -> Result<(), String> {
    let schedule = outcome
        .schedule
        .as_deref()
        .ok_or("the trial recorded no schedule")?;
    let start = || Execution::new(program, entry).map_err(|error| error.to_string());
    let mut bytecode = start()?;
    let mut tree_walk = start()?;
    tree_walk.set_engine(ExecEngine::TreeWalk);
    for (step, &thread) in schedule.iter().enumerate() {
        check_state(&bytecode, &tree_walk)
            .map_err(|error| format!("before step {step}: {error}"))?;
        let left = bytecode.step(thread, bytecode_observer);
        let right = tree_walk.step(thread, tree_walk_observer);
        if left != right {
            return Err(format!(
                "step {step} of {thread:?}: bytecode {left:?} vs tree-walk {right:?}"
            ));
        }
        if left == StepResult::NotEnabled {
            return Err(format!(
                "step {step}: the recorded {thread:?} is not enabled"
            ));
        }
    }
    check_state(&bytecode, &tree_walk).map_err(|error| format!("after the last step: {error}"))?;
    let end = |exec: &Execution| {
        (
            exec.steps(),
            exec.output().to_vec(),
            exec.uncaught().to_vec(),
        )
    };
    if end(&bytecode) != end(&tree_walk) {
        return Err(format!(
            "(steps, output, uncaught): bytecode {:?} vs tree-walk {:?}",
            end(&bytecode),
            end(&tree_walk)
        ));
    }
    let recorded = (
        outcome.steps,
        outcome.output.clone(),
        outcome.uncaught.clone(),
    );
    if end(&bytecode) != recorded {
        return Err(format!(
            "the replay {:?} is not the recorded trial {recorded:?}",
            end(&bytecode)
        ));
    }
    Ok(())
}

/// Replays one recorded trial under both observer paths.
fn check_trial(program: &cil::Program, entry: &str, outcome: &FuzzOutcome) -> Result<(), String> {
    replay(
        program,
        entry,
        outcome,
        &mut NullObserver,
        &mut NullObserver,
    )
    .map_err(|error| format!("NullObserver: {error}"))?;
    let mut bytecode = RecordingObserver::default();
    let mut tree_walk = RecordingObserver::default();
    replay(program, entry, outcome, &mut bytecode, &mut tree_walk)
        .map_err(|error| format!("RecordingObserver: {error}"))?;
    let (left, right) = (&bytecode.events, &tree_walk.events);
    if left != right {
        let at = left.iter().zip(right).take_while(|(a, b)| a == b).count();
        return Err(format!(
            "RecordingObserver: event {at}: bytecode {:?} vs tree-walk {:?}",
            left.get(at),
            right.get(at)
        ));
    }
    Ok(())
}

/// How much a sweep replayed, for the summary lines (`--nocapture`).
#[derive(Default)]
struct Tally {
    schedules: u64,
    statements: u64,
}

/// Records one trial per seed in `seeds` for every predicted pair of
/// `program`, and for no target, with `fuzz`'s scheduler settings, and
/// replays each in lockstep.
fn sweep(
    program: &cil::Program,
    entry: &str,
    predict: &PredictConfig,
    fuzz: &FuzzConfig,
    seeds: Range<u64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (pairs, _provenance) =
        gather_candidates(program, entry, predict, CandidateSource::DynamicPhase1)
            .map_err(|error| error.to_string())?;
    for target in std::iter::once(None).chain(pairs.into_iter().map(Some)) {
        for seed in seeds.clone() {
            let config = FuzzConfig {
                seed,
                record_schedule: true,
                ..fuzz.clone()
            };
            let outcome = match target {
                Some(pair) => fuzz_pair_once(program, entry, pair, &config),
                // No target: a plain random schedule, which every program
                // has even when Phase 1 predicts no pair.
                None => fuzz_once(program, entry, &BTreeSet::new(), &config),
            }
            .map_err(|error| error.to_string())?;
            check_trial(program, entry, &outcome).map_err(|error| {
                let target = target.map_or("no target".to_owned(), |pair| format!("{pair:?}"));
                format!("{target}, seed {seed}: {error}")
            })?;
            tally.schedules += 1;
            tally.statements += outcome.steps;
        }
    }
    Ok(())
}

/// Sweeps every predicted pair of every Table-1 workload, predicted with
/// the paper's Phase-1 configuration.
fn sweep_workloads(switch_only_at_sync: bool, tally: &mut Tally) -> Vec<String> {
    let fuzz = FuzzConfig {
        switch_only_at_sync,
        max_steps: WORKLOAD_MAX_STEPS,
        ..FuzzConfig::default()
    };
    workloads::all()
        .iter()
        .filter_map(|workload| {
            sweep(
                &workload.program,
                workload.entry,
                &PredictConfig::default(),
                &fuzz,
                WORKLOAD_SEEDS,
                tally,
            )
            .err()
            .map(|error| format!("{}: {error}", workload.name))
        })
        .collect()
}

#[test]
fn engines_agree_on_recorded_schedules_and_seed_sweeps() {
    let mut tally = Tally::default();
    let mut failures = sweep_workloads(false, &mut tally);
    // A deeper seed sweep on Figure 2 under both scheduler settings: more
    // interleavings of one program's racing accesses.
    let program = workloads::figure2(5);
    for switch_only_at_sync in [false, true] {
        let fuzz = FuzzConfig {
            switch_only_at_sync,
            ..FuzzConfig::default()
        };
        let predict = PredictConfig::default();
        if let Err(error) = sweep(&program, "main", &predict, &fuzz, 0..40, &mut tally) {
            failures.push(format!("figure2 (at_sync: {switch_only_at_sync}): {error}"));
        }
    }
    println!(
        "replayed {} schedule(s), {} statement(s)",
        tally.schedules, tally.statements
    );
    assert!(
        failures.is_empty(),
        "bytecode diverged from tree-walk:\n{}",
        failures.join("\n")
    );
}

#[test]
fn engines_agree_under_the_at_sync_scheduler() {
    // The §4 run-until-sync loop batches statements between decisions;
    // its recorded schedules must replay statement for statement too.
    let mut tally = Tally::default();
    let failures = sweep_workloads(true, &mut tally);
    println!(
        "replayed {} schedule(s), {} statement(s)",
        tally.schedules, tally.statements
    );
    assert!(
        failures.is_empty(),
        "bytecode diverged from tree-walk:\n{}",
        failures.join("\n")
    );
}

/// One statement in a generated worker body (mirrors
/// `tests/random_programs.rs`, plus field/array traffic so the inline
/// caches and the element footprints are exercised, not just globals).
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    LockedWrite(u8),
    FieldBump,
    Rebox,
    ElemBump(u8),
    Nop,
}

fn arb_op(globals: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..globals).prop_map(Op::Read),
        (0..globals).prop_map(Op::Write),
        (0..globals).prop_map(Op::LockedWrite),
        Just(Op::FieldBump),
        Just(Op::Rebox),
        (0..4u8).prop_map(Op::ElemBump),
        Just(Op::Nop),
    ]
}

fn arb_threads(globals: u8) -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(globals), 1..6), 1..4)
}

/// Renders `threads` as workers over `globals` shared counters. `Box` and
/// `Pair` keep `n` at different slots, and `bx` holds either: `rebox`
/// stores the other class each time it runs, so the `o.n` store in it and
/// the `b.n` load and store in `bump` each see both layouts once any
/// worker reboxes (main bumps before the workers start and after they
/// end).
fn render_program(globals: u8, threads: &[Vec<Op>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from(
        "class Lock { }\nclass Box { n }\nclass Pair { m, n }\n\
         global lk;\nglobal bx;\nglobal arr;\nglobal flip = 0;\n\
         proc rebox() {\n    var o = new Box;\n    \
         if (flip == 1) { o = new Pair; o.m = 7; }\n    \
         flip = 1 - flip;\n    o.n = 0;\n    bx = o;\n}\n\
         proc bump() {\n    var b = bx;\n    b.n = b.n + 1;\n}\n",
    );
    for g in 0..globals {
        let _ = writeln!(source, "global g{g} = 0;");
    }
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        let _ = writeln!(source, "    var tmp = 0;");
        let _ = writeln!(source, "    var a = arr;");
        for op in body {
            match op {
                Op::Read(g) => {
                    let _ = writeln!(source, "    tmp = g{g};");
                }
                Op::Write(g) => {
                    let _ = writeln!(source, "    g{g} = tmp + 1;");
                }
                Op::LockedWrite(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ g{g} = tmp + 1; }}");
                }
                Op::FieldBump => {
                    let _ = writeln!(source, "    bump();");
                }
                Op::Rebox => {
                    let _ = writeln!(source, "    rebox();");
                }
                Op::ElemBump(i) => {
                    let _ = writeln!(source, "    a[{i}] = a[{i}] + tmp;");
                }
                Op::Nop => {
                    let _ = writeln!(source, "    nop;");
                }
            }
        }
        let _ = writeln!(source, "}}");
    }
    // Start the field and every element at 0, so bumps add instead of
    // throwing on their first read.
    source.push_str("proc main() {\n    lk = new Lock;\n    rebox();\n    bump();\n");
    source.push_str("    arr = new [4];\n    var a = arr;\n");
    for i in 0..4 {
        let _ = writeln!(source, "    a[{i}] = 0;");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("    bump();\n    var b = bx;\n    print b.n;\n}\n");
    source
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_programs(
        threads in arb_threads(3),
        base_seed in 0u64..1_000,
    ) {
        let source = render_program(3, &threads);
        let program = cil::compile(&source).expect("generated program compiles");
        let mut tally = Tally::default();
        for switch_only_at_sync in [false, true] {
            let fuzz = FuzzConfig {
                postpone_limit: 100,
                max_steps: 50_000,
                switch_only_at_sync,
                ..FuzzConfig::default()
            };
            let seeds = base_seed..base_seed + 3;
            let predict = PredictConfig::with_runs(2);
            let result = sweep(&program, "main", &predict, &fuzz, seeds, &mut tally);
            prop_assert!(
                result.is_ok(),
                "engines diverged (at_sync: {}): {}\non:\n{}",
                switch_only_at_sync,
                result.unwrap_err(),
                source
            );
        }
        println!(
            "generated program: replayed {} schedule(s), {} statement(s)",
            tally.schedules, tally.statements
        );
    }
}
