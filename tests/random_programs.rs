//! Property-based tests over randomly generated concurrent programs.
//!
//! A small generator (`support/mod.rs`) produces multi-threaded CIL
//! programs from a fixed op vocabulary (locked/unlocked reads and writes of
//! a few globals). The
//! pipeline must uphold its contracts on *every* such program:
//!
//! * fully-locked programs have no real races (and no predictions);
//! * RaceFuzzer never reports a race in a program with read-only sharing;
//! * executions replay exactly from the seed;
//! * the analysis never panics, deadlocks the host, or reports a real race
//!   whose statements were not targeted.

mod support;

use proptest::prelude::*;
use racefuzzer_suite::prelude::*;
use support::{arb_program, Op};

fn quick_options() -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: 5,
        predict: PredictConfig::with_runs(3),
        fuzz: FuzzConfig {
            postpone_limit: 100,
            max_steps: 50_000,
            ..FuzzConfig::default()
        },
        ..AnalyzeOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Programs whose every write is locked can still race on unlocked
    /// *reads* vs locked writes — but a program where additionally all
    /// reads are locked must be race-free. We generate the all-locked
    /// variant by filtering, and assert no real race is ever confirmed.
    #[test]
    fn fully_locked_programs_have_no_confirmed_races(
        (source, threads) in arb_program(2, false)
    ) {
        // Keep only threads whose ops are all locked or nops.
        let all_locked = threads.iter().flatten().all(|op| {
            matches!(op, Op::LockedRead(_) | Op::LockedWrite(_) | Op::Nop)
        });
        prop_assume!(all_locked);
        let program = cil::compile(&source).expect("generated source compiles");
        let report = analyze(&program, "main", &quick_options()).expect("analysis runs");
        prop_assert!(
            report.potential.is_empty(),
            "fully locked program predicted {:?}\n{source}",
            report.potential
        );
    }

    /// The pipeline upholds its contracts on arbitrary racy programs.
    #[test]
    fn pipeline_contracts_hold_on_racy_programs(
        (source, _) in arb_program(2, true)
    ) {
        let program = cil::compile(&source).expect("generated source compiles");
        let report = analyze(&program, "main", &quick_options()).expect("analysis runs");
        // Confirmed ⊆ predicted targets.
        for pair_report in &report.pairs {
            for real in &pair_report.real_pairs {
                for instr in real.instrs() {
                    prop_assert!(pair_report.target.contains(instr));
                }
            }
            // These generated programs contain no throw/assert and no
            // fallible operations: fuzzing must not invent exceptions.
            prop_assert_eq!(pair_report.exception_trials, 0);
        }
    }

    /// Seed-only replay: identical schedules and outcomes, twice.
    #[test]
    fn fuzz_outcomes_replay_exactly(
        (source, _) in arb_program(2, true),
        seed in 0u64..1000
    ) {
        let program = cil::compile(&source).expect("generated source compiles");
        let Some(&target) = predict_races(&program, "main", &PredictConfig::with_runs(2))
            .expect("prediction runs")
            .first()
        else {
            return Ok(()); // nothing racy generated
        };
        let config = FuzzConfig { seed, record_schedule: true, ..FuzzConfig::default() };
        let a = fuzz_pair_once(&program, "main", target, &config).expect("fuzz runs");
        let b = fuzz_pair_once(&program, "main", target, &config).expect("fuzz runs");
        prop_assert_eq!(a.schedule, b.schedule);
        prop_assert_eq!(a.races, b.races);
        prop_assert_eq!(a.steps, b.steps);
    }

    /// Under any random schedule, generated programs terminate with all
    /// threads exited (they contain no blocking constructs).
    #[test]
    fn generated_programs_always_terminate(
        (source, _) in arb_program(3, true),
        seed in 0u64..1000
    ) {
        let program = cil::compile(&source).expect("generated source compiles");
        let outcome = run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut NullObserver,
            Limits::default(),
        ).expect("run succeeds");
        prop_assert_eq!(outcome.termination, Termination::AllExited);
        prop_assert!(outcome.uncaught.is_empty());
    }
}
