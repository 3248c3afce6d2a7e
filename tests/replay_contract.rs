//! The paper's replay contract, stated as one cross-crate property: for
//! every analysis mode (race, deadlock, atomicity), the *only* state a bug
//! report needs is the seed — re-running reproduces the identical
//! observable behaviour.

use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::{fuzz_atomicity_once, fuzz_once, DeadlockOptions};
use std::collections::BTreeSet;

#[test]
fn race_mode_outcomes_are_pure_functions_of_the_seed() {
    let program = workloads::figure2(40);
    let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));
    for seed in 0..20 {
        let a = replay(&program, "main", pair, seed).unwrap();
        let b = replay(&program, "main", pair, seed).unwrap();
        assert_eq!(a.schedule, b.schedule, "seed {seed}");
        assert_eq!(a.races, b.races, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
    }
}

#[test]
fn deadlock_mode_outcomes_are_pure_functions_of_the_seed() {
    let program = cil::compile(
        r#"
        class Lock { }
        global a;
        global b;
        proc t1() { sync (a) { sync (b) { nop; } } }
        proc t2() { sync (b) { sync (a) { nop; } } }
        proc main() {
            a = new Lock;
            b = new Lock;
            var x = spawn t1();
            var y = spawn t2();
            join x;
            join y;
        }
        "#,
    )
    .unwrap();
    let report = racefuzzer_suite::racefuzzer::hunt_deadlocks(
        &program,
        "main",
        &DeadlockOptions {
            trials: 20,
            ..DeadlockOptions::default()
        },
    )
    .unwrap();
    let confirmation = &report.confirmations[0];
    let targets: BTreeSet<cil::InstrId> = confirmation.candidate.inner_sites();
    for trial in 0..20u64 {
        let seed = 1 + trial;
        let a = fuzz_once(&program, "main", &targets, &FuzzConfig::seeded(seed)).unwrap();
        let b = fuzz_once(&program, "main", &targets, &FuzzConfig::seeded(seed)).unwrap();
        assert_eq!(a.deadlocked(), b.deadlocked(), "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
    }
}

#[test]
fn atomicity_mode_outcomes_are_pure_functions_of_the_seed() {
    let program = cil::compile(
        r#"
        class Lock { }
        global l;
        global balance = 100;
        proc deposit_split(amount) {
            var current;
            sync (l) { current = balance; }
            sync (l) { balance = current + amount; }
        }
        proc withdraw(amount) {
            sync (l) { balance = balance - amount; }
        }
        proc main() {
            l = new Lock;
            var t1 = spawn deposit_split(50);
            var t2 = spawn withdraw(30);
            join t1;
            join t2;
        }
        "#,
    )
    .unwrap();
    let candidates =
        racefuzzer_suite::detector::predict_atomicity_violations(&program, "main", 5).unwrap();
    let candidate = candidates.first().expect("split region predicted");
    for seed in 0..20 {
        let a =
            fuzz_atomicity_once(&program, "main", candidate, &FuzzConfig::seeded(seed)).unwrap();
        let b =
            fuzz_atomicity_once(&program, "main", candidate, &FuzzConfig::seeded(seed)).unwrap();
        assert_eq!(a.violations, b.violations, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
        assert_eq!(a.output, b.output, "seed {seed}");
    }
}

#[test]
fn trace_rendering_is_part_of_the_contract() {
    let program = workloads::figure1();
    let pair = RacePair::new(program.tagged_access("s5"), program.tagged_access("s7"));
    for seed in [2u64, 5] {
        let a = render_trace(&program, "main", pair, seed).unwrap();
        let b = render_trace(&program, "main", pair, seed).unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}
