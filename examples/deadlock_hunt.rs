//! Deadlock-directed random testing — the paper's §1 generalisation of
//! RaceFuzzer ("we can bias the random scheduler by … potential
//! deadlocks"): predict lock-order cycles from observed runs, then direct
//! the scheduler to close each cycle. Confirmed deadlocks end with
//! Algorithm 1's "ERROR: actual deadlock found" and replay from a seed.
//!
//! Run with: `cargo run --example deadlock_hunt`

use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::{hunt_deadlocks, DeadlockOptions};

fn main() {
    // Three dining philosophers, each taking the left fork then the right:
    // a length-3 lock-order cycle — invisible to pairwise checks, caught
    // by the lock-order graph, and driven into an actual deadlock by the
    // biased scheduler.
    let program = cil::compile(
        r#"
        class Fork { }
        global f0;
        global f1;
        global f2;

        proc philosopher(left, right, meals) {
            var i = 0;
            while (i < meals) {
                sync (left) {
                    nop;                  // picked up the left fork…
                    sync (right) {
                        nop;              // …eating
                    }
                }
                i = i + 1;
            }
        }

        proc main() {
            f0 = new Fork;
            f1 = new Fork;
            f2 = new Fork;
            var p0 = spawn philosopher(f0, f1, 2);
            var p1 = spawn philosopher(f1, f2, 2);
            var p2 = spawn philosopher(f2, f0, 2);
            join p0;
            join p1;
            join p2;
        }
        "#,
    )
    .expect("the example program is valid CIL");

    let report =
        hunt_deadlocks(&program, "main", &DeadlockOptions::default()).expect("the hunt runs");

    println!(
        "Phase 1 (lock-order graph) predicted {} cycle(s):",
        report.candidates.len()
    );
    for candidate in &report.candidates {
        println!("  {}", candidate.describe(&program));
    }

    println!("\nPhase 2 (deadlock-directed scheduling):");
    for confirmation in &report.confirmations {
        println!(
            "  {}-cycle: deadlocked in {}/{} trials (P = {:.2}), replay seed {:?}",
            confirmation.candidate.len(),
            confirmation.deadlocks,
            confirmation.trials,
            confirmation.hit_probability(),
            confirmation.first_seed,
        );
    }
    assert!(
        !report.real_deadlocks().is_empty(),
        "the philosophers must deadlock under direction"
    );

    // Undirected baseline: plain random scheduling rarely closes the cycle.
    let trials = 100u64;
    let mut undirected = 0u64;
    for seed in 0..trials {
        let outcome = run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut NullObserver,
            Limits::default(),
        )
        .expect("run succeeds");
        if outcome.deadlocked() {
            undirected += 1;
        }
    }
    println!(
        "\nundirected random scheduling deadlocks in {undirected}/{trials} trials — \
         direction makes the bug reproducible on demand."
    );
}
