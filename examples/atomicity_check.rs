//! Atomicity-violation-directed testing — the paper's §1 generalisation:
//! "we can bias the random scheduler by other potential concurrency
//! problems such as potential atomicity violations".
//!
//! The program below is **data-race free** (every access to `balance`
//! holds the lock), so RaceFuzzer's race mode finds nothing. But the
//! deposit's read and write live in *different* critical sections: a
//! withdraw scheduled into the window is lost. The atomicity pipeline
//! predicts the split region, forces the interleaving, and exposes the
//! lost update.
//!
//! Run with: `cargo run --example atomicity_check`

use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::{analyze_atomicity, fuzz_atomicity_once};

fn main() {
    let program = cil::compile(
        r#"
        class Lock { }
        global l;
        global balance = 100;

        proc deposit_split(amount) {
            var current;
            sync (l) { current = balance; }      // check…
            sync (l) { balance = current + amount; }  // …act (too late!)
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
            var final_balance;
            sync (l) { final_balance = balance; }
            assert final_balance == 120 : "an update was lost";
        }
        "#,
    )
    .expect("the example program is valid CIL");

    // Race mode: silent, correctly.
    let races =
        predict_races(&program, "main", &PredictConfig::with_runs(10)).expect("prediction runs");
    println!(
        "data races predicted: {} (all accesses are locked)",
        races.len()
    );
    assert!(races.is_empty());

    // Atomicity mode: predicts the split region and forces the bug.
    let report =
        analyze_atomicity(&program, "main", 50, 1, &FuzzConfig::default()).expect("analysis runs");
    println!(
        "split-region candidates predicted: {}",
        report.candidates.len()
    );
    for (candidate, pair) in report.candidates.iter().zip(&report.reports) {
        println!(
            "  {}\n    forced in {}/{} trials, lost-update assert fired in {} trials",
            candidate.describe(&program),
            pair.violations,
            pair.trials,
            pair.exception_trials
        );
        if let Some(seed) = pair.first_seed {
            let outcome =
                fuzz_atomicity_once(&program, "main", candidate, &FuzzConfig::seeded(seed))
                    .expect("replay runs");
            println!(
                "    replay seed {seed}: {} violation(s), uncaught {:?}",
                outcome.violations.len(),
                outcome.uncaught_names_for(&program)
            );
        }
    }
    assert!(!report.real_violations().is_empty());
    println!("\nrace-freedom is not atomicity — and the scheduler can prove it.");
}

trait UncaughtNames {
    fn uncaught_names_for<'p>(&self, program: &'p cil::Program) -> Vec<&'p str>;
}

impl UncaughtNames for racefuzzer_suite::racefuzzer::AtomicityOutcome {
    fn uncaught_names_for<'p>(&self, program: &'p cil::Program) -> Vec<&'p str> {
        self.uncaught
            .iter()
            .map(|exception| program.name(exception.name))
            .collect()
    }
}
