//! Quickstart: find, confirm, and replay a data race in a small CIL
//! program with the full two-phase RaceFuzzer pipeline.
//!
//! Run with: `cargo run --example quickstart`

use racefuzzer_suite::prelude::*;

fn main() {
    // A bank-account model with a classic check-then-act race: both
    // tellers read the balance, then write it back without holding the
    // lock for the whole read-modify-write.
    let program = cil::compile(
        r#"
        class Account { balance }
        global account;

        proc deposit(amount) {
            var acct = account;
            @read_balance var current = acct.balance;
            @write_balance acct.balance = current + amount;
        }

        proc main() {
            var acct = new Account;
            acct.balance = 100;
            account = acct;
            var t1 = spawn deposit(50);
            var t2 = spawn deposit(25);
            join t1;
            join t2;
            var a2 = account;
            var final_balance = a2.balance;
            assert final_balance == 175 : "a deposit was lost";
        }
        "#,
    )
    .expect("the example program is valid CIL");

    // Phase 1: predict potential races with the hybrid detector.
    let potential =
        predict_races(&program, "main", &PredictConfig::default()).expect("prediction runs");
    println!(
        "Phase 1 predicted {} potential racing pair(s):",
        potential.len()
    );
    for pair in &potential {
        println!("  {}", pair.describe(&program));
    }

    // Phase 2: direct the random scheduler at each pair.
    let report =
        analyze(&program, "main", &AnalyzeOptions::with_trials(50)).expect("analysis runs");
    println!(
        "\nPhase 2 confirmed {} real race(s):",
        report.real_races().len()
    );
    for pair_report in &report.pairs {
        println!(
            "  {} -> hits {}/{} (P = {:.2}), exceptions: {:?}",
            pair_report.target.describe(&program),
            pair_report.hits,
            pair_report.trials,
            pair_report.hit_probability(),
            pair_report.exceptions.keys().collect::<Vec<_>>()
        );
        // Deterministic replay from the seed alone — no trace recording.
        if let Some(seed) = pair_report.first_exception_seed {
            let replayed = replay(&program, "main", pair_report.target, seed).expect("replay runs");
            println!(
                "  replaying seed {seed}: race at step {}, uncaught {:?}",
                replayed.races.first().map(|race| race.step).unwrap_or(0),
                replayed.uncaught_names(&program),
            );
        }
    }

    println!(
        "\nThe lost-update bug fires as an AssertionError in roughly half of the \
         race-creating trials — the paper's 'random race resolution' at work."
    );
}
