//! Regenerates the paper's **Figure 1** walkthrough (§3.1): hybrid
//! detection predicts two racing pairs — `(5, 7)` on `z` (real) and
//! `(1, 10)` on `x` (a false alarm) — and RaceFuzzer classifies them
//! automatically, creating the real race and driving the program into
//! ERROR1 under one of the two random resolutions.

use detector::{predict_races, PredictConfig, RacePair};
use racefuzzer::{fuzz_pair, FuzzConfig};
use rf_bench::TextTable;

fn main() {
    let program = workloads::figure1();
    println!("Figure 1 — the example program with a real race (paper §3.1)\n");

    let races =
        predict_races(&program, "main", &PredictConfig::with_runs(30)).expect("prediction runs");
    println!(
        "Phase 1 (hybrid detection) predicted {} pairs:",
        races.len()
    );
    for pair in &races {
        println!("  {}", pair.describe(&program));
    }

    let z_pair = RacePair::new(program.tagged_access("s5"), program.tagged_access("s7"));
    let x_pair = RacePair::new(program.tagged_access("s1"), program.tagged_access("s10"));

    println!("\nPhase 2 (RaceFuzzer), 100 trials per pair:\n");
    let mut table = TextTable::new([
        "RaceSet",
        "paper verdict",
        "hits",
        "P(race)",
        "ERROR1",
        "ERROR2",
    ]);
    for (label, verdict, pair) in [
        ("{5, 7} (z)", "real race; ERROR1 ~1/2", z_pair),
        ("{1, 10} (x)", "false alarm; never races", x_pair),
    ] {
        let report = fuzz_pair(&program, "main", pair, 100, 1, &FuzzConfig::default())
            .expect("fuzzing runs");
        table.row([
            label.to_string(),
            verdict.to_string(),
            format!("{}/{}", report.hits, report.trials),
            format!("{:.2}", report.hit_probability()),
            report
                .exceptions
                .get("Error1")
                .copied()
                .unwrap_or(0)
                .to_string(),
            report
                .exceptions
                .get("Error2")
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    println!("{}", table.render());

    if let Ok(report) = fuzz_pair(&program, "main", z_pair, 100, 1, &FuzzConfig::default()) {
        if let Some(seed) = report.first_exception_seed {
            println!("replay the ERROR1 execution with seed {seed}:");
            let outcome = racefuzzer::replay(&program, "main", z_pair, seed).expect("replay runs");
            println!(
                "  races created: {}, uncaught: {:?}, steps: {}",
                outcome.races.len(),
                outcome.uncaught_names(&program),
                outcome.steps
            );
        }
    }
}
