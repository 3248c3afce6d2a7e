//! A compact version of the paper's Figure-2 experiment (§3.2): RaceFuzzer
//! creates a predicted race with probability ~1 no matter how many
//! statements separate the racing accesses, while a plain random scheduler
//! almost never triggers the resulting error once the program grows.
//!
//! Run with: `cargo run --release --example probability_sweep`

use racefuzzer_suite::prelude::*;

fn main() {
    let trials = 200u64;
    println!("pad  RF P(race)  RF P(error)  Simple P(error)");
    for pad in [0usize, 10, 50, 200] {
        let program = racefuzzer_suite::workloads::figure2(pad);
        let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));

        let mut rf_hits = 0u64;
        let mut rf_errors = 0u64;
        for seed in 0..trials {
            let outcome = fuzz_pair_once(&program, "main", pair, &FuzzConfig::seeded(seed))
                .expect("fuzz runs");
            rf_hits += u64::from(outcome.race_created());
            rf_errors += u64::from(!outcome.uncaught.is_empty());
        }

        let mut simple_errors = 0u64;
        for seed in 0..trials {
            let outcome = run_with(
                &program,
                "main",
                &mut RandomScheduler::seeded(seed),
                &mut NullObserver,
                Limits::default(),
            )
            .expect("run succeeds");
            simple_errors += u64::from(!outcome.uncaught.is_empty());
        }

        println!(
            "{pad:>3}  {:>10.3}  {:>11.3}  {:>15.3}",
            rf_hits as f64 / trials as f64,
            rf_errors as f64 / trials as f64,
            simple_errors as f64 / trials as f64,
        );
    }
}
