//! Regenerates the paper's **Figure 2** experiment (§3.2): the probability
//! of creating the race — and of reaching ERROR — as a function of the
//! number of padding statements separating the racing accesses.
//!
//! Expected shape (the paper's claim):
//!
//! * RaceFuzzer creates the race with probability 1 and reaches ERROR with
//!   probability ≈ 0.5, **independent of padding**;
//! * a simple random scheduler's probabilities collapse as padding grows.
//!
//! Usage: `fig2 [--trials N]`

use detector::RacePair;
use interp::{run_with, Limits, RandomScheduler, RaposScheduler};
use racefuzzer::{fuzz_pair_once, FuzzConfig};
use rf_bench::TextTable;

fn main() {
    let trials: u64 = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|pair| pair[0] == "--trials")
        .and_then(|pair| pair[1].parse().ok())
        .unwrap_or(400);

    println!("Figure 2 — probability of hitting the race vs. padding (trials = {trials})\n");
    let mut table = TextTable::new([
        "pad",
        "RF P(race)",
        "RF P(error)",
        "Simple P(error)",
        "RAPOS P(error)",
        "Simple P(race seen)",
    ]);

    for pad in [0usize, 1, 2, 5, 10, 20, 50, 100, 200] {
        let program = workloads::figure2(pad);
        let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));

        // RaceFuzzer series.
        let mut rf_hits = 0u64;
        let mut rf_errors = 0u64;
        for seed in 0..trials {
            let outcome = fuzz_pair_once(&program, "main", pair, &FuzzConfig::seeded(seed))
                .expect("fuzz runs");
            if outcome.race_created() {
                rf_hits += 1;
            }
            if !outcome.uncaught.is_empty() {
                rf_errors += 1;
            }
        }

        // Simple random scheduler series. "Race seen" is measured by a
        // per-trial happens-before detector (precise; only counts races the
        // schedule actually exposed).
        let mut simple_errors = 0u64;
        let mut simple_races_seen = 0u64;
        for seed in 0..trials {
            let mut engine = detector::DetectorEngine::new(detector::Policy::HappensBefore);
            let outcome = run_with(
                &program,
                "main",
                &mut RandomScheduler::seeded(seed),
                &mut engine,
                Limits::default(),
            )
            .expect("run succeeds");
            if !outcome.uncaught.is_empty() {
                simple_errors += 1;
            }
            if engine.race_count() > 0 {
                simple_races_seen += 1;
            }
        }

        // RAPOS baseline (Sen ASE'07, the paper's §6 comparison): samples
        // partial orders, still padding-sensitive for this error.
        let mut rapos_errors = 0u64;
        for seed in 0..trials {
            let outcome = run_with(
                &program,
                "main",
                &mut RaposScheduler::seeded(seed),
                &mut interp::NullObserver,
                Limits::default(),
            )
            .expect("run succeeds");
            if !outcome.uncaught.is_empty() {
                rapos_errors += 1;
            }
        }

        let frac = |n: u64| format!("{:.3}", n as f64 / trials as f64);
        table.row([
            pad.to_string(),
            frac(rf_hits),
            frac(rf_errors),
            frac(simple_errors),
            frac(rapos_errors),
            frac(simple_races_seen),
        ]);
    }

    println!("{}", table.render());
    println!("expected: RF columns flat (≈1.0 / ≈0.5); Simple columns decay with pad.");
}
