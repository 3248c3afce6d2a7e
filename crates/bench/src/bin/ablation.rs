//! Ablations of RaceFuzzer's design choices (DESIGN.md experiment E7).
//!
//! 1. **Racing-check precision** (Algorithm 2): location-precise vs
//!    statement-only. The imprecise variant reports "races" between
//!    threads touching disjoint objects — reintroducing false warnings.
//! 2. **Livelock eviction limit** (§4 monitor): too small and the
//!    scheduler gives up before the partner arrives (hit probability
//!    drops); large enough and hits saturate, at the cost of steps.
//! 3. **Phase-1 observation runs**: more randomly-scheduled runs predict
//!    more pairs (monotone), at linear cost.

use detector::{predict_races, PredictConfig, RacePair};
use racefuzzer::{fuzz_pair_once, FuzzConfig};
use rf_bench::TextTable;

fn main() {
    precision_ablation();
    eviction_ablation();
    prediction_runs_ablation();
}

fn precision_ablation() {
    println!("Ablation 1 — Algorithm 2 same-location check\n");
    let program = cil::compile(
        r#"
        class Counter { n }
        global c1;
        global c2;
        proc bump(c) {
            @bump_read var v = c.n;
            @bump_write c.n = v + 1;
        }
        proc main() {
            c1 = new Counter;
            c1.n = 0;
            c2 = new Counter;
            c2.n = 0;
            var t1 = spawn bump(c1);
            var t2 = spawn bump(c2);
            join t1;
            join t2;
        }
        "#,
    )
    .expect("ablation program compiles");
    let write = program.tagged_access("bump_write");
    let pair = RacePair::new(write, write);

    let mut table = TextTable::new(["racing check", "trials", "reported races", "verdict"]);
    for (label, precise) in [
        ("location-precise (paper)", true),
        ("statement-only", false),
    ] {
        let mut reported = 0;
        let trials = 100;
        for seed in 0..trials {
            let outcome = fuzz_pair_once(
                &program,
                "main",
                pair,
                &FuzzConfig {
                    seed,
                    location_precise: precise,
                    ..FuzzConfig::default()
                },
            )
            .expect("fuzz runs");
            if outcome.race_created() {
                reported += 1;
            }
        }
        let verdict = if precise {
            "correct: threads touch disjoint counters"
        } else {
            "false warnings reintroduced"
        };
        table.row([
            label.to_string(),
            trials.to_string(),
            reported.to_string(),
            verdict.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn eviction_ablation() {
    println!("Ablation 2 — livelock-monitor eviction limit (figure-2, pad=100)\n");
    let program = workloads::figure2(100);
    let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));
    let mut table = TextTable::new(["postpone_limit", "P(race)", "mean steps"]);
    for limit in [1u64, 5, 50, 500, 5_000] {
        let trials = 200u64;
        let mut hits = 0u64;
        let mut steps = 0u64;
        for seed in 0..trials {
            let outcome = fuzz_pair_once(
                &program,
                "main",
                pair,
                &FuzzConfig {
                    seed,
                    postpone_limit: limit,
                    ..FuzzConfig::default()
                },
            )
            .expect("fuzz runs");
            if outcome.race_created() {
                hits += 1;
            }
            steps += outcome.steps;
        }
        table.row([
            limit.to_string(),
            format!("{:.3}", hits as f64 / trials as f64),
            format!("{}", steps / trials),
        ]);
    }
    println!("{}", table.render());
    println!("expected: tiny limits evict the postponed thread before its partner");
    println!("arrives (probability collapses); ≥ padding length saturates at 1.0.\n");
}

fn prediction_runs_ablation() {
    println!("Ablation 3 — Phase-1 observation runs vs. predicted pairs\n");
    // The write to `b` only executes when the child observes `a == 0`,
    // i.e. when the child is scheduled before the parent's `a = 1` — a
    // branch the deterministic observation run never takes. Dynamic
    // detectors only predict races in code they saw run (the paper's first
    // limitation, §1); more observation runs widen coverage.
    let program = cil::compile(
        r#"
        global a = 0;
        global b = 0;
        proc child() {
            var seen = a;
            if (seen == 0) { b = 1; }
        }
        proc main() {
            var t = spawn child();
            a = 1;
            var v = b;
            join t;
        }
        "#,
    )
    .expect("ablation program compiles");
    let mut table = TextTable::new(["random runs", "predicted pairs"]);
    for runs in [0u64, 1, 2, 5, 10, 30] {
        let config = PredictConfig {
            seeds: (1..=runs).collect(),
            ..PredictConfig::default()
        };
        let races = predict_races(&program, "main", &config).expect("prediction runs");
        table.row([runs.to_string(), races.len().to_string()]);
    }
    println!("{}", table.render());
    println!("expected: the a-races are found immediately; the conditional");
    println!("b-race appears only once some random run schedules the child");
    println!("before the parent's write.");
}
