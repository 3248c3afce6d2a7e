//! Regenerates the paper's **Table 1** over the fourteen workload models.
//!
//! For every benchmark it reports, paper-value/measured-value side by side:
//! runtimes (normal, hybrid-instrumented, RaceFuzzer), potential races from
//! hybrid detection, real races confirmed by RaceFuzzer, racing pairs that
//! raised exceptions under RaceFuzzer and under the simple random
//! scheduler, and the mean probability of hitting a race (100 trials per
//! pair by default, like the paper).
//!
//! Usage: `table1 [--trials N] [--filter NAME]`

use detector::{predict_races, PredictConfig};
use interp::{run_with, Limits, NullObserver, RoundRobinScheduler};
use racefuzzer::{analyze, simple_random_exceptions, AnalyzeOptions, FuzzConfig};
use rf_bench::{fmt_ms, fmt_prob, time_mean, TextTable};
use workloads::Workload;

struct Args {
    trials: usize,
    filter: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 100,
        filter: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trials" => {
                args.trials = iter
                    .next()
                    .and_then(|value| value.parse().ok())
                    .expect("--trials takes a number");
            }
            "--filter" => args.filter = iter.next(),
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn analyze_options(trials: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: trials,
        predict: PredictConfig::with_runs(10),
        fuzz: FuzzConfig {
            postpone_limit: 500,
            max_steps: 500_000,
            ..FuzzConfig::default()
        },
        ..AnalyzeOptions::default()
    }
}

fn measure(workload: &Workload, trials: usize) -> [String; 11] {
    let program = &workload.program;
    let paper = &workload.paper;
    let limits = Limits::default();

    // Runtime columns. The "normal" scheduler is a fair preemptive
    // round-robin (the JGF kernels' busy-wait barriers require fairness).
    let normal = time_mean(5, || {
        run_with(
            program,
            workload.entry,
            &mut RoundRobinScheduler::new(23),
            &mut NullObserver,
            limits,
        )
        .expect("workload runs");
    });
    let hybrid_time = time_mean(5, || {
        let mut engine = detector::DetectorEngine::new(detector::Policy::Hybrid);
        run_with(
            program,
            workload.entry,
            &mut RoundRobinScheduler::new(23),
            &mut engine,
            limits,
        )
        .expect("workload runs");
    });

    // Phase 1 + Phase 2.
    let options = analyze_options(trials);
    let report = analyze(program, workload.entry, &options).expect("analysis runs");
    let potential = report.potential.len();
    let real = report.real_races().len();
    let exception_pairs = report.exception_pairs().len();
    let probability = report.mean_hit_probability();

    // RaceFuzzer runtime: mean over a few runs of the first pair (or a
    // plain run when nothing was predicted).
    let rf_time = match report.potential.first().copied() {
        Some(pair) => time_mean(5, || {
            racefuzzer::fuzz_pair_once(program, workload.entry, pair, &options.fuzz)
                .expect("fuzz runs");
        }),
        None => normal,
    };

    // Simple-random baseline (paper column 10): distinct exception names
    // seen over the same number of trials.
    let simple = simple_random_exceptions(program, workload.entry, trials, 1, limits)
        .expect("baseline runs");
    let simple_count = simple.len();

    [
        workload.name.to_string(),
        format!("{}", program.instr_count()),
        fmt_ms(normal),
        fmt_ms(hybrid_time),
        fmt_ms(rf_time),
        format!("{}/{}", paper.hybrid_races, potential),
        format!("{}/{}", paper.real_races, real),
        paper
            .known_races
            .map(|known| known.to_string())
            .unwrap_or_else(|| "-".to_string()),
        format!("{}/{}", paper.rf_exceptions, exception_pairs),
        format!("{}/{}", paper.simple_exceptions, simple_count),
        format!("{}/{}", fmt_prob(paper.probability), fmt_prob(probability)),
    ]
}

fn main() {
    let args = parse_args();
    println!("Table 1 — race directed random testing (paper/measured per cell)");
    println!(
        "trials per racing pair: {} (paper: 100); SLOC column is the model's instruction count\n",
        args.trials
    );

    let mut table = TextTable::new([
        "Program",
        "Instrs",
        "Normal",
        "Hybrid",
        "RF",
        "Hybrid#",
        "RF real",
        "known",
        "Exc RF",
        "Exc Simple",
        "P(race)",
    ]);

    for workload in workloads::all() {
        if let Some(filter) = &args.filter {
            if !workload
                .name
                .to_lowercase()
                .contains(&filter.to_lowercase())
            {
                continue;
            }
        }
        // The jigsaw model has ~52 pairs; scale trials to keep the harness
        // interactive, like the paper scales its own budget per benchmark.
        let trials = if workload.name == "jigsaw" {
            args.trials.min(30)
        } else {
            args.trials
        };
        eprintln!("analyzing {} ({} trials/pair)…", workload.name, trials);
        table.row(measure(&workload, trials));
    }

    println!("{}", table.render());
    println!("cells `paper/measured`; shapes to check:");
    println!("  - RF real ≤ Hybrid# (false alarms filtered without inspection)");
    println!("  - sor/jspider: 0 real (all predictions refuted)");
    println!("  - collections + cache4j/hedc/weblech: exceptions found by RF");
    println!("  - Exc Simple ≤ Exc RF (default scheduling misses the bugs)");

    // Phase-1-only summary for the hybrid column cross-check.
    let mut detail = TextTable::new(["Program", "potential pairs (first runs)"]);
    for workload in workloads::all() {
        if let Some(filter) = &args.filter {
            if !workload
                .name
                .to_lowercase()
                .contains(&filter.to_lowercase())
            {
                continue;
            }
        }
        let races = predict_races(
            &workload.program,
            workload.entry,
            &PredictConfig::with_runs(10),
        )
        .expect("prediction runs");
        detail.row([workload.name.to_string(), races.len().to_string()]);
    }
    println!("\n{}", detail.render());
}
