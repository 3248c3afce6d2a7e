//! Cross-validates the static race-candidate generator against dynamic
//! Phase 1 over the workload suite.
//!
//! For every workload this harness runs the full pipeline twice — once with
//! `CandidateSource::DynamicPhase1` (the paper's hybrid detector) and once
//! with `CandidateSource::Static` (the `sana` points-to-based generator) —
//! and reports, per workload:
//!
//! - the static and dynamic candidate counts;
//! - the confirmed races (union of Phase-2 real pairs from both runs);
//! - **precision** of the static set: confirmed statics / static count;
//! - **recall** of the static set against dynamically *confirmed* races:
//!   a sound over-approximation must never miss a race Phase 2 actually
//!   created from a dynamic candidate, so with `--check` the process exits
//!   non-zero unless aggregate recall is exactly 100%.
//!
//! Results are written as `BENCH_static_gen.json`.
//!
//! Usage: `static_gen [--trials N] [--filter NAME] [--out PATH] [--check]`

use campaign::json::Json;
use racefuzzer::{analyze, AnalyzeOptions, CandidateSource, FuzzConfig};
use rf_bench::TextTable;
use sana::StaticRaceFilter;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

struct Args {
    trials: usize,
    filter: Option<String>,
    out: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 5,
        filter: None,
        out: "BENCH_static_gen.json".to_owned(),
        check: false,
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
            "--out" => args.out = iter.next().expect("--out takes a path"),
            "--check" => args.check = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

fn analyze_options(trials: usize, source: CandidateSource) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: trials,
        fuzz: FuzzConfig {
            postpone_limit: 300,
            max_steps: 400_000,
            ..FuzzConfig::default()
        },
        source,
        ..AnalyzeOptions::default()
    }
}

struct Measurement {
    workload: &'static str,
    static_candidates: usize,
    dynamic_candidates: usize,
    confirmed: usize,
    /// Confirmed races among the static candidates / static candidates.
    precision: f64,
    /// Dynamically confirmed races covered by the static set / dynamically
    /// confirmed races. Anything below 1.0 is a generator soundness hole.
    recall: f64,
    /// Dynamically confirmed races the static generator missed.
    missed: Vec<String>,
    dynamic_ms: u128,
    static_ms: u128,
}

impl Measurement {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("static_candidates", Json::usize(self.static_candidates)),
            ("dynamic_candidates", Json::usize(self.dynamic_candidates)),
            ("confirmed_races", Json::usize(self.confirmed)),
            ("precision", Json::Str(format!("{:.4}", self.precision))),
            ("recall", Json::Str(format!("{:.4}", self.recall))),
            (
                "missed_confirmed_races",
                Json::Arr(self.missed.iter().map(|m| Json::str(m)).collect()),
            ),
            ("wall_ms_dynamic", Json::u64(self.dynamic_ms as u64)),
            ("wall_ms_static", Json::u64(self.static_ms as u64)),
        ])
    }
}

fn measure(workload: &Workload, trials: usize) -> Measurement {
    let dynamic_start = Instant::now();
    let dynamic = analyze(
        &workload.program,
        workload.entry,
        &analyze_options(trials, CandidateSource::DynamicPhase1),
    )
    .expect("workload analyzes");
    let dynamic_ms = dynamic_start.elapsed().as_millis();

    let static_start = Instant::now();
    let static_run = analyze(
        &workload.program,
        workload.entry,
        &analyze_options(trials, CandidateSource::Static),
    )
    .expect("workload analyzes");
    let static_ms = static_start.elapsed().as_millis();

    let filter = StaticRaceFilter::for_entry(&workload.program, workload.entry)
        .expect("workload entry exists");
    let report = sana::candidates::generate(&workload.program, &filter);
    assert_eq!(
        report.candidates.len(),
        static_run.potential.len(),
        "analyze(Static) must fuzz exactly the generated candidates"
    );

    // Confirmed races are the *actually raced* statement pairs from Phase 2
    // (real_pairs, which may include same-statement races), pooled across
    // both runs — the ground truth both candidate sets are scored against.
    let dynamic_confirmed: BTreeSet<_> = dynamic
        .pairs
        .iter()
        .flat_map(|pair| pair.real_pairs.iter().copied())
        .collect();
    let static_confirmed: BTreeSet<_> = static_run
        .pairs
        .iter()
        .flat_map(|pair| pair.real_pairs.iter().copied())
        .collect();
    let confirmed: BTreeSet<_> = dynamic_confirmed
        .union(&static_confirmed)
        .copied()
        .collect();

    let confirmed_statics = report
        .candidates
        .iter()
        .filter(|pair| confirmed.contains(pair))
        .count();
    let precision = if report.candidates.is_empty() {
        1.0
    } else {
        confirmed_statics as f64 / report.candidates.len() as f64
    };

    let missed: Vec<String> = dynamic_confirmed
        .iter()
        .filter(|pair| !report.contains(pair))
        .map(|pair| pair.describe(&workload.program))
        .collect();
    let recall = if dynamic_confirmed.is_empty() {
        1.0
    } else {
        (dynamic_confirmed.len() - missed.len()) as f64 / dynamic_confirmed.len() as f64
    };

    Measurement {
        workload: workload.name,
        static_candidates: report.candidates.len(),
        dynamic_candidates: dynamic.potential.len(),
        confirmed: confirmed.len(),
        precision,
        recall,
        missed,
        dynamic_ms,
        static_ms,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut measurements = Vec::new();

    for workload in workloads::all() {
        if let Some(filter) = &args.filter {
            if !workload.name.contains(filter.as_str()) {
                continue;
            }
        }
        measurements.push(measure(&workload, args.trials));
    }

    let mut table = TextTable::new([
        "workload",
        "static",
        "dynamic",
        "confirmed",
        "precision",
        "recall",
        "dyn ms",
        "stat ms",
    ]);
    for m in &measurements {
        table.row([
            m.workload.to_owned(),
            m.static_candidates.to_string(),
            m.dynamic_candidates.to_string(),
            m.confirmed.to_string(),
            format!("{:.2}", m.precision),
            format!("{:.2}", m.recall),
            m.dynamic_ms.to_string(),
            m.static_ms.to_string(),
        ]);
    }
    println!("{}", table.render());

    let total_static: usize = measurements.iter().map(|m| m.static_candidates).sum();
    let total_dynamic: usize = measurements.iter().map(|m| m.dynamic_candidates).sum();
    let total_confirmed: usize = measurements.iter().map(|m| m.confirmed).sum();
    let total_missed: usize = measurements.iter().map(|m| m.missed.len()).sum();
    let full_recall = measurements.iter().all(|m| m.missed.is_empty());
    println!(
        "aggregate: {total_static} static vs {total_dynamic} dynamic candidate(s), \
         {total_confirmed} confirmed race(s), {total_missed} missed by the static generator"
    );

    let document = Json::obj(vec![
        ("benchmark", Json::str("static_gen")),
        ("trials_per_pair", Json::usize(args.trials)),
        (
            "aggregate",
            Json::obj(vec![
                ("static_candidates", Json::usize(total_static)),
                ("dynamic_candidates", Json::usize(total_dynamic)),
                ("confirmed_races", Json::usize(total_confirmed)),
                ("missed_confirmed_races", Json::usize(total_missed)),
                ("full_recall", Json::Bool(full_recall)),
            ]),
        ),
        (
            "measurements",
            Json::Arr(measurements.iter().map(Measurement::to_json).collect()),
        ),
    ]);
    std::fs::write(&args.out, document.to_text()).expect("write benchmark json");
    println!("wrote {}", args.out);

    if args.check {
        if !full_recall {
            eprintln!("FAIL: static generator missed {total_missed} dynamically confirmed race(s)");
            for m in &measurements {
                for miss in &m.missed {
                    eprintln!("  {}: {miss}", m.workload);
                }
            }
            return ExitCode::FAILURE;
        }
        println!("check passed: 100% recall of dynamically confirmed races");
    }
    ExitCode::SUCCESS
}
