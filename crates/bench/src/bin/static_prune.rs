//! Measures the `sana` static race filter over the workload suite.
//!
//! For every workload × Phase-1 policy (hybrid, as in the paper, and the
//! noisier Eraser-style lockset baseline) this harness reports:
//!
//! - Phase-1 candidate pair counts, and how many the static filter prunes
//!   per refutation reason (MHP-impossible / common-lock / thread-confined /
//!   footprint-no-alias);
//! - Phase-1→Phase-2 wall-clock with and without the filter;
//! - a **regression check**: the races Phase 2 confirms must be identical
//!   with and without pruning (a sound filter never removes a real race).
//!
//! Results are written as `BENCH_static_prune.json`. With `--check` the
//! process exits non-zero unless the filter prunes at least 20% of the
//! lockset-policy candidates in aggregate with zero confirmed-race
//! regressions — the bar CI holds this optimization to.
//!
//! Usage: `static_prune [--trials N] [--filter NAME] [--out PATH] [--check]`

use campaign::json::Json;
use detector::{Policy, PredictConfig};
use racefuzzer::{analyze, AnalyzeOptions, FuzzConfig};
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
        trials: 10,
        filter: None,
        out: "BENCH_static_prune.json".to_owned(),
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

fn analyze_options(trials: usize, policy: Policy, static_prune: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: trials,
        predict: PredictConfig {
            policy,
            ..PredictConfig::default()
        },
        fuzz: FuzzConfig {
            postpone_limit: 300,
            max_steps: 400_000,
            ..FuzzConfig::default()
        },
        static_prune,
        ..AnalyzeOptions::default()
    }
}

struct Measurement {
    workload: &'static str,
    policy: &'static str,
    candidates: usize,
    pruned_mhp: usize,
    pruned_common_lock: usize,
    pruned_confined: usize,
    pruned_footprint: usize,
    kept: usize,
    baseline_ms: u128,
    filtered_ms: u128,
    regressions: Vec<String>,
}

impl Measurement {
    fn pruned(&self) -> usize {
        self.pruned_mhp + self.pruned_common_lock + self.pruned_confined + self.pruned_footprint
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("policy", Json::str(self.policy)),
            ("phase1_candidates", Json::usize(self.candidates)),
            ("pruned_mhp_impossible", Json::usize(self.pruned_mhp)),
            ("pruned_common_lock", Json::usize(self.pruned_common_lock)),
            ("pruned_thread_confined", Json::usize(self.pruned_confined)),
            (
                "pruned_footprint_no_alias",
                Json::usize(self.pruned_footprint),
            ),
            ("phase2_pairs", Json::usize(self.kept)),
            ("wall_ms_without_filter", Json::u64(self.baseline_ms as u64)),
            ("wall_ms_with_filter", Json::u64(self.filtered_ms as u64)),
            (
                "confirmed_race_regressions",
                Json::Arr(self.regressions.iter().map(|r| Json::str(r)).collect()),
            ),
        ])
    }
}

fn measure(workload: &Workload, policy: Policy, trials: usize) -> Measurement {
    let policy_name = match policy {
        Policy::Hybrid => "hybrid",
        Policy::Lockset => "lockset",
        Policy::HappensBefore => "happens-before",
    };

    let baseline_start = Instant::now();
    let baseline = analyze(
        &workload.program,
        workload.entry,
        &analyze_options(trials, policy, false),
    )
    .expect("workload analyzes");
    let baseline_ms = baseline_start.elapsed().as_millis();

    let filtered_start = Instant::now();
    let filtered = analyze(
        &workload.program,
        workload.entry,
        &analyze_options(trials, policy, true),
    )
    .expect("workload analyzes");
    let filtered_ms = filtered_start.elapsed().as_millis();

    // Per-reason pruning statistics, recomputed via the filter's own
    // partition so the JSON reflects the same refutations `analyze` used.
    let filter = StaticRaceFilter::for_entry(&workload.program, workload.entry)
        .expect("workload entry exists");
    let (_, _, stats) = filter.partition(&workload.program, &baseline.potential);
    assert_eq!(
        stats.pruned(),
        filtered.pruned.len(),
        "partition and analyze must agree on what is pruned"
    );

    // A race confirmed without the filter but missing with it would be a
    // soundness regression.
    let baseline_real: BTreeSet<_> = baseline.real_races().into_iter().collect();
    let filtered_real: BTreeSet<_> = filtered.real_races().into_iter().collect();
    let regressions = baseline_real
        .difference(&filtered_real)
        .map(|pair| pair.describe(&workload.program))
        .collect();

    Measurement {
        workload: workload.name,
        policy: policy_name,
        candidates: stats.candidates,
        pruned_mhp: stats.pruned_mhp,
        pruned_common_lock: stats.pruned_common_lock,
        pruned_confined: stats.pruned_confined,
        pruned_footprint: stats.pruned_footprint,
        kept: stats.kept,
        baseline_ms,
        filtered_ms,
        regressions,
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
        for policy in [Policy::Hybrid, Policy::Lockset] {
            measurements.push(measure(&workload, policy, args.trials));
        }
    }

    let mut table = TextTable::new([
        "workload", "policy", "phase1", "mhp", "lock", "confined", "fprint", "phase2", "base ms",
        "filt ms",
    ]);
    for m in &measurements {
        table.row([
            m.workload.to_owned(),
            m.policy.to_owned(),
            m.candidates.to_string(),
            m.pruned_mhp.to_string(),
            m.pruned_common_lock.to_string(),
            m.pruned_confined.to_string(),
            m.pruned_footprint.to_string(),
            m.kept.to_string(),
            m.baseline_ms.to_string(),
            m.filtered_ms.to_string(),
        ]);
    }
    println!("{}", table.render());

    let aggregate = |policy: &str| -> (usize, usize) {
        measurements
            .iter()
            .filter(|m| m.policy == policy)
            .fold((0, 0), |(candidates, pruned), m| {
                (candidates + m.candidates, pruned + m.pruned())
            })
    };
    let (lockset_candidates, lockset_pruned) = aggregate("lockset");
    let (hybrid_candidates, hybrid_pruned) = aggregate("hybrid");
    let lockset_fraction = if lockset_candidates == 0 {
        0.0
    } else {
        lockset_pruned as f64 / lockset_candidates as f64
    };
    let total_regressions: usize = measurements.iter().map(|m| m.regressions.len()).sum();
    println!(
        "aggregate: lockset {lockset_pruned}/{lockset_candidates} pruned \
         ({:.1}%), hybrid {hybrid_pruned}/{hybrid_candidates} pruned, \
         {total_regressions} confirmed-race regression(s)",
        lockset_fraction * 100.0
    );

    let document = Json::obj(vec![
        ("benchmark", Json::str("static_prune")),
        ("trials_per_pair", Json::usize(args.trials)),
        (
            "aggregate",
            Json::obj(vec![
                ("lockset_candidates", Json::usize(lockset_candidates)),
                ("lockset_pruned", Json::usize(lockset_pruned)),
                (
                    "lockset_pruned_fraction",
                    Json::Str(format!("{lockset_fraction:.4}")),
                ),
                ("hybrid_candidates", Json::usize(hybrid_candidates)),
                ("hybrid_pruned", Json::usize(hybrid_pruned)),
                ("confirmed_race_regressions", Json::usize(total_regressions)),
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
        if total_regressions > 0 {
            eprintln!("FAIL: static filter pruned {total_regressions} confirmed race(s)");
            return ExitCode::FAILURE;
        }
        if args.filter.is_none() && lockset_fraction < 0.20 {
            eprintln!(
                "FAIL: lockset-policy pruning {:.1}% is below the 20% bar",
                lockset_fraction * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("check passed");
    }
    ExitCode::SUCCESS
}
