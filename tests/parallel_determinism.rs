//! Parallel Phase 2 must be invisible in the results.
//!
//! The work-stealing trial pool (`racefuzzer::parallel`) promises that an
//! [`racefuzzer::AnalysisReport`] is a pure function of `(program, entry,
//! options)` — the worker count and the steal order a particular run
//! happens to see must not leak into any reported number. These tests pin
//! that promise across every Table-1 workload and several worker counts,
//! including one (7) that does not divide any trial count evenly, against
//! a baseline folded trial by trial outside the pool.

use racefuzzer::{
    analyze, fuzz_pair_once, gather_candidates, AnalysisReport, AnalyzeOptions, FuzzConfig,
    PairReport,
};

/// Trials per pair: small enough to keep the full 14-workload sweep fast,
/// large enough that every workload hits races, exceptions, and first-seed
/// bookkeeping on at least some pairs.
const TRIALS: usize = 8;

fn options(workers: usize) -> AnalyzeOptions {
    AnalyzeOptions::with_trials(TRIALS).workers(workers)
}

/// The report `analyze` must produce, built without the trial pool: one
/// `fuzz_pair_once` per (pair, seed), folded with `PairReport::absorb` in
/// seed order.
fn per_trial_fold(program: &cil::Program, entry: &str, options: &AnalyzeOptions) -> AnalysisReport {
    let (potential, provenance) =
        gather_candidates(program, entry, &options.predict, options.source)
            .expect("prediction succeeds");
    let pairs = potential
        .iter()
        .map(|&target| {
            let mut report = PairReport::empty(target);
            for trial in 0..options.trials_per_pair {
                let seed = options.base_seed + trial as u64;
                let config = FuzzConfig {
                    seed,
                    ..options.fuzz.clone()
                };
                let outcome = fuzz_pair_once(program, entry, target, &config).expect("trial runs");
                report.absorb(seed, &outcome, program);
            }
            report
        })
        .collect();
    AnalysisReport {
        potential,
        provenance,
        pairs,
        pruned: Vec::new(),
    }
}

fn render(report: &AnalysisReport) -> String {
    format!("{report:#?}")
}

#[test]
fn worker_count_does_not_change_any_report() {
    let mut failures = Vec::new();
    for workload in workloads::all() {
        let baseline = per_trial_fold(&workload.program, workload.entry, &options(1));
        let expected = render(&baseline);
        for workers in [1, 2, 4, 7] {
            let parallel = analyze(&workload.program, workload.entry, &options(workers))
                .expect("parallel analysis succeeds");
            if render(&parallel) != expected {
                failures.push(format!("{} with {workers} workers", workload.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "pooled reports diverged from the per-trial fold: {failures:?}"
    );
}

#[test]
fn pruning_keeps_slots_aligned_under_parallelism() {
    // The static filter empties some slots; the parallel dispatcher must
    // put each fuzzed report back into the slot of its own pair.
    let program = workloads::figure1();
    let sequential =
        analyze(&program, "main", &options(1)).expect("sequential analysis succeeds");
    let parallel = analyze(&program, "main", &options(4)).expect("parallel analysis succeeds");
    assert_eq!(sequential.potential, parallel.potential);
    for (seq, par) in sequential.pairs.iter().zip(&parallel.pairs) {
        assert_eq!(seq.target, par.target);
        assert_eq!(seq.trials, par.trials);
        assert_eq!(seq.hits, par.hits);
        assert_eq!(seq.first_hit_seed, par.first_hit_seed);
    }
}
