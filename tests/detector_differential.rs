//! Workload-sweep differential test: Phase 1's epoch engine and the naive
//! full-clock engine must produce byte-identical candidate-pair lists for
//! every Table-1 workload, under every policy.
//!
//! This is the acceptance gate for the epoch-optimized Phase 1: the fast
//! engine is only allowed to be *faster*, never to change what Phase 2 is
//! asked to fuzz. `predict_races` runs the epoch engine; the naive engine
//! is reached through the same generic prediction loop, `predict_with`.
//! Random-program coverage of the same property lives in
//! `crates/detector/tests/epoch_differential.rs`; this sweep pins the real
//! workloads the paper's Table 1 is built from.

use racefuzzer_suite::detector::predict_with;
use racefuzzer_suite::prelude::*;

/// Phase 1 under the naive engine, with `config` otherwise unchanged.
fn predict_naive(program: &cil::Program, entry: &str, config: &PredictConfig) -> Vec<RacePair> {
    predict_with(program, entry, config, DetectorEngine::new, |engine| {
        engine.races().collect()
    })
    .expect("naive prediction runs")
}

#[test]
fn epoch_and_naive_predictions_match_on_all_workloads() {
    for workload in workloads::all() {
        let program = cil::compile(&workload.source)
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", workload.name));
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let config = PredictConfig {
                policy,
                ..PredictConfig::default()
            };
            let epoch = predict_races(&program, workload.entry, &config)
                .unwrap_or_else(|e| panic!("{}: prediction failed: {e:?}", workload.name));
            let naive = predict_naive(&program, workload.entry, &config);
            assert_eq!(
                epoch, naive,
                "{} under {policy:?}: epoch and naive candidate sets diverge",
                workload.name
            );
            assert!(
                epoch.iter().all(RacePair::is_canonical),
                "{}: non-canonical pair in output",
                workload.name
            );
        }
    }
}

#[test]
fn epoch_and_naive_predictions_match_with_more_observation_runs() {
    // More seeds → more schedules observed → more chances for the two
    // engines to diverge if the epoch fast paths were unsound. Use the
    // paper's two figure programs with a deeper seed sweep.
    for (name, program) in [
        ("figure1", workloads::figure1()),
        ("figure2", workloads::figure2(6)),
    ] {
        let config = PredictConfig {
            seeds: (1..=24).collect(),
            ..PredictConfig::default()
        };
        assert_eq!(
            predict_races(&program, "main", &config).unwrap(),
            predict_naive(&program, "main", &config),
            "{name}: deep seed sweep diverged"
        );
    }
}
