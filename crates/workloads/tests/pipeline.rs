//! End-to-end two-phase pipeline over every Table-1 workload model,
//! asserting the qualitative *shape* of the paper's results: which
//! benchmarks have real races, which predictions are false alarms, which
//! races raise which exceptions, and that RaceFuzzer never "confirms" a
//! race that cannot happen.

use racefuzzer::{analyze, AnalyzeOptions, FuzzConfig};
use workloads::Workload;

fn quick_options(trials: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: trials,
        fuzz: FuzzConfig {
            postpone_limit: 300,
            max_steps: 300_000,
            ..FuzzConfig::default()
        },
        ..AnalyzeOptions::default()
    }
}

fn analyze_workload(workload: &Workload, trials: usize) -> racefuzzer::AnalysisReport {
    analyze(&workload.program, workload.entry, &quick_options(trials))
        .unwrap_or_else(|error| panic!("{}: {error}", workload.name))
}

#[test]
fn raytracer_all_predictions_are_real_and_benign() {
    let workload = workloads::raytracer();
    let report = analyze_workload(&workload, 20);
    assert_eq!(
        report.potential.len(),
        2,
        "checksum load/store + store/store"
    );
    assert_eq!(report.real_races().len(), 2, "both confirmed");
    assert!(report.exception_pairs().is_empty(), "benign races");
    // Paper column 11: probability 1.00.
    for pair in &report.pairs {
        assert_eq!(pair.hits, pair.trials, "hit in every trial");
    }
}

#[test]
fn montecarlo_one_real_race_among_false_alarms() {
    let workload = workloads::montecarlo();
    let report = analyze_workload(&workload, 20);
    assert_eq!(
        report.potential.len(),
        5,
        "4 handshake false alarms + 1 real"
    );
    let real = report.real_races();
    assert_eq!(real.len(), 1, "only the result store is real: {real:?}");
    let store = workload.program.tagged_access("result_store");
    assert!(real[0].contains(store));
    assert!(report.exception_pairs().is_empty());
}

#[test]
fn moldyn_barrier_races_are_real_but_benign() {
    let workload = workloads::moldyn();
    let report = analyze_workload(&workload, 12);
    let real = report.real_races();
    // The two spinning reads against the generation bump (the paper's "2
    // real races (but benign)").
    let bump = workload.program.tagged_access("bar_bump");
    let confirmed_barrier: Vec<_> = real.iter().filter(|pair| pair.contains(bump)).collect();
    assert_eq!(
        confirmed_barrier.len(),
        2,
        "spin-read/bump pairs confirmed: {real:?}"
    );
    // Cross-phase cell accesses are predicted but never confirmed: cell 1
    // is written by worker 1 (`w1`) and read by both workers (`r1`),
    // ordered by the barrier in every real execution.
    let write = *workload
        .program
        .tagged_accesses("w1")
        .last()
        .expect("w1 covers a store");
    let read = workload.program.tagged_access("r1");
    assert!(
        report
            .potential
            .iter()
            .any(|pair| pair.contains(write) && pair.contains(read)),
        "cross-phase false alarm predicted: {:?}",
        report.potential
    );
    assert!(
        !real
            .iter()
            .any(|pair| pair.contains(write) && pair.contains(read)),
        "…but never confirmed"
    );
    // Many false alarms, few real races — the paper's moldyn shape (59 vs 2).
    assert!(
        report.potential.len() >= real.len() + 6,
        "potential {} vs real {}",
        report.potential.len(),
        real.len()
    );
    assert!(report.exception_pairs().is_empty());
}

#[test]
fn sor_has_eight_predictions_and_zero_real_races() {
    let workload = workloads::sor();
    let report = analyze_workload(&workload, 12);
    assert_eq!(report.potential.len(), 8, "{:?}", report.potential);
    assert!(
        report.real_races().is_empty(),
        "all sor predictions are false alarms: {:?}",
        report.real_races()
    );
    assert!(report.exception_pairs().is_empty());
}

#[test]
fn jspider_every_prediction_is_a_false_alarm() {
    let workload = workloads::jspider();
    let report = analyze_workload(&workload, 10);
    assert_eq!(report.potential.len(), 12);
    assert!(report.real_races().is_empty());
}

#[test]
fn cache4j_sleep_race_raises_interrupted_exception() {
    let workload = workloads::cache4j();
    let report = analyze_workload(&workload, 30);
    let real = report.real_races();
    assert!(real.len() >= 2, "sleep flag + hits counter: {real:?}");
    let sleep_set = workload.program.tagged_access("sleep_set");
    let sleep_check = workload.program.tagged_access("sleep_check");
    assert!(
        real.iter()
            .any(|pair| pair.contains(sleep_set) && pair.contains(sleep_check)),
        "the paper's §5.3 cache4j race is confirmed"
    );
    assert!(
        report.exception_names().contains("InterruptedException"),
        "the race kills the cleaner: {:?}",
        report.exception_names()
    );
    assert!(
        report.potential.len() > real.len(),
        "handshake false alarms"
    );
}

#[test]
fn hedc_null_result_race_raises_npe() {
    let workload = workloads::hedc();
    let report = analyze_workload(&workload, 30);
    let real = report.real_races();
    let read = workload.program.tagged_access("result_read");
    let write = workload.program.tagged_access("result_write");
    assert!(
        real.iter()
            .any(|pair| pair.contains(read) && pair.contains(write)),
        "result publication race confirmed: {real:?}"
    );
    assert!(
        report.exception_names().contains("NullPointerException"),
        "{:?}",
        report.exception_names()
    );
    // The metadata handshake pairs are all false alarms.
    assert!(report.potential.len() >= real.len() + 8);
}

#[test]
fn weblech_stale_index_race_raises_bounds_exception() {
    let workload = workloads::weblech();
    let report = analyze_workload(&workload, 30);
    assert!(
        report
            .exception_names()
            .contains("ArrayIndexOutOfBoundsException"),
        "{:?}",
        report.exception_names()
    );
    assert!(!report.real_races().is_empty());
    assert!(report.potential.len() > report.real_races().len());
}

#[test]
fn jigsaw_counters_real_config_false() {
    let workload = workloads::jigsaw();
    let report = analyze_workload(&workload, 8);
    assert_eq!(
        report.potential.len(),
        52,
        "40 false alarms + 12 counter pairs"
    );
    assert_eq!(report.real_races().len(), 12, "{:?}", report.real_races());
    assert!(report.exception_pairs().is_empty());
}

#[test]
fn vector_races_all_real_none_harmful() {
    let workload = workloads::vector();
    let report = analyze_workload(&workload, 20);
    assert!(!report.potential.is_empty());
    assert_eq!(
        report.real_races().len(),
        report.potential.len(),
        "every Vector prediction is real: {:?}",
        report.potential
    );
    assert!(
        report.exception_pairs().is_empty(),
        "benign fast-path reads"
    );
}

#[test]
fn linked_list_contains_all_bug_reproduces() {
    let workload = workloads::linked_list();
    let report = analyze_workload(&workload, 30);
    let names = report.exception_names();
    assert!(
        names.contains("ConcurrentModificationException"),
        "{names:?}"
    );
    assert!(!report.real_races().is_empty());
}

#[test]
fn array_list_contains_all_bug_reproduces() {
    let workload = workloads::array_list();
    let report = analyze_workload(&workload, 30);
    let names = report.exception_names();
    assert!(
        names.contains("ConcurrentModificationException")
            || names.contains("NoSuchElementException"),
        "{names:?}"
    );
    assert!(!report.real_races().is_empty());
}

#[test]
fn hash_set_contains_all_bug_reproduces() {
    let workload = workloads::hash_set();
    let report = analyze_workload(&workload, 30);
    let names = report.exception_names();
    assert!(
        names.contains("ConcurrentModificationException")
            || names.contains("NoSuchElementException"),
        "{names:?}"
    );
}

#[test]
fn tree_set_contains_all_bug_reproduces() {
    let workload = workloads::tree_set();
    let report = analyze_workload(&workload, 30);
    let names = report.exception_names();
    assert!(
        names.contains("ConcurrentModificationException")
            || names.contains("NoSuchElementException"),
        "{names:?}"
    );
}

#[test]
fn no_workload_analysis_reports_a_deadlock() {
    // None of the Table-1 models contains a real deadlock; the postponing
    // scheduler must not introduce one (Algorithm 1's eviction rules).
    for workload in [
        workloads::raytracer(),
        workloads::montecarlo(),
        workloads::sor(),
        workloads::vector(),
    ] {
        let report = analyze_workload(&workload, 10);
        assert!(
            report.deadlock_pairs().is_empty(),
            "{}: {:?}",
            workload.name,
            report.deadlock_pairs()
        );
    }
}
