//! The `.cil` example corpus must compile, format-round-trip, and behave
//! as each file's header comment documents.

use racefuzzer_suite::prelude::*;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cil")
}

fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("examples/cil exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? == "cil" {
                let name = path.file_name()?.to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).ok()?;
                Some((name, text))
            } else {
                None
            }
        })
        .collect();
    files.sort();
    assert!(files.len() >= 4, "corpus present: {files:?}");
    files
}

#[test]
fn every_corpus_file_compiles() {
    for (name, text) in corpus() {
        let program = cil::compile(&text).unwrap_or_else(|error| panic!("{name}: {error}"));
        assert!(program.proc_named("main").is_some(), "{name} has a main");
    }
}

#[test]
fn every_corpus_file_format_round_trips() {
    for (name, text) in corpus() {
        let module = cil::parse(&text).unwrap_or_else(|error| panic!("{name}: {error}"));
        let formatted = cil::unparse::unparse_module(&module);
        let reparsed = cil::parse(&formatted)
            .unwrap_or_else(|error| panic!("{name} formatted output: {error}\n{formatted}"));
        assert_eq!(
            formatted,
            cil::unparse::unparse_module(&reparsed),
            "{name}: fmt is a fixpoint"
        );
    }
}

#[test]
fn figure1_corpus_file_behaves_like_the_workload() {
    let text = std::fs::read_to_string(corpus_dir().join("figure1.cil")).unwrap();
    let program = cil::compile(&text).unwrap();
    let races = predict_races(&program, "main", &PredictConfig::with_runs(20)).unwrap();
    assert_eq!(races.len(), 2, "z pair + x false alarm");
}

#[test]
fn split_region_corpus_file_is_race_free() {
    let text = std::fs::read_to_string(corpus_dir().join("split_region.cil")).unwrap();
    let program = cil::compile(&text).unwrap();
    let races = predict_races(&program, "main", &PredictConfig::with_runs(10)).unwrap();
    assert!(races.is_empty(), "{races:?}");
}

#[test]
fn dining_philosophers_corpus_file_deadlocks_under_direction() {
    let text = std::fs::read_to_string(corpus_dir().join("dining_philosophers.cil")).unwrap();
    let program = cil::compile(&text).unwrap();
    let report = hunt_deadlocks(
        &program,
        "main",
        &DeadlockOptions {
            trials: 20,
            ..DeadlockOptions::default()
        },
    )
    .unwrap();
    assert!(!report.real_deadlocks().is_empty());
}

/// Checks the two spin-window files' documented behaviour: Phase 1
/// predicts the tagged cross-handshake pairs (a tag names its statement's
/// last access: `config.size` reads `config` first), no trial of them
/// confirms a race, and every trial of every predicted pair ends with all
/// threads done and `printed` on stdout.
fn assert_spin_corpus_file(name: &str, false_alarms: &[(&str, &str)], printed: &str) {
    let text = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
    let program = cil::compile(&text).unwrap();
    let predicted = predict_races(&program, "main", &PredictConfig::default()).unwrap();
    let access = |tag: &str| {
        *program
            .tagged_accesses(tag)
            .last()
            .expect("tag names an access")
    };
    let alarms: Vec<RacePair> = false_alarms
        .iter()
        .map(|&(a, b)| RacePair::new(access(a), access(b)))
        .collect();
    for alarm in &alarms {
        assert!(predicted.contains(alarm), "{name}: {alarm:?} predicted");
    }
    for pair in &predicted {
        for seed in 1..=4 {
            let outcome =
                fuzz_pair_once(&program, "main", *pair, &FuzzConfig::seeded(seed)).unwrap();
            assert_eq!(
                outcome.termination,
                Termination::AllExited,
                "{name}: {pair:?}"
            );
            assert_eq!(outcome.output, [printed], "{name}: {pair:?}");
            if alarms.contains(pair) {
                assert!(
                    outcome.races.is_empty(),
                    "{name}: false alarm {pair:?} confirmed"
                );
            }
        }
    }
}

#[test]
fn spin_poll_corpus_file_confirms_none_of_its_handshake_pairs() {
    assert_spin_corpus_file(
        "spin_poll.cil",
        &[("read_size", "write_size"), ("read_rate", "write_rate")],
        "43",
    );
}

#[test]
fn spin_barrier_corpus_file_confirms_none_of_its_cross_phase_pairs() {
    assert_spin_corpus_file("spin_barrier.cil", &[("read_peer", "write_own")], "3");
}
