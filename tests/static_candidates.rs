//! End-to-end tests for static candidate generation as a Phase-1 source.
//!
//! The headline regression: dynamic Phase 1 only predicts races between
//! accesses it *observes*, so a racy access hiding behind a rarely-true
//! branch is invisible to profiling runs that never take the branch. The
//! static generator enumerates it anyway, and Phase 2 confirms it — a real
//! race the dynamic pipeline misses end to end.

use racefuzzer_suite::prelude::*;
use std::collections::BTreeSet;

/// `main`'s write to `data` happens only if it observes `flag == 1`, i.e.
/// only if the child has already run that far. The profiling runs (one
/// round-robin run, no random seeds) always read `flag` before the child
/// sets it, so dynamic Phase 1 never sees the `@md` access at all.
const HIDDEN_RACE: &str = r#"
    global flag = 0;
    global data = 0;
    proc child() {
        @cw flag = 1;
        @cd data = 3;
    }
    proc main() {
        var t = spawn child();
        if (flag == 1) {
            @md data = data + 1;
        }
        join t;
    }
"#;

/// The `@md` tag covers both the read and the write of `data = data + 1`;
/// the regression pair targets the write.
fn main_data_write(program: &cil::Program) -> cil::flat::InstrId {
    program
        .tagged_accesses("md")
        .into_iter()
        .find(|&id| program.instr(id).is_memory_write())
        .expect("@md covers a write")
}

/// A minimal profiling budget: the fair round-robin run only, no extra
/// randomly scheduled observation runs.
fn narrow_predict() -> PredictConfig {
    PredictConfig {
        seeds: vec![],
        ..PredictConfig::default()
    }
}

fn options(source: CandidateSource) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: 30,
        predict: narrow_predict(),
        source,
        ..AnalyzeOptions::default()
    }
}

#[test]
fn static_source_confirms_a_race_dynamic_phase1_misses() {
    let program = cil::compile(HIDDEN_RACE).unwrap();
    let hidden = RacePair::new(program.tagged_access("cd"), main_data_write(&program));

    // Dynamic Phase 1 never observes the guarded access, so the pair is
    // not even a candidate — the race is structurally invisible to it.
    let dynamic =
        racefuzzer::analyze(&program, "main", &options(CandidateSource::DynamicPhase1)).unwrap();
    assert!(
        !dynamic.potential.contains(&hidden),
        "profiling was expected to miss the guarded pair {hidden:?}; \
         got candidates {:?}",
        dynamic.potential
    );
    assert!(dynamic
        .provenance
        .iter()
        .all(|&p| p == racefuzzer::Provenance::Dynamic));

    // The static generator enumerates it, and Phase 2 confirms it real.
    let static_run =
        racefuzzer::analyze(&program, "main", &options(CandidateSource::Static)).unwrap();
    assert!(
        static_run.potential.contains(&hidden),
        "static candidates {:?} miss {hidden:?}",
        static_run.potential
    );
    assert!(static_run
        .provenance
        .iter()
        .all(|&p| p == racefuzzer::Provenance::Static));
    let confirmed: BTreeSet<_> = static_run.real_races().into_iter().collect();
    assert!(
        confirmed.contains(&hidden),
        "Phase 2 did not confirm the statically generated pair; confirmed {confirmed:?}"
    );
}

#[test]
fn union_source_keeps_dynamic_order_and_appends_static_only_pairs() {
    let program = cil::compile(HIDDEN_RACE).unwrap();
    let hidden = RacePair::new(program.tagged_access("cd"), main_data_write(&program));

    let dynamic =
        racefuzzer::analyze(&program, "main", &options(CandidateSource::DynamicPhase1)).unwrap();
    let union = racefuzzer::analyze(&program, "main", &options(CandidateSource::Union)).unwrap();

    // The dynamic prefix survives verbatim (checkpoint compatibility), and
    // every dynamic pair's provenance records whether the static generator
    // agrees.
    assert_eq!(
        &union.potential[..dynamic.potential.len()],
        &dynamic.potential[..]
    );
    for (pair, provenance) in union.potential.iter().zip(&union.provenance) {
        match provenance {
            racefuzzer::Provenance::Static => assert!(
                !dynamic.potential.contains(pair),
                "{pair:?} marked static-only but dynamically predicted"
            ),
            racefuzzer::Provenance::Dynamic | racefuzzer::Provenance::Both => assert!(
                dynamic.potential.contains(pair),
                "{pair:?} marked dynamic but not dynamically predicted"
            ),
        }
    }
    let position = union
        .potential
        .iter()
        .position(|pair| *pair == hidden)
        .expect("union includes the static-only pair");
    assert!(position >= dynamic.potential.len());
    assert_eq!(union.provenance[position], racefuzzer::Provenance::Static);
    assert!(union.real_races().contains(&hidden));
}

#[test]
fn gather_candidates_rejects_bad_entries() {
    let program = cil::compile("proc main() { var x = 0; }").unwrap();
    for source in [CandidateSource::Static, CandidateSource::Union] {
        assert!(
            racefuzzer::gather_candidates(&program, "nope", &narrow_predict(), source).is_err()
        );
    }
}
