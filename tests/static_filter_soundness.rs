//! Property-based soundness tests for the `sana` static race filter.
//!
//! The filter's contract is one-sided: it may keep a pair that can never
//! race (incompleteness is fine), but it must never prune a pair that
//! Phase 2 can confirm. These tests drive that contract from two angles:
//!
//! * randomly generated fork/join programs where the main thread also
//!   touches shared globals before the spawns and after the joins —
//!   exactly the shape that makes the Eraser-style lockset policy predict
//!   MHP-impossible false alarms for the filter to prune;
//! * the full Table-1 workload suite, where every race a short fuzzing
//!   run confirms must survive `StaticRaceFilter::refute`.

use proptest::prelude::*;
use racefuzzer_suite::prelude::*;
use std::collections::BTreeSet;

/// One statement in a generated worker body.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    LockedRead(u8),
    LockedWrite(u8),
}

fn arb_op(globals: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..globals).prop_map(Op::Read),
        (0..globals).prop_map(Op::Write),
        (0..globals).prop_map(Op::LockedRead),
        (0..globals).prop_map(Op::LockedWrite),
    ]
}

/// Like `tests/random_programs.rs`, but main itself reads and writes every
/// global before spawning and after joining the workers. Those accesses are
/// unlocked, so the lockset policy predicts them against the worker
/// accesses — yet fork/join order makes them statically impossible, giving
/// the filter genuine pruning work on most generated programs.
fn arb_program(globals: u8) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(arb_op(globals), 1..6), 1..4)
        .prop_map(move |threads| render_program(globals, &threads))
}

fn render_program(globals: u8, threads: &[Vec<Op>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from("class Lock { }\nglobal lk;\n");
    for g in 0..globals {
        let _ = writeln!(source, "global g{g} = 0;");
    }
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        let _ = writeln!(source, "    var tmp = 0;");
        for op in body {
            match op {
                Op::Read(g) => {
                    let _ = writeln!(source, "    tmp = g{g};");
                }
                Op::Write(g) => {
                    let _ = writeln!(source, "    g{g} = tmp + 1;");
                }
                Op::LockedRead(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ tmp = g{g}; }}");
                }
                Op::LockedWrite(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ g{g} = tmp + 1; }}");
                }
            }
        }
        let _ = writeln!(source, "}}");
    }
    source.push_str("proc main() {\n    lk = new Lock;\n    var tmp = 0;\n");
    for g in 0..globals {
        let _ = writeln!(source, "    g{g} = 7;");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    for g in 0..globals {
        let _ = writeln!(source, "    tmp = g{g};");
    }
    source.push_str("}\n");
    source
}

/// Lockset Phase 1 (the noisiest predictor — most pruning opportunities)
/// plus a fuzzing budget big enough to confirm the races that are real.
fn options(static_prune: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        trials_per_pair: 5,
        predict: PredictConfig {
            policy: Policy::Lockset,
            ..PredictConfig::with_runs(3)
        },
        fuzz: FuzzConfig {
            postpone_limit: 100,
            max_steps: 50_000,
            ..FuzzConfig::default()
        },
        static_prune,
        ..AnalyzeOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: turning the filter on never changes which
    /// races Phase 2 confirms, and nothing the filter prunes was confirmed
    /// by the unfiltered run.
    #[test]
    fn pruning_never_loses_a_confirmed_race(source in arb_program(2)) {
        let program = cil::compile(&source).expect("generated source compiles");
        let baseline = analyze(&program, "main", &options(false)).expect("analysis runs");
        let filtered = analyze(&program, "main", &options(true)).expect("analysis runs");

        let baseline_real: BTreeSet<_> = baseline.real_races().into_iter().collect();
        let filtered_real: BTreeSet<_> = filtered.real_races().into_iter().collect();
        prop_assert_eq!(
            &baseline_real,
            &filtered_real,
            "filter changed confirmed races\n{}",
            source
        );
        for (pair, reason) in &filtered.pruned {
            prop_assert!(
                !baseline_real.contains(pair),
                "pruned pair {:?} ({reason}) was confirmed by the baseline\n{}",
                pair,
                source
            );
        }
        // Reports stay parallel to `potential`: pruned pairs keep a slot.
        prop_assert_eq!(filtered.pairs.len(), filtered.potential.len());
    }

    /// `refute` agrees with itself across entry points to the API: every
    /// pair `analyze` pruned is refuted by a directly-built filter, and
    /// every confirmed race is not.
    #[test]
    fn refute_is_consistent_with_analyze(source in arb_program(2)) {
        let program = cil::compile(&source).expect("generated source compiles");
        let report = analyze(&program, "main", &options(true)).expect("analysis runs");
        let filter = StaticRaceFilter::for_entry(&program, "main").expect("main exists");
        for (pair, reason) in &report.pruned {
            prop_assert_eq!(filter.refute(&program, pair), Some(*reason));
        }
        for pair in report.real_races() {
            let verdict = filter.refute(&program, &pair);
            prop_assert!(
                verdict.is_none(),
                "confirmed race {:?} statically refuted as {:?}\n{}",
                pair,
                verdict,
                source
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The static candidate generator is a sound over-approximation under
    /// every candidate source: whatever Phase 2 actually races (the
    /// `real_pairs`, which may include same-statement pairs) is in the
    /// generated set, no matter which source proposed the fuzzed pairs.
    #[test]
    fn confirmed_races_are_always_statically_generated(source in arb_program(2)) {
        let program = cil::compile(&source).expect("generated source compiles");
        let filter = StaticRaceFilter::for_entry(&program, "main").expect("main exists");
        let generated = sana::candidates::generate(&program, &filter);
        for candidate_source in [
            CandidateSource::DynamicPhase1,
            CandidateSource::Static,
            CandidateSource::Union,
        ] {
            let report = analyze(
                &program,
                "main",
                &AnalyzeOptions {
                    source: candidate_source,
                    ..options(false)
                },
            )
            .expect("analysis runs");
            prop_assert_eq!(report.provenance.len(), report.potential.len());
            for pair_report in &report.pairs {
                for raced in &pair_report.real_pairs {
                    prop_assert!(
                        generated.contains(raced),
                        "{:?}: raced pair {:?} missing from the static candidate set\n{}",
                        candidate_source,
                        raced,
                        source
                    );
                }
            }
        }
    }
}

/// One statement in a generated array-worker body: element accesses with
/// constant or register indices on a shared array. Distinct constant
/// indices are exactly what the `FootprintNoAlias` refutation separates,
/// so these programs give it genuine pruning work while the dynamic
/// detector (element-index-precise) confirms the same-cell races.
#[derive(Clone, Copy, Debug)]
enum ElemOp {
    ReadConst(u8),
    WriteConst(u8),
    ReadVar(u8),
    WriteVar(u8),
}

fn arb_elem_op(cells: u8) -> impl Strategy<Value = ElemOp> {
    prop_oneof![
        (0..cells).prop_map(ElemOp::ReadConst),
        (0..cells).prop_map(ElemOp::WriteConst),
        (0..cells).prop_map(ElemOp::ReadVar),
        (0..cells).prop_map(ElemOp::WriteVar),
    ]
}

fn arb_elem_program(cells: u8) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(arb_elem_op(cells), 1..6), 1..4)
        .prop_map(move |threads| render_elem_program(cells, &threads))
}

fn render_elem_program(cells: u8, threads: &[Vec<ElemOp>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from("global arr;\n");
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        source.push_str("    var tmp = 0;\n    var a = arr;\n    var i = 0;\n");
        for op in body {
            match op {
                ElemOp::ReadConst(c) => {
                    let _ = writeln!(source, "    tmp = a[{c}];");
                }
                ElemOp::WriteConst(c) => {
                    let _ = writeln!(source, "    a[{c}] = tmp + 1;");
                }
                ElemOp::ReadVar(c) => {
                    let _ = writeln!(source, "    i = {c};\n    tmp = a[i];");
                }
                ElemOp::WriteVar(c) => {
                    let _ = writeln!(source, "    i = {c};\n    a[i] = tmp + 1;");
                }
            }
        }
        source.push_str("}\n");
    }
    let _ = writeln!(source, "proc main() {{\n    arr = new [{cells}];");
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("}\n");
    source
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The soundness contract under the `FootprintNoAlias` refutation:
    /// on array programs where the only separation between cells is the
    /// element index, enabling the filter never changes which races
    /// Phase 2 confirms, nothing pruned was confirmed, and every
    /// footprint-refuted pair really is two distinct constant indices.
    #[test]
    fn footprint_pruning_never_loses_a_confirmed_race(source in arb_elem_program(3)) {
        let program = cil::compile(&source).expect("generated source compiles");
        let baseline = analyze(&program, "main", &options(false)).expect("analysis runs");
        let filtered = analyze(&program, "main", &options(true)).expect("analysis runs");

        let baseline_real: BTreeSet<_> = baseline.real_races().into_iter().collect();
        let filtered_real: BTreeSet<_> = filtered.real_races().into_iter().collect();
        prop_assert_eq!(
            &baseline_real,
            &filtered_real,
            "filter changed confirmed races\n{}",
            source
        );
        for (pair, reason) in &filtered.pruned {
            prop_assert!(
                !baseline_real.contains(pair),
                "pruned pair {:?} ({reason}) was confirmed by the baseline\n{}",
                pair,
                source
            );
            if *reason == PruneReason::FootprintNoAlias {
                let image = program.bytecode();
                let [a, b] = pair.instrs();
                let idx_of = |pc| match image.accesses_of(pc).first().map(|access| access.place) {
                    Some(cil::bytecode::AbstractPlace::Elem { idx, .. }) => Some(idx),
                    _ => None,
                };
                if let (
                    Some(cil::bytecode::FootprintIdx::Const(ia)),
                    Some(cil::bytecode::FootprintIdx::Const(ib)),
                ) = (idx_of(a), idx_of(b))
                {
                    prop_assert!(
                        ia != ib,
                        "footprint refutation on equal constant indices\n{}",
                        source
                    );
                }
            }
        }
    }
}

/// The same soundness bar on the real benchmark models: no race a short
/// fuzzing campaign confirms on any Table-1 workload is statically refuted.
#[test]
fn no_workload_race_is_statically_refuted() {
    for workload in workloads::all() {
        let report = analyze(
            &workload.program,
            workload.entry,
            &AnalyzeOptions {
                trials_per_pair: 3,
                predict: PredictConfig {
                    policy: Policy::Lockset,
                    ..PredictConfig::default()
                },
                fuzz: FuzzConfig {
                    postpone_limit: 200,
                    max_steps: 200_000,
                    ..FuzzConfig::default()
                },
                ..AnalyzeOptions::default()
            },
        )
        .unwrap_or_else(|error| panic!("{}: {error}", workload.name));
        let filter = StaticRaceFilter::for_entry(&workload.program, workload.entry)
            .unwrap_or_else(|| panic!("{}: entry missing", workload.name));
        for pair in report.real_races() {
            assert_eq!(
                filter.refute(&workload.program, &pair),
                None,
                "{}: confirmed race {} statically refuted",
                workload.name,
                pair.describe(&workload.program)
            );
        }
        // And the generator covers them: every pair that actually raced is
        // in the static candidate set (100% recall, the static_gen bar).
        let generated = sana::candidates::generate(&workload.program, &filter);
        for pair_report in &report.pairs {
            for raced in &pair_report.real_pairs {
                assert!(
                    generated.contains(raced),
                    "{}: raced pair {} missing from the static candidate set",
                    workload.name,
                    raced.describe(&workload.program)
                );
            }
        }
    }
}
