//! Differential tests pinning the bytecode footprint view against the
//! legacy per-instruction access extraction `sana` used to carry.
//!
//! Before this suite, "what does this statement touch" was answered twice:
//! dynamically by `CodeImage`'s footprint table and statically by an ad-hoc
//! `Instr` match inside the filter. The static copy is gone; these tests
//! keep an inlined replica of it as the *oracle* and assert the footprint
//! view ([`cil::bytecode::CodeImage::accesses_of`]) is a superset of it —
//! every access the legacy extractor reported is present with the same
//! place and write bit — over randomly generated programs mixing every
//! access shape (globals, fields, constant/register/compound element
//! indices, fused and fallback lowerings) and over the full workload suite.

use cil::bytecode::{AbstractPlace, FootprintIdx};
use cil::flat::{GlobalId, Instr, InstrId, LocalId};
use cil::intern::Symbol;
use cil::Program;
use proptest::prelude::*;

/// The legacy extraction's notion of a place: no element-index mode — the
/// very imprecision the footprint view fixes. Kept verbatim as the oracle.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LegacyPlace {
    Global(GlobalId),
    Field(LocalId, Symbol),
    Elem(LocalId),
}

/// The access extraction `sana::filter` performed before footprints: a
/// direct match on the instruction enum.
fn legacy_access(program: &Program, pc: InstrId) -> Option<(LegacyPlace, bool)> {
    match program.instr(pc) {
        Instr::LoadGlobal { global, .. } => Some((LegacyPlace::Global(*global), false)),
        Instr::StoreGlobal { global, .. } => Some((LegacyPlace::Global(*global), true)),
        Instr::LoadField { obj, field, .. } => Some((LegacyPlace::Field(*obj, *field), false)),
        Instr::StoreField { obj, field, .. } => Some((LegacyPlace::Field(*obj, *field), true)),
        Instr::LoadElem { arr, .. } => Some((LegacyPlace::Elem(*arr), false)),
        Instr::StoreElem { arr, .. } => Some((LegacyPlace::Elem(*arr), true)),
        _ => None,
    }
}

/// Every legacy-extracted access must appear in the footprint view with
/// the same place and write bit (element indices may refine, never drop),
/// and the view must be empty exactly on non-memory instructions.
fn assert_superset(name: &str, program: &Program) {
    let image = program.bytecode();
    for index in 0..program.instr_count() {
        let pc = InstrId(index as u32);
        let accesses = image.accesses_of(pc);
        assert_eq!(
            !accesses.is_empty(),
            program.instr(pc).is_memory_access(),
            "{name}: footprint view and is_memory_access disagree at {pc:?} ({:?})",
            program.instr(pc)
        );
        let Some((legacy, is_write)) = legacy_access(program, pc) else {
            continue;
        };
        let covered = accesses.iter().any(|access| {
            access.is_write == is_write
                && match (legacy, access.place) {
                    (LegacyPlace::Global(g), AbstractPlace::Global(h)) => g == h,
                    (LegacyPlace::Field(obj, field), AbstractPlace::Field { obj: o, field: f }) => {
                        obj == o && field == f
                    }
                    (LegacyPlace::Elem(arr), AbstractPlace::Elem { arr: a, .. }) => arr == a,
                    _ => false,
                }
        });
        assert!(
            covered,
            "{name}: legacy access {legacy:?} (write={is_write}) at {pc:?} \
             missing from footprint view {accesses:?}"
        );
        // Constant element indices must survive into the view as the
        // `Const` mode — the refinement the filter's index refutation
        // relies on.
        if let (
            Instr::LoadElem { idx, .. } | Instr::StoreElem { idx, .. },
            AbstractPlace::Elem { idx: mode, .. },
        ) = (program.instr(pc), accesses[0].place)
        {
            if let cil::flat::PureExpr::Const(cil::flat::Const::Int(value)) = idx {
                assert_eq!(
                    mode,
                    FootprintIdx::Const(*value),
                    "{name}: constant index at {pc:?} lost its mode"
                );
            }
        }
    }
}

/// One generated statement, spanning every lowering shape: fused heads,
/// no-op rvalue heads, and the fallback paths for compound indices.
#[derive(Clone, Copy, Debug)]
enum Stmt {
    /// `tmp = tmp + 1` — no access.
    Pure,
    /// `tmp = g{n}`.
    ReadGlobal(u8),
    /// `g{n} = (tmp + 1) * (tmp - 1)` — fused store head.
    WriteGlobal(u8),
    /// `tmp = p.x`.
    ReadField,
    /// `p.x = tmp`.
    WriteField,
    /// `tmp = a[c]` — constant index.
    ReadConst(u8),
    /// `a[c] = tmp` — constant index.
    WriteConst(u8),
    /// `tmp = a[tmp]` — register index.
    ReadVar,
    /// `a[(tmp + 1) * 2] = 3` — compound index, falls back.
    WriteCompound,
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        Just(Stmt::Pure),
        (0..3u8).prop_map(Stmt::ReadGlobal),
        (0..3u8).prop_map(Stmt::WriteGlobal),
        Just(Stmt::ReadField),
        Just(Stmt::WriteField),
        (0..4u8).prop_map(Stmt::ReadConst),
        (0..4u8).prop_map(Stmt::WriteConst),
        Just(Stmt::ReadVar),
        Just(Stmt::WriteCompound),
    ]
}

fn render_program(threads: &[Vec<Stmt>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from("class Point { x, y }\nglobal arr;\n");
    for g in 0..3 {
        let _ = writeln!(source, "global g{g} = 0;");
    }
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        source.push_str("    var tmp = 1;\n    var p = new Point;\n    var a = arr;\n");
        for stmt in body {
            match stmt {
                Stmt::Pure => source.push_str("    tmp = tmp + 1;\n"),
                Stmt::ReadGlobal(g) => {
                    let _ = writeln!(source, "    tmp = g{g};");
                }
                Stmt::WriteGlobal(g) => {
                    let _ = writeln!(source, "    g{g} = (tmp + 1) * (tmp - 1);");
                }
                Stmt::ReadField => source.push_str("    tmp = p.x;\n"),
                Stmt::WriteField => source.push_str("    p.x = tmp;\n"),
                Stmt::ReadConst(c) => {
                    let _ = writeln!(source, "    tmp = a[{c}];");
                }
                Stmt::WriteConst(c) => {
                    let _ = writeln!(source, "    a[{c}] = tmp;");
                }
                Stmt::ReadVar => source.push_str("    tmp = a[tmp];\n"),
                Stmt::WriteCompound => source.push_str("    a[(tmp + 1) * 2] = 3;\n"),
            }
        }
        source.push_str("}\n");
    }
    source.push_str("proc main() {\n    arr = new [8];\n");
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline differential: on random programs covering every access
    /// shape, the footprint view is a superset of the legacy extraction.
    #[test]
    fn footprint_view_covers_legacy_extraction(
        threads in proptest::collection::vec(
            proptest::collection::vec(arb_stmt(), 1..8),
            1..3,
        )
    ) {
        let source = render_program(&threads);
        let program = cil::compile(&source).expect("generated source compiles");
        assert_superset("generated", &program);
    }
}

/// The same superset property over every Table-1 workload model — the
/// programs the static-prune bench and lint baselines are measured on.
#[test]
fn footprint_view_covers_legacy_extraction_on_all_workloads() {
    let mut swept = 0;
    for workload in workloads::all() {
        assert_superset(workload.name, &workload.program);
        swept += 1;
    }
    assert!(swept >= 10, "workload sweep looks truncated: {swept}");
}
