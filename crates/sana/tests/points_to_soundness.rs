//! Soundness property test: the static points-to analysis covers every
//! aliasing fact any concrete execution exhibits.
//!
//! Random heap-rich programs (allocation sites, field stores/loads,
//! publication through a global, heap-held locks) are run under a random
//! scheduler with a recording observer. The interpreter's `Allocated`
//! events map every runtime object back to its allocation site, and then:
//!
//! 1. **Base coverage** — for every runtime field/element access, the
//!    static points-to set of the instruction's base local contains the
//!    accessed object's allocation site (or is ⊤);
//! 2. **Lock coverage** — for every runtime lock acquisition, the `Lock`
//!    instruction's operand points-to set contains the lock object's
//!    allocation site (or is ⊤) — the fact the `CommonLock` refutation
//!    stands on;
//! 3. **May-alias coverage** — any two instructions that touch the *same*
//!    dynamic location in the trace are may-aliases statically — the fact
//!    the candidate generator stands on.
//!
//! Any violation is a hole through which `CandidateSource::Static` could
//! miss a real race, so these properties gate the generator's soundness.

use cil::flat::{Instr, InstrId, LocalId};
use interp::{run_with, Event, Limits, Loc, ObjId, RandomScheduler, RecordingObserver};
use proptest::prelude::*;
use sana::cfg::Cfg;
use sana::StaticRaceFilter;
use std::collections::BTreeMap;

/// Renders a heap-rich program: `boxes` Node allocations in `main`, one
/// published through the `shared` global, each worker handed one of them
/// as a parameter. Worker ops mix direct accesses through the parameter,
/// indirect accesses through the published global, a heap-held lock, and
/// fresh allocation into a field.
fn render_program(threads: &[Vec<u8>], boxes: usize, publish: usize) -> String {
    use std::fmt::Write as _;
    let mut source =
        String::from("class Node { value, next }\nclass Lock { }\nglobal shared;\nglobal lk;\n");
    for (t, ops) in threads.iter().enumerate() {
        let _ = writeln!(
            source,
            "proc worker{t}(p) {{\n    var tmp = 0;\n    var q = 0;"
        );
        for &mode in ops {
            match mode % 6 {
                0 => source.push_str("    tmp = p.value;\n"),
                1 => source.push_str("    p.value = tmp + 1;\n"),
                2 => source.push_str("    q = shared; tmp = q.value;\n"),
                3 => source.push_str("    q = shared; q.value = 2;\n"),
                4 => source.push_str("    sync (lk) { p.value = 3; }\n"),
                _ => source.push_str("    p.next = new Node;\n"),
            }
        }
        source.push_str("}\n");
    }
    source.push_str("proc main() {\n    lk = new Lock;\n");
    for b in 0..boxes {
        let _ = writeln!(source, "    var b{b} = new Node;");
    }
    let _ = writeln!(source, "    shared = b{};", publish % boxes);
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}(b{});", t % boxes);
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("}\n");
    source
}

/// The base local a memory-access or lock instruction dereferences, if any.
fn base_local(instr: &Instr) -> Option<LocalId> {
    match instr {
        Instr::LoadField { obj, .. } | Instr::StoreField { obj, .. } => Some(*obj),
        Instr::LoadElem { arr, .. } | Instr::StoreElem { arr, .. } => Some(*arr),
        Instr::Lock { obj, .. } => Some(*obj),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_trace_aliasing_fact_is_statically_covered(
        threads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6),
            1..3,
        ),
        boxes in 1usize..4,
        publish in any::<u8>(),
        seed in 0u64..200,
    ) {
        let source = render_program(&threads, boxes, publish as usize % boxes);
        let program = cil::compile(&source).expect("generated source compiles");
        let filter = StaticRaceFilter::for_entry(&program, "main").expect("main exists");
        let cfg = Cfg::build(&program);
        let pts = filter.points_to();

        let mut observer = RecordingObserver::default();
        run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut observer,
            Limits::default(),
        )
        .expect("run succeeds");

        // Allocation-site map from the interpreter's Allocated events.
        let mut sites: BTreeMap<ObjId, InstrId> = BTreeMap::new();
        let mut accesses_by_loc: BTreeMap<Loc, Vec<InstrId>> = BTreeMap::new();
        for event in &observer.events {
            match event {
                Event::Allocated { obj, site, .. } => {
                    sites.insert(*obj, *site);
                }
                Event::Mem { instr, loc, .. } => {
                    // (1) Base coverage: the object actually dereferenced
                    // was allocated at a site the static points-to set of
                    // the base local accounts for.
                    if let Loc::Field(obj, _) | Loc::Elem(obj, _) = loc {
                        let base = base_local(program.instr(*instr))
                            .expect("field/elem access has a base local");
                        let set = pts.local(cfg.owner(*instr), base);
                        let site = sites[obj];
                        prop_assert!(
                            set.unknown || set.sites.contains(&site),
                            "access {:?} touched object from site {:?} not in {:?}\n{}",
                            instr, site, set, source
                        );
                    }
                    accesses_by_loc.entry(*loc).or_default().push(*instr);
                }
                Event::Acquire { obj, instr, .. } => {
                    // (2) Lock coverage — only for genuine Lock statements
                    // (a Wait re-acquisition anchors at the Wait instr).
                    if let Some(base) = base_local(program.instr(*instr)) {
                        let set = pts.local(cfg.owner(*instr), base);
                        let site = sites[obj];
                        prop_assert!(
                            set.unknown || set.sites.contains(&site),
                            "lock at {:?} acquired object from site {:?} not in {:?}\n{}",
                            instr, site, set, source
                        );
                    }
                }
                _ => {}
            }
        }

        // (3) May-alias coverage: same dynamic location ⇒ static may-alias.
        for instrs in accesses_by_loc.values() {
            let mut distinct: Vec<InstrId> = instrs.clone();
            distinct.sort();
            distinct.dedup();
            for (i, &a) in distinct.iter().enumerate() {
                for &b in &distinct[i..] {
                    prop_assert!(
                        filter.may_alias(&program, a, b),
                        "{:?} and {:?} touched the same location but are not \
                         static may-aliases\n{}",
                        a, b, source
                    );
                }
            }
        }
    }
}
