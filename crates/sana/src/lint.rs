//! Span-mapped static diagnostics for the `cil-lint` driver.
//!
//! Warning families, all derived from the same analyses as the race
//! filter, plus structural IR errors from [`cil::validate`]:
//!
//! - **unprotected-shared-access** — two conflicting accesses (same
//!   location class, at least one write) may happen in parallel and
//!   *neither* side holds any lock;
//! - **inconsistent-lock-discipline** — a parallel conflicting pair where
//!   locks are held but no common allocate-once lock protects both sides;
//! - **lock-order-cycle** — the static analogue of
//!   `detector::lockgraph`: two nested must-held acquisitions in opposite
//!   order, from edges that may come from distinct threads and share no
//!   gate lock;
//! - **lock-order-inversion** — the same property through a *longer* cycle
//!   (three or more locks), which pairwise inspection misses;
//! - **may-race** (`--races` mode only) — one diagnostic per statically
//!   generated race candidate from [`crate::candidates`].
//!
//! Lint is a *may* analysis: a clean report is not a proof of race freedom,
//! but every diagnostic points at a pair the static race filter could not
//! discharge.

use std::collections::BTreeSet;
use std::fmt;

use cil::flat::{Instr, InstrId, ProcId};
use cil::span::Span;
use cil::Program;

use crate::callgraph::ExecCount;
use crate::candidates;
use crate::filter::StaticRaceFilter;

/// The diagnostic families `cil-lint` emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// Structural IR invariant violation (from `cil::validate`).
    InvalidIr,
    /// Parallel conflicting accesses with no lock on either side.
    UnprotectedSharedAccess,
    /// Parallel conflicting accesses with locks but no common lock.
    InconsistentLockDiscipline,
    /// Static lock-order cycle between two locks (potential deadlock).
    LockOrderCycle,
    /// Static lock-order cycle through three or more locks.
    LockOrderInversion,
    /// A statically generated race candidate (`--races` mode).
    MayRace,
}

impl LintKind {
    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            LintKind::InvalidIr => "invalid-ir",
            LintKind::UnprotectedSharedAccess => "unprotected-shared-access",
            LintKind::InconsistentLockDiscipline => "inconsistent-lock-discipline",
            LintKind::LockOrderCycle => "lock-order-cycle",
            LintKind::LockOrderInversion => "lock-order-inversion",
            LintKind::MayRace => "may-race",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One diagnostic, anchored at a primary instruction's source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The family.
    pub kind: LintKind,
    /// The anchor instruction.
    pub instr: InstrId,
    /// Its source span.
    pub span: Span,
    /// Human-readable explanation (includes related sites).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span == Span::SYNTHETIC {
            write!(f, "{}: {}", self.kind, self.message)
        } else {
            write!(f, "{}: {}: {}", self.span, self.kind, self.message)
        }
    }
}

/// Runs every lint over `program` entered at `entry`, sorted by source
/// position then kind (deterministic across runs).
pub fn lint_program(program: &Program, entry: ProcId) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();

    for error in cil::validate::validate(program) {
        diagnostics.push(Diagnostic {
            kind: LintKind::InvalidIr,
            instr: error.instr,
            span: error.span,
            message: error.message.clone(),
        });
    }

    // The analyses index locals/globals/procs by the IDs the IR claims, so
    // they are only defined on structurally valid programs.
    if diagnostics.is_empty() {
        let filter = StaticRaceFilter::build(program, entry);
        access_lints(program, &filter, &mut diagnostics);
        lock_order_lints(program, &filter, &mut diagnostics);
    }

    diagnostics.sort_by_key(|diagnostic| {
        (
            diagnostic.span.line,
            diagnostic.span.col,
            diagnostic.kind,
            diagnostic.instr,
        )
    });
    diagnostics
}

/// Convenience: lint with a named entry (`main` fallback handled by the
/// driver).
pub fn lint_named(program: &Program, entry: &str) -> Option<Vec<Diagnostic>> {
    Some(lint_program(program, program.proc_named(entry)?))
}

fn race_message(program: &Program, a: InstrId, b: InstrId) -> String {
    if a == b {
        format!(
            "{} may race with another instance of itself",
            cil::pretty::describe_instr(program, a)
        )
    } else {
        format!(
            "{} may race with {}",
            cil::pretty::describe_instr(program, a),
            cil::pretty::describe_instr(program, b)
        )
    }
}

fn access_lints(program: &Program, filter: &StaticRaceFilter, diagnostics: &mut Vec<Diagnostic>) {
    let locks = filter.locks();
    for pair in candidates::generate(program, filter).candidates {
        let [a, b] = pair.instrs();
        let (held_a, held_b) = (
            locks.must_lockset(a).map_or(0, BTreeSet::len),
            locks.must_lockset(b).map_or(0, BTreeSet::len),
        );
        let kind = if held_a == 0 && held_b == 0 {
            LintKind::UnprotectedSharedAccess
        } else {
            LintKind::InconsistentLockDiscipline
        };
        diagnostics.push(Diagnostic {
            kind,
            instr: a,
            span: program.span(a),
            message: race_message(program, a, b),
        });
    }
}

/// Lints for `--races` mode: one [`LintKind::MayRace`] diagnostic per
/// statically generated race candidate, anchored at the pair's first
/// statement. Unlike [`lint_program`]'s discipline lints, this is the raw
/// candidate set the fuzzing phases consume.
pub fn race_candidate_lints(program: &Program, entry: ProcId) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for error in cil::validate::validate(program) {
        diagnostics.push(Diagnostic {
            kind: LintKind::InvalidIr,
            instr: error.instr,
            span: error.span,
            message: error.message.clone(),
        });
    }
    if diagnostics.is_empty() {
        let report = candidates::generate_for_entry(program, entry);
        for pair in report.candidates {
            let [a, b] = pair.instrs();
            diagnostics.push(Diagnostic {
                kind: LintKind::MayRace,
                instr: a,
                span: program.span(a),
                message: race_message(program, a, b),
            });
        }
    }
    diagnostics.sort_by_key(|diagnostic| {
        (
            diagnostic.span.line,
            diagnostic.span.col,
            diagnostic.kind,
            diagnostic.instr,
        )
    });
    diagnostics
}

/// Convenience: `--races` lints with a named entry.
pub fn race_candidates_named(program: &Program, entry: &str) -> Option<Vec<Diagnostic>> {
    Some(race_candidate_lints(program, program.proc_named(entry)?))
}

/// One static nested acquisition: while `outer` (an allocate-once site) is
/// must-held, `site` acquires `inner`.
struct StaticLockEdge {
    outer: InstrId,
    inner: InstrId,
    site: InstrId,
    gates: BTreeSet<InstrId>,
}

fn lock_order_lints(
    program: &Program,
    filter: &StaticRaceFilter,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let cfg = filter.cfg();
    let locks = filter.locks();
    let stable = |site: InstrId| filter.callgraph().instr_execs(site) == ExecCount::One;

    let mut edges: Vec<StaticLockEdge> = Vec::new();
    for (index, instr) in program.instrs.iter().enumerate() {
        if !matches!(instr, Instr::Lock { .. }) {
            continue;
        }
        let id = InstrId(index as u32);
        let Some(inner) = locks.lock_target(program, cfg, id) else {
            continue;
        };
        let Some(held) = locks.must_lockset(id) else {
            continue;
        };
        if !stable(inner) {
            continue;
        }
        for &outer in held {
            if outer == inner || !stable(outer) {
                continue;
            }
            let gates: BTreeSet<InstrId> = held
                .iter()
                .copied()
                .filter(|&gate| gate != outer && gate != inner)
                .collect();
            edges.push(StaticLockEdge {
                outer,
                inner,
                site: id,
                gates,
            });
        }
    }

    // Cycle search over lock nodes, mirroring detector::lockgraph: report a
    // cycle only when its acquisition sites may happen in parallel pairwise
    // (distinct threads can be inside the edges simultaneously) and no gate
    // lock is common to every edge.
    let mut reported: BTreeSet<Vec<InstrId>> = BTreeSet::new();
    for (first_index, first) in edges.iter().enumerate() {
        for second in &edges[first_index + 1..] {
            if first.outer != second.inner || first.inner != second.outer {
                continue;
            }
            if !filter.mhp().may_happen_in_parallel(first.site, second.site) {
                continue;
            }
            if first.gates.intersection(&second.gates).next().is_some() {
                continue;
            }
            let mut key = vec![first.site, second.site];
            key.sort();
            if !reported.insert(key) {
                continue;
            }
            diagnostics.push(Diagnostic {
                kind: LintKind::LockOrderCycle,
                instr: first.site,
                span: program.span(first.site),
                message: format!(
                    "lock-order inversion: {} acquires in the opposite order of {}",
                    cil::pretty::describe_instr(program, first.site),
                    cil::pretty::describe_instr(program, second.site)
                ),
            });
        }
    }

    longer_cycle_lints(program, filter, &edges, &mut reported, diagnostics);
}

/// Simple cycles through **three or more** locks, which the pairwise scan
/// above cannot see (A→B, B→C, C→A deadlocks with no two-lock inversion).
/// Canonical enumeration: a cycle is explored only from its smallest lock
/// node, bounded at [`MAX_CYCLE_LOCKS`] locks.
fn longer_cycle_lints(
    program: &Program,
    filter: &StaticRaceFilter,
    edges: &[StaticLockEdge],
    reported: &mut BTreeSet<Vec<InstrId>>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    const MAX_CYCLE_LOCKS: usize = 6;

    let mut outgoing: std::collections::BTreeMap<InstrId, Vec<usize>> =
        std::collections::BTreeMap::new();
    let mut roots: BTreeSet<InstrId> = BTreeSet::new();
    for (index, edge) in edges.iter().enumerate() {
        outgoing.entry(edge.outer).or_default().push(index);
        roots.insert(edge.outer);
    }

    // The cycle holds only when distinct threads can sit inside its edges
    // simultaneously and no single gate lock serializes the whole loop.
    let viable = |path: &[usize]| {
        for (position, &first) in path.iter().enumerate() {
            for &second in &path[position + 1..] {
                if !filter
                    .mhp()
                    .may_happen_in_parallel(edges[first].site, edges[second].site)
                {
                    return false;
                }
            }
        }
        let mut gates = edges[path[0]].gates.clone();
        for &index in &path[1..] {
            gates = gates.intersection(&edges[index].gates).copied().collect();
        }
        gates.is_empty()
    };

    for &root in &roots {
        // Iterative DFS over edge paths; every lock on the path stays
        // strictly above `root` so each cycle is found exactly once.
        let mut stack: Vec<Vec<usize>> = outgoing
            .get(&root)
            .into_iter()
            .flatten()
            .map(|&edge| vec![edge])
            .collect();
        while let Some(path) = stack.pop() {
            let current = edges[*path.last().unwrap()].inner;
            if current == root {
                if path.len() >= 3 && viable(&path) {
                    let mut key: Vec<InstrId> = path.iter().map(|&e| edges[e].site).collect();
                    key.sort();
                    if reported.insert(key) {
                        let anchor = edges[path[0]].site;
                        let chain: Vec<String> = path
                            .iter()
                            .map(|&e| cil::pretty::describe_instr(program, edges[e].site))
                            .collect();
                        diagnostics.push(Diagnostic {
                            kind: LintKind::LockOrderInversion,
                            instr: anchor,
                            span: program.span(anchor),
                            message: format!(
                                "lock-order inversion through {} locks: {}",
                                path.len(),
                                chain.join(" -> ")
                            ),
                        });
                    }
                }
                continue;
            }
            if path.len() >= MAX_CYCLE_LOCKS || current < root {
                continue;
            }
            for &next in outgoing.get(&current).into_iter().flatten() {
                let target = edges[next].inner;
                // Keep the cycle simple: revisit a lock only to close at
                // the root.
                if target != root && path.iter().any(|&seen| edges[seen].inner == target) {
                    continue;
                }
                let mut extended = path.clone();
                extended.push(next);
                stack.push(extended);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(source: &str) -> (Program, Vec<Diagnostic>) {
        let program = cil::compile(source).unwrap();
        let entry = program.proc_named("main").unwrap();
        let diagnostics = lint_program(&program, entry);
        (program, diagnostics)
    }

    fn kinds(diagnostics: &[Diagnostic]) -> Vec<LintKind> {
        let mut kinds: Vec<LintKind> = diagnostics.iter().map(|d| d.kind).collect();
        kinds.dedup();
        kinds
    }

    #[test]
    fn clean_locked_program_has_no_diagnostics() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc worker() { sync (l) { x = x + 1; } }
            proc main() {
                l = new Lock;
                var t = spawn worker();
                sync (l) { x = x + 1; }
                join t;
            }
            "#,
        );
        assert_eq!(diagnostics, vec![], "expected clean bill of health");
    }

    #[test]
    fn unprotected_write_is_flagged_with_span() {
        let (_, diagnostics) = lint(
            r#"
            global x = 0;
            proc worker() { x = 1; }
            proc main() {
                var t = spawn worker();
                x = 2;
                join t;
            }
            "#,
        );
        assert!(
            kinds(&diagnostics).contains(&LintKind::UnprotectedSharedAccess),
            "{diagnostics:?}"
        );
        assert!(diagnostics.iter().all(|d| d.span.line > 0));
    }

    #[test]
    fn one_sided_locking_is_inconsistent_discipline() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc worker() { sync (l) { x = 1; } }
            proc main() {
                l = new Lock;
                var t = spawn worker();
                x = 2;
                join t;
            }
            "#,
        );
        assert!(
            kinds(&diagnostics).contains(&LintKind::InconsistentLockDiscipline),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn fork_join_ordering_suppresses_warnings() {
        let (_, diagnostics) = lint(
            r#"
            global x = 0;
            proc worker() { x = 1; }
            proc main() {
                x = 5;
                var t = spawn worker();
                join t;
                var a = x;
                print a;
            }
            "#,
        );
        assert_eq!(diagnostics, vec![], "fork/join orders every access");
    }

    #[test]
    fn opposite_nesting_is_a_lock_order_cycle() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global a;
            global b;
            proc left() { sync (a) { sync (b) { nop; } } }
            proc right() { sync (b) { sync (a) { nop; } } }
            proc main() {
                a = new Lock;
                b = new Lock;
                var t1 = spawn left();
                var t2 = spawn right();
                join t1;
                join t2;
            }
            "#,
        );
        assert!(
            kinds(&diagnostics).contains(&LintKind::LockOrderCycle),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn three_lock_triangle_is_an_inversion_not_a_pairwise_cycle() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global a;
            global b;
            global c;
            proc p1() { sync (a) { sync (b) { nop; } } }
            proc p2() { sync (b) { sync (c) { nop; } } }
            proc p3() { sync (c) { sync (a) { nop; } } }
            proc main() {
                a = new Lock;
                b = new Lock;
                c = new Lock;
                var t1 = spawn p1();
                var t2 = spawn p2();
                var t3 = spawn p3();
                join t1;
                join t2;
                join t3;
            }
            "#,
        );
        let found = kinds(&diagnostics);
        assert!(
            found.contains(&LintKind::LockOrderInversion),
            "{diagnostics:?}"
        );
        assert!(
            !found.contains(&LintKind::LockOrderCycle),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn gate_lock_suppresses_triangle_inversion() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global a;
            global b;
            global c;
            global g;
            proc p1() { sync (g) { sync (a) { sync (b) { nop; } } } }
            proc p2() { sync (g) { sync (b) { sync (c) { nop; } } } }
            proc p3() { sync (g) { sync (c) { sync (a) { nop; } } } }
            proc main() {
                a = new Lock;
                b = new Lock;
                c = new Lock;
                g = new Lock;
                var t1 = spawn p1();
                var t2 = spawn p2();
                var t3 = spawn p3();
                join t1;
                join t2;
                join t3;
            }
            "#,
        );
        assert!(
            !kinds(&diagnostics).contains(&LintKind::LockOrderInversion),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn races_mode_reports_may_race_candidates() {
        let program = cil::compile(
            r#"
            global x = 0;
            proc worker() { x = 1; }
            proc main() {
                var t = spawn worker();
                x = 2;
                join t;
            }
            "#,
        )
        .unwrap();
        let entry = program.proc_named("main").unwrap();
        let diagnostics = race_candidate_lints(&program, entry);
        assert!(!diagnostics.is_empty());
        assert!(diagnostics.iter().all(|d| d.kind == LintKind::MayRace));
        assert!(diagnostics.iter().all(|d| d.span.line > 0));
    }

    #[test]
    fn distinct_constant_indices_raise_no_access_lints() {
        // Two threads touching provably different cells of the same array:
        // the footprint index refutation keeps the candidate set (and so
        // the access lints) empty, while a same-cell write pair is still
        // flagged at its source span.
        let (_, clean) = lint(
            r#"
            global arr;
            proc worker() { var a = arr; a[0] = 1; }
            proc main() {
                arr = new [4];
                var a = arr;
                var t = spawn worker();
                a[1] = 2;
                join t;
            }
            "#,
        );
        assert_eq!(clean, vec![], "disjoint cells must not be flagged");
        let (_, racy) = lint(
            r#"
            global arr;
            proc worker() { var a = arr; a[0] = 1; }
            proc main() {
                arr = new [4];
                var a = arr;
                var t = spawn worker();
                a[0] = 2;
                join t;
            }
            "#,
        );
        assert!(
            kinds(&racy).contains(&LintKind::UnprotectedSharedAccess),
            "{racy:?}"
        );
        assert!(racy.iter().all(|d| d.span.line > 0));
    }

    #[test]
    fn gate_lock_suppresses_the_cycle() {
        let (_, diagnostics) = lint(
            r#"
            class Lock { }
            global a;
            global b;
            global g;
            proc left() { sync (g) { sync (a) { sync (b) { nop; } } } }
            proc right() { sync (g) { sync (b) { sync (a) { nop; } } } }
            proc main() {
                a = new Lock;
                b = new Lock;
                g = new Lock;
                var t1 = spawn left();
                var t2 = spawn right();
                join t1;
                join t2;
            }
            "#,
        );
        assert!(
            !kinds(&diagnostics).contains(&LintKind::LockOrderCycle),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn corrupted_ir_reports_invalid_ir() {
        let mut program = cil::compile("proc main() { var x = 1; }").unwrap();
        for instr in &mut program.instrs {
            if let Instr::Assign { dst, .. } = instr {
                *dst = cil::flat::LocalId(99);
            }
        }
        let entry = program.proc_named("main").unwrap();
        let diagnostics = lint_program(&program, entry);
        assert!(
            diagnostics.iter().any(|d| d.kind == LintKind::InvalidIr),
            "{diagnostics:?}"
        );
    }
}
