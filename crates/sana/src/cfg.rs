//! Per-procedure control-flow graphs over the flat IR.
//!
//! The CFG is instruction-granular: every [`InstrId`] is a node, and edges
//! follow the interpreter's actual control transfers — fall-through,
//! `Jump`/`Branch` targets, and **exceptional** edges from every
//! may-throw instruction to every handler block of its procedure. The
//! exceptional edges are deliberately coarse (any throwing instruction may
//! reach any handler of the proc, and may also abruptly exit the proc):
//! the dataflow clients are a *may*-liveness analysis (MHP) and a
//! *must*-lockset analysis, and for both of those extra edges are the sound
//! direction.

use cil::ast::BinOp;
use cil::flat::{Instr, InstrId, ProcId, PureExpr};
use cil::Program;

/// How control reaches a successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Fall-through, jump, or branch.
    Normal,
    /// Unwinding into a `try` handler after a throw.
    Exceptional,
}

/// A CFG edge to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Successor instruction.
    pub to: InstrId,
    /// Normal or exceptional transfer.
    pub kind: EdgeKind,
}

/// Whole-program CFG tables, indexed by instruction.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Successor edges, parallel to `Program::instrs`.
    succs: Vec<Vec<Edge>>,
    /// `proc_of` each instruction (precomputed; `Program::proc_of` is a
    /// linear scan).
    owner: Vec<ProcId>,
    /// Instructions that may raise an exception when executed.
    may_throw: Vec<bool>,
    /// Per instruction: lies on an intra-procedural cycle (reachable from
    /// itself following normal + exceptional edges).
    on_cycle: Vec<bool>,
}

impl Cfg {
    /// Builds the CFG for a lowered program.
    pub fn build(program: &Program) -> Cfg {
        let count = program.instr_count();
        let mut owner = vec![ProcId(0); count];
        for (proc_index, proc) in program.procs.iter().enumerate() {
            owner[proc.entry.index()..proc.end.index()].fill(ProcId(proc_index as u32));
        }

        // Handlers per proc: every `EnterTry` target.
        let mut handlers: Vec<Vec<InstrId>> = vec![Vec::new(); program.procs.len()];
        for (index, instr) in program.instrs.iter().enumerate() {
            if let Instr::EnterTry { handler, .. } = instr {
                handlers[owner[index].index()].push(*handler);
            }
        }

        let has_interrupt = program
            .instrs
            .iter()
            .any(|instr| matches!(instr, Instr::Interrupt { .. }));

        let mut may_throw: Vec<bool> = (0..count)
            .map(|index| local_may_throw(&program.instrs[index], has_interrupt))
            .collect();
        // A call may complete abruptly if its callee (transitively) throws.
        // Over-approximate per-proc "contains a throwing instruction" with a
        // fixpoint through `Call` edges; handlers are ignored (a handler may
        // not catch the exception's name), which is the sound direction.
        let mut proc_throws: Vec<bool> = vec![false; program.procs.len()];
        loop {
            let mut changed = false;
            for (index, instr) in program.instrs.iter().enumerate() {
                let throws_here = match instr {
                    Instr::Call { proc, .. } => proc_throws[proc.index()],
                    _ => may_throw[index],
                };
                let proc_index = owner[index].index();
                if throws_here && !proc_throws[proc_index] {
                    proc_throws[proc_index] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (index, instr) in program.instrs.iter().enumerate() {
            if let Instr::Call { proc, .. } = instr {
                may_throw[index] = proc_throws[proc.index()];
            }
        }

        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); count];
        for (index, instr) in program.instrs.iter().enumerate() {
            let id = InstrId(index as u32);
            let proc = &program.procs[owner[index].index()];
            let edges = &mut succs[index];
            let normal = |target: InstrId, edges: &mut Vec<Edge>| {
                if proc.contains(target) {
                    edges.push(Edge {
                        to: target,
                        kind: EdgeKind::Normal,
                    });
                }
            };
            match instr {
                Instr::Jump { target } => normal(*target, edges),
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    normal(*if_true, edges);
                    if if_false != if_true {
                        normal(*if_false, edges);
                    }
                }
                Instr::Return { .. } => {}
                Instr::Throw { .. } => {}
                _ => {
                    let next = InstrId(id.0 + 1);
                    normal(next, edges);
                }
            }
            if may_throw[index] {
                for &handler in &handlers[owner[index].index()] {
                    if proc.contains(handler) && !edges.iter().any(|edge| edge.to == handler) {
                        edges.push(Edge {
                            to: handler,
                            kind: EdgeKind::Exceptional,
                        });
                    }
                }
            }
        }

        let on_cycle = compute_cycles(program, &succs);

        Cfg {
            succs,
            owner,
            may_throw,
            on_cycle,
        }
    }

    /// Successor edges of `id`.
    pub fn succs(&self, id: InstrId) -> &[Edge] {
        &self.succs[id.index()]
    }

    /// The procedure containing `id` (O(1)).
    pub fn owner(&self, id: InstrId) -> ProcId {
        self.owner[id.index()]
    }

    /// `true` if executing `id` may raise an exception (directly or, for a
    /// `Call`, anywhere in the callee).
    pub fn may_throw(&self, id: InstrId) -> bool {
        self.may_throw[id.index()]
    }

    /// `true` if `id` lies on an intra-procedural CFG cycle — i.e. one
    /// invocation of its procedure may execute it more than once.
    pub fn on_cycle(&self, id: InstrId) -> bool {
        self.on_cycle[id.index()]
    }
}

/// Per-instruction "reachable from itself" via Tarjan-free SCC detection:
/// iterative DFS per procedure computing strongly-connected components by
/// Kosaraju would be overkill; instead mark every instruction that lies in
/// a non-trivial SCC using the classic two-pass approach on the (small)
/// per-proc subgraphs.
fn compute_cycles(program: &Program, succs: &[Vec<Edge>]) -> Vec<bool> {
    let count = program.instrs.len();
    let mut on_cycle = vec![false; count];
    for proc in &program.procs {
        let range = proc.entry.index()..proc.end.index();
        if range.is_empty() {
            continue;
        }
        // Forward reachability from each back-edge-ish candidate is O(n²)
        // worst case but procs are small; use simple per-node reachability
        // restricted to nodes with a predecessor on a path. Cheap and clear:
        // node v is on a cycle iff v is reachable from some successor of v.
        for v in range.clone() {
            if on_cycle[v] {
                continue;
            }
            let mut stack: Vec<usize> = succs[v].iter().map(|edge| edge.to.index()).collect();
            let mut seen = vec![false; range.len()];
            let base = proc.entry.index();
            let mut found = false;
            while let Some(node) = stack.pop() {
                if node == v {
                    found = true;
                    break;
                }
                let local = node - base;
                if seen[local] {
                    continue;
                }
                seen[local] = true;
                stack.extend(succs[node].iter().map(|edge| edge.to.index()));
            }
            if found {
                // Everything on the v-cycle is also cyclic, but marking just
                // v is enough because each node is tested independently.
                on_cycle[v] = true;
            }
        }
    }
    on_cycle
}

/// Can evaluating this pure expression throw? Only division/remainder can
/// (`ArithmeticException`), under the well-typedness assumption documented
/// in the crate root.
fn expr_may_throw(expr: &PureExpr) -> bool {
    match expr {
        PureExpr::Const(_) | PureExpr::Local(_) => false,
        PureExpr::Unary { operand, .. } => expr_may_throw(operand),
        PureExpr::Binary { op, lhs, rhs } => {
            matches!(op, BinOp::Div | BinOp::Rem) || expr_may_throw(lhs) || expr_may_throw(rhs)
        }
        PureExpr::Len(inner) => expr_may_throw(inner),
    }
}

/// May this instruction itself raise (ignoring callee propagation, which
/// `Cfg::build` folds in afterwards)?
fn local_may_throw(instr: &Instr, has_interrupt: bool) -> bool {
    match instr {
        Instr::Throw { .. } => true,
        Instr::Assert { cond, .. } => {
            !matches!(cond, PureExpr::Const(cil::flat::Const::Bool(true)))
        }
        // Null dereference / index out of bounds.
        Instr::LoadField { .. }
        | Instr::StoreField {
            obj: _,
            field: _,
            src: _,
        } => true,
        Instr::LoadElem { .. } | Instr::StoreElem { .. } => true,
        // Negative array length.
        Instr::NewArray { len, .. } => {
            !matches!(len, PureExpr::Const(cil::flat::Const::Int(n)) if *n >= 0)
        }
        // IllegalMonitorStateException on unowned monitors. Structured
        // (`sync`) unlocks are balanced by construction and cannot fail.
        Instr::Wait { .. } | Instr::Notify { .. } | Instr::NotifyAll { .. } => true,
        Instr::Unlock { monitor, .. } => !monitor,
        Instr::Lock { .. } => false,
        // InterruptedException exists only if someone interrupts.
        Instr::Join { .. } => has_interrupt,
        Instr::Sleep { duration } => has_interrupt || expr_may_throw(duration),
        Instr::Assign { expr, .. } => expr_may_throw(expr),
        Instr::StoreGlobal { src, .. } => expr_may_throw(src),
        Instr::Branch { cond, .. } => expr_may_throw(cond),
        Instr::Return { value } | Instr::Print { value } => {
            value.as_ref().is_some_and(expr_may_throw)
        }
        Instr::Spawn { args, .. } | Instr::Call { args, .. } => args.iter().any(expr_may_throw),
        Instr::LoadGlobal { .. }
        | Instr::New { .. }
        | Instr::Interrupt { .. }
        | Instr::Jump { .. }
        | Instr::EnterTry { .. }
        | Instr::ExitTry
        | Instr::Nop => false,
    }
}

/// The local slot an instruction writes, if any (used by the MHP handle
/// tracking and the value-flow analysis).
pub fn written_local(instr: &Instr) -> Option<cil::flat::LocalId> {
    match instr {
        Instr::Assign { dst, .. }
        | Instr::LoadGlobal { dst, .. }
        | Instr::LoadField { dst, .. }
        | Instr::LoadElem { dst, .. }
        | Instr::New { dst, .. }
        | Instr::NewArray { dst, .. } => Some(*dst),
        Instr::Spawn { dst, .. } | Instr::Call { dst, .. } => *dst,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_fallthrough() {
        let program = cil::compile("proc main() { var x = 1; var y = x + 1; print y; }").unwrap();
        let cfg = Cfg::build(&program);
        let main = program.proc_named("main").unwrap();
        let entry = program.procs[main.index()].entry;
        assert_eq!(cfg.succs(entry).len(), 1);
        assert_eq!(cfg.succs(entry)[0].kind, EdgeKind::Normal);
        assert!(!cfg.on_cycle(entry));
    }

    #[test]
    fn loop_body_is_on_a_cycle() {
        let program =
            cil::compile("proc main() { var i = 0; while (i < 3) { i = i + 1; } print i; }")
                .unwrap();
        let cfg = Cfg::build(&program);
        let cyclic = (0..program.instr_count())
            .filter(|&index| cfg.on_cycle(InstrId(index as u32)))
            .count();
        assert!(cyclic >= 2, "loop head and body increment cycle");
    }

    #[test]
    fn throwing_instruction_gains_handler_edge() {
        let program = cil::compile(
            r#"
            proc main() {
                try { throw Boom; } catch (*) { nop; }
            }
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&program);
        let throw_index = program
            .instrs
            .iter()
            .position(|instr| matches!(instr, Instr::Throw { .. }))
            .unwrap();
        let edges = cfg.succs(InstrId(throw_index as u32));
        assert!(
            edges.iter().any(|edge| edge.kind == EdgeKind::Exceptional),
            "{edges:?}"
        );
    }

    #[test]
    fn join_throws_only_with_interrupt_present() {
        let quiet = cil::compile("proc child() { } proc main() { var t = spawn child(); join t; }")
            .unwrap();
        let cfg = Cfg::build(&quiet);
        let join = quiet
            .instrs
            .iter()
            .position(|instr| matches!(instr, Instr::Join { .. }))
            .unwrap();
        assert!(!cfg.may_throw(InstrId(join as u32)));

        let noisy = cil::compile(
            "proc child() { } proc main() { var t = spawn child(); interrupt t; join t; }",
        )
        .unwrap();
        let cfg = Cfg::build(&noisy);
        let join = noisy
            .instrs
            .iter()
            .position(|instr| matches!(instr, Instr::Join { .. }))
            .unwrap();
        assert!(cfg.may_throw(InstrId(join as u32)));
    }

    #[test]
    fn call_inherits_callee_throws() {
        let program = cil::compile(
            r#"
            proc boom() { throw Bang; }
            proc quiet() { var x = 1; print x; }
            proc main() { quiet(); boom(); }
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&program);
        let calls: Vec<usize> = program
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, instr)| matches!(instr, Instr::Call { .. }))
            .map(|(index, _)| index)
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(
            !cfg.may_throw(InstrId(calls[0] as u32)),
            "quiet() cannot throw"
        );
        assert!(cfg.may_throw(InstrId(calls[1] as u32)), "boom() throws");
    }
}
