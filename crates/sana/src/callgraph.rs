//! Interprocedural call/spawn graph and execution-count bounds.
//!
//! Two closures matter downstream:
//!
//! - the **call closure** of a procedure (reachable via `Call` edges only)
//!   bounds what one *invocation* executes — used to attribute instructions
//!   to the threads that may run them;
//! - the **thread closure** (reachable via `Call` ∪ `Spawn` edges) bounds
//!   what a *thread and its descendants* execute — used by the MHP rule.
//!
//! [`ExecCount`] is a saturating {0, 1, many} bound on how often a site may
//! execute across a whole run; `One` is what makes an allocation site a
//! *stable* lock identity for the must-lockset filter.

use std::collections::HashMap;

use cil::flat::{Instr, InstrId, ProcId};
use cil::Program;

use crate::cfg::Cfg;

/// Saturating execution-count bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecCount {
    /// Never executes.
    Zero,
    /// Executes at most once per run.
    One,
    /// May execute more than once.
    Many,
}

impl ExecCount {
    /// Saturating addition (`One + One = Many`).
    pub fn plus(self, other: ExecCount) -> ExecCount {
        use ExecCount::*;
        match (self, other) {
            (Zero, x) | (x, Zero) => x,
            _ => Many,
        }
    }

    /// Saturating multiplication.
    pub fn times(self, other: ExecCount) -> ExecCount {
        use ExecCount::*;
        match (self, other) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => Many,
        }
    }
}

/// The interprocedural structure of a program, rooted at one entry.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// All `Spawn` instructions, in program order. Their position in this
    /// vector is the *spawn-site index* used by the MHP bitsets.
    pub spawn_sites: Vec<InstrId>,
    /// Spawn site → its index in `spawn_sites`.
    spawn_index: HashMap<InstrId, usize>,
    /// Per proc: procs reachable through `Call` edges (including itself).
    call_closure: Vec<Vec<bool>>,
    /// Per proc: procs reachable through `Call` ∪ `Spawn` edges.
    thread_closure: Vec<Vec<bool>>,
    /// Per proc: `Call` sites targeting it (for exit-liveness propagation).
    callers: Vec<Vec<InstrId>>,
    /// Per proc: is it the program entry or the target of some spawn?
    thread_root: Vec<bool>,
    /// Per proc: upper bound on invocations across one run.
    invocations: Vec<ExecCount>,
    /// Per instruction: upper bound on executions across one run.
    instr_execs: Vec<ExecCount>,
}

impl CallGraph {
    /// Builds the graph for `program` entered at `entry`.
    pub fn build(program: &Program, cfg: &Cfg, entry: ProcId) -> CallGraph {
        let proc_count = program.procs.len();
        let mut spawn_sites = Vec::new();
        let mut callers: Vec<Vec<InstrId>> = vec![Vec::new(); proc_count];
        let mut thread_root = vec![false; proc_count];
        thread_root[entry.index()] = true;

        // Direct successor procs, by edge kind.
        let mut call_targets: Vec<Vec<ProcId>> = vec![Vec::new(); proc_count];
        let mut spawn_targets: Vec<Vec<ProcId>> = vec![Vec::new(); proc_count];
        for (index, instr) in program.instrs.iter().enumerate() {
            let id = InstrId(index as u32);
            match instr {
                Instr::Call { proc, .. } => {
                    callers[proc.index()].push(id);
                    call_targets[cfg.owner(id).index()].push(*proc);
                }
                Instr::Spawn { proc, .. } => {
                    spawn_sites.push(id);
                    thread_root[proc.index()] = true;
                    spawn_targets[cfg.owner(id).index()].push(*proc);
                }
                _ => {}
            }
        }
        let spawn_index = spawn_sites
            .iter()
            .enumerate()
            .map(|(position, &site)| (site, position))
            .collect();

        let closure_of = |include_spawns: bool| -> Vec<Vec<bool>> {
            (0..proc_count)
                .map(|start| {
                    let mut reached = vec![false; proc_count];
                    let mut stack = vec![start];
                    while let Some(proc) = stack.pop() {
                        if reached[proc] {
                            continue;
                        }
                        reached[proc] = true;
                        stack.extend(call_targets[proc].iter().map(|target| target.index()));
                        if include_spawns {
                            stack.extend(spawn_targets[proc].iter().map(|target| target.index()));
                        }
                    }
                    reached
                })
                .collect()
        };
        let call_closure = closure_of(false);
        let thread_closure = closure_of(true);

        // Invocation counts: fixpoint over {Zero, One, Many}; a site
        // contributes invocations(owner) × (on a CFG cycle ? Many : One).
        let mut invocations = vec![ExecCount::Zero; proc_count];
        invocations[entry.index()] = ExecCount::One;
        loop {
            let mut next = vec![ExecCount::Zero; proc_count];
            next[entry.index()] = ExecCount::One;
            for (index, instr) in program.instrs.iter().enumerate() {
                let target = match instr {
                    Instr::Call { proc, .. } | Instr::Spawn { proc, .. } => *proc,
                    _ => continue,
                };
                let id = InstrId(index as u32);
                let per_invocation = if cfg.on_cycle(id) {
                    ExecCount::Many
                } else {
                    ExecCount::One
                };
                let contribution = invocations[cfg.owner(id).index()].times(per_invocation);
                next[target.index()] = next[target.index()].plus(contribution);
            }
            if next == invocations {
                break;
            }
            invocations = next;
        }

        let instr_execs = (0..program.instr_count())
            .map(|index| {
                let id = InstrId(index as u32);
                let per_invocation = if cfg.on_cycle(id) {
                    ExecCount::Many
                } else {
                    ExecCount::One
                };
                invocations[cfg.owner(id).index()].times(per_invocation)
            })
            .collect();

        CallGraph {
            spawn_sites,
            spawn_index,
            call_closure,
            thread_closure,
            callers,
            thread_root,
            invocations,
            instr_execs,
        }
    }

    /// The spawn-site index of `site`, if it is a `Spawn` instruction.
    pub fn spawn_site_index(&self, site: InstrId) -> Option<usize> {
        self.spawn_index.get(&site).copied()
    }

    /// Procs one invocation of `proc` may execute (via `Call` edges).
    pub fn call_closure(&self, proc: ProcId) -> &[bool] {
        &self.call_closure[proc.index()]
    }

    /// Procs a thread rooted at `proc` — and all its descendant threads —
    /// may execute (via `Call` ∪ `Spawn` edges).
    pub fn thread_closure(&self, proc: ProcId) -> &[bool] {
        &self.thread_closure[proc.index()]
    }

    /// `Call` sites targeting `proc`.
    pub fn callers(&self, proc: ProcId) -> &[InstrId] {
        &self.callers[proc.index()]
    }

    /// Is `proc` the program entry or a spawn target (i.e. the root
    /// procedure of some thread)?
    pub fn is_thread_root(&self, proc: ProcId) -> bool {
        self.thread_root[proc.index()]
    }

    /// Upper bound on invocations of `proc` across one run.
    pub fn invocations(&self, proc: ProcId) -> ExecCount {
        self.invocations[proc.index()]
    }

    /// Upper bound on executions of `instr` across one run.
    pub fn instr_execs(&self, instr: InstrId) -> ExecCount {
        self.instr_execs[instr.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(source: &str) -> (Program, Cfg, CallGraph) {
        let program = cil::compile(source).unwrap();
        let cfg = Cfg::build(&program);
        let entry = program.proc_named("main").unwrap();
        let graph = CallGraph::build(&program, &cfg, entry);
        (program, cfg, graph)
    }

    #[test]
    fn straight_line_counts_are_one() {
        let (program, _, graph) =
            build("proc helper() { var x = 1; print x; } proc main() { helper(); helper(); }");
        let helper = program.proc_named("helper").unwrap();
        assert_eq!(graph.invocations(helper), ExecCount::Many, "two call sites");
        let main = program.proc_named("main").unwrap();
        assert_eq!(graph.invocations(main), ExecCount::One);
    }

    #[test]
    fn call_in_loop_saturates() {
        let (program, _, graph) = build(
            r#"
            proc helper() { nop; }
            proc main() {
                var i = 0;
                while (i < 4) { helper(); i = i + 1; }
            }
            "#,
        );
        let helper = program.proc_named("helper").unwrap();
        assert_eq!(graph.invocations(helper), ExecCount::Many);
    }

    #[test]
    fn spawn_targets_are_thread_roots_and_in_thread_closure_only() {
        let (program, _, graph) = build(
            r#"
            proc worker() { nop; }
            proc main() { var t = spawn worker(); join t; }
            "#,
        );
        let worker = program.proc_named("worker").unwrap();
        let main = program.proc_named("main").unwrap();
        assert!(graph.is_thread_root(worker));
        assert!(graph.is_thread_root(main));
        assert!(!graph.call_closure(main)[worker.index()]);
        assert!(graph.thread_closure(main)[worker.index()]);
        assert_eq!(graph.spawn_sites.len(), 1);
        assert_eq!(graph.invocations(worker), ExecCount::One);
    }

    #[test]
    fn recursion_saturates_to_many() {
        let (program, _, graph) = build(
            r#"
            proc rec(n) { if (n > 0) { rec(n - 1); } }
            proc main() { rec(3); }
            "#,
        );
        let rec = program.proc_named("rec").unwrap();
        assert_eq!(graph.invocations(rec), ExecCount::Many);
    }
}
