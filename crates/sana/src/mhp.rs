//! May-happen-in-parallel from spawn/join structure.
//!
//! For every spawn site `s` the analysis computes `ConcWith(s)`: the set of
//! instructions some *other* thread may execute while a thread spawned at
//! `s` is live. Liveness starts at `s` and flows forward through the
//! spawning procedure's CFG. The per-point fact is `NotLive`, or
//! `Live(A)` where `A` is the **must-alias set** of locals certainly
//! holding the spawned thread's handle: a `join` on any member of `A`
//! proves the thread dead and kills the fact (on the normal edge only — an
//! interrupted join throws without proving termination). Local-to-local
//! copies grow `A` (lowering routes every `var t = spawn ...` through a
//! temp, so this is load-bearing, not a luxury), overwrites shrink it, and
//! the merge is "live on either path" with `A` intersected — an empty `A`
//! is liveness no join can ever kill.
//!
//! Interprocedurally:
//! - a `Call` executed while live puts the callee's whole *thread closure*
//!   (`Call` ∪ `Spawn` reachable code) into `ConcWith(s)` — the callee
//!   cannot join the thread because the handle lives in the spawner's
//!   locals;
//! - a `Spawn` executed while live puts the new thread's closure into
//!   `ConcWith(s)` (sibling concurrency);
//! - liveness reaching a `Return` of a non-root procedure re-seeds the
//!   analysis as `Live(∅)` after every call site of that procedure;
//! - an exception possibly escaping a non-root procedure does the same,
//!   transitively up the call graph (the handler might be anywhere);
//! - liveness reaching the exit (return or escape) of a **spawned**
//!   thread-root procedure makes the site *unbounded*: the thread outlives
//!   its parent thread, whose own parent may then execute arbitrary code —
//!   `ConcWith(s)` becomes every instruction. The program entry is exempt:
//!   when the root thread dies, only already-live threads keep running, and
//!   every such thread's overlap with `s` is already recorded at its own
//!   spawn site on the same path.
//!
//! Two instructions may happen in parallel iff some site's thread may
//! execute one while the other is in that site's `ConcWith` — which also
//! covers racing instances of a *single* site (spawn-in-loop): re-spawning
//! while a previous instance is live routes the site's own closure into its
//! `ConcWith`.

use std::collections::BTreeSet;

use cil::flat::{Instr, InstrId, LocalId, ProcId, PureExpr};
use cil::Program;

use crate::callgraph::CallGraph;
use crate::cfg::{written_local, Cfg, EdgeKind};

/// `None` = not live; `Some(aliases)` = live, with `aliases` the locals of
/// the spawning procedure that certainly hold the thread's handle.
type LiveState = Option<BTreeSet<LocalId>>;

/// Merges `incoming` into `slot` ("live on either path", must-aliases
/// intersected). Returns `true` when `slot` changed.
fn merge_state(slot: &mut LiveState, incoming: &LiveState) -> bool {
    match (slot.as_mut(), incoming) {
        (_, None) => false,
        (None, Some(aliases)) => {
            *slot = Some(aliases.clone());
            true
        }
        (Some(existing), Some(aliases)) => {
            let before = existing.len();
            existing.retain(|local| aliases.contains(local));
            existing.len() != before
        }
    }
}

/// May-happen-in-parallel facts for one program + entry.
#[derive(Clone, Debug)]
pub struct Mhp {
    /// Per spawn site: instructions its thread (and descendants) may run.
    thread_code: Vec<Vec<bool>>,
    /// Per spawn site: instructions concurrent with its thread's lifetime.
    conc_with: Vec<Vec<bool>>,
    /// Sites whose threads may outlive their spawning thread's lineage.
    unbounded: Vec<bool>,
}

impl Mhp {
    /// Runs the analysis.
    pub fn build(program: &Program, cfg: &Cfg, graph: &CallGraph, entry: ProcId) -> Mhp {
        let site_count = graph.spawn_sites.len();
        let mut thread_code = Vec::with_capacity(site_count);
        let mut conc_with = Vec::with_capacity(site_count);
        let mut unbounded = vec![false; site_count];

        for (position, &site) in graph.spawn_sites.iter().enumerate() {
            let target = match program.instr(site) {
                Instr::Spawn { proc, .. } => *proc,
                _ => unreachable!("spawn_sites holds only Spawn instructions"),
            };
            thread_code.push(proc_set_to_instrs(program, graph.thread_closure(target)));
            let (concurrent, escaped) = conc_with_site(program, cfg, graph, entry, site);
            unbounded[position] = escaped;
            conc_with.push(if escaped {
                vec![true; program.instr_count()]
            } else {
                concurrent
            });
        }

        Mhp {
            thread_code,
            conc_with,
            unbounded,
        }
    }

    /// May `a` and `b` execute concurrently (in distinct threads, or in two
    /// live instances of the same spawn site)?
    pub fn may_happen_in_parallel(&self, a: InstrId, b: InstrId) -> bool {
        self.thread_code
            .iter()
            .zip(&self.conc_with)
            .any(|(code, conc)| {
                (code[a.index()] && conc[b.index()]) || (code[b.index()] && conc[a.index()])
            })
    }

    /// Did site `position`'s liveness escape its thread lineage (forcing the
    /// fully conservative answer)?
    pub fn is_unbounded(&self, position: usize) -> bool {
        self.unbounded[position]
    }
}

fn proc_set_to_instrs(program: &Program, procs: &[bool]) -> Vec<bool> {
    let mut instrs = vec![false; program.instr_count()];
    for (proc_index, &member) in procs.iter().enumerate() {
        if member {
            let proc = &program.procs[proc_index];
            for slot in instrs
                .iter_mut()
                .take(proc.end.index())
                .skip(proc.entry.index())
            {
                *slot = true;
            }
        }
    }
    instrs
}

/// The forward liveness dataflow for a single spawn site. Returns the
/// `ConcWith` membership vector and whether liveness escaped a spawned
/// thread-root procedure.
fn conc_with_site(
    program: &Program,
    cfg: &Cfg,
    graph: &CallGraph,
    entry: ProcId,
    site: InstrId,
) -> (Vec<bool>, bool) {
    let handle = match program.instr(site) {
        Instr::Spawn { dst, .. } => *dst,
        _ => unreachable!(),
    };

    let count = program.instr_count();
    let mut state: Vec<LiveState> = vec![None; count];
    let mut concurrent = vec![false; count];
    let mut escaped_root = false;
    // Procs whose invocations an escaping exception may abandon while the
    // site's thread is live; processed transitively.
    let mut escaped_procs = vec![false; program.procs.len()];
    let mut closure_added = vec![false; program.procs.len()];
    let mut worklist = vec![site];

    let escape_from = |proc: ProcId,
                       escaped_procs: &mut Vec<bool>,
                       state: &mut Vec<LiveState>,
                       worklist: &mut Vec<InstrId>,
                       escaped_root: &mut bool| {
        let unkillable: LiveState = Some(BTreeSet::new());
        let mut stack = vec![proc];
        while let Some(current) = stack.pop() {
            if escaped_procs[current.index()] {
                continue;
            }
            escaped_procs[current.index()] = true;
            // Root-thread death runs no new code (see module docs), but a
            // thread abandoning a *spawned* root's invocation orphans the
            // site's thread into its grandparent's continuation.
            if current != entry && graph.is_thread_root(current) {
                *escaped_root = true;
            }
            for &caller_site in graph.callers(current) {
                for edge in cfg.succs(caller_site) {
                    if merge_state(&mut state[edge.to.index()], &unkillable) {
                        worklist.push(edge.to);
                    }
                }
                stack.push(cfg.owner(caller_site));
            }
        }
    };

    while let Some(id) = worklist.pop() {
        let incoming = state[id.index()].clone();
        let instr = program.instr(id);
        let live_here = incoming.is_some();
        if live_here {
            concurrent[id.index()] = true;
        }

        // Interprocedural effects of executing `id` while live.
        if live_here {
            match instr {
                Instr::Call { proc, .. } if !closure_added[proc.index()] => {
                    closure_added[proc.index()] = true;
                    for (index, member) in proc_set_to_instrs(program, graph.thread_closure(*proc))
                        .into_iter()
                        .enumerate()
                    {
                        if member {
                            concurrent[index] = true;
                        }
                    }
                }
                Instr::Spawn { proc, .. } => {
                    // A sibling (or a re-spawn of this very site) starts
                    // while our thread is live.
                    for (index, member) in proc_set_to_instrs(program, graph.thread_closure(*proc))
                        .into_iter()
                        .enumerate()
                    {
                        if member {
                            concurrent[index] = true;
                        }
                    }
                }
                Instr::Return { .. } => {
                    let owner = cfg.owner(id);
                    if owner != entry && graph.is_thread_root(owner) {
                        // A spawned root returning with our thread live
                        // orphans it into the grandparent's continuation.
                        escaped_root = true;
                    }
                    let unkillable: LiveState = Some(BTreeSet::new());
                    for &caller_site in graph.callers(owner) {
                        for edge in cfg.succs(caller_site) {
                            if merge_state(&mut state[edge.to.index()], &unkillable) {
                                worklist.push(edge.to);
                            }
                        }
                    }
                }
                _ => {}
            }
            if cfg.may_throw(id) {
                escape_from(
                    cfg.owner(id),
                    &mut escaped_procs,
                    &mut state,
                    &mut worklist,
                    &mut escaped_root,
                );
            }
        }
        if escaped_root {
            return (concurrent, true);
        }

        // Per-edge transfer.
        let outgoing = |kind: EdgeKind| -> LiveState {
            if id == site {
                return match &incoming {
                    None => Some(handle.into_iter().collect()),
                    // Re-spawn with a previous instance live: the old
                    // instance's handle is overwritten, so no local
                    // must-holds handles of *all* live instances — no join
                    // can prove them all dead.
                    Some(_) => Some(BTreeSet::new()),
                };
            }
            let Some(aliases) = &incoming else {
                return None;
            };
            match instr {
                Instr::Join { thread } if aliases.contains(thread) => match kind {
                    // A joined must-alias proves the thread terminated.
                    EdgeKind::Normal => None,
                    // An interrupted join proves nothing; the locals still
                    // hold the handle.
                    EdgeKind::Exceptional => Some(aliases.clone()),
                },
                // A local-to-local copy of the handle: the destination now
                // must-holds it too (lowering routes `var t = spawn ...`
                // through a temp, so joins target a *copy*).
                Instr::Assign {
                    dst,
                    expr: PureExpr::Local(src),
                } if aliases.contains(src) => {
                    let mut next = aliases.clone();
                    next.insert(*dst);
                    Some(next)
                }
                _ => match written_local(instr) {
                    Some(dst) if aliases.contains(&dst) => {
                        let mut next = aliases.clone();
                        next.remove(&dst);
                        Some(next)
                    }
                    _ => Some(aliases.clone()),
                },
            }
        };
        for edge in cfg.succs(id) {
            let out = outgoing(edge.kind);
            if merge_state(&mut state[edge.to.index()], &out) {
                worklist.push(edge.to);
            }
        }
    }

    (concurrent, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(source: &str) -> (Program, Mhp) {
        let program = cil::compile(source).unwrap();
        let cfg = Cfg::build(&program);
        let entry = program.proc_named("main").unwrap();
        let graph = CallGraph::build(&program, &cfg, entry);
        let mhp = Mhp::build(&program, &cfg, &graph, entry);
        (program, mhp)
    }

    fn access(program: &Program, tag: &str) -> InstrId {
        program.tagged_access(tag)
    }

    #[test]
    fn fork_join_orders_init_and_summary() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                @init x = 5;
                var t = spawn worker();
                @mid var a = x;
                join t;
                @after var b = x;
            }
            "#,
        );
        let w = access(&program, "w");
        assert!(!mhp.may_happen_in_parallel(access(&program, "init"), w));
        assert!(mhp.may_happen_in_parallel(access(&program, "mid"), w));
        assert!(!mhp.may_happen_in_parallel(access(&program, "after"), w));
    }

    #[test]
    fn siblings_are_concurrent_but_join_separated_are_not() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc first() { @a x = 1; }
            proc second() { @b x = 2; }
            proc third() { @c x = 3; }
            proc main() {
                var t1 = spawn first();
                var t2 = spawn second();
                join t1;
                join t2;
                var t3 = spawn third();
                join t3;
            }
            "#,
        );
        let a = access(&program, "a");
        let b = access(&program, "b");
        let c = access(&program, "c");
        assert!(mhp.may_happen_in_parallel(a, b));
        assert!(!mhp.may_happen_in_parallel(a, c));
        assert!(!mhp.may_happen_in_parallel(b, c));
    }

    #[test]
    fn spawn_in_loop_races_with_itself() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc worker() { @w x = x + 1; }
            proc main() {
                var i = 0;
                while (i < 3) {
                    spawn worker();
                    i = i + 1;
                }
            }
            "#,
        );
        let writes = program.tagged_accesses("w");
        assert!(mhp.may_happen_in_parallel(writes[0], writes[1]));
    }

    #[test]
    fn joined_spawn_in_loop_is_serialized() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc worker() { @w x = x + 1; }
            proc main() {
                var i = 0;
                while (i < 3) {
                    var t = spawn worker();
                    join t;
                    i = i + 1;
                }
                @after var done = x;
            }
            "#,
        );
        let writes = program.tagged_accesses("w");
        assert!(!mhp.may_happen_in_parallel(writes[0], writes[1]));
        assert!(!mhp.may_happen_in_parallel(access(&program, "after"), writes[0]));
    }

    #[test]
    fn join_after_branch_kills_on_both_arms_only_if_present() {
        // join on one arm only: the merge keeps the thread live.
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            global flag = false;
            proc worker() { @w x = 1; }
            proc main() {
                var t = spawn worker();
                var f = flag;
                if (f) { join t; }
                @after var a = x;
            }
            "#,
        );
        assert!(mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "w")));

        // join on both arms: dead at the merge.
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            global flag = false;
            proc worker() { @w x = 1; }
            proc main() {
                var t = spawn worker();
                var f = flag;
                if (f) { join t; } else { join t; }
                @after var a = x;
            }
            "#,
        );
        assert!(!mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "w")));
    }

    #[test]
    fn overwritten_handle_defeats_join() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc first() { @a x = 1; }
            proc second() { @b x = 2; }
            proc main() {
                var t = spawn first();
                t = spawn second();
                join t;
                @after var v = x;
            }
            "#,
        );
        // `join t` only proves the *second* thread dead; the first one's
        // handle was overwritten and it may still be running.
        assert!(mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "a")));
        assert!(!mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "b")));
    }

    #[test]
    fn stored_handle_is_still_joinable() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            global h = null;
            proc worker() { @w x = 1; }
            proc main() {
                var t = spawn worker();
                h = t;
                join t;
                @after var a = x;
            }
            "#,
        );
        // Storing a *copy* of the handle does not invalidate the join: `t`
        // still must-holds the handle, so the join proves termination.
        assert!(!mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "w")));
    }

    #[test]
    fn thread_spawned_by_callee_is_concurrent_with_caller_continuation() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc start() { spawn worker(); }
            proc main() {
                start();
                @after var a = x;
            }
            "#,
        );
        // The helper returns with the worker live: everything after the
        // call may race with it.
        assert!(mhp.may_happen_in_parallel(access(&program, "after"), access(&program, "w")));
    }

    #[test]
    fn same_thread_accesses_never_parallel_without_multi_instance() {
        let (program, mhp) = analyze(
            r#"
            global x = 0;
            proc worker() { @w1 x = 1; @w2 x = 2; }
            proc main() { var t = spawn worker(); join t; }
            "#,
        );
        assert!(!mhp.may_happen_in_parallel(access(&program, "w1"), access(&program, "w2")));
    }
}
