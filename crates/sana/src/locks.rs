//! Abstract lock identities and the must-held-lockset dataflow.
//!
//! Lock objects are identified by their **allocation site** (`New` /
//! `NewArray` instructions). The [points-to analysis](crate::points_to)
//! supplies, per `(proc, local)` slot and per global cell, which allocation
//! sites may reach it ([`ValueSet`]) — including through field and element
//! loads, which the old ad-hoc value flow poisoned with `unknown`. On top
//! of that, a flow-sensitive **must** analysis (meet = ∩) tracks which
//! sites are certainly locked at each instruction:
//!
//! - `lock obj` adds the site only when `obj`'s value set is a *known
//!   singleton* — otherwise we hold "one of several" and may claim nothing;
//! - `unlock obj` removes the whole value set (everything, if unknown);
//! - a call subtracts the callee's transitive [`may-release`] set — the
//!   sites its raw (non-`sync`) unlocks might release on our behalf;
//! - exceptional edges carry ∅: unwinding releases `sync` monitors, and we
//!   do not track which held sites were monitor-acquired;
//! - a spawned thread starts with ∅; a callee starts with the intersection
//!   of its call sites' in-states.
//!
//! A must-held site proves two accesses *commonly locked* only when the
//! site allocates at most once per run ([`ExecCount::One`](crate::callgraph::ExecCount::One)) — otherwise
//! "an object from site `a`" names different runtime locks in different
//! threads. That stability check lives in the filter, not here.
//!
//! [`may-release`]: LockAnalysis::may_release

use std::collections::BTreeSet;

use cil::flat::{GlobalId, Instr, InstrId, LocalId, ProcId};
use cil::Program;

use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, EdgeKind};
use crate::points_to::PointsTo;

/// Which allocation sites may reach a slot — the points-to domain, re-named
/// here for the lock clients that predate [`crate::points_to`].
pub use crate::points_to::PtsSet as ValueSet;

/// What a procedure (transitively) may unlock on its caller's behalf.
#[derive(Clone, Debug, Default, PartialEq)]
struct ReleaseSet {
    sites: BTreeSet<InstrId>,
    all: bool,
}

/// Value-flow plus must-lockset results.
#[derive(Clone, Debug)]
pub struct LockAnalysis {
    /// `values[proc][local]` — sites reaching that slot.
    values: Vec<Vec<ValueSet>>,
    /// `global_flow[global]` — sites stored into that global.
    global_flow: Vec<ValueSet>,
    /// Must-held sites entering each instruction; `None` = unreachable.
    must_in: Vec<Option<BTreeSet<InstrId>>>,
    /// Per proc: sites its raw unlocks may release.
    may_release: Vec<ReleaseSet>,
}

impl LockAnalysis {
    /// Derives value sets from the points-to solution, then runs
    /// may-release and the must dataflow.
    pub fn build(
        program: &Program,
        cfg: &Cfg,
        graph: &CallGraph,
        pts: &PointsTo,
        entry: ProcId,
    ) -> LockAnalysis {
        let values: Vec<Vec<ValueSet>> = program
            .procs
            .iter()
            .enumerate()
            .map(|(index, proc)| {
                let proc_id = ProcId(index as u32);
                (0..proc.local_count())
                    .map(|local| pts.local(proc_id, LocalId(local as u32)).clone())
                    .collect()
            })
            .collect();
        let global_flow: Vec<ValueSet> = (0..program.globals.len())
            .map(|global| pts.global(GlobalId(global as u32)).clone())
            .collect();
        let may_release = may_release_sets(program, cfg, &values);
        let must_in = must_locksets(program, cfg, graph, entry, &values, &may_release);
        LockAnalysis {
            values,
            global_flow,
            must_in,
            may_release,
        }
    }

    /// Sites that may reach local `local` of `proc`.
    pub fn value_set(&self, proc: ProcId, local: LocalId) -> &ValueSet {
        &self.values[proc.index()][local.index()]
    }

    /// Sites that may be stored in `global`.
    pub fn global_value_set(&self, global: GlobalId) -> &ValueSet {
        &self.global_flow[global.index()]
    }

    /// Sites certainly locked when `id` starts executing, or `None` if the
    /// analysis never reached `id` (dead code).
    pub fn must_lockset(&self, id: InstrId) -> Option<&BTreeSet<InstrId>> {
        self.must_in[id.index()].as_ref()
    }

    /// May calling `proc` (transitively) release the lock allocated at
    /// `site` on its caller's behalf?
    pub fn may_release(&self, proc: ProcId, site: InstrId) -> bool {
        let set = &self.may_release[proc.index()];
        set.all || set.sites.contains(&site)
    }

    /// For a `Lock` site: the single known allocation site it acquires.
    pub fn lock_target(&self, program: &Program, cfg: &Cfg, id: InstrId) -> Option<InstrId> {
        match program.instr(id) {
            Instr::Lock { obj, .. } => self.value_set(cfg.owner(id), *obj).singleton(),
            _ => None,
        }
    }

    /// May the two slots hold a common runtime object?
    pub fn may_alias(&self, a: (ProcId, LocalId), b: (ProcId, LocalId)) -> bool {
        self.value_set(a.0, a.1)
            .may_overlap(self.value_set(b.0, b.1))
    }

    /// The single allocation site both slots certainly name, if their value
    /// sets are the *same known singleton*. Whether that site allocates at
    /// most once per run (so "same site" means "same object") is the
    /// caller's [`ExecCount`](crate::callgraph::ExecCount) question.
    pub fn must_alias(&self, a: (ProcId, LocalId), b: (ProcId, LocalId)) -> Option<InstrId> {
        self.value_set(a.0, a.1)
            .must_alias(self.value_set(b.0, b.1))
    }
}

fn may_release_sets(program: &Program, cfg: &Cfg, values: &[Vec<ValueSet>]) -> Vec<ReleaseSet> {
    let mut release = vec![ReleaseSet::default(); program.procs.len()];
    loop {
        let mut changed = false;
        for (index, instr) in program.instrs.iter().enumerate() {
            let id = InstrId(index as u32);
            let proc = cfg.owner(id).index();
            match instr {
                // `sync` unlocks are balanced by the callee's own acquires;
                // only raw unlocks can release a caller's lock.
                Instr::Unlock {
                    obj,
                    monitor: false,
                } => {
                    let set = &values[proc][obj.index()];
                    if set.unknown && !release[proc].all {
                        release[proc].all = true;
                        changed = true;
                    }
                    for &site in &set.sites {
                        changed |= release[proc].sites.insert(site);
                    }
                }
                Instr::Call { proc: callee, .. } => {
                    let callee_release = release[callee.index()].clone();
                    if callee_release.all && !release[proc].all {
                        release[proc].all = true;
                        changed = true;
                    }
                    for &site in &callee_release.sites {
                        changed |= release[proc].sites.insert(site);
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return release;
        }
    }
}

fn must_locksets(
    program: &Program,
    cfg: &Cfg,
    graph: &CallGraph,
    entry: ProcId,
    values: &[Vec<ValueSet>],
    may_release: &[ReleaseSet],
) -> Vec<Option<BTreeSet<InstrId>>> {
    let mut state: Vec<Option<BTreeSet<InstrId>>> = vec![None; program.instr_count()];
    let mut worklist: Vec<InstrId> = Vec::new();

    let meet = |state: &mut Vec<Option<BTreeSet<InstrId>>>,
                worklist: &mut Vec<InstrId>,
                to: InstrId,
                incoming: &BTreeSet<InstrId>| {
        let slot = &mut state[to.index()];
        let changed = match slot {
            None => {
                *slot = Some(incoming.clone());
                true
            }
            Some(existing) => {
                let narrowed: BTreeSet<InstrId> =
                    existing.intersection(incoming).copied().collect();
                if narrowed.len() != existing.len() {
                    *existing = narrowed;
                    true
                } else {
                    false
                }
            }
        };
        if changed {
            worklist.push(to);
        }
    };

    let empty = BTreeSet::new();
    meet(
        &mut state,
        &mut worklist,
        program.procs[entry.index()].entry,
        &empty,
    );
    for &site in &graph.spawn_sites {
        if let Instr::Spawn { proc, .. } = program.instr(site) {
            meet(
                &mut state,
                &mut worklist,
                program.procs[proc.index()].entry,
                &empty,
            );
        }
    }

    while let Some(id) = worklist.pop() {
        let Some(incoming) = state[id.index()].clone() else {
            continue;
        };
        let proc = cfg.owner(id);
        let mut normal_out = incoming.clone();
        match program.instr(id) {
            Instr::Lock { obj, .. } => {
                if let Some(site) = values[proc.index()][obj.index()].singleton() {
                    normal_out.insert(site);
                }
            }
            Instr::Unlock { obj, .. } => {
                let set = &values[proc.index()][obj.index()];
                if set.unknown {
                    normal_out.clear();
                } else {
                    for site in &set.sites {
                        normal_out.remove(site);
                    }
                }
            }
            Instr::Call { proc: callee, .. } => {
                // The callee runs on this thread with our locks held.
                meet(
                    &mut state,
                    &mut worklist,
                    program.procs[callee.index()].entry,
                    &incoming,
                );
                let released = &may_release[callee.index()];
                if released.all {
                    normal_out.clear();
                } else {
                    for site in &released.sites {
                        normal_out.remove(site);
                    }
                }
            }
            _ => {}
        }
        for edge in cfg.succs(id) {
            match edge.kind {
                EdgeKind::Normal => meet(&mut state, &mut worklist, edge.to, &normal_out),
                // Unwinding releases `sync` monitors; we do not track which
                // held sites those are, so promise nothing in handlers.
                EdgeKind::Exceptional => meet(&mut state, &mut worklist, edge.to, &empty),
            }
        }
    }

    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(source: &str) -> (Program, Cfg, LockAnalysis) {
        let program = cil::compile(source).unwrap();
        let cfg = Cfg::build(&program);
        let entry = program.proc_named("main").unwrap();
        let graph = CallGraph::build(&program, &cfg, entry);
        let pts = PointsTo::build(&program, &cfg, entry);
        let locks = LockAnalysis::build(&program, &cfg, &graph, &pts, entry);
        (program, cfg, locks)
    }

    fn must_at(program: &Program, locks: &LockAnalysis, tag: &str) -> usize {
        locks
            .must_lockset(program.tagged_access(tag))
            .map(BTreeSet::len)
            .unwrap_or(0)
    }

    #[test]
    fn sync_block_establishes_must_lock() {
        let (program, _, locks) = analyze(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc main() {
                l = new Lock;
                sync (l) { @inside x = 1; }
                @outside x = 2;
            }
            "#,
        );
        assert_eq!(must_at(&program, &locks, "inside"), 1);
        assert_eq!(must_at(&program, &locks, "outside"), 0);
    }

    #[test]
    fn two_locks_nest_and_branches_intersect() {
        let (program, _, locks) = analyze(
            r#"
            class Lock { }
            global a;
            global b;
            global flag = false;
            global x = 0;
            proc main() {
                a = new Lock;
                b = new Lock;
                var f = flag;
                sync (a) {
                    sync (b) { @both x = 1; }
                    @only_a x = 2;
                }
                if (f) { lock a; } else { lock b; }
                @either x = 3;
            }
            "#,
        );
        assert_eq!(must_at(&program, &locks, "both"), 2);
        assert_eq!(must_at(&program, &locks, "only_a"), 1);
        // Holding "a or b" is no must-lock at all.
        assert_eq!(must_at(&program, &locks, "either"), 0);
    }

    #[test]
    fn lock_passed_as_argument_keeps_identity() {
        let (program, _, locks) = analyze(
            r#"
            class Lock { }
            global x = 0;
            proc work(m) {
                sync (m) { @guarded x = 1; }
            }
            proc main() {
                var l = new Lock;
                work(l);
            }
            "#,
        );
        assert_eq!(must_at(&program, &locks, "guarded"), 1);
    }

    #[test]
    fn raw_unlock_in_callee_clears_callers_must_set() {
        let (program, _, locks) = analyze(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc sneaky() {
                var m = l;
                unlock m;
                lock m;
            }
            proc main() {
                l = new Lock;
                var m = l;
                lock m;
                @before x = 1;
                sneaky();
                @after x = 2;
                unlock m;
            }
            "#,
        );
        assert_eq!(must_at(&program, &locks, "before"), 1);
        assert_eq!(must_at(&program, &locks, "after"), 0);
    }

    #[test]
    fn heap_loaded_lock_resolves_through_points_to() {
        let (program, cfg, locks) = analyze(
            r#"
            class Box { guard }
            class Lock { }
            global box;
            global x = 0;
            proc main() {
                box = new Box;
                box.guard = new Lock;
                var b = box;
                var m = b.guard;
                sync (m) { @guarded x = 1; }
            }
            "#,
        );
        // The lock came through a field load, but points-to resolves
        // `box.guard` to the single Lock allocation: the must-lock claim
        // survives the heap round-trip.
        assert_eq!(must_at(&program, &locks, "guarded"), 1);
        let lock_alloc = program
            .instrs
            .iter()
            .enumerate()
            .find(|(_, instr)| matches!(instr, Instr::New { class, .. } if class.index() == 1))
            .map(|(index, _)| InstrId(index as u32))
            .unwrap();
        let lock_site = program
            .instrs
            .iter()
            .enumerate()
            .find(|(_, instr)| matches!(instr, Instr::Lock { .. }))
            .map(|(index, _)| InstrId(index as u32))
            .unwrap();
        assert_eq!(
            locks.lock_target(&program, &cfg, lock_site),
            Some(lock_alloc)
        );
    }

    #[test]
    fn spawned_thread_starts_with_empty_lockset() {
        let (program, _, locks) = analyze(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                l = new Lock;
                var m = l;
                lock m;
                var t = spawn worker();
                join t;
                unlock m;
            }
            "#,
        );
        assert_eq!(must_at(&program, &locks, "w"), 0);
    }
}
