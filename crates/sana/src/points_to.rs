//! Flow-insensitive, field-sensitive, Andersen-style interprocedural
//! points-to analysis over the flat CIL IR.
//!
//! Abstract objects are **allocation sites** (`New` / `NewArray`
//! instructions). The analysis assigns every pointer-carrying slot — each
//! `(proc, local)`, each global, each `(site, field)` heap cell, each
//! site's array-element soup, and each procedure's return channel — a
//! [`PtsSet`]: the sites whose objects the slot may hold, plus an `unknown`
//! bit for references the analysis cannot name (entry parameters, loads
//! through `unknown` bases).
//!
//! Constraints are generated once per instruction and solved with a
//! standard worklist: subset edges for copies (`Assign`, global load/store,
//! call/spawn parameter binding, returns) and *complex* constraints for
//! field/element loads and stores, which materialize new subset edges as
//! the base slot's points-to set grows.
//!
//! # `unknown` (⊤) discipline
//!
//! `unknown` is the sound escape hatch, and every client query treats it
//! conservatively: a may-alias check involving `unknown` answers "maybe",
//! a must-singleton check fails, and an escape check answers "escaped".
//! Two flows keep stores sound around it:
//!
//! - a **store through an `unknown` base** could hit any object's field,
//!   so the stored sites are routed into a dedicated [`leaked`] set (they
//!   escape) and the field is marked *tainted* — every load of a tainted
//!   field, from any base, is poisoned with `unknown`;
//! - a **load through an `unknown` base** yields `unknown`.
//!
//! Flow-insensitivity (one set per slot for the whole program) is
//! acceptable here because every client is itself a may/whole-program
//! query: candidate generation wants an over-approximation, escape wants
//! "ever reachable", and the must-lockset pass layers its own
//! flow-sensitive dataflow *on top of* these value sets. See DESIGN.md
//! §13.
//!
//! [`leaked`]: PointsTo::leaked

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cil::flat::{GlobalId, Instr, InstrId, LocalId, ProcId, PureExpr};
use cil::{Program, Symbol};

use crate::cfg::Cfg;

/// Which allocation sites a slot may point to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PtsSet {
    /// Possible allocation sites.
    pub sites: BTreeSet<InstrId>,
    /// The slot may also hold references the analysis cannot name
    /// (an entry parameter, or a value loaded through an `unknown` base
    /// or a tainted field).
    pub unknown: bool,
}

impl PtsSet {
    /// The single known site, if this set is a known singleton.
    pub fn singleton(&self) -> Option<InstrId> {
        if self.unknown || self.sites.len() != 1 {
            None
        } else {
            self.sites.iter().next().copied()
        }
    }

    /// May the two sets name a common runtime object? (`unknown` on either
    /// side answers yes.)
    pub fn may_overlap(&self, other: &PtsSet) -> bool {
        self.unknown || other.unknown || self.sites.intersection(&other.sites).next().is_some()
    }

    /// Do the two sets certainly name the *same single* runtime object
    /// from `site`? True only when both are the same known singleton;
    /// whether that site allocates once per run is the caller's
    /// (call-graph) question.
    pub fn must_alias(&self, other: &PtsSet) -> Option<InstrId> {
        match (self.singleton(), other.singleton()) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    pub(crate) fn absorb(&mut self, other: &PtsSet) -> bool {
        let before = (self.sites.len(), self.unknown);
        self.sites.extend(other.sites.iter().copied());
        self.unknown |= other.unknown;
        before != (self.sites.len(), self.unknown)
    }

    pub(crate) fn mark_unknown(&mut self) -> bool {
        let changed = !self.unknown;
        self.unknown = true;
        changed
    }
}

/// A heap cell within an abstract object: a named field or the collapsed
/// array-element soup (index-insensitive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum HeapKey {
    Field(Symbol),
    Elems,
}

/// The solved points-to facts for one program + entry.
#[derive(Clone, Debug)]
pub struct PointsTo {
    /// Node index base of each proc's locals.
    local_base: Vec<usize>,
    /// Node index of global `g` is `global_base + g`.
    global_base: usize,
    /// Node index of proc `p`'s return channel is `return_base + p`.
    return_base: usize,
    /// Final solution, indexed by node.
    pts: Vec<PtsSet>,
    /// Heap-cell nodes, keyed by (allocation site, cell).
    heap_nodes: BTreeMap<(InstrId, HeapKey), usize>,
    /// Fields some store reached through an `unknown` base: loads of these
    /// yield `unknown` from any base.
    tainted: BTreeSet<HeapKey>,
    /// Sites stored through an `unknown` base — reachable from memory the
    /// analysis cannot name, so escape analysis must treat them as shared.
    leaked: PtsSet,
}

impl PointsTo {
    /// Generates and solves the constraint system for `program` entered at
    /// `entry`.
    pub fn build(program: &Program, cfg: &Cfg, entry: ProcId) -> PointsTo {
        Solver::new(program, cfg, entry).solve()
    }

    /// Sites that may reach local `local` of `proc`.
    pub fn local(&self, proc: ProcId, local: LocalId) -> &PtsSet {
        &self.pts[self.local_base[proc.index()] + local.index()]
    }

    /// Sites that may be stored in `global`.
    pub fn global(&self, global: GlobalId) -> &PtsSet {
        &self.pts[self.global_base + global.index()]
    }

    /// Sites `proc` may return.
    pub fn returned(&self, proc: ProcId) -> &PtsSet {
        &self.pts[self.return_base + proc.index()]
    }

    /// Sites that may be stored in field `field` of objects allocated at
    /// `site` (plus `unknown` if the field is tainted).
    pub fn field(&self, site: InstrId, field: Symbol) -> PtsSet {
        self.heap_cell(site, HeapKey::Field(field))
    }

    /// Sites that may be stored in elements of arrays allocated at `site`.
    pub fn elems(&self, site: InstrId) -> PtsSet {
        self.heap_cell(site, HeapKey::Elems)
    }

    fn heap_cell(&self, site: InstrId, key: HeapKey) -> PtsSet {
        let mut set = self
            .heap_nodes
            .get(&(site, key))
            .map(|&node| self.pts[node].clone())
            .unwrap_or_default();
        if self.tainted.contains(&key) {
            set.mark_unknown();
        }
        set
    }

    /// The value of a pure expression in `proc` (only `Local` operands can
    /// carry references; arithmetic and constants are scalars).
    pub fn expr(&self, proc: ProcId, expr: &PureExpr) -> PtsSet {
        match expr {
            PureExpr::Local(id) => self.local(proc, *id).clone(),
            PureExpr::Const(_)
            | PureExpr::Unary { .. }
            | PureExpr::Binary { .. }
            | PureExpr::Len(_) => PtsSet::default(),
        }
    }

    /// Sites stored through bases the analysis cannot name — conservatively
    /// reachable by any thread.
    pub fn leaked(&self) -> &PtsSet {
        &self.leaked
    }

    /// The heap cells with at least one known inflow, for escape closure:
    /// `(site, contents)` pairs, array elements collapsed per site.
    pub(crate) fn heap_contents(&self, site: InstrId) -> Vec<&PtsSet> {
        self.heap_nodes
            .range((site, HeapKey::Field(Symbol(0)))..=(site, HeapKey::Elems))
            .filter(|((s, _), _)| *s == site)
            .map(|(_, &node)| &self.pts[node])
            .collect()
    }
}

/// The constraint-graph worklist solver.
struct Solver<'p> {
    program: &'p Program,
    cfg: &'p Cfg,
    local_base: Vec<usize>,
    global_base: usize,
    return_base: usize,
    pts: Vec<PtsSet>,
    /// Subset edges `from → to`.
    edges: Vec<BTreeSet<usize>>,
    /// Complex load constraints per base node: `dst ⊇ pts(s).key` for each
    /// `s ∈ pts(base)`.
    loads: Vec<Vec<(HeapKey, usize)>>,
    /// Complex store constraints per base node: `pts(s).key ⊇ src`.
    stores: Vec<Vec<(HeapKey, usize)>>,
    heap_nodes: BTreeMap<(InstrId, HeapKey), usize>,
    /// Load destinations per cell key, so a late taint can poison earlier
    /// loads.
    load_dsts: BTreeMap<HeapKey, Vec<usize>>,
    tainted: BTreeSet<HeapKey>,
    /// Node collecting everything stored through an `unknown` base.
    leaked_node: usize,
    worklist: VecDeque<usize>,
    queued: Vec<bool>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, cfg: &'p Cfg, entry: ProcId) -> Solver<'p> {
        let mut local_base = Vec::with_capacity(program.procs.len());
        let mut next = 0usize;
        for proc in &program.procs {
            local_base.push(next);
            next += proc.local_count();
        }
        let global_base = next;
        next += program.globals.len();
        let return_base = next;
        next += program.procs.len();
        let leaked_node = next;
        next += 1;

        let mut solver = Solver {
            program,
            cfg,
            local_base,
            global_base,
            return_base,
            pts: vec![PtsSet::default(); next],
            edges: vec![BTreeSet::new(); next],
            loads: vec![Vec::new(); next],
            stores: vec![Vec::new(); next],
            heap_nodes: BTreeMap::new(),
            load_dsts: BTreeMap::new(),
            tainted: BTreeSet::new(),
            leaked_node,
            worklist: VecDeque::new(),
            queued: vec![false; next],
        };

        // The harness invokes the entry with no arguments in this suite,
        // but an entry with parameters would receive arbitrary values.
        for position in 0..program.procs[entry.index()].param_count {
            let node = solver.local_node(entry, LocalId(position as u32));
            solver.poison(node);
        }
        solver.generate();
        solver
    }

    fn local_node(&self, proc: ProcId, local: LocalId) -> usize {
        self.local_base[proc.index()] + local.index()
    }

    fn expr_locals(expr: &PureExpr) -> Option<LocalId> {
        match expr {
            PureExpr::Local(id) => Some(*id),
            // Arithmetic never produces references; constants (incl. null)
            // name no allocation site.
            PureExpr::Const(_)
            | PureExpr::Unary { .. }
            | PureExpr::Binary { .. }
            | PureExpr::Len(_) => None,
        }
    }

    fn enqueue(&mut self, node: usize) {
        if !self.queued[node] {
            self.queued[node] = true;
            self.worklist.push_back(node);
        }
    }

    fn seed_site(&mut self, node: usize, site: InstrId) {
        if self.pts[node].sites.insert(site) {
            self.enqueue(node);
        }
    }

    fn poison(&mut self, node: usize) {
        if self.pts[node].mark_unknown() {
            self.enqueue(node);
        }
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        if from != to && self.edges[from].insert(to) {
            let flow = self.pts[from].clone();
            if self.pts[to].absorb(&flow) {
                self.enqueue(to);
            }
        }
    }

    fn heap_node(&mut self, site: InstrId, key: HeapKey) -> usize {
        if let Some(&node) = self.heap_nodes.get(&(site, key)) {
            return node;
        }
        let node = self.pts.len();
        self.pts.push(PtsSet::default());
        self.edges.push(BTreeSet::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.queued.push(false);
        self.heap_nodes.insert((site, key), node);
        node
    }

    fn add_load(&mut self, base: usize, key: HeapKey, dst: usize) {
        self.loads[base].push((key, dst));
        self.load_dsts.entry(key).or_default().push(dst);
        if self.tainted.contains(&key) || self.pts[base].unknown {
            self.poison(dst);
        }
        // Existing base sites produce their edges when `base` is
        // (re)processed below; new registrations trigger it explicitly.
        self.enqueue(base);
    }

    fn add_store(&mut self, base: usize, key: HeapKey, src: usize) {
        self.stores[base].push((key, src));
        self.enqueue(base);
    }

    fn taint(&mut self, key: HeapKey) {
        if self.tainted.insert(key) {
            for dst in self.load_dsts.get(&key).cloned().unwrap_or_default() {
                self.poison(dst);
            }
        }
    }

    /// Scans every instruction once, installing base constraints and
    /// registering complex ones.
    fn generate(&mut self) {
        for (index, instr) in self.program.instrs.iter().enumerate() {
            let id = InstrId(index as u32);
            let proc = self.cfg.owner(id);
            match instr {
                Instr::New { dst, .. } | Instr::NewArray { dst, .. } => {
                    let node = self.local_node(proc, *dst);
                    self.seed_site(node, id);
                }
                Instr::Assign { dst, expr } => {
                    if let Some(src) = Self::expr_locals(expr) {
                        let from = self.local_node(proc, src);
                        let to = self.local_node(proc, *dst);
                        self.add_edge(from, to);
                    }
                }
                Instr::LoadGlobal { dst, global } => {
                    let from = self.global_base + global.index();
                    let to = self.local_node(proc, *dst);
                    self.add_edge(from, to);
                }
                Instr::StoreGlobal { global, src } => {
                    if let Some(local) = Self::expr_locals(src) {
                        let from = self.local_node(proc, local);
                        self.add_edge(from, self.global_base + global.index());
                    }
                }
                Instr::LoadField { dst, obj, field } => {
                    let base = self.local_node(proc, *obj);
                    let to = self.local_node(proc, *dst);
                    self.add_load(base, HeapKey::Field(*field), to);
                }
                Instr::StoreField { obj, field, src } => {
                    if let Some(local) = Self::expr_locals(src) {
                        let base = self.local_node(proc, *obj);
                        let from = self.local_node(proc, local);
                        self.add_store(base, HeapKey::Field(*field), from);
                    }
                }
                Instr::LoadElem { dst, arr, .. } => {
                    let base = self.local_node(proc, *arr);
                    let to = self.local_node(proc, *dst);
                    self.add_load(base, HeapKey::Elems, to);
                }
                Instr::StoreElem { arr, src, .. } => {
                    if let Some(local) = Self::expr_locals(src) {
                        let base = self.local_node(proc, *arr);
                        let from = self.local_node(proc, local);
                        self.add_store(base, HeapKey::Elems, from);
                    }
                }
                Instr::Call {
                    dst,
                    proc: callee,
                    args,
                } => {
                    self.bind_args(proc, *callee, args);
                    if let Some(dst) = dst {
                        let from = self.return_base + callee.index();
                        let to = self.local_node(proc, *dst);
                        self.add_edge(from, to);
                    }
                }
                Instr::Spawn {
                    proc: callee, args, ..
                } => {
                    // Thread handles are opaque; the spawn's dst slot gains
                    // no allocation site.
                    self.bind_args(proc, *callee, args);
                }
                Instr::Return { value: Some(value) } => {
                    if let Some(local) = Self::expr_locals(value) {
                        let from = self.local_node(proc, local);
                        self.add_edge(from, self.return_base + proc.index());
                    }
                }
                _ => {}
            }
        }
    }

    fn bind_args(&mut self, caller: ProcId, callee: ProcId, args: &[PureExpr]) {
        for (position, arg) in args.iter().enumerate() {
            if let Some(local) = Self::expr_locals(arg) {
                let from = self.local_node(caller, local);
                let to = self.local_node(callee, LocalId(position as u32));
                self.add_edge(from, to);
            }
        }
    }

    /// Propagates to fixpoint: drains the worklist, materializing complex
    /// edges as base sets grow and re-propagating along subset edges.
    fn solve(mut self) -> PointsTo {
        while let Some(node) = self.worklist.pop_front() {
            self.queued[node] = false;
            let set = self.pts[node].clone();

            // Complex constraints where `node` is the base: each site in
            // its set materializes load/store edges (idempotent).
            for (key, dst) in self.loads[node].clone() {
                for &site in &set.sites {
                    let cell = self.heap_node(site, key);
                    self.add_edge(cell, dst);
                }
                if set.unknown || self.tainted.contains(&key) {
                    self.poison(dst);
                }
            }
            for (key, src) in self.stores[node].clone() {
                for &site in &set.sites {
                    let cell = self.heap_node(site, key);
                    self.add_edge(src, cell);
                }
                if set.unknown {
                    // The base could be any object: the stored sites leak
                    // and every load of this cell kind is poisoned.
                    self.add_edge(src, self.leaked_node);
                    self.taint(key);
                }
            }

            // Simple subset edges out of `node`.
            for to in self.edges[node].clone() {
                if self.pts[to].absorb(&set) {
                    self.enqueue(to);
                }
            }
        }

        let leaked = self.pts[self.leaked_node].clone();
        PointsTo {
            local_base: self.local_base,
            global_base: self.global_base,
            return_base: self.return_base,
            pts: self.pts,
            heap_nodes: self.heap_nodes,
            tainted: self.tainted,
            leaked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(source: &str) -> (Program, Cfg, PointsTo) {
        let program = cil::compile(source).unwrap();
        let cfg = Cfg::build(&program);
        let entry = program.proc_named("main").unwrap();
        let pts = PointsTo::build(&program, &cfg, entry);
        (program, cfg, pts)
    }

    /// The local slot written by the tagged instruction.
    fn slot_of(program: &Program, cfg: &Cfg, tag: &str) -> (ProcId, LocalId) {
        let id = program.tagged_access(tag);
        let proc = cfg.owner(id);
        let local = match program.instr(id) {
            Instr::LoadField { dst, .. }
            | Instr::LoadElem { dst, .. }
            | Instr::LoadGlobal { dst, .. } => *dst,
            other => panic!("tag `{tag}` is not a load: {other:?}"),
        };
        (proc, local)
    }

    fn alloc_sites(program: &Program) -> Vec<InstrId> {
        program
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, instr)| matches!(instr, Instr::New { .. } | Instr::NewArray { .. }))
            .map(|(index, _)| InstrId(index as u32))
            .collect()
    }

    #[test]
    fn field_load_resolves_to_stored_site() {
        let (program, cfg, pts) = build(
            r#"
            class Box { inner }
            class Point { x }
            global b;
            proc main() {
                b = new Box;
                var p = new Point;
                b.inner = p;
                var q = b;
                @load var r = q.inner;
                r.x = 1;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        let (proc, local) = slot_of(&program, &cfg, "load");
        let set = pts.local(proc, local);
        // `r` resolves to exactly the Point allocation, without unknown.
        assert!(!set.unknown, "{set:?}");
        assert_eq!(set.singleton(), Some(sites[1]));
    }

    #[test]
    fn interprocedural_flow_through_call_and_return() {
        let (program, cfg, pts) = build(
            r#"
            class Point { x }
            proc id(p) { return p; }
            proc main() {
                var a = new Point;
                var b = id(a);
                @load var v = b.x;
                print v;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        let id_proc = program.proc_named("id").unwrap();
        assert_eq!(pts.returned(id_proc).singleton(), Some(sites[0]));
        // The base of the tagged load is `b`, which holds the same site.
        let load = program.tagged_access("load");
        let base = match program.instr(load) {
            Instr::LoadField { obj, .. } => *obj,
            _ => unreachable!(),
        };
        assert_eq!(pts.local(cfg.owner(load), base).singleton(), Some(sites[0]));
    }

    #[test]
    fn spawn_binds_arguments_to_thread_params() {
        let (program, cfg, pts) = build(
            r#"
            class Point { x }
            proc worker(p) { p.x = 1; }
            proc main() {
                var a = new Point;
                var t = spawn worker(a);
                join t;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        let worker = program.proc_named("worker").unwrap();
        assert_eq!(pts.local(worker, LocalId(0)).singleton(), Some(sites[0]));
        // The spawn handle itself is opaque: no sites, not unknown.
        let (spawn_id, handle_slot) = program
            .instrs
            .iter()
            .enumerate()
            .find_map(|(index, instr)| match instr {
                Instr::Spawn { dst: Some(dst), .. } => Some((InstrId(index as u32), *dst)),
                _ => None,
            })
            .unwrap();
        let handle = pts.local(cfg.owner(spawn_id), handle_slot);
        assert!(handle.sites.is_empty() && !handle.unknown, "{handle:?}");
    }

    #[test]
    fn two_stores_merge_in_the_field_cell() {
        let (program, cfg, pts) = build(
            r#"
            class Box { inner }
            class Point { x }
            global flag = false;
            proc main() {
                var b = new Box;
                var p = new Point;
                var q = new Point;
                if (flag) { b.inner = p; } else { b.inner = q; }
                var f = flag;
                @load var r = b.inner;
                print f;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        let (proc, local) = slot_of(&program, &cfg, "load");
        let set = pts.local(proc, local);
        assert!(!set.unknown);
        assert_eq!(
            set.sites,
            BTreeSet::from([sites[1], sites[2]]),
            "both Point sites reach the load"
        );
        assert_eq!(set.singleton(), None);
    }

    #[test]
    fn store_through_unknown_base_taints_and_leaks() {
        let (program, cfg, pts) = build(
            r#"
            class Box { inner }
            class Point { x }
            proc main(mystery) {
                var p = new Point;
                mystery.inner = p;
                var b = new Box;
                @load var r = b.inner;
                print 0;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        // `p` was stored through an entry-parameter base: it leaks…
        assert!(pts.leaked().sites.contains(&sites[0]));
        // …and loads of `inner` from *any* base are poisoned, because the
        // unknown base might alias them.
        let (proc, local) = slot_of(&program, &cfg, "load");
        assert!(pts.local(proc, local).unknown);
    }

    #[test]
    fn array_elements_collapse_per_site() {
        let (program, cfg, pts) = build(
            r#"
            class Point { x }
            proc main() {
                var a = new [4];
                var p = new Point;
                a[0] = p;
                @load var r = a[3];
                r.x = 1;
            }
            "#,
        );
        let sites = alloc_sites(&program);
        let (proc, local) = slot_of(&program, &cfg, "load");
        // Index-insensitive: the element soup holds the Point site.
        assert_eq!(pts.local(proc, local).singleton(), Some(sites[1]));
        assert_eq!(pts.elems(sites[0]).singleton(), Some(sites[1]));
    }

    #[test]
    fn may_overlap_and_must_alias_queries() {
        let a = PtsSet {
            sites: BTreeSet::from([InstrId(1)]),
            unknown: false,
        };
        let b = PtsSet {
            sites: BTreeSet::from([InstrId(1)]),
            unknown: false,
        };
        let c = PtsSet {
            sites: BTreeSet::from([InstrId(2)]),
            unknown: false,
        };
        let top = PtsSet {
            sites: BTreeSet::new(),
            unknown: true,
        };
        assert!(a.may_overlap(&b));
        assert!(!a.may_overlap(&c));
        assert!(a.may_overlap(&top), "unknown may overlap anything");
        assert_eq!(a.must_alias(&b), Some(InstrId(1)));
        assert_eq!(a.must_alias(&c), None);
        assert_eq!(a.must_alias(&top), None, "unknown is never a must");
    }
}
