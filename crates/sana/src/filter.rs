//! The static race-candidate filter.
//!
//! Combines the MHP, must-lockset, and escape analyses into one question:
//! *can this candidate pair possibly be a race in any execution?* A `Some`
//! answer from [`StaticRaceFilter::refute`] is a proof of impossibility
//! (under the well-typedness assumptions in the crate root), so pruning the
//! pair before Phase 2 loses no confirmable race — and a dynamic detector
//! confirming a refuted pair has a soundness bug, which
//! [`StaticRaceFilter::cross_check`] reports.

use std::fmt;

use cil::flat::{InstrId, ProcId};
use cil::Program;
use detector::RacePair;

use crate::callgraph::{CallGraph, ExecCount};
use crate::cfg::Cfg;
use crate::escape::EscapeAnalysis;
use crate::locks::LockAnalysis;
use crate::mhp::Mhp;
use crate::points_to::PointsTo;

/// Why a candidate pair cannot race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PruneReason {
    /// Spawn/join structure orders the two statements in every execution.
    MhpImpossible,
    /// Both statements must hold the same runtime lock (a known singleton
    /// identity from an allocate-once site).
    CommonLock,
    /// A statement's base object never escapes its creating thread, so no
    /// second thread can touch the location.
    ThreadConfined,
    /// The statements' access footprints provably never name the same
    /// dynamic location (disjoint place kinds, distinct globals or field
    /// names, non-overlapping points-to bases, or distinct constant
    /// element indices).
    FootprintNoAlias,
}

impl PruneReason {
    /// Stable machine-readable tag (used in artifacts and checkpoints).
    pub fn tag(&self) -> &'static str {
        match self {
            PruneReason::MhpImpossible => "mhp-impossible",
            PruneReason::CommonLock => "common-lock",
            PruneReason::ThreadConfined => "thread-confined",
            PruneReason::FootprintNoAlias => "footprint-no-alias",
        }
    }

    /// Parses a [`PruneReason::tag`] back.
    pub fn from_tag(tag: &str) -> Option<PruneReason> {
        match tag {
            "mhp-impossible" => Some(PruneReason::MhpImpossible),
            "common-lock" => Some(PruneReason::CommonLock),
            "thread-confined" => Some(PruneReason::ThreadConfined),
            "footprint-no-alias" => Some(PruneReason::FootprintNoAlias),
            _ => None,
        }
    }
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Per-run pruning statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Pairs examined.
    pub candidates: usize,
    /// Pruned because the statements can never overlap in time.
    pub pruned_mhp: usize,
    /// Pruned because a common allocate-once lock is always held.
    pub pruned_common_lock: usize,
    /// Pruned because the touched object is confined to one thread.
    pub pruned_confined: usize,
    /// Pruned because the access footprints provably never alias.
    pub pruned_footprint: usize,
    /// Pairs that survived for Phase 2.
    pub kept: usize,
}

impl FilterStats {
    /// Total pruned pairs.
    pub fn pruned(&self) -> usize {
        self.pruned_mhp + self.pruned_common_lock + self.pruned_confined + self.pruned_footprint
    }

    /// Pruned fraction in `[0, 1]` (0 when no candidates).
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.candidates as f64
        }
    }

    fn record(&mut self, reason: Option<PruneReason>) {
        self.candidates += 1;
        match reason {
            Some(PruneReason::MhpImpossible) => self.pruned_mhp += 1,
            Some(PruneReason::CommonLock) => self.pruned_common_lock += 1,
            Some(PruneReason::ThreadConfined) => self.pruned_confined += 1,
            Some(PruneReason::FootprintNoAlias) => self.pruned_footprint += 1,
            None => self.kept += 1,
        }
    }
}

/// A dynamic race confirmation that contradicts a static refutation —
/// evidence of a bug in the detector, the scheduler, or the analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoundnessBug {
    /// The contradicted pair.
    pub pair: RacePair,
    /// The static proof the dynamic result violated.
    pub reason: PruneReason,
}

impl SoundnessBug {
    /// Human-readable description with source positions.
    pub fn describe(&self, program: &Program) -> String {
        format!(
            "dynamically confirmed race {} was statically refuted as {}",
            self.pair.describe(program),
            self.reason
        )
    }
}

/// All static analyses over one program + entry, ready to answer pair
/// queries.
#[derive(Clone, Debug)]
pub struct StaticRaceFilter {
    cfg: Cfg,
    graph: CallGraph,
    mhp: Mhp,
    points_to: PointsTo,
    locks: LockAnalysis,
    escape: EscapeAnalysis,
}

impl StaticRaceFilter {
    /// Runs every analysis for `program` entered at `entry`.
    pub fn build(program: &Program, entry: ProcId) -> StaticRaceFilter {
        let cfg = Cfg::build(program);
        let graph = CallGraph::build(program, &cfg, entry);
        let mhp = Mhp::build(program, &cfg, &graph, entry);
        let points_to = PointsTo::build(program, &cfg, entry);
        let locks = LockAnalysis::build(program, &cfg, &graph, &points_to, entry);
        let escape = EscapeAnalysis::build(program, &cfg, &points_to);
        StaticRaceFilter {
            cfg,
            graph,
            mhp,
            points_to,
            locks,
            escape,
        }
    }

    /// Convenience: build for a named entry procedure.
    pub fn for_entry(program: &Program, entry: &str) -> Option<StaticRaceFilter> {
        Some(StaticRaceFilter::build(program, program.proc_named(entry)?))
    }

    /// Proves the pair impossible, or returns `None` (which means *unknown*,
    /// never *possible*).
    pub fn refute(&self, program: &Program, pair: &RacePair) -> Option<PruneReason> {
        let [a, b] = pair.instrs();
        if !program.instr(a).is_memory_access() || !program.instr(b).is_memory_access() {
            return None;
        }

        if !self.mhp.may_happen_in_parallel(a, b) {
            return Some(PruneReason::MhpImpossible);
        }

        if let (Some(held_a), Some(held_b)) =
            (self.locks.must_lockset(a), self.locks.must_lockset(b))
        {
            let common_stable = held_a.intersection(held_b).any(|&site| {
                // One allocation per run ⇒ both statements hold the same
                // runtime object.
                self.graph.instr_execs(site) == ExecCount::One
            });
            if common_stable {
                return Some(PruneReason::CommonLock);
            }
        }

        // One confined side suffices: a race partner would have to reach an
        // object only the creating thread can see.
        if self
            .escape
            .confined_access(program, &self.cfg, &self.points_to, a)
            || self
                .escape
                .confined_access(program, &self.cfg, &self.points_to, b)
        {
            return Some(PruneReason::ThreadConfined);
        }

        // Footprints that provably never name the same dynamic location —
        // including two distinct constant element indices, which are
        // distinct cells even in the same array. Sound because a race
        // requires one location: the dynamic detector's `Loc` is
        // element-index-precise, so a confirmable pair always aliases.
        if !self.may_alias(program, a, b) {
            return Some(PruneReason::FootprintNoAlias);
        }

        None
    }

    /// May the two instructions touch the same memory location? Driven by
    /// the [`CodeImage`](cil::bytecode::CodeImage) footprint table — the
    /// same per-pc access view the dynamic scheduler resolves — with base
    /// registers interpreted through Andersen points-to: `true` when some
    /// access of `a` and some access of `b` name the same place kind with
    /// the same global / same field name over overlapping bases /
    /// possibly-equal element indices over overlapping bases. Non-memory
    /// instructions never alias.
    pub fn may_alias(&self, program: &Program, a: InstrId, b: InstrId) -> bool {
        let image = program.bytecode();
        let accesses_a = image.accesses_of(a);
        if accesses_a.is_empty() {
            return false;
        }
        let accesses_b = image.accesses_of(b);
        accesses_a.iter().any(|access_a| {
            accesses_b.iter().any(|access_b| {
                access_a.may_alias_with(access_b, |oa, ob| {
                    let sa = self.points_to.local(self.cfg.owner(a), oa);
                    let sb = self.points_to.local(self.cfg.owner(b), ob);
                    sa.may_overlap(sb)
                })
            })
        })
    }

    /// Splits candidates into survivors and pruned pairs with reasons,
    /// accumulating statistics.
    pub fn partition(
        &self,
        program: &Program,
        candidates: &[RacePair],
    ) -> (Vec<RacePair>, Vec<(RacePair, PruneReason)>, FilterStats) {
        let mut kept = Vec::new();
        let mut pruned = Vec::new();
        let mut stats = FilterStats::default();
        for pair in candidates {
            let verdict = self.refute(program, pair);
            stats.record(verdict);
            match verdict {
                Some(reason) => pruned.push((*pair, reason)),
                None => kept.push(*pair),
            }
        }
        (kept, pruned, stats)
    }

    /// Flags dynamically confirmed races that the analyses claim are
    /// impossible.
    pub fn cross_check(&self, program: &Program, confirmed: &[RacePair]) -> Vec<SoundnessBug> {
        confirmed
            .iter()
            .filter_map(|pair| {
                self.refute(program, pair).map(|reason| SoundnessBug {
                    pair: *pair,
                    reason,
                })
            })
            .collect()
    }

    /// The CFG the filter was built over (shared with lint).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The call/spawn graph.
    pub fn callgraph(&self) -> &CallGraph {
        &self.graph
    }

    /// The MHP facts.
    pub fn mhp(&self) -> &Mhp {
        &self.mhp
    }

    /// The points-to facts every other analysis is built on.
    pub fn points_to(&self) -> &PointsTo {
        &self.points_to
    }

    /// The lock analyses.
    pub fn locks(&self) -> &LockAnalysis {
        &self.locks
    }

    /// The escape facts.
    pub fn escape(&self) -> &EscapeAnalysis {
        &self.escape
    }

    /// Does `a` certainly hold a stable common lock with `b`? Exposed for
    /// lint's lock-discipline checks.
    pub fn commonly_locked(&self, a: InstrId, b: InstrId) -> bool {
        match (self.locks.must_lockset(a), self.locks.must_lockset(b)) {
            (Some(held_a), Some(held_b)) => held_a
                .intersection(held_b)
                .any(|&site| self.graph.instr_execs(site) == ExecCount::One),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_for(source: &str) -> (Program, StaticRaceFilter) {
        let program = cil::compile(source).unwrap();
        let filter = StaticRaceFilter::for_entry(&program, "main").unwrap();
        (program, filter)
    }

    #[test]
    fn fork_join_pair_is_mhp_refuted() {
        let (program, filter) = filter_for(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                @init x = 5;
                var t = spawn worker();
                join t;
                @after var a = x;
            }
            "#,
        );
        let init = RacePair::new(program.tagged_access("init"), program.tagged_access("w"));
        let after = RacePair::new(program.tagged_access("after"), program.tagged_access("w"));
        assert_eq!(
            filter.refute(&program, &init),
            Some(PruneReason::MhpImpossible)
        );
        assert_eq!(
            filter.refute(&program, &after),
            Some(PruneReason::MhpImpossible)
        );
    }

    #[test]
    fn commonly_locked_pair_is_refuted_and_unlocked_is_kept() {
        let (program, filter) = filter_for(
            r#"
            class Lock { }
            global l;
            global x = 0;
            global y = 0;
            proc worker() {
                sync (l) { @wx x = 1; }
                @wy y = 1;
            }
            proc main() {
                l = new Lock;
                var t = spawn worker();
                sync (l) { @mx x = 2; }
                @my y = 2;
                join t;
            }
            "#,
        );
        let locked = RacePair::new(program.tagged_access("wx"), program.tagged_access("mx"));
        let unlocked = RacePair::new(program.tagged_access("wy"), program.tagged_access("my"));
        assert_eq!(
            filter.refute(&program, &locked),
            Some(PruneReason::CommonLock)
        );
        assert_eq!(filter.refute(&program, &unlocked), None);
    }

    #[test]
    fn reallocated_lock_is_not_a_stable_identity() {
        let (program, filter) = filter_for(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc worker() {
                sync (l) { @w x = 1; }
            }
            proc main() {
                var i = 0;
                while (i < 2) {
                    l = new Lock;
                    i = i + 1;
                }
                var t1 = spawn worker();
                var t2 = spawn worker();
                join t1;
                join t2;
            }
            "#,
        );
        // Both workers sync on `l`, but the lock object comes from a
        // many-times allocation site: no common-lock proof. (It is still a
        // single object dynamically, but the analysis cannot know.)
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("w"));
        assert_ne!(
            filter.refute(&program, &pair),
            Some(PruneReason::CommonLock)
        );
    }

    #[test]
    fn heap_loaded_common_lock_is_refuted_via_points_to() {
        // Both threads guard `x` with a lock they *load from a field* —
        // neither lock local is a direct `new`. The old value flow marked
        // heap loads unknown, so this pair was unprunable; points-to
        // resolves both locals to the same allocate-once Lock site.
        let (program, filter) = filter_for(
            r#"
            class Box { guard }
            class Lock { }
            global box;
            global x = 0;
            proc worker() {
                var b = box;
                var m = b.guard;
                sync (m) { @w x = 1; }
            }
            proc main() {
                box = new Box;
                box.guard = new Lock;
                var t = spawn worker();
                var b = box;
                var m = b.guard;
                sync (m) { @m x = 2; }
                join t;
            }
            "#,
        );
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("m"));
        assert_eq!(
            filter.refute(&program, &pair),
            Some(PruneReason::CommonLock)
        );
    }

    #[test]
    fn may_alias_distinguishes_fields_and_sites() {
        let (program, filter) = filter_for(
            r#"
            class Point { x, y }
            global x = 0;
            proc main() {
                var p = new Point;
                var q = new Point;
                var r = p;
                @px p.x = 1;
                @rx r.x = 2;
                @qx q.x = 3;
                @py p.y = 4;
                @g x = 5;
            }
            "#,
        );
        let at = |tag: &str| program.tagged_access(tag);
        // Same object through an alias, same field: may alias.
        assert!(filter.may_alias(&program, at("px"), at("rx")));
        // Distinct allocation sites never alias.
        assert!(!filter.may_alias(&program, at("px"), at("qx")));
        // Same object, different fields: disjoint cells.
        assert!(!filter.may_alias(&program, at("px"), at("py")));
        // A field access and a global access never alias.
        assert!(!filter.may_alias(&program, at("px"), at("g")));
    }

    #[test]
    fn may_alias_refutes_distinct_constant_indices() {
        let (program, filter) = filter_for(
            r#"
            global arr;
            proc main() {
                arr = new [4];
                var a = arr;
                var i = 2;
                @e0 a[0] = 1;
                @e0b var v = a[0];
                @e1 a[1] = 2;
                @ei a[i] = 3;
            }
            "#,
        );
        let at = |tag: &str| program.tagged_access(tag);
        // Same constant cell: may alias.
        assert!(filter.may_alias(&program, at("e0"), at("e0b")));
        // Distinct constant cells of the same array: provably disjoint.
        assert!(!filter.may_alias(&program, at("e0"), at("e1")));
        // A register index can equal any constant.
        assert!(filter.may_alias(&program, at("e0"), at("ei")));
        assert!(filter.may_alias(&program, at("e1"), at("ei")));
    }

    #[test]
    fn disjoint_constant_indices_are_footprint_refuted() {
        let (program, filter) = filter_for(
            r#"
            global arr;
            proc worker() { var a = arr; @w a[0] = 1; }
            proc main() {
                arr = new [4];
                var a = arr;
                var t = spawn worker();
                @m a[1] = 2;
                @same a[0] = 3;
                join t;
            }
            "#,
        );
        // Parallel, unlocked, escaped — only the footprint separates the
        // cells. Regression for the prior pessimization where any two
        // element accesses on overlapping bases were treated as
        // overlapping regardless of constant indices.
        let disjoint = RacePair::new(program.tagged_access("w"), program.tagged_access("m"));
        assert_eq!(
            filter.refute(&program, &disjoint),
            Some(PruneReason::FootprintNoAlias)
        );
        // The same-cell pair must stay unrefuted (it is a real race).
        let same = RacePair::new(program.tagged_access("w"), program.tagged_access("same"));
        assert_eq!(filter.refute(&program, &same), None);
    }

    #[test]
    fn confined_object_is_refuted() {
        let (program, filter) = filter_for(
            r#"
            class Point { v }
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                var t = spawn worker();
                var p = new Point;
                @local p.v = 1;
                join t;
            }
            "#,
        );
        let pair = RacePair::new(program.tagged_access("local"), program.tagged_access("w"));
        assert_eq!(
            filter.refute(&program, &pair),
            Some(PruneReason::ThreadConfined)
        );
    }

    #[test]
    fn genuinely_racy_pair_is_kept() {
        let (program, filter) = filter_for(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                var t = spawn worker();
                @m x = 2;
                join t;
            }
            "#,
        );
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("m"));
        assert_eq!(filter.refute(&program, &pair), None);
        let (kept, pruned, stats) = filter.partition(&program, &[pair]);
        assert_eq!(kept.len(), 1);
        assert!(pruned.is_empty());
        assert_eq!(stats.kept, 1);
        assert!(filter.cross_check(&program, &[pair]).is_empty());
    }

    #[test]
    fn prune_reason_tags_round_trip() {
        for reason in [
            PruneReason::MhpImpossible,
            PruneReason::CommonLock,
            PruneReason::ThreadConfined,
            PruneReason::FootprintNoAlias,
        ] {
            assert_eq!(PruneReason::from_tag(reason.tag()), Some(reason));
        }
        assert_eq!(PruneReason::from_tag("budget"), None);
    }
}
