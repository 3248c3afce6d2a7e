//! The standalone static race-candidate generator — Phase 1 without a
//! profiling run.
//!
//! The paper's Phase 1 is a *dynamic* hybrid detector: it can only propose
//! pairs the profiling execution happened to reach. This module enumerates
//! every pair of shared-memory accesses that the static analyses cannot
//! prove race-free — may-aliasing locations, at least one write,
//! MHP-possible, no common must-lock, neither side thread-confined — as an
//! over-approximating candidate set. Because the conditions are exactly the
//! negation of [`StaticRaceFilter::refute`] (plus the conflict test), the
//! generated set is closed under the filter: a generated candidate is never
//! pruned by the same filter, and every dynamically confirmable race is
//! statically generated (the recall-=-100% property the `static_gen` bench
//! gates on).

use std::collections::BTreeSet;

use cil::flat::ProcId;
use cil::Program;
use detector::RacePair;

use crate::filter::{PruneReason, StaticRaceFilter};

/// How the enumeration was narrowed, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Shared-memory access instructions examined.
    pub accesses: usize,
    /// Ordered pairs with a may-alias conflict (≥ 1 write).
    pub conflicting: usize,
    /// Conflicting pairs refuted by spawn/join ordering.
    pub refuted_mhp: usize,
    /// Conflicting pairs refuted by a common allocate-once must-lock.
    pub refuted_common_lock: usize,
    /// Conflicting pairs refuted by thread confinement.
    pub refuted_confined: usize,
    /// Conflicting pairs refuted by provably non-aliasing footprints.
    /// Structurally zero here: the conflict test and the footprint
    /// refutation are the same [`StaticRaceFilter::may_alias`] predicate,
    /// so a non-aliasing pair is never counted as conflicting. Kept so the
    /// stats stay exhaustive over [`PruneReason`].
    pub refuted_footprint: usize,
}

impl CandidateStats {
    /// Total refuted conflicting pairs.
    pub fn refuted(&self) -> usize {
        self.refuted_mhp + self.refuted_common_lock + self.refuted_confined + self.refuted_footprint
    }
}

/// The generated candidate set plus enumeration statistics.
#[derive(Clone, Debug)]
pub struct StaticCandidateReport {
    /// Surviving pairs, sorted and deduplicated (includes self-pairs: a
    /// statement racing with another instance of itself).
    pub candidates: Vec<RacePair>,
    /// How the access-pair space was narrowed.
    pub stats: CandidateStats,
}

impl StaticCandidateReport {
    /// Is `pair` in the generated set?
    pub fn contains(&self, pair: &RacePair) -> bool {
        self.candidates.binary_search(pair).is_ok()
    }
}

/// Enumerates all statically conflicting access pairs the filter cannot
/// refute.
pub fn generate(program: &Program, filter: &StaticRaceFilter) -> StaticCandidateReport {
    // The access universe and the write test come from the bytecode
    // image's footprint table — the same per-pc view the dynamic
    // would-it-race query resolves — so Phase 1 and Phase 2 agree on
    // "what does this statement touch" by construction.
    let image = program.bytecode();
    let accesses: Vec<_> = image.memory_access_pcs().collect();
    let writes = |pc| image.accesses_of(pc).iter().any(|access| access.is_write);
    let mut stats = CandidateStats {
        accesses: accesses.len(),
        ..CandidateStats::default()
    };
    let mut candidates: BTreeSet<RacePair> = BTreeSet::new();
    for (position, &a) in accesses.iter().enumerate() {
        for &b in &accesses[position..] {
            if (!writes(a) && !writes(b)) || !filter.may_alias(program, a, b) {
                continue;
            }
            stats.conflicting += 1;
            let pair = RacePair::new(a, b);
            match filter.refute(program, &pair) {
                None => {
                    candidates.insert(pair);
                }
                Some(PruneReason::MhpImpossible) => stats.refuted_mhp += 1,
                Some(PruneReason::CommonLock) => stats.refuted_common_lock += 1,
                Some(PruneReason::ThreadConfined) => stats.refuted_confined += 1,
                Some(PruneReason::FootprintNoAlias) => stats.refuted_footprint += 1,
            }
        }
    }
    StaticCandidateReport {
        candidates: candidates.into_iter().collect(),
        stats,
    }
}

/// Builds the filter and generates candidates for `program` entered at
/// `entry`.
pub fn generate_for_entry(program: &Program, entry: ProcId) -> StaticCandidateReport {
    let filter = StaticRaceFilter::build(program, entry);
    generate(program, &filter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(source: &str) -> (Program, StaticCandidateReport) {
        let program = cil::compile(source).unwrap();
        let entry = program.proc_named("main").unwrap();
        let report = generate_for_entry(&program, entry);
        (program, report)
    }

    #[test]
    fn racy_pair_is_generated_and_ordered_pairs_are_not() {
        let (program, report) = report_for(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                @init x = 5;
                var t = spawn worker();
                @m x = 2;
                join t;
                @after var a = x;
            }
            "#,
        );
        let at = |tag: &str| program.tagged_access(tag);
        assert!(report.contains(&RacePair::new(at("w"), at("m"))));
        assert!(!report.contains(&RacePair::new(at("init"), at("w"))));
        assert!(!report.contains(&RacePair::new(at("after"), at("w"))));
        assert!(report.stats.refuted_mhp > 0);
    }

    #[test]
    fn read_read_pairs_are_not_conflicts() {
        let (program, report) = report_for(
            r#"
            global x = 0;
            proc worker() { @r1 var a = x; print a; }
            proc main() {
                var t = spawn worker();
                @r2 var b = x;
                join t;
                print b;
            }
            "#,
        );
        let pair = RacePair::new(program.tagged_access("r1"), program.tagged_access("r2"));
        assert!(!report.contains(&pair));
    }

    #[test]
    fn self_pair_is_generated_for_multi_instance_statements() {
        let (program, report) = report_for(
            r#"
            global x = 0;
            proc worker() { @w x = 1; }
            proc main() {
                var t1 = spawn worker();
                var t2 = spawn worker();
                join t1;
                join t2;
            }
            "#,
        );
        let w = program.tagged_access("w");
        assert!(report.contains(&RacePair::new(w, w)));
    }

    #[test]
    fn distinct_constant_indices_are_not_conflicts() {
        let (program, report) = report_for(
            r#"
            global arr;
            proc worker() {
                var a = arr;
                @w0 a[0] = 1;
                @w1 a[1] = 2;
            }
            proc main() {
                arr = new [4];
                var a = arr;
                var t = spawn worker();
                @m0 a[0] = 3;
                join t;
            }
            "#,
        );
        let at = |tag: &str| program.tagged_access(tag);
        // Same constant cell across threads: a real candidate.
        assert!(report.contains(&RacePair::new(at("w0"), at("m0"))));
        // Distinct constant cells: not even a conflict, so never generated.
        assert!(!report.contains(&RacePair::new(at("w1"), at("m0"))));
    }

    #[test]
    fn generated_set_is_closed_under_the_filter() {
        let (program, report) = report_for(
            r#"
            class Lock { }
            global l;
            global x = 0;
            global y = 0;
            proc worker() {
                sync (l) { x = 1; }
                y = 1;
            }
            proc main() {
                l = new Lock;
                var t = spawn worker();
                sync (l) { x = 2; }
                y = 2;
                join t;
            }
            "#,
        );
        let entry = program.proc_named("main").unwrap();
        let filter = StaticRaceFilter::build(&program, entry);
        for pair in &report.candidates {
            assert_eq!(filter.refute(&program, pair), None, "{pair:?}");
        }
        assert!(report.stats.refuted_common_lock > 0);
    }
}
