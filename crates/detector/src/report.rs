//! Race reports: unordered pairs of statements.
//!
//! The paper counts races as "distinct pairs of statements for which there
//! is a race" (§5.2), so the report type is an unordered `(InstrId, InstrId)`
//! pair — possibly with both components equal, when two threads race through
//! the same statement.

use cil::flat::InstrId;
use cil::Program;
use std::fmt;

/// An unordered pair of (possibly equal) statements predicted or observed to
/// race. This is the paper's *racing pair of statements* `(s1, s2)` and the
/// input to Phase 2's `RaceSet`.
///
/// **Canonical by construction**: the fields are private and the only
/// constructor sorts its arguments, so `(s1, s2)` and `(s2, s1)` are the
/// *same value* — Phase 1 can discover a pair in either order across runs,
/// engines, or checkpoint round-trips without Phase 2 ever fuzzing it
/// twice. `detector/tests/pair_symmetry.rs` regression-tests this end to
/// end.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RacePair {
    first: InstrId,
    second: InstrId,
}

impl RacePair {
    /// Creates a pair; order of arguments does not matter.
    pub fn new(a: InstrId, b: InstrId) -> Self {
        if a <= b {
            RacePair {
                first: a,
                second: b,
            }
        } else {
            RacePair {
                first: b,
                second: a,
            }
        }
    }

    /// `true` iff `first ≤ second`. Holds for every value the type can
    /// express (the constructor canonicalizes); exposed so tests can assert
    /// the invariant at API boundaries (prediction output, deserialized
    /// checkpoints) rather than trusting it silently.
    pub fn is_canonical(&self) -> bool {
        self.first <= self.second
    }

    /// The smaller statement id.
    pub fn first(&self) -> InstrId {
        self.first
    }

    /// The larger statement id.
    pub fn second(&self) -> InstrId {
        self.second
    }

    /// Returns `true` if `instr` is one of the two statements.
    pub fn contains(&self, instr: InstrId) -> bool {
        self.first == instr || self.second == instr
    }

    /// Returns the two statements as a slice-friendly array.
    pub fn instrs(&self) -> [InstrId; 2] {
        [self.first, self.second]
    }

    /// Human-readable description with disassembly and source positions.
    pub fn describe(&self, program: &Program) -> String {
        format!(
            "({}, {})",
            cil::pretty::describe_instr(program, self.first),
            cil::pretty::describe_instr(program, self.second)
        )
    }
}

impl fmt::Debug for RacePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RacePair({}, {})", self.first, self.second)
    }
}

impl fmt::Display for RacePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.first, self.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_unordered() {
        let a = RacePair::new(InstrId(5), InstrId(2));
        let b = RacePair::new(InstrId(2), InstrId(5));
        assert_eq!(a, b);
        assert_eq!(a.first(), InstrId(2));
        assert_eq!(a.second(), InstrId(5));
    }

    #[test]
    fn self_pair_is_allowed() {
        let pair = RacePair::new(InstrId(3), InstrId(3));
        assert!(pair.contains(InstrId(3)));
        assert_eq!(pair.instrs(), [InstrId(3), InstrId(3)]);
    }

    #[test]
    fn contains_checks_both_slots() {
        let pair = RacePair::new(InstrId(1), InstrId(9));
        assert!(pair.contains(InstrId(1)));
        assert!(pair.contains(InstrId(9)));
        assert!(!pair.contains(InstrId(4)));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(RacePair::new(InstrId(7), InstrId(3)).to_string(), "(3, 7)");
    }
}
