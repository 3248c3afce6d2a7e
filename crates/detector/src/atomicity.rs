//! Potential atomicity-violation prediction.
//!
//! The paper's §1 lists "potential atomicity violations" as another source
//! of problematic-statement sets for the biased scheduler. This module
//! predicts the classic **split-region** pattern: one thread accesses the
//! same location twice in *different* critical sections of the same lock
//! (e.g. a check in one `sync` block and an act in the next — the
//! programmer intended them to be atomic), while another thread has a
//! conflicting access to that location. Interleaving the remote access
//! between the two halves is serialisable-looking to a race detector
//! (every access is locked — there is **no data race**) but breaks the
//! intended atomicity.
//!
//! Each [`AtomicityCandidate`] carries the three statements; the active
//! scheduler (`racefuzzer::fuzz_atomicity`) then tries to schedule the
//! remote access into the window.

use cil::flat::InstrId;
use interp::{Event, Limits, ObjId, Observer, SetupError, ThreadId};
use std::collections::{BTreeSet, HashMap};

/// A predicted atomicity violation: `first` and `second` are executed by
/// one thread in different critical sections of a common lock and touch
/// the same location; `remote` is a conflicting access by another thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AtomicityCandidate {
    /// First half of the intended-atomic region.
    pub first: InstrId,
    /// Second half.
    pub second: InstrId,
    /// The conflicting access to interleave between them.
    pub remote: InstrId,
}

impl AtomicityCandidate {
    /// Human-readable description with source positions.
    pub fn describe(&self, program: &cil::Program) -> String {
        format!(
            "region [{} … {}] vs remote {}",
            cil::pretty::describe_instr(program, self.first),
            cil::pretty::describe_instr(program, self.second),
            cil::pretty::describe_instr(program, self.remote)
        )
    }
}

/// One observed access, annotated with the critical-section generation of
/// each lock held at the time.
#[derive(Clone, Debug)]
struct SectionAccess {
    instr: InstrId,
    loc: interp::Loc,
    is_write: bool,
    /// lock → index of the critical section (nth acquisition by this
    /// thread) during which the access happened.
    sections: HashMap<ObjId, u64>,
}

/// Observer that segments each thread's accesses by critical section and
/// derives split-region candidates.
#[derive(Clone, Debug, Default)]
pub struct AtomicityObserver {
    /// Per thread: acquisition counters per lock.
    acquisitions: HashMap<ThreadId, HashMap<ObjId, u64>>,
    /// Per thread: locks currently held.
    held: HashMap<ThreadId, BTreeSet<ObjId>>,
    /// Per thread: access log.
    accesses: HashMap<ThreadId, Vec<SectionAccess>>,
}

impl AtomicityObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the split-region candidates observed in this run.
    pub fn candidates(&self) -> Vec<AtomicityCandidate> {
        let mut found: BTreeSet<AtomicityCandidate> = BTreeSet::new();
        for (&thread, log) in &self.accesses {
            for (index, first) in log.iter().enumerate() {
                for second in &log[index + 1..] {
                    if second.loc != first.loc || second.instr == first.instr {
                        continue;
                    }
                    // Same lock held at both, but in *different* critical
                    // sections — the split region.
                    let split_lock = first.sections.iter().find(|(lock, generation)| {
                        second
                            .sections
                            .get(lock)
                            .is_some_and(|other| other != *generation)
                    });
                    let Some((&lock, _)) = split_lock else {
                        continue;
                    };
                    // A conflicting remote access under the same lock.
                    for (&other, remote_log) in &self.accesses {
                        if other == thread {
                            continue;
                        }
                        for remote in remote_log {
                            if remote.loc == first.loc
                                && remote.sections.contains_key(&lock)
                                && (remote.is_write || first.is_write || second.is_write)
                            {
                                found.insert(AtomicityCandidate {
                                    first: first.instr,
                                    second: second.instr,
                                    remote: remote.instr,
                                });
                            }
                        }
                    }
                }
            }
        }
        found.into_iter().collect()
    }
}

impl Observer for AtomicityObserver {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Acquire { thread, obj, .. } => {
                *self
                    .acquisitions
                    .entry(*thread)
                    .or_default()
                    .entry(*obj)
                    .or_insert(0) += 1;
                self.held.entry(*thread).or_default().insert(*obj);
            }
            Event::Release { thread, obj, .. } => {
                if let Some(held) = self.held.get_mut(thread) {
                    held.remove(obj);
                }
            }
            Event::Mem {
                thread,
                instr,
                loc,
                is_write,
                ..
            } => {
                let counters = self.acquisitions.entry(*thread).or_default();
                let sections: HashMap<ObjId, u64> = self
                    .held
                    .get(thread)
                    .map(|held| {
                        held.iter()
                            .map(|lock| (*lock, counters.get(lock).copied().unwrap_or(0)))
                            .collect()
                    })
                    .unwrap_or_default();
                self.accesses.entry(*thread).or_default().push(SectionAccess {
                    instr: *instr,
                    loc: *loc,
                    is_write: *is_write,
                    sections,
                });
            }
            _ => {}
        }
    }
}

/// Runs the program under the Phase-1 observation schedules — one
/// round-robin run plus `observation_runs` random ones, sharing the entry
/// prefix — and returns the union of
/// predicted split-region atomicity violations.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn predict_atomicity_violations(
    program: &cil::Program,
    entry: &str,
    observation_runs: u64,
) -> Result<Vec<AtomicityCandidate>, SetupError> {
    let mut all: BTreeSet<AtomicityCandidate> = BTreeSet::new();
    let seeds: Vec<u64> = (1..=observation_runs).collect();
    crate::observe(
        program,
        entry,
        &seeds,
        Limits::default(),
        AtomicityObserver::new(),
        |observer| all.extend(observer.candidates()),
    )?;
    Ok(all.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil::flat::GlobalId;
    use interp::Loc;

    fn acquire(thread: u32, obj: u32) -> Event {
        Event::Acquire {
            thread: ThreadId(thread),
            obj: ObjId(obj),
            instr: InstrId(0),
        }
    }

    fn release(thread: u32, obj: u32) -> Event {
        Event::Release {
            thread: ThreadId(thread),
            obj: ObjId(obj),
            instr: InstrId(0),
        }
    }

    fn mem(thread: u32, instr: u32, is_write: bool) -> Event {
        Event::Mem {
            thread: ThreadId(thread),
            instr: InstrId(instr),
            loc: Loc::Global(GlobalId(0)),
            is_write,
            locks: vec![],
        }
    }

    #[test]
    fn split_region_with_remote_writer_is_a_candidate() {
        let mut observer = AtomicityObserver::new();
        // t0: CS1 { read } CS2 { write }; t1: CS { write }.
        for event in [
            acquire(0, 5),
            mem(0, 10, false),
            release(0, 5),
            acquire(0, 5),
            mem(0, 11, true),
            release(0, 5),
            acquire(1, 5),
            mem(1, 20, true),
            release(1, 5),
        ] {
            observer.on_event(&event);
        }
        let candidates = observer.candidates();
        assert_eq!(
            candidates,
            vec![AtomicityCandidate {
                first: InstrId(10),
                second: InstrId(11),
                remote: InstrId(20),
            }]
        );
    }

    #[test]
    fn single_critical_section_is_not_split() {
        let mut observer = AtomicityObserver::new();
        for event in [
            acquire(0, 5),
            mem(0, 10, false),
            mem(0, 11, true),
            release(0, 5),
            acquire(1, 5),
            mem(1, 20, true),
            release(1, 5),
        ] {
            observer.on_event(&event);
        }
        assert!(observer.candidates().is_empty());
    }

    #[test]
    fn read_only_triples_are_not_candidates() {
        let mut observer = AtomicityObserver::new();
        for event in [
            acquire(0, 5),
            mem(0, 10, false),
            release(0, 5),
            acquire(0, 5),
            mem(0, 11, false),
            release(0, 5),
            acquire(1, 5),
            mem(1, 20, false),
            release(1, 5),
        ] {
            observer.on_event(&event);
        }
        assert!(observer.candidates().is_empty(), "no write anywhere");
    }

    #[test]
    fn remote_under_different_lock_is_ignored() {
        let mut observer = AtomicityObserver::new();
        for event in [
            acquire(0, 5),
            mem(0, 10, false),
            release(0, 5),
            acquire(0, 5),
            mem(0, 11, true),
            release(0, 5),
            acquire(1, 6),
            mem(1, 20, true),
            release(1, 6),
        ] {
            observer.on_event(&event);
        }
        // That situation is a *data race* candidate (disjoint locks), not
        // an atomicity candidate.
        assert!(observer.candidates().is_empty());
    }
}
