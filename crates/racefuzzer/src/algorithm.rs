//! The RaceFuzzer algorithm (paper Algorithms 1 and 2).
//!
//! Given a `RaceSet` — statements predicted to race by Phase 1 — the
//! scheduler executes a random interleaving but **postpones** any thread
//! whose next statement is in the `RaceSet`, until some other postponed
//! thread's next statement would touch the *same dynamic memory location*
//! (with at least one write). At that moment a **real race** has been
//! created; the scheduler resolves it with a coin flip — running one side
//! and keeping the other postponed — so both orders of the race are
//! explored across seeds, exposing any exception the race can cause.
//!
//! Two liveness safeguards from the paper are implemented:
//!
//! * Algorithm 1 line 26: if every enabled thread is postponed, a random
//!   one is evicted.
//! * §4's monitor: a thread postponed for more than
//!   [`FuzzConfig::postpone_limit`] scheduler decisions is evicted, which
//!   breaks livelocks where a non-postponed thread spins on a flag that a
//!   postponed thread would set.
//!
//! The loop optionally forks from the snapshot layer's entry prologue
//! ([`crate::snapshot`]): a copy-on-write snapshot of the single-threaded
//! prefix every trial shares, with the RNG jumped past the prologue's
//! forced draws. From there the control flow — and, critically, the RNG
//! draw sequence — is exactly the paper's algorithm.
//!
//! The monitor's windows are where Phase 2 spends its time: a peer of the
//! postponed thread spins for up to `postpone_limit` decisions, usually
//! without changing anything another thread reads. The loop finds each
//! spinning thread's cycle of decisions (the `spin` module) and then replays
//! whole decisions from those tables at the top of the loop — the same
//! candidate sets, the same `Rng::below` draws, the same step and decision
//! counts — without interpreting them. It stops before any decision the
//! tables cannot answer for (the monitor's expiry, the step budget, a
//! deadline poll, a decision that would leave no candidate or wake a
//! thread without a table) and writes the reached state back into the
//! execution there (DESIGN.md §5.2). A thread that stays the lone
//! candidate for a whole lap of its table is skipped ahead in whole laps,
//! one `Rng::discard` for all their forced draws, short of those stops.

use crate::config::FuzzConfig;
use crate::outcome::{FuzzOutcome, RealRaceEvent};
use crate::snapshot::{PairCache, SnapshotMode};
use crate::spin::Spin;
use cil::flat::InstrId;
use detector::RacePair;
use interp::{Execution, NullObserver, Rng, SetupError, Termination, ThreadId};
use std::collections::BTreeSet;

/// Reusable per-trial machinery: the interpreter state and the scheduler's
/// scratch buffers. Holding one of these across the trials of a pair lets
/// every trial after the first reuse the heap's page table, thread frames,
/// and candidate buffers instead of re-allocating them (the non-snapshot
/// fallback path benefits the most — it rebuilds state from scratch every
/// trial).
pub(crate) struct TrialScratch<'p> {
    exec: Option<Execution<'p>>,
    ready: Ready,
    expired: Vec<ThreadId>,
    spin: Spin,
}

impl<'p> TrialScratch<'p> {
    pub(crate) fn new() -> Self {
        TrialScratch {
            exec: None,
            ready: Ready::default(),
            expired: Vec::new(),
            spin: Spin::default(),
        }
    }
}

/// `Enabled(s)` and the candidate set `Enabled(s) \ postponed`, kept
/// between scheduler decisions and re-derived only when a step can have
/// changed them (DESIGN.md §5.1).
///
/// A step by thread `t` can change another thread's enabledness only
/// through a fact [`Execution::enabledness_epoch`] tracks (the lock table,
/// a thread's status, an interrupt flag, the thread count); `t`'s own
/// enabledness can also change through its new pc. So after each step one
/// epoch comparison plus one `is_enabled(t)` decides whether the sets are
/// still exact.
#[derive(Default)]
struct Ready {
    enabled: Vec<ThreadId>,
    /// Equals `enabled \ postponed` unless `reshape` is set.
    candidates: Vec<ThreadId>,
    /// The epoch `enabled` was derived at.
    epoch: u64,
    /// `enabled` may be out of date.
    stale: bool,
    /// `candidates` may differ from `enabled \ postponed`.
    reshape: bool,
    /// `enabled` was re-derived since disabled threads were last dropped
    /// from the postponed set.
    prune: bool,
}

impl Ready {
    /// Re-derives `enabled` if a step may have changed it.
    fn sync(&mut self, exec: &Execution<'_>) {
        if self.stale {
            exec.enabled_into(&mut self.enabled);
            self.epoch = exec.enabledness_epoch();
            self.stale = false;
            self.reshape = true;
            self.prune = true;
        }
    }

    /// Whether `enabled` is `Enabled(s)` (the debug cross-check).
    fn is_exact(&self, exec: &Execution<'_>) -> bool {
        (0..exec.thread_count() as u32)
            .map(ThreadId)
            .filter(|&thread| exec.is_enabled(thread))
            .eq(self.enabled.iter().copied())
    }

    /// Re-derives `candidates` from a current `enabled` if needed.
    fn shape(&mut self, postponed: &[(ThreadId, u64)]) {
        let unpostponed = |thread: &ThreadId| !is_postponed(postponed, *thread);
        if self.reshape {
            self.candidates.clear();
            self.candidates
                .extend(self.enabled.iter().copied().filter(unpostponed));
            self.reshape = false;
        } else {
            debug_assert!(
                self.enabled
                    .iter()
                    .copied()
                    .filter(unpostponed)
                    .eq(self.candidates.iter().copied()),
                "kept candidate set is out of date"
            );
        }
    }

    /// Records that `thread` has just run one or more statements.
    fn stepped(&mut self, exec: &Execution<'_>, thread: ThreadId) {
        if exec.enabledness_epoch() != self.epoch || !exec.is_enabled(thread) {
            self.stale = true;
        }
    }
}

fn is_postponed(postponed: &[(ThreadId, u64)], thread: ThreadId) -> bool {
    postponed.iter().any(|&(held, _)| held == thread)
}

/// Runs one race-directed random execution targeting `race_set`.
///
/// `race_set` is usually the two statements of a predicted racing pair, but
/// the algorithm works for any statement set (the paper notes the same
/// scheduler can be biased by atomicity-violation or deadlock statement
/// sets); see [`crate::fuzz_pair_once`] for the pair-shaped entry point.
///
/// The execution is a deterministic function of `(program, entry, race_set,
/// config)` — replay an interesting run by passing the same seed.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn fuzz_once(
    program: &cil::Program,
    entry: &str,
    race_set: &BTreeSet<InstrId>,
    config: &FuzzConfig,
) -> Result<FuzzOutcome, SetupError> {
    fuzz_once_session(program, entry, race_set, config, None, None)
}

/// [`fuzz_once`] with an optional snapshot cache and reusable scratch.
///
/// The result is byte-identical to [`fuzz_once`] for the same inputs: the
/// cache only changes *how much* of the trial is re-executed, never what it
/// computes, and the scratch only recycles allocations.
pub(crate) fn fuzz_once_session<'p>(
    program: &'p cil::Program,
    entry: &str,
    race_set: &BTreeSet<InstrId>,
    config: &FuzzConfig,
    cache: Option<&PairCache>,
    scratch: Option<&mut TrialScratch<'p>>,
) -> Result<FuzzOutcome, SetupError> {
    // Snapshots replay by RNG draw *count*; a recorded schedule would force
    // an O(steps) trace into every snapshot, and wall-clock deadlines are
    // machine-dependent, so either setting disables acceleration outright.
    let cache = cache.filter(|cache| {
        cache.options().mode != SnapshotMode::Off
            && !config.record_schedule
            && config.wall_clock.is_none()
    });
    let resume = cache.and_then(|cache| cache.begin_trial(program, entry, config));

    let mut local = TrialScratch::new();
    let scratch = scratch.unwrap_or(&mut local);
    let TrialScratch {
        exec: exec_slot,
        ready,
        expired,
        spin,
    } = scratch;
    match exec_slot {
        Some(exec) => match resume {
            Some(prologue) => exec.restore(&prologue.snapshot),
            None => exec.reset(entry)?,
        },
        None => {
            *exec_slot = Some(match resume {
                Some(prologue) => Execution::resume(program, &prologue.snapshot),
                None => Execution::new(program, entry)?,
            });
        }
    }
    let exec = exec_slot.as_mut().expect("installed above");
    exec.set_heap_budget(config.max_heap_cells);
    ready.stale = true;
    spin.close();

    // The race set is probed once per scheduler decision (and once per
    // statement under `switch_only_at_sync`); a sorted inline slice beats
    // pointer-chasing a `BTreeSet` node for the two-statement sets every
    // pair-targeted trial uses.
    let race_list: Vec<InstrId> = race_set.iter().copied().collect();
    let in_race_set = |instr: InstrId| race_list.binary_search(&instr).is_ok();
    // Per-pc "return control to the scheduler here" byte, probed once per
    // statement by the §4 run-until-sync inner loop.
    let stop_mask = exec.stop_mask(&race_list);

    let mut rng = Rng::seeded(config.seed);
    // The postponed set, with the scheduler-decision index at which each
    // thread was postponed (for the livelock monitor). Threads are only
    // ever appended, so it is ordered by that index: its head is the next
    // thread the monitor evicts.
    let mut postponed: Vec<(ThreadId, u64)> = Vec::new();
    let mut races: Vec<RealRaceEvent> = Vec::new();
    let mut decisions: u64 = 0;
    if let Some(prologue) = resume {
        // Each prologue decision made one forced draw.
        rng.discard(prologue.forced);
        decisions = prologue.forced;
    }
    let mut schedule: Option<Vec<ThreadId>> = config.record_schedule.then(Vec::new);
    let started = config.wall_clock.map(|_| std::time::Instant::now());
    let mut observer = NullObserver;

    let termination = loop {
        // §4 spin windows: replay whole decisions from the threads' cycle
        // tables (DESIGN.md §5.2), stopping before any decision the
        // tables cannot answer for, then materialise.
        if spin.at_loop_top(exec, &postponed, decisions) {
            // The lone candidate of the latest one-candidate decisions and
            // how many it made in a row since the last whole-lap attempt.
            let mut solo = (usize::MAX, 0);
            loop {
                let decision = decisions + 1;
                if spin.steps() >= config.max_steps
                    || (config.wall_clock.is_some() && decisions.is_multiple_of(256))
                    || postponed.first().is_some_and(|&(_, since)| {
                        decision.saturating_sub(since) > config.postpone_limit
                    })
                {
                    break;
                }
                let bound = spin.bound();
                let pick = spin.candidate(rng.clone().below(bound));
                if bound == 1 && solo.0 == pick && solo.1 >= spin.period(pick) && schedule.is_none()
                {
                    solo.1 = 0;
                    let skipped = skip_laps(spin, pick, &mut rng, decisions, &postponed, config);
                    if skipped > 0 {
                        decisions += skipped;
                        continue;
                    }
                }
                let Some(steps) = spin.plan(pick) else {
                    break;
                };
                if spin.steps() + steps > config.max_steps {
                    break;
                }
                let index = rng.below(bound);
                debug_assert_eq!(spin.candidate(index), pick);
                decisions = decision;
                let thread = spin.commit(pick);
                solo = match bound {
                    1 if solo.0 == pick => (pick, solo.1 + 1),
                    1 => (pick, 1),
                    _ => (pick, 0),
                };
                if let Some(trace) = &mut schedule {
                    trace.extend(std::iter::repeat_n(thread, steps as usize));
                }
            }
            spin.materialise(exec);
            ready.stale = true;
        }
        if let Some(error) = exec.engine_error() {
            break Termination::EngineError(error.clone());
        }
        if exec.steps() >= config.max_steps {
            break Termination::StepLimit;
        }
        if decisions.is_multiple_of(256) {
            if let (Some(budget), Some(started)) = (config.wall_clock, started) {
                if started.elapsed() >= budget {
                    break Termination::DeadlineExceeded;
                }
            }
        }
        ready.sync(exec);
        debug_assert!(ready.is_exact(exec), "kept enabled set is out of date");
        if ready.enabled.is_empty() {
            break if !exec.has_alive() {
                Termination::AllExited
            } else {
                // Algorithm 1 line 31: ERROR — actual deadlock found.
                Termination::Deadlock(exec.alive())
            };
        }
        decisions += 1;

        let expires =
            |&(_, since): &(ThreadId, u64)| decisions.saturating_sub(since) > config.postpone_limit;
        debug_assert!(postponed.is_sorted_by_key(|&(_, since)| since));
        if postponed.first().is_some_and(expires) {
            // §4 livelock monitor: evict (and run) threads postponed too
            // long. Eviction *executes* the thread's pending statement —
            // merely removing it from the set would let it be re-postponed
            // for ever (the paper's Case 1 narrative: "thread1 will be
            // removed from postponed and it will execute the remaining
            // statements").
            expired.clear();
            expired.extend(
                postponed
                    .iter()
                    .filter(|entry| expires(entry))
                    .map(|&(thread, _)| thread),
            );
            for &thread in expired.iter() {
                postponed.retain(|&(held, _)| held != thread);
                if exec.is_enabled(thread) {
                    step(exec, ready, thread, &mut schedule, &mut observer);
                }
            }
            // A postponed thread is enabled when postponed (its next
            // statement is in the race set), but a race set of `lock`
            // statements (deadlock mode) can see it blocked later.
            postponed.retain(|&(thread, _)| exec.is_enabled(thread));
            // Candidates are the threads enabled at the top of this
            // decision that still are: a thread the evictions enabled waits
            // for the next decision.
            let Ready {
                enabled,
                candidates,
                ..
            } = &mut *ready;
            candidates.clear();
            candidates.extend(
                enabled
                    .iter()
                    .copied()
                    .filter(|&thread| exec.is_enabled(thread) && !is_postponed(&postponed, thread)),
            );
            ready.reshape = true;
            ready.prune = false;
        } else {
            if ready.prune {
                // Drops only disabled threads, which are not candidates.
                postponed.retain(|&(thread, _)| exec.is_enabled(thread));
                ready.prune = false;
            }
            ready.shape(&postponed);
        }

        if ready.candidates.is_empty() {
            if postponed.is_empty() {
                // The livelock monitor just ran every enabled thread.
                continue;
            }
            // Algorithm 1 lines 26–28 (also reachable when a non-postponed
            // thread blocked): release a random postponed thread and run
            // its pending statement.
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            ready.reshape = true;
            if exec.is_enabled(freed) {
                step(exec, ready, freed, &mut schedule, &mut observer);
            }
            continue;
        }

        let index = rng.below(ready.candidates.len());
        let chosen = ready.candidates[index];
        let next = exec.next_instr(chosen);
        let targeted = next.is_some_and(&in_race_set);

        if !targeted {
            // Line 24: the common case.
            let before = exec.steps();
            step(exec, ready, chosen, &mut schedule, &mut observer);
            // §4 optimisation: keep the thread running until the next
            // synchronization operation or RaceSet statement.
            if config.switch_only_at_sync {
                let ran = exec.run_quiescent(chosen, &stop_mask, config.max_steps, &mut observer);
                if let Some(trace) = &mut schedule {
                    trace.extend(std::iter::repeat_n(chosen, ran as usize));
                }
                ready.stepped(exec, chosen);
            }
            if exec.steps() < config.max_steps {
                spin.stepped(exec, chosen, exec.steps() - before);
            } else {
                // The budget can cut a run-until-sync decision short of its
                // cycle row; the next loop-top ends the trial anyway.
                spin.close();
            }
        } else {
            spin.close();
            // Algorithm 2: postponed threads whose next access conflicts
            // with ours on the same dynamic location.
            let chosen_access = exec.next_access(chosen);
            let racing: Vec<ThreadId> = if config.location_precise {
                match chosen_access {
                    None => Vec::new(),
                    Some(mine) => postponed
                        .iter()
                        .map(|&(thread, _)| thread)
                        .filter(|&thread| {
                            exec.next_access(thread)
                                .is_some_and(|theirs| mine.conflicts_with(&theirs))
                        })
                        .collect(),
                }
            } else {
                // Ablation: skip Algorithm 2's same-location test.
                postponed.iter().map(|&(thread, _)| thread).collect()
            };

            if racing.is_empty() {
                // Line 21: wait for a real race to materialise.
                postponed.push((chosen, decisions));
                // Keeps `candidates` equal to `enabled \ postponed`.
                ready.candidates.remove(index);
            } else {
                // Lines 8–19: a real race. Record it, resolve randomly.
                let my_instr = next.expect("targeted statement exists");
                for &partner in &racing {
                    let partner_instr = exec
                        .next_instr(partner)
                        .expect("postponed thread is runnable");
                    races.push(RealRaceEvent {
                        step: exec.steps(),
                        pair: RacePair::new(my_instr, partner_instr),
                        loc: chosen_access.map(|access| access.loc),
                        ran_first: chosen,
                        partners: vec![partner],
                    });
                }
                if rng.coin() {
                    // Run the arriving thread; keep the others postponed.
                    step(exec, ready, chosen, &mut schedule, &mut observer);
                } else {
                    // Postpone the arriving thread, run every racing peer.
                    postponed.push((chosen, decisions));
                    for &partner in &racing {
                        step(exec, ready, partner, &mut schedule, &mut observer);
                        postponed.retain(|&(thread, _)| thread != partner);
                    }
                    ready.reshape = true;
                }
            }
        }

        // Line 26: all enabled threads postponed → release one at random
        // and run its pending statement so the schedule makes progress.
        // With nothing postponed the condition cannot hold and no draw is
        // made; otherwise it reads the kept sets, re-deriving them only if
        // this decision's steps may have changed them.
        if postponed.is_empty() {
            continue;
        }
        ready.sync(exec);
        ready.shape(&postponed);
        if !ready.enabled.is_empty() && ready.candidates.is_empty() {
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            ready.reshape = true;
            if exec.is_enabled(freed) {
                step(exec, ready, freed, &mut schedule, &mut observer);
            }
        }
    };

    Ok(FuzzOutcome {
        seed: config.seed,
        races,
        termination,
        uncaught: exec.uncaught().to_vec(),
        steps: exec.steps(),
        output: exec.output().to_vec(),
        schedule,
    })
}

/// Skips whole laps of `pick`'s table when it is the lone candidate and a
/// lap keeps it so ([`Spin::solo_lap`]), and returns the decisions
/// skipped. It skips as many laps as fit before the monitor's expiry, the
/// step budget (strictly, so the loop-top check still stops the replay)
/// and, under a deadline, the next poll; each skipped decision is one
/// forced draw. Out of line: the loop runs it at most once per lap of
/// one-candidate decisions, and the loop itself runs once per decision.
#[inline(never)]
fn skip_laps(
    spin: &mut Spin,
    pick: usize,
    rng: &mut Rng,
    decisions: u64,
    postponed: &[(ThreadId, u64)],
    config: &FuzzConfig,
) -> u64 {
    let Some(lap_steps) = spin.solo_lap(pick) else {
        return 0;
    };
    let period = spin.period(pick);
    let expiry = postponed.first().map_or(u64::MAX, |&(_, since)| {
        since.saturating_add(config.postpone_limit)
    });
    let mut laps = (expiry.saturating_sub(decisions) / period)
        .min((config.max_steps - spin.steps() - 1) / lap_steps);
    if config.wall_clock.is_some() {
        laps = laps.min((256 - decisions % 256) / period);
    }
    let skipped = laps * period;
    if laps > 0 {
        debug_assert!(
            decisions + skipped <= expiry
                && spin.steps() + laps * lap_steps < config.max_steps
                && (config.wall_clock.is_none()
                    || (decisions + skipped - 1) / 256 == decisions / 256),
            "a jump crossed a loop-top stop"
        );
        rng.discard(skipped);
        spin.jump(pick, laps, lap_steps);
    }
    skipped
}

fn step(
    exec: &mut Execution<'_>,
    ready: &mut Ready,
    thread: ThreadId,
    schedule: &mut Option<Vec<ThreadId>>,
    observer: &mut NullObserver,
) {
    if let Some(trace) = schedule {
        trace.push(thread);
    }
    // Every call site has just verified enabledness (the helper has always
    // asserted as much below), so the re-check inside `Execution::step` is
    // pure per-statement overhead.
    let result = exec.step_enabled(thread, observer);
    debug_assert!(
        result != interp::StepResult::NotEnabled,
        "scheduler stepped a disabled thread"
    );
    ready.stepped(exec, thread);
}

/// Runs [`fuzz_once`] targeting a predicted pair of statements.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
///
/// # Panics
///
/// Panics (in debug builds) if either statement of `pair` is not a
/// shared-memory access — such a pair cannot race and would only be
/// postponed and evicted.
pub fn fuzz_pair_once(
    program: &cil::Program,
    entry: &str,
    pair: RacePair,
    config: &FuzzConfig,
) -> Result<FuzzOutcome, SetupError> {
    debug_assert!(
        pair.instrs()
            .iter()
            .all(|&instr| program.instr(instr).is_memory_access()),
        "race set statements must be shared-memory accesses"
    );
    let race_set: BTreeSet<InstrId> = pair.instrs().into_iter().collect();
    fuzz_once(program, entry, &race_set, config)
}

/// [`fuzz_pair_once`] drawing on a per-pair snapshot cache.
///
/// The outcome is byte-identical to [`fuzz_pair_once`] for the same
/// inputs; the cache only skips re-execution of prefixes the seed would
/// have replayed verbatim. Race-set statements are memory accesses
/// (debug-asserted), which is what makes the shared entry prologue sound:
/// it stops before the first memory access, so no cached prefix can
/// contain a targeted statement.
pub fn fuzz_pair_once_cached(
    program: &cil::Program,
    entry: &str,
    pair: RacePair,
    config: &FuzzConfig,
    cache: Option<&PairCache>,
) -> Result<FuzzOutcome, SetupError> {
    debug_assert!(
        pair.instrs()
            .iter()
            .all(|&instr| program.instr(instr).is_memory_access()),
        "race set statements must be shared-memory accesses"
    );
    let race_set: BTreeSet<InstrId> = pair.instrs().into_iter().collect();
    fuzz_once_session(program, entry, &race_set, config, cache, None)
}
