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
//! The loop optionally cooperates with the snapshot layer
//! ([`crate::snapshot`]): trials fork from cached copy-on-write prefixes
//! and report every non-forced random choice to a per-pair decision trie.
//! With no cache attached the control flow — and, critically, the RNG draw
//! sequence — is exactly the paper's algorithm.

use crate::config::FuzzConfig;
use crate::outcome::{FuzzOutcome, RealRaceEvent};
use crate::snapshot::{PairCache, SnapshotMode, TrialSession};
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
}

impl<'p> TrialScratch<'p> {
    pub(crate) fn new() -> Self {
        TrialScratch {
            exec: None,
            ready: Ready::default(),
            expired: Vec::new(),
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
    let mut session = cache.map(|cache| cache.begin_trial(program, entry, config));
    let resume = session.as_ref().and_then(TrialSession::resume_point);

    let mut local = TrialScratch::new();
    let scratch = scratch.unwrap_or(&mut local);
    let TrialScratch {
        exec: exec_slot,
        ready,
        expired,
    } = scratch;
    match exec_slot {
        Some(exec) => match &resume {
            Some(snap) => exec.restore(&snap.exec),
            None => exec.reset(entry)?,
        },
        None => {
            *exec_slot = Some(match &resume {
                Some(snap) => Execution::resume(program, &snap.exec),
                None => Execution::new(program, entry)?,
            });
        }
    }
    let exec = exec_slot.as_mut().expect("installed above");
    exec.set_heap_budget(config.max_heap_cells);
    ready.stale = true;

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
    let mut draws: u64 = 0;
    // The postponed set, with the scheduler-decision index at which each
    // thread was postponed (for the livelock monitor). Threads are only
    // ever appended, so it is ordered by that index: its head is the next
    // thread the monitor evicts.
    let mut postponed: Vec<(ThreadId, u64)> = Vec::new();
    let mut races: Vec<RealRaceEvent> = Vec::new();
    let mut decisions: u64 = 0;
    if let Some(snap) = &resume {
        rng.discard(snap.draws);
        draws = snap.draws;
        postponed.extend_from_slice(&snap.postponed);
        races.extend_from_slice(&snap.races);
        decisions = snap.decisions;
    }
    let mut schedule: Option<Vec<ThreadId>> = config.record_schedule.then(Vec::new);
    let started = config.wall_clock.map(|_| std::time::Instant::now());
    let mut observer = NullObserver;

    let termination = loop {
        if let Some(session) = session.as_mut() {
            session.at_loop_top(exec, &postponed, &races, decisions, draws);
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
            let index = draw_pick(&mut rng, &mut draws, postponed.len(), &mut session, cache);
            let (freed, _) = postponed.remove(index);
            ready.reshape = true;
            if exec.is_enabled(freed) {
                step(exec, ready, freed, &mut schedule, &mut observer);
            }
            continue;
        }

        let index = draw_pick(
            &mut rng,
            &mut draws,
            ready.candidates.len(),
            &mut session,
            cache,
        );
        let chosen = ready.candidates[index];
        let next = exec.next_instr(chosen);
        let targeted = next.is_some_and(&in_race_set);

        if !targeted {
            // Line 24: the common case.
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
        } else {
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
                if draw_coin(&mut rng, &mut draws, &mut session, cache) {
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
            let index = draw_pick(&mut rng, &mut draws, postponed.len(), &mut session, cache);
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

/// Draws `rng.below(bound)` while keeping the trial's draw counter and the
/// decision trie informed. A draw with `bound == 1` is *forced* — it always
/// yields 0 — so only `bound >= 2` draws become trie nodes; forced draws
/// still consume an RNG word, exactly as on the uncached path.
fn draw_pick(
    rng: &mut Rng,
    draws: &mut u64,
    bound: usize,
    session: &mut Option<TrialSession>,
    cache: Option<&PairCache>,
) -> usize {
    let before = *draws;
    *draws += 1;
    let outcome = rng.below(bound);
    if bound >= 2 {
        if let (Some(session), Some(cache)) = (session.as_mut(), cache) {
            session.on_pick(cache, bound, outcome, before);
        }
    }
    outcome
}

/// Draws the race-resolution coin, mirroring [`draw_pick`]'s bookkeeping.
fn draw_coin(
    rng: &mut Rng,
    draws: &mut u64,
    session: &mut Option<TrialSession>,
    cache: Option<&PairCache>,
) -> bool {
    let before = *draws;
    *draws += 1;
    let outcome = rng.coin();
    if let (Some(session), Some(cache)) = (session.as_mut(), cache) {
        session.on_coin(cache, outcome, before);
    }
    outcome
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
