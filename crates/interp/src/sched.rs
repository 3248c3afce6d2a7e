//! Schedulers and the execution driver.
//!
//! A [`Scheduler`] decides which enabled thread runs next at every state —
//! the paper's source of schedule nondeterminism. Four passive baselines
//! live here; the *active* race-directed scheduler (the paper's
//! contribution) lives in the `racefuzzer` crate and drives [`Execution`]
//! directly.
//!
//! [`drive`] runs an execution to the end under a scheduler;
//! [`drive_prefix`] runs only its single-threaded entry prefix, where every
//! scheduler's pick is forced, so several schedules can share it; the
//! start of that prefix, up to the first shared access or `spawn`, is the
//! [`Prologue`] every Phase-2 trial shares as well.

use crate::event::Observer;
use crate::exec::{Execution, SetupError, Snapshot, StepResult};
use crate::rng::Rng;
use crate::thread::UncaughtException;
use crate::value::ThreadId;
use cil::Program;

/// Picks the next thread to run.
///
/// The driver computes the enabled set once per decision and hands it in,
/// so a scheduler never rescans the thread table (or allocates) to learn
/// it. When `enabled` is just thread 0 — the entry prefix before the first
/// `spawn` — the pick is forced, and the scheduler's state after it must
/// not depend on `exec`: schedules that share a prefix run by
/// [`drive_prefix`] replay those forced picks against the state at its end,
/// and must leave the scheduler exactly where the unshared run would.
pub trait Scheduler {
    /// Chooses one of `enabled` (`exec`'s enabled threads, ascending and
    /// never empty). Returning `None` stops the run; returning a thread
    /// outside `enabled` is a scheduler bug that the driver skips as a
    /// [`StepResult::NotEnabled`] no-op.
    fn pick(&mut self, exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId>;
}

/// Uniformly random choice among enabled threads at every statement — the
/// paper's "simple random scheduler" baseline (§3.2, Table 1 column
/// "Simple").
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: Rng,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed; the whole schedule is a function of
    /// this seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: Rng::seeded(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, _exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId> {
        if enabled.is_empty() {
            None
        } else {
            Some(*self.rng.choose(enabled))
        }
    }
}

/// Runs the current thread until it blocks or exits, then moves to the next
/// alive thread — a model of an unloaded default scheduler, under which racy
/// interleavings are rare (the paper's "normal execution" baseline).
#[derive(Clone, Debug, Default)]
pub struct RunToBlockScheduler {
    current: Option<ThreadId>,
}

impl RunToBlockScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RunToBlockScheduler {
    fn pick(&mut self, _exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId> {
        if let Some(current) = self.current {
            if enabled.contains(&current) {
                return Some(current);
            }
        }
        self.current = enabled.first().copied();
        self.current
    }
}

/// Rotates between enabled threads with a fixed quantum of statements — a
/// model of a preemptive time-sliced scheduler.
#[derive(Clone, Debug)]
pub struct RoundRobinScheduler {
    quantum: u64,
    remaining: u64,
    last: Option<ThreadId>,
}

impl RoundRobinScheduler {
    /// Creates a scheduler that preempts every `quantum` statements.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        RoundRobinScheduler {
            quantum,
            remaining: quantum,
            last: None,
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, _exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId> {
        if enabled.is_empty() {
            return None;
        }
        if let Some(last) = self.last {
            if self.remaining > 0 && enabled.contains(&last) {
                self.remaining -= 1;
                return Some(last);
            }
        }
        // Rotate: first enabled thread strictly after `last`, else wrap.
        let next = match self.last {
            Some(last) => enabled
                .iter()
                .copied()
                .find(|&thread| thread > last)
                .unwrap_or(enabled[0]),
            None => enabled[0],
        };
        self.last = Some(next);
        self.remaining = self.quantum.saturating_sub(1);
        Some(next)
    }
}

/// RAPOS — Random Partial Order Sampling (Sen, ASE 2007), the predecessor
/// the paper compares against in §6: it samples partial orders roughly
/// uniformly instead of interleavings, but "cannot often discover
/// error-prone schedules with high probability" because the space of
/// partial orders of a large program is astronomical.
///
/// At each sampling point the scheduler picks a random enabled thread and
/// then adds, with probability ½ each, every other enabled thread whose
/// next access does not conflict with the batch; the batch then executes
/// in random order before the next sampling point.
#[derive(Clone, Debug)]
pub struct RaposScheduler {
    rng: Rng,
    batch: Vec<ThreadId>,
}

impl RaposScheduler {
    /// Creates a RAPOS scheduler from a seed.
    pub fn seeded(seed: u64) -> Self {
        RaposScheduler {
            rng: Rng::seeded(seed),
            batch: Vec::new(),
        }
    }

    fn refill(&mut self, exec: &Execution<'_>, enabled: &[ThreadId]) {
        if enabled.is_empty() {
            return;
        }
        let first = *self.rng.choose(enabled);
        let mut batch = vec![first];
        let mut accesses: Vec<crate::event::Access> = exec.next_access(first).into_iter().collect();
        for &candidate in enabled {
            if candidate == first {
                continue;
            }
            let conflict = exec
                .next_access(candidate)
                .is_some_and(|access| accesses.iter().any(|held| held.conflicts_with(&access)));
            if !conflict && self.rng.coin() {
                if let Some(access) = exec.next_access(candidate) {
                    accesses.push(access);
                }
                batch.push(candidate);
            }
        }
        // Execute the sampled batch in random order.
        while !batch.is_empty() {
            let index = self.rng.below(batch.len());
            self.batch.push(batch.swap_remove(index));
        }
    }
}

impl Scheduler for RaposScheduler {
    fn pick(&mut self, exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId> {
        loop {
            match self.batch.pop() {
                Some(thread) if enabled.contains(&thread) => return Some(thread),
                Some(_) => continue, // became disabled mid-batch; drop it
                None => {
                    self.refill(exec, enabled);
                    if self.batch.is_empty() {
                        return None;
                    }
                }
            }
        }
    }
}

/// Resource limits for a run: a statement budget plus an optional
/// wall-clock deadline. Both are per-*run* (per trial, in campaign
/// terms), so a hung or runaway execution is cut off instead of stalling
/// the whole testing campaign.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum statements executed before the run is cut off.
    pub max_steps: u64,
    /// Wall-clock budget for the run; `None` means unbounded. Checked
    /// every few hundred statements, so very short deadlines overshoot by
    /// at most one check interval.
    pub deadline: Option<std::time::Duration>,
    /// Heap-cell budget for the run; `None` means unbounded. An
    /// allocation that would exceed it ends the run with
    /// [`Termination::EngineError`] carrying
    /// [`crate::exec::ExecError::MemoryBudget`] — a *reported* resource
    /// verdict, so an adversarial allocation loop cannot OOM the harness.
    pub max_heap_cells: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 2_000_000,
            deadline: None,
            max_heap_cells: None,
        }
    }
}

impl Limits {
    /// A limit of `max_steps` statements and no wall-clock deadline.
    pub fn steps(max_steps: u64) -> Self {
        Limits {
            max_steps,
            ..Limits::default()
        }
    }

    /// Builder-style: adds a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style: adds a heap-cell budget.
    pub fn with_heap_cells(mut self, max_heap_cells: u64) -> Self {
        self.max_heap_cells = Some(max_heap_cells);
        self
    }
}

/// How often (in scheduler iterations) the wall-clock deadline is polled.
/// `Instant::now` is far cheaper than interpreting a statement, but there
/// is no reason to pay for it on every step.
pub(crate) const DEADLINE_POLL_INTERVAL: u64 = 256;

/// Why a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Every thread terminated.
    AllExited,
    /// No thread was enabled while some were alive — a real deadlock.
    Deadlock(Vec<ThreadId>),
    /// The step limit was hit (livelock or long-running program).
    StepLimit,
    /// The wall-clock deadline ([`Limits::deadline`]) expired.
    DeadlineExceeded,
    /// The scheduler returned `None` with threads still enabled.
    SchedulerStopped,
    /// The interpreter hit an internal invariant violation; the execution
    /// is poisoned and its results beyond this point are meaningless.
    EngineError(crate::exec::ExecError),
}

impl Termination {
    /// `true` for terminations that mean the *harness* (not the program
    /// under test) gave up or broke: budget exhaustion or an engine error.
    /// Campaign drivers treat these as trial failures to retry/quarantine.
    pub fn is_abnormal(&self) -> bool {
        matches!(
            self,
            Termination::StepLimit | Termination::DeadlineExceeded | Termination::EngineError(_)
        )
    }
}

/// The observable outcome of a complete run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub termination: Termination,
    /// Statements executed.
    pub steps: u64,
    /// Exceptions that killed threads.
    pub uncaught: Vec<UncaughtException>,
    /// `print` output.
    pub output: Vec<String>,
}

impl RunOutcome {
    /// Returns `true` if some thread died from an exception named `name`.
    pub fn has_uncaught(&self, program: &Program, name: &str) -> bool {
        self.uncaught
            .iter()
            .any(|exception| program.name(exception.name) == name)
    }

    /// Returns `true` if the run deadlocked.
    pub fn deadlocked(&self) -> bool {
        matches!(self.termination, Termination::Deadlock(_))
    }
}

/// Runs `entry` under `scheduler`, delivering events to `observer`.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` is missing or takes parameters.
pub fn run_with(
    program: &Program,
    entry: &str,
    scheduler: &mut dyn Scheduler,
    observer: &mut dyn Observer,
    limits: Limits,
) -> Result<RunOutcome, SetupError> {
    let mut exec = Execution::new(program, entry)?;
    let termination = drive(&mut exec, scheduler, observer, limits);
    Ok(RunOutcome {
        termination,
        steps: exec.steps(),
        uncaught: exec.uncaught().to_vec(),
        output: exec.output().to_vec(),
    })
}

/// Drives an existing execution to completion under `scheduler`.
///
/// Each decision scans the thread table once, into one buffer reused for
/// the whole run, and hands that enabled set to the scheduler. The deadline
/// is polled every `DEADLINE_POLL_INTERVAL` decisions counted from the
/// execution's first statement, so an execution resumed after
/// [`drive_prefix`] polls at the same points as one driven from the start.
pub fn drive(
    exec: &mut Execution<'_>,
    scheduler: &mut dyn Scheduler,
    observer: &mut dyn Observer,
    limits: Limits,
) -> Termination {
    let started = limits.deadline.map(|_| std::time::Instant::now());
    if limits.max_heap_cells.is_some() {
        exec.set_heap_budget(limits.max_heap_cells);
    }
    let mut enabled = Vec::new();
    let mut iterations = exec.steps();
    loop {
        if exec.steps() >= limits.max_steps {
            return Termination::StepLimit;
        }
        iterations += 1;
        if iterations.is_multiple_of(DEADLINE_POLL_INTERVAL) {
            if let (Some(deadline), Some(started)) = (limits.deadline, started) {
                if started.elapsed() >= deadline {
                    return Termination::DeadlineExceeded;
                }
            }
        }
        exec.enabled_into(&mut enabled);
        if enabled.is_empty() {
            let alive = exec.alive();
            return if alive.is_empty() {
                Termination::AllExited
            } else {
                Termination::Deadlock(alive)
            };
        }
        let Some(choice) = scheduler.pick(exec, &enabled) else {
            return Termination::SchedulerStopped;
        };
        // A disabled pick is a scheduler bug; skip rather than spin.
        debug_assert!(
            enabled.contains(&choice),
            "scheduler picked a disabled thread"
        );
        if !enabled.contains(&choice) {
            continue;
        }
        if let StepResult::EngineError(error) = exec.step_enabled(choice, observer) {
            return Termination::EngineError(error);
        }
    }
}

/// Runs the single-threaded entry prefix of `exec`: steps thread 0 while it
/// is the only thread ever created and is enabled. At those decisions the
/// enabled set is just thread 0, so every schedule steps the same thread
/// and the state this leaves is the state any schedule reaches after the
/// same number of decisions — a fork point several schedules can share.
///
/// The prefix is [`drive`] under a scheduler that stops at the first
/// decision that is not forced, so `limits` is honoured exactly as `drive`
/// honours it. Returns the number of forced steps taken; the caller replays
/// that many forced picks (`pick(exec, &[ThreadId(0)])`) on each scheduler
/// before handing the execution to [`drive`].
///
/// # Errors
///
/// Returns the [`Termination`] if the step limit, the deadline, or an
/// engine error ends the run inside the prefix — where every schedule
/// would end it too.
pub fn drive_prefix(
    exec: &mut Execution<'_>,
    observer: &mut dyn Observer,
    limits: Limits,
) -> Result<u64, Termination> {
    drive_prefix_capturing(exec, observer, limits).0
}

/// [`drive_prefix`] on a fresh execution that also captures the entry
/// [`Prologue`] it passes through on its way to the first `spawn`, at the
/// cost of one copy-on-write snapshot.
///
/// The capture is `None` when the prefix ended (by the step limit, the
/// deadline or an engine error) before the prologue's end, or when the
/// prologue is empty.
pub fn drive_prefix_capturing(
    exec: &mut Execution<'_>,
    observer: &mut dyn Observer,
    limits: Limits,
) -> (Result<u64, Termination>, Option<Prologue>) {
    let start = exec.steps();
    let mut forced = Forced::new(false);
    let termination = drive(exec, &mut forced, observer, limits);
    let snapshot = match (forced.captured, &termination) {
        (Some(snapshot), _) => Some(snapshot),
        // Thread 0 blocked or finished without reaching a boundary
        // statement: the prologue ends where the run does.
        (None, Termination::AllExited | Termination::Deadlock(_)) => Some(exec.snapshot()),
        (None, _) => None,
    };
    let prologue = snapshot.and_then(|snapshot| Prologue::new(snapshot, start));
    let prefix = match termination {
        Termination::SchedulerStopped | Termination::AllExited | Termination::Deadlock(_) => {
            Ok(exec.steps() - start)
        }
        termination => Err(termination),
    };
    (prefix, prologue)
}

/// Runs the entry prologue of a fresh execution alone: steps thread 0
/// while its pick is forced, and stops at the prologue's end or wherever
/// `limits` or an engine error ends the run first. Returns the state there,
/// or `None` if no statement ran.
pub fn run_prologue(exec: &mut Execution<'_>, limits: Limits) -> Option<Prologue> {
    let start = exec.steps();
    drive(
        exec,
        &mut Forced::new(true),
        &mut crate::event::NullObserver,
        limits,
    );
    Prologue::new(exec.snapshot(), start)
}

/// The entry prologue of a run: its state at the first decision where
/// thread 0's next statement is a shared-memory access or a `spawn`, or
/// where thread 0 is blocked or gone. Every decision before it is forced
/// and every statement before it is local, so the state and the number of
/// forced scheduler draws taken to reach it (one per statement) are the
/// same for every schedule, seed and race set of the program — Phase 1
/// passes through it and Phase 2 forks its trials from it.
#[derive(Clone)]
pub struct Prologue {
    /// The state at the end of the prologue.
    pub snapshot: Snapshot,
    /// Forced decisions (and statements) from the start of the run.
    pub forced: u64,
}

impl Prologue {
    fn new(snapshot: Snapshot, start: u64) -> Option<Prologue> {
        let forced = snapshot.steps() - start;
        (forced > 0).then_some(Prologue { snapshot, forced })
    }
}

/// Picks thread 0 while it is the only thread, then stops. On the way it
/// snapshots the end of the entry prologue, or stops there if
/// `stop_at_prologue`.
struct Forced {
    stop_at_prologue: bool,
    captured: Option<Snapshot>,
}

impl Forced {
    fn new(stop_at_prologue: bool) -> Self {
        Forced {
            stop_at_prologue,
            captured: None,
        }
    }
}

impl Scheduler for Forced {
    fn pick(&mut self, exec: &Execution<'_>, enabled: &[ThreadId]) -> Option<ThreadId> {
        if self.captured.is_none() && ends_prologue(exec) {
            if self.stop_at_prologue {
                return None;
            }
            self.captured = Some(exec.snapshot());
        }
        (exec.thread_count() == 1 && enabled == [ThreadId(0)]).then_some(ThreadId(0))
    }
}

/// The prologue's boundary rule: thread 0 is not the only thread, is not
/// runnable, or is about to access shared memory or `spawn`. Race-set
/// members are memory accesses, so no statement before the boundary can
/// be one.
fn ends_prologue(exec: &Execution<'_>) -> bool {
    if exec.thread_count() != 1 || !exec.is_enabled(ThreadId(0)) {
        return true;
    }
    let Some(instr) = exec.next_instr(ThreadId(0)) else {
        return true;
    };
    let instr = exec.program().instr(instr);
    instr.is_memory_access() || matches!(instr, cil::flat::Instr::Spawn { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullObserver;

    fn run(source: &str, scheduler: &mut dyn Scheduler) -> RunOutcome {
        let program = cil::compile(source).unwrap();
        run_with(
            &program,
            "main",
            scheduler,
            &mut NullObserver,
            Limits::default(),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_program_exits() {
        let outcome = run(
            "global g = 0; proc main() { g = 1; print g; }",
            &mut RunToBlockScheduler::new(),
        );
        assert_eq!(outcome.termination, Termination::AllExited);
        assert_eq!(outcome.output, vec!["1".to_string()]);
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let source = r#"
            global x = 0;
            proc writer(v) { x = v; }
            proc main() {
                var a = spawn writer(1);
                var b = spawn writer(2);
                join a; join b;
                print x;
            }
        "#;
        let out1 = run(source, &mut RandomScheduler::seeded(7));
        let out2 = run(source, &mut RandomScheduler::seeded(7));
        assert_eq!(out1.output, out2.output);
        assert_eq!(out1.steps, out2.steps);
    }

    #[test]
    fn different_seeds_can_differ() {
        let source = r#"
            global x = 0;
            proc writer(v) { x = v; }
            proc main() {
                var a = spawn writer(1);
                var b = spawn writer(2);
                join a; join b;
                print x;
            }
        "#;
        let outputs: std::collections::HashSet<String> = (0..32)
            .map(|seed| run(source, &mut RandomScheduler::seeded(seed)).output[0].clone())
            .collect();
        assert_eq!(outputs.len(), 2, "both final values observed: {outputs:?}");
    }

    #[test]
    fn round_robin_requires_positive_quantum() {
        let result = std::panic::catch_unwind(|| RoundRobinScheduler::new(0));
        assert!(result.is_err());
    }

    #[test]
    fn round_robin_alternates_threads() {
        let source = r#"
            global a = 0;
            global b = 0;
            proc worker() { b = 1; b = 2; b = 3; }
            proc main() {
                var t = spawn worker();
                a = 1; a = 2; a = 3;
                join t;
            }
        "#;
        let outcome = run(source, &mut RoundRobinScheduler::new(1));
        assert_eq!(outcome.termination, Termination::AllExited);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let outcome = run_limited(
            "proc main() { while (true) { nop; } }",
            &mut RunToBlockScheduler::new(),
            Limits::steps(500),
        );
        assert_eq!(outcome.termination, Termination::StepLimit);
        assert!(outcome.steps <= 500);
    }

    fn run_limited(source: &str, scheduler: &mut dyn Scheduler, limits: Limits) -> RunOutcome {
        let program = cil::compile(source).unwrap();
        run_with(&program, "main", scheduler, &mut NullObserver, limits).unwrap()
    }

    #[test]
    fn heap_budget_stops_allocation_loops() {
        // An adversarial allocator: each iteration allocates a 100-slot
        // array. Without a budget this would run to the step limit holding
        // ever more memory; with one it degrades into a typed engine error.
        let outcome = run_limited(
            r#"
            proc main() {
                while (true) { var a = new [100]; }
            }
            "#,
            &mut RunToBlockScheduler::new(),
            Limits::steps(1_000_000).with_heap_cells(1_000),
        );
        match outcome.termination {
            Termination::EngineError(crate::exec::ExecError::MemoryBudget { used, budget }) => {
                assert_eq!(budget, 1_000);
                assert!(used > budget, "refused allocation exceeds budget");
            }
            other => panic!("expected MemoryBudget termination, got {other:?}"),
        }
        assert!(outcome.steps < 1_000_000, "stopped well before step limit");
    }

    #[test]
    fn heap_budget_spares_modest_programs() {
        let outcome = run_limited(
            "proc main() { var a = new [10]; var b = new [10]; print 1; }",
            &mut RunToBlockScheduler::new(),
            Limits::default().with_heap_cells(1_000),
        );
        assert_eq!(outcome.termination, Termination::AllExited);
    }

    #[test]
    fn self_deadlock_is_detected() {
        // Two threads each lock one object and then try the other, with a
        // rendezvous through globals to force the deadlock interleaving
        // under round-robin.
        let source = r#"
            global l1;
            global l2;
            proc t2() {
                lock l2;
                lock l1;
                unlock l1;
                unlock l2;
            }
            proc main() {
                l1 = new Obj;
                l2 = new Obj;
                var t = spawn t2();
                lock l1;
                lock l2;
                unlock l2;
                unlock l1;
                join t;
            }
            class Obj { }
        "#;
        // Quantum 1 round-robin reliably interleaves lock1/lock2.
        let outcome = run(source, &mut RoundRobinScheduler::new(1));
        assert!(
            outcome.deadlocked(),
            "expected deadlock, got {:?}",
            outcome.termination
        );
    }

    #[test]
    fn rapos_is_reproducible_and_terminates() {
        let source = r#"
            global x = 0;
            global y = 0;
            proc writer(v) { x = v; y = v; }
            proc main() {
                var a = spawn writer(1);
                var b = spawn writer(2);
                join a; join b;
                print x + y;
            }
        "#;
        let out1 = run(source, &mut RaposScheduler::seeded(5));
        let out2 = run(source, &mut RaposScheduler::seeded(5));
        assert_eq!(out1.termination, Termination::AllExited);
        assert_eq!(out1.output, out2.output);
        assert_eq!(out1.steps, out2.steps);
    }

    #[test]
    fn rapos_explores_multiple_outcomes() {
        let source = r#"
            global x = 0;
            proc writer(v) { x = v; }
            proc main() {
                var a = spawn writer(1);
                var b = spawn writer(2);
                join a; join b;
                print x;
            }
        "#;
        let outputs: std::collections::HashSet<String> = (0..64)
            .map(|seed| run(source, &mut RaposScheduler::seeded(seed)).output[0].clone())
            .collect();
        assert_eq!(outputs.len(), 2, "{outputs:?}");
    }

    #[test]
    fn scheduler_stop_is_reported() {
        struct Quitter;
        impl Scheduler for Quitter {
            fn pick(&mut self, _exec: &Execution<'_>, _enabled: &[ThreadId]) -> Option<ThreadId> {
                None
            }
        }
        let outcome = run("proc main() { nop; }", &mut Quitter);
        assert_eq!(outcome.termination, Termination::SchedulerStopped);
    }
}
