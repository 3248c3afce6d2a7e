//! The execution engine: the paper's abstract machine.
//!
//! [`Execution`] exposes exactly the interface the RaceFuzzer algorithms are
//! written against (§2.1):
//!
//! * `Enabled(s)`   → [`Execution::enabled`] / [`Execution::is_enabled`]
//! * `Alive(s)`     → [`Execution::alive`]
//! * `NextStmt(s,t)`→ [`Execution::next_instr`] (and
//!   [`Execution::next_access`], which also resolves the dynamic memory
//!   location the statement would touch, *without side effects*)
//! * `Execute(s,t)` → [`Execution::step`]
//!
//! Exactly one thread executes at a time, all scheduling choices are made by
//! the caller, and all internal tie-breaking (wait-set order, allocation
//! order) is deterministic — so a schedule is a pure function of the
//! caller's choices, which is what makes seed-only replay possible.

use crate::event::{Access, Event, Loc, MsgId, Observer};
use crate::heap::{Heap, HeapCell};
use crate::locks::LockTable;
use crate::scratch;
use crate::thread::{Frame, Protection, Status, ThreadState, UncaughtException};
use crate::value::{ObjId, ThreadId, Value};
use crate::vm::{ExecEngine, EMPTY_CACHE};
use cil::ast::{BinOp, UnOp};
use cil::bytecode::{CodeImage, EnabledKind};
use cil::flat::{Instr, InstrId, LocalId, ProcId, PureExpr};
use cil::{Program, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error constructing an [`Execution`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// The requested entry procedure does not exist.
    NoSuchProc(String),
    /// The entry procedure takes parameters.
    EntryHasParams(String, usize),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::NoSuchProc(name) => write!(f, "no procedure named `{name}`"),
            SetupError::EntryHasParams(name, count) => {
                write!(f, "entry procedure `{name}` takes {count} parameter(s)")
            }
        }
    }
}

impl std::error::Error for SetupError {}

/// An interpreter invariant violation: the machine reached a state its own
/// bookkeeping says is impossible. These used to be internal `panic!`s;
/// they are surfaced as structured values so long fuzzing campaigns can
/// record the faulty trial and continue instead of dying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A `notify`/`notifyall` signalled a thread that was not waiting.
    SignalledNotWaiting {
        /// The thread that was signalled.
        thread: ThreadId,
    },
    /// A return or unwind tried to pop a frame from an empty call stack.
    FrameUnderflow {
        /// The thread whose stack underflowed.
        thread: ThreadId,
    },
    /// An allocation would push the heap past its budget
    /// ([`crate::Limits::max_heap_cells`]). Unlike the other variants this
    /// is not an interpreter bug but a *resource verdict* on the program
    /// under test: an adversarial workload degrades into this reported
    /// termination instead of OOM-killing the whole harness. Campaign
    /// drivers count it as a completed trial, not a retryable failure.
    MemoryBudget {
        /// Slots the heap would have held after the refused allocation.
        used: u64,
        /// The budget in force.
        budget: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::SignalledNotWaiting { thread } => {
                write!(f, "signalled thread {thread:?} was not waiting")
            }
            ExecError::FrameUnderflow { thread } => {
                write!(f, "call stack underflow on thread {thread:?}")
            }
            ExecError::MemoryBudget { used, budget } => {
                write!(
                    f,
                    "heap budget exceeded: {used} cells over a budget of {budget}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A per-pc stop predicate for [`Execution::run_quiescent`], built by
/// [`Execution::stop_mask`]: `true` where the statement must return control
/// to the scheduler.
pub struct StopMask(Box<[bool]>);

/// The result of executing one statement of one thread.
#[derive(Clone, Debug, PartialEq)]
pub enum StepResult {
    /// The thread executed a statement and is still alive.
    Ran,
    /// The thread finished its last frame normally.
    Exited,
    /// An exception escaped the thread's last frame; the thread is dead.
    Uncaught(UncaughtException),
    /// The chosen thread was not enabled; nothing happened.
    NotEnabled,
    /// The interpreter detected an internal invariant violation; the
    /// machine is poisoned and must not be stepped further.
    EngineError(ExecError),
}

/// An exception in flight during one step.
#[derive(Clone, Debug)]
pub(crate) struct Thrown {
    pub(crate) name: Symbol,
    pub(crate) message: Option<Arc<str>>,
    pub(crate) at: InstrId,
}

/// A copy-on-write fork point of an [`Execution`].
///
/// Capturing one is cheap: the heap is `Arc`-paged, each thread sits behind
/// an `Arc`, and `Value`s are structurally shared, so a snapshot costs
/// O(pages + threads) refcount bumps and later writes by the live execution
/// copy only the state they touch. A `Snapshot` carries no borrow of the
/// program, so it is `Send + Sync` and can be shared read-side across the
/// work-stealing trial pool.
#[derive(Clone)]
pub struct Snapshot {
    heap: Heap,
    globals: Vec<Value>,
    threads: Vec<Arc<ThreadState>>,
    locks: LockTable,
    msg_counter: MsgId,
    termination_msg: HashMap<ThreadId, MsgId>,
    steps: u64,
    output: Vec<String>,
    uncaught: Vec<UncaughtException>,
    poisoned: Option<ExecError>,
    heap_budget: Option<u64>,
}

impl Snapshot {
    /// Statements the captured state had executed.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("steps", &self.steps)
            .field("threads", &self.threads.len())
            .field("heap_cells", &self.heap.len())
            .finish()
    }
}

/// Resolves `entry` to `(proc, entry pc, local slot count)` for
/// [`Execution::new`] and [`Execution::reset`].
fn resolve_entry(program: &Program, entry: &str) -> Result<(ProcId, InstrId, usize), SetupError> {
    let proc = program
        .proc_named(entry)
        .ok_or_else(|| SetupError::NoSuchProc(entry.to_owned()))?;
    let info = &program.procs[proc.index()];
    if info.param_count != 0 {
        return Err(SetupError::EntryHasParams(
            entry.to_owned(),
            info.param_count,
        ));
    }
    Ok((proc, info.entry, info.local_count()))
}

/// A running (or finished) program state.
pub struct Execution<'p> {
    pub(crate) program: &'p Program,
    pub(crate) heap: Heap,
    pub(crate) globals: Vec<Value>,
    pub(crate) threads: Vec<Arc<ThreadState>>,
    pub(crate) locks: LockTable,
    msg_counter: MsgId,
    termination_msg: HashMap<ThreadId, MsgId>,
    steps: u64,
    output: Vec<String>,
    uncaught: Vec<UncaughtException>,
    /// Set when an interpreter invariant is violated; the machine must not
    /// be stepped further once poisoned.
    poisoned: Option<ExecError>,
    /// Heap-cell budget; `None` means unbounded (see
    /// [`Execution::set_heap_budget`]).
    heap_budget: Option<u64>,
    /// Which execution engine [`Execution::step`] dispatches to (see
    /// [`crate::vm::ExecEngine`]).
    engine: ExecEngine,
    /// The program's bytecode image when `engine` is `Bytecode`; `None`
    /// forces the tree-walker.
    pub(crate) code: Option<&'p CodeImage>,
    /// Per-step temporary registers, sized to [`CodeImage::max_temps`].
    /// Purely intra-step state: never captured in a [`Snapshot`].
    pub(crate) vm_temps: Vec<Value>,
    /// Monomorphic inline caches, one `(class id, field slot)` pair per
    /// cache site, keyed on class id and never invalidated (class layouts
    /// are immutable). A stale entry is impossible, only a missed one, so
    /// cache contents are not observable state and survive
    /// snapshot/restore/reset untouched.
    pub(crate) field_caches: Vec<(u32, u32)>,
    /// Advances whenever the lock table, a thread's status, an interrupt
    /// flag set by another thread, or the thread count changes (see
    /// [`Execution::enabledness_epoch`]). Not snapshot state.
    epoch: u64,
    /// Advances on every step that changes state another thread can read,
    /// other than the lock table (see [`Execution::effects`]). Not
    /// snapshot state.
    pub(crate) effects: u64,
}

impl<'p> Execution<'p> {
    /// Creates an execution with a single thread at `entry` (a zero-argument
    /// procedure, conventionally `main`).
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if `entry` is missing or takes parameters.
    pub fn new(program: &'p Program, entry: &str) -> Result<Self, SetupError> {
        let (proc, entry_pc, local_count) = resolve_entry(program, entry)?;
        let mut globals = scratch::take_value_buffer(program.globals.len());
        globals.extend(
            program
                .globals
                .iter()
                .map(|global| Value::from(&global.init)),
        );
        let mut threads = scratch::take_thread_table();
        threads.push(scratch::take_thread(
            ThreadId(0),
            proc,
            entry_pc,
            local_count,
        ));
        let code = program.bytecode();
        Ok(Execution {
            program,
            heap: Heap::new(),
            globals,
            threads,
            locks: LockTable::new(),
            msg_counter: 0,
            termination_msg: HashMap::new(),
            steps: 0,
            output: Vec::new(),
            uncaught: Vec::new(),
            poisoned: None,
            heap_budget: None,
            engine: ExecEngine::Bytecode,
            code: Some(code),
            vm_temps: scratch::take_values(code.max_temps() as usize),
            field_caches: scratch::take_caches(code.cache_sites() as usize, EMPTY_CACHE),
            epoch: 0,
            effects: 0,
        })
    }

    /// Captures the current state as a copy-on-write [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            heap: self.heap.clone(),
            globals: self.globals.clone(),
            threads: self.threads.clone(),
            locks: self.locks.clone(),
            msg_counter: self.msg_counter,
            termination_msg: self.termination_msg.clone(),
            steps: self.steps,
            output: self.output.clone(),
            uncaught: self.uncaught.clone(),
            poisoned: self.poisoned.clone(),
            heap_budget: self.heap_budget,
        }
    }

    /// Builds an execution that continues from `snapshot`.
    ///
    /// `program` must be the program the snapshot was captured from;
    /// snapshots deliberately carry no program reference so they can cross
    /// threads and outlive the borrow they were taken under.
    pub fn resume(program: &'p Program, snapshot: &Snapshot) -> Execution<'p> {
        let code = program.bytecode();
        let mut globals = scratch::take_value_buffer(snapshot.globals.len());
        globals.extend(snapshot.globals.iter().cloned());
        let mut threads = scratch::take_thread_table();
        threads.extend(snapshot.threads.iter().cloned());
        Execution {
            program,
            heap: snapshot.heap.clone(),
            globals,
            threads,
            locks: snapshot.locks.clone(),
            msg_counter: snapshot.msg_counter,
            termination_msg: snapshot.termination_msg.clone(),
            steps: snapshot.steps,
            output: snapshot.output.clone(),
            uncaught: snapshot.uncaught.clone(),
            poisoned: snapshot.poisoned.clone(),
            heap_budget: snapshot.heap_budget,
            engine: ExecEngine::Bytecode,
            code: Some(code),
            vm_temps: scratch::take_values(code.max_temps() as usize),
            field_caches: scratch::take_caches(code.cache_sites() as usize, EMPTY_CACHE),
            epoch: 0,
            effects: 0,
        }
    }

    /// [`Execution::resume`] in place: overwrites `self` with `snapshot`,
    /// reusing existing allocations (`clone_from` keeps `Vec`/map
    /// capacity) — the hot path when one scratch execution serves a whole
    /// trial loop.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.heap.clone_from(&snapshot.heap);
        self.globals.clone_from(&snapshot.globals);
        self.threads.clone_from(&snapshot.threads);
        self.locks.clone_from(&snapshot.locks);
        self.msg_counter = snapshot.msg_counter;
        self.termination_msg.clone_from(&snapshot.termination_msg);
        self.steps = snapshot.steps;
        self.output.clone_from(&snapshot.output);
        self.uncaught.clone_from(&snapshot.uncaught);
        self.poisoned.clone_from(&snapshot.poisoned);
        self.heap_budget = snapshot.heap_budget;
        self.epoch += 1;
        self.effects += 1;
    }

    /// Reinitialises to the state [`Execution::new`] would produce, reusing
    /// this execution's buffers — the non-snapshot fallback's trial-scratch
    /// path, which avoids fresh `Vec`/map allocations per trial.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if `entry` is missing or takes parameters.
    pub fn reset(&mut self, entry: &str) -> Result<(), SetupError> {
        let (proc, entry_pc, local_count) = resolve_entry(self.program, entry)?;
        self.heap.clear();
        self.globals.clear();
        self.globals.extend(
            self.program
                .globals
                .iter()
                .map(|global| Value::from(&global.init)),
        );
        self.threads.truncate(1);
        match self.threads.first_mut() {
            Some(main) => Arc::make_mut(main).reset(ThreadId(0), proc, entry_pc, local_count),
            None => self.threads.push(scratch::take_thread(
                ThreadId(0),
                proc,
                entry_pc,
                local_count,
            )),
        }
        self.locks.clear();
        self.msg_counter = 0;
        self.termination_msg.clear();
        self.steps = 0;
        self.output.clear();
        self.uncaught.clear();
        self.poisoned = None;
        self.heap_budget = None;
        self.epoch += 1;
        self.effects += 1;
        Ok(())
    }

    /// Mutable access to one thread's state, copying it first if a
    /// snapshot still shares it (cloned-on-first-write frames).
    fn thread_mut(&mut self, thread: ThreadId) -> &mut ThreadState {
        Arc::make_mut(&mut self.threads[thread.index()])
    }

    /// The invariant violation that poisoned this machine, if any.
    #[inline]
    pub fn engine_error(&self) -> Option<&ExecError> {
        self.poisoned.as_ref()
    }

    /// Caps total heap allocation at `budget` slots (see
    /// [`crate::heap::alloc_cost`]); an allocation that would exceed it
    /// poisons the machine with [`ExecError::MemoryBudget`], which drivers
    /// surface as [`crate::Termination::EngineError`]. `None` (the default)
    /// is unbounded.
    pub fn set_heap_budget(&mut self, budget: Option<u64>) {
        self.heap_budget = budget;
    }

    /// Selects the execution engine (see [`ExecEngine`]). Both engines are
    /// observably identical — same events, RNG-visible choices, errors, and
    /// step counts — so this only changes speed. The default is
    /// [`ExecEngine::Bytecode`]; switching is cheap and survives
    /// [`Execution::restore`]/[`Execution::reset`].
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
        match engine {
            ExecEngine::Bytecode => {
                let code = self.program.bytecode();
                self.vm_temps.resize(code.max_temps() as usize, Value::Null);
                self.field_caches
                    .resize(code.cache_sites() as usize, EMPTY_CACHE);
                self.code = Some(code);
            }
            ExecEngine::TreeWalk => self.code = None,
        }
    }

    /// The engine [`Execution::step`] currently dispatches to.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Charges an allocation of `len` fields/elements against the heap
    /// budget and the `interp.alloc` failpoint. On refusal the machine is
    /// poisoned and the caller must not allocate.
    fn charge_alloc(&mut self, len: usize) -> bool {
        if faults::hit("interp.alloc") == faults::Fault::Error {
            self.poisoned = Some(ExecError::MemoryBudget {
                used: self.heap.slots(),
                budget: self.heap_budget.unwrap_or(0),
            });
            return false;
        }
        let Some(budget) = self.heap_budget else {
            return true;
        };
        let used = self
            .heap
            .slots()
            .saturating_add(crate::heap::alloc_cost(len));
        if used > budget {
            self.poisoned = Some(ExecError::MemoryBudget { used, budget });
            return false;
        }
        true
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Total statements executed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The heap, read-only.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Text produced by `print` statements.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Exceptions that killed threads, in occurrence order.
    pub fn uncaught(&self) -> &[UncaughtException] {
        &self.uncaught
    }

    /// Number of threads ever created.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The status of a thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never created.
    pub fn status(&self, thread: ThreadId) -> &Status {
        &self.threads[thread.index()].status
    }

    /// Whether `thread` holds the interrupt flag.
    pub fn is_interrupted(&self, thread: ThreadId) -> bool {
        self.threads[thread.index()].interrupted
    }

    /// The current value of global `name` (for tests and harnesses).
    pub fn global_value(&self, name: &str) -> Option<&Value> {
        let id = self.program.global_named(name)?;
        self.globals.get(id.index())
    }

    /// `Alive(s)`: threads that have not terminated.
    pub fn alive(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        self.alive_into(&mut out);
        out
    }

    /// [`Execution::alive`] into a caller-owned buffer — schedulers that
    /// poll every decision reuse one allocation for the whole run.
    pub fn alive_into(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .filter(|thread| thread.is_alive())
                .map(|thread| thread.id),
        );
    }

    /// `true` if any thread has not terminated, without allocating.
    pub fn has_alive(&self) -> bool {
        self.threads.iter().any(|thread| thread.is_alive())
    }

    /// `Enabled(s)`: alive threads whose next statement can execute now.
    pub fn enabled(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        self.enabled_into(&mut out);
        out
    }

    /// [`Execution::enabled`] into a caller-owned buffer — the per-decision
    /// `Vec` allocation this avoids is measurable once trials run on every
    /// core (the cost parallelism multiplies).
    pub fn enabled_into(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .filter(|thread| self.is_enabled(thread.id))
                .map(|thread| thread.id),
        );
    }

    /// `true` if any thread is enabled, without allocating.
    pub fn has_enabled(&self) -> bool {
        self.threads.iter().any(|thread| self.is_enabled(thread.id))
    }

    /// Whether a single thread is enabled.
    pub fn is_enabled(&self, thread: ThreadId) -> bool {
        let Some(state) = self.threads.get(thread.index()) else {
            return false;
        };
        match &state.status {
            Status::Exited | Status::Waiting { .. } => false,
            Status::Reacquire { obj, .. } => self.locks.owner(*obj).is_none(),
            Status::Runnable => self.runnable_enabled(state, thread, state.frame().pc),
        }
    }

    /// A counter that advances whenever a fact one thread's enabledness
    /// reads can be changed by *another* thread: the lock table, a thread's
    /// status (waiting, reacquiring, exited), an interrupt flag, or the
    /// thread count. The remaining inputs of [`Execution::is_enabled`] — a
    /// thread's own pc and locals — change only when that thread steps.
    ///
    /// So if the counter is unchanged across steps of thread `t`, every
    /// other thread's enabledness is unchanged too, and re-checking `t`
    /// alone brings a cached enabled set up to date. The counter is not
    /// part of a [`Snapshot`]; [`Execution::restore`] and
    /// [`Execution::reset`] advance it.
    #[inline]
    pub fn enabledness_epoch(&self) -> u64 {
        self.epoch
    }

    /// A counter that advances on every step that changes state another
    /// thread can read, apart from monitor ownership: a heap write or
    /// allocation, a global store, `print`, `spawn`, a `notify` or
    /// `notifyall` that wakes a waiter, an `interrupt` of a live thread,
    /// `wait`, and a thread's exit (normal or by an uncaught exception).
    /// `lock` and `unlock` do not advance it, nor do loads, branches,
    /// calls, returns, `sleep` and caught exceptions, which change only the
    /// stepping thread's own [`ThreadState`] and the lock table.
    ///
    /// So while the counter stands still, every thread's next step is a
    /// function of its own state alone, and whether it is enabled is a
    /// function of its own state and the lock table. Phase 2 relies on this
    /// to replay spin loops without executing them. The counter is not
    /// part of a [`Snapshot`]; [`Execution::restore`] and
    /// [`Execution::reset`] advance it.
    #[inline]
    pub fn effects(&self) -> u64 {
        self.effects
    }

    /// The state of `thread`, shared copy-on-write with the execution.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never created.
    pub fn thread_state(&self, thread: ThreadId) -> &Arc<ThreadState> {
        &self.threads[thread.index()]
    }

    /// The monitor whose owner decides whether `thread` is enabled: the
    /// target of the `lock` at its pc, or the monitor it must reacquire
    /// after a `wait`. `None` when no monitor does (the thread is enabled
    /// or disabled whoever owns what).
    pub fn blocking_monitor(&self, thread: ThreadId) -> Option<ObjId> {
        let state = self.threads.get(thread.index())?;
        match state.status {
            Status::Reacquire { obj, .. } => Some(obj),
            Status::Runnable => match self.program.instr(state.frame().pc) {
                Instr::Lock { obj, .. } => match state.frame().locals[obj.index()] {
                    Value::Ref(target) => Some(target),
                    _ => None,
                },
                _ => None,
            },
            Status::Waiting { .. } | Status::Exited => None,
        }
    }

    /// Current owner of `obj`'s monitor.
    pub fn monitor_owner(&self, obj: ObjId) -> Option<ThreadId> {
        self.locks.owner(obj)
    }

    /// Installs thread states a scheduler reached by replaying recorded
    /// steps instead of executing them, and sets the statement count those
    /// steps bring the execution to.
    ///
    /// Each state must be one its thread reaches from its current state by
    /// its own steps while [`Execution::effects`] stands still; only the
    /// lock table can then disagree, and it is brought into line with the
    /// new `held` sets (a monitor a thread no longer holds is released,
    /// one it newly holds is acquired). The effects counter does not move.
    pub fn install_replayed(&mut self, states: &[Arc<ThreadState>], steps: u64) {
        for state in states {
            let old = std::mem::replace(&mut self.threads[state.id.index()], Arc::clone(state));
            for &(obj, _) in &old.held {
                if state.hold_depth(obj) == 0 {
                    self.locks.release(obj, state.id);
                }
            }
        }
        // Acquire after every release: a monitor can pass between two
        // installed threads.
        for state in states {
            for &(obj, _) in &state.held {
                self.locks.acquire(obj, state.id);
            }
        }
        debug_assert!(steps >= self.steps, "replay cannot undo steps");
        self.steps = steps;
        self.epoch += 1;
    }

    /// Whether the lock table's owners are exactly the monitors in the
    /// threads' `held` sets (a debug check for [`Execution::install_replayed`]
    /// callers).
    pub fn monitors_agree_with_threads(&self) -> bool {
        let held_are_owned = self.threads.iter().all(|thread| {
            thread
                .held
                .iter()
                .all(|&(obj, _)| self.locks.owner(obj) == Some(thread.id))
        });
        held_are_owned
            && self
                .locks
                .owners()
                .all(|(obj, owner)| self.threads[owner.index()].hold_depth(obj) > 0)
    }

    /// Combined `is_enabled` + `NextStmt` for scheduler inner loops: one
    /// thread-table access answers both. `Some(pc)` iff the thread is
    /// runnable *and* enabled; reacquiring-after-wait threads — enabled but
    /// with no next statement — return `None`, exactly as the separate
    /// `is_enabled`-then-`next_instr` sequence ends up treating them.
    #[inline]
    pub fn enabled_pc(&self, thread: ThreadId) -> Option<InstrId> {
        let state = self.threads.get(thread.index())?;
        if !matches!(state.status, Status::Runnable) {
            return None;
        }
        let pc = state.frame().pc;
        self.runnable_enabled(state, thread, pc).then_some(pc)
    }

    /// Enabledness of a `Runnable` thread at `pc` (can its next statement
    /// execute now, or is it blocked at a `lock`/`join`?).
    fn runnable_enabled(&self, state: &ThreadState, thread: ThreadId, pc: InstrId) -> bool {
        // Bytecode path: a table read answers "can this pc block?"
        // without touching the 26-variant instruction enum. The two
        // conditional kinds replicate the tree-walk arms below exactly.
        if let Some(code) = self.code {
            return match code.enabled_kind(pc) {
                EnabledKind::Plain => true,
                EnabledKind::Lock(obj) => match state.frame().locals[obj.index()] {
                    Value::Ref(target) => self.locks.available_to(target, thread),
                    _ => true, // throws immediately, so it can execute
                },
                EnabledKind::Join(handle) => match state.frame().locals[handle.index()] {
                    Value::Thread(target) => {
                        state.interrupted || !self.threads[target.index()].is_alive()
                    }
                    _ => true, // throws TypeError
                },
            };
        }
        match self.program.instr(pc) {
            Instr::Lock { obj, .. } => match state.frame().locals[obj.index()] {
                Value::Ref(target) => self.locks.available_to(target, thread),
                // A null/ill-typed lock target throws immediately, so the
                // statement *can* execute.
                _ => true,
            },
            Instr::Join { thread: handle } => match state.frame().locals[handle.index()] {
                Value::Thread(target) => {
                    state.interrupted || !self.threads[target.index()].is_alive()
                }
                _ => true, // throws TypeError
            },
            _ => true,
        }
    }

    /// `true` when no thread is enabled but some are alive — the paper's
    /// deadlock condition (Algorithm 1, line 30).
    pub fn is_deadlocked(&self) -> bool {
        !self.has_enabled() && self.has_alive()
    }

    /// `true` if `instr` is a synchronization operation — the scheduler's
    /// per-statement query under the §4 switch-only-at-sync optimisation.
    /// Engine-keyed: the bytecode image answers from its per-pc flag table,
    /// the tree-walk path matches the instruction enum.
    #[inline]
    pub fn is_sync_op(&self, instr: InstrId) -> bool {
        match self.code {
            Some(code) => code.is_sync(instr),
            None => self.program.instr(instr).is_sync_op(),
        }
    }

    /// `NextStmt(s, t)`: the instruction `t` would execute next, when `t` is
    /// runnable.
    pub fn next_instr(&self, thread: ThreadId) -> Option<InstrId> {
        let state = self.threads.get(thread.index())?;
        match state.status {
            Status::Runnable => Some(state.frame().pc),
            _ => None,
        }
    }

    /// Resolves the shared access `t`'s next statement would perform, with
    /// **no side effects** — the primitive for Algorithm 2's `Racing` check.
    ///
    /// Returns `None` if the next statement is not a memory access or if its
    /// address resolution would fault (the statement would throw instead of
    /// accessing memory).
    pub fn next_access(&self, thread: ThreadId) -> Option<Access> {
        let state = self.threads.get(thread.index())?;
        if state.status != Status::Runnable {
            return None;
        }
        let pc = state.frame().pc;
        if let Some(code) = self.code {
            return self.footprint_access(code, state, pc);
        }
        let locals = &state.frame().locals;
        let access = |loc, is_write| {
            Some(Access {
                instr: pc,
                loc,
                is_write,
            })
        };
        match self.program.instr(pc) {
            Instr::LoadGlobal { global, .. } => access(Loc::Global(*global), false),
            Instr::StoreGlobal { global, .. } => access(Loc::Global(*global), true),
            Instr::LoadField { obj, field, .. } => {
                let target = self.field_target(locals, *obj, *field)?;
                access(Loc::Field(target, *field), false)
            }
            Instr::StoreField { obj, field, .. } => {
                let target = self.field_target(locals, *obj, *field)?;
                access(Loc::Field(target, *field), true)
            }
            Instr::LoadElem { arr, idx, .. } => {
                let (target, index) = self.elem_target(state, locals, *arr, idx)?;
                access(Loc::Elem(target, index), false)
            }
            Instr::StoreElem { arr, idx, .. } => {
                let (target, index) = self.elem_target(state, locals, *arr, idx)?;
                access(Loc::Elem(target, index), true)
            }
            _ => None,
        }
    }

    fn field_target(&self, locals: &[Value], obj: LocalId, field: Symbol) -> Option<ObjId> {
        match locals[obj.index()] {
            Value::Ref(target) => match self.heap.cell(target) {
                HeapCell::Object { class, .. } => {
                    self.program.classes[class.index()].field_slot(field)?;
                    Some(target)
                }
                HeapCell::Array { .. } => None,
            },
            _ => None,
        }
    }

    fn elem_target(
        &self,
        state: &ThreadState,
        locals: &[Value],
        arr: LocalId,
        idx: &PureExpr,
    ) -> Option<(ObjId, u32)> {
        let Value::Ref(target) = locals[arr.index()] else {
            return None;
        };
        let len = self.heap.array_len(target)?;
        let Ok(Value::Int(index)) = self.eval_in(state, idx, InstrId(0)) else {
            return None;
        };
        if index < 0 || index as usize >= len {
            return None;
        }
        Some((target, index as u32))
    }

    /// `Execute(s, t)`: runs exactly one statement of `thread`.
    ///
    /// Returns [`StepResult::NotEnabled`] (and changes nothing) if `thread`
    /// is not currently enabled, so schedulers can be written defensively.
    pub fn step(&mut self, thread: ThreadId, observer: &mut dyn Observer) -> StepResult {
        if let Some(error) = &self.poisoned {
            return StepResult::EngineError(error.clone());
        }
        if !self.is_enabled(thread) {
            return StepResult::NotEnabled;
        }
        self.step_enabled(thread, observer)
    }

    /// [`Execution::step`] for callers that have *just verified*
    /// [`Execution::is_enabled`] for `thread` (every scheduler decision
    /// already has) — skips re-deriving enabledness, which is measurable at
    /// one check per executed statement. Stepping a thread that is not
    /// enabled is a caller bug: debug builds panic, release builds may
    /// execute a blocked statement.
    #[inline]
    pub fn step_enabled(&mut self, thread: ThreadId, observer: &mut dyn Observer) -> StepResult {
        if let Some(error) = &self.poisoned {
            return StepResult::EngineError(error.clone());
        }
        debug_assert!(self.is_enabled(thread), "step_enabled on a disabled thread");
        self.steps += 1;

        // Completing a `wait`: reacquire the monitor, then resume or throw.
        // The discriminant test keeps the `Status` copy off the hot path —
        // almost every step finds the thread plainly `Runnable`.
        if matches!(
            self.threads[thread.index()].status,
            Status::Reacquire { .. }
        ) {
            let Status::Reacquire {
                obj,
                depth,
                interrupted,
                recv_msg,
            } = self.threads[thread.index()].status.clone()
            else {
                unreachable!("discriminant checked above");
            };
            let pc = self.threads[thread.index()].frame().pc;
            self.locks.acquire(obj, thread);
            self.epoch += 1;
            self.thread_mut(thread).push_hold(obj, depth);
            observer.on_event(&Event::Acquire {
                thread,
                obj,
                instr: pc,
            });
            if let Some(msg) = recv_msg {
                observer.on_event(&Event::Recv { msg, thread });
            }
            self.thread_mut(thread).status = Status::Runnable;
            if interrupted || self.threads[thread.index()].interrupted {
                self.thread_mut(thread).interrupted = false;
                let thrown = Thrown {
                    name: self.program.builtins.interrupted,
                    message: None,
                    at: pc,
                };
                return self.unwind(thread, thrown, observer);
            }
            self.thread_mut(thread).frame_mut().pc = InstrId(pc.0 + 1);
            return StepResult::Ran;
        }

        let pc = self.threads[thread.index()].frame().pc;
        let result = match self.code {
            Some(code) => {
                let wants_events = observer.wants_events();
                self.exec_bytecode(thread, pc, code, observer, wants_events)
            }
            None => self.exec_instr(thread, pc, observer),
        };
        match result {
            Ok(exited) => {
                if let Some(error) = &self.poisoned {
                    return StepResult::EngineError(error.clone());
                }
                if exited {
                    StepResult::Exited
                } else {
                    StepResult::Ran
                }
            }
            Err(thrown) => self.unwind(thread, thrown, observer),
        }
    }

    /// Builds the per-pc stop predicate for [`Execution::run_quiescent`]:
    /// `true` at every synchronization operation plus the caller's extra
    /// stop points (a Phase-2 race set). Built once per trial so the inner
    /// loop probes a byte instead of re-deriving both conditions per
    /// statement.
    pub fn stop_mask(&self, extra: &[InstrId]) -> StopMask {
        let mut mask: Vec<bool> = (0..self.program.instr_count())
            .map(|index| self.is_sync_op(InstrId(index as u32)))
            .collect();
        for pc in extra {
            mask[pc.index()] = true;
        }
        StopMask(mask.into_boxed_slice())
    }

    /// Runs `thread` until its next statement is in `stop` (a race-set
    /// statement or synchronization operation), the thread blocks or
    /// exits, `max_steps` total steps are reached, or the engine poisons.
    /// Returns how many statements ran (for schedule recording).
    ///
    /// This is the body of a scheduler's "run until the next possible
    /// context switch" inner loop, folded into the interpreter so the
    /// per-statement bookkeeping — enabledness, next-statement fetch, the
    /// stop probes, and the step prologue — stays in one loop with its
    /// state hot, instead of being re-derived across a crate boundary for
    /// every statement. Observable behavior is exactly the equivalent
    /// `enabled_pc` / probe / `step_enabled` sequence, including where an
    /// exception unwinds and execution of the same thread continues.
    pub fn run_quiescent(
        &mut self,
        thread: ThreadId,
        stop: &StopMask,
        max_steps: u64,
        observer: &mut dyn Observer,
    ) -> u64 {
        let mut taken = 0;
        let wants_events = observer.wants_events();
        while self.steps < max_steps && self.poisoned.is_none() {
            let Some(pc) = self.enabled_pc(thread) else {
                break;
            };
            if stop.0[pc.index()] {
                break;
            }
            // `enabled_pc` returned `Some`, so the thread is `Runnable` —
            // `step_enabled`'s wait-reacquisition branch cannot apply.
            self.steps += 1;
            taken += 1;
            let result = match self.code {
                Some(code) => self.exec_bytecode(thread, pc, code, observer, wants_events),
                None => self.exec_instr(thread, pc, observer),
            };
            if let Err(thrown) = result {
                // May catch (thread keeps running), kill the thread, or
                // poison the engine — the loop head re-derives all three.
                self.unwind(thread, thrown, observer);
            }
        }
        taken
    }

    fn next_msg(&mut self) -> MsgId {
        self.msg_counter += 1;
        self.msg_counter
    }

    fn throw(&self, name: Symbol, message: impl Into<String>, at: InstrId) -> Thrown {
        Thrown {
            name,
            message: Some(Arc::from(message.into().as_str())),
            at,
        }
    }

    /// Borrows a local slot without cloning the value — the hot-path way
    /// to inspect a lock/handle operand.
    fn local_ref(&self, thread: ThreadId, slot: LocalId) -> &Value {
        &self.threads[thread.index()].frame().locals[slot.index()]
    }

    fn set_local(&mut self, thread: ThreadId, slot: LocalId, value: Value) {
        self.thread_mut(thread).frame_mut().locals[slot.index()] = value;
    }

    fn advance(&mut self, thread: ThreadId) {
        let frame = self.thread_mut(thread).frame_mut();
        frame.pc = InstrId(frame.pc.0 + 1);
    }

    /// Evaluates a pure expression against a thread's current frame.
    fn eval(&self, thread: ThreadId, expr: &PureExpr, at: InstrId) -> Result<Value, Thrown> {
        self.eval_in(&self.threads[thread.index()], expr, at)
    }

    pub(crate) fn eval_in(
        &self,
        state: &ThreadState,
        expr: &PureExpr,
        at: InstrId,
    ) -> Result<Value, Thrown> {
        let builtins = &self.program.builtins;
        match expr {
            PureExpr::Const(constant) => Ok(Value::from(constant)),
            PureExpr::Local(slot) => Ok(state.frame().locals[slot.index()].clone()),
            PureExpr::Unary { op, operand } => {
                let value = self.eval_in(state, operand, at)?;
                match (op, value) {
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, value) => Err(self.throw(
                        builtins.type_error,
                        format!("cannot apply `{op}` to {}", value.type_name()),
                        at,
                    )),
                }
            }
            PureExpr::Binary { op, lhs, rhs } => {
                let left = self.eval_in(state, lhs, at)?;
                let right = self.eval_in(state, rhs, at)?;
                self.eval_binop(*op, left, right, at)
            }
            PureExpr::Len(inner) => match self.eval_in(state, inner, at)? {
                Value::Ref(obj) => match self.heap.array_len(obj) {
                    Some(len) => Ok(Value::Int(len as i64)),
                    None => Err(self.throw(builtins.type_error, "len() of a non-array", at)),
                },
                Value::Null => Err(self.throw(builtins.null_pointer, "len() of null", at)),
                other => Err(self.throw(
                    builtins.type_error,
                    format!("len() of {}", other.type_name()),
                    at,
                )),
            },
        }
    }

    fn eval_binop(
        &self,
        op: BinOp,
        left: Value,
        right: Value,
        at: InstrId,
    ) -> Result<Value, Thrown> {
        let builtins = &self.program.builtins;
        let type_error = |this: &Self| {
            Err(this.throw(
                builtins.type_error,
                format!(
                    "cannot apply `{op}` to {} and {}",
                    left.type_name(),
                    right.type_name()
                ),
                at,
            ))
        };
        match op {
            BinOp::Eq => return Ok(Value::Bool(left.loose_eq(&right))),
            BinOp::Ne => return Ok(Value::Bool(!left.loose_eq(&right))),
            _ => {}
        }
        match (op, &left, &right) {
            (BinOp::Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (BinOp::Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            (BinOp::Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (BinOp::Div, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(self.throw(builtins.arithmetic, "division by zero", at))
                } else {
                    Ok(Value::Int(a.wrapping_div(*b)))
                }
            }
            (BinOp::Rem, Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(self.throw(builtins.arithmetic, "remainder by zero", at))
                } else {
                    Ok(Value::Int(a.wrapping_rem(*b)))
                }
            }
            (BinOp::Lt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a < b)),
            (BinOp::Le, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a <= b)),
            (BinOp::Gt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a > b)),
            (BinOp::Ge, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a >= b)),
            (BinOp::And, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a && *b)),
            (BinOp::Or, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a || *b)),
            _ => type_error(self),
        }
    }

    fn as_bool(&self, value: Value, at: InstrId) -> Result<bool, Thrown> {
        match value {
            Value::Bool(b) => Ok(b),
            other => Err(self.throw(
                self.program.builtins.type_error,
                format!("expected bool, got {}", other.type_name()),
                at,
            )),
        }
    }

    fn as_ref(&self, value: &Value, what: &str, at: InstrId) -> Result<ObjId, Thrown> {
        match value {
            Value::Ref(obj) => Ok(*obj),
            Value::Null => Err(self.throw(
                self.program.builtins.null_pointer,
                format!("{what} is null"),
                at,
            )),
            other => Err(self.throw(
                self.program.builtins.type_error,
                format!("{what} is {}, expected ref", other.type_name()),
                at,
            )),
        }
    }

    fn emit_mem(
        &self,
        observer: &mut dyn Observer,
        thread: ThreadId,
        instr: InstrId,
        loc: Loc,
        is_write: bool,
    ) {
        if !observer.wants_events() {
            return;
        }
        let locks = if observer.needs_lockset() {
            self.threads[thread.index()].lockset()
        } else {
            Vec::new()
        };
        observer.on_event(&Event::Mem {
            thread,
            instr,
            loc,
            is_write,
            locks,
        });
    }

    /// Executes the instruction at `pc`. `Ok(true)` means the thread exited
    /// normally during this step.
    ///
    /// The tree-walker: the reference semantics of every statement. The
    /// [`ExecEngine::TreeWalk`] engine runs every step here; the bytecode
    /// engine runs here every [`Op::Fallback`](cil::bytecode::Op::Fallback)
    /// and every statement its fast pass breaks out of (see
    /// `Execution::exec_bytecode`), from scratch.
    pub(crate) fn exec_instr(
        &mut self,
        thread: ThreadId,
        pc: InstrId,
        observer: &mut dyn Observer,
    ) -> Result<bool, Thrown> {
        let builtins = self.program.builtins;
        // `self.program` is `&'p Program`, so the instruction can be
        // borrowed at lifetime `'p` — independent of `&mut self` — and the
        // old per-step `Instr::clone()` (a `Vec`/`Box` deep copy for
        // call-/spawn-shaped instructions) disappears from the hot path.
        let program: &'p Program = self.program;
        let instr: &'p Instr = program.instr(pc);
        match instr {
            Instr::Assign { dst, expr } => {
                let value = self.eval(thread, expr, pc)?;
                self.set_local(thread, *dst, value);
                self.advance(thread);
            }
            Instr::LoadGlobal { dst, global } => {
                let value = self.globals[global.index()].clone();
                self.emit_mem(observer, thread, pc, Loc::Global(*global), false);
                self.set_local(thread, *dst, value);
                self.advance(thread);
            }
            Instr::StoreGlobal { global, src } => {
                let value = self.eval(thread, src, pc)?;
                self.emit_mem(observer, thread, pc, Loc::Global(*global), true);
                self.globals[global.index()] = value;
                self.effects += 1;
                self.advance(thread);
            }
            &Instr::LoadField { dst, obj, field } => {
                let target = self.as_ref(self.local_ref(thread, obj), "field receiver", pc)?;
                let slot = self.field_slot(target, field, pc)?;
                self.emit_mem(observer, thread, pc, Loc::Field(target, field), false);
                let value = match self.heap.cell(target) {
                    HeapCell::Object { fields, .. } => fields[slot].clone(),
                    HeapCell::Array { .. } => unreachable!("field_slot checked object"),
                };
                self.set_local(thread, dst, value);
                self.advance(thread);
            }
            Instr::StoreField { obj, field, src } => {
                let target = self.as_ref(self.local_ref(thread, *obj), "field receiver", pc)?;
                let slot = self.field_slot(target, *field, pc)?;
                let value = self.eval(thread, src, pc)?;
                self.emit_mem(observer, thread, pc, Loc::Field(target, *field), true);
                match self.heap.cell_mut(target) {
                    HeapCell::Object { fields, .. } => fields[slot] = value,
                    HeapCell::Array { .. } => unreachable!("field_slot checked object"),
                }
                self.effects += 1;
                self.advance(thread);
            }
            Instr::LoadElem { dst, arr, idx } => {
                let (target, index) = self.resolve_elem(thread, *arr, idx, pc)?;
                self.emit_mem(observer, thread, pc, Loc::Elem(target, index), false);
                let value = match self.heap.cell(target) {
                    HeapCell::Array { elems } => elems[index as usize].clone(),
                    HeapCell::Object { .. } => unreachable!("resolve_elem checked array"),
                };
                self.set_local(thread, *dst, value);
                self.advance(thread);
            }
            Instr::StoreElem { arr, idx, src } => {
                let (target, index) = self.resolve_elem(thread, *arr, idx, pc)?;
                let value = self.eval(thread, src, pc)?;
                self.emit_mem(observer, thread, pc, Loc::Elem(target, index), true);
                match self.heap.cell_mut(target) {
                    HeapCell::Array { elems } => elems[index as usize] = value,
                    HeapCell::Object { .. } => unreachable!("resolve_elem checked array"),
                }
                self.effects += 1;
                self.advance(thread);
            }
            &Instr::New { dst, class } => {
                let field_count = self.program.classes[class.index()].fields.len();
                if !self.charge_alloc(field_count) {
                    return Ok(false); // poisoned; step() reports the error
                }
                let obj = self.heap.alloc_object(class, field_count);
                self.effects += 1;
                observer.on_event(&Event::Allocated {
                    thread,
                    obj,
                    site: pc,
                });
                self.set_local(thread, dst, Value::Ref(obj));
                self.advance(thread);
            }
            Instr::NewArray { dst, len } => {
                let len = match self.eval(thread, len, pc)? {
                    Value::Int(n) if n >= 0 => n as usize,
                    Value::Int(n) => {
                        return Err(self.throw(
                            builtins.index_out_of_bounds,
                            format!("negative array size {n}"),
                            pc,
                        ));
                    }
                    other => {
                        return Err(self.throw(
                            builtins.type_error,
                            format!("array size is {}", other.type_name()),
                            pc,
                        ));
                    }
                };
                if !self.charge_alloc(len) {
                    return Ok(false); // poisoned; step() reports the error
                }
                let obj = self.heap.alloc_array(len);
                self.effects += 1;
                observer.on_event(&Event::Allocated {
                    thread,
                    obj,
                    site: pc,
                });
                self.set_local(thread, *dst, Value::Ref(obj));
                self.advance(thread);
            }
            &Instr::Lock { obj, monitor } => {
                let target = self.as_ref(self.local_ref(thread, obj), "lock target", pc)?;
                debug_assert!(self.locks.available_to(target, thread));
                let outermost = self.thread_mut(thread).push_hold(target, 1);
                if outermost {
                    self.locks.acquire(target, thread);
                    self.epoch += 1;
                    observer.on_event(&Event::Acquire {
                        thread,
                        obj: target,
                        instr: pc,
                    });
                }
                if monitor {
                    self.thread_mut(thread)
                        .frame_mut()
                        .protections
                        .push(Protection::Monitor { obj: target });
                }
                self.advance(thread);
            }
            &Instr::Unlock { obj, monitor } => {
                let target = self.as_ref(self.local_ref(thread, obj), "unlock target", pc)?;
                if self.threads[thread.index()].hold_depth(target) == 0 {
                    return Err(self.throw(
                        builtins.illegal_monitor_state,
                        "unlock of a monitor not held",
                        pc,
                    ));
                }
                if monitor {
                    // Pop the matching structured-monitor protection entry.
                    let protections = &mut self.thread_mut(thread).frame_mut().protections;
                    if let Some(index) = protections.iter().rposition(
                        |entry| matches!(entry, Protection::Monitor { obj } if *obj == target),
                    ) {
                        protections.remove(index);
                    }
                }
                self.release_one(thread, target, pc, observer);
                self.advance(thread);
            }
            &Instr::Wait { obj } => {
                let target = self.as_ref(self.local_ref(thread, obj), "wait target", pc)?;
                let depth = self.threads[thread.index()].hold_depth(target);
                if depth == 0 {
                    return Err(self.throw(
                        builtins.illegal_monitor_state,
                        "wait without holding the monitor",
                        pc,
                    ));
                }
                if self.threads[thread.index()].interrupted {
                    // Java: wait() checks the interrupt flag on entry and
                    // throws while still holding the monitor.
                    self.thread_mut(thread).interrupted = false;
                    return Err(Thrown {
                        name: builtins.interrupted,
                        message: None,
                        at: pc,
                    });
                }
                // Release all re-entries, remember the depth, and block.
                let fully = self.thread_mut(thread).pop_hold(target, depth);
                debug_assert!(fully);
                self.locks.release(target, thread);
                self.epoch += 1;
                observer.on_event(&Event::Release {
                    thread,
                    obj: target,
                    instr: pc,
                });
                self.locks.add_waiter(target, thread);
                self.thread_mut(thread).status = Status::Waiting { obj: target, depth };
                self.effects += 1;
                // pc stays at the wait; it advances when the wait completes.
            }
            &Instr::Notify { obj } => {
                let target = self.as_ref(self.local_ref(thread, obj), "notify target", pc)?;
                if self.threads[thread.index()].hold_depth(target) == 0 {
                    return Err(self.throw(
                        builtins.illegal_monitor_state,
                        "notify without holding the monitor",
                        pc,
                    ));
                }
                if let Some(waiter) = self.locks.pop_waiter(target) {
                    self.signal_waiter(thread, waiter, observer);
                }
                self.advance(thread);
            }
            &Instr::NotifyAll { obj } => {
                let target = self.as_ref(self.local_ref(thread, obj), "notifyall target", pc)?;
                if self.threads[thread.index()].hold_depth(target) == 0 {
                    return Err(self.throw(
                        builtins.illegal_monitor_state,
                        "notifyall without holding the monitor",
                        pc,
                    ));
                }
                for waiter in self.locks.drain_waiters(target) {
                    self.signal_waiter(thread, waiter, observer);
                }
                self.advance(thread);
            }
            Instr::Spawn { dst, proc, args } => {
                let mut values = scratch::take_value_buffer(args.len());
                for arg in args {
                    match self.eval(thread, arg, pc) {
                        Ok(value) => values.push(value),
                        Err(thrown) => {
                            scratch::recycle_values(values);
                            return Err(thrown);
                        }
                    }
                }
                let child = self.spawn_thread(*proc, values);
                observer.on_event(&Event::ThreadSpawned {
                    parent: thread,
                    child,
                    proc: *proc,
                });
                let msg = self.next_msg();
                observer.on_event(&Event::Send { msg, thread });
                observer.on_event(&Event::Recv { msg, thread: child });
                if let Some(dst) = dst {
                    self.set_local(thread, *dst, Value::Thread(child));
                }
                self.advance(thread);
            }
            &Instr::Join { thread: handle } => {
                let target = match self.local_ref(thread, handle) {
                    Value::Thread(target) => *target,
                    Value::Null => {
                        return Err(self.throw(builtins.null_pointer, "join of null", pc));
                    }
                    other => {
                        return Err(self.throw(
                            builtins.type_error,
                            format!("join of {}", other.type_name()),
                            pc,
                        ));
                    }
                };
                if self.threads[thread.index()].interrupted {
                    self.thread_mut(thread).interrupted = false;
                    return Err(Thrown {
                        name: builtins.interrupted,
                        message: None,
                        at: pc,
                    });
                }
                debug_assert!(!self.threads[target.index()].is_alive());
                let msg = self.termination_msg[&target];
                observer.on_event(&Event::Recv { msg, thread });
                self.advance(thread);
            }
            &Instr::Interrupt { thread: handle } => {
                let target = match self.local_ref(thread, handle) {
                    Value::Thread(target) => *target,
                    Value::Null => {
                        return Err(self.throw(builtins.null_pointer, "interrupt of null", pc));
                    }
                    other => {
                        return Err(self.throw(
                            builtins.type_error,
                            format!("interrupt of {}", other.type_name()),
                            pc,
                        ));
                    }
                };
                self.deliver_interrupt(target);
                self.advance(thread);
            }
            Instr::Sleep { duration } => {
                match self.eval(thread, duration, pc)? {
                    Value::Int(_) => {}
                    other => {
                        return Err(self.throw(
                            builtins.type_error,
                            format!("sleep duration is {}", other.type_name()),
                            pc,
                        ));
                    }
                }
                if self.threads[thread.index()].interrupted {
                    self.thread_mut(thread).interrupted = false;
                    return Err(Thrown {
                        name: builtins.interrupted,
                        message: None,
                        at: pc,
                    });
                }
                self.advance(thread);
            }
            Instr::Call { dst, proc, args } => {
                let mut values = scratch::take_value_buffer(args.len());
                for arg in args {
                    match self.eval(thread, arg, pc) {
                        Ok(value) => values.push(value),
                        Err(thrown) => {
                            scratch::recycle_values(values);
                            return Err(thrown);
                        }
                    }
                }
                let info = &self.program.procs[proc.index()];
                let mut locals = scratch::take_values(info.local_count());
                let filled = values.len();
                locals[..filled].swap_with_slice(&mut values);
                scratch::recycle_values(values);
                // Return resumes *after* the call.
                self.advance(thread);
                self.thread_mut(thread).frames.push(Frame {
                    proc: *proc,
                    pc: info.entry,
                    locals,
                    ret_dst: *dst,
                    protections: Vec::new(),
                });
            }
            Instr::Return { value } => {
                let result = match value {
                    Some(expr) => self.eval(thread, expr, pc)?,
                    None => Value::Null,
                };
                // Release structured monitors opened in this frame.
                while let Some(protection) = self.thread_mut(thread).frame_mut().protections.pop() {
                    if let Protection::Monitor { obj } = protection {
                        self.release_one(thread, obj, pc, observer);
                    }
                }
                let Some(finished) = self.thread_mut(thread).frames.pop() else {
                    self.poisoned = Some(ExecError::FrameUnderflow { thread });
                    return Ok(false);
                };
                let ret_dst = finished.ret_dst;
                scratch::recycle_values(finished.locals);
                if self.threads[thread.index()].frames.is_empty() {
                    self.finish_thread(thread, None, observer);
                    return Ok(true);
                }
                if let Some(dst) = ret_dst {
                    self.set_local(thread, dst, result);
                }
            }
            &Instr::Jump { target } => {
                self.thread_mut(thread).frame_mut().pc = target;
            }
            Instr::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let value = self.eval(thread, cond, pc)?;
                let taken = self.as_bool(value, pc)?;
                self.thread_mut(thread).frame_mut().pc = if taken { *if_true } else { *if_false };
            }
            Instr::Assert { cond, message } => {
                let value = self.eval(thread, cond, pc)?;
                if !self.as_bool(value, pc)? {
                    return Err(Thrown {
                        name: builtins.assertion,
                        message: Some(Arc::clone(message)),
                        at: pc,
                    });
                }
                self.advance(thread);
            }
            Instr::Throw { exception, message } => {
                return Err(Thrown {
                    name: *exception,
                    message: message.clone(),
                    at: pc,
                });
            }
            Instr::EnterTry { handler, catches } => {
                self.thread_mut(thread)
                    .frame_mut()
                    .protections
                    .push(Protection::Catch {
                        handler: *handler,
                        catches: catches.clone(),
                    });
                self.advance(thread);
            }
            Instr::ExitTry => {
                let popped = self.thread_mut(thread).frame_mut().protections.pop();
                debug_assert!(
                    matches!(popped, Some(Protection::Catch { .. })),
                    "ExitTry must pop a Catch protection"
                );
                self.advance(thread);
            }
            Instr::Print { value } => {
                let text = match value {
                    Some(expr) => self.eval(thread, expr, pc)?.to_string(),
                    None => String::new(),
                };
                self.output.push(text);
                self.effects += 1;
                self.advance(thread);
            }
            Instr::Nop => {
                self.advance(thread);
            }
        }
        Ok(false)
    }

    fn field_slot(&self, target: ObjId, field: Symbol, pc: InstrId) -> Result<usize, Thrown> {
        match self.heap.cell(target) {
            HeapCell::Object { class, .. } => self.program.classes[class.index()]
                .field_slot(field)
                .ok_or_else(|| {
                    self.throw(
                        self.program.builtins.type_error,
                        format!(
                            "class `{}` has no field `{}`",
                            self.program.name(self.program.classes[class.index()].name),
                            self.program.name(field)
                        ),
                        pc,
                    )
                }),
            HeapCell::Array { .. } => Err(self.throw(
                self.program.builtins.type_error,
                "field access on an array",
                pc,
            )),
        }
    }

    fn resolve_elem(
        &self,
        thread: ThreadId,
        arr: LocalId,
        idx: &PureExpr,
        pc: InstrId,
    ) -> Result<(ObjId, u32), Thrown> {
        let target = self.as_ref(self.local_ref(thread, arr), "array", pc)?;
        let Some(len) = self.heap.array_len(target) else {
            return Err(self.throw(self.program.builtins.type_error, "indexing a non-array", pc));
        };
        let index = match self.eval(thread, idx, pc)? {
            Value::Int(index) => index,
            other => {
                return Err(self.throw(
                    self.program.builtins.type_error,
                    format!("array index is {}", other.type_name()),
                    pc,
                ));
            }
        };
        if index < 0 || index as usize >= len {
            return Err(self.throw(
                self.program.builtins.index_out_of_bounds,
                format!("index {index} out of bounds for length {len}"),
                pc,
            ));
        }
        Ok((target, index as u32))
    }

    /// Releases one re-entry level of `obj`; emits `Release` when fully
    /// released.
    fn release_one(
        &mut self,
        thread: ThreadId,
        obj: ObjId,
        at: InstrId,
        observer: &mut dyn Observer,
    ) {
        let fully = self.thread_mut(thread).pop_hold(obj, 1);
        if fully {
            self.locks.release(obj, thread);
            self.epoch += 1;
            observer.on_event(&Event::Release {
                thread,
                obj,
                instr: at,
            });
        }
    }

    /// Moves a waiter to the reacquire state, pairing the notifier's `SND`.
    fn signal_waiter(&mut self, notifier: ThreadId, waiter: ThreadId, observer: &mut dyn Observer) {
        let Status::Waiting { obj, depth } = self.threads[waiter.index()].status else {
            // Formerly a panic: record the invariant violation and poison
            // the machine so the driver can report a structured outcome.
            self.poisoned = Some(ExecError::SignalledNotWaiting { thread: waiter });
            return;
        };
        let msg = self.next_msg();
        observer.on_event(&Event::Send {
            msg,
            thread: notifier,
        });
        self.epoch += 1;
        self.effects += 1;
        self.thread_mut(waiter).status = Status::Reacquire {
            obj,
            depth,
            interrupted: false,
            recv_msg: Some(msg),
        };
    }

    fn deliver_interrupt(&mut self, target: ThreadId) {
        self.epoch += 1;
        let state = Arc::make_mut(&mut self.threads[target.index()]);
        if state.status != Status::Exited {
            self.effects += 1;
        }
        match state.status.clone() {
            Status::Waiting { obj, depth } => {
                // Interrupted out of a wait: must reacquire, then throw.
                self.locks.remove_waiter(obj, target);
                state.status = Status::Reacquire {
                    obj,
                    depth,
                    interrupted: true,
                    recv_msg: None,
                };
            }
            Status::Exited => {}
            _ => state.interrupted = true,
        }
    }

    fn spawn_thread(&mut self, proc: ProcId, args: Vec<Value>) -> ThreadId {
        let info = &self.program.procs[proc.index()];
        let id = ThreadId(self.threads.len() as u32);
        let mut state = scratch::take_thread(id, proc, info.entry, info.local_count());
        Arc::get_mut(&mut state)
            .expect("freshly taken thread record is unique")
            .frame_mut()
            .locals[..args.len()]
            .clone_from_slice(&args);
        scratch::recycle_values(args);
        self.threads.push(state);
        self.epoch += 1;
        self.effects += 1;
        id
    }

    /// Marks a thread dead, emitting its termination `SND` (for later
    /// `join`s) and the exit event.
    fn finish_thread(
        &mut self,
        thread: ThreadId,
        uncaught: Option<UncaughtException>,
        observer: &mut dyn Observer,
    ) {
        self.thread_mut(thread).status = Status::Exited;
        self.epoch += 1;
        self.effects += 1;
        let msg = self.next_msg();
        self.termination_msg.insert(thread, msg);
        observer.on_event(&Event::Send { msg, thread });
        observer.on_event(&Event::ThreadExited {
            thread,
            uncaught: uncaught.as_ref().map(|exception| exception.name),
        });
        if let Some(exception) = uncaught {
            self.thread_mut(thread).uncaught = Some(exception.clone());
            self.uncaught.push(exception);
        }
    }

    /// Propagates `thrown` through `thread`'s protection stacks and frames.
    fn unwind(
        &mut self,
        thread: ThreadId,
        thrown: Thrown,
        observer: &mut dyn Observer,
    ) -> StepResult {
        observer.on_event(&Event::ExceptionThrown {
            thread,
            name: thrown.name,
            instr: thrown.at,
        });
        loop {
            while let Some(protection) = self.thread_mut(thread).frame_mut().protections.pop() {
                match protection {
                    Protection::Monitor { obj } => {
                        // Java releases monitors on abrupt completion.
                        self.release_one(thread, obj, thrown.at, observer);
                    }
                    Protection::Catch { handler, catches } => {
                        if catches.matches(thrown.name) {
                            self.thread_mut(thread).frame_mut().pc = handler;
                            observer.on_event(&Event::ExceptionCaught {
                                thread,
                                name: thrown.name,
                            });
                            return StepResult::Ran;
                        }
                    }
                }
            }
            match self.thread_mut(thread).frames.pop() {
                Some(dead) => scratch::recycle_values(dead.locals),
                None => {
                    let error = ExecError::FrameUnderflow { thread };
                    self.poisoned = Some(error.clone());
                    return StepResult::EngineError(error);
                }
            }
            if self.threads[thread.index()].frames.is_empty() {
                let exception = UncaughtException {
                    thread,
                    name: thrown.name,
                    message: thrown.message.clone(),
                    at: thrown.at,
                };
                self.finish_thread(thread, Some(exception.clone()), observer);
                return StepResult::Uncaught(exception);
            }
        }
    }
}

impl fmt::Debug for Execution<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Execution")
            .field("steps", &self.steps)
            .field("threads", &self.threads.len())
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Drop for Execution<'_> {
    /// Donates this execution's scratch buffers back to the thread-local
    /// `scratch` pools — thread records still shared with a snapshot are
    /// skipped inside `scratch::recycle_thread`.
    fn drop(&mut self) {
        scratch::recycle_values(std::mem::take(&mut self.vm_temps));
        scratch::recycle_caches(std::mem::take(&mut self.field_caches));
        scratch::recycle_values(std::mem::take(&mut self.globals));
        let mut threads = std::mem::take(&mut self.threads);
        for thread in threads.drain(..) {
            scratch::recycle_thread(thread);
        }
        scratch::recycle_thread_table(threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullObserver;

    #[test]
    fn snapshot_is_send_sync() {
        fn assert<T: Send + Sync + Clone>() {}
        assert::<Snapshot>();
    }

    fn run_to_exit(exec: &mut Execution<'_>) {
        let mut enabled = Vec::new();
        loop {
            exec.enabled_into(&mut enabled);
            let Some(&thread) = enabled.first() else {
                break;
            };
            exec.step(thread, &mut NullObserver);
        }
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let program = cil::compile(
            r#"
            global x = 0;
            proc main() {
                var i = 0;
                while (i < 10) { x = x + i; i = i + 1; print i; }
            }
            "#,
        )
        .unwrap();
        let mut straight = Execution::new(&program, "main").unwrap();
        run_to_exit(&mut straight);

        let mut forked = Execution::new(&program, "main").unwrap();
        for _ in 0..17 {
            forked.step(ThreadId(0), &mut NullObserver);
        }
        let snapshot = forked.snapshot();
        assert_eq!(snapshot.steps(), 17);

        // Keep running the original past the fork point; the snapshot must
        // not be disturbed (copy-on-write isolation).
        run_to_exit(&mut forked);

        let mut resumed = Execution::resume(&program, &snapshot);
        run_to_exit(&mut resumed);
        assert_eq!(resumed.steps(), straight.steps());
        assert_eq!(resumed.output(), straight.output());
        assert_eq!(resumed.global_value("x"), straight.global_value("x"));

        // Restoring in place over a dirty execution works too.
        let mut scratch = Execution::new(&program, "main").unwrap();
        scratch.step(ThreadId(0), &mut NullObserver);
        scratch.restore(&snapshot);
        run_to_exit(&mut scratch);
        assert_eq!(scratch.steps(), straight.steps());
        assert_eq!(scratch.output(), straight.output());
    }

    #[test]
    fn reset_matches_fresh_execution() {
        let program = cil::compile(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc main() {
                l = new Lock;
                sync (l) { x = 1; }
                print x;
            }
            "#,
        )
        .unwrap();
        let mut scratch = Execution::new(&program, "main").unwrap();
        run_to_exit(&mut scratch);
        let steps = scratch.steps();
        let output = scratch.output().to_vec();

        scratch.reset("main").unwrap();
        assert_eq!(scratch.steps(), 0);
        assert!(scratch.output().is_empty());
        assert!(scratch.heap.is_empty());
        run_to_exit(&mut scratch);
        assert_eq!(scratch.steps(), steps);
        assert_eq!(scratch.output(), output);
    }
}
