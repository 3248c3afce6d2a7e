//! Deterministic interpreter for CIL with full scheduler control.
//!
//! This crate is the abstract machine of the RaceFuzzer paper (§2.1): a
//! concurrent system evolves by one thread executing one statement at a
//! time, and the *caller* chooses the thread at every state. It provides
//!
//! * [`Execution`] — the machine: `Enabled`/`Alive`/`NextStmt`/`Execute`,
//!   plus side-effect-free resolution of the memory location the next
//!   statement would touch ([`Execution::next_access`]);
//! * [`Observer`] events — the paper's `MEM`/`SND`/`RCV` event model, fed to
//!   the race detectors;
//! * passive [`Scheduler`]s — seeded-random ("Simple"), run-to-block
//!   ("normal execution"), and round-robin baselines;
//! * [`Rng`] — a self-contained xoshiro256\*\* generator so that seed-based
//!   replay is stable across toolchain upgrades.
//!
//! # Examples
//!
//! ```
//! use interp::{run_with, Limits, NullObserver, RandomScheduler, Termination};
//!
//! let program = cil::compile(
//!     r#"
//!     global x = 0;
//!     proc inc() { x = x + 1; }
//!     proc main() {
//!         var t = spawn inc();
//!         x = 5;
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let outcome = run_with(
//!     &program,
//!     "main",
//!     &mut RandomScheduler::seeded(1),
//!     &mut NullObserver,
//!     Limits::default(),
//! )
//! .unwrap();
//! assert_eq!(outcome.termination, Termination::AllExited);
//! ```

pub mod event;
pub mod exec;
pub mod heap;
pub mod locks;
pub mod rng;
pub mod sched;
pub(crate) mod scratch;
pub mod thread;
pub mod value;
pub mod vm;

pub use event::{Access, Event, Loc, MsgId, NullObserver, Observer, RecordingObserver};
pub use vm::ExecEngine;
pub use exec::{ExecError, Execution, SetupError, Snapshot, StepResult};
pub use heap::{Heap, HeapCell};
pub use rng::Rng;
pub use sched::{
    drive, drive_prefix, drive_prefix_capturing, run_prologue, run_with, Limits, Prologue,
    RandomScheduler, RaposScheduler, RoundRobinScheduler, RunOutcome, RunToBlockScheduler,
    Scheduler, Termination,
};
pub use thread::{Status, ThreadState, UncaughtException};
pub use value::{ObjId, ThreadId, Value};
