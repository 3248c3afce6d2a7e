//! Logical threads: frames, protection stacks, and thread status.

use crate::event::MsgId;
use crate::value::{ObjId, ThreadId, Value};
use cil::flat::{CatchKinds, InstrId, LocalId, ProcId};
use cil::Symbol;
use std::sync::Arc;

/// An entry on a frame's protection stack, unwound on exceptions.
#[derive(Clone, Debug, PartialEq)]
pub enum Protection {
    /// A `try` region: jump to `handler` if the exception matches.
    Catch {
        /// First instruction of the handler.
        handler: InstrId,
        /// Which exceptions it catches.
        catches: CatchKinds,
    },
    /// A `sync` monitor to release during unwinding (Java monitorexit
    /// semantics on abrupt completion).
    Monitor {
        /// The monitor object.
        obj: ObjId,
    },
}

/// One activation record.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The procedure being executed.
    pub proc: ProcId,
    /// Next instruction to execute.
    pub pc: InstrId,
    /// Local slots (params, declared locals, temps).
    pub locals: Vec<Value>,
    /// Caller slot that receives this frame's return value.
    pub ret_dst: Option<LocalId>,
    /// Active `try`/`sync` regions, innermost last.
    pub protections: Vec<Protection>,
}

/// Why a thread is not simply running.
#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// Ready to execute its next instruction (possibly blocked *at* a
    /// `lock`/`join` — that is derived from the instruction, not stored).
    Runnable,
    /// In `obj`'s wait set after executing `wait`.
    Waiting {
        /// The monitor waited on.
        obj: ObjId,
        /// Monitor re-entry depth to restore on wake-up.
        depth: u32,
    },
    /// Notified (or interrupted out of a wait); must reacquire `obj` before
    /// continuing.
    Reacquire {
        /// The monitor to reacquire.
        obj: ObjId,
        /// Monitor re-entry depth to restore.
        depth: u32,
        /// Resume by throwing `InterruptedException` instead of returning
        /// normally from `wait`.
        interrupted: bool,
        /// `RCV` message to emit on resumption (pairs the notifier's `SND`).
        recv_msg: Option<MsgId>,
    },
    /// Terminated.
    Exited,
}

/// An exception that escaped a thread's last frame.
#[derive(Clone, Debug, PartialEq)]
pub struct UncaughtException {
    /// The thread that died.
    pub thread: ThreadId,
    /// The exception name.
    pub name: Symbol,
    /// Optional detail message.
    pub message: Option<Arc<str>>,
    /// The instruction that raised it.
    pub at: InstrId,
}

/// The full state of one logical thread.
///
/// Equality is structural: two states are equal when the thread would
/// behave identically from either, given the same heap, globals and lock
/// table (Phase 2 compares states to find a spinning thread's period).
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadState {
    /// This thread's id.
    pub id: ThreadId,
    /// Call stack, outermost first.
    pub frames: Vec<Frame>,
    /// Current status.
    pub status: Status,
    /// Java-style interrupt flag.
    pub interrupted: bool,
    /// Locks currently held, with re-entry depths (insertion order).
    pub held: Vec<(ObjId, u32)>,
    /// How this thread ended, if it died from an exception.
    pub uncaught: Option<UncaughtException>,
}

impl ThreadState {
    /// Creates a runnable thread with a single frame.
    pub fn new(id: ThreadId, proc: ProcId, pc: InstrId, locals: Vec<Value>) -> Self {
        ThreadState {
            id,
            frames: vec![Frame {
                proc,
                pc,
                locals,
                ret_dst: None,
                protections: Vec::new(),
            }],
            status: Status::Runnable,
            interrupted: false,
            held: Vec::new(),
            uncaught: None,
        }
    }

    /// Reinitialises this thread as a fresh entry thread, reusing the
    /// frame/locals allocations it already owns (the trial-scratch path).
    pub fn reset(&mut self, id: ThreadId, proc: ProcId, pc: InstrId, local_count: usize) {
        self.id = id;
        self.frames.truncate(1);
        match self.frames.first_mut() {
            Some(frame) => {
                frame.proc = proc;
                frame.pc = pc;
                frame.ret_dst = None;
                frame.protections.clear();
                frame.locals.clear();
                frame.locals.resize(local_count, Value::Null);
            }
            None => self.frames.push(Frame {
                proc,
                pc,
                locals: vec![Value::Null; local_count],
                ret_dst: None,
                protections: Vec::new(),
            }),
        }
        self.status = Status::Runnable;
        self.interrupted = false;
        self.held.clear();
        self.uncaught = None;
    }

    /// Returns `true` if the thread has not terminated.
    pub fn is_alive(&self) -> bool {
        self.status != Status::Exited
    }

    /// The current (innermost) frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited (no frames).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("live thread has a frame")
    }

    /// Mutable access to the current frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited (no frames).
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("live thread has a frame")
    }

    /// Re-entry depth this thread holds on `obj` (0 when not held).
    pub fn hold_depth(&self, obj: ObjId) -> u32 {
        self.held
            .iter()
            .find(|(held, _)| *held == obj)
            .map(|(_, depth)| *depth)
            .unwrap_or(0)
    }

    /// Records one more acquisition of `obj`. Returns `true` if this was the
    /// outermost acquisition.
    pub fn push_hold(&mut self, obj: ObjId, levels: u32) -> bool {
        if let Some(entry) = self.held.iter_mut().find(|(held, _)| *held == obj) {
            entry.1 += levels;
            false
        } else {
            self.held.push((obj, levels));
            true
        }
    }

    /// Records releasing `levels` acquisitions of `obj`. Returns `true` if
    /// the lock is now fully released by this thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not hold `obj` deep enough (callers check
    /// ownership first and raise `IllegalMonitorStateException`).
    pub fn pop_hold(&mut self, obj: ObjId, levels: u32) -> bool {
        let index = self
            .held
            .iter()
            .position(|(held, _)| *held == obj)
            .expect("pop_hold on unheld lock");
        assert!(self.held[index].1 >= levels, "pop_hold too deep");
        self.held[index].1 -= levels;
        if self.held[index].1 == 0 {
            self.held.remove(index);
            true
        } else {
            false
        }
    }

    /// The sorted set of held lock objects — the `L` of a `MEM` event.
    pub fn lockset(&self) -> Vec<ObjId> {
        let mut locks: Vec<ObjId> = self.held.iter().map(|(obj, _)| *obj).collect();
        locks.sort_unstable();
        locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> ThreadState {
        ThreadState::new(ThreadId(0), ProcId(0), InstrId(0), vec![])
    }

    #[test]
    fn new_thread_is_runnable_and_alive() {
        let t = thread();
        assert_eq!(t.status, Status::Runnable);
        assert!(t.is_alive());
        assert!(t.lockset().is_empty());
    }

    #[test]
    fn hold_tracking_is_reentrant() {
        let mut t = thread();
        assert!(t.push_hold(ObjId(5), 1)); // outermost
        assert!(!t.push_hold(ObjId(5), 1)); // re-entry
        assert_eq!(t.hold_depth(ObjId(5)), 2);
        assert!(!t.pop_hold(ObjId(5), 1));
        assert!(t.pop_hold(ObjId(5), 1)); // fully released
        assert_eq!(t.hold_depth(ObjId(5)), 0);
    }

    #[test]
    fn lockset_is_sorted() {
        let mut t = thread();
        t.push_hold(ObjId(9), 1);
        t.push_hold(ObjId(2), 1);
        assert_eq!(t.lockset(), vec![ObjId(2), ObjId(9)]);
    }

    #[test]
    fn multi_level_push_for_wait_restore() {
        let mut t = thread();
        t.push_hold(ObjId(1), 3); // restoring depth after wait
        assert_eq!(t.hold_depth(ObjId(1)), 3);
        assert!(t.pop_hold(ObjId(1), 3));
    }

    #[test]
    #[should_panic(expected = "pop_hold on unheld lock")]
    fn pop_unheld_panics() {
        thread().pop_hold(ObjId(0), 1);
    }
}
