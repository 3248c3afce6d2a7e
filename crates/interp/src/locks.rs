//! The global lock table: monitor ownership and wait sets.

use crate::value::{ObjId, ThreadId};
use std::collections::HashMap;

/// Per-object monitor state.
#[derive(Clone, Debug, Default)]
struct MonitorState {
    owner: Option<ThreadId>,
    /// FIFO wait set (threads that executed `wait` and are not yet
    /// notified). Determinism of notification order keeps replay exact.
    waiters: Vec<ThreadId>,
}

/// Tracks which thread owns each object's monitor and who is waiting on it.
///
/// Re-entry depths are tracked on the *thread* (see
/// [`crate::thread::ThreadState::held`]); the table only knows the owner.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    monitors: HashMap<ObjId, MonitorState>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every monitor, keeping the map's allocation for reuse.
    pub(crate) fn clear(&mut self) {
        self.monitors.clear();
    }

    /// Every owned monitor with its owner, in no particular order.
    pub(crate) fn owners(&self) -> impl Iterator<Item = (ObjId, ThreadId)> + '_ {
        self.monitors
            .iter()
            .filter_map(|(&obj, monitor)| monitor.owner.map(|owner| (obj, owner)))
    }

    /// Current owner of `obj`'s monitor.
    pub fn owner(&self, obj: ObjId) -> Option<ThreadId> {
        self.monitors.get(&obj).and_then(|monitor| monitor.owner)
    }

    /// Returns `true` if `thread` could acquire `obj` right now.
    pub fn available_to(&self, obj: ObjId, thread: ThreadId) -> bool {
        match self.owner(obj) {
            None => true,
            Some(owner) => owner == thread,
        }
    }

    /// Makes `thread` the owner of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if another thread owns it (enabledness is checked first).
    pub fn acquire(&mut self, obj: ObjId, thread: ThreadId) {
        let monitor = self.monitors.entry(obj).or_default();
        match monitor.owner {
            None => monitor.owner = Some(thread),
            Some(owner) => assert_eq!(owner, thread, "acquire of a lock owned by another thread"),
        }
    }

    /// Releases `obj` (the caller has verified full release of re-entries).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is not the owner.
    pub fn release(&mut self, obj: ObjId, thread: ThreadId) {
        let monitor = self
            .monitors
            .get_mut(&obj)
            .expect("release of never-acquired lock");
        assert_eq!(monitor.owner, Some(thread), "release by a non-owner thread");
        monitor.owner = None;
    }

    /// Adds `thread` to `obj`'s wait set.
    pub fn add_waiter(&mut self, obj: ObjId, thread: ThreadId) {
        self.monitors.entry(obj).or_default().waiters.push(thread);
    }

    /// Removes and returns the oldest waiter on `obj`, if any.
    pub fn pop_waiter(&mut self, obj: ObjId) -> Option<ThreadId> {
        let monitor = self.monitors.get_mut(&obj)?;
        if monitor.waiters.is_empty() {
            None
        } else {
            Some(monitor.waiters.remove(0))
        }
    }

    /// Removes and returns all waiters on `obj` (FIFO order).
    pub fn drain_waiters(&mut self, obj: ObjId) -> Vec<ThreadId> {
        self.monitors
            .get_mut(&obj)
            .map(|monitor| std::mem::take(&mut monitor.waiters))
            .unwrap_or_default()
    }

    /// Removes a specific thread from `obj`'s wait set (interrupt delivery).
    /// Returns `true` if it was waiting.
    pub fn remove_waiter(&mut self, obj: ObjId, thread: ThreadId) -> bool {
        if let Some(monitor) = self.monitors.get_mut(&obj) {
            if let Some(index) = monitor.waiters.iter().position(|&waiter| waiter == thread) {
                monitor.waiters.remove(index);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjId = ObjId(1);
    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn acquire_release_cycle() {
        let mut table = LockTable::new();
        assert!(table.available_to(A, T0));
        table.acquire(A, T0);
        assert_eq!(table.owner(A), Some(T0));
        assert!(table.available_to(A, T0)); // re-entrant
        assert!(!table.available_to(A, T1));
        table.release(A, T0);
        assert!(table.available_to(A, T1));
    }

    #[test]
    fn wait_set_is_fifo() {
        let mut table = LockTable::new();
        table.add_waiter(A, T0);
        table.add_waiter(A, T1);
        assert_eq!(table.pop_waiter(A), Some(T0));
        assert_eq!(table.pop_waiter(A), Some(T1));
        assert_eq!(table.pop_waiter(A), None);
    }

    #[test]
    fn drain_returns_all_waiters() {
        let mut table = LockTable::new();
        table.add_waiter(A, T0);
        table.add_waiter(A, T1);
        assert_eq!(table.drain_waiters(A), vec![T0, T1]);
        assert!(table.drain_waiters(A).is_empty());
    }

    #[test]
    fn remove_specific_waiter() {
        let mut table = LockTable::new();
        table.add_waiter(A, T0);
        table.add_waiter(A, T1);
        assert!(table.remove_waiter(A, T1));
        assert!(!table.remove_waiter(A, T1));
        assert_eq!(table.pop_waiter(A), Some(T0));
    }

    #[test]
    #[should_panic(expected = "release by a non-owner")]
    fn release_by_non_owner_panics() {
        let mut table = LockTable::new();
        table.acquire(A, T0);
        table.release(A, T1);
    }
}
