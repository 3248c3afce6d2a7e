//! The shared heap: objects and arrays, stored in copy-on-write pages.
//!
//! Allocation order is deterministic (sequential ids), which keeps replay
//! exact and makes `ObjId`s meaningful across repeated runs with the same
//! schedule.
//!
//! Cells live in fixed-capacity pages behind `Arc`s. Cloning a [`Heap`]
//! (the core of [`crate::Execution::snapshot`]) therefore costs one
//! refcount bump per page, and a write after a clone pays for copying only
//! the page it touches ([`Arc::make_mut`]), not the whole heap. A fork of
//! an execution with a large, mostly read-only heap is O(pages touched),
//! which is what makes snapshot-accelerated fuzzing cheap.

use crate::value::{ObjId, Value};
use cil::flat::ClassId;
use std::sync::Arc;

/// A heap cell.
#[derive(Clone, Debug, PartialEq)]
pub enum HeapCell {
    /// An instance of a class, with one slot per declared field.
    Object {
        /// The instantiated class.
        class: ClassId,
        /// Field values, in class declaration order.
        fields: Vec<Value>,
    },
    /// A fixed-length array.
    Array {
        /// Element values.
        elems: Vec<Value>,
    },
}

/// Cells per copy-on-write page. Small enough that a post-snapshot write
/// copies little, large enough that snapshotting is a short `Vec<Arc>`
/// clone rather than thousands of refcount bumps.
const PAGE_CELLS: usize = 32;

/// One copy-on-write page of heap cells.
#[derive(Clone, Debug, Default, PartialEq)]
struct Page {
    cells: Vec<HeapCell>,
}

/// The shared heap.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    pages: Vec<Arc<Page>>,
    len: usize,
    slots: u64,
}

/// Value slots charged for an allocation of `len` fields or elements: the
/// payload, with a floor of 1 so field-less objects and empty arrays still
/// cost something (their `HeapCell` is real memory).
pub fn alloc_cost(len: usize) -> u64 {
    (len as u64).max(1)
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, cell: HeapCell) -> ObjId {
        let id = ObjId(self.len as u32);
        if self.len.is_multiple_of(PAGE_CELLS) {
            self.pages.push(Arc::new(Page {
                cells: Vec::with_capacity(PAGE_CELLS),
            }));
        }
        let page = self.pages.last_mut().expect("page just ensured");
        Arc::make_mut(page).cells.push(cell);
        self.len += 1;
        id
    }

    /// Allocates an object of `class` with `field_count` `null` fields.
    pub fn alloc_object(&mut self, class: ClassId, field_count: usize) -> ObjId {
        self.slots += alloc_cost(field_count);
        self.push(HeapCell::Object {
            class,
            fields: vec![Value::Null; field_count],
        })
    }

    /// Allocates an array of `len` `null`s.
    pub fn alloc_array(&mut self, len: usize) -> ObjId {
        self.slots += alloc_cost(len);
        self.push(HeapCell::Array {
            elems: vec![Value::Null; len],
        })
    }

    /// Total value slots ever allocated ([`alloc_cost`] per allocation) —
    /// the quantity [`crate::Limits::max_heap_cells`] budgets. Monotone:
    /// CIL has no free, so this is also the live footprint.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The cell for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated from this heap.
    pub fn cell(&self, id: ObjId) -> &HeapCell {
        let index = id.index();
        &self.pages[index / PAGE_CELLS].cells[index % PAGE_CELLS]
    }

    /// Mutable access to the cell for `id`. Copies the containing page
    /// first if it is shared with a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated from this heap.
    pub fn cell_mut(&mut self, id: ObjId) -> &mut HeapCell {
        let index = id.index();
        let page = Arc::make_mut(&mut self.pages[index / PAGE_CELLS]);
        &mut page.cells[index % PAGE_CELLS]
    }

    /// Array length, if `id` is an array.
    pub fn array_len(&self, id: ObjId) -> Option<usize> {
        match self.cell(id) {
            HeapCell::Array { elems } => Some(elems.len()),
            HeapCell::Object { .. } => None,
        }
    }

    /// Number of allocated cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every cell but keeps the page index allocation for reuse.
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
        self.slots = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential() {
        let mut heap = Heap::new();
        let a = heap.alloc_object(ClassId(0), 2);
        let b = heap.alloc_array(3);
        assert_eq!(a, ObjId(0));
        assert_eq!(b, ObjId(1));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn objects_start_null() {
        let mut heap = Heap::new();
        let id = heap.alloc_object(ClassId(7), 2);
        match heap.cell(id) {
            HeapCell::Object { class, fields } => {
                assert_eq!(*class, ClassId(7));
                assert_eq!(fields, &vec![Value::Null, Value::Null]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn arrays_report_length() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(4);
        let obj = heap.alloc_object(ClassId(0), 0);
        assert_eq!(heap.array_len(arr), Some(4));
        assert_eq!(heap.array_len(obj), None);
    }

    #[test]
    fn cells_are_mutable() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1);
        if let HeapCell::Array { elems } = heap.cell_mut(arr) {
            elems[0] = Value::Int(9);
        }
        assert_eq!(
            heap.cell(arr),
            &HeapCell::Array {
                elems: vec![Value::Int(9)]
            }
        );
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut heap = Heap::new();
        for _ in 0..(PAGE_CELLS * 3) {
            heap.alloc_array(1);
        }
        let fork = heap.clone();
        // Writing through the fork must not disturb the original.
        let mut fork = fork;
        if let HeapCell::Array { elems } = fork.cell_mut(ObjId(0)) {
            elems[0] = Value::Int(1);
        }
        assert_eq!(
            heap.cell(ObjId(0)),
            &HeapCell::Array {
                elems: vec![Value::Null]
            }
        );
        assert_eq!(
            fork.cell(ObjId(0)),
            &HeapCell::Array {
                elems: vec![Value::Int(1)]
            }
        );
        // Pages the fork never wrote are still physically shared.
        assert!(Arc::ptr_eq(&heap.pages[2], &fork.pages[2]));
    }

    #[test]
    fn spans_many_pages() {
        let mut heap = Heap::new();
        let total = PAGE_CELLS * 2 + 5;
        for i in 0..total {
            let id = heap.alloc_array(1);
            assert_eq!(id, ObjId(i as u32));
        }
        assert_eq!(heap.len(), total);
        for i in 0..total {
            assert!(matches!(heap.cell(ObjId(i as u32)), HeapCell::Array { .. }));
        }
    }
}
