//! The register-bytecode execution engine.
//!
//! [`Execution::step`] dispatches here when the engine is
//! [`ExecEngine::Bytecode`]: instead of matching the 26-variant [`Instr`]
//! enum and recursing through boxed `PureExpr` trees, it executes the flat
//! micro-op range the [`CodeImage`] compiled for the pc (see
//! `cil::bytecode` for the format and the fusion/fallback rules). Cold
//! instructions — synchronization, calls, allocation, exceptions, I/O —
//! compile to [`Op::Fallback`] and are delegated wholesale to the
//! tree-walking `exec_instr`, which stays the semantics of record.
//!
//! **Observable equivalence is the contract.** Every compiled head
//! replicates the tree-walker's order of checks, evaluations, and event
//! emissions, and reuses its error constructors verbatim, so the two
//! engines produce identical event streams, identical `Thrown` payloads,
//! and identical step counts under every schedule. The differential suite
//! (`tests/engine_differential.rs`) replays recorded Phase-2 schedules on
//! both engines in lockstep and compares them state by state.
//!
//! Three pieces of engine-private state live on the `Execution`:
//!
//! * `vm_temps` — per-step temporaries; dead between steps, so never part
//!   of a snapshot;
//! * `field_caches` — monomorphic inline caches, one `(class id, slot)`
//!   pair per field-access site, keyed on class id and never invalidated
//!   (class layouts are immutable, so an entry can be missing but never
//!   wrong);
//! * `code` — the shared [`CodeImage`], also consulted by
//!   `Execution::is_enabled` (enabledness-kind table) and
//!   `Execution::next_access` (footprint table).

use crate::event::{Access, Loc, Observer};
use crate::exec::{Execution, Thrown};
use crate::heap::HeapCell;
use crate::thread::ThreadState;
use crate::value::{ObjId, ThreadId, Value};
use cil::ast::{BinOp, UnOp};
use cil::bytecode::{CodeImage, Footprint, FootprintIdx, Op, Operand, RValue};
use cil::flat::{ClassId, Instr, InstrId, LocalId};
use cil::Symbol;
use std::sync::Arc;

/// Which interpreter core [`Execution::step`] runs.
///
/// Both engines are observably identical, so any divergence between them
/// is a bug by definition. The whole pipeline runs the bytecode engine; the
/// tree-walker is the reference the differential suites replay against,
/// selected per execution with [`Execution::set_engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// Flat register micro-ops with fused superinstructions, inline field
    /// caches, and table-driven `Enabled`/`NextStmt` queries (the default).
    #[default]
    Bytecode,
    /// The original recursive interpreter over [`Instr`]/`PureExpr` trees —
    /// the reference semantics and the differential-testing baseline.
    TreeWalk,
}

/// An empty inline-cache entry: no class id is `u32::MAX` (class ids index
/// `Program::classes`), so the first probe always misses and fills.
pub(crate) const EMPTY_CACHE: (u32, u32) = (u32::MAX, 0);

/// Integer-only binop fast path. Returns `None` for the cases whose result
/// or error the generic [`Execution::eval_binop`] must produce
/// (division/remainder by zero, boolean connectives on ints), so the slow
/// path keeps emitting byte-identical `Thrown` messages.
#[inline]
fn int_binop(op: BinOp, a: i64, b: i64) -> Option<Value> {
    Some(match op {
        BinOp::Add => Value::Int(a.wrapping_add(b)),
        BinOp::Sub => Value::Int(a.wrapping_sub(b)),
        BinOp::Mul => Value::Int(a.wrapping_mul(b)),
        BinOp::Div if b != 0 => Value::Int(a.wrapping_div(b)),
        BinOp::Rem if b != 0 => Value::Int(a.wrapping_rem(b)),
        // `loose_eq` on two ints is plain equality, so this matches the
        // generic path bit-for-bit.
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        _ => return None,
    })
}

/// Operand read against raw frame/temp slices — the borrow-split twin of
/// [`Execution::read_operand`] for the fast pass, which holds the frame
/// mutably and so cannot go through `&self`.
#[inline]
fn fast_operand(locals: &[Value], temps: &[Value], operand: Operand, code: &CodeImage) -> Value {
    match operand {
        Operand::Local(slot) => locals[slot as usize].clone(),
        Operand::Temp(slot) => temps[slot as usize].clone(),
        Operand::Int(value) => Value::Int(value),
        Operand::Bool(value) => Value::Bool(value),
        Operand::Null => Value::Null,
        Operand::Pool(index) => Value::from(code.pool_const(index)),
    }
}

#[inline]
fn fast_int(locals: &[Value], temps: &[Value], operand: Operand) -> Option<i64> {
    match operand {
        Operand::Int(value) => Some(value),
        Operand::Local(slot) => match locals[slot as usize] {
            Value::Int(value) => Some(value),
            _ => None,
        },
        Operand::Temp(slot) => match temps[slot as usize] {
            Value::Int(value) => Some(value),
            _ => None,
        },
        _ => None,
    }
}

/// Side-effect-free rvalue evaluation over raw slices. `None` means "take
/// the generic [`Execution::eval_rvalue`] path" — either the value needs
/// the heap (`Len`), or the case must produce the tree-walker's exact
/// result or `Thrown` (mixed-type binops, division by zero). Re-evaluating
/// on the slow path is safe because operand reads are pure.
#[inline]
fn fast_rvalue(locals: &[Value], temps: &[Value], rv: &RValue, code: &CodeImage) -> Option<Value> {
    match rv {
        RValue::Op(operand) => Some(fast_operand(locals, temps, *operand, code)),
        RValue::Bin(op, lhs, rhs) => {
            let a = fast_int(locals, temps, *lhs)?;
            let b = fast_int(locals, temps, *rhs)?;
            int_binop(*op, a, b)
        }
        RValue::Un(op, operand) => match (op, fast_operand(locals, temps, *operand, code)) {
            (UnOp::Neg, Value::Int(n)) => Some(Value::Int(n.wrapping_neg())),
            (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
            _ => None,
        },
        RValue::Len(_) => None,
    }
}

impl<'p> Execution<'p> {
    /// Executes the micro-op range of the instruction at `pc` — the
    /// bytecode twin of `exec_instr`, with identical observable behavior.
    ///
    /// Frame-pure micro-ops (register arithmetic, jumps, branches) run in
    /// a fast pass that borrows the scheduled thread's frame **once** —
    /// one copy-on-write `Arc` check per step instead of one per op — and
    /// evaluates rvalues over raw slices. The first op that touches the
    /// heap, emits an event, or needs a slow-path result breaks out to the
    /// general loop, which resumes at that op having executed none of it.
    pub(crate) fn exec_bytecode(
        &mut self,
        thread: ThreadId,
        pc: InstrId,
        code: &'p CodeImage,
        observer: &mut dyn Observer,
        // `observer.wants_events()`, hoisted by the caller (once per run in
        // `run_quiescent`) so each memory-access arm pays a register test
        // instead of a virtual call (Phase 2's `NullObserver` discards
        // every event).
        wants_events: bool,
    ) -> Result<bool, Thrown> {
        let next = InstrId(pc.0 + 1);
        let ops = code.ops_of(pc);
        let mut index = 0;
        let fast_first = match ops.first() {
            Some(
                Op::Expr { .. } | Op::Assign { .. } | Op::Jump { .. } | Op::Branch { .. } | Op::Nop,
            ) => true,
            // Memory accesses join the fast pass only when no observer
            // wants the MEM event they would otherwise emit.
            Some(
                Op::LoadGlobal { .. }
                | Op::StoreGlobal { .. }
                | Op::LoadField { .. }
                | Op::StoreField { .. }
                | Op::LoadElem { .. }
                | Op::StoreElem { .. },
            ) => !wants_events,
            _ => false,
        };
        if fast_first {
            // Split borrows: the frame comes from `self.threads`; temps,
            // globals, the heap, and the field caches are sibling fields,
            // so the frame borrow can stay live across all of them.
            //
            // Memory arms handle only the hit case — receiver is a live
            // ref, inline cache warm, index in bounds — and break to the
            // general loop for everything else, which re-executes the op
            // from scratch (every read so far was pure) and produces the
            // tree-walker's exact errors and cache fills.
            let state = Arc::make_mut(&mut self.threads[thread.index()]);
            let frame = state.frames.last_mut().expect("live thread has a frame");
            while let Some(op) = ops.get(index) {
                match op {
                    Op::Expr { dst, rv } => {
                        let Some(value) = fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        self.vm_temps[*dst as usize] = value;
                    }
                    Op::Assign { dst, rv } => {
                        let Some(value) = fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        frame.locals[dst.index()] = value;
                        frame.pc = next;
                    }
                    Op::Jump { target } => frame.pc = *target,
                    Op::Branch {
                        rv,
                        if_true,
                        if_false,
                    } => {
                        // A non-bool condition must throw through `as_bool`
                        // on the general path.
                        let Some(Value::Bool(taken)) =
                            fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        frame.pc = if taken { *if_true } else { *if_false };
                    }
                    Op::Nop => frame.pc = next,
                    Op::LoadGlobal { dst, global } => {
                        if wants_events {
                            break;
                        }
                        frame.locals[dst.index()] = self.globals[global.index()].clone();
                        frame.pc = next;
                    }
                    Op::StoreGlobal { global, rv } => {
                        if wants_events {
                            break;
                        }
                        let Some(value) = fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        self.globals[global.index()] = value;
                        frame.pc = next;
                    }
                    Op::LoadField { dst, obj, cache, .. } => {
                        if wants_events {
                            break;
                        }
                        let Value::Ref(target) = frame.locals[obj.index()] else {
                            break;
                        };
                        let cached = self.field_caches[*cache as usize];
                        let HeapCell::Object { class, fields } = self.heap.cell(target) else {
                            break;
                        };
                        if cached.0 != class.0 {
                            break;
                        }
                        frame.locals[dst.index()] = fields[cached.1 as usize].clone();
                        frame.pc = next;
                    }
                    Op::StoreField { obj, cache, rv, .. } => {
                        if wants_events {
                            break;
                        }
                        let Some(value) = fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        let Value::Ref(target) = frame.locals[obj.index()] else {
                            break;
                        };
                        let cached = self.field_caches[*cache as usize];
                        // A cold-cache break after `cell_mut` may have
                        // unshared a copy-on-write heap page; the contents
                        // are untouched, so it is unobservable.
                        let HeapCell::Object { class, fields } = self.heap.cell_mut(target)
                        else {
                            break;
                        };
                        if cached.0 != class.0 {
                            break;
                        }
                        fields[cached.1 as usize] = value;
                        frame.pc = next;
                    }
                    Op::LoadElem { dst, arr, idx } => {
                        if wants_events {
                            break;
                        }
                        let Some(Value::Int(offset)) =
                            fast_rvalue(&frame.locals, &self.vm_temps, idx, code)
                        else {
                            break;
                        };
                        let Value::Ref(target) = frame.locals[arr.index()] else {
                            break;
                        };
                        let HeapCell::Array { elems } = self.heap.cell(target) else {
                            break;
                        };
                        if offset < 0 || offset as usize >= elems.len() {
                            break;
                        }
                        frame.locals[dst.index()] = elems[offset as usize].clone();
                        frame.pc = next;
                    }
                    Op::StoreElem { arr, idx, rv } => {
                        if wants_events {
                            break;
                        }
                        let Some(Value::Int(offset)) =
                            fast_rvalue(&frame.locals, &self.vm_temps, idx, code)
                        else {
                            break;
                        };
                        let Some(value) = fast_rvalue(&frame.locals, &self.vm_temps, rv, code)
                        else {
                            break;
                        };
                        let Value::Ref(target) = frame.locals[arr.index()] else {
                            break;
                        };
                        let HeapCell::Array { elems } = self.heap.cell_mut(target) else {
                            break;
                        };
                        if offset < 0 || offset as usize >= elems.len() {
                            break;
                        }
                        elems[offset as usize] = value;
                        frame.pc = next;
                    }
                    _ => break,
                }
                index += 1;
            }
            if index == ops.len() {
                return Ok(false);
            }
        }
        for op in &ops[index..] {
            match op {
                Op::Expr { dst, rv } => {
                    let value = self.eval_rvalue(thread, rv, code, pc)?;
                    self.vm_temps[*dst as usize] = value;
                }
                Op::Assign { dst, rv } => {
                    let value = self.eval_rvalue(thread, rv, code, pc)?;
                    let frame = self.thread_mut(thread).frame_mut();
                    frame.locals[dst.index()] = value;
                    frame.pc = next;
                }
                Op::LoadGlobal { dst, global } => {
                    let value = self.globals[global.index()].clone();
                    if wants_events {
                        self.emit_mem(observer, thread, pc, Loc::Global(*global), false);
                    }
                    let frame = self.thread_mut(thread).frame_mut();
                    frame.locals[dst.index()] = value;
                    frame.pc = next;
                }
                Op::StoreGlobal { global, rv } => {
                    let value = self.eval_rvalue(thread, rv, code, pc)?;
                    if wants_events {
                        self.emit_mem(observer, thread, pc, Loc::Global(*global), true);
                    }
                    self.globals[global.index()] = value;
                    self.thread_mut(thread).frame_mut().pc = next;
                }
                Op::LoadField {
                    dst,
                    obj,
                    field,
                    cache,
                } => {
                    let target =
                        self.as_ref(self.local_ref(thread, *obj), "field receiver", pc)?;
                    // One heap access resolves the cell, the cache probe,
                    // and the value read together; fetching the value
                    // before the MEM event is unobservable (the read is
                    // pure and all checks have already passed).
                    let value = match self.heap.cell(target) {
                        HeapCell::Object { class, fields } => {
                            let cached = self.field_caches[*cache as usize];
                            if cached.0 == class.0 {
                                fields[cached.1 as usize].clone()
                            } else {
                                match self.program.classes[class.index()].field_slot(*field) {
                                    Some(slot) => {
                                        let value = fields[slot].clone();
                                        self.field_caches[*cache as usize] =
                                            (class.0, slot as u32);
                                        value
                                    }
                                    None => return Err(self.missing_field(*class, *field, pc)),
                                }
                            }
                        }
                        HeapCell::Array { .. } => {
                            return Err(self.throw(
                                self.program.builtins.type_error,
                                "field access on an array",
                                pc,
                            ));
                        }
                    };
                    if wants_events {
                        self.emit_mem(observer, thread, pc, Loc::Field(target, *field), false);
                    }
                    let frame = self.thread_mut(thread).frame_mut();
                    frame.locals[dst.index()] = value;
                    frame.pc = next;
                }
                Op::StoreField {
                    obj,
                    field,
                    cache,
                    rv,
                } => {
                    let target =
                        self.as_ref(self.local_ref(thread, *obj), "field receiver", pc)?;
                    if wants_events {
                        let slot = self.cached_field_slot(target, *field, *cache, pc)?;
                        let value = self.eval_rvalue(thread, rv, code, pc)?;
                        self.emit_mem(observer, thread, pc, Loc::Field(target, *field), true);
                        match self.heap.cell_mut(target) {
                            HeapCell::Object { fields, .. } => fields[slot] = value,
                            HeapCell::Array { .. } => unreachable!("cache checked object"),
                        }
                    } else {
                        // No event to emit, so the cache probe and the write
                        // share one mutable heap access. A pure rvalue
                        // commutes with field resolution (no side effects,
                        // no error), so evaluating it first is unobservable;
                        // an impure one falls back to the tree-walker's
                        // resolve-then-evaluate error order.
                        let value = match fast_rvalue(
                            &self.threads[thread.index()].frame().locals,
                            &self.vm_temps,
                            rv,
                            code,
                        ) {
                            Some(value) => value,
                            None => {
                                self.cached_field_slot(target, *field, *cache, pc)?;
                                self.eval_rvalue(thread, rv, code, pc)?
                            }
                        };
                        let cached = self.field_caches[*cache as usize];
                        // `Ok(())` wrote; `Err(Some(class))` is a missing
                        // field; `Err(None)` an array receiver. Errors are
                        // built after the heap borrow ends.
                        let wrote = match self.heap.cell_mut(target) {
                            HeapCell::Object { class, fields } => {
                                if cached.0 == class.0 {
                                    fields[cached.1 as usize] = value;
                                    Ok(())
                                } else {
                                    match self.program.classes[class.index()].field_slot(*field)
                                    {
                                        Some(slot) => {
                                            fields[slot] = value;
                                            self.field_caches[*cache as usize] =
                                                (class.0, slot as u32);
                                            Ok(())
                                        }
                                        None => Err(Some(*class)),
                                    }
                                }
                            }
                            HeapCell::Array { .. } => Err(None),
                        };
                        match wrote {
                            Ok(()) => {}
                            Err(Some(class)) => {
                                return Err(self.missing_field(class, *field, pc));
                            }
                            Err(None) => {
                                return Err(self.throw(
                                    self.program.builtins.type_error,
                                    "field access on an array",
                                    pc,
                                ));
                            }
                        }
                    }
                    self.thread_mut(thread).frame_mut().pc = next;
                }
                Op::LoadElem { dst, arr, idx } => {
                    // One heap access covers the array check, the bounds
                    // check, and the read when the index evaluates purely to
                    // an int; otherwise (or when emitting events, which the
                    // resolved location precedes) the two-access resolver
                    // path keeps the tree-walker's error order.
                    let fast_index = if wants_events {
                        None
                    } else {
                        match fast_rvalue(
                            &self.threads[thread.index()].frame().locals,
                            &self.vm_temps,
                            idx,
                            code,
                        ) {
                            Some(Value::Int(index)) => Some(index),
                            _ => None,
                        }
                    };
                    let value = match fast_index {
                        Some(index) => {
                            let target =
                                self.as_ref(self.local_ref(thread, *arr), "array", pc)?;
                            match self.heap.cell(target) {
                                HeapCell::Array { elems }
                                    if index >= 0 && (index as usize) < elems.len() =>
                                {
                                    elems[index as usize].clone()
                                }
                                HeapCell::Array { elems } => {
                                    let len = elems.len();
                                    return Err(self.throw(
                                        self.program.builtins.index_out_of_bounds,
                                        format!("index {index} out of bounds for length {len}"),
                                        pc,
                                    ));
                                }
                                HeapCell::Object { .. } => {
                                    return Err(self.throw(
                                        self.program.builtins.type_error,
                                        "indexing a non-array",
                                        pc,
                                    ));
                                }
                            }
                        }
                        None => {
                            let (target, index) =
                                self.vm_resolve_elem(thread, *arr, idx, code, pc)?;
                            if wants_events {
                                self.emit_mem(
                                    observer,
                                    thread,
                                    pc,
                                    Loc::Elem(target, index),
                                    false,
                                );
                            }
                            match self.heap.cell(target) {
                                HeapCell::Array { elems } => elems[index as usize].clone(),
                                HeapCell::Object { .. } => unreachable!("resolve checked array"),
                            }
                        }
                    };
                    let frame = self.thread_mut(thread).frame_mut();
                    frame.locals[dst.index()] = value;
                    frame.pc = next;
                }
                Op::StoreElem { arr, idx, rv } => {
                    // As with `StoreField`: pure index and value evaluations
                    // commute with the array/bounds checks, so the eventless
                    // path folds check and write into one mutable heap
                    // access.
                    let fast = if wants_events {
                        None
                    } else {
                        let locals = &self.threads[thread.index()].frame().locals;
                        match fast_rvalue(locals, &self.vm_temps, idx, code) {
                            Some(Value::Int(index)) => {
                                fast_rvalue(locals, &self.vm_temps, rv, code)
                                    .map(|value| (index, value))
                            }
                            _ => None,
                        }
                    };
                    match fast {
                        Some((index, value)) => {
                            let target =
                                self.as_ref(self.local_ref(thread, *arr), "array", pc)?;
                            // `Err(Some(len))` is out of bounds; `Err(None)`
                            // a non-array receiver.
                            let wrote = match self.heap.cell_mut(target) {
                                HeapCell::Array { elems } => {
                                    if index >= 0 && (index as usize) < elems.len() {
                                        elems[index as usize] = value;
                                        Ok(())
                                    } else {
                                        Err(Some(elems.len()))
                                    }
                                }
                                HeapCell::Object { .. } => Err(None),
                            };
                            match wrote {
                                Ok(()) => {}
                                Err(Some(len)) => {
                                    return Err(self.throw(
                                        self.program.builtins.index_out_of_bounds,
                                        format!("index {index} out of bounds for length {len}"),
                                        pc,
                                    ));
                                }
                                Err(None) => {
                                    return Err(self.throw(
                                        self.program.builtins.type_error,
                                        "indexing a non-array",
                                        pc,
                                    ));
                                }
                            }
                        }
                        None => {
                            let (target, index) =
                                self.vm_resolve_elem(thread, *arr, idx, code, pc)?;
                            let value = self.eval_rvalue(thread, rv, code, pc)?;
                            if wants_events {
                                self.emit_mem(
                                    observer,
                                    thread,
                                    pc,
                                    Loc::Elem(target, index),
                                    true,
                                );
                            }
                            match self.heap.cell_mut(target) {
                                HeapCell::Array { elems } => elems[index as usize] = value,
                                HeapCell::Object { .. } => unreachable!("resolve checked array"),
                            }
                        }
                    }
                    self.thread_mut(thread).frame_mut().pc = next;
                }
                Op::Jump { target } => {
                    self.thread_mut(thread).frame_mut().pc = *target;
                }
                Op::Branch {
                    rv,
                    if_true,
                    if_false,
                } => {
                    let value = self.eval_rvalue(thread, rv, code, pc)?;
                    let taken = self.as_bool(value, pc)?;
                    self.thread_mut(thread).frame_mut().pc =
                        if taken { *if_true } else { *if_false };
                }
                Op::Nop => {
                    self.thread_mut(thread).frame_mut().pc = next;
                }
                // Always the sole op of its range (the compiler guarantees
                // it), so delegating the whole instruction re-executes
                // nothing.
                Op::Fallback => return self.exec_instr(thread, pc, observer),
            }
        }
        Ok(false)
    }

    /// Evaluates a head-carried [`RValue`] against the live frame. Operand
    /// reads are side-effect-free; the combining node reuses the
    /// tree-walker's operators (and error texts) after an integer fast
    /// path.
    fn eval_rvalue(
        &self,
        thread: ThreadId,
        rv: &RValue,
        code: &CodeImage,
        at: InstrId,
    ) -> Result<Value, Thrown> {
        let locals = &self.threads[thread.index()].frame().locals;
        match rv {
            RValue::Op(operand) => Ok(self.read_operand(locals, *operand, code)),
            RValue::Bin(op, lhs, rhs) => {
                if let (Some(a), Some(b)) =
                    (self.read_int(locals, *lhs), self.read_int(locals, *rhs))
                {
                    if let Some(value) = int_binop(*op, a, b) {
                        return Ok(value);
                    }
                }
                let left = self.read_operand(locals, *lhs, code);
                let right = self.read_operand(locals, *rhs, code);
                self.eval_binop(*op, left, right, at)
            }
            RValue::Un(op, operand) => {
                use cil::ast::UnOp;
                let value = self.read_operand(locals, *operand, code);
                match (op, value) {
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, value) => Err(self.throw(
                        self.program.builtins.type_error,
                        format!("cannot apply `{op}` to {}", value.type_name()),
                        at,
                    )),
                }
            }
            RValue::Len(operand) => {
                let builtins = &self.program.builtins;
                match self.read_operand(locals, *operand, code) {
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
                }
            }
        }
    }

    #[inline]
    fn read_operand(&self, locals: &[Value], operand: Operand, code: &CodeImage) -> Value {
        match operand {
            Operand::Local(slot) => locals[slot as usize].clone(),
            Operand::Temp(slot) => self.vm_temps[slot as usize].clone(),
            Operand::Int(value) => Value::Int(value),
            Operand::Bool(value) => Value::Bool(value),
            Operand::Null => Value::Null,
            Operand::Pool(index) => Value::from(code.pool_const(index)),
        }
    }

    /// Reads an operand as an integer without cloning, for the binop fast
    /// path. `None` means "not statically an int here" — fall through to
    /// the generic evaluator.
    #[inline]
    fn read_int(&self, locals: &[Value], operand: Operand) -> Option<i64> {
        match operand {
            Operand::Int(value) => Some(value),
            Operand::Local(slot) => match locals[slot as usize] {
                Value::Int(value) => Some(value),
                _ => None,
            },
            Operand::Temp(slot) => match self.vm_temps[slot as usize] {
                Value::Int(value) => Some(value),
                _ => None,
            },
            _ => None,
        }
    }

    /// The tree-walker's exact "no such field" error (kept out of line so
    /// both the fused `LoadField` arm and [`Execution::cached_field_slot`]
    /// produce identical `Thrown` payloads).
    #[cold]
    fn missing_field(&self, class: ClassId, field: Symbol, pc: InstrId) -> Thrown {
        self.throw(
            self.program.builtins.type_error,
            format!(
                "class `{}` has no field `{}`",
                self.program.name(self.program.classes[class.index()].name),
                self.program.name(field)
            ),
            pc,
        )
    }

    /// Field-slot lookup through the monomorphic inline cache. On a hit
    /// (same class id as last time at this site) the linear field scan is
    /// skipped entirely; on a miss the scan runs and the site is refilled.
    /// Error cases replicate the tree-walker's `field_slot` verbatim.
    fn cached_field_slot(
        &mut self,
        target: ObjId,
        field: Symbol,
        site: u32,
        pc: InstrId,
    ) -> Result<usize, Thrown> {
        match self.heap.cell(target) {
            HeapCell::Object { class, .. } => {
                let class = *class;
                let cached = self.field_caches[site as usize];
                if cached.0 == class.0 {
                    return Ok(cached.1 as usize);
                }
                match self.program.classes[class.index()].field_slot(field) {
                    Some(slot) => {
                        self.field_caches[site as usize] = (class.0, slot as u32);
                        Ok(slot)
                    }
                    None => Err(self.missing_field(class, field, pc)),
                }
            }
            HeapCell::Array { .. } => Err(self.throw(
                self.program.builtins.type_error,
                "field access on an array",
                pc,
            )),
        }
    }

    /// The bytecode twin of `resolve_elem`: array check, then index
    /// evaluation, then bounds check — same order, same error texts.
    fn vm_resolve_elem(
        &self,
        thread: ThreadId,
        arr: LocalId,
        idx: &RValue,
        code: &CodeImage,
        pc: InstrId,
    ) -> Result<(ObjId, u32), Thrown> {
        let target = self.as_ref(self.local_ref(thread, arr), "array", pc)?;
        let Some(len) = self.heap.array_len(target) else {
            return Err(self.throw(
                self.program.builtins.type_error,
                "indexing a non-array",
                pc,
            ));
        };
        let index = match self.eval_rvalue(thread, idx, code, pc)? {
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

    /// `next_access` via the footprint table: a per-pc tag plus at most a
    /// register read or two replaces the instruction-enum match. The
    /// dynamic checks (null/type/bounds, field existence) are re-done
    /// against the live frame exactly as the tree-walk resolver does them,
    /// so the answer is identical — including every `None` case. The
    /// inline cache is peeked read-only (a `&self` query must not mutate).
    pub(crate) fn footprint_access(
        &self,
        code: &CodeImage,
        state: &ThreadState,
        pc: InstrId,
    ) -> Option<Access> {
        let locals = &state.frame().locals;
        match *code.footprint(pc) {
            Footprint::None => None,
            Footprint::Global { global, is_write } => Some(Access {
                instr: pc,
                loc: Loc::Global(global),
                is_write,
            }),
            Footprint::Field {
                obj,
                field,
                cache,
                is_write,
            } => {
                let Value::Ref(target) = locals[obj.index()] else {
                    return None;
                };
                match self.heap.cell(target) {
                    HeapCell::Object { class, .. } => {
                        // Cache hit proves the field exists; a miss falls
                        // back to the scan (without filling — read-only).
                        if self.field_caches[cache as usize].0 != class.0 {
                            self.program.classes[class.index()].field_slot(field)?;
                        }
                        Some(Access {
                            instr: pc,
                            loc: Loc::Field(target, field),
                            is_write,
                        })
                    }
                    HeapCell::Array { .. } => None,
                }
            }
            Footprint::Elem { arr, idx, is_write } => {
                let Value::Ref(target) = locals[arr.index()] else {
                    return None;
                };
                let len = self.heap.array_len(target)?;
                let index = match idx {
                    FootprintIdx::Const(index) => index,
                    FootprintIdx::Local(slot) => match locals[slot.index()] {
                        Value::Int(index) => index,
                        _ => return None,
                    },
                    // Rare compound index: evaluate the original pure
                    // expression, exactly like `elem_target`.
                    FootprintIdx::Expr => {
                        let (Instr::LoadElem { idx, .. } | Instr::StoreElem { idx, .. }) =
                            self.program.instr(pc)
                        else {
                            return None;
                        };
                        match self.eval_in(state, idx, InstrId(0)) {
                            Ok(Value::Int(index)) => index,
                            _ => return None,
                        }
                    }
                };
                if index < 0 || index as usize >= len {
                    return None;
                }
                Some(Access {
                    instr: pc,
                    loc: Loc::Elem(target, index as u32),
                    is_write,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullObserver, RecordingObserver};
    use crate::sched::{drive, Limits, RandomScheduler, RunOutcome};

    /// Runs `program` from `main` under `engine` and a seeded random
    /// schedule, delivering events to `observer`.
    fn run_under(
        program: &cil::Program,
        engine: ExecEngine,
        seed: u64,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        let mut exec = Execution::new(program, "main").unwrap();
        exec.set_engine(engine);
        let termination = drive(
            &mut exec,
            &mut RandomScheduler::seeded(seed),
            observer,
            Limits::default(),
        );
        RunOutcome {
            termination,
            steps: exec.steps(),
            uncaught: exec.uncaught().to_vec(),
            output: exec.output().to_vec(),
        }
    }

    fn run_both(source: &str, seed: u64) -> (RunOutcome, RunOutcome) {
        let program = cil::compile(source).unwrap();
        let run = |engine| run_under(&program, engine, seed, &mut NullObserver);
        (run(ExecEngine::Bytecode), run(ExecEngine::TreeWalk))
    }

    #[test]
    fn engines_agree_on_arithmetic_and_control_flow() {
        let source = r#"
            global acc = 0;
            proc main() {
                var i = 0;
                while (i < 50) {
                    acc = acc + i * 2 - (i / 3);
                    if (i % 7 == 0) { acc = acc - 1; }
                    i = i + 1;
                }
                print acc;
            }
        "#;
        let (bytecode, tree) = run_both(source, 11);
        assert_eq!(bytecode.output, tree.output);
        assert_eq!(bytecode.steps, tree.steps);
        assert_eq!(bytecode.termination, tree.termination);
    }

    #[test]
    fn engines_agree_on_exceptions() {
        let source = r#"
            proc main() {
                var denom = 0;
                try {
                    var x = 1 / denom;
                } catch (Arithmetic) {
                    print "caught";
                }
                var arr = new [2];
                try {
                    arr[5] = 1;
                } catch (IndexOutOfBounds) {
                    print "oob";
                }
                var o = null;
                try {
                    o.f = 1;
                } catch (NullPointer) {
                    print "np";
                }
            }
        "#;
        let (bytecode, tree) = run_both(source, 3);
        assert_eq!(bytecode.output, tree.output);
        assert_eq!(bytecode.steps, tree.steps);
        assert_eq!(bytecode.uncaught.len(), tree.uncaught.len());
    }

    #[test]
    fn engines_emit_identical_event_streams() {
        let source = r#"
            class Counter { value }
            global c;
            global done = 0;
            proc bump() {
                var local = c;
                sync (local) { local.value = local.value + 1; }
                done = done + 1;
            }
            proc main() {
                c = new Counter;
                c.value = 0;
                var a = spawn bump();
                var b = spawn bump();
                join a;
                join b;
                print c.value;
            }
        "#;
        let program = cil::compile(source).unwrap();
        let record = |engine| {
            let mut observer = RecordingObserver::default();
            let outcome = run_under(&program, engine, 9, &mut observer);
            (outcome.output, observer.events)
        };
        let (out_bc, events_bc) = record(ExecEngine::Bytecode);
        let (out_tw, events_tw) = record(ExecEngine::TreeWalk);
        assert_eq!(out_bc, out_tw);
        assert_eq!(
            format!("{events_bc:?}"),
            format!("{events_tw:?}"),
            "event streams must be identical"
        );
    }

    #[test]
    fn inline_caches_hit_after_first_access() {
        let program = cil::compile(
            r#"
            class Cell { value }
            proc main() {
                var c = new Cell;
                c.value = 0;
                var i = 0;
                while (i < 10) { c.value = c.value + 1; i = i + 1; }
                print c.value;
            }
            "#,
        )
        .unwrap();
        let mut exec = Execution::new(&program, "main").unwrap();
        assert!(!exec.field_caches.is_empty());
        assert!(exec.field_caches.iter().all(|entry| *entry == EMPTY_CACHE));
        loop {
            let enabled = exec.enabled();
            let Some(&thread) = enabled.first() else { break };
            exec.step(thread, &mut NullObserver);
        }
        assert_eq!(exec.output(), ["10".to_string()]);
        assert!(
            exec.field_caches.iter().any(|entry| *entry != EMPTY_CACHE),
            "hot field sites must have filled their caches"
        );
    }

    #[test]
    fn footprint_next_access_matches_tree_walk() {
        let source = r#"
            class Point { x, y }
            global g = 0;
            global arr;
            proc worker(p, a) {
                p.x = 1;
                var v = p.x;
                a[1] = v;
                var w = a[v];
                g = w;
                var r = g;
            }
            proc main() {
                var p = new Point;
                arr = new [4];
                var a = arr;
                var t = spawn worker(p, a);
                join t;
            }
        "#;
        let program = cil::compile(source).unwrap();
        let mut bytecode = Execution::new(&program, "main").unwrap();
        let mut tree = Execution::new(&program, "main").unwrap();
        tree.set_engine(ExecEngine::TreeWalk);
        // March both executions in lockstep under the same schedule and
        // compare every thread's next_access at every state.
        loop {
            for thread in 0..bytecode.thread_count() {
                let thread = ThreadId(thread as u32);
                assert_eq!(
                    bytecode.next_access(thread),
                    tree.next_access(thread),
                    "next_access diverged at step {}",
                    bytecode.steps()
                );
                assert_eq!(bytecode.is_enabled(thread), tree.is_enabled(thread));
            }
            let enabled = bytecode.enabled();
            let Some(&choice) = enabled.first() else { break };
            bytecode.step(choice, &mut NullObserver);
            tree.step(choice, &mut NullObserver);
        }
        assert_eq!(bytecode.steps(), tree.steps());
    }

    #[test]
    fn engine_survives_reset_and_restore() {
        let program = cil::compile(
            "global x = 0; proc main() { x = x + 1; print x; }",
        )
        .unwrap();
        let mut exec = Execution::new(&program, "main").unwrap();
        exec.set_engine(ExecEngine::TreeWalk);
        exec.reset("main").unwrap();
        assert_eq!(exec.engine(), ExecEngine::TreeWalk);
        let snapshot = exec.snapshot();
        exec.restore(&snapshot);
        assert_eq!(exec.engine(), ExecEngine::TreeWalk);
        exec.set_engine(ExecEngine::Bytecode);
        assert_eq!(exec.engine(), ExecEngine::Bytecode);
    }
}
