//! The register-bytecode execution engine.
//!
//! [`Execution::step`] dispatches here when the engine is
//! [`ExecEngine::Bytecode`]: instead of matching the 26-variant [`Instr`]
//! enum and recursing through boxed `PureExpr` trees, it executes the flat
//! micro-op range the [`CodeImage`] compiled for the pc (see
//! `cil::bytecode` for the format and the fusion/fallback rules).
//!
//! **Two implementations per statement.** The tree-walking `exec_instr`
//! is the semantics of record. The VM is one fast pass that finishes only
//! the common case of a statement — integer arithmetic, jumps, branches,
//! and memory accesses whose receiver is live, whose field is known and
//! whose index is in bounds, while no observer wants events — and hands
//! every statement it cannot finish, whole, to `exec_instr`: cold
//! instructions ([`Op::Fallback`]: synchronization, calls, allocation,
//! exceptions, I/O), memory accesses under an event-consuming observer,
//! and every error case. A hand-off has changed nothing observable, so
//! the two engines produce identical event streams, identical `Thrown`
//! payloads, and identical step counts under every schedule. The
//! differential suite (`tests/engine_differential.rs`) replays recorded
//! Phase-2 schedules on both engines in lockstep and compares them state
//! by state.
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
use crate::value::{ThreadId, Value};
use cil::ast::{BinOp, UnOp};
use cil::bytecode::{CodeImage, Footprint, FootprintIdx, Op, Operand, RValue};
use cil::flat::{ClassId, Instr, InstrId, Program};
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
/// or error the tree-walker's `eval_binop` must produce
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

/// Operand read against raw frame/temp slices: the fast pass holds the
/// frame mutably, so it cannot go through `&self`.
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

/// Side-effect-free rvalue evaluation over raw slices. `None` means "hand
/// the instruction to the tree-walker" — either the value needs the heap
/// (`Len`), or the case must produce the tree-walker's exact result or
/// `Thrown` (mixed-type binops, division by zero). Re-evaluating there is
/// safe because operand reads are pure.
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

/// The slot of `field` in objects of `class`, through the monomorphic
/// inline cache at `site`: a hit skips the class's field scan, a miss scans
/// and refills the site. `None` if the class has no such field.
#[inline]
fn cached_slot(
    caches: &mut [(u32, u32)],
    program: &Program,
    class: ClassId,
    field: Symbol,
    site: u32,
) -> Option<usize> {
    let entry = &mut caches[site as usize];
    if entry.0 != class.0 {
        let slot = program.classes[class.index()].field_slot(field)?;
        *entry = (class.0, slot as u32);
    }
    Some(entry.1 as usize)
}

impl<'p> Execution<'p> {
    /// Executes the micro-op range of the instruction at `pc` — the
    /// bytecode twin of `exec_instr`, with identical observable behavior.
    ///
    /// One pass borrows the scheduled thread's frame **once** — one
    /// copy-on-write `Arc` check per step instead of one per op — and runs
    /// the range over raw slices, finishing only the common case: integer
    /// and boolean arithmetic, a live receiver, a known field, an index in
    /// bounds. Anything else — an [`Op::Fallback`], a memory op while the
    /// observer wants its MEM event, a throwing or heap-reading rvalue, a
    /// null or mistyped receiver, a missing field, an index out of bounds —
    /// hands the **whole instruction** to `exec_instr`, the reference
    /// semantics, which produces the exact events, errors and results.
    ///
    /// Re-executing from scratch is sound because nothing the pass did
    /// before the hand-off is observable: pre-ops ([`Op::Expr`]) write only
    /// per-step temporaries, and every head breaks before its first write
    /// to a frame slot, global, heap cell or `effects`. (A head may have
    /// unshared the thread's or a heap page's copy-on-write storage, which
    /// changes no contents.) The one thing the pass adds is the inline
    /// cache: a field access that misses looks the slot up in the class
    /// layout and refills its site.
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
        let fast = match ops.first() {
            Some(
                Op::Expr { .. } | Op::Assign { .. } | Op::Jump { .. } | Op::Branch { .. } | Op::Nop,
            ) => true,
            // Memory accesses run here only when no observer wants the MEM
            // event they would otherwise emit.
            Some(
                Op::LoadGlobal { .. }
                | Op::StoreGlobal { .. }
                | Op::LoadField { .. }
                | Op::StoreField { .. }
                | Op::LoadElem { .. }
                | Op::StoreElem { .. },
            ) => !wants_events,
            Some(Op::Fallback) | None => false,
        };
        if fast {
            // Split borrows: the frame comes from `self.threads`; temps,
            // globals, the heap, and the field caches are sibling fields,
            // so the frame borrow can stay live across all of them.
            let program = self.program;
            let state = Arc::make_mut(&mut self.threads[thread.index()]);
            let frame = state.frames.last_mut().expect("live thread has a frame");
            let mut index = 0;
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
                        // in the tree-walker.
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
                        self.effects += 1;
                        frame.pc = next;
                    }
                    Op::LoadField {
                        dst,
                        obj,
                        field,
                        cache,
                    } => {
                        if wants_events {
                            break;
                        }
                        let Value::Ref(target) = frame.locals[obj.index()] else {
                            break;
                        };
                        let HeapCell::Object { class, fields } = self.heap.cell(target) else {
                            break;
                        };
                        let Some(slot) =
                            cached_slot(&mut self.field_caches, program, *class, *field, *cache)
                        else {
                            break;
                        };
                        frame.locals[dst.index()] = fields[slot].clone();
                        frame.pc = next;
                    }
                    Op::StoreField {
                        obj,
                        field,
                        cache,
                        rv,
                    } => {
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
                        let HeapCell::Object { class, fields } = self.heap.cell_mut(target) else {
                            break;
                        };
                        let Some(slot) =
                            cached_slot(&mut self.field_caches, program, *class, *field, *cache)
                        else {
                            break;
                        };
                        fields[slot] = value;
                        self.effects += 1;
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
                        self.effects += 1;
                        frame.pc = next;
                    }
                    Op::Fallback => break,
                }
                index += 1;
            }
            if index == ops.len() {
                return Ok(false);
            }
        }
        self.exec_instr(thread, pc, observer)
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
            let Some(&thread) = enabled.first() else {
                break;
            };
            exec.step(thread, &mut NullObserver);
        }
        assert_eq!(exec.output(), ["10".to_string()]);
        assert!(
            exec.field_caches.iter().any(|entry| *entry != EMPTY_CACHE),
            "hot field sites must have filled their caches"
        );
    }

    #[test]
    fn inline_cache_refills_track_the_tree_walk_in_lockstep() {
        // One `o.n` load site and one store site see objects of two
        // classes whose `n` sits at different slots, then — at the same,
        // now warm, sites — an object without `n` and an array. A miss
        // must refill the site with the new class's slot; the last two
        // must leave the fast pass and throw from the tree-walker.
        let program = cil::compile(
            r#"
            class A { n }
            class B { pad, n }
            class C { pad }
            global objs;
            proc main() {
                var a = new A;
                a.n = 1;
                var b = new B;
                b.pad = 7;
                b.n = 2;
                var c = new C;
                c.pad = 9;
                objs = new [5];
                var arr = objs;
                arr[0] = a;
                arr[1] = b;
                arr[2] = a;
                arr[3] = c;
                arr[4] = arr;
                var i = 0;
                while (i < 5) {
                    var o = arr[i];
                    try {
                        var v = o.n;
                        o.n = v + 10;
                        print v;
                    } catch (TypeError) {
                        print "type";
                    }
                    i = i + 1;
                }
                print a.n;
                print b.pad;
                print b.n;
            }
            "#,
        )
        .unwrap();
        fn lockstep<O: Observer + Default>(program: &cil::Program) -> (O, O) {
            let mut bytecode = Execution::new(program, "main").unwrap();
            let mut tree = Execution::new(program, "main").unwrap();
            tree.set_engine(ExecEngine::TreeWalk);
            let (mut bytecode_observer, mut tree_observer) = (O::default(), O::default());
            while let Some(&thread) = tree.enabled().first() {
                assert_eq!(bytecode.next_access(thread), tree.next_access(thread));
                assert_eq!(
                    bytecode.step(thread, &mut bytecode_observer),
                    tree.step(thread, &mut tree_observer),
                    "step {} diverged",
                    tree.steps()
                );
            }
            assert!(bytecode.enabled().is_empty());
            assert_eq!(bytecode.steps(), tree.steps());
            assert_eq!(bytecode.uncaught(), tree.uncaught());
            assert_eq!(bytecode.output(), tree.output());
            assert_eq!(
                tree.output(),
                ["1", "2", "11", "type", "type", "21", "7", "12"]
            );
            (bytecode_observer, tree_observer)
        }
        lockstep::<NullObserver>(&program);
        let (bytecode, tree) = lockstep::<RecordingObserver>(&program);
        assert_eq!(
            format!("{:?}", bytecode.events),
            format!("{:?}", tree.events),
            "event streams must be identical"
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
            let Some(&choice) = enabled.first() else {
                break;
            };
            bytecode.step(choice, &mut NullObserver);
            tree.step(choice, &mut NullObserver);
        }
        assert_eq!(bytecode.steps(), tree.steps());
    }

    #[test]
    fn engine_survives_reset_and_restore() {
        let program = cil::compile("global x = 0; proc main() { x = x + 1; print x; }").unwrap();
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
