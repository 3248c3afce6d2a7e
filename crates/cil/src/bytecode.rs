//! The register-bytecode backend: a flat micro-op encoding of the IR.
//!
//! [`Instr`]s are trees: a `StoreElem` holds two
//! [`PureExpr`](crate::flat::PureExpr)s, each an arbitrary expression tree,
//! and executing one statement means recursing through boxed nodes and
//! matching a 26-variant enum at every level. The bytecode pass flattens
//! each instruction into a short run of register micro-ops ([`Op`]) over
//! the *existing* frame slots plus a small bank of per-step temporaries,
//! and fuses the hot shapes — `i = i + 1` (index-increment), `x = x op y`
//! into a local (load-op-store), and `if (a < b)` (compare-and-branch) —
//! into single superinstructions by carrying the top expression node
//! inline in the head op ([`RValue`]).
//!
//! **Granularity invariant**: one source [`InstrId`] compiles to one
//! contiguous op range — zero or more [`Op::Expr`] pre-ops and one head —
//! and the interpreter executes the *whole range* as one `step()`. Fusion
//! never crosses an instruction boundary, so the scheduler sees exactly the
//! statement granularity the RaceFuzzer algorithms (and the paper's §2.1
//! machine model) are defined over.
//!
//! **The tree-walker finishes what the ops cannot.** The interpreter runs
//! an op range only as far as its common case goes; any op it cannot
//! finish (a throwing operation, a missing field, an event-consuming
//! observer) hands the whole source instruction to the tree-walking
//! interpreter, which re-executes it from scratch. That is sound because
//! pre-ops write only temporaries, which are dead between steps, and a head
//! performs no write before its last check. Cold instructions —
//! synchronization, calls, allocation, exceptions, I/O — compile straight
//! to a lone [`Op::Fallback`].
//!
//! **Evaluation-order equivalence**: ops for an expression tree are emitted
//! in tree-walk recursion order (left subtree, right subtree, combining
//! node), and the only computation moved in time is the *reading of
//! `Const`/`Local` leaves*, which is side-effect-free and cannot throw.
//! Heads whose tree-walk semantics perform checks *before* evaluating an
//! operand expression (`StoreField`/`LoadElem`/`StoreElem` check the
//! receiver first) only fuse operands that compile without emitted ops
//! (`no_ops_rvalue`); anything more complex compiles to [`Op::Fallback`]
//! for that single instruction.
//!
//! Alongside the ops, the pass precomputes two per-pc tables the scheduler
//! consumes directly:
//!
//! * the **access footprint** ([`Footprint`]): which global/field/element
//!   the instruction would touch and through which registers, so the
//!   would-it-race query (`Execution::next_access`, Algorithm 2's `Racing`
//!   check) becomes a table lookup plus register reads instead of a
//!   `PureExpr` evaluation;
//! * the **enabledness kind** ([`EnabledKind`]): whether the instruction
//!   is a `lock`/`join` (the only statements that can be disabled), so
//!   `Enabled(s)` never matches the full instruction enum.

use crate::ast::{BinOp, UnOp};
use crate::flat::{Const, GlobalId, Instr, InstrId, LocalId, Program};
use crate::intern::Symbol;
use std::fmt;

/// A read-only operand of a micro-op: a frame slot, a per-step temporary,
/// or an immediate. Reading an operand is side-effect-free and cannot
/// throw, which is what licenses moving leaf reads from tree-recursion
/// time to op-execution time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Read of frame slot `locals[n]`.
    Local(u32),
    /// Read of per-step temporary `temps[n]`.
    Temp(u32),
    /// Immediate integer.
    Int(i64),
    /// Immediate boolean.
    Bool(bool),
    /// Immediate `null`.
    Null,
    /// Immediate from the constant pool (strings).
    Pool(u32),
}

/// The top node of an expression, carried inline in a head op. This is the
/// fusion mechanism: `RValue::Bin` inside an [`Op::Assign`] *is* the
/// load-op-store / index-increment superinstruction, and inside an
/// [`Op::Branch`] it is the compare-and-branch superinstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RValue {
    /// Just an operand.
    Op(Operand),
    /// A unary node applied to an operand.
    Un(UnOp, Operand),
    /// A binary node applied to two operands.
    Bin(BinOp, Operand, Operand),
    /// Array length of an operand.
    Len(Operand),
}

/// A register micro-op. Each source instruction compiles to zero or more
/// [`Op::Expr`]s (interior expression nodes writing temporaries) followed
/// by exactly one *head* op that performs the instruction's effect and
/// advances control flow — or to a single [`Op::Fallback`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `temps[dst] = rv` — an interior expression node.
    Expr {
        /// Destination temporary.
        dst: u32,
        /// The computation.
        rv: RValue,
    },
    /// `locals[dst] = rv` — head of [`Instr::Assign`].
    Assign {
        /// Destination frame slot.
        dst: LocalId,
        /// The value.
        rv: RValue,
    },
    /// `locals[dst] = globals[global]` — head of [`Instr::LoadGlobal`].
    LoadGlobal {
        /// Destination frame slot.
        dst: LocalId,
        /// The global read.
        global: GlobalId,
    },
    /// `globals[global] = rv` — head of [`Instr::StoreGlobal`].
    StoreGlobal {
        /// The global written.
        global: GlobalId,
        /// The value.
        rv: RValue,
    },
    /// `locals[dst] = locals[obj].field` — head of [`Instr::LoadField`],
    /// with a monomorphic inline cache slot.
    LoadField {
        /// Destination frame slot.
        dst: LocalId,
        /// Slot holding the receiver.
        obj: LocalId,
        /// The field.
        field: Symbol,
        /// Inline-cache site index (see [`CodeImage::cache_sites`]).
        cache: u32,
    },
    /// `locals[obj].field = rv` — head of [`Instr::StoreField`]. `rv` is
    /// compiled without pre-ops so the receiver checks stay first.
    StoreField {
        /// Slot holding the receiver.
        obj: LocalId,
        /// The field.
        field: Symbol,
        /// Inline-cache site index.
        cache: u32,
        /// The value (no emitted pre-ops).
        rv: RValue,
    },
    /// `locals[dst] = locals[arr][idx]` — head of [`Instr::LoadElem`].
    /// `idx` is compiled without pre-ops.
    LoadElem {
        /// Destination frame slot.
        dst: LocalId,
        /// Slot holding the array.
        arr: LocalId,
        /// The index (no emitted pre-ops).
        idx: RValue,
    },
    /// `locals[arr][idx] = rv` — head of [`Instr::StoreElem`]. Both
    /// operands are compiled without pre-ops.
    StoreElem {
        /// Slot holding the array.
        arr: LocalId,
        /// The index (no emitted pre-ops).
        idx: RValue,
        /// The value (no emitted pre-ops).
        rv: RValue,
    },
    /// Unconditional jump — head of [`Instr::Jump`].
    Jump {
        /// The target instruction.
        target: InstrId,
    },
    /// Conditional jump — head of [`Instr::Branch`]. With `rv` a
    /// comparison [`RValue::Bin`], this is the fused compare-and-branch.
    Branch {
        /// The condition.
        rv: RValue,
        /// Target when true.
        if_true: InstrId,
        /// Target when false.
        if_false: InstrId,
    },
    /// Head of [`Instr::Nop`].
    Nop,
    /// Delegate the entire source instruction to the tree-walking
    /// interpreter: synchronization, calls, allocation, exceptions, I/O,
    /// and the rare memory accesses whose operand shapes would perturb
    /// exception order if flattened. Always the sole op of its range.
    Fallback,
}

/// How an element index is recovered when resolving a footprint — the
/// register(s) the access depends on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FootprintIdx {
    /// A compile-time constant index.
    Const(i64),
    /// The index sits directly in a frame slot.
    Local(LocalId),
    /// A compound expression: the resolver evaluates the original
    /// [`PureExpr`](crate::flat::PureExpr) from the instruction.
    Expr,
}

impl FootprintIdx {
    /// Whether two element indices could evaluate to the same value in
    /// some execution. Only two *distinct* compile-time constants are
    /// refutable; a register or compound index can hold anything.
    pub fn may_equal(self, other: FootprintIdx) -> bool {
        match (self, other) {
            (FootprintIdx::Const(a), FootprintIdx::Const(b)) => a == b,
            _ => true,
        }
    }
}

/// The precomputed answer to "which shared location would this pc touch?"
/// — everything `next_access` needs short of the dynamic register values.
///
/// Soundness: a footprint only *names* the registers and static ids; the
/// dynamic resolution (null/type/bounds checks) is re-done against the
/// live frame on every query, exactly mirroring the tree-walk resolver, so
/// a footprint lookup can never report an access the instruction would not
/// perform nor miss one it would.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Footprint {
    /// Not a shared-memory access.
    None,
    /// A global read or write.
    Global {
        /// The global.
        global: GlobalId,
        /// `true` for a store.
        is_write: bool,
    },
    /// A field read or write through a register-held receiver.
    Field {
        /// Slot holding the receiver.
        obj: LocalId,
        /// The field.
        field: Symbol,
        /// Inline-cache site shared with the executing op, peeked
        /// read-only by the resolver.
        cache: u32,
        /// `true` for a store.
        is_write: bool,
    },
    /// An element read or write through a register-held array.
    Elem {
        /// Slot holding the array.
        arr: LocalId,
        /// How to recover the index.
        idx: FootprintIdx,
        /// `true` for a store.
        is_write: bool,
    },
}

impl Footprint {
    /// The footprint as an [`AbstractAccess`], or `None` for
    /// [`Footprint::None`]. This is the static-analysis view: same shape
    /// as the dynamic resolver consumes, minus the inline-cache slot.
    pub fn access(&self) -> Option<AbstractAccess> {
        match *self {
            Footprint::None => None,
            Footprint::Global { global, is_write } => Some(AbstractAccess {
                place: AbstractPlace::Global(global),
                is_write,
            }),
            Footprint::Field {
                obj,
                field,
                is_write,
                ..
            } => Some(AbstractAccess {
                place: AbstractPlace::Field { obj, field },
                is_write,
            }),
            Footprint::Elem { arr, idx, is_write } => Some(AbstractAccess {
                place: AbstractPlace::Elem { arr, idx },
                is_write,
            }),
        }
    }
}

/// The location part of an [`AbstractAccess`]: which shared place an
/// instruction touches, named by static ids and the registers the dynamic
/// resolution reads. Base registers (`obj`/`arr`) are per-procedure frame
/// slots; interpreting them across procedures needs an external points-to
/// oracle, which is why [`AbstractAccess::may_alias_with`] takes one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbstractPlace {
    /// A global variable.
    Global(GlobalId),
    /// A field of the object held in frame slot `obj`.
    Field {
        /// Slot holding the receiver.
        obj: LocalId,
        /// The field.
        field: Symbol,
    },
    /// An element of the array held in frame slot `arr`.
    Elem {
        /// Slot holding the array.
        arr: LocalId,
        /// How the index is recovered.
        idx: FootprintIdx,
    },
}

/// One shared-memory access an instruction performs, in footprint terms.
/// The stable view static analyses consume ([`CodeImage::accesses_of`]):
/// derived from the same per-pc table the dynamic would-it-race query
/// reads, so "what does this statement touch" has one source of truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbstractAccess {
    /// The shared place touched.
    pub place: AbstractPlace,
    /// `true` for a store.
    pub is_write: bool,
}

impl AbstractAccess {
    /// Whether two accesses could touch the same dynamic location, given
    /// `bases_overlap(a, b)` answering whether the objects in frame slots
    /// `a` (of `self`'s procedure) and `b` (of `other`'s) may be the same.
    ///
    /// Refutation logic, conservative in every unknown:
    /// * different place kinds never alias (a global cell is not a field
    ///   is not an element);
    /// * globals alias iff they are the same global;
    /// * fields alias only if the field names match *and* the receivers
    ///   may overlap;
    /// * elements alias only if the arrays may overlap *and* the indices
    ///   [`may_equal`](FootprintIdx::may_equal) — two distinct constant
    ///   indices are distinct cells even in the same array.
    pub fn may_alias_with(
        &self,
        other: &AbstractAccess,
        mut bases_overlap: impl FnMut(LocalId, LocalId) -> bool,
    ) -> bool {
        match (self.place, other.place) {
            (AbstractPlace::Global(a), AbstractPlace::Global(b)) => a == b,
            (
                AbstractPlace::Field { obj: a, field: fa },
                AbstractPlace::Field { obj: b, field: fb },
            ) => fa == fb && bases_overlap(a, b),
            (AbstractPlace::Elem { arr: a, idx: ia }, AbstractPlace::Elem { arr: b, idx: ib }) => {
                ia.may_equal(ib) && bases_overlap(a, b)
            }
            _ => false,
        }
    }
}

/// Why a runnable thread at this pc might not be enabled. Everything but
/// `lock`/`join` is unconditionally enabled, so `Enabled(s)` needs only
/// this two-bit answer plus at most one register read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EnabledKind {
    /// Always enabled when runnable.
    Plain,
    /// A `lock` on the object in the given slot: enabled iff available.
    Lock(LocalId),
    /// A `join` on the handle in the given slot: enabled iff target dead
    /// or the joiner is interrupted.
    Join(LocalId),
}

/// Per-pc flag bits (see [`CodeImage::is_sync`]).
const FLAG_SYNC: u8 = 1 << 0;
const FLAG_MEMORY: u8 = 1 << 1;

/// A program whose micro-op stream overflows the image's `u32` index
/// space (`CodeImage::starts` entries). Returned by
/// [`CodeImage::try_compile`] instead of silently truncating op offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageLimitError {
    /// The op count that no longer fits in a `u32` offset.
    pub ops: usize,
    /// The source instruction being compiled when the limit was hit.
    pub at: InstrId,
}

impl fmt::Display for ImageLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program too large for bytecode image: {} micro-ops at instruction {} \
             exceed the u32 offset space",
            self.ops,
            self.at.index()
        )
    }
}

impl std::error::Error for ImageLimitError {}

/// A compiled program image: flat micro-ops plus the per-pc footprint,
/// enabledness, and flag tables. Built once per [`Program`] (cached behind
/// [`Program::bytecode`]) and shared read-only by every execution.
#[derive(Clone, Debug)]
pub struct CodeImage {
    ops: Vec<Op>,
    /// `starts[i]..starts[i + 1]` is the op range of `InstrId(i)`.
    starts: Vec<u32>,
    footprints: Vec<Footprint>,
    enabled_kinds: Vec<EnabledKind>,
    flags: Vec<u8>,
    pool: Vec<Const>,
    cache_sites: u32,
    max_temps: u32,
    fused: u32,
}

impl CodeImage {
    /// Compiles `program` into a bytecode image.
    ///
    /// Panics with the [`ImageLimitError`] message if the program's
    /// micro-op stream overflows the image's `u32` index space; use
    /// [`CodeImage::try_compile`] to handle that as a value.
    pub fn compile(program: &Program) -> CodeImage {
        Self::try_compile(program).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`CodeImage::compile`], surfacing the oversized-program case as a
    /// typed error instead of a panic.
    pub fn try_compile(program: &Program) -> Result<CodeImage, ImageLimitError> {
        let mut compiler = Compiler {
            ops: Vec::with_capacity(program.instr_count() * 2),
            pool: Vec::new(),
            temp_next: 0,
            max_temps: 0,
            cache_sites: 0,
            fused: 0,
        };
        let count = program.instr_count();
        let mut starts = Vec::with_capacity(count + 1);
        let mut footprints = Vec::with_capacity(count);
        let mut enabled_kinds = Vec::with_capacity(count);
        let mut flags = Vec::with_capacity(count);
        for (index, instr) in program.instrs.iter().enumerate() {
            let start = u32::try_from(compiler.ops.len()).map_err(|_| ImageLimitError {
                ops: compiler.ops.len(),
                at: InstrId(index as u32),
            })?;
            starts.push(start);
            compiler.temp_next = 0;
            let footprint = compiler.footprint_of(instr);
            compiler.compile_instr(instr, &footprint);
            footprints.push(footprint);
            enabled_kinds.push(match instr {
                Instr::Lock { obj, .. } => EnabledKind::Lock(*obj),
                Instr::Join { thread } => EnabledKind::Join(*thread),
                _ => EnabledKind::Plain,
            });
            let mut flag = 0u8;
            if instr.is_sync_op() {
                flag |= FLAG_SYNC;
            }
            if instr.is_memory_access() {
                flag |= FLAG_MEMORY;
            }
            flags.push(flag);
        }
        let end = u32::try_from(compiler.ops.len()).map_err(|_| ImageLimitError {
            ops: compiler.ops.len(),
            at: InstrId(count.saturating_sub(1) as u32),
        })?;
        starts.push(end);
        Ok(CodeImage {
            ops: compiler.ops,
            starts,
            footprints,
            enabled_kinds,
            flags,
            pool: compiler.pool,
            cache_sites: compiler.cache_sites,
            max_temps: compiler.max_temps,
            fused: compiler.fused,
        })
    }

    /// The micro-ops of one source instruction.
    #[inline]
    pub fn ops_of(&self, pc: InstrId) -> &[Op] {
        let start = self.starts[pc.index()] as usize;
        let end = self.starts[pc.index() + 1] as usize;
        &self.ops[start..end]
    }

    /// The access footprint of one source instruction.
    #[inline]
    pub fn footprint(&self, pc: InstrId) -> &Footprint {
        &self.footprints[pc.index()]
    }

    /// The enabledness kind of one source instruction.
    #[inline]
    pub fn enabled_kind(&self, pc: InstrId) -> EnabledKind {
        self.enabled_kinds[pc.index()]
    }

    /// `true` if the instruction is a synchronization operation
    /// (mirrors [`Instr::is_sync_op`] as a flag-table read).
    #[inline]
    pub fn is_sync(&self, pc: InstrId) -> bool {
        self.flags[pc.index()] & FLAG_SYNC != 0
    }

    /// `true` if the instruction is a shared-memory access (mirrors
    /// [`Instr::is_memory_access`]).
    #[inline]
    pub fn is_memory_access(&self, pc: InstrId) -> bool {
        self.flags[pc.index()] & FLAG_MEMORY != 0
    }

    /// Every shared-memory access the instruction performs, in footprint
    /// terms — the single source of truth static analyses consume.
    ///
    /// The head access comes from the footprint table (authoritative even
    /// for [`Op::Fallback`] ranges, whose op carries no operands). The op
    /// range is then swept for any further memory-touching micro-op: the
    /// flat IR lowers every statement to at most one access today, so the
    /// sweep only de-duplicates the head, but it keeps this view a
    /// structural superset if fusion ever embeds a second access.
    pub fn accesses_of(&self, pc: InstrId) -> Vec<AbstractAccess> {
        let mut accesses = Vec::new();
        if let Some(head) = self.footprint(pc).access() {
            accesses.push(head);
        }
        for op in self.ops_of(pc) {
            if let Some(access) = op_access(op) {
                if !accesses.contains(&access) {
                    accesses.push(access);
                }
            }
        }
        accesses
    }

    /// All pcs flagged as shared-memory accesses (mirrors
    /// [`Program::memory_access_instrs`] as a flag-table scan).
    pub fn memory_access_pcs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, flag)| **flag & FLAG_MEMORY != 0)
            .map(|(index, _)| InstrId(index as u32))
    }

    /// A constant-pool entry.
    #[inline]
    pub fn pool_const(&self, index: u32) -> &Const {
        &self.pool[index as usize]
    }

    /// Number of inline-cache sites; an executor sizes its cache bank to
    /// this.
    pub fn cache_sites(&self) -> u32 {
        self.cache_sites
    }

    /// Maximum temporaries any single instruction uses; an executor sizes
    /// its temp bank to this.
    pub fn max_temps(&self) -> u32 {
        self.max_temps
    }

    /// Number of fused superinstructions (heads carrying a non-trivial
    /// [`RValue`]) — compile-quality stat, used by benches.
    pub fn fused_count(&self) -> u32 {
        self.fused
    }

    /// Total micro-op count.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// How many source instructions compiled to [`Op::Fallback`].
    pub fn fallback_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Fallback))
            .count()
    }
}

struct Compiler {
    ops: Vec<Op>,
    pool: Vec<Const>,
    temp_next: u32,
    max_temps: u32,
    cache_sites: u32,
    fused: u32,
}

impl Compiler {
    fn alloc_temp(&mut self) -> u32 {
        let temp = self.temp_next;
        self.temp_next += 1;
        self.max_temps = self.max_temps.max(self.temp_next);
        temp
    }

    fn alloc_cache(&mut self) -> u32 {
        let site = self.cache_sites;
        self.cache_sites += 1;
        site
    }

    fn const_operand(&mut self, constant: &Const) -> Operand {
        match constant {
            Const::Int(value) => Operand::Int(*value),
            Const::Bool(value) => Operand::Bool(*value),
            Const::Null => Operand::Null,
            Const::Str(_) => {
                // Pools are tiny; a linear dedupe scan beats a hash map.
                let index = self
                    .pool
                    .iter()
                    .position(|entry| entry == constant)
                    .unwrap_or_else(|| {
                        self.pool.push(constant.clone());
                        self.pool.len() - 1
                    });
                Operand::Pool(index as u32)
            }
        }
    }

    /// A `Const`/`Local` leaf as a direct operand, if it is one.
    fn leaf_operand(&mut self, expr: &crate::flat::PureExpr) -> Option<Operand> {
        use crate::flat::PureExpr;
        match expr {
            PureExpr::Const(constant) => Some(self.const_operand(constant)),
            PureExpr::Local(slot) => Some(Operand::Local(slot.0)),
            _ => None,
        }
    }

    /// Flattens `expr` fully, emitting [`Op::Expr`]s for interior nodes in
    /// tree-walk recursion order, and returns the operand holding its
    /// value.
    fn compile_expr(&mut self, expr: &crate::flat::PureExpr) -> Operand {
        use crate::flat::PureExpr;
        match expr {
            PureExpr::Const(constant) => self.const_operand(constant),
            PureExpr::Local(slot) => Operand::Local(slot.0),
            PureExpr::Unary { op, operand } => {
                let source = self.compile_expr(operand);
                let dst = self.alloc_temp();
                self.ops.push(Op::Expr {
                    dst,
                    rv: RValue::Un(*op, source),
                });
                Operand::Temp(dst)
            }
            PureExpr::Binary { op, lhs, rhs } => {
                let left = self.compile_expr(lhs);
                let right = self.compile_expr(rhs);
                let dst = self.alloc_temp();
                self.ops.push(Op::Expr {
                    dst,
                    rv: RValue::Bin(*op, left, right),
                });
                Operand::Temp(dst)
            }
            PureExpr::Len(inner) => {
                let source = self.compile_expr(inner);
                let dst = self.alloc_temp();
                self.ops.push(Op::Expr {
                    dst,
                    rv: RValue::Len(source),
                });
                Operand::Temp(dst)
            }
        }
    }

    /// Compiles `expr` into a head-carried [`RValue`], emitting pre-ops
    /// for sub-operands as needed. Only valid for heads whose tree-walk
    /// semantics evaluate `expr` *first* (`Assign`, `StoreGlobal`,
    /// `Branch`): pre-ops run before the head's own checks.
    fn head_rvalue(&mut self, expr: &crate::flat::PureExpr) -> RValue {
        use crate::flat::PureExpr;
        let rv = match expr {
            PureExpr::Unary { op, operand } => {
                let source = self.compile_expr(operand);
                RValue::Un(*op, source)
            }
            PureExpr::Binary { op, lhs, rhs } => {
                let left = self.compile_expr(lhs);
                let right = self.compile_expr(rhs);
                RValue::Bin(*op, left, right)
            }
            PureExpr::Len(inner) => {
                let source = self.compile_expr(inner);
                RValue::Len(source)
            }
            other => {
                let operand = self.compile_expr(other);
                return RValue::Op(operand);
            }
        };
        self.fused += 1;
        rv
    }

    /// Compiles `expr` into an [`RValue`] **without emitting any ops**, or
    /// `None` if it is too deep. Used by heads whose checks precede the
    /// operand's evaluation: carrying the whole computation inside the
    /// head keeps it at its tree-walk sequence point.
    fn no_ops_rvalue(&mut self, expr: &crate::flat::PureExpr) -> Option<RValue> {
        use crate::flat::PureExpr;
        let rv = match expr {
            PureExpr::Unary { op, operand } => {
                let source = self.leaf_operand(operand)?;
                RValue::Un(*op, source)
            }
            PureExpr::Binary { op, lhs, rhs } => {
                let left = self.leaf_operand(lhs)?;
                let right = self.leaf_operand(rhs)?;
                RValue::Bin(*op, left, right)
            }
            PureExpr::Len(inner) => {
                let source = self.leaf_operand(inner)?;
                RValue::Len(source)
            }
            other => RValue::Op(self.leaf_operand(other)?),
        };
        if !matches!(rv, RValue::Op(_)) {
            self.fused += 1;
        }
        Some(rv)
    }

    fn footprint_of(&mut self, instr: &Instr) -> Footprint {
        match instr {
            Instr::LoadGlobal { global, .. } => Footprint::Global {
                global: *global,
                is_write: false,
            },
            Instr::StoreGlobal { global, .. } => Footprint::Global {
                global: *global,
                is_write: true,
            },
            Instr::LoadField { obj, field, .. } => Footprint::Field {
                obj: *obj,
                field: *field,
                cache: self.alloc_cache(),
                is_write: false,
            },
            Instr::StoreField { obj, field, .. } => Footprint::Field {
                obj: *obj,
                field: *field,
                cache: self.alloc_cache(),
                is_write: true,
            },
            Instr::LoadElem { arr, idx, .. } => Footprint::Elem {
                arr: *arr,
                idx: footprint_idx(idx),
                is_write: false,
            },
            Instr::StoreElem { arr, idx, .. } => Footprint::Elem {
                arr: *arr,
                idx: footprint_idx(idx),
                is_write: true,
            },
            _ => Footprint::None,
        }
    }

    fn compile_instr(&mut self, instr: &Instr, footprint: &Footprint) {
        let head = match instr {
            Instr::Assign { dst, expr } => Op::Assign {
                dst: *dst,
                rv: self.head_rvalue(expr),
            },
            Instr::LoadGlobal { dst, global } => Op::LoadGlobal {
                dst: *dst,
                global: *global,
            },
            Instr::StoreGlobal { global, src } => Op::StoreGlobal {
                global: *global,
                rv: self.head_rvalue(src),
            },
            Instr::LoadField { dst, obj, field } => Op::LoadField {
                dst: *dst,
                obj: *obj,
                field: *field,
                cache: field_cache(footprint),
            },
            Instr::StoreField { obj, field, src } => match self.no_ops_rvalue(src) {
                Some(rv) => Op::StoreField {
                    obj: *obj,
                    field: *field,
                    cache: field_cache(footprint),
                    rv,
                },
                None => Op::Fallback,
            },
            Instr::LoadElem { dst, arr, idx } => match self.no_ops_rvalue(idx) {
                Some(idx) => Op::LoadElem {
                    dst: *dst,
                    arr: *arr,
                    idx,
                },
                None => Op::Fallback,
            },
            Instr::StoreElem { arr, idx, src } => {
                match (self.no_ops_rvalue(idx), self.no_ops_rvalue(src)) {
                    (Some(idx), Some(rv)) => Op::StoreElem { arr: *arr, idx, rv },
                    _ => Op::Fallback,
                }
            }
            Instr::Jump { target } => Op::Jump { target: *target },
            Instr::Branch {
                cond,
                if_true,
                if_false,
            } => Op::Branch {
                rv: self.head_rvalue(cond),
                if_true: *if_true,
                if_false: *if_false,
            },
            Instr::Nop => Op::Nop,
            // Synchronization, thread management, calls, allocation,
            // exceptions, and I/O: cold on padded-loop workloads, and their
            // tree-walk implementations are the semantics of record.
            _ => Op::Fallback,
        };
        if matches!(head, Op::Fallback) {
            // A fallback range must be the instruction's *only* op: the
            // tree-walker executes the instruction from scratch and never
            // reads the temporaries a pre-op would have written, so the
            // interpreter hands the range over without running any.
            self.ops.truncate(self.starts_boundary());
        }
        self.ops.push(head);
    }

    /// The op index at which the current instruction began. Only callable
    /// while compiling (the last pushed start).
    fn starts_boundary(&self) -> usize {
        // `compile_instr` runs immediately after `starts.push`, so the
        // boundary is wherever this instruction's first op went; pre-ops
        // are exactly the ops emitted since. Tracking it via length at
        // entry would need plumbing; instead scan back over the pre-ops,
        // which are always `Op::Expr`.
        let mut boundary = self.ops.len();
        while boundary > 0 && matches!(self.ops[boundary - 1], Op::Expr { .. }) {
            boundary -= 1;
        }
        boundary
    }
}

/// The access a single micro-op performs, if any. Element indices carried
/// as op [`RValue`]s map onto the same [`FootprintIdx`] modes the
/// footprint table uses, so op-derived and footprint-derived accesses of
/// one instruction compare equal.
fn op_access(op: &Op) -> Option<AbstractAccess> {
    let (place, is_write) = match op {
        Op::LoadGlobal { global, .. } => (AbstractPlace::Global(*global), false),
        Op::StoreGlobal { global, .. } => (AbstractPlace::Global(*global), true),
        Op::LoadField { obj, field, .. } => (
            AbstractPlace::Field {
                obj: *obj,
                field: *field,
            },
            false,
        ),
        Op::StoreField { obj, field, .. } => (
            AbstractPlace::Field {
                obj: *obj,
                field: *field,
            },
            true,
        ),
        Op::LoadElem { arr, idx, .. } => (
            AbstractPlace::Elem {
                arr: *arr,
                idx: rvalue_idx(idx),
            },
            false,
        ),
        Op::StoreElem { arr, idx, .. } => (
            AbstractPlace::Elem {
                arr: *arr,
                idx: rvalue_idx(idx),
            },
            true,
        ),
        _ => return None,
    };
    Some(AbstractAccess { place, is_write })
}

/// [`FootprintIdx`] mode of an element index carried inline in a head op.
fn rvalue_idx(idx: &RValue) -> FootprintIdx {
    match idx {
        RValue::Op(Operand::Int(value)) => FootprintIdx::Const(*value),
        RValue::Op(Operand::Local(slot)) => FootprintIdx::Local(LocalId(*slot)),
        _ => FootprintIdx::Expr,
    }
}

fn footprint_idx(idx: &crate::flat::PureExpr) -> FootprintIdx {
    use crate::flat::PureExpr;
    match idx {
        PureExpr::Const(Const::Int(value)) => FootprintIdx::Const(*value),
        PureExpr::Local(slot) => FootprintIdx::Local(*slot),
        _ => FootprintIdx::Expr,
    }
}

fn field_cache(footprint: &Footprint) -> u32 {
    match footprint {
        Footprint::Field { cache, .. } => *cache,
        _ => unreachable!("field instruction has a field footprint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(source: &str) -> (Program, CodeImage) {
        let program = crate::compile(source).expect("compiles");
        let image = CodeImage::compile(&program);
        (program, image)
    }

    fn head_of<'i>(program: &Program, image: &'i CodeImage, tag: &str) -> &'i Op {
        let pc = program.tagged(tag)[0];
        image.ops_of(pc).last().expect("non-empty range")
    }

    #[test]
    fn index_increment_fuses_to_one_op() {
        let (program, image) = image("proc main() { var i = 0; @inc i = i + 1; }");
        let pc = program.tagged("inc")[0];
        let ops = image.ops_of(pc);
        assert_eq!(ops.len(), 1, "i = i + 1 must be a single superinstruction");
        match &ops[0] {
            Op::Assign {
                rv: RValue::Bin(BinOp::Add, Operand::Local(_), Operand::Int(1)),
                ..
            } => {}
            other => panic!("expected fused assign, got {other:?}"),
        }
    }

    #[test]
    fn compare_and_branch_fuses() {
        let (program, image) = image("proc main() { var i = 0; while (i < 10) { i = i + 1; } }");
        let fused_branch = (0..program.instr_count()).any(|index| {
            image
                .ops_of(InstrId(index as u32))
                .last()
                .is_some_and(|op| {
                    matches!(
                        op,
                        Op::Branch {
                            rv: RValue::Bin(BinOp::Lt, _, _),
                            ..
                        }
                    )
                })
        });
        assert!(
            fused_branch,
            "while (i < 10) must compile to compare-and-branch"
        );
        assert!(image.fused_count() >= 2); // the branch and the increment
    }

    #[test]
    fn global_rmw_fuses_store_side() {
        let (program, image) = image("global x = 0; proc main() { @rmw x = x + 1; }");
        // x = x + 1 lowers to LoadGlobal-temp then StoreGlobal(temp + 1);
        // the store side must carry the binop inline (load-op-store).
        let accesses = program.tagged_accesses("rmw");
        assert_eq!(accesses.len(), 2);
        assert!(matches!(
            image.ops_of(accesses[0]).last(),
            Some(Op::LoadGlobal { .. })
        ));
        match image.ops_of(accesses[1]) {
            [Op::StoreGlobal {
                rv: RValue::Bin(BinOp::Add, _, _),
                ..
            }] => {}
            other => panic!("expected fused store-global, got {other:?}"),
        }
    }

    #[test]
    fn nested_expressions_flatten_in_recursion_order() {
        let (program, image) =
            image("proc main() { var a = 1; var b = 2; var c = 0; @deep c = (a + b) * (a - b); }");
        let pc = program.tagged("deep")[0];
        let ops = image.ops_of(pc);
        // (a + b) then (a - b) as Expr temps, then the fused Mul head.
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            Op::Expr {
                dst: 0,
                rv: RValue::Bin(BinOp::Add, _, _)
            }
        ));
        assert!(matches!(
            ops[1],
            Op::Expr {
                dst: 1,
                rv: RValue::Bin(BinOp::Sub, _, _)
            }
        ));
        assert!(matches!(
            ops[2],
            Op::Assign {
                rv: RValue::Bin(BinOp::Mul, Operand::Temp(0), Operand::Temp(1)),
                ..
            }
        ));
        assert!(image.max_temps() >= 2);
    }

    #[test]
    fn footprints_cover_all_memory_accesses() {
        let (program, image) = image(
            r#"
            class Point { x, y }
            global g = 0;
            global arr;
            proc main() {
                var p = new Point;
                arr = new [4];
                var ar = arr;
                var i = 1;
                @fw p.x = 5;
                @fr var a = p.x;
                @ew ar[i] = 7;
                @er var b = ar[i + 1];
                @gw g = a + b;
                @gr var c = g;
            }
            "#,
        );
        for pc in program.memory_access_instrs() {
            assert!(
                !matches!(image.footprint(pc), Footprint::None),
                "memory access {pc:?} must have a footprint"
            );
            assert!(image.is_memory_access(pc));
        }
        let fw = program.tagged_access("fw");
        assert!(matches!(
            image.footprint(fw),
            Footprint::Field { is_write: true, .. }
        ));
        let er = program.tagged_access("er");
        assert!(matches!(
            image.footprint(er),
            Footprint::Elem {
                idx: FootprintIdx::Expr,
                is_write: false,
                ..
            }
        ));
        let ew = program.tagged_access("ew");
        assert!(matches!(
            image.footprint(ew),
            Footprint::Elem {
                idx: FootprintIdx::Local(_),
                is_write: true,
                ..
            }
        ));
        let gr = program.tagged_access("gr");
        assert!(matches!(
            image.footprint(gr),
            Footprint::Global {
                is_write: false,
                ..
            }
        ));
    }

    #[test]
    fn field_ops_share_cache_sites_with_footprints() {
        let (program, image) = image(
            r#"
            class Cell { value }
            proc main() {
                var c = new Cell;
                @store c.value = 1;
                @load var v = c.value;
            }
            "#,
        );
        assert_eq!(image.cache_sites(), 2);
        for tag in ["store", "load"] {
            let pc = program.tagged_access(tag);
            let Footprint::Field { cache, .. } = *image.footprint(pc) else {
                panic!("field access has field footprint");
            };
            match head_of(&program, &image, tag) {
                Op::StoreField {
                    cache: op_cache, ..
                }
                | Op::LoadField {
                    cache: op_cache, ..
                } => {
                    assert_eq!(*op_cache, cache, "op and footprint share the site");
                }
                other => panic!("expected field op, got {other:?}"),
            }
        }
    }

    #[test]
    fn cold_instructions_fall_back_alone() {
        let (program, image) = image(
            r#"
            class Lock { }
            global l;
            proc work() { }
            proc main() {
                l = new Lock;
                sync (l) { var t = spawn work(); join t; }
            }
            "#,
        );
        for index in 0..program.instr_count() {
            let pc = InstrId(index as u32);
            let ops = image.ops_of(pc);
            if ops.iter().any(|op| matches!(op, Op::Fallback)) {
                assert_eq!(
                    ops.len(),
                    1,
                    "fallback must be the sole op of {pc:?} ({:?})",
                    program.instr(pc)
                );
            }
            match program.instr(pc) {
                Instr::Lock { .. }
                | Instr::Unlock { .. }
                | Instr::Spawn { .. }
                | Instr::Join { .. }
                | Instr::New { .. }
                | Instr::Call { .. }
                | Instr::Return { .. } => {
                    assert!(matches!(ops, [Op::Fallback]), "{pc:?} must fall back");
                }
                _ => {}
            }
        }
        assert!(image.fallback_count() > 0);
    }

    #[test]
    fn enabled_kinds_mark_lock_and_join() {
        let (program, image) = image(
            r#"
            class Lock { }
            global l;
            proc work() { }
            proc main() {
                l = new Lock;
                var m = l;
                lock m;
                unlock m;
                var t = spawn work();
                join t;
            }
            "#,
        );
        let mut locks = 0;
        let mut joins = 0;
        for index in 0..program.instr_count() {
            let pc = InstrId(index as u32);
            match (program.instr(pc), image.enabled_kind(pc)) {
                (Instr::Lock { obj, .. }, EnabledKind::Lock(slot)) => {
                    assert_eq!(slot, *obj);
                    locks += 1;
                }
                (Instr::Join { thread }, EnabledKind::Join(slot)) => {
                    assert_eq!(slot, *thread);
                    joins += 1;
                }
                (Instr::Lock { .. } | Instr::Join { .. }, kind) => {
                    panic!("{pc:?} has wrong enabled kind {kind:?}")
                }
                (_, EnabledKind::Plain) => {}
                (instr, kind) => panic!("{instr:?} has spurious kind {kind:?}"),
            }
            assert_eq!(image.is_sync(pc), program.instr(pc).is_sync_op());
        }
        assert_eq!((locks, joins), (1, 1));
    }

    #[test]
    fn string_constants_are_pooled_and_deduped() {
        let (program, image) = image(
            r#"
            global s;
            proc main() {
                s = "hello";
                var t = "hello";
                var u = "world";
                print t;
                print u;
            }
            "#,
        );
        let pooled = image.pool.len();
        assert_eq!(pooled, 2, "identical strings share one pool slot");
        assert!(program.instr_count() > 0);
    }

    #[test]
    fn accesses_of_agrees_with_footprints_and_ops() {
        let (program, image) = image(
            r#"
            class Point { x, y }
            global g = 0;
            global arr;
            proc main() {
                var p = new Point;
                arr = new [4];
                var ar = arr;
                var i = 1;
                @fw p.x = 5;
                @ew ar[i] = 7;
                @cplx ar[(i + 1) * 2] = 9;
                @c0 var a = ar[0];
                @gw g = a;
            }
            "#,
        );
        for pc in program.memory_access_instrs() {
            let accesses = image.accesses_of(pc);
            // One access per instruction (flat-IR invariant), and the op
            // sweep must agree with the footprint head, not add a second
            // divergent entry.
            assert_eq!(
                accesses.len(),
                1,
                "{pc:?} ({:?}) must have exactly one access, got {accesses:?}",
                program.instr(pc)
            );
            assert_eq!(Some(accesses[0]), image.footprint(pc).access());
        }
        // Non-accesses have empty access sets.
        for index in 0..program.instr_count() {
            let pc = InstrId(index as u32);
            if !image.is_memory_access(pc) {
                assert!(image.accesses_of(pc).is_empty());
            }
        }
        // The fallback range still reports its access from the footprint.
        let cplx = program.tagged_access("cplx");
        assert!(matches!(image.ops_of(cplx), [Op::Fallback]));
        assert!(matches!(
            image.accesses_of(cplx)[0],
            AbstractAccess {
                place: AbstractPlace::Elem {
                    idx: FootprintIdx::Expr,
                    ..
                },
                is_write: true,
            }
        ));
        // Constant-index mode survives into the view.
        let c0 = program.tagged_access("c0");
        assert!(matches!(
            image.accesses_of(c0)[0].place,
            AbstractPlace::Elem {
                idx: FootprintIdx::Const(0),
                ..
            }
        ));
        let pcs: Vec<_> = image.memory_access_pcs().collect();
        let expected: Vec<_> = program.memory_access_instrs().collect();
        assert_eq!(pcs, expected);
    }

    #[test]
    fn index_may_equal_refutes_distinct_constants_only() {
        use FootprintIdx::*;
        assert!(!Const(0).may_equal(Const(1)));
        assert!(Const(3).may_equal(Const(3)));
        assert!(Const(0).may_equal(Local(LocalId(2))));
        assert!(Local(LocalId(0)).may_equal(Local(LocalId(0))));
        assert!(Expr.may_equal(Const(5)));
    }

    #[test]
    fn may_alias_with_separates_place_kinds_and_indices() {
        let field_x = AbstractAccess {
            place: AbstractPlace::Field {
                obj: LocalId(0),
                field: Symbol(0),
            },
            is_write: true,
        };
        let global = AbstractAccess {
            place: AbstractPlace::Global(GlobalId(0)),
            is_write: true,
        };
        // Different kinds never alias, whatever the base oracle says.
        assert!(!field_x.may_alias_with(&global, |_, _| true));
        // Field aliasing needs both the name match and base overlap.
        assert!(field_x.may_alias_with(&field_x, |_, _| true));
        assert!(!field_x.may_alias_with(&field_x, |_, _| false));
        let elem = |idx| AbstractAccess {
            place: AbstractPlace::Elem {
                arr: LocalId(1),
                idx,
            },
            is_write: false,
        };
        assert!(!elem(FootprintIdx::Const(0))
            .may_alias_with(&elem(FootprintIdx::Const(1)), |_, _| true));
        assert!(
            elem(FootprintIdx::Const(0)).may_alias_with(&elem(FootprintIdx::Const(0)), |_, _| true)
        );
        assert!(elem(FootprintIdx::Const(0))
            .may_alias_with(&elem(FootprintIdx::Local(LocalId(9))), |_, _| true));
    }

    #[test]
    fn try_compile_accepts_normal_programs() {
        let program = crate::compile("proc main() { var i = 0; i = i + 1; }").expect("compiles");
        let image = CodeImage::try_compile(&program).expect("fits in u32 space");
        assert!(image.op_count() > 0);
        let error = ImageLimitError {
            ops: usize::MAX,
            at: InstrId(7),
        };
        let message = error.to_string();
        assert!(message.contains("too large"), "got: {message}");
        assert!(message.contains("instruction 7"), "got: {message}");
    }

    #[test]
    fn complex_store_elem_falls_back() {
        let (program, image) = image(
            r#"
            global arr;
            proc main() {
                arr = new [4];
                var a = arr;
                var i = 0;
                @cplx a[(i + 1) * 2] = 3;
            }
            "#,
        );
        let pc = program.tagged_access("cplx");
        assert!(
            matches!(image.ops_of(pc), [Op::Fallback]),
            "nested index expression must fall back to preserve check order"
        );
        // The footprint still resolves via the original expression.
        assert!(matches!(
            image.footprint(pc),
            Footprint::Elem {
                idx: FootprintIdx::Expr,
                is_write: true,
                ..
            }
        ));
    }
}
