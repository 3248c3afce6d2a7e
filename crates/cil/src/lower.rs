//! Lowering from the structured AST to the flat IR.
//!
//! The pass establishes the two invariants the dynamic analyses rely on:
//!
//! 1. **At most one shared access per instruction.** Every global, field,
//!    and array read inside an expression is hoisted into its own
//!    `Load*` instruction targeting a fresh temporary; every shared write is
//!    its own `Store*` instruction. This realises the paper's 3-address-code
//!    assumption (§2.1).
//! 2. **Pure addresses.** The operands that *locate* a shared access (object
//!    reference slots, index expressions) are [`PureExpr`]s over locals, so
//!    the interpreter can compute the memory location an instruction *would*
//!    touch without running it — the primitive RaceFuzzer's `Racing` check
//!    (Algorithm 2) is built on.
//!
//! Shared reads are emitted left-to-right in Java evaluation order, and for
//! assignments the target address is computed before the right-hand side.

use crate::ast::{
    self, Block, CatchFilter, Expr, ExprKind, LValue, Literal, Module, Rhs, StmtKind,
};
use crate::check::ModuleInfo;
use crate::flat::*;
use crate::intern::Interner;
use crate::span::Span;
use std::collections::HashMap;
use std::sync::Arc;

/// Lowers a checked module. Infallible: the checker has already rejected
/// every malformed input.
pub fn lower_module(module: &Module, info: &ModuleInfo) -> Program {
    let mut interner = Interner::new();
    let builtins = BuiltinExceptions::intern(&mut interner);

    let classes: Vec<ClassInfo> = module
        .classes
        .iter()
        .map(|class| ClassInfo {
            name: interner.intern(&class.name),
            fields: class
                .fields
                .iter()
                .map(|field| interner.intern(field))
                .collect(),
        })
        .collect();

    let globals: Vec<GlobalInfo> = module
        .globals
        .iter()
        .map(|global| GlobalInfo {
            name: interner.intern(&global.name),
            init: global
                .init
                .as_ref()
                .map(literal_to_const)
                .unwrap_or(Const::Null),
        })
        .collect();

    // Intern proc names up front so calls can reference later procs.
    for proc in &module.procs {
        interner.intern(&proc.name);
    }

    let mut lowerer = Lowerer {
        info,
        interner,
        instrs: Vec::new(),
        spans: Vec::new(),
        tags: HashMap::new(),
        locals: Vec::new(),
        scopes: Vec::new(),
        temp_count: 0,
    };

    let mut procs = Vec::with_capacity(module.procs.len());
    for proc in &module.procs {
        procs.push(lowerer.lower_proc(proc));
    }

    Program {
        interner: lowerer.interner,
        classes,
        globals,
        procs,
        instrs: lowerer.instrs,
        spans: lowerer.spans,
        tags: lowerer.tags,
        builtins,
        bytecode: std::sync::OnceLock::new(),
    }
}

fn literal_to_const(literal: &Literal) -> Const {
    match literal {
        Literal::Int(value) => Const::Int(*value),
        Literal::Bool(value) => Const::Bool(*value),
        Literal::Str(text) => Const::Str(Arc::from(text.as_str())),
        Literal::Null => Const::Null,
    }
}

/// Placeholder jump target, patched before the enclosing proc is finished.
const PENDING: InstrId = InstrId(u32::MAX);

struct Lowerer<'a> {
    info: &'a ModuleInfo,
    interner: Interner,
    instrs: Vec<Instr>,
    spans: Vec<Span>,
    tags: HashMap<String, Vec<InstrId>>,
    // Per-proc state:
    locals: Vec<Arc<str>>,
    scopes: Vec<HashMap<String, LocalId>>,
    temp_count: usize,
}

/// A lowered assignment target whose address parts are already evaluated.
enum TargetAddr {
    Local(LocalId),
    Global(GlobalId),
    Field(LocalId, crate::intern::Symbol),
    Elem(LocalId, PureExpr),
}

impl Lowerer<'_> {
    fn lower_proc(&mut self, proc: &ast::ProcDecl) -> ProcInfo {
        self.locals = Vec::new();
        self.scopes = vec![HashMap::new()];
        self.temp_count = 0;

        for param in &proc.params {
            let id = self.new_local(param);
            self.scopes
                .last_mut()
                .expect("scope stack is never empty")
                .insert(param.clone(), id);
        }

        let entry = self.next_id();
        self.lower_block(&proc.body);
        self.emit(Instr::Return { value: None }, proc.span);
        let end = self.next_id();

        ProcInfo {
            name: self
                .interner
                .lookup(&proc.name)
                .expect("proc names are pre-interned"),
            param_count: proc.params.len(),
            local_names: std::mem::take(&mut self.locals),
            entry,
            end,
        }
    }

    fn next_id(&self) -> InstrId {
        InstrId(self.instrs.len() as u32)
    }

    fn emit(&mut self, instr: Instr, span: Span) -> InstrId {
        let id = self.next_id();
        self.instrs.push(instr);
        self.spans.push(span);
        id
    }

    fn new_local(&mut self, name: &str) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Arc::from(name));
        id
    }

    fn new_temp(&mut self) -> LocalId {
        let name = format!("$t{}", self.temp_count);
        self.temp_count += 1;
        self.new_local(&name)
    }

    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    fn global_id(&self, name: &str) -> GlobalId {
        GlobalId(self.info.global_indices[name] as u32)
    }

    fn proc_id(&self, name: &str) -> ProcId {
        ProcId(self.info.proc_indices[name] as u32)
    }

    fn patch_jump(&mut self, id: InstrId, target: InstrId) {
        match &mut self.instrs[id.index()] {
            Instr::Jump {
                target: slot @ PENDING,
            } => *slot = target,
            other => panic!("patch_jump on non-pending instruction {other:?}"),
        }
    }

    fn patch_branch_true(&mut self, id: InstrId, target: InstrId) {
        match &mut self.instrs[id.index()] {
            Instr::Branch {
                if_true: slot @ PENDING,
                ..
            } => *slot = target,
            other => panic!("patch_branch_true on non-pending instruction {other:?}"),
        }
    }

    fn patch_branch_false(&mut self, id: InstrId, target: InstrId) {
        match &mut self.instrs[id.index()] {
            Instr::Branch {
                if_false: slot @ PENDING,
                ..
            } => *slot = target,
            other => panic!("patch_branch_false on non-pending instruction {other:?}"),
        }
    }

    fn patch_try_handler(&mut self, id: InstrId, target: InstrId) {
        match &mut self.instrs[id.index()] {
            Instr::EnterTry {
                handler: slot @ PENDING,
                ..
            } => *slot = target,
            other => panic!("patch_try_handler on non-pending instruction {other:?}"),
        }
    }

    fn lower_block(&mut self, block: &Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            let first = self.next_id();
            self.lower_stmt(stmt);
            if let Some(tag) = &stmt.tag {
                let last = self.next_id();
                let ids = (first.0..last.0).map(InstrId).collect::<Vec<_>>();
                self.tags.entry(tag.clone()).or_default().extend(ids);
            }
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, stmt: &ast::Stmt) {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::VarDecl { name, init } => {
                // Initializer is lowered *before* the name becomes visible.
                match init {
                    Some(init) => {
                        let value = self.lower_rhs_to_pure(init, span);
                        let id = self.new_local(name);
                        self.scopes
                            .last_mut()
                            .expect("scope stack is never empty")
                            .insert(name.clone(), id);
                        self.emit(
                            Instr::Assign {
                                dst: id,
                                expr: value,
                            },
                            span,
                        );
                    }
                    None => {
                        let id = self.new_local(name);
                        self.scopes
                            .last_mut()
                            .expect("scope stack is never empty")
                            .insert(name.clone(), id);
                        self.emit(
                            Instr::Assign {
                                dst: id,
                                expr: PureExpr::Const(Const::Null),
                            },
                            span,
                        );
                    }
                }
            }
            StmtKind::Assign { target, value } => match target {
                Some(target) => {
                    let addr = self.lower_target_addr(target);
                    let value = self.lower_rhs_to_pure(value, span);
                    self.emit_store(addr, value, span);
                }
                None => {
                    // Bare call/spawn (or a discarded expression).
                    match value {
                        Rhs::Call { proc, args, .. } => {
                            let args = self.lower_args(args);
                            let proc = self.proc_id(proc);
                            self.emit(
                                Instr::Call {
                                    dst: None,
                                    proc,
                                    args,
                                },
                                span,
                            );
                        }
                        Rhs::Spawn { proc, args, .. } => {
                            let args = self.lower_args(args);
                            let proc = self.proc_id(proc);
                            self.emit(
                                Instr::Spawn {
                                    dst: None,
                                    proc,
                                    args,
                                },
                                span,
                            );
                        }
                        other => {
                            // Evaluate for effect (shared loads still happen).
                            let _ = self.lower_rhs_to_pure(other, span);
                        }
                    }
                }
            },
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.lower_expr(cond);
                let branch = self.emit(
                    Instr::Branch {
                        cond,
                        if_true: PENDING,
                        if_false: PENDING,
                    },
                    span,
                );
                let then_start = self.next_id();
                self.patch_branch_true(branch, then_start);
                self.lower_block(then_branch);
                match else_branch {
                    Some(else_branch) => {
                        let skip_else = self.emit(Instr::Jump { target: PENDING }, span);
                        let else_start = self.next_id();
                        self.patch_branch_false(branch, else_start);
                        self.lower_block(else_branch);
                        let end = self.next_id();
                        self.patch_jump(skip_else, end);
                    }
                    None => {
                        let end = self.next_id();
                        self.patch_branch_false(branch, end);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let loop_start = self.next_id();
                let cond = self.lower_expr(cond);
                let branch = self.emit(
                    Instr::Branch {
                        cond,
                        if_true: PENDING,
                        if_false: PENDING,
                    },
                    span,
                );
                let body_start = self.next_id();
                self.patch_branch_true(branch, body_start);
                self.lower_block(body);
                self.emit(Instr::Jump { target: loop_start }, span);
                let end = self.next_id();
                self.patch_branch_false(branch, end);
            }
            StmtKind::Sync { obj, body } => {
                let obj = self.lower_expr_to_local(obj);
                self.emit(Instr::Lock { obj, monitor: true }, span);
                self.lower_block(body);
                self.emit(Instr::Unlock { obj, monitor: true }, span);
            }
            StmtKind::Lock(expr) => {
                let obj = self.lower_expr_to_local(expr);
                self.emit(
                    Instr::Lock {
                        obj,
                        monitor: false,
                    },
                    span,
                );
            }
            StmtKind::Unlock(expr) => {
                let obj = self.lower_expr_to_local(expr);
                self.emit(
                    Instr::Unlock {
                        obj,
                        monitor: false,
                    },
                    span,
                );
            }
            StmtKind::Wait(expr) => {
                let obj = self.lower_expr_to_local(expr);
                self.emit(Instr::Wait { obj }, span);
            }
            StmtKind::Notify(expr) => {
                let obj = self.lower_expr_to_local(expr);
                self.emit(Instr::Notify { obj }, span);
            }
            StmtKind::NotifyAll(expr) => {
                let obj = self.lower_expr_to_local(expr);
                self.emit(Instr::NotifyAll { obj }, span);
            }
            StmtKind::Join(expr) => {
                let thread = self.lower_expr_to_local(expr);
                self.emit(Instr::Join { thread }, span);
            }
            StmtKind::Interrupt(expr) => {
                let thread = self.lower_expr_to_local(expr);
                self.emit(Instr::Interrupt { thread }, span);
            }
            StmtKind::Sleep(expr) => {
                let duration = self.lower_expr(expr);
                self.emit(Instr::Sleep { duration }, span);
            }
            StmtKind::Assert { cond, message } => {
                let cond = self.lower_expr(cond);
                let message: Arc<str> = Arc::from(message.as_deref().unwrap_or("assertion failed"));
                self.emit(Instr::Assert { cond, message }, span);
            }
            StmtKind::Throw { exception, message } => {
                let exception = self.interner.intern(exception);
                let message = message.as_deref().map(Arc::from);
                self.emit(Instr::Throw { exception, message }, span);
            }
            StmtKind::Try {
                body,
                filter,
                handler,
            } => {
                let catches = match filter {
                    CatchFilter::All => CatchKinds::All,
                    CatchFilter::Named(names) => CatchKinds::Named(
                        names
                            .iter()
                            .map(|name| self.interner.intern(name))
                            .collect(),
                    ),
                };
                let enter = self.emit(
                    Instr::EnterTry {
                        handler: PENDING,
                        catches,
                    },
                    span,
                );
                self.lower_block(body);
                self.emit(Instr::ExitTry, span);
                let skip_handler = self.emit(Instr::Jump { target: PENDING }, span);
                let handler_start = self.next_id();
                self.patch_try_handler(enter, handler_start);
                self.lower_block(handler);
                let end = self.next_id();
                self.patch_jump(skip_handler, end);
            }
            StmtKind::Return(value) => {
                let value = value.as_ref().map(|value| self.lower_expr(value));
                self.emit(Instr::Return { value }, span);
            }
            StmtKind::Print(value) => {
                let value = value.as_ref().map(|value| self.lower_expr(value));
                self.emit(Instr::Print { value }, span);
            }
            StmtKind::Nop => {
                self.emit(Instr::Nop, span);
            }
        }
    }

    fn lower_args(&mut self, args: &[Expr]) -> Vec<PureExpr> {
        args.iter().map(|arg| self.lower_expr(arg)).collect()
    }

    fn lower_target_addr(&mut self, target: &LValue) -> TargetAddr {
        match target {
            LValue::Name(name, _) => match self.lookup_local(name) {
                Some(local) => TargetAddr::Local(local),
                None => TargetAddr::Global(self.global_id(name)),
            },
            LValue::Field { obj, field } => {
                let obj = self.lower_expr_to_local(obj);
                let field = self.interner.intern(field);
                TargetAddr::Field(obj, field)
            }
            LValue::Index { arr, index } => {
                let arr = self.lower_expr_to_local(arr);
                let index = self.lower_expr(index);
                TargetAddr::Elem(arr, index)
            }
        }
    }

    fn emit_store(&mut self, addr: TargetAddr, value: PureExpr, span: Span) {
        match addr {
            TargetAddr::Local(dst) => {
                self.emit(Instr::Assign { dst, expr: value }, span);
            }
            TargetAddr::Global(global) => {
                self.emit(Instr::StoreGlobal { global, src: value }, span);
            }
            TargetAddr::Field(obj, field) => {
                self.emit(
                    Instr::StoreField {
                        obj,
                        field,
                        src: value,
                    },
                    span,
                );
            }
            TargetAddr::Elem(arr, idx) => {
                self.emit(
                    Instr::StoreElem {
                        arr,
                        idx,
                        src: value,
                    },
                    span,
                );
            }
        }
    }

    /// Lowers a right-hand side to a pure expression, emitting any loads,
    /// allocations, spawns, or calls it needs.
    fn lower_rhs_to_pure(&mut self, rhs: &Rhs, span: Span) -> PureExpr {
        match rhs {
            Rhs::Expr(expr) => self.lower_expr(expr),
            Rhs::New { class, .. } => {
                let dst = self.new_temp();
                let class = ClassId(self.info.class_indices[class] as u32);
                self.emit(Instr::New { dst, class }, span);
                PureExpr::Local(dst)
            }
            Rhs::NewArray { len, .. } => {
                let len = self.lower_expr(len);
                let dst = self.new_temp();
                self.emit(Instr::NewArray { dst, len }, span);
                PureExpr::Local(dst)
            }
            Rhs::Spawn { proc, args, .. } => {
                let args = self.lower_args(args);
                let proc = self.proc_id(proc);
                let dst = self.new_temp();
                self.emit(
                    Instr::Spawn {
                        dst: Some(dst),
                        proc,
                        args,
                    },
                    span,
                );
                PureExpr::Local(dst)
            }
            Rhs::Call { proc, args, .. } => {
                let args = self.lower_args(args);
                let proc = self.proc_id(proc);
                let dst = self.new_temp();
                self.emit(
                    Instr::Call {
                        dst: Some(dst),
                        proc,
                        args,
                    },
                    span,
                );
                PureExpr::Local(dst)
            }
        }
    }

    /// Lowers an expression to a [`PureExpr`], hoisting every shared read
    /// into its own `Load*` instruction.
    fn lower_expr(&mut self, expr: &Expr) -> PureExpr {
        match &expr.kind {
            ExprKind::Literal(literal) => PureExpr::Const(literal_to_const(literal)),
            ExprKind::Name(name) => match self.lookup_local(name) {
                Some(local) => PureExpr::Local(local),
                None => {
                    let global = self.global_id(name);
                    let dst = self.new_temp();
                    self.emit(Instr::LoadGlobal { dst, global }, expr.span);
                    PureExpr::Local(dst)
                }
            },
            ExprKind::Field { obj, field } => {
                let obj = self.lower_expr_to_local(obj);
                let field = self.interner.intern(field);
                let dst = self.new_temp();
                self.emit(Instr::LoadField { dst, obj, field }, expr.span);
                PureExpr::Local(dst)
            }
            ExprKind::Index { arr, index } => {
                let arr = self.lower_expr_to_local(arr);
                let idx = self.lower_expr(index);
                let dst = self.new_temp();
                self.emit(Instr::LoadElem { dst, arr, idx }, expr.span);
                PureExpr::Local(dst)
            }
            ExprKind::Unary { op, operand } => {
                let operand = self.lower_expr(operand);
                PureExpr::Unary {
                    op: *op,
                    operand: Box::new(operand),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lhs = self.lower_expr(lhs);
                let rhs = self.lower_expr(rhs);
                PureExpr::Binary {
                    op: *op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            }
            ExprKind::Len(inner) => {
                let inner = self.lower_expr(inner);
                PureExpr::Len(Box::new(inner))
            }
        }
    }

    /// Lowers an expression and makes sure the result sits in a local slot
    /// (needed for address operands of shared accesses and sync objects).
    fn lower_expr_to_local(&mut self, expr: &Expr) -> LocalId {
        match self.lower_expr(expr) {
            PureExpr::Local(local) => local,
            pure => {
                let dst = self.new_temp();
                self.emit(Instr::Assign { dst, expr: pure }, expr.span);
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Program};

    fn compile_ok(source: &str) -> Program {
        compile(source).expect("test source should compile")
    }

    fn instrs_of<'p>(program: &'p Program, proc: &str) -> &'p [Instr] {
        let id = program.proc_named(proc).unwrap();
        let info = &program.procs[id.index()];
        &program.instrs[info.entry.index()..info.end.index()]
    }

    #[test]
    fn one_shared_access_per_instruction() {
        let program = compile_ok(
            r#"
            class P { a, b }
            global g = 0;
            proc main() {
                var p = new P;
                g = p.a + p.b + g;
                p.a = g * 2;
            }
            "#,
        );
        // Invariant: no instruction embeds more than one shared access.
        // By construction Load*/Store* are the only access instructions, and
        // each touches exactly one location.
        let accesses = program.memory_access_instrs().count();
        assert_eq!(accesses, 6); // loads: p.a, p.b, g, g  stores: g, p.a
    }

    #[test]
    fn implicit_return_is_appended() {
        let program = compile_ok("proc main() { nop; }");
        let code = instrs_of(&program, "main");
        assert!(matches!(code.last(), Some(Instr::Return { value: None })));
    }

    #[test]
    fn while_loop_jumps_back_to_condition_loads() {
        let program = compile_ok(
            r#"
            global flag = true;
            proc main() {
                while (flag) { nop; }
            }
            "#,
        );
        let code = instrs_of(&program, "main");
        // Expected shape: LoadGlobal, Branch, Nop, Jump(back to load), Return.
        assert!(matches!(code[0], Instr::LoadGlobal { .. }));
        let Instr::Branch {
            if_true, if_false, ..
        } = &code[1]
        else {
            panic!("expected branch, got {:?}", code[1]);
        };
        assert!(if_true.index() > 0 && if_false.index() > 0, "patched");
        let Instr::Jump { target } = &code[3] else {
            panic!("expected jump, got {:?}", code[3]);
        };
        // The jump must return to the *load*, so the condition re-reads the
        // global on every iteration (this is what makes spin-loops racy).
        assert_eq!(target.index(), 0);
    }

    #[test]
    fn sync_lowers_to_monitor_lock_unlock() {
        let program = compile_ok(
            r#"
            global l;
            proc main() { sync (l) { nop; } }
            "#,
        );
        let code = instrs_of(&program, "main");
        assert!(
            matches!(code[1], Instr::Lock { monitor: true, .. }),
            "got {:?}",
            code[1]
        );
        assert!(matches!(code[3], Instr::Unlock { monitor: true, .. }));
    }

    #[test]
    fn raw_lock_is_not_monitor() {
        let program = compile_ok(
            r#"
            global l;
            proc main() { lock l; unlock l; }
            "#,
        );
        let code = instrs_of(&program, "main");
        assert!(matches!(code[1], Instr::Lock { monitor: false, .. }));
        assert!(matches!(code[3], Instr::Unlock { monitor: false, .. }));
    }

    #[test]
    fn tags_attach_to_lowered_instructions() {
        let program = compile_ok(
            r#"
            global z = 0;
            proc main() {
                @the_write z = 1;
                @the_read var v = z;
            }
            "#,
        );
        let write = program.tagged_access("the_write");
        let read = program.tagged_access("the_read");
        assert!(program.instr(write).is_memory_write());
        assert!(!program.instr(read).is_memory_write());
        assert!(program.instr(read).is_memory_access());
    }

    #[test]
    #[should_panic(expected = "covers no shared-memory access")]
    fn tagged_access_panics_on_pure_statement() {
        let program = compile_ok("proc main() { @pure var x = 1; }");
        program.tagged_access("pure");
    }

    #[test]
    fn try_catch_lowering_shape() {
        let program = compile_ok(
            r#"
            proc main() {
                try { throw Boom; } catch (Boom) { print "caught"; }
            }
            "#,
        );
        let code = instrs_of(&program, "main");
        let Instr::EnterTry { handler, catches } = &code[0] else {
            panic!("expected EnterTry, got {:?}", code[0]);
        };
        assert_ne!(handler.0, u32::MAX, "handler target patched");
        let boom = program.interner.lookup("Boom").unwrap();
        assert!(catches.matches(boom));
        assert!(matches!(code[1], Instr::Throw { .. }));
        assert!(matches!(code[2], Instr::ExitTry));
    }

    #[test]
    fn spawn_and_call_lower_with_destinations() {
        let program = compile_ok(
            r#"
            proc worker(n) { return n; }
            proc main() {
                var t = spawn worker(1);
                var r = worker(2);
                worker(3);
                join t;
            }
            "#,
        );
        let code = instrs_of(&program, "main");
        assert!(matches!(code[0], Instr::Spawn { dst: Some(_), .. }));
        let call_instrs: Vec<_> = code
            .iter()
            .filter(|instr| matches!(instr, Instr::Call { .. }))
            .collect();
        assert_eq!(call_instrs.len(), 2);
        assert!(matches!(call_instrs[0], Instr::Call { dst: Some(_), .. }));
        assert!(matches!(call_instrs[1], Instr::Call { dst: None, .. }));
    }

    #[test]
    fn assignment_evaluates_target_address_before_rhs() {
        let program = compile_ok(
            r#"
            class C { f }
            global a;
            global b = 7;
            proc main() {
                a.f = b;
            }
            "#,
        );
        let code = instrs_of(&program, "main");
        // Loads `a` (address) before `b` (value), then stores.
        assert!(matches!(code[0], Instr::LoadGlobal { .. }));
        assert!(matches!(code[1], Instr::LoadGlobal { .. }));
        assert!(matches!(code[2], Instr::StoreField { .. }));
    }

    #[test]
    fn locals_resolve_innermost_scope() {
        let program = compile_ok(
            r#"
            global x = 10;
            proc main() {
                var y = x;      // reads the global
                if (true) { var x = 1; y = x; }  // reads the local
                y = x;          // reads the global again
            }
            "#,
        );
        let loads = instrs_of(&program, "main")
            .iter()
            .filter(|instr| matches!(instr, Instr::LoadGlobal { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn every_instruction_has_a_span() {
        let program = compile_ok(
            r#"
            global g;
            proc main() { g = 1; if (g == 1) { nop; } }
            "#,
        );
        assert_eq!(program.instrs.len(), program.spans.len());
    }
}
