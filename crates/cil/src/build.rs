//! Programmatic AST construction.
//!
//! Most workloads are written as CIL source text, but parameterised
//! programs — e.g. the paper's Figure 2 with a configurable number of
//! padding statements — are easier to synthesise directly. The
//! [`ProgramBuilder`] assembles a [`Module`]; the [`dsl`] helpers build
//! statements and expressions with [`Span::SYNTHETIC`] positions.
//!
//! # Examples
//!
//! ```
//! use cil::build::{dsl::*, ProgramBuilder};
//!
//! let mut builder = ProgramBuilder::new();
//! builder.global_init("x", cil::ast::Literal::Int(0));
//! builder.proc_decl(
//!     "main",
//!     [],
//!     block([
//!         tag("write_x", assign_name("x", int(1))),
//!         print(Some(name("x"))),
//!     ]),
//! );
//! let program = builder.compile().unwrap();
//! assert!(program.tagged("write_x").len() == 1);
//! ```

use crate::ast::*;
use crate::error::Error;
use crate::span::Span;

/// Incrementally assembles a [`Module`].
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    module: Module,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class declaration.
    pub fn class<'f>(
        &mut self,
        name: &str,
        fields: impl IntoIterator<Item = &'f str>,
    ) -> &mut Self {
        self.module.classes.push(ClassDecl {
            name: name.to_owned(),
            fields: fields.into_iter().map(str::to_owned).collect(),
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Adds a global initialised to `null`.
    pub fn global(&mut self, name: &str) -> &mut Self {
        self.module.globals.push(GlobalDecl {
            name: name.to_owned(),
            init: None,
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Adds a global with an initial value.
    pub fn global_init(&mut self, name: &str, init: Literal) -> &mut Self {
        self.module.globals.push(GlobalDecl {
            name: name.to_owned(),
            init: Some(init),
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Adds a procedure.
    pub fn proc_decl<'p>(
        &mut self,
        name: &str,
        params: impl IntoIterator<Item = &'p str>,
        body: Block,
    ) -> &mut Self {
        self.module.procs.push(ProcDecl {
            name: name.to_owned(),
            params: params.into_iter().map(str::to_owned).collect(),
            body,
            span: Span::SYNTHETIC,
        });
        self
    }

    /// Returns the assembled module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Checks and lowers the assembled module.
    ///
    /// # Errors
    ///
    /// Returns checking errors (unknown names, arity mismatches, …).
    pub fn compile(self) -> Result<crate::flat::Program, Error> {
        crate::compile_module(&self.module)
    }
}

/// Constructor helpers for synthetic AST nodes.
pub mod dsl {
    use super::*;

    const S: Span = Span::SYNTHETIC;

    /// A block of statements.
    pub fn block(stmts: impl IntoIterator<Item = Stmt>) -> Block {
        Block {
            stmts: stmts.into_iter().collect(),
        }
    }

    /// Attaches a `@tag` to a statement.
    pub fn tag(tag: &str, mut stmt: Stmt) -> Stmt {
        stmt.tag = Some(tag.to_owned());
        stmt
    }

    /// `var name = rhs;`
    pub fn var(name: &str, init: Rhs) -> Stmt {
        Stmt::new(
            StmtKind::VarDecl {
                name: name.to_owned(),
                init: Some(init),
            },
            S,
        )
    }

    /// `var name;`
    pub fn var_uninit(name: &str) -> Stmt {
        Stmt::new(
            StmtKind::VarDecl {
                name: name.to_owned(),
                init: None,
            },
            S,
        )
    }

    /// `name = expr;`
    pub fn assign_name(name: &str, value: Expr) -> Stmt {
        Stmt::new(
            StmtKind::Assign {
                target: Some(LValue::Name(name.to_owned(), S)),
                value: Rhs::Expr(value),
            },
            S,
        )
    }

    /// `obj.field = expr;`
    pub fn assign_field(obj: Expr, field: &str, value: Expr) -> Stmt {
        Stmt::new(
            StmtKind::Assign {
                target: Some(LValue::Field {
                    obj,
                    field: field.to_owned(),
                }),
                value: Rhs::Expr(value),
            },
            S,
        )
    }

    /// `arr[index] = expr;`
    pub fn assign_elem(arr: Expr, index: Expr, value: Expr) -> Stmt {
        Stmt::new(
            StmtKind::Assign {
                target: Some(LValue::Index { arr, index }),
                value: Rhs::Expr(value),
            },
            S,
        )
    }

    /// `target = rhs;` with a general right-hand side.
    pub fn assign_rhs(name: &str, value: Rhs) -> Stmt {
        Stmt::new(
            StmtKind::Assign {
                target: Some(LValue::Name(name.to_owned(), S)),
                value,
            },
            S,
        )
    }

    /// `if (cond) { then_branch } else { else_branch }`
    pub fn if_else(cond: Expr, then_branch: Block, else_branch: Block) -> Stmt {
        Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch: Some(else_branch),
            },
            S,
        )
    }

    /// `if (cond) { then_branch }`
    pub fn if_(cond: Expr, then_branch: Block) -> Stmt {
        Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch: None,
            },
            S,
        )
    }

    /// `while (cond) { body }`
    pub fn while_(cond: Expr, body: Block) -> Stmt {
        Stmt::new(StmtKind::While { cond, body }, S)
    }

    /// `sync (obj) { body }`
    pub fn sync(obj: Expr, body: Block) -> Stmt {
        Stmt::new(StmtKind::Sync { obj, body }, S)
    }

    /// `lock obj;`
    pub fn lock(obj: Expr) -> Stmt {
        Stmt::new(StmtKind::Lock(obj), S)
    }

    /// `unlock obj;`
    pub fn unlock(obj: Expr) -> Stmt {
        Stmt::new(StmtKind::Unlock(obj), S)
    }

    /// `wait obj;`
    pub fn wait(obj: Expr) -> Stmt {
        Stmt::new(StmtKind::Wait(obj), S)
    }

    /// `notify obj;`
    pub fn notify(obj: Expr) -> Stmt {
        Stmt::new(StmtKind::Notify(obj), S)
    }

    /// `join t;`
    pub fn join(thread: Expr) -> Stmt {
        Stmt::new(StmtKind::Join(thread), S)
    }

    /// `return e?;`
    pub fn ret(value: Option<Expr>) -> Stmt {
        Stmt::new(StmtKind::Return(value), S)
    }

    /// `print e?;`
    pub fn print(value: Option<Expr>) -> Stmt {
        Stmt::new(StmtKind::Print(value), S)
    }

    /// `nop;`
    pub fn nop() -> Stmt {
        Stmt::new(StmtKind::Nop, S)
    }

    /// `throw Name;`
    pub fn throw(exception: &str) -> Stmt {
        Stmt::new(
            StmtKind::Throw {
                exception: exception.to_owned(),
                message: None,
            },
            S,
        )
    }

    /// `spawn proc(args…)` as an [`Rhs`].
    pub fn spawn(proc: &str, args: impl IntoIterator<Item = Expr>) -> Rhs {
        Rhs::Spawn {
            proc: proc.to_owned(),
            args: args.into_iter().collect(),
            span: S,
        }
    }

    /// `proc(args…)` as an [`Rhs`].
    pub fn call(proc: &str, args: impl IntoIterator<Item = Expr>) -> Rhs {
        Rhs::Call {
            proc: proc.to_owned(),
            args: args.into_iter().collect(),
            span: S,
        }
    }

    /// `new Class` as an [`Rhs`].
    pub fn new_object(class: &str) -> Rhs {
        Rhs::New {
            class: class.to_owned(),
            span: S,
        }
    }

    /// `new [len]` as an [`Rhs`].
    pub fn new_array(len: Expr) -> Rhs {
        Rhs::NewArray { len, span: S }
    }

    /// An expression [`Rhs`].
    pub fn expr(value: Expr) -> Rhs {
        Rhs::Expr(value)
    }

    /// An integer literal.
    pub fn int(value: i64) -> Expr {
        Expr::new(ExprKind::Literal(Literal::Int(value)), S)
    }

    /// A boolean literal.
    pub fn boolean(value: bool) -> Expr {
        Expr::new(ExprKind::Literal(Literal::Bool(value)), S)
    }

    /// The `null` literal.
    pub fn null() -> Expr {
        Expr::new(ExprKind::Literal(Literal::Null), S)
    }

    /// A string literal.
    pub fn string(text: &str) -> Expr {
        Expr::new(ExprKind::Literal(Literal::Str(text.to_owned())), S)
    }

    /// A variable reference.
    pub fn name(identifier: &str) -> Expr {
        Expr::new(ExprKind::Name(identifier.to_owned()), S)
    }

    /// `obj.field`
    pub fn field(obj: Expr, field: &str) -> Expr {
        Expr::new(
            ExprKind::Field {
                obj: Box::new(obj),
                field: field.to_owned(),
            },
            S,
        )
    }

    /// `arr[index]`
    pub fn index(arr: Expr, idx: Expr) -> Expr {
        Expr::new(
            ExprKind::Index {
                arr: Box::new(arr),
                index: Box::new(idx),
            },
            S,
        )
    }

    /// A binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::new(
            ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            S,
        )
    }

    /// `lhs == rhs`
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        binary(BinOp::Eq, lhs, rhs)
    }

    /// `lhs + rhs`
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        binary(BinOp::Add, lhs, rhs)
    }

    /// `lhs < rhs`
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        binary(BinOp::Lt, lhs, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn builds_and_compiles_a_module() {
        let mut builder = ProgramBuilder::new();
        builder.class("Cell", ["value"]);
        builder.global_init("shared", Literal::Int(0));
        builder.proc_decl("writer", ["n"], block([assign_name("shared", name("n"))]));
        builder.proc_decl(
            "main",
            [],
            block([
                var("t", spawn("writer", [int(5)])),
                tag("read", var("v", expr(name("shared")))),
                join(name("t")),
            ]),
        );
        let program = builder.compile().unwrap();
        assert_eq!(program.proc_count(), 2);
        assert!(program
            .instr(program.tagged_access("read"))
            .is_memory_access());
    }

    #[test]
    fn builder_errors_surface_from_check() {
        let mut builder = ProgramBuilder::new();
        builder.proc_decl("main", [], block([assign_name("missing", int(1))]));
        assert!(builder.compile().is_err());
    }

    #[test]
    fn synthesised_padding_scales() {
        // The Figure-2 pattern: N nops between two accesses.
        let mut builder = ProgramBuilder::new();
        builder.global_init("x", Literal::Int(0));
        let mut stmts = vec![assign_name("x", int(1))];
        stmts.extend((0..50).map(|_| nop()));
        stmts.push(var("v", expr(name("x"))));
        builder.proc_decl("main", [], block(stmts));
        let program = builder.compile().unwrap();
        assert!(program.instr_count() > 50);
    }
}
