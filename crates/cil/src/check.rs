//! Well-formedness checking.
//!
//! Verifies scoping (every name resolves to a parameter, a `var`, or a
//! `global`), declaration uniqueness, and call/spawn arity before lowering.
//! Lowering assumes a checked module and therefore cannot fail.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::span::Span;
use std::collections::HashMap;

/// Name-resolution tables produced by [`check_module`].
#[derive(Clone, Debug, Default)]
pub struct ModuleInfo {
    /// Class name → index in `Module::classes`.
    pub class_indices: HashMap<String, usize>,
    /// Global name → index in `Module::globals`.
    pub global_indices: HashMap<String, usize>,
    /// Procedure name → index in `Module::procs`.
    pub proc_indices: HashMap<String, usize>,
    /// Parameter count per procedure (parallel to `Module::procs`).
    pub proc_arities: Vec<usize>,
}

/// Checks a module, returning its name-resolution tables.
///
/// # Errors
///
/// Returns the first duplicate-declaration, unknown-name, or arity error.
pub fn check_module(module: &Module) -> Result<ModuleInfo, Error> {
    let mut info = ModuleInfo::default();

    for (index, class) in module.classes.iter().enumerate() {
        if info
            .class_indices
            .insert(class.name.clone(), index)
            .is_some()
        {
            return Err(duplicate("class", &class.name, class.span));
        }
        let mut seen = HashMap::new();
        for field in &class.fields {
            if seen.insert(field.clone(), ()).is_some() {
                return Err(Error::new(
                    ErrorKind::Check,
                    class.span,
                    format!("duplicate field `{field}` in class `{}`", class.name),
                ));
            }
        }
    }

    for (index, global) in module.globals.iter().enumerate() {
        if info
            .global_indices
            .insert(global.name.clone(), index)
            .is_some()
        {
            return Err(duplicate("global", &global.name, global.span));
        }
    }

    for (index, proc) in module.procs.iter().enumerate() {
        if info.proc_indices.insert(proc.name.clone(), index).is_some() {
            return Err(duplicate("proc", &proc.name, proc.span));
        }
        info.proc_arities.push(proc.params.len());
    }

    for proc in &module.procs {
        let mut checker = ProcChecker {
            info: &info,
            scopes: vec![HashMap::new()],
        };
        for param in &proc.params {
            if checker
                .scopes
                .last_mut()
                .expect("scope stack is never empty")
                .insert(param.clone(), ())
                .is_some()
            {
                return Err(Error::new(
                    ErrorKind::Check,
                    proc.span,
                    format!("duplicate parameter `{param}` in proc `{}`", proc.name),
                ));
            }
        }
        checker.block(&proc.body)?;
    }

    Ok(info)
}

fn duplicate(what: &str, name: &str, span: Span) -> Error {
    Error::new(
        ErrorKind::Check,
        span,
        format!("duplicate {what} declaration `{name}`"),
    )
}

struct ProcChecker<'a> {
    info: &'a ModuleInfo,
    scopes: Vec<HashMap<String, ()>>,
}

impl ProcChecker<'_> {
    fn block(&mut self, block: &Block) -> Result<(), Error> {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn declare(&mut self, name: &str, span: Span) -> Result<(), Error> {
        let visible = self.scopes.iter().any(|scope| scope.contains_key(name));
        if visible {
            return Err(Error::new(
                ErrorKind::Check,
                span,
                format!("`{name}` is already declared in an enclosing scope"),
            ));
        }
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_owned(), ());
        Ok(())
    }

    fn resolve(&self, name: &str, span: Span) -> Result<(), Error> {
        let is_local = self.scopes.iter().any(|scope| scope.contains_key(name));
        if is_local || self.info.global_indices.contains_key(name) {
            Ok(())
        } else {
            Err(Error::new(
                ErrorKind::Check,
                span,
                format!("unknown variable `{name}`"),
            ))
        }
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), Error> {
        match &stmt.kind {
            StmtKind::VarDecl { name, init } => {
                if let Some(init) = init {
                    self.rhs(init)?;
                }
                self.declare(name, stmt.span)
            }
            StmtKind::Assign { target, value } => {
                self.rhs(value)?;
                if let Some(target) = target {
                    self.lvalue(target)?;
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                self.block(then_branch)?;
                if let Some(else_branch) = else_branch {
                    self.block(else_branch)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.expr(cond)?;
                self.block(body)
            }
            StmtKind::Sync { obj, body } => {
                self.expr(obj)?;
                self.block(body)
            }
            StmtKind::Lock(expr)
            | StmtKind::Unlock(expr)
            | StmtKind::Wait(expr)
            | StmtKind::Notify(expr)
            | StmtKind::NotifyAll(expr)
            | StmtKind::Join(expr)
            | StmtKind::Interrupt(expr)
            | StmtKind::Sleep(expr) => self.expr(expr),
            StmtKind::Assert { cond, .. } => self.expr(cond),
            StmtKind::Throw { .. } => Ok(()),
            StmtKind::Try { body, handler, .. } => {
                self.block(body)?;
                self.block(handler)
            }
            StmtKind::Return(value) | StmtKind::Print(value) => {
                if let Some(value) = value {
                    self.expr(value)?;
                }
                Ok(())
            }
            StmtKind::Nop => Ok(()),
        }
    }

    fn lvalue(&mut self, lvalue: &LValue) -> Result<(), Error> {
        match lvalue {
            LValue::Name(name, span) => self.resolve(name, *span),
            LValue::Field { obj, .. } => self.expr(obj),
            LValue::Index { arr, index } => {
                self.expr(arr)?;
                self.expr(index)
            }
        }
    }

    fn rhs(&mut self, rhs: &Rhs) -> Result<(), Error> {
        match rhs {
            Rhs::Expr(expr) => self.expr(expr),
            Rhs::New { class, span } => {
                if self.info.class_indices.contains_key(class) {
                    Ok(())
                } else {
                    Err(Error::new(
                        ErrorKind::Check,
                        *span,
                        format!("unknown class `{class}`"),
                    ))
                }
            }
            Rhs::NewArray { len, .. } => self.expr(len),
            Rhs::Spawn { proc, args, span } | Rhs::Call { proc, args, span } => {
                let Some(&index) = self.info.proc_indices.get(proc) else {
                    return Err(Error::new(
                        ErrorKind::Check,
                        *span,
                        format!("unknown proc `{proc}`"),
                    ));
                };
                let expected = self.info.proc_arities[index];
                if args.len() != expected {
                    return Err(Error::new(
                        ErrorKind::Check,
                        *span,
                        format!(
                            "proc `{proc}` takes {expected} argument(s), got {}",
                            args.len()
                        ),
                    ));
                }
                for arg in args {
                    self.expr(arg)?;
                }
                Ok(())
            }
        }
    }

    fn expr(&mut self, expr: &Expr) -> Result<(), Error> {
        match &expr.kind {
            ExprKind::Literal(_) => Ok(()),
            ExprKind::Name(name) => self.resolve(name, expr.span),
            ExprKind::Field { obj, .. } => self.expr(obj),
            ExprKind::Index { arr, index } => {
                self.expr(arr)?;
                self.expr(index)
            }
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            ExprKind::Len(inner) => self.expr(inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn check_source(source: &str) -> Result<ModuleInfo, Error> {
        check_module(&parse_module(source).expect("test source should parse"))
    }

    #[test]
    fn accepts_well_formed_module() {
        let info = check_source(
            r#"
            class Pair { a, b }
            global total = 0;
            proc add(x, y) { return x + y; }
            proc main() {
                var p = new Pair;
                var s = add(1, 2);
                total = s;
                p.a = total;
            }
            "#,
        )
        .unwrap();
        assert_eq!(info.proc_arities, vec![2, 0]);
        assert!(info.class_indices.contains_key("Pair"));
    }

    #[test]
    fn rejects_unknown_variable() {
        let error = check_source("proc main() { var x = missing; }").unwrap_err();
        assert!(error.message.contains("missing"));
    }

    #[test]
    fn rejects_unknown_variable_in_lvalue() {
        assert!(check_source("proc main() { missing = 1; }").is_err());
    }

    #[test]
    fn rejects_unknown_proc() {
        assert!(check_source("proc main() { ghost(); }").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        let error = check_source(
            r#"
            proc two(a, b) {}
            proc main() { two(1); }
            "#,
        )
        .unwrap_err();
        assert!(error.message.contains("2 argument"));
    }

    #[test]
    fn rejects_unknown_class() {
        assert!(check_source("proc main() { var x = new Ghost; }").is_err());
    }

    #[test]
    fn rejects_duplicate_declarations() {
        assert!(check_source("global g; global g; proc main() {}").is_err());
        assert!(check_source("proc main() {} proc main() {}").is_err());
        assert!(check_source("class C { a } class C { b } proc main() {}").is_err());
        assert!(check_source("class C { a, a } proc main() {}").is_err());
        assert!(check_source("proc p(a, a) {} proc main() {}").is_err());
    }

    #[test]
    fn rejects_redeclared_local() {
        assert!(check_source("proc main() { var x; var x; }").is_err());
        assert!(check_source("proc main() { var x; if (true) { var x; } }").is_err());
        assert!(check_source("proc p(a) { var a; } proc main() {}").is_err());
    }

    #[test]
    fn sibling_blocks_may_reuse_names() {
        assert!(check_source(
            r#"
            proc main() {
                if (true) { var x = 1; } else { var x = 2; }
                while (false) { var x = 3; }
            }
            "#
        )
        .is_ok());
    }

    #[test]
    fn locals_shadow_globals_resolution() {
        // A local may not *redeclare* another local, but a global name may be
        // reused as a local (resolution prefers the local, like Java).
        assert!(check_source(
            r#"
            global x = 1;
            proc main() { var x = 2; x = x + 1; }
            "#
        )
        .is_ok());
    }

    #[test]
    fn decl_not_visible_before_its_statement() {
        assert!(check_source("proc main() { var y = z; var z = 1; }").is_err());
    }

    #[test]
    fn var_visible_after_enclosing_block_ends_is_rejected() {
        assert!(check_source(
            r#"
            proc main() {
                if (true) { var inner = 1; }
                inner = 2;
            }
            "#
        )
        .is_err());
    }

    #[test]
    fn spawn_checks_arity_too() {
        assert!(check_source(
            r#"
            proc worker(a) {}
            proc main() { spawn worker(); }
            "#
        )
        .is_err());
    }
}
