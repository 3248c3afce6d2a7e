//! Un-parsing: rendering an AST back to CIL source text.
//!
//! `parse(unparse(ast))` reproduces `ast` (up to spans); the round trip is
//! property-tested against every workload source. Besides testing the
//! parser, un-parsing lets programmatically-built programs (e.g. the
//! Figure-2 generator) be dumped as readable `.cil` text.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a module as parseable CIL source.
pub fn unparse_module(module: &Module) -> String {
    let mut out = String::new();
    for class in &module.classes {
        let _ = writeln!(
            out,
            "class {} {{ {} }}",
            class.name,
            class.fields.join(", ")
        );
    }
    for global in &module.globals {
        match &global.init {
            Some(literal) => {
                let _ = writeln!(out, "global {} = {};", global.name, literal_text(literal));
            }
            None => {
                let _ = writeln!(out, "global {};", global.name);
            }
        }
    }
    for proc in &module.procs {
        let _ = writeln!(out, "proc {}({}) {{", proc.name, proc.params.join(", "));
        unparse_block(&mut out, &proc.body, 1);
        out.push_str("}\n");
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn literal_text(literal: &Literal) -> String {
    match literal {
        Literal::Int(value) => value.to_string(),
        Literal::Bool(value) => value.to_string(),
        Literal::Str(text) => format!("{text:?}"),
        Literal::Null => "null".to_string(),
    }
}

fn unparse_block(out: &mut String, block: &Block, depth: usize) {
    for stmt in &block.stmts {
        unparse_stmt(out, stmt, depth);
    }
}

fn unparse_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    if let Some(tag) = &stmt.tag {
        let _ = write!(out, "@{tag} ");
    }
    match &stmt.kind {
        StmtKind::VarDecl { name, init } => match init {
            Some(init) => {
                let _ = writeln!(out, "var {name} = {};", rhs_text(init));
            }
            None => {
                let _ = writeln!(out, "var {name};");
            }
        },
        StmtKind::Assign { target, value } => match target {
            Some(target) => {
                let _ = writeln!(out, "{} = {};", lvalue_text(target), rhs_text(value));
            }
            None => {
                let _ = writeln!(out, "{};", rhs_text(value));
            }
        },
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "if ({}) {{", expr_text(cond));
            unparse_block(out, then_branch, depth + 1);
            indent(out, depth);
            match else_branch {
                Some(else_branch) => {
                    out.push_str("} else {\n");
                    unparse_block(out, else_branch, depth + 1);
                    indent(out, depth);
                    out.push_str("}\n");
                }
                None => out.push_str("}\n"),
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", expr_text(cond));
            unparse_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::Sync { obj, body } => {
            let _ = writeln!(out, "sync ({}) {{", expr_text(obj));
            unparse_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::Lock(expr) => {
            let _ = writeln!(out, "lock {};", expr_text(expr));
        }
        StmtKind::Unlock(expr) => {
            let _ = writeln!(out, "unlock {};", expr_text(expr));
        }
        StmtKind::Wait(expr) => {
            let _ = writeln!(out, "wait {};", expr_text(expr));
        }
        StmtKind::Notify(expr) => {
            let _ = writeln!(out, "notify {};", expr_text(expr));
        }
        StmtKind::NotifyAll(expr) => {
            let _ = writeln!(out, "notifyall {};", expr_text(expr));
        }
        StmtKind::Join(expr) => {
            let _ = writeln!(out, "join {};", expr_text(expr));
        }
        StmtKind::Interrupt(expr) => {
            let _ = writeln!(out, "interrupt {};", expr_text(expr));
        }
        StmtKind::Sleep(expr) => {
            let _ = writeln!(out, "sleep {};", expr_text(expr));
        }
        StmtKind::Assert { cond, message } => match message {
            Some(message) => {
                let _ = writeln!(out, "assert {} : {message:?};", expr_text(cond));
            }
            None => {
                let _ = writeln!(out, "assert {};", expr_text(cond));
            }
        },
        StmtKind::Throw { exception, message } => match message {
            Some(message) => {
                let _ = writeln!(out, "throw {exception}({message:?});");
            }
            None => {
                let _ = writeln!(out, "throw {exception};");
            }
        },
        StmtKind::Try {
            body,
            filter,
            handler,
        } => {
            out.push_str("try {\n");
            unparse_block(out, body, depth + 1);
            indent(out, depth);
            let filter_text = match filter {
                CatchFilter::All => "*".to_string(),
                CatchFilter::Named(names) => names.join(", "),
            };
            let _ = writeln!(out, "}} catch ({filter_text}) {{");
            unparse_block(out, handler, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::Return(value) => match value {
            Some(value) => {
                let _ = writeln!(out, "return {};", expr_text(value));
            }
            None => out.push_str("return;\n"),
        },
        StmtKind::Print(value) => match value {
            Some(value) => {
                let _ = writeln!(out, "print {};", expr_text(value));
            }
            None => out.push_str("print;\n"),
        },
        StmtKind::Nop => out.push_str("nop;\n"),
    }
}

fn lvalue_text(lvalue: &LValue) -> String {
    match lvalue {
        LValue::Name(name, _) => name.clone(),
        LValue::Field { obj, field } => format!("{}.{field}", postfix_text(obj)),
        LValue::Index { arr, index } => {
            format!("{}[{}]", postfix_text(arr), expr_text(index))
        }
    }
}

fn rhs_text(rhs: &Rhs) -> String {
    match rhs {
        Rhs::Expr(expr) => expr_text(expr),
        Rhs::New { class, .. } => format!("new {class}"),
        Rhs::NewArray { len, .. } => format!("new [{}]", expr_text(len)),
        Rhs::Spawn { proc, args, .. } => format!("spawn {proc}({})", args_text(args)),
        Rhs::Call { proc, args, .. } => format!("{proc}({})", args_text(args)),
    }
}

fn args_text(args: &[Expr]) -> String {
    args.iter().map(expr_text).collect::<Vec<_>>().join(", ")
}

/// Operator precedence levels, matching the parser's grammar.
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
    }
}

/// Renders an expression unambiguously (parenthesising where precedence or
/// the non-associative comparison level require it).
pub fn expr_text(expr: &Expr) -> String {
    render_expr(expr, 0)
}

fn render_expr(expr: &Expr, parent_level: u8) -> String {
    match &expr.kind {
        ExprKind::Literal(literal) => literal_text(literal),
        ExprKind::Name(name) => name.clone(),
        ExprKind::Field { obj, field } => format!("{}.{field}", postfix_text(obj)),
        ExprKind::Index { arr, index } => {
            format!("{}[{}]", postfix_text(arr), render_expr(index, 0))
        }
        ExprKind::Unary { op, operand } => {
            format!("{op}{}", render_expr(operand, 6))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let level = precedence(*op);
            // Comparisons do not chain in the grammar; operands must be at
            // the additive level or parenthesised.
            let (lhs_level, rhs_level) = if level == 3 {
                (4, 4)
            } else {
                (level, level + 1)
            };
            let text = format!(
                "{} {op} {}",
                render_expr(lhs, lhs_level),
                render_expr(rhs, rhs_level)
            );
            if level < parent_level {
                format!("({text})")
            } else {
                text
            }
        }
        ExprKind::Len(inner) => format!("len({})", render_expr(inner, 0)),
    }
}

/// Postfix positions (receivers of `.field` / `[index]`) accept only
/// postfix expressions; anything else needs parentheses.
fn postfix_text(expr: &Expr) -> String {
    match &expr.kind {
        ExprKind::Name(_)
        | ExprKind::Field { .. }
        | ExprKind::Index { .. }
        | ExprKind::Literal(_)
        | ExprKind::Len(_) => render_expr(expr, 0),
        _ => format!("({})", render_expr(expr, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Round trip: unparse(parse(s)) must be a fixpoint of parse∘unparse.
    fn assert_round_trips(source: &str) {
        let module = parse_module(source).expect("source parses");
        let once = unparse_module(&module);
        let reparsed = parse_module(&once)
            .unwrap_or_else(|error| panic!("unparsed output must parse: {error}\n{once}"));
        let twice = unparse_module(&reparsed);
        assert_eq!(once, twice, "unparse is a fixpoint");
    }

    #[test]
    fn round_trips_all_constructs() {
        assert_round_trips(
            r#"
            class Node { value, next }
            global head = null;
            global limit = -3;
            global banner = "hi";
            proc helper(a, b) { return a + b; }
            proc main() {
                var n = new Node;
                var a = new [4];
                var t = spawn helper(1, 2);
                var r = helper(3, 4);
                helper(5, 6);
                n.value = 1;
                a[0] = n.value;
                @tagged n.next = null;
                if (r == 3) { nop; } else { print r; }
                while (r < 10) { r = r + 1; }
                sync (n) { notify n; notifyall n; }
                lock n;
                wait n;
                unlock n;
                interrupt t;
                sleep 5;
                join t;
                assert r >= 10 : "grew";
                try { throw Boom("msg"); } catch (Boom, Bust) { print; }
                try { nop; } catch (*) { nop; }
                print len(a);
                return;
            }
            "#,
        );
    }

    #[test]
    fn precedence_is_preserved() {
        // (1 + 2) * 3 must keep its parens; 1 + 2 * 3 must not gain any.
        let module = parse_module(
            "proc main() { var a = (1 + 2) * 3; var b = 1 + 2 * 3; var c = !(a == b) && true; }",
        )
        .unwrap();
        let text = unparse_module(&module);
        assert!(text.contains("(1 + 2) * 3"), "{text}");
        assert!(text.contains("1 + 2 * 3"), "{text}");
        let reparsed = parse_module(&text).unwrap();
        assert_eq!(text, unparse_module(&reparsed));
    }

    #[test]
    fn comparison_operands_parenthesise() {
        let module = parse_module("proc main() { var a = (1 < 2) == (3 < 4); }").unwrap();
        let text = unparse_module(&module);
        let reparsed = parse_module(&text).unwrap_or_else(|error| panic!("{error}\n{text}"));
        assert_eq!(text, unparse_module(&reparsed));
    }

    #[test]
    fn workload_sources_round_trip() {
        // The Figure-1 program exercises most of the surface syntax.
        let module = parse_module(
            r#"
            class Lock { }
            global l;
            global x = 0;
            proc t1() {
                @s1 x = 1;
                sync (l) { @s3 x = 2; }
                if (x == 1) { throw Error1; }
            }
            proc main() {
                l = new Lock;
                var a = spawn t1();
                join a;
            }
            "#,
        )
        .unwrap();
        let text = unparse_module(&module);
        let reparsed = parse_module(&text).unwrap();
        assert_eq!(text, unparse_module(&reparsed));
        // Tags survive the round trip.
        assert!(text.contains("@s1 "));
    }
}
