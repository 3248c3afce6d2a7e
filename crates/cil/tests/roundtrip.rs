//! Property-based parser ⇄ unparser round-trip over generated ASTs.

use cil::ast::*;
use cil::span::Span;
use cil::unparse::{expr_text, unparse_module};
use proptest::prelude::*;

const S: Span = Span::SYNTHETIC;

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Non-negative only: `-1` re-parses as `Unary(Neg, 1)`, which is
        // semantically identical but structurally different. Negation is
        // covered by the UnOp::Neg generator.
        (0i64..1000).prop_map(Literal::Int),
        any::<bool>().prop_map(Literal::Bool),
        Just(Literal::Null),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn is_keyword(name: &str) -> bool {
    [
        "class",
        "global",
        "proc",
        "var",
        "if",
        "else",
        "while",
        "sync",
        "lock",
        "unlock",
        "wait",
        "notify",
        "join",
        "sleep",
        "assert",
        "throw",
        "try",
        "catch",
        "return",
        "print",
        "nop",
        "spawn",
        "new",
        "true",
        "false",
        "null",
        "len",
        "notifyall",
        "interrupt",
    ]
    .contains(&name)
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,4}".prop_filter("not a keyword", |name| !is_keyword(name))
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(|lit| Expr::new(ExprKind::Literal(lit), S)),
        arb_name().prop_map(|name| Expr::new(ExprKind::Name(name), S)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, lhs, rhs)| Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                S
            )),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone()).prop_map(
                |(op, operand)| Expr::new(
                    ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                    S
                )
            ),
            (inner.clone(), arb_name()).prop_map(|(obj, field)| Expr::new(
                ExprKind::Field {
                    obj: Box::new(obj),
                    field,
                },
                S
            )),
            (inner.clone(), inner.clone()).prop_map(|(arr, index)| Expr::new(
                ExprKind::Index {
                    arr: Box::new(arr),
                    index: Box::new(index),
                },
                S
            )),
            inner.prop_map(|e| Expr::new(ExprKind::Len(Box::new(e)), S)),
        ]
    })
}

/// Structural equality of expressions ignoring spans.
fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::Literal(x), ExprKind::Literal(y)) => x == y,
        (ExprKind::Name(x), ExprKind::Name(y)) => x == y,
        (ExprKind::Field { obj: ao, field: af }, ExprKind::Field { obj: bo, field: bf }) => {
            af == bf && expr_eq(ao, bo)
        }
        (ExprKind::Index { arr: aa, index: ai }, ExprKind::Index { arr: ba, index: bi }) => {
            expr_eq(aa, ba) && expr_eq(ai, bi)
        }
        (ExprKind::Unary { op: x, operand: ao }, ExprKind::Unary { op: y, operand: bo }) => {
            x == y && expr_eq(ao, bo)
        }
        (
            ExprKind::Binary {
                op: x,
                lhs: al,
                rhs: ar,
            },
            ExprKind::Binary {
                op: y,
                lhs: bl,
                rhs: br,
            },
        ) => x == y && expr_eq(al, bl) && expr_eq(ar, br),
        (ExprKind::Len(x), ExprKind::Len(y)) => expr_eq(x, y),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rendering an arbitrary expression and parsing it back yields the
    /// same tree — precedence and parenthesisation are faithful.
    #[test]
    fn expression_round_trip(expr in arb_expr()) {
        let rendered = expr_text(&expr);
        let source = format!("proc main() {{ print {rendered}; }}");
        let module = cil::parse(&source)
            .unwrap_or_else(|error| panic!("rendered expr must parse: {error}\n{rendered}"));
        let StmtKind::Print(Some(reparsed)) = &module.procs[0].body.stmts[0].kind else {
            panic!("expected print statement");
        };
        prop_assert!(
            expr_eq(&expr, reparsed),
            "round trip changed the tree:\n  rendered: {rendered}\n  got: {reparsed:?}"
        );
    }

    /// Unparsing an arbitrary parsed module is a fixpoint of parse∘unparse.
    #[test]
    fn module_unparse_fixpoint(expr in arb_expr()) {
        let rendered = expr_text(&expr);
        let source = format!(
            "global g = 0;\nproc main() {{ var v = {rendered}; g = 1; }}"
        );
        let module = cil::parse(&source).expect("parses");
        let once = unparse_module(&module);
        let reparsed = cil::parse(&once)
            .unwrap_or_else(|error| panic!("{error}\n{once}"));
        let twice = unparse_module(&reparsed);
        prop_assert_eq!(once, twice);
    }
}
