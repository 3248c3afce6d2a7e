//! The CIL recursive-descent parser.
//!
//! See the crate docs for a grammar sketch; the language is a small
//! Java-flavoured imperative language with `sync`/`wait`/`notify` monitors,
//! `spawn`/`join`/`interrupt` threads, and named exceptions.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::span::Span;

/// Parses a complete CIL module from source text.
///
/// # Errors
///
/// Returns the first lexing or syntax error encountered.
pub fn parse_module(source: &str) -> Result<Module, Error> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.module()
}

/// Maximum block/expression nesting depth. Recursive descent uses host
/// stack frames; beyond this the parser reports an error instead of
/// overflowing the stack.
const MAX_DEPTH: u32 = 64;

const KEYWORDS: &[&str] = &[
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
    "notifyall",
    "join",
    "interrupt",
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
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self
            .tokens
            .get(self.pos + 1)
            .unwrap_or(&self.tokens[self.tokens.len() - 1])
            .kind
    }

    fn bump(&mut self) -> Token {
        let token = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn at_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(name) if name == keyword)
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.at_keyword(keyword) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<Span, Error> {
        if self.at_keyword(keyword) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("`{keyword}`")))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Span, Error> {
        if self.peek_kind() == &kind {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&kind.to_string()))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        let token = self.peek();
        Error::new(
            ErrorKind::Parse,
            token.span,
            format!("expected {wanted}, found {}", token.kind),
        )
    }

    fn ident(&mut self) -> Result<(String, Span), Error> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    Err(Error::new(
                        ErrorKind::Parse,
                        self.peek().span,
                        format!("`{name}` is a keyword and cannot be used as a name"),
                    ))
                } else {
                    let span = self.bump().span;
                    Ok((name, span))
                }
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn module(&mut self) -> Result<Module, Error> {
        let mut module = Module::default();
        while self.peek_kind() != &TokenKind::Eof {
            if self.at_keyword("class") {
                module.classes.push(self.class_decl()?);
            } else if self.at_keyword("global") {
                module.globals.push(self.global_decl()?);
            } else if self.at_keyword("proc") {
                module.procs.push(self.proc_decl()?);
            } else {
                return Err(self.unexpected("`class`, `global`, or `proc`"));
            }
        }
        Ok(module)
    }

    fn class_decl(&mut self) -> Result<ClassDecl, Error> {
        let start = self.expect_keyword("class")?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        if self.peek_kind() != &TokenKind::RBrace {
            loop {
                fields.push(self.ident()?.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RBrace)?;
        Ok(ClassDecl {
            name,
            fields,
            span: start.merge(end),
        })
    }

    fn global_decl(&mut self) -> Result<GlobalDecl, Error> {
        let start = self.expect_keyword("global")?;
        let (name, _) = self.ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.literal()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?;
        Ok(GlobalDecl {
            name,
            init,
            span: start.merge(end),
        })
    }

    fn literal(&mut self) -> Result<Literal, Error> {
        let negative = self.eat(&TokenKind::Minus);
        match self.peek_kind().clone() {
            TokenKind::Int(value) => {
                self.bump();
                Ok(Literal::Int(if negative { -value } else { value }))
            }
            TokenKind::Str(text) if !negative => {
                self.bump();
                Ok(Literal::Str(text))
            }
            TokenKind::Ident(ref name) if !negative && name == "true" => {
                self.bump();
                Ok(Literal::Bool(true))
            }
            TokenKind::Ident(ref name) if !negative && name == "false" => {
                self.bump();
                Ok(Literal::Bool(false))
            }
            TokenKind::Ident(ref name) if !negative && name == "null" => {
                self.bump();
                Ok(Literal::Null)
            }
            _ => Err(self.unexpected("a literal")),
        }
    }

    fn proc_decl(&mut self) -> Result<ProcDecl, Error> {
        let start = self.expect_keyword("proc")?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek_kind() != &TokenKind::RParen {
            loop {
                params.push(self.ident()?.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let header_end = self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(ProcDecl {
            name,
            params,
            body,
            span: start.merge(header_end),
        })
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::new(
                ErrorKind::Parse,
                self.peek().span,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn block(&mut self) -> Result<Block, Error> {
        self.enter()?;
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek_kind() != &TokenKind::RBrace {
            if self.peek_kind() == &TokenKind::Eof {
                self.leave();
                return Err(self.unexpected("`}`"));
            }
            match self.stmt() {
                Ok(stmt) => stmts.push(stmt),
                Err(error) => {
                    self.leave();
                    return Err(error);
                }
            }
        }
        self.expect(TokenKind::RBrace)?;
        self.leave();
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, Error> {
        let tag = if let TokenKind::Tag(name) = self.peek_kind().clone() {
            self.bump();
            Some(name)
        } else {
            None
        };
        let mut stmt = self.stmt_inner()?;
        stmt.tag = tag;
        Ok(stmt)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Error> {
        let start = self.peek().span;
        if self.at_keyword("var") {
            self.bump();
            let (name, _) = self.ident()?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.rhs()?)
            } else {
                None
            };
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::VarDecl { name, init },
                start.merge(end),
            ));
        }
        if self.at_keyword("if") {
            return self.if_stmt();
        }
        if self.at_keyword("while") {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(TokenKind::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::new(StmtKind::While { cond, body }, start));
        }
        if self.at_keyword("sync") {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let obj = self.expr()?;
            self.expect(TokenKind::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::new(StmtKind::Sync { obj, body }, start));
        }
        if self.at_keyword("try") {
            self.bump();
            let body = self.block()?;
            self.expect_keyword("catch")?;
            self.expect(TokenKind::LParen)?;
            let filter = if self.eat(&TokenKind::Star) {
                CatchFilter::All
            } else {
                let mut names = vec![self.exception_name()?];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.exception_name()?);
                }
                CatchFilter::Named(names)
            };
            self.expect(TokenKind::RParen)?;
            let handler = self.block()?;
            return Ok(Stmt::new(
                StmtKind::Try {
                    body,
                    filter,
                    handler,
                },
                start,
            ));
        }
        for (keyword, make) in [
            ("lock", StmtKind::Lock as fn(Expr) -> StmtKind),
            ("unlock", StmtKind::Unlock),
            ("wait", StmtKind::Wait),
            ("notify", StmtKind::Notify),
            ("notifyall", StmtKind::NotifyAll),
            ("join", StmtKind::Join),
            ("interrupt", StmtKind::Interrupt),
            ("sleep", StmtKind::Sleep),
        ] {
            if self.at_keyword(keyword) {
                self.bump();
                let expr = self.expr()?;
                let end = self.expect(TokenKind::Semi)?;
                return Ok(Stmt::new(make(expr), start.merge(end)));
            }
        }
        if self.at_keyword("assert") {
            self.bump();
            let cond = self.expr()?;
            let message = if self.eat(&TokenKind::Colon) {
                match self.peek_kind().clone() {
                    TokenKind::Str(text) => {
                        self.bump();
                        Some(text)
                    }
                    _ => return Err(self.unexpected("a string message")),
                }
            } else {
                None
            };
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Assert { cond, message },
                start.merge(end),
            ));
        }
        if self.at_keyword("throw") {
            self.bump();
            let exception = self.exception_name()?;
            let message = if self.eat(&TokenKind::LParen) {
                let text = match self.peek_kind().clone() {
                    TokenKind::Str(text) => {
                        self.bump();
                        text
                    }
                    _ => return Err(self.unexpected("a string message")),
                };
                self.expect(TokenKind::RParen)?;
                Some(text)
            } else {
                None
            };
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Throw { exception, message },
                start.merge(end),
            ));
        }
        if self.at_keyword("return") {
            self.bump();
            let value = if self.peek_kind() == &TokenKind::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Return(value), start.merge(end)));
        }
        if self.at_keyword("print") {
            self.bump();
            let value = if self.peek_kind() == &TokenKind::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Print(value), start.merge(end)));
        }
        if self.at_keyword("nop") {
            self.bump();
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Nop, start.merge(end)));
        }
        if self.at_keyword("spawn") {
            // Bare spawn statement (handle discarded).
            let spawn = self.spawn_rhs()?;
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Assign {
                    target: None,
                    value: spawn,
                },
                start.merge(end),
            ));
        }

        // Assignment or bare call: starts with an identifier.
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if KEYWORDS.contains(&name.as_str()) {
                return Err(self.unexpected("a statement"));
            }
            if self.peek2_kind() == &TokenKind::LParen {
                // Bare call statement.
                let (proc, proc_span) = self.ident()?;
                let args = self.call_args()?;
                let end = self.expect(TokenKind::Semi)?;
                return Ok(Stmt::new(
                    StmtKind::Assign {
                        target: None,
                        value: Rhs::Call {
                            proc,
                            args,
                            span: proc_span,
                        },
                    },
                    start.merge(end),
                ));
            }
            // Assignment: parse a postfix expression as the lvalue.
            let lhs = self.postfix_expr()?;
            let target = self.expr_to_lvalue(lhs)?;
            self.expect(TokenKind::Assign)?;
            let value = self.rhs()?;
            let end = self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Assign {
                    target: Some(target),
                    value,
                },
                start.merge(end),
            ));
        }

        Err(self.unexpected("a statement"))
    }

    fn if_stmt(&mut self) -> Result<Stmt, Error> {
        let start = self.expect_keyword("if")?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.block()?;
        let else_branch = if self.eat_keyword("else") {
            if self.at_keyword("if") {
                let chained = self.if_stmt()?;
                Some(Block {
                    stmts: vec![chained],
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start,
        ))
    }

    /// Exception names may be keywords-free identifiers; they are not
    /// variable references, so uppercase Java-style names work naturally.
    fn exception_name(&mut self) -> Result<String, Error> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) if !KEYWORDS.contains(&name.as_str()) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.unexpected("an exception name")),
        }
    }

    fn expr_to_lvalue(&self, expr: Expr) -> Result<LValue, Error> {
        match expr.kind {
            ExprKind::Name(name) => Ok(LValue::Name(name, expr.span)),
            ExprKind::Field { obj, field } => Ok(LValue::Field { obj: *obj, field }),
            ExprKind::Index { arr, index } => Ok(LValue::Index {
                arr: *arr,
                index: *index,
            }),
            _ => Err(Error::new(
                ErrorKind::Parse,
                expr.span,
                "expression is not assignable",
            )),
        }
    }

    fn rhs(&mut self) -> Result<Rhs, Error> {
        if self.at_keyword("new") {
            let span = self.bump().span;
            if self.eat(&TokenKind::LBracket) {
                let len = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                return Ok(Rhs::NewArray { len, span });
            }
            let (class, _) = self.ident()?;
            return Ok(Rhs::New { class, span });
        }
        if self.at_keyword("spawn") {
            return self.spawn_rhs();
        }
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if !KEYWORDS.contains(&name.as_str()) && self.peek2_kind() == &TokenKind::LParen {
                let (proc, span) = self.ident()?;
                let args = self.call_args()?;
                return Ok(Rhs::Call { proc, args, span });
            }
        }
        Ok(Rhs::Expr(self.expr()?))
    }

    fn spawn_rhs(&mut self) -> Result<Rhs, Error> {
        let span = self.expect_keyword("spawn")?;
        let (proc, _) = self.ident()?;
        let args = self.call_args()?;
        Ok(Rhs::Spawn { proc, args, span })
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, Error> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek_kind() != &TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr, Error> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.and_expr()?;
        while self.peek_kind() == &TokenKind::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.cmp_expr()?;
        while self.peek_kind() == &TokenKind::AndAnd {
            self.bump();
            let rhs = self.cmp_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, Error> {
        let lhs = self.add_expr()?;
        let op = match self.peek_kind() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span.merge(rhs.span);
        Ok(Expr::new(
            ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn add_expr(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, Error> {
        let start = self.peek().span;
        for (token, op) in [(TokenKind::Minus, UnOp::Neg), (TokenKind::Bang, UnOp::Not)] {
            if self.eat(&token) {
                self.enter()?;
                let operand = self.unary_expr();
                self.leave();
                let operand = operand?;
                let span = start.merge(operand.span);
                return Ok(Expr::new(
                    ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                    span,
                ));
            }
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, Error> {
        let mut expr = self.primary_expr()?;
        loop {
            if self.eat(&TokenKind::Dot) {
                let (field, field_span) = self.ident()?;
                let span = expr.span.merge(field_span);
                expr = Expr::new(
                    ExprKind::Field {
                        obj: Box::new(expr),
                        field,
                    },
                    span,
                );
            } else if self.eat(&TokenKind::LBracket) {
                let index = self.expr()?;
                let end = self.expect(TokenKind::RBracket)?;
                let span = expr.span.merge(end);
                expr = Expr::new(
                    ExprKind::Index {
                        arr: Box::new(expr),
                        index: Box::new(index),
                    },
                    span,
                );
            } else {
                return Ok(expr);
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, Error> {
        let token = self.peek().clone();
        match token.kind {
            TokenKind::Int(value) => {
                self.bump();
                Ok(Expr::new(
                    ExprKind::Literal(Literal::Int(value)),
                    token.span,
                ))
            }
            TokenKind::Str(text) => {
                self.bump();
                Ok(Expr::new(ExprKind::Literal(Literal::Str(text)), token.span))
            }
            TokenKind::Ident(name) => match name.as_str() {
                "true" => {
                    self.bump();
                    Ok(Expr::new(
                        ExprKind::Literal(Literal::Bool(true)),
                        token.span,
                    ))
                }
                "false" => {
                    self.bump();
                    Ok(Expr::new(
                        ExprKind::Literal(Literal::Bool(false)),
                        token.span,
                    ))
                }
                "null" => {
                    self.bump();
                    Ok(Expr::new(ExprKind::Literal(Literal::Null), token.span))
                }
                "len" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let inner = self.expr()?;
                    let end = self.expect(TokenKind::RParen)?;
                    Ok(Expr::new(
                        ExprKind::Len(Box::new(inner)),
                        token.span.merge(end),
                    ))
                }
                _ if KEYWORDS.contains(&name.as_str()) => Err(self.unexpected("an expression")),
                _ => {
                    self.bump();
                    Ok(Expr::new(ExprKind::Name(name), token.span))
                }
            },
            TokenKind::LParen => {
                self.enter()?;
                self.bump();
                let inner = self.expr();
                self.leave();
                let inner = inner?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(source: &str) -> Module {
        parse_module(source).expect("should parse")
    }

    #[test]
    fn parses_empty_module() {
        let module = parse_ok("");
        assert!(module.procs.is_empty());
    }

    #[test]
    fn parses_class_global_proc() {
        let module = parse_ok(
            r#"
            class Node { value, next }
            global head = null;
            global count = 0;
            proc main() { nop; }
            "#,
        );
        assert_eq!(module.classes.len(), 1);
        assert_eq!(module.classes[0].fields, vec!["value", "next"]);
        assert_eq!(module.globals.len(), 2);
        assert_eq!(module.globals[1].init, Some(Literal::Int(0)));
        assert_eq!(module.procs.len(), 1);
    }

    #[test]
    fn parses_negative_global_init() {
        let module = parse_ok("global x = -5; proc main() {}");
        assert_eq!(module.globals[0].init, Some(Literal::Int(-5)));
    }

    #[test]
    fn parses_assignments_and_calls() {
        let module = parse_ok(
            r#"
            global g;
            proc helper(a, b) { return a + b; }
            proc main() {
                var x = 1;
                var y;
                y = helper(x, 2);
                g = y;
                helper(0, 0);
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        assert_eq!(main.body.stmts.len(), 5);
        match &main.body.stmts[4].kind {
            StmtKind::Assign {
                target: None,
                value: Rhs::Call { proc, .. },
            } => assert_eq!(proc, "helper"),
            other => panic!("expected bare call, got {other:?}"),
        }
    }

    #[test]
    fn parses_field_and_index_lvalues() {
        let module = parse_ok(
            r#"
            proc main() {
                var o;
                o.next.value = 3;
                o[1 + 2] = 4;
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        assert!(matches!(
            &main.body.stmts[1].kind,
            StmtKind::Assign {
                target: Some(LValue::Field { .. }),
                ..
            }
        ));
        assert!(matches!(
            &main.body.stmts[2].kind,
            StmtKind::Assign {
                target: Some(LValue::Index { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_control_flow() {
        let module = parse_ok(
            r#"
            proc main() {
                var i = 0;
                while (i < 10) {
                    if (i % 2 == 0) { i = i + 1; }
                    else if (i > 5) { i = i + 2; }
                    else { i = i + 3; }
                }
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        assert!(matches!(&main.body.stmts[1].kind, StmtKind::While { .. }));
    }

    #[test]
    fn parses_concurrency_statements() {
        let module = parse_ok(
            r#"
            global l;
            proc worker(n) { sleep n; }
            proc main() {
                var t = spawn worker(5);
                sync (l) { notifyall l; }
                lock l;
                wait l;
                notify l;
                unlock l;
                interrupt t;
                join t;
                spawn worker(1);
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        assert_eq!(main.body.stmts.len(), 9);
        assert!(matches!(&main.body.stmts[1].kind, StmtKind::Sync { .. }));
    }

    #[test]
    fn parses_try_catch_and_throw() {
        let module = parse_ok(
            r#"
            proc main() {
                try {
                    throw MyError("boom");
                } catch (MyError, OtherError) {
                    print "caught";
                }
                try { nop; } catch (*) { nop; }
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        match &main.body.stmts[0].kind {
            StmtKind::Try { filter, .. } => {
                assert!(filter.matches("MyError"));
                assert!(!filter.matches("Unrelated"));
            }
            other => panic!("expected try, got {other:?}"),
        }
        match &main.body.stmts[1].kind {
            StmtKind::Try { filter, .. } => assert_eq!(filter, &CatchFilter::All),
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn parses_tags() {
        let module = parse_ok(
            r#"
            global z;
            proc main() {
                @write_z z = 1;
                @check var v = z;
            }
            "#,
        );
        let main = module.proc_named("main").unwrap();
        assert_eq!(main.body.stmts[0].tag.as_deref(), Some("write_z"));
        assert_eq!(main.body.stmts[1].tag.as_deref(), Some("check"));
    }

    #[test]
    fn parses_assert_with_message() {
        let module = parse_ok(r#"proc main() { assert 1 == 1 : "math works"; }"#);
        let main = module.proc_named("main").unwrap();
        assert!(matches!(
            &main.body.stmts[0].kind,
            StmtKind::Assert {
                message: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn precedence_binds_correctly() {
        let module = parse_ok("proc main() { var x = 1 + 2 * 3 == 7 && true; }");
        let main = module.proc_named("main").unwrap();
        let StmtKind::VarDecl {
            init: Some(Rhs::Expr(expr)),
            ..
        } = &main.body.stmts[0].kind
        else {
            panic!("expected var decl");
        };
        // Top level should be `&&`.
        assert!(
            matches!(&expr.kind, ExprKind::Binary { op: BinOp::And, .. }),
            "got {expr:?}"
        );
    }

    #[test]
    fn parses_len_and_parens() {
        parse_ok("proc main() { var a = new [3]; var n = len(a) * (1 + 2); }");
    }

    #[test]
    fn rejects_keyword_as_name() {
        assert!(parse_module("proc main() { var while = 1; }").is_err());
    }

    #[test]
    fn rejects_assignment_to_expression() {
        assert!(parse_module("proc main() { 1 + 2 = 3; }").is_err());
    }

    #[test]
    fn rejects_unclosed_block() {
        assert!(parse_module("proc main() { nop;").is_err());
    }

    #[test]
    fn rejects_stray_top_level_token() {
        assert!(parse_module("nop;").is_err());
    }

    #[test]
    fn error_spans_point_at_problem() {
        let error = parse_module("proc main() {\n  var x = ;\n}").unwrap_err();
        assert_eq!(error.span.line, 2);
    }
}
