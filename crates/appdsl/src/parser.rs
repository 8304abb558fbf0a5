//! Parser for the handler language.
//!
//! Example program (Listing 1 of the paper):
//!
//! ```text
//! handler show_event(event_id) {
//!     let rows = sql("SELECT 1 FROM Attendance
//!                     WHERE UId = ?MyUId AND EId = ?event_id");
//!     if rows.is_empty() {
//!         abort(404);
//!     }
//!     emit sql("SELECT * FROM Events WHERE EId = ?event_id");
//! }
//! ```
//!
//! SQL strings are double-quoted (so SQL's single-quoted literals nest
//! without escaping); `.first` is optional sugar — a field access on a rows
//! value reads the first row.

use sqlir::Value;

use crate::ast::{App, DBinOp, DExpr, Handler, SqlSite, Stmt};
use crate::error::DslError;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Dot,
    Comma,
    Semi,
    Assign,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, DslError> {
    let b = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] as char {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                toks.push((Tok::LParen, start));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, start));
                i += 1;
            }
            '{' => {
                toks.push((Tok::LBrace, start));
                i += 1;
            }
            '}' => {
                toks.push((Tok::RBrace, start));
                i += 1;
            }
            '.' => {
                toks.push((Tok::Dot, start));
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, start));
                i += 1;
            }
            ';' => {
                toks.push((Tok::Semi, start));
                i += 1;
            }
            '=' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::EqEq, start));
                    i += 2;
                } else {
                    toks.push((Tok::Assign, start));
                    i += 1;
                }
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::NotEq, start));
                    i += 2;
                } else {
                    toks.push((Tok::Bang, start));
                    i += 1;
                }
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Le, start));
                    i += 2;
                } else {
                    toks.push((Tok::Lt, start));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ge, start));
                    i += 2;
                } else {
                    toks.push((Tok::Gt, start));
                    i += 1;
                }
            }
            '&' if b.get(i + 1) == Some(&b'&') => {
                toks.push((Tok::AndAnd, start));
                i += 2;
            }
            '|' if b.get(i + 1) == Some(&b'|') => {
                toks.push((Tok::OrOr, start));
                i += 2;
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= b.len() {
                        return Err(DslError::parse("unterminated string", start));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if b.get(i + 1) == Some(&b'"') => {
                            s.push('"');
                            i += 2;
                        }
                        _ => {
                            let len = match b[i] {
                                0x00..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            s.push_str(&input[i..i + len]);
                            i += len;
                        }
                    }
                }
                toks.push((Tok::Str(s), start));
            }
            '0'..='9' => {
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let v = input[start..i]
                    .parse()
                    .map_err(|_| DslError::parse("integer out of range", start))?;
                toks.push((Tok::Int(v), start));
            }
            '-' if b.get(i + 1).map(|c| c.is_ascii_digit()).unwrap_or(false) => {
                i += 1;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let v = input[start..i]
                    .parse()
                    .map_err(|_| DslError::parse("integer out of range", start))?;
                toks.push((Tok::Int(v), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(input[start..i].to_string()), start));
            }
            other => {
                return Err(DslError::parse(
                    format!("unexpected character `{other}`"),
                    start,
                ))
            }
        }
    }
    toks.push((Tok::Eof, input.len()));
    Ok(toks)
}

/// Parses a whole application (one or more handlers).
pub fn parse_app(input: &str) -> Result<App, DslError> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
    };
    let mut handlers = Vec::new();
    while p.peek() != &Tok::Eof {
        handlers.push(p.handler()?);
    }
    Ok(App { handlers })
}

/// Parses a single handler.
pub fn parse_handler(input: &str) -> Result<Handler, DslError> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
    };
    let h = p.handler()?;
    if p.peek() != &Tok::Eof {
        return Err(p.err("trailing input after handler"));
    }
    Ok(h)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> DslError {
        DslError::parse(msg, self.offset())
    }

    fn expect(&mut self, t: Tok) -> Result<(), DslError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, DslError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DslError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn handler(&mut self) -> Result<Handler, DslError> {
        self.expect_kw("handler")?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.ident()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Handler { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, DslError> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != &Tok::RBrace {
            out.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, DslError> {
        if self.eat_kw("let") {
            let var = self.ident()?;
            self.expect(Tok::Assign)?;
            let expr = self.expr()?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Let { var, expr });
        }
        if self.eat_kw("if") {
            let cond = self.expr()?;
            let then_branch = self.block()?;
            let else_branch = if self.eat_kw("else") {
                if matches!(self.peek(), Tok::Ident(s) if s == "if") {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.eat_kw("for") {
            let var = self.ident()?;
            self.expect_kw("in")?;
            let rows = self.expr()?;
            let body = self.block()?;
            return Ok(Stmt::ForRow { var, rows, body });
        }
        if self.eat_kw("emit") {
            let expr = self.expr()?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Emit { expr });
        }
        if self.eat_kw("run") {
            self.expect_kw("sql")?;
            self.expect(Tok::LParen)?;
            let sql = match self.bump() {
                Tok::Str(s) => s,
                other => return Err(self.err(format!("expected SQL string, found {other:?}"))),
            };
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Run {
                sql: SqlSite::new(sql),
            });
        }
        if self.eat_kw("abort") {
            self.expect(Tok::LParen)?;
            let code = match self.bump() {
                Tok::Int(i) if (100..=599).contains(&i) => i as u16,
                other => return Err(self.err(format!("expected HTTP status, found {other:?}"))),
            };
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Abort { code });
        }
        if self.eat_kw("return") {
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Return);
        }
        Err(self.err(format!("expected statement, found {:?}", self.peek())))
    }

    fn expr(&mut self) -> Result<DExpr, DslError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = DExpr::Binary {
                op: DBinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.not_expr()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = DExpr::Binary {
                op: DBinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<DExpr, DslError> {
        if self.peek() == &Tok::Bang {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(DExpr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<DExpr, DslError> {
        let lhs = self.postfix()?;
        let op = match self.peek() {
            Tok::EqEq => Some(DBinOp::Eq),
            Tok::NotEq => Some(DBinOp::Ne),
            Tok::Lt => Some(DBinOp::Lt),
            Tok::Le => Some(DBinOp::Le),
            Tok::Gt => Some(DBinOp::Gt),
            Tok::Ge => Some(DBinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.postfix()?;
            return Ok(DExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn postfix(&mut self) -> Result<DExpr, DslError> {
        let mut base = self.primary()?;
        while self.peek() == &Tok::Dot {
            self.bump();
            let name = self.ident()?;
            match name.as_str() {
                "is_empty" => {
                    self.expect(Tok::LParen)?;
                    self.expect(Tok::RParen)?;
                    base = DExpr::IsEmpty(Box::new(base));
                }
                "count" => {
                    self.expect(Tok::LParen)?;
                    self.expect(Tok::RParen)?;
                    base = DExpr::Count(Box::new(base));
                }
                "first" => { /* sugar: field access on rows reads row 0 */ }
                column => {
                    base = DExpr::Field {
                        base: Box::new(base),
                        column: column.to_string(),
                    }
                }
            }
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<DExpr, DslError> {
        match self.bump() {
            Tok::Int(i) => Ok(DExpr::Lit(Value::Int(i))),
            Tok::Str(s) => Ok(DExpr::Lit(Value::str(s))),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(DExpr::Lit(Value::Bool(true))),
                "false" => Ok(DExpr::Lit(Value::Bool(false))),
                "null" => Ok(DExpr::Lit(Value::Null)),
                "sql" => {
                    self.expect(Tok::LParen)?;
                    let sql = match self.bump() {
                        Tok::Str(s) => s,
                        other => {
                            return Err(self.err(format!("expected SQL string, found {other:?}")))
                        }
                    };
                    self.expect(Tok::RParen)?;
                    Ok(DExpr::Sql {
                        sql: SqlSite::new(sql),
                    })
                }
                "params" => {
                    self.expect(Tok::Dot)?;
                    Ok(DExpr::Param(self.ident()?))
                }
                "session" => {
                    self.expect(Tok::Dot)?;
                    Ok(DExpr::Session(self.ident()?))
                }
                _ => Ok(DExpr::Var(name)),
            },
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 1 of the paper, in the DSL.
    pub const LISTING_1: &str = r#"
        handler show_event(event_id) {
            let rows = sql("SELECT 1 FROM Attendance
                            WHERE UId = ?MyUId AND EId = ?event_id");
            if rows.is_empty() {
                abort(404);
            }
            emit sql("SELECT * FROM Events WHERE EId = ?event_id");
        }
    "#;

    #[test]
    fn parses_listing_1() {
        let h = parse_handler(LISTING_1).unwrap();
        assert_eq!(h.name, "show_event");
        assert_eq!(h.params, vec!["event_id"]);
        assert_eq!(h.body.len(), 3);
        assert!(matches!(&h.body[0], Stmt::Let { var, .. } if var == "rows"));
        assert!(matches!(&h.body[1], Stmt::If { .. }));
        assert!(matches!(&h.body[2], Stmt::Emit { .. }));
    }

    #[test]
    fn parses_loops_and_fields() {
        let h = parse_handler(
            r#"
            handler list(x) {
                let rs = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                for r in rs {
                    emit r.EId;
                }
            }
            "#,
        )
        .unwrap();
        match &h.body[1] {
            Stmt::ForRow { var, body, .. } => {
                assert_eq!(var, "r");
                assert!(matches!(
                    &body[0],
                    Stmt::Emit { expr: DExpr::Field { column, .. } } if column == "EId"
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_conditions() {
        let h = parse_handler(
            r#"
            handler f() {
                let r = sql("SELECT Kind FROM Events WHERE EId = 1");
                if !r.is_empty() && r.first.Kind == "work" || r.count() > 3 {
                    return;
                } else {
                    abort(403);
                }
            }
            "#,
        )
        .unwrap();
        assert!(matches!(&h.body[1], Stmt::If { else_branch, .. } if else_branch.len() == 1));
    }

    #[test]
    fn parses_else_if_chain() {
        let h = parse_handler(
            r#"
            handler f(x) {
                if params.x == 1 {
                    return;
                } else if params.x == 2 {
                    abort(400);
                } else {
                    abort(404);
                }
            }
            "#,
        )
        .unwrap();
        match &h.body[0] {
            Stmt::If { else_branch, .. } => {
                assert!(matches!(&else_branch[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_app_with_multiple_handlers() {
        let app = parse_app(
            r#"
            handler a() { return; }
            handler b(x) { run sql("DELETE FROM t WHERE id = ?x"); }
            "#,
        )
        .unwrap();
        assert_eq!(app.handlers.len(), 2);
        assert!(app.handler("b").is_some());
    }

    #[test]
    fn sql_strings_keep_single_quotes() {
        let h = parse_handler(r#"handler f() { emit sql("SELECT 1 FROM t WHERE k = 'it''s'"); }"#)
            .unwrap();
        let mut seen = Vec::new();
        h.body[0].walk_sql(&mut |s| seen.push(s.to_string()));
        assert!(seen[0].contains("'it''s'"));
    }

    #[test]
    fn reports_parse_errors_with_position() {
        let err = parse_handler("handler f( { }").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }
}
