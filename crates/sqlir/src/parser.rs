//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{
    Assignment, BinaryOp, ColumnDef, ColumnRef, CreateTable, Delete, Distinctness, Expr, Insert,
    JoinClause, OrderKey, Param, Query, SelectItem, SetFunc, Statement, TableConstraint, TableRef,
    UnaryOp, Update,
};
use crate::error::ParseError;
use crate::token::{lex, SpannedTok, Tok};
use crate::value::{SqlType, Value};

/// Parses a single SQL statement.
///
/// # Examples
///
/// ```
/// let stmt = sqlir::parse_statement("SELECT * FROM Events WHERE EId = 2").unwrap();
/// assert!(stmt.is_read_only());
/// ```
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(input)?;
    let stmt = p.statement()?;
    p.eat_if(&Tok::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a semicolon-separated sequence of statements.
pub fn parse_statements(input: &str) -> Result<Vec<Statement>, ParseError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat_if(&Tok::Semicolon) {}
        if p.peek() == &Tok::Eof {
            break;
        }
        out.push(p.statement()?);
        if !p.eat_if(&Tok::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parses a `SELECT` query (rejecting other statement kinds).
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    match parse_statement(input)? {
        Statement::Select(q) => Ok(q),
        _ => Err(ParseError::new("expected a SELECT query", 0)),
    }
}

/// Parses a standalone scalar expression (useful for tests and tools).
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_if(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn peek2_kw(&self, kw: &str) -> bool {
        matches!(self.peek2(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat_if(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing {}", self.peek().describe())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.offset())
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek_kw("SELECT") {
            Ok(Statement::Select(self.query()?))
        } else if self.peek_kw("INSERT") {
            Ok(Statement::Insert(self.insert()?))
        } else if self.peek_kw("UPDATE") {
            Ok(Statement::Update(self.update()?))
        } else if self.peek_kw("DELETE") {
            Ok(Statement::Delete(self.delete()?))
        } else if self.peek_kw("CREATE") {
            Ok(Statement::CreateTable(self.create_table()?))
        } else {
            Err(self.err(format!(
                "expected SELECT, INSERT, UPDATE, DELETE or CREATE, found {}",
                self.peek().describe()
            )))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let mut q = Query::new();
        if self.eat_kw("DISTINCT") {
            q.distinct = Distinctness::Distinct;
        } else {
            self.eat_kw("ALL");
        }
        loop {
            q.items.push(self.select_item()?);
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            loop {
                q.from.push(self.table_ref()?);
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
            while self.peek_kw("JOIN") || self.peek_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                q.joins.push(JoinClause { table, on });
            }
        }
        if self.eat_kw("WHERE") {
            q.where_clause = Some(self.expr()?);
        }
        if self.peek_kw("GROUP") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                q.group_by.push(self.expr()?);
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            q.having = Some(self.expr()?);
        }
        if self.peek_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                q.order_by.push(OrderKey { expr, desc });
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => q.limit = Some(n as u64),
                other => {
                    return Err(self.err(format!(
                        "expected non-negative LIMIT count, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(q)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.peek() == &Tok::Star {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let Tok::Ident(name) = self.peek().clone() {
            if self.peek2() == &Tok::Dot {
                let saved = self.pos;
                self.bump();
                self.bump();
                if self.peek() == &Tok::Star {
                    self.bump();
                    return Ok(SelectItem::QualifiedWildcard(name));
                }
                self.pos = saved;
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Tok::Ident(s) = self.peek() {
            // Bare alias, but not a clause keyword.
            let up = s.to_ascii_uppercase();
            const CLAUSE_KWS: &[&str] = &[
                "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON",
            ];
            if CLAUSE_KWS.contains(&up.as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Tok::Ident(s) = self.peek() {
            let up = s.to_ascii_uppercase();
            const CLAUSE_KWS: &[&str] = &[
                "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "SET",
            ];
            if CLAUSE_KWS.contains(&up.as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn insert(&mut self) -> Result<Insert, ParseError> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_if(&Tok::LParen) {
            loop {
                columns.push(self.column_once(columns.iter())?);
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Tok::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            rows.push(row);
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Update, ParseError> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.column_once(assignments.iter().map(|a: &Assignment| &a.column))?;
            self.expect(&Tok::Eq)?;
            let value = self.expr()?;
            assignments.push(Assignment { column, value });
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            assignments,
            where_clause,
        })
    }

    /// A column name not among `seen`. As in Postgres, an `INSERT` column
    /// list or an `UPDATE` `SET` list may name a column only once: a write
    /// check that reads one of two values and a store that keeps the other
    /// would disagree about the row written.
    fn column_once<'s>(
        &mut self,
        mut seen: impl Iterator<Item = &'s String>,
    ) -> Result<String, ParseError> {
        let at = self.offset();
        let column = self.ident()?;
        if seen.any(|c| *c == column) {
            return Err(ParseError::new(
                format!("column `{column}` specified more than once"),
                at,
            ));
        }
        Ok(column)
    }

    fn delete(&mut self) -> Result<Delete, ParseError> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Delete {
            table,
            where_clause,
        })
    }

    fn create_table(&mut self) -> Result<CreateTable, ParseError> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.peek_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                constraints.push(TableConstraint::PrimaryKey(self.paren_ident_list()?));
            } else if self.peek_kw("UNIQUE") && self.peek2() == &Tok::LParen {
                self.bump();
                constraints.push(TableConstraint::Unique(self.paren_ident_list()?));
            } else if self.peek_kw("FOREIGN") {
                self.bump();
                self.expect_kw("KEY")?;
                let cols = self.paren_ident_list()?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.ident()?;
                let ref_columns = if self.peek() == &Tok::LParen {
                    self.paren_ident_list()?
                } else {
                    Vec::new()
                };
                constraints.push(TableConstraint::ForeignKey {
                    columns: cols,
                    ref_table,
                    ref_columns,
                });
            } else {
                let cname = self.ident()?;
                let tyname = self.ident()?;
                let ty = SqlType::parse(&tyname)
                    .ok_or_else(|| self.err(format!("unknown column type `{tyname}`")))?;
                let mut def = ColumnDef {
                    name: cname,
                    ty,
                    not_null: false,
                    primary_key: false,
                    unique: false,
                };
                loop {
                    if self.peek_kw("NOT") {
                        self.bump();
                        self.expect_kw("NULL")?;
                        def.not_null = true;
                    } else if self.peek_kw("PRIMARY") {
                        self.bump();
                        self.expect_kw("KEY")?;
                        def.primary_key = true;
                    } else if self.eat_kw("UNIQUE") {
                        def.unique = true;
                    } else {
                        break;
                    }
                }
                columns.push(def);
            }
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn paren_ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        loop {
            out.push(self.ident()?);
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinaryOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.peek_kw("AND") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinaryOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.peek_kw("NOT") && !self.peek2_kw("EXISTS") {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.predicate()
    }

    /// Comparison-level predicates: `cmp`, `IS NULL`, `IN`, `BETWEEN`,
    /// `LIKE`, `EXISTS`.
    fn predicate(&mut self) -> Result<Expr, ParseError> {
        if self.peek_kw("EXISTS") || (self.peek_kw("NOT") && self.peek2_kw("EXISTS")) {
            let negated = self.eat_kw("NOT");
            self.expect_kw("EXISTS")?;
            self.expect(&Tok::LParen)?;
            let query = self.query()?;
            self.expect(&Tok::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(query),
                negated,
            });
        }
        let lhs = self.additive()?;
        // IS [NOT] NULL
        if self.peek_kw("IS") {
            self.bump();
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = if self.peek_kw("NOT")
            && (self.peek2_kw("IN") || self.peek2_kw("BETWEEN") || self.peek2_kw("LIKE"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect(&Tok::LParen)?;
            if self.peek_kw("SELECT") {
                let query = self.query()?;
                self.expect(&Tok::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_if(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN, BETWEEN or LIKE after NOT"));
        }
        // Plain comparison.
        let op = match self.peek() {
            Tok::Eq => Some(BinaryOp::Eq),
            Tok::Ne => Some(BinaryOp::Ne),
            Tok::Lt => Some(BinaryOp::Lt),
            Tok::Le => Some(BinaryOp::Le),
            Tok::Gt => Some(BinaryOp::Gt),
            Tok::Ge => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinaryOp::Add,
                Tok::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinaryOp::Mul,
                Tok::Slash => BinaryOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_if(&Tok::Minus) {
            let inner = self.unary()?;
            // Fold negative integer literals directly.
            if let Expr::Literal(Value::Int(i)) = inner {
                return Ok(Expr::Literal(Value::Int(-i)));
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_if(&Tok::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::str(s)))
            }
            Tok::NamedParam(n) => {
                self.bump();
                Ok(Expr::Param(Param::Named(n)))
            }
            Tok::PositionalParam(i) => {
                self.bump();
                Ok(Expr::Param(Param::Positional(i)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let up = name.to_ascii_uppercase();
                // Reserved words never act as column references.
                const RESERVED: &[&str] = &[
                    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN",
                    "INNER", "ON", "AND", "OR", "AS", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
                    "DELETE", "CREATE", "TABLE", "DISTINCT", "ALL",
                ];
                if RESERVED.contains(&up.as_str()) {
                    return Err(
                        self.err(format!("expected expression, found reserved word `{name}`"))
                    );
                }
                match up.as_str() {
                    "NULL" => {
                        self.bump();
                        return Ok(Expr::Literal(Value::Null));
                    }
                    "TRUE" => {
                        self.bump();
                        return Ok(Expr::Literal(Value::Bool(true)));
                    }
                    "FALSE" => {
                        self.bump();
                        return Ok(Expr::Literal(Value::Bool(false)));
                    }
                    _ => {}
                }
                // Aggregate call?
                if let Some(func) = SetFunc::parse(&name) {
                    if self.peek2() == &Tok::LParen {
                        self.bump();
                        self.bump();
                        if self.peek() == &Tok::Star {
                            if func != SetFunc::Count {
                                return Err(
                                    self.err(format!("{}(*) is only valid for COUNT", func.name()))
                                );
                            }
                            self.bump();
                            self.expect(&Tok::RParen)?;
                            return Ok(Expr::Agg {
                                func,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = self.expr()?;
                        self.expect(&Tok::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                }
                // Column reference, possibly qualified.
                self.bump();
                if self.peek() == &Tok::Dot {
                    self.bump();
                    let col = self.ident()?;
                    Ok(Expr::Column(ColumnRef::qualified(name, col)))
                } else {
                    Ok(Expr::Column(ColumnRef::new(name)))
                }
            }
            other => Err(self.err(format!("expected expression, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing1_queries() {
        // The two queries from the paper's Example 2.1.
        let q1 = parse_query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").unwrap();
        assert_eq!(q1.from[0].table, "Attendance");
        assert_eq!(q1.where_clause.as_ref().unwrap().conjuncts().len(), 2);

        let q2 = parse_query("SELECT * FROM Events WHERE EId = 2").unwrap();
        assert_eq!(q2.items, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn parses_view_v2() {
        let v2 = parse_query(
            "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
        )
        .unwrap();
        assert_eq!(v2.from[0].alias.as_deref(), Some("e"));
        assert_eq!(v2.joins.len(), 1);
        match v2.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Eq,
                rhs,
                ..
            } => {
                assert_eq!(*rhs, Expr::Param(Param::Named("MyUId".into())));
            }
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let q = parse_query(
            "SELECT DId, COUNT(*) AS n FROM Treats GROUP BY DId HAVING COUNT(*) > 1 \
             ORDER BY n DESC LIMIT 5",
        )
        .unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.limit, Some(5));
        assert!(q.order_by[0].desc);
    }

    #[test]
    fn parses_subqueries() {
        let q = parse_query(
            "SELECT Name FROM Users WHERE UId IN (SELECT UId FROM Attendance WHERE EId = 3)",
        )
        .unwrap();
        match q.where_clause.unwrap() {
            Expr::InSubquery { negated: false, .. } => {}
            other => panic!("unexpected: {other:?}"),
        }

        let q = parse_query(
            "SELECT 1 FROM Events e WHERE NOT EXISTS \
             (SELECT 1 FROM Attendance a WHERE a.EId = e.EId)",
        )
        .unwrap();
        match q.where_clause.unwrap() {
            Expr::Exists { negated: true, .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_between_like_in_list() {
        let e = parse_expr("age BETWEEN 18 AND 60").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expr("name NOT LIKE 'A%'").unwrap();
        assert!(matches!(e, Expr::Like { negated: true, .. }));
        let e = parse_expr("x IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { ref list, .. } if list.len() == 3));
    }

    #[test]
    fn precedence_or_and() {
        // a = 1 OR b = 2 AND c = 3  ==  a = 1 OR (b = 2 AND c = 3)
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Or,
                rhs,
                ..
            } => match *rhs {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("expected AND on rhs, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    *rhs,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::int(-5));
    }

    #[test]
    fn parses_dml() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.columns, vec!["a", "b"]);
                assert_eq!(ins.rows.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let s = parse_statement("UPDATE t SET a = 1, b = 'z' WHERE a = 0").unwrap();
        assert!(matches!(s, Statement::Update(u) if u.assignments.len() == 2));
        let s = parse_statement("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(s, Statement::Delete(_)));
    }

    #[test]
    fn a_column_named_twice_is_refused() {
        for (sql, at) in [
            ("INSERT INTO t (a, b, a) VALUES (1, 2, 3)", 21),
            ("UPDATE t SET a = 1, b = 2, a = 3 WHERE a = 0", 27),
        ] {
            let err = parse_statement(sql).unwrap_err();
            assert_eq!(err.message, "column `a` specified more than once", "{sql}");
            assert_eq!(err.offset, at, "{sql}");
        }
    }

    #[test]
    fn parses_create_table() {
        let s = parse_statement(
            "CREATE TABLE Attendance (
                 UId INT NOT NULL,
                 EId INT NOT NULL,
                 Notes TEXT,
                 PRIMARY KEY (UId, EId),
                 FOREIGN KEY (UId) REFERENCES Users (UId),
                 FOREIGN KEY (EId) REFERENCES Events (EId)
             )",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 3);
                assert_eq!(ct.constraints.len(), 3);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_multiple_statements() {
        let stmts = parse_statements("SELECT 1; SELECT 2;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(err.offset > 0);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_statement("SELECT 1 FROM t garbage garbage").is_err());
    }

    #[test]
    fn positional_params_are_numbered() {
        let q = parse_query("SELECT 1 FROM t WHERE a = ? AND b = ?").unwrap();
        let mut seen = Vec::new();
        crate::ast::walk_query(&q, &mut |e| {
            if let Expr::Param(Param::Positional(i)) = e {
                seen.push(*i);
            }
        });
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn count_star_requires_count() {
        assert!(parse_expr("SUM(*)").is_err());
        assert!(parse_expr("COUNT(*)").is_ok());
        assert!(parse_expr("COUNT(DISTINCT x)").is_ok());
    }
}
