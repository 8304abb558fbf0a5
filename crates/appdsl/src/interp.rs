//! Concrete interpreter for handler programs.
//!
//! Handlers run against a [`QueryPort`] — anything that can answer SQL. The
//! two ports used in practice are a bare [`minidb::Database`] (development,
//! trace mining) and the enforcing proxy from `bep-core` (production, via an
//! adapter in `appsim`). The interpreter records every issued query, which
//! is exactly the trace the black-box extraction pipeline consumes.

use minidb::Rows;
use sqlir::{CmpResult, Value};

use crate::ast::{DBinOp, DExpr, Handler, SqlSite, Stmt};
use crate::error::DslError;

/// Anything that can answer SQL with named-parameter bindings.
pub trait QueryPort {
    /// Executes one statement.
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError>;
}

/// The result of one port call.
#[derive(Debug, Clone, PartialEq)]
pub enum PortOutcome {
    /// A `SELECT`'s rows.
    Rows(Rows),
    /// DML affected-row count.
    Affected(usize),
    /// The statement was blocked by enforcement.
    Blocked(String),
}

impl QueryPort for minidb::Database {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let stmt = sqlir::parse_statement(sql).map_err(|e| DslError::Port(e.to_string()))?;
        if let Some(e) = sqlir::unbound_error(&sqlir::params_in_bind_order(&stmt), bindings) {
            return Err(DslError::Port(e.to_string()));
        }
        match self
            .execute_with(&stmt, bindings)
            .map_err(|e| DslError::Port(e.to_string()))?
        {
            minidb::ExecResult::Rows(r) => Ok(PortOutcome::Rows(r)),
            minidb::ExecResult::Affected(n) => Ok(PortOutcome::Affected(n)),
            minidb::ExecResult::Created => Ok(PortOutcome::Affected(0)),
        }
    }
}

/// One request to an application: which handler, as whom, with what
/// parameters. Used by workload generators and the mining pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Handler to invoke.
    pub handler: String,
    /// Session fields (e.g. `MyUId = 1`).
    pub session: Vec<(String, Value)>,
    /// Request parameters.
    pub params: Vec<(String, Value)>,
}

/// A handler run's final status.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed normally.
    Ok,
    /// Terminated with an HTTP error (`abort(code)`).
    Http(u16),
    /// A query was blocked by the enforcement layer.
    Blocked {
        /// The blocked SQL template.
        sql: String,
    },
}

/// One query issued during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct IssuedQuery {
    /// The SQL template as written in the program.
    pub sql: String,
    /// The parameter bindings used.
    pub bindings: Vec<(String, Value)>,
    /// Rows returned (0 for DML).
    pub row_count: usize,
    /// Whether the result was emitted to the user.
    pub emitted: bool,
}

/// Data emitted to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum Emitted {
    /// A whole result set.
    Rows(Rows),
    /// A single scalar.
    Scalar(Value),
}

/// The complete record of one handler run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Final status.
    pub outcome: Outcome,
    /// Everything shown to the user, in order.
    pub emitted: Vec<Emitted>,
    /// Every query issued, in order.
    pub queries: Vec<IssuedQuery>,
}

impl RunResult {
    /// `true` if the run completed without abort or block.
    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Ok
    }
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum statements executed (runaway-loop guard).
    pub max_steps: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_steps: 100_000 }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RtVal {
    Scalar(Value),
    /// A result set, with the index of the producing query (provenance for
    /// emitted-data tracking).
    Rows(Rows, Option<usize>),
    Row {
        columns: Vec<String>,
        values: Vec<Value>,
        source: Option<usize>,
    },
}

impl RtVal {
    /// The producing query's index, if the value carries one.
    fn source_query(&self) -> Option<usize> {
        match self {
            RtVal::Rows(_, src) | RtVal::Row { source: src, .. } => *src,
            RtVal::Scalar(_) => None,
        }
    }
}

enum Flow {
    Normal,
    Return,
    Abort(u16),
    Blocked(String),
}

struct Interp<'a> {
    port: &'a mut dyn QueryPort,
    session: &'a [(String, Value)],
    params: &'a [(String, Value)],
    vars: Vec<(String, RtVal)>,
    result: RunResult,
    steps: usize,
    limits: Limits,
}

/// Runs a handler against a port.
///
/// `session` holds the session fields (shared namespace with the policy's
/// parameters, e.g. `MyUId`); `params` holds the request parameters.
pub fn run_handler(
    port: &mut dyn QueryPort,
    handler: &Handler,
    session: &[(String, Value)],
    params: &[(String, Value)],
    limits: Limits,
) -> Result<RunResult, DslError> {
    for p in &handler.params {
        if !params.iter().any(|(n, _)| n == p) {
            return Err(DslError::Unbound(format!("request parameter {p}")));
        }
    }
    let mut interp = Interp {
        port,
        session,
        params,
        vars: Vec::new(),
        result: RunResult {
            outcome: Outcome::Ok,
            emitted: Vec::new(),
            queries: Vec::new(),
        },
        steps: 0,
        limits,
    };
    let flow = interp.block(&handler.body)?;
    interp.result.outcome = match flow {
        Flow::Normal | Flow::Return => Outcome::Ok,
        Flow::Abort(code) => Outcome::Http(code),
        Flow::Blocked(sql) => Outcome::Blocked { sql },
    };
    Ok(interp.result)
}

impl<'a> Interp<'a> {
    fn tick(&mut self) -> Result<(), DslError> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(DslError::StepBudgetExceeded);
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Flow, DslError> {
        for s in stmts {
            match self.stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Flow, DslError> {
        self.tick()?;
        match s {
            Stmt::Let { var, expr } => match self.eval(expr)? {
                Err(sql) => Ok(Flow::Blocked(sql)),
                Ok(v) => {
                    self.set_var(var, v);
                    Ok(Flow::Normal)
                }
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = match self.eval(cond)? {
                    Err(sql) => return Ok(Flow::Blocked(sql)),
                    Ok(v) => v,
                };
                if truthy(&c)? {
                    self.block(then_branch)
                } else {
                    self.block(else_branch)
                }
            }
            Stmt::ForRow { var, rows, body } => {
                let rv = match self.eval(rows)? {
                    Err(sql) => return Ok(Flow::Blocked(sql)),
                    Ok(v) => v,
                };
                let RtVal::Rows(rows, source) = rv else {
                    return Err(DslError::Kind("for-in expects a rows value".into()));
                };
                for row in &rows.rows {
                    self.set_var(
                        var,
                        RtVal::Row {
                            columns: rows.columns.clone(),
                            values: row.clone(),
                            source,
                        },
                    );
                    match self.block(body)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Emit { expr } => {
                // Mark SQL issued directly in an emit as emitted-to-user.
                let emitted_directly = matches!(expr, DExpr::Sql { .. });
                let v = match self.eval(expr)? {
                    Err(sql) => return Ok(Flow::Blocked(sql)),
                    Ok(v) => v,
                };
                if emitted_directly {
                    if let Some(q) = self.result.queries.last_mut() {
                        q.emitted = true;
                    }
                }
                // Data-flow marking: the emitted value's own provenance,
                // plus any rows-typed variable the expression touched
                // (covers `emit rows.count()` and `emit row.Col`).
                if let Some(idx) = v.source_query() {
                    if let Some(q) = self.result.queries.get_mut(idx) {
                        q.emitted = true;
                    }
                }
                let mut sources: Vec<usize> = Vec::new();
                collect_var_sources(expr, &self.vars, &mut sources);
                for idx in sources {
                    if let Some(q) = self.result.queries.get_mut(idx) {
                        q.emitted = true;
                    }
                }
                match v {
                    RtVal::Rows(r, _) => self.result.emitted.push(Emitted::Rows(r)),
                    RtVal::Scalar(v) => self.result.emitted.push(Emitted::Scalar(v)),
                    RtVal::Row {
                        values, columns, ..
                    } => self.result.emitted.push(Emitted::Rows(Rows {
                        columns,
                        rows: vec![values],
                    })),
                }
                Ok(Flow::Normal)
            }
            Stmt::Run { sql } => match self.issue(sql)? {
                Err(blocked_sql) => Ok(Flow::Blocked(blocked_sql)),
                Ok(_) => Ok(Flow::Normal),
            },
            Stmt::Abort { code } => Ok(Flow::Abort(*code)),
            Stmt::Return => Ok(Flow::Return),
        }
    }

    fn set_var(&mut self, name: &str, v: RtVal) {
        if let Some(slot) = self.vars.iter_mut().find(|(n, _)| n == name) {
            slot.1 = v;
        } else {
            self.vars.push((name.to_string(), v));
        }
    }

    /// Resolves the named parameters a SQL site needs, then issues it.
    /// Returns `Err(sql)` inside `Ok` when the enforcement layer blocked it.
    #[allow(clippy::type_complexity)]
    fn issue(&mut self, site: &SqlSite) -> Result<Result<RtVal, String>, DslError> {
        let sql = site.text();
        let named = site.named_params()?;
        let mut bindings = Vec::with_capacity(named.len());
        for name in named {
            bindings.push((name.clone(), self.resolve_scalar(name)?));
        }
        let outcome = self.port.run(sql, &bindings)?;
        let issued_index = self.result.queries.len();
        let (val, count) = match outcome {
            PortOutcome::Rows(r) => {
                let n = r.len();
                (RtVal::Rows(r, Some(issued_index)), n)
            }
            PortOutcome::Affected(n) => (RtVal::Scalar(Value::Int(n as i64)), n),
            PortOutcome::Blocked(_reason) => {
                self.result.queries.push(IssuedQuery {
                    sql: sql.to_string(),
                    bindings,
                    row_count: 0,
                    emitted: false,
                });
                return Ok(Err(sql.to_string()));
            }
        };
        self.result.queries.push(IssuedQuery {
            sql: sql.to_string(),
            bindings,
            row_count: count,
            emitted: false,
        });
        Ok(Ok(val))
    }

    /// Resolution order for `?name` in SQL and bare names in expressions:
    /// let-bound scalars, then request parameters, then session fields.
    fn resolve_scalar(&self, name: &str) -> Result<Value, DslError> {
        if let Some((_, v)) = self.vars.iter().find(|(n, _)| n == name) {
            return match v {
                RtVal::Scalar(s) => Ok(s.clone()),
                _ => Err(DslError::Kind(format!("{name} is not a scalar"))),
            };
        }
        if let Some((_, v)) = self.params.iter().find(|(n, _)| n == name) {
            return Ok(v.clone());
        }
        if let Some((_, v)) = self.session.iter().find(|(n, _)| n == name) {
            return Ok(v.clone());
        }
        Err(DslError::UnresolvedSqlParam(name.to_string()))
    }

    #[allow(clippy::type_complexity)]
    fn eval(&mut self, e: &DExpr) -> Result<Result<RtVal, String>, DslError> {
        self.tick()?;
        Ok(match e {
            DExpr::Lit(v) => Ok(RtVal::Scalar(v.clone())),
            DExpr::Param(p) => match self.params.iter().find(|(n, _)| n == p) {
                Some((_, v)) => Ok(RtVal::Scalar(v.clone())),
                None => return Err(DslError::Unbound(format!("params.{p}"))),
            },
            DExpr::Session(s) => match self.session.iter().find(|(n, _)| n == s) {
                Some((_, v)) => Ok(RtVal::Scalar(v.clone())),
                None => return Err(DslError::Unbound(format!("session.{s}"))),
            },
            DExpr::Var(v) => match self.vars.iter().find(|(n, _)| n == v) {
                Some((_, val)) => Ok(val.clone()),
                None => return Err(DslError::Unbound(v.clone())),
            },
            DExpr::Sql { sql } => self.issue(sql)?,
            DExpr::IsEmpty(inner) => match self.eval(inner)? {
                Err(b) => Err(b),
                Ok(RtVal::Rows(r, _)) => Ok(RtVal::Scalar(Value::Bool(r.is_empty()))),
                Ok(_) => return Err(DslError::Kind("is_empty() expects rows".into())),
            },
            DExpr::Count(inner) => match self.eval(inner)? {
                Err(b) => Err(b),
                Ok(RtVal::Rows(r, _)) => Ok(RtVal::Scalar(Value::Int(r.len() as i64))),
                Ok(_) => return Err(DslError::Kind("count() expects rows".into())),
            },
            DExpr::Field { base, column } => match self.eval(base)? {
                Err(b) => Err(b),
                Ok(RtVal::Rows(r, _)) => {
                    let idx = r
                        .column_index(column)
                        .ok_or_else(|| DslError::Kind(format!("no column {column}")))?;
                    match r.rows.first() {
                        Some(row) => Ok(RtVal::Scalar(row[idx].clone())),
                        None => Ok(RtVal::Scalar(Value::Null)),
                    }
                }
                Ok(RtVal::Row {
                    columns, values, ..
                }) => {
                    let idx = columns
                        .iter()
                        .position(|c| c == column)
                        .ok_or_else(|| DslError::Kind(format!("no column {column}")))?;
                    Ok(RtVal::Scalar(values[idx].clone()))
                }
                Ok(RtVal::Scalar(_)) => {
                    return Err(DslError::Kind(format!(
                        "field access .{column} on a scalar"
                    )))
                }
            },
            DExpr::Not(inner) => match self.eval(inner)? {
                Err(b) => Err(b),
                Ok(v) => Ok(RtVal::Scalar(Value::Bool(!truthy(&v)?))),
            },
            DExpr::Binary { op, lhs, rhs } => {
                let l = match self.eval(lhs)? {
                    Err(b) => return Ok(Err(b)),
                    Ok(v) => v,
                };
                // Short-circuit logical operators.
                if *op == DBinOp::And && !truthy(&l)? {
                    return Ok(Ok(RtVal::Scalar(Value::Bool(false))));
                }
                if *op == DBinOp::Or && truthy(&l)? {
                    return Ok(Ok(RtVal::Scalar(Value::Bool(true))));
                }
                let r = match self.eval(rhs)? {
                    Err(b) => return Ok(Err(b)),
                    Ok(v) => v,
                };
                match op {
                    DBinOp::And | DBinOp::Or => Ok(RtVal::Scalar(Value::Bool(truthy(&r)?))),
                    cmp => {
                        let (RtVal::Scalar(a), RtVal::Scalar(b)) = (&l, &r) else {
                            return Err(DslError::Kind("comparison on non-scalars".into()));
                        };
                        let res = match a.sql_cmp(b) {
                            None => CmpResult::Unknown,
                            Some(ord) => {
                                use std::cmp::Ordering::*;
                                CmpResult::from_bool(match cmp {
                                    DBinOp::Eq => ord == Equal,
                                    DBinOp::Ne => ord != Equal,
                                    DBinOp::Lt => ord == Less,
                                    DBinOp::Le => ord != Greater,
                                    DBinOp::Gt => ord == Greater,
                                    DBinOp::Ge => ord != Less,
                                    DBinOp::And | DBinOp::Or => unreachable!(),
                                })
                            }
                        };
                        Ok(RtVal::Scalar(Value::Bool(res.is_true())))
                    }
                }
            }
        })
    }
}

/// Collects the producing-query indices of rows-typed variables referenced
/// anywhere in an expression (the data-flow half of emitted-data marking).
fn collect_var_sources(expr: &DExpr, vars: &[(String, RtVal)], out: &mut Vec<usize>) {
    match expr {
        DExpr::Var(v) => {
            if let Some((_, val)) = vars.iter().find(|(n, _)| n == v) {
                if let Some(idx) = val.source_query() {
                    if !out.contains(&idx) {
                        out.push(idx);
                    }
                }
            }
        }
        DExpr::Lit(_) | DExpr::Param(_) | DExpr::Session(_) | DExpr::Sql { .. } => {}
        DExpr::IsEmpty(inner) | DExpr::Count(inner) | DExpr::Not(inner) => {
            collect_var_sources(inner, vars, out)
        }
        DExpr::Field { base, .. } => collect_var_sources(base, vars, out),
        DExpr::Binary { lhs, rhs, .. } => {
            collect_var_sources(lhs, vars, out);
            collect_var_sources(rhs, vars, out);
        }
    }
}

/// DSL truthiness: booleans as themselves; `NULL` is false; anything else is
/// a kind error (no implicit int-to-bool coercion).
fn truthy(v: &RtVal) -> Result<bool, DslError> {
    match v {
        RtVal::Scalar(Value::Bool(b)) => Ok(*b),
        RtVal::Scalar(Value::Null) => Ok(false),
        other => Err(DslError::Kind(format!("expected boolean, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_handler;
    use minidb::Database;

    fn calendar_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
             (3, 'party', 'fun')",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake')",
        )
        .unwrap();
        db
    }

    const LISTING_1: &str = r#"
        handler show_event(event_id) {
            let rows = sql("SELECT 1 FROM Attendance
                            WHERE UId = ?MyUId AND EId = ?event_id");
            if rows.is_empty() {
                abort(404);
            }
            emit sql("SELECT * FROM Events WHERE EId = ?event_id");
        }
    "#;

    fn session(uid: i64) -> Vec<(String, Value)> {
        vec![("MyUId".to_string(), Value::Int(uid))]
    }

    #[test]
    fn listing_1_happy_path() {
        let mut db = calendar_db();
        let h = parse_handler(LISTING_1).unwrap();
        let r = run_handler(
            &mut db,
            &h,
            &session(1),
            &[("event_id".into(), Value::Int(2))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Ok);
        assert_eq!(r.queries.len(), 2);
        assert!(!r.queries[0].emitted, "the access check is not shown");
        assert!(r.queries[1].emitted, "the event fetch is shown");
        match &r.emitted[0] {
            Emitted::Rows(rows) => assert_eq!(rows.rows[0][1], Value::str("standup")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn listing_1_denies_non_attendee() {
        let mut db = calendar_db();
        let h = parse_handler(LISTING_1).unwrap();
        let r = run_handler(
            &mut db,
            &h,
            &session(1),
            &[("event_id".into(), Value::Int(3))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Http(404));
        assert_eq!(r.queries.len(), 1, "the fetch is never issued");
    }

    #[test]
    fn loops_iterate_rows() {
        let mut db = calendar_db();
        let h = parse_handler(
            r#"
            handler my_event_kinds() {
                let rs = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                for r in rs {
                    let e = sql("SELECT Kind FROM Events WHERE EId = ?eid");
                    emit e;
                }
            }
            "#,
        );
        // `?eid` must resolve against the loop row — which needs a let
        // binding of the scalar first.
        let h = h.unwrap();
        let err = run_handler(&mut db, &h, &session(1), &[], Limits::default()).unwrap_err();
        assert!(matches!(err, DslError::UnresolvedSqlParam(_)));

        let h = parse_handler(
            r#"
            handler my_event_kinds() {
                let rs = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                for r in rs {
                    let eid = r.EId;
                    let e = sql("SELECT Kind FROM Events WHERE EId = ?eid");
                    emit e;
                }
            }
            "#,
        )
        .unwrap();
        let r = run_handler(&mut db, &h, &session(2), &[], Limits::default()).unwrap();
        assert_eq!(r.outcome, Outcome::Ok);
        assert_eq!(r.emitted.len(), 1);
        match &r.emitted[0] {
            Emitted::Rows(rows) => assert_eq!(rows.rows[0][0], Value::str("fun")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn field_and_comparison() {
        let mut db = calendar_db();
        let h = parse_handler(
            r#"
            handler kind_gate(event_id) {
                let e = sql("SELECT Kind FROM Events WHERE EId = ?event_id");
                if e.is_empty() {
                    abort(404);
                }
                if e.first.Kind == "work" {
                    emit 1;
                } else {
                    emit 0;
                }
            }
            "#,
        )
        .unwrap();
        let r = run_handler(
            &mut db,
            &h,
            &session(1),
            &[("event_id".into(), Value::Int(2))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(r.emitted, vec![Emitted::Scalar(Value::Int(1))]);
    }

    #[test]
    fn run_executes_dml() {
        let mut db = calendar_db();
        let h = parse_handler(
            r#"
            handler join_event(event_id) {
                run sql("INSERT INTO Attendance (UId, EId, Notes)
                         VALUES (?MyUId, ?event_id, NULL)");
            }
            "#,
        )
        .unwrap();
        run_handler(
            &mut db,
            &h,
            &session(1),
            &[("event_id".into(), Value::Int(3))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(db.table("Attendance").unwrap().len(), 3);
    }

    #[test]
    fn step_budget_stops_runaway() {
        let mut db = calendar_db();
        let h = parse_handler(
            r#"
            handler spin() {
                let rs = sql("SELECT EId FROM Events");
                for a in rs {
                    for b in rs {
                        emit 1;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let err = run_handler(&mut db, &h, &session(1), &[], Limits { max_steps: 5 }).unwrap_err();
        assert_eq!(err, DslError::StepBudgetExceeded);
    }

    #[test]
    fn missing_request_param_is_an_error() {
        let mut db = calendar_db();
        let h = parse_handler(LISTING_1).unwrap();
        let err = run_handler(&mut db, &h, &session(1), &[], Limits::default()).unwrap_err();
        assert!(matches!(err, DslError::Unbound(_)));
    }
}
