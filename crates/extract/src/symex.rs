//! Symbolic execution of handler programs (§3.2.1).
//!
//! The executor runs a handler with *symbolic* request parameters, session
//! fields, and query results. Branches on query emptiness fork the path;
//! each explored path records:
//!
//! * every query issued, with each SQL parameter resolved to a symbolic
//!   scalar (session field, request parameter, literal, or a *field* of an
//!   earlier query's result — the data-dependency edge);
//! * the path condition, as emptiness/non-emptiness literals over issued
//!   queries;
//! * which queries' results were emitted to the user.
//!
//! Loops are unrolled a bounded number of times, following the paper's
//! observation that web-application loop structure is simple; conditions the
//! symbolic domain cannot express (comparisons over unknown scalars) fork
//! both ways with no recorded literal, which makes the resulting views
//! over-approximate those branches — the safe direction for a draft policy a
//! human will review.

use sqlir::Value;

use crate::error::ExtractError;
use appdsl::ast::{DBinOp, DExpr, Handler, SqlSite, Stmt};

/// Identifies a query issued on a path (issue order within the path).
pub type QueryId = usize;

/// A symbolic scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum SymScalar {
    /// A concrete literal from the program text.
    Lit(Value),
    /// A request parameter (symbolic, per-request).
    Param(String),
    /// A session field (symbolic, shared with the policy's namespace).
    Session(String),
    /// Column `column` of the first/current row of query `query`'s result.
    Field {
        /// The producing query.
        query: QueryId,
        /// The column name.
        column: String,
    },
    /// The row count of a query's result (opaque to view generation).
    Count(QueryId),
    /// A value the symbolic domain cannot track.
    Opaque,
}

/// A path-condition literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Query `0` returned no rows.
    Empty(QueryId),
    /// Query `0` returned at least one row.
    NonEmpty(QueryId),
}

/// A query issued along a path.
#[derive(Debug, Clone, PartialEq)]
pub struct SymQuery {
    /// Issue-order id within the path.
    pub id: QueryId,
    /// SQL text as written (named parameters unresolved).
    pub sql: String,
    /// Resolution of each named SQL parameter.
    pub bindings: Vec<(String, SymScalar)>,
    /// Whether this query's result reaches the user.
    pub emitted: bool,
}

/// One fully-explored execution path.
#[derive(Debug, Clone, PartialEq)]
pub struct SymPath {
    /// Emptiness literals accumulated along the path.
    pub conditions: Vec<Cond>,
    /// Queries issued, in order.
    pub queries: Vec<SymQuery>,
    /// How the path terminated.
    pub outcome: PathOutcome,
}

/// How a symbolic path ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOutcome {
    /// Normal completion.
    Ok,
    /// `abort(code)`.
    Http(u16),
}

/// Limits for path exploration.
#[derive(Debug, Clone, Copy)]
pub struct SymLimits {
    /// Maximum number of paths explored per handler.
    pub max_paths: usize,
    /// Loop unrolling depth (0 and 1..=unroll iterations are explored).
    pub unroll: usize,
}

impl Default for SymLimits {
    fn default() -> SymLimits {
        SymLimits {
            max_paths: 256,
            unroll: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum SymVal {
    Scalar(SymScalar),
    Rows(QueryId),
    /// A row of query `0` (loop variable).
    Row(QueryId),
}

#[derive(Debug, Clone)]
struct PathState {
    conditions: Vec<Cond>,
    queries: Vec<SymQuery>,
    vars: Vec<(String, SymVal)>,
}

/// Symbolically executes a handler, returning all explored paths.
pub fn explore(handler: &Handler, limits: SymLimits) -> Result<Vec<SymPath>, ExtractError> {
    let mut paths = Vec::new();
    let state = PathState {
        conditions: Vec::new(),
        queries: Vec::new(),
        vars: Vec::new(),
    };
    let mut ex = Explorer {
        limits,
        paths: &mut paths,
        truncated: false,
    };
    ex.block(&handler.body, state, &mut |ex, st| {
        ex.finish(st, PathOutcome::Ok);
    });
    Ok(paths)
}

struct Explorer<'a> {
    limits: SymLimits,
    paths: &'a mut Vec<SymPath>,
    truncated: bool,
}

/// Continuation style: `k` receives the explorer and the state after the
/// block completes normally; terminating statements call `finish` instead.
type Cont<'c> = &'c mut dyn FnMut(&mut Explorer<'_>, PathState);

impl<'a> Explorer<'a> {
    fn finish(&mut self, st: PathState, outcome: PathOutcome) {
        if self.paths.len() >= self.limits.max_paths {
            self.truncated = true;
            return;
        }
        self.paths.push(SymPath {
            conditions: st.conditions,
            queries: st.queries,
            outcome,
        });
    }

    fn over_budget(&self) -> bool {
        self.paths.len() >= self.limits.max_paths
    }

    fn block(&mut self, stmts: &[Stmt], st: PathState, k: Cont<'_>) {
        if self.over_budget() {
            return;
        }
        match stmts.split_first() {
            None => k(self, st),
            Some((first, rest)) => {
                self.stmt(first, st, &mut |ex, st2| ex.block(rest, st2, k));
            }
        }
    }

    fn stmt(&mut self, s: &Stmt, st: PathState, k: Cont<'_>) {
        if self.over_budget() {
            return;
        }
        match s {
            Stmt::Let { var, expr } => {
                let var = var.clone();
                self.eval(expr, st, &mut |ex, mut st2, v| {
                    set_var(&mut st2.vars, &var, v);
                    k(ex, st2);
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.eval_bool(cond, st, &mut |ex, st2, b| {
                    if b {
                        ex.block(then_branch, st2, k);
                    } else {
                        ex.block(else_branch, st2, k);
                    }
                });
            }
            Stmt::ForRow { var, rows, body } => {
                let var = var.clone();
                let unroll = self.limits.unroll;
                self.eval(rows, st, &mut |ex, st2, v| {
                    let SymVal::Rows(qid) = v else {
                        return; // kind error: drop the path silently
                    };
                    // Zero iterations (result may be empty).
                    let mut st_zero = st2.clone();
                    push_cond(&mut st_zero.conditions, Cond::Empty(qid));
                    ex.block(&[], st_zero, k);
                    // 1..=unroll iterations.
                    for iters in 1..=unroll {
                        let mut st_n = st2.clone();
                        push_cond(&mut st_n.conditions, Cond::NonEmpty(qid));
                        set_var(&mut st_n.vars, &var, SymVal::Row(qid));
                        // Unroll the body `iters` times sequentially.
                        let mut repeated: Vec<Stmt> = Vec::new();
                        for _ in 0..iters {
                            repeated.extend(body.iter().cloned());
                        }
                        ex.block(&repeated, st_n, k);
                    }
                });
            }
            Stmt::Emit { expr } => {
                self.eval(expr, st, &mut |ex, mut st2, v| {
                    // Mark the data sources of the emitted value.
                    match &v {
                        SymVal::Rows(q) | SymVal::Row(q) => {
                            if let Some(sq) = st2.queries.iter_mut().find(|sq| sq.id == *q) {
                                sq.emitted = true;
                            }
                        }
                        SymVal::Scalar(SymScalar::Field { query, .. })
                        | SymVal::Scalar(SymScalar::Count(query)) => {
                            if let Some(sq) = st2.queries.iter_mut().find(|sq| sq.id == *query) {
                                sq.emitted = true;
                            }
                        }
                        SymVal::Scalar(_) => {}
                    }
                    k(ex, st2);
                });
            }
            Stmt::Run { sql } => {
                let mut st2 = st;
                // DML issues a statement but produces no observable rows.
                let _ = issue(&mut st2, sql);
                k(self, st2);
            }
            Stmt::Abort { code } => self.finish(st, PathOutcome::Http(*code)),
            Stmt::Return => self.finish(st, PathOutcome::Ok),
        }
    }

    /// Evaluates an expression; `k` receives the value.
    fn eval(
        &mut self,
        e: &DExpr,
        st: PathState,
        k: &mut dyn FnMut(&mut Explorer<'_>, PathState, SymVal),
    ) {
        if self.over_budget() {
            return;
        }
        match e {
            DExpr::Lit(v) => k(self, st, SymVal::Scalar(SymScalar::Lit(v.clone()))),
            DExpr::Param(p) => k(self, st, SymVal::Scalar(SymScalar::Param(p.clone()))),
            DExpr::Session(s) => k(self, st, SymVal::Scalar(SymScalar::Session(s.clone()))),
            DExpr::Var(v) => {
                let val = st
                    .vars
                    .iter()
                    .find(|(n, _)| n == v)
                    .map(|(_, val)| val.clone())
                    .unwrap_or(SymVal::Scalar(SymScalar::Opaque));
                k(self, st, val)
            }
            DExpr::Sql { sql } => {
                let mut st2 = st;
                let qid = issue(&mut st2, sql);
                k(self, st2, SymVal::Rows(qid))
            }
            DExpr::IsEmpty(inner) | DExpr::Count(inner) => {
                let is_count = matches!(e, DExpr::Count(_));
                self.eval(inner, st, &mut |ex, st2, v| match v {
                    SymVal::Rows(q) => {
                        if is_count {
                            k(ex, st2, SymVal::Scalar(SymScalar::Count(q)))
                        } else {
                            // Bubble the rows id up; eval_bool forks on it.
                            k(ex, st2, SymVal::Scalar(SymScalar::Count(q)))
                        }
                    }
                    _ => k(ex, st2, SymVal::Scalar(SymScalar::Opaque)),
                });
            }
            DExpr::Field { base, column } => {
                let column = column.clone();
                self.eval(base, st, &mut |ex, st2, v| match v {
                    SymVal::Rows(q) | SymVal::Row(q) => k(
                        ex,
                        st2,
                        SymVal::Scalar(SymScalar::Field {
                            query: q,
                            column: column.clone(),
                        }),
                    ),
                    _ => k(ex, st2, SymVal::Scalar(SymScalar::Opaque)),
                });
            }
            DExpr::Not(_) | DExpr::Binary { .. } => {
                // Boolean expressions evaluated for value: fork via
                // eval_bool and materialize a literal.
                self.eval_bool(e, st, &mut |ex, st2, b| {
                    k(ex, st2, SymVal::Scalar(SymScalar::Lit(Value::Bool(b))))
                });
            }
        }
    }

    /// Evaluates a condition, forking as needed; `k` is invoked once per
    /// explored branch with the concrete truth value on that branch.
    fn eval_bool(
        &mut self,
        e: &DExpr,
        st: PathState,
        k: &mut dyn FnMut(&mut Explorer<'_>, PathState, bool),
    ) {
        if self.over_budget() {
            return;
        }
        match e {
            DExpr::Lit(Value::Bool(b)) => k(self, st, *b),
            DExpr::Not(inner) => self.eval_bool(inner, st, &mut |ex, st2, b| k(ex, st2, !b)),
            DExpr::Binary {
                op: DBinOp::And,
                lhs,
                rhs,
            } => {
                self.eval_bool(lhs, st, &mut |ex, st2, b| {
                    if b {
                        ex.eval_bool(rhs, st2, k);
                    } else {
                        k(ex, st2, false);
                    }
                });
            }
            DExpr::Binary {
                op: DBinOp::Or,
                lhs,
                rhs,
            } => {
                self.eval_bool(lhs, st, &mut |ex, st2, b| {
                    if b {
                        k(ex, st2, true);
                    } else {
                        ex.eval_bool(rhs, st2, k);
                    }
                });
            }
            DExpr::IsEmpty(inner) => {
                self.eval(inner, st, &mut |ex, st2, v| match v {
                    SymVal::Rows(q) => {
                        // Fork: empty / non-empty.
                        let mut st_t = st2.clone();
                        push_cond(&mut st_t.conditions, Cond::Empty(q));
                        k(ex, st_t, true);
                        if ex.over_budget() {
                            return;
                        }
                        let mut st_f = st2.clone();
                        push_cond(&mut st_f.conditions, Cond::NonEmpty(q));
                        k(ex, st_f, false);
                    }
                    _ => {
                        // Unknown: fork with no recorded literal.
                        k(ex, st2.clone(), true);
                        if !ex.over_budget() {
                            k(ex, st2, false);
                        }
                    }
                });
            }
            _ => {
                // Comparisons over symbolic scalars: fork both ways without
                // a recorded literal (over-approximation).
                k(self, st.clone(), true);
                if !self.over_budget() {
                    k(self, st, false);
                }
            }
        }
    }
}

fn set_var(vars: &mut Vec<(String, SymVal)>, name: &str, v: SymVal) {
    if let Some(slot) = vars.iter_mut().find(|(n, _)| n == name) {
        slot.1 = v;
    } else {
        vars.push((name.to_string(), v));
    }
}

fn push_cond(conds: &mut Vec<Cond>, c: Cond) {
    if !conds.contains(&c) {
        conds.push(c);
    }
}

/// Records a query issue in the state, resolving its named SQL parameters
/// against the symbolic environment.
fn issue(st: &mut PathState, site: &SqlSite) -> QueryId {
    let id = st.queries.len();
    let sql = site.text();
    // A malformed site binds nothing here; running it reports the error.
    let bindings = site
        .named_params()
        .unwrap_or_default()
        .iter()
        .map(|name| (name.clone(), resolve_sym(st, name)))
        .collect();
    st.queries.push(SymQuery {
        id,
        sql: sql.to_string(),
        bindings,
        emitted: false,
    });
    id
}

/// Mirrors the interpreter's resolution order: let-bound scalars, then
/// request parameters, then session fields. Symbolically we cannot always
/// distinguish request parameters from session fields for bare names, so
/// unresolved names default to request parameters (the generalizing choice).
fn resolve_sym(st: &PathState, name: &str) -> SymScalar {
    if let Some((_, v)) = st.vars.iter().find(|(n, _)| n == name) {
        return match v {
            SymVal::Scalar(s) => s.clone(),
            SymVal::Rows(_) | SymVal::Row(_) => SymScalar::Opaque,
        };
    }
    SymScalar::Param(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use appdsl::parse_handler;

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

    #[test]
    fn listing_1_explores_two_paths() {
        let h = parse_handler(LISTING_1).unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        assert_eq!(paths.len(), 2);

        // Path A: empty check → 404, only Q1 issued.
        let a = paths
            .iter()
            .find(|p| p.outcome == PathOutcome::Http(404))
            .unwrap();
        assert_eq!(a.queries.len(), 1);
        assert_eq!(a.conditions, vec![Cond::Empty(0)]);

        // Path B: non-empty check → Q2 issued and emitted.
        let b = paths.iter().find(|p| p.outcome == PathOutcome::Ok).unwrap();
        assert_eq!(b.queries.len(), 2);
        assert_eq!(b.conditions, vec![Cond::NonEmpty(0)]);
        assert!(!b.queries[0].emitted);
        assert!(b.queries[1].emitted);
    }

    #[test]
    fn sql_params_resolve_symbolically() {
        let h = parse_handler(LISTING_1).unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let b = paths.iter().find(|p| p.queries.len() == 2).unwrap();
        let q1 = &b.queries[0];
        // ?MyUId is unresolved in the env → treated as a (session/request)
        // parameter; ?event_id likewise.
        assert!(q1
            .bindings
            .iter()
            .any(|(n, v)| n == "MyUId" && matches!(v, SymScalar::Param(p) if p == "MyUId")));
        assert!(q1
            .bindings
            .iter()
            .any(|(n, v)| n == "event_id" && matches!(v, SymScalar::Param(p) if p == "event_id")));
    }

    #[test]
    fn field_dependency_is_tracked() {
        let h = parse_handler(
            r#"
            handler f() {
                let r = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                let eid = r.EId;
                emit sql("SELECT Title FROM Events WHERE EId = ?eid");
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        assert_eq!(paths.len(), 1);
        let q2 = &paths[0].queries[1];
        assert!(matches!(
            q2.bindings[0].1,
            SymScalar::Field { query: 0, ref column } if column == "EId"
        ));
        assert!(q2.emitted);
    }

    #[test]
    fn loop_unrolling_explores_zero_and_one() {
        let h = parse_handler(
            r#"
            handler f() {
                let rs = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                for r in rs {
                    let eid = r.EId;
                    emit sql("SELECT Title FROM Events WHERE EId = ?eid");
                }
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        // Zero-iteration path (1 query) and one-iteration path (2 queries).
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.queries.len() == 1));
        let one = paths.iter().find(|p| p.queries.len() == 2).unwrap();
        assert!(one.conditions.contains(&Cond::NonEmpty(0)));
        assert!(matches!(
            one.queries[1].bindings[0].1,
            SymScalar::Field { query: 0, .. }
        ));
    }

    #[test]
    fn opaque_comparisons_fork_both_ways() {
        let h = parse_handler(
            r#"
            handler f(x) {
                if params.x == 1 {
                    emit sql("SELECT Title FROM Events WHERE EId = 1");
                } else {
                    emit sql("SELECT Title FROM Events WHERE EId = 2");
                }
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        assert_eq!(paths.len(), 2);
        // Neither path records a condition literal (comparison is opaque).
        assert!(paths.iter().all(|p| p.conditions.is_empty()));
    }

    #[test]
    fn path_budget_is_respected() {
        // 8 sequential binary forks = 256 paths; budget 16 truncates.
        let mut src = String::from("handler f() {\n");
        for i in 0..8 {
            src.push_str(&format!(
                "let r{i} = sql(\"SELECT 1 FROM Events WHERE EId = {i}\");\n\
                 if r{i}.is_empty() {{ emit 1; }} else {{ emit 2; }}\n"
            ));
        }
        src.push('}');
        let h = parse_handler(&src).unwrap();
        let paths = explore(
            &h,
            SymLimits {
                max_paths: 16,
                unroll: 1,
            },
        )
        .unwrap();
        assert!(paths.len() <= 16);
    }
}
