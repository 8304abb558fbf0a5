//! Scalar expression evaluation with SQL three-valued logic.
//!
//! An [`Expr`] is *bound* once per query (`Bound::bind`): every column
//! reference is resolved, by name, to a `(stage, column)` slot, and a
//! reference to an enclosing query's row — fixed for as long as this query
//! runs — to its value. A `?name` parameter is resolved the same way, to
//! its value borrowed from the statement's bindings ([`Params`]), so a
//! statement runs with its parameters in place, never as a bound copy.
//! Evaluation then reads the borrowed table rows of the current candidate
//! directly; no row is concatenated or cloned to evaluate a predicate.
//!
//! Predicates evaluate to [`Value::Bool`] or [`Value::Null`] (unknown); the
//! executor treats anything but `TRUE` as filtering a row out, matching SQL
//! `WHERE` semantics.

use std::borrow::Cow;

use sqlir::value::like_match;
use sqlir::{BinaryOp, CmpResult, ColumnRef, Expr, Param, Query, UnaryOp, Value};

use crate::db::Database;
use crate::error::DbError;
use crate::schema::Column;
use crate::table::Table;

/// A statement's named parameter bindings, read through [`sqlir::lookup`].
pub type Params<'a> = &'a [(String, Value)];

/// One table binding visible to name resolution: a stage of the query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeEntry<'a> {
    /// The binding name (alias, or the table name itself).
    pub binding: &'a str,
    /// The bound table.
    pub table: &'a Table,
}

impl<'a> ScopeEntry<'a> {
    /// The bound table's columns.
    pub fn columns(&self) -> &'a [Column] {
        &self.table.schema.columns
    }
}

/// Resolves a column reference against the bindings in `scope` to a
/// `(stage, column)` slot; `None` if no binding here has it.
pub(crate) fn resolve(
    scope: &[ScopeEntry<'_>],
    col: &ColumnRef,
) -> Result<Option<(usize, usize)>, DbError> {
    let column_of = |e: &ScopeEntry<'_>| e.columns().iter().position(|c| c.name == col.column);
    match &col.table {
        // The binding may exist but lack the column; in a correlated
        // subquery the same alias may also exist in an outer scope, so
        // that is "not here" rather than an error.
        Some(t) => Ok(scope
            .iter()
            .position(|e| e.binding == t)
            .and_then(|stage| Some((stage, column_of(&scope[stage])?)))),
        None => {
            let mut found = None;
            for (stage, e) in scope.iter().enumerate() {
                if let Some(i) = column_of(e) {
                    if found.is_some() {
                        return Err(DbError::AmbiguousColumn(col.column.clone()));
                    }
                    found = Some((stage, i));
                }
            }
            Ok(found)
        }
    }
}

/// Evaluation context: a scope, the current candidate's row at each of its
/// stages (borrowed from the tables), and an optional outer context for
/// correlated subqueries.
pub(crate) struct EvalCtx<'a> {
    /// The database (needed to run subqueries).
    pub db: &'a Database,
    /// The bindings `rows` are the rows of.
    pub scope: &'a [ScopeEntry<'a>],
    /// The current row of each stage.
    pub rows: &'a [&'a [Value]],
    /// Enclosing context, if this is a subquery.
    pub outer: Option<&'a EvalCtx<'a>>,
    /// The statement's parameters, which its subqueries inherit.
    pub params: Params<'a>,
}

impl EvalCtx<'_> {
    /// The value a column reference has in this context or, failing that,
    /// an enclosing one.
    fn lookup(&self, col: &ColumnRef) -> Result<Value, DbError> {
        match resolve(self.scope, col)? {
            Some((stage, i)) => Ok(self.rows[stage][i].clone()),
            None => lookup_outer(self.outer, col),
        }
    }
}

/// The value of a column reference no binding of the current query has.
fn lookup_outer(outer: Option<&EvalCtx<'_>>, col: &ColumnRef) -> Result<Value, DbError> {
    match outer {
        Some(outer) => outer.lookup(col),
        None => Err(DbError::NoSuchColumn(match &col.table {
            Some(t) => format!("{t}.{}", col.column),
            None => col.column.clone(),
        })),
    }
}

/// An expression with its names resolved. Resolution failures are bound
/// too, as [`Bound::Fail`], and raised only if evaluation reaches them —
/// the same rows error, and the same short-circuits spare them, as when
/// names were looked up per evaluation.
#[derive(Debug)]
pub(crate) enum Bound<'q> {
    /// A literal, a bound parameter, or an enclosing query's column
    /// (constant while this query runs).
    Value(Cow<'q, Value>),
    /// Column `.1` of the current row of stage `.0`.
    Col(usize, usize),
    /// Evaluating this node is an error.
    Fail(DbError),
    Unary(UnaryOp, Box<Bound<'q>>),
    Binary(BinaryOp, Box<Bound<'q>>, Box<Bound<'q>>),
    IsNull(Box<Bound<'q>>, bool),
    InList(Box<Bound<'q>>, Vec<Bound<'q>>, bool),
    InSubquery(Box<Bound<'q>>, &'q Query, bool),
    Exists(&'q Query, bool),
    Between(Box<[Bound<'q>; 3]>, bool),
    Like(Box<Bound<'q>>, Box<Bound<'q>>, bool),
}

impl<'q> Bound<'q> {
    /// Binds `expr`'s column references against `scope`, then `outer`, and
    /// its parameters to their values in `params`.
    pub fn bind(
        expr: &'q Expr,
        scope: &[ScopeEntry<'_>],
        outer: Option<&EvalCtx<'_>>,
        params: Params<'q>,
    ) -> Bound<'q> {
        let bind = |e: &'q Expr| Box::new(Bound::bind(e, scope, outer, params));
        match expr {
            Expr::Literal(v) => Bound::Value(Cow::Borrowed(v)),
            Expr::Param(p) => match sqlir::lookup(params, p) {
                Some(v) => Bound::Value(Cow::Borrowed(v)),
                None => Bound::Fail(DbError::UnboundParameter(match p {
                    Param::Named(n) => format!("?{n}"),
                    Param::Positional(i) => format!("?#{i}"),
                })),
            },
            Expr::Column(c) => match resolve(scope, c) {
                Ok(Some((stage, i))) => Bound::Col(stage, i),
                Ok(None) => match lookup_outer(outer, c) {
                    Ok(v) => Bound::Value(Cow::Owned(v)),
                    Err(e) => Bound::Fail(e),
                },
                Err(e) => Bound::Fail(e),
            },
            Expr::Unary { op, expr } => Bound::Unary(*op, bind(expr)),
            Expr::Binary { op, lhs, rhs } => Bound::Binary(*op, bind(lhs), bind(rhs)),
            Expr::IsNull { expr, negated } => Bound::IsNull(bind(expr), *negated),
            Expr::InList {
                expr,
                list,
                negated,
            } => Bound::InList(
                bind(expr),
                list.iter()
                    .map(|e| Bound::bind(e, scope, outer, params))
                    .collect(),
                *negated,
            ),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Bound::InSubquery(bind(expr), query, *negated),
            Expr::Exists { query, negated } => Bound::Exists(query, *negated),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Bound::Between(Box::new([*bind(expr), *bind(low), *bind(high)]), *negated),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Bound::Like(bind(expr), bind(pattern), *negated),
            Expr::Agg { .. } => Bound::Fail(DbError::Unsupported(
                "aggregate function outside of SELECT list / HAVING".into(),
            )),
        }
    }

    /// Evaluates to a value, borrowed where it is a literal or a column.
    pub fn eval<'a>(&'a self, ctx: &EvalCtx<'a>) -> Result<Cow<'a, Value>, DbError> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            Bound::Value(v) => Ok(Cow::Borrowed(v.as_ref())),
            Bound::Col(stage, i) => Ok(Cow::Borrowed(&ctx.rows[*stage][*i])),
            Bound::Fail(e) => Err(e.clone()),
            Bound::Unary(op, expr) => {
                let v = expr.eval(ctx)?;
                match op {
                    UnaryOp::Not => owned(cmp_to_value(value_to_cmp(&v)?.not())),
                    UnaryOp::Neg => match *v {
                        Value::Null => owned(Value::Null),
                        Value::Int(i) => owned(Value::Int(
                            i.checked_neg()
                                .ok_or_else(|| DbError::Eval("negation overflow".into()))?,
                        )),
                        ref other => Err(DbError::Eval(format!("cannot negate {other:?}"))),
                    },
                }
            }
            Bound::Binary(op, lhs, rhs) => eval_binary(*op, lhs, rhs, ctx).map(Cow::Owned),
            Bound::IsNull(expr, negated) => {
                owned(Value::Bool(expr.eval(ctx)?.is_null() != *negated))
            }
            Bound::InList(expr, list, negated) => {
                let items = list.iter().map(|item| item.eval(ctx));
                is_member(&*expr.eval(ctx)?, items, *negated).map(Cow::Owned)
            }
            Bound::InSubquery(expr, query, negated) => {
                let needle = expr.eval(ctx)?;
                let rows = run_subquery(query, ctx)?;
                let items = rows.iter().map(|row| match row.as_slice() {
                    [v] => Ok(Cow::Borrowed(v)),
                    _ => Err(DbError::Unsupported(
                        "IN subquery must project exactly one column".into(),
                    )),
                });
                is_member(&needle, items, *negated).map(Cow::Owned)
            }
            Bound::Exists(query, negated) => owned(Value::Bool(
                run_subquery(query, ctx)?.is_empty() == *negated,
            )),
            Bound::Between(operands, negated) => {
                let [expr, low, high] = &**operands;
                let v = expr.eval(ctx)?;
                let lo = low.eval(ctx)?;
                let hi = high.eval(ctx)?;
                let ge_lo = match v.sql_cmp(&lo) {
                    None => CmpResult::Unknown,
                    Some(o) => CmpResult::from_bool(o != std::cmp::Ordering::Less),
                };
                let le_hi = match v.sql_cmp(&hi) {
                    None => CmpResult::Unknown,
                    Some(o) => CmpResult::from_bool(o != std::cmp::Ordering::Greater),
                };
                let r = ge_lo.and(le_hi);
                owned(cmp_to_value(if *negated { r.not() } else { r }))
            }
            Bound::Like(expr, pattern, negated) => {
                let v = expr.eval(ctx)?;
                let p = pattern.eval(ctx)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        owned(Value::Bool(like_match(s, pat) != *negated))
                    }
                    (v, p) => Err(DbError::Eval(format!("LIKE on non-strings: {v:?}, {p:?}"))),
                }
            }
        }
    }

    /// Evaluates as a predicate.
    pub fn test(&self, ctx: &EvalCtx<'_>) -> Result<CmpResult, DbError> {
        value_to_cmp(&*self.eval(ctx)?)
    }
}

fn eval_binary(
    op: BinaryOp,
    lhs: &Bound<'_>,
    rhs: &Bound<'_>,
    ctx: &EvalCtx<'_>,
) -> Result<Value, DbError> {
    match op {
        BinaryOp::And => {
            let l = lhs.test(ctx)?;
            // Short-circuit: FALSE AND x is FALSE without evaluating x.
            if l == CmpResult::False {
                return Ok(Value::Bool(false));
            }
            Ok(cmp_to_value(l.and(rhs.test(ctx)?)))
        }
        BinaryOp::Or => {
            let l = lhs.test(ctx)?;
            if l == CmpResult::True {
                return Ok(Value::Bool(true));
            }
            Ok(cmp_to_value(l.or(rhs.test(ctx)?)))
        }
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let l = lhs.eval(ctx)?;
            let r = rhs.eval(ctx)?;
            let out = match l.sql_cmp(&r) {
                None => CmpResult::Unknown,
                Some(ord) => {
                    use std::cmp::Ordering::*;
                    CmpResult::from_bool(match op {
                        BinaryOp::Eq => ord == Equal,
                        BinaryOp::Ne => ord != Equal,
                        BinaryOp::Lt => ord == Less,
                        BinaryOp::Le => ord != Greater,
                        BinaryOp::Gt => ord == Greater,
                        BinaryOp::Ge => ord != Less,
                        _ => unreachable!(),
                    })
                }
            };
            Ok(cmp_to_value(out))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
            let l = lhs.eval(ctx)?;
            let r = rhs.eval(ctx)?;
            match (&*l, &*r) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (&Value::Int(a), &Value::Int(b)) => {
                    let out = match op {
                        BinaryOp::Add => a.checked_add(b),
                        BinaryOp::Sub => a.checked_sub(b),
                        BinaryOp::Mul => a.checked_mul(b),
                        BinaryOp::Div => {
                            if b == 0 {
                                return Err(DbError::Eval("division by zero".into()));
                            }
                            a.checked_div(b)
                        }
                        _ => unreachable!(),
                    };
                    out.map(Value::Int)
                        .ok_or_else(|| DbError::Eval("integer overflow".into()))
                }
                (a, b) => Err(DbError::Eval(format!(
                    "arithmetic on non-integers: {a:?} {} {b:?}",
                    op.symbol()
                ))),
            }
        }
    }
}

/// `needle [NOT] IN (items)` under three-valued logic: items are evaluated
/// only until one equals the needle, and an inconclusive comparison (a
/// `NULL` on either side) makes a miss UNKNOWN.
fn is_member<'v>(
    needle: &Value,
    items: impl Iterator<Item = Result<Cow<'v, Value>, DbError>>,
    negated: bool,
) -> Result<Value, DbError> {
    let mut saw_unknown = false;
    for item in items {
        match needle.sql_eq(&*item?) {
            CmpResult::True => return Ok(Value::Bool(!negated)),
            CmpResult::Unknown => saw_unknown = true,
            CmpResult::False => {}
        }
    }
    Ok(if saw_unknown {
        Value::Null
    } else {
        Value::Bool(negated)
    })
}

fn run_subquery(q: &Query, ctx: &EvalCtx<'_>) -> Result<Vec<Vec<Value>>, DbError> {
    crate::exec::execute_query_with_outer(ctx.db, q, ctx).map(|r| r.rows)
}

/// Interprets a value as a predicate result.
pub fn value_to_cmp(v: &Value) -> Result<CmpResult, DbError> {
    match v {
        Value::Bool(true) => Ok(CmpResult::True),
        Value::Bool(false) => Ok(CmpResult::False),
        Value::Null => Ok(CmpResult::Unknown),
        other => Err(DbError::Eval(format!(
            "expected boolean predicate, found {other:?}"
        ))),
    }
}

/// Converts a predicate result back to a value (`Unknown` becomes `NULL`).
fn cmp_to_value(c: CmpResult) -> Value {
    match c {
        CmpResult::True => Value::Bool(true),
        CmpResult::False => Value::Bool(false),
        CmpResult::Unknown => Value::Null,
    }
}
