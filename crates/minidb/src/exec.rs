//! Query execution: joins, filtering, grouping, projection, ordering.
//!
//! A join candidate is a tuple of **row ids**, one per stage (`FROM` table
//! or `JOIN`), never a concatenated row: predicates are bound once per
//! query (`expr::Bound`) and read the tuple's cells where they lie, and
//! values are cloned only into the projected output of tuples that
//! survived every predicate.
//!
//! **Stage order.** When every `ON` is a total predicate over its own and
//! earlier stages, the `ON`s and the pushed `WHERE` conjuncts are one
//! conjunct list and the stages run in a greedy order chosen from exact
//! index counts (`stage_order`), each conjunct applied at the first step
//! that binds every stage it reads. Otherwise stages run as written.
//!
//! **Why the result is still the nested loop's.** (1) All joins are inner
//! and every reordered conjunct is total — it cannot error, so evaluating
//! it earlier or later cannot surface or hide an error — hence the *set*
//! of surviving tuples does not depend on the stage order. (2) A nested
//! loop in written order scans each table by ascending row id (an index
//! chain is ascending too), so it emits tuples in lexicographic order of
//! their row ids in written stage order. (3) Sorting the surviving tuples
//! that way therefore reproduces its sequence exactly, and the residual
//! `WHERE` pass, projection and `LIMIT` run over that sequence — same
//! rows, same row order, same first error.

use std::borrow::Cow;

use sqlir::params::substitute_expr;
use sqlir::{
    lookup, BinaryOp, CmpResult, Distinctness, Expr, JoinClause, Query, SelectItem, SetFunc,
    SqlError, UnaryOp, Value,
};

use crate::db::Database;
use crate::error::DbError;
use crate::expr::{resolve, Bound, EvalCtx, Params, ScopeEntry};
use crate::table::{Matches, Table};

/// Projected output paired with its ORDER BY sort key, one entry per row.
type KeyedRows = Vec<(Vec<Value>, Vec<Value>)>;

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl Rows {
    /// An empty result with no columns.
    pub fn empty() -> Rows {
        Rows {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The single value of a 1x1 result, if that is the shape.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Index of a named output column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Executes a `SELECT` against the database.
pub fn execute_query(db: &Database, q: &Query) -> Result<Rows, DbError> {
    execute_query_with(db, q, &[])
}

/// Executes a `SELECT` whose parameters take their values from `params`:
/// the result of executing the bound query, without binding it.
pub(crate) fn execute_query_with(
    db: &Database,
    q: &Query,
    params: Params<'_>,
) -> Result<Rows, DbError> {
    execute_query_impl(db, q, None, params, true)
}

/// Executes a `SELECT` with every access-path optimization disabled: plain
/// nested-loop joins and a single whole-expression `WHERE` pass.
///
/// This is the oracle for differential tests of the optimized path (index
/// probes, join ordering, predicate pushdown); results must be identical,
/// including row order.
pub fn execute_query_naive(db: &Database, q: &Query) -> Result<Rows, DbError> {
    execute_query_impl(db, q, None, &[], false)
}

/// Executes a subquery in the context of the enclosing query's current
/// row, under the enclosing statement's parameters.
pub(crate) fn execute_query_with_outer(
    db: &Database,
    q: &Query,
    outer: &EvalCtx<'_>,
) -> Result<Rows, DbError> {
    execute_query_impl(db, q, Some(outer), outer.params, true)
}

/// The ids of the rows of `table` that a mutation's `WHERE` selects,
/// ascending: a one-stage run of the query pipeline.
pub(crate) fn matching_row_ids(
    db: &Database,
    table: &str,
    where_clause: Option<&Expr>,
    params: Params<'_>,
) -> Result<Vec<usize>, DbError> {
    let mut src = Source::new(db, None, params, 1);
    src.push(table, db.table(table)?)?;
    let tuples = src.matching(&[], where_clause, true)?;
    Ok(tuples.ids.into_iter().map(|id| id as usize).collect())
}

fn execute_query_impl(
    db: &Database,
    q: &Query,
    outer: Option<&EvalCtx<'_>>,
    params: Params<'_>,
    optimize: bool,
) -> Result<Rows, DbError> {
    // 1. Resolve every source table: the `FROM` list, then the `JOIN`s.
    let mut src = Source::new(db, outer, params, q.from.len() + q.joins.len());
    for tref in q.from.iter().chain(q.joins.iter().map(|j| &j.table)) {
        src.push(tref.binding(), db.table(&tref.table)?)?;
    }

    // 2. Join and filter.
    let tuples = src.matching(&q.joins, q.where_clause.as_ref(), optimize)?;

    // 3. Grouping / projection.
    let grouped = q.has_aggregates() || !q.group_by.is_empty();
    let (columns, mut out): (Vec<String>, KeyedRows) = if grouped {
        project_grouped(&src, q, &tuples)?
    } else {
        project_plain(&src, q, &tuples)?
    };

    // 4. DISTINCT.
    if q.distinct == Distinctness::Distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|(row, _)| seen.insert(row.clone()));
    }

    // 5. ORDER BY (sort keys were computed during projection).
    if !q.order_by.is_empty() {
        out.sort_by(|(_, ka), (_, kb)| {
            for (i, key) in q.order_by.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 6. LIMIT.
    let mut rows: Vec<Vec<Value>> = out.into_iter().map(|(row, _)| row).collect();
    if let Some(n) = q.limit {
        rows.truncate(n as usize);
    }
    Ok(Rows { columns, rows })
}

/// Join candidates as row ids — one per stage, in *written* stage order —
/// stored flat. Stages a partial candidate has not bound yet hold 0.
struct Tuples {
    width: usize,
    len: usize,
    ids: Vec<u32>,
}

impl Tuples {
    fn new(width: usize) -> Tuples {
        Tuples {
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    fn push(&mut self, tuple: &[u32]) {
        self.ids.extend_from_slice(tuple);
        self.len += 1;
    }

    // Not `chunks`: a query without `FROM` has one tuple of width zero.
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len).map(|i| self.get(i))
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }
}

/// A predicate of the join: an `ON`, or a pushed `WHERE` conjunct.
struct Conjunct<'q> {
    expr: &'q Expr,
    /// The stages a *total* conjunct reads, as a bit set. A fallible `ON`
    /// is not analysed: it is pinned to its own stage (`step`), where the
    /// nested loop evaluates it.
    reads: Option<u64>,
    /// The step of the stage order this conjunct is applied at.
    step: usize,
    /// An index probe already selected exactly the rows satisfying it.
    served: bool,
}

/// What the plan knows about one stage.
#[derive(Clone, Copy, Default)]
struct Stage<'q> {
    /// Its first `col = literal` conjunct: `(conjunct, column, literal)`.
    literal: Option<(usize, usize, &'q Value)>,
    /// Its `ON` is pinned, so no index may skip rows before that `ON` had
    /// its chance to error on them.
    pinned: bool,
    /// Its position in the stage order.
    step: usize,
}

/// What a stage's equality index is probed with: a literal (or bound
/// parameter), or a bound stage's column.
enum KeySource<'q> {
    Literal(&'q Value),
    Column(usize, usize),
}

/// The stages of one query — its tables under their bindings, in written
/// order — and the context it runs in.
struct Source<'a> {
    db: &'a Database,
    scope: Vec<ScopeEntry<'a>>,
    outer: Option<&'a EvalCtx<'a>>,
    params: Params<'a>,
}

impl<'a> Source<'a> {
    fn new(
        db: &'a Database,
        outer: Option<&'a EvalCtx<'a>>,
        params: Params<'a>,
        stages: usize,
    ) -> Source<'a> {
        Source {
            db,
            scope: Vec::with_capacity(stages),
            outer,
            params,
        }
    }

    fn push(&mut self, binding: &'a str, table: &'a Table) -> Result<(), DbError> {
        if self.scope.iter().any(|e| e.binding == binding) {
            return Err(DbError::Unsupported(format!(
                "duplicate table binding `{binding}` (add an alias)"
            )));
        }
        self.scope.push(ScopeEntry { binding, table });
        Ok(())
    }

    fn bind<'q>(&self, expr: &'q Expr) -> Bound<'q>
    where
        'a: 'q,
    {
        Bound::bind(expr, &self.scope, self.outer, self.params)
    }

    fn table(&self, stage: usize) -> &'a Table {
        self.scope[stage].table
    }

    /// An evaluation context over the first `stages` stages of `tuple`;
    /// `None` for the all-`NULL` row of an empty group.
    fn ctx<'r>(&'r self, stages: usize, tuple: Option<&'r [u32]>) -> EvalCtx<'r> {
        EvalCtx {
            db: self.db,
            scope: &self.scope[..stages],
            rows: tuple,
            outer: self.outer,
            params: self.params,
        }
    }

    /// Joins the stages and applies `ON`s and `WHERE`: the surviving
    /// tuples, in nested-loop (written-order) emission order. `joins` are
    /// the `ON`s of the last `joins.len()` stages.
    fn matching(
        &self,
        joins: &[JoinClause],
        where_clause: Option<&Expr>,
        optimize: bool,
    ) -> Result<Tuples, DbError> {
        let n = self.scope.len();
        let (scope, params) = (&self.scope[..], self.params);
        // Stage sets are `u64` bit sets; a wider join runs unoptimized.
        let optimize = optimize && (1..=64).contains(&n);

        // 1. The conjunct list. A *total* `ON` (see `total_reads`) over its
        //    own and earlier stages splits into conjuncts that may be
        //    applied wherever their stages are bound; any other `ON` stays
        //    whole and pins the written order. Total `WHERE` conjuncts join
        //    the list; fallible or unresolvable ones stay in the residual
        //    pass, where they see only fully joined rows.
        let total = |expr, reads| Conjunct {
            expr,
            reads: Some(reads),
            step: 0,
            served: false,
        };
        let mut conjuncts: Vec<Conjunct<'_>> = Vec::new();
        let mut residual: Vec<Bound<'_>> = Vec::new();
        let mut reorder = optimize;
        for (join, stage) in joins.iter().zip(n - joins.len()..) {
            let first = conjuncts.len();
            let mut all_total = optimize;
            if optimize {
                for_each_conjunct(&join.on, &mut |part| match total_reads(part, scope, params)
                    .filter(|reads| reads >> stage <= 1)
                {
                    Some(reads) if all_total => conjuncts.push(total(part, reads)),
                    _ => all_total = false,
                });
            }
            if !all_total {
                reorder = false;
                conjuncts.truncate(first);
                conjuncts.push(Conjunct {
                    expr: &join.on,
                    reads: None,
                    step: stage,
                    served: false,
                });
            }
        }
        match where_clause {
            Some(w) if optimize => {
                for_each_conjunct(w, &mut |part| match total_reads(part, scope, params) {
                    Some(reads) => conjuncts.push(total(part, reads)),
                    None => residual.push(self.bind(part)),
                })
            }
            Some(w) => residual.push(self.bind(w)),
            None => {}
        }

        // 2. Access paths: per stage, its first `col = literal` conjunct (a
        //    bound parameter counts as the literal it stands for);
        //    and the `a.x = b.y` conjuncts joining two stages.
        let mut stages = vec![Stage::default(); n];
        let mut edges: Vec<(usize, [(usize, usize); 2])> = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if c.reads.is_none() {
                stages[c.step].pinned = true;
            } else if let Some((stage, col, lit)) = literal_probe(c.expr, scope, params) {
                let first = &mut stages[stage].literal;
                *first = first.or(Some((i, col, lit)));
            } else if let Some(ends) = equi_join(c.expr, scope) {
                edges.push((i, ends));
            }
        }

        // 3. Stage order: greedy from exact counts when free to reorder.
        let order: Vec<usize> = if reorder && n > 1 {
            let counts: Vec<usize> = (0..n)
                .map(|s| match stages[s].literal {
                    Some((_, col, lit)) => {
                        let index = self.table(s).probe(&[col]);
                        index.matching(std::slice::from_ref(lit)).count()
                    }
                    None => self.table(s).len(),
                })
                .collect();
            let pairs: Vec<(usize, usize)> = edges.iter().map(|(_, [a, b])| (a.0, b.0)).collect();
            stage_order(&counts, &pairs)
        } else {
            (0..n).collect()
        };
        for (step, &stage) in order.iter().enumerate() {
            stages[stage].step = step;
        }
        for c in &mut conjuncts {
            if let Some(reads) = c.reads {
                let steps = (0..n)
                    .filter(|s| reads >> s & 1 == 1)
                    .map(|s| stages[s].step);
                c.step = steps.max().unwrap_or(0);
            }
        }

        // 4. Enumerate candidates stage by stage.
        let mut tuples = Tuples {
            width: n,
            len: 1,
            ids: vec![0; n],
        };
        let mut candidate = vec![0; n];
        for (step, &stage) in order.iter().enumerate() {
            let table = self.table(stage);
            // An equi-join to a bound stage, else a literal selection, else
            // a scan. Either probe selects exactly the rows its conjunct
            // keeps (see `literal_probe`, `equi_join`), in ascending row id.
            let joined = edges.iter().find_map(|&(i, [a, b])| {
                let (here, there) = if a.0 == stage { (a, b) } else { (b, a) };
                (here.0 == stage && stages[there.0].step < step).then_some((
                    i,
                    here.1,
                    KeySource::Column(there.0, there.1),
                ))
            });
            let literal = stages[stage].literal;
            let access = joined
                .or(literal.map(|(i, col, v)| (i, col, KeySource::Literal(v))))
                .filter(|_| !stages[stage].pinned)
                .map(|(i, col, key)| {
                    conjuncts[i].served = true;
                    (table.probe(&[col]), key)
                });
            // A pinned `ON` is bound against the scope the nested loop
            // evaluates it in — the stages so far, which is also the scope
            // a subquery inside it resolves outer names in (only a pinned
            // `ON` can hold one, and then the stages run as written).
            let here: Vec<Bound<'_>> = conjuncts
                .iter()
                .filter(|c| c.step == step && !c.served)
                .map(|c| match c.reads {
                    Some(_) => self.bind(c.expr),
                    None => Bound::bind(c.expr, &scope[..=stage], self.outer, params),
                })
                .collect();

            let mut next = Tuples::new(n);
            for base in tuples.iter() {
                candidate.copy_from_slice(base);
                let ids = match &access {
                    None => Candidates::Scan(0..table.len() as u32),
                    Some((probe, KeySource::Literal(v))) => {
                        Candidates::Chain(probe.matching(std::slice::from_ref(*v)))
                    }
                    Some((probe, KeySource::Column(s, c))) => Candidates::Chain(
                        probe.matching_cells(self.table(*s), base[*s] as usize, &[*c]),
                    ),
                };
                'rows: for id in ids {
                    candidate[stage] = id;
                    let ctx = self.ctx(stage + 1, Some(&candidate));
                    for pred in &here {
                        if !pred.test(&ctx)?.is_true() {
                            continue 'rows;
                        }
                    }
                    next.push(&candidate);
                }
            }
            tuples = next;
        }

        // 5. Restore nested-loop emission order (module docs).
        if order.iter().enumerate().any(|(step, &stage)| step != stage) {
            let mut sorted: Vec<&[u32]> = tuples.iter().collect();
            sorted.sort_unstable();
            tuples.ids = sorted.concat();
        }

        // 6. Residual WHERE pass. Conjuncts are evaluated left to right with
        //    AND's short-circuit on FALSE; an UNKNOWN keeps evaluating (and
        //    so keeps surfacing later errors), matching single-pass
        //    evaluation of the original conjunction.
        if residual.is_empty() {
            return Ok(tuples);
        }
        let mut kept = Tuples::new(n);
        for tuple in tuples.iter() {
            let ctx = self.ctx(n, Some(tuple));
            let mut keep = true;
            for pred in &residual {
                match pred.test(&ctx)? {
                    CmpResult::True => {}
                    CmpResult::False => {
                        keep = false;
                        break;
                    }
                    CmpResult::Unknown => keep = false,
                }
            }
            if keep {
                kept.push(tuple);
            }
        }
        Ok(kept)
    }
}

/// The row ids a stage contributes under one base tuple.
enum Candidates<'a> {
    Scan(std::ops::Range<u32>),
    Chain(Matches<'a>),
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Candidates::Scan(ids) => ids.next(),
            Candidates::Chain(ids) => ids.next(),
        }
    }
}

/// The order to run a reorderable join's stages in: start at the stage
/// with the fewest candidates, then repeatedly take a stage equi-joined to
/// one already bound (an index probe per base tuple), else the smallest
/// remaining. Ties go to the earlier written stage. `counts[s]` is stage
/// `s`'s candidate count before any join — the exact index count of its
/// `col = literal` selection, else its table's length; `edges` are the
/// stage pairs an equi-join conjunct connects.
///
/// Greedy on purpose: no statistics and no cost model. It exists so that a
/// selective stage written last is not preceded by a scan of a large one.
fn stage_order(counts: &[usize], edges: &[(usize, usize)]) -> Vec<usize> {
    let n = counts.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while order.len() < n {
        let unbound = (0..n).filter(|s| !order.contains(s));
        let joined = unbound.clone().find(|&s| {
            edges
                .iter()
                .any(|&(a, b)| (a == s && order.contains(&b)) || (b == s && order.contains(&a)))
        });
        let next = joined.or_else(|| unbound.min_by_key(|&s| counts[s]));
        // `order.len() < n`, so `unbound` is not empty and `next` is a stage.
        order.push(next.expect("an unbound stage remains"));
    }
    order
}

/// Calls `f` on each top-level `AND` conjunct of a predicate, in order.
fn for_each_conjunct<'q>(e: &'q Expr, f: &mut impl FnMut(&'q Expr)) {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            for_each_conjunct(lhs, f);
            for_each_conjunct(rhs, f);
        }
        _ => f(e),
    }
}

/// If `e` is a *total predicate* — one whose evaluation can never raise an
/// error, whatever the rows hold — returns the set of stages whose columns
/// it references, as a bit set. `None` means the conjunct must stay where
/// the nested loop evaluates it: it may error (arithmetic overflow, `LIKE`
/// on non-strings, unbound parameters), contains a subquery, or references
/// a name this scope cannot resolve cleanly (ambiguous, unknown, or
/// outer-correlated). A bound parameter is the literal it stands for, so
/// the bound statement and the statement with its parameters in place
/// split into the same conjuncts.
///
/// Totality matters because a single-pass evaluator only reaches the WHERE
/// clause for fully joined rows; evaluating a fallible conjunct early could
/// surface an error on a row a later join would have dropped.
fn total_reads(e: &Expr, scope: &[ScopeEntry<'_>], params: Params<'_>) -> Option<u64> {
    let scalar = |e| scalar_reads(e, scope, params);
    match e {
        Expr::Binary { op, lhs, rhs } if op.is_comparison() => Some(scalar(lhs)? | scalar(rhs)?),
        Expr::Binary {
            op: BinaryOp::And | BinaryOp::Or,
            lhs,
            rhs,
        } => Some(total_reads(lhs, scope, params)? | total_reads(rhs, scope, params)?),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => total_reads(expr, scope, params),
        Expr::IsNull { expr, .. } => scalar(expr),
        Expr::InList { expr, list, .. } => {
            let mut reads = scalar(expr)?;
            for item in list {
                reads |= scalar(item)?;
            }
            Some(reads)
        }
        Expr::Between {
            expr, low, high, ..
        } => Some(scalar(expr)? | scalar(low)? | scalar(high)?),
        _ => match constant(e, params)? {
            Value::Bool(_) | Value::Null => Some(0),
            _ => None,
        },
    }
}

/// The stage a column operand reads (none for a literal or a bound
/// parameter); `None` for anything that could error at evaluation time
/// (arithmetic, unbound parameters, subqueries) or that does not resolve in
/// this scope.
fn scalar_reads(e: &Expr, scope: &[ScopeEntry<'_>], params: Params<'_>) -> Option<u64> {
    match e {
        Expr::Column(c) => resolve(scope, c).ok()?.map(|(stage, _)| 1 << stage),
        _ => constant(e, params).map(|_| 0),
    }
}

/// The value of a literal, or of a bound parameter.
fn constant<'q>(e: &'q Expr, params: Params<'q>) -> Option<&'q Value> {
    match e {
        Expr::Literal(v) => Some(v),
        Expr::Param(p) => lookup(params, p),
        _ => None,
    }
}

/// Matches `col = literal` (either orientation; a bound parameter counts as
/// its value) where the literal is a non-`NULL` value of the column's
/// declared type, so an equality-index probe selects exactly the rows a
/// scan would keep (stored values are shape-checked to the declared type or
/// `NULL`, and the index excludes `NULL`s). Returns `(stage, column,
/// literal)`.
fn literal_probe<'q>(
    e: &'q Expr,
    scope: &[ScopeEntry<'_>],
    params: Params<'q>,
) -> Option<(usize, usize, &'q Value)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    let (col, lit) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column(c), other) | (other, Expr::Column(c)) => (c, constant(other, params)?),
        _ => return None,
    };
    let (stage, i) = resolve(scope, col).ok().flatten()?;
    (lit.sql_type() == Some(scope[stage].columns()[i].ty)).then_some((stage, i, lit))
}

/// Matches `a.x = b.y` between columns of two different stages with equal
/// declared types, so probing one side's equality index with the other
/// side's value selects exactly the rows the conjunct keeps (a `NULL` on
/// either side matches nothing, as `=` does). Returns both
/// `(stage, column)` ends.
fn equi_join(e: &Expr, scope: &[ScopeEntry<'_>]) -> Option<[(usize, usize); 2]> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) else {
        return None;
    };
    let a = resolve(scope, a).ok().flatten()?;
    let b = resolve(scope, b).ok().flatten()?;
    let ty = |(stage, i): (usize, usize)| scope[stage].columns()[i].ty;
    (a.0 != b.0 && ty(a) == ty(b)).then_some([a, b])
}

/// Resolves output column names for the projection. A parameter prints as
/// its value, as it does in the bound statement (an unbound one as written).
fn output_name(item: &SelectItem, idx: usize, params: Params<'_>) -> String {
    match item {
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
            // Callers expand wildcards before asking for names.
            unreachable!("wildcards expanded before naming")
        }
        SelectItem::Expr { alias: Some(a), .. } => a.clone(),
        SelectItem::Expr {
            expr: Expr::Column(c),
            ..
        } => c.column.clone(),
        SelectItem::Expr { expr, .. } => {
            let mut value = |p: &_| {
                let v = lookup(params, p).cloned();
                v.ok_or_else(|| SqlError::UnboundParameter(String::new()))
            };
            let printed = if params.is_empty() {
                // Nothing to substitute: print without the copy.
                expr.to_string()
            } else {
                match substitute_expr(expr, &mut value) {
                    Ok(bound) => bound.to_string(),
                    Err(_) => expr.to_string(),
                }
            };
            if printed.len() <= 24 {
                printed
            } else {
                format!("col{idx}")
            }
        }
    }
}

/// The output column an `ORDER BY` key names, if it is a bare name that
/// matches one (an alias shadows a source column).
fn output_alias(key: &Expr, names: &[String]) -> Option<usize> {
    match key {
        Expr::Column(c) if c.table.is_none() => names.iter().position(|n| n == &c.column),
        _ => None,
    }
}

/// Plain (non-aggregate) projection, straight from the tables' cells.
/// Returns `(names, [(row, sort_keys)])`.
fn project_plain(
    src: &Source<'_>,
    q: &Query,
    tuples: &Tuples,
) -> Result<(Vec<String>, KeyedRows), DbError> {
    // Wildcards expand to column slots; everything else is bound once.
    let mut names = Vec::new();
    let mut exprs: Vec<Bound<'_>> = Vec::new();
    for (i, item) in q.items.iter().enumerate() {
        let stages = match item {
            SelectItem::Wildcard => 0..src.scope.len(),
            SelectItem::QualifiedWildcard(t) => {
                let stage = src.scope.iter().position(|e| e.binding == t);
                let stage = stage.ok_or_else(|| DbError::NoSuchTable(t.clone()))?;
                stage..stage + 1
            }
            SelectItem::Expr { expr, .. } => {
                names.push(output_name(item, i, src.params));
                exprs.push(src.bind(expr));
                continue;
            }
        };
        for stage in stages {
            for (c, column) in src.scope[stage].columns().iter().enumerate() {
                names.push(column.name.clone());
                exprs.push(Bound::Col(stage, src.table(stage).column(c)));
            }
        }
    }
    let keys: Vec<(Option<usize>, Bound<'_>)> = q
        .order_by
        .iter()
        .map(|k| (output_alias(&k.expr, &names), src.bind(&k.expr)))
        .collect();

    let mut out = Vec::with_capacity(tuples.len);
    for tuple in tuples.iter() {
        let ctx = src.ctx(tuple.len(), Some(tuple));
        let mut row = Vec::with_capacity(exprs.len());
        for e in &exprs {
            row.push(e.eval(&ctx)?.into_owned());
        }
        let mut sort = Vec::with_capacity(keys.len());
        for (alias, key) in &keys {
            sort.push(match alias {
                Some(i) => row[*i].clone(),
                None => key.eval(&ctx)?.into_owned(),
            });
        }
        out.push((row, sort));
    }
    Ok((names, out))
}

/// Aggregate projection: group tuples, compute aggregates per group.
fn project_grouped(
    src: &Source<'_>,
    q: &Query,
    tuples: &Tuples,
) -> Result<(Vec<String>, KeyedRows), DbError> {
    for item in &q.items {
        if matches!(
            item,
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)
        ) {
            return Err(DbError::Unsupported("wildcard in aggregate query".into()));
        }
    }

    // Group tuples by the GROUP BY key values.
    let group_by: Vec<Bound<'_>> = q.group_by.iter().map(|g| src.bind(g)).collect();
    let mut groups: Vec<(Vec<Value>, Tuples)> = Vec::new();
    for tuple in tuples.iter() {
        let ctx = src.ctx(tuple.len(), Some(tuple));
        let key: Vec<Value> = group_by
            .iter()
            .map(|g| g.eval(&ctx).map(Cow::into_owned))
            .collect::<Result<_, _>>()?;
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(tuple),
            None => {
                let mut members = Tuples::new(tuples.width);
                members.push(tuple);
                groups.push((key, members));
            }
        }
    }
    // A global aggregate over zero rows still yields one (empty) group.
    if groups.is_empty() && q.group_by.is_empty() {
        groups.push((Vec::new(), Tuples::new(tuples.width)));
    }

    let names: Vec<String> = q
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| output_name(item, i, src.params))
        .collect();

    let mut out = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        // HAVING filters whole groups.
        if let Some(h) = &q.having {
            if !crate::expr::value_to_cmp(&eval_in_group(src, members, h)?)?.is_true() {
                continue;
            }
        }
        let mut row = Vec::with_capacity(q.items.len());
        for item in &q.items {
            if let SelectItem::Expr { expr, .. } = item {
                row.push(eval_in_group(src, members, expr)?);
            }
        }
        let mut keys = Vec::with_capacity(q.order_by.len());
        for k in &q.order_by {
            // Alias lookup first, then group-context evaluation.
            keys.push(match output_alias(&k.expr, &names) {
                Some(i) => row[i].clone(),
                None => eval_in_group(src, members, &k.expr)?,
            });
        }
        out.push((row, keys));
    }
    Ok((names, out))
}

/// Evaluates an expression in the context of a group: aggregate nodes are
/// computed over the group's tuples, everything else over its first one
/// (all `NULL`s for the empty group).
fn eval_in_group(src: &Source<'_>, members: &Tuples, expr: &Expr) -> Result<Value, DbError> {
    let materialized = materialize_aggs(src, members, expr)?;
    let first = (members.len > 0).then(|| members.get(0));
    let bound = src.bind(&materialized);
    let value = bound.eval(&src.ctx(src.scope.len(), first))?;
    Ok(value.into_owned())
}

/// Replaces each aggregate subexpression with its computed literal value.
fn materialize_aggs(src: &Source<'_>, members: &Tuples, expr: &Expr) -> Result<Expr, DbError> {
    Ok(match expr {
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Literal(compute_aggregate(
            src,
            members,
            *func,
            arg.as_deref(),
            *distinct,
        )?),
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(materialize_aggs(src, members, expr)?),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(materialize_aggs(src, members, lhs)?),
            rhs: Box::new(materialize_aggs(src, members, rhs)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(materialize_aggs(src, members, expr)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(materialize_aggs(src, members, expr)?),
            list: list
                .iter()
                .map(|e| materialize_aggs(src, members, e))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(materialize_aggs(src, members, expr)?),
            low: Box::new(materialize_aggs(src, members, low)?),
            high: Box::new(materialize_aggs(src, members, high)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(materialize_aggs(src, members, expr)?),
            pattern: Box::new(materialize_aggs(src, members, pattern)?),
            negated: *negated,
        },
        // Subqueries inside aggregate queries evaluate against the first row.
        Expr::InSubquery { .. } | Expr::Exists { .. } => expr.clone(),
    })
}

fn compute_aggregate(
    src: &Source<'_>,
    members: &Tuples,
    func: SetFunc,
    arg: Option<&Expr>,
    distinct: bool,
) -> Result<Value, DbError> {
    // COUNT(*) counts rows.
    let Some(arg) = arg else {
        return Ok(Value::Int(members.len as i64));
    };
    let arg = src.bind(arg);
    let mut vals = Vec::with_capacity(members.len);
    for tuple in members.iter() {
        let v = arg.eval(&src.ctx(tuple.len(), Some(tuple)))?;
        if !v.is_null() {
            vals.push(v.into_owned());
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        vals.retain(|v| seen.insert(v.clone()));
    }
    match func {
        SetFunc::Count => Ok(Value::Int(vals.len() as i64)),
        SetFunc::Min => Ok(vals
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        SetFunc::Max => Ok(vals
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        SetFunc::Sum | SetFunc::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut sum: i64 = 0;
            for v in &vals {
                match v {
                    Value::Int(i) => {
                        sum = sum
                            .checked_add(*i)
                            .ok_or_else(|| DbError::Eval("SUM overflow".into()))?;
                    }
                    other => {
                        return Err(DbError::Eval(format!("SUM/AVG over non-integer {other:?}")))
                    }
                }
            }
            if func == SetFunc::Sum {
                Ok(Value::Int(sum))
            } else {
                // Integer average, truncated toward zero (documented subset
                // behaviour; minidb has no fractional numeric type).
                Ok(Value::Int(sum / vals.len() as i64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stage_order;

    #[test]
    fn stage_order_starts_at_the_selective_stage() {
        // review's `my_papers`: `Papers p JOIN Authors a ON p.PaperId =
        // a.PaperId WHERE a.UId = ?` — 10,000 papers, one matching author
        // row. Start at Authors, then probe Papers.
        assert_eq!(stage_order(&[10_000, 1], &[(0, 1)]), [1, 0]);
        // Written probe-first already: unchanged.
        assert_eq!(stage_order(&[3, 250_000], &[(0, 1)]), [0, 1]);
        // A join edge beats a smaller unconnected table; ties and
        // edge-less stages fall back to size, then written order.
        assert_eq!(stage_order(&[500, 2, 40], &[(0, 1)]), [1, 0, 2]);
        assert_eq!(stage_order(&[7, 7, 7], &[]), [0, 1, 2]);
        // A chain is followed link by link from the cheapest end.
        assert_eq!(stage_order(&[900, 800, 5], &[(0, 1), (1, 2)]), [2, 1, 0]);
    }
}
