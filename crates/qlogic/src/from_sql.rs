//! Translation between the SQL AST and conjunctive queries.
//!
//! [`sql_to_ucq`] maps a `SELECT` in the select-project-join fragment
//! (plus `OR`/`IN`-lists, which expand to unions, and non-negated
//! `EXISTS`/`IN` subqueries, which fold into the body) onto a [`Ucq`].
//! Queries outside the fragment produce a typed
//! [`LogicError::OutOfFragment`] so callers can fall back to conservative
//! handling.
//!
//! [`cq_to_sql`] goes the other way, rendering a CQ as an executable
//! `SELECT` — used to turn rewritings back into SQL patches.

use std::collections::BTreeMap;

use sqlir::{
    BinaryOp, ColumnRef, Distinctness, Expr, JoinClause, Param, Query, SelectItem, TableRef,
    UnaryOp, Value,
};

use crate::cq::{Atom, CmpOp, Comparison, Cq, Subst, Term, Ucq};
use crate::error::LogicError;

/// Maximum number of disjuncts produced by DNF expansion.
pub const MAX_DISJUNCTS: usize = 64;

/// Relation schemas needed for translation (column names per table), plus
/// optional key information for dependency-aware reasoning.
#[derive(Debug, Clone, Default)]
pub struct RelSchema {
    tables: BTreeMap<String, Vec<String>>,
    keys: BTreeMap<String, Vec<usize>>,
    foreign_keys: Vec<crate::deps::Ind>,
}

impl RelSchema {
    /// Creates an empty schema.
    pub fn new() -> RelSchema {
        RelSchema::default()
    }

    /// Adds (or replaces) a table with its column names.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) {
        self.tables
            .insert(name.into(), columns.into_iter().map(Into::into).collect());
    }

    /// Declares the primary-key column positions of a table.
    pub fn set_key(&mut self, name: impl Into<String>, key: Vec<usize>) {
        self.keys.insert(name.into(), key);
    }

    /// Declares a foreign key (child columns reference parent columns).
    /// The parent's arity is resolved from its declared columns; unknown
    /// parents are ignored.
    pub fn set_foreign_key(
        &mut self,
        child: impl Into<String>,
        child_cols: Vec<usize>,
        parent: impl Into<String>,
        parent_cols: Vec<usize>,
    ) {
        let parent = parent.into();
        let Some(parent_arity) = self.arity(&parent) else {
            return;
        };
        self.foreign_keys.push(crate::deps::Ind {
            child: crate::sym::Sym::from(child.into()),
            child_cols,
            parent: crate::sym::Sym::from(parent),
            parent_cols,
            parent_arity,
        });
    }

    /// The declared dependencies (keys and foreign keys).
    pub fn dependencies(&self) -> crate::deps::Dependencies {
        let mut deps = crate::deps::Dependencies::none();
        for (table, key) in &self.keys {
            if !key.is_empty() {
                deps = deps.with_key(table.clone(), key.clone());
            }
        }
        for ind in &self.foreign_keys {
            deps = deps.with_inclusion(ind.clone());
        }
        deps
    }

    /// Returns a table's columns.
    pub fn columns(&self, table: &str) -> Result<&[String], LogicError> {
        self.tables
            .get(table)
            .map(|v| v.as_slice())
            .ok_or_else(|| LogicError::UnknownSymbol(format!("table {table}")))
    }

    /// All table names.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// Number of columns of a table, if known.
    pub fn arity(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(|c| c.len())
    }
}

/// One table binding during translation.
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    columns: Vec<String>,
    /// Variable names, one per column.
    vars: Vec<String>,
}

#[derive(Debug, Clone, Default)]
struct TransScope {
    bindings: Vec<Binding>,
}

impl TransScope {
    fn resolve(&self, col: &ColumnRef) -> Result<Option<Term>, LogicError> {
        match &col.table {
            Some(t) => {
                for b in &self.bindings {
                    if &b.name == t {
                        return match b.columns.iter().position(|c| c == &col.column) {
                            Some(i) => Ok(Some(Term::var(b.vars[i].clone()))),
                            None => Err(LogicError::UnknownSymbol(format!(
                                "column {t}.{}",
                                col.column
                            ))),
                        };
                    }
                }
                Ok(None)
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(i) = b.columns.iter().position(|c| c == &col.column) {
                        if found.is_some() {
                            return Err(LogicError::OutOfFragment(format!(
                                "ambiguous column {}",
                                col.column
                            )));
                        }
                        found = Some(Term::var(b.vars[i].clone()));
                    }
                }
                Ok(found)
            }
        }
    }
}

/// Translates a SQL `SELECT` into a union of conjunctive queries.
pub fn sql_to_ucq(schema: &RelSchema, q: &Query) -> Result<Ucq, LogicError> {
    let mut fresh = 0usize;
    let cqs = translate_query(schema, q, &mut fresh, None)?;
    Ok(Ucq { disjuncts: cqs })
}

/// Translates a SQL `SELECT` that must be a single conjunctive query.
pub fn sql_to_cq(schema: &RelSchema, q: &Query) -> Result<Cq, LogicError> {
    let u = sql_to_ucq(schema, q)?;
    match <[Cq; 1]>::try_from(u.disjuncts) {
        Ok([cq]) => Ok(cq),
        Err(v) => Err(LogicError::OutOfFragment(format!(
            "query expands to {} disjuncts, expected exactly 1",
            v.len()
        ))),
    }
}

fn translate_query(
    schema: &RelSchema,
    q: &Query,
    fresh: &mut usize,
    outer: Option<&TransScope>,
) -> Result<Vec<Cq>, LogicError> {
    if q.has_aggregates() || !q.group_by.is_empty() || q.having.is_some() {
        return Err(LogicError::OutOfFragment("aggregation".into()));
    }
    // A `LIMIT` answer depends on the order the store meets rows in, which
    // no set-valued view determines. `ORDER BY` alone reorders a set, so it
    // reveals nothing more and is ignored for logical purposes.
    if q.limit.is_some() {
        return Err(LogicError::OutOfFragment("LIMIT".into()));
    }

    let scope_id = *fresh;
    *fresh += 1;

    let mut scope = TransScope::default();
    let mut atoms = Vec::new();
    let mut predicates: Vec<&Expr> = Vec::new();

    let add_binding = |scope: &mut TransScope,
                       atoms: &mut Vec<Atom>,
                       tref: &TableRef|
     -> Result<(), LogicError> {
        let columns = schema.columns(&tref.table)?.to_vec();
        let binding = tref.binding().to_string();
        if scope.bindings.iter().any(|b| b.name == binding) {
            return Err(LogicError::OutOfFragment(format!(
                "duplicate binding {binding}"
            )));
        }
        let vars: Vec<String> = columns
            .iter()
            .map(|c| format!("s{scope_id}.{binding}.{c}"))
            .collect();
        atoms.push(Atom::new(
            tref.table.clone(),
            vars.iter().map(|v| Term::var(v.clone())).collect(),
        ));
        scope.bindings.push(Binding {
            name: binding,
            columns,
            vars,
        });
        Ok(())
    };

    for tref in &q.from {
        add_binding(&mut scope, &mut atoms, tref)?;
    }
    for JoinClause { table, on } in &q.joins {
        add_binding(&mut scope, &mut atoms, table)?;
        predicates.push(on);
    }
    if let Some(w) = &q.where_clause {
        predicates.push(w);
    }

    // Translate the conjunction of all predicates into DNF over leaves.
    let mut disjuncts: Vec<LeafConj> = vec![LeafConj::default()];
    for p in predicates {
        let dnf = to_dnf(schema, p, &scope, outer, fresh, false)?;
        let mut next = Vec::new();
        for d in &disjuncts {
            for clause in &dnf {
                let mut merged = d.clone();
                merged.merge(clause);
                next.push(merged);
                if next.len() > MAX_DISJUNCTS {
                    return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
                }
            }
        }
        disjuncts = next;
    }

    // Head terms.
    let mut head = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Wildcard => {
                for b in &scope.bindings {
                    head.extend(b.vars.iter().map(|v| Term::var(v.clone())));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let b = scope
                    .bindings
                    .iter()
                    .find(|b| &b.name == t)
                    .ok_or_else(|| LogicError::UnknownSymbol(format!("binding {t}")))?;
                head.extend(b.vars.iter().map(|v| Term::var(v.clone())));
            }
            SelectItem::Expr { expr, .. } => head.push(expr_to_term(expr, &scope, outer)?),
        }
    }

    // Assemble one CQ per disjunct, normalizing equalities.
    let mut out = Vec::new();
    for d in disjuncts {
        let mut cq = Cq::new(head.clone(), atoms.clone(), Vec::new());
        cq.atoms.extend(d.extra_atoms.clone());
        if let Some(cq) = normalize_disjunct(cq, &d.comparisons) {
            out.push(cq);
        }
    }
    if out.is_empty() {
        // Every disjunct was unsatisfiable; represent as one contradictory CQ
        // so callers still see a well-formed (empty) query.
        let mut cq = Cq::new(head, atoms, Vec::new());
        cq.comparisons
            .push(Comparison::new(Term::int(0), CmpOp::Eq, Term::int(1)));
        out.push(cq);
    }
    Ok(out)
}

/// A conjunction of leaf constraints accumulated during DNF expansion.
#[derive(Debug, Clone, Default)]
struct LeafConj {
    comparisons: Vec<Comparison>,
    extra_atoms: Vec<Atom>,
}

impl LeafConj {
    fn merge(&mut self, other: &LeafConj) {
        self.comparisons.extend(other.comparisons.iter().cloned());
        self.extra_atoms.extend(other.extra_atoms.iter().cloned());
    }
}

fn expr_to_term(
    e: &Expr,
    scope: &TransScope,
    outer: Option<&TransScope>,
) -> Result<Term, LogicError> {
    match e {
        Expr::Literal(v) => {
            if v.is_null() {
                Err(LogicError::OutOfFragment("NULL literal".into()))
            } else {
                Ok(Term::constant(v))
            }
        }
        Expr::Param(Param::Named(n)) => Ok(Term::param(n.clone())),
        Expr::Param(Param::Positional(i)) => Ok(Term::param(format!("arg{i}"))),
        Expr::Column(c) => match scope.resolve(c)? {
            Some(t) => Ok(t),
            None => match outer {
                Some(o) => match o.resolve(c)? {
                    Some(t) => Ok(t),
                    None => Err(LogicError::UnknownSymbol(format!("column {}", c.column))),
                },
                None => Err(LogicError::UnknownSymbol(format!("column {}", c.column))),
            },
        },
        other => Err(LogicError::OutOfFragment(format!("expression {other}"))),
    }
}

fn cmp_of(op: BinaryOp) -> Option<CmpOp> {
    Some(match op {
        BinaryOp::Eq => CmpOp::Eq,
        BinaryOp::Ne => CmpOp::Ne,
        BinaryOp::Lt => CmpOp::Lt,
        BinaryOp::Le => CmpOp::Le,
        BinaryOp::Gt => CmpOp::Gt,
        BinaryOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

fn negate_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// Converts a predicate to DNF over comparison/subquery leaves.
fn to_dnf(
    schema: &RelSchema,
    e: &Expr,
    scope: &TransScope,
    outer: Option<&TransScope>,
    fresh: &mut usize,
    negated: bool,
) -> Result<Vec<LeafConj>, LogicError> {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } if !negated => cross(schema, lhs, rhs, scope, outer, fresh, false),
        Expr::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } if !negated => {
            let mut l = to_dnf(schema, lhs, scope, outer, fresh, false)?;
            let r = to_dnf(schema, rhs, scope, outer, fresh, false)?;
            l.extend(r);
            if l.len() > MAX_DISJUNCTS {
                return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
            }
            Ok(l)
        }
        // De Morgan under negation.
        Expr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            let mut l = to_dnf(schema, lhs, scope, outer, fresh, true)?;
            let r = to_dnf(schema, rhs, scope, outer, fresh, true)?;
            l.extend(r);
            if l.len() > MAX_DISJUNCTS {
                return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
            }
            Ok(l)
        }
        Expr::Binary {
            op: BinaryOp::Or,
            lhs,
            rhs,
        } => cross_negated(schema, lhs, rhs, scope, outer, fresh),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => to_dnf(schema, expr, scope, outer, fresh, !negated),
        Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
            let mut cmp = cmp_of(*op).expect("comparison op");
            if negated {
                cmp = negate_cmp(cmp);
            }
            let l = expr_to_term(lhs, scope, outer)?;
            let r = expr_to_term(rhs, scope, outer)?;
            Ok(vec![LeafConj {
                comparisons: vec![Comparison::new(l, cmp, r)],
                extra_atoms: vec![],
            }])
        }
        Expr::InList {
            expr,
            list,
            negated: in_neg,
        } => {
            let t = expr_to_term(expr, scope, outer)?;
            let effective_neg = in_neg ^ negated;
            if effective_neg {
                // NOT IN: conjunction of disequalities (one clause).
                let comparisons = list
                    .iter()
                    .map(|item| {
                        Ok(Comparison::new(
                            t,
                            CmpOp::Ne,
                            expr_to_term(item, scope, outer)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, LogicError>>()?;
                Ok(vec![LeafConj {
                    comparisons,
                    extra_atoms: vec![],
                }])
            } else {
                // IN: disjunction of equalities.
                let mut out = Vec::new();
                for item in list {
                    out.push(LeafConj {
                        comparisons: vec![Comparison::new(
                            t,
                            CmpOp::Eq,
                            expr_to_term(item, scope, outer)?,
                        )],
                        extra_atoms: vec![],
                    });
                }
                if out.len() > MAX_DISJUNCTS {
                    return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
                }
                Ok(out)
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: bt_neg,
        } => {
            let t = expr_to_term(expr, scope, outer)?;
            let lo = expr_to_term(low, scope, outer)?;
            let hi = expr_to_term(high, scope, outer)?;
            if bt_neg ^ negated {
                Ok(vec![
                    LeafConj {
                        comparisons: vec![Comparison::new(t, CmpOp::Lt, lo)],
                        extra_atoms: vec![],
                    },
                    LeafConj {
                        comparisons: vec![Comparison::new(t, CmpOp::Gt, hi)],
                        extra_atoms: vec![],
                    },
                ])
            } else {
                Ok(vec![LeafConj {
                    comparisons: vec![
                        Comparison::new(t, CmpOp::Ge, lo),
                        Comparison::new(t, CmpOp::Le, hi),
                    ],
                    extra_atoms: vec![],
                }])
            }
        }
        Expr::Exists {
            query,
            negated: ex_neg,
        } => {
            if ex_neg ^ negated {
                return Err(LogicError::OutOfFragment("NOT EXISTS".into()));
            }
            let sub = translate_query(schema, query, fresh, Some(scope))?;
            disjuncts_to_leaves(sub, None)
        }
        Expr::InSubquery {
            expr,
            query,
            negated: in_neg,
        } => {
            if in_neg ^ negated {
                return Err(LogicError::OutOfFragment("NOT IN (subquery)".into()));
            }
            let t = expr_to_term(expr, scope, outer)?;
            let sub = translate_query(schema, query, fresh, Some(scope))?;
            disjuncts_to_leaves(sub, Some(t))
        }
        Expr::Like {
            expr,
            pattern,
            negated: lk_neg,
        } => {
            // LIKE without wildcards is equality; everything else is out of
            // the fragment.
            if let Expr::Literal(Value::Str(p)) = pattern.as_ref() {
                if !p.contains('%') && !p.contains('_') {
                    let t = expr_to_term(expr, scope, outer)?;
                    let op = if lk_neg ^ negated {
                        CmpOp::Ne
                    } else {
                        CmpOp::Eq
                    };
                    return Ok(vec![LeafConj {
                        comparisons: vec![Comparison::new(t, op, Term::str(p.as_str()))],
                        extra_atoms: vec![],
                    }]);
                }
            }
            Err(LogicError::OutOfFragment("LIKE with wildcards".into()))
        }
        Expr::Literal(Value::Bool(b)) => {
            if *b != negated {
                Ok(vec![LeafConj::default()])
            } else {
                // FALSE: contradictory clause.
                Ok(vec![LeafConj {
                    comparisons: vec![Comparison::new(Term::int(0), CmpOp::Eq, Term::int(1))],
                    extra_atoms: vec![],
                }])
            }
        }
        other => Err(LogicError::OutOfFragment(format!("predicate {other}"))),
    }
}

/// Converts subquery disjuncts into leaves whose atoms/comparisons fold into
/// the outer body; `in_term`, when set, is equated with the subquery head.
fn disjuncts_to_leaves(sub: Vec<Cq>, in_term: Option<Term>) -> Result<Vec<LeafConj>, LogicError> {
    let mut out = Vec::new();
    for cq in sub {
        let mut leaf = LeafConj {
            comparisons: cq.comparisons.clone(),
            extra_atoms: cq.atoms.clone(),
        };
        if let Some(t) = &in_term {
            if cq.head.len() != 1 {
                return Err(LogicError::OutOfFragment(
                    "IN subquery must project one column".into(),
                ));
            }
            leaf.comparisons
                .push(Comparison::new(*t, CmpOp::Eq, cq.head[0]));
        }
        out.push(leaf);
    }
    Ok(out)
}

fn cross(
    schema: &RelSchema,
    lhs: &Expr,
    rhs: &Expr,
    scope: &TransScope,
    outer: Option<&TransScope>,
    fresh: &mut usize,
    negated: bool,
) -> Result<Vec<LeafConj>, LogicError> {
    let l = to_dnf(schema, lhs, scope, outer, fresh, negated)?;
    let r = to_dnf(schema, rhs, scope, outer, fresh, negated)?;
    let mut out = Vec::new();
    for a in &l {
        for b in &r {
            let mut m = a.clone();
            m.merge(b);
            out.push(m);
            if out.len() > MAX_DISJUNCTS {
                return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
            }
        }
    }
    Ok(out)
}

/// `NOT (a OR b)` = `NOT a AND NOT b` — the cross-product of negations.
fn cross_negated(
    schema: &RelSchema,
    lhs: &Expr,
    rhs: &Expr,
    scope: &TransScope,
    outer: Option<&TransScope>,
    fresh: &mut usize,
) -> Result<Vec<LeafConj>, LogicError> {
    let l = to_dnf(schema, lhs, scope, outer, fresh, true)?;
    let r = to_dnf(schema, rhs, scope, outer, fresh, true)?;
    let mut out = Vec::new();
    for a in &l {
        for b in &r {
            let mut m = a.clone();
            m.merge(b);
            out.push(m);
            if out.len() > MAX_DISJUNCTS {
                return Err(LogicError::TooManyDisjuncts(MAX_DISJUNCTS));
            }
        }
    }
    Ok(out)
}

/// Normalizes one disjunct: substitutes equalities away, drops definitely
/// unsatisfiable disjuncts (returns `None`).
fn normalize_disjunct(mut cq: Cq, raw_comparisons: &[Comparison]) -> Option<Cq> {
    let mut comps: Vec<Comparison> = raw_comparisons.to_vec();
    let mut kept: Vec<Comparison> = Vec::new();

    // Iterate to a fixpoint: each substitution is applied to everything
    // (query and remaining comparisons) before the next one is chosen.
    loop {
        let idx = comps.iter().position(|c| {
            c.op == CmpOp::Eq && (matches!((&c.lhs, &c.rhs), (Term::Var(_), _) | (_, Term::Var(_))))
        });
        let Some(idx) = idx else { break };
        let c = comps.remove(idx);
        match (&c.lhs, &c.rhs) {
            (a, b) if a == b => {}
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                let mut s = Subst::new();
                s.insert(*v, *t);
                cq = cq.substitute(&s);
                comps = comps
                    .iter()
                    .map(|x| crate::cq::apply_comparison(x, &s))
                    .collect();
            }
            _ => unreachable!("position matched a variable side"),
        }
    }
    for c in comps {
        if c.op == CmpOp::Eq {
            match (&c.lhs, &c.rhs) {
                (Term::Const(a), Term::Const(b)) => {
                    if a != b {
                        return None; // contradictory disjunct
                    }
                }
                (a, b) if a == b => {}
                // Param-vs-const / param-vs-param: keep as a residual
                // equality constraint.
                _ => kept.push(c),
            }
        } else {
            kept.push(c);
        }
    }

    // Drop trivially true comparisons, detect trivially false ones.
    let mut finals = Vec::new();
    for c in kept {
        if let (Term::Const(a), Term::Const(b)) = (&c.lhs, &c.rhs) {
            match c.op.eval(a, b) {
                Some(true) => continue,
                Some(false) | None => return None,
            }
        }
        if c.lhs == c.rhs {
            match c.op {
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => continue,
                CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => return None,
            }
        }
        let n = c.normalized();
        if !finals.contains(&n) {
            finals.push(n);
        }
    }
    cq.comparisons = finals;
    if crate::compare::definitely_unsat(&cq.comparisons) {
        return None;
    }
    // Deduplicate atoms.
    let mut atoms = Vec::new();
    for a in cq.atoms {
        if !atoms.contains(&a) {
            atoms.push(a);
        }
    }
    cq.atoms = atoms;
    Some(cq)
}

/// Renders a conjunctive query as an executable SQL `SELECT`.
///
/// Atoms become aliased `FROM` entries (`t0`, `t1`, …); repeated variables
/// and rigid arguments become `WHERE` equalities; comparisons append as
/// further conjuncts. The schema supplies column names.
pub fn cq_to_sql(schema: &RelSchema, cq: &Cq) -> Result<Query, LogicError> {
    let mut q = Query::new();
    q.distinct = Distinctness::Distinct;
    let mut var_site: BTreeMap<crate::sym::Sym, Expr> = BTreeMap::new();
    let mut conditions: Vec<Expr> = Vec::new();

    for (i, atom) in cq.atoms.iter().enumerate() {
        let alias = format!("t{i}");
        let columns = schema.columns(atom.relation.as_str())?;
        if columns.len() != atom.args.len() {
            return Err(LogicError::Internal(format!(
                "atom {} arity {} does not match schema arity {}",
                atom.relation,
                atom.args.len(),
                columns.len()
            )));
        }
        q.from
            .push(TableRef::aliased(atom.relation.as_str(), alias.clone()));
        for (col, arg) in columns.iter().zip(&atom.args) {
            let site = Expr::qcol(alias.clone(), col.clone());
            match arg {
                Term::Var(v) => match var_site.get(v) {
                    Some(first) => conditions.push(Expr::eq(site, first.clone())),
                    None => {
                        var_site.insert(*v, site);
                    }
                },
                Term::Const(c) => {
                    conditions.push(Expr::eq(site, Expr::Literal(c.to_value())));
                }
                Term::Param(p) => {
                    conditions.push(Expr::eq(site, Expr::named_param(p.as_str())));
                }
            }
        }
    }

    let term_expr = |t: &Term| -> Result<Expr, LogicError> {
        Ok(match t {
            Term::Var(v) => var_site
                .get(v)
                .cloned()
                .ok_or_else(|| LogicError::Internal(format!("unsafe variable {v}")))?,
            Term::Const(c) => Expr::Literal(c.to_value()),
            Term::Param(p) => Expr::named_param(p.as_str()),
        })
    };

    for c in &cq.comparisons {
        let l = term_expr(&c.lhs)?;
        let r = term_expr(&c.rhs)?;
        let op = match c.op {
            CmpOp::Eq => BinaryOp::Eq,
            CmpOp::Ne => BinaryOp::Ne,
            CmpOp::Lt => BinaryOp::Lt,
            CmpOp::Le => BinaryOp::Le,
            CmpOp::Gt => BinaryOp::Gt,
            CmpOp::Ge => BinaryOp::Ge,
        };
        conditions.push(Expr::binary(op, l, r));
    }

    for h in &cq.head {
        q.items.push(SelectItem::Expr {
            expr: term_expr(h)?,
            alias: None,
        });
    }
    if q.items.is_empty() {
        // Boolean query: project a constant.
        q.items.push(SelectItem::Expr {
            expr: Expr::int(1),
            alias: None,
        });
    }
    q.where_clause = Expr::and_all(conditions);
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlir::parse_query;

    fn calendar_schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Users", ["UId", "Name"]);
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s.add_table("Employees", ["name", "age"]);
        s
    }

    fn to_cq(sql: &str) -> Cq {
        let q = parse_query(sql).unwrap();
        sql_to_cq(&calendar_schema(), &q).unwrap()
    }

    #[test]
    fn translates_q1_from_paper() {
        let cq = to_cq("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2");
        assert_eq!(cq.head, vec![Term::int(1)]);
        assert_eq!(cq.atoms.len(), 1);
        assert_eq!(cq.atoms[0].relation, "Attendance");
        assert_eq!(cq.atoms[0].args[0], Term::int(1));
        assert_eq!(cq.atoms[0].args[1], Term::int(2));
        assert!(matches!(cq.atoms[0].args[2], Term::Var(_)));
        assert!(cq.comparisons.is_empty());
    }

    #[test]
    fn translates_view_v2() {
        let cq =
            to_cq("SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId");
        assert_eq!(cq.atoms.len(), 2);
        // The join equality unified the two EId variables.
        let ev_eid = &cq.atoms[0].args[0];
        let at_eid = &cq.atoms[1].args[1];
        assert_eq!(ev_eid, at_eid);
        // The parameter landed in the Attendance UId slot.
        assert_eq!(cq.atoms[1].args[0], Term::param("MyUId"));
        // SELECT * projects all six columns.
        assert_eq!(cq.head.len(), 6);
    }

    #[test]
    fn comparison_queries() {
        let cq = to_cq("SELECT name FROM Employees WHERE age >= 60");
        assert_eq!(cq.comparisons.len(), 1);
        assert_eq!(cq.comparisons[0].op, CmpOp::Ge);
    }

    #[test]
    fn or_expands_to_union() {
        let q = parse_query("SELECT EId FROM Events WHERE Kind = 'a' OR Kind = 'b'").unwrap();
        let u = sql_to_ucq(&calendar_schema(), &q).unwrap();
        assert_eq!(u.disjuncts.len(), 2);
    }

    #[test]
    fn in_list_expands_to_union() {
        let q = parse_query("SELECT EId FROM Events WHERE EId IN (1, 2, 3)").unwrap();
        let u = sql_to_ucq(&calendar_schema(), &q).unwrap();
        assert_eq!(u.disjuncts.len(), 3);
        assert_eq!(u.disjuncts[0].atoms[0].args[0], Term::int(1));
    }

    #[test]
    fn exists_folds_into_body() {
        let cq = to_cq(
            "SELECT Title FROM Events e WHERE EXISTS \
             (SELECT 1 FROM Attendance a WHERE a.EId = e.EId AND a.UId = 5)",
        );
        assert_eq!(cq.atoms.len(), 2);
        assert_eq!(cq.atoms[1].relation, "Attendance");
        assert_eq!(cq.atoms[1].args[0], Term::int(5));
        // Correlation: the subquery's EId var unified with the outer one.
        assert_eq!(cq.atoms[1].args[1], cq.atoms[0].args[0]);
    }

    #[test]
    fn in_subquery_folds_with_equality() {
        let cq = to_cq(
            "SELECT Title FROM Events WHERE EId IN (SELECT EId FROM Attendance WHERE UId = 7)",
        );
        assert_eq!(cq.atoms.len(), 2);
        assert_eq!(cq.atoms[0].args[0], cq.atoms[1].args[1]);
    }

    #[test]
    fn rejects_out_of_fragment() {
        let schema = calendar_schema();
        let agg = parse_query("SELECT COUNT(*) FROM Events").unwrap();
        assert!(matches!(
            sql_to_ucq(&schema, &agg),
            Err(LogicError::OutOfFragment(_))
        ));
        let neg = parse_query(
            "SELECT 1 FROM Events e WHERE NOT EXISTS (SELECT 1 FROM Attendance a \
             WHERE a.EId = e.EId)",
        )
        .unwrap();
        assert!(matches!(
            sql_to_ucq(&schema, &neg),
            Err(LogicError::OutOfFragment(_))
        ));
        let isnull = parse_query("SELECT 1 FROM Events WHERE Kind IS NULL").unwrap();
        assert!(sql_to_ucq(&schema, &isnull).is_err());
    }

    #[test]
    fn contradictory_where_collapses() {
        let q = parse_query("SELECT EId FROM Events WHERE EId = 1 AND EId = 2").unwrap();
        let u = sql_to_ucq(&calendar_schema(), &q).unwrap();
        // The contradiction is preserved as an unsatisfiable marker CQ.
        assert_eq!(u.disjuncts.len(), 1);
        assert!(!crate::containment::satisfiable(&u.disjuncts[0]));
    }

    #[test]
    fn between_translates_to_two_comparisons() {
        let cq = to_cq("SELECT name FROM Employees WHERE age BETWEEN 18 AND 60");
        assert_eq!(cq.comparisons.len(), 2);
    }

    #[test]
    fn not_pushes_through() {
        let cq = to_cq("SELECT name FROM Employees WHERE NOT age < 18");
        assert_eq!(cq.comparisons[0].op, CmpOp::Ge);
        let q = parse_query("SELECT name FROM Employees WHERE NOT (age < 18 OR age > 60)").unwrap();
        let cq = sql_to_cq(&calendar_schema(), &q).unwrap();
        assert_eq!(cq.comparisons.len(), 2);
    }

    #[test]
    fn roundtrip_cq_to_sql() {
        let schema = calendar_schema();
        let cq = to_cq(
            "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId \
             WHERE a.UId = 4 AND e.Kind <> 'secret'",
        );
        let sql = cq_to_sql(&schema, &cq).unwrap();
        // Round-trip back to a CQ and check equivalence.
        let cq2 = sql_to_cq(&schema, &sql).unwrap();
        assert!(crate::containment::equivalent(&cq, &cq2), "{cq}\nvs\n{cq2}");
    }

    #[test]
    fn roundtrip_preserves_params() {
        let schema = calendar_schema();
        let cq = to_cq("SELECT EId FROM Attendance WHERE UId = ?MyUId");
        let sql = cq_to_sql(&schema, &cq).unwrap();
        assert!(sql.to_string().contains("?MyUId"));
        let cq2 = sql_to_cq(&schema, &sql).unwrap();
        assert!(crate::containment::equivalent(&cq, &cq2));
    }

    #[test]
    fn like_without_wildcards_is_equality() {
        let cq = to_cq("SELECT EId FROM Events WHERE Kind LIKE 'work'");
        // Equality substituted the constant into the atom.
        assert_eq!(cq.atoms[0].args[2], Term::str("work"));
    }
}
