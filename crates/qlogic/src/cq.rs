//! Conjunctive queries with comparisons and parameters.
//!
//! A [`Cq`] is a query of the form
//!
//! ```text
//! ans(t̄) :- R₁(ū₁), …, Rₙ(ūₙ), c₁, …, cₘ
//! ```
//!
//! where each `Rᵢ` is a relational atom over variables, constants, and
//! *parameters* (distinguished constants such as `?MyUId` that stand for
//! session values), and each `cⱼ` is a comparison (`<`, `<=`, `<>`, …).
//! Equality conjuncts are normalized away by substitution, so a well-formed
//! `Cq` has no `=` comparisons.
//!
//! Unions of conjunctive queries ([`Ucq`]) represent `OR` and `IN`-list
//! queries.
//!
//! All names — variables, parameters, relations, string constants — are
//! interned [`Sym`]s, so a [`Term`] is a 16-byte `Copy` value and the
//! homomorphism search never touches the heap per candidate binding. The
//! string-based constructors (`Term::var("x")`, `Atom::new("R", …)`) remain
//! as thin shims over the interner.

use std::fmt;

use sqlir::Value;

use crate::sym::{Sym, ToSym};

/// A constant value with interned string payloads: the `Copy` twin of
/// [`sqlir::Value`] used inside terms.
///
/// Conversion: [`CVal::from_value`] / [`CVal::to_value`]. Ordering matches
/// [`Value::total_cmp`] (`Null < Int < Str < Bool`, strings by content), so
/// normalization and every sorted container behave exactly as before the
/// interning refactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CVal {
    /// The SQL `NULL`.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// An interned UTF-8 string.
    Str(Sym),
    /// A boolean.
    Bool(bool),
}

impl CVal {
    /// Interns a [`Value`] into its compact form.
    pub fn from_value(v: &Value) -> CVal {
        match v {
            Value::Null => CVal::Null,
            Value::Int(i) => CVal::Int(*i),
            Value::Str(s) => CVal::Str(Sym::new(s)),
            Value::Bool(b) => CVal::Bool(*b),
        }
    }

    /// Expands back into a [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            CVal::Null => Value::Null,
            CVal::Int(i) => Value::Int(i),
            CVal::Str(s) => Value::Str(s.as_str().to_string()),
            CVal::Bool(b) => Value::Bool(b),
        }
    }

    /// `true` if the value is `NULL`.
    pub fn is_null(self) -> bool {
        matches!(self, CVal::Null)
    }

    /// Total order over all values; mirrors [`Value::total_cmp`].
    pub fn total_cmp(&self, other: &CVal) -> std::cmp::Ordering {
        fn rank(v: &CVal) -> u8 {
            match v {
                CVal::Null => 0,
                CVal::Int(_) => 1,
                CVal::Str(_) => 2,
                CVal::Bool(_) => 3,
            }
        }
        match (self, other) {
            (CVal::Null, CVal::Null) => std::cmp::Ordering::Equal,
            (CVal::Int(a), CVal::Int(b)) => a.cmp(b),
            (CVal::Str(a), CVal::Str(b)) => a.cmp(b),
            (CVal::Bool(a), CVal::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL three-valued comparison: any `NULL` operand yields `None`.
    pub fn sql_cmp(&self, other: &CVal) -> Option<std::cmp::Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Renders the value as a SQL literal (strings quoted and escaped);
    /// byte-identical to [`Value::to_sql_literal`].
    pub fn to_sql_literal(self) -> String {
        match self {
            CVal::Null => "NULL".to_string(),
            CVal::Int(i) => i.to_string(),
            CVal::Str(s) => format!("'{}'", s.as_str().replace('\'', "''")),
            CVal::Bool(b) => if b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl PartialOrd for CVal {
    fn partial_cmp(&self, other: &CVal) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CVal {
    fn cmp(&self, other: &CVal) -> std::cmp::Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for CVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CVal::Null => f.write_str("NULL"),
            CVal::Int(i) => write!(f, "{i}"),
            CVal::Str(s) => f.write_str(s.as_str()),
            CVal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<&Value> for CVal {
    fn from(v: &Value) -> CVal {
        CVal::from_value(v)
    }
}

impl From<Value> for CVal {
    fn from(v: Value) -> CVal {
        CVal::from_value(&v)
    }
}

/// A term: variable, constant, or named parameter. `Copy` and 16 bytes:
/// binding one during homomorphism search is a register move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable (existential unless it appears in the head).
    Var(Sym),
    /// A constant value.
    Const(CVal),
    /// A named parameter, treated as a distinguished constant.
    Param(Sym),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: impl ToSym) -> Term {
        Term::Var(name.to_sym())
    }

    /// Convenience constructor for an integer constant.
    pub fn int(v: i64) -> Term {
        Term::Const(CVal::Int(v))
    }

    /// Convenience constructor for a string constant.
    pub fn str(v: impl ToSym) -> Term {
        Term::Const(CVal::Str(v.to_sym()))
    }

    /// Convenience constructor for a constant from a runtime [`Value`].
    pub fn constant(v: &Value) -> Term {
        Term::Const(CVal::from_value(v))
    }

    /// Convenience constructor for a parameter.
    pub fn param(name: impl ToSym) -> Term {
        Term::Param(name.to_sym())
    }

    /// Returns the variable symbol, if this is a variable.
    pub fn as_var(&self) -> Option<Sym> {
        match self {
            Term::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// `true` if the term is a constant or parameter (rigid under
    /// homomorphisms).
    pub fn is_rigid(&self) -> bool {
        !matches!(self, Term::Var(_))
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Term) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    // Matches the pre-interning derived order: Var < Const < Param, names by
    // string content. Comparison normalization and BTree iteration depend on
    // this order being unchanged.
    fn cmp(&self, other: &Term) -> std::cmp::Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Var(_) => 0,
                Term::Const(_) => 1,
                Term::Param(_) => 2,
            }
        }
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a.cmp(b),
            (Term::Const(a), Term::Const(b)) => a.total_cmp(b),
            (Term::Param(a), Term::Param(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{}", c.to_sql_literal()),
            Term::Param(p) => write!(f, "?{p}"),
        }
    }
}

/// A relational atom `R(t₁, …, tₖ)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Relation (table) name.
    pub relation: Sym,
    /// Argument terms, one per column.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl ToSym, args: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_sym(),
            args,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// Comparison operators (equality is normalized away in `Cq` bodies but may
/// appear transiently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=` (only transient; normalized by substitution).
    Eq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// The operator with operand order swapped.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the operator on two interned values (three-valued: `None`
    /// if either side is `NULL`).
    pub fn eval(self, a: &CVal, b: &CVal) -> Option<bool> {
        use std::cmp::Ordering::*;
        let ord = a.sql_cmp(b)?;
        Some(match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        })
    }

    /// Evaluates the operator on two runtime [`Value`]s.
    pub fn eval_values(self, a: &Value, b: &Value) -> Option<bool> {
        self.eval(&CVal::from_value(a), &CVal::from_value(b))
    }
}

/// A comparison constraint between two terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comparison {
    /// Left term.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: Term,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Comparison {
        Comparison { lhs, op, rhs }
    }

    /// Canonical form: constants on the right where possible, and ordered
    /// operands for symmetric operators.
    pub fn normalized(&self) -> Comparison {
        let mut c = *self;
        let should_flip = match (&c.lhs, &c.rhs) {
            (l, Term::Var(_)) if l.is_rigid() => true,
            _ => matches!(c.op, CmpOp::Ne | CmpOp::Eq) && c.lhs > c.rhs,
        };
        if should_flip {
            std::mem::swap(&mut c.lhs, &mut c.rhs);
            c.op = c.op.flipped();
        }
        c
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// A substitution from variables to terms.
///
/// Stored as a flat `Vec` of `(Sym, Term)` pairs in insertion order — the
/// entry count in this workspace is a handful of variables, where a linear
/// id scan over `Copy` pairs beats a `BTreeMap<String, Term>` walk by a wide
/// margin and allocates nothing on clone beyond one `Vec`.
///
/// Keys accept anything [`ToSym`], so `s.get("x")`, `s.get(&sym)`, and
/// `s["x"]` all work. Equality is set-like (insertion order does not
/// matter), matching the old map semantics.
#[derive(Clone, Default)]
pub struct Subst {
    entries: Vec<(Sym, Term)>,
}

impl Subst {
    /// An empty substitution.
    pub fn new() -> Subst {
        Subst {
            entries: Vec::new(),
        }
    }

    /// An empty substitution with room for `cap` bindings.
    pub fn with_capacity(cap: usize) -> Subst {
        Subst {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a binding.
    pub fn get<K: ToSym + ?Sized>(&self, key: &K) -> Option<&Term> {
        let k = key.to_sym();
        self.entries
            .iter()
            .find(|(s, _)| s.id() == k.id())
            .map(|(_, t)| t)
    }

    /// Inserts or replaces a binding, returning the previous value.
    pub fn insert(&mut self, key: impl ToSym, value: Term) -> Option<Term> {
        let k = key.to_sym();
        for (s, t) in &mut self.entries {
            if s.id() == k.id() {
                return Some(std::mem::replace(t, value));
            }
        }
        self.entries.push((k, value));
        None
    }

    /// Removes a binding, returning it if present.
    pub fn remove<K: ToSym + ?Sized>(&mut self, key: &K) -> Option<Term> {
        let k = key.to_sym();
        let pos = self.entries.iter().position(|(s, _)| s.id() == k.id())?;
        Some(self.entries.remove(pos).1)
    }

    /// `true` if the key is bound.
    pub fn contains_key<K: ToSym + ?Sized>(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Iterates bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, &Term)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates bindings mutably (values only may be changed).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&Sym, &mut Term)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates the bound variables.
    pub fn keys(&self) -> impl Iterator<Item = &Sym> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates the bound terms.
    pub fn values(&self) -> impl Iterator<Item = &Term> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl PartialEq for Subst {
    fn eq(&self, other: &Subst) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl Eq for Subst {}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: ToSym> FromIterator<(K, Term)> for Subst {
    fn from_iter<I: IntoIterator<Item = (K, Term)>>(iter: I) -> Subst {
        let mut s = Subst::new();
        for (k, v) in iter {
            s.insert(k, v);
        }
        s
    }
}

impl IntoIterator for Subst {
    type Item = (Sym, Term);
    type IntoIter = std::vec::IntoIter<(Sym, Term)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Subst {
    type Item = (&'a Sym, &'a Term);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Sym, Term)>,
        fn(&'a (Sym, Term)) -> (&'a Sym, &'a Term),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl std::ops::Index<&str> for Subst {
    type Output = Term;
    fn index(&self, key: &str) -> &Term {
        self.get(key).expect("no binding for variable")
    }
}

impl std::ops::Index<Sym> for Subst {
    type Output = Term;
    fn index(&self, key: Sym) -> &Term {
        self.get(&key).expect("no binding for variable")
    }
}

/// Applies a substitution to a term.
pub fn apply_term(t: &Term, s: &Subst) -> Term {
    match t {
        Term::Var(v) => s.get(v).copied().unwrap_or(*t),
        _ => *t,
    }
}

/// Applies a substitution to an atom.
pub fn apply_atom(a: &Atom, s: &Subst) -> Atom {
    Atom {
        relation: a.relation,
        args: a.args.iter().map(|t| apply_term(t, s)).collect(),
    }
}

/// Applies a substitution to a comparison.
pub fn apply_comparison(c: &Comparison, s: &Subst) -> Comparison {
    Comparison {
        lhs: apply_term(&c.lhs, s),
        op: c.op,
        rhs: apply_term(&c.rhs, s),
    }
}

/// A conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    /// Optional name (set for views; `ans` when printed otherwise).
    pub name: Option<Sym>,
    /// Head (distinguished) terms.
    pub head: Vec<Term>,
    /// Relational atoms.
    pub atoms: Vec<Atom>,
    /// Comparison constraints (no `Eq` after normalization).
    pub comparisons: Vec<Comparison>,
}

impl Cq {
    /// Creates a query with the given parts.
    pub fn new(head: Vec<Term>, atoms: Vec<Atom>, comparisons: Vec<Comparison>) -> Cq {
        Cq {
            name: None,
            head,
            atoms,
            comparisons,
        }
    }

    /// All variables appearing anywhere, in first-occurrence order.
    pub fn variables(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        };
        for t in &self.head {
            push(t);
        }
        for a in &self.atoms {
            for t in &a.args {
                push(t);
            }
        }
        for c in &self.comparisons {
            push(&c.lhs);
            push(&c.rhs);
        }
        out
    }

    /// Variables appearing in the head.
    pub fn head_vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        for t in &self.head {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// Named parameters mentioned anywhere.
    pub fn params(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Param(p) = t {
                if !out.contains(p) {
                    out.push(*p);
                }
            }
        };
        for t in &self.head {
            push(t);
        }
        for a in &self.atoms {
            for t in &a.args {
                push(t);
            }
        }
        for c in &self.comparisons {
            push(&c.lhs);
            push(&c.rhs);
        }
        out
    }

    /// Applies a substitution to the whole query.
    pub fn substitute(&self, s: &Subst) -> Cq {
        Cq {
            name: self.name,
            head: self.head.iter().map(|t| apply_term(t, s)).collect(),
            atoms: self.atoms.iter().map(|a| apply_atom(a, s)).collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| apply_comparison(c, s))
                .collect(),
        }
    }

    /// Replaces parameters with constant values (instantiating a view for a
    /// session). Unlisted parameters are left in place. A parameter is
    /// matched by its spelling, which resolves without the interner's lock.
    pub fn instantiate(&self, bindings: &[(String, Value)]) -> Cq {
        let map_term = |t: &Term| -> Term {
            if let Term::Param(p) = t {
                let name = p.as_str();
                if let Some((_, v)) = bindings.iter().find(|(n, _)| n == name) {
                    return Term::constant(v);
                }
            }
            *t
        };
        Cq {
            name: self.name,
            head: self.head.iter().map(map_term).collect(),
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom {
                    relation: a.relation,
                    args: a.args.iter().map(map_term).collect(),
                })
                .collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| Comparison {
                    lhs: map_term(&c.lhs),
                    op: c.op,
                    rhs: map_term(&c.rhs),
                })
                .collect(),
        }
    }

    /// Renames every variable with a prefix, avoiding capture when mixing
    /// queries in one namespace.
    pub fn rename_vars(&self, prefix: &str) -> Cq {
        let s: Subst = self
            .variables()
            .into_iter()
            .map(|v| (v, Term::var(format!("{prefix}{v}"))))
            .collect();
        self.substitute(&s)
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name.map(Sym::as_str).unwrap_or("ans"))?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(") :- ")?;
        let mut first = true;
        for a in &self.atoms {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.comparisons {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        if first {
            f.write_str("true")?;
        }
        Ok(())
    }
}

/// A union of conjunctive queries (all disjuncts share head arity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    /// The disjuncts.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Wraps a single CQ.
    pub fn single(cq: Cq) -> Ucq {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// The head arity shared by all disjuncts (0 if empty).
    pub fn arity(&self) -> usize {
        self.disjuncts.first().map(|c| c.head.len()).unwrap_or(0)
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str("\n∪ ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cq {
        // ans(u, t) :- Attendance(u, e, n), Events(e, t, k), u <> 3
        Cq::new(
            vec![Term::var("u"), Term::var("t")],
            vec![
                Atom::new(
                    "Attendance",
                    vec![Term::var("u"), Term::var("e"), Term::var("n")],
                ),
                Atom::new(
                    "Events",
                    vec![Term::var("e"), Term::var("t"), Term::var("k")],
                ),
            ],
            vec![Comparison::new(Term::var("u"), CmpOp::Ne, Term::int(3))],
        )
    }

    #[test]
    fn variable_collection_in_order() {
        assert_eq!(sample().variables(), vec!["u", "t", "e", "n", "k"]);
        assert_eq!(sample().head_vars(), vec!["u", "t"]);
    }

    #[test]
    fn substitution_applies_everywhere() {
        let mut s = Subst::new();
        s.insert("u", Term::int(7));
        let q = sample().substitute(&s);
        assert_eq!(q.head[0], Term::int(7));
        assert_eq!(q.atoms[0].args[0], Term::int(7));
        assert_eq!(q.comparisons[0].lhs, Term::int(7));
    }

    #[test]
    fn instantiate_replaces_params() {
        let q = Cq::new(
            vec![Term::var("e")],
            vec![Atom::new(
                "Attendance",
                vec![Term::param("MyUId"), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let inst = q.instantiate(&[("MyUId".into(), Value::Int(1))]);
        assert_eq!(inst.atoms[0].args[0], Term::int(1));
        assert!(inst.params().is_empty());
    }

    #[test]
    fn rename_avoids_collisions() {
        let q = sample().rename_vars("x_");
        assert_eq!(q.variables(), vec!["x_u", "x_t", "x_e", "x_n", "x_k"]);
    }

    #[test]
    fn display_is_readable() {
        let s = sample().to_string();
        assert!(s.starts_with("ans(u, t) :- Attendance(u, e, n)"), "{s}");
        assert!(s.contains("u <> 3"));
    }

    #[test]
    fn comparison_normalization() {
        // const < var flips to var > const.
        let c = Comparison::new(Term::int(3), CmpOp::Lt, Term::var("x")).normalized();
        assert_eq!(c, Comparison::new(Term::var("x"), CmpOp::Gt, Term::int(3)));
        // symmetric ops order operands.
        let c = Comparison::new(Term::var("y"), CmpOp::Ne, Term::var("x")).normalized();
        assert_eq!(
            c,
            Comparison::new(Term::var("x"), CmpOp::Ne, Term::var("y"))
        );
    }

    #[test]
    fn cmp_op_eval() {
        assert_eq!(
            CmpOp::Lt.eval_values(&Value::Int(1), &Value::Int(2)),
            Some(true)
        );
        assert_eq!(
            CmpOp::Ge.eval_values(&Value::str("b"), &Value::str("a")),
            Some(true)
        );
        assert_eq!(CmpOp::Eq.eval_values(&Value::Null, &Value::Int(1)), None);
    }

    #[test]
    fn term_is_copy_and_small() {
        // The refactor's contract: terms are registers, not heap clones.
        assert_eq!(std::mem::size_of::<Term>(), 16);
        let t = Term::var("x");
        let u = t; // Copy, not move
        assert_eq!(t, u);
    }

    #[test]
    fn subst_equality_ignores_insertion_order() {
        let mut a = Subst::new();
        a.insert("x", Term::int(1));
        a.insert("y", Term::int(2));
        let mut b = Subst::new();
        b.insert("y", Term::int(2));
        b.insert("x", Term::int(1));
        assert_eq!(a, b);
        b.insert("z", Term::int(3));
        assert_ne!(a, b);
    }

    #[test]
    fn subst_index_by_str_and_sym() {
        let mut s = Subst::new();
        s.insert("x", Term::int(1));
        assert_eq!(s["x"], Term::int(1));
        assert_eq!(s[crate::sym::Sym::new("x")], Term::int(1));
        assert_eq!(s.get("missing"), None);
    }
}
