//! Anti-unification: least general generalization of conjunctive queries.
//!
//! The specification-mining side of policy extraction observes many concrete
//! query traces ("`Attendance(1, 2, ·)` was probed", "`Attendance(5, 9, ·)`
//! was probed") and must generalize them into a parameterized view. The core
//! operation is *anti-unification*: positions where two queries agree keep
//! their term; positions where they differ become a shared fresh variable —
//! the same variable wherever the same pair of terms disagrees, which is what
//! preserves join structure.

use std::collections::BTreeMap;

use sqlir::Value;

use crate::cq::{Atom, CVal, Comparison, Cq, Term};
use crate::sym::Sym;

/// Anti-unifies two queries with identical shape (same relation sequence,
/// head arity, and comparison operators). Returns `None` if shapes differ.
pub fn anti_unify(a: &Cq, b: &Cq) -> Option<Cq> {
    if a.head.len() != b.head.len()
        || a.atoms.len() != b.atoms.len()
        || a.comparisons.len() != b.comparisons.len()
    {
        return None;
    }
    for (x, y) in a.atoms.iter().zip(&b.atoms) {
        if x.relation != y.relation || x.args.len() != y.args.len() {
            return None;
        }
    }
    for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
        if x.op != y.op {
            return None;
        }
    }

    let mut pairs: BTreeMap<(Term, Term), Term> = BTreeMap::new();
    let mut fresh = 0usize;
    let mut gen_term = |ta: &Term, tb: &Term| -> Term {
        if ta == tb {
            return *ta;
        }
        *pairs.entry((*ta, *tb)).or_insert_with(|| {
            fresh += 1;
            Term::var(format!("g{fresh}"))
        })
    };

    let head = a
        .head
        .iter()
        .zip(&b.head)
        .map(|(x, y)| gen_term(x, y))
        .collect();
    let atoms = a
        .atoms
        .iter()
        .zip(&b.atoms)
        .map(|(x, y)| {
            Atom::new(
                x.relation,
                x.args
                    .iter()
                    .zip(&y.args)
                    .map(|(s, t)| gen_term(s, t))
                    .collect(),
            )
        })
        .collect();
    let comparisons = a
        .comparisons
        .iter()
        .zip(&b.comparisons)
        .map(|(x, y)| Comparison::new(gen_term(&x.lhs, &y.lhs), x.op, gen_term(&x.rhs, &y.rhs)))
        .collect();

    let mut out = Cq::new(head, atoms, comparisons);
    out.name = a.name;
    Some(out)
}

/// Anti-unifies a whole set of queries left to right.
pub fn anti_unify_all<'a>(queries: impl IntoIterator<Item = &'a Cq>) -> Option<Cq> {
    let mut it = queries.into_iter();
    let mut acc = it.next()?.clone();
    for q in it {
        acc = anti_unify(&acc, q)?;
    }
    Some(acc)
}

/// Replaces every occurrence of a constant with a named parameter.
///
/// Used to re-link session-derived constants (the current user's id) after
/// generalization: a trace issued for user 1 mentions `1` where the view
/// should say `?MyUId`.
pub fn const_to_param(cq: &Cq, value: &Value, param: &str) -> Cq {
    let cval = CVal::from_value(value);
    let map = |t: &Term| -> Term {
        match t {
            Term::Const(c) if *c == cval => Term::param(param),
            other => *other,
        }
    };
    let mut out = Cq::new(
        cq.head.iter().map(map).collect(),
        cq.atoms
            .iter()
            .map(|a| Atom::new(a.relation, a.args.iter().map(map).collect()))
            .collect(),
        cq.comparisons
            .iter()
            .map(|c| Comparison::new(map(&c.lhs), c.op, map(&c.rhs)))
            .collect(),
    );
    out.name = cq.name;
    out
}

/// Renames variables canonically (`v0`, `v1`, …) by first occurrence in the
/// atoms, then the head, then the comparisons.
///
/// Canonical names make structurally-aligned queries from different runs
/// share variable names, so anti-unification only introduces fresh
/// generalization variables where *rigid* terms differ — the signal the
/// mining pipeline cares about.
pub fn canonicalize_vars(cq: &Cq) -> Cq {
    let mut order: Vec<Sym> = Vec::new();
    let push = |t: &Term, order: &mut Vec<Sym>| {
        if let Term::Var(v) = t {
            if !order.contains(v) {
                order.push(*v);
            }
        }
    };
    for a in &cq.atoms {
        for t in &a.args {
            push(t, &mut order);
        }
    }
    for t in &cq.head {
        push(t, &mut order);
    }
    for c in &cq.comparisons {
        push(&c.lhs, &mut order);
        push(&c.rhs, &mut order);
    }
    let subst: crate::cq::Subst = order
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, Term::var(format!("v{i}"))))
        .collect();
    cq.substitute(&subst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_query(u: i64, e: i64) -> Cq {
        // ans(1) :- Attendance(u, e, n) for concrete u, e.
        Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(u), Term::int(e), Term::var("n")],
            )],
            vec![],
        )
    }

    #[test]
    fn generalizes_differing_constants() {
        let g = anti_unify(&trace_query(1, 2), &trace_query(5, 9)).unwrap();
        // Both constants became (distinct) variables.
        assert!(matches!(g.atoms[0].args[0], Term::Var(_)));
        assert!(matches!(g.atoms[0].args[1], Term::Var(_)));
        assert_ne!(g.atoms[0].args[0], g.atoms[0].args[1]);
        // The head constant was shared, so it stays.
        assert_eq!(g.head[0], Term::int(1));
    }

    #[test]
    fn preserves_shared_constants() {
        let g = anti_unify(&trace_query(1, 2), &trace_query(1, 9)).unwrap();
        assert_eq!(g.atoms[0].args[0], Term::int(1), "same user stays concrete");
        assert!(matches!(g.atoms[0].args[1], Term::Var(_)));
    }

    #[test]
    fn same_pair_gets_same_variable() {
        // ans(x) :- R(1, 1) vs ans(x) :- R(2, 2): both positions disagree
        // with the same (1,2) pair, so they share one variable — preserving
        // the join structure R(v, v).
        let a = Cq::new(
            vec![],
            vec![Atom::new("R", vec![Term::int(1), Term::int(1)])],
            vec![],
        );
        let b = Cq::new(
            vec![],
            vec![Atom::new("R", vec![Term::int(2), Term::int(2)])],
            vec![],
        );
        let g = anti_unify(&a, &b).unwrap();
        assert_eq!(g.atoms[0].args[0], g.atoms[0].args[1]);
    }

    #[test]
    fn shape_mismatch_fails() {
        let a = Cq::new(vec![], vec![Atom::new("R", vec![Term::int(1)])], vec![]);
        let b = Cq::new(vec![], vec![Atom::new("S", vec![Term::int(1)])], vec![]);
        assert!(anti_unify(&a, &b).is_none());
    }

    #[test]
    fn const_to_param_rewrites_all_occurrences() {
        let q = trace_query(1, 2);
        let p = const_to_param(&q, &Value::Int(1), "MyUId");
        assert_eq!(p.atoms[0].args[0], Term::param("MyUId"));
        // The head constant 1 also matches the value and is rewritten; the
        // caller chooses session values that don't collide with literals, or
        // accepts the over-approximation.
        assert_eq!(p.head[0], Term::param("MyUId"));
    }

    #[test]
    fn anti_unify_all_folds() {
        let g =
            anti_unify_all([&trace_query(1, 2), &trace_query(1, 3), &trace_query(1, 4)]).unwrap();
        assert_eq!(g.atoms[0].args[0], Term::int(1));
        assert!(matches!(g.atoms[0].args[1], Term::Var(_)));
    }
}
