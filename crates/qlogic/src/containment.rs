//! Query containment and equivalence.
//!
//! The classical canonical-database test: `Q₁ ⊆ Q₂` iff there is a
//! homomorphism from `Q₂` into the frozen body of `Q₁` that preserves the
//! head. For pure conjunctive queries the test is sound and complete; with
//! comparison atoms it is sound (a `true` answer is always correct) but may
//! miss containments that require case analysis over the orderings of the
//! frozen variables — the standard trade-off practical systems make.
//!
//! All checks take an optional set of *known facts*: `contained_given(q1,
//! q2, facts)` decides `Q₁ ⊆ Q₂` over databases that contain the facts,
//! which is how trace-derived knowledge ("`Attendance(1, 2, ·)` exists")
//! enters the enforcement decision.

use crate::compare::CmpContext;
use crate::cq::{apply_comparison, apply_term, Atom, CmpOp, Comparison, Cq, Subst, Term, Ucq};
use crate::deps::{chase, ChaseOutcome, Dependencies};
use crate::homomorphism::{find_homomorphism, HomProblem};
use crate::sym::{Fresh, Sym, WordMap};

/// Decides `q1 ⊆ q2` (over all databases).
pub fn contained(q1: &Cq, q2: &Cq) -> bool {
    contained_given(q1, q2, &[])
}

/// Decides `q1 ⊆ q2` over all databases containing `facts`.
///
/// Fact atoms may contain variables, which act as labeled nulls (unknown
/// witness values).
pub fn contained_given(q1: &Cq, q2: &Cq, facts: &[Atom]) -> bool {
    contained_given_deps(q1, q2, facts, &Dependencies::none())
}

/// Decides `q1 ⊆ q2` over all databases that contain `facts` *and satisfy
/// the key dependencies*.
///
/// The canonical database (frozen `q1` plus facts) is saturated with the
/// FD chase before the homomorphism test, so equalities the keys force
/// (e.g. two `Posts` atoms sharing a primary key are the same row) are
/// visible to the containment argument.
///
/// The chase runs only when it could matter: the head-preserving
/// homomorphism is first sought in the *unchased* canonical database, and
/// if one exists the answer is `true` without chasing. No answer changes.
/// The chase only adds atoms and applies a substitution `σ` to the ones it
/// has, so a homomorphism `h` into the unchased instance gives `σ ∘ h`
/// into the chased one, with the head (itself rewritten by `σ`) preserved
/// and every comparison still entailed (`σ` only strengthens what the
/// target's comparisons say); an inconsistent chase answers `true` anyway.
pub fn contained_given_deps(q1: &Cq, q2: &Cq, facts: &[Atom], deps: &Dependencies) -> bool {
    crate::probe::bump_containment_check();
    if q1.head.len() != q2.head.len() {
        return false;
    }
    let mut canonical = Canonical::freeze(q1, facts);
    let unchased = canonical.maps_from(q2);
    if unchased || deps.is_empty() {
        return unchased;
    }
    match chase(canonical.atoms, deps, &mut canonical.apart.fresh) {
        ChaseOutcome::Consistent { atoms, subst } => {
            canonical.atoms = atoms;
            // The chase's unifications apply to q1's head/comparisons.
            for t in &mut canonical.head {
                *t = apply_term(t, &subst);
            }
            for c in &mut canonical.comparisons {
                *c = apply_comparison(c, &subst);
            }
            canonical.maps_from(q2)
        }
        // No database satisfies q1 together with the facts and keys;
        // containment holds vacuously.
        ChaseOutcome::Inconsistent => true,
    }
}

/// The canonical database of a containment test: `q1` frozen, plus the
/// known facts, renamed apart.
struct Canonical {
    apart: Apart,
    head: Vec<Term>,
    comparisons: Vec<Comparison>,
    atoms: Vec<Atom>,
}

impl Canonical {
    /// Renames `q1` and the facts apart — from `q2` and from each other —
    /// so variable names cannot clash: every variable becomes a scratch
    /// symbol, and a fact's `x` is not `q1`'s `x`.
    fn freeze(q1: &Cq, facts: &[Atom]) -> Canonical {
        let mut apart = Apart::default();
        // About a variable per fact: sized once, the map never rehashes.
        apart.names.reserve(16 + facts.len());
        let head = q1.head.iter().map(|t| apart.term(t)).collect();
        let comparisons = q1
            .comparisons
            .iter()
            .map(|c| Comparison::new(apart.term(&c.lhs), c.op, apart.term(&c.rhs)))
            .collect();
        let mut atoms = Vec::with_capacity(q1.atoms.len() + facts.len());
        for (n, atom) in q1.atoms.iter().chain(facts).enumerate() {
            if n == q1.atoms.len() {
                apart.names.clear(); // a fact's `x` is not q1's `x`
            }
            atoms.push(Atom {
                relation: atom.relation,
                args: atom.args.iter().map(|t| apart.term(t)).collect(),
            });
        }
        Canonical {
            apart,
            head,
            comparisons,
            atoms,
        }
    }

    /// Whether a head-preserving homomorphism maps `q2` into this instance
    /// (or `q1`'s comparisons are unsatisfiable, so `q1` is empty).
    fn maps_from(&self, q2: &Cq) -> bool {
        let ctx = CmpContext::new(&self.comparisons);
        if ctx.is_unsat() {
            // q1 is unsatisfiable; the empty query is contained in anything.
            return true;
        }
        // Head preservation: q2.head[i] must map to q1.head[i].
        let mut initial = Subst::new();
        for (h2, h1) in q2.head.iter().zip(&self.head) {
            match h2 {
                Term::Var(v) => match initial.get(v) {
                    Some(bound) if bound != h1 => return false,
                    Some(_) => {}
                    None => {
                        initial.insert(*v, *h1);
                    }
                },
                rigid => {
                    let eq = Comparison::new(*rigid, CmpOp::Eq, *h1);
                    if rigid != h1 && !ctx.entails(&eq) {
                        return false;
                    }
                }
            }
        }
        find_homomorphism(&HomProblem {
            source_atoms: &q2.atoms,
            source_comparisons: &q2.comparisons,
            target_atoms: &self.atoms,
            target_ctx: &ctx,
            initial,
        })
        .is_some()
    }
}

/// Renames variables to scratch symbols, one each, in order of appearance.
#[derive(Default)]
struct Apart {
    fresh: Fresh,
    names: WordMap<Sym, Sym>,
}

impl Apart {
    fn term(&mut self, t: &Term) -> Term {
        match t {
            Term::Var(v) => {
                let fresh = &mut self.fresh;
                Term::Var(*self.names.entry(*v).or_insert_with(|| fresh.next_sym()))
            }
            rigid => *rigid,
        }
    }
}

/// Decides `q1 ≡ q2` (mutual containment).
pub fn equivalent(q1: &Cq, q2: &Cq) -> bool {
    contained(q1, q2) && contained(q2, q1)
}

/// Decides `q1 ≡ q2` over databases containing `facts`.
pub fn equivalent_given(q1: &Cq, q2: &Cq, facts: &[Atom]) -> bool {
    contained_given(q1, q2, facts) && contained_given(q2, q1, facts)
}

/// Decides `q ⊆ u` for a CQ against a union (Sagiv–Yannakakis: for pure CQs
/// this per-disjunct test is complete).
pub fn contained_in_union(q: &Cq, u: &Ucq) -> bool {
    u.disjuncts.iter().any(|d| contained(q, d))
}

/// Decides `u1 ⊆ u2` disjunct-wise.
pub fn union_contained(u1: &Ucq, u2: &Ucq) -> bool {
    u1.disjuncts.iter().all(|d| contained_in_union(d, u2))
}

/// Decides `u1 ≡ u2` via mutual union containment.
pub fn union_equivalent(u1: &Ucq, u2: &Ucq) -> bool {
    union_contained(u1, u2) && union_contained(u2, u1)
}

/// `true` if the query can return at least one tuple on some database
/// (its comparisons are not definitely contradictory).
pub fn satisfiable(q: &Cq) -> bool {
    !CmpContext::new(&q.comparisons).is_unsat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CmpOp, Comparison};

    fn atom(rel: &str, args: Vec<Term>) -> Atom {
        Atom::new(rel, args)
    }

    #[test]
    fn classic_containment() {
        // q1: ans(x) :- R(x, y), R(y, x)   (paths of length 2 back to x)
        // q2: ans(x) :- R(x, y)            (any out-edge)
        let q1 = Cq::new(
            vec![Term::var("x")],
            vec![
                atom("R", vec![Term::var("x"), Term::var("y")]),
                atom("R", vec![Term::var("y"), Term::var("x")]),
            ],
            vec![],
        );
        let q2 = Cq::new(
            vec![Term::var("x")],
            vec![atom("R", vec![Term::var("x"), Term::var("y")])],
            vec![],
        );
        assert!(contained(&q1, &q2));
        assert!(!contained(&q2, &q1));
        assert!(!equivalent(&q1, &q2));
    }

    #[test]
    fn self_join_collapse_equivalence() {
        // ans() :- R(x, y), R(x, z)  ≡  ans() :- R(x, y)
        let q1 = Cq::new(
            vec![],
            vec![
                atom("R", vec![Term::var("x"), Term::var("y")]),
                atom("R", vec![Term::var("x"), Term::var("z")]),
            ],
            vec![],
        );
        let q2 = Cq::new(
            vec![],
            vec![atom("R", vec![Term::var("x"), Term::var("y")])],
            vec![],
        );
        assert!(equivalent(&q1, &q2));
    }

    #[test]
    fn constants_restrict() {
        let q1 = Cq::new(vec![], vec![atom("R", vec![Term::int(1)])], vec![]);
        let q2 = Cq::new(vec![], vec![atom("R", vec![Term::var("x")])], vec![]);
        assert!(contained(&q1, &q2));
        assert!(!contained(&q2, &q1));
    }

    #[test]
    fn example_4_2_comparisons() {
        // Q1: ans(n) :- Employees(n, a), a >= 60
        // Q2: ans(n) :- Employees(n, a), a >= 18
        // Q1 ⊆ Q2 because 60 >= 18.
        let q1 = Cq::new(
            vec![Term::var("n")],
            vec![atom("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(60))],
        );
        let q2 = Cq::new(
            vec![Term::var("n")],
            vec![atom("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(18))],
        );
        assert!(contained(&q1, &q2));
        assert!(!contained(&q2, &q1));
    }

    #[test]
    fn containment_given_facts_example_2_1() {
        // Q2: ans(t, k) :- Events(2, t, k)
        // E : ans(t, k) :- Events(e, t, k), Attendance(1, e, n), e = 2
        //     (normalized: Events(2, t, k), Attendance(1, 2, n))
        // Without facts, Q2 ⊄ E; with the trace fact Attendance(1, 2, w),
        // Q2 ⊆_F E.
        let q2 = Cq::new(
            vec![Term::var("t"), Term::var("k")],
            vec![atom(
                "Events",
                vec![Term::int(2), Term::var("t"), Term::var("k")],
            )],
            vec![],
        );
        let e = Cq::new(
            vec![Term::var("t"), Term::var("k")],
            vec![
                atom("Events", vec![Term::int(2), Term::var("t"), Term::var("k")]),
                atom(
                    "Attendance",
                    vec![Term::int(1), Term::int(2), Term::var("n")],
                ),
            ],
            vec![],
        );
        assert!(contained(&e, &q2));
        assert!(!contained(&q2, &e));
        let fact = atom(
            "Attendance",
            vec![Term::int(1), Term::int(2), Term::var("w")],
        );
        assert!(contained_given(&q2, &e, std::slice::from_ref(&fact)));
        assert!(equivalent_given(&q2, &e, std::slice::from_ref(&fact)));
    }

    #[test]
    fn head_constant_handling() {
        // ans(1) :- R(x)  vs  ans(y) :- R(y): the constant head is contained
        // only if the head positions align.
        let q1 = Cq::new(
            vec![Term::int(1)],
            vec![atom("R", vec![Term::var("x")])],
            vec![],
        );
        let q2 = Cq::new(
            vec![Term::var("y")],
            vec![atom("R", vec![Term::var("y")])],
            vec![],
        );
        // q1 ⊆ q2 would need y ↦ 1 while R(y) maps into frozen R(x): y must
        // be both 1 (head) and x (atom) — fails.
        assert!(!contained(&q1, &q2));
        // But ans(1) :- R(1) is contained in ans(y) :- R(y).
        let q3 = Cq::new(
            vec![Term::int(1)],
            vec![atom("R", vec![Term::int(1)])],
            vec![],
        );
        assert!(contained(&q3, &q2));
    }

    #[test]
    fn unsatisfiable_query_contained_in_all() {
        let bot = Cq::new(
            vec![],
            vec![atom("R", vec![Term::var("x")])],
            vec![Comparison::new(Term::var("x"), CmpOp::Lt, Term::var("x"))],
        );
        let any = Cq::new(vec![], vec![atom("S", vec![Term::var("z")])], vec![]);
        assert!(contained(&bot, &any));
        assert!(!satisfiable(&bot));
    }

    #[test]
    fn union_containment() {
        // ans(x) :- R(x), x = 1  and  ans(x) :- R(x), x = 2  are each
        // contained in ans(x) :- R(x).
        let d1 = Cq::new(
            vec![Term::int(1)],
            vec![atom("R", vec![Term::int(1)])],
            vec![],
        );
        let d2 = Cq::new(
            vec![Term::int(2)],
            vec![atom("R", vec![Term::int(2)])],
            vec![],
        );
        let top = Cq::new(
            vec![Term::var("x")],
            vec![atom("R", vec![Term::var("x")])],
            vec![],
        );
        let u = Ucq {
            disjuncts: vec![d1, d2],
        };
        assert!(union_contained(&u, &Ucq::single(top.clone())));
        assert!(!union_contained(&Ucq::single(top), &u));
    }

    #[test]
    fn params_block_containment_without_binding() {
        // ans() :- R(?A)  vs ans() :- R(?B): parameters are distinguished
        // constants, so neither contains the other.
        let qa = Cq::new(vec![], vec![atom("R", vec![Term::param("A")])], vec![]);
        let qb = Cq::new(vec![], vec![atom("R", vec![Term::param("B")])], vec![]);
        assert!(!contained(&qa, &qb));
        assert!(contained(&qa, &qa));
    }
}
