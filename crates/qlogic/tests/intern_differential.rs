//! Differential tests for the interned logic core's string-API shim.
//!
//! The symbol-interning refactor kept the old string-based constructors as a
//! shim (`Atom::new("R", …)`, `Term::var("x")`) over the `Sym`-based core.
//! These tests build the *same* random queries through both front doors —
//! the legacy string constructors and explicit pre-interned `Sym`s — and
//! assert the results are indistinguishable everywhere it matters for
//! decision compatibility:
//!
//! * `Display` output (what traces and certificates serialize) is
//!   byte-identical;
//! * containment verdicts agree on every pair;
//! * minimization produces the same query;
//! * `variables()` reports the same symbols in the same order;
//! * `Cq::instantiate`, which matches a parameter by its spelling, equals
//!   the version that interned every binding's name and matched by id.

use proptest::prelude::*;
use qlogic::{contained, equivalent, intern, minimize, Atom, CmpOp, Comparison, Cq, Sym, Term};
use sqlir::Value;

/// A constructor-neutral spec for a term.
#[derive(Clone, Debug)]
enum SpecTerm {
    Var(&'static str),
    Int(i64),
    Param(&'static str),
}

/// A constructor-neutral spec for a query: `(head, atoms, comparisons)`
/// with relation names and args as plain data.
type SpecAtom = (&'static str, Vec<SpecTerm>);
type SpecCq = (
    Vec<SpecTerm>,
    Vec<SpecAtom>,
    Vec<(SpecTerm, CmpOp, SpecTerm)>,
);

/// Lowers a spec through the legacy string-based constructors.
fn build_str(spec: &SpecCq) -> Cq {
    let term = |t: &SpecTerm| match t {
        SpecTerm::Var(v) => Term::var(*v),
        SpecTerm::Int(i) => Term::int(*i),
        SpecTerm::Param(p) => Term::param(*p),
    };
    let (head, atoms, cmps) = spec;
    let mut q = Cq::new(
        head.iter().map(term).collect(),
        atoms
            .iter()
            .map(|(rel, args)| Atom::new(*rel, args.iter().map(term).collect()))
            .collect(),
        cmps.iter()
            .map(|(l, op, r)| Comparison::new(term(l), *op, term(r)))
            .collect(),
    );
    q.name = Some("q".into());
    q
}

/// Lowers a spec through explicit pre-interned symbols — no string shim on
/// any hot path.
fn build_sym(spec: &SpecCq) -> Cq {
    let term = |t: &SpecTerm| match t {
        SpecTerm::Var(v) => Term::Var(intern(v)),
        SpecTerm::Int(i) => Term::int(*i),
        SpecTerm::Param(p) => Term::Param(intern(p)),
    };
    let (head, atoms, cmps) = spec;
    let mut q = Cq::new(
        head.iter().map(term).collect(),
        atoms
            .iter()
            .map(|(rel, args)| {
                let rel: Sym = intern(rel);
                Atom::new(rel, args.iter().map(term).collect())
            })
            .collect(),
        cmps.iter()
            .map(|(l, op, r)| Comparison::new(term(l), *op, term(r)))
            .collect(),
    );
    q.name = Some(intern("q"));
    q
}

const VARS: &[&str] = &["x", "y", "z", "w"];

fn spec_term() -> impl Strategy<Value = SpecTerm> {
    prop_oneof![
        proptest::sample::select(VARS).prop_map(SpecTerm::Var),
        (0i64..3).prop_map(SpecTerm::Int),
        proptest::sample::select(&["UId", "Me"][..]).prop_map(SpecTerm::Param),
    ]
}

fn spec_atom() -> impl Strategy<Value = SpecAtom> {
    prop_oneof![
        (spec_term(), spec_term()).prop_map(|(a, b)| ("R", vec![a, b])),
        spec_term().prop_map(|a| ("S", vec![a])),
        (spec_term(), spec_term(), spec_term()).prop_map(|(a, b, c)| ("T", vec![a, b, c])),
    ]
}

fn spec_cq() -> impl Strategy<Value = SpecCq> {
    (
        proptest::collection::vec(spec_atom(), 1..5),
        proptest::sample::subsequence(VARS.to_vec(), 0..=2),
        proptest::collection::vec(
            (
                spec_term(),
                proptest::sample::select(&[CmpOp::Le, CmpOp::Ne][..]),
                spec_term(),
            ),
            0..2,
        ),
    )
        .prop_map(|(atoms, head_vars, cmps)| {
            // Keep the query safe: head and comparison vars must occur in
            // an atom, or containment would be trivially false everywhere.
            let atom_vars: Vec<Sym> = atoms
                .iter()
                .flat_map(|(_, args)| args.iter())
                .filter_map(|t| match t {
                    SpecTerm::Var(v) => Some(intern(v)),
                    _ => None,
                })
                .collect();
            let occurs = |t: &SpecTerm| match t {
                SpecTerm::Var(v) => atom_vars.iter().any(|av| av.as_str() == *v),
                _ => true,
            };
            let head: Vec<SpecTerm> = head_vars
                .into_iter()
                .map(SpecTerm::Var)
                .filter(occurs)
                .collect();
            let cmps = cmps
                .into_iter()
                .filter(|(l, _, r)| occurs(l) && occurs(r))
                .collect();
            (head, atoms, cmps)
        })
}

proptest! {
    /// Both construction paths yield structurally equal queries with
    /// byte-identical Display output.
    #[test]
    fn constructors_agree(spec in spec_cq()) {
        let a = build_str(&spec);
        let b = build_sym(&spec);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_string(), b.to_string());
        prop_assert_eq!(a.variables(), b.variables());
        prop_assert_eq!(a.params(), b.params());
    }

    /// Containment verdicts are independent of which constructor built the
    /// operands (all four cross-combinations agree).
    #[test]
    fn containment_agrees(s1 in spec_cq(), s2 in spec_cq()) {
        let a1 = build_str(&s1);
        let a2 = build_sym(&s1);
        let b1 = build_str(&s2);
        let b2 = build_sym(&s2);
        let verdict = contained(&a1, &b1);
        prop_assert_eq!(verdict, contained(&a2, &b2));
        prop_assert_eq!(verdict, contained(&a1, &b2));
        prop_assert_eq!(verdict, contained(&a2, &b1));
        prop_assert_eq!(equivalent(&a1, &b1), equivalent(&a2, &b2));
    }

    /// Instantiation by spelling equals instantiation through the interner,
    /// for bound, unbound and doubly bound parameters and string values.
    #[test]
    fn instantiate_agrees_with_the_interning_version(
        spec in spec_cq(),
        bindings in proptest::collection::vec(
            (
                proptest::sample::select(&["UId", "Me", "Other"][..]),
                prop_oneof![
                    (0i64..3).prop_map(Value::Int),
                    proptest::sample::select(&["a", "b"][..]).prop_map(Value::str),
                ],
            ),
            0..4,
        ),
    ) {
        let bindings: Vec<(String, Value)> =
            bindings.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
        let q = build_str(&spec);
        let got = q.instantiate(&bindings);
        prop_assert_eq!(&got, &instantiate_interning(&q, &bindings));
        prop_assert_eq!(got.to_string(), instantiate_interning(&q, &bindings).to_string());
    }

    /// Minimization commutes with the constructor choice: minimizing the
    /// string-built and sym-built queries gives the same (equivalent and
    /// identically printed) result.
    #[test]
    fn minimization_agrees(spec in spec_cq()) {
        let a = minimize(&build_str(&spec));
        let b = minimize(&build_sym(&spec));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_string(), b.to_string());
        prop_assert!(equivalent(&a, &b));
    }
}

/// `Cq::instantiate` as it was: every binding's name interned, parameters
/// matched by id, the first binding of a name winning.
fn instantiate_interning(q: &Cq, bindings: &[(String, Value)]) -> Cq {
    let interned: Vec<(Sym, Term)> = bindings
        .iter()
        .map(|(n, v)| (Sym::new(n), Term::constant(v)))
        .collect();
    let map_term = |t: &Term| -> Term {
        if let Term::Param(p) = t {
            if let Some((_, c)) = interned.iter().find(|(n, _)| n.id() == p.id()) {
                return *c;
            }
        }
        *t
    };
    let mut out = Cq::new(
        q.head.iter().map(map_term).collect(),
        q.atoms
            .iter()
            .map(|a| Atom::new(a.relation, a.args.iter().map(map_term).collect()))
            .collect(),
        q.comparisons
            .iter()
            .map(|c| Comparison::new(map_term(&c.lhs), c.op, map_term(&c.rhs)))
            .collect(),
    );
    out.name = q.name;
    out
}

/// Display of a query built from interned symbols resolves back through the
/// interner to the exact original spelling — including multi-byte names.
#[test]
fn display_resolves_unicode_names() {
    let rel = intern("Présences");
    let v = intern("événement");
    let q = Cq::new(
        vec![Term::Var(v)],
        vec![Atom::new(rel, vec![Term::Var(v), Term::int(1)])],
        vec![],
    );
    let printed = q.to_string();
    assert!(printed.contains("Présences"), "got: {printed}");
    assert!(printed.contains("événement"), "got: {printed}");
}

/// Re-interning the spelled-out form of every symbol in a query round-trips
/// to the same ids (the interner is canonical, so Display → intern is the
/// identity on symbols).
#[test]
fn display_intern_round_trip() {
    let q = build_str(&(
        vec![SpecTerm::Var("x")],
        vec![
            ("R", vec![SpecTerm::Var("x"), SpecTerm::Var("y")]),
            ("S", vec![SpecTerm::Param("UId")]),
        ],
        vec![(SpecTerm::Var("y"), CmpOp::Le, SpecTerm::Int(2))],
    ));
    for v in q.variables() {
        assert_eq!(intern(v.as_str()), v);
    }
    for a in &q.atoms {
        assert_eq!(intern(a.relation.as_str()), a.relation);
    }
}
