//! The indexed chase against the routine it replaced.
//!
//! `qlogic::chase` meets pairs of atoms through a key index and rewrites
//! only what a binding touches; the routine it replaced — kept here,
//! verbatim, as [`reference::chase_full`] — rescans all pairs after every
//! unification. They must agree on everything but the *names* of the nulls
//! the inclusion chase invents: the same `Consistent`/`Inconsistent`, the
//! same number of atoms, and — with the input's own variables frozen, so
//! that only nulls may be renamed — atom sets that map into each other, the
//! returned substitution's image of every input variable included. That
//! covers the cases where the order of unification shows (a parameter in a
//! dependent position: a variable becomes whichever term it meets first),
//! because the indexed chase promises the reference's order, not merely a
//! sound one.
//!
//! The second property holds `contained_given_deps` — scratch-symbol
//! renaming, indexed chase — to the same function over the `l·`/`f·`
//! renaming and the reference chase. It also holds the homomorphism-first
//! step to the reference: `contained_given_deps` first looks for the
//! homomorphism in the *unchased* canonical database — exactly what
//! `contained_given` (no dependencies) decides — and answers `true` from
//! there without chasing. That is sound only if every such `true` is the
//! reference's `true` too, and the tallies show both the shortcut and the
//! chase behind it ran.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use qlogic::cq::{apply_atom, apply_term};
use qlogic::{
    chase, contained_given, contained_given_deps, find_homomorphism, Atom, ChaseOutcome,
    CmpContext, CmpOp, Comparison, Cq, Dependencies, Fd, Fresh, HomProblem, Ind, Subst, Sym, Term,
};

/// The chase as it stood before the index, and the containment test over
/// it: the executable specification. Only the imports differ from the
/// deleted code.
mod reference {
    use super::*;

    pub fn chase_fds(atoms: &[Atom], deps: &Dependencies) -> ChaseOutcome {
        let mut atoms: Vec<Atom> = atoms.to_vec();
        let mut subst = Subst::new();
        if deps.is_empty() {
            return ChaseOutcome::Consistent { atoms, subst };
        }
        loop {
            // Find one forced unification, then apply it and restart: the
            // substitution can invalidate earlier scan state.
            let mut pending: Option<(Sym, Term)> = None;
            'scan: for i in 0..atoms.len() {
                for j in (i + 1)..atoms.len() {
                    let (a, b) = (&atoms[i], &atoms[j]);
                    if a.relation != b.relation || a.args.len() != b.args.len() {
                        continue;
                    }
                    for fd in &deps.fds {
                        if fd.relation != a.relation || fd.key.iter().any(|&k| k >= a.args.len()) {
                            continue;
                        }
                        if !fd.key.iter().all(|&k| a.args[k] == b.args[k]) {
                            continue;
                        }
                        // The rows must be equal: unify dependent positions.
                        for p in 0..a.args.len() {
                            let (x, y) = (&a.args[p], &b.args[p]);
                            if x == y {
                                continue;
                            }
                            match (x, y) {
                                (Term::Var(v), other) | (other, Term::Var(v)) => {
                                    pending = Some((*v, *other));
                                    break 'scan;
                                }
                                (Term::Const(_), Term::Const(_)) => {
                                    return ChaseOutcome::Inconsistent;
                                }
                                // Parameter vs rigid: possibly equal at
                                // runtime; skipping is the sound choice.
                                _ => {}
                            }
                        }
                    }
                }
            }
            match pending {
                Some((var, to)) => bind(&mut atoms, &mut subst, var, to),
                None => break,
            }
        }
        let mut deduped: Vec<Atom> = Vec::new();
        for a in atoms {
            if !deduped.contains(&a) {
                deduped.push(a);
            }
        }
        ChaseOutcome::Consistent {
            atoms: deduped,
            subst,
        }
    }

    pub fn chase_full(atoms: &[Atom], deps: &Dependencies) -> ChaseOutcome {
        let mut atoms = atoms.to_vec();
        let mut subst = Subst::new();
        let mut fresh = 0usize;
        for _round in 0..4 {
            // FD phase.
            match chase_fds(&atoms, deps) {
                ChaseOutcome::Consistent { atoms: a, subst: s } => {
                    atoms = a;
                    for (_, t) in subst.iter_mut() {
                        *t = apply_term(t, &s);
                    }
                    for (k, v) in s {
                        if !subst.contains_key(&k) {
                            subst.insert(k, v);
                        }
                    }
                }
                ChaseOutcome::Inconsistent => return ChaseOutcome::Inconsistent,
            }
            // IND phase: add missing parents.
            let mut added = Vec::new();
            for ind in &deps.inds {
                if ind.child_cols.len() != ind.parent_cols.len() {
                    continue; // malformed
                }
                for child in &atoms {
                    if child.relation != ind.child
                        || ind.child_cols.iter().any(|&c| c >= child.args.len())
                    {
                        continue;
                    }
                    let key: Vec<&Term> = ind.child_cols.iter().map(|&c| &child.args[c]).collect();
                    let has_parent = atoms.iter().chain(added.iter()).any(|p| {
                        p.relation == ind.parent
                            && ind
                                .parent_cols
                                .iter()
                                .zip(&key)
                                .all(|(&pc, k)| pc < p.args.len() && &&p.args[pc] == k)
                    });
                    if has_parent {
                        continue;
                    }
                    let mut args = Vec::with_capacity(ind.parent_arity);
                    for i in 0..ind.parent_arity {
                        match ind.parent_cols.iter().position(|&pc| pc == i) {
                            Some(j) => args.push(*key[j]),
                            None => {
                                fresh += 1;
                                args.push(Term::var(format!("ind·{fresh}")));
                            }
                        }
                    }
                    let parent = Atom::new(ind.parent, args);
                    if !added.contains(&parent) {
                        added.push(parent);
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            atoms.extend(added);
        }
        ChaseOutcome::Consistent { atoms, subst }
    }

    fn bind(atoms: &mut [Atom], subst: &mut Subst, var: Sym, to: Term) {
        let mut one = Subst::new();
        one.insert(var, to);
        for a in atoms.iter_mut() {
            *a = apply_atom(a, &one);
        }
        for (_, t) in subst.iter_mut() {
            *t = apply_term(t, &one);
        }
        subst.insert(var, to);
    }

    pub fn contained_given_deps(q1: &Cq, q2: &Cq, facts: &[Atom], deps: &Dependencies) -> bool {
        if q1.head.len() != q2.head.len() {
            return false;
        }
        let mut q1r = q1.rename_vars("l·");
        let facts_r: Vec<Atom> = facts
            .iter()
            .map(|a| {
                let mut renamed = a.clone();
                for t in &mut renamed.args {
                    if let Term::Var(v) = t {
                        *t = Term::var(format!("f·{v}"));
                    }
                }
                renamed
            })
            .collect();
        let mut target_atoms = q1r.atoms.clone();
        target_atoms.extend(facts_r);
        if !deps.is_empty() {
            match chase_full(&target_atoms, deps) {
                ChaseOutcome::Consistent { atoms, subst } => {
                    target_atoms = atoms;
                    q1r = q1r.substitute(&subst);
                }
                ChaseOutcome::Inconsistent => return true,
            }
        }
        let ctx = CmpContext::new(&q1r.comparisons);
        if ctx.is_unsat() {
            return true;
        }
        let mut initial = Subst::new();
        for (h2, h1) in q2.head.iter().zip(&q1r.head) {
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
            target_atoms: &target_atoms,
            target_ctx: &ctx,
            initial,
        })
        .is_some()
    }
}

// ------------------------------------------------------------- generators

/// `R(a, b, c)`, `S(a, b, c)`, `T(a, b)`, `U(a, b)`.
const RELATIONS: [(&str, usize); 4] = [("R", 3), ("S", 3), ("T", 2), ("U", 2)];

/// Keys to draw from: single-column, composite, a second key on `R` (two
/// indexes over one relation), and one on `U`, the only relation without a
/// key whose columns an inclusion below references.
fn key_pool() -> Vec<Fd> {
    let fd = |relation: &str, key: &[usize]| Fd {
        relation: relation.into(),
        key: key.to_vec(),
    };
    vec![
        fd("R", &[0]),
        fd("S", &[0, 1]),
        fd("T", &[0]),
        fd("R", &[2]),
        fd("U", &[1]),
    ]
}

/// Foreign keys to draw from: the chain `R.b → T.a`, `T.b → U.a` closes into
/// a cycle with `U.b → R.a` (every round spawns the next parent, so the
/// round cap is what stops it); `U.(a, b) → S.(a, b)` is composite and
/// lands on `S`'s key; `T.b → U.a` references columns no key spells.
fn inclusion_pool() -> Vec<Ind> {
    let ind = |child: &str, child_cols: &[usize], parent: &str, parent_cols: &[usize]| Ind {
        child: child.into(),
        child_cols: child_cols.to_vec(),
        parent: parent.into(),
        parent_cols: parent_cols.to_vec(),
        parent_arity: RELATIONS.iter().find(|r| r.0 == parent).unwrap().1,
    };
    vec![
        ind("R", &[1], "T", &[0]),
        ind("T", &[1], "U", &[0]),
        ind("U", &[1], "R", &[0]),
        ind("U", &[0, 1], "S", &[0, 1]),
    ]
}

fn dependencies() -> impl Strategy<Value = Dependencies> {
    (
        proptest::sample::subsequence(key_pool(), 0..=5),
        proptest::sample::subsequence(inclusion_pool(), 0..=4),
    )
        .prop_map(|(fds, inds)| Dependencies { fds, inds })
}

/// Constants in `0..2`, five variables, two parameters: few enough values
/// that atoms keep agreeing on keys, and parameters face constants (and each
/// other) in dependent positions.
fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..2).prop_map(Term::int),
        proptest::sample::select(vec!["x", "y", "z", "w", "v"]).prop_map(Term::var),
        proptest::sample::select(vec!["x", "y", "z", "w", "v"]).prop_map(Term::var),
        proptest::sample::select(vec!["P", "Q"]).prop_map(Term::param),
    ]
}

/// The first column — in most of the keys below — draws from fewer values
/// still, so that most cases have rows to merge.
fn atom() -> impl Strategy<Value = Atom> {
    let first = prop_oneof![
        (0i64..2).prop_map(Term::int),
        (0i64..2).prop_map(Term::int),
        proptest::sample::select(vec!["x", "y"]).prop_map(Term::var),
    ];
    (0usize..4, first, proptest::collection::vec(term(), 2)).prop_map(|(r, first, rest)| {
        let (name, arity) = RELATIONS[r];
        let mut args = vec![first];
        args.extend(rest);
        args.truncate(arity);
        Atom::new(name, args)
    })
}

/// One to nine atoms, then up to two of them again (exact duplicates, at
/// the end, so a copy sits far from its original).
fn atoms() -> impl Strategy<Value = Vec<Atom>> {
    (
        proptest::collection::vec(atom(), 1..10),
        proptest::collection::vec(0usize..8, 0..3),
    )
        .prop_map(|(mut atoms, copies)| {
            for k in copies {
                atoms.push(atoms[k % atoms.len()].clone());
            }
            atoms
        })
}

// ---------------------------------------------------------------- compare

/// Whether `source` maps into `target` with every variable free.
fn maps_into(source: &[Atom], target: &[Atom]) -> bool {
    find_homomorphism(&HomProblem {
        source_atoms: source,
        source_comparisons: &[],
        target_atoms: target,
        target_ctx: &CmpContext::new(&[]),
        initial: Subst::new(),
    })
    .is_some()
}

/// The variables of `atoms`, in order of first appearance.
fn variables(atoms: &[Atom]) -> Vec<Sym> {
    Cq::new(vec![], atoms.to_vec(), vec![]).variables()
}

/// A consistent outcome as one atom set in which only invented nulls are
/// still variables: the input's own variables become constants, and one
/// extra atom carries the substitution's image of each of them.
fn frozen(input_vars: &[Sym], atoms: &[Atom], subst: &Subst) -> Vec<Atom> {
    let freeze: Subst = input_vars
        .iter()
        .map(|v| (*v, Term::str(format!("‹{v}›"))))
        .collect();
    let image = input_vars
        .iter()
        .map(|v| apply_term(&apply_term(&Term::Var(*v), subst), &freeze))
        .collect();
    let mut out: Vec<Atom> = atoms.iter().map(|a| apply_atom(a, &freeze)).collect();
    out.push(Atom::new("σ", image));
    out
}

/// Panics unless the two outcomes are the same up to the names of nulls.
fn assert_same_outcome(
    input: &[Atom],
    old: &ChaseOutcome,
    new: &ChaseOutcome,
    deps: &Dependencies,
) {
    let context = || format!("chasing {input:?}\nunder {deps:?}\nold {old:?}\nnew {new:?}");
    match (old, new) {
        (ChaseOutcome::Inconsistent, ChaseOutcome::Inconsistent) => {}
        (
            ChaseOutcome::Consistent { atoms: a, subst: s },
            ChaseOutcome::Consistent { atoms: b, subst: t },
        ) => {
            assert_eq!(a.len(), b.len(), "atom counts differ\n{}", context());
            let vars = variables(input);
            let (a, b) = (frozen(&vars, a, s), frozen(&vars, b, t));
            assert!(
                maps_into(&a, &b),
                "old does not map into new\n{}",
                context()
            );
            assert!(
                maps_into(&b, &a),
                "new does not map into old\n{}",
                context()
            );
        }
        _ => panic!("consistency differs\n{}", context()),
    }
}

fn both(input: &[Atom], deps: &Dependencies) -> (ChaseOutcome, ChaseOutcome) {
    let old = reference::chase_full(input, deps);
    let new = chase(input.to_vec(), deps, &mut Fresh::default());
    assert_same_outcome(input, &old, &new, deps);
    (old, new)
}

// ------------------------------------------------------------- properties

/// Release-sized (CI runs `cargo test --release -p qlogic`); a debug build
/// runs a tenth.
const CASES: u32 = if cfg!(debug_assertions) { 400 } else { 4000 };

/// What the generated cases exercised (non-vacuity).
static INCONSISTENT: AtomicUsize = AtomicUsize::new(0);
static UNIFIED: AtomicUsize = AtomicUsize::new(0);
static SPAWNED: AtomicUsize = AtomicUsize::new(0);
static CONTAINED: AtomicUsize = AtomicUsize::new(0);
static VACUOUS: AtomicUsize = AtomicUsize::new(0);
/// Pairs under some dependency that the unchased homomorphism decided, that
/// fell through to the chase, and that only the chase proved.
static UNCHASED: AtomicUsize = AtomicUsize::new(0);
static CHASED: AtomicUsize = AtomicUsize::new(0);
static CHASE_PROVED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    // Not `#[test]`s themselves: the tests below run them, then check the
    // tallies.
    fn chase_agrees_on_generated_cases(input in atoms(), deps in dependencies()) {
        match both(&input, &deps).1 {
            ChaseOutcome::Inconsistent => {
                INCONSISTENT.fetch_add(1, Ordering::Relaxed);
            }
            ChaseOutcome::Consistent { atoms, subst } => {
                UNIFIED.fetch_add(usize::from(!subst.is_empty()), Ordering::Relaxed);
                let nulls = variables(&atoms).iter().any(|v| v.as_str().starts_with('·'));
                SPAWNED.fetch_add(usize::from(nulls), Ordering::Relaxed);
            }
        }
    }

    fn containment_agrees_on_generated_triples(
        bodies in (proptest::collection::vec(atom(), 1..4), proptest::collection::vec(atom(), 1..4)),
        heads in proptest::collection::vec((0usize..9, 0usize..9), 0..3),
        bounds in proptest::collection::vec((0usize..9, 0i64..3), 0..2),
        facts in proptest::collection::vec(atom(), 0..6),
        deps in dependencies(),
    ) {
        // Heads of one arity drawn from each body's own terms; a comparison
        // or two on q1 (the side whose comparisons the chase's substitution
        // must reach).
        let pick = |atoms: &[Atom], k: usize| {
            let terms: Vec<Term> = atoms.iter().flat_map(|a| a.args.clone()).collect();
            terms[k % terms.len()]
        };
        let (b1, b2) = bodies;
        let q1 = Cq::new(
            heads.iter().map(|h| pick(&b1, h.0)).collect(),
            b1.clone(),
            bounds
                .iter()
                .map(|&(k, n)| Comparison::new(pick(&b1, k), CmpOp::Lt, Term::int(n)))
                .collect(),
        );
        let q2 = Cq::new(heads.iter().map(|h| pick(&b2, h.1)).collect(), b2, vec![]);
        // Contains only a query no database (with the facts, under the
        // keys) can satisfy.
        let never = Cq::new(
            vec![Term::int(-1); heads.len()],
            vec![Atom::new("Never", vec![])],
            vec![],
        );
        for (a, b) in [(&q1, &q2), (&q2, &q1)] {
            let old = reference::contained_given_deps(a, b, &facts, &deps);
            let new = contained_given_deps(a, b, &facts, &deps);
            prop_assert_eq!(old, new, "{} ⊆ {} given {:?} under {:?}", a, b, facts, deps);
            CONTAINED.fetch_add(usize::from(new), Ordering::Relaxed);
            let unchased = contained_given(a, b, &facts);
            prop_assert!(
                old || !unchased,
                "the unchased homomorphism proves what the reference refutes: {} ⊆ {} given {:?} under {:?}",
                a, b, facts, deps
            );
            if !deps.is_empty() {
                let tally = if unchased { &UNCHASED } else { &CHASED };
                tally.fetch_add(1, Ordering::Relaxed);
                CHASE_PROVED.fetch_add(usize::from(!unchased && new), Ordering::Relaxed);
            }
            let vacuous = contained_given_deps(a, &never, &facts, &deps);
            prop_assert_eq!(vacuous, reference::contained_given_deps(a, &never, &facts, &deps));
            VACUOUS.fetch_add(usize::from(new && vacuous), Ordering::Relaxed);
        }
    }
}

#[test]
fn indexed_chase_matches_the_reference() {
    chase_agrees_on_generated_cases();
    let cases = CASES as usize;
    let tally = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
    let (inconsistent, unified, spawned) = (tally(&INCONSISTENT), tally(&UNIFIED), tally(&SPAWNED));
    assert!(inconsistent > cases / 50, "{inconsistent} inconsistent");
    assert!(unified > cases / 10, "{unified} with a unification");
    assert!(spawned > cases / 10, "{spawned} with a surviving null");
}

#[test]
fn containment_matches_the_reference() {
    containment_agrees_on_generated_triples();
    let (contained, vacuous) = (
        CONTAINED.load(Ordering::Relaxed),
        VACUOUS.load(Ordering::Relaxed),
    );
    let pairs = 2 * CASES as usize;
    assert!(contained > pairs / 50, "{contained} containments hold");
    assert!(contained - vacuous > pairs / 100, "only vacuous ones hold");
    let tally = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
    let (unchased, chased, chase_proved) = (tally(&UNCHASED), tally(&CHASED), tally(&CHASE_PROVED));
    assert!(unchased > 0, "the homomorphism never answered first");
    assert!(chased > 0, "no pair fell through to the chase");
    assert!(
        chase_proved > 0,
        "the chase behind the shortcut proved nothing"
    );
}

// ------------------------------------------------------------ named cases

fn t(rel: &str, args: Vec<Term>) -> Atom {
    Atom::new(rel, args)
}

fn consistent(outcome: ChaseOutcome) -> (Vec<Atom>, Subst) {
    match outcome {
        ChaseOutcome::Consistent { atoms, subst } => (atoms, subst),
        ChaseOutcome::Inconsistent => panic!("consistent case"),
    }
}

#[test]
fn composite_keys_need_every_column() {
    let deps = Dependencies::none().with_key("S", vec![0, 1]);
    let input = [
        t("S", vec![Term::int(1), Term::int(2), Term::var("x")]),
        t("S", vec![Term::int(1), Term::int(2), Term::int(7)]),
        // Agrees on the first key column only: another row.
        t("S", vec![Term::int(1), Term::int(3), Term::var("y")]),
    ];
    let (atoms, subst) = consistent(both(&input, &deps).1);
    assert_eq!(atoms.len(), 2);
    assert_eq!(subst.get("x"), Some(&Term::int(7)));
    assert_eq!(subst.get("y"), None);
}

#[test]
fn a_parameter_and_a_constant_stay_apart() {
    let deps = Dependencies::none().with_key("T", vec![0]);
    // `x` meets the parameter first (the lower pair), and then `?P` faces 5
    // under one key: possibly equal at runtime, so neither unified nor a
    // clash. In the other order `x` would have become 5.
    let input = [
        t("T", vec![Term::int(1), Term::var("x")]),
        t("T", vec![Term::int(1), Term::param("P")]),
        t("T", vec![Term::int(1), Term::int(5)]),
    ];
    let (atoms, subst) = consistent(both(&input, &deps).1);
    assert_eq!(subst.get("x"), Some(&Term::param("P")));
    assert_eq!(atoms, input[1..].to_vec());
    // Two constants under one key are a clash wherever the pair sits.
    let mut clashing = input.to_vec();
    clashing.push(t("T", vec![Term::int(1), Term::int(6)]));
    assert!(matches!(
        both(&clashing, &deps).1,
        ChaseOutcome::Inconsistent
    ));
}

#[test]
fn the_order_of_unification_is_the_reference_order() {
    // `x` is forced to `?P` by the pair (0, 1) and to 5 by the pair (0, 2);
    // whichever comes first decides whether the `S` atoms — keyed on `x` —
    // end up one row (a clash: 1 against 2) or two.
    let deps = Dependencies::none()
        .with_key("T", vec![0])
        .with_key("S", vec![0, 1]);
    let s = |a: Term, c: i64| t("S", vec![a, Term::int(0), Term::int(c)]);
    let row = |b: Term| t("T", vec![Term::int(1), b]);
    let param_first = [
        row(Term::var("x")),
        row(Term::param("P")),
        row(Term::int(5)),
        s(Term::var("x"), 1),
        s(Term::int(5), 2),
    ];
    let (_, subst) = consistent(both(&param_first, &deps).1);
    assert_eq!(subst.get("x"), Some(&Term::param("P")));
    let mut constant_first = param_first.to_vec();
    constant_first.swap(1, 2);
    assert!(matches!(
        both(&constant_first, &deps).1,
        ChaseOutcome::Inconsistent
    ));
}

#[test]
fn a_chain_of_foreign_keys_is_followed_and_merged_with_what_is_there() {
    let pool = inclusion_pool();
    let deps = Dependencies {
        fds: vec![key_pool()[2].clone()], // T.a
        inds: pool[..2].to_vec(),         // R.b → T.a → U.a
    };
    // The `T` row `R` references is already known; the `U` row it
    // references is not.
    let input = [
        t("R", vec![Term::int(1), Term::var("b"), Term::int(0)]),
        t("T", vec![Term::var("b"), Term::int(9)]),
    ];
    let (atoms, subst) = consistent(both(&input, &deps).1);
    assert!(subst.is_empty());
    assert_eq!(atoms.len(), 3);
    assert_eq!(
        (atoms[2].relation, atoms[2].args[0]),
        ("U".into(), Term::int(9))
    );
    assert!(matches!(atoms[2].args[1], Term::Var(_)), "a labeled null");
}

#[test]
fn a_cycle_of_foreign_keys_stops_at_the_round_cap() {
    let deps = Dependencies {
        fds: vec![],
        inds: inclusion_pool()[..3].to_vec(), // R → T → U → R
    };
    let input = [t("R", vec![Term::int(1), Term::int(2), Term::int(3)])];
    let (atoms, _) = consistent(both(&input, &deps).1);
    // One parent per round, four rounds, the last left unchased.
    let relations: Vec<&str> = atoms.iter().map(|a| a.relation.as_str()).collect();
    assert_eq!(relations, ["R", "T", "U", "R", "T"]);
}

#[test]
fn a_containment_only_the_key_chase_proves_still_holds() {
    // Two `Posts` rows sharing `PId` are one row under the key, so q1's
    // author and title sit in one atom only after the chase: the unchased
    // homomorphism fails, and the fallback proves it.
    let deps = Dependencies::none().with_key("Posts", vec![0]);
    let q1 = Cq::new(
        vec![Term::var("a"), Term::var("t")],
        vec![
            t(
                "Posts",
                vec![Term::var("p"), Term::var("a"), Term::var("x")],
            ),
            t(
                "Posts",
                vec![Term::var("p"), Term::var("y"), Term::var("t")],
            ),
        ],
        vec![],
    );
    let q2 = Cq::new(
        vec![Term::var("a"), Term::var("t")],
        vec![t(
            "Posts",
            vec![Term::var("p"), Term::var("a"), Term::var("t")],
        )],
        vec![],
    );
    assert!(!contained_given(&q1, &q2, &[]), "no homomorphism unchased");
    assert!(contained_given_deps(&q1, &q2, &[], &deps));
    assert!(reference::contained_given_deps(&q1, &q2, &[], &deps));
}

#[test]
fn a_query_variable_spelled_like_a_skolem_is_not_the_fact_null() {
    // q1's `sk0` and the trace fact's Skolem `sk0` share a spelling only:
    // renamed apart, q2's join through `Follows` has nothing to land on.
    let q1 = Cq::new(
        vec![Term::var("x")],
        vec![t("Posts", vec![Term::var("x"), Term::var("sk0")])],
        vec![],
    );
    let q2 = Cq::new(
        vec![Term::var("x")],
        vec![
            t("Posts", vec![Term::var("x"), Term::var("a")]),
            t("Follows", vec![Term::int(1), Term::var("a")]),
        ],
        vec![],
    );
    let facts = [t("Follows", vec![Term::int(1), Term::var("sk0")])];
    let deps = Dependencies::none().with_key("Posts", vec![0]);
    assert!(!contained_given(&q1, &q2, &facts));
    assert!(!contained_given_deps(&q1, &q2, &facts, &deps));
    assert!(!reference::contained_given_deps(&q1, &q2, &facts, &deps));
    // The same join through a constant both sides name does hold.
    let pinned = Cq::new(
        vec![Term::var("x")],
        vec![t("Posts", vec![Term::var("x"), Term::int(7)])],
        vec![],
    );
    let fact = [t("Follows", vec![Term::int(1), Term::int(7)])];
    assert!(contained_given_deps(&pinned, &q2, &fact, &deps));
}

#[test]
fn duplicates_are_dropped_wherever_they_sit() {
    let deps = Dependencies::none().with_key("T", vec![0]);
    let row = t("T", vec![Term::int(1), Term::var("x")]);
    let other = t("U", vec![Term::var("x"), Term::int(0)]);
    let input = [row.clone(), other.clone(), row.clone(), other.clone(), row];
    let (atoms, _) = consistent(both(&input, &deps).1);
    assert_eq!(atoms, [input[0].clone(), other]);
}
