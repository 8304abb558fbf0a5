//! Differential tests of the bounded-memory machinery.
//!
//! Trace compaction drops stored facts that are homomorphically implied by
//! the rest of the trace, and the SIEVE-bounded caches evict under byte
//! pressure. Both are pure memory optimizations: with the fact set
//! logically equivalent and every cache a *cache* (misses recompute), no
//! decision may change. These properties replay generated workloads over
//! the calendar and forum schemas through the default proxy and one with
//! budgets tight enough to force eviction mid-workload, and assert, cold
//! and warm, that the two respond bit-identically (verdict, deny reason,
//! rows) and that the default proxy agrees with the cache-free,
//! compaction-free reference (`common::reference`): `check_concrete` over
//! a never-compacted trace.
//!
//! The last property is of a different kind: it holds the *incremental*
//! compaction the proxy runs (`Trace::record_compacting`) to its executable
//! specification (`Trace::compact`, full sweeps to a fixpoint), to the
//! never-compacted trace, and to the logical meaning of a reference that
//! never skips a repeated observation either, after every push of
//! generated traces.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use bep_core::{ComplianceChecker, HeapUsage, Observation, Policy, ProxyConfig, SqlProxy, Trace};
use common::reference::Reference;
use common::{calendar_db, calendar_policy, forum_db, forum_policy};
use minidb::Database;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qlogic::{Atom, CmpContext, Cq, HomProblem, Subst, Term};
use sqlir::Value;

type Step = String;

// ---------------------------------------------------------------- calendar

/// Steps biased toward *repetition* (small constant ranges): repeats are
/// what populate the trace with subsumable duplicates and what hammer the
/// concrete caches hard enough for tight budgets to evict.
fn calendar_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..3, 0i64..3)
            .prop_map(|(u, e)| format!("SELECT 1 FROM Attendance WHERE UId = {u} AND EId = {e}")),
        (0i64..3).prop_map(|e| format!("SELECT * FROM Events WHERE EId = {e}")),
        (0i64..3)
            .prop_map(|e| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}")),
        Just("SELECT EId FROM Attendance WHERE UId = ?MyUId".to_string()),
        (0i64..3).prop_map(|e| format!(
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND (EId = {e} OR EId = 0)"
        )),
        Just("SELECT 1 FROM Events WHERE EId = 1 AND EId = 2".to_string()),
    ]
}

// ------------------------------------------------------------------- forum

fn forum_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (10i64..13).prop_map(|p| format!("SELECT GId FROM Posts WHERE PId = {p}")),
        (0i64..3)
            .prop_map(|g| format!("SELECT 1 FROM Membership WHERE UId = ?MyUId AND GId = {g}")),
        (10i64..13)
            .prop_map(|p| format!("SELECT PId, Title, Body, AuthorId FROM Posts WHERE PId = {p}")),
        (10i64..13)
            .prop_map(|p| format!("SELECT CId, AuthorId, Body FROM Comments WHERE PId = {p}")),
        Just("SELECT GId, Name FROM Groups WHERE Public = TRUE".to_string()),
    ]
}

// -------------------------------------------------------------- the driver

/// Replays `steps` twice (cold, then warm) through the default and the
/// starved proxy, asserting bit-identical responses and the default
/// proxy's agreement with the reference at every step. Returns the final
/// trace heap bytes of the (reference, proxy) sessions so callers can
/// assert compaction never *grows* the trace.
fn assert_bounded_differential(
    schema: qlogic::RelSchema,
    policy: Policy,
    db: &Database,
    uid: i64,
    steps: &[Step],
) -> Result<(usize, usize), TestCaseError> {
    let checker = ComplianceChecker::new(schema, policy);
    let compacting = SqlProxy::new(db.clone(), checker.clone(), ProxyConfig::default());
    // Budgets low enough that real workloads evict: a few hundred bytes of
    // session cache is a handful of entries; every compiled template here
    // weighs over 1 KiB, so a 1 KiB plan budget holds one at a time.
    let starved = SqlProxy::new(
        db.clone(),
        checker.clone(),
        ProxyConfig {
            session_cache_budget_bytes: 512,
            plan_budget_bytes: 1024,
            ..Default::default()
        },
    );
    let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
    let sc = compacting.begin_session(bindings.clone());
    let ss = starved.begin_session(bindings.clone());
    let mut reference = Reference::new(&checker, bindings);

    for replay in ["cold", "warm"] {
        for sql in steps {
            let b = compacting.execute(sc, sql, &[]);
            let c = starved.execute(ss, sql, &[]);
            prop_assert_eq!(
                &b,
                &c,
                "starved caches changed a decision ({}) on {}",
                replay,
                sql
            );
            if let Err(e) = reference.check(sql, &[], &b.unwrap()) {
                return Err(TestCaseError::fail(format!("{replay}: {e}")));
            }
        }
    }
    let [(_, plan_evictions), ..] = starved.cache_eviction_counts();
    let templates = compacting.with_plan_cache(|plans| plans.len());
    prop_assert!(
        plan_evictions > 0 || templates == 1,
        "{} templates never evicted a plan",
        templates
    );
    let base_bytes = reference.trace.heap_bytes();
    let compact_bytes = compacting.session_trace(sc).unwrap().heap_bytes();
    Ok((base_bytes, compact_bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn calendar_compaction_and_eviction_are_decision_invisible(
        attendance in proptest::collection::vec((0i64..3, 0i64..3), 0..8),
        uid in 0i64..3,
        steps in proptest::collection::vec(calendar_step(), 1..14),
    ) {
        let db = calendar_db(&attendance);
        let (schema, policy) = calendar_policy(&db);
        let (base, compact) =
            assert_bounded_differential(schema, policy, &db, uid, &steps)?;
        prop_assert!(
            compact <= base,
            "compaction grew the trace: {compact} > {base} bytes"
        );
    }

    #[test]
    fn forum_compaction_and_eviction_are_decision_invisible(
        membership in proptest::collection::vec((0i64..3, 0i64..3), 0..6),
        uid in 0i64..3,
        steps in proptest::collection::vec(forum_step(), 1..14),
    ) {
        let db = forum_db(&membership);
        let (schema, policy) = forum_policy(&db);
        let (base, compact) =
            assert_bounded_differential(schema, policy, &db, uid, &steps)?;
        prop_assert!(
            compact <= base,
            "compaction grew the trace: {compact} > {base} bytes"
        );
    }

    /// The same probe repeated: a repeat is a no-op for the trace whether
    /// or not it compacts, so after any number of them the proxy session
    /// and the reference hold what one probe left — and the decisions
    /// match step for step.
    #[test]
    fn repeated_probes_keep_the_trace_flat(
        repeats in 4usize..24,
        e in 0i64..3,
    ) {
        let db = calendar_db(&[(0, 0), (0, 1), (0, 2)]);
        let (schema, policy) = calendar_policy(&db);
        let steps: Vec<Step> = (0..repeats)
            .map(|_| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}"))
            .collect();
        let once = assert_bounded_differential(schema.clone(), policy.clone(), &db, 0, &steps[..1])?;
        let often = assert_bounded_differential(schema, policy, &db, 0, &steps)?;
        prop_assert_eq!(often, once, "trace bytes after {} repeats vs after one", repeats);
    }
}

// ------------------------------------- incremental ≡ its specification

/// Three relations, constants in `0..2`, three variable names: small
/// enough that pushes keep colliding — equal facts, facts that absorb older
/// Skolemized ones, atoms pinned to each other through a shared variable.
const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 3), ("T", 3)];

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..2).prop_map(Term::int),
        proptest::sample::select(vec!["x", "y", "z"]).prop_map(Term::var),
    ]
}

fn atom() -> impl Strategy<Value = Atom> {
    (0usize..3, proptest::collection::vec(term(), 3)).prop_map(|(r, mut args)| {
        let (name, arity) = RELATIONS[r];
        args.truncate(arity);
        Atom::new(name, args)
    })
}

fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![(0i64..2).prop_map(Value::Int), Just(Value::Null)]
}

/// One push: a 1–2-atom query (variables shared across atoms and repeated
/// within one) whose head is drawn from its own terms, and an observation
/// shaped to that head — empty, non-empty, or 1–3 rows with `NULL` cells.
fn push() -> impl Strategy<Value = (Cq, Observation)> {
    (
        proptest::collection::vec(atom(), 1..3),
        proptest::collection::vec(0usize..6, 0..3),
        0usize..3,
        proptest::collection::vec(proptest::collection::vec(cell(), 2), 1..4),
    )
        .prop_map(|(atoms, picks, kind, mut rows)| {
            let terms: Vec<Term> = atoms.iter().flat_map(|a| a.args.clone()).collect();
            let head: Vec<Term> = picks.iter().map(|&k| terms[k % terms.len()]).collect();
            let observation = match kind {
                0 => Observation::Empty,
                1 => Observation::NonEmpty,
                _ => {
                    rows.iter_mut().for_each(|row| row.truncate(head.len()));
                    Observation::Rows(rows)
                }
            };
            (Cq::new(head, atoms, vec![]), observation)
        })
}

/// Whether `source`, its variables existential, maps into `target`: the
/// facts of `target` entail those of `source`. Facts that share no variable
/// map independently, so each connected block is searched on its own — one
/// search over all of them backtracks through blocks that have nothing to
/// do with the one that failed.
fn entails(target: &[Atom], source: &[Atom]) -> bool {
    let mut blocks: Vec<Vec<Atom>> = Vec::new();
    for atom in source {
        let shares_a_variable = |block: &Vec<Atom>| {
            let shared = |t: &Term| matches!(t, Term::Var(_)) && atom.args.contains(t);
            block.iter().any(|other| other.args.iter().any(shared))
        };
        let (joined, apart): (Vec<_>, Vec<_>) = blocks.into_iter().partition(shares_a_variable);
        blocks = apart;
        blocks.push(joined.into_iter().flatten().chain([atom.clone()]).collect());
    }
    blocks.iter().all(|block| {
        qlogic::find_homomorphism(&HomProblem {
            source_atoms: block,
            source_comparisons: &[],
            target_atoms: target,
            target_ctx: &CmpContext::new(&[]),
            initial: Subst::new(),
        })
        .is_some()
    })
}

/// What one push witnesses recorded on its own, its Skolems renamed apart
/// by push number: the never-skipping reference derives this for *every*
/// push, a repeat of a stored entry included.
fn witnessed_alone(n: usize, query: &Cq, observation: &Observation) -> Vec<Atom> {
    let mut alone = Trace::new();
    alone.record(query.clone(), observation.clone());
    let apart = |t: &Term| match t {
        Term::Var(v) => Term::var(format!("push{n}·{v}")),
        rigid => *rigid,
    };
    alone
        .facts()
        .iter()
        .map(|f| Atom::new(f.relation, f.args.iter().map(apart).collect()))
        .collect()
}

/// Facts dropped, and repeats skipped, over every generated case
/// (non-vacuity).
static DROPPED: AtomicUsize = AtomicUsize::new(0);
static SKIPPED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    // Not a `#[test]` itself: the test below runs it, then checks the totals.
    fn incremental_compaction_holds_on_generated_traces(
        fresh in proptest::collection::vec(push(), 40),
        echoes in proptest::collection::vec(proptest::option::of(0usize..40), 40),
    ) {
        // Two pushes in five repeat an earlier one exactly — a join probe
        // whose facts share Skolems as often as any other.
        let mut pushes: Vec<(Cq, Observation)> = Vec::new();
        for (push, echo) in fresh.into_iter().zip(echoes) {
            match echo {
                Some(k) if k % 5 < 2 && !pushes.is_empty() => {
                    pushes.push(pushes[k % pushes.len()].clone())
                }
                _ => pushes.push(push),
            }
        }
        // `store` is what the proxy keeps; `reference` pays a full
        // compaction per record; `history` never forgets a fact; and
        // `unskipped` never skips a repeat either.
        let (mut store, mut reference, mut history) = (Trace::new(), Trace::new(), Trace::new());
        let mut unskipped: Vec<Atom> = Vec::new();
        for (n, (query, observation)) in pushes.iter().enumerate() {
            let repeat = store
                .entries()
                .iter()
                .any(|e| e.query == *query && e.observation == *observation);
            let before = (store.facts().to_vec(), store.version(), store.heap_bytes());
            let dropped = store.record_compacting(query.clone(), observation.clone());
            DROPPED.fetch_add(dropped, Ordering::Relaxed);
            if repeat {
                SKIPPED.fetch_add(1, Ordering::Relaxed);
                let after = (store.facts().to_vec(), store.version(), store.heap_bytes());
                prop_assert_eq!((dropped, after), (0, before), "push {} is a repeat", n);
            }
            reference.record(query.clone(), observation.clone());
            reference.compact();
            history.record(query.clone(), observation.clone());
            unskipped.extend(witnessed_alone(n, query, observation));

            prop_assert_eq!(store.clone().compact(), 0, "not a fixpoint after push {}", n);
            prop_assert_eq!(
                store.facts().len(),
                reference.facts().len(),
                "push {}: {:?} vs reference {:?}",
                n,
                store.facts(),
                reference.facts()
            );
            prop_assert_eq!(store.entries(), reference.entries());
            prop_assert_eq!(store.entries(), history.entries());
            // The three traces skip the same repeats, so they mint the
            // same Skolems: the store is a subset of the history by name.
            for fact in store.facts() {
                prop_assert!(history.facts().contains(fact), "invented {:?}", fact);
            }
            // Against the reference that skips nothing, names mean nothing:
            // each side must entail the other.
            prop_assert!(
                entails(&unskipped, store.facts()),
                "push {}: {:?} says more than {:?}",
                n,
                store.facts(),
                unskipped
            );
            for everything in [history.facts(), &unskipped[..]] {
                prop_assert!(
                    entails(store.facts(), everything),
                    "push {}: {:?} lost information of {:?}",
                    n,
                    store.facts(),
                    everything
                );
            }
        }
    }
}

#[test]
fn incremental_compaction_meets_its_specification() {
    incremental_compaction_holds_on_generated_traces();
    let (dropped, skipped) = (
        DROPPED.load(Ordering::Relaxed),
        SKIPPED.load(Ordering::Relaxed),
    );
    assert!(
        dropped > 4_000,
        "generated traces barely compact: {dropped} drops"
    );
    assert!(
        skipped > 4_000,
        "generated traces barely repeat: {skipped} repeats skipped"
    );
}
