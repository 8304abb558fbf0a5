//! Differential tests of the decision path against its specification.
//!
//! The plan machinery (parse-once, translate-once, pruned candidate views,
//! compiled template verdicts, learned certificates, `u64` cache keys),
//! the verdict caches in front of it and trace compaction are pure
//! amortization: they must never change a decision. These properties drive
//! generated workloads over the calendar schema of Example 2.1 and the
//! forum schema of the simulated applications through the default proxy,
//! and hold every request to the cache-free, compaction-free reference
//! (`common::reference`):
//!
//! * each `SELECT` gets the verdict and deny reason of a fresh
//!   [`ComplianceChecker::check_concrete`] over a never-compacted trace of
//!   the session's allowed reads — the paper's reference decision
//!   procedure;
//! * each allowed read's rows equal a twin database's, fed the same
//!   pass-through writes;
//! * both hold cache-cold (first replay) and cache-warm (second replay of
//!   the identical workload in the same sessions);
//! * both hold across sessions: every user runs the workload in a session
//!   of its own on the same proxy, so a certificate one session's proof
//!   taught a template-undecidable plan is replayed in the next, and must
//!   still agree with the oracle over *that* session's trace. The tests
//!   check such replays happened, so the leg is not vacuous.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use bep_core::{ComplianceChecker, Policy, ProxyConfig, ProxyResponse, SqlProxy};
use common::reference::Reference;
use common::{calendar_db, calendar_policy, forum_db, forum_policy};
use minidb::Database;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlir::{parse_statement, Statement, Value};

/// One generated request: plain SQL (session parameters like `?MyUId`
/// resolve from the session bindings; everything else is inlined).
type Step = String;

// ---------------------------------------------------------------- calendar

fn calendar_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..4, 0i64..4)
            .prop_map(|(u, e)| format!("SELECT 1 FROM Attendance WHERE UId = {u} AND EId = {e}")),
        (0i64..4).prop_map(|e| format!("SELECT * FROM Events WHERE EId = {e}")),
        (0i64..4)
            .prop_map(|e| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}")),
        Just("SELECT EId FROM Attendance WHERE UId = ?MyUId".to_string()),
        // Union: both disjuncts must pass.
        (0i64..4).prop_map(|e| format!(
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND (EId = {e} OR EId = 0)"
        )),
        // Unsatisfiable (allowed: reveals nothing).
        Just("SELECT 1 FROM Events WHERE EId = 1 AND EId = 2".to_string()),
        // Out of fragment and unparseable.
        Just("SELECT COUNT(*) FROM Events".to_string()),
        Just("SELEC whoops".to_string()),
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
        Just(
            "SELECT g.GId, g.Name FROM Groups g JOIN Membership m ON g.GId = m.GId \
             WHERE m.UId = ?MyUId"
                .to_string()
        ),
        // A write mixed in: passes through to the store and the twin alike
        // (and violates the Comments primary key on warm replays).
        (10i64..13, 900i64..903).prop_map(|(p, c)| format!(
            "INSERT INTO Comments (CId, PId, AuthorId, Body) VALUES ({c}, {p}, 0, 'x')"
        )),
    ]
}

// -------------------------------------------------------------- the driver

/// Replays `steps` twice (cold, then warm) in one session per user of
/// `uids`, in order, through the default proxy, holding every request to
/// the session's reference and a twin database. Adds to `replays` the
/// decisions a learned certificate made: a template-undecidable plan (a
/// negative template hit) replayed.
fn assert_differential(
    schema: qlogic::RelSchema,
    policy: Policy,
    db: &Database,
    uids: &[i64],
    steps: &[Step],
    replays: &AtomicUsize,
) -> Result<(), TestCaseError> {
    let checker = ComplianceChecker::new(schema, policy);
    let proxy = SqlProxy::new(db.clone(), checker.clone(), ProxyConfig::default());
    let mut twin = db.clone();
    let mut sessions: Vec<_> = uids
        .iter()
        .map(|&uid| {
            let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
            let id = proxy.begin_session(bindings.clone());
            (id, bindings.clone(), Reference::new(&checker, bindings))
        })
        .collect();

    for replay in ["cold", "warm"] {
        for (id, bindings, reference) in &mut sessions {
            for sql in steps {
                let response = proxy.execute(*id, sql, &[]);
                match parse_statement(sql) {
                    Ok(Statement::Select(q)) => {
                        if let Ok(ProxyResponse::Rows(rows)) = &response {
                            let want = twin.query_with(&q, bindings).unwrap();
                            prop_assert_eq!(rows, &want, "rows ({}) of {}", replay, sql);
                        }
                    }
                    Ok(_) => {
                        // A pass-through write: the store and the twin
                        // succeed or fail alike (a duplicate key is `Err`).
                        let want = twin.execute_sql(sql);
                        prop_assert_eq!(response.is_ok(), want.is_ok(), "write {}", sql);
                        continue;
                    }
                    Err(_) => {}
                }
                let response = response.unwrap_or_else(|e| panic!("{sql}: {e}"));
                if let Err(e) = reference.check(sql, &[], &response) {
                    return Err(TestCaseError::fail(format!("{replay}: {e}")));
                }
            }
        }
    }
    let events = proxy.journal().events_since(0, usize::MAX);
    let learned = events
        .iter()
        .filter(|e| e.negative_template_hit && e.span.cert_replays > 0)
        .count();
    replays.fetch_add(learned, Ordering::Relaxed);
    Ok(())
}

/// Every user, starting at `first`.
fn users_from(first: i64, n: i64) -> Vec<i64> {
    (0..n).map(|k| (first + k) % n).collect()
}

/// Learned-certificate replays over each family's generated workloads.
static CALENDAR_REPLAYS: AtomicUsize = AtomicUsize::new(0);
static FORUM_REPLAYS: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Not `#[test]`s themselves: the tests below run them, then check that
    // learned certificates were replayed.
    fn calendar_workloads(
        attendance in proptest::collection::vec((0i64..4, 0i64..4), 0..8),
        uid in 0i64..4,
        steps in proptest::collection::vec(calendar_step(), 1..20),
    ) {
        let db = calendar_db(&attendance);
        let (schema, policy) = calendar_policy(&db);
        let users = users_from(uid, 4);
        assert_differential(schema, policy, &db, &users, &steps, &CALENDAR_REPLAYS)?;
    }

    fn forum_workloads(
        membership in proptest::collection::vec((0i64..3, 0i64..3), 0..9),
        uid in 0i64..3,
        steps in proptest::collection::vec(forum_step(), 1..20),
    ) {
        let db = forum_db(&membership);
        let (schema, policy) = forum_policy(&db);
        let users = users_from(uid, 3);
        assert_differential(schema, policy, &db, &users, &steps, &FORUM_REPLAYS)?;
    }
}

#[test]
fn calendar_caches_are_decision_invisible() {
    calendar_workloads();
    let replays = CALENDAR_REPLAYS.load(Ordering::Relaxed);
    assert!(replays > 0, "no learned certificate was replayed");
}

#[test]
fn forum_caches_are_decision_invisible() {
    forum_workloads();
    let replays = FORUM_REPLAYS.load(Ordering::Relaxed);
    assert!(replays > 0, "no learned certificate was replayed");
}
