//! Differential tests of the decision path against its specification.
//!
//! The plan machinery (parse-once, translate-once, pruned candidate views,
//! compiled template verdicts, `u64` cache keys) and the verdict caches in
//! front of it are pure amortization: they must never change a decision.
//! These properties drive generated workloads over the calendar schema of
//! Example 2.1 and the forum schema of the simulated applications, and
//! assert, query by query:
//!
//! * the default proxy and a proxy with the verdict caches off (every
//!   `SELECT` pays a fresh concrete proof) return bit-identical responses:
//!   verdict, deny reason, and rows;
//! * the caches-off proxy returns the same verdict and deny reason as a
//!   fresh [`ComplianceChecker::check_concrete`] run against the session's
//!   own trace — the paper's reference decision procedure;
//! * both hold cache-cold (first replay) and cache-warm (second replay of
//!   the identical workload in the same sessions);
//! * both hold across sessions: every user runs the workload in a session
//!   of its own on the same two proxies, so a certificate one session's
//!   proof taught a template-undecidable plan is replayed in the next, and
//!   must still agree with the oracle over *that* session's trace. The
//!   tests check such replays happened, so the leg is not vacuous.

use std::sync::atomic::{AtomicUsize, Ordering};

use bep_core::{
    schema_of_database, ComplianceChecker, Policy, ProxyConfig, ProxyResponse, SqlProxy,
};
use minidb::Database;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlir::{parse_statement, Statement, Value};

/// One generated request: plain SQL (session parameters like `?MyUId`
/// resolve from the session bindings; everything else is inlined).
type Step = String;

// ---------------------------------------------------------------- calendar

fn calendar_db(attendance: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    for e in 0..4 {
        db.execute_sql(&format!(
            "INSERT INTO Events (EId, Title, Kind) VALUES ({e}, 'title{e}', 'kind{e}')"
        ))
        .unwrap();
    }
    for (u, e) in attendance {
        let _ = db.execute_sql(&format!(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES ({u}, {e}, NULL)"
        ));
    }
    db
}

fn calendar_policy(db: &Database) -> (qlogic::RelSchema, Policy) {
    let schema = schema_of_database(db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    (schema, policy)
}

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

fn forum_db(membership: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for ddl in [
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)",
        "CREATE TABLE Groups (GId INT PRIMARY KEY, Name TEXT NOT NULL, Public BOOL NOT NULL)",
        "CREATE TABLE Membership (UId INT NOT NULL, GId INT NOT NULL, Role TEXT NOT NULL, \
         PRIMARY KEY (UId, GId))",
        "CREATE TABLE Posts (PId INT PRIMARY KEY, GId INT NOT NULL, AuthorId INT NOT NULL, \
         Title TEXT NOT NULL, Body TEXT NOT NULL)",
        "CREATE TABLE Comments (CId INT PRIMARY KEY, PId INT NOT NULL, AuthorId INT NOT NULL, \
         Body TEXT NOT NULL)",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    db.execute_sql("INSERT INTO Users (UId, Name) VALUES (0, 'u0'), (1, 'u1'), (2, 'u2')")
        .unwrap();
    db.execute_sql(
        "INSERT INTO Groups (GId, Name, Public) VALUES \
         (0, 'g0', TRUE), (1, 'g1', FALSE), (2, 'g2', FALSE)",
    )
    .unwrap();
    for (u, g) in membership {
        let _ = db.execute_sql(&format!(
            "INSERT INTO Membership (UId, GId, Role) VALUES ({u}, {g}, 'member')"
        ));
    }
    db.execute_sql(
        "INSERT INTO Posts (PId, GId, AuthorId, Title, Body) VALUES \
         (10, 0, 0, 't10', 'b10'), (11, 1, 1, 't11', 'b11'), (12, 2, 2, 't12', 'b12')",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Comments (CId, PId, AuthorId, Body) VALUES \
         (100, 10, 0, 'c100'), (101, 11, 1, 'c101')",
    )
    .unwrap();
    db
}

/// The forum ground-truth policy (mirrors `appsim::forum::FORUM`).
fn forum_policy(db: &Database) -> (qlogic::RelSchema, Policy) {
    let schema = schema_of_database(db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("PostGroups", "SELECT PId, GId FROM Posts"),
            (
                "MyMemberships",
                "SELECT GId FROM Membership WHERE UId = ?MyUId",
            ),
            (
                "MyGroups",
                "SELECT g.GId, g.Name FROM Groups g \
                 JOIN Membership m ON g.GId = m.GId WHERE m.UId = ?MyUId",
            ),
            (
                "PublicGroups",
                "SELECT GId, Name FROM Groups WHERE Public = TRUE",
            ),
            (
                "GroupPosts",
                "SELECT p.PId, p.GId, p.Title, p.Body, p.AuthorId FROM Posts p \
                 JOIN Membership m ON p.GId = m.GId WHERE m.UId = ?MyUId",
            ),
            (
                "GroupComments",
                "SELECT c.CId, c.PId, c.AuthorId, c.Body FROM Comments c \
                 JOIN Posts p ON c.PId = p.PId \
                 JOIN Membership m ON p.GId = m.GId WHERE m.UId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    (schema, policy)
}

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
        // A write mixed in: passes through both proxies identically (and
        // identically violates the Comments primary key on warm replays).
        (10i64..13, 900i64..903).prop_map(|(p, c)| format!(
            "INSERT INTO Comments (CId, PId, AuthorId, Body) VALUES ({c}, {p}, 0, 'x')"
        )),
    ]
}

// -------------------------------------------------------------- the driver

/// Replays `steps` twice (cold, then warm) in one session per user of
/// `uids`, in order, through the default proxy and a caches-off proxy, the
/// latter checked against a fresh `check_concrete` oracle per request.
/// Adds to `replays` the default proxy's decisions a learned certificate
/// made: a template-undecidable plan (a negative template hit) replayed.
fn assert_differential(
    schema: qlogic::RelSchema,
    policy: Policy,
    db: &Database,
    uids: &[i64],
    steps: &[Step],
    replays: &AtomicUsize,
) -> Result<(), TestCaseError> {
    let checker = ComplianceChecker::new(schema, policy);
    let cached = SqlProxy::new(db.clone(), checker.clone(), ProxyConfig::default());
    // Verdict caches off: every SELECT runs a fresh concrete proof,
    // comparable 1:1 with the oracle below.
    let nocache = SqlProxy::new(
        db.clone(),
        checker.clone(),
        ProxyConfig {
            template_cache: false,
            session_cache: false,
            ..Default::default()
        },
    );
    let sessions: Vec<_> = uids
        .iter()
        .map(|&uid| {
            let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
            let sd = cached.begin_session(bindings.clone());
            let sc = nocache.begin_session(bindings.clone());
            (bindings, sd, sc)
        })
        .collect();

    for replay in ["cold", "warm"] {
        for (bindings, sd, sc) in &sessions {
            for sql in steps {
                // Oracle first: `check_concrete` from scratch against the
                // caches-off session's current trace.
                let oracle = match parse_statement(sql) {
                    Ok(Statement::Select(q)) => {
                        let trace = nocache.session_trace(*sc).unwrap();
                        Some(checker.check_concrete(&q, bindings, &trace))
                    }
                    _ => None,
                };
                let a = cached.execute(*sd, sql, &[]);
                let c = nocache.execute(*sc, sql, &[]);
                prop_assert_eq!(&a, &c, "caches changed a response ({}) on {}", replay, sql);
                if let (Some(oracle), Ok(response)) = (oracle, &c) {
                    prop_assert_eq!(
                        oracle.is_allowed(),
                        response.is_allowed(),
                        "proxy vs oracle verdict diverged ({}) on {} for {:?}",
                        replay,
                        sql,
                        bindings
                    );
                    if let (Some(reason), ProxyResponse::Blocked(got)) =
                        (oracle.deny_reason(), response)
                    {
                        prop_assert_eq!(
                            reason,
                            got,
                            "proxy vs oracle deny reason diverged ({}) on {}",
                            replay,
                            sql
                        );
                    }
                }
            }
        }
    }
    let events = cached.journal().events_since(0, usize::MAX);
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
