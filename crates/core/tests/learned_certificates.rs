//! Learned certificates across sessions.
//!
//! A template the symbolic proof cannot decide is proved per request, over
//! the session's trace facts. Its plan keeps the rewriting each allowed
//! proof found, with the binding values lifted back to parameters, and the
//! next session replays it before searching. These tests hold the two
//! sides of that bargain on the social graph's `view_author` handler:
//!
//! * a certificate learned in one session is only a candidate in another —
//!   session B, lacking its own `Follows` fact, is still blocked (the
//!   replay fails to verify and the full search denies);
//! * once B holds the fact, the certificate decides B's request with no
//!   search at all;
//! * a rewriting whose constant two bindings share is ambiguous, and
//!   nothing is learned from it.

use bep_core::{
    schema_of_database, ComplianceChecker, DecisionEvent, Policy, ProxyConfig, ProxyResponse,
    SqlProxy,
};
use minidb::Database;
use sqlir::Value;

const GATE: &str = "SELECT 1 FROM Follows WHERE FollowerId = ?MyUId AND FolloweeId = ?author_id";
const POSTS: &str = "SELECT PId, Title, Body FROM Posts WHERE AuthorId = ?author_id";

fn social_proxy() -> SqlProxy {
    let mut db = Database::new();
    for ddl in [
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)",
        "CREATE TABLE Follows (FollowerId INT NOT NULL, FolloweeId INT NOT NULL, \
         PRIMARY KEY (FollowerId, FolloweeId))",
        "CREATE TABLE Posts (PId INT PRIMARY KEY, AuthorId INT NOT NULL, \
         Title TEXT NOT NULL, Body TEXT NOT NULL)",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    db.execute_sql("INSERT INTO Users (UId, Name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    // A and B both follow C; only the gate query puts that in a trace.
    db.execute_sql("INSERT INTO Follows (FollowerId, FolloweeId) VALUES (1, 3), (2, 3)")
        .unwrap();
    db.execute_sql(
        "INSERT INTO Posts (PId, AuthorId, Title, Body) VALUES (30, 3, 't', 'b'), (10, 1, 'u', 'v')",
    )
    .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[
            (
                "MyFolloweePosts",
                "SELECT p.PId, p.Title, p.Body, p.AuthorId FROM Posts p \
                 JOIN Follows f ON f.FolloweeId = p.AuthorId WHERE f.FollowerId = ?MyUId",
            ),
            (
                "MyFollowees",
                "SELECT FollowerId, FolloweeId FROM Follows WHERE FollowerId = ?MyUId",
            ),
            (
                "MyOwnPosts",
                "SELECT PId, Title, Body, AuthorId FROM Posts WHERE AuthorId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    )
}

fn author(id: i64) -> Vec<(String, Value)> {
    vec![("author_id".to_string(), Value::Int(id))]
}

/// Runs one statement and returns its response with its journal event.
fn run(
    proxy: &SqlProxy,
    session: u64,
    sql: &str,
    author_id: i64,
) -> (ProxyResponse, DecisionEvent) {
    let response = proxy.execute(session, sql, &author(author_id)).unwrap();
    let event = proxy
        .journal()
        .events_since(0, usize::MAX)
        .pop()
        .expect("every decision is journaled");
    (response, event)
}

#[test]
fn a_certificate_learned_in_one_session_needs_the_other_sessions_own_facts() {
    let proxy = social_proxy();
    let a = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let b = proxy.begin_session(vec![("MyUId".into(), Value::Int(2))]);

    // Session A holds its gate fact; its proof searches and learns.
    assert!(run(&proxy, a, GATE, 3).0.is_allowed());
    let (response, event) = run(&proxy, a, POSTS, 3);
    assert!(response.is_allowed(), "{response:?}");
    assert_eq!((event.span.cert_replays, event.span.cert_fallbacks), (0, 1));

    // Session B has no `Follows(2, 3)` in its trace: A's certificate does
    // not verify over B's facts, and the full search denies.
    let (response, event) = run(&proxy, b, POSTS, 3);
    assert!(
        !response.is_allowed(),
        "B blocked without the fact: {response:?}"
    );
    assert_eq!((event.span.cert_replays, event.span.cert_fallbacks), (0, 1));

    // With its own gate fact, B is allowed by A's certificate alone.
    assert!(run(&proxy, b, GATE, 3).0.is_allowed());
    let (response, event) = run(&proxy, b, POSTS, 3);
    assert!(response.is_allowed(), "{response:?}");
    assert_eq!((event.span.cert_replays, event.span.cert_fallbacks), (1, 0));
    assert_eq!(event.span.rewrite_iterations, 0, "no search ran");
}

#[test]
fn a_value_two_parameters_share_learns_nothing() {
    let proxy = social_proxy();
    let a = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let b = proxy.begin_session(vec![("MyUId".into(), Value::Int(2))]);

    // A reads its own posts: `MyOwnPosts(…, 1)` proves it, and `1` is both
    // `?MyUId` and `?author_id` — which one the certificate should name is
    // ambiguous, so the plan learns nothing.
    let (response, event) = run(&proxy, a, POSTS, 1);
    assert!(response.is_allowed(), "{response:?}");
    assert_eq!((event.span.cert_replays, event.span.cert_fallbacks), (0, 1));

    // B reading its own posts is the same proof under B's values. Had A's
    // proof been kept (under either name), it would replay here; nothing
    // was, so B searches.
    let (response, event) = run(&proxy, b, POSTS, 2);
    assert!(response.is_allowed(), "{response:?}");
    assert_eq!((event.span.cert_replays, event.span.cert_fallbacks), (0, 1));
}
