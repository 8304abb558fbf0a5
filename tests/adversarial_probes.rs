//! Adversarial inputs at the proxy surface: every hostile statement must
//! come back `Blocked(...)` — never `Err`, never a panic.

use beyond_enforcement::prelude::*;
use minidb::Database;
use sqlir::Value;

fn proxy() -> SqlProxy {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work')")
        .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")],
    )
    .unwrap();
    SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    )
}

#[test]
fn hostile_statements_are_blocked_not_errors() {
    let p = proxy();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);

    let mut in_chain = String::from("SELECT * FROM Events WHERE EId IN (");
    for i in 0..80 {
        if i > 0 {
            in_chain.push_str(", ");
        }
        in_chain.push_str(&i.to_string());
    }
    in_chain.push(')');

    let hostile: Vec<String> = vec![
        // Malformed SQL.
        "SELEC whoops".into(),
        "SELECT FROM".into(),
        ");;DROP TABLE Events;--".into(),
        // Unknown tables / columns.
        "SELECT * FROM NoSuchTable".into(),
        "SELECT Nope FROM Events".into(),
        // Unbound parameters.
        "SELECT * FROM Events WHERE EId = ?never_bound".into(),
        // Aggregates: outside the conjunctive fragment.
        "SELECT COUNT(*) FROM Events".into(),
        "SELECT Kind, MAX(EId) FROM Events GROUP BY Kind".into(),
        // A >64-disjunct IN chain.
        in_chain,
    ];

    for sql in &hostile {
        match p.execute(s, sql, &[]) {
            Ok(ProxyResponse::Blocked(_)) => {}
            other => panic!("{sql:?} must be Blocked, got {other:?}"),
        }
    }
    assert_eq!(p.stats().blocked, hostile.len() as u64);
}

/// The calendar policy plus `V3`, each user's own attendance rows, with
/// `enforce_writes` on: user 1 attends events 2 and 7, user 2 event 3.
fn calendar_with_own_rows() -> SqlProxy {
    let (db, checker) = calendar_with_own_rows_parts();
    let config = ProxyConfig {
        enforce_writes: true,
        ..Default::default()
    };
    SqlProxy::new(db, checker, config)
}

/// The database and checker of [`calendar_with_own_rows`].
fn calendar_with_own_rows_parts() -> (Database, ComplianceChecker) {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
         (3, 'party', 'fun'), (7, 'offsite', 'work')",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake'), \
         (1, 7, 'mine')",
    )
    .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = ?MyUId",
            ),
            ("V3", "SELECT * FROM Attendance WHERE UId = ?MyUId"),
        ],
    )
    .unwrap();
    (db, ComplianceChecker::new(schema, policy))
}

/// Attendance rows, ordered.
fn attendance(p: &SqlProxy) -> Vec<Vec<Value>> {
    (p.database())
        .query_sql("SELECT UId, EId, Notes FROM Attendance ORDER BY UId, EId")
        .unwrap()
        .rows
}

/// A column named twice in an `INSERT` column list or an `UPDATE` `SET`
/// list is refused at parse time. Write coverage reads the first value and
/// the store keeps the last, so before the refusal a session of user 1 wrote
/// rows owned by user 2 under a policy that admits only its own rows.
#[test]
fn a_column_named_twice_is_blocked_and_writes_nothing() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let before = attendance(&p);

    for sql in [
        "INSERT INTO Attendance (UId, EId, Notes, UId) VALUES (?MyUId, 9, 'sneaky', 2)",
        "UPDATE Attendance SET UId = ?MyUId, UId = 2 WHERE UId = ?MyUId AND EId = 7",
    ] {
        match p.execute(s, sql, &[]) {
            Ok(ProxyResponse::Blocked(DenyReason::ParseError(_))) => {}
            other => panic!("{sql:?} must be Blocked(ParseError), got {other:?}"),
        }
        assert_eq!(attendance(&p), before, "{sql:?} changed the table");
    }
    // Each statement without its repeated column is the session's own
    // write, and is allowed.
    assert_eq!(
        p.execute(
            s,
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, 9, 'fine')",
            &[]
        )
        .unwrap(),
        ProxyResponse::Affected(1)
    );
    let stats = p.stats();
    assert_eq!((stats.blocked, stats.write_allowed), (2, 1));
}

/// An `UPDATE` removes the rows its `WHERE` matches as surely as a
/// `DELETE` does. Write coverage once held only the rows it wrote, so user
/// 1 took user 2's attendance of event 3 by moving it to user 1, which a
/// `DELETE` with the same `WHERE` could not have removed.
#[test]
fn an_update_cannot_take_another_users_row() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let before = attendance(&p);
    for sql in [
        "UPDATE Attendance SET UId = ?MyUId WHERE UId = 2 AND EId = 3",
        "DELETE FROM Attendance WHERE UId = 2 AND EId = 3",
    ] {
        match p.execute(s, sql, &[]) {
            Ok(ProxyResponse::Blocked(DenyReason::WriteNotCovered { .. })) => {}
            other => panic!("{sql:?} must be Blocked(WriteNotCovered), got {other:?}"),
        }
        assert_eq!(attendance(&p), before, "{sql:?} changed the table");
    }
    // An update of the session's own row is still allowed.
    let own = "UPDATE Attendance SET Notes = 'moved' WHERE UId = ?MyUId AND EId = 7";
    assert_eq!(p.execute(s, own, &[]).unwrap(), ProxyResponse::Affected(1));
}

/// A row a write names only by a column it does not pin may be any row:
/// the fresh variable standing for its key is one unknown value, not
/// whichever one the trace happens to know. User 1 knows it attends event
/// 2, and that covers deleting event 2, but not deleting whatever event is
/// titled 'party' (event 3, which user 1 does not attend).
#[test]
fn a_row_named_by_an_unpinned_column_is_not_a_known_row() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
    assert_eq!(p.execute(s, probe, &[]).unwrap().rows().unwrap().len(), 1);
    let events = || {
        p.database()
            .query_sql("SELECT EId FROM Events")
            .unwrap()
            .rows
    };
    let before = events();
    match p.execute(s, "DELETE FROM Events WHERE Title = 'party'", &[]) {
        Ok(ProxyResponse::Blocked(DenyReason::WriteNotCovered { .. })) => {}
        other => panic!("the delete must be Blocked(WriteNotCovered), got {other:?}"),
    }
    assert_eq!(events(), before, "the delete changed the table");
    let known = "DELETE FROM Events WHERE EId = 2";
    assert_eq!(
        p.execute(s, known, &[]).unwrap(),
        ProxyResponse::Affected(1)
    );
}

/// FNV-1a is not collision-resistant: a client can craft a text whose
/// template hash equals another template's. The two texts below hash alike
/// (`1e442dd71d3da49e`; `?pfobdonnjepaliao` and `?hhampelnogiloldp` are
/// another such pair, at `3a3f8ed9156dd446`). A plan is cached by its text
/// and a session's verdicts by its plan's id, so once the first text is
/// allowed for event 2 the second, run with the same bindings, is still
/// decided for event 3 by a plan of its own, and blocked.
#[test]
fn a_text_on_another_templates_hash_keeps_its_own_plan() {
    let p = calendar_with_own_rows();
    let first = "SELECT * FROM Events WHERE EId = ?bmnemdkddehijkae";
    let second = "SELECT * FROM Events WHERE EId = ?jgcgilkggpmlchga";
    assert_eq!(template_hash(first), template_hash(second));
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event";
    let e2 = [("event".to_string(), Value::Int(2))];
    assert_eq!(p.execute(s, probe, &e2).unwrap().rows().unwrap().len(), 1);
    let bindings = [
        ("bmnemdkddehijkae".to_string(), Value::Int(2)),
        ("jgcgilkggpmlchga".to_string(), Value::Int(3)),
    ];
    let rows = p.execute(s, first, &bindings).unwrap();
    assert_eq!(rows.rows().unwrap().rows[0][0], Value::Int(2));
    match p.execute(s, second, &bindings) {
        Ok(ProxyResponse::Blocked(DenyReason::NotDetermined { .. })) => {}
        other => panic!("user 1 does not attend event 3, got {other:?}"),
    }
    p.with_plan_cache(|plans| {
        let id = |sql| plans.get(sql).expect("cached").id();
        assert_ne!(id(first), id(second), "each text has a plan of its own");
    });
}

/// Plan ids are never reused: a template compiled after another was
/// evicted does not inherit the evicted plan's session-cache entries. The
/// plan budget here is one byte, so each compile evicts every other plan.
#[test]
fn a_plan_compiled_after_an_eviction_inherits_no_verdict() {
    let (db, checker) = calendar_with_own_rows_parts();
    let config = ProxyConfig {
        plan_budget_bytes: 1,
        ..Default::default()
    };
    let p = SqlProxy::new(db, checker, config);
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let e2 = [("e".to_string(), Value::Int(2))];
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?e";
    assert_eq!(p.execute(s, probe, &e2).unwrap().rows().unwrap().len(), 1);
    let fetch = "SELECT * FROM Events WHERE EId = ?e";
    assert!(p.execute(s, fetch, &e2).unwrap().is_allowed());
    match p.execute(s, "SELECT * FROM Attendance WHERE EId = ?e", &e2) {
        Ok(ProxyResponse::Blocked(DenyReason::NotDetermined { .. })) => {}
        other => panic!("other users' rows of event 2 must be blocked, got {other:?}"),
    }
    assert_eq!(p.cache_eviction_counts()[0], ("plan", 2));
}

/// A session's bindings are the request context its policy views are
/// instantiated with, so a request may repeat one but not rebind it: a
/// different value is blocked before any tier decides, counts or caches
/// it. A session begun with one name twice keeps the first.
#[test]
fn a_request_binding_cannot_rebind_the_session() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let own = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    let as_user = |uid| [("MyUId".to_string(), Value::Int(uid))];
    let mine = vec![vec![Value::Int(2)], vec![Value::Int(7)]];
    let rows = p.execute(s, own, &as_user(1)).unwrap();
    assert_eq!(rows.rows().unwrap().rows, mine, "an equal value passes");
    let before = p.stats();
    match p.execute(s, own, &as_user(2)) {
        Ok(ProxyResponse::Blocked(DenyReason::ParseError(_))) => {}
        other => panic!("user 1 must not read as user 2, got {other:?}"),
    }
    let after = p.stats();
    assert_eq!(after.blocked, before.blocked + 1);
    assert_eq!(after.template_cache_hits, before.template_cache_hits);
    let last = p.journal().events_since(p.journal().published() - 1, 1)[0];
    assert_eq!(last.tier, CacheTier::Uncached);
    let twice = vec![
        ("MyUId".to_string(), Value::Int(1)),
        ("MyUId".to_string(), Value::Int(2)),
    ];
    let s = p.begin_session(twice);
    let rows = p.execute(s, own, &[]).unwrap();
    assert_eq!(rows.rows().unwrap().rows, mine, "the first binding holds");
}

/// A certificate a proof learned on one disjunct is kept even when another
/// disjunct of the same statement blocks it: the plan learns from the proof,
/// whatever the verdict. User 1 knows only that it attends event 2, so the
/// union over events 2 and 7 proves its first disjunct by search, learns
/// that certificate, and is blocked on the second; the next statement by
/// the same plan replays the certificate instead of searching again.
#[test]
fn a_certificate_learned_before_a_block_is_replayed() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?e";
    let e2 = [("e".to_string(), Value::Int(2))];
    assert_eq!(p.execute(s, probe, &e2).unwrap().rows().unwrap().len(), 1);
    let union = "SELECT Title FROM Events WHERE EId IN (?a, ?b)";
    let last = || p.journal().events_since(p.journal().published() - 1, 1)[0];
    let pair = |a: i64, b: i64| {
        [
            ("a".to_string(), Value::Int(a)),
            ("b".into(), Value::Int(b)),
        ]
    };
    match p.execute(s, union, &pair(2, 7)) {
        Ok(ProxyResponse::Blocked(DenyReason::NotDetermined { .. })) => {}
        other => panic!("event 7 is not known to user 1 yet, got {other:?}"),
    }
    let blocked = last().span;
    assert_eq!((blocked.cert_replays, blocked.cert_fallbacks), (0, 2));
    let rows = p.execute(s, union, &pair(2, 2)).unwrap();
    assert_eq!(rows.rows().unwrap().len(), 1);
    let allowed = last();
    assert_eq!(allowed.tier, CacheTier::ConcreteProof);
    assert_eq!(
        (allowed.span.cert_replays, allowed.span.cert_fallbacks),
        (1, 1),
        "the first disjunct replays what the blocked statement learned"
    );
}

/// The calendar policy (`V1`, `V2`) with `enforce_writes` on, over events
/// 2 and 7, both attended by user 1.
fn calendar_with_writes() -> SqlProxy {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
         (7, 'offsite', 'work')",
    )
    .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (1, 7, NULL)")
        .unwrap();
    let schema = schema_of_database(&db);
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
    let config = ProxyConfig {
        enforce_writes: true,
        ..Default::default()
    };
    SqlProxy::new(db, ComplianceChecker::new(schema, policy), config)
}

const USER_1: fn() -> Vec<(String, Value)> = || vec![("MyUId".into(), Value::Int(1))];

/// Who deletes user 1's attendance of event 2 in the revocation probe.
#[derive(Debug, Clone, Copy)]
enum Deleter {
    AnotherSession,
    TheReadingSession,
    Unchecked,
}

/// A session's trace outlived the rows it witnessed: after user 1's
/// attendance of event 2 was deleted, a session that had read it still
/// read the event, and then a title written after its access was revoked.
/// A write revokes what every session knew about its table, whoever runs
/// it, so both reads are blocked, and so is an allow the session's cache
/// remembered from before the write.
#[test]
fn a_write_revokes_what_the_trace_knew() {
    const DELETE: &str = "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 2";
    const FETCH: &str = "SELECT * FROM Events WHERE EId = 2";
    // Empty, so it records nothing: allowed only by the attendance fact,
    // then by the allow cache.
    const NOT_FUN: &str = "SELECT * FROM Events WHERE EId = 2 AND Kind = 'fun'";
    for deleter in [
        Deleter::AnotherSession,
        Deleter::TheReadingSession,
        Deleter::Unchecked,
    ] {
        let p = calendar_with_writes();
        let blocked = |s: u64, sql: &str| {
            let response = p.execute(s, sql, &[]).unwrap();
            assert!(
                matches!(response, ProxyResponse::Blocked(_)),
                "{deleter:?}: `{sql}` must be blocked, got {response:?}"
            );
        };
        // 1. Session A learns that user 1 attends event 2.
        let a = p.begin_session(USER_1());
        let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        assert_eq!(p.execute(a, probe, &[]).unwrap().rows().unwrap().len(), 1);
        for _ in 0..2 {
            let response = p.execute(a, NOT_FUN, &[]).unwrap();
            assert!(response.rows().unwrap().is_empty(), "{response:?}");
        }
        assert_eq!(p.stats().session_cache_hits, 1, "the repeat is remembered");
        // 2. The attendance row goes.
        let deleted = match deleter {
            Deleter::AnotherSession => {
                let b = p.begin_session(USER_1());
                p.execute(b, DELETE, &[]).unwrap()
            }
            Deleter::TheReadingSession => p.execute(a, DELETE, &[]).unwrap(),
            Deleter::Unchecked => p.execute_unchecked(DELETE, &USER_1()).unwrap(),
        };
        assert_eq!(deleted, ProxyResponse::Affected(1), "{deleter:?}");
        // 3. A fresh session of user 1 may not read the event...
        blocked(p.begin_session(USER_1()), FETCH);
        // 4. ...and neither may session A, nor replay its remembered allow.
        blocked(a, FETCH);
        blocked(a, NOT_FUN);
        // 5. Nor may it read a title written after its access was revoked.
        let retitle = "UPDATE Events SET Title = 'layoffs' WHERE EId = 2";
        assert_eq!(
            p.execute_unchecked(retitle, &[]).unwrap(),
            ProxyResponse::Affected(1)
        );
        blocked(a, "SELECT Title FROM Events WHERE EId = 2");
    }
}

/// Revocation drops a session's trace entries with its facts: otherwise
/// re-reading a row that survived the write would be an exact repeat, a
/// no-op, and its fact would never come back.
#[test]
fn a_read_that_still_holds_restores_its_fact() {
    let p = calendar_with_writes();
    let a = p.begin_session(USER_1());
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 7";
    // Empty, so it records nothing: allowed only by the attendance fact.
    let not_fun = "SELECT * FROM Events WHERE EId = 7 AND Kind = 'fun'";
    assert_eq!(p.execute(a, probe, &[]).unwrap().rows().unwrap().len(), 1);
    assert!(p.execute(a, not_fun, &[]).unwrap().is_allowed());
    // Another session deletes user 1's attendance of event 2. The
    // attendance of event 7 still holds, but revocation is coarse: every
    // Attendance fact of session A goes.
    let b = p.begin_session(USER_1());
    assert_eq!(
        p.execute(
            b,
            "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 2",
            &[]
        )
        .unwrap(),
        ProxyResponse::Affected(1)
    );
    assert!(!p.execute(a, not_fun, &[]).unwrap().is_allowed());
    // The same probe, read again, is news and restores the fact.
    assert_eq!(p.execute(a, probe, &[]).unwrap().rows().unwrap().len(), 1);
    assert!(p.execute(a, not_fun, &[]).unwrap().is_allowed());
}

/// A write revokes only what it could have falsified: another session's
/// `DELETE` that matches no row changed nothing, so session A keeps its
/// attendance fact, and its first read of the event, which rests on that
/// fact alone, is allowed.
#[test]
fn a_write_that_changed_no_row_revokes_nothing() {
    let p = calendar_with_writes();
    let a = p.begin_session(USER_1());
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
    assert_eq!(p.execute(a, probe, &[]).unwrap().rows().unwrap().len(), 1);
    let b = p.begin_session(USER_1());
    let nothing = "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 5";
    assert_eq!(
        p.execute(b, nothing, &[]).unwrap(),
        ProxyResponse::Affected(0)
    );
    let fetch = p
        .execute(a, "SELECT * FROM Events WHERE EId = 2", &[])
        .unwrap();
    assert_eq!(fetch.rows().map(|r| r.len()), Some(1), "{fetch:?}");
}

/// Compaction drops a fact only when the facts it keeps imply it. User 1's
/// read of the titles of the events it attends witnesses, per row, an
/// event and an attendance tied by one unknown event id. That attendance
/// maps onto the known `Attendance(1, 2, _)` only if its event id moves,
/// and the event it is tied to holds it in place, so it is not implied and
/// stays: that someone attends an event titled 'offsite' follows from the
/// trace.
#[test]
fn a_fact_tied_to_another_by_an_unknown_is_not_implied() {
    let p = calendar_with_writes();
    let s = p.begin_session(USER_1());
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
    assert_eq!(p.execute(s, probe, &[]).unwrap().rows().unwrap().len(), 1);
    let titles = "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId \
                  WHERE a.UId = ?MyUId";
    assert_eq!(p.execute(s, titles, &[]).unwrap().rows().unwrap().len(), 2);
    let anyone = "SELECT 1 FROM Events e JOIN Attendance a ON e.EId = a.EId \
                  WHERE e.Title = 'offsite'";
    assert!(p.execute(s, anyone, &[]).unwrap().is_allowed());
}

/// A request binding that neither the statement nor a policy view reads
/// does not split the allow cache: the repeat with an extra binding is a
/// hit, not a second proof.
#[test]
fn a_binding_nothing_reads_shares_the_cached_allow() {
    let p = calendar_with_own_rows();
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?e";
    let e2 = [("e".to_string(), Value::Int(2))];
    assert_eq!(p.execute(s, probe, &e2).unwrap().rows().unwrap().len(), 1);
    let fetch = "SELECT * FROM Events WHERE EId = ?e";
    assert!(p.execute(s, fetch, &e2).unwrap().is_allowed());
    let before = p.stats();
    assert_eq!(
        before.concrete_proofs, 1,
        "the fetch reached the concrete tier"
    );
    let padded = [e2[0].clone(), ("unused".to_string(), Value::str("x"))];
    assert!(p.execute(s, fetch, &padded).unwrap().is_allowed());
    let after = p.stats();
    assert_eq!(after.session_cache_hits, before.session_cache_hits + 1);
    assert_eq!(after.concrete_proofs, before.concrete_proofs);
}

/// A view parameter the session leaves unbound is read from the request,
/// so its value keys the cached verdict: the statement below is `VK`
/// itself when `?Kind` and `?k` agree, and is not determined by the view
/// of another kind's events.
#[test]
fn a_request_bound_view_parameter_keys_the_cached_verdict() {
    let (db, _) = calendar_with_own_rows_parts();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[("VK", "SELECT EId, Title FROM Events WHERE Kind = ?Kind")],
    )
    .unwrap();
    let p = SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    );
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let of_kind = "SELECT EId, Title FROM Events WHERE Kind = ?k";
    let with_view = |kind: &str| {
        [
            ("k".to_string(), Value::str("work")),
            ("Kind".to_string(), Value::str(kind)),
        ]
    };
    let rows = p.execute(s, of_kind, &with_view("work")).unwrap();
    assert_eq!(rows.rows().unwrap().len(), 2);
    assert_eq!(p.stats().concrete_proofs, 1);
    match p.execute(s, of_kind, &with_view("fun")) {
        Ok(ProxyResponse::Blocked(DenyReason::NotDetermined { .. })) => {}
        other => panic!("the 'fun' view does not reveal 'work' events, got {other:?}"),
    }
}

/// `LIMIT` without an `ORDER BY` returns whichever rows the store meets
/// first, so its answer depends on insertion order, which no set-valued
/// view determines: the statement is out of the fragment.
#[test]
fn a_limit_is_out_of_fragment() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
         (1, 'party', 'fun')",
    )
    .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(&schema, &[("V5", "SELECT EId FROM Events")]).unwrap();
    let p = SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    );
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    assert!(p
        .execute(s, "SELECT EId FROM Events", &[])
        .unwrap()
        .is_allowed());
    match p.execute(s, "SELECT EId FROM Events LIMIT 1", &[]) {
        Ok(ProxyResponse::Blocked(DenyReason::OutOfFragment(_))) => {}
        other => panic!("a LIMIT must be out of fragment, got {other:?}"),
    }
}
