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
    p.with_database(|db| {
        db.query_sql("SELECT UId, EId, Notes FROM Attendance ORDER BY UId, EId")
            .unwrap()
            .rows
    })
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
    let events = || p.with_database(|db| db.query_sql("SELECT EId FROM Events").unwrap().rows);
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
/// template hash equals another template's. The plan cache chains texts by
/// hash and tells them apart by comparing them, so a text is never decided
/// (or run) by the plan of another on its hash. Here a plan for user 1's
/// own rows sits under the hash of a read of every row.
#[test]
fn a_text_on_another_templates_hash_keeps_its_own_plan() {
    let (db, checker) = calendar_with_own_rows_parts();
    let p = SqlProxy::new(db, checker.clone(), ProxyConfig::default());
    let everyone = "SELECT * FROM Attendance";
    let own = "SELECT * FROM Attendance WHERE UId = ?MyUId";
    let hash = template_hash(everyone);
    let (planted, built) = p.with_plan_cache(|plans| {
        plans.get_or_compile(hash, own, || {
            beyond_enforcement::core::compile_plan(&checker, own, hash, true, &mut |_| {})
        })
    });
    assert!(built);
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    match p.execute(s, everyone, &[]) {
        Ok(ProxyResponse::Blocked(_)) => {}
        other => panic!("reading every row must be blocked, got {other:?}"),
    }
    p.with_plan_cache(|plans| {
        assert_eq!(plans.len(), 2, "each text has a plan of its own");
        let found = plans.get_hashed(hash, own).expect("still cached");
        assert!(std::sync::Arc::ptr_eq(&found, &planted));
        assert_eq!(plans.get_hashed(hash, everyone).unwrap().sql(), everyone);
    });
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
