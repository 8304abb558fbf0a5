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

/// A column named twice in an `INSERT` column list or an `UPDATE` `SET`
/// list is refused at parse time. Write coverage reads the first value and
/// the store keeps the last, so before the refusal a session of user 1 wrote
/// rows owned by user 2 under a policy that admits only its own rows.
#[test]
fn a_column_named_twice_is_blocked_and_writes_nothing() {
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
    let config = ProxyConfig {
        enforce_writes: true,
        ..Default::default()
    };
    let p = SqlProxy::new(db, ComplianceChecker::new(schema, policy), config);
    let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let attendance = || {
        p.with_database(|db| {
            db.query_sql("SELECT UId, EId, Notes FROM Attendance ORDER BY UId, EId")
                .unwrap()
                .rows
        })
    };
    let before = attendance();

    for sql in [
        "INSERT INTO Attendance (UId, EId, Notes, UId) VALUES (?MyUId, 9, 'sneaky', 2)",
        "UPDATE Attendance SET UId = ?MyUId, UId = 2 WHERE UId = ?MyUId AND EId = 7",
    ] {
        match p.execute(s, sql, &[]) {
            Ok(ProxyResponse::Blocked(DenyReason::ParseError(_))) => {}
            other => panic!("{sql:?} must be Blocked(ParseError), got {other:?}"),
        }
        assert_eq!(attendance(), before, "{sql:?} changed the table");
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
