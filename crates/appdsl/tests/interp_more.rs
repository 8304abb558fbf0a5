//! Additional interpreter behaviour tests: control flow, scoping, blocked
//! propagation through every statement form, and error taxonomy.

use appdsl::{
    parse_handler, run_handler, DslError, Emitted, IssuedQuery, Limits, Outcome, PortOutcome,
    QueryPort,
};
use minidb::Database;
use sqlir::Value;

fn db() -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE T (k INT PRIMARY KEY, v INT)")
        .unwrap();
    db.execute_sql("INSERT INTO T (k, v) VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    db
}

#[test]
fn else_if_chains_select_correct_branch() {
    let h = parse_handler(
        r#"
        handler classify(x) {
            if params.x == 1 {
                emit "one";
            } else if params.x == 2 {
                emit "two";
            } else {
                emit "many";
            }
        }
        "#,
    )
    .unwrap();
    for (x, expected) in [(1, "one"), (2, "two"), (7, "many")] {
        let mut db = db();
        let r = run_handler(
            &mut db,
            &h,
            &[],
            &[("x".into(), Value::Int(x))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(r.emitted, vec![Emitted::Scalar(Value::str(expected))]);
    }
}

#[test]
fn let_rebinding_shadows() {
    let h = parse_handler(
        r#"
        handler f() {
            let x = 1;
            let x = 2;
            emit x;
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    assert_eq!(r.emitted, vec![Emitted::Scalar(Value::Int(2))]);
}

#[test]
fn loop_variable_scoping_and_accumulation() {
    let h = parse_handler(
        r#"
        handler sum_like() {
            let rows = sql("SELECT v FROM T ORDER BY v");
            let last = 0;
            for r in rows {
                let last = r.v;
                emit last;
            }
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    assert_eq!(
        r.emitted,
        vec![
            Emitted::Scalar(Value::Int(10)),
            Emitted::Scalar(Value::Int(20)),
            Emitted::Scalar(Value::Int(30)),
        ]
    );
}

#[test]
fn return_inside_loop_stops_everything() {
    let h = parse_handler(
        r#"
        handler first() {
            let rows = sql("SELECT v FROM T ORDER BY v");
            for r in rows {
                emit r.v;
                return;
            }
            emit 999;
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    assert_eq!(r.emitted, vec![Emitted::Scalar(Value::Int(10))]);
    assert_eq!(r.outcome, Outcome::Ok);
}

#[test]
fn comparison_on_null_is_false() {
    let h = parse_handler(
        r#"
        handler f() {
            let rows = sql("SELECT v FROM T WHERE k = 999");
            if rows.first.v == 10 {
                emit "yes";
            } else {
                emit "no";
            }
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    // `rows.first.v` on an empty result is NULL; NULL == 10 is unknown,
    // which is falsy.
    assert_eq!(r.emitted, vec![Emitted::Scalar(Value::str("no"))]);
}

#[test]
fn kind_errors_are_reported() {
    let h = parse_handler(
        r#"
        handler f() {
            let x = 1;
            for r in x { emit 1; }
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let err = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap_err();
    assert!(matches!(err, DslError::Kind(_)));
}

#[test]
fn unknown_column_in_field_access() {
    let h = parse_handler(
        r#"
        handler f() {
            let rows = sql("SELECT v FROM T WHERE k = 1");
            emit rows.first.nope;
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let err = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap_err();
    assert!(matches!(err, DslError::Kind(_)));
}

/// A port that blocks everything: blocked-ness must propagate out of any
/// statement form (let, if-cond, for-source, emit, run).
struct BlockAll;

impl QueryPort for BlockAll {
    fn run(&mut self, _sql: &str, _bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        Ok(PortOutcome::Blocked("nope".into()))
    }
}

#[test]
fn blocked_propagates_from_every_position() {
    for src in [
        r#"handler f() { let x = sql("SELECT v FROM T"); }"#,
        r#"handler f() { if sql("SELECT v FROM T").is_empty() { emit 1; } }"#,
        r#"handler f() { for r in sql("SELECT v FROM T") { emit 1; } }"#,
        r#"handler f() { emit sql("SELECT v FROM T"); }"#,
        r#"handler f() { run sql("DELETE FROM T WHERE k = 1"); }"#,
    ] {
        let h = parse_handler(src).unwrap();
        let r = run_handler(&mut BlockAll, &h, &[], &[], Limits::default()).unwrap();
        assert!(
            matches!(r.outcome, Outcome::Blocked { .. }),
            "blocked must propagate from: {src}"
        );
    }
}

#[test]
fn emitted_scalar_from_count() {
    let h = parse_handler(
        r#"
        handler f() {
            let rows = sql("SELECT v FROM T WHERE v > 10");
            emit rows.count();
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    assert_eq!(r.emitted, vec![Emitted::Scalar(Value::Int(2))]);
    // The source query's emitted flag is set: its data reached the user.
    assert!(r.queries[0].emitted);
}

#[test]
fn boolean_operators_short_circuit_queries() {
    // The rhs query must not be issued when the lhs decides.
    let h = parse_handler(
        r#"
        handler f() {
            if true || sql("SELECT v FROM T").is_empty() {
                emit 1;
            }
        }
        "#,
    )
    .unwrap();
    let mut db = db();
    let r = run_handler(&mut db, &h, &[], &[], Limits::default()).unwrap();
    assert_eq!(r.queries.len(), 0, "short-circuit skipped the query");
    assert_eq!(r.emitted, vec![Emitted::Scalar(Value::Int(1))]);
}

#[test]
fn one_site_in_a_hundred_row_loop_binds_as_a_parse_per_issue_would() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Items (Id INT PRIMARY KEY, Owner INT, Tag TEXT)")
        .unwrap();
    for i in 0..100 {
        let tag = if i % 3 == 0 { "red" } else { "blue" };
        db.execute_sql(&format!(
            "INSERT INTO Items (Id, Owner, Tag) VALUES ({i}, 1, '{tag}')"
        ))
        .unwrap();
    }
    const ALL: &str = "SELECT Id FROM Items";
    const ONE: &str = "SELECT Id FROM Items WHERE Tag = ?tag AND Id = ?id AND Owner = ?MyUId";
    let h = parse_handler(&format!(
        r#"
        handler fan(tag) {{
            let rs = sql("{ALL}");
            for r in rs {{
                let id = r.Id;
                emit sql("{ONE}");
            }}
        }}
        "#
    ))
    .unwrap();
    let params = [("tag".to_string(), Value::str("red"))];
    let r = run_handler(
        &mut db,
        &h,
        &[("MyUId".to_string(), Value::Int(1))],
        &params,
        Limits::default(),
    )
    .unwrap();

    // The reference: parse the text at every issue and bind its sorted
    // named parameters, which is what `issue` did before sites existed.
    let issued = |sql: &str, id: Option<i64>, row_count: usize| {
        let stmt = sqlir::parse_statement(sql).unwrap();
        let mut named: Vec<String> = sqlir::params_in_bind_order(&stmt)
            .into_iter()
            .filter_map(|p| match p {
                sqlir::Param::Named(n) => Some(n),
                sqlir::Param::Positional(_) => None,
            })
            .collect();
        named.sort();
        let bindings = named
            .into_iter()
            .map(|name| {
                let v = match name.as_str() {
                    "MyUId" => Value::Int(1),
                    "id" => Value::Int(id.unwrap()),
                    "tag" => Value::str("red"),
                    other => panic!("unexpected parameter {other}"),
                };
                (name, v)
            })
            .collect();
        IssuedQuery {
            sql: sql.to_string(),
            bindings,
            row_count,
            emitted: id.is_some(),
        }
    };
    let mut expected = vec![issued(ALL, None, 100)];
    expected.extend((0..100).map(|i| issued(ONE, Some(i), usize::from(i % 3 == 0))));
    assert_eq!(r.queries, expected);
    assert_eq!(r.queries[1].bindings[0].0, "MyUId", "sorted by name");
    assert_eq!(r.emitted.len(), 100);
    assert_eq!(r.outcome, Outcome::Ok);
}

#[test]
fn malformed_sql_site_fails_when_issued_not_when_parsed() {
    let mut db = db();
    let h = parse_handler(
        r#"
        handler maybe_bad(go) {
            if params.go == 1 {
                emit sql("SELEKT 1 FRM T");
            }
            emit 0;
        }
        "#,
    )
    .expect("a bad SQL string is not a handler syntax error");
    let run = |db: &mut Database, go: i64| {
        let params = [("go".to_string(), Value::Int(go))];
        run_handler(
            db,
            &h,
            &[("MyUId".to_string(), Value::Int(1))],
            &params,
            Limits::default(),
        )
    };
    let skipped = run(&mut db, 0).unwrap();
    assert_eq!(skipped.emitted, vec![Emitted::Scalar(Value::Int(0))]);
    assert!(matches!(run(&mut db, 1), Err(DslError::Port(_))));
}
