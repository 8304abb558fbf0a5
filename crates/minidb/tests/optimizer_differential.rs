//! Differential gate for the optimized executor: index probes, join
//! ordering, and predicate pushdown must produce *identical* results
//! (including row order) to the naive nested-loop + single-pass-WHERE
//! evaluator. Its parameters leg holds a statement run with its parameters
//! read in place ([`Database::query_with`], [`Database::execute_with`]) to
//! the statement `sqlir::bind_statement` makes of it.

use minidb::exec::{execute_query, execute_query_naive};
use minidb::{Database, DbError, ExecResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlir::{
    bind_statement, parse_query, parse_statement, Expr, Param, ParamBindings, Query, SelectItem,
    Statement, Value,
};

/// A three-table schema exercising joins, NULLs, and duplicate column names
/// (`Name` exists in two tables, so unqualified references are ambiguous).
fn seeded_db(seed: u64, users: i64, posts_per_user: i64) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL, Age INT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Posts (PId INT PRIMARY KEY, AuthorId INT, \
         Title TEXT NOT NULL, Score INT, FOREIGN KEY (AuthorId) REFERENCES Users (UId))",
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE Follows (FollowerId INT, FolloweeId INT, Name TEXT, \
         FOREIGN KEY (FollowerId) REFERENCES Users (UId), \
         FOREIGN KEY (FolloweeId) REFERENCES Users (UId))",
    )
    .unwrap();
    for u in 0..users {
        let age = if rng.gen_bool(0.2) {
            "NULL".to_string()
        } else {
            format!("{}", rng.gen_range(18..80))
        };
        db.execute_sql(&format!(
            "INSERT INTO Users (UId, Name, Age) VALUES ({u}, 'user{u}', {age})"
        ))
        .unwrap();
        for k in 0..posts_per_user {
            let pid = u * posts_per_user + k;
            let author = if rng.gen_bool(0.1) {
                "NULL".to_string()
            } else {
                format!("{u}")
            };
            let score = rng.gen_range(0..10);
            db.execute_sql(&format!(
                "INSERT INTO Posts (PId, AuthorId, Title, Score) \
                 VALUES ({pid}, {author}, 'post{pid}', {score})"
            ))
            .unwrap();
        }
    }
    for _ in 0..users * 2 {
        let a = rng.gen_range(0..users);
        let b = rng.gen_range(0..users);
        db.execute_sql(&format!(
            "INSERT INTO Follows (FollowerId, FolloweeId, Name) VALUES ({a}, {b}, 'edge')"
        ))
        .unwrap();
    }
    db
}

/// Random SELECTs over the seeded schema: single-table probes, two- and
/// three-way equi-joins, pushdown-eligible and residual (fallible) WHERE
/// conjuncts, DISTINCT, ORDER BY, LIMIT, aggregates — and, from shape 10
/// on, joins whose cheapest stage is *not* the first written, in forms
/// that observe row order (no ORDER BY, or a LIMIT cutting the unordered
/// result), so a reordered join that failed to restore nested-loop
/// emission order diverges here. Shapes 20 on put literals where a
/// parameter is read differently from a literal in a `WHERE`: the select
/// list (its output name), an `IN` list, `BETWEEN`, `LIKE`, `ORDER BY`,
/// and a correlated subquery.
fn random_query(rng: &mut SmallRng, users: i64) -> String {
    let uid = rng.gen_range(0..users + 2); // sometimes misses
    let score = rng.gen_range(0..12);
    let other = rng.gen_range(0..12);
    let shape = rng.gen_range(0..26);
    match shape {
        0 => format!("SELECT UId, Users.Name FROM Users WHERE UId = {uid}"),
        1 => format!(
            "SELECT PId, Title FROM Posts WHERE AuthorId = {uid} AND Score >= {score} \
             ORDER BY PId"
        ),
        2 => format!(
            "SELECT u.Name, p.Title FROM Users u JOIN Posts p ON u.UId = p.AuthorId \
             WHERE u.UId = {uid}"
        ),
        3 => format!(
            "SELECT u.Name, p.Title FROM Users u, Posts p \
             WHERE u.UId = p.AuthorId AND p.Score > {score}"
        ),
        4 => format!(
            "SELECT f.FolloweeId, u.Name FROM Follows f \
             JOIN Users u ON f.FolloweeId = u.UId WHERE f.FollowerId = {uid}"
        ),
        5 => format!(
            "SELECT u.Name, p2.Title FROM Users u \
             JOIN Follows f ON u.UId = f.FollowerId \
             JOIN Posts p2 ON f.FolloweeId = p2.AuthorId \
             WHERE u.UId = {uid} ORDER BY p2.PId LIMIT 5"
        ),
        6 => format!(
            "SELECT DISTINCT AuthorId FROM Posts WHERE Score >= {score} OR AuthorId = {uid}"
        ),
        7 => format!(
            "SELECT COUNT(*) FROM Posts p JOIN Users u ON p.AuthorId = u.UId \
             WHERE u.Age IS NOT NULL AND p.Score < {score}"
        ),
        // Residual-only shapes: arithmetic (fallible, never pushed) and a
        // correlated subquery.
        8 => format!("SELECT PId FROM Posts WHERE Score + 1 > {score} AND AuthorId = {uid}"),
        9 => format!(
            "SELECT u.UId FROM Users u WHERE EXISTS \
             (SELECT 1 FROM Posts p WHERE p.AuthorId = u.UId AND p.Score > {score})"
        ),
        // The big table written first, the only literal filter on the last
        // stage (review's `my_papers`).
        10 => format!(
            "SELECT p.PId, p.Title FROM Posts p JOIN Users u ON p.AuthorId = u.UId \
             WHERE u.UId = {uid}"
        ),
        // Three-way: the last ON reads the non-adjacent first stage, the
        // literal is on the middle one.
        11 => format!(
            "SELECT p.PId, f.FollowerId, u.Name FROM Posts p \
             JOIN Follows f ON f.FolloweeId = p.AuthorId \
             JOIN Users u ON u.UId = p.AuthorId WHERE f.FollowerId = {uid}"
        ),
        // Three-way with the literal on the last stage and a LIMIT cutting
        // the unordered result.
        12 => format!(
            "SELECT p.PId, f.FolloweeId FROM Posts p \
             JOIN Users u ON p.AuthorId = u.UId \
             JOIN Follows f ON f.FollowerId = u.UId \
             WHERE f.FolloweeId = {uid} LIMIT 4"
        ),
        // Comma joins: the equi-joins live in WHERE.
        13 => format!(
            "SELECT p.PId, u.Name, f.FolloweeId FROM Posts p, Users u, Follows f \
             WHERE p.AuthorId = u.UId AND f.FollowerId = u.UId AND f.FolloweeId = {uid}"
        ),
        // Duplicate and NULL join keys on both sides (`Age` repeats and is
        // NULL for a fifth of the users).
        14 => format!(
            "SELECT a.UId, b.UId FROM Users a JOIN Users b ON a.Age = b.Age \
             WHERE b.UId = {uid}"
        ),
        // Duplicate edges in `Follows`, no literal at all: the smaller
        // table leads, LIMIT without ORDER BY.
        15 => "SELECT p.PId, f.FollowerId FROM Posts p \
               JOIN Follows f ON f.FolloweeId = p.AuthorId LIMIT 7"
            .to_string(),
        // A fallible residual beside pushed conjuncts.
        16 => format!(
            "SELECT p.PId, u.Name FROM Posts p JOIN Users u ON p.AuthorId = u.UId \
             WHERE p.Score + 0 >= 0 AND u.UId = {uid} AND p.Score < {score}"
        ),
        // A cross product with a filter on each side, smaller side last.
        17 => format!(
            "SELECT p.PId, u.UId FROM Posts p, Users u \
             WHERE p.Score = {score} AND u.UId = {uid} LIMIT 5"
        ),
        // A fallible ON pins the written order; pushdown still applies.
        18 => format!(
            "SELECT p.PId, u.Name FROM Posts p JOIN Users u ON p.AuthorId + 0 = u.UId \
             WHERE u.UId = {uid}"
        ),
        // A residual that errors, with the row it met first in the message
        // (`Title` is text): both paths must fail on the same row.
        19 => format!(
            "SELECT p.PId FROM Posts p JOIN Users u ON p.AuthorId = u.UId \
             WHERE u.UId = {uid} AND p.Title + 1 > 0"
        ),
        // Output names printed from expressions.
        20 => format!("SELECT UId, {score} + 1, 'tag' FROM Users WHERE UId = {uid}"),
        21 => format!(
            "SELECT PId, Score FROM Posts WHERE Score IN ({score}, {other}, NULL) \
             AND AuthorId <> {uid}"
        ),
        22 => format!(
            "SELECT PId FROM Posts WHERE Score BETWEEN {score} AND {other} \
             ORDER BY PId DESC LIMIT 6"
        ),
        23 => format!("SELECT Name FROM Users WHERE Name LIKE 'user{score}%' AND Age > {other}"),
        24 => format!(
            "SELECT PId, Score FROM Posts WHERE AuthorId = {uid} \
             ORDER BY Score * {} DESC, PId + {score}",
            other % 3 + 1
        ),
        _ => format!(
            "SELECT u.UId, u.Name FROM Users u WHERE u.UId IN \
             (SELECT p.AuthorId FROM Posts p WHERE p.AuthorId = u.UId \
              AND p.Score BETWEEN {score} AND {other}) AND u.UId < {uid}"
        ),
    }
}

/// Random row mutations over the seeded schema. Most succeed; the rest run
/// into a primary key, a foreign key (either direction) or a `NOT NULL`
/// column.
fn random_write(rng: &mut SmallRng, users: i64, posts: i64) -> String {
    let uid = rng.gen_range(0..users + 3);
    let other = rng.gen_range(0..users + 3);
    let pid = rng.gen_range(0..posts + 40);
    let score = rng.gen_range(0..12);
    let text = match rng.gen_range(0..6) {
        0 => "NULL".to_string(),
        k => format!("'t{k}'"),
    };
    match rng.gen_range(0..9) {
        0 => format!(
            "INSERT INTO Posts (PId, AuthorId, Title, Score) VALUES ({pid}, {uid}, {text}, {score})"
        ),
        1 => format!(
            "INSERT INTO Users (UId, Name, Age) VALUES ({}, 'n{uid}', {score}), ({}, {text}, NULL)",
            uid + users,
            other + 2 * users
        ),
        2 => format!(
            "UPDATE Posts SET Score = Score + {score}, Title = 'u{score}' \
             WHERE AuthorId = {uid} AND Score < {}",
            score + 3
        ),
        3 => format!("UPDATE Posts SET AuthorId = {uid} WHERE PId = {pid}"),
        4 => format!("UPDATE Users SET UId = {} WHERE UId = {uid}", other + users),
        5 => format!("UPDATE Users SET Name = {text}, Age = {score} WHERE UId = {uid}"),
        6 => format!("DELETE FROM Posts WHERE AuthorId = {uid} AND Score >= {score}"),
        7 => format!("DELETE FROM Users WHERE UId = {uid}"),
        _ => format!("DELETE FROM Follows WHERE FollowerId = {uid} OR FolloweeId IN ({other}, 1)"),
    }
}

/// Replaces each literal of `e` (subqueries included) by a fresh named
/// parameter with probability 1/2, binding it to the literal's value.
fn lift_expr(e: &mut Expr, rng: &mut SmallRng, bindings: &mut Vec<(String, Value)>) {
    let mut lift = |e: &mut Expr| lift_expr(e, rng, bindings);
    match e {
        Expr::Literal(v) => {
            if rng.gen_bool(0.5) {
                let name = format!("p{}", bindings.len());
                bindings.push((name.clone(), v.clone()));
                *e = Expr::Param(Param::Named(name));
            }
        }
        Expr::Param(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => lift(expr),
        Expr::Binary { lhs, rhs, .. } => {
            lift(lhs);
            lift(rhs);
        }
        Expr::InList { expr, list, .. } => {
            lift(expr);
            list.iter_mut().for_each(lift);
        }
        Expr::InSubquery { expr, query, .. } => {
            lift(expr);
            lift_query(query, rng, bindings);
        }
        Expr::Exists { query, .. } => lift_query(query, rng, bindings),
        Expr::Between {
            expr, low, high, ..
        } => {
            lift(expr);
            lift(low);
            lift(high);
        }
        Expr::Like { expr, pattern, .. } => {
            lift(expr);
            lift(pattern);
        }
        Expr::Agg { arg, .. } => arg.iter_mut().for_each(|a| lift(a)),
    }
}

fn lift_query(q: &mut Query, rng: &mut SmallRng, bindings: &mut Vec<(String, Value)>) {
    let mut lift = |e: &mut Expr| lift_expr(e, rng, bindings);
    for item in &mut q.items {
        if let SelectItem::Expr { expr, .. } = item {
            lift(expr);
        }
    }
    q.joins.iter_mut().for_each(|j| lift(&mut j.on));
    q.where_clause.iter_mut().for_each(&mut lift);
    q.group_by.iter_mut().for_each(&mut lift);
    q.having.iter_mut().for_each(&mut lift);
    q.order_by.iter_mut().for_each(|k| lift(&mut k.expr));
}

/// Lifts a random subset of a statement's literals to parameters; returns
/// their bindings.
fn lift_statement(stmt: &mut Statement, rng: &mut SmallRng) -> Vec<(String, Value)> {
    let mut bindings = Vec::new();
    let mut lift = |e: &mut Expr| lift_expr(e, rng, &mut bindings);
    match stmt {
        Statement::Select(q) => lift_query(q, rng, &mut bindings),
        Statement::Insert(ins) => ins.rows.iter_mut().flatten().for_each(lift),
        Statement::Update(u) => {
            u.assignments.iter_mut().for_each(|a| lift(&mut a.value));
            u.where_clause.iter_mut().for_each(lift);
        }
        Statement::Delete(d) => d.where_clause.iter_mut().for_each(lift),
        Statement::CreateTable(_) => {}
    }
    bindings
}

/// The reference: the statement `bind_statement` makes.
fn bound(stmt: &Statement, bindings: &[(String, Value)]) -> Statement {
    let mut pb = ParamBindings::new();
    for (k, v) in bindings {
        pb.set(k.clone(), v.clone());
    }
    bind_statement(stmt, &pb).expect("every lifted literal is bound")
}

/// Release-sized (about six seconds there); a debug build runs a tenth.
const CASES: usize = if cfg!(debug_assertions) { 400 } else { 4000 };

#[test]
fn optimized_matches_naive_on_random_queries() {
    let users = 17;
    let db = seeded_db(0xBEEF, users, 3);
    let mut rng = SmallRng::seed_from_u64(42);
    for i in 0..CASES {
        let sql = random_query(&mut rng, users);
        let q = parse_query(&sql).unwrap();
        let fast = execute_query(&db, &q);
        let slow = execute_query_naive(&db, &q);
        match (fast, slow) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "query #{i} diverged: {sql}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "query #{i} failed differently: {sql}"),
            (a, b) => panic!("query #{i} result kinds diverged: {sql}\n{a:?}\nvs\n{b:?}"),
        }
    }
}

/// Inner joins commute: however the `FROM` list is permuted, the result is
/// the same *multiset* of rows (only its order is the written order's).
#[test]
fn permuting_the_from_list_keeps_the_result_multiset() {
    let users = 17;
    let db = seeded_db(0xF00D, users, 3);
    let tables = ["Users u", "Posts p", "Follows f"];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..CASES / 20 {
        let uid = rng.gen_range(0..users + 1);
        let filter = match rng.gen_range(0..3) {
            0 => format!("u.UId = {uid}"),
            1 => format!("f.FolloweeId = {uid}"),
            _ => format!("p.Score < {}", rng.gen_range(0..6)),
        };
        let results: Vec<Vec<Vec<sqlir::Value>>> = orders
            .iter()
            .map(|order| {
                let from: Vec<&str> = order.iter().map(|&t| tables[t]).collect();
                let sql = format!(
                    "SELECT u.UId, p.PId, f.FolloweeId FROM {} \
                     WHERE p.AuthorId = u.UId AND f.FollowerId = u.UId AND {filter}",
                    from.join(", ")
                );
                let q = parse_query(&sql).unwrap();
                let fast = execute_query(&db, &q).unwrap();
                assert_eq!(fast, execute_query_naive(&db, &q).unwrap(), "{sql}");
                let mut rows = fast.rows;
                rows.sort();
                rows
            })
            .collect();
        assert!(
            results.iter().all(|rows| *rows == results[0]),
            "permuting FROM changed the rows under `{filter}`"
        );
    }
}

#[test]
fn pushdown_preserves_ambiguity_errors() {
    let db = seeded_db(1, 5, 2);
    // `Name` exists in both Users and Follows: unqualified use is ambiguous
    // and must error identically on both paths.
    let q = parse_query(
        "SELECT u.UId FROM Users u JOIN Follows f ON u.UId = f.FollowerId WHERE Name = 'edge'",
    )
    .unwrap();
    let fast = execute_query(&db, &q);
    let slow = execute_query_naive(&db, &q);
    assert!(fast.is_err(), "ambiguous column must error");
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
}

/// A query with a random subset of its literals lifted to parameters and
/// run with their values in place answers as the bound query does:
/// columns (output names included), rows, row order, and the error of a
/// failing run.
#[test]
fn parameters_in_place_match_the_bound_statement() {
    let users = 17;
    let db = seeded_db(0xBEEF, users, 3);
    let mut rng = SmallRng::seed_from_u64(43);
    let mut lifted = 0;
    for i in 0..CASES {
        let sql = random_query(&mut rng, users);
        let mut stmt = parse_statement(&sql).unwrap();
        let params = lift_statement(&mut stmt, &mut rng);
        lifted += params.len();
        let (Statement::Select(q), Statement::Select(reference)) = (&stmt, bound(&stmt, &params))
        else {
            unreachable!("a query stays a query")
        };
        match (db.query_with(q, &params), execute_query(&db, &reference)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "query #{i} diverged: {stmt} with {params:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "query #{i} failed differently: {stmt}"),
            (a, b) => panic!("query #{i} result kinds diverged: {stmt}\n{a:?}\nvs\n{b:?}"),
        }
    }
    assert!(
        lifted > CASES / 2,
        "{lifted} parameters over {CASES} queries"
    );
}

/// Writes with a random subset of their literals lifted to parameters, run
/// in place on one database and bound on a clone of it, leave the two
/// identical after every statement: the same affected count or the same
/// error, and the same rows in the same order. `Posts` spans two row
/// chunks, so updates and deletes cross a chunk boundary.
#[test]
fn parameterised_writes_match_the_bound_statement() {
    let (users, posts_per_user) = (40, 30);
    let mut in_place = seeded_db(0xCAFE, users, posts_per_user);
    let mut reference = in_place.clone();
    let mut rng = SmallRng::seed_from_u64(44);
    let (mut affected, mut unique, mut foreign, mut null) = (0, 0, 0, 0);
    for i in 0..CASES / 4 {
        let sql = random_write(&mut rng, users, users * posts_per_user);
        let mut stmt = parse_statement(&sql).unwrap();
        let params = lift_statement(&mut stmt, &mut rng);
        let a = in_place.execute_with(&stmt, &params);
        let b = reference.execute(&bound(&stmt, &params));
        assert_eq!(a, b, "write #{i} diverged: {stmt} with {params:?}");
        match a {
            Ok(ExecResult::Affected(n)) => affected += n,
            Err(DbError::UniqueViolation { .. }) => unique += 1,
            Err(DbError::ForeignKeyViolation { .. }) => foreign += 1,
            Err(DbError::NullViolation(_)) => null += 1,
            other => panic!("write #{i}: {stmt} gave {other:?}"),
        }
        for table in ["Users", "Posts", "Follows"] {
            let all = format!("SELECT * FROM {table}");
            let rows = |db: &Database| db.query_sql(&all).unwrap();
            assert_eq!(rows(&in_place), rows(&reference), "write #{i}: {stmt}");
        }
    }
    let outcomes = [affected, unique, foreign, null];
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
}

#[test]
fn mutation_invalidates_index_results() {
    let mut db = seeded_db(2, 8, 2);
    let sql = "SELECT PId FROM Posts WHERE AuthorId = 3 ORDER BY PId";
    // Warm the index.
    let before = db.query_sql(sql).unwrap();
    assert!(!before.is_empty());
    db.execute_sql("DELETE FROM Posts WHERE AuthorId = 3")
        .unwrap();
    assert!(db.query_sql(sql).unwrap().is_empty());
    db.execute_sql("INSERT INTO Posts (PId, AuthorId, Title, Score) VALUES (900, 3, 'new', 1)")
        .unwrap();
    let after = db.query_sql(sql).unwrap();
    assert_eq!(after.rows.len(), 1);
    assert_eq!(after.rows[0][0], sqlir::Value::Int(900));
}
