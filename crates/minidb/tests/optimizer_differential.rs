//! Differential gate for the optimized executor: index probes, join
//! ordering, and predicate pushdown must produce *identical* results
//! (including row order) to the naive nested-loop + single-pass-WHERE
//! evaluator.

use minidb::exec::{execute_query, execute_query_naive};
use minidb::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlir::parse_query;

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
/// emission order diverges here.
fn random_query(rng: &mut SmallRng, users: i64) -> String {
    let uid = rng.gen_range(0..users + 2); // sometimes misses
    let score = rng.gen_range(0..12);
    let shape = rng.gen_range(0..20);
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
        _ => format!(
            "SELECT p.PId FROM Posts p JOIN Users u ON p.AuthorId = u.UId \
             WHERE u.UId = {uid} AND p.Title + 1 > 0"
        ),
    }
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
