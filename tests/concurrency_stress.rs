//! Concurrency stress tests for the shared (`&self`) proxy: session
//! isolation must survive parallel load, and the statistics must account
//! for every statement exactly once, in every snapshot.

use beyond_enforcement::prelude::*;
use minidb::Database;
use sqlir::Value;

fn calendar_db() -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), (3, 'party', 'fun')",
    )
    .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake')")
        .unwrap();
    db
}

fn calendar_proxy() -> SqlProxy {
    let db = calendar_db();
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
    SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    )
}

const PROBE_2: &str = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
const FETCH_2: &str = "SELECT * FROM Events WHERE EId = 2";

/// Sessions stay isolated under parallel load: user 1 attends event 2 and
/// unlocks its fetch via the probe, while user 2 (who does not attend)
/// hammers the same fetch from concurrent threads and must be blocked every
/// single time — a session must never benefit from another session's trace,
/// no matter how the threads' statements interleave under the state lock.
#[test]
fn parallel_sessions_never_leak_traces() {
    let proxy = calendar_proxy();
    const ITERS: usize = 200;

    std::thread::scope(|scope| {
        // Privileged workers: probe unlocks the fetch within the session.
        for _ in 0..2 {
            let proxy = &proxy;
            scope.spawn(move || {
                for _ in 0..ITERS {
                    let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
                    assert!(proxy.execute(s, PROBE_2, &[]).unwrap().is_allowed());
                    assert!(
                        proxy.execute(s, FETCH_2, &[]).unwrap().is_allowed(),
                        "user 1's own probe must unlock the fetch"
                    );
                    proxy.end_session(s);
                }
            });
        }
        // Unprivileged workers: the same fetch must always be blocked.
        for _ in 0..2 {
            let proxy = &proxy;
            scope.spawn(move || {
                for _ in 0..ITERS {
                    let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(2))]);
                    assert!(
                        !proxy.execute(s, FETCH_2, &[]).unwrap().is_allowed(),
                        "user 2 must never benefit from user 1's trace"
                    );
                    proxy.end_session(s);
                }
            });
        }
    });

    let stats = proxy.stats();
    assert_eq!(stats.allowed, 2 * 2 * ITERS as u64);
    assert_eq!(stats.blocked, 2 * ITERS as u64);
}

/// Every statement issued from any thread lands in exactly one of the
/// `allowed` / `blocked` counters, and DML is tallied separately: after the
/// workers join, the statistics reconcile to the exact totals.
#[test]
fn stats_account_for_every_statement() {
    let proxy = calendar_proxy();
    const WORKERS: usize = 4;
    const ITERS: usize = 100;

    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let proxy = &proxy;
            scope.spawn(move || {
                let uid = if w % 2 == 0 { 1 } else { 2 };
                let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(uid))]);
                for _ in 0..ITERS {
                    // One allowed-for-user-1 / blocked-for-user-2 select,
                    // one always-allowed select, one always-blocked select.
                    proxy.execute(s, FETCH_2, &[]).unwrap();
                    proxy.execute(s, PROBE_2, &[]).unwrap();
                    proxy
                        .execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
                        .unwrap();
                }
                proxy.end_session(s);
            });
        }
    });

    let stats = proxy.stats();
    let issued = (WORKERS * ITERS * 3) as u64;
    assert_eq!(
        stats.allowed + stats.blocked,
        issued,
        "every SELECT must be counted exactly once: {stats:?}"
    );
    // User-1 workers: FETCH_2 blocked until the first PROBE_2 records the
    // attendance fact, then allowed — i.e. exactly one blocked fetch each.
    // PROBE_2 always allowed for both users; FETCH_3 always blocked.
    let user1_workers = (WORKERS as u64).div_ceil(2);
    let user2_workers = WORKERS as u64 - user1_workers;
    let iters = ITERS as u64;
    let expected_blocked = user1_workers + user2_workers * iters + WORKERS as u64 * iters;
    assert_eq!(stats.blocked, expected_blocked, "{stats:?}");

    // Decision sources also reconcile: every allow came from exactly one
    // cache layer or proof.
    assert_eq!(
        stats.template_cache_hits
            + stats.template_proofs
            + stats.session_cache_hits
            + stats.concrete_proofs,
        stats.allowed,
        "{stats:?}"
    );
}

/// DML from concurrent sessions is serialized by the database write lock
/// and tallied exactly.
#[test]
fn concurrent_writes_are_counted_exactly() {
    let proxy = calendar_proxy();
    const WORKERS: usize = 4;
    const ITERS: usize = 25;

    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let proxy = &proxy;
            scope.spawn(move || {
                let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
                for i in 0..ITERS {
                    // Distinct keys per worker/iteration: no unique clashes.
                    let eid = 100 + (w * ITERS + i) as i64;
                    let r = proxy
                        .execute(
                            s,
                            &format!(
                                "INSERT INTO Events (EId, Title, Kind) \
                                 VALUES ({eid}, 'x', 'y')"
                            ),
                            &[],
                        )
                        .unwrap();
                    assert!(r.is_allowed());
                }
                proxy.end_session(s);
            });
        }
    });

    let stats = proxy.stats();
    assert_eq!(stats.writes, (WORKERS * ITERS) as u64);
    let total = proxy.database().total_rows();
    assert_eq!(total, 2 + 2 + WORKERS * ITERS);
}

/// `stats()` copies the counters under the state lock each statement
/// counts under, so a snapshot taken while other threads decide never
/// holds half a statement: every template-allowed read is `allowed`,
/// exactly one of a template proof or a template-cache hit, and one
/// latency sample, together.
#[test]
fn stats_are_exact_under_live_traffic() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let proxy = calendar_proxy();
    let done = AtomicBool::new(false);
    const WORKERS: usize = 3;
    const ITERS: u64 = 400;
    let read = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    let snapshots = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let proxy = &proxy;
                scope.spawn(move || {
                    let uid = 1 + (w as i64 % 2);
                    let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(uid))]);
                    for _ in 0..ITERS {
                        assert!(proxy.execute(s, read, &[]).unwrap().is_allowed());
                    }
                })
            })
            .collect();
        let poller = scope.spawn(|| {
            let mut snapshots = 0u64;
            let mut last = 0;
            loop {
                let finished = done.load(Ordering::Acquire);
                let st = proxy.stats();
                assert_eq!(
                    st.allowed,
                    st.template_cache_hits + st.template_proofs,
                    "a snapshot straddled a statement: {st:?}"
                );
                assert_eq!(
                    st.latency.count, st.allowed,
                    "a snapshot straddled a latency sample: {st:?}"
                );
                assert!(st.allowed >= last, "{st:?}");
                last = st.allowed;
                snapshots += 1;
                if finished {
                    return snapshots;
                }
            }
        });
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        poller.join().unwrap()
    });
    assert!(snapshots > 1);
    let st = proxy.stats();
    assert_eq!(st.allowed, WORKERS as u64 * ITERS, "{st:?}");
    assert_eq!(st.latency.count, WORKERS as u64 * ITERS, "{st:?}");
    assert_eq!(st.template_proofs, 1, "{st:?}");
}
