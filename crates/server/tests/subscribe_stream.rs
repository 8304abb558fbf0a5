//! End-to-end tests of live journal streaming: a `subscribe`d connection
//! must see *exactly* what a cursor-polling client sees — same events,
//! same order, same drop accounting — with the only difference being who
//! initiates the transfer.
//!
//! The journal is deliberately tiny here (32 slots) so ring eviction is
//! the common case, not a corner: the interesting property is not "events
//! arrive" but that **losses are accounted exactly** — every published
//! event is either delivered once, in order, or counted in `dropped`,
//! and the split agrees with the stateless `journal` request's numbers.

use std::sync::Arc;
use std::time::Duration;

use bep_core::{schema_of_database, ComplianceChecker, Policy, ProxyConfig, SqlProxy, Verdict};
use bep_server::{Client, Server, ServerConfig};
use minidb::Database;
use sqlir::Value;

const IO: Duration = Duration::from_secs(5);
const JOURNAL_CAP: usize = 32;

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

fn start() -> (Server, Arc<SqlProxy>) {
    let db = calendar_db();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")],
    )
    .unwrap();
    let proxy = Arc::new(SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig {
            journal_capacity: JOURNAL_CAP,
            ..ProxyConfig::default()
        },
    ));
    let server =
        Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    (server, proxy)
}

/// The alternating workload: even-indexed statements are allowed by V1,
/// odd ones blocked (Kind is not covered by the policy), so the verdict
/// of the decision at journal sequence `s` is decidable from `s` alone —
/// which lets the tests content-check even a partially evicted stream.
fn load_stmts(n: usize) -> Vec<(String, Vec<(String, Value)>)> {
    (0..n)
        .map(|i| {
            let sql = if i % 2 == 0 {
                "SELECT EId FROM Attendance WHERE UId = ?MyUId"
            } else {
                "SELECT Kind FROM Events WHERE EId = ?e"
            };
            (sql.to_string(), vec![("e".into(), Value::Int(2))])
        })
        .collect()
}

fn expected_verdict(seq: u64) -> Verdict {
    if seq.is_multiple_of(2) {
        Verdict::Allowed
    } else {
        Verdict::Blocked
    }
}

#[test]
fn subscribe_matches_cursor_polling_exactly_after_overflow() {
    let (server, proxy) = start();
    let addr = server.addr();

    // Phase 1: overflow the ring with pipelined load, nobody reading.
    let mut loader = Client::connect(addr, IO).unwrap();
    let session = loader.begin(vec![("MyUId".into(), Value::Int(1))]).unwrap();
    let total = 100usize;
    let results = loader
        .execute_pipelined(session, &load_stmts(total))
        .unwrap();
    assert_eq!(results.len(), total);

    // The quiescent journal: published = 100, retained = the newest 32.
    let mut poller = Client::connect(addr, IO).unwrap();
    let page = poller.journal(0, 512).unwrap();
    assert_eq!(page.published, total as u64);
    assert_eq!(page.evicted, (total - JOURNAL_CAP) as u64);
    assert_eq!(page.events.len(), JOURNAL_CAP);

    // A subscription from sequence 0 must open with exactly the same
    // view: the retained window as its first push, the evictions as its
    // drop count. Same events, same order, same loss accounting.
    let mut sub = Client::connect(addr, IO).unwrap();
    sub.subscribe(0).unwrap();
    let first = sub.next_events().unwrap();
    assert_eq!(first.dropped, page.evicted, "drop accounting disagrees");
    assert_eq!(
        first.events, page.events,
        "stream and poll saw different events"
    );
    for (i, e) in first.events.iter().enumerate() {
        assert_eq!(e.seq, (total - JOURNAL_CAP + i) as u64, "order");
        assert_eq!(
            e.verdict,
            expected_verdict(e.seq),
            "content at seq {}",
            e.seq
        );
    }

    // Phase 2: more pipelined load while the subscription is live. The
    // per-tick push cadence makes batch boundaries timing-dependent, but
    // the *accounting* must stay exact: every new sequence is delivered
    // exactly once and in order, or charged to `dropped`.
    let more = 150usize;
    let results = loader
        .execute_pipelined(session, &load_stmts(more))
        .unwrap();
    assert_eq!(results.len(), more);

    let grand_total = (total + more) as u64;
    let mut delivered: Vec<u64> = first.events.iter().map(|e| e.seq).collect();
    let mut dropped = first.dropped;
    while delivered.len() as u64 + dropped < grand_total {
        let batch = sub.next_events().expect("stream batch");
        assert!(batch.dropped >= dropped, "drop count went backwards");
        dropped = batch.dropped;
        for e in batch.events {
            if let Some(&last) = delivered.last() {
                assert!(
                    e.seq > last,
                    "duplicate or out-of-order: {} after {last}",
                    e.seq
                );
            }
            assert_eq!(
                e.verdict,
                expected_verdict(e.seq),
                "content at seq {}",
                e.seq
            );
            delivered.push(e.seq);
        }
    }
    assert_eq!(
        delivered.len() as u64 + dropped,
        grand_total,
        "every event delivered once or accounted as dropped"
    );
    // In-process cross-check: the server-side journal agrees on totals.
    assert_eq!(proxy.journal().published(), grand_total);

    server.shutdown();
}

#[test]
fn subscribe_from_a_later_sequence_skips_without_charging_drops() {
    let (server, _proxy) = start();
    let addr = server.addr();

    let mut loader = Client::connect(addr, IO).unwrap();
    let session = loader.begin(vec![("MyUId".into(), Value::Int(1))]).unwrap();
    loader.execute_pipelined(session, &load_stmts(20)).unwrap();

    // Start mid-stream: events before `after` are intentionally skipped,
    // not losses — dropped stays zero.
    let mut sub = Client::connect(addr, IO).unwrap();
    sub.subscribe(15).unwrap();
    let batch = sub.next_events().unwrap();
    assert_eq!(batch.dropped, 0);
    assert_eq!(
        batch.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
        (15u64..20).collect::<Vec<_>>()
    );

    // New decisions keep flowing to the same subscription.
    loader.execute_pipelined(session, &load_stmts(3)).unwrap();
    let batch = sub.next_events().unwrap();
    assert_eq!(batch.events.first().map(|e| e.seq), Some(20));

    server.shutdown();
}
