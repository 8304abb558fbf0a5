//! Idle connections cost the server an epoll registration each, never a
//! thread. Alone in its own test binary on purpose: `/proc/self/status`
//! counts the whole process, and sibling tests would start and stop
//! threads of their own under the measurement.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bep_core::{schema_of_database, ComplianceChecker, Policy, ProxyConfig, SqlProxy};
use bep_server::reactor::raise_nofile_limit;
use bep_server::{Client, Server, ServerConfig};
use minidb::Database;
use sqlir::Value;

/// Idle connections to hold, fds permitting.
const IDLE_TARGET: usize = 400;

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn idle_connections_do_not_grow_the_thread_count() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Attendance (UId INT, EId INT, PRIMARY KEY (UId, EId))")
        .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId) VALUES (1, 2)")
        .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")],
    )
    .unwrap();
    let proxy = Arc::new(SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    ));
    let server =
        Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Both ends of every connection live in this process: two fds each,
    // plus headroom for the harness, the listener and the poller.
    let nofile = raise_nofile_limit((2 * IDLE_TARGET + 256) as u64) as usize;
    let n = IDLE_TARGET.min(nofile.saturating_sub(256) / 2);
    assert!(
        n >= 100,
        "RLIMIT_NOFILE={nofile} leaves only {n} connections"
    );

    // A first round trip proves the reactor thread is up before counting.
    let io = Duration::from_secs(5);
    let mut client = Client::connect(addr, io).unwrap();
    let session = client.begin(vec![("MyUId".into(), Value::Int(1))]).unwrap();
    let threads_before = thread_count();

    let held: Vec<TcpStream> = (0..n)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}/{n}: {e}")))
        .collect();

    // The listener is drained in arrival order, so a client admitted after
    // the crowd proves the reactor holds all of it; its decision must
    // still come through.
    let mut late = Client::connect(addr, io).unwrap();
    let late_session = late.begin(vec![("MyUId".into(), Value::Int(1))]).unwrap();
    let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    assert!(late.execute(late_session, sql, &[]).unwrap().is_allowed());
    assert!(client.execute(session, sql, &[]).unwrap().is_allowed());
    assert!(
        client
            .metrics()
            .unwrap()
            .contains(&format!("bep_reactor_connections {}\n", n + 2)),
        "the reactor holds the {n} idle connections and the two clients"
    );
    assert_eq!(
        thread_count(),
        threads_before,
        "holding {n} idle connections must not grow the thread count"
    );

    drop(held);
    server.shutdown();
}
