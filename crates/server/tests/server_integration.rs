//! End-to-end tests of the networked enforcement front-end: a real
//! `Server` on an ephemeral port, driven through the real `Client` (and
//! raw frames where the point is protocol abuse).

use std::sync::Arc;
use std::time::Duration;

use appdsl::{run_handler, DslError, Limits, PortOutcome, QueryPort};
use appsim::AppSpec;
use bep_core::{
    schema_of_database, template_hash, CacheTier, ComplianceChecker, Phase, Policy, ProxyConfig,
    SqlProxy, Verdict,
};
use bep_scenario::{fleet, TrafficConfig, TrafficEngine, TrafficOp};
use bep_server::framing::{frame_bytes, write_frame};
use bep_server::{Client, ClientError, ExecOutcome, Server, ServerConfig};
use minidb::Database;
use sqlir::Value;

const IO: Duration = Duration::from_secs(5);

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

fn calendar_proxy() -> Arc<SqlProxy> {
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
    Arc::new(SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    ))
}

fn start(config: ServerConfig) -> (Server, Arc<SqlProxy>) {
    let proxy = calendar_proxy();
    let server = Server::start(Arc::clone(&proxy), config, "127.0.0.1:0").expect("bind");
    (server, proxy)
}

fn uid_bindings(uid: i64) -> Vec<(String, Value)> {
    vec![("MyUId".into(), Value::Int(uid))]
}

#[test]
fn full_round_trip_over_tcp() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();

    let s = c.begin(uid_bindings(1)).unwrap();

    // Q1: the probe is allowed and returns a row.
    let r1 = c
        .execute(
            s,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event",
            &[("event".into(), Value::Int(2))],
        )
        .unwrap();
    match &r1 {
        ExecOutcome::Rows(rows) => assert_eq!(rows.rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }

    // Q2: allowed thanks to the trace recorded by Q1.
    let r2 = c
        .execute(
            s,
            "SELECT * FROM Events WHERE EId = ?event",
            &[("event".into(), Value::Int(2))],
        )
        .unwrap();
    match &r2 {
        ExecOutcome::Rows(rows) => {
            assert_eq!(rows.rows[0][1], Value::str("standup"));
        }
        other => panic!("expected rows, got {other:?}"),
    }

    // The trace summary reflects both queries.
    let trace = c.trace_summary(s).unwrap();
    assert_eq!(trace.entries, 2);
    assert!(trace.facts >= 1);

    // Stats flow through, percentiles included.
    let stats = c.stats().unwrap();
    assert_eq!(stats.allowed, 2);
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.latency_count, 2);
    assert!(stats.p99_ns >= stats.p50_ns && stats.p50_ns > 0);

    // End is idempotent over the wire.
    assert!(c.end(s).unwrap());
    assert!(!c.end(s).unwrap());

    // A write passes through.
    let s2 = c.begin(uid_bindings(1)).unwrap();
    let w = c
        .execute(
            s2,
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 3, NULL)",
            &[],
        )
        .unwrap();
    assert_eq!(w, ExecOutcome::Affected(1));

    server.shutdown();
}

#[test]
fn blocked_queries_carry_typed_reasons() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    let r = c
        .execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
        .unwrap();
    match r {
        ExecOutcome::Blocked { reason, .. } => assert_eq!(reason, "not-determined"),
        other => panic!("expected blocked, got {other:?}"),
    }

    let r = c.execute(s, "SELEC whoops", &[]).unwrap();
    match r {
        ExecOutcome::Blocked { reason, .. } => assert_eq!(reason, "parse-error"),
        other => panic!("expected blocked, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    for bad in [
        &b"not json at all"[..],
        br#"{"t":"warp-core"}"#,
        br#"{"t":"execute","sql":"SELECT 1"}"#,
        br#"{"no":"tag"}"#,
        b"\xff\xfe\x00",
    ] {
        match c.raw_round_trip(bad).unwrap() {
            bep_server::Response::Error { kind, .. } => {
                assert_eq!(kind, bep_server::ErrorKind::Malformed);
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    // Five garbage frames later, the same connection still works.
    let r = c
        .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap();
    assert!(r.is_allowed());
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_then_closed() {
    let config = ServerConfig {
        max_frame: 1024,
        ..Default::default()
    };
    let (server, _proxy) = start(config);
    let mut c = Client::connect(server.addr(), IO).unwrap();

    let huge = vec![b'x'; 4096];
    match c.raw_round_trip(&huge) {
        Ok(bep_server::Response::Error { kind, msg }) => {
            assert_eq!(kind, bep_server::ErrorKind::Malformed);
            assert!(msg.contains("exceeds limit"), "{msg}");
        }
        other => panic!("expected oversized error, got {other:?}"),
    }
    // Framing is unrecoverable after an oversized announcement: the server
    // hangs up.
    match c.raw_round_trip(br#"{"t":"stats"}"#) {
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn handshake_is_required_first() {
    let (server, _proxy) = start(ServerConfig::default());
    // Hand-roll a connection that skips hello.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(IO)).unwrap();
    write_frame(&mut stream, br#"{"t":"stats"}"#).unwrap();
    let mut reader = bep_server::framing::FrameReader::new(1 << 20);
    let payload = loop {
        match reader.read_frame(&mut stream).unwrap() {
            bep_server::framing::FrameEvent::Frame(p) => break p,
            bep_server::framing::FrameEvent::TimedOut => continue,
            bep_server::framing::FrameEvent::Eof => panic!("closed before answering"),
        }
    };
    let resp = bep_server::Response::from_wire(std::str::from_utf8(&payload).unwrap()).unwrap();
    match resp {
        bep_server::Response::Error { kind, .. } => {
            assert_eq!(kind, bep_server::ErrorKind::Unsupported);
        }
        other => panic!("expected unsupported error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn sessions_are_connection_scoped_capabilities() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut alice = Client::connect(server.addr(), IO).unwrap();
    let mut mallory = Client::connect(server.addr(), IO).unwrap();

    let s = alice.begin(uid_bindings(1)).unwrap();
    // Mallory guesses Alice's session id: typed no-such-session, and
    // Alice's session is untouched.
    match mallory.execute(s, "SELECT * FROM Events WHERE EId = 2", &[]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }
    match mallory.end(s) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }
    let r = alice
        .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap();
    assert!(r.is_allowed(), "alice's session survived the probing");
    server.shutdown();
}

#[test]
fn connection_cap_answers_busy_with_load_snapshot() {
    let config = ServerConfig {
        max_connections: 1,
        ..Default::default()
    };
    let (server, _proxy) = start(config);

    let mut holder = Client::connect(server.addr(), IO).unwrap();
    let s = holder.begin(uid_bindings(1)).unwrap();

    match Client::connect(server.addr(), IO) {
        Err(ClientError::Busy {
            queue_depth,
            workers,
        }) => {
            assert_eq!(queue_depth, 1, "the live connection count is the depth");
            assert_eq!(workers, 1, "one reactor thread serves everything");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(server.busy_rejections() >= 1);

    // The admitted connection is unaffected by the rejection traffic.
    assert!(holder
        .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap()
        .is_allowed());

    // Closing it re-opens admission.
    holder.abandon();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(server.addr(), IO) {
            Ok(_) => break,
            Err(ClientError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected eventual admission, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_frames_get_ordered_responses() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    // A pipelined burst mixing an unlocking probe, the unlocked fetch, a
    // blocked statement, and a parse error — responses must come back in
    // request order with the same verdicts sequential execution gives.
    let burst: Vec<(String, Vec<(String, Value)>)> = vec![
        (
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2".into(),
            vec![],
        ),
        ("SELECT * FROM Events WHERE EId = 2".into(), vec![]),
        ("SELECT * FROM Events WHERE EId = 3".into(), vec![]),
        ("SELEC whoops".into(), vec![]),
    ];
    let outcomes = c.execute_pipelined(s, &burst).unwrap();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].is_allowed(), "{:?}", outcomes[0]);
    match &outcomes[1] {
        ExecOutcome::Rows(rows) => assert_eq!(rows.rows[0][1], Value::str("standup")),
        other => panic!("probe must have unlocked the fetch, got {other:?}"),
    }
    match &outcomes[2] {
        ExecOutcome::Blocked { reason, .. } => assert_eq!(reason, "not-determined"),
        other => panic!("expected blocked, got {other:?}"),
    }
    match &outcomes[3] {
        ExecOutcome::Blocked { reason, .. } => assert_eq!(reason, "parse-error"),
        other => panic!("expected parse error, got {other:?}"),
    }

    // The journal saw the decisions in pipeline order.
    let page = c.journal(0, 100).unwrap();
    assert_eq!(page.events.len(), 4);
    assert_eq!(page.events[0].verdict, Verdict::Allowed);
    assert_eq!(page.events[1].verdict, Verdict::Allowed);
    assert_eq!(page.events[2].verdict, Verdict::Blocked);
    assert_eq!(page.events[3].verdict, Verdict::Blocked);
    server.shutdown();
}

/// The system under test as a caller sees it: the server through the
/// wire client, or the same proxy type called in-process. Outcomes come
/// back in the client's form, so the two compare with `==`.
trait Front {
    fn begin(&mut self, uid: i64) -> u64;
    fn end(&mut self, session: u64);
    fn execute(&mut self, session: u64, sql: &str, bindings: &[(String, Value)]) -> ExecOutcome;
}

impl Front for Client {
    fn begin(&mut self, uid: i64) -> u64 {
        Client::begin(self, uid_bindings(uid)).unwrap()
    }
    fn end(&mut self, session: u64) {
        Client::end(self, session).unwrap();
    }
    fn execute(&mut self, session: u64, sql: &str, bindings: &[(String, Value)]) -> ExecOutcome {
        Client::execute(self, session, sql, bindings).unwrap()
    }
}

impl Front for &SqlProxy {
    fn begin(&mut self, uid: i64) -> u64 {
        self.begin_session(uid_bindings(uid))
    }
    fn end(&mut self, session: u64) {
        self.end_session(session);
    }
    fn execute(&mut self, session: u64, sql: &str, bindings: &[(String, Value)]) -> ExecOutcome {
        SqlProxy::execute(self, session, sql, bindings)
            .unwrap()
            .into()
    }
}

/// A proxy's journal as `(template hash, verdict, cache tier)` per decision.
fn provenance(proxy: &SqlProxy) -> Vec<(u64, Verdict, CacheTier)> {
    proxy
        .journal()
        .events_since(0, usize::MAX)
        .into_iter()
        .map(|ev| (ev.template_hash, ev.verdict, ev.tier))
        .collect()
}

#[test]
fn wire_answers_equal_embedded_on_the_same_script() {
    // The server changes cost, never answers: the same scripted
    // conversation over the wire and in-process, outcome by outcome.
    let script: Vec<(String, Vec<(String, Value)>)> = vec![
        (
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event".into(),
            vec![("event".into(), Value::Int(2))],
        ),
        (
            "SELECT * FROM Events WHERE EId = ?event".into(),
            vec![("event".into(), Value::Int(2))],
        ),
        ("SELECT * FROM Events WHERE EId = 3".into(), vec![]),
        (
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 3, NULL)".into(),
            vec![],
        ),
    ];
    let run = |front: &mut dyn Front| -> Vec<ExecOutcome> {
        let s = front.begin(1);
        script
            .iter()
            .map(|(sql, bindings)| front.execute(s, sql, bindings))
            .collect()
    };
    let (server, _proxy) = start(ServerConfig::default());
    let wire = run(&mut Client::connect(server.addr(), IO).unwrap());
    server.shutdown();
    let embedded = run(&mut &*calendar_proxy());
    assert_eq!(wire, embedded);
}

/// Forwards a handler's statements to a [`Front`], logging each outcome.
struct FrontPort<'a> {
    front: &'a mut dyn Front,
    session: u64,
    log: &'a mut Vec<String>,
}

impl QueryPort for FrontPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let out = self.front.execute(self.session, sql, bindings);
        self.log.push(format!("{out:?}"));
        Ok(match out {
            ExecOutcome::Rows(r) => PortOutcome::Rows(r),
            ExecOutcome::Affected(n) => PortOutcome::Affected(n as usize),
            ExecOutcome::Blocked { reason, .. } => PortOutcome::Blocked(reason),
        })
    }
}

#[test]
fn wire_answers_equal_embedded_on_scenario_fleet_traffic() {
    // The same gate on generated traffic: every fleet family's handlers,
    // raw read probes and raw write probes over churning sessions, with
    // write enforcement on. Per-statement outcomes, the proxies' verdict
    // counters and their journals' provenance must agree between the wire
    // and the in-process run.
    const USERS: u64 = 128;
    const OPS: usize = 300;
    const SLOTS: usize = 8;
    for app in fleet(1307, USERS) {
        let parsed = app.app();
        let mut db = app.empty_db();
        app.populate(&mut db).unwrap();
        let proxy_of = || {
            Arc::new(SqlProxy::new(
                db.clone(),
                ComplianceChecker::new(app.schema(), app.policy().unwrap()),
                ProxyConfig {
                    enforce_writes: true,
                    ..ProxyConfig::default()
                },
            ))
        };
        let drive = |front: &mut dyn Front| -> Vec<String> {
            let cfg = TrafficConfig {
                target_sessions: SLOTS,
                mean_session_len: 10.0,
                ..TrafficConfig::default()
            };
            let mut engine = TrafficEngine::new(&app, cfg, 99);
            let mut sessions: Vec<Option<u64>> = vec![None; SLOTS];
            let mut log = Vec::new();
            for _ in 0..OPS {
                match engine.next_op() {
                    TrafficOp::Begin { slot, uid, .. } => sessions[slot] = Some(front.begin(uid)),
                    TrafficOp::End { slot } => front.end(sessions[slot].take().unwrap()),
                    TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                        let out = front.execute(sessions[slot].unwrap(), &sql, &[]);
                        log.push(format!("raw {out:?}"));
                    }
                    TrafficOp::Request { slot, request, .. } => {
                        let mut port = FrontPort {
                            front: &mut *front,
                            session: sessions[slot].unwrap(),
                            log: &mut log,
                        };
                        let result = run_handler(
                            &mut port,
                            parsed.handler(&request.handler).unwrap(),
                            &request.session,
                            &request.params,
                            Limits::default(),
                        )
                        .unwrap();
                        log.push(format!("{}:{:?}", request.handler, result.outcome));
                    }
                }
            }
            log
        };

        let wire_proxy = proxy_of();
        let server = Server::start(
            Arc::clone(&wire_proxy),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind");
        let wire = drive(&mut Client::connect(server.addr(), IO).unwrap());
        server.shutdown();
        let embedded_proxy = proxy_of();
        let embedded = drive(&mut &*embedded_proxy);

        assert_eq!(wire, embedded, "{}: outcomes diverged", app.name);
        let (w, e) = (wire_proxy.stats(), embedded_proxy.stats());
        assert_eq!(
            (w.allowed, w.blocked, w.write_allowed, w.write_blocked),
            (e.allowed, e.blocked, e.write_allowed, e.write_blocked),
            "{}: verdict counters diverged",
            app.name
        );
        assert_eq!(
            provenance(&wire_proxy),
            provenance(&embedded_proxy),
            "{}: journal provenance diverged",
            app.name
        );
        assert!(
            w.blocked > 0 && w.allowed > 0,
            "{}: vacuous traffic",
            app.name
        );
    }
}

#[test]
fn multi_client_stress_keeps_traces_isolated() {
    let (server, _proxy) = start(ServerConfig::default());
    let addr = server.addr();

    // Even-indexed clients run as user 1 (attends event 2, may unlock it);
    // odd-indexed as user 2 (does NOT attend event 2, must stay blocked
    // even while user-1 sessions unlock it concurrently).
    std::thread::scope(|scope| {
        for i in 0..8 {
            scope.spawn(move || {
                let mut c = Client::connect(addr, IO).expect("connect");
                let uid = if i % 2 == 0 { 1 } else { 2 };
                let s = c.begin(uid_bindings(uid)).unwrap();
                for _ in 0..10 {
                    let probe = c
                        .execute(
                            s,
                            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
                            &[],
                        )
                        .unwrap();
                    assert!(probe.is_allowed());
                    let fetch = c
                        .execute(s, "SELECT * FROM Events WHERE EId = 2", &[])
                        .unwrap();
                    if uid == 1 {
                        assert!(fetch.is_allowed(), "user 1 probed successfully");
                    } else {
                        assert!(
                            !fetch.is_allowed(),
                            "user 2's empty probe must never unlock event 2, \
                             regardless of user 1's concurrent sessions"
                        );
                    }
                }
                assert!(c.end(s).unwrap());
            });
        }
    });

    let mut c = Client::connect(addr, IO).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.sessions, 0, "every stress session was ended");
    assert_eq!(stats.latency_count, stats.allowed + stats.blocked);
    server.shutdown();
}

#[test]
fn abandoned_connections_get_their_sessions_swept() {
    let (server, proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    c.begin(uid_bindings(1)).unwrap();
    c.begin(uid_bindings(2)).unwrap();
    assert_eq!(proxy.session_count(), 2);
    c.abandon(); // vanish without End

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while proxy.session_count() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphan sessions were never swept"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let config = ServerConfig {
        poll_interval: Duration::from_millis(10),
        idle_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let (server, proxy) = start(config);
    let mut c = Client::connect(server.addr(), IO).unwrap();
    c.begin(uid_bindings(1)).unwrap();
    assert_eq!(proxy.session_count(), 1);

    std::thread::sleep(Duration::from_millis(400));
    // The server reaped the connection and swept its session.
    assert_eq!(proxy.session_count(), 0);
    match c.stats() {
        Err(_) => {}
        Ok(r) => panic!("connection should be gone, got {r:?}"),
    }
    server.shutdown();
}

#[test]
fn client_initiated_shutdown_drains_cleanly() {
    let (server, proxy) = start(ServerConfig::default());
    let addr = server.addr();

    let mut c = Client::connect(addr, IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();
    c.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap();
    // Leave the session open deliberately; shutdown must sweep it.
    c.shutdown_server().unwrap();

    // wait() returns because a client asked for shutdown.
    server.wait();
    assert_eq!(proxy.session_count(), 0, "shutdown sweeps orphans");

    // And the port no longer serves.
    assert!(
        Client::connect(addr, Duration::from_millis(500)).is_err(),
        "server should be gone"
    );
}

#[test]
fn shutdown_while_clients_are_mid_conversation() {
    let (server, proxy) = start(ServerConfig::default());
    let addr = server.addr();

    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, IO).expect("connect");
                let s = c.begin(uid_bindings(1)).unwrap();
                // Run until the server says goodbye; every completed
                // round-trip must be a real answer.
                loop {
                    match c.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[]) {
                        Ok(r) => assert!(r.is_allowed()),
                        Err(_) => return, // bye / closed mid-drain
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    server.shutdown(); // must drain and join without hanging
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(proxy.session_count(), 0, "all in-flight sessions swept");
}

#[test]
fn provenance_round_trips_over_the_wire() {
    // The acceptance path: cache tier + phase timings recorded in-process
    // must come back intact through the `journal`, `trace`, and `metrics`
    // frames of a live server.
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    assert!(c.execute(s, sql, &[]).unwrap().is_allowed()); // template proof
    assert!(c.execute(s, sql, &[]).unwrap().is_allowed()); // template cache
    let fetch = "SELECT * FROM Events WHERE EId = 3";
    assert!(!c.execute(s, fetch, &[]).unwrap().is_allowed()); // concrete deny

    // Journal frame: all three decisions, tiers and timings intact.
    let page = c.journal(0, 100).unwrap();
    assert_eq!(page.published, 3);
    assert_eq!(page.evicted, 0);
    assert_eq!(page.events.len(), 3);
    assert_eq!(page.events[0].tier, CacheTier::TemplateProof);
    assert_eq!(page.events[1].tier, CacheTier::TemplateCache);
    assert_eq!(page.events[2].tier, CacheTier::ConcreteProof);
    assert_eq!(page.events[2].verdict, Verdict::Blocked);
    assert_eq!(page.events[0].template_hash, template_hash(sql));
    assert_eq!(page.events[2].template_hash, template_hash(fetch));
    assert!(page.events[0].phase(Phase::Proof) > 0, "{page:?}");
    assert!(page.events[0].total_ns > 0);
    assert!(page.events.iter().all(|e| e.session == s));

    // Paging: `after` resumes exactly where the last page ended.
    let rest = c.journal(page.events[1].seq + 1, 100).unwrap();
    assert_eq!(rest.events.len(), 1);
    assert_eq!(rest.events[0].seq, page.events[2].seq);

    // Trace frame: the same provenance rides with the session summary.
    let trace = c.trace_summary(s).unwrap();
    assert_eq!(trace.events.len(), 3);
    assert_eq!(trace.events[0].tier, CacheTier::TemplateProof);
    assert_eq!(trace.events[2].verdict, Verdict::Blocked);

    // Metrics frame: the exposition reflects those decisions.
    let text = c.metrics().unwrap();
    assert!(text.contains("bep_decisions_total{decision=\"allowed\"} 2\n"));
    assert!(text.contains("bep_decisions_total{decision=\"blocked\"} 1\n"));
    assert!(text.contains("bep_cache_hits_total{tier=\"template\"} 1\n"));
    assert!(text.contains("bep_journal_published 3\n"));
    assert!(text.contains("bep_sessions 1\n"));
    server.shutdown();
}

#[test]
fn trace_after_end_is_typed_no_such_session_across_layers() {
    // Satellite regression: a just-ended session must yield the same
    // typed no-such-session from the in-process API and over the wire.
    let (server, proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();
    c.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap();
    assert!(c.end(s).unwrap());

    // In-process: typed CoreError.
    assert_eq!(
        proxy.session_trace(s).unwrap_err(),
        bep_core::CoreError::NoSuchSession(s)
    );
    // Wire: same failure, as the stable error kind — from the very
    // connection that owned the session (ownership outlives the session,
    // so this exercises the proxy's typed error, not the capability
    // check).
    match c.trace_summary(s) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }
    // And execute on the ended session agrees.
    match c.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn raw_split_writes_still_form_frames() {
    // Drip a valid frame across many tiny writes; the server must
    // reassemble it (split-read tolerance end to end).
    let (server, _proxy) = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(IO)).unwrap();
    stream.set_nodelay(true).unwrap();

    let hello = frame_bytes(br#"{"t":"hello","v":1}"#);
    for chunk in hello.chunks(3) {
        use std::io::Write;
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut reader = bep_server::framing::FrameReader::new(1 << 20);
    let payload = loop {
        match reader.read_frame(&mut stream).unwrap() {
            bep_server::framing::FrameEvent::Frame(p) => break p,
            bep_server::framing::FrameEvent::TimedOut => continue,
            bep_server::framing::FrameEvent::Eof => panic!("closed before welcome"),
        }
    };
    let resp = bep_server::Response::from_wire(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(resp, bep_server::Response::Welcome { .. }));
    server.shutdown();
}

#[test]
fn prepared_plans_execute_over_the_wire() {
    let (server, proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    // Prepare both templates up front; ids are sequential from 1.
    let probe = c
        .prepare(
            s,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event",
        )
        .unwrap();
    let fetch = c
        .prepare(s, "SELECT * FROM Events WHERE EId = ?event")
        .unwrap();
    assert_eq!((probe, fetch), (1, 2));

    // The fetch is blocked before the probe unlocks it — exactly the
    // Example 2.1 flow, driven entirely through prepared plans.
    let event = [("event".to_string(), Value::Int(2))];
    let blocked = c.execute_prepared(s, fetch, &event).unwrap();
    assert!(!blocked.is_allowed(), "{blocked:?}");
    match c.execute_prepared(s, probe, &event).unwrap() {
        ExecOutcome::Rows(rows) => assert_eq!(rows.rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
    match c.execute_prepared(s, fetch, &event).unwrap() {
        ExecOutcome::Rows(rows) => assert_eq!(rows.rows[0][1], Value::str("standup")),
        other => panic!("expected rows, got {other:?}"),
    }

    // The prepared templates live in the proxy's shared plan cache.
    assert!(proxy.plan_cache().len() >= 2);
    server.shutdown();
}

#[test]
fn prepare_on_unknown_session_is_typed_no_such_session() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();

    // Never-issued session id.
    match c.prepare(999, "SELECT EId FROM Attendance WHERE UId = ?MyUId") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }

    // A session owned by a *different* connection is just as unknown.
    let s = c.begin(uid_bindings(1)).unwrap();
    let mut intruder = Client::connect(server.addr(), IO).unwrap();
    match intruder.prepare(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-session"),
        other => panic!("expected no-such-session, got {other:?}"),
    }

    // The rejected connection is still usable.
    let s2 = intruder.begin(uid_bindings(2)).unwrap();
    assert!(intruder
        .prepare(s2, "SELECT EId FROM Attendance WHERE UId = ?MyUId")
        .is_ok());
    server.shutdown();
}

#[test]
fn unknown_plan_id_is_typed_no_such_plan() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();

    match c.execute_prepared(s, 7, &[]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-plan"),
        other => panic!("expected no-such-plan, got {other:?}"),
    }

    // Plan ids are connection-scoped: another connection's id 1 does not
    // resolve here even though that connection prepared it.
    let mut other = Client::connect(server.addr(), IO).unwrap();
    let so = other.begin(uid_bindings(1)).unwrap();
    let plan = other
        .prepare(so, "SELECT EId FROM Attendance WHERE UId = ?MyUId")
        .unwrap();
    match c.execute_prepared(s, plan, &[]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "no-such-plan"),
        other => panic!("expected no-such-plan, got {other:?}"),
    }

    // The connection survives a bad plan id.
    assert!(c
        .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
        .unwrap()
        .is_allowed());
    server.shutdown();
}

#[test]
fn warm_start_snapshot_survives_server_generations() {
    let path = std::env::temp_dir().join(format!("bep-server-snap-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let template = "SELECT EId FROM Attendance WHERE UId = ?MyUId";

    // Generation 1: cold start (no file yet), serve one template-allowed
    // query, drain — the shutdown persists the compiled verdict.
    let proxy1 = calendar_proxy();
    let server1 = Server::start_with_snapshot(
        Arc::clone(&proxy1),
        ServerConfig::default(),
        "127.0.0.1:0",
        &path,
    )
    .expect("bind");
    let mut c = Client::connect(server1.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();
    assert!(matches!(
        c.execute(s, template, &[]).unwrap(),
        ExecOutcome::Rows(_)
    ));
    drop(c);
    server1.shutdown();
    assert!(path.exists(), "drain persisted a snapshot");

    // Generation 2: the plan cache is warm before the first request, and
    // the warm plan answers identically.
    let proxy2 = calendar_proxy();
    let server2 = Server::start_with_snapshot(
        Arc::clone(&proxy2),
        ServerConfig::default(),
        "127.0.0.1:0",
        &path,
    )
    .expect("bind");
    let warm = proxy2.plan_cache().get(template);
    assert!(warm.is_some(), "snapshot preloaded the template plan");
    let mut c = Client::connect(server2.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();
    assert!(matches!(
        c.execute(s, template, &[]).unwrap(),
        ExecOutcome::Rows(_)
    ));
    drop(c);
    server2.shutdown();

    // Generation 3: a corrupted snapshot degrades to a cold start — the
    // server still boots and enforces.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();
    let proxy3 = calendar_proxy();
    let server3 = Server::start_with_snapshot(
        Arc::clone(&proxy3),
        ServerConfig::default(),
        "127.0.0.1:0",
        &path,
    )
    .expect("bind");
    assert!(
        proxy3.plan_cache().get(template).is_none(),
        "corrupt snapshot must not install anything"
    );
    let mut c = Client::connect(server3.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(2)).unwrap();
    assert!(matches!(
        c.execute(s, template, &[]).unwrap(),
        ExecOutcome::Rows(_)
    ));
    drop(c);
    server3.shutdown();
    std::fs::remove_file(&path).ok();
}
