//! End-to-end tests of the networked enforcement front-end: a real
//! `Server` on an ephemeral port, driven through the real `Client` (and
//! raw frames where the point is protocol abuse).

use std::sync::Arc;
use std::time::Duration;

use appdsl::{run_handler, DslError, Limits, PortOutcome, QueryPort};
use appsim::AppSpec;
use bep_core::{
    schema_of_database, template_hash, CacheTier, ComplianceChecker, JournalCursor, Phase, Policy,
    ProxyConfig, SqlProxy, Verdict,
};
use bep_scenario::{fleet, TrafficConfig, TrafficEngine, TrafficOp};
use bep_server::framing::{frame_bytes, FrameEvent, FrameReader};
use bep_server::{
    Client, ClientError, ErrorKind, ExecOutcome, Request, Response, Server, ServerConfig,
    PROTOCOL_VERSION,
};
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
    calendar_proxy_with(ProxyConfig::default())
}

fn calendar_proxy_with(config: ProxyConfig) -> Arc<SqlProxy> {
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
        config,
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

/// A hand-driven connection: frames go out exactly as written, so one
/// `write_all` can carry a whole pipelined burst of mixed requests.
struct RawConn {
    stream: std::net::TcpStream,
    reader: FrameReader,
}

impl RawConn {
    /// Connects without a handshake.
    fn open(server: &Server) -> RawConn {
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(IO)).unwrap();
        stream.set_nodelay(true).unwrap();
        RawConn {
            stream,
            reader: FrameReader::new(1 << 20),
        }
    }

    /// Connects and completes the handshake.
    fn greeted(server: &Server) -> RawConn {
        let mut conn = RawConn::open(server);
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        assert!(matches!(conn.round_trip(hello), Response::Welcome { .. }));
        conn
    }

    /// Writes every request's frame in one `write_all`.
    fn send(&mut self, requests: &[Request]) {
        use std::io::Write;
        let burst: Vec<u8> = requests
            .iter()
            .flat_map(|r| frame_bytes(r.to_wire().as_bytes()))
            .collect();
        self.stream.write_all(&burst).unwrap();
    }

    fn recv(&mut self) -> Response {
        let payload = loop {
            match self.reader.read_frame(&mut self.stream).unwrap() {
                FrameEvent::Frame(p) => break p,
                FrameEvent::TimedOut => continue,
                FrameEvent::Eof => panic!("closed before answering"),
            }
        };
        Response::from_wire(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    fn round_trip(&mut self, request: Request) -> Response {
        self.send(&[request]);
        self.recv()
    }

    fn begin(&mut self, uid: i64) -> u64 {
        match self.round_trip(Request::Begin {
            bindings: uid_bindings(uid),
        }) {
            Response::Began { session } => session,
            other => panic!("expected began, got {other:?}"),
        }
    }
}

/// The value of the exposition sample named exactly `series`.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in:\n{text}"))
}

fn execute(session: u64, sql: &str) -> Request {
    Request::Execute {
        session,
        sql: sql.into(),
        bindings: vec![],
    }
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

    // The counters flow through the exposition, percentiles included.
    let text = c.metrics().unwrap();
    for line in [
        "bep_decisions_total{decision=\"allowed\"} 2\n",
        "bep_sessions 1\n",
        "bep_decision_latency_ns_count 2\n",
    ] {
        assert!(text.contains(line), "{line:?} missing from:\n{text}");
    }
    let p50 = sample(&text, "bep_decision_latency_ns{quantile=\"0.5\"}");
    let p99 = sample(&text, "bep_decision_latency_ns{quantile=\"0.99\"}");
    assert!(p99 >= p50 && p50 > 0, "p50 {p50}, p99 {p99}");

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
        // Well-formed frames whose tags the protocol does not have.
        br#"{"t":"prepare","session":1,"sql":"SELECT 1"}"#,
        br#"{"t":"execute_prepared","session":1,"plan":1,"bindings":[]}"#,
        br#"{"t":"stats"}"#,
    ] {
        match c.raw_round_trip(bad).unwrap() {
            Response::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::Malformed);
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    // Eight refused frames later, the same connection still works.
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
        Ok(Response::Error { kind, msg }) => {
            assert_eq!(kind, ErrorKind::Malformed);
            assert!(msg.contains("exceeds limit"), "{msg}");
        }
        other => panic!("expected oversized error, got {other:?}"),
    }
    // Framing is unrecoverable after an oversized announcement: the server
    // hangs up.
    match c.raw_round_trip(br#"{"t":"metrics"}"#) {
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn handshake_is_required_first() {
    let (server, _proxy) = start(ServerConfig::default());
    // Hand-roll a connection that skips hello.
    let mut conn = RawConn::open(&server);
    match conn.round_trip(Request::Metrics) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Unsupported),
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

/// Held by each test that makes a server turn connections away, so a
/// count of this process's reject threads sees one server's.
static REJECTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn connection_cap_answers_busy_with_the_server_load() {
    let _one_at_a_time = REJECTING.lock().unwrap_or_else(|e| e.into_inner());
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

/// Threads of this process named as reject threads (Linux keeps the first
/// 15 bytes of a thread's name).
#[cfg(target_os = "linux")]
fn reject_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    (tasks.flatten())
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with("bep-server-rej"))
        .count()
}

/// Past the admission cap every connection is turned away on a thread of
/// its own that drains the client for up to half a second. A flood of
/// connections held open must not buy one thread each: at most
/// `MAX_REJECT_THREADS` are live at once, and every connection past them
/// is closed at once, still counted as a busy rejection.
#[cfg(target_os = "linux")]
#[test]
fn rejected_connections_cost_a_bounded_number_of_threads() {
    use bep_server::server::MAX_REJECT_THREADS;
    const FLOOD: u64 = 200;
    let _one_at_a_time = REJECTING.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig {
        max_connections: 1,
        ..Default::default()
    };
    let (server, _proxy) = start(config);
    let holder = Client::connect(server.addr(), IO).unwrap();
    let mut most = 0;
    let mut turned_away = Vec::new();
    for _ in 0..FLOOD {
        turned_away.push(std::net::TcpStream::connect(server.addr()).unwrap());
        most = most.max(reject_threads());
    }
    let deadline = std::time::Instant::now() + IO;
    while server.busy_rejections() < FLOOD && std::time::Instant::now() < deadline {
        most = most.max(reject_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    most = most.max(reject_threads());
    assert_eq!(server.busy_rejections(), FLOOD);
    assert!(most > 0, "no reject thread was ever seen");
    assert!(
        most <= MAX_REJECT_THREADS,
        "{most} reject threads live at once, over the cap of {MAX_REJECT_THREADS}"
    );
    drop(turned_away);
    drop(holder);
    server.shutdown();
}

#[test]
fn pipelined_frames_get_ordered_responses() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut conn = RawConn::greeted(&server);
    let s = conn.begin(1);

    // A pipelined burst mixing an unlocking probe, the unlocked fetch, a
    // blocked statement, and a parse error — responses must come back in
    // request order with the same verdicts sequential execution gives.
    conn.send(&[
        execute(s, "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2"),
        execute(s, "SELECT * FROM Events WHERE EId = 2"),
        execute(s, "SELECT * FROM Events WHERE EId = 3"),
        execute(s, "SELEC whoops"),
    ]);
    let outcomes: Vec<Response> = (0..4).map(|_| conn.recv()).collect();
    assert!(
        matches!(&outcomes[0], Response::Rows { rows, .. } if rows.len() == 1),
        "{:?}",
        outcomes[0]
    );
    match &outcomes[1] {
        Response::Rows { rows, .. } => assert_eq!(rows[0][1], Value::str("standup")),
        other => panic!("probe must have unlocked the fetch, got {other:?}"),
    }
    match &outcomes[2] {
        Response::Blocked { reason, .. } => assert_eq!(reason, "not-determined"),
        other => panic!("expected blocked, got {other:?}"),
    }
    match &outcomes[3] {
        Response::Blocked { reason, .. } => assert_eq!(reason, "parse-error"),
        other => panic!("expected parse error, got {other:?}"),
    }

    // The journal saw the decisions in pipeline order.
    let Response::Journal { events, .. } = conn.round_trip(Request::Journal { after: 0, max: 100 })
    else {
        panic!("expected a journal page");
    };
    let verdicts: Vec<Verdict> = events.iter().map(|e| e.verdict).collect();
    use Verdict::{Allowed, Blocked};
    assert_eq!(verdicts, [Allowed, Allowed, Blocked, Blocked]);
    server.shutdown();
}

#[test]
fn a_journal_cursor_beyond_the_head_gets_an_empty_page() {
    let (server, _proxy) = start(ServerConfig::default());
    let mut conn = RawConn::greeted(&server);
    let s = conn.begin(1);
    let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    assert!(matches!(
        conn.round_trip(execute(s, sql)),
        Response::Rows { .. }
    ));
    let far = Request::Journal {
        after: i64::MAX as u64,
        max: 10,
    };
    match conn.round_trip(far) {
        Response::Journal {
            events, published, ..
        } => assert_eq!((events.len(), published), (0, 1)),
        other => panic!("expected a journal page, got {other:?}"),
    }
    // The connection is still served.
    assert!(matches!(
        conn.round_trip(execute(s, sql)),
        Response::Rows { .. }
    ));
    server.shutdown();
}

#[test]
fn pipelined_control_frames_follow_the_executes_before_them() {
    // `trace` and `end` pipelined behind an `execute` of the same session
    // must observe that decision: answers follow frame order.
    let (server, _proxy) = start(ServerConfig::default());
    let mut conn = RawConn::greeted(&server);
    let s = conn.begin(1);
    conn.send(&[
        execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
        Request::Trace { session: s },
        Request::End { session: s },
    ]);
    match conn.recv() {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
    match conn.recv() {
        Response::TraceSummary { entries, .. } => assert_eq!(entries, 1),
        other => panic!("expected a trace summary, got {other:?}"),
    }
    assert_eq!(conn.recv(), Response::Ended { was_live: true });
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

    // 8 clients × 10 rounds: 80 allowed probes, 40 allowed and 40 blocked
    // fetches, every one timed, and every stress session ended.
    let mut c = Client::connect(addr, IO).unwrap();
    let text = c.metrics().unwrap();
    for line in [
        "bep_decisions_total{decision=\"allowed\"} 120\n",
        "bep_decisions_total{decision=\"blocked\"} 40\n",
        "bep_sessions 0\n",
        "bep_decision_latency_ns_count 160\n",
    ] {
        assert!(text.contains(line), "{line:?} missing from:\n{text}");
    }
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
    match c.metrics() {
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
    // must come back intact through the `journal` and `metrics` frames of
    // a live server, and the `trace` frame must report the session's trace.
    let (server, proxy) = start(ServerConfig::default());
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
    let shape = sqlir::lift_literals(fetch).unwrap().shape;
    assert_eq!(page.events[2].template_hash, template_hash(&shape));
    assert!(page.events[0].phase(Phase::Proof) > 0, "{page:?}");
    assert!(page.events[0].total_ns > 0);
    assert!(page.events.iter().all(|e| e.session == s));

    // Paging: `after` resumes exactly where the last page ended.
    let rest = c.journal(page.events[1].seq + 1, 100).unwrap();
    assert_eq!(rest.events.len(), 1);
    assert_eq!(rest.events[0].seq, page.events[2].seq);

    // Trace frame: the session's trace size, as the proxy holds it.
    let trace = c.trace_summary(s).unwrap();
    let (entries, facts) = proxy.session_trace_len(s).unwrap();
    assert_eq!((trace.entries, trace.facts), (entries as u64, facts as u64));
    assert!(trace.entries > 0);

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
    let mut conn = RawConn::open(&server);

    let hello = frame_bytes(br#"{"t":"hello","v":1}"#);
    for chunk in hello.chunks(3) {
        use std::io::Write;
        conn.stream.write_all(chunk).unwrap();
        conn.stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(matches!(conn.recv(), Response::Welcome { .. }));
    server.shutdown();
}

/// The journal read over the wire with `journal {after, max}`, the way
/// `bep-top` reads it: a client pages with a cursor while traffic runs and
/// must see every published event exactly once, in order, or count it as
/// lost, and every loss must be one the replies' `evicted` numbers
/// account for. A 32-slot ring makes eviction the common case.
#[test]
fn journal_paging_delivers_each_event_once_or_counts_it_lost() {
    const CAP: usize = 32;
    let proxy = calendar_proxy_with(ProxyConfig {
        journal_capacity: CAP,
        ..ProxyConfig::default()
    });
    let server =
        Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    // Even sequence numbers are allowed by V1, odd ones blocked (no view
    // exposes other users' ids), so each event's content is checkable
    // from its sequence number alone.
    let stmts = |n: usize| -> Vec<(String, Vec<(String, Value)>)> {
        (0..n)
            .map(|i| {
                let sql = if i % 2 == 0 {
                    "SELECT EId FROM Attendance WHERE UId = ?MyUId"
                } else {
                    "SELECT UId FROM Attendance"
                };
                (sql.to_string(), Vec::new())
            })
            .collect()
    };
    let expected = |seq: u64| {
        if seq.is_multiple_of(2) {
            Verdict::Allowed
        } else {
            Verdict::Blocked
        }
    };

    // Overflow the ring while nobody reads: the first page is the
    // retained window, and the cursor charges exactly the evictions.
    let mut loader = Client::connect(addr, IO).unwrap();
    let session = loader.begin(uid_bindings(1)).unwrap();
    loader.execute_pipelined(session, &stmts(100)).unwrap();
    let mut reader = Client::connect(addr, IO).unwrap();
    let mut cursor = JournalCursor::default();
    let page = reader.journal(cursor.position(), 512).unwrap();
    assert_eq!((page.published, page.evicted), (100, 100 - CAP as u64));
    cursor.advance(&page.events, page.evicted);
    assert_eq!(cursor.dropped(), page.evicted, "lost = evicted");
    let mut delivered: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
    assert_eq!(delivered, (100 - CAP as u64..100).collect::<Vec<_>>());

    // More traffic while the reader pages in small steps: batch
    // boundaries depend on timing, the accounting may not.
    let total = 100 + 8 * 24;
    let traffic = std::thread::spawn(move || {
        for _ in 0..8 {
            loader.execute_pipelined(session, &stmts(24)).unwrap();
        }
        loader
    });
    while (delivered.len() as u64 + cursor.dropped()) < total {
        let from = cursor.position();
        let page = reader.journal(from, 8).unwrap();
        if let Some(first) = page.events.first() {
            // Every sequence number the page skipped had been evicted.
            assert!(first.seq <= from.max(page.evicted), "unaccounted gap");
        }
        for e in &page.events {
            assert!(delivered.last().is_none_or(|&last| e.seq > last), "order");
            assert_eq!(e.verdict, expected(e.seq), "content at seq {}", e.seq);
            delivered.push(e.seq);
        }
        cursor.advance(&page.events, page.evicted);
        assert!(cursor.position() <= page.published);
    }
    let mut loader = traffic.join().unwrap();
    let page = reader.journal(cursor.position(), 512).unwrap();
    assert!(page.events.is_empty());
    assert_eq!(page.published, total);
    assert_eq!(delivered.len() as u64 + cursor.dropped(), total);

    // A cursor past the head reads nothing and loses nothing, and then
    // picks up the first event published at its position.
    let mut ahead = JournalCursor::starting_at(total + 1);
    let page = reader.journal(ahead.position(), 512).unwrap();
    assert!(page.events.is_empty());
    ahead.advance(&page.events, page.evicted);
    assert_eq!((ahead.position(), ahead.dropped()), (total + 1, 0));
    loader.execute_pipelined(session, &stmts(2)).unwrap();
    let page = reader.journal(ahead.position(), 512).unwrap();
    ahead.advance(&page.events, page.evicted);
    assert_eq!(
        page.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
        [total + 1]
    );
    assert_eq!(ahead.dropped(), 0);
    server.shutdown();
}

/// The exposition's skeleton: every `# HELP`/`# TYPE` line and every
/// sample's name with its labels, in order, with the values masked.
fn skeleton(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| match l.starts_with('#') {
            true => l.to_string(),
            false => l
                .rsplit_once(' ')
                .expect("a sample has a value")
                .0
                .to_string(),
        })
        .collect()
}

#[test]
fn the_exposition_keeps_its_families_order_help_and_labels() {
    // A fixed script that moves every family: a template allow, a concrete
    // allow and a concrete denial, an enforced write, a passthrough, an
    // unchecked statement, one lint warning and one ended session.
    // The calendar, plus a table no view exports, for the lint to flag.
    let mut db = calendar_db();
    db.execute_sql("CREATE TABLE Lonely (X INT PRIMARY KEY)")
        .unwrap();
    let schema = schema_of_database(&db);
    let views = [
        ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
        (
            "V2",
            "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
        ),
    ];
    let policy = Policy::from_sql(&schema, &views).unwrap();
    let config = ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    };
    let checker = ComplianceChecker::new(schema, policy);
    let proxy = Arc::new(SqlProxy::new(db, checker, config));
    let server =
        Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(server.addr(), IO).unwrap();
    let s = c.begin(uid_bindings(1)).unwrap();
    let allowed = [
        "SELECT EId FROM Attendance WHERE UId = ?MyUId",
        "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
        "SELECT * FROM Events WHERE EId = 2",
        "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 2",
        "CREATE TABLE Scratch (X INT PRIMARY KEY)",
    ];
    for sql in allowed {
        assert!(c.execute(s, sql, &[]).unwrap().is_allowed(), "{sql}");
    }
    let denied = "SELECT * FROM Events WHERE EId = 3";
    assert!(!c.execute(s, denied, &[]).unwrap().is_allowed());
    proxy
        .execute_unchecked("SELECT 1 FROM Events", &[])
        .unwrap();
    let warnings = proxy.lint_templates(["SELECT X FROM Lonely"]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(c.end(s).unwrap());

    let text = c.metrics().unwrap();
    let summary = |name: &str| {
        [
            format!("{name}{{quantile=\"0.5\"}}"),
            format!("{name}{{quantile=\"0.95\"}}"),
            format!("{name}{{quantile=\"0.99\"}}"),
            format!("{name}_sum"),
            format!("{name}_count"),
        ]
    };
    let mut expected: Vec<String> = [
        "# HELP bep_decisions_total Decisions by final verdict",
        "# TYPE bep_decisions_total counter",
        "bep_decisions_total{decision=\"allowed\"}",
        "bep_decisions_total{decision=\"blocked\"}",
        "# HELP bep_cache_hits_total Cache hits by the tier that short-circuited the work",
        "# TYPE bep_cache_hits_total counter",
        "bep_cache_hits_total{tier=\"template\"}",
        "bep_cache_hits_total{tier=\"negative-template\"}",
        "bep_cache_hits_total{tier=\"session\"}",
        "bep_cache_hits_total{tier=\"deny\"}",
        "# HELP bep_proofs_total Fresh proofs by kind",
        "# TYPE bep_proofs_total counter",
        "bep_proofs_total{kind=\"template\"}",
        "bep_proofs_total{kind=\"concrete\"}",
        "bep_proofs_total{kind=\"concrete-denied\"}",
        "# HELP bep_writes_total DML statements passed through",
        "# TYPE bep_writes_total counter",
        "bep_writes_total",
        "# HELP bep_write_decisions_total Write decisions by verdict",
        "# TYPE bep_write_decisions_total counter",
        "bep_write_decisions_total{verdict=\"allowed\"}",
        "bep_write_decisions_total{verdict=\"blocked\"}",
        "bep_write_decisions_total{verdict=\"passthrough\"}",
        "# HELP bep_unchecked_statements_total Statements executed with enforcement bypassed",
        "# TYPE bep_unchecked_statements_total counter",
        "bep_unchecked_statements_total",
        "# HELP bep_decision_latency_ns End-to-end execute latency in nanoseconds",
        "# TYPE bep_decision_latency_ns summary",
    ]
    .map(String::from)
    .to_vec();
    expected.extend(summary("bep_decision_latency_ns"));
    expected.extend(
        [
            "# HELP bep_sessions Live sessions",
            "# TYPE bep_sessions gauge",
            "bep_sessions",
            "# HELP bep_journal_published Decision events ever published to the journal",
            "# TYPE bep_journal_published gauge",
            "bep_journal_published",
            "# HELP bep_journal_evicted Journal events evicted by ring wrap-around",
            "# TYPE bep_journal_evicted gauge",
            "bep_journal_evicted",
            "# HELP bep_process_resident_bytes Resident set size (RSS) of this process in bytes",
            "# TYPE bep_process_resident_bytes gauge",
            "bep_process_resident_bytes",
            "# HELP bep_process_vm_hwm_bytes Peak resident set size (VmHWM) of this process in bytes",
            "# TYPE bep_process_vm_hwm_bytes gauge",
            "bep_process_vm_hwm_bytes",
            "# HELP bep_span_solver_total Solver work rolled up from decision span summaries",
            "# TYPE bep_span_solver_total counter",
            "bep_span_solver_total{counter=\"rewrite-iterations\"}",
            "bep_span_solver_total{counter=\"containment-checks\"}",
            "bep_span_solver_total{counter=\"hom-nodes\"}",
            "bep_span_solver_total{counter=\"hom-backtracks\"}",
            "# HELP bep_mem_bytes Heap bytes currently owned, by component",
            "# TYPE bep_mem_bytes gauge",
            "bep_mem_bytes{component=\"plan-cache\"}",
            "bep_mem_bytes{component=\"session-state\"}",
            "bep_mem_bytes{component=\"journal\"}",
            "bep_mem_bytes{component=\"symbols\"}",
            "bep_mem_bytes{component=\"database\"}",
            "# HELP bep_session_state_bytes Heap bytes of a session's state when it ended",
            "# TYPE bep_session_state_bytes summary",
        ]
        .map(String::from),
    );
    expected.extend(summary("bep_session_state_bytes"));
    expected.extend(
        [
            "# HELP bep_policy_lint_warnings Startup policy-lint warnings (handler columns missing from view heads)",
            "# TYPE bep_policy_lint_warnings counter",
            "bep_policy_lint_warnings",
            "# HELP bep_cache_evictions_total Bounded-cache evictions by tier (SIEVE)",
            "# TYPE bep_cache_evictions_total counter",
            "bep_cache_evictions_total{tier=\"plan\"}",
            "bep_cache_evictions_total{tier=\"session-allow\"}",
            "bep_cache_evictions_total{tier=\"session-deny\"}",
            "# HELP bep_reactor_connections Connections currently held by the event loop",
            "# TYPE bep_reactor_connections gauge",
            "bep_reactor_connections",
            "# HELP bep_reactor_accepted_total Connections accepted by the event loop",
            "# TYPE bep_reactor_accepted_total counter",
            "bep_reactor_accepted_total",
            "# HELP bep_reactor_frames_total Request frames decoded by the event loop",
            "# TYPE bep_reactor_frames_total counter",
            "bep_reactor_frames_total",
            "# HELP bep_reactor_ticks_total Event-loop iterations (poll wakeups and timeouts)",
            "# TYPE bep_reactor_ticks_total counter",
            "bep_reactor_ticks_total",
        ]
        .map(String::from),
    );
    assert_eq!(skeleton(&text), expected, "{text}");

    // The script moved what it was written to move.
    for (series, value) in [
        ("bep_decisions_total{decision=\"allowed\"}", 3),
        ("bep_decisions_total{decision=\"blocked\"}", 1),
        ("bep_cache_hits_total{tier=\"negative-template\"}", 1),
        ("bep_proofs_total{kind=\"concrete\"}", 1),
        ("bep_proofs_total{kind=\"concrete-denied\"}", 1),
        ("bep_writes_total", 2),
        ("bep_write_decisions_total{verdict=\"allowed\"}", 1),
        ("bep_write_decisions_total{verdict=\"passthrough\"}", 1),
        ("bep_unchecked_statements_total", 1),
        ("bep_decision_latency_ns_count", 6),
        ("bep_sessions", 0),
        ("bep_journal_published", 6),
        ("bep_session_state_bytes_count", 1),
        ("bep_policy_lint_warnings", 1),
        ("bep_reactor_connections", 1),
        ("bep_reactor_accepted_total", 1),
    ] {
        assert_eq!(sample(&text, series), value, "{series} in:\n{text}");
    }
    server.shutdown();
}
