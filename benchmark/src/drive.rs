//! The load generator: one closed-loop client that turns the fleet's
//! traffic ops into statements against a [`Target`] and times each one.
//!
//! The unit of work is one statement — one `execute` call or round trip —
//! timed around that call only. Interpreter time between a handler's
//! statements belongs to the generator and is reported as `loadgen.share`.

use std::time::{Duration, Instant};

use appdsl::{run_handler, App, DslError, Limits, Outcome, PortOutcome, QueryPort};
use bep_core::{ProxyResponse, SqlProxy};
use bep_scenario::{GeneratedApp, TrafficConfig, TrafficEngine, TrafficOp};
use bep_server::{Client, ExecOutcome};
use minidb::Rows;
use sqlir::Value;

use crate::span::{Span, SpanLog};

/// Bounds every client read and write; far above any statement here.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What a statement came back with, in a form both deployments share.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Rows of an allowed `SELECT`.
    Rows(Rows),
    /// Row count of an allowed mutation.
    Affected(u64),
    /// Blocked by the policy.
    Blocked {
        /// Stable reason label.
        reason: String,
        /// Human-readable detail (only the wire carries one).
        detail: String,
    },
}

impl Reply {
    /// `true` unless the statement was blocked.
    pub fn is_allowed(&self) -> bool {
        !matches!(self, Reply::Blocked { .. })
    }
}

impl From<ProxyResponse> for Reply {
    fn from(r: ProxyResponse) -> Reply {
        match r {
            ProxyResponse::Rows(rows) => Reply::Rows(rows),
            ProxyResponse::Affected(n) => Reply::Affected(n as u64),
            ProxyResponse::Blocked(reason) => Reply::Blocked {
                reason: reason.label().to_string(),
                detail: String::new(),
            },
        }
    }
}

impl From<ExecOutcome> for Reply {
    fn from(o: ExecOutcome) -> Reply {
        match o {
            ExecOutcome::Rows(rows) => Reply::Rows(rows),
            ExecOutcome::Affected(n) => Reply::Affected(n),
            ExecOutcome::Blocked { reason, detail } => Reply::Blocked { reason, detail },
        }
    }
}

/// The system under test as the caller sees it.
pub trait Target {
    /// Opens a session for the principal `uid`.
    fn begin(&mut self, uid: i64) -> Result<u64, String>;
    /// Ends a session.
    fn end(&mut self, session: u64) -> Result<(), String>;
    /// Runs one statement under enforcement.
    fn execute(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<Reply, String>;
}

/// The session binding every fleet policy is parameterised by.
pub fn session_bindings(uid: i64) -> Vec<(String, Value)> {
    vec![("MyUId".to_string(), Value::Int(uid))]
}

impl Target for &SqlProxy {
    fn begin(&mut self, uid: i64) -> Result<u64, String> {
        Ok(self.begin_session(session_bindings(uid)))
    }

    fn end(&mut self, session: u64) -> Result<(), String> {
        self.end_session(session);
        Ok(())
    }

    fn execute(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<Reply, String> {
        SqlProxy::execute(self, session, sql, bindings)
            .map(Reply::from)
            .map_err(|e| e.to_string())
    }
}

impl Target for Client {
    fn begin(&mut self, uid: i64) -> Result<u64, String> {
        Client::begin(self, session_bindings(uid)).map_err(|e| e.to_string())
    }

    fn end(&mut self, session: u64) -> Result<(), String> {
        Client::end(self, session)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn execute(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<Reply, String> {
        Client::execute(self, session, sql, bindings)
            .map(Reply::from)
            .map_err(|e| e.to_string())
    }
}

/// Statement class as the caller sees it: `SELECT` or a mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `SELECT`.
    Read = 0,
    /// `INSERT`, `UPDATE` or `DELETE`.
    Write = 1,
}

/// Classifies by leading keyword — the load generator must not pay for a
/// parse per statement. `tests/classify.rs` holds this equal to
/// `sqlir::Statement` on everything the fleet emits.
pub fn classify(sql: &str) -> Class {
    let head = sql.trim_start().as_bytes();
    if head.len() >= 6 && head[..6].eq_ignore_ascii_case(b"select") {
        Class::Read
    } else {
        Class::Write
    }
}

/// One entry of the traced run's statement log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A session was opened in `slot` for `uid`.
    Begin {
        /// Load-generator session slot.
        slot: usize,
        /// Principal.
        uid: i64,
    },
    /// The session in `slot` was ended.
    End {
        /// Load-generator session slot.
        slot: usize,
    },
    /// One statement and what it came back with.
    Stmt {
        /// Load-generator session slot.
        slot: usize,
        /// SQL text as sent.
        sql: String,
        /// Request bindings as sent.
        bindings: Vec<(String, Value)>,
        /// Whether a handler issued it (else a raw probe).
        handler: bool,
        /// The reply.
        reply: Reply,
    },
}

/// The statement log and spans a traced drive records.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Every begin, end and statement, warm-up included, in order.
    pub entries: Vec<LogEntry>,
    /// `loadgen.op` ⊃ `core.execute` | `core.begin_session` |
    /// `core.end_session`; `req` is the statement ordinal (the op ordinal
    /// for `loadgen.op`).
    pub spans: SpanLog,
    /// Statements logged so far: the next statement's ordinal.
    pub stmts: u32,
    ops: u32,
    open_op: Option<u32>,
}

/// What one drive measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency of each `SELECT`, nanoseconds, in issue order.
    pub read_ns: Vec<u64>,
    /// Latency of each mutation, nanoseconds, in issue order.
    pub write_ns: Vec<u64>,
    /// Nanoseconds spent inside the target (statements, begin, end).
    pub target_ns: u64,
    /// Traffic ops completed.
    pub ops: u64,
    /// Statements and handler runs that failed in transport or with a
    /// typed error.
    pub transport_errors: u64,
    /// Handler requests the proxy blocked, and raw probes it did not.
    pub decision_errors: u64,
    /// Statements by class (read, write) and verdict (allowed, blocked).
    pub verdicts: [[u64; 2]; 2],
    /// Present on a traced drive.
    pub trace: Option<TraceLog>,
}

impl Recorder {
    /// Statements attempted.
    pub fn statements(&self) -> u64 {
        self.verdicts.iter().flatten().sum::<u64>() + self.transport_errors
    }

    /// Transport plus decision errors.
    pub fn failed(&self) -> u64 {
        self.transport_errors + self.decision_errors
    }

    /// `true` when allowed and blocked statements of both classes ran.
    pub fn both_verdicts_on_both_classes(&self) -> bool {
        self.verdicts.iter().flatten().all(|&n| n > 0)
    }

    /// Forgets the samples taken so far (the window opens after warm-up)
    /// but keeps the traced log, which replays need from the first op.
    pub fn open_window(&mut self) {
        let trace = self.trace.take();
        *self = Recorder {
            trace,
            ..Recorder::default()
        };
    }

    /// Adds another untraced window's samples and counts to this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.target_ns += other.target_ns;
        self.ops += other.ops;
        self.transport_errors += other.transport_errors;
        self.decision_errors += other.decision_errors;
        for (mine, theirs) in self
            .verdicts
            .iter_mut()
            .flatten()
            .zip(other.verdicts.iter().flatten())
        {
            *mine += theirs;
        }
    }

    /// Times one call into the target, as a span when tracing.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.trace.as_ref().map(|t| t.spans.now_ns());
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.target_ns += ns;
        if let (Some(trace), Some(start_ns)) = (&mut self.trace, start_ns) {
            trace.spans.push(Span {
                name,
                req: trace.stmts,
                parent: trace.open_op,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        (out, ns)
    }

    /// Runs, times, classifies and (when tracing) logs one statement.
    fn statement(
        &mut self,
        target: &mut impl Target,
        (slot, session): (usize, u64),
        sql: &str,
        bindings: &[(String, Value)],
        handler: bool,
    ) -> Result<Reply, String> {
        let (result, ns) = self.timed("core.execute", || target.execute(session, sql, bindings));
        let reply = result?;
        let class = classify(sql);
        match class {
            Class::Read => self.read_ns.push(ns),
            Class::Write => self.write_ns.push(ns),
        }
        self.verdicts[class as usize][usize::from(!reply.is_allowed())] += 1;
        if let Some(trace) = &mut self.trace {
            trace.stmts += 1;
            trace.entries.push(LogEntry::Stmt {
                slot,
                sql: sql.to_string(),
                bindings: bindings.to_vec(),
                handler,
                reply: reply.clone(),
            });
        }
        Ok(reply)
    }
}

/// Forwards a handler's statements to the target through the recorder.
struct Port<'r, T: Target> {
    target: &'r mut T,
    rec: &'r mut Recorder,
    session: (usize, u64),
}

impl<T: Target> QueryPort for Port<'_, T> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let reply = self
            .rec
            .statement(self.target, self.session, sql, bindings, true)
            .map_err(DslError::Port)?;
        Ok(match reply {
            Reply::Rows(rows) => PortOutcome::Rows(rows),
            Reply::Affected(n) => PortOutcome::Affected(n as usize),
            Reply::Blocked { reason, .. } => PortOutcome::Blocked(reason),
        })
    }
}

/// The closed-loop client: the fleet's traffic engine, its session slots,
/// a target and a recorder.
pub struct Driver<'a, T: Target> {
    parsed: &'a App,
    engine: TrafficEngine<'a>,
    sessions: Vec<Option<u64>>,
    /// Per slot: the principal and the requests its session has served.
    served: Vec<(i64, u64)>,
    max_session_len: Option<u64>,
    /// The system under test.
    pub target: T,
    /// What was measured so far.
    pub rec: Recorder,
}

impl<'a, T: Target> Driver<'a, T> {
    /// A driver whose op stream is fixed by `(app, cfg, seed)`.
    pub fn new(
        app: &'a GeneratedApp,
        parsed: &'a App,
        cfg: TrafficConfig,
        seed: u64,
        target: T,
        traced: bool,
    ) -> Driver<'a, T> {
        Driver {
            parsed,
            sessions: vec![None; cfg.target_sessions],
            served: vec![(0, 0); cfg.target_sessions],
            max_session_len: None,
            engine: TrafficEngine::new(app, cfg, seed),
            target,
            rec: Recorder {
                trace: traced.then(TraceLog::default),
                ..Recorder::default()
            },
        }
    }

    /// Bounds what one proxy session serves: a slot whose session has
    /// served `max` requests ends it and begins a fresh one for the same
    /// principal before its next request, as an application that
    /// re-authenticates would.
    ///
    /// Why: a statement's cost grows faster than linearly with the age of
    /// its session (the trace it is checked against), and the engine draws
    /// session lengths geometrically, so without a bound the rare session
    /// of several times the mean decides a window's throughput.
    pub fn with_max_session_len(mut self, max: Option<u64>) -> Self {
        self.max_session_len = max;
        // Every slot opens at op 0. Charging slot i's first session with
        // a different head start spreads the renewals evenly over the
        // bound, so the mix of session ages settles within one bound's
        // worth of requests per slot and does not saw from then on.
        let n = self.served.len() as u64;
        for (i, slot) in self.served.iter_mut().enumerate() {
            slot.1 = max.map_or(0, |max| max * (n - 1 - i as u64) / n);
        }
        self
    }

    /// Ends and reopens the session in `slot` if it has served its bound,
    /// then counts the request about to run.
    fn renew_if_spent(&mut self, slot: usize) {
        let (uid, served) = self.served[slot];
        if self.max_session_len.is_some_and(|max| served >= max) {
            let rec = &mut self.rec;
            let id = self.sessions[slot].take().expect("live session");
            let (ended, _) = rec.timed("core.end_session", || self.target.end(id));
            ended.expect("end session");
            let (id, _) = rec.timed("core.begin_session", || self.target.begin(uid));
            self.sessions[slot] = Some(id.expect("begin session"));
            if let Some(trace) = &mut rec.trace {
                trace.entries.push(LogEntry::End { slot });
                trace.entries.push(LogEntry::Begin { slot, uid });
            }
            self.served[slot].1 = 0;
        }
        self.served[slot].1 += 1;
    }

    /// Sessions currently open.
    pub fn live_sessions(&self) -> usize {
        self.engine.live_sessions()
    }

    /// Runs the next traffic op to completion.
    ///
    /// # Panics
    /// When a session cannot be opened or ended: nothing after that could
    /// be measured.
    pub fn step(&mut self) {
        let op = self.engine.next_op();
        if let Some(trace) = &mut self.rec.trace {
            trace.open_op = Some(trace.spans.open("loadgen.op", trace.ops));
            trace.ops += 1;
        }
        if let TrafficOp::Request { slot, .. }
        | TrafficOp::RawProbe { slot, .. }
        | TrafficOp::RawWriteProbe { slot, .. } = op
        {
            self.renew_if_spent(slot);
        }
        let rec = &mut self.rec;
        match op {
            TrafficOp::Begin { slot, uid, .. } => {
                self.served[slot].0 = uid;
                let (id, _) = rec.timed("core.begin_session", || self.target.begin(uid));
                self.sessions[slot] = Some(id.expect("begin session"));
                if let Some(trace) = &mut rec.trace {
                    trace.entries.push(LogEntry::Begin { slot, uid });
                }
            }
            TrafficOp::End { slot } => {
                self.served[slot].1 = 0;
                let id = self.sessions[slot].take().expect("live session");
                let (ended, _) = rec.timed("core.end_session", || self.target.end(id));
                ended.expect("end session");
                if let Some(trace) = &mut rec.trace {
                    trace.entries.push(LogEntry::End { slot });
                }
            }
            TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                let session = (slot, self.sessions[slot].expect("live session"));
                match rec.statement(&mut self.target, session, &sql, &[], false) {
                    Ok(reply) if reply.is_allowed() => rec.decision_errors += 1,
                    Ok(_) => {}
                    Err(_) => rec.transport_errors += 1,
                }
            }
            TrafficOp::Request { slot, request, .. } => {
                let session = (slot, self.sessions[slot].expect("live session"));
                let handler = self
                    .parsed
                    .handler(&request.handler)
                    .expect("the fleet only requests its own handlers");
                let mut port = Port {
                    target: &mut self.target,
                    rec,
                    session,
                };
                let run = run_handler(
                    &mut port,
                    handler,
                    &request.session,
                    &request.params,
                    Limits::default(),
                );
                // The ground-truth policy admits the application: no
                // handler request, authorised or probe, may be blocked.
                match run {
                    Ok(r) if matches!(r.outcome, Outcome::Blocked { .. }) => {
                        rec.decision_errors += 1
                    }
                    Ok(_) => {}
                    Err(_) => rec.transport_errors += 1,
                }
            }
        }
        if let Some(trace) = &mut rec.trace {
            let op = trace.open_op.take().expect("opened above");
            trace.spans.close(op);
        }
        rec.ops += 1;
    }
}
