//! The traced run: where a statement's time goes, layer by layer.
//!
//! The program is not instrumented; every number here is taken from
//! outside, by replaying the same fixed prefix of the traffic stream
//! through one layer at a time and stamping a span around each call:
//!
//! * **U** — the prefix embedded and untraced: the generator's own
//!   numbers, and the baseline pass A's overhead and counters are held to.
//! * **A** — the prefix embedded and traced: the statement log (begin and
//!   end markers, texts, bindings, replies), spans `core.execute`,
//!   `core.begin_session`, `core.end_session` under `loadgen.op`, the
//!   proxy's own journal drained through a cursor, `stats()`.
//! * **B** — the allowed statements replayed in order on a clone of the
//!   populated database: span `minidb.exec`.
//! * **D** — `sqlir.parse` and `sqlir.bind` over the logged texts, and a
//!   cold `compile_plan` per distinct handler template.
//! * **E** — the log replayed over the wire against a fresh server: span
//!   `server.round_trip`, that proxy's journal, the null round trip.
//! * **C** — the codec over the logged requests and pass E's responses:
//!   `server.req_encode|req_decode|resp_encode|resp_decode`.
//!
//! Every pass runs for every workload — E also for the embedded ones,
//! where it prices what putting that traffic on the wire would cost — so
//! the four ledgers compare directly.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use bep_core::{
    compile_plan, template_hash, DecisionEvent, JournalCursor, Phase, ProxyStats, SqlProxy,
};
use bep_server::framing::{frame_bytes, FrameDecoder};
use bep_server::{Request, Response};
use minidb::{Database, ExecResult};
use sqlir::{bind_statement, parse_statement, ParamBindings, Value};

use crate::drive::{classify, session_bindings, Class, Driver, LogEntry, Recorder, Reply, Target};
use crate::e2e::{fleet_seed, prepare, traffic_seed, Check, Prepared, Stack};
use crate::metrics::LEDGER;
use crate::span::SpanLog;
use crate::stats::{mean, percentile, share, supported_tail};
use crate::workload::{checker_for, Deployment, Scale, Workload};

/// Null round trips timed for `server.null_rtt_ns`.
const NULL_ROUND_TRIPS: usize = 2000;
/// Connections timed for `server.connect_us`.
const CONNECTS: usize = 21;
/// A session id the server never issued: ending it is the cheapest frame.
const NO_SUCH_SESSION: u64 = 1 << 40;

/// What the traced run reports.
pub struct Ledger {
    /// Every metric of [`LEDGER`], by name; `None` where the sample does
    /// not support the statistic.
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Statements in the traced prefix.
    pub attempted: u64,
    /// Transport, typed and decision errors in pass A.
    pub failed: u64,
    /// The spans of every pass.
    pub spans: SpanLog,
}

/// Counter deltas over the window. The latency histogram is timing, not
/// a count, and is left at its default so that equality compares counts.
fn delta(after: ProxyStats, before: ProxyStats) -> ProxyStats {
    ProxyStats {
        allowed: after.allowed - before.allowed,
        blocked: after.blocked - before.blocked,
        template_cache_hits: after.template_cache_hits - before.template_cache_hits,
        template_proofs: after.template_proofs - before.template_proofs,
        template_negative_hits: after.template_negative_hits - before.template_negative_hits,
        session_cache_hits: after.session_cache_hits - before.session_cache_hits,
        deny_cache_hits: after.deny_cache_hits - before.deny_cache_hits,
        concrete_proofs: after.concrete_proofs - before.concrete_proofs,
        writes: after.writes - before.writes,
        write_allowed: after.write_allowed - before.write_allowed,
        write_blocked: after.write_blocked - before.write_blocked,
        write_passthrough: after.write_passthrough - before.write_passthrough,
        unchecked_statements: after.unchecked_statements - before.unchecked_statements,
        latency: Default::default(),
    }
}

/// One embedded drive over the prefix: warm-up, then `ops` measured ops.
struct Embedded {
    rec: Recorder,
    wall_s: f64,
    counters: ProxyStats,
    /// One journal event per statement, warm-up included (pass A only).
    events: Vec<DecisionEvent>,
    journal_dropped: u64,
    /// Ordinal of the first statement after warm-up.
    from: u32,
    proxy: Arc<SqlProxy>,
    live_sessions: usize,
}

fn embedded(prep: &Prepared, w: &Workload, scale: Scale, ops: usize, traced: bool) -> Embedded {
    let stack = Stack::start(prep.db.clone(), &prep.app, Deployment::Embedded);
    let proxy = &*stack.proxy;
    let mut driver = Driver::new(
        &prep.app,
        &prep.parsed,
        w.traffic(),
        traffic_seed(&prep.app),
        proxy,
        traced,
    )
    .with_max_session_len(w.max_session_len);
    let mut cursor = JournalCursor::default();
    let mut events = Vec::new();
    let mut step = |driver: &mut Driver<'_, &SqlProxy>| {
        driver.step();
        if traced {
            events.extend(proxy.journal().poll(&mut cursor, usize::MAX));
        }
    };
    for _ in 0..w.warmup(scale) {
        step(&mut driver);
    }
    driver.rec.open_window();
    let from = driver.rec.trace.as_ref().map_or(0, |t| t.stmts);
    let before = proxy.stats();
    let t0 = Instant::now();
    for _ in 0..ops {
        step(&mut driver);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let live_sessions = driver.live_sessions();
    Embedded {
        rec: driver.rec,
        wall_s,
        counters: delta(proxy.stats(), before),
        events,
        journal_dropped: cursor.dropped(),
        from,
        live_sessions,
        proxy: stack.proxy,
    }
}

/// The statements of a log with their ordinals, tracking which principal
/// holds each session slot.
fn statements(entries: &[LogEntry]) -> impl Iterator<Item = Stmt<'_>> {
    let mut uid_of_slot: BTreeMap<usize, i64> = BTreeMap::new();
    let mut ord = 0u32;
    entries.iter().filter_map(move |e| match e {
        LogEntry::Begin { slot, uid } => {
            uid_of_slot.insert(*slot, *uid);
            None
        }
        LogEntry::End { .. } => None,
        LogEntry::Stmt {
            slot,
            sql,
            bindings,
            handler,
            reply,
        } => {
            ord += 1;
            Some(Stmt {
                ord: ord - 1,
                uid: uid_of_slot[slot],
                sql,
                bindings,
                handler: *handler,
                reply,
            })
        }
    })
}

struct Stmt<'a> {
    ord: u32,
    uid: i64,
    sql: &'a str,
    bindings: &'a [(String, Value)],
    handler: bool,
    reply: &'a Reply,
}

impl Stmt<'_> {
    /// Session bindings overlaid with the request's, as the proxy binds.
    fn params(&self) -> ParamBindings {
        let mut pb = ParamBindings::new();
        for (k, v) in session_bindings(self.uid).iter().chain(self.bindings) {
            pb.set(k.clone(), v.clone());
        }
        pb
    }
}

/// Times `f` as a span when `on`, else just runs it.
fn maybe_time<R>(
    spans: &mut SpanLog,
    on: bool,
    name: &'static str,
    req: u32,
    f: impl FnOnce() -> R,
) -> R {
    if on {
        spans.time(name, req, None, f)
    } else {
        f()
    }
}

/// Pass B: returns the answers that differed from the proxy's.
fn replay_on_database(
    mut db: Database,
    entries: &[LogEntry],
    from: u32,
    spans: &mut SpanLog,
) -> u64 {
    let mut differing = 0;
    for s in statements(entries).filter(|s| s.reply.is_allowed()) {
        let stmt = parse_statement(s.sql).expect("the proxy allowed it, so it parses");
        let bound = bind_statement(&stmt, &s.params()).expect("and binds");
        let result = maybe_time(spans, s.ord >= from, "minidb.exec", s.ord, || {
            db.execute(&bound)
        });
        let same = match (result, s.reply) {
            (Ok(ExecResult::Rows(got)), Reply::Rows(want)) => got == *want,
            (Ok(ExecResult::Affected(got)), Reply::Affected(want)) => got as u64 == *want,
            _ => false,
        };
        differing += u64::from(!same);
    }
    differing
}

/// Pass D, statement half: parse and bind every measured text; returns
/// the share of measured statements whose text was never seen before.
fn parse_and_bind(entries: &[LogEntry], from: u32, spans: &mut SpanLog) -> f64 {
    let mut seen = HashSet::new();
    let (mut novel, mut measured) = (0u64, 0u64);
    for s in statements(entries) {
        let fresh = seen.insert(s.sql);
        if s.ord < from {
            continue;
        }
        measured += 1;
        novel += u64::from(fresh);
        let parsed = spans.time("sqlir.parse", s.ord, None, || parse_statement(s.sql));
        if let Ok(stmt) = parsed {
            let params = s.params();
            let _ = spans.time("sqlir.bind", s.ord, None, || bind_statement(&stmt, &params));
        }
    }
    share(novel as f64, measured as f64)
}

/// Pass D, template half: a cold compile per distinct handler template.
fn compile_templates(prep: &Prepared, entries: &[LogEntry], spans: &mut SpanLog) -> usize {
    let checker = checker_for(&prep.app);
    let templates: BTreeSet<&str> = statements(entries)
        .filter(|s| s.handler)
        .map(|s| s.sql)
        .collect();
    for (i, sql) in templates.iter().enumerate() {
        let _ = spans.time("qlogic.compile_plan", i as u32, None, || {
            compile_plan(&checker, sql, template_hash(sql), true, &mut |_| {})
        });
    }
    templates.len()
}

/// What pass E brings back.
struct WireReplay {
    replies: Vec<Reply>,
    events: Vec<DecisionEvent>,
    journal_dropped: u64,
    connect_us: f64,
    null_rtt_ns: f64,
    busy_rejections: u64,
    errors: u64,
}

/// Pass E: the log over the wire against a fresh server.
fn replay_over_wire(
    prep: &Prepared,
    entries: &[LogEntry],
    from: u32,
    spans: &mut SpanLog,
) -> WireReplay {
    let stack = Stack::start(prep.db.clone(), &prep.app, Deployment::Wire);
    let mut connect_ns = Vec::with_capacity(CONNECTS);
    let mut client = None;
    for _ in 0..CONNECTS {
        let t0 = Instant::now();
        client = Some(stack.connect());
        connect_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let mut client = client.expect("CONNECTS > 0");
    connect_ns.sort_unstable();

    let mut sessions: BTreeMap<usize, u64> = BTreeMap::new();
    let mut cursor = JournalCursor::default();
    let mut out = WireReplay {
        replies: Vec::new(),
        events: Vec::new(),
        journal_dropped: 0,
        connect_us: connect_ns[CONNECTS / 2] as f64 / 1e3,
        null_rtt_ns: 0.0,
        busy_rejections: 0,
        errors: 0,
    };
    let mut ord = 0u32;
    for entry in entries {
        match entry {
            LogEntry::Begin { slot, uid } => {
                sessions.insert(
                    *slot,
                    Target::begin(&mut client, *uid).expect("begin over the wire"),
                );
            }
            LogEntry::End { slot } => {
                let id = sessions.remove(slot).expect("the log ends live sessions");
                Target::end(&mut client, id).expect("end over the wire");
            }
            LogEntry::Stmt {
                slot,
                sql,
                bindings,
                ..
            } => {
                let id = sessions[slot];
                let reply = maybe_time(spans, ord >= from, "server.round_trip", ord, || {
                    Target::execute(&mut client, id, sql, bindings)
                });
                ord += 1;
                match reply {
                    Ok(reply) => out.replies.push(reply),
                    Err(e) => {
                        out.errors += 1;
                        out.replies.push(Reply::Blocked {
                            reason: format!("error: {e}"),
                            detail: String::new(),
                        });
                    }
                }
                out.events
                    .extend(stack.proxy.journal().poll(&mut cursor, usize::MAX));
            }
        }
    }
    // The server answers with a typed `no-such-session` error: no proxy
    // work, the smallest frames both ways.
    let null_frame = Request::End {
        session: NO_SUCH_SESSION,
    }
    .to_wire();
    let mut null_ns = Vec::with_capacity(NULL_ROUND_TRIPS);
    for _ in 0..NULL_ROUND_TRIPS {
        let t0 = Instant::now();
        client
            .raw_round_trip(null_frame.as_bytes())
            .expect("null round trip");
        null_ns.push(t0.elapsed().as_nanos() as u64);
    }
    null_ns.sort_unstable();
    out.null_rtt_ns = null_ns[NULL_ROUND_TRIPS / 2] as f64;
    out.busy_rejections = stack.server().busy_rejections();
    drop(client);
    let proxy = Arc::clone(&stack.proxy);
    stack.stop();
    // The reactor has been joined: whatever it published is visible now.
    out.events
        .extend(proxy.journal().poll(&mut cursor, usize::MAX));
    out.journal_dropped = cursor.dropped();
    out
}

/// Pass C: returns mean framed request and response bytes.
fn codec(entries: &[LogEntry], replies: &[Reply], from: u32, spans: &mut SpanLog) -> (f64, f64) {
    let (mut req_bytes, mut resp_bytes, mut n) = (0usize, 0usize, 0usize);
    let mut decoder = FrameDecoder::new(bep_server::framing::MAX_FRAME);
    // De-frame, check UTF-8, parse: what the receiving side does per frame.
    let mut unframe = |framed: &[u8]| {
        decoder.feed(framed);
        let payload = decoder
            .next_frame()
            .expect("well-formed frame")
            .expect("a whole frame was fed");
        String::from_utf8(payload).expect("the codec emits UTF-8")
    };
    for (s, reply) in statements(entries)
        .zip(replies)
        .filter(|(s, _)| s.ord >= from)
    {
        let request = Request::Execute {
            // Four-digit ids, as the sessions of pass E have.
            session: 1000 + s.ord as u64 % 64,
            sql: s.sql.to_string(),
            bindings: s.bindings.to_vec(),
        };
        let framed = spans.time("server.req_encode", s.ord, None, || {
            frame_bytes(request.to_wire().as_bytes())
        });
        req_bytes += framed.len();
        let decoded = spans.time("server.req_decode", s.ord, None, || {
            Request::from_wire(&unframe(&framed))
        });
        assert_eq!(decoded.as_ref(), Ok(&request), "request codec round trip");

        let response = match reply.clone() {
            Reply::Rows(rows) => Response::Rows {
                columns: rows.columns,
                rows: rows.rows,
            },
            Reply::Affected(n) => Response::Affected { n },
            Reply::Blocked { reason, detail } => Response::Blocked { reason, detail },
        };
        let framed = spans.time("server.resp_encode", s.ord, None, || {
            frame_bytes(response.to_wire().as_bytes())
        });
        resp_bytes += framed.len();
        let decoded = spans.time("server.resp_decode", s.ord, None, || {
            Response::from_wire(&unframe(&framed))
        });
        assert_eq!(decoded.as_ref(), Ok(&response), "response codec round trip");
        n += 1;
    }
    (
        share(req_bytes as f64, n as f64),
        share(resp_bytes as f64, n as f64),
    )
}

/// The ledger under construction.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Option<f64>>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, Some(value));
    }

    /// Mean, median and 99th percentile of one span family.
    fn distribution(&mut self, names: [&'static str; 3], ns: &[u64]) {
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        self.set(names[0], mean(ns));
        for (name, p) in [(names[1], 50.0), (names[2], 99.0)] {
            self.0
                .insert(name, percentile(&sorted, p).map(|x| x as f64));
        }
    }
}

/// Durations of the spans called `name`, by statement ordinal.
fn by_req(spans: &SpanLog, name: &str) -> BTreeMap<u32, u64> {
    spans
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.req, s.duration_ns()))
        .collect()
}

fn values(m: &BTreeMap<u32, u64>) -> Vec<u64> {
    m.values().copied().collect()
}

/// Replies agree on everything a caller can act on (the human-readable
/// detail of a block exists only on the wire).
fn same_outcome(a: &Reply, b: &Reply) -> bool {
    match (a, b) {
        (Reply::Blocked { reason: x, .. }, Reply::Blocked { reason: y, .. }) => x == y,
        _ => a == b,
    }
}

/// The `core.*` metrics: pass A's spans, journal, counters and gauges.
fn core_metrics(m: &mut Metrics, a: &Embedded, measured: &[Stmt<'_>], execute: &[u64]) {
    let from = a.from;
    let stmts = measured.len() as f64;
    m.distribution(
        [
            "core.execute_ns",
            "core.execute_p50_ns",
            "core.execute_p99_ns",
        ],
        execute,
    );
    let of = |keep: &dyn Fn(&Stmt<'_>) -> bool| -> Vec<u64> {
        measured
            .iter()
            .zip(execute)
            .filter(|(s, _)| keep(s))
            .map(|(_, &ns)| ns)
            .collect()
    };
    m.set("core.read_ns", mean(&of(&|s| classify(s.sql) == Class::Read)));
    let mut writes = of(&|s| classify(s.sql) == Class::Write);
    m.set("core.write_ns", mean(&writes));
    // The write tail is reported here and not gated end to end: on this
    // host it is the hypervisor's jitter more than the program's (README).
    // It was a gated tail and keeps that rule: the highest supported rank
    // where the prefix holds too few writes for the 99th.
    writes.sort_unstable();
    m.0.insert(
        "core.write_p99_ns",
        supported_tail(&writes, 99.0).map(|(ns, _)| ns as f64),
    );
    m.set("core.blocked_ns", mean(&of(&|s| !s.reply.is_allowed())));
    // Session spans carry the ordinal of the next statement, so the
    // window's are those at or past `from`.
    let trace = a.rec.trace.as_ref().expect("pass A traces");
    for (metric, name) in [
        ("core.begin_session_ns", "core.begin_session"),
        ("core.end_session_ns", "core.end_session"),
    ] {
        let ns: Vec<u64> = trace
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == name && s.req >= from)
            .map(|s| s.duration_ns())
            .collect();
        m.set(metric, mean(&ns));
    }

    // The proxy's own account of the same statements: exact nanoseconds
    // per phase from the journal, not the log2 histogram.
    let events = a.events.get(from as usize..).unwrap_or_default();
    for (metric, phase) in [
        ("core.phase.parse_ns", Phase::Parse),
        ("core.phase.template_lookup_ns", Phase::TemplateLookup),
        ("core.phase.concrete_lookup_ns", Phase::ConcreteLookup),
        ("core.phase.proof_ns", Phase::Proof),
        ("core.phase.db_exec_ns", Phase::DbExec),
        ("core.phase.trace_record_ns", Phase::TraceRecord),
    ] {
        let ns: Vec<u64> = events.iter().map(|e| e.phase(phase)).collect();
        m.set(metric, mean(&ns));
    }
    let in_phases: u64 = events.iter().flat_map(|e| e.phase_ns).sum();
    m.set(
        "core.phase.accounted_share",
        share(in_phases as f64, execute.iter().sum::<u64>() as f64),
    );

    let c = &a.counters;
    for (metric, count) in [
        ("core.tier.template_hit_share", c.template_cache_hits),
        (
            "core.tier.template_negative_share",
            c.template_negative_hits,
        ),
        ("core.tier.session_hit_share", c.session_cache_hits),
        ("core.tier.deny_hit_share", c.deny_cache_hits),
        ("core.tier.concrete_proof_share", c.concrete_proofs),
    ] {
        m.set(metric, share(count as f64, stmts));
    }
    m.set("core.tier.template_proofs", c.template_proofs as f64);
    m.set("core.write.allowed", c.write_allowed as f64);
    m.set("core.write.blocked", c.write_blocked as f64);
    let [(_, plan), (_, allow), (_, deny)] = a.proxy.cache_eviction_counts();
    m.set("core.cache.plan_evictions", plan as f64);
    m.set("core.cache.session_evictions", (allow + deny) as f64);
    let [(_, plan), (_, sessions), (_, journal), _] = a.proxy.component_heap_bytes();
    m.set("core.mem.plan_cache_kb", plan as f64 / 1024.0);
    m.set("core.mem.session_state_kb", sessions as f64 / 1024.0);
    m.set("core.mem.journal_kb", journal as f64 / 1024.0);
    m.set(
        "core.mem.state_per_session_bytes",
        share(sessions as f64, a.live_sessions as f64),
    );
}

/// The `server.*` timing metrics: pass E's round trips, less the wire
/// proxy's own clock and pass C's codec spans.
fn server_metrics(
    m: &mut Metrics,
    spans: &SpanLog,
    wire: &WireReplay,
    from: u32,
    allowed: &[u32],
    exec_mean: f64,
) {
    let codec_spans = [
        ("server.req_encode_ns", "server.req_encode"),
        ("server.req_decode_ns", "server.req_decode"),
        ("server.resp_encode_ns", "server.resp_encode"),
        ("server.resp_decode_ns", "server.resp_decode"),
    ]
    .map(|(metric, name)| {
        let ns = by_req(spans, name);
        m.set(metric, mean(&values(&ns)));
        ns
    });
    let round_trip = by_req(spans, "server.round_trip");
    let rt_all = values(&round_trip);
    m.distribution(
        [
            "server.round_trip_ns",
            "server.round_trip_p50_ns",
            "server.round_trip_p99_ns",
        ],
        &rt_all,
    );
    // What is left of a round trip once the wire proxy's own clock and
    // the codec are taken out: syscalls, loopback, the reactor, wake-ups.
    let events = wire.events.get(from as usize..).unwrap_or_default();
    let mut transport: Vec<u64> = round_trip
        .iter()
        .zip(events)
        .map(|((ord, &rt), ev)| {
            let codec: u64 = codec_spans.iter().map(|c| c[ord]).sum();
            rt.saturating_sub(ev.total_ns + codec)
        })
        .collect();
    m.set("server.transport_ns", mean(&transport));
    m.set(
        "server.unattributed_share",
        share(
            transport.iter().sum::<u64>() as f64,
            rt_all.iter().sum::<u64>() as f64,
        ),
    );
    transport.sort_unstable();
    m.0.insert(
        "server.transport_p50_ns",
        percentile(&transport, 50.0).map(|x| x as f64),
    );
    m.set("server.null_rtt_ns", wire.null_rtt_ns);
    let rt_allowed: Vec<u64> = allowed.iter().map(|ord| round_trip[ord]).collect();
    m.set("server.overhead_x", share(mean(&rt_allowed), exec_mean));
    m.set("server.connect_us", wire.connect_us);
    m.set("server.busy_rejections", wire.busy_rejections as f64);
}

/// Runs every pass over the workload's traced prefix.
pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale) -> Ledger {
    let prep = prepare(w, fleet_seed(seed, 0), scale);
    let ops = w.traced_ops(scale, seconds);
    let mut m = Metrics::default();
    let mut spans = SpanLog::default();

    // U and A: the same prefix, untraced then traced.
    let u = embedded(&prep, w, scale, ops, false);
    let a = embedded(&prep, w, scale, ops, true);
    let trace = a.rec.trace.as_ref().expect("pass A traces");
    let entries = &trace.entries[..];
    let from = a.from;
    let measured: Vec<Stmt<'_>> = statements(entries).filter(|s| s.ord >= from).collect();
    let allowed: Vec<&Stmt<'_>> = measured.iter().filter(|s| s.reply.is_allowed()).collect();
    let stmts = measured.len() as f64;
    let [[_, read_blocked], [write_ok, write_blocked]] = a.rec.verdicts;

    let (loadgen_share, loadgen_check) = Check::loadgen(&u.rec, u.wall_s);
    m.set("loadgen.share", loadgen_share);
    m.set("loadgen.stmts_per_op", share(stmts, a.rec.ops as f64));
    m.set(
        "loadgen.write_share",
        share((write_ok + write_blocked) as f64, stmts),
    );
    m.set(
        "loadgen.blocked_share",
        share((read_blocked + write_blocked) as f64, stmts),
    );
    m.set(
        "trace.overhead_pct",
        100.0 * (a.wall_s - u.wall_s) / u.wall_s,
    );
    m.set("trace.stmts", stmts);

    let execute = values(&by_req(&trace.spans, "core.execute")).split_off(from as usize);
    core_metrics(&mut m, &a, &measured, &execute);

    // B: the database alone.
    m.set("minidb.populate_s", prep.populate_s);
    m.set("minidb.rows", prep.rows as f64);
    let differing = replay_on_database(prep.db.clone(), entries, from, &mut spans);
    let exec = by_req(&spans, "minidb.exec");
    let exec_all = values(&exec);
    m.distribution(
        ["minidb.exec_ns", "minidb.exec_p50_ns", "minidb.exec_p99_ns"],
        &exec_all,
    );
    let exec_of = |class: Class| -> Vec<u64> {
        allowed
            .iter()
            .filter(|s| classify(s.sql) == class)
            .map(|s| exec[&s.ord])
            .collect()
    };
    m.set("minidb.read_ns", mean(&exec_of(Class::Read)));
    m.set("minidb.write_ns", mean(&exec_of(Class::Write)));
    let rows_read: Vec<u64> = allowed
        .iter()
        .filter_map(|s| match s.reply {
            Reply::Rows(rows) => Some(rows.rows.len() as u64),
            _ => None,
        })
        .collect();
    m.set("minidb.rows_per_read", mean(&rows_read));
    // Blockaid's metric: what enforcement costs over the bare database,
    // on the statements that reach the database.
    let execute_allowed: Vec<u64> = measured
        .iter()
        .zip(&execute)
        .filter(|(s, _)| s.reply.is_allowed())
        .map(|(_, &ns)| ns)
        .collect();
    m.set("core.decision_ns", mean(&execute_allowed) - mean(&exec_all));
    m.set(
        "core.overhead_x",
        share(mean(&execute_allowed), mean(&exec_all)),
    );

    // D: the front of the pipeline, and the cost of a template.
    let novel = parse_and_bind(entries, from, &mut spans);
    m.set("sqlir.parse_ns", mean(&spans.durations("sqlir.parse")));
    m.set("sqlir.bind_ns", mean(&spans.durations("sqlir.bind")));
    m.set("sqlir.novel_text_share", novel);
    let templates = compile_templates(&prep, entries, &mut spans);
    m.set(
        "qlogic.plan_compile_us",
        mean(&spans.durations("qlogic.compile_plan")) / 1e3,
    );
    m.set("qlogic.templates", templates as f64);

    // E and C: the wire.
    let wire = replay_over_wire(&prep, entries, from, &mut spans);
    let (req_bytes, resp_bytes) = codec(entries, &wire.replies, from, &mut spans);
    m.set("server.req_bytes", req_bytes);
    m.set("server.resp_bytes", resp_bytes);
    let allowed_ords: Vec<u32> = allowed.iter().map(|s| s.ord).collect();
    server_metrics(&mut m, &spans, &wire, from, &allowed_ords, mean(&exec_all));

    // Checks.
    let journal_dropped = a.journal_dropped + wire.journal_dropped;
    m.set("core.journal.dropped", journal_dropped as f64);
    let logged: Vec<&Reply> = statements(entries).map(|s| s.reply).collect();
    let wire_differs = logged
        .iter()
        .zip(&wire.replies)
        .filter(|(a, e)| !same_outcome(a, e))
        .count()
        + logged.len().abs_diff(wire.replies.len());
    let checks = vec![
        Check::new(
            "fail_share == 0",
            a.rec.failed() + u.rec.failed() + wire.errors == 0,
            format!(
                "pass A {} + pass U {} + pass E {} errors in {stmts} statements",
                a.rec.failed(),
                u.rec.failed(),
                wire.errors,
            ),
        ),
        Check::new(
            "wire == embedded (pass E's outcomes equal pass A's)",
            wire_differs == 0,
            format!("{wire_differs} of {} outcomes differ", logged.len()),
        ),
        Check::new(
            "enforcement never changes an answer (pass B's results equal the proxy's)",
            differing == 0,
            format!(
                "{differing} of {} allowed statements differ",
                logged.iter().filter(|r| r.is_allowed()).count()
            ),
        ),
        Check::both_verdicts(&a.rec),
        Check::new(
            "core.journal.dropped == 0, one event per statement",
            journal_dropped == 0
                && a.events.len() == logged.len()
                && wire.events.len() == logged.len(),
            format!(
                "{journal_dropped} dropped; {} (A) and {} (E) events for {} statements",
                a.events.len(),
                wire.events.len(),
                logged.len()
            ),
        ),
        Check::new(
            "counters identical between the untraced prefix and the traced run",
            u.counters == a.counters && u.rec.verdicts == a.rec.verdicts,
            format!(
                "untraced {:?} vs traced {:?}",
                u.rec.verdicts, a.rec.verdicts
            ),
        ),
        loadgen_check,
    ];

    let failed = a.rec.failed() + wire.errors + differing + wire_differs as u64;
    spans.absorb(a.rec.trace.expect("pass A traces").spans);
    m.set("trace.spans", spans.spans().len() as f64);
    assert!(
        LEDGER.iter().all(|l| m.0.contains_key(l.name)) && m.0.len() == LEDGER.len(),
        "the ledger and its table list the same metrics"
    );
    Ledger {
        metrics: m.0,
        checks,
        attempted: stmts as u64,
        failed,
        spans,
    }
}
