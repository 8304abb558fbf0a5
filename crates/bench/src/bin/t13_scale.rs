//! T13 — Scenario-fleet scale soak: the generated fleet (social, store,
//! review) at 10^5 users each, Zipf traffic with churning sessions driven
//! through the wire server, a decision-differential gate, a thread
//! sweep, and a resident-memory trajectory.
//!
//! Three experiments, in order:
//!
//! 1. **Differential gate** (always first): for every fleet app at a
//!    small population, one sequential caller drives the same seeded
//!    traffic stream over the wire (server + client), embedded
//!    (`SqlProxy::execute` in-process), and over the wire again with the
//!    same seed. Every per-statement outcome, the aggregate
//!    allowed/blocked counters, and the decision journals (template hash,
//!    verdict, cache tier) must match across all three — the server
//!    changes cost, never answers, and reruns repeat exactly.
//! 2. **Scale soak**: each (app, workers) cell populates the app
//!    at scale, starts a server, and lets `m` open-loop-ish workers each
//!    drive an independent traffic engine (derived seed, disjoint
//!    fresh-id range) over a persistent connection. The run is split
//!    into phases; at each phase boundary the driver samples process
//!    RSS, so the report carries a per-phase p50/p99 latency and a
//!    resident-memory-per-live-session trajectory. Decision errors — a
//!    handler request proxy-blocked, or a raw probe not blocked — must
//!    be zero in every cell.
//! 3. **Thread sweep**: workers m ∈ {1,2,4}. On a
//!    multi-core host the sweep asserts multi-worker throughput does not
//!    collapse; on a single core it only records the numbers.
//!
//! `--smoke` runs the gate plus two short social-app cells at 10^4 users
//! (seconds); the full run covers all 9 cells at 10^5 users and writes
//! `BENCH_t13.json`.
//!
//! `--users N` (e.g. `--users 1000000`) is the host-gated big cell: the
//! gate, then a single soak of the first fleet app at N
//! users. Populating 10^6 users takes minutes and gigabytes, so this
//! cell never runs in CI — results are recorded in `EXPERIMENTS.md`.
//!
//! Run: `cargo run -p bep-bench --bin t13_scale --release [-- --smoke]`

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use appdsl::{run_handler, App, DslError, Limits, Outcome, PortOutcome, QueryPort};
use appsim::AppSpec;
use bep_bench::{f2, header, row};
use bep_core::{read_process_memory, ComplianceChecker, ProxyConfig, ProxyResponse, SqlProxy};
use bep_scenario::{
    derive, fleet, GeneratedApp, TrafficConfig, TrafficEngine, TrafficOp, FRESH_ID_BASE,
};
use bep_server::{Client, ExecOutcome, Server, ServerConfig};
use minidb::Database;
use sqlir::Value;

/// Fleet seed: every population, traffic stream, and rerun hangs off it.
const FLEET_SEED: u64 = 1307;
/// Users per generated app in the full run.
const USERS_FULL: u64 = 100_000;
/// Users per generated app under `--smoke`.
const USERS_SMOKE: u64 = 10_000;
/// Users per app in the differential gate (kept small: the gate is about
/// decisions, not scale).
const GATE_USERS: u64 = 512;
/// Traffic ops per app per gate run.
const GATE_OPS: usize = 500;
/// Worker counts swept in the full run.
const SWEEP: [usize; 3] = [1, 2, 4];
/// Soak phases (RSS is sampled at each boundary).
const PHASES_FULL: usize = 4;
const PHASES_SMOKE: usize = 2;
/// Traffic ops per worker per phase.
const PHASE_OPS_FULL: usize = 6000;
const PHASE_OPS_SMOKE: usize = 400;
/// Per-operation client I/O timeout.
const IO: Duration = Duration::from_secs(30);

/// The system under test as the traffic driver sees it: over the wire,
/// or the proxy called in-process. Outcomes come back in the wire
/// client's form with the human-readable `detail` (which only the wire
/// carries) blanked, so the two are comparable entry by entry.
enum Front {
    Wire(Client),
    Embedded(Arc<SqlProxy>),
}

impl Front {
    fn begin(&mut self, uid: i64) -> u64 {
        let bindings = vec![("MyUId".into(), Value::Int(uid))];
        match self {
            Front::Wire(c) => c.begin(bindings).expect("begin"),
            Front::Embedded(p) => p.begin_session(bindings),
        }
    }

    fn end(&mut self, session: u64) {
        match self {
            Front::Wire(c) => {
                c.end(session).expect("end");
            }
            Front::Embedded(p) => {
                p.end_session(session);
            }
        }
    }

    fn execute(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ExecOutcome, String> {
        let blocked = |reason: String| ExecOutcome::Blocked {
            reason,
            detail: String::new(),
        };
        match self {
            Front::Wire(c) => match c.execute(session, sql, bindings) {
                Ok(ExecOutcome::Blocked { reason, .. }) => Ok(blocked(reason)),
                Ok(other) => Ok(other),
                Err(e) => Err(e.to_string()),
            },
            Front::Embedded(p) => match p.execute(session, sql, bindings) {
                Ok(ProxyResponse::Rows(r)) => Ok(ExecOutcome::Rows(r)),
                Ok(ProxyResponse::Affected(n)) => Ok(ExecOutcome::Affected(n as u64)),
                Ok(ProxyResponse::Blocked(reason)) => Ok(blocked(reason.label().to_string())),
                Err(e) => Err(e.to_string()),
            },
        }
    }
}

/// Forwards each handler statement to the front, optionally logging every
/// outcome (the gate compares those logs entry by entry).
struct FrontPort<'a> {
    front: &'a mut Front,
    session: u64,
    log: Option<Vec<String>>,
}

impl QueryPort for FrontPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let out = self
            .front
            .execute(self.session, sql, bindings)
            .map_err(DslError::Port)?;
        if let Some(log) = &mut self.log {
            log.push(format!("{out:?}"));
        }
        Ok(match out {
            ExecOutcome::Rows(r) => PortOutcome::Rows(r),
            ExecOutcome::Affected(n) => PortOutcome::Affected(n as usize),
            ExecOutcome::Blocked { reason, .. } => PortOutcome::Blocked(reason),
        })
    }
}

/// A populated app, ready to stamp out per-cell proxies.
struct PreparedApp {
    app: GeneratedApp,
    parsed: App,
    db: Database,
    rows: usize,
    populate_s: f64,
}

fn prepare(app: GeneratedApp) -> PreparedApp {
    let mut db = app.empty_db();
    let t0 = Instant::now();
    let rows = app.populate(&mut db).expect("populate");
    let populate_s = t0.elapsed().as_secs_f64();
    let parsed = app.app();
    PreparedApp {
        app,
        parsed,
        db,
        rows,
        populate_s,
    }
}

fn proxy_of(prep: &PreparedApp) -> Arc<SqlProxy> {
    let checker = ComplianceChecker::new(prep.app.schema(), prep.app.policy().expect("policy"));
    Arc::new(SqlProxy::new(
        prep.db.clone(),
        checker,
        ProxyConfig::default(),
    ))
}

// ------------------------------------------------------- differential gate

/// One sequential traffic replay, in comparable form.
struct GateRun {
    log: Vec<String>,
    allowed: u64,
    blocked: u64,
    /// Journal provenance: (template hash, verdict, cache tier).
    journal: Vec<(u64, &'static str, &'static str)>,
}

fn gate_cfg() -> TrafficConfig {
    TrafficConfig {
        target_sessions: 8,
        mean_session_len: 10.0,
        ..TrafficConfig::default()
    }
}

fn gate_run(prep: &PreparedApp, wire: bool, seed: u64) -> GateRun {
    let proxy = proxy_of(prep);
    let server = wire.then(|| {
        Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
            .expect("start server")
    });
    let mut front = match &server {
        Some(server) => Front::Wire(Client::connect(server.addr(), IO).expect("connect")),
        None => Front::Embedded(Arc::clone(&proxy)),
    };
    let mut engine = TrafficEngine::new(&prep.app, gate_cfg(), seed);
    let mut sessions: Vec<Option<u64>> = vec![None; gate_cfg().target_sessions];
    let mut log = Vec::with_capacity(GATE_OPS * 2);
    for _ in 0..GATE_OPS {
        match engine.next_op() {
            TrafficOp::Begin {
                slot,
                uid,
                user_index,
            } => {
                sessions[slot] = Some(front.begin(uid));
                log.push(format!("begin u{user_index}"));
            }
            TrafficOp::End { slot } => {
                front.end(sessions[slot].take().expect("live session"));
                log.push("end".to_string());
            }
            TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                let id = sessions[slot].expect("live session");
                let out = front.execute(id, &sql, &[]).expect("raw probe executes");
                log.push(format!("raw {out:?}"));
            }
            TrafficOp::Request { slot, request, .. } => {
                let id = sessions[slot].expect("live session");
                let handler = prep.parsed.handler(&request.handler).expect("handler");
                let mut port = FrontPort {
                    front: &mut front,
                    session: id,
                    log: Some(Vec::new()),
                };
                let result = run_handler(
                    &mut port,
                    handler,
                    &request.session,
                    &request.params,
                    Limits::default(),
                )
                .unwrap_or_else(|e| panic!("{}::{}: {e}", prep.app.name, request.handler));
                log.append(port.log.as_mut().expect("gate port logs"));
                log.push(format!("{}:{:?}", request.handler, result.outcome));
            }
        }
    }
    for id in sessions.iter().flatten() {
        front.end(*id);
    }
    drop(front);
    if let Some(server) = server {
        server.shutdown();
    }
    let stats = proxy.stats();
    let journal = proxy
        .journal()
        .events_since(0, usize::MAX)
        .into_iter()
        .map(|ev| (ev.template_hash, ev.verdict.label(), ev.tier.label()))
        .collect();
    GateRun {
        log,
        allowed: stats.allowed,
        blocked: stats.blocked,
        journal,
    }
}

fn compare_runs(name: &str, label: &str, a: &GateRun, b: &GateRun) -> usize {
    let mut mismatches = 0;
    if a.log.len() != b.log.len() {
        mismatches += 1;
        eprintln!(
            "{name} [{label}]: log lengths differ: {} vs {}",
            a.log.len(),
            b.log.len()
        );
    }
    for (i, (x, y)) in a.log.iter().zip(&b.log).enumerate() {
        if x != y {
            mismatches += 1;
            eprintln!("{name} [{label}] entry {i}: {x} vs {y}");
        }
    }
    if (a.allowed, a.blocked) != (b.allowed, b.blocked) {
        mismatches += 1;
        eprintln!(
            "{name} [{label}]: counters diverged: {}/{} vs {}/{}",
            a.allowed, a.blocked, b.allowed, b.blocked
        );
    }
    if a.journal != b.journal {
        mismatches += 1;
        eprintln!("{name} [{label}]: journal provenance diverged");
    }
    mismatches
}

/// Drives the same seeded traffic over the wire, embedded, and over the
/// wire again; returns (log entries, mismatches). Mismatches must be zero.
fn differential_gate(prep: &PreparedApp) -> (usize, usize) {
    let event = gate_run(prep, true, 99);
    let embedded = gate_run(prep, false, 99);
    let rerun = gate_run(prep, true, 99);
    let mut mismatches = compare_runs(&prep.app.name, "wire vs embedded", &event, &embedded);
    mismatches += compare_runs(&prep.app.name, "wire vs rerun", &event, &rerun);
    println!(
        "gate[{}]: {} log entries, {} journal events, {}/{} allowed/blocked, {} mismatches",
        prep.app.name,
        event.log.len(),
        event.journal.len(),
        event.allowed,
        event.blocked,
        mismatches
    );
    (event.log.len(), mismatches)
}

// ---------------------------------------------------------------- the soak

struct PhaseStat {
    ops: usize,
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    live_sessions: usize,
    resident_bytes: u64,
    rss_per_session_bytes: u64,
}

struct CellResult {
    app: String,
    workers: usize,
    ops: usize,
    wall_s: f64,
    throughput: f64,
    decision_errors: u64,
    sessions: u64,
    allowed: u64,
    blocked: u64,
    template_cache_hits: u64,
    template_negative_hits: u64,
    session_cache_hits: u64,
    deny_cache_hits: u64,
    template_proofs: u64,
    concrete_proofs: u64,
    phases: Vec<PhaseStat>,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// What each worker brings home from a soak cell.
struct WorkerReport {
    phase_latencies_us: Vec<Vec<f64>>,
    phase_live: Vec<usize>,
    ops: usize,
    decision_errors: u64,
    sessions_begun: u64,
}

/// One soak cell: `m` workers, each with its own connection, traffic
/// engine (derived seed, disjoint fresh-id range), and session slots,
/// against one server. The driver thread samples RSS at phase barriers.
fn soak(prep: &PreparedApp, m: usize, phases: usize, phase_ops: usize) -> CellResult {
    let proxy = proxy_of(prep);
    let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
        .expect("start server");
    let addr = server.addr();
    let baseline = read_process_memory().resident_bytes;
    let cell_seed = derive(prep.app.seed, 0xB13);

    let phase_end = Barrier::new(m + 1);
    let phase_resume = Barrier::new(m + 1);
    let mut rss_samples: Vec<(f64, u64)> = Vec::with_capacity(phases);

    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..m)
            .map(|w| {
                let (phase_end, phase_resume) = (&phase_end, &phase_resume);
                let (app, parsed) = (&prep.app, &prep.parsed);
                scope.spawn(move || {
                    let cfg = TrafficConfig::default();
                    let slots = cfg.target_sessions;
                    let mut engine = TrafficEngine::new(app, cfg, derive(cell_seed, w as u64))
                        .with_fresh_base(FRESH_ID_BASE + (w as i64 + 1) * 1_000_000_000);
                    let mut front = Front::Wire(Client::connect(addr, IO).expect("connect"));
                    let mut sessions: Vec<Option<u64>> = vec![None; slots];
                    let mut report = WorkerReport {
                        phase_latencies_us: Vec::with_capacity(phases),
                        phase_live: Vec::with_capacity(phases),
                        ops: 0,
                        decision_errors: 0,
                        sessions_begun: 0,
                    };
                    for _ in 0..phases {
                        let mut lat = Vec::with_capacity(phase_ops);
                        for _ in 0..phase_ops {
                            let t0 = Instant::now();
                            match engine.next_op() {
                                TrafficOp::Begin { slot, uid, .. } => {
                                    sessions[slot] = Some(front.begin(uid));
                                }
                                TrafficOp::End { slot } => {
                                    front.end(sessions[slot].take().expect("live session"));
                                }
                                TrafficOp::RawProbe { slot, sql }
                                | TrafficOp::RawWriteProbe { slot, sql } => {
                                    let id = sessions[slot].expect("live session");
                                    match front.execute(id, &sql, &[]) {
                                        Ok(ExecOutcome::Blocked { .. }) => {}
                                        // A raw probe that is not blocked is
                                        // a decision error, full stop.
                                        _ => report.decision_errors += 1,
                                    }
                                }
                                TrafficOp::Request { slot, request, .. } => {
                                    let id = sessions[slot].expect("live session");
                                    let handler =
                                        parsed.handler(&request.handler).expect("handler");
                                    let mut port = FrontPort {
                                        front: &mut front,
                                        session: id,
                                        log: None,
                                    };
                                    match run_handler(
                                        &mut port,
                                        handler,
                                        &request.session,
                                        &request.params,
                                        Limits::default(),
                                    ) {
                                        // The ground-truth policy admits the
                                        // app: no handler request — authorized
                                        // or probe — may be proxy-blocked.
                                        Ok(r) => {
                                            if matches!(r.outcome, Outcome::Blocked { .. }) {
                                                report.decision_errors += 1;
                                            }
                                        }
                                        Err(_) => report.decision_errors += 1,
                                    }
                                }
                            }
                            report.ops += 1;
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        report.phase_live.push(engine.live_sessions());
                        report.phase_latencies_us.push(lat);
                        phase_end.wait();
                        phase_resume.wait();
                    }
                    for id in sessions.iter().flatten() {
                        front.end(*id);
                    }
                    report.sessions_begun = engine.sessions_begun();
                    report
                })
            })
            .collect();

        let t0 = Instant::now();
        for _ in 0..phases {
            phase_end.wait();
            rss_samples.push((
                t0.elapsed().as_secs_f64(),
                read_process_memory().resident_bytes,
            ));
            phase_resume.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    server.shutdown();
    let stats = proxy.stats();

    let mut phase_stats = Vec::with_capacity(phases);
    for p in 0..phases {
        let mut lat: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.phase_latencies_us[p].iter().copied())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let live: usize = reports.iter().map(|r| r.phase_live[p]).sum();
        let (t_end, resident) = rss_samples[p];
        let t_start = if p == 0 { 0.0 } else { rss_samples[p - 1].0 };
        let growth = resident.saturating_sub(baseline);
        phase_stats.push(PhaseStat {
            ops: lat.len(),
            wall_s: t_end - t_start,
            p50_us: percentile(&lat, 50.0),
            p99_us: percentile(&lat, 99.0),
            live_sessions: live,
            resident_bytes: resident,
            rss_per_session_bytes: growth / live.max(1) as u64,
        });
    }
    let ops: usize = reports.iter().map(|r| r.ops).sum();
    let wall_s = rss_samples.last().expect("phases ran").0;
    CellResult {
        app: prep.app.name.clone(),
        workers: m,
        ops,
        wall_s,
        throughput: ops as f64 / wall_s,
        decision_errors: reports.iter().map(|r| r.decision_errors).sum(),
        sessions: reports.iter().map(|r| r.sessions_begun).sum(),
        allowed: stats.allowed,
        blocked: stats.blocked,
        template_cache_hits: stats.template_cache_hits,
        template_negative_hits: stats.template_negative_hits,
        session_cache_hits: stats.session_cache_hits,
        deny_cache_hits: stats.deny_cache_hits,
        template_proofs: stats.template_proofs,
        concrete_proofs: stats.concrete_proofs,
        phases: phase_stats,
    }
}

// ------------------------------------------------------------------- main

fn json_of(
    results: &[CellResult],
    preps: &[&PreparedApp],
    cores: usize,
    users: u64,
    gate: (usize, usize),
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"t13_scale\",\n");
    out.push_str(&format!("  \"host_parallelism\": {cores},\n"));
    out.push_str(&format!("  \"fleet_seed\": {FLEET_SEED},\n"));
    out.push_str(&format!("  \"users_per_app\": {users},\n"));
    out.push_str(&format!(
        "  \"differential_gate\": {{\"apps\": {}, \"gate_users\": {GATE_USERS}, \
         \"ops_per_app\": {GATE_OPS}, \"log_entries\": {}, \"mismatches\": {}}},\n",
        preps.len(),
        gate.0,
        gate.1
    ));
    out.push_str("  \"populations\": [\n");
    for (i, p) in preps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"rows\": {}, \"populate_s\": {:.2}}}{}\n",
            p.app.name,
            p.rows,
            p.populate_s,
            if i + 1 == preps.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"workers\": {}, \"ops\": {}, \
             \"wall_s\": {:.2}, \"throughput_ops_s\": {:.1}, \"decision_errors\": {}, \
             \"sessions\": {}, \"allowed\": {}, \"blocked\": {},\n",
            r.app,
            r.workers,
            r.ops,
            r.wall_s,
            r.throughput,
            r.decision_errors,
            r.sessions,
            r.allowed,
            r.blocked,
        ));
        out.push_str(&format!(
            "     \"cache\": {{\"template_hits\": {}, \"template_negative_hits\": {}, \
             \"session_hits\": {}, \"deny_hits\": {}, \"template_proofs\": {}, \
             \"concrete_proofs\": {}}},\n",
            r.template_cache_hits,
            r.template_negative_hits,
            r.session_cache_hits,
            r.deny_cache_hits,
            r.template_proofs,
            r.concrete_proofs,
        ));
        out.push_str("     \"phases\": [\n");
        for (j, ph) in r.phases.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"ops\": {}, \"wall_s\": {:.2}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"live_sessions\": {}, \"resident_mb\": {:.1}, \"rss_per_session_kb\": {}}}{}\n",
                ph.ops,
                ph.wall_s,
                ph.p50_us,
                ph.p99_us,
                ph.live_sessions,
                ph.resident_bytes as f64 / (1024.0 * 1024.0),
                ph.rss_per_session_bytes / 1024,
                if j + 1 == r.phases.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `--users N`: the host-gated single-cell run (see the module docs).
    let users_override = {
        let args: Vec<String> = std::env::args().collect();
        args.iter().position(|a| a == "--users").map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .expect("--users takes a positive integer")
        })
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");

    // Phase 1: the differential gate — always, before anything is soaked.
    let gate_preps: Vec<PreparedApp> = fleet(FLEET_SEED, GATE_USERS)
        .into_iter()
        .map(prepare)
        .collect();
    let mut gate_entries = 0;
    let mut mismatches = 0;
    for prep in &gate_preps {
        let (entries, miss) = differential_gate(prep);
        gate_entries += entries;
        mismatches += miss;
    }
    assert_eq!(
        mismatches, 0,
        "differential gate: generated-app decisions must be identical \
         over the wire, embedded, and across same-seed reruns"
    );

    // Phase 2: populate at scale and soak.
    let users = users_override.unwrap_or(if smoke { USERS_SMOKE } else { USERS_FULL });
    let (phases, phase_ops) = if smoke {
        (PHASES_SMOKE, PHASE_OPS_SMOKE)
    } else {
        (PHASES_FULL, PHASE_OPS_FULL)
    };
    // The big host-gated cell runs one app at one worker count — the
    // point is the population size, not the cell matrix.
    let single_app = smoke || users_override.is_some();
    let apps = if single_app {
        fleet(FLEET_SEED, users)
            .into_iter()
            .take(1)
            .collect::<Vec<_>>()
    } else {
        fleet(FLEET_SEED, users)
    };
    let sweep: &[usize] = if users_override.is_some() {
        &[2]
    } else if smoke {
        &[1]
    } else {
        &SWEEP
    };

    let preps: Vec<PreparedApp> = apps
        .into_iter()
        .map(|app| {
            let prep = prepare(app);
            println!(
                "populated {} with {} rows for {} users in {:.2}s",
                prep.app.name, prep.rows, users, prep.populate_s
            );
            prep
        })
        .collect();

    let widths = [8usize, 3, 7, 9, 10, 10, 6, 8, 8, 5];
    header(
        &[
            "app", "m", "ops", "ops/s", "p50-us", "p99-us", "rss/s-kb", "ok", "denied", "err",
        ],
        &widths,
    );
    let mut results: Vec<CellResult> = Vec::new();
    for prep in &preps {
        for &m in sweep {
            let r = soak(prep, m, phases, phase_ops);
            let last = r.phases.last().expect("phases");
            row(
                &[
                    r.app.clone(),
                    r.workers.to_string(),
                    r.ops.to_string(),
                    f2(r.throughput),
                    f2(last.p50_us),
                    f2(last.p99_us),
                    (last.rss_per_session_bytes / 1024).to_string(),
                    r.allowed.to_string(),
                    r.blocked.to_string(),
                    r.decision_errors.to_string(),
                ],
                &widths,
            );
            results.push(r);
        }
        println!();
    }

    // Zero decision errors in every cell — enforcement never blocks
    // handler traffic and always blocks raw probes, at any scale.
    for r in &results {
        assert_eq!(
            r.decision_errors, 0,
            "{} m={}: decision errors in a scale soak",
            r.app, r.workers
        );
    }

    // The memory claim. At the standard populations: a generous absolute
    // bound — steady-state resident bytes per live session stay tiny,
    // sessions are cheap, the population is not re-materialized per
    // session. At `--users` override scale the population's fixed RSS
    // dominates the numerator (10^6 users is gigabytes of base data
    // divided by ~10^2 live sessions), so the absolute ratio is
    // meaningless; what must still hold is the *trajectory* — per-session
    // residency flat across phases instead of growing with traffic.
    for r in &results {
        let first = r.phases.first().expect("phases");
        let last = r.phases.last().expect("phases");
        if users_override.is_none() {
            assert!(
                last.rss_per_session_bytes < 8 * 1024 * 1024,
                "{} m={}: {} bytes resident per live session",
                r.app,
                r.workers,
                last.rss_per_session_bytes
            );
        } else {
            assert!(
                last.rss_per_session_bytes <= 2 * first.rss_per_session_bytes,
                "{} m={}: per-session residency grew across phases: {} -> {}",
                r.app,
                r.workers,
                first.rss_per_session_bytes,
                last.rss_per_session_bytes
            );
        }
    }

    // Thread sweep: only assert scaling behavior when the host can
    // actually run workers in parallel; a 1-core host just records it.
    if !smoke && users_override.is_none() && cores >= 2 {
        for prep in &preps {
            let of = |m: usize| {
                results
                    .iter()
                    .find(|r| r.app == prep.app.name && r.workers == m)
                    .map(|r| r.throughput)
                    .unwrap_or(0.0)
            };
            let single = of(SWEEP[0]);
            let best = SWEEP[1..].iter().map(|&m| of(m)).fold(0.0, f64::max);
            println!(
                "{}: 1 worker {:.1} ops/s, best multi-worker {:.1} ops/s ({:+.1}%)",
                prep.app.name,
                single,
                best,
                (best / single - 1.0) * 100.0
            );
            assert!(
                best >= 0.8 * single,
                "{}: multi-worker throughput collapsed",
                prep.app.name
            );
        }
    }

    if smoke {
        println!("smoke: gate clean ({gate_entries} log entries), soak cells error-free");
        return;
    }
    if users_override.is_some() {
        let r = results.first().expect("one cell ran");
        let last = r.phases.last().expect("phases");
        println!(
            "\nbig cell: {} at {} users, {:.1} ops/s, {} KiB resident per live \
             session, 0 decision errors (record in EXPERIMENTS.md)",
            r.app,
            users,
            r.throughput,
            last.rss_per_session_bytes / 1024,
        );
        return;
    }

    let prep_refs: Vec<&PreparedApp> = preps.iter().collect();
    let json = json_of(&results, &prep_refs, cores, users, (gate_entries, 0));
    std::fs::write("BENCH_t13.json", &json).expect("write BENCH_t13.json");
    println!("\nwrote BENCH_t13.json ({} cells)", results.len());
}
