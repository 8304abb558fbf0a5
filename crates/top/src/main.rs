//! `bep-top` — a live terminal view of a running enforcement server.
//!
//! Two connections do all the work. The first `subscribe`s to the
//! decision journal and folds every pushed event into per-template
//! panes — decision counts, verdict split, latency, solver-span counter
//! averages, and which cache tier answered — and into the exact mean
//! time per decision phase across all of them. The second scrapes the
//! Prometheus exposition and `stats` snapshot each frame for the
//! byte-accurate memory gauges (`bep_mem_bytes{component=...}`) and the
//! server-wide latency percentiles.
//!
//! Point it at a server (for example `serve_calendar`):
//!
//! ```text
//! bep-top 127.0.0.1:4270
//! ```
//!
//! Or let it spin up its own in-process demo server with synthetic
//! traffic — also the CI smoke path, since it needs no orchestration:
//!
//! ```text
//! bep-top --demo --frames 3 --interval-ms 200
//! ```
//!
//! Flags:
//!
//! * `--frames N` — render `N` frames to stdout and exit (headless mode,
//!   plain text). Without it, bep-top runs until interrupted and
//!   repaints the terminal in place.
//! * `--interval-ms M` — frame interval (default 1000).
//! * `--top K` — show the `K` busiest templates (default 10).
//! * `--demo` — serve a tiny calendar policy locally and generate
//!   alternating allowed/blocked traffic against it.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bep_core::{
    schema_of_database, ComplianceChecker, Policy, ProxyConfig, SqlProxy, Verdict, PHASE_COUNT,
};
use bep_server::{Client, ClientError, EventBatch, Server, ServerConfig, WireStats};
use minidb::Database;
use sqlir::Value;

/// How long one `next_events` read may block inside a frame: short
/// enough to keep the frame cadence honest, long enough to not spin.
const STREAM_TICK: Duration = Duration::from_millis(200);

fn main() {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--demo" => opts.demo = true,
            "--frames" => opts.frames = req_num(&mut args, "--frames"),
            "--interval-ms" => {
                opts.interval = Duration::from_millis(req_num(&mut args, "--interval-ms"))
            }
            "--top" => opts.top = req_num(&mut args, "--top") as usize,
            "--help" | "-h" => {
                println!("usage: bep-top [ADDR] [--demo] [--frames N] [--interval-ms M] [--top K]");
                return;
            }
            other => opts.addr = other.to_string(),
        }
    }

    let demo = if opts.demo {
        let d = DemoServer::start();
        opts.addr = d.addr.to_string();
        Some(d)
    } else {
        None
    };

    let outcome = run(&opts);
    if let Some(d) = demo {
        d.stop();
    }
    if let Err(e) = outcome {
        eprintln!("bep-top: {e}");
        std::process::exit(1);
    }
}

fn req_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("bep-top: {flag} needs a numeric argument");
        std::process::exit(2);
    })
}

struct Opts {
    addr: String,
    /// 0 means run forever (interactive mode).
    frames: u64,
    interval: Duration,
    top: usize,
    demo: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            addr: "127.0.0.1:4270".into(),
            frames: 0,
            interval: Duration::from_millis(1000),
            top: 10,
            demo: false,
        }
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let addr: SocketAddr = opts
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {}: {e}", opts.addr))?
        .next()
        .ok_or_else(|| format!("resolve {}: no address", opts.addr))?;

    let io = Duration::from_secs(5);
    let mut scrape = Client::connect(addr, io).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut sub = Client::connect(addr, io).map_err(|e| format!("connect {addr}: {e}"))?;
    sub.subscribe(0).map_err(|e| format!("subscribe: {e}"))?;
    sub.set_io_timeout(STREAM_TICK.min(opts.interval))
        .map_err(|e| format!("set stream timeout: {e}"))?;

    let interactive = opts.frames == 0;
    let mut agg = Aggregate::default();
    let mut frame = 0u64;
    let mut prev_evictions: Vec<(String, u64)> = Vec::new();
    let mut prev_scrape = Instant::now();
    loop {
        frame += 1;
        // Drain the stream until the frame interval elapses; each read
        // blocks at most STREAM_TICK, so an idle server still renders.
        let deadline = Instant::now() + opts.interval;
        let mut fresh = 0usize;
        loop {
            match sub.next_events() {
                Ok(batch) => {
                    fresh += batch.events.len();
                    agg.ingest(batch);
                }
                Err(ClientError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) => {}
                Err(e) => return Err(format!("stream: {e}")),
            }
            if Instant::now() >= deadline {
                break;
            }
        }

        let stats = scrape.stats().map_err(|e| format!("stats: {e}"))?;
        let text = scrape.metrics().map_err(|e| format!("metrics: {e}"))?;
        let mem = parse_mem_gauges(&text);
        let evictions = parse_eviction_counters(&text);
        let now = Instant::now();
        let rates = eviction_rates(&prev_evictions, &evictions, now - prev_scrape);
        prev_evictions = evictions;
        prev_scrape = now;
        let snapshot = parse_snapshot_gauges(&text);
        let writes = parse_write_counters(&text);

        if interactive {
            // Repaint in place: clear screen, home the cursor.
            print!("\x1b[2J\x1b[H");
        }
        print!(
            "{}",
            render(opts, frame, fresh, &agg, &stats, &mem, &rates, &snapshot, &writes)
        );
        if !interactive && frame >= opts.frames {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation: fold the event stream into per-template panes.

/// One template's pane: everything shown about it comes from folding the
/// pushed [`bep_core::DecisionEvent`]s, never from re-querying the server.
#[derive(Default)]
struct Pane {
    count: u64,
    allowed: u64,
    total_ns: u64,
    max_ns: u64,
    rewrite_iterations: u64,
    containment_checks: u64,
    hom_nodes: u64,
    /// Decisions answered by each cache tier, keyed by tier label.
    tiers: HashMap<&'static str, u64>,
}

#[derive(Default)]
struct Aggregate {
    panes: HashMap<u64, Pane>,
    delivered: u64,
    dropped: u64,
    /// Exact nanoseconds per decision phase, summed over every delivered
    /// event, indexed like [`bep_core::Phase::ALL`].
    phase_ns: [u64; PHASE_COUNT],
}

/// Short names for the phases, in [`bep_core::Phase::ALL`] order.
const PHASE_NAMES: [&str; PHASE_COUNT] = ["parse", "lookup", "concrete", "proof", "db", "trace"];

impl Aggregate {
    fn ingest(&mut self, batch: EventBatch) {
        self.dropped = batch.dropped;
        self.delivered += batch.events.len() as u64;
        for e in batch.events {
            for (sum, ns) in self.phase_ns.iter_mut().zip(e.phase_ns) {
                *sum += ns;
            }
            let pane = self.panes.entry(e.template_hash).or_default();
            pane.count += 1;
            if e.verdict == Verdict::Allowed {
                pane.allowed += 1;
            }
            pane.total_ns += e.total_ns;
            pane.max_ns = pane.max_ns.max(e.total_ns);
            pane.rewrite_iterations += e.span.rewrite_iterations as u64;
            pane.containment_checks += e.span.containment_checks as u64;
            pane.hom_nodes += e.span.hom_nodes as u64;
            *pane.tiers.entry(e.tier.label()).or_insert(0) += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics scrape: pull the byte-accurate gauges out of the exposition.

/// Extracts `bep_mem_bytes{component="X"} N` samples, in exposition order.
fn parse_mem_gauges(text: &str) -> Vec<(String, u64)> {
    parse_labeled(text, "bep_mem_bytes{component=\"")
}

/// Extracts `bep_cache_evictions_total{tier="X"} N` counters, in
/// exposition order (plan, session-allow, session-deny).
fn parse_eviction_counters(text: &str) -> Vec<(String, u64)> {
    parse_labeled(text, "bep_cache_evictions_total{tier=\"")
}

/// Extracts the write-decision verdict counters and the unchecked-traffic
/// audit counter: `(allowed/blocked/passthrough, unchecked)`.
fn parse_write_counters(text: &str) -> (Vec<(String, u64)>, u64) {
    let verdicts = parse_labeled(text, "bep_write_decisions_total{verdict=\"");
    let unchecked = text
        .lines()
        .find_map(|l| l.strip_prefix("bep_unchecked_statements_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    (verdicts, unchecked)
}

fn parse_labeled(text: &str, prefix: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(prefix) else {
            continue;
        };
        let Some((label, value)) = rest.split_once("\"}") else {
            continue;
        };
        if let Ok(n) = value.trim().parse::<u64>() {
            out.push((label.to_string(), n));
        }
    }
    out
}

/// The warm-start snapshot gauges: entries loaded/rejected at the last
/// load (or saved at the last save), file bytes, and the epoch-seconds
/// stamp of whichever happened last.
#[derive(Debug, Default, PartialEq)]
struct SnapshotGauges {
    loaded: u64,
    rejected: u64,
    bytes: u64,
    timestamp: u64,
}

fn parse_snapshot_gauges(text: &str) -> SnapshotGauges {
    let mut g = SnapshotGauges::default();
    for (outcome, n) in parse_labeled(text, "bep_snapshot_entries{outcome=\"") {
        match outcome.as_str() {
            "loaded" => g.loaded = n,
            "rejected" => g.rejected = n,
            _ => {}
        }
    }
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("bep_snapshot_bytes ") {
            g.bytes = v.trim().parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("bep_snapshot_timestamp_seconds ") {
            g.timestamp = v.trim().parse().unwrap_or(0);
        }
    }
    g
}

/// Turns two scrapes of the cumulative eviction counters into per-second
/// rates. Tiers are matched by label; a missing or reset counter (new
/// server behind the same address) clamps to zero instead of going
/// negative.
fn eviction_rates(
    prev: &[(String, u64)],
    cur: &[(String, u64)],
    elapsed: Duration,
) -> Vec<(String, f64)> {
    let secs = elapsed.as_secs_f64().max(1e-9);
    cur.iter()
        .map(|(tier, n)| {
            let before = prev
                .iter()
                .find(|(t, _)| t == tier)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            (tier.clone(), n.saturating_sub(before) as f64 / secs)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rendering.

#[allow(clippy::too_many_arguments)]
fn render(
    opts: &Opts,
    frame: u64,
    fresh: usize,
    agg: &Aggregate,
    stats: &WireStats,
    mem: &[(String, u64)],
    eviction_rates: &[(String, f64)],
    snapshot: &SnapshotGauges,
    writes: &(Vec<(String, u64)>, u64),
) -> String {
    let mut out = String::new();
    out.push_str(&format!("bep-top — {} — frame {frame}\n", opts.addr));
    out.push_str(&format!(
        "server: allowed {}  blocked {}  sessions {}  p50 {}  p95 {}  p99 {}\n",
        stats.allowed,
        stats.blocked,
        stats.sessions,
        fmt_us(stats.p50_ns),
        fmt_us(stats.p95_ns),
        fmt_us(stats.p99_ns),
    ));
    let (verdicts, unchecked) = writes;
    if !verdicts.is_empty() {
        let parts: Vec<String> = verdicts.iter().map(|(v, n)| format!("{v} {n}")).collect();
        out.push_str(&format!(
            "writes: {}  unchecked {unchecked}\n",
            parts.join("  ")
        ));
    }
    out.push_str(&format!(
        "stream: delivered {}  dropped {}  (+{fresh} this frame)\n",
        agg.delivered, agg.dropped
    ));
    let ns_per_us_decision = agg.delivered.max(1) as f64 * 1e3;
    let phases: Vec<String> = PHASE_NAMES
        .iter()
        .zip(agg.phase_ns)
        .map(|(name, ns)| format!("{name} {:.1}", ns as f64 / ns_per_us_decision))
        .collect();
    out.push_str(&format!(
        "phases: {}  (mean µs over {} decisions)\n",
        phases.join("  "),
        agg.delivered
    ));
    let gauges: Vec<String> = mem
        .iter()
        .map(|(c, b)| format!("{c} {}", fmt_bytes(*b)))
        .collect();
    out.push_str(&format!("mem: {}\n", gauges.join("  ")));
    if !eviction_rates.is_empty() {
        let rates: Vec<String> = eviction_rates
            .iter()
            .map(|(tier, r)| format!("{tier} {r:.1}/s"))
            .collect();
        out.push_str(&format!("evictions: {}\n", rates.join("  ")));
    }
    out.push_str(&format!("snapshot: {}\n", fmt_snapshot(snapshot)));

    out.push_str(&format!(
        "{:<17} {:>7} {:>6} {:>6} {:>8} {:>8} {:>5} {:>5} {:>6}  {}\n",
        "TEMPLATE", "COUNT", "ALLOW", "BLOCK", "MEAN_US", "MAX_US", "RW", "CC", "HN", "TIERS"
    ));
    let mut rows: Vec<(&u64, &Pane)> = agg.panes.iter().collect();
    rows.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
    for (hash, p) in rows.iter().take(opts.top) {
        let per = |sum: u64| sum as f64 / p.count as f64;
        let mut tiers: Vec<(&&str, &u64)> = p.tiers.iter().collect();
        tiers.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let tiers: Vec<String> = tiers
            .iter()
            .map(|(label, n)| format!("{}:{n}", tier_abbrev(label)))
            .collect();
        out.push_str(&format!(
            "{hash:016x}  {:>7} {:>6} {:>6} {:>8.1} {:>8.1} {:>5.1} {:>5.1} {:>6.1}  {}\n",
            p.count,
            p.allowed,
            p.count - p.allowed,
            per(p.total_ns) / 1_000.0,
            p.max_ns as f64 / 1_000.0,
            per(p.rewrite_iterations),
            per(p.containment_checks),
            per(p.hom_nodes),
            tiers.join(" "),
        ));
    }
    if agg.panes.len() > opts.top {
        out.push_str(&format!(
            "… and {} more template(s)\n",
            agg.panes.len() - opts.top
        ));
    }
    out
}

/// Abbreviates a tier label by its hyphen-separated initials:
/// `template-cache` → `tc`, `uncached` → `u`.
fn tier_abbrev(label: &str) -> String {
    label.split('-').filter_map(|w| w.chars().next()).collect()
}

/// One line for the warm-start snapshot: entry counts, file size, and
/// age relative to this process's clock. Timestamp 0 means the server
/// has neither loaded nor saved one.
fn fmt_snapshot(s: &SnapshotGauges) -> String {
    if s.timestamp == 0 {
        return "none".to_string();
    }
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let age = now.saturating_sub(s.timestamp);
    let rejected = if s.rejected > 0 {
        format!("  rejected {}", s.rejected)
    } else {
        String::new()
    };
    format!(
        "{} entries{rejected}  {}  age {}",
        s.loaded,
        fmt_bytes(s.bytes),
        fmt_age(age)
    )
}

fn fmt_age(secs: u64) -> String {
    if secs >= 3600 {
        format!("{:.1}h", secs as f64 / 3600.0)
    } else if secs >= 60 {
        format!("{:.1}m", secs as f64 / 60.0)
    } else {
        format!("{secs}s")
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}us", ns as f64 / 1_000.0)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

// ---------------------------------------------------------------------------
// Demo mode: an in-process server plus a synthetic traffic generator, so
// `bep-top --demo --frames N` is fully self-contained (used by CI).

struct DemoServer {
    addr: SocketAddr,
    server: Server,
    stop: Arc<AtomicBool>,
    traffic: std::thread::JoinHandle<()>,
}

impl DemoServer {
    fn start() -> DemoServer {
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
        db.execute_sql(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake')",
        )
        .unwrap();
        let schema = schema_of_database(&db);
        let policy = Policy::from_sql(
            &schema,
            &[
                ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
                ("V2", "SELECT EId, Title FROM Events"),
            ],
        )
        .unwrap();
        let proxy = Arc::new(SqlProxy::new(
            db,
            ComplianceChecker::new(schema, policy),
            ProxyConfig::default(),
        ));
        let server =
            Server::start(proxy, ServerConfig::default(), "127.0.0.1:0").expect("bind demo server");
        let addr = server.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let traffic = std::thread::Builder::new()
            .name("demo-traffic".into())
            .spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(5)).expect("demo connect");
                let session = c
                    .begin(vec![("MyUId".into(), Value::Int(1))])
                    .expect("demo session");
                // Four templates with different verdicts and costs, so
                // the panes have something to disagree about. The DELETE
                // matches no row (EId 99 is never seeded): it exercises
                // the write path every round without disturbing the data.
                let stmts = [
                    "SELECT EId FROM Attendance WHERE UId = ?MyUId",
                    "SELECT Title FROM Events WHERE EId = ?e",
                    "SELECT Kind FROM Events WHERE EId = ?e",
                    "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 99",
                ];
                let mut i = 0usize;
                while !stop2.load(Ordering::Relaxed) {
                    let batch: Vec<(String, Vec<(String, Value)>)> = (0..24)
                        .map(|k| {
                            (
                                stmts[(i + k) % stmts.len()].to_string(),
                                vec![("e".into(), Value::Int(2))],
                            )
                        })
                        .collect();
                    i += batch.len();
                    if c.execute_pipelined(session, &batch).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                let _ = c.end(session);
            })
            .expect("spawn demo traffic");

        println!("demo: serving a calendar policy on {addr}");
        DemoServer {
            addr,
            server,
            stop,
            traffic,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.traffic.join();
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_gauges_parse_from_exposition_text() {
        let text = "# HELP bep_mem_bytes Heap bytes\n\
                    # TYPE bep_mem_bytes gauge\n\
                    bep_mem_bytes{component=\"plan-cache\"} 1024\n\
                    bep_mem_bytes{component=\"journal\"} 2048\n\
                    bep_decisions_total{verdict=\"allowed\"} 7\n";
        assert_eq!(
            parse_mem_gauges(text),
            vec![("plan-cache".into(), 1024), ("journal".into(), 2048)]
        );
    }

    #[test]
    fn phases_line_reports_exact_mean_phase_times() {
        let event = |phase_ns| bep_core::DecisionEvent {
            seq: 0,
            session: 1,
            template_hash: 7,
            verdict: Verdict::Allowed,
            tier: bep_core::CacheTier::TemplateCache,
            negative_template_hit: false,
            total_ns: 60_000,
            phase_ns,
            span: Default::default(),
        };
        let mut agg = Aggregate::default();
        agg.ingest(EventBatch {
            events: vec![
                event([1_000, 200, 0, 30_000, 4_000, 500]),
                event([3_000, 400, 0, 10_000, 6_000, 1_500]),
            ],
            dropped: 0,
        });
        assert_eq!(agg.phase_ns, [4_000, 600, 0, 40_000, 10_000, 2_000]);
        let text = render(
            &Opts::default(),
            1,
            2,
            &agg,
            &WireStats::default(),
            &[],
            &[],
            &SnapshotGauges::default(),
            &(Vec::new(), 0),
        );
        assert!(
            text.contains(
                "\nphases: parse 2.0  lookup 0.3  concrete 0.0  proof 20.0  db 5.0  trace 1.0  \
                 (mean µs over 2 decisions)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn write_counters_parse_from_exposition_text() {
        let text = "# TYPE bep_write_decisions_total counter\n\
                    bep_write_decisions_total{verdict=\"allowed\"} 5\n\
                    bep_write_decisions_total{verdict=\"blocked\"} 2\n\
                    bep_write_decisions_total{verdict=\"passthrough\"} 1\n\
                    bep_unchecked_statements_total 9\n";
        let (verdicts, unchecked) = parse_write_counters(text);
        assert_eq!(
            verdicts,
            vec![
                ("allowed".into(), 5),
                ("blocked".into(), 2),
                ("passthrough".into(), 1)
            ]
        );
        assert_eq!(unchecked, 9);
        assert_eq!(parse_write_counters(""), (Vec::new(), 0));
    }

    #[test]
    fn tier_abbreviations_are_initials() {
        assert_eq!(tier_abbrev("template-cache"), "tc");
        assert_eq!(tier_abbrev("concrete-proof"), "cp");
        assert_eq!(tier_abbrev("uncached"), "u");
    }

    #[test]
    fn bytes_format_human_readably() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn eviction_counters_parse_and_turn_into_rates() {
        let t0 = "bep_cache_evictions_total{tier=\"plan\"} 10\n\
                  bep_cache_evictions_total{tier=\"session-allow\"} 0\n\
                  bep_cache_evictions_total{tier=\"session-deny\"} 3\n";
        let t1 = "bep_cache_evictions_total{tier=\"plan\"} 30\n\
                  bep_cache_evictions_total{tier=\"session-allow\"} 0\n\
                  bep_cache_evictions_total{tier=\"session-deny\"} 3\n";
        let prev = parse_eviction_counters(t0);
        let cur = parse_eviction_counters(t1);
        assert_eq!(prev.len(), 3);
        let rates = eviction_rates(&prev, &cur, Duration::from_secs(2));
        assert_eq!(rates[0], ("plan".to_string(), 10.0));
        assert_eq!(rates[1], ("session-allow".to_string(), 0.0));
        assert_eq!(rates[2], ("session-deny".to_string(), 0.0));
    }

    #[test]
    fn a_counter_reset_clamps_the_rate_to_zero() {
        // A restarted server resets its counters; the rate must not
        // underflow.
        let prev = vec![("plan".to_string(), 100u64)];
        let cur = vec![("plan".to_string(), 5u64)];
        let rates = eviction_rates(&prev, &cur, Duration::from_secs(1));
        assert_eq!(rates[0].1, 0.0);
    }

    #[test]
    fn snapshot_gauges_parse_from_exposition_text() {
        let text = "bep_snapshot_entries{outcome=\"loaded\"} 48\n\
                    bep_snapshot_entries{outcome=\"rejected\"} 2\n\
                    bep_snapshot_bytes 27622\n\
                    bep_snapshot_timestamp_seconds 1700000000\n";
        assert_eq!(
            parse_snapshot_gauges(text),
            SnapshotGauges {
                loaded: 48,
                rejected: 2,
                bytes: 27622,
                timestamp: 1700000000,
            }
        );
        assert_eq!(parse_snapshot_gauges(""), SnapshotGauges::default());
        assert_eq!(fmt_snapshot(&SnapshotGauges::default()), "none");
    }

    #[test]
    fn ages_format_in_the_right_unit() {
        assert_eq!(fmt_age(45), "45s");
        assert_eq!(fmt_age(90), "1.5m");
        assert_eq!(fmt_age(7200), "2.0h");
    }
}
