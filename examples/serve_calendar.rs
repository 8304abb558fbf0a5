//! Serves the calendar application's enforcement proxy over TCP.
//!
//! Seeds the calendar database, wraps it in the enforcing `SqlProxy`, and
//! exposes it through `bep-server`'s wire protocol. Clients connect with
//! `bep_server::Client`, open sessions with their `MyUId`, and every
//! `SELECT` they send is decided against the calendar policy — the
//! networked version of the `calendar_proxy` example.
//!
//! Run a long-lived server (stops when a client sends `shutdown`):
//!
//! ```text
//! cargo run --example serve_calendar -- 127.0.0.1:4270
//! ```
//!
//! Run the self-contained smoke check used by CI — starts the server on
//! an ephemeral port, drives one `Begin`/`Execute`/`End` round-trip
//! through the client, asks for shutdown, and verifies a clean drain:
//!
//! ```text
//! cargo run --example serve_calendar -- --smoke
//! ```
//!
//! Add `--metrics` to either mode to surface the observability layer: in
//! smoke mode the client scrapes the `metrics` frame and prints the full
//! Prometheus text exposition (CI greps it for the expected metric
//! families); in serving mode the drained server prints a final
//! exposition snapshot on shutdown.
//!
//! Add `--journal-tail` to follow the live decision journal over the
//! wire: a second client `subscribe`s and prints one human-readable line
//! per decision (in smoke mode, the pushed batch for the smoke decision
//! itself — CI greps the lines).
//!
//! At startup, the proxy lints every handler SQL template of the calendar
//! application against the policy's view heads and prints any columns a
//! handler selects that no view projects (such templates are denied for
//! *every* session, which differential testing cannot surface).

use std::sync::Arc;
use std::time::Duration;

use appsim::{seed_app, Scale, CALENDAR};
use bep_server::{Client, EventBatch, ExecOutcome, Server, ServerConfig};
use beyond_enforcement::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sqlir::Value;

fn calendar_proxy() -> Arc<SqlProxy> {
    let mut rng = SmallRng::seed_from_u64(2023);
    let mut db = CALENDAR.empty_db();
    seed_app("calendar", &mut db, &mut rng, &Scale::medium());
    let schema = CALENDAR.schema();
    let policy = CALENDAR.policy().expect("calendar policy compiles");
    let proxy = Arc::new(SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig::default(),
    ));

    // Startup policy lint: every column the application's handlers select
    // must appear in some view's head, or the query is uniformly denied.
    let mut templates = Vec::new();
    for handler in &CALENDAR.app().handlers {
        for stmt in &handler.body {
            stmt.walk_sql(&mut |sql| templates.push(sql.to_string()));
        }
    }
    let warnings = proxy.lint_templates(templates.iter().map(String::as_str));
    if warnings.is_empty() {
        println!(
            "lint: policy view heads cover all {} handler template(s)",
            templates.len()
        );
    } else {
        for w in &warnings {
            println!("lint: warning: {w}");
        }
    }
    proxy
}

/// Renders one decision event as a human-readable tail line.
fn tail_line(e: &bep_core::DecisionEvent, dropped: u64) -> String {
    format!(
        "journal: seq={} session={} verdict={} tier={} hash={:016x} total_us={:.1} \
         rw={} cc={} dropped={}",
        e.seq,
        e.session,
        e.verdict.label(),
        e.tier.label(),
        e.template_hash,
        e.total_ns as f64 / 1_000.0,
        e.span.rewrite_iterations,
        e.span.containment_checks,
        dropped,
    )
}

/// Follows the live journal on its own connection, printing one line per
/// decision until the server goes away.
fn tail_journal(addr: std::net::SocketAddr) {
    let _ = std::thread::Builder::new()
        .name("journal-tail".into())
        .spawn(move || {
            let mut c = match Client::connect(addr, Duration::from_secs(3600)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("journal: tail connect failed: {e}");
                    return;
                }
            };
            if let Err(e) = c.subscribe(0) {
                eprintln!("journal: subscribe failed: {e}");
                return;
            }
            while let Ok(EventBatch { events, dropped }) = c.next_events() {
                for e in &events {
                    println!("{}", tail_line(e, dropped));
                }
            }
        });
}

fn main() {
    let mut smoke_mode = false;
    let mut metrics = false;
    let mut journal_tail = false;
    let mut bind = "127.0.0.1:4270".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--metrics" => metrics = true,
            "--journal-tail" => journal_tail = true,
            other => bind = other.to_string(),
        }
    }
    if smoke_mode {
        smoke(metrics, journal_tail);
        return;
    }

    let proxy = calendar_proxy();
    let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), &bind)
        .expect("bind enforcement server");
    println!(
        "bep-server: serving the calendar policy on {}",
        server.addr()
    );
    println!(
        "  protocol : length-prefixed JSON frames, version {}",
        bep_server::PROTOCOL_VERSION
    );
    if metrics {
        println!("  metrics  : scrape with a `metrics` frame (Prometheus text)");
    }
    if journal_tail {
        println!("  journal  : tailing live decisions on a subscribed connection");
        tail_journal(server.addr());
    }
    println!("  stop with: a client `shutdown` request");
    server.wait();
    println!("bep-server: drained and stopped");
    let stats = proxy.stats();
    println!(
        "audit: writes allowed={} blocked={} passthrough={}; {} statement(s) \
         bypassed enforcement via execute_unchecked",
        stats.write_allowed,
        stats.write_blocked,
        stats.write_passthrough,
        stats.unchecked_statements
    );
    if metrics {
        println!("\nfinal metrics exposition:");
        print!("{}", proxy.metrics_text());
    }
}

/// The CI smoke check: one full client round-trip and a clean shutdown.
/// With `metrics`, the client also scrapes the exposition endpoint and
/// the full Prometheus text is printed for CI to grep. With
/// `journal_tail`, a second connection subscribes to the live journal and
/// the pushed batch for the smoke decision is printed for CI to grep.
fn smoke(metrics: bool, journal_tail: bool) {
    let proxy = calendar_proxy();
    let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
        .expect("bind enforcement server");
    let addr = server.addr();
    println!("smoke: server on {addr}");

    let client_side = std::thread::spawn(move || {
        let io = Duration::from_secs(10);
        let mut c = Client::connect(addr, io).expect("connect");

        // Begin: a calendar user session (the data generator's first uid).
        let session = c
            .begin(vec![("MyUId".into(), Value::Int(appsim::FIRST_UID))])
            .expect("begin session");
        println!("smoke: began session {session}");

        // Execute: the policy's own attendance view is always allowed.
        let r = c
            .execute(
                session,
                "SELECT EId FROM Attendance WHERE UId = ?MyUId",
                &[],
            )
            .expect("execute");
        match &r {
            ExecOutcome::Rows(rows) => {
                println!(
                    "smoke: executed, {} row(s) allowed through",
                    rows.rows.len()
                );
            }
            other => panic!("expected rows, got {other:?}"),
        }

        // End: idempotent teardown.
        assert!(c.end(session).expect("end"), "session was live");
        assert!(!c.end(session).expect("end again"), "second end is a no-op");
        println!("smoke: session ended cleanly");

        if journal_tail {
            // Subscribe on a second connection: the smoke decision above
            // is already published, so the first pushed batch carries it.
            let mut tail = Client::connect(addr, Duration::from_secs(10)).expect("tail connect");
            tail.subscribe(0).expect("subscribe");
            let EventBatch { events, dropped } = tail.next_events().expect("pushed batch");
            assert!(
                events.iter().any(|e| e.verdict.label() == "allowed"),
                "stream carries the allowed smoke decision"
            );
            assert_eq!(dropped, 0, "nothing evicted under smoke load");
            for e in &events {
                println!("{}", tail_line(e, dropped));
            }
        }

        if metrics {
            // Scrape the observability surface over the wire: the journal
            // must have recorded the decision above, and the exposition
            // must carry the expected families.
            let page = c.journal(0, 64).expect("journal");
            assert!(
                page.events.iter().any(|e| e.verdict.label() == "allowed"),
                "journal records the allowed smoke decision"
            );
            let text = c.metrics().expect("metrics");
            assert!(
                text.contains("bep_decisions_total"),
                "exposition carries the decision counters"
            );
            println!("smoke: metrics exposition ({} bytes):", text.len());
            print!("{text}");
        }

        c.shutdown_server().expect("shutdown handshake");
        println!("smoke: shutdown acknowledged");
    });

    // The server must notice the client's shutdown request and drain.
    server.wait();
    client_side.join().expect("client thread");
    assert_eq!(proxy.session_count(), 0, "no orphan sessions after drain");

    let stats = proxy.stats();
    assert_eq!(stats.allowed, 1, "exactly the smoke query was allowed");
    println!(
        "smoke: clean shutdown verified (allowed={}, p50={:.1}us)",
        stats.allowed,
        stats.latency.p50_us()
    );
    println!(
        "audit: writes allowed={} blocked={} passthrough={}; {} statement(s) \
         bypassed enforcement via execute_unchecked",
        stats.write_allowed,
        stats.write_blocked,
        stats.write_passthrough,
        stats.unchecked_statements
    );
    println!("smoke: OK");
}
