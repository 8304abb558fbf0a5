//! Cross-crate observability tests: the decision-provenance layer seen
//! through the façade — a full application workload must leave a
//! journal, phase timings, solver roll-ups, and a metrics exposition that
//! all agree with each other and with the proxy's counters.

use appsim::{seed_app, workload_for, ProxyPort, Scale, CALENDAR};
use beyond_enforcement::core::CoreError;
use beyond_enforcement::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn calendar_proxy() -> SqlProxy {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut db = CALENDAR.empty_db();
    seed_app("calendar", &mut db, &mut rng, &Scale::small());
    let checker = ComplianceChecker::new(CALENDAR.schema(), CALENDAR.policy().unwrap());
    SqlProxy::new(db, checker, ProxyConfig::default())
}

fn drive_workload(proxy: &SqlProxy, n_requests: usize) {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut db = CALENDAR.empty_db();
    seed_app("calendar", &mut db, &mut rng, &Scale::small());
    let requests = workload_for("calendar", &db, &mut rng, n_requests).expect("workload");
    let app = CALENDAR.app();
    for req in &requests {
        let handler = app.handler(&req.handler).unwrap();
        let session = proxy.begin_session(req.session.clone());
        let mut port = ProxyPort { proxy, session };
        let _ = run_handler(
            &mut port,
            handler,
            &req.session,
            &req.params,
            Limits::default(),
        );
        proxy.end_session(session);
    }
}

/// The journal, the stats counters, and the metrics exposition are three
/// views of the same decisions — they must agree after a real workload.
#[test]
fn journal_stats_and_exposition_agree_after_a_workload() {
    let proxy = calendar_proxy();
    drive_workload(&proxy, 40);
    // A blocked probe: a fresh session reads an event it has shown no
    // attendance of, so its concrete proof denies.
    let probe = proxy.begin_session(vec![("MyUId".into(), Value::Int(appsim::FIRST_UID))]);
    let blocked = proxy
        .execute(
            probe,
            "SELECT EId, Title, Kind FROM Events WHERE EId = ?event_id",
            &[("event_id".into(), Value::Int(1))],
        )
        .unwrap();
    assert!(!blocked.is_allowed(), "{blocked:?}");
    proxy.end_session(probe);

    let stats = proxy.stats();
    assert!(stats.allowed > 0, "workload produced decisions");

    // Journal vs counters: writes are journaled too, so the event count
    // is decisions + writes.
    let journal = proxy.journal();
    assert_eq!(
        journal.published(),
        stats.allowed + stats.blocked + stats.writes,
        "one event per decision, including pass-through writes"
    );
    let events = journal.events_since(0, usize::MAX);
    assert_eq!(journal.evicted(), 0, "the journal holds the whole workload");
    assert_eq!(events.len() as u64, journal.published());

    // Events are strictly ordered and internally consistent.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "sequence numbers increase");
    }
    let mut by_tier = [0u64; 6];
    for e in &events {
        let phase_sum: u64 = (0..PHASE_COUNT).map(|i| e.phase(Phase::ALL[i])).sum();
        assert!(
            phase_sum <= e.total_ns,
            "phase laps never exceed the decision's total"
        );
        by_tier[e.tier as usize] += 1;
    }
    // Tier provenance reconciles with the cache counters.
    assert_eq!(
        by_tier[CacheTier::TemplateCache as usize],
        stats.template_cache_hits
    );
    assert_eq!(
        by_tier[CacheTier::SessionCache as usize],
        stats.session_cache_hits
    );
    assert_eq!(
        by_tier[CacheTier::DenyCache as usize],
        stats.deny_cache_hits
    );

    // The exposition renders the same counters the stats snapshot read.
    let text = proxy.metrics_text();
    // Every fresh concrete proof is counted once, allowed or denied; the
    // denied series lives only in the exposition.
    let series = |name: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("exposition carries {name}"));
        line[name.len()..].trim().parse().unwrap()
    };
    let denied = series("bep_proofs_total{kind=\"concrete-denied\"}");
    assert!(denied > 0, "the blocked probe ran a denying proof");
    assert_eq!(
        series("bep_proofs_total{kind=\"concrete\"}"),
        stats.concrete_proofs
    );
    assert_eq!(
        by_tier[CacheTier::ConcreteProof as usize],
        stats.concrete_proofs + denied
    );
    assert!(text.contains(&format!(
        "bep_decisions_total{{decision=\"allowed\"}} {}",
        stats.allowed
    )));
    assert!(text.contains(&format!(
        "bep_cache_hits_total{{tier=\"template\"}} {}",
        stats.template_cache_hits
    )));
    assert!(text.contains(&format!("bep_journal_published {}", journal.published())));
    for family in [
        "bep_decisions_total",
        "bep_cache_hits_total",
        "bep_proofs_total",
        "bep_sessions",
        "bep_decision_latency_ns",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "exposition carries family {family}"
        );
    }

    // The solver roll-up: each exposition counter is the sum of the same
    // field over the journaled events, and the workload's concrete proofs
    // did real containment checks.
    let sum = |field: fn(&DecisionEvent) -> u32| -> u64 {
        events.iter().map(|e| u64::from(field(e))).sum()
    };
    let containment_checks = sum(|e| e.span.containment_checks);
    assert!(stats.concrete_proofs > 0, "workload ran concrete proofs");
    assert!(
        containment_checks > 0,
        "concrete proofs left no solver work"
    );
    for (counter, total) in [
        ("rewrite-iterations", sum(|e| e.span.rewrite_iterations)),
        ("containment-checks", containment_checks),
        ("hom-nodes", sum(|e| e.span.hom_nodes)),
        ("hom-backtracks", sum(|e| e.span.hom_backtracks)),
    ] {
        let series = format!("bep_span_solver_total{{counter=\"{counter}\"}} {total}\n");
        assert!(text.contains(&series), "journal sums to {series}{text}");
    }
}

/// A polling consumer that keeps up sees every event exactly once, in
/// order, with nothing dropped.
#[test]
fn polling_consumer_sees_every_decision_exactly_once() {
    let proxy = calendar_proxy();
    let mut cursor = JournalCursor::default();
    let mut seen: Vec<u64> = Vec::new();

    for chunk in 0..4 {
        drive_workload(&proxy, 10 + chunk);
        loop {
            let batch = proxy.journal().poll(&mut cursor, 8);
            if batch.is_empty() {
                break;
            }
            seen.extend(batch.iter().map(|e| e.seq));
        }
    }

    assert_eq!(cursor.dropped(), 0, "a keeping-up consumer drops nothing");
    assert_eq!(seen.len() as u64, proxy.journal().published());
    assert!(
        seen.windows(2).all(|w| w[1] == w[0] + 1),
        "gapless, in order"
    );
}

/// Template hashes in events are the public `template_hash` of the SQL
/// text — an external consumer can join events to known query shapes.
#[test]
fn event_hashes_join_to_query_text() {
    let proxy = calendar_proxy();
    let session = proxy.begin_session(vec![("MyUId".into(), sqlir::Value::Int(appsim::FIRST_UID))]);
    let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    proxy.execute(session, sql, &[]).unwrap();
    proxy.end_session(session);

    let events = proxy.journal().events_since(0, usize::MAX);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].template_hash, template_hash(sql));
    assert_eq!(events[0].verdict, Verdict::Allowed);
    assert_eq!(events[0].session, session);
}

/// Every `execute` records exactly one latency sample, whatever becomes of
/// the statement: a compile, a plan hit, a lifted shape, malformed text, a
/// session that does not exist and a store error each move
/// `ProxyStats::latency.count` by one, as `bep_decision_latency_ns_count`.
#[test]
fn every_execute_records_one_latency_sample() {
    let proxy = calendar_proxy();
    let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(appsim::FIRST_UID))]);
    let own = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    let lifted = "SELECT Title FROM Events WHERE EId = 1";
    let insert = "INSERT INTO Events (EId, Title, Kind) VALUES (1000000, 'x', 'y')";
    let statements: [(&str, u64, &str); 7] = [
        ("compile", session, own),
        ("plan hit", session, own),
        ("lifted shape", session, lifted),
        ("malformed", session, "SELEC whoops"),
        ("no such session", 999_999, own),
        ("passthrough insert", session, insert),
        ("store error", session, insert),
    ];
    for (i, (label, id, sql)) in statements.into_iter().enumerate() {
        let result = proxy.execute(id, sql, &[]);
        match label {
            "no such session" => assert_eq!(result, Err(CoreError::NoSuchSession(id))),
            "store error" => assert!(matches!(result, Err(CoreError::Db(_))), "{result:?}"),
            _ => assert!(result.is_ok(), "{label}: {result:?}"),
        }
        let count = proxy.stats().latency.count;
        assert_eq!(count, i as u64 + 1, "{label}");
        let text = proxy.metrics_text();
        let line = format!("bep_decision_latency_ns_count {count}\n");
        assert!(text.contains(&line), "{label}: {text}");
    }
}

/// The symbol interner's memory is in the exposition: every distinct
/// string literal a statement carries is interned for the life of the
/// process, and `bep_mem_bytes{component="symbols"}` rises by at least the
/// literals' total length.
#[test]
fn distinct_literals_raise_the_symbols_gauge_by_their_length() {
    let proxy = calendar_proxy();
    let symbols = |p: &SqlProxy| -> usize {
        let text = p.metrics_text();
        let name = "bep_mem_bytes{component=\"symbols\"}";
        let line = (text.lines())
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("exposition carries {name}"));
        line[name.len()..].trim().parse().unwrap()
    };
    let before = symbols(&proxy);
    let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(appsim::FIRST_UID))]);
    let literals: Vec<String> = (0..200).map(|i| format!("symbols-gauge-{i}")).collect();
    for literal in &literals {
        let sql = format!("SELECT Title FROM Events WHERE Title = '{literal}'");
        proxy.execute(session, &sql, &[]).unwrap();
    }
    proxy.end_session(session);
    // Other tests intern concurrently; the gauge only grows.
    let grown = symbols(&proxy) - before;
    let total: usize = literals.iter().map(String::len).sum();
    assert!(
        grown >= total,
        "grew {grown} bytes for {total} bytes of literals"
    );
}
