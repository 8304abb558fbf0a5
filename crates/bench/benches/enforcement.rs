//! F3 — Proxy overhead: per-query latency of direct execution vs the
//! enforcing proxy, plus the cost of one cold compliance decision (the
//! quantity the caches amortize).

use appsim::{Scale, CALENDAR};
use bep_bench::{app_env, proxy_for};
use bep_core::{ProxyConfig, Trace};
use criterion::{criterion_group, criterion_main, Criterion};
use sqlir::Value;

fn bench_proxy_overhead(c: &mut Criterion) {
    let env = app_env(&CALENDAR, 3, Scale::medium(), 0);
    let mut group = c.benchmark_group("f3_proxy_overhead");
    group.sample_size(20);

    let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    let bindings = vec![("MyUId".to_string(), Value::Int(101))];

    // Baseline: the bare database.
    group.bench_function("direct", |b| {
        let proxy = proxy_for(&env, ProxyConfig::default());
        b.iter(|| {
            let r = proxy.execute_unchecked(sql, &bindings).unwrap();
            std::hint::black_box(r);
        });
    });

    // Full proxy: first call proves the template, the rest hit the cache.
    group.bench_function("proxy_cached", |b| {
        let proxy = proxy_for(&env, ProxyConfig::default());
        let session = proxy.begin_session(bindings.clone());
        proxy.execute(session, sql, &[]).unwrap(); // warm the template cache
        b.iter(|| {
            let r = proxy.execute(session, sql, &[]).unwrap();
            std::hint::black_box(r);
        });
    });

    group.finish();
}

fn bench_decision_latency(c: &mut Criterion) {
    let env = app_env(&CALENDAR, 3, Scale::small(), 0);
    let schema = CALENDAR.schema();
    let policy = CALENDAR.policy().unwrap();
    let checker = bep_core::ComplianceChecker::new(schema, policy);
    let bindings = vec![("MyUId".to_string(), Value::Int(101))];
    let _ = env;

    let mut group = c.benchmark_group("t4_decision_latency");
    group.sample_size(20);

    // Template-level proof (session-independent).
    let q1 = sqlir::parse_query("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event_id")
        .unwrap();
    group.bench_function("template_allow", |b| {
        b.iter(|| std::hint::black_box(checker.check_template(&q1)));
    });

    // Concrete allow (with a trace fact discharging the join).
    let q2 = sqlir::parse_query("SELECT EId, Title, Kind FROM Events WHERE EId = 2").unwrap();
    let mut trace = Trace::new();
    let cq1 = checker
        .translate(&q1)
        .unwrap()
        .disjuncts
        .remove(0)
        .instantiate(&[
            ("MyUId".into(), Value::Int(101)),
            ("event_id".into(), Value::Int(2)),
        ]);
    trace.record(cq1, bep_core::Observation::NonEmpty);
    group.bench_function("concrete_allow_with_trace", |b| {
        b.iter(|| std::hint::black_box(checker.check_concrete(&q2, &bindings, &trace)));
    });

    // Concrete deny (exhausts the rewriting search).
    let empty = Trace::new();
    group.bench_function("concrete_deny", |b| {
        b.iter(|| std::hint::black_box(checker.check_concrete(&q2, &bindings, &empty)));
    });

    group.finish();
}

criterion_group!(benches, bench_proxy_overhead, bench_decision_latency);
criterion_main!(benches);
