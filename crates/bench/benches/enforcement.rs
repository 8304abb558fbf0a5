//! F3 — Proxy overhead: per-query latency of direct execution vs the
//! enforcing proxy, plus the cost of one cold compliance decision (the
//! quantity the caches amortize) and of recording one fresh read into a
//! session's trace.

use appsim::{Scale, CALENDAR};
use bep_bench::{app_env, proxy_for};
use bep_core::{ProxyConfig, Trace};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qlogic::{Atom, Cq, Term};
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

/// A social `feed` read recorded fresh: 16 rows of
/// `ans(p, t, a) :- Follows(1, a), Posts(p, a, t, b)` (titles and authors
/// repeat, every body a Skolem) after a 4-row `view_author` read of
/// `ans(p, t, b) :- Posts(p, 7, t, b)`, on a fresh trace each time.
fn bench_trace_record(c: &mut Criterion) {
    let v = Term::var;
    let view = Cq::new(
        vec![v("p"), v("t"), v("b")],
        vec![Atom::new(
            "Posts",
            vec![v("p"), Term::int(7), v("t"), v("b")],
        )],
        vec![],
    );
    let feed = Cq::new(
        vec![v("p"), v("t"), v("a")],
        vec![
            Atom::new("Follows", vec![Term::int(1), v("a")]),
            Atom::new("Posts", vec![v("p"), v("a"), v("t"), v("b")]),
        ],
        vec![],
    );
    let title = |k: i64| Value::str(format!("post title number {}", k % 11));
    let view_rows: Vec<Vec<Value>> = (0..4)
        .map(|k| vec![Value::Int(100 + k), title(k), Value::str("a post body")])
        .collect();
    let feed_rows: Vec<Vec<Value>> = (0..16)
        .map(|k| vec![Value::Int(200 + k), title(k), Value::Int(7 + k % 5)])
        .collect();

    let mut group = c.benchmark_group("trace");
    group.sample_size(200);
    group.bench_function("record_feed_16", |b| {
        b.iter_batched(
            || {
                let mut t = Trace::new();
                t.record_rows(view.clone(), &view_rows, true);
                (t, feed.clone())
            },
            |(mut t, feed)| {
                t.record_rows(feed, &feed_rows, true);
                t
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_proxy_overhead,
    bench_decision_latency,
    bench_trace_record
);
criterion_main!(benches);
