//! Well-formedness and determinism gates for the generated fleet.
//!
//! Every fleet application, at `Scale::small`, must clear the same bars
//! the hand-written apps clear: the source parses, the ground-truth
//! policy compiles, extraction runs, the app runs clean under its own
//! policy, raw probes are blocked, and a blocked probe is diagnosable.
//! On top of that, every read of an enforcement run — handler reads and
//! raw probes — must be decided as `check_concrete` decides it over a
//! never-compacted trace of the session's allowed reads, every raw write
//! probe as the cache-free write reference decides it, and the whole run
//! must be identical across same-seed executions, starved budgets
//! included.

#[path = "../../core/tests/common/reference.rs"]
mod reference;

use appdsl::{run_handler, DslError, Limits, Outcome, PortOutcome, QueryPort};
use appsim::{AppSpec, Scale};
use bep_core::{
    check_write_concrete, compile_write_template, ComplianceChecker, ProxyConfig, ProxyResponse,
    SqlProxy,
};
use bep_diagnose::{diagnose, DiagnosisInput};
use bep_extract::{extract_symbolic, SymLimits, ViewGenOptions};
use bep_scenario::{fleet, GeneratedApp, TrafficConfig, TrafficEngine, TrafficOp};
use reference::Reference;
use sqlir::{parse_statement, Value};

fn small_fleet() -> Vec<GeneratedApp> {
    fleet(7, Scale::small().users as u64)
}

fn traffic_cfg() -> TrafficConfig {
    TrafficConfig {
        target_sessions: 6,
        mean_session_len: 8.0,
        // Mixed read/write traffic: raw write probes must all be blocked
        // by write enforcement (handler-level writes stay allowed).
        write_probe_fraction: 0.08,
        ..TrafficConfig::default()
    }
}

#[test]
fn fleet_apps_parse_and_their_policies_compile() {
    for app in small_fleet() {
        let parsed = app.app();
        assert!(parsed.handlers.len() >= 4, "{}", app.name);
        let policy = app.policy().unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert!(policy.len() >= 4, "{}", app.name);
        assert_eq!(policy.params(), vec!["MyUId"], "{}", app.name);
        let rows = app.populate(&mut app.empty_db()).expect("populate");
        assert!(rows > 0, "{}", app.name);
    }
}

#[test]
fn extraction_runs_on_every_fleet_app() {
    for app in small_fleet() {
        let opts = ViewGenOptions {
            session_params: app.session_params(),
        };
        let extracted = extract_symbolic(&app.schema(), &app.app(), SymLimits::default(), &opts)
            .unwrap_or_else(|e| panic!("{}: extraction failed: {e}", app.name));
        assert!(
            !extracted.views.is_empty(),
            "{}: extraction found no views",
            app.name
        );
    }
}

/// A port that runs each statement through the proxy and, when `check`
/// is set, holds the response to the session's reference (a disagreement
/// panics the run).
struct CheckedPort<'p, 'r> {
    proxy: &'p SqlProxy,
    session: u64,
    reference: &'r mut Reference<'p>,
    check: bool,
}

impl QueryPort for CheckedPort<'_, '_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let response = (self.proxy.execute(self.session, sql, bindings))
            .map_err(|e| DslError::Port(e.to_string()))?;
        if self.check {
            if let Err(e) = self.reference.check(sql, bindings, &response) {
                panic!("decided unlike the reference: {e}");
            }
        }
        Ok(match response {
            ProxyResponse::Rows(r) => PortOutcome::Rows(r),
            ProxyResponse::Affected(n) => PortOutcome::Affected(n),
            ProxyResponse::Blocked(reason) => PortOutcome::Blocked(format!("{reason:?}")),
        })
    }
}

/// One enforcement run: drives `ops` traffic operations through a fresh
/// proxy built with `config`, ends every session still live, and returns
/// the decision log (one line per op) with the proxy.
///
/// Every read goes through a [`CheckedPort`], which holds it to the
/// session's reference when `check` is set. Every raw write probe's
/// verdict is checked against a cache-free reference: the statement
/// compiled afresh and covered concretely against the session's trace
/// facts, with no plan, template or deny cache. The session-size
/// histogram must count every session begun.
fn enforcement_run(
    app: &GeneratedApp,
    config: ProxyConfig,
    seed: u64,
    ops: usize,
    check: bool,
) -> (Vec<String>, SqlProxy) {
    let mut db = app.empty_db();
    app.populate(&mut db).expect("populate");
    let (schema, policy) = (app.schema(), app.policy().expect("policy"));
    let checker = ComplianceChecker::new(schema.clone(), policy.clone());
    let proxy = SqlProxy::new(db, checker.clone(), config);
    let parsed = app.app();
    let mut engine = TrafficEngine::new(app, traffic_cfg(), seed);
    let mut sessions: Vec<Option<(u64, i64, Reference)>> =
        (0..traffic_cfg().target_sessions).map(|_| None).collect();
    let mut log = Vec::with_capacity(ops);
    for _ in 0..ops {
        match engine.next_op() {
            TrafficOp::Begin {
                slot,
                uid,
                user_index,
            } => {
                let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
                let id = proxy.begin_session(bindings.clone());
                sessions[slot] = Some((id, uid, Reference::new(&checker, bindings)));
                log.push(format!("begin u{user_index}"));
            }
            TrafficOp::End { slot } => {
                let (id, ..) = sessions[slot].take().expect("live session");
                proxy.end_session(id);
                log.push("end".to_string());
            }
            TrafficOp::RawProbe { slot, sql } => {
                let (id, _, reference) = sessions[slot].as_mut().expect("live session");
                let mut port = CheckedPort {
                    proxy: &proxy,
                    session: *id,
                    reference,
                    check,
                };
                let verdict = match port.run(&sql, &[]).expect("raw probe executes") {
                    PortOutcome::Blocked(_) => "blocked",
                    PortOutcome::Rows(_) => "rows",
                    PortOutcome::Affected(_) => "affected",
                };
                log.push(format!("raw {verdict}"));
                assert_eq!(
                    verdict, "blocked",
                    "{}: raw probe `{sql}` must be denied",
                    app.name
                );
            }
            TrafficOp::RawWriteProbe { slot, sql } => {
                let &(id, uid, _) = sessions[slot].as_ref().expect("live session");
                let trace = proxy.session_trace(id).expect("live session");
                let bindings = [("MyUId".to_string(), Value::Int(uid))];
                let reference_allows = parse_statement(&sql).is_ok_and(|stmt| {
                    compile_write_template(&stmt, policy.views(), &schema).is_ok_and(|t| {
                        check_write_concrete(&t, policy.views(), &bindings, trace.facts()).is_ok()
                    })
                });
                let resp = proxy.execute(id, &sql, &[]).expect("write probe executes");
                assert_eq!(
                    resp.is_allowed(),
                    reference_allows,
                    "{}: `{sql}` decided unlike the cache-free reference",
                    app.name
                );
                let verdict = match resp {
                    ProxyResponse::Blocked(_) => "blocked",
                    ProxyResponse::Rows(_) => "rows",
                    ProxyResponse::Affected(_) => "affected",
                };
                log.push(format!("raww {verdict}"));
                assert_eq!(
                    verdict, "blocked",
                    "{}: raw write probe `{sql}` must be denied",
                    app.name
                );
            }
            TrafficOp::Request {
                slot,
                request,
                kind,
            } => {
                let (id, _, reference) = sessions[slot].as_mut().expect("live session");
                let handler = parsed.handler(&request.handler).expect("handler exists");
                let mut port = CheckedPort {
                    proxy: &proxy,
                    session: *id,
                    reference,
                    check,
                };
                let result = run_handler(
                    &mut port,
                    handler,
                    &request.session,
                    &request.params,
                    Limits::default(),
                )
                .unwrap_or_else(|e| panic!("{}::{}: {e}", app.name, request.handler));
                // The ground-truth policy admits the app: no handler
                // request — authorized or probe — may be proxy-blocked.
                assert!(
                    !matches!(result.outcome, Outcome::Blocked { .. }),
                    "{}::{} blocked under its own ground-truth policy ({kind:?})",
                    app.name,
                    request.handler
                );
                log.push(format!("{}:{:?}", request.handler, result.outcome));
            }
        }
    }
    proxy.end_sessions(sessions.iter().flatten().map(|&(id, ..)| id));
    assert_eq!(
        proxy.session_state_size_snapshot().count,
        engine.sessions_begun(),
        "{}: a begun session is missing from the state-size histogram",
        app.name
    );
    (log, proxy)
}

/// The differential gate: the first run's reads agree with the reference,
/// every run's raw write probes with the write reference, same-seed runs
/// make identical decisions whatever the memory budgets — budgets starved
/// enough to evict included — and the stream mixes all three outcome
/// classes.
#[test]
fn enforcement_decisions_are_identical_across_same_seed_runs() {
    let enforce = ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    };
    // Each config with whether it must evict: a starved run that never
    // evicts would show nothing about eviction.
    let configs = [
        (enforce, false),
        (
            ProxyConfig {
                plan_budget_bytes: 16 << 10,
                session_cache_budget_bytes: 512,
                ..enforce
            },
            true,
        ),
    ];
    for app in small_fleet() {
        // The first run's reads are held to the reference; every later
        // run must log the same decisions.
        let (a, _) = enforcement_run(&app, enforce, 1234, 600, true);
        for (config, must_evict) in configs {
            let (b, proxy) = enforcement_run(&app, config, 1234, 600, false);
            assert_eq!(a, b, "{}: same seed, same decisions ({config:?})", app.name);
            let evictions: u64 = proxy.cache_eviction_counts().iter().map(|(_, n)| n).sum();
            assert!(
                evictions > 0 || !must_evict,
                "{}: the starved budgets never evicted",
                app.name
            );
        }

        let oks = a.iter().filter(|l| l.contains("Ok")).count();
        let denials = a.iter().filter(|l| l.contains("Http")).count();
        let blocks = a.iter().filter(|l| l.contains("raw blocked")).count();
        let write_blocks = a.iter().filter(|l| l.contains("raww blocked")).count();
        assert!(oks > 0, "{}: some requests succeed", app.name);
        assert!(denials > 0, "{}: some probes are refused", app.name);
        assert!(blocks > 0, "{}: some raw probes are blocked", app.name);
        assert!(
            write_blocks > 0,
            "{}: some raw write probes are blocked",
            app.name
        );
    }
}

/// A blocked raw probe feeds straight into diagnosis: the report comes
/// back with at least one proposed patch.
#[test]
fn blocked_probes_are_diagnosable() {
    for app in small_fleet() {
        let mut db = app.empty_db();
        app.populate(&mut db).expect("populate");
        let schema = app.schema();
        let policy = app.policy().expect("policy");
        let checker = ComplianceChecker::new(schema.clone(), policy.clone());
        let proxy = SqlProxy::new(db, checker, ProxyConfig::default());

        let mut engine = TrafficEngine::new(&app, traffic_cfg(), 77);
        let (uid, sql) = loop {
            match engine.next_op() {
                TrafficOp::RawProbe { slot: _, sql } => {
                    // Attribute the probe to principal 0 for simplicity —
                    // any session works, the query targets someone else.
                    break (bep_scenario::uid(0), sql);
                }
                _ => continue,
            }
        };
        let bindings = vec![("MyUId".to_string(), sqlir::Value::Int(uid))];
        let session = proxy.begin_session(bindings.clone());
        let resp = proxy.execute(session, &sql, &[]).expect("probe executes");
        assert!(
            matches!(resp, ProxyResponse::Blocked(_)),
            "{}: `{sql}` should be blocked",
            app.name
        );

        let parsed = sqlir::parse_query(&sql).expect("probe parses");
        let cq = qlogic::sql_to_ucq(&schema, &parsed)
            .expect("fragment")
            .disjuncts
            .remove(0)
            .instantiate(&bindings);
        let views = policy.instantiate(&bindings).expect("instantiate");
        let report = diagnose(&DiagnosisInput {
            query: &cq,
            views: &views,
            trace_facts: &[],
            schema: &schema,
            extracted: None,
        })
        .unwrap_or_else(|e| panic!("{}: diagnosis failed: {e}", app.name));
        // A probe with no policy overlap legitimately yields no patch; the
        // separating counterexample (§5.1) is the diagnosis then.
        assert!(
            report.counterexample.is_some() || !report.patches.is_empty(),
            "{}: diagnosis produced neither counterexample nor patch",
            app.name
        );
    }
}

/// The paper's flagship diagnosis case on a generated app: an *ungated*
/// fetch of an author's posts is blocked, and diagnosis abduces exactly
/// the missing follow-edge access check.
#[test]
fn ungated_fetch_gets_an_access_check_patch() {
    let app = small_fleet().remove(0); // social
    let mut db = app.empty_db();
    app.populate(&mut db).expect("populate");
    let schema = app.schema();
    let policy = app.policy().expect("policy");
    let checker = ComplianceChecker::new(schema.clone(), policy.clone());
    let proxy = SqlProxy::new(db, checker, ProxyConfig::default());

    let me = bep_scenario::uid(0);
    let bindings = vec![("MyUId".to_string(), sqlir::Value::Int(me))];
    let session = proxy.begin_session(bindings.clone());

    // Find an author user 0 does not follow: the ungated fetch is blocked.
    let (target, sql) = (1..app.users)
        .find_map(|j| {
            let sql = format!(
                "SELECT PId, Title, Body FROM Posts WHERE AuthorId = {}",
                bep_scenario::uid(j)
            );
            match proxy.execute(session, &sql, &[]) {
                Ok(ProxyResponse::Blocked(_)) => Some((bep_scenario::uid(j), sql)),
                _ => None,
            }
        })
        .expect("some author is unfollowed");

    let parsed = sqlir::parse_query(&sql).expect("parses");
    let cq = qlogic::sql_to_ucq(&schema, &parsed)
        .expect("fragment")
        .disjuncts
        .remove(0)
        .instantiate(&bindings);
    let views = policy.instantiate(&bindings).expect("instantiate");
    let report = diagnose(&DiagnosisInput {
        query: &cq,
        views: &views,
        trace_facts: &[],
        schema: &schema,
        extracted: None,
    })
    .expect("diagnosis runs");

    let check = report
        .patches
        .iter()
        .find_map(|p| match p {
            bep_diagnose::Patch::AccessCheck(ac) => Some(ac),
            _ => None,
        })
        .expect("an access-check patch is proposed");
    assert_eq!(
        check.fact.relation.as_str(),
        "Follows",
        "abduced fact: {:?}",
        check.fact
    );
    let fact = check.fact.clone();
    assert!(
        qlogic::equivalent_rewriting(&cq, &views, std::slice::from_ref(&fact)).is_some(),
        "applying the abduced check ({target}) unblocks the fetch"
    );
}
