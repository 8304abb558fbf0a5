//! Cross-crate integration tests: the full access-control life-cycle on the
//! paper's calendar application — extraction (§3), evaluation (§4),
//! enforcement (§2), diagnosis (§5) — plus end-to-end runs of every
//! simulated application under enforcement.

use appsim::{seed_app, workload_for, BlindPort, ProxyPort, Scale, ALL_APPS, CALENDAR, FORUM};
use beyond_enforcement::prelude::*;
use beyond_enforcement::Lifecycle;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every correct application, run under its ground-truth policy, never gets
/// proxy-blocked — the ground-truth policies really do cover the apps.
#[test]
fn correct_apps_run_clean_under_ground_truth_policies() {
    for sim in ALL_APPS {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut db = sim.empty_db();
        seed_app(sim.name, &mut db, &mut rng, &Scale::small());
        let requests = workload_for(sim.name, &db, &mut rng, 40).expect("workload");

        let checker = ComplianceChecker::new(sim.schema(), sim.policy().unwrap());
        let proxy = SqlProxy::new(db, checker, ProxyConfig::default());
        let app = sim.app();
        for req in &requests {
            let handler = app.handler(&req.handler).unwrap();
            let session = proxy.begin_session(req.session.clone());
            let mut port = ProxyPort {
                proxy: &proxy,
                session,
            };
            let result = run_handler(
                &mut port,
                handler,
                &req.session,
                &req.params,
                Limits::default(),
            )
            .unwrap();
            assert!(
                !matches!(result.outcome, Outcome::Blocked { .. }),
                "{}::{} blocked under its own ground-truth policy: {:?}",
                sim.name,
                req.handler,
                result.outcome
            );
            proxy.end_session(session);
        }
    }
}

/// The symbolic-extraction → enforcement loop closes: a policy extracted
/// from the app admits the app.
#[test]
fn extracted_policies_admit_their_applications() {
    for sim in [&CALENDAR, &FORUM] {
        let opts = ViewGenOptions {
            session_params: sim.session_params.iter().map(|s| s.to_string()).collect(),
        };
        let mut lc = Lifecycle::new(sim.app(), sim.schema());
        lc.extract_policy(&opts).unwrap();

        let mut rng = SmallRng::seed_from_u64(5);
        let mut db = sim.empty_db();
        seed_app(sim.name, &mut db, &mut rng, &Scale::small());
        let requests = workload_for(sim.name, &db, &mut rng, 30).expect("workload");

        let proxy = lc.enforce(db);
        for req in &requests {
            let handler = lc.app.handler(&req.handler).unwrap();
            let session = proxy.begin_session(req.session.clone());
            let mut port = ProxyPort {
                proxy: &proxy,
                session,
            };
            let result = run_handler(
                &mut port,
                handler,
                &req.session,
                &req.params,
                Limits::default(),
            )
            .unwrap();
            assert!(
                !matches!(result.outcome, Outcome::Blocked { .. }),
                "{}::{} blocked under its own extracted policy",
                sim.name,
                req.handler
            );
            proxy.end_session(session);
        }
    }
}

/// Buggy handlers DO get blocked under the ground-truth policy — enforcement
/// catches what the paper's intro warns about.
#[test]
fn buggy_handlers_are_blocked() {
    let mut db = CALENDAR.empty_db();
    db.execute_sql("INSERT INTO Users (UId, Name) VALUES (101, 'ann')")
        .unwrap();
    db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (7, 'secret', 'work')")
        .unwrap();

    let checker = ComplianceChecker::new(CALENDAR.schema(), CALENDAR.policy().unwrap());
    let proxy = SqlProxy::new(db, checker, ProxyConfig::default());
    let app = CALENDAR.app_with_bugs();
    let session_bindings = vec![("MyUId".to_string(), Value::Int(101))];
    let session = proxy.begin_session(session_bindings.clone());
    let mut port = ProxyPort {
        proxy: &proxy,
        session,
    };
    // Ann does not attend event 7; the unchecked fetch must be blocked.
    let result = run_handler(
        &mut port,
        app.handler("show_event_nocheck").unwrap(),
        &session_bindings,
        &[("event_id".into(), Value::Int(7))],
        Limits::default(),
    )
    .unwrap();
    assert!(matches!(result.outcome, Outcome::Blocked { .. }));
}

/// The complete §5 loop: blocked query → diagnosis → apply the access-check
/// patch (by issuing the check first) → the query becomes allowed.
#[test]
fn diagnosis_patch_unblocks_when_applied() {
    let schema = CALENDAR.schema();
    let policy = CALENDAR.policy().unwrap();
    let bindings = vec![("MyUId".to_string(), Value::Int(101))];
    let views = policy.instantiate(&bindings).unwrap();

    // The blocked query: event fetch with no history.
    let q = parse_query("SELECT EId, Title, Kind FROM Events WHERE EId = 7").unwrap();
    let cq = qlogic::sql_to_ucq(&schema, &q).unwrap().disjuncts.remove(0);

    let report = beyond_enforcement::diagnose::diagnose(&DiagnosisInput {
        query: &cq,
        views: &views,
        trace_facts: &[],
        schema: &schema,
        extracted: None,
    })
    .unwrap();

    // Find the access-check patch and simulate applying it: the check
    // passing contributes exactly the abduced fact to the trace.
    let fact = report
        .patches
        .iter()
        .find_map(|p| match p {
            Patch::AccessCheck(ac) => Some(ac.fact.clone()),
            _ => None,
        })
        .expect("an access-check patch");
    assert!(
        qlogic::equivalent_rewriting(&cq, &views, std::slice::from_ref(&fact)).is_some(),
        "applying the patch unblocks the query"
    );
}

/// Extraction → disclosure audit: the calendar policy extracted from the app
/// does not disclose other users' attendance.
#[test]
fn extracted_calendar_policy_protects_other_users() {
    let opts = ViewGenOptions {
        session_params: vec!["MyUId".into()],
    };
    let mut lc = Lifecycle::new(CALENDAR.app(), CALENDAR.schema());
    lc.extract_policy(&opts).unwrap();

    // Sensitive: the full attendance relation of user 999 (someone else).
    let sensitive = Cq::new(
        vec![Term::var("e")],
        vec![qlogic::Atom::new(
            "Attendance",
            vec![Term::int(999), Term::var("e"), Term::var("n")],
        )],
        vec![],
    );
    let report = lc
        .audit_sensitive(&sensitive, &[("MyUId".to_string(), Value::Int(101))])
        .unwrap();
    assert!(
        !report.pqi.holds(),
        "another user's attendance must not become certain: {report}"
    );
}

/// Trace-awareness matters end to end: with the session's trace, Listing 1
/// works; with each statement decided in a fresh session (no trace), the
/// second query is blocked (T4's headline row).
#[test]
fn trace_awareness_ablation() {
    let mut db = CALENDAR.empty_db();
    db.execute_sql("INSERT INTO Users (UId, Name) VALUES (101, 'ann')")
        .unwrap();
    db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (1, 'x', 'work')")
        .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (101, 1, NULL)")
        .unwrap();
    let checker = ComplianceChecker::new(CALENDAR.schema(), CALENDAR.policy().unwrap());
    let proxy = SqlProxy::new(db, checker, ProxyConfig::default());
    let bindings = vec![("MyUId".to_string(), Value::Int(101))];
    let show_event = |port: &mut dyn appdsl::QueryPort| {
        run_handler(
            port,
            CALENDAR.app().handler("show_event").unwrap(),
            &bindings,
            &[("event_id".into(), Value::Int(1))],
            Limits::default(),
        )
        .unwrap()
    };

    let session = proxy.begin_session(bindings.clone());
    let traced = show_event(&mut ProxyPort {
        proxy: &proxy,
        session,
    });
    assert_eq!(traced.outcome, Outcome::Ok, "trace-aware run succeeds");

    let blind = show_event(&mut BlindPort {
        proxy: &proxy,
        bindings: bindings.clone(),
    });
    assert!(
        matches!(blind.outcome, Outcome::Blocked { .. }),
        "trace-blind run blocks the fetch"
    );
}
