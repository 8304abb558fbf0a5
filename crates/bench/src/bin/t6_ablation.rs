//! T6 — Ablations of the design choices DESIGN.md calls out:
//!
//! 1. mining generalization controls (hints / policy-size minimization /
//!    active probes) vs extraction quality on the calendar app;
//! 2. fact-chase (trace-awareness) on/off vs the checker's allow rate on
//!    multi-step handlers;
//! 3. key-dependency chase on/off vs the forum metadata-probe pattern.
//!
//! Run: `cargo run -p bep-bench --bin t6_ablation --release`

use appdsl::QueryPort;
use appsim::{BlindPort, ProxyPort, Scale, CALENDAR, FORUM};
use bep_bench::{app_env, f2, header, proxy_for, row};
use bep_core::ProxyConfig;
use bep_extract::{
    collect_traces, mine_policy, refine, score_semantic_deps, ActiveOptions, Hints, MineOptions,
};

fn main() {
    mining_controls();
    trace_chase();
    key_chase();
}

fn mining_controls() {
    println!("-- ablation 1: mining generalization controls (calendar) --");
    let widths = [26usize, 7, 7, 7];
    header(&["variant", "views", "sem-P", "sem-R"], &widths);

    let env = app_env(&CALENDAR, 7, Scale::small(), 120);
    let schema = CALENDAR.schema();
    let truth = CALENDAR.ground_truth_cqs();
    let traces = collect_traces(&env.db, &CALENDAR.app(), &schema, &env.requests).unwrap();

    let variants: Vec<(&str, MineOptions)> = vec![
        (
            "gen only",
            MineOptions {
                hints: Hints::none(),
                minimize_policy: false,
                ..Default::default()
            },
        ),
        (
            "gen + minimize",
            MineOptions {
                hints: Hints::none(),
                minimize_policy: true,
                ..Default::default()
            },
        ),
        (
            "gen + hints",
            MineOptions {
                hints: Hints::id_columns(&schema),
                minimize_policy: false,
                ..Default::default()
            },
        ),
        (
            "gen + hints + minimize",
            MineOptions {
                hints: Hints::id_columns(&schema),
                minimize_policy: true,
                ..Default::default()
            },
        ),
    ];
    for (label, opts) in variants {
        let views = mine_policy(&traces, &opts);
        let s = score_semantic_deps(&views, &truth, &schema.dependencies());
        row(
            &[
                label.to_string(),
                views.len().to_string(),
                f2(s.precision),
                f2(s.recall),
            ],
            &widths,
        );
    }

    println!();

    // Active refinement matters on the wiki app when hints are NOT
    // available (hints and active probing are alternative remedies for the
    // same trap): the analytics probe's space id is invariant in a small
    // skewed workload, so mining pins it until mutation probing proves it
    // irrelevant.
    println!("-- ablation 1b: active constraint discovery (wiki, no hints) --");
    header(&["variant", "views", "sem-P", "sem-R"], &widths);
    let env = app_env(&appsim::WIKI, 21, Scale::small(), 10);
    let schema = appsim::WIKI.schema();
    let truth = appsim::WIKI.ground_truth_cqs();
    let traces = collect_traces(&env.db, &appsim::WIKI.app(), &schema, &env.requests).unwrap();
    let base = mine_policy(
        &traces,
        &MineOptions {
            hints: Hints::none(),
            minimize_policy: false,
            ..Default::default()
        },
    );
    let s = score_semantic_deps(&base, &truth, &schema.dependencies());
    row(
        &[
            "gen, no hints".to_string(),
            base.len().to_string(),
            f2(s.precision),
            f2(s.recall),
        ],
        &widths,
    );
    for budget in [0usize, 16, 64] {
        let (views, stats) = refine(
            base.clone(),
            &env.db,
            &appsim::WIKI.app(),
            &schema,
            &env.requests,
            ActiveOptions { max_probes: budget },
        )
        .unwrap();
        let s = score_semantic_deps(&views, &truth, &schema.dependencies());
        row(
            &[
                format!(
                    "+active (budget {budget}: {}p/{}gen)",
                    stats.probes, stats.generalized
                ),
                views.len().to_string(),
                f2(s.precision),
                f2(s.recall),
            ],
            &widths,
        );
    }
    println!();
}

/// Runs `n` requests of `sim`, each in a session of its own — or, `blind`,
/// each statement in a session of its own (`BlindPort`: no trace).
fn run_app(sim: &'static appsim::SimApp, n: usize, blind: bool) -> (usize, usize) {
    let env = app_env(sim, 31, Scale::small(), n);
    let proxy = proxy_for(&env, ProxyConfig::default());
    let app = sim.app();
    let mut ok = 0;
    let mut blocked = 0;
    for req in &env.requests {
        let handler = app.handler(&req.handler).unwrap();
        let session = proxy.begin_session(req.session.clone());
        let mut port = ProxyPort {
            proxy: &proxy,
            session,
        };
        let mut blind_port = BlindPort {
            proxy: &proxy,
            bindings: req.session.clone(),
        };
        let port: &mut dyn QueryPort = if blind { &mut blind_port } else { &mut port };
        let result = appdsl::run_handler(
            port,
            handler,
            &req.session,
            &req.params,
            appdsl::Limits::default(),
        )
        .unwrap();
        match result.outcome {
            appdsl::Outcome::Blocked { .. } => blocked += 1,
            _ => ok += 1,
        }
        proxy.end_session(session);
    }
    (ok, blocked)
}

fn trace_chase() {
    println!("-- ablation 2: trace facts on/off (calendar, 100 requests) --");
    let widths = [14usize, 8, 9];
    header(&["config", "ok", "blocked"], &widths);
    for (label, blind) in [("trace-aware", false), ("trace-blind", true)] {
        let (ok, blocked) = run_app(&CALENDAR, 100, blind);
        row(
            &[label.to_string(), ok.to_string(), blocked.to_string()],
            &widths,
        );
    }
    println!();
}

fn key_chase() {
    println!("-- ablation 3: key dependencies on/off (forum, 100 requests) --");
    let widths = [14usize, 8, 9];
    header(&["config", "ok", "blocked"], &widths);

    // With keys (normal path).
    let (ok, blocked) = run_app(&FORUM, 100, false);
    row(
        &["with-keys".into(), ok.to_string(), blocked.to_string()],
        &widths,
    );

    // Without keys: rebuild the checker from a schema stripped of keys.
    let env = app_env(&FORUM, 31, Scale::small(), 100);
    let mut schema = qlogic::RelSchema::new();
    let db = FORUM.empty_db();
    for name in db.table_names() {
        let table = db.table(&name).unwrap();
        schema.add_table(name.clone(), table.schema().column_names());
        // Keys deliberately not declared.
    }
    let checker = bep_core::ComplianceChecker::new(schema, FORUM.policy().unwrap());
    let proxy = bep_core::SqlProxy::new(env.db.clone(), checker, ProxyConfig::default());
    let app = FORUM.app();
    let mut ok2 = 0;
    let mut blocked2 = 0;
    for req in &env.requests {
        let handler = app.handler(&req.handler).unwrap();
        let session = proxy.begin_session(req.session.clone());
        let mut port = ProxyPort {
            proxy: &proxy,
            session,
        };
        let result = appdsl::run_handler(
            &mut port,
            handler,
            &req.session,
            &req.params,
            appdsl::Limits::default(),
        )
        .unwrap();
        match result.outcome {
            appdsl::Outcome::Blocked { .. } => blocked2 += 1,
            _ => ok2 += 1,
        }
        proxy.end_session(session);
    }
    row(
        &["no-keys".into(), ok2.to_string(), blocked2.to_string()],
        &widths,
    );
    println!();
    println!("shape claims: trace-blind and key-blind configurations spuriously");
    println!("block multi-step handlers that the full checker admits.");
    assert_eq!(run_app(&FORUM, 100, false).1, 0);
    assert!(
        blocked2 > 0,
        "key-blind checking must break the metadata-probe pattern"
    );
    let _ = (ok, blocked);
}
