//! T4 — Trace-aware enforcement: allow/block decisions on the calendar and
//! forum workloads, with cache effectiveness. The headline row reproduces
//! Example 2.1 at workload scale: without the session's trace (each
//! statement decided in a fresh session, `BlindPort`), multi-step
//! handlers break.
//!
//! Run: `cargo run -p bep-bench --bin t4_enforcement --release`

use appdsl::QueryPort;
use appsim::{BlindPort, ProxyPort, Scale, CALENDAR, FORUM};
use bep_bench::{app_env, header, proxy_for, row};
use bep_core::ProxyConfig;

fn main() {
    let widths = [9usize, 9, 8, 8, 8, 9, 9, 9];
    header(
        &[
            "app", "config", "ok", "denied", "blocked", "tmpl-hit", "sess-hit", "proofs",
        ],
        &widths,
    );

    for sim in [&CALENDAR, &FORUM] {
        let env = app_env(sim, 17, Scale::small(), 150);
        for (label, blind) in [("full", false), ("no-trace", true)] {
            let proxy = proxy_for(&env, ProxyConfig::default());
            let app = env.sim.app();
            let mut counts = [0usize; 3];
            for req in &env.requests {
                let handler = app.handler(&req.handler).expect("handler");
                let run = |port: &mut dyn QueryPort| {
                    appdsl::run_handler(
                        port,
                        handler,
                        &req.session,
                        &req.params,
                        appdsl::Limits::default(),
                    )
                    .expect("run")
                };
                let result = if blind {
                    run(&mut BlindPort {
                        proxy: &proxy,
                        bindings: req.session.clone(),
                    })
                } else {
                    let session = proxy.begin_session(req.session.clone());
                    let result = run(&mut ProxyPort {
                        proxy: &proxy,
                        session,
                    });
                    proxy.end_session(session);
                    result
                };
                match result.outcome {
                    appdsl::Outcome::Ok => counts[0] += 1,
                    appdsl::Outcome::Http(_) => counts[1] += 1,
                    appdsl::Outcome::Blocked { .. } => counts[2] += 1,
                }
            }
            let stats = proxy.stats();
            row(
                &[
                    sim.name.to_string(),
                    label.to_string(),
                    counts[0].to_string(),
                    counts[1].to_string(),
                    counts[2].to_string(),
                    stats.template_cache_hits.to_string(),
                    stats.session_cache_hits.to_string(),
                    (stats.template_proofs + stats.concrete_proofs).to_string(),
                ],
                &widths,
            );
            // The correct app is compliant under its ground-truth policy,
            // and Example 2.1's multi-step handlers need the trace.
            if blind {
                assert!(counts[2] > 0, "{}: no-trace blocked nothing", sim.name);
            } else {
                assert_eq!(counts[2], 0, "{}: the full proxy blocked", sim.name);
            }
        }
        println!();
    }

    println!("Shape claims (asserted):");
    println!("  - 'full' blocks 0 requests (the correct app is compliant);");
    println!("  - 'no-trace' blocks multi-step handlers (Example 2.1's point).");
}
