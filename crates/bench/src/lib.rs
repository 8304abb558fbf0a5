//! Shared harness for the evaluation: environment builders and table
//! formatting used by both the Criterion benches (`benches/`) and the
//! table-generating binaries (`src/bin/`).
//!
//! The experiment inventory lives in `DESIGN.md`; per-experiment
//! paper-vs-measured records live in `EXPERIMENTS.md`. Each binary prints
//! one table/figure series:
//!
//! | id | binary / bench |
//! |----|----------------|
//! | T1 | `t1_extraction` |
//! | T2 | bench `extraction` |
//! | F1 | `f1_generalization` |
//! | T3 | `t3_disclosure` |
//! | F2 | bench `disclosure` |
//! | T4 | `t4_enforcement` |
//! | F3 | bench `enforcement` |
//! | T5 | `t5_diagnosis` |
//! | F4 | `f4_rewriting` |
//! | T6 | `t6_ablation` |
//! | F5 | `f5_coverage` |

#![warn(missing_docs)]

use appdsl::Request;
use appsim::{seed_app, workload_for, Scale, SimApp};
use bep_core::{ComplianceChecker, ProxyConfig, SqlProxy};
use minidb::Database;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A ready-to-run experiment environment for one application.
pub struct AppEnv {
    /// The application definition.
    pub sim: &'static SimApp,
    /// Seeded database.
    pub db: Database,
    /// Request workload.
    pub requests: Vec<Request>,
}

/// Builds a seeded environment for an application.
pub fn app_env(sim: &'static SimApp, seed: u64, scale: Scale, n_requests: usize) -> AppEnv {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = sim.empty_db();
    seed_app(sim.name, &mut db, &mut rng, &scale);
    let requests = workload_for(sim.name, &db, &mut rng, n_requests).expect("workload");
    assert!(
        n_requests == 0 || !requests.is_empty(),
        "{} workload must be non-empty",
        sim.name
    );
    AppEnv { sim, db, requests }
}

/// Builds an enforcing proxy over a clone of the environment's database.
pub fn proxy_for(env: &AppEnv, config: ProxyConfig) -> SqlProxy {
    let schema = env.sim.schema();
    let policy = env.sim.policy().expect("ground-truth policy compiles");
    SqlProxy::new(
        env.db.clone(),
        ComplianceChecker::new(schema, policy),
        config,
    )
}

/// Prints a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a table header with a rule underneath.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    println!(
        "{}",
        "-".repeat(widths.iter().map(|w| w + 1).sum::<usize>())
    );
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::CALENDAR;

    #[test]
    fn env_builder_works() {
        let env = app_env(&CALENDAR, 1, Scale::small(), 10);
        assert_eq!(env.requests.len(), 10);
        assert!(env.db.total_rows() > 0);
        let proxy = proxy_for(&env, ProxyConfig::default());
        assert_eq!(proxy.stats().allowed, 0);
    }
}
