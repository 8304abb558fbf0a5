//! Two same-seed `--smoke` traced runs agree byte for byte on every
//! counter-type ledger metric, and every output check holds.

use std::process::Command;

use bep_benchmark::metrics::LEDGER;
use bep_server::json::Json;

/// The exact metrics of one traced smoke run, as printed.
fn counter_section(workload: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bep-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            "1",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    let metrics = result.get("metrics").expect("metrics");
    LEDGER
        .iter()
        .filter(|m| m.exact)
        .map(|m| {
            let value = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            format!("{} {}\n", m.name, value.to_wire())
        })
        .collect()
}

#[test]
fn same_seed_smoke_runs_repeat_their_counters_exactly() {
    for workload in ["social-embedded", "review-wire"] {
        let first = counter_section(workload);
        assert_eq!(first, counter_section(workload), "{workload}");
        assert!(first.contains("trace.stmts"), "{first}");
    }
}
