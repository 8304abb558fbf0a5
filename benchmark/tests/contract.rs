//! `BENCHMARK.json` at the repo root says what the tables in
//! `src/metrics.rs` and `src/workload.rs` say.

use bep_benchmark::metrics::{END_TO_END, LEDGER};
use bep_benchmark::workload::{RUN_SECONDS, WORKLOADS};
use bep_server::json::Json;

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {}", entry.to_wire()))
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = Json::parse(&text).expect("valid JSON");

    assert_eq!(
        json.get("run_seconds").and_then(Json::as_i64),
        Some(RUN_SECONDS as i64)
    );
    let paths = json.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(
        paths.iter().map(|p| p.as_str()).collect::<Vec<_>>(),
        [Some("benchmark")]
    );

    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(entry, "name"), w.name);
        assert_eq!(field(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let end_to_end = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.label());
        let Some(Json::Float(bound)) = entry.get("bound") else {
            panic!("{}: bound", m.name)
        };
        assert_eq!(*bound, m.bound, "{}", m.name);
        assert!(m.bound <= 0.25, "{}", m.name);
    }

    let per_layer = json
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(per_layer.len(), LEDGER.len());
    assert!(LEDGER.len() <= 128);
    for (entry, m) in per_layer.iter().zip(LEDGER) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.label());
    }
}

#[test]
fn names_and_units_stay_inside_the_contracts_alphabet() {
    let ok = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LEDGER.iter().map(|m| (m.name, m.unit)));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in names {
        assert!(
            ok(name, "_.-", 64) && name.as_bytes()[0].is_ascii_alphanumeric(),
            "{name}"
        );
        assert!(ok(unit, "_/%.-", 16), "{name}: unit {unit}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in &WORKLOADS {
        assert!(ok(w.name, "_.-", 64) && seen.insert(w.name), "{}", w.name);
    }
}
