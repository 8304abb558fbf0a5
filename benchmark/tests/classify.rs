//! The load generator's keyword classifier against `sqlir::Statement`,
//! on everything the fleet emits: handler templates and raw probes.

use std::collections::BTreeSet;

use appsim::AppSpec;
use bep_benchmark::drive::{classify, Class, Driver, LogEntry};
use bep_benchmark::workload::{checker_for, proxy_config};
use bep_core::SqlProxy;
use bep_scenario::{fleet, TrafficConfig};
use sqlir::{parse_statement, Statement};

#[test]
fn classifier_agrees_with_the_parser_on_fleet_traffic() {
    let cfg = TrafficConfig {
        write_probe_fraction: 0.05,
        ..TrafficConfig::default()
    };
    for app in fleet(11, 256) {
        let mut db = app.empty_db();
        app.populate(&mut db).expect("populate");
        let proxy = SqlProxy::new(db, checker_for(&app), proxy_config());
        let parsed = app.app();
        let mut driver = Driver::new(&app, &parsed, cfg.clone(), 5, &proxy, true);
        for _ in 0..3000 {
            driver.step();
        }
        let log = driver.rec.trace.expect("traced drive");
        let mut seen = BTreeSet::new();
        let (mut handler_texts, mut raw_texts) = (0, 0);
        for entry in &log.entries {
            let LogEntry::Stmt { sql, handler, .. } = entry else {
                continue;
            };
            if !seen.insert(sql.as_str()) {
                continue;
            }
            let want = match parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
                Statement::Select(_) => Class::Read,
                Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => Class::Write,
                other => panic!("{}: the fleet emitted DDL: {other:?}", app.name),
            };
            assert_eq!(classify(sql), want, "{}: {sql}", app.name);
            if *handler {
                handler_texts += 1;
            } else {
                raw_texts += 1;
            }
        }
        assert!(
            handler_texts >= 4,
            "{}: {handler_texts} templates",
            app.name
        );
        assert!(raw_texts >= 50, "{}: {raw_texts} raw probes", app.name);
    }
}

#[test]
fn classifier_ignores_case_and_leading_space() {
    assert_eq!(classify("  select 1"), Class::Read);
    assert_eq!(classify("SeLeCt * FROM t"), Class::Read);
    assert_eq!(classify("INSERT INTO t VALUES (1)"), Class::Write);
    assert_eq!(classify("update t set a = 1"), Class::Write);
    assert_eq!(classify("DELETE FROM t"), Class::Write);
    assert_eq!(classify("sel"), Class::Write);
}
