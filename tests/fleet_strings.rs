//! The traffic claim behind `sqlir::Text`'s inline bound: every string
//! cell the fleet generators store is at most `INLINE_CAP` bytes, so a
//! populated fleet database owns no heap for its text. A cell's length
//! grows only with the digits of a user or row index; the same check at
//! the benchmark's 100,000 users passes too, in about 3 s of a debug
//! build, too slow for the root suite.

use appsim::AppSpec;
use bep_scenario::{Family, GeneratedApp};
use sqlir::Value;

#[test]
fn every_fleet_string_cell_is_inline() {
    for family in [Family::Social, Family::Review] {
        let app = GeneratedApp::new(family, 7, 1_000);
        let mut db = app.empty_db();
        app.populate(&mut db).expect("populates");
        let mut cells = 0;
        for name in db.table_names() {
            for row in db.table(&name).unwrap().rows() {
                for v in row {
                    if let Value::Str(t) = v {
                        assert!(t.is_inline(), "{name}: {t:?} is {} bytes", t.len());
                        cells += 1;
                    }
                }
            }
        }
        assert!(cells > 0, "{} stores string cells", family.name());
    }
}
