//! Two layout claims over populated fleet databases.
//!
//! * The traffic claim behind `sqlir::Text`'s inline bound: every string
//!   cell the fleet generators store is at most `INLINE_CAP` bytes, so a
//!   populated fleet database owns no heap for its text. A cell's length
//!   grows only with the digits of a user or row index.
//! * minidb's typed cells: an `INT NOT NULL` column stores 8 bytes a cell
//!   and every other column a 24-byte `Value`, so a database's heap is
//!   that per row, plus one chunk-list entry per 1,024 rows of a column,
//!   plus chunk slack and indexes. A clone has neither of the last two
//!   (its chunks are cut to their length, its indexes start cold), so its
//!   `heap_bytes()` *is* the formula.
//!
//! The root suite checks the 1,000-user fleets. The benchmark's 100,000
//! users take about 3 s of a debug build, so that check is `#[ignore]`d
//! here and run in release: `cargo test --release --test fleet_strings --
//! --ignored`.

use std::mem::size_of;

use appsim::AppSpec;
use bep_scenario::{Family, GeneratedApp};
use minidb::Database;
use sqlir::{SqlType, Value};

/// Rows per chunk of a minidb column.
const CHUNK: usize = 1024;

fn populated(family: Family, users: u64) -> Database {
    let app = GeneratedApp::new(family, 7, users);
    let mut db = app.empty_db();
    app.populate(&mut db).expect("populates");
    db
}

fn assert_strings_inline(db: &Database, family: Family) {
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

/// The typed-cell formula over `db`'s tables: `(int cells, other cells,
/// chunks)`.
fn typed_cells(db: &Database) -> (usize, usize, usize) {
    let (mut ints, mut values, mut chunks) = (0, 0, 0);
    for name in db.table_names() {
        let table = db.table(&name).unwrap();
        let n = table.len();
        for column in &table.schema().columns {
            if column.ty == SqlType::Int && column.not_null {
                ints += n;
            } else {
                values += n;
            }
            chunks += n.div_ceil(CHUNK);
        }
    }
    (ints, values, chunks)
}

fn assert_typed_layout(db: &Database, family: Family) {
    let (ints, values, chunks) = typed_cells(db);
    assert!(ints > 0 && values > 0, "{}", family.name());
    // Both cell kinds are one list entry a chunk; `Vec<i64>` and
    // `Vec<Value>` are the same size.
    let formula = 8 * ints + size_of::<Value>() * values + chunks * size_of::<Vec<i64>>();
    assert_eq!(db.clone().heap_bytes(), formula, "{}", family.name());
    assert!(db.heap_bytes() >= formula, "{}", family.name());
}

#[test]
fn every_fleet_string_cell_is_inline() {
    for family in [Family::Social, Family::Review] {
        assert_strings_inline(&populated(family, 1_000), family);
    }
}

#[test]
fn a_fleet_database_owns_its_typed_cells() {
    for family in [Family::Social, Family::Review] {
        assert_typed_layout(&populated(family, 1_000), family);
    }
}

#[test]
#[ignore = "100,000 users: about 3 s of a debug build; run in release with --ignored"]
fn both_hold_at_the_benchmarks_100000_users() {
    for family in [Family::Social, Family::Review] {
        let db = populated(family, 100_000);
        assert_strings_inline(&db, family);
        assert_typed_layout(&db, family);
    }
}
