//! Model test for minidb's constraint checks. Seeded random `INSERT`s (as
//! SQL and through [`Database::insert_rows`]), `UPDATE`s and `DELETE`s run
//! against a reference that keeps each table as a plain list of rows and
//! checks primary keys, `UNIQUE` and foreign keys by scanning it. Every
//! statement's result — `Ok` with its count, or the exact [`DbError`] — and
//! every table's final rows, in order, must match.
//!
//! The schema has a composite primary key, a nullable composite `UNIQUE`
//! beside a single-column one, and a child whose two foreign keys reference
//! the parent's primary key and its `UNIQUE (u, v)`, with `NULL`s allowed in
//! both; a `NULL` in a key references nothing, and a multi-row insert puts
//! every row in or none. Equality indexes are built by their first probe and dropped by any
//! update or delete; each case also builds every index itself — before,
//! during or after its load, or never — and one case in [`LARGE_EVERY`]
//! loads more than one 1,024-row chunk into both tables.

use minidb::{Database, DbError, ExecResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlir::{SqlType, Value};

/// Release-sized; a debug build runs a tenth (as the optimizer differential).
const CASES: usize = if cfg!(debug_assertions) { 400 } else { 4000 };

/// One case in this many loads more than a 1,024-row chunk per table.
const LARGE_EVERY: usize = 100;

const SCHEMA: [&str; 2] = [
    "CREATE TABLE P (a INT NOT NULL, b INT NOT NULL, u INT, v TEXT, note TEXT, \
     PRIMARY KEY (a, b), UNIQUE (u, v), UNIQUE (note))",
    "CREATE TABLE C (id INT PRIMARY KEY, pa INT, pb INT, pu INT, pv TEXT, \
     FOREIGN KEY (pa, pb) REFERENCES P, \
     FOREIGN KEY (pu, pv) REFERENCES P (u, v))",
];

/// Table indexes into the reference, in the catalog's (name) order: the
/// restrict check visits referencing tables in that order.
const C: usize = 0;
const P: usize = 1;

/// Every column set a check probes, per table, for building indexes.
const KEYS: [(&str, &[&[usize]]); 2] = [
    ("C", &[&[0], &[1, 2], &[3, 4]]),
    ("P", &[&[0, 1], &[2, 3], &[4]]),
];

struct Fk {
    cols: &'static [usize],
    target: usize,
    ref_cols: &'static [usize],
}

/// The reference: a table's declaration and its rows, checked by scans.
struct RefTable {
    name: &'static str,
    cols: &'static [(&'static str, SqlType, bool)],
    pk: &'static [usize],
    uniques: &'static [&'static [usize]],
    fks: &'static [Fk],
    rows: Vec<Vec<Value>>,
}

fn reference() -> [RefTable; 2] {
    use SqlType::{Int, Text};
    [
        RefTable {
            name: "C",
            cols: &[
                ("id", Int, true),
                ("pa", Int, false),
                ("pb", Int, false),
                ("pu", Int, false),
                ("pv", Text, false),
            ],
            pk: &[0],
            uniques: &[],
            fks: &[
                Fk {
                    cols: &[1, 2],
                    target: P,
                    ref_cols: &[0, 1],
                },
                Fk {
                    cols: &[3, 4],
                    target: P,
                    ref_cols: &[2, 3],
                },
            ],
            rows: Vec::new(),
        },
        RefTable {
            name: "P",
            cols: &[
                ("a", Int, true),
                ("b", Int, true),
                ("u", Int, false),
                ("v", Text, false),
                ("note", Text, false),
            ],
            pk: &[0, 1],
            uniques: &[&[2, 3], &[4]],
            fks: &[],
            rows: Vec::new(),
        },
    ]
}

/// Whether `x`'s columns `xc` equal `y`'s columns `yc` pairwise, as values
/// (`NULL` equal to `NULL`).
fn same(x: &[Value], xc: &[usize], y: &[Value], yc: &[usize]) -> bool {
    xc.iter().zip(yc).all(|(&i, &j)| x[i] == y[j])
}

fn has_null(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&c| row[c].is_null())
}

impl RefTable {
    fn shape(&self, row: &[Value]) -> Result<(), DbError> {
        for (&(col, ty, not_null), v) in self.cols.iter().zip(row) {
            match v.sql_type() {
                None if not_null => {
                    return Err(DbError::NullViolation(format!("{}.{col}", self.name)))
                }
                Some(t) if t != ty => {
                    return Err(DbError::TypeMismatch {
                        column: format!("{}.{col}", self.name),
                        expected: ty.name().to_string(),
                        found: format!("{v:?}"),
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The primary key, then each `UNIQUE`, in declaration order.
    fn keys(&self) -> impl Iterator<Item = &'static [usize]> {
        std::iter::once(self.pk).chain(self.uniques.iter().copied())
    }

    fn unique_violation(&self, key: &[usize]) -> DbError {
        DbError::UniqueViolation {
            table: self.name.to_string(),
            columns: key.iter().map(|&c| self.cols[c].0.to_string()).collect(),
        }
    }
}

/// A multi-row insert: every row or none.
fn insert_all(db: &mut [RefTable; 2], t: usize, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
    let (len, n) = (db[t].rows.len(), rows.len());
    let result = rows.into_iter().try_for_each(|row| insert(db, t, row));
    if result.is_err() {
        db[t].rows.truncate(len);
    }
    result.map(|()| n)
}

fn insert(db: &mut [RefTable; 2], t: usize, row: Vec<Value>) -> Result<(), DbError> {
    let table = &db[t];
    table.shape(&row)?;
    for key in table.keys() {
        // `NULL` never collides.
        if !has_null(&row, key) && table.rows.iter().any(|r| same(r, key, &row, key)) {
            return Err(table.unique_violation(key));
        }
    }
    for fk in table.fks {
        let target = &db[fk.target];
        if !has_null(&row, fk.cols)
            && !target
                .rows
                .iter()
                .any(|r| same(r, fk.ref_cols, &row, fk.cols))
        {
            return Err(DbError::ForeignKeyViolation {
                table: table.name.to_string(),
                ref_table: target.name.to_string(),
            });
        }
    }
    db[t].rows.push(row);
    Ok(())
}

/// Restrict mode: no row of a referencing table may hold the referenced key
/// of a row in `doomed`, unless its replacement keeps that key. A key
/// holding a `NULL` is referenced by nothing (SQL `=`).
fn restrict(
    db: &[RefTable; 2],
    t: usize,
    doomed: &[usize],
    replacements: Option<&[Vec<Value>]>,
) -> Result<(), DbError> {
    for other in db {
        for fk in other.fks.iter().filter(|fk| fk.target == t) {
            for (i, &at) in doomed.iter().enumerate() {
                let old = &db[t].rows[at];
                if has_null(old, fk.ref_cols) {
                    continue;
                }
                if replacements.is_some_and(|new| same(&new[i], fk.ref_cols, old, fk.ref_cols)) {
                    continue;
                }
                if other
                    .rows
                    .iter()
                    .any(|r| same(r, fk.cols, old, fk.ref_cols))
                {
                    return Err(DbError::ForeignKeyViolation {
                        table: other.name.to_string(),
                        ref_table: db[t].name.to_string(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// An `UPDATE`: every new row is computed and shape-checked, then the whole
/// post-update state is validated, then it is applied — or nothing is.
fn update(
    db: &mut [RefTable; 2],
    t: usize,
    sets: &[(usize, Set)],
    pred: &Pred,
) -> Result<usize, DbError> {
    let table = &db[t];
    let matching: Vec<usize> = (0..table.rows.len())
        .filter(|&i| pred.holds(&table.rows[i]))
        .collect();
    let mut new_rows = Vec::new();
    for &i in &matching {
        let old = &table.rows[i];
        let mut new = old.clone();
        for (c, set) in sets {
            new[*c] = set.eval(old);
        }
        table.shape(&new)?;
        new_rows.push(new);
    }
    for key in table
        .keys()
        .filter(|key| sets.iter().any(|(c, _)| key.contains(c)))
    {
        for (j, new) in new_rows.iter().enumerate() {
            if has_null(new, key) {
                continue;
            }
            let unchanged = (0..table.rows.len())
                .filter(|i| !matching.contains(i))
                .any(|i| same(&table.rows[i], key, new, key));
            let earlier = new_rows[..j].iter().any(|e| same(e, key, new, key));
            if unchanged || earlier {
                return Err(table.unique_violation(key));
            }
        }
    }
    for fk in table.fks {
        let target = &db[fk.target];
        for new in &new_rows {
            if !has_null(new, fk.cols)
                && !target
                    .rows
                    .iter()
                    .any(|r| same(r, fk.ref_cols, new, fk.cols))
            {
                return Err(DbError::ForeignKeyViolation {
                    table: table.name.to_string(),
                    ref_table: target.name.to_string(),
                });
            }
        }
    }
    restrict(db, t, &matching, Some(&new_rows))?;
    let count = new_rows.len();
    for (i, new) in matching.into_iter().zip(new_rows) {
        db[t].rows[i] = new;
    }
    Ok(count)
}

fn delete(db: &mut [RefTable; 2], t: usize, pred: &Pred) -> Result<usize, DbError> {
    let doomed: Vec<usize> = (0..db[t].rows.len())
        .filter(|&i| pred.holds(&db[t].rows[i]))
        .collect();
    restrict(db, t, &doomed, None)?;
    let mut at = 0;
    db[t].rows.retain(|_| {
        at += 1;
        !doomed.contains(&(at - 1))
    });
    Ok(doomed.len())
}

/// A `WHERE` clause the reference evaluates itself (a comparison with
/// `NULL` is never true).
enum Pred {
    All,
    Eq(usize, Value),
    Range(usize, i64, i64),
    IsNull(usize),
}

impl Pred {
    fn holds(&self, row: &[Value]) -> bool {
        match self {
            Pred::All => true,
            Pred::Eq(c, v) => !row[*c].is_null() && row[*c] == *v,
            Pred::Range(c, lo, hi) => row[*c].as_int().is_some_and(|x| *lo <= x && x < *hi),
            Pred::IsNull(c) => row[*c].is_null(),
        }
    }

    fn sql(&self, table: &RefTable) -> String {
        let name = |c: &usize| table.cols[*c].0;
        match self {
            Pred::All => String::new(),
            Pred::Eq(c, v) => format!(" WHERE {} = {}", name(c), literal(v)),
            Pred::Range(c, lo, hi) => {
                format!(" WHERE {0} >= {lo} AND {0} < {hi}", name(c))
            }
            Pred::IsNull(c) => format!(" WHERE {} IS NULL", name(c)),
        }
    }
}

/// A `SET` item's value: a literal, or an `INT` column of the old row plus
/// a constant (`NULL` stays `NULL`).
enum Set {
    Lit(Value),
    Plus(usize, i64),
}

impl Set {
    fn eval(&self, old: &[Value]) -> Value {
        match self {
            Set::Lit(v) => v.clone(),
            Set::Plus(c, k) => match old[*c] {
                Value::Int(x) => Value::Int(x + k),
                _ => Value::Null,
            },
        }
    }

    fn sql(&self, table: &RefTable) -> String {
        match self {
            Set::Lit(v) => literal(v),
            Set::Plus(c, k) => format!("{} + {k}", table.cols[*c].0),
        }
    }
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
    }
}

/// Key ranges: small enough that keys collide and references miss.
struct Ranges {
    ab: i64,
    u: i64,
    id: i64,
    note: i64,
}

/// A value for column `c` of table `t`: mostly well-formed, with `NULL`s in
/// nullable columns and now and then a `NULL` or a string where the column
/// refuses it.
fn value(rng: &mut SmallRng, table: &RefTable, c: usize, r: &Ranges) -> Value {
    let (name, ty, not_null) = table.cols[c];
    if rng.gen_bool(0.01) {
        return if ty == SqlType::Int {
            Value::str("oops")
        } else {
            Value::Int(7)
        };
    }
    if rng.gen_bool(if not_null { 0.01 } else { 0.2 }) {
        return Value::Null;
    }
    // Child columns reach a little past the parent's ranges, so some
    // references miss.
    let spill = |n: i64| if table.name == "C" { n + 2 } else { n };
    match name {
        "a" | "b" | "pa" | "pb" => Value::Int(rng.gen_range(0..spill(r.ab))),
        "u" | "pu" => Value::Int(rng.gen_range(0..spill(r.u))),
        "v" | "pv" => Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
        "note" => Value::str(format!("n{}", rng.gen_range(0..r.note))),
        "id" => Value::Int(rng.gen_range(0..r.id)),
        other => unreachable!("column {other}"),
    }
}

fn row(rng: &mut SmallRng, table: &RefTable, r: &Ranges) -> Vec<Value> {
    (0..table.cols.len())
        .map(|c| value(rng, table, c, r))
        .collect()
}

/// A large load that satisfies every constraint: 1,100 to 1,500 parents
/// with distinct keys, and 1,100 to 2,200 children referencing them (or
/// holding `NULL`s, so a parent's `NULL` in `(u, v)` is copied too).
fn valid_load(rng: &mut SmallRng, r: &Ranges) -> [Vec<Vec<Value>>; 2] {
    let maybe =
        |rng: &mut SmallRng, p: f64, v: Value| if rng.gen_bool(p) { Value::Null } else { v };
    let parents: Vec<Vec<Value>> = (0..rng.gen_range(1100..1500i64))
        .map(|i| {
            let v = Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]);
            vec![
                Value::Int(i % r.ab),
                Value::Int(i / r.ab),
                maybe(rng, 0.2, Value::Int(i)),
                maybe(rng, 0.2, v),
                maybe(rng, 0.5, Value::str(format!("n{i}"))),
            ]
        })
        .collect();
    let children = (0..rng.gen_range(1100..2200i64))
        .map(|id| {
            let p = &parents[rng.gen_range(0..parents.len())];
            let q = &parents[rng.gen_range(0..parents.len())];
            let (pa, pb) = if rng.gen_bool(0.15) {
                (Value::Null, Value::Null)
            } else {
                (p[0].clone(), p[1].clone())
            };
            vec![Value::Int(id), pa, pb, q[2].clone(), q[3].clone()]
        })
        .collect();
    [parents, children]
}

fn pred(rng: &mut SmallRng, table: &RefTable, r: &Ranges) -> Pred {
    let c = rng.gen_range(0..table.cols.len());
    match rng.gen_range(0..10) {
        0 => Pred::All,
        1 => Pred::IsNull(c),
        2..=4 if table.cols[c].1 == SqlType::Int => {
            let lo = rng.gen_range(0..r.ab);
            Pred::Range(c, lo, lo + rng.gen_range(1..4i64))
        }
        _ => match value(rng, table, c, r) {
            Value::Null => Pred::IsNull(c),
            v => Pred::Eq(c, v),
        },
    }
}

/// One or two distinct `SET` items.
fn sets(rng: &mut SmallRng, table: &RefTable, r: &Ranges) -> Vec<(usize, Set)> {
    let n = table.cols.len();
    let first = rng.gen_range(0..n);
    let mut cols = vec![first];
    if rng.gen_bool(0.4) {
        cols.push((first + rng.gen_range(1..n)) % n);
    }
    cols.into_iter()
        .map(|c| {
            let set = if table.cols[c].1 == SqlType::Int && rng.gen_bool(0.4) {
                Set::Plus(c, rng.gen_range(1..3i64))
            } else {
                Set::Lit(value(rng, table, c, r))
            };
            (c, set)
        })
        .collect()
}

/// A SQL `INSERT` of `rows`, its columns listed in a random order; a
/// column whose values are all `NULL` may be left out (it is stored as
/// `NULL` either way).
fn insert_sql(rng: &mut SmallRng, table: &RefTable, rows: &[Vec<Value>]) -> String {
    let mut cols: Vec<usize> = (0..table.cols.len())
        .filter(|&c| !rows.iter().all(|row| row[c].is_null()) || rng.gen_bool(0.5))
        .collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.gen_range(0..=i));
    }
    let names: Vec<&str> = cols.iter().map(|&c| table.cols[c].0).collect();
    let values: Vec<String> = rows
        .iter()
        .map(|row| {
            let vs: Vec<String> = cols.iter().map(|&c| literal(&row[c])).collect();
            format!("({})", vs.join(", "))
        })
        .collect();
    format!(
        "INSERT INTO {} ({}) VALUES {}",
        table.name,
        names.join(", "),
        values.join(", ")
    )
}

/// Builds every index a check can probe.
fn build_indexes(db: &Database) {
    for (name, keys) in KEYS {
        for cols in keys {
            db.table(name).unwrap().probe(cols);
        }
    }
}

/// What the statements of all cases came to, so the test can tell that
/// every kind of check fired.
#[derive(Default, Debug)]
struct Tally {
    ok: usize,
    unique: usize,
    foreign_key: usize,
    restrict: usize,
    shape: usize,
}

impl Tally {
    /// Counts a statement's result; `t` is the table it wrote (a foreign
    /// key refused in `P` can only be a restrict check).
    fn add(&mut self, t: usize, r: &Result<usize, DbError>) {
        match r {
            Ok(_) => self.ok += 1,
            Err(DbError::UniqueViolation { .. }) => self.unique += 1,
            Err(DbError::ForeignKeyViolation { .. }) if t == P => self.restrict += 1,
            Err(DbError::ForeignKeyViolation { .. }) => self.foreign_key += 1,
            Err(DbError::NullViolation(_) | DbError::TypeMismatch { .. }) => self.shape += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}

fn affected(r: Result<ExecResult, DbError>) -> Result<usize, DbError> {
    r.map(|res| match res {
        ExecResult::Affected(n) => n,
        other => panic!("a write returned {other:?}"),
    })
}

fn run_case(seed: u64, large: bool, tally: &mut Tally) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let r = if large {
        Ranges {
            ab: 48,
            u: 400,
            id: 4000,
            note: 3000,
        }
    } else {
        Ranges {
            ab: 6,
            u: 4,
            id: 60,
            note: 20,
        }
    };
    let mut db = Database::new();
    for sql in SCHEMA {
        db.execute_sql(sql).unwrap();
    }
    let mut model = reference();

    // The load: batches of parent rows, then of child rows, each through
    // `insert_rows` or one SQL `INSERT`. A small load is random, so its
    // batch that hits a violation loads nothing; a large one is valid, so
    // it loads whole.
    let [parents, children] = if large {
        valid_load(&mut rng, &r)
    } else {
        [(P, 5..40), (C, 5..60)].map(|(t, n)| {
            (0..rng.gen_range(n))
                .map(|_| row(&mut rng, &model[t], &r))
                .collect()
        })
    };
    let mut batches: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
    for (t, mut rows) in [(P, parents), (C, children)] {
        while !rows.is_empty() {
            let n = rng
                .gen_range(1..if large { 300usize } else { 6 })
                .min(rows.len());
            batches.push((t, rows.drain(..n).collect()));
        }
    }
    // Index builds: at the batch with this number (0 is before the load,
    // `batches.len()` after it), or never.
    let loads = batches.len();
    let build_at = rng.gen_range(0..loads + 2);
    for (i, (t, rows)) in batches.into_iter().enumerate() {
        if i == build_at {
            build_indexes(&db);
        }
        let (what, got) = if rng.gen_bool(0.5) {
            let name = model[t].name;
            (
                format!("insert_rows({name})"),
                db.insert_rows(name, rows.clone()),
            )
        } else {
            let sql = insert_sql(&mut rng, &model[t], &rows);
            let got = affected(db.execute_sql(&sql));
            (sql, got)
        };
        let expected = insert_all(&mut model, t, rows);
        assert_eq!(got, expected, "case {seed:#x}, load batch {i}: {what}");
        tally.add(t, &expected);
    }
    if build_at == loads {
        build_indexes(&db);
    }
    if large {
        for table in &model {
            assert!(table.rows.len() > 1024, "case {seed:#x}: {}", table.name);
        }
    }

    // Statements against the loaded tables.
    for i in 0..rng.gen_range(10..40) {
        if rng.gen_bool(0.1) {
            build_indexes(&db);
        }
        let t = if rng.gen_bool(0.5) { P } else { C };
        let table = &model[t];
        let (sql, expected) = match rng.gen_range(0..10) {
            0..=3 => {
                let mut rows: Vec<Vec<Value>> = (0..rng.gen_range(1..4))
                    .map(|_| row(&mut rng, table, &r))
                    .collect();
                // Half the children reference a stored parent by both keys,
                // so restrict checks keep finding references: a `NULL` in a
                // parent's key is referenced by nothing.
                let parents = &model[P].rows;
                for child in rows.iter_mut() {
                    if t == C && !parents.is_empty() && rng.gen_bool(0.5) {
                        let p = &parents[rng.gen_range(0..parents.len())];
                        child[1..5].clone_from_slice(&p[..4]);
                    }
                }
                let sql = insert_sql(&mut rng, table, &rows);
                (sql, insert_all(&mut model, t, rows))
            }
            4..=7 => {
                let sets = sets(&mut rng, table, &r);
                let pred = pred(&mut rng, table, &r);
                let items: Vec<String> = sets
                    .iter()
                    .map(|(c, set)| format!("{} = {}", table.cols[*c].0, set.sql(table)))
                    .collect();
                let sql = format!(
                    "UPDATE {} SET {}{}",
                    table.name,
                    items.join(", "),
                    pred.sql(table)
                );
                (sql, update(&mut model, t, &sets, &pred))
            }
            _ => {
                let pred = pred(&mut rng, table, &r);
                let sql = format!("DELETE FROM {}{}", table.name, pred.sql(table));
                (sql, delete(&mut model, t, &pred))
            }
        };
        let got = affected(db.execute_sql(&sql));
        assert_eq!(got, expected, "case {seed:#x}, statement {i}: {sql}");
        tally.add(t, &expected);
    }

    for table in &model {
        let stored: Vec<Vec<Value>> = db.table(table.name).unwrap().rows().collect();
        assert!(
            stored == table.rows,
            "case {seed:#x}: table {} holds {} rows, the reference {}",
            table.name,
            stored.len(),
            table.rows.len()
        );
    }
}

#[test]
fn constraint_checks_match_a_scanning_reference() {
    let mut tally = Tally::default();
    for case in 0..CASES {
        run_case(
            0xC0DE_0000 + case as u64,
            case % LARGE_EVERY == 1,
            &mut tally,
        );
    }
    // Every kind of outcome happened, many times over.
    let Tally {
        ok,
        unique,
        foreign_key,
        restrict,
        shape,
    } = tally;
    for (what, n) in [
        ("ok", ok),
        ("unique", unique),
        ("foreign key", foreign_key),
        ("restrict", restrict),
        ("shape", shape),
    ] {
        assert!(
            n >= CASES / 4,
            "{what}: {n} statements in {CASES} cases ({tally:?})"
        );
    }
}
