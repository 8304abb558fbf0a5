//! The database: catalog, DDL, and constraint-checked DML.
//!
//! A row is checked where it lies. The schema is borrowed from the catalog,
//! a foreign key's referenced columns are resolved once when its table is
//! created ([`ForeignKey::ref_indices`](crate::ForeignKey::ref_indices)),
//! and every `PRIMARY KEY`, `UNIQUE` and foreign-key check probes an
//! equality index with the candidate row's own cells
//! ([`Table::has_duplicate_on`], [`Table::contains_on`]), so inserting a
//! row moves it into the table and copies nothing else.
//!
//! Every statement is all or nothing. An `UPDATE` validates its whole
//! post-state before it writes; a multi-row `INSERT` checks each row
//! against the ones before it in place, and if one fails, the rows it
//! appended are taken back. A key holding a `NULL` references nothing.

use std::collections::{BTreeMap, HashSet};

use sqlir::{parse_statement, CreateTable, Delete, Expr, Insert, Statement, Update, Value};

use crate::error::DbError;
use crate::exec::{execute_query_with, matching_row_ids, Rows};
use crate::expr::{Bound, EvalCtx, Params, ScopeEntry};
use crate::schema::TableSchema;
use crate::table::Table;

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// Rows from a `SELECT`.
    Rows(Rows),
    /// Row count affected by DML.
    Affected(usize),
    /// A DDL statement completed.
    Created,
}

impl ExecResult {
    /// The rows of a `SELECT` result.
    pub fn rows(self) -> Option<Rows> {
        match self {
            ExecResult::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// An in-memory relational database.
///
/// `Database` is `Clone`: snapshotting the whole database is how the
/// diagnosis and active-learning components explore hypothetical states.
///
/// # Examples
///
/// ```
/// use minidb::Database;
///
/// let mut db = Database::new();
/// db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
/// db.execute_sql("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')").unwrap();
/// let rows = db.query_sql("SELECT name FROM t ORDER BY id DESC").unwrap();
/// assert_eq!(rows.rows.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Returns table names in sorted order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Parses and executes one statement of SQL text.
    pub fn execute_sql(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        let stmt = parse_statement(sql)?;
        self.execute(&stmt)
    }

    /// Parses and runs a `SELECT`, returning its rows.
    pub fn query_sql(&self, sql: &str) -> Result<Rows, DbError> {
        let stmt = parse_statement(sql)?;
        match stmt {
            Statement::Select(q) => self.query(&q),
            _ => Err(DbError::Unsupported("query_sql expects a SELECT".into())),
        }
    }

    /// Executes a parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecResult, DbError> {
        self.execute_with(stmt, &[])
    }

    /// Executes a parsed statement whose `?name` parameters take their
    /// values from `params`: the result of executing
    /// [`sqlir::bind_statement`]'s copy, without making it. An unbound
    /// parameter is an error only where evaluation reaches it; a caller that
    /// must refuse what binding refuses checks [`sqlir::unbound_error`]
    /// first. A `SELECT` needs no `&mut`: [`Database::query_with`].
    pub fn execute_with(
        &mut self,
        stmt: &Statement,
        params: Params<'_>,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::Select(q) => Ok(ExecResult::Rows(self.query_with(q, params)?)),
            Statement::Insert(ins) => self.insert(ins, params).map(ExecResult::Affected),
            Statement::Update(u) => self.update(u, params).map(ExecResult::Affected),
            Statement::Delete(d) => self.delete(d, params).map(ExecResult::Affected),
            Statement::CreateTable(ct) => {
                self.create_table(ct)?;
                Ok(ExecResult::Created)
            }
        }
    }

    /// Runs a parsed `SELECT`.
    pub fn query(&self, q: &sqlir::Query) -> Result<Rows, DbError> {
        self.query_with(q, &[])
    }

    /// Runs a parsed `SELECT` with its parameters read from `params` (see
    /// [`Database::execute_with`]).
    pub fn query_with(&self, q: &sqlir::Query, params: Params<'_>) -> Result<Rows, DbError> {
        execute_query_with(self, q, params)
    }

    /// Creates a table from a parsed definition.
    pub fn create_table(&mut self, ct: &CreateTable) -> Result<(), DbError> {
        if self.tables.contains_key(&ct.name) {
            return Err(DbError::TableExists(ct.name.clone()));
        }
        let mut schema = TableSchema::from_create(ct)?;
        // Validate FK targets eagerly and resolve their columns once, so
        // later inserts can't hit a missing table mid-check. Tables are never
        // dropped or altered, so the resolution stays true.
        for fk in &mut schema.foreign_keys {
            let target = &self.table(&fk.ref_table)?.schema;
            let ref_cols = if fk.ref_columns.is_empty() {
                if target.primary_key.is_empty() {
                    return Err(DbError::BadSchema(format!(
                        "foreign key references {} which has no primary key",
                        target.name
                    )));
                }
                target.primary_key.clone()
            } else {
                target.resolve_columns(&fk.ref_columns)?
            };
            if ref_cols.len() != fk.columns.len() {
                return Err(DbError::BadSchema(format!(
                    "foreign key arity mismatch: {} vs {}",
                    fk.columns.len(),
                    ref_cols.len()
                )));
            }
            fk.ref_indices = ref_cols;
        }
        self.tables.insert(ct.name.clone(), Table::new(schema));
        Ok(())
    }

    /// Inserts literal rows directly (bypassing SQL), with constraint checks.
    /// Atomic, as SQL `INSERT`: either every row goes in or none does.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        let n = rows.len();
        self.atomically(table, |db| {
            rows.into_iter()
                .try_for_each(|row| db.insert_one(table, row))
        })?;
        Ok(n)
    }

    fn insert(&mut self, ins: &Insert, params: Params<'_>) -> Result<usize, DbError> {
        let schema = &self.table(&ins.table)?.schema;
        let width = schema.columns.len();

        // Map the statement's column list onto schema order.
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..width).collect()
        } else {
            schema.resolve_columns(&ins.columns)?
        };

        self.atomically(&ins.table, |db| {
            for row_exprs in &ins.rows {
                if row_exprs.len() != positions.len() {
                    return Err(DbError::ArityMismatch {
                        table: ins.table.clone(),
                        expected: positions.len(),
                        found: row_exprs.len(),
                    });
                }
                let mut row = vec![Value::Null; width];
                for (pos, e) in positions.iter().zip(row_exprs) {
                    row[*pos] = db.eval_standalone(e, params)?;
                }
                db.insert_one(&ins.table, row)?;
            }
            Ok(())
        })?;
        Ok(ins.rows.len())
    }

    /// Runs `append`, which appends rows to `table` one checked row at a
    /// time, so that it appends all or nothing: if it fails, the rows it
    /// appended are taken back. Each row is checked against the ones before
    /// it in place, and only the failure path pays for the rollback.
    fn atomically(
        &mut self,
        table: &str,
        append: impl FnOnce(&mut Database) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let len = self.tables.get(table).map(Table::len);
        let result = append(self);
        if let (Err(_), Some(len)) = (&result, len) {
            self.tables
                .get_mut(table)
                .expect("it had rows")
                .truncate(len);
        }
        result
    }

    /// Checks `row` where it lies — every probe reads the candidate's own
    /// cells and the schema is borrowed — then appends it.
    fn insert_one(&mut self, table_name: &str, row: Vec<Value>) -> Result<(), DbError> {
        let table = self.table(table_name)?;
        table.check_row_shape(&row)?;
        let schema = &table.schema;

        // PK / UNIQUE.
        if !schema.primary_key.is_empty() {
            // Primary-key columns are NOT NULL, so `NULL never collides`
            // does not weaken the check here.
            if table.has_duplicate_on(&schema.primary_key, &row, None) {
                return Err(DbError::UniqueViolation {
                    table: schema.name.clone(),
                    columns: schema
                        .primary_key
                        .iter()
                        .map(|&i| schema.columns[i].name.clone())
                        .collect(),
                });
            }
        }
        for uniq in &schema.uniques {
            if table.has_duplicate_on(uniq, &row, None) {
                return Err(DbError::UniqueViolation {
                    table: schema.name.clone(),
                    columns: uniq
                        .iter()
                        .map(|&i| schema.columns[i].name.clone())
                        .collect(),
                });
            }
        }

        // Foreign keys.
        for fk in &schema.foreign_keys {
            if fk.columns.iter().any(|&c| row[c].is_null()) {
                continue; // NULL FKs are vacuously satisfied.
            }
            let target = self.table(&fk.ref_table)?;
            if !target.contains_on(&fk.ref_indices, &row, &fk.columns) {
                return Err(DbError::ForeignKeyViolation {
                    table: schema.name.clone(),
                    ref_table: fk.ref_table.clone(),
                });
            }
        }

        self.tables
            .get_mut(table_name)
            .expect("existence checked above")
            .push_row(row);
        Ok(())
    }

    fn update(&mut self, u: &Update, params: Params<'_>) -> Result<usize, DbError> {
        let table = self.table(&u.table)?;
        let schema = &table.schema;
        let assignments: Vec<(usize, &Expr)> = u
            .assignments
            .iter()
            .map(|a| {
                schema
                    .column_index(&a.column)
                    .map(|i| (i, &a.value))
                    .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{}", u.table, a.column)))
            })
            .collect::<Result<_, _>>()?;

        // Compute the new row set first, then validate it wholesale. This
        // keeps multi-row updates atomic: either all rows change or none do.
        let matching = matching_row_ids(self, &u.table, u.where_clause.as_ref(), params)?;
        let mut new_rows: Vec<Vec<Value>> = Vec::with_capacity(matching.len());
        let scope = [ScopeEntry {
            binding: &u.table,
            table,
        }];
        let values: Vec<(usize, Bound<'_>)> = assignments
            .iter()
            .map(|(col, e)| (*col, Bound::bind(e, &scope, None, params)))
            .collect();
        for &idx in &matching {
            let old = table.row(idx);
            let rows = [old];
            let ctx = EvalCtx {
                db: self,
                scope: &scope,
                rows: &rows,
                outer: None,
                params,
            };
            let mut new = old.to_vec();
            for (col, value) in &values {
                new[*col] = value.eval(&ctx)?.into_owned();
            }
            table.check_row_shape(&new)?;
            new_rows.push(new);
        }

        // Validate uniqueness against the post-update state: unchanged rows
        // as stored, changed rows as they will be. Only a key an assignment
        // touches can newly collide, and only a changed row can be party to
        // the collision — with an unchanged row (found through the index;
        // `matching` is ascending) or with another changed one.
        let key_sets = std::iter::once(&schema.primary_key)
            .filter(|k| !k.is_empty())
            .chain(&schema.uniques)
            .filter(|keys| values.iter().any(|(col, _)| keys.contains(col)));
        for keys in key_sets {
            let probe = table.probe(keys);
            let mut seen = HashSet::new();
            for new in &new_rows {
                if keys.iter().any(|&c| new[c].is_null()) {
                    continue;
                }
                let hits_unchanged = probe
                    .matching_row(new, keys)
                    .any(|id| matching.binary_search(&(id as usize)).is_err());
                let key: Vec<&Value> = keys.iter().map(|&c| &new[c]).collect();
                if hits_unchanged || !seen.insert(key) {
                    return Err(DbError::UniqueViolation {
                        table: schema.name.clone(),
                        columns: keys
                            .iter()
                            .map(|&c| schema.columns[c].name.clone())
                            .collect(),
                    });
                }
            }
        }

        // FK checks on the new values.
        for fk in &schema.foreign_keys {
            let target = self.table(&fk.ref_table)?;
            for new in &new_rows {
                if fk.columns.iter().any(|&c| new[c].is_null()) {
                    continue;
                }
                if !target.contains_on(&fk.ref_indices, new, &fk.columns) {
                    return Err(DbError::ForeignKeyViolation {
                        table: schema.name.clone(),
                        ref_table: fk.ref_table.clone(),
                    });
                }
            }
        }

        // Referential integrity for tables referencing this one: the old key
        // values being changed must not be referenced elsewhere.
        self.check_not_referenced(&u.table, &matching, Some(&new_rows))?;

        let count = new_rows.len();
        let table = self.tables.get_mut(&u.table).expect("checked");
        for (idx, new) in matching.into_iter().zip(new_rows) {
            for (stored, v) in table.row_mut(idx).iter_mut().zip(new) {
                *stored = v;
            }
        }
        Ok(count)
    }

    fn delete(&mut self, d: &Delete, params: Params<'_>) -> Result<usize, DbError> {
        let matching = matching_row_ids(self, &d.table, d.where_clause.as_ref(), params)?;
        self.check_not_referenced(&d.table, &matching, None)?;
        let count = matching.len();
        self.tables
            .get_mut(&d.table)
            .expect("checked by matching_row_ids")
            .remove_rows(matching);
        Ok(count)
    }

    /// Restrict-mode referential check: rows being removed (or whose key is
    /// being changed to the parallel `replacements`) must not be referenced
    /// by any foreign key.
    fn check_not_referenced(
        &self,
        table_name: &str,
        row_indices: &[usize],
        replacements: Option<&[Vec<Value>]>,
    ) -> Result<(), DbError> {
        let target = self.table(table_name)?;
        for (other_name, other) in &self.tables {
            for fk in &other.schema.foreign_keys {
                if fk.ref_table != table_name {
                    continue;
                }
                for (i, &ri) in row_indices.iter().enumerate() {
                    let old_row = target.row(ri);
                    // Updates only violate if the key actually changes.
                    if let Some(new_row) = replacements.map(|reps| &reps[i]) {
                        if fk.ref_indices.iter().all(|&c| new_row[c] == old_row[c]) {
                            continue;
                        }
                    }
                    if other.contains_on(&fk.columns, old_row, &fk.ref_indices) {
                        return Err(DbError::ForeignKeyViolation {
                            table: other_name.clone(),
                            ref_table: table_name.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates an expression with no row context (literals, parameters and
    /// arithmetic).
    fn eval_standalone(&self, e: &Expr, params: Params<'_>) -> Result<Value, DbError> {
        let ctx = EvalCtx {
            db: self,
            scope: &[],
            rows: &[],
            outer: None,
            params,
        };
        Ok(Bound::bind(e, &[], None, params).eval(&ctx)?.into_owned())
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Direct mutable access to a table's rows, bypassing constraints.
    ///
    /// Used by diagnosis/counterexample search, which explores hypothetical
    /// databases and re-validates separately.
    pub fn table_mut_unchecked(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calendar_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)")
            .unwrap();
        db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT NOT NULL, Kind TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Attendance (UId INT NOT NULL, EId INT NOT NULL, Notes TEXT, \
             PRIMARY KEY (UId, EId), \
             FOREIGN KEY (UId) REFERENCES Users (UId), \
             FOREIGN KEY (EId) REFERENCES Events (EId))",
        )
        .unwrap();
        db.execute_sql("INSERT INTO Users (UId, Name) VALUES (1, 'ann'), (2, 'bob')")
            .unwrap();
        db.execute_sql(
            "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
             (3, 'party', 'fun')",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'bring cake')",
        )
        .unwrap();
        db
    }

    #[test]
    fn example_2_1_queries_run() {
        let db = calendar_db();
        // Q1: does user 1 attend event 2?
        let q1 = db
            .query_sql("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
            .unwrap();
        assert_eq!(q1.len(), 1);
        // Q2: fetch event 2's details.
        let q2 = db.query_sql("SELECT * FROM Events WHERE EId = 2").unwrap();
        assert_eq!(q2.columns, vec!["EId", "Title", "Kind"]);
        assert_eq!(q2.rows[0][1], Value::str("standup"));
    }

    #[test]
    fn join_with_alias() {
        let db = calendar_db();
        let rows = db
            .query_sql(
                "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = 1",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("standup")]]);
    }

    #[test]
    fn pk_violation_rejected() {
        let mut db = calendar_db();
        let err = db
            .execute_sql("INSERT INTO Users (UId, Name) VALUES (1, 'dup')")
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
    }

    #[test]
    fn fk_violation_rejected() {
        let mut db = calendar_db();
        let err = db
            .execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (9, 2, NULL)")
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn delete_restricted_by_fk() {
        let mut db = calendar_db();
        let err = db
            .execute_sql("DELETE FROM Users WHERE UId = 1")
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        // Deleting the attendance first unblocks the user delete.
        db.execute_sql("DELETE FROM Attendance WHERE UId = 1")
            .unwrap();
        assert_eq!(
            db.execute_sql("DELETE FROM Users WHERE UId = 1").unwrap(),
            ExecResult::Affected(1)
        );
    }

    #[test]
    fn update_applies_and_validates() {
        let mut db = calendar_db();
        let n = db
            .execute_sql("UPDATE Events SET Title = 'sprint' WHERE EId = 2")
            .unwrap();
        assert_eq!(n, ExecResult::Affected(1));
        let rows = db
            .query_sql("SELECT Title FROM Events WHERE EId = 2")
            .unwrap();
        assert_eq!(rows.rows[0][0], Value::str("sprint"));

        // Updating a referenced key is restricted.
        let err = db
            .execute_sql("UPDATE Events SET EId = 99 WHERE EId = 2")
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn update_unique_conflict_is_atomic() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute_sql("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
            .unwrap();
        // Setting both ids to 5 must fail and change nothing.
        let err = db.execute_sql("UPDATE t SET id = 5").unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        let rows = db.query_sql("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    fn keyed_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, UNIQUE (v))")
            .unwrap();
        db.execute_sql("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30), (9, NULL)")
            .unwrap();
        db
    }

    fn ids_and_vs(db: &Database) -> Vec<Vec<Value>> {
        db.query_sql("SELECT id, v FROM t ORDER BY id")
            .unwrap()
            .rows
    }

    // The three cases below pin "uniqueness is validated against the
    // *post*-update state": a changed row's old key is no longer in the way.

    #[test]
    fn update_shifting_consecutive_keys_succeeds() {
        let mut db = keyed_db();
        let n = db.execute_sql("UPDATE t SET id = id + 1 WHERE id < 9");
        assert_eq!(n.unwrap(), ExecResult::Affected(3));
        let ids: Vec<Value> = ids_and_vs(&db).into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, [2, 3, 4, 9].map(Value::Int));
    }

    #[test]
    fn update_swapping_two_keys_succeeds() {
        let mut db = keyed_db();
        db.execute_sql("UPDATE t SET id = 3 - id, v = 30 - v WHERE id < 3")
            .unwrap();
        assert_eq!(
            ids_and_vs(&db)[..2],
            [[1, 10].map(Value::Int), [2, 20].map(Value::Int)]
        );
        assert_eq!(
            db.query_sql("SELECT v FROM t WHERE id = 1").unwrap().rows,
            vec![vec![Value::Int(10)]]
        );
    }

    #[test]
    fn update_colliding_with_an_unchanged_row_fails_atomically() {
        let mut db = keyed_db();
        let before = ids_and_vs(&db);
        // Against the primary key, and against the UNIQUE column; row 3 is
        // not selected, so it keeps the key the update runs into.
        for sql in [
            "UPDATE t SET id = id + 1 WHERE id < 3",
            "UPDATE t SET v = v + 10 WHERE id < 3",
        ] {
            let err = db.execute_sql(sql).unwrap_err();
            assert!(matches!(err, DbError::UniqueViolation { .. }), "{sql}");
            assert_eq!(ids_and_vs(&db), before, "{sql}");
        }
        // NULL never collides, with a stored NULL or another new one.
        db.execute_sql("UPDATE t SET v = NULL WHERE id < 3")
            .unwrap();
    }

    /// An update's cost follows the rows it changes, not the table: the
    /// uniqueness check used to clone the table and compare all pairs.
    #[test]
    fn one_row_update_of_a_large_table_is_fast() {
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE big (id INT PRIMARY KEY, owner INT, title TEXT, UNIQUE (id, owner))",
        )
        .unwrap();
        let rows = (0..50_000).map(|i| vec![Value::Int(i), Value::Int(i / 4), Value::str("t")]);
        db.insert_rows("big", rows.collect()).unwrap();
        let start = std::time::Instant::now();
        let n = db.execute_sql("UPDATE big SET title = 'u' WHERE owner = 77");
        assert_eq!(n.unwrap(), ExecResult::Affected(4));
        let n = db.execute_sql("UPDATE big SET id = 50000 WHERE id = 40000");
        assert_eq!(n.unwrap(), ExecResult::Affected(1));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "two small updates of a 50,000-row table took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn aggregates_group_having() {
        let db = calendar_db();
        let rows = db
            .query_sql("SELECT Kind, COUNT(*) AS n FROM Events GROUP BY Kind ORDER BY Kind")
            .unwrap();
        assert_eq!(
            rows.rows,
            vec![
                vec![Value::str("fun"), Value::Int(1)],
                vec![Value::str("work"), Value::Int(1)],
            ]
        );
        let rows = db
            .query_sql("SELECT COUNT(*) FROM Events WHERE Kind = 'nope'")
            .unwrap();
        assert_eq!(rows.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn sum_min_max_avg() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE n (x INT)").unwrap();
        db.execute_sql("INSERT INTO n (x) VALUES (1), (2), (3), (NULL)")
            .unwrap();
        let rows = db
            .query_sql("SELECT SUM(x), MIN(x), MAX(x), AVG(x), COUNT(x), COUNT(*) FROM n")
            .unwrap();
        assert_eq!(
            rows.rows[0],
            vec![
                Value::Int(6),
                Value::Int(1),
                Value::Int(3),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
            ]
        );
    }

    #[test]
    fn distinct_and_limit() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        db.execute_sql("INSERT INTO t (x) VALUES (1), (1), (2), (2), (3)")
            .unwrap();
        let rows = db
            .query_sql("SELECT DISTINCT x FROM t ORDER BY x LIMIT 2")
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn correlated_exists_subquery() {
        let db = calendar_db();
        let rows = db
            .query_sql(
                "SELECT u.Name FROM Users u WHERE EXISTS \
                 (SELECT 1 FROM Attendance a WHERE a.UId = u.UId AND a.EId = 3)",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("bob")]]);
    }

    #[test]
    fn in_subquery() {
        let db = calendar_db();
        let rows = db
            .query_sql(
                "SELECT Title FROM Events WHERE EId IN \
                 (SELECT EId FROM Attendance WHERE UId = 2) ORDER BY Title",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("party")]]);
    }

    #[test]
    fn null_semantics_in_where() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        db.execute_sql("INSERT INTO t (x) VALUES (1), (NULL)")
            .unwrap();
        // NULL = NULL is unknown, so only x = 1 matches x = x? No: x = x is
        // unknown for NULL rows, true otherwise.
        assert_eq!(
            db.query_sql("SELECT x FROM t WHERE x = x").unwrap().len(),
            1
        );
        assert_eq!(
            db.query_sql("SELECT x FROM t WHERE x IS NULL")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.query_sql("SELECT x FROM t WHERE x <> 1 OR x = 1")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn not_in_with_null_list_is_empty() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        db.execute_sql("INSERT INTO t (x) VALUES (1), (2)").unwrap();
        // x NOT IN (2, NULL) is never TRUE (unknown for 1, false for 2).
        assert_eq!(
            db.query_sql("SELECT x FROM t WHERE x NOT IN (2, NULL)")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn ambiguous_column_is_an_error() {
        let db = calendar_db();
        let err = db
            .query_sql("SELECT UId FROM Users u JOIN Attendance a ON u.UId = a.UId")
            .unwrap_err();
        assert!(matches!(err, DbError::AmbiguousColumn(_)));
    }

    #[test]
    fn cross_product_from_list() {
        let db = calendar_db();
        let rows = db.query_sql("SELECT COUNT(*) FROM Users, Events").unwrap();
        assert_eq!(rows.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let rows = db.query_sql("SELECT 1 + 2").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn order_by_alias_and_desc() {
        let db = calendar_db();
        let rows = db
            .query_sql("SELECT Title AS t FROM Events ORDER BY t DESC")
            .unwrap();
        assert_eq!(
            rows.rows,
            vec![vec![Value::str("standup")], vec![Value::str("party")]]
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let db = Database::new();
        assert!(matches!(
            db.query_sql("SELECT 1 / 0"),
            Err(DbError::Eval(_))
        ));
    }

    #[test]
    fn snapshot_semantics_via_clone() {
        let mut db = calendar_db();
        let snapshot = db.clone();
        db.execute_sql("DELETE FROM Attendance WHERE UId = 2")
            .unwrap();
        assert_eq!(db.table("Attendance").unwrap().len(), 1);
        assert_eq!(snapshot.table("Attendance").unwrap().len(), 2);
    }

    /// A parent with a `UNIQUE (u, v)` key holding a `NULL`, and a child
    /// whose foreign key into it holds a `NULL` too.
    fn null_keyed_pair() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE P (a INT PRIMARY KEY, u INT, v TEXT, UNIQUE (u, v))")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE C (pu INT, pv TEXT, FOREIGN KEY (pu, pv) REFERENCES P (u, v))",
        )
        .unwrap();
        db.execute_sql("INSERT INTO P (a, u, v) VALUES (10, NULL, 'q'), (11, 1, 'q')")
            .unwrap();
        db.execute_sql("INSERT INTO C (pu, pv) VALUES (NULL, 'q'), (1, 'q')")
            .unwrap();
        db
    }

    #[test]
    fn a_null_key_references_nothing() {
        let mut db = null_keyed_pair();
        // The child's `(NULL, 'q')` references no row, so the parent whose
        // key is `(NULL, 'q')` may go (as in Postgres)...
        assert_eq!(
            db.execute_sql("DELETE FROM P WHERE a = 10").unwrap(),
            ExecResult::Affected(1)
        );
        // ...while the one `(1, 'q')` references is still held.
        assert!(matches!(
            db.execute_sql("DELETE FROM P WHERE a = 11"),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        assert_eq!(
            (db.table("P").unwrap().len(), db.table("C").unwrap().len()),
            (1, 2)
        );
    }

    #[test]
    fn a_multi_row_insert_is_atomic() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE P (a INT PRIMARY KEY, u INT, v TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO P (a, u, v) VALUES (1, 1, 'x')")
            .unwrap();
        let rows = |db: &Database| -> Vec<Vec<Value>> {
            db.table("P")
                .unwrap()
                .rows()
                .map(<[Value]>::to_vec)
                .collect()
        };
        let before = rows(&db);
        // The third row collides with the first: nothing goes in, through
        // SQL or `insert_rows`, with every index built or none.
        for build in [false, true] {
            if build {
                db.table("P").unwrap().probe(&[0]);
            }
            assert!(matches!(
                db.execute_sql(
                    "INSERT INTO P (a, u, v) VALUES (2, 2, 'y'), (3, 3, 'y'), (2, 4, 'z')"
                ),
                Err(DbError::UniqueViolation { .. })
            ));
            assert_eq!(rows(&db), before);
            let batch = [2, 3, 2].map(|a| vec![Value::Int(a), Value::Null, Value::Null]);
            assert!(db.insert_rows("P", batch.to_vec()).is_err());
            assert_eq!(rows(&db), before);
        }
        // The taken-back rows left no trace in the key index: the same rows
        // without the collision go in.
        assert_eq!(
            db.execute_sql("INSERT INTO P (a, u, v) VALUES (2, 2, 'y'), (3, 3, 'y')")
                .unwrap(),
            ExecResult::Affected(2)
        );
        assert_eq!(db.table("P").unwrap().len(), 3);
    }
}
