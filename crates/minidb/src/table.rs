//! Row storage for one table.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use sqlir::Value;

use crate::error::DbError;
use crate::schema::TableSchema;

/// A lazily built equality index over one column set: maps each non-NULL
/// key tuple to the indices of the rows holding it, in insertion order.
///
/// Rows with a `NULL` in any key column are *excluded*: SQL `=` never
/// matches `NULL`, so an equality probe can never select them, and their
/// absence makes `NULL` probe keys miss for free.
#[derive(Debug, Default, Clone)]
pub struct EqIndex {
    groups: HashMap<Key, RowIds>,
}

/// An index key. Most indexes are over one column (a PK, an FK, a probed
/// column), and a one-value key lives inline instead of in a heap
/// allocation per key. Hashes and compares as the `[Value]` it stands for,
/// so the map is probed with a borrowed slice.
#[derive(Debug, Clone)]
enum Key {
    One(Value),
    Many(Box<[Value]>),
}

impl Key {
    fn of(cols: &[usize], row: &[Value]) -> Key {
        match cols {
            [c] => Key::One(row[*c].clone()),
            _ => Key::Many(cols.iter().map(|&c| row[c].clone()).collect()),
        }
    }

    fn as_slice(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// The rows under one key. A PK/UNIQUE index has exactly one row per key,
/// so that id lives inline instead of in a second heap allocation per key.
#[derive(Debug, Clone)]
enum RowIds {
    One(u32),
    Many(Vec<u32>),
}

impl RowIds {
    fn push(&mut self, idx: u32) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, idx]),
            RowIds::Many(ids) => ids.push(idx),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            RowIds::One(id) => std::slice::from_ref(id),
            RowIds::Many(ids) => ids,
        }
    }
}

impl EqIndex {
    fn build(cols: &[usize], rows: &[Vec<Value>]) -> EqIndex {
        let mut index = EqIndex::default();
        for (i, row) in rows.iter().enumerate() {
            index.append(cols, row, i as u32);
        }
        index
    }

    fn append(&mut self, cols: &[usize], row: &[Value], idx: u32) {
        if cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        match self.groups.entry(Key::of(cols, row)) {
            Entry::Occupied(mut e) => e.get_mut().push(idx),
            Entry::Vacant(e) => {
                e.insert(RowIds::One(idx));
            }
        }
    }

    /// The indices of the rows whose key columns equal `key`, in insertion
    /// order. A key containing `NULL` matches nothing.
    pub fn rows_matching(&self, key: &[Value]) -> &[u32] {
        self.groups.get(key).map_or(&[], RowIds::as_slice)
    }
}

/// A stored table: schema plus rows.
///
/// Rows are kept in insertion order; `minidb` has no clustered storage, but
/// equality lookups (PK/UNIQUE/FK checks, `col = literal` selections, and
/// hash joins) go through lazily built [`EqIndex`]es so bulk loads and
/// point queries stay linear at fleet scale. Indexes are built on first
/// use, kept current incrementally on [`Table::push_row`], and dropped on
/// any other mutation.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Vec<Vec<Value>>,
    indexes: RwLock<HashMap<Vec<usize>, Arc<EqIndex>>>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        // Indexes are a cache: a clone starts cold and rebuilds on demand.
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            indexes: RwLock::new(HashMap::new()),
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            indexes: RwLock::new(HashMap::new()),
        }
    }

    /// The equality index over `cols`, building it on first use.
    pub fn index_on(&self, cols: &[usize]) -> Arc<EqIndex> {
        if let Some(idx) = self.indexes.read().expect("index lock").get(cols) {
            return Arc::clone(idx);
        }
        let built = Arc::new(EqIndex::build(cols, &self.rows));
        let mut cache = self.indexes.write().expect("index lock");
        Arc::clone(cache.entry(cols.to_vec()).or_insert(built))
    }

    /// Drops every cached index (any mutation other than an append).
    fn invalidate_indexes(&mut self) {
        self.indexes.get_mut().expect("index lock").clear();
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.iter()
    }

    /// Read-only access to the row vector.
    pub fn rows_slice(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Type- and NULL-checks a row against the schema (no constraint checks).
    pub fn check_row_shape(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.columns.len(),
                found: row.len(),
            });
        }
        for (col, v) in self.schema.columns.iter().zip(row) {
            match v.sql_type() {
                None => {
                    if col.not_null {
                        return Err(DbError::NullViolation(format!(
                            "{}.{}",
                            self.schema.name, col.name
                        )));
                    }
                }
                Some(t) if t != col.ty => {
                    return Err(DbError::TypeMismatch {
                        column: format!("{}.{}", self.schema.name, col.name),
                        expected: col.ty.name().to_string(),
                        found: format!("{v:?}"),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Returns `true` if some row matches `candidate` on the given columns.
    ///
    /// Per SQL semantics, `NULL` never collides: a candidate with a `NULL` in
    /// any key column matches nothing.
    pub fn has_duplicate_on(
        &self,
        cols: &[usize],
        candidate: &[Value],
        skip_row: Option<usize>,
    ) -> bool {
        if cols.iter().any(|&c| candidate[c].is_null()) {
            return false;
        }
        let key: Vec<Value> = cols.iter().map(|&c| candidate[c].clone()).collect();
        self.index_on(cols)
            .rows_matching(&key)
            .iter()
            .any(|&i| Some(i as usize) != skip_row)
    }

    /// Returns `true` if some row matches the given values on the given columns.
    ///
    /// Matching is structural (like the rest of `minidb`'s row comparisons):
    /// a `NULL` in `values` matches a stored `NULL`, so the `NULL`-excluding
    /// index only serves the all-non-`NULL` case and the rest falls back to
    /// a scan.
    pub fn contains_on(&self, cols: &[usize], values: &[Value]) -> bool {
        if values.iter().all(|v| !v.is_null()) {
            return !self.index_on(cols).rows_matching(values).is_empty();
        }
        self.rows
            .iter()
            .any(|row| cols.iter().zip(values).all(|(&c, v)| &row[c] == v))
    }

    /// Appends a shape-checked row (caller is responsible for constraints).
    /// Already built indexes are kept current, so bulk loads that check
    /// constraints per row stay linear.
    pub fn push_row(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.schema.columns.len());
        let idx = self.rows.len() as u32;
        for (cols, index) in self.indexes.get_mut().expect("index lock").iter_mut() {
            Arc::make_mut(index).append(cols, &row, idx);
        }
        self.rows.push(row);
    }

    /// Removes the rows at the given (sorted ascending) indices.
    pub fn remove_rows(&mut self, mut indices: Vec<usize>) {
        self.invalidate_indexes();
        indices.sort_unstable();
        for idx in indices.into_iter().rev() {
            self.rows.remove(idx);
        }
    }

    /// Mutable access to one row.
    pub fn row_mut(&mut self, idx: usize) -> &mut Vec<Value> {
        self.invalidate_indexes();
        &mut self.rows[idx]
    }

    /// Replaces every row (used by bulk loaders and diagnosis search).
    pub fn set_rows(&mut self, rows: Vec<Vec<Value>>) {
        self.invalidate_indexes();
        self.rows = rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use sqlir::SqlType;

    fn two_col_schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                Column {
                    name: "a".into(),
                    ty: SqlType::Int,
                    not_null: true,
                },
                Column {
                    name: "b".into(),
                    ty: SqlType::Text,
                    not_null: false,
                },
            ],
            primary_key: vec![0],
            uniques: vec![],
            foreign_keys: vec![],
        }
    }

    #[test]
    fn shape_checks() {
        let t = Table::new(two_col_schema());
        assert!(t.check_row_shape(&[Value::Int(1), Value::str("x")]).is_ok());
        assert!(t.check_row_shape(&[Value::Int(1), Value::Null]).is_ok());
        assert!(matches!(
            t.check_row_shape(&[Value::Null, Value::Null]),
            Err(DbError::NullViolation(_))
        ));
        assert!(matches!(
            t.check_row_shape(&[Value::str("no"), Value::Null]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.check_row_shape(&[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_detection_ignores_null() {
        let mut t = Table::new(two_col_schema());
        t.push_row(vec![Value::Int(1), Value::str("x")]);
        assert!(t.has_duplicate_on(&[0], &[Value::Int(1), Value::Null], None));
        assert!(!t.has_duplicate_on(&[0], &[Value::Int(2), Value::Null], None));
        assert!(!t.has_duplicate_on(&[1], &[Value::Int(9), Value::Null], None));
    }

    #[test]
    fn index_keeps_insertion_order_for_unique_and_repeated_keys() {
        let mut t = Table::new(two_col_schema());
        t.push_row(vec![Value::Int(1), Value::str("x")]);
        t.push_row(vec![Value::Int(2), Value::str("y")]);
        t.push_row(vec![Value::Int(3), Value::Null]);
        // Built from stored rows, then kept current by appends.
        let before = t.index_on(&[1]);
        assert_eq!(before.rows_matching(&[Value::str("x")]), &[0]);
        t.push_row(vec![Value::Int(4), Value::str("x")]);
        t.push_row(vec![Value::Int(5), Value::str("x")]);
        let after = t.index_on(&[1]);
        assert_eq!(after.rows_matching(&[Value::str("x")]), &[0, 3, 4]);
        assert_eq!(after.rows_matching(&[Value::str("y")]), &[1]);
        assert!(after.rows_matching(&[Value::str("z")]).is_empty());
        assert!(after.rows_matching(&[Value::Null]).is_empty());
        // A two-column key is probed the same way.
        let both = t.index_on(&[0, 1]);
        assert_eq!(both.rows_matching(&[Value::Int(4), Value::str("x")]), &[3]);
        assert!(both
            .rows_matching(&[Value::Int(4), Value::str("y")])
            .is_empty());
    }

    #[test]
    fn remove_rows_descending_safe() {
        let mut t = Table::new(two_col_schema());
        for i in 0..5 {
            t.push_row(vec![Value::Int(i), Value::Null]);
        }
        t.remove_rows(vec![0, 2, 4]);
        let left: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(left, vec![1, 3]);
    }
}
