//! Row storage for one table, and its equality indexes.
//!
//! An index stores **row ids only**. The keys it groups by are already in
//! the rows, so a lookup hashes the probe key, finds the slot carrying
//! that hash's tag, confirms against one *row's own columns*, and walks a
//! chain of row ids; nothing is cloned into the index. An indexed row costs
//! 8-byte slots at a load factor between 3/8 and 3/4 plus one 4-byte link
//! — 15 to 25 bytes for a unique key before `Vec` slack, less for a
//! repeated one — where a key-owning hash map took 132.
//!
//! The rows themselves are stored flat ([`RowStore`]): chunks of [`CHUNK`]
//! rows, each row `arity` consecutive values, so a row costs its values and
//! nothing else — no pointer, no length, no allocation of its own.
//!
//! A key is read where it lies on the probing side too: a constraint check
//! hands the index the candidate row and the columns its key sits in
//! ([`Probe::matching_row`]), so checking a row copies none of its values.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use sqlir::Value;

use crate::error::DbError;
use crate::schema::TableSchema;

/// "No row": the tail of an empty slot.
const NONE: u32 = u32::MAX;

/// One key group: the high half of its key's hash, and the last row id of
/// its chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    tail: u32,
}

/// An equality index over one column set: groups the rows holding each
/// non-`NULL` key tuple, in insertion order.
///
/// Layout: an open-addressed (linear probing, power-of-two) table of key
/// groups, plus one `next` link per table row. A group's rows form a
/// *circular* chain — `next[tail]` is the head — so one row id per slot
/// gives both an O(1) append (`new → head`, `tail → new`) and a walk from
/// the first row to the last, which is ascending row-id order. A slot is
/// placed and re-placed by its tag alone, and a probe dereferences a row
/// only once the tag matches, so a miss never leaves the slot array.
///
/// Rows with a `NULL` in any key column are *excluded* (their link is never
/// threaded): SQL `=` never matches `NULL`, so an equality probe can never
/// select them, and a `NULL` probe key misses because no stored row equals
/// it.
#[derive(Debug, Clone)]
struct EqIndex {
    cols: Vec<usize>,
    slots: Vec<Slot>,
    next: Vec<u32>,
    groups: usize,
}

/// The odd multiplier of the key hash (2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes a key tuple to a slot tag. `Int` keys — every PK and FK in the
/// fleet — are mixed multiplicatively: a bulk load hashes every row into
/// every index, and SipHash there was most of populate. Other values go
/// through the standard hasher. The tag is the *high* half, where a
/// multiplicative hash puts its entropy.
fn tag_of<'k>(key: impl Iterator<Item = &'k Value>) -> u32 {
    let hash = key.fold(0, |h: u64, v| {
        let x = match v {
            Value::Int(i) => *i as u64,
            other => {
                let mut s = DefaultHasher::new();
                other.hash(&mut s);
                s.finish()
            }
        };
        (h.rotate_left(5) ^ x).wrapping_mul(MIX)
    });
    (hash >> 32) as u32
}

impl EqIndex {
    fn build(cols: &[usize], rows: &RowStore) -> EqIndex {
        let mut index = EqIndex {
            cols: cols.to_vec(),
            slots: vec![Slot { tag: 0, tail: NONE }; 2],
            next: Vec::with_capacity(rows.len),
            groups: 0,
        };
        for i in 0..rows.len {
            index.append(rows.row(i), rows);
        }
        index
    }

    /// Where a key with this tag lives or would be inserted: the first slot
    /// in probe order that is empty, or has the tag and whose rows `is_key`
    /// (told one of their ids).
    fn slot_of(&self, tag: u32, is_key: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (tag >> (32 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = self.slots[i];
            if slot.tail == NONE || (slot.tag == tag && is_key(slot.tail)) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Indexes `row` under the next row id; `rows` hold the rows before it.
    fn append(&mut self, row: &[Value], rows: &RowStore) {
        let id = self.next.len() as u32;
        self.next.push(id);
        if self.cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        // Load factor at most 3/4: a probe run always ends at an empty slot
        // and, being linear, stays short.
        if (self.groups + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = tag_of(self.cols.iter().map(|&c| &row[c]));
        let i = self.slot_of(tag, |stored| {
            let stored = rows.row(stored as usize);
            self.cols.iter().all(|&c| stored[c] == row[c])
        });
        let tail = std::mem::replace(&mut self.slots[i], Slot { tag, tail: id }).tail;
        if tail == NONE {
            self.groups += 1;
        } else {
            self.next[id as usize] = self.next[tail as usize];
            self.next[tail as usize] = id;
        }
    }

    /// Doubles the slot table. Groups are distinct keys, so each is placed
    /// by its tag without a comparison (or a look at any row).
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Slot { tag: 0, tail: NONE }; old.len() * 2];
        for slot in old.into_iter().filter(|s| s.tail != NONE) {
            let i = self.slot_of(slot.tag, |_| false);
            self.slots[i] = slot;
        }
    }
}

/// A borrowed equality index of a [`Table`] over one column set, from
/// [`Table::probe`].
#[derive(Debug)]
pub struct Probe<'a> {
    index: Arc<EqIndex>,
    rows: &'a RowStore,
}

impl Probe<'_> {
    /// The ids of the rows whose key columns equal `key`, ascending (which
    /// is insertion order). A key containing `NULL` matches nothing.
    pub fn matching(&self, key: &[Value]) -> Matches<'_> {
        debug_assert_eq!(key.len(), self.index.cols.len());
        self.lookup(key.iter())
    }

    /// [`Probe::matching`] for the key that `row`'s columns `cols` hold,
    /// pairwise with the index's columns, read where it lies: a constraint
    /// check probes with the candidate row itself and copies no key.
    pub fn matching_row(&self, row: &[Value], cols: &[usize]) -> Matches<'_> {
        debug_assert_eq!(cols.len(), self.index.cols.len());
        self.lookup(cols.iter().map(|&c| &row[c]))
    }

    fn lookup<'k>(&self, key: impl Iterator<Item = &'k Value> + Clone) -> Matches<'_> {
        let index = &*self.index;
        let i = index.slot_of(tag_of(key.clone()), |stored| {
            let stored = self.rows.row(stored as usize);
            index
                .cols
                .iter()
                .zip(key.clone())
                .all(|(&c, k)| stored[c] == *k)
        });
        let tail = index.slots[i].tail;
        Matches {
            next: &index.next,
            // The chain is circular: the head follows the tail.
            at: index.next.get(tail as usize).copied().unwrap_or(NONE),
            tail,
        }
    }
}

/// The row ids under one key of a [`Probe`]; `Copy`, so one lookup can be
/// walked any number of times.
#[derive(Debug, Clone, Copy)]
pub struct Matches<'a> {
    next: &'a [u32],
    at: u32,
    tail: u32,
}

impl Iterator for Matches<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let id = self.at;
        if id == NONE {
            return None;
        }
        self.at = if id == self.tail {
            NONE
        } else {
            self.next[id as usize]
        };
        Some(id)
    }
}

/// Rows per chunk of a [`RowStore`].
const CHUNK: usize = 1024;

/// A table's rows, `arity` values each, in chunks of [`CHUNK`] rows: row
/// `i` is the `i % CHUNK`th run of `arity` values in chunk `i / CHUNK`.
///
/// Chunks, not one vector: a vector of a whole table moves on every
/// doubling, and under glibc a freed multi-MiB buffer raises the mmap
/// threshold, so the next one grows on the heap by copying. Every chunk
/// but the first is allocated at its full size once and never moves; the
/// first grows like a `Vec`, so a small table stays small (as does a
/// clone's partial last chunk, which is cloned at its length).
#[derive(Debug, Clone)]
struct RowStore {
    arity: usize,
    len: usize,
    chunks: Vec<Vec<Value>>,
}

impl RowStore {
    fn new(arity: usize) -> RowStore {
        RowStore {
            arity,
            len: 0,
            chunks: Vec::new(),
        }
    }

    fn span(&self, i: usize) -> (usize, std::ops::Range<usize>) {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        let at = i % CHUNK * self.arity;
        (i / CHUNK, at..at + self.arity)
    }

    fn row(&self, i: usize) -> &[Value] {
        let (chunk, values) = self.span(i);
        &self.chunks[chunk][values]
    }

    fn row_mut(&mut self, i: usize) -> &mut [Value] {
        let (chunk, values) = self.span(i);
        &mut self.chunks[chunk][values]
    }

    fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.arity, "row arity");
        if self.len.is_multiple_of(CHUNK) {
            let capacity = if self.chunks.is_empty() {
                0
            } else {
                CHUNK * self.arity
            };
            self.chunks.push(Vec::with_capacity(capacity));
        }
        self.chunks
            .last_mut()
            .expect("a chunk with room")
            .extend(row);
        self.len += 1;
    }

    /// Keeps the first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.chunks.truncate(len.div_ceil(CHUNK));
        if let Some(last) = self.chunks.last_mut() {
            last.truncate((len - (len - 1) / CHUNK * CHUNK) * self.arity);
        }
        self.len = len;
    }
}

/// A stored table: schema plus rows.
///
/// Rows are kept in insertion order; `minidb` has no clustered storage, but
/// equality lookups (PK/UNIQUE/FK checks, `col = literal` selections, and
/// equi-joins) go through lazily built equality indexes ([`Table::probe`])
/// so bulk loads and point queries stay linear at fleet scale. Indexes are
/// built on first use, kept current incrementally on [`Table::push_row`],
/// and dropped on any other mutation.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: RowStore,
    // A table has a handful of indexes: a list searched by column set.
    indexes: RwLock<Vec<Arc<EqIndex>>>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        // Indexes are a cache: a clone starts cold and rebuilds on demand.
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            indexes: RwLock::new(Vec::new()),
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            rows: RowStore::new(schema.columns.len()),
            schema,
            indexes: RwLock::new(Vec::new()),
        }
    }

    /// The equality index over `cols`, building it on first use.
    pub fn probe(&self, cols: &[usize]) -> Probe<'_> {
        let find = |list: &[Arc<EqIndex>]| list.iter().find(|i| i.cols == cols).map(Arc::clone);
        let cached = find(&self.indexes.read().expect("index lock"));
        let index = cached.unwrap_or_else(|| {
            let built = Arc::new(EqIndex::build(cols, &self.rows));
            let mut list = self.indexes.write().expect("index lock");
            // Another reader may have built it meanwhile: keep the first.
            find(&list).unwrap_or_else(|| {
                list.push(Arc::clone(&built));
                built
            })
        });
        Probe {
            index,
            rows: &self.rows,
        }
    }

    /// Drops every cached index (any mutation other than an append).
    fn invalidate_indexes(&mut self) {
        self.indexes.get_mut().expect("index lock").clear();
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.rows.len).map(|i| self.rows.row(i))
    }

    /// Row `i` (row ids are positions in insertion order).
    pub fn row(&self, i: usize) -> &[Value] {
        self.rows.row(i)
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
        self.probe(cols)
            .matching_row(candidate, cols)
            .any(|i| Some(i as usize) != skip_row)
    }

    /// Returns `true` if some row's columns `cols` equal `row`'s columns
    /// `row_cols`, pairwise.
    ///
    /// As SQL `=`, a key holding a `NULL` matches no row: a foreign key with
    /// a `NULL` in it references nothing, so it neither needs a parent nor
    /// keeps one from being deleted.
    pub fn contains_on(&self, cols: &[usize], row: &[Value], row_cols: &[usize]) -> bool {
        self.probe(cols)
            .matching_row(row, row_cols)
            .next()
            .is_some()
    }

    /// Appends a shape-checked row (caller is responsible for constraints).
    /// Already built indexes are kept current, so bulk loads that check
    /// constraints per row stay linear.
    pub fn push_row(&mut self, row: Vec<Value>) {
        for index in self.indexes.get_mut().expect("index lock") {
            Arc::make_mut(index).append(&row, &self.rows);
        }
        self.rows.push(row);
    }

    /// Keeps the first `len` rows and drops the rest: how a statement that
    /// appended rows and then failed takes them back. Indexes are dropped
    /// (they hold the appended rows), as on any mutation but an append.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.rows.len {
            self.invalidate_indexes();
            self.rows.truncate(len);
        }
    }

    /// Removes the rows at the given indices (in any order) in one pass;
    /// the remaining rows keep their relative order.
    pub fn remove_rows(&mut self, mut indices: Vec<usize>) {
        self.invalidate_indexes();
        indices.sort_unstable();
        indices.dedup();
        let mut doomed = indices.into_iter().peekable();
        let mut kept = 0;
        for at in 0..self.rows.len {
            if doomed.next_if_eq(&at).is_some() {
                continue;
            }
            if kept < at {
                for c in 0..self.rows.arity {
                    let v = std::mem::replace(&mut self.rows.row_mut(at)[c], Value::Null);
                    self.rows.row_mut(kept)[c] = v;
                }
            }
            kept += 1;
        }
        self.rows.truncate(kept);
    }

    /// Mutable access to one row.
    pub fn row_mut(&mut self, idx: usize) -> &mut [Value] {
        self.invalidate_indexes();
        self.rows.row_mut(idx)
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

    /// A table of `two_col_schema` holding `rows`, in order, with no index
    /// built yet.
    fn table_of(rows: impl IntoIterator<Item = Vec<Value>>) -> Table {
        let mut t = Table::new(two_col_schema());
        for row in rows {
            t.push_row(row);
        }
        t
    }

    fn ids(t: &Table, cols: &[usize], key: &[Value]) -> Vec<u32> {
        t.probe(cols).matching(key).collect()
    }

    #[test]
    fn index_keeps_insertion_order_for_unique_and_repeated_keys() {
        let mut t = Table::new(two_col_schema());
        t.push_row(vec![Value::Int(1), Value::str("x")]);
        t.push_row(vec![Value::Int(2), Value::str("y")]);
        t.push_row(vec![Value::Int(3), Value::Null]);
        // Built from stored rows, then kept current by appends.
        assert_eq!(ids(&t, &[1], &[Value::str("x")]), [0]);
        t.push_row(vec![Value::Int(4), Value::str("x")]);
        t.push_row(vec![Value::Int(5), Value::str("x")]);
        assert_eq!(ids(&t, &[1], &[Value::str("x")]), [0, 3, 4]);
        assert_eq!(ids(&t, &[1], &[Value::str("y")]), [1]);
        assert!(ids(&t, &[1], &[Value::str("z")]).is_empty());
        // NULL keys are excluded, and a NULL probe matches nothing.
        assert!(ids(&t, &[1], &[Value::Null]).is_empty());
        // A two-column key is probed the same way.
        assert_eq!(ids(&t, &[0, 1], &[Value::Int(4), Value::str("x")]), [3]);
        assert!(ids(&t, &[0, 1], &[Value::Int(4), Value::str("y")]).is_empty());
        assert!(ids(&t, &[0, 1], &[Value::Int(3), Value::Null]).is_empty());
    }

    /// Every key is found with exactly its rows, in insertion order, whether
    /// the index was built over stored rows or grown by appends — through
    /// every doubling of the slot table and whatever slots keys collide in.
    #[test]
    fn index_survives_growth_and_collisions() {
        // 600 rows over 200 keys, interleaved so chains are not contiguous;
        // every 7th row has a NULL key.
        let row = |i: i64| {
            let key = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("k{}", i % 200))
            };
            vec![Value::Int(i), key]
        };
        let expected = |k: i64| -> Vec<u32> {
            (0..600)
                .filter(|i| i % 200 == k && i % 7 != 0)
                .map(|i| i as u32)
                .collect()
        };
        let mut appended = Table::new(two_col_schema());
        appended.probe(&[1]); // built empty: every row arrives by `append`
        appended.probe(&[0]);
        for i in 0..600 {
            appended.push_row(row(i));
        }
        let mut built = table_of((0..300).map(row));
        built.probe(&[1]); // built over 300 rows, then grown mid-way
        for i in 300..600 {
            built.push_row(row(i));
        }
        for t in [&appended, &built] {
            for k in 0..200 {
                assert_eq!(ids(t, &[1], &[Value::str(format!("k{k}"))]), expected(k));
            }
            for i in 0..600 {
                assert_eq!(ids(t, &[0], &[Value::Int(i)]), [i as u32]);
            }
            assert!(ids(t, &[0], &[Value::Int(600)]).is_empty());
        }
    }

    /// Keys that share a home slot, and keys that share a whole *tag* (so
    /// only the comparison with a stored row tells them apart), stay
    /// distinguishable through a growth of the table.
    #[test]
    fn index_separates_keys_that_collide() {
        // `MIX` is odd, so it has an inverse mod 2^64 (Newton's iteration);
        // the key `j * inverse` hashes to `j`, whose tag is 0 for small `j`.
        let inverse = (0..6).fold(MIX, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(MIX.wrapping_mul(x)))
        });
        assert_eq!(MIX.wrapping_mul(inverse), 1);
        let same_tag = (1..4u64).map(|j| j.wrapping_mul(inverse) as i64);
        // Keys whose home slot is 0 in any table of up to 16 slots.
        let same_slot = (0..).filter(|k| tag_of([Value::Int(*k)].iter()) >> 28 == 0);
        let keys: Vec<i64> = same_tag.chain(same_slot.take(3)).collect();
        assert!(keys[..3]
            .iter()
            .all(|k| tag_of([Value::Int(*k)].iter()) == 0));

        let mut rows = RowStore::new(2);
        let mut index = EqIndex::build(&[0], &rows);
        for round in 0..2 {
            for &k in &keys {
                let row = vec![Value::Int(k), Value::Int(round)];
                index.append(&row, &rows);
                rows.push(row);
            }
        }
        assert!(index.slots.len() >= 8, "the table grew mid-build");
        assert_eq!(index.groups, keys.len());
        let probe = Probe {
            index: Arc::new(index),
            rows: &rows,
        };
        for (i, &k) in keys.iter().enumerate() {
            let found: Vec<u32> = probe.matching(&[Value::Int(k)]).collect();
            assert_eq!(found, [i as u32, (i + keys.len()) as u32]);
        }
        assert_eq!(
            probe
                .matching(&[Value::Int(4u64.wrapping_mul(inverse) as i64)])
                .count(),
            0
        );
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

    #[test]
    fn remove_rows_takes_any_order_and_keeps_the_rest_in_order() {
        let mut t = Table::new(two_col_schema());
        for i in 0..10_000 {
            t.push_row(vec![Value::Int(i), Value::str(format!("r{i}"))]);
        }
        // A third of the table, handed over in descending order with a
        // repeat; the old `Vec::remove` per row was quadratic here.
        let mut doomed: Vec<usize> = (0..10_000).filter(|i| i % 3 == 1).rev().collect();
        doomed.push(4);
        t.remove_rows(doomed);
        let left: Vec<(i64, String)> = t
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_str().unwrap().to_string()))
            .collect();
        let expected: Vec<(i64, String)> = (0..10_000)
            .filter(|i| i % 3 != 1)
            .map(|i| (i, format!("r{i}")))
            .collect();
        assert_eq!(left, expected);
        // The rebuilt index sees the new row ids.
        assert_eq!(ids(&t, &[0], &[Value::Int(3)]), [2]);
    }

    /// Row `i` of the chunk tests: a unique key and a repeated text.
    fn keyed(i: usize) -> Vec<Value> {
        vec![Value::Int(i as i64), Value::str(format!("k{}", i % 7))]
    }

    /// `t` holds exactly `model`, in order, and its index on the unique
    /// column 0 finds every row at its position.
    fn assert_holds(t: &Table, model: &[Vec<Value>]) {
        assert_eq!(t.len(), model.len());
        assert!(t.rows().eq(model.iter().map(Vec::as_slice)));
        for (i, row) in model.iter().enumerate() {
            assert_eq!(t.row(i), &row[..]);
            assert_eq!(ids(t, &[0], &row[..1]), [i as u32], "row {i}");
        }
    }

    #[test]
    fn pushes_cross_chunk_boundaries_with_indexes_built() {
        let mut t = Table::new(two_col_schema());
        t.probe(&[0]);
        t.probe(&[1]);
        let model: Vec<Vec<Value>> = (0..2 * CHUNK + 5).map(keyed).collect();
        for row in &model {
            t.push_row(row.clone());
        }
        assert_eq!(t.rows.chunks.len(), 3);
        assert_holds(&t, &model);
        let k3: Vec<u32> = (0..model.len() as u32).filter(|i| i % 7 == 3).collect();
        assert_eq!(ids(&t, &[1], &[Value::str("k3")]), k3);
    }

    #[test]
    fn remove_rows_at_and_across_chunk_boundaries() {
        let n = 2 * CHUNK + 7;
        let cases: Vec<(&str, Vec<usize>)> = vec![
            ("the first row", vec![0]),
            ("the last row", vec![n - 1]),
            ("one whole chunk", (CHUNK..2 * CHUNK).collect()),
            (
                "both sides of boundaries",
                vec![CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK],
            ),
            ("duplicate ids", vec![5, CHUNK, 5, CHUNK, 5]),
            ("every row", (0..n).rev().collect()),
        ];
        for (what, doomed) in cases {
            let mut model: Vec<Vec<Value>> = (0..n).map(keyed).collect();
            let mut t = table_of(model.clone());
            t.probe(&[0]);
            t.remove_rows(doomed.clone());
            let mut at = 0;
            model.retain(|_| {
                at += 1;
                !doomed.contains(&(at - 1))
            });
            assert_holds(&t, &model);
            // Appending after the removal lands at the new end.
            model.push(keyed(n));
            t.push_row(keyed(n));
            assert_holds(&t, &model);
            assert!(t.rows.chunks.len() <= model.len().div_ceil(CHUNK), "{what}");
        }
    }

    #[test]
    fn row_mut_drops_the_index() {
        let mut t = table_of((0..CHUNK + 10).map(keyed));
        let id = (CHUNK + 3) as u32; // in the second chunk
        let old = t.row(id as usize)[1].clone();
        assert!(ids(&t, &[1], std::slice::from_ref(&old)).contains(&id));
        t.row_mut(id as usize)[1] = Value::str("moved");
        assert_eq!(ids(&t, &[1], &[Value::str("moved")]), [id]);
        assert!(!ids(&t, &[1], &[old]).contains(&id));
    }

    #[test]
    fn clone_then_push() {
        let model: Vec<Vec<Value>> = (0..CHUNK + 1).map(keyed).collect();
        let t = table_of(model.clone());
        assert_holds(&t, &model);
        // A clone copies the rows and starts with cold indexes; pushing to
        // it fills its partial last chunk, then starts another.
        let mut copy = t.clone();
        let mut grown = model.clone();
        for i in model.len()..2 * CHUNK + 1 {
            copy.push_row(keyed(i));
            grown.push(keyed(i));
        }
        assert_holds(&copy, &grown);
        assert_holds(&t, &model);
    }

    #[test]
    fn a_table_of_arity_one() {
        let mut t = Table::new(TableSchema {
            name: "one".into(),
            columns: vec![Column {
                name: "a".into(),
                ty: SqlType::Int,
                not_null: true,
            }],
            primary_key: vec![0],
            uniques: vec![],
            foreign_keys: vec![],
        });
        let mut model: Vec<Vec<Value>> =
            (0..2 * CHUNK + 1).map(|i| keyed(i)[..1].to_vec()).collect();
        for row in &model {
            t.push_row(row.clone());
        }
        assert_holds(&t, &model);
        t.remove_rows((0..CHUNK + 1).collect());
        model.drain(..CHUNK + 1);
        assert_holds(&t, &model);
    }
}
