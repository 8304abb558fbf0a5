//! Column storage for one table, and its equality indexes.
//!
//! A table stores **each column in its own chunks** (`Cells`): an
//! `INT NOT NULL` column as 8-byte `i64` cells, every other column as
//! 24-byte [`Value`] cells, `CHUNK` rows to a chunk. No row exists as a
//! slice, so a reader asks for one cell by row id and column
//! ([`Table::cell`]): a stored `Value` is borrowed, an integer cell's
//! `Value::Int` is made on the spot (it owns no heap). [`Table::row`] and
//! [`Table::rows`] materialise whole rows for the few callers that want
//! them, and [`Table::set_cell`] writes one cell once the schema admits it,
//! so no caller can store a value of the wrong type or a `NULL` in a
//! `NOT NULL` column.
//!
//! An index stores **row ids only**. The keys it groups by are already in
//! the cells, so a lookup hashes the probe key, finds the slot carrying
//! that hash's tag, confirms against one *row's own cells*, and walks a
//! chain of row ids; nothing is cloned into the index. An indexed row costs
//! 8-byte slots at a load factor between 3/8 and 3/4 plus one 4-byte link
//! — 15 to 25 bytes for a unique key before `Vec` slack, less for a
//! repeated one — where a key-owning hash map took 132.
//!
//! A key is read where it lies on the probing side too: a constraint check
//! hands the index the candidate row and the columns its key sits in
//! ([`Probe::matching_row`]), or a stored row's id (`matching_cells`), so
//! checking a row copies none of its values.

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, RwLock};

use sqlir::{SqlType, Value};

use crate::error::DbError;
use crate::schema::{Column, TableSchema};

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

/// The 64 bits a key value contributes to its tag. `Int` keys — every PK
/// and FK in the fleet — are their own bits: a bulk load hashes every row
/// into every index, and SipHash there was most of populate. Other values
/// go through the standard hasher.
fn word(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        other => {
            let mut s = DefaultHasher::new();
            other.hash(&mut s);
            s.finish()
        }
    }
}

/// Hashes a key tuple to a slot tag: its words mixed multiplicatively,
/// and the *high* half kept, where a multiplicative hash puts its entropy.
fn tag_of<K: Borrow<Value>>(key: impl Iterator<Item = K>) -> u32 {
    let hash = key.fold(0, |h: u64, v| {
        (h.rotate_left(5) ^ word(v.borrow())).wrapping_mul(MIX)
    });
    (hash >> 32) as u32
}

impl EqIndex {
    fn build(cols: &[usize], cells: &[Cells], len: usize) -> EqIndex {
        let mut index = EqIndex {
            cols: cols.to_vec(),
            slots: vec![Slot { tag: 0, tail: NONE }; 2],
            next: Vec::with_capacity(len),
            groups: 0,
        };
        for id in 0..len {
            index.append(|c| cells[c].get(id), cells);
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

    /// Indexes the next row id, whose cell in each column `c` is `cell(c)`;
    /// `cells` hold the rows before it.
    fn append<K: Borrow<Value>>(&mut self, cell: impl Fn(usize) -> K, cells: &[Cells]) {
        let id = self.next.len() as u32;
        self.next.push(id);
        if self.cols.iter().any(|&c| cell(c).borrow().is_null()) {
            return;
        }
        // Load factor at most 3/4: a probe run always ends at an empty slot
        // and, being linear, stays short.
        if (self.groups + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = tag_of(self.cols.iter().map(|&c| cell(c)));
        let i = self.slot_of(tag, |stored| {
            (self.cols.iter()).all(|&c| cells[c].holds(stored as usize, cell(c).borrow()))
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

    /// The heap bytes of the index and of its `Arc`.
    fn heap_bytes(&self) -> usize {
        2 * size_of::<usize>()
            + size_of::<EqIndex>()
            + self.cols.capacity() * size_of::<usize>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.next.capacity() * size_of::<u32>()
    }
}

/// A borrowed equality index of a [`Table`] over one column set, from
/// [`Table::probe`].
#[derive(Debug)]
pub struct Probe<'a> {
    index: Arc<EqIndex>,
    cells: &'a [Cells],
}

impl Probe<'_> {
    /// The ids of the rows whose key columns equal `key`, ascending (which
    /// is insertion order). A key containing `NULL` matches nothing.
    pub fn matching(&self, key: &[Value]) -> Matches<'_> {
        debug_assert_eq!(key.len(), self.index.cols.len());
        self.lookup(|j| &key[j])
    }

    /// [`Probe::matching`] for the key that `row`'s columns `cols` hold,
    /// pairwise with the index's columns, read where it lies: a constraint
    /// check probes with the candidate row itself and copies no key.
    pub fn matching_row(&self, row: &[Value], cols: &[usize]) -> Matches<'_> {
        debug_assert_eq!(cols.len(), self.index.cols.len());
        self.lookup(|j| &row[cols[j]])
    }

    /// [`Probe::matching`] for the key that stored row `id` of `table`
    /// holds in its columns `cols`: a join probes with the bound row's
    /// cell, a referential check with the row it would remove or rekey.
    pub(crate) fn matching_cells(&self, table: &Table, id: usize, cols: &[usize]) -> Matches<'_> {
        debug_assert_eq!(cols.len(), self.index.cols.len());
        self.lookup(|j| table.cell(id, cols[j]))
    }

    /// The rows whose key equals the one whose `j`th value is `key(j)`.
    fn lookup<K: Borrow<Value>>(&self, key: impl Fn(usize) -> K) -> Matches<'_> {
        let index = &*self.index;
        let tag = tag_of((0..index.cols.len()).map(&key));
        let i = index.slot_of(tag, |stored| {
            (index.cols.iter().enumerate())
                .all(|(j, &c)| self.cells[c].holds(stored as usize, key(j).borrow()))
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

/// Rows per chunk of a column.
const CHUNK: usize = 1024;

/// One column's cells in chunks of [`CHUNK`]: row `i` is cell `i % CHUNK`
/// of chunk `i / CHUNK`.
///
/// Chunks, not one vector: a vector of a whole column moves on every
/// doubling, and under glibc a freed multi-MiB buffer raises the mmap
/// threshold, so the next one grows on the heap by copying. A chunk never
/// holds more than `CHUNK` cells. Every chunk but the first is allocated at
/// its full size once and never moves; the first doubles from 4 cells, so a
/// small table stays small. A clone's chunks are cloned at their length,
/// and a partial one that grows again goes to its full size at once. The
/// list of chunks holds no spare room.
#[derive(Debug, Clone)]
pub(crate) struct Chunks<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Chunks<T> {
    fn get(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    fn push(&mut self, cell: T) {
        let n = self.chunks.len();
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => {
                if last.len() == last.capacity() {
                    let room = if n == 1 {
                        (2 * last.len()).clamp(4, CHUNK)
                    } else {
                        CHUNK
                    };
                    last.reserve_exact(room - last.len());
                }
                last.push(cell);
            }
            _ => {
                let mut chunk = Vec::with_capacity(if n == 0 { 4 } else { CHUNK });
                chunk.push(cell);
                // One chunk per kilo-row: the list grows by exactly one.
                self.chunks.reserve_exact(1);
                self.chunks.push(chunk);
            }
        }
    }

    /// Keeps the first `len` cells.
    fn truncate(&mut self, len: usize) {
        self.chunks.truncate(len.div_ceil(CHUNK));
        if let Some(last) = self.chunks.last_mut() {
            last.truncate(len - (len - 1) / CHUNK * CHUNK);
        }
    }

    /// Drops the cells at `doomed` (ascending, distinct) of the first `len`;
    /// the rest move down in order, each once.
    fn remove(&mut self, doomed: &[usize], len: usize) {
        let mut doomed = doomed.iter().peekable();
        let mut kept = 0;
        for at in 0..len {
            if doomed.next_if_eq(&&at).is_some() {
                continue;
            }
            if kept < at {
                self.swap(kept, at);
            }
            kept += 1;
        }
        self.truncate(kept);
    }

    /// Swaps cells `a < b`.
    fn swap(&mut self, a: usize, b: usize) {
        let (ca, cb) = (a / CHUNK, b / CHUNK);
        if ca == cb {
            self.chunks[ca].swap(a % CHUNK, b % CHUNK);
        } else {
            let (low, high) = self.chunks.split_at_mut(cb);
            std::mem::swap(&mut low[ca][a % CHUNK], &mut high[0][b % CHUNK]);
        }
    }

    /// The bytes of the chunks and of the list holding them.
    fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * size_of::<Vec<T>>()
            + self.chunks.iter().map(Vec::capacity).sum::<usize>() * size_of::<T>()
    }
}

/// A column's cells, typed by its schema.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// An `INT NOT NULL` column: every cell is an integer.
    Int(Chunks<i64>),
    /// Any other column.
    Value(Chunks<Value>),
}

/// The integer an `INT NOT NULL` cell is written with.
fn int_cell(v: Value) -> i64 {
    match v {
        Value::Int(i) => i,
        // `Table::check_cell` admits nothing else into an INT NOT NULL column.
        other => unreachable!("an INT NOT NULL cell written with {other:?}"),
    }
}

impl Cells {
    fn new(column: &Column) -> Cells {
        if column.ty == SqlType::Int && column.not_null {
            Cells::Int(Chunks { chunks: Vec::new() })
        } else {
            Cells::Value(Chunks { chunks: Vec::new() })
        }
    }

    /// Cell `i`, borrowed where it is stored as a value.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Cells::Int(c) => Cow::Owned(Value::Int(*c.get(i))),
            Cells::Value(c) => Cow::Borrowed(c.get(i)),
        }
    }

    /// Whether cell `i` equals `v` (`Value`'s `==`, so `NULL` equals `NULL`).
    #[inline]
    fn holds(&self, i: usize, v: &Value) -> bool {
        match self {
            Cells::Int(c) => matches!(v, Value::Int(x) if x == c.get(i)),
            Cells::Value(c) => c.get(i) == v,
        }
    }

    /// Appends a cell the schema admitted.
    fn push(&mut self, v: Value) {
        match self {
            Cells::Int(c) => c.push(int_cell(v)),
            Cells::Value(c) => c.push(v),
        }
    }

    /// Overwrites cell `i` with a value the schema admitted.
    fn set(&mut self, i: usize, v: Value) {
        match self {
            Cells::Int(c) => *c.get_mut(i) = int_cell(v),
            Cells::Value(c) => *c.get_mut(i) = v,
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            Cells::Int(c) => c.truncate(len),
            Cells::Value(c) => c.truncate(len),
        }
    }

    fn remove(&mut self, doomed: &[usize], len: usize) {
        match self {
            Cells::Int(c) => c.remove(doomed, len),
            Cells::Value(c) => c.remove(doomed, len),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Cells::Int(c) => c.heap_bytes(),
            Cells::Value(c) => c.heap_bytes(),
        }
    }
}

/// A stored table: its schema, and its rows stored column by column.
///
/// Rows are kept in insertion order; `minidb` has no clustered storage, but
/// equality lookups (PK/UNIQUE/FK checks, `col = literal` selections, and
/// equi-joins) go through lazily built equality indexes ([`Table::probe`])
/// so bulk loads and point queries stay linear at fleet scale. Indexes are
/// built on first use, kept current incrementally on [`Table::push_row`],
/// and dropped on any other mutation.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    len: usize,
    /// One per schema column, typed by it; the schema is private so that
    /// the two cannot drift apart.
    cells: Vec<Cells>,
    // A table has a handful of indexes: a list searched by column set.
    indexes: RwLock<Vec<Arc<EqIndex>>>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        // Indexes are a cache: a clone starts cold and rebuilds on demand.
        Table {
            schema: self.schema.clone(),
            len: self.len,
            cells: self.cells.clone(),
            indexes: RwLock::new(Vec::new()),
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            len: 0,
            cells: schema.columns.iter().map(Cells::new).collect(),
            schema,
            indexes: RwLock::new(Vec::new()),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The equality index over `cols`, building it on first use.
    pub fn probe(&self, cols: &[usize]) -> Probe<'_> {
        let find = |list: &[Arc<EqIndex>]| list.iter().find(|i| i.cols == cols).map(Arc::clone);
        // A poisoned lock still guards a whole list: an index is pushed
        // complete, and no other write to the list can panic midway.
        let cached = find(&self.indexes.read().unwrap_or_else(|e| e.into_inner()));
        let index = cached.unwrap_or_else(|| {
            let built = Arc::new(EqIndex::build(cols, &self.cells, self.len));
            let mut list = self.indexes.write().unwrap_or_else(|e| e.into_inner());
            // Another reader may have built it meanwhile: keep the first.
            find(&list).unwrap_or_else(|| {
                list.push(Arc::clone(&built));
                built
            })
        });
        Probe {
            index,
            cells: &self.cells,
        }
    }

    /// The cached indexes, for a caller holding the table mutably.
    fn indexes_mut(&mut self) -> &mut Vec<Arc<EqIndex>> {
        self.indexes.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s cell in column `col` (row ids are positions in insertion
    /// order): borrowed, or made on the spot for an `INT NOT NULL` column.
    #[inline]
    pub fn cell(&self, i: usize, col: usize) -> Cow<'_, Value> {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        self.cells[col].get(i)
    }

    /// Column `col`'s cells, for an expression to read without going
    /// through the table again.
    pub(crate) fn column(&self, col: usize) -> &Cells {
        &self.cells[col]
    }

    /// Row `i`, materialised.
    pub fn row(&self, i: usize) -> Vec<Value> {
        (0..self.cells.len())
            .map(|c| self.cell(i, c).into_owned())
            .collect()
    }

    /// Every row, materialised one at a time.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Type- and NULL-checks one value against column `col`.
    fn check_cell(&self, col: &Column, v: &Value) -> Result<(), DbError> {
        match v.sql_type() {
            None if col.not_null => Err(DbError::NullViolation(format!(
                "{}.{}",
                self.schema.name, col.name
            ))),
            Some(t) if t != col.ty => Err(DbError::TypeMismatch {
                column: format!("{}.{}", self.schema.name, col.name),
                expected: col.ty.name().to_string(),
                found: format!("{v:?}"),
            }),
            _ => Ok(()),
        }
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
            self.check_cell(col, v)?;
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

    /// Appends a row after checking its shape ([`Table::check_row_shape`];
    /// the caller is responsible for constraints). Already built indexes
    /// are kept current, so bulk loads that check constraints per row stay
    /// linear.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        self.check_row_shape(&row)?;
        let cells = &self.cells;
        for index in self.indexes.get_mut().unwrap_or_else(|e| e.into_inner()) {
            Arc::make_mut(index).append(|c| &row[c], cells);
        }
        for (column, v) in self.cells.iter_mut().zip(row) {
            column.push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Keeps the first `len` rows and drops the rest: how a statement that
    /// appended rows and then failed takes them back. Indexes are dropped
    /// (they hold the appended rows), as on any mutation but an append.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.indexes_mut().clear();
            for column in &mut self.cells {
                column.truncate(len);
            }
            self.len = len;
        }
    }

    /// Removes the rows at the given indices (in any order) in one pass per
    /// column; the remaining rows keep their relative order.
    pub fn remove_rows(&mut self, mut indices: Vec<usize>) {
        self.indexes_mut().clear();
        indices.sort_unstable();
        indices.dedup();
        indices.retain(|&i| i < self.len);
        for column in &mut self.cells {
            column.remove(&indices, self.len);
        }
        self.len -= indices.len();
    }

    /// Writes `v` into row `i`'s column `col`, if the column admits it: a
    /// value of another type is a [`DbError::TypeMismatch`], a `NULL` in a
    /// `NOT NULL` column a [`DbError::NullViolation`], and either leaves
    /// the table as it was. Constraints are the caller's to check.
    ///
    /// # Panics
    ///
    /// If row `i` or column `col` does not exist.
    pub fn set_cell(&mut self, i: usize, col: usize, v: Value) -> Result<(), DbError> {
        assert!(i < self.len, "row {i} of {}", self.len);
        self.check_cell(&self.schema.columns[col], &v)?;
        self.indexes_mut().clear();
        self.cells[col].set(i, v);
        Ok(())
    }

    /// The heap bytes of the table's cells, its chunk lists and its
    /// indexes, counted from their capacities: O(chunks + indexes), no
    /// cell is read. A string cell's own heap (a `Text` past its inline
    /// bound) is not counted, nor is the schema.
    pub(crate) fn heap_bytes(&self) -> usize {
        let indexes = self.indexes.read().unwrap_or_else(|e| e.into_inner());
        self.cells.iter().map(Cells::heap_bytes).sum::<usize>()
            + indexes.capacity() * size_of::<Arc<EqIndex>>()
            + indexes.iter().map(|i| i.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn column(name: &str, ty: SqlType, not_null: bool) -> Column {
        Column {
            name: name.into(),
            ty,
            not_null,
        }
    }

    fn two_col_schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                column("a", SqlType::Int, true),
                column("b", SqlType::Text, false),
            ],
            primary_key: vec![0],
            uniques: vec![],
            foreign_keys: vec![],
        }
    }

    impl Table {
        /// The number of chunks of column `col`.
        fn chunk_count(&self, col: usize) -> usize {
            match &self.cells[col] {
                Cells::Int(c) => c.chunks.len(),
                Cells::Value(c) => c.chunks.len(),
            }
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
    fn push_row_checks_the_shape() {
        let mut t = Table::new(two_col_schema());
        assert!(matches!(
            t.push_row(vec![Value::str("no"), Value::Null]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(vec![Value::Null, Value::Null]),
            Err(DbError::NullViolation(_))
        ));
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_detection_ignores_null() {
        let mut t = Table::new(two_col_schema());
        t.push_row(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert!(t.has_duplicate_on(&[0], &[Value::Int(1), Value::Null], None));
        assert!(!t.has_duplicate_on(&[0], &[Value::Int(2), Value::Null], None));
        assert!(!t.has_duplicate_on(&[1], &[Value::Int(9), Value::Null], None));
    }

    /// A table of `two_col_schema` holding `rows`, in order, with no index
    /// built yet.
    fn table_of(rows: impl IntoIterator<Item = Vec<Value>>) -> Table {
        let mut t = Table::new(two_col_schema());
        for row in rows {
            t.push_row(row).unwrap();
        }
        t
    }

    fn ids(t: &Table, cols: &[usize], key: &[Value]) -> Vec<u32> {
        t.probe(cols).matching(key).collect()
    }

    #[test]
    fn index_keeps_insertion_order_for_unique_and_repeated_keys() {
        let mut t = table_of([
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(3), Value::Null],
        ]);
        // Built from stored rows, then kept current by appends.
        assert_eq!(ids(&t, &[1], &[Value::str("x")]), [0]);
        t.push_row(vec![Value::Int(4), Value::str("x")]).unwrap();
        t.push_row(vec![Value::Int(5), Value::str("x")]).unwrap();
        assert_eq!(ids(&t, &[1], &[Value::str("x")]), [0, 3, 4]);
        assert_eq!(ids(&t, &[1], &[Value::str("y")]), [1]);
        assert!(ids(&t, &[1], &[Value::str("z")]).is_empty());
        // NULL keys are excluded, and a NULL probe matches nothing.
        assert!(ids(&t, &[1], &[Value::Null]).is_empty());
        // A two-column key is probed the same way.
        assert_eq!(ids(&t, &[0, 1], &[Value::Int(4), Value::str("x")]), [3]);
        assert!(ids(&t, &[0, 1], &[Value::Int(4), Value::str("y")]).is_empty());
        assert!(ids(&t, &[0, 1], &[Value::Int(3), Value::Null]).is_empty());
        // An integer cell equals no value of another type.
        assert!(ids(&t, &[0], &[Value::str("4")]).is_empty());
        // A stored row's cells probe another index (or its own).
        let probe = t.probe(&[1]);
        assert_eq!(
            probe.matching_cells(&t, 4, &[1]).collect::<Vec<_>>(),
            [0, 3, 4]
        );
        assert!(probe.matching_cells(&t, 2, &[1]).next().is_none());
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
            appended.push_row(row(i)).unwrap();
        }
        let mut built = table_of((0..300).map(row));
        built.probe(&[1]); // built over 300 rows, then grown mid-way
        for i in 300..600 {
            built.push_row(row(i)).unwrap();
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
    /// only the comparison with a stored integer cell tells them apart),
    /// stay distinguishable through a growth of the table.
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

        let mut t = Table::new(two_col_schema());
        t.probe(&[0]); // every row arrives by `append`
        for round in 0..2 {
            for &k in &keys {
                t.push_row(vec![Value::Int(k), Value::str(format!("{round}"))])
                    .unwrap();
            }
        }
        let probe = t.probe(&[0]);
        assert!(probe.index.slots.len() >= 8, "the table grew mid-build");
        assert_eq!(probe.index.groups, keys.len());
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
        let mut t = table_of((0..5).map(|i| vec![Value::Int(i), Value::Null]));
        t.remove_rows(vec![0, 2, 4]);
        let left: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(left, vec![1, 3]);
    }

    #[test]
    fn remove_rows_takes_any_order_and_keeps_the_rest_in_order() {
        let mut t = table_of((0..10_000).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]));
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
        assert!(t.rows().eq(model.iter().cloned()));
        for (i, row) in model.iter().enumerate() {
            assert_eq!(&t.row(i), row);
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
            t.push_row(row.clone()).unwrap();
        }
        assert_eq!((t.chunk_count(0), t.chunk_count(1)), (3, 3));
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
            ("ids past the end", vec![n, n + CHUNK, 3]),
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
            t.push_row(keyed(n)).unwrap();
            assert_holds(&t, &model);
            assert!(t.chunk_count(0) <= model.len().div_ceil(CHUNK), "{what}");
        }
    }

    #[test]
    fn set_cell_drops_the_index() {
        let mut t = table_of((0..CHUNK + 10).map(keyed));
        let id = (CHUNK + 3) as u32; // in the second chunk
        let old = t.cell(id as usize, 1).into_owned();
        assert!(ids(&t, &[1], std::slice::from_ref(&old)).contains(&id));
        t.set_cell(id as usize, 1, Value::str("moved")).unwrap();
        assert_eq!(ids(&t, &[1], &[Value::str("moved")]), [id]);
        assert!(!ids(&t, &[1], &[old]).contains(&id));
        // An integer cell, too.
        assert_eq!(ids(&t, &[0], &[Value::Int(5)]), [5]);
        t.set_cell(5, 0, Value::Int(-5)).unwrap();
        assert_eq!(ids(&t, &[0], &[Value::Int(-5)]), [5]);
        assert!(ids(&t, &[0], &[Value::Int(5)]).is_empty());
    }

    #[test]
    fn set_cell_refuses_a_value_of_another_type() {
        let mut t = table_of((0..3).map(keyed));
        let before: Vec<Vec<Value>> = t.rows().collect();
        for (col, v) in [
            (0, Value::str("7")),
            (0, Value::Bool(true)),
            (1, Value::Int(7)),
        ] {
            assert!(
                matches!(
                    t.set_cell(1, col, v.clone()),
                    Err(DbError::TypeMismatch { .. })
                ),
                "{v:?} into column {col}"
            );
        }
        assert!(t.rows().eq(before));
    }

    #[test]
    fn set_cell_refuses_null_in_a_not_null_column() {
        let mut t = table_of((0..3).map(keyed));
        assert!(matches!(
            t.set_cell(2, 0, Value::Null),
            Err(DbError::NullViolation(c)) if c == "t.a"
        ));
        assert_eq!(t.row(2), keyed(2));
        // The nullable column takes it.
        t.set_cell(2, 1, Value::Null).unwrap();
        assert_eq!(t.row(2), [Value::Int(2), Value::Null]);
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
            copy.push_row(keyed(i)).unwrap();
            grown.push(keyed(i));
        }
        assert_holds(&copy, &grown);
        assert_holds(&t, &model);
    }

    fn one_int_column() -> Table {
        Table::new(TableSchema {
            name: "one".into(),
            columns: vec![column("a", SqlType::Int, true)],
            primary_key: vec![0],
            uniques: vec![],
            foreign_keys: vec![],
        })
    }

    #[test]
    fn a_table_of_arity_one() {
        let mut t = one_int_column();
        let mut model: Vec<Vec<Value>> =
            (0..2 * CHUNK + 1).map(|i| keyed(i)[..1].to_vec()).collect();
        for row in &model {
            t.push_row(row.clone()).unwrap();
        }
        assert_holds(&t, &model);
        t.remove_rows((0..CHUNK + 1).collect());
        model.drain(..CHUNK + 1);
        assert_holds(&t, &model);
    }

    /// An `INT NOT NULL` column of `n` rows owns 8 bytes a cell: `n`
    /// rounded up to its chunks' room (a power of two from 4 in the first
    /// chunk, whole chunks after it), plus the chunk list. A clone's
    /// chunks are cut to their length, so it owns exactly `8 n` and the
    /// list. A nullable column pays 24 bytes a cell.
    #[test]
    fn an_int_not_null_cell_is_eight_bytes() {
        let list = |chunks: usize| chunks * size_of::<Vec<i64>>();
        for n in [0, 1, 4, 5, 1000, CHUNK, CHUNK + 1, 3 * CHUNK - 1, 10_000] {
            let mut t = one_int_column();
            for i in 0..n {
                t.push_row(vec![Value::Int(i as i64)]).unwrap();
            }
            let chunks = n.div_ceil(CHUNK);
            let room = match n {
                0 => 0,
                1..=CHUNK => n.next_power_of_two().max(4),
                _ => chunks * CHUNK,
            };
            assert_eq!(t.heap_bytes(), 8 * room + list(chunks), "{n} rows");
            assert_eq!(t.clone().heap_bytes(), 8 * n + list(chunks), "{n} rows");
        }
        let mut nullable = Table::new(TableSchema {
            columns: vec![column("a", SqlType::Int, false)],
            ..one_int_column().schema
        });
        for i in 0..CHUNK {
            nullable.push_row(vec![Value::Int(i as i64)]).unwrap();
        }
        let value_list = size_of::<Vec<Value>>();
        assert_eq!(nullable.heap_bytes(), 24 * CHUNK + value_list);
        // An index adds its own bytes, and a clone starts without it.
        nullable.probe(&[0]);
        assert!(nullable.heap_bytes() > 24 * CHUNK + value_list + 4 * CHUNK);
        assert_eq!(nullable.clone().heap_bytes(), 24 * CHUNK + value_list);
    }

    /// A mixed table — `INT NOT NULL`, nullable `INT`, `TEXT`, `BOOL` —
    /// against a `Vec<Vec<Value>>` model, under random appends, batches
    /// taken back by `truncate`, removals, cell writes (refused ones
    /// included) and clones, across chunk boundaries, with integer-key
    /// indexes built at random points and probed after every step.
    #[test]
    fn a_mixed_table_holds_its_model() {
        let schema = TableSchema {
            name: "m".into(),
            columns: vec![
                column("id", SqlType::Int, true),
                column("n", SqlType::Int, false),
                column("s", SqlType::Text, false),
                column("b", SqlType::Bool, false),
            ],
            primary_key: vec![],
            uniques: vec![],
            foreign_keys: vec![],
        };
        let value = |rng: &mut SmallRng, col: usize| -> Value {
            if col > 0 && rng.gen_bool(0.2) {
                return Value::Null;
            }
            match col {
                0 | 1 => Value::Int(rng.gen_range(-20..60)),
                2 => Value::str(format!("s{}", rng.gen_range(0..9))),
                _ => Value::Bool(rng.gen_bool(0.5)),
            }
        };
        let row = |rng: &mut SmallRng| -> Vec<Value> { (0..4).map(|c| value(rng, c)).collect() };
        let keys = [vec![0], vec![1], vec![0, 1]];
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = Table::new(schema.clone());
            let mut model: Vec<Vec<Value>> = Vec::new();
            for step in 0..30 {
                match rng.gen_range(0..10) {
                    0..=2 => {
                        for _ in 0..rng.gen_range(1..700) {
                            let r = row(&mut rng);
                            t.push_row(r.clone()).unwrap();
                            model.push(r);
                        }
                    }
                    3 => {
                        // A batch that failed part-way is taken back.
                        let len = t.len();
                        for _ in 0..rng.gen_range(1..1500) {
                            t.push_row(row(&mut rng)).unwrap();
                        }
                        t.truncate(len);
                    }
                    4 => {
                        let doomed: Vec<usize> = (0..rng.gen_range(0..300))
                            .map(|_| rng.gen_range(0..model.len() + 3))
                            .collect();
                        t.remove_rows(doomed.clone());
                        let doomed: std::collections::HashSet<usize> = doomed.into_iter().collect();
                        let mut at = 0;
                        model.retain(|_| {
                            at += 1;
                            !doomed.contains(&(at - 1))
                        });
                    }
                    5 | 6 if !model.is_empty() => {
                        for _ in 0..rng.gen_range(1..20) {
                            let (i, col) = (rng.gen_range(0..model.len()), rng.gen_range(0..4));
                            let v = if rng.gen_bool(0.2) {
                                value(&mut rng, (col + 1) % 4)
                            } else {
                                value(&mut rng, col)
                            };
                            let admitted = v
                                .sql_type()
                                .map_or(col > 0, |ty| ty == schema.columns[col].ty);
                            assert_eq!(t.set_cell(i, col, v.clone()).is_ok(), admitted, "{v:?}");
                            if admitted {
                                model[i][col] = v;
                            }
                        }
                    }
                    7 => {
                        t = t.clone();
                        for _ in 0..rng.gen_range(0..300) {
                            let r = row(&mut rng);
                            t.push_row(r.clone()).unwrap();
                            model.push(r);
                        }
                    }
                    _ => {
                        t.probe(&keys[rng.gen_range(0..keys.len())]);
                    }
                }
                let what = format!("seed {seed}, step {step}");
                assert_eq!(t.len(), model.len(), "{what}");
                assert!(t.rows().eq(model.iter().cloned()), "{what}");
                for cols in &keys {
                    let probe = t.probe(cols);
                    for _ in 0..8 {
                        let key: Vec<Value> = cols.iter().map(|&c| value(&mut rng, c)).collect();
                        let expected: Vec<u32> = (0..model.len() as u32)
                            .filter(|&i| {
                                let stored = &model[i as usize];
                                (cols.iter().zip(&key))
                                    .all(|(&c, k)| !k.is_null() && stored[c] == *k)
                            })
                            .collect();
                        let found: Vec<u32> = probe.matching(&key).collect();
                        assert_eq!(found, expected, "{what}: {cols:?} = {key:?}");
                    }
                }
            }
        }
    }
}
