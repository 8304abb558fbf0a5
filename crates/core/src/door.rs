//! The one door to the database.
//!
//! A statement reaches the wrapped [`Database`] only through a [`Permit`].
//! [`decide`](crate::decide::decide) mints one for an allowed statement,
//! carrying the plan's statement, and `SqlProxy::execute_unchecked` mints
//! one audited [`Permit::unchecked`]. [`Permit::run`] takes the [`Store`]
//! by `&mut`, which the caller holds only under the proxy's one state
//! lock. So `run` is the one place a statement touches the database, and
//! the one place a write revokes what sessions knew.
//!
//! # Revocation
//!
//! A trace fact is an atom known to hold in the current database
//! ([`crate::trace`]). An `INSERT` cannot falsify one, because facts are
//! positive. An `UPDATE` or `DELETE` can falsify any fact over its table,
//! and over no other: minidb restricts foreign keys and never cascades.
//! It can do so only if it changed a row, and minidb statements are all
//! or nothing: `update` computes and validates its whole post-state before
//! it writes a row (`db.rs`'s `update_unique_conflict_is_atomic`,
//! `update_colliding_with_an_unchanged_row_fails_atomically`), `delete`
//! runs its restrict check before it removes one (`delete_restricted_by_fk`),
//! and `tests/constraint_model.rs` holds every refused statement's tables
//! to a reference that leaves them as they were. So every `UPDATE` and
//! `DELETE` a permit runs that minidb reports changed rows (`Affected(n)`,
//! `n > 0`) bumps the store's write epoch and makes it its table's latest,
//! whether it was enforced, passed through or unchecked; a refused write,
//! or one that matched no row, falsified nothing and revokes nothing.
//!
//! A session remembers the epoch it last synced at. One that is behind
//! revokes every fact and entry over a table written since
//! ([`Trace::revoke`](crate::trace::Trace::revoke)) before it decides. The
//! sync, the decision, the run and the write-back happen under one
//! acquisition of the state lock, so no write lands between a session's
//! sync and the read its permit allows. Keeping up costs one comparison
//! per statement.

use minidb::{Database, DbError, ExecResult};
use sqlir::{Delete, Query, Statement, Update, Value};

/// The database, and the write epochs sessions sync their traces to.
#[derive(Debug)]
pub(crate) struct Store {
    pub(crate) db: Database,
    /// `UPDATE`s and `DELETE`s ever run.
    epoch: u64,
    /// Each written table with the epoch of its latest write; a schema has
    /// a handful of tables.
    written: Vec<(String, u64)>,
}

impl Store {
    pub(crate) fn new(db: Database) -> Store {
        Store {
            db,
            epoch: 0,
            written: Vec::new(),
        }
    }

    /// The number of `UPDATE`s and `DELETE`s ever run: a session synced at
    /// this epoch knows no fact a write has falsified.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tables written after epoch `since`.
    pub(crate) fn written_since(&self, since: u64) -> Vec<&str> {
        (self.written.iter())
            .filter(|(_, at)| *at > since)
            .map(|(table, _)| table.as_str())
            .collect()
    }

    fn bump(&mut self, table: &str) {
        self.epoch += 1;
        match self.written.iter_mut().find(|(t, _)| t == table) {
            Some((_, at)) => *at = self.epoch,
            None => self.written.push((table.to_string(), self.epoch)),
        }
    }
}

/// The right to run one statement: what an allowed decision carries.
#[derive(Debug)]
pub(crate) struct Permit<'p>(Run<'p>);

#[derive(Debug)]
enum Run<'p> {
    Read(&'p Query),
    Write(&'p Statement),
}

impl<'p> Permit<'p> {
    /// Permits an allowed `SELECT`.
    pub(crate) fn read(query: &'p Query) -> Permit<'p> {
        Permit(Run::Read(query))
    }

    /// Permits an allowed mutation, or a statement that passes through.
    pub(crate) fn write(stmt: &'p Statement) -> Permit<'p> {
        Permit(Run::Write(stmt))
    }

    /// Permits a statement no policy decided: the audited bypass of
    /// `SqlProxy::execute_unchecked`. Its writes revoke like any other.
    pub(crate) fn unchecked(stmt: &'p Statement) -> Permit<'p> {
        match stmt {
            Statement::Select(query) => Permit::read(query),
            stmt => Permit::write(stmt),
        }
    }

    /// Runs the statement on `store` with its parameters read from
    /// `bindings`. An `UPDATE` or `DELETE` that changed a row then bumps
    /// its table's write epoch (module docs, "Revocation").
    pub(crate) fn run(
        self,
        store: &mut Store,
        bindings: &[(String, Value)],
    ) -> Result<ExecResult, DbError> {
        match self.0 {
            Run::Read(query) => store.db.query_with(query, bindings).map(ExecResult::Rows),
            Run::Write(stmt) => {
                let result = store.db.execute_with(stmt, bindings);
                if let (
                    Statement::Update(Update { table, .. })
                    | Statement::Delete(Delete { table, .. }),
                    Ok(ExecResult::Affected(1..)),
                ) = (stmt, &result)
                {
                    store.bump(table);
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_updates_and_deletes_that_change_rows_move_the_epoch() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE T (a INT PRIMARY KEY)")
            .unwrap();
        let mut store = Store::new(db);
        let mut run = |sql: &str| {
            let stmt = sqlir::parse_statement(sql).unwrap();
            let ok = Permit::unchecked(&stmt).run(&mut store, &[]).is_ok();
            (ok, store.epoch(), store.written_since(0).join(","))
        };
        assert_eq!(
            run("INSERT INTO T (a) VALUES (1), (2)"),
            (true, 0, "".into())
        );
        assert_eq!(run("SELECT a FROM T"), (true, 0, "".into()));
        assert_eq!(run("UPDATE T SET a = 3 WHERE a = 1"), (true, 1, "T".into()));
        // A refused write, or one that matched no row, changed nothing.
        assert_eq!(
            run("UPDATE T SET a = 2 WHERE a = 3"),
            (false, 1, "T".into())
        );
        assert_eq!(run("DELETE FROM Nope"), (false, 1, "T".into()));
        assert_eq!(run("DELETE FROM T WHERE a = 9"), (true, 1, "T".into()));
        assert_eq!(run("UPDATE T SET a = 4 WHERE a = 9"), (true, 1, "T".into()));
        assert_eq!(run("DELETE FROM T WHERE a = 2"), (true, 2, "T".into()));
        assert!(store.written_since(2).is_empty());
    }
}
