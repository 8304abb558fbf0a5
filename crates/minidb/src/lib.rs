//! An in-memory relational database engine.
//!
//! `minidb` executes the SQL subset defined by [`sqlir`] against in-memory
//! tables with full integrity enforcement (primary keys, `UNIQUE`,
//! `NOT NULL`, and restrict-mode foreign keys). It exists so that the rest of
//! the `beyond-enforcement` workspace — the access-control proxy, policy
//! extraction, and violation diagnosis — can run real applications against a
//! real query engine at laptop scale, standing in for the production DBMS a
//! deployment would use.
//!
//! Design notes:
//!
//! * Execution joins tuples of row ids, stage by stage: `col = literal`
//!   selections and equi-joins probe lazily built, key-less equality
//!   indexes ([`Table::probe`]), total `ON`/`WHERE` conjuncts apply at the
//!   first stage that binds their columns, stages run in a greedy order
//!   taken from exact index counts, and the nested loop's emission order is
//!   restored by sorting on row ids (see [`exec`]). The same pipeline
//!   selects the rows of an `UPDATE`/`DELETE`. The unoptimized path is kept
//!   callable ([`exec::execute_query_naive`]) as the oracle for
//!   differential tests; results are identical including row order.
//! * SQL three-valued logic is implemented throughout (`WHERE` keeps only
//!   `TRUE`; `NOT IN` with a `NULL` behaves per the standard).
//! * [`Database`] is `Clone`, giving cheap whole-database snapshots; the
//!   diagnosis and active-learning components rely on this to explore
//!   hypothetical states.
//!
//! # Examples
//!
//! ```
//! use minidb::Database;
//!
//! let mut db = Database::new();
//! db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT)").unwrap();
//! db.execute_sql("INSERT INTO Events (EId, Title) VALUES (2, 'standup')").unwrap();
//! let rows = db.query_sql("SELECT Title FROM Events WHERE EId = 2").unwrap();
//! assert_eq!(rows.rows[0][0], sqlir::Value::str("standup"));
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod schema;
pub mod table;

pub use db::{Database, ExecResult};
pub use error::DbError;
pub use exec::{execute_query_naive, Rows};
pub use schema::{Column, ForeignKey, TableSchema};
pub use table::Table;
