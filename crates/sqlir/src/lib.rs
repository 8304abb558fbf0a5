//! SQL intermediate representation for the `beyond-enforcement` toolkit.
//!
//! This crate provides a hand-written lexer and recursive-descent parser for
//! the SQL subset used throughout the workspace, together with a typed AST,
//! a pretty-printer whose output round-trips through the parser, and the
//! [`Value`] type shared by every other crate.
//!
//! The supported subset covers what database-backed web applications issue in
//! practice (and everything the HotOS '23 paper "Access Control for Database
//! Applications: Beyond Policy Enforcement" uses in its examples):
//!
//! * `SELECT [DISTINCT] ... FROM ... [JOIN ... ON ...]* [WHERE ...]
//!   [GROUP BY ...] [ORDER BY ...] [LIMIT n]` with aggregates
//!   (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`), `IN` lists and subqueries, `EXISTS`,
//!   `BETWEEN`, `LIKE`, and `IS [NOT] NULL`;
//! * `INSERT`, `UPDATE`, `DELETE`;
//! * `CREATE TABLE` with `PRIMARY KEY`, `UNIQUE`, `NOT NULL`, and
//!   `FOREIGN KEY ... REFERENCES` constraints;
//! * named (`?MyUId`) and positional (`?`) parameters, as used by
//!   view-based policies.
//!
//! # Examples
//!
//! ```
//! use sqlir::parse_statement;
//!
//! let stmt = parse_statement(
//!     "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId \
//!      WHERE a.UId = ?MyUId",
//! )
//! .unwrap();
//! let printed = stmt.to_string();
//! assert!(printed.contains("JOIN Attendance"));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lift;
pub mod params;
pub mod parser;
pub mod printer;
pub mod text;
pub mod token;
pub mod value;

pub use ast::{
    Assignment, BinaryOp, ColumnDef, ColumnRef, CreateTable, Delete, Distinctness, Expr, Insert,
    JoinClause, OrderKey, Param, Query, SelectItem, SetFunc, Statement, TableConstraint, TableRef,
    UnaryOp, Update,
};
pub use error::{ParseError, SqlError};
pub use lift::{is_lifted_name, lift_literals, Lifted, LIFTED_PREFIX};
pub use params::{bind_statement, lookup, params_in_bind_order, unbound_error, ParamBindings};
pub use parser::{parse_expr, parse_query, parse_statement, parse_statements};
pub use text::Text;
pub use value::{CmpResult, SqlType, Value};
