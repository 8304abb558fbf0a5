//! A small handler language for database-backed applications.
//!
//! The paper's Listing 1 is written in an (idealized) dynamic web language.
//! `appdsl` is that language made concrete: handlers take request
//! parameters, read session fields, issue SQL with named parameters, branch
//! on result emptiness, loop over rows, and `emit` data to the user.
//!
//! The crate ships the AST ([`ast`]), a parser ([`parser`]), and a concrete
//! interpreter ([`interp`]) that runs against any [`QueryPort`] — a bare
//! database or the enforcing proxy. The *symbolic* executor over the same
//! AST lives in `bep-extract`, because it is part of the paper's
//! contribution rather than substrate.
//!
//! # Examples
//!
//! ```
//! use appdsl::{parse_handler, run_handler, Limits};
//! use minidb::Database;
//! use sqlir::Value;
//!
//! let mut db = Database::new();
//! db.execute_sql("CREATE TABLE T (x INT)").unwrap();
//! db.execute_sql("INSERT INTO T (x) VALUES (41)").unwrap();
//!
//! let handler = parse_handler(
//!     r#"handler get() { emit sql("SELECT x FROM T"); }"#,
//! ).unwrap();
//! let result = run_handler(&mut db, &handler, &[], &[], Limits::default()).unwrap();
//! assert!(result.ok());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod interp;
pub mod parser;

pub use ast::{App, DBinOp, DExpr, Handler, SqlSite, Stmt};
pub use error::DslError;
pub use interp::{
    run_handler, Emitted, IssuedQuery, Limits, Outcome, PortOutcome, QueryPort, Request, RunResult,
};
pub use parser::{parse_app, parse_handler};
