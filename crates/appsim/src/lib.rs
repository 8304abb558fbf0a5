//! Simulated database-backed applications, data generators, and request
//! workloads.
//!
//! Four complete applications exercise the toolkit, each shipping its
//! schema, DSL handler code, *injected-bug* variants for the diagnosis
//! experiments, and a hand-written ground-truth policy for scoring
//! extraction:
//!
//! * [`CALENDAR`] — the paper's running example (Listing 1, Examples 2.1
//!   and 3.1);
//! * [`HOSPITAL`] — the disclosure scenario of Example 4.1;
//! * [`EMPLOYEES`] — the age-threshold queries of Example 4.2;
//! * [`FORUM`] — a larger group-membership app stressing deeper joins and
//!   multi-step authorization;
//! * [`WIKI`] — group-scoped documents with an ungated analytics probe,
//!   the scenario where active constraint discovery earns its keep.
//!
//! [`ProxyPort`] adapts the enforcing proxy to the DSL interpreter, so any
//! of these applications can run under enforcement unchanged;
//! [`BlindPort`] runs them with every statement in a session of its own.

#![warn(missing_docs)]

pub mod calendar;
pub mod datagen;
pub mod employees;
pub mod forum;
pub mod hospital;
pub mod simapp;
pub mod wiki;
pub mod workload;

pub use calendar::CALENDAR;
pub use datagen::{populate_app, seed_app, stream_app, BatchSink, Scale, BATCH_ROWS, FIRST_UID};
pub use employees::EMPLOYEES;
pub use forum::FORUM;
pub use hospital::HOSPITAL;
pub use simapp::{AppSpec, BlindPort, ProxyPort, SimApp};
pub use wiki::WIKI;
pub use workload::{
    calendar_workload, employees_workload, forum_workload, hospital_workload, wiki_workload,
    workload_for, WorkloadError,
};

/// All five applications.
pub const ALL_APPS: [&SimApp; 5] = [&CALENDAR, &HOSPITAL, &EMPLOYEES, &FORUM, &WIKI];
