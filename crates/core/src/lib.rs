//! The enforcement setting of "Access Control for Database Applications:
//! Beyond Policy Enforcement" (HotOS '23): view-based policies, query
//! traces, a trace-aware compliance checker, and an enforcing SQL proxy.
//!
//! This crate is the workspace's reconstruction of the Blockaid-style system
//! the paper frames its three proposals around (§2.2):
//!
//! * [`Policy`] — SQL views parameterized by session values (`?MyUId`);
//! * [`Trace`] — per-session query history and the ground facts it
//!   witnesses;
//! * [`ComplianceChecker`] — decides whether a query's answer is determined
//!   by the views plus the trace (equivalent-rewriting certificates);
//! * [`SqlProxy`] — intercepts queries, allows or blocks them *unmodified*,
//!   and amortizes decisions through template- and session-level caches.
//!
//! The crate reproduces Example 2.1 of the paper exactly: `Q1` is allowed by
//! `V1`; `Q2` alone is blocked; `Q2` after `Q1` returned a row is allowed.
//! See `checker::tests::example_2_1_full_scenario`.

#![warn(missing_docs)]

pub mod cache;
pub mod checker;
mod decide;
pub mod decision;
mod door;
pub mod error;
pub mod latency;
pub mod lint;
pub mod mem;
pub mod obs;
pub mod plan;
pub mod policy;
pub mod proxy;
pub mod span;
pub mod trace;
pub mod write;

pub use cache::BoundedCache;
pub use checker::ComplianceChecker;
pub use decision::{Decision, DenyReason};
pub use error::CoreError;
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use lint::{lint_template, lint_templates};
pub use mem::HeapUsage;
pub use obs::{
    read_process_memory, template_hash, write_family, CacheTier, DecisionEvent, EventJournal,
    JournalCursor, Phase, PhaseTimer, ProcessMemory, Verdict, PHASE_COUNT,
};
pub use plan::{
    compile_plan, DisjunctPlan, PlanBody, PlanCache, SelectPlan, TemplatePlan, TemplateVerdict,
    WritePlan,
};
pub use policy::{schema_of_database, Policy, ViewDef};
pub use proxy::{ProxyConfig, ProxyResponse, ProxyStats, SqlProxy};
pub use span::SpanSummary;
pub use trace::{Observation, Trace, TraceEntry};
pub use write::{
    check_write_concrete, compile_write_template, WriteTemplate, WriteTemplateVerdict,
};
