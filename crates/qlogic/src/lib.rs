//! Conjunctive-query logic: the reasoning substrate of `beyond-enforcement`.
//!
//! This crate implements, from scratch, the database-theoretic machinery the
//! HotOS '23 paper "Access Control for Database Applications: Beyond Policy
//! Enforcement" presupposes:
//!
//! * [`sym`] — the global symbol interner every name in the core runs on;
//! * [`cq`] — conjunctive queries (CQs) with comparisons and parameters,
//!   and unions thereof;
//! * [`from_sql`] — translation between the SQL AST and CQs (both ways);
//! * [`compare`] — a sound constraint reasoner for comparison conjunctions;
//! * [`homomorphism`] — backtracking homomorphism search, the shared engine;
//! * [`instance`] — fact sets with labeled nulls (canonical databases);
//! * [`containment`] — containment/equivalence, optionally relative to known
//!   facts (the trace-awareness of the Blockaid-style checker);
//! * [`rewrite`] — MiniCon-style answering-queries-using-views: contained,
//!   maximally-contained, and equivalent rewritings;
//! * [`minimize`](mod@minimize) — CQ cores;
//! * [`generalize`] — anti-unification for specification mining;
//! * [`probe`] — thread-local solver work counters (rewrite iterations,
//!   containment calls, homomorphism nodes/backtracks) that introspection
//!   harnesses read at span boundaries.
//!
//! Soundness stance: every positive answer (`contained`, `entails`,
//! rewriting verified) is correct for the full semantics. Completeness is
//! total for pure CQs and partial in the presence of comparisons — the same
//! trade-off Blockaid's decision procedure makes, and the right one for an
//! enforcement setting where "cannot prove" simply means "block".

#![warn(missing_docs)]

pub mod compare;
pub mod containment;
pub mod cq;
pub mod deps;
pub mod error;
pub mod from_sql;
pub mod generalize;
pub mod homomorphism;
pub mod instance;
pub mod minimize;
pub mod probe;
pub mod rewrite;
pub mod sym;

pub use compare::CmpContext;
pub use containment::{
    contained, contained_given, contained_given_deps, contained_in_union, equivalent,
    equivalent_given, satisfiable, union_contained, union_equivalent,
};
pub use cq::{Atom, CVal, CmpOp, Comparison, Cq, Subst, Term, Ucq};
pub use deps::{chase, normalize_cq, ChaseOutcome, Dependencies, Fd, Ind};
pub use error::LogicError;
pub use from_sql::{cq_to_sql, sql_to_cq, sql_to_ucq, RelSchema};
pub use generalize::{anti_unify, anti_unify_all, canonicalize_vars, const_to_param};
pub use homomorphism::{
    fact_implied, find_homomorphism, find_homomorphisms, for_each_homomorphism, HomProblem,
};
pub use instance::Instance;
pub use minimize::minimize;
pub use probe::SolverCounters;
pub use rewrite::{
    candidate_view_indices, contained_rewritings, containing_rewritings, equivalent_rewriting,
    equivalent_rewriting_deps, expand, maximally_contained, ViewSet,
};
pub use sym::{intern, Fresh, Sym, ToSym};
