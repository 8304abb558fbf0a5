//! The trace-aware compliance checker (the Blockaid-style decision
//! procedure of §2.2).
//!
//! A `SELECT` is *compliant* when its answer is guaranteed to reveal no more
//! than the policy views do, given the session's query history. The
//! sufficient condition implemented here: every disjunct of the query's
//! conjunctive form has a rewriting over the views whose expansion is
//! equivalent to the disjunct *over all databases containing the trace
//! facts* ([`qlogic::equivalent_rewriting`]).
//!
//! Soundness: an `Allowed` answer always implies the answer is determined by
//! view contents + trace facts. Completeness matches the underlying
//! containment machinery — total on pure conjunctive queries (which covers
//! all of the paper's examples), partial with comparisons.
//!
//! Two check levels exist:
//!
//! * [`ComplianceChecker::check_template`] decides a query with its
//!   parameters left symbolic. A positive answer holds for *every* session,
//!   so proxies cache it globally — the parameterized decision cache that
//!   makes Blockaid-style enforcement cheap in steady state.
//! * [`ComplianceChecker::check_concrete`] decides one instantiated query
//!   given a session's trace facts.

use std::sync::Arc;

use qlogic::sym::Sym;
use qlogic::{
    equivalent_rewriting_deps, sql_to_ucq, Cq, Dependencies, RelSchema, Term, Ucq, ViewSet,
};
use sqlir::{Query, Value};

use crate::decision::{Decision, DenyReason};
use crate::error::CoreError;
use crate::policy::Policy;
use crate::trace::Trace;

/// The compliance checker: schema + policy, both immutable after creation.
///
/// The schema's dependencies and the policy's symbolic view set are
/// computed once here, not per check — the hot path shares them by
/// reference ([`Arc`] for the views) instead of re-deriving and cloning
/// every policy view on every decision.
#[derive(Debug, Clone)]
pub struct ComplianceChecker {
    schema: RelSchema,
    policy: Policy,
    deps: Dependencies,
    symbolic: Result<Arc<ViewSet>, CoreError>,
    pinned: Vec<(Sym, usize)>,
}

impl ComplianceChecker {
    /// Creates a checker.
    pub fn new(schema: RelSchema, policy: Policy) -> ComplianceChecker {
        let deps = schema.dependencies();
        let symbolic = policy.symbolic_views().map(Arc::new);
        let pinned = pinned_columns(&policy);
        ComplianceChecker {
            schema,
            policy,
            deps,
            symbolic,
            pinned,
        }
    }

    /// Whether some view's selection compares column `column` of
    /// `relation` with a constant (`Kind = 'public'`, `Age >= 18`). A
    /// literal a query compares there can decide a template-level proof,
    /// so the proxy never lifts one (see [`crate::plan::TemplatePlan::exact_only`]).
    pub fn is_pinned(&self, relation: Sym, column: usize) -> bool {
        self.pinned.contains(&(relation, column))
    }

    /// The schema in use.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The policy in use.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The schema's declared dependencies, derived once at construction.
    pub fn dependencies(&self) -> &Dependencies {
        &self.deps
    }

    /// The symbolic view snapshot shared by every template-level decision
    /// (an `Arc`, so callers snapshot without cloning any view).
    pub fn symbolic_views(&self) -> Result<Arc<ViewSet>, CoreError> {
        self.symbolic.clone()
    }

    /// Proves one already-instantiated disjunct over the given views and
    /// facts: `Some(certificate)` when the disjunct is unsatisfiable
    /// (reveals nothing) or has an equivalent rewriting. This is the
    /// per-disjunct kernel [`check_concrete`](Self::check_concrete) loops
    /// over; compiled plans call it directly with a pruned view subset.
    pub fn prove_disjunct(&self, d: &Cq, views: &ViewSet, facts: &[qlogic::Atom]) -> Option<Cq> {
        if !qlogic::satisfiable(d) {
            return Some(d.clone());
        }
        equivalent_rewriting_deps(d, views, facts, &self.deps)
    }

    /// Replays a precompiled certificate for one instantiated disjunct:
    /// `Some(rw)` when the disjunct is unsatisfiable, or when `expansion`
    /// (the template rewriting's precompiled view expansion, instantiated
    /// with the same bindings as `d` and `rw`) is equivalent to `d` over
    /// all databases containing `facts`. This is the verification tail of
    /// the full rewriting search with everything else — candidate
    /// generation, view instantiation, normalization, expansion — already
    /// amortized into the plan. `None` means the certificate did not
    /// verify; the caller falls back to the full
    /// [`prove_disjunct`](Self::prove_disjunct) search, so replay can never
    /// change a decision, only skip work.
    pub fn replay_certificate(
        &self,
        d: &Cq,
        rw: Cq,
        expansion: &Cq,
        facts: &[qlogic::Atom],
    ) -> Option<Cq> {
        if !qlogic::satisfiable(d) {
            return Some(d.clone());
        }
        (qlogic::contained_given_deps(d, expansion, facts, &self.deps)
            && qlogic::contained_given_deps(expansion, d, facts, &self.deps))
        .then_some(rw)
    }

    /// Translates a SQL query to its conjunctive form.
    pub fn translate(&self, q: &Query) -> Result<Ucq, CoreError> {
        Ok(sql_to_ucq(&self.schema, q)?)
    }

    /// Decides a query with parameters left symbolic; `Allowed` holds for
    /// every session and any history.
    pub fn check_template(&self, q: &Query) -> Decision {
        let ucq = match self.translate(q) {
            Ok(u) => u,
            Err(e) => {
                return Decision::Denied {
                    reason: DenyReason::OutOfFragment(e.to_string()),
                }
            }
        };
        let views = match &self.symbolic {
            Ok(v) => v,
            Err(e) => {
                return Decision::Denied {
                    reason: DenyReason::OutOfFragment(e.to_string()),
                }
            }
        };
        self.decide(&ucq, views, &[])
    }

    /// Decides an instantiated query for one session, using its trace.
    pub fn check_concrete(
        &self,
        q: &Query,
        bindings: &[(String, Value)],
        trace: &Trace,
    ) -> Decision {
        let ucq = match self.translate(q) {
            Ok(u) => u,
            Err(e) => {
                return Decision::Denied {
                    reason: DenyReason::OutOfFragment(e.to_string()),
                }
            }
        };
        let ucq = Ucq {
            disjuncts: ucq
                .disjuncts
                .iter()
                .map(|d| d.instantiate(bindings))
                .collect(),
        };
        let views = match self.policy.instantiate(bindings) {
            Ok(v) => v,
            Err(e) => {
                return Decision::Denied {
                    reason: DenyReason::OutOfFragment(e.to_string()),
                }
            }
        };
        self.decide(&ucq, &views, trace.facts())
    }

    fn decide(&self, ucq: &Ucq, views: &qlogic::ViewSet, facts: &[qlogic::Atom]) -> Decision {
        let mut rewritings = Vec::with_capacity(ucq.disjuncts.len());
        for d in &ucq.disjuncts {
            match self.prove_disjunct(d, views, facts) {
                Some(rw) => rewritings.push(rw),
                None => {
                    return Decision::Denied {
                        reason: DenyReason::NotDetermined { query: d.clone() },
                    }
                }
            }
        }
        Decision::Allowed { rewritings }
    }
}

/// Every `(relation, column)` a view's selection ties to a constant: a
/// constant in a view atom (`Kind = 'public'` folds into the atom), or a
/// variable bound there that a view comparison compares with a constant
/// (`Age >= 18`).
fn pinned_columns(policy: &Policy) -> Vec<(Sym, usize)> {
    let mut out = Vec::new();
    for cq in policy.views().iter().map(|v| &v.cq) {
        let compared = |x: Sym| {
            cq.comparisons.iter().any(|c| {
                matches!((c.lhs, c.rhs), (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v)) if v == x)
            })
        };
        for atom in &cq.atoms {
            for (i, t) in atom.args.iter().enumerate() {
                let pinned = match *t {
                    Term::Const(_) => true,
                    Term::Var(x) => compared(x),
                    Term::Param(_) => false,
                };
                if pinned && !out.contains(&(atom.relation, i)) {
                    out.push((atom.relation, i));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Observation;
    use sqlir::parse_query;

    fn schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s
    }

    fn checker() -> ComplianceChecker {
        let policy = Policy::from_sql(
            &schema(),
            &[
                ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
                (
                    "V2",
                    "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                     WHERE a.UId = ?MyUId",
                ),
            ],
        )
        .unwrap();
        ComplianceChecker::new(schema(), policy)
    }

    fn bindings() -> Vec<(String, Value)> {
        vec![("MyUId".to_string(), Value::Int(1))]
    }

    #[test]
    fn example_2_1_full_scenario() {
        let c = checker();
        let mut trace = Trace::new();

        // Q1 is allowed in isolation (covered by V1).
        let q1 = parse_query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").unwrap();
        let d1 = c.check_concrete(&q1, &bindings(), &trace);
        assert!(d1.is_allowed(), "{d1:?}");

        // Q2 is blocked in isolation.
        let q2 = parse_query("SELECT * FROM Events WHERE EId = 2").unwrap();
        let d2 = c.check_concrete(&q2, &bindings(), &trace);
        assert!(!d2.is_allowed(), "Q2 must be blocked without history");

        // Record Q1 returning one row; Q2 becomes allowed.
        let cq1 = c
            .translate(&q1)
            .unwrap()
            .disjuncts
            .remove(0)
            .instantiate(&bindings());
        trace.record(cq1, Observation::NonEmpty);
        let d2b = c.check_concrete(&q2, &bindings(), &trace);
        assert!(
            d2b.is_allowed(),
            "Q2 must be allowed given Q1's result: {d2b:?}"
        );
    }

    #[test]
    fn template_level_decision() {
        let c = checker();
        // Q1's template (any user, any event) is allowed for all sessions:
        // V1 covers the probe for the session's own user id.
        let q1t =
            parse_query("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?arg0").unwrap();
        assert!(c.check_template(&q1t).is_allowed());

        // Q2's template is not allowed unconditionally.
        let q2t = parse_query("SELECT * FROM Events WHERE EId = ?arg0").unwrap();
        assert!(!c.check_template(&q2t).is_allowed());
    }

    #[test]
    fn probing_other_users_is_blocked() {
        let c = checker();
        let trace = Trace::new();
        // User 1 probing user 2's attendance must be blocked.
        let q = parse_query("SELECT 1 FROM Attendance WHERE UId = 2 AND EId = 5").unwrap();
        assert!(!c.check_concrete(&q, &bindings(), &trace).is_allowed());
    }

    #[test]
    fn out_of_fragment_blocks_conservatively() {
        let c = checker();
        let trace = Trace::new();
        let q = parse_query("SELECT COUNT(*) FROM Events").unwrap();
        let d = c.check_concrete(&q, &bindings(), &trace);
        assert!(matches!(
            d.deny_reason(),
            Some(DenyReason::OutOfFragment(_))
        ));
    }

    #[test]
    fn union_query_needs_all_disjuncts() {
        let c = checker();
        let trace = Trace::new();
        // EId IN (my events ∪ arbitrary probe): the second disjunct is the
        // blocked one, so the whole union is blocked.
        let q = parse_query("SELECT 1 FROM Attendance WHERE UId = 1 AND (EId = 2 OR Notes = 'x')")
            .unwrap();
        // Both disjuncts are within V1's coverage? The Notes = 'x' disjunct
        // constrains an unexported column — blocked.
        let d = c.check_concrete(&q, &bindings(), &trace);
        assert!(!d.is_allowed());
    }

    #[test]
    fn unsatisfiable_query_is_allowed() {
        let c = checker();
        let trace = Trace::new();
        let q = parse_query("SELECT 1 FROM Events WHERE EId = 1 AND EId = 2").unwrap();
        assert!(c.check_concrete(&q, &bindings(), &trace).is_allowed());
    }
}
