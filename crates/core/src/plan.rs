//! Compiled template plans: the parse/translate/prune work of a query
//! template, done once and reused by every concrete decision.
//!
//! The paper's premise (§2.2) is that view-based enforcement is practical
//! only when the Blockaid-style decision procedure is amortized across
//! requests. The proxy's verdict caches amortize *decisions*; this module
//! amortizes the *work leading up to a decision*. A [`TemplatePlan`]
//! captures, per distinct SQL template:
//!
//! * the parsed [`Statement`] (skip tokenize/parse on every request), and
//!   the parameters it mentions in [`sqlir::bind_statement`]'s order, so
//!   it runs with its parameters read in place and is refused, with
//!   binding's message, when one is unbound,
//! * the canonical UCQ translation, one [`DisjunctPlan`] per disjunct
//!   (skip `sql_to_ucq` on every request),
//! * a per-disjunct *pruned candidate-view list* from
//!   [`qlogic::candidate_view_indices`] — the rewriting search then runs
//!   only over views that can possibly participate (see the soundness
//!   argument on that function: a view sharing no relation name with the
//!   disjunct contributes zero MiniCon descriptions, so dropping it is
//!   decision-identical for every binding, fact set, and search mode), and
//! * the template-level verdict, and
//! * for a template-*undecidable* plan, the certificate each disjunct's
//!   concrete proofs last learned (`DisjunctPlan::learn`; the proxy writes
//!   it back with the statement's other effects), so the next session's
//!   proof is a check of a known rewriting, not a search for one.
//!
//! A learned certificate is only ever a candidate. Replay accepts it
//! through [`ComplianceChecker::replay_certificate`], which proves the
//! instantiated expansion equivalent to the instantiated disjunct *over
//! the replaying session's own trace facts* — the very condition the full
//! search checks before it accepts a rewriting. So a certificate learned
//! in session A allows nothing in session B that B's facts do not already
//! support, and a replay that does not verify falls back to the search.
//!
//! [`PlanCache`] is the home of compiled plans, by value: one SIEVE-bounded
//! map from a template's SQL text to its plan, owned by the proxy's locked
//! state, so a statement looks its plan up, and compiles it on a miss,
//! under the lock it decides under. Two texts are two keys, whatever their
//! hashes. Each plan the cache inserts gets an id no other plan has had,
//! and the session caches key their verdicts on it
//! ([`TemplatePlan::id`]).

use qlogic::{candidate_view_indices, const_to_param, Atom, CVal, Cq, Term};
use sqlir::{
    is_lifted_name, params_in_bind_order, parse_statement, Param, Query, Statement, Value,
};

use crate::cache::BoundedCache;
use crate::checker::ComplianceChecker;
use crate::obs::Phase;
use crate::write::{WriteTemplate, WriteTemplateVerdict};

/// One disjunct of a template's UCQ translation, with the candidate views
/// that survived the relation-signature pre-filter.
#[derive(Debug)]
pub struct DisjunctPlan {
    /// The symbolic (parameters preserved) conjunctive form.
    pub template: Cq,
    /// Indices into the policy's view list of the views sharing at least
    /// one relation name with this disjunct — the only views the
    /// rewriting search needs to consider.
    pub view_indices: Vec<usize>,
    /// The certificate this disjunct's concrete proofs learned last
    /// (template-undecidable plans only). One slot: learning runs only
    /// after the held certificate failed to replay, and on the benchmark's
    /// workloads no disjunct learns more than one.
    learned: Option<Box<Certificate>>,
}

impl DisjunctPlan {
    /// The learned certificate, if any.
    pub(crate) fn learned(&self) -> Option<&Certificate> {
        self.learned.as_deref()
    }

    /// The certificate a concrete proof of this disjunct teaches it: `rw`
    /// proved `inst` (this disjunct under `bindings`) over `facts`.
    ///
    /// Each constant of `rw` that equals exactly one binding's value
    /// becomes that binding's parameter, and the symbolic expansion is
    /// recomputed over the candidate views. The certificate is returned
    /// only if it replays for the request that found it. A value two
    /// bindings share is ambiguous, and nothing is learned.
    pub(crate) fn learn(
        &self,
        checker: &ComplianceChecker,
        inst: &Cq,
        rw: &Cq,
        bindings: &[(String, Value)],
        facts: &[Atom],
    ) -> Option<Certificate> {
        let mut rewriting = rw.clone();
        for (name, value) in bindings {
            let lifted = const_to_param(&rewriting, value, name);
            if lifted == rewriting {
                continue; // the rewriting does not mention this value
            }
            if bindings.iter().any(|(n, v)| n != name && v == value) {
                return None;
            }
            rewriting = lifted;
        }
        let views = checker.policy().symbolic_subset(&self.view_indices);
        let expansion = qlogic::expand(&rewriting, &views).ok()?;
        checker.replay_certificate(
            inst,
            rewriting.instantiate(bindings),
            &expansion.instantiate(bindings),
            facts,
        )?;
        Some(Certificate {
            rewriting,
            expansion: Some(expansion),
        })
    }
}

/// A per-disjunct compliance certificate, compiled into a template-allowed
/// plan or learned by a template-undecidable one (`DisjunctPlan::learn`):
/// the symbolic rewriting over the policy views *and its expansion over
/// the view definitions*, both precomputed so a concrete replay needs
/// no view instantiation, no normalization, and no expansion — it
/// instantiates the two stored queries and checks mutual containment
/// against the instantiated disjunct.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The rewriting over the views (what decisions surface as their
    /// compliance certificate).
    pub rewriting: Cq,
    /// `expand(rewriting)` over the symbolic views. `None` when the
    /// disjunct was proved by unsatisfiability (the "rewriting" is the
    /// disjunct itself, which has no view expansion); replay then relies
    /// on the concrete unsatisfiability check alone.
    pub expansion: Option<Cq>,
}

/// The template-level verdict compiled into a plan.
#[derive(Debug, Clone)]
pub enum TemplateVerdict {
    /// Proven compliant with parameters symbolic: valid for every session
    /// and history. Carries the per-disjunct certificates.
    Allowed(Vec<Certificate>),
    /// Not decidable at template level (or outside the fragment); every
    /// request needs a concrete check.
    Undecidable,
}

/// The compiled body of a `SELECT` template.
#[derive(Debug)]
pub struct SelectPlan {
    /// The parsed query, executed as is with its parameters read from the
    /// bindings.
    pub query: Query,
    /// The parameters `query` mentions, each once, in the order
    /// [`sqlir::bind_statement`] resolves them.
    pub params: Vec<Param>,
    /// The UCQ translation with pruned candidate views, or the
    /// out-of-fragment message replayed as the deny reason per request.
    pub translation: Result<Vec<DisjunctPlan>, String>,
    /// The template-level verdict: `Allowed` decides every request, and
    /// `Undecidable` sends each one to the concrete tier. A plan compiled
    /// with `attempt_template` off holds `Undecidable`.
    pub template: TemplateVerdict,
}

/// The compiled body of a row mutation (`INSERT`/`UPDATE`/`DELETE`).
#[derive(Debug)]
pub struct WritePlan {
    /// The parsed statement, executed as is with its parameters read from
    /// the bindings.
    pub stmt: Statement,
    /// The parameters `stmt` mentions, as [`SelectPlan::params`].
    pub params: Vec<Param>,
    /// The extracted write template with its session-independent verdict,
    /// or the extraction error replayed as an out-of-fragment denial per
    /// request.
    pub template: Result<WriteTemplate, String>,
}

/// What a template compiles to.
#[derive(Debug)]
pub enum PlanBody {
    /// A `SELECT` with its decision plan.
    Select(SelectPlan),
    /// A row mutation with its write-coverage plan.
    Write(WritePlan),
    /// A non-row statement (DDL pass-through).
    Other(Statement),
    /// The SQL does not parse; the message is replayed per request.
    ParseError(String),
}

/// One compiled template: everything about a SQL template that does not
/// depend on the session, the bindings, or the trace.
#[derive(Debug)]
pub struct TemplatePlan {
    hash: u64,
    id: u64,
    body: PlanBody,
    exact_only: bool,
}

impl TemplatePlan {
    /// Whether this plan, compiled from a *shape* (a text whose literals
    /// [`sqlir::lift_literals`] made parameters), cannot decide for the
    /// literal text, so the proxy decides that text by its own exact plan.
    /// Set when the shape does not parse; when its translation or write
    /// extraction fails (the error message would name a parameter where
    /// the literal text names a value); when a write shape is never
    /// covered (its denial would too); when a lifted parameter lands on a
    /// column a policy view pins to a constant
    /// ([`ComplianceChecker::is_pinned`]: with the literal, the template
    /// proof may match the view's constant); when a lifted parameter sits
    /// in a comparison (translation would have evaluated it); and when the
    /// shape keeps an integer or string constant it did not lift (a proof
    /// may use that a lifted value equals it). A plan with no lifted
    /// parameter is never exact-only, except for a parse error.
    pub fn exact_only(&self) -> bool {
        self.exact_only
    }

    /// The 64-bit FNV-1a template hash
    /// ([`template_hash`](crate::obs::template_hash)): the plan's label in
    /// decision events. No decision reads it.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The id the [`PlanCache`] gave this plan when it inserted it (`0` for
    /// a plan compiled outside a cache). Ids are never reused, so a session
    /// cache entry keyed on one is a verdict for this plan's text alone.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The compiled body.
    pub fn body(&self) -> &PlanBody {
        &self.body
    }

    /// Keeps the certificates a concrete proof by this plan learned, by
    /// disjunct: each replaces the one its disjunct held.
    pub(crate) fn keep_learned(&mut self, learned: Vec<(usize, Certificate)>) {
        if let PlanBody::Select(SelectPlan {
            translation: Ok(ds),
            ..
        }) = &mut self.body
        {
            for (i, c) in learned {
                ds[i].learned = Some(Box::new(c));
            }
        }
    }
}

/// Compiles one template. `attempt_template` runs the symbolic
/// (session-independent) proof over the pruned candidate views; the proxy
/// passes `true`. With `false` only the parse/translate/prune work is done
/// and the verdict is `Undecidable`, which is what the concrete tier
/// assumes anyway.
///
/// `lap` receives phase boundaries so a proxy compiling on the decision
/// path can attribute the work: [`Phase::Parse`] after parsing, and
/// [`Phase::Proof`] after the symbolic proof (when attempted). Callers
/// compiling off the hot path pass a no-op.
pub fn compile_plan(
    checker: &ComplianceChecker,
    sql: &str,
    hash: u64,
    attempt_template: bool,
    lap: &mut dyn FnMut(Phase),
) -> TemplatePlan {
    let parsed = parse_statement(sql);
    lap(Phase::Parse);
    let stmt = match parsed {
        Ok(s) => s,
        Err(e) => {
            return TemplatePlan {
                hash,
                id: 0,
                body: PlanBody::ParseError(e.to_string()),
                exact_only: true,
            }
        }
    };
    let params = params_in_bind_order(&stmt);
    // Only a shape names lifted parameters: a text that names one itself
    // is never lifted.
    let lifts = params
        .iter()
        .any(|p| matches!(p, Param::Named(n) if is_lifted_name(n)));
    let query = match stmt {
        Statement::Select(q) => q,
        stmt @ (Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)) => {
            let template = crate::write::compile_write_template(
                &stmt,
                checker.policy().views(),
                checker.schema(),
            );
            lap(Phase::Proof);
            let exact_only = lifts
                && template.as_ref().map_or(true, |t| {
                    t.verdict == WriteTemplateVerdict::NeverCovered
                        || t.atoms.iter().any(|a| lifts_unfaithfully(checker, a))
                });
            return TemplatePlan {
                hash,
                id: 0,
                body: PlanBody::Write(WritePlan {
                    stmt,
                    template,
                    params,
                }),
                exact_only,
            };
        }
        stmt => {
            return TemplatePlan {
                hash,
                id: 0,
                body: PlanBody::Other(stmt),
                exact_only: false,
            }
        }
    };

    let translation = match (checker.translate(&query), checker.symbolic_views()) {
        (Ok(ucq), Ok(symbolic)) => Ok(ucq
            .disjuncts
            .into_iter()
            .map(|d| {
                let view_indices = candidate_view_indices(&d, &symbolic);
                DisjunctPlan {
                    template: d,
                    view_indices,
                    learned: None,
                }
            })
            .collect::<Vec<_>>()),
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    };
    let exact_only = lifts
        && translation.as_ref().map_or(true, |ds| {
            !ds.iter().all(|d| lifts_faithfully(checker, &d.template))
        });

    let template = if attempt_template {
        match &translation {
            Ok(disjuncts) => {
                let mut certs = Vec::with_capacity(disjuncts.len());
                let mut verdict = None;
                for d in disjuncts {
                    let views = checker.policy().symbolic_subset(&d.view_indices);
                    match checker.prove_disjunct(&d.template, &views, &[]) {
                        Some(rw) => {
                            let expansion = qlogic::expand(&rw, &views).ok();
                            certs.push(Certificate {
                                rewriting: rw,
                                expansion,
                            });
                        }
                        None => {
                            verdict = Some(TemplateVerdict::Undecidable);
                            break;
                        }
                    }
                }
                let v = verdict.unwrap_or(TemplateVerdict::Allowed(certs));
                lap(Phase::Proof);
                v
            }
            // Outside the fragment: the symbolic proof cannot run; the
            // concrete path replays the typed denial.
            Err(_) => TemplateVerdict::Undecidable,
        }
    } else {
        TemplateVerdict::Undecidable
    };

    TemplatePlan {
        hash,
        id: 0,
        body: PlanBody::Select(SelectPlan {
            query,
            params,
            translation,
            template,
        }),
        exact_only,
    }
}

/// `true` for a parameter [`sqlir::lift_literals`] minted.
fn is_lifted(t: &Term) -> bool {
    matches!(t, Term::Param(p) if is_lifted_name(p.as_str()))
}

/// `true` for an integer or string constant: in a shape, one the text did
/// not lift (a literal left of its operator, or negated), which a lifted
/// value could equal.
fn is_unlifted(t: &Term) -> bool {
    matches!(t, Term::Const(CVal::Int(_) | CVal::Str(_)))
}

/// Whether a shape's atom cannot stand for the literal text's: it puts a
/// lifted parameter on a pinned column, or holds an unlifted constant.
fn lifts_unfaithfully(checker: &ComplianceChecker, atom: &Atom) -> bool {
    (atom.args.iter().enumerate())
        .any(|(i, t)| is_unlifted(t) || (is_lifted(t) && checker.is_pinned(atom.relation, i)))
}

/// Whether a shape's disjunct, once its lifted parameters are bound, is
/// exactly the disjunct the literal text translates to, and proves as it
/// does. Translation evaluates comparisons between constants and
/// deduplicates equal atoms, but leaves parameters symbolic; and a proof
/// may use that two constants are equal, where the shape's parameters are
/// distinct symbols. So a lifted parameter may sit only in atoms, on no
/// pinned column, and no unlifted constant may sit anywhere a lifted value
/// could equal it. (Lifted values equal to each other are the proxy's to
/// refuse: it decides such a statement by its exact text.)
fn lifts_faithfully(checker: &ComplianceChecker, d: &Cq) -> bool {
    !(d.comparisons.iter()).any(|c| {
        [c.lhs, c.rhs]
            .iter()
            .any(|t| is_lifted(t) || is_unlifted(t))
    }) && !d.atoms.iter().any(|a| lifts_unfaithfully(checker, a))
}

/// Compiled templates a proxy's cache retains before SIEVE eviction (the
/// byte budget, [`crate::ProxyConfig::plan_budget_bytes`], binds first only
/// for unusually large plans).
pub const PLAN_CAPACITY: usize = 1024;

/// Cache of compiled template plans, keyed by their SQL text, with bounded
/// count *and* bytes (SIEVE eviction, scan-resistant). A lookup hashes the
/// text and compares it, allocating nothing.
#[derive(Debug)]
pub struct PlanCache {
    plans: BoundedCache<String, TemplatePlan>,
    /// The id the next plan inserted is given.
    next_id: u64,
}

impl PlanCache {
    /// Creates a cache bounded by `capacity` templates and `budget_bytes`
    /// resident bytes (`0` = count-bounded only).
    pub fn with_budget(capacity: usize, budget_bytes: usize) -> PlanCache {
        PlanCache {
            plans: BoundedCache::new(capacity.max(1), budget_bytes),
            next_id: 1,
        }
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// `true` when no template is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Lifetime count of evicted plans.
    pub fn evicted_plans(&self) -> u64 {
        self.plans.evicted_total()
    }

    /// The cached plan for the template `sql`, if present. A hit counts as
    /// a use for eviction; a miss inserts nothing.
    pub fn get(&self, sql: &str) -> Option<&TemplatePlan> {
        self.plans.get(sql)
    }

    /// [`PlanCache::get`] for a statement to decide by and write back to.
    /// Not a use: the lookup that resolved the plan counted.
    pub(crate) fn get_mut(&mut self, sql: &str) -> Option<&mut TemplatePlan> {
        self.plans.get_mut(sql)
    }

    /// The plan for the template `sql`, which `checker` compiles from `sql`
    /// itself on a miss ([`compile_plan`], template proof attempted, its
    /// phase boundaries sent to `lap`), so no plan is filed under another
    /// text: `(plan, built)`, where `built` says this call compiled it. A
    /// plan just compiled gets the next id and is not yet a use for
    /// eviction.
    pub fn get_or_compile(
        &mut self,
        checker: &ComplianceChecker,
        sql: &str,
        lap: &mut dyn FnMut(Phase),
    ) -> (&TemplatePlan, bool) {
        let built = self.plans.get(sql).is_none();
        if built {
            let plan = TemplatePlan {
                id: self.next_id,
                ..compile_plan(checker, sql, crate::obs::template_hash(sql), true, lap)
            };
            self.next_id += 1;
            let bytes = entry_heap_bytes(sql, &plan);
            self.plans.insert(sql.to_string(), plan, bytes);
        }
        let plan = self.plans.get_mut(sql).expect("found or just inserted");
        (plan, built)
    }
}

/// Heap bytes of one cache entry: its slot, its key's text `sql` and what
/// the plan owns. The parsed [`Statement`] is opaque to this crate, so it
/// is approximated by the template's source text (an AST over interned
/// operators is the same order of magnitude as its source); everything
/// else — translation CQs, candidate-view lists, certificates — is counted
/// exactly from vector capacities.
fn entry_heap_bytes(sql: &str, plan: &TemplatePlan) -> usize {
    use crate::mem::cq_heap_bytes;
    use std::mem::size_of;
    let params_bytes = |params: &Vec<Param>| {
        let names = params.iter().map(|p| match p {
            Param::Named(n) => n.capacity(),
            Param::Positional(_) => 0,
        });
        params.capacity() * size_of::<Param>() + names.sum::<usize>()
    };
    let mut b = size_of::<(String, TemplatePlan)>() + sql.len();
    match &plan.body {
        PlanBody::ParseError(m) => b += m.capacity(),
        PlanBody::Other(_) => b += sql.len(),
        PlanBody::Write(wp) => {
            b += sql.len() + params_bytes(&wp.params); // Statement approximated
            match &wp.template {
                Ok(t) => b += t.heap_bytes(),
                Err(m) => b += m.capacity(),
            }
        }
        PlanBody::Select(sp) => {
            b += sql.len() + params_bytes(&sp.params); // Statement approximated
            match &sp.translation {
                Ok(ds) => {
                    b += ds.capacity() * size_of::<DisjunctPlan>();
                    for d in ds {
                        b += cq_heap_bytes(&d.template)
                            + d.view_indices.capacity() * size_of::<usize>();
                        if let Some(c) = d.learned() {
                            b += size_of::<Certificate>() + certificate_heap_bytes(c);
                        }
                    }
                }
                Err(m) => b += m.capacity(),
            }
            if let TemplateVerdict::Allowed(certs) = &sp.template {
                b += certs.capacity() * size_of::<Certificate>();
                b += certs.iter().map(certificate_heap_bytes).sum::<usize>();
            }
        }
    }
    b
}

/// Heap bytes a certificate owns: its rewriting and expansion.
fn certificate_heap_bytes(c: &Certificate) -> usize {
    use crate::mem::cq_heap_bytes;
    cq_heap_bytes(&c.rewriting) + c.expansion.as_ref().map(cq_heap_bytes).unwrap_or(0)
}

impl crate::mem::HeapUsage for PlanCache {
    /// Walks every entry: its slot, its key and each compiled plan's
    /// translation and certificates, learned ones included (which the
    /// cache's byte weights, taken at insert, do not see).
    fn heap_bytes(&self) -> usize {
        (self.plans.iter())
            .map(|(sql, plan)| entry_heap_bytes(sql, plan))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::template_hash;
    use crate::policy::Policy;
    use qlogic::RelSchema;

    fn checker() -> ComplianceChecker {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s.add_table("Lonely", ["X"]);
        let policy = Policy::from_sql(
            &s,
            &[
                ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
                (
                    "V2",
                    "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                     WHERE a.UId = ?MyUId",
                ),
                ("VL", "SELECT X FROM Lonely"),
            ],
        )
        .unwrap();
        ComplianceChecker::new(s, policy)
    }

    fn select(plan: &TemplatePlan) -> &SelectPlan {
        match plan.body() {
            PlanBody::Select(s) => s,
            other => panic!("expected a select body, got {other:?}"),
        }
    }

    fn compile(c: &ComplianceChecker, sql: &str, attempt: bool) -> TemplatePlan {
        compile_plan(c, sql, template_hash(sql), attempt, &mut |_| {})
    }

    #[test]
    fn select_plan_prunes_candidate_views() {
        let c = checker();
        let plan = compile(&c, "SELECT * FROM Events WHERE EId = ?e", true);
        let select = select(&plan);
        let disjuncts = select.translation.as_ref().expect("in fragment");
        assert_eq!(disjuncts.len(), 1);
        // Only V2 mentions Events; V1 (Attendance) and VL (Lonely) prune.
        assert_eq!(disjuncts[0].view_indices, vec![1]);
        assert!(matches!(select.template, TemplateVerdict::Undecidable));
    }

    #[test]
    fn template_allowed_plan_carries_certificates() {
        let c = checker();
        let plan = compile(&c, "SELECT EId FROM Attendance WHERE UId = ?MyUId", true);
        let select = select(&plan);
        match &select.template {
            TemplateVerdict::Allowed(certs) => {
                assert_eq!(certs.len(), 1);
                assert!(
                    certs[0].expansion.is_some(),
                    "view rewriting carries its precompiled expansion"
                );
            }
            other => panic!("expected template-allowed, got {other:?}"),
        }
    }

    #[test]
    fn a_disjunct_learns_one_unambiguous_certificate_that_replays() {
        use crate::trace::{Observation, Trace};
        let c = checker();
        let mut plan = compile(&c, "SELECT * FROM Events WHERE EId = ?e", true);
        let d = &select(&plan).translation.as_ref().unwrap()[0];
        let bound = [
            ("MyUId".to_string(), Value::Int(1)),
            ("e".into(), Value::Int(2)),
        ];
        let mut trace = Trace::new();
        let seen = c
            .translate(&sqlir::parse_query("SELECT EId FROM Attendance WHERE UId = 1").unwrap())
            .unwrap()
            .disjuncts
            .remove(0);
        trace.record(seen, Observation::Rows(vec![vec![Value::Int(2)]]));
        let inst = d.template.instantiate(&bound);
        let views = c.policy().instantiate_subset(&d.view_indices, &bound);
        let rw = c
            .prove_disjunct(&inst, &views, trace.facts())
            .expect("allowed");
        // Without the trace fact the certificate does not replay, so it is
        // not learned.
        assert!(d.learn(&c, &inst, &rw, &bound, &[]).is_none());
        // A value two bindings share is ambiguous.
        let shared = [
            bound[0].clone(),
            ("f".into(), Value::Int(1)),
            bound[1].clone(),
        ];
        assert!(d.learn(&c, &inst, &rw, &shared, trace.facts()).is_none());
        // The proof with its values lifted back to parameters is learned,
        // with its expansion; learning writes nothing into the plan...
        let learned = d.learn(&c, &inst, &rw, &bound, trace.facts());
        let learned = learned.expect("learned");
        assert!(learned.rewriting.params().contains(&"e".into()));
        assert!(learned.expansion.is_some());
        assert!(d.learned().is_none());
        let renamed = [bound[0].clone(), ("e2".into(), Value::Int(2))];
        let next = d.learn(&c, &inst, &rw, &renamed, trace.facts());
        // ...keeping it does, and the next one kept replaces it.
        let held = |plan: &TemplatePlan| {
            let d = &select(plan).translation.as_ref().unwrap()[0];
            d.learned().expect("kept").rewriting.params()
        };
        plan.keep_learned(vec![(0, learned)]);
        assert!(held(&plan).contains(&"e".into()));
        plan.keep_learned(vec![(0, next.expect("learned"))]);
        assert!(held(&plan).contains(&"e2".into()));
    }

    #[test]
    fn template_proof_skipped_when_disabled() {
        let c = checker();
        let plan = compile(&c, "SELECT EId FROM Attendance WHERE UId = ?MyUId", false);
        assert!(matches!(
            select(&plan).template,
            TemplateVerdict::Undecidable
        ));
    }

    #[test]
    fn parse_error_and_dml_bodies() {
        let c = checker();
        assert!(matches!(
            compile(&c, "SELEC whoops", true).body(),
            PlanBody::ParseError(_)
        ));
        match compile(&c, "DELETE FROM Events WHERE EId = 1", true).body() {
            // Events appears in no view with a deletable shape pinned to
            // the session: Title/Kind are fresh post-extraction and V2
            // joins through Attendance.
            PlanBody::Write(wp) => {
                let t = wp.template.as_ref().expect("extractable");
                assert_eq!(t.atoms.len(), 1);
            }
            other => panic!("expected write body, got {other:?}"),
        }
        assert!(matches!(
            compile(&c, "CREATE TABLE Scratch (A INT PRIMARY KEY)", true).body(),
            PlanBody::Other(_)
        ));
    }

    #[test]
    fn write_plan_carries_template_verdict() {
        use crate::write::WriteTemplateVerdict;
        let c = checker();
        let verdict = |sql: &str| match compile(&c, sql, true).body() {
            PlanBody::Write(wp) => wp.template.as_ref().expect("extractable").verdict,
            other => panic!("expected write body, got {other:?}"),
        };
        // Deleting one's own attendance: V1's body atom unifies directly
        // (EId/Notes are undetermined), no remaining atoms — allowed for
        // every session.
        assert_eq!(
            verdict("DELETE FROM Attendance WHERE UId = ?MyUId"),
            WriteTemplateVerdict::Allowed
        );
        // Inserting with a known Notes value: V1 hides Notes, and V2's
        // Events join can only be discharged by trace facts — concrete.
        assert_eq!(
            verdict("INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, ?e, ?n)"),
            WriteTemplateVerdict::Undecidable
        );
    }

    #[test]
    fn out_of_fragment_translation_is_replayable() {
        let c = checker();
        let plan = compile(&c, "SELECT COUNT(*) FROM Events", true);
        let select = select(&plan);
        assert!(select.translation.is_err());
        assert!(matches!(select.template, TemplateVerdict::Undecidable));
    }

    #[test]
    fn a_cached_plan_compiles_once() {
        let mut cache = PlanCache::with_budget(64, 0);
        let c = checker();
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let (plan, built) = cache.get_or_compile(&c, sql, &mut |_| {});
        assert!(built);
        let id = plan.id();
        let mut laps = 0;
        let (again, built) = cache.get_or_compile(&c, sql, &mut |_| laps += 1);
        assert!(!built, "second lookup reuses the compiled plan");
        assert_eq!(again.id(), id);
        assert_eq!(laps, 0, "a hit compiles nothing");
        assert_eq!(cache.get(sql).unwrap().id(), id);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_plan_is_filed_under_the_text_it_was_compiled_from() {
        let mut cache = PlanCache::with_budget(64, 0);
        let c = checker();
        for sql in [
            "SELECT EId FROM Attendance WHERE UId = ?MyUId",
            "SELECT * FROM Events WHERE EId = ?e",
            "DELETE FROM Events WHERE EId = 1",
            "SELEC whoops",
        ] {
            fill(&mut cache, &c, sql);
            assert_eq!(cache.get(sql).expect("filed").hash(), template_hash(sql));
        }
    }

    /// Compiles `sql` into `cache` unless it is there.
    fn fill(cache: &mut PlanCache, c: &ComplianceChecker, sql: &str) -> bool {
        cache.get_or_compile(c, sql, &mut |_| {}).1
    }

    #[test]
    fn capacity_bounds_the_cache_with_sieve_eviction() {
        // Retained templates never exceed the capacity, and re-asking for
        // an evicted template recompiles it. With no hits between inserts
        // every entry is unvisited, so the hand takes the oldest each time
        // (FIFO degenerate case).
        let mut cache = PlanCache::with_budget(4, 0);
        let c = checker();
        let sqls: Vec<String> = (0..200)
            .map(|i| format!("SELECT * FROM Events WHERE EId = {i}"))
            .collect();
        for sql in &sqls {
            fill(&mut cache, &c, sql);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evicted_plans(), 196);
        assert!(cache.get(&sqls[199]).is_some());
        assert!(cache.get(&sqls[195]).is_none());
        let recompiled = fill(&mut cache, &c, &sqls[0]);
        assert!(recompiled, "an evicted template recompiles");
        // Under an id no plan has had: 200 were given out before it.
        assert_eq!(cache.get(&sqls[0]).unwrap().id(), 201);
    }

    #[test]
    fn byte_budget_bounds_resident_plans() {
        use crate::mem::HeapUsage;
        // A tiny byte budget with a huge count capacity: the budget alone
        // bounds residency, and the eviction count reports it.
        let mut cache = PlanCache::with_budget(1_000_000, 8 * 1024);
        let c = checker();
        for i in 0..200 {
            let sql = format!("SELECT * FROM Events WHERE EId = {i}");
            fill(&mut cache, &c, &sql);
        }
        let evicted = cache.evicted_plans();
        assert!(evicted > 0, "budget must force evictions");
        assert_eq!(cache.len() as u64, 200 - evicted);
        // Each plan is weighed exactly when it is inserted, and none has
        // learned a certificate since, so the walk is the budgeted sum.
        let walked = cache.heap_bytes();
        assert!(walked <= 8 * 1024, "heap bytes {walked} over budget");
    }

    #[test]
    fn frequently_hit_plans_survive_one_shot_scans() {
        let mut cache = PlanCache::with_budget(2, 0);
        let c = checker();
        let hot = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        fill(&mut cache, &c, hot);
        for i in 0..400 {
            assert!(cache.get(hot).is_some(), "hot plan evicted at scan {i}");
            let sql = format!("SELECT * FROM Events WHERE EId = {i}");
            fill(&mut cache, &c, &sql);
        }
        assert!(cache.get(hot).is_some(), "scan-resistance violated");
    }
}
