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
//! * the template-level verdict, when the proxy attempts one.
//!
//! [`PlanCache`] is the sharded, hash-keyed home of compiled plans. Its
//! double-checked insert publishes an empty [`OnceLock`] cell under a
//! brief write lock and compiles *outside* all locks: concurrent misses on
//! the same template prove once (the losers block on the cell, not on a
//! shard lock), and no lock is ever held across a proof. Distinct
//! templates colliding on the 64-bit FNV hash chain under one key and are
//! told apart by full-SQL comparison, so a collision costs a string
//! compare, never a wrong plan.

use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use qlogic::{candidate_view_indices, Cq};
use sqlir::{params_in_bind_order, parse_statement, Param, Query, Statement};

use crate::cache::BoundedCache;
use crate::checker::ComplianceChecker;
use crate::obs::{template_hash, Counter, Phase};
use crate::write::WriteTemplate;

/// Number of plan-cache shards (power of two; the shard index is the low
/// bits of the template hash, which FNV-1a mixes well).
const PLAN_SHARDS: usize = 16;

/// One disjunct of a template's UCQ translation, with the candidate views
/// that survived the relation-signature pre-filter.
#[derive(Debug, Clone)]
pub struct DisjunctPlan {
    /// The symbolic (parameters preserved) conjunctive form.
    pub template: Cq,
    /// Indices into the policy's view list of the views sharing at least
    /// one relation name with this disjunct — the only views the
    /// rewriting search needs to consider.
    pub view_indices: Vec<usize>,
}

/// A per-disjunct compliance certificate compiled into a template-allowed
/// plan: the symbolic rewriting over the policy views *and its expansion
/// over the view definitions*, both precomputed so a concrete replay needs
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
    /// The template-level verdict. The proxy always compiles it: even with
    /// the template *tier* disabled, an `Allowed` verdict's certificates
    /// feed the concrete path's verify-first replay. `None` only when a
    /// caller compiled with `attempt_template` off.
    pub template: Option<TemplateVerdict>,
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
    sql: String,
    hash: u64,
    body: PlanBody,
}

impl TemplatePlan {
    /// The template SQL this plan was compiled from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The 64-bit FNV-1a template hash ([`template_hash`]) — the plan's
    /// cache key and its identity in decision events.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The compiled body.
    pub fn body(&self) -> &PlanBody {
        &self.body
    }

    /// The select plan, if this template is a `SELECT`.
    pub fn select(&self) -> Option<&SelectPlan> {
        match &self.body {
            PlanBody::Select(s) => Some(s),
            _ => None,
        }
    }

    /// Injects a template verdict into a `SELECT` plan compiled with
    /// `attempt_template` off. Snapshot load uses this to install verdicts
    /// it has re-verified against the current policy, skipping the symbolic
    /// proof; non-`SELECT` bodies are returned unchanged.
    pub(crate) fn with_template_verdict(mut self, verdict: TemplateVerdict) -> TemplatePlan {
        if let PlanBody::Select(sp) = &mut self.body {
            sp.template = Some(verdict);
        }
        self
    }
}

/// Compiles one template. `attempt_template` runs the symbolic
/// (session-independent) proof over the pruned candidate views; the proxy
/// always passes `true` — an `Allowed` verdict doubles as the certificate
/// store for concrete-path replay — while tests pass `false` to compile
/// only the parse/translate/prune work.
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
                sql: sql.to_string(),
                hash,
                body: PlanBody::ParseError(e.to_string()),
            }
        }
    };
    let params = params_in_bind_order(&stmt);
    let query = match stmt {
        Statement::Select(q) => q,
        stmt if crate::classify::StatementClass::of(&stmt)
            == crate::classify::StatementClass::Write =>
        {
            let template = crate::write::compile_write_template(
                &stmt,
                checker.policy().views(),
                checker.schema(),
            );
            lap(Phase::Proof);
            return TemplatePlan {
                sql: sql.to_string(),
                hash,
                body: PlanBody::Write(WritePlan {
                    stmt,
                    template,
                    params,
                }),
            };
        }
        stmt => {
            return TemplatePlan {
                sql: sql.to_string(),
                hash,
                body: PlanBody::Other(stmt),
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
                }
            })
            .collect::<Vec<_>>()),
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    };

    let template = if attempt_template {
        Some(match &translation {
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
        })
    } else {
        None
    };

    TemplatePlan {
        sql: sql.to_string(),
        hash,
        body: PlanBody::Select(SelectPlan {
            query,
            params,
            translation,
            template,
        }),
    }
}

/// One cache slot: the template's SQL (for exact matching under hash
/// collisions) and the prove-once cell its plan is published through.
struct PlanEntry {
    sql: String,
    cell: Arc<OnceLock<Arc<TemplatePlan>>>,
}

struct PlanShard {
    /// Collision chains keyed by template hash: distinct templates sharing
    /// a 64-bit hash live in one bucket and are told apart by full-SQL
    /// comparison. Bounded (count and bytes) with SIEVE eviction at bucket
    /// granularity — a hit is one visited-bit store under the read lock.
    chains: BoundedCache<u64, Vec<PlanEntry>>,
    /// Total entries across all chains in this shard.
    entries: usize,
    /// Buckets holding cells published but not yet compiled: their plan
    /// bytes are unknown at insert time, so they are re-accounted on the
    /// next write-lock acquisition ("lazy" because compilation happens
    /// outside all locks).
    pending: Vec<u64>,
}

/// Compiled templates a proxy's cache retains before SIEVE eviction (the
/// byte budget, [`crate::ProxyConfig::plan_budget_bytes`], binds first only
/// for unusually large plans).
pub const PLAN_CAPACITY: usize = 1024;

/// Sharded, hash-keyed cache of compiled template plans with bounded
/// count *and* bytes (SIEVE eviction, scan-resistant) and prove-once
/// misses.
///
/// The lookup key is the 64-bit [`template_hash`] — computed without
/// allocating — and the warm path is one shard read lock plus one string
/// *comparison* (never a string allocation) plus one relaxed visited-bit
/// store. See the module docs for the insert protocol.
pub struct PlanCache {
    shards: Vec<RwLock<PlanShard>>,
    per_shard_capacity: usize,
    /// Optional eviction counter (`bep_cache_evictions_total{tier="plan"}`)
    /// bumped once per evicted template entry.
    evictions: Option<Arc<Counter>>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("capacity", &(self.per_shard_capacity * self.shards.len()))
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache retaining at most `capacity` compiled templates
    /// (rounded up to a multiple of the shard count), with no byte budget
    /// and no eviction counter.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::with_budget(capacity, 0, None)
    }

    /// Creates a cache bounded by `capacity` entries and `budget_bytes`
    /// resident bytes (`0` = count-bounded only; the budget is split evenly
    /// across shards), reporting evictions to `evictions` when given.
    pub fn with_budget(
        capacity: usize,
        budget_bytes: usize,
        evictions: Option<Arc<Counter>>,
    ) -> PlanCache {
        let per_shard_capacity = capacity.div_ceil(PLAN_SHARDS).max(1);
        let per_shard_budget = budget_bytes.div_ceil(PLAN_SHARDS);
        PlanCache {
            shards: (0..PLAN_SHARDS)
                .map(|_| {
                    RwLock::new(PlanShard {
                        // +1: BoundedCache evicts *after* insert, protecting
                        // the newcomer, so `> capacity` means at most
                        // `capacity` survivors — match the old semantics of
                        // "at most capacity retained".
                        chains: BoundedCache::new(per_shard_capacity, per_shard_budget),
                        entries: 0,
                        pending: Vec::new(),
                    })
                })
                .collect(),
            per_shard_capacity,
            evictions,
        }
    }

    fn shard(&self, hash: u64) -> &RwLock<PlanShard> {
        &self.shards[(hash as usize) & (PLAN_SHARDS - 1)]
    }

    /// Number of cached templates (including cells still being compiled).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().entries).sum()
    }

    /// `true` when no template is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of evicted template entries across all shards.
    pub fn evicted_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().chains.evicted_total())
            .sum()
    }

    /// Books evicted chains out of the shard's entry count and into the
    /// eviction counter.
    fn book_evictions(&self, s: &mut PlanShard, evicted: Vec<(u64, Vec<PlanEntry>)>) {
        for (_, chain) in evicted {
            s.entries -= chain.len();
            if let Some(c) = &self.evictions {
                c.add(chain.len() as u64);
            }
        }
    }

    /// Re-accounts buckets whose plans have compiled since insertion.
    /// Called with the shard write lock held; cheap when nothing is
    /// pending.
    fn sweep_pending(&self, s: &mut PlanShard) {
        if s.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut s.pending);
        for hash in pending {
            let Some(chain) = s.chains.peek(&hash) else {
                continue; // bucket evicted before it compiled
            };
            if chain.iter().any(|e| e.cell.get().is_none()) {
                s.pending.push(hash); // still compiling; try again later
                continue;
            }
            let bytes = chain_heap_bytes(chain);
            let evicted = s.chains.set_bytes(&hash, bytes);
            self.book_evictions(s, evicted);
        }
    }

    /// The prove-once cell for a template: `(cell, existed)`. When
    /// `existed` is false this call published a fresh empty cell and the
    /// caller is expected to `get_or_init` it (concurrent callers of
    /// `get_or_init` block on the cell — never on a shard lock — and
    /// exactly one compiles). The write lock is held only for the
    /// double-checked map insert, never across compilation.
    pub fn entry(&self, sql: &str) -> (Arc<OnceLock<Arc<TemplatePlan>>>, bool) {
        self.entry_hashed(template_hash(sql), sql)
    }

    /// [`PlanCache::entry`] with a caller-supplied hash. The proxy uses
    /// this to hash once per request; tests use it to force two distinct
    /// templates onto one hash and exercise the collision chain.
    pub fn entry_hashed(&self, hash: u64, sql: &str) -> (Arc<OnceLock<Arc<TemplatePlan>>>, bool) {
        let shard = self.shard(hash);
        {
            let s = shard.read();
            if let Some(chain) = s.chains.get(&hash) {
                if let Some(e) = chain.iter().find(|e| e.sql == sql) {
                    return (e.cell.clone(), true);
                }
            }
        }
        let mut s = shard.write();
        self.sweep_pending(&mut s);
        // Double-check: another thread may have inserted while we upgraded.
        if let Some(chain) = s.chains.get(&hash) {
            if let Some(e) = chain.iter().find(|e| e.sql == sql) {
                return (e.cell.clone(), true);
            }
        }
        let cell = Arc::new(OnceLock::new());
        let entry = PlanEntry {
            sql: sql.to_string(),
            cell: cell.clone(),
        };
        let evicted = match s.chains.get_mut(&hash) {
            Some(chain) => {
                chain.push(entry);
                let bytes = chain_heap_bytes(s.chains.peek(&hash).expect("just updated"));
                s.chains.set_bytes(&hash, bytes)
            }
            None => {
                let bytes = chain_heap_bytes(std::slice::from_ref(&entry));
                s.chains.insert(hash, vec![entry], bytes)
            }
        };
        s.entries += 1;
        s.pending.push(hash);
        self.book_evictions(&mut s, evicted);
        (cell, false)
    }

    /// Installs an already-compiled plan (warm-start snapshot load). The
    /// cell is published pre-filled, so readers never see an empty cell and
    /// nothing recompiles. A template already resident is left untouched.
    /// Returns how many entries the insertion evicted.
    pub fn insert_compiled(&self, plan: Arc<TemplatePlan>) -> usize {
        let hash = plan.hash();
        let shard = self.shard(hash);
        let mut s = shard.write();
        self.sweep_pending(&mut s);
        if let Some(chain) = s.chains.peek(&hash) {
            if chain.iter().any(|e| e.sql == plan.sql()) {
                return 0;
            }
        }
        let cell = Arc::new(OnceLock::new());
        let _ = cell.set(plan.clone());
        let entry = PlanEntry {
            sql: plan.sql().to_string(),
            cell,
        };
        let evicted = match s.chains.get_mut(&hash) {
            Some(chain) => {
                chain.push(entry);
                let bytes = chain_heap_bytes(s.chains.peek(&hash).expect("just updated"));
                s.chains.set_bytes(&hash, bytes)
            }
            None => {
                let bytes = chain_heap_bytes(std::slice::from_ref(&entry));
                s.chains.insert(hash, vec![entry], bytes)
            }
        };
        s.entries += 1;
        let n: usize = evicted.iter().map(|(_, c)| c.len()).sum();
        self.book_evictions(&mut s, evicted);
        n
    }

    /// Every fully compiled plan currently resident (a maintenance walk —
    /// does not touch visited bits). Snapshot save iterates this.
    pub fn compiled_plans(&self) -> Vec<Arc<TemplatePlan>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            for (_, chain) in s.chains.iter() {
                for e in chain {
                    if let Some(plan) = e.cell.get() {
                        out.push(plan.clone());
                    }
                }
            }
        }
        out
    }

    /// The cached plan for a template, if present and fully compiled.
    pub fn get(&self, sql: &str) -> Option<Arc<TemplatePlan>> {
        let hash = template_hash(sql);
        let s = self.shard(hash).read();
        s.chains
            .get(&hash)?
            .iter()
            .find(|e| e.sql == sql)
            .and_then(|e| e.cell.get().cloned())
    }
}

/// Accounted heap bytes of one collision chain: entry slots, template SQL,
/// and each compiled plan (uncompiled cells count their SQL only; the
/// pending sweep re-accounts them once compiled).
fn chain_heap_bytes(chain: &[PlanEntry]) -> usize {
    std::mem::size_of_val(chain)
        + chain
            .iter()
            .map(|e| {
                e.sql.capacity() + e.cell.get().map(|p| plan_heap_bytes(p)).unwrap_or_default()
            })
            .sum::<usize>()
}

/// Heap bytes owned by one compiled plan. The parsed [`Statement`] is
/// opaque to this crate, so it is approximated by the template's source
/// text (an AST over interned operators is the same order of magnitude as
/// its source); everything else — translation CQs, candidate-view lists,
/// certificates — is counted exactly from vector capacities.
pub(crate) fn plan_heap_bytes(plan: &TemplatePlan) -> usize {
    use crate::mem::cq_heap_bytes;
    use std::mem::size_of;
    let params_bytes = |params: &Vec<Param>| {
        let names = params.iter().map(|p| match p {
            Param::Named(n) => n.capacity(),
            Param::Positional(_) => 0,
        });
        params.capacity() * size_of::<Param>() + names.sum::<usize>()
    };
    let mut b = size_of::<TemplatePlan>() + plan.sql.capacity();
    match &plan.body {
        PlanBody::ParseError(m) => b += m.capacity(),
        PlanBody::Other(_) => b += plan.sql.len(),
        PlanBody::Write(wp) => {
            b += plan.sql.len() + params_bytes(&wp.params); // Statement approximated
            match &wp.template {
                Ok(t) => b += t.heap_bytes(),
                Err(m) => b += m.capacity(),
            }
        }
        PlanBody::Select(sp) => {
            b += plan.sql.len() + params_bytes(&sp.params); // Statement approximated
            match &sp.translation {
                Ok(ds) => {
                    b += ds.capacity() * size_of::<DisjunctPlan>();
                    for d in ds {
                        b += cq_heap_bytes(&d.template)
                            + d.view_indices.capacity() * size_of::<usize>();
                    }
                }
                Err(m) => b += m.capacity(),
            }
            if let Some(TemplateVerdict::Allowed(certs)) = &sp.template {
                b += certs.capacity() * size_of::<Certificate>();
                for c in certs {
                    b += cq_heap_bytes(&c.rewriting)
                        + c.expansion.as_ref().map(cq_heap_bytes).unwrap_or(0);
                }
            }
        }
    }
    b
}

impl crate::mem::HeapUsage for PlanCache {
    /// Walks every shard under its read lock: entry chains, template SQL,
    /// and each compiled plan's translation and certificates. This is the
    /// exact walk; the per-shard `BoundedCache` accounting it cross-checks
    /// may briefly lag for plans compiled but not yet swept.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = 0;
        for shard in &self.shards {
            let s = shard.read();
            total += s.pending.capacity() * size_of::<u64>();
            for (_, chain) in s.chains.iter() {
                total += chain.capacity() * size_of::<PlanEntry>();
                for e in chain {
                    total += e.sql.capacity();
                    if let Some(plan) = e.cell.get() {
                        total += plan_heap_bytes(plan);
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn compile(c: &ComplianceChecker, sql: &str, attempt: bool) -> TemplatePlan {
        compile_plan(c, sql, template_hash(sql), attempt, &mut |_| {})
    }

    #[test]
    fn select_plan_prunes_candidate_views() {
        let c = checker();
        let plan = compile(&c, "SELECT * FROM Events WHERE EId = ?e", true);
        let select = plan.select().expect("select body");
        let disjuncts = select.translation.as_ref().expect("in fragment");
        assert_eq!(disjuncts.len(), 1);
        // Only V2 mentions Events; V1 (Attendance) and VL (Lonely) prune.
        assert_eq!(disjuncts[0].view_indices, vec![1]);
        assert!(matches!(
            select.template,
            Some(TemplateVerdict::Undecidable)
        ));
    }

    #[test]
    fn template_allowed_plan_carries_certificates() {
        let c = checker();
        let plan = compile(&c, "SELECT EId FROM Attendance WHERE UId = ?MyUId", true);
        let select = plan.select().unwrap();
        match &select.template {
            Some(TemplateVerdict::Allowed(certs)) => {
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
    fn template_proof_skipped_when_disabled() {
        let c = checker();
        let plan = compile(&c, "SELECT EId FROM Attendance WHERE UId = ?MyUId", false);
        assert!(plan.select().unwrap().template.is_none());
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
        let select = plan.select().unwrap();
        assert!(select.translation.is_err());
        assert!(matches!(
            select.template,
            Some(TemplateVerdict::Undecidable)
        ));
    }

    #[test]
    fn cache_entry_is_prove_once() {
        let cache = PlanCache::new(64);
        let c = checker();
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let (cell, existed) = cache.entry(sql);
        assert!(!existed);
        let mut built = false;
        cell.get_or_init(|| {
            built = true;
            Arc::new(compile(&c, sql, true))
        });
        assert!(built);
        let (cell2, existed2) = cache.entry(sql);
        assert!(existed2);
        assert!(Arc::ptr_eq(&cell, &cell2));
        let mut rebuilt = false;
        cell2.get_or_init(|| {
            rebuilt = true;
            Arc::new(compile(&c, sql, true))
        });
        assert!(!rebuilt, "second entry reuses the compiled plan");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_misses_compile_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new(64);
        let c = checker();
        let sql = "SELECT * FROM Events WHERE EId = ?e";
        let compiles = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (cache, c, compiles) = (&cache, &c, &compiles);
                scope.spawn(move || {
                    let (cell, _) = cache.entry(sql);
                    let plan = cell
                        .get_or_init(|| {
                            compiles.fetch_add(1, Ordering::Relaxed);
                            Arc::new(compile(c, sql, true))
                        })
                        .clone();
                    assert_eq!(plan.sql(), sql);
                });
            }
        });
        assert_eq!(compiles.load(Ordering::Relaxed), 1, "one proof, 8 winners");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_cache_with_sieve_eviction() {
        // Per-shard SIEVE: total retained entries never exceed the rounded
        // capacity, and re-asking for an evicted template recompiles it.
        // With no hits between inserts every entry is unvisited, so the
        // hand takes the oldest each time (FIFO degenerate case).
        let cache = PlanCache::new(1); // rounds to 1 per shard
        let c = checker();
        let sqls: Vec<String> = (0..200)
            .map(|i| format!("SELECT * FROM Events WHERE EId = {i}"))
            .collect();
        for sql in &sqls {
            let (cell, _) = cache.entry(sql);
            cell.get_or_init(|| Arc::new(compile(&c, sql, false)));
        }
        assert!(
            cache.len() <= PLAN_SHARDS,
            "len {} exceeds capacity",
            cache.len()
        );
        assert!(cache.evicted_total() > 0);
        // The newest template of some shard is still present; the oldest
        // overall is gone and comes back as a fresh (uncompiled) cell.
        assert!(cache.get(&sqls[199]).is_some());
        let (_, existed) = cache.entry(&sqls[0]);
        assert!(!existed, "evicted template must be re-inserted");
    }

    #[test]
    fn byte_budget_bounds_resident_plans() {
        use crate::mem::HeapUsage;
        // A tiny byte budget with a huge count capacity: the budget alone
        // must bound residency, and the eviction counter must report it.
        let evictions = Arc::new(Counter::default());
        let cache = PlanCache::with_budget(1_000_000, 8 * 1024, Some(evictions.clone()));
        let c = checker();
        for i in 0..200 {
            let sql = format!("SELECT * FROM Events WHERE EId = {i}");
            let (cell, _) = cache.entry(&sql);
            cell.get_or_init(|| Arc::new(compile(&c, &sql, true)));
        }
        // Force the lazy re-accounting sweep in every shard, then check the
        // exact walk against the budget (generous slack: per-shard split,
        // one protected entry per shard, and sweep laziness).
        for i in 200..232 {
            let sql = format!("SELECT * FROM Events WHERE EId = {i}");
            let (cell, _) = cache.entry(&sql);
            cell.get_or_init(|| Arc::new(compile(&c, &sql, true)));
        }
        assert!(evictions.get() > 0, "budget must force evictions");
        assert!(
            cache.len() < 200,
            "resident count {} not bounded",
            cache.len()
        );
        let walked = cache.heap_bytes();
        assert!(
            walked < 64 * 1024,
            "heap bytes {walked} far exceed an 8 KiB budget"
        );
    }

    #[test]
    fn frequently_hit_plans_survive_one_shot_scans() {
        let cache = PlanCache::new(32); // 2 per shard
        let c = checker();
        let hot = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let (cell, _) = cache.entry(hot);
        cell.get_or_init(|| Arc::new(compile(&c, hot, false)));
        for i in 0..400 {
            assert!(cache.get(hot).is_some(), "hot plan evicted at scan {i}");
            let sql = format!("SELECT * FROM Events WHERE EId = {i}");
            let (cell, _) = cache.entry(&sql);
            cell.get_or_init(|| Arc::new(compile(&c, &sql, false)));
        }
        assert!(cache.get(hot).is_some(), "scan-resistance violated");
    }

    #[test]
    fn insert_compiled_publishes_prefilled_cell() {
        let cache = PlanCache::new(64);
        let c = checker();
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let plan = Arc::new(compile(&c, sql, true));
        assert_eq!(cache.insert_compiled(plan.clone()), 0);
        let got = cache.get(sql).expect("resident and compiled");
        assert!(Arc::ptr_eq(&got, &plan));
        let (cell, existed) = cache.entry(sql);
        assert!(existed, "no recompilation after warm install");
        assert!(cell.get().is_some());
        // Idempotent: a second install of the same template is a no-op.
        assert_eq!(cache.insert_compiled(plan), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.compiled_plans().len(), 1);
    }

    #[test]
    fn hash_collisions_fall_back_to_full_sql_comparison() {
        let cache = PlanCache::new(64);
        let c = checker();
        let a = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let b = "SELECT * FROM Events WHERE EId = ?e";
        let forced = 0xdead_beef_u64; // same hash for both templates
        let (cell_a, _) = cache.entry_hashed(forced, a);
        cell_a.get_or_init(|| Arc::new(compile(&c, a, true)));
        let (cell_b, existed_b) = cache.entry_hashed(forced, b);
        assert!(!existed_b, "colliding template is a distinct entry");
        cell_b.get_or_init(|| Arc::new(compile(&c, b, true)));
        assert!(!Arc::ptr_eq(&cell_a, &cell_b));
        assert_eq!(cell_a.get().unwrap().sql(), a);
        assert_eq!(cell_b.get().unwrap().sql(), b);
        assert_eq!(cache.len(), 2);
        // Both remain retrievable through the same forced hash.
        let (again_a, existed) = cache.entry_hashed(forced, a);
        assert!(existed);
        assert!(Arc::ptr_eq(&again_a, &cell_a));
    }
}
