//! The decision, apart from its effects.
//!
//! The paper's checker (§2.2) is a function of three things: the query,
//! the policy and the session's trace. Enforcement is that function
//! followed by two effects: run the statement, and record what it
//! returned. [`decide`] is the function. It reads a compiled plan, the
//! bindings and a [`SessionState`], and returns an [`Outcome`]: the
//! verdict, which tier reached it, and what the session caches and the
//! plan should remember. An allowed verdict is a [`Permit`] carrying the
//! plan's statement: the only way the statement reaches the database
//! ([`crate::door`]). [`observe`] turns an allowed read's rows into a trace
//! record, and [`SessionState::apply`] writes both into the session.
//!
//! Nothing here touches the database, a clock, a metric, the journal or
//! the plan: phase boundaries leave through a `lap` callback, and the proxy
//! (`SqlProxy::execute`) runs the permit, applies, counts and writes back
//! what was learned. The proxy holds one lock from the session's sync
//! through that write-back, so a session or a plan changes only between
//! statements, never between a decision and its write-back.

use std::mem::{size_of, size_of_val};

use minidb::Rows;
use qlogic::{Atom, Cq};
use sqlir::{lookup, unbound_error, Param, Statement, Value};

use crate::cache::BoundedCache;
use crate::checker::ComplianceChecker;
use crate::decision::DenyReason;
use crate::door::Permit;
use crate::mem::{bindings_heap_bytes, cq_heap_bytes, value_heap_bytes, HeapUsage};
use crate::obs::{CacheTier, Phase};
use crate::plan::{Certificate, PlanBody, SelectPlan, TemplateVerdict, WritePlan};
use crate::trace::Trace;
use crate::write::WriteTemplateVerdict;

/// One application session (a logged-in user). The proxy keeps every
/// session behind its one state lock, which a statement holds from the
/// session's sync to its write-back: a session's statements run one at a
/// time, in order.
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    /// Policy-parameter bindings, one per name (sessions never rebind,
    /// and a request may not either); a statement reads them in place.
    pub(crate) bindings: Vec<(String, Value)>,
    pub(crate) trace: Trace,
    /// Allowals, keyed by the plan and the values the decision read
    /// ([`ConcreteKey`]); SIEVE-bounded.
    pub(crate) allowed_cache: BoundedCache<ConcreteKey, ()>,
    /// Denials, keyed as the allowals, all proved at the trace's
    /// current fact-set *version*: more facts can flip a denial, so the
    /// tier is emptied whenever the version moves (a record, compaction or
    /// revocation). The stored reason is replayed on a hit, so diagnosis
    /// consumers see the disjunct or written row that failed. Its `Cq`
    /// byte weight, and its key's, is counted at insert, so `HeapUsage` and
    /// the byte budget both see it.
    pub(crate) denied_cache: BoundedCache<ConcreteKey, DenyReason>,
    /// The store's write epoch at the last sync ([`crate::door`]): the
    /// trace holds no fact over a table written before it.
    pub(crate) synced: u64,
}

impl SessionState {
    /// A session with an empty trace; each concrete-cache tier gets half of
    /// `cache_budget_bytes` (0 = unbounded). Of bindings sharing a name,
    /// only the first is kept: the checker would read the first, and the
    /// database the last.
    pub(crate) fn new(
        mut bindings: Vec<(String, Value)>,
        cache_budget_bytes: usize,
    ) -> SessionState {
        for i in (1..bindings.len()).rev() {
            if bindings[..i].iter().any(|(n, _)| *n == bindings[i].0) {
                bindings.remove(i);
            }
        }
        let per_tier = cache_budget_bytes / 2;
        SessionState {
            bindings,
            trace: Trace::new(),
            allowed_cache: BoundedCache::new(0, per_tier),
            denied_cache: BoundedCache::new(0, per_tier),
            synced: 0,
        }
    }

    /// Brings the session to write epoch `epoch`: its trace revokes what it
    /// knew about each table `written` since the last sync, and if that
    /// dropped anything, every remembered verdict goes too — an allow is
    /// monotone in the facts only while they grow, and the revocation moved
    /// the trace version every denial was proved at.
    pub(crate) fn sync(&mut self, epoch: u64, written: &[&str]) {
        if self.trace.revoke(written) {
            self.allowed_cache = BoundedCache::new(0, self.allowed_cache.budget_bytes());
            self.denied_cache = BoundedCache::new(0, self.denied_cache.budget_bytes());
        }
        self.synced = epoch;
    }

    /// Heap bytes owned by this state: the binding list, the trace, and
    /// both concrete caches (structural tables plus the entries' byte
    /// weights, deny-cache counterexample CQs included). The trace is
    /// walked.
    pub(crate) fn heap_bytes(&self) -> usize {
        bindings_heap_bytes(&self.bindings)
            + self.trace.heap_bytes()
            + self.allowed_cache.heap_bytes()
            + self.denied_cache.heap_bytes()
    }

    /// Writes one statement's effects into the session: the remembered
    /// verdict (then laps [`Phase::ConcreteLookup`]), and an allowed read's
    /// observation (then laps [`Phase::TraceRecord`]). The proxy applies
    /// under the lock the statement was synced and decided under, so no
    /// revocation lands in between. Returns the entries the allow and the
    /// deny cache evicted, in that order.
    pub(crate) fn apply(
        &mut self,
        remember: Option<Remember>,
        record: Option<(Cq, &[Vec<Value>])>,
        lap: &mut dyn FnMut(Phase),
    ) -> [usize; 2] {
        let mut evicted = [0; 2];
        if let Some(remember) = remember {
            evicted = match remember {
                Remember::Allow(key) => {
                    let bytes = entry_bytes::<()>(&key, 0);
                    [self.allowed_cache.insert(key, (), bytes).len(), 0]
                }
                Remember::Deny { key, reason } => {
                    let bytes = deny_entry_bytes(&key, &reason);
                    [0, self.denied_cache.insert(key, reason, bytes).len()]
                }
            };
            lap(Phase::ConcreteLookup);
        }
        if let Some((query, rows)) = record {
            // Compaction keeps the trace O(distinct information):
            // decision-invisible (the fact set stays logically equivalent),
            // and any removal moves the trace version, which empties the
            // deny tier. A repeated observation changes nothing, the
            // version included (`Trace`, "Repeats").
            let version = self.trace.version();
            self.trace.record_rows(query, rows, true);
            if self.trace.version() != version {
                self.denied_cache = BoundedCache::new(0, self.denied_cache.budget_bytes());
            }
            lap(Phase::TraceRecord);
        }
        evicted
    }
}

/// Accounted weight of one concrete-cache entry holding a `V` that owns
/// `value_heap` bytes: the slot, plus the key's heap twice (the table and
/// the SIEVE ring each hold a copy of the key).
fn entry_bytes<V>(key: &ConcreteKey, value_heap: usize) -> usize {
    size_of::<(ConcreteKey, V)>() + 2 * key.heap_bytes() + value_heap
}

/// Accounted weight of one deny-cache entry: [`entry_bytes`] with the
/// stored counterexample CQ's heap bytes (interned-id vectors — invisible
/// to a capacity-only walk, so it must ride on the entry weight).
fn deny_entry_bytes(key: &ConcreteKey, reason: &DenyReason) -> usize {
    let query = match reason {
        DenyReason::NotDetermined { query } | DenyReason::WriteNotCovered { query } => {
            cq_heap_bytes(query)
        }
        DenyReason::OutOfFragment(_) | DenyReason::ParseError(_) => 0,
    };
    entry_bytes::<DenyReason>(key, query)
}

/// The session-cache key of one (plan, bindings) pair: the plan's id
/// ([`TemplatePlan::id`](crate::plan::TemplatePlan::id), which no other
/// plan ever has) and, compared exactly, the value or the absence of each
/// parameter the decision can read. The order is fixed by the plan: its
/// statement's parameters (lifted ones included), then each policy-view
/// parameter the statement does not name. A concrete decision reads no
/// other binding: the statement's instantiation reads its own parameters,
/// and the views (`instantiate_subset`, a certificate's expansion,
/// `check_write_concrete`) read theirs. So a binding nothing reads leaves
/// the key alone, and binding order never splits an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ConcreteKey {
    plan: u64,
    values: Box<[Option<Value>]>,
}

impl ConcreteKey {
    /// The key of plan `plan`, whose statement names `params`, under a
    /// policy whose views name `view_params`. Each name occurs once in
    /// `bindings` (session bindings are deduplicated, and a merge replaces).
    pub(crate) fn new(
        plan: u64,
        params: &[Param],
        view_params: &[Param],
        bindings: &[(String, Value)],
    ) -> ConcreteKey {
        let views = view_params.iter().filter(|p| !params.contains(p));
        let values = (params.iter().chain(views))
            .map(|p| lookup(bindings, p).cloned())
            .collect();
        ConcreteKey { plan, values }
    }

    /// Heap bytes the key owns: its value slice and each value's own heap.
    fn heap_bytes(&self) -> usize {
        size_of_val(&*self.values)
            + (self.values.iter().flatten())
                .map(value_heap_bytes)
                .sum::<usize>()
    }
}

/// What a compiled plan asks of the proxy.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind<'p> {
    /// A `SELECT`, decided by the read tiers.
    Read(&'p SelectPlan),
    /// An enforced row mutation, decided by the write tiers.
    Write(&'p WritePlan),
    /// A mutation with enforcement off, or DDL: it writes no rows a policy
    /// covers, so it runs undecided. Carries the parameters it names.
    Passthrough(&'p Statement, &'p [Param]),
    /// Text that did not parse; carries the parser's message.
    Malformed(&'p str),
}

impl<'p> Kind<'p> {
    pub(crate) fn of(body: &'p PlanBody, enforce_writes: bool) -> Kind<'p> {
        match body {
            PlanBody::Select(sp) => Kind::Read(sp),
            PlanBody::Write(wp) if enforce_writes => Kind::Write(wp),
            PlanBody::Write(wp) => Kind::Passthrough(&wp.stmt, &wp.params),
            PlanBody::Other(stmt) => Kind::Passthrough(stmt, &[]),
            PlanBody::ParseError(msg) => Kind::Malformed(msg),
        }
    }

    fn params(self) -> &'p [Param] {
        match self {
            Kind::Read(sp) => &sp.params,
            Kind::Write(wp) => &wp.params,
            Kind::Passthrough(_, params) => params,
            Kind::Malformed(_) => &[],
        }
    }
}

/// How a verdict was reached: what the counters and the decision event
/// are derived from. The default is no tier: a malformed statement, a
/// passthrough, an out-of-fragment write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Provenance {
    /// The tier that reached the verdict.
    pub(crate) tier: CacheTier,
    /// A known template-undecidable plan went straight to the concrete
    /// tier without re-proving.
    pub(crate) negative_template_hit: bool,
    /// Disjuncts a learned certificate decided.
    pub(crate) cert_replays: u32,
    /// Disjuncts that fell back to the full rewriting search.
    pub(crate) cert_fallbacks: u32,
}

impl Provenance {
    fn at(tier: CacheTier) -> Provenance {
        Provenance {
            tier,
            ..Default::default()
        }
    }
}

/// A verdict a fresh concrete proof reached, for the session caches.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Remember {
    /// Allowed: valid until the session's next revocation
    /// ([`SessionState::sync`]), since compliance is monotone in what the
    /// trace entails, and between revocations that only grows.
    Allow(ConcreteKey),
    /// Denied: valid while the trace version is unchanged.
    Deny {
        key: ConcreteKey,
        reason: DenyReason,
    },
}

/// The result of [`decide`].
#[derive(Debug)]
pub(crate) struct Outcome<'p> {
    /// An allowed statement's permit to run, or why it is blocked.
    pub(crate) verdict: Result<Permit<'p>, DenyReason>,
    pub(crate) prov: Provenance,
    /// What the session caches should learn: the verdict of a fresh
    /// concrete proof.
    pub(crate) remember: Option<Remember>,
    /// What the plan should learn, whatever the verdict: the certificates
    /// a fresh concrete proof of a read found, by disjunct.
    pub(crate) learned: Vec<(usize, Certificate)>,
}

impl<'p> Outcome<'p> {
    fn new(verdict: Result<Permit<'p>, DenyReason>, prov: Provenance) -> Outcome<'p> {
        Outcome {
            verdict,
            prov,
            remember: None,
            learned: Vec::new(),
        }
    }
}

/// Decides one statement for one session.
///
/// `plan` is the plan's id and `built` says this request
/// compiled the plan (so its template verdict is a fresh proof, not a
/// cache hit). `bindings` are the session's merged with the request's.
/// The tiers, in order:
/// 1. a statement missing a parameter is blocked with binding's message,
///    before any tier counts or caches a decision for it;
/// 2. a passthrough is allowed, and malformed text blocked;
/// 3. the template tier: the session-independent verdict compiled into
///    the plan, shared by reads and writes;
/// 4. the [`concrete`] tier, for a template-undecidable plan.
///
/// An allowed verdict is a [`Permit`] for the plan's statement.
pub(crate) fn decide<'p>(
    checker: &ComplianceChecker,
    kind: Kind<'p>,
    plan: u64,
    built: bool,
    session: &SessionState,
    bindings: &[(String, Value)],
    lap: &mut dyn FnMut(Phase),
) -> Outcome<'p> {
    let deny = |reason| Outcome::new(Err(reason), Provenance::default());
    if let Some(missing) = unbound_error(kind.params(), bindings) {
        return deny(DenyReason::ParseError(missing.to_string()));
    }
    let tier = if built {
        CacheTier::TemplateProof
    } else {
        CacheTier::TemplateCache
    };
    let template = |verdict| Outcome::new(verdict, Provenance::at(tier));
    let key = || ConcreteKey::new(plan, kind.params(), checker.view_params(), bindings);
    match kind {
        Kind::Passthrough(stmt, _) => Outcome::new(Ok(Permit::write(stmt)), Provenance::default()),
        Kind::Malformed(msg) => deny(DenyReason::ParseError(msg.to_string())),
        Kind::Read(sp) => match sp.template {
            TemplateVerdict::Allowed(_) => template(Ok(Permit::read(&sp.query))),
            TemplateVerdict::Undecidable => {
                let permit = Permit::read(&sp.query);
                let mut learned = Vec::new();
                let outcome = concrete(session, key(), built, lap, permit, |facts, prov| {
                    prove_read(checker, sp, bindings, facts, prov, &mut learned)
                });
                Outcome { learned, ..outcome }
            }
        },
        Kind::Write(wp) => match &wp.template {
            Err(msg) => deny(DenyReason::OutOfFragment(msg.clone())),
            Ok(t) => match t.verdict {
                WriteTemplateVerdict::Allowed => template(Ok(Permit::write(&wp.stmt))),
                // Permanently uncoverable, for any session or history.
                WriteTemplateVerdict::NeverCovered => {
                    let query = t
                        .uncovered_query()
                        .unwrap_or_else(|| crate::write::atom_query(&t.atoms[0]));
                    template(Err(DenyReason::WriteNotCovered { query }))
                }
                WriteTemplateVerdict::Undecidable => {
                    let permit = Permit::write(&wp.stmt);
                    concrete(session, key(), built, lap, permit, |facts, _| {
                        let views = checker.policy().views();
                        crate::write::check_write_concrete(t, views, bindings, facts)
                            .map_err(|query| DenyReason::WriteNotCovered { query })
                    })
                }
            },
        },
    }
}

/// The concrete tier, shared by reads and writes: the session's allow
/// cache, its deny cache (of the current trace version), then `prove`
/// over the session's facts, whose verdict the outcome remembers under
/// `key`. An allow carries `permit`.
fn concrete<'p>(
    session: &SessionState,
    key: ConcreteKey,
    built: bool,
    lap: &mut dyn FnMut(Phase),
    permit: Permit<'p>,
    prove: impl FnOnce(&[Atom], &mut Provenance) -> Result<(), DenyReason>,
) -> Outcome<'p> {
    // Known template-undecidable: straight to the concrete tier without
    // re-proving. Sound because the policy is immutable.
    let mut prov = Provenance {
        negative_template_hit: !built,
        ..Default::default()
    };
    if session.allowed_cache.get(&key).is_some() {
        lap(Phase::ConcreteLookup);
        prov.tier = CacheTier::SessionCache;
        return Outcome::new(Ok(permit), prov);
    }
    if let Some(reason) = session.denied_cache.get(&key) {
        lap(Phase::ConcreteLookup);
        prov.tier = CacheTier::DenyCache;
        return Outcome::new(Err(reason.clone()), prov);
    }
    lap(Phase::ConcreteLookup);
    let verdict = prove(session.trace.facts(), &mut prov);
    lap(Phase::Proof);
    prov.tier = CacheTier::ConcreteProof;
    // Only the two fact-dependent denials are cacheable; an out-of-fragment
    // denial is recomputed.
    let remember = match &verdict {
        Ok(()) => Some(Remember::Allow(key)),
        Err(reason @ (DenyReason::NotDetermined { .. } | DenyReason::WriteNotCovered { .. })) => {
            Some(Remember::Deny {
                key,
                reason: reason.clone(),
            })
        }
        Err(_) => None,
    };
    Outcome {
        remember,
        ..Outcome::new(verdict.map(|()| permit), prov)
    }
}

/// A fresh concrete proof of a read over the pruned plan, disjunct by
/// disjunct.
///
/// A certificate an earlier concrete proof taught a disjunct (in any
/// session) is replayed first: instantiate its rewriting and expansion,
/// then verify mutual containment against the instantiated disjunct over
/// *this* session's facts. Verification gates acceptance and the fallback
/// search preserves completeness, so replay only amortizes candidate
/// generation, view instantiation and expansion. What the search proves
/// is pushed onto `learned`, for the proxy to keep in the plan.
fn prove_read(
    checker: &ComplianceChecker,
    sp: &SelectPlan,
    bindings: &[(String, Value)],
    facts: &[Atom],
    prov: &mut Provenance,
    learned: &mut Vec<(usize, Certificate)>,
) -> Result<(), DenyReason> {
    let disjuncts = (sp.translation.as_ref()).map_err(|m| DenyReason::OutOfFragment(m.clone()))?;
    for (i, d) in disjuncts.iter().enumerate() {
        let inst = d.template.instantiate(bindings);
        let replayed = d.learned().and_then(|c| {
            let expansion = c.expansion.as_ref()?;
            checker.replay_certificate(
                &inst,
                c.rewriting.instantiate(bindings),
                &expansion.instantiate(bindings),
                facts,
            )
        });
        let proved = if replayed.is_some() {
            prov.cert_replays += 1;
            true
        } else {
            prov.cert_fallbacks += 1;
            let views = checker
                .policy()
                .instantiate_subset(&d.view_indices, bindings);
            let proved = checker.prove_disjunct(&inst, &views, facts);
            if let Some(rw) = &proved {
                learned.extend(d.learn(checker, &inst, rw, bindings, facts).map(|c| (i, c)));
            }
            proved.is_some()
        };
        if !proved {
            return Err(DenyReason::NotDetermined { query: inst });
        }
    }
    Ok(())
}

/// An allowed read's trace record: its one disjunct under `bindings`, and
/// the rows it returned. A union's answer does not say which disjunct
/// held, and a disjunct left with parameters says nothing definite, so
/// neither is recorded.
pub(crate) fn observe<'r>(
    sp: &SelectPlan,
    bindings: &[(String, Value)],
    rows: &'r Rows,
) -> Option<(Cq, &'r [Vec<Value>])> {
    let [d] = &sp.translation.as_ref().ok()?[..] else {
        return None;
    };
    let query = d.template.instantiate(bindings);
    (!query.has_params()).then_some((query, &rows.rows[..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::template_hash;
    use crate::plan::{compile_plan, TemplatePlan};
    use crate::policy::Policy;
    use qlogic::RelSchema;

    fn checker() -> ComplianceChecker {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        let policy = Policy::from_sql(
            &s,
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
        ComplianceChecker::new(s, policy)
    }

    fn compile(c: &ComplianceChecker, sql: &str) -> TemplatePlan {
        compile_plan(c, sql, template_hash(sql), true, &mut |_| {})
    }

    fn rows(rows: Vec<Vec<Value>>) -> Rows {
        Rows {
            columns: Vec::new(),
            rows,
        }
    }

    /// One statement through `decide`, then — if allowed and `returned` is
    /// given — `observe`, then `apply`, then the plan keeps what was
    /// learned: the proxy's order, with no database, proxy, clock or
    /// counter.
    fn step(
        c: &ComplianceChecker,
        plan: &mut TemplatePlan,
        built: bool,
        session: &mut SessionState,
        e: i64,
        returned: Option<&Rows>,
    ) -> (Result<(), DenyReason>, Provenance) {
        let bindings = [
            ("MyUId".to_string(), Value::Int(1)),
            ("e".to_string(), Value::Int(e)),
        ];
        let kind = Kind::of(plan.body(), false);
        let Outcome {
            verdict,
            prov,
            remember,
            learned,
        } = decide(c, kind, plan.id(), built, session, &bindings, &mut |_| {});
        let record = match (kind, returned) {
            (Kind::Read(sp), Some(r)) if verdict.is_ok() => observe(sp, &bindings, r),
            _ => None,
        };
        session.apply(remember, record, &mut |_| {});
        let verdict = verdict.map(|_| ());
        plan.keep_learned(learned);
        (verdict, prov)
    }

    #[test]
    fn decide_walks_every_tier_without_a_database() {
        let c = checker();
        let mut probe = compile(
            &c,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
        );
        let mut fetch = compile(&c, "SELECT * FROM Events WHERE EId = ?e");
        let mut session = SessionState::new(vec![("MyUId".into(), Value::Int(1))], 0);
        let tier = |r: &(Result<(), DenyReason>, Provenance)| (r.0.is_ok(), r.1.tier);
        let one_row = rows(vec![vec![Value::Int(1)]]);
        let event = rows(vec![vec![
            Value::Int(2),
            Value::str("standup"),
            Value::str("work"),
        ]]);

        // Template tier: the probe is allowed for every session, and its
        // row becomes a trace fact.
        let r = step(&c, &mut probe, true, &mut session, 2, Some(&one_row));
        assert_eq!(tier(&r), (true, CacheTier::TemplateProof));
        assert_eq!(session.trace.facts().len(), 1);
        // A concrete proof over that fact allows the fetch; applying the
        // outcome remembers it, and the repeat is an allow-cache hit.
        let r = step(&c, &mut fetch, true, &mut session, 2, Some(&event));
        assert_eq!(tier(&r), (true, CacheTier::ConcreteProof));
        assert!(!r.1.negative_template_hit);
        let r = step(&c, &mut fetch, false, &mut session, 2, None);
        assert_eq!(tier(&r), (true, CacheTier::SessionCache));
        assert!(r.1.negative_template_hit);

        // Event 3 is not known to be attended: denied, and the repeat is a
        // deny-cache hit replaying the same reason.
        let denied = step(&c, &mut fetch, false, &mut session, 3, None);
        assert_eq!(tier(&denied), (false, CacheTier::ConcreteProof));
        assert!(matches!(denied.0, Err(DenyReason::NotDetermined { .. })));
        let replayed = step(&c, &mut fetch, false, &mut session, 3, None);
        assert_eq!(tier(&replayed), (false, CacheTier::DenyCache));
        assert_eq!(replayed.0, denied.0);
        // A new fact moves the trace version, so the cached denial is not
        // served: a fresh proof allows, replaying the certificate the
        // first fetch's proof taught the plan.
        let version = session.trace.version();
        let r = step(&c, &mut probe, false, &mut session, 3, Some(&one_row));
        assert_eq!(tier(&r), (true, CacheTier::TemplateCache));
        assert_ne!(session.trace.version(), version);
        let r = step(&c, &mut fetch, false, &mut session, 3, None);
        assert_eq!(tier(&r), (true, CacheTier::ConcreteProof));
        assert_eq!((r.1.cert_replays, r.1.cert_fallbacks), (1, 0));
    }

    /// The values a [`ConcreteKey`] property draws from: `None` is an
    /// absent binding, and `1`, `true` and `"1"` share no type.
    fn pool(i: usize) -> Option<Value> {
        [
            None,
            Some(Value::Null),
            Some(Value::Int(1)),
            Some(Value::Bool(true)),
            Some(Value::str("1")),
        ][i]
            .clone()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Two keys are equal exactly when their plans are and every
        /// parameter the decision reads has one value (or is absent in
        /// both); an unread binding (`z`) and binding order change nothing.
        #[test]
        fn concrete_keys_are_equal_exactly_when_the_read_values_are(
            plans in (0u64..2, 0u64..2),
            drawn in proptest::collection::vec((0usize..5, 0usize..5), 5),
        ) {
            let named = |n: &str| Param::Named(n.to_string());
            let params = |plan: u64| match plan {
                0 => vec![named("a"), named("b")],
                _ => vec![named("c"), named("b")],
            };
            let view_params = [named("MyUId"), named("b")];
            let names = ["a", "b", "c", "MyUId", "z"];
            let bind = |pick: fn(&(usize, usize)) -> usize| -> Vec<(String, Value)> {
                (names.iter().zip(&drawn))
                    .filter_map(|(n, d)| Some((n.to_string(), pool(pick(d))?)))
                    .collect()
            };
            let (b1, b2) = (bind(|d| d.0), bind(|d| d.1));
            let key = |plan, b: &[(String, Value)]| {
                ConcreteKey::new(plan, &params(plan), &view_params, b)
            };
            let (k1, k2) = (key(plans.0, &b1), key(plans.1, &b2));
            let read = ["a", "b", "c", "MyUId"].iter().all(|n| {
                let p = named(n);
                let read_by = |plan| params(plan).contains(&p) || view_params.contains(&p);
                let value = |b: &[(String, Value)]| lookup(b, &p).cloned();
                !read_by(plans.0) || value(&b1) == value(&b2)
            });
            proptest::prop_assert_eq!(k1 == k2, plans.0 == plans.1 && read);
            let reversed: Vec<_> = b1.iter().rev().cloned().collect();
            proptest::prop_assert_eq!(&key(plans.0, &reversed), &k1);
        }
    }

    #[test]
    fn a_key_tells_types_and_absence_apart() {
        let read = [Param::Named("a".to_string())];
        let key = |v: Option<Value>| {
            let bindings: Vec<_> = v.into_iter().map(|v| ("a".to_string(), v)).collect();
            ConcreteKey::new(7, &read, &[], &bindings)
        };
        let keys: Vec<_> = (0..5).map(|i| key(pool(i))).collect();
        for (i, k) in keys.iter().enumerate() {
            for (j, other) in keys.iter().enumerate() {
                assert_eq!(k == other, i == j, "{:?} vs {:?}", pool(i), pool(j));
            }
        }
    }
}
