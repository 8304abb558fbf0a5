//! The decision, apart from its effects.
//!
//! The paper's checker (§2.2) is a function of three things: the query,
//! the policy and the session's trace. Enforcement is that function
//! followed by two effects: run the statement, and record what it
//! returned. [`decide`] is the function. It reads a compiled plan, the
//! bindings and a [`SessionState`], and returns an [`Outcome`]: the
//! verdict, which tier reached it, and what the session caches should
//! remember. An allowed verdict is a [`Permit`] carrying the plan's
//! statement: the only way the statement reaches the database
//! ([`crate::door`]). [`observe`] turns an allowed read's rows into a trace
//! record, and [`SessionState::apply`] writes both into the session.
//!
//! Nothing here touches the database, a clock, a metric or the journal:
//! phase boundaries leave through a `lap` callback, and the proxy
//! (`SqlProxy::execute`) runs the permit, applies and counts. The proxy
//! holds one lock from the session's sync through [`SessionState::apply`],
//! so a session changes only between its statements, never between a
//! decision and its write-back.

use std::mem::size_of;

use minidb::Rows;
use qlogic::{Atom, Cq};
use sqlir::{unbound_error, Param, Statement, Value};

use crate::cache::BoundedCache;
use crate::checker::ComplianceChecker;
use crate::decision::DenyReason;
use crate::door::Permit;
use crate::mem::{bindings_heap_bytes, cq_heap_bytes, HeapUsage};
use crate::obs::{CacheTier, Phase};
use crate::plan::{PlanBody, SelectPlan, TemplateVerdict, WritePlan};
use crate::trace::Trace;
use crate::write::WriteTemplateVerdict;

/// One application session (a logged-in user). The proxy keeps every
/// session behind its one state lock, which a statement holds from the
/// session's sync to its write-back: a session's statements run one at a
/// time, in order.
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    /// Policy-parameter bindings (sessions never rebind); a statement
    /// reads them in place.
    pub(crate) bindings: Vec<(String, Value)>,
    pub(crate) trace: Trace,
    /// Allowals keyed by concrete fingerprint; SIEVE-bounded.
    pub(crate) allowed_cache: BoundedCache<ConcreteKey, ()>,
    /// Denials keyed by concrete fingerprint, stamped with the trace's
    /// fact-set *version* they were proved at (more facts can flip a
    /// denial; compaction changes the version too, so a stale stamp is
    /// never served — a plain fact count would be ambiguous once compaction
    /// can shrink the set). The stored reason is replayed on a hit, so
    /// diagnosis consumers see the disjunct or written row that failed.
    /// Its `Cq` byte weight is counted at insert, so `HeapUsage` and the
    /// byte budget both see it.
    pub(crate) denied_cache: BoundedCache<ConcreteKey, (u64, DenyReason)>,
    /// The store's write epoch at the last sync ([`crate::door`]): the
    /// trace holds no fact over a table written before it.
    pub(crate) synced: u64,
}

impl SessionState {
    /// A session with an empty trace; each concrete-cache tier gets half of
    /// `cache_budget_bytes` (0 = unbounded).
    pub(crate) fn new(bindings: Vec<(String, Value)>, cache_budget_bytes: usize) -> SessionState {
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
    /// dropped anything, every remembered allow goes too — an allow is
    /// monotone in the facts only while they grow. Stamped denials need
    /// nothing: the revocation moved the trace version.
    pub(crate) fn sync(&mut self, epoch: u64, written: &[&str]) {
        if self.trace.revoke(written) {
            let budget = self.allowed_cache.budget_bytes();
            self.allowed_cache = BoundedCache::new(0, budget);
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
    /// revocation lands in between.
    pub(crate) fn apply(
        &mut self,
        remember: Option<Remember>,
        record: Option<(Cq, &[Vec<Value>])>,
        lap: &mut dyn FnMut(Phase),
    ) -> Evicted {
        let mut evicted = Evicted::default();
        if let Some(remember) = remember {
            match remember {
                Remember::Allow(key) => {
                    evicted.allow = (self.allowed_cache)
                        .insert(key, (), size_of::<ConcreteKey>())
                        .len();
                }
                Remember::Deny { key, at, reason } => {
                    let bytes = deny_entry_bytes(&reason);
                    evicted.deny = self.denied_cache.insert(key, (at, reason), bytes).len();
                }
            }
            lap(Phase::ConcreteLookup);
        }
        if let Some((query, rows)) = record {
            // Compaction keeps the trace O(distinct information):
            // decision-invisible (the fact set stays logically equivalent),
            // and any removal bumps the trace version, so stamped denials
            // never serve stale. A repeated observation changes nothing,
            // the version included (`Trace`, "Repeats").
            self.trace.record_rows(query, rows, true);
            lap(Phase::TraceRecord);
        }
        evicted
    }
}

/// Entries one [`SessionState::apply`] evicted, per concrete-cache tier.
#[derive(Debug, Default)]
pub(crate) struct Evicted {
    pub(crate) allow: usize,
    pub(crate) deny: usize,
}

/// Accounted weight of one deny-cache entry: the slot plus the stored
/// counterexample CQ's heap bytes (interned-id vectors — invisible to a
/// capacity-only walk, so it must ride on the entry weight).
fn deny_entry_bytes(reason: &DenyReason) -> usize {
    let query = match reason {
        DenyReason::NotDetermined { query } | DenyReason::WriteNotCovered { query } => {
            cq_heap_bytes(query)
        }
        DenyReason::OutOfFragment(_) | DenyReason::ParseError(_) => 0,
    };
    size_of::<(ConcreteKey, (u64, DenyReason))>() + query
}

/// Fingerprint of one (template, bindings) pair — the session-cache key.
///
/// Three `u64`s, computed with zero allocation: the template hash, the
/// binding count, and a commutative digest of the bindings (sum and
/// sum-of-squares of each pair's FNV-1a hash), so binding *order* never
/// splits cache entries — the old string key sorted by name for the same
/// reason. The key is probabilistic where the old string key was exact,
/// but it is scoped to one session *and* one exact template hash: a wrong
/// cache answer needs two binding sets of the same session and template to
/// collide on both 64-bit digests, and the worst consequence is replaying
/// that session's own earlier decision for the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConcreteKey {
    template: u64,
    len: u64,
    sum: u64,
    sum_sq: u64,
}

/// FNV-1a over one binding: name bytes, a separator, the value's
/// discriminant, then the value's bytes. No intermediate `String`.
fn binding_hash(name: &str, v: &Value) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let step = |h: &mut u64, b: u8| {
        *h ^= b as u64;
        *h = h.wrapping_mul(PRIME);
    };
    for &b in name.as_bytes() {
        step(&mut h, b);
    }
    step(&mut h, 0);
    match v {
        Value::Null => step(&mut h, 0),
        Value::Int(i) => {
            step(&mut h, 1);
            for b in i.to_le_bytes() {
                step(&mut h, b);
            }
        }
        Value::Str(s) => {
            step(&mut h, 2);
            for &b in s.as_bytes() {
                step(&mut h, b);
            }
        }
        Value::Bool(b) => {
            step(&mut h, 3);
            step(&mut h, *b as u8);
        }
    }
    h
}

impl ConcreteKey {
    pub(crate) fn new(template: u64, bindings: &[(String, Value)]) -> ConcreteKey {
        let mut sum = 0u64;
        let mut sum_sq = 0u64;
        for (k, v) in bindings {
            let h = binding_hash(k, v);
            sum = sum.wrapping_add(h);
            sum_sq = sum_sq.wrapping_add(h.wrapping_mul(h));
        }
        ConcreteKey {
            template,
            len: bindings.len() as u64,
            sum,
            sum_sq,
        }
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
    /// Denied at trace version `at`: valid while the version is unchanged.
    Deny {
        key: ConcreteKey,
        at: u64,
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
}

impl<'p> Outcome<'p> {
    fn new(verdict: Result<Permit<'p>, DenyReason>, prov: Provenance) -> Outcome<'p> {
        Outcome {
            verdict,
            prov,
            remember: None,
        }
    }
}

/// Decides one statement for one session.
///
/// `hash` is the plan's template hash and `built` says this request
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
    hash: u64,
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
    match kind {
        Kind::Passthrough(stmt, _) => Outcome::new(Ok(Permit::write(stmt)), Provenance::default()),
        Kind::Malformed(msg) => deny(DenyReason::ParseError(msg.to_string())),
        Kind::Read(sp) => match sp.template {
            TemplateVerdict::Allowed(_) => template(Ok(Permit::read(&sp.query))),
            TemplateVerdict::Undecidable => {
                let permit = Permit::read(&sp.query);
                concrete(
                    session,
                    hash,
                    built,
                    bindings,
                    lap,
                    permit,
                    |facts, prov| prove_read(checker, sp, bindings, facts, prov),
                )
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
                    concrete(session, hash, built, bindings, lap, permit, |facts, _| {
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
/// cache, its deny cache (only at the trace version the denial was proved
/// at), then `prove` over the session's facts, whose verdict the outcome
/// remembers. An allow carries `permit`.
fn concrete<'p>(
    session: &SessionState,
    hash: u64,
    built: bool,
    bindings: &[(String, Value)],
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
    let key = ConcreteKey::new(hash, bindings);
    if session.allowed_cache.get(&key).is_some() {
        lap(Phase::ConcreteLookup);
        prov.tier = CacheTier::SessionCache;
        return Outcome::new(Ok(permit), prov);
    }
    // The fact set the proof runs against: a denial is served only while
    // the session's trace is still at this version.
    let at = session.trace.version();
    if let Some((_, reason)) = session.denied_cache.get(&key).filter(|(v, _)| *v == at) {
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
                at,
                reason: reason.clone(),
            })
        }
        Err(_) => None,
    };
    Outcome {
        verdict: verdict.map(|()| permit),
        prov,
        remember,
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
/// is learned onto the plan.
fn prove_read(
    checker: &ComplianceChecker,
    sp: &SelectPlan,
    bindings: &[(String, Value)],
    facts: &[Atom],
    prov: &mut Provenance,
) -> Result<(), DenyReason> {
    let disjuncts = (sp.translation.as_ref()).map_err(|m| DenyReason::OutOfFragment(m.clone()))?;
    for d in disjuncts {
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
                d.learn(checker, &inst, rw, bindings, facts);
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
    /// given — `observe`, then `apply`: the proxy's order, with no
    /// database, proxy, clock or counter.
    fn step(
        c: &ComplianceChecker,
        plan: &TemplatePlan,
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
        } = decide(c, kind, plan.hash(), built, session, &bindings, &mut |_| {});
        let record = match (kind, returned) {
            (Kind::Read(sp), Some(r)) if verdict.is_ok() => observe(sp, &bindings, r),
            _ => None,
        };
        session.apply(remember, record, &mut |_| {});
        (verdict.map(|_| ()), prov)
    }

    #[test]
    fn decide_walks_every_tier_without_a_database() {
        let c = checker();
        let probe = compile(
            &c,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
        );
        let fetch = compile(&c, "SELECT * FROM Events WHERE EId = ?e");
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
        let r = step(&c, &probe, true, &mut session, 2, Some(&one_row));
        assert_eq!(tier(&r), (true, CacheTier::TemplateProof));
        assert_eq!(session.trace.facts().len(), 1);
        // A concrete proof over that fact allows the fetch; applying the
        // outcome remembers it, and the repeat is an allow-cache hit.
        let r = step(&c, &fetch, true, &mut session, 2, Some(&event));
        assert_eq!(tier(&r), (true, CacheTier::ConcreteProof));
        assert!(!r.1.negative_template_hit);
        let r = step(&c, &fetch, false, &mut session, 2, None);
        assert_eq!(tier(&r), (true, CacheTier::SessionCache));
        assert!(r.1.negative_template_hit);

        // Event 3 is not known to be attended: denied, and the repeat is a
        // deny-cache hit replaying the same reason.
        let denied = step(&c, &fetch, false, &mut session, 3, None);
        assert_eq!(tier(&denied), (false, CacheTier::ConcreteProof));
        assert!(matches!(denied.0, Err(DenyReason::NotDetermined { .. })));
        let replayed = step(&c, &fetch, false, &mut session, 3, None);
        assert_eq!(tier(&replayed), (false, CacheTier::DenyCache));
        assert_eq!(replayed.0, denied.0);
        // A new fact moves the trace version, so the cached denial is not
        // served: a fresh proof allows, replaying the certificate the
        // first fetch's proof taught the plan.
        let version = session.trace.version();
        let r = step(&c, &probe, false, &mut session, 3, Some(&one_row));
        assert_eq!(tier(&r), (true, CacheTier::TemplateCache));
        assert_ne!(session.trace.version(), version);
        let r = step(&c, &fetch, false, &mut session, 3, None);
        assert_eq!(tier(&r), (true, CacheTier::ConcreteProof));
        assert_eq!((r.1.cert_replays, r.1.cert_fallbacks), (1, 0));
    }

    #[test]
    fn concrete_key_is_order_insensitive_and_discriminates() {
        let h = template_hash("SELECT * FROM Events WHERE EId = ?e");
        let a = ("a".to_string(), Value::Int(1));
        let b = ("b".to_string(), Value::str("x"));
        let k1 = ConcreteKey::new(h, &[a.clone(), b.clone()]);
        let k2 = ConcreteKey::new(h, &[b.clone(), a.clone()]);
        assert_eq!(k1, k2, "binding order must not split cache entries");
        assert_ne!(k1, ConcreteKey::new(h ^ 1, &[a.clone(), b.clone()]));
        assert_ne!(
            k1,
            ConcreteKey::new(h, &[a.clone(), ("b".to_string(), Value::str("y"))])
        );
        assert_ne!(k1, ConcreteKey::new(h, std::slice::from_ref(&a)));
        // Value type matters, not just bytes: Int(1) vs Bool(true) vs "1".
        assert_ne!(
            ConcreteKey::new(h, &[("a".to_string(), Value::Int(1))]),
            ConcreteKey::new(h, &[("a".to_string(), Value::Bool(true))])
        );
    }
}
