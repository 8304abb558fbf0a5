//! The enforcing SQL proxy.
//!
//! [`SqlProxy`] sits between an application and its database (§2.2):
//! each `SELECT` is intercepted, decided by the [`ComplianceChecker`], and
//! either executed as-is or blocked outright — never modified. Results of
//! allowed queries are recorded into the session's [`Trace`], which later
//! decisions may rely on.
//!
//! # Compiled plans and caching
//!
//! The proxy's unit of amortization is the *query template*: application
//! code issues a handful of distinct SQL strings with varying bindings, so
//! everything about a template that does not depend on the session is done
//! once and reused. A [`TemplatePlan`] (see [`crate::plan`]) captures the
//! parsed statement, the UCQ translation, the per-disjunct candidate views
//! that survive the relation-signature pre-filter, and the symbolic
//! verdict itself with its rewriting certificates. Plans live in a sharded,
//! bounded [`PlanCache`] keyed by the 64-bit template hash; a warm request
//! performs no tokenizing, no parsing, no translation, and allocates no
//! `String` for any cache key.
//!
//! A text that inlines its values is a template too: `execute` lifts its
//! literals into reserved parameters and decides its *shape* with them
//! bound, so a probe family shares one plan instead of compiling one per
//! value (`SqlProxy::resolve`; `prepare` keeps the exact text).
//!
//! On top of the plan, the decision caches amortize proof cost:
//!
//! * the plan's *template verdict*: `Allowed` plays the role of the old
//!   global template cache (proven with parameters symbolic, valid for
//!   every session and history); `Undecidable` plays the role of the old
//!   negative template cache, so the expensive symbolic proof runs at most
//!   once per template (the plan cache's `OnceLock` cells make that
//!   literal: racing misses block on the winner instead of proving twice).
//!   An `Undecidable` plan replays the certificates earlier concrete
//!   proofs taught it — in any session — through a verification-only
//!   check before falling back to the full rewriting search; acceptance is
//!   still a proof over the requesting session's facts. And
//! * a per-session *concrete cache* of allowed (template, bindings) pairs,
//!   keyed by the allocation-free `ConcreteKey` fingerprint — sound to
//!   reuse because compliance is monotone in what the trace entails, and
//!   what a session's trace entails only grows (compaction removes only
//!   facts implied by the ones it keeps). Concrete *denials* are cached
//!   too, stamped with the [`Trace::version`] they were proved at: new
//!   facts can flip a denial (never the reverse), so a cached denial is
//!   served only while the session's trace version is unchanged.
//!
//! Every request takes this one path. The specification it is tested
//! against is the cache-free [`ComplianceChecker`] (`check_template`,
//! `check_concrete`) and [`crate::write`]'s `compile_write_template` /
//! `check_write_concrete`, which the differential tests call per request.
//!
//! # Concurrency model
//!
//! The whole decision path takes `&self`, and `SqlProxy` is `Send + Sync`:
//! sessions are decided in parallel from any number of threads.
//!
//! * **Checker** — [`ComplianceChecker`] is immutable after construction and
//!   shared freely; proofs run without any lock held by other sessions.
//! * **Sessions** — session state lives in `SESSION_SHARDS` shards of
//!   `RwLock<HashMap<u64, SessionState>>`; the shard is chosen by hashing
//!   the session id. A decision holds its own shard's *read* lock while it
//!   consults the session caches and runs a concrete proof against the
//!   trace, so sessions in different shards never contend, and sessions in
//!   the same shard contend only with that shard's writers (cache
//!   write-back and trace recording, both brief).
//! * **Plan cache** — sharded by template hash; the steady-state path is a
//!   single shard read lock plus one string *comparison*. A miss publishes
//!   an empty `OnceLock` cell under a brief write lock (double-checked, so
//!   concurrent misses get the same cell) and compiles outside all locks:
//!   the template is parsed/translated/proved exactly once no matter how
//!   many threads race, and no write lock is ever held across a proof.
//! * **Statistics** — per-field atomic counters registered in the proxy's
//!   [`MetricsRegistry`], so [`SqlProxy::stats`] and the Prometheus
//!   exposition read the very same atomics; see [`SqlProxy::stats`] for
//!   the snapshot-consistency contract.
//! * **Provenance** — each `execute` laps a [`PhaseTimer`] across the
//!   decision phases, rolls up the solver work it did, and publishes one
//!   [`DecisionEvent`] into the lock-free [`EventJournal`]; none of it
//!   takes a lock on the decision path.
//! * **Database** — the wrapped [`minidb::Database`] sits behind an
//!   `RwLock`: allowed `SELECT`s share the read lock, DML takes the write
//!   lock.
//!
//! ## Soundness under concurrency
//!
//! *Template verdict*: the symbolic proof depends only on the query
//! template and the policy, and the policy is immutable for the proxy's
//! lifetime — a compiled `Undecidable` is permanent, so never re-proving
//! it cannot change any decision, only its cost. Plan *eviction* is
//! likewise cost-only: recompiling a template reproduces the identical
//! plan, and session caches keyed by its hash stay valid.
//!
//! *Deny cache*: a denial is recorded together with the trace's
//! [`Trace::version`] read before it was proved, and is replayed only while
//! the session's version still equals that value. The version moves on
//! every fact the trace adds *and* every fact compaction removes, so an
//! equal version means the identical fact set, i.e. the identical proof
//! obligation. If a concurrent request on the same session changes the
//! facts between a denial's proof and its write-back, the stored version
//! is already stale and the entry is simply never served — a wasted slot,
//! never a wrong answer.
//!
//! *Allow cache*: compliance is monotone in what the trace entails, and
//! the set of facts a session's trace entails only grows (compaction drops
//! a fact only when what remains implies it), so an allow proved under
//! any earlier fact set stays valid forever; write-back needs no validity
//! stamp.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use minidb::{Database, Rows};
use parking_lot::RwLock;
use sqlir::{
    is_lifted_name, lift_literals, params_in_bind_order, parse_statement, unbound_error, Statement,
    Value,
};

use crate::cache::BoundedCache;
use crate::checker::ComplianceChecker;
use crate::decision::{Decision, DecisionSource, DenyReason};
use crate::error::CoreError;
use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::mem::{bindings_heap_bytes, cq_heap_bytes, HeapUsage};
use crate::obs::{
    template_hash, CacheTier, Counter, DecisionEvent, EventJournal, Gauge, MemoryGauges,
    MetricsRegistry, Phase, PhaseTimer, Verdict,
};
use crate::plan::{
    compile_plan, PlanBody, PlanCache, SelectPlan, TemplatePlan, TemplateVerdict, WritePlan,
    PLAN_CAPACITY,
};
use crate::snapshot::{SnapshotError, SnapshotLoadReport, SnapshotSaveReport};
use crate::span::SpanSummary;
use crate::trace::Trace;
use crate::write::WriteTemplateVerdict;

/// Number of session shards. Sixteen keeps per-shard contention negligible
/// for hundreds of concurrent sessions while costing one cache line of
/// locks; must be a power of two (the shard index is the top bits of a
/// Fibonacci hash).
const SESSION_SHARDS: usize = 16;

/// Proxy settings: whether mutations are enforced, and the memory bounds.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// Enforce mutation policies: an `INSERT`/`UPDATE`/`DELETE` is allowed
    /// iff its written rows are contained in a policy view (see
    /// [`crate::write`]). Off (the default), mutations pass through and are
    /// counted as `bep_write_decisions_total{verdict="passthrough"}`.
    pub enforce_writes: bool,
    /// Decision events the journal retains before evicting the oldest.
    pub journal_capacity: usize,
    /// Byte budget for resident compiled plans (0 = count-bounded only, by
    /// [`PLAN_CAPACITY`]). Enforced with SIEVE eviction, reported via
    /// `bep_cache_evictions_total{tier="plan"}`.
    pub plan_budget_bytes: usize,
    /// Per-session byte budget for the concrete allow/deny caches, split
    /// evenly between the two tiers (0 = unbounded). Evictions are counted
    /// in `bep_cache_evictions_total{tier="session-allow"|"session-deny"}`.
    pub session_cache_budget_bytes: usize,
}

impl Default for ProxyConfig {
    fn default() -> ProxyConfig {
        ProxyConfig {
            enforce_writes: false,
            journal_capacity: 4096,
            // Generous defaults: bounded (the million-user north star needs
            // every tier capped) but far above what steady workloads use,
            // so eviction only kicks in under genuine pressure.
            plan_budget_bytes: 32 << 20,
            session_cache_budget_bytes: 1 << 20,
        }
    }
}

/// Counters for reporting. A value of this type is a snapshot;
/// the live counters are atomics inside the proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Queries allowed.
    pub allowed: u64,
    /// Queries blocked.
    pub blocked: u64,
    /// Allowed via the template cache.
    pub template_cache_hits: u64,
    /// Allowed via a fresh template-level proof.
    pub template_proofs: u64,
    /// Template-level proof skipped because the template is known
    /// template-undecidable (negative cache).
    pub template_negative_hits: u64,
    /// Allowed via the per-session cache.
    pub session_cache_hits: u64,
    /// Denied via the per-session deny cache.
    pub deny_cache_hits: u64,
    /// Allowed via a fresh concrete proof.
    pub concrete_proofs: u64,
    /// DML statements passed through.
    pub writes: u64,
    /// Write decisions allowed by an enforcement proof.
    pub write_allowed: u64,
    /// Write decisions blocked (out of fragment or not covered).
    pub write_blocked: u64,
    /// Write (and DDL) statements executed without coverage enforcement.
    pub write_passthrough: u64,
    /// Statements run through [`SqlProxy::execute_unchecked`] — traffic
    /// invisible to enforcement, audited during migration.
    pub unchecked_statements: u64,
    /// Per-decision latency of [`SqlProxy::execute`], from the lock-free
    /// histogram behind `bep_decision_latency_ns` (percentiles within 2% of
    /// the exact sample; the server's `Stats` response reports these).
    pub latency: LatencySnapshot,
}

/// The live, thread-safe counters behind [`ProxyStats`]. Every counter is
/// a series in the proxy's [`MetricsRegistry`], so `stats()` snapshots and
/// the metrics exposition read the very same atomics — there is no second
/// bookkeeping path to drift.
struct AtomicProxyStats {
    allowed: Arc<Counter>,
    blocked: Arc<Counter>,
    template_cache_hits: Arc<Counter>,
    template_proofs: Arc<Counter>,
    template_negative_hits: Arc<Counter>,
    session_cache_hits: Arc<Counter>,
    deny_cache_hits: Arc<Counter>,
    concrete_proofs: Arc<Counter>,
    /// Fresh concrete proofs that denied. Registry-only: `ProxyStats` is
    /// built by struct literal outside this crate, so it has no field.
    concrete_denied: Arc<Counter>,
    writes: Arc<Counter>,
    write_allowed: Arc<Counter>,
    write_blocked: Arc<Counter>,
    write_passthrough: Arc<Counter>,
    unchecked_statements: Arc<Counter>,
    latency: Arc<LatencyHistogram>,
}

impl AtomicProxyStats {
    fn register(r: &MetricsRegistry) -> AtomicProxyStats {
        let decisions = "Decisions by final verdict";
        let hits = "Cache hits by the tier that short-circuited the work";
        let proofs = "Fresh proofs by kind";
        AtomicProxyStats {
            allowed: r.counter("bep_decisions_total", decisions, &[("decision", "allowed")]),
            blocked: r.counter("bep_decisions_total", decisions, &[("decision", "blocked")]),
            template_cache_hits: r.counter("bep_cache_hits_total", hits, &[("tier", "template")]),
            template_proofs: r.counter("bep_proofs_total", proofs, &[("kind", "template")]),
            template_negative_hits: r.counter(
                "bep_cache_hits_total",
                hits,
                &[("tier", "negative-template")],
            ),
            session_cache_hits: r.counter("bep_cache_hits_total", hits, &[("tier", "session")]),
            deny_cache_hits: r.counter("bep_cache_hits_total", hits, &[("tier", "deny")]),
            concrete_proofs: r.counter("bep_proofs_total", proofs, &[("kind", "concrete")]),
            concrete_denied: r.counter("bep_proofs_total", proofs, &[("kind", "concrete-denied")]),
            writes: r.counter("bep_writes_total", "DML statements passed through", &[]),
            write_allowed: r.counter(
                "bep_write_decisions_total",
                "Write decisions by verdict",
                &[("verdict", "allowed")],
            ),
            write_blocked: r.counter(
                "bep_write_decisions_total",
                "Write decisions by verdict",
                &[("verdict", "blocked")],
            ),
            write_passthrough: r.counter(
                "bep_write_decisions_total",
                "Write decisions by verdict",
                &[("verdict", "passthrough")],
            ),
            unchecked_statements: r.counter(
                "bep_unchecked_statements_total",
                "Statements executed with enforcement bypassed",
                &[],
            ),
            latency: r.histogram(
                "bep_decision_latency_ns",
                "End-to-end execute latency in nanoseconds",
                &[],
            ),
        }
    }

    fn load(&self) -> ProxyStats {
        ProxyStats {
            allowed: self.allowed.get(),
            blocked: self.blocked.get(),
            template_cache_hits: self.template_cache_hits.get(),
            template_proofs: self.template_proofs.get(),
            template_negative_hits: self.template_negative_hits.get(),
            session_cache_hits: self.session_cache_hits.get(),
            deny_cache_hits: self.deny_cache_hits.get(),
            concrete_proofs: self.concrete_proofs.get(),
            writes: self.writes.get(),
            write_allowed: self.write_allowed.get(),
            write_blocked: self.write_blocked.get(),
            write_passthrough: self.write_passthrough.get(),
            unchecked_statements: self.unchecked_statements.get(),
            latency: self.latency.snapshot(),
        }
    }

    /// A snapshot that is internally consistent whenever the counters are
    /// momentarily quiescent: all fields are re-read until two consecutive
    /// passes agree (bounded retries; the last pass is returned if traffic
    /// never pauses, which is still field-wise exact and monotone).
    fn snapshot(&self) -> ProxyStats {
        let mut prev = self.load();
        for _ in 0..4 {
            let next = self.load();
            if next == prev {
                return next;
            }
            prev = next;
        }
        prev
    }
}

/// Scratch provenance threaded through one `execute`: the phase timer,
/// the cache tier and negative-cache flag the decision path fills in, and
/// how many disjuncts a certificate replay decided or the full search had
/// to.
struct Prov {
    timer: PhaseTimer,
    tier: CacheTier,
    negative_template_hit: bool,
    cert_replays: u32,
    cert_fallbacks: u32,
}

impl Prov {
    fn new() -> Prov {
        Prov {
            timer: PhaseTimer::start(),
            tier: CacheTier::Uncached,
            negative_template_hit: false,
            cert_replays: 0,
            cert_fallbacks: 0,
        }
    }

    /// Attributes the time since the previous boundary to `phase`.
    fn lap(&mut self, phase: Phase) {
        self.timer.lap(phase);
    }
}

/// One application session (a logged-in user).
#[derive(Debug, Clone)]
struct SessionState {
    /// Policy-parameter bindings, shared so `execute` can use them without
    /// copying (sessions never rebind; the `Arc` is cloned per request).
    bindings: Arc<Vec<(String, Value)>>,
    trace: Trace,
    /// Allowals keyed by concrete fingerprint; SIEVE-bounded. A hit is a
    /// visited-bit store, so it works under the shard *read* lock.
    allowed_cache: BoundedCache<ConcreteKey, ()>,
    /// Denials keyed by concrete fingerprint, stamped with the trace's
    /// fact-set *version* they were proved at (more facts can flip a
    /// denial; compaction changes the version too, so a stale stamp is
    /// never served — a plain fact count would be ambiguous once compaction
    /// can shrink the set). The stored query is the disjunct that failed,
    /// replayed on cache hits so diagnosis consumers see the real reason.
    /// Its `Cq` byte weight is accounted at insert, so `HeapUsage` and the
    /// byte budget both see it. The [`DenyKind`] replays the right
    /// [`DenyReason`] variant: a cached read denial is `NotDetermined`, a
    /// cached write denial is `WriteNotCovered`.
    denied_cache: BoundedCache<ConcreteKey, (u64, DenyKind, qlogic::Cq)>,
}

/// Which pipeline a cached denial came from (selects the replayed
/// [`DenyReason`] variant on deny-cache hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DenyKind {
    /// Read path: replayed as [`DenyReason::NotDetermined`].
    Read,
    /// Write path: replayed as [`DenyReason::WriteNotCovered`].
    Write,
}

/// Wall-clock seconds since the Unix epoch (for the snapshot-age gauge).
fn epoch_seconds() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Accounted weight of one allow-cache entry.
fn allow_entry_bytes() -> usize {
    std::mem::size_of::<ConcreteKey>()
}

/// Accounted weight of one deny-cache entry: the slot plus the stored
/// counterexample CQ's heap bytes (interned-id vectors — invisible to a
/// capacity-only walk, so it must ride on the entry weight).
fn deny_entry_bytes(query: &qlogic::Cq) -> usize {
    std::mem::size_of::<(ConcreteKey, (u64, DenyKind, qlogic::Cq))>() + cq_heap_bytes(query)
}

/// Heap bytes owned by one session's state: the binding list (counted at
/// this holder even though it is shared by `Arc` — see [`crate::mem`]),
/// the trace, and both concrete caches (structural tables plus accounted
/// entry weights, deny-cache counterexample CQs included). Every term is
/// a running account, so the before/after brackets around a mutation cost
/// nothing that grows with the session.
fn session_state_bytes(state: &SessionState) -> usize {
    bindings_heap_bytes(&state.bindings)
        + state.trace.heap_bytes()
        + state.allowed_cache.heap_bytes()
        + state.denied_cache.heap_bytes()
}

/// The same sum with the trace *walked* ([`Trace::heap_bytes_exact`]):
/// the ground truth under [`SqlProxy::sessions_heap_bytes`].
fn session_state_bytes_exact(state: &SessionState) -> usize {
    session_state_bytes(state) - state.trace.heap_bytes() + state.trace.heap_bytes_exact()
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
struct ConcreteKey {
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
    fn new(template: u64, bindings: &[(String, Value)]) -> ConcreteKey {
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

/// The response to a proxied statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyResponse {
    /// Rows of an allowed `SELECT`.
    Rows(Rows),
    /// Row count of a pass-through DML statement.
    Affected(usize),
    /// The statement was blocked.
    Blocked(DenyReason),
}

impl From<minidb::ExecResult> for ProxyResponse {
    fn from(result: minidb::ExecResult) -> ProxyResponse {
        match result {
            minidb::ExecResult::Rows(r) => ProxyResponse::Rows(r),
            minidb::ExecResult::Affected(n) => ProxyResponse::Affected(n),
            minidb::ExecResult::Created => ProxyResponse::Affected(0),
        }
    }
}

impl ProxyResponse {
    /// The rows, if this was an allowed `SELECT`.
    pub fn rows(&self) -> Option<&Rows> {
        match self {
            ProxyResponse::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// `true` unless the statement was blocked.
    pub fn is_allowed(&self) -> bool {
        !matches!(self, ProxyResponse::Blocked(_))
    }
}

/// The enforcing proxy. `Send + Sync`: share it across worker threads with
/// `Arc` or scoped borrows and call [`SqlProxy::execute`] concurrently.
pub struct SqlProxy {
    db: RwLock<Database>,
    checker: ComplianceChecker,
    config: ProxyConfig,
    shards: Vec<RwLock<HashMap<u64, SessionState>>>,
    next_session: AtomicU64,
    plans: PlanCache,
    stats: AtomicProxyStats,
    registry: MetricsRegistry,
    journal: EventJournal,
    /// Point-in-time gauges refreshed by [`SqlProxy::metrics_text`].
    sessions_gauge: Arc<Gauge>,
    journal_published: Arc<Gauge>,
    journal_evicted: Arc<Gauge>,
    /// Process RSS/VmHWM gauges refreshed by [`SqlProxy::metrics_text`].
    memory: MemoryGauges,
    /// `bep_span_solver_total{counter=...}` series, fed from the journaled
    /// events' span summaries: rewrite iterations, containment checks, hom
    /// nodes, hom backtracks — in that order.
    span_counters: [Arc<Counter>; 4],
    /// Component heap gauges (`bep_mem_bytes{component=...}`), refreshed
    /// by [`SqlProxy::metrics_text`]: plan cache, session state, journal —
    /// in that order.
    mem_gauges: [Arc<Gauge>; 3],
    /// Heap bytes of each session's state at the moment it ended
    /// (`bep_session_state_bytes`; recorded once per session, so scrapes
    /// never double-count a live session).
    session_state_bytes_hist: Arc<LatencyHistogram>,
    /// Policy-lint warnings emitted (`bep_policy_lint_warnings`).
    lint_warnings: Arc<Counter>,
    /// Cache evictions (`bep_cache_evictions_total{tier=...}`): plan,
    /// session-allow, session-deny — in that order.
    eviction_counters: [Arc<Counter>; 3],
    /// Warm-start snapshot gauges (`bep_snapshot_entries{outcome=...}`,
    /// `bep_snapshot_bytes`, `bep_snapshot_timestamp_seconds`): entries
    /// loaded, entries rejected by the verification gate, file bytes, and
    /// the unix time of the last successful load/save.
    snapshot_loaded: Arc<Gauge>,
    snapshot_rejected: Arc<Gauge>,
    snapshot_bytes: Arc<Gauge>,
    snapshot_timestamp: Arc<Gauge>,
    /// Live session-state heap bytes, maintained incrementally: every
    /// session mutation adjusts this by the before/after delta of
    /// `session_state_bytes`, and session end subtracts the final size —
    /// so the `bep_mem_bytes{component="session-state"}` gauge is O(shards)
    /// to refresh instead of an O(sessions) walk.
    session_bytes: AtomicU64,
}

impl SqlProxy {
    /// Wraps a database with enforcement.
    pub fn new(db: Database, checker: ComplianceChecker, config: ProxyConfig) -> SqlProxy {
        let registry = MetricsRegistry::new();
        let stats = AtomicProxyStats::register(&registry);
        let sessions_gauge = registry.gauge("bep_sessions", "Live sessions", &[]);
        let journal_published = registry.gauge(
            "bep_journal_published",
            "Decision events ever published to the journal",
            &[],
        );
        let journal_evicted = registry.gauge(
            "bep_journal_evicted",
            "Journal events evicted by ring wrap-around",
            &[],
        );
        let memory = MemoryGauges::register(&registry);
        let solver = "Solver work rolled up from decision span summaries";
        let span_counters = [
            "rewrite-iterations",
            "containment-checks",
            "hom-nodes",
            "hom-backtracks",
        ]
        .map(|c| registry.counter("bep_span_solver_total", solver, &[("counter", c)]));
        let heap = "Heap bytes currently owned, by component";
        let mem_gauges = ["plan-cache", "session-state", "journal"]
            .map(|c| registry.gauge("bep_mem_bytes", heap, &[("component", c)]));
        let session_state_bytes_hist = registry.histogram(
            "bep_session_state_bytes",
            "Heap bytes of a session's state when it ended",
            &[],
        );
        let lint_warnings = registry.counter(
            "bep_policy_lint_warnings",
            "Startup policy-lint warnings (handler columns missing from view heads)",
            &[],
        );
        let evictions = "Bounded-cache evictions by tier (SIEVE)";
        let eviction_counters = ["plan", "session-allow", "session-deny"]
            .map(|t| registry.counter("bep_cache_evictions_total", evictions, &[("tier", t)]));
        let snap_entries = "Warm-start snapshot entries by load outcome";
        let snapshot_loaded = registry.gauge(
            "bep_snapshot_entries",
            snap_entries,
            &[("outcome", "loaded")],
        );
        let snapshot_rejected = registry.gauge(
            "bep_snapshot_entries",
            snap_entries,
            &[("outcome", "rejected")],
        );
        let snapshot_bytes = registry.gauge(
            "bep_snapshot_bytes",
            "Size of the last snapshot file loaded or saved",
            &[],
        );
        let snapshot_timestamp = registry.gauge(
            "bep_snapshot_timestamp_seconds",
            "Unix time of the last successful snapshot load or save",
            &[],
        );
        SqlProxy {
            db: RwLock::new(db),
            checker,
            config,
            shards: (0..SESSION_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            next_session: AtomicU64::new(1),
            plans: PlanCache::with_budget(
                PLAN_CAPACITY,
                config.plan_budget_bytes,
                Some(eviction_counters[0].clone()),
            ),
            stats,
            registry,
            journal: EventJournal::with_capacity(config.journal_capacity),
            sessions_gauge,
            journal_published,
            journal_evicted,
            memory,
            span_counters,
            mem_gauges,
            session_state_bytes_hist,
            lint_warnings,
            eviction_counters,
            snapshot_loaded,
            snapshot_rejected,
            snapshot_bytes,
            snapshot_timestamp,
            session_bytes: AtomicU64::new(0),
        }
    }

    /// Adjusts the incremental session-state byte account by the
    /// before/after delta of one session mutation.
    fn adjust_session_bytes(&self, before: usize, after: usize) {
        if after >= before {
            self.session_bytes
                .fetch_add((after - before) as u64, Ordering::Relaxed);
        } else {
            self.session_bytes
                .fetch_sub((before - after) as u64, Ordering::Relaxed);
        }
    }

    /// The shard holding a session (Fibonacci hash of the id; ids are
    /// sequential, so multiplicative hashing spreads them evenly).
    fn shard(&self, session_id: u64) -> &RwLock<HashMap<u64, SessionState>> {
        let h = session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let index = (h >> 60) as usize & (SESSION_SHARDS - 1);
        &self.shards[index]
    }

    /// Opens a session with the given policy-parameter bindings
    /// (e.g. `MyUId = 1`).
    pub fn begin_session(&self, bindings: Vec<(String, Value)>) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        // Each concrete-cache tier gets half the per-session budget
        // (0 stays 0 = unbounded).
        let per_tier = self.config.session_cache_budget_bytes / 2;
        let state = SessionState {
            bindings: Arc::new(bindings),
            trace: Trace::new(),
            allowed_cache: BoundedCache::new(0, per_tier),
            denied_cache: BoundedCache::new(0, per_tier),
        };
        let bytes = session_state_bytes(&state);
        self.shard(id).write().insert(id, state);
        self.session_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        id
    }

    /// Ends a session, discarding its trace. Idempotent: ending an already
    /// ended (or never begun) session is a no-op, and the return value says
    /// whether the session was live. The session's final state size is
    /// recorded into the `bep_session_state_bytes` histogram and subtracted
    /// from the live session-state byte account (the
    /// `bep_mem_bytes{component="session-state"}` gauge path), so ended
    /// sessions stop weighing on the gauge immediately.
    pub fn end_session(&self, id: u64) -> bool {
        let state = self.shard(id).write().remove(&id);
        match state {
            Some(state) => {
                let bytes = session_state_bytes(&state);
                self.session_state_bytes_hist
                    .record(Duration::from_nanos(bytes as u64));
                self.session_bytes
                    .fetch_sub(bytes as u64, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Ends every session in `ids`, returning how many were live. The
    /// server's connection teardown and orphan sweep use this to reclaim
    /// sessions whose client vanished without `End`ing them.
    pub fn end_sessions(&self, ids: impl IntoIterator<Item = u64>) -> usize {
        ids.into_iter().filter(|&id| self.end_session(id)).count()
    }

    /// Number of currently live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Execution counters. The snapshot is exact whenever the proxy is
    /// quiescent (e.g. after worker threads join); under live traffic the
    /// fields are individually exact and monotone, and the proxy re-reads
    /// until two passes agree to keep cross-field skew negligible.
    pub fn stats(&self) -> ProxyStats {
        self.stats.snapshot()
    }

    /// The decision-event journal: one [`DecisionEvent`] per decided
    /// statement.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The proxy's metrics registry, for registering extra series next to
    /// the built-in ones (the server layer adds its own).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Renders the Prometheus text exposition, refreshing the
    /// point-in-time gauges (live sessions, journal accounting, component
    /// heap bytes) first.
    pub fn metrics_text(&self) -> String {
        self.sessions_gauge.set(self.session_count() as u64);
        self.journal_published.set(self.journal.published());
        self.journal_evicted.set(self.journal.evicted());
        self.memory.sample();
        let components = self.component_heap_bytes();
        for (gauge, (_, bytes)) in self.mem_gauges.iter().zip(components) {
            gauge.set(bytes as u64);
        }
        self.registry.render()
    }

    /// Point-in-time heap bytes per retaining component, in the same
    /// order as the `bep_mem_bytes{component=...}` gauges, then their
    /// `total` (which has no gauge of its own). Session state comes from
    /// the incremental account plus the shard tables: O(shards), not
    /// O(sessions) — a scrape must not walk a million sessions.
    pub fn component_heap_bytes(&self) -> [(&'static str, usize); 4] {
        let plan = self.plans.heap_bytes();
        let sessions = self.sessions_heap_bytes_fast();
        let journal = self.journal.heap_bytes();
        [
            ("plan-cache", plan),
            ("session-state", sessions),
            ("journal", journal),
            ("total", plan + sessions + journal),
        ]
    }

    /// Lifetime cache evictions per tier, in `bep_cache_evictions_total`
    /// label order: plan, session-allow, session-deny.
    pub fn cache_eviction_counts(&self) -> [(&'static str, u64); 3] {
        let [plan, allow, deny] = &self.eviction_counters;
        [
            ("plan", plan.get()),
            ("session-allow", allow.get()),
            ("session-deny", deny.get()),
        ]
    }

    /// Loads a warm-start snapshot: every entry is verification-gated
    /// against the live policy (see [`crate::snapshot`]), survivors are
    /// installed into the plan cache as pre-compiled template verdicts, and
    /// the `bep_snapshot_*` gauges record the outcome. Whole-file failures
    /// (missing, corrupt, wrong version, different policy) return the typed
    /// error and install nothing — the proxy simply starts cold.
    pub fn load_snapshot(&self, path: &Path) -> Result<SnapshotLoadReport, SnapshotError> {
        let (plans, report) = crate::snapshot::load_snapshot_file(&self.checker, path)?;
        for plan in plans {
            self.plans.insert_compiled(plan);
        }
        self.snapshot_loaded.set(report.loaded as u64);
        self.snapshot_rejected.set(report.rejected as u64);
        self.snapshot_bytes.set(report.bytes);
        self.snapshot_timestamp.set(epoch_seconds());
        Ok(report)
    }

    /// Persists every compiled template verdict to `path` (atomic
    /// tmp-and-rename write) so the next process can warm-start. Typically
    /// called at drain time, after in-flight requests finish.
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotSaveReport, SnapshotError> {
        let plans = self.plans.compiled_plans();
        let report = crate::snapshot::save_snapshot_file(&self.checker, &plans, path)?;
        self.snapshot_bytes.set(report.bytes);
        self.snapshot_timestamp.set(epoch_seconds());
        Ok(report)
    }

    /// Distribution of per-session state sizes, recorded once per session
    /// when it ends. The histogram reuses the latency machinery, so every
    /// `_ns` field of the snapshot reads as **bytes**.
    pub fn session_state_size_snapshot(&self) -> LatencySnapshot {
        self.session_state_bytes_hist.snapshot()
    }

    /// Runs the startup policy lints over a set of SQL templates (e.g. an
    /// application's handler bodies), counting each warning into
    /// `bep_policy_lint_warnings`. Advisory: enforcement is unchanged.
    pub fn lint_templates<'a>(&self, templates: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let warnings = crate::lint::lint_templates(&self.checker, templates);
        self.lint_warnings.add(warnings.len() as u64);
        warnings
    }

    /// Heap bytes currently owned by one live session's state (bindings,
    /// trace, concrete caches), or `None` if the session is not live.
    pub fn session_heap_bytes(&self, id: u64) -> Option<usize> {
        self.shard(id).read().get(&id).map(session_state_bytes)
    }

    /// Heap bytes owned by all live session state, including the shard
    /// tables themselves. The exact O(sessions) walk — the gauges use
    /// [`SqlProxy::sessions_heap_bytes_fast`] instead; this stays as the
    /// ground truth the incremental account is tested against.
    pub fn sessions_heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.read();
                shard.capacity() * std::mem::size_of::<(u64, SessionState)>()
                    + shard.values().map(session_state_bytes_exact).sum::<usize>()
            })
            .sum()
    }

    /// Heap bytes owned by all live session state, from the incremental
    /// per-mutation account plus the shard tables: O(shards) and
    /// scrape-safe at any session count. Equals
    /// [`SqlProxy::sessions_heap_bytes`] whenever the proxy is quiescent.
    pub fn sessions_heap_bytes_fast(&self) -> usize {
        self.session_bytes.load(Ordering::Relaxed) as usize
            + self
                .shards
                .iter()
                .map(|shard| shard.read().capacity() * std::mem::size_of::<(u64, SessionState)>())
                .sum::<usize>()
    }

    /// Runs `f` with shared access to the wrapped database (e.g. for test
    /// assertions). Do not call `execute` from inside `f`.
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// A clone of a session's trace (for diagnosis). Cloned rather than
    /// borrowed so no shard lock outlives the call.
    pub fn session_trace(&self, id: u64) -> Result<Trace, CoreError> {
        self.shard(id)
            .read()
            .get(&id)
            .map(|s| s.trace.clone())
            .ok_or(CoreError::NoSuchSession(id))
    }

    /// Executes a statement template with bindings under enforcement.
    ///
    /// `sql` may contain named parameters; `extra_bindings` supplies request
    /// parameters (the session's own bindings are always in scope).
    /// Literals in predicate and write positions are lifted into
    /// parameters first ([`sqlir::lift_literals`]), so one plan serves a
    /// statement for every value it inlines; the decision is the literal
    /// text's, and the journal records the shape's template hash.
    ///
    /// Takes `&self`: any number of sessions (and requests within a
    /// session) may execute concurrently.
    pub fn execute(
        &self,
        session_id: u64,
        sql: &str,
        extra_bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        let hash = template_hash(sql);
        self.run(session_id, extra_bindings, |prov| {
            self.resolve(sql, hash, prov)
        })
    }

    /// The plan `execute` decides `sql` (whose template hash is `hash`)
    /// through, whether this request compiled it, and the lifted literals'
    /// bindings it needs.
    ///
    /// A text that has a plan of its own — it inlines nothing liftable, or
    /// it is decided by its exact text — takes it at once. Otherwise its
    /// literals are lifted and its *shape*'s plan decides, bound to the
    /// lifted values: the instantiated shape is the statement, so the
    /// verdict is the literal text's, and the shape's hash is the one the
    /// journal records. The exact text is compiled instead, as without
    /// lifting, when nothing lifts, when two lifted literals are equal (a
    /// proof may join on that equality; the shape's parameters are
    /// distinct symbols), or when the shape is
    /// [`exact_only`](TemplatePlan::exact_only).
    fn resolve(
        &self,
        sql: &str,
        hash: u64,
        prov: &mut Prov,
    ) -> (Arc<TemplatePlan>, bool, Vec<(String, Value)>) {
        if let Some(plan) = self.plans.get_hashed(hash, sql) {
            prov.lap(Phase::TemplateLookup);
            return (plan, false, Vec::new());
        }
        let lifted = lift_literals(sql).filter(|l| {
            let b = &l.bindings;
            !(0..b.len()).any(|i| b[i + 1..].iter().any(|(_, v)| *v == b[i].1))
        });
        prov.lap(Phase::Parse);
        if let Some(lifted) = lifted {
            let (plan, built) = self.plan_for(&lifted.shape, template_hash(&lifted.shape), prov);
            if !plan.exact_only() {
                return (plan, built, lifted.bindings);
            }
        }
        let (plan, built) = self.plan_for(sql, hash, prov);
        (plan, built, Vec::new())
    }

    /// Compiles (or prefetches) the plan for a template without deciding
    /// anything. The returned plan can be replayed any number of times via
    /// [`SqlProxy::execute_planned`], skipping even the plan-cache probe —
    /// the wire protocol's `prepare` frame maps to this. The plan is the
    /// exact text's: nothing is lifted, since a prepared handle already
    /// compiles once per text.
    ///
    /// No statistics are touched, and the solver work of a first
    /// compilation is charged to no decision; replays through a
    /// template-allowed plan count as template-cache hits.
    pub fn prepare(&self, sql: &str) -> Arc<TemplatePlan> {
        let hash = template_hash(sql);
        let (cell, _) = self.plans.entry_hashed(hash, sql);
        cell.get_or_init(|| Arc::new(compile_plan(&self.checker, sql, hash, true, &mut |_| {})))
            .clone()
    }

    /// Executes a previously [`prepare`](SqlProxy::prepare)d plan — the
    /// decision hot path with the plan lookup already paid (the server's
    /// `execute_prepared` frame). Statistics, phase timings, and journal
    /// events are recorded exactly as for [`SqlProxy::execute`] of the same
    /// template.
    pub fn execute_planned(
        &self,
        session_id: u64,
        plan: &TemplatePlan,
        extra_bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        self.run(session_id, extra_bindings, |_| (plan, false, Vec::new()))
    }

    /// One statement from clock start to published event: `resolve`
    /// yields the plan, whether this request compiled it (its laps
    /// already attributed) and any lifted literals' bindings, the plan
    /// decides and executes, and [`finish`](Self::finish) closes the books.
    fn run<P: std::ops::Deref<Target = TemplatePlan>>(
        &self,
        session_id: u64,
        extra_bindings: &[(String, Value)],
        resolve: impl FnOnce(&mut Prov) -> (P, bool, Vec<(String, Value)>),
    ) -> Result<ProxyResponse, CoreError> {
        // The decision runs on this thread, so the solver counters `finish`
        // takes are this decision's work alone once whatever accumulated
        // before it (a `prepare`, any other solver use on this thread) is
        // discarded here.
        qlogic::probe::take();
        let t0 = Instant::now();
        let mut prov = Prov::new();
        let (plan, built, lifted) = resolve(&mut prov);
        let result =
            self.execute_plan_timed(session_id, &plan, built, extra_bindings, lifted, &mut prov);
        self.finish(session_id, plan.hash(), t0, &prov, &result);
        result
    }

    /// The tail of [`run`](Self::run): latency recording, the solver
    /// roll-up, and the decision's journal event.
    fn finish(
        &self,
        session_id: u64,
        hash: u64,
        t0: Instant,
        prov: &Prov,
        result: &Result<ProxyResponse, CoreError>,
    ) {
        let total = t0.elapsed();
        self.stats.latency.record(total);
        let span = SpanSummary::new(
            qlogic::probe::take(),
            prov.cert_replays,
            prov.cert_fallbacks,
        );
        // Only decided statements get a journal entry; a `NoSuchSession`
        // error is the caller's bug, not a decision.
        let Ok(response) = result else {
            return;
        };
        if !span.is_empty() {
            let [rw, cc, hn, hb] = &self.span_counters;
            rw.add(span.rewrite_iterations as u64);
            cc.add(span.containment_checks as u64);
            hn.add(span.hom_nodes as u64);
            hb.add(span.hom_backtracks as u64);
        }
        let verdict = if response.is_allowed() {
            Verdict::Allowed
        } else {
            Verdict::Blocked
        };
        self.journal.record(DecisionEvent {
            seq: 0, // assigned on publication
            session: session_id,
            template_hash: hash,
            verdict,
            tier: prov.tier,
            negative_template_hit: prov.negative_template_hit,
            total_ns: total.as_nanos().min(u64::MAX as u128) as u64,
            phase_ns: prov.timer.phase_ns(),
            span,
        });
    }

    /// The compiled plan for a template, proving at most once across all
    /// threads: `(plan, built)` where `built` says this call did the
    /// compilation (and its `Parse`/`Proof` laps are already attributed).
    fn plan_for(&self, sql: &str, hash: u64, prov: &mut Prov) -> (Arc<TemplatePlan>, bool) {
        let (cell, _) = self.plans.entry_hashed(hash, sql);
        let mut built = false;
        let plan = cell
            .get_or_init(|| {
                built = true;
                Arc::new(compile_plan(&self.checker, sql, hash, true, &mut |ph| {
                    prov.lap(ph)
                }))
            })
            .clone();
        if !built {
            // Cache hit, or this thread waited out another thread's build:
            // either way the time was spent looking the template up.
            prov.lap(Phase::TemplateLookup);
        }
        (plan, built)
    }

    /// The session's policy bindings (shared by `Arc`).
    fn session_bindings(&self, session_id: u64) -> Result<Arc<Vec<(String, Value)>>, CoreError> {
        let shard = self.shard(session_id).read();
        let session = shard
            .get(&session_id)
            .ok_or(CoreError::NoSuchSession(session_id))?;
        Ok(session.bindings.clone())
    }

    /// Decides and executes one request through a compiled plan.
    fn execute_plan_timed(
        &self,
        session_id: u64,
        plan: &TemplatePlan,
        built: bool,
        extra_bindings: &[(String, Value)],
        lifted: Vec<(String, Value)>,
        prov: &mut Prov,
    ) -> Result<ProxyResponse, CoreError> {
        // A parse failure is replayed before the session lookup (parse
        // errors never depend on the session).
        if let PlanBody::ParseError(msg) = plan.body() {
            self.stats.blocked.inc();
            return Ok(ProxyResponse::Blocked(DenyReason::ParseError(msg.clone())));
        }
        let session_bindings = self.session_bindings(session_id)?;
        let merged = merge_bindings(&session_bindings, extra_bindings, lifted);
        let bindings: &[(String, Value)] = merged.as_deref().unwrap_or(&session_bindings);
        // A statement whose bindings lack one of its parameters is the
        // caller's malformed input: blocked with the message binding would
        // fail with, before any tier counts or caches a decision for it.
        let params = match plan.body() {
            PlanBody::Select(sp) => &sp.params[..],
            PlanBody::Write(wp) => &wp.params[..],
            PlanBody::Other(_) | PlanBody::ParseError(_) => &[],
        };
        if let Some(missing) = unbound_error(params, bindings) {
            self.stats.blocked.inc();
            return Ok(ProxyResponse::Blocked(DenyReason::ParseError(
                missing.to_string(),
            )));
        }
        match plan.body() {
            PlanBody::Select(sp) => {
                let decision =
                    self.decide_select(session_id, sp, plan.hash(), built, bindings, prov)?;
                self.complete_select(session_id, sp, bindings, decision, prov)
            }
            PlanBody::Write(wp) => {
                self.decide_and_run_write(session_id, plan.hash(), wp, built, bindings, prov)
            }
            PlanBody::Other(stmt) => {
                // DDL writes no rows, so there is no coverage question; it
                // is counted as passthrough traffic either way.
                self.stats.write_passthrough.inc();
                self.execute_statement(stmt, bindings, prov)
            }
            PlanBody::ParseError(_) => unreachable!("handled before session lookup"),
        }
    }

    /// Runs an allowed/denied `SELECT` decision to completion: execute the
    /// statement, count, record the observation, and map the denial.
    fn complete_select(
        &self,
        session_id: u64,
        sp: &SelectPlan,
        bindings: &[(String, Value)],
        decision: Decision,
        prov: &mut Prov,
    ) -> Result<ProxyResponse, CoreError> {
        match decision {
            Decision::Allowed { .. } => {
                let rows = self.db.read().query_with(&sp.query, bindings)?;
                prov.lap(Phase::DbExec);
                self.stats.allowed.inc();
                self.record_observation(session_id, sp, bindings, &rows);
                prov.lap(Phase::TraceRecord);
                Ok(ProxyResponse::Rows(rows))
            }
            Decision::Denied { reason } => {
                self.stats.blocked.inc();
                Ok(ProxyResponse::Blocked(reason))
            }
        }
    }

    /// The write decision pipeline: passthrough unless enforced, then the
    /// template/concrete coverage tiers, then execution.
    ///
    /// `built` attributes the template verdict the same way the read path
    /// does: this request paid the compilation (a fresh template proof) or
    /// reused a cached plan. Writes never record trace facts: the trace
    /// stays a record of what the session *observed*, so read decisions
    /// are bit-identical with enforcement on or off.
    fn decide_and_run_write(
        &self,
        session_id: u64,
        hash: u64,
        wp: &WritePlan,
        built: bool,
        bindings: &[(String, Value)],
        prov: &mut Prov,
    ) -> Result<ProxyResponse, CoreError> {
        if !self.config.enforce_writes {
            self.stats.write_passthrough.inc();
            return self.execute_statement(&wp.stmt, bindings, prov);
        }
        let template = match &wp.template {
            Ok(t) => t,
            Err(msg) => {
                return Ok(self.block_write(DenyReason::OutOfFragment(msg.clone())));
            }
        };
        // 1. Template tier: the session-independent verdict compiled into
        //    the plan.
        match template.verdict {
            WriteTemplateVerdict::Allowed => {
                if built {
                    prov.tier = CacheTier::TemplateProof;
                    self.stats.template_proofs.inc();
                } else {
                    prov.tier = CacheTier::TemplateCache;
                    self.stats.template_cache_hits.inc();
                }
                self.stats.write_allowed.inc();
                return self.execute_statement(&wp.stmt, bindings, prov);
            }
            WriteTemplateVerdict::NeverCovered => {
                // Permanently uncoverable, for any session or history.
                if built {
                    prov.tier = CacheTier::TemplateProof;
                } else {
                    prov.tier = CacheTier::TemplateCache;
                }
                let query = template
                    .uncovered_query()
                    .unwrap_or_else(|| crate::write::atom_query(&template.atoms[0]));
                return Ok(self.block_write(DenyReason::WriteNotCovered { query }));
            }
            WriteTemplateVerdict::Undecidable => {
                if !built {
                    prov.negative_template_hit = true;
                    self.stats.template_negative_hits.inc();
                }
            }
        }
        // 2. Concrete tier, through the same session caches as reads
        //    (allowals are monotone in the facts; denials are stamped with
        //    the trace version and replayed as `WriteNotCovered`).
        let key = ConcreteKey::new(hash, bindings);
        let decision = self.decide_concrete(session_id, key, prov, |checker, trace| {
            match crate::write::check_write_concrete(
                template,
                checker.policy().views(),
                bindings,
                trace.facts(),
            ) {
                Ok(()) => Decision::Allowed {
                    source: DecisionSource::ConcreteProof,
                    rewritings: Vec::new(),
                },
                Err(query) => Decision::Denied {
                    reason: DenyReason::WriteNotCovered { query },
                },
            }
        })?;
        match decision {
            Decision::Allowed { .. } => {
                self.stats.write_allowed.inc();
                self.execute_statement(&wp.stmt, bindings, prov)
            }
            Decision::Denied { reason } => Ok(self.block_write(reason)),
        }
    }

    /// Counts and wraps one blocked write.
    fn block_write(&self, reason: DenyReason) -> ProxyResponse {
        self.stats.blocked.inc();
        self.stats.write_blocked.inc();
        ProxyResponse::Blocked(reason)
    }

    /// Executes one mutation/DDL statement against the store, its
    /// parameters read from the bindings.
    fn execute_statement(
        &self,
        stmt: &Statement,
        bindings: &[(String, Value)],
        prov: &mut Prov,
    ) -> Result<ProxyResponse, CoreError> {
        let result = self.db.write().execute_with(stmt, bindings)?;
        prov.lap(Phase::DbExec);
        self.stats.writes.inc();
        Ok(result.into())
    }

    /// Executes without any enforcement (the F3 baseline).
    pub fn execute_unchecked(
        &self,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        self.stats.unchecked_statements.inc();
        let stmt = parse_statement(sql).map_err(|e| CoreError::Parse(e.to_string()))?;
        if let Some(missing) = unbound_error(&params_in_bind_order(&stmt), bindings) {
            return Err(CoreError::Parse(missing.to_string()));
        }
        if let Statement::Select(q) = &stmt {
            return Ok(ProxyResponse::Rows(self.db.read().query_with(q, bindings)?));
        }
        Ok(self.db.write().execute_with(&stmt, bindings)?.into())
    }

    /// Decides a `SELECT` through its compiled plan. The template tier is
    /// a field read (the verdict was compiled into the plan); the concrete
    /// tier instantiates only the pre-pruned candidate views per disjunct.
    fn decide_select(
        &self,
        session_id: u64,
        sp: &SelectPlan,
        hash: u64,
        built: bool,
        bindings: &[(String, Value)],
        prov: &mut Prov,
    ) -> Result<Decision, CoreError> {
        // 1. Template tier, compiled into the plan. `built` attributes the
        //    verdict: this request paid the proof, or it reused one.
        match &sp.template {
            Some(TemplateVerdict::Allowed(certs)) => {
                if built {
                    prov.tier = CacheTier::TemplateProof;
                    self.stats.template_proofs.inc();
                    return Ok(Decision::Allowed {
                        source: DecisionSource::TemplateProof,
                        rewritings: certs.iter().map(|c| c.rewriting.clone()).collect(),
                    });
                }
                prov.tier = CacheTier::TemplateCache;
                self.stats.template_cache_hits.inc();
                return Ok(Decision::Allowed {
                    source: DecisionSource::TemplateCache,
                    rewritings: Vec::new(),
                });
            }
            Some(TemplateVerdict::Undecidable) if !built => {
                // Known template-undecidable: straight to the concrete
                // path without re-proving. Sound because the policy is
                // immutable — see the module docs.
                prov.negative_template_hit = true;
                self.stats.template_negative_hits.inc();
            }
            _ => {}
        }
        // 2. Concrete tier over the pruned plan. The closure cannot borrow
        //    `prov` (the tier holds it), so it counts certificate outcomes
        //    in locals copied in afterwards.
        let key = ConcreteKey::new(hash, bindings);
        let (mut replays, mut fallbacks) = (0, 0);
        let decision = self.decide_concrete(session_id, key, prov, |checker, trace| {
            match &sp.translation {
                Err(msg) => Decision::Denied {
                    reason: DenyReason::OutOfFragment(msg.clone()),
                },
                Ok(disjuncts) => {
                    // A certificate a disjunct learned from an earlier
                    // concrete proof of this template-undecidable plan
                    // carries a precompiled view expansion: replay it
                    // (instantiate rewriting + expansion, then verify mutual
                    // containment against the instantiated disjunct over
                    // this session's facts) before falling back to the full
                    // rewriting search. Verification gates acceptance and
                    // the fallback preserves completeness, so replay only
                    // amortizes candidate generation, view instantiation,
                    // and expansion into the plan.
                    let learns = matches!(sp.template, Some(TemplateVerdict::Undecidable));
                    let mut rewritings = Vec::with_capacity(disjuncts.len());
                    for d in disjuncts {
                        let inst = d.template.instantiate(bindings);
                        let cert = if learns { d.learned() } else { None };
                        let replayed = cert.and_then(|c| {
                            let expansion = c.expansion.as_ref()?;
                            checker.replay_certificate(
                                &inst,
                                c.rewriting.instantiate(bindings),
                                &expansion.instantiate(bindings),
                                trace.facts(),
                            )
                        });
                        let proved = match replayed {
                            Some(rw) => {
                                replays += 1;
                                Some(rw)
                            }
                            None => {
                                // Replay failed (or no certificate): run the
                                // full search over the pruned candidate views,
                                // and learn from what it proves.
                                fallbacks += 1;
                                let views = checker
                                    .policy()
                                    .instantiate_subset(&d.view_indices, bindings);
                                let proved = checker.prove_disjunct(&inst, &views, trace.facts());
                                if let Some(rw) = proved.as_ref().filter(|_| learns) {
                                    d.learn(checker, &inst, rw, bindings, trace.facts());
                                }
                                proved
                            }
                        };
                        match proved {
                            Some(rw) => rewritings.push(rw),
                            None => {
                                return Decision::Denied {
                                    reason: DenyReason::NotDetermined { query: inst },
                                }
                            }
                        }
                    }
                    Decision::Allowed {
                        source: DecisionSource::ConcreteProof,
                        rewritings,
                    }
                }
            }
        });
        prov.cert_replays = replays;
        prov.cert_fallbacks = fallbacks;
        decision
    }

    /// The shared concrete tier: session caches around one fresh proof.
    ///
    /// Per-session concrete caches (allowals are monotone in the trace;
    /// denials stay valid while the fact set is unchanged). The shard read
    /// lock is held across the concrete proof so the trace cannot shrink
    /// or move underneath it; same-shard sessions may still read
    /// concurrently.
    fn decide_concrete(
        &self,
        session_id: u64,
        concrete_key: ConcreteKey,
        prov: &mut Prov,
        prove: impl FnOnce(&ComplianceChecker, &Trace) -> Decision,
    ) -> Result<Decision, CoreError> {
        let (decision, trace_version) = {
            let sessions = self.shard(session_id).read();
            let session = sessions
                .get(&session_id)
                .ok_or(CoreError::NoSuchSession(session_id))?;
            if session.allowed_cache.get(&concrete_key).is_some() {
                prov.lap(Phase::ConcreteLookup);
                prov.tier = CacheTier::SessionCache;
                self.stats.session_cache_hits.inc();
                return Ok(Decision::Allowed {
                    source: DecisionSource::SessionCache,
                    rewritings: Vec::new(),
                });
            }
            let trace_version = session.trace.version();
            if let Some((at, kind, query)) = session.denied_cache.get(&concrete_key) {
                if *at == trace_version {
                    prov.lap(Phase::ConcreteLookup);
                    prov.tier = CacheTier::DenyCache;
                    self.stats.deny_cache_hits.inc();
                    let reason = match kind {
                        DenyKind::Read => DenyReason::NotDetermined {
                            query: query.clone(),
                        },
                        DenyKind::Write => DenyReason::WriteNotCovered {
                            query: query.clone(),
                        },
                    };
                    return Ok(Decision::Denied { reason });
                }
            }
            prov.lap(Phase::ConcreteLookup);
            // Fresh concrete proof.
            (prove(&self.checker, &session.trace), trace_version)
        };
        // Whether allowed or denied, the verdict came from the fresh
        // concrete proof; cache write-back below is attributed back to the
        // concrete-lookup phase (cache maintenance, not proof work).
        prov.lap(Phase::Proof);
        prov.tier = CacheTier::ConcreteProof;
        // Write-back after dropping the read lock. If the session ended
        // meanwhile, there is nothing to cache into — the decision
        // itself is still valid for this request.
        let mut sessions = self.shard(session_id).write();
        if let Some(session) = sessions.get_mut(&session_id) {
            let before = session_state_bytes(session);
            if decision.is_allowed() {
                let evicted = session
                    .allowed_cache
                    .insert(concrete_key, (), allow_entry_bytes());
                self.eviction_counters[1].add(evicted.len() as u64);
            } else if let Decision::Denied { reason } = &decision {
                // Only the two fact-dependent denials are cacheable; an
                // out-of-fragment denial is recomputed.
                let cached = match reason {
                    DenyReason::NotDetermined { query } => Some((DenyKind::Read, query)),
                    DenyReason::WriteNotCovered { query } => Some((DenyKind::Write, query)),
                    _ => None,
                };
                if let Some((kind, query)) = cached {
                    // Stamped with the trace version read before the
                    // proof: if the fact set changed since (growth *or*
                    // compaction), the stamp is already stale and the
                    // entry will never be served.
                    let bytes = deny_entry_bytes(query);
                    let evicted = session.denied_cache.insert(
                        concrete_key,
                        (trace_version, kind, query.clone()),
                        bytes,
                    );
                    self.eviction_counters[2].add(evicted.len() as u64);
                }
            }
            let after = session_state_bytes(session);
            self.adjust_session_bytes(before, after);
        }
        prov.lap(Phase::ConcreteLookup);
        if decision.is_allowed() {
            self.stats.concrete_proofs.inc();
        } else {
            self.stats.concrete_denied.inc();
        }
        Ok(decision)
    }

    /// Observation recording through the plan's cached translation (no
    /// re-translation on the hot path).
    fn record_observation(
        &self,
        session_id: u64,
        sp: &SelectPlan,
        bindings: &[(String, Value)],
        rows: &Rows,
    ) {
        // Only single-disjunct queries contribute facts: a union's non-empty
        // answer doesn't say which disjunct held.
        let Ok(disjuncts) = &sp.translation else {
            return;
        };
        if disjuncts.len() != 1 {
            return;
        }
        self.record_single_disjunct(
            session_id,
            disjuncts[0].template.instantiate(bindings),
            rows,
        );
    }

    fn record_single_disjunct(&self, session_id: u64, cq: qlogic::Cq, rows: &Rows) {
        if !cq.params().is_empty() {
            return; // unbound parameters: nothing definite to record
        }
        if let Some(session) = self.shard(session_id).write().get_mut(&session_id) {
            let before = session_state_bytes(session);
            // Compaction keeps the trace O(distinct information):
            // decision-invisible (the fact set stays logically equivalent),
            // and any removal bumps the trace version, so stamped denials
            // never serve stale. A repeated observation changes nothing,
            // the version included (`Trace`, "Repeats").
            session.trace.record_rows(cq, &rows.rows, true);
            let after = session_state_bytes(session);
            self.adjust_session_bytes(before, after);
        }
    }

    /// The compiled-plan cache (observability and tests).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }
}

/// Merged request-over-session bindings, and the lifted literals' over
/// both: neither the statement nor a policy view may name a lifted
/// parameter, so a caller's binding in that namespace means nothing.
/// Fast path: with neither request parameters nor lifted literals the
/// session bindings are used as-is through the shared `Arc` — no
/// per-statement copy, no `String` clone.
fn merge_bindings(
    session_bindings: &Arc<Vec<(String, Value)>>,
    extra_bindings: &[(String, Value)],
    lifted: Vec<(String, Value)>,
) -> Option<Vec<(String, Value)>> {
    if extra_bindings.is_empty() && lifted.is_empty() {
        return None;
    }
    let mut m = session_bindings.as_ref().clone();
    for (k, v) in extra_bindings {
        m.retain(|(n, _)| n != k);
        m.push((k.clone(), v.clone()));
    }
    if !lifted.is_empty() {
        m.retain(|(n, _)| !is_lifted_name(n));
        m.extend(lifted);
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{schema_of_database, Policy};

    fn calendar_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), \
             (3, 'party', 'fun')",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake')",
        )
        .unwrap();
        db
    }

    fn proxy(config: ProxyConfig) -> SqlProxy {
        let db = calendar_db();
        let schema = schema_of_database(&db);
        let policy = Policy::from_sql(
            &schema,
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
        SqlProxy::new(db, ComplianceChecker::new(schema, policy), config)
    }

    #[test]
    fn proxy_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SqlProxy>();
    }

    #[test]
    fn listing_1_flow_allowed() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);

        // Q1: the access check from Listing 1.
        let r1 = p
            .execute(
                s,
                "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event",
                &[("event".into(), Value::Int(2))],
            )
            .unwrap();
        assert!(r1.is_allowed());
        assert_eq!(r1.rows().unwrap().len(), 1);

        // Q2: fetch the event, allowed thanks to the trace.
        let r2 = p
            .execute(
                s,
                "SELECT * FROM Events WHERE EId = ?event",
                &[("event".into(), Value::Int(2))],
            )
            .unwrap();
        assert!(r2.is_allowed(), "{r2:?}");
        assert_eq!(r2.rows().unwrap().rows[0][1], Value::str("standup"));
    }

    #[test]
    fn q2_first_is_blocked() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let r = p
            .execute(
                s,
                "SELECT * FROM Events WHERE EId = ?event",
                &[("event".into(), Value::Int(2))],
            )
            .unwrap();
        assert!(matches!(
            r,
            ProxyResponse::Blocked(DenyReason::NotDetermined { .. })
        ));
    }

    #[test]
    fn template_cache_serves_repeats() {
        let p = proxy(ProxyConfig::default());
        let s1 = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let s2 = p.begin_session(vec![("MyUId".into(), Value::Int(2))]);
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        p.execute(s1, sql, &[]).unwrap();
        p.execute(s2, sql, &[]).unwrap();
        p.execute(s1, sql, &[]).unwrap();
        let stats = p.stats();
        assert_eq!(stats.template_proofs, 1);
        assert_eq!(stats.template_cache_hits, 2);
        assert_eq!(stats.allowed, 3);
    }

    #[test]
    fn negative_template_cache_skips_reproof() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // Events alone is never template-decidable under this policy: the
        // first request pays the symbolic proof, later ones must not.
        let fetch = "SELECT * FROM Events WHERE EId = 2";
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert_eq!(p.stats().template_negative_hits, 0);
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert_eq!(p.stats().template_negative_hits, 2);
        // The trace flow still works: the probe unlocks the fetch even
        // though the template stays in the negative cache.
        let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        assert!(p.execute(s, probe, &[]).unwrap().is_allowed());
        assert!(p.execute(s, fetch, &[]).unwrap().is_allowed());
    }

    #[test]
    fn session_cache_serves_concrete_repeats() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // The probe is template-allowed; the fetch is template-undecidable,
        // so the probe's fact lets a concrete proof allow it, and its
        // repeat is served by the session cache.
        let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        let fetch = "SELECT * FROM Events WHERE EId = 2";
        for sql in [probe, fetch, fetch] {
            assert!(p.execute(s, sql, &[]).unwrap().is_allowed(), "{sql}");
        }
        let stats = p.stats();
        assert_eq!(stats.concrete_proofs, 1);
        assert_eq!(stats.session_cache_hits, 1);
    }

    #[test]
    fn sessions_are_isolated() {
        let p = proxy(ProxyConfig::default());
        let s1 = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let s2 = p.begin_session(vec![("MyUId".into(), Value::Int(2))]);
        // Session 1 probes and learns about event 2.
        p.execute(
            s1,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
            &[],
        )
        .unwrap();
        // Session 2 must NOT benefit from session 1's trace.
        let r = p
            .execute(s2, "SELECT * FROM Events WHERE EId = 2", &[])
            .unwrap();
        assert!(!r.is_allowed());
    }

    #[test]
    fn empty_probe_does_not_unlock() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // User 1 does NOT attend event 3; the probe returns empty.
        let r1 = p
            .execute(
                s,
                "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 3",
                &[],
            )
            .unwrap();
        assert!(r1.is_allowed());
        assert!(r1.rows().unwrap().is_empty());
        // Fetching event 3 must remain blocked.
        let r2 = p
            .execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
            .unwrap();
        assert!(!r2.is_allowed(), "an empty probe must not unlock the event");
    }

    #[test]
    fn enforced_session_pinned_write_rides_the_template_tier() {
        let p = proxy(ProxyConfig {
            enforce_writes: true,
            ..Default::default()
        });
        // DELETE pinned to ?MyUId unifies with V1's Attendance atom at the
        // template level: allowed for every session, no concrete proof.
        let sql = "DELETE FROM Attendance WHERE UId = ?MyUId";
        let s1 = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let s2 = p.begin_session(vec![("MyUId".into(), Value::Int(2))]);
        assert_eq!(p.execute(s1, sql, &[]).unwrap(), ProxyResponse::Affected(1));
        assert_eq!(p.execute(s2, sql, &[]).unwrap(), ProxyResponse::Affected(1));
        let stats = p.stats();
        assert_eq!(stats.write_allowed, 2);
        assert_eq!(stats.write_blocked, 0);
        assert_eq!(stats.template_proofs, 1, "first request pays the proof");
        assert_eq!(stats.template_cache_hits, 1, "second rides the plan");
        assert_eq!(stats.writes, 2);
    }

    #[test]
    fn enforced_write_for_another_user_is_blocked_and_deny_cached() {
        let p = proxy(ProxyConfig {
            enforce_writes: true,
            ..Default::default()
        });
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // Writing user 2's attendance row can never be covered by the
        // session's views; the denial replays from the deny cache.
        let sql = "INSERT INTO Attendance (UId, EId, Notes) VALUES (2, 3, 'x')";
        for _ in 0..2 {
            let r = p.execute(s, sql, &[]).unwrap();
            assert!(matches!(
                r,
                ProxyResponse::Blocked(DenyReason::WriteNotCovered { .. })
            ));
        }
        let stats = p.stats();
        assert_eq!(stats.write_blocked, 2);
        assert_eq!(stats.write_allowed, 0);
        assert_eq!(stats.deny_cache_hits, 1, "second denial replays");
        assert_eq!(stats.writes, 0, "nothing reached the store");
    }

    #[test]
    fn adversarial_writes_block_and_never_panic() {
        let p = proxy(ProxyConfig {
            enforce_writes: true,
            ..Default::default()
        });
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // Malformed mutation SQL: a typed parse denial, not an error.
        let r = p
            .execute(s, "INSERT INTO Attendance VALUES (", &[])
            .unwrap();
        assert!(matches!(
            r,
            ProxyResponse::Blocked(DenyReason::ParseError(_))
        ));
        // Unknown table: out of fragment, denied before any store access.
        let r = p
            .execute(s, "INSERT INTO Nope (X) VALUES (1)", &[])
            .unwrap();
        assert!(matches!(
            r,
            ProxyResponse::Blocked(DenyReason::OutOfFragment(_))
        ));
        // Unbound parameters: `unparseable_sql_is_blocked_not_error`.
        assert_eq!(p.stats().writes, 0, "nothing reached the store");
    }

    #[test]
    fn concrete_write_coverage_uses_trace_facts() {
        let p = proxy(ProxyConfig {
            enforce_writes: true,
            ..Default::default()
        });
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // Inserting my own attendance with a visible Notes value needs V2
        // (V1 hides Notes), and V2's Events join atom is only implied once
        // the session has observed the event row.
        let write = "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, 2, 'note')";
        let r = p.execute(s, write, &[]).unwrap();
        assert!(
            matches!(
                r,
                ProxyResponse::Blocked(DenyReason::WriteNotCovered { .. })
            ),
            "before the event is visible the write is uncovered: {r:?}"
        );
        // Probe then fetch: the trace now holds the Events(2, ...) fact.
        p.execute(
            s,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
            &[],
        )
        .unwrap();
        assert!(p
            .execute(s, "SELECT * FROM Events WHERE EId = 2", &[])
            .unwrap()
            .is_allowed());
        // Delete my original row first so the insert does not collide with
        // the (UId, EId) primary key.
        assert_eq!(
            p.execute(s, "DELETE FROM Attendance WHERE UId = ?MyUId", &[])
                .unwrap(),
            ProxyResponse::Affected(1)
        );
        assert_eq!(
            p.execute(s, write, &[]).unwrap(),
            ProxyResponse::Affected(1)
        );
    }

    #[test]
    fn unenforced_writes_count_as_passthrough() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let r = p
            .execute(
                s,
                "INSERT INTO Attendance (UId, EId, Notes) VALUES (9, 9, 'x')",
                &[],
            )
            .unwrap();
        assert_eq!(r, ProxyResponse::Affected(1));
        p.execute(s, "CREATE TABLE Scratch (X INT PRIMARY KEY)", &[])
            .unwrap();
        let stats = p.stats();
        assert_eq!(stats.write_passthrough, 2);
        assert_eq!(stats.write_allowed, 0);
        assert_eq!(stats.write_blocked, 0);
    }

    #[test]
    fn read_decisions_are_identical_with_write_enforcement_on() {
        // The same mixed workload (reads + authorized writes) must produce
        // bit-identical responses whether write enforcement is on or off:
        // writes never feed the trace, so they cannot perturb reads.
        let run = |enforce_writes: bool| -> Vec<ProxyResponse> {
            let p = proxy(ProxyConfig {
                enforce_writes,
                ..Default::default()
            });
            let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
            [
                "SELECT EId FROM Attendance WHERE UId = ?MyUId",
                "SELECT * FROM Events WHERE EId = 3",
                "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
                "SELECT * FROM Events WHERE EId = 2",
                "DELETE FROM Attendance WHERE UId = ?MyUId",
                "SELECT EId FROM Attendance WHERE UId = ?MyUId",
                "SELECT * FROM Events WHERE EId = 2",
            ]
            .iter()
            .map(|sql| p.execute(s, sql, &[]).unwrap())
            .collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn unchecked_statements_are_audited() {
        let p = proxy(ProxyConfig::default());
        p.execute_unchecked("SELECT * FROM Events", &[]).unwrap();
        p.execute_unchecked("DELETE FROM Attendance WHERE UId = 1", &[])
            .unwrap();
        assert_eq!(p.stats().unchecked_statements, 2);
    }

    /// Malformed SQL, and a statement whose bindings lack a parameter, are
    /// blocked (`Err(Parse)` from `execute_unchecked`) with the parser's or
    /// `bind_statement`'s message — for the latter the first missing
    /// parameter in binding's order, not the text's — and never reach the
    /// store.
    #[test]
    fn unparseable_sql_is_blocked_not_error() {
        let session = vec![("MyUId".to_string(), Value::Int(1))];
        let pb = sqlir::ParamBindings::new().with("MyUId", 1);
        for enforce_writes in [false, true] {
            let p = proxy(ProxyConfig {
                enforce_writes,
                ..Default::default()
            });
            let s = p.begin_session(session.clone());
            for sql in [
                "SELEC whoops",
                "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
                "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = ?b AND EId = ?a",
                "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = ?",
                "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
                "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = ?b AND EId = ?a",
                "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = ?",
                "UPDATE Attendance SET Notes = ?b WHERE UId = ?MyUId AND EId = ?a",
                "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, ?nope, NULL)",
                "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, ?b, ?a)",
            ] {
                let expected = match parse_statement(sql) {
                    Ok(stmt) => sqlir::bind_statement(&stmt, &pb).unwrap_err().to_string(),
                    Err(e) => e.to_string(),
                };
                match p.execute(s, sql, &[]) {
                    Ok(ProxyResponse::Blocked(DenyReason::ParseError(msg))) => {
                        assert_eq!(msg, expected, "{sql}")
                    }
                    other => panic!("{sql}: {other:?}"),
                }
                let unchecked = p.execute_unchecked(sql, &session);
                assert_eq!(unchecked, Err(CoreError::Parse(expected)), "{sql}");
            }
            assert_eq!(p.stats().writes, 0, "nothing reached the store");
            assert_eq!(p.with_database(|db| db.total_rows()), 4);
        }
    }

    /// A statement with an unbound parameter is blocked before any tier:
    /// no tier counts an allow or a proof for it, none caches a verdict,
    /// and its event is `Uncached`, for reads and writes alike.
    #[test]
    fn unbound_statements_are_blocked_before_any_tier() {
        for enforce_writes in [false, true] {
            let p = proxy(ProxyConfig {
                enforce_writes,
                ..Default::default()
            });
            let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
            let statements = [
                // Template-allowed, and template-undecidable.
                "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
                "SELECT * FROM Events WHERE EId = ?e",
                // Write-template-allowed, and decided concretely.
                "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = ?e",
                "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, ?e, 'x')",
            ];
            for sql in statements.iter().chain(&statements) {
                let r = p.execute(s, sql, &[]).unwrap();
                assert!(
                    matches!(r, ProxyResponse::Blocked(DenyReason::ParseError(_))),
                    "{sql}: {r:?}"
                );
            }
            let st = p.stats();
            assert_eq!(
                st.template_cache_hits
                    + st.template_proofs
                    + st.session_cache_hits
                    + st.concrete_proofs,
                st.allowed,
                "{st:?}"
            );
            assert_eq!((st.allowed, st.blocked), (0, 8), "{st:?}");
            assert_eq!(st.concrete_proofs, 0, "{st:?}");
            assert_eq!(st.deny_cache_hits, 0, "{st:?}");
            assert_eq!(
                (st.write_allowed, st.write_passthrough, st.writes),
                (0, 0, 0),
                "{st:?}"
            );
            let events = p.journal().events_since(0, usize::MAX);
            assert_eq!(events.len(), 8);
            for e in &events {
                assert_eq!((e.tier, e.verdict), (CacheTier::Uncached, Verdict::Blocked));
            }
        }
    }

    #[test]
    fn stats_count_blocked() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
            .unwrap();
        assert_eq!(p.stats().blocked, 1);
    }

    #[test]
    fn a_repeated_read_changes_nothing_and_spares_a_cached_denial() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let reads = [
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2", // a row
            "SELECT EId FROM Attendance WHERE UId = ?MyUId",           // rows kept
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 3", // empty
        ];
        for sql in reads {
            assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        }
        // A template-undecidable fetch's denial, cached under the trace
        // version it was proved at.
        let fetch = "SELECT * FROM Events WHERE EId = 3";
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        let state = |p: &SqlProxy| {
            let t = p.session_trace(s).unwrap();
            (t.facts().to_vec(), t.len(), t.version(), t.heap_bytes())
        };
        let (before, state_bytes) = (state(&p), p.sessions_heap_bytes());
        assert!(!before.0.is_empty());

        for sql in reads.iter().cycle().take(9) {
            assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        }
        assert_eq!(state(&p), before);
        assert_eq!(p.sessions_heap_bytes(), state_bytes);
        // The stamp still matches: no proof, the cache answers.
        let (hits, proofs) = (p.stats().deny_cache_hits, p.stats().concrete_proofs);
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert_eq!(p.stats().deny_cache_hits, hits + 1);
        assert_eq!(p.stats().concrete_proofs, proofs);
    }

    #[test]
    fn deny_cache_serves_repeats_and_invalidates_on_new_facts() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let fetch = "SELECT * FROM Events WHERE EId = 2";

        // Two denials of the template-undecidable fetch: the second is
        // served from the deny cache.
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert_eq!(p.stats().deny_cache_hits, 1);

        // Learning a new fact invalidates the cached denial: the probe
        // returns a row, and the fetch flips to allowed.
        let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        assert!(p.execute(s, probe, &[]).unwrap().is_allowed());
        assert!(p.execute(s, fetch, &[]).unwrap().is_allowed());
    }

    #[test]
    fn ended_session_is_rejected() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.end_session(s);
        let err = p
            .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
            .unwrap_err();
        assert_eq!(err, CoreError::NoSuchSession(s));
    }

    #[test]
    fn end_session_is_idempotent() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        assert_eq!(p.session_count(), 1);
        assert!(p.end_session(s), "first end reports the session was live");
        assert!(!p.end_session(s), "second end is a no-op");
        assert!(!p.end_session(s), "and stays a no-op");
        assert_eq!(p.session_count(), 0);
    }

    #[test]
    fn unknown_session_is_a_typed_error_everywhere() {
        let p = proxy(ProxyConfig::default());
        // Never-begun id: execute and trace must both fail typed, not panic
        // or return something empty.
        let bogus = 999_999;
        let err = p.execute(bogus, "SELECT * FROM Events", &[]).unwrap_err();
        assert_eq!(err, CoreError::NoSuchSession(bogus));
        assert_eq!(p.session_trace(bogus).unwrap_err(), err);
        assert!(!p.end_session(bogus));
    }

    #[test]
    fn execute_after_end_fails_even_with_warm_caches() {
        // An ended session must be rejected on every decision path,
        // including ones short-circuited by the global template cache.
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        p.end_session(s);
        let err = p.execute(s, sql, &[]).unwrap_err();
        assert_eq!(err, CoreError::NoSuchSession(s));
    }

    #[test]
    fn end_sessions_sweeps_only_live_ids() {
        let p = proxy(ProxyConfig::default());
        let s1 = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let s2 = p.begin_session(vec![("MyUId".into(), Value::Int(2))]);
        let s3 = p.begin_session(vec![("MyUId".into(), Value::Int(3))]);
        p.end_session(s2);
        assert_eq!(p.end_sessions([s1, s2, s3, 424_242]), 2);
        assert_eq!(p.session_count(), 0);
    }

    #[test]
    fn stats_report_latency_from_the_histogram() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        for _ in 0..5 {
            p.execute(s, sql, &[]).unwrap();
        }
        let lat = p.stats().latency;
        assert_eq!(lat.count, 5, "every execute records one sample");
        assert!(lat.p50_ns > 0 && lat.p99_ns >= lat.p50_ns);
        assert!(lat.max_ns > 0 && lat.sum_ns >= lat.max_ns);
    }

    #[test]
    fn parallel_sessions_decide_concurrently() {
        // Smoke test for the &self path: many threads, each with its own
        // session, all executing the same templates simultaneously.
        let p = proxy(ProxyConfig::default());
        std::thread::scope(|scope| {
            for uid in [1i64, 2, 1, 2] {
                let p = &p;
                scope.spawn(move || {
                    let s = p.begin_session(vec![("MyUId".into(), Value::Int(uid))]);
                    for _ in 0..20 {
                        let r = p
                            .execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
                            .unwrap();
                        assert!(r.is_allowed());
                    }
                    p.end_session(s);
                });
            }
        });
        let stats = p.stats();
        assert_eq!(stats.allowed, 80);
        assert_eq!(stats.blocked, 0);
        assert_eq!(
            stats.template_proofs + stats.template_cache_hits,
            80,
            "every allow came from the template layer: {stats:?}"
        );
    }

    #[test]
    fn journal_records_tier_provenance() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        p.execute(s, sql, &[]).unwrap(); // fresh template proof
        p.execute(s, sql, &[]).unwrap(); // template-cache hit
        let fetch = "SELECT * FROM Events WHERE EId = 3";
        p.execute(s, fetch, &[]).unwrap(); // concrete proof, denied
        p.execute(s, fetch, &[]).unwrap(); // deny-cache hit, negative flag

        let events = p.journal().events_since(0, usize::MAX);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].tier, CacheTier::TemplateProof);
        assert_eq!(events[0].verdict, Verdict::Allowed);
        assert_eq!(events[1].tier, CacheTier::TemplateCache);
        assert_eq!(events[2].tier, CacheTier::ConcreteProof);
        assert_eq!(events[2].verdict, Verdict::Blocked);
        // The first fetch pays the fresh template proof (which fails and
        // seeds the negative cache); only the repeat short-circuits on it.
        assert!(!events[2].negative_template_hit);
        assert_eq!(events[3].tier, CacheTier::DenyCache);
        assert!(events[3].negative_template_hit);
        assert!(events.iter().all(|e| e.session == s));
        assert_eq!(events[0].template_hash, template_hash(sql));
        // A statement inlining a literal is recorded under its shape.
        let shape = "SELECT * FROM Events WHERE EId = ?__lit0";
        assert_eq!(lift_literals(fetch).unwrap().shape, shape);
        assert_eq!(events[2].template_hash, template_hash(shape));

        // Phase timings cover the work that actually ran, and the lap sum
        // never exceeds the end-to-end measurement.
        assert!(events[0].phase(Phase::Proof) > 0, "{events:?}");
        assert!(events[0].phase(Phase::DbExec) > 0);
        assert_eq!(events[1].phase(Phase::Proof), 0, "cache hit proves nothing");
        for e in &events {
            assert!(e.phase_ns.iter().sum::<u64>() <= e.total_ns, "{e:?}");
        }
    }

    #[test]
    fn parse_error_event_is_uncached_blocked() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.execute(s, "SELEC whoops", &[]).unwrap();
        let events = p.journal().events_since(0, usize::MAX);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].verdict, Verdict::Blocked);
        assert_eq!(events[0].tier, CacheTier::Uncached);
        assert!(events[0].phase(Phase::Parse) > 0);
        assert_eq!(events[0].phase(Phase::Proof), 0);
    }

    #[test]
    fn no_such_session_emits_no_event() {
        let p = proxy(ProxyConfig::default());
        p.execute(999, "SELECT * FROM Events", &[]).unwrap_err();
        assert_eq!(p.journal().published(), 0);
    }

    #[test]
    fn metrics_text_exposes_expected_families() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
            .unwrap();
        p.execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
            .unwrap();
        p.execute(
            s,
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (9, 9, 'x')",
            &[],
        )
        .unwrap();
        p.execute_unchecked("SELECT 1 FROM Events", &[]).unwrap();
        let text = p.metrics_text();
        assert!(text.contains("bep_decisions_total{decision=\"allowed\"} 1\n"));
        assert!(text.contains("bep_decisions_total{decision=\"blocked\"} 1\n"));
        assert!(text.contains("# TYPE bep_write_decisions_total counter\n"));
        assert!(text.contains("bep_write_decisions_total{verdict=\"allowed\"} 0\n"));
        assert!(text.contains("bep_write_decisions_total{verdict=\"blocked\"} 0\n"));
        assert!(text.contains("bep_write_decisions_total{verdict=\"passthrough\"} 1\n"));
        assert!(text.contains("# TYPE bep_unchecked_statements_total counter\n"));
        assert!(text.contains("bep_unchecked_statements_total 1\n"));
        assert!(text.contains("# TYPE bep_cache_hits_total counter\n"));
        assert!(text.contains("# TYPE bep_decision_latency_ns summary\n"));
        assert!(text.contains("bep_decision_latency_ns_count 3\n"));
        assert!(text.contains("bep_sessions 1\n"));
        assert!(text.contains("bep_journal_published 3\n"));
        assert!(text.contains("bep_journal_evicted 0\n"));
        assert!(text.contains("# TYPE bep_process_resident_bytes gauge\n"));
        assert!(text.contains("# TYPE bep_process_vm_hwm_bytes gauge\n"));
        assert!(text.contains("# TYPE bep_cache_evictions_total counter\n"));
        assert!(text.contains("bep_cache_evictions_total{tier=\"plan\"} 0\n"));
        assert!(text.contains("bep_cache_evictions_total{tier=\"session-allow\"} 0\n"));
        assert!(text.contains("bep_cache_evictions_total{tier=\"session-deny\"} 0\n"));
        assert!(text.contains("bep_snapshot_entries{outcome=\"loaded\"} 0\n"));
        assert!(text.contains("bep_snapshot_entries{outcome=\"rejected\"} 0\n"));
        assert!(text.contains("# TYPE bep_snapshot_bytes gauge\n"));
        assert!(text.contains("# TYPE bep_snapshot_timestamp_seconds gauge\n"));
    }

    #[test]
    fn incremental_session_accounting_matches_exact_walk() {
        let p = proxy(ProxyConfig::default());
        let mut sessions = Vec::new();
        for uid in 1..=3 {
            let s = p.begin_session(vec![("MyUId".into(), Value::Int(uid))]);
            // A mix of allows, denials (deny-cache writes, counterexample
            // CQ retained), probes (trace facts), and repeats (cache hits).
            p.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
                .unwrap();
            p.execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
                .unwrap();
            p.execute(s, "SELECT * FROM Events WHERE EId = 3", &[])
                .unwrap();
            p.execute(
                s,
                "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
                &[],
            )
            .unwrap();
            sessions.push(s);
        }
        assert_eq!(
            p.sessions_heap_bytes_fast(),
            p.sessions_heap_bytes(),
            "incremental account drifts from the exact walk"
        );
        // Ending sessions must subtract their bytes (the gauge regression
        // this PR fixes): after all end, only empty shard tables remain.
        for s in sessions {
            assert!(p.end_session(s));
        }
        assert_eq!(p.sessions_heap_bytes_fast(), p.sessions_heap_bytes());
        assert_eq!(p.session_count(), 0);
        let residual = p.sessions_heap_bytes();
        let tables_only: usize = (0..SESSION_SHARDS)
            .map(|i| p.shards[i].read().capacity() * std::mem::size_of::<(u64, SessionState)>())
            .sum();
        assert_eq!(residual, tables_only, "ended sessions left bytes behind");
    }

    #[test]
    fn compaction_does_not_resurrect_stale_denials() {
        // With the deny cache stamped by fact *count* this sequence could
        // go stale: duplicate probes push then compact away facts, so the
        // count can repeat while the knowledge changed. The version stamp
        // is monotone through both pushes and compaction removals.
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        // Template-undecidable: the fetch reaches the deny cache.
        let fetch = "SELECT * FROM Events WHERE EId = 2";
        let probe = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        assert!(!p.execute(s, fetch, &[]).unwrap().is_allowed());
        assert!(p.execute(s, probe, &[]).unwrap().is_allowed());
        assert!(p.execute(s, probe, &[]).unwrap().is_allowed());
        assert!(
            p.execute(s, fetch, &[]).unwrap().is_allowed(),
            "stale denial served"
        );
    }

    #[test]
    fn proxy_snapshot_roundtrip_preloads_the_plan_cache() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bep-proxy-snap-{}.bin", std::process::id()));
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        // Literal-bearing statements are saved as their shapes: a
        // template-allowed probe and a template-undecidable fetch, each
        // run with two literals.
        let script = [
            sql,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 3",
            "SELECT * FROM Events WHERE EId = 2",
            "SELECT * FROM Events WHERE EId = 3",
        ];
        let shapes = [
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?__lit0",
            "SELECT * FROM Events WHERE EId = ?__lit0",
        ];
        let run = |p: &SqlProxy| {
            let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
            (script.iter())
                .map(|q| p.execute(s, q, &[]).unwrap())
                .collect::<Vec<_>>()
        };

        let p1 = proxy(ProxyConfig::default());
        let cold = run(&p1);
        assert_eq!(p1.stats().template_proofs, 2, "a cold start proves");
        let save = p1.save_snapshot(&path).unwrap();
        assert_eq!(save.entries, 3, "one plan per shape");

        let p2 = proxy(ProxyConfig::default());
        assert!(p2.plan_cache().get(sql).is_none(), "fresh proxy is cold");
        let report = p2.load_snapshot(&path).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(report.rejected, 0);
        let plan = p2.plan_cache().get(sql).expect("snapshot preloaded plan");
        assert!(matches!(
            plan.select().unwrap().template,
            Some(TemplateVerdict::Allowed(_))
        ));
        for shape in shapes {
            let plan = p2
                .plan_cache()
                .get(shape)
                .expect("snapshot preloaded shape");
            assert!(!plan.exact_only(), "{shape}");
        }
        // The warm plans must decide identically to a cold compile, and
        // without a proof: that is what a warm start saves.
        assert_eq!(run(&p2), cold);
        assert_eq!(p2.stats().template_proofs, 0, "the warm start re-proved");
        assert_eq!(p2.plan_cache().len(), 3, "no literal text was compiled");
        let text = p2.metrics_text();
        assert!(
            text.contains("bep_snapshot_entries{outcome=\"loaded\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("bep_snapshot_bytes"), "{text}");

        // One flipped byte: the load fails typed, installs nothing, and the
        // proxy then decides exactly like a cold one.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let p3 = proxy(ProxyConfig::default());
        let err = p3.load_snapshot(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch), "{err}");
        assert!(
            p3.plan_cache().get(sql).is_none(),
            "corrupt snapshot installed a plan"
        );
        assert_eq!(run(&p3), cold);
        let (c, f) = (p1.stats(), p3.stats());
        assert_eq!(
            (f.allowed, f.blocked, f.template_proofs),
            (c.allowed, c.blocked, c.template_proofs)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_gauges_read_procfs() {
        // On Linux hosts procfs is present and a running process has a
        // nonzero RSS; elsewhere the reading degrades to zero.
        let m = crate::obs::read_process_memory();
        if std::path::Path::new("/proc/self/statm").exists() {
            assert!(m.resident_bytes > 0, "{m:?}");
            assert!(m.peak_resident_bytes >= m.resident_bytes / 2, "{m:?}");
        }
    }

    #[test]
    fn stats_and_metrics_read_the_same_atomics() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        for _ in 0..3 {
            p.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[])
                .unwrap();
        }
        let stats = p.stats();
        let text = p.metrics_text();
        assert!(text.contains(&format!(
            "bep_decisions_total{{decision=\"allowed\"}} {}\n",
            stats.allowed
        )));
        assert!(text.contains(&format!(
            "bep_cache_hits_total{{tier=\"template\"}} {}\n",
            stats.template_cache_hits
        )));
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

    #[test]
    fn prepare_then_execute_planned_skips_the_proof() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
        let plan = p.prepare(sql);
        assert_eq!(plan.hash(), template_hash(sql));
        assert_eq!(p.stats().template_proofs, 0, "prepare is not a decision");
        let r = p.execute_planned(s, &plan, &[]).unwrap();
        assert!(r.is_allowed());
        let stats = p.stats();
        // Replaying a prepared template-allowed plan is a cache hit, never
        // a proof — the proof happened (uncounted) at prepare time.
        assert_eq!(stats.template_proofs, 0);
        assert_eq!(stats.template_cache_hits, 1);
        // `execute` of the same SQL reuses the prepared plan.
        assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        assert_eq!(p.stats().template_cache_hits, 2);
        assert_eq!(p.plan_cache().len(), 1);
    }

    #[test]
    fn execute_planned_checks_the_session() {
        let p = proxy(ProxyConfig::default());
        let plan = p.prepare("SELECT EId FROM Attendance WHERE UId = ?MyUId");
        let err = p.execute_planned(4242, &plan, &[]).unwrap_err();
        assert_eq!(err, CoreError::NoSuchSession(4242));
        // A prepared parse error replays as Blocked, like `execute`.
        let bad = p.prepare("SELEC whoops");
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        let r = p.execute_planned(s, &bad, &[]).unwrap();
        assert!(matches!(
            r,
            ProxyResponse::Blocked(DenyReason::ParseError(_))
        ));
    }

    #[test]
    fn spans_summarize_solver_work_onto_events() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.execute(
            s,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event",
            &[("event".into(), Value::Int(2))],
        )
        .unwrap();
        p.execute(
            s,
            "SELECT * FROM Events WHERE EId = ?event",
            &[("event".into(), Value::Int(2))],
        )
        .unwrap();

        let events = p.journal().recent(usize::MAX, None);
        assert_eq!(events.len(), 2);
        // The trace-dependent Q2 runs a concrete proof: real solver work,
        // and with no certificate (its template is undecidable) its one
        // disjunct falls back to the full search.
        let q2 = events.last().unwrap();
        assert!(
            q2.span.containment_checks > 0 || q2.span.rewrite_iterations > 0,
            "concrete proof left no solver footprint: {:?}",
            q2.span
        );
        assert_eq!((q2.span.cert_replays, q2.span.cert_fallbacks), (0, 1));
        // The exposition carries the solver and memory families.
        let text = p.metrics_text();
        assert!(text.contains("bep_span_solver_total{counter=\"containment-checks\"}"));
        assert!(text.contains("bep_mem_bytes{component=\"plan-cache\"}"));
        assert!(text.contains("bep_mem_bytes{component=\"session-state\"}"));
        assert!(text.contains("bep_mem_bytes{component=\"journal\"}"));
        assert!(text.contains("bep_policy_lint_warnings 0\n"));
    }

    #[test]
    fn each_decision_carries_only_its_own_solver_work() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        for _ in 0..3 {
            let r = p.execute(s, "SELECT EId FROM Attendance WHERE UId = ?MyUId", &[]);
            assert!(r.unwrap().is_allowed());
        }
        let events = p.journal().recent(usize::MAX, None);
        let tiers: Vec<CacheTier> = events.iter().map(|e| e.tier).collect();
        assert_eq!(
            tiers,
            [
                CacheTier::TemplateProof,
                CacheTier::TemplateCache,
                CacheTier::TemplateCache
            ]
        );
        // The first statement compiled the plan and paid the symbolic
        // proof; none of that work may spill into the hits decided after it.
        assert!(events[0].span.containment_checks > 0, "{events:?}");
        for hit in &events[1..] {
            assert_eq!(hit.span.containment_checks, 0, "{hit:?}");
            assert_eq!(hit.span.rewrite_iterations, 0, "{hit:?}");
        }

        // A `prepare` proves its fresh template on this thread, outside any
        // decision: the replay after it must not be charged that proof.
        let plan = p.prepare("SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = 2");
        assert!(qlogic::probe::peek().containment_checks > 0);
        assert!(p.execute_planned(s, &plan, &[]).unwrap().is_allowed());
        let replay = p.journal().recent(1, None)[0];
        assert_eq!(replay.tier, CacheTier::TemplateCache);
        assert_eq!(replay.span.containment_checks, 0, "{replay:?}");
    }

    #[test]
    fn ending_a_session_records_its_state_size() {
        let p = proxy(ProxyConfig::default());
        let s = p.begin_session(vec![("MyUId".into(), Value::Int(1))]);
        p.execute(
            s,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = ?event",
            &[("event".into(), Value::Int(2))],
        )
        .unwrap();
        let live = p.session_heap_bytes(s).expect("session is live");
        assert!(live > 0, "a traced session owns heap");
        assert!(p.sessions_heap_bytes() >= live);
        assert!(p.end_session(s));
        assert_eq!(p.session_heap_bytes(s), None);
        let text = p.metrics_text();
        assert!(text.contains("bep_session_state_bytes_count 1\n"), "{text}");
        // The recorded size is the session's final footprint (p50 of one
        // sample sits in the same log bucket as the live reading).
        assert!(text.contains("bep_session_state_bytes_sum"), "{text}");
    }

    #[test]
    fn lint_counter_tracks_warnings() {
        // Only V1 (projecting EId alone): selecting Notes can never be
        // covered, which is exactly what the lint warns about.
        let db = calendar_db();
        let schema = schema_of_database(&db);
        let policy = Policy::from_sql(
            &schema,
            &[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")],
        )
        .unwrap();
        let p = SqlProxy::new(
            db,
            ComplianceChecker::new(schema, policy),
            ProxyConfig::default(),
        );
        let warnings = p.lint_templates([
            "SELECT EId FROM Attendance WHERE UId = ?MyUId",
            "SELECT Notes FROM Attendance WHERE UId = ?MyUId",
        ]);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("Attendance.Notes"), "{}", warnings[0]);
        let text = p.metrics_text();
        assert!(text.contains("bep_policy_lint_warnings 1\n"), "{text}");
    }
}
