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
//! verdict itself with its rewriting certificates. Plans live in a
//! bounded [`PlanCache`] keyed by their SQL text, each under an id the
//! cache never gives out again; a warm request performs no tokenizing, no
//! parsing, no translation, and allocates no `String` for any cache key.
//!
//! A text that inlines its values is a template too: `execute` lifts its
//! literals into reserved parameters and decides its *shape* with them
//! bound, so a probe family shares one plan instead of compiling one per
//! value (`SqlProxy::resolve`).
//!
//! On top of the plan, the decision caches amortize proof cost:
//!
//! * the plan's *template verdict*: `Allowed` plays the role of the old
//!   global template cache (proven with parameters symbolic, valid for
//!   every session and history); `Undecidable` plays the role of the old
//!   negative template cache, so the expensive symbolic proof runs at most
//!   once per template (a miss compiles under the state lock, so a racing
//!   statement finds the plan instead of proving it twice).
//!   An `Undecidable` plan replays the certificates earlier concrete
//!   proofs taught it — in any session — through a verification-only
//!   check before falling back to the full rewriting search; acceptance is
//!   still a proof over the requesting session's facts. And
//! * a per-session *concrete cache* of allowed (plan, bindings) pairs,
//!   keyed by `ConcreteKey`: the plan's id and the value of each parameter
//!   the decision can read (the statement's and the policy views'),
//!   compared exactly, so a binding nothing reads shares the entry — sound
//!   to reuse because compliance is monotone
//!   in what the trace entails, and what a session's trace entails only
//!   grows between revocations (compaction removes only facts implied by
//!   the ones it keeps; a write revokes, and clears the cache). Concrete
//!   *denials* are cached too, for the [`Trace::version`] they were proved
//!   at: new facts can flip a denial (never the reverse), so the deny tier
//!   is emptied whenever the session's trace version moves.
//!
//! Every request takes this one path. The specification it is tested
//! against is the cache-free [`ComplianceChecker`] (`check_template`,
//! `check_concrete`) and [`crate::write`]'s `compile_write_template` /
//! `check_write_concrete`, which the differential tests call per request.
//!
//! # Concurrency model
//!
//! The whole decision path takes `&self`, and `SqlProxy` is `Send + Sync`:
//! any thread may call it. A statement decides under one lock and
//! publishes its event under a second, after it releases the first:
//!
//! * **State** — the wrapped [`minidb::Database`] with its write epochs
//!   (`door.rs`'s `Store`), every live session's `SessionState`, the
//!   [`PlanCache`], the counters and both histograms, behind one `Mutex`.
//!   `execute` takes it once, before its plan lookup, and holds it through
//!   the whole statement: the lookup (lifting and compiling on a miss),
//!   the session's sync to the write epoch, the session lookup and
//!   binding merge, `decide`, the permit's run, `observe`,
//!   `SessionState::apply`, the counting, the learned certificates'
//!   write-back and the latency sample. So no write lands between a
//!   session's sync and the read its permit allows, nothing lands between
//!   a decision and its write-back, and a template compiles once however
//!   many statements miss on it together.
//!   Statements decide one at a time. Every decision in this repository
//!   runs on one thread (the reactor, or an embedding's caller), so
//!   nothing waits on it there; the sharded design this lock replaced
//!   never measured a parallel speed-up (EXPERIMENTS.md T7).
//! * **Checker** — [`ComplianceChecker`] is immutable after construction and
//!   shared freely. A proof runs under the state lock and takes no lock.
//! * **Statistics** — plain integers in the locked state, beside the
//!   store and the sessions. A statement counts them inside the one
//!   acquisition it decides under, so [`SqlProxy::stats`] and
//!   [`SqlProxy::metrics_text`] copy the same integers, and a snapshot
//!   never holds half a statement. One function (`Counts::count`) writes
//!   them, from the statement's kind, its decision's `Outcome` provenance,
//!   what the store returned and its solver work; the decision itself
//!   counts nothing. The two histograms (decision latency, ended sessions'
//!   sizes) are recorded under the same lock; the point-in-time gauges
//!   (live sessions, journal, memory) are read when the exposition is
//!   written.
//! * **Provenance** — each `execute` laps a [`PhaseTimer`] across the
//!   decision phases (`decide` reports its boundaries through a callback),
//!   rolls up the solver work it did under the state lock, and `publish`
//!   hands one [`DecisionEvent`] to the [`EventJournal`], after the state
//!   lock is released: it takes the journal's lock once per statement, for
//!   the copy of one event. A reader holds that lock while it copies at
//!   most one page out (the server caps a `journal` page at 512 events),
//!   so that copy is the longest a decision can wait on it.
//!
//! ## Soundness under concurrency
//!
//! *Template verdict*: the symbolic proof depends only on the query
//! template and the policy, and the policy is immutable for the proxy's
//! lifetime — a compiled `Undecidable` is permanent, so never re-proving
//! it cannot change any decision, only its cost. Plan *eviction* is
//! likewise cost-only: recompiling a template reproduces the identical
//! plan under a new id, so it starts with no session-cache entries, and no
//! entry of the evicted plan's id is ever read again.
//!
//! *Deny cache*: every denial in it was proved at the trace's current
//! [`Trace::version`], since the tier is emptied whenever the version
//! moves. The version moves on every fact the trace adds *and* every fact
//! compaction or revocation removes, so a denial is replayed only over the
//! identical fact set, i.e. the identical proof obligation.
//!
//! *Allow cache*: compliance is monotone in what the trace entails, and
//! between two revocations the set of facts a session's trace entails only
//! grows (compaction drops a fact only when what remains implies it), so
//! an allow proved under an earlier fact set stays valid until the next
//! revocation, which clears the cache. A revocation happens only at a
//! statement's sync, under the state lock the statement then decides and
//! writes back under, so an allow is always stored at the epoch it was
//! proved at.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use minidb::{Database, Rows};
use parking_lot::Mutex;
use sqlir::{
    is_lifted_name, lift_literals, params_in_bind_order, parse_statement, unbound_error, Value,
};

use crate::checker::ComplianceChecker;
use crate::decide::{decide, observe, Kind, Outcome, Provenance, SessionState};
use crate::decision::DenyReason;
use crate::door::{Permit, Store};
use crate::error::CoreError;
use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::mem::HeapUsage;
use crate::obs::{
    read_process_memory, write_family, write_summary, CacheTier, DecisionEvent, EventJournal,
    Phase, PhaseTimer, Verdict,
};
use crate::plan::{PlanCache, TemplatePlan, PLAN_CAPACITY};
use crate::span::SpanSummary;
use crate::trace::Trace;

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

/// Counters for reporting. A value of this type is a snapshot; the live
/// counters are plain integers in the proxy's locked state.
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
    /// Per-decision latency of [`SqlProxy::execute`], from the histogram
    /// behind `bep_decision_latency_ns` (percentiles within 2% of the exact
    /// sample; the exposition's `bep_decision_latency_ns` summary reports
    /// these). Every `execute` records one sample, under the lock it
    /// counts under.
    pub latency: LatencySnapshot,
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
/// `Arc` or scoped borrows; statements decide one at a time under its state
/// lock (module docs, "Concurrency model").
pub struct SqlProxy {
    /// The database, every live session, the compiled plans and the
    /// counters, behind the one lock a statement holds from its plan
    /// lookup to its latency sample.
    state: Mutex<State>,
    checker: ComplianceChecker,
    config: ProxyConfig,
    journal: EventJournal,
}

/// Everything statements read and write but the journal.
struct State {
    /// The database and its write epochs: reached only through a
    /// [`Permit`].
    store: Store,
    sessions: Sessions,
    /// The id the next session is given.
    next_session: u64,
    plans: PlanCache,
    counts: Counts,
    /// End-to-end `execute` latency (`bep_decision_latency_ns`).
    latency: LatencyHistogram,
    /// Heap bytes of each session's state at the moment it ended
    /// (`bep_session_state_bytes`; recorded once per session, so scrapes
    /// never double-count a live session).
    session_state_bytes: LatencyHistogram,
}

impl State {
    /// Heap bytes of the plan cache and of every live session, walked.
    fn heap_bytes(&self) -> [usize; 2] {
        [self.plans.heap_bytes(), sessions_heap_bytes(&self.sessions)]
    }

    /// Lifetime cache evictions per tier, in `bep_cache_evictions_total`
    /// label order: plan, session-allow, session-deny.
    fn eviction_counts(&self) -> [(&'static str, u64); 3] {
        let [allow, deny] = self.counts.session_evictions;
        [
            ("plan", self.plans.evicted_plans()),
            ("session-allow", allow),
            ("session-deny", deny),
        ]
    }
}

/// The proxy's lifetime counters. A statement counts under the state lock
/// it decides under, so [`SqlProxy::stats`] and [`SqlProxy::metrics_text`]
/// copy the same integers, and never half a statement.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Every [`ProxyStats`] counter; its `latency` stays empty (the
    /// histogram is [`State::latency`]).
    stats: ProxyStats,
    /// Fresh concrete proofs that denied
    /// (`bep_proofs_total{kind="concrete-denied"}`). `ProxyStats` is built
    /// by struct literal outside this crate, so it has no field.
    concrete_denied: u64,
    /// Solver work of the statements that ran
    /// (`bep_span_solver_total{counter=...}`): rewrite iterations,
    /// containment checks, hom nodes, hom backtracks — in that order.
    solver: [u64; 4],
    /// Session allow- and deny-cache evictions, in that order.
    session_evictions: [u64; 2],
    /// Policy-lint warnings emitted (`bep_policy_lint_warnings`).
    lint_warnings: u64,
}

impl Counts {
    /// Counts one statement from its kind, its decision's provenance, what
    /// the store returned and the solver work it did; returns what to
    /// publish, or `None` for a statement that did not run. Only an allowed
    /// statement reaches the store, so a store error is an allowed verdict
    /// that did not run: it counts its tier and `write_allowed`, not
    /// `allowed`, `writes` or its solver work.
    fn count(
        &mut self,
        kind: Kind<'_>,
        prov: Provenance,
        result: &Result<ProxyResponse, CoreError>,
        span: SpanSummary,
    ) -> Decided {
        let s = &mut self.stats;
        let response = result.as_ref().ok();
        let allowed = response.is_none_or(ProxyResponse::is_allowed);
        match prov.tier {
            // A template verdict that blocks (a never-covered write) is no
            // proof or hit of the allowing kind these count.
            CacheTier::TemplateProof if allowed => s.template_proofs += 1,
            CacheTier::TemplateCache if allowed => s.template_cache_hits += 1,
            CacheTier::SessionCache => s.session_cache_hits += 1,
            CacheTier::DenyCache => s.deny_cache_hits += 1,
            CacheTier::ConcreteProof if allowed => s.concrete_proofs += 1,
            CacheTier::ConcreteProof => self.concrete_denied += 1,
            _ => {}
        }
        s.template_negative_hits += prov.negative_template_hit as u64;
        let ran = response.is_some();
        match (kind, response) {
            (kind, Some(ProxyResponse::Blocked(reason))) => {
                s.blocked += 1;
                // A malformed write (an unbound parameter) is blocked
                // before any tier, so it is no write decision.
                let malformed = matches!(reason, DenyReason::ParseError(_));
                if matches!(kind, Kind::Write(_)) && !malformed {
                    s.write_blocked += 1;
                }
            }
            (Kind::Read(_), _) => s.allowed += ran as u64,
            // A write or a passthrough: malformed text is always blocked.
            (kind, _) => {
                match kind {
                    Kind::Write(_) => s.write_allowed += 1,
                    _ => s.write_passthrough += 1,
                }
                s.writes += ran as u64;
            }
        }
        if !ran {
            return None;
        }
        let solver = [
            span.rewrite_iterations,
            span.containment_checks,
            span.hom_nodes,
            span.hom_backtracks,
        ];
        for (total, n) in self.solver.iter_mut().zip(solver) {
            *total += u64::from(n);
        }
        let verdict = match allowed {
            true => Verdict::Allowed,
            false => Verdict::Blocked,
        };
        Some((verdict, prov, span))
    }
}

/// Live sessions by id. The proxy mints every id, so the table needs no
/// random hash keys; fixed ones make its layout, and so the slots
/// [`sessions_heap_bytes`] counts (tombstones lower `capacity()`), the
/// same on every run of the same traffic.
type Sessions = HashMap<u64, SessionState, BuildHasherDefault<DefaultHasher>>;

impl SqlProxy {
    /// Wraps a database with enforcement.
    pub fn new(db: Database, checker: ComplianceChecker, config: ProxyConfig) -> SqlProxy {
        SqlProxy {
            state: Mutex::new(State {
                store: Store::new(db),
                sessions: Sessions::default(),
                next_session: 1,
                plans: PlanCache::with_budget(PLAN_CAPACITY, config.plan_budget_bytes),
                counts: Counts::default(),
                latency: LatencyHistogram::new(),
                session_state_bytes: LatencyHistogram::new(),
            }),
            checker,
            config,
            journal: EventJournal::with_capacity(config.journal_capacity),
        }
    }

    /// Opens a session with the given policy-parameter bindings
    /// (e.g. `MyUId = 1`).
    pub fn begin_session(&self, bindings: Vec<(String, Value)>) -> u64 {
        let session = SessionState::new(bindings, self.config.session_cache_budget_bytes);
        let mut state = self.state.lock();
        let id = state.next_session;
        state.next_session += 1;
        state.sessions.insert(id, session);
        id
    }

    /// Ends a session, discarding its trace. Idempotent: ending an already
    /// ended (or never begun) session is a no-op, and the return value says
    /// whether the session was live. The session's final state size,
    /// walked, is recorded into the `bep_session_state_bytes` histogram
    /// under the state lock; the session is freed after the lock is
    /// released, so no other statement waits for its trace to be dropped.
    pub fn end_session(&self, id: u64) -> bool {
        let ended = {
            let mut state = self.state.lock();
            let Some(session) = state.sessions.remove(&id) else {
                return false;
            };
            let bytes = session.heap_bytes() as u64;
            state
                .session_state_bytes
                .record(Duration::from_nanos(bytes));
            session
        };
        drop(ended);
        true
    }

    /// Ends every session in `ids`, returning how many were live, each as
    /// [`end_session`](Self::end_session) does: freed outside the lock.
    /// The server's connection teardown and orphan sweep use this to
    /// reclaim sessions whose client vanished without `End`ing them.
    pub fn end_sessions(&self, ids: impl IntoIterator<Item = u64>) -> usize {
        ids.into_iter().filter(|&id| self.end_session(id)).count()
    }

    /// Number of currently live sessions.
    pub fn session_count(&self) -> usize {
        self.state.lock().sessions.len()
    }

    /// Execution counters: an exact snapshot, copied under the state lock,
    /// so it never holds half a statement even under live traffic (every
    /// counter of a statement, and its latency sample, moves under the one
    /// lock acquisition it decides under).
    pub fn stats(&self) -> ProxyStats {
        let state = self.state.lock();
        ProxyStats {
            latency: state.latency.snapshot(),
            ..state.counts.stats
        }
    }

    /// The decision-event journal: one [`DecisionEvent`] per decided
    /// statement.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Renders the Prometheus text exposition. The counters, histograms,
    /// live sessions and the plan cache's and sessions' heap bytes are
    /// copied under one acquisition of the state lock; the journal, the
    /// process memory and the symbol interner's resident bytes
    /// (`bep_mem_bytes{component="symbols"}`, process-wide and outside
    /// [`component_heap_bytes`](Self::component_heap_bytes)) are read as
    /// the text is written.
    pub fn metrics_text(&self) -> String {
        let state = self.state.lock();
        let counts = state.counts;
        let live = state.sessions.len() as u64;
        let heap = state.heap_bytes();
        let [plan, allow, deny] = state.eviction_counts();
        let (latency, sizes) = (
            state.latency.snapshot(),
            state.session_state_bytes.snapshot(),
        );
        drop(state);
        let s = &counts.stats;
        let memory = read_process_memory();
        let components = self.components(heap);
        let mut out = String::new();
        let counter = |out: &mut String, name, help, label, samples: &[(&str, u64)]| {
            write_family(out, name, help, "counter", label, samples)
        };
        let gauge = |out: &mut String, name, help, value| {
            write_family(out, name, help, "gauge", "", &[("", value)])
        };
        counter(
            &mut out,
            "bep_decisions_total",
            "Decisions by final verdict",
            "decision",
            &[("allowed", s.allowed), ("blocked", s.blocked)],
        );
        counter(
            &mut out,
            "bep_cache_hits_total",
            "Cache hits by the tier that short-circuited the work",
            "tier",
            &[
                ("template", s.template_cache_hits),
                ("negative-template", s.template_negative_hits),
                ("session", s.session_cache_hits),
                ("deny", s.deny_cache_hits),
            ],
        );
        counter(
            &mut out,
            "bep_proofs_total",
            "Fresh proofs by kind",
            "kind",
            &[
                ("template", s.template_proofs),
                ("concrete", s.concrete_proofs),
                ("concrete-denied", counts.concrete_denied),
            ],
        );
        counter(
            &mut out,
            "bep_writes_total",
            "DML statements passed through",
            "",
            &[("", s.writes)],
        );
        counter(
            &mut out,
            "bep_write_decisions_total",
            "Write decisions by verdict",
            "verdict",
            &[
                ("allowed", s.write_allowed),
                ("blocked", s.write_blocked),
                ("passthrough", s.write_passthrough),
            ],
        );
        counter(
            &mut out,
            "bep_unchecked_statements_total",
            "Statements executed with enforcement bypassed",
            "",
            &[("", s.unchecked_statements)],
        );
        write_summary(
            &mut out,
            "bep_decision_latency_ns",
            "End-to-end execute latency in nanoseconds",
            latency,
        );
        gauge(&mut out, "bep_sessions", "Live sessions", live);
        gauge(
            &mut out,
            "bep_journal_published",
            "Decision events ever published to the journal",
            self.journal.published(),
        );
        gauge(
            &mut out,
            "bep_journal_evicted",
            "Journal events evicted by ring wrap-around",
            self.journal.evicted(),
        );
        gauge(
            &mut out,
            "bep_process_resident_bytes",
            "Resident set size (RSS) of this process in bytes",
            memory.resident_bytes,
        );
        gauge(
            &mut out,
            "bep_process_vm_hwm_bytes",
            "Peak resident set size (VmHWM) of this process in bytes",
            memory.peak_resident_bytes,
        );
        let [rw, cc, hn, hb] = counts.solver;
        counter(
            &mut out,
            "bep_span_solver_total",
            "Solver work rolled up from decision span summaries",
            "counter",
            &[
                ("rewrite-iterations", rw),
                ("containment-checks", cc),
                ("hom-nodes", hn),
                ("hom-backtracks", hb),
            ],
        );
        let [plan_cache, session_state, journal, _] = components.map(|(c, b)| (c, b as u64));
        let symbols = ("symbols", qlogic::sym::resident_bytes() as u64);
        write_family(
            &mut out,
            "bep_mem_bytes",
            "Heap bytes currently owned, by component",
            "gauge",
            "component",
            &[plan_cache, session_state, journal, symbols],
        );
        write_summary(
            &mut out,
            "bep_session_state_bytes",
            "Heap bytes of a session's state when it ended",
            sizes,
        );
        counter(
            &mut out,
            "bep_policy_lint_warnings",
            "Startup policy-lint warnings (handler columns missing from view heads)",
            "",
            &[("", counts.lint_warnings)],
        );
        counter(
            &mut out,
            "bep_cache_evictions_total",
            "Bounded-cache evictions by tier (SIEVE)",
            "tier",
            &[plan, allow, deny],
        );
        out
    }

    /// Point-in-time heap bytes per retaining component, in the same
    /// order as the `bep_mem_bytes{component=...}` gauges, then their
    /// `total` (which has no gauge of its own). Every component is walked
    /// when asked, session state included: a call costs a pass over every
    /// live session's trace and caches, and nothing is kept up to date
    /// between calls.
    pub fn component_heap_bytes(&self) -> [(&'static str, usize); 4] {
        let heap = self.state.lock().heap_bytes();
        self.components(heap)
    }

    /// [`component_heap_bytes`](Self::component_heap_bytes) with the plan
    /// cache and the session state already walked.
    fn components(&self, [plan, sessions]: [usize; 2]) -> [(&'static str, usize); 4] {
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
        self.state.lock().eviction_counts()
    }

    /// Distribution of per-session state sizes, recorded once per session
    /// when it ends. The histogram reuses the latency machinery, so every
    /// `_ns` field of the snapshot reads as **bytes**.
    pub fn session_state_size_snapshot(&self) -> LatencySnapshot {
        self.state.lock().session_state_bytes.snapshot()
    }

    /// Runs the startup policy lints over a set of SQL templates (e.g. an
    /// application's handler bodies), counting each warning into
    /// `bep_policy_lint_warnings`. Advisory: enforcement is unchanged.
    pub fn lint_templates<'a>(&self, templates: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let warnings = crate::lint::lint_templates(&self.checker, templates);
        self.state.lock().counts.lint_warnings += warnings.len() as u64;
        warnings
    }

    /// A copy of the wrapped database (e.g. for test assertions), cloned
    /// under the state lock and returned after it is released.
    pub fn database(&self) -> Database {
        self.state.lock().store.db.clone()
    }

    /// Runs `f` with the compiled-plan cache (observability and tests),
    /// under the state lock, which is not reentrant: a proxy call from
    /// inside `f` deadlocks.
    pub fn with_plan_cache<R>(&self, f: impl FnOnce(&mut PlanCache) -> R) -> R {
        f(&mut self.state.lock().plans)
    }

    /// A session's trace size: `(entries, facts)`, read under the state
    /// lock without copying the trace.
    pub fn session_trace_len(&self, id: u64) -> Result<(usize, usize), CoreError> {
        (self.state.lock().sessions)
            .get(&id)
            .map(|s| (s.trace.len(), s.trace.facts().len()))
            .ok_or(CoreError::NoSuchSession(id))
    }

    /// A clone of a session's trace (for diagnosis). Cloned rather than
    /// borrowed so the state lock does not outlive the call.
    pub fn session_trace(&self, id: u64) -> Result<Trace, CoreError> {
        (self.state.lock().sessions)
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
    /// One statement from clock start to published event: under one
    /// acquisition of the state lock, `decide_and_run` looks up (or
    /// compiles) the plan, decides, executes, applies and counts, and the
    /// latency is recorded; after the lock is released, `publish` hands the
    /// event to the journal. May be called from any thread.
    pub fn execute(
        &self,
        session_id: u64,
        sql: &str,
        extra_bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        // The decision runs on this thread, so the solver counters
        // `decide_and_run` takes are this decision's work alone once
        // whatever accumulated before it (any other solver use on this
        // thread) is discarded here.
        qlogic::probe::take();
        let t0 = Instant::now();
        let mut timer = PhaseTimer::start();
        let mut state = self.state.lock();
        let (hash, decided, result) =
            self.decide_and_run(&mut state, session_id, sql, extra_bindings, &mut timer);
        let total = t0.elapsed();
        state.latency.record(total);
        drop(state);
        self.publish(session_id, hash, total, &timer, decided);
        result
    }

    /// Which plan in `plans` `execute` decides `sql` by: its text, whether
    /// this request compiled it, and the lifted literals' bindings it needs.
    ///
    /// A text that has a plan of its own — it inlines nothing liftable, or
    /// it is decided by its exact text — takes it at once. Otherwise its
    /// literals are lifted and its *shape*'s plan decides, bound to the
    /// lifted values: the instantiated shape is the statement, so the
    /// verdict is the literal text's, and the shape's template hash is the
    /// one the journal records. The exact text is compiled instead, as
    /// without lifting, when nothing lifts, when two lifted literals are
    /// equal (a proof may join on that equality; the shape's parameters are
    /// distinct symbols), or when the shape is
    /// [`exact_only`](TemplatePlan::exact_only).
    fn resolve<'s>(
        &self,
        plans: &mut PlanCache,
        sql: &'s str,
        timer: &mut PhaseTimer,
    ) -> (Cow<'s, str>, bool, Vec<(String, Value)>) {
        if plans.get(sql).is_some() {
            timer.lap(Phase::TemplateLookup);
            return (Cow::Borrowed(sql), false, Vec::new());
        }
        let lifted = lift_literals(sql).filter(|l| {
            let b = &l.bindings;
            !(0..b.len()).any(|i| b[i + 1..].iter().any(|(_, v)| *v == b[i].1))
        });
        timer.lap(Phase::Parse);
        if let Some(lifted) = lifted {
            let (plan, built) = self.plan_for(plans, &lifted.shape, timer);
            if !plan.exact_only() {
                return (Cow::Owned(lifted.shape), built, lifted.bindings);
            }
        }
        let built = self.plan_for(plans, sql, timer).1;
        (Cow::Borrowed(sql), built, Vec::new())
    }

    /// Resolves the plan of one statement, decides it, runs its permit if
    /// allowed, applies its effects and counts it, in order:
    /// [`resolve`](Self::resolve) and one borrow of the plan it names; a
    /// parse error is answered before the session lookup, since it never
    /// depends on the session; otherwise the session's sync to the write
    /// epoch, its lookup and the binding merge (a request binding that
    /// rebinds a session binding is answered there), [`decide`], the
    /// permit's run, [`observe`], [`SessionState::apply`], [`Counts::count`]
    /// and [`TemplatePlan::keep_learned`]. Returns the plan's template hash,
    /// which the journal records with what it publishes.
    fn decide_and_run(
        &self,
        state: &mut State,
        session_id: u64,
        sql: &str,
        extra_bindings: &[(String, Value)],
        timer: &mut PhaseTimer,
    ) -> (u64, Decided, Result<ProxyResponse, CoreError>) {
        let State {
            store,
            sessions,
            plans,
            counts,
            ..
        } = state;
        let (text, built, lifted) = self.resolve(plans, sql, timer);
        let plan = plans.get_mut(&text).expect("resolved");
        let hash = plan.hash();
        let kind = Kind::of(plan.body(), self.config.enforce_writes);
        // Blocked before any tier counts or caches a verdict for it.
        let mut malformed = |msg: String| {
            let result = Ok(ProxyResponse::Blocked(DenyReason::ParseError(msg)));
            let span = SpanSummary::new(qlogic::probe::take(), 0, 0);
            let decided = counts.count(kind, Provenance::default(), &result, span);
            (hash, decided, result)
        };
        if let Kind::Malformed(msg) = kind {
            return malformed(msg.to_string());
        }
        let Some(session) = sessions.get_mut(&session_id) else {
            return (hash, None, Err(CoreError::NoSuchSession(session_id)));
        };
        if session.synced != store.epoch() {
            session.sync(store.epoch(), &store.written_since(session.synced));
        }
        let merged = match merge_bindings(&session.bindings, extra_bindings, lifted) {
            Ok(merged) => merged,
            Err(msg) => return malformed(msg),
        };
        let bindings = merged.as_deref().unwrap_or(&session.bindings);
        let Outcome {
            verdict,
            prov,
            remember,
            learned,
        } = decide(
            &self.checker,
            kind,
            plan.id(),
            built,
            session,
            bindings,
            &mut |phase| timer.lap(phase),
        );
        let result = match verdict {
            Ok(permit) => {
                let result = (permit.run(store, bindings))
                    .map(ProxyResponse::from)
                    .map_err(CoreError::from);
                timer.lap(Phase::DbExec);
                result
            }
            Err(reason) => Ok(ProxyResponse::Blocked(reason)),
        };
        // Writes never record trace facts: the trace stays a record of what
        // the session *observed*, so read decisions are the same with write
        // enforcement on or off. A remembered verdict is applied even when
        // the store failed: the decision stands.
        let record = match (kind, &result) {
            (Kind::Read(sp), Ok(ProxyResponse::Rows(rows))) => observe(sp, bindings, rows),
            _ => None,
        };
        let evicted = session.apply(remember, record, &mut |phase| timer.lap(phase));
        for (total, n) in counts.session_evictions.iter_mut().zip(evicted) {
            *total += n as u64;
        }
        let span = SpanSummary::new(
            qlogic::probe::take(),
            prov.cert_replays,
            prov.cert_fallbacks,
        );
        let decided = counts.count(kind, prov, &result, span);
        plan.keep_learned(learned);
        (hash, decided, result)
    }

    /// The tail of [`execute`](Self::execute), after the state lock is
    /// released: publishes the journal event of a statement that ran
    /// (`decided` is `None` for one that did not: a store error, or a
    /// session that does not exist).
    fn publish(
        &self,
        session_id: u64,
        hash: u64,
        total: Duration,
        timer: &PhaseTimer,
        decided: Decided,
    ) {
        let Some((verdict, prov, span)) = decided else {
            return;
        };
        self.journal.record(DecisionEvent {
            seq: 0, // assigned on publication
            session: session_id,
            template_hash: hash,
            verdict,
            tier: prov.tier,
            negative_template_hit: prov.negative_template_hit,
            total_ns: total.as_nanos().min(u64::MAX as u128) as u64,
            phase_ns: timer.phase_ns(),
            span,
        });
    }

    /// The compiled plan for a template, compiled into `plans` on a miss:
    /// `(plan, built)` where `built` says this call did the compilation
    /// (and its `Parse`/`Proof` laps are already attributed).
    fn plan_for<'c>(
        &self,
        plans: &'c mut PlanCache,
        sql: &str,
        timer: &mut PhaseTimer,
    ) -> (&'c TemplatePlan, bool) {
        let (plan, built) = plans.get_or_compile(&self.checker, sql, &mut |ph| timer.lap(ph));
        if !built {
            timer.lap(Phase::TemplateLookup);
        }
        (plan, built)
    }

    /// Executes without any enforcement (the F3 baseline), through one
    /// audited unchecked permit (`door.rs`): an `UPDATE` or `DELETE` run here
    /// revokes what sessions knew about its table, as any other does.
    pub fn execute_unchecked(
        &self,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        let stmt = parse_statement(sql)
            .map_err(|e| CoreError::Parse(e.to_string()))
            .and_then(
                |stmt| match unbound_error(&params_in_bind_order(&stmt), bindings) {
                    Some(missing) => Err(CoreError::Parse(missing.to_string())),
                    None => Ok(stmt),
                },
            );
        // Counted whether or not it parses: the bypass was asked for.
        let mut state = self.state.lock();
        state.counts.stats.unchecked_statements += 1;
        let result = Permit::unchecked(&stmt?).run(&mut state.store, bindings);
        Ok(result?.into())
    }
}

/// Heap bytes of every session in `sessions`, and of the table holding them.
fn sessions_heap_bytes(sessions: &Sessions) -> usize {
    sessions.capacity() * std::mem::size_of::<(u64, SessionState)>()
        + sessions
            .values()
            .map(SessionState::heap_bytes)
            .sum::<usize>()
}

/// What [`SqlProxy::publish`] publishes for a statement that ran: its
/// verdict, its decision's provenance and its solver work.
type Decided = Option<(Verdict, Provenance, SpanSummary)>;

/// The session bindings with the request's added, and the lifted
/// literals' over both: neither the statement nor a policy view may name a
/// lifted parameter, so a caller's binding in that namespace means nothing.
/// A request binding may repeat a session binding, but not rebind it: the
/// session's bindings are the request context the policy views are
/// instantiated with, so a different value is refused with the message
/// returned. `None` when nothing is added: the session bindings are read
/// in place, with no per-statement copy and no `String` clone.
fn merge_bindings(
    session_bindings: &[(String, Value)],
    extra_bindings: &[(String, Value)],
    lifted: Vec<(String, Value)>,
) -> Result<Option<Vec<(String, Value)>>, String> {
    let mut merged: Option<Vec<(String, Value)>> = None;
    for (k, v) in extra_bindings {
        match session_bindings.iter().find(|(n, _)| n == k) {
            Some((_, own)) if own == v => continue,
            Some((_, own)) => {
                return Err(format!(
                    "request binding ?{k} = {v} rebinds the session's ?{k} = {own}"
                ))
            }
            None => {}
        }
        let m = merged.get_or_insert_with(|| session_bindings.to_vec());
        m.retain(|(n, _)| n != k);
        m.push((k.clone(), v.clone()));
    }
    if !lifted.is_empty() {
        let m = merged.get_or_insert_with(|| session_bindings.to_vec());
        m.retain(|(n, _)| !is_lifted_name(n));
        m.extend(lifted);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::template_hash;
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
            assert_eq!(p.database().total_rows(), 4);
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
        let sessions_bytes = |p: &SqlProxy| p.component_heap_bytes()[1].1;
        let (before, state_bytes) = (state(&p), sessions_bytes(&p));
        assert!(!before.0.is_empty());

        for sql in reads.iter().cycle().take(9) {
            assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        }
        assert_eq!(state(&p), before);
        assert_eq!(sessions_bytes(&p), state_bytes);
        // The version has not moved: no proof, the deny tier answers.
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
        assert_eq!(p.session_trace_len(bogus).unwrap_err(), err);
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
    }

    #[test]
    fn compaction_does_not_resurrect_stale_denials() {
        // Had the deny tier been kept by fact *count* this sequence could
        // go stale: duplicate probes push then compact away facts, so the
        // count can repeat while the knowledge changed. The version is
        // monotone through both pushes and compaction removals, and every
        // move empties the tier.
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
    fn stats_and_metrics_read_the_same_counts() {
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

        let events = p.journal().events_since(0, usize::MAX);
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
        assert!(text.contains("bep_mem_bytes{component=\"symbols\"}"));
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
        let events = p.journal().events_since(0, usize::MAX);
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

        // A plan compiled into the cache outside any decision proves its
        // template on this thread: the `execute` that finds it is a cache
        // hit and must not be charged that proof.
        let sql = "SELECT EId FROM Attendance WHERE UId = ?MyUId AND EId = 2";
        p.with_plan_cache(|plans| {
            plans.get_or_compile(&p.checker, sql, &mut |_| {});
        });
        assert!(qlogic::probe::peek().containment_checks > 0);
        let proofs = p.stats().template_proofs;
        assert!(p.execute(s, sql, &[]).unwrap().is_allowed());
        let replay = p.journal().events_since(p.journal().published() - 1, 1)[0];
        assert_eq!(replay.tier, CacheTier::TemplateCache);
        assert_eq!(replay.span.containment_checks, 0, "{replay:?}");
        assert_eq!(p.stats().template_proofs, proofs);
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
        let heap = |p: &SqlProxy| {
            p.state
                .lock()
                .sessions
                .get(&s)
                .map(SessionState::heap_bytes)
        };
        let live = heap(&p).expect("session is live");
        assert!(live > 0, "a traced session owns heap");
        assert!(p.component_heap_bytes()[1].1 >= live);
        assert!(p.end_session(s));
        assert_eq!(heap(&p), None);
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
