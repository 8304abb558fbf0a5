//! Decision-provenance observability: the event journal and the metrics
//! registry.
//!
//! Enforcement alone is an opaque allow/deny; the paper's whole pitch (§5)
//! is that operators must be able to see *why* a decision came out the way
//! it did, and Blockaid's evaluation showed that *which cache tier fired*
//! dominates proxy latency. This module is the substrate both needs:
//!
//! * [`DecisionEvent`] — one structured record per [`SqlProxy::execute`]
//!   (session, query-template hash, verdict, the cache tier that decided,
//!   a per-phase timing breakdown, and the solver work it did) — the one
//!   per-decision record everything else reads;
//! * [`EventJournal`] — a fixed-capacity ring buffer the proxy publishes
//!   events into. The hot path is lock-free: one `fetch_add` claims a slot
//!   and a per-slot seqlock publishes plain `u64` words, so a decision
//!   never blocks on a reader. Overflow evicts the oldest events and is
//!   *counted*, never silent;
//! * [`MetricsRegistry`] — named counters, gauges, and latency histograms
//!   with a Prometheus-style text exposition, so a live server can be
//!   scraped without any external crate.
//!
//! [`SqlProxy::execute`]: crate::proxy::SqlProxy::execute
//!
//! # Ring-buffer semantics
//!
//! The journal holds the newest `capacity` events. Writers never wait for
//! readers: when the ring wraps, the oldest unread events are overwritten.
//! Every event carries a monotone sequence number, so readers are
//! stateless cursors — [`EventJournal::events_since`] returns the retained
//! events after a sequence number, and the exact count of evicted events
//! is always available ([`EventJournal::evicted`]). A torn read is
//! impossible: each slot's version word brackets the payload words
//! (seqlock), and a reader that observes a version change mid-copy
//! discards the slot and counts it as evicted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::span::SpanSummary;

/// Number of timed decision phases.
pub const PHASE_COUNT: usize = 6;

/// One timed phase of the decision path. The phases partition an
/// `execute` call in order; glue code between two phases is attributed to
/// the phase that follows it (the timer laps at phase boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// SQL text to statement.
    Parse = 0,
    /// Positive + negative template-cache lookups.
    TemplateLookup = 1,
    /// Per-session concrete allow/deny cache lookups.
    ConcreteLookup = 2,
    /// Symbolic proof work (template-level or concrete).
    Proof = 3,
    /// Running the allowed statement against the database.
    DbExec = 4,
    /// Recording the observation into the session trace.
    TraceRecord = 5,
}

impl Phase {
    /// Every phase, in decision-path order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Parse,
        Phase::TemplateLookup,
        Phase::ConcreteLookup,
        Phase::Proof,
        Phase::DbExec,
        Phase::TraceRecord,
    ];
}

/// Which tier of the decision stack produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served by the global template cache.
    TemplateCache = 0,
    /// Served by the per-session concrete allow cache.
    SessionCache = 1,
    /// Served by the per-session deny cache.
    DenyCache = 2,
    /// Decided by a fresh template-level proof.
    TemplateProof = 3,
    /// Decided by a fresh concrete (session + trace) proof.
    ConcreteProof = 4,
    /// No tier applies (parse errors, DML pass-through, blocked writes).
    Uncached = 5,
}

impl CacheTier {
    /// The stable label used on the wire and in the metrics exposition.
    pub fn label(self) -> &'static str {
        match self {
            CacheTier::TemplateCache => "template-cache",
            CacheTier::SessionCache => "session-cache",
            CacheTier::DenyCache => "deny-cache",
            CacheTier::TemplateProof => "template-proof",
            CacheTier::ConcreteProof => "concrete-proof",
            CacheTier::Uncached => "uncached",
        }
    }

    /// Parses a stable label back (wire decoding).
    pub fn from_label(s: &str) -> Option<CacheTier> {
        Some(match s {
            "template-cache" => CacheTier::TemplateCache,
            "session-cache" => CacheTier::SessionCache,
            "deny-cache" => CacheTier::DenyCache,
            "template-proof" => CacheTier::TemplateProof,
            "concrete-proof" => CacheTier::ConcreteProof,
            "uncached" => CacheTier::Uncached,
            _ => return None,
        })
    }

    fn from_u64(v: u64) -> CacheTier {
        match v {
            0 => CacheTier::TemplateCache,
            1 => CacheTier::SessionCache,
            2 => CacheTier::DenyCache,
            3 => CacheTier::TemplateProof,
            4 => CacheTier::ConcreteProof,
            _ => CacheTier::Uncached,
        }
    }
}

/// The verdict an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The statement was allowed (or passed through).
    Allowed = 0,
    /// The statement was blocked.
    Blocked = 1,
}

impl Verdict {
    /// The stable label used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Allowed => "allowed",
            Verdict::Blocked => "blocked",
        }
    }

    /// Parses a stable label back (wire decoding).
    pub fn from_label(s: &str) -> Option<Verdict> {
        match s {
            "allowed" => Some(Verdict::Allowed),
            "blocked" => Some(Verdict::Blocked),
            _ => None,
        }
    }
}

/// One decision's provenance record. `Copy` and heap-free by design: the
/// journal stores events as plain `u64` words so concurrent readers can
/// never observe a torn pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Monotone journal sequence number (assigned on publication).
    pub seq: u64,
    /// The session the decision belonged to.
    pub session: u64,
    /// FNV-1a hash of the SQL template text (see [`template_hash`]).
    pub template_hash: u64,
    /// Allowed or blocked.
    pub verdict: Verdict,
    /// The tier of the decision stack that produced the verdict.
    pub tier: CacheTier,
    /// Whether the negative template cache short-circuited a re-proof on
    /// the way to the concrete tier.
    pub negative_template_hit: bool,
    /// End-to-end `execute` latency in nanoseconds.
    pub total_ns: u64,
    /// Per-phase nanoseconds, indexed by [`Phase`] (`as usize`). Phases
    /// that did not run are zero.
    pub phase_ns: [u64; PHASE_COUNT],
    /// The solver work this decision did and how its certificates fared
    /// (all-zero when it ran no solver, e.g. a cache hit).
    pub span: SpanSummary,
}

impl DecisionEvent {
    /// The time attributed to one phase.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }
}

/// FNV-1a over the SQL template text: the stable query-template identity
/// shipped in events (the raw SQL may be long and may embed user data; the
/// hash is fixed-width and join-able across events, logs, and caches).
pub fn template_hash(sql: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sql.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Words per journal slot: seq, session, template hash, packed
/// verdict/tier/negative-hit, total, one per phase, and the three-word
/// span summary.
const EVENT_WORDS: usize = 8 + PHASE_COUNT;

fn encode_event(ev: &DecisionEvent) -> [u64; EVENT_WORDS] {
    let mut w = [0u64; EVENT_WORDS];
    w[0] = ev.seq;
    w[1] = ev.session;
    w[2] = ev.template_hash;
    w[3] = ev.verdict as u64 | (ev.tier as u64) << 8 | u64::from(ev.negative_template_hit) << 16;
    w[4] = ev.total_ns;
    w[5..5 + PHASE_COUNT].copy_from_slice(&ev.phase_ns);
    w[5 + PHASE_COUNT..].copy_from_slice(&ev.span.to_words());
    w
}

fn decode_event(w: &[u64; EVENT_WORDS]) -> DecisionEvent {
    let mut phase_ns = [0u64; PHASE_COUNT];
    phase_ns.copy_from_slice(&w[5..5 + PHASE_COUNT]);
    let mut span_words = [0u64; 3];
    span_words.copy_from_slice(&w[5 + PHASE_COUNT..]);
    DecisionEvent {
        seq: w[0],
        session: w[1],
        template_hash: w[2],
        verdict: if w[3] & 0xff == 0 {
            Verdict::Allowed
        } else {
            Verdict::Blocked
        },
        tier: CacheTier::from_u64((w[3] >> 8) & 0xff),
        negative_template_hit: (w[3] >> 16) & 1 == 1,
        total_ns: w[4],
        phase_ns,
        span: SpanSummary::from_words(span_words),
    }
}

/// One ring slot: a seqlock version word bracketing the payload words.
/// A slot that holds the fully published event with sequence `s` has
/// `version == 2*s + 2`; an odd version marks a write in progress.
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A stateless reader position over an [`EventJournal`]: remembers the
/// next sequence number to deliver and how many events this reader missed
/// to eviction. `Default` starts at the beginning of time (everything
/// already evicted counts as dropped on the first poll).
#[derive(Debug, Default, Clone, Copy)]
pub struct JournalCursor {
    next: u64,
    dropped: u64,
}

impl JournalCursor {
    /// A cursor positioned at sequence `next`, with nothing charged as
    /// dropped yet: everything before `next` counts as intentionally
    /// skipped, not lost. This is how a `subscribe {after}` stream starts.
    pub fn starting_at(next: u64) -> JournalCursor {
        JournalCursor { next, dropped: 0 }
    }

    /// Events this cursor missed because the ring evicted them first.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The next sequence number this cursor will deliver.
    pub fn position(&self) -> u64 {
        self.next
    }
}

/// Fixed-capacity, lock-free decision-event ring.
///
/// Writers are wait-free in the common case: one `fetch_add` claims a
/// sequence number, the slot is published under a per-slot seqlock, and
/// the only contention is between two writers a full ring apart (i.e. the
/// journal already overflowed by a whole capacity mid-write), where the
/// later writer wins and the earlier event counts as evicted.
pub struct EventJournal {
    slots: Box<[Slot]>,
    /// Total events ever claimed; the next event's sequence number.
    head: AtomicU64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity())
            .field("published", &self.published())
            .field("evicted", &self.evicted())
            .finish()
    }
}

impl EventJournal {
    /// Creates a journal retaining the newest `capacity` events
    /// (rounded up to at least 2).
    pub fn with_capacity(capacity: usize) -> EventJournal {
        let n = capacity.max(2);
        EventJournal {
            slots: (0..n).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// How many events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever published (monotone).
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Total events no longer retrievable (evicted by ring wrap-around).
    /// Monotone and exact: an event that loses a (rare) wrap race to a
    /// writer a full ring ahead is by definition already older than the
    /// retained window, so it is covered by this count too.
    pub fn evicted(&self) -> u64 {
        self.published().saturating_sub(self.capacity() as u64)
    }

    /// Publishes one event, assigning and returning its sequence number.
    /// Lock-free; never blocks on readers.
    pub fn record(&self, ev: DecisionEvent) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        self.publish_at(seq, ev);
        seq
    }

    /// Publishes a batch of events under one sequence-block claim: a
    /// single `fetch_add` reserves `events.len()` consecutive numbers, so
    /// a cross-connection batch pays one contended atomic instead of one
    /// per decision. Returns the first assigned sequence number (events
    /// are numbered consecutively from it, in order).
    pub fn record_many(&self, events: Vec<DecisionEvent>) -> u64 {
        let n = events.len() as u64;
        if n == 0 {
            return self.head.load(Ordering::Acquire);
        }
        let base = self.head.fetch_add(n, Ordering::AcqRel);
        for (i, ev) in events.into_iter().enumerate() {
            self.publish_at(base + i as u64, ev);
        }
        base
    }

    /// Publishes `ev` into the slot owned by the already claimed `seq`.
    fn publish_at(&self, seq: u64, mut ev: DecisionEvent) {
        let n = self.slots.len() as u64;
        ev.seq = seq;
        let slot = &self.slots[(seq % n) as usize];
        let claimed = 2 * seq + 1;
        let published = 2 * seq + 2;
        loop {
            let v = slot.version.load(Ordering::Acquire);
            if v >= published {
                // A writer a full ring ahead already owns this slot: our
                // event would be overwritten immediately anyway. Let the
                // newer event stand; ours counts as evicted.
                return;
            }
            if v % 2 == 1 {
                // A writer one ring behind is mid-publish; it finishes in
                // a handful of relaxed stores.
                std::hint::spin_loop();
                continue;
            }
            if slot
                .version
                .compare_exchange_weak(v, claimed, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        for (w, val) in slot.words.iter().zip(encode_event(&ev)) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(published, Ordering::Release);
    }

    /// The retained events with sequence numbers in `[after, head)`, oldest
    /// first, at most `max`. Events already evicted are skipped (the ring
    /// only holds the newest `capacity`); use a [`JournalCursor`] to track
    /// how many were missed. Stateless, so any number of subscribers (and
    /// remote scrapers) can read concurrently without coordination.
    pub fn events_since(&self, after: u64, max: usize) -> Vec<DecisionEvent> {
        let head = self.head.load(Ordering::Acquire);
        let n = self.slots.len() as u64;
        let start = after.max(head.saturating_sub(n));
        let mut out = Vec::with_capacity(((head - start) as usize).min(max));
        for seq in start..head {
            if out.len() >= max {
                break;
            }
            let slot = &self.slots[(seq % n) as usize];
            let expect = 2 * seq + 2;
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 < expect {
                // The writer holding this sequence number has not finished
                // publishing; everything later is newer still, but order
                // matters more than eagerness — stop here.
                break;
            }
            if v1 > expect {
                continue; // evicted while scanning
            }
            let words: [u64; EVENT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.version.load(Ordering::Acquire) != v1 {
                continue; // overwritten mid-copy: discard, never torn
            }
            out.push(decode_event(&words));
        }
        out
    }

    /// Polls for a cursor: delivers up to `max` new events and advances
    /// the cursor, accounting exactly for any events evicted before this
    /// poll could see them.
    pub fn poll(&self, cursor: &mut JournalCursor, max: usize) -> Vec<DecisionEvent> {
        let events = self.events_since(cursor.next, max);
        let head = self.head.load(Ordering::Acquire);
        match events.last() {
            Some(last) => {
                // Everything in [cursor.next, first delivered) plus any
                // mid-scan gaps was evicted.
                let delivered = events.len() as u64;
                let advanced = last.seq + 1 - cursor.next;
                cursor.dropped += advanced - delivered;
                cursor.next = last.seq + 1;
            }
            None => {
                // Nothing retained past the cursor: if head moved beyond
                // the ring, the gap was evicted wholesale.
                let floor = head.saturating_sub(self.slots.len() as u64);
                if floor > cursor.next {
                    cursor.dropped += floor - cursor.next;
                    cursor.next = floor;
                }
            }
        }
        events
    }

    /// The newest `max` retained events, oldest first, optionally filtered
    /// to one session. Non-destructive.
    pub fn recent(&self, max: usize, session: Option<u64>) -> Vec<DecisionEvent> {
        let mut events = self.events_since(0, usize::MAX);
        if let Some(sid) = session {
            events.retain(|e| e.session == sid);
        }
        if events.len() > max {
            events.drain(..events.len() - max);
        }
        events
    }
}

impl crate::mem::HeapUsage for EventJournal {
    /// The slot array is the journal's entire heap footprint: fixed at
    /// construction, independent of traffic.
    fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }
}

/// Laps a single clock across the sequential decision phases: each call
/// attributes the time since the previous boundary to one phase, so the
/// whole breakdown costs one `Instant::now` per phase boundary rather
/// than two. Phases may lap more than once (e.g. `Proof` runs at both the
/// template and concrete tiers); laps accumulate.
#[derive(Debug)]
pub struct PhaseTimer {
    mark: Instant,
    phase_ns: [u64; PHASE_COUNT],
}

impl PhaseTimer {
    /// Starts the clock.
    pub fn start() -> PhaseTimer {
        PhaseTimer {
            mark: Instant::now(),
            phase_ns: [0; PHASE_COUNT],
        }
    }

    /// Attributes the time since the previous boundary to `phase`.
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = now
            .duration_since(self.mark)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.phase_ns[phase as usize] += ns;
        self.mark = now;
    }

    /// The accumulated per-phase breakdown.
    pub fn phase_ns(&self) -> [u64; PHASE_COUNT] {
        self.phase_ns
    }
}

/// A monotone counter metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A settable gauge metric.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// The value side of one labelled series.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "summary",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A registry of named metrics with a Prometheus-style text exposition.
///
/// Families are registered once (idempotently — re-registering the same
/// name + labels returns the existing handle) and rendered in
/// registration order. Histograms are exposed as summaries: one
/// `{quantile="…"}` series per percentile plus `_sum` and `_count`,
/// sourced from the same [`LatencyHistogram`] snapshots the benches read.
pub struct MetricsRegistry {
    families: RwLock<Vec<Family>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.read();
        f.debug_struct("MetricsRegistry")
            .field("families", &families.len())
            .finish()
    }
}

fn labels_of(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            families: RwLock::new(Vec::new()),
        }
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], make: Handle) -> Handle {
        let labels = labels_of(labels);
        let mut families = self.families.write();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            assert_eq!(
                existing.handle.kind(),
                make.kind(),
                "metric {name:?} re-registered with a different kind"
            );
            return existing.handle.clone();
        }
        assert!(
            family
                .series
                .first()
                .map(|s| s.handle.kind() == make.kind())
                .unwrap_or(true),
            "metric family {name:?} mixes kinds"
        );
        family.series.push(Series {
            labels,
            handle: make.clone(),
        });
        make
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(
            name,
            help,
            labels,
            Handle::Counter(Arc::new(Counter::default())),
        ) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind asserted in register"),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(
            name,
            help,
            labels,
            Handle::Gauge(Arc::new(Gauge::default())),
        ) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind asserted in register"),
        }
    }

    /// Registers (or retrieves) a latency-histogram series (exposed as a
    /// summary).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<LatencyHistogram> {
        match self.register(
            name,
            help,
            labels,
            Handle::Histogram(Arc::new(LatencyHistogram::new())),
        ) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind asserted in register"),
        }
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        let families = self.families.read();
        let mut out = String::new();
        for family in families.iter() {
            let kind = family
                .series
                .first()
                .map(|s| s.handle.kind())
                .unwrap_or("counter");
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, kind));
            for series in &family.series {
                match &series.handle {
                    Handle::Counter(c) => {
                        render_sample(&mut out, &family.name, &series.labels, &[], c.get());
                    }
                    Handle::Gauge(g) => {
                        render_sample(&mut out, &family.name, &series.labels, &[], g.get());
                    }
                    Handle::Histogram(h) => {
                        let s: LatencySnapshot = h.snapshot();
                        for (q, v) in [("0.5", s.p50_ns), ("0.95", s.p95_ns), ("0.99", s.p99_ns)] {
                            render_sample(
                                &mut out,
                                &family.name,
                                &series.labels,
                                &[("quantile", q)],
                                v,
                            );
                        }
                        render_sample(
                            &mut out,
                            &format!("{}_sum", family.name),
                            &series.labels,
                            &[],
                            s.sum_ns,
                        );
                        render_sample(
                            &mut out,
                            &format!("{}_count", family.name),
                            &series.labels,
                            &[],
                            s.count,
                        );
                    }
                }
            }
        }
        out
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: u64,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{k}=\"{v}\""));
        }
        out.push('}');
    }
    out.push_str(&format!(" {value}\n"));
}

/// Point-in-time process memory readings from the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessMemory {
    /// Resident set size in bytes (`/proc/self/statm` field 2 × page size).
    pub resident_bytes: u64,
    /// Peak resident set size in bytes (`VmHWM:` from `/proc/self/status`).
    pub peak_resident_bytes: u64,
}

/// The hardware page size, from the auxiliary vector's `AT_PAGESZ` entry
/// (no libc dependency); 4096 when `/proc/self/auxv` is unavailable.
fn page_size() -> u64 {
    static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        if let Ok(buf) = std::fs::read("/proc/self/auxv") {
            const AT_PAGESZ: u64 = 6;
            let mut i = 0;
            while i + 16 <= buf.len() {
                let key = u64::from_ne_bytes(buf[i..i + 8].try_into().unwrap());
                let val = u64::from_ne_bytes(buf[i + 8..i + 16].try_into().unwrap());
                if key == AT_PAGESZ && val > 0 {
                    return val;
                }
                i += 16;
            }
        }
        4096
    })
}

/// Reads the current process's memory from procfs. On platforms without
/// `/proc` both readings are zero (the gauges then report 0 rather than
/// failing).
pub fn read_process_memory() -> ProcessMemory {
    let resident_pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0);
    let peak_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0);
    ProcessMemory {
        resident_bytes: resident_pages * page_size(),
        peak_resident_bytes: peak_kb * 1024,
    }
}

/// The process-memory gauge pair (`bep_process_resident_bytes`,
/// `bep_process_vm_hwm_bytes`), registered on a [`MetricsRegistry`] and
/// refreshed by [`MemoryGauges::sample`]. The soak bench and the serving
/// front-end's `--metrics` exposition both read memory through this one
/// source.
#[derive(Debug, Clone)]
pub struct MemoryGauges {
    resident: Arc<Gauge>,
    peak: Arc<Gauge>,
}

impl MemoryGauges {
    /// Registers the gauge pair on `registry`.
    pub fn register(registry: &MetricsRegistry) -> MemoryGauges {
        MemoryGauges {
            resident: registry.gauge(
                "bep_process_resident_bytes",
                "Resident set size (RSS) of this process in bytes",
                &[],
            ),
            peak: registry.gauge(
                "bep_process_vm_hwm_bytes",
                "Peak resident set size (VmHWM) of this process in bytes",
                &[],
            ),
        }
    }

    /// Reads procfs, refreshes both gauges, and returns the reading.
    pub fn sample(&self) -> ProcessMemory {
        let m = read_process_memory();
        self.resident.set(m.resident_bytes);
        self.peak.set(m.peak_resident_bytes);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(session: u64) -> DecisionEvent {
        DecisionEvent {
            seq: 0,
            session,
            // A session-derived pattern so readers can verify integrity.
            template_hash: session.wrapping_mul(0x1234_5678_9abc_def1),
            verdict: if session.is_multiple_of(2) {
                Verdict::Allowed
            } else {
                Verdict::Blocked
            },
            tier: CacheTier::TemplateCache,
            negative_template_hit: session.is_multiple_of(3),
            total_ns: session.wrapping_mul(10),
            phase_ns: [session, 0, 0, session * 2, 0, 1],
            span: SpanSummary {
                rewrite_iterations: session as u32,
                containment_checks: session.wrapping_mul(5) as u32,
                hom_nodes: session.wrapping_mul(3) as u32,
                hom_backtracks: (session >> 1) as u32,
                cert_replays: (session % 7) as u16,
                cert_fallbacks: (session % 3) as u16,
            },
        }
    }

    #[test]
    fn events_round_trip_the_word_encoding() {
        for session in [0u64, 1, 2, 3, u64::MAX / 3] {
            let mut ev = event(session);
            ev.seq = 99;
            ev.tier = CacheTier::ConcreteProof;
            assert_eq!(decode_event(&encode_event(&ev)), ev);
        }
    }

    #[test]
    fn journal_delivers_in_order_below_capacity() {
        let j = EventJournal::with_capacity(8);
        for s in 0..5 {
            j.record(event(s));
        }
        let events = j.events_since(0, usize::MAX);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.session, i as u64);
        }
        assert_eq!(j.published(), 5);
        assert_eq!(j.evicted(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_exactly() {
        // Satellite: fill the ring past capacity; the drop count must be
        // exact and precisely the newest `capacity` events must survive.
        let cap = 16;
        let extra = 23;
        let j = EventJournal::with_capacity(cap);
        let total = (cap + extra) as u64;
        for s in 0..total {
            j.record(event(s));
        }
        assert_eq!(j.published(), total);
        assert_eq!(j.evicted(), extra as u64);

        let mut cursor = JournalCursor::default();
        let events = j.poll(&mut cursor, usize::MAX);
        assert_eq!(events.len(), cap);
        assert_eq!(cursor.dropped(), extra as u64, "drop count is exact");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let expect: Vec<u64> = (extra as u64..total).collect();
        assert_eq!(seqs, expect, "the newest events survive, oldest evicted");
        // And each survivor is intact.
        for e in &events {
            assert_eq!(e.session, e.seq);
            assert_eq!(e.template_hash, e.seq.wrapping_mul(0x1234_5678_9abc_def1));
        }
        // A second poll delivers nothing new and drops nothing more.
        assert!(j.poll(&mut cursor, usize::MAX).is_empty());
        assert_eq!(cursor.dropped(), extra as u64);
    }

    #[test]
    fn poll_is_incremental() {
        let j = EventJournal::with_capacity(64);
        let mut cursor = JournalCursor::default();
        for s in 0..10 {
            j.record(event(s));
        }
        assert_eq!(j.poll(&mut cursor, 4).len(), 4);
        assert_eq!(cursor.position(), 4);
        assert_eq!(j.poll(&mut cursor, usize::MAX).len(), 6);
        assert!(j.poll(&mut cursor, usize::MAX).is_empty());
        j.record(event(10));
        let next = j.poll(&mut cursor, usize::MAX);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].seq, 10);
        assert_eq!(cursor.dropped(), 0);
    }

    #[test]
    fn recent_filters_by_session() {
        let j = EventJournal::with_capacity(64);
        for s in 0..12 {
            j.record(event(s % 3));
        }
        let only_ones = j.recent(usize::MAX, Some(1));
        assert_eq!(only_ones.len(), 4);
        assert!(only_ones.iter().all(|e| e.session == 1));
        let newest_two = j.recent(2, None);
        assert_eq!(newest_two.len(), 2);
        assert_eq!(newest_two[1].seq, 11);
        assert_eq!(newest_two[0].seq, 10);
    }

    #[test]
    fn concurrent_writers_never_tear_events() {
        // Hammer a tiny ring from several threads while a reader polls
        // continuously: every event delivered must be internally
        // consistent (session-derived fields intact), and the total
        // accounting (delivered + dropped) must match what was published.
        let j = EventJournal::with_capacity(8);
        let writers = 4;
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        j.record(event(w as u64 * per_writer + i));
                    }
                });
            }
            let j = &j;
            scope.spawn(move || {
                let mut cursor = JournalCursor::default();
                let mut seen = 0u64;
                let mut last_seq = None;
                while seen + cursor.dropped() < writers as u64 * per_writer {
                    for e in j.poll(&mut cursor, 64) {
                        // Integrity: all fields derive from `session`.
                        assert_eq!(
                            e.template_hash,
                            e.session.wrapping_mul(0x1234_5678_9abc_def1),
                            "torn event"
                        );
                        assert_eq!(e.total_ns, e.session.wrapping_mul(10), "torn event");
                        assert_eq!(
                            e.span.containment_checks,
                            e.session.wrapping_mul(5) as u32,
                            "torn span summary"
                        );
                        if let Some(prev) = last_seq {
                            assert!(e.seq > prev, "out-of-order delivery");
                        }
                        last_seq = Some(e.seq);
                        seen += 1;
                    }
                }
            });
        });
        let total = writers as u64 * per_writer;
        assert_eq!(j.published(), total);
        // Quiescent accounting: everything still in the ring is readable.
        assert_eq!(
            j.events_since(0, usize::MAX).len() as u64 + j.evicted(),
            total
        );
    }

    #[test]
    fn tier_and_verdict_labels_round_trip() {
        // Exhaustive rather than sampled: six tiers, two verdicts.
        for tier in [
            CacheTier::TemplateCache,
            CacheTier::SessionCache,
            CacheTier::DenyCache,
            CacheTier::TemplateProof,
            CacheTier::ConcreteProof,
            CacheTier::Uncached,
        ] {
            assert_eq!(CacheTier::from_label(tier.label()), Some(tier));
            assert_eq!(CacheTier::from_u64(tier as u64), tier);
        }
        for verdict in [Verdict::Allowed, Verdict::Blocked] {
            assert_eq!(Verdict::from_label(verdict.label()), Some(verdict));
        }
        assert_eq!(CacheTier::from_label("not-a-tier"), None);
        assert_eq!(Verdict::from_label("maybe"), None);
    }

    #[test]
    fn poll_accounts_lag_exactly_when_overtaken_by_eviction() {
        // Satellite: a slow poller whose cursor is overtaken by ring
        // eviction must see the exact dropped count at every poll, with
        // no duplicate and no unaccounted event.
        let cap = 8;
        let j = EventJournal::with_capacity(cap);
        let mut cursor = JournalCursor::default();
        assert!(j.poll(&mut cursor, usize::MAX).is_empty());
        assert_eq!(cursor.dropped(), 0);

        // Overflow while the poller sleeps: only the newest `cap` remain.
        for s in 0..20 {
            j.record(event(s));
        }
        let got = j.poll(&mut cursor, usize::MAX);
        assert_eq!(got.len(), cap);
        assert_eq!(got.first().unwrap().seq, 12);
        assert_eq!(cursor.dropped(), 12, "20 published, 8 retained");

        // Catch up within the window: nothing new dropped.
        for s in 20..25 {
            j.record(event(s));
        }
        let got = j.poll(&mut cursor, usize::MAX);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (20..25).collect::<Vec<_>>()
        );
        assert_eq!(cursor.dropped(), 12);

        // Overtaken again: 11 published into an 8-slot ring from
        // position 25 → exactly 3 more lost.
        for s in 25..36 {
            j.record(event(s));
        }
        let got = j.poll(&mut cursor, usize::MAX);
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (28..36).collect::<Vec<_>>()
        );
        assert_eq!(cursor.dropped(), 15);
        assert_eq!(cursor.position(), j.published());

        // Grand total: every published event is either delivered or
        // counted dropped, never both.
        assert_eq!(cap as u64 + 5 + 8 + cursor.dropped(), j.published());
    }

    #[test]
    fn poll_never_duplicates_under_concurrent_eviction() {
        // Satellite: hammer a tiny ring with one writer while a poller
        // with a small batch size races it; every sequence number must be
        // delivered at most once and the final accounting must be exact.
        let j = EventJournal::with_capacity(4);
        let total = 10_000u64;
        std::thread::scope(|scope| {
            let j = &j;
            scope.spawn(move || {
                for s in 0..total {
                    j.record(event(s));
                }
            });
            let mut cursor = JournalCursor::default();
            let mut delivered = 0u64;
            let mut last_seq = None;
            while delivered + cursor.dropped() < total {
                for e in j.poll(&mut cursor, 3) {
                    if let Some(prev) = last_seq {
                        assert!(e.seq > prev, "duplicate or out-of-order delivery");
                    }
                    last_seq = Some(e.seq);
                    assert_eq!(e.session, e.seq, "torn event");
                    delivered += 1;
                }
            }
            assert_eq!(delivered + cursor.dropped(), total);
            assert_eq!(cursor.position(), total);
        });
    }

    #[test]
    fn journal_heap_bytes_are_fixed_at_construction() {
        use crate::mem::HeapUsage;
        let j = EventJournal::with_capacity(64);
        let before = j.heap_bytes();
        assert!(before >= 64 * EVENT_WORDS * 8);
        for s in 0..200 {
            j.record(event(s));
        }
        assert_eq!(j.heap_bytes(), before, "ring never grows");
    }

    #[test]
    fn phase_timer_accumulates_laps() {
        let mut t = PhaseTimer::start();
        t.lap(Phase::Parse);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.lap(Phase::Proof);
        t.lap(Phase::Proof); // second lap accumulates
        let p = t.phase_ns();
        assert!(p[Phase::Proof as usize] >= 2_000_000);
        assert_eq!(p[Phase::DbExec as usize], 0);
    }

    #[test]
    fn template_hash_is_stable_and_discriminating() {
        let a = template_hash("SELECT * FROM Events WHERE EId = ?event");
        let b = template_hash("SELECT * FROM Events WHERE EId = ?event");
        let c = template_hash("SELECT * FROM Events WHERE EId = ?other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(template_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = MetricsRegistry::new();
        let allowed = r.counter(
            "bep_decisions_total",
            "Decisions by verdict",
            &[("decision", "allowed")],
        );
        let blocked = r.counter(
            "bep_decisions_total",
            "Decisions by verdict",
            &[("decision", "blocked")],
        );
        let sessions = r.gauge("bep_sessions", "Live sessions", &[]);
        let lat = r.histogram("bep_decision_latency_ns", "Decision latency", &[]);
        allowed.add(3);
        blocked.inc();
        sessions.set(2);
        lat.record(std::time::Duration::from_micros(10));

        let text = r.render();
        assert!(text.contains("# HELP bep_decisions_total Decisions by verdict\n"));
        assert!(text.contains("# TYPE bep_decisions_total counter\n"));
        assert!(text.contains("bep_decisions_total{decision=\"allowed\"} 3\n"));
        assert!(text.contains("bep_decisions_total{decision=\"blocked\"} 1\n"));
        assert!(text.contains("# TYPE bep_sessions gauge\n"));
        assert!(text.contains("bep_sessions 2\n"));
        assert!(text.contains("# TYPE bep_decision_latency_ns summary\n"));
        assert!(text.contains("bep_decision_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("bep_decision_latency_ns_count 1\n"));
        // HELP/TYPE appear once per family even with several series.
        assert_eq!(text.matches("# TYPE bep_decisions_total").count(), 1);
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series, same counter");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_render_stable_order() {
        let r = MetricsRegistry::new();
        let h = r.histogram("p_ns", "phase", &[("phase", "parse")]);
        h.record(std::time::Duration::from_nanos(100));
        let text = r.render();
        assert!(
            text.contains("p_ns{phase=\"parse\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("p_ns_sum{phase=\"parse\"} 100\n"), "{text}");
    }
}
