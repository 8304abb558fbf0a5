//! Decision-provenance observability: the event journal and the text
//! exposition's writers.
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
//! * [`EventJournal`] — a fixed-capacity ring of events behind one lock.
//!   The proxy takes it once per statement, to copy in one event.
//!   Overflow evicts the oldest events and is *counted*, never silent;
//! * [`write_family`] — writes one family of the Prometheus-style text
//!   exposition, so a live server can be scraped without any external
//!   crate. The counters are plain integers in the proxy's locked state,
//!   and [`SqlProxy::metrics_text`] writes each family from them by name
//!   (the server appends its reactor's four).
//!
//! [`SqlProxy::execute`]: crate::proxy::SqlProxy::execute
//! [`SqlProxy::metrics_text`]: crate::proxy::SqlProxy::metrics_text
//!
//! # Ring-buffer semantics
//!
//! The journal holds the newest `capacity` events. Writers never wait for
//! a reader to consume anything: when the ring wraps, the oldest unread
//! events are overwritten. Every event carries a monotone sequence number,
//! so readers are stateless cursors — [`EventJournal::events_since`]
//! returns the retained events after a sequence number, and the exact
//! count of evicted events is always available ([`EventJournal::evicted`]).
//! A reader holds the lock only while it copies out one page of at most
//! `max` events (the server caps a `journal` page at 512), so that copy
//! is the longest a decision can wait on a reader.

use std::fmt::Write;
use std::time::Instant;

use parking_lot::Mutex;

use crate::latency::LatencySnapshot;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    #[default]
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

/// One decision's provenance record. `Copy` and heap-free: the journal
/// copies it in and out under its lock, and readers get owned copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Monotone journal sequence number (assigned on publication).
    pub seq: u64,
    /// The session the decision belonged to.
    pub session: u64,
    /// FNV-1a hash of the SQL template text (see [`template_hash`]): the
    /// text of the plan that decided, so a statement whose literals were
    /// lifted carries its shape's hash (`sqlir::lift_literals`).
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
    /// skipped, not lost.
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

    /// Moves past one page of events read from [`JournalCursor::position`]
    /// (oldest first, as [`EventJournal::events_since`] returns them),
    /// given the journal's evicted count read after the page. Every
    /// sequence number the page skipped is charged as dropped, so a reader
    /// over the wire (`journal {after, max}`) keeps the same exact loss
    /// accounting as [`EventJournal::poll`].
    pub fn advance(&mut self, events: &[DecisionEvent], evicted: u64) {
        match events.last() {
            Some(last) => {
                // Everything in [next, first delivered) plus any mid-scan
                // gaps was evicted. Saturating: a page from a peer need
                // not hold what it should.
                let delivered = events.len() as u64;
                self.dropped += (last.seq + 1).saturating_sub(self.next + delivered);
                self.next = self.next.max(last.seq + 1);
            }
            None => {
                // Nothing retained past the cursor: if the ring evicted
                // beyond it, the gap was lost wholesale.
                if evicted > self.next {
                    self.dropped += evicted - self.next;
                    self.next = evicted;
                }
            }
        }
    }
}

/// The journal's state behind its lock: `events` fills up to the
/// journal's capacity once, then event `seq` overwrites slot
/// `seq % capacity`, the slot of the event `capacity` older.
struct Ring {
    /// Total events ever recorded; the next event's sequence number.
    head: u64,
    events: Vec<DecisionEvent>,
}

/// Fixed-capacity decision-event ring behind one lock.
pub struct EventJournal {
    capacity: usize,
    ring: Mutex<Ring>,
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
        let capacity = capacity.max(2);
        EventJournal {
            capacity,
            ring: Mutex::new(Ring {
                head: 0,
                events: Vec::with_capacity(capacity),
            }),
        }
    }

    /// How many events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever published (monotone).
    pub fn published(&self) -> u64 {
        self.ring.lock().head
    }

    /// Total events no longer retrievable (evicted by ring wrap-around).
    /// Monotone and exact.
    pub fn evicted(&self) -> u64 {
        self.published().saturating_sub(self.capacity as u64)
    }

    /// Publishes one event, assigning and returning its sequence number.
    pub fn record(&self, mut ev: DecisionEvent) -> u64 {
        let mut ring = self.ring.lock();
        let seq = ring.head;
        ev.seq = seq;
        if ring.events.len() < self.capacity {
            ring.events.push(ev);
        } else {
            ring.events[(seq % self.capacity as u64) as usize] = ev;
        }
        ring.head += 1;
        seq
    }

    /// The retained events with sequence numbers in `[after, head)`, oldest
    /// first, at most `max`. Events already evicted are skipped (the ring
    /// only holds the newest `capacity`); use a [`JournalCursor`] to track
    /// how many were missed. Stateless, so any number of readers (local or
    /// over the wire) can read without coordination.
    pub fn events_since(&self, after: u64, max: usize) -> Vec<DecisionEvent> {
        let ring = self.ring.lock();
        let n = self.capacity as u64;
        // `after` comes from the caller (a peer's `journal` frame): one
        // beyond the head asks for nothing, not for a negative range.
        let start = after.max(ring.head.saturating_sub(n)).min(ring.head);
        let end = ring.head.min(start.saturating_add(max as u64));
        (start..end)
            .map(|seq| ring.events[(seq % n) as usize])
            .collect()
    }

    /// Polls for a cursor: delivers up to `max` new events and advances
    /// the cursor, accounting exactly for any events evicted before this
    /// poll could see them.
    pub fn poll(&self, cursor: &mut JournalCursor, max: usize) -> Vec<DecisionEvent> {
        let events = self.events_since(cursor.next, max);
        cursor.advance(&events, self.evicted());
        events
    }
}

impl crate::mem::HeapUsage for EventJournal {
    /// The event array is the journal's entire heap footprint: allocated
    /// once at construction, independent of traffic.
    fn heap_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<DecisionEvent>()
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

/// Writes one counter or gauge family (`kind`) of the Prometheus text
/// exposition: its `# HELP` and `# TYPE` lines, then one sample per
/// `(label value, value)` pair, labelled `label="…"`, or one unlabelled
/// sample when `label` is empty.
pub fn write_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    label: &str,
    samples: &[(&str, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    for (at, value) in samples {
        let _ = match label {
            "" => writeln!(out, "{name} {value}"),
            _ => writeln!(out, "{name}{{{label}=\"{at}\"}} {value}"),
        };
    }
}

/// Writes one histogram as a summary family: a `{quantile="…"}` sample per
/// percentile, then `_sum` and `_count`.
pub(crate) fn write_summary(out: &mut String, name: &str, help: &str, s: LatencySnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
    for (q, v) in [("0.5", s.p50_ns), ("0.95", s.p95_ns), ("0.99", s.p99_ns)] {
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", s.sum_ns, s.count);
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
/// `/proc` both readings are zero (the `bep_process_resident_bytes` and
/// `bep_process_vm_hwm_bytes` gauges then report 0 rather than failing).
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
    fn a_cursor_beyond_the_head_reads_nothing() {
        let j = EventJournal::with_capacity(8);
        assert!(j.events_since(100, 10).is_empty());
        for s in 0..3 {
            j.record(event(s));
        }
        for after in [3, 4, 100, u64::MAX] {
            assert!(j.events_since(after, 10).is_empty(), "after {after}");
        }
        assert_eq!(j.events_since(2, 10).len(), 1);
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
    fn advance_takes_a_stale_page_from_a_peer_without_moving_back() {
        // A page whose events lie before the cursor (a misbehaving peer)
        // moves nothing and charges nothing.
        let mut cursor = JournalCursor::starting_at(10);
        let stale = DecisionEvent { seq: 3, ..event(3) };
        cursor.advance(&[stale], 0);
        assert_eq!((cursor.position(), cursor.dropped()), (10, 0));
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
        assert_eq!(before, 64 * std::mem::size_of::<DecisionEvent>());
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
}
