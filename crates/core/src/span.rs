//! Hierarchical decision micro-spans.
//!
//! [`PhaseTimer`](crate::obs::PhaseTimer) attributes a decision's wall
//! time to six flat phases. This module goes one level deeper: a bounded
//! span *tree* per decision, where each node is one unit of solver work
//! (a disjunct proof, a certificate replay, a fallback search) annotated
//! with the [`SolverCounters`] delta — rewrite iterations, containment
//! calls, homomorphism nodes/backtracks — that accrued while it was the
//! innermost open span.
//!
//! # Design constraints
//!
//! * **No allocation on the happy path.** The tree lives in a
//!   thread-local arena of at most [`SPAN_ARENA_CAPACITY`] nodes whose
//!   backing `Vec`s are cleared (capacity retained) between decisions;
//!   only a decision the exemplar store retains clones the arena out.
//!   Spans past the capacity are counted, not stored, and the summary
//!   says so.
//! * **No signature changes.** `enter`/`exit` are free functions on
//!   thread-local state, so deep layers (plan compilation, the concrete
//!   prover's closures) add spans without threading a handle through
//!   every call — and without fighting the borrow checker across the
//!   prover's `&mut` provenance. The decision path runs on one thread,
//!   which is the invariant that makes thread-local state exact.
//! * **Near-zero cost when off.** Every hook first reads one
//!   thread-local `Cell<bool>`; with spans disabled that is the entire
//!   cost.
//!
//! The summary ([`SpanSummary`]) is 3 words and rides on every
//! [`DecisionEvent`](crate::obs::DecisionEvent); the full tree
//! ([`SpanRecord`]s) is captured only when a decision qualifies as a
//! slow-decision exemplar.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use qlogic::probe::{self, SolverCounters};

/// Maximum nodes retained per decision tree. 64 comfortably covers a
/// multi-disjunct decision (a handful of disjuncts, each with a replay
/// and possibly a fallback) while bounding the arena at a few KiB;
/// overflow is counted in [`SpanSummary::truncated`].
pub const SPAN_ARENA_CAPACITY: usize = 64;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// The whole decision (the tree's root).
    Decision = 0,
    /// Template compilation: parse + translate + candidate pruning.
    Compile = 1,
    /// The compile-time symbolic proof of one disjunct.
    TemplateProof = 2,
    /// Concrete proof of one disjunct at decision time.
    Disjunct = 3,
    /// Verification-only replay of a compiled certificate.
    CertReplay = 4,
    /// Full rewriting search after a certificate failed to replay.
    CertFallback = 5,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Decision,
        SpanKind::Compile,
        SpanKind::TemplateProof,
        SpanKind::Disjunct,
        SpanKind::CertReplay,
        SpanKind::CertFallback,
    ];

    /// Stable label (metrics/exposition vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Decision => "decision",
            SpanKind::Compile => "compile",
            SpanKind::TemplateProof => "template-proof",
            SpanKind::Disjunct => "disjunct",
            SpanKind::CertReplay => "cert-replay",
            SpanKind::CertFallback => "cert-fallback",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// One node of a captured span tree, in pre-order arena position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What this span measures.
    pub kind: SpanKind,
    /// Nesting depth; the root `Decision` span is 0.
    pub depth: u8,
    /// Start offset from the decision's begin, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Solver work attributed to this span while it was innermost
    /// (piecewise: a parent's own counters exclude its children's).
    pub counters: SolverCounters,
}

/// Compact per-decision roll-up of the span tree: total solver work,
/// certificate replay outcomes, and tree shape. Rides on every
/// [`DecisionEvent`](crate::obs::DecisionEvent) (3 words); all-zero when
/// spans are disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Total MiniCon enumeration steps.
    pub rewrite_iterations: u32,
    /// Total containment checks.
    pub containment_checks: u32,
    /// Total homomorphism-search candidate visits.
    pub hom_nodes: u32,
    /// Total homomorphism-search backtracks.
    pub hom_backtracks: u32,
    /// Disjuncts decided by replaying a compiled certificate.
    pub cert_replays: u16,
    /// Disjuncts that fell back to the full rewriting search.
    pub cert_fallbacks: u16,
    /// Nodes in the span tree (including the root).
    pub spans: u16,
    /// `true` if the arena overflowed and spans were dropped.
    pub truncated: bool,
}

impl SpanSummary {
    /// Packs the summary into 3 little-endian-bitfield words (the journal
    /// slot encoding).
    pub fn to_words(&self) -> [u64; 3] {
        [
            self.rewrite_iterations as u64 | (self.containment_checks as u64) << 32,
            self.hom_nodes as u64 | (self.hom_backtracks as u64) << 32,
            self.cert_replays as u64
                | (self.cert_fallbacks as u64) << 16
                | (self.spans as u64) << 32
                | (self.truncated as u64) << 48,
        ]
    }

    /// Inverse of [`to_words`](Self::to_words).
    pub fn from_words(w: [u64; 3]) -> SpanSummary {
        SpanSummary {
            rewrite_iterations: w[0] as u32,
            containment_checks: (w[0] >> 32) as u32,
            hom_nodes: w[1] as u32,
            hom_backtracks: (w[1] >> 32) as u32,
            cert_replays: w[2] as u16,
            cert_fallbacks: (w[2] >> 16) as u16,
            spans: (w[2] >> 32) as u16,
            truncated: (w[2] >> 48) & 1 == 1,
        }
    }

    /// `true` if no field is set (the disabled-spans value).
    pub fn is_empty(&self) -> bool {
        *self == SpanSummary::default()
    }
}

/// The thread-local arena. `stack` holds arena indices of open spans
/// (`-1` marks an overflowed span, so enter/exit still pair up).
struct Tree {
    origin: Option<Instant>,
    nodes: Vec<SpanRecord>,
    stack: Vec<i32>,
    truncated: u32,
    cert_replays: u32,
    cert_fallbacks: u32,
}

impl Tree {
    const fn new() -> Tree {
        Tree {
            origin: None,
            nodes: Vec::new(),
            stack: Vec::new(),
            truncated: 0,
            cert_replays: 0,
            cert_fallbacks: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin
            .map(|o| o.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }

    /// Attributes the solver-counter delta since the previous boundary to
    /// the innermost *stored* open span.
    fn flush_counters(&mut self) {
        let delta = probe::take();
        if delta.is_zero() {
            return;
        }
        if let Some(&idx) = self.stack.iter().rev().find(|&&i| i >= 0) {
            self.nodes[idx as usize].counters.add(delta);
        }
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TREE: RefCell<Tree> = const { RefCell::new(Tree::new()) };
}

/// `true` while a span tree is being collected on this thread.
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Starts a fresh tree for one decision: clears the arena (capacity
/// retained — no allocation after the first decision on a thread), resets
/// the solver counters, and opens the root `Decision` span.
pub fn begin() {
    TREE.with(|t| {
        let mut t = t.borrow_mut();
        t.origin = Some(Instant::now());
        t.nodes.clear();
        t.stack.clear();
        t.truncated = 0;
        t.cert_replays = 0;
        t.cert_fallbacks = 0;
        probe::take(); // discard work accumulated outside any tree
        t.nodes.push(SpanRecord {
            kind: SpanKind::Decision,
            depth: 0,
            start_ns: 0,
            dur_ns: 0,
            counters: SolverCounters::default(),
        });
        t.stack.push(0);
    });
    ACTIVE.with(|a| a.set(true));
}

/// Opens a child span. No-op unless a tree is active on this thread.
pub fn enter(kind: SpanKind) {
    if !active() {
        return;
    }
    TREE.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.now_ns();
        t.flush_counters();
        if t.nodes.len() >= SPAN_ARENA_CAPACITY {
            t.truncated += 1;
            t.stack.push(-1);
            return;
        }
        let depth = (t.stack.len()).min(u8::MAX as usize) as u8;
        let idx = t.nodes.len() as i32;
        t.nodes.push(SpanRecord {
            kind,
            depth,
            start_ns: now,
            dur_ns: 0,
            counters: SolverCounters::default(),
        });
        t.stack.push(idx);
    });
}

/// Closes the innermost open span. No-op when inactive; the root span is
/// only closed by [`finish`].
pub fn exit() {
    if !active() {
        return;
    }
    TREE.with(|t| {
        let mut t = t.borrow_mut();
        if t.stack.len() <= 1 {
            return; // unbalanced exit; keep the root open
        }
        let now = t.now_ns();
        t.flush_counters();
        if let Some(idx) = t.stack.pop() {
            if idx >= 0 {
                let n = &mut t.nodes[idx as usize];
                n.dur_ns = now.saturating_sub(n.start_ns);
            }
        }
    });
}

/// RAII span: [`exit`]s on drop. For functions with multiple returns.
pub struct SpanGuard {
    _priv: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        exit();
    }
}

/// [`enter`]s a span and returns a guard that [`exit`]s it on drop.
pub fn guard(kind: SpanKind) -> SpanGuard {
    enter(kind);
    SpanGuard { _priv: () }
}

/// Records that one disjunct was decided by certificate replay.
pub fn note_cert_replay() {
    if active() {
        TREE.with(|t| t.borrow_mut().cert_replays += 1);
    }
}

/// Records that one disjunct fell back to the full rewriting search.
pub fn note_cert_fallback() {
    if active() {
        TREE.with(|t| t.borrow_mut().cert_fallbacks += 1);
    }
}

/// Ends the tree: closes every open span (root included), rolls the
/// counters up into a [`SpanSummary`], and — only if `capture` — clones
/// the arena into a `Vec<SpanRecord>` (empty otherwise, no allocation).
/// Returns `None` if no tree was active.
pub fn finish(capture: bool) -> Option<(SpanSummary, Vec<SpanRecord>)> {
    if !active() {
        return None;
    }
    ACTIVE.with(|a| a.set(false));
    TREE.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.now_ns();
        t.flush_counters();
        while let Some(idx) = t.stack.pop() {
            if idx >= 0 {
                let n = &mut t.nodes[idx as usize];
                n.dur_ns = now.saturating_sub(n.start_ns);
            }
        }
        let mut totals = SolverCounters::default();
        for n in &t.nodes {
            totals.add(n.counters);
        }
        let clamp32 = |v: u64| v.min(u32::MAX as u64) as u32;
        let clamp16 = |v: u32| v.min(u16::MAX as u32) as u16;
        let summary = SpanSummary {
            rewrite_iterations: clamp32(totals.rewrite_iterations),
            containment_checks: clamp32(totals.containment_checks),
            hom_nodes: clamp32(totals.hom_nodes),
            hom_backtracks: clamp32(totals.hom_backtracks),
            cert_replays: clamp16(t.cert_replays),
            cert_fallbacks: clamp16(t.cert_fallbacks),
            spans: clamp16(t.nodes.len() as u32),
            truncated: t.truncated > 0,
        };
        let records = if capture { t.nodes.clone() } else { Vec::new() };
        Some((summary, records))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_words_round_trip() {
        let s = SpanSummary {
            rewrite_iterations: 0xDEAD_BEEF,
            containment_checks: 17,
            hom_nodes: u32::MAX,
            hom_backtracks: 42,
            cert_replays: 3,
            cert_fallbacks: u16::MAX,
            spans: 64,
            truncated: true,
        };
        assert_eq!(SpanSummary::from_words(s.to_words()), s);
        let zero = SpanSummary::default();
        assert_eq!(SpanSummary::from_words(zero.to_words()), zero);
        assert!(zero.is_empty());
    }

    #[test]
    fn tree_collects_nested_spans_and_counters() {
        begin();
        assert!(active());
        enter(SpanKind::Disjunct);
        enter(SpanKind::CertReplay);
        qlogic::probe::take(); // ensure a clean slate, then fake work
        for _ in 0..5 {
            // drive real counters through a real containment call
            let q = qlogic::Cq::new(
                vec![],
                vec![qlogic::Atom::new("R", vec![qlogic::Term::int(1)])],
                vec![],
            );
            assert!(qlogic::contained(&q, &q));
        }
        exit(); // CertReplay
        note_cert_replay();
        exit(); // Disjunct
        let (summary, records) = finish(true).expect("tree was active");
        assert!(!active());
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.cert_replays, 1);
        assert_eq!(summary.cert_fallbacks, 0);
        assert!(summary.containment_checks >= 5, "{summary:?}");
        assert!(!summary.truncated);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, SpanKind::Decision);
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[1].kind, SpanKind::Disjunct);
        assert_eq!(records[1].depth, 1);
        assert_eq!(records[2].kind, SpanKind::CertReplay);
        assert_eq!(records[2].depth, 2);
        // The solver work ran inside CertReplay, so it is attributed
        // there, not to its ancestors.
        assert!(records[2].counters.containment_checks >= 5);
        assert_eq!(records[1].counters.containment_checks, 0);
        // Durations nest: the root covers its children.
        assert!(records[0].dur_ns >= records[1].dur_ns);
        assert!(records[1].dur_ns >= records[2].dur_ns);
    }

    #[test]
    fn arena_overflow_truncates_and_counts() {
        begin();
        for _ in 0..(SPAN_ARENA_CAPACITY + 10) {
            enter(SpanKind::Disjunct);
            exit();
        }
        let (summary, records) = finish(true).unwrap();
        assert!(summary.truncated);
        assert_eq!(summary.spans as usize, SPAN_ARENA_CAPACITY);
        assert_eq!(records.len(), SPAN_ARENA_CAPACITY);
    }

    #[test]
    fn hooks_are_inert_without_begin() {
        assert!(!active());
        enter(SpanKind::Disjunct);
        note_cert_fallback();
        exit();
        assert!(finish(true).is_none());
    }

    #[test]
    fn capture_false_returns_no_records() {
        begin();
        enter(SpanKind::Disjunct);
        exit();
        let (summary, records) = finish(false).unwrap();
        assert_eq!(summary.spans, 2);
        assert!(records.is_empty());
    }

    #[test]
    fn unbalanced_exits_never_pop_the_root() {
        begin();
        exit();
        exit();
        let (summary, _) = finish(false).unwrap();
        assert_eq!(summary.spans, 1);
    }
}
