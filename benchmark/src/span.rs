//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written out when the run ends.
//!
//! The program under test is not instrumented by this package; spans are
//! stamped here, around the public call that enters a layer. `req` is the
//! ordinal of the statement the call served, so the spans of one
//! statement — taken in different replay passes — share an identifier.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.execute`.
    pub name: &'static str,
    /// Ordinal of the statement (or traffic op, for `loadgen.op`) served.
    pub req: u32,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log with its own clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is stamped later by [`close`](Self::close)
    /// (for spans that enclose others).
    pub fn open(&mut self, name: &'static str, req: u32) -> u32 {
        let now = self.now_ns();
        self.push(Span {
            name,
            req,
            parent: None,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Stamps the end of a span returned by [`open`](Self::open).
    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span, in append order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`, in append order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Appends every span of `other`, keeping parent links intact.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per line: `name, req, parent, start_ns, end_ns`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover. Children of one parent run one after the
/// other on one thread, so their clipped durations add without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}
