//! Length-prefixed framing over a byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. [`FrameReader`] is an incremental decoder: it
//! tolerates arbitrarily split reads (one byte at a time is fine) and
//! surfaces read timeouts as a distinct [`FrameEvent::TimedOut`] so the
//! connection loop can run its idle clock without losing a half-received
//! frame. Oversized length prefixes are rejected from the header alone,
//! so a hostile `0xFFFFFFFF` header costs one read, not 4 GiB.
//!
//! Both directions move a small frame in one system call: [`write_frame`]
//! sends prefix and payload as one buffer (two writes are two segments
//! under `TCP_NODELAY`), and [`FrameReader`] reads whatever has arrived —
//! prefix, payload, the next frame's start — in one `read`.

use std::io::{self, Read, Write};

/// Largest frame either side will accept by default (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// A framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer announced a frame larger than the reader's limit.
    Oversized {
        /// Announced payload length.
        announced: usize,
        /// The reader's limit.
        limit: usize,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// An I/O error other than a read timeout.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { announced, limit } => {
                write!(f, "frame of {announced} bytes exceeds limit {limit}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What one call to [`FrameReader::read_frame`] produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// The underlying read timed out; partial state is kept, call again.
    TimedOut,
}

/// Incremental frame decoder over a pulled `Read`: a [`FrameDecoder`] it
/// fills one `read` at a time, so timeouts and split reads lose nothing and
/// a frame that arrived whole costs one call.
#[derive(Debug)]
pub struct FrameReader {
    decoder: FrameDecoder,
}

/// The least and the most a [`FrameReader`] asks the transport for at once.
const READ_AHEAD: usize = 4096;
const READ_AT_MOST: usize = 64 * 1024;

impl FrameReader {
    /// A reader that rejects frames larger than `limit` bytes.
    pub fn new(limit: usize) -> FrameReader {
        FrameReader {
            decoder: FrameDecoder::new(limit),
        }
    }

    /// Pulls bytes from `r` until a full frame, end-of-stream, or a read
    /// timeout. `WouldBlock`/`TimedOut`/`Interrupted` I/O errors surface as
    /// [`FrameEvent::TimedOut`]; everything else is a hard error.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<FrameEvent, FrameError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(FrameEvent::Frame(payload));
            }
            match self.decoder.fill_from(r) {
                Ok(0) if self.decoder.mid_frame() => return Err(FrameError::Truncated),
                Ok(0) => return Ok(FrameEvent::Eof),
                Ok(_) => {}
                Err(e) => return soft_or_hard(e),
            }
        }
    }
}

/// Buffer-based incremental frame decoder for nonblocking transports.
///
/// Where [`FrameReader`] *pulls* from a blocking `Read`, `FrameDecoder` is
/// *fed*: the event loop reads whatever the socket has into a scratch
/// buffer, [`feed`](FrameDecoder::feed)s it, and then drains zero or more
/// complete frames with [`next_frame`](FrameDecoder::next_frame) — which
/// is exactly the shape pipelining needs, because one readiness event may
/// carry many frames (or a fraction of one). Splits at any byte boundary
/// are tolerated; an oversized length prefix is rejected from the header
/// alone, before any payload is buffered.
#[derive(Debug)]
pub struct FrameDecoder {
    limit: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted after every extracted frame.
    pos: usize,
}

impl FrameDecoder {
    /// A decoder that rejects frames larger than `limit` bytes.
    pub fn new(limit: usize) -> FrameDecoder {
        FrameDecoder {
            limit,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends raw bytes read off the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends what one `read` of `r` returns — asked for the rest of the
    /// frame in flight, within [`READ_AHEAD`] and [`READ_AT_MOST`] — and
    /// returns its count.
    fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let missing = match self.pending_len() {
            Some(len) if len <= self.limit => (4 + len).saturating_sub(self.buffered()),
            _ => 0,
        };
        let filled = self.buf.len();
        self.buf
            .resize(filled + missing.clamp(READ_AHEAD, READ_AT_MOST), 0);
        let read = r.read(&mut self.buf[filled..]);
        self.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` while a frame is partially buffered (EOF now would be
    /// truncation, and an idle clock should not tick).
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// The announced length of the next frame, once its header is
    /// complete.
    fn pending_len(&self) -> Option<usize> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        Some(u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize)
    }

    /// `true` when at least one complete frame is buffered and a
    /// [`next_frame`](FrameDecoder::next_frame) call would yield it. Lets
    /// a fairness-capped loop know it must revisit this decoder even
    /// without new socket readiness.
    pub fn has_frame(&self) -> bool {
        match self.pending_len() {
            Some(len) => len > self.limit || self.buffered() >= 4 + len,
            None => false,
        }
    }

    /// Extracts the next complete frame, if one is fully buffered.
    /// `Ok(None)` means "feed me more"; an oversized announcement is an
    /// unrecoverable [`FrameError::Oversized`] (framing cannot resync).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(len) = self.pending_len() else {
            return Ok(None);
        };
        if len > self.limit {
            return Err(FrameError::Oversized {
                announced: len,
                limit: self.limit,
            });
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        // Compact: drop the consumed prefix so the buffer tracks only
        // in-flight bytes (pipelined bursts stay bounded by what the
        // socket delivered, not by connection lifetime).
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

fn soft_or_hard(e: io::Error) -> Result<FrameEvent, FrameError> {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(FrameEvent::TimedOut),
        io::ErrorKind::Interrupted => Ok(FrameEvent::TimedOut),
        _ => Err(FrameError::Io(e)),
    }
}

/// Writes one frame (length prefix + payload) as one buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if u32::try_from(payload.len()).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// The on-wire bytes of one frame (for tests and hand-rolled probes).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields its script one fragment at a time, with a
    /// timeout event between fragments.
    struct Fragmented {
        fragments: Vec<Vec<u8>>,
        next: usize,
        timeout_between: bool,
        pending_timeout: bool,
    }

    impl Read for Fragmented {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending_timeout {
                self.pending_timeout = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            if self.next >= self.fragments.len() {
                return Ok(0);
            }
            let frag = &mut self.fragments[self.next];
            let n = frag.len().min(buf.len());
            buf[..n].copy_from_slice(&frag[..n]);
            if n == frag.len() {
                self.next += 1;
                self.pending_timeout = self.timeout_between;
            } else {
                frag.drain(..n);
            }
            Ok(n)
        }
    }

    #[test]
    fn round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"t\":\"hello\"}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = FrameReader::new(MAX_FRAME);
        let mut cur = Cursor::new(wire);
        match r.read_frame(&mut cur).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"{\"t\":\"hello\"}"),
            other => panic!("{other:?}"),
        }
        match r.read_frame(&mut cur).unwrap() {
            FrameEvent::Frame(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(matches!(r.read_frame(&mut cur).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn split_reads_one_byte_at_a_time() {
        let wire = frame_bytes(b"abcdef");
        let mut src = Fragmented {
            fragments: wire.iter().map(|b| vec![*b]).collect(),
            next: 0,
            timeout_between: true,
            pending_timeout: false,
        };
        let mut r = FrameReader::new(MAX_FRAME);
        let mut timeouts = 0;
        loop {
            match r.read_frame(&mut src).unwrap() {
                FrameEvent::Frame(p) => {
                    assert_eq!(p, b"abcdef");
                    break;
                }
                FrameEvent::TimedOut => timeouts += 1,
                FrameEvent::Eof => panic!("eof before frame completed"),
            }
        }
        assert!(timeouts > 0, "the fragmented source injected timeouts");
    }

    #[test]
    fn oversized_frame_is_rejected_from_the_header_alone() {
        let mut wire = 0xFFFF_FFFFu32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"whatever");
        let mut r = FrameReader::new(1024);
        let err = r.read_frame(&mut Cursor::new(wire)).unwrap_err();
        match err {
            FrameError::Oversized { announced, limit } => {
                assert_eq!(announced, 0xFFFF_FFFF);
                assert_eq!(limit, 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncation() {
        let wire = frame_bytes(b"abcdef");
        // Header promises 6 bytes; deliver 3.
        let mut r = FrameReader::new(MAX_FRAME);
        let mut cur = Cursor::new(wire[..7].to_vec());
        assert!(matches!(
            r.read_frame(&mut cur).unwrap_err(),
            FrameError::Truncated
        ));

        // EOF inside the header is truncation too.
        let mut r = FrameReader::new(MAX_FRAME);
        let mut cur = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            r.read_frame(&mut cur).unwrap_err(),
            FrameError::Truncated
        ));
    }
}
