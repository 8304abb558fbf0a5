//! The server's front-end: one reactor thread, every connection.
//!
//! A single thread owns a level-triggered [`Poller`] holding the listener,
//! a shutdown [`Waker`](crate::reactor::Waker), and every live
//! connection's nonblocking socket. Each loop iteration:
//!
//! 1. **Wait** for readiness (with the configured poll tick as timeout, or
//!    zero when fairness-capped connections still hold buffered frames or
//!    shutdown was requested), then stop if shutdown was requested;
//! 2. **Read** every readable connection into its [`FrameDecoder`] and
//!    decode up to [`FRAMES_PER_CONN_PER_TICK`] frames per connection
//!    (pipelining: one readiness event may carry many frames);
//! 3. **Decide inline, in frame order**: [`ConnCore::classify`] answers
//!    each frame as it is decoded — control-plane requests and `execute`
//!    decisions alike — and the answer goes
//!    straight into the connection's write buffer, so a control frame
//!    sees every earlier decision on its connection;
//! 4. **Flush** every touched connection as far as the socket allows,
//!    arming write interest only while bytes remain.
//!
//! Fairness: a connection that pipelines more than the per-tick frame cap
//! keeps its surplus buffered and is revisited on the next iteration (the
//! `hot` list forces a zero-timeout poll), so one chatty client can delay
//! but never starve the rest; the bound on any connection's wait is
//! `(hot connections) × FRAMES_PER_CONN_PER_TICK` decisions per lap.
//!
//! Admission control is a connection cap: past `max_connections` the
//! acceptor answers `busy` (with the live connection count as the queue
//! depth). Idle connections cost one epoll registration and a few hundred
//! bytes — the 10k-idle target holds on this one thread.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{ConnCore, ConnShared};
use crate::framing::{frame_bytes, FrameDecoder, FrameError};
use crate::protocol::{ErrorKind, Response};
use crate::reactor::{drain_waker, fd_of, raise_nofile_limit, Poller, Readiness};

/// Token of the accepting listener.
const TOKEN_LISTENER: u64 = 0;
/// Token of the shutdown waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First connection token.
const TOKEN_FIRST_CONN: u64 = 2;

/// Fairness cap: frames decoded per connection per loop iteration; surplus
/// pipelined frames wait one lap.
const FRAMES_PER_CONN_PER_TICK: usize = 32;
/// Bytes read per `read()` call into the scratch buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection per-tick read ceiling: a firehose peer yields the
/// reactor back after this many bytes (level-triggered epoll re-notifies).
const READ_BUDGET: usize = 256 * 1024;

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    token: u64,
    decoder: FrameDecoder,
    core: ConnCore,
    /// Flush buffer persisting across iterations (partial writes).
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    close_after_flush: bool,
    /// Whether the poller currently watches this socket for writability.
    want_write: bool,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn push_response(&mut self, response: &Response) {
        self.out
            .extend_from_slice(&frame_bytes(response.to_wire().as_bytes()));
    }
}

/// The reactor's counters, plain integers the reactor thread owns: the
/// `metrics` frame, answered on that thread, appends them after the
/// proxy's exposition.
#[derive(Debug, Default)]
pub(crate) struct ReactorMetrics {
    /// Connections currently held.
    connections: u64,
    accepted: u64,
    frames: u64,
    ticks: u64,
}

impl ReactorMetrics {
    /// Appends the four reactor families to an exposition.
    pub(crate) fn write(&self, out: &mut String) {
        for (name, help, kind, value) in [
            (
                "bep_reactor_connections",
                "Connections currently held by the event loop",
                "gauge",
                self.connections,
            ),
            (
                "bep_reactor_accepted_total",
                "Connections accepted by the event loop",
                "counter",
                self.accepted,
            ),
            (
                "bep_reactor_frames_total",
                "Request frames decoded by the event loop",
                "counter",
                self.frames,
            ),
            (
                "bep_reactor_ticks_total",
                "Event-loop iterations (poll wakeups and timeouts)",
                "counter",
                self.ticks,
            ),
        ] {
            bep_core::write_family(out, name, help, kind, "", &[("", value)]);
        }
    }
}

/// Runs the reactor until shutdown. Owns the listener, the waker's read
/// end, and every connection it accepts.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<ConnShared>,
    waker_rx: UnixStream,
    busy_rejections: Arc<AtomicU64>,
) {
    // Best-effort headroom for the 10k-idle target; the admission cap
    // below is what actually bounds us.
    raise_nofile_limit(shared.config.max_connections as u64 + 256);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut poller = match Poller::new(1024) {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(fd_of(&listener), TOKEN_LISTENER, true, false)
        .is_err()
        || poller
            .register(fd_of(&waker_rx), TOKEN_WAKER, true, false)
            .is_err()
    {
        return;
    }

    let mut metrics = ReactorMetrics::default();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    // Connections that still hold complete-but-undecoded frames after the
    // fairness cap; revisited next iteration with a zero-timeout poll.
    let mut hot: Vec<u64> = Vec::new();
    let mut events: Vec<Readiness> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut last_idle_sweep = Instant::now();

    loop {
        events.clear();
        // Zero while fairness-capped frames wait, and once shutdown is
        // requested: a client's `shutdown` frame sets the flag on this very
        // thread, and the check below must run on the next lap.
        let timeout = if hot.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            shared.config.poll_interval
        } else {
            Duration::ZERO
        };
        if poller.wait(timeout, &mut events).is_err() {
            return;
        }
        metrics.ticks += 1;
        if shared.shutdown.load(Ordering::Acquire) {
            farewell(&mut conns);
            return;
        }

        let mut touched: Vec<u64> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();

        // Fairness carry-over first: these have decoded work waiting that
        // no readiness event will re-announce.
        for token in std::mem::take(&mut hot) {
            if let Some(conn) = conns.get_mut(&token) {
                drain_frames(conn, &mut metrics, &mut hot);
                touched.push(token);
            }
        }

        let mut accept_pending = false;
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_pending = true,
                TOKEN_WAKER => drain_waker(&waker_rx),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if ev.readable || ev.hangup {
                        if !read_ready(conn, &mut scratch) {
                            // Hard error or truncating EOF: nothing more
                            // to say; drop below.
                            dead.push(token);
                            continue;
                        }
                        drain_frames(conn, &mut metrics, &mut hot);
                    }
                    touched.push(token);
                }
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if !flush(conn, &poller) {
                dead.push(token);
            }
        }

        for token in dead {
            drop_conn(&mut conns, token, &poller, &mut metrics);
        }

        if accept_pending {
            accept_burst(
                &listener,
                &shared,
                &poller,
                &mut conns,
                &mut next_token,
                &mut metrics,
                &busy_rejections,
            );
        }

        // Idle reaping, amortized: scan at a quarter of the idle timeout.
        let sweep_every = (shared.config.idle_timeout / 4).max(Duration::from_millis(250));
        if last_idle_sweep.elapsed() >= sweep_every {
            last_idle_sweep = Instant::now();
            let idle_timeout = shared.config.idle_timeout;
            let stale: Vec<u64> = conns
                .values()
                .filter(|c| c.last_activity.elapsed() >= idle_timeout && !c.pending_out())
                .map(|c| c.token)
                .collect();
            for token in stale {
                if let Some(conn) = conns.get_mut(&token) {
                    // A goodbye unless framing is mid-frame (not
                    // re-synchronizable).
                    if !conn.decoder.mid_frame() {
                        let bye = frame_bytes(Response::Bye.to_wire().as_bytes());
                        let _ = conn.stream.write_all(&bye);
                    }
                }
                drop_conn(&mut conns, token, &poller, &mut metrics);
            }
        }
    }
}

/// Reads whatever the socket has (bounded by the per-tick budget) into the
/// connection's decoder. Returns `false` when the connection is beyond
/// saving (hard error, or EOF that truncates a frame with nothing owed).
fn read_ready(conn: &mut Conn, scratch: &mut [u8]) -> bool {
    let mut total = 0;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // FIN. Any frames already buffered still get answers; the
                // flush path closes once they are written.
                conn.close_after_flush = true;
                return true;
            }
            Ok(n) => {
                conn.decoder.feed(&scratch[..n]);
                conn.last_activity = Instant::now();
                total += n;
                // A short read drained the socket (asking again would only
                // buy an `EAGAIN`); a full budget leaves the rest to the
                // next, level-triggered, notification.
                if n < scratch.len() || total >= READ_BUDGET {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Decodes up to the fairness cap of frames from one connection,
/// answering each (decisions included) into the connection's write buffer
/// before decoding the next.
fn drain_frames(conn: &mut Conn, metrics: &mut ReactorMetrics, hot: &mut Vec<u64>) {
    for _ in 0..FRAMES_PER_CONN_PER_TICK {
        let payload = match conn.decoder.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(FrameError::Oversized { announced, limit }) => {
                // Framing is lost; typed error then close.
                conn.push_response(&Response::Error {
                    kind: ErrorKind::Malformed,
                    msg: format!("frame of {announced} bytes exceeds limit {limit}"),
                });
                conn.close_after_flush = true;
                return;
            }
            Err(_) => {
                conn.close_after_flush = true;
                return;
            }
        };
        metrics.frames += 1;
        conn.last_activity = Instant::now();
        let request = match ConnCore::parse(&payload) {
            Ok(r) => r,
            Err(error_response) => {
                // Malformed message: typed error, connection survives.
                conn.push_response(&error_response);
                continue;
            }
        };
        let (response, close) = conn.core.classify(request, metrics);
        conn.push_response(&response);
        if close {
            conn.close_after_flush = true;
            return;
        }
    }
    // Cap hit with work left over: revisit next iteration even though no
    // new readiness will fire for these buffered bytes.
    if conn.decoder.has_frame() {
        hot.push(conn.token);
    }
}

/// Writes as much pending output as the socket accepts. Returns `false`
/// when the connection should be dropped (hard write error, or close
/// requested and everything flushed).
fn flush(conn: &mut Conn, poller: &Poller) -> bool {
    while conn.pending_out() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.pending_out() {
        if !conn.want_write {
            conn.want_write = true;
            let _ = poller.rearm(fd_of(&conn.stream), conn.token, true, true);
        }
        return true;
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.close_after_flush {
        // Polite close: FIN after our last frame, never an RST over it.
        let _ = conn.stream.shutdown(Shutdown::Write);
        return false;
    }
    if conn.want_write {
        conn.want_write = false;
        let _ = poller.rearm(fd_of(&conn.stream), conn.token, true, false);
    }
    true
}

/// Accepts until the listener runs dry, applying the connection-cap
/// admission control.
fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<ConnShared>,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    metrics: &mut ReactorMetrics,
    busy_rejections: &AtomicU64,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if conns.len() >= shared.config.max_connections {
            // The event loop's saturation point: the connection table is
            // the "queue", the reactor the single worker.
            busy_rejections.fetch_add(1, Ordering::Relaxed);
            crate::server::reject(
                stream,
                &Response::Busy {
                    queue_depth: conns.len() as u64,
                    workers: 1,
                },
                &shared.rejecting,
            );
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller.register(fd_of(&stream), token, true, false).is_err() {
            continue;
        }
        conns.insert(
            token,
            Conn {
                stream,
                token,
                decoder: FrameDecoder::new(shared.config.max_frame),
                core: ConnCore::new(Arc::clone(shared)),
                out: Vec::new(),
                out_pos: 0,
                last_activity: Instant::now(),
                close_after_flush: false,
                want_write: false,
            },
        );
        metrics.accepted += 1;
        metrics.connections = conns.len() as u64;
    }
}

/// Removes one connection: poller deregistration, table removal, gauge
/// update. The [`ConnCore`]'s drop guard sweeps its sessions.
fn drop_conn(
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    poller: &Poller,
    metrics: &mut ReactorMetrics,
) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(fd_of(&conn.stream));
        metrics.connections = conns.len() as u64;
    }
}

/// Shutdown drain: best-effort `bye` to every connection, then close all
/// (each [`ConnCore`] sweeps its sessions on drop).
fn farewell(conns: &mut HashMap<u64, Conn>) {
    let bye = frame_bytes(Response::Bye.to_wire().as_bytes());
    for conn in conns.values_mut() {
        if conn.pending_out() {
            let _ = conn.stream.write_all(&conn.out[conn.out_pos..]);
        }
        let _ = conn.stream.write_all(&bye);
        let _ = conn.stream.shutdown(Shutdown::Write);
    }
    conns.clear();
}
