//! The TCP server: admission control and graceful shutdown.
//!
//! [`Server::start`] binds a listener and launches the one front-end: a
//! single reactor thread running the epoll readiness loop in
//! `event_loop` — nonblocking sockets, pipelined frames decided
//! inline in frame order, 10k+ idle connections with no thread growth.
//! Admission control is the `max_connections` cap; past it the acceptor
//! answers `busy` with a load snapshot.
//!
//! Shutdown — either [`Server::shutdown`] from the owning process or a
//! client's `shutdown` request — is graceful: the flag flips, the reactor
//! sees it (the waker interrupts its poll, or, for a client's request,
//! its next poll does not wait), every connection gets its in-flight
//! answer and a `bye`, session sweeps run, and only then is the reactor
//! thread joined.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bep_core::SqlProxy;

use crate::conn::ConnShared;
use crate::event_loop;
use crate::framing::{write_frame, MAX_FRAME};
use crate::protocol::Response;
use crate::reactor::{waker_pair, Waker};

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Live-connection admission cap; past it new connections get `busy`.
    pub max_connections: usize,
    /// Largest accepted frame in bytes.
    pub max_frame: usize,
    /// The reactor's poll tick; paces the shutdown flag and the idle clock.
    pub poll_interval: Duration,
    /// A connection silent this long is reaped and its sessions ended.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 12_288,
            max_frame: MAX_FRAME,
            poll_interval: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// A running enforcement server. Dropping without calling
/// [`Server::shutdown`] or [`Server::wait`] aborts ungracefully (threads
/// detach); prefer an explicit stop.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    busy_rejections: Arc<AtomicU64>,
    /// The reactor thread and the waker that interrupts its poller.
    reactor: Option<(JoinHandle<()>, Waker)>,
}

impl Server {
    /// Binds `bind_addr` (use `127.0.0.1:0` for an ephemeral port), wraps
    /// `proxy`, and starts serving.
    pub fn start(
        proxy: Arc<SqlProxy>,
        config: ServerConfig,
        bind_addr: &str,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let busy_rejections = Arc::new(AtomicU64::new(0));
        let shared = Arc::new(ConnShared {
            proxy,
            config,
            shutdown: Arc::clone(&shutdown),
            rejecting: Arc::default(),
        });

        let (waker, waker_rx) = waker_pair()?;
        let loop_busy = Arc::clone(&busy_rejections);
        let thread = std::thread::Builder::new()
            .name("bep-server-reactor".into())
            .spawn(move || event_loop::run(listener, shared, waker_rx, loop_busy))?;

        Ok(Server {
            addr,
            shutdown,
            busy_rejections,
            reactor: Some((thread, waker)),
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections turned away with `busy` so far.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Acquire)
    }

    /// Requests shutdown and blocks until drained: connections finish
    /// their in-flight request, orphaned sessions are swept, the reactor
    /// thread joins.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.finish();
    }

    /// Blocks until a client-initiated `shutdown` request stops the
    /// server, then drains exactly like [`Server::shutdown`].
    pub fn wait(mut self) {
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finish();
    }

    fn finish(&mut self) {
        let Some((thread, waker)) = self.reactor.take() else {
            return;
        };
        waker.wake();
        let _ = thread.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.shutdown.store(true, Ordering::Release);
            self.finish();
        }
    }
}

/// Reject threads one server may have live at once; past them a
/// turned-away connection is closed at once, without its `busy` frame.
pub const MAX_REJECT_THREADS: usize = 32;

/// Write timeout for the terminal frame on a turned-away connection.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Writes one terminal response on a connection the server will not
/// serve, then closes it politely. "Politely" matters: the client has
/// usually pipelined its `hello` already, and closing a socket with
/// unread data sends an RST that destroys the very `busy` frame we just
/// wrote. So the rejection drains the client's bytes until FIN (briefly),
/// and runs on its own short-lived thread to keep the event loop free.
/// Each such thread holds a clone of `live`, and only the reactor calls
/// this, so no more than [`MAX_REJECT_THREADS`] run at once.
pub(crate) fn reject(mut stream: TcpStream, response: &Response, live: &Arc<()>) {
    if Arc::strong_count(live) > MAX_REJECT_THREADS {
        return;
    }
    let live = Arc::clone(live);
    let wire = response.to_wire();
    let _ = std::thread::Builder::new()
        .name("bep-server-reject".into())
        .spawn(move || {
            let _live = live;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
            let _ = stream.set_nodelay(true);
            let _ = write_frame(&mut stream, wire.as_bytes());
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let deadline = std::time::Instant::now() + Duration::from_millis(500);
            let mut sink = [0u8; 256];
            loop {
                use std::io::Read;
                match stream.read(&mut sink) {
                    Ok(0) => break, // client saw our frame and closed: FIN
                    Ok(_) => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if std::time::Instant::now() >= deadline {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
}
