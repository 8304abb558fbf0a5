//! Minimal epoll readiness abstraction — the `mio` we are not allowed to
//! depend on.
//!
//! The workspace builds offline with no external crates, so readiness IO
//! is obtained straight from the kernel: the four epoll entry points are
//! declared here as `extern "C"` symbols of the libc that `std` already
//! links. Nothing else is wrapped — no edge-triggered mode, no timerfd,
//! no signalfd — because the event loop needs exactly three things:
//!
//! * [`Poller`] — a level-triggered epoll instance: register an fd under a
//!   `u64` token with read/write interest, re-arm it, and [`Poller::wait`]
//!   for readiness with a timeout (the loop's idle/shutdown tick);
//! * [`Waker`] — a nonblocking socketpair whose read end lives in the
//!   poller, so another thread (shutdown, a future completion source) can
//!   interrupt a blocked `wait` with one write;
//! * [`raise_nofile_limit`] — a best-effort `RLIMIT_NOFILE` bump so the
//!   10k-connection targets are reachable on hosts whose soft limit
//!   defaults to 1024 (CI runners); returns the achieved soft limit.
//!
//! Level-triggered is a deliberate simplification: a connection whose
//! socket still holds unread bytes shows up again on the next `wait`, so
//! the event loop may stop reading mid-burst (fairness caps) without any
//! re-arm bookkeeping. The price — one extra syscall per lingering
//! connection per tick — is irrelevant next to the decision path.

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// The libc entry points `std` already links, with their Linux
// signatures. `epoll_event`'s layout differs by architecture; see
// [`EpollEvent`].
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const RLIMIT_NOFILE: c_int = 7;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// One kernel-side readiness record, laid out as the kernel's
/// `struct epoll_event`: packed (12 bytes) on x86_64 only, where
/// `linux/eventpoll.h` sets `EPOLL_PACKED`, and naturally aligned
/// (16 bytes, `data` at offset 8) on every other architecture.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// What one registered fd is ready for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or an accepted connection, or EOF) can be read.
    pub readable: bool,
    /// The socket send buffer has room again.
    pub writable: bool,
    /// The peer closed or the socket errored; reading will surface it.
    pub hangup: bool,
}

/// A level-triggered epoll instance plus its reusable event buffer.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

// The event loop moves its poller onto its own thread. An fd and an owned
// buffer of plain records are `Send` already; this fails to compile if a
// field ever makes the poller not `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Poller>();
};

impl Poller {
    /// Creates an epoll instance sized for `capacity` events per wait.
    pub fn new(capacity: usize) -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes a flags integer and no pointers;
        // a negative return is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.clamp(64, 4096)],
        })
    }

    fn ctl(
        &self,
        op: c_int,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut interest = EPOLLRDHUP;
        if readable {
            interest |= EPOLLIN;
        }
        if writable {
            interest |= EPOLLOUT;
        }
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` on this
        // stack frame; the kernel only reads it during the call.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Changes an already registered fd's interest set.
    pub fn rearm(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Removes `fd` from the poller. Closing the fd does this implicitly;
    /// explicit removal keeps the kernel set tidy when fds are reused.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`: `ev` outlives the call. The kernel ignores
        // it for `EPOLL_CTL_DEL`, but kernels before 2.6.9 require it
        // non-null.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses, then appends the readiness records to `out`. Returns how
    /// many were delivered (0 = tick). EINTR counts as a tick.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Readiness>) -> io::Result<usize> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: the pointer and length both come from `buf`, which is
        // borrowed mutably for the call, so the kernel writes at most
        // `buf.len()` records of `EpollEvent`'s (kernel-matching) layout
        // into memory this poller owns. `buf.len()` ≤ 4096 fits a c_int.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            out.push(Readiness {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1` and is owned by this
        // poller alone; it is closed exactly once, here.
        unsafe {
            close(self.epfd);
        }
    }
}

/// The write end of a poller interrupt: one byte wakes a blocked
/// [`Poller::wait`]. Clone-free and cheap; writes to a full pipe are
/// dropped (the loop is already awake).
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Interrupts the poller this waker was paired with.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A (waker, pollable read end) pair. Register the read end in the poller
/// under a reserved token and [`drain_waker`] it on readiness.
pub fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Discards every pending wake byte so a level-triggered poller stops
/// reporting the waker readable.
pub fn drain_waker(rx: &UnixStream) {
    use std::io::Read;
    let mut sink = [0u8; 64];
    let mut rx = rx;
    while let Ok(n) = rx.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// Best-effort bump of the open-file soft limit toward `target` (capped at
/// the hard limit). Returns the soft limit in effect afterwards. Hosts
/// with a 1024 default would otherwise cap the 10k-connection experiments
/// long before the reactor does.
pub fn raise_nofile_limit(target: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live `struct rlimit` (two 64-bit `rlim_t`s on the
    // 64-bit targets this crate serves) that the call fills in.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.cur < target && lim.max > lim.cur {
        let raised = RLimit {
            cur: target.min(lim.max),
            max: lim.max,
        };
        // SAFETY: `raised` is a live `struct rlimit` the call only reads.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return raised.cur;
        }
    }
    lim.cur
}

/// The raw fd of any socket-like type, for registration.
pub fn fd_of(s: &impl AsRawFd) -> RawFd {
    s.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_sees_listener_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new(64).unwrap();
        poller.register(fd_of(&listener), 7, true, false).unwrap();

        // Nothing pending: a short wait times out with no events.
        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "no readiness before a connect");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        // The connect may take a scheduler tick to surface.
        for _ in 0..100 {
            poller.wait(Duration::from_millis(20), &mut events).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn waker_interrupts_wait_and_drains() {
        let (waker, rx) = waker_pair().unwrap();
        let mut poller = Poller::new(64).unwrap();
        poller.register(fd_of(&rx), 1, true, false).unwrap();

        waker.wake();
        waker.wake();
        let mut events = Vec::new();
        poller
            .wait(Duration::from_millis(500), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        drain_waker(&rx);
        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "drained waker is quiet");
    }

    #[test]
    fn rearm_toggles_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut poller = Poller::new(64).unwrap();
        // Write-interest on an idle socket: immediately writable.
        poller
            .register(fd_of(&server_side), 3, false, true)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(Duration::from_millis(500), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        // Re-arm to read-only: no spurious writable ticks.
        poller.rearm(fd_of(&server_side), 3, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty());

        // Readable once the peer writes.
        (&client).write_all(b"x").unwrap();
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(Duration::from_millis(20), &mut events).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        poller.deregister(fd_of(&server_side)).unwrap();
    }

    #[test]
    fn epoll_event_matches_the_kernel_layout() {
        let expected = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<EpollEvent>(), expected);
    }

    #[test]
    fn nofile_limit_is_at_least_reported() {
        let soft = raise_nofile_limit(4096);
        assert!(soft >= 256, "any sane host grants a few hundred fds");
    }
}
