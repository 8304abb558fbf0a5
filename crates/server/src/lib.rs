//! `bep-server` — the networked enforcement front-end.
//!
//! Blockaid-style deployments put the compliance checker on the network
//! path as a SQL proxy; this crate is that missing serving layer for the
//! workspace's [`SqlProxy`](bep_core::SqlProxy). It is built on `std::net`
//! alone (the workspace stays offline-buildable — no async runtime):
//!
//! * [`protocol`] — typed `hello`/`begin`/`execute`/`trace`/`metrics`/
//!   `journal`/`end`/`shutdown` messages over a hand-rolled JSON layer
//!   ([`json`]); `execute` is the one way to run a statement, `trace` and
//!   `journal` frames carry decision provenance
//!   ([`bep_core::DecisionEvent`], including its solver-span summary),
//!   and `metrics` — the Prometheus text exposition — is the one way to
//!   read the proxy's counters;
//! * [`framing`] — 4-byte length-prefixed frames with split-read tolerance
//!   and oversized-frame rejection, in both pull
//!   ([`framing::FrameReader`]) and push ([`framing::FrameDecoder`]) form;
//! * [`reactor`] — a minimal level-triggered epoll abstraction (raw
//!   syscalls against the libc `std` already links: no external deps);
//! * `event_loop` — the front-end: one reactor thread holding
//!   every connection, pipelined frames decided inline in frame order;
//! * `conn` — per-connection protocol state: handshake enforcement,
//!   connection-scoped session ownership, typed errors for malformed
//!   frames, and a drop guard that sweeps orphaned sessions;
//! * [`server`] — admission control (a connection cap: past it the
//!   acceptor answers `busy` with a load snapshot) and graceful
//!   drain-then-join shutdown;
//! * [`client`] — the blocking client used by tests, the benches, and
//!   the `serve_calendar` example; supports pipelined
//!   bursts via [`client::Client::execute_pipelined`].

#![warn(missing_docs)]

pub mod client;
pub(crate) mod conn;
pub(crate) mod event_loop;
pub mod framing;
pub mod json;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{Client, ClientError, ExecOutcome, JournalPage, TraceInfo};
pub use protocol::{ErrorKind, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
