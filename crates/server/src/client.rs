//! Blocking client for the wire protocol.
//!
//! [`Client`] wraps one TCP connection: `connect` performs the
//! `hello`/`welcome` handshake (surfacing an overloaded server as the
//! typed [`ClientError::Busy`]), and each method sends one request frame
//! and reads one response frame. The benches, the smoke example, and the
//! integration tests all drive the server through this type, so the
//! client-visible protocol is exercised end to end.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bep_core::{DecisionEvent, ProxyResponse};
use minidb::Rows;
use sqlir::Value;

use crate::conn::blocked_detail;
use crate::framing::{write_frame, FrameError, FrameEvent, FrameReader, MAX_FRAME};
use crate::protocol::{Request, Response, PROTOCOL_VERSION};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, or timeout).
    Io(std::io::Error),
    /// The server is at capacity; retry later. Carries the server's load
    /// snapshot at rejection time (zeros when the server predates the
    /// payload).
    Busy {
        /// Connections the server held when it turned this one away.
        queue_depth: u64,
        /// Threads serving them (one reactor).
        workers: u64,
    },
    /// The server closed the connection.
    Closed,
    /// The peer violated the protocol (bad frame or unexpected message).
    Protocol(String),
    /// The server answered with a typed `error` response.
    Server {
        /// Stable error kind label (`malformed`, `no-such-session`, …).
        kind: String,
        /// Human-readable detail.
        msg: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy {
                queue_depth,
                workers,
            } => write!(
                f,
                "server busy (queue depth {queue_depth}, {workers} workers)"
            ),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server { kind, msg } => write!(f, "server error [{kind}]: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// The outcome of one `execute` round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// Rows of an allowed `SELECT`.
    Rows(Rows),
    /// Row count of a pass-through DML statement.
    Affected(u64),
    /// The statement was blocked by the policy.
    Blocked {
        /// Stable reason label.
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl ExecOutcome {
    /// `true` unless the statement was blocked.
    pub fn is_allowed(&self) -> bool {
        !matches!(self, ExecOutcome::Blocked { .. })
    }
}

/// What an embedded caller's response would have been over the wire.
impl From<ProxyResponse> for ExecOutcome {
    fn from(r: ProxyResponse) -> ExecOutcome {
        match r {
            ProxyResponse::Rows(rows) => ExecOutcome::Rows(rows),
            ProxyResponse::Affected(n) => ExecOutcome::Affected(n as u64),
            ProxyResponse::Blocked(reason) => ExecOutcome::Blocked {
                reason: reason.label().to_string(),
                detail: blocked_detail(&reason),
            },
        }
    }
}

/// A session's trace summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Recorded queries.
    pub entries: u64,
    /// Derived ground facts.
    pub facts: u64,
}

/// One page of the server's decision journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalPage {
    /// Events with sequence ≥ the requested `after`, oldest first.
    pub events: Vec<DecisionEvent>,
    /// Total events ever published server-wide.
    pub published: u64,
    /// Total events evicted by ring wrap-around.
    pub evicted: u64,
}

/// One protocol connection to a running server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects, handshakes, and returns a ready client. An overloaded
    /// server answers the connection with `busy`, surfaced as
    /// [`ClientError::Busy`]. `io_timeout` bounds every read and write.
    pub fn connect(addr: impl ToSocketAddrs, io_timeout: Duration) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("no address resolved".into()))?;
        let stream = TcpStream::connect_timeout(&addr, io_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            reader: FrameReader::new(MAX_FRAME),
        };
        match client.round_trip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Welcome { .. } => Ok(client),
            Response::Busy {
                queue_depth,
                workers,
            } => Err(ClientError::Busy {
                queue_depth,
                workers,
            }),
            other => Err(unexpected("welcome", &other)),
        }
    }

    /// Opens a session with policy-parameter bindings.
    pub fn begin(&mut self, bindings: Vec<(String, Value)>) -> Result<u64, ClientError> {
        match self.round_trip(&Request::Begin { bindings })? {
            Response::Began { session } => Ok(session),
            other => Err(expect_error(other, "began")),
        }
    }

    /// Executes one statement under enforcement.
    pub fn execute(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ExecOutcome, ClientError> {
        let req = Request::Execute {
            session,
            sql: sql.to_string(),
            bindings: bindings.to_vec(),
        };
        exec_outcome(self.round_trip(&req)?)
    }

    /// Executes a burst of statements **pipelined**: every request frame
    /// is written back-to-back before the first response is read, so a
    /// pipelining server can keep several frames in flight on this one
    /// connection. Responses come back in request order; the result vector
    /// is index-aligned with `stmts`.
    pub fn execute_pipelined(
        &mut self,
        session: u64,
        stmts: &[(String, Vec<(String, Value)>)],
    ) -> Result<Vec<ExecOutcome>, ClientError> {
        for (sql, bindings) in stmts {
            let req = Request::Execute {
                session,
                sql: sql.clone(),
                bindings: bindings.clone(),
            };
            write_frame(&mut self.stream, req.to_wire().as_bytes())?;
        }
        stmts
            .iter()
            .map(|_| exec_outcome(self.read_response()?))
            .collect()
    }

    /// Fetches a session's trace summary.
    pub fn trace_summary(&mut self, session: u64) -> Result<TraceInfo, ClientError> {
        match self.round_trip(&Request::Trace { session })? {
            Response::TraceSummary { entries, facts } => Ok(TraceInfo { entries, facts }),
            other => Err(expect_error(other, "trace")),
        }
    }

    /// Fetches the Prometheus text exposition of the server's metrics.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(expect_error(other, "metrics")),
        }
    }

    /// Drains up to `max` decision events with sequence ≥ `after`. Page
    /// through the journal by passing `last.seq + 1` as the next `after`.
    pub fn journal(&mut self, after: u64, max: u64) -> Result<JournalPage, ClientError> {
        match self.round_trip(&Request::Journal { after, max })? {
            Response::Journal {
                events,
                published,
                evicted,
            } => Ok(JournalPage {
                events,
                published,
                evicted,
            }),
            other => Err(expect_error(other, "journal")),
        }
    }

    /// Ends a session (idempotent); returns whether it was live.
    pub fn end(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.round_trip(&Request::End { session })? {
            Response::Ended { was_live } => Ok(was_live),
            other => Err(expect_error(other, "ended")),
        }
    }

    /// Asks the server to drain and stop; consumes the client.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(expect_error(other, "bye")),
        }
    }

    /// Sends raw bytes as one frame and reads one response — for tests
    /// probing malformed-message handling through a real connection.
    pub fn raw_round_trip(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, request.to_wire().as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match self.reader.read_frame(&mut self.stream) {
            Ok(FrameEvent::Frame(payload)) => {
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
                Response::from_wire(text).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            Ok(FrameEvent::Eof) => Err(ClientError::Closed),
            Ok(FrameEvent::TimedOut) => {
                // The socket timeout is the caller's `io_timeout`; a
                // tick here means the full timeout elapsed.
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "timed out waiting for response",
                )))
            }
            Err(FrameError::Io(e)) => Err(ClientError::Io(e)),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Flushes and closes the connection without ending sessions (the
    /// server's orphan sweep will reclaim them).
    pub fn abandon(mut self) {
        let _ = self.stream.flush();
    }
}

/// The outcome an `execute` frame's reply carries.
fn exec_outcome(response: Response) -> Result<ExecOutcome, ClientError> {
    match response {
        Response::Rows { columns, rows } => Ok(ExecOutcome::Rows(Rows { columns, rows })),
        Response::Affected { n } => Ok(ExecOutcome::Affected(n)),
        Response::Blocked { reason, detail } => Ok(ExecOutcome::Blocked { reason, detail }),
        other => Err(expect_error(other, "rows/affected/blocked")),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

fn expect_error(response: Response, wanted: &str) -> ClientError {
    match response {
        Response::Error { kind, msg } => ClientError::Server {
            kind: kind.label().to_string(),
            msg,
        },
        Response::Busy {
            queue_depth,
            workers,
        } => ClientError::Busy {
            queue_depth,
            workers,
        },
        Response::Bye => ClientError::Closed,
        other => unexpected(wanted, &other),
    }
}
