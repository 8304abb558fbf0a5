//! Per-connection protocol state.
//!
//! [`ConnCore`] owns everything one connection's protocol needs — the
//! handshake flag and the sessions it began — and answers each decoded
//! request on the spot: control-plane messages and enforcement decisions
//! alike, so every answer reflects exactly the frames before it on the
//! connection. Error
//! containment is graded:
//!
//! * a *malformed message* (bad JSON, unknown tag, missing field) gets a
//!   typed `error` response and the connection stays open — one bad frame
//!   must not cost a client its session state;
//! * an *oversized or truncated frame* closes the connection — framing is
//!   lost and there is no safe way to resynchronize;
//! * a *write failure or hard read error* closes the connection.
//!
//! Whatever the exit path (clean `End`s, client vanishing, idle reaping,
//! server shutdown), a drop guard ends every session the connection ever
//! began that is still live — the server never leaks orphaned sessions.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bep_core::{CoreError, DenyReason, ProxyResponse, SqlProxy};

use crate::event_loop::ReactorMetrics;
use crate::protocol::{ErrorKind, Request, Response, PROTOCOL_VERSION};
use crate::server::ServerConfig;

/// State shared by every connection of one server.
pub(crate) struct ConnShared {
    /// The enforcement proxy.
    pub proxy: Arc<SqlProxy>,
    /// Timeouts and limits.
    pub config: ServerConfig,
    /// Server-wide shutdown flag.
    pub shutdown: Arc<AtomicBool>,
}

/// Ends every still-live session this connection began, on any exit path
/// (including unwinding). Owns its proxy handle so
/// connection state can outlive any particular stack frame — the event
/// loop keeps thousands of these alive at once.
struct SessionSweep {
    proxy: Arc<SqlProxy>,
    owned: HashSet<u64>,
}

impl Drop for SessionSweep {
    fn drop(&mut self) {
        self.proxy.end_sessions(self.owned.iter().copied());
    }
}

/// Upper bound on events per `journal` response, whatever the client asks
/// for — keeps one frame well under the frame-size limit; clients page
/// with `after`.
const JOURNAL_BATCH_MAX: usize = 512;

/// One connection's protocol state.
pub(crate) struct ConnCore {
    shared: Arc<ConnShared>,
    sweep: SessionSweep,
    greeted: bool,
}

impl ConnCore {
    pub(crate) fn new(shared: Arc<ConnShared>) -> ConnCore {
        let proxy = Arc::clone(&shared.proxy);
        ConnCore {
            shared,
            sweep: SessionSweep {
                proxy,
                owned: HashSet::new(),
            },
            greeted: false,
        }
    }

    /// Decodes one frame payload into a request, mapping UTF-8 and
    /// protocol failures to the typed error response the peer should see
    /// (the connection survives either; boxed to keep the `Err` slim).
    pub(crate) fn parse(payload: &[u8]) -> Result<Request, Box<Response>> {
        let text = std::str::from_utf8(payload).map_err(|_| {
            Box::new(Response::Error {
                kind: ErrorKind::Malformed,
                msg: "frame is not valid UTF-8".into(),
            })
        })?;
        Request::from_wire(text).map_err(|e| {
            Box::new(Response::Error {
                kind: ErrorKind::Malformed,
                msg: e.to_string(),
            })
        })
    }

    /// Answers one decoded request, deciding `execute` inline; the flag says whether the connection
    /// should close after sending the response. A `metrics` answer carries
    /// the reactor's counters after the proxy's.
    pub(crate) fn classify(
        &mut self,
        request: Request,
        reactor: &ReactorMetrics,
    ) -> (Response, bool) {
        if !self.greeted {
            return match request {
                Request::Hello { version } if version == PROTOCOL_VERSION => {
                    self.greeted = true;
                    (
                        Response::Welcome {
                            version: PROTOCOL_VERSION,
                        },
                        false,
                    )
                }
                Request::Hello { version } => (
                    Response::Error {
                        kind: ErrorKind::Unsupported,
                        msg: format!(
                            "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                    true,
                ),
                _ => (
                    Response::Error {
                        kind: ErrorKind::Unsupported,
                        msg: "handshake required: send hello first".into(),
                    },
                    true,
                ),
            };
        }
        let close = matches!(request, Request::Shutdown);
        (self.answer(request, reactor), close)
    }

    /// [`classify`](Self::classify) past the handshake.
    fn answer(&mut self, request: Request, reactor: &ReactorMetrics) -> Response {
        let shared = &self.shared;
        match request {
            Request::Hello { .. } => Response::Error {
                kind: ErrorKind::Unsupported,
                msg: "already greeted".into(),
            },
            Request::Begin { bindings } => {
                let session = shared.proxy.begin_session(bindings);
                self.sweep.owned.insert(session);
                Response::Began { session }
            }
            Request::Execute {
                session,
                sql,
                bindings,
            } => {
                // Sessions are connection-scoped capabilities: a connection
                // may only touch sessions it began, so one client can never
                // read another's trace-unlocked state by guessing ids.
                if !self.sweep.owned.contains(&session) {
                    return no_such_session(session);
                }
                exec_response(shared.proxy.execute(session, &sql, &bindings))
            }
            Request::Trace { session } => {
                if !self.sweep.owned.contains(&session) {
                    return no_such_session(session);
                }
                match shared.proxy.session_trace_len(session) {
                    Ok((entries, facts)) => Response::TraceSummary {
                        entries: entries as u64,
                        facts: facts as u64,
                    },
                    Err(e) => core_error(e),
                }
            }
            Request::Metrics => {
                let mut text = shared.proxy.metrics_text();
                reactor.write(&mut text);
                Response::Metrics { text }
            }
            Request::Journal { after, max } => {
                let journal = shared.proxy.journal();
                let max = (max as usize).min(JOURNAL_BATCH_MAX);
                Response::Journal {
                    events: journal.events_since(after, max),
                    published: journal.published(),
                    evicted: journal.evicted(),
                }
            }
            Request::End { session } => {
                if !self.sweep.owned.contains(&session) {
                    return no_such_session(session);
                }
                // `owned` deliberately keeps the id: a repeated End must
                // stay idempotent (`was_live: false`), not become
                // no-such-session.
                let was_live = shared.proxy.end_session(session);
                Response::Ended { was_live }
            }
            Request::Shutdown => {
                // The reactor answering this frame is awake: it polls
                // without waiting once the flag is set and drains next lap.
                shared.shutdown.store(true, Ordering::Release);
                Response::Bye
            }
        }
    }
}

/// Maps one proxy execution result to its wire form.
fn exec_response(result: Result<ProxyResponse, CoreError>) -> Response {
    match result {
        Ok(ProxyResponse::Rows(rows)) => Response::Rows {
            columns: rows.columns,
            rows: rows.rows,
        },
        Ok(ProxyResponse::Affected(n)) => Response::Affected { n: n as u64 },
        Ok(ProxyResponse::Blocked(reason)) => Response::Blocked {
            reason: reason.label().to_string(),
            detail: blocked_detail(&reason),
        },
        Err(e) => core_error(e),
    }
}

/// The human-readable detail a blocked statement carries on the wire.
pub(crate) fn blocked_detail(reason: &DenyReason) -> String {
    match reason {
        DenyReason::NotDetermined { query } => format!("{query:?}"),
        DenyReason::WriteNotCovered { query } => format!("{query:?}"),
        DenyReason::OutOfFragment(m) => m.clone(),
        DenyReason::ParseError(m) => m.clone(),
    }
}

fn no_such_session(session: u64) -> Response {
    Response::Error {
        kind: ErrorKind::NoSuchSession,
        msg: format!("no such session: {session}"),
    }
}

fn core_error(e: CoreError) -> Response {
    let kind = match e {
        CoreError::NoSuchSession(_) => ErrorKind::NoSuchSession,
        _ => ErrorKind::Internal,
    };
    Response::Error {
        kind,
        msg: e.to_string(),
    }
}
