//! The wire protocol: typed request/response messages and their JSON
//! encoding.
//!
//! Every frame carries one JSON object whose `"t"` member tags the
//! message. Client → server:
//!
//! | `t` | fields | meaning |
//! |-----|--------|---------|
//! | `hello` | `v` | handshake; must be the first message |
//! | `begin` | `bindings` | open a session with policy-parameter bindings |
//! | `execute` | `session`, `sql`, `bindings` | run one statement under enforcement |
//! | `trace` | `session` | summarize the session's trace: entries and facts |
//! | `metrics` | | Prometheus text exposition: the proxy's counters, gauges and latency quantiles, then the reactor's four |
//! | `journal` | `after`, `max` | drain decision events with sequence ≥ `after` |
//! | `end` | `session` | end a session (idempotent) |
//! | `shutdown` | | ask the whole server to drain and stop |
//!
//! Server → client: `welcome`, `busy`, `began`, `rows`, `affected`,
//! `blocked`, `trace`, `metrics`, `journal`, `ended`, `bye`, and `error`
//! (with a stable `kind`). Every response
//! answers one request frame, except a `busy` or `bye` sent as the server
//! closes the connection; a client that follows the journal pages it
//! with `journal` and its own cursor. SQL [`Value`]s are encoded
//! unambiguously as `null`, `{"i":n}`, `{"s":"…"}`, `{"b":bool}` so
//! integer 1, string "1", and boolean true never collide.
//!
//! Decision events ride in `journal` responses as
//! objects of the form `{"seq", "session", "hash", "verdict", "tier",
//! "neg", "total_ns", "phases", "span"?}` — `hash` is the query-template
//! FNV-1a hash as a 16-digit hex string (it does not fit a signed JSON
//! integer), `tier` and `verdict` use the stable labels from
//! [`bep_core::CacheTier`] and [`bep_core::Verdict`], and `phases` is the
//! per-phase nanosecond array indexed by [`bep_core::Phase`]. `span` is
//! the compact solver-work summary (`{"rw","cc","hn","hb","cr","cf"}` —
//! rewrite iterations, containment checks, homomorphism
//! nodes/backtracks, certificate replays/fallbacks); it is omitted when
//! all-zero and defaults on decode. Unknown fields are ignored on
//! decode, so these extensions stay within protocol version 1.

use bep_core::{CacheTier, DecisionEvent, SpanSummary, Verdict, PHASE_COUNT};
use sqlir::Value;

use crate::json::Json;

/// Protocol version sent in `hello` and echoed in `welcome`.
pub const PROTOCOL_VERSION: i64 = 1;

/// A decode failure: the frame was valid JSON-shaped bytes but not a
/// well-formed message (or not valid JSON at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed message: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// Stable error kinds carried by `error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame did not decode to a well-formed request.
    Malformed,
    /// The referenced session does not exist (or belongs to another
    /// connection).
    NoSuchSession,
    /// Protocol version mismatch or out-of-order handshake.
    Unsupported,
    /// A server-side invariant failed.
    Internal,
}

impl ErrorKind {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::NoSuchSession => "no-such-session",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_label(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "malformed" => ErrorKind::Malformed,
            "no-such-session" => ErrorKind::NoSuchSession,
            "unsupported" => ErrorKind::Unsupported,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake.
    Hello {
        /// Client protocol version.
        version: i64,
    },
    /// Open a session.
    Begin {
        /// Policy-parameter bindings (e.g. `MyUId = 1`).
        bindings: Vec<(String, Value)>,
    },
    /// Execute one statement.
    Execute {
        /// Session to execute under.
        session: u64,
        /// SQL template (may contain `?name` parameters).
        sql: String,
        /// Request parameters.
        bindings: Vec<(String, Value)>,
    },
    /// Summarize a session's trace.
    Trace {
        /// Session to summarize.
        session: u64,
    },
    /// Fetch the Prometheus text exposition of the proxy's metrics.
    Metrics,
    /// Drain decision events from the journal.
    Journal {
        /// Deliver events with sequence number ≥ this (0 = from the oldest
        /// retained).
        after: u64,
        /// At most this many events.
        max: u64,
    },
    /// End a session.
    End {
        /// Session to end.
        session: u64,
    },
    /// Drain and stop the server.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// Server protocol version.
        version: i64,
    },
    /// The server is at capacity; the connection will be closed. Retry
    /// later. May arrive instead of `welcome`. Carries a load snapshot so
    /// clients can make an informed backoff decision.
    Busy {
        /// Live connections at rejection time (the admission cap was
        /// reached).
        queue_depth: u64,
        /// Threads serving them: 1, the reactor.
        workers: u64,
    },
    /// Session opened.
    Began {
        /// The new session id.
        session: u64,
    },
    /// Rows of an allowed `SELECT`.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Vec<Value>>,
    },
    /// Row count of a pass-through DML statement.
    Affected {
        /// Rows affected.
        n: u64,
    },
    /// The statement was blocked by the policy.
    Blocked {
        /// Stable reason label (`not-determined`, `parse-error`, …).
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Trace summary.
    TraceSummary {
        /// Recorded queries.
        entries: u64,
        /// Derived ground facts.
        facts: u64,
    },
    /// Prometheus text exposition.
    Metrics {
        /// The exposition body (`# HELP`/`# TYPE` + samples).
        text: String,
    },
    /// Journal drain result.
    Journal {
        /// Events with sequence ≥ the requested `after`, oldest first.
        events: Vec<DecisionEvent>,
        /// Total events ever published server-wide.
        published: u64,
        /// Total events evicted by ring wrap-around (a client that wants
        /// loss accounting compares this against its own cursor).
        evicted: u64,
    },
    /// Session ended.
    Ended {
        /// Whether the session was live.
        was_live: bool,
    },
    /// The server (or this connection) is going away.
    Bye,
    /// A typed error; the connection stays usable unless the transport
    /// itself is broken.
    Error {
        /// Stable kind.
        kind: ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::obj([("i", Json::Int(*n))]),
        Value::Str(s) => Json::obj([("s", Json::str(s.as_str()))]),
        Value::Bool(b) => Json::obj([("b", Json::Bool(*b))]),
    }
}

fn value_from_json(j: &Json) -> Result<Value, ProtocolError> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Obj(pairs) if pairs.len() == 1 => {
            let (k, v) = &pairs[0];
            match (k.as_str(), v) {
                ("i", Json::Int(n)) => Ok(Value::Int(*n)),
                ("s", Json::Str(s)) => Ok(Value::str(s.as_str())),
                ("b", Json::Bool(b)) => Ok(Value::Bool(*b)),
                _ => Err(ProtocolError(format!("bad value tag {k:?}"))),
            }
        }
        _ => Err(ProtocolError("bad value encoding".into())),
    }
}

fn bindings_to_json(bindings: &[(String, Value)]) -> Json {
    Json::Arr(
        bindings
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::str(k.clone()), value_to_json(v)]))
            .collect(),
    )
}

fn bindings_from_json(j: &Json) -> Result<Vec<(String, Value)>, ProtocolError> {
    let items = j
        .as_arr()
        .ok_or_else(|| ProtocolError("bindings must be an array".into()))?;
    items
        .iter()
        .map(|item| {
            let pair = item
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| ProtocolError("binding must be a [name, value] pair".into()))?;
            let name = pair[0]
                .as_str()
                .ok_or_else(|| ProtocolError("binding name must be a string".into()))?;
            Ok((name.to_string(), value_from_json(&pair[1])?))
        })
        .collect()
}

fn rows_to_json(rows: &[Vec<Value>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| Json::Arr(row.iter().map(value_to_json).collect()))
            .collect(),
    )
}

fn rows_from_json(j: &Json) -> Result<Vec<Vec<Value>>, ProtocolError> {
    j.as_arr()
        .ok_or_else(|| ProtocolError("rows must be an array".into()))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| ProtocolError("row must be an array".into()))?
                .iter()
                .map(value_from_json)
                .collect()
        })
        .collect()
}

fn span_to_json(s: &SpanSummary) -> Json {
    Json::obj([
        ("rw", Json::Int(s.rewrite_iterations as i64)),
        ("cc", Json::Int(s.containment_checks as i64)),
        ("hn", Json::Int(s.hom_nodes as i64)),
        ("hb", Json::Int(s.hom_backtracks as i64)),
        ("cr", Json::Int(s.cert_replays as i64)),
        ("cf", Json::Int(s.cert_fallbacks as i64)),
    ])
}

fn span_from_json(j: &Json) -> Result<SpanSummary, ProtocolError> {
    // Each counter defaults to zero when absent so a peer that adds (or
    // never learned) a field still interoperates.
    let counter = |name: &str| j.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(SpanSummary {
        rewrite_iterations: counter("rw") as u32,
        containment_checks: counter("cc") as u32,
        hom_nodes: counter("hn") as u32,
        hom_backtracks: counter("hb") as u32,
        cert_replays: counter("cr") as u16,
        cert_fallbacks: counter("cf") as u16,
    })
}

fn event_to_json(e: &DecisionEvent) -> Json {
    let mut fields = vec![
        ("seq", Json::Int(e.seq as i64)),
        ("session", Json::Int(e.session as i64)),
        ("hash", Json::str(format!("{:016x}", e.template_hash))),
        ("verdict", Json::str(e.verdict.label())),
        ("tier", Json::str(e.tier.label())),
        ("neg", Json::Bool(e.negative_template_hit)),
        ("total_ns", Json::Int(e.total_ns as i64)),
        (
            "phases",
            Json::Arr(e.phase_ns.iter().map(|&n| Json::Int(n as i64)).collect()),
        ),
    ];
    // All-zero summaries (no solver work, e.g. a cache hit) are omitted
    // entirely: the common streaming case costs no extra bytes, and decode
    // defaults.
    if !e.span.is_empty() {
        fields.push(("span", span_to_json(&e.span)));
    }
    Json::obj(fields)
}

fn event_from_json(j: &Json) -> Result<DecisionEvent, ProtocolError> {
    let hash = str_field(j, "hash")?;
    let template_hash = u64::from_str_radix(hash, 16)
        .map_err(|_| ProtocolError(format!("bad template hash {hash:?}")))?;
    let verdict_label = str_field(j, "verdict")?;
    let verdict = Verdict::from_label(verdict_label)
        .ok_or_else(|| ProtocolError(format!("unknown verdict {verdict_label:?}")))?;
    let tier_label = str_field(j, "tier")?;
    let tier = CacheTier::from_label(tier_label)
        .ok_or_else(|| ProtocolError(format!("unknown cache tier {tier_label:?}")))?;
    let phases = field(j, "phases")?
        .as_arr()
        .ok_or_else(|| ProtocolError("phases must be an array".into()))?;
    // Tolerate a peer with more (or fewer) phases than we know about:
    // extra entries are dropped, missing ones stay zero.
    let mut phase_ns = [0u64; PHASE_COUNT];
    for (slot, p) in phase_ns.iter_mut().zip(phases) {
        *slot = p
            .as_u64()
            .ok_or_else(|| ProtocolError("phase entry must be a non-negative integer".into()))?;
    }
    Ok(DecisionEvent {
        seq: u64_field(j, "seq")?,
        session: u64_field(j, "session")?,
        template_hash,
        verdict,
        tier,
        negative_template_hit: field(j, "neg")?
            .as_bool()
            .ok_or_else(|| ProtocolError("neg must be a boolean".into()))?,
        total_ns: u64_field(j, "total_ns")?,
        phase_ns,
        // An all-zero summary is omitted on the wire.
        span: match j.get("span") {
            Some(s) => span_from_json(s)?,
            None => SpanSummary::default(),
        },
    })
}

fn events_to_json(events: &[DecisionEvent]) -> Json {
    Json::Arr(events.iter().map(event_to_json).collect())
}

fn events_from_json(j: &Json) -> Result<Vec<DecisionEvent>, ProtocolError> {
    j.as_arr()
        .ok_or_else(|| ProtocolError("events must be an array".into()))?
        .iter()
        .map(event_from_json)
        .collect()
}

fn field<'a>(j: &'a Json, name: &str) -> Result<&'a Json, ProtocolError> {
    j.get(name)
        .ok_or_else(|| ProtocolError(format!("missing field {name:?}")))
}

fn u64_field(j: &Json, name: &str) -> Result<u64, ProtocolError> {
    field(j, name)?
        .as_u64()
        .ok_or_else(|| ProtocolError(format!("field {name:?} must be a non-negative integer")))
}

fn str_field<'a>(j: &'a Json, name: &str) -> Result<&'a str, ProtocolError> {
    field(j, name)?
        .as_str()
        .ok_or_else(|| ProtocolError(format!("field {name:?} must be a string")))
}

impl Request {
    /// Encodes to wire JSON text.
    pub fn to_wire(&self) -> String {
        let j = match self {
            Request::Hello { version } => {
                Json::obj([("t", Json::str("hello")), ("v", Json::Int(*version))])
            }
            Request::Begin { bindings } => Json::obj([
                ("t", Json::str("begin")),
                ("bindings", bindings_to_json(bindings)),
            ]),
            Request::Execute {
                session,
                sql,
                bindings,
            } => Json::obj([
                ("t", Json::str("execute")),
                ("session", Json::Int(*session as i64)),
                ("sql", Json::str(sql.clone())),
                ("bindings", bindings_to_json(bindings)),
            ]),
            Request::Trace { session } => Json::obj([
                ("t", Json::str("trace")),
                ("session", Json::Int(*session as i64)),
            ]),
            Request::Metrics => Json::obj([("t", Json::str("metrics"))]),
            Request::Journal { after, max } => Json::obj([
                ("t", Json::str("journal")),
                ("after", Json::Int(*after as i64)),
                ("max", Json::Int(*max as i64)),
            ]),
            Request::End { session } => Json::obj([
                ("t", Json::str("end")),
                ("session", Json::Int(*session as i64)),
            ]),
            Request::Shutdown => Json::obj([("t", Json::str("shutdown"))]),
        };
        j.to_wire()
    }

    /// Decodes from wire JSON text.
    pub fn from_wire(text: &str) -> Result<Request, ProtocolError> {
        let j = Json::parse(text).map_err(|e| ProtocolError(e.to_string()))?;
        let tag = str_field(&j, "t")?;
        match tag {
            "hello" => Ok(Request::Hello {
                version: field(&j, "v")?
                    .as_i64()
                    .ok_or_else(|| ProtocolError("field \"v\" must be an integer".into()))?,
            }),
            "begin" => Ok(Request::Begin {
                bindings: bindings_from_json(field(&j, "bindings")?)?,
            }),
            "execute" => Ok(Request::Execute {
                session: u64_field(&j, "session")?,
                sql: str_field(&j, "sql")?.to_string(),
                bindings: bindings_from_json(field(&j, "bindings")?)?,
            }),
            "trace" => Ok(Request::Trace {
                session: u64_field(&j, "session")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "journal" => Ok(Request::Journal {
                after: u64_field(&j, "after")?,
                max: u64_field(&j, "max")?,
            }),
            "end" => Ok(Request::End {
                session: u64_field(&j, "session")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError(format!("unknown request tag {other:?}"))),
        }
    }
}

impl Response {
    /// Encodes to wire JSON text.
    pub fn to_wire(&self) -> String {
        let j = match self {
            Response::Welcome { version } => Json::obj([
                ("t", Json::str("welcome")),
                ("v", Json::Int(*version)),
                ("server", Json::str("bep-server")),
            ]),
            Response::Busy {
                queue_depth,
                workers,
            } => Json::obj([
                ("t", Json::str("busy")),
                ("queue_depth", Json::Int(*queue_depth as i64)),
                ("workers", Json::Int(*workers as i64)),
            ]),
            Response::Began { session } => Json::obj([
                ("t", Json::str("began")),
                ("session", Json::Int(*session as i64)),
            ]),
            Response::Rows { columns, rows } => Json::obj([
                ("t", Json::str("rows")),
                (
                    "columns",
                    Json::Arr(columns.iter().map(|c| Json::str(c.clone())).collect()),
                ),
                ("rows", rows_to_json(rows)),
            ]),
            Response::Affected { n } => {
                Json::obj([("t", Json::str("affected")), ("n", Json::Int(*n as i64))])
            }
            Response::Blocked { reason, detail } => Json::obj([
                ("t", Json::str("blocked")),
                ("reason", Json::str(reason.clone())),
                ("detail", Json::str(detail.clone())),
            ]),
            Response::TraceSummary { entries, facts } => Json::obj([
                ("t", Json::str("trace")),
                ("entries", Json::Int(*entries as i64)),
                ("facts", Json::Int(*facts as i64)),
            ]),
            Response::Metrics { text } => Json::obj([
                ("t", Json::str("metrics")),
                ("text", Json::str(text.clone())),
            ]),
            Response::Journal {
                events,
                published,
                evicted,
            } => Json::obj([
                ("t", Json::str("journal")),
                ("events", events_to_json(events)),
                ("published", Json::Int(*published as i64)),
                ("evicted", Json::Int(*evicted as i64)),
            ]),
            Response::Ended { was_live } => Json::obj([
                ("t", Json::str("ended")),
                ("was_live", Json::Bool(*was_live)),
            ]),
            Response::Bye => Json::obj([("t", Json::str("bye"))]),
            Response::Error { kind, msg } => Json::obj([
                ("t", Json::str("error")),
                ("kind", Json::str(kind.label())),
                ("msg", Json::str(msg.clone())),
            ]),
        };
        j.to_wire()
    }

    /// Decodes from wire JSON text.
    pub fn from_wire(text: &str) -> Result<Response, ProtocolError> {
        let j = Json::parse(text).map_err(|e| ProtocolError(e.to_string()))?;
        let tag = str_field(&j, "t")?;
        match tag {
            "welcome" => Ok(Response::Welcome {
                version: field(&j, "v")?
                    .as_i64()
                    .ok_or_else(|| ProtocolError("field \"v\" must be an integer".into()))?,
            }),
            // Load fields default to 0 when absent so frames from a
            // pre-payload server still decode.
            "busy" => Ok(Response::Busy {
                queue_depth: j.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
                workers: j.get("workers").and_then(Json::as_u64).unwrap_or(0),
            }),
            "began" => Ok(Response::Began {
                session: u64_field(&j, "session")?,
            }),
            "rows" => {
                let columns = field(&j, "columns")?
                    .as_arr()
                    .ok_or_else(|| ProtocolError("columns must be an array".into()))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ProtocolError("column must be a string".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Rows {
                    columns,
                    rows: rows_from_json(field(&j, "rows")?)?,
                })
            }
            "affected" => Ok(Response::Affected {
                n: u64_field(&j, "n")?,
            }),
            "blocked" => Ok(Response::Blocked {
                reason: str_field(&j, "reason")?.to_string(),
                detail: str_field(&j, "detail")?.to_string(),
            }),
            "trace" => Ok(Response::TraceSummary {
                entries: u64_field(&j, "entries")?,
                facts: u64_field(&j, "facts")?,
            }),
            "metrics" => Ok(Response::Metrics {
                text: str_field(&j, "text")?.to_string(),
            }),
            "journal" => Ok(Response::Journal {
                events: events_from_json(field(&j, "events")?)?,
                published: u64_field(&j, "published")?,
                evicted: u64_field(&j, "evicted")?,
            }),
            "ended" => Ok(Response::Ended {
                was_live: field(&j, "was_live")?
                    .as_bool()
                    .ok_or_else(|| ProtocolError("was_live must be a boolean".into()))?,
            }),
            "bye" => Ok(Response::Bye),
            "error" => {
                let kind = str_field(&j, "kind")?;
                Ok(Response::Error {
                    kind: ErrorKind::from_label(kind)
                        .ok_or_else(|| ProtocolError(format!("unknown error kind {kind:?}")))?,
                    msg: str_field(&j, "msg")?.to_string(),
                })
            }
            other => Err(ProtocolError(format!("unknown response tag {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bep_core::Phase;

    fn sample_event(seq: u64) -> DecisionEvent {
        let mut phase_ns = [0u64; PHASE_COUNT];
        phase_ns[Phase::Parse as usize] = 420;
        phase_ns[Phase::Proof as usize] = 77_000;
        DecisionEvent {
            seq,
            session: 7,
            // Top bit set: does not fit a signed JSON integer, which is
            // exactly why the hash rides as a hex string.
            template_hash: 0xdead_beef_0000_0000 | seq,
            verdict: Verdict::Allowed,
            tier: CacheTier::TemplateProof,
            negative_template_hit: seq % 2 == 1,
            total_ns: 80_000,
            phase_ns,
            // Odd seqs carry solver work, even seqs did none (all-zero,
            // omitted on the wire) — both shapes round-trip.
            span: if seq % 2 == 1 {
                SpanSummary {
                    rewrite_iterations: 3 + seq as u32,
                    containment_checks: 40,
                    hom_nodes: 200,
                    hom_backtracks: 17,
                    cert_replays: 2,
                    cert_fallbacks: 1,
                }
            } else {
                SpanSummary::default()
            },
        }
    }

    #[test]
    fn decision_events_round_trip_including_big_hashes() {
        for seq in [0u64, 1, 2] {
            let ev = sample_event(seq);
            let wire = event_to_json(&ev).to_wire();
            assert_eq!(event_from_json(&Json::parse(&wire).unwrap()).unwrap(), ev);
        }
    }

    #[test]
    fn span_summaries_are_omitted_when_empty_and_default_when_absent() {
        // Events with no solver work carry no "span" member at all.
        let wire = event_to_json(&sample_event(0)).to_wire();
        assert!(
            !wire.contains("\"span\""),
            "empty summary serialized: {wire}"
        );
        // A frame without a "span" member decodes with the default summary.
        let legacy = r#"{"seq":3,"session":7,"hash":"00000000000000ff","verdict":"allowed",
                         "tier":"template-proof","neg":false,"total_ns":10,"phases":[]}"#;
        let ev = event_from_json(&Json::parse(legacy).unwrap()).unwrap();
        assert_eq!(ev.span, SpanSummary::default());
        // A span object with members unknown to us still decodes.
        let extended = r#"{"seq":3,"session":7,"hash":"ff","verdict":"allowed",
                           "tier":"template-proof","neg":false,"total_ns":10,"phases":[],
                           "span":{"rw":5,"cc":6,"spans":9,"trunc":true}}"#;
        let ev = event_from_json(&Json::parse(extended).unwrap()).unwrap();
        assert_eq!(ev.span.rewrite_iterations, 5);
        assert_eq!(ev.span.containment_checks, 6);
        assert_eq!(ev.span.hom_nodes, 0);
    }

    #[test]
    fn busy_without_load_fields_still_decodes() {
        // A pre-payload server sends a bare busy frame; the load snapshot
        // defaults to zero.
        let resp = Response::from_wire(r#"{"t":"busy"}"#).unwrap();
        assert_eq!(
            resp,
            Response::Busy {
                queue_depth: 0,
                workers: 0,
            }
        );
    }

    #[test]
    fn trace_with_an_events_member_still_decodes() {
        // A peer that still sends the session's events with a trace
        // summary decodes: unknown members are ignored.
        let resp =
            Response::from_wire(r#"{"t":"trace","entries":4,"facts":6,"events":[{"seq":0}]}"#)
                .unwrap();
        assert_eq!(
            resp,
            Response::TraceSummary {
                entries: 4,
                facts: 6,
            }
        );
    }

    #[test]
    fn requests_round_trip() {
        let all = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Begin {
                bindings: vec![
                    ("MyUId".into(), Value::Int(1)),
                    ("Role".into(), Value::str("admin")),
                    ("Flag".into(), Value::Bool(false)),
                    ("Gone".into(), Value::Null),
                ],
            },
            Request::Execute {
                session: 42,
                sql: "SELECT * FROM Events WHERE EId = ?event".into(),
                bindings: vec![("event".into(), Value::Int(2))],
            },
            Request::Trace { session: 42 },
            Request::Metrics,
            Request::Journal {
                after: 128,
                max: 64,
            },
            Request::End { session: 42 },
            Request::Shutdown,
        ];
        for req in all {
            let wire = req.to_wire();
            assert_eq!(Request::from_wire(&wire).unwrap(), req, "wire: {wire}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let all = [
            Response::Welcome {
                version: PROTOCOL_VERSION,
            },
            Response::Busy {
                queue_depth: 3,
                workers: 2,
            },
            Response::Began { session: 7 },
            Response::Rows {
                columns: vec!["EId".into(), "Title".into()],
                rows: vec![
                    vec![Value::Int(2), Value::str("standup")],
                    vec![Value::Null, Value::Bool(true)],
                ],
            },
            Response::Affected { n: 3 },
            Response::Blocked {
                reason: "not-determined".into(),
                detail: "ans() :- Events(e, t, k)".into(),
            },
            Response::TraceSummary {
                entries: 5,
                facts: 9,
            },
            Response::Metrics {
                text: "# HELP bep_sessions Live sessions\n# TYPE bep_sessions gauge\n\
                       bep_sessions 2\n"
                    .into(),
            },
            Response::Journal {
                events: vec![sample_event(1), sample_event(2)],
                published: 77,
                evicted: 13,
            },
            Response::Ended { was_live: true },
            Response::Bye,
            Response::Error {
                kind: ErrorKind::NoSuchSession,
                msg: "no such session: 9".into(),
            },
        ];
        for resp in all {
            let wire = resp.to_wire();
            assert_eq!(Response::from_wire(&wire).unwrap(), resp, "wire: {wire}");
        }
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"t":"warp"}"#,
            r#"{"t":"execute","sql":"SELECT 1"}"#,
            r#"{"t":"execute","session":-1,"sql":"x","bindings":[]}"#,
            r#"{"t":"begin","bindings":[["x",{"q":1}]]}"#,
            r#"{"t":"begin","bindings":[["x"]]}"#,
        ] {
            assert!(
                Request::from_wire(bad).is_err(),
                "{bad:?} should not decode"
            );
        }
        // `prepare`, `execute_prepared` and `stats` are not requests: a
        // well-formed frame with one of those tags is an unknown tag.
        for gone in [
            r#"{"t":"prepare","session":1,"sql":"SELECT 1"}"#,
            r#"{"t":"execute_prepared","session":1,"plan":1,"bindings":[]}"#,
            r#"{"t":"stats"}"#,
        ] {
            let err = Request::from_wire(gone).unwrap_err();
            assert!(err.0.starts_with("unknown request tag"), "{gone}: {err}");
        }
    }

    #[test]
    fn value_encoding_is_unambiguous() {
        // Integer 1, string "1", and boolean true all encode differently.
        let reqs: Vec<String> = [Value::Int(1), Value::str("1"), Value::Bool(true)]
            .into_iter()
            .map(|v| {
                Request::Begin {
                    bindings: vec![("x".into(), v)],
                }
                .to_wire()
            })
            .collect();
        assert_ne!(reqs[0], reqs[1]);
        assert_ne!(reqs[1], reqs[2]);
        assert_ne!(reqs[0], reqs[2]);
    }
}
