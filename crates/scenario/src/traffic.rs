//! The traffic engine: Zipf-skewed principals and templates, churning
//! session lifecycles, and a mixed authorized/probe request stream.
//!
//! The engine emits an *operation stream* — session begins, requests, raw
//! SQL probes, session ends — that a driver (the `benchmark/` package, a
//! test) maps onto proxy or server sessions. The stream is a pure
//! function of `(app, config, seed)`: two engines built with identical
//! inputs yield identical op sequences, which is what the differential
//! gates rely on.
//!
//! Session churn is geometric: each session's request budget is drawn
//! with mean [`TrafficConfig::mean_session_len`], so session lifetimes
//! have half-life `mean · ln 2` and the live set continuously turns over.

use crate::fleet::{GeneratedApp, FRESH_ID_BASE};
use crate::rng::SplitMix64;
use crate::zipf::Zipf;
use appdsl::Request;
use rand::Rng;

/// Traffic engine knobs.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Sessions kept live concurrently.
    pub target_sessions: usize,
    /// Mean requests per session (geometric; half-life = mean · ln 2).
    pub mean_session_len: f64,
    /// Fraction of requests that are handler-level probes (expected
    /// 403/404).
    pub probe_fraction: f64,
    /// Fraction of requests that are raw SQL probes (expected proxy
    /// blocks).
    pub raw_probe_fraction: f64,
    /// Fraction of requests that are raw SQL *write* probes (mutations
    /// targeting another principal's rows; with write enforcement on the
    /// proxy must block every one). Defaults to 0 so existing replayed
    /// workloads keep a byte-identical op stream.
    pub write_probe_fraction: f64,
    /// Principal popularity skew in quarter-exponents (4 = Zipf θ 1).
    pub principal_quarters: u32,
    /// Template popularity skew in quarter-exponents.
    pub template_quarters: u32,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            target_sessions: 64,
            mean_session_len: 20.0,
            probe_fraction: 0.15,
            raw_probe_fraction: 0.05,
            write_probe_fraction: 0.0,
            principal_quarters: 4,
            template_quarters: 3,
        }
    }
}

/// What kind of request a [`TrafficOp::Request`] is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Expected to succeed (sampled from the principal's own data).
    Authorized,
    /// Expected to be refused by the application (403/404).
    Probe,
}

/// One step of the traffic stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficOp {
    /// Open a session for `uid` in `slot`.
    Begin {
        /// Slot index (stable handle for the driver's session map).
        slot: usize,
        /// The principal's user id.
        uid: i64,
        /// The principal's user index (for derivation).
        user_index: u64,
    },
    /// Run a handler request on the session in `slot`.
    Request {
        /// Slot index.
        slot: usize,
        /// The request to run.
        request: Request,
        /// Authorized or probe, for accounting.
        kind: RequestKind,
    },
    /// Issue a raw SQL query (bypassing handlers) on the session in
    /// `slot`; the proxy is expected to block it.
    RawProbe {
        /// Slot index.
        slot: usize,
        /// The SQL text.
        sql: String,
    },
    /// Issue a raw SQL mutation (bypassing handlers) on the session in
    /// `slot`, targeting another principal's rows; with write enforcement
    /// on the proxy is expected to block it.
    RawWriteProbe {
        /// Slot index.
        slot: usize,
        /// The SQL text.
        sql: String,
    },
    /// Close the session in `slot`.
    End {
        /// Slot index.
        slot: usize,
    },
}

struct LiveSession {
    user_index: u64,
    remaining: u64,
}

/// The deterministic op-stream generator for one generated app.
pub struct TrafficEngine<'a> {
    app: &'a GeneratedApp,
    cfg: TrafficConfig,
    rng: SplitMix64,
    principals: Zipf,
    templates: Zipf,
    slots: Vec<Option<LiveSession>>,
    live: usize,
    fresh: i64,
    begun: u64,
}

impl<'a> TrafficEngine<'a> {
    /// A new engine; the op stream is fully determined by the arguments.
    pub fn new(app: &'a GeneratedApp, cfg: TrafficConfig, seed: u64) -> TrafficEngine<'a> {
        assert!(cfg.target_sessions >= 1, "need at least one session");
        assert!(cfg.mean_session_len >= 1.0, "sessions must serve a request");
        let principals = Zipf::new(app.users, cfg.principal_quarters);
        let templates = Zipf::new(app.template_count() as u64, cfg.template_quarters);
        let slots = (0..cfg.target_sessions).map(|_| None).collect();
        TrafficEngine {
            app,
            cfg,
            rng: SplitMix64::new(seed),
            principals,
            templates,
            slots,
            live: 0,
            fresh: FRESH_ID_BASE,
            begun: 0,
        }
    }

    /// Rebases traffic-time fresh ids. A multi-worker driver gives each
    /// worker's engine a disjoint base (e.g. `FRESH_ID_BASE + w · 10^9`)
    /// so concurrent engines never mint the same id.
    pub fn with_fresh_base(mut self, base: i64) -> TrafficEngine<'a> {
        assert!(
            base >= FRESH_ID_BASE,
            "fresh ids must stay above the seeded range"
        );
        self.fresh = base;
        self
    }

    /// Number of currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Total sessions begun so far.
    pub fn sessions_begun(&self) -> u64 {
        self.begun
    }

    /// Geometric session length with the configured mean (at least 1,
    /// capped at 64× the mean so one draw cannot stall churn).
    fn draw_session_len(&mut self) -> u64 {
        let p_continue = 1.0 - 1.0 / self.cfg.mean_session_len;
        let cap = (self.cfg.mean_session_len * 64.0) as u64;
        let mut len = 1u64;
        while len < cap.max(2) && self.rng.gen_bool(p_continue) {
            len += 1;
        }
        len
    }

    /// The next operation in the stream.
    pub fn next_op(&mut self) -> TrafficOp {
        // Refill the live set before serving requests: churn keeps the
        // session population at the target.
        if self.live < self.slots.len() {
            let slot = self
                .slots
                .iter()
                .position(Option::is_none)
                .expect("live < slots implies a free slot");
            let rank = self.principals.sample(&mut self.rng);
            let user_index = rank - 1;
            let remaining = self.draw_session_len();
            self.slots[slot] = Some(LiveSession {
                user_index,
                remaining,
            });
            self.live += 1;
            self.begun += 1;
            return TrafficOp::Begin {
                slot,
                uid: crate::fleet::uid(user_index),
                user_index,
            };
        }

        let slot = self.rng.gen_range(0..self.slots.len());
        let session = self.slots[slot].as_mut().expect("all slots live");
        if session.remaining == 0 {
            self.slots[slot] = None;
            self.live -= 1;
            return TrafficOp::End { slot };
        }
        session.remaining -= 1;
        let i = session.user_index;

        // The `> 0.0` guard keeps the rng stream byte-identical to engines
        // built before write probes existed when the fraction is 0 (the
        // default): replayed workloads and differential gates depend on it.
        if self.cfg.write_probe_fraction > 0.0 && self.rng.gen_bool(self.cfg.write_probe_fraction) {
            let sql = self.app.raw_write_probe(i, &mut self.rng, &mut self.fresh);
            return TrafficOp::RawWriteProbe { slot, sql };
        }
        if self.rng.gen_bool(self.cfg.raw_probe_fraction) {
            let sql = self.app.raw_probe(i, &mut self.rng);
            return TrafficOp::RawProbe { slot, sql };
        }
        if self.rng.gen_bool(self.cfg.probe_fraction) {
            let request = self.app.probe_request(i, &mut self.rng);
            return TrafficOp::Request {
                slot,
                request,
                kind: RequestKind::Probe,
            };
        }
        let template = (self.templates.sample(&mut self.rng) - 1) as usize;
        let request = self
            .app
            .authorized_request(i, template, &mut self.rng, &mut self.fresh);
        TrafficOp::Request {
            slot,
            request,
            kind: RequestKind::Authorized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet;

    #[test]
    fn op_stream_is_deterministic() {
        let app = &fleet(5, 64)[0];
        let run = || {
            let mut eng = TrafficEngine::new(app, TrafficConfig::default(), 17);
            (0..2000).map(|_| eng.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sessions_churn_and_stay_at_target() {
        let app = &fleet(5, 64)[1];
        let cfg = TrafficConfig {
            target_sessions: 8,
            mean_session_len: 5.0,
            ..TrafficConfig::default()
        };
        let mut eng = TrafficEngine::new(app, cfg, 3);
        let mut ends = 0;
        for _ in 0..2000 {
            if let TrafficOp::End { .. } = eng.next_op() {
                ends += 1;
            }
            assert!(eng.live_sessions() <= 8);
        }
        assert!(ends > 100, "sessions churn: {ends} ended");
        assert!(eng.sessions_begun() > ends as u64);
    }

    #[test]
    fn stream_mixes_authorized_probe_and_raw() {
        for app in &fleet(11, 32) {
            let mut eng = TrafficEngine::new(app, TrafficConfig::default(), 29);
            let (mut auth, mut probe, mut raw) = (0, 0, 0);
            for _ in 0..3000 {
                match eng.next_op() {
                    TrafficOp::Request {
                        kind: RequestKind::Authorized,
                        ..
                    } => auth += 1,
                    TrafficOp::Request {
                        kind: RequestKind::Probe,
                        ..
                    } => probe += 1,
                    TrafficOp::RawProbe { .. } => raw += 1,
                    _ => {}
                }
            }
            assert!(auth > 1000, "{}: {auth}", app.name);
            assert!(probe > 100, "{}: {probe}", app.name);
            assert!(raw > 30, "{}: {raw}", app.name);
        }
    }

    #[test]
    fn zero_write_fraction_keeps_the_stream_byte_identical() {
        // Turning the knob to exactly 0.0 must not consume any rng draws:
        // the op stream matches a config that predates write probes.
        let app = &fleet(5, 64)[2];
        let run = |cfg: TrafficConfig| {
            let mut eng = TrafficEngine::new(app, cfg, 41);
            (0..2000).map(|_| eng.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(
            run(TrafficConfig::default()),
            run(TrafficConfig {
                write_probe_fraction: 0.0,
                ..TrafficConfig::default()
            })
        );
    }

    #[test]
    fn write_probes_mix_in_when_enabled() {
        for app in &fleet(11, 32) {
            let cfg = TrafficConfig {
                write_probe_fraction: 0.10,
                ..TrafficConfig::default()
            };
            let mut eng = TrafficEngine::new(app, cfg, 29);
            let mut writes = 0;
            for _ in 0..3000 {
                if let TrafficOp::RawWriteProbe { sql, .. } = eng.next_op() {
                    writes += 1;
                    assert!(
                        sql.starts_with("INSERT")
                            || sql.starts_with("UPDATE")
                            || sql.starts_with("DELETE"),
                        "{}: {sql}",
                        app.name
                    );
                }
            }
            assert!(writes > 100, "{}: {writes} write probes", app.name);
        }
    }

    #[test]
    fn principals_are_zipf_skewed() {
        let app = &fleet(5, 1000)[0];
        let mut eng = TrafficEngine::new(app, TrafficConfig::default(), 7);
        let mut head = 0u64;
        let mut total = 0u64;
        for _ in 0..20_000 {
            if let TrafficOp::Begin { user_index, .. } = eng.next_op() {
                total += 1;
                if user_index < 10 {
                    head += 1;
                }
            }
        }
        assert!(total > 500, "enough sessions began: {total}");
        // Under Zipf θ=1 over 1000 ranks, the top 10 carry ~39% of mass;
        // uniform would give 1%.
        assert!(
            head * 5 > total,
            "top-10 principals got {head}/{total} sessions"
        );
    }
}
