//! The four workloads and the settings they share.
//!
//! Every workload is the scenario fleet's own traffic — 75% authorised
//! handler requests, 15% handler probes, 5% raw read probes, 5% raw write
//! probes, 64 live sessions, Zipf principals and templates — against the
//! write-enforcing proxy, so each carries writes beside reads. They
//! differ in which layer does most of the work.

use appsim::AppSpec;
use bep_core::{ComplianceChecker, ProxyConfig};
use bep_scenario::{fleet, Family, GeneratedApp, TrafficConfig};

/// Fleet seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1307;
/// Length of one measured window, as `BENCHMARK.json` fixes it.
pub const RUN_SECONDS: f64 = 22.0;

/// How the caller reaches the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// In-process `SqlProxy::execute`.
    Embedded,
    /// `bep_server::Client::execute` over loopback TCP to an in-process
    /// event-driven `Server`, one persistent connection.
    Wire,
}

/// One workload: a population, a deployment and a session length.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Generated application family.
    pub family: Family,
    /// Users in the seeded population.
    pub users: u64,
    /// In-process or over the wire.
    pub deployment: Deployment,
    /// Mean requests per session.
    pub mean_session_len: f64,
    /// Requests after which the client renews a session, if bounded (see
    /// `Driver::with_max_session_len`).
    pub max_session_len: Option<u64>,
    /// Traffic ops run before the window opens (part of set-up).
    pub warmup_ops: usize,
    /// Traffic ops the traced run covers when the window is
    /// [`RUN_SECONDS`] long: a fixed count, so that counters repeat
    /// exactly, sized so that the six passes together take no longer
    /// than an untraced run.
    pub trace_ops: usize,
}

/// The suite, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "social-embedded",
        why: "core does most of the work (trace record + decision tiers are ~85% of a statement) and server none: a decision-path gain shows here at full size",
        family: Family::Social,
        users: 100_000,
        deployment: Deployment::Embedded,
        mean_session_len: 20.0,
        max_session_len: None,
        warmup_ops: 500,
        trace_ops: 20_000,
    },
    Workload {
        name: "social-wire",
        why: "same traffic through Server + Client on loopback: framing, JSON, syscalls and the reactor are half of a median round trip; a wire gain shows here and not on the embedded workloads",
        family: Family::Social,
        users: 100_000,
        deployment: Deployment::Wire,
        mean_session_len: 20.0,
        max_session_len: None,
        warmup_ops: 500,
        trace_ops: 10_000,
    },
    Workload {
        name: "review-wire",
        why: "minidb does ~3/4 of the work (scans, no concrete proofs): a core or server gain moves only the p50s, a minidb gain moves throughput and read p99",
        family: Family::Review,
        users: 10_000,
        deployment: Deployment::Wire,
        mean_session_len: 20.0,
        max_session_len: None,
        warmup_ops: 500,
        trace_ops: 6_000,
    },
    Workload {
        name: "social-long",
        why: "sessions up to ten times longer (mean 200 requests, renewed at 200): trace record and compaction against a trace several times larger dominate; an index over trace facts shows here or nowhere",
        family: Family::Social,
        users: 100_000,
        deployment: Deployment::Embedded,
        mean_session_len: 200.0,
        max_session_len: Some(200),
        warmup_ops: 13_000,
        trace_ops: 8_000,
    },
];

/// How much of a workload one run covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Divides the population.
    pub users_div: u64,
    /// Divides warm-up and traced op counts.
    pub ops_div: usize,
}

impl Scale {
    /// The sizes `BENCHMARK.json` is calibrated for.
    pub const FULL: Scale = Scale {
        users_div: 1,
        ops_div: 1,
    };
    /// A tenth of the users and a fiftieth of the ops: checks only.
    pub const SMOKE: Scale = Scale {
        users_div: 10,
        ops_div: 50,
    };
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generated application at `seed`: the fleet's member of this
    /// workload's family, so populations match `bep_scenario::fleet`.
    pub fn app(&self, seed: u64, scale: Scale) -> GeneratedApp {
        fleet(seed, (self.users / scale.users_div).max(2))
            .into_iter()
            .find(|a| a.family == self.family)
            .expect("the fleet has one app per family")
    }

    /// Warm-up ops at `scale`.
    pub fn warmup(&self, scale: Scale) -> usize {
        (self.warmup_ops / scale.ops_div).max(64)
    }

    /// Traced ops at `scale` for a window of `seconds`.
    pub fn traced_ops(&self, scale: Scale, seconds: f64) -> usize {
        let ops = self.trace_ops as f64 * seconds / RUN_SECONDS / scale.ops_div as f64;
        (ops as usize).max(256)
    }

    /// The traffic mix (shared) with this workload's session length.
    pub fn traffic(&self) -> TrafficConfig {
        TrafficConfig {
            write_probe_fraction: 0.05,
            mean_session_len: self.mean_session_len,
            ..TrafficConfig::default()
        }
    }
}

/// The write-enforcing proxy of the north star; everything else default.
pub fn proxy_config() -> ProxyConfig {
    ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    }
}

/// The app's ground-truth policy compiled into a checker.
pub fn checker_for(app: &GeneratedApp) -> ComplianceChecker {
    ComplianceChecker::new(app.schema(), app.policy().expect("ground-truth policy"))
}
