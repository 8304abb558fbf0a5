//! The metric tables: what is reported, in which unit and which way is
//! better. `BENCHMARK.json` repeats them (`tests/contract.rs` holds the
//! two equal); `README.md` says what each means and which end-to-end
//! metric each layer metric is expected to move on which workload.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a caller of the system feels; from the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_per_s",
        unit: "stmt/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// One layer metric; from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<layer>.<what>`; the layer is the crate on the serving path.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Derived from counts alone: repeats exactly run to run.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The ledger, outside in: generator, then each crate on the serving path.
/// Times are means per statement unless the name says otherwise.
pub const LEDGER: &[Layer] = &[
    timed("loadgen.share", "ratio"),
    counted("loadgen.stmts_per_op", "stmt/op", Lower),
    counted("loadgen.write_share", "ratio", Lower),
    counted("loadgen.blocked_share", "ratio", Lower),
    timed("sqlir.parse_ns", "ns"),
    timed("sqlir.bind_ns", "ns"),
    counted("sqlir.novel_text_share", "ratio", Lower),
    timed("qlogic.plan_compile_us", "us"),
    counted("qlogic.templates", "count", Lower),
    timed("core.execute_ns", "ns"),
    timed("core.execute_p50_ns", "ns"),
    timed("core.execute_p99_ns", "ns"),
    timed("core.read_ns", "ns"),
    timed("core.write_ns", "ns"),
    timed("core.write_p99_ns", "ns"),
    timed("core.blocked_ns", "ns"),
    timed("core.begin_session_ns", "ns"),
    timed("core.end_session_ns", "ns"),
    timed("core.decision_ns", "ns"),
    timed("core.overhead_x", "x"),
    timed("core.phase.parse_ns", "ns"),
    timed("core.phase.template_lookup_ns", "ns"),
    timed("core.phase.concrete_lookup_ns", "ns"),
    timed("core.phase.proof_ns", "ns"),
    timed("core.phase.db_exec_ns", "ns"),
    timed("core.phase.trace_record_ns", "ns"),
    Layer {
        name: "core.phase.accounted_share",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    counted("core.tier.template_hit_share", "ratio", Higher),
    counted("core.tier.template_negative_share", "ratio", Lower),
    counted("core.tier.session_hit_share", "ratio", Higher),
    counted("core.tier.deny_hit_share", "ratio", Higher),
    counted("core.tier.concrete_proof_share", "ratio", Lower),
    counted("core.tier.template_proofs", "count", Lower),
    counted("core.write.allowed", "count", Higher),
    counted("core.write.blocked", "count", Lower),
    counted("core.cache.plan_evictions", "count", Lower),
    counted("core.cache.session_evictions", "count", Lower),
    counted("core.mem.plan_cache_kb", "KiB", Lower),
    counted("core.mem.session_state_kb", "KiB", Lower),
    counted("core.mem.journal_kb", "KiB", Lower),
    counted("core.mem.state_per_session_bytes", "B", Lower),
    counted("core.journal.dropped", "count", Lower),
    timed("minidb.populate_s", "s"),
    counted("minidb.rows", "count", Lower),
    timed("minidb.exec_ns", "ns"),
    timed("minidb.exec_p50_ns", "ns"),
    timed("minidb.exec_p99_ns", "ns"),
    timed("minidb.read_ns", "ns"),
    timed("minidb.write_ns", "ns"),
    counted("minidb.rows_per_read", "rows", Lower),
    timed("server.req_encode_ns", "ns"),
    timed("server.req_decode_ns", "ns"),
    timed("server.resp_encode_ns", "ns"),
    timed("server.resp_decode_ns", "ns"),
    counted("server.req_bytes", "B", Lower),
    counted("server.resp_bytes", "B", Lower),
    timed("server.round_trip_ns", "ns"),
    timed("server.round_trip_p50_ns", "ns"),
    timed("server.round_trip_p99_ns", "ns"),
    timed("server.transport_ns", "ns"),
    timed("server.transport_p50_ns", "ns"),
    timed("server.null_rtt_ns", "ns"),
    timed("server.unattributed_share", "ratio"),
    timed("server.overhead_x", "x"),
    timed("server.connect_us", "us"),
    counted("server.busy_rejections", "count", Lower),
    timed("trace.overhead_pct", "%"),
    counted("trace.spans", "count", Lower),
    counted("trace.stmts", "count", Higher),
];
