//! Set-up and the untraced run: what a caller of the system feels.

use std::sync::Arc;
use std::time::{Duration, Instant};

use appdsl::App;
use appsim::AppSpec;
use bep_core::{read_process_memory, SqlProxy};
use bep_scenario::{derive, GeneratedApp};
use bep_server::{Client, Server, ServerConfig};
use minidb::Database;

use crate::drive::{Driver, Recorder, Target, IO_TIMEOUT};
use crate::stats::{median, share, supported_tail};
use crate::workload::{checker_for, proxy_config, Deployment, Scale, Workload};

/// One named pass/fail output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its evidence.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }

    /// Allowed and blocked statements of both classes ran.
    pub fn both_verdicts(rec: &Recorder) -> Check {
        Check::new(
            "both verdicts on both statement classes",
            rec.both_verdicts_on_both_classes(),
            format!("[read, write] x [allowed, blocked] = {:?}", rec.verdicts),
        )
    }

    /// The drive measured the program, not its generator. Returns the
    /// generator's share of `wall_s` with the check.
    pub fn loadgen(rec: &Recorder, wall_s: f64) -> (f64, Check) {
        let loadgen_share = 1.0 - share(rec.target_ns as f64 / 1e9, wall_s);
        let check = Check::new(
            "loadgen.share < 0.2",
            loadgen_share < MAX_LOADGEN_SHARE,
            format!("{loadgen_share:.3} of the drive was spent outside the target"),
        );
        (loadgen_share, check)
    }
}

/// Above this share of wall time spent in the load generator, the run
/// measures the generator and not the program.
pub const MAX_LOADGEN_SHARE: f64 = 0.2;

/// A generated application with its population loaded.
pub struct Prepared {
    /// The application (schema, handlers, policy, traffic recipe).
    pub app: GeneratedApp,
    /// Its parsed handlers.
    pub parsed: App,
    /// The populated database.
    pub db: Database,
    /// Rows the population pass inserted.
    pub rows: usize,
    /// Seconds the population pass took.
    pub populate_s: f64,
}

/// Generates and populates the workload's application at `seed`.
pub fn prepare(w: &Workload, seed: u64, scale: Scale) -> Prepared {
    let app = w.app(seed, scale);
    let mut db = app.empty_db();
    let t0 = Instant::now();
    let rows = app.populate(&mut db).expect("populate");
    let populate_s = t0.elapsed().as_secs_f64();
    Prepared {
        parsed: app.app(),
        app,
        db,
        rows,
        populate_s,
    }
}

/// The seed of the traffic stream, derived so it differs from the seed
/// of the population it runs against.
pub fn traffic_seed(app: &GeneratedApp) -> u64 {
    derive(app.seed, 0xBE)
}

/// The system under test: the write-enforcing proxy over `db`, and for
/// the wire deployment an event-driven server in front of it on loopback.
pub struct Stack {
    /// The proxy (shared with the server's reactor thread, if any).
    pub proxy: Arc<SqlProxy>,
    server: Option<Server>,
}

impl Stack {
    /// Builds the checker and the proxy, and starts the server if the
    /// deployment has one.
    pub fn start(db: Database, app: &GeneratedApp, deployment: Deployment) -> Stack {
        let proxy = Arc::new(SqlProxy::new(db, checker_for(app), proxy_config()));
        let server = (deployment == Deployment::Wire).then(|| {
            Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
                .expect("start server on loopback")
        });
        Stack { proxy, server }
    }

    /// The running server.
    ///
    /// # Panics
    /// On an embedded stack.
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("wire deployment")
    }

    /// Opens one persistent connection to the server.
    pub fn connect(&self) -> Client {
        Client::connect(self.server().addr(), IO_TIMEOUT).expect("connect to loopback server")
    }

    /// Stops the server, if any, and waits for its thread.
    pub fn stop(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// What the untraced run reports.
#[derive(Debug)]
pub struct E2e {
    /// Median set-up time over the run's set-ups, seconds.
    pub setup_s: f64,
    /// Statements completed per second of window.
    pub stmt_per_s: f64,
    /// Latency percentiles in microseconds, each with the percentile it
    /// stands for: `[read p50, read p99, write p50]`. `None` under eleven
    /// samples.
    pub latency_us: [Option<(f64, f64)>; 3],
    /// Peak resident set at window end, MiB.
    pub rss_peak_mb: f64,
    /// Statements attempted in the window.
    pub attempted: u64,
    /// Transport, typed and decision errors in the window.
    pub failed: u64,
    /// Share of the window spent outside the target.
    pub loadgen_share: f64,
    /// Reads and writes sampled.
    pub samples: (usize, usize),
    /// Output checks.
    pub checks: Vec<Check>,
}

/// Warms a driver up — the end of set-up — then runs it for `seconds`.
/// Returns the set-up time, what the window measured and its wall time.
fn window<T: Target>(
    mut driver: Driver<'_, T>,
    warmup: usize,
    setup_started: Instant,
    seconds: f64,
) -> (f64, Recorder, f64) {
    for _ in 0..warmup {
        driver.step();
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    let seconds = Duration::from_secs_f64(seconds);
    driver.rec.open_window();
    let t0 = Instant::now();
    while t0.elapsed() < seconds {
        driver.step();
    }
    let wall = t0.elapsed().as_secs_f64();
    (setup_s, driver.rec, wall)
}

/// The `p`-th percentile of `samples` in microseconds, with the
/// percentile actually reported (lower when the window is too short to
/// support `p`; see [`supported_tail`]).
fn pct_us(samples: &mut [u64], p: f64) -> Option<(f64, f64)> {
    samples.sort_unstable();
    supported_tail(samples, p).map(|(ns, at)| (ns as f64 / 1e3, at))
}

/// The seed of a run's `i`-th fleet. The traced run covers fleet 0.
pub fn fleet_seed(seed: u64, i: usize) -> u64 {
    derive(seed, i as u64)
}

/// One untraced run: `setups` independent fleets derived from `seed`,
/// each set up from nothing and then measured for `seconds / setups`.
///
/// A run's inputs are all of its fleets: latencies are pooled over the
/// windows, throughput is statements over window time, and `setup_s` is
/// the median set-up. Pooling fleets is what keeps a run's percentiles
/// from hanging on one population's hottest principal.
pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale, setups: usize) -> E2e {
    let mut setup_s = Vec::with_capacity(setups);
    let (mut rec, mut wall) = (Recorder::default(), 0.0);
    for i in 0..setups {
        let t0 = Instant::now();
        let Prepared {
            app, parsed, db, ..
        } = prepare(w, fleet_seed(seed, i), scale);
        let stack = Stack::start(db, &app, w.deployment);
        let (cfg, tseed, warmup) = (w.traffic(), traffic_seed(&app), w.warmup(scale));
        let slice = seconds / setups as f64;
        let (setup, measured, took) = match w.deployment {
            Deployment::Embedded => {
                let driver = Driver::new(&app, &parsed, cfg, tseed, &*stack.proxy, false);
                window(driver.with_max_session_len(w.max_session_len), warmup, t0, slice)
            }
            Deployment::Wire => {
                let driver = Driver::new(&app, &parsed, cfg, tseed, stack.connect(), false);
                window(driver.with_max_session_len(w.max_session_len), warmup, t0, slice)
            }
        };
        stack.stop();
        setup_s.push(setup);
        rec.absorb(measured);
        wall += took;
    }
    let rss_peak_mb = read_process_memory().peak_resident_bytes as f64 / (1 << 20) as f64;
    let (loadgen_share, loadgen_check) = Check::loadgen(&rec, wall);
    let checks = vec![
        Check::new(
            "fail_share == 0",
            rec.failed() == 0,
            format!(
                "{} transport/typed + {} decision errors in {} statements",
                rec.transport_errors,
                rec.decision_errors,
                rec.statements()
            ),
        ),
        Check::both_verdicts(&rec),
        loadgen_check,
    ];
    E2e {
        setup_s: median(&setup_s),
        stmt_per_s: rec.statements() as f64 / wall,
        latency_us: [
            pct_us(&mut rec.read_ns, 50.0),
            pct_us(&mut rec.read_ns, 99.0),
            pct_us(&mut rec.write_ns, 50.0),
        ],
        rss_peak_mb,
        attempted: rec.statements(),
        failed: rec.failed(),
        loadgen_share,
        samples: (rec.read_ns.len(), rec.write_ns.len()),
        checks,
    }
}
