//! `bep-benchmark`: one run of one workload, or the whole suite.
//!
//! One run (what `BENCHMARK.json`'s command invokes):
//! `--workload NAME --seed N --seconds S --trace 0|1` prints each metric
//! as `workload metric value unit`, then the checks, then — as the last
//! line — one JSON object `{correct, attempted, failed, metrics}`.
//!
//! The suite (no `--trace`): `[--seed N] [--workload NAME] [--smoke]
//! [--repeat K]` runs every workload untraced then traced, each run in a
//! process of its own (peak RSS is per process), prints all of it, writes
//! `benchmark/out/results.json`, and exits non-zero on any failed check.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use bep_benchmark::e2e::{self, Check};
use bep_benchmark::host::pin_to_current_cpu;
use bep_benchmark::ledger;
use bep_benchmark::metrics::{END_TO_END, LEDGER};
use bep_benchmark::span::self_times;
use bep_benchmark::stats::median;
use bep_benchmark::workload::{Deployment, Scale, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use bep_server::json::Json;

/// Where span files and `results.json` go, relative to the checkout root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";
/// Fleets per untraced run: each is set up from nothing (`setup_s` is the
/// median) and measured for its share of the window.
const SETUPS: usize = 3;
/// Window of a `--smoke` run, seconds.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("one of {names:?}"))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("within (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if args.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn number(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

fn show(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.4}"))
}

/// Prints the checks and the result line; `true` when every check held.
fn finish(
    workload: &str,
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    checks: &[Check],
    attempted: u64,
    failed: u64,
) -> bool {
    for (name, unit, value) in &metrics {
        println!("{workload} {name} {} {unit}", show(*value));
    }
    for c in checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{workload} check [{verdict}] {}: {}", c.name, c.detail);
    }
    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            let entry = Json::obj([("value", number(value)), ("unit", Json::str(unit))]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_wire());
    correct
}

/// One run of one workload, in this process. Returns whether the outputs
/// were correct; an error means no result line was printed.
fn single(w: &Workload, args: &Args, traced: bool) -> Result<bool, String> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    // Smoke shortens the window; the traced prefix is cut by the scale alone.
    let seconds = args.seconds.unwrap_or(if args.smoke && !traced {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    });
    let setups = if args.smoke { 1 } else { SETUPS };
    let how = match w.deployment {
        Deployment::Embedded => "in-process SqlProxy::execute, 1 thread",
        Deployment::Wire => {
            "loopback TCP 127.0.0.1 to an in-process event-driven Server, 1 client thread + 1 reactor thread on one CPU"
        }
    };
    match pin_to_current_cpu() {
        Some(cpu) => println!("# pinned to CPU {cpu}: every thread of this run shares it"),
        None => println!("# not pinned: the host refused; wire numbers depend on thread placement"),
    }
    println!(
        "# {}: {} family, {} users, {how}; one closed-loop client, seed {}, {}",
        w.name,
        w.family.name(),
        w.users / scale.users_div,
        args.seed,
        if traced {
            format!("traced prefix of {} ops", w.traced_ops(scale, seconds))
        } else {
            format!(
                "{setups} fleets, each set up, warmed with {} ops, then measured for {:.2} s",
                w.warmup(scale),
                seconds / setups as f64
            )
        }
    );
    if !traced {
        let r = e2e::run(w, args.seed, seconds, scale, setups);
        println!(
            "# {} reads + {} writes sampled; loadgen share of the window {:.3}",
            r.samples.0, r.samples.1, r.loadgen_share
        );
        let wanted = [50.0, 99.0, 50.0];
        for ((m, l), want) in END_TO_END[2..5].iter().zip(r.latency_us).zip(wanted) {
            if let Some((_, at)) = l.filter(|&(_, at)| at < want) {
                println!(
                    "# {}: the window supports only p{at:.2}, reported under this name",
                    m.name
                );
            }
        }
        let [read_p50, read_p99, write_p50] = r.latency_us.map(|l| l.map(|(us, _)| us));
        let values = [
            Some(r.setup_s),
            Some(r.stmt_per_s),
            read_p50,
            read_p99,
            write_p50,
            Some(r.rss_peak_mb),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        return Ok(finish(w.name, metrics, &r.checks, r.attempted, r.failed));
    }
    let l = ledger::run(w, args.seed, seconds, scale);
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, own) in l.spans.spans().iter().zip(self_times(l.spans.spans())) {
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + own);
    }
    for (name, (count, own)) in by_name {
        println!(
            "# span {name}: {count} spans, self time {:.3} ms",
            own as f64 / 1e6
        );
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| l.spans.write_jsonl(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    let metrics = LEDGER
        .iter()
        .map(|m| (m.name, m.unit, l.metrics[m.name]))
        .collect();
    Ok(finish(w.name, metrics, &l.checks, l.attempted, l.failed))
}

/// Runs this binary again for one (workload, trace) cell and returns its
/// result line.
fn child(w: &Workload, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("the run printed no result")?;
    println!("{report}");
    let result = Json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    Ok(result)
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    match result.get("metrics")?.get(metric)?.get("value")? {
        Json::Float(x) => Some(*x),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::str(cpu)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(args.seed as i64)),
        ("smoke", Json::Bool(args.smoke)),
        ("repeat", Json::Int(args.repeat as i64)),
    ])
}

/// Prints median, range and spread of each end-to-end metric over the
/// repeats, against its bound.
fn calibration(w: &Workload, runs: &[Json]) {
    println!(
        "# {}: {} repeats — metric median min max spread bound",
        w.name,
        runs.len()
    );
    for m in END_TO_END {
        let v: Vec<f64> = runs.iter().filter_map(|r| value_of(r, m.name)).collect();
        if v.len() < runs.len() {
            println!("{} {} null (unsupported in some repeat)", w.name, m.name);
            continue;
        }
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let mid = median(&v);
        println!(
            "{} {} {mid:.4} {lo:.4} {hi:.4} {:.4} {:.2} {}",
            w.name,
            m.name,
            (hi - lo) / mid,
            m.bound,
            m.unit
        );
    }
}

/// The exact ledger metrics must not differ between repeats.
fn counters_repeat(w: &Workload, runs: &[Json]) -> bool {
    let mut same = true;
    for m in LEDGER.iter().filter(|m| m.exact) {
        let v: Vec<Option<f64>> = runs.iter().map(|r| value_of(r, m.name)).collect();
        if v.windows(2).any(|p| p[0] != p[1]) {
            println!(
                "{} check [FAILED] {} repeats exactly: {v:?}",
                w.name, m.name
            );
            same = false;
        }
    }
    same
}

fn suite(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut report = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..args.repeat {
            untraced.push(child(w, args, false)?);
            traced.push(child(w, args, true)?);
        }
        if args.repeat > 1 {
            calibration(w, &untraced);
            ok &= counters_repeat(w, &traced);
        }
        ok &= untraced
            .iter()
            .chain(&traced)
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let scale = if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        };
        report.push(Json::obj([
            ("workload", Json::str(w.name)),
            ("users", Json::Int((w.users / scale.users_div) as i64)),
            ("warmup_ops", Json::Int(w.warmup(scale) as i64)),
            (
                "traced_ops",
                Json::Int(w.traced_ops(scale, args.seconds.unwrap_or(RUN_SECONDS)) as i64),
            ),
            ("end_to_end", Json::Arr(untraced)),
            ("ledger", Json::Arr(traced)),
        ]));
    }
    let results = Json::obj([
        ("host", fingerprint(args)),
        ("workloads", Json::Arr(report)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results.to_wire() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bep-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A single run that printed its result line exits 0 — its verdict is
    // the line's `correct`; the suite exits non-zero on any failed check.
    let outcome = match (args.trace, args.workload) {
        (Some(traced), Some(w)) => single(w, &args, traced).map(|_| true),
        (Some(_), None) => Err("--trace needs --workload".to_string()),
        (None, _) => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bep-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
