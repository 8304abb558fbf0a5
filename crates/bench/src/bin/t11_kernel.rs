//! T11 — Interned-kernel microbenchmark: what symbol interning, copy-sized
//! terms, slot-compiled substitutions, and per-relation atom indexing buy
//! on the homomorphism/containment hot path.
//!
//! The baseline is not a flag on the current code — it is the
//! *pre-refactor kernel itself*, embedded below as `mod legacy`: heap
//! `String` symbols, clone-heavy `Term`s, a `BTreeMap<String, Term>`
//! substitution, and a linear scan over all target atoms per search step,
//! transcribed from the tree before the interning refactor. Running both
//! kernels on identical problems gives an honest before/after and a live
//! differential oracle: every verdict (homomorphism found / containment
//! holds) must agree between the two, and the run aborts on any mismatch.
//!
//! Kernels measured (single-threaded):
//!
//! * `hom` — homomorphism search of a chain join into random edge sets;
//! * `containment` — canonical-database CQ containment over random
//!   comparison-free queries (the fragment where both kernels are
//!   complete and must agree exactly);
//! * `prune` — hom search into a target spread across many relations,
//!   isolating the per-relation atom index against the legacy full scan;
//! * `decision` — the end-to-end calendar + forum decision path through
//!   the enforcement proxy (interned kernel only; absolute throughput).
//!
//! Before any timing, the kernel oracle suite replays every benchmark
//! problem through both kernels. `--smoke` runs only this gate, as a CI
//! step.
//!
//! Results are written to `BENCH_t11.json`.
//!
//! Run: `cargo run -p bep-bench --bin t11_kernel --release`

use std::time::Instant;

use appsim::{ProxyPort, Scale, SimApp, CALENDAR, FORUM};
use bep_bench::{app_env, proxy_for, salted_params, AppEnv};
use bep_core::ProxyConfig;
use qlogic::homomorphism::{find_homomorphisms, HomProblem};
use qlogic::CmpContext;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Best-of replicas per timed kernel (scheduler steal only slows a run).
const REPLICAS: usize = 3;
/// Problems per kernel (full run).
const PROBLEMS: usize = 60;
/// Problems per kernel under `--smoke`.
const SMOKE_PROBLEMS: usize = 12;
/// Requests drawn per app for the decision path.
const N_REQUESTS: usize = 120;
/// Homomorphisms enumerated per hom-search problem (the instance-eval and
/// rewriting paths enumerate, not just decide).
const HOM_LIMIT: usize = 512;

/// The pre-refactor relational-logic kernel, transcribed from the tree
/// before symbol interning: `String` symbols, cloning `Term`s, a
/// `BTreeMap` substitution, and a full target scan per search depth.
mod legacy {
    use std::collections::BTreeMap;

    use sqlir::Value;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Term {
        Var(String),
        Const(Value),
    }

    impl Term {
        pub fn is_rigid(&self) -> bool {
            matches!(self, Term::Const(_))
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Atom {
        pub relation: String,
        pub args: Vec<Term>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Cq {
        pub head: Vec<Term>,
        pub atoms: Vec<Atom>,
    }

    pub type Subst = BTreeMap<String, Term>;

    /// Finds one homomorphism, if any (comparison-free fragment: terms
    /// match only when syntactically equal, exactly what the old kernel
    /// did under an empty comparison context).
    pub fn find_homomorphism(
        source_atoms: &[Atom],
        target_atoms: &[Atom],
        initial: Subst,
    ) -> Option<Subst> {
        let mut found = None;
        search(source_atoms, target_atoms, initial, &mut |s| {
            found = Some(s.clone());
            true // stop
        });
        found
    }

    /// Finds up to `limit` homomorphisms, cloning the substitution per
    /// emission exactly as the pre-refactor `find_homomorphisms` did.
    pub fn find_homomorphisms(
        source_atoms: &[Atom],
        target_atoms: &[Atom],
        initial: Subst,
        limit: usize,
    ) -> Vec<Subst> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        search(source_atoms, target_atoms, initial, &mut |s| {
            out.push(s.clone());
            out.len() >= limit
        });
        out
    }

    fn search(
        source_atoms: &[Atom],
        target_atoms: &[Atom],
        initial: Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) {
        let mut order: Vec<usize> = (0..source_atoms.len()).collect();
        order.sort_by_key(|&i| {
            let a = &source_atoms[i];
            std::cmp::Reverse(a.args.iter().filter(|t| t.is_rigid()).count())
        });
        let mut subst = initial;
        let _ = step(source_atoms, target_atoms, &order, 0, &mut subst, emit);
    }

    fn step(
        source_atoms: &[Atom],
        target_atoms: &[Atom],
        order: &[usize],
        depth: usize,
        subst: &mut Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        if depth == order.len() {
            return emit(subst);
        }
        let atom = &source_atoms[order[depth]];
        for target in target_atoms {
            if target.relation != atom.relation || target.args.len() != atom.args.len() {
                continue;
            }
            let mut added: Vec<String> = Vec::new();
            let mut ok = true;
            for (s, t) in atom.args.iter().zip(&target.args) {
                match s {
                    Term::Var(v) => match subst.get(v) {
                        Some(bound) => {
                            if bound != t {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            subst.insert(v.clone(), t.clone());
                            added.push(v.clone());
                        }
                    },
                    rigid => {
                        if rigid != t {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok && step(source_atoms, target_atoms, order, depth + 1, subst, emit) {
                return true;
            }
            for v in added {
                subst.remove(&v);
            }
        }
        false
    }

    /// Canonical-database containment `q1 ⊆ q2` for comparison-free CQs,
    /// as the old kernel decided it: freeze `q1`, preserve the head, find
    /// a homomorphism from `q2`.
    pub fn contained(q1: &Cq, q2: &Cq) -> bool {
        if q1.head.len() != q2.head.len() {
            return false;
        }
        let rename = |t: &Term| match t {
            Term::Var(v) => Term::Var(format!("l·{v}")),
            c => c.clone(),
        };
        let target_atoms: Vec<Atom> = q1
            .atoms
            .iter()
            .map(|a| Atom {
                relation: a.relation.clone(),
                args: a.args.iter().map(rename).collect(),
            })
            .collect();
        let head1: Vec<Term> = q1.head.iter().map(rename).collect();
        let mut initial = Subst::new();
        for (h2, h1) in q2.head.iter().zip(&head1) {
            match h2 {
                Term::Var(v) => match initial.get(v) {
                    Some(bound) if bound != h1 => return false,
                    Some(_) => {}
                    None => {
                        initial.insert(v.clone(), h1.clone());
                    }
                },
                rigid => {
                    if rigid != h1 {
                        return false;
                    }
                }
            }
        }
        find_homomorphism(&q2.atoms, &target_atoms, initial).is_some()
    }
}

/// One benchmark problem stated representation-neutrally, lowered to both
/// kernels. Terms are a variable name or an integer constant.
#[derive(Clone)]
struct SpecAtom {
    relation: String,
    args: Vec<SpecTerm>,
}

#[derive(Clone)]
enum SpecTerm {
    Var(String),
    Int(i64),
}

fn to_new_atoms(atoms: &[SpecAtom]) -> Vec<qlogic::Atom> {
    atoms
        .iter()
        .map(|a| {
            qlogic::Atom::new(
                a.relation.as_str(),
                a.args
                    .iter()
                    .map(|t| match t {
                        SpecTerm::Var(v) => qlogic::Term::var(v.as_str()),
                        SpecTerm::Int(i) => qlogic::Term::int(*i),
                    })
                    .collect(),
            )
        })
        .collect()
}

fn to_legacy_atoms(atoms: &[SpecAtom]) -> Vec<legacy::Atom> {
    atoms
        .iter()
        .map(|a| legacy::Atom {
            relation: a.relation.clone(),
            args: a
                .args
                .iter()
                .map(|t| match t {
                    SpecTerm::Var(v) => legacy::Term::Var(v.clone()),
                    SpecTerm::Int(i) => legacy::Term::Const(sqlir::Value::Int(*i)),
                })
                .collect(),
        })
        .collect()
}

/// A hom-search problem: source (query) atoms and target (instance) atoms.
struct HomSpec {
    source: Vec<SpecAtom>,
    target: Vec<SpecAtom>,
}

/// Chain join of length `len` into a random `edges`-edge graph over
/// `nodes` nodes, in `rels` relations round-robin (rels == 1 for the pure
/// hom kernel; larger for the pruning kernel, where the chain alternates
/// between two of the relations).
fn hom_spec(rng: &mut SmallRng, len: usize, nodes: i64, edges: usize, rels: usize) -> HomSpec {
    let rel = |k: usize| {
        if rels == 1 {
            "R".to_string()
        } else {
            format!("R{k}")
        }
    };
    let source = (0..len)
        .map(|i| SpecAtom {
            relation: rel(i % 2),
            args: vec![
                SpecTerm::Var(format!("x{i}")),
                SpecTerm::Var(format!("x{}", i + 1)),
            ],
        })
        .collect();
    let target = (0..edges)
        .map(|i| SpecAtom {
            relation: rel(i % rels),
            args: vec![
                SpecTerm::Int(rng.gen_range(0..nodes)),
                SpecTerm::Int(rng.gen_range(0..nodes)),
            ],
        })
        .collect();
    HomSpec { source, target }
}

/// A containment problem: two random comparison-free CQs over a tiny
/// vocabulary, shaped like the property-test generator so containments
/// actually occur.
struct ContainSpec {
    q1: (Vec<SpecTerm>, Vec<SpecAtom>),
    q2: (Vec<SpecTerm>, Vec<SpecAtom>),
}

fn contain_spec(rng: &mut SmallRng) -> ContainSpec {
    // q1: a random chain of binary atoms over a small relation alphabet —
    // the shape minimization sees (long join paths, repeated relations).
    let n = rng.gen_range(12..18usize);
    let q1_atoms: Vec<SpecAtom> = (0..n)
        .map(|i| SpecAtom {
            relation: format!("R{}", rng.gen_range(0..2u32)),
            args: vec![
                SpecTerm::Var(format!("v{i}")),
                SpecTerm::Var(format!("v{}", i + 1)),
            ],
        })
        .collect();
    // q2: a renamed contiguous sub-chain of q1 (containment usually holds,
    // so the homomorphism search has to actually find a mapping among the
    // repeated relation labels), occasionally perturbed so the search must
    // exhaust the space before answering `false`.
    let keep = rng.gen_range(7..=n.min(12));
    let start = rng.gen_range(0..=(n - keep));
    let q2_atoms: Vec<SpecAtom> = q1_atoms[start..start + keep]
        .iter()
        .enumerate()
        .map(|(j, a)| {
            let relation = if rng.gen_range(0..6u32) == 0 {
                format!("R{}", rng.gen_range(0..2u32))
            } else {
                a.relation.clone()
            };
            SpecAtom {
                relation,
                args: vec![
                    SpecTerm::Var(format!("u{j}")),
                    SpecTerm::Var(format!("u{}", j + 1)),
                ],
            }
        })
        .collect();
    ContainSpec {
        q1: (Vec::new(), q1_atoms),
        q2: (Vec::new(), q2_atoms),
    }
}

fn new_cq(spec: &(Vec<SpecTerm>, Vec<SpecAtom>)) -> qlogic::Cq {
    let head = spec
        .0
        .iter()
        .map(|t| match t {
            SpecTerm::Var(v) => qlogic::Term::var(v.as_str()),
            SpecTerm::Int(i) => qlogic::Term::int(*i),
        })
        .collect();
    qlogic::Cq::new(head, to_new_atoms(&spec.1), vec![])
}

fn legacy_cq(spec: &(Vec<SpecTerm>, Vec<SpecAtom>)) -> legacy::Cq {
    let head = spec
        .0
        .iter()
        .map(|t| match t {
            SpecTerm::Var(v) => legacy::Term::Var(v.clone()),
            SpecTerm::Int(i) => legacy::Term::Const(sqlir::Value::Int(*i)),
        })
        .collect();
    legacy::Cq {
        head,
        atoms: to_legacy_atoms(&spec.1),
    }
}

fn run_new_hom(source: &[qlogic::Atom], target: &[qlogic::Atom], ctx: &CmpContext) -> usize {
    let p = HomProblem {
        source_atoms: source,
        source_comparisons: &[],
        target_atoms: target,
        target_ctx: ctx,
        initial: qlogic::Subst::new(),
    };
    find_homomorphisms(&p, HOM_LIMIT).len()
}

fn run_legacy_hom(source: &[legacy::Atom], target: &[legacy::Atom]) -> usize {
    legacy::find_homomorphisms(source, target, legacy::Subst::new(), HOM_LIMIT).len()
}

struct KernelResult {
    kernel: &'static str,
    ops: usize,
    legacy_ns_per_op: f64,
    interned_ns_per_op: f64,
    speedup: f64,
    mismatches: usize,
}

/// Times both kernels over hom problems; verdicts must agree on every one.
fn bench_hom(kernel: &'static str, specs: &[HomSpec], timed: bool) -> KernelResult {
    let ctx = CmpContext::new(&[]);
    let new_probs: Vec<(Vec<qlogic::Atom>, Vec<qlogic::Atom>)> = specs
        .iter()
        .map(|s| (to_new_atoms(&s.source), to_new_atoms(&s.target)))
        .collect();
    let legacy_probs: Vec<(Vec<legacy::Atom>, Vec<legacy::Atom>)> = specs
        .iter()
        .map(|s| (to_legacy_atoms(&s.source), to_legacy_atoms(&s.target)))
        .collect();

    let mut mismatches = 0usize;
    for ((ns, nt), (ls, lt)) in new_probs.iter().zip(&legacy_probs) {
        let new_found = run_new_hom(ns, nt, &ctx);
        let legacy_found = run_legacy_hom(ls, lt);
        if new_found != legacy_found {
            mismatches += 1;
            eprintln!(
                "ORACLE MISMATCH [{kernel}]: interned found {new_found}, legacy {legacy_found}"
            );
        }
    }

    let (legacy_ns, interned_ns) = if timed {
        let reps = REPLICAS;
        let time_new = || {
            let t0 = Instant::now();
            for (ns, nt) in &new_probs {
                std::hint::black_box(run_new_hom(ns, nt, &ctx));
            }
            t0.elapsed().as_nanos() as f64 / new_probs.len() as f64
        };
        let time_legacy = || {
            let t0 = Instant::now();
            for (ls, lt) in &legacy_probs {
                std::hint::black_box(run_legacy_hom(ls, lt));
            }
            t0.elapsed().as_nanos() as f64 / legacy_probs.len() as f64
        };
        let l = (0..reps).map(|_| time_legacy()).fold(f64::MAX, f64::min);
        let n = (0..reps).map(|_| time_new()).fold(f64::MAX, f64::min);
        (l, n)
    } else {
        (0.0, 0.0)
    };

    KernelResult {
        kernel,
        ops: specs.len(),
        legacy_ns_per_op: legacy_ns,
        interned_ns_per_op: interned_ns,
        speedup: if interned_ns > 0.0 {
            legacy_ns / interned_ns
        } else {
            0.0
        },
        mismatches,
    }
}

/// Times both kernels over containment problems; verdicts must agree.
fn bench_containment(specs: &[ContainSpec], timed: bool) -> KernelResult {
    let new_probs: Vec<(qlogic::Cq, qlogic::Cq)> = specs
        .iter()
        .map(|s| (new_cq(&s.q1), new_cq(&s.q2)))
        .collect();
    let legacy_probs: Vec<(legacy::Cq, legacy::Cq)> = specs
        .iter()
        .map(|s| (legacy_cq(&s.q1), legacy_cq(&s.q2)))
        .collect();

    let mut mismatches = 0usize;
    for ((n1, n2), (l1, l2)) in new_probs.iter().zip(&legacy_probs) {
        let new_v = qlogic::contained(n1, n2);
        let legacy_v = legacy::contained(l1, l2);
        if new_v != legacy_v {
            mismatches += 1;
            eprintln!(
                "ORACLE MISMATCH [containment]: interned={new_v} legacy={legacy_v} on {n1} ⊆ {n2}"
            );
        }
    }

    let (legacy_ns, interned_ns) = if timed {
        let time_new = || {
            let t0 = Instant::now();
            for (n1, n2) in &new_probs {
                std::hint::black_box(qlogic::contained(n1, n2));
            }
            t0.elapsed().as_nanos() as f64 / new_probs.len() as f64
        };
        let time_legacy = || {
            let t0 = Instant::now();
            for (l1, l2) in &legacy_probs {
                std::hint::black_box(legacy::contained(l1, l2));
            }
            t0.elapsed().as_nanos() as f64 / legacy_probs.len() as f64
        };
        let l = (0..REPLICAS)
            .map(|_| time_legacy())
            .fold(f64::MAX, f64::min);
        let n = (0..REPLICAS).map(|_| time_new()).fold(f64::MAX, f64::min);
        (l, n)
    } else {
        (0.0, 0.0)
    };

    KernelResult {
        kernel: "containment",
        ops: specs.len(),
        legacy_ns_per_op: legacy_ns,
        interned_ns_per_op: interned_ns,
        speedup: if interned_ns > 0.0 {
            legacy_ns / interned_ns
        } else {
            0.0
        },
        mismatches,
    }
}

struct DecisionResult {
    app: &'static str,
    ops: usize,
    wall_s: f64,
    throughput: f64,
    errors: usize,
}

/// Drives the full workload through a caches-off proxy (every request a
/// fresh concrete proof: the kernel-bound path) single-threaded.
fn drive_decisions(sim: &'static SimApp, env: &AppEnv) -> DecisionResult {
    let config = ProxyConfig {
        template_cache: false,
        session_cache: false,
        ..Default::default()
    };
    let proxy = proxy_for(env, config);
    let app = env.sim.app();
    let mut errors = 0usize;
    let mut ops = 0usize;
    let start = Instant::now();
    for round in 0..2 {
        for req in &env.requests {
            let handler = app.handler(&req.handler).expect("handler");
            let params = salted_params(&req.params, round);
            let session = proxy.begin_session(req.session.clone());
            let mut port = ProxyPort {
                proxy: &proxy,
                session,
            };
            if appdsl::run_handler(
                &mut port,
                handler,
                &req.session,
                &params,
                appdsl::Limits::default(),
            )
            .is_err()
            {
                errors += 1;
            }
            proxy.end_session(session);
            ops += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    DecisionResult {
        app: sim.name,
        ops,
        wall_s,
        throughput: ops as f64 / wall_s,
        errors,
    }
}

fn json_of(kernels: &[KernelResult], decisions: &[DecisionResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"t11_kernel\",\n");
    out.push_str(&format!("  \"problems_per_kernel\": {PROBLEMS},\n"));
    out.push_str(&format!("  \"replicas_best_of\": {REPLICAS},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"ops\": {}, \"legacy_ns_per_op\": {:.0}, \
             \"interned_ns_per_op\": {:.0}, \"speedup\": {:.2}, \"mismatches\": {}}}{}\n",
            k.kernel,
            k.ops,
            k.legacy_ns_per_op,
            k.interned_ns_per_op,
            k.speedup,
            k.mismatches,
            if i + 1 == kernels.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"decision_path\": [\n");
    for (i, d) in decisions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"ops\": {}, \"wall_s\": {:.4}, \
             \"throughput_ops_s\": {:.1}, \"errors\": {}}}{}\n",
            d.app,
            d.ops,
            d.wall_s,
            d.throughput,
            d.errors,
            if i + 1 == decisions.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_problems = if smoke { SMOKE_PROBLEMS } else { PROBLEMS };

    // Kernel problems. Sizes chosen so the full run stays in seconds but
    // each op is large enough to time (hundreds of candidate atoms).
    let mut rng = SmallRng::seed_from_u64(41);
    let hom_specs: Vec<HomSpec> = (0..n_problems)
        .map(|_| hom_spec(&mut rng, 4, 16, 160, 1))
        .collect();
    let prune_specs: Vec<HomSpec> = (0..n_problems)
        .map(|_| hom_spec(&mut rng, 4, 16, 480, 16))
        .collect();
    let contain_specs: Vec<ContainSpec> = (0..n_problems * 4)
        .map(|_| contain_spec(&mut rng))
        .collect();

    let kernels = vec![
        bench_hom("hom", &hom_specs, !smoke),
        bench_containment(&contain_specs, !smoke),
        bench_hom("prune", &prune_specs, !smoke),
    ];
    let total_mismatches: usize = kernels.iter().map(|k| k.mismatches).sum();
    for k in &kernels {
        if smoke {
            println!(
                "oracle [{}]: {} problems, {} mismatches",
                k.kernel, k.ops, k.mismatches
            );
        } else {
            println!(
                "{:<12} {:>6} ops  legacy {:>9.0} ns/op  interned {:>9.0} ns/op  speedup {:>5.2}×  mismatches {}",
                k.kernel, k.ops, k.legacy_ns_per_op, k.interned_ns_per_op, k.speedup, k.mismatches
            );
        }
    }
    assert_eq!(total_mismatches, 0, "kernel oracle disagreement");

    if smoke {
        println!();
        println!("smoke mode: oracle gate passed, skipping the sweep");
        return;
    }

    println!();
    let mut decisions = Vec::new();
    for sim in [&CALENDAR, &FORUM] {
        let env = app_env(sim, 17, Scale::small(), N_REQUESTS);
        let d = drive_decisions(sim, &env);
        println!(
            "decision [{}]: {} ops in {:.3}s = {:.0} ops/s, {} errors",
            d.app, d.ops, d.wall_s, d.throughput, d.errors
        );
        assert_eq!(d.errors, 0, "decision path must be error-free");
        decisions.push(d);
    }

    let json = json_of(&kernels, &decisions);
    std::fs::write("BENCH_t11.json", &json).expect("write BENCH_t11.json");
    println!();
    println!("wrote BENCH_t11.json");
}
