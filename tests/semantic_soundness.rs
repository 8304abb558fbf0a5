//! The semantic soundness oracle: the proxy's verdicts held to the
//! definition of compliance, not to a second copy of the checker.
//!
//! Blockaid's definition: a query `Q` is compliant given a trace `T` when
//! any two databases that are consistent with `T` and give the policy
//! views (instantiated with the session's bindings) the same answers also
//! give `Q` the same answer. Here `T` is the session's earlier *allowed*
//! reads with the rows the proxy returned for them, kept by this file and
//! not by the proxy's trace; "any two databases" ranges over a bounded
//! universe: `R(A, B)` and `S(A, B)` over the domain {0, 1, 2} with at most
//! two rows each, the 2,116 databases `Universe::enumerate` lists.
//!
//! Each generated script draws a policy from a pool of views and a
//! database from the universe, then runs two or three sessions of reads
//! through a real `SqlProxy`, and a few inserts at the end. A query is
//! built as a conjunctive query, rendered to SQL for the proxy, and
//! evaluated here by trying every choice of one row per atom, so the judge
//! shares no code with the checker.
//!
//! * **Sound (gated):** every `Allowed` read is compliant, and every row
//!   an allowed insert writes is visible through some view: some
//!   derivation of a view on the database after the write uses it.
//! * **Reach (gated):** allowed reads come from each source the proxy
//!   decides from: (i) a proof that needed the trace, over a store that
//!   holds every fact its reads witnessed; (ii) the same over a store that
//!   skipped an exact repeat or compacted a fact away; (iii) a template
//!   verdict replayed from the plan; and (iv) a certificate learned in
//!   another session and replayed.
//! * **Complete (reported):** the `Blocked` reads that are compliant.
//!   Losing a trace fact only turns `Allowed` into `Blocked`, which no
//!   soundness gate can see, so this count is also held under a ceiling:
//!   it may fall, never rise.
//!
//! A second family of scripts interleaves `UPDATE`s, `DELETE`s and
//! `INSERT`s with the reads, and judges each read against what still
//! holds of the earlier ones ("Write-interleaved scripts" below).

use std::collections::{BTreeSet, HashMap};

use bep_core::{CacheTier, DenyReason, JournalCursor, Verdict};
use beyond_enforcement::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const REL: [&str; 2] = ["R", "S"];
const COL: [&str; 2] = ["A", "B"];
const DOMAIN: i64 = 3;
const SCRIPTS: usize = 48;
/// Compliant reads the proxy blocks, counted over every script at the
/// seed below. A completeness gain lowers it; nothing may raise it.
const GAP_CEILING: usize = 18;

/// A term of a generated conjunctive query.
#[derive(Clone, Copy, Debug, PartialEq)]
enum T {
    /// A variable.
    V(u8),
    /// A literal.
    C(i64),
    /// A parameter: the session's `MyUId`, or a request's `x`.
    P(&'static str),
}

const U: T = T::P("MyUId");
const X: T = T::P("x");
const V0: T = T::V(0);
const V1: T = T::V(1);

/// A conjunctive query over `R` (0) and `S` (1).
#[derive(Clone, Debug)]
struct Q {
    head: Vec<T>,
    atoms: Vec<(usize, [T; 2])>,
}

/// One database: the rows of `R` and of `S`.
type Db = [Vec<[i64; 2]>; 2];
/// A row of one relation: `(relation, cells)`.
type Row = (usize, [i64; 2]);
type Answer = BTreeSet<Vec<i64>>;
type Bindings = Vec<(String, Value)>;

fn q(head: &[T], atoms: &[(usize, [T; 2])]) -> Q {
    Q {
        head: head.to_vec(),
        atoms: atoms.to_vec(),
    }
}

fn param(b: &Bindings, name: &str) -> i64 {
    match b.iter().find(|(n, _)| n == name) {
        Some((_, Value::Int(v))) => *v,
        other => panic!("parameter {name} bound to {other:?}"),
    }
}

impl Q {
    fn sql(&self) -> String {
        let mut first: HashMap<u8, String> = HashMap::new();
        let mut conds = Vec::new();
        for (a, (_, args)) in self.atoms.iter().enumerate() {
            for (c, t) in args.iter().enumerate() {
                let here = format!("t{a}.{}", COL[c]);
                match t {
                    T::V(v) => match first.get(v) {
                        Some(f) => conds.push(format!("{here} = {f}")),
                        None => {
                            first.insert(*v, here);
                        }
                    },
                    T::C(k) => conds.push(format!("{here} = {k}")),
                    T::P(p) => conds.push(format!("{here} = ?{p}")),
                }
            }
        }
        let head: Vec<String> = (self.head.iter())
            .map(|t| match t {
                T::V(v) => first[v].clone(),
                T::C(k) => k.to_string(),
                T::P(p) => panic!("parameter {p} in a head"),
            })
            .collect();
        let from: Vec<String> = (self.atoms.iter().enumerate())
            .map(|(a, (r, _))| format!("{} t{a}", REL[*r]))
            .collect();
        let mut sql = format!("SELECT {} FROM {}", head.join(", "), from.join(", "));
        if !conds.is_empty() {
            sql = format!("{sql} WHERE {}", conds.join(" AND "));
        }
        sql
    }

    /// Calls `f` once per choice of one row per atom that satisfies the
    /// body, with the chosen rows and the head tuple.
    fn each_match(&self, db: &Db, b: &Bindings, f: &mut dyn FnMut(&[Row], Vec<i64>)) {
        let mut vars = [None; 4];
        let mut chosen = Vec::with_capacity(self.atoms.len());
        self.extend(db, b, &mut vars, &mut chosen, f);
    }

    fn extend(
        &self,
        db: &Db,
        b: &Bindings,
        vars: &mut [Option<i64>; 4],
        chosen: &mut Vec<Row>,
        f: &mut dyn FnMut(&[Row], Vec<i64>),
    ) {
        let Some((r, args)) = self.atoms.get(chosen.len()) else {
            let value = |t: &T| match t {
                T::V(v) => vars[*v as usize].expect("head variable in the body"),
                T::C(k) => *k,
                T::P(p) => param(b, p),
            };
            f(chosen, self.head.iter().map(value).collect());
            return;
        };
        for row in &db[*r] {
            let saved = *vars;
            let fits = args.iter().zip(row).all(|(t, &v)| match t {
                T::V(x) => *vars[*x as usize].get_or_insert(v) == v,
                T::C(k) => *k == v,
                T::P(p) => param(b, p) == v,
            });
            if fits {
                chosen.push((*r, *row));
                self.extend(db, b, vars, chosen, f);
                chosen.pop();
            }
            *vars = saved;
        }
    }

    fn eval(&self, db: &Db, b: &Bindings) -> Answer {
        let mut out = Answer::new();
        self.each_match(db, b, &mut |_, tuple| {
            out.insert(tuple);
        });
        out
    }

    /// Whether some derivation of this query on `db` uses `row` of `rel`.
    fn uses(&self, db: &Db, b: &Bindings, rel: usize, row: [i64; 2]) -> bool {
        let mut used = false;
        self.each_match(db, b, &mut |chosen, _| {
            used |= chosen.contains(&(rel, row));
        });
        used
    }
}

/// The views a policy draws from.
fn view_pool() -> Vec<(&'static str, Q)> {
    vec![
        // My R rows.
        ("VR", q(&[V0], &[(0, [U, V0])])),
        // The S rows my R rows point at (Example 2.1's V2).
        ("VS", q(&[V0, V1], &[(0, [U, V0]), (1, [V0, V1])])),
        // S's first column.
        ("VSA", q(&[V0], &[(1, [V0, V1])])),
        // The R rows that point at me.
        ("VRB", q(&[V0], &[(0, [V0, U])])),
    ]
}

/// The reads a script draws from.
fn read_pool() -> Vec<Q> {
    vec![
        q(&[V0], &[(0, [U, V0])]),
        q(&[T::C(1)], &[(0, [U, X])]),
        q(&[V1], &[(1, [X, V1])]),
        q(&[T::C(1)], &[(1, [X, V1])]),
        q(&[V1], &[(0, [U, V0]), (1, [V0, V1])]),
        q(&[V1], &[(0, [X, V1])]),
        q(&[V0], &[(1, [V0, V1])]),
        q(&[V0], &[(1, [V0, X])]),
        q(&[V0], &[(0, [V0, U])]),
        q(&[V0, V1], &[(0, [V0, V1])]),
    ]
}

/// The inserts a script may end with: `(relation, values)`.
fn insert_pool() -> Vec<(usize, [T; 2])> {
    vec![(0, [U, X]), (0, [X, T::P("y")]), (1, [X, T::P("y")])]
}

/// Per distinct `(query, bindings)`: each database's answer, as an id
/// into the answers seen for that query.
struct Answers {
    per_db: Vec<u32>,
    ids: HashMap<Answer, u32>,
}

struct Oracle {
    dbs: Vec<Db>,
    cache: HashMap<String, Answers>,
}

impl Oracle {
    fn answers(&mut self, query: &Q, b: &Bindings) -> &Answers {
        let key = format!("{} {b:?}", query.sql());
        let dbs = &self.dbs;
        self.cache.entry(key).or_insert_with(|| {
            let mut ids = HashMap::new();
            let per_db = (dbs.iter())
                .map(|db| {
                    let next = ids.len() as u32;
                    *ids.entry(query.eval(db, b)).or_insert(next)
                })
                .collect();
            Answers { per_db, ids }
        })
    }
}

/// Whether every two databases in `consistent` with one view image give
/// the same answer.
fn determined(consistent: &[usize], image: &[u32], answer: &[u32]) -> bool {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    consistent
        .iter()
        .all(|&i| *seen.entry(image[i]).or_insert(answer[i]) == answer[i])
}

#[derive(Debug, Default)]
struct Tally {
    reads: usize,
    allowed: usize,
    /// Allowed reads that the trace made compliant.
    trace_dependent: usize,
    /// Compliant reads the proxy blocked.
    gap: usize,
    gap_examples: Vec<String>,
    /// Allowed reads by source, (i)–(iv) of the module docs.
    sources: [usize; 4],
    /// Allowed reads the trace skipped as exact repeats.
    repeats_skipped: usize,
    writes_allowed: usize,
    writes_blocked: usize,
}

fn rows_answer(rows: &Rows) -> Answer {
    (rows.rows.iter())
        .map(|row| {
            (row.iter())
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("non-integer cell {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn database(db: &Db) -> Database {
    let mut out = Database::new();
    for (r, rows) in db.iter().enumerate() {
        out.execute_sql(&format!("CREATE TABLE {} (A INT, B INT)", REL[r]))
            .unwrap();
        for [a, b] in rows {
            out.execute_sql(&format!("INSERT INTO {} (A, B) VALUES ({a}, {b})", REL[r]))
                .unwrap();
        }
    }
    out
}

/// A policy: the first two views of the pool, and each other one with
/// even odds.
fn draw_views(rng: &mut SmallRng) -> Vec<(&'static str, Q)> {
    let pool = view_pool();
    let mut chosen = pool[..2].to_vec();
    chosen.extend(pool[2..].iter().filter(|_| rng.gen_bool(0.5)).cloned());
    chosen
}

/// A few read shapes per script, so sessions repeat each other's.
fn draw_reads(rng: &mut SmallRng) -> Vec<Q> {
    let pool = read_pool();
    (0..6)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

/// The next read of a session: follow a value an earlier answer showed,
/// or any value; now and then repeat an earlier statement exactly.
fn draw_read(
    rng: &mut SmallRng,
    reads: &[Q],
    seen: &[i64],
    history: &[(Q, Bindings)],
) -> (Q, Bindings) {
    match history.len() {
        n if n > 0 && rng.gen_bool(0.2) => history[rng.gen_range(0..n)].clone(),
        _ => {
            let x = if rng.gen_bool(0.6) {
                seen[rng.gen_range(0..seen.len())]
            } else {
                rng.gen_range(0..DOMAIN)
            };
            let mut query = reads[rng.gen_range(0..reads.len())].clone();
            if rng.gen_bool(0.3) {
                for (_, args) in &mut query.atoms {
                    for t in args.iter_mut().filter(|t| **t == X) {
                        *t = T::C(x);
                    }
                }
            }
            let mentions_x = query.atoms.iter().any(|(_, a)| a.contains(&X));
            let req_b: Bindings = if mentions_x {
                vec![("x".into(), Value::Int(x))]
            } else {
                Vec::new()
            };
            (query, req_b)
        }
    }
}

/// A proxy enforcing reads and writes under `views` over a copy of `db`.
fn enforcing_proxy(db: &Db, views: &[(&str, Q)]) -> SqlProxy {
    let sql_db = database(db);
    let schema = schema_of_database(&sql_db);
    let policy_sql: Vec<(&str, String)> = views.iter().map(|(n, v)| (*n, v.sql())).collect();
    let policy_refs: Vec<(&str, &str)> =
        (policy_sql.iter()).map(|(n, s)| (*n, s.as_str())).collect();
    let policy = Policy::from_sql(&schema, &policy_refs).expect("policy compiles");
    let config = ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    };
    SqlProxy::new(sql_db, ComplianceChecker::new(schema, policy), config)
}

fn describe(views: &[(&str, Q)], db: &Db) -> String {
    let names: Vec<&str> = views.iter().map(|(n, _)| *n).collect();
    format!("policy {names:?}, database R={:?} S={:?}", db[0], db[1])
}

/// A session's view image: the databases numbered by the answers the
/// policy's views give it there.
fn image(oracle: &mut Oracle, views: &[(&str, Q)], session_b: &Bindings) -> Vec<u32> {
    let per_view: Vec<Vec<u32>> = (views.iter())
        .map(|(_, v)| oracle.answers(v, session_b).per_db.clone())
        .collect();
    let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
    (0..oracle.dbs.len())
        .map(|i| {
            let next = ids.len() as u32;
            *ids.entry(per_view.iter().map(|v| v[i]).collect())
                .or_insert(next)
        })
        .collect()
}

fn run_script(oracle: &mut Oracle, rng: &mut SmallRng, tally: &mut Tally) {
    let views = draw_views(rng);
    let live = rng.gen_range(0..oracle.dbs.len());
    let mut db = oracle.dbs[live].clone();
    let proxy = enforcing_proxy(&db, &views);
    let mut cursor = JournalCursor::default();
    let reads = draw_reads(rng);
    let sessions = rng.gen_range(2..=3);
    for s in 0..sessions {
        let uid = rng.gen_range(0..DOMAIN);
        let session_b: Bindings = vec![("MyUId".into(), Value::Int(uid))];
        let sid = proxy.begin_session(session_b.clone());
        let image = image(oracle, &views, &session_b);
        let everything: Vec<usize> = (0..oracle.dbs.len()).collect();
        let mut consistent = everything.clone();
        let mut seen = vec![uid];
        let mut searched: Vec<u64> = Vec::new();
        let mut skipped_repeat = false;
        let mut history: Vec<(Q, Bindings)> = Vec::new();
        for _ in 0..rng.gen_range(6..=12) {
            let (query, req_b) = draw_read(rng, &reads, &seen, &history);
            history.push((query.clone(), req_b.clone()));
            let all_b: Bindings = session_b.iter().chain(&req_b).cloned().collect();
            let sql = query.sql();
            let before = proxy.session_trace(sid).expect("live session");
            // Every push and every removal bumps the version.
            let reduced = skipped_repeat || before.version() > before.facts().len() as u64;
            let response = proxy.execute(sid, &sql, &req_b).expect("read executes");
            let events = proxy.journal().poll(&mut cursor, 16);
            let [event] = events.as_slice() else {
                panic!("one event per statement, got {events:?}");
            };
            let answers = oracle.answers(&query, &all_b);
            let compliant = determined(&consistent, &image, &answers.per_db);
            tally.reads += 1;
            let context = || {
                format!(
                    "session {s} (MyUId = {uid}) `{sql}` {req_b:?}; {}; earlier: {:?}",
                    describe(&views, &db),
                    &history[..history.len() - 1]
                        .iter()
                        .map(|(q, b)| format!("{} {b:?}", q.sql()))
                        .collect::<Vec<_>>()
                )
            };
            match response {
                ProxyResponse::Rows(rows) => {
                    assert_eq!(event.verdict, Verdict::Allowed);
                    let observed = rows_answer(&rows);
                    assert_eq!(
                        observed,
                        query.eval(&db, &all_b),
                        "the database and the judge disagree on {}",
                        context()
                    );
                    assert!(
                        compliant,
                        "UNSOUND: allowed a read that is not compliant: {}",
                        context()
                    );
                    tally.allowed += 1;
                    let needs_trace = !determined(&everything, &image, &answers.per_db);
                    tally.trace_dependent += needs_trace as usize;
                    let id = answers.ids[&observed];
                    let per_db = &answers.per_db;
                    consistent.retain(|&i| per_db[i] == id);
                    let replayed_here = event.span.cert_replays > 0;
                    match event.tier {
                        CacheTier::TemplateCache => tally.sources[2] += 1,
                        CacheTier::ConcreteProof => {
                            if needs_trace && !before.facts().is_empty() {
                                tally.sources[reduced as usize] += 1;
                            }
                            if replayed_here && !searched.contains(&event.template_hash) {
                                tally.sources[3] += 1;
                            }
                        }
                        _ => {}
                    }
                    let after = proxy.session_trace(sid).expect("live session");
                    if after.len() == before.len() {
                        tally.repeats_skipped += 1;
                        skipped_repeat = true;
                    }
                    for row in &observed {
                        seen.extend(row.iter().filter(|v| (0..DOMAIN).contains(*v)));
                    }
                }
                ProxyResponse::Blocked(reason) => {
                    assert!(
                        matches!(reason, DenyReason::NotDetermined { .. }),
                        "{reason:?}: {}",
                        context()
                    );
                    if compliant {
                        tally.gap += 1;
                        if tally.gap_examples.len() < 5 {
                            tally.gap_examples.push(context());
                        }
                    }
                }
                ProxyResponse::Affected(_) => panic!("a read reported affected rows"),
            }
            if event.span.cert_fallbacks > 0 {
                searched.push(event.template_hash);
            }
        }
        if s + 1 == sessions {
            for (rel, values) in insert_pool() {
                if !rng.gen_bool(0.5) {
                    continue;
                }
                let req_b: Bindings = vec![
                    ("x".into(), Value::Int(rng.gen_range(0..DOMAIN))),
                    ("y".into(), Value::Int(rng.gen_range(0..DOMAIN))),
                ];
                let all_b: Bindings = session_b.iter().chain(&req_b).cloned().collect();
                let value = |t: &T| match t {
                    T::P(p) => param(&all_b, p),
                    other => panic!("insert value {other:?}"),
                };
                let row = [value(&values[0]), value(&values[1])];
                let [a, b] = values.map(|t| match t {
                    T::P(p) => format!("?{p}"),
                    other => panic!("insert value {other:?}"),
                });
                let sql = format!("INSERT INTO {} (A, B) VALUES ({a}, {b})", REL[rel]);
                match proxy.execute(sid, &sql, &req_b).expect("insert executes") {
                    ProxyResponse::Affected(1) => {
                        db[rel].push(row);
                        assert!(
                            views.iter().any(|(_, v)| v.uses(&db, &session_b, rel, row)),
                            "UNSOUND: allowed `{sql}` {req_b:?} writes {}{row:?}, which no view \
                             shows (MyUId = {uid}); {}",
                            REL[rel],
                            describe(&views, &db)
                        );
                        tally.writes_allowed += 1;
                    }
                    ProxyResponse::Blocked(_) => tally.writes_blocked += 1,
                    other => panic!("`{sql}`: {other:?}"),
                }
                proxy.journal().poll(&mut cursor, 16);
            }
        }
        proxy.end_session(sid);
    }
}

/// The judge over the bounded universe.
fn oracle() -> Oracle {
    let universe = Universe::with_int_domain(
        REL.iter()
            .map(|name| RelationSpec {
                name: name.to_string(),
                arity: 2,
                max_rows: 2,
            })
            .collect(),
        DOMAIN,
    );
    let dbs: Vec<Db> = (universe.enumerate().expect("universe fits"))
        .iter()
        .map(|instance| {
            let mut db: Db = Default::default();
            for atom in &instance.atoms {
                let r = (REL.iter())
                    .position(|n| atom.relation.as_str() == *n)
                    .expect("a universe relation");
                let cell = |k: usize| match atom.args[k] {
                    Term::Const(c) => match c.to_value() {
                        Value::Int(i) => i,
                        other => panic!("cell {other:?}"),
                    },
                    other => panic!("cell {other:?}"),
                };
                db[r].push([cell(0), cell(1)]);
            }
            db
        })
        .collect();
    assert_eq!(dbs.len(), 2_116);
    Oracle {
        dbs,
        cache: HashMap::new(),
    }
}

#[test]
fn every_allowed_statement_is_compliant_by_definition() {
    let mut oracle = oracle();
    let mut rng = SmallRng::seed_from_u64(0x5e_3a_17);
    let mut tally = Tally::default();
    for _ in 0..SCRIPTS {
        run_script(&mut oracle, &mut rng, &mut tally);
    }
    println!("{tally:#?}");
    let [fresh, compacted, template, learned] = tally.sources;
    assert!(fresh > 0, "no proof over an unreduced trace: {tally:?}");
    assert!(compacted > 0, "no proof over a reduced store: {tally:?}");
    assert!(template > 0, "no template verdict replayed: {tally:?}");
    assert!(
        learned > 0,
        "no certificate replayed across sessions: {tally:?}"
    );
    assert!(
        tally.writes_allowed > 0 && tally.writes_blocked > 0,
        "{tally:?}"
    );
    assert!(
        tally.gap <= GAP_CEILING,
        "{} compliant reads blocked (ceiling {GAP_CEILING}), e.g. {:#?}",
        tally.gap,
        tally.gap_examples
    );
}

// Write-interleaved scripts.
//
// Two sessions read in turn while `UPDATE`s, `DELETE`s and `INSERT`s run
// between their reads: through the reading session, through the other
// one, and through `execute_unchecked`. A write can falsify what a session
// read before, so the judge's trace is the part of each past observation
// that still holds: each earlier allowed read is re-evaluated on the live
// database, and the rows it returned that are still in its answer are
// rows every consistent database's answer must hold. This spec does not
// depend on how the proxy revokes; a proxy that forgets more is still
// sound against it, and shows up in the gap instead.
//
// Each enforced write that changes rows is judged too, under the writing
// session's bindings: every row it removed must be used by some view on
// the database before the write, and every row it wrote by some view on
// the database after it.

/// Write-interleaved scripts, at their own seed.
const WRITE_SCRIPTS: usize = 48;
/// Compliant reads the write-interleaved scripts see blocked, at the seed
/// below: the proxy drops every fact over a relation a write changed rows
/// of, the judge only the rows a write took out of an answer. A more
/// precise revocation lowers it; nothing may raise it.
const WRITE_GAP_CEILING: usize = 1;

/// The writes a script interleaves with its reads, with the relation
/// each writes. The last two reach what the first five cannot: an
/// `UPDATE` that moves the column a view pins (its pre-image may be a row
/// no view shows the writer) and a `DELETE` that selects by a column no
/// view joins on (its row is known only if its unknown key is pinned).
fn write_pool() -> [(&'static str, usize); 7] {
    [
        ("DELETE FROM R WHERE A = ?MyUId AND B = ?x", 0),
        ("DELETE FROM S WHERE A = ?x", 1),
        ("UPDATE R SET B = ?y WHERE A = ?MyUId AND B = ?x", 0),
        ("UPDATE S SET B = ?y WHERE A = ?x", 1),
        ("INSERT INTO S (A, B) VALUES (?x, ?y)", 1),
        ("UPDATE R SET A = ?MyUId WHERE A = ?x", 0),
        ("DELETE FROM S WHERE B = ?y", 1),
    ]
}

/// Who runs a write: the session that reads next, the other one, or
/// nobody the proxy decides for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Writer {
    Reading,
    Other,
    Unchecked,
}

#[derive(Debug, Default)]
struct WriteTally {
    reads: usize,
    allowed: usize,
    /// Allowed reads after an `UPDATE` or `DELETE` changed a row that
    /// needed an earlier read of the session to be compliant.
    trace_dependent_after_a_write: usize,
    /// `UPDATE`s and `DELETE`s that changed rows of a relation some
    /// session's trace held a fact over, so its next statement revokes.
    revoking: usize,
    /// Compliant reads the proxy blocked.
    gap: usize,
    gap_examples: Vec<String>,
    /// Writes that changed rows, by who ran them, in [`Writer`] order.
    writes: [usize; 3],
    /// Rows enforced writes removed and wrote, each judged visible.
    judged: [usize; 2],
    writes_blocked: usize,
}

/// One reading session of a write-interleaved script.
struct Reader {
    sid: u64,
    uid: i64,
    b: Bindings,
    image: Vec<u32>,
    seen: Vec<i64>,
    history: Vec<(Q, Bindings)>,
    /// Each allowed read with the rows the proxy returned.
    observed: Vec<(Q, Bindings, Answer)>,
}

/// The live database behind `proxy`.
fn live_db(proxy: &SqlProxy) -> Db {
    proxy.with_database(|d| {
        REL.map(|name| {
            (d.table(name).unwrap().rows())
                .map(|row| {
                    row.iter()
                        .map(|v| match v {
                            Value::Int(i) => *i,
                            other => panic!("non-integer cell {other:?}"),
                        })
                        .collect::<Vec<_>>()
                        .try_into()
                        .unwrap()
                })
                .collect()
        })
    })
}

/// The rows of `a` that are not in `b`, counted with multiplicity.
fn minus(a: &Db, b: &Db) -> Vec<Row> {
    let mut out = Vec::new();
    for rel in 0..REL.len() {
        let mut left = b[rel].clone();
        for row in &a[rel] {
            match left.iter().position(|r| r == row) {
                Some(i) => {
                    left.swap_remove(i);
                }
                None => out.push((rel, *row)),
            }
        }
    }
    out
}

/// The databases consistent with what still holds on `db` of `observed`:
/// every row an earlier read returned that its query still returns on
/// `db` must be in that query's answer.
fn still_consistent(
    oracle: &mut Oracle,
    db: &Db,
    observed: &[(Q, Bindings, Answer)],
) -> Vec<usize> {
    let mut consistent: Vec<usize> = (0..oracle.dbs.len()).collect();
    for (query, b, rows) in observed {
        let now = query.eval(db, b);
        let holds: Answer = rows.intersection(&now).cloned().collect();
        if holds.is_empty() {
            continue;
        }
        let answers = oracle.answers(query, b);
        let mut fits = vec![false; answers.ids.len()];
        for (answer, &id) in &answers.ids {
            fits[id as usize] = holds.is_subset(answer);
        }
        consistent.retain(|&i| fits[answers.per_db[i] as usize]);
    }
    consistent
}

fn run_write_script(oracle: &mut Oracle, rng: &mut SmallRng, tally: &mut WriteTally) {
    let views = draw_views(rng);
    let mut db = oracle.dbs[rng.gen_range(0..oracle.dbs.len())].clone();
    let proxy = enforcing_proxy(&db, &views);
    let mut cursor = JournalCursor::default();
    // Every script can learn its R rows and follow them into S, the read a
    // write to R can revoke.
    let mut reads = draw_reads(rng);
    let pool = read_pool();
    reads[..2].clone_from_slice(&[pool[0].clone(), pool[2].clone()]);
    let mut readers: Vec<Reader> = (0..2)
        .map(|_| {
            let uid = rng.gen_range(0..DOMAIN);
            let b: Bindings = vec![("MyUId".into(), Value::Int(uid))];
            Reader {
                sid: proxy.begin_session(b.clone()),
                uid,
                image: image(oracle, &views, &b),
                b,
                seen: vec![uid],
                history: Vec::new(),
                observed: Vec::new(),
            }
        })
        .collect();
    let everything: Vec<usize> = (0..oracle.dbs.len()).collect();
    let mut next = rng.gen_range(0..readers.len());
    // Whether an `UPDATE` or `DELETE` has changed a row yet.
    let mut destroyed = false;
    let mut log: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(12..=20) {
        if rng.gen_bool(0.3) {
            let writer =
                [Writer::Reading, Writer::Other, Writer::Unchecked][rng.gen_range(0..3usize)];
            let (sql, rel) = write_pool()[rng.gen_range(0..7usize)];
            // Mostly at a value a session has seen, where it can revoke.
            let target = &readers[rng.gen_range(0..2usize)];
            let seen = &target.seen;
            let x = match rng.gen_bool(0.6) {
                true => seen[rng.gen_range(0..seen.len())],
                false => rng.gen_range(0..DOMAIN),
            };
            let req_b: Bindings = vec![
                ("x".into(), Value::Int(x)),
                ("y".into(), Value::Int(rng.gen_range(0..DOMAIN))),
            ];
            let response = match writer {
                Writer::Unchecked => {
                    let mut b = req_b.clone();
                    b.push(("MyUId".into(), Value::Int(target.uid)));
                    proxy.execute_unchecked(sql, &b)
                }
                Writer::Reading => proxy.execute(readers[next].sid, sql, &req_b),
                Writer::Other => proxy.execute(readers[1 - next].sid, sql, &req_b),
            };
            proxy.journal().poll(&mut cursor, 16);
            let before = db.clone();
            db = live_db(&proxy);
            match response.expect("write executes") {
                ProxyResponse::Affected(n) => {
                    log.push(format!("{writer:?} `{sql}` {req_b:?}: {n} rows"));
                    if n > 0 {
                        tally.writes[writer as usize] += 1;
                    }
                    // Unchecked writes are not judged: nothing enforced them.
                    let by = match writer {
                        Writer::Reading => Some(&readers[next]),
                        Writer::Other => Some(&readers[1 - next]),
                        Writer::Unchecked => None,
                    };
                    if let Some(by) = by {
                        let sides = [(&before, minus(&before, &db)), (&db, minus(&db, &before))];
                        for (side, (state, rows)) in sides.iter().enumerate() {
                            for &(r, row) in rows {
                                assert!(
                                    views.iter().any(|(_, v)| v.uses(state, &by.b, r, row)),
                                    "UNSOUND: allowed `{sql}` {req_b:?} {} {}{row:?}, which no \
                                     view shows {} it (MyUId = {}); {}; script so far: {log:#?}",
                                    ["removes", "writes"][side],
                                    REL[r],
                                    ["before", "after"][side],
                                    by.uid,
                                    describe(&views, &before),
                                );
                                tally.judged[side] += 1;
                            }
                        }
                    }
                    if n > 0 && !sql.starts_with("INSERT") {
                        destroyed = true;
                        let over = |sid| {
                            let trace = proxy.session_trace(sid).expect("live session");
                            (trace.facts().iter()).any(|f| f.relation.as_str() == REL[rel])
                        };
                        tally.revoking += readers.iter().any(|r| over(r.sid)) as usize;
                    }
                }
                ProxyResponse::Blocked(_) => {
                    assert_eq!(db, before, "a blocked `{sql}` changed the database");
                    tally.writes_blocked += 1;
                }
                ProxyResponse::Rows(_) => panic!("a write returned rows"),
            }
            continue;
        }
        let reader = &mut readers[next];
        next = rng.gen_range(0..2);
        let (query, req_b) = draw_read(rng, &reads, &reader.seen, &reader.history);
        reader.history.push((query.clone(), req_b.clone()));
        let all_b: Bindings = reader.b.iter().chain(&req_b).cloned().collect();
        let sql = query.sql();
        let response = proxy
            .execute(reader.sid, &sql, &req_b)
            .expect("read executes");
        proxy.journal().poll(&mut cursor, 16);
        let consistent = still_consistent(oracle, &db, &reader.observed);
        let answers = oracle.answers(&query, &all_b);
        let compliant = determined(&consistent, &reader.image, &answers.per_db);
        tally.reads += 1;
        log.push(format!("session {} `{sql}` {req_b:?}", reader.uid));
        let context = || {
            format!(
                "MyUId = {} `{sql}` {req_b:?}; {}; script so far: {log:#?}",
                reader.uid,
                describe(&views, &db)
            )
        };
        match response {
            ProxyResponse::Rows(rows) => {
                let observed = rows_answer(&rows);
                assert_eq!(
                    observed,
                    query.eval(&db, &all_b),
                    "the database and the judge disagree on {}",
                    context()
                );
                assert!(
                    compliant,
                    "UNSOUND: allowed a read that is not compliant after a write: {}",
                    context()
                );
                tally.allowed += 1;
                let needs_trace = !determined(&everything, &reader.image, &answers.per_db);
                tally.trace_dependent_after_a_write += (needs_trace && destroyed) as usize;
                for row in &observed {
                    reader
                        .seen
                        .extend(row.iter().filter(|v| (0..DOMAIN).contains(*v)));
                }
                reader.observed.push((query, all_b, observed));
            }
            ProxyResponse::Blocked(reason) => {
                assert!(
                    matches!(reason, DenyReason::NotDetermined { .. }),
                    "{reason:?}: {}",
                    context()
                );
                if compliant {
                    tally.gap += 1;
                    if tally.gap_examples.len() < 5 {
                        tally.gap_examples.push(context());
                    }
                }
            }
            ProxyResponse::Affected(_) => panic!("a read reported affected rows"),
        }
    }
}

#[test]
fn every_allowed_read_after_a_write_is_compliant() {
    let mut oracle = oracle();
    let mut rng = SmallRng::seed_from_u64(0x3e_1a_b1);
    let mut tally = WriteTally::default();
    for _ in 0..WRITE_SCRIPTS {
        run_write_script(&mut oracle, &mut rng, &mut tally);
    }
    tally.gap_examples.truncate(2);
    println!("{tally:#?}");
    assert!(
        tally.writes.iter().all(|&n| n > 0),
        "every kind of writer changed rows: {tally:?}"
    );
    assert!(tally.writes_blocked > 0, "{tally:?}");
    assert!(
        tally.judged.iter().all(|&n| n > 0),
        "the write judge saw rows removed and written: {tally:?}"
    );
    assert!(tally.revoking > 0, "no write revoked a fact: {tally:?}");
    assert!(
        tally.trace_dependent_after_a_write > 0,
        "no read after a write needed the trace: {tally:?}"
    );
    assert!(
        tally.gap <= WRITE_GAP_CEILING,
        "{} compliant reads blocked after writes (ceiling {WRITE_GAP_CEILING}), e.g. {:#?}",
        tally.gap,
        tally.gap_examples
    );
}
