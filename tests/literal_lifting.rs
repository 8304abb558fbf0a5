//! The literal-lifting gate.
//!
//! `SqlProxy::execute` lifts a statement's literals into parameters and
//! decides its *shape*, unless the text has a plan of its own in the plan
//! cache. The reference compiles the exact text's plan into its cache
//! first (`PlanCache::get_or_compile`), so its `execute` decides the exact
//! text, as every statement was decided before lifting. Twin proxies over
//! one database and policy take the same statements in the same sessions,
//! one through each path, and must agree on every answer: rows, affected
//! counts, and the deny reason with its detail.
//!
//! Beyond the answers, every statement must keep its tier (a template
//! verdict stays a template verdict), and every application handler
//! statement must keep its own plan: a handler's literals are select-list
//! constants, booleans, or comparisons on columns a view pins, none of
//! which may be lifted. The traffic is the appsim applications'
//! workloads, the scenario fleet's handlers and raw probes, and generated
//! literal-bearing reads and writes over a policy with a pinned column and
//! a view that equates two columns, including equal literals, unparseable
//! texts and caller bindings in the lifted namespace.

use appdsl::{run_handler, DslError, Limits, PortOutcome, QueryPort};
use appsim::{AppSpec, Scale};
use bep_core::{
    template_hash, CacheTier, ComplianceChecker, CoreError, Policy, ProxyConfig, ProxyResponse,
    SqlProxy,
};
use bep_scenario::{fleet, TrafficConfig, TrafficEngine, TrafficOp};
use minidb::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlir::Value;

type Bindings = Vec<(String, Value)>;

/// Two proxies over one database and policy: `lifted` decides through
/// `execute`, `exact` through `execute` of a plan compiled from the exact
/// text beforehand.
struct Twins {
    lifted: SqlProxy,
    exact: SqlProxy,
    checker: ComplianceChecker,
    /// Statements `lifted` decided through a shape.
    shaped: usize,
}

impl Twins {
    fn new(db: &Database, schema: qlogic::RelSchema, policy: Policy) -> Twins {
        let checker = ComplianceChecker::new(schema, policy);
        let proxy = || {
            let config = ProxyConfig {
                enforce_writes: true,
                ..ProxyConfig::default()
            };
            SqlProxy::new(db.clone(), checker.clone(), config)
        };
        Twins {
            lifted: proxy(),
            exact: proxy(),
            checker,
            shaped: 0,
        }
    }

    fn of(app: &dyn AppSpec, db: &Database) -> Twins {
        Twins::new(db, app.schema(), app.policy().unwrap())
    }

    fn begin(&self, session: Bindings) -> (u64, u64) {
        (
            self.lifted.begin_session(session.clone()),
            self.exact.begin_session(session),
        )
    }

    fn end(&self, (a, b): (u64, u64)) {
        self.lifted.end_session(a);
        self.exact.end_session(b);
    }

    /// Runs one statement on both sides and holds them equal (a store
    /// error, such as a key violation, included).
    fn run(
        &mut self,
        (a, b): (u64, u64),
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        let lifted = self.lifted.execute(a, sql, bindings);
        // `resolve` takes a text's own plan before it tries to lift.
        self.exact.with_plan_cache(|plans| {
            plans.get_or_compile(&self.checker, sql, &mut |_| {});
        });
        let exact = self.exact.execute(b, sql, bindings);
        assert_eq!(lifted, exact, "{sql} with {bindings:?}");
        // A store error is not a decision and leaves no journal event.
        if lifted.is_ok() {
            let (hash, tier) = last_decision(&self.lifted);
            assert_eq!(tier, last_decision(&self.exact).1, "tier of {sql}");
            if hash != template_hash(sql) {
                self.shaped += 1;
            }
        }
        lifted
    }

    /// [`Twins::run`] for a handler's statement, which also keeps its plan.
    fn run_handler_statement(
        &mut self,
        session: (u64, u64),
        sql: &str,
        bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        let shaped = self.shaped;
        let response = self.run(session, sql, bindings);
        assert_eq!(self.shaped, shaped, "a handler statement was lifted: {sql}");
        response
    }
}

/// The last decision's template hash and level: decided by a template
/// verdict (`TemplateCache`; a fresh template proof counts as one, since
/// the exact twin proves outside any decision), by the concrete tier
/// (`ConcreteProof`, session caches included: a text decided through its
/// shape and later through its own plan keys its cache entries apart), or
/// neither (`Uncached`).
fn last_decision(p: &SqlProxy) -> (u64, CacheTier) {
    let e = p.journal().events_since(p.journal().published() - 1, 1)[0];
    let level = match e.tier {
        CacheTier::TemplateProof | CacheTier::TemplateCache => CacheTier::TemplateCache,
        CacheTier::Uncached => CacheTier::Uncached,
        _ => CacheTier::ConcreteProof,
    };
    (e.template_hash, level)
}

/// Runs handlers through the twins.
struct TwinPort<'t> {
    twins: &'t mut Twins,
    session: (u64, u64),
}

impl QueryPort for TwinPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let response = self
            .twins
            .run_handler_statement(self.session, sql, bindings);
        Ok(match response.map_err(|e| DslError::Port(e.to_string()))? {
            ProxyResponse::Rows(r) => PortOutcome::Rows(r),
            ProxyResponse::Affected(n) => PortOutcome::Affected(n),
            ProxyResponse::Blocked(reason) => PortOutcome::Blocked(format!("{reason:?}")),
        })
    }
}

fn my_uid(uid: i64) -> Bindings {
    vec![("MyUId".to_string(), Value::Int(uid))]
}

#[test]
fn appsim_handlers_keep_their_plans_and_answers() {
    for app in appsim::ALL_APPS {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut db = app.empty_db();
        appsim::seed_app(app.name, &mut db, &mut rng, &Scale::small());
        let requests = appsim::workload_for(app.name, &db, &mut rng, 40).unwrap();
        let parsed = app.app();
        let mut twins = Twins::of(app, &db);
        let mut sessions: Vec<(Bindings, (u64, u64))> = Vec::new();
        for req in &requests {
            let session = match sessions.iter().find(|(b, _)| *b == req.session) {
                Some((_, s)) => *s,
                None => {
                    let s = twins.begin(req.session.clone());
                    sessions.push((req.session.clone(), s));
                    s
                }
            };
            let handler = parsed.handler(&req.handler).unwrap();
            let mut port = TwinPort {
                twins: &mut twins,
                session,
            };
            run_handler(
                &mut port,
                handler,
                &req.session,
                &req.params,
                Limits::default(),
            )
            .unwrap_or_else(|e| panic!("{}::{}: {e}", app.name, req.handler));
        }
    }
}

#[test]
fn fleet_traffic_decides_as_its_exact_texts() {
    const SLOTS: usize = 8;
    for app in fleet(1307, 64) {
        let parsed = app.app();
        let mut db = app.empty_db();
        app.populate(&mut db).unwrap();
        let mut twins = Twins::of(&app, &db);
        let cfg = TrafficConfig {
            target_sessions: SLOTS,
            mean_session_len: 12.0,
            write_probe_fraction: 0.1,
            ..TrafficConfig::default()
        };
        let mut engine = TrafficEngine::new(&app, cfg, 7);
        let mut sessions: Vec<Option<(u64, u64)>> = vec![None; SLOTS];
        let mut raw = 0;
        for _ in 0..400 {
            match engine.next_op() {
                TrafficOp::Begin { slot, uid, .. } => {
                    sessions[slot] = Some(twins.begin(my_uid(uid)))
                }
                TrafficOp::End { slot } => twins.end(sessions[slot].take().unwrap()),
                TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                    // Every third raw statement carries a caller binding
                    // in the lifted namespace that its text never names.
                    raw += 1;
                    let extra = match raw % 3 {
                        0 => vec![("__lit0".to_string(), Value::Int(bep_scenario::uid(0)))],
                        _ => vec![],
                    };
                    twins.run(sessions[slot].unwrap(), &sql, &extra).unwrap();
                }
                TrafficOp::Request { slot, request, .. } => {
                    let mut port = TwinPort {
                        twins: &mut twins,
                        session: sessions[slot].unwrap(),
                    };
                    let handler = parsed.handler(&request.handler).unwrap();
                    run_handler(
                        &mut port,
                        handler,
                        &request.session,
                        &request.params,
                        Limits::default(),
                    )
                    .unwrap();
                }
            }
        }
        assert!(twins.shaped > 0, "{}: nothing was lifted", app.name);
    }
}

/// The calendar schema with a policy that pins `Events.Kind` and ties
/// `Attendance.UId` to `Attendance.EId`.
fn pinned_calendar() -> (Database, qlogic::RelSchema, Policy) {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    for e in 0..6 {
        let kind = ["public", "private"][e % 2];
        db.execute_sql(&format!(
            "INSERT INTO Events (EId, Title, Kind) VALUES ({e}, 't{e}', '{kind}')"
        ))
        .unwrap();
    }
    for (u, e) in [(0, 1), (0, 2), (1, 1), (2, 3), (3, 0), (3, 5)] {
        db.execute_sql(&format!(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES ({u}, {e}, 'n')"
        ))
        .unwrap();
    }
    let schema = bep_core::schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = ?MyUId",
            ),
            (
                "VPublic",
                "SELECT EId, Title, Kind FROM Events WHERE Kind = 'public'",
            ),
            ("VSelf", "SELECT UId, Notes FROM Attendance WHERE UId = EId"),
        ],
    )
    .unwrap();
    (db, schema, policy)
}

/// One generated statement and its request bindings.
fn generated(rng: &mut SmallRng) -> (String, Bindings) {
    let (u, v) = (rng.gen_range(0..4), rng.gen_range(0..4));
    let (e, f) = (rng.gen_range(0..6), rng.gen_range(0..6));
    let k = ["public", "private"][rng.gen_range(0..2usize)];
    let n = ["a", "it''s"][rng.gen_range(0..2usize)];
    let sql = match rng.gen_range(0..27) {
        0 => format!("SELECT EId, Title FROM Events WHERE Kind = '{k}'"),
        1 => format!("SELECT EId, Title, Kind FROM Events WHERE Kind = '{k}' AND EId = {e}"),
        2 => format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}"),
        3 => format!("SELECT * FROM Events WHERE EId = {e}"),
        4 => format!("SELECT * FROM Events WHERE EId IN ({e}, {f})"),
        5 => format!("SELECT Title FROM Events WHERE EId BETWEEN {e} AND {f}"),
        6 => format!("SELECT Title FROM Events WHERE EId = {e} AND EId = {f}"),
        7 => format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND (EId = {e} OR EId = {f})"),
        8 => format!(
            "SELECT e.Title FROM Events e JOIN Attendance a ON e.EId = a.EId \
             WHERE a.UId = {u} AND e.EId = {e}"
        ),
        9 => format!(
            "SELECT a.Notes FROM Attendance a, Attendance b WHERE a.UId = {u} \
             AND b.UId = {v} AND a.EId = b.EId AND a.Notes = b.Notes"
        ),
        10 => format!("SELECT 1, 'x' FROM Attendance WHERE UId = ?MyUId AND EId = {e}"),
        11 => format!("SELECT * FROM Events WHERE EId = {e} LIMIT {f}"),
        12 => format!("SELECT * FROM Events WHERE EId = ?e AND Kind = '{k}'"),
        13 => format!("INSERT INTO Attendance (UId, EId, Notes) VALUES ({u}, {e}, '{n}')"),
        14 => format!("UPDATE Attendance SET Notes = '{n}' WHERE UId = {u} AND EId = {e}"),
        15 => format!("DELETE FROM Attendance WHERE UId = {u} AND EId = {e}"),
        16 => format!(
            "INSERT INTO Events (EId, Title, Kind) VALUES ({}, 'x', '{k}')",
            10 + rng.gen_range(0..1000)
        ),
        17 => format!("SELECT * FROM Events WHERE EId = {e} AND"),
        18 => format!("SELECT * FROM Events WHERE EId = {e} AND Title = 'open"),
        19 => format!("SELECT * FROM Events WHERE EId = {e}{e}999999999999999999"),
        20 => format!("SELECT * FROM Events WHERE EId = {e} LIMIT x"),
        21 => format!("SELECT COUNT(*) FROM Events WHERE EId = {e}"),
        22 => format!("SELECT * FROM Events WHERE Title LIKE 't%' AND EId = {e}"),
        // `VSelf` and `V2` prove these at the template tier exactly when
        // two of their literals are equal.
        23 => format!("SELECT Notes FROM Attendance WHERE UId = {u} AND EId = {e}"),
        24 => format!("SELECT Notes FROM Attendance WHERE {e} = EId AND UId = {u}"),
        25 => format!(
            "SELECT e.Title FROM Events e, Attendance a WHERE e.EId = {e} \
             AND a.EId = {f} AND a.UId = ?MyUId"
        ),
        _ => format!("SELECT * FROM Events WHERE EId = ?__lit0 AND Kind = '{k}'"),
    };
    let mut bindings = Vec::new();
    if sql.contains("?e ") {
        bindings.push(("e".to_string(), Value::Int(e as i64)));
    }
    if sql.contains("?__lit0") || rng.gen_range(0..5) == 0 {
        bindings.push(("__lit0".to_string(), Value::Int(f as i64)));
    }
    (sql, bindings)
}

#[test]
fn generated_literals_decide_as_their_exact_texts() {
    let (db, schema, policy) = pinned_calendar();
    let mut twins = Twins::new(&db, schema, policy);
    let sessions: Vec<_> = (0..4).map(|u| twins.begin(my_uid(u))).collect();
    let mut rng = SmallRng::seed_from_u64(32);
    let mut blocked = 0;
    for _ in 0..600 {
        let (sql, bindings) = generated(&mut rng);
        let session = sessions[rng.gen_range(0..sessions.len())];
        if let Ok(response) = twins.run(session, &sql, &bindings) {
            blocked += usize::from(!response.is_allowed());
        }
    }
    assert!(twins.shaped > 100, "only {} lifted decisions", twins.shaped);
    assert!(blocked > 50 && blocked < 550, "{blocked} of 600 blocked");
    // One plan per shape: the lifted side compiled fewer texts, although
    // an exact-only shape costs it a plan for the shape and one for the
    // text.
    let (lifted, exact) = (
        twins.lifted.with_plan_cache(|plans| plans.len()),
        twins.exact.with_plan_cache(|plans| plans.len()),
    );
    assert!(lifted < exact, "{lifted} plans lifted vs {exact} exact");
}
