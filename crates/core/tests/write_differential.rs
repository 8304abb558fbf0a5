//! Differential gate for the write path.
//!
//! The proxy decides mutations through a tiered pipeline — plan cache,
//! template verdicts, per-session concrete caches, the trace-stamped
//! deny cache. A reference evaluator with none of that machinery
//! (freshly compile the template, freshly run the concrete coverage
//! check against the session's trace facts) must reach the *same*
//! verdict for every generated mutation, under every cache
//! configuration. Any disagreement is a decision error, full stop.

use bep_core::{
    check_write_concrete, compile_write_template, schema_of_database, ComplianceChecker, Policy,
    ProxyConfig, ProxyResponse, SqlProxy,
};
use minidb::Database;
use qlogic::{Atom, RelSchema};
use sqlir::{parse_statement, Value};

/// SplitMix64 — self-contained so the statement stream is reproducible
/// from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn calendar_db() -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work'), (3, 'party', 'fun')",
    )
    .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL), (2, 3, 'cake')")
        .unwrap();
    db
}

fn calendar_policy(schema: &RelSchema) -> Policy {
    Policy::from_sql(
        schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
            ),
        ],
    )
    .unwrap()
}

/// A user-id term: a literal in or out of the fixture, or the session
/// parameter itself.
fn uid_term(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => "1".to_string(),
        1 => "2".to_string(),
        2 => "7".to_string(),
        _ => "?MyUId".to_string(),
    }
}

/// An event-id: one of the seeded events or an unseeded id.
fn eid_term(rng: &mut Rng) -> i64 {
    [2, 3, 5][rng.below(3) as usize]
}

/// One generated mutation. `fresh` allocates never-seeded primary keys.
fn gen_write(rng: &mut Rng, fresh: &mut i64) -> String {
    let k = rng.below(9);
    let u = uid_term(rng);
    let e = eid_term(rng);
    match k {
        0 => {
            *fresh += 1;
            format!("INSERT INTO Attendance (UId, EId, Notes) VALUES ({u}, {e}, 'n{fresh}')")
        }
        1 => format!("INSERT INTO Attendance (UId, EId) VALUES ({u}, {e})"),
        2 => format!("DELETE FROM Attendance WHERE UId = {u}"),
        3 => format!("DELETE FROM Attendance WHERE UId = {u} AND EId = {e}"),
        4 => format!("UPDATE Attendance SET Notes = 'edited' WHERE UId = {u}"),
        5 => format!("UPDATE Attendance SET Notes = 'edited' WHERE UId = {u} AND EId = {e}"),
        6 => {
            *fresh += 1;
            format!("INSERT INTO Events (EId, Title, Kind) VALUES ({fresh}, 't{fresh}', 'misc')")
        }
        7 => format!("DELETE FROM Events WHERE EId = {e}"),
        _ => format!("UPDATE Events SET Title = 'renamed' WHERE EId = {e}"),
    }
}

/// One interleaved read — its only job is to grow the session's trace
/// facts so concrete write coverage becomes history-dependent.
fn gen_read(rng: &mut Rng) -> String {
    let e = eid_term(rng);
    match rng.below(3) {
        0 => format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}"),
        1 => format!("SELECT * FROM Events WHERE EId = {e}"),
        _ => "SELECT EId FROM Attendance WHERE UId = ?MyUId".to_string(),
    }
}

/// The reference: no plan cache, no template tier, no deny cache — parse
/// and compile the statement from scratch, then run the concrete
/// coverage check directly against the given trace facts.
fn reference_allows(
    schema: &RelSchema,
    policy: &Policy,
    sql: &str,
    bindings: &[(String, Value)],
    facts: &[Atom],
) -> bool {
    let stmt = parse_statement(sql).expect("generated mutation parses");
    match compile_write_template(&stmt, policy.views(), schema) {
        Err(_) => false,
        Ok(template) => check_write_concrete(&template, policy.views(), bindings, facts).is_ok(),
    }
}

/// Drives `ops` seeded operations through a proxy under `config`,
/// checking every mutation against the reference evaluator. Returns the
/// verdict log (for cross-configuration comparison) and the tally of
/// (allowed, blocked) writes.
fn differential_run(config: ProxyConfig, seed: u64, ops: usize) -> (Vec<String>, u64, u64) {
    let db = calendar_db();
    let schema = schema_of_database(&db);
    let policy = calendar_policy(&schema);
    let proxy = SqlProxy::new(
        db,
        ComplianceChecker::new(schema.clone(), policy.clone()),
        config,
    );
    let sessions = [
        proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]),
        proxy.begin_session(vec![("MyUId".into(), Value::Int(2))]),
    ];
    let bindings = [
        vec![("MyUId".to_string(), Value::Int(1))],
        vec![("MyUId".to_string(), Value::Int(2))],
    ];

    let mut rng = Rng(seed);
    let mut fresh = 1_000;
    let mut log = Vec::with_capacity(ops);
    let (mut allowed, mut blocked) = (0u64, 0u64);
    for i in 0..ops {
        let who = rng.below(2) as usize;
        if rng.below(10) < 3 {
            // A read: grows this session's trace; its own correctness is
            // covered by the read-path differential gates.
            let _ = proxy.execute(sessions[who], &gen_read(&mut rng), &[]);
            log.push(format!("read s{who}"));
            continue;
        }
        let sql = gen_write(&mut rng, &mut fresh);
        // Snapshot the facts the decision will be made against *before*
        // executing (writes never record trace facts, so order is moot,
        // but the snapshot keeps the reference honest by construction).
        let facts = proxy.session_trace(sessions[who]).unwrap().facts().to_vec();
        let expect = reference_allows(&schema, &policy, &sql, &bindings[who], &facts);
        let got = match proxy.execute(sessions[who], &sql, &[]) {
            Ok(ProxyResponse::Blocked(_)) => false,
            // Allowed — whether the store then applied it cleanly or hit
            // a duplicate key is an execution concern, not a decision.
            Ok(_) | Err(_) => true,
        };
        assert_eq!(
            got,
            expect,
            "op {i}: proxy and reference disagree on `{sql}` (session MyUId={}, {} facts)",
            who + 1,
            facts.len()
        );
        if got {
            allowed += 1;
        } else {
            blocked += 1;
        }
        log.push(format!(
            "write s{who} {}",
            if got { "allow" } else { "deny" }
        ));
    }
    (log, allowed, blocked)
}

#[test]
fn every_cache_tier_agrees_with_the_reference_evaluator() {
    let full = ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    };
    let no_template_tier = ProxyConfig {
        enforce_writes: true,
        template_cache: false,
        ..ProxyConfig::default()
    };

    let (log_a, allowed, blocked) = differential_run(full, 0xD1FF, 500);
    let (log_b, ..) = differential_run(no_template_tier, 0xD1FF, 500);

    // The stream must actually exercise both verdicts, or the gate is
    // vacuous.
    assert!(allowed > 20, "stream too benign: {allowed} allowed");
    assert!(blocked > 20, "stream too strict: {blocked} blocked");

    // The caches are transparent: every configuration makes the same
    // decision on the same statement stream.
    assert_eq!(log_a, log_b, "template tier changed a verdict");

    // And the whole run is deterministic.
    let (log_a2, ..) = differential_run(full, 0xD1FF, 500);
    assert_eq!(log_a, log_a2, "same seed, same decisions");
}
