//! Active constraint discovery (§3.2.2, bullet 3).
//!
//! The miner may keep a constant in a view simply because the workload never
//! varied it — e.g. every attended event in the traces happened to have
//! `Kind = 'work'`, so the generalized view still pins `Kind`. The paper's
//! remedy: *re-run the application with the suspect cell mutated to a random
//! value; if the subsequent trace is unaffected, conclude the value does not
//! affect access and omit it from the policy.*
//!
//! [`refine`] implements exactly that loop: for each constant in each mined
//! view, clone the database, scramble the column's matching cells, re-run
//! the workload, and compare behaviour signatures. Constants whose mutation
//! leaves behaviour unchanged are promoted to variables.

use minidb::Database;
use qlogic::{Cq, RelSchema, Term};
use sqlir::Value;

use crate::error::ExtractError;
use crate::mining::{run_signatures, Request, RunSignature};
use appdsl::App;

/// Budget for mutation probes.
#[derive(Debug, Clone, Copy)]
pub struct ActiveOptions {
    /// Maximum mutation probes across all views.
    pub max_probes: usize,
}

impl Default for ActiveOptions {
    fn default() -> ActiveOptions {
        ActiveOptions { max_probes: 64 }
    }
}

/// Constants appearing literally in the application's SQL templates.
///
/// These are developer intent (visible to any black-box observer of the
/// prepared-statement templates) and are never probed: a `WHERE Kind =
/// 'work'` filter belongs in the policy regardless of whether mutating
/// `Kind` cells changes behaviour. Probing targets only *binding-derived*
/// constants — values that flowed in from data or from an un-varied
/// workload, which is exactly where spurious constraints hide.
pub fn template_constants(app: &App) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    let mut collect_from_sql = |sql: &str| {
        if let Ok(stmt) = sqlir::parse_statement(sql) {
            let mut visit = |e: &sqlir::Expr| {
                if let sqlir::Expr::Literal(v) = e {
                    if !v.is_null() && !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            };
            match &stmt {
                sqlir::Statement::Select(q) => sqlir::ast::walk_query(q, &mut visit),
                sqlir::Statement::Insert(i) => {
                    for row in &i.rows {
                        for e in row {
                            e.walk(&mut visit);
                        }
                    }
                }
                sqlir::Statement::Update(u) => {
                    for a in &u.assignments {
                        a.value.walk(&mut visit);
                    }
                    if let Some(w) = &u.where_clause {
                        w.walk(&mut visit);
                    }
                }
                sqlir::Statement::Delete(d) => {
                    if let Some(w) = &d.where_clause {
                        w.walk(&mut visit);
                    }
                }
                sqlir::Statement::CreateTable(_) => {}
            }
        }
    };
    for h in &app.handlers {
        for stmt in &h.body {
            stmt.walk_sql(&mut collect_from_sql);
        }
    }
    out
}

/// Statistics from one refinement pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActiveStats {
    /// Mutation probes executed.
    pub probes: usize,
    /// Constants generalized away.
    pub generalized: usize,
    /// Constants confirmed as access-relevant.
    pub confirmed: usize,
}

/// Refines mined views by mutation probing. Returns the refined views and
/// probe statistics.
pub fn refine(
    views: Vec<Cq>,
    db: &Database,
    app: &App,
    schema: &RelSchema,
    requests: &[Request],
    opts: ActiveOptions,
) -> Result<(Vec<Cq>, ActiveStats), ExtractError> {
    let baseline = run_signatures(db, app, requests)?;
    let protected = template_constants(app);
    let mut stats = ActiveStats::default();
    let mut out = Vec::with_capacity(views.len());
    for view in views {
        out.push(refine_view(
            view, db, app, schema, requests, &baseline, &protected, &mut stats, opts,
        )?);
    }
    Ok((out, stats))
}

#[allow(clippy::too_many_arguments)]
fn refine_view(
    mut view: Cq,
    db: &Database,
    app: &App,
    schema: &RelSchema,
    requests: &[Request],
    baseline: &[RunSignature],
    protected: &[Value],
    stats: &mut ActiveStats,
    opts: ActiveOptions,
) -> Result<Cq, ExtractError> {
    // Probe each constant position. Parameters are skipped (session-linked
    // by construction); template constants are skipped (developer intent).
    loop {
        let mut changed = false;
        let positions = constant_positions(&view);
        for (relation, col_idx, value) in positions {
            if protected.contains(&value) {
                continue;
            }
            if stats.probes >= opts.max_probes {
                return Ok(view);
            }
            let Ok(cols) = schema.columns(&relation) else {
                continue;
            };
            let Some(column) = cols.get(col_idx) else {
                continue;
            };

            stats.probes += 1;
            let mutated = mutate_column(db, &relation, column, &value)?;
            let after = run_signatures(&mutated, app, requests)?;
            if after == baseline {
                // The value is behaviourally irrelevant: generalize it. The
                // fresh variable is request-selected, so expose it in the
                // head (mirroring what the hints do).
                let fresh = Term::var(format!("act·{}", stats.generalized));
                view = replace_const(&view, &value, &fresh);
                if !view.head.contains(&fresh) {
                    view.head.push(fresh);
                }
                view = qlogic::minimize(&view);
                stats.generalized += 1;
                changed = true;
                break; // re-enumerate positions on the updated view
            } else {
                stats.confirmed += 1;
            }
        }
        if !changed {
            return Ok(view);
        }
    }
}

/// Constant positions in a view's atoms: `(relation, column index, value)`.
fn constant_positions(view: &Cq) -> Vec<(String, usize, Value)> {
    let mut out = Vec::new();
    for a in &view.atoms {
        for (i, t) in a.args.iter().enumerate() {
            if let Term::Const(v) = t {
                let entry = (a.relation.to_string(), i, v.to_value());
                if !out.contains(&entry) {
                    out.push(entry);
                }
            }
        }
    }
    out
}

/// Clones the database with every cell of `table.column` equal to `value`
/// scrambled to a fresh value of the same type.
fn mutate_column(
    db: &Database,
    table: &str,
    column: &str,
    value: &Value,
) -> Result<Database, ExtractError> {
    let mut out = db.clone();
    let t = out
        .table_mut_unchecked(table)
        .map_err(|e| ExtractError::Execution(e.to_string()))?;
    let Some(idx) = t.schema().column_index(column) else {
        return Ok(out);
    };
    let fresh = scrambled(value);
    for i in 0..t.len() {
        if *t.cell(i, idx) == *value {
            t.set_cell(i, idx, fresh.clone())
                .map_err(|e| ExtractError::Execution(e.to_string()))?;
        }
    }
    Ok(out)
}

/// A fresh value of the same type, chosen outside plausible live ranges.
fn scrambled(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_mul(7919).wrapping_add(1_000_003)),
        Value::Str(s) => Value::str(format!("scrambled·{s}·{}", s.len())),
        Value::Bool(b) => Value::Bool(!b),
        Value::Null => Value::Null,
    }
}

/// Replaces every occurrence of a constant with a term.
fn replace_const(cq: &Cq, from: &Value, to: &Term) -> Cq {
    let from = qlogic::CVal::from_value(from);
    let f = |t: &Term| -> Term {
        match t {
            Term::Const(c) if *c == from => *to,
            other => *other,
        }
    };
    let mut out = Cq::new(
        cq.head.iter().map(f).collect(),
        cq.atoms
            .iter()
            .map(|a| qlogic::Atom::new(a.relation, a.args.iter().map(f).collect()))
            .collect(),
        cq.comparisons
            .iter()
            .map(|c| qlogic::Comparison::new(f(&c.lhs), c.op, f(&c.rhs)))
            .collect(),
    );
    out.name = cq.name;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{collect_traces, mine_policy, MineOptions};
    use appdsl::parse_app;

    fn schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Docs", ["DId", "GId", "Title"]);
        s.add_table("Groups", ["GId", "Name"]);
        s.add_table("Membership", ["UId", "GId"]);
        s
    }

    /// Both documents live in group 7 — the invariance that traps the miner.
    fn docs_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE Docs (DId INT PRIMARY KEY, GId INT, Title TEXT)")
            .unwrap();
        db.execute_sql("CREATE TABLE Groups (GId INT PRIMARY KEY, Name TEXT)")
            .unwrap();
        db.execute_sql("CREATE TABLE Membership (UId INT, GId INT)")
            .unwrap();
        db.execute_sql("INSERT INTO Groups (GId, Name) VALUES (7, 'eng'), (8, 'ops')")
            .unwrap();
        db.execute_sql(
            "INSERT INTO Docs (DId, GId, Title) VALUES (51, 7, 'road map'), (52, 7, 'retro')",
        )
        .unwrap();
        db.execute_sql("INSERT INTO Membership (UId, GId) VALUES (101, 7)")
            .unwrap();
        db
    }

    fn requests(handler: &str) -> Vec<Request> {
        vec![
            Request {
                handler: handler.into(),
                session: vec![("MyUId".into(), Value::Int(101))],
                params: vec![("doc_id".into(), Value::Int(51))],
            },
            Request {
                handler: handler.into(),
                session: vec![("MyUId".into(), Value::Int(101))],
                params: vec![("doc_id".into(), Value::Int(52))],
            },
        ]
    }

    #[test]
    fn irrelevant_binding_constant_is_generalized() {
        // The group probe is issued but never gates anything: mutating the
        // GId cells leaves the issued-query trace unchanged, so the mined
        // constant 7 must be generalized away.
        let app = parse_app(
            r#"
            handler show_doc(doc_id) {
                let d = sql("SELECT GId, Title FROM Docs WHERE DId = ?doc_id");
                if d.is_empty() {
                    abort(404);
                }
                let g = d.GId;
                let probe = sql("SELECT 1 FROM Groups WHERE GId = ?g");
                emit d;
            }
            "#,
        )
        .unwrap();
        let db = docs_db();
        let schema = schema();
        let reqs = requests("show_doc");
        let traces = collect_traces(&db, &app, &schema, &reqs).unwrap();
        let views = mine_policy(
            &traces,
            &MineOptions {
                minimize_policy: false,
                ..Default::default()
            },
        );
        assert!(
            views.iter().any(|v| v
                .atoms
                .iter()
                .any(|a| a.relation == "Groups" && a.args.contains(&Term::int(7)))),
            "precondition: the miner pinned GId = 7: {}",
            views
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let (refined, stats) =
            refine(views, &db, &app, &schema, &reqs, ActiveOptions::default()).unwrap();
        assert!(stats.probes > 0);
        assert!(stats.generalized > 0, "stats: {stats:?}");
        let still_pinned = refined.iter().any(|v| {
            v.atoms
                .iter()
                .any(|a| a.relation == "Groups" && a.args.contains(&Term::int(7)))
        });
        assert!(!still_pinned);
    }

    #[test]
    fn gating_binding_constant_is_confirmed() {
        // Here the membership check gates access: mutating GId cells flips
        // the outcome to 403, so the constant is confirmed (conservatively
        // kept; hints would generalize it instead).
        let app = parse_app(
            r#"
            handler show_doc2(doc_id) {
                let d = sql("SELECT GId, Title FROM Docs WHERE DId = ?doc_id");
                if d.is_empty() {
                    abort(404);
                }
                let g = d.GId;
                let m = sql("SELECT 1 FROM Membership WHERE UId = ?MyUId AND GId = ?g");
                if m.is_empty() {
                    abort(403);
                }
                emit d;
            }
            "#,
        )
        .unwrap();
        let db = docs_db();
        let schema = schema();
        let reqs = requests("show_doc2");
        let traces = collect_traces(&db, &app, &schema, &reqs).unwrap();
        let views = mine_policy(
            &traces,
            &MineOptions {
                minimize_policy: false,
                ..Default::default()
            },
        );
        let (refined, stats) =
            refine(views, &db, &app, &schema, &reqs, ActiveOptions::default()).unwrap();
        assert!(stats.confirmed > 0, "stats: {stats:?}");
        // The membership constraint survives in some view.
        assert!(refined
            .iter()
            .any(|v| v.atoms.iter().any(|a| a.relation == "Membership")));
    }

    #[test]
    fn template_constants_are_never_probed() {
        let app = parse_app(
            r#"
            handler work_events() {
                emit sql("SELECT Title FROM Docs WHERE Title = 'road map'");
            }
            "#,
        )
        .unwrap();
        let protected = template_constants(&app);
        assert!(protected.contains(&Value::str("road map")));

        let db = docs_db();
        let schema = schema();
        let reqs = vec![Request {
            handler: "work_events".into(),
            session: vec![("MyUId".into(), Value::Int(101))],
            params: vec![],
        }];
        let traces = collect_traces(&db, &app, &schema, &reqs).unwrap();
        let views = mine_policy(&traces, &MineOptions::default());
        let (refined, stats) =
            refine(views, &db, &app, &schema, &reqs, ActiveOptions::default()).unwrap();
        assert_eq!(stats.probes, 0, "template constants are protected");
        assert!(refined.iter().any(|v| v
            .atoms
            .iter()
            .any(|a| a.args.contains(&Term::str("road map")))));
    }

    #[test]
    fn scrambled_values_change() {
        assert_ne!(scrambled(&Value::Int(7)), Value::Int(7));
        assert_ne!(scrambled(&Value::str("x")), Value::str("x"));
        assert_ne!(scrambled(&Value::Bool(true)), Value::Bool(true));
    }
}
