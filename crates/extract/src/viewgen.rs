//! View generation from symbolic paths (§3.2.1 → Example 3.1).
//!
//! Each issued query on a symbolic path becomes a candidate view:
//!
//! * session fields stay as policy parameters (`?MyUId`);
//! * request parameters become variables (generalizing over requests), with
//!   the *same* variable shared by every query on the path — this is what
//!   turns Listing 1's guard into the `Events ⋈ Attendance` join of view V2;
//! * non-emptiness guards on earlier queries conjoin their bodies into the
//!   view (the "maximally restrictive policy that allows this behaviour");
//! * every query's view exposes the query's own projection plus
//!   the request variables that select it — enforcement is query-level, so
//!   the policy must cover what queries *read* (a metadata probe reads a
//!   post's group id even when only its emptiness reaches the user).
//!
//! Guards the logic fragment cannot express (e.g. a guard query with
//! aggregation) are dropped, making the view *more permissive*; such views
//! are flagged for the operator's review, matching the paper's workflow
//! where a human vets the draft policy.

use qlogic::{sql_to_cq, Atom, Comparison, Cq, RelSchema, Term};
use sqlir::{Query, SelectItem, Statement};

use crate::error::ExtractError;
use crate::symex::{Cond, QueryId, SymPath, SymQuery, SymScalar};

/// Options shared by the extraction pipelines.
#[derive(Debug, Clone)]
pub struct ViewGenOptions {
    /// Names that denote session fields (policy parameters), e.g. `MyUId`.
    pub session_params: Vec<String>,
}

impl Default for ViewGenOptions {
    fn default() -> ViewGenOptions {
        ViewGenOptions {
            session_params: vec!["MyUId".to_string()],
        }
    }
}

/// A candidate view with provenance.
#[derive(Debug, Clone)]
pub struct CandidateView {
    /// The view body (unnamed until policy assembly).
    pub cq: Cq,
    /// The handler it came from.
    pub handler: String,
    /// `true` if an inexpressible guard was dropped (operator should review).
    pub over_approximate: bool,
}

/// Output-column names of a `SELECT`, aligned with the head produced by
/// [`qlogic::sql_to_cq`] (wildcards expand in binding order).
pub fn output_names(schema: &RelSchema, q: &Query) -> Result<Vec<String>, ExtractError> {
    let mut names = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Wildcard => {
                for tref in q.table_refs() {
                    for c in schema
                        .columns(&tref.table)
                        .map_err(|e| ExtractError::Logic(e.to_string()))?
                    {
                        names.push(c.clone());
                    }
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let tref = q
                    .table_refs()
                    .find(|r| r.binding() == t)
                    .ok_or_else(|| ExtractError::Sql(format!("unknown binding {t}")))?;
                for c in schema
                    .columns(&tref.table)
                    .map_err(|e| ExtractError::Logic(e.to_string()))?
                {
                    names.push(c.clone());
                }
            }
            SelectItem::Expr { alias: Some(a), .. } => names.push(a.clone()),
            SelectItem::Expr {
                expr: sqlir::Expr::Column(c),
                ..
            } => names.push(c.column.clone()),
            SelectItem::Expr { expr, .. } => names.push(expr.to_string()),
        }
    }
    Ok(names)
}

/// Replaces `Term::Param(name)` occurrences per the mapping.
fn subst_params(cq: &Cq, map: &[(String, Term)]) -> Cq {
    let f = |t: &Term| -> Term {
        if let Term::Param(p) = t {
            if let Some((_, to)) = map.iter().find(|(n, _)| n == p) {
                return *to;
            }
        }
        *t
    };
    let mut out = Cq::new(
        cq.head.iter().map(f).collect(),
        cq.atoms
            .iter()
            .map(|a| Atom::new(a.relation, a.args.iter().map(f).collect()))
            .collect(),
        cq.comparisons
            .iter()
            .map(|c| Comparison::new(f(&c.lhs), c.op, f(&c.rhs)))
            .collect(),
    );
    out.name = cq.name;
    out
}

/// The translated form of one symbolic query.
struct TranslatedQuery {
    cq: Cq,
    /// Output column name → head term (for field-dependency links).
    out_map: Vec<(String, Term)>,
    /// The terms this query's parameters took from earlier queries' fields
    /// (the join columns a field link adds).
    linked: Vec<Term>,
    /// `true` if translation failed (out of fragment / DML).
    failed: bool,
}

/// Generates candidate views from the symbolic paths of one handler.
pub fn views_from_paths(
    schema: &RelSchema,
    handler: &str,
    paths: &[SymPath],
    opts: &ViewGenOptions,
) -> Vec<CandidateView> {
    let mut out: Vec<CandidateView> = Vec::new();
    for path in paths {
        let translated = translate_path(schema, path, opts);
        for (i, q) in path.queries.iter().enumerate() {
            // Every issued SELECT needs a view: enforcement is query-level,
            // so even a query whose result the application discards (an
            // analytics probe) reaches the proxy and must be covered.
            let Some(tq) = translated.get(i) else {
                continue;
            };
            if tq.failed {
                continue; // inexpressible query: no view extractable
            }
            // Conjoin the bodies of (a) non-emptiness guards on earlier
            // queries and (b) queries whose fields feed this one's bindings
            // (transitively) — both constrain what this query can observe.
            let mut atoms = tq.cq.atoms.clone();
            let mut comparisons = tq.cq.comparisons.clone();
            let mut over_approximate = false;
            let mut needed: Vec<QueryId> = Vec::new();
            for cond in &path.conditions {
                if let Cond::NonEmpty(j) = cond {
                    if *j < i && !needed.contains(j) {
                        needed.push(*j);
                    }
                }
            }
            // Field dependencies, transitively closed.
            let mut frontier = vec![i];
            while let Some(cur) = frontier.pop() {
                for (_, v) in &path.queries[cur].bindings {
                    if let SymScalar::Field { query, .. } = v {
                        if !needed.contains(query) && *query < i {
                            needed.push(*query);
                            frontier.push(*query);
                        }
                    }
                }
            }
            for j in needed {
                match translated.get(j) {
                    Some(g) if !g.failed => {
                        for a in &g.cq.atoms {
                            if !atoms.contains(a) {
                                atoms.push(a.clone());
                            }
                        }
                        for c in &g.cq.comparisons {
                            if !comparisons.contains(c) {
                                comparisons.push(*c);
                            }
                        }
                    }
                    _ => over_approximate = true,
                }
            }
            // Head: every observable query exposes its own projection —
            // enforcement is query-level, so the policy must cover what the
            // query *reads*, not merely what the user ultimately sees (a
            // metadata probe reads the post's group id even though only its
            // emptiness reaches the user) — plus the request variables that
            // select it, plus the columns its field links join through (the
            // earlier query's fact pins that column only if the view
            // exposes it: the order book's `p.MId`). Constant head terms
            // (SELECT 1 artifacts) drop out.
            let _ = q.emitted;
            let mut head: Vec<Term> = tq
                .cq
                .head
                .iter()
                .filter(|t| !t.is_rigid())
                .cloned()
                .collect();
            for t in request_vars(&atoms).into_iter().chain(tq.linked.clone()) {
                if !head.contains(&t) {
                    head.push(t);
                }
            }
            let cq = Cq::new(head, atoms, comparisons);
            let cq = qlogic::minimize(&cq);
            out.push(CandidateView {
                cq,
                handler: handler.to_string(),
                over_approximate,
            });
        }
    }
    dedup_views(out)
}

fn translate_path(
    schema: &RelSchema,
    path: &SymPath,
    opts: &ViewGenOptions,
) -> Vec<TranslatedQuery> {
    let mut out: Vec<TranslatedQuery> = Vec::new();
    let mut fresh = 0usize;
    for q in &path.queries {
        let tq = translate_query(schema, q, &out, opts, &mut fresh);
        out.push(tq);
    }
    out
}

fn translate_query(
    schema: &RelSchema,
    q: &SymQuery,
    earlier: &[TranslatedQuery],
    opts: &ViewGenOptions,
    fresh: &mut usize,
) -> TranslatedQuery {
    let failed = TranslatedQuery {
        cq: Cq::new(vec![], vec![], vec![]),
        out_map: vec![],
        linked: vec![],
        failed: true,
    };
    let Ok(stmt) = sqlir::parse_statement(&q.sql) else {
        return failed;
    };
    let Statement::Select(query) = &stmt else {
        return failed;
    };
    let Ok(cq) = sql_to_cq(schema, query) else {
        return failed;
    };
    let Ok(names) = output_names(schema, query) else {
        return failed;
    };

    // Rename apart, then resolve parameters.
    let cq = cq.rename_vars(&format!("q{}·", q.id));
    let mut map: Vec<(String, Term)> = Vec::new();
    let mut linked = Vec::new();
    for (name, sym) in &q.bindings {
        let to = match sym {
            SymScalar::Session(s) => Term::param(s.clone()),
            SymScalar::Param(p) => {
                if opts.session_params.contains(p) {
                    Term::param(p.clone())
                } else {
                    Term::var(format!("req·{p}"))
                }
            }
            SymScalar::Lit(v) => Term::constant(v),
            SymScalar::Field { query, column } => {
                let field = earlier.get(*query).and_then(|tq| {
                    tq.out_map
                        .iter()
                        .find(|(n, _)| n == column)
                        .map(|(_, t)| *t)
                });
                match field {
                    Some(t) => {
                        if !t.is_rigid() {
                            linked.push(t);
                        }
                        t
                    }
                    None => {
                        *fresh += 1;
                        Term::var(format!("opq·{fresh}"))
                    }
                }
            }
            SymScalar::Count(_) | SymScalar::Opaque => {
                *fresh += 1;
                Term::var(format!("opq·{fresh}"))
            }
        };
        map.push((name.clone(), to));
    }
    let cq = subst_params(&cq, &map);
    let out_map = names.into_iter().zip(cq.head.iter().cloned()).collect();
    TranslatedQuery {
        cq,
        out_map,
        linked,
        failed: false,
    }
}

/// The request variables (`req·*`) appearing in a set of atoms.
fn request_vars(atoms: &[Atom]) -> Vec<Term> {
    let mut out = Vec::new();
    for a in atoms {
        for t in &a.args {
            if let Term::Var(v) = t {
                if v.as_str().starts_with("req·") && !out.contains(t) {
                    out.push(*t);
                }
            }
        }
    }
    out
}

/// Deduplicates candidate views by query equivalence, keeping provenance of
/// the first occurrence.
pub fn dedup_views(views: Vec<CandidateView>) -> Vec<CandidateView> {
    let mut out: Vec<CandidateView> = Vec::new();
    for v in views {
        if !out.iter().any(|kept| qlogic::equivalent(&kept.cq, &v.cq)) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symex::{explore, SymLimits};
    use appdsl::parse_handler;

    fn calendar_schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s
    }

    const LISTING_1: &str = r#"
        handler show_event(event_id) {
            let rows = sql("SELECT 1 FROM Attendance
                            WHERE UId = ?MyUId AND EId = ?event_id");
            if rows.is_empty() {
                abort(404);
            }
            emit sql("SELECT * FROM Events WHERE EId = ?event_id");
        }
    "#;

    /// The ground-truth views of Example 2.1.
    fn v1() -> Cq {
        // V1(e) :- Attendance(?MyUId, e, n)
        Cq::new(
            vec![Term::var("e")],
            vec![Atom::new(
                "Attendance",
                vec![Term::param("MyUId"), Term::var("e"), Term::var("n")],
            )],
            vec![],
        )
    }

    fn v2() -> Cq {
        // V2(e, t, k) :- Events(e, t, k), Attendance(?MyUId, e, n).
        //
        // Note: the paper writes V2 as `SELECT *` over the join, which also
        // exposes the Attendance payload (Notes). Listing 1 never shows
        // Notes, so the *maximally restrictive* policy — which is what
        // extraction promises — exposes only the Events columns. We assert
        // the tighter view here; the enforcement tests use the paper's V2
        // verbatim.
        Cq::new(
            vec![Term::var("e"), Term::var("t"), Term::var("k")],
            vec![
                Atom::new(
                    "Events",
                    vec![Term::var("e"), Term::var("t"), Term::var("k")],
                ),
                Atom::new(
                    "Attendance",
                    vec![Term::param("MyUId"), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        )
    }

    #[test]
    fn reproduces_example_3_1() {
        // Extraction from Listing 1 must yield exactly V1 and V2.
        let h = parse_handler(LISTING_1).unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "show_event",
            &paths,
            &ViewGenOptions::default(),
        );
        assert_eq!(
            views.len(),
            2,
            "views: {:?}",
            views.iter().map(|v| v.cq.to_string()).collect::<Vec<_>>()
        );

        let dump = || {
            views
                .iter()
                .map(|v| v.cq.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let got_v1 = views
            .iter()
            .any(|v| crate::score::view_equivalent(&v.cq, &v1()));
        let got_v2 = views
            .iter()
            .any(|v| crate::score::view_equivalent(&v.cq, &v2()));
        assert!(got_v1, "missing V1; got:\n{}", dump());
        assert!(got_v2, "missing V2; got:\n{}", dump());
    }

    #[test]
    fn check_only_query_gets_existence_view() {
        let h = parse_handler(LISTING_1).unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "show_event",
            &paths,
            &ViewGenOptions::default(),
        );
        // V1 (from the check) exposes only the request variable: the probe's
        // own projection is the constant 1, which reveals nothing.
        let v = views.iter().find(|v| v.cq.atoms.len() == 1).unwrap();
        assert_eq!(v.cq.head.len(), 1);
    }

    #[test]
    fn metadata_probe_exposes_its_projection() {
        // A check that *reads* a column (not just SELECT 1) needs that
        // column in its view: the proxy enforces at the query level.
        let h = parse_handler(
            r#"
            handler gate(event_id) {
                let meta = sql("SELECT Kind FROM Events WHERE EId = ?event_id");
                if meta.is_empty() {
                    abort(404);
                }
                emit 1;
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "gate",
            &paths,
            &ViewGenOptions::default(),
        );
        let v = &views[0].cq;
        // Head: the Kind projection plus the request variable.
        assert_eq!(v.head.len(), 2, "view: {v}");
    }

    #[test]
    fn literals_stay_concrete() {
        let h = parse_handler(
            r#"
            handler promo() {
                emit sql("SELECT Title FROM Events WHERE Kind = 'public'");
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "promo",
            &paths,
            &ViewGenOptions::default(),
        );
        assert_eq!(views.len(), 1);
        assert!(views[0].cq.atoms[0]
            .args
            .iter()
            .any(|t| *t == Term::str("public")));
    }

    #[test]
    fn discarded_query_still_gets_a_view() {
        // The result is ignored, but the query is still issued and the
        // proxy still has to decide it: coverage is required.
        let h = parse_handler(
            r#"
            handler fire_and_forget() {
                let x = sql("SELECT Title FROM Events WHERE EId = 1");
                emit 1;
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "fire_and_forget",
            &paths,
            &ViewGenOptions::default(),
        );
        assert_eq!(views.len(), 1);
    }

    #[test]
    fn field_link_joins_bodies() {
        let h = parse_handler(
            r#"
            handler first_event_title() {
                let r = sql("SELECT EId FROM Attendance WHERE UId = ?MyUId");
                let eid = r.EId;
                emit sql("SELECT Title FROM Events WHERE EId = ?eid");
            }
            "#,
        )
        .unwrap();
        let paths = explore(&h, SymLimits::default()).unwrap();
        let views = views_from_paths(
            &calendar_schema(),
            "first_event_title",
            &paths,
            &ViewGenOptions::default(),
        );
        // The emitted view must join Events with Attendance through EId.
        let joined = views
            .iter()
            .find(|v| v.cq.atoms.len() == 2)
            .expect("joined view");
        let ev = joined
            .cq
            .atoms
            .iter()
            .find(|a| a.relation == "Events")
            .unwrap();
        let at = joined
            .cq
            .atoms
            .iter()
            .find(|a| a.relation == "Attendance")
            .unwrap();
        assert_eq!(ev.args[0], at.args[1], "EId unified across the atoms");
        assert_eq!(at.args[0], Term::param("MyUId"));
    }
}
