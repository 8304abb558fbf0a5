//! View-based data-access policies.
//!
//! A policy is a set of named, parameterized SQL views — the allow-list
//! formulation of §2.2 of the paper: a query is permitted exactly when its
//! answer is determined by the views' contents (plus the session's history).
//!
//! Views are written in SQL with named parameters (`?MyUId`); the policy
//! compiles them to conjunctive queries once, at construction time.

use minidb::Database;
use qlogic::{sql_to_ucq, Cq, RelSchema, ViewSet};
use sqlir::{is_lifted_name, parse_query, Value};

use crate::error::CoreError;

/// One view definition in a policy.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Unique view name.
    pub name: String,
    /// The original SQL text.
    pub sql: String,
    /// Compiled conjunctive form (parameters preserved).
    pub cq: Cq,
}

/// A data-access policy: a set of parameterized views.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    views: Vec<ViewDef>,
}

impl Policy {
    /// Creates an empty policy (which permits only trivial queries).
    pub fn empty() -> Policy {
        Policy::default()
    }

    /// Builds a policy from `(name, sql)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// use bep_core::Policy;
    /// use qlogic::RelSchema;
    ///
    /// let mut schema = RelSchema::new();
    /// schema.add_table("Attendance", ["UId", "EId", "Notes"]);
    /// let policy = Policy::from_sql(
    ///     &schema,
    ///     &[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")],
    /// )
    /// .unwrap();
    /// assert_eq!(policy.len(), 1);
    /// ```
    pub fn from_sql(schema: &RelSchema, views: &[(&str, &str)]) -> Result<Policy, CoreError> {
        let mut out = Policy::empty();
        for (name, sql) in views {
            out.add_view(schema, name, sql)?;
        }
        Ok(out)
    }

    /// Adds one view from SQL text.
    ///
    /// Disjunctive views (`OR` / `IN`-list conditions) are supported by
    /// splitting into one internal view per disjunct, named `name#k`. This
    /// preserves allow-decisions for conjunctive queries: a rewriting may
    /// combine any of the disjunct views.
    pub fn add_view(&mut self, schema: &RelSchema, name: &str, sql: &str) -> Result<(), CoreError> {
        if self
            .views
            .iter()
            .any(|v| v.name == name || v.name.starts_with(&format!("{name}#")))
        {
            return Err(CoreError::DuplicateView(name.to_string()));
        }
        let parsed = parse_query(sql).map_err(|e| CoreError::Parse(e.to_string()))?;
        let ucq = sql_to_ucq(schema, &parsed)?;
        ucq.disjuncts.iter().try_for_each(no_lifted_param)?;
        if ucq.disjuncts.len() == 1 {
            let mut cq = ucq.disjuncts.into_iter().next().expect("one disjunct");
            cq.name = Some(name.into());
            self.views.push(ViewDef {
                name: name.to_string(),
                sql: sql.to_string(),
                cq,
            });
        } else {
            for (k, mut cq) in ucq.disjuncts.into_iter().enumerate() {
                let split_name = format!("{name}#{}", k + 1);
                cq.name = Some(split_name.as_str().into());
                self.views.push(ViewDef {
                    name: split_name,
                    sql: sql.to_string(),
                    cq,
                });
            }
        }
        Ok(())
    }

    /// Adds a pre-compiled view.
    pub fn add_cq_view(&mut self, name: &str, mut cq: Cq) -> Result<(), CoreError> {
        if self.views.iter().any(|v| v.name == name) {
            return Err(CoreError::DuplicateView(name.to_string()));
        }
        no_lifted_param(&cq)?;
        cq.name = Some(name.into());
        let sql = format!("-- compiled: {cq}");
        self.views.push(ViewDef {
            name: name.to_string(),
            sql,
            cq,
        });
        Ok(())
    }

    /// The views.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// `true` if the policy has no views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The distinct parameter names mentioned by any view (sorted).
    pub fn params(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for v in &self.views {
            for p in v.cq.params() {
                let p = p.as_str().to_string();
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out.sort();
        out
    }

    /// Produces the view set with parameters *kept symbolic* (for
    /// template-level decisions valid for every session).
    pub fn symbolic_views(&self) -> Result<ViewSet, CoreError> {
        Ok(ViewSet::new(
            self.views.iter().map(|v| v.cq.clone()).collect(),
        )?)
    }

    /// Produces the view set instantiated for one session's parameters.
    pub fn instantiate(&self, bindings: &[(String, Value)]) -> Result<ViewSet, CoreError> {
        Ok(ViewSet::new(
            self.views
                .iter()
                .map(|v| v.cq.instantiate(bindings))
                .collect(),
        )?)
    }

    /// The symbolic views at the given indices (policy order). Skips the
    /// name-uniqueness validation of [`Policy::symbolic_views`] — the
    /// policy enforced uniqueness when the views were added, and a subset
    /// of unique names stays unique. Out-of-range indices are ignored.
    pub fn symbolic_subset(&self, indices: &[usize]) -> ViewSet {
        ViewSet::from_prevalidated(
            indices
                .iter()
                .filter_map(|&i| self.views.get(i).map(|v| v.cq.clone()))
                .collect(),
        )
    }

    /// Instantiates only the views at the given indices for one session —
    /// the compiled-plan concrete path, which skips views a template's
    /// relation signature already ruled out. Out-of-range indices are
    /// ignored.
    pub fn instantiate_subset(&self, indices: &[usize], bindings: &[(String, Value)]) -> ViewSet {
        ViewSet::from_prevalidated(
            indices
                .iter()
                .filter_map(|&i| self.views.get(i).map(|v| v.cq.instantiate(bindings)))
                .collect(),
        )
    }
}

/// Rejects a view that names a parameter in the lifted namespace
/// (`?__lit0`, …): the proxy mints those for a statement's lifted literals,
/// and a view sharing one would tie that literal to the view's parameter.
fn no_lifted_param(cq: &Cq) -> Result<(), CoreError> {
    match cq.params().into_iter().find(|p| is_lifted_name(p.as_str())) {
        Some(p) => Err(CoreError::Parse(format!(
            "parameter ?{} is reserved for lifted literals",
            p.as_str()
        ))),
        None => Ok(()),
    }
}

/// Derives a [`RelSchema`] (column names per table) from a live database —
/// the usual way applications hand their schema to the policy layer.
pub fn schema_of_database(db: &Database) -> RelSchema {
    let mut schema = RelSchema::new();
    // Two passes: tables (and keys) first so foreign keys can resolve the
    // referenced table's arity and primary key.
    for name in db.table_names() {
        if let Ok(table) = db.table(&name) {
            schema.add_table(name.clone(), table.schema().column_names());
            if !table.schema().primary_key.is_empty() {
                schema.set_key(name.clone(), table.schema().primary_key.clone());
            }
        }
    }
    for name in db.table_names() {
        if let Ok(table) = db.table(&name) {
            for fk in &table.schema().foreign_keys {
                let Ok(target) = db.table(&fk.ref_table) else {
                    continue;
                };
                let parent_cols: Vec<usize> = if fk.ref_columns.is_empty() {
                    target.schema().primary_key.clone()
                } else {
                    match target.schema().resolve_columns(&fk.ref_columns) {
                        Ok(cols) => cols,
                        Err(_) => continue,
                    }
                };
                if parent_cols.len() == fk.columns.len() {
                    schema.set_foreign_key(
                        name.clone(),
                        fk.columns.clone(),
                        fk.ref_table.clone(),
                        parent_cols,
                    );
                }
            }
        }
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s
    }

    /// The calendar policy of Example 2.1.
    fn calendar_policy() -> Policy {
        Policy::from_sql(
            &schema(),
            &[
                ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
                (
                    "V2",
                    "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                     WHERE a.UId = ?MyUId",
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_paper_policy() {
        let p = calendar_policy();
        assert_eq!(p.len(), 2);
        assert_eq!(p.params(), vec!["MyUId"]);
    }

    #[test]
    fn instantiation_replaces_params() {
        let p = calendar_policy();
        let views = p.instantiate(&[("MyUId".into(), Value::Int(1))]).unwrap();
        let v1 = views.get("V1").unwrap();
        assert!(v1.params().is_empty());
        assert_eq!(v1.atoms[0].args[0], qlogic::Term::int(1));
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut p = calendar_policy();
        let err = p
            .add_view(&schema(), "V1", "SELECT EId FROM Events")
            .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateView(_)));
    }

    #[test]
    fn out_of_fragment_view_rejected() {
        let mut p = Policy::empty();
        let err = p
            .add_view(&schema(), "Vx", "SELECT COUNT(*) FROM Events")
            .unwrap_err();
        assert!(matches!(err, CoreError::OutOfFragment(_)));
    }

    #[test]
    fn lifted_parameter_names_rejected() {
        let sql = "SELECT * FROM Events WHERE EId = ?__lit0";
        let mut p = Policy::empty();
        let err = p.add_view(&schema(), "V", sql).unwrap_err();
        assert!(matches!(err, CoreError::Parse(_)), "{err}");
        let cq = sql_to_ucq(&schema(), &parse_query(sql).unwrap()).unwrap();
        let err = (p.add_cq_view("V", cq.disjuncts[0].clone())).unwrap_err();
        assert!(matches!(err, CoreError::Parse(_)), "{err}");
        assert!(p.is_empty());
    }

    #[test]
    fn schema_from_database() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE T (a INT, b TEXT)").unwrap();
        let s = schema_of_database(&db);
        assert_eq!(s.columns("T").unwrap(), ["a", "b"]);
    }

    #[test]
    fn disjunctive_views_split_per_disjunct() {
        let mut p = Policy::empty();
        p.add_view(
            &schema(),
            "Vis",
            "SELECT EId, Title FROM Events WHERE Kind = 'public' OR Kind = 'promo'",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.views().iter().any(|v| v.name == "Vis#1"));

        // A query matching one disjunct is allowed.
        let checker = crate::ComplianceChecker::new(schema(), p);
        let q = parse_query("SELECT EId, Title FROM Events WHERE Kind = 'public'").unwrap();
        assert!(checker.check_template(&q).is_allowed());
        // And one outside both is not.
        let q = parse_query("SELECT EId, Title FROM Events WHERE Kind = 'secret'").unwrap();
        assert!(!checker.check_template(&q).is_allowed());
    }
}
