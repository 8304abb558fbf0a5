//! Startup-time policy lints.
//!
//! The first lint encodes a deployment pitfall found while building the
//! generated-application fleet: **every column a handler selects must
//! appear in some policy view's head**. A view that *constrains* a column
//! without *projecting* it (e.g. `SELECT OId FROM Orders WHERE MId =
//! ?MyMId` when handlers also select `MId`) can never cover a disjunct
//! that asks for the missing column, so every such handler query is
//! denied for every session — uniformly, which is exactly why
//! differential gates against a no-policy oracle do not catch it: there
//! is no session whose behaviour differs. A startup warning is the right
//! tool; the decision procedure itself is (correctly) conservative.
//!
//! The lint is advisory and sound in one direction only: a warned column
//! guarantees the template can never be template-allowed and can only be
//! allowed concretely via trace facts covering the projected column,
//! which traces built from *denied* queries never produce. Absence of
//! warnings does not promise the template is allowed (joins, comparisons,
//! and parameter equalities still decide that).
//!
//! The same pitfall exists on the write path with the roles reversed:
//! **every column a mutation binds to a concrete value must be projected
//! (or rigidly pinned) by some policy view over that table**. Write
//! coverage unifies the written row against a view's body atom, and a
//! rigid written value at a position the view neither exports in its head
//! nor pins to a value can never unify — the mutation is denied for every
//! session, again uniformly, so differential gates are blind to it.

use qlogic::{Cq, Sym, Term};
use sqlir::{parse_statement, Statement};

use crate::checker::ComplianceChecker;

/// A `(relation, column-index)` pair some policy view projects.
type Exported = std::collections::HashSet<(Sym, usize)>;

/// The set of `(relation, column)` positions exposed by the policy: for
/// each view, each head variable's occurrences in the view's body atoms.
fn exported_columns(checker: &ComplianceChecker) -> Exported {
    let mut out = Exported::new();
    for view in checker.policy().views() {
        for head in &view.cq.head {
            let Term::Var(v) = head else { continue };
            collect_occurrences(&view.cq, *v, &mut out);
        }
    }
    out
}

/// Inserts every `(relation, position)` where variable `v` occurs in the
/// body of `cq`.
fn collect_occurrences(cq: &Cq, v: Sym, out: &mut Exported) {
    for atom in &cq.atoms {
        for (pos, arg) in atom.args.iter().enumerate() {
            if *arg == Term::Var(v) {
                out.insert((atom.relation, pos));
            }
        }
    }
}

/// The human-readable name of one `(relation, position)` column, falling
/// back to the index when the schema does not know the relation.
fn column_name(checker: &ComplianceChecker, rel: Sym, pos: usize) -> String {
    match checker.schema().columns(rel.as_str()) {
        Ok(cols) if pos < cols.len() => format!("{}.{}", rel, cols[pos]),
        _ => format!("{}[{}]", rel, pos),
    }
}

/// The set of `(relation, column)` positions a mutation may bind rigidly
/// and still have a chance of coverage: positions some view exports in
/// its head, plus positions some view pins to a rigid term (a constant
/// or session parameter the written value could equal).
fn writable_positions(checker: &ComplianceChecker) -> Exported {
    let mut out = exported_columns(checker);
    for view in checker.policy().views() {
        for atom in &view.cq.atoms {
            for (pos, arg) in atom.args.iter().enumerate() {
                if arg.is_rigid() {
                    out.insert((atom.relation, pos));
                }
            }
        }
    }
    out
}

/// Lints a mutation template: every rigidly bound column of each written
/// row must be exported or pinned by some policy view, else the write can
/// never be covered. Extraction failures (unknown table, arity mismatch)
/// produce no warnings — the decision path reports those as denials.
fn lint_mutation(checker: &ComplianceChecker, stmt: &Statement) -> Vec<String> {
    let Ok((atoms, _, _)) = crate::write::extract_written_atoms(stmt, checker.schema()) else {
        return Vec::new();
    };
    let writable = writable_positions(checker);
    let mut warnings = Vec::new();
    for atom in &atoms {
        for (pos, arg) in atom.args.iter().enumerate() {
            if !arg.is_rigid() || writable.contains(&(atom.relation, pos)) {
                continue;
            }
            let w = format!(
                "mutation binds {col} but no policy view projects or pins it; \
                 every such write is denied (add {col} to an updatable view's SELECT list)",
                col = column_name(checker, atom.relation, pos)
            );
            if !warnings.contains(&w) {
                warnings.push(w);
            }
        }
    }
    warnings
}

/// Lints one SQL template against the policy's projected columns.
///
/// For `SELECT`s, returns one warning per selected column that no policy
/// view's head exposes. For mutations, returns one warning per rigidly
/// bound column no view exports or pins. Parse failures and
/// out-of-fragment queries produce no warnings (other machinery reports
/// those).
pub fn lint_template(checker: &ComplianceChecker, sql: &str) -> Vec<String> {
    let q = match parse_statement(sql) {
        Ok(Statement::Select(q)) => q,
        Ok(stmt)
            if crate::classify::StatementClass::of(&stmt)
                == crate::classify::StatementClass::Write =>
        {
            return lint_mutation(checker, &stmt);
        }
        _ => return Vec::new(),
    };
    let Ok(ucq) = checker.translate(&q) else {
        return Vec::new();
    };
    let exported = exported_columns(checker);
    let mut warnings = Vec::new();
    for d in &ucq.disjuncts {
        for head in &d.head {
            let Term::Var(v) = head else { continue };
            let mut occurrences = Exported::new();
            collect_occurrences(d, *v, &mut occurrences);
            if occurrences.is_empty() {
                continue;
            }
            if occurrences.iter().any(|o| exported.contains(o)) {
                continue;
            }
            // Report the first occurrence deterministically (atom order).
            let (rel, pos) = d
                .atoms
                .iter()
                .find_map(|a| {
                    a.args
                        .iter()
                        .position(|t| *t == Term::Var(*v))
                        .map(|p| (a.relation, p))
                })
                .expect("occurrences is non-empty");
            let w = format!(
                "template selects {col} but no policy view projects it in its head; \
                 every session will be denied this query (add {col} to a view's SELECT list)",
                col = column_name(checker, rel, pos)
            );
            if !warnings.contains(&w) {
                warnings.push(w);
            }
        }
    }
    warnings
}

/// Lints a set of SQL templates, returning all warnings in template
/// order (deduplicated within each template).
pub fn lint_templates<'a>(
    checker: &ComplianceChecker,
    templates: impl IntoIterator<Item = &'a str>,
) -> Vec<String> {
    templates
        .into_iter()
        .flat_map(|sql| lint_template(checker, sql))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use qlogic::RelSchema;

    fn schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Orders", ["OId", "MId", "Total"]);
        s.add_table("Events", ["EId", "Title"]);
        s
    }

    fn checker(views: &[(&str, &str)]) -> ComplianceChecker {
        let schema = schema();
        let policy = Policy::from_sql(&schema, views).expect("valid views");
        ComplianceChecker::new(schema, policy)
    }

    #[test]
    fn selecting_an_unprojected_column_warns() {
        // The incident in miniature: the view projects only OId, while
        // the handler also selects Total. (A column equality-bound to a
        // session parameter — MId here — is *not* the pitfall: the
        // translation substitutes the parameter into the head, so only
        // genuinely free selected columns need view-head coverage.)
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        let warnings = lint_template(&c, "SELECT OId, Total FROM Orders WHERE MId = ?MyMId");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("Orders.Total"), "{}", warnings[0]);
        // The param-bound column alone is clean.
        assert!(lint_template(&c, "SELECT OId, MId FROM Orders WHERE MId = ?MyMId").is_empty());
    }

    #[test]
    fn fully_projected_templates_are_clean() {
        let c = checker(&[("MyOrders", "SELECT OId, MId FROM Orders WHERE MId = ?MyMId")]);
        assert!(lint_template(&c, "SELECT OId, MId FROM Orders WHERE MId = ?MyMId").is_empty());
        assert!(lint_template(&c, "SELECT OId FROM Orders WHERE MId = ?MyMId").is_empty());
    }

    #[test]
    fn any_view_projecting_the_column_suffices() {
        // A second view exports MId even though the first does not.
        let c = checker(&[
            ("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId"),
            ("OrderOwners", "SELECT MId FROM Orders WHERE MId = ?MyMId"),
        ]);
        assert!(lint_template(&c, "SELECT OId, MId FROM Orders WHERE MId = ?MyMId").is_empty());
    }

    #[test]
    fn parse_errors_and_unknown_tables_are_silent() {
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        assert!(lint_template(&c, "SELEC nonsense").is_empty());
        assert!(lint_template(&c, "INSERT INTO Nope (X) VALUES (1)").is_empty());
        assert!(lint_template(&c, "CREATE TABLE Scratch (X INT PRIMARY KEY)").is_empty());
    }

    #[test]
    fn mutation_binding_an_unwritable_column_warns() {
        // The view projects OId and pins MId, but Total is neither: any
        // insert that gives Total a value (even the implicit NULL of an
        // unlisted column) can never be covered.
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        let warnings = lint_template(
            &c,
            "INSERT INTO Orders (OId, MId, Total) VALUES (?o, ?MyMId, 100)",
        );
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("Orders.Total"), "{}", warnings[0]);
        let implicit = lint_template(&c, "INSERT INTO Orders (OId, MId) VALUES (?o, ?MyMId)");
        assert_eq!(implicit, warnings, "unlisted column binds NULL");
        // A delete touches every column, but binds only the pinned one.
        assert!(lint_template(&c, "DELETE FROM Orders WHERE MId = ?MyMId").is_empty());
    }

    #[test]
    fn fully_projected_mutations_are_clean() {
        let c = checker(&[(
            "MyOrders",
            "SELECT OId, MId, Total FROM Orders WHERE MId = ?MyMId",
        )]);
        assert!(lint_template(
            &c,
            "INSERT INTO Orders (OId, MId, Total) VALUES (?o, ?MyMId, 100)"
        )
        .is_empty());
        assert!(lint_template(&c, "UPDATE Orders SET Total = ?t WHERE MId = ?MyMId").is_empty());
    }

    #[test]
    fn update_of_unprojected_column_warns() {
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        let warnings = lint_template(&c, "UPDATE Orders SET Total = 0 WHERE MId = ?MyMId");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("Orders.Total"), "{}", warnings[0]);
    }

    #[test]
    fn warnings_name_columns_per_relation() {
        // Events is not mentioned by any view at all: every selected
        // column of it warns.
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        let warnings = lint_template(&c, "SELECT Title FROM Events WHERE EId = ?e");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("Events.Title"), "{}", warnings[0]);
    }

    #[test]
    fn lint_templates_flattens_in_order() {
        let c = checker(&[("MyOrders", "SELECT OId FROM Orders WHERE MId = ?MyMId")]);
        let all = lint_templates(
            &c,
            [
                "SELECT OId FROM Orders WHERE MId = ?MyMId",
                "SELECT Total FROM Orders WHERE MId = ?MyMId",
            ],
        );
        assert_eq!(all.len(), 1);
        assert!(all[0].contains("Orders.Total"));
    }
}
