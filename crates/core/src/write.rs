//! Write-path enforcement: deciding whether a mutation's written rows are
//! contained in an updatable policy view.
//!
//! The read path asks "is this query's *answer* determined by the views?";
//! the write path asks the dual question: "are the rows this statement
//! writes (or deletes) *contained* in a view the session may write
//! through?" Containment is decided by CQ reasoning — a row the statement
//! writes over the hypothetical post-state (the trace's known facts plus
//! the written rows themselves), a row it removes over the pre-state (the
//! facts plus the removed rows) — reusing the same homomorphism engine the
//! read path runs on. An `UPDATE` does both: its pre-image leaves the
//! table as a `DELETE` with the same `WHERE` would remove it, and its
//! post-image enters it, so each must be covered.
//!
//! Like reads, writes are decided at two levels:
//!
//! * **template** — parameters stay symbolic. A template-level `Allowed`
//!   holds for every session and every history (the proof only equates
//!   terms that are identical under any instantiation), so it is cached in
//!   the compiled plan and write traffic pays no per-request solver cost.
//!   A template-level `NeverCovered` is equally session-independent: the
//!   failing positions are constants or hidden columns no binding or trace
//!   fact can repair.
//! * **concrete** — parameters are instantiated with session bindings and
//!   the trace's facts join the containment target. Runs only when the
//!   template was `Undecidable`.
//!
//! The model is conservative where it must be: columns a statement does not
//! determine (unassigned `UPDATE` columns, non-literal expressions) become
//! fresh variables that unify only with view columns the policy leaves
//! free. "Cannot prove" means "block", exactly as on the read path.

use crate::policy::ViewDef;
use qlogic::cq::apply_atom;
use qlogic::sym::Sym;
use qlogic::{
    find_homomorphism, Atom, CmpContext, Comparison, Cq, HomProblem, RelSchema, Subst, Term,
};
use sqlir::{BinaryOp, Expr, Param, Statement, Value};

/// Prefix for variables standing in for values a mutation does not
/// determine. `!` cannot begin a SQL identifier or a `sk` trace null, so
/// fresh variables can never collide with either namespace.
const FRESH_PREFIX: &str = "!w";

/// The session-independent verdict for a write template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTemplateVerdict {
    /// Every instantiation's written rows are covered: allow without any
    /// per-request proof.
    Allowed,
    /// Coverage depends on session bindings or trace facts: decide
    /// concretely per request.
    Undecidable,
    /// No binding or history can cover the written rows (a constant
    /// mismatch or a hidden column): deny without a per-request proof.
    NeverCovered,
}

/// A compiled write template: the extracted written atoms and everything
/// the concrete tier needs to finish the decision.
#[derive(Debug, Clone)]
pub struct WriteTemplate {
    /// One atom per row pattern the statement writes, then one per pattern
    /// it removes, parameters symbolic, arguments in schema column order.
    pub atoms: Vec<Atom>,
    /// Where the removed patterns start in `atoms`: an `INSERT` removes
    /// none, a `DELETE` writes none, and an `UPDATE` writes its post-image
    /// and removes its pre-image. Each atom is covered against the facts
    /// plus the atoms on its own side of this index.
    pub removed_from: usize,
    /// Fresh variables minted during extraction (pinned to themselves in
    /// containment proofs — they stand for one unknown value each).
    pub fresh: Vec<Sym>,
    /// Per written atom: indices of policy views with at least one body
    /// atom over the same relation (the only possible covers).
    pub candidates: Vec<Vec<usize>>,
    /// The template-level verdict.
    pub verdict: WriteTemplateVerdict,
    /// When `NeverCovered`: the index of the first uncoverable atom.
    pub uncovered: Option<usize>,
}

impl WriteTemplate {
    /// The uncovered written row as a CQ (for deny reasons / diagnosis).
    pub fn uncovered_query(&self) -> Option<Cq> {
        self.uncovered.map(|i| atom_query(&self.atoms[i]))
    }

    /// Approximate heap footprint, for plan-cache budgeting.
    pub fn heap_bytes(&self) -> usize {
        let atoms: usize = self
            .atoms
            .iter()
            .map(|a| std::mem::size_of::<Atom>() + a.args.len() * std::mem::size_of::<Term>())
            .sum();
        let cands: usize = self
            .candidates
            .iter()
            .map(|c| std::mem::size_of::<Vec<usize>>() + c.len() * std::mem::size_of::<usize>())
            .sum();
        atoms + cands + self.fresh.len() * std::mem::size_of::<Sym>()
    }
}

/// Wraps a written atom as a boolean-style CQ: head = the row's terms,
/// body = the atom itself.
pub fn atom_query(atom: &Atom) -> Cq {
    Cq::new(atom.args.clone(), vec![atom.clone()], Vec::new())
}

/// Extraction or classification failure; denied as out-of-fragment.
pub type WriteError = String;

// ---------------------------------------------------------------------------
// Extraction: Statement -> written atoms
// ---------------------------------------------------------------------------

struct FreshVars {
    counter: usize,
    minted: Vec<Sym>,
}

impl FreshVars {
    fn new() -> FreshVars {
        FreshVars {
            counter: 0,
            minted: Vec::new(),
        }
    }

    fn next(&mut self) -> Term {
        let sym = Sym::new(&format!("{FRESH_PREFIX}{}", self.counter));
        self.counter += 1;
        self.minted.push(sym);
        Term::Var(sym)
    }
}

/// The term a mutation expression determines, or a fresh variable when the
/// value is not statically known (arithmetic, subqueries, positional
/// parameters).
fn term_of_expr(expr: &Expr, fresh: &mut FreshVars) -> Term {
    match expr {
        Expr::Literal(v) => Term::constant(v),
        Expr::Param(Param::Named(name)) => Term::param(name.as_str()),
        _ => fresh.next(),
    }
}

/// Equality pins from a WHERE clause: `col = rigid` (either orientation)
/// among the top-level conjuncts. Non-equality predicates only narrow the
/// affected rows, so ignoring them over-approximates — sound.
fn where_pins(where_clause: &Option<Expr>, fresh: &mut FreshVars) -> Vec<(String, Term)> {
    let mut pins = Vec::new();
    let Some(clause) = where_clause else {
        return pins;
    };
    for conjunct in clause.conjuncts() {
        let Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = conjunct
        else {
            continue;
        };
        let (col, value) = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), v) if !matches!(v, Expr::Column(_)) => (&c.column, v),
            (v, Expr::Column(c)) if !matches!(v, Expr::Column(_)) => (&c.column, v),
            _ => continue,
        };
        let term = term_of_expr(value, fresh);
        // A fresh term pins nothing; leave the column fresh instead.
        if term.is_rigid() {
            pins.push((col.clone(), term));
        }
    }
    pins
}

/// The row a `DELETE` (or an `UPDATE`'s pre-image) removes: each column
/// the `WHERE` clause pins, else a fresh variable.
fn removed_row(columns: &[String], pins: &[(String, Term)], fresh: &mut FreshVars) -> Vec<Term> {
    (columns.iter())
        .map(|col| match pins.iter().find(|(c, _)| c == col) {
            Some((_, t)) => *t,
            None => fresh.next(),
        })
        .collect()
}

/// Extracts the row atoms of a mutation: `(atoms, removed_from, fresh)`,
/// the rows it writes, then from `removed_from` on the rows it removes
/// (see [`WriteTemplate::removed_from`]), and the fresh variables minted.
/// Arguments follow schema column order. Errors (unknown table/column,
/// arity mismatch) deny the statement as out-of-fragment.
pub fn extract_written_atoms(
    stmt: &Statement,
    schema: &RelSchema,
) -> Result<(Vec<Atom>, usize, Vec<Sym>), WriteError> {
    let mut fresh = FreshVars::new();
    let (atoms, removed_from) = match stmt {
        Statement::Insert(ins) => {
            let columns = schema
                .columns(&ins.table)
                .map_err(|e| format!("INSERT target: {e}"))?;
            let explicit: Vec<&str> = if ins.columns.is_empty() {
                columns.iter().map(|c| c.as_str()).collect()
            } else {
                for c in &ins.columns {
                    if !columns.iter().any(|s| s == c) {
                        return Err(format!("INSERT column {c} not in table {}", ins.table));
                    }
                }
                ins.columns.iter().map(|c| c.as_str()).collect()
            };
            let mut atoms = Vec::with_capacity(ins.rows.len());
            for row in &ins.rows {
                if row.len() != explicit.len() {
                    return Err(format!(
                        "INSERT row has {} values for {} columns",
                        row.len(),
                        explicit.len()
                    ));
                }
                let args = columns
                    .iter()
                    .map(|col| match explicit.iter().position(|c| c == col) {
                        Some(i) => term_of_expr(&row[i], &mut fresh),
                        // Unlisted columns are stored as NULL.
                        None => Term::constant(&Value::Null),
                    })
                    .collect();
                atoms.push(Atom::new(ins.table.as_str(), args));
            }
            let n = atoms.len();
            (atoms, n)
        }
        Statement::Update(upd) => {
            let columns = schema
                .columns(&upd.table)
                .map_err(|e| format!("UPDATE target: {e}"))?;
            for a in &upd.assignments {
                if !columns.contains(&a.column) {
                    return Err(format!(
                        "UPDATE column {} not in table {}",
                        a.column, upd.table
                    ));
                }
            }
            let pins = where_pins(&upd.where_clause, &mut fresh);
            let args = columns
                .iter()
                .map(|col| {
                    // Post-state value: the assignment if the column is
                    // assigned, else the (unchanged) WHERE-pinned value,
                    // else unknown.
                    if let Some(a) = upd.assignments.iter().find(|a| a.column == *col) {
                        term_of_expr(&a.value, &mut fresh)
                    } else if let Some((_, t)) = pins.iter().find(|(c, _)| c == col) {
                        *t
                    } else {
                        fresh.next()
                    }
                })
                .collect();
            let pre = removed_row(columns, &pins, &mut fresh);
            let table = upd.table.as_str();
            (vec![Atom::new(table, args), Atom::new(table, pre)], 1)
        }
        Statement::Delete(del) => {
            let columns = schema
                .columns(&del.table)
                .map_err(|e| format!("DELETE target: {e}"))?;
            let pins = where_pins(&del.where_clause, &mut fresh);
            let args = removed_row(columns, &pins, &mut fresh);
            (vec![Atom::new(del.table.as_str(), args)], 0)
        }
        Statement::Select(_) | Statement::CreateTable(_) => {
            return Err("not a row mutation".to_string());
        }
    };
    Ok((atoms, removed_from, fresh.minted))
}

// ---------------------------------------------------------------------------
// Coverage: written atom vs. policy view
// ---------------------------------------------------------------------------

/// Outcome of trying to cover one written atom with one view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cover {
    /// No binding or fact can make this view cover the atom.
    Dead,
    /// Might cover under some instantiation or with trace facts
    /// (template level only).
    Maybe,
    /// Proven covered.
    Covered,
}

/// Whether a term mismatch could still resolve at instantiation time:
/// only if both sides are rigid and a parameter is involved (two
/// parameters, or a parameter and a constant, may coincide once bound). A
/// fresh variable stands for an unprovable unknown — always hard.
fn mismatch_is_soft(a: &Term, b: &Term) -> bool {
    a.is_rigid() && b.is_rigid() && (matches!(a, Term::Param(_)) || matches!(b, Term::Param(_)))
}

/// Tries to cover `written` with view `view` (its CQ and exported head
/// variables), given the containment target `target` (known facts plus the
/// atoms on `written`'s side of [`WriteTemplate::removed_from`]) and the
/// identity pins for fresh variables.
///
/// `symbolic` selects the template level: mismatches involving parameters
/// and failed fact-implications degrade to [`Cover::Maybe`] instead of
/// failing outright.
fn cover_with_view(
    written: &Atom,
    view: &Cq,
    head_vars: &[Sym],
    target: &[Atom],
    target_ctx: &CmpContext,
    pins: &Subst,
    symbolic: bool,
) -> Cover {
    let mut best = Cover::Dead;
    'body: for (idx, body) in view.atoms.iter().enumerate() {
        if body.relation != written.relation || body.args.len() != written.args.len() {
            continue;
        }
        // Positional unification of the view's body atom with the written
        // row, building a substitution over the view's variables.
        let mut theta = Subst::new();
        let mut soft = false;
        for (v, w) in body.args.iter().zip(written.args.iter()) {
            let resolved = match v {
                Term::Var(x) => theta.get(x).copied(),
                _ => Some(*v),
            };
            match resolved {
                None => {
                    let Term::Var(x) = v else { unreachable!() };
                    // Head export: a column the writer determines must be
                    // visible through the view; hidden columns accept only
                    // undetermined (fresh) values.
                    if w.is_rigid() && !head_vars.contains(x) {
                        continue 'body;
                    }
                    theta.insert(*x, *w);
                }
                Some(prev) if prev == *w => {}
                Some(prev) => {
                    if symbolic && mismatch_is_soft(&prev, w) {
                        soft = true;
                    } else {
                        continue 'body;
                    }
                }
            }
        }
        if soft {
            best = best.max(Cover::Maybe);
            continue;
        }
        // The rest of the view's body must hold in the target under theta.
        let remaining: Vec<Atom> = view
            .atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, a)| apply_atom(a, &theta))
            .collect();
        let comparisons: Vec<Comparison> = view
            .comparisons
            .iter()
            .map(|c| qlogic::cq::apply_comparison(c, &theta))
            .collect();
        if symbolic
            && comparisons
                .iter()
                .any(|c| matches!(c.lhs, Term::Param(_)) || matches!(c.rhs, Term::Param(_)))
        {
            // A parameterized comparison can only be evaluated once bound.
            best = best.max(Cover::Maybe);
            continue;
        }
        if remaining.is_empty() && comparisons.is_empty() {
            return Cover::Covered;
        }
        let problem = HomProblem {
            source_atoms: &remaining,
            source_comparisons: &comparisons,
            target_atoms: target,
            target_ctx,
            initial: pins.clone(),
        };
        if find_homomorphism(&problem).is_some() {
            return Cover::Covered;
        }
        if symbolic {
            // Trace facts (absent at the template level) might discharge
            // the remainder concretely.
            best = best.max(Cover::Maybe);
        }
    }
    best
}

/// Identity pins for fresh variables: each stands for one unknown value,
/// shared between the containment source and the written atoms in the
/// target.
fn fresh_pins(fresh: &[Sym]) -> Subst {
    let mut pins = Subst::with_capacity(fresh.len());
    for f in fresh {
        pins.insert(*f, Term::Var(*f));
    }
    pins
}

// ---------------------------------------------------------------------------
// Template compilation
// ---------------------------------------------------------------------------

/// Compiles a mutation into a [`WriteTemplate`]: extracts the written
/// atoms, prunes candidate views by relation, and attempts the
/// session-independent proof.
pub fn compile_write_template(
    stmt: &Statement,
    views: &[ViewDef],
    schema: &RelSchema,
) -> Result<WriteTemplate, WriteError> {
    let (atoms, removed_from, fresh) = extract_written_atoms(stmt, schema)?;
    let candidates: Vec<Vec<usize>> = atoms
        .iter()
        .map(|w| {
            views
                .iter()
                .enumerate()
                .filter(|(_, v)| {
                    v.cq.atoms
                        .iter()
                        .any(|a| a.relation == w.relation && a.args.len() == w.args.len())
                })
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let pins = fresh_pins(&fresh);
    let ctx = CmpContext::new(&[]);
    let mut verdict = WriteTemplateVerdict::Allowed;
    let mut uncovered = None;
    for (i, written) in atoms.iter().enumerate() {
        let side = if i < removed_from {
            &atoms[..removed_from]
        } else {
            &atoms[removed_from..]
        };
        let mut best = Cover::Dead;
        for &vi in &candidates[i] {
            let view = &views[vi];
            let head = view.cq.head_vars();
            best = best.max(cover_with_view(
                written, &view.cq, &head, side, &ctx, &pins, true,
            ));
            if best == Cover::Covered {
                break;
            }
        }
        match best {
            Cover::Covered => {}
            Cover::Maybe => {
                if verdict == WriteTemplateVerdict::Allowed {
                    verdict = WriteTemplateVerdict::Undecidable;
                }
            }
            Cover::Dead => {
                verdict = WriteTemplateVerdict::NeverCovered;
                uncovered = Some(i);
                break;
            }
        }
    }
    Ok(WriteTemplate {
        atoms,
        removed_from,
        fresh,
        candidates,
        verdict,
        uncovered,
    })
}

// ---------------------------------------------------------------------------
// Concrete decision
// ---------------------------------------------------------------------------

/// Instantiates the named parameters of an atom with session bindings. A
/// parameter is matched by its spelling, as in [`Cq::instantiate`], so no
/// binding name is interned.
fn instantiate_atom(atom: &Atom, bindings: &[(String, Value)]) -> Atom {
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Param(p) => {
                let name = p.as_str();
                bindings
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| Term::constant(v))
                    .unwrap_or(*t)
            }
            _ => *t,
        })
        .collect();
    Atom {
        relation: atom.relation,
        args,
    }
}

/// The concrete write decision: every atom must be covered by some
/// candidate view, with parameters instantiated and the trace's known
/// facts joining its side's containment target. Returns the first
/// uncovered row (instantiated) on failure.
pub fn check_write_concrete(
    template: &WriteTemplate,
    views: &[ViewDef],
    bindings: &[(String, Value)],
    facts: &[Atom],
) -> Result<(), Cq> {
    let atoms: Vec<Atom> = template
        .atoms
        .iter()
        .map(|a| instantiate_atom(a, bindings))
        .collect();
    let pins = fresh_pins(&template.fresh);
    let ctx = CmpContext::new(&[]);
    let (written, removed) = atoms.split_at(template.removed_from);
    for (start, side) in [(0, written), (written.len(), removed)] {
        if side.is_empty() {
            continue;
        }
        let mut target: Vec<Atom> = Vec::with_capacity(facts.len() + side.len());
        target.extend_from_slice(facts);
        target.extend_from_slice(side);
        for (i, atom) in (start..).zip(side) {
            let covered = template.candidates[i].iter().any(|&vi| {
                let view = views[vi].cq.instantiate(bindings);
                let head = view.head_vars();
                cover_with_view(atom, &view, &head, &target, &ctx, &pins, false) == Cover::Covered
            });
            if !covered {
                return Err(atom_query(atom));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use sqlir::parse_statement;

    fn schema() -> RelSchema {
        let mut s = RelSchema::new();
        s.add_table("Events", ["EId", "Title", "Kind"]);
        s.add_table("Attendance", ["UId", "EId", "Notes"]);
        s
    }

    fn policy(s: &RelSchema) -> Policy {
        let mut p = Policy::empty();
        p.add_view(
            s,
            "VMine",
            "SELECT UId, EId, Notes FROM Attendance WHERE UId = ?MyUId",
        )
        .unwrap();
        p.add_view(
            s,
            "VEvents",
            "SELECT EId, Title FROM Events WHERE Kind = 'public'",
        )
        .unwrap();
        p
    }

    fn template(sql: &str) -> WriteTemplate {
        let s = schema();
        let p = policy(&s);
        let stmt = parse_statement(sql).unwrap();
        compile_write_template(&stmt, p.views(), &s).unwrap()
    }

    #[test]
    fn parameter_bound_insert_is_template_allowed() {
        let t = template("INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, ?eid, ?notes)");
        assert_eq!(t.verdict, WriteTemplateVerdict::Allowed);
    }

    #[test]
    fn other_users_row_is_denied_concretely() {
        let s = schema();
        let p = policy(&s);
        let stmt =
            parse_statement("INSERT INTO Attendance (UId, EId, Notes) VALUES (7, 1, 'x')").unwrap();
        let t = compile_write_template(&stmt, p.views(), &s).unwrap();
        // Template level: the constant 7 might equal ?MyUId for some session.
        assert_eq!(t.verdict, WriteTemplateVerdict::Undecidable);
        let me = vec![("MyUId".to_string(), Value::Int(7))];
        assert!(check_write_concrete(&t, p.views(), &me, &[]).is_ok());
        let other = vec![("MyUId".to_string(), Value::Int(8))];
        let denied = check_write_concrete(&t, p.views(), &other, &[]).unwrap_err();
        assert_eq!(denied.atoms.len(), 1);
    }

    #[test]
    fn hidden_column_write_is_never_covered() {
        // VEvents hides Kind (it is not in the head): determining Kind
        // through the view is impossible for any session.
        let t = template("INSERT INTO Events (EId, Title, Kind) VALUES (1, 'x', 'private')");
        assert_eq!(t.verdict, WriteTemplateVerdict::NeverCovered);
        assert!(t.uncovered_query().is_some());
    }

    #[test]
    fn view_constant_column_must_match() {
        // Kind = 'public' is folded into the view atom as a constant; a
        // matching INSERT is covered at the template level.
        let t = template("INSERT INTO Events (EId, Title, Kind) VALUES (1, 'x', 'public')");
        assert_eq!(t.verdict, WriteTemplateVerdict::Allowed);
    }

    #[test]
    fn update_pinned_to_session_is_allowed() {
        let t = template("UPDATE Attendance SET Notes = ?n WHERE UId = ?MyUId");
        assert_eq!(t.verdict, WriteTemplateVerdict::Allowed);
    }

    #[test]
    fn update_without_pin_is_never_covered() {
        // UId is unknown post-state; VMine needs it equal to ?MyUId, and a
        // fresh variable can never be proven equal to a parameter.
        let t = template("UPDATE Attendance SET Notes = 'x' WHERE EId = 3");
        assert_eq!(t.verdict, WriteTemplateVerdict::NeverCovered);
    }

    #[test]
    fn an_update_must_cover_the_row_it_takes() {
        // User 1 takes user 2's attendance: the post-image is user 1's row,
        // but the pre-image is user 2's, which a DELETE with the same WHERE
        // could not remove.
        let s = schema();
        let p = policy(&s);
        let sql = "UPDATE Attendance SET UId = ?MyUId WHERE UId = 2 AND EId = 3";
        let t = compile_write_template(&parse_statement(sql).unwrap(), p.views(), &s).unwrap();
        assert_eq!((t.atoms.len(), t.removed_from), (2, 1));
        assert_eq!(t.verdict, WriteTemplateVerdict::Undecidable);
        let me = vec![("MyUId".to_string(), Value::Int(1))];
        let denied = check_write_concrete(&t, p.views(), &me, &[]).unwrap_err();
        assert_eq!(denied.atoms[0].args[..2], [Term::int(2), Term::int(3)]);
        let delete = parse_statement("DELETE FROM Attendance WHERE UId = 2 AND EId = 3").unwrap();
        let d = compile_write_template(&delete, p.views(), &s).unwrap();
        assert!(check_write_concrete(&d, p.views(), &me, &[]).is_err());
        // User 2 moving their own row to themselves is covered both ways.
        let owner = vec![("MyUId".to_string(), Value::Int(2))];
        assert!(check_write_concrete(&t, p.views(), &owner, &[]).is_ok());
        assert!(check_write_concrete(&d, p.views(), &owner, &[]).is_ok());
    }

    #[test]
    fn a_pre_image_is_covered_without_the_post_image() {
        // The attendance of anyone at an event I attend. Taking user 2's
        // row would put user 1 at event 3, which would make user 2's row
        // visible; but the row leaves the state in which user 1 is not
        // there, so only a fact that user 1 attends may cover it.
        let s = schema();
        let mut p = Policy::empty();
        p.add_view(
            &s,
            "VCoAttendees",
            "SELECT a.UId, a.EId, a.Notes FROM Attendance a JOIN Attendance b \
             ON a.EId = b.EId WHERE b.UId = ?MyUId",
        )
        .unwrap();
        let sql = "UPDATE Attendance SET UId = ?MyUId WHERE UId = 2 AND EId = 3";
        let t = compile_write_template(&parse_statement(sql).unwrap(), p.views(), &s).unwrap();
        let me = vec![("MyUId".to_string(), Value::Int(1))];
        let denied = check_write_concrete(&t, p.views(), &me, &[]).unwrap_err();
        assert_eq!(denied.atoms[0].args[0], Term::int(2), "the pre-image");
        let attends = Atom::new(
            "Attendance",
            vec![Term::int(1), Term::int(3), Term::var("sk1")],
        );
        assert!(check_write_concrete(&t, p.views(), &me, &[attends]).is_ok());
    }

    #[test]
    fn delete_pinned_to_session_is_allowed() {
        let t = template("DELETE FROM Attendance WHERE UId = ?MyUId");
        assert_eq!(t.verdict, WriteTemplateVerdict::Allowed);
    }

    #[test]
    fn delete_other_user_denied_concretely() {
        let s = schema();
        let p = policy(&s);
        let stmt = parse_statement("DELETE FROM Attendance WHERE UId = 9").unwrap();
        let t = compile_write_template(&stmt, p.views(), &s).unwrap();
        assert_eq!(t.verdict, WriteTemplateVerdict::Undecidable);
        let other = vec![("MyUId".to_string(), Value::Int(3))];
        assert!(check_write_concrete(&t, p.views(), &other, &[]).is_err());
        let me = vec![("MyUId".to_string(), Value::Int(9))];
        assert!(check_write_concrete(&t, p.views(), &me, &[]).is_ok());
    }

    #[test]
    fn unknown_table_is_an_extraction_error() {
        let s = schema();
        let stmt = parse_statement("INSERT INTO Nope (A) VALUES (1)").unwrap();
        assert!(compile_write_template(&stmt, &[], &s).is_err());
    }

    #[test]
    fn instantiate_atom_agrees_with_the_interning_version() {
        let interning = |atom: &Atom, bindings: &[(String, Value)]| Atom {
            relation: atom.relation,
            args: (atom.args.iter())
                .map(|t| match t {
                    Term::Param(p) => (bindings.iter())
                        .find(|(n, _)| Sym::new(n).id() == p.id())
                        .map(|(_, v)| Term::constant(v))
                        .unwrap_or(*t),
                    _ => *t,
                })
                .collect(),
        };
        let atom = Atom::new(
            "Attendance",
            vec![
                Term::param("MyUId"),
                Term::param("__lit0"),
                Term::param("unbound"),
                Term::var("x"),
                Term::str("c"),
            ],
        );
        let bindings = [
            ("__lit0".to_string(), Value::str("v")),
            ("MyUId".to_string(), Value::Int(7)),
            ("MyUId".to_string(), Value::Int(8)),
            ("never_mentioned".to_string(), Value::Null),
        ];
        for n in 0..=bindings.len() {
            let b = &bindings[..n];
            assert_eq!(instantiate_atom(&atom, b), interning(&atom, b), "{b:?}");
        }
        assert_eq!(
            instantiate_atom(&atom, &bindings).args[..3],
            [Term::int(7), Term::str("v"), Term::param("unbound")]
        );
    }

    #[test]
    fn multi_row_insert_requires_every_row_covered() {
        let s = schema();
        let p = policy(&s);
        let stmt = parse_statement(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, 1, 'a'), (5, 2, 'b')",
        )
        .unwrap();
        let t = compile_write_template(&stmt, p.views(), &s).unwrap();
        assert_eq!(t.atoms.len(), 2);
        assert_eq!(t.verdict, WriteTemplateVerdict::Undecidable);
        let me = vec![("MyUId".to_string(), Value::Int(5))];
        assert!(check_write_concrete(&t, p.views(), &me, &[]).is_ok());
        let other = vec![("MyUId".to_string(), Value::Int(6))];
        assert!(check_write_concrete(&t, p.views(), &other, &[]).is_err());
    }
}
