//! Answering queries using views: contained and equivalent rewritings.
//!
//! The generator follows the MiniCon idea (Pottinger & Halevy): for each view
//! it enumerates *MiniCon descriptions* (MCDs) — mappings from a subset of
//! the query's subgoals onto the view's subgoals that respect
//! distinguished-variable requirements — then combines MCDs with disjoint
//! coverage into candidate rewritings. Every candidate is then *verified*
//! with the sound containment checker, so generation may be liberal without
//! threatening soundness:
//!
//! * [`contained_rewritings`] keeps candidates whose expansion is contained
//!   in the query (used for maximally-contained rewritings, §5.2.2 of the
//!   paper, and for query-narrowing patches);
//! * [`equivalent_rewriting`] additionally requires the query to be
//!   contained in the expansion *given the trace facts* — the compliance
//!   condition of the Blockaid-style checker.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::containment::{contained, contained_given_deps};
use crate::cq::{Atom, Cq, Subst, Term, Ucq};
use crate::deps::Dependencies;
use crate::error::LogicError;
use crate::homomorphism::{find_homomorphisms, HomProblem};
use crate::instance::Instance;
use crate::sym::{Sym, ToSym};

/// Bound on MCDs per view and on assembled combinations, keeping worst-case
/// work polynomially bounded in practice.
const MAX_MCDS: usize = 512;
const MAX_COMBOS: usize = 1024;

/// A named collection of view definitions.
#[derive(Debug, Clone, Default)]
pub struct ViewSet {
    views: Vec<Cq>,
}

impl ViewSet {
    /// Creates a view set; every view must carry a unique name.
    pub fn new(views: Vec<Cq>) -> Result<ViewSet, LogicError> {
        let mut names: BTreeSet<Sym> = BTreeSet::new();
        for v in &views {
            let name = v
                .name
                .ok_or_else(|| LogicError::Internal("view without a name".into()))?;
            if !names.insert(name) {
                return Err(LogicError::Internal(format!("duplicate view name {name}")));
            }
        }
        Ok(ViewSet { views })
    }

    /// Creates a view set from views whose names are already known to be
    /// unique — e.g. a subset of an existing [`ViewSet`], or views drawn
    /// from a policy that enforces name uniqueness at construction. Skips
    /// the name-validation pass of [`ViewSet::new`]; callers own the
    /// uniqueness invariant.
    pub fn from_prevalidated(views: Vec<Cq>) -> ViewSet {
        ViewSet { views }
    }

    /// The views.
    pub fn views(&self) -> &[Cq] {
        &self.views
    }

    /// Looks up a view by name (accepts `&str` or `Sym`).
    pub fn get<K: ToSym + ?Sized>(&self, name: &K) -> Option<&Cq> {
        let k = name.to_sym();
        self.views
            .iter()
            .find(|v| v.name.map(Sym::id) == Some(k.id()))
    }
}

/// Indices of the views that can possibly participate in a rewriting of
/// `q`: those sharing at least one relation name with `q`'s body.
///
/// This is the cheap relation-signature pre-filter behind compiled
/// template plans. It is *decision-preserving* for
/// [`equivalent_rewriting_deps`]: an MCD requires a query atom and a view
/// atom with the same relation name and arity (`mcds_for_view`), so a
/// view sharing no relation with `q` yields zero MCDs in both strict and
/// relaxed mode and can never appear in a candidate; dropping it leaves
/// the MCD accumulation sequence (and hence every `MAX_MCDS` /
/// `MAX_COMBOS` truncation point) unchanged. Key-dependency
/// normalization ([`crate::deps::normalize_cq`]) only merges or rewrites
/// atoms in place — it never introduces a relation that was absent — and
/// fact reductions only *remove* query atoms, so the filter stays sound
/// after both. Pruning by name alone (ignoring arity) is deliberately a
/// superset of the MCD gate.
pub fn candidate_view_indices(q: &Cq, views: &ViewSet) -> Vec<usize> {
    let q_rels: BTreeSet<Sym> = q.atoms.iter().map(|a| a.relation).collect();
    views
        .views
        .iter()
        .enumerate()
        .filter(|(_, v)| v.atoms.iter().any(|a| q_rels.contains(&a.relation)))
        .map(|(i, _)| i)
        .collect()
}

/// Unfolds a rewriting (whose atoms reference view names) into base tables.
pub fn expand(rw: &Cq, views: &ViewSet) -> Result<Cq, LogicError> {
    let mut out = Cq::new(rw.head.clone(), Vec::new(), rw.comparisons.clone());
    out.name = rw.name;
    let mut fresh = 0usize;
    let mut pending_eqs: Vec<(Term, Term)> = Vec::new();

    for (i, atom) in rw.atoms.iter().enumerate() {
        let view = views
            .get(&atom.relation)
            .ok_or_else(|| LogicError::UnknownSymbol(format!("view {}", atom.relation)))?;
        if view.head.len() != atom.args.len() {
            return Err(LogicError::Internal(format!(
                "view atom {} arity mismatch",
                atom.relation
            )));
        }
        // Rename the view body apart, then unify head terms with atom args.
        let renamed = view.rename_vars(&format!("e{i}·"));
        let mut subst = Subst::new();
        for (h, a) in renamed.head.iter().zip(&atom.args) {
            match h {
                Term::Var(v) => match subst.get(v) {
                    Some(prev) if prev != a => pending_eqs.push((*prev, *a)),
                    Some(_) => {}
                    None => {
                        subst.insert(*v, *a);
                    }
                },
                rigid => {
                    if rigid != a {
                        pending_eqs.push((*rigid, *a));
                    }
                }
            }
        }
        let body = renamed.substitute(&subst);
        out.atoms.extend(body.atoms);
        out.comparisons.extend(body.comparisons);
        fresh += 1;
    }
    let _ = fresh;

    // Resolve pending equalities: substitute variables, or record residual
    // equality comparisons between rigid terms.
    for (a, b) in pending_eqs {
        match (&a, &b) {
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                let mut s = Subst::new();
                s.insert(*v, *t);
                out = out.substitute(&s);
            }
            _ => out
                .comparisons
                .push(crate::cq::Comparison::new(a, crate::cq::CmpOp::Eq, b)),
        }
    }
    Ok(out)
}

/// One MiniCon description: a view applied to cover some query subgoals.
#[derive(Debug, Clone)]
struct Mcd {
    view_idx: usize,
    covered: BTreeSet<usize>,
    /// Query variable → view variable symbol.
    fwd: BTreeMap<Sym, Sym>,
    /// View variable → query term.
    inv: BTreeMap<Sym, Term>,
    /// Query variables whose comparisons are entailed inside the view (no
    /// re-application needed or possible).
    entailed_vars: BTreeSet<Sym>,
}

/// Enumerates MCDs for one view against the query. In `relaxed` mode the
/// MiniCon distinguished-variable requirements are waived — candidates are
/// then only as good as the (dependency-aware) verification that follows,
/// which is exactly the point: joins recoverable through key dependencies
/// are invisible to the syntactic MiniCon test.
fn mcds_for_view(q: &Cq, view: &Cq, view_idx: usize, relaxed: bool) -> Vec<Mcd> {
    let mut out = Vec::new();
    let head_vars: BTreeSet<Sym> = view.head_vars().into_iter().collect();
    let q_head_vars: BTreeSet<Sym> = q.head_vars().into_iter().collect();
    let q_cmp_vars: BTreeSet<Sym> = q
        .comparisons
        .iter()
        .flat_map(|c| [c.lhs.as_var(), c.rhs.as_var()])
        .flatten()
        .collect();

    // Recursive choice: each query atom is either skipped or mapped onto a
    // compatible view atom.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        q: &Cq,
        view: &Cq,
        view_idx: usize,
        idx: usize,
        covered: &mut BTreeSet<usize>,
        fwd: &mut BTreeMap<Sym, Sym>,
        inv: &mut BTreeMap<Sym, Term>,
        out: &mut Vec<Mcd>,
    ) {
        crate::probe::bump_rewrite_iteration();
        if out.len() >= MAX_MCDS {
            return;
        }
        if idx == q.atoms.len() {
            if !covered.is_empty() {
                out.push(Mcd {
                    view_idx,
                    covered: covered.clone(),
                    fwd: fwd.clone(),
                    inv: inv.clone(),
                    entailed_vars: BTreeSet::new(),
                });
            }
            return;
        }
        // Option 1: skip this atom.
        rec(q, view, view_idx, idx + 1, covered, fwd, inv, out);
        // Option 2: map it onto each compatible view atom.
        let g = &q.atoms[idx];
        for va in &view.atoms {
            if va.relation != g.relation || va.args.len() != g.args.len() {
                continue;
            }
            let mut added_fwd: Vec<Sym> = Vec::new();
            let mut added_inv: Vec<Sym> = Vec::new();
            let mut ok = true;
            for (qt, vt) in g.args.iter().zip(&va.args) {
                match vt {
                    Term::Var(y) => {
                        // inv consistency.
                        match inv.get(y) {
                            Some(prev) if prev != qt => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                inv.insert(*y, *qt);
                                added_inv.push(*y);
                            }
                        }
                        // fwd consistency for query variables.
                        if let Term::Var(x) = qt {
                            match fwd.get(x) {
                                Some(prev) if prev != y => {
                                    ok = false;
                                    break;
                                }
                                Some(_) => {}
                                None => {
                                    fwd.insert(*x, *y);
                                    added_fwd.push(*x);
                                }
                            }
                        }
                    }
                    rigid => {
                        if qt != rigid {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                covered.insert(idx);
                rec(q, view, view_idx, idx + 1, covered, fwd, inv, out);
                covered.remove(&idx);
            }
            for x in added_fwd {
                fwd.remove(&x);
            }
            for y in added_inv {
                inv.remove(&y);
            }
        }
    }

    let mut covered = BTreeSet::new();
    let mut fwd = BTreeMap::new();
    let mut inv = BTreeMap::new();
    rec(
        q,
        view,
        view_idx,
        0,
        &mut covered,
        &mut fwd,
        &mut inv,
        &mut out,
    );

    // Validate the MiniCon property per MCD (waived in relaxed mode; the
    // assembly's safety check and the verifier still gate every candidate).
    if relaxed {
        return out;
    }
    let view_ctx = crate::compare::CmpContext::new(&view.comparisons);
    out.retain_mut(|m| {
        for (x, y) in &m.fwd {
            let shared_outside = q.atoms.iter().enumerate().any(|(i, a)| {
                !m.covered.contains(&i) && a.args.iter().any(|t| t.as_var() == Some(*x))
            });
            // Distinguished in the query, or shared with uncovered subgoals:
            // the view must export it.
            if (q_head_vars.contains(x) || shared_outside) && !head_vars.contains(y) {
                return false;
            }
            // Used in a comparison: the view must export it (we re-apply the
            // comparison on the rewriting) — unless the view's own
            // comparisons already entail every comparison on it.
            if q_cmp_vars.contains(x) && !head_vars.contains(y) {
                let all_entailed = q
                    .comparisons
                    .iter()
                    .filter(|c| c.lhs.as_var() == Some(*x) || c.rhs.as_var() == Some(*x))
                    .all(|c| {
                        let mapped = map_comparison_fwd(c, &m.fwd);
                        match mapped {
                            Some(mc) => view_ctx.entails(&mc),
                            None => false,
                        }
                    });
                if !all_entailed {
                    return false;
                }
                m.entailed_vars.insert(*x);
            }
        }
        // Rigid query terms matched against view variables require the view
        // variable to be exported so the rewriting can select on it.
        for (y, qt) in &m.inv {
            if qt.is_rigid() && !head_vars.contains(y) {
                return false;
            }
        }
        true
    });
    out
}

/// Maps a query comparison through an MCD's forward variable mapping;
/// `None` if some variable is unmapped.
fn map_comparison_fwd(
    c: &crate::cq::Comparison,
    fwd: &BTreeMap<Sym, Sym>,
) -> Option<crate::cq::Comparison> {
    let map = |t: &Term| -> Option<Term> {
        match t {
            Term::Var(v) => fwd.get(v).map(|y| Term::Var(*y)),
            rigid => Some(*rigid),
        }
    };
    Some(crate::cq::Comparison::new(map(&c.lhs)?, c.op, map(&c.rhs)?))
}

/// Builds the view atom for an MCD; unexported positions get fresh variables.
fn view_atom(m: &Mcd, view: &Cq, fresh: &mut usize) -> Atom {
    let args = view
        .head
        .iter()
        .map(|h| match h {
            Term::Var(y) => m.inv.get(y).copied().unwrap_or_else(|| {
                *fresh += 1;
                Term::var(format!("r·{fresh}"))
            }),
            rigid => *rigid,
        })
        .collect();
    Atom::new(view.name.expect("views are named"), args)
}

/// Generates candidate rewritings (unverified).
fn candidates(q: &Cq, views: &ViewSet) -> Vec<Cq> {
    candidates_mode(q, views, false)
}

fn candidates_mode(q: &Cq, views: &ViewSet, relaxed: bool) -> Vec<Cq> {
    let mut all_mcds: Vec<Mcd> = Vec::new();
    for (vi, v) in views.views.iter().enumerate() {
        all_mcds.extend(mcds_for_view(q, v, vi, relaxed));
        if all_mcds.len() >= MAX_MCDS {
            break;
        }
    }

    // Combine MCDs with pairwise-disjoint coverage into full covers.
    let n = q.atoms.len();
    let mut combos: Vec<Vec<usize>> = Vec::new();
    fn cover(
        all: &[Mcd],
        n: usize,
        covered: &mut BTreeSet<usize>,
        chosen: &mut Vec<usize>,
        combos: &mut Vec<Vec<usize>>,
    ) {
        crate::probe::bump_rewrite_iteration();
        if combos.len() >= MAX_COMBOS {
            return;
        }
        let next = (0..n).find(|i| !covered.contains(i));
        let Some(next) = next else {
            combos.push(chosen.clone());
            return;
        };
        for (mi, m) in all.iter().enumerate() {
            if !m.covered.contains(&next) {
                continue;
            }
            if m.covered.iter().any(|i| covered.contains(i)) {
                continue;
            }
            covered.extend(m.covered.iter().copied());
            chosen.push(mi);
            cover(all, n, covered, chosen, combos);
            chosen.pop();
            for i in &m.covered {
                covered.remove(i);
            }
        }
    }
    let mut covered = BTreeSet::new();
    let mut chosen = Vec::new();
    cover(&all_mcds, n, &mut covered, &mut chosen, &mut combos);

    // Relaxed mode additionally admits one *redundant* view application per
    // combination: a view atom that re-covers already-covered subgoals can
    // re-export a join variable another view hides (e.g. a metadata view
    // re-exposing the post→group link), which only the dependency-aware
    // verifier can certify.
    if relaxed {
        let base = combos.clone();
        for combo in base {
            for mi in 0..all_mcds.len() {
                if combos.len() >= MAX_COMBOS {
                    break;
                }
                if !combo.contains(&mi) {
                    let mut extended = combo.clone();
                    extended.push(mi);
                    combos.push(extended);
                }
            }
        }
    }

    let mut out = Vec::new();
    for combo in combos {
        let mut fresh = 0usize;
        let mut rw = Cq::new(q.head.clone(), Vec::new(), Vec::new());
        let mut ok = true;
        let mut entailed: BTreeSet<Sym> = BTreeSet::new();
        for &mi in &combo {
            let m = &all_mcds[mi];
            let view = &views.views[m.view_idx];
            rw.atoms.push(view_atom(m, view, &mut fresh));
            entailed.extend(m.entailed_vars.iter().copied());
        }
        let avail: BTreeSet<Sym> = rw
            .atoms
            .iter()
            .flat_map(|a| a.args.iter().filter_map(|t| t.as_var()))
            .collect();
        // Comparisons re-apply on the rewriting when their variables are
        // exported; otherwise they must be entailed inside a chosen view.
        // (In relaxed mode unavailable comparisons are dropped and the
        // verifier decides.)
        for c in &q.comparisons {
            let vars: Vec<Sym> = [&c.lhs, &c.rhs].iter().filter_map(|t| t.as_var()).collect();
            if vars.iter().all(|v| avail.contains(v)) {
                rw.comparisons.push(*c);
            } else if !relaxed && !vars.iter().all(|v| entailed.contains(v)) {
                ok = false;
            }
        }
        // Safety: every head variable must occur in some atom.
        for v in rw.head_vars() {
            if !avail.contains(&v) {
                ok = false;
            }
        }
        if ok {
            out.push(rw);
        }
    }
    out
}

/// Returns verified contained rewritings of `q` using `views`.
///
/// Every returned rewriting `R` satisfies `expand(R) ⊆ q`.
pub fn contained_rewritings(q: &Cq, views: &ViewSet) -> Vec<Cq> {
    let mut out = Vec::new();
    for rw in candidates(q, views) {
        if let Ok(exp) = expand(&rw, views) {
            if crate::containment::satisfiable(&exp) && contained(&exp, q) {
                out.push(rw);
            }
        }
    }
    out
}

/// The maximally-contained rewriting: the union of all verified contained
/// rewritings, pruned of disjuncts subsumed by others.
pub fn maximally_contained(q: &Cq, views: &ViewSet) -> Ucq {
    let rewritings = contained_rewritings(q, views);
    let expansions: Vec<Cq> = rewritings
        .iter()
        .filter_map(|rw| expand(rw, views).ok())
        .collect();
    // Prune disjuncts whose expansion is contained in another's.
    let mut keep = vec![true; rewritings.len()];
    for i in 0..rewritings.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..rewritings.len() {
            if i != j && keep[i] && keep[j] && contained(&expansions[i], &expansions[j]) {
                // i is subsumed by j; drop i unless they are mutually
                // contained (then drop the later one).
                if !contained(&expansions[j], &expansions[i]) || j < i {
                    keep[i] = false;
                }
            }
        }
    }
    Ucq {
        disjuncts: rewritings
            .into_iter()
            .zip(keep)
            .filter_map(|(rw, k)| k.then_some(rw))
            .collect(),
    }
}

/// Seeks a rewriting `R` with `expand(R) ≡ q` over all databases containing
/// `facts`. This is the compliance certificate of the enforcement checker.
///
/// Besides pure view rewritings, the search also *reduces* the query by
/// embedding subsets of its subgoals directly into the known facts (an
/// already-witnessed join branch needs no view to cover it).
pub fn equivalent_rewriting(q: &Cq, views: &ViewSet, facts: &[Atom]) -> Option<Cq> {
    equivalent_rewriting_deps(q, views, facts, &Dependencies::none())
}

/// [`equivalent_rewriting`] with key dependencies: the containment checks
/// run over databases satisfying the keys, which lets trace facts about a
/// keyed row (e.g. a post's group id) discharge join branches exactly.
pub fn equivalent_rewriting_deps(
    q: &Cq,
    views: &ViewSet,
    facts: &[Atom],
    deps: &Dependencies,
) -> Option<Cq> {
    // Normalize the query and views under the keys: redundant atoms the
    // chase merges would otherwise defeat syntactic candidate generation.
    let (q_n, views_n);
    let (q, views) = if deps.is_empty() {
        (q, views)
    } else {
        q_n = crate::deps::normalize_cq(q, deps);
        views_n = ViewSet {
            views: views
                .views
                .iter()
                .map(|v| crate::deps::normalize_cq(v, deps))
                .collect(),
        };
        (&q_n, &views_n)
    };
    // Try the query as-is, then fact-reduced variants; strict MiniCon
    // candidates first, relaxed ones (verification-gated) second.
    for relaxed in [false, true] {
        if relaxed && deps.is_empty() {
            break; // relaxation only pays off with dependency reasoning
        }
        for reduced in fact_reductions(q, facts) {
            if reduced.atoms.is_empty() {
                // Fully witnessed by facts: the query is determined outright.
                if contained_given_deps(q, &reduced, facts, deps)
                    && contained_given_deps(&reduced, q, facts, deps)
                {
                    return Some(reduced);
                }
                continue;
            }
            for rw in candidates_mode(&reduced, views, relaxed) {
                let Ok(exp) = expand(&rw, views) else {
                    continue;
                };
                if contained_given_deps(q, &exp, facts, deps)
                    && contained_given_deps(&exp, q, facts, deps)
                {
                    return Some(rw);
                }
            }
        }
    }
    None
}

/// Returns verified *containing* rewritings of `q` using `views`: every
/// returned `R` satisfies `q ⊆ expand(R)`.
///
/// A containing rewriting computes, from the view contents alone, a superset
/// of the query's answer — so a tuple *absent* from `R`'s answer is certainly
/// absent from `q`'s. This is the certificate behind negative query
/// implication (NQI) in `bep-disclose`.
///
/// Generation: choose up to `max_atoms` views; for each, find a homomorphism
/// from its body into the frozen query (i.e. the query implies a match of
/// that view); the view atom's arguments are the homomorphic images of the
/// view head. The rewriting's head is the query's head, which must be
/// covered by the collected view atoms. Every candidate is verified.
pub fn containing_rewritings(q: &Cq, views: &ViewSet, max_atoms: usize) -> Vec<Cq> {
    let frozen = Instance::freeze(q);
    let ctx = crate::compare::CmpContext::new(&frozen.constraints);

    // Per view, homomorphisms from its body into the frozen query.
    let mut applications: Vec<Atom> = Vec::new();
    for view in &views.views {
        let renamed = view.rename_vars("c·");
        let p = HomProblem {
            source_atoms: &renamed.atoms,
            source_comparisons: &renamed.comparisons,
            target_atoms: &frozen.atoms,
            target_ctx: &ctx,
            initial: Subst::new(),
        };
        for h in find_homomorphisms(&p, 16) {
            let args: Vec<Term> = renamed
                .head
                .iter()
                .map(|t| crate::cq::apply_term(t, &h))
                .collect();
            let atom = Atom::new(view.name.expect("views are named"), args);
            if !applications.contains(&atom) {
                applications.push(atom);
            }
        }
    }

    // Combine up to `max_atoms` applications covering the query head vars.
    let head_vars: BTreeSet<Sym> = q.head_vars().into_iter().collect();
    let mut out: Vec<Cq> = Vec::new();
    let mut choose = |combo: &[&Atom]| {
        let avail: BTreeSet<Sym> = combo
            .iter()
            .flat_map(|a| a.args.iter().filter_map(|t| t.as_var()))
            .collect();
        if !head_vars.iter().all(|v| avail.contains(v)) {
            return;
        }
        let rw = Cq::new(
            q.head.clone(),
            combo.iter().map(|a| (*a).clone()).collect(),
            Vec::new(),
        );
        if let Ok(exp) = expand(&rw, views) {
            if contained(q, &exp) && !out.contains(&rw) {
                out.push(rw);
            }
        }
    };
    // Size-1 and size-2 combinations (sufficient for the joins NQI needs;
    // callers can raise `max_atoms` for deeper correlations).
    for a in &applications {
        choose(&[a]);
    }
    if max_atoms >= 2 {
        for (i, a) in applications.iter().enumerate() {
            for b in applications.iter().skip(i + 1) {
                choose(&[a, b]);
            }
        }
    }
    if max_atoms >= 3 {
        for (i, a) in applications.iter().enumerate() {
            for (j, b) in applications.iter().enumerate().skip(i + 1) {
                for c in applications.iter().skip(j + 1) {
                    choose(&[a, b, c]);
                }
            }
        }
    }
    out
}

/// Enumerates versions of `q` with subsets of its atoms discharged against
/// the known facts (including the empty reduction, i.e. `q` itself, first).
fn fact_reductions(q: &Cq, facts: &[Atom]) -> Vec<Cq> {
    let mut out = vec![q.clone()];
    if facts.is_empty() || q.atoms.is_empty() {
        return out;
    }
    let fact_instance = Instance {
        atoms: facts.to_vec(),
        constraints: Vec::new(),
    };
    let ctx = crate::compare::CmpContext::new(&fact_instance.constraints);

    // For each nonempty subset of atoms (bounded), try to embed it into the
    // facts; on success, drop those atoms under the embedding substitution.
    let n = q.atoms.len();
    if n > 6 {
        return out; // subsets explode; the unreduced attempt still runs
    }
    for mask in 1u32..(1 << n) {
        let subset: Vec<Atom> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| q.atoms[i].clone())
            .collect();
        let p = HomProblem {
            source_atoms: &subset,
            source_comparisons: &[],
            target_atoms: &fact_instance.atoms,
            target_ctx: &ctx,
            initial: Subst::new(),
        };
        for h in find_homomorphisms(&p, 8) {
            let remaining: Vec<Atom> = (0..n)
                .filter(|i| mask & (1 << i) == 0)
                .map(|i| crate::cq::apply_atom(&q.atoms[i], &h))
                .collect();
            let mut reduced = Cq::new(
                q.head
                    .iter()
                    .map(|t| crate::cq::apply_term(t, &h))
                    .collect(),
                remaining,
                q.comparisons
                    .iter()
                    .map(|c| crate::cq::apply_comparison(c, &h))
                    .collect(),
            );
            reduced.name = q.name;
            if !out.contains(&reduced) {
                out.push(reduced);
            }
            if out.len() > 64 {
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CmpOp, Comparison};

    /// The paper's calendar policy, instantiated for user 1.
    /// V1(e) :- Attendance(1, e, n)
    /// V2(e, t, k, n) :- Events(e, t, k), Attendance(1, e, n)
    fn calendar_views() -> ViewSet {
        let mut v1 = Cq::new(
            vec![Term::var("e")],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        v1.name = Some("V1".into());
        let mut v2 = Cq::new(
            vec![
                Term::var("e"),
                Term::var("t"),
                Term::var("k"),
                Term::var("n"),
            ],
            vec![
                Atom::new(
                    "Events",
                    vec![Term::var("e"), Term::var("t"), Term::var("k")],
                ),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        v2.name = Some("V2".into());
        ViewSet::new(vec![v1, v2]).unwrap()
    }

    fn q1() -> Cq {
        // SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2
        Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::int(2), Term::var("n")],
            )],
            vec![],
        )
    }

    fn q2() -> Cq {
        // SELECT Title, Kind FROM Events WHERE EId = 2
        Cq::new(
            vec![Term::var("t"), Term::var("k")],
            vec![Atom::new(
                "Events",
                vec![Term::int(2), Term::var("t"), Term::var("k")],
            )],
            vec![],
        )
    }

    #[test]
    fn q1_has_equivalent_rewriting() {
        let views = calendar_views();
        let rw = equivalent_rewriting(&q1(), &views, &[]).expect("Q1 should be allowed");
        assert_eq!(rw.atoms.len(), 1);
        assert_eq!(rw.atoms[0].relation, "V1");
        assert_eq!(rw.atoms[0].args, vec![Term::int(2)]);
    }

    #[test]
    fn q2_blocked_without_history_allowed_with() {
        let views = calendar_views();
        // In isolation: no equivalent rewriting (V2 requires attendance).
        assert!(equivalent_rewriting(&q2(), &views, &[]).is_none());
        // With the trace fact from Q1 returning non-empty:
        let fact = Atom::new(
            "Attendance",
            vec![Term::int(1), Term::int(2), Term::var("w")],
        );
        let rw = equivalent_rewriting(&q2(), &views, std::slice::from_ref(&fact))
            .expect("Q2 should be allowed given the trace");
        assert!(!rw.atoms.is_empty());
    }

    #[test]
    fn reissued_query_is_allowed_via_facts_alone() {
        let views = ViewSet::new(vec![]).unwrap();
        let fact = Atom::new(
            "Attendance",
            vec![Term::int(1), Term::int(2), Term::var("w")],
        );
        // Even with NO views, re-asking the already-answered Q1 is compliant.
        let rw = equivalent_rewriting(&q1(), &views, std::slice::from_ref(&fact))
            .expect("re-issued query should be allowed");
        assert!(rw.atoms.is_empty());
    }

    #[test]
    fn expansion_unfolds_views() {
        let views = calendar_views();
        let rw = Cq::new(
            vec![Term::var("t")],
            vec![Atom::new(
                "V2",
                vec![Term::int(2), Term::var("t"), Term::var("k"), Term::var("n")],
            )],
            vec![],
        );
        let exp = expand(&rw, &views).unwrap();
        assert_eq!(exp.atoms.len(), 2);
        assert!(exp.atoms.iter().any(|a| a.relation == "Events"));
        assert!(exp.atoms.iter().any(|a| a.relation == "Attendance"));
    }

    #[test]
    fn contained_rewritings_are_contained() {
        let views = calendar_views();
        // Q: all event titles (broader than the policy allows).
        let q = Cq::new(
            vec![Term::var("t")],
            vec![Atom::new(
                "Events",
                vec![Term::var("e"), Term::var("t"), Term::var("k")],
            )],
            vec![],
        );
        let rws = contained_rewritings(&q, &views);
        assert!(!rws.is_empty(), "V2 gives a contained rewriting");
        for rw in &rws {
            let exp = expand(rw, &views).unwrap();
            assert!(contained(&exp, &q));
        }
        // But no equivalent rewriting exists: the query reveals more.
        assert!(equivalent_rewriting(&q, &views, &[]).is_none());
    }

    #[test]
    fn maximally_contained_covers_union() {
        // Two selective views over R; MCR of "all of R" is their union.
        let mut va = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![Comparison::new(Term::var("x"), CmpOp::Ge, Term::int(10))],
        );
        va.name = Some("Va".into());
        let mut vb = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![Comparison::new(Term::var("x"), CmpOp::Lt, Term::int(0))],
        );
        vb.name = Some("Vb".into());
        let views = ViewSet::new(vec![va, vb]).unwrap();
        let q = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let mcr = maximally_contained(&q, &views);
        assert_eq!(mcr.disjuncts.len(), 2);
    }

    #[test]
    fn comparison_selection_on_views() {
        // View exports ages; query asks for age >= 60 — the rewriting keeps
        // the comparison on the exported column.
        let mut v = Cq::new(
            vec![Term::var("n"), Term::var("a")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![],
        );
        v.name = Some("AllEmployees".into());
        let views = ViewSet::new(vec![v]).unwrap();
        let q = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(60))],
        );
        let rw = equivalent_rewriting(&q, &views, &[]).expect("selection over view");
        assert_eq!(rw.comparisons.len(), 1);
    }

    #[test]
    fn view_with_comparison_gives_contained_not_equivalent() {
        // View: only seniors. Query: everyone. Contained but not equivalent.
        let mut v = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(60))],
        );
        v.name = Some("Seniors".into());
        let views = ViewSet::new(vec![v]).unwrap();
        let q = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![],
        );
        assert!(!contained_rewritings(&q, &views).is_empty());
        assert!(equivalent_rewriting(&q, &views, &[]).is_none());
    }

    #[test]
    fn unexported_join_var_blocks_rewriting() {
        // View projects only the event title, hiding EId; a query that needs
        // to select on EId cannot be rewritten.
        let mut v = Cq::new(
            vec![Term::var("t")],
            vec![Atom::new(
                "Events",
                vec![Term::var("e"), Term::var("t"), Term::var("k")],
            )],
            vec![],
        );
        v.name = Some("Titles".into());
        let views = ViewSet::new(vec![v]).unwrap();
        let q = Cq::new(
            vec![Term::var("t")],
            vec![Atom::new(
                "Events",
                vec![Term::int(7), Term::var("t"), Term::var("k")],
            )],
            vec![],
        );
        assert!(equivalent_rewriting(&q, &views, &[]).is_none());
        // It is not even containable: selecting EId = 7 from titles alone is
        // impossible.
        assert!(contained_rewritings(&q, &views).is_empty());
    }

    #[test]
    fn comparison_entailed_inside_view() {
        // View: seniors (age >= 60, age NOT exported). Query: adults with
        // age >= 18 — entailed inside the view, so the rewriting succeeds
        // even though the view hides the age column.
        let mut v = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(60))],
        );
        v.name = Some("Seniors".into());
        let views = ViewSet::new(vec![v]).unwrap();
        let q = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(18))],
        );
        // Contained (not equivalent): every senior is an adult.
        let rws = contained_rewritings(&q, &views);
        assert!(
            !rws.is_empty(),
            "entailed comparison should permit rewriting"
        );
        for rw in &rws {
            let exp = expand(rw, &views).unwrap();
            assert!(contained(&exp, &q));
        }
    }

    #[test]
    fn containing_rewriting_single_view() {
        // View: adults. Query: seniors. Adults ⊇ seniors.
        let mut v = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(18))],
        );
        v.name = Some("Adults".into());
        let views = ViewSet::new(vec![v]).unwrap();
        let q = Cq::new(
            vec![Term::var("n")],
            vec![Atom::new("Employees", vec![Term::var("n"), Term::var("a")])],
            vec![Comparison::new(Term::var("a"), CmpOp::Ge, Term::int(60))],
        );
        let rws = containing_rewritings(&q, &views, 2);
        assert!(!rws.is_empty());
        for rw in &rws {
            let exp = expand(rw, &views).unwrap();
            assert!(contained(&q, &exp), "q ⊆ expansion must hold");
        }
    }

    #[test]
    fn candidate_view_indices_prunes_by_relation_signature() {
        let views = calendar_views(); // V1: Attendance; V2: Events+Attendance
        assert_eq!(candidate_view_indices(&q1(), &views), vec![0, 1]);
        // Q2 touches only Events → only V2 can participate.
        assert_eq!(candidate_view_indices(&q2(), &views), vec![1]);
        // A query over an unrelated relation prunes everything.
        let q = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("Unrelated", vec![Term::var("x")])],
            vec![],
        );
        assert!(candidate_view_indices(&q, &views).is_empty());
    }

    #[test]
    fn pruned_view_set_is_decision_identical() {
        // The compiled-plan soundness claim, checked directly: running the
        // rewriting search over only the signature-pruned views returns the
        // same verdict (and the same certificate) as the full set, with and
        // without facts, with and without dependencies.
        let views = calendar_views();
        let mut deps = Dependencies::none();
        deps = deps.with_key("Events".to_string(), vec![0]);
        let fact = Atom::new(
            "Attendance",
            vec![Term::int(1), Term::int(2), Term::var("w")],
        );
        for q in [q1(), q2()] {
            let pruned = ViewSet::from_prevalidated(
                candidate_view_indices(&q, &views)
                    .into_iter()
                    .map(|i| views.views()[i].clone())
                    .collect(),
            );
            for facts in [&[][..], std::slice::from_ref(&fact)] {
                for d in [&Dependencies::none(), &deps] {
                    let full = equivalent_rewriting_deps(&q, &views, facts, d);
                    let cut = equivalent_rewriting_deps(&q, &pruned, facts, d);
                    assert_eq!(full, cut, "pruning changed the decision for {q:?}");
                }
            }
        }
    }

    #[test]
    fn containing_rewriting_join_hospital() {
        // The hospital narrowing (Example 4.1): V1 hides the disease, V2
        // hides the patient, but their join still bounds S from above.
        let mut v1 = Cq::new(
            vec![Term::var("p"), Term::var("doc")],
            vec![Atom::new(
                "Treatment",
                vec![Term::var("p"), Term::var("doc"), Term::var("dis")],
            )],
            vec![],
        );
        v1.name = Some("PatientDoctor".into());
        let mut v2 = Cq::new(
            vec![Term::var("doc"), Term::var("dis")],
            vec![Atom::new(
                "Treatment",
                vec![Term::var("p"), Term::var("doc"), Term::var("dis")],
            )],
            vec![],
        );
        v2.name = Some("DoctorDiseases".into());
        let views = ViewSet::new(vec![v1, v2]).unwrap();
        let s = Cq::new(
            vec![Term::var("p"), Term::var("dis")],
            vec![Atom::new(
                "Treatment",
                vec![Term::var("p"), Term::var("doc"), Term::var("dis")],
            )],
            vec![],
        );
        let rws = containing_rewritings(&s, &views, 2);
        assert!(!rws.is_empty(), "the V1 ⋈ V2 upper bound must be found");
        // And no equivalent (or even contained) rewriting exists: the views
        // cannot pin the patient-disease link exactly.
        assert!(equivalent_rewriting(&s, &views, &[]).is_none());
    }
}
