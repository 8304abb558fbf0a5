//! Schema dependencies: functional dependencies (keys) and the chase.
//!
//! Real schemas declare primary keys, and trace-aware compliance needs them:
//! in the forum application, a probe reveals post 17's group id, and only
//! the key `Posts.PId → *` lets the checker conclude that *the* `Posts` row
//! joined by a later fetch is the same row the probe witnessed. The chase
//! below saturates a canonical database with the equalities the keys force,
//! which the containment checker then reasons over.
//!
//! Soundness note: unifications are applied only when forced syntactically
//! (two atoms agree on the key). A parameter and a constant in a dependent
//! position are *not* unified (they may or may not be equal at runtime) —
//! under-chasing only makes containment harder to prove, which is the safe
//! direction. Two distinct constants in a dependent position mean no
//! database satisfying the keys contains the canonical facts at all.
//!
//! # One chase, and what it promises
//!
//! [`chase`] is the only chase. Its contract is stated against the routine
//! it replaced — all pairs rescanned after every unification, kept verbatim
//! as the reference in `tests/chase_differential.rs`: the same
//! `Consistent`/`Inconsistent`, the same atoms, and the
//! same substitution, *up to the names of the labeled nulls* (the reference
//! spelled them `ind·N`; here they are scratch symbols, [`Fresh`]). That
//! includes the order of unification where it shows. The one deliberate
//! difference: an inclusion dependency whose parent columns lie outside the
//! parent's arity — unsatisfiable by any row — is skipped, where the
//! reference spawned a fresh junk row for it every round.

use std::hash::{Hash, Hasher};

use crate::cq::{Atom, Subst, Term};
use crate::sym::{Fresh, Sym, ToSym, WordHasher};

/// A key-style functional dependency: the `key` positions of `relation`
/// determine the whole row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    /// Relation name.
    pub relation: Sym,
    /// Determinant column positions.
    pub key: Vec<usize>,
}

/// An inclusion dependency (foreign key): every row of `child` has a
/// matching row in `parent` (child columns = parent columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ind {
    /// Referencing relation.
    pub child: Sym,
    /// Referencing column positions.
    pub child_cols: Vec<usize>,
    /// Referenced relation.
    pub parent: Sym,
    /// Referenced column positions.
    pub parent_cols: Vec<usize>,
    /// Referenced relation's arity (needed to mint fresh nulls).
    pub parent_arity: usize,
}

/// A set of dependencies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dependencies {
    /// Key dependencies.
    pub fds: Vec<Fd>,
    /// Inclusion dependencies (foreign keys).
    pub inds: Vec<Ind>,
}

impl Dependencies {
    /// No dependencies.
    pub fn none() -> Dependencies {
        Dependencies::default()
    }

    /// Adds a key dependency.
    pub fn with_key(mut self, relation: impl ToSym, key: Vec<usize>) -> Dependencies {
        self.fds.push(Fd {
            relation: relation.to_sym(),
            key,
        });
        self
    }

    /// Adds an inclusion dependency (foreign key).
    pub fn with_inclusion(mut self, ind: Ind) -> Dependencies {
        self.inds.push(ind);
        self
    }

    /// `true` if there is nothing to chase.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty() && self.inds.is_empty()
    }
}

/// The result of chasing a set of atoms.
#[derive(Debug, Clone)]
pub enum ChaseOutcome {
    /// The saturated atoms plus the substitution that was applied.
    Consistent {
        /// Deduplicated, saturated atoms.
        atoms: Vec<Atom>,
        /// Accumulated variable unifications.
        subst: Subst,
    },
    /// The atoms violate a key outright (two rows, same key, incompatible
    /// constants): no database satisfying the dependencies contains them.
    Inconsistent,
}

/// Rounds of key chase + parent spawning before the chase stops regardless
/// (FK graphs in practice are shallow; the cap guards cycles).
const ROUNDS: usize = 4;

/// Saturates atoms under the full dependency set: the key (FD) chase —
/// two atoms that agree on a key are one row, so their other positions
/// unify — alternated with the inclusion (IND) chase — each child row
/// spawns its missing parent row, its undetermined columns labeled nulls
/// drawn from `fresh` — until neither applies or `ROUNDS` rounds ran.
///
/// The canonical order is the naive one: the lowest pair of atoms (by
/// position, first atom first) that some key forces together unifies at its
/// first differing position, a variable giving way to whatever faces it (the
/// earlier atom's, when both are variables), and the scan starts over. The
/// order matters only when a parameter sits in a dependent position (see
/// the module docs: whichever term a variable meets first is the one it
/// becomes), and there this function decides exactly as that scan would.
/// What makes it cheap is that it never rescans: `Chase` keeps every
/// atom under each key it can be found by, so a pair is met by lookup, a
/// binding rewrites only the atoms that mention the variable, and the scan
/// visits only atoms that share a key with another, resuming at the lowest
/// one a rewritten atom now shares a key with.
///
/// Empty `deps` return `atoms` untouched (duplicates included).
pub fn chase(atoms: Vec<Atom>, deps: &Dependencies, fresh: &mut Fresh) -> ChaseOutcome {
    if deps.is_empty() {
        let subst = Subst::new();
        return ChaseOutcome::Consistent { atoms, subst };
    }
    let mut state = Chase::new(atoms, &deps.fds, &deps.inds);
    for _round in 0..ROUNDS {
        if state.unify_keys().is_err() {
            return ChaseOutcome::Inconsistent;
        }
        if !state.spawn_parents(&deps.inds, fresh) {
            break;
        }
    }
    state.finish()
}

/// [`chase`] under the key dependencies alone.
fn chase_keys(atoms: Vec<Atom>, deps: &Dependencies) -> ChaseOutcome {
    let mut state = Chase::new(atoms, &deps.fds, &[]);
    match state.unify_keys() {
        Ok(()) => state.finish(),
        Err(Clash) => ChaseOutcome::Inconsistent,
    }
}

/// Two distinct constants forced equal.
struct Clash;

/// What two same-key atoms must do next to be one row: bind a variable to
/// a term, or fail.
type Step = Result<(Sym, Term), Clash>;

/// One indexed column list of a relation: a key's determinant (`unify`), or
/// the referenced columns of an inclusion dependency no key spells the same
/// way (looked up, never unified on).
struct Spec<'d> {
    relation: Sym,
    cols: &'d [usize],
    unify: bool,
}

impl Spec<'_> {
    /// Whether `atom` is indexed under this column list.
    fn covers(&self, atom: &Atom) -> bool {
        atom.relation == self.relation && self.cols.iter().all(|&c| c < atom.args.len())
    }

    /// Whether the rows `ind` references are found under this column list.
    fn finds_parents_of(&self, ind: &Ind) -> bool {
        self.relation == ind.parent && self.cols == ind.parent_cols
    }
}

/// The terms of `atom` at `cols`: what the index files it under, and what
/// two atoms must agree on to be one row.
fn key<'a>(atom: &'a Atom, cols: &'a [usize]) -> impl Iterator<Item = &'a Term> {
    cols.iter().map(|&c| &atom.args[c])
}

/// The index's word for "these terms under column list number `spec`".
fn key_hash<'a>(spec: usize, terms: impl Iterator<Item = &'a Term>) -> u64 {
    let mut h = WordHasher::default();
    h.write_usize(spec);
    terms.for_each(|t| t.hash(&mut h));
    h.finish()
}

/// The words `atom` is filed under: one per spec that covers it — or,
/// covered by none, one for its whole self, which no lookup asks for but
/// lets [`Chase::finish`] meet every repeat in the index.
fn filings<'a>(specs: &'a [Spec<'a>], atom: &'a Atom) -> impl Iterator<Item = u64> + 'a {
    let mut covering = specs
        .iter()
        .enumerate()
        .filter(|(_, spec)| spec.covers(atom))
        .peekable();
    let whole = covering
        .peek()
        .is_none()
        .then(|| key_hash(usize::MAX ^ atom.relation.id() as usize, atom.args.iter()));
    covering
        .map(|(s, spec)| key_hash(s, key(atom, spec.cols)))
        .chain(whole)
}

/// The first position at which two same-key atoms must change to be one
/// row, if any: a variable is bound to what faces it; two constants clash;
/// a parameter facing another rigid term may or may not equal it at
/// runtime, and skipping it is the sound (under-chasing) choice.
fn first_difference(a: &Atom, b: &Atom) -> Option<Step> {
    a.args.iter().zip(&b.args).find_map(|pair| match pair {
        (x, y) if x == y => None,
        (Term::Var(v), other) | (other, Term::Var(v)) => Some(Ok((*v, *other))),
        (Term::Const(_), Term::Const(_)) => Some(Err(Clash)),
        _ => None,
    })
}

/// The chase's working state: the atoms (duplicates left in place until
/// [`Chase::finish`] — a duplicate pairs with nothing its first copy does
/// not pair with earlier), the accumulated substitution, and the index.
struct Chase<'d> {
    specs: Vec<Spec<'d>>,
    atoms: Vec<Atom>,
    /// Atoms below this have their parents (see [`Chase::spawn_parents`]).
    parented: usize,
    subst: Subst,
    /// `(word, atom)` for every atom under each of its [`filings`], sorted:
    /// the atoms sharing a key are adjacent and ascending. A word is a
    /// filter — every use compares the terms themselves.
    index: Vec<(u64, u32)>,
    /// The key chase's worklist: `pending[i]` while `atoms[i]` may have
    /// something to unify with a later atom — set when an atom is filed
    /// next to it, cleared when [`Chase::first_step`] finds nothing — and
    /// `resume`, below which nothing is pending.
    pending: Vec<bool>,
    resume: usize,
}

impl<'d> Chase<'d> {
    fn new(mut atoms: Vec<Atom>, fds: &'d [Fd], inds: &'d [Ind]) -> Chase<'d> {
        let mut specs: Vec<Spec<'d>> = Vec::with_capacity(fds.len() + inds.len());
        specs.extend(fds.iter().map(|fd| Spec {
            relation: fd.relation,
            cols: &fd.key,
            unify: true,
        }));
        for ind in inds {
            if !specs.iter().any(|spec| spec.finds_parents_of(ind)) {
                specs.push(Spec {
                    relation: ind.parent,
                    cols: &ind.parent_cols,
                    unify: false,
                });
            }
        }
        // Room for the parents a round or two will spawn.
        let room = atoms.len() + atoms.len() / 2 + 4;
        atoms.reserve(room - atoms.len());
        let mut index = Vec::with_capacity(2 * room);
        for (n, atom) in atoms.iter().enumerate() {
            index.extend(filings(&specs, atom).map(|word| (word, n as u32)));
        }
        index.sort_unstable();
        // Every atom but the last of each group has a later atom to meet.
        let mut pending = Vec::with_capacity(room);
        pending.resize(atoms.len(), false);
        for pair in index.windows(2).filter(|pair| pair[0].0 == pair[1].0) {
            pending[pair[0].1 as usize] = true;
        }
        Chase {
            specs,
            atoms,
            parented: 0,
            subst: Subst::new(),
            index,
            pending,
            resume: 0,
        }
    }

    /// Files `atoms[n]` in the index, and marks as pending every atom that
    /// now has a later atom under one of its keys: the lower members of the
    /// groups `n` joins, and `n` itself where a higher one is there already.
    fn enter(&mut self, n: usize) {
        self.pending.resize(self.atoms.len(), false);
        for word in filings(&self.specs, &self.atoms[n]) {
            let entry = (word, n as u32);
            let at = self.index.partition_point(|e| *e < entry);
            self.index.insert(at, entry);
            for &(_, lower) in self.index[..at].iter().rev().take_while(|e| e.0 == word) {
                self.pending[lower as usize] = true;
                self.resume = self.resume.min(lower as usize);
            }
            if self.index.get(at + 1).is_some_and(|e| e.0 == word) {
                self.pending[n] = true;
                self.resume = self.resume.min(n);
            }
        }
    }

    /// Takes `atoms[n]` out of the index (before its terms change).
    fn leave(&mut self, n: usize) {
        for word in filings(&self.specs, &self.atoms[n]) {
            if let Ok(at) = self.index.binary_search(&(word, n as u32)) {
                self.index.remove(at);
            }
        }
    }

    /// The atoms filed under `word`, ascending, starting at `from`.
    fn filed(&self, word: u64, from: u32) -> impl Iterator<Item = usize> + '_ {
        let start = self.index.partition_point(|e| *e < (word, from));
        self.index[start..]
            .iter()
            .take_while(move |e| e.0 == word)
            .map(|e| e.1 as usize)
    }

    /// What the lowest pair `(i, j)`, `j > i`, that a key forces together
    /// must change first — `None` when `atoms[i]` is at peace with every
    /// later atom.
    fn first_step(&self, i: usize) -> Option<Step> {
        let a = &self.atoms[i];
        let mut best: Option<(usize, Step)> = None;
        for (s, spec) in self.specs.iter().enumerate() {
            if !spec.unify || !spec.covers(a) {
                continue;
            }
            for j in self.filed(key_hash(s, key(a, spec.cols)), i as u32 + 1) {
                if best.as_ref().is_some_and(|(lowest, _)| j >= *lowest) {
                    break;
                }
                let b = &self.atoms[j];
                if b.relation == a.relation
                    && b.args.len() == a.args.len()
                    && key(a, spec.cols).eq(key(b, spec.cols))
                {
                    if let Some(step) = first_difference(a, b) {
                        best = Some((j, step));
                        break;
                    }
                }
            }
        }
        best.map(|(_, step)| step)
    }

    /// The key chase, to its fixpoint: the lowest pending atom takes its
    /// first step, until none is pending.
    fn unify_keys(&mut self) -> Result<(), Clash> {
        while let Some(&pending) = self.pending.get(self.resume) {
            let step = pending.then(|| self.first_step(self.resume)).flatten();
            match step {
                None => {
                    self.pending[self.resume] = false;
                    self.resume += 1;
                }
                Some(step) => {
                    let (var, to) = step?;
                    self.bind(var, to);
                }
            }
        }
        Ok(())
    }

    /// Applies `var := to` to the atoms that mention `var` and to the
    /// accumulated substitution.
    fn bind(&mut self, var: Sym, to: Term) {
        let bound = Term::Var(var);
        for n in 0..self.atoms.len() {
            if self.atoms[n].args.contains(&bound) {
                self.leave(n);
                for t in &mut self.atoms[n].args {
                    if *t == bound {
                        *t = to;
                    }
                }
                self.enter(n);
            }
        }
        for (_, t) in self.subst.iter_mut() {
            if *t == bound {
                *t = to;
            }
        }
        self.subst.insert(var, to);
    }

    /// One inclusion round: every atom the previous round spawned (the
    /// first time, every atom), under every dependency in order, gets its
    /// parent row unless some atom — spawned this round included — already
    /// carries the referenced key. Returns whether anything was spawned.
    ///
    /// Older atoms need no second look: an atom that had a parent keeps it,
    /// because a binding rewrites child and parent alike and nothing
    /// leaves before [`Chase::finish`].
    ///
    /// A NULL-able FK whose witness is a labeled null still requires a
    /// parent (sound for the canonical database: the chase only runs on
    /// instances standing for "databases containing at least these rows").
    fn spawn_parents(&mut self, inds: &[Ind], fresh: &mut Fresh) -> bool {
        let children = self.parented..self.atoms.len();
        self.parented = children.end;
        for ind in inds {
            // Malformed: no row of the parent's arity can satisfy it.
            if ind.child_cols.len() != ind.parent_cols.len()
                || ind.parent_cols.iter().any(|&pc| pc >= ind.parent_arity)
            {
                continue;
            }
            let Some(s) = self
                .specs
                .iter()
                .position(|spec| spec.finds_parents_of(ind))
            else {
                continue;
            };
            for c in children.clone() {
                let child = &self.atoms[c];
                if child.relation != ind.child
                    || ind.child_cols.iter().any(|&col| col >= child.args.len())
                {
                    continue;
                }
                let wanted = || key(child, &ind.child_cols);
                let has_parent = self.filed(key_hash(s, wanted()), 0).any(|p| {
                    let parent = &self.atoms[p];
                    self.specs[s].covers(parent) && key(parent, &ind.parent_cols).eq(wanted())
                });
                if has_parent {
                    continue;
                }
                let args = (0..ind.parent_arity)
                    .map(|i| match ind.parent_cols.iter().position(|&pc| pc == i) {
                        Some(k) => child.args[ind.child_cols[k]],
                        None => Term::Var(fresh.next_sym()),
                    })
                    .collect();
                self.atoms.push(Atom {
                    relation: ind.parent,
                    args,
                });
                self.enter(self.atoms.len() - 1);
            }
        }
        self.atoms.len() > children.end
    }

    /// The outcome: the atoms, each kept at its first occurrence. Equal
    /// atoms are filed under equal words, so a repeat sits in its first
    /// copy's index group, after it.
    fn finish(mut self) -> ChaseOutcome {
        let (atoms, repeats) = (&mut self.atoms, &mut self.pending);
        repeats.fill(false);
        for (k, &(word, n)) in self.index.iter().enumerate() {
            let mut group = self.index[..k].iter().rev().take_while(|e| e.0 == word);
            repeats[n as usize] |= group.any(|&(_, m)| atoms[m as usize] == atoms[n as usize]);
        }
        let mut repeats = repeats.iter();
        atoms.retain(|_| !repeats.next().is_some_and(|&repeat| repeat));
        ChaseOutcome::Consistent {
            atoms: self.atoms,
            subst: self.subst,
        }
    }
}

/// Normalizes a query by saturating its body under the key dependencies:
/// atoms forced equal by a key merge, and the induced unifications apply to
/// the head and comparisons. Semantics-preserving over databases satisfying
/// the dependencies. An inconsistent body yields an unsatisfiable marker
/// (`0 = 1` comparison).
pub fn normalize_cq(cq: &crate::cq::Cq, deps: &Dependencies) -> crate::cq::Cq {
    if deps.is_empty() {
        return cq.clone();
    }
    match chase_keys(cq.atoms.clone(), deps) {
        ChaseOutcome::Consistent { atoms, subst } => {
            let mut out = cq.substitute(&subst);
            out.atoms = atoms;
            out
        }
        ChaseOutcome::Inconsistent => {
            let mut out = cq.clone();
            out.comparisons.push(crate::cq::Comparison::new(
                Term::int(0),
                crate::cq::CmpOp::Eq,
                Term::int(1),
            ));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posts_key() -> Dependencies {
        // Posts(PId, GId, AuthorId): PId is the key.
        Dependencies::none().with_key("Posts", vec![0])
    }

    #[test]
    fn chase_unifies_on_key() {
        // Posts(17, g, a) and Posts(17, 5, sk) must be the same row.
        let atoms = [
            Atom::new("Posts", vec![Term::int(17), Term::var("g"), Term::var("a")]),
            Atom::new("Posts", vec![Term::int(17), Term::int(5), Term::var("sk")]),
        ];
        match chase_keys(atoms.to_vec(), &posts_key()) {
            ChaseOutcome::Consistent { atoms, subst } => {
                assert_eq!(atoms.len(), 1, "rows merged: {atoms:?}");
                assert_eq!(subst.get("g"), Some(&Term::int(5)));
            }
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn chase_detects_key_violation() {
        let atoms = [
            Atom::new("Posts", vec![Term::int(17), Term::int(5), Term::var("a")]),
            Atom::new("Posts", vec![Term::int(17), Term::int(6), Term::var("b")]),
        ];
        assert!(matches!(
            chase_keys(atoms.to_vec(), &posts_key()),
            ChaseOutcome::Inconsistent
        ));
    }

    #[test]
    fn chase_cascades() {
        // Unifying one pair can trigger another: keys propagate through
        // variables shared across atoms.
        let deps = Dependencies::none()
            .with_key("R", vec![0])
            .with_key("S", vec![0]);
        let atoms = [
            Atom::new("R", vec![Term::var("x"), Term::int(1)]),
            Atom::new("R", vec![Term::var("x"), Term::var("y")]),
            Atom::new("S", vec![Term::var("y"), Term::var("z")]),
            Atom::new("S", vec![Term::int(1), Term::int(9)]),
        ];
        match chase_keys(atoms.to_vec(), &deps) {
            ChaseOutcome::Consistent { atoms, subst } => {
                assert_eq!(atoms.len(), 2);
                assert_eq!(subst.get("y"), Some(&Term::int(1)));
                assert_eq!(subst.get("z"), Some(&Term::int(9)));
            }
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn params_do_not_unify_with_constants() {
        let atoms = [
            Atom::new(
                "Posts",
                vec![Term::int(17), Term::param("P"), Term::var("a")],
            ),
            Atom::new("Posts", vec![Term::int(17), Term::int(5), Term::var("b")]),
        ];
        match chase_keys(atoms.to_vec(), &posts_key()) {
            ChaseOutcome::Consistent { atoms, subst } => {
                // The param stays distinct from the constant; the variables
                // in the remaining dependent position unified.
                assert_eq!(atoms.len(), 2);
                assert!(subst.contains_key("a") || subst.contains_key("b"));
            }
            ChaseOutcome::Inconsistent => panic!("params must not conflict"),
        }
    }

    #[test]
    fn empty_deps_is_identity() {
        // Not even duplicates go: nothing says the atoms are rows.
        let atoms = vec![Atom::new("R", vec![Term::int(1)]); 2];
        match chase(atoms, &Dependencies::none(), &mut Fresh::default()) {
            ChaseOutcome::Consistent { atoms: out, subst } => {
                assert_eq!(out.len(), 2);
                assert!(subst.is_empty());
            }
            ChaseOutcome::Inconsistent => panic!(),
        }
    }

    #[test]
    fn ind_chase_adds_missing_parent() {
        // Docs(d, s) with FK Docs.SId -> Spaces.SId spawns Spaces(s, _).
        let deps = Dependencies::none().with_inclusion(Ind {
            child: "Docs".into(),
            child_cols: vec![1],
            parent: "Spaces".into(),
            parent_cols: vec![0],
            parent_arity: 2,
        });
        let atoms = [Atom::new("Docs", vec![Term::var("d"), Term::var("s")])];
        match chase(atoms.to_vec(), &deps, &mut Fresh::default()) {
            ChaseOutcome::Consistent { atoms, .. } => {
                assert_eq!(atoms.len(), 2);
                let parent = atoms.iter().find(|a| a.relation == "Spaces").unwrap();
                assert_eq!(parent.args[0], Term::var("s"));
            }
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn ind_chase_skips_present_parent() {
        let deps = Dependencies::none().with_inclusion(Ind {
            child: "Docs".into(),
            child_cols: vec![1],
            parent: "Spaces".into(),
            parent_cols: vec![0],
            parent_arity: 2,
        });
        let atoms = [
            Atom::new("Docs", vec![Term::var("d"), Term::int(7)]),
            Atom::new("Spaces", vec![Term::int(7), Term::var("n")]),
        ];
        match chase(atoms.to_vec(), &deps, &mut Fresh::default()) {
            ChaseOutcome::Consistent { atoms, .. } => assert_eq!(atoms.len(), 2),
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn ind_and_fd_interact() {
        // The spawned parent merges with a keyed sibling.
        let deps = Dependencies::none()
            .with_key("Spaces", vec![0])
            .with_inclusion(Ind {
                child: "Docs".into(),
                child_cols: vec![1],
                parent: "Spaces".into(),
                parent_cols: vec![0],
                parent_arity: 2,
            });
        let atoms = [
            Atom::new("Docs", vec![Term::var("d"), Term::int(7)]),
            Atom::new("Spaces", vec![Term::int(7), Term::str("eng")]),
        ];
        match chase(atoms.to_vec(), &deps, &mut Fresh::default()) {
            ChaseOutcome::Consistent { atoms, .. } => {
                // No duplicate Spaces row: the FK target is the named row.
                assert_eq!(atoms.iter().filter(|a| a.relation == "Spaces").count(), 1);
            }
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn cyclic_inds_terminate() {
        // A(x) -> B(x) and B(x) -> A(x): parents satisfy each other after
        // one round; the round cap guards deeper cycles.
        let deps = Dependencies::none()
            .with_inclusion(Ind {
                child: "A".into(),
                child_cols: vec![0],
                parent: "B".into(),
                parent_cols: vec![0],
                parent_arity: 1,
            })
            .with_inclusion(Ind {
                child: "B".into(),
                child_cols: vec![0],
                parent: "A".into(),
                parent_cols: vec![0],
                parent_arity: 1,
            });
        let atoms = [Atom::new("A", vec![Term::int(1)])];
        match chase(atoms.to_vec(), &deps, &mut Fresh::default()) {
            ChaseOutcome::Consistent { atoms, .. } => {
                assert!(atoms.len() <= 3, "bounded: {atoms:?}");
            }
            ChaseOutcome::Inconsistent => panic!("consistent case"),
        }
    }

    #[test]
    fn normalize_merges_keyed_duplicates() {
        let deps = Dependencies::none().with_key("Docs", vec![0]);
        let q = crate::cq::Cq::new(
            vec![Term::var("t1")],
            vec![
                Atom::new(
                    "Docs",
                    vec![Term::var("d"), Term::var("s1"), Term::var("t1")],
                ),
                Atom::new(
                    "Docs",
                    vec![Term::var("d"), Term::var("s2"), Term::var("t2")],
                ),
            ],
            vec![],
        );
        let n = normalize_cq(&q, &deps);
        assert_eq!(n.atoms.len(), 1);
        // The head survived the unification.
        assert_eq!(n.head.len(), 1);
    }
}
