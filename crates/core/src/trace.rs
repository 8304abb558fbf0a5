//! Query traces and the ground facts they witness.
//!
//! The checker of §2.2 "considers the history of prior queries and their
//! results" — Example 2.1's `Q2` is only allowed because `Q1` returned a
//! row. This module turns observed results into *facts*: atoms known to hold
//! in the current database. Unknown cell values become labeled nulls
//! (Skolem witnesses), which the containment machinery handles natively.
//!
//! Only *positive* observations produce facts: a non-empty result witnesses
//! one satisfying assignment; returned rows witness one assignment each.
//! Empty results carry negative information that facts cannot express, so
//! they are (soundly) ignored.
//!
//! # Compaction: a maintained fixpoint
//!
//! A trace lives as long as its session, so the fact store is maintained,
//! not re-derived. A store is *reduced* when no entry equals an earlier one
//! and no fact is implied by the others — where `f` is *implied* by a set
//! `R` when some substitution of `f`'s variables, the identity on every
//! variable that also occurs in `R`, turns `f` into a member of `R`
//! (exactly what [`qlogic::fact_implied`] decides). Dropping an implied
//! fact leaves the existential conjunction of the store logically
//! equivalent, so no compliance decision — all monotone in it — changes.
//!
//! [`Trace::record_compacting`] keeps the store reduced in time
//! proportional to the facts a record adds. It rests on one lemma.
//!
//! **Lemma.** Let `F` be reduced and `N` the facts one record pushes. A
//! stored `f ∈ F` is implied by `(F ∪ N) \ {f}` only if it maps onto some
//! `g ∈ N` and no variable of `f` occurs in any other fact.
//!
//! *Proof.* Witnessed facts carry only constants and Skolems minted by
//! their own `witness` call, so `N` shares no variable with `F`: the
//! variables of `f` that occur elsewhere are the same with and without
//! `N`. (1) A mapping of `f` onto a member of `F \ {f}` would therefore
//! already have made `f` implied in `F`, which is reduced; so the target
//! `g` is in `N`. (2) `g` holds constants and fresh Skolems only, so a
//! variable of `f` pinned to itself has nothing in `g` to land on; so
//! `f` has none. ∎
//!
//! So after a push the old facts need one cheap test each against the new
//! facts only, and the general test (pinned on Skolems the new facts share
//! among themselves) is needed for the new facts alone. That test is
//! repeated until a pass removes nothing, because a removal can unpin a
//! Skolem: with `T(2,1,1)` stored, a non-empty `ans() :- T(2,b,1), T(2,b,c)`
//! pushes `f = T(2,sk1,1)` and `g = T(2,sk1,sk2)`; `f` is pinned on `sk1`
//! by `g` and stays, `g` drops onto `f`, and only then is `f` — unpinned —
//! implied by `T(2,1,1)`. One oldest-first pass stops one step short; the
//! fixpoint is the target. Removing an old fact unpins nothing (it shared
//! no variable) and removing a new one leaves the old facts' pinned sets
//! as they were, so once the loop ends the whole store is reduced again.
//!
//! [`Trace::compact`] is the executable specification of "reduced": full
//! sweeps to a fixpoint, quadratic, called by nothing in production. The
//! tests hold the incremental store equal in size to it after every push.
//!
//! # Repeats: the no-op rule
//!
//! An observation whose `(query, observation)` equals a stored entry is
//! not recorded at all — no fact derived, no Skolem minted,
//! [`Trace::version`] untouched — and that is decided before anything
//! else, in `Trace::is_repeat`, which every recording method asks first.
//!
//! **Lemma (repeat).** If an entry equal to `(q, o)` is stored, the store
//! already entails every fact recording `(q, o)` again would push.
//!
//! *Proof.* When the entry was stored, its witness facts `W` were pushed
//! (or were already there, fact for fact), so the store entailed `∃ W`. A
//! fact has since left the store in one of two ways. (1) As one implied by
//! what stayed, which keeps the store's existential conjunction logically
//! equivalent. (2) By a revocation, with every fact and every entry over
//! its relation ("Revocation" below). The entry `(q, o)` is still stored,
//! so no relation of `q` was revoked: a revocation dropped only facts over
//! other relations, and a homomorphism from `W` into the store maps each
//! atom onto a fact of its own relation, so it survives. Either way the
//! store still entails `∃ W`. A repeat derives `W'`: the same atoms under
//! fresh Skolems, a renaming of `W`, and `∃ W' ≡ ∃ W`. ∎
//!
//! So pushing `W'` and reducing could only return a store equivalent to
//! the one already held, at the price of deriving, Skolemizing and
//! re-absorbing it; and because nothing changed, a cached denial proved
//! at the trace version stays servable. The rule is not part of
//! compaction; plain [`Trace::record`] obeys it too, so a compacting store,
//! a never-compacted one and the [`Trace::compact`] specification see the
//! same sequence of entries by construction. It also means a repeated join
//! probe no longer leaves one block of mutually pinned facts per repeat
//! (blocks the single-atom test never absorbs).
//!
//! # Revocation
//!
//! A fact holds in the database it was read from. An `UPDATE` or `DELETE`
//! that changes rows of a relation can falsify any fact over it (an
//! `INSERT` falsifies none: facts are positive; a write minidb refuses, or
//! one that matches no row, changes nothing), so the proxy has a session
//! whose trace is behind such a write call [`Trace::revoke`] before it
//! decides (`door.rs`). It drops every fact over a written relation, and
//! every entry whose query reads one.
//!
//! * **Sound.** Every decision is monotone in the facts, so fewer facts
//!   can only block more. A fact over another relation still holds, even
//!   one that shared a Skolem with a dropped fact: its existential names
//!   rows nobody wrote.
//! * **The entries go too.** Otherwise the repeat rule would turn a
//!   re-read of a row that survived the write into a no-op, and its fact
//!   would never come back. With the entry gone, the re-read is news and
//!   restores it.
//! * **The version moves**, so a denial proved before goes stale, and the
//!   store is marked unreduced: a dropped fact can unpin a Skolem a
//!   survivor shares, so the next compacting record runs [`Trace::compact`]
//!   once.
//!
//! # Shortcuts: what a fresh row costs
//!
//! A record that is news pays per witnessed row and per new fact, so the
//! work there is cut to what the store's invariants leave open — without
//! changing one fact, Skolem name, version or dropped count (the
//! `the_trace_is_pinned_fact_for_fact` test pins a scripted sequence).
//! The query's variables are derived once per record, not per row, one
//! substitution is reused across the rows, and a Skolem is
//! [`Sym::skolem`], read from a fixed table where it was spelled with
//! `format!` and interned. Three facts carry the rest. Every variable of
//! a witnessed fact is a Skolem its `witness` call minted (each query
//! variable is bound to a cell or to a fresh Skolem), and the counter
//! only grows, so:
//!
//! 1. **A fact holding a freshly minted Skolem is new to the store.** No
//!    stored fact holds that Skolem: every stored fact was witnessed, and
//!    facts pushed earlier hold earlier Skolems. So it can equal only a
//!    fact the same call pushed — `ans(x, y) :- R(x, z), R(y, z)` on row
//!    `(5, 5)` makes both atoms `R(5, sk)` — and `witness` scans the
//!    call's own facts for it; only a ground fact is looked up in the
//!    whole store.
//! 2. **A ground fact is never implied.** With no variable to move, it
//!    maps only onto an equal fact, and no two stored facts are equal
//!    (every push is checked, removals make no duplicates). So `absorb`
//!    tests neither a ground old fact nor a ground new one.
//! 3. **After the first pass, only a new fact sharing a variable with a
//!    fact removed in the previous pass, or earlier in the current one,
//!    can change its verdict.** Any other new fact failed its last test,
//!    one pass ago; no fact it shares a variable with has left since, so
//!    its pinned set is the same, and its candidate targets are a subset
//!    of what they were (facts only leave). It fails again, so skipping
//!    it leaves the sequence of removals — and with it the store, the
//!    version and the counts — exactly as testing it would.
//!
//! And a pin only forbids mappings, so a new fact that maps onto nothing
//! with no variable pinned is not implied; its pinned set is computed
//! only when some fact passes that unpinned test.
//!
//! # Byte account
//!
//! [`HeapUsage::heap_bytes`](crate::mem::HeapUsage) walks the trace: two
//! vector capacities plus what each entry and fact owns. Nothing is kept
//! up to date between calls; the proxy asks when a gauge is read or a
//! session ends.

use std::mem::size_of;

use qlogic::{Atom, CVal, Cq, Subst, Sym, Term};
use sqlir::Value;

use crate::mem::{atom_heap_bytes, cq_heap_bytes, value_heap_bytes};

/// What was observed about a query's result.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// The result was empty.
    Empty,
    /// The result was non-empty (row contents unrecorded).
    NonEmpty,
    /// The exact rows returned.
    Rows(Vec<Vec<Value>>),
}

impl Observation {
    /// Builds an observation from result rows, keeping at most `keep` rows'
    /// contents (beyond that, only non-emptiness is recorded).
    pub fn from_rows(rows: &[Vec<Value>], keep: usize) -> Observation {
        if rows.is_empty() {
            Observation::Empty
        } else if rows.len() <= keep {
            Observation::Rows(rows.to_vec())
        } else {
            Observation::NonEmpty
        }
    }

    /// Whether [`Observation::from_rows`]`(rows, keep)` would equal `self`,
    /// decided without cloning a row.
    fn is_from_rows(&self, rows: &[Vec<Value>], keep: usize) -> bool {
        match self {
            Observation::Empty => rows.is_empty(),
            Observation::NonEmpty => rows.len() > keep,
            Observation::Rows(kept) => !rows.is_empty() && rows.len() <= keep && kept == rows,
        }
    }
}

/// One trace entry: an (instantiated) query and what it returned.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The query, parameters already bound.
    pub query: Cq,
    /// The observation.
    pub observation: Observation,
}

/// A session's query history with derived facts.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    facts: Vec<Atom>,
    skolem_counter: u64,
    /// Bumped whenever the fact set changes (push, compaction removal or
    /// revocation).
    /// Cached decisions that depended on the facts are kept only while this
    /// is unchanged; `facts().len()` would be unsound once compaction can
    /// shrink the set (the same count can name a different set).
    version: u64,
    /// Set by the mutations that do not restore the reduced store (plain
    /// [`Trace::record`], [`Trace::revoke`]), cleared by
    /// [`Trace::compact`]. While set, the lemma's premise may not hold.
    unreduced: bool,
}

/// Maximum rows per observation that contribute facts (keeps fact sets and
/// hence checking costs bounded).
pub const MAX_FACT_ROWS: usize = 16;

/// Heap bytes one stored entry owns: the query plus recorded rows.
fn entry_bytes(entry: &TraceEntry) -> usize {
    let mut b = cq_heap_bytes(&entry.query);
    if let Observation::Rows(rows) = &entry.observation {
        b += rows.capacity() * size_of::<Vec<Value>>();
        for row in rows {
            b += row.capacity() * size_of::<Value>();
            b += row.iter().map(value_heap_bytes).sum::<usize>();
        }
    }
    b
}

/// Whether `atom` has a variable — for a witnessed fact, a Skolem.
fn has_variable(atom: &Atom) -> bool {
    atom.args.iter().any(|t| matches!(t, Term::Var(_)))
}

/// `c.to_value() == *v`, without building the `Value` (for a text cell, a
/// `String`).
fn is_value(c: CVal, v: &Value) -> bool {
    match (c, v) {
        (CVal::Null, Value::Null) => true,
        (CVal::Int(a), Value::Int(b)) => a == *b,
        (CVal::Str(a), Value::Str(b)) => a.as_str() == b.as_str(),
        (CVal::Bool(a), Value::Bool(b)) => a == *b,
        _ => false,
    }
}

/// Whether some substitution of `src`'s variables — the identity on those
/// in `pinned` — turns `src` into `dst`: [`qlogic::fact_implied`]'s search,
/// for one target atom, without compiling a problem.
fn maps_onto(src: &Atom, dst: &Atom, pinned: &[Sym]) -> bool {
    let free = |t: &Term| matches!(t, Term::Var(v) if !pinned.contains(v));
    src.relation == dst.relation
        && src.args.len() == dst.args.len()
        // Constants and pinned variables must be met outright; this alone
        // turns away nearly every candidate, so it runs first.
        && src.args.iter().zip(&dst.args).all(|(s, d)| free(s) || s == d)
        // A free variable binds at its first occurrence; a repeat must land
        // where the first did.
        && src.args.iter().enumerate().all(|(k, s)| {
            !free(s)
                || src.args[..k]
                    .iter()
                    .position(|earlier| earlier == s)
                    .is_none_or(|first| dst.args[first] == dst.args[k])
        })
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records a query and its observation, deriving facts, without
    /// compacting: entries and facts only ever grow. An entry equal to a
    /// stored one is a no-op (module docs, "Repeats").
    pub fn record(&mut self, query: Cq, observation: Observation) {
        if !self.is_repeat(&query, |o| *o == observation) {
            self.store(query, observation, false);
        }
    }

    /// Records a query and its observation and leaves the store reduced
    /// (see the module docs): every fact the record makes redundant is
    /// dropped, in time proportional to the facts it adds. Returns how many
    /// facts were dropped. An entry equal to a stored one is a no-op and
    /// returns 0.
    ///
    /// A trace that plain [`Trace::record`] or [`Trace::revoke`] has
    /// touched is first brought to the fixpoint by [`Trace::compact`], once.
    pub fn record_compacting(&mut self, query: Cq, observation: Observation) -> usize {
        if self.is_repeat(&query, |o| *o == observation) {
            return 0;
        }
        self.store(query, observation, true)
    }

    /// Records what a `SELECT` returned — [`Observation::from_rows`] at
    /// [`MAX_FACT_ROWS`], built only when the entry is not a repeat — as
    /// [`Trace::record_compacting`] or as [`Trace::record`]. Returns how many
    /// facts were dropped.
    pub fn record_rows(&mut self, query: Cq, rows: &[Vec<Value>], compacting: bool) -> usize {
        if self.is_repeat(&query, |o| o.is_from_rows(rows, MAX_FACT_ROWS)) {
            return 0;
        }
        let observation = Observation::from_rows(rows, MAX_FACT_ROWS);
        self.store(query, observation, compacting)
    }

    /// The no-op rule (module docs, "Repeats"): whether an entry with this
    /// query and an observation `same` accepts is stored. Every recording
    /// method asks this before it derives anything.
    fn is_repeat(&self, query: &Cq, same: impl Fn(&Observation) -> bool) -> bool {
        self.entries
            .iter()
            .any(|e| e.query == *query && same(&e.observation))
    }

    /// Stores an entry [`Trace::is_repeat`] turned away, with its facts.
    fn store(&mut self, query: Cq, observation: Observation, compacting: bool) -> usize {
        let first_new = self.facts.len();
        self.witness_observation(&query, &observation);
        self.entries.push(TraceEntry { query, observation });
        if !compacting {
            self.unreduced = true;
            0
        } else if self.unreduced {
            self.compact()
        } else {
            self.absorb(first_new)
        }
    }

    /// Restores the reduced store after `facts[first_new..]` were pushed
    /// onto one, by the module docs' lemma.
    fn absorb(&mut self, mut first_new: usize) -> usize {
        if first_new == self.facts.len() {
            return 0;
        }
        let mut dropped = 0;
        // Old facts, oldest first (so a later, more specific fact absorbs
        // an earlier Skolemized one): only one that maps onto a new fact
        // and shares no variable can have become implied — and a ground
        // one never is.
        let mut i = 0;
        while i < first_new {
            let old = &self.facts[i];
            if has_variable(old)
                && self.facts[first_new..]
                    .iter()
                    .any(|new| maps_onto(old, new, &[]))
                && !self.shares_a_variable(i)
            {
                self.remove_fact(i);
                first_new -= 1;
                dropped += 1;
            } else {
                i += 1;
            }
        }
        // New facts: the general test, pinned on the Skolems they share —
        // fresh, so only with each other — until a pass removes nothing (a
        // removal can unpin a survivor). A ground fact is never implied,
        // and after the first pass only a fact sharing a variable with one
        // removed in the previous pass or earlier in this one can have
        // changed (module docs, "Shortcuts").
        let mut pinned = Vec::new();
        let (mut freed_before, mut freed_now) = (Vec::new(), Vec::new());
        let mut first_pass = true;
        loop {
            let before = dropped;
            let mut i = first_new;
            while i < self.facts.len() {
                let new = &self.facts[i];
                let candidate = if first_pass {
                    has_variable(new)
                } else {
                    new.args
                        .iter()
                        .filter_map(Term::as_var)
                        .any(|v| freed_before.contains(&v) || freed_now.contains(&v))
                };
                if candidate && self.implied_new(first_new, i, &mut pinned) {
                    freed_now.extend(self.facts[i].args.iter().filter_map(Term::as_var));
                    self.remove_fact(i);
                    dropped += 1;
                } else {
                    i += 1;
                }
            }
            if dropped == before {
                return dropped;
            }
            std::mem::swap(&mut freed_before, &mut freed_now);
            freed_now.clear();
            first_pass = false;
        }
    }

    /// Whether the new fact `facts[i]` maps onto another fact, pinned on
    /// the variables it shares with `facts[first_new..]`.
    fn implied_new(&self, first_new: usize, i: usize, pinned: &mut Vec<Sym>) -> bool {
        let new = &self.facts[i];
        let maps = |pinned: &[Sym]| {
            (0..self.facts.len()).any(|j| j != i && maps_onto(new, &self.facts[j], pinned))
        };
        // A pin only forbids mappings, so a fact that maps nowhere unpinned
        // needs no pinned set.
        if !maps(&[]) {
            return false;
        }
        self.pinned_variables(first_new, i, pinned);
        maps(pinned)
    }

    /// Whether a variable of `facts[i]` occurs in any other fact. Facts
    /// that share a variable were witnessed together and sit side by side,
    /// so the search runs outward from `i`: a repeated join probe leaves
    /// blocks that pin each other, one per repeat, and each is tested on
    /// every later repeat.
    fn shares_a_variable(&self, i: usize) -> bool {
        let shares = |j: usize| {
            let (f, other) = (&self.facts[i], &self.facts[j]);
            f.args
                .iter()
                .any(|t| matches!(t, Term::Var(_)) && other.args.contains(t))
        };
        let n = self.facts.len();
        (1..n).any(|d| (d <= i && shares(i - d)) || (i + d < n && shares(i + d)))
    }

    /// Fills `out` with the variables of `facts[i]` that occur in another
    /// fact of `facts[from..]` — for a fact of the current record, whose
    /// Skolems are fresh, every variable it shares with anything.
    fn pinned_variables(&self, from: usize, i: usize, out: &mut Vec<Sym>) {
        out.clear();
        for t in &self.facts[i].args {
            if let Term::Var(v) = t {
                if !out.contains(v)
                    && (from..self.facts.len()).any(|j| j != i && self.facts[j].args.contains(t))
                {
                    out.push(*v);
                }
            }
        }
    }

    fn witness_observation(&mut self, query: &Cq, observation: &Observation) {
        let rows = match observation {
            Observation::Empty => return,
            Observation::NonEmpty => None,
            Observation::Rows(rows) => Some(rows),
        };
        // One plan per record: the variables to bind, derived once, and one
        // substitution, cleared per row.
        let variables = query.variables();
        let mut subst = Subst::with_capacity(variables.len());
        match rows {
            None => self.witness(query, &variables, &mut subst, None),
            Some(rows) => {
                for row in rows.iter().take(MAX_FACT_ROWS) {
                    self.witness(query, &variables, &mut subst, Some(row));
                }
            }
        }
    }

    /// Adds the facts witnessed by one satisfying assignment: head variables
    /// bound to the returned row (if given), all other `variables` of
    /// `query` Skolemized. `subst` is scratch space.
    fn witness(&mut self, query: &Cq, variables: &[Sym], subst: &mut Subst, row: Option<&[Value]>) {
        subst.clear();
        if let Some(row) = row {
            if row.len() != query.head.len() {
                return; // malformed observation; contribute nothing
            }
            for (h, v) in query.head.iter().zip(row) {
                if let Term::Var(name) = h {
                    if v.is_null() {
                        continue; // a NULL tells us nothing definite
                    }
                    match subst.get(name) {
                        Some(Term::Const(prev)) if !is_value(*prev, v) => return,
                        Some(_) => {} // bound to this very value already
                        None => {
                            subst.insert(*name, Term::constant(v));
                        }
                    }
                }
            }
        }
        for &v in variables {
            if !subst.contains_key(&v) {
                self.skolem_counter += 1;
                subst.insert(v, Term::Var(Sym::skolem(self.skolem_counter)));
            }
        }
        // A fact holding a Skolem minted just above is new to the store; it
        // can only repeat one this call pushed (module docs, "Shortcuts").
        let call_start = self.facts.len();
        for atom in &query.atoms {
            let fact = qlogic::cq::apply_atom(atom, subst);
            let from = if has_variable(&fact) { call_start } else { 0 };
            if !self.facts[from..].contains(&fact) {
                self.push_fact(fact);
            }
        }
    }

    fn push_fact(&mut self, fact: Atom) {
        self.facts.push(fact);
        self.version += 1;
    }

    fn remove_fact(&mut self, i: usize) {
        self.facts.remove(i);
        self.version += 1;
    }

    /// The derived facts.
    pub fn facts(&self) -> &[Atom] {
        &self.facts
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Revokes what the trace knew about the relations in `written`, whose
    /// rows a write may have changed: drops every fact over one, and every
    /// entry whose query reads one (module docs, "Revocation"). Returns
    /// whether anything was dropped; if so, the version moves and the store
    /// is marked unreduced.
    pub fn revoke(&mut self, written: &[&str]) -> bool {
        let over = |atom: &Atom| written.contains(&atom.relation.as_str());
        let before = (self.entries.len(), self.facts.len());
        self.entries.retain(|e| !e.query.atoms.iter().any(over));
        self.facts.retain(|f| !over(f));
        let dropped = (self.entries.len(), self.facts.len()) != before;
        if dropped {
            self.version += 1;
            self.unreduced = true;
        }
        dropped
    }

    /// Monotone fact-set version: changes (strictly increases) whenever the
    /// fact set changes in any way. Decision caches key on this instead of
    /// `facts().len()`, which compaction can make ambiguous.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Subsumption-based compaction, the reference: sweeps the facts
    /// oldest-first, dropping each one homomorphically implied by the
    /// others (identity-pinned on shared labeled nulls), and repeats the
    /// sweep until one drops nothing — a drop can unpin a fact an earlier
    /// step had to keep. Returns how many facts were dropped. (Entries need
    /// no pass: no recording method stores one equal to a stored one.)
    ///
    /// Soundness: the fact set before and after is logically *equivalent*
    /// (each dropped fact is entailed by what stays), so trace-aware proofs
    /// succeed after compaction exactly when they succeeded before.
    ///
    /// Quadratic in the store with an allocation per fact per sweep;
    /// [`Trace::record_compacting`] is what a hot path calls.
    pub fn compact(&mut self) -> usize {
        let mut dropped = 0;
        loop {
            let before = dropped;
            let mut i = 0;
            while i < self.facts.len() {
                let mut remainder = Vec::with_capacity(self.facts.len() - 1);
                remainder.extend_from_slice(&self.facts[..i]);
                remainder.extend_from_slice(&self.facts[i + 1..]);
                if qlogic::fact_implied(&self.facts[i], &remainder) {
                    self.remove_fact(i);
                    dropped += 1;
                } else {
                    i += 1;
                }
            }
            if dropped == before {
                break;
            }
        }
        self.unreduced = false;
        dropped
    }
}

impl crate::mem::HeapUsage for Trace {
    /// Entries (query CQs plus recorded observation rows) and derived
    /// facts, walked: the two vectors' buffers from their capacities, then
    /// what each element owns.
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<TraceEntry>()
            + self.facts.capacity() * size_of::<Atom>()
            + self.facts.iter().map(atom_heap_bytes).sum::<usize>()
            + self.entries.iter().map(entry_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlogic::CmpOp;

    fn q1() -> Cq {
        // ans(1) :- Attendance(1, 2, n)
        Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::int(2), Term::var("n")],
            )],
            vec![],
        )
    }

    /// `q1` under another head constant: a distinct entry (no repeat) that
    /// witnesses the same atom under a fresh Skolem.
    fn q1_headed(h: i64) -> Cq {
        Cq {
            head: vec![Term::int(h)],
            ..q1()
        }
    }

    #[test]
    fn nonempty_witnesses_skolemized_atom() {
        let mut t = Trace::new();
        t.record(q1(), Observation::NonEmpty);
        assert_eq!(t.facts().len(), 1);
        let f = &t.facts()[0];
        assert_eq!(f.relation, "Attendance");
        assert_eq!(f.args[0], Term::int(1));
        assert_eq!(f.args[1], Term::int(2));
        assert!(matches!(f.args[2], Term::Var(_)), "notes is a labeled null");
    }

    #[test]
    fn empty_observation_adds_no_facts() {
        let mut t = Trace::new();
        t.record(q1(), Observation::Empty);
        assert!(t.facts().is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rows_bind_head_variables() {
        // ans(e) :- Attendance(7, e, n); returned rows e = 4 and e = 9.
        let q = Cq::new(
            vec![Term::var("e")],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(7), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let mut t = Trace::new();
        t.record(
            q,
            Observation::Rows(vec![vec![Value::Int(4)], vec![Value::Int(9)]]),
        );
        assert_eq!(t.facts().len(), 2);
        assert_eq!(t.facts()[0].args[1], Term::int(4));
        assert_eq!(t.facts()[1].args[1], Term::int(9));
        // Distinct Skolems for the two notes cells.
        assert_ne!(t.facts()[0].args[2], t.facts()[1].args[2]);
    }

    #[test]
    fn join_query_witnesses_both_atoms_with_shared_skolem() {
        // ans(t) :- Events(e, t), Attendance(1, e, n): one non-empty result
        // witnesses both atoms with the SAME Skolem for e.
        let q = Cq::new(
            vec![Term::var("t")],
            vec![
                Atom::new("Events", vec![Term::var("e"), Term::var("t")]),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        let e_in_events = &t.facts()[0].args[0];
        let e_in_att = &t.facts()[1].args[1];
        assert_eq!(e_in_events, e_in_att);
    }

    #[test]
    fn null_cells_contribute_nothing_definite() {
        let q = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::Rows(vec![vec![Value::Null]]));
        // The fact exists but with a Skolem, not a bogus NULL constant.
        assert_eq!(t.facts().len(), 1);
        assert!(matches!(t.facts()[0].args[0], Term::Var(_)));
    }

    #[test]
    fn facts_deduplicate() {
        let mut t = Trace::new();
        let q = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new("R", vec![Term::int(5)])],
            vec![],
        );
        // A second entry (another head) witnessing the same ground atom.
        let again = Cq {
            head: vec![Term::int(2)],
            ..q.clone()
        };
        t.record(q, Observation::NonEmpty);
        t.record(again, Observation::NonEmpty);
        assert_eq!((t.len(), t.facts().len()), (2, 1));
    }

    #[test]
    fn comparisons_do_not_block_witnessing() {
        let q = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![qlogic::Comparison::new(
                Term::var("x"),
                CmpOp::Ge,
                Term::int(10),
            )],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 1);
    }

    #[test]
    fn version_changes_on_fact_pushes_and_removals_only() {
        let mut t = Trace::new();
        let v0 = t.version();
        t.record(q1(), Observation::Empty); // no facts
        assert_eq!(t.version(), v0);
        t.record(q1(), Observation::NonEmpty);
        let v1 = t.version();
        assert!(v1 > v0);
        // The same atom witnessed through another entry adds a fresh-Skolem
        // fact (new version); compaction then removes it (another version
        // change) — the stamp never repeats for a different fact set.
        t.record(q1_headed(2), Observation::NonEmpty);
        let v2 = t.version();
        assert!(v2 > v1);
        let dropped = t.compact();
        assert!(dropped > 0);
        assert!(t.version() > v2);
    }

    #[test]
    fn a_repeated_entry_is_a_no_op_for_every_recording_method() {
        use crate::mem::HeapUsage;
        let rows = vec![vec![Value::Int(1)]];
        let mut t = Trace::new();
        t.record_compacting(q1(), Observation::NonEmpty);
        t.record_compacting(q1(), Observation::Rows(rows.clone()));
        t.record_compacting(q1(), Observation::Empty);
        let before = (t.clone(), t.version(), t.heap_bytes());
        for compacting in [true, false] {
            assert_eq!(t.record_compacting(q1(), Observation::NonEmpty), 0);
            t.record(q1(), Observation::NonEmpty);
            assert_eq!(t.record_rows(q1(), &rows, compacting), 0);
            assert_eq!(t.record_rows(q1(), &[], compacting), 0);
        }
        assert_eq!(
            (t.entries(), t.facts()),
            (before.0.entries(), before.0.facts())
        );
        assert_eq!((t.version(), t.heap_bytes()), (before.1, before.2));
        assert_eq!(t.skolem_counter, before.0.skolem_counter, "nothing minted");
        assert_eq!(t.clone().compact(), 0, "and the store is still reduced");
        // More rows than are kept is `NonEmpty`, stored above; a different
        // row set is news.
        let many = vec![vec![Value::Int(1)]; MAX_FACT_ROWS + 1];
        assert_eq!(t.record_rows(q1(), &many, true), 0);
        assert_eq!(t.len(), 3);
        t.record_rows(q1(), &[vec![Value::Int(1)], vec![Value::Int(1)]], true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn is_from_rows_agrees_with_from_rows() {
        let row = vec![Value::Int(1), Value::str("a")];
        let inputs: Vec<Vec<Vec<Value>>> = vec![
            vec![],
            vec![row.clone()],
            vec![row.clone(), vec![Value::Null, Value::Null]],
            vec![row.clone(); 3],
        ];
        for keep in 0..3 {
            for a in &inputs {
                for b in &inputs {
                    let built = Observation::from_rows(a, keep);
                    assert_eq!(
                        built.is_from_rows(b, keep),
                        built == Observation::from_rows(b, keep),
                        "keep {keep}: {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Hand-built observations `from_rows` never returns match nothing.
        assert!(!Observation::Rows(vec![]).is_from_rows(&[], 2));
        assert!(!Observation::Rows(inputs[3].clone()).is_from_rows(&inputs[3], 2));
    }

    #[test]
    fn compact_drops_skolem_duplicates_but_keeps_information() {
        let mut t = Trace::new();
        t.record(q1(), Observation::NonEmpty);
        t.record(q1_headed(2), Observation::NonEmpty);
        t.record(q1_headed(3), Observation::NonEmpty);
        assert_eq!(t.facts().len(), 3, "each entry mints a fresh Skolem");
        assert_eq!(t.compact(), 2, "two implied facts");
        assert_eq!(t.facts().len(), 1);
        assert_eq!(t.len(), 3, "distinct entries all stay");
    }

    #[test]
    fn compact_keeps_facts_with_shared_skolems() {
        // A join witnesses two atoms sharing one Skolem: neither atom may be
        // dropped, because the other still references that labeled null.
        let q = Cq::new(
            vec![Term::var("t")],
            vec![
                Atom::new("Events", vec![Term::var("e"), Term::var("t")]),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        assert_eq!(t.compact(), 0);
        assert_eq!(t.facts().len(), 2);
    }

    #[test]
    fn compact_absorbs_skolemized_fact_into_specific_row() {
        // NonEmpty first (Skolemized event id), then the concrete row: the
        // generic fact is implied by the specific one and gets dropped.
        let generic = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let specific = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::int(2), Term::var("n")],
            )],
            vec![],
        );
        let mut t = Trace::new();
        t.record(generic, Observation::NonEmpty);
        t.record(specific, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        assert!(t.compact() > 0);
        assert_eq!(t.facts().len(), 1);
        assert_eq!(t.facts()[0].args[1], Term::int(2), "specific fact stays");
    }

    /// `ans() :- T(2, b, 1), T(2, b, c)`: non-empty, it witnesses
    /// `f = T(2, sk, 1)` and `g = T(2, sk, sk')`, which share `sk`.
    fn pinned_pair() -> Cq {
        let t = |b: Term, c: Term| Atom::new("T", vec![Term::int(2), b, c]);
        Cq::new(
            vec![],
            vec![
                t(Term::var("b"), Term::int(1)),
                t(Term::var("b"), Term::var("c")),
            ],
            vec![],
        )
    }

    fn ground_t() -> Cq {
        let t = Atom::new("T", vec![Term::int(2), Term::int(1), Term::int(1)]);
        Cq::new(vec![], vec![t], vec![])
    }

    #[test]
    fn compact_runs_to_a_fixpoint() {
        // One oldest-first sweep keeps `f` (pinned by `g`), then drops `g`
        // onto `f`; only a second sweep sees `f`, now unpinned, implied by
        // the ground fact. A single-pass compact() returned (1, 1) here.
        let mut t = Trace::new();
        t.record(ground_t(), Observation::NonEmpty);
        t.record(pinned_pair(), Observation::NonEmpty);
        assert_eq!(t.facts().len(), 3);
        assert_eq!((t.compact(), t.compact()), (2, 0));
        assert_eq!(t.facts(), &ground_t().atoms[..]);
    }

    #[test]
    fn record_compacting_reaches_the_same_fixpoint_one_record_at_a_time() {
        let mut t = Trace::new();
        assert_eq!(t.record_compacting(ground_t(), Observation::NonEmpty), 0);
        assert_eq!(t.record_compacting(pinned_pair(), Observation::NonEmpty), 2);
        assert_eq!(t.facts(), &ground_t().atoms[..]);
        assert_eq!(t.len(), 2, "distinct entries both stay");
        assert_eq!(t.clone().compact(), 0);
        // The same pair under another head is a new entry: its fresh-Skolem
        // facts are pushed and go, and both moves change the stamp.
        let v = t.version();
        let again = Cq {
            head: vec![Term::int(0)],
            ..pinned_pair()
        };
        assert_eq!(t.record_compacting(again, Observation::NonEmpty), 2);
        assert_eq!((t.len(), t.facts().len()), (3, 1));
        assert!(t.version() > v, "pushes and removals both move the stamp");
    }

    #[test]
    fn record_compacting_absorbs_an_older_skolemized_fact() {
        // The same atom probed through another entry: the old fact goes,
        // the new one stays (the order a full oldest-first sweep produces).
        let mut t = Trace::new();
        t.record_compacting(q1(), Observation::NonEmpty);
        let first = t.facts()[0].clone();
        assert_eq!(t.record_compacting(q1_headed(2), Observation::NonEmpty), 1);
        assert_eq!(t.facts().len(), 1);
        assert_ne!(t.facts()[0], first);
    }

    #[test]
    fn record_compacting_recovers_a_trace_left_unreduced() {
        let mut t = Trace::new();
        t.record(q1(), Observation::NonEmpty);
        t.record(q1_headed(2), Observation::NonEmpty);
        // ans(2) :- Events(2, t): a fact no other one implies.
        let event = Atom::new("Events", vec![Term::int(2), Term::var("t")]);
        t.record(
            Cq::new(vec![Term::int(2)], vec![event], vec![]),
            Observation::NonEmpty,
        );
        assert_eq!((t.len(), t.facts().len()), (3, 3));
        // A repeat leaves even an unreduced trace alone.
        assert_eq!(t.record_compacting(q1(), Observation::NonEmpty), 0);
        assert_eq!((t.len(), t.facts().len()), (3, 3));
        // One full compaction on the way in, incremental from then on.
        assert_eq!(t.record_compacting(q1_headed(3), Observation::NonEmpty), 2);
        assert_eq!((t.len(), t.facts().len()), (4, 2));
        assert_eq!(t.clone().compact(), 0);
        assert_eq!(t.record_compacting(q1_headed(4), Observation::NonEmpty), 1);
        assert_eq!((t.len(), t.facts().len()), (5, 2));
    }

    #[test]
    fn revoke_drops_every_fact_and_entry_over_a_written_relation() {
        // ans(t) :- Events(e, t), Attendance(1, e, n)
        let join = Cq::new(
            vec![Term::var("t")],
            vec![
                Atom::new("Events", vec![Term::var("e"), Term::var("t")]),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        // ans(t) :- Events(2, t)
        let title = Cq::new(
            vec![Term::var("t")],
            vec![Atom::new("Events", vec![Term::int(2), Term::var("t")])],
            vec![],
        );
        let mut t = Trace::new();
        t.record_compacting(join, Observation::Rows(vec![vec![Value::str("a")]]));
        t.record_compacting(q1(), Observation::NonEmpty);
        t.record_compacting(title, Observation::Rows(vec![vec![Value::str("b")]]));
        assert_eq!((t.len(), t.facts().len()), (3, 4));
        let v = t.version();
        assert!(t.revoke(&["Attendance"]));
        // The join's entry went with the probe's; its Events fact stays,
        // Skolem and all: nobody wrote Events.
        assert_eq!(t.len(), 1);
        assert!(t.facts().iter().all(|f| f.relation == "Events"));
        assert_eq!(t.facts().len(), 2);
        assert!(t.version() > v);
        // Nothing left to drop: nothing moves.
        let v = t.version();
        assert!(!t.revoke(&["Attendance", "Nope"]));
        assert_eq!(t.version(), v);
        // The probe is news again, and restores its fact; the store is
        // reduced once more after the record.
        t.record_compacting(q1(), Observation::NonEmpty);
        assert_eq!((t.len(), t.facts().len()), (2, 3));
        assert_eq!(t.clone().compact(), 0);
    }

    /// `(dropped, version, facts, Skolems minted)` after one record.
    type Step = (usize, u64, usize, u64);

    /// Records a scripted sequence through `record_rows` and
    /// `record_compacting` — a `view_author`-shaped read, a probe the
    /// next read absorbs, a 16-row `feed`-shaped read whose titles and
    /// authors repeat, a within-call collision, a repeated head variable
    /// and the `pinned_pair` fixpoint — and returns, after each record,
    /// `(dropped, version, facts, Skolems minted)`, then the facts.
    fn scripted_sequence() -> (Vec<Step>, Vec<String>) {
        let v = |name: &str| Term::var(name);
        // view_author: ans(p, t, b) :- Posts(p, 7, t, b)
        let view_author = Cq::new(
            vec![v("p"), v("t"), v("b")],
            vec![Atom::new(
                "Posts",
                vec![v("p"), Term::int(7), v("t"), v("b")],
            )],
            vec![],
        );
        let view_rows: Vec<Vec<Value>> = (0..4)
            .map(|k| {
                vec![
                    Value::Int(10 + k),
                    Value::str(format!("title {k}")),
                    Value::str(format!("body {k}")),
                ]
            })
            .collect();
        // feed: ans(p, t, a) :- Follows(1, a), Posts(p, a, t, b)
        let feed = Cq::new(
            vec![v("p"), v("t"), v("a")],
            vec![
                Atom::new("Follows", vec![Term::int(1), v("a")]),
                Atom::new("Posts", vec![v("p"), v("a"), v("t"), v("b")]),
            ],
            vec![],
        );
        // Titles and authors repeat; the first four rows are the posts
        // `view_author` returned, so their Skolemized facts drop.
        let feed_rows: Vec<Vec<Value>> = (0..16)
            .map(|k| {
                let author = if k < 4 { 7 } else { [8, 9, 7][k as usize % 3] };
                vec![
                    Value::Int(10 + k),
                    Value::str(format!("title {}", k % 5)),
                    Value::Int(author),
                ]
            })
            .collect();
        // ans() :- Follows(1, a): absorbed by the feed's Follows(1, 7).
        let follows_someone = Cq::new(
            vec![],
            vec![Atom::new("Follows", vec![Term::int(1), v("a")])],
            vec![],
        );
        // ans(x, y) :- R(x, z), R(y, z): row (5, 5) makes both atoms
        // R(5, sk); a NULL cell leaves its variable to a Skolem.
        let collide = Cq::new(
            vec![v("x"), v("y")],
            vec![
                Atom::new("R", vec![v("x"), v("z")]),
                Atom::new("R", vec![v("y"), v("z")]),
            ],
            vec![],
        );
        let collide_rows = vec![
            vec![Value::Int(5), Value::Int(5)],
            vec![Value::Int(6), Value::Null],
        ];
        // ans(x, x, y) :- S(x, y): a row whose repeated cells disagree
        // witnesses nothing.
        let repeated = Cq::new(
            vec![v("x"), v("x"), v("y")],
            vec![Atom::new("S", vec![v("x"), v("y")])],
            vec![],
        );
        let repeated_rows = vec![
            vec![Value::str("u"), Value::str("u"), Value::Int(1)],
            vec![Value::str("u"), Value::str("v"), Value::Int(2)],
            vec![Value::str("w"), Value::str("w"), Value::Null],
        ];
        // Rows are recorded as a `SELECT`'s are; `None` is a non-empty probe.
        let records = [
            (view_author, Some(view_rows)),
            (follows_someone, None),
            (feed, Some(feed_rows)),
            (collide.clone(), Some(collide_rows)),
            (collide, None),
            (repeated, Some(repeated_rows)),
            (ground_t(), None),
            (pinned_pair(), None),
        ];
        let mut t = Trace::new();
        let steps = records
            .into_iter()
            .map(|(q, rows)| {
                let dropped = match rows {
                    Some(rows) => t.record_rows(q, &rows, true),
                    None => t.record_compacting(q, Observation::NonEmpty),
                };
                (dropped, t.version(), t.facts().len(), t.skolem_counter)
            })
            .collect();
        let facts = t.facts().iter().map(ToString::to_string).collect();
        (steps, facts)
    }

    /// The trace's contents are a function of what it was shown, and the
    /// shortcuts in `witness` and `absorb` (module docs) change only what
    /// that costs. The literals below were generated by running
    /// `scripted_sequence` on the trace as it stood before those
    /// shortcuts (re-deriving the plan per row, scanning the whole store
    /// for every fact, re-testing every new fact on every pass): every
    /// fact, Skolem name, version and dropped count must stay as it was.
    #[test]
    fn the_trace_is_pinned_fact_for_fact() {
        let (steps, facts) = scripted_sequence();
        assert_eq!(
            steps,
            [
                (0, 4, 4, 0),
                (0, 5, 5, 1),
                (5, 29, 19, 17),
                (1, 33, 21, 20),
                (2, 37, 21, 23),
                (0, 39, 23, 24),
                (0, 40, 24, 24),
                (2, 44, 24, 26),
            ]
        );
        assert_eq!(
            facts,
            [
                "Posts(10, 7, 'title 0', 'body 0')",
                "Posts(11, 7, 'title 1', 'body 1')",
                "Posts(12, 7, 'title 2', 'body 2')",
                "Posts(13, 7, 'title 3', 'body 3')",
                "Follows(1, 7)",
                "Follows(1, 9)",
                "Posts(14, 9, 'title 4', sk6)",
                "Posts(15, 7, 'title 0', sk7)",
                "Follows(1, 8)",
                "Posts(16, 8, 'title 1', sk8)",
                "Posts(17, 9, 'title 2', sk9)",
                "Posts(18, 7, 'title 3', sk10)",
                "Posts(19, 8, 'title 4', sk11)",
                "Posts(20, 9, 'title 0', sk12)",
                "Posts(21, 7, 'title 1', sk13)",
                "Posts(22, 8, 'title 2', sk14)",
                "Posts(23, 9, 'title 3', sk15)",
                "Posts(24, 7, 'title 4', sk16)",
                "Posts(25, 8, 'title 0', sk17)",
                "R(5, sk18)",
                "R(6, sk20)",
                "S('u', 1)",
                "S('w', sk24)",
                "T(2, 1, 1)",
            ]
        );
    }
}
