//! A small constraint reasoner for conjunctions of comparisons.
//!
//! [`CmpContext`] takes a conjunction of comparisons over terms (variables,
//! constants, parameters) and supports two queries:
//!
//! * [`CmpContext::is_unsat`] — is the conjunction definitely unsatisfiable?
//! * [`CmpContext::entails`] — does the conjunction definitely entail another
//!   comparison?
//!
//! Both answers are *sound but incomplete*: `false` means "could not prove".
//! The reasoner contracts equalities, computes the transitive closure of the
//! order relation (tracking strictness), seeds the true order among
//! constants, and tracks disequalities. It does not perform integer
//! tightening (`1 < x AND x < 2` over integers is not detected as
//! unsatisfiable); callers that need exact answers at small scale use the
//! `bep-disclose` small-model enumerator instead.

use std::collections::HashMap;

use crate::cq::{CmpOp, Comparison, Term};

/// Reachability flags between term nodes (`le` = ≤ derivable, `lt` = <
/// derivable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Reach {
    le: bool,
    lt: bool,
}

/// A preprocessed conjunction of comparisons.
#[derive(Debug, Clone)]
pub struct CmpContext {
    /// Canonical representative term of each node.
    nodes: Vec<Term>,
    /// Map from every seen term to its node index.
    index: HashMap<Term, usize>,
    /// `reach[i][j]`: is `nodes[i] ≤ nodes[j]` (and strictly?) derivable.
    reach: Vec<Vec<Reach>>,
    /// Disequalities between node indices (stored unordered).
    ne: Vec<(usize, usize)>,
    unsat: bool,
}

/// Union-find with path compression.
struct Uf {
    parent: Vec<usize>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

impl CmpContext {
    /// Builds the context from a conjunction of comparisons.
    pub fn new(comparisons: &[Comparison]) -> CmpContext {
        // Collect distinct terms.
        let mut terms: Vec<Term> = Vec::new();
        let term_idx = |terms: &mut Vec<Term>, t: &Term| -> usize {
            match terms.iter().position(|x| x == t) {
                Some(i) => i,
                None => {
                    terms.push(*t);
                    terms.len() - 1
                }
            }
        };
        let mut triples: Vec<(usize, CmpOp, usize)> = Vec::new();
        for c in comparisons {
            let l = term_idx(&mut terms, &c.lhs);
            let r = term_idx(&mut terms, &c.rhs);
            triples.push((l, c.op, r));
        }

        // 1. Contract equalities with union-find. Equating two distinct
        //    rigid terms is an immediate contradiction (unless they are the
        //    same constant, which would be the same node already).
        let mut uf = Uf::new(terms.len());
        let mut unsat = false;
        for &(l, op, r) in &triples {
            if op == CmpOp::Eq {
                if terms[l].is_rigid() && terms[r].is_rigid() && terms[l] != terms[r] {
                    // Two different parameters *could* be equal; two
                    // different constants cannot.
                    if let (Term::Const(_), Term::Const(_)) = (&terms[l], &terms[r]) {
                        unsat = true;
                    }
                }
                uf.union(l, r);
            }
        }
        // Prefer a rigid representative for each class so constant seeding
        // still applies after contraction.
        let mut rep_of_class: HashMap<usize, usize> = HashMap::new();
        for i in 0..terms.len() {
            let root = uf.find(i);
            let entry = rep_of_class.entry(root).or_insert(i);
            if !terms[*entry].is_rigid() && terms[i].is_rigid() {
                *entry = i;
            }
        }
        // Conflicting rigid members in one class → unsat (two distinct
        // constants unified).
        for i in 0..terms.len() {
            let root = uf.find(i);
            let rep = rep_of_class[&root];
            if let (Term::Const(a), Term::Const(b)) = (&terms[i], &terms[rep]) {
                if a != b {
                    unsat = true;
                }
            }
        }

        // Build node list from representatives.
        let mut nodes: Vec<Term> = Vec::new();
        let mut index: HashMap<Term, usize> = HashMap::new();
        let mut node_of: HashMap<usize, usize> = HashMap::new(); // class root -> node
        for i in 0..terms.len() {
            let root = uf.find(i);
            let rep = rep_of_class[&root];
            let node = match node_of.get(&root) {
                Some(&n) => n,
                None => {
                    // Distinct constants must remain distinct nodes, but the
                    // same constant reached via different classes stays
                    // merged through `index`.
                    let n = match index.get(&terms[rep]) {
                        Some(&n) => n,
                        None => {
                            nodes.push(terms[rep]);
                            index.insert(terms[rep], nodes.len() - 1);
                            nodes.len() - 1
                        }
                    };
                    node_of.insert(root, n);
                    n
                }
            };
            index.entry(terms[i]).or_insert(node);
        }

        let n = nodes.len();
        let mut reach = vec![vec![Reach::default(); n]; n];
        let mut ne: Vec<(usize, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            reach[i][i] = Reach {
                le: true,
                lt: false,
            };
        }

        let add_edge = |reach: &mut Vec<Vec<Reach>>, a: usize, b: usize, strict: bool| {
            reach[a][b].le = true;
            if strict {
                reach[a][b].lt = true;
            }
        };

        // 2. Seed the true order among constants.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if let (Term::Const(a), Term::Const(b)) = (&nodes[i], &nodes[j]) {
                    if a.total_cmp(b) == std::cmp::Ordering::Less {
                        add_edge(&mut reach, i, j, true);
                    }
                    ne.push((i, j));
                }
            }
        }

        // 3. Edges from the comparisons themselves.
        for &(l, op, r) in &triples {
            let (a, b) = (index[&terms[l]], index[&terms[r]]);
            match op {
                CmpOp::Eq => {} // contracted above
                CmpOp::Ne => ne.push((a, b)),
                CmpOp::Lt => add_edge(&mut reach, a, b, true),
                CmpOp::Le => add_edge(&mut reach, a, b, false),
                CmpOp::Gt => add_edge(&mut reach, b, a, true),
                CmpOp::Ge => add_edge(&mut reach, b, a, false),
            }
        }

        // 4. Transitive closure (Floyd–Warshall over (le, lt)).
        for k in 0..n {
            for i in 0..n {
                if !reach[i][k].le {
                    continue;
                }
                for j in 0..n {
                    if reach[k][j].le {
                        let lt = reach[i][k].lt || reach[k][j].lt;
                        reach[i][j].le = true;
                        reach[i][j].lt |= lt;
                    }
                }
            }
        }

        // 5. Contradictions.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if reach[i][i].lt {
                unsat = true;
            }
        }
        for &(a, b) in &ne {
            // `a ≠ a` is contradictory outright; `a ≤ b ≤ a` forces the two
            // nodes equal, contradicting the disequality.
            if a == b || (reach[a][b].le && reach[b][a].le) {
                unsat = true;
            }
        }

        CmpContext {
            nodes,
            index,
            reach,
            ne,
            unsat,
        }
    }

    /// `true` if the conjunction is definitely unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    fn node(&self, t: &Term) -> Option<usize> {
        self.index.get(t).copied()
    }

    /// Checks whether two terms are forced equal by the context.
    fn forced_eq(&self, a: &Term, b: &Term) -> bool {
        if a == b {
            return true;
        }
        match (self.node(a), self.node(b)) {
            (Some(i), Some(j)) => {
                i == j
                    || (self.reach[i][j].le
                        && self.reach[j][i].le
                        && !self.reach[i][j].lt
                        && !self.reach[j][i].lt)
            }
            _ => false,
        }
    }

    fn known_le(&self, a: &Term, b: &Term, strict: bool) -> bool {
        // Direct constant comparison works even for terms the context never
        // saw.
        if let (Term::Const(x), Term::Const(y)) = (a, b) {
            let op = if strict { CmpOp::Lt } else { CmpOp::Le };
            if let Some(res) = op.eval(x, y) {
                return res;
            }
        }
        if !strict && a == b {
            return true;
        }
        match (self.node(a), self.node(b)) {
            (Some(i), Some(j)) => {
                if strict {
                    self.reach[i][j].lt
                } else {
                    self.reach[i][j].le || i == j
                }
            }
            (None, Some(j)) => {
                // `a` is a constant the context never saw: route through a
                // constant node c with a ≤ c ≤ b.
                let Term::Const(av) = a else { return false };
                self.nodes.iter().enumerate().any(|(k, n)| {
                    let Term::Const(cv) = n else { return false };
                    let first_strict = av.total_cmp(cv) == std::cmp::Ordering::Less;
                    let first_le = first_strict || av == cv;
                    if !first_le {
                        return false;
                    }
                    let rest = self.reach[k][j];
                    let le = rest.le || k == j;
                    let lt = rest.lt || (first_strict && le);
                    if strict {
                        lt
                    } else {
                        le
                    }
                })
            }
            (Some(i), None) => {
                // Symmetric: a ≤ c ≤ b with c a known constant node.
                let Term::Const(bv) = b else { return false };
                self.nodes.iter().enumerate().any(|(k, n)| {
                    let Term::Const(cv) = n else { return false };
                    let last_strict = cv.total_cmp(bv) == std::cmp::Ordering::Less;
                    let last_le = last_strict || cv == bv;
                    if !last_le {
                        return false;
                    }
                    let first = self.reach[i][k];
                    let le = first.le || i == k;
                    let lt = first.lt || (last_strict && le);
                    if strict {
                        lt
                    } else {
                        le
                    }
                })
            }
            (None, None) => false,
        }
    }

    fn known_ne(&self, a: &Term, b: &Term) -> bool {
        if let (Term::Const(x), Term::Const(y)) = (a, b) {
            if x != y {
                return true;
            }
        }
        if self.known_le(a, b, true) || self.known_le(b, a, true) {
            return true;
        }
        match (self.node(a), self.node(b)) {
            (Some(i), Some(j)) if i != j => self
                .ne
                .iter()
                .any(|&(x, y)| (x == i && y == j) || (x == j && y == i)),
            _ => false,
        }
    }

    /// `true` if the context definitely entails `goal`.
    ///
    /// An unsatisfiable context entails everything.
    pub fn entails(&self, goal: &Comparison) -> bool {
        if self.unsat {
            return true;
        }
        let (a, b) = (&goal.lhs, &goal.rhs);
        match goal.op {
            CmpOp::Eq => self.forced_eq(a, b),
            CmpOp::Ne => self.known_ne(a, b),
            CmpOp::Lt => self.known_le(a, b, true),
            CmpOp::Le => self.known_le(a, b, false) || self.forced_eq(a, b),
            CmpOp::Gt => self.known_le(b, a, true),
            CmpOp::Ge => self.known_le(b, a, false) || self.forced_eq(a, b),
        }
    }
}

/// Convenience: is a conjunction of comparisons definitely unsatisfiable?
pub fn definitely_unsat(comparisons: &[Comparison]) -> bool {
    CmpContext::new(comparisons).is_unsat()
}

/// Convenience: does `ctx` entail `goal`?
pub fn entails(ctx: &[Comparison], goal: &Comparison) -> bool {
    CmpContext::new(ctx).entails(goal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn c(i: i64) -> Term {
        Term::int(i)
    }

    fn cmp(l: Term, op: CmpOp, r: Term) -> Comparison {
        Comparison::new(l, op, r)
    }

    #[test]
    fn transitivity() {
        let ctx = [
            cmp(v("x"), CmpOp::Lt, v("y")),
            cmp(v("y"), CmpOp::Le, v("z")),
        ];
        assert!(entails(&ctx, &cmp(v("x"), CmpOp::Lt, v("z"))));
        assert!(entails(&ctx, &cmp(v("x"), CmpOp::Le, v("z"))));
        assert!(entails(&ctx, &cmp(v("z"), CmpOp::Gt, v("x"))));
        assert!(!entails(&ctx, &cmp(v("z"), CmpOp::Lt, v("x"))));
    }

    #[test]
    fn constant_seeding() {
        // x >= 60 entails x >= 18 because 18 < 60.
        let ctx = [cmp(v("x"), CmpOp::Ge, c(60))];
        assert!(entails(&ctx, &cmp(v("x"), CmpOp::Ge, c(18))));
        assert!(entails(&ctx, &cmp(v("x"), CmpOp::Gt, c(18))));
        assert!(!entails(&ctx, &cmp(v("x"), CmpOp::Ge, c(61))));
    }

    #[test]
    fn strict_cycle_unsat() {
        assert!(definitely_unsat(&[
            cmp(v("x"), CmpOp::Lt, v("y")),
            cmp(v("y"), CmpOp::Lt, v("x")),
        ]));
        assert!(!definitely_unsat(&[
            cmp(v("x"), CmpOp::Le, v("y")),
            cmp(v("y"), CmpOp::Le, v("x")),
        ]));
    }

    #[test]
    fn forced_equal_with_ne_unsat() {
        assert!(definitely_unsat(&[
            cmp(v("x"), CmpOp::Le, v("y")),
            cmp(v("y"), CmpOp::Le, v("x")),
            cmp(v("x"), CmpOp::Ne, v("y")),
        ]));
    }

    #[test]
    fn constant_bounds_unsat() {
        assert!(definitely_unsat(&[
            cmp(v("x"), CmpOp::Ge, c(10)),
            cmp(v("x"), CmpOp::Lt, c(5)),
        ]));
        assert!(!definitely_unsat(&[
            cmp(v("x"), CmpOp::Ge, c(5)),
            cmp(v("x"), CmpOp::Lt, c(10)),
        ]));
    }

    #[test]
    fn equality_contraction() {
        let ctx = [cmp(v("x"), CmpOp::Eq, c(5)), cmp(v("y"), CmpOp::Ge, v("x"))];
        assert!(entails(&ctx, &cmp(v("y"), CmpOp::Ge, c(5))));
        assert!(entails(&ctx, &cmp(v("x"), CmpOp::Eq, c(5))));
    }

    #[test]
    fn equating_distinct_constants_unsat() {
        assert!(definitely_unsat(&[cmp(c(1), CmpOp::Eq, c(2))]));
        assert!(definitely_unsat(&[
            cmp(v("x"), CmpOp::Eq, c(1)),
            cmp(v("x"), CmpOp::Eq, c(2)),
        ]));
    }

    #[test]
    fn ne_from_distinct_constants() {
        let ctx: [Comparison; 0] = [];
        assert!(entails(&ctx, &cmp(c(1), CmpOp::Ne, c(2))));
        assert!(entails(&ctx, &cmp(c(1), CmpOp::Lt, c(2))));
        assert!(!entails(&ctx, &cmp(v("x"), CmpOp::Ne, c(2))));
    }

    #[test]
    fn params_are_opaque() {
        // Different parameters are not known equal or unequal.
        let ctx: [Comparison; 0] = [];
        assert!(!entails(
            &ctx,
            &cmp(Term::param("A"), CmpOp::Ne, Term::param("B"))
        ));
        assert!(!entails(
            &ctx,
            &cmp(Term::param("A"), CmpOp::Eq, Term::param("B"))
        ));
        // But a parameter equals itself.
        assert!(entails(
            &ctx,
            &cmp(Term::param("A"), CmpOp::Eq, Term::param("A"))
        ));
    }

    #[test]
    fn unsat_entails_everything() {
        let ctx = [cmp(c(1), CmpOp::Eq, c(2))];
        assert!(entails(&ctx, &cmp(v("q"), CmpOp::Lt, v("q"))));
    }

    #[test]
    fn string_constants_order() {
        let ctx = [cmp(v("s"), CmpOp::Ge, Term::str("m"))];
        assert!(entails(&ctx, &cmp(v("s"), CmpOp::Gt, Term::str("a"))));
    }

    #[test]
    fn integer_density_incompleteness_documented() {
        // 1 < x < 2 has no integer solution, but the reasoner does not do
        // integer tightening; it must NOT claim unsat (sound, incomplete).
        assert!(!definitely_unsat(&[
            cmp(c(1), CmpOp::Lt, v("x")),
            cmp(v("x"), CmpOp::Lt, c(2)),
        ]));
    }
}
