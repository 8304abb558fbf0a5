//! Thread-local solver work counters.
//!
//! The rewriting search, the containment checker, and the homomorphism
//! search each bump a plain [`Cell`] counter at their inner loops; a
//! harness (the proxy, once at the start and once at the end of each
//! decision) calls [`take`] to read-and-reset them, so the second call
//! returns exactly the work done in between. The counters are *always*
//! counted — a thread-local `Cell` increment is a register-add next to a
//! TLS base, orders of magnitude below the proof work it counts — so
//! there is no enabled/disabled branch on the solver hot paths and no
//! dependency from `qlogic` back onto any observability layer.
//!
//! Counters are per-thread and never synchronized: a caller that wants a
//! decision's counters must run the decision and the [`take`] calls on
//! one thread, which is exactly how the proxy's decision path works.

use std::cell::Cell;

/// One read-and-reset snapshot of the solver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Nodes of the MiniCon candidate enumeration (MCD choice points and
    /// cover-combination steps) visited by [`crate::rewrite`].
    pub rewrite_iterations: u64,
    /// Calls into the dependency-aware containment check
    /// ([`crate::containment::contained_given_deps`]).
    pub containment_checks: u64,
    /// Candidate target atoms visited by the homomorphism search.
    pub hom_nodes: u64,
    /// Candidates the homomorphism search unwound (failed branch).
    pub hom_backtracks: u64,
}

struct Counters {
    rewrite_iterations: Cell<u64>,
    containment_checks: Cell<u64>,
    hom_nodes: Cell<u64>,
    hom_backtracks: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            rewrite_iterations: Cell::new(0),
            containment_checks: Cell::new(0),
            hom_nodes: Cell::new(0),
            hom_backtracks: Cell::new(0),
        }
    };
}

#[inline]
pub(crate) fn bump_rewrite_iteration() {
    COUNTERS.with(|c| c.rewrite_iterations.set(c.rewrite_iterations.get() + 1));
}

#[inline]
pub(crate) fn bump_containment_check() {
    COUNTERS.with(|c| c.containment_checks.set(c.containment_checks.get() + 1));
}

#[inline]
pub(crate) fn bump_hom_node() {
    COUNTERS.with(|c| c.hom_nodes.set(c.hom_nodes.get() + 1));
}

#[inline]
pub(crate) fn bump_hom_backtrack() {
    COUNTERS.with(|c| c.hom_backtracks.set(c.hom_backtracks.get() + 1));
}

/// Reads and resets this thread's counters. Call once at the start of a
/// measured region to discard whatever accumulated outside it, then at
/// each boundary to collect the delta since the previous call.
pub fn take() -> SolverCounters {
    COUNTERS.with(|c| SolverCounters {
        rewrite_iterations: c.rewrite_iterations.replace(0),
        containment_checks: c.containment_checks.replace(0),
        hom_nodes: c.hom_nodes.replace(0),
        hom_backtracks: c.hom_backtracks.replace(0),
    })
}

/// Reads this thread's counters without resetting them.
pub fn peek() -> SolverCounters {
    COUNTERS.with(|c| SolverCounters {
        rewrite_iterations: c.rewrite_iterations.get(),
        containment_checks: c.containment_checks.get(),
        hom_nodes: c.hom_nodes.get(),
        hom_backtracks: c.hom_backtracks.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reads_and_resets() {
        take(); // discard whatever earlier tests on this thread left behind
        bump_rewrite_iteration();
        bump_rewrite_iteration();
        bump_containment_check();
        bump_hom_node();
        bump_hom_backtrack();
        let got = peek();
        assert_eq!(got.rewrite_iterations, 2);
        assert_eq!(take(), got);
        assert_eq!(take(), SolverCounters::default(), "take resets");
    }

    #[test]
    fn solver_work_is_counted() {
        use crate::containment::contained;
        use crate::cq::{Atom, Cq, Term};
        take();
        let q1 = Cq::new(
            vec![Term::var("x")],
            vec![
                Atom::new("R", vec![Term::var("x"), Term::var("y")]),
                Atom::new("R", vec![Term::var("y"), Term::var("x")]),
            ],
            vec![],
        );
        let q2 = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x"), Term::var("y")])],
            vec![],
        );
        assert!(contained(&q1, &q2));
        let c = take();
        assert!(c.containment_checks >= 1, "{c:?}");
        assert!(c.hom_nodes >= 1, "{c:?}");
    }

    #[test]
    fn counters_are_per_thread() {
        take();
        bump_hom_node();
        std::thread::spawn(|| {
            let fresh = take();
            assert_eq!(
                fresh,
                SolverCounters::default(),
                "fresh thread starts at zero"
            );
        })
        .join()
        .unwrap();
        assert_eq!(take().hom_nodes, 1);
    }
}
