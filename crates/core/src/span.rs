//! The per-decision solver roll-up.
//!
//! [`PhaseTimer`](crate::obs::PhaseTimer) says where a decision's wall
//! time went; [`SpanSummary`] says how much solver work it did: the
//! [`SolverCounters`] delta `qlogic`'s probe accumulated between the start
//! and the end of the decision — rewrite iterations, containment checks,
//! homomorphism nodes/backtracks — plus how many disjuncts a compiled
//! certificate decided and how many fell back to the full search. The
//! proxy fills one on every decision and it rides on the
//! [`DecisionEvent`](crate::obs::DecisionEvent).

use qlogic::probe::SolverCounters;

/// Compact per-decision roll-up of the solver work and certificate replay
/// outcomes. Rides on every [`DecisionEvent`](crate::obs::DecisionEvent);
/// all-zero for a decision that ran no solver (a cache hit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Total MiniCon enumeration steps.
    pub rewrite_iterations: u32,
    /// Total containment checks.
    pub containment_checks: u32,
    /// Total homomorphism-search candidate visits.
    pub hom_nodes: u32,
    /// Total homomorphism-search backtracks.
    pub hom_backtracks: u32,
    /// Disjuncts decided by replaying a compiled certificate.
    pub cert_replays: u16,
    /// Disjuncts that fell back to the full rewriting search.
    pub cert_fallbacks: u16,
}

impl SpanSummary {
    /// The summary of one decision's solver work, each count saturating at
    /// its field's width.
    pub fn new(solver: SolverCounters, cert_replays: u32, cert_fallbacks: u32) -> SpanSummary {
        let clamp32 = |v: u64| v.min(u32::MAX as u64) as u32;
        let clamp16 = |v: u32| v.min(u16::MAX as u32) as u16;
        SpanSummary {
            rewrite_iterations: clamp32(solver.rewrite_iterations),
            containment_checks: clamp32(solver.containment_checks),
            hom_nodes: clamp32(solver.hom_nodes),
            hom_backtracks: clamp32(solver.hom_backtracks),
            cert_replays: clamp16(cert_replays),
            cert_fallbacks: clamp16(cert_fallbacks),
        }
    }

    /// `true` if no field is set (no solver work).
    pub fn is_empty(&self) -> bool {
        *self == SpanSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_saturates_and_zero_is_empty() {
        assert!(SpanSummary::default().is_empty());
        // Counts past a field's width saturate instead of wrapping.
        let solver = SolverCounters {
            containment_checks: u64::MAX,
            hom_nodes: 5,
            ..SolverCounters::default()
        };
        assert_eq!(
            SpanSummary::new(solver, 1 << 20, 2),
            SpanSummary {
                containment_checks: u32::MAX,
                hom_nodes: 5,
                cert_replays: u16::MAX,
                cert_fallbacks: 2,
                ..SpanSummary::default()
            }
        );
    }
}
