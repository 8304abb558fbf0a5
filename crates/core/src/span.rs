//! The per-decision solver roll-up.
//!
//! [`PhaseTimer`](crate::obs::PhaseTimer) says where a decision's wall
//! time went; [`SpanSummary`] says how much solver work it did: the
//! [`SolverCounters`] delta `qlogic`'s probe accumulated between the start
//! and the end of the decision — rewrite iterations, containment checks,
//! homomorphism nodes/backtracks — plus how many disjuncts a compiled
//! certificate decided and how many fell back to the full search. The
//! proxy fills one on every decision and it rides on the
//! [`DecisionEvent`](crate::obs::DecisionEvent) as 3 words.

use qlogic::probe::SolverCounters;

/// Compact per-decision roll-up of the solver work and certificate replay
/// outcomes. Rides on every [`DecisionEvent`](crate::obs::DecisionEvent)
/// (3 words); all-zero for a decision that ran no solver (a cache hit).
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

    /// Packs the summary into 3 little-endian-bitfield words (the journal
    /// slot encoding).
    pub fn to_words(&self) -> [u64; 3] {
        [
            self.rewrite_iterations as u64 | (self.containment_checks as u64) << 32,
            self.hom_nodes as u64 | (self.hom_backtracks as u64) << 32,
            self.cert_replays as u64 | (self.cert_fallbacks as u64) << 16,
        ]
    }

    /// Inverse of [`to_words`](Self::to_words).
    pub fn from_words(w: [u64; 3]) -> SpanSummary {
        SpanSummary {
            rewrite_iterations: w[0] as u32,
            containment_checks: (w[0] >> 32) as u32,
            hom_nodes: w[1] as u32,
            hom_backtracks: (w[1] >> 32) as u32,
            cert_replays: w[2] as u16,
            cert_fallbacks: (w[2] >> 16) as u16,
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
    fn summary_words_round_trip() {
        let s = SpanSummary {
            rewrite_iterations: 0xDEAD_BEEF,
            containment_checks: 17,
            hom_nodes: u32::MAX,
            hom_backtracks: 42,
            cert_replays: 3,
            cert_fallbacks: u16::MAX,
        };
        assert_eq!(SpanSummary::from_words(s.to_words()), s);
        let zero = SpanSummary::default();
        assert_eq!(SpanSummary::from_words(zero.to_words()), zero);
        assert!(zero.is_empty());
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
