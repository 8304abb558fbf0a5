//! Compliance decisions and their machine-readable reasons.

use qlogic::Cq;

/// Why a query was denied.
#[derive(Debug, Clone, PartialEq)]
pub enum DenyReason {
    /// No equivalent rewriting exists: the query's answer is not determined
    /// by the policy views (plus trace). Carries the offending disjunct.
    NotDetermined {
        /// The conjunctive form of the disjunct that failed.
        query: Cq,
    },
    /// The query fell outside the decidable fragment, so the checker
    /// conservatively blocks it.
    OutOfFragment(String),
    /// The SQL failed to parse.
    ParseError(String),
    /// A mutation's written rows are not contained in any updatable policy
    /// view. Carries the written row as a conjunctive query (head = the
    /// row's terms, body = the written atom) for diagnosis.
    WriteNotCovered {
        /// The uncovered written row, as a CQ.
        query: Cq,
    },
}

impl DenyReason {
    /// A short stable label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            DenyReason::NotDetermined { .. } => "not-determined",
            DenyReason::OutOfFragment(_) => "out-of-fragment",
            DenyReason::ParseError(_) => "parse-error",
            DenyReason::WriteNotCovered { .. } => "write-not-covered",
        }
    }
}

/// The outcome of a compliance check.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The query may execute as-is.
    Allowed {
        /// Equivalent rewritings found, one per disjunct.
        rewritings: Vec<Cq>,
    },
    /// The query must be blocked.
    Denied {
        /// The reason.
        reason: DenyReason,
    },
}

impl Decision {
    /// `true` if the query was allowed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allowed { .. })
    }

    /// The denial reason, if denied.
    pub fn deny_reason(&self) -> Option<&DenyReason> {
        match self {
            Decision::Denied { reason } => Some(reason),
            Decision::Allowed { .. } => None,
        }
    }
}
