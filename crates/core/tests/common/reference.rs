//! The cache-free, compaction-free reference a proxy session is held to:
//! a never-compacted [`Trace`], fed each allowed read by the proxy's own
//! recording rules, and [`ComplianceChecker::check_concrete`] over it.

use bep_core::{ComplianceChecker, DenyReason, ProxyResponse, Trace};
use sqlir::{parse_statement, Query, Statement, Value};

/// One session's reference: its bindings and its never-compacted trace.
pub struct Reference<'a> {
    checker: &'a ComplianceChecker,
    bindings: Vec<(String, Value)>,
    /// Every fact the session's allowed reads witnessed, none dropped.
    pub trace: Trace,
}

impl<'a> Reference<'a> {
    /// A fresh session's reference: bound to `bindings`, trace empty.
    pub fn new(checker: &'a ComplianceChecker, bindings: Vec<(String, Value)>) -> Reference<'a> {
        Reference {
            checker,
            bindings,
            trace: Trace::new(),
        }
    }

    /// Holds the proxy's `response` to `sql` (request bindings `extra`
    /// over the session's) to the reference: a `SELECT` must get
    /// `check_concrete`'s verdict over the reference trace, and a blocked
    /// one its exact [`DenyReason`]; an unparseable statement must be
    /// blocked as a parse error. An allowed read's rows are then recorded.
    /// Other statements are left to the write-path references.
    pub fn check(
        &mut self,
        sql: &str,
        extra: &[(String, Value)],
        response: &ProxyResponse,
    ) -> Result<(), String> {
        let q = match parse_statement(sql) {
            Ok(Statement::Select(q)) => q,
            Ok(_) => return Ok(()),
            Err(_) if matches!(response, ProxyResponse::Blocked(DenyReason::ParseError(_))) => {
                return Ok(())
            }
            Err(e) => return Err(format!("`{sql}` does not parse ({e}), yet {response:?}")),
        };
        let mut bindings = self.bindings.clone();
        for (name, value) in extra {
            bindings.retain(|(n, _)| n != name);
            bindings.push((name.clone(), value.clone()));
        }
        let oracle = self.checker.check_concrete(&q, &bindings, &self.trace);
        match (oracle.deny_reason(), response) {
            (None, ProxyResponse::Rows(rows)) => {
                self.observe(&q, &bindings, &rows.rows);
                Ok(())
            }
            (Some(want), ProxyResponse::Blocked(got)) if want == got => Ok(()),
            (want, got) => Err(format!(
                "`{sql}` for {:?}: the oracle blocks with {want:?}, the proxy answers {got:?}",
                self.bindings
            )),
        }
    }

    /// The proxy's recording rules: a union's answer does not say which
    /// disjunct held, and a query with unbound parameters says nothing
    /// definite, so only a fully bound single-disjunct read is recorded.
    fn observe(&mut self, q: &Query, bindings: &[(String, Value)], rows: &[Vec<Value>]) {
        let Ok(ucq) = self.checker.translate(q) else {
            return;
        };
        if let [d] = &ucq.disjuncts[..] {
            let cq = d.instantiate(bindings);
            if cq.params().is_empty() {
                self.trace.record_rows(cq, rows, false);
            }
        }
    }
}
