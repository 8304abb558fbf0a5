//! `beyond-enforcement`: the full life-cycle of data-access control for
//! database-backed applications.
//!
//! This workspace implements the system envisioned by *"Access Control for
//! Database Applications: Beyond Policy Enforcement"* (HotOS '23): a
//! Blockaid-style view-based enforcement proxy **plus** the three
//! beyond-enforcement tools the paper proposes — policy extraction, policy
//! evaluation for sensitive-data disclosure, and violation diagnosis with
//! patch generation.
//!
//! The member crates, re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`sqlir`] | SQL lexer/parser/AST/printer |
//! | [`minidb`] | in-memory relational engine with constraints |
//! | [`qlogic`] | conjunctive-query logic: containment, rewriting |
//! | [`core`] (`bep-core`) | policies, traces, compliance checker, proxy |
//! | [`appdsl`] | the handler language + interpreter |
//! | [`extract`] (`bep-extract`) | §3: symbolic + mining extraction |
//! | [`disclose`] (`bep-disclose`) | §4: PQI/NQI/k-anon/Bayes |
//! | [`diagnose`] (`bep-diagnose`) | §5: counterexamples + patches |
//! | [`appsim`] | four simulated applications + workloads |
//!
//! # Quickstart: the paper's Example 2.1, end to end
//!
//! ```
//! use beyond_enforcement::prelude::*;
//!
//! // Database and schema (the calendar app from the paper).
//! let mut db = Database::new();
//! db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)").unwrap();
//! db.execute_sql("CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT)").unwrap();
//! db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work')").unwrap();
//! db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL)").unwrap();
//!
//! // The policy: views V1 and V2, parameterized by ?MyUId.
//! let schema = schema_of_database(&db);
//! let policy = Policy::from_sql(&schema, &[
//!     ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
//!     ("V2", "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
//!             WHERE a.UId = ?MyUId"),
//! ]).unwrap();
//!
//! // The proxy enforces; the trace makes Q2 allowable after Q1.
//! let checker = ComplianceChecker::new(schema, policy);
//! let proxy = SqlProxy::new(db, checker, ProxyConfig::default());
//! let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
//!
//! let q1 = proxy.execute(session, "SELECT 1 FROM Attendance \
//!     WHERE UId = ?MyUId AND EId = 2", &[]).unwrap();
//! assert!(q1.is_allowed());
//!
//! let q2 = proxy.execute(session, "SELECT * FROM Events WHERE EId = 2", &[]).unwrap();
//! assert!(q2.is_allowed(), "Q2 is allowed only because Q1 returned a row");
//! ```

#![warn(missing_docs)]

pub use appdsl;
pub use appsim;
pub use bep_core as core;
pub use bep_diagnose as diagnose;
pub use bep_disclose as disclose;
pub use bep_extract as extract;
pub use minidb;
pub use qlogic;
pub use sqlir;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use appdsl::{parse_app, parse_handler, run_handler, Limits, Outcome, Request};
    pub use bep_core::{
        schema_of_database, template_hash, CacheTier, ComplianceChecker, Decision, DecisionEvent,
        DenyReason, EventJournal, JournalCursor, Observation, Phase, Policy, ProxyConfig,
        ProxyResponse, SqlProxy, Trace, Verdict, PHASE_COUNT,
    };
    pub use bep_diagnose::{diagnose, diagnose_write, DiagnosisInput, DiagnosisReport, Patch};
    pub use bep_disclose::{audit, BayesConfig, RelationSpec, Universe};
    pub use bep_extract::{
        collect_traces, extract_mined, extract_symbolic, mine_policy, score_exact,
        score_exact_deps, score_semantic, score_semantic_deps, Hints, Learner, MineOptions,
        SymLimits, ViewGenOptions,
    };
    pub use minidb::{Database, Rows};
    pub use qlogic::{Cq, RelSchema, Term, ViewSet};
    pub use sqlir::{parse_query, parse_statement, Value};
}

use prelude::*;

/// A one-stop pipeline over a single application: extract a draft policy,
/// audit it, enforce it, and diagnose violations — the full life-cycle the
/// paper argues access-control research must cover.
pub struct Lifecycle {
    /// The application (handler code).
    pub app: appdsl::App,
    /// The relational schema.
    pub schema: RelSchema,
    /// The current policy (may start empty and be filled by extraction).
    pub policy: Policy,
}

impl Lifecycle {
    /// Starts a lifecycle around an application and schema with an empty
    /// policy.
    pub fn new(app: appdsl::App, schema: RelSchema) -> Lifecycle {
        Lifecycle {
            app,
            schema,
            policy: Policy::empty(),
        }
    }

    /// §3: extracts a draft policy by symbolic execution and installs it.
    pub fn extract_policy(
        &mut self,
        opts: &ViewGenOptions,
    ) -> Result<usize, bep_extract::ExtractError> {
        let extracted =
            bep_extract::extract_symbolic(&self.schema, &self.app, SymLimits::default(), opts)?;
        let n = extracted.views.len();
        self.policy = extracted
            .into_policy()
            .map_err(|e| bep_extract::ExtractError::Logic(e.to_string()))?;
        Ok(n)
    }

    /// §4: audits the installed policy against a sensitive query.
    pub fn audit_sensitive(
        &self,
        sensitive: &Cq,
        bindings: &[(String, Value)],
    ) -> Result<bep_disclose::DisclosureReport, bep_disclose::DiscloseError> {
        let views = self
            .policy
            .instantiate(bindings)
            .map_err(|e| bep_disclose::DiscloseError::Logic(e.to_string()))?;
        bep_disclose::audit(sensitive, &views, None, None)
    }

    /// §2: wraps a database in an enforcing proxy for the installed policy.
    pub fn enforce(&self, db: Database) -> SqlProxy {
        let checker = ComplianceChecker::new(self.schema.clone(), self.policy.clone());
        SqlProxy::new(db, checker, ProxyConfig::default())
    }

    /// §5: diagnoses a blocked query under the installed policy.
    pub fn diagnose_blocked(
        &self,
        query: &Cq,
        bindings: &[(String, Value)],
        trace_facts: &[qlogic::Atom],
    ) -> Result<DiagnosisReport, bep_diagnose::DiagnoseError> {
        let views = self
            .policy
            .instantiate(bindings)
            .map_err(|e| bep_diagnose::DiagnoseError::Logic(e.to_string()))?;
        bep_diagnose::diagnose(&DiagnosisInput {
            query,
            views: &views,
            trace_facts,
            schema: &self.schema,
            extracted: None,
        })
    }

    /// §5, write path: diagnoses a rejected mutation under the installed
    /// policy. `row_query` is the written-row query the proxy attaches to
    /// a `WriteNotCovered` denial.
    pub fn diagnose_rejected_write(
        &self,
        row_query: &Cq,
        bindings: &[(String, Value)],
        trace_facts: &[qlogic::Atom],
    ) -> Result<DiagnosisReport, bep_diagnose::DiagnoseError> {
        let views = self
            .policy
            .instantiate(bindings)
            .map_err(|e| bep_diagnose::DiagnoseError::Logic(e.to_string()))?;
        bep_diagnose::diagnose_write(&DiagnosisInput {
            query: row_query,
            views: &views,
            trace_facts,
            schema: &self.schema,
            extracted: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::CALENDAR;

    #[test]
    fn lifecycle_extract_enforce() {
        let mut lc = Lifecycle::new(CALENDAR.app(), CALENDAR.schema());
        let n = lc.extract_policy(&ViewGenOptions::default()).unwrap();
        assert!(n >= 4, "calendar extraction yields several views, got {n}");

        // The extracted policy admits the app's own behaviour.
        let mut db = CALENDAR.empty_db();
        db.execute_sql("INSERT INTO Users (UId, Name) VALUES (101, 'ann')")
            .unwrap();
        db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (1, 'standup', 'work')")
            .unwrap();
        db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (101, 1, NULL)")
            .unwrap();
        let proxy = lc.enforce(db);
        let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(101))]);
        let mut port = appsim::ProxyPort {
            proxy: &proxy,
            session,
        };
        let result = run_handler(
            &mut port,
            lc.app.handler("show_event").unwrap(),
            &[("MyUId".to_string(), Value::Int(101))],
            &[("event_id".into(), Value::Int(1))],
            Limits::default(),
        )
        .unwrap();
        assert_eq!(
            result.outcome,
            Outcome::Ok,
            "extracted policy admits the app"
        );
    }

    #[test]
    fn lifecycle_diagnose_blocked_query() {
        let mut lc = Lifecycle::new(CALENDAR.app(), CALENDAR.schema());
        lc.extract_policy(&ViewGenOptions::default()).unwrap();
        // A query outside the extracted policy: someone else's notes.
        let blocked = Cq::new(
            vec![Term::var("n")],
            vec![qlogic::Atom::new(
                "Attendance",
                vec![Term::int(999), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let report = lc
            .diagnose_blocked(&blocked, &[("MyUId".to_string(), Value::Int(101))], &[])
            .unwrap();
        assert!(!report.patches.is_empty() || report.counterexample.is_some());
    }
}
