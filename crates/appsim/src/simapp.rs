//! The [`SimApp`] bundle: everything one simulated application ships with.

use appdsl::{parse_app, App, DslError, PortOutcome, QueryPort};
use bep_core::{CoreError, Policy, ProxyResponse, SqlProxy};
use minidb::Database;
use qlogic::RelSchema;
use sqlir::Value;

/// One simulated application: schema, code, and its intended policy.
#[derive(Debug, Clone, Copy)]
pub struct SimApp {
    /// Application name.
    pub name: &'static str,
    /// `CREATE TABLE` statements.
    pub ddl: &'static [&'static str],
    /// Handler source (the whole application, in the DSL).
    pub source: &'static str,
    /// Additional handlers with *injected bugs* (for the diagnosis
    /// experiments); not part of the correct application.
    pub buggy_source: &'static str,
    /// The intended (ground-truth) policy as `(name, SQL)` views.
    pub ground_truth: &'static [(&'static str, &'static str)],
    /// Session parameter names (shared with the policy namespace).
    pub session_params: &'static [&'static str],
}

impl SimApp {
    /// Parses the correct application.
    pub fn app(&self) -> App {
        parse_app(self.source).unwrap_or_else(|e| panic!("{} source: {e}", self.name))
    }

    /// Parses the application including the buggy handlers.
    pub fn app_with_bugs(&self) -> App {
        let combined = format!("{}\n{}", self.source, self.buggy_source);
        parse_app(&combined).unwrap_or_else(|e| panic!("{} buggy source: {e}", self.name))
    }

    /// Creates an empty database with the application's schema.
    pub fn empty_db(&self) -> Database {
        let mut db = Database::new();
        for ddl in self.ddl {
            db.execute_sql(ddl)
                .unwrap_or_else(|e| panic!("{} ddl: {e}", self.name));
        }
        db
    }

    /// The relational schema (for the logic layer).
    pub fn schema(&self) -> RelSchema {
        bep_core::schema_of_database(&self.empty_db())
    }

    /// Compiles the ground-truth policy.
    pub fn policy(&self) -> Result<Policy, CoreError> {
        Policy::from_sql(&self.schema(), self.ground_truth)
    }

    /// The ground-truth views as conjunctive queries.
    pub fn ground_truth_cqs(&self) -> Vec<qlogic::Cq> {
        self.policy()
            .expect("ground truth compiles")
            .views()
            .iter()
            .map(|v| v.cq.clone())
            .collect()
    }
}

/// What every application — hand-written ([`SimApp`]) or generated (the
/// `scenario` crate's fleet) — provides to run under the enforcement,
/// extraction, and diagnosis pipelines.
///
/// The provided methods mirror [`SimApp`]'s helpers so pipeline code can be
/// written once against `&dyn AppSpec`.
pub trait AppSpec {
    /// Application name.
    fn name(&self) -> &str;
    /// `CREATE TABLE` statements.
    fn ddl(&self) -> Vec<String>;
    /// Handler source (the whole application, in the DSL).
    fn source(&self) -> &str;
    /// The intended (ground-truth) policy as `(name, SQL)` views.
    fn ground_truth(&self) -> Vec<(String, String)>;
    /// Session parameter names (shared with the policy namespace).
    fn session_params(&self) -> Vec<String>;

    /// Parses the application.
    fn app(&self) -> App {
        parse_app(self.source()).unwrap_or_else(|e| panic!("{} source: {e}", self.name()))
    }

    /// Creates an empty database with the application's schema.
    fn empty_db(&self) -> Database {
        let mut db = Database::new();
        for ddl in self.ddl() {
            db.execute_sql(&ddl)
                .unwrap_or_else(|e| panic!("{} ddl: {e}", self.name()));
        }
        db
    }

    /// The relational schema (for the logic layer).
    fn schema(&self) -> RelSchema {
        bep_core::schema_of_database(&self.empty_db())
    }

    /// Compiles the ground-truth policy.
    fn policy(&self) -> Result<Policy, CoreError> {
        let gt = self.ground_truth();
        let views: Vec<(&str, &str)> = gt.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        Policy::from_sql(&self.schema(), &views)
    }

    /// The ground-truth views as conjunctive queries.
    fn ground_truth_cqs(&self) -> Vec<qlogic::Cq> {
        self.policy()
            .expect("ground truth compiles")
            .views()
            .iter()
            .map(|v| v.cq.clone())
            .collect()
    }
}

impl AppSpec for SimApp {
    fn name(&self) -> &str {
        self.name
    }

    fn ddl(&self) -> Vec<String> {
        self.ddl.iter().map(|s| s.to_string()).collect()
    }

    fn source(&self) -> &str {
        self.source
    }

    fn ground_truth(&self) -> Vec<(String, String)> {
        self.ground_truth
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect()
    }

    fn session_params(&self) -> Vec<String> {
        self.session_params.iter().map(|s| s.to_string()).collect()
    }
}

/// A [`QueryPort`] adapter running handlers through the enforcing proxy.
///
/// Holds a shared reference: any number of ports (one per worker thread,
/// say) can drive the same proxy concurrently.
pub struct ProxyPort<'a> {
    /// The proxy.
    pub proxy: &'a SqlProxy,
    /// The session id to execute under.
    pub session: u64,
}

impl QueryPort for ProxyPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        match self.proxy.execute(self.session, sql, bindings) {
            Ok(ProxyResponse::Rows(r)) => Ok(PortOutcome::Rows(r)),
            Ok(ProxyResponse::Affected(n)) => Ok(PortOutcome::Affected(n)),
            Ok(ProxyResponse::Blocked(reason)) => Ok(PortOutcome::Blocked(format!("{reason:?}"))),
            Err(e) => Err(DslError::Port(e.to_string())),
        }
    }
}

/// A [`QueryPort`] that decides each statement in a fresh session of its
/// own, begun with `bindings` and ended right after: every decision sees
/// an empty trace. This is what a trace-blind proxy would decide (the
/// Example 2.1 ablation) — the verdict depends only on the plan, the
/// bindings and the trace.
pub struct BlindPort<'a> {
    /// The proxy.
    pub proxy: &'a SqlProxy,
    /// The session bindings each statement's session is begun with.
    pub bindings: Vec<(String, Value)>,
}

impl QueryPort for BlindPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let session = self.proxy.begin_session(self.bindings.clone());
        let outcome = ProxyPort {
            proxy: self.proxy,
            session,
        }
        .run(sql, bindings);
        self.proxy.end_session(session);
        outcome
    }
}
