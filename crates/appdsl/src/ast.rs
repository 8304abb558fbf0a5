//! AST of the application handler language.
//!
//! The language is deliberately small — it is the shape of real web-handler
//! code (Listing 1 of the paper) distilled to what matters for access
//! control: issuing SQL, branching on results, looping over rows, and
//! emitting data to the user.

use sqlir::Value;

use crate::error::DslError;

/// One `sql("...")` or `run sql("...")` site: the SQL text as written plus
/// the named parameters it mentions, resolved once when the site is built
/// so that issuing the statement never parses it.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlSite {
    text: String,
    /// Sorted named parameters, or the parse error of a malformed text —
    /// kept rather than raised, because a handler with a bad SQL string
    /// still parses, walks and symbolically executes; the error surfaces
    /// when (and only when) the statement is issued.
    named: Result<Vec<String>, String>,
}

impl SqlSite {
    /// Builds a site from its SQL text.
    pub fn new(text: String) -> SqlSite {
        let named = sqlir::parse_statement(&text)
            .map(|stmt| named_params(&stmt))
            .map_err(|e| e.to_string());
        SqlSite { text, named }
    }

    /// The SQL text (may contain named parameters).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The named parameters the text mentions, sorted; `DslError::Port`
    /// with the parse error if the text is not SQL.
    pub fn named_params(&self) -> Result<&[String], DslError> {
        match &self.named {
            Ok(named) => Ok(named),
            Err(e) => Err(DslError::Port(e.clone())),
        }
    }
}

/// The named parameters a statement mentions, sorted.
fn named_params(stmt: &sqlir::Statement) -> Vec<String> {
    let mut named: Vec<String> = sqlir::params_in_bind_order(stmt)
        .into_iter()
        .filter_map(|p| match p {
            sqlir::Param::Named(n) => Some(n),
            sqlir::Param::Positional(_) => None,
        })
        .collect();
    named.sort();
    named
}

/// A complete application: a set of named handlers.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    /// The handlers, in declaration order.
    pub handlers: Vec<Handler>,
}

impl App {
    /// Looks up a handler by name.
    pub fn handler(&self, name: &str) -> Option<&Handler> {
        self.handlers.iter().find(|h| h.name == name)
    }
}

/// One request handler.
#[derive(Debug, Clone, PartialEq)]
pub struct Handler {
    /// Handler (route) name.
    pub name: String,
    /// Request parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = <expr>;`
    Let {
        /// Bound variable.
        var: String,
        /// Initializer.
        expr: DExpr,
    },
    /// `if <cond> { ... } else { ... }`
    If {
        /// Condition.
        cond: DExpr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `for row in <expr> { ... }` — iterate over a rows value.
    ForRow {
        /// Loop variable (bound to each row).
        var: String,
        /// The rows expression.
        rows: DExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `emit <expr>;` — append data to the response.
    Emit {
        /// The emitted expression (rows or scalar).
        expr: DExpr,
    },
    /// `run sql("...");` — execute DML for its side effect.
    Run {
        /// The statement.
        sql: SqlSite,
    },
    /// `abort(404);` — terminate with an HTTP error.
    Abort {
        /// HTTP status code.
        code: u16,
    },
    /// `return;` — terminate normally.
    Return,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum DExpr {
    /// A literal value.
    Lit(Value),
    /// `params.<name>` — a request parameter.
    Param(String),
    /// `session.<name>` — a session field (shares the policy's namespace,
    /// e.g. `session.MyUId`).
    Session(String),
    /// A `let`-bound or loop variable.
    Var(String),
    /// `sql("...")` — issue a query, producing a rows value.
    Sql {
        /// The query.
        sql: SqlSite,
    },
    /// `<rows>.is_empty()`.
    IsEmpty(Box<DExpr>),
    /// `<rows>.count()` — the number of rows, as an integer.
    Count(Box<DExpr>),
    /// `<rows>.first.<col>` or `<rowvar>.<col>` — a cell value.
    Field {
        /// The rows/row expression.
        base: Box<DExpr>,
        /// Column name.
        column: String,
    },
    /// Comparison or boolean combination.
    Binary {
        /// Operator.
        op: DBinOp,
        /// Left operand.
        lhs: Box<DExpr>,
        /// Right operand.
        rhs: Box<DExpr>,
    },
    /// Logical negation.
    Not(Box<DExpr>),
}

/// Binary operators of the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DBinOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl Stmt {
    /// Visits every SQL string in this statement (queries and DML).
    pub fn walk_sql(&self, f: &mut dyn FnMut(&str)) {
        match self {
            Stmt::Let { expr, .. } | Stmt::Emit { expr } => expr.walk_sql(f),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.walk_sql(f);
                for s in then_branch.iter().chain(else_branch) {
                    s.walk_sql(f);
                }
            }
            Stmt::ForRow { rows, body, .. } => {
                rows.walk_sql(f);
                for s in body {
                    s.walk_sql(f);
                }
            }
            Stmt::Run { sql } => f(sql.text()),
            Stmt::Abort { .. } | Stmt::Return => {}
        }
    }
}

impl DExpr {
    /// Visits every SQL string in this expression.
    pub fn walk_sql(&self, f: &mut dyn FnMut(&str)) {
        match self {
            DExpr::Sql { sql } => f(sql.text()),
            DExpr::IsEmpty(e) | DExpr::Count(e) | DExpr::Not(e) => e.walk_sql(f),
            DExpr::Field { base, .. } => base.walk_sql(f),
            DExpr::Binary { lhs, rhs, .. } => {
                lhs.walk_sql(f);
                rhs.walk_sql(f);
            }
            DExpr::Lit(_) | DExpr::Param(_) | DExpr::Session(_) | DExpr::Var(_) => {}
        }
    }
}
