//! Parameter collection and binding.
//!
//! Policies and applications use named parameters (`?MyUId`) and positional
//! parameters (`?`). [`params_in_bind_order`] enumerates the parameters a
//! statement mentions; [`bind_statement`] substitutes literal values for
//! them, which is how a policy view is instantiated for a concrete session.
//! [`lookup`] and [`unbound_error`] let an executor that reads parameters in
//! place, without a bound copy, read the values binding would substitute and
//! refuse exactly the statements `bind_statement` refuses, with the same
//! error.

use crate::ast::{Assignment, Expr, Param, Query, SelectItem, Statement};
use crate::error::SqlError;
use crate::value::Value;

/// A set of bindings from parameters to values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamBindings {
    named: Vec<(String, Value)>,
    positional: Vec<Value>,
}

impl ParamBindings {
    /// Creates an empty binding set.
    pub fn new() -> ParamBindings {
        ParamBindings::default()
    }

    /// Adds (or replaces) a named binding and returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> ParamBindings {
        self.set(name, value);
        self
    }

    /// Adds (or replaces) a named binding.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.named.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.named.push((name, value));
        }
    }

    /// Appends a positional binding (for the next `?`).
    pub fn push(&mut self, value: impl Into<Value>) {
        self.positional.push(value.into());
    }

    /// Appends a positional binding and returns `self` for chaining.
    pub fn with_positional(mut self, value: impl Into<Value>) -> ParamBindings {
        self.push(value);
        self
    }

    /// Looks up a named binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up a positional binding.
    pub fn get_positional(&self, index: usize) -> Option<&Value> {
        self.positional.get(index)
    }

    /// Iterates over the named bindings.
    pub fn named_iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.named.iter().map(|(n, v)| (n.as_str(), v))
    }

    fn resolve(&self, p: &Param) -> Result<Value, SqlError> {
        match p {
            Param::Named(n) => lookup(&self.named, p)
                .cloned()
                .ok_or_else(|| SqlError::UnboundParameter(n.clone())),
            Param::Positional(i) => self
                .get_positional(*i)
                .cloned()
                .ok_or(SqlError::UnboundPositional(*i)),
        }
    }
}

/// The value named `bindings` give a parameter: the last binding of its
/// name (as [`ParamBindings::set`] replaces an earlier one), and never one
/// for a positional parameter.
pub fn lookup<'b>(bindings: &'b [(String, Value)], p: &Param) -> Option<&'b Value> {
    match p {
        Param::Named(n) => bindings.iter().rev().find(|(k, _)| k == n).map(|(_, v)| v),
        Param::Positional(_) => None,
    }
}

/// Resolves one parameter to its value, or to the error binding reports.
pub type Resolve<'r> = dyn FnMut(&Param) -> Result<Value, SqlError> + 'r;

/// Substitutes parameter values throughout a statement.
///
/// Fails with [`SqlError::UnboundParameter`] / [`SqlError::UnboundPositional`]
/// if the statement mentions a parameter the bindings don't cover.
pub fn bind_statement(stmt: &Statement, bindings: &ParamBindings) -> Result<Statement, SqlError> {
    substitute_statement(stmt, &mut |p| bindings.resolve(p))
}

/// Substitutes parameter values throughout a query.
pub fn bind_query(q: &Query, bindings: &ParamBindings) -> Result<Query, SqlError> {
    substitute_query(q, &mut |p| bindings.resolve(p))
}

/// Substitutes parameter values throughout an expression.
pub fn bind_expr(e: &Expr, bindings: &ParamBindings) -> Result<Expr, SqlError> {
    substitute_expr(e, &mut |p| bindings.resolve(p))
}

/// The parameters a statement mentions, each once, in the order
/// [`bind_statement`] resolves them: of those a set of bindings lacks, the
/// first is the one `bind_statement` fails on.
pub fn params_in_bind_order(stmt: &Statement) -> Vec<Param> {
    let mut order: Vec<Param> = Vec::new();
    let _ = substitute_statement(stmt, &mut |p| {
        if !order.contains(p) {
            order.push(p.clone());
        }
        Ok(Value::Null)
    });
    order
}

/// The error [`bind_statement`] reports for a statement mentioning `params`
/// (as listed by [`params_in_bind_order`]) under the named `bindings`, or
/// `None` if [`lookup`] finds every one.
pub fn unbound_error(params: &[Param], bindings: &[(String, Value)]) -> Option<SqlError> {
    let missing = params.iter().find(|p| lookup(bindings, p).is_none())?;
    Some(match missing {
        Param::Named(n) => SqlError::UnboundParameter(n.clone()),
        Param::Positional(i) => SqlError::UnboundPositional(*i),
    })
}

fn substitute_statement(
    stmt: &Statement,
    resolve: &mut Resolve<'_>,
) -> Result<Statement, SqlError> {
    Ok(match stmt {
        Statement::Select(q) => Statement::Select(substitute_query(q, resolve)?),
        Statement::Insert(ins) => {
            let mut out = ins.clone();
            for row in &mut out.rows {
                for e in row.iter_mut() {
                    *e = substitute_expr(e, resolve)?;
                }
            }
            Statement::Insert(out)
        }
        Statement::Update(u) => {
            let mut out = u.clone();
            out.assignments = u
                .assignments
                .iter()
                .map(|a| {
                    Ok(Assignment {
                        column: a.column.clone(),
                        value: substitute_expr(&a.value, resolve)?,
                    })
                })
                .collect::<Result<_, SqlError>>()?;
            out.where_clause = match &u.where_clause {
                Some(w) => Some(substitute_expr(w, resolve)?),
                None => None,
            };
            Statement::Update(out)
        }
        Statement::Delete(d) => {
            let mut out = d.clone();
            out.where_clause = match &d.where_clause {
                Some(w) => Some(substitute_expr(w, resolve)?),
                None => None,
            };
            Statement::Delete(out)
        }
        Statement::CreateTable(ct) => Statement::CreateTable(ct.clone()),
    })
}

fn substitute_query(q: &Query, resolve: &mut Resolve<'_>) -> Result<Query, SqlError> {
    let mut out = q.clone();
    out.items = q
        .items
        .iter()
        .map(|item| {
            Ok(match item {
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: substitute_expr(expr, resolve)?,
                    alias: alias.clone(),
                },
                other => other.clone(),
            })
        })
        .collect::<Result<_, SqlError>>()?;
    for j in &mut out.joins {
        j.on = substitute_expr(&j.on, resolve)?;
    }
    out.where_clause = match &q.where_clause {
        Some(w) => Some(substitute_expr(w, resolve)?),
        None => None,
    };
    out.group_by = q
        .group_by
        .iter()
        .map(|g| substitute_expr(g, resolve))
        .collect::<Result<_, _>>()?;
    out.having = match &q.having {
        Some(h) => Some(substitute_expr(h, resolve)?),
        None => None,
    };
    for k in &mut out.order_by {
        k.expr = substitute_expr(&k.expr, resolve)?;
    }
    Ok(out)
}

/// Replaces every parameter in an expression, subqueries included, by the
/// value `resolve` gives it, stopping at the first error.
pub fn substitute_expr(e: &Expr, resolve: &mut Resolve<'_>) -> Result<Expr, SqlError> {
    let mut sub = |e: &Expr| substitute_expr(e, resolve).map(Box::new);
    Ok(match e {
        Expr::Param(p) => Expr::Literal(resolve(p)?),
        Expr::Literal(_) | Expr::Column(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: sub(expr)?,
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: sub(lhs)?,
            rhs: sub(rhs)?,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: sub(expr)?,
            list: list
                .iter()
                .map(|e| sub(e).map(|e| *e))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => Expr::InSubquery {
            expr: sub(expr)?,
            query: Box::new(substitute_query(query, resolve)?),
            negated: *negated,
        },
        Expr::Exists { query, negated } => Expr::Exists {
            query: Box::new(substitute_query(query, resolve)?),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: sub(expr)?,
            pattern: sub(pattern)?,
            negated: *negated,
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(sub(a)?),
                None => None,
            },
            distinct: *distinct,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    #[test]
    fn collects_named_and_positional() {
        let stmt =
            parse_statement("SELECT * FROM t WHERE a = ?MyUId AND b = ? AND c = ?Other AND d = ?")
                .unwrap();
        assert_eq!(
            params_in_bind_order(&stmt),
            [
                Param::Named("MyUId".into()),
                Param::Positional(0),
                Param::Named("Other".into()),
                Param::Positional(1)
            ]
        );
    }

    #[test]
    fn binds_view_for_session() {
        let stmt = parse_statement("SELECT EId FROM Attendance WHERE UId = ?MyUId").unwrap();
        let bound = bind_statement(&stmt, &ParamBindings::new().with("MyUId", 1)).unwrap();
        assert_eq!(
            bound.to_string(),
            "SELECT EId FROM Attendance WHERE UId = 1"
        );
    }

    #[test]
    fn binds_positional_in_order() {
        let stmt = parse_statement("SELECT 1 FROM t WHERE a = ? AND b = ?").unwrap();
        let b = ParamBindings::new()
            .with_positional(10)
            .with_positional("x");
        let bound = bind_statement(&stmt, &b).unwrap();
        assert_eq!(
            bound.to_string(),
            "SELECT 1 FROM t WHERE a = 10 AND b = 'x'"
        );
    }

    #[test]
    fn unbound_parameter_errors() {
        let stmt = parse_statement("SELECT 1 FROM t WHERE a = ?Missing").unwrap();
        match bind_statement(&stmt, &ParamBindings::new()) {
            Err(SqlError::UnboundParameter(n)) => assert_eq!(n, "Missing"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn binds_inside_subqueries() {
        let stmt =
            parse_statement("SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = ?MyUId)")
                .unwrap();
        let bound = bind_statement(&stmt, &ParamBindings::new().with("MyUId", 7)).unwrap();
        assert!(bound.to_string().contains("u.id = 7"));
    }

    /// The listed order is `bind_statement`'s, not the text's: an `UPDATE`
    /// binds its assignments before its `WHERE`, a query its select list
    /// before its `WHERE`, and the first unbound one is what it reports.
    #[test]
    fn unbound_error_reports_what_binding_reports() {
        let stmt = parse_statement(
            "UPDATE t SET a = ?A, b = ? WHERE c = ?C AND EXISTS (SELECT 1 FROM u WHERE u.x = ?A)",
        )
        .unwrap();
        let order = params_in_bind_order(&stmt);
        assert_eq!(
            order,
            [
                Param::Named("A".into()),
                Param::Positional(0),
                Param::Named("C".into())
            ]
        );
        let named = |names: &[&str]| -> Vec<(String, Value)> {
            names
                .iter()
                .map(|n| (n.to_string(), Value::Int(1)))
                .collect()
        };
        for names in [&[][..], &["A"], &["C"], &["A", "C"]] {
            let mut pb = ParamBindings::new();
            for (k, v) in named(names) {
                pb.set(k, v);
            }
            assert_eq!(
                unbound_error(&order, &named(names)),
                bind_statement(&stmt, &pb).err(),
                "{names:?}"
            );
        }
        let query = parse_statement("SELECT ?S FROM t WHERE a = ?W").unwrap();
        assert_eq!(
            unbound_error(&params_in_bind_order(&query), &[]),
            Some(SqlError::UnboundParameter("S".into()))
        );
    }

    #[test]
    fn set_replaces_existing_binding() {
        let mut b = ParamBindings::new();
        b.set("X", 1);
        b.set("X", 2);
        assert_eq!(b.get("X"), Some(&Value::Int(2)));
    }
}
