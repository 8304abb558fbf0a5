//! Typed AST for the supported SQL subset.

use crate::text::Text;
use crate::value::{SqlType, Value};

/// A complete SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Select(Query),
    /// An `INSERT` statement.
    Insert(Insert),
    /// An `UPDATE` statement.
    Update(Update),
    /// A `DELETE` statement.
    Delete(Delete),
    /// A `CREATE TABLE` statement.
    CreateTable(CreateTable),
}

impl Statement {
    /// Returns `true` if the statement only reads data.
    pub fn is_read_only(&self) -> bool {
        matches!(self, Statement::Select(_))
    }
}

/// Whether duplicate rows are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distinctness {
    /// `SELECT ALL` (the default).
    All,
    /// `SELECT DISTINCT`.
    Distinct,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `DISTINCT` or `ALL`.
    pub distinct: Distinctness,
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// Tables in the `FROM` clause (comma-separated cross products).
    pub from: Vec<TableRef>,
    /// `JOIN ... ON ...` clauses, applied left to right after `from`.
    pub joins: Vec<JoinClause>,
    /// The `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate (requires `group_by` or aggregates).
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl Query {
    /// Creates an empty `SELECT` skeleton for programmatic construction.
    pub fn new() -> Query {
        Query {
            distinct: Distinctness::All,
            items: Vec::new(),
            from: Vec::new(),
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// Returns `true` if any select item is an aggregate function.
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }) || self
            .having
            .as_ref()
            .map(|h| h.contains_aggregate())
            .unwrap_or(false)
    }

    /// Iterates over every table referenced in `FROM` and `JOIN` clauses.
    pub fn table_refs(&self) -> impl Iterator<Item = &TableRef> {
        self.from.iter().chain(self.joins.iter().map(|j| &j.table))
    }
}

impl Default for Query {
    fn default() -> Query {
        Query::new()
    }
}

/// One entry in a `SELECT` projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// The output-column alias, if any.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// The table name.
    pub table: String,
    /// The binding alias (`FROM Events e`).
    pub alias: Option<String>,
}

impl TableRef {
    /// Creates an unaliased reference.
    pub fn new(table: impl Into<String>) -> TableRef {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    /// Creates an aliased reference.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> TableRef {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name this reference binds in scope (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An inner-join clause (`JOIN t ON cond`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The join predicate.
    pub on: Expr,
}

/// A sort key in `ORDER BY`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The key expression.
    pub expr: Expr,
    /// `true` for `DESC`.
    pub desc: bool,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// The qualifying table binding, if written.
    pub table: Option<String>,
    /// The column name.
    pub column: String,
}

impl ColumnRef {
    /// Creates an unqualified reference.
    pub fn new(column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Creates a qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// A query parameter placeholder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Param {
    /// `?Name`.
    Named(String),
    /// `?`, identified by 0-based occurrence index.
    Positional(usize),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`.
    Eq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `AND`.
    And,
    /// `OR`.
    Or,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
}

impl BinaryOp {
    /// Returns `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// The SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// The comparison with operand order swapped (`<` becomes `>`).
    pub fn flipped(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            other => other,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical `NOT`.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate (set) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `AVG`.
    Avg,
}

impl SetFunc {
    /// The SQL spelling of the function.
    pub fn name(self) -> &'static str {
        match self {
            SetFunc::Count => "COUNT",
            SetFunc::Sum => "SUM",
            SetFunc::Min => "MIN",
            SetFunc::Max => "MAX",
            SetFunc::Avg => "AVG",
        }
    }

    /// Parses a function name (case-insensitive).
    pub fn parse(name: &str) -> Option<SetFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(SetFunc::Count),
            "SUM" => Some(SetFunc::Sum),
            "MIN" => Some(SetFunc::Min),
            "MAX" => Some(SetFunc::Max),
            "AVG" => Some(SetFunc::Avg),
            _ => None,
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A parameter placeholder.
    Param(Param),
    /// A column reference.
    Column(ColumnRef),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate values.
        list: Vec<Expr>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The subquery (must project one column).
        query: Box<Query>,
        /// `true` for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<Query>,
        /// `true` for `NOT EXISTS`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `true` for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// `true` for `NOT LIKE`.
        negated: bool,
    },
    /// An aggregate function call; `arg` is `None` for `COUNT(*)`.
    Agg {
        /// The aggregate function.
        func: SetFunc,
        /// Argument expression (`None` means `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// `true` for `COUNT(DISTINCT x)` etc.
        distinct: bool,
    },
}

impl Expr {
    /// An integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// A string literal.
    pub fn string(v: impl Into<Text>) -> Expr {
        Expr::Literal(Value::str(v))
    }

    /// An unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(name))
    }

    /// A qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, name))
    }

    /// A named parameter.
    pub fn named_param(name: impl Into<String>) -> Expr {
        Expr::Param(Param::Named(name.into()))
    }

    /// Builds `lhs op rhs`.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds `lhs = rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, lhs, rhs)
    }

    /// Builds `lhs AND rhs`.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::And, lhs, rhs)
    }

    /// Conjoins a list of predicates; `None` if the list is empty.
    pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Returns `true` if this expression (transitively) contains an aggregate.
    fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } => false,
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
        }
    }

    /// Splits an expression into its top-level `AND` conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    op: BinaryOp::And,
                    lhs,
                    rhs,
                } => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Calls `f` on this expression and every sub-expression (pre-order),
    /// including expressions inside subqueries.
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                expr.walk(f);
                walk_query(query, f);
            }
            Expr::Exists { query, .. } => walk_query(query, f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
        }
    }
}

/// Calls `f` on every expression appearing anywhere in a query.
pub fn walk_query(q: &Query, f: &mut dyn FnMut(&Expr)) {
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.walk(f);
        }
    }
    for j in &q.joins {
        j.on.walk(f);
    }
    if let Some(w) = &q.where_clause {
        w.walk(f);
    }
    for g in &q.group_by {
        g.walk(f);
    }
    if let Some(h) = &q.having {
        h.walk(f);
    }
    for k in &q.order_by {
        k.expr.walk(f);
    }
}

/// An `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list (empty means "all columns in schema order").
    pub columns: Vec<String>,
    /// One or more value rows.
    pub rows: Vec<Vec<Expr>>,
}

/// A `SET` assignment inside `UPDATE`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target column.
    pub column: String,
    /// New value.
    pub value: Expr,
}

/// An `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Column assignments.
    pub assignments: Vec<Assignment>,
    /// Row filter.
    pub where_clause: Option<Expr>,
}

/// A `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Row filter.
    pub where_clause: Option<Expr>,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: SqlType,
    /// `NOT NULL` constraint.
    pub not_null: bool,
    /// Inline `PRIMARY KEY` marker.
    pub primary_key: bool,
    /// Inline `UNIQUE` marker.
    pub unique: bool,
}

/// A table-level constraint in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (c1, ...)`.
    PrimaryKey(Vec<String>),
    /// `UNIQUE (c1, ...)`.
    Unique(Vec<String>),
    /// `FOREIGN KEY (c1, ...) REFERENCES t (d1, ...)`.
    ForeignKey {
        /// Referencing columns.
        columns: Vec<String>,
        /// Referenced table.
        ref_table: String,
        /// Referenced columns (empty means the referenced primary key).
        ref_columns: Vec<String>,
    },
}

/// A `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level constraints.
    pub constraints: Vec<TableConstraint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = Expr::and(
            Expr::eq(Expr::col("a"), Expr::int(1)),
            Expr::and(
                Expr::eq(Expr::col("b"), Expr::int(2)),
                Expr::eq(Expr::col("c"), Expr::int(3)),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn and_all_handles_empty_and_single() {
        assert_eq!(Expr::and_all(Vec::new()), None);
        let single = Expr::eq(Expr::col("a"), Expr::int(1));
        assert_eq!(Expr::and_all(vec![single.clone()]), Some(single));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg {
            func: SetFunc::Count,
            arg: None,
            distinct: false,
        };
        let nested = Expr::binary(BinaryOp::Add, agg, Expr::int(1));
        assert!(nested.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn table_ref_binding() {
        assert_eq!(TableRef::new("Events").binding(), "Events");
        assert_eq!(TableRef::aliased("Events", "e").binding(), "e");
    }

    #[test]
    fn flipped_comparisons() {
        assert_eq!(BinaryOp::Lt.flipped(), BinaryOp::Gt);
        assert_eq!(BinaryOp::Eq.flipped(), BinaryOp::Eq);
    }
}
