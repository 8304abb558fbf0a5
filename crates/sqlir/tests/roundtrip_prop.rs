//! Property-based tests: printing any generated statement yields SQL that
//! parses back to the identical AST.

use proptest::prelude::*;
use sqlir::{
    parse_statement, Assignment, BinaryOp, ColumnRef, Delete, Distinctness, Expr, Insert,
    JoinClause, OrderKey, Param, Query, SelectItem, SetFunc, Statement, TableRef, UnaryOp, Update,
    Value,
};

fn ident() -> impl Strategy<Value = String> {
    // Identifiers avoid reserved words by construction (prefix `c`).
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| format!("c{s}"))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
        "[ -~&&[^']]{0,8}".prop_map(Value::from),
        "[a-z '☃]{0,8}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn column_ref() -> impl Strategy<Value = ColumnRef> {
    (proptest::option::of(ident()), ident()).prop_map(|(table, column)| ColumnRef { table, column })
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        value().prop_map(Expr::Literal),
        column_ref().prop_map(Expr::Column),
        ident().prop_map(|n| Expr::Param(Param::Named(n))),
        Just(Expr::Param(Param::Positional(0))),
    ]
}

fn binary_op() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::Ne),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Gt),
        Just(BinaryOp::Ge),
        Just(BinaryOp::And),
        Just(BinaryOp::Or),
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
    ]
}

fn agg() -> impl Strategy<Value = Expr> {
    let func = prop_oneof![
        Just(SetFunc::Count),
        Just(SetFunc::Sum),
        Just(SetFunc::Min),
        Just(SetFunc::Max),
        Just(SetFunc::Avg),
    ];
    (func, proptest::option::of(column_ref()), any::<bool>()).prop_map(|(func, arg, distinct)| {
        match arg {
            // `COUNT(*)`; other functions require an argument.
            None if func == SetFunc::Count => Expr::Agg {
                func,
                arg: None,
                distinct: false,
            },
            None => Expr::Agg {
                func,
                arg: Some(Box::new(Expr::col("cfallback"))),
                distinct,
            },
            Some(c) => Expr::Agg {
                func,
                arg: Some(Box::new(Expr::Column(c))),
                distinct,
            },
        }
    })
}

fn expr() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (binary_op(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
            (
                inner.clone(),
                proptest::collection::vec(value().prop_map(Expr::Literal), 1..3),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), value(), value(), any::<bool>()).prop_map(|(e, lo, hi, negated)| {
                Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(Expr::Literal(lo)),
                    high: Box::new(Expr::Literal(hi)),
                    negated,
                }
            }),
            (inner, "[a-z%_]{0,6}", any::<bool>()).prop_map(|(e, pat, negated)| Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(Expr::string(pat)),
                negated,
            }),
        ]
    })
}

fn table_ref() -> impl Strategy<Value = TableRef> {
    (ident(), proptest::option::of(ident())).prop_map(|(table, alias)| TableRef { table, alias })
}

fn select_item() -> impl Strategy<Value = SelectItem> {
    prop_oneof![
        Just(SelectItem::Wildcard),
        ident().prop_map(SelectItem::QualifiedWildcard),
        (expr(), proptest::option::of(ident()))
            .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
        agg().prop_map(|expr| SelectItem::Expr { expr, alias: None }),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    (
        any::<bool>(),
        proptest::collection::vec(select_item(), 1..4),
        proptest::collection::vec(table_ref(), 1..3),
        proptest::collection::vec((table_ref(), expr()), 0..2),
        proptest::option::of(expr()),
        proptest::collection::vec((expr(), any::<bool>()), 0..2),
        proptest::option::of(0u64..100),
    )
        .prop_map(
            |(distinct, items, from, joins, where_clause, order_by, limit)| Query {
                distinct: if distinct {
                    Distinctness::Distinct
                } else {
                    Distinctness::All
                },
                items,
                from,
                joins: joins
                    .into_iter()
                    .map(|(table, on)| JoinClause { table, on })
                    .collect(),
                where_clause,
                group_by: Vec::new(),
                having: None,
                order_by: order_by
                    .into_iter()
                    .map(|(expr, desc)| OrderKey { expr, desc })
                    .collect(),
                limit,
            },
        )
}

fn statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        query().prop_map(Statement::Select),
        (
            ident(),
            proptest::collection::vec(ident(), 1..4),
            proptest::collection::vec(value().prop_map(Expr::Literal), 1..4)
        )
            .prop_map(|(table, columns, row)| {
                let width = columns.len();
                let mut r = row;
                r.resize(width, Expr::int(0));
                Statement::Insert(Insert {
                    table,
                    columns,
                    rows: vec![r],
                })
            }),
        (ident(), ident(), expr(), proptest::option::of(expr())).prop_map(
            |(table, column, value, where_clause)| {
                Statement::Update(Update {
                    table,
                    assignments: vec![Assignment { column, value }],
                    where_clause,
                })
            }
        ),
        (ident(), proptest::option::of(expr())).prop_map(
            |(table, where_clause)| Statement::Delete(Delete {
                table,
                where_clause
            })
        ),
    ]
}

/// Renumbers positional parameters in textual order, matching how the lexer
/// assigns indices (`?` indices are lexical by definition, so a generated AST
/// must be normalized before the round-trip comparison).
fn renumber_positionals(stmt: &mut Statement) {
    fn expr(e: &mut Expr, next: &mut usize) {
        match e {
            Expr::Param(Param::Positional(i)) => {
                *i = *next;
                *next += 1;
            }
            Expr::Param(Param::Named(_)) | Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Unary { expr: inner, .. } | Expr::IsNull { expr: inner, .. } => expr(inner, next),
            Expr::Binary { lhs, rhs, .. } => {
                expr(lhs, next);
                expr(rhs, next);
            }
            Expr::InList {
                expr: inner, list, ..
            } => {
                expr(inner, next);
                for item in list {
                    expr(item, next);
                }
            }
            Expr::InSubquery {
                expr: inner, query, ..
            } => {
                expr(inner, next);
                query_params(query, next);
            }
            Expr::Exists { query, .. } => query_params(query, next),
            Expr::Between {
                expr: inner,
                low,
                high,
                ..
            } => {
                expr(inner, next);
                expr(low, next);
                expr(high, next);
            }
            Expr::Like {
                expr: inner,
                pattern,
                ..
            } => {
                expr(inner, next);
                expr(pattern, next);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    expr(a, next);
                }
            }
        }
    }
    fn query_params(q: &mut Query, next: &mut usize) {
        for item in &mut q.items {
            if let SelectItem::Expr { expr: e, .. } = item {
                expr(e, next);
            }
        }
        for j in &mut q.joins {
            expr(&mut j.on, next);
        }
        if let Some(w) = &mut q.where_clause {
            expr(w, next);
        }
        for g in &mut q.group_by {
            expr(g, next);
        }
        if let Some(h) = &mut q.having {
            expr(h, next);
        }
        for k in &mut q.order_by {
            expr(&mut k.expr, next);
        }
    }
    let mut next = 0usize;
    match stmt {
        Statement::Select(q) => query_params(q, &mut next),
        Statement::Insert(ins) => {
            for row in &mut ins.rows {
                for e in row {
                    expr(e, &mut next);
                }
            }
        }
        Statement::Update(u) => {
            for a in &mut u.assignments {
                expr(&mut a.value, &mut next);
            }
            if let Some(w) = &mut u.where_clause {
                expr(w, &mut next);
            }
        }
        Statement::Delete(d) => {
            if let Some(w) = &mut d.where_clause {
                expr(w, &mut next);
            }
        }
        Statement::CreateTable(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn print_parse_roundtrip(stmt in statement()) {
        let mut stmt = stmt;
        renumber_positionals(&mut stmt);
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(stmt, reparsed, "printed form: {}", printed);
    }

    #[test]
    fn like_matching_never_panics(text in "[a-z ]{0,12}", pat in "[a-z%_]{0,12}") {
        let _ = sqlir::value::like_match(&text, &pat);
    }
}
