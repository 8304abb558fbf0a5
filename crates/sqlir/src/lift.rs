//! Literal lifting: the *shape* of a statement.
//!
//! Applications that inline values (`... WHERE BlockerId = 42`) send a new
//! text for every value. [`lift_literals`] turns each integer and string
//! literal in a predicate or write position into a reserved named parameter
//! (`?__lit0`, `?__lit1`, …) bound to its value, so every literal of one
//! statement family maps to one shape text. Binding the shape's parameters
//! to the lifted values gives back the original statement.
//!
//! What is lifted: a literal right of a comparison operator, in an `IN`
//! list, as a `BETWEEN` bound (all in `WHERE`/`ON`), inside an
//! `INSERT ... VALUES` tuple, or as an `UPDATE ... SET` value. What is
//! not: select-list literals, `LIMIT` counts, `TRUE`/`FALSE`/`NULL`,
//! `LIKE` patterns, literals under a unary minus or inside arithmetic, and
//! anything in a text that already names a reserved parameter.
//!
//! The pass reads [`crate::token::lex`]'s tokens, so the literals it sees
//! are exactly the ones the parser will. A text with no digit and no quote
//! returns before lexing; a text that `lex` rejects lifts nothing.

use crate::token::{lex, SpannedTok, Tok};
use crate::value::Value;

/// Prefix of the parameter names [`lift_literals`] mints: `?__lit0`, ….
pub const LIFTED_PREFIX: &str = "__lit";

/// `true` for a name in the lifted namespace. A statement that names one
/// is never lifted, and a policy may not name one, so a minted name only
/// ever stands for its lifted literal.
pub fn is_lifted_name(name: &str) -> bool {
    name.starts_with(LIFTED_PREFIX)
}

/// A statement with its literals lifted.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The statement text with each lifted literal replaced by its
    /// parameter; every other byte is the original's.
    pub shape: String,
    /// `(name, value)` per lifted literal, in text order.
    pub bindings: Vec<(String, Value)>,
}

/// Lifts a statement's liftable literals, or `None` when it has none (or
/// does not lex, or already names a reserved parameter).
pub fn lift_literals(sql: &str) -> Option<Lifted> {
    // Every liftable literal starts with a digit or a quote.
    if !sql.bytes().any(|b| b.is_ascii_digit() || b == b'\'') {
        return None;
    }
    let toks = lex(sql).ok()?;
    let mut levels = vec![Level::default()];
    // Set right after the `AND` that closes a `BETWEEN`.
    let mut between_and = false;
    let mut out: Option<Lifted> = None;
    let mut copied = 0;
    for (i, SpannedTok { tok, offset }) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &toks[p].tok);
        let after_between_and = std::mem::take(&mut between_and);
        let level = levels.last_mut().expect("the outermost level stays");
        match tok {
            Tok::NamedParam(name) if is_lifted_name(name) => return None,
            Tok::Ident(word) => {
                let is = |kw: &str| word.eq_ignore_ascii_case(kw);
                if is("SELECT") {
                    *level = Level::default();
                } else if is("WHERE") || is("ON") {
                    level.clause = Clause::Pred;
                } else if is("SET") {
                    level.clause = Clause::Set;
                } else if is("VALUES") {
                    level.clause = Clause::Values;
                } else if ["FROM", "GROUP", "HAVING", "ORDER", "LIMIT"]
                    .iter()
                    .any(|kw| is(kw))
                {
                    level.clause = Clause::Other;
                } else if is("BETWEEN") {
                    level.between = true;
                } else if is("AND") && level.between {
                    level.between = false;
                    between_and = true;
                }
            }
            Tok::LParen => {
                let in_list = matches!(prev, Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("IN"));
                let clause = level.clause;
                levels.push(Level {
                    clause,
                    in_list,
                    between: false,
                });
            }
            Tok::RParen => {
                levels.pop();
                if levels.is_empty() {
                    return None;
                }
            }
            Tok::Int(_) | Tok::Str(_) => {
                let after_cmp = matches!(
                    prev,
                    Some(Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge)
                );
                let liftable = match level.clause {
                    Clause::Pred => match prev {
                        Some(Tok::LParen | Tok::Comma) => level.in_list,
                        Some(Tok::Ident(w)) => {
                            w.eq_ignore_ascii_case("BETWEEN") || after_between_and
                        }
                        _ => after_cmp,
                    },
                    Clause::Set => after_cmp,
                    Clause::Values => matches!(prev, Some(Tok::LParen | Tok::Comma)),
                    Clause::Other => false,
                };
                let end = literal_end(sql, *offset);
                // Arithmetic after the literal makes it an operand, not a
                // value; an identifier character glued to it would merge
                // with the parameter name.
                let operand = matches!(
                    toks[i + 1].tok,
                    Tok::Plus | Tok::Minus | Tok::Star | Tok::Slash | Tok::Dot
                );
                let glued = (sql.as_bytes().get(end))
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
                if liftable && !operand && !glued {
                    let lifted = out.get_or_insert_with(|| Lifted {
                        shape: String::with_capacity(sql.len() + 16),
                        bindings: Vec::new(),
                    });
                    let name = format!("{LIFTED_PREFIX}{}", lifted.bindings.len());
                    lifted.shape.push_str(&sql[copied..*offset]);
                    lifted.shape.push('?');
                    lifted.shape.push_str(&name);
                    let value = match tok {
                        Tok::Int(v) => Value::Int(*v),
                        Tok::Str(s) => Value::str(s.as_str()),
                        _ => unreachable!("only literals are lifted"),
                    };
                    lifted.bindings.push((name, value));
                    copied = end;
                }
            }
            _ => {}
        }
    }
    let mut lifted = out?;
    lifted.shape.push_str(&sql[copied..]);
    Some(lifted)
}

/// The byte just past the literal `lex` read at `start`: its digits, or
/// its closing quote (`''` is an escaped quote, not the end).
fn literal_end(sql: &str, start: usize) -> usize {
    let b = sql.as_bytes();
    let mut i = start + 1;
    if b[start] == b'\'' {
        loop {
            match (b[i], b.get(i + 1)) {
                (b'\'', Some(b'\'')) => i += 2,
                (b'\'', _) => return i + 1,
                _ => i += 1,
            }
        }
    }
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    i
}

/// The clause a literal sits in, per parenthesis level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Clause {
    /// Select list, `FROM`, `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`, or
    /// before any clause keyword: nothing is lifted.
    #[default]
    Other,
    /// `WHERE` or `ON`.
    Pred,
    /// `UPDATE ... SET`.
    Set,
    /// `INSERT ... VALUES`.
    Values,
}

/// What the pass tracks per parenthesis level.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    clause: Clause,
    /// The level is an `IN (...)` list.
    in_list: bool,
    /// A `BETWEEN` at this level still awaits its `AND`.
    between: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn lifted(sql: &str) -> Option<(String, Vec<Value>)> {
        lift_literals(sql).map(|l| {
            let values = l.bindings.iter().map(|(_, v)| v.clone()).collect();
            (l.shape, values)
        })
    }

    #[test]
    fn lifts_predicate_and_write_literals() {
        let (shape, values) =
            lifted("SELECT BlockedId FROM Blocks WHERE BlockerId = 42 AND Kind <> 'x'").unwrap();
        assert_eq!(
            shape,
            "SELECT BlockedId FROM Blocks WHERE BlockerId = ?__lit0 AND Kind <> ?__lit1"
        );
        assert_eq!(values, [Value::Int(42), Value::str("x")]);
        let (shape, values) = lifted(
            "SELECT a FROM t JOIN u ON t.k = 7 WHERE a IN (1, 'it''s') AND b BETWEEN 2 AND 3",
        )
        .unwrap();
        assert_eq!(
            shape,
            "SELECT a FROM t JOIN u ON t.k = ?__lit0 WHERE a IN (?__lit1, ?__lit2) \
             AND b BETWEEN ?__lit3 AND ?__lit4"
        );
        assert_eq!(values[2], Value::str("it's"));
        assert_eq!(
            lifted("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
                .unwrap()
                .0,
            "INSERT INTO t (a, b) VALUES (?__lit0, ?__lit1), (?__lit2, NULL)"
        );
        assert_eq!(
            lifted("UPDATE t SET a = 'y' WHERE b = 5").unwrap().0,
            "UPDATE t SET a = ?__lit0 WHERE b = ?__lit1"
        );
        // A subquery's predicate lifts; its select list does not.
        assert_eq!(
            lifted("SELECT 1 FROM t WHERE EXISTS (SELECT 2 FROM u WHERE u.x = 3)")
                .unwrap()
                .0,
            "SELECT 1 FROM t WHERE EXISTS (SELECT 2 FROM u WHERE u.x = ?__lit0)"
        );
        // Comments, quoted identifiers and multi-byte strings keep their
        // bytes; only the literal's own span is replaced.
        let (shape, values) =
            lifted("SELECT \"Order\".x FROM \"Order\" -- it's\n WHERE y >= 'héllo ☃' AND z = ?q")
                .unwrap();
        assert_eq!(
            shape,
            "SELECT \"Order\".x FROM \"Order\" -- it's\n WHERE y >= ?__lit0 AND z = ?q"
        );
        assert_eq!(values, [Value::str("héllo ☃")]);
        let deep = format!(
            "SELECT a FROM t WHERE {}b = 1{}",
            "(".repeat(20),
            ")".repeat(20)
        );
        assert_eq!(lifted(&deep).unwrap().1, [Value::Int(1)]);
    }

    #[test]
    fn leaves_everything_else_alone() {
        for sql in [
            "SELECT 1 FROM Blocks WHERE BlockerId = ?a AND BlockedId = ?MyUId",
            "SELECT a, 'x' FROM t ORDER BY a LIMIT 5",
            "SELECT a = 1 FROM t",
            "SELECT a FROM t WHERE b = -5 AND c = 2 + d AND e = 3 * f AND g LIKE 'x'",
            "SELECT a FROM t WHERE b = TRUE AND c = NULL AND d IN (SELECT 4 FROM u)",
            "SELECT a FROM t WHERE b = 5 AND c = ?__lit0",
            "SELECT a FROM t WHERE b = 5abc",
            "SELECT a FROM t WHERE b = 'x'y",
            "SELECT a FROM t WHERE b = 'unterminated",
            "SELECT a FROM t WHERE b = 99999999999999999999",
            "SELECT a FROM t WHERE b = 1)",
            "SELECT a FROM t WHERE b = t.5",
            "-- WHERE a = 1\nSELECT a FROM t",
        ] {
            assert_eq!(lift_literals(sql), None, "{sql}");
        }
    }

    /// Binding a shape's parameters to the lifted values gives back the
    /// statement the original text parses to.
    #[test]
    fn a_bound_shape_is_the_statement() {
        for sql in [
            "SELECT BlockedId FROM Blocks WHERE BlockerId = 42",
            "SELECT a FROM t JOIN u ON t.k = 7 WHERE a IN (1, 'it''s') AND b BETWEEN 2 AND 3",
            "INSERT INTO Posts (PId, AuthorId, Title, Body) VALUES (9, 12, 'spoofed', 'x')",
            "UPDATE Posts SET Title = 'defaced' WHERE AuthorId = 12",
            "DELETE FROM Posts WHERE AuthorId = 12 AND (PId > 3 OR PId < 1)",
        ] {
            let l = lift_literals(sql).expect(sql);
            let mut b = crate::ParamBindings::new();
            for (n, v) in &l.bindings {
                b.set(n.clone(), v.clone());
            }
            let shape = parse_statement(&l.shape).unwrap();
            assert_eq!(
                crate::bind_statement(&shape, &b).unwrap(),
                parse_statement(sql).unwrap(),
                "{sql}"
            );
        }
    }
}
