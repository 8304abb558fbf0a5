//! Runtime values and SQL scalar types.
//!
//! [`Value`] is the single dynamic value type shared by the whole workspace:
//! the parser produces it for literals, the database engine stores rows of it,
//! the logic crate uses it for constants in conjunctive queries, and policies
//! instantiate parameters with it.

use std::cmp::Ordering;
use std::fmt;

use crate::text::Text;

/// A SQL scalar type.
///
/// `minidb` uses these for column declarations and type checking; the parser
/// maps `CREATE TABLE` type names onto them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 64-bit signed integers (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// UTF-8 strings (`TEXT`, `VARCHAR`, `CHAR`).
    Text,
    /// Booleans (`BOOL`, `BOOLEAN`).
    Bool,
}

impl SqlType {
    /// Returns the canonical SQL name of the type.
    pub fn name(self) -> &'static str {
        match self {
            SqlType::Int => "INT",
            SqlType::Text => "TEXT",
            SqlType::Bool => "BOOL",
        }
    }

    /// Parses a SQL type name (case-insensitive), accepting common synonyms.
    pub fn parse(name: &str) -> Option<SqlType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(SqlType::Int),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(SqlType::Text),
            "BOOL" | "BOOLEAN" => Some(SqlType::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of a SQL comparison under three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpResult {
    /// The comparison is true.
    True,
    /// The comparison is false.
    False,
    /// The comparison involves `NULL` and is therefore unknown.
    Unknown,
}

impl CmpResult {
    /// Converts a boolean into a definite comparison result.
    pub fn from_bool(b: bool) -> CmpResult {
        if b {
            CmpResult::True
        } else {
            CmpResult::False
        }
    }

    /// Returns `true` only for [`CmpResult::True`] (SQL `WHERE` semantics).
    pub fn is_true(self) -> bool {
        self == CmpResult::True
    }

    /// Three-valued logical AND.
    pub fn and(self, other: CmpResult) -> CmpResult {
        use CmpResult::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Three-valued logical OR.
    pub fn or(self, other: CmpResult) -> CmpResult {
        use CmpResult::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Three-valued logical NOT. Not `std::ops::Not`: this is Kleene
    /// negation on a three-valued result, not boolean negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> CmpResult {
        match self {
            CmpResult::True => CmpResult::False,
            CmpResult::False => CmpResult::True,
            CmpResult::Unknown => CmpResult::Unknown,
        }
    }
}

/// A dynamically-typed SQL value.
///
/// Equality (`PartialEq`/`Eq`/`Hash`) is *structural*: `Null == Null`. This is
/// the right notion for storage, deduplication, and logic; SQL's three-valued
/// comparison semantics live in [`Value::sql_cmp`] and are applied by the
/// expression evaluator, not by `==`.
// The derived `Ord` agrees with [`Value::total_cmp`] (variant declaration
// order is Null < Int < Str < Bool).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The SQL `NULL`.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string, inline up to [`crate::text::INLINE_CAP`] bytes.
    Str(Text),
    /// A boolean.
    Bool(bool),
}

// A `Value` is as large as its `Text`: the other variants live in the
// text's spare tag values.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// Returns a string value from anything string-like.
    pub fn str(s: impl Into<Text>) -> Value {
        Value::Str(s.into())
    }

    /// Returns `true` if the value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value's runtime type, or `None` for `NULL`.
    pub fn sql_type(&self) -> Option<SqlType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(SqlType::Int),
            Value::Str(_) => Some(SqlType::Text),
            Value::Bool(_) => Some(SqlType::Bool),
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued comparison: any `NULL` operand yields `None`.
    ///
    /// Cross-type comparisons between non-null values order by type tag
    /// (Int < Str < Bool), matching [`Value::total_cmp`], so that mixed data
    /// still sorts deterministically rather than erroring at runtime.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order over all values, used for `ORDER BY` and index keys.
    ///
    /// `NULL` sorts first; across types the order is
    /// `Null < Int < Str < Bool`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality under three-valued logic.
    pub fn sql_eq(&self, other: &Value) -> CmpResult {
        match self.sql_cmp(other) {
            None => CmpResult::Unknown,
            Some(ord) => CmpResult::from_bool(ord == Ordering::Equal),
        }
    }

    /// Renders the value as a SQL literal (strings quoted and escaped).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => f.write_str(s.as_str()),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Evaluates SQL `LIKE` with `%` (any run) and `_` (any single char).
///
/// Comparison is case-sensitive, matching SQLite's default for non-ASCII
/// safety; patterns contain no escape sequences in our subset.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                // `%` matches any suffix, including the empty one.
                (0..=t.len()).any(|k| rec(&t[k..], rest))
            }
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parse_synonyms() {
        assert_eq!(SqlType::parse("integer"), Some(SqlType::Int));
        assert_eq!(SqlType::parse("VARCHAR"), Some(SqlType::Text));
        assert_eq!(SqlType::parse("Boolean"), Some(SqlType::Bool));
        assert_eq!(SqlType::parse("BLOB"), None);
    }

    #[test]
    fn null_propagates_in_sql_cmp() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), CmpResult::Unknown);
    }

    #[test]
    fn total_order_is_total() {
        let vals = [
            Value::Null,
            Value::Int(-3),
            Value::Int(7),
            Value::str("a"),
            Value::str("b"),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                let ord = a.total_cmp(b);
                assert_eq!(ord, i.cmp(&j), "{a:?} vs {b:?}");
                assert_eq!(b.total_cmp(a), ord.reverse());
            }
        }
    }

    #[test]
    fn three_valued_logic_tables() {
        use CmpResult::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn like_basic_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn literal_escaping() {
        assert_eq!(Value::str("it's").to_sql_literal(), "'it''s'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Bool(true).to_sql_literal(), "TRUE");
    }
}
