//! Statement classification: what kind of access a statement performs.
//!
//! Classification is structural — it inspects the parsed
//! [`sqlir::Statement`], never the SQL text — so a mutation can never
//! masquerade as a read through formatting, comments, or casing tricks.

use sqlir::Statement;

/// The broad access class of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatementClass {
    /// A `SELECT`: reads data, never changes it.
    Read,
    /// An `INSERT`, `UPDATE`, or `DELETE`: changes row data.
    Write,
    /// DDL (`CREATE TABLE`): changes schema, not rows.
    Ddl,
}

impl StatementClass {
    /// Classifies a parsed statement. Purely structural.
    pub fn of(stmt: &Statement) -> StatementClass {
        match stmt {
            Statement::Select(_) => StatementClass::Read,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                StatementClass::Write
            }
            Statement::CreateTable(_) => StatementClass::Ddl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlir::parse_statement;

    fn class_of(sql: &str) -> StatementClass {
        StatementClass::of(&parse_statement(sql).expect("parse"))
    }

    #[test]
    fn classification_is_structural() {
        assert_eq!(class_of("SELECT 1 FROM T"), StatementClass::Read);
        assert_eq!(
            class_of("INSERT INTO T (A) VALUES (1)"),
            StatementClass::Write
        );
        assert_eq!(class_of("UPDATE T SET A = 1"), StatementClass::Write);
        assert_eq!(class_of("DELETE FROM T WHERE A = 1"), StatementClass::Write);
        assert_eq!(
            class_of("CREATE TABLE T (A INT PRIMARY KEY)"),
            StatementClass::Ddl
        );
    }
}
