//! Schemas: tables, columns, and integrity constraints.

use sqlir::{ColumnDef, CreateTable, SqlType, TableConstraint};

use crate::error::DbError;

/// A column in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// Whether `NULL` is rejected.
    pub not_null: bool,
}

/// A foreign-key constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column indices (in the owning table).
    pub columns: Vec<usize>,
    /// Referenced table name.
    pub ref_table: String,
    /// Referenced column names.
    pub ref_columns: Vec<String>,
    /// Referenced column indices (in `ref_table`): `ref_columns`, or its
    /// primary key when none are named. Resolved once, when
    /// [`Database::create_table`](crate::Database::create_table) admits the
    /// table, so a row's check reads them in place; empty before then.
    pub ref_indices: Vec<usize>,
}

/// The schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns, in declaration order.
    pub columns: Vec<Column>,
    /// Primary-key column indices (empty if none declared).
    pub primary_key: Vec<usize>,
    /// Unique constraints (each a set of column indices), not including the
    /// primary key.
    pub uniques: Vec<Vec<usize>>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Builds a schema from a parsed `CREATE TABLE`.
    pub fn from_create(ct: &CreateTable) -> Result<TableSchema, DbError> {
        let mut columns = Vec::with_capacity(ct.columns.len());
        let mut primary_key: Vec<usize> = Vec::new();
        let mut uniques: Vec<Vec<usize>> = Vec::new();

        for (idx, def) in ct.columns.iter().enumerate() {
            if columns.iter().any(|c: &Column| c.name == def.name) {
                return Err(DbError::BadSchema(format!(
                    "duplicate column {} in table {}",
                    def.name, ct.name
                )));
            }
            let ColumnDef {
                name,
                ty,
                not_null,
                primary_key: pk,
                unique,
            } = def;
            columns.push(Column {
                name: name.clone(),
                ty: *ty,
                // Primary-key columns are implicitly NOT NULL.
                not_null: *not_null || *pk,
            });
            if *pk {
                if !primary_key.is_empty() {
                    return Err(DbError::BadSchema(format!(
                        "multiple inline PRIMARY KEY columns in table {}",
                        ct.name
                    )));
                }
                primary_key.push(idx);
            }
            if *unique {
                uniques.push(vec![idx]);
            }
        }

        let mut schema = TableSchema {
            name: ct.name.clone(),
            columns,
            primary_key,
            uniques,
            foreign_keys: Vec::new(),
        };

        for con in &ct.constraints {
            match con {
                TableConstraint::PrimaryKey(cols) => {
                    if !schema.primary_key.is_empty() {
                        return Err(DbError::BadSchema(format!(
                            "table {} declares two primary keys",
                            ct.name
                        )));
                    }
                    let idxs = schema.resolve_columns(cols)?;
                    for &i in &idxs {
                        schema.columns[i].not_null = true;
                    }
                    schema.primary_key = idxs;
                }
                TableConstraint::Unique(cols) => {
                    let idxs = schema.resolve_columns(cols)?;
                    schema.uniques.push(idxs);
                }
                TableConstraint::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } => {
                    let idxs = schema.resolve_columns(columns)?;
                    schema.foreign_keys.push(ForeignKey {
                        columns: idxs,
                        ref_table: ref_table.clone(),
                        ref_columns: ref_columns.clone(),
                        ref_indices: Vec::new(),
                    });
                }
            }
        }
        Ok(schema)
    }

    /// Returns the index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Resolves a list of column names to indices.
    pub fn resolve_columns(&self, names: &[String]) -> Result<Vec<usize>, DbError> {
        names
            .iter()
            .map(|n| {
                self.column_index(n)
                    .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{}", self.name, n)))
            })
            .collect()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlir::parse_statement;

    fn schema_of(sql: &str) -> Result<TableSchema, DbError> {
        match parse_statement(sql).unwrap() {
            sqlir::Statement::CreateTable(ct) => TableSchema::from_create(&ct),
            _ => panic!("not a CREATE TABLE"),
        }
    }

    #[test]
    fn builds_schema_with_constraints() {
        let s = schema_of(
            "CREATE TABLE Attendance (UId INT NOT NULL, EId INT NOT NULL, Notes TEXT, \
             PRIMARY KEY (UId, EId), UNIQUE (Notes), \
             FOREIGN KEY (UId) REFERENCES Users (UId))",
        )
        .unwrap();
        assert_eq!(s.primary_key, vec![0, 1]);
        assert_eq!(s.uniques, vec![vec![2]]);
        assert_eq!(s.foreign_keys.len(), 1);
    }

    #[test]
    fn inline_primary_key_implies_not_null() {
        let s = schema_of("CREATE TABLE t (id INT PRIMARY KEY, x TEXT)").unwrap();
        assert!(s.columns[0].not_null);
        assert_eq!(s.primary_key, vec![0]);
    }

    #[test]
    fn rejects_duplicate_columns() {
        assert!(matches!(
            schema_of("CREATE TABLE t (a INT, a TEXT)"),
            Err(DbError::BadSchema(_))
        ));
    }

    #[test]
    fn rejects_double_primary_key() {
        assert!(schema_of("CREATE TABLE t (a INT PRIMARY KEY, b INT, PRIMARY KEY (b))").is_err());
    }

    #[test]
    fn rejects_unknown_constraint_column() {
        assert!(matches!(
            schema_of("CREATE TABLE t (a INT, UNIQUE (zzz))"),
            Err(DbError::NoSuchColumn(_))
        ));
    }
}
