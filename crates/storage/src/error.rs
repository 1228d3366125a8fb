//! Storage-engine error type.

use std::fmt;

use crate::value::DataType;

/// Errors raised by the storage engine.
///
/// Every fallible public API in `odbis-storage` returns `Result<_, DbError>`;
/// higher layers (`odbis-sql`, `odbis-orm`) wrap this type rather than
/// exposing it raw.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant field names are self-documenting
pub enum DbError {
    /// A table was not found in the catalog.
    TableNotFound(String),
    /// A table with the same name already exists.
    TableExists(String),
    /// A column was not found in a table's schema.
    ColumnNotFound { table: String, column: String },
    /// An index was not found.
    IndexNotFound(String),
    /// An index with the same name already exists.
    IndexExists(String),
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        column: String,
        expected: DataType,
        actual: String,
    },
    /// NULL was inserted into a NOT NULL column.
    NullViolation { table: String, column: String },
    /// A UNIQUE or PRIMARY KEY constraint was violated.
    UniqueViolation { index: String, key: String },
    /// A row had the wrong number of columns.
    ArityMismatch { expected: usize, actual: usize },
    /// The referenced row id does not exist (deleted or never allocated).
    RowNotFound(u64),
    /// A store file (log, segment, manifest) could not be read or written.
    Io(String),
    /// A store file was structurally invalid.
    Corrupt(String),
    /// Generic invalid-argument error with context.
    Invalid(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::TableNotFound(t) => write!(f, "table not found: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::ColumnNotFound { table, column } => {
                write!(f, "column {column} not found in table {table}")
            }
            DbError::IndexNotFound(i) => write!(f, "index not found: {i}"),
            DbError::IndexExists(i) => write!(f, "index already exists: {i}"),
            DbError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for column {column}: expected {expected}, got {actual}"
            ),
            DbError::NullViolation { table, column } => {
                write!(f, "NULL value in NOT NULL column {table}.{column}")
            }
            DbError::UniqueViolation { index, key } => {
                write!(f, "duplicate key {key} violates unique constraint {index}")
            }
            DbError::ArityMismatch { expected, actual } => {
                write!(f, "row has {actual} values, table has {expected} columns")
            }
            DbError::RowNotFound(id) => write!(f, "row id {id} not found"),
            DbError::Io(e) => write!(f, "storage I/O error: {e}"),
            DbError::Corrupt(e) => write!(f, "corrupt store data: {e}"),
            DbError::Invalid(e) => write!(f, "invalid argument: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

/// Convenient result alias for storage operations.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DbError::UniqueViolation {
            index: "pk_users".into(),
            key: "(42)".into(),
        };
        assert!(e.to_string().contains("pk_users"));
        assert!(e.to_string().contains("(42)"));
        let e = DbError::TypeMismatch {
            column: "age".into(),
            expected: DataType::Int,
            actual: "TEXT".into(),
        };
        assert!(e.to_string().contains("BIGINT"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DbError = io.into();
        assert!(matches!(e, DbError::Io(_)));
    }
}
