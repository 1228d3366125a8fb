//! Table schemas: columns, constraints, and validation.

use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// Resolve a column name against an ordered list of names.
///
/// This is the single name-resolution rule for the whole data plane: names
/// match **case-insensitively** (ASCII) and the **first** match wins.
/// Storage schemas ([`Schema::index_of`]), SQL result sets
/// (`QueryResult::column_index`), and ETL frames (`Frame::column_index`)
/// all delegate here so a column addressable in one layer is addressable
/// in every other.
pub fn resolve_column<'a>(names: impl IntoIterator<Item = &'a str>, name: &str) -> Option<usize> {
    names.into_iter().position(|c| c.eq_ignore_ascii_case(name))
}

/// Definition of one column in a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-preserved, matched case-insensitively).
    pub name: String,
    /// Declared type; inserted values must be coercible to it.
    pub data_type: DataType,
    /// If true, NULL is rejected.
    pub not_null: bool,
    /// Default value applied when an insert omits the column.
    pub default: Option<Value>,
}

impl Column {
    /// A nullable column with no default.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            not_null: false,
            default: None,
        }
    }

    /// Mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Attach a default value.
    pub fn with_default(mut self, v: Value) -> Self {
        self.default = Some(v);
        self
    }
}

/// An ordered set of columns plus table-level constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    primary_key: Vec<usize>,
}

impl Schema {
    /// Build a schema from columns. Fails on duplicate column names.
    pub fn new(columns: Vec<Column>) -> DbResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(DbError::Invalid(format!(
                    "duplicate column name {}",
                    c.name
                )));
            }
            if c.name.is_empty() {
                return Err(DbError::Invalid("empty column name".into()));
            }
        }
        Ok(Schema {
            columns,
            primary_key: Vec::new(),
        })
    }

    /// Declare the primary key by column names. PK columns become NOT NULL.
    pub fn with_primary_key(mut self, names: &[&str]) -> DbResult<Self> {
        let mut pk = Vec::with_capacity(names.len());
        for n in names {
            let i = self.index_of(n).ok_or_else(|| DbError::ColumnNotFound {
                table: "<schema>".into(),
                column: (*n).to_string(),
            })?;
            if pk.contains(&i) {
                return Err(DbError::Invalid(format!("duplicate PK column {n}")));
            }
            self.columns[i].not_null = true;
            pk.push(i);
        }
        self.primary_key = pk;
        Ok(self)
    }

    /// The columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name, via the shared [`resolve_column`] rule.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        resolve_column(self.columns.iter().map(|c| c.name.as_str()), name)
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Primary-key column positions (empty when no PK is declared).
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Validate and coerce a full row against this schema, in place.
    ///
    /// Checks arity, applies implicit coercions, enforces NOT NULL. Returns
    /// the coerced row on success; a value already of its column's type is
    /// kept as it is, so a well-typed row is stored without a copy.
    pub fn check_row(&self, table: &str, mut row: Vec<Value>) -> DbResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(DbError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            if v.is_null() {
                match (&c.default, c.not_null) {
                    (_, false) => {}
                    (Some(d), true) => *v = d.clone(),
                    (None, true) => {
                        return Err(DbError::NullViolation {
                            table: table.to_string(),
                            column: c.name.clone(),
                        })
                    }
                }
            } else if v.data_type() != Some(c.data_type) {
                *v = v
                    .coerce_to(c.data_type)
                    .ok_or_else(|| DbError::TypeMismatch {
                        column: c.name.clone(),
                        expected: c.data_type,
                        actual: v
                            .data_type()
                            .map_or_else(|| "NULL".to_string(), |t| t.to_string()),
                    })?;
            }
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("name", DataType::Text).not_null(),
            Column::new("score", DataType::Float).with_default(Value::Float(0.0)),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Text),
        ])
        .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)));
    }

    #[test]
    fn primary_key_resolves_and_enforces_not_null() {
        let s = sample();
        assert_eq!(s.primary_key(), &[0]);
        assert!(s.columns()[0].not_null);
        let err = Schema::new(vec![Column::new("a", DataType::Int)])
            .unwrap()
            .with_primary_key(&["nope"])
            .unwrap_err();
        assert!(matches!(err, DbError::ColumnNotFound { .. }));
    }

    #[test]
    fn check_row_coerces_and_validates() {
        let s = sample();
        let row = s
            .check_row("t", vec![Value::Int(1), "bob".into(), Value::Int(3)])
            .unwrap();
        assert_eq!(row[2], Value::Float(3.0)); // Int coerced to Float
        assert!(matches!(
            s.check_row("t", vec![Value::Null, "b".into(), Value::Null]),
            Err(DbError::NullViolation { .. })
        ));
        assert!(matches!(
            s.check_row("t", vec![Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check_row("t", vec![Value::Int(1), Value::Int(2), Value::Null]),
            Err(DbError::TypeMismatch { .. })
        ));
        // a nullable column keeps its NULL; a NOT NULL one takes the default
        let with_default = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Float)
                .not_null()
                .with_default(Value::Float(1.5)),
        ])
        .unwrap();
        assert_eq!(
            with_default
                .check_row("t", vec![Value::Null, Value::Null])
                .unwrap(),
            vec![Value::Null, Value::Float(1.5)]
        );
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = sample();
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.column("Score").unwrap().data_type, DataType::Float);
    }

    #[test]
    fn resolve_column_pins_shared_semantics() {
        let names = ["Region", "total", "REGION"];
        let iter = || names.iter().copied();
        // ASCII case-insensitive
        assert_eq!(resolve_column(iter(), "region"), Some(0));
        assert_eq!(resolve_column(iter(), "TOTAL"), Some(1));
        // first match wins on (case-folded) duplicates
        assert_eq!(resolve_column(iter(), "REGION"), Some(0));
        // no substring or fuzzy matching
        assert_eq!(resolve_column(iter(), "tot"), None);
        assert_eq!(resolve_column(iter(), ""), None);
        // schema lookups use the same rule
        let s = sample();
        assert_eq!(
            s.index_of("SCORE"),
            resolve_column(s.columns().iter().map(|c| c.name.as_str()), "SCORE")
        );
    }
}
