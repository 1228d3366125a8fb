//! The record frame flowing through ETL pipelines: a header plus rows.

use odbis_storage::{Batch, Value};

use crate::EtlError;

/// A batch of records with named columns — the unit of data moving between
/// ETL operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Column names.
    pub columns: Vec<String>,
    /// Row data; every row has `columns.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Frame {
    /// Frame from parts, checking row arity.
    pub fn from_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Result<Self, EtlError> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != columns.len() {
                return Err(EtlError::Shape(format!(
                    "row {i} has {} values, expected {}",
                    r.len(),
                    columns.len()
                )));
            }
        }
        Ok(Frame { columns, rows })
    }

    /// Frame from column names and a columnar [`Batch`] — the pivot point
    /// where vectorized scans enter the row-shaped transform pipeline.
    pub fn from_batch(columns: Vec<String>, batch: &Batch) -> Result<Self, EtlError> {
        if batch.num_columns() != columns.len() {
            return Err(EtlError::Shape(format!(
                "batch has {} columns, header has {}",
                batch.num_columns(),
                columns.len()
            )));
        }
        Ok(Frame {
            columns,
            rows: batch.to_rows(),
        })
    }

    /// Convert this frame to a columnar [`Batch`] (typed columns inferred
    /// per the shared [`odbis_storage::ColumnVec`] rules).
    pub fn to_batch(&self) -> Result<Batch, EtlError> {
        Batch::from_rows(self.columns.len(), self.rows.clone())
            .map_err(|e| EtlError::Shape(e.to_string()))
    }

    /// Column position by name, via the platform-wide
    /// [`odbis_storage::resolve_column`] rule (ASCII case-insensitive,
    /// first match wins).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        odbis_storage::resolve_column(self.columns.iter().map(String::as_str), name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One column's values (cloned).
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>, EtlError> {
        let i = self
            .column_index(name)
            .ok_or_else(|| EtlError::UnknownColumn(name.to_string()))?;
        Ok(self.rows.iter().map(|r| r[i].clone()).collect())
    }
}

/// Parse CSV text into a [`Frame`]. The first line is the header. Supports
/// quoted fields with `""` escapes; values are type-inferred per cell
/// (Int, then Float, then Bool, then Date, falling back to Text; empty
/// fields become NULL).
pub fn parse_csv(text: &str) -> Result<Frame, EtlError> {
    let mut lines = split_csv_records(text);
    if lines.is_empty() {
        return Err(EtlError::Shape("empty CSV input".into()));
    }
    let header = lines.remove(0);
    let columns: Vec<String> = header;
    let mut rows = Vec::with_capacity(lines.len());
    for (li, fields) in lines.into_iter().enumerate() {
        if fields.len() != columns.len() {
            return Err(EtlError::Shape(format!(
                "CSV record {} has {} fields, header has {}",
                li + 2,
                fields.len(),
                columns.len()
            )));
        }
        rows.push(fields.into_iter().map(|f| infer_value(&f)).collect());
    }
    Ok(Frame { columns, rows })
}

fn split_csv_records(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record = Vec::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                record.push(std::mem::take(&mut field));
            }
            '\r' if !in_quotes => {}
            '\n' if !in_quotes => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            c => field.push(c),
        }
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    records
}

/// Infer the most specific [`Value`] for a CSV cell.
pub fn infer_value(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Value::Float(f);
    }
    match t.to_ascii_lowercase().as_str() {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Some(d) = odbis_storage::parse_date(t) {
        // only treat as date when it looks like one (YYYY-MM-DD)
        if t.len() >= 8 && t.chars().filter(|&c| c == '-').count() == 2 {
            return Value::Date(d);
        }
    }
    Value::Text(t.to_string())
}

/// Render a frame as CSV text that [`parse_csv`] reads back (the rule of
/// [`odbis_storage::csv_text`]).
pub fn to_csv(frame: &Frame) -> String {
    odbis_storage::csv_text(&frame.columns, &frame.rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_parsing_with_inference() {
        let f = parse_csv(
            "id,name,score,active,joined\n1,ana,9.5,true,2020-01-15\n2,\"b,ob\",7,false,\n",
        )
        .unwrap();
        assert_eq!(f.columns, vec!["id", "name", "score", "active", "joined"]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.rows[0][0], Value::Int(1));
        assert_eq!(f.rows[0][2], Value::Float(9.5));
        assert_eq!(f.rows[0][3], Value::Bool(true));
        assert!(matches!(f.rows[0][4], Value::Date(_)));
        assert_eq!(f.rows[1][1], Value::from("b,ob"));
        assert_eq!(f.rows[1][4], Value::Null);
    }

    #[test]
    fn csv_quote_escapes_and_crlf() {
        let f = parse_csv("a,b\r\n\"say \"\"hi\"\"\",2\r\n").unwrap();
        assert_eq!(f.rows[0][0], Value::from("say \"hi\""));
        assert_eq!(f.rows[0][1], Value::Int(2));
    }

    #[test]
    fn csv_shape_errors() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn csv_round_trip() {
        let f = parse_csv("x,y\n1,hello\n2,\"with,comma\"\n").unwrap();
        let csv = to_csv(&f);
        let f2 = parse_csv(&csv).unwrap();
        assert_eq!(f, f2);
        // header names and fields holding a separator, a quote or a line
        // break (`\r` too) are quoted; NULL is an empty field
        let f = Frame::from_rows(
            vec!["a,b".into(), "say \"c\"".into()],
            vec![
                vec!["x\ry".into(), "line\nbreak".into()],
                vec![Value::Null, "\"q\", r".into()],
            ],
        )
        .unwrap();
        assert_eq!(parse_csv(&to_csv(&f)).unwrap(), f);
    }

    #[test]
    fn frame_helpers() {
        let f = Frame::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![1.into(), 2.into()], vec![3.into(), 4.into()]],
        )
        .unwrap();
        assert_eq!(f.column_index("B"), Some(1));
        assert_eq!(
            f.column_values("a").unwrap(),
            vec![Value::Int(1), Value::Int(3)]
        );
        assert!(f.column_values("zz").is_err());
        assert!(Frame::from_rows(vec!["a".into()], vec![vec![1.into(), 2.into()]]).is_err());
    }

    #[test]
    fn batch_round_trip_preserves_frame() {
        let f = Frame::from_rows(
            vec!["a".into(), "b".into()],
            vec![
                vec![1.into(), "x".into()],
                vec![Value::Null, "y".into()],
                vec![3.into(), Value::Null],
            ],
        )
        .unwrap();
        let batch = f.to_batch().unwrap();
        assert_eq!(batch.num_rows(), 3);
        let back = Frame::from_batch(f.columns.clone(), &batch).unwrap();
        assert_eq!(f, back);
        // header / batch arity mismatch is a shape error
        assert!(Frame::from_batch(vec!["only".into()], &batch).is_err());
    }

    #[test]
    fn inference_edge_cases() {
        assert_eq!(infer_value("  42 "), Value::Int(42));
        assert_eq!(infer_value("4.5e2"), Value::Float(450.0));
        assert_eq!(infer_value("TRUE"), Value::Bool(true));
        assert_eq!(infer_value("hello"), Value::from("hello"));
        assert_eq!(infer_value(""), Value::Null);
        // ambiguous strings stay text
        assert_eq!(infer_value("1-2-3"), Value::from("1-2-3"));
    }
}
