//! Result bodies, written straight from a result's cells into one
//! pre-sized `String`: no row pivot, no `String` per cell and no JSON
//! tree.
//!
//! A JSON cell is a string holding the value's [`Value::render`] text; a
//! CSV field is that text, quoted only when it holds a comma, a quote or
//! a line break, and a NULL is an empty CSV field (the rule of
//! [`odbis_storage::csv_text`], so the platform's own CSV loader reads a
//! download back with its NULLs). Only a `Text` value can need an escape or
//! a quote, so every other cell is written through [`Value::render_into`]
//! as it is.

use std::fmt::Write;
use std::sync::Arc;

use odbis_olap::CellSet;
use odbis_sql::QueryResult;
use odbis_storage::{
    push_csv_field, push_csv_record, push_json_str, Batch, ColumnData, ColumnVec, Value,
};

/// Bytes reserved per cell before the first write; a longer body grows
/// the buffer as any `String` does.
const CELL_BYTES: usize = 10;

/// The `GET /datasets/:name` JSON body:
/// `{"columns":[...],"rows":[[...],...],"rowsAffected":0}`.
pub fn batch_json(columns: &[String], batch: &Batch) -> String {
    let cells = batch.columns();
    json_body(columns, batch.num_rows(), cells.len(), 0, |out, row| {
        push_cells(out, Dialect::Json, cells, row)
    })
}

/// The `GET /datasets/:name` CSV body: a header of column names, then one
/// record per row, every record ended by `\r\n`, a NULL an empty field.
pub fn batch_csv(columns: &[String], batch: &Batch) -> String {
    let cells = batch.columns();
    let mut out = String::with_capacity(64 + batch.num_rows() * (2 + cells.len() * CELL_BYTES));
    push_csv_record(&mut out, columns, "\r\n");
    for row in 0..batch.num_rows() {
        push_cells(&mut out, Dialect::Csv, cells, row);
        out.push_str("\r\n");
    }
    out
}

/// The `POST /sql` JSON body, the shape of [`batch_json`] with the
/// statement's `rowsAffected`.
pub fn query_json(result: &QueryResult) -> String {
    let width = result.columns.len();
    json_body(
        &result.columns,
        result.rows.len(),
        width,
        result.rows_affected,
        |out, row| push_values(out, &result.rows[row]),
    )
}

/// The `POST /mdx` JSON body:
/// `{"axes":[...],"measures":[...],"cells":[{"coords":[...],"measures":[...]},...]}`.
pub fn cellset_json(cells: &CellSet) -> String {
    let width = cells.axis_names.len() + cells.measure_names.len();
    let mut out = String::with_capacity(64 + cells.cells.len() * (32 + width * CELL_BYTES));
    out.push_str("{\"axes\":");
    push_strs(&mut out, &cells.axis_names);
    out.push_str(",\"measures\":");
    push_strs(&mut out, &cells.measure_names);
    out.push_str(",\"cells\":[");
    for (i, (coords, measures)) in cells.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"coords\":[");
        push_values(&mut out, coords);
        out.push_str("],\"measures\":[");
        push_values(&mut out, measures);
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// `{"columns":[...],"rows":[...],"rowsAffected":n}`, with `push_row`
/// writing row `i`'s comma-separated cells.
fn json_body(
    columns: &[String],
    rows: usize,
    width: usize,
    rows_affected: usize,
    mut push_row: impl FnMut(&mut String, usize),
) -> String {
    let mut out = String::with_capacity(64 + rows * (3 + width * CELL_BYTES));
    out.push_str("{\"columns\":");
    push_strs(&mut out, columns);
    out.push_str(",\"rows\":[");
    for row in 0..rows {
        if row > 0 {
            out.push(',');
        }
        out.push('[');
        push_row(&mut out, row);
        out.push(']');
    }
    // writing into a `String` cannot fail
    let _ = write!(out, "],\"rowsAffected\":{rows_affected}}}");
    out
}

/// A JSON array of strings.
fn push_strs(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, s);
    }
    out.push(']');
}

/// One row's cells of `columns`, comma-separated.
fn push_cells(out: &mut String, dialect: Dialect, columns: &[Arc<ColumnVec>], row: usize) {
    for (i, col) in columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        dialect.cell(out, col, row);
    }
}

/// Boxed values as comma-separated JSON cells.
fn push_values(out: &mut String, values: &[Value]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        Dialect::Json.value(out, v);
    }
}

/// How a cell is written out.
#[derive(Clone, Copy)]
enum Dialect {
    /// A JSON string.
    Json,
    /// An RFC 4180 field.
    Csv,
}

impl Dialect {
    /// Row `row` of `col`, read in its typed representation.
    fn cell(self, out: &mut String, col: &ColumnVec, row: usize) {
        if col.is_null(row) {
            return self.null(out);
        }
        match col.data() {
            ColumnData::Int(v) => self.rendered(out, &Value::Int(v[row])),
            ColumnData::Text(v) => self.text(out, &v[row]),
            ColumnData::Float(v) => self.rendered(out, &Value::Float(v[row])),
            ColumnData::Bool(v) => self.rendered(out, &Value::Bool(v[row])),
            ColumnData::Date(v) => self.rendered(out, &Value::Date(v[row])),
            ColumnData::Timestamp(v) => self.rendered(out, &Value::Timestamp(v[row])),
            ColumnData::Mixed(v) => self.value(out, &v[row]),
        }
    }

    fn value(self, out: &mut String, v: &Value) {
        match v {
            Value::Null => self.null(out),
            Value::Text(s) => self.text(out, s),
            v => self.rendered(out, v),
        }
    }

    /// The `NULL` text in JSON, nothing in CSV.
    fn null(self, out: &mut String) {
        if let Dialect::Json = self {
            out.push_str("\"NULL\"");
        }
    }

    fn text(self, out: &mut String, s: &str) {
        match self {
            Dialect::Json => push_json_str(out, s),
            Dialect::Csv => push_csv_field(out, s),
        }
    }

    /// A value that is not `Text`: its rendering needs no escape.
    fn rendered(self, out: &mut String, v: &Value) {
        match self {
            Dialect::Json => {
                out.push('"');
                v.render_into(out);
                out.push('"');
            }
            Dialect::Csv => v.render_into(out),
        }
    }
}
