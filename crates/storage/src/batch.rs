//! Columnar batches: the vectorized currency of the data plane.
//!
//! A [`Batch`] is a set of equal-length typed column vectors with per-column
//! null bitmaps, built from the same [`DataType`]/[`Value`] vocabulary as the
//! tables. A table stores its rows as chunks of [`ColumnVec`]s, so a scan
//! hands out one batch per chunk ([`crate::Table::scan_partitions`]), the SQL
//! executor evaluates predicates and aggregates column-wise over them, and
//! ETL frames and OLAP cube builds convert at their boundaries instead of
//! round-tripping through per-row clones.
//!
//! Columns are `Arc`-shared: projecting an existing column or re-using a
//! scan result in several operators costs a pointer bump, not a copy.

use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// The [`ColumnVec::gather`] / [`Batch::gather`] index that selects no
/// source row: the output slot is NULL (a LEFT join's unmatched side).
pub const NULL_ROW: u32 = u32::MAX;

/// Typed backing storage for one column of a [`Batch`].
///
/// The typed variants hold unboxed primitives (null slots hold a default and
/// are masked by the owning [`ColumnVec`]'s null bitmap). `Mixed` is the
/// fallback for heterogeneous columns — e.g. CSV columns whose per-cell type
/// inference produced more than one type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// UTF-8 strings.
    Text(Vec<String>),
    /// Dates as days since 1970-01-01.
    Date(Vec<i32>),
    /// Timestamps as microseconds since the epoch.
    Timestamp(Vec<i64>),
    /// Heterogeneous fallback: one boxed [`Value`] per row.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    fn filter(&self, keep: &[bool]) -> ColumnData {
        fn pick<T: Clone>(v: &[T], keep: &[bool]) -> Vec<T> {
            v.iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, keep)),
            ColumnData::Int(v) => ColumnData::Int(pick(v, keep)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, keep)),
            ColumnData::Text(v) => ColumnData::Text(pick(v, keep)),
            ColumnData::Date(v) => ColumnData::Date(pick(v, keep)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(pick(v, keep)),
            ColumnData::Mixed(v) => ColumnData::Mixed(pick(v, keep)),
        }
    }

    fn gather(&self, idx: &[u32]) -> ColumnData {
        fn take<T: Clone + Default>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter()
                .map(|&i| match i {
                    NULL_ROW => T::default(),
                    i => v[i as usize].clone(),
                })
                .collect()
        }
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(take(v, idx)),
            ColumnData::Int(v) => ColumnData::Int(take(v, idx)),
            ColumnData::Float(v) => ColumnData::Float(take(v, idx)),
            ColumnData::Text(v) => ColumnData::Text(take(v, idx)),
            ColumnData::Date(v) => ColumnData::Date(take(v, idx)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(take(v, idx)),
            ColumnData::Mixed(v) => ColumnData::Mixed(
                idx.iter()
                    .map(|&i| match i {
                        NULL_ROW => Value::Null,
                        i => v[i as usize].clone(),
                    })
                    .collect(),
            ),
        }
    }

    fn slice(&self, start: usize, end: usize) -> ColumnData {
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Text(v) => ColumnData::Text(v[start..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(v[start..end].to_vec()),
            ColumnData::Mixed(v) => ColumnData::Mixed(v[start..end].to_vec()),
        }
    }
}

/// One column of a [`Batch`]: typed data plus an optional null bitmap
/// (`None` means no nulls; `Some(flags)` marks null slots with `true`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    data: ColumnData,
    nulls: Option<Vec<bool>>,
}

impl ColumnVec {
    /// Column from typed data and an optional null bitmap.
    ///
    /// # Panics
    /// Panics if the bitmap length differs from the data length.
    pub fn new(data: ColumnData, nulls: Option<Vec<bool>>) -> Self {
        if let Some(n) = &nulls {
            assert_eq!(n.len(), data.len(), "null bitmap length mismatch");
        }
        ColumnVec { data, nulls }
    }

    /// Build a column from owned values, inferring the tightest typed
    /// representation: if every non-null value has the same [`DataType`]
    /// the column is typed; otherwise it falls back to `Mixed`.
    pub fn from_values(values: Vec<Value>) -> Self {
        let mut ty: Option<DataType> = None;
        let mut homogeneous = true;
        for v in &values {
            if let Some(t) = v.data_type() {
                match ty {
                    None => ty = Some(t),
                    Some(prev) if prev == t => {}
                    Some(_) => {
                        homogeneous = false;
                        break;
                    }
                }
            }
        }
        match (homogeneous, ty) {
            (true, Some(t)) => {
                let mut col = ColumnVec::with_capacity(t, values.len());
                for v in &values {
                    col.push(v);
                }
                col
            }
            _ => ColumnVec {
                data: ColumnData::Mixed(values),
                nulls: None,
            },
        }
    }

    /// An empty column of `ty` with room for `cap` rows.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        let data = match ty {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text(Vec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(cap)),
        };
        ColumnVec { data, nulls: None }
    }

    /// Append one value (see [`ColumnVec::set`]).
    pub fn push(&mut self, v: &Value) {
        self.set(self.len(), v);
    }

    /// Overwrite row `i` with `v`, or append it when `i == len()`. NULL or
    /// a value of the column's type keeps the column typed (a NULL slot
    /// holds the type's default, masked by the null bitmap); anything else
    /// degrades it to `Mixed`.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    pub fn set(&mut self, i: usize, v: &Value) {
        fn put<T>(d: &mut Vec<T>, i: usize, x: T) {
            if i == d.len() {
                d.push(x);
            } else {
                d[i] = x;
            }
        }
        match (&mut self.data, v) {
            (ColumnData::Mixed(d), v) => return put(d, i, v.clone()),
            (ColumnData::Bool(d), Value::Bool(x)) => put(d, i, *x),
            (ColumnData::Int(d), Value::Int(x)) => put(d, i, *x),
            (ColumnData::Float(d), Value::Float(x)) => put(d, i, *x),
            (ColumnData::Text(d), Value::Text(x)) => put(d, i, x.clone()),
            (ColumnData::Date(d), Value::Date(x)) => put(d, i, *x),
            (ColumnData::Timestamp(d), Value::Timestamp(x)) => put(d, i, *x),
            (ColumnData::Bool(d), Value::Null) => put(d, i, false),
            (ColumnData::Int(d), Value::Null) => put(d, i, 0),
            (ColumnData::Float(d), Value::Null) => put(d, i, 0.0),
            (ColumnData::Text(d), Value::Null) => put(d, i, String::new()),
            (ColumnData::Date(d), Value::Null) => put(d, i, 0),
            (ColumnData::Timestamp(d), Value::Null) => put(d, i, 0),
            (_, v) => {
                // type mismatch: degrade to Mixed, which holds its nulls inline
                let mut vals = self.values();
                put(&mut vals, i, v.clone());
                *self = ColumnVec {
                    data: ColumnData::Mixed(vals),
                    nulls: None,
                };
                return;
            }
        }
        let null = v.is_null();
        match &mut self.nulls {
            Some(n) => put(n, i, null),
            None if null => {
                let mut n = vec![false; self.data.len()];
                n[i] = true;
                self.nulls = Some(n);
            }
            None => {}
        }
    }

    /// A column repeating one value `len` times (scalar broadcast).
    pub fn broadcast(v: &Value, len: usize) -> Self {
        let data = match v {
            Value::Null => {
                return ColumnVec {
                    data: ColumnData::Mixed(vec![Value::Null; len]),
                    nulls: None,
                }
            }
            Value::Bool(b) => ColumnData::Bool(vec![*b; len]),
            Value::Int(i) => ColumnData::Int(vec![*i; len]),
            Value::Float(f) => ColumnData::Float(vec![*f; len]),
            Value::Text(s) => ColumnData::Text(vec![s.clone(); len]),
            Value::Date(d) => ColumnData::Date(vec![*d; len]),
            Value::Timestamp(t) => ColumnData::Timestamp(vec![*t; len]),
        };
        ColumnVec { data, nulls: None }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The typed backing data.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap, when any null-tracking is present.
    pub fn nulls(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(n) => n[i],
            None => matches!(&self.data, ColumnData::Mixed(v) if v[i].is_null()),
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match &self.nulls {
            Some(n) => n.iter().filter(|&&b| b).count(),
            None => match &self.data {
                ColumnData::Mixed(v) => v.iter().filter(|v| v.is_null()).count(),
                _ => 0,
            },
        }
    }

    /// The value at row `i` (boxed back into a [`Value`]).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            Value::Null
        } else {
            self.data.value_at(i)
        }
    }

    /// All values, boxed (row pivot of one column).
    pub fn values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// The declared type of the typed variants; `None` for `Mixed`.
    pub fn data_type(&self) -> Option<DataType> {
        match &self.data {
            ColumnData::Bool(_) => Some(DataType::Bool),
            ColumnData::Int(_) => Some(DataType::Int),
            ColumnData::Float(_) => Some(DataType::Float),
            ColumnData::Text(_) => Some(DataType::Text),
            ColumnData::Date(_) => Some(DataType::Date),
            ColumnData::Timestamp(_) => Some(DataType::Timestamp),
            ColumnData::Mixed(_) => None,
        }
    }

    /// Keep only the rows where `keep` is true.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn filter(&self, keep: &[bool]) -> ColumnVec {
        assert_eq!(keep.len(), self.len(), "filter mask length mismatch");
        let data = self.data.filter(keep);
        let nulls = self.nulls.as_ref().map(|n| {
            n.iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(&b, _)| b)
                .collect()
        });
        ColumnVec { data, nulls }
    }

    /// The rows at `idx`, in that order and with repeats (late
    /// materialisation of a join's output): slot `k` holds source row
    /// `idx[k]`, or NULL where `idx[k]` is [`NULL_ROW`]. The typed layout is
    /// kept, even for an empty `idx`.
    ///
    /// # Panics
    /// Panics if an index other than [`NULL_ROW`] is out of range.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        let nulls = (self.nulls.is_some() || idx.contains(&NULL_ROW)).then(|| {
            idx.iter()
                .map(|&i| i == NULL_ROW || self.is_null(i as usize))
                .collect()
        });
        ColumnVec {
            data: self.data.gather(idx),
            nulls,
        }
    }

    /// The contiguous sub-column `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> ColumnVec {
        ColumnVec {
            data: self.data.slice(start, end),
            nulls: self.nulls.as_ref().map(|n| n[start..end].to_vec()),
        }
    }
}

/// A columnar batch: equal-length [`ColumnVec`]s sharing one row count.
///
/// Columns are reference-counted, so cloning a batch or projecting a column
/// through an operator is O(1) per column.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<Arc<ColumnVec>>,
    rows: usize,
}

impl Batch {
    /// Batch from shared columns and an explicit row count (which also
    /// covers zero-column batches). Fails on a column length mismatch.
    pub fn new(columns: Vec<Arc<ColumnVec>>, rows: usize) -> DbResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(DbError::Invalid(format!(
                    "batch column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
        }
        Ok(Batch { columns, rows })
    }

    /// Batch from owned columns. Fails on a column length mismatch; the row
    /// count is taken from the first column (0 when there are none).
    pub fn from_columns(columns: Vec<ColumnVec>) -> DbResult<Self> {
        let rows = columns.first().map_or(0, ColumnVec::len);
        Batch::new(columns.into_iter().map(Arc::new).collect(), rows)
    }

    /// Pivot rows into a batch of `arity` columns, inferring each column's
    /// typed representation. Fails on a row arity mismatch.
    pub fn from_rows(arity: usize, rows: Vec<Vec<Value>>) -> DbResult<Self> {
        let n = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(n)).collect();
        for row in rows {
            if row.len() != arity {
                return Err(DbError::ArityMismatch {
                    expected: arity,
                    actual: row.len(),
                });
            }
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        Batch::new(
            cols.into_iter()
                .map(|vals| Arc::new(ColumnVec::from_values(vals)))
                .collect(),
            n,
        )
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// One column, shared.
    pub fn column(&self, i: usize) -> &Arc<ColumnVec> {
        &self.columns[i]
    }

    /// All columns, shared.
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// The value at (`col`, `row`), boxed back into a [`Value`].
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }

    /// One row, pivoted out of the columns.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Pivot the whole batch back to rows (the row↔batch boundary used by
    /// joins, sorts, and the final `QueryResult`).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Keep only the rows where `keep` is true (vectorized selection).
    ///
    /// # Panics
    /// Panics if `keep.len() != self.num_rows()`.
    pub fn filter(&self, keep: &[bool]) -> Batch {
        assert_eq!(keep.len(), self.rows, "filter mask length mismatch");
        let rows = keep.iter().filter(|&&k| k).count();
        Batch {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.filter(keep)))
                .collect(),
            rows,
        }
    }

    /// The rows at `idx`, column by column (see [`ColumnVec::gather`]).
    pub fn gather(&self, idx: &[u32]) -> Batch {
        Batch {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(idx)))
                .collect(),
            rows: idx.len(),
        }
    }

    /// Concatenate `parts` row-wise into one batch of `arity` columns —
    /// the reassembly point of the morsel-parallel executor.
    ///
    /// Columns whose non-empty parts share one typed representation are
    /// spliced slice-wise (null bitmaps merged); anything else falls
    /// back to value-level rebuilding with type re-inference.
    pub fn concat(arity: usize, parts: &[Batch]) -> DbResult<Batch> {
        for p in parts {
            if p.num_columns() != arity {
                return Err(DbError::ArityMismatch {
                    expected: arity,
                    actual: p.num_columns(),
                });
            }
        }
        if parts.len() == 1 {
            return Ok(parts[0].clone());
        }
        let rows = parts.iter().map(Batch::num_rows).sum();
        let columns = (0..arity)
            .map(|c| Arc::new(concat_column(parts, c, rows)))
            .collect();
        Batch::new(columns, rows)
    }

    /// The contiguous sub-batch `[start, end)` (used by LIMIT/OFFSET).
    pub fn slice(&self, start: usize, end: usize) -> Batch {
        let start = start.min(self.rows);
        let end = end.clamp(start, self.rows);
        Batch {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.slice(start, end)))
                .collect(),
            rows: end - start,
        }
    }
}

/// Concatenate column `c` across `parts` (`rows` = total row count).
fn concat_column(parts: &[Batch], c: usize, rows: usize) -> ColumnVec {
    let live: Vec<&ColumnVec> = parts
        .iter()
        .filter(|p| p.num_rows() > 0)
        .map(|p| p.column(c).as_ref())
        .collect();
    let Some(first) = live.first() else {
        return ColumnVec::from_values(Vec::new());
    };
    let homogeneous = live
        .iter()
        .all(|cv| std::mem::discriminant(cv.data()) == std::mem::discriminant(first.data()));
    if !homogeneous {
        // Type differs across morsels (e.g. one degraded to Mixed):
        // rebuild value-wise and let inference pick the representation.
        let mut vals = Vec::with_capacity(rows);
        for cv in &live {
            vals.extend(cv.values());
        }
        return ColumnVec::from_values(vals);
    }
    macro_rules! splice {
        ($variant:ident) => {{
            let mut out = Vec::with_capacity(rows);
            for cv in &live {
                match cv.data() {
                    ColumnData::$variant(v) => out.extend_from_slice(v),
                    _ => unreachable!("homogeneous discriminants checked above"),
                }
            }
            ColumnData::$variant(out)
        }};
    }
    let data = match first.data() {
        ColumnData::Bool(_) => splice!(Bool),
        ColumnData::Int(_) => splice!(Int),
        ColumnData::Float(_) => splice!(Float),
        ColumnData::Text(_) => splice!(Text),
        ColumnData::Date(_) => splice!(Date),
        ColumnData::Timestamp(_) => splice!(Timestamp),
        ColumnData::Mixed(_) => splice!(Mixed),
    };
    let nulls = if live.iter().any(|cv| cv.nulls().is_some()) {
        let mut mask = Vec::with_capacity(rows);
        for cv in &live {
            match cv.nulls() {
                Some(n) => mask.extend_from_slice(n),
                None => mask.extend(std::iter::repeat_n(false, cv.len())),
            }
        }
        Some(mask)
    } else {
        None
    };
    ColumnVec::new(data, nulls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::from("a"), Value::Float(1.5)],
            vec![Value::Int(2), Value::Null, Value::Float(2.5)],
            vec![Value::Null, Value::from("c"), Value::Float(3.5)],
        ]
    }

    #[test]
    fn concat_splices_typed_columns_and_null_masks() {
        let rows = sample_rows();
        let whole = Batch::from_rows(3, rows.clone()).unwrap();
        let parts = vec![whole.slice(0, 1), whole.slice(1, 1), whole.slice(1, 3)];
        let glued = Batch::concat(3, &parts).unwrap();
        assert_eq!(glued.num_rows(), 3);
        assert_eq!(glued.to_rows(), rows);
        // typed splice is preserved, not degraded to Mixed
        assert!(matches!(glued.column(0).data(), ColumnData::Int(_)));
        assert_eq!(glued.column(0).null_count(), 1);
        assert_eq!(glued.column(1).null_count(), 1);
    }

    #[test]
    fn concat_mixed_representations_falls_back_to_inference() {
        let a = Batch::from_rows(1, vec![vec![Value::Int(1)]]).unwrap();
        let b = Batch::from_rows(1, vec![vec![Value::from("x")]]).unwrap();
        let glued = Batch::concat(1, &[a, b]).unwrap();
        assert_eq!(
            glued.to_rows(),
            vec![vec![Value::Int(1)], vec![Value::from("x")]]
        );
        assert!(matches!(glued.column(0).data(), ColumnData::Mixed(_)));
    }

    #[test]
    fn concat_rejects_arity_mismatch_and_handles_empty() {
        let a = Batch::from_rows(2, vec![vec![Value::Int(1), Value::Int(2)]]).unwrap();
        let b = Batch::from_rows(1, vec![vec![Value::Int(3)]]).unwrap();
        assert!(Batch::concat(2, &[a, b]).is_err());
        let empty = Batch::concat(2, &[]).unwrap();
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(empty.num_columns(), 2);
    }

    #[test]
    fn row_round_trip_is_lossless() {
        let rows = sample_rows();
        let batch = Batch::from_rows(3, rows.clone()).unwrap();
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.num_columns(), 3);
        assert_eq!(batch.to_rows(), rows);
        // typed representations chosen where homogeneous
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(1).data(), ColumnData::Text(_)));
        assert!(matches!(batch.column(2).data(), ColumnData::Float(_)));
        assert_eq!(batch.column(0).null_count(), 1);
        assert_eq!(batch.column(2).null_count(), 0);
    }

    #[test]
    fn heterogeneous_columns_fall_back_to_mixed() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::from("two")],
            vec![Value::Null],
        ];
        let batch = Batch::from_rows(1, rows.clone()).unwrap();
        assert!(matches!(batch.column(0).data(), ColumnData::Mixed(_)));
        assert_eq!(batch.column(0).data_type(), None);
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.column(0).null_count(), 1);
        assert!(batch.column(0).is_null(2));
    }

    #[test]
    fn filter_and_slice() {
        let batch = Batch::from_rows(3, sample_rows()).unwrap();
        let filtered = batch.filter(&[true, false, true]);
        assert_eq!(filtered.num_rows(), 2);
        assert_eq!(filtered.value(0, 1), Value::Null);
        assert_eq!(filtered.value(1, 0), Value::from("a"));
        let sliced = batch.slice(1, 3);
        assert_eq!(sliced.num_rows(), 2);
        assert_eq!(sliced.value(2, 0), Value::Float(2.5));
        // out-of-range slice clamps
        assert_eq!(batch.slice(2, 99).num_rows(), 1);
        assert_eq!(batch.slice(99, 99).num_rows(), 0);
    }

    #[test]
    fn gather_picks_repeats_and_null_extends_every_layout() {
        let rows = vec![
            vec![
                Value::Bool(true),
                Value::Int(1),
                Value::Float(1.5),
                Value::from("a"),
                Value::Date(10),
                Value::Timestamp(100),
                Value::Int(7),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Bool(false),
                Value::Int(3),
                Value::Float(3.5),
                Value::from("c"),
                Value::Date(30),
                Value::Timestamp(300),
                Value::from("mixed"),
            ],
        ];
        let batch = Batch::from_rows(7, rows.clone()).unwrap();
        assert!(matches!(batch.column(6).data(), ColumnData::Mixed(_)));
        // out of order, a repeat, a source NULL row and the NULL_ROW sentinel
        let idx = [2, 0, NULL_ROW, 1, 2];
        let got = batch.gather(&idx);
        let null_row = vec![Value::Null; 7];
        let expected = vec![
            rows[2].clone(),
            rows[0].clone(),
            null_row,
            rows[1].clone(),
            rows[2].clone(),
        ];
        assert_eq!(got.num_rows(), 5);
        assert_eq!(got.to_rows(), expected);
        for c in 0..7 {
            // the typed layout survives the gather
            assert_eq!(
                std::mem::discriminant(got.column(c).data()),
                std::mem::discriminant(batch.column(c).data()),
                "column {c}"
            );
            assert_eq!(got.column(c).null_count(), 2, "column {c}");
        }
    }

    #[test]
    fn gather_null_bitmaps_and_empty_index_lists() {
        // no source bitmap and no sentinel: the output carries none either
        let dense = ColumnVec::from_values(vec![Value::Int(5), Value::Int(6)]);
        let picked = dense.gather(&[1, 1, 0]);
        assert_eq!(picked.values(), vec![6i64.into(), 6i64.into(), 5i64.into()]);
        assert!(picked.nulls().is_none());
        // the sentinel alone creates one
        let extended = dense.gather(&[0, NULL_ROW]);
        assert_eq!(extended.nulls(), Some(&[false, true][..]));
        assert_eq!(extended.values(), vec![Value::Int(5), Value::Null]);
        // an empty (typed) source gathers to all-NULL: a LEFT join against
        // an empty build side
        let empty_text = ColumnVec::new(ColumnData::Text(Vec::new()), None);
        let nulls = empty_text.gather(&[NULL_ROW, NULL_ROW]);
        assert!(matches!(nulls.data(), ColumnData::Text(_)));
        assert_eq!(nulls.values(), vec![Value::Null; 2]);
        // an empty index list keeps the typed layout and the column count
        let batch = Batch::from_rows(3, sample_rows()).unwrap();
        let none = batch.gather(&[]);
        assert_eq!((none.num_rows(), none.num_columns()), (0, 3));
        assert!(matches!(none.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(none.column(1).data(), ColumnData::Text(_)));
        assert!(matches!(none.column(2).data(), ColumnData::Float(_)));
        // zero-column batches keep the gathered row count
        assert_eq!(
            Batch::new(Vec::new(), 5)
                .unwrap()
                .gather(&[4, 0])
                .num_rows(),
            2
        );
    }

    #[test]
    fn arity_and_length_checks() {
        assert!(Batch::from_rows(2, vec![vec![Value::Int(1)]]).is_err());
        let short = ColumnVec::from_values(vec![Value::Int(1)]);
        let long = ColumnVec::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(Batch::from_columns(vec![short, long]).is_err());
    }

    #[test]
    fn push_and_set_keep_types_and_degrade_on_mismatch() {
        let mut col = ColumnVec::with_capacity(DataType::Int, 4);
        col.push(&Value::Int(1));
        assert!(col.nulls().is_none(), "no bitmap until a NULL arrives");
        col.push(&Value::Null);
        col.push(&Value::Int(3));
        assert_eq!(col.nulls(), Some(&[false, true, false][..]));
        // a NULL slot holds the default, so equal columns compare equal
        col.set(0, &Value::Null);
        col.set(1, &Value::Int(2));
        assert_eq!(col, {
            let mut c = ColumnVec::with_capacity(DataType::Int, 3);
            for v in [Value::Null, Value::Int(2), Value::Int(3)] {
                c.push(&v);
            }
            c
        });
        col.push(&Value::from("oops"));
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        assert_eq!(
            col.values(),
            vec![
                Value::Null,
                Value::Int(2),
                Value::Int(3),
                Value::from("oops")
            ]
        );
        col.set(3, &Value::Int(4));
        assert_eq!(col.value(3), Value::Int(4));
    }

    #[test]
    fn broadcast_column() {
        let c = ColumnVec::broadcast(&Value::Int(7), 3);
        assert_eq!(c.values(), vec![Value::Int(7); 3]);
        let n = ColumnVec::broadcast(&Value::Null, 2);
        assert!(n.is_null(0) && n.is_null(1));
    }

    #[test]
    fn empty_and_zero_column_batches() {
        let empty = Batch::from_rows(2, Vec::new()).unwrap();
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(empty.num_columns(), 2);
        let zero_cols = Batch::new(Vec::new(), 5).unwrap();
        assert_eq!(zero_cols.num_rows(), 5);
        assert_eq!(zero_cols.num_columns(), 0);
    }
}
