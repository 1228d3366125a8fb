//! Bound expressions: name-resolved, evaluable either against one row
//! ([`BExpr::eval`]) or column-wise against a whole [`Batch`]
//! ([`BExpr::eval_batch`]).

use std::sync::Arc;

use odbis_storage::{parse_date, parse_timestamp, Batch, ColumnData, ColumnVec, DataType, Value};

use crate::ast::{BinOp, UnOp};
use crate::error::{SqlError, SqlResult};
use crate::functions::ScalarFunc;

/// A bound (name-resolved) scalar expression. Column references are
/// ordinals into the input row.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // self-documenting
pub enum BExpr {
    /// Constant.
    Literal(Value),
    /// Input-row ordinal.
    Column(usize),
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<BExpr>,
        right: Box<BExpr>,
    },
    /// Unary operation.
    Unary { op: UnOp, expr: Box<BExpr> },
    /// `IS [NOT] NULL`.
    IsNull { expr: Box<BExpr>, negated: bool },
    /// `[NOT] IN (list)`.
    InList {
        expr: Box<BExpr>,
        list: Vec<BExpr>,
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        expr: Box<BExpr>,
        lo: Box<BExpr>,
        hi: Box<BExpr>,
        negated: bool,
    },
    /// Scalar function call.
    Function { func: ScalarFunc, args: Vec<BExpr> },
    /// `CASE`.
    Case {
        branches: Vec<(BExpr, BExpr)>,
        else_expr: Option<Box<BExpr>>,
    },
}

impl BExpr {
    /// Evaluate against one input row.
    pub fn eval(&self, row: &[Value]) -> SqlResult<Value> {
        match self {
            BExpr::Literal(v) => Ok(v.clone()),
            BExpr::Column(i) => row.get(*i).cloned().ok_or_else(|| {
                SqlError::Eval(format!("column ordinal {i} out of range ({})", row.len()))
            }),
            BExpr::Binary { op, left, right } => {
                // short-circuit three-valued AND/OR
                match op {
                    BinOp::And => {
                        let l = left.eval(row)?;
                        match truth(&l) {
                            Some(false) => return Ok(Value::Bool(false)),
                            l_truth => {
                                let r = right.eval(row)?;
                                return Ok(match (l_truth, truth(&r)) {
                                    (_, Some(false)) => Value::Bool(false),
                                    (Some(true), Some(true)) => Value::Bool(true),
                                    _ => Value::Null,
                                });
                            }
                        }
                    }
                    BinOp::Or => {
                        let l = left.eval(row)?;
                        match truth(&l) {
                            Some(true) => return Ok(Value::Bool(true)),
                            l_truth => {
                                let r = right.eval(row)?;
                                return Ok(match (l_truth, truth(&r)) {
                                    (_, Some(true)) => Value::Bool(true),
                                    (Some(false), Some(false)) => Value::Bool(false),
                                    _ => Value::Null,
                                });
                            }
                        }
                    }
                    _ => {}
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            BExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(SqlError::Type(format!("cannot negate {}", other.render()))),
                    },
                    UnOp::Not => Ok(match truth(&v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    }),
                }
            }
            BExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
                    match v.sql_eq(&iv) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            }
            BExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = lo.eval(row)?;
                let hi = hi.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let within =
                            a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                        Ok(Value::Bool(within != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            BExpr::Function { func, args } => {
                let vals: SqlResult<Vec<Value>> = args.iter().map(|a| a.eval(row)).collect();
                func.eval(&vals?)
            }
            BExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    if truth(&cond.eval(row)?) == Some(true) {
                        return result.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate column-wise over a whole batch, producing one output column.
    ///
    /// Semantics are row-identical to mapping [`BExpr::eval`] over the
    /// batch's rows, including three-valued AND/OR short-circuiting: the
    /// right operand is evaluated only on the sub-batch of rows the left
    /// operand did not already decide, so a guarded expression such as
    /// `x <> 0 AND 1/x > 2` never divides by zero. Comparisons and
    /// arithmetic over Int/Float columns take allocation-free typed fast
    /// paths; everything else falls back to element-wise evaluation over
    /// boxed values. The only observable difference from the row path is
    /// *which* error surfaces when several rows would fail.
    pub fn eval_batch(&self, batch: &Batch) -> SqlResult<Arc<ColumnVec>> {
        let n = batch.num_rows();
        match self {
            BExpr::Literal(v) => Ok(Arc::new(ColumnVec::broadcast(v, n))),
            BExpr::Column(i) => batch.columns().get(*i).cloned().ok_or_else(|| {
                SqlError::Eval(format!(
                    "column ordinal {i} out of range ({})",
                    batch.num_columns()
                ))
            }),
            BExpr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
                eval_logical_batch(*op, left, right, batch)
            }
            BExpr::Binary { op, left, right } => {
                let l = left.eval_batch(batch)?;
                let r = right.eval_batch(batch)?;
                binary_columns(*op, &l, &r)
            }
            BExpr::Unary { op, expr } => {
                let v = expr.eval_batch(batch)?;
                match op {
                    UnOp::Neg => neg_column(&v),
                    UnOp::Not => {
                        let mut data = Vec::with_capacity(n);
                        let mut nulls = vec![false; n];
                        let mut any_null = false;
                        for (i, t) in truth_column(&v).into_iter().enumerate() {
                            match t {
                                Some(b) => data.push(!b),
                                None => {
                                    data.push(false);
                                    nulls[i] = true;
                                    any_null = true;
                                }
                            }
                        }
                        Ok(Arc::new(ColumnVec::new(
                            ColumnData::Bool(data),
                            any_null.then_some(nulls),
                        )))
                    }
                }
            }
            BExpr::IsNull { expr, negated } => {
                let v = expr.eval_batch(batch)?;
                let data: Vec<bool> = (0..n).map(|i| v.is_null(i) != *negated).collect();
                Ok(Arc::new(ColumnVec::new(ColumnData::Bool(data), None)))
            }
            BExpr::InList {
                expr,
                list,
                negated,
            } => eval_in_list_batch(expr, list, *negated, batch),
            BExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval_batch(batch)?;
                let lo = lo.eval_batch(batch)?;
                let hi = hi.eval_batch(batch)?;
                let mut vals = Vec::with_capacity(n);
                for i in 0..n {
                    let x = v.value(i);
                    match (x.sql_cmp(&lo.value(i)), x.sql_cmp(&hi.value(i))) {
                        (Some(a), Some(b)) => {
                            let within =
                                a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                            vals.push(Value::Bool(within != *negated));
                        }
                        _ => vals.push(Value::Null),
                    }
                }
                Ok(Arc::new(ColumnVec::from_values(vals)))
            }
            BExpr::Function { func, args } => {
                let cols: Vec<Arc<ColumnVec>> = args
                    .iter()
                    .map(|a| a.eval_batch(batch))
                    .collect::<SqlResult<_>>()?;
                func.eval_columns(&cols, n)
            }
            BExpr::Case {
                branches,
                else_expr,
            } => eval_case_batch(branches, else_expr.as_deref(), batch),
        }
    }

    /// True if the expression references no columns (safe to pre-evaluate).
    pub fn is_constant(&self) -> bool {
        match self {
            BExpr::Literal(_) => true,
            BExpr::Column(_) => false,
            BExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            BExpr::Unary { expr, .. } | BExpr::IsNull { expr, .. } => expr.is_constant(),
            BExpr::InList { expr, list, .. } => {
                expr.is_constant() && list.iter().all(BExpr::is_constant)
            }
            BExpr::Between { expr, lo, hi, .. } => {
                expr.is_constant() && lo.is_constant() && hi.is_constant()
            }
            BExpr::Function { args, .. } => args.iter().all(BExpr::is_constant),
            BExpr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .all(|(c, r)| c.is_constant() && r.is_constant())
                    && else_expr.as_ref().is_none_or(|e| e.is_constant())
            }
        }
    }

    /// Fold constant sub-expressions into literals. Evaluation errors are
    /// left in place (they will surface at run time with row context).
    pub fn fold(self) -> BExpr {
        if self.is_constant() {
            if let Ok(v) = self.eval(&[]) {
                return BExpr::Literal(v);
            }
            return self;
        }
        match self {
            BExpr::Binary { op, left, right } => BExpr::Binary {
                op,
                left: Box::new(left.fold()),
                right: Box::new(right.fold()),
            },
            BExpr::Unary { op, expr } => BExpr::Unary {
                op,
                expr: Box::new(expr.fold()),
            },
            BExpr::IsNull { expr, negated } => BExpr::IsNull {
                expr: Box::new(expr.fold()),
                negated,
            },
            BExpr::InList {
                expr,
                list,
                negated,
            } => BExpr::InList {
                expr: Box::new(expr.fold()),
                list: list.into_iter().map(BExpr::fold).collect(),
                negated,
            },
            BExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => BExpr::Between {
                expr: Box::new(expr.fold()),
                lo: Box::new(lo.fold()),
                hi: Box::new(hi.fold()),
                negated,
            },
            BExpr::Function { func, args } => BExpr::Function {
                func,
                args: args.into_iter().map(BExpr::fold).collect(),
            },
            BExpr::Case {
                branches,
                else_expr,
            } => BExpr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.fold(), r.fold()))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.fold())),
            },
            other => other,
        }
    }

    /// Shift every column ordinal by `delta` (used when splicing an
    /// expression bound to the right side of a join).
    pub fn shift_columns(&mut self, delta: usize) {
        self.map_columns(&|i| i + delta);
    }

    /// Visit every column ordinal referenced by the expression.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            BExpr::Literal(_) => {}
            BExpr::Column(i) => f(*i),
            BExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            BExpr::Unary { expr, .. } | BExpr::IsNull { expr, .. } => expr.for_each_column(f),
            BExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                for e in list {
                    e.for_each_column(f);
                }
            }
            BExpr::Between { expr, lo, hi, .. } => {
                expr.for_each_column(f);
                lo.for_each_column(f);
                hi.for_each_column(f);
            }
            BExpr::Function { args, .. } => {
                for a in args {
                    a.for_each_column(f);
                }
            }
            BExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.for_each_column(f);
                    r.for_each_column(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_column(f);
                }
            }
        }
    }

    /// Rewrite every column ordinal through `f` (the workhorse behind
    /// ordinal shifts and the optimizer's schema remappings).
    pub fn map_columns(&mut self, f: &impl Fn(usize) -> usize) {
        match self {
            BExpr::Literal(_) => {}
            BExpr::Column(i) => *i = f(*i),
            BExpr::Binary { left, right, .. } => {
                left.map_columns(f);
                right.map_columns(f);
            }
            BExpr::Unary { expr, .. } | BExpr::IsNull { expr, .. } => expr.map_columns(f),
            BExpr::InList { expr, list, .. } => {
                expr.map_columns(f);
                for e in list {
                    e.map_columns(f);
                }
            }
            BExpr::Between { expr, lo, hi, .. } => {
                expr.map_columns(f);
                lo.map_columns(f);
                hi.map_columns(f);
            }
            BExpr::Function { args, .. } => {
                for a in args {
                    a.map_columns(f);
                }
            }
            BExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.map_columns(f);
                    r.map_columns(f);
                }
                if let Some(e) = else_expr {
                    e.map_columns(f);
                }
            }
        }
    }
}

/// Split a predicate into its top-level AND conjuncts.
pub(crate) fn conjuncts(e: &BExpr, out: &mut Vec<BExpr>) {
    if let BExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        conjuncts(left, out);
        conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// The left-deep AND of `cs` in order (`None` when there are none): the
/// inverse of [`conjuncts`].
pub(crate) fn and_all(cs: Vec<BExpr>) -> Option<BExpr> {
    cs.into_iter().reduce(|acc, c| BExpr::Binary {
        op: BinOp::And,
        left: Box::new(acc),
        right: Box::new(c),
    })
}

/// SQL truth of a value: `Some(bool)` for booleans (and numerics, where
/// non-zero is true), `None` for NULL.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        _ => Some(true),
    }
}

/// Per-row SQL truth of a column — the vectorized [`truth`].
pub fn truth_column(col: &ColumnVec) -> Vec<Option<bool>> {
    let n = col.len();
    match col.data() {
        ColumnData::Bool(v) => (0..n)
            .map(|i| if col.is_null(i) { None } else { Some(v[i]) })
            .collect(),
        ColumnData::Int(v) => (0..n)
            .map(|i| {
                if col.is_null(i) {
                    None
                } else {
                    Some(v[i] != 0)
                }
            })
            .collect(),
        ColumnData::Float(v) => (0..n)
            .map(|i| {
                if col.is_null(i) {
                    None
                } else {
                    Some(v[i] != 0.0)
                }
            })
            .collect(),
        ColumnData::Mixed(vals) => (0..n)
            .map(|i| {
                if col.is_null(i) {
                    None
                } else {
                    truth(&vals[i])
                }
            })
            .collect(),
        _ => (0..n)
            .map(|i| if col.is_null(i) { None } else { Some(true) })
            .collect(),
    }
}

impl BExpr {
    /// The selection of a predicate over a batch: the ascending indices of
    /// the rows where it is TRUE, so dropping the rest is one
    /// [`Batch::gather`] (the vectorized `WHERE`).
    ///
    /// A comparison of an `Int` or `Float` column with an `Int` or `Float`
    /// literal compares the raw data where it lies (`compare`): the
    /// literal is never broadcast and a NULL row is never selected.
    /// Anything else is evaluated by [`BExpr::eval_batch`] and its truth
    /// read, so a predicate fails on exactly the inputs `eval_batch` does.
    pub fn select(&self, batch: &Batch) -> SqlResult<Vec<u32>> {
        if let BExpr::Binary { op, left, right } = self {
            if let (BExpr::Column(c), BExpr::Literal(v)) = (&**left, &**right) {
                if let Some(col) = batch.columns().get(*c) {
                    if let Some(rows) = compare(*op, col.data(), Operand::Literal(v), col.nulls()) {
                        return Ok(rows);
                    }
                }
            }
        }
        let truths = truth_column(&*self.eval_batch(batch)?);
        Ok(select_where(truths.len(), |i| truths[i] == Some(true)))
    }
}

/// The rows `0..n` where `hit` holds, ascending. Every row is written and
/// the end only moves past a hit, so the loop has no branch on `hit`.
fn select_where(n: usize, hit: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; n];
    let mut end = 0;
    for row in 0..n {
        out[end] = row as u32;
        end += usize::from(hit(row));
    }
    out.truncate(end);
    out
}

/// The right side of a typed comparison with a column.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    /// A column of the left side's length.
    Column(&'a ColumnData),
    /// A literal, which every row reads.
    Literal(&'a Value),
}

/// The rows where `left op right` is TRUE, compared on the raw `Int` and
/// `Float` data where it lies: `Int` against `Float` widens and floats
/// order by `total_cmp`, as [`Value::cmp_total`] does. A row `nulls` flags
/// is never selected. `None` when `op` is no comparison or an operand is
/// neither `Int` nor `Float`. This is the one typed comparison kernel: a
/// selection reads it directly and [`binary_columns`] builds its `Bool`
/// column from it.
fn compare(
    op: BinOp,
    left: &ColumnData,
    right: Operand,
    nulls: Option<&[bool]>,
) -> Option<Vec<u32>> {
    use BinOp::*;
    use ColumnData::{Float, Int};
    if !matches!(op, Eq | Neq | Lt | Lte | Gt | Gte) {
        return None;
    }
    let n = left.len();
    Some(match (left, right) {
        (Int(a), Operand::Column(Int(b))) => select_cmp(op, n, nulls, |i| a[i].cmp(&b[i])),
        (Float(a), Operand::Column(Float(b))) => {
            select_cmp(op, n, nulls, |i| a[i].total_cmp(&b[i]))
        }
        (Int(a), Operand::Column(Float(b))) => {
            select_cmp(op, n, nulls, |i| (a[i] as f64).total_cmp(&b[i]))
        }
        (Float(a), Operand::Column(Int(b))) => {
            select_cmp(op, n, nulls, |i| a[i].total_cmp(&(b[i] as f64)))
        }
        (Int(a), Operand::Literal(Value::Int(x))) => select_cmp(op, n, nulls, |i| a[i].cmp(x)),
        (Float(a), Operand::Literal(Value::Float(x))) => {
            select_cmp(op, n, nulls, |i| a[i].total_cmp(x))
        }
        (Int(a), Operand::Literal(Value::Float(x))) => {
            select_cmp(op, n, nulls, |i| (a[i] as f64).total_cmp(x))
        }
        (Float(a), Operand::Literal(Value::Int(x))) => {
            let x = *x as f64;
            select_cmp(op, n, nulls, |i| a[i].total_cmp(&x))
        }
        _ => return None,
    })
}

/// The rows `0..n` whose ordering `ord_at(row)` satisfies the comparison
/// `op`, less those `nulls` flags. The operator is matched once, outside
/// the loop; a flagged row's placeholder data is compared too (it is a
/// valid number) but never selected, so the loop has no branch on it.
fn select_cmp(
    op: BinOp,
    n: usize,
    nulls: Option<&[bool]>,
    ord_at: impl Fn(usize) -> std::cmp::Ordering,
) -> Vec<u32> {
    use std::cmp::Ordering::*;
    fn by(n: usize, nulls: Option<&[bool]>, test: impl Fn(usize) -> bool) -> Vec<u32> {
        match nulls {
            None => select_where(n, test),
            Some(nulls) => select_where(n, |i| !nulls[i] & test(i)),
        }
    }
    match op {
        BinOp::Eq => by(n, nulls, |i| ord_at(i) == Equal),
        BinOp::Neq => by(n, nulls, |i| ord_at(i) != Equal),
        BinOp::Lt => by(n, nulls, |i| ord_at(i) == Less),
        BinOp::Lte => by(n, nulls, |i| ord_at(i) != Greater),
        BinOp::Gt => by(n, nulls, |i| ord_at(i) == Greater),
        _ => by(n, nulls, |i| ord_at(i) != Less),
    }
}

/// Vectorized three-valued AND/OR with short-circuit semantics: the right
/// operand is evaluated only over the sub-batch of rows where the left
/// truth value does not already decide the result.
fn eval_logical_batch(
    op: BinOp,
    left: &BExpr,
    right: &BExpr,
    batch: &Batch,
) -> SqlResult<Arc<ColumnVec>> {
    // AND is decided by a FALSE left operand, OR by a TRUE one.
    let sc = Some(op == BinOp::Or);
    let mut truths = truth_column(&*left.eval_batch(batch)?);
    let open = select_where(truths.len(), |i| truths[i] != sc);
    if !open.is_empty() {
        let rt = truth_column(&*right.eval_batch(&batch.gather(&open))?);
        for (&row, r) in open.iter().zip(rt) {
            let l = &mut truths[row as usize];
            *l = match (op, *l, r) {
                (BinOp::And, _, Some(false)) => Some(false),
                (BinOp::And, Some(true), Some(true)) => Some(true),
                (BinOp::Or, _, Some(true)) => Some(true),
                (BinOp::Or, Some(false), Some(false)) => Some(false),
                _ => None,
            };
        }
    }
    let nulls: Vec<bool> = truths.iter().map(Option::is_none).collect();
    let data = truths.into_iter().map(|t| t.unwrap_or(false)).collect();
    Ok(Arc::new(ColumnVec::new(
        ColumnData::Bool(data),
        nulls.contains(&true).then_some(nulls),
    )))
}

/// Column-wise binary operator with typed fast paths for Int/Float
/// comparisons (the selection kernel [`compare`]) and arithmetic; any other
/// operand shape falls back to element-wise [`eval_binary`] over boxed
/// values.
fn binary_columns(op: BinOp, l: &ColumnVec, r: &ColumnVec) -> SqlResult<Arc<ColumnVec>> {
    use BinOp::*;
    let n = l.len();
    if matches!(op, Eq | Neq | Lt | Lte | Gt | Gte) {
        let nulls: Vec<bool> = (0..n).map(|i| l.is_null(i) || r.is_null(i)).collect();
        let nulls = nulls.contains(&true).then_some(nulls);
        if let Some(hits) = compare(op, l.data(), Operand::Column(r.data()), nulls.as_deref()) {
            let mut data = vec![false; n];
            hits.into_iter().for_each(|row| data[row as usize] = true);
            return Ok(Arc::new(ColumnVec::new(ColumnData::Bool(data), nulls)));
        }
    }
    match (op, l.data(), r.data()) {
        (Add | Sub | Mul | Div | Mod, ColumnData::Int(a), ColumnData::Int(b)) => {
            return int_arith_fast(op, n, l, r, a, b).map(Arc::new);
        }
        (
            Add | Sub | Mul | Div | Mod,
            ColumnData::Int(_) | ColumnData::Float(_),
            ColumnData::Int(_) | ColumnData::Float(_),
        ) => {
            // at least one side is Float (Int/Int returned above)
            return float_arith_fast(op, n, l, r).map(Arc::new);
        }
        _ => {}
    }
    let mut vals = Vec::with_capacity(n);
    for i in 0..n {
        vals.push(eval_binary(op, &l.value(i), &r.value(i))?);
    }
    Ok(Arc::new(ColumnVec::from_values(vals)))
}

fn int_arith_fast(
    op: BinOp,
    n: usize,
    l: &ColumnVec,
    r: &ColumnVec,
    a: &[i64],
    b: &[i64],
) -> SqlResult<ColumnVec> {
    let mut data = Vec::with_capacity(n);
    let mut nulls = vec![false; n];
    let mut any_null = false;
    for i in 0..n {
        if l.is_null(i) || r.is_null(i) {
            data.push(0);
            nulls[i] = true;
            any_null = true;
            continue;
        }
        data.push(match op {
            BinOp::Add => a[i].wrapping_add(b[i]),
            BinOp::Sub => a[i].wrapping_sub(b[i]),
            BinOp::Mul => a[i].wrapping_mul(b[i]),
            BinOp::Div => {
                if b[i] == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                a[i].wrapping_div(b[i])
            }
            _ => {
                if b[i] == 0 {
                    return Err(SqlError::Eval("modulo by zero".into()));
                }
                a[i].wrapping_rem(b[i])
            }
        });
    }
    Ok(ColumnVec::new(
        ColumnData::Int(data),
        any_null.then_some(nulls),
    ))
}

fn float_arith_fast(op: BinOp, n: usize, l: &ColumnVec, r: &ColumnVec) -> SqlResult<ColumnVec> {
    let at = |c: &ColumnVec, i: usize| -> f64 {
        match c.data() {
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Float(v) => v[i],
            _ => unreachable!("float fast path requires numeric columns"),
        }
    };
    let mut data = Vec::with_capacity(n);
    let mut nulls = vec![false; n];
    let mut any_null = false;
    for (i, null_slot) in nulls.iter_mut().enumerate().take(n) {
        if l.is_null(i) || r.is_null(i) {
            data.push(0.0);
            *null_slot = true;
            any_null = true;
            continue;
        }
        let (a, b) = (at(l, i), at(r, i));
        data.push(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                a / b
            }
            _ => {
                if b == 0.0 {
                    return Err(SqlError::Eval("modulo by zero".into()));
                }
                a % b
            }
        });
    }
    Ok(ColumnVec::new(
        ColumnData::Float(data),
        any_null.then_some(nulls),
    ))
}

fn neg_column(v: &ColumnVec) -> SqlResult<Arc<ColumnVec>> {
    let n = v.len();
    match v.data() {
        ColumnData::Int(a) => Ok(Arc::new(ColumnVec::new(
            ColumnData::Int(
                (0..n)
                    .map(|i| if v.is_null(i) { 0 } else { -a[i] })
                    .collect(),
            ),
            v.nulls().map(<[bool]>::to_vec),
        ))),
        ColumnData::Float(a) => Ok(Arc::new(ColumnVec::new(
            ColumnData::Float(a.iter().map(|f| -f).collect()),
            v.nulls().map(<[bool]>::to_vec),
        ))),
        _ => {
            let mut vals = Vec::with_capacity(n);
            for i in 0..n {
                match v.value(i) {
                    Value::Null => vals.push(Value::Null),
                    Value::Int(x) => vals.push(Value::Int(-x)),
                    Value::Float(f) => vals.push(Value::Float(-f)),
                    other => {
                        return Err(SqlError::Type(format!("cannot negate {}", other.render())))
                    }
                }
            }
            Ok(Arc::new(ColumnVec::from_values(vals)))
        }
    }
}

/// Vectorized IN: each list item is evaluated only over the rows the
/// subject and the earlier items left undecided (a non-NULL subject with no
/// hit yet), as the row path stops at the first hit — so an item that
/// fails on a row an earlier item already matched never runs there.
fn eval_in_list_batch(
    expr: &BExpr,
    list: &[BExpr],
    negated: bool,
    batch: &Batch,
) -> SqlResult<Arc<ColumnVec>> {
    let n = batch.num_rows();
    let v = expr.eval_batch(batch)?;
    let mut out: Vec<Value> = (0..n)
        .map(|i| match v.is_null(i) {
            true => Value::Null,
            false => Value::Bool(negated),
        })
        .collect();
    let mut open = select_where(n, |i| !v.is_null(i));
    for item in list {
        if open.is_empty() {
            break;
        }
        let items = match open.len() == n {
            true => item.eval_batch(batch)?,
            false => item.eval_batch(&batch.gather(&open))?,
        };
        let mut k = 0;
        open.retain(|&row| {
            let i = row as usize;
            let eq = v.value(i).sql_eq(&items.value(k));
            k += 1;
            match eq {
                Some(true) => out[i] = Value::Bool(!negated),
                Some(false) => {}
                None => out[i] = Value::Null,
            }
            eq != Some(true)
        });
    }
    Ok(Arc::new(ColumnVec::from_values(out)))
}

/// Vectorized CASE: each WHEN condition is evaluated only over the rows no
/// earlier branch decided, and each THEN result only over the rows its
/// condition selected — preserving the row path's lazy-branch semantics.
fn eval_case_batch(
    branches: &[(BExpr, BExpr)],
    else_expr: Option<&BExpr>,
    batch: &Batch,
) -> SqlResult<Arc<ColumnVec>> {
    let n = batch.num_rows();
    let mut out: Vec<Value> = vec![Value::Null; n];
    let mut pending: Vec<u32> = (0..n as u32).collect();
    let mut fill = |rows: &[u32], result: &BExpr| -> SqlResult<()> {
        if !rows.is_empty() {
            let vals = result.eval_batch(&batch.gather(rows))?;
            for (k, &row) in rows.iter().enumerate() {
                out[row as usize] = vals.value(k);
            }
        }
        Ok(())
    };
    for (cond, result) in branches {
        if pending.is_empty() {
            break;
        }
        let hits = match pending.len() == n {
            true => cond.select(batch)?,
            false => {
                let at = cond.select(&batch.gather(&pending))?;
                at.into_iter().map(|k| pending[k as usize]).collect()
            }
        };
        fill(&hits, result)?;
        let mut taken = hits.iter().peekable();
        pending.retain(|row| taken.next_if_eq(&row).is_none());
    }
    if let Some(e) = else_expr {
        fill(&pending, e)?;
    }
    Ok(Arc::new(ColumnVec::from_values(out)))
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    use BinOp::*;
    match op {
        Eq | Neq | Lt | Lte | Gt | Gte => {
            let Some(ord) = l.sql_cmp(r) else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                Neq => ord != Equal,
                Lt => ord == Less,
                Lte => ord != Greater,
                Gt => ord == Greater,
                Gte => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(op, l, r)
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{}{}", l.render(), r.render())))
        }
        Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (s, p) = (
                l.as_str().ok_or_else(|| {
                    SqlError::Type(format!("LIKE expects TEXT, got {}", l.render()))
                })?,
                r.as_str().ok_or_else(|| {
                    SqlError::Type(format!("LIKE pattern must be TEXT, got {}", r.render()))
                })?,
            );
            Ok(Value::Bool(like_match(s, p)))
        }
        And | Or => unreachable!("handled with short-circuit in eval"),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    // Date/Timestamp +- Int days
    if let (Value::Date(d), Some(n)) = (l, r.as_i64()) {
        match op {
            BinOp::Add => return Ok(Value::Date(d + n as i32)),
            BinOp::Sub => return Ok(Value::Date(d - n as i32)),
            _ => {}
        }
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                // integer division with / like most SQL engines
                Value::Int(a.wrapping_div(*b))
            }
            BinOp::Mod => {
                if *b == 0 {
                    return Err(SqlError::Eval("modulo by zero".into()));
                }
                Value::Int(a.wrapping_rem(*b))
            }
            _ => unreachable!(),
        }),
        _ => {
            let (a, b) = (
                l.as_f64()
                    .ok_or_else(|| SqlError::Type(format!("non-numeric operand {}", l.render())))?,
                r.as_f64()
                    .ok_or_else(|| SqlError::Type(format!("non-numeric operand {}", r.render())))?,
            );
            Ok(match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    Value::Float(a / b)
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("modulo by zero".into()));
                    }
                    Value::Float(a % b)
                }
                _ => unreachable!(),
            })
        }
    }
}

/// SQL `LIKE` matching: `%` matches any sequence, `_` any single character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // try to consume 0..=len characters
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

/// Parse a typed literal (`DATE '...'`) into a [`Value`].
pub fn typed_literal(ty: DataType, text: &str) -> SqlResult<Value> {
    match ty {
        DataType::Date => parse_date(text)
            .map(Value::Date)
            .ok_or_else(|| SqlError::Eval(format!("bad DATE literal {text:?}"))),
        DataType::Timestamp => parse_timestamp(text)
            .map(Value::Timestamp)
            .ok_or_else(|| SqlError::Eval(format!("bad TIMESTAMP literal {text:?}"))),
        other => Err(SqlError::Type(format!("no typed literal for {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> BExpr {
        BExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BExpr, r: BExpr) -> BExpr {
        BExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        assert_eq!(
            bin(BinOp::Add, lit(1i64), lit(2i64)).eval(&[]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin(BinOp::Div, lit(7i64), lit(2i64)).eval(&[]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin(BinOp::Div, lit(7.0), lit(2i64)).eval(&[]).unwrap(),
            Value::Float(3.5)
        );
        assert!(bin(BinOp::Div, lit(1i64), lit(0i64)).eval(&[]).is_err());
        assert_eq!(
            bin(BinOp::Add, lit(1i64), BExpr::Literal(Value::Null))
                .eval(&[])
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn three_valued_logic() {
        let null = BExpr::Literal(Value::Null);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL
        assert_eq!(
            bin(BinOp::And, null.clone(), lit(false)).eval(&[]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(BinOp::Or, null.clone(), lit(true)).eval(&[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::And, null.clone(), lit(true)).eval(&[]).unwrap(),
            Value::Null
        );
        assert_eq!(
            BExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(null)
            }
            .eval(&[])
            .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn comparisons_with_null_yield_null() {
        assert_eq!(
            bin(BinOp::Eq, lit(1i64), BExpr::Literal(Value::Null))
                .eval(&[])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(BinOp::Lt, lit(1i64), lit(2.5)).eval(&[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list_null_semantics() {
        // 3 IN (1, 2, NULL) is NULL (unknown); 1 IN (1, NULL) is TRUE
        let e = BExpr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![lit(1i64), lit(2i64), BExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let e = BExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(1i64), BExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_and_case() {
        let e = BExpr::Between {
            expr: Box::new(lit(5i64)),
            lo: Box::new(lit(1i64)),
            hi: Box::new(lit(5i64)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
        let c = BExpr::Case {
            branches: vec![(lit(false), lit("a")), (lit(true), lit("b"))],
            else_expr: Some(Box::new(lit("c"))),
        };
        assert_eq!(c.eval(&[]).unwrap(), Value::from("b"));
        let c = BExpr::Case {
            branches: vec![(lit(false), lit("a"))],
            else_expr: None,
        };
        assert_eq!(c.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("x", "%%x%%"));
    }

    #[test]
    fn column_refs_and_shift() {
        let row = vec![Value::Int(10), Value::from("a")];
        assert_eq!(BExpr::Column(1).eval(&row).unwrap(), Value::from("a"));
        assert!(BExpr::Column(5).eval(&row).is_err());
        let mut e = bin(BinOp::Add, BExpr::Column(0), lit(1i64));
        e.shift_columns(3);
        assert_eq!(e, bin(BinOp::Add, BExpr::Column(3), lit(1i64)));
    }

    #[test]
    fn constant_folding() {
        let e = bin(BinOp::Mul, lit(3i64), bin(BinOp::Add, lit(1i64), lit(1i64)));
        assert_eq!(e.fold(), lit(6i64));
        // non-constant parts preserved
        let e = bin(
            BinOp::Add,
            BExpr::Column(0),
            bin(BinOp::Add, lit(1i64), lit(1i64)),
        );
        assert_eq!(e.fold(), bin(BinOp::Add, BExpr::Column(0), lit(2i64)));
        // folding a division by zero is deferred to runtime
        let e = bin(BinOp::Div, lit(1i64), lit(0i64));
        assert!(e.fold().eval(&[]).is_err());
    }

    #[test]
    fn date_arithmetic() {
        let d = odbis_storage::parse_date("2010-03-22").unwrap();
        let e = bin(BinOp::Add, BExpr::Literal(Value::Date(d)), lit(4i64));
        assert_eq!(
            e.eval(&[]).unwrap(),
            Value::Date(odbis_storage::parse_date("2010-03-26").unwrap())
        );
    }

    #[test]
    fn typed_literals() {
        assert!(matches!(
            typed_literal(DataType::Date, "2010-03-22").unwrap(),
            Value::Date(_)
        ));
        assert!(typed_literal(DataType::Date, "nope").is_err());
        assert!(typed_literal(DataType::Int, "1").is_err());
    }

    fn batch_of(rows: Vec<Vec<Value>>) -> Batch {
        let arity = rows.first().map_or(0, Vec::len);
        Batch::from_rows(arity, rows).unwrap()
    }

    fn assert_batch_matches_rows(e: &BExpr, rows: &[Vec<Value>]) {
        let batch = batch_of(rows.to_vec());
        let col = e.eval_batch(&batch).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(col.value(i), e.eval(row).unwrap(), "row {i} of {e:?}");
        }
    }

    #[test]
    fn batch_eval_matches_row_eval() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(2.0), Value::from("abc")],
            vec![Value::Int(-3), Value::Null, Value::from("xbc")],
            vec![Value::Null, Value::Float(0.0), Value::Null],
            vec![Value::Int(0), Value::Float(-1.5), Value::from("a")],
        ];
        let col = BExpr::Column;
        let exprs = vec![
            bin(BinOp::Add, col(0), lit(10i64)),
            bin(BinOp::Mul, col(0), col(1)),
            bin(BinOp::Lt, col(0), col(1)),
            bin(BinOp::Gte, col(1), lit(0i64)),
            bin(BinOp::Eq, col(2), lit("abc")),
            bin(BinOp::Concat, col(2), lit("!")),
            bin(BinOp::Like, col(2), lit("%bc")),
            bin(
                BinOp::And,
                bin(BinOp::Gt, col(0), lit(0i64)),
                bin(BinOp::Lt, col(1), lit(3i64)),
            ),
            bin(
                BinOp::Or,
                BExpr::IsNull {
                    expr: Box::new(col(1)),
                    negated: false,
                },
                bin(BinOp::Neq, col(0), lit(0i64)),
            ),
            BExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(col(0)),
            },
            BExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(bin(BinOp::Gt, col(0), lit(0i64))),
            },
            BExpr::InList {
                expr: Box::new(col(0)),
                list: vec![lit(1i64), lit(0i64), BExpr::Literal(Value::Null)],
                negated: false,
            },
            BExpr::Between {
                expr: Box::new(col(0)),
                lo: Box::new(lit(0i64)),
                hi: Box::new(col(1)),
                negated: false,
            },
            BExpr::Case {
                branches: vec![
                    (bin(BinOp::Gt, col(0), lit(0i64)), lit("pos")),
                    (bin(BinOp::Lt, col(0), lit(0i64)), lit("neg")),
                ],
                else_expr: Some(Box::new(lit("other"))),
            },
            BExpr::Function {
                func: ScalarFunc::resolve("UPPER").unwrap(),
                args: vec![col(2)],
            },
        ];
        for e in &exprs {
            assert_batch_matches_rows(e, &rows);
        }
    }

    #[test]
    fn batch_and_short_circuits_division() {
        // x <> 0 AND 10 / x > 2 must not divide by the zero row
        let guard = bin(
            BinOp::And,
            bin(BinOp::Neq, BExpr::Column(0), lit(0i64)),
            bin(
                BinOp::Gt,
                bin(BinOp::Div, lit(10i64), BExpr::Column(0)),
                lit(2i64),
            ),
        );
        let rows = vec![
            vec![Value::Int(0)],
            vec![Value::Int(2)],
            vec![Value::Int(100)],
        ];
        assert_batch_matches_rows(&guard, &rows);
        // CASE guards the same way
        let case = BExpr::Case {
            branches: vec![(
                bin(BinOp::Neq, BExpr::Column(0), lit(0i64)),
                bin(BinOp::Div, lit(10i64), BExpr::Column(0)),
            )],
            else_expr: Some(Box::new(lit(-1i64))),
        };
        assert_batch_matches_rows(&case, &rows);
    }

    #[test]
    fn batch_eval_surfaces_errors() {
        let div = bin(BinOp::Div, lit(1i64), BExpr::Column(0));
        let batch = batch_of(vec![vec![Value::Int(1)], vec![Value::Int(0)]]);
        assert!(div.eval_batch(&batch).is_err());
        let bad_neg = BExpr::Unary {
            op: UnOp::Neg,
            expr: Box::new(BExpr::Column(0)),
        };
        let batch = batch_of(vec![vec![Value::from("nope")]]);
        assert!(bad_neg.eval_batch(&batch).is_err());
        // out-of-range ordinal mirrors the row path
        let batch = batch_of(vec![vec![Value::Int(1)]]);
        assert!(BExpr::Column(7).eval_batch(&batch).is_err());
    }

    #[test]
    fn truth_column_matches_truth() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(5),
            Value::Float(0.0),
            Value::Float(1.0),
            Value::from("x"),
        ];
        let expected: Vec<Option<bool>> = vals.iter().map(truth).collect();
        let col = ColumnVec::from_values(vals);
        assert_eq!(truth_column(&col), expected);
    }
}
