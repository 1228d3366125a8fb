//! What an aggregate of a set of values is: the one accumulator behind
//! the executor's group tables and the OLAP layer's materialized cells.

use std::cmp::Ordering;
use std::collections::HashSet;

use odbis_storage::Value;

use crate::ast::AggFunc;
use crate::error::{SqlError, SqlResult};

/// The running state of one aggregate function over the values added so
/// far.
///
/// `add` folds one value in, `merge` folds in another accumulator of the
/// same function (a view's delta fold, or a cube roll-up), and `finish`
/// gives the SQL answer. NULL inputs are skipped.
/// Integer inputs sum exactly, so the answer over INT inputs is the same
/// whatever way the inputs were split and merged; float inputs sum in an
/// `f64`, whose last bits depend on the order of the additions.
#[derive(Debug, Clone)]
pub struct Accumulator {
    state: State,
    /// DISTINCT: the values added so far; a repeat adds nothing.
    distinct: Option<HashSet<Value>>,
}

/// Only what the function's answer reads.
#[derive(Debug, Clone)]
enum State {
    Count(i64),
    Sum(Sum),
    Avg(Sum),
    Min(Option<Value>),
    Max(Option<Value>),
}

/// The inputs of a SUM or AVG.
#[derive(Debug, Clone, Default)]
struct Sum {
    /// Non-null inputs.
    count: i64,
    /// Exact sum of the Int inputs.
    ints: i128,
    /// Sum of the other numeric inputs.
    floats: f64,
    /// Some input was numeric but not an Int: a SUM answers Float.
    inexact: bool,
    /// Some input was not numeric: the answer is an error.
    non_numeric: bool,
}

impl Sum {
    fn add(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Int(i) => self.ints += i128::from(*i),
            // what scalar `+` reads as a number adds as that number
            v => match v.as_f64() {
                Some(f) => {
                    self.floats += f;
                    self.inexact = true;
                }
                None => self.non_numeric = true,
            },
        }
    }

    fn merge(&mut self, other: &Sum) {
        self.count += other.count;
        self.ints += other.ints;
        self.floats += other.floats;
        self.inexact |= other.inexact;
        self.non_numeric |= other.non_numeric;
    }

    /// NULL over no input, an error over a non-numeric one, else `answer`.
    fn finish(&self, func: &str, answer: impl FnOnce(&Sum) -> Value) -> SqlResult<Value> {
        if self.count == 0 {
            Ok(Value::Null)
        } else if self.non_numeric {
            Err(SqlError::Type(format!("{func} over non-numeric values")))
        } else {
            Ok(answer(self))
        }
    }

    fn total(&self) -> f64 {
        self.ints as f64 + self.floats
    }
}

/// Keep `v` in `slot` when the slot is empty or `v` orders `wins` against
/// what it holds.
fn keep(slot: &mut Option<Value>, v: &Value, wins: Ordering) {
    if slot.as_ref().is_none_or(|cur| v.cmp(cur) == wins) {
        *slot = Some(v.clone());
    }
}

impl Accumulator {
    /// An accumulator of `func` over no input; `distinct` adds each value
    /// once.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            state: match func {
                AggFunc::Count => State::Count(0),
                AggFunc::Sum => State::Sum(Sum::default()),
                AggFunc::Avg => State::Avg(Sum::default()),
                AggFunc::Min => State::Min(None),
                AggFunc::Max => State::Max(None),
            },
            distinct: distinct.then(Default::default),
        }
    }

    /// Fold one input value in.
    pub fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        if let Some(seen) = &mut self.distinct {
            if !seen.insert(v.clone()) {
                return;
            }
        }
        match &mut self.state {
            State::Count(n) => *n += 1,
            State::Sum(s) | State::Avg(s) => s.add(v),
            State::Min(m) => keep(m, v, Ordering::Less),
            State::Max(m) => keep(m, v, Ordering::Greater),
        }
    }

    /// [`Self::add`] of `Value::Int(v)`, for a typed column loop.
    pub fn add_int(&mut self, v: i64) {
        match &mut self.state {
            State::Count(n) if self.distinct.is_none() => *n += 1,
            State::Sum(s) | State::Avg(s) if self.distinct.is_none() => {
                s.count += 1;
                s.ints += i128::from(v);
            }
            _ => self.add(&Value::Int(v)),
        }
    }

    /// [`Self::add`] of `Value::Float(v)`, for a typed column loop.
    pub fn add_float(&mut self, v: f64) {
        match &mut self.state {
            State::Count(n) if self.distinct.is_none() => *n += 1,
            State::Sum(s) | State::Avg(s) if self.distinct.is_none() => {
                s.count += 1;
                s.floats += v;
                s.inexact = true;
            }
            _ => self.add(&Value::Float(v)),
        }
    }

    /// Count one row, NULL or not: `COUNT(*)`. Other functions read
    /// values, not rows, and ignore it.
    pub fn count_row(&mut self) {
        if let State::Count(n) = &mut self.state {
            *n += 1;
        }
    }

    /// Fold in `other`, an accumulator of the same function over other
    /// inputs, as if its inputs had been added here.
    pub fn merge(&mut self, other: &Accumulator) {
        if let Some(seen) = &other.distinct {
            // the two sides' distinct values may overlap: replay the other
            // side's through `add`, which skips the ones seen here
            for v in seen.iter() {
                self.add(v);
            }
            return;
        }
        match (&mut self.state, &other.state) {
            (State::Count(a), State::Count(b)) => *a += b,
            (State::Sum(a), State::Sum(b)) | (State::Avg(a), State::Avg(b)) => a.merge(b),
            (State::Min(a), State::Min(Some(b))) => keep(a, b, Ordering::Less),
            (State::Max(a), State::Max(Some(b))) => keep(a, b, Ordering::Greater),
            // the other side saw no value
            _ => {}
        }
    }

    /// The aggregate's value. COUNT over no input is 0, any other function
    /// NULL. SUM is an Int when every input was an Int and the sum fits,
    /// a Float otherwise; AVG is a Float. SUM and AVG over a value that is
    /// not a number are an error.
    pub fn finish(&self) -> SqlResult<Value> {
        match &self.state {
            State::Count(n) => Ok(Value::Int(*n)),
            State::Sum(s) => s.finish("SUM", |s| match i64::try_from(s.ints) {
                Ok(i) if !s.inexact => Value::Int(i),
                _ => Value::Float(s.total()),
            }),
            State::Avg(s) => s.finish("AVG", |s| Value::Float(s.total() / s.count as f64)),
            State::Min(m) | State::Max(m) => Ok(m.clone().unwrap_or(Value::Null)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn over(func: AggFunc, values: &[Value]) -> SqlResult<Value> {
        let mut acc = Accumulator::new(func, false);
        values.iter().for_each(|v| acc.add(v));
        acc.finish()
    }

    #[test]
    fn int_sums_are_exact_past_i64_and_f64_precision() {
        let big = (1i64 << 53) + 1;
        let xs = [Value::Int(big), Value::Int(big), Value::Int(-1)];
        assert_eq!(
            over(AggFunc::Sum, &xs).unwrap(),
            Value::Int(2 * big - 1),
            "f64 would round 2^53 + 1"
        );
        let past = [
            Value::Int(i64::MAX),
            Value::Int(i64::MAX),
            Value::Int(-i64::MAX),
        ];
        assert_eq!(over(AggFunc::Sum, &past).unwrap(), Value::Int(i64::MAX));
        let over_max = [Value::Int(i64::MAX), Value::Int(2)];
        assert_eq!(
            over(AggFunc::Sum, &over_max).unwrap(),
            Value::Float((i128::from(i64::MAX) + 2) as f64)
        );
    }

    #[test]
    fn merge_answers_as_one_accumulator_over_both_inputs() {
        let xs: Vec<Value> = (0..50).map(|i| Value::Int((1 << 54) + i * 7)).collect();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let whole = over(func, &xs).unwrap();
            for split in [0, 1, 17, 50] {
                let (mut a, mut b) = (Accumulator::new(func, false), Accumulator::new(func, false));
                xs[..split].iter().for_each(|v| a.add(v));
                xs[split..].iter().for_each(|v| b.add(v));
                b.merge(&a);
                assert_eq!(b.finish().unwrap(), whole, "{func:?} split at {split}");
            }
        }
    }

    #[test]
    fn typed_adds_equal_value_adds() {
        let mut typed = Accumulator::new(AggFunc::Avg, false);
        let mut generic = Accumulator::new(AggFunc::Avg, false);
        typed.add_int(3);
        typed.add_float(0.5);
        generic.add(&Value::Int(3));
        generic.add(&Value::Float(0.5));
        assert_eq!(typed.finish().unwrap(), generic.finish().unwrap());
        let mut distinct = Accumulator::new(AggFunc::Count, true);
        distinct.add_int(1);
        distinct.add_int(1);
        distinct.add_float(1.5);
        assert_eq!(distinct.finish().unwrap(), Value::Int(2));
    }
}
