//! Scalar function library.

use std::sync::Arc;

use odbis_storage::{days_to_date, ColumnVec, DataType, Value};

use crate::error::{SqlError, SqlResult};

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // self-documenting
pub enum ScalarFunc {
    Abs,
    Round,
    Floor,
    Ceil,
    Sqrt,
    Upper,
    Lower,
    Length,
    Substr,
    Trim,
    Replace,
    Concat,
    Coalesce,
    NullIf,
    Year,
    Month,
    Day,
    Cast,
    Tumble,
}

impl ScalarFunc {
    /// Resolve a function by (upper-cased) name.
    pub fn resolve(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "ABS" => ScalarFunc::Abs,
            "ROUND" => ScalarFunc::Round,
            "FLOOR" => ScalarFunc::Floor,
            "CEIL" | "CEILING" => ScalarFunc::Ceil,
            "SQRT" => ScalarFunc::Sqrt,
            "UPPER" => ScalarFunc::Upper,
            "LOWER" => ScalarFunc::Lower,
            "LENGTH" | "LEN" => ScalarFunc::Length,
            "SUBSTR" | "SUBSTRING" => ScalarFunc::Substr,
            "TRIM" => ScalarFunc::Trim,
            "REPLACE" => ScalarFunc::Replace,
            "CONCAT" => ScalarFunc::Concat,
            "COALESCE" | "IFNULL" | "NVL" => ScalarFunc::Coalesce,
            "NULLIF" => ScalarFunc::NullIf,
            "YEAR" => ScalarFunc::Year,
            "MONTH" => ScalarFunc::Month,
            "DAY" => ScalarFunc::Day,
            "CAST" => ScalarFunc::Cast,
            "TUMBLE" => ScalarFunc::Tumble,
            _ => return None,
        })
    }

    /// Check argument count; returns a bind-time error message on mismatch.
    pub fn check_arity(self, n: usize) -> Result<(), String> {
        let ok = match self {
            ScalarFunc::Abs
            | ScalarFunc::Floor
            | ScalarFunc::Ceil
            | ScalarFunc::Sqrt
            | ScalarFunc::Upper
            | ScalarFunc::Lower
            | ScalarFunc::Length
            | ScalarFunc::Trim
            | ScalarFunc::Year
            | ScalarFunc::Month
            | ScalarFunc::Day => n == 1,
            ScalarFunc::Round => n == 1 || n == 2,
            ScalarFunc::Substr => n == 2 || n == 3,
            ScalarFunc::Replace => n == 3,
            ScalarFunc::NullIf => n == 2,
            ScalarFunc::Concat | ScalarFunc::Coalesce => n >= 1,
            ScalarFunc::Cast | ScalarFunc::Tumble => n == 2,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("wrong number of arguments ({n}) for {self:?}"))
        }
    }

    /// Evaluate the function over already-computed argument values.
    pub fn eval(self, args: &[Value]) -> SqlResult<Value> {
        use ScalarFunc::*;
        // NULL propagation for all but the NULL-handling functions.
        if !matches!(self, Coalesce | Concat | NullIf) && args.iter().any(Value::is_null) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Abs => match &args[0] {
                Value::Int(i) => Value::Int(i.wrapping_abs()),
                Value::Float(f) => Value::Float(f.abs()),
                v => return type_err("ABS", v),
            },
            Round => {
                let digits = args.get(1).and_then(Value::as_i64).unwrap_or(0);
                match &args[0] {
                    Value::Int(i) => Value::Int(*i),
                    Value::Float(f) => {
                        let m = 10f64.powi(digits as i32);
                        Value::Float((f * m).round() / m)
                    }
                    v => return type_err("ROUND", v),
                }
            }
            Floor => match &args[0] {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Float(f.floor()),
                v => return type_err("FLOOR", v),
            },
            Ceil => match &args[0] {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Float(f.ceil()),
                v => return type_err("CEIL", v),
            },
            Sqrt => match args[0].as_f64() {
                Some(f) if f >= 0.0 => Value::Float(f.sqrt()),
                Some(_) => return Err(SqlError::Eval("SQRT of negative number".into())),
                None => return type_err("SQRT", &args[0]),
            },
            Upper => Value::Text(text_arg("UPPER", &args[0])?.to_uppercase()),
            Lower => Value::Text(text_arg("LOWER", &args[0])?.to_lowercase()),
            Length => Value::Int(text_arg("LENGTH", &args[0])?.chars().count() as i64),
            Substr => {
                let s = text_arg("SUBSTR", &args[0])?;
                let chars: Vec<char> = s.chars().collect();
                // SQL is 1-based
                let start = args[1]
                    .as_i64()
                    .ok_or_else(|| SqlError::Eval("SUBSTR start must be integer".into()))?;
                let start = (start.max(1) - 1) as usize;
                let len = match args.get(2) {
                    Some(v) => v
                        .as_i64()
                        .ok_or_else(|| SqlError::Eval("SUBSTR length must be integer".into()))?
                        .max(0) as usize,
                    None => chars.len().saturating_sub(start),
                };
                let end = (start + len).min(chars.len());
                let start = start.min(chars.len());
                Value::Text(chars[start..end].iter().collect())
            }
            Trim => Value::Text(text_arg("TRIM", &args[0])?.trim().to_string()),
            Replace => {
                let s = text_arg("REPLACE", &args[0])?;
                let from = text_arg("REPLACE", &args[1])?;
                let to = text_arg("REPLACE", &args[2])?;
                Value::Text(s.replace(from, to))
            }
            Concat => {
                let mut s = String::new();
                for a in args {
                    if !a.is_null() {
                        s.push_str(&a.render());
                    }
                }
                Value::Text(s)
            }
            Coalesce => args
                .iter()
                .find(|a| !a.is_null())
                .cloned()
                .unwrap_or(Value::Null),
            NullIf => {
                if args[0].sql_eq(&args[1]) == Some(true) {
                    Value::Null
                } else {
                    args[0].clone()
                }
            }
            Year | Month | Day => {
                let days = match &args[0] {
                    Value::Date(d) => *d,
                    Value::Timestamp(t) => t.div_euclid(86_400_000_000) as i32,
                    v => return type_err("date part", v),
                };
                let (y, m, d) = days_to_date(days);
                match self {
                    Year => Value::Int(i64::from(y)),
                    Month => Value::Int(i64::from(m)),
                    _ => Value::Int(i64::from(d)),
                }
            }
            Cast => {
                let ty_name = text_arg("CAST", &args[1])?;
                let ty = DataType::parse(ty_name)
                    .ok_or_else(|| SqlError::Eval(format!("unknown CAST target {ty_name}")))?;
                cast_value(&args[0], ty)?
            }
            Tumble => {
                // TUMBLE(ts, width): align a time/number onto the start of
                // its tumbling window. Width is in the column's own unit —
                // seconds for TIMESTAMP, days for DATE, plain units for
                // numbers. Floor division keeps negatives on the correct
                // (earlier) window edge.
                let w = args[1].as_i64().filter(|w| *w > 0).ok_or_else(|| {
                    SqlError::Eval("TUMBLE width must be a positive integer".into())
                })?;
                // Flooring toward the earlier edge can push past the type's
                // minimum (e.g. i64::MIN with width 3 aligns below i64::MIN),
                // so the multiply back must be checked — overflow is a
                // caller-visible eval error, never a wrap or a panic.
                let overflow =
                    |t: i64| SqlError::Eval(format!("TUMBLE overflow: value {t} with width {w}"));
                match &args[0] {
                    Value::Timestamp(t) => {
                        let w_us = w.checked_mul(1_000_000).ok_or_else(|| {
                            SqlError::Eval(format!("TUMBLE width {w}s overflows microseconds"))
                        })?;
                        Value::Timestamp(
                            t.div_euclid(w_us)
                                .checked_mul(w_us)
                                .ok_or_else(|| overflow(*t))?,
                        )
                    }
                    Value::Date(d) => {
                        let w = i32::try_from(w).map_err(|_| {
                            SqlError::Eval(format!("TUMBLE width {w} is out of range for DATE"))
                        })?;
                        Value::Date(
                            d.div_euclid(w)
                                .checked_mul(w)
                                .ok_or_else(|| overflow(i64::from(*d)))?,
                        )
                    }
                    Value::Int(i) => {
                        Value::Int(i.div_euclid(w).checked_mul(w).ok_or_else(|| overflow(*i))?)
                    }
                    Value::Float(f) => {
                        let w = w as f64;
                        Value::Float((f / w).floor() * w)
                    }
                    v => return type_err("TUMBLE", v),
                }
            }
        })
    }

    /// Vectorized wrapper for the batch executor: element-wise
    /// [`ScalarFunc::eval`] over already-evaluated argument columns.
    /// `rows` is the batch length (needed for zero-argument edge cases).
    pub fn eval_columns(self, args: &[Arc<ColumnVec>], rows: usize) -> SqlResult<Arc<ColumnVec>> {
        let mut vals = Vec::with_capacity(rows);
        let mut argv: Vec<Value> = Vec::with_capacity(args.len());
        for i in 0..rows {
            argv.clear();
            argv.extend(args.iter().map(|c| c.value(i)));
            vals.push(self.eval(&argv)?);
        }
        Ok(Arc::new(ColumnVec::from_values(vals)))
    }
}

fn type_err(func: &str, v: &Value) -> SqlResult<Value> {
    Err(SqlError::Type(format!(
        "invalid argument for {func}: {}",
        v.render()
    )))
}

fn text_arg<'a>(func: &str, v: &'a Value) -> SqlResult<&'a str> {
    v.as_str()
        .ok_or_else(|| SqlError::Type(format!("{func} expects TEXT, got {}", v.render())))
}

/// Explicit cast used by `CAST(x, 'TYPE')` — wider than implicit coercion:
/// parses text into numbers/dates, renders anything to text.
pub fn cast_value(v: &Value, ty: DataType) -> SqlResult<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if let Some(c) = v.coerce_to(ty) {
        return Ok(c);
    }
    let fail = || SqlError::Eval(format!("cannot cast {} to {ty}", v.render()));
    Ok(match (v, ty) {
        (_, DataType::Text) => Value::Text(v.render()),
        (Value::Text(s), DataType::Int) => Value::Int(s.trim().parse().map_err(|_| fail())?),
        (Value::Text(s), DataType::Float) => Value::Float(s.trim().parse().map_err(|_| fail())?),
        (Value::Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Value::Bool(true),
            "false" | "f" | "0" => Value::Bool(false),
            _ => return Err(fail()),
        },
        (Value::Text(s), DataType::Date) => {
            Value::Date(odbis_storage::parse_date(s.trim()).ok_or_else(fail)?)
        }
        (Value::Text(s), DataType::Timestamp) => {
            Value::Timestamp(odbis_storage::parse_timestamp(s.trim()).ok_or_else(fail)?)
        }
        (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
        (Value::Bool(b), DataType::Int) => Value::Int(i64::from(*b)),
        (Value::Timestamp(t), DataType::Date) => Value::Date(t.div_euclid(86_400_000_000) as i32),
        _ => return Err(fail()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(f: ScalarFunc, args: &[Value]) -> Value {
        f.eval(args).unwrap()
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(ev(ScalarFunc::Abs, &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(
            ev(ScalarFunc::Round, &[Value::Float(2.567), Value::Int(1)]),
            Value::Float(2.6)
        );
        assert_eq!(
            ev(ScalarFunc::Floor, &[Value::Float(2.9)]),
            Value::Float(2.0)
        );
        assert_eq!(ev(ScalarFunc::Sqrt, &[Value::Int(9)]), Value::Float(3.0));
        assert!(ScalarFunc::Sqrt.eval(&[Value::Int(-1)]).is_err());
    }

    #[test]
    fn string_functions() {
        assert_eq!(ev(ScalarFunc::Upper, &["ab".into()]), Value::from("AB"));
        assert_eq!(ev(ScalarFunc::Length, &["héllo".into()]), Value::Int(5));
        assert_eq!(
            ev(
                ScalarFunc::Substr,
                &["hello".into(), Value::Int(2), Value::Int(3)]
            ),
            Value::from("ell")
        );
        assert_eq!(
            ev(ScalarFunc::Substr, &["hello".into(), Value::Int(4)]),
            Value::from("lo")
        );
        assert_eq!(
            ev(
                ScalarFunc::Replace,
                &["aXbX".into(), "X".into(), "-".into()]
            ),
            Value::from("a-b-")
        );
        assert_eq!(
            ev(
                ScalarFunc::Concat,
                &["a".into(), Value::Null, Value::Int(3)]
            ),
            Value::from("a3")
        );
    }

    #[test]
    fn null_handling() {
        assert_eq!(ev(ScalarFunc::Upper, &[Value::Null]), Value::Null);
        assert_eq!(
            ev(
                ScalarFunc::Coalesce,
                &[Value::Null, Value::Int(2), Value::Int(3)]
            ),
            Value::Int(2)
        );
        assert_eq!(
            ev(ScalarFunc::NullIf, &[Value::Int(1), Value::Int(1)]),
            Value::Null
        );
        assert_eq!(
            ev(ScalarFunc::NullIf, &[Value::Int(1), Value::Int(2)]),
            Value::Int(1)
        );
    }

    #[test]
    fn date_parts() {
        let d = odbis_storage::parse_date("2010-03-22").unwrap();
        assert_eq!(ev(ScalarFunc::Year, &[Value::Date(d)]), Value::Int(2010));
        assert_eq!(ev(ScalarFunc::Month, &[Value::Date(d)]), Value::Int(3));
        assert_eq!(ev(ScalarFunc::Day, &[Value::Date(d)]), Value::Int(22));
    }

    #[test]
    fn casts() {
        assert_eq!(
            cast_value(&"42".into(), DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            cast_value(&Value::Float(2.9), DataType::Int).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            cast_value(&Value::Int(5), DataType::Text).unwrap(),
            Value::from("5")
        );
        assert!(cast_value(&"xyz".into(), DataType::Int).is_err());
        assert_eq!(
            cast_value(&"2010-03-22".into(), DataType::Date).unwrap(),
            Value::Date(odbis_storage::parse_date("2010-03-22").unwrap())
        );
    }

    #[test]
    fn tumble_windows() {
        // integers land on multiples of the width
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Int(2009), Value::Int(10)]),
            Value::Int(2000)
        );
        // negatives floor toward the earlier window
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Int(-3), Value::Int(10)]),
            Value::Int(-10)
        );
        // timestamps: width is in seconds
        let t = odbis_storage::parse_timestamp("2010-03-22 10:17:45").unwrap();
        let w = odbis_storage::parse_timestamp("2010-03-22 10:00:00").unwrap();
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Timestamp(t), Value::Int(3600)]),
            Value::Timestamp(w)
        );
        // dates: width is in days
        let d = odbis_storage::parse_date("2010-03-22").unwrap();
        let tumbled = ev(ScalarFunc::Tumble, &[Value::Date(d), Value::Int(7)]);
        assert_eq!(tumbled, Value::Date(d.div_euclid(7) * 7));
        // NULL propagates, bad width errors
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Null, Value::Int(10)]),
            Value::Null
        );
        assert!(ScalarFunc::Tumble
            .eval(&[Value::Int(5), Value::Int(0)])
            .is_err());
    }

    /// Alignment at the type extremes: flooring toward the earlier window
    /// edge must surface `SqlError::Eval` instead of wrapping (release) or
    /// panicking (debug) when the aligned edge falls below the type minimum.
    #[test]
    fn tumble_overflow_at_extremes_is_an_eval_error() {
        // i64::MIN is not a multiple of 3: the floor edge < i64::MIN
        for v in [Value::Int(i64::MIN), Value::Timestamp(i64::MIN)] {
            let err = ScalarFunc::Tumble.eval(&[v, Value::Int(3)]).unwrap_err();
            assert!(
                matches!(err, SqlError::Eval(ref m) if m.contains("overflow")),
                "expected eval overflow, got {err:?}"
            );
        }
        let err = ScalarFunc::Tumble
            .eval(&[Value::Date(i32::MIN), Value::Int(3)])
            .unwrap_err();
        assert!(matches!(err, SqlError::Eval(_)), "got {err:?}");
        // a multiple of the width at the minimum still aligns exactly
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Int(i64::MIN), Value::Int(2)]),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            ev(ScalarFunc::Tumble, &[Value::Int(i64::MAX), Value::Int(10)]),
            Value::Int(i64::MAX - 7)
        );
        // timestamp widths are scaled to microseconds: a huge width must
        // error on the scale step, not wrap
        assert!(ScalarFunc::Tumble
            .eval(&[Value::Timestamp(0), Value::Int(i64::MAX / 1_000)])
            .is_err());
        // DATE widths beyond i32 used to truncate silently
        assert!(ScalarFunc::Tumble
            .eval(&[Value::Date(10), Value::Int(i64::from(i32::MAX) + 1)])
            .is_err());
        // the vectorized wrapper surfaces the same error
        use std::sync::Arc;
        let vals = Arc::new(ColumnVec::from_values(vec![Value::Int(i64::MIN)]));
        let width = Arc::new(ColumnVec::from_values(vec![Value::Int(3)]));
        assert!(ScalarFunc::Tumble.eval_columns(&[vals, width], 1).is_err());
    }

    #[test]
    fn resolve_and_arity() {
        assert_eq!(ScalarFunc::resolve("COALESCE"), Some(ScalarFunc::Coalesce));
        assert_eq!(ScalarFunc::resolve("NOPE"), None);
        assert!(ScalarFunc::Substr.check_arity(1).is_err());
        assert!(ScalarFunc::Substr.check_arity(3).is_ok());
    }
}
