//! Scalar values and data types.
//!
//! A single [`Value`] enum is shared by every layer of the platform
//! (storage, SQL, ETL, OLAP, reporting), in the style of a query engine's
//! scalar type. Values carry their own runtime type; columns declare a
//! static [`DataType`] that inserted values must be coercible to.

use std::cmp::Ordering;
use std::fmt::{self, Write};

use serde::{Deserialize, Serialize};

/// The static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean `TRUE` / `FALSE`.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string of unbounded length.
    Text,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
    /// Timestamp, stored as microseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// Human-readable SQL-ish name of the type.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
            DataType::Timestamp => "TIMESTAMP",
        }
    }

    /// Whether a value of type `from` may be implicitly coerced to `self`.
    pub fn accepts(self, from: DataType) -> bool {
        self == from
            || matches!(
                (self, from),
                (DataType::Float, DataType::Int) | (DataType::Timestamp, DataType::Date)
            )
    }

    /// Whether this type is numeric (participates in arithmetic).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Parse a type name as found in SQL DDL. Accepts common aliases.
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "NUMERIC" | "DECIMAL" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(DataType::Text),
            "DATE" => Some(DataType::Date),
            "TIMESTAMP" | "DATETIME" => Some(DataType::Timestamp),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically-typed scalar value.
///
/// `Value` implements a *total* ordering (needed for index keys and sorting):
/// `Null` sorts first, and floats are ordered by `f64::total_cmp`. Equality
/// between `Int` and `Float` compares numerically so that `1 = 1.0`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL — absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The runtime [`DataType`] of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce this value to `target`, if an implicit conversion exists.
    /// `Null` coerces to every type.
    pub fn coerce_to(&self, target: DataType) -> Option<Value> {
        match (self, target) {
            (Value::Null, _) => Some(Value::Null),
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
            (Value::Date(d), DataType::Timestamp) => {
                Some(Value::Timestamp(i64::from(*d) * 86_400_000_000))
            }
            _ => None,
        }
    }

    /// Numeric view of the value as `f64` (ints, floats, bools as 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Text view of the value (only for `Text`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value (only for `Bool`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued-logic equality: returns `None` when either side is
    /// NULL, numeric comparison across `Int`/`Float`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other) == Ordering::Equal)
    }

    /// SQL three-valued-logic ordering: `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other))
    }

    /// Total ordering over all values. `Null` sorts before everything;
    /// values of different (non-coercible) types order by a fixed type rank.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            // widen to i128: a full-range date times µs-per-day overflows i64
            (Date(a), Timestamp(b)) => (i128::from(*a) * 86_400_000_000).cmp(&i128::from(*b)),
            (Timestamp(a), Date(b)) => i128::from(*a).cmp(&(i128::from(*b) * 86_400_000_000)),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Render the value the way a SQL shell would (`NULL`, unquoted numbers,
    /// ISO dates).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append [`Value::render`]'s text to `out`, with no `String` of its
    /// own: `NULL`, `TRUE`/`FALSE`, integers digit by digit, integral
    /// floats under 1e15 with one decimal (`2.0`), other floats as Rust
    /// prints them, ISO dates and `YYYY-MM-DD HH:MM:SS` timestamps. Only a
    /// `Text` value's output can hold a quote, a backslash, a comma or a
    /// control character.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("NULL"),
            Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => push_int(out, *i),
            Value::Float(f) => {
                // writing into a `String` cannot fail
                let _ = if f.fract() == 0.0 && f.abs() < 1e15 {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                };
            }
            Value::Text(s) => out.push_str(s),
            Value::Date(d) => push_date(out, *d),
            Value::Timestamp(t) => push_timestamp(out, *t),
        }
    }
}

/// Append `i` in decimal, digit by digit.
fn push_int(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Append one CSV field: as it is, or, when it holds a comma, a quote or
/// a line break (`\n` or `\r`), wrapped in quotes with its quotes doubled
/// (RFC 4180).
pub fn push_csv_field(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Append one CSV record to `out`: the fields (see [`push_csv_field`])
/// separated by commas and ended by `eol`.
pub fn push_csv_record<S: AsRef<str>>(
    out: &mut String,
    fields: impl IntoIterator<Item = S>,
    eol: &str,
) {
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_csv_field(out, field.as_ref());
    }
    out.push_str(eol);
}

/// Append `s` as a quoted JSON string. `"`, `\\`, `\n`, `\r`, `\t`,
/// backspace and form feed get their short escapes, every other control
/// character below U+0020 a lowercase `\u00xx`; everything else,
/// non-ASCII included, is copied as it is.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A header and rows as CSV text: `\n`-ended records (see
/// [`push_csv_record`]), NULL as an empty field.
pub fn csv_text(columns: &[String], rows: &[Vec<Value>]) -> String {
    let mut out = String::new();
    push_csv_record(&mut out, columns, "\n");
    for row in rows {
        let fields = row.iter().map(|v| {
            if v.is_null() {
                String::new()
            } else {
                v.render()
            }
        });
        push_csv_record(&mut out, fields, "\n");
    }
    out
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Text(_) => 3,
        Value::Date(_) | Value::Timestamp(_) => 4,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            // Date and Timestamp that compare equal must hash equal; widen to
            // i128 like `cmp_total`: a full-range date in µs overflows i64.
            Value::Date(d) => {
                4u8.hash(state);
                (i128::from(*d) * 86_400_000_000).hash(state);
            }
            Value::Timestamp(t) => {
                4u8.hash(state);
                i128::from(*t).hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

// ---------------------------------------------------------------------------
// Calendar arithmetic (proleptic Gregorian, no external time crate).
// ---------------------------------------------------------------------------

/// True if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn days_in_month(year: i32, month: u32) -> i32 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Convert a civil date to days since 1970-01-01.
///
/// Returns `None` for out-of-range month/day. Implements the classic
/// days-from-civil algorithm (Howard Hinnant).
pub fn date_to_days(year: i32, month: u32, day: u32) -> Option<i32> {
    if !(1..=12).contains(&month) || day == 0 || day as i32 > days_in_month(year, month) {
        return None;
    }
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((month + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    Some((era * 146_097 + doe - 719_468) as i32)
}

/// Convert days since 1970-01-01 back to a civil `(year, month, day)`.
pub fn days_to_date(days: i32) -> (i32, u32, u32) {
    let z = i64::from(days) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

/// Append days-since-epoch as `YYYY-MM-DD`.
fn push_date(out: &mut String, days: i32) {
    let (y, m, d) = days_to_date(days);
    let _ = write!(out, "{y:04}-{m:02}-{d:02}");
}

/// Append microseconds-since-epoch as `YYYY-MM-DD HH:MM:SS`.
fn push_timestamp(out: &mut String, micros: i64) {
    let days = micros.div_euclid(86_400_000_000);
    let rem = micros.rem_euclid(86_400_000_000);
    let secs = rem / 1_000_000;
    let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
    push_date(out, days as i32);
    let _ = write!(out, " {h:02}:{m:02}:{s:02}");
}

/// Parse `YYYY-MM-DD` into days since epoch.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.splitn(3, '-');
    // Handle a possible leading '-' for negative years by re-joining.
    let (y, m, d) = if let Some(rest) = s.strip_prefix('-') {
        let mut it2 = rest.splitn(3, '-');
        (
            -it2.next()?.parse::<i32>().ok()?,
            it2.next()?.parse::<u32>().ok()?,
            it2.next()?.parse::<u32>().ok()?,
        )
    } else {
        (
            it.next()?.parse::<i32>().ok()?,
            it.next()?.parse::<u32>().ok()?,
            it.next()?.parse::<u32>().ok()?,
        )
    };
    date_to_days(y, m, d)
}

/// Parse `YYYY-MM-DD[ HH:MM[:SS]]` into microseconds since epoch.
pub fn parse_timestamp(s: &str) -> Option<i64> {
    let (date_part, time_part) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let days = i64::from(parse_date(date_part)?);
    let mut micros = days * 86_400_000_000;
    if let Some(t) = time_part {
        let mut it = t.splitn(3, ':');
        let h: i64 = it.next()?.parse().ok()?;
        let m: i64 = it.next()?.parse().ok()?;
        let sec: f64 = it.next().map_or(Some(0.0), |x| x.parse().ok())?;
        if h > 23 || m > 59 || sec >= 61.0 {
            return None;
        }
        micros += (h * 3600 + m * 60) * 1_000_000 + (sec * 1e6) as i64;
    }
    Some(micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_round_trip_through_parse() {
        for t in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Date,
            DataType::Timestamp,
        ] {
            assert_eq!(DataType::parse(t.name()), Some(t));
        }
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn coercion_int_to_float_and_date_to_timestamp() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(
            Value::Date(1).coerce_to(DataType::Timestamp),
            Some(Value::Timestamp(86_400_000_000))
        );
        assert_eq!(Value::Text("x".into()).coerce_to(DataType::Int), None);
        assert_eq!(Value::Null.coerce_to(DataType::Int), Some(Value::Null));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(2) > Value::Float(1.5));
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::Int(-5)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(-5));
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(7));
        assert!(set.contains(&Value::Float(7.0)));
    }

    #[test]
    fn hash_consistent_with_eq_for_date_timestamp_over_the_full_range() {
        use std::collections::HashSet;
        // a full-range date in µs overflows i64: hashing must not panic
        let mut set = HashSet::new();
        set.insert(Value::Date(i32::MIN));
        set.insert(Value::Date(i32::MAX));
        assert!(set.contains(&Value::Date(i32::MAX)));
        assert!(!set.contains(&Value::Timestamp(i64::MAX)));
        for d in [-3i32, 0, 1, 106_751_991] {
            let ts = Value::Timestamp(i64::from(d) * 86_400_000_000);
            assert_eq!(Value::Date(d), ts);
            set.insert(Value::Date(d));
            assert!(set.contains(&ts), "Timestamp of day {d} not found");
            assert!(HashSet::from([ts]).contains(&Value::Date(d)));
        }
    }

    #[test]
    fn date_round_trips() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2010, 3, 22), // EDBT 2010 started on this date
            (1899, 12, 31),
            (2026, 7, 5),
        ] {
            let days = date_to_days(y, m, d).unwrap();
            assert_eq!(days_to_date(days), (y, m, d));
        }
        assert_eq!(date_to_days(1970, 1, 1), Some(0));
        assert_eq!(date_to_days(2023, 2, 29), None);
        assert!(date_to_days(2024, 2, 29).is_some());
        assert_eq!(date_to_days(2024, 13, 1), None);
    }

    #[test]
    fn date_parse_and_format() {
        let d = parse_date("2010-03-22").unwrap();
        assert_eq!(Value::Date(d).render(), "2010-03-22");
        assert!(parse_date("2010-3").is_none());
        assert!(parse_date("garbage").is_none());
    }

    #[test]
    fn timestamp_parse_and_format() {
        let t = parse_timestamp("2010-03-22 16:30:00").unwrap();
        assert_eq!(Value::Timestamp(t).render(), "2010-03-22 16:30:00");
        let t2 = parse_timestamp("2010-03-22").unwrap();
        assert_eq!(Value::Timestamp(t2).render(), "2010-03-22 00:00:00");
        assert!(parse_timestamp("2010-03-22 25:00:00").is_none());
    }

    #[test]
    fn render_values() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Bool(true).render(), "TRUE");
        assert_eq!(Value::Date(0).render(), "1970-01-01");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some("a")), Value::Text("a".into()));
    }
}
