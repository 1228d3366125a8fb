//! Binary columnar segments: the on-disk checkpoint format.
//!
//! A segment is the immutable columnar image of one table at one LSN cut.
//! It stores each column as a sequence of CRC-checked
//! blocks (the same CRC-32 framing discipline as the WAL), compressed with
//! whichever lightweight encoding fits the data — dictionary, run-length,
//! frame-of-reference bitpacking, or plain — and carries a min/max zone map
//! per block so cold scans can skip blocks a range predicate excludes.
//!
//! ## File layout
//!
//! All integers are little-endian; `frame` means the WAL-style
//! `[len: u32][crc: u32][body]` envelope with CRC-32 (IEEE) over the body:
//!
//! ```text
//! magic    b"OSG1"
//! version  u32
//! last_lsn u64                          // LSN cut this segment captures
//! frame    meta JSON                    // {name, schema, indexes, slots}
//! frame    live bitmap                  // bit i set = row slot i is live
//! ncols    u32
//! per column:
//!   nblocks u32
//!   frame × nblocks:
//!     encoding  u8                      // 0 plain, 1 rle, 2 dict, 3 bitpack
//!     rows      u32                     // live values covered
//!     zone      u8                      // 1 = min/max follow
//!     [min value][max value]            // tagged, non-null extremes
//!     null bitmap  ceil(rows/8)
//!     payload                           // non-null values, per encoding
//! ```
//!
//! The layout is column-major and blocks chunk the live rows in
//! [`BLOCK_ROWS`] groups, identically for every column — block *i* of every
//! column covers the same rows, so zone-map pruning on one column skips
//! that row range across all of them. Decoding goes straight into
//! [`ColumnVec`]s (typed vectors + null mask), so a cold scan produces a
//! [`Batch`] without ever pivoting through rows; recovery places the
//! decoded values into table chunks through the live bitmap so every
//! surviving row keeps the `RowId` it had when the segment was written.
//!
//! Tombstoned slots are represented only in the live bitmap (a table's
//! cleared live bits) — their values are not written.
//!
//! The tagged value codec below is also the WAL's: every value of a
//! journaled row is written with `write_value` (see [`crate::wal`]), and
//! the schema JSON of the meta frame is what a `CreateTable` record carries.

use std::path::Path;

use serde_json::{Map, Number, Value as Json};

use crate::batch::{Batch, ColumnVec};
use crate::error::{DbError, DbResult};
use crate::persist::write_atomic;
use crate::schema::{Column, Schema};
use crate::table::{Chunk, Table};
use crate::value::{DataType, Value};
use crate::wal::crc32;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"OSG1";

/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Storage's one size constant. Live rows per block: one block of every
/// column covers the same rows, so this is also the zone-map pruning
/// granularity. Row ids per table chunk, and so the rows of one scan
/// morsel, which is the executor's unit of parallel work.
pub const BLOCK_ROWS: usize = 4096;

/// How one block's non-null values are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values back-to-back, tagged. The fallback every block can use.
    Plain,
    /// Run-length: `(count, value)` pairs. Wins on sorted or repetitive
    /// columns.
    Rle,
    /// Dictionary: distinct values once, then bit-packed indexes. Wins on
    /// low-cardinality columns (status codes, categories).
    Dict,
    /// Frame-of-reference bitpacking for integer-family columns (INT,
    /// DATE, TIMESTAMP): minimum plus per-value deltas at the narrowest
    /// bit width that fits.
    BitPack,
}

impl Encoding {
    fn code(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::Dict => 2,
            Encoding::BitPack => 3,
        }
    }

    fn from_code(c: u8) -> DbResult<Encoding> {
        Ok(match c {
            0 => Encoding::Plain,
            1 => Encoding::Rle,
            2 => Encoding::Dict,
            3 => Encoding::BitPack,
            _ => return Err(DbError::Corrupt(format!("unknown block encoding {c}"))),
        })
    }

    /// The encoding's display name (`plain` / `rle` / `dict` / `bitpack`).
    pub fn as_str(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Rle => "rle",
            Encoding::Dict => "dict",
            Encoding::BitPack => "bitpack",
        }
    }
}

// ---- tagged value codec ---------------------------------------------------

// Segments never write `TAG_NULL`: their null bitmaps carry nulls, and
// `decode_block` refuses the tag. Only WAL rows hold it.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_DATE: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;

/// Canonical byte key for dictionary membership: the tagged encoding of
/// the value. Distinguishes `Int(1)` from `Float(1.0)` (different tags)
/// the way `==` does, while merging bit-identical NaNs — which decode back
/// bit-exactly either way. Hashing these keys keeps dictionary building
/// linear; probing a `Vec` with `contains`/`position` is O(distinct·rows)
/// per block and dominated whole-table encodes.
fn value_key(v: &Value) -> Vec<u8> {
    let mut k = Vec::with_capacity(value_size(v));
    write_value(&mut k, v);
    k
}

fn value_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 9,
        Value::Date(_) => 5,
        Value::Text(s) => 5 + s.len(),
    }
}

/// Append `v` as one tag byte plus its fixed-width little-endian payload
/// (text: `u32` length, then UTF-8 bytes). Floats keep their exact bits.
pub(crate) fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// The next `n` bytes at `*pos`, advancing past them; a short buffer is
/// [`DbError::Corrupt`], so a length field is checked before anything
/// sized by it is allocated.
pub(crate) fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize, what: &str) -> DbResult<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= b.len())
        .ok_or_else(|| DbError::Corrupt(format!("truncated reading {what}")))?;
    let s = &b[*pos..end];
    *pos = end;
    Ok(s)
}

pub(crate) fn read_u8(b: &[u8], pos: &mut usize, what: &str) -> DbResult<u8> {
    Ok(take(b, pos, 1, what)?[0])
}

pub(crate) fn read_u32(b: &[u8], pos: &mut usize, what: &str) -> DbResult<u32> {
    Ok(u32::from_le_bytes(
        take(b, pos, 4, what)?.try_into().unwrap(),
    ))
}

pub(crate) fn read_u64(b: &[u8], pos: &mut usize, what: &str) -> DbResult<u64> {
    Ok(u64::from_le_bytes(
        take(b, pos, 8, what)?.try_into().unwrap(),
    ))
}

/// Decode one [`write_value`] encoding. Strict, so every accepted byte
/// string is the canonical encoding of what it decodes to: a bool byte
/// other than 0/1 or an unknown tag is [`DbError::Corrupt`].
pub(crate) fn read_value(b: &[u8], pos: &mut usize) -> DbResult<Value> {
    let tag = read_u8(b, pos, "value tag")?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => match read_u8(b, pos, "bool")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => return Err(DbError::Corrupt(format!("bool byte {other}"))),
        },
        TAG_INT => Value::Int(i64::from_le_bytes(
            take(b, pos, 8, "int")?.try_into().unwrap(),
        )),
        TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(
            take(b, pos, 8, "float")?.try_into().unwrap(),
        ))),
        TAG_TEXT => {
            let len = read_u32(b, pos, "text length")? as usize;
            let bytes = take(b, pos, len, "text bytes")?;
            Value::Text(
                std::str::from_utf8(bytes)
                    .map_err(|_| DbError::Corrupt("text value not UTF-8".into()))?
                    .to_string(),
            )
        }
        TAG_DATE => Value::Date(i32::from_le_bytes(
            take(b, pos, 4, "date")?.try_into().unwrap(),
        )),
        TAG_TIMESTAMP => Value::Timestamp(i64::from_le_bytes(
            take(b, pos, 8, "timestamp")?.try_into().unwrap(),
        )),
        _ => return Err(DbError::Corrupt(format!("unknown value tag {tag}"))),
    })
}

// ---- bit packing ----------------------------------------------------------

// Both directions run a u128 bit accumulator: it never holds more than
// width + 7 ≤ 71 live bits, so no shift can overflow for any width ≤ 64.
fn pack_bits(values: &[u64], width: u8, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut filled = 0u32;
    for &v in values {
        acc |= (v as u128) << filled;
        filled += width as u32;
        while filled >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

fn unpack_bits(b: &[u8], pos: &mut usize, width: u8, n: usize, what: &str) -> DbResult<Vec<u64>> {
    if width == 0 {
        return Ok(vec![0; n]);
    }
    let nbytes = (n * width as usize).div_ceil(8);
    let bytes = take(b, pos, nbytes, what)?;
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(n);
    let mut acc: u128 = 0;
    let mut filled = 0u32;
    let mut iter = bytes.iter();
    for _ in 0..n {
        while filled < width as u32 {
            // cannot run dry: the slice was sized to ceil(n * width / 8)
            acc |= (*iter.next().expect("slice sized above") as u128) << filled;
            filled += 8;
        }
        out.push((acc as u64) & mask);
        acc >>= width;
        filled -= width as u32;
    }
    Ok(out)
}

fn bits_needed(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

// ---- block encode ---------------------------------------------------------

/// A decoded block: its values (nulls re-inserted), the encoding it was
/// stored with, and its zone map.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBlock {
    /// The block's values in row order, including nulls.
    pub values: Vec<Value>,
    /// The encoding the block was stored with.
    pub encoding: Encoding,
    /// Smallest non-null value, if the block has any.
    pub min: Option<Value>,
    /// Largest non-null value, if the block has any.
    pub max: Option<Value>,
}

fn int_family_u64(v: &Value) -> Option<(u8, i64)> {
    match v {
        Value::Int(i) => Some((TAG_INT, *i)),
        Value::Date(d) => Some((TAG_DATE, *d as i64)),
        Value::Timestamp(t) => Some((TAG_TIMESTAMP, *t)),
        _ => None,
    }
}

/// Choose the smallest encoding for one block's non-null values, by exact
/// encoded-size comparison (the candidate computations are all linear).
pub fn choose_encoding(values: &[Value]) -> Encoding {
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    if non_null.is_empty() {
        return Encoding::Plain;
    }
    let plain: usize = non_null.iter().map(|v| value_size(v)).sum();
    let mut best = (plain, Encoding::Plain);

    // BitPack: all values one integer-family tag
    if let Some((tag0, _)) = int_family_u64(non_null[0]) {
        let ints: Option<Vec<i64>> = non_null
            .iter()
            .map(|v| {
                int_family_u64(v)
                    .filter(|(t, _)| *t == tag0)
                    .map(|(_, i)| i)
            })
            .collect();
        if let Some(ints) = ints {
            let min = *ints.iter().min().expect("non-empty");
            let spread = ints
                .iter()
                .map(|&i| (i as i128 - min as i128) as u64)
                .max()
                .expect("non-empty");
            let width = bits_needed(spread);
            let size = 1 + 8 + 1 + (ints.len() * width as usize).div_ceil(8);
            if size < best.0 {
                best = (size, Encoding::BitPack);
            }
        }
    }

    // RLE: count runs
    let mut runs = 0usize;
    let mut rle = 4usize;
    let mut prev: Option<&Value> = None;
    for v in &non_null {
        if prev != Some(*v) {
            runs += 1;
            rle += 4 + value_size(v);
            prev = Some(*v);
        }
    }
    let _ = runs;
    if rle < best.0 {
        best = (rle, Encoding::Rle);
    }

    // Dict: distinct values + packed indexes
    let mut seen = std::collections::HashSet::new();
    let mut entries = 0usize;
    let mut overflowed = false;
    for v in &non_null {
        if seen.insert(value_key(v)) {
            entries += value_size(v);
            if seen.len() > non_null.len() / 2 + 1 {
                overflowed = true; // too many distincts to ever win
                break;
            }
        }
    }
    if !overflowed {
        let width = bits_needed(seen.len().saturating_sub(1) as u64).max(1);
        let size = 4 + entries + 1 + (non_null.len() * width as usize).div_ceil(8);
        if size < best.0 {
            best = (size, Encoding::Dict);
        }
    }

    best.1
}

/// Encode one block of `values` (nulls included) onto `out` as a framed
/// block. `forced` pins the encoding — the property tests round-trip every
/// encoding explicitly — and falls back to [`Encoding::Plain`] when the
/// pinned encoding cannot represent the data (e.g. bitpacking text);
/// `None` picks the smallest by [`choose_encoding`].
pub fn encode_block(out: &mut Vec<u8>, values: &[Value], forced: Option<Encoding>) {
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    let mut enc = forced.unwrap_or_else(|| choose_encoding(values));
    if enc == Encoding::BitPack
        && (non_null.is_empty() || {
            let tag0 = int_family_u64(non_null[0]).map(|(t, _)| t);
            tag0.is_none()
                || !non_null
                    .iter()
                    .all(|v| int_family_u64(v).map(|(t, _)| t) == tag0)
        })
    {
        enc = Encoding::Plain;
    }

    let mut body = Vec::with_capacity(64 + values.len());
    body.push(enc.code());
    body.extend_from_slice(&(values.len() as u32).to_le_bytes());

    // zone map over the non-null values
    let min = non_null.iter().min_by(|a, b| a.cmp_total(b));
    let max = non_null.iter().max_by(|a, b| a.cmp_total(b));
    match (min, max) {
        (Some(lo), Some(hi)) => {
            body.push(1);
            write_value(&mut body, lo);
            write_value(&mut body, hi);
        }
        _ => body.push(0),
    }

    // null bitmap: bit i set = values[i] is null
    let mut bitmap = vec![0u8; values.len().div_ceil(8)];
    for (i, v) in values.iter().enumerate() {
        if v.is_null() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    body.extend_from_slice(&bitmap);

    match enc {
        Encoding::Plain => {
            for v in &non_null {
                write_value(&mut body, v);
            }
        }
        Encoding::Rle => {
            let run_count_at = body.len();
            body.extend_from_slice(&0u32.to_le_bytes());
            let mut runs = 0u32;
            let mut i = 0;
            while i < non_null.len() {
                let mut j = i + 1;
                while j < non_null.len() && non_null[j] == non_null[i] {
                    j += 1;
                }
                body.extend_from_slice(&((j - i) as u32).to_le_bytes());
                write_value(&mut body, non_null[i]);
                runs += 1;
                i = j;
            }
            body[run_count_at..run_count_at + 4].copy_from_slice(&runs.to_le_bytes());
        }
        Encoding::Dict => {
            let mut dict: Vec<&Value> = Vec::new();
            let mut slots = std::collections::HashMap::new();
            let mut indexes = Vec::with_capacity(non_null.len());
            for v in &non_null {
                let next = dict.len();
                let idx = *slots.entry(value_key(v)).or_insert_with(|| {
                    dict.push(v);
                    next
                });
                indexes.push(idx as u64);
            }
            body.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            for v in &dict {
                write_value(&mut body, v);
            }
            let width = bits_needed(dict.len().saturating_sub(1) as u64).max(1);
            body.push(width);
            pack_bits(&indexes, width, &mut body);
        }
        Encoding::BitPack => {
            let (tag, _) = int_family_u64(non_null[0]).expect("checked above");
            let ints: Vec<i64> = non_null
                .iter()
                .map(|v| int_family_u64(v).expect("checked above").1)
                .collect();
            let min = *ints.iter().min().expect("non-empty");
            let deltas: Vec<u64> = ints
                .iter()
                .map(|&i| (i as i128 - min as i128) as u64)
                .collect();
            let width = bits_needed(deltas.iter().copied().max().unwrap_or(0));
            body.push(tag);
            body.extend_from_slice(&min.to_le_bytes());
            body.push(width);
            pack_bits(&deltas, width, &mut body);
        }
    }

    frame(out, &body);
}

/// Decode one framed block at `*pos`, advancing past it. The frame CRC is
/// verified before any byte of the body is interpreted, so a flipped bit
/// anywhere in the block surfaces as [`DbError::Corrupt`].
pub fn decode_block(bytes: &[u8], pos: &mut usize) -> DbResult<DecodedBlock> {
    let body = read_frame(bytes, pos, "column block")?;
    // a block's nulls live in its bitmap, never in its values
    let read_value = |b: &[u8], p: &mut usize| match read_value(b, p)? {
        Value::Null => Err(DbError::Corrupt(format!("value tag {TAG_NULL} in a block"))),
        v => Ok(v),
    };
    let mut p = 0usize;
    let encoding = Encoding::from_code(read_u8(body, &mut p, "encoding")?)?;
    let rows = read_u32(body, &mut p, "block rows")? as usize;
    if rows > BLOCK_ROWS.max(1 << 24) {
        return Err(DbError::Corrupt(format!(
            "implausible block row count {rows}"
        )));
    }
    let (min, max) = if read_u8(body, &mut p, "zone flag")? != 0 {
        (
            Some(read_value(body, &mut p)?),
            Some(read_value(body, &mut p)?),
        )
    } else {
        (None, None)
    };
    let bitmap = take(body, &mut p, rows.div_ceil(8), "null bitmap")?.to_vec();
    let is_null = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    let n_non_null = (0..rows).filter(|&i| !is_null(i)).count();

    let mut non_null = Vec::with_capacity(n_non_null);
    match encoding {
        Encoding::Plain => {
            for _ in 0..n_non_null {
                non_null.push(read_value(body, &mut p)?);
            }
        }
        Encoding::Rle => {
            let runs = read_u32(body, &mut p, "run count")?;
            for _ in 0..runs {
                let count = read_u32(body, &mut p, "run length")? as usize;
                let v = read_value(body, &mut p)?;
                if non_null.len() + count > n_non_null {
                    return Err(DbError::Corrupt("rle runs exceed block rows".into()));
                }
                non_null.extend(std::iter::repeat_n(v, count));
            }
        }
        Encoding::Dict => {
            let dict_len = read_u32(body, &mut p, "dictionary size")? as usize;
            if dict_len > n_non_null {
                return Err(DbError::Corrupt("dictionary larger than block".into()));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(read_value(body, &mut p)?);
            }
            let width = read_u8(body, &mut p, "index width")?;
            let indexes = unpack_bits(body, &mut p, width, n_non_null, "dictionary indexes")?;
            for idx in indexes {
                let v = dict.get(idx as usize).ok_or_else(|| {
                    DbError::Corrupt(format!("dictionary index {idx} out of range"))
                })?;
                non_null.push(v.clone());
            }
        }
        Encoding::BitPack => {
            let tag = read_u8(body, &mut p, "bitpack tag")?;
            let min_v =
                i64::from_le_bytes(take(body, &mut p, 8, "bitpack min")?.try_into().unwrap());
            let width = read_u8(body, &mut p, "bitpack width")?;
            if width > 64 {
                return Err(DbError::Corrupt(format!("bitpack width {width} > 64")));
            }
            let deltas = unpack_bits(body, &mut p, width, n_non_null, "bitpack deltas")?;
            for d in deltas {
                let raw = (min_v as i128 + d as i128) as i64;
                non_null.push(match tag {
                    TAG_INT => Value::Int(raw),
                    TAG_DATE => Value::Date(raw as i32),
                    TAG_TIMESTAMP => Value::Timestamp(raw),
                    _ => return Err(DbError::Corrupt(format!("bitpack of value tag {tag}"))),
                });
            }
        }
    }

    if non_null.len() != n_non_null {
        return Err(DbError::Corrupt("block value count mismatch".into()));
    }
    let mut next = non_null.into_iter();
    let values = (0..rows)
        .map(|i| {
            if is_null(i) {
                Value::Null
            } else {
                next.next().expect("counted above")
            }
        })
        .collect();
    Ok(DecodedBlock {
        values,
        encoding,
        min,
        max,
    })
}

// ---- framing --------------------------------------------------------------

fn frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

fn read_frame<'a>(bytes: &'a [u8], pos: &mut usize, what: &str) -> DbResult<&'a [u8]> {
    let len = read_u32(bytes, pos, what)? as usize;
    let crc = read_u32(bytes, pos, what)?;
    let body = take(bytes, pos, len, what)?;
    if crc32(body) != crc {
        return Err(DbError::Corrupt(format!("segment {what} crc mismatch")));
    }
    Ok(body)
}

// ---- schema JSON ----------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> DbError {
    DbError::Corrupt(msg.into())
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Json::Object(m)
}

/// The `key` field of `v` through `as_kind` (e.g. `Json::as_str`), or
/// [`DbError::Corrupt`] naming the field.
fn field<'a, T>(v: &'a Json, key: &str, as_kind: fn(&'a Json) -> Option<T>) -> DbResult<T> {
    v.get(key)
        .and_then(as_kind)
        .ok_or_else(|| corrupt(format!("missing or mistyped field '{key}'")))
}

/// A column default as JSON: `Int` and `Bool` and `Text` natively, `Float`
/// as `{"f": n}` (`"nan"`/`"inf"`/`"-inf"` when not finite), `Date` and
/// `Timestamp` as `{"date": d}` / `{"us": t}`.
fn default_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Number(Number::from(*i)),
        Value::Float(f) => obj(vec![(
            "f",
            match Number::from_f64(*f) {
                Some(n) => Json::Number(n),
                None if f.is_nan() => Json::String("nan".into()),
                None if *f > 0.0 => Json::String("inf".into()),
                None => Json::String("-inf".into()),
            },
        )]),
        Value::Text(s) => Json::String(s.clone()),
        Value::Date(d) => obj(vec![("date", Json::Number(Number::from(*d as i64)))]),
        Value::Timestamp(us) => obj(vec![("us", Json::Number(Number::from(*us)))]),
    }
}

fn default_from_json(v: &Json) -> DbResult<Value> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::String(s) => Ok(Value::Text(s.clone())),
        Json::Number(_) => v
            .as_i64()
            .map(Value::Int)
            .or_else(|| v.as_f64().map(Value::Float))
            .ok_or_else(|| corrupt("unreadable number")),
        Json::Object(_) => {
            if let Some(f) = v.get("f") {
                return match f {
                    Json::String(s) => Ok(Value::Float(match s.as_str() {
                        "nan" => f64::NAN,
                        "inf" => f64::INFINITY,
                        "-inf" => f64::NEG_INFINITY,
                        other => return Err(corrupt(format!("bad float literal '{other}'"))),
                    })),
                    _ => f
                        .as_f64()
                        .map(Value::Float)
                        .ok_or_else(|| corrupt("bad float value")),
                };
            }
            if let Some(d) = v.get("date") {
                return d
                    .as_i64()
                    .map(|d| Value::Date(d as i32))
                    .ok_or_else(|| corrupt("bad date value"));
            }
            if let Some(us) = v.get("us") {
                return us
                    .as_i64()
                    .map(Value::Timestamp)
                    .ok_or_else(|| corrupt("bad timestamp value"));
            }
            Err(corrupt("unknown scalar object"))
        }
        Json::Array(_) => Err(corrupt("array is not a scalar")),
    }
}

/// A schema as JSON: columns (name, type, `not_null`, optional default)
/// plus primary-key column names. The segment meta frame embeds it, and
/// a `CreateTable` WAL record carries its text.
pub(crate) fn schema_to_json(schema: &Schema) -> Json {
    let columns: Vec<Json> = schema
        .columns()
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("name", Json::String(c.name.clone())),
                ("type", Json::String(c.data_type.name().to_string())),
                ("not_null", Json::Bool(c.not_null)),
            ];
            if let Some(d) = &c.default {
                fields.push(("default", default_to_json(d)));
            }
            obj(fields)
        })
        .collect();
    let pk: Vec<Json> = schema
        .primary_key()
        .iter()
        .map(|&i| Json::String(schema.columns()[i].name.clone()))
        .collect();
    obj(vec![
        ("columns", Json::Array(columns)),
        ("pk", Json::Array(pk)),
    ])
}

fn schema_from_json(v: &Json) -> DbResult<Schema> {
    let mut columns = Vec::new();
    for c in field(v, "columns", Json::as_array)? {
        let name = field(c, "name", Json::as_str)?;
        let ty = field(c, "type", Json::as_str)?;
        let data_type = DataType::parse(ty)
            .ok_or_else(|| corrupt(format!("unknown data type '{ty}' for column {name}")))?;
        let mut col = Column::new(name, data_type);
        if field(c, "not_null", Json::as_bool)? {
            col = col.not_null();
        }
        if let Some(d) = c.get("default") {
            if !d.is_null() {
                col = col.with_default(default_from_json(d)?);
            }
        }
        columns.push(col);
    }
    let schema = Schema::new(columns).map_err(|e| corrupt(e.to_string()))?;
    let pk: Vec<&str> = field(v, "pk", Json::as_array)?
        .iter()
        .map(|p| {
            p.as_str()
                .ok_or_else(|| corrupt("pk entry is not a string"))
        })
        .collect::<DbResult<_>>()?;
    if pk.is_empty() {
        return Ok(schema);
    }
    schema
        .with_primary_key(&pk)
        .map_err(|e| corrupt(e.to_string()))
}

/// Parse the text [`schema_to_json`] renders.
pub(crate) fn schema_from_text(text: &str) -> DbResult<Schema> {
    let json: Json =
        serde_json::from_str(text).map_err(|e| corrupt(format!("schema not JSON: {e}")))?;
    schema_from_json(&json)
}

// ---- whole-segment write / read -------------------------------------------

fn meta_json(table: &Table, slots: usize) -> Vec<u8> {
    let indexes = table.indexes().iter().map(|ix| {
        let columns = ix
            .columns
            .iter()
            .map(|&c| Json::Number(Number::from(c as i64)));
        obj(vec![
            ("name", Json::String(ix.name.clone())),
            ("columns", Json::Array(columns.collect())),
            ("unique", Json::Bool(ix.unique)),
        ])
    });
    obj(vec![
        ("name", Json::String(table.name.clone())),
        ("schema", schema_to_json(table.schema())),
        ("indexes", Json::Array(indexes.collect())),
        ("slots", Json::Number(Number::from(slots as i64))),
    ])
    .to_string()
    .into_bytes()
}

/// Serialize `table` (already read-locked by the caller) into the segment
/// file at `path`, stamped with `last_lsn`. The write is atomic and
/// durable: unique tmp file, fsync, rename, directory fsync. Returns the
/// encoded size in bytes.
pub(crate) fn write_segment(table: &Table, path: &Path, last_lsn: u64) -> DbResult<u64> {
    let slots = table.slot_count();
    let ncols = table.schema().columns().len();

    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(SEGMENT_MAGIC);
    buf.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    buf.extend_from_slice(&last_lsn.to_le_bytes());
    frame(&mut buf, &meta_json(table, slots));

    let mut live_bitmap = vec![0u8; slots.div_ceil(8)];
    for id in table.live_ids().map(|id| id as usize) {
        live_bitmap[id / 8] |= 1 << (id % 8);
    }
    frame(&mut buf, &live_bitmap);

    // each column's live values across the chunks, in blocks of BLOCK_ROWS
    // (a tombstone moves block boundaries off chunk boundaries)
    buf.extend_from_slice(&(ncols as u32).to_le_bytes());
    for col in 0..ncols {
        let morsels = table.scan_partitions(Some(&[col]));
        let values: Vec<Value> = morsels.iter().flat_map(|m| m.column(0).values()).collect();
        buf.extend_from_slice(&(values.len().div_ceil(BLOCK_ROWS) as u32).to_le_bytes());
        for block in values.chunks(BLOCK_ROWS) {
            encode_block(&mut buf, block, None);
        }
    }

    write_atomic(path, &buf, "segment")?;
    Ok(buf.len() as u64)
}

struct SegmentHeader {
    name: String,
    schema: crate::schema::Schema,
    indexes: Vec<(String, Vec<usize>, bool)>,
    live: Vec<bool>,
    ncols: usize,
    last_lsn: u64,
    /// Byte ranges `(start, end)` of each column's framed blocks:
    /// `blocks[col][block]`.
    blocks: Vec<Vec<(usize, usize)>>,
}

/// Parse the segment envelope: header, live bitmap, and the frame
/// boundaries of every block — without decoding any block body. Block CRCs
/// are verified later, when (and only if) a block is decoded.
fn parse_header(bytes: &[u8], origin: &Path) -> DbResult<SegmentHeader> {
    let corrupt = |m: &str| DbError::Corrupt(format!("{m} ({})", origin.display()));
    let mut pos = 0usize;
    if take(bytes, &mut pos, 4, "magic")? != SEGMENT_MAGIC {
        return Err(corrupt("not a segment file"));
    }
    let version = read_u32(bytes, &mut pos, "version")?;
    if version != SEGMENT_VERSION {
        return Err(corrupt(&format!(
            "segment version {version} not supported (expected {SEGMENT_VERSION})"
        )));
    }
    let last_lsn = read_u64(bytes, &mut pos, "last_lsn")?;
    let meta_bytes = read_frame(bytes, &mut pos, "meta")?;
    let meta_text =
        std::str::from_utf8(meta_bytes).map_err(|_| corrupt("segment meta not UTF-8"))?;
    let meta: Json = serde_json::from_str(meta_text)
        .map_err(|e| corrupt(&format!("segment meta not JSON: {e}")))?;
    let name = field(&meta, "name", Json::as_str)?.to_string();
    let schema = schema_from_json(
        meta.get("schema")
            .ok_or_else(|| corrupt("meta missing schema"))?,
    )?;
    let mut indexes = Vec::new();
    for ix in field(&meta, "indexes", Json::as_array)? {
        let cols = field(ix, "columns", Json::as_array)?
            .iter()
            .map(|c| c.as_u64().map(|i| i as usize))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| corrupt("index column not a number"))?;
        let iname = field(ix, "name", Json::as_str)?.to_string();
        indexes.push((iname, cols, field(ix, "unique", Json::as_bool)?));
    }
    let slots = field(&meta, "slots", Json::as_u64)? as usize;

    let bitmap = read_frame(bytes, &mut pos, "live bitmap")?;
    if bitmap.len() != slots.div_ceil(8) {
        return Err(corrupt("live bitmap length mismatch"));
    }
    let live: Vec<bool> = (0..slots)
        .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect();

    let ncols = read_u32(bytes, &mut pos, "column count")? as usize;
    if ncols != schema.columns().len() {
        return Err(corrupt("segment column count does not match schema"));
    }
    let mut blocks = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let nblocks = read_u32(bytes, &mut pos, "block count")? as usize;
        // every block frame is at least its 8-byte header: a count past
        // that is damage, not a reason to reserve gigabytes
        if nblocks > (bytes.len() - pos) / 8 {
            return Err(corrupt("block count exceeds segment size"));
        }
        let mut col_blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let start = pos;
            let len = read_u32(bytes, &mut pos, "block frame")? as usize;
            pos += 4; // crc
            take(bytes, &mut pos, len, "block frame")?;
            col_blocks.push((start, pos));
        }
        blocks.push(col_blocks);
    }
    Ok(SegmentHeader {
        name,
        schema,
        indexes,
        live,
        ncols,
        last_lsn,
        blocks,
    })
}

/// Read a segment back into a [`Table`], returning it with the segment's
/// `last_lsn` stamp. Slot-preserving: decoded values go into the table's
/// chunks through the live bitmap, a NULL filling each tombstoned slot, so
/// every surviving row keeps its `RowId`; index entries are rebuilt from
/// the key columns (re-verifying uniqueness). Every block's CRC is verified
/// on the way through.
pub(crate) fn read_segment(path: &Path) -> DbResult<(Table, u64)> {
    let bytes = std::fs::read(path)?;
    let header = parse_header(&bytes, path)?;
    let n_live = header.live.iter().filter(|l| **l).count();

    // decode every column fully (recovery needs all rows)
    let mut columns = Vec::with_capacity(header.ncols);
    for col_blocks in &header.blocks {
        let mut values = Vec::with_capacity(n_live);
        for &(start, _end) in col_blocks {
            let mut pos = start;
            values.extend(decode_block(&bytes, &mut pos)?.values);
        }
        if values.len() != n_live {
            return Err(DbError::Corrupt(format!(
                "segment column has {} values for {} live rows ({})",
                values.len(),
                n_live,
                path.display()
            )));
        }
        columns.push(values.into_iter());
    }

    let mut chunks = Vec::with_capacity(header.live.len().div_ceil(BLOCK_ROWS));
    for live in header.live.chunks(BLOCK_ROWS) {
        let placed = header.schema.columns().iter().zip(&mut columns);
        let placed = placed.map(|(c, values)| {
            let mut col = ColumnVec::with_capacity(c.data_type, live.len());
            for &alive in live {
                col.push(&match alive {
                    true => values.next().expect("counted above"),
                    false => Value::Null,
                });
            }
            col
        });
        chunks.push(Chunk::new(placed.collect(), live.to_vec()));
    }

    let table = Table::from_parts(header.name, header.schema, chunks, header.indexes)?;
    Ok((table, header.last_lsn))
}

/// Result of a cold columnar scan over one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// The table the segment captures.
    pub table: String,
    /// Live rows of the decoded chunks, as typed columns — no row pivot.
    /// With pruning active this is a *superset* of the matching rows (zone
    /// maps are block-granular); the caller re-applies its predicate.
    pub batch: Batch,
    /// Row chunks in the segment (each [`BLOCK_ROWS`] rows).
    pub chunks_total: usize,
    /// Chunks actually decoded (the rest were pruned by zone maps).
    pub chunks_decoded: usize,
}

/// Scan a segment straight into a [`Batch`] without materializing rows.
///
/// `prune` is an optional `(column, lo, hi)` range predicate: any chunk
/// whose zone map on `column` proves every value falls outside `[lo, hi]`
/// is skipped — for *all* columns, since block *i* of each column covers
/// the same rows. Bounds are inclusive; `None` leaves that side open.
/// Chunks whose predicate column is all-null are kept (NULL handling is the
/// caller's filter semantics, not the scan's).
pub fn scan_segment(
    path: impl AsRef<Path>,
    prune: Option<(usize, Option<&Value>, Option<&Value>)>,
) -> DbResult<SegmentScan> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let header = parse_header(&bytes, path)?;
    let chunks_total = header.blocks.first().map_or(0, Vec::len);
    if let Some((col, _, _)) = prune {
        if col >= header.ncols {
            return Err(DbError::Invalid(format!(
                "prune column {col} out of range ({} columns)",
                header.ncols
            )));
        }
    }

    // decide which chunks survive, reading only the predicate column's
    // zone maps (decode verifies the CRC of each block it touches)
    let mut keep = vec![true; chunks_total];
    if let Some((col, lo, hi)) = prune {
        for (chunk, keep_slot) in keep.iter_mut().enumerate() {
            let (start, _) = header.blocks[col][chunk];
            let mut pos = start;
            let block = decode_block(&bytes, &mut pos)?;
            if let (Some(bmin), Some(bmax)) = (&block.min, &block.max) {
                let below = hi.is_some_and(|h| bmin.cmp_total(h) == std::cmp::Ordering::Greater);
                let above = lo.is_some_and(|l| bmax.cmp_total(l) == std::cmp::Ordering::Less);
                if below || above {
                    *keep_slot = false;
                }
            }
        }
    }
    let chunks_decoded = keep.iter().filter(|k| **k).count();

    let mut cols = Vec::with_capacity(header.ncols);
    for col_blocks in &header.blocks {
        let mut values = Vec::new();
        for (chunk, &(start, _)) in col_blocks.iter().enumerate() {
            if !keep[chunk] {
                continue;
            }
            let mut pos = start;
            values.extend(decode_block(&bytes, &mut pos)?.values);
        }
        cols.push(ColumnVec::from_values(values));
    }
    let batch = if cols.is_empty() {
        Batch::from_rows(0, Vec::new())?
    } else {
        Batch::from_columns(cols)?
    };
    Ok(SegmentScan {
        table: header.name,
        batch,
        chunks_total,
        chunks_decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odbis-segment-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        p
    }

    fn wide_table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Float),
            Column::new("flag", DataType::Bool),
            Column::new("day", DataType::Date),
            Column::new("at", DataType::Timestamp),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut t = Table::new("wide", schema);
        for i in 0..rows {
            let name = if i % 7 == 0 {
                Value::Null
            } else {
                Value::from(format!("cat-{}", i % 3))
            };
            t.insert(vec![
                (i as i64).into(),
                name,
                (i as f64 * 0.5).into(),
                Value::Bool(i % 2 == 0),
                Value::Date(18000 + (i % 10) as i32),
                Value::Timestamp(1_600_000_000_000_000 + i as i64),
            ])
            .unwrap();
        }
        t.create_index("ix_name", &["name"], false).unwrap();
        t
    }

    #[test]
    fn segment_round_trip_preserves_rows_indexes_and_slots() {
        let mut t = wide_table(100);
        t.delete(3).unwrap();
        t.delete(50).unwrap();
        let path = tmp("roundtrip");
        let bytes = write_segment(&t, &path, 42).unwrap();
        assert!(bytes > 0);
        let (back, lsn) = read_segment(&path).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(back.name, "wide");
        assert_eq!(back.row_count(), 98);
        assert_eq!(
            back.scan().collect::<Vec<_>>(),
            t.scan().collect::<Vec<_>>()
        );
        assert!(back.row(3).is_err(), "tombstone slot must stay dead");
        assert_eq!(back.row(4).unwrap(), t.row(4).unwrap());
        assert!(back.index("ix_name").is_some());
        assert!(back.index("pk_wide").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let t = Table::new("empty", schema);
        let path = tmp("empty");
        write_segment(&t, &path, 7).unwrap();
        let (back, lsn) = read_segment(&path).unwrap();
        assert_eq!(lsn, 7);
        assert_eq!(back.row_count(), 0);
        let scan = scan_segment(&path, None).unwrap();
        assert_eq!(scan.batch.num_rows(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn encoding_selection_matches_data_shape() {
        // low-cardinality text → dict
        let cats: Vec<Value> = (0..1000)
            .map(|i| Value::from(format!("c{}", i % 4)))
            .collect();
        assert_eq!(choose_encoding(&cats), Encoding::Dict);
        // long runs → rle
        let runs: Vec<Value> = (0..1000).map(|i| Value::Int(i / 250)).collect();
        assert_eq!(choose_encoding(&runs), Encoding::Rle);
        // dense distinct small-range ints → bitpack
        let ints: Vec<Value> = (0..1000)
            .map(|i| Value::Int(1_000_000 + (i * 7) % 997))
            .collect();
        assert_eq!(choose_encoding(&ints), Encoding::BitPack);
        // incompressible text → plain
        let texts: Vec<Value> = (0..100)
            .map(|i| Value::from(format!("unique-{i}-{}", i * 31)))
            .collect();
        assert_eq!(choose_encoding(&texts), Encoding::Plain);
    }

    #[test]
    fn every_encoding_round_trips_with_nulls() {
        let values: Vec<Value> = (0..500)
            .map(|i| {
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(100 + (i % 5))
                }
            })
            .collect();
        for enc in [
            Encoding::Plain,
            Encoding::Rle,
            Encoding::Dict,
            Encoding::BitPack,
        ] {
            let mut buf = Vec::new();
            encode_block(&mut buf, &values, Some(enc));
            let mut pos = 0;
            let block = decode_block(&buf, &mut pos).unwrap();
            assert_eq!(block.encoding, enc);
            assert_eq!(block.values, values, "{} round trip", enc.as_str());
            assert_eq!(pos, buf.len());
            assert_eq!(block.min, Some(Value::Int(100)));
            assert_eq!(block.max, Some(Value::Int(104)));
        }
    }

    #[test]
    fn bitpack_falls_back_to_plain_on_text() {
        let values = vec![Value::from("a"), Value::from("b")];
        let mut buf = Vec::new();
        encode_block(&mut buf, &values, Some(Encoding::BitPack));
        let mut pos = 0;
        let block = decode_block(&buf, &mut pos).unwrap();
        assert_eq!(block.encoding, Encoding::Plain);
        assert_eq!(block.values, values);
    }

    #[test]
    fn bitpack_survives_extreme_spreads() {
        let values = vec![Value::Int(i64::MIN), Value::Int(i64::MAX), Value::Int(0)];
        let mut buf = Vec::new();
        encode_block(&mut buf, &values, Some(Encoding::BitPack));
        let mut pos = 0;
        let block = decode_block(&buf, &mut pos).unwrap();
        assert_eq!(block.values, values);
    }

    #[test]
    fn flipped_byte_in_block_is_caught_by_crc() {
        let t = wide_table(64);
        let path = tmp("teeth");
        write_segment(&t, &path, 1).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // flip one byte in every position of the last third of the file
        // (the column blocks) and require every single one to be caught
        let mut caught = 0;
        for at in (clean.len() * 2 / 3..clean.len()).step_by(97) {
            let mut dirty = clean.clone();
            dirty[at] ^= 0x40;
            std::fs::write(&path, &dirty).unwrap();
            match read_segment(&path) {
                Err(DbError::Corrupt(_)) => caught += 1,
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("flipped byte at {at} not detected"),
            }
        }
        assert!(caught > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_scan_decodes_into_batch_columns() {
        let t = wide_table(200);
        let path = tmp("scan");
        write_segment(&t, &path, 9).unwrap();
        let scan = scan_segment(&path, None).unwrap();
        assert_eq!(scan.table, "wide");
        assert_eq!(scan.batch.num_rows(), 200);
        assert_eq!(scan.batch.columns().len(), 6);
        // typed decode: the int column comes back as a typed vector
        assert!(matches!(
            scan.batch.columns()[0].data(),
            crate::batch::ColumnData::Int(_)
        ));
        let live = t.scan_batch();
        for c in 0..6 {
            for r in 0..200 {
                assert_eq!(scan.batch.value(c, r), live.value(c, r));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zone_maps_prune_chunks_on_sorted_column() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let mut t = Table::new("sorted", schema);
        for i in 0..(BLOCK_ROWS as i64 * 4) {
            t.insert(vec![i.into()]).unwrap();
        }
        let path = tmp("prune");
        write_segment(&t, &path, 1).unwrap();
        let lo = Value::Int(BLOCK_ROWS as i64 + 10);
        let hi = Value::Int(BLOCK_ROWS as i64 + 20);
        let scan = scan_segment(&path, Some((0, Some(&lo), Some(&hi)))).unwrap();
        assert_eq!(scan.chunks_total, 4);
        assert_eq!(scan.chunks_decoded, 1, "three chunks must be pruned");
        assert_eq!(scan.batch.num_rows(), BLOCK_ROWS);
        // the surviving chunk contains the requested range
        let col = &scan.batch.columns()[0];
        let vals: Vec<Value> = col.values();
        assert!(vals.contains(&lo) && vals.contains(&hi));
        // unpruned scan decodes everything
        let all = scan_segment(&path, None).unwrap();
        assert_eq!(all.chunks_decoded, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn null_tag_inside_a_block_is_corrupt() {
        // a plain block holding Int(7): re-frame it with the value's tag
        // byte set to TAG_NULL and a CRC that matches
        let mut buf = Vec::new();
        encode_block(&mut buf, &[Value::Int(7)], Some(Encoding::Plain));
        let mut body = buf[8..].to_vec();
        let tag_at = body.len() - 9;
        assert_eq!(body[tag_at], TAG_INT);
        body[tag_at] = TAG_NULL;
        body.truncate(tag_at + 1);
        let mut forged = Vec::new();
        frame(&mut forged, &body);
        let err = decode_block(&forged, &mut 0).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn schema_json_round_trips_defaults_and_keys() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text).not_null(),
            Column::new("score", DataType::Float).with_default(Value::Float(f64::NEG_INFINITY)),
            Column::new("born", DataType::Date).with_default(Value::Date(-3)),
        ])
        .unwrap()
        .with_primary_key(&["id", "name"])
        .unwrap();
        let text = schema_to_json(&schema).to_string();
        assert_eq!(schema_from_text(&text).unwrap(), schema);
        assert!(matches!(
            schema_from_text(r#"{"columns":[]}"#),
            Err(DbError::Corrupt(_))
        ));
    }

    /// The segment bytes of a fixed table with tombstones on both sides of
    /// a chunk boundary, and an update that nulls a value, as encoded by
    /// the row-slot table that preceded column chunks: the format did not
    /// move.
    #[test]
    fn golden_segment_bytes_survive_the_chunk_layout() {
        let mut t = wide_table(BLOCK_ROWS + 300);
        for id in [0u64, 7, 4000, 4094, 4095, 4096, 4097, 4300, 4395] {
            t.delete(id).unwrap();
        }
        let updated = vec![
            4098i64.into(),
            Value::Null,
            1.25.into(),
            Value::Bool(true),
            Value::Date(-5),
            Value::Timestamp(-1),
        ];
        t.update(4098, updated).unwrap();
        let path = tmp("golden");
        write_segment(&t, &path, 77).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (81_496, 0xb1ef_3a74));
        let (back, _) = read_segment(&path).unwrap();
        assert_eq!(
            back.scan().collect::<Vec<_>>(),
            t.scan().collect::<Vec<_>>()
        );
        assert_eq!(back.slot_count(), t.slot_count());
        let _ = std::fs::remove_file(&path);
    }
}
