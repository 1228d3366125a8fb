//! The result body writers (`batch_json`, `batch_csv`, `query_json`,
//! `cellset_json`) against oracles kept here: a `serde_json::json!` tree
//! over `render()`ed rows for JSON, and `push_csv_record` over
//! `render()`ed fields for CSV, a NULL an empty field. Random typed batches on two seeds cover
//! every column type with its edge values (`i64::MIN`, `-0.0`, NaN, ±inf,
//! `1e15`, text needing JSON escapes and CSV quotes, non-ASCII), null
//! bitmaps over placeholder data, `Mixed` columns, zero rows and one
//! column. Pinned bodies hold the formatting rule itself, which the
//! oracles share with the writers through `Value::render`.

use std::sync::Arc;

use odbis::{batch_csv, batch_json, cellset_json, query_json};
use odbis_olap::CellSet;
use odbis_sql::QueryResult;
use odbis_storage::{push_csv_record, Batch, ColumnData, ColumnVec, Value};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
const BATCHES_PER_SEED: usize = 300;

fn oracle_json(columns: &[String], rows: &[Vec<Value>], rows_affected: usize) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect();
    serde_json::json!({
        "columns": columns.to_vec(),
        "rows": rows,
        "rowsAffected": rows_affected,
    })
    .to_string()
}

fn oracle_csv(columns: &[String], rows: &[Vec<Value>]) -> String {
    let mut out = String::new();
    push_csv_record(&mut out, columns, "\r\n");
    for row in rows {
        let fields = row.iter().map(|v| match v {
            Value::Null => String::new(),
            v => v.render(),
        });
        push_csv_record(&mut out, fields, "\r\n");
    }
    out
}

fn oracle_cellset(cells: &CellSet) -> String {
    let render = |vs: &[Value]| vs.iter().map(Value::render).collect::<Vec<_>>();
    let rows: Vec<serde_json::Value> = cells
        .cells
        .iter()
        .map(|(coords, measures)| {
            serde_json::json!({ "coords": render(coords), "measures": render(measures) })
        })
        .collect();
    serde_json::json!({
        "axes": cells.axis_names,
        "measures": cells.measure_names,
        "cells": rows,
    })
    .to_string()
}

/// Pieces a random text is glued from: every JSON escape, every CSV
/// quoting trigger, and non-ASCII.
const PIECES: [&str; 16] = [
    "plain", "\"", "\\", ",", "\r\n", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{8}", "\u{c}",
    "\u{7f}", "é", "😀", "",
];

fn text(rng: &mut StdRng) -> String {
    (0..rng.random_range(0..4usize))
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

fn int(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..6u32) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => -1,
        4 => rng.random_range(-1_000..1_000i64),
        _ => rng.next_u64() as i64,
    }
}

fn float(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 12] = [
        2.0,
        1e15,
        -1e15,
        999_999_999_999_999.0,
        -0.0,
        0.1,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        5e-324,
        f64::MAX,
    ];
    match rng.random_range(0..4u32) {
        0 | 1 => EDGES[rng.random_range(0..EDGES.len())],
        2 => rng.random_range(-1_000_000i64..1_000_000) as f64,
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn date(rng: &mut StdRng) -> i32 {
    match rng.random_range(0..4u32) {
        0 => i32::MIN,
        1 => i32::MAX,
        _ => rng.random_range(-800_000..800_000i32),
    }
}

fn timestamp(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..4u32) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.random_range(-10_000_000_000_000_000i64..10_000_000_000_000_000),
    }
}

fn value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => Value::Int(int(rng)),
        3 => Value::Float(float(rng)),
        4 => Value::Text(text(rng)),
        5 => Value::Date(date(rng)),
        _ => Value::Timestamp(timestamp(rng)),
    }
}

/// One column of `rows` slots: a typed column (with a null bitmap over
/// placeholder data half the time) or a `Mixed` one.
fn column(rng: &mut StdRng, rows: usize) -> ColumnVec {
    let data = match rng.random_range(0..7u32) {
        0 => ColumnData::Bool((0..rows).map(|_| rng.random_bool(0.5)).collect()),
        1 => ColumnData::Int((0..rows).map(|_| int(rng)).collect()),
        2 => ColumnData::Float((0..rows).map(|_| float(rng)).collect()),
        3 => ColumnData::Text((0..rows).map(|_| text(rng)).collect()),
        4 => ColumnData::Date((0..rows).map(|_| date(rng)).collect()),
        5 => ColumnData::Timestamp((0..rows).map(|_| timestamp(rng)).collect()),
        _ => {
            return ColumnVec::new(
                ColumnData::Mixed((0..rows).map(|_| value(rng)).collect()),
                None,
            )
        }
    };
    let nulls = rng
        .random_bool(0.5)
        .then(|| (0..rows).map(|_| rng.random_bool(0.3)).collect());
    ColumnVec::new(data, nulls)
}

fn batch(rng: &mut StdRng, i: usize) -> (Vec<String>, Batch) {
    // every seed's first batches have zero rows and one column
    let rows = if i.is_multiple_of(10) {
        0
    } else {
        rng.random_range(0..12usize)
    };
    let width = if i % 10 == 1 {
        1
    } else {
        rng.random_range(1..6usize)
    };
    let columns = (0..width).map(|c| format!("c{c}{}", text(rng))).collect();
    let cols = (0..width).map(|_| Arc::new(column(rng, rows))).collect();
    (
        columns,
        Batch::new(cols, rows).expect("columns of one length"),
    )
}

#[test]
fn batch_bodies_match_the_oracles_on_both_seeds() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..BATCHES_PER_SEED {
            let (columns, batch) = batch(&mut rng, i);
            let rows = batch.to_rows();
            let at = format!("seed {seed} batch {i}: {rows:?}");
            assert_eq!(
                batch_json(&columns, &batch),
                oracle_json(&columns, &rows, 0),
                "{at}"
            );
            assert_eq!(
                batch_csv(&columns, &batch),
                oracle_csv(&columns, &rows),
                "{at}"
            );
            let affected = rng.random_range(0..1_000usize);
            let result = QueryResult {
                columns: columns.clone(),
                rows: rows.clone(),
                rows_affected: affected,
            };
            assert_eq!(
                query_json(&result),
                oracle_json(&columns, &rows, affected),
                "{at}"
            );
            let split = rng.random_range(0..=columns.len());
            let cells = CellSet {
                axis_names: columns[..split].to_vec(),
                measure_names: columns[split..].to_vec(),
                cells: rows
                    .iter()
                    .map(|r| (r[..split].to_vec(), r[split..].to_vec()))
                    .collect(),
            };
            assert_eq!(cellset_json(&cells), oracle_cellset(&cells), "{at}");
        }
    }
}

/// The formatting rule and the escapes, written out: the oracles reach
/// them through `render` and `push_csv_record`, so only a pinned body
/// shows a change to either.
#[test]
fn pinned_bodies_spell_the_formatting_rule() {
    let cols = vec![
        ColumnVec::new(
            ColumnData::Int(vec![i64::MIN, 0, 7]),
            Some(vec![false, false, true]),
        ),
        ColumnVec::new(ColumnData::Float(vec![2.0, -0.0, 0.1]), None),
        ColumnVec::new(
            ColumnData::Text(vec![
                "a,\"b\"".into(),
                "\u{1}\\\u{1f}é".into(),
                "x\r".into(),
            ]),
            None,
        ),
        ColumnVec::new(
            ColumnData::Mixed(vec![
                Value::Date(0),
                Value::Timestamp(86_400_000_001),
                Value::Text("y\n".into()),
            ]),
            None,
        ),
        ColumnVec::new(
            ColumnData::Float(vec![1e15, f64::NAN, f64::NEG_INFINITY]),
            None,
        ),
        ColumnVec::new(ColumnData::Bool(vec![true, false, true]), None),
    ];
    let batch = Batch::from_columns(cols).unwrap();
    let columns: Vec<String> = ["i", "f", "t,\"", "m", "g", "b"].map(String::from).into();
    assert_eq!(
        batch_json(&columns, &batch),
        concat!(
            r#"{"columns":["i","f","t,\"","m","g","b"],"rows":["#,
            r#"["-9223372036854775808","2.0","a,\"b\"","1970-01-01","1000000000000000","TRUE"],"#,
            r#"["0","-0.0","\u0001\\\u001fé","1970-01-02 00:00:00","NaN","FALSE"],"#,
            r#"["NULL","0.1","x\r","y\n","-inf","TRUE"]],"rowsAffected":0}"#,
        )
    );
    assert_eq!(
        batch_csv(&columns, &batch),
        concat!(
            "i,f,\"t,\"\"\",m,g,b\r\n",
            "-9223372036854775808,2.0,\"a,\"\"b\"\"\",1970-01-01,1000000000000000,TRUE\r\n",
            "0,-0.0,\u{1}\\\u{1f}é,1970-01-02 00:00:00,NaN,FALSE\r\n",
            ",0.1,\"x\r\",\"y\n\",-inf,TRUE\r\n",
        )
    );
}
