//! Seeded property test for the sort kernel: the batch executor's ORDER BY
//! (a stable sort of row indices over the typed key columns) and its
//! ORDER BY … LIMIT/OFFSET (a selection of the least indices) must return
//! exactly what the row-at-a-time oracle returns — same rows, same order,
//! ties included — over random tables with NULLs in key and payload
//! columns, duplicate keys, TEXT keys, FLOAT keys holding NaN, ±0.0 and
//! ±inf, a `Mixed` column of INT and FLOAT values, DESC on any key,
//! `LIMIT 0` and an OFFSET at or past the row count. The keys are read both
//! from a scan and from a GROUP BY's finished groups.
//!
//! Rows are compared by their `Debug` text: `Value`'s own equality calls
//! `1 = 1.0` and NaN = NaN equal, which would hide a wrong tie order. A
//! failure prints the seed, table and query.

use odbis_sql::Engine;
use odbis_storage::{ColumnData, Database, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
const TABLES_PER_SEED: usize = 40;
const QUERIES_PER_TABLE: usize = 25;

/// A CASE whose arms are an INT and a FLOAT column: a `Mixed` key.
const MIXED: &str = "CASE WHEN id % 3 = 0 THEN ki ELSE kf END";

/// A table `t (id, ki, kt, kf, p)` of 0–80 rows; its row count.
fn table(rng: &mut StdRng) -> (Database, usize) {
    let db = Database::new();
    Engine::new()
        .execute(
            &db,
            "CREATE TABLE t (id INT, ki INT, kt TEXT, kf DOUBLE, p TEXT)",
        )
        .unwrap();
    let n = match rng.random_range(0..10) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2..80usize),
    };
    let floats = [
        f64::NAN,
        0.0,
        -0.0,
        1.5,
        -2.25,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        3.0,
    ];
    let texts = ["", "a", "b", "B", "ab", "a"];
    for id in 0..n {
        let cells = [
            (Value::Int(rng.random_range(-2..3i64)), 0.2),
            (Value::from(texts[rng.random_range(0..texts.len())]), 0.2),
            (
                Value::Float(floats[rng.random_range(0..floats.len())]),
                0.15,
            ),
            (Value::from(format!("p{}", id % 4)), 0.3),
        ];
        let mut row = vec![Value::Int(id as i64)];
        for (v, null_every) in cells {
            row.push(if rng.random_bool(null_every) {
                Value::Null
            } else {
                v
            });
        }
        db.insert("t", row).unwrap();
    }
    (db, n)
}

/// One ORDER BY query over `t`, with or without LIMIT/OFFSET, over the
/// scan or over a GROUP BY's groups.
fn query(rng: &mut StdRng, rows: usize) -> String {
    let grouped = rng.random_bool(0.3);
    let (select, keys): (String, &[&str]) = if grouped {
        (
            format!(
                "SELECT ki, kt, SUM({MIXED}) AS s, MIN(kf) AS lo, COUNT(p) AS n \
                 FROM t GROUP BY ki, kt"
            ),
            &["ki", "kt", "s", "lo", "n"],
        )
    } else {
        (
            format!("SELECT id, ki, kt, kf, p, {MIXED} AS m FROM t"),
            &["ki", "kt", "kf", "p", "m", "id"],
        )
    };
    let mut order = Vec::new();
    for _ in 0..rng.random_range(1..4usize) {
        let key = keys[rng.random_range(0..keys.len())];
        let dir = if rng.random_bool(0.5) { " DESC" } else { "" };
        order.push(format!("{key}{dir}"));
    }
    let limit = |rng: &mut StdRng| match rng.random_range(0..4) {
        0 => 0,
        1 => rows + rng.random_range(0..3usize),
        _ => rng.random_range(0..rows.max(1) + 1),
    };
    let offset = |rng: &mut StdRng| match rng.random_range(0..3) {
        0 => rows + rng.random_range(0..3usize),
        _ => rng.random_range(0..rows.max(1) + 1),
    };
    let tail = match rng.random_range(0..5) {
        0 => String::new(),
        1 => format!(" LIMIT {}", limit(rng)),
        2 => format!(" OFFSET {}", offset(rng)),
        _ => format!(" LIMIT {} OFFSET {}", limit(rng), offset(rng)),
    };
    format!("{select} ORDER BY {}{tail}", order.join(", "))
}

fn rendered(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn columnar_sort_and_top_k_equal_the_row_oracle() {
    let oracle = Engine::with_row_execution();
    let engine = Engine::new();
    let mut top_k = 0;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..TABLES_PER_SEED {
            let (db, rows) = table(&mut rng);
            for q in 0..QUERIES_PER_TABLE {
                let sql = query(&mut rng, rows);
                let at = format!("seed {seed}, table {t} ({rows} rows), query {q}: {sql}");
                let expected = oracle
                    .execute(&db, &sql)
                    .unwrap_or_else(|e| panic!("{at}: row oracle: {e}"));
                let got = engine
                    .execute(&db, &sql)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(got.columns, expected.columns, "{at}");
                assert_eq!(rendered(&got.rows), rendered(&expected.rows), "{at}");
                top_k += usize::from(sql.contains("LIMIT"));
            }
        }
    }
    assert!(top_k > 400, "only {top_k} top-k queries");
}

/// The cases the generator reaches only by chance, pinned: `LIMIT 0`, an
/// OFFSET at and past the row count, an empty table, and a key column
/// that really is `Mixed` when it reaches the sort.
#[test]
fn pinned_edges_equal_the_row_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    let (db, rows) = loop {
        let (db, rows) = table(&mut rng);
        if rows >= 20 {
            break (db, rows);
        }
    };
    let (_, batch) = Engine::new()
        .execute_select_batch(&db, &format!("SELECT {MIXED} AS m FROM t ORDER BY m"))
        .unwrap();
    assert!(
        matches!(batch.column(0).data(), ColumnData::Mixed(_)),
        "the CASE key is not Mixed"
    );
    let empty = Database::new();
    Engine::new()
        .execute(
            &empty,
            "CREATE TABLE t (id INT, ki INT, kt TEXT, kf DOUBLE, p TEXT)",
        )
        .unwrap();
    let oracle = Engine::with_row_execution();
    for (db, rows) in [(&db, rows), (&empty, 0)] {
        for tail in [
            "LIMIT 0".to_string(),
            "LIMIT 0 OFFSET 3".to_string(),
            format!("OFFSET {rows}"),
            format!("LIMIT 5 OFFSET {rows}"),
            format!("LIMIT 5 OFFSET {}", rows + 1),
            format!("LIMIT {} OFFSET {}", rows + 1, rows.saturating_sub(2)),
        ] {
            for order in ["kf DESC, kt", "m, ki DESC", "kt DESC, kf, p"] {
                let sql = format!(
                    "SELECT id, ki, kt, kf, p, {MIXED} AS m FROM t ORDER BY {order} {tail}"
                );
                let expected = oracle.execute(db, &sql).unwrap();
                let got = Engine::new().execute(db, &sql).unwrap();
                assert_eq!(rendered(&got.rows), rendered(&expected.rows), "{sql}");
            }
        }
    }
}
