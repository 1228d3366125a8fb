//! Property-based tests for the Integration Service: CSV round-trips,
//! the SQL engine as the oracle of a transform chain, and conservation of
//! rows.

use std::sync::Arc;

use odbis_etl::{
    parse_csv, to_csv, AggFunc, EtlJob, Extractor, Frame, JobRunner, LoadMode, Loader, Transform,
};
use odbis_sql::Engine;
use odbis_storage::{Database, Value};
use proptest::prelude::*;

/// `rows` of `(g, x)` as a CREATE + INSERT script for a table `name`.
fn table_script(name: &str, rows: &[(Option<i64>, Option<i64>)]) -> String {
    let lit = |v: &Option<i64>| v.map_or("NULL".to_string(), |i| i.to_string());
    let values: Vec<String> = rows
        .iter()
        .map(|(g, x)| format!("({}, {})", lit(g), lit(x)))
        .collect();
    let mut script = format!("CREATE TABLE {name} (g INT, x INT);");
    if !values.is_empty() {
        script.push_str(&format!(
            " INSERT INTO {name} VALUES {};",
            values.join(", ")
        ));
    }
    script
}

fn arb_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        (-1_000i64..1_000).prop_map(|i| i.to_string()),
        "[a-zA-Z ,\"\r\n]{0,10}",
        Just(String::new()),
    ]
}

proptest! {
    /// CSV writer output always re-parses to the same frame (quoting is
    /// correct for commas, quotes and line breaks, in header names too).
    #[test]
    fn csv_round_trip(
        rows in prop::collection::vec(prop::collection::vec(arb_cell(), 3), 1..20)
    ) {
        let frame = Frame::from_rows(
            vec!["a,b".into(), "say \"b\"".into(), "c\rd".into()],
            rows.iter().map(|r| r.iter().map(|c| odbis_etl::infer_value(c)).collect()).collect(),
        ).unwrap();
        let csv = to_csv(&frame);
        let reparsed = parse_csv(&csv).unwrap();
        prop_assert_eq!(&frame.columns, &reparsed.columns);
        // rendering collapses types to text; compare rendered forms
        prop_assert_eq!(frame.len(), reparsed.len());
        for (a, b) in frame.rows.iter().zip(&reparsed.rows) {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.render(), y.render());
            }
        }
    }

    /// A filter and a derivation load what the equivalent SQL SELECT
    /// answers over the same rows, and extracted = loaded + filtered.
    #[test]
    fn filter_and_derive_match_sql(
        values in prop::collection::vec(-500i64..500, 1..80),
        threshold in -500i64..500,
    ) {
        let mut csv = String::from("id,v\n");
        for (i, v) in values.iter().enumerate() {
            csv.push_str(&format!("{i},{v}\n"));
        }
        let job = EtlJob {
            name: "p".into(),
            extractor: Extractor::Csv(csv),
            transforms: vec![
                Transform::Filter(format!("v > {threshold}")),
                Transform::Derive { column: "w".into(), expression: "v * 2 + 1".into() },
            ],
            loader: Loader { table: "out".into(), mode: LoadMode::Replace },
        };
        let db = Arc::new(Database::new());
        let report = JobRunner::new(Arc::clone(&db)).run(&job).unwrap();
        let rows: Vec<String> = values.iter().enumerate().map(|(i, v)| format!("({i}, {v})")).collect();
        let engine = Engine::new();
        engine
            .execute_script(&db, &format!("CREATE TABLE src (id INT, v INT); INSERT INTO src VALUES {};", rows.join(", ")))
            .unwrap();
        let sql = engine
            .execute(&db, &format!("SELECT id, v, v * 2 + 1 AS w FROM src WHERE v > {threshold} ORDER BY id"))
            .unwrap();
        prop_assert_eq!(db.scan("out").unwrap(), sql.rows.clone());
        prop_assert_eq!(report.loaded, sql.rows.len());
        prop_assert_eq!(report.extracted, values.len());
    }

    /// An ETL aggregate loads what `SELECT g, COUNT(x), SUM(x), AVG(x),
    /// MIN(x), MAX(x) ... GROUP BY g` answers, in first-seen group order:
    /// exact sums of ints near 2^53, NULL arguments and NULL groups. With
    /// no GROUP BY it loads the one row the SQL answers, over no rows too.
    #[test]
    fn aggregate_matches_sql_group_by(
        draws in prop::collection::vec((-1i64..4, -9i64..8), 0..40),
        grouped in any::<bool>(),
    ) {
        // group -1 and offset -9 stand for NULL
        let rows: Vec<(Option<i64>, Option<i64>)> = draws
            .iter()
            .map(|&(g, d)| ((g >= 0).then_some(g), (d > -9).then_some((1i64 << 53) + d)))
            .collect();
        let frame = Frame::from_rows(
            vec!["g".into(), "x".into()],
            rows.iter()
                .map(|(g, x)| vec![g.map_or(Value::Null, Value::Int), x.map_or(Value::Null, Value::Int)])
                .collect(),
        ).unwrap();
        let aggs = [
            (AggFunc::Count, "n"),
            (AggFunc::Sum, "total"),
            (AggFunc::Avg, "mean"),
            (AggFunc::Min, "lo"),
            (AggFunc::Max, "hi"),
        ];
        let db = Arc::new(Database::new());
        JobRunner::new(Arc::clone(&db)).run(&EtlJob {
            name: "agg".into(),
            extractor: Extractor::Inline(frame),
            transforms: vec![Transform::Aggregate {
                group_by: if grouped { vec!["g".into()] } else { vec![] },
                aggs: aggs.iter().map(|(f, name)| (*f, "x".into(), name.to_string())).collect(),
            }],
            loader: Loader { table: "mart".into(), mode: LoadMode::Replace },
        }).unwrap();
        let engine = Engine::new();
        engine.execute_script(&db, &table_script("src", &rows)).unwrap();
        let aggregates = "COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM src";
        let sql = if grouped {
            format!("SELECT g, {aggregates} GROUP BY g")
        } else {
            format!("SELECT {aggregates}")
        };
        let sql = engine.execute(&db, &sql).unwrap();
        prop_assert_eq!(db.scan("mart").unwrap(), sql.rows);
    }

    /// Aggregation conserves the sum: SUM over groups equals SUM over rows.
    #[test]
    fn aggregation_conserves_sum(rows in prop::collection::vec((0i64..5, -100i64..100), 1..60)) {
        let mut csv = String::from("g,x\n");
        for (g, x) in &rows {
            csv.push_str(&format!("{g},{x}\n"));
        }
        let db = Arc::new(Database::new());
        let runner = JobRunner::new(Arc::clone(&db));
        runner.run(&EtlJob {
            name: "agg".into(),
            extractor: Extractor::Csv(csv),
            transforms: vec![Transform::Aggregate {
                group_by: vec!["g".into()],
                aggs: vec![(AggFunc::Sum, "x".into(), "total".into())],
            }],
            loader: Loader { table: "sums".into(), mode: LoadMode::Replace },
        }).unwrap();
        let grand: f64 = db
            .scan("sums").unwrap()
            .iter()
            .map(|r| r[1].as_f64().unwrap_or(0.0))
            .sum();
        let expected: i64 = rows.iter().map(|(_, x)| x).sum();
        prop_assert!((grand - expected as f64).abs() < 1e-9);
    }
}
