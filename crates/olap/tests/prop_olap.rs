//! Property-based tests: cube aggregation agrees with SQL GROUP BY, and
//! materialized roll-ups agree with live queries, for random fact data.

use std::sync::Arc;

use odbis_olap::{
    Aggregator, CubeDef, CubeEngine, CubeQuery, DimensionDef, LevelDef, LevelRef,
    MaterializedAggregate, MeasureDef,
};
use odbis_sql::Engine;
use odbis_storage::{Database, Value};
use proptest::prelude::*;

fn cube() -> CubeDef {
    CubeDef {
        name: "c".into(),
        fact_table: "facts".into(),
        dimensions: vec![
            DimensionDef {
                name: "g".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![LevelDef {
                    name: "a".into(),
                    column: "a".into(),
                }],
            },
            DimensionDef {
                name: "h".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![LevelDef {
                    name: "b".into(),
                    column: "b".into(),
                }],
            },
        ],
        measures: vec![MeasureDef {
            name: "m".into(),
            column: "x".into(),
            aggregator: Aggregator::Sum,
        }],
    }
}

fn load(rows: &[(i64, i64, i64)]) -> Arc<Database> {
    let db = Arc::new(Database::new());
    Engine::new()
        .execute(&db, "CREATE TABLE facts (a INT, b INT, x INT)")
        .unwrap();
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(a, b, x)| vec![Value::Int(*a), Value::Int(*b), Value::Int(*x)])
        .collect();
    db.insert_many("facts", data).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cube aggregation over one axis equals SQL GROUP BY over the same
    /// column.
    #[test]
    fn cube_equals_sql_group_by(rows in prop::collection::vec((0i64..5, 0i64..5, -50i64..50), 1..60)) {
        let db = load(&rows);
        let engine = CubeEngine::new(Arc::clone(&db));
        let cells = engine.query(&cube(), &CubeQuery {
            axes: vec![LevelRef::new("g", "a")],
            slices: vec![],
            measures: vec!["m".into()],
        }).unwrap();
        let sql = Engine::new()
            .execute(&db, "SELECT a, SUM(x) FROM facts GROUP BY a ORDER BY a")
            .unwrap();
        prop_assert_eq!(cells.len(), sql.rows.len());
        for row in &sql.rows {
            let measures = cells.cell(&[row[0].clone()]).unwrap();
            prop_assert_eq!(&measures[0], &row[1]);
        }
    }

    /// Rolling up a two-axis materialized aggregate to one axis equals the
    /// live one-axis query.
    #[test]
    fn rollup_equals_live(rows in prop::collection::vec((0i64..4, 0i64..4, -30i64..30), 1..50)) {
        let db = load(&rows);
        let engine = CubeEngine::new(Arc::clone(&db));
        let c = cube();
        let agg = MaterializedAggregate::build(
            &db,
            &c,
            vec![LevelRef::new("g", "a"), LevelRef::new("h", "b")],
            vec!["m".into()],
        ).unwrap();
        let q = CubeQuery {
            axes: vec![LevelRef::new("h", "b")],
            slices: vec![],
            measures: vec!["m".into()],
        };
        prop_assert!(agg.answers(&q));
        let rolled = agg.execute(&q).unwrap();
        let live = engine.query(&c, &q).unwrap();
        prop_assert_eq!(rolled.cells, live.cells);
    }

    /// Grand total is invariant across any grouping of the cube.
    #[test]
    fn grand_total_invariant(rows in prop::collection::vec((0i64..6, 0i64..6, -40i64..40), 1..60)) {
        let db = load(&rows);
        let engine = CubeEngine::new(Arc::clone(&db));
        let c = cube();
        let expected: i64 = rows.iter().map(|(_, _, x)| x).sum();
        for axes in [
            vec![],
            vec![LevelRef::new("g", "a")],
            vec![LevelRef::new("g", "a"), LevelRef::new("h", "b")],
        ] {
            let cells = engine.query(&c, &CubeQuery {
                axes,
                slices: vec![],
                measures: vec!["m".into()],
            }).unwrap();
            let total: i64 = cells
                .cells
                .iter()
                .map(|(_, m)| m[0].as_i64().unwrap_or(0))
                .sum();
            prop_assert_eq!(total, expected);
        }
    }
}
