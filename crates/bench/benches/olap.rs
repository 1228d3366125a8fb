//! A2 — cube pre-aggregation ablation, plus OLAP aggregation scaling over
//! the healthcare star schema.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis_bench::workloads::healthcare_db;
use odbis_olap::{
    Aggregator, CubeDef, CubeEngine, CubeQuery, DimensionDef, LevelDef, LevelRef,
    MaterializedAggregate, MeasureDef,
};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
}

fn admissions_cube() -> CubeDef {
    CubeDef {
        name: "admissions".into(),
        fact_table: "fact_admission".into(),
        dimensions: vec![
            DimensionDef {
                name: "department".into(),
                table: Some("dim_department".into()),
                fact_fk: "dept_id".into(),
                dim_key: "dept_id".into(),
                levels: vec![LevelDef {
                    name: "name".into(),
                    column: "name".into(),
                }],
            },
            DimensionDef {
                name: "time".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![
                    LevelDef {
                        name: "year".into(),
                        column: "year".into(),
                    },
                    LevelDef {
                        name: "month".into(),
                        column: "month".into(),
                    },
                ],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "cost".into(),
                column: "cost".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "admissions".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
        ],
    }
}

/// A2: query latency from the base fact table vs from a materialized
/// aggregate that covers it.
fn a2_preagg_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_preagg_ablation");
    for &n in &[10_000usize, 50_000] {
        let db = Arc::new(healthcare_db(n, 42));
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = admissions_cube();
        let agg = MaterializedAggregate::build(
            &db,
            &cube,
            vec![
                LevelRef::new("time", "year"),
                LevelRef::new("department", "name"),
            ],
            vec!["cost".into(), "admissions".into()],
        )
        .unwrap();
        let query = CubeQuery {
            axes: vec![LevelRef::new("time", "year")],
            slices: vec![],
            measures: vec!["cost".into()],
        };
        // sanity: both paths agree (within float summation-order noise)
        let live = engine.query(&cube, &query).unwrap();
        let mat = agg.execute(&query).unwrap();
        assert_eq!(live.cells.len(), mat.cells.len());
        for ((lc, lm), (mc, mm)) in live.cells.iter().zip(&mat.cells) {
            assert_eq!(lc, mc);
            for (a, b) in lm.iter().zip(mm) {
                let (a, b) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
                assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
        group.bench_with_input(BenchmarkId::new("base_table", n), &n, |b, _| {
            b.iter(|| engine.query(&cube, &query).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("materialized", n), &n, |b, _| {
            b.iter(|| agg.execute(&query).unwrap())
        });
    }
    group.finish();
}

/// Cube aggregation latency as the fact table grows (snowflaked join +
/// group-by path).
fn olap_aggregation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("olap_aggregation_scaling");
    for &n in &[5_000usize, 20_000, 80_000] {
        let db = Arc::new(healthcare_db(n, 7));
        let engine = CubeEngine::new(db);
        let cube = admissions_cube();
        let query = CubeQuery {
            axes: vec![
                LevelRef::new("department", "name"),
                LevelRef::new("time", "year"),
            ],
            slices: vec![],
            measures: vec!["cost".into(), "admissions".into()],
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| engine.query(&cube, &query).unwrap())
        });
    }
    group.finish();
}

/// MDX-lite parse + execute path (the Analysis Service's query surface).
fn mdx_query_path(c: &mut Criterion) {
    let db = Arc::new(healthcare_db(20_000, 42));
    let engine = CubeEngine::new(db);
    let cube = admissions_cube();
    c.bench_function("mdx_parse_and_execute", |b| {
        b.iter(|| {
            let stmt = odbis_olap::parse_mdx(
                "SELECT cost BY department.name FROM admissions WHERE time.year = 2010",
            )
            .unwrap();
            engine.query(&cube, &stmt.query).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = a2_preagg_ablation, olap_aggregation_scaling, mdx_query_path
}
criterion_main!(benches);
