//! Streaming-BI benchmarks for experiment A9: the cost of keeping a
//! materialized aggregate fresh by folding insert deltas versus
//! recomputing it from the fact table, and the end-to-end freshness
//! latency of the push path (warehouse write → delta → aggregate
//! maintenance → long-poll watcher woken over HTTP). The
//! `streaming_probe` example drives these and its output is recorded in
//! `BENCH_streaming.json`.

use std::sync::Arc;
use std::time::Instant;

use odbis::{build_router, OdbisPlatform};
use odbis_olap::{
    AggregateCache, Aggregator, CubeDef, CubeEngine, DimensionDef, LevelDef, LevelRef,
    MaterializedAggregate, MeasureDef, TableDelta,
};
use odbis_storage::Value;
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_request, HttpServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::workloads;

/// The admissions cube over [`workloads::healthcare_db`]: a snowflaked
/// department dimension, a degenerate year level, and the three
/// delta-maintainable aggregator families (SUM, COUNT, AVG).
fn admissions_cube() -> CubeDef {
    CubeDef {
        name: "admissions".into(),
        fact_table: "fact_admission".into(),
        dimensions: vec![
            DimensionDef {
                name: "dept".into(),
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
                levels: vec![LevelDef {
                    name: "year".into(),
                    column: "year".into(),
                }],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "total_cost".into(),
                column: "cost".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "admissions".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
            MeasureDef {
                name: "avg_cost".into(),
                column: "cost".into(),
                aggregator: Aggregator::Avg,
            },
        ],
    }
}

/// Result of [`delta_vs_recompute`].
#[derive(Debug, Clone)]
pub struct DeltaVsRecompute {
    /// Fact rows in the warehouse when the comparison runs.
    pub rows: usize,
    /// Single-row writes folded through the delta path.
    pub writes: usize,
    /// Median microseconds to fold one single-row insert delta.
    pub delta_p50_us: u64,
    /// p99 microseconds for the fold.
    pub delta_p99_us: u64,
    /// Microseconds for one full rebuild of the same aggregate
    /// (min of three — the invalidate-and-recompute cost per write).
    pub rebuild_us: u64,
    /// `rebuild_us / delta_p50_us`: how many times cheaper one write's
    /// maintenance became.
    pub speedup: f64,
}

/// Fold `writes` single-row inserts into a materialized aggregate over a
/// `rows`-row warehouse and compare against the from-scratch rebuild the
/// pre-streaming design paid per write.
pub fn delta_vs_recompute(rows: usize, writes: usize, seed: u64) -> DeltaVsRecompute {
    let db = Arc::new(workloads::healthcare_db(rows, seed));
    let engine = CubeEngine::new(Arc::clone(&db));
    let cube = admissions_cube();
    let axes = vec![LevelRef::new("dept", "name"), LevelRef::new("time", "year")];
    let measures = vec![
        "total_cost".to_string(),
        "admissions".to_string(),
        "avg_cost".to_string(),
    ];

    let rebuild_us = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let agg = MaterializedAggregate::build(&engine, &cube, axes.clone(), measures.clone())
                .expect("rebuild");
            assert!(!agg.is_empty());
            t0.elapsed().as_micros() as u64
        })
        .min()
        .unwrap();

    let mut cache = AggregateCache::new();
    cache.add(MaterializedAggregate::build(&engine, &cube, axes, measures).expect("initial build"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA9);
    let mut lat: Vec<u64> = Vec::with_capacity(writes);
    for i in 0..writes {
        let row = vec![
            Value::Int((rows + i) as i64),
            Value::Int(rng.random_range(0..7i64)),
            Value::Int(rng.random_range(2008..=2010i64)),
            Value::Int(rng.random_range(1..=12i64)),
            Value::Float(rng.random_range(500..250_000i64) as f64 / 100.0),
            Value::Int(rng.random_range(1..=21i64)),
        ];
        db.insert("fact_admission", row.clone()).expect("insert");
        let delta = TableDelta::Insert {
            table: "fact_admission".into(),
            rows: vec![row],
        };
        let t0 = Instant::now();
        let report = cache.apply_deltas(&engine, vec![delta], |_| false);
        lat.push(t0.elapsed().as_micros() as u64);
        assert_eq!(report.folded, 1, "the write must fold, not rebuild");
    }
    lat.sort_unstable();
    let delta_p50_us = lat[lat.len() / 2].max(1);
    DeltaVsRecompute {
        rows,
        writes,
        delta_p50_us,
        delta_p99_us: lat[(lat.len() * 99 / 100).min(lat.len() - 1)],
        rebuild_us,
        speedup: rebuild_us as f64 / delta_p50_us as f64,
    }
}

/// Result of [`watch_freshness`].
#[derive(Debug, Clone)]
pub struct Freshness {
    /// Committed writes measured.
    pub writes: usize,
    /// Median microseconds from issuing the write to the parked HTTP
    /// long-poll watcher holding the 200 response.
    pub e2e_p50_us: u64,
    /// p99 microseconds for the same span.
    pub e2e_p99_us: u64,
}

/// End-to-end freshness: a long-poll watcher parks on the dataset's
/// table over HTTP, a SQL write commits, and the span until the watcher's
/// response is back on the client counts as the staleness window a
/// pull-based client would have polled across.
pub fn watch_freshness(writes: usize) -> Freshness {
    let platform = Arc::new(OdbisPlatform::new());
    platform
        .provision_tenant("bench", "Bench", SubscriptionPlan::standard(), "root", "pw")
        .expect("tenant");
    let token = platform.login("bench", "root", "pw").expect("login");
    platform
        .sql("bench", &token, "CREATE TABLE ticks (id INT, v INT)")
        .expect("ddl");
    platform
        .define_dataset(
            "bench",
            &token,
            odbis_metadata::DataSet {
                name: "tick_sum".into(),
                source: "warehouse".into(),
                sql: "SELECT SUM(v) AS s FROM ticks".into(),
                description: String::new(),
            },
        )
        .expect("dataset");
    let server = HttpServer::builder(build_router(Arc::clone(&platform)))
        .workers(2)
        .start()
        .expect("server");
    let addr = server.addr().to_string();
    let hub = Arc::clone(&platform.workspace("bench").expect("ws").watch);

    let mut lat: Vec<u64> = Vec::with_capacity(writes);
    for i in 0..writes {
        let cursor = hub.cursor();
        let watcher = {
            let addr = addr.clone();
            let bearer = format!("Bearer {token}");
            std::thread::spawn(move || {
                http_request(
                    &addr,
                    "GET",
                    &format!("/api/v1/datasets/tick_sum/watch?cursor={cursor}&timeout_ms=30000"),
                    &[("x-tenant", "bench"), ("Authorization", bearer.as_str())],
                    b"",
                )
                .expect("watch request")
            })
        };
        while hub.parked() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        platform
            .sql(
                "bench",
                &token,
                &format!("INSERT INTO ticks VALUES ({i}, {i})"),
            )
            .expect("insert");
        let (status, _, body) = watcher.join().expect("watcher");
        lat.push(t0.elapsed().as_micros() as u64);
        assert_eq!(status, 200, "watcher must see the change: {body}");
    }
    server.shutdown();
    lat.sort_unstable();
    Freshness {
        writes,
        e2e_p50_us: lat[lat.len() / 2],
        e2e_p99_us: lat[(lat.len() * 99 / 100).min(lat.len() - 1)],
    }
}
