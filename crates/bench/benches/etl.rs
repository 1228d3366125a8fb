//! A4 — the ETL transform chain (the fused row pipeline that won the
//! ablation, now the only path) and integration-job throughput.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis_bench::workloads::etl_csv;
use odbis_etl::{AggFunc, EtlJob, Extractor, JobRunner, LoadMode, Loader, Transform};
use odbis_storage::Database;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(12)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
}

fn row_local_job(csv: String) -> EtlJob {
    EtlJob {
        name: "clean".into(),
        extractor: Extractor::Csv(csv),
        transforms: vec![
            Transform::Filter("amount > 0".into()),
            Transform::Derive {
                column: "amount_eur".into(),
                expression: "amount * 0.92".into(),
            },
            Transform::Derive {
                column: "band".into(),
                expression: "CASE WHEN amount > 250 THEN 'high' ELSE 'low' END".into(),
            },
            Transform::Select(vec![
                "id".into(),
                "region".into(),
                "amount_eur".into(),
                "band".into(),
            ]),
        ],
        loader: Loader {
            table: "clean_orders".into(),
            mode: LoadMode::Replace,
        },
    }
}

/// A4: a four-operator row-local chain, compiled once and streamed row
/// by row.
fn a4_pipeline_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a4_pipeline_ablation");
    for &n in &[2_000usize, 10_000] {
        let csv = etl_csv(n, 10, 42);
        group.bench_with_input(BenchmarkId::new("compiled_chain", n), &n, |b, _| {
            b.iter(|| {
                let runner = JobRunner::new(Arc::new(Database::new()));
                runner.run(&row_local_job(csv.clone())).unwrap()
            })
        });
    }
    group.finish();
}

/// End-to-end job throughput including a blocking aggregate stage.
fn etl_job_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("etl_throughput");
    let csv = etl_csv(10_000, 10, 7);
    group.bench_function("aggregate_job_10k", |b| {
        b.iter(|| {
            let runner = JobRunner::new(Arc::new(Database::new()));
            runner
                .run(&EtlJob {
                    name: "summarize".into(),
                    extractor: Extractor::Csv(csv.clone()),
                    transforms: vec![
                        Transform::Filter("amount > 0".into()),
                        Transform::Aggregate {
                            group_by: vec!["region".into()],
                            aggs: vec![
                                (AggFunc::Count, "id".into(), "orders".into()),
                                (AggFunc::Sum, "amount".into(), "revenue".into()),
                            ],
                        },
                    ],
                    loader: Loader {
                        table: "mart".into(),
                        mode: LoadMode::Replace,
                    },
                })
                .unwrap()
        })
    });
    group.bench_function("csv_parse_10k", |b| {
        b.iter(|| odbis_etl::parse_csv(&csv).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = a4_pipeline_ablation, etl_job_throughput
}
criterion_main!(benches);
