//! `query` group — the optimizer ablation on the paper's Figure 6
//! healthcare-dashboard query shape (a filtered star join).
//!
//! One column, `pushdown_{on,off}`: a filtered join with the full rule
//! pipeline vs `-pushdown,-prune` ablated, isolating what predicate
//! pushdown through the join plus projection pruning buy.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis_bench::workloads;
use odbis_sql::Engine;
use odbis_storage::Database;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(12)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
}

/// A selective filtered join where pushdown + pruning have the most to cut:
/// without them every fact row crosses the join before filtering.
const FILTERED_JOIN: &str = "SELECT f.id, d.name FROM fact_admission f \
     JOIN dim_department d ON f.dept_id = d.dept_id \
     WHERE f.cost > 2400.0 AND f.stay_days < 5 AND d.head_count > 60";

fn query_group(c: &mut Criterion) {
    let db: Arc<Database> = Arc::new(workloads::healthcare_db(50_000, 7));
    let mut group = c.benchmark_group("query");

    let optimized = Engine::new();
    let ablated = Engine::new().with_optimizer_rules("-pushdown,-prune");
    let on = optimized.execute(&db, FILTERED_JOIN).expect("optimized");
    let off = ablated.execute(&db, FILTERED_JOIN).expect("ablated");
    assert_eq!(on.rows.len(), off.rows.len(), "ablation changes results");
    group.bench_function(BenchmarkId::new("pushdown", "on"), |b| {
        b.iter(|| optimized.execute(&db, FILTERED_JOIN).unwrap())
    });
    group.bench_function(BenchmarkId::new("pushdown", "off"), |b| {
        b.iter(|| ablated.execute(&db, FILTERED_JOIN).unwrap())
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = query_group
}
criterion_main!(benches);
