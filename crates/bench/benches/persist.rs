//! Checkpoint cost (experiment A8) on a BI-shaped 8-table warehouse, in
//! absolute numbers. The headline case is the incremental fold — one dirty
//! table of eight — where only the dirty table is re-encoded. Recovery
//! opens the store cold from its checkpoint artifacts. (The JSON snapshot
//! side of this bench was retired; `BENCH_persist.json` keeps its ratios.)

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use odbis_bench::persist::{build_warehouse, scratch_dir, touch_one_table};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(2500))
        .warm_up_time(Duration::from_millis(500))
}

/// Incremental checkpoint: one dirty table of eight. Each iteration
/// rewrites 500 rows of `fact_0` in place (table size stays constant
/// across iterations) and folds the log.
fn checkpoint_incremental(c: &mut Criterion) {
    let dir = scratch_dir("incr");
    let (db, store) = build_warehouse(&dir);
    store.checkpoint(&db).unwrap(); // start from an all-clean fold
    c.bench_function("persist_checkpoint_1_dirty_of_8", |b| {
        b.iter(|| {
            touch_one_table(&db, 500);
            store.checkpoint(&db).unwrap()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full checkpoint: every table dirty — the raw encoder cost.
fn checkpoint_full(c: &mut Criterion) {
    let dir = scratch_dir("full");
    let (db, store) = build_warehouse(&dir);
    // monotonic pk source shared across the harness's calibration and
    // measurement invocations of the closure
    static NEXT_ID: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(2_000_000);
    c.bench_function("persist_checkpoint_all_dirty", |b| {
        b.iter(|| {
            // dirty every table with one tiny unique-pk insert each
            for t in 0..odbis_bench::persist::TABLES {
                let name = format!("fact_{t}");
                let id = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                db.insert(&name, odbis_bench::persist::fact_row(id))
                    .unwrap();
            }
            store.checkpoint(&db).unwrap()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold recovery: open the store from its checkpoint artifacts and
/// scan one table to force decode.
fn recovery(c: &mut Criterion) {
    let dir = scratch_dir("recover");
    {
        let (db, store) = build_warehouse(&dir);
        store.checkpoint(&db).unwrap();
    }
    c.bench_function("persist_recovery_8x10k", |b| {
        b.iter(|| {
            let (db, _store) =
                odbis_storage::DurableStore::open(&dir, odbis_storage::FsyncPolicy::Never).unwrap();
            assert_eq!(db.scan("fact_0").unwrap().len(), odbis_bench::persist::ROWS);
            db
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = configured();
    targets = checkpoint_incremental, checkpoint_full, recovery
}
criterion_main!(benches);
