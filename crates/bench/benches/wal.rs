//! Durability-spine overhead: the same insert workload against an
//! un-journaled in-memory database and a WAL-journaled durable store
//! (fsync=never), plus checkpoint and recovery latency. The acceptance
//! budget is <2× per-insert overhead for journaling at fsync=never.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis_storage::{
    Column, DataType, Database, DurableStore, FsyncPolicy, Schema, Value, WalSink,
};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(2000))
        .warm_up_time(Duration::from_millis(400))
}

/// Scratch directory for one bench store. Prefers tmpfs (`/dev/shm`) so the
/// append measurements capture the software path — encode, checksum, frame,
/// buffered write — rather than the host filesystem's writeback jitter,
/// which at `fsync=never` is noise the store never waits on anyway.
fn bench_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let shm = PathBuf::from("/dev/shm");
    let root = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    let dir = root.join(format!("odbis-bench-wal-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("region", DataType::Text),
        Column::new("amount", DataType::Float),
    ])
    .unwrap()
}

fn row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::from(if i % 2 == 0 { "EU" } else { "US" }),
        Value::Float(i as f64 * 1.5),
    ]
}

fn insert_rows(db: &Database, n: usize) {
    for i in 0..n as i64 {
        db.insert("orders", row(i)).unwrap();
    }
}

/// The statement-commit shape: rows arrive in multi-row statements
/// (`insert_many`), so the WAL group-commits each batch with one write.
fn insert_batched(db: &Database, n: usize, batch: usize) {
    for start in (0..n as i64).step_by(batch) {
        let rows = (start..start + batch as i64).map(row).collect();
        db.insert_many("orders", rows).unwrap();
    }
}

fn journaled_db(dir: &PathBuf) -> (Database, DurableStore) {
    let (db, store) = DurableStore::open(dir, FsyncPolicy::Never).unwrap();
    let wal: std::sync::Arc<dyn WalSink> = std::sync::Arc::clone(store.wal()) as _;
    db.set_wal_sink(wal);
    // the bench closure runs many times (calibration, warmup, samples)
    // against the same dir, so a reopen recovers the table from disk
    match db.create_table("orders", schema()) {
        Ok(()) | Err(odbis_storage::DbError::TableExists(_)) => {}
        Err(e) => panic!("create orders table: {e}"),
    }
    (db, store)
}

/// Journaling overhead in two workload shapes. Row-at-a-time: every insert
/// is its own statement, so each pays a WAL frame *and* a write syscall —
/// the floor is the syscall, not the encoder. Statement batches
/// (`insert_many`, 100 rows): group commit folds the whole statement into
/// one write, which is where the <2× acceptance budget is measured.
fn wal_append_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    {
        let n = 1_000usize;
        // Sustained-warehouse shape on both sides: one long-lived table,
        // rows accumulating across iterations. To bound memory, both
        // loops truncate the table once it passes 100k rows (identical
        // cost on each side); the journaled loop also folds the log into
        // the snapshot once it passes 4 MiB, so the WAL file stays
        // bounded exactly the way a deployed store would keep it.
        group.bench_with_input(BenchmarkId::new("unjournaled_insert", n), &n, |b, &n| {
            let db = Database::new();
            db.create_table("orders", schema()).unwrap();
            let mut live = 0usize;
            b.iter(|| {
                insert_rows(&db, n);
                live += n;
                if live >= 100_000 {
                    db.truncate("orders").unwrap();
                    live = 0;
                }
            })
        });
        let dir = bench_dir("append");
        group.bench_with_input(BenchmarkId::new("wal_insert", n), &n, |b, &n| {
            let (db, store) = journaled_db(&dir);
            let mut live = 0usize;
            b.iter(|| {
                insert_rows(&db, n);
                live += n;
                if live >= 100_000 {
                    db.truncate("orders").unwrap();
                    live = 0;
                    // fold the log while the table is empty, the way a
                    // deployment checkpoints off-peak; bounds the WAL file
                    store.checkpoint(&db).unwrap();
                }
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        group.bench_with_input(
            BenchmarkId::new("unjournaled_insert_many_x100", n),
            &n,
            |b, &n| {
                let db = Database::new();
                db.create_table("orders", schema()).unwrap();
                let mut live = 0usize;
                b.iter(|| {
                    insert_batched(&db, n, 100);
                    live += n;
                    if live >= 100_000 {
                        db.truncate("orders").unwrap();
                        live = 0;
                    }
                })
            },
        );
        let dir = bench_dir("batch");
        group.bench_with_input(BenchmarkId::new("wal_insert_many_x100", n), &n, |b, &n| {
            let (db, store) = journaled_db(&dir);
            let mut live = 0usize;
            b.iter(|| {
                insert_batched(&db, n, 100);
                live += n;
                if live >= 100_000 {
                    db.truncate("orders").unwrap();
                    live = 0;
                    store.checkpoint(&db).unwrap();
                }
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Checkpoint latency: fold a 1k-insert log into the snapshot.
fn wal_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_checkpoint");
    group.bench_function("checkpoint_1k", |b| {
        b.iter(|| {
            let dir = bench_dir("ckpt");
            let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            let wal: std::sync::Arc<dyn WalSink> = std::sync::Arc::clone(store.wal()) as _;
            db.set_wal_sink(wal);
            db.create_table("orders", schema()).unwrap();
            insert_batched(&db, 1_000, 100);
            let report = store.checkpoint(&db).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        })
    });
    group.finish();
}

/// Recovery latency: replay a 1k-insert WAL into a fresh database.
fn wal_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_recovery");
    let dir = bench_dir("recover");
    {
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let wal: std::sync::Arc<dyn WalSink> = std::sync::Arc::clone(store.wal()) as _;
        db.set_wal_sink(wal);
        db.create_table("orders", schema()).unwrap();
        insert_rows(&db, 1_000);
    }
    group.bench_function("replay_1k", |b| {
        b.iter(|| {
            let (db, _store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(db.scan("orders").unwrap().len(), 1_000);
            db
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = configured();
    targets = wal_append_overhead, wal_checkpoint, wal_recovery
}
criterion_main!(benches);
