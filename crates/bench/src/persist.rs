//! Checkpoint workload: a synthetic BI warehouse for timing the binary
//! columnar segment checkpoint (experiment A8; the JSON snapshot it was
//! compared against is retired, its recorded ratios are in
//! `BENCH_persist.json`).
//!
//! The warehouse is shaped like the paper's on-demand BI tenants: several
//! fact tables whose columns are exactly the shapes the segment encodings
//! target — low-cardinality dimension strings (dict), near-sorted dates
//! (rle/bitpack), sequential ids (bitpack) and measures (plain). The
//! incremental scenario mutates **one** table out of N and checkpoints:
//! only the dirty table is re-encoded.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use odbis_storage::{
    Column, DataType, Database, DurableStore, FsyncPolicy, Schema, Value, WalSink,
};

/// Tables in the synthetic warehouse.
pub const TABLES: usize = 8;
/// Rows per table.
pub const ROWS: usize = 10_000;

/// Scratch directory for one persist-bench store, preferring tmpfs so the
/// timings capture encode/decode work rather than writeback jitter.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let shm = PathBuf::from("/dev/shm");
    let root = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    let dir = root.join(format!(
        "odbis-bench-persist-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fact_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("region", DataType::Text).not_null(),
        Column::new("status", DataType::Text),
        Column::new("day", DataType::Date),
        Column::new("ts", DataType::Timestamp),
        Column::new("amount", DataType::Float),
    ])
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap()
}

const REGIONS: &[&str] = &["eu", "us", "apac", "latam"];
const STATUSES: &[&str] = &["open", "shipped", "returned"];

/// One deterministic BI-shaped row: dict-friendly strings, near-sorted
/// date/timestamp, sequential id, plain float measure.
pub fn fact_row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::from(REGIONS[(i % REGIONS.len() as i64) as usize]),
        if i % 17 == 0 {
            Value::Null
        } else {
            Value::from(STATUSES[(i % STATUSES.len() as i64) as usize])
        },
        Value::Date(20_000 + (i / 500) as i32),
        Value::Timestamp(1_700_000_000_000_000 + i * 1_000_000),
        Value::Float(i as f64 * 1.25),
    ]
}

/// Open a durable store in `dir` and load a `tables`×`rows` warehouse
/// through journaled `insert_many` statements.
pub fn build_warehouse_sized(dir: &Path, tables: usize, rows: usize) -> (Database, DurableStore) {
    let (db, store) = DurableStore::open(dir, FsyncPolicy::Never).unwrap();
    db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
    for t in 0..tables {
        let name = format!("fact_{t}");
        db.create_table(&name, fact_schema()).unwrap();
        for start in (0..rows as i64).step_by(500) {
            let chunk = 500.min(rows as i64 - start);
            let batch = (start..start + chunk).map(fact_row).collect();
            db.insert_many(&name, batch).unwrap();
        }
    }
    (db, store)
}

/// [`build_warehouse_sized`] at the standard [`TABLES`]×[`ROWS`] scale.
pub fn build_warehouse(dir: &Path) -> (Database, DurableStore) {
    build_warehouse_sized(dir, TABLES, ROWS)
}

/// Mutate one table (append `n` rows to `fact_0`) so exactly one table is
/// dirty for the next checkpoint. Each call draws from a fresh pk range,
/// so bench loops can call it repeatedly against one store.
pub fn dirty_one_table(db: &Database, n: usize) {
    static NEXT_PK: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(1_000_000);
    let base = NEXT_PK.fetch_add(n as i64, Ordering::Relaxed);
    let rows = (0..n as i64).map(|i| fact_row(base + i)).collect();
    db.insert_many("fact_0", rows).unwrap();
}

/// Dirty one table without growing it: rewrite rows `0..n` of `fact_0`
/// in place (same pk, same shape). Keeps repeated bench iterations
/// checkpointing a constant-size table.
pub fn touch_one_table(db: &Database, n: usize) {
    for i in 0..n as i64 {
        db.write_table("fact_0", |t| t.update(i as u64, fact_row(i)))
            .unwrap();
    }
}

/// Total bytes of checkpoint artifacts (manifest, segments) under `dir` —
/// the on-disk footprint a tenant pays at rest.
pub fn checkpoint_footprint(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name == "manifest.json" || name.ends_with(".seg") {
                total += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// Timings (µs) and sizes (bytes) for one full cycle.
#[derive(Debug, Clone)]
pub struct PersistRun {
    /// Checkpoint with every table dirty (first fold after load).
    pub full_checkpoint_us: u64,
    /// Tables re-encoded by the full checkpoint.
    pub full_tables_flushed: usize,
    /// Checkpoint with one table of [`TABLES`] dirty.
    pub incr_checkpoint_us: u64,
    /// Tables re-encoded by the incremental checkpoint.
    pub incr_tables_flushed: usize,
    /// On-disk checkpoint footprint after the incremental fold.
    pub footprint_bytes: u64,
    /// Cold start: open the store and recover every table from disk.
    pub recovery_us: u64,
    /// Rows scanned per second across the recovered warehouse.
    pub cold_scan_rows_per_s: u64,
}

/// Run the A8 cycle: load → full checkpoint → dirty one table →
/// incremental checkpoint → crash (drop) → recover → scan all.
pub fn run_cycle() -> PersistRun {
    run_cycle_sized(TABLES, ROWS)
}

/// [`run_cycle`] at an explicit warehouse scale (the smoke test uses a
/// tiny one so debug-mode `cargo test` stays fast).
pub fn run_cycle_sized(tables: usize, rows: usize) -> PersistRun {
    let dir = scratch_dir("cycle");
    let (db, store) = build_warehouse_sized(&dir, tables, rows);

    let t = Instant::now();
    let full = store.checkpoint(&db).unwrap();
    let full_checkpoint_us = t.elapsed().as_micros() as u64;

    dirty_one_table(&db, 500);
    let t = Instant::now();
    let incr = store.checkpoint(&db).unwrap();
    let incr_checkpoint_us = t.elapsed().as_micros() as u64;

    let footprint_bytes = checkpoint_footprint(&dir);
    drop((db, store)); // crash boundary

    let t = Instant::now();
    let (recovered, _store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
    let recovery_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let mut scanned = 0usize;
    for name in recovered.table_names() {
        scanned += recovered.scan(&name).unwrap().len();
    }
    assert_eq!(scanned, tables * rows + 500, "recovered warehouse is whole");
    let scan_s = t.elapsed().as_secs_f64();
    let cold_scan_rows_per_s = if scan_s > 0.0 {
        (scanned as f64 / scan_s) as u64
    } else {
        0
    };

    let _ = std::fs::remove_dir_all(&dir);
    PersistRun {
        full_checkpoint_us,
        full_tables_flushed: full.tables_flushed,
        incr_checkpoint_us,
        incr_tables_flushed: incr.tables_flushed,
        footprint_bytes,
        recovery_us,
        cold_scan_rows_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_runs_and_flushes_incrementally() {
        // tiny scale: this is a smoke test of the harness, not the bench
        let run = run_cycle_sized(3, 1_000);
        assert_eq!(run.full_tables_flushed, 3);
        assert_eq!(run.incr_tables_flushed, 1);
        assert!(run.footprint_bytes > 0);
    }
}
