//! One-shot A8 probe: runs the full persist cycle (load → full checkpoint
//! → one-dirty-table incremental checkpoint → crash → recover → cold scan)
//! and prints its absolute numbers. The JSON side `BENCH_persist.json`
//! compares against was retired; the file says at which commit to rerun it.
//!
//! Run with: `cargo run --release -p odbis-bench --example persist_probe`

use odbis_bench::persist::{run_cycle, PersistRun, ROWS, TABLES};

fn main() {
    println!("warehouse: {TABLES} tables x {ROWS} rows, BI-shaped columns");
    // min-of-3: the container is noisy, the floor is the stable figure
    let runs: Vec<PersistRun> = (0..3).map(|_| run_cycle()).collect();
    let best = |f: fn(&PersistRun) -> u64| runs.iter().map(f).min().unwrap();
    println!(
        "  full checkpoint   : {:>8} us  ({} tables flushed)",
        best(|r| r.full_checkpoint_us),
        runs[0].full_tables_flushed
    );
    println!(
        "  incr checkpoint   : {:>8} us  ({} of {TABLES} tables flushed)",
        best(|r| r.incr_checkpoint_us),
        runs[0].incr_tables_flushed
    );
    println!(
        "  footprint         : {:>8} bytes",
        best(|r| r.footprint_bytes)
    );
    println!("  recovery          : {:>8} us", best(|r| r.recovery_us));
    println!(
        "  cold scan         : {:>8} rows/s",
        runs.iter().map(|r| r.cold_scan_rows_per_s).max().unwrap()
    );
}
