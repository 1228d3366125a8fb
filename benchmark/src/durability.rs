//! The crash check: every acknowledged write must be readable after a
//! restart from only the bytes the log held at the last ack.
//!
//! Killing an in-process server leaves the page cache intact, so the check
//! discards unflushed bytes itself: it copies the tenant's directory, cuts
//! the copy's `wal.log` to the length the platform reported at the last
//! ack, appends half a frame of garbage (a torn write), reopens the copy
//! with `DurableStore::open` and reads every acked row back.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use odbis_sql::Engine;
use odbis_storage::{DurableStore, FsyncPolicy, Value};

use crate::mart::Mart;
use crate::stats::median;

/// What the platform reported after the last acknowledged write.
#[derive(Clone, Copy, Debug)]
pub struct AckedLog {
    pub wal_file_len: u64,
    pub next_lsn: u64,
}

#[derive(Debug)]
pub struct Recovery {
    /// Seconds from `DurableStore::open` to the first correct read, one
    /// per reopened copy.
    pub seconds: Vec<f64>,
    /// Log bytes each reopen had to replay.
    pub wal_bytes: u64,
}

impl Recovery {
    pub fn median_s(&self) -> f64 {
        median(&self.seconds)
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Half a frame: a header promising 64 payload bytes, then 12 of them.
fn torn_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&72u32.to_le_bytes());
    frame.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    frame.extend_from_slice(&u64::MAX.to_le_bytes());
    frame.extend_from_slice(b"{\"Insert\":{\"");
    frame
}

/// Crash `tenant_dir` (a halted platform's tenant directory) `repeats`
/// times into `scratch` and recover each copy. The first recovery is
/// audited row by row against `model`; any lost or altered acked row is
/// an error naming the row and the log positions.
pub fn crash_and_recover(
    tenant_dir: &Path,
    scratch: &Path,
    acked: AckedLog,
    model: &Mart,
    repeats: usize,
) -> Result<Recovery, String> {
    let io = |what: &str, e: std::io::Error| format!("crash check: {what}: {e}");
    let engine = Engine::new();
    let mut seconds = Vec::with_capacity(repeats);
    for round in 0..repeats {
        let copy = scratch.join(format!("crash-{round}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(tenant_dir, &copy).map_err(|e| io("copy", e))?;
        let wal_path = copy.join("wal.log");
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io("open wal.log", e))?;
        let on_disk = wal.metadata().map_err(|e| io("stat wal.log", e))?.len();
        if on_disk < acked.wal_file_len {
            return Err(format!(
                "crash check: wal.log holds {on_disk} bytes but {} were acknowledged",
                acked.wal_file_len
            ));
        }
        wal.set_len(acked.wal_file_len)
            .map_err(|e| io("cut wal.log", e))?;
        wal.write_all(&torn_frame())
            .map_err(|e| io("tear wal.log", e))?;
        drop(wal);

        let start = Instant::now();
        let (db, store) = DurableStore::open(&copy, FsyncPolicy::Never)
            .map_err(|e| format!("crash check: reopen failed: {e}"))?;
        let count = engine
            .execute(&db, "SELECT COUNT(*) FROM fact_order")
            .map_err(|e| format!("crash check: first read failed: {e}"))?;
        let elapsed = start.elapsed().as_secs_f64();
        let want = Value::Int(model.facts.len() as i64);
        if count.rows[0][0] != want {
            return Err(format!(
                "crash check: {} rows recovered, {} acknowledged",
                count.rows[0][0].render(),
                model.facts.len()
            ));
        }
        seconds.push(elapsed);

        if round == 0 {
            let recovered_lsn = store.wal().last_lsn();
            if recovered_lsn + 1 != acked.next_lsn {
                return Err(format!(
                    "crash check: log recovered to LSN {recovered_lsn}, acknowledged up to LSN {}",
                    acked.next_lsn - 1
                ));
            }
            let rows = engine
                .execute(
                    &db,
                    "SELECT order_id, customer_id, amount, lt_pay FROM fact_order",
                )
                .map_err(|e| format!("crash check: audit read failed: {e}"))?;
            let found: BTreeMap<&Value, &[Value]> =
                rows.rows.iter().map(|r| (&r[0], &r[1..])).collect();
            for f in &model.facts {
                let want = [
                    Value::Int(f.customer_id),
                    Value::Int(f.amount),
                    Value::Int(f.lt_pay),
                ];
                match found.get(&Value::Int(f.order_id)) {
                    Some(got) if *got == want => {}
                    other => {
                        return Err(format!(
                            "crash check: acked row order_id={} {} after recovery \
                             (log recovered to LSN {recovered_lsn}, acked up to LSN {})",
                            f.order_id,
                            if other.is_some() {
                                "was altered"
                            } else {
                                "is LOST"
                            },
                            acked.next_lsn - 1
                        ));
                    }
                }
            }
        }
        drop((db, store));
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(Recovery {
        seconds,
        wal_bytes: acked.wal_file_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbis_storage::WalSink;
    use std::sync::Arc;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A store with `n` journaled rows; returns the model and the acked log.
    fn store_with_rows(dir: &Path, n: usize) -> (Mart, AckedLog) {
        let engine = Engine::new();
        let (db, store) = DurableStore::open(dir, FsyncPolicy::Never).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        for sql in Mart::schema_sql() {
            engine.execute(&db, &sql).unwrap();
        }
        let mut mart = Mart::new(5, 100);
        let sql = crate::mart::insert_facts_sql(mart.extend(n));
        engine.execute(&db, &sql).unwrap();
        let stats = store.wal().stats();
        (
            mart,
            AckedLog {
                wal_file_len: stats.file_len,
                next_lsn: stats.next_lsn,
            },
        )
    }

    #[test]
    fn acked_rows_survive_a_torn_tail() {
        let root = scratch("survive");
        let (mart, acked) = store_with_rows(&root.join("t"), 40);
        let r = crash_and_recover(&root.join("t"), &root, acked, &mart, 2).unwrap();
        assert_eq!(r.seconds.len(), 2);
        assert_eq!(r.wal_bytes, acked.wal_file_len);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_lost_acked_row_is_named() {
        let root = scratch("lost");
        let (mut mart, acked) = store_with_rows(&root.join("t"), 40);
        // the model believes one more row was acknowledged than the log holds
        let phantom = mart.fact_at(40);
        mart.push(phantom);
        let err = crash_and_recover(&root.join("t"), &root, acked, &mart, 1).unwrap_err();
        assert!(err.contains("40 rows recovered, 41 acknowledged"), "{err}");

        // same count, different row: the audit names the missing order
        let (mut mart, acked) = store_with_rows(&root.join("u"), 40);
        mart.facts[7].order_id = 9_999;
        let err = crash_and_recover(&root.join("u"), &root, acked, &mart, 1).unwrap_err();
        assert!(err.contains("order_id=9999 is LOST"), "{err}");

        // a log cut short of the acked length is refused outright
        let short = AckedLog {
            wal_file_len: acked.wal_file_len + 1,
            ..acked
        };
        let err = crash_and_recover(&root.join("u"), &root, short, &mart, 1).unwrap_err();
        assert!(err.contains("were acknowledged"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
