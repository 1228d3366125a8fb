//! Snapshot persistence: serialize a whole database to a JSON file and load
//! it back.
//!
//! A database is backed up with [`save_snapshot`] and restored with
//! [`load_snapshot`]. (Durable checkpoints are columnar segments, see
//! [`crate::wal`]; the loader here is also how [`crate::DurableStore::open`]
//! reads a checkpoint from when they were JSON.) The snapshot
//! format is versioned; loading a snapshot with an unknown version fails
//! with [`DbError::Corrupt`] rather than mis-reading it. Encoding goes
//! through the explicit [`crate::jsoncodec`] tree builders, so the on-disk
//! format is pinned by the codec rather than by struct layout.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{Map, Number, Value as Json};

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::jsoncodec::{table_from_json, table_to_json};
use crate::table::Table;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A process-unique scratch name next to `path`: `<file>.tmp.<pid>.<n>`.
/// Two concurrent checkpoints of sibling snapshots (or a retry racing a
/// stalled first attempt) each get their own tmp file, so neither can
/// clobber bytes the other is about to rename into place.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{}", std::process::id(), n));
    path.with_file_name(name)
}

/// `fsync` the directory holding a just-renamed file, so the rename itself
/// (the directory entry) survives power loss — without this the atomic
/// write-then-rename protocol persists the *bytes* but not the *name*.
pub(crate) fn fsync_dir(dir: &Path) -> DbResult<()> {
    odbis_chaos::check("snapshot.fsync").map_err(|e| DbError::Io(e.to_string()))?;
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Durably write `bytes` to `path` via write-then-rename: unique tmp file,
/// `sync_all` on the tmp, atomic rename, `fsync` on the parent directory.
/// On any failure the tmp file is removed, so aborted attempts leave no
/// debris behind. The `label` names the chaos failpoint family
/// (`<label>.write` / `snapshot.fsync` / `<label>.rename`).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], label: &str) -> DbResult<()> {
    let tmp = unique_tmp(path);
    let result = (|| -> DbResult<()> {
        odbis_chaos::check(&format!("{label}.write")).map_err(|e| DbError::Io(e.to_string()))?;
        if odbis_chaos::triggered(&format!("{label}.write.short")) {
            // Short write: the tmp file is left truncated mid-stream. The
            // live file must be untouched (the rename below never runs).
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(DbError::Io(format!(
                "injected failpoint {label}.write.short"
            )));
        }
        let mut f = fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(bytes)?;
        odbis_chaos::check("snapshot.fsync").map_err(|e| DbError::Io(e.to_string()))?;
        // The tmp bytes must be on disk *before* the rename publishes the
        // name, or a power cut could leave the live name pointing at a
        // hole where the data never arrived.
        f.sync_all()?;
        odbis_chaos::check(&format!("{label}.rename")).map_err(|e| DbError::Io(e.to_string()))?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Write the entire database to `path` as a JSON snapshot: one consistent
/// cut, taken with every table read-locked. The `last_lsn` stamp is always
/// 0 (the format dates from when checkpoints were snapshots stamped with
/// the WAL LSN they folded, and the loader insists on it).
pub fn save_snapshot(db: &Database, path: impl AsRef<Path>) -> DbResult<()> {
    db.with_tables_read(|tables| {
        let mut sorted: Vec<&Table> = tables.to_vec();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut snap = Map::new();
        snap.insert(
            "version".to_string(),
            Json::Number(Number::from(SNAPSHOT_VERSION as i64)),
        );
        snap.insert("last_lsn".to_string(), Json::Number(Number::from(0i64)));
        snap.insert(
            "tables".to_string(),
            Json::Array(sorted.into_iter().map(table_to_json).collect()),
        );
        let json = Json::Object(snap).to_string();
        // Write-then-rename (tmp fsync + dir fsync included) so a crash at
        // any instant leaves either the old snapshot or the new one, never
        // a torn or unpersisted file.
        write_atomic(path.as_ref(), json.as_bytes(), "snapshot")
    })
}

/// Load a snapshot produced by [`save_snapshot`] into a fresh [`Database`].
pub fn load_snapshot(path: impl AsRef<Path>) -> DbResult<Database> {
    load_snapshot_with_lsn(path).map(|(db, _)| db)
}

/// Load a snapshot, also returning its `last_lsn` stamp for WAL replay.
///
/// Loading is slot-preserving: tombstoned row slots decode as-is, so every
/// surviving row keeps the `RowId` it had when the snapshot was written —
/// WAL `Update`/`Delete` records replayed afterwards hit the right rows.
/// Index entries are not stored; they are rebuilt from the rows,
/// re-verifying uniqueness.
pub(crate) fn load_snapshot_with_lsn(path: impl AsRef<Path>) -> DbResult<(Database, u64)> {
    let json = fs::read_to_string(path.as_ref())?;
    let snap: Json = serde_json::from_str(&json).map_err(|e| DbError::Corrupt(e.to_string()))?;
    let version = snap
        .get("version")
        .and_then(Json::as_i64)
        .ok_or_else(|| DbError::Corrupt("snapshot missing version".into()))?;
    if version != SNAPSHOT_VERSION as i64 {
        return Err(DbError::Corrupt(format!(
            "snapshot version {version} not supported (expected {SNAPSHOT_VERSION})"
        )));
    }
    // Version-1 snapshots always carry the stamp. A missing or malformed
    // one means the file is damaged; silently defaulting to 0 would replay
    // the entire WAL over possibly-wrong state instead of failing loudly.
    let last_lsn = snap
        .get("last_lsn")
        .and_then(Json::as_i64)
        .filter(|l| *l >= 0)
        .ok_or_else(|| DbError::Corrupt("snapshot missing last_lsn stamp".into()))?
        as u64;
    let tables = snap
        .get("tables")
        .and_then(Json::as_array)
        .ok_or_else(|| DbError::Corrupt("snapshot missing tables".into()))?;
    let db = Database::new();
    for t in tables {
        let table = table_from_json(t)?;
        db.adopt_table(table)?;
    }
    Ok((db, last_lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("odbis-storage-test-{name}-{}", std::process::id()));
        p
    }

    fn sample_db() -> Database {
        let db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Float),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        db.create_table("people", schema).unwrap();
        db.insert("people", vec![1.into(), "ana".into(), 9.5.into()])
            .unwrap();
        db.insert("people", vec![2.into(), Value::Null, 7.0.into()])
            .unwrap();
        db.write_table("people", |t| t.create_index("ix_name", &["name"], false))
            .unwrap()
            .unwrap();
        db
    }

    #[test]
    fn snapshot_round_trip_preserves_rows_and_indexes() {
        let _x = odbis_chaos::exclusive(); // another test here arms `snapshot.rename`
        let db = sample_db();
        let path = tmp("roundtrip");
        save_snapshot(&db, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.row_count("people").unwrap(), 2);
        assert_eq!(loaded.scan("people").unwrap(), db.scan("people").unwrap());
        loaded
            .read_table("people", |t| {
                assert!(t.index("ix_name").is_some());
                assert!(t.index("pk_people").is_some());
            })
            .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_preserves_row_ids_across_tombstones() {
        let _x = odbis_chaos::exclusive(); // another test here arms `snapshot.rename`
        let db = sample_db();
        // delete row id 0, leaving a tombstone before row id 1
        db.write_table("people", |t| t.delete(0)).unwrap().unwrap();
        let path = tmp("tombstones");
        save_snapshot(&db, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.row_count("people").unwrap(), 1);
        loaded
            .read_table("people", |t| {
                assert!(t.get(0).is_err(), "tombstone slot must stay dead");
                assert_eq!(t.get(1).unwrap()[0], Value::Int(2));
            })
            .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loading_missing_file_is_io_error() {
        assert!(matches!(
            load_snapshot("/nonexistent/odbis.snap"),
            Err(DbError::Io(_))
        ));
    }

    #[test]
    fn loading_garbage_is_corrupt() {
        let path = tmp("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(load_snapshot(&path), Err(DbError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_last_lsn_stamp_is_corrupt() {
        let path = tmp("nolsn");
        std::fs::write(&path, r#"{"version": 1, "tables": []}"#).unwrap();
        let err = load_snapshot_with_lsn(&path).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)));
        assert!(err.to_string().contains("last_lsn"));
        // malformed stamps are rejected the same way
        std::fs::write(
            &path,
            r#"{"version": 1, "last_lsn": "seven", "tables": []}"#,
        )
        .unwrap();
        assert!(matches!(
            load_snapshot_with_lsn(&path),
            Err(DbError::Corrupt(_))
        ));
        std::fs::write(&path, r#"{"version": 1, "last_lsn": -3, "tables": []}"#).unwrap();
        assert!(matches!(
            load_snapshot_with_lsn(&path),
            Err(DbError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tmp_names_are_unique_and_cleaned_up() {
        let a = unique_tmp(Path::new("/x/snapshot.json"));
        let b = unique_tmp(Path::new("/x/snapshot.json"));
        assert_ne!(a, b, "concurrent checkpoints must not share a tmp file");
        assert!(a.to_string_lossy().contains("snapshot.json.tmp."));
        // a failed atomic write leaves no tmp debris behind
        let dir = tmp("atomic-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("snapshot.json");
        let _g = odbis_chaos::exclusive();
        odbis_chaos::apply_spec("snapshot.rename=return-err").unwrap();
        assert!(write_atomic(&target, b"{}", "snapshot").is_err());
        odbis_chaos::clear();
        assert!(!target.exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "tmp file must be removed on failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_rejected() {
        let path = tmp("version");
        std::fs::write(&path, r#"{"version": 999, "tables": []}"#).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)));
        assert!(err.to_string().contains("999"));
        let _ = std::fs::remove_file(&path);
    }
}
