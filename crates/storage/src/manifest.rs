//! The segment manifest: the single atomic commit point for columnar
//! checkpoints.
//!
//! `manifest.json` lists the one live segment file per table, each stamped
//! with the LSN cut it was written at, plus the store-wide `last_lsn` of the
//! most recent checkpoint and the next segment id to allocate. An
//! incremental checkpoint writes fresh segments for dirty tables only, then
//! swaps the manifest in one fsynced rename (`persist::write_atomic`
//! with the `manifest` failpoint label) — until that rename lands, recovery
//! sees the previous manifest and the previous segments, all still intact
//! because segments are immutable and ids are never reused.
//!
//! The manifest is deliberately tiny JSON rather than a binary format: it
//! is O(tables), rewritten wholesale each checkpoint, and being able to
//! `cat` it is worth more than the bytes.

use std::path::Path;

use serde_json::{Map, Number, Value as Json};

use crate::error::{DbError, DbResult};
use crate::persist::write_atomic;

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One live segment: the columnar image of `table` as of `last_lsn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Table name as displayed (original casing).
    pub table: String,
    /// Segment file name, relative to the store directory.
    pub file: String,
    /// The LSN cut the segment was written at. May be older than the
    /// manifest's `last_lsn` when the table was clean at later checkpoints —
    /// valid, because no mutation of this table exists in between.
    pub last_lsn: u64,
    /// Encoded size in bytes, for footprint accounting.
    pub bytes: u64,
}

/// The set of live segments after the last successful checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The consistent cut the manifest commits: WAL records with LSN above
    /// this must be replayed on recovery, everything at or below is in the
    /// segments.
    pub last_lsn: u64,
    /// Next segment id to allocate. Monotonic across the store's lifetime —
    /// ids are never reused, so a freshly written segment can never collide
    /// with a crash-orphaned file that some old manifest referenced.
    pub next_seg_id: u64,
    /// Live segments, one per table, in canonical (sorted) table order.
    pub tables: Vec<SegmentEntry>,
}

impl Manifest {
    /// Look up the live segment for `table` (case-insensitive, matching the
    /// catalog's name resolution).
    pub fn entry(&self, table: &str) -> Option<&SegmentEntry> {
        self.tables
            .iter()
            .find(|e| e.table.eq_ignore_ascii_case(table))
    }
}

fn manifest_json(m: &Manifest) -> String {
    let mut root = Map::new();
    root.insert(
        "version".to_string(),
        Json::Number(Number::from(MANIFEST_VERSION as i64)),
    );
    root.insert(
        "last_lsn".to_string(),
        Json::Number(Number::from(m.last_lsn as i64)),
    );
    root.insert(
        "next_seg_id".to_string(),
        Json::Number(Number::from(m.next_seg_id as i64)),
    );
    root.insert(
        "tables".to_string(),
        Json::Array(
            m.tables
                .iter()
                .map(|e| {
                    let mut o = Map::new();
                    o.insert("table".to_string(), Json::String(e.table.clone()));
                    o.insert("file".to_string(), Json::String(e.file.clone()));
                    o.insert(
                        "last_lsn".to_string(),
                        Json::Number(Number::from(e.last_lsn as i64)),
                    );
                    o.insert(
                        "bytes".to_string(),
                        Json::Number(Number::from(e.bytes as i64)),
                    );
                    Json::Object(o)
                })
                .collect(),
        ),
    );
    Json::Object(root).to_string()
}

/// Write `m` to `path` atomically and durably (tmp + fsync + rename +
/// directory fsync). This rename is the checkpoint's commit point; the
/// failpoint sites are `manifest.write`, `manifest.write.short`,
/// `manifest.rename`, and the shared `snapshot.fsync`.
pub(crate) fn write_manifest(m: &Manifest, path: &Path) -> DbResult<()> {
    write_atomic(path, manifest_json(m).as_bytes(), "manifest")
}

fn req_u64(v: &Json, key: &str) -> DbResult<u64> {
    v.get(key)
        .and_then(Json::as_i64)
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| DbError::Corrupt(format!("manifest missing {key} stamp")))
}

fn req_str(v: &Json, key: &str) -> DbResult<String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| DbError::Corrupt(format!("manifest missing {key}")))
}

/// Load the manifest at `path`. Strict: a missing or malformed field is
/// [`DbError::Corrupt`] — a half-written manifest must never silently
/// masquerade as an empty store.
pub(crate) fn load_manifest(path: &Path) -> DbResult<Manifest> {
    let text = std::fs::read_to_string(path)?;
    let root: Json = serde_json::from_str(&text)
        .map_err(|e| DbError::Corrupt(format!("manifest not JSON: {e}")))?;
    let version = req_u64(&root, "version")?;
    if version != MANIFEST_VERSION as u64 {
        return Err(DbError::Corrupt(format!(
            "manifest version {version} not supported (expected {MANIFEST_VERSION})"
        )));
    }
    let last_lsn = req_u64(&root, "last_lsn")?;
    let next_seg_id = req_u64(&root, "next_seg_id")?;
    let mut tables = Vec::new();
    for e in root
        .get("tables")
        .and_then(Json::as_array)
        .ok_or_else(|| DbError::Corrupt("manifest missing tables".into()))?
    {
        tables.push(SegmentEntry {
            table: req_str(e, "table")?,
            file: req_str(e, "file")?,
            last_lsn: req_u64(e, "last_lsn")?,
            bytes: req_u64(e, "bytes")?,
        });
    }
    Ok(Manifest {
        last_lsn,
        next_seg_id,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odbis-manifest-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        p
    }

    fn sample() -> Manifest {
        Manifest {
            last_lsn: 99,
            next_seg_id: 3,
            tables: vec![
                SegmentEntry {
                    table: "Orders".into(),
                    file: "seg-00000001.seg".into(),
                    last_lsn: 40,
                    bytes: 1234,
                },
                SegmentEntry {
                    table: "users".into(),
                    file: "seg-00000002.seg".into(),
                    last_lsn: 99,
                    bytes: 567,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let path = tmp("roundtrip");
        let m = sample();
        write_manifest(&m, &path).unwrap();
        let back = load_manifest(&path).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.entry("ORDERS").unwrap().file, "seg-00000001.seg");
        assert!(back.entry("ghost").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_malformed_fields_are_corrupt() {
        let path = tmp("strict");
        for bad in [
            r#"{"version":1,"next_seg_id":1,"tables":[]}"#,
            r#"{"version":1,"last_lsn":"seven","next_seg_id":1,"tables":[]}"#,
            r#"{"version":1,"last_lsn":-2,"next_seg_id":1,"tables":[]}"#,
            r#"{"version":99,"last_lsn":0,"next_seg_id":1,"tables":[]}"#,
            r#"{"version":1,"last_lsn":0,"next_seg_id":1}"#,
            r#"{"version":1,"last_lsn":0,"next_seg_id":1,"tables":[{"table":"t"}]}"#,
            "not json at all",
        ] {
            std::fs::write(&path, bad).unwrap();
            match load_manifest(&path) {
                Err(DbError::Corrupt(_)) => {}
                other => panic!("expected Corrupt for {bad:?}, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
