//! Write-ahead logging and crash recovery.
//!
//! The durability layer beneath the platform: every mutation of a journaled
//! [`Database`] is appended to a per-database log file before the call
//! returns, so a process crash loses at most the statement being written
//! when the power went out — never a committed one.
//!
//! One statement ([`Database::write_tables`], over one or more tables) is
//! one [`WalSink::append`]: its records go down with one write and at most
//! one fsync, or, if the append fails, the statement is rolled back in
//! memory before any of its table locks is released. Nothing ever logs a
//! change and then a compensating one. The rows of one INSERT coalesce
//! into a single [`WalRecord::InsertMany`] frame, which a cut either holds
//! whole or not at all, so an INSERT is never half-recovered. A multi-row
//! UPDATE or DELETE, and a statement over several tables, is still one
//! frame per record inside that one write: a crash in the middle of the
//! write can recover a prefix of its frames. An append that
//! fails after its bytes reached the file (a failed fsync) cuts them back
//! off, so memory and the log agree that the statement never happened;
//! when even that cut fails, the log refuses every later append until a
//! reopen repairs the tail (see [`Wal::append_batch`]).
//!
//! ## Frame format
//!
//! The log is a sequence of self-delimiting frames:
//!
//! ```text
//! ┌────────────┬────────────┬────────────┬──────────────────────────┐
//! │ len: u32LE │ crc: u32LE │ lsn: u64LE │ payload: one WalRecord   │
//! └────────────┴────────────┴────────────┴──────────────────────────┘
//! ```
//!
//! `len` counts the lsn plus payload bytes (so `len >= 8`); `crc` is
//! CRC-32 (IEEE) over those same bytes. The payload is the one binary
//! encoding of a [`WalRecord`] ([`encode_record`] / [`decode_record`]):
//!
//! ```text
//! op u8                                  // 1 create_table, 2 drop_table,
//!                                        // 3 insert, 4 insert_many,
//!                                        // 5 update, 6 delete, 8 truncate,
//!                                        // 9 create_index, 10 drop_index
//!                                        // (7 is unassigned: Corrupt)
//! names    u32LE length + UTF-8          // table, then index / schema
//! id       u64LE                         // update, delete
//! row      u32LE count + tagged values   // segment value codec, Null = tag 0
//! rows     u32LE count + rows            // insert_many
//! schema   u32LE length + schema JSON    // create_table: the segment meta's
//! columns  u32LE count + names, unique u8 // create_index
//! ```
//!
//! A frame is *committed* iff it is fully present and its checksum
//! verifies. Recovery reads the longest committed frame prefix and
//! truncates anything after it (a torn tail from a crash mid-append), so
//! a partial write can never poison the log. A committed frame whose
//! payload does not decode is not a torn write — it is damage or a log
//! from an older format — so recovery refuses it with
//! [`DbError::Corrupt`] and truncates nothing: refuse, don't truncate.
//!
//! ## Checkpoint protocol
//!
//! [`DurableStore::checkpoint`] folds the log into columnar segments:
//! holding the catalog read lock (excludes DDL) plus *every* table's read
//! lock in canonical order (excludes appenders, who journal under their
//! table's write lock), it writes a segment per dirty table and a manifest
//! stamped with the last assigned LSN, then truncates the log. The LSN
//! stamp is read only after all table read locks are held, so every
//! assigned LSN corresponds to an applied mutation visible in the cut. If
//! the process dies *between* the manifest swap and the truncation,
//! recovery still converges: replay skips every record whose LSN is `<=`
//! the manifest's `last_lsn`, so pre-checkpoint frames left in the log are
//! no-ops.
//!
//! ## Recovery invariants
//!
//! [`DurableStore::open`] yields exactly the committed prefix: checkpoint
//! state, plus every fully-written post-checkpoint record, in append order.
//! Row ids are stable across recovery (segments preserve tombstone slots
//! and replayed inserts re-allocate the same slot), so `Update`/`Delete`
//! records always land on the row they journaled.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::manifest::{self, Manifest, SegmentEntry};
use crate::persist;
use crate::schema::Schema;
use crate::segment::{self, read_u32, read_u64, read_u8, read_value, take, write_value};
use crate::table::RowId;
use crate::value::Value;

/// Map a triggered failpoint into the storage error domain. Injected
/// faults surface as [`DbError::Io`] — the same class a real disk failure
/// produces — so error classification above (retry, HTTP 503) treats them
/// identically.
fn chaos_err(e: odbis_chaos::FailpointError) -> DbError {
    DbError::Io(e.to_string())
}

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a committed record survives power loss.
    Always,
    /// Never `fsync` explicitly: records survive a process crash (the OS
    /// holds the page cache) but not necessarily power loss. The default,
    /// and ~2 orders of magnitude faster.
    #[default]
    Never,
}

impl FsyncPolicy {
    /// Parse a `durability.fsync` config value (`"always"` / `"never"`,
    /// case-insensitive); anything else falls back to [`FsyncPolicy::Never`].
    pub fn parse(s: &str) -> FsyncPolicy {
        if s.eq_ignore_ascii_case("always") {
            FsyncPolicy::Always
        } else {
            FsyncPolicy::Never
        }
    }

    /// The config spelling of this policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// One journaled mutation. The log replays these against a recovering
/// [`Database`] in LSN order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Full declared schema.
        schema: Schema,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Row insert. `row` is the stored, coerced image; replay runs it
    /// through schema coercion again (coercion is idempotent, so the stored
    /// row comes out the same) and re-allocates the same slot because
    /// inserts always take the next one.
    Insert {
        /// Table name.
        table: String,
        /// Row as the table stored it.
        row: Vec<Value>,
    },
    /// All inserts of one multi-row statement, group-committed as a single
    /// record — one frame, one table name — instead of a frame per row.
    /// Replay inserts the rows in order, all or none, so they take the
    /// same slots the original statement did.
    InsertMany {
        /// Table name.
        table: String,
        /// Stored row images in slot order, like [`WalRecord::Insert`].
        rows: Vec<Vec<Value>>,
    },
    /// Row update in place.
    Update {
        /// Table name.
        table: String,
        /// Slot being replaced.
        id: RowId,
        /// New coerced row image.
        row: Vec<Value>,
    },
    /// Row delete.
    Delete {
        /// Table name.
        table: String,
        /// Slot being tombstoned.
        id: RowId,
    },
    /// `TRUNCATE`-style full clear (ETL replace loads).
    Truncate {
        /// Table name.
        table: String,
    },
    /// `CREATE INDEX`.
    CreateIndex {
        /// Table name.
        table: String,
        /// Index name.
        name: String,
        /// Indexed column names, in order.
        columns: Vec<String>,
        /// Whether duplicate keys are rejected.
        unique: bool,
    },
    /// `DROP INDEX`.
    DropIndex {
        /// Table name.
        table: String,
        /// Index name.
        name: String,
    },
}

const OP_CREATE_TABLE: u8 = 1;
const OP_DROP_TABLE: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_INSERT_MANY: u8 = 4;
const OP_UPDATE: u8 = 5;
const OP_DELETE: u8 = 6;
// 7 is unassigned: it decodes as an unknown op
const OP_TRUNCATE: u8 = 8;
const OP_CREATE_INDEX: u8 = 9;
const OP_DROP_INDEX: u8 = 10;

/// Append the binary encoding of `record` to `out` — the byte format of a
/// WAL frame payload (layout in the module docs).
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    fn put_row(out: &mut Vec<u8>, row: &[Value]) {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            write_value(out, v);
        }
    }
    // every record opens with its op byte and the table it names
    let (op, table) = match record {
        WalRecord::CreateTable { name, .. } => (OP_CREATE_TABLE, name),
        WalRecord::DropTable { name } => (OP_DROP_TABLE, name),
        WalRecord::Insert { table, .. } => (OP_INSERT, table),
        WalRecord::InsertMany { table, .. } => (OP_INSERT_MANY, table),
        WalRecord::Update { table, .. } => (OP_UPDATE, table),
        WalRecord::Delete { table, .. } => (OP_DELETE, table),
        WalRecord::Truncate { table } => (OP_TRUNCATE, table),
        WalRecord::CreateIndex { table, .. } => (OP_CREATE_INDEX, table),
        WalRecord::DropIndex { table, .. } => (OP_DROP_INDEX, table),
    };
    out.push(op);
    put_str(out, table);
    match record {
        WalRecord::CreateTable { schema, .. } => {
            put_str(out, &segment::schema_to_json(schema).to_string())
        }
        WalRecord::Insert { row, .. } => put_row(out, row),
        WalRecord::InsertMany { rows, .. } => {
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                put_row(out, row);
            }
        }
        WalRecord::Update { id, row, .. } => {
            out.extend_from_slice(&id.to_le_bytes());
            put_row(out, row);
        }
        WalRecord::Delete { id, .. } => out.extend_from_slice(&id.to_le_bytes()),
        WalRecord::CreateIndex {
            name,
            columns,
            unique,
            ..
        } => {
            put_str(out, name);
            out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
            for c in columns {
                put_str(out, c);
            }
            out.push(*unique as u8);
        }
        WalRecord::DropIndex { name, .. } => put_str(out, name),
        WalRecord::DropTable { .. } | WalRecord::Truncate { .. } => {}
    }
}

/// Decode one [`encode_record`] payload, which must be consumed exactly.
/// Total and bounded: any byte string yields `Ok` or [`DbError::Corrupt`],
/// and a count field is checked against the bytes left before anything is
/// reserved for it.
pub fn decode_record(bytes: &[u8]) -> DbResult<WalRecord> {
    type Item<T> = fn(&[u8], &mut usize) -> DbResult<T>;
    /// A `u32` count, then that many items of at least `min` bytes each;
    /// a count the rest of the payload cannot hold is refused up front.
    fn list<T>(b: &[u8], p: &mut usize, min: usize, item: Item<T>) -> DbResult<Vec<T>> {
        let n = read_u32(b, p, "count")? as usize;
        if n > (b.len() - *p) / min {
            let left = b.len() - *p;
            return Err(DbError::Corrupt(format!(
                "count {n} exceeds the {left} bytes left"
            )));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(b, p)?);
        }
        Ok(items)
    }
    fn text(b: &[u8], p: &mut usize) -> DbResult<String> {
        let len = read_u32(b, p, "string length")? as usize;
        std::str::from_utf8(take(b, p, len, "string")?)
            .map(str::to_string)
            .map_err(|_| DbError::Corrupt("string not UTF-8".into()))
    }
    fn row(b: &[u8], p: &mut usize) -> DbResult<Vec<Value>> {
        list(b, p, 1, read_value)
    }
    let (b, p) = (bytes, &mut 0usize);
    let op = read_u8(b, p, "op")?;
    if !matches!(op, OP_CREATE_TABLE..=OP_DELETE | OP_TRUNCATE..=OP_DROP_INDEX) {
        return Err(DbError::Corrupt(format!("unknown wal op {op}")));
    }
    let table = text(b, p)?;
    let record = match op {
        OP_CREATE_TABLE => WalRecord::CreateTable {
            name: table,
            schema: segment::schema_from_text(&text(b, p)?)?,
        },
        OP_DROP_TABLE => WalRecord::DropTable { name: table },
        OP_INSERT => WalRecord::Insert {
            table,
            row: row(b, p)?,
        },
        OP_INSERT_MANY => WalRecord::InsertMany {
            table,
            rows: list(b, p, 4, row)?,
        },
        OP_UPDATE => WalRecord::Update {
            table,
            id: read_u64(b, p, "row id")?,
            row: row(b, p)?,
        },
        OP_DELETE => WalRecord::Delete {
            table,
            id: read_u64(b, p, "row id")?,
        },
        OP_TRUNCATE => WalRecord::Truncate { table },
        OP_CREATE_INDEX => WalRecord::CreateIndex {
            table,
            name: text(b, p)?,
            columns: list(b, p, 4, text)?,
            unique: match read_u8(b, p, "unique flag")? {
                0 => false,
                1 => true,
                other => return Err(DbError::Corrupt(format!("unique flag {other}"))),
            },
        },
        OP_DROP_INDEX => WalRecord::DropIndex {
            table,
            name: text(b, p)?,
        },
        _ => unreachable!("op {op} was range-checked above"),
    };
    if *p != b.len() {
        let extra = b.len() - *p;
        return Err(DbError::Corrupt(format!("{extra} bytes after the record")));
    }
    Ok(record)
}

/// Destination for journaled mutations. [`Database::set_wal_sink`] attaches
/// one; [`Wal`] is the file-backed implementation, and higher layers can
/// wrap it (e.g. to meter appended bytes into telemetry).
pub trait WalSink: Send + Sync {
    /// Persist the records of one statement as a unit — group commit: [`Wal`]
    /// writes them with one `write_all` and at most one fsync. Called in
    /// apply order, under the write lock of every table the statement
    /// names, so implementations need not re-order. An `Err` rolls the
    /// statement back (see [`Database::write_tables`]), so a sink must not
    /// keep records it refused.
    fn append(&self, records: &[WalRecord]) -> DbResult<()>;
}

/// Point-in-time counters for one [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the log was opened.
    pub appends: u64,
    /// Bytes appended since the log was opened.
    pub bytes: u64,
    /// Current log file length in bytes.
    pub file_len: u64,
    /// LSN the next append will be stamped with.
    pub next_lsn: u64,
}

/// An append-only, checksummed log file.
pub struct Wal {
    path: PathBuf,
    policy: FsyncPolicy,
    file: Mutex<File>,
    next_lsn: AtomicU64,
    appends: AtomicU64,
    bytes: AtomicU64,
    file_len: AtomicU64,
    // Set when a failed append's bytes could not be cut back off; every
    // later append is refused so none lands after them.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("next_lsn", &self.next_lsn.load(Ordering::Relaxed))
            .field("file_len", &self.file_len.load(Ordering::Relaxed))
            .finish()
    }
}

impl Wal {
    /// Open (creating if absent) the log at `path`, positioned to append.
    /// `next_lsn` seeds the LSN counter — recovery passes one past the
    /// highest LSN it has seen so the sequence stays strictly increasing
    /// across restarts and checkpoints.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy, next_lsn: u64) -> DbResult<Wal> {
        odbis_chaos::check("wal.open").map_err(chaos_err)?;
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            path,
            policy,
            file: Mutex::new(file),
            next_lsn: AtomicU64::new(next_lsn.max(1)),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            file_len: AtomicU64::new(len),
            poisoned: AtomicBool::new(false),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Append one record, returning the number of bytes written (frame
    /// included). The record is on disk (per the fsync policy) when this
    /// returns.
    pub fn append_record(&self, record: &WalRecord) -> DbResult<u64> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Group commit: append every record in one buffer with a single
    /// write (and a single fsync under `Always`). Frames are encoded into
    /// the buffer before the file lock is taken — only the LSN and CRC
    /// header fields are filled in under it, so file order == LSN order
    /// still holds without serializing the encode work. Returns the total
    /// bytes written.
    ///
    /// An `Err` leaves the log as it was: bytes that reached the file
    /// before the write or fsync failed are truncated away and their LSNs
    /// handed back. If that truncation fails too, the log is poisoned and
    /// every later append errors until the store is reopened, whose
    /// recovery repairs the tail — so no append ever lands after bytes of
    /// a refused one.
    pub fn append_batch(&self, records: &[WalRecord]) -> DbResult<u64> {
        if records.is_empty() {
            return Ok(0);
        }
        let mut buf = Vec::with_capacity(records.len() * 128);
        let mut starts = Vec::with_capacity(records.len());
        for record in records {
            let start = buf.len();
            starts.push(start);
            buf.extend_from_slice(&[0u8; 16]); // len+crc+lsn placeholder
            encode_record(&mut buf, record);
            let payload_len = buf.len() - start - 16;
            buf[start..start + 4].copy_from_slice(&((8 + payload_len) as u32).to_le_bytes());
        }
        // LSN assignment under the file lock: file order == LSN order.
        let mut file = self.file.lock();
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(DbError::Io(format!(
                "{}: an earlier append failed and could not be undone; \
                 reopen the store to repair the log",
                self.path.display()
            )));
        }
        let first = self
            .next_lsn
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(buf.len());
            buf[start + 8..start + 16].copy_from_slice(&(first + i as u64).to_le_bytes());
            let crc = crc32(&buf[start + 8..end]);
            buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        }
        if let Err(e) = self.write_frames(&mut file, &buf) {
            // Refused: take back the LSNs, and the bytes unless the write
            // already poisoned the log.
            self.next_lsn.store(first, Ordering::Relaxed);
            if !self.poisoned.load(Ordering::Relaxed) && self.truncate_to(&file).is_err() {
                self.poisoned.store(true, Ordering::Relaxed);
            }
            return Err(e);
        }
        let n = buf.len() as u64;
        self.appends
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(n, Ordering::Relaxed);
        self.file_len.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Write `buf` and, under `Always`, fsync it (file lock held).
    fn write_frames(&self, file: &mut File, buf: &[u8]) -> DbResult<()> {
        odbis_chaos::check("wal.write").map_err(chaos_err)?;
        if odbis_chaos::triggered("wal.write.short") {
            // Torn write: half the buffer reaches the disk, then the device
            // fails — so cutting the half frame back off fails as well. The
            // log is poisoned and the torn tail left for recovery to repair.
            let half = buf.len() / 2;
            let _ = file.write_all(&buf[..half]);
            self.file_len.fetch_add(half as u64, Ordering::Relaxed);
            self.poisoned.store(true, Ordering::Relaxed);
            return Err(DbError::Io("injected failpoint wal.write.short".into()));
        }
        file.write_all(buf)?;
        odbis_chaos::check("wal.fsync").map_err(chaos_err)?;
        if self.policy == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Cut the file back to the length before the append that just failed
    /// (file lock held; the length counter only moves on success).
    fn truncate_to(&self, file: &File) -> DbResult<()> {
        file.set_len(self.file_len.load(Ordering::Relaxed))?;
        if self.policy == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Highest LSN assigned so far (0 if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed) - 1
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            file_len: self.file_len.load(Ordering::Relaxed),
            next_lsn: self.next_lsn.load(Ordering::Relaxed),
        }
    }

    /// Truncate the log to empty (checkpoint has folded it into
    /// segments). The LSN counter keeps running — LSNs are never reused.
    /// Returns the number of bytes discarded.
    fn reset(&self) -> DbResult<u64> {
        odbis_chaos::check("wal.reset").map_err(chaos_err)?;
        let file = self.file.lock();
        file.set_len(0)?;
        if self.policy == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(self.file_len.swap(0, Ordering::Relaxed))
    }
}

impl WalSink for Wal {
    fn append(&self, records: &[WalRecord]) -> DbResult<()> {
        self.append_batch(records).map(drop)
    }
}

/// One decoded log frame.
#[derive(Debug, Clone)]
pub struct WalEntry {
    /// The frame's log sequence number.
    pub lsn: u64,
    /// The journaled mutation.
    pub record: WalRecord,
    /// Byte offset one past this frame (== valid prefix length through it).
    pub end_offset: u64,
}

/// Largest frame `len` field recovery will believe. A corrupted length
/// past this is treated as a torn tail instead of a gigabyte allocation.
const MAX_FRAME_LEN: u32 = 64 << 20;

/// How to carry a store from the JSON era (a `snapshot.json`, or frames
/// whose payload is JSON text) forward; the segment format is unchanged.
const UPGRADE_HINT: &str = "to upgrade, open the directory once with a build at commit a759f95 \
     and checkpoint it, which folds the log into segments this build reads";

/// Read every committed frame of the log at `path`, returning the decoded
/// entries and the length of the valid prefix. A missing file reads as
/// empty. Torn bytes after the last committed frame are *not* an error —
/// they are the expected shape of a crash mid-append — and simply end the
/// scan. A frame whose CRC verifies but whose payload does not decode is
/// [`DbError::Corrupt`] naming its LSN and byte offset.
pub fn read_wal(path: impl AsRef<Path>) -> DbResult<(Vec<WalEntry>, u64)> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if !(8..=MAX_FRAME_LEN).contains(&len) {
            break;
        }
        let body_start = pos + 8;
        let Some(body) = bytes.get(body_start..body_start + len as usize) else {
            break; // incomplete final frame
        };
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if crc32(body) != crc {
            break;
        }
        let lsn = u64::from_le_bytes(body[..8].try_into().unwrap());
        let record = decode_record(&body[8..]).map_err(|e| {
            let why = match e {
                DbError::Corrupt(m) => m,
                other => other.to_string(),
            };
            DbError::Corrupt(format!(
                "{}: frame at lsn {lsn} (byte offset {pos}) passes its CRC but does not \
                 decode ({why}); it is damage or a log from the JSON era, nothing was \
                 truncated; {UPGRADE_HINT}",
                path.display()
            ))
        })?;
        pos = body_start + len as usize;
        entries.push(WalEntry {
            lsn,
            record,
            end_offset: pos as u64,
        });
    }
    Ok((entries, pos as u64))
}

/// Apply one recovered record to a database. Used during replay — and by
/// differential tests that rebuild reference state — against a database
/// with no sink attached, so nothing is re-journaled.
pub fn replay_record(db: &Database, record: &WalRecord) -> DbResult<()> {
    match record {
        WalRecord::CreateTable { name, schema } => db.create_table(name, schema.clone()),
        WalRecord::DropTable { name } => db.drop_table(name),
        WalRecord::Insert { table, row } => db.insert(table, row.clone()).map(drop),
        WalRecord::InsertMany { table, rows } => {
            db.write_table(table, |t| t.insert_all(rows.clone()))
        }
        WalRecord::Update { table, id, row } => {
            db.write_table(table, |t| t.update(*id, row.clone()))
        }
        WalRecord::Delete { table, id } => db.write_table(table, |t| t.delete(*id)),
        WalRecord::Truncate { table } => db.truncate(table),
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            db.write_table(table, |t| t.create_index(name, &cols, *unique))
        }
        WalRecord::DropIndex { table, name } => db.write_table(table, |t| t.drop_index(name)),
    }
}

/// Result of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Tables captured in the checkpoint cut.
    pub tables: usize,
    /// Tables actually re-encoded to disk: only those dirty since the
    /// last checkpoint.
    pub tables_flushed: usize,
    /// Log bytes folded into the checkpoint and discarded.
    pub wal_bytes_folded: u64,
    /// Wall time the checkpoint took, in microseconds.
    pub micros: u64,
}

const MANIFEST_FILE: &str = "manifest.json";

/// A byte-level copy of a store's checkpoint artifact, produced by
/// [`DurableStore::export_checkpoint`] for shipping to another node
/// during tenant migration. The files are verbatim on-disk bytes —
/// CRC framing included — so the importer's normal recovery path
/// re-validates everything it lays down.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// The artifact's fold LSN: WAL records above this are *not* in the
    /// image and must be shipped separately as a [`WalTail`].
    pub last_lsn: u64,
    /// `(file name, raw bytes)` pairs relative to the store directory —
    /// the manifest plus its segments. Empty
    /// when the store has never checkpointed (`last_lsn` is then 0 and
    /// the WAL tail carries the whole history).
    pub files: Vec<(String, Vec<u8>)>,
}

/// A contiguous run of raw WAL frames above some LSN, produced by
/// [`DurableStore::export_wal_tail`]. Laid down verbatim as the target
/// store's `wal.log`, recovery replays it on top of the shipped
/// [`CheckpointImage`].
#[derive(Debug, Clone)]
pub struct WalTail {
    /// Raw frame bytes, ready to become a `wal.log` file.
    pub bytes: Vec<u8>,
    /// LSN of the first frame in `bytes` (0 when empty).
    pub first_lsn: u64,
    /// LSN of the last frame in `bytes` (0 when empty).
    pub last_lsn: u64,
    /// Number of frames in `bytes`.
    pub frames: u64,
}

/// A checkpoint + log pair rooted in one directory: the durable home of
/// one tenant's warehouse. The checkpoint artifact is `manifest.json` plus
/// immutable `seg-*.seg` columnar segment files; `wal.log` sits alongside.
pub struct DurableStore {
    dir: PathBuf,
    wal: Arc<Wal>,
    /// Live segments as of the last successful manifest swap (or of
    /// recovery). `None` until the first checkpoint, which therefore
    /// flushes every table.
    manifest: Mutex<Option<Manifest>>,
    /// Next segment id to allocate. Monotonic, never reused, so a fresh
    /// segment can never collide with a crash-orphaned file.
    seg_counter: AtomicU64,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("wal", &self.wal)
            .finish()
    }
}

impl DurableStore {
    /// Recover the database persisted under `dir` (created if absent):
    /// load the checkpoint — columnar segments via `manifest.json` — then
    /// replay every committed `wal.log` record with a newer LSN, truncate
    /// any torn tail, and open the log for appending.
    ///
    /// A directory from the JSON era — one holding a `snapshot.json`, or a
    /// log whose committed frames do not decode — is refused with
    /// [`DbError::Corrupt`] naming the file or LSN, before any file is
    /// touched; the message says how to upgrade it.
    ///
    /// The returned [`Database`] is *not* yet journaled — the caller
    /// attaches a sink (plain [`DurableStore::wal`] or a metering wrapper)
    /// via [`Database::set_wal_sink`] once it has wrapped it as needed.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> DbResult<(Database, DurableStore)> {
        odbis_chaos::check("store.open").map_err(chaos_err)?;
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let snapshot = dir.join("snapshot.json");
        if snapshot.exists() {
            return Err(DbError::Corrupt(format!(
                "{} is a JSON-era checkpoint this build does not read; {UPGRADE_HINT}",
                snapshot.display()
            )));
        }
        let manifest_path = dir.join(MANIFEST_FILE);
        let wal_path = dir.join("wal.log");
        let live_manifest = if manifest_path.exists() {
            Some(manifest::load_manifest(&manifest_path)?)
        } else {
            None
        };
        let db = Database::new();
        for entry in live_manifest.iter().flat_map(|m| &m.tables) {
            let (table, _seg_lsn) = segment::read_segment(&dir.join(&entry.file))?;
            if !table.name.eq_ignore_ascii_case(&entry.table) {
                return Err(DbError::Corrupt(format!(
                    "segment {} holds table '{}' but the manifest says '{}'",
                    entry.file, table.name, entry.table
                )));
            }
            db.adopt_table(table)?;
        }
        let snap_lsn = live_manifest.as_ref().map_or(0, |m| m.last_lsn);
        let next_seg_id = live_manifest.as_ref().map_or(1, |m| m.next_seg_id);
        let (entries, valid_len) = read_wal(&wal_path)?;
        let mut max_lsn = snap_lsn;
        for entry in &entries {
            max_lsn = max_lsn.max(entry.lsn);
            if entry.lsn <= snap_lsn {
                continue; // already folded into the checkpoint
            }
            replay_record(&db, &entry.record).map_err(|e| {
                DbError::Corrupt(format!(
                    "wal replay failed at lsn {}: {e} ({})",
                    entry.lsn,
                    wal_path.display()
                ))
            })?;
        }
        // Repair the torn tail so the next append starts at a frame boundary.
        // The `wal.repair.skip` failpoint disarms this guard: the chaos
        // suite uses it to prove that *without* the repair, appends land
        // after torn bytes and committed writes are lost — i.e. that the
        // durability invariant checks have teeth.
        if let Ok(meta) = std::fs::metadata(&wal_path) {
            if meta.len() > valid_len && !odbis_chaos::triggered("wal.repair.skip") {
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(valid_len)?;
                f.sync_data()?;
            }
        }
        let wal = Wal::open(&wal_path, policy, max_lsn + 1)?;
        let store = DurableStore {
            dir,
            wal: Arc::new(wal),
            manifest: Mutex::new(live_manifest),
            seg_counter: AtomicU64::new(next_seg_id),
        };
        Ok((db, store))
    }

    /// The directory holding the checkpoint artifacts and `wal.log`.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The log, for attaching as a sink (possibly wrapped).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The live segment manifest after the last checkpoint or recovery.
    /// `None` when the store has never checkpointed.
    pub fn live_manifest(&self) -> Option<Manifest> {
        self.manifest.lock().clone()
    }

    /// Fold the log into the checkpoint artifact and truncate it.
    ///
    /// Runs with the catalog read lock plus every table's read lock held
    /// (canonical acquisition order): appends happen under a table's write
    /// lock, so once the read locks are held no append is in flight and
    /// the artifact, the LSN stamp, and the truncation see one consistent
    /// cut of the history. Crash-safe at every step — the checkpoint
    /// commits through one fsynced atomic rename (`persist`'s
    /// write-tmp/fsync/rename/fsync-dir discipline), and a crash before
    /// the truncation just leaves already-folded frames that replay as
    /// no-ops (their LSNs are `<=` the artifact's `last_lsn`).
    ///
    /// The checkpoint is *incremental*: only tables dirty since the last
    /// flush are re-encoded; clean tables' immutable segments are carried
    /// over by reference. A carried-over segment stamped at an older LSN
    /// is still a valid image at the new cut precisely because its table
    /// has no mutation in between — the WAL can hold no record for it
    /// above the old stamp. The manifest rename is the single commit
    /// point: until it lands, recovery sees the previous manifest and the
    /// previous (still intact) segments.
    pub fn checkpoint(&self, db: &Database) -> DbResult<CheckpointReport> {
        odbis_chaos::check("checkpoint.begin").map_err(chaos_err)?;
        let start = Instant::now();
        let manifest_path = self.dir.join(MANIFEST_FILE);
        db.with_tables_marked(|views| {
            // The cut: read only after every table read lock is held.
            let cut = self.wal.last_lsn();
            let mut live = self.manifest.lock();
            let mut tables = Vec::with_capacity(views.len());
            let mut flushed = 0usize;
            for v in views {
                let prev = live.as_ref().and_then(|m| m.entry(&v.table.name));
                match prev {
                    Some(e) if !v.dirty.load(Ordering::Relaxed) => tables.push(e.clone()),
                    _ => {
                        let id = self.seg_counter.fetch_add(1, Ordering::Relaxed);
                        let file = format!("seg-{id:08}.seg");
                        let bytes = segment::write_segment(v.table, &self.dir.join(&file), cut)?;
                        tables.push(SegmentEntry {
                            table: v.table.name.clone(),
                            file,
                            last_lsn: cut,
                            bytes,
                        });
                        flushed += 1;
                    }
                }
            }
            let next = Manifest {
                last_lsn: cut,
                next_seg_id: self.seg_counter.load(Ordering::Relaxed),
                tables,
            };
            // The commit point: one fsynced atomic rename.
            manifest::write_manifest(&next, &manifest_path)?;
            // Committed. Everything below is cleanup a crash can skip:
            // recovery redoes it from the swapped manifest.
            for v in views {
                v.dirty.store(false, Ordering::Relaxed);
            }
            let keep: Vec<String> = next.tables.iter().map(|e| e.file.clone()).collect();
            *live = Some(next);
            drop(live);
            self.remove_unreferenced_segments(&keep);
            let folded = self.wal.reset()?;
            Ok(CheckpointReport {
                tables: views.len(),
                tables_flushed: flushed,
                wal_bytes_folded: folded,
                micros: start.elapsed().as_micros() as u64,
            })
        })
    }

    /// Export the current checkpoint artifact as a byte-level image for
    /// shipping to another node: the raw `manifest.json` plus every
    /// referenced `seg-*.seg` file, stamped with the artifact's fold LSN. Together with the
    /// WAL tail above that stamp ([`DurableStore::export_wal_tail`]) the
    /// image reproduces the store exactly.
    ///
    /// The manifest lock is held while the files are read, so a concurrent
    /// checkpoint cannot swap the manifest out from under the export;
    /// segment GC racing the read surfaces as an I/O error the caller
    /// retries after its own checkpoint.
    pub fn export_checkpoint(&self) -> DbResult<CheckpointImage> {
        odbis_chaos::check("migrate.export.image").map_err(chaos_err)?;
        let live = self.manifest.lock();
        let Some(m) = live.as_ref() else {
            // never checkpointed: the WAL alone is the whole history
            return Ok(CheckpointImage {
                last_lsn: 0,
                files: Vec::new(),
            });
        };
        let mut files = Vec::with_capacity(m.tables.len() + 1);
        files.push((
            MANIFEST_FILE.to_string(),
            std::fs::read(self.dir.join(MANIFEST_FILE))?,
        ));
        for entry in &m.tables {
            files.push((
                entry.file.clone(),
                std::fs::read(self.dir.join(&entry.file))?,
            ));
        }
        Ok(CheckpointImage {
            last_lsn: m.last_lsn,
            files,
        })
    }

    /// The fold LSN of the current checkpoint artifact — the stamp
    /// [`DurableStore::export_checkpoint`] would put on an image exported
    /// right now (0 when the store has never checkpointed). Migration
    /// re-reads this under the drained write fence to detect a checkpoint
    /// that raced the ship phase: such a checkpoint truncated the WAL at
    /// a newer cut, so the frames between the shipped image's stamp and
    /// the new cut survive only in the newer artifact and the image must
    /// be re-exported before the final tail.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.manifest.lock().as_ref().map_or(0, |m| m.last_lsn)
    }

    /// Export every committed WAL frame with LSN strictly greater than
    /// `after_lsn`, as raw frame bytes ready to lay down in the target's
    /// `wal.log`. Frames are LSN-ordered in the file, so the tail is a
    /// contiguous byte suffix of the valid prefix; CRC framing travels
    /// with the bytes, and the importer's recovery re-verifies every frame.
    /// A torn tail (export racing an in-flight append) simply ends the
    /// scan — the cutover-time export runs drained, so the final tail is
    /// always complete.
    pub fn export_wal_tail(&self, after_lsn: u64) -> DbResult<WalTail> {
        odbis_chaos::check("migrate.export.tail").map_err(chaos_err)?;
        let (entries, valid_len) = read_wal(self.wal.path())?;
        let mut start = 0u64;
        let mut first_lsn = 0u64;
        let mut last_lsn = 0u64;
        let mut frames = 0u64;
        for e in &entries {
            if e.lsn <= after_lsn {
                start = e.end_offset;
                continue;
            }
            if first_lsn == 0 {
                first_lsn = e.lsn;
            }
            last_lsn = e.lsn;
            frames += 1;
        }
        let bytes = if frames == 0 {
            Vec::new()
        } else {
            let all = std::fs::read(self.wal.path())?;
            all.get(start as usize..valid_len as usize)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| DbError::Io("wal shrank during tail export".into()))?
        };
        Ok(WalTail {
            bytes,
            first_lsn,
            last_lsn,
            frames,
        })
    }

    /// Stage an exported checkpoint image plus WAL tail into `dir` — the
    /// target node's (not yet opened) store directory. Any artifact from
    /// a previous attempt is removed first so a retried migration can
    /// never mix two generations; after staging,
    /// [`DurableStore::open`] on `dir` recovers exactly the
    /// shipped state (frame CRCs re-verified by [`read_wal`], segment
    /// block CRCs by the segment reader).
    pub fn import_image(
        dir: impl AsRef<Path>,
        image: &CheckpointImage,
        tail: &[u8],
    ) -> DbResult<()> {
        odbis_chaos::check("migrate.import.stage").map_err(chaos_err)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for leftover in std::fs::read_dir(dir)?.flatten() {
            let name = leftover.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == MANIFEST_FILE
                || name == "wal.log"
                || (name.starts_with("seg-") && name.ends_with(".seg"))
            {
                std::fs::remove_file(leftover.path())?;
            }
        }
        // Dependency order, made durable as we go: segments and the WAL
        // tail are written and fsynced (files, then the directory) before
        // the artifact head (the manifest) is written, then the
        // head itself is fsynced the same way. The head is what recovery
        // trusts, so it must never become durable before the bytes it
        // references — a crash mid-stage leaves either no head (recovery
        // sees an empty store and the migration retries) or a head whose
        // segments and tail are all fully on disk.
        let is_head = |n: &str| n == MANIFEST_FILE;
        for (name, bytes) in image.files.iter().filter(|(n, _)| !is_head(n)) {
            write_synced(&dir.join(name), bytes)?;
        }
        write_synced(&dir.join("wal.log"), tail)?;
        persist::fsync_dir(dir)?;
        for (name, bytes) in image.files.iter().filter(|(n, _)| is_head(n)) {
            write_synced(&dir.join(name), bytes)?;
        }
        persist::fsync_dir(dir)?;
        Ok(())
    }

    /// Delete `seg-*.seg` files not named in `keep`. Best-effort: an
    /// unreferenced leftover is invisible to recovery, so GC failure must
    /// not fail an already-committed checkpoint.
    fn remove_unreferenced_segments(&self, keep: &[String]) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("seg-") && name.ends_with(".seg") && !keep.iter().any(|k| k == name)
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// `create` + `write_all` + `sync_all`: one staged file made durable
/// before anything that references it is written.
fn write_synced(path: &Path, bytes: &[u8]) -> DbResult<()> {
    let mut f = std::fs::File::create(path)?;
    std::io::Write::write_all(&mut f, bytes)?;
    f.sync_all()?;
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the same polynomial gzip
/// and PNG use. Table-driven; the table is built once per process.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn tmp_dir(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odbis-wal-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        p
    }

    fn people_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap()
    }

    /// Migration transport round-trip: checkpoint image + WAL tail
    /// shipped into a fresh directory recovers the identical database,
    /// with LSN continuity for further writes.
    #[test]
    fn export_import_round_trip_reproduces_the_store() {
        let src_dir = tmp_dir("mig-src");
        let dst_dir = tmp_dir("mig-dst");
        let (db, store) = DurableStore::open(&src_dir, FsyncPolicy::Never).unwrap();
        db.create_table("people", people_schema()).unwrap();
        store
            .wal()
            .append_record(&WalRecord::CreateTable {
                name: "people".into(),
                schema: people_schema(),
            })
            .unwrap();
        for i in 0..5i64 {
            let row = vec![Value::Int(i), Value::from(format!("pre-{i}"))];
            db.insert("people", row.clone()).unwrap();
            store
                .wal()
                .append_record(&WalRecord::Insert {
                    table: "people".into(),
                    row,
                })
                .unwrap();
        }
        store.checkpoint(&db).unwrap();
        // post-checkpoint writes land only in the WAL tail
        for i in 5..8i64 {
            let row = vec![Value::Int(i), Value::from(format!("post-{i}"))];
            db.insert("people", row.clone()).unwrap();
            store
                .wal()
                .append_record(&WalRecord::Insert {
                    table: "people".into(),
                    row,
                })
                .unwrap();
        }
        let image = store.export_checkpoint().unwrap();
        assert!(image.last_lsn > 0, "checkpoint stamped");
        assert_eq!(image.last_lsn, store.checkpoint_lsn());
        let tail = store.export_wal_tail(image.last_lsn).unwrap();
        assert_eq!(tail.frames, 3, "three post-checkpoint frames");
        assert_eq!(tail.last_lsn, store.wal().last_lsn());
        assert!(tail.first_lsn > image.last_lsn);

        DurableStore::import_image(&dst_dir, &image, &tail.bytes).unwrap();
        let (db2, store2) = DurableStore::open(&dst_dir, FsyncPolicy::Never).unwrap();
        assert_eq!(db2.row_count("people").unwrap(), 8);
        // LSN continuity: the target continues above everything shipped
        let next = store2
            .wal()
            .append_record(&WalRecord::Delete {
                table: "people".into(),
                id: 0,
            })
            .unwrap();
        assert!(next > tail.last_lsn, "{next} > {}", tail.last_lsn);

        // an empty tail (migration right after checkpoint) also works
        let dst2 = tmp_dir("mig-dst2");
        let empty = store.export_wal_tail(store.wal().last_lsn()).unwrap();
        assert_eq!((empty.frames, empty.bytes.len()), (0, 0));
        DurableStore::import_image(&dst2, &image, &empty.bytes).unwrap();
        let (db3, _store3) = DurableStore::open(&dst2, FsyncPolicy::Never).unwrap();
        assert_eq!(db3.row_count("people").unwrap(), 5);
        for d in [&src_dir, &dst_dir, &dst2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A store that has never checkpointed exports an empty image at LSN 0;
    /// the tail alone carries the whole history.
    #[test]
    fn export_before_first_checkpoint_ships_the_whole_wal() {
        let src = tmp_dir("mig-nockpt-src");
        let dst = tmp_dir("mig-nockpt-dst");
        let (db, store) = DurableStore::open(&src, FsyncPolicy::Never).unwrap();
        db.create_table("people", people_schema()).unwrap();
        store
            .wal()
            .append_record(&WalRecord::CreateTable {
                name: "people".into(),
                schema: people_schema(),
            })
            .unwrap();
        let image = store.export_checkpoint().unwrap();
        assert_eq!((image.last_lsn, image.files.len()), (0, 0));
        let tail = store.export_wal_tail(0).unwrap();
        assert_eq!(tail.frames, 1);
        DurableStore::import_image(&dst, &image, &tail.bytes).unwrap();
        let (db2, _s2) = DurableStore::open(&dst, FsyncPolicy::Never).unwrap();
        assert_eq!(db2.row_count("people").unwrap(), 0);
        assert!(db2.table_names().contains(&"people".to_string()));
        for d in [&src, &dst] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never, 1).unwrap();
        wal.append_record(&WalRecord::Truncate { table: "t".into() })
            .unwrap();
        wal.append_record(&WalRecord::Delete {
            table: "t".into(),
            id: 7,
        })
        .unwrap();
        let (entries, valid) = read_wal(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lsn, 1);
        assert_eq!(entries[1].lsn, 2);
        assert_eq!(entries[1].end_offset, valid);
        assert!(matches!(entries[1].record, WalRecord::Delete { id: 7, .. }));
        assert_eq!(wal.stats().appends, 2);
        assert_eq!(wal.stats().file_len, valid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_ends_scan_at_previous_frame() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let wal = Wal::open(&path, FsyncPolicy::Never, 1).unwrap();
        wal.append_record(&WalRecord::Truncate { table: "a".into() })
            .unwrap();
        wal.append_record(&WalRecord::Truncate { table: "b".into() })
            .unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let (entries, _) = read_wal(&path).unwrap();
        let first_end = entries[0].end_offset as usize;
        bytes[first_end + 12] ^= 0xFF; // flip a payload byte of frame 2
        std::fs::write(&path, &bytes).unwrap();
        let (entries, valid) = read_wal(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(valid, first_end as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_recovers_and_journals_new_writes() {
        let dir = tmp_dir("recover");
        {
            let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
            db.create_table("people", people_schema()).unwrap();
            db.insert("people", vec![1.into(), "ana".into()]).unwrap();
            db.insert("people", vec![2.into(), "bo".into()]).unwrap();
        }
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 2);
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.insert("people", vec![3.into(), "cy".into()]).unwrap();
        let (db, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_folds_wal_and_survives_reopen() {
        let dir = tmp_dir("checkpoint");
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.create_table("people", people_schema()).unwrap();
        db.insert("people", vec![1.into(), "ana".into()]).unwrap();
        let report = store.checkpoint(&db).unwrap();
        assert_eq!(report.tables, 1);
        assert!(report.wal_bytes_folded > 0);
        assert_eq!(store.wal().stats().file_len, 0);
        // post-checkpoint writes land in the (now empty) log
        db.insert("people", vec![2.into(), "bo".into()]).unwrap();
        drop(db);
        let (db, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_records_already_in_checkpoint() {
        // Simulate a crash between the manifest swap and wal truncation: the
        // segments hold everything, and the stale log must replay as no-ops.
        let dir = tmp_dir("skip");
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.create_table("people", people_schema()).unwrap();
        db.insert("people", vec![1.into(), "ana".into()]).unwrap();
        let wal_bytes = std::fs::read(store.wal().path()).unwrap();
        store.checkpoint(&db).unwrap();
        // resurrect the pre-checkpoint log
        std::fs::write(store.wal().path(), &wal_bytes).unwrap();
        drop(db);
        let (db, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        // a naive replay would hit TableExists / duplicate pk errors
        assert_eq!(db.row_count("people").unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_checkpoint_is_incremental() {
        let dir = tmp_dir("incremental");
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        for t in ["a", "b", "c"] {
            db.create_table(t, people_schema()).unwrap();
            db.insert(t, vec![1.into(), "seed".into()]).unwrap();
        }
        let first = store.checkpoint(&db).unwrap();
        assert_eq!((first.tables, first.tables_flushed), (3, 3));
        // one dirty table of three → exactly one segment rewritten
        db.insert("b", vec![2.into(), "hot".into()]).unwrap();
        let second = store.checkpoint(&db).unwrap();
        assert_eq!((second.tables, second.tables_flushed), (3, 1));
        let m = store.live_manifest().unwrap();
        assert_eq!(m.tables.len(), 3);
        assert!(m.entry("a").unwrap().last_lsn < m.entry("b").unwrap().last_lsn);
        assert_eq!(m.last_lsn, store.wal().last_lsn());
        // clean tables keep their old segment files; b got a fresh id
        assert!(dir.join(&m.entry("a").unwrap().file).exists());
        // nothing dirty → manifest-only checkpoint
        let third = store.checkpoint(&db).unwrap();
        assert_eq!(third.tables_flushed, 0);
        // recovery from segments + empty wal reproduces the exact state
        drop(db);
        let (back, store2) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.row_count("a").unwrap(), 1);
        assert_eq!(back.row_count("b").unwrap(), 2);
        assert_eq!(store2.live_manifest().unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("ALWAYS"), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never"), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("bogus"), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::Always.as_str(), "always");
    }
}
