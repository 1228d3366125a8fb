//! # odbis-storage
//!
//! The embedded relational storage engine underneath the ODBIS platform —
//! the reproduction's substitute for the PostgreSQL instance in the paper's
//! technical-resources layer (ODBIS, EDBT 2010, Figure 5).
//!
//! Provides:
//!
//! * a single scalar [`Value`] type shared by the whole platform;
//! * typed, constrained [`Schema`]s (NOT NULL, defaults, primary keys);
//! * [`Table`]s stored as column chunks of [`BLOCK_ROWS`] row ids each
//!   (typed columns plus a live bit per slot), with ordered, optionally
//!   unique [`Index`]es;
//! * columnar [`Batch`]es: a scan hands out one per chunk
//!   ([`Table::scan_partitions`]), sharing the chunk's columns when none
//!   of its rows is deleted;
//! * a concurrent [`Database`] catalog whose one unit of change is an
//!   atomic statement over one or more tables ([`Database::write_tables`]);
//! * crash-safe durability: a checksummed write-ahead log with checkpoint
//!   and recovery ([`Wal`] / [`DurableStore`], see the [`wal`] module),
//!   whose records have one binary encoding ([`encode_record`] /
//!   [`decode_records`]);
//! * binary columnar checkpoint segments with CRC-checked encoded blocks,
//!   zone maps, and incremental flushing (the [`segment`] and [`manifest`]
//!   modules) — the one checkpoint format, and the value codec the log
//!   records reuse.
//!
//! ```
//! use odbis_storage::{Column, Database, DataType, Schema, Value};
//!
//! let db = Database::new();
//! let schema = Schema::new(vec![
//!     Column::new("id", DataType::Int),
//!     Column::new("name", DataType::Text).not_null(),
//! ]).unwrap().with_primary_key(&["id"]).unwrap();
//! db.create_table("users", schema).unwrap();
//! db.insert("users", vec![Value::Int(1), Value::from("ada")]).unwrap();
//! assert_eq!(db.row_count("users").unwrap(), 1);
//! ```

#![warn(missing_docs)]

mod batch;
mod database;
mod error;
pub mod manifest;
mod persist;
mod schema;
pub mod segment;
mod table;
mod value;
pub mod wal;

pub use batch::{Batch, ColumnData, ColumnVec, NULL_ROW};
pub use database::Database;
pub use error::{DbError, DbResult};
pub use manifest::{Manifest, SegmentEntry};
pub use schema::{resolve_column, Column, Schema};
pub use segment::{Encoding, BLOCK_ROWS};
pub use table::{Index, RowId, Table};
pub use value::{
    csv_text, date_to_days, days_to_date, is_leap_year, parse_date, parse_timestamp,
    push_csv_field, push_csv_record, push_json_str, DataType, Value,
};
pub use wal::{
    decode_records, encode_record, read_wal, replay_record, CheckpointImage, CheckpointReport,
    DurableStore, FsyncPolicy, Wal, WalEntry, WalRecord, WalSink, WalStats, WalTail,
};
