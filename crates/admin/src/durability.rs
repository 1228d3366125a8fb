//! Durability administration reports: what `GET /api/v1/admin/durability`
//! and `POST /api/v1/admin/checkpoint` answer. The platform fills them in
//! from the tenant's durable store.

/// Point-in-time durability state of one tenant's warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Tenant id.
    pub tenant: String,
    /// Effective fsync policy (`"always"` / `"never"`).
    pub fsync: String,
    /// WAL statements (frames) appended since the log was opened.
    pub wal_appends: u64,
    /// WAL bytes appended since the log was opened.
    pub wal_bytes: u64,
    /// Current WAL file length in bytes.
    pub wal_file_len: u64,
    /// LSN the next append will receive.
    pub next_lsn: u64,
}

/// Result of one administrative checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// Tenant id.
    pub tenant: String,
    /// Tables captured in the checkpoint cut.
    pub tables: usize,
    /// Tables actually re-encoded to disk (fewer than `tables` when an
    /// incremental segment checkpoint skipped clean tables).
    pub tables_flushed: usize,
    /// WAL bytes folded into the checkpoint and discarded.
    pub wal_bytes_folded: u64,
    /// Checkpoint wall time in microseconds.
    pub micros: u64,
}
