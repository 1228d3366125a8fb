//! The database: a named catalog of per-table reader-writer locks, with
//! undo-log transactions.
//!
//! ## Lock model
//!
//! Two lock levels, always acquired top-down:
//!
//! 1. the **catalog lock** (`tables: RwLock<HashMap<..>>`), held only long
//!    enough to resolve a name to its `Arc<RwLock<Table>>` handle (read) or
//!    to run DDL (write);
//! 2. the **per-table locks**, one `RwLock<Table>` per table — statement
//!    execution acquires only the tables it touches.
//!
//! When more than one table lock is held at once (checkpointing,
//! [`Database::read_tables`]), the locks are taken in canonical order —
//! sorted lowercased table name — so two multi-table acquirers can never
//! deadlock. Single-table statements hold one table lock and never re-enter
//! the catalog lock while holding it, so they cannot participate in a cycle
//! at all.
//!
//! A handle resolved under the catalog lock can outlive the table: DDL may
//! drop the table before the statement locks it. The drop path marks the
//! table under its *write* lock ([`Table::mark_dropped`]) after appending
//! the `DropTable` WAL record, so a late statement observes the tombstone
//! and fails with `TableNotFound` instead of journaling mutations that
//! would land after the drop in the log.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::batch::Batch;
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::table::{RowId, Table};
use crate::value::Value;
use crate::wal::{WalRecord, WalSink};

/// An embedded relational database.
///
/// `Database` is `Sync`: share it with `Arc<Database>` across services. All
/// table access goes through closures ([`Database::read_table`] /
/// [`Database::write_table`]) or transactions ([`Database::begin`]).
///
/// Attaching a [`WalSink`] (see [`Database::set_wal_sink`]) journals every
/// mutation — row ops, DDL, index maintenance — in apply order; without
/// one the database is purely in-memory, as before.
#[derive(Default)]
pub struct Database {
    tables: RwLock<HashMap<String, CatalogEntry>>,
    txn_counter: AtomicU64,
    wal_sink: RwLock<Option<Arc<dyn WalSink>>>,
}

/// One catalog slot: the display name (case preserved) plus the table
/// behind its own lock. Keeping the name here lets catalog queries
/// (`table_names`, `has_table`) answer without touching any table lock —
/// a long-running writer must never block name resolution.
///
/// `dirty` tracks whether the table has been mutated since the last
/// successful checkpoint flushed it — the signal incremental checkpoints
/// use to leave clean tables' on-disk segments untouched. It is set under
/// the table's *write* lock (every mutation path) and read/cleared by the
/// checkpointer under the table's *read* lock (which excludes writers), so
/// plain relaxed atomics suffice; the lock provides the ordering.
struct CatalogEntry {
    name: String,
    table: Arc<RwLock<Table>>,
    dirty: Arc<AtomicBool>,
}

/// One table of a consistent checkpoint cut, with its dirty flag so the
/// checkpointer can decide to flush or skip — and mark it clean once the
/// flush has durably committed.
pub(crate) struct TableView<'a> {
    /// The read-locked table.
    pub table: &'a Table,
    /// Mutated since the last successful checkpoint flush?
    pub dirty: &'a AtomicBool,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.read().len())
            .field("journaled", &self.wal_sink.read().is_some())
            .finish()
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Attach a WAL sink: every table is armed to queue records, which are
    /// drained to `sink` (in apply order, under that table's write lock)
    /// as each mutating call returns. Tables created later are armed on
    /// creation.
    pub fn set_wal_sink(&self, sink: Arc<dyn WalSink>) {
        // Catalog write lock: no table can be created (and miss arming)
        // while the sink is being attached.
        let tables = self.tables.write();
        *self.wal_sink.write() = Some(sink);
        for e in tables.values() {
            e.table.write().arm_journal();
        }
    }

    /// Whether a WAL sink is attached.
    pub fn is_journaled(&self) -> bool {
        self.wal_sink.read().is_some()
    }

    fn sink(&self) -> Option<Arc<dyn WalSink>> {
        self.wal_sink.read().clone()
    }

    /// Resolve a name to its table handle. Holds the catalog read lock
    /// only for the lookup; the caller locks the table itself.
    fn handle(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        self.entry(name).map(|(t, _)| t)
    }

    /// Resolve a name to its table handle plus its dirty flag (for the
    /// mutation path, which must mark the table dirty).
    fn entry(&self, name: &str) -> DbResult<(Arc<RwLock<Table>>, Arc<AtomicBool>)> {
        self.tables
            .read()
            .get(&Self::key(name))
            .map(|e| (Arc::clone(&e.table), Arc::clone(&e.dirty)))
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    /// Forward a statement's queued records to the sink as one append and
    /// maintain the dirty flag. Called with that table's write lock still
    /// held, so the log sees the table's mutations in the exact order they
    /// were applied. Records of different tables may interleave in the
    /// log, but they commute on replay — per-table order is the only order
    /// recovery depends on.
    ///
    /// Dirty semantics: with the journal armed, a non-empty pending queue
    /// is the precise "this statement mutated the table" signal. Unjournaled
    /// tables (recovery replay, purely in-memory databases) have no queue,
    /// so any successful write access marks dirty conservatively. The flag
    /// is set only once the append succeeded: a refused append rolls the
    /// statement back, so memory still matches the on-disk segments.
    fn flush_pending(&self, t: &mut Table, dirty: &AtomicBool) -> DbResult<()> {
        if t.journal_armed() {
            let pending = t.take_pending();
            if pending.is_empty() {
                return Ok(());
            }
            if let Some(sink) = self.sink() {
                sink.append(&pending)?;
            }
        }
        dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Whether a table has been mutated since the last checkpoint flush.
    pub fn table_dirty(&self, name: &str) -> DbResult<bool> {
        self.tables
            .read()
            .get(&Self::key(name))
            .map(|e| e.dirty.load(Ordering::Relaxed))
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    /// Create a table. Fails if a table with that name exists.
    pub fn create_table(&self, name: &str, schema: Schema) -> DbResult<()> {
        let mut tables = self.tables.write();
        let key = Self::key(name);
        if tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let mut table = Table::new(name, schema.clone());
        // journal first: a refused append leaves the catalog untouched
        if let Some(sink) = self.sink() {
            sink.append(&[WalRecord::CreateTable {
                name: name.to_string(),
                schema,
            }])?;
            table.arm_journal();
        }
        tables.insert(
            key,
            CatalogEntry {
                name: name.to_string(),
                table: Arc::new(RwLock::new(table)),
                // a table born after the last checkpoint has no segment on
                // disk yet — it is dirty by definition
                dirty: Arc::new(AtomicBool::new(true)),
            },
        );
        Ok(())
    }

    /// Adopt a fully-built table (segment recovery), preserving its row
    /// slots verbatim so journaled row ids stay valid.
    pub(crate) fn adopt_table(&self, table: Table) -> DbResult<()> {
        let mut tables = self.tables.write();
        let key = Self::key(&table.name);
        if tables.contains_key(&key) {
            return Err(DbError::TableExists(table.name.clone()));
        }
        let name = table.name.clone();
        tables.insert(
            key,
            CatalogEntry {
                name,
                table: Arc::new(RwLock::new(table)),
                // adopted tables come straight from a segment, so
                // their on-disk image is current until something mutates
                // them (WAL replay goes through `write_table`, which marks)
                dirty: Arc::new(AtomicBool::new(false)),
            },
        );
        Ok(())
    }

    /// Run `f` with shared access to every table at once — one consistent
    /// cut across the whole database, for checkpointing — handing it each
    /// table's dirty flag alongside the read-locked table, so incremental
    /// checkpoints can skip clean tables and mark flushed ones clean while
    /// the cut is still held (the read locks exclude every writer, so no
    /// mutation can race the clear).
    ///
    /// Holds the catalog read lock (excludes DDL) and acquires every
    /// table's read lock in canonical order (excludes writers table by
    /// table). Because WAL appends happen under a table's write lock, no
    /// append can be in flight once all read locks are held: every LSN the
    /// WAL has assigned corresponds to a mutation visible in this cut.
    pub(crate) fn with_tables_marked<R>(&self, f: impl FnOnce(&[TableView<'_>]) -> R) -> R {
        let catalog = self.tables.read();
        let mut entries: Vec<&CatalogEntry> = catalog.values().collect();
        entries.sort_by(|a, b| Self::key(&a.name).cmp(&Self::key(&b.name)));
        let guards: Vec<parking_lot::RwLockReadGuard<'_, Table>> =
            entries.iter().map(|e| e.table.read()).collect();
        let views: Vec<TableView<'_>> = guards
            .iter()
            .zip(&entries)
            .map(|(g, e)| TableView {
                table: g,
                dirty: &e.dirty,
            })
            .collect();
        f(&views)
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let mut tables = self.tables.write();
        let key = Self::key(name);
        let handle = tables
            .get(&key)
            .map(|e| Arc::clone(&e.table))
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))?;
        // Take the table's write lock before journaling the drop: any
        // in-flight statement finishes (and flushes its records) first, so
        // the DropTable record lands after every record of the table it
        // drops. The tombstone then stops statements holding a stale
        // handle from mutating — or journaling — past the drop. A refused
        // append leaves the table in the catalog.
        let mut t = handle.write();
        if let Some(sink) = self.sink() {
            sink.append(&[WalRecord::DropTable {
                name: name.to_string(),
            }])?;
        }
        t.mark_dropped();
        tables.remove(&key);
        Ok(())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::key(name))
    }

    /// Names of all tables, sorted. Reads only the catalog — never blocks
    /// behind a table writer.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|e| e.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Run `f` with shared access to a table. Only this table's lock is
    /// taken — writers on *other* tables proceed concurrently.
    pub fn read_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> DbResult<R> {
        let handle = self.handle(name)?;
        let t = handle.read();
        if t.is_dropped() {
            return Err(DbError::TableNotFound(name.to_string()));
        }
        Ok(f(&t))
    }

    /// Run `f` with shared access to several tables at once — one
    /// consistent multi-table cut. Locks are acquired in canonical order
    /// (sorted lowercased name), regardless of the order in `names`, so
    /// concurrent multi-table readers and the checkpointer cannot
    /// deadlock; the slice passed to `f` follows the order of `names`.
    pub fn read_tables<R>(&self, names: &[&str], f: impl FnOnce(&[&Table]) -> R) -> DbResult<R> {
        // canonical acquisition order: sorted, deduplicated lowercase names
        let mut uniq: Vec<String> = names.iter().map(|n| Self::key(n)).collect();
        uniq.sort();
        uniq.dedup();
        let handles: Vec<Arc<RwLock<Table>>> = uniq
            .iter()
            .map(|k| self.handle(k))
            .collect::<DbResult<_>>()?;
        let guards: Vec<parking_lot::RwLockReadGuard<'_, Table>> =
            handles.iter().map(|h| h.read()).collect();
        for (k, g) in uniq.iter().zip(&guards) {
            if g.is_dropped() {
                return Err(DbError::TableNotFound(k.clone()));
            }
        }
        // hand the tables back in the caller's order (duplicates share a guard)
        let refs: Vec<&Table> = names
            .iter()
            .map(|n| {
                let k = Self::key(n);
                let j = uniq.iter().position(|u| *u == k).expect("name acquired");
                &*guards[j]
            })
            .collect();
        Ok(f(&refs))
    }

    /// Run `f` with exclusive access to a table as one **statement**:
    /// either every mutation `f` makes is applied and journaled with one
    /// [`WalSink::append`] — one frame per record, one write and at most
    /// one fsync — or, when `f` returns `Err` or the append fails, the
    /// statement is rolled back before the table lock is released and the
    /// table is exactly as it was: same rows, same row ids, same index
    /// entries, nothing handed to the sink. Readers and writers of other
    /// tables are not blocked.
    pub fn write_table<R, E: From<DbError>>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<R, E>,
    ) -> Result<R, E> {
        let (handle, dirty) = self.entry(name)?;
        let mut t = handle.write();
        if t.is_dropped() {
            return Err(DbError::TableNotFound(name.to_string()).into());
        }
        t.begin_statement();
        let result = f(&mut t).and_then(|r| {
            self.flush_pending(&mut t, &dirty)?;
            Ok(r)
        });
        if result.is_ok() {
            t.commit_statement();
        } else {
            t.rollback_statement();
        }
        result
    }

    /// Schema of a table (cloned).
    pub fn table_schema(&self, name: &str) -> DbResult<Schema> {
        self.read_table(name, |t| t.schema().clone())
    }

    /// Insert a row into a table (autocommit).
    pub fn insert(&self, table: &str, row: Vec<Value>) -> DbResult<RowId> {
        self.write_table(table, |t| t.insert(row))
    }

    /// Insert many rows as one statement ([`Table::insert_all`]): all of
    /// them, journaled as one record, or none. Returns the number of rows
    /// inserted.
    pub fn insert_many(&self, table: &str, rows: Vec<Vec<Value>>) -> DbResult<usize> {
        let n = rows.len();
        self.write_table(table, |t| t.insert_all(rows))?;
        Ok(n)
    }

    /// Delete every row of a table (one statement).
    pub fn truncate(&self, table: &str) -> DbResult<()> {
        self.write_table(table, |t| {
            t.truncate();
            Ok(())
        })
    }

    /// Snapshot of all live rows in heap order.
    pub fn scan(&self, table: &str) -> DbResult<Vec<Vec<Value>>> {
        self.read_table(table, |t| t.snapshot())
    }

    /// Columnar snapshot of all live rows (see [`Table::scan_batch`]).
    pub fn scan_batch(&self, table: &str) -> DbResult<Batch> {
        self.read_table(table, |t| t.scan_batch())
    }

    /// Split a table snapshot into morsels for parallel execution (see
    /// [`Table::scan_partitions`]). The table read lock is held for one
    /// acquisition only: every morsel is a slice of the same immutable
    /// `Arc`-shared snapshot, so workers consume them lock-free.
    pub fn scan_partitions(
        &self,
        table: &str,
        cols: Option<&[usize]>,
        morsel_rows: usize,
    ) -> DbResult<Vec<Batch>> {
        self.read_table(table, |t| t.scan_partitions(cols, morsel_rows))
    }

    /// Number of live rows.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        self.read_table(table, |t| t.row_count())
    }

    /// Begin a transaction. All mutations made through the returned [`Txn`]
    /// are undone by [`Txn::rollback`] and made permanent by [`Txn::commit`].
    /// Dropping an uncommitted transaction rolls it back.
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            db: self,
            id: self.txn_counter.fetch_add(1, Ordering::Relaxed) + 1,
            undo: Vec::new(),
            open: true,
        }
    }
}

#[derive(Debug)]
enum Undo {
    Insert {
        table: String,
        id: RowId,
    },
    Update {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
    Delete {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
}

/// An undo-log transaction over a [`Database`].
///
/// The engine serializes writers per table (table-level RwLock), so this is
/// a single-writer transaction model: simple, predictable, and sufficient
/// for the platform's OLTP-light metadata workloads.
#[derive(Debug)]
pub struct Txn<'db> {
    db: &'db Database,
    id: u64,
    undo: Vec<Undo>,
    open: bool,
}

impl<'db> Txn<'db> {
    /// This transaction's sequence number.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn ensure_open(&self) -> DbResult<()> {
        if self.open {
            Ok(())
        } else {
            Err(DbError::TxnClosed)
        }
    }

    /// Transactional insert.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> DbResult<RowId> {
        self.ensure_open()?;
        let id = self.db.insert(table, row)?;
        self.undo.push(Undo::Insert {
            table: table.to_string(),
            id,
        });
        Ok(id)
    }

    /// Transactional update.
    pub fn update(&mut self, table: &str, id: RowId, row: Vec<Value>) -> DbResult<()> {
        self.ensure_open()?;
        let old = self.db.write_table(table, |t| {
            let old = t.get(id)?.to_vec();
            t.update(id, row)?;
            DbResult::Ok(old)
        })?;
        self.undo.push(Undo::Update {
            table: table.to_string(),
            id,
            old,
        });
        Ok(())
    }

    /// Transactional delete.
    pub fn delete(&mut self, table: &str, id: RowId) -> DbResult<()> {
        self.ensure_open()?;
        let old = self.db.write_table(table, |t| {
            let old = t.get(id)?.to_vec();
            t.delete(id)?;
            DbResult::Ok(old)
        })?;
        self.undo.push(Undo::Delete {
            table: table.to_string(),
            id,
            old,
        });
        Ok(())
    }

    /// Make all changes permanent.
    pub fn commit(mut self) -> DbResult<()> {
        self.ensure_open()?;
        self.open = false;
        self.undo.clear();
        Ok(())
    }

    /// Undo all changes, in reverse order.
    pub fn rollback(mut self) -> DbResult<()> {
        self.ensure_open()?;
        self.apply_undo()
    }

    fn apply_undo(&mut self) -> DbResult<()> {
        self.open = false;
        while let Some(entry) = self.undo.pop() {
            match entry {
                Undo::Insert { table, id } => {
                    self.db.write_table(&table, |t| t.delete(id))?;
                }
                Undo::Update { table, id, old } => {
                    self.db.write_table(&table, |t| t.update(id, old))?;
                }
                Undo::Delete { table, id, old } => {
                    self.db.write_table(&table, |t| t.undelete(id, old))?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.open {
            // Best-effort rollback; errors here mean concurrent DDL removed
            // a table mid-transaction, which we cannot repair on drop.
            let _ = self.apply_undo();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    #[derive(Default)]
    struct CaptureSink(parking_lot::Mutex<Vec<WalRecord>>);

    impl WalSink for CaptureSink {
        fn append(&self, records: &[WalRecord]) -> DbResult<()> {
            self.0.lock().extend_from_slice(records);
            Ok(())
        }
    }

    #[test]
    fn insert_many_group_commits_one_wal_record() {
        let db = db_with_t();
        let sink = Arc::new(CaptureSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        db.insert_many(
            "t",
            (0..5)
                .map(|i| vec![Value::Int(i), Value::from("x")])
                .collect(),
        )
        .unwrap();
        // single-row statements still journal plain inserts
        db.insert("t", vec![Value::Int(9), Value::from("y")])
            .unwrap();
        let records = sink.0.lock();
        assert_eq!(records.len(), 2);
        match &records[0] {
            WalRecord::InsertMany { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 5);
            }
            other => panic!("expected InsertMany, got {other:?}"),
        }
        assert!(matches!(&records[1], WalRecord::Insert { .. }));
    }

    /// Accepts appends until `refuse` is set, then fails them like a full
    /// disk.
    #[derive(Default)]
    struct RefusingSink {
        refuse: AtomicBool,
        accepted: parking_lot::Mutex<Vec<WalRecord>>,
    }

    impl WalSink for RefusingSink {
        fn append(&self, records: &[WalRecord]) -> DbResult<()> {
            if self.refuse.load(Ordering::Relaxed) {
                return Err(DbError::Io("disk full".into()));
            }
            self.accepted.lock().extend_from_slice(records);
            Ok(())
        }
    }

    #[test]
    fn refused_append_rolls_the_statement_back() {
        let db = db_with_t();
        let sink = Arc::new(RefusingSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        db.with_tables_marked(|views| views[0].dirty.store(false, Ordering::Relaxed));
        let rows = db.scan("t").unwrap();
        let accepted = sink.accepted.lock().len();

        sink.refuse.store(true, Ordering::Relaxed);
        let three = (2..5).map(|i| vec![Value::Int(i), "x".into()]).collect();
        assert!(matches!(db.insert_many("t", three), Err(DbError::Io(_))));
        let update = db.write_table("t", |t| t.update(0, vec![1.into(), "b".into()]));
        assert!(matches!(update, Err(DbError::Io(_))));
        assert!(db.truncate("t").is_err());
        let index = db.write_table("t", |t| t.create_index("ix_v", &["v"], false));
        assert!(index.is_err());
        assert!(db.drop_table("t").is_err());
        assert_eq!(
            db.scan("t").unwrap(),
            rows,
            "every refused statement undone"
        );
        db.read_table("t", |t| {
            assert_eq!(t.raw_rows().len(), 1, "no slot left behind");
            assert!(t.index("ix_v").is_none());
        })
        .unwrap();
        assert!(!db.table_dirty("t").unwrap(), "memory still matches disk");
        assert_eq!(sink.accepted.lock().len(), accepted);

        // the refused rows take the same slots once the log accepts them
        sink.refuse.store(false, Ordering::Relaxed);
        let three = (2..5).map(|i| vec![Value::Int(i), "x".into()]).collect();
        assert_eq!(db.insert_many("t", three).unwrap(), 3);
        db.read_table("t", |t| {
            assert_eq!(t.scan().map(|(id, _)| id).collect::<Vec<_>>(), [0, 1, 2, 3])
        })
        .unwrap();
    }

    #[test]
    fn insert_many_is_all_or_nothing_and_journals_one_record() {
        let db = db_with_t();
        db.write_table("t", |t| t.create_index("ix_v", &["v"], false))
            .unwrap();
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        let sink = Arc::new(CaptureSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        let image = || {
            db.read_table("t", |t| {
                let ids: Vec<Vec<RowId>> = t.indexes().iter().map(|i| i.ordered_ids()).collect();
                (t.raw_rows().to_vec(), t.row_count(), ids, t.scan_batch())
            })
            .unwrap()
        };
        let before = image();
        // the third row repeats pk 1: the two rows before it go too
        let rows = |n: i64| (2..2 + n).map(|i| vec![Value::Int(i), "b".into()]);
        let err = db
            .insert_many("t", rows(2).chain([vec![1.into(), "dup".into()]]).collect())
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(image(), before);
        assert!(sink.0.lock().is_empty(), "nothing journaled");
        // the same rows minus the duplicate take the freed slots, as one
        // record
        assert_eq!(db.insert_many("t", rows(2).collect()).unwrap(), 2);
        db.read_table("t", |t| {
            assert_eq!(t.scan().map(|(id, _)| id).collect::<Vec<_>>(), [0, 1, 2])
        })
        .unwrap();
        match sink.0.lock().as_slice() {
            [WalRecord::InsertMany { rows, .. }] => assert_eq!(rows.len(), 2),
            other => panic!("expected one InsertMany, got {other:?}"),
        };
    }

    #[test]
    fn failed_statement_undoes_its_prefix() {
        let db = db_with_t();
        let sink = Arc::new(CaptureSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        db.insert_many(
            "t",
            vec![vec![1.into(), "a".into()], vec![2.into(), "b".into()]],
        )
        .unwrap();
        let before = db.scan("t").unwrap();
        let logged = sink.0.lock().len();
        // the insert collides with row 0's new key, after two mutations
        let err = db
            .write_table("t", |t| {
                t.update(0, vec![3.into(), "a".into()])?;
                t.delete(1)?;
                t.insert(vec![3.into(), "c".into()])
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(db.scan("t").unwrap(), before);
        assert_eq!(sink.0.lock().len(), logged, "nothing journaled");
    }

    fn db_with_t() -> Database {
        let db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Text),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        db.create_table("t", schema).unwrap();
        db
    }

    #[test]
    fn dirty_flags_track_mutations_per_table() {
        let db = db_with_t();
        let schema = db.table_schema("t").unwrap();
        db.create_table("u", schema).unwrap();
        // new tables are born dirty (no segment on disk yet)
        assert!(db.table_dirty("t").unwrap());
        assert!(db.table_dirty("u").unwrap());
        // a checkpoint cut can clear the flags under the read locks
        db.with_tables_marked(|views| {
            for v in views {
                v.dirty.store(false, Ordering::Relaxed);
            }
        });
        assert!(!db.table_dirty("t").unwrap());
        // journaled: only a statement that actually queued records re-marks
        let sink = Arc::new(CaptureSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        db.read_table("t", |_| ()).unwrap();
        db.write_table("t", |_| DbResult::Ok(())).unwrap(); // no mutation queued
        assert!(!db.table_dirty("t").unwrap());
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        assert!(db.table_dirty("t").unwrap());
        assert!(!db.table_dirty("u").unwrap(), "sibling table stays clean");
        // a failed statement queues nothing and leaves the flag alone
        db.with_tables_marked(|views| {
            for v in views {
                v.dirty.store(false, Ordering::Relaxed);
            }
        });
        assert!(db.insert("t", vec![1.into(), "dup".into()]).is_err());
        assert!(!db.table_dirty("t").unwrap());
    }

    #[test]
    fn ddl_create_drop_and_lookup() {
        let db = db_with_t();
        assert!(db.has_table("T")); // case-insensitive
        assert!(matches!(
            db.create_table("t", db.table_schema("t").unwrap()),
            Err(DbError::TableExists(_))
        ));
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        db.drop_table("t").unwrap();
        assert!(matches!(db.scan("t"), Err(DbError::TableNotFound(_))));
    }

    #[test]
    fn autocommit_insert_and_scan() {
        let db = db_with_t();
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        db.insert("t", vec![2.into(), "b".into()]).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 2);
        assert_eq!(db.scan("t").unwrap().len(), 2);
    }

    #[test]
    fn txn_commit_persists() {
        let db = db_with_t();
        let mut txn = db.begin();
        txn.insert("t", vec![1.into(), "a".into()]).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn txn_rollback_undoes_everything_in_reverse() {
        let db = db_with_t();
        let keep = db.insert("t", vec![1.into(), "keep".into()]).unwrap();
        let mut txn = db.begin();
        let a = txn.insert("t", vec![2.into(), "a".into()]).unwrap();
        txn.update("t", a, vec![2.into(), "a2".into()]).unwrap();
        txn.update("t", keep, vec![1.into(), "changed".into()])
            .unwrap();
        txn.delete("t", keep).unwrap();
        txn.rollback().unwrap();
        assert_eq!(db.row_count("t").unwrap(), 1);
        let rows = db.scan("t").unwrap();
        assert_eq!(rows[0], vec![Value::Int(1), "keep".into()]);
    }

    #[test]
    fn dropping_open_txn_rolls_back() {
        let db = db_with_t();
        {
            let mut txn = db.begin();
            txn.insert("t", vec![1.into(), "x".into()]).unwrap();
        }
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn closed_txn_rejects_operations() {
        let db = db_with_t();
        let mut txn = db.begin();
        txn.insert("t", vec![1.into(), "x".into()]).unwrap();
        let id = txn.id();
        assert!(id >= 1);
        txn.commit().unwrap();
        // new txn gets a new id
        assert!(db.begin().id() > id);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let db = Arc::new(db_with_t());
        let mut handles = Vec::new();
        for w in 0..4i64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    db.insert("t", vec![(w * 1000 + i).into(), format!("w{w}").into()])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.row_count("t").unwrap(), 200);
    }
}
