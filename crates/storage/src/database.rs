//! The database: a named catalog of per-table reader-writer locks, written
//! through atomic statements.
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
//! [`Database::read_tables`], [`Database::write_tables`]), the locks are
//! taken in canonical order — sorted lowercased table name — so two
//! multi-table acquirers can never deadlock. No statement re-enters the
//! catalog lock while holding a table lock, so DDL cannot close a cycle.
//!
//! ## Statements
//!
//! The one unit of change is a statement over one or more tables
//! ([`Database::write_tables`]; [`Database::write_table`] is its one-table
//! case): every table it names is write-locked and its mutations are either
//! all journaled with one [`WalSink::append`] or all undone before any lock
//! is released. Readers never see a statement half-applied.
//!
//! A handle resolved under the catalog lock can outlive the table: DDL may
//! drop the table before the statement locks it. The drop path marks the
//! table under its *write* lock ([`Table::mark_dropped`]) after appending
//! the `DropTable` WAL record, so a late statement observes the tombstone
//! and fails with `TableNotFound` instead of journaling mutations that
//! would land after the drop in the log.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

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
/// [`Database::read_tables`] to read, [`Database::write_table`] /
/// [`Database::write_tables`] to run a statement).
///
/// Attaching a [`WalSink`] (see [`Database::set_wal_sink`]) journals every
/// mutation — row ops, DDL, index maintenance — in apply order; without
/// one the database is purely in-memory, as before.
#[derive(Default)]
pub struct Database {
    tables: RwLock<HashMap<String, CatalogEntry>>,
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

    /// Forward a statement's queued records — every table's, in the order
    /// the tables were named — to the sink as one append and maintain the
    /// dirty flags. Called with every table's write lock still held, so the
    /// log sees each table's mutations in the exact order they were
    /// applied. Records of different tables may interleave in the log, but
    /// they commute on replay — per-table order is the only order recovery
    /// depends on.
    ///
    /// Dirty semantics, per table: with the journal armed, a non-empty
    /// pending queue is the precise "this statement mutated the table"
    /// signal. Unjournaled tables (recovery replay, purely in-memory
    /// databases) have no queue, so any successful write access marks dirty
    /// conservatively. The flags are set only once the append succeeded: a
    /// refused append rolls the statement back, so memory still matches the
    /// on-disk segments.
    fn flush_pending(
        &self,
        tables: &mut [RwLockWriteGuard<'_, Table>],
        entries: &[(Arc<RwLock<Table>>, Arc<AtomicBool>)],
    ) -> DbResult<()> {
        let mut records = Vec::new();
        let mut mutated = Vec::with_capacity(tables.len());
        for (t, (_, dirty)) in tables.iter_mut().zip(entries) {
            if t.journal_armed() {
                let mut pending = t.take_pending();
                if pending.is_empty() {
                    continue;
                }
                // the first queue is taken as is: a one-table statement
                // hands its records over without a copy
                if records.is_empty() {
                    records = pending;
                } else {
                    records.append(&mut pending);
                }
            }
            mutated.push(dirty);
        }
        if !records.is_empty() {
            if let Some(sink) = self.sink() {
                sink.append(&records)?;
            }
        }
        for dirty in mutated {
            dirty.store(true, Ordering::Relaxed);
        }
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

    /// Run `f` with exclusive access to a table as one statement — the
    /// one-table case of [`Database::write_tables`].
    pub fn write_table<R, E: From<DbError>>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<R, E>,
    ) -> Result<R, E> {
        self.write_tables(&[name], |tables| f(&mut *tables[0]))
    }

    /// Run `f` with exclusive access to several tables as one
    /// **statement**: either every mutation `f` makes, to any of them, is
    /// applied and journaled with one [`WalSink::append`] — one frame,
    /// one write and at most one fsync, so a crash recovers all of it or
    /// none — or, when `f` returns `Err`
    /// or the append fails, every table is rolled back before any lock is
    /// released and is exactly as it was: same rows, same row ids, same
    /// index entries, same dirty flag, nothing handed to the sink. Readers
    /// never observe the statement half-applied.
    ///
    /// Locks are acquired in canonical order (sorted lowercased name), as
    /// in [`Database::read_tables`], so concurrent multi-table statements,
    /// readers and the checkpointer cannot deadlock; the slice passed to
    /// `f` follows the order of `names`, which must not name a table twice.
    /// Readers and writers of other tables are not blocked.
    pub fn write_tables<R, E: From<DbError>>(
        &self,
        names: &[&str],
        f: impl FnOnce(&mut [&mut Table]) -> Result<R, E>,
    ) -> Result<R, E> {
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by_cached_key(|&i| Self::key(names[i]));
        if let Some(w) = order
            .windows(2)
            .find(|w| names[w[0]].eq_ignore_ascii_case(names[w[1]]))
        {
            let twice = DbError::Invalid(format!("table {} named twice", names[w[0]]));
            return Err(twice.into());
        }
        let entries = names
            .iter()
            .map(|n| self.entry(n))
            .collect::<DbResult<Vec<_>>>()?;
        let mut locked: Vec<_> = order
            .into_iter()
            .map(|i| (i, entries[i].0.write()))
            .collect();
        locked.sort_by_key(|(i, _)| *i);
        let mut guards: Vec<RwLockWriteGuard<'_, Table>> =
            locked.into_iter().map(|(_, g)| g).collect();
        if let Some(i) = guards.iter().position(|t| t.is_dropped()) {
            return Err(DbError::TableNotFound(names[i].to_string()).into());
        }
        for t in &mut guards {
            t.begin_statement();
        }
        let mut tables: Vec<&mut Table> = guards.iter_mut().map(|g| &mut **g).collect();
        let result = f(&mut tables).and_then(|r| {
            self.flush_pending(&mut guards, &entries)?;
            Ok(r)
        });
        for t in &mut guards {
            if result.is_ok() {
                t.commit_statement();
            } else {
                t.rollback_statement();
            }
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

    /// All live rows in slot order, pivoted out of the columns.
    pub fn scan(&self, table: &str) -> DbResult<Vec<Vec<Value>>> {
        self.read_table(table, |t| t.scan().map(|(_, row)| row).collect())
    }

    /// All live rows as one batch (see [`Table::scan_batch`]).
    pub fn scan_batch(&self, table: &str) -> DbResult<Batch> {
        self.read_table(table, |t| t.scan_batch())
    }

    /// A table's live rows as one morsel per chunk, for parallel execution
    /// (see [`Table::scan_partitions`]). The table read lock is held for
    /// one acquisition only: a morsel shares or copies its chunk's columns,
    /// and a later write copies a chunk before changing it, so workers
    /// consume the morsels lock-free.
    pub fn scan_partitions(&self, table: &str, cols: Option<&[usize]>) -> DbResult<Vec<Batch>> {
        self.read_table(table, |t| t.scan_partitions(cols))
    }

    /// Number of live rows.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        self.read_table(table, |t| t.row_count())
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
    /// disk. Counts every call, accepted or not.
    #[derive(Default)]
    struct RefusingSink {
        refuse: AtomicBool,
        appends: std::sync::atomic::AtomicUsize,
        accepted: parking_lot::Mutex<Vec<WalRecord>>,
    }

    impl WalSink for RefusingSink {
        fn append(&self, records: &[WalRecord]) -> DbResult<()> {
            self.appends.fetch_add(1, Ordering::Relaxed);
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
            assert_eq!(t.slot_count(), 1, "no slot left behind");
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
                let rows: Vec<_> = t.scan().collect();
                (t.slot_count(), rows, ids, t.scan_batch())
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

    /// Tables `t` and `u` (same schema, `ix_v` on `u`), one row each, both
    /// clean, with a sink attached that counts `append` calls.
    fn two_tables(sink: &Arc<RefusingSink>) -> Database {
        let db = db_with_t();
        db.create_table("u", db.table_schema("t").unwrap()).unwrap();
        db.write_table("u", |t| t.create_index("ix_v", &["v"], false))
            .unwrap();
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        db.insert("u", vec![1.into(), "a".into()]).unwrap();
        db.set_wal_sink(Arc::clone(sink) as Arc<dyn WalSink>);
        db.with_tables_marked(|views| {
            for v in views {
                v.dirty.store(false, Ordering::Relaxed);
            }
        });
        db
    }

    /// Everything a rolled-back statement must leave as it was, per table:
    /// slots, index entries, the columnar image and the dirty flag.
    type Image = (
        usize,
        Vec<(RowId, Vec<Value>)>,
        Vec<Vec<RowId>>,
        Batch,
        bool,
    );

    fn image(db: &Database, name: &str) -> Image {
        let (slots, rows, ids, batch) = db
            .read_table(name, |t| {
                let ids = t.indexes().iter().map(|i| i.ordered_ids()).collect();
                (t.slot_count(), t.scan().collect(), ids, t.scan_batch())
            })
            .unwrap();
        (slots, rows, ids, batch, db.table_dirty(name).unwrap())
    }

    /// Insert, update and delete on both tables.
    fn mutate_both(tables: &mut [&mut Table]) -> DbResult<()> {
        for t in tables.iter_mut() {
            t.insert(vec![2.into(), "b".into()])?;
            t.update(0, vec![1.into(), "a2".into()])?;
            t.delete(1)?;
        }
        Ok(())
    }

    #[test]
    fn write_tables_journals_both_tables_in_one_append() {
        let sink = Arc::new(RefusingSink::default());
        let db = two_tables(&sink);
        // named out of canonical order: the slice follows the caller
        let names = db
            .write_tables(&["u", "T"], |tables| {
                mutate_both(tables)?;
                DbResult::Ok(tables.iter().map(|t| t.name.clone()).collect::<Vec<_>>())
            })
            .unwrap();
        assert_eq!(names, ["u", "t"]);
        assert_eq!(sink.appends.load(Ordering::Relaxed), 1, "one append");
        let records = sink.accepted.lock();
        assert_eq!(records.len(), 6);
        let tables: Vec<&str> = records
            .iter()
            .map(|r| match r {
                WalRecord::Insert { table, .. }
                | WalRecord::Update { table, .. }
                | WalRecord::Delete { table, .. } => table.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tables, ["u", "u", "u", "t", "t", "t"]);
        for name in ["t", "u"] {
            assert_eq!(db.scan(name).unwrap(), [vec![1.into(), "a2".into()]]);
            assert!(db.table_dirty(name).unwrap());
        }
    }

    #[test]
    fn failed_write_tables_rolls_every_table_back() {
        let sink = Arc::new(RefusingSink::default());
        let db = two_tables(&sink);
        let before = (image(&db, "t"), image(&db, "u"));
        let err = db
            .write_tables(&["t", "u"], |tables| {
                mutate_both(tables)?;
                // both tables mutated, then the statement fails
                tables[0].insert(vec![1.into(), "dup".into()])
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!((image(&db, "t"), image(&db, "u")), before);
        assert_eq!(sink.appends.load(Ordering::Relaxed), 0, "nothing sent");
    }

    #[test]
    fn refused_write_tables_rolls_every_table_back() {
        let sink = Arc::new(RefusingSink::default());
        let db = two_tables(&sink);
        let before = (image(&db, "t"), image(&db, "u"));
        sink.refuse.store(true, Ordering::Relaxed);
        let err = db.write_tables(&["t", "u"], mutate_both).unwrap_err();
        assert!(matches!(err, DbError::Io(_)));
        assert_eq!((image(&db, "t"), image(&db, "u")), before);
        assert_eq!(sink.appends.load(Ordering::Relaxed), 1, "one refused call");
        assert!(sink.accepted.lock().is_empty(), "the sink kept nothing");
    }

    #[test]
    fn write_tables_rejects_a_table_named_twice() {
        let db = db_with_t();
        let twice = db.write_tables(&["t", "T"], |_| DbResult::Ok(()));
        assert!(matches!(twice, Err(DbError::Invalid(_))));
        let missing = db.write_tables(&["t", "nope"], |_| DbResult::Ok(()));
        assert!(matches!(missing, Err(DbError::TableNotFound(_))));
        // an empty statement touches nothing
        assert_eq!(db.write_tables(&[], |t| DbResult::Ok(t.len())), Ok(0));
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
