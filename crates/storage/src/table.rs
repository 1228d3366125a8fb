//! Heap tables: slotted row storage with index maintenance.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::batch::{Batch, ColumnBuilder};
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;
use crate::wal::WalRecord;

/// Identifier of a row slot within one table. Stable for the life of the row.
pub type RowId = u64;

/// An ordered secondary (or primary) index over one or more columns.
///
/// Keys are the indexed column values in order; entries map to the row ids
/// holding that key. A `unique` index rejects duplicate keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Index {
    /// Index name, unique within the database.
    pub name: String,
    /// Positions of the indexed columns within the table schema.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
    // Not serialized: segment loading rebuilds indexes from the rows
    // (JSON map keys must be strings, and rebuilding re-verifies uniqueness).
    #[serde(skip)]
    entries: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    fn new(name: String, columns: Vec<usize>, unique: bool) -> Self {
        Index {
            name,
            columns,
            unique,
            entries: BTreeMap::new(),
        }
    }

    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&i| row[i].clone()).collect()
    }

    fn insert(&mut self, row: &[Value], id: RowId) -> DbResult<()> {
        let key = self.key_of(row);
        // SQL semantics: NULLs never conflict under UNIQUE.
        let has_null = key.iter().any(Value::is_null);
        let slot = self.entries.entry(key.clone()).or_default();
        if self.unique && !slot.is_empty() && !has_null {
            return Err(DbError::UniqueViolation {
                index: self.name.clone(),
                key: render_key(&key),
            });
        }
        slot.push(id);
        Ok(())
    }

    fn remove(&mut self, row: &[Value], id: RowId) {
        let key = self.key_of(row);
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.retain(|&r| r != id);
            if slot.is_empty() {
                self.entries.remove(&key);
            }
        }
    }

    /// Row ids whose key equals `key` exactly.
    pub fn lookup(&self, key: &[Value]) -> Vec<RowId> {
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// Row ids whose key lies in `[lo, hi]` (either bound optional).
    ///
    /// Bounds may be key *prefixes* on a multi-column index. A lower-bound
    /// prefix sorts before all of its extensions, so `Bound::Included` is
    /// already correct there. An upper-bound prefix is compared on the
    /// shared prefix length, so `[5] ..= [5]` includes extensions such as
    /// `[5, x]` (equivalent to an exclusive bound at the successor of the
    /// prefix); a full-arity upper bound remains inclusive, as before.
    pub fn range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> Vec<RowId> {
        use std::cmp::Ordering;
        use std::ops::Bound;
        let lo_b = lo.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec()));
        let within_hi = |key: &[Value]| match hi {
            None => true,
            Some(h) => {
                let m = h.len().min(key.len());
                key[..m].cmp(&h[..m]) != Ordering::Greater
            }
        };
        self.entries
            .range((lo_b, Bound::Unbounded))
            .take_while(|&(key, _)| within_hi(key))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// All row ids in key order (for index-ordered scans).
    pub fn ordered_ids(&self) -> Vec<RowId> {
        self.entries
            .values()
            .flat_map(|ids| ids.iter().copied())
            .collect()
    }

    /// Number of distinct keys currently indexed.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }
}

fn render_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(Value::render).collect();
    format!("({})", parts.join(", "))
}

/// How to reverse one mutation of the open statement (see
/// [`Table::begin_statement`]): row ids and old images.
#[derive(Debug, Clone)]
enum Undo {
    /// Slots from `from` on were appended by inserts.
    Appended { from: usize },
    /// Slot `id` held `old` before an update.
    Updated { id: RowId, old: Vec<Value> },
    /// Slot `id` held `old` before a delete.
    Deleted { id: RowId, old: Vec<Value> },
    /// Rows, live count and index entries before a truncate.
    Truncated {
        rows: Vec<Option<Vec<Value>>>,
        live: usize,
        entries: Vec<BTreeMap<Vec<Value>, Vec<RowId>>>,
    },
    /// An index was appended to the index list.
    IndexCreated,
    /// The index at `pos` was dropped.
    IndexDropped { pos: usize, index: Index },
}

/// A heap table: schema + slotted rows + attached indexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name, unique within the database.
    pub name: String,
    schema: Schema,
    rows: Vec<Option<Vec<Value>>>,
    indexes: Vec<Index>,
    live: usize,
    // Memoized columnar image of the live rows, rebuilt lazily after any
    // mutation. Skipped by segments: it is derived state.
    #[serde(skip)]
    batch_cache: std::sync::OnceLock<Arc<Batch>>,
    // When armed, every successful mutation queues a WAL record here; the
    // owning `Database` drains the queue into its sink while still holding
    // the table-map write lock, so log order always matches apply order.
    #[serde(skip)]
    journal: bool,
    #[serde(skip)]
    pending_wal: Vec<WalRecord>,
    // Set under the table's write lock when the catalog drops the table.
    // A statement that resolved its `Arc<RwLock<Table>>` handle before the
    // drop, but acquired the lock after, must observe this and fail with
    // `TableNotFound` instead of mutating (and journaling into) a corpse
    // that the WAL has already recorded as dropped.
    #[serde(skip)]
    dropped: bool,
    // The open statement's undo list, newest last. Recorded only while
    // `in_statement`, so a bare table records nothing; emptied, not freed,
    // when a statement ends.
    #[serde(skip)]
    undo: Vec<Undo>,
    #[serde(skip)]
    in_statement: bool,
}

impl Table {
    /// Create an empty table. If the schema declares a primary key, a unique
    /// index `pk_<table>` is created automatically.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let mut t = Table {
            name: name.clone(),
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            live: 0,
            batch_cache: std::sync::OnceLock::new(),
            journal: false,
            pending_wal: Vec::new(),
            dropped: false,
            undo: Vec::new(),
            in_statement: false,
        };
        if !t.schema.primary_key().is_empty() {
            let cols = t.schema.primary_key().to_vec();
            t.indexes.push(Index::new(format!("pk_{name}"), cols, true));
        }
        t
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All row slots including tombstones (`None`), for segment encoding:
    /// preserving tombstones keeps `RowId`s stable across a round trip.
    pub(crate) fn raw_rows(&self) -> &[Option<Vec<Value>>] {
        &self.rows
    }

    /// Reassemble a table from decoded segment parts: raw row slots
    /// (tombstones included) and index definitions `(name, columns,
    /// unique)`. Index entries are rebuilt from the rows, re-verifying
    /// uniqueness.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        rows: Vec<Option<Vec<Value>>>,
        indexes: Vec<(String, Vec<usize>, bool)>,
    ) -> DbResult<Table> {
        let live = rows.iter().filter(|r| r.is_some()).count();
        let mut t = Table {
            name,
            schema,
            rows,
            indexes: indexes
                .into_iter()
                .map(|(n, c, u)| Index::new(n, c, u))
                .collect(),
            live,
            batch_cache: std::sync::OnceLock::new(),
            journal: false,
            pending_wal: Vec::new(),
            dropped: false,
            undo: Vec::new(),
            in_statement: false,
        };
        t.rebuild_indexes()?;
        Ok(t)
    }

    /// Start queueing WAL records for every mutation (see `pending_wal`).
    pub(crate) fn arm_journal(&mut self) {
        self.journal = true;
    }

    /// Whether mutations are being journaled.
    pub(crate) fn journal_armed(&self) -> bool {
        self.journal
    }

    /// Drain the queued WAL records (empty unless armed).
    pub(crate) fn take_pending(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.pending_wal)
    }

    /// Tombstone the table on catalog removal (under its write lock).
    pub(crate) fn mark_dropped(&mut self) {
        self.dropped = true;
    }

    /// Whether the catalog has dropped this table since the caller resolved
    /// its handle.
    pub(crate) fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// Open a statement: until it is committed or rolled back, every
    /// mutation records how to reverse itself. [`crate::Database::write_tables`]
    /// opens one per call on every table it names, under their write locks.
    pub(crate) fn begin_statement(&mut self) {
        self.in_statement = true;
    }

    /// Keep the open statement's mutations.
    pub(crate) fn commit_statement(&mut self) {
        self.in_statement = false;
        self.undo.clear();
    }

    /// Reverse every mutation of the open statement, newest first, and drop
    /// the WAL records it queued: the table is left exactly as
    /// [`Table::begin_statement`] found it — same slots, same index entries.
    /// (The owning `Database` drains the queue after every statement, so
    /// anything queued belongs to this one.)
    pub(crate) fn rollback_statement(&mut self) {
        self.in_statement = false;
        self.pending_wal.clear();
        if self.undo.is_empty() {
            return;
        }
        for step in std::mem::take(&mut self.undo).into_iter().rev() {
            match step {
                Undo::Appended { from } => self.truncate_slots(from),
                Undo::Updated { id, old } => {
                    self.vacate(id);
                    self.fill(id, old);
                }
                Undo::Deleted { id, old } => self.fill(id, old),
                Undo::Truncated {
                    rows,
                    live,
                    entries,
                } => {
                    self.rows = rows;
                    self.live = live;
                    for (idx, e) in self.indexes.iter_mut().zip(entries) {
                        idx.entries = e;
                    }
                }
                Undo::IndexCreated => {
                    self.indexes.pop();
                }
                Undo::IndexDropped { pos, index } => self.indexes.insert(pos, index),
            }
        }
        self.invalidate_batch_cache();
    }

    fn record_undo(&mut self, step: Undo) {
        if !self.in_statement {
            return;
        }
        // An append right after another needs no entry of its own: undoing
        // the first one vacates every slot from there on.
        if let (Undo::Appended { .. }, Some(Undo::Appended { .. })) = (&step, self.undo.last()) {
            return;
        }
        self.undo.push(step);
    }

    /// Tombstone slot `id` and drop its index entries (undo only).
    fn vacate(&mut self, id: RowId) {
        if let Some(row) = self.rows[id as usize].take() {
            for idx in &mut self.indexes {
                idx.remove(&row, id);
            }
            self.live -= 1;
        }
    }

    /// Put `row` back into the tombstoned slot `id` with its index entries
    /// (undo only: the key was indexed before, so it cannot conflict).
    fn fill(&mut self, id: RowId, row: Vec<Value>) {
        for idx in &mut self.indexes {
            let _ = idx.insert(&row, id);
        }
        self.rows[id as usize] = Some(row);
        self.live += 1;
    }

    /// Vacate every slot from `from` on and shrink the slot vector back.
    fn truncate_slots(&mut self, from: usize) {
        for id in (from..self.rows.len()).rev() {
            self.vacate(id as RowId);
        }
        self.rows.truncate(from);
    }

    fn journal_push(&mut self, record: impl FnOnce(&Table) -> WalRecord) {
        if self.journal {
            let rec = record(self);
            self.pending_wal.push(rec);
        }
    }

    /// Rebuild every index's entries from the stored rows (after segment
    /// deserialization, which skips them). Re-verifies uniqueness.
    pub(crate) fn rebuild_indexes(&mut self) -> DbResult<()> {
        for idx in &mut self.indexes {
            idx.entries.clear();
        }
        let ids: Vec<RowId> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i as RowId))
            .collect();
        for id in ids {
            let row = self.rows[id as usize].clone().expect("live row");
            for idx in &mut self.indexes {
                idx.insert(&row, id)?;
            }
        }
        Ok(())
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// Attached indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// Find an index whose leading column is `col` (for planner lookups).
    pub fn index_on(&self, col: usize) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.columns.first() == Some(&col))
    }

    /// Create a new index over `columns` and backfill it from existing rows.
    pub fn create_index(&mut self, name: &str, columns: &[&str], unique: bool) -> DbResult<()> {
        if self.index(name).is_some() {
            return Err(DbError::IndexExists(name.to_string()));
        }
        let cols: DbResult<Vec<usize>> = columns
            .iter()
            .map(|c| {
                self.schema
                    .index_of(c)
                    .ok_or_else(|| DbError::ColumnNotFound {
                        table: self.name.clone(),
                        column: (*c).to_string(),
                    })
            })
            .collect();
        let mut idx = Index::new(name.to_string(), cols?, unique);
        for (id, row) in self.rows.iter().enumerate() {
            if let Some(r) = row {
                idx.insert(r, id as RowId)?;
            }
        }
        self.indexes.push(idx);
        self.record_undo(Undo::IndexCreated);
        if self.journal {
            self.pending_wal.push(WalRecord::CreateIndex {
                table: self.name.clone(),
                name: name.to_string(),
                columns: columns.iter().map(|c| (*c).to_string()).collect(),
                unique,
            });
        }
        Ok(())
    }

    /// Drop an index by name. The automatic primary-key index cannot be
    /// dropped.
    pub fn drop_index(&mut self, name: &str) -> DbResult<()> {
        if name.eq_ignore_ascii_case(&format!("pk_{}", self.name)) {
            return Err(DbError::Invalid(format!(
                "cannot drop primary key index {name}"
            )));
        }
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::IndexNotFound(name.to_string()))?;
        let index = self.indexes.remove(pos);
        self.record_undo(Undo::IndexDropped { pos, index });
        self.journal_push(|t| WalRecord::DropIndex {
            table: t.name.clone(),
            name: name.to_string(),
        });
        Ok(())
    }

    /// Insert a row, validated and coerced against the schema in place.
    /// Returns the new row id; a failed row leaves no trace. The journal
    /// gets the stored image, so the delta the preagg folds holds exactly
    /// the values a scan returns.
    pub fn insert(&mut self, row: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.check_row(&self.name, row)?;
        let id = self.rows.len() as RowId;
        // Maintain all indexes first so a unique violation leaves no trace.
        for i in 0..self.indexes.len() {
            if let Err(e) = self.indexes[i].insert(&row, id) {
                for j in 0..i {
                    self.indexes[j].remove(&row, id);
                }
                return Err(e);
            }
        }
        if self.journal {
            self.journal_insert(row.clone());
        }
        self.rows.push(Some(row));
        self.live += 1;
        self.record_undo(Undo::Appended { from: id as usize });
        self.invalidate_batch_cache();
        Ok(id)
    }

    /// Insert every row of `rows` in order; consecutive inserts journal as
    /// one [`WalRecord::InsertMany`]. Stops at the first failing row: inside
    /// [`crate::Database::write_table`] the statement's rollback then removes
    /// the rows already in, so the call is all or nothing.
    pub fn insert_all(&mut self, rows: Vec<Vec<Value>>) -> DbResult<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Queue one inserted row for the WAL. Consecutive inserts coalesce
    /// into a single [`WalRecord::InsertMany`], so a multi-row statement
    /// journals one frame (and clones the table name once, not per row).
    /// The queue is per-table, so any trailing insert record is
    /// necessarily for this table.
    fn journal_insert(&mut self, row: Vec<Value>) {
        match self.pending_wal.last_mut() {
            Some(WalRecord::InsertMany { rows, .. }) => rows.push(row),
            Some(WalRecord::Insert { .. }) => {
                let Some(WalRecord::Insert { table, row: first }) = self.pending_wal.pop() else {
                    unreachable!("last record just matched Insert");
                };
                self.pending_wal.push(WalRecord::InsertMany {
                    table,
                    rows: vec![first, row],
                });
            }
            _ => self.pending_wal.push(WalRecord::Insert {
                table: self.name.clone(),
                row,
            }),
        }
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> DbResult<&[Value]> {
        self.rows
            .get(id as usize)
            .and_then(|r| r.as_deref())
            .ok_or(DbError::RowNotFound(id))
    }

    /// Take the live row out of slot `id`, leaving a tombstone (the live
    /// count and indexes are the caller's to fix up).
    fn take_row(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        self.rows
            .get_mut(id as usize)
            .and_then(Option::take)
            .ok_or(DbError::RowNotFound(id))
    }

    /// Replace a row in place (validated). Indexes are updated atomically:
    /// on unique violation, the old row is restored.
    pub fn update(&mut self, id: RowId, new_row: Vec<Value>) -> DbResult<()> {
        let new_row = self.schema.check_row(&self.name, new_row)?;
        let old = self.take_row(id)?;
        for idx in &mut self.indexes {
            idx.remove(&old, id);
        }
        for i in 0..self.indexes.len() {
            if let Err(e) = self.indexes[i].insert(&new_row, id) {
                for j in 0..i {
                    self.indexes[j].remove(&new_row, id);
                }
                for idx in &mut self.indexes {
                    // restore original entries
                    let _ = idx.insert(&old, id);
                }
                self.rows[id as usize] = Some(old);
                return Err(e);
            }
        }
        if self.journal {
            self.pending_wal.push(WalRecord::Update {
                table: self.name.clone(),
                id,
                row: new_row.clone(),
            });
        }
        self.rows[id as usize] = Some(new_row);
        self.record_undo(Undo::Updated { id, old });
        self.invalidate_batch_cache();
        Ok(())
    }

    /// Delete a row by id.
    pub fn delete(&mut self, id: RowId) -> DbResult<()> {
        let old = self.take_row(id)?;
        for idx in &mut self.indexes {
            idx.remove(&old, id);
        }
        self.journal_push(|t| WalRecord::Delete {
            table: t.name.clone(),
            id,
        });
        self.live -= 1;
        self.record_undo(Undo::Deleted { id, old });
        self.invalidate_batch_cache();
        Ok(())
    }

    /// Iterate `(row_id, row)` over live rows in heap order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|row| (i as RowId, row)))
    }

    /// Clone all live rows (snapshot for lock-free downstream processing).
    pub fn snapshot(&self) -> Vec<Vec<Value>> {
        self.rows.iter().filter_map(|r| r.clone()).collect()
    }

    /// Scan all live rows into a columnar [`Batch`], one typed column per
    /// schema column.
    ///
    /// Stored rows are already coerced to their declared [`crate::DataType`]
    /// by [`Schema::check_row`], so each column vector is built directly
    /// with no per-value type inference and no per-row allocations. The
    /// columnar image is memoized until the next mutation, so repeated
    /// scans of a stable table (the common BI read pattern) cost one
    /// `Arc` clone per column.
    pub fn scan_batch(&self) -> Batch {
        self.batch_cache
            .get_or_init(|| Arc::new(self.build_batch()))
            .as_ref()
            .clone()
    }

    fn build_batch(&self) -> Batch {
        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::with_capacity(c.data_type, self.live))
            .collect();
        for (_, row) in self.scan() {
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        Batch::new(
            builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            self.live,
        )
        .expect("scan builders produce equal-length columns")
    }

    /// Like [`Table::scan_batch`], but materializing only the physical
    /// columns listed in `cols` (in that order). Column vectors are shared
    /// with the memoized full batch, so a pruned scan costs one `Arc`
    /// clone per kept column — this is the execution side of the
    /// optimizer's projection-pruning rule.
    ///
    /// # Panics
    /// Panics if any ordinal in `cols` is out of range.
    pub fn scan_batch_cols(&self, cols: &[usize]) -> Batch {
        let full = self.scan_batch();
        let picked = cols.iter().map(|&c| full.column(c).clone()).collect();
        Batch::new(picked, full.num_rows()).expect("projected columns share the batch row count")
    }

    /// The contiguous sub-batch `[lo, hi)` of the live-row snapshot
    /// (bounds clamped), in the same order as [`Table::scan_batch`].
    pub fn scan_batch_range(&self, lo: usize, hi: usize) -> Batch {
        self.scan_batch().slice(lo, hi)
    }

    /// Split the live-row snapshot into fixed-size morsels of at most
    /// `morsel_rows` rows each (optionally projected to `cols`), for
    /// parallel execution. Morsels are contiguous slices of one immutable
    /// snapshot, so concatenating them in order reproduces
    /// [`Table::scan_batch`] exactly.
    ///
    /// Always yields at least one (possibly empty) morsel so downstream
    /// operators see the typed column layout even for empty tables.
    pub fn scan_partitions(&self, cols: Option<&[usize]>, morsel_rows: usize) -> Vec<Batch> {
        let snapshot = match cols {
            Some(cols) => self.scan_batch_cols(cols),
            None => self.scan_batch(),
        };
        let step = morsel_rows.max(1);
        let rows = snapshot.num_rows();
        if rows <= step {
            return vec![snapshot];
        }
        (0..rows)
            .step_by(step)
            .map(|lo| snapshot.slice(lo, (lo + step).min(rows)))
            .collect()
    }

    fn invalidate_batch_cache(&mut self) {
        self.batch_cache = std::sync::OnceLock::new();
    }

    /// Delete every row, keeping schema and (now empty) indexes.
    pub fn truncate(&mut self) {
        let rows = std::mem::take(&mut self.rows);
        let entries = self
            .indexes
            .iter_mut()
            .map(|idx| std::mem::take(&mut idx.entries))
            .collect();
        self.record_undo(Undo::Truncated {
            rows,
            live: self.live,
            entries,
        });
        self.live = 0;
        self.journal_push(|t| WalRecord::Truncate {
            table: t.name.clone(),
        });
        self.invalidate_batch_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn users() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text).not_null(),
            Column::new("age", DataType::Int),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        Table::new("users", schema)
    }

    #[test]
    fn pk_index_auto_created_and_enforced() {
        let mut t = users();
        assert_eq!(t.indexes().len(), 1);
        t.insert(vec![1.into(), "a".into(), 30.into()]).unwrap();
        let err = t.insert(vec![1.into(), "b".into(), 31.into()]).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn insert_get_update_delete_cycle() {
        let mut t = users();
        let id = t.insert(vec![1.into(), "ana".into(), 30.into()]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], "ana".into());
        t.update(id, vec![1.into(), "ana maria".into(), 31.into()])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[1], "ana maria".into());
        assert_eq!(t.get(id).unwrap()[2], 31.into());
        t.delete(id).unwrap();
        assert!(matches!(t.get(id), Err(DbError::RowNotFound(_))));
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn failed_unique_insert_leaves_indexes_clean() {
        let mut t = users();
        t.create_index("ix_age", &["age"], false).unwrap();
        t.insert(vec![1.into(), "a".into(), 30.into()]).unwrap();
        let _ = t.insert(vec![1.into(), "b".into(), 99.into()]).unwrap_err();
        // age index must not contain the phantom 99 entry
        assert!(t.index("ix_age").unwrap().lookup(&[99.into()]).is_empty());
        assert_eq!(t.index("ix_age").unwrap().distinct_keys(), 1);
    }

    #[test]
    fn failed_update_restores_old_row_in_indexes() {
        let mut t = users();
        let a = t.insert(vec![1.into(), "a".into(), 30.into()]).unwrap();
        t.insert(vec![2.into(), "b".into(), 40.into()]).unwrap();
        // updating a's pk to 2 must fail and keep a findable under pk 1
        let err = t
            .update(a, vec![2.into(), "a".into(), 30.into()])
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(t.indexes()[0].lookup(&[1.into()]), vec![a]);
        assert_eq!(t.get(a).unwrap()[0], 1.into());
    }

    #[test]
    fn secondary_index_backfills_and_ranges() {
        let mut t = users();
        for i in 0..10i64 {
            t.insert(vec![i.into(), format!("u{i}").into(), (20 + i).into()])
                .unwrap();
        }
        t.create_index("ix_age", &["age"], false).unwrap();
        let idx = t.index("ix_age").unwrap();
        assert_eq!(idx.lookup(&[25.into()]).len(), 1);
        let hits = idx.range(Some(&[22.into()]), Some(&[24.into()]));
        assert_eq!(hits.len(), 3);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn prefix_upper_bound_includes_key_extensions() {
        // regression: [5] ..= [5] on an index over (a, b) must include [5, x]
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for (a, b) in [(4, 9), (5, 1), (5, 2), (6, 0)] {
            t.insert(vec![a.into(), b.into()]).unwrap();
        }
        t.create_index("ix_ab", &["a", "b"], false).unwrap();
        let idx = t.index("ix_ab").unwrap();
        // equality expressed as a prefix range: both (5, *) rows
        assert_eq!(idx.range(Some(&[5.into()]), Some(&[5.into()])).len(), 2);
        // open prefix ranges on the leading column
        assert_eq!(idx.range(Some(&[5.into()]), None).len(), 3);
        assert_eq!(idx.range(None, Some(&[5.into()])).len(), 3);
        // full-arity bounds stay inclusive on both ends
        assert_eq!(
            idx.range(Some(&[5.into(), 1.into()]), Some(&[5.into(), 2.into()]))
                .len(),
            2
        );
        // mixed: full-arity lower bound, prefix upper bound
        assert_eq!(
            idx.range(Some(&[4.into(), 9.into()]), Some(&[5.into()]))
                .len(),
            3
        );
    }

    #[test]
    fn scan_batch_types_columns_and_skips_deleted() {
        use crate::batch::ColumnData;
        let mut t = users();
        let a = t.insert(vec![1.into(), "a".into(), 30.into()]).unwrap();
        t.insert(vec![2.into(), "b".into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "c".into(), 40.into()]).unwrap();
        t.delete(a).unwrap();
        let batch = t.scan_batch();
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.num_columns(), 3);
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(1).data(), ColumnData::Text(_)));
        assert!(matches!(batch.column(2).data(), ColumnData::Int(_)));
        assert!(batch.column(2).is_null(0));
        assert_eq!(batch.to_rows(), t.snapshot());
    }

    #[test]
    fn scan_batch_cache_invalidated_by_mutations() {
        let mut t = users();
        t.insert(vec![1.into(), "a".into(), 30.into()]).unwrap();
        assert_eq!(t.scan_batch().num_rows(), 1);
        // every mutation kind must drop the memoized batch
        let b = t.insert(vec![2.into(), "b".into(), 31.into()]).unwrap();
        assert_eq!(t.scan_batch().num_rows(), 2);
        t.update(b, vec![2.into(), "bb".into(), 32.into()]).unwrap();
        assert_eq!(t.scan_batch().value(1, 1), Value::from("bb"));
        t.delete(b).unwrap();
        assert_eq!(t.scan_batch().num_rows(), 1);
        t.truncate();
        assert_eq!(t.scan_batch().num_rows(), 0);
        // repeated scans of a stable table agree with the row image
        assert_eq!(t.scan_batch(), t.scan_batch());
    }

    #[test]
    fn scan_partitions_cover_snapshot_in_order() {
        let mut t = users();
        for i in 0..10i64 {
            t.insert(vec![i.into(), format!("u{i}").into(), (20 + i).into()])
                .unwrap();
        }
        let morsels = t.scan_partitions(None, 4);
        assert_eq!(
            morsels.iter().map(Batch::num_rows).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let glued = Batch::concat(3, &morsels).unwrap();
        assert_eq!(glued, t.scan_batch());
        // ranges agree with slices of the snapshot
        assert_eq!(t.scan_batch_range(4, 8), t.scan_batch().slice(4, 8));
        // projected partitions pick (and reorder) physical columns
        let pruned = t.scan_partitions(Some(&[2, 0]), 100);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].num_columns(), 2);
        assert_eq!(pruned[0].value(0, 3), Value::Int(23));
        assert_eq!(pruned[0].value(1, 3), Value::Int(3));
        // empty table still yields one morsel with the typed layout
        t.truncate();
        let empty = t.scan_partitions(None, 4);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].num_columns(), 3);
    }

    #[test]
    fn unique_index_allows_multiple_nulls() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("email", DataType::Text),
        ])
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.create_index("ux_email", &["email"], true).unwrap();
        t.insert(vec![1.into(), Value::Null]).unwrap();
        t.insert(vec![2.into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "x@y".into()]).unwrap();
        assert!(t.insert(vec![4.into(), "x@y".into()]).is_err());
    }

    #[test]
    fn drop_index_protects_pk() {
        let mut t = users();
        t.create_index("ix_age", &["age"], false).unwrap();
        t.drop_index("ix_age").unwrap();
        assert!(t.index("ix_age").is_none());
        assert!(t.drop_index("pk_users").is_err());
        assert!(matches!(
            t.drop_index("nope"),
            Err(DbError::IndexNotFound(_))
        ));
    }

    #[test]
    fn scan_skips_deleted_and_truncate_clears() {
        let mut t = users();
        let a = t.insert(vec![1.into(), "a".into(), 1.into()]).unwrap();
        t.insert(vec![2.into(), "b".into(), 2.into()]).unwrap();
        t.delete(a).unwrap();
        let names: Vec<_> = t.scan().map(|(_, r)| r[1].clone()).collect();
        assert_eq!(names, vec![Value::from("b")]);
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.indexes()[0].distinct_keys(), 0);
    }

    /// Everything a rollback must put back: slots (tombstones included),
    /// live count, and every index's name, keys and row ids.
    type Image = (
        Vec<Option<Vec<Value>>>,
        usize,
        Vec<(String, usize, Vec<RowId>)>,
    );

    fn image(t: &Table) -> Image {
        let indexes = t
            .indexes()
            .iter()
            .map(|i| (i.name.clone(), i.distinct_keys(), i.ordered_ids()))
            .collect();
        (t.raw_rows().to_vec(), t.row_count(), indexes)
    }

    #[test]
    fn statement_rollback_restores_slots_indexes_and_queue() {
        let mut t = users();
        t.create_index("ix_age", &["age"], false).unwrap();
        for i in 0..4i64 {
            t.insert(vec![i.into(), format!("u{i}").into(), (20 + i).into()])
                .unwrap();
        }
        t.delete(1).unwrap(); // a tombstone the rollback must keep
        t.arm_journal();
        let before = image(&t);
        let batch = t.scan_batch();

        t.begin_statement();
        t.insert(vec![10.into(), "new".into(), 50.into()]).unwrap();
        t.update(0, vec![0.into(), "renamed".into(), 99.into()])
            .unwrap();
        t.delete(2).unwrap();
        t.insert_all(vec![vec![11.into(), "x".into(), 60.into()]])
            .unwrap();
        t.create_index("ix_name", &["name"], true).unwrap();
        t.drop_index("ix_age").unwrap();
        t.truncate();
        t.insert(vec![12.into(), "after".into(), 70.into()])
            .unwrap();
        assert!(!t.pending_wal.is_empty());
        t.rollback_statement();

        assert_eq!(image(&t), before);
        assert!(t.take_pending().is_empty());
        assert_eq!(t.scan_batch(), batch);
        // the statement is closed: later mutations are not undone
        t.insert(vec![13.into(), "kept".into(), 80.into()]).unwrap();
        t.rollback_statement();
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn committed_statement_keeps_its_mutations() {
        let mut t = users();
        t.begin_statement();
        t.insert(vec![1.into(), "a".into(), 1.into()]).unwrap();
        t.commit_statement();
        t.rollback_statement();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.indexes()[0].lookup(&[1.into()]), vec![0]);
    }
}
