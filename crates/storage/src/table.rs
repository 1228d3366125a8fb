//! Tables: column chunks with index maintenance.
//!
//! A table is a list of chunks. Chunk `c` covers row ids
//! `c · BLOCK_ROWS .. (c + 1) · BLOCK_ROWS`: one `Arc`-shared typed
//! [`ColumnVec`] per schema column plus one live bit per slot. The last
//! chunk is the open one. An insert appends to it, an update overwrites its
//! slot, and a delete clears the slot's live bit (a tombstone). Columns are
//! written through [`Arc::make_mut`], so a morsel a reader already holds
//! keeps its image: a write after a scan copies at most the one chunk it
//! touches.
//!
//! A scan hands out one [`Batch`] per chunk: `Arc` clones of its columns
//! when every slot is live, its live rows filtered out otherwise. So the
//! chunk is also the morsel the SQL executor parallelises over, and the
//! one size constant, [`BLOCK_ROWS`], is the chunk, the morsel and the
//! live-row block of a segment.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::batch::{Batch, ColumnVec};
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::segment::BLOCK_ROWS;
use crate::value::Value;
use crate::wal::WalRecord;

/// Identifier of a row slot within one table: chunk `id / BLOCK_ROWS`,
/// offset `id % BLOCK_ROWS`. Stable for the life of the row.
pub type RowId = u64;

/// An ordered secondary (or primary) index over one or more columns.
///
/// Keys are the indexed column values in order; entries map to the row ids
/// holding that key. A `unique` index rejects duplicate keys.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name, unique within the database.
    pub name: String,
    /// Positions of the indexed columns within the table schema.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
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

    fn insert(&mut self, key: Vec<Value>, id: RowId) -> DbResult<()> {
        // SQL semantics: NULLs never conflict under UNIQUE. An occupied
        // entry is never empty: `remove` drops a key with its last id.
        let has_null = key.iter().any(Value::is_null);
        match self.entries.entry(key) {
            Entry::Occupied(e) if self.unique && !has_null => Err(DbError::UniqueViolation {
                index: self.name.clone(),
                key: render_key(e.key()),
            }),
            e => {
                e.or_default().push(id);
                Ok(())
            }
        }
    }

    fn remove(&mut self, key: &[Value], id: RowId) {
        if let Some(slot) = self.entries.get_mut(key) {
            slot.retain(|&r| r != id);
            if slot.is_empty() {
                self.entries.remove(key);
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

/// [`BLOCK_ROWS`] consecutive row ids: one column per schema column and the
/// live bit of every slot. A tombstoned slot keeps its values until the
/// table is truncated.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    columns: Vec<Arc<ColumnVec>>,
    live: Vec<bool>,
}

impl Chunk {
    /// A chunk from columns covering `live.len()` slots each.
    pub(crate) fn new(columns: Vec<ColumnVec>, live: Vec<bool>) -> Chunk {
        let columns = columns.into_iter().map(Arc::new).collect();
        Chunk { columns, live }
    }

    fn empty(schema: &Schema) -> Chunk {
        let columns = schema.columns().iter();
        let columns = columns.map(|c| ColumnVec::with_capacity(c.data_type, 0));
        Chunk::new(columns.collect(), Vec::new())
    }

    /// The live rows of columns `cols`, in slot order.
    fn morsel(&self, cols: &[usize]) -> Batch {
        let rows = self.live.iter().filter(|&&l| l).count();
        let column = |c: usize| match rows == self.live.len() {
            true => Arc::clone(&self.columns[c]),
            false => Arc::new(self.columns[c].filter(&self.live)),
        };
        Batch::new(cols.iter().map(|&c| column(c)).collect(), rows)
            .expect("chunk columns cover every slot")
    }
}

/// How to reverse one mutation of the open statement (see
/// [`Table::begin_statement`]): row ids and old images.
#[derive(Debug, Clone)]
enum Undo {
    /// Slots from `from` on were appended by inserts.
    Appended { from: RowId },
    /// Slot `id` held `old` before an update.
    Updated { id: RowId, old: Vec<Value> },
    /// Slot `id` was live before a delete (its values are still stored).
    Deleted { id: RowId },
    /// Chunks, live count and index entries before a truncate.
    Truncated {
        chunks: Vec<Chunk>,
        live: usize,
        entries: Vec<BTreeMap<Vec<Value>, Vec<RowId>>>,
    },
    /// An index was appended to the index list.
    IndexCreated,
    /// The index at `pos` was dropped.
    IndexDropped { pos: usize, index: Index },
}

/// A table: schema + column chunks + attached indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name, unique within the database.
    pub name: String,
    schema: Schema,
    chunks: Vec<Chunk>,
    indexes: Vec<Index>,
    live: usize,
    // When armed, every successful mutation queues a WAL record here; the
    // owning `Database` drains the queue into its sink while still holding
    // the table-map write lock, so log order always matches apply order.
    journal: bool,
    pending_wal: Vec<WalRecord>,
    // Set under the table's write lock when the catalog drops the table.
    // A statement that resolved its `Arc<RwLock<Table>>` handle before the
    // drop, but acquired the lock after, must observe this and fail with
    // `TableNotFound` instead of mutating (and journaling into) a corpse
    // that the WAL has already recorded as dropped.
    dropped: bool,
    // The open statement's undo list, newest last. Recorded only while
    // `in_statement`, so a bare table records nothing; emptied, not freed,
    // when a statement ends.
    undo: Vec<Undo>,
    in_statement: bool,
}

/// Chunk and offset of row id `id`.
fn locate(id: RowId) -> (usize, usize) {
    let rows = BLOCK_ROWS as RowId;
    ((id / rows) as usize, (id % rows) as usize)
}

/// The key `cols` select from the stored row `id`.
fn stored_key(chunks: &[Chunk], cols: &[usize], id: RowId) -> Vec<Value> {
    let (c, off) = locate(id);
    cols.iter()
        .map(|&col| chunks[c].columns[col].value(off))
        .collect()
}

impl Table {
    /// Create an empty table. If the schema declares a primary key, a unique
    /// index `pk_<table>` is created automatically.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let pk = schema.primary_key().to_vec();
        let mut t = Table::from_chunks(name.clone(), schema, Vec::new(), Vec::new());
        if !pk.is_empty() {
            t.indexes.push(Index::new(format!("pk_{name}"), pk, true));
        }
        t
    }

    fn from_chunks(name: String, schema: Schema, chunks: Vec<Chunk>, indexes: Vec<Index>) -> Self {
        let live = chunks.iter().flat_map(|c| &c.live).filter(|&&l| l).count();
        Table {
            name,
            schema,
            chunks,
            indexes,
            live,
            journal: false,
            pending_wal: Vec::new(),
            dropped: false,
            undo: Vec::new(),
            in_statement: false,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Reassemble a table from decoded segment parts: its chunks
    /// (tombstones included) and index definitions `(name, columns,
    /// unique)`. Index entries are rebuilt from the key columns,
    /// re-verifying uniqueness.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        chunks: Vec<Chunk>,
        indexes: Vec<(String, Vec<usize>, bool)>,
    ) -> DbResult<Table> {
        let mut t = Table::from_chunks(name, schema, chunks, Vec::new());
        for (name, columns, unique) in indexes {
            let idx = t.backfill(Index::new(name, columns, unique))?;
            t.indexes.push(idx);
        }
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
                    self.unindex(id);
                    self.write_row(id, &old);
                    self.reindex(id);
                }
                Undo::Deleted { id } => {
                    let (c, off) = locate(id);
                    self.chunks[c].live[off] = true;
                    self.reindex(id);
                    self.live += 1;
                }
                Undo::Truncated {
                    chunks,
                    live,
                    entries,
                } => {
                    self.chunks = chunks;
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

    /// Drop the index entries of the stored row `id`.
    fn unindex(&mut self, id: RowId) {
        for idx in &mut self.indexes {
            idx.remove(&stored_key(&self.chunks, &idx.columns, id), id);
        }
    }

    /// Put back the index entries of the stored row `id` (undo only: the
    /// key was indexed before, so it cannot conflict).
    fn reindex(&mut self, id: RowId) {
        for idx in &mut self.indexes {
            let _ = idx.insert(stored_key(&self.chunks, &idx.columns, id), id);
        }
    }

    /// Overwrite the values of slot `id`, copying its chunk's columns
    /// first if a reader still holds them.
    fn write_row(&mut self, id: RowId, row: &[Value]) {
        let (c, off) = locate(id);
        for (col, v) in self.chunks[c].columns.iter_mut().zip(row) {
            Arc::make_mut(col).set(off, v);
        }
    }

    /// Vacate every slot from `from` on: drop the index entries of the live
    /// ones and cut the chunks back.
    fn truncate_slots(&mut self, from: RowId) {
        let ids: Vec<RowId> = self.live_ids().filter(|&id| id >= from).collect();
        for &id in &ids {
            self.unindex(id);
        }
        self.live -= ids.len();
        let (c, off) = locate(from);
        self.chunks.truncate(c + usize::from(off > 0));
        if off > 0 {
            let chunk = &mut self.chunks[c];
            let columns = chunk.columns.iter().map(|col| col.slice(0, off)).collect();
            *chunk = Chunk::new(columns, chunk.live[..off].to_vec());
        }
    }

    fn journal_push(&mut self, record: impl FnOnce(&Table) -> WalRecord) {
        if self.journal {
            let rec = record(self);
            self.pending_wal.push(rec);
        }
    }

    /// `idx` with an entry for every live row, read off its key columns
    /// (verifying uniqueness).
    fn backfill(&self, mut idx: Index) -> DbResult<Index> {
        for id in self.live_ids() {
            idx.insert(stored_key(&self.chunks, &idx.columns, id), id)?;
        }
        Ok(idx)
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// Number of row ids handed out, tombstones included: the id the next
    /// insert gets.
    pub fn slot_count(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * BLOCK_ROWS + c.live.len())
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
        let idx = self.backfill(Index::new(name.to_string(), cols?, unique))?;
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

    /// Index `row` under `id` in every index, or in none: a unique
    /// violation takes back the entries already made.
    fn index_row(&mut self, row: &[Value], id: RowId) -> DbResult<()> {
        for i in 0..self.indexes.len() {
            let key = self.indexes[i].key_of(row);
            if let Err(e) = self.indexes[i].insert(key, id) {
                for idx in &mut self.indexes[..i] {
                    idx.remove(&idx.key_of(row), id);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Insert a row, validated and coerced against the schema in place.
    /// Returns the new row id; a failed row leaves no trace. The journal
    /// gets the stored image, so the delta the preagg folds holds exactly
    /// the values a scan returns.
    pub fn insert(&mut self, row: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.check_row(&self.name, row)?;
        let id = self.slot_count() as RowId;
        self.index_row(&row, id)?;
        let (c, off) = locate(id);
        if off == 0 {
            self.chunks.push(Chunk::empty(&self.schema));
        }
        let open = &mut self.chunks[c];
        for (col, v) in open.columns.iter_mut().zip(&row) {
            Arc::make_mut(col).push(v);
        }
        open.live.push(true);
        if self.journal {
            self.journal_insert(row);
        }
        self.live += 1;
        self.record_undo(Undo::Appended { from: id });
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

    /// Chunk and offset of the live row `id`.
    fn live_slot(&self, id: RowId) -> DbResult<(usize, usize)> {
        let (c, off) = locate(id);
        match self.chunks.get(c) {
            Some(chunk) if chunk.live.get(off) == Some(&true) => Ok((c, off)),
            _ => Err(DbError::RowNotFound(id)),
        }
    }

    /// The live row `id`, pivoted out of its chunk's columns.
    pub fn row(&self, id: RowId) -> DbResult<Vec<Value>> {
        let (c, off) = self.live_slot(id)?;
        Ok(self.chunks[c]
            .columns
            .iter()
            .map(|col| col.value(off))
            .collect())
    }

    /// Replace a row in place (validated). Indexes are updated atomically:
    /// on unique violation, the old row is restored.
    pub fn update(&mut self, id: RowId, new_row: Vec<Value>) -> DbResult<()> {
        let new_row = self.schema.check_row(&self.name, new_row)?;
        let old = self.row(id)?;
        for idx in &mut self.indexes {
            idx.remove(&idx.key_of(&old), id);
        }
        if let Err(e) = self.index_row(&new_row, id) {
            self.reindex(id);
            return Err(e);
        }
        self.write_row(id, &new_row);
        self.journal_push(|t| WalRecord::Update {
            table: t.name.clone(),
            id,
            row: new_row,
        });
        self.record_undo(Undo::Updated { id, old });
        Ok(())
    }

    /// Delete a row by id: its live bit is cleared.
    pub fn delete(&mut self, id: RowId) -> DbResult<()> {
        let (c, off) = self.live_slot(id)?;
        self.unindex(id);
        self.chunks[c].live[off] = false;
        self.journal_push(|t| WalRecord::Delete {
            table: t.name.clone(),
            id,
        });
        self.live -= 1;
        self.record_undo(Undo::Deleted { id });
        Ok(())
    }

    /// Live row ids in slot order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let base = (c * BLOCK_ROWS) as RowId;
            let live = chunk.live.iter().enumerate().filter(|(_, &l)| l);
            live.map(move |(off, _)| base + off as RowId)
        })
    }

    /// Iterate `(row_id, row)` over live rows in slot order, each row
    /// pivoted out of the columns.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        self.live_ids()
            .map(|id| (id, self.row(id).expect("live_ids yields live rows")))
    }

    /// All live rows as one columnar [`Batch`]: the concatenation of
    /// [`Table::scan_partitions`], one typed column per schema column.
    pub fn scan_batch(&self) -> Batch {
        let arity = self.schema.columns().len();
        Batch::concat(arity, &self.scan_partitions(None)).expect("morsels share the table arity")
    }

    /// The live rows as one morsel per chunk (optionally projected to the
    /// physical columns `cols`, in that order), for parallel execution.
    /// A chunk with no tombstone costs one `Arc` clone per kept column;
    /// concatenating the morsels in order gives [`Table::scan_batch`].
    ///
    /// Always yields at least one (possibly empty) morsel so downstream
    /// operators see the typed column layout even for empty tables.
    ///
    /// # Panics
    /// Panics if any ordinal in `cols` is out of range.
    pub fn scan_partitions(&self, cols: Option<&[usize]>) -> Vec<Batch> {
        let all: Vec<usize> = (0..self.schema.columns().len()).collect();
        let cols = cols.unwrap_or(&all);
        let mut morsels: Vec<Batch> = self
            .chunks
            .iter()
            .filter(|c| c.live.contains(&true))
            .map(|c| c.morsel(cols))
            .collect();
        if morsels.is_empty() {
            morsels.push(Chunk::empty(&self.schema).morsel(cols));
        }
        morsels
    }

    /// Delete every row, keeping schema and (now empty) indexes. Row ids
    /// start again at 0.
    pub fn truncate(&mut self) {
        let chunks = std::mem::take(&mut self.chunks);
        let entries = self
            .indexes
            .iter_mut()
            .map(|idx| std::mem::take(&mut idx.entries))
            .collect();
        self.record_undo(Undo::Truncated {
            chunks,
            live: self.live,
            entries,
        });
        self.live = 0;
        self.journal_push(|t| WalRecord::Truncate {
            table: t.name.clone(),
        });
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
        assert_eq!(t.row(id).unwrap()[1], "ana".into());
        t.update(id, vec![1.into(), "ana maria".into(), 31.into()])
            .unwrap();
        assert_eq!(t.row(id).unwrap()[1], "ana maria".into());
        assert_eq!(t.row(id).unwrap()[2], 31.into());
        t.delete(id).unwrap();
        assert!(matches!(t.row(id), Err(DbError::RowNotFound(_))));
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
        assert_eq!(t.row(a).unwrap()[0], 1.into());
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
        assert_eq!(batch.to_rows(), rows(&t));
    }

    /// `n` users with ids `0..n`.
    fn users_with(n: i64) -> Table {
        let mut t = users();
        for i in 0..n {
            t.insert(vec![i.into(), format!("u{i}").into(), (20 + i).into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn scan_partitions_are_one_morsel_per_chunk() {
        let full = BLOCK_ROWS as i64;
        let mut t = users_with(2 * full + 10);
        // two tombstones in the middle chunk, none in the others
        t.delete(full as RowId).unwrap();
        t.delete(full as RowId + 7).unwrap();
        let morsels = t.scan_partitions(None);
        assert_eq!(
            morsels.iter().map(Batch::num_rows).collect::<Vec<_>>(),
            vec![BLOCK_ROWS, BLOCK_ROWS - 2, 10]
        );
        assert_eq!(Batch::concat(3, &morsels).unwrap().to_rows(), rows(&t));
        assert_eq!(Batch::concat(3, &morsels).unwrap(), t.scan_batch());
        // a chunk with no tombstone is shared, not copied
        let again = t.scan_partitions(None);
        assert!(Arc::ptr_eq(morsels[0].column(1), again[0].column(1)));
        assert!(!Arc::ptr_eq(morsels[1].column(1), again[1].column(1)));
        // projected partitions pick (and reorder) physical columns
        let pruned = t.scan_partitions(Some(&[2, 0]));
        assert_eq!(pruned.len(), 3);
        assert_eq!(pruned[0].num_columns(), 2);
        assert_eq!(pruned[0].value(0, 3), Value::Int(23));
        assert_eq!(pruned[0].value(1, 3), Value::Int(3));
        // a chunk with no live row yields no morsel
        for id in 2 * full..2 * full + 10 {
            t.delete(id as RowId).unwrap();
        }
        assert_eq!(t.scan_partitions(None).len(), 2);
        // an empty table still yields one morsel with the typed layout
        t.truncate();
        let empty = t.scan_partitions(None);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].num_columns(), 3);
        assert!(matches!(
            empty[0].column(1).data(),
            crate::batch::ColumnData::Text(_)
        ));
        assert_eq!(t.scan_partitions(Some(&[])).len(), 1);
    }

    #[test]
    fn morsels_taken_before_a_write_keep_their_image() {
        let mut t = users_with(BLOCK_ROWS as i64 + 3);
        let taken = t.scan_partitions(None);
        let image: Vec<_> = taken.iter().map(Batch::to_rows).collect();
        // a write into either chunk: the open one and a full one
        t.insert(vec![(-1).into(), "late".into(), 1.into()])
            .unwrap();
        t.update(1, vec![1.into(), "renamed".into(), 99.into()])
            .unwrap();
        t.update(
            BLOCK_ROWS as RowId,
            vec![(-2).into(), "moved".into(), Value::Null],
        )
        .unwrap();
        t.delete(2).unwrap();
        t.delete(BLOCK_ROWS as RowId + 1).unwrap();
        assert_eq!(taken.iter().map(Batch::to_rows).collect::<Vec<_>>(), image);
        // and the table itself moved on
        assert_eq!(t.row(1).unwrap()[1], Value::from("renamed"));
        assert_eq!(t.row(BLOCK_ROWS as RowId).unwrap()[2], Value::Null);
        assert_eq!(t.scan_batch().num_rows(), BLOCK_ROWS + 2);
        t.truncate();
        assert_eq!(taken.iter().map(Batch::to_rows).collect::<Vec<_>>(), image);
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

    fn rows(t: &Table) -> Vec<Vec<Value>> {
        t.scan().map(|(_, r)| r).collect()
    }

    /// Everything a rollback must put back: slots (live rows with their
    /// ids, and the id space tombstones included), live count, and every
    /// index's name, keys and row ids.
    type Image = (
        usize,
        Vec<(RowId, Vec<Value>)>,
        usize,
        Vec<(String, usize, Vec<RowId>)>,
    );

    fn image(t: &Table) -> Image {
        let indexes = t
            .indexes()
            .iter()
            .map(|i| (i.name.clone(), i.distinct_keys(), i.ordered_ids()))
            .collect();
        (t.slot_count(), t.scan().collect(), t.row_count(), indexes)
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
