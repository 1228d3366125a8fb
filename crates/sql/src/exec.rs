//! Plan execution: materialized, operator-at-a-time, on the calling thread.
//!
//! Two walkers over [`PlanNode`] exist. [`run_columnar`] → `exec_morsels` is
//! the executor every production SELECT takes: table scans emit one morsel
//! per table chunk (at most [`odbis_storage::BLOCK_ROWS`] rows) as columnar
//! [`Batch`]es that flow through filters and projections column-wise, one
//! morsel after the other. A filter (a scan's, a `Filter`'s, an index probe's
//! residual, a join's residual) is a selection, [`BExpr::select`]: the
//! row indices where the predicate is TRUE, kept by one
//! [`Batch::gather`], and a morsel every row of which passes goes on
//! untouched. A projection of bare columns picks its input's columns.
//! Equi-joins hash the typed key columns of the smaller side, probe the
//! other side into row-index pairs and materialise the output late with
//! [`Batch::gather`]. Aggregation folds every morsel into one group state
//! that lives across the scan and finishes its groups into columns, so a
//! float SUM adds its inputs in scan order and an answer depends on the
//! data alone. Sorts and top-k permute row indices over the typed
//! sort-key columns and gather once. [`run`] is the
//! row-at-a-time interpreter over `Vec<Vec<Value>>`, reachable only through
//! [`crate::Engine::with_row_execution`]: the differential suites use it as
//! their oracle, and it keeps its own row sort and top-k heap to check the
//! index sort against. DISTINCT, index probes and the no-equi-key
//! nested-loop join pivot to rows at their boundary and share row-level
//! kernels with the oracle.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use odbis_storage::{
    Batch, ColumnData, ColumnVec, DataType, Database, DbError, DbResult, Table, Value, NULL_ROW,
};

use crate::accumulator::Accumulator;
use crate::ast::JoinKind;
use crate::error::{SqlError, SqlResult};
use crate::expr::{truth, BExpr};
use crate::plan::{equi_pairs, AggExpr, Plan, PlanNode};

/// Execute a read-only plan, producing materialized rows.
pub fn run(db: &Database, plan: &Plan) -> SqlResult<Vec<Vec<Value>>> {
    match &plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => {
            let rows = db.scan(table)?;
            // Project before filtering: a pushed filter is bound over the
            // pruned column space.
            let rows: Vec<Vec<Value>> = match projection {
                None => rows,
                Some(cols) => rows
                    .into_iter()
                    .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect(),
            };
            match filter {
                None => Ok(rows),
                Some(pred) => {
                    let mut out = Vec::new();
                    for row in rows {
                        if truth(&pred.eval(&row)?) == Some(true) {
                            out.push(row);
                        }
                    }
                    Ok(out)
                }
            }
        }
        PlanNode::IndexScan {
            table,
            index,
            lo,
            hi,
            residual,
        } => {
            let candidates = db.read_table(table, |t| index_rows(t, index, lo, hi))??;
            match residual {
                None => Ok(candidates),
                Some(pred) => {
                    let mut out = Vec::new();
                    for row in candidates {
                        if truth(&pred.eval(&row)?) == Some(true) {
                            out.push(row);
                        }
                    }
                    Ok(out)
                }
            }
        }
        PlanNode::Filter { input, predicate } => {
            let rows = run(db, input)?;
            let mut out = Vec::new();
            for row in rows {
                if truth(&predicate.eval(&row)?) == Some(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Project { input, exprs } => {
            let rows = run(db, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut projected = Vec::with_capacity(exprs.len());
                for e in exprs {
                    projected.push(e.eval(&row)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => join(db, *kind, left, right, on),
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => aggregate(db, input, group_exprs, aggs),
        PlanNode::Sort { input, keys } => {
            let mut rows = run(db, input)?;
            sort_rows(&mut rows, keys);
            Ok(rows)
        }
        PlanNode::Distinct { input } => {
            let rows = run(db, input)?;
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            // Top-k fast path: LIMIT directly above Sort keeps a bounded
            // heap instead of sorting the whole input.
            if let (
                PlanNode::Sort {
                    input: sort_input,
                    keys,
                },
                Some(l),
            ) = (&input.node, limit)
            {
                let rows = run(db, sort_input)?;
                let top = top_k(rows, keys, offset.saturating_add(*l));
                return Ok(top.into_iter().skip(*offset).collect());
            }
            let rows = run(db, input)?;
            let end = limit.map_or(rows.len(), |l| (offset + l).min(rows.len()));
            let start = (*offset).min(rows.len());
            Ok(rows[start..end.max(start)].to_vec())
        }
        PlanNode::Values { batch } => Ok(batch.to_rows()),
    }
}

/// The rows of `table` whose `index` key lies in `[lo, hi]` (either bound
/// optional), in index order — the fetch both walkers' `IndexScan` share.
fn index_rows(
    table: &Table,
    index: &str,
    lo: &Option<Vec<Value>>,
    hi: &Option<Vec<Value>>,
) -> DbResult<Vec<Vec<Value>>> {
    let idx = table
        .index(index)
        .ok_or_else(|| DbError::IndexNotFound(index.to_string()))?;
    idx.range(lo.as_deref(), hi.as_deref())
        .into_iter()
        .map(|id| table.row(id))
        .collect()
}

/// Execute a read-only plan column-wise, producing a [`Batch`]: the
/// in-order concatenation of the plan's output morsels.
pub fn run_columnar(db: &Database, plan: &Plan) -> SqlResult<Batch> {
    let morsels = exec_morsels(db, plan)?;
    Ok(Batch::concat(plan.schema.len(), &morsels)?)
}

/// Returns the plan's output as ordered morsels, whose in-order
/// concatenation is the result.
fn exec_morsels(db: &Database, plan: &Plan) -> SqlResult<Vec<Batch>> {
    let arity = plan.schema.len();
    match &plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => {
            let morsels = db.scan_partitions(table, projection.as_deref())?;
            match filter {
                None => Ok(morsels),
                Some(pred) => morsels.into_iter().map(|m| selected(pred, m)).collect(),
            }
        }
        PlanNode::Filter { input, predicate } => {
            let morsels = exec_morsels(db, input)?;
            morsels
                .into_iter()
                .map(|m| selected(predicate, m))
                .collect()
        }
        PlanNode::Project { input, exprs } => {
            let morsels = exec_morsels(db, input)?;
            morsels
                .into_iter()
                .map(|m| {
                    let cols: Vec<Arc<ColumnVec>> = exprs
                        .iter()
                        .map(|e| e.eval_batch(&m))
                        .collect::<SqlResult<_>>()?;
                    Ok(Batch::new(cols, m.num_rows())?)
                })
                .collect()
        }
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => hash_join(db, *kind, left, right, on),
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let morsels = exec_morsels(db, input)?;
            let state = aggregate_chunk(&morsels, group_exprs, aggs)?;
            Ok(vec![state.finish(group_exprs, aggs)?])
        }
        PlanNode::Sort { input, keys } => {
            let morsels = exec_morsels(db, input)?;
            let batch = Batch::concat(input.schema.len(), &morsels)?;
            let order = SortKeys::new(&batch, keys)?.sorted();
            Ok(vec![batch.gather(&order)])
        }
        PlanNode::Distinct { input } => {
            // Whole-row dedup keeps first occurrences: inherently ordered,
            // so it runs serially over the concatenated input.
            let morsels = exec_morsels(db, input)?;
            let rows = Batch::concat(input.schema.len(), &morsels)?.to_rows();
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok(vec![Batch::from_rows(arity, out)?])
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            if let (
                PlanNode::Sort {
                    input: sort_input,
                    keys,
                },
                Some(l),
            ) = (&input.node, limit)
            {
                let morsels = exec_morsels(db, sort_input)?;
                let batch = Batch::concat(sort_input.schema.len(), &morsels)?;
                let mut top = SortKeys::new(&batch, keys)?.top(offset.saturating_add(*l));
                top.drain(..(*offset).min(top.len()));
                return Ok(vec![batch.gather(&top)]);
            }
            let morsels = exec_morsels(db, input)?;
            let batch = Batch::concat(input.schema.len(), &morsels)?;
            let n = batch.num_rows();
            let end = limit.map_or(n, |l| (offset + l).min(n));
            let start = (*offset).min(n);
            Ok(vec![batch.slice(start, end.max(start))])
        }
        PlanNode::IndexScan {
            table,
            index,
            lo,
            hi,
            residual,
        } => {
            // An index probe fetches scattered rows: they become one
            // morsel, and the residual runs over it column-wise.
            let rows = db.read_table(table, |t| index_rows(t, index, lo, hi))??;
            let batch = Batch::from_rows(arity, rows)?;
            Ok(vec![match residual {
                None => batch,
                Some(pred) => selected(pred, batch)?,
            }])
        }
        PlanNode::Values { batch } => Ok(vec![batch.clone()]),
    }
}

/// The rows of `batch` where `pred` is TRUE, gathered once; `batch` itself,
/// its columns shared, when every row is.
fn selected(pred: &BExpr, batch: Batch) -> SqlResult<Batch> {
    let rows = pred.select(&batch)?;
    Ok(match rows.len() == batch.num_rows() {
        true => batch,
        false => batch.gather(&rows),
    })
}

/// Columnar hash join: the smaller side is concatenated and becomes the
/// build table, the other side probes it into `(probe row, build row)`
/// index pairs, and output columns are gathered from those pairs only once
/// the residual (whatever `on` holds beyond the equi-conjuncts) has been
/// evaluated column-wise over the candidates. Output order matches the row
/// kernel ([`join_rows`]) exactly: probing the left side preserves its
/// natural order, and the build-left variant canonicalizes via a
/// `(left, right)` pair sort.
fn hash_join(
    db: &Database,
    kind: JoinKind,
    left: &Plan,
    right: &Plan,
    on: &BExpr,
) -> SqlResult<Vec<Batch>> {
    let l_arity = left.schema.len();
    let r_arity = right.schema.len();
    let lmorsels = exec_morsels(db, left)?;
    let rmorsels = exec_morsels(db, right)?;
    let (pairs, residual) = equi_pairs(on, l_arity);
    let residual = residual.map(|pred| Residual::new(pred, l_arity));
    if pairs.is_empty() {
        // No equi-keys: fall back to the nested-loop row kernel.
        let lrows = Batch::concat(l_arity, &lmorsels)?.to_rows();
        let rrows = Batch::concat(r_arity, &rmorsels)?.to_rows();
        let rows = join_rows(kind, &lrows, &rrows, l_arity, r_arity, on)?;
        return Ok(vec![Batch::from_rows(l_arity + r_arity, rows)?]);
    }
    let (lkeys, rkeys): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
    let total = |morsels: &[Batch]| morsels.iter().map(Batch::num_rows).sum::<usize>();
    let (l_rows, r_rows) = (total(&lmorsels), total(&rmorsels));
    if l_rows.max(r_rows) >= NULL_ROW as usize {
        return Err(SqlError::Eval(
            "join input exceeds the 32-bit row index".into(),
        ));
    }
    if kind == JoinKind::Inner && l_rows < r_rows {
        // Build on the (smaller) left side, probe the whole right side,
        // then canonicalize: the row kernel emits matches ordered by
        // (left row, right row), which is exactly the sorted pair order.
        let lbatch = Batch::concat(l_arity, &lmorsels)?;
        let rbatch = Batch::concat(r_arity, &rmorsels)?;
        let table = JoinTable::build(&lbatch, &lkeys);
        let (mut ri, mut li) = table.probe(&rbatch, &rkeys, 0, r_rows);
        if let Some(residual) = &residual {
            let keep = residual.select(&lbatch, &li, &rbatch, &ri)?;
            retain_pairs(&mut li, &mut ri, &keep);
        }
        let mut pairs: Vec<(u32, u32)> = li.into_iter().zip(ri).collect();
        pairs.sort_unstable();
        let (li, ri): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        return Ok(vec![joined(&lbatch, &li, &rbatch, &ri)?]);
    }
    // Build on the right side, probe left morsels in natural order. LEFT
    // joins always take this path: the unmatched rows (and their NULL
    // extension) are morsel-local.
    let rbatch = Batch::concat(r_arity, &rmorsels)?;
    let table = JoinTable::build(&rbatch, &rkeys);
    lmorsels
        .iter()
        .map(|m| {
            let (mut li, mut ri) = table.probe(m, &lkeys, 0, m.num_rows());
            if let Some(residual) = &residual {
                let keep = residual.select(m, &li, &rbatch, &ri)?;
                retain_pairs(&mut li, &mut ri, &keep);
            }
            if kind == JoinKind::Left {
                null_extend(&mut li, &mut ri, m.num_rows());
            }
            joined(m, &li, &rbatch, &ri)
        })
        .collect()
}

/// Late materialisation of join output: row `k` is `left[li[k]]` followed
/// by `right[ri[k]]` (all NULL where `ri[k]` is [`NULL_ROW`]).
fn joined(left: &Batch, li: &[u32], right: &Batch, ri: &[u32]) -> SqlResult<Batch> {
    let mut cols = left.gather(li).columns().to_vec();
    cols.extend_from_slice(right.gather(ri).columns());
    Ok(Batch::new(cols, li.len())?)
}

/// What `ON` holds beyond the equi-conjuncts, rebound over just the columns
/// it reads: candidate pairs gather those columns to be filtered, and the
/// full-width gather ([`joined`]) happens once, for the survivors.
struct Residual {
    pred: BExpr,
    /// The joined-row ordinals `pred` reads, ascending; `pred`'s column `k`
    /// is `cols[k]`.
    cols: Vec<usize>,
    l_arity: usize,
}

impl Residual {
    fn new(mut pred: BExpr, l_arity: usize) -> Self {
        let mut cols = Vec::new();
        pred.for_each_column(&mut |c| cols.push(c));
        cols.sort_unstable();
        cols.dedup();
        pred.map_columns(&|c| cols.binary_search(&c).expect("a column it reads"));
        Residual {
            pred,
            cols,
            l_arity,
        }
    }

    /// The positions `k` of the candidate pairs `(left[li[k]], right[ri[k]])`
    /// the predicate holds for, ascending.
    fn select(&self, left: &Batch, li: &[u32], right: &Batch, ri: &[u32]) -> SqlResult<Vec<u32>> {
        let cols = self
            .cols
            .iter()
            .map(|&c| match c.checked_sub(self.l_arity) {
                None => Arc::new(left.column(c).gather(li)),
                Some(c) => Arc::new(right.column(c).gather(ri)),
            })
            .collect();
        self.pred.select(&Batch::new(cols, li.len())?)
    }
}

/// Keep only the candidate pairs at the positions `keep`.
fn retain_pairs(a: &mut Vec<u32>, b: &mut Vec<u32>, keep: &[u32]) {
    for side in [a, b] {
        *side = keep.iter().map(|&k| side[k as usize]).collect();
    }
}

/// The LEFT-join extension: every probe row in `0..n` left without a pair
/// gets `(row, NULL_ROW)` spliced in at its position (`probe` ascends).
fn null_extend(probe: &mut Vec<u32>, build: &mut Vec<u32>, n: usize) {
    let mut out_p = Vec::with_capacity(probe.len().max(n));
    let mut out_b = Vec::with_capacity(probe.len().max(n));
    let mut k = 0;
    for row in 0..n as u32 {
        let first = k;
        while probe.get(k) == Some(&row) {
            k += 1;
        }
        if k == first {
            out_p.push(row);
            out_b.push(NULL_ROW);
        } else {
            out_p.extend_from_slice(&probe[first..k]);
            out_b.extend_from_slice(&build[first..k]);
        }
    }
    *probe = out_p;
    *build = out_b;
}

/// Hash the key of rows `lo..hi`, one column at a time, alongside a flag
/// for keys holding a NULL (which never match). A raw typed key hashes as
/// its [`Value`] does, so two keys that SQL equality matches (`1 = 1.0`, a
/// date and its midnight timestamp) hash alike whatever the layouts of
/// their columns: a build side can be probed by a batch it has never seen.
fn hash_keys(cols: &[&ColumnVec], lo: usize, hi: usize) -> (Vec<u64>, Vec<bool>) {
    let mut hashes = vec![0u64; hi - lo];
    let mut null = vec![false; hi - lo];
    for col in cols {
        macro_rules! fold {
            ($keys:expr) => {
                for (h, key) in hashes.iter_mut().zip($keys) {
                    let mut state = FastHasher(*h);
                    key.hash(&mut state);
                    // a build side takes its bucket from the top bits,
                    // which the multiply-xor step mixes: no finish
                    *h = state.0;
                }
            };
        }
        match col.data() {
            ColumnData::Int(v) => fold!(v[lo..hi].iter().map(|&x| Value::Int(x))),
            ColumnData::Float(v) => fold!(v[lo..hi].iter().map(|&x| Value::Float(x))),
            ColumnData::Timestamp(v) => fold!(v[lo..hi].iter().map(|&x| Value::Timestamp(x))),
            ColumnData::Date(v) => fold!(v[lo..hi].iter().map(|&x| Value::Date(x))),
            ColumnData::Bool(v) => fold!(v[lo..hi].iter().map(|&x| Value::Bool(x))),
            // `Value::Text`'s tag, then the string, without cloning it
            ColumnData::Text(v) => fold!(v[lo..hi].iter().map(|x| (3u8, x.as_str()))),
            ColumnData::Mixed(v) => fold!(&v[lo..hi]),
        }
        for (flag, i) in null.iter_mut().zip(lo..hi) {
            *flag |= col.is_null(i);
        }
    }
    (hashes, null)
}

/// SQL equality of two non-NULL key cells, on the raw data when both
/// columns hold the same exact layout, else through [`Value`], whose `Eq`
/// defines the cross-type matches.
fn keys_equal(a: &ColumnVec, i: usize, b: &ColumnVec, j: usize) -> bool {
    match (a.data(), b.data()) {
        (ColumnData::Int(x), ColumnData::Int(y))
        | (ColumnData::Timestamp(x), ColumnData::Timestamp(y)) => x[i] == y[j],
        (ColumnData::Date(x), ColumnData::Date(y)) => x[i] == y[j],
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[i] == y[j],
        (ColumnData::Text(x), ColumnData::Text(y)) => x[i] == y[j],
        _ => a.value(i) == b.value(j),
    }
}

/// The build side of a hash join: per-row key hashes threaded into bucket
/// chains, so a build key costs no allocation and any number of key columns
/// share one layout. Chains ascend by build row, which is the serial
/// kernel's match order. It holds its key columns, so it can outlive the
/// statement that built it: a materialized aggregate keeps one per joined
/// dimension and probes it with each batch of inserted fact rows.
#[derive(Debug, Clone)]
pub struct JoinTable {
    keys: Vec<Arc<ColumnVec>>,
    hashes: Vec<u64>,
    /// Bucket (the top `64 - shift` hash bits) → first build row.
    heads: Vec<u32>,
    /// Build row → next row of its bucket; [`NULL_ROW`] ends a chain.
    next: Vec<u32>,
    shift: u32,
}

impl JoinTable {
    /// Hash `build`'s `build_keys` columns. Rows with a NULL key are left
    /// out: they never match.
    pub fn build(build: &Batch, build_keys: &[usize]) -> Self {
        let keys: Vec<Arc<ColumnVec>> = build_keys
            .iter()
            .map(|&c| Arc::clone(build.column(c)))
            .collect();
        let n = build.num_rows();
        let (hashes, null) = hash_keys(&keys.iter().map(|k| &**k).collect::<Vec<_>>(), 0, n);
        let bits = (2 * n).next_power_of_two().trailing_zeros().max(4);
        let shift = u64::BITS - bits;
        let mut heads = vec![NULL_ROW; 1 << bits];
        let mut next = vec![NULL_ROW; n];
        for row in (0..n).rev() {
            if !null[row] {
                let head = &mut heads[(hashes[row] >> shift) as usize];
                next[row] = *head;
                *head = row as u32;
            }
        }
        JoinTable {
            keys,
            hashes,
            heads,
            next,
            shift,
        }
    }

    /// Candidate pairs `(probe row, build row)` for `probe`'s rows
    /// `lo..hi` on its `probe_keys` columns, whatever their layouts: equal
    /// non-NULL keys, in probe order then build order.
    pub fn probe(
        &self,
        probe: &Batch,
        probe_keys: &[usize],
        lo: usize,
        hi: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let cols: Vec<&ColumnVec> = probe_keys.iter().map(|&c| &**probe.column(c)).collect();
        let (hashes, null) = hash_keys(&cols, lo, hi);
        let mut probe_rows = Vec::with_capacity(hi - lo);
        let mut build_rows = Vec::with_capacity(hi - lo);
        for (row, (hash, null)) in (lo..hi).zip(hashes.into_iter().zip(null)) {
            if null {
                continue;
            }
            let mut at = self.heads[(hash >> self.shift) as usize];
            while at != NULL_ROW {
                let b = at as usize;
                if self.hashes[b] == hash
                    && self
                        .keys
                        .iter()
                        .zip(&cols)
                        .all(|(key, col)| keys_equal(key, b, col, row))
                {
                    probe_rows.push(row as u32);
                    build_rows.push(at);
                }
                at = self.next[b];
            }
        }
        (probe_rows, build_rows)
    }
}

/// Compare two rows on the given `(column, descending)` sort keys.
fn compare_rows(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> Ordering {
    for (k, desc) in keys {
        let ord = a[*k].cmp_total(&b[*k]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sort_rows(rows: &mut [Vec<Value>], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| compare_rows(a, b, keys));
}

/// The first `k` rows of the stable sort by `keys`, computed with a
/// bounded binary max-heap (O(n log k)) instead of a full sort. The input
/// sequence number breaks ties, which reproduces the stable sort exactly.
fn top_k(rows: Vec<Vec<Value>>, keys: &[(usize, bool)], k: usize) -> Vec<Vec<Value>> {
    if k == 0 {
        return Vec::new();
    }
    struct Entry<'a> {
        row: Vec<Value>,
        seq: usize,
        keys: &'a [(usize, bool)],
    }
    impl Ord for Entry<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            compare_rows(&self.row, &other.row, self.keys).then(self.seq.cmp(&other.seq))
        }
    }
    impl PartialOrd for Entry<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Entry<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry<'_> {}
    let mut heap: std::collections::BinaryHeap<Entry> =
        std::collections::BinaryHeap::with_capacity(k + 1);
    for (seq, row) in rows.into_iter().enumerate() {
        heap.push(Entry { row, seq, keys });
        if heap.len() > k {
            heap.pop(); // the max entry is the current worst candidate
        }
    }
    heap.into_sorted_vec().into_iter().map(|e| e.row).collect()
}

/// A batch's sort keys, compared where they lie: a comparison reads two
/// rows' cells from their typed key columns, and a sort moves `u32` row
/// indices, never rows, so one [`Batch::gather`] of the indices is the
/// sorted batch. The order is [`compare_rows`]' exactly: NULLs first,
/// floats by `total_cmp`, `Mixed` cells by [`Value::cmp_total`], each key
/// reversed when descending.
struct SortKeys<'a> {
    keys: Vec<(&'a ColumnVec, bool)>,
    rows: u32,
}

impl<'a> SortKeys<'a> {
    /// The `(column, descending)` keys of `batch`.
    fn new(batch: &'a Batch, keys: &[(usize, bool)]) -> SqlResult<Self> {
        let rows = u32::try_from(batch.num_rows())
            .ok()
            .filter(|&n| n < NULL_ROW)
            .ok_or_else(|| SqlError::Eval("sort input exceeds the 32-bit row index".into()))?;
        Ok(SortKeys {
            keys: keys
                .iter()
                .map(|&(c, desc)| (&**batch.column(c), desc))
                .collect(),
            rows,
        })
    }

    fn cmp(&self, a: u32, b: u32) -> Ordering {
        for &(col, desc) in &self.keys {
            let ord = cmp_cells(col, a as usize, b as usize);
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }

    /// Every row index, in the order of a stable sort by the keys.
    fn sorted(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.rows).collect();
        order.sort_by(|&a, &b| self.cmp(a, b));
        order
    }

    /// The first `k` indices of [`Self::sorted`], by selection: with the
    /// row position as the last key the order is total, so the `k` least
    /// indices are the stable sort's prefix, and only they are sorted.
    fn top(&self, k: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.rows).collect();
        let by_key = |a: &u32, b: &u32| self.cmp(*a, *b).then(a.cmp(b));
        if k < order.len() {
            order.select_nth_unstable_by(k, by_key);
            order.truncate(k);
        }
        order.sort_unstable_by(by_key);
        order
    }
}

/// [`Value::cmp_total`] of rows `i` and `j` of `col`, read from its raw
/// data.
fn cmp_cells(col: &ColumnVec, i: usize, j: usize) -> Ordering {
    if let Some(nulls) = col.nulls() {
        match (nulls[i], nulls[j]) {
            (false, false) => {}
            (a, b) => return b.cmp(&a),
        }
    }
    match col.data() {
        ColumnData::Int(v) | ColumnData::Timestamp(v) => v[i].cmp(&v[j]),
        ColumnData::Float(v) => v[i].total_cmp(&v[j]),
        ColumnData::Text(v) => v[i].cmp(&v[j]),
        ColumnData::Date(v) => v[i].cmp(&v[j]),
        ColumnData::Bool(v) => v[i].cmp(&v[j]),
        ColumnData::Mixed(v) => v[i].cmp_total(&v[j]),
    }
}

fn join(
    db: &Database,
    kind: JoinKind,
    left: &Plan,
    right: &Plan,
    on: &BExpr,
) -> SqlResult<Vec<Vec<Value>>> {
    let lrows = run(db, left)?;
    let rrows = run(db, right)?;
    join_rows(
        kind,
        &lrows,
        &rrows,
        left.schema.len(),
        right.schema.len(),
        on,
    )
}

/// Row-level join kernel shared by both executors.
fn join_rows(
    kind: JoinKind,
    lrows: &[Vec<Value>],
    rrows: &[Vec<Value>],
    l_arity: usize,
    r_arity: usize,
    on: &BExpr,
) -> SqlResult<Vec<Vec<Value>>> {
    let (eq_pairs, _) = equi_pairs(on, l_arity);
    let mut out = Vec::new();
    if !eq_pairs.is_empty() {
        // build on the right side
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (ri, rrow) in rrows.iter().enumerate() {
            let key: Vec<Value> = eq_pairs.iter().map(|&(_, j)| rrow[j].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never match
            }
            table.entry(key).or_default().push(ri);
        }
        for lrow in lrows {
            let key: Vec<Value> = eq_pairs.iter().map(|&(i, _)| lrow[i].clone()).collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(ris) = table.get(&key) {
                    for &ri in ris {
                        let mut combined = lrow.clone();
                        combined.extend(rrows[ri].iter().cloned());
                        if truth(&on.eval(&combined)?) == Some(true) {
                            out.push(combined);
                            matched = true;
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut combined = lrow.clone();
                combined.extend(std::iter::repeat_n(Value::Null, r_arity));
                out.push(combined);
            }
        }
    } else {
        for lrow in lrows {
            let mut matched = false;
            for rrow in rrows {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                if truth(&on.eval(&combined)?) == Some(true) {
                    out.push(combined);
                    matched = true;
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut combined = lrow.clone();
                combined.extend(std::iter::repeat_n(Value::Null, r_arity));
                out.push(combined);
            }
        }
    }
    Ok(out)
}

/// Running hash-aggregation state: group key → (first-seen order,
/// one accumulator per aggregate).
struct GroupState {
    groups: FastMap<Vec<Value>, (usize, Vec<Accumulator>)>,
}

impl GroupState {
    fn new() -> Self {
        GroupState {
            groups: FastMap::default(),
        }
    }

    /// The accumulators of `key`'s group, creating it on first sight.
    /// Looks up by slice so the per-row scratch key is only cloned for new
    /// groups, not on every row.
    fn entry(&mut self, key: &[Value], aggs: &[AggExpr]) -> &mut [Accumulator] {
        if !self.groups.contains_key(key) {
            let accs = aggs
                .iter()
                .map(|a| Accumulator::new(a.func, a.distinct))
                .collect();
            self.groups.insert(key.to_vec(), (self.groups.len(), accs));
        }
        &mut self.groups.get_mut(key).expect("entry just ensured").1
    }

    /// Merge a closed dense run's state into this one. `other`'s groups
    /// are visited in its first-seen order, so merging runs in scan order
    /// preserves the global first-seen order.
    fn merge(&mut self, other: GroupState) {
        for (key, accs) in other.into_ordered() {
            let ord = self.groups.len();
            match self.groups.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert((ord, accs));
                }
                Entry::Occupied(mut slot) => {
                    for (mine, acc) in slot.get_mut().1.iter_mut().zip(&accs) {
                        mine.merge(acc);
                    }
                }
            }
        }
    }

    /// The groups, finished into columns ([`finish_groups`]).
    fn finish(self, group_exprs: &[BExpr], aggs: &[AggExpr]) -> SqlResult<Batch> {
        let width = (group_exprs.len(), aggs.len());
        // Global aggregation over an empty input still yields one row.
        if group_exprs.is_empty() && self.groups.is_empty() {
            let accs: Vec<Accumulator> = aggs
                .iter()
                .map(|a| Accumulator::new(a.func, a.distinct))
                .collect();
            return finish_groups(std::iter::once((Vec::new(), accs)), width);
        }
        finish_groups(self.into_ordered(), width)
    }

    /// Each group's key and accumulators, in first-seen order.
    fn into_ordered(self) -> impl Iterator<Item = (Vec<Value>, Vec<Accumulator>)> {
        let mut groups: Vec<_> = self.groups.into_iter().collect();
        groups.sort_unstable_by_key(|(_, (ord, _))| *ord);
        groups.into_iter().map(|(key, (_, accs))| (key, accs))
    }
}

/// Finish `(key, accumulators)` groups into a batch of `keys` key columns
/// then `aggs` aggregate columns, one row per group in the order given:
/// each value goes straight into its column, and no row is built. A column
/// is typed by [`ColumnVec::from_values`], so it is `Mixed` when its values
/// come out with more than one type (a SUM that went inexact in some
/// groups). A group whose aggregate fails to finish (SUM over TEXT) is the
/// error.
pub fn finish_groups<K, A>(
    groups: impl IntoIterator<Item = (K, A)>,
    (keys, aggs): (usize, usize),
) -> SqlResult<Batch>
where
    K: AsRef<[Value]>,
    A: AsRef<[Accumulator]>,
{
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); keys + aggs];
    let mut rows = 0;
    for (key, accs) in groups {
        let (key_cols, agg_cols) = cols.split_at_mut(keys);
        for (col, v) in key_cols.iter_mut().zip(key.as_ref()) {
            col.push(v.clone());
        }
        for (col, acc) in agg_cols.iter_mut().zip(accs.as_ref()) {
            col.push(acc.finish()?);
        }
        rows += 1;
    }
    let cols = cols
        .into_iter()
        .map(|c| Arc::new(ColumnVec::from_values(c)));
    Ok(Batch::new(cols.collect(), rows)?)
}

/// Add one row's argument to an accumulator: `None` is `COUNT(*)`'s.
fn add_arg(acc: &mut Accumulator, arg: Option<&Value>) {
    match arg {
        None => acc.count_row(),
        Some(v) => acc.add(v),
    }
}

fn aggregate(
    db: &Database,
    input: &Plan,
    group_exprs: &[BExpr],
    aggs: &[AggExpr],
) -> SqlResult<Vec<Vec<Value>>> {
    let rows = run(db, input)?;
    let mut state = GroupState::new();
    let mut key = Vec::with_capacity(group_exprs.len());
    for row in &rows {
        key.clear();
        for g in group_exprs {
            key.push(g.eval(row)?);
        }
        let accs = state.entry(&key, aggs);
        for (acc, agg) in accs.iter_mut().zip(aggs) {
            let arg = agg.arg.as_ref().map(|e| e.eval(row)).transpose()?;
            add_arg(acc, arg.as_ref());
        }
    }
    Ok(state.finish(group_exprs, aggs)?.to_rows())
}

/// The workspace's hasher for the executor's group tables and join build
/// sides, and for a materialized aggregate's cells, which are built from
/// them: FxHash's multiply-xor step per word, finished with MurmurHash3's
/// mixer. The step carries each key bit only into the hash bits at or
/// above it, and a map takes its bucket from the low bits of the hash:
/// without the finish, a [`Value`] Int, which hashes through its f64 bits,
/// and a packed pair of codes `(a << 32) | b` would pick their buckets
/// from a few low bits of their own. Not DoS-resistant; it hashes only the
/// tenant's own keys.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.add(tail.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)));
        }
    }

    // `Value` hashes a one-byte tag and then a word
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    // a slice key hashes its length, then its bytes
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

impl FastHasher {
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// A [`Dictionary`]'s key → code map, in the shape its column layout needs.
enum KeyCodes {
    /// `Int`/`Date`/`Timestamp`/`Bool` keys, widened to `i64`.
    Words(FastMap<i64, u32>),
    /// `Text` keys; each distinct string is cloned once, on first sight.
    Texts(FastMap<String, u32>),
}

/// One group column's running dictionary: a typed key → code map that
/// assigns codes in first-seen order and lives across morsels.
struct Dictionary {
    /// The column layout the keys were read from.
    ty: DataType,
    codes: KeyCodes,
    /// Code → key.
    values: Vec<Value>,
    null_code: Option<u32>,
}

impl Dictionary {
    /// A dictionary for `col`'s layout; `None` for the layouts the dense
    /// path does not handle (floats are not hashable, `Mixed` has no
    /// single type).
    fn for_column(col: &ColumnVec) -> Option<Self> {
        let ty = col.data_type()?;
        let codes = match ty {
            DataType::Float => return None,
            DataType::Text => KeyCodes::Texts(FastMap::default()),
            _ => KeyCodes::Words(FastMap::default()),
        };
        Some(Dictionary {
            ty,
            codes,
            values: Vec::new(),
            null_code: None,
        })
    }

    /// The code of every row of `col`, extending the dictionary with keys
    /// not seen before. `None` when `col` has another layout than the one
    /// this dictionary was started for.
    fn encode(&mut self, col: &ColumnVec) -> Option<Vec<u32>> {
        if col.data_type() != Some(self.ty) {
            return None;
        }
        /// Append `key` to the code → key list; its code.
        fn push(values: &mut Vec<Value>, key: Value) -> u32 {
            values.push(key);
            (values.len() - 1) as u32
        }
        let nulls = col.nulls();
        let values = &mut self.values;
        let null_code = &mut self.null_code;
        // One code per row: the NULL code, or `code_of` the raw key.
        macro_rules! codes {
            ($raws:expr, |$raw:ident| $code_of:expr) => {
                $raws
                    .iter()
                    .enumerate()
                    .map(|(i, $raw)| {
                        if nulls.is_some_and(|m| m[i]) {
                            *null_code.get_or_insert_with(|| push(values, Value::Null))
                        } else {
                            $code_of
                        }
                    })
                    .collect()
            };
        }
        macro_rules! word {
            ($map:expr, $raw:expr, $variant:path) => {
                *$map
                    .entry(i64::from(*$raw))
                    .or_insert_with(|| push(values, $variant(*$raw)))
            };
        }
        Some(match (&mut self.codes, col.data()) {
            (KeyCodes::Words(map), ColumnData::Int(v)) => codes!(v, |r| word!(map, r, Value::Int)),
            (KeyCodes::Words(map), ColumnData::Timestamp(v)) => {
                codes!(v, |r| word!(map, r, Value::Timestamp))
            }
            (KeyCodes::Words(map), ColumnData::Date(v)) => {
                codes!(v, |r| word!(map, r, Value::Date))
            }
            (KeyCodes::Words(map), ColumnData::Bool(v)) => {
                codes!(v, |r| word!(map, r, Value::Bool))
            }
            (KeyCodes::Texts(map), ColumnData::Text(v)) => codes!(v, |r| {
                if let Some(&code) = map.get(r.as_str()) {
                    code
                } else {
                    let code = push(values, Value::Text(r.clone()));
                    map.insert(r.clone(), code);
                    code
                }
            }),
            _ => return None,
        })
    }
}

/// Dense-id aggregation state for typed group columns, alive across a run
/// of morsels: the typed key → code dictionaries, the code → group id
/// maps, the first-seen key list and one flat accumulator vector per
/// aggregate (indexed by group id), so the accumulation loops index vectors
/// instead of hashing a `Vec<Value>` per row and nothing is allocated per
/// group per morsel.
struct DenseGroups {
    dicts: Vec<Dictionary>,
    /// Per group column after the first: the id of the row's key up to the
    /// column before and the column's code, packed into a `u64` (both fit
    /// in 32 bits, so it is an exact composite key) → the id of the key up
    /// to this column. The last map's ids are the group ids.
    prefix_ids: Vec<FastMap<u64, u32>>,
    /// Group id → key, in first-seen order.
    keys: Vec<Vec<Value>>,
    /// `[aggregate][group id]`.
    accs: Vec<Vec<Accumulator>>,
}

impl DenseGroups {
    /// State for these group columns' layouts and these aggregates; `None`
    /// for a global aggregate, a DISTINCT aggregate, or a group column
    /// with no dictionary. Any number of group columns is coded.
    fn for_columns(group_cols: &[Arc<ColumnVec>], aggs: &[AggExpr]) -> Option<Self> {
        if group_cols.is_empty() || aggs.iter().any(|a| a.distinct) {
            return None;
        }
        Some(DenseGroups {
            dicts: group_cols
                .iter()
                .map(|c| Dictionary::for_column(c))
                .collect::<Option<_>>()?,
            prefix_ids: (1..group_cols.len()).map(|_| FastMap::default()).collect(),
            keys: Vec::new(),
            accs: vec![Vec::new(); aggs.len()],
        })
    }

    /// Each row's group id, registering groups not seen before. `None`
    /// when a group column changed layout since this state was started.
    fn group_ids(&mut self, group_cols: &[Arc<ColumnVec>]) -> Option<Vec<u32>> {
        let codes: Vec<Vec<u32>> = self
            .dicts
            .iter_mut()
            .zip(group_cols)
            .map(|(d, c)| d.encode(c))
            .collect::<Option<_>>()?;
        let pack = |id: u32, code: u32| (u64::from(id) << 32) | u64::from(code);
        let mut ids = codes[0].clone();
        let Some((last, inner)) = self.prefix_ids.split_last_mut() else {
            // one column: its dictionary code is the group id
            let values = &self.dicts[0].values;
            let known = self.keys.len();
            self.keys
                .extend(values[known..].iter().map(|v| vec![v.clone()]));
            return Some(ids);
        };
        for (map, col) in inner.iter_mut().zip(&codes[1..]) {
            for (id, &code) in ids.iter_mut().zip(col) {
                let next = map.len() as u32;
                *id = *map.entry(pack(*id, code)).or_insert(next);
            }
        }
        let (keys, dicts) = (&mut self.keys, &self.dicts);
        for (row, (id, &code)) in ids.iter_mut().zip(&codes[codes.len() - 1]).enumerate() {
            *id = *last.entry(pack(*id, code)).or_insert_with(|| {
                let key = dicts.iter().zip(&codes);
                keys.push(
                    key.map(|(d, c)| d.values[c[row] as usize].clone())
                        .collect(),
                );
                (keys.len() - 1) as u32
            });
        }
        Some(ids)
    }

    /// Fold one morsel's aggregate arguments into the rows' groups.
    fn fold(&mut self, gids: &[u32], arg_cols: &[Option<Arc<ColumnVec>>], aggs: &[AggExpr]) {
        for ((accs, agg), col) in self.accs.iter_mut().zip(aggs).zip(arg_cols) {
            accs.resize(self.keys.len(), Accumulator::new(agg.func, false));
            match col {
                None => {
                    for &g in gids {
                        accs[g as usize].count_row();
                    }
                }
                Some(col) => accumulate_column(gids, col, accs),
            }
        }
    }

    fn into_state(self) -> GroupState {
        let mut accs: Vec<_> = self.accs.into_iter().map(Vec::into_iter).collect();
        let mut state = GroupState::new();
        for (ord, key) in self.keys.into_iter().enumerate() {
            let entry = (ord, accs.iter_mut().filter_map(Iterator::next).collect());
            state.groups.insert(key, entry);
        }
        state
    }
}

/// A morsel of fewer rows than this that no [`DenseGroups`] run is open
/// for takes the generic path: a dense run's dictionaries and code maps
/// cost more to set up than hashing a few keys does, and a materialized
/// aggregate folds most inserts as a morsel of one row.
const DENSE_MIN_ROWS: usize = 64;

/// Fold a scan's morsels, in order, into one [`GroupState`]. Group keys
/// and aggregate arguments are evaluated as whole columns per morsel;
/// while the group columns stay typed and hashable the rows fold into one
/// [`DenseGroups`] that lives across the morsels and becomes a `GroupState` once, at the end. A morsel whose
/// group columns have another layout closes that run (first-seen order is
/// kept: earlier runs merge first) and either starts the next one or, for
/// `Float`/`Mixed` keys, DISTINCT aggregates, global aggregates and
/// morsels under [`DENSE_MIN_ROWS`] rows, takes the generic `Vec<Value>`
/// hash path.
fn aggregate_chunk(
    morsels: &[Batch],
    group_exprs: &[BExpr],
    aggs: &[AggExpr],
) -> SqlResult<GroupState> {
    let mut state = GroupState::new();
    let mut dense: Option<DenseGroups> = None;
    let mut key = Vec::with_capacity(group_exprs.len());
    for input in morsels {
        let group_cols: Vec<Arc<ColumnVec>> = group_exprs
            .iter()
            .map(|g| g.eval_batch(input))
            .collect::<SqlResult<_>>()?;
        let arg_cols: Vec<Option<Arc<ColumnVec>>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval_batch(input)).transpose())
            .collect::<SqlResult<_>>()?;
        let mut gids = dense.as_mut().and_then(|d| d.group_ids(&group_cols));
        if gids.is_none() {
            if let Some(run) = dense.take() {
                state.merge(run.into_state());
            }
            if input.num_rows() >= DENSE_MIN_ROWS {
                dense = DenseGroups::for_columns(&group_cols, aggs);
                gids = dense.as_mut().and_then(|d| d.group_ids(&group_cols));
            }
        }
        if let (Some(run), Some(gids)) = (&mut dense, gids) {
            run.fold(&gids, &arg_cols, aggs);
            continue;
        }
        for i in 0..input.num_rows() {
            key.clear();
            key.extend(group_cols.iter().map(|c| c.value(i)));
            let accs = state.entry(&key, aggs);
            for (acc, col) in accs.iter_mut().zip(&arg_cols) {
                add_arg(acc, col.as_ref().map(|c| c.value(i)).as_ref());
            }
        }
    }
    match dense {
        Some(run) if state.groups.is_empty() => Ok(run.into_state()),
        Some(run) => {
            state.merge(run.into_state());
            Ok(state)
        }
        None => Ok(state),
    }
}

/// A `GROUP BY` over the first `keys` columns of `batches`, with one
/// accumulator per group for each of `aggs`, whose arguments are bound
/// over the batches' columns: the kernel a SQL aggregation runs, for a
/// caller that keeps the groups itself.
/// Each group's key and accumulators, in the order the groups were first
/// seen.
pub fn aggregate_columns(
    batches: &[Batch],
    keys: usize,
    aggs: &[AggExpr],
) -> SqlResult<impl Iterator<Item = (Vec<Value>, Vec<Accumulator>)>> {
    let group_exprs: Vec<BExpr> = (0..keys).map(BExpr::Column).collect();
    Ok(aggregate_chunk(batches, &group_exprs, aggs)?.into_ordered())
}

/// Fold one aggregate's argument column into its per-group accumulators.
fn accumulate_column(gids: &[u32], col: &ColumnVec, accs: &mut [Accumulator]) {
    let nulls = col.nulls();
    let live = |i: usize| !nulls.is_some_and(|m| m[i]);
    match col.data() {
        ColumnData::Int(v) => {
            for (i, &g) in gids.iter().enumerate() {
                if live(i) {
                    accs[g as usize].add_int(v[i]);
                }
            }
        }
        ColumnData::Float(v) => {
            for (i, &g) in gids.iter().enumerate() {
                if live(i) {
                    accs[g as usize].add_float(v[i]);
                }
            }
        }
        _ => {
            for (i, &g) in gids.iter().enumerate() {
                accs[g as usize].add(&col.value(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggFunc, BinOp};
    use crate::plan::PlanCol;

    fn values(rows: Vec<Vec<Value>>) -> Plan {
        let arity = rows.first().map_or(0, Vec::len);
        Plan {
            node: PlanNode::Values {
                batch: Batch::from_rows(arity, rows).unwrap(),
            },
            schema: (0..arity)
                .map(|c| PlanCol::unqualified(format!("c{c}")))
                .collect(),
        }
    }

    fn join(kind: JoinKind, left: Plan, right: Plan, on: BExpr) -> Plan {
        let mut schema = left.schema.clone();
        schema.extend(right.schema.clone());
        Plan {
            node: PlanNode::Join {
                kind,
                left: Box::new(left),
                right: Box::new(right),
                on,
            },
            schema,
        }
    }

    fn binary(op: BinOp, left: BExpr, right: BExpr) -> BExpr {
        BExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `VALUES` leaves are the one way a heterogeneous (`Mixed`) column
    /// reaches a join: the keys must then match exactly as [`Value`]'s
    /// cross-type `Eq` says (`1 = 1.0`, a date = its midnight timestamp,
    /// `3 <> '3'`), in the oracle's order, for both build orientations.
    #[test]
    fn mixed_key_columns_join_like_the_row_oracle() {
        let day = 86_400_000_000i64;
        let a = vec![
            vec![Value::Int(1), Value::from("a0")],
            vec![Value::Float(2.0), Value::from("a1")],
            vec![Value::from("x"), Value::from("a2")],
            vec![Value::Null, Value::from("a3")],
            vec![Value::Date(1), Value::from("a4")],
            vec![Value::Int(3), Value::from("a5")],
            vec![Value::Bool(true), Value::from("a6")],
            vec![Value::Int(1), Value::from("a7")],
        ];
        let b = vec![
            vec![Value::Float(1.0), Value::Int(10)],
            vec![Value::Int(2), Value::Int(11)],
            vec![Value::from("x"), Value::Int(12)],
            vec![Value::Null, Value::Int(13)],
            vec![Value::Timestamp(day), Value::Int(14)],
            vec![Value::from("3"), Value::Int(15)],
            vec![Value::Int(1), Value::Int(16)],
            vec![Value::Bool(true), Value::Int(17)],
            vec![Value::Timestamp(day + 1), Value::Int(18)],
            vec![Value::Float(2.5), Value::Int(19)],
        ];
        let db = Database::new();
        for (left, right) in [(&a, &b), (&b, &a)] {
            let on = binary(BinOp::Eq, BExpr::Column(0), BExpr::Column(2));
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let plan = join(
                    kind,
                    values(left.clone()),
                    values(right.clone()),
                    on.clone(),
                );
                let expected = run(&db, &plan).unwrap();
                // 1 (twice) × {1.0, 1}, 2.0 × 2, 'x', the date, TRUE
                let matches = expected.iter().filter(|r| !r[2].is_null()).count();
                assert_eq!(matches, 8, "{kind:?}");
                let got = run_columnar(&db, &plan).unwrap().to_rows();
                assert_eq!(expected, got, "{kind:?}");
            }
        }
    }

    /// A raw typed key hashes as its `Value` does, and a `Mixed` column as
    /// its values: a stored build side finds every match SQL equality
    /// gives, whatever the layout of the column that probes it.
    #[test]
    fn raw_typed_keys_hash_like_their_values() {
        let day = 86_400_000_000i64;
        let columns = [
            (
                ColumnData::Int(vec![1, -7]),
                vec![Value::Float(1.0), Value::Int(-7)],
            ),
            (
                ColumnData::Float(vec![1.0, 2.5]),
                vec![Value::Int(1), Value::Float(2.5)],
            ),
            (
                ColumnData::Date(vec![1, 0]),
                vec![Value::Timestamp(day), Value::Date(0)],
            ),
            (ColumnData::Timestamp(vec![day]), vec![Value::Date(1)]),
            (ColumnData::Bool(vec![true]), vec![Value::Bool(true)]),
            (
                ColumnData::Text(vec!["ab".into(), String::new()]),
                vec!["ab".into(), "".into()],
            ),
        ];
        for (data, values) in columns {
            let typed = ColumnVec::new(data, None);
            let mixed = ColumnVec::new(ColumnData::Mixed(values.clone()), None);
            let n = values.len();
            assert_eq!(
                hash_keys(&[&typed], 0, n),
                hash_keys(&[&mixed], 0, n),
                "{typed:?}"
            );
            for (i, v) in values.iter().enumerate() {
                assert_eq!(&typed.value(i), v, "{typed:?} row {i}");
                assert!(keys_equal(&typed, i, &mixed, i), "{typed:?} row {i}");
            }
        }
    }

    /// Any number of typed group columns is keyed by its codes (the dense
    /// path takes every such GROUP BY without DISTINCT): a row's group is
    /// its whole key, NULL is a key value, and ids follow first sight
    /// across morsels.
    #[test]
    fn dense_groups_key_any_number_of_columns() {
        let morsel = |ints: Vec<i64>, texts: &[&str], nulls: Vec<bool>| -> Vec<Arc<ColumnVec>> {
            let n = ints.len();
            vec![
                Arc::new(ColumnVec::new(ColumnData::Int(ints.clone()), None)),
                Arc::new(ColumnVec::new(
                    ColumnData::Text(texts.iter().map(|t| t.to_string()).collect()),
                    None,
                )),
                Arc::new(ColumnVec::new(ColumnData::Int(ints), Some(nulls))),
                Arc::new(ColumnVec::new(ColumnData::Date(vec![3; n]), None)),
            ]
        };
        let first = morsel(
            vec![1, 1, 2, 1, 1],
            &["a", "a", "a", "b", "a"],
            vec![false, false, false, false, true],
        );
        let mut dense = DenseGroups::for_columns(&first, &[]).expect("typed columns");
        assert_eq!(dense.group_ids(&first), Some(vec![0, 0, 1, 2, 3]));
        let second = morsel(vec![2, 1, 5], &["a", "a", "a"], vec![false, true, false]);
        assert_eq!(dense.group_ids(&second), Some(vec![1, 3, 4]));
        let key = |i: i64, t: &str, n: Value| vec![Value::Int(i), t.into(), n, Value::Date(3)];
        assert_eq!(
            dense.keys,
            [
                key(1, "a", Value::Int(1)),
                key(2, "a", Value::Int(2)),
                key(1, "b", Value::Int(1)),
                key(1, "a", Value::Null),
                key(5, "a", Value::Int(5)),
            ]
        );
        // what stays on the generic path: no group column, a DISTINCT
        // aggregate, a FLOAT group column
        let distinct = AggExpr {
            func: AggFunc::Count,
            arg: Some(BExpr::Column(0)),
            distinct: true,
        };
        assert!(DenseGroups::for_columns(&[], &[]).is_none());
        assert!(DenseGroups::for_columns(&first, &[distinct]).is_none());
        let float = Arc::new(ColumnVec::new(ColumnData::Float(vec![0.5; 5]), None));
        let with_float = [first, vec![float]].concat();
        assert!(DenseGroups::for_columns(&with_float, &[]).is_none());
    }

    /// A dense run, a generic morsel and a second dense run (each dense
    /// morsel holds [`DENSE_MIN_ROWS`] rows): the groups come out in the
    /// order they were first seen.
    #[test]
    fn aggregate_columns_yields_groups_in_first_seen_order() {
        let batch = |keys: Vec<Value>| {
            let n = keys.len();
            Batch::from_columns(vec![
                ColumnVec::from_values(keys),
                ColumnVec::from_values(vec![Value::Int(1); n]),
            ])
            .unwrap()
        };
        // `v`, then `pad` until the morsel is big enough to run dense
        let ints = |v: &[i64], pad: i64| {
            let padded = v.iter().copied().chain(std::iter::repeat(pad));
            batch(padded.take(DENSE_MIN_ROWS).map(Value::Int).collect())
        };
        let batches = [
            ints(&[5, 1, 5, 9], 1),
            batch(vec![Value::Int(7), "x".into()]),
            ints(&[1, 8], 8),
        ];
        let count = AggExpr {
            func: AggFunc::Count,
            arg: Some(BExpr::Column(1)),
            distinct: false,
        };
        let groups: Vec<(Value, Value)> = aggregate_columns(&batches, 1, &[count])
            .unwrap()
            .map(|(key, accs)| (key[0].clone(), accs[0].finish().unwrap()))
            .collect();
        let expected: Vec<(Value, Value)> = [
            (Value::Int(5), 2),
            (Value::Int(1), DENSE_MIN_ROWS as i64 - 3 + 1),
            (Value::Int(9), 1),
            (Value::Int(7), 1),
            ("x".into(), 1),
            (Value::Int(8), DENSE_MIN_ROWS as i64 - 1),
        ]
        .into_iter()
        .map(|(k, n)| (k, Value::Int(n)))
        .collect();
        assert_eq!(groups, expected);
    }

    #[test]
    fn null_extension_splices_unmatched_probe_rows_in_place() {
        let (mut p, mut b) = (vec![1, 1, 3], vec![7, 9, 2]);
        null_extend(&mut p, &mut b, 5);
        assert_eq!(p, vec![0, 1, 1, 2, 3, 4]);
        assert_eq!(b, vec![NULL_ROW, 7, 9, NULL_ROW, 2, NULL_ROW]);
        let (mut p, mut b) = (Vec::new(), Vec::new());
        null_extend(&mut p, &mut b, 2);
        assert_eq!((p, b), (vec![0, 1], vec![NULL_ROW, NULL_ROW]));
    }
}
