//! Plan execution: materialized, operator-at-a-time.
//!
//! Two walkers over [`PlanNode`] exist. [`run_columnar`] → `exec_morsels` is
//! the executor every production SELECT takes: table scans emit fixed-size
//! morsels ([`MORSEL_ROWS`] rows) of columnar [`Batch`]es that flow through
//! filters and projections column-wise on a scoped worker pool, equi-joins
//! become partitioned hash joins, and aggregation runs two-phase
//! (per-worker partial states merged in worker order). With one worker the
//! pool runs inline, so the serial executor is this same walker at
//! `threads = 1`, and every parallel operator reproduces the serial output
//! ordering exactly. [`run`] is the row-at-a-time interpreter over
//! `Vec<Vec<Value>>`, reachable only through
//! [`crate::Engine::with_row_execution`]: the differential suites use it as
//! their oracle. Joins, sorts and top-k pivot to rows at their boundary and
//! share one set of row-level kernels between the two walkers.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use odbis_storage::{Batch, ColumnData, ColumnVec, Database, DbError, DbResult, Table, Value};

use crate::ast::{AggFunc, BinOp, JoinKind};
use crate::error::{SqlError, SqlResult};
use crate::expr::{keep_mask, truth, BExpr};
use crate::plan::{AggExpr, Plan, PlanNode};

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
        PlanNode::Values { rows } => Ok(rows.clone()),
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
        .map(|id| table.get(id).map(<[Value]>::to_vec))
        .collect()
}

/// Rows per morsel: the unit of work handed to parallel operators.
pub const MORSEL_ROWS: usize = 4096;

/// Execute a read-only plan column-wise on `threads` workers, producing a
/// [`Batch`]: the in-order concatenation of the plan's output morsels.
pub fn run_columnar(db: &Database, plan: &Plan, threads: usize) -> SqlResult<Batch> {
    let morsels = exec_morsels(db, plan, threads)?;
    Ok(Batch::concat(plan.schema.len(), &morsels)?)
}

/// Morsel-parallel execution: returns the plan's output as ordered
/// morsels whose in-order concatenation equals the serial result.
fn exec_morsels(db: &Database, plan: &Plan, threads: usize) -> SqlResult<Vec<Batch>> {
    let arity = plan.schema.len();
    match &plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => {
            let morsels = db.scan_partitions(table, projection.as_deref(), MORSEL_ROWS)?;
            match filter {
                None => Ok(morsels),
                Some(pred) => par_map(morsels, threads, |m| Ok(m.filter(&keep_mask(pred, &m)?))),
            }
        }
        PlanNode::Filter { input, predicate } => {
            let morsels = exec_morsels(db, input, threads)?;
            par_map(morsels, threads, |m| {
                Ok(m.filter(&keep_mask(predicate, &m)?))
            })
        }
        PlanNode::Project { input, exprs } => {
            let morsels = exec_morsels(db, input, threads)?;
            par_map(morsels, threads, |m| {
                let cols: Vec<Arc<ColumnVec>> = exprs
                    .iter()
                    .map(|e| e.eval_batch(&m))
                    .collect::<SqlResult<_>>()?;
                Ok(Batch::new(cols, m.num_rows())?)
            })
        }
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => parallel_join(db, *kind, left, right, on, threads),
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let morsels = exec_morsels(db, input, threads)?;
            let state = parallel_aggregate(morsels, group_exprs, aggs, threads)?;
            let rows = state.finish(group_exprs, aggs)?;
            Ok(vec![Batch::from_rows(arity, rows)?])
        }
        PlanNode::Sort { input, keys } => {
            let morsels = exec_morsels(db, input, threads)?;
            let mut rows = Batch::concat(input.schema.len(), &morsels)?.to_rows();
            sort_rows(&mut rows, keys);
            Ok(vec![Batch::from_rows(arity, rows)?])
        }
        PlanNode::Distinct { input } => {
            // Whole-row dedup keeps first occurrences: inherently ordered,
            // so it runs serially over the concatenated input.
            let morsels = exec_morsels(db, input, threads)?;
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
                let morsels = exec_morsels(db, sort_input, threads)?;
                let rows = Batch::concat(sort_input.schema.len(), &morsels)?.to_rows();
                let top = top_k(rows, keys, offset.saturating_add(*l));
                let out: Vec<Vec<Value>> = top.into_iter().skip(*offset).collect();
                return Ok(vec![Batch::from_rows(arity, out)?]);
            }
            let morsels = exec_morsels(db, input, threads)?;
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
                Some(pred) => batch.filter(&keep_mask(pred, &batch)?),
            }])
        }
        PlanNode::Values { rows } => Ok(vec![Batch::from_rows(arity, rows.clone())?]),
    }
}

/// Split `items` into at most `parts` contiguous chunks of near-equal size.
fn split_chunks<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let chunk = n.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        out.push(c);
    }
    out
}

/// Contiguous `[lo, hi)` index ranges of at most [`MORSEL_ROWS`] rows.
fn morsel_ranges(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .step_by(MORSEL_ROWS)
        .map(|lo| (lo, (lo + MORSEL_ROWS).min(n)))
        .collect()
}

/// Map `f` over `items` on a scoped worker pool, preserving item order.
/// Errors are reported deterministically: the first failing item (by input
/// position) wins, regardless of which worker hit it first.
fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> SqlResult<R> + Sync,
) -> SqlResult<Vec<R>> {
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunks = split_chunks(items, threads);
    let f = &f;
    let per_chunk: Vec<Vec<SqlResult<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Partitioned hash join: both sides execute morsel-parallel, the smaller
/// side becomes the build table, and probing fans out over morsels. Output
/// order matches the serial kernel ([`join_rows`]) exactly: probing the
/// left side preserves its natural order, and the build-left variant
/// canonicalizes via a `(left, right)` pair sort.
fn parallel_join(
    db: &Database,
    kind: JoinKind,
    left: &Plan,
    right: &Plan,
    on: &BExpr,
    threads: usize,
) -> SqlResult<Vec<Batch>> {
    let l_arity = left.schema.len();
    let r_arity = right.schema.len();
    let arity = l_arity + r_arity;
    let lrows = Batch::concat(l_arity, &exec_morsels(db, left, threads)?)?.to_rows();
    let rrows = Batch::concat(r_arity, &exec_morsels(db, right, threads)?)?.to_rows();
    let eq_pairs = equi_pairs(on, l_arity);
    if eq_pairs.is_empty() {
        // No equi-keys: fall back to the serial nested-loop kernel.
        let rows = join_rows(kind, &lrows, &rrows, l_arity, r_arity, on)?;
        return Ok(vec![Batch::from_rows(arity, rows)?]);
    }
    if kind == JoinKind::Inner && lrows.len() < rrows.len() {
        // Build on the (smaller) left side, probe right morsels, then
        // canonicalize: the serial kernel emits matches ordered by
        // (left row, right row), which is exactly the sorted pair order.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (li, lrow) in lrows.iter().enumerate() {
            let key: Vec<Value> = eq_pairs.iter().map(|&(i, _)| lrow[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(li);
        }
        let pair_chunks = par_map(morsel_ranges(rrows.len()), threads, |(lo, hi)| {
            let mut pairs = Vec::new();
            for (ri, rrow) in lrows_window(&rrows, lo, hi) {
                let key: Vec<Value> = eq_pairs.iter().map(|&(_, j)| rrow[j].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(lis) = table.get(&key) {
                    for &li in lis {
                        let mut combined = lrows[li].clone();
                        combined.extend(rrow.iter().cloned());
                        if truth(&on.eval(&combined)?) == Some(true) {
                            pairs.push((li, ri));
                        }
                    }
                }
            }
            Ok(pairs)
        })?;
        let mut pairs: Vec<(usize, usize)> = pair_chunks.into_iter().flatten().collect();
        pairs.sort_unstable();
        return par_map(morsel_ranges(pairs.len()), threads, |(lo, hi)| {
            let rows: Vec<Vec<Value>> = pairs[lo..hi]
                .iter()
                .map(|&(li, ri)| {
                    let mut combined = lrows[li].clone();
                    combined.extend(rrows[ri].iter().cloned());
                    combined
                })
                .collect();
            Ok(Batch::from_rows(arity, rows)?)
        });
    }
    // Build on the right side, probe left morsels in natural order. LEFT
    // joins always take this path: the per-probe-row matched flag (and its
    // NULL extension) is chunk-local.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (ri, rrow) in rrows.iter().enumerate() {
        let key: Vec<Value> = eq_pairs.iter().map(|&(_, j)| rrow[j].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(ri);
    }
    par_map(morsel_ranges(lrows.len()), threads, |(lo, hi)| {
        let mut out = Vec::new();
        for (_, lrow) in lrows_window(&lrows, lo, hi) {
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
        Ok(Batch::from_rows(arity, out)?)
    })
}

/// Enumerated window `[lo, hi)` over a row slice.
fn lrows_window(
    rows: &[Vec<Value>],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (usize, &Vec<Value>)> {
    rows[lo..hi]
        .iter()
        .enumerate()
        .map(move |(k, r)| (lo + k, r))
}

/// Two-phase parallel aggregation: workers fold contiguous morsel chunks
/// into private [`GroupState`]s, which merge in worker order — a group's
/// first-seen position is decided by the earliest chunk containing it, so
/// the merged order equals the serial scan's first-seen order.
fn parallel_aggregate(
    morsels: Vec<Batch>,
    group_exprs: &[BExpr],
    aggs: &[AggExpr],
    threads: usize,
) -> SqlResult<GroupState> {
    let chunks = split_chunks(morsels, threads);
    let states = par_map(chunks, threads, |chunk| {
        let mut st = GroupState::new();
        for m in &chunk {
            accumulate_batch_into(&mut st, m, group_exprs, aggs)?;
        }
        Ok(st)
    })?;
    let mut global = GroupState::new();
    for st in states {
        global.merge(st, aggs)?;
    }
    Ok(global)
}

/// Compare two rows on the given `(column, descending)` sort keys.
fn compare_rows(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for (k, desc) in keys {
        let ord = a[*k].cmp_total(&b[*k]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
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
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            compare_rows(&self.row, &other.row, self.keys).then(self.seq.cmp(&other.seq))
        }
    }
    impl PartialOrd for Entry<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Entry<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
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
    let eq_pairs = equi_pairs(on, l_arity);
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

/// Hash-joinable equi-conjuncts of `on`: pairs `(i, j)` where the
/// condition contains `Col(i) = Col(j')` with `i` on the left side and
/// `j' = j + l_arity` on the right (either written orientation).
fn equi_pairs(on: &BExpr, l_arity: usize) -> Vec<(usize, usize)> {
    let mut cs = Vec::new();
    collect_conjuncts(on, &mut cs);
    let mut eq_pairs: Vec<(usize, usize)> = Vec::new();
    for c in &cs {
        if let BExpr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = c
        {
            match (&**a, &**b) {
                (BExpr::Column(i), BExpr::Column(j)) if *i < l_arity && *j >= l_arity => {
                    eq_pairs.push((*i, *j - l_arity));
                }
                (BExpr::Column(j), BExpr::Column(i)) if *i < l_arity && *j >= l_arity => {
                    eq_pairs.push((*i, *j - l_arity));
                }
                _ => {}
            }
        }
    }
    eq_pairs
}

fn collect_conjuncts(e: &BExpr, out: &mut Vec<BExpr>) {
    if let BExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// One accumulator per (group, aggregate).
#[derive(Debug, Clone)]
struct Acc {
    count: i64,
    sum_f: f64,
    sum_i: i64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<HashSet<Value>>,
}

impl Acc {
    fn new(distinct: bool) -> Self {
        Acc {
            count: 0,
            sum_f: 0.0,
            sum_i: 0,
            all_int: true,
            min: None,
            max: None,
            distinct: if distinct { Some(HashSet::new()) } else { None },
        }
    }

    fn update(&mut self, v: &Value) -> SqlResult<()> {
        if v.is_null() {
            return Ok(());
        }
        if let Some(set) = &mut self.distinct {
            if !set.insert(v.clone()) {
                return Ok(());
            }
        }
        self.count += 1;
        match v {
            Value::Int(i) => {
                // On i64 overflow the SUM result promotes to Float (the
                // f64 running sum keeps going) instead of wrapping.
                match self.sum_i.checked_add(*i) {
                    Some(s) => self.sum_i = s,
                    None => self.all_int = false,
                }
                self.sum_f += *i as f64;
            }
            Value::Float(f) => {
                self.all_int = false;
                self.sum_f += f;
            }
            _ => self.all_int = false,
        }
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
        Ok(())
    }

    /// Fold another partial accumulator for the same (group, aggregate)
    /// into this one (the merge phase of two-phase aggregation).
    fn merge(&mut self, other: Acc) -> SqlResult<()> {
        if let Some(set) = other.distinct {
            // DISTINCT partials may overlap across workers: replay the
            // other side's distinct values through `update`, which
            // deduplicates against (and extends) our own set.
            for v in set {
                self.update(&v)?;
            }
            return Ok(());
        }
        self.count += other.count;
        match self.sum_i.checked_add(other.sum_i) {
            Some(s) => self.sum_i = s,
            None => self.all_int = false,
        }
        self.sum_f += other.sum_f;
        self.all_int &= other.all_int;
        if let Some(m) = other.min {
            match &self.min {
                Some(cur) if *cur <= m => {}
                _ => self.min = Some(m),
            }
        }
        if let Some(m) = other.max {
            match &self.max {
                Some(cur) if *cur >= m => {}
                _ => self.max = Some(m),
            }
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc, numeric_input: bool) -> SqlResult<Value> {
        Ok(match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if !numeric_input {
                    return Err(SqlError::Type("SUM over non-numeric values".into()));
                } else if self.all_int {
                    Value::Int(self.sum_i)
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if !numeric_input {
                    return Err(SqlError::Type("AVG over non-numeric values".into()));
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }
}

/// Running hash-aggregation state: group key → (first-seen order,
/// accumulators, per-aggregate numeric-input flags).
struct GroupState {
    groups: HashMap<Vec<Value>, (usize, Vec<Acc>, Vec<bool>)>,
    order: Vec<Vec<Value>>,
}

impl GroupState {
    fn new() -> Self {
        GroupState {
            groups: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Accumulator entry for `key`, creating it on first sight. Looks up
    /// by slice so the per-row scratch key is only cloned for new groups,
    /// not on every row.
    fn entry(&mut self, key: &[Value], aggs: &[AggExpr]) -> &mut (usize, Vec<Acc>, Vec<bool>) {
        if !self.groups.contains_key(key) {
            let owned = key.to_vec();
            self.order.push(owned.clone());
            self.groups.insert(
                owned,
                (
                    self.order.len() - 1,
                    aggs.iter().map(|a| Acc::new(a.distinct)).collect(),
                    vec![true; aggs.len()],
                ),
            );
        }
        self.groups.get_mut(key).expect("entry just ensured")
    }

    fn accumulate(
        entry: &mut (usize, Vec<Acc>, Vec<bool>),
        ai: usize,
        arg: Option<Value>,
    ) -> SqlResult<()> {
        match arg {
            None => {
                // COUNT(*): count every row including NULLs
                entry.1[ai].count += 1;
            }
            Some(v) => {
                if !v.is_null() && v.as_f64().is_none() {
                    entry.2[ai] = false;
                }
                entry.1[ai].update(&v)?;
            }
        }
        Ok(())
    }

    /// Merge another partial state into this one. `other`'s groups are
    /// visited in its first-seen order, so merging worker states in
    /// worker (= scan) order preserves the global first-seen order.
    fn merge(&mut self, other: GroupState, aggs: &[AggExpr]) -> SqlResult<()> {
        let GroupState { mut groups, order } = other;
        for key in order {
            let (_, accs, numeric) = groups.remove(&key).expect("ordered key present");
            let entry = self.entry(&key, aggs);
            for (ai, acc) in accs.into_iter().enumerate() {
                entry.1[ai].merge(acc)?;
                entry.2[ai] &= numeric[ai];
            }
        }
        Ok(())
    }

    fn finish(self, group_exprs: &[BExpr], aggs: &[AggExpr]) -> SqlResult<Vec<Vec<Value>>> {
        // Global aggregation over an empty input still yields one row.
        if group_exprs.is_empty() && self.groups.is_empty() {
            let mut row = Vec::with_capacity(aggs.len());
            for agg in aggs {
                let acc = Acc::new(agg.distinct);
                row.push(acc.finish(agg.func, true)?);
            }
            return Ok(vec![row]);
        }
        let mut out: Vec<(usize, Vec<Value>)> = Vec::with_capacity(self.groups.len());
        for (key, (ord, accs, numeric)) in self.groups {
            let mut row = key;
            for (ai, agg) in aggs.iter().enumerate() {
                row.push(accs[ai].finish(agg.func, numeric[ai])?);
            }
            out.push((ord, row));
        }
        out.sort_by_key(|(ord, _)| *ord);
        Ok(out.into_iter().map(|(_, r)| r).collect())
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
        let entry = state.entry(&key, aggs);
        for (ai, agg) in aggs.iter().enumerate() {
            let arg = match &agg.arg {
                None => None,
                Some(argexpr) => Some(argexpr.eval(row)?),
            };
            GroupState::accumulate(entry, ai, arg)?;
        }
    }
    state.finish(group_exprs, aggs)
}

/// FxHash-style multiply-xor hasher for the aggregation hot path. Not
/// DoS-resistant, which is fine for query-local tables that never outlive
/// one statement.
#[derive(Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

impl FastHasher {
    fn add(&mut self, v: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Dictionary-encode one group column: a per-row code assigned in
/// first-seen order plus the distinct values. Returns `None` for column
/// shapes the dense-id path does not handle (floats are not hashable,
/// `Mixed` has no single type).
fn dictionary_codes(col: &ColumnVec, n: usize) -> Option<(Vec<u32>, Vec<Value>)> {
    let nulls = col.nulls();
    let mut codes = Vec::with_capacity(n);
    let mut dict: Vec<Value> = Vec::new();
    let mut null_code: Option<u32> = None;
    macro_rules! encode {
        ($vals:expr, $to_key:expr, $to_value:expr) => {{
            let mut map: FastMap<_, u32> = FastMap::default();
            for (i, raw) in $vals.iter().enumerate().take(n) {
                if nulls.is_some_and(|m| m[i]) {
                    codes.push(*null_code.get_or_insert_with(|| {
                        dict.push(Value::Null);
                        (dict.len() - 1) as u32
                    }));
                } else {
                    codes.push(*map.entry($to_key(raw)).or_insert_with(|| {
                        dict.push($to_value(raw));
                        (dict.len() - 1) as u32
                    }));
                }
            }
        }};
    }
    match col.data() {
        ColumnData::Int(v) => encode!(v, |r: &i64| *r, |r: &i64| Value::Int(*r)),
        ColumnData::Date(v) => encode!(v, |r: &i32| *r as i64, |r: &i32| Value::Date(*r)),
        ColumnData::Timestamp(v) => encode!(v, |r: &i64| *r, |r: &i64| Value::Timestamp(*r)),
        ColumnData::Bool(v) => encode!(v, |r: &bool| *r, |r: &bool| Value::Bool(*r)),
        ColumnData::Text(v) => {
            // Keyed by &str borrowed from the column so each distinct string
            // is cloned once, on first sight.
            let mut map: FastMap<&str, u32> = FastMap::default();
            for (i, raw) in v.iter().enumerate().take(n) {
                if nulls.is_some_and(|m| m[i]) {
                    codes.push(*null_code.get_or_insert_with(|| {
                        dict.push(Value::Null);
                        (dict.len() - 1) as u32
                    }));
                } else {
                    codes.push(*map.entry(raw.as_str()).or_insert_with(|| {
                        dict.push(Value::Text(raw.clone()));
                        (dict.len() - 1) as u32
                    }));
                }
            }
        }
        ColumnData::Float(_) | ColumnData::Mixed(_) => return None,
    }
    Some((codes, dict))
}

/// Dense group ids for up to two typed group columns: each row's id plus
/// the distinct keys in first-seen order. `None` falls back to the generic
/// `Vec<Value>` hash path.
fn group_ids(group_cols: &[Arc<ColumnVec>], n: usize) -> Option<(Vec<u32>, Vec<Vec<Value>>)> {
    if group_cols.is_empty() || group_cols.len() > 2 {
        return None;
    }
    let encoded: Vec<(Vec<u32>, Vec<Value>)> = group_cols
        .iter()
        .map(|c| dictionary_codes(c, n))
        .collect::<Option<_>>()?;
    if encoded.len() == 1 {
        let (codes, dict) = encoded.into_iter().next().expect("one encoded column");
        let keys = dict.into_iter().map(|v| vec![v]).collect();
        return Some((codes, keys));
    }
    // Two columns: the per-column codes both fit in 32 bits, so packing
    // them into a u64 is an exact composite key.
    let (c0, d0) = &encoded[0];
    let (c1, d1) = &encoded[1];
    let mut map: FastMap<u64, u32> = FastMap::default();
    let mut gids = Vec::with_capacity(n);
    let mut keys: Vec<Vec<Value>> = Vec::new();
    for i in 0..n {
        let packed = ((c0[i] as u64) << 32) | c1[i] as u64;
        gids.push(*map.entry(packed).or_insert_with(|| {
            keys.push(vec![d0[c0[i] as usize].clone(), d1[c1[i] as usize].clone()]);
            (keys.len() - 1) as u32
        }));
    }
    Some((gids, keys))
}

/// Fold one morsel into a running [`GroupState`] (the partial phase of
/// two-phase aggregation). Group keys and aggregate arguments are evaluated
/// as whole columns up front; when the group columns are typed and hashable
/// they are dictionary-encoded into dense group ids so the accumulation
/// loop indexes a vector instead of hashing a `Vec<Value>` per row.
fn accumulate_batch_into(
    state: &mut GroupState,
    input: &Batch,
    group_exprs: &[BExpr],
    aggs: &[AggExpr],
) -> SqlResult<()> {
    let n = input.num_rows();
    let group_cols: Vec<Arc<ColumnVec>> = group_exprs
        .iter()
        .map(|g| g.eval_batch(input))
        .collect::<SqlResult<_>>()?;
    let arg_cols: Vec<Option<Arc<ColumnVec>>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.eval_batch(input)).transpose())
        .collect::<SqlResult<_>>()?;
    if !group_exprs.is_empty() && aggs.iter().all(|a| !a.distinct) {
        if let Some((gids, keys)) = group_ids(&group_cols, n) {
            // one `Acc` per aggregate per group, plus the still-numeric
            // flag each carries for AVG/SUM coercion, folded column-at-a-time
            let mut accs: Vec<Vec<Acc>> = (0..keys.len())
                .map(|_| aggs.iter().map(|a| Acc::new(a.distinct)).collect())
                .collect();
            let mut numeric: Vec<Vec<bool>> = vec![vec![true; aggs.len()]; keys.len()];
            for (ai, (agg, col)) in aggs.iter().zip(&arg_cols).enumerate() {
                match col {
                    None => {
                        // COUNT(*) counts every row, nulls included.
                        for &g in &gids {
                            accs[g as usize][ai].count += 1;
                        }
                    }
                    Some(col) => {
                        accumulate_column(&gids, col, ai, agg.func, &mut accs, &mut numeric)?;
                    }
                }
            }
            for ((key, accs), numeric) in keys.into_iter().zip(accs).zip(numeric) {
                let entry = state.entry(&key, aggs);
                for (ai, acc) in accs.into_iter().enumerate() {
                    entry.1[ai].merge(acc)?;
                    entry.2[ai] &= numeric[ai];
                }
            }
            return Ok(());
        }
    }
    let mut key = Vec::with_capacity(group_cols.len());
    for i in 0..n {
        key.clear();
        key.extend(group_cols.iter().map(|c| c.value(i)));
        let entry = state.entry(&key, aggs);
        for (ai, col) in arg_cols.iter().enumerate() {
            GroupState::accumulate(entry, ai, col.as_ref().map(|c| c.value(i)))?;
        }
    }
    Ok(())
}

fn accumulate_column(
    gids: &[u32],
    col: &ColumnVec,
    ai: usize,
    func: AggFunc,
    accs: &mut [Vec<Acc>],
    numeric: &mut [Vec<bool>],
) -> SqlResult<()> {
    let nulls = col.nulls();
    match (col.data(), func) {
        // Count/Sum/Avg never read min/max, so the typed arms only keep the
        // counters and sums those finishers use.
        (ColumnData::Int(v), AggFunc::Count | AggFunc::Sum | AggFunc::Avg) => {
            for (i, &g) in gids.iter().enumerate() {
                if nulls.is_some_and(|m| m[i]) {
                    continue;
                }
                let acc = &mut accs[g as usize][ai];
                acc.count += 1;
                match acc.sum_i.checked_add(v[i]) {
                    Some(s) => acc.sum_i = s,
                    None => acc.all_int = false,
                }
                acc.sum_f += v[i] as f64;
            }
        }
        (ColumnData::Float(v), AggFunc::Count | AggFunc::Sum | AggFunc::Avg) => {
            for (i, &g) in gids.iter().enumerate() {
                if nulls.is_some_and(|m| m[i]) {
                    continue;
                }
                let acc = &mut accs[g as usize][ai];
                acc.count += 1;
                acc.all_int = false;
                acc.sum_f += v[i];
            }
        }
        _ => {
            // Same semantics as GroupState::accumulate, addressed by id.
            for (i, &g) in gids.iter().enumerate() {
                let v = col.value(i);
                let g = g as usize;
                if !v.is_null() && v.as_f64().is_none() {
                    numeric[g][ai] = false;
                }
                accs[g][ai].update(&v)?;
            }
        }
    }
    Ok(())
}
