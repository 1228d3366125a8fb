//! Materialized aggregates (ablation A2): pre-computed roll-ups that
//! answer matching cube queries without touching the fact table.
//!
//! A stored cell is one accumulator per measure, and `CellAcc` is the only
//! code that says what an accumulator holds: `fold` adds one fact value,
//! `merge` combines two partial accumulators (SUM and COUNT add, MIN and
//! MAX compare, AVG is kept as a SUM+COUNT pair and adds both). The rest
//! is built from those two:
//! - a build or rebuild folds every live chunk of the fact table, split
//!   over the machine's workers, and merges the workers' cell maps;
//! - [`MaterializedAggregate::apply_delta`] folds inserted fact rows
//!   through the same per-row kernel, so a warehouse write costs one cell
//!   update instead of a rebuild; writes a fold cannot express — updates,
//!   deletes, truncates, dimension-table changes — mark the aggregate
//!   stale, and it is rebuilt;
//! - a roll-up merges the stored cells onto the query's coarser key.
//!
//! Nothing here runs SQL. The ROLAP SQL the cube engine generates for the
//! same query is the oracle the tests compare the cells with.
//!
//! What a fold reads besides the fact rows — the fact column or the
//! dimension each axis takes its coordinate from, and each snowflaked
//! dimension's key → members map — is the aggregate's fold plan. It is
//! resolved from the warehouse when the cells are built or rebuilt, and
//! `apply_delta` takes no database: a fold only probes the plan's maps,
//! so a fact insert costs O(delta rows), not O(dimension rows). The maps
//! cannot go out of date while the aggregate is fresh, because every
//! write to a dimension table makes it stale. [`AggregateCache::apply_deltas`]
//! takes a whole batch of deltas at once: it applies all of them, then
//! rebuilds each stale aggregate once, so a rebuild never reads a row
//! that a later delta in the batch would fold in a second time.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use odbis_sql::{par_chunks, Engine};
use odbis_storage::{Batch, Database, Schema, Value};

use crate::cube::{Aggregator, CellSet, CubeDef, CubeQuery, DimensionDef, LevelRef};
use crate::OlapError;

/// Stored cells: axis coordinates → one accumulator per stored measure.
type Cells = HashMap<Vec<Value>, Vec<CellAcc>>;

/// The maps a fold probes once per row or more.
type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// FxHash's multiply-xor step per word, finished with MurmurHash3's
/// mixer: [`Value`] hashes an Int through its f64 bits, which differ only
/// in their high bits for the small integers keys usually are, and a map
/// takes its bucket from the low bits of the hash and its tag from the
/// top seven. Not DoS-resistant; it hashes only the tenant's own keys, as
/// the SQL executor's group tables do.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
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
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    // `Value` hashes a one-byte tag and then a word
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    // a `Vec<u32>` key hashes its length, then its bytes
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

impl FoldHasher {
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// One stored accumulator: the internal representation of a measure in a
/// cell. AVG keeps its SUM+COUNT decomposition so it folds and merges;
/// everything else stores the aggregate value directly.
#[derive(Debug, Clone, PartialEq)]
enum CellAcc {
    /// SUM/COUNT/MIN/MAX: the aggregate value itself.
    Plain(Value),
    /// AVG decomposed into a re-aggregable pair.
    AvgPair {
        /// Sum of the non-null inputs (Int until overflow, then Float).
        sum: Value,
        /// Count of the non-null inputs.
        count: i64,
    },
}

impl CellAcc {
    /// The accumulator of a cell with no non-null input, mirroring what
    /// the SQL engine reports for such a group: COUNT = 0,
    /// SUM/MIN/MAX/AVG = NULL.
    fn empty(agg: Aggregator) -> CellAcc {
        match agg {
            Aggregator::Count => CellAcc::Plain(Value::Int(0)),
            Aggregator::Avg => CellAcc::AvgPair {
                sum: Value::Null,
                count: 0,
            },
            _ => CellAcc::Plain(Value::Null),
        }
    }

    /// Render the externally-visible aggregate value.
    fn render(&self) -> Value {
        match self {
            CellAcc::Plain(v) => v.clone(),
            CellAcc::AvgPair { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    match sum.as_f64() {
                        Some(s) => Value::Float(s / *count as f64),
                        None => Value::Null,
                    }
                }
            }
        }
    }

    /// Fold one fact value in, as merging the accumulator of that value
    /// alone would. NULL inputs never fold (COUNT skips them,
    /// SUM/MIN/MAX/AVG ignore them) — they only contributed to the group's
    /// existence, which the caller has already recorded by creating the
    /// cell.
    fn fold(&mut self, agg: Aggregator, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            CellAcc::AvgPair { sum, count } => {
                add_into(sum, &v);
                *count += 1;
            }
            CellAcc::Plain(p) if agg == Aggregator::Count => add_into(p, &Value::Int(1)),
            CellAcc::Plain(p) => merge_value(p, &v, agg),
        }
    }

    /// Combine the partial accumulator `other` into this one, as the SQL
    /// aggregate over both accumulators' input rows: SUM and COUNT add
    /// (Int until the add would overflow, then Float, like the executor),
    /// MIN and MAX compare, AVG adds its pairs. A NULL side has seen no
    /// non-null input and leaves the other as it is.
    fn merge(&mut self, other: &CellAcc, agg: Aggregator) {
        match (self, other) {
            (CellAcc::AvgPair { sum, count }, CellAcc::AvgPair { sum: s, count: c }) => {
                add_into(sum, s);
                *count += c;
            }
            (CellAcc::Plain(p), CellAcc::Plain(v)) if !v.is_null() => merge_value(p, v, agg),
            // a NULL side; one measure's accumulators never differ in shape
            _ => {}
        }
    }
}

/// Merge the non-null value `v` of a SUM, COUNT, MIN or MAX accumulator
/// into `p`.
fn merge_value(p: &mut Value, v: &Value, agg: Aggregator) {
    match agg {
        Aggregator::Sum | Aggregator::Count => add_into(p, v),
        Aggregator::Min if p.is_null() || v < p => *p = v.clone(),
        Aggregator::Max if p.is_null() || v > p => *p = v.clone(),
        _ => {}
    }
}

/// `p += v` with the engine's numeric semantics: Int+Int stays Int until
/// it would overflow (then promotes to Float, like the executor's
/// checked-add accumulator), everything else adds as f64.
fn add_into(p: &mut Value, v: &Value) {
    match (&mut *p, v) {
        (Value::Float(a), Value::Float(b)) => *a += b,
        (Value::Int(a), Value::Int(b)) => match a.checked_add(*b) {
            Some(sum) => *a = sum,
            None => *p = Value::Float(*a as f64 + *b as f64),
        },
        (Value::Null, _) => *p = v.clone(),
        _ => {
            if let (Some(a), Some(b)) = (p.as_f64(), v.as_f64()) {
                *p = Value::Float(a + b);
            }
        }
    }
}

/// What [`MaterializedAggregate::apply_delta`] did with a write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// Rows were folded into the stored cells.
    Folded,
    /// The write cannot be folded; the aggregate must be rebuilt.
    NeedsRebuild,
    /// The write touches none of the aggregate's tables.
    Unrelated,
}

/// One warehouse write as the maintenance layer sees it, derived from a
/// WAL-acknowledged record when the platform buffers it; the cache
/// consumes a batch of them via [`AggregateCache::apply_deltas`].
#[derive(Debug, Clone, PartialEq)]
pub enum TableDelta {
    /// Rows appended to `table` (INSERT / bulk load in append mode).
    Insert {
        /// Written table.
        table: String,
        /// The appended rows, full arity, schema order.
        rows: Vec<Vec<Value>>,
    },
    /// An in-place mutation of `table` (UPDATE/DELETE/TRUNCATE/replace
    /// load): not foldable, dependent aggregates rebuild.
    Mutate {
        /// Mutated table.
        table: String,
    },
    /// `table` was dropped: aggregates over it as a fact table die,
    /// aggregates joining it go stale (and drop when their rebuild fails).
    Drop {
        /// Dropped table.
        table: String,
    },
}

impl TableDelta {
    /// The table the event is about.
    pub fn table(&self) -> &str {
        match self {
            TableDelta::Insert { table, .. }
            | TableDelta::Mutate { table }
            | TableDelta::Drop { table } => table,
        }
    }
}

/// How one axis coordinate is read off a fact row.
#[derive(Debug, Clone)]
enum AxisSrc {
    /// Degenerate level: the fact column's index.
    Fact(usize),
    /// Snowflaked level: level `col` of a member of `FoldPlan::joins[join]`.
    Dim { join: usize, col: usize },
}

/// One snowflaked dimension the aggregate joins, as the fold probes it.
#[derive(Debug, Clone)]
struct DimJoin {
    /// Fact column holding the foreign key.
    fk: usize,
    /// Dimension key → the members with that key: per dimension row, the
    /// code of each level an axis reads, back to back. NULL keys are left
    /// out: the inner join never matches them.
    members: FoldMap<Value, Vec<u32>>,
    /// Per level an axis reads, its distinct values, indexed by code.
    levels: Vec<Vec<Value>>,
}

/// Everything a fold reads, resolved against the warehouse when the cells
/// are built, so a fold probes these maps and never reads a table.
#[derive(Debug, Clone)]
struct FoldPlan {
    /// The fact table, then each joined dimension table once.
    tables: Vec<String>,
    /// Column count of the fact table; a delta of another width rebuilds.
    arity: usize,
    axes: Vec<AxisSrc>,
    joins: Vec<DimJoin>,
    /// Fact column and aggregator of each stored measure.
    measures: Vec<(usize, Aggregator)>,
    /// The accumulators a new cell starts from.
    empty: Vec<CellAcc>,
}

impl FoldPlan {
    /// Resolve the plan of an aggregate over `def` from the live tables:
    /// column indices from the schemas, and each snowflaked dimension's
    /// key → members map from a scan of its key and level columns.
    fn resolve(
        db: &Database,
        def: &CubeDef,
        axes: &[LevelRef],
        measures: &[(String, Aggregator)],
    ) -> Result<FoldPlan, OlapError> {
        let index = |schema: &Schema, column: &str, what: &str| {
            schema
                .index_of(column)
                .ok_or_else(|| OlapError::Invalid(format!("{what} {column} missing")))
        };
        let schema = db.table_schema(&def.fact_table).map_err(invalid)?;
        let mut tables = vec![def.fact_table.clone()];
        let mut srcs = Vec::with_capacity(axes.len());
        // per joined dimension: its def and table, the table's schema and
        // key column, and the level columns its axes read, in member order
        let mut joins: Vec<(&DimensionDef, &str, Schema, usize, Vec<usize>)> = Vec::new();
        for lr in axes {
            let dim = def.dimension(&lr.dimension)?;
            let level = dim
                .levels
                .iter()
                .find(|l| l.name.eq_ignore_ascii_case(&lr.level))
                .ok_or_else(|| OlapError::UnknownLevel(format!("{}.{}", lr.dimension, lr.level)))?;
            let Some(t) = &dim.table else {
                srcs.push(AxisSrc::Fact(index(&schema, &level.column, "fact column")?));
                continue;
            };
            // one join per dimension, as the cube engine's SQL has it
            let join = match joins.iter().position(|(d, ..)| d.name == dim.name) {
                Some(j) => j,
                None => {
                    let dschema = db.table_schema(t).map_err(invalid)?;
                    let key = index(&dschema, &dim.dim_key, &format!("{t} key"))?;
                    if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                        tables.push(t.clone());
                    }
                    joins.push((dim, t, dschema, key, Vec::new()));
                    joins.len() - 1
                }
            };
            let (_, _, dschema, _, cols) = &mut joins[join];
            let col = index(dschema, &level.column, &format!("{t} column"))?;
            srcs.push(AxisSrc::Dim {
                join,
                col: cols.len(),
            });
            cols.push(col);
        }
        let mut plan_joins = Vec::with_capacity(joins.len());
        for (dim, t, _, key, cols) in joins {
            let fk = index(&schema, &dim.fact_fk, "fact fk")?;
            let projection: Vec<usize> = std::iter::once(key).chain(cols.iter().copied()).collect();
            let chunks = db.scan_partitions(t, Some(&projection)).map_err(invalid)?;
            let mut levels = vec![Dictionary::default(); cols.len()];
            let rows = chunks.iter().map(Batch::num_rows).sum();
            let mut members: FoldMap<Value, Vec<u32>> =
                FoldMap::with_capacity_and_hasher(rows, Default::default());
            for m in chunks {
                for r in 0..m.num_rows() {
                    let k = m.value(0, r);
                    if k.is_null() {
                        continue;
                    }
                    let member = levels
                        .iter_mut()
                        .zip(1..)
                        .map(|(d, c)| d.code(m.value(c, r)));
                    match members.entry(k) {
                        Entry::Occupied(mut e) => e.get_mut().extend(member),
                        Entry::Vacant(e) => {
                            e.insert(member.collect());
                        }
                    }
                }
            }
            plan_joins.push(DimJoin {
                fk,
                members,
                levels: levels.into_iter().map(|d| d.values).collect(),
            });
        }
        let measures = measures
            .iter()
            .map(|(name, agg)| {
                let col = index(&schema, &def.measure(name)?.column, "measure column")?;
                Ok((col, *agg))
            })
            .collect::<Result<Vec<_>, OlapError>>()?;
        Ok(FoldPlan {
            tables,
            arity: schema.columns().len(),
            axes: srcs,
            joins: plan_joins,
            empty: measures
                .iter()
                .map(|&(_, agg)| CellAcc::empty(agg))
                .collect(),
            measures,
        })
    }

    /// Fold fact rows (full width) into `cells` — the one per-row kernel,
    /// run by a build over the whole table and by a fold of inserted rows.
    ///
    /// A row folds as the ROLAP SQL's inner joins see it: a foreign key
    /// that is NULL or has no dimension row hides the row, and a key
    /// shared by several dimension rows folds the row once per
    /// combination of matching members.
    ///
    /// Rows first fold into groups keyed by the codes of their
    /// coordinates — a snowflaked level's code comes with its member, a
    /// fact column's from a dictionary of this call — so a row costs no
    /// allocation; each group's key is built, and its accumulators merged
    /// into `cells`, once at the end.
    fn fold(&self, cells: &mut Cells, rows: &Batch) {
        let mut facts: Vec<Dictionary> = vec![Dictionary::default(); self.axes.len()];
        let mut groups: FoldMap<Vec<u32>, usize> = FoldMap::default();
        let mut accs: Vec<Vec<CellAcc>> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(self.axes.len());
        // per join: the matching members of the current row, and which
        // of them the current combination takes
        let mut hits: Vec<&[u32]> = Vec::with_capacity(self.joins.len());
        let mut pick = vec![0usize; self.joins.len()];
        'rows: for r in 0..rows.num_rows() {
            hits.clear();
            for j in &self.joins {
                match j.members.get(&rows.value(j.fk, r)) {
                    Some(m) => hits.push(m),
                    None => continue 'rows,
                }
            }
            pick.fill(0);
            loop {
                codes.clear();
                for (src, dict) in self.axes.iter().zip(&mut facts) {
                    codes.push(match *src {
                        AxisSrc::Fact(i) => dict.code(rows.value(i, r)),
                        AxisSrc::Dim { join, col } => {
                            hits[join][pick[join] * self.joins[join].levels.len() + col]
                        }
                    });
                }
                let g = match groups.get(codes.as_slice()) {
                    Some(&g) => g,
                    None => {
                        groups.insert(codes.clone(), accs.len());
                        accs.push(self.empty.clone());
                        accs.len() - 1
                    }
                };
                for (acc, &(col, agg)) in accs[g].iter_mut().zip(&self.measures) {
                    acc.fold(agg, rows.value(col, r));
                }
                // the next combination, odometer-style; done after the last
                let mut j = 0;
                while j < pick.len() {
                    pick[j] += 1;
                    if pick[j] * self.joins[j].levels.len() < hits[j].len() {
                        break;
                    }
                    pick[j] = 0;
                    j += 1;
                }
                if j == pick.len() {
                    break;
                }
            }
        }
        for (codes, g) in groups {
            let key = (self.axes.iter().zip(&facts).zip(codes))
                .map(|((src, dict), c)| match *src {
                    AxisSrc::Fact(_) => dict.values[c as usize].clone(),
                    AxisSrc::Dim { join, col } => self.joins[join].levels[col][c as usize].clone(),
                })
                .collect();
            self.merge_cell(cells, key, std::mem::take(&mut accs[g]));
        }
    }

    /// Merge one cell's accumulators into `cells`.
    fn merge_cell(&self, cells: &mut Cells, key: Vec<Value>, accs: Vec<CellAcc>) {
        match cells.entry(key) {
            Entry::Occupied(mut e) => {
                for ((acc, other), &(_, agg)) in
                    e.get_mut().iter_mut().zip(&accs).zip(&self.measures)
                {
                    acc.merge(other, agg);
                }
            }
            Entry::Vacant(e) => {
                e.insert(accs);
            }
        }
    }

    /// Fold the whole fact table into new cells. Its live chunks are split
    /// over as many workers as [`Engine::new`] runs SQL on; each worker
    /// folds its share into a map of its own, and the maps merge.
    fn fold_table(&self, db: &Database) -> Result<Cells, OlapError> {
        let chunks = db.scan_partitions(&self.tables[0], None).map_err(invalid)?;
        let parts = par_chunks(chunks, Engine::new().parallelism(), |chunks| {
            let mut cells = Cells::new();
            for c in &chunks {
                self.fold(&mut cells, c);
            }
            cells
        });
        let mut parts = parts.into_iter();
        let mut cells = parts.next().unwrap_or_default();
        for part in parts {
            for (key, accs) in part {
                self.merge_cell(&mut cells, key, accs);
            }
        }
        Ok(cells)
    }
}

/// Distinct values in first-seen order, each coded by its position.
#[derive(Debug, Clone, Default)]
struct Dictionary {
    codes: FoldMap<Value, u32>,
    values: Vec<Value>,
}

impl Dictionary {
    /// The code of `v`, assigned now if `v` is new.
    fn code(&mut self, v: Value) -> u32 {
        match self.codes.entry(v) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.values.push(e.key().clone());
                *e.insert(self.values.len() as u32 - 1)
            }
        }
    }
}

fn invalid(e: odbis_storage::DbError) -> OlapError {
    OlapError::Invalid(e.to_string())
}

/// Where a query's parts sit in an aggregate's cells.
struct Positions<'q> {
    /// Stored axis of each query axis.
    axes: Vec<usize>,
    /// Stored axis of each slice, and the member it keeps.
    slices: Vec<(usize, &'q Value)>,
    /// Stored measure of each query measure, with its aggregator.
    measures: Vec<(usize, Aggregator)>,
}

/// A materialized aggregate: the cell set of one (axes, measures)
/// combination, indexed for point lookups and further roll-ups.
#[derive(Debug, Clone)]
pub struct MaterializedAggregate {
    /// Cube the aggregate belongs to.
    pub cube: String,
    /// Axes the aggregate is grouped by.
    pub axes: Vec<LevelRef>,
    /// Measures stored, with their aggregators (needed to know whether a
    /// further roll-up is valid: AVG is not rolled up).
    pub measures: Vec<(String, Aggregator)>,
    /// The defining cube, retained so stale cells can be rebuilt without
    /// a registry lookup.
    def: CubeDef,
    cells: Cells,
    /// Resolved together with `cells`; exact whenever the aggregate is
    /// fresh, because every write to a table in `plan.tables` either folds
    /// (a fact insert) or makes the aggregate stale.
    plan: FoldPlan,
    stale: bool,
}

impl MaterializedAggregate {
    /// Build by folding the fact table: resolve the fold plan from `db`,
    /// then fold every live row of the fact table through the kernel
    /// [`Self::apply_delta`] runs, split over the machine's workers.
    pub fn build(
        db: &Database,
        cube: &CubeDef,
        axes: Vec<LevelRef>,
        measure_names: Vec<String>,
    ) -> Result<Self, OlapError> {
        let measures = measure_names
            .iter()
            .map(|m| cube.measure(m).map(|md| (md.name.clone(), md.aggregator)))
            .collect::<Result<Vec<_>, OlapError>>()?;
        let plan = FoldPlan::resolve(db, cube, &axes, &measures)?;
        let cells = plan.fold_table(db)?;
        Ok(MaterializedAggregate {
            cube: cube.name.clone(),
            axes,
            measures,
            def: cube.clone(),
            cells,
            plan,
            stale: false,
        })
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the aggregate is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether a non-foldable write has invalidated the cells. A stale
    /// aggregate refuses to answer queries until [`Self::rebuild`] runs.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Mark the cells invalid (a write arrived that a fold cannot
    /// express, or the cells may already hold rows a fold would add).
    pub fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Every warehouse table the stored cells depend on: the fact table
    /// plus the dimension tables of snowflaked axes.
    pub fn tables(&self) -> &[String] {
        &self.plan.tables
    }

    /// Whether a write to `table` can change the stored cells.
    pub fn depends_on(&self, table: &str) -> bool {
        self.tables().iter().any(|t| t.eq_ignore_ascii_case(table))
    }

    /// Build again from `db`, as [`Self::build`] does: re-resolve the fold
    /// plan, fold the fact table into new cells, and replace both.
    pub fn rebuild(&mut self, db: &Database) -> Result<(), OlapError> {
        self.plan = FoldPlan::resolve(db, &self.def, &self.axes, &self.measures)?;
        self.cells = self.plan.fold_table(db)?;
        self.stale = false;
        Ok(())
    }

    /// Fold a batch of rows inserted into `table` into the stored cells.
    ///
    /// A fold reads only the inserted rows and the fold plan resolved at
    /// the last build: each snowflaked axis probes its key → members map,
    /// so it costs O(delta rows), whatever the size of the dimensions.
    /// The rows fold through the same kernel as a build, with the same
    /// inner-join rules: a row whose foreign key is NULL or matches no
    /// dimension row folds nowhere, and one whose key matches several
    /// dimension rows folds once per match.
    ///
    /// Returns [`DeltaOutcome::Folded`] when the cells now reflect the
    /// insert, [`DeltaOutcome::NeedsRebuild`] when the write touches a
    /// dependent table but cannot be folded (dimension-table insert, a
    /// row of the wrong width, or the aggregate is already stale), and
    /// [`DeltaOutcome::Unrelated`] when the write cannot affect the cells
    /// at all — the scoped invalidation that lets unrelated cubes survive
    /// a load.
    pub fn apply_delta(&mut self, table: &str, rows: &Batch) -> DeltaOutcome {
        if !table.eq_ignore_ascii_case(&self.def.fact_table) {
            return if self.depends_on(table) {
                DeltaOutcome::NeedsRebuild
            } else {
                DeltaOutcome::Unrelated
            };
        }
        if self.stale || (rows.num_rows() > 0 && rows.num_columns() != self.plan.arity) {
            return DeltaOutcome::NeedsRebuild;
        }
        self.plan.fold(&mut self.cells, rows);
        DeltaOutcome::Folded
    }

    /// Where `query`'s axes, slices and measures sit in the stored cells,
    /// or `None` when the aggregate cannot answer it exactly (see
    /// [`Self::answers`]). A roll-up is a query that slices, or that
    /// leaves a stored axis out, so stored cells merge.
    fn positions<'q>(&self, query: &'q CubeQuery) -> Option<Positions<'q>> {
        let axis = |lr: &LevelRef| {
            self.axes.iter().position(|a| {
                a.dimension.eq_ignore_ascii_case(&lr.dimension)
                    && a.level.eq_ignore_ascii_case(&lr.level)
            })
        };
        let at = Positions {
            axes: query.axes.iter().map(axis).collect::<Option<_>>()?,
            slices: query
                .slices
                .iter()
                .map(|s| Some((axis(&s.level)?, &s.member)))
                .collect::<Option<_>>()?,
            measures: query
                .measures
                .iter()
                .map(|name| {
                    let i = self
                        .measures
                        .iter()
                        .position(|(m, _)| m.eq_ignore_ascii_case(name))?;
                    Some((i, self.measures[i].1))
                })
                .collect::<Option<_>>()?,
        };
        let read = |i: usize| at.axes.contains(&i) || at.slices.iter().any(|&(s, _)| s == i);
        let rollup = !at.slices.is_empty() || !(0..self.axes.len()).all(read);
        if rollup && at.measures.iter().any(|&(_, agg)| agg == Aggregator::Avg) {
            return None;
        }
        // the live SQL joins only the dimensions a query reads, and a join
        // hides the fact rows it does not match: a query that reads none of
        // a joined dimension's axes counts rows the cells never saw
        let joined = |j: usize| {
            (self.plan.axes.iter().enumerate())
                .any(|(i, a)| matches!(*a, AxisSrc::Dim { join, .. } if join == j) && read(i))
        };
        if !(0..self.plan.joins.len()).all(joined) {
            return None;
        }
        Some(at)
    }

    /// Can this aggregate answer `query` exactly?
    ///
    /// Conditions: every query axis and every slice level is one of our
    /// axes, every requested measure is stored, the query reads an axis of
    /// every dimension table we join (its SQL would not join the others,
    /// so rows they hide would count), and — when the query needs a
    /// roll-up (it slices, or leaves one of our axes out) — no measure is
    /// AVG: the cache's contract is to leave AVG roll-ups to the live
    /// engine.
    pub fn answers(&self, query: &CubeQuery) -> bool {
        self.positions(query).is_some()
    }

    /// Answer a query from the materialized cells (must satisfy
    /// [`MaterializedAggregate::answers`]): the stored cells that pass the
    /// slices merge by the query's key.
    pub fn execute(&self, query: &CubeQuery) -> Result<CellSet, OlapError> {
        let at = self
            .positions(query)
            .ok_or_else(|| OlapError::Invalid("aggregate does not cover this query".into()))?;
        let mut grouped = Cells::new();
        for (coords, accs) in &self.cells {
            if !at.slices.iter().all(|&(i, v)| coords[i] == *v) {
                continue;
            }
            let key = at.axes.iter().map(|&i| coords[i].clone()).collect();
            match grouped.entry(key) {
                Entry::Occupied(mut e) => {
                    for (acc, &(i, agg)) in e.get_mut().iter_mut().zip(&at.measures) {
                        acc.merge(&accs[i], agg);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(at.measures.iter().map(|&(i, _)| accs[i].clone()).collect());
                }
            }
        }
        // with no axes the SQL is a global aggregate: one row, even of none
        if query.axes.is_empty() && grouped.is_empty() {
            let empty = at.measures.iter().map(|&(_, agg)| CellAcc::empty(agg));
            grouped.insert(Vec::new(), empty.collect());
        }
        let mut cells: Vec<(Vec<Value>, Vec<Value>)> = grouped
            .into_iter()
            .map(|(key, accs)| (key, accs.iter().map(CellAcc::render).collect()))
            .collect();
        cells.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(CellSet {
            axis_names: query
                .axes
                .iter()
                .map(|a| format!("{}.{}", a.dimension, a.level))
                .collect(),
            measure_names: query.measures.clone(),
            cells,
        })
    }
}

/// What one [`AggregateCache::apply_deltas`] call did, for telemetry and
/// tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Insert deltas folded in place, counted once per aggregate.
    pub folded: usize,
    /// Aggregates rebuilt from the warehouse (stale, or fold impossible).
    pub rebuilt: usize,
    /// Aggregates dropped (fact table gone, or rebuild failed).
    pub dropped: usize,
}

impl std::ops::AddAssign for DeltaReport {
    fn add_assign(&mut self, other: DeltaReport) {
        self.folded += other.folded;
        self.rebuilt += other.rebuilt;
        self.dropped += other.dropped;
    }
}

/// A cache of materialized aggregates consulted before hitting the fact
/// table, kept fresh by batches of warehouse deltas.
#[derive(Debug, Default)]
pub struct AggregateCache {
    aggregates: Vec<MaterializedAggregate>,
}

impl AggregateCache {
    /// Empty cache.
    pub fn new() -> Self {
        AggregateCache::default()
    }

    /// Register a materialized aggregate.
    pub fn add(&mut self, agg: MaterializedAggregate) {
        self.aggregates.push(agg);
    }

    /// Number of registered aggregates.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// Drop every aggregate. The platform never needs to: deltas keep the
    /// cache current. The end-to-end benchmark's ladder clears it to time
    /// a publication with no aggregate and a build from nothing.
    pub fn clear(&mut self) {
        self.aggregates.clear();
    }

    /// Apply a batch of warehouse deltas, in commit order, to every
    /// registered aggregate, then rebuild each aggregate the batch left
    /// stale — once, after the whole batch.
    ///
    /// `Insert` rows move into one [`Batch`] that every fresh aggregate
    /// over the table folds. `Mutate`, a dimension-table insert and a
    /// ragged insert (rows of unequal arity) mark the dependent aggregates
    /// stale; `Drop` of a fact table removes its aggregates. A stale
    /// aggregate takes no folds: its rebuild reads those rows anyway.
    ///
    /// A rebuild reads the live tables, which may already hold rows whose
    /// deltas are still waiting to be applied — `unapplied(table)` says
    /// whether `table` has any. An aggregate rebuilt over such a table is
    /// marked stale again, so those rows are not folded in a second time:
    /// the next batch rebuilds it, and until then queries go live.
    pub fn apply_deltas(
        &mut self,
        db: &Database,
        deltas: Vec<TableDelta>,
        unapplied: impl Fn(&str) -> bool,
    ) -> DeltaReport {
        let mut report = DeltaReport::default();
        for delta in deltas {
            match delta {
                TableDelta::Insert { table, rows } => {
                    let arity = rows.first().map_or(0, Vec::len);
                    let Ok(batch) = Batch::from_rows(arity, rows) else {
                        self.mark_stale_over(&table);
                        continue;
                    };
                    for a in self.aggregates.iter_mut().filter(|a| !a.is_stale()) {
                        match a.apply_delta(&table, &batch) {
                            DeltaOutcome::Folded => report.folded += 1,
                            DeltaOutcome::NeedsRebuild => a.mark_stale(),
                            DeltaOutcome::Unrelated => {}
                        }
                    }
                }
                TableDelta::Mutate { table } => self.mark_stale_over(&table),
                TableDelta::Drop { table } => {
                    let before = self.aggregates.len();
                    self.aggregates
                        .retain(|a| !a.def.fact_table.eq_ignore_ascii_case(&table));
                    report.dropped += before - self.aggregates.len();
                    self.mark_stale_over(&table);
                }
            }
        }
        self.aggregates.retain_mut(|a| {
            if !a.is_stale() {
                return true;
            }
            report.rebuilt += 1;
            if a.rebuild(db).is_err() {
                report.dropped += 1;
                return false;
            }
            if a.tables().iter().any(|t| unapplied(t)) {
                a.mark_stale();
            }
            true
        });
        report
    }

    /// Mark every aggregate that reads `table` stale.
    fn mark_stale_over(&mut self, table: &str) {
        for a in &mut self.aggregates {
            if a.depends_on(table) {
                a.mark_stale();
            }
        }
    }

    /// Answer from the cache if any fresh aggregate covers the query.
    pub fn try_answer(&self, cube: &str, query: &CubeQuery) -> Option<CellSet> {
        self.aggregates
            .iter()
            .find(|a| !a.is_stale() && a.cube == cube && a.answers(query))
            .and_then(|a| a.execute(query).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{CubeEngine, DimensionDef, LevelDef, MeasureDef, Slice};
    use crate::test_fixtures::{sales_cube, sales_db};
    use odbis_sql::Engine;
    use std::sync::Arc;

    fn engine() -> CubeEngine {
        CubeEngine::new(Arc::new(sales_db()))
    }

    #[test]
    fn materialized_matches_live_query() {
        let engine = engine();
        let cube = sales_cube();
        let axes = vec![
            LevelRef::new("time", "year"),
            LevelRef::new("store", "region"),
        ];
        let agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            axes.clone(),
            vec!["revenue".into(), "units".into()],
        )
        .unwrap();
        assert!(!agg.is_empty());
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert!(agg.answers(&q));
        let from_agg = agg.execute(&q).unwrap();
        let live = engine.query(&cube, &q).unwrap();
        assert_eq!(from_agg.cells, live.cells);
    }

    #[test]
    fn rollup_from_finer_aggregate() {
        let engine = engine();
        let cube = sales_cube();
        let agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            vec![
                LevelRef::new("time", "year"),
                LevelRef::new("store", "region"),
            ],
            vec!["revenue".into()],
        )
        .unwrap();
        // roll up to region only
        let q = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert!(agg.answers(&q));
        let rolled = agg.execute(&q).unwrap();
        let live = engine.query(&cube, &q).unwrap();
        assert_eq!(rolled.cells, live.cells);
    }

    #[test]
    fn sliced_query_from_aggregate() {
        let engine = engine();
        let cube = sales_cube();
        let agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            vec![
                LevelRef::new("time", "year"),
                LevelRef::new("store", "region"),
            ],
            vec!["revenue".into()],
        )
        .unwrap();
        let q = CubeQuery {
            axes: vec![LevelRef::new("time", "year")],
            slices: vec![Slice {
                level: LevelRef::new("store", "region"),
                member: "EU".into(),
            }],
            measures: vec!["revenue".into()],
        };
        let rolled = agg.execute(&q).unwrap();
        let live = engine.query(&cube, &q).unwrap();
        assert_eq!(rolled.cells, live.cells);
    }

    #[test]
    fn avg_cannot_roll_up_but_exact_match_ok() {
        let engine = engine();
        let mut cube = sales_cube();
        cube.measures.push(MeasureDef {
            name: "avg_amount".into(),
            column: "amount".into(),
            aggregator: Aggregator::Avg,
        });
        let axes = vec![
            LevelRef::new("time", "year"),
            LevelRef::new("store", "region"),
        ];
        let agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            axes.clone(),
            vec!["avg_amount".into()],
        )
        .unwrap();
        // exact-match query is fine
        let exact = CubeQuery {
            axes: axes.clone(),
            slices: vec![],
            measures: vec!["avg_amount".into()],
        };
        assert!(agg.answers(&exact));
        // roll-up is refused
        let rollup = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["avg_amount".into()],
        };
        assert!(!agg.answers(&rollup));
    }

    #[test]
    fn duplicate_axis_avg_merge_errors_instead_of_wrong_value() {
        // Axes [year, year] have the stored arity but leave region out, so
        // distinct (year, region) cells would merge onto one key — 2009 has
        // both EU and US cells. That is a roll-up, which AVG refuses: a
        // structured error, never a silent first-seen value.
        let engine = engine();
        let mut cube = sales_cube();
        cube.measures.push(MeasureDef {
            name: "avg_amount".into(),
            column: "amount".into(),
            aggregator: Aggregator::Avg,
        });
        let agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            vec![
                LevelRef::new("time", "year"),
                LevelRef::new("store", "region"),
            ],
            vec!["avg_amount".into()],
        )
        .unwrap();
        let q = CubeQuery {
            axes: vec![LevelRef::new("time", "year"), LevelRef::new("time", "year")],
            slices: vec![],
            measures: vec!["avg_amount".into()],
        };
        assert!(!agg.answers(&q));
        assert!(matches!(agg.execute(&q), Err(OlapError::Invalid(_))));
    }

    #[test]
    fn cache_answers_covered_queries_only() {
        let engine = engine();
        let cube = sales_cube();
        let mut cache = AggregateCache::new();
        cache.add(
            MaterializedAggregate::build(
                engine.database(),
                &cube,
                vec![LevelRef::new("store", "region")],
                vec!["revenue".into()],
            )
            .unwrap(),
        );
        let covered = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert!(cache.try_answer("sales", &covered).is_some());
        let uncovered = CubeQuery {
            axes: vec![LevelRef::new("store", "city")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert!(cache.try_answer("sales", &uncovered).is_none());
        assert!(cache.try_answer("other_cube", &covered).is_none());
    }

    // ------------------------------------------------ delta maintenance

    #[test]
    fn insert_delta_matches_live_query_across_snowflake_and_degenerate_axes() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let axes = vec![
            LevelRef::new("time", "year"),
            LevelRef::new("store", "region"),
        ];
        let mut agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            axes.clone(),
            vec!["revenue".into(), "units".into()],
        )
        .unwrap();
        // new rows: existing cell (EU 2009), brand-new cell (US 2011)
        Engine::new()
            .execute(
                &db,
                "INSERT INTO fact_sales VALUES (5, 2, 2009, 4, 15, 2), (6, 3, 2011, 1, 99, 1)",
            )
            .unwrap();
        let delta = Batch::from_rows(
            6,
            vec![
                vec![
                    5.into(),
                    2.into(),
                    2009.into(),
                    4.into(),
                    Value::Float(15.0),
                    2.into(),
                ],
                vec![
                    6.into(),
                    3.into(),
                    2011.into(),
                    1.into(),
                    Value::Float(99.0),
                    1.into(),
                ],
            ],
        )
        .unwrap();
        assert_eq!(agg.apply_delta("fact_sales", &delta), DeltaOutcome::Folded);
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures: vec!["revenue".into(), "units".into()],
        };
        assert_eq!(
            agg.execute(&q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );
    }

    #[test]
    fn avg_pair_folds_and_renders_like_the_engine() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let mut cube = sales_cube();
        cube.measures.push(MeasureDef {
            name: "avg_amount".into(),
            column: "amount".into(),
            aggregator: Aggregator::Avg,
        });
        let axes = vec![LevelRef::new("store", "region")];
        let mut agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            axes.clone(),
            vec!["avg_amount".into()],
        )
        .unwrap();
        Engine::new()
            .execute(&db, "INSERT INTO fact_sales VALUES (5, 1, 2011, 1, 70, 3)")
            .unwrap();
        let delta = Batch::from_rows(
            6,
            vec![vec![
                5.into(),
                1.into(),
                2011.into(),
                1.into(),
                Value::Float(70.0),
                3.into(),
            ]],
        )
        .unwrap();
        agg.apply_delta("fact_sales", &delta);
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures: vec!["avg_amount".into()],
        };
        let live = engine.query(&cube, &q).unwrap();
        let from_agg = agg.execute(&q).unwrap();
        for ((ck, cv), (lk, lv)) in from_agg.cells.iter().zip(live.cells.iter()) {
            assert_eq!(ck, lk);
            let (a, b) = (cv[0].as_f64().unwrap(), lv[0].as_f64().unwrap());
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn unmatched_fk_insert_is_invisible_like_the_inner_join() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let axes = vec![LevelRef::new("store", "region")];
        let mut agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            axes.clone(),
            vec!["revenue".into()],
        )
        .unwrap();
        // store 99 has no dim_store row: the ROLAP join drops it
        Engine::new()
            .execute(
                &db,
                "INSERT INTO fact_sales VALUES (5, 99, 2011, 1, 1000, 1)",
            )
            .unwrap();
        let delta = Batch::from_rows(
            6,
            vec![vec![
                5.into(),
                99.into(),
                2011.into(),
                1.into(),
                Value::Float(1000.0),
                1.into(),
            ]],
        )
        .unwrap();
        agg.apply_delta("fact_sales", &delta);
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert_eq!(
            agg.execute(&q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );
    }

    /// `dim(k, g)` holding `dim_rows`, `f(id, k)` holding fact 1 with
    /// `k = 1`, and the cube counting facts by `d.g`.
    fn two_table_cube(dim_rows: &str) -> (Arc<Database>, CubeEngine, CubeDef) {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                &format!(
                    "CREATE TABLE dim (k INT, g TEXT); INSERT INTO dim VALUES {dim_rows};
                     CREATE TABLE f (id INT, k INT); INSERT INTO f VALUES (1, 1);"
                ),
            )
            .unwrap();
        let cube = CubeDef {
            name: "c".into(),
            fact_table: "f".into(),
            dimensions: vec![DimensionDef {
                name: "d".into(),
                table: Some("dim".into()),
                fact_fk: "k".into(),
                dim_key: "k".into(),
                levels: vec![LevelDef {
                    name: "g".into(),
                    column: "g".into(),
                }],
            }],
            measures: vec![MeasureDef {
                name: "n".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            }],
        };
        (Arc::clone(&db), CubeEngine::new(db), cube)
    }

    /// Insert fact `(id, k)` into the warehouse, fold it into `agg`, and
    /// compare the folded cells with a live query.
    fn fold_one_and_compare(
        db: &Database,
        engine: &CubeEngine,
        cube: &CubeDef,
        agg: &mut MaterializedAggregate,
        id: i64,
        k: Value,
    ) {
        let row = vec![Value::Int(id), k];
        db.insert("f", row.clone()).unwrap();
        let delta = Batch::from_rows(2, vec![row]).unwrap();
        assert_eq!(agg.apply_delta("f", &delta), DeltaOutcome::Folded);
        let q = CubeQuery {
            axes: vec![LevelRef::new("d", "g")],
            slices: vec![],
            measures: vec!["n".into()],
        };
        assert_eq!(
            agg.execute(&q).unwrap().cells,
            engine.query(cube, &q).unwrap().cells
        );
    }

    #[test]
    fn null_fk_folds_into_no_cell_even_beside_a_null_dimension_key() {
        let (db, engine, cube) = two_table_cube("(1, 'a'), (NULL, 'nullgroup')");
        let mut agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            vec![LevelRef::new("d", "g")],
            vec!["n".into()],
        )
        .unwrap();
        // NULL = NULL is not true: the join has no `nullgroup` cell
        fold_one_and_compare(&db, &engine, &cube, &mut agg, 2, Value::Null);
    }

    #[test]
    fn duplicate_dimension_key_fans_a_fact_row_out_like_the_join() {
        let (db, engine, cube) = two_table_cube("(1, 'a'), (1, 'b')");
        let mut agg = MaterializedAggregate::build(
            engine.database(),
            &cube,
            vec![LevelRef::new("d", "g")],
            vec!["n".into()],
        )
        .unwrap();
        // the join pairs fact 2 with both dimension rows: a = 2, b = 2
        fold_one_and_compare(&db, &engine, &cube, &mut agg, 2, Value::Int(1));
    }

    #[test]
    fn cache_mutation_rebuilds_and_unrelated_tables_survive() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let mut cache = AggregateCache::new();
        cache.add(
            MaterializedAggregate::build(
                engine.database(),
                &cube,
                vec![LevelRef::new("store", "region")],
                vec!["revenue".into()],
            )
            .unwrap(),
        );
        // an unrelated table's write leaves the aggregate untouched
        let unrelated = TableDelta::Insert {
            table: "somewhere_else".into(),
            rows: vec![vec![1.into()]],
        };
        let r = cache.apply_deltas(engine.database(), vec![unrelated], |_| false);
        assert_eq!((r.folded, r.rebuilt, r.dropped), (0, 0, 0));
        assert_eq!(cache.len(), 1);
        // a mutation of the fact table forces a rebuild — and the rebuilt
        // cells see the new state
        Engine::new()
            .execute(&db, "UPDATE fact_sales SET amount = 110 WHERE id = 1")
            .unwrap();
        let mutate = TableDelta::Mutate {
            table: "fact_sales".into(),
        };
        let r = cache.apply_deltas(engine.database(), vec![mutate], |_| false);
        assert_eq!(r.rebuilt, 1);
        let q = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert_eq!(
            cache.try_answer("sales", &q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );
    }

    /// A rebuild reads the live table, so a row it already counts must
    /// not be folded in again: the batch's rebuild runs after its last
    /// delta, and a rebuild over a table with unapplied deltas stays
    /// stale until they arrive.
    #[test]
    fn rows_a_rebuild_read_are_not_folded_again() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let mut cache = AggregateCache::new();
        cache.add(
            MaterializedAggregate::build(
                engine.database(),
                &cube,
                vec![LevelRef::new("store", "region")],
                vec!["revenue".into()],
            )
            .unwrap(),
        );
        let q = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        let mutate = || TableDelta::Mutate {
            table: "fact_sales".into(),
        };
        let insert = |id: i64| {
            Engine::new()
                .execute(
                    &db,
                    &format!("INSERT INTO fact_sales VALUES ({id}, 1, 2011, 1, 5, 1)"),
                )
                .unwrap();
            TableDelta::Insert {
                table: "fact_sales".into(),
                rows: vec![vec![
                    id.into(),
                    1.into(),
                    2011.into(),
                    1.into(),
                    Value::Float(5.0),
                    1.into(),
                ]],
            }
        };

        // UPDATE then INSERT in one batch: one rebuild, no fold
        Engine::new()
            .execute(&db, "UPDATE fact_sales SET amount = 1 WHERE id = 1")
            .unwrap();
        let batch = vec![mutate(), insert(5)];
        let r = cache.apply_deltas(engine.database(), batch, |_| false);
        assert_eq!((r.folded, r.rebuilt), (0, 1));
        assert_eq!(
            cache.try_answer("sales", &q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );

        // row 6 is in the table the rebuild reads, its delta is not
        let late = insert(6);
        let r = cache.apply_deltas(engine.database(), vec![mutate()], |t| t == "fact_sales");
        assert_eq!(r.rebuilt, 1);
        assert!(
            cache.try_answer("sales", &q).is_none(),
            "stale, not doubled"
        );
        let r = cache.apply_deltas(engine.database(), vec![late], |_| false);
        assert_eq!((r.folded, r.rebuilt), (0, 1));
        assert_eq!(
            cache.try_answer("sales", &q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );
    }

    #[test]
    fn drop_of_fact_table_removes_the_aggregate() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let mut cache = AggregateCache::new();
        cache.add(
            MaterializedAggregate::build(
                engine.database(),
                &cube,
                vec![LevelRef::new("store", "region")],
                vec!["revenue".into()],
            )
            .unwrap(),
        );
        let drop = TableDelta::Drop {
            table: "fact_sales".into(),
        };
        let r = cache.apply_deltas(engine.database(), vec![drop], |_| false);
        assert_eq!(r.dropped, 1);
        assert!(cache.is_empty());
    }

    // ------------------------------------------------ fold builds

    /// `got` equals `want`, cell by cell, floats to 1e-9 relative (a
    /// float sum's value depends on the order its terms are added in).
    fn assert_same_cells(got: &CellSet, want: &CellSet, what: &str) {
        assert_eq!(
            got.cells.len(),
            want.cells.len(),
            "{what}: {got:?} vs {want:?}"
        );
        for ((gk, gv), (wk, wv)) in got.cells.iter().zip(&want.cells) {
            assert_eq!(gk, wk, "{what}");
            for (g, w) in gv.iter().zip(wv) {
                match (g, w) {
                    (Value::Float(a), Value::Float(b)) => assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                        "{what}: {a} vs {b}"
                    ),
                    _ => assert_eq!(g, w, "{what}"),
                }
            }
        }
    }

    /// A cube over `f` whose dimensions are the fact columns `levels`, one
    /// level each, named after its column.
    fn degenerate_cube(levels: &[&str], measures: Vec<MeasureDef>) -> CubeDef {
        CubeDef {
            name: "c".into(),
            fact_table: "f".into(),
            dimensions: levels
                .iter()
                .map(|&l| DimensionDef {
                    name: l.into(),
                    table: None,
                    fact_fk: String::new(),
                    dim_key: String::new(),
                    levels: vec![LevelDef {
                        name: l.into(),
                        column: l.into(),
                    }],
                })
                .collect(),
            measures,
        }
    }

    #[test]
    fn rollup_sum_past_i64_max_promotes_to_float_like_the_engine() {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                &format!(
                    "CREATE TABLE f (id INT, yr INT, g INT, amt INT);
                     INSERT INTO f VALUES (1, 2020, 1, {}), (2, 2020, 2, 100);",
                    i64::MAX - 10
                ),
            )
            .unwrap();
        let cube = degenerate_cube(
            &["yr", "g"],
            vec![MeasureDef {
                name: "s".into(),
                column: "amt".into(),
                aggregator: Aggregator::Sum,
            }],
        );
        let agg = MaterializedAggregate::build(
            &db,
            &cube,
            vec![LevelRef::new("yr", "yr"), LevelRef::new("g", "g")],
            vec!["s".into()],
        )
        .unwrap();
        let q = CubeQuery {
            axes: vec![LevelRef::new("yr", "yr")],
            slices: vec![],
            measures: vec!["s".into()],
        };
        let live = CubeEngine::new(Arc::clone(&db)).query(&cube, &q).unwrap();
        assert_eq!(
            live.cells,
            vec![(
                vec![Value::Int(2020)],
                vec![Value::Float(9.223372036854776e18)]
            )]
        );
        assert_eq!(agg.execute(&q).unwrap().cells, live.cells);
    }

    /// What only a build that folds the fact table can get wrong. Each
    /// case's warehouse gets two aggregates; each answers its exact query
    /// and a roll-up from its cells, equal to the live SQL, and refuses
    /// the roll-up whose SQL would not join the dimension it joins.
    #[test]
    fn fold_build_matches_live_query_on_every_table_shape() {
        // fact `id` of the base rows: k = id % 4 (k = 0 has no dimension
        // row), every 11th amount and every 17th name NULL
        let fact = |id: i64| {
            let or_null = |every: i64, v: Value| if id % every == 0 { Value::Null } else { v };
            vec![
                Value::Int(id),
                Value::Int(id % 4),
                Value::Int(2020 + id % 3),
                or_null(11, Value::Float((id % 7) as f64 * 0.1 + 0.25)),
                Value::Int(id % 5),
                or_null(17, Value::Text(format!("n{}", id % 13))),
            ]
        };
        let cases: [(&str, i64, &str); 7] = [
            ("deleted rows", 40, "DELETE FROM f WHERE id % 3 = 0"),
            ("empty fact table", 0, ""),
            ("three 4 096-row chunks", 9_000, ""),
            (
                "NULL foreign key",
                20,
                "INSERT INTO f VALUES (100, NULL, 2020, 1.5, 1, 'a'), (101, NULL, 2099, 2.5, 2, 'b')",
            ),
            ("a dimension key with two rows", 20, "INSERT INTO dim VALUES (2, 'b2')"),
            (
                "MIN and MAX over TEXT",
                20,
                "INSERT INTO f VALUES (200, 3, 2030, 1.0, 1, NULL), (201, 1, 2020, 1.0, 1, '')",
            ),
            (
                "AVG over FLOAT",
                20,
                "INSERT INTO f VALUES (300, 1, 2031, 0.1, 1, 'x'), (301, 1, 2031, 0.2, 1, 'y'), (302, 1, 2031, NULL, 1, 'z')",
            ),
        ];
        let measure = |name: &str, column: &str, aggregator| MeasureDef {
            name: name.into(),
            column: column.into(),
            aggregator,
        };
        let cube = CubeDef {
            name: "c".into(),
            fact_table: "f".into(),
            dimensions: vec![
                DimensionDef {
                    name: "d".into(),
                    table: Some("dim".into()),
                    fact_fk: "k".into(),
                    dim_key: "k".into(),
                    levels: vec![LevelDef {
                        name: "g".into(),
                        column: "g".into(),
                    }],
                },
                degenerate_cube(&["yr"], vec![]).dimensions.remove(0),
            ],
            measures: vec![
                measure("n", "id", Aggregator::Count),
                measure("qty", "qty", Aggregator::Sum),
                measure("amt", "amt", Aggregator::Sum),
                measure("lo", "name", Aggregator::Min),
                measure("hi", "name", Aggregator::Max),
                measure("mean", "amt", Aggregator::Avg),
            ],
        };
        let names = |ms: &[&str]| ms.iter().map(|m| m.to_string()).collect::<Vec<_>>();
        let all = names(&["n", "qty", "amt", "lo", "hi", "mean"]);
        let no_avg = names(&["n", "qty", "amt", "lo", "hi"]);
        let (g, yr) = (LevelRef::new("d", "g"), LevelRef::new("yr", "yr"));
        // stored axes, then (query axes, measures, answered from the cells)
        let shapes = [
            (
                vec![g.clone(), yr.clone()],
                vec![
                    (vec![g.clone(), yr.clone()], &all, true),
                    (vec![g.clone()], &no_avg, true),
                    // the live SQL would not join `dim`, so it counts the
                    // rows the join hides: the cache goes live
                    (vec![yr.clone()], &no_avg, false),
                ],
            ),
            (
                vec![yr.clone()],
                vec![(vec![yr.clone()], &all, true), (vec![], &no_avg, true)],
            ),
        ];
        for (case, rows, script) in cases {
            let db = Arc::new(Database::new());
            Engine::new()
                .execute_script(
                    &db,
                    "CREATE TABLE dim (k INT, g TEXT);
                     INSERT INTO dim VALUES (1, 'a'), (2, 'b'), (3, 'c');
                     CREATE TABLE f (id INT, k INT, yr INT, amt DOUBLE, qty INT, name TEXT);",
                )
                .unwrap();
            for id in 1..=rows {
                db.insert("f", fact(id)).unwrap();
            }
            if !script.is_empty() {
                Engine::new().execute(&db, script).unwrap();
            }
            let engine = CubeEngine::new(Arc::clone(&db));
            for (stored, queries) in &shapes {
                let agg =
                    MaterializedAggregate::build(&db, &cube, stored.clone(), all.clone()).unwrap();
                for (axes, measures, answered) in queries {
                    let q = CubeQuery {
                        axes: axes.clone(),
                        slices: vec![],
                        measures: measures.to_vec(),
                    };
                    let what = format!("{case}: {stored:?} answering {axes:?}");
                    assert_eq!(agg.answers(&q), *answered, "{what}");
                    if *answered {
                        let live = engine.query(&cube, &q).unwrap();
                        assert_same_cells(&agg.execute(&q).unwrap(), &live, &what);
                    }
                }
            }
        }
    }
}
