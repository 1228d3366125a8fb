//! Materialized aggregates (ablation A2) and data set views: pre-computed
//! GROUP BYs kept current over the warehouse's deltas. An aggregate
//! answers the cube queries it covers without touching the fact table; a
//! view answers its data set's SQL.
//!
//! A stored cell is one [`Accumulator`] per measure — the SQL executor's
//! own aggregate state, so a cell answers what the SQL GROUP BY does, to
//! the bit for INT measures. Cells are computed by the SQL executor's own
//! kernels: fact rows join each snowflaked dimension through a stored
//! [`JoinTable`], and the joined rows fold into groups through
//! [`aggregate_columns`], whose accumulators `merge` into the cells.
//! - a build or rebuild folds every live chunk of the fact table, split
//!   over the machine's workers, and merges the workers' cell maps;
//! - [`MaterializedAggregate::apply_delta`] folds inserted fact rows
//!   through the same kernels, so a warehouse write costs one cell
//!   update instead of a rebuild; writes a fold cannot express — updates,
//!   deletes, truncates, dimension-table changes — mark the aggregate
//!   stale, and it is rebuilt;
//! - a roll-up merges the stored cells onto the query's coarser key; AVG
//!   merges its sum and count, as the SQL's two-phase merge does.
//!
//! No SQL text is planned for an aggregate. The ROLAP SQL the cube engine
//! generates for the same query is the oracle the tests compare the cells
//! with. A [`DatasetView`] is the same state with another producer: its
//! fold plan comes from its data set's bound SQL plan instead of a cube
//! definition, and a read finishes its cells in place of the plan's
//! `Aggregate` node and runs the operators above it.
//!
//! What a fold reads besides the fact rows — the fact column or the
//! dimension column each axis takes its coordinate from, and each
//! snowflaked dimension's key and level columns with their join build
//! side — is the aggregate's fold plan. It is resolved from the warehouse
//! when the cells are built or rebuilt, and `apply_delta` takes no
//! database: a fold only probes the plan's build sides, so a fact insert
//! costs O(delta rows), not O(dimension rows). The build sides cannot go
//! out of date while the aggregate is fresh, because every write to a
//! dimension table makes it stale. [`AggregateCache::apply_deltas`]
//! takes a whole batch of deltas at once: it applies all of them, then
//! rebuilds each stale aggregate once, so a rebuild never reads a row
//! that a later delta in the batch would fold in a second time.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use odbis_sql::ast::{JoinKind, Statement};
use odbis_sql::plan::{equi_pairs, AggExpr, Plan, PlanNode};
use odbis_sql::{
    aggregate_columns, finish_groups, par_chunks, planner, Accumulator, BExpr, Engine, FastHasher,
    JoinTable, SqlError, SqlResult,
};
use odbis_storage::{Batch, Database, DbError, Schema, Value};

use crate::cube::{Aggregator, CellSet, CubeDef, CubeQuery, DimensionDef, LevelRef};
use crate::OlapError;

/// Stored cells: axis coordinates → one accumulator per stored measure.
type Cells = HashMap<Vec<Value>, Vec<Accumulator>, BuildHasherDefault<FastHasher>>;

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

/// Where a fold reads a column: `(0, c)` is fact column `c`, `(j + 1, c)`
/// is column `c` of `dims[j].rows`.
type Src = (usize, usize);

/// One snowflaked dimension the aggregate joins, as a fold probes it.
#[derive(Debug, Clone)]
struct Dim {
    /// Fact column holding the foreign key.
    fk: usize,
    /// The dimension's key column, then each column an axis or an
    /// aggregate reads.
    rows: Batch,
    /// `rows` hashed on its key column.
    join: JoinTable,
}

impl Dim {
    /// Scan `columns` of `table`, its join key first, and hash them on
    /// the key.
    fn scan(db: &Database, table: &str, fk: usize, columns: &[usize]) -> Result<Dim, DbError> {
        let chunks = db.scan_partitions(table, Some(columns))?;
        let rows = Batch::concat(columns.len(), &chunks)?;
        Ok(Dim {
            fk,
            join: JoinTable::build(&rows, &[0]),
            rows,
        })
    }
}

/// Everything a fold reads, resolved against the warehouse when the cells
/// are built, so a fold probes these build sides and never reads a table.
#[derive(Debug, Clone)]
struct FoldPlan {
    /// The fact table, then each joined dimension table once.
    tables: Vec<String>,
    /// Column count of the fact table; a delta of another width rebuilds.
    arity: usize,
    /// Where each axis reads its coordinate.
    axes: Vec<Src>,
    dims: Vec<Dim>,
    /// Where each aggregate that has an argument reads it, in order;
    /// `COUNT(*)` has none.
    inputs: Vec<Src>,
    /// One per stored measure, its argument bound over the joined columns
    /// a fold groups: the axes, then the inputs.
    aggs: Vec<AggExpr>,
}

impl FoldPlan {
    /// Resolve the plan of an aggregate over `def` from the live tables:
    /// column indices from the schemas, and each snowflaked dimension's
    /// key and level columns, with the build side of its join, from a scan
    /// of those columns.
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
        // per joined dimension: its def and table, the table's schema, and
        // the columns its rows keep: the key, then the levels axes read
        let mut joins: Vec<(&DimensionDef, &str, Schema, Vec<usize>)> = Vec::new();
        for lr in axes {
            let dim = def.dimension(&lr.dimension)?;
            let level = dim
                .levels
                .iter()
                .find(|l| l.name.eq_ignore_ascii_case(&lr.level))
                .ok_or_else(|| OlapError::UnknownLevel(format!("{}.{}", lr.dimension, lr.level)))?;
            let Some(t) = &dim.table else {
                srcs.push((0, index(&schema, &level.column, "fact column")?));
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
                    joins.push((dim, t, dschema, vec![key]));
                    joins.len() - 1
                }
            };
            let (_, _, dschema, cols) = &mut joins[join];
            let col = index(dschema, &level.column, &format!("{t} column"))?;
            srcs.push((join + 1, cols.len()));
            cols.push(col);
        }
        let mut dims = Vec::with_capacity(joins.len());
        for (dim, t, _, projection) in joins {
            let fk = index(&schema, &dim.fact_fk, "fact fk")?;
            dims.push(Dim::scan(db, t, fk, &projection).map_err(invalid)?);
        }
        let inputs = measures
            .iter()
            .map(|(name, _)| index(&schema, &def.measure(name)?.column, "measure column"))
            .map(|c| c.map(|c| (0, c)))
            .collect::<Result<_, _>>()?;
        let aggs = (measures.iter().zip(axes.len()..))
            .map(|(&(_, func), c)| AggExpr {
                func,
                arg: Some(BExpr::Column(c)),
                distinct: false,
            })
            .collect();
        Ok(FoldPlan {
            tables,
            arity: schema.columns().len(),
            axes: srcs,
            dims,
            inputs,
            aggs,
        })
    }

    /// The plan of a view over a bound `SELECT` (see [`DatasetView`]):
    /// its GROUP BY columns are the axes, its aggregates the measures and
    /// its joins the dimensions, their build sides scanned from `db`. The
    /// refusal names the clause a view cannot keep.
    fn for_select(db: &Database, plan: &Plan) -> Result<FoldPlan, String> {
        let (input, group_exprs, aggs) = view_aggregate(plan)?;
        let mut sides = Vec::new();
        star(input, &mut sides)?;
        let fact = sides[0].0;
        if sides[1..]
            .iter()
            .any(|(t, ..)| t.eq_ignore_ascii_case(fact))
        {
            return Err("a self-join".into());
        }
        // each dimension's kept columns: its join key, then what is read
        let mut kept: Vec<Vec<usize>> = sides[1..]
            .iter()
            .map(|&(_, _, (_, key))| vec![key])
            .collect();
        let mut src = |expr: &BExpr| -> Option<Src> {
            let &BExpr::Column(mut c) = expr else {
                return None;
            };
            for (side, &(_, arity, _)) in sides.iter().enumerate() {
                if c >= arity {
                    c -= arity;
                    continue;
                }
                if side == 0 {
                    return Some((0, c));
                }
                let cols = &mut kept[side - 1];
                let at = cols.iter().position(|&x| x == c).unwrap_or_else(|| {
                    cols.push(c);
                    cols.len() - 1
                });
                return Some((side, at));
            }
            None
        };
        let axes: Vec<Src> = (group_exprs.iter().map(&mut src))
            .collect::<Option<_>>()
            .ok_or("a GROUP BY expression that is not a column")?;
        let mut inputs = Vec::new();
        let mut folded = Vec::with_capacity(aggs.len());
        for agg in aggs {
            if agg.distinct {
                return Err("a DISTINCT aggregate".into());
            }
            let arg = match &agg.arg {
                None => None,
                Some(arg) => {
                    inputs.push(src(arg).ok_or("an aggregate over an expression")?);
                    Some(BExpr::Column(axes.len() + inputs.len() - 1))
                }
            };
            folded.push(AggExpr {
                func: agg.func,
                arg,
                distinct: false,
            });
        }
        let mut tables = vec![fact.to_string()];
        let mut dims = Vec::with_capacity(kept.len());
        for (&(t, _, (fk, _)), cols) in sides[1..].iter().zip(&kept) {
            if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                tables.push(t.to_string());
            }
            dims.push(Dim::scan(db, t, fk, cols).map_err(|e| e.to_string())?);
        }
        Ok(FoldPlan {
            tables,
            arity: sides[0].1,
            axes,
            dims,
            inputs,
            aggs: folded,
        })
    }

    /// Fold fact rows (full width) into `cells`, as a build does with each
    /// chunk of the fact table and a fold with the inserted rows: join
    /// them with every dimension, then fold the joined rows' coordinates
    /// and aggregate inputs into groups with the SQL executor's partial
    /// aggregation, and merge each group into its cell. Nothing is merged
    /// unless the whole batch folded.
    fn fold(&self, cells: &mut Cells, facts: &Batch) -> SqlResult<()> {
        let joined = self.join(facts)?;
        let groups = aggregate_columns(std::slice::from_ref(&joined), self.axes.len(), &self.aggs)?;
        for (key, accs) in groups {
            merge_cell(cells, key, accs);
        }
        Ok(())
    }

    /// The inner join of `facts` with each dimension, as the columns a
    /// fold groups: every axis's coordinate, then every aggregate input.
    ///
    /// The probes chain as the SQL's joins do: each dimension's build side
    /// is probed with the foreign keys of the rows the joins before it
    /// kept, so a foreign key that is NULL or has no dimension row drops
    /// the fact row, and a key shared by several dimension rows keeps it
    /// once per match. While every probe keeps each fact row once and in
    /// order — a one-row insert that matches — nothing is remapped, the
    /// fact side is probed as it is, and its columns are taken whole.
    fn join(&self, facts: &Batch) -> SqlResult<Batch> {
        let n = facts.num_rows();
        // per side (the facts, then each dimension): each joined row's
        // row; `None` is every fact row once, in order
        let mut rows: Vec<Option<Vec<u32>>> = vec![None];
        for dim in &self.dims {
            let (kept, matched) = match &rows[0] {
                None => dim.join.probe(facts, &[dim.fk], 0, n),
                Some(fact_rows) => {
                    let fk = Arc::new(facts.column(dim.fk).gather(fact_rows));
                    let fk = Batch::new(vec![fk], fact_rows.len())?;
                    dim.join.probe(&fk, &[0], 0, fk.num_rows())
                }
            };
            let len = rows[0].as_ref().map_or(n, Vec::len);
            let moved = kept.len() != len || kept.iter().zip(0..).any(|(&k, i)| k != i);
            if moved {
                for side in &mut rows {
                    let remapped = match side {
                        None => kept.clone(),
                        Some(r) => kept.iter().map(|&k| r[k as usize]).collect(),
                    };
                    *side = Some(remapped);
                }
            }
            rows.push(Some(matched));
        }
        let columns = (self.axes.iter().chain(&self.inputs))
            .map(|&(side, c)| {
                let source = match side {
                    0 => facts,
                    _ => &self.dims[side - 1].rows,
                };
                match &rows[side] {
                    None => Arc::clone(source.column(c)),
                    Some(r) => Arc::new(source.column(c).gather(r)),
                }
            })
            .collect();
        Ok(Batch::new(columns, rows[0].as_ref().map_or(n, Vec::len))?)
    }

    /// Fold the whole fact table into new cells. Its live chunks are split
    /// over as many workers as [`Engine::new`] runs SQL on; each worker
    /// folds its share into a map of its own, and the maps merge.
    fn fold_table(&self, db: &Database) -> Result<Cells, OlapError> {
        let chunks = db.scan_partitions(&self.tables[0], None).map_err(invalid)?;
        let parts = par_chunks(chunks, Engine::new().parallelism(), |chunks| {
            let mut cells = Cells::default();
            for c in &chunks {
                self.fold(&mut cells, c)?;
            }
            SqlResult::Ok(cells)
        });
        let parts = parts.into_iter().collect::<SqlResult<Vec<_>>>();
        let mut parts = parts
            .map_err(|e| OlapError::Execution(e.to_string()))?
            .into_iter();
        let mut cells = parts.next().unwrap_or_default();
        for part in parts {
            for (key, accs) in part {
                merge_cell(&mut cells, key, accs);
            }
        }
        Ok(cells)
    }
}

/// The `Aggregate` node a view keeps — its input, GROUP BY expressions and
/// aggregates — below a plan's chain of single-input operators (HAVING,
/// the projection, DISTINCT, ORDER BY, LIMIT), or the clause that refuses
/// the plan. The ORDER BY must sort on every GROUP BY column: the groups
/// are then in one order however the cells come out.
fn view_aggregate(plan: &Plan) -> Result<(&Plan, &[BExpr], &[AggExpr]), String> {
    let mut node = plan;
    // the sort keys, and the projection whose columns they index
    let mut keys: &[(usize, bool)] = &[];
    let mut sorted: Option<&[BExpr]> = None;
    loop {
        match &node.node {
            PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Filter { input, .. } => node = input,
            PlanNode::Sort { input, keys: k } => {
                keys = k;
                node = input;
            }
            PlanNode::Project { input, exprs } => {
                if !keys.is_empty() && sorted.is_none() {
                    sorted = Some(exprs);
                }
                node = input;
            }
            PlanNode::Aggregate {
                input,
                group_exprs,
                aggs,
            } if !group_exprs.is_empty() => {
                let exprs = sorted.unwrap_or_default();
                let ordered =
                    |g| (keys.iter()).any(|&(k, _)| exprs.get(k) == Some(&BExpr::Column(g)));
                if !(0..group_exprs.len()).all(ordered) {
                    return Err("an ORDER BY that leaves out a GROUP BY column".into());
                }
                return Ok((input, group_exprs, aggs));
            }
            _ => return Err("no GROUP BY".into()),
        }
    }
}

/// One table of a view's FROM clause: its name, its column count and, for
/// a dimension, its join's (fact column, dimension column).
type Side<'p> = (&'p str, usize, (usize, usize));

/// The tables of an aggregate's input into `sides`, the fact table (the
/// first in FROM) first; or the clause that makes the input something
/// other than that table inner-joined to each other table on one fact
/// column = one column of that table.
fn star<'p>(plan: &'p Plan, sides: &mut Vec<Side<'p>>) -> Result<(), String> {
    match &plan.node {
        PlanNode::TableScan {
            table,
            filter: None,
            projection: None,
        } => {
            sides.push((table, plan.schema.len(), (0, 0)));
            Ok(())
        }
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => {
            if *kind == JoinKind::Left {
                return Err("a LEFT JOIN".into());
            }
            star(left, sides)?;
            let PlanNode::TableScan { table, .. } = &right.node else {
                return Err("a join of something other than a table".into());
            };
            match equi_pairs(on, left.schema.len()) {
                (pairs, None) if pairs.len() == 1 && pairs[0].0 < sides[0].1 => {
                    sides.push((table, right.schema.len(), pairs[0]));
                    Ok(())
                }
                _ => Err("a join condition other than fact column = table column".into()),
            }
        }
        PlanNode::Filter { .. } => Err("WHERE".into()),
        _ => Err("a FROM clause that is not tables".into()),
    }
}

/// Merge one cell's accumulators into `cells`.
fn merge_cell(cells: &mut Cells, key: Vec<Value>, accs: Vec<Accumulator>) {
    match cells.entry(key) {
        Entry::Occupied(mut e) => {
            for (acc, other) in e.get_mut().iter_mut().zip(&accs) {
                acc.merge(other);
            }
        }
        Entry::Vacant(e) => {
            e.insert(accs);
        }
    }
}

fn invalid(e: DbError) -> OlapError {
    OlapError::Invalid(e.to_string())
}

/// Cells folded through a fold plan, kept current by inserts into its fact
/// table, and whether a write they cannot fold has made them stale.
#[derive(Debug, Clone)]
struct Folded {
    /// Resolved together with `cells`; exact whenever they are fresh,
    /// because every write to a table in `plan.tables` either folds (a
    /// fact insert) or makes them stale.
    plan: FoldPlan,
    cells: Cells,
    stale: bool,
}

impl Folded {
    /// Fold every live row of the plan's fact table.
    fn build(db: &Database, plan: FoldPlan) -> Result<Folded, OlapError> {
        Ok(Folded {
            cells: plan.fold_table(db)?,
            plan,
            stale: false,
        })
    }

    /// Whether a write to `table` can change the cells.
    fn depends_on(&self, table: &str) -> bool {
        (self.plan.tables.iter()).any(|t| t.eq_ignore_ascii_case(table))
    }

    /// [`MaterializedAggregate::apply_delta`].
    fn apply_delta(&mut self, table: &str, rows: &Batch) -> DeltaOutcome {
        if !table.eq_ignore_ascii_case(&self.plan.tables[0]) {
            return if self.depends_on(table) {
                DeltaOutcome::NeedsRebuild
            } else {
                DeltaOutcome::Unrelated
            };
        }
        if self.stale || (rows.num_rows() > 0 && rows.num_columns() != self.plan.arity) {
            return DeltaOutcome::NeedsRebuild;
        }
        // an empty batch folds nothing, and may have no columns to join
        if rows.is_empty() {
            return DeltaOutcome::Folded;
        }
        match self.plan.fold(&mut self.cells, rows) {
            Ok(()) => DeltaOutcome::Folded,
            Err(_) => DeltaOutcome::NeedsRebuild,
        }
    }
}

/// Where a query's parts sit in an aggregate's cells.
struct Positions<'q> {
    /// Stored axis of each query axis.
    axes: Vec<usize>,
    /// Stored axis of each slice, and the member it keeps.
    slices: Vec<(usize, &'q Value)>,
    /// Stored measure of each query measure.
    measures: Vec<usize>,
}

/// A materialized aggregate: the cell set of one (axes, measures)
/// combination, indexed for point lookups and further roll-ups.
#[derive(Debug, Clone)]
pub struct MaterializedAggregate {
    /// Cube the aggregate belongs to.
    pub cube: String,
    /// Axes the aggregate is grouped by.
    pub axes: Vec<LevelRef>,
    /// Measures stored, with their aggregators.
    pub measures: Vec<(String, Aggregator)>,
    /// The defining cube, retained so stale cells can be rebuilt without
    /// a registry lookup.
    def: CubeDef,
    folded: Folded,
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
        Ok(MaterializedAggregate {
            cube: cube.name.clone(),
            axes,
            measures,
            def: cube.clone(),
            folded: Folded::build(db, plan)?,
        })
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.folded.cells.len()
    }

    /// Whether the aggregate is empty.
    pub fn is_empty(&self) -> bool {
        self.folded.cells.is_empty()
    }

    /// Whether a non-foldable write has invalidated the cells. A stale
    /// aggregate refuses to answer queries until [`Self::rebuild`] runs.
    pub fn is_stale(&self) -> bool {
        self.folded.stale
    }

    /// Mark the cells invalid (a write arrived that a fold cannot
    /// express, or the cells may already hold rows a fold would add).
    pub fn mark_stale(&mut self) {
        self.folded.stale = true;
    }

    /// Every warehouse table the stored cells depend on: the fact table
    /// plus the dimension tables of snowflaked axes.
    pub fn tables(&self) -> &[String] {
        &self.folded.plan.tables
    }

    /// Whether a write to `table` can change the stored cells.
    pub fn depends_on(&self, table: &str) -> bool {
        self.folded.depends_on(table)
    }

    /// Build again from `db`, as [`Self::build`] does: re-resolve the fold
    /// plan, fold the fact table into new cells, and replace both.
    pub fn rebuild(&mut self, db: &Database) -> Result<(), OlapError> {
        let plan = FoldPlan::resolve(db, &self.def, &self.axes, &self.measures)?;
        self.folded = Folded::build(db, plan)?;
        Ok(())
    }

    /// Fold a batch of rows inserted into `table` into the stored cells.
    ///
    /// A fold reads only the inserted rows and the fold plan resolved at
    /// the last build: each snowflaked dimension's join build side is
    /// probed with the rows' foreign keys, whatever the layout of their
    /// column, so it costs O(delta rows), whatever the size of the
    /// dimensions.
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
        self.folded.apply_delta(table, rows)
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
                    self.measures
                        .iter()
                        .position(|(m, _)| m.eq_ignore_ascii_case(name))
                })
                .collect::<Option<_>>()?,
        };
        let read = |i: usize| at.axes.contains(&i) || at.slices.iter().any(|&(s, _)| s == i);
        // the live SQL joins only the dimensions a query reads, and a join
        // hides the fact rows it does not match: a query that reads none of
        // a joined dimension's axes counts rows the cells never saw
        let joined = |j: usize| {
            (self.folded.plan.axes.iter().enumerate())
                .any(|(i, &(side, _))| side == j + 1 && read(i))
        };
        if !(0..self.folded.plan.dims.len()).all(joined) {
            return None;
        }
        Some(at)
    }

    /// Can this aggregate answer `query` exactly?
    ///
    /// Conditions: every query axis and every slice level is one of our
    /// axes, every requested measure is stored, and the query reads an
    /// axis of every dimension table we join (its SQL would not join the
    /// others, so rows they hide would count). A roll-up — a query that
    /// slices, or leaves one of our axes out — merges the cells'
    /// accumulators, AVG included.
    pub fn answers(&self, query: &CubeQuery) -> bool {
        self.positions(query).is_some()
    }

    /// Answer a query from the materialized cells (must satisfy
    /// [`MaterializedAggregate::answers`]): the stored cells that pass the
    /// slices merge by the query's key. A cell whose aggregate the SQL
    /// refuses (SUM or AVG over a value that is not a number) is the SQL's
    /// error.
    pub fn execute(&self, query: &CubeQuery) -> Result<CellSet, OlapError> {
        let at = self
            .positions(query)
            .ok_or_else(|| OlapError::Invalid("aggregate does not cover this query".into()))?;
        let mut grouped = Cells::default();
        for (coords, accs) in &self.folded.cells {
            if !at.slices.iter().all(|&(i, v)| coords[i] == *v) {
                continue;
            }
            let key = at.axes.iter().map(|&i| coords[i].clone()).collect();
            match grouped.entry(key) {
                Entry::Occupied(mut e) => {
                    for (acc, &i) in e.get_mut().iter_mut().zip(&at.measures) {
                        acc.merge(&accs[i]);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(at.measures.iter().map(|&i| accs[i].clone()).collect());
                }
            }
        }
        // with no axes the SQL is a global aggregate: one row, even of none
        if query.axes.is_empty() && grouped.is_empty() {
            let funcs = &self.folded.plan.aggs;
            let empty = (at.measures.iter()).map(|&i| Accumulator::new(funcs[i].func, false));
            grouped.insert(Vec::new(), empty.collect());
        }
        let mut cells = Vec::with_capacity(grouped.len());
        for (key, accs) in grouped {
            let values = accs
                .iter()
                .map(Accumulator::finish)
                .collect::<Result<_, _>>();
            cells.push((
                key,
                values.map_err(|e| OlapError::Execution(e.to_string()))?,
            ));
        }
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

/// A data set kept as a view: the groups of its SQL's GROUP BY, folded
/// over the warehouse's deltas exactly as a [`MaterializedAggregate`]'s
/// cells are, beside its bound plan. A read finishes the cells as columns in
/// place of the plan's `Aggregate` node ([`Self::answer`]) and runs the
/// operators above it — HAVING, the projection, ORDER BY, LIMIT — through
/// the SQL executor.
///
/// A data set's plan is kept as a view when it aggregates one fact table,
/// the first in FROM, inner-joined to each other table on one fact column
/// = one column of that table, with no WHERE; groups by a non-empty list
/// of plain columns; computes only SUM, COUNT, COUNT(*), AVG, MIN or MAX
/// over plain columns, none DISTINCT; and orders by every GROUP BY column,
/// so its rows come out in one order whatever order the cells are in.
#[derive(Debug, Clone)]
pub struct DatasetView {
    name: String,
    sql: String,
    plan: Plan,
    folded: Folded,
}

impl DatasetView {
    /// Plan data set `name`'s `sql` against `db` and, when the plan is one
    /// a view keeps, fold the fact table into it. The error is the clause
    /// that refuses the plan, or why the SQL does not plan.
    pub fn build(db: &Database, name: &str, sql: &str) -> Result<DatasetView, String> {
        let Statement::Select(sel) = odbis_sql::parse(sql).map_err(|e| e.to_string())? else {
            return Err("not a SELECT".into());
        };
        let plan = planner::plan_select(db, &sel).map_err(|e| e.to_string())?;
        let fold = FoldPlan::for_select(db, &plan)?;
        Ok(DatasetView {
            name: name.to_string(),
            sql: sql.to_string(),
            plan,
            folded: Folded::build(db, fold).map_err(|e| e.to_string())?,
        })
    }

    /// Every warehouse table the view reads: the fact table, then the
    /// joined ones.
    pub fn tables(&self) -> &[String] {
        &self.folded.plan.tables
    }

    /// Mark the view invalid: it answers nothing until it is rebuilt.
    pub fn mark_stale(&mut self) {
        self.folded.stale = true;
    }

    /// The data set's plan with the view's groups, finished into columns,
    /// as the batch of a `Values` leaf in place of its `Aggregate` node
    /// ([`Plan::with_aggregate_batch`]): what is left to run is the plan
    /// above its aggregation. A group whose aggregate the SQL refuses (SUM
    /// over TEXT) is the SQL's error.
    pub fn answer(&self) -> SqlResult<Plan> {
        let plan = &self.folded.plan;
        let batch = finish_groups(&self.folded.cells, (plan.axes.len(), plan.aggs.len()))?;
        (self.plan.with_aggregate_batch(batch))
            .ok_or_else(|| SqlError::Bind(format!("view {} has no aggregation", self.name)))
    }
}

/// One state the cache keeps current.
#[derive(Debug, Clone)]
enum Kept {
    Aggregate(MaterializedAggregate),
    View(DatasetView),
}

impl Kept {
    fn folded(&self) -> &Folded {
        match self {
            Kept::Aggregate(a) => &a.folded,
            Kept::View(v) => &v.folded,
        }
    }

    fn folded_mut(&mut self) -> &mut Folded {
        match self {
            Kept::Aggregate(a) => &mut a.folded,
            Kept::View(v) => &mut v.folded,
        }
    }

    /// Build again from `db`: an aggregate from its cube definition, a
    /// view by planning its SQL again, since a DROP and a CREATE may have
    /// moved the columns it reads. `false` when that fails — a table is
    /// gone, or the SQL no longer plans or no longer makes a view — and
    /// the state is dropped.
    fn rebuild(&mut self, db: &Database) -> bool {
        match self {
            Kept::Aggregate(a) => a.rebuild(db).is_ok(),
            Kept::View(v) => match DatasetView::build(db, &v.name, &v.sql) {
                Ok(fresh) => {
                    *v = fresh;
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// The materialized aggregates consulted before a cube query hits the
/// fact table and the views data sets are read from, kept fresh by
/// batches of warehouse deltas.
#[derive(Debug, Default)]
pub struct AggregateCache {
    kept: Vec<Kept>,
}

impl AggregateCache {
    /// Empty cache.
    pub fn new() -> Self {
        AggregateCache::default()
    }

    /// Register a materialized aggregate.
    pub fn add(&mut self, agg: MaterializedAggregate) {
        self.kept.push(Kept::Aggregate(agg));
    }

    /// Register a data set view, in place of any view of its name.
    pub fn add_view(&mut self, view: DatasetView) {
        self.drop_view(&view.name);
        self.kept.push(Kept::View(view));
    }

    /// Drop data set `name`'s view, if there is one.
    pub fn drop_view(&mut self, name: &str) {
        self.kept
            .retain(|k| !matches!(k, Kept::View(v) if v.name == name));
    }

    /// Data set `name`'s view, when it is fresh and was built from exactly
    /// `sql`; a data set defined again with other SQL reads its plan.
    pub fn view(&self, name: &str, sql: &str) -> Option<&DatasetView> {
        self.kept.iter().find_map(|k| match k {
            Kept::View(v) if v.name == name && v.sql == sql && !v.folded.stale => Some(v),
            _ => None,
        })
    }

    /// Number of registered aggregates and views.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Drop every aggregate and view. The platform never needs to: deltas
    /// keep the cache current. The end-to-end benchmark's ladder clears it
    /// to time a publication with nothing to fold and a build from nothing.
    pub fn clear(&mut self) {
        self.kept.clear();
    }

    /// Apply a batch of warehouse deltas, in commit order, to every
    /// registered aggregate and view, then rebuild each one the batch left
    /// stale — once, after the whole batch.
    ///
    /// `Insert` rows move into one [`Batch`] that every fresh aggregate
    /// and view over the table folds. `Mutate`, a dimension-table insert
    /// and a ragged insert (rows of unequal arity) mark the dependent ones
    /// stale; `Drop` of a fact table removes those over it. A stale one
    /// takes no folds: its rebuild reads those rows anyway.
    ///
    /// A rebuild reads the live tables, which may already hold rows whose
    /// deltas are still waiting to be applied — `unapplied(table)` says
    /// whether `table` has any. One rebuilt over such a table is marked
    /// stale again, so those rows are not folded in a second time: the
    /// next batch rebuilds it, and until then queries go live.
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
                    for f in self.kept.iter_mut().map(Kept::folded_mut) {
                        if f.stale {
                            continue;
                        }
                        match f.apply_delta(&table, &batch) {
                            DeltaOutcome::Folded => report.folded += 1,
                            DeltaOutcome::NeedsRebuild => f.stale = true,
                            DeltaOutcome::Unrelated => {}
                        }
                    }
                }
                TableDelta::Mutate { table } => self.mark_stale_over(&table),
                TableDelta::Drop { table } => {
                    let before = self.kept.len();
                    self.kept
                        .retain(|k| !k.folded().plan.tables[0].eq_ignore_ascii_case(&table));
                    report.dropped += before - self.kept.len();
                    self.mark_stale_over(&table);
                }
            }
        }
        self.kept.retain_mut(|k| {
            if !k.folded().stale {
                return true;
            }
            report.rebuilt += 1;
            if !k.rebuild(db) {
                report.dropped += 1;
                return false;
            }
            let f = k.folded_mut();
            f.stale = f.plan.tables.iter().any(|t| unapplied(t));
            true
        });
        report
    }

    /// Mark every aggregate and view that reads `table` stale.
    pub fn mark_stale_over(&mut self, table: &str) {
        for f in self.kept.iter_mut().map(Kept::folded_mut) {
            if f.depends_on(table) {
                f.stale = true;
            }
        }
    }

    /// Answer from the cache if any fresh aggregate covers the query;
    /// `None` when none does, or when its answer is an error, which the
    /// live SQL then reports.
    pub fn try_answer(&self, cube: &str, query: &CubeQuery) -> Option<CellSet> {
        self.kept
            .iter()
            .find_map(|k| match k {
                Kept::Aggregate(a) if !a.is_stale() && a.cube == cube && a.answers(query) => {
                    Some(a)
                }
                _ => None,
            })
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
    fn avg_rolls_up_like_the_live_query() {
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
        let query = |axes: Vec<LevelRef>, slices: Vec<Slice>| CubeQuery {
            axes,
            slices,
            measures: vec!["avg_amount".into()],
        };
        let region = || LevelRef::new("store", "region");
        let eu = || Slice {
            level: region(),
            member: "EU".into(),
        };
        for q in [
            query(agg.axes.clone(), vec![]),
            query(vec![region()], vec![]),
            query(vec![LevelRef::new("time", "year")], vec![eu()]),
            query(vec![], vec![eu()]),
            // the stored arity, but year left out: EU's 2009 and 2010
            // cells merge onto one key, as GROUP BY region, region does
            query(vec![region(), region()], vec![]),
        ] {
            assert!(agg.answers(&q), "{q:?}");
            assert_eq!(
                agg.execute(&q).unwrap().cells,
                engine.query(&cube, &q).unwrap().cells,
                "{q:?}"
            );
        }
    }

    #[test]
    fn sum_or_avg_over_text_answers_the_sql_error_not_a_cell() {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE f (g INT, h INT, name TEXT);
                 INSERT INTO f VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, NULL);",
            )
            .unwrap();
        let engine = CubeEngine::new(Arc::clone(&db));
        for (aggregator, err) in [
            (Aggregator::Sum, "SUM over non-numeric values"),
            (Aggregator::Avg, "AVG over non-numeric values"),
        ] {
            let cube = degenerate_cube(
                &["g", "h"],
                vec![MeasureDef {
                    name: "m".into(),
                    column: "name".into(),
                    aggregator,
                }],
            );
            let axes = vec![LevelRef::new("g", "g"), LevelRef::new("h", "h")];
            let agg =
                MaterializedAggregate::build(&db, &cube, axes.clone(), vec!["m".into()]).unwrap();
            let mut cache = AggregateCache::new();
            cache.add(agg.clone());
            let query = |axes: Vec<LevelRef>| CubeQuery {
                axes,
                slices: vec![],
                measures: vec!["m".into()],
            };
            for q in [query(axes.clone()), query(vec![LevelRef::new("g", "g")])] {
                let what = format!("{aggregator:?} {q:?}");
                assert!(cache.try_answer("c", &q).is_none(), "{what}");
                let live = engine.query(&cube, &q).unwrap_err();
                assert!(live.to_string().contains(err), "{what}: {live}");
                assert_eq!(agg.execute(&q).unwrap_err(), live, "{what}");
            }
        }
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
    fn avg_folds_and_finishes_like_the_engine() {
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
        assert_eq!(
            agg.execute(&q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );
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
    /// case's warehouse gets three aggregates, of one to four axes; each
    /// answers its exact query and a roll-up from its cells, equal to the
    /// live SQL, and refuses the roll-up whose SQL would not join the
    /// dimension it joins — once built, and again after folding inserted
    /// rows whose foreign keys arrive in layouts the dimension's `INT` key
    /// column does not have.
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
            dimensions: vec![DimensionDef {
                name: "d".into(),
                table: Some("dim".into()),
                fact_fk: "k".into(),
                dim_key: "k".into(),
                levels: vec![LevelDef {
                    name: "g".into(),
                    column: "g".into(),
                }],
            }]
            .into_iter()
            .chain(degenerate_cube(&["yr", "qty", "name"], vec![]).dimensions)
            .collect(),
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
        let (g, yr) = (LevelRef::new("d", "g"), LevelRef::new("yr", "yr"));
        let (qty, name) = (LevelRef::new("qty", "qty"), LevelRef::new("name", "name"));
        // stored axes, then (query axes, measures, answered from the cells)
        let shapes = [
            (
                vec![g.clone(), yr.clone()],
                vec![
                    (vec![g.clone(), yr.clone()], &all, true),
                    (vec![g.clone()], &all, true),
                    // the live SQL would not join `dim`, so it counts the
                    // rows the join hides: the cache goes live
                    (vec![yr.clone()], &all, false),
                ],
            ),
            (
                vec![yr.clone()],
                vec![(vec![yr.clone()], &all, true), (vec![], &all, true)],
            ),
            (
                vec![g.clone(), yr.clone(), qty.clone(), name.clone()],
                vec![
                    (
                        vec![g.clone(), yr.clone(), qty.clone(), name.clone()],
                        &all,
                        true,
                    ),
                    (vec![name.clone(), g.clone()], &all, true),
                    (vec![yr.clone(), qty.clone()], &all, false),
                ],
            ),
        ];
        // the foreign keys of rows inserted after the build, as their delta
        // carries them: all NULL (a `Mixed` column), and `FLOAT` values the
        // warehouse holds as the `INT`s SQL equality matches them with
        let deltas = [
            vec![Value::Null, Value::Null],
            vec![Value::Float(1.0), Value::Float(2.0), Value::Float(9.0)],
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
            let mut aggs: Vec<MaterializedAggregate> = (shapes.iter())
                .map(|(stored, _)| {
                    MaterializedAggregate::build(&db, &cube, stored.clone(), all.clone()).unwrap()
                })
                .collect();
            let check = |aggs: &[MaterializedAggregate], when: &str| {
                for ((stored, queries), agg) in shapes.iter().zip(aggs) {
                    for (axes, measures, answered) in queries {
                        let q = CubeQuery {
                            axes: axes.clone(),
                            slices: vec![],
                            measures: measures.to_vec(),
                        };
                        let what = format!("{case}, {when}: {stored:?} answering {axes:?}");
                        assert_eq!(agg.answers(&q), *answered, "{what}");
                        if *answered {
                            let live = engine.query(&cube, &q).unwrap();
                            assert_same_cells(&agg.execute(&q).unwrap(), &live, &what);
                        }
                    }
                }
            };
            check(&aggs, "built");
            // an INSERT of no rows: no columns either
            let nothing = Batch::from_rows(0, vec![]).unwrap();
            for agg in &mut aggs {
                assert_eq!(
                    agg.apply_delta("f", &nothing),
                    DeltaOutcome::Folded,
                    "{case}"
                );
            }
            for (i, keys) in deltas.iter().enumerate() {
                let rows: Vec<Vec<Value>> = (keys.iter().zip(0..))
                    .map(|(k, j)| {
                        let mut row = fact(10_000 + 10 * i as i64 + j);
                        row[1] = k.clone();
                        row
                    })
                    .collect();
                for row in &rows {
                    let mut stored = row.clone();
                    stored[1] = stored[1].as_i64().map_or(Value::Null, Value::Int);
                    db.insert("f", stored).unwrap();
                }
                let delta = Batch::from_rows(6, rows).unwrap();
                for agg in &mut aggs {
                    assert_eq!(agg.apply_delta("f", &delta), DeltaOutcome::Folded, "{case}");
                }
            }
            check(&aggs, "after folds");
        }
    }

    // ------------------------------------------------ data set views

    fn view_db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE dim (k INT, region TEXT);
                 INSERT INTO dim VALUES (1, 'EU'), (2, 'US'), (3, 'EU'), (NULL, 'none');
                 CREATE TABLE f (id INT, k INT, amount INT, tag TEXT);
                 INSERT INTO f VALUES (1, 1, 10, 'a'), (2, 2, 20, 'b'), (3, NULL, 30, 'a');",
            )
            .unwrap();
        db
    }

    #[test]
    fn a_view_refuses_each_clause_it_cannot_keep() {
        let db = view_db();
        for (sql, clause) in [
            ("SELECT k, COUNT(*) FROM f WHERE amount > 1 GROUP BY k ORDER BY k", "WHERE"),
            (
                "SELECT d.region, COUNT(*) FROM f LEFT JOIN dim d ON f.k = d.k \
                 GROUP BY d.region ORDER BY d.region",
                "LEFT JOIN",
            ),
            (
                "SELECT k, COUNT(DISTINCT tag) FROM f GROUP BY k ORDER BY k",
                "DISTINCT aggregate",
            ),
            ("SELECT COUNT(*), SUM(amount) FROM f", "no GROUP BY"),
            ("SELECT id, amount FROM f ORDER BY id", "no GROUP BY"),
            (
                "SELECT k, tag, SUM(amount) FROM f GROUP BY k, tag ORDER BY k",
                "ORDER BY",
            ),
            (
                "SELECT k, SUM(amount) FROM f GROUP BY k ORDER BY SUM(amount)",
                "ORDER BY",
            ),
            ("SELECT k, SUM(amount) FROM f GROUP BY k", "ORDER BY"),
            (
                "SELECT k % 2, COUNT(*) FROM f GROUP BY k % 2 ORDER BY k % 2",
                "GROUP BY expression",
            ),
            (
                "SELECT k, SUM(amount * 2) FROM f GROUP BY k ORDER BY k",
                "aggregate over an expression",
            ),
            (
                "SELECT d.region, COUNT(*) FROM f JOIN dim d ON f.k = d.k AND d.region <> 'x' \
                 GROUP BY d.region ORDER BY d.region",
                "join condition",
            ),
            (
                "SELECT g.tag, COUNT(*) FROM f JOIN f g ON f.id = g.id GROUP BY g.tag ORDER BY g.tag",
                "self-join",
            ),
            ("SELECT k FROM nowhere GROUP BY k ORDER BY k", "nowhere"),
        ] {
            let refused = DatasetView::build(&db, "d", sql).unwrap_err();
            assert!(refused.contains(clause), "{sql}: {refused}");
        }
    }

    /// A view answers what its SQL does: built, after a fold of a
    /// multi-row insert with a NULL and an unmatched key, and after its
    /// rebuild over a dimension whose columns moved.
    #[test]
    fn a_view_answers_its_sql_through_the_plan_above_its_aggregation() {
        let db = view_db();
        let engine = Engine::new();
        let sqls = [
            "SELECT d.region, COUNT(*) AS n, SUM(f.amount) AS s, AVG(f.amount) AS m, \
             MIN(f.tag) AS lo, MAX(d.k) AS hi FROM f JOIN dim d ON d.k = f.k \
             GROUP BY d.region HAVING COUNT(*) > 0 ORDER BY d.region DESC",
            "SELECT tag, SUM(amount) AS s, COUNT(k) * 10 AS c FROM f \
             GROUP BY tag ORDER BY s DESC, tag LIMIT 2",
        ];
        let mut cache = AggregateCache::new();
        for (i, sql) in sqls.iter().enumerate() {
            cache.add_view(DatasetView::build(&db, &format!("v{i}"), sql).unwrap());
        }
        let check = |cache: &AggregateCache, when: &str| {
            for (i, sql) in sqls.iter().enumerate() {
                let view = cache.view(&format!("v{i}"), sql).expect(when);
                let (columns, batch) = engine.execute_plan(&db, &view.answer().unwrap()).unwrap();
                let live = engine.execute(&db, sql).unwrap();
                assert_eq!(columns, live.columns, "{when}: {sql}");
                assert_eq!(batch.to_rows(), live.rows, "{when}: {sql}");
            }
        };
        check(&cache, "built");
        let rows = vec![
            vec![4.into(), 3.into(), 7.into(), "c".into()],
            vec![5.into(), Value::Null, 8.into(), "a".into()],
            vec![6.into(), 9.into(), 9.into(), Value::Null],
        ];
        for row in &rows {
            db.insert("f", row.clone()).unwrap();
        }
        let insert = TableDelta::Insert {
            table: "f".into(),
            rows,
        };
        let r = cache.apply_deltas(&db, vec![insert], |_| false);
        assert_eq!((r.folded, r.rebuilt, r.dropped), (2, 0, 0));
        check(&cache, "after a fold");
        Engine::new()
            .execute_script(
                &db,
                "DROP TABLE dim; CREATE TABLE dim (region TEXT, k INT);
                 INSERT INTO dim VALUES ('APAC', 1), ('US', 3);",
            )
            .unwrap();
        let replaced = ["dim", "dim"].map(|t| TableDelta::Mutate { table: t.into() });
        let r = cache.apply_deltas(&db, replaced.to_vec(), |_| false);
        assert_eq!((r.folded, r.rebuilt, r.dropped), (0, 1, 0));
        check(&cache, "after the dimension moved its columns");
    }
}
