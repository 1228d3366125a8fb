//! Materialized aggregates (ablation A2): pre-computed roll-ups that
//! answer matching cube queries without touching the fact table.
//!
//! Since the streaming-BI change the aggregates are *incrementally
//! maintained*: [`MaterializedAggregate::apply_delta`] folds inserted fact
//! rows straight into the stored cells (SUM/COUNT/MIN/MAX directly, AVG as
//! an internal SUM+COUNT pair), so a warehouse write costs one cell update
//! instead of a full rebuild. Writes a fold cannot express — updates,
//! deletes, truncates, dimension-table changes — mark the aggregate stale
//! and it is rebuilt from the engine.
//!
//! What a fold reads besides the inserted rows — the fact column or the
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

use odbis_storage::{Batch, Database, Schema, Value};

use crate::cube::{
    Aggregator, CellSet, CubeDef, CubeEngine, CubeQuery, DimensionDef, LevelRef, MeasureDef,
};
use crate::OlapError;

/// One stored accumulator: the internal representation of a measure in a
/// cell. AVG keeps its SUM+COUNT decomposition so inserts can fold into
/// it; everything else stores the aggregate value directly.
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
    /// The accumulator a brand-new (delta-created) cell starts from,
    /// mirroring what the SQL engine reports for a group with no non-null
    /// inputs: COUNT = 0, SUM/MIN/MAX/AVG = NULL.
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

    /// Fold one inserted fact value into the accumulator. NULL inputs
    /// never fold (COUNT skips them, SUM/MIN/MAX/AVG ignore them) — they
    /// only contributed to the group's existence, which the caller has
    /// already recorded by creating the cell.
    fn fold(&mut self, agg: Aggregator, v: Value) {
        if v.is_null() {
            return;
        }
        match (self, agg) {
            (CellAcc::AvgPair { sum, count }, _) => {
                add_into(sum, &v);
                *count += 1;
            }
            (CellAcc::Plain(p), Aggregator::Count) => {
                *p = match p {
                    Value::Int(n) => Value::Int(*n + 1),
                    _ => Value::Int(1),
                };
            }
            (CellAcc::Plain(p), Aggregator::Sum) => add_into(p, &v),
            (CellAcc::Plain(p), Aggregator::Min) => {
                if p.is_null() || v < *p {
                    *p = v;
                }
            }
            (CellAcc::Plain(p), Aggregator::Max) => {
                if p.is_null() || v > *p {
                    *p = v;
                }
            }
            // AVG is always an AvgPair; unreachable but harmless.
            (CellAcc::Plain(_), Aggregator::Avg) => {}
        }
    }
}

/// `p += v` with the engine's numeric semantics: Int+Int stays Int until
/// it would overflow (then promotes to Float, like the executor's
/// checked-add accumulator), everything else adds as f64.
fn add_into(p: &mut Value, v: &Value) {
    *p = match (&*p, v) {
        (Value::Null, _) => v.clone(),
        (Value::Int(a), Value::Int(b)) => a
            .checked_add(*b)
            .map(Value::Int)
            .unwrap_or(Value::Float(*a as f64 + *b as f64)),
        _ => match (p.as_f64(), v.as_f64()) {
            (Some(a), Some(b)) => Value::Float(a + b),
            _ => p.clone(),
        },
    };
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

/// How one axis coordinate is read off an inserted fact row.
#[derive(Debug, Clone)]
enum AxisSrc {
    /// Degenerate level: the fact column's index.
    Fact(usize),
    /// Snowflaked level: value `col` of a member of `FoldPlan::joins[join]`.
    Dim { join: usize, col: usize },
}

/// One snowflaked dimension the aggregate joins, as the fold probes it.
#[derive(Debug, Clone)]
struct DimJoin {
    /// Fact column holding the foreign key.
    fk: usize,
    /// Values per member: one per axis that reads this dimension.
    width: usize,
    /// Dimension key → the level values of every dimension row with that
    /// key, `width` per row, back to back. NULL keys are left out: the
    /// inner join never matches them.
    members: HashMap<Value, Vec<Value>>,
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
    /// Fact column of each stored measure.
    measure_cols: Vec<usize>,
    /// The accumulators a delta-created cell starts from.
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
        let invalid = |e: odbis_storage::DbError| OlapError::Invalid(e.to_string());
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
            let mut members: HashMap<Value, Vec<Value>> =
                HashMap::with_capacity(chunks.iter().map(Batch::num_rows).sum());
            for m in chunks {
                for r in 0..m.num_rows() {
                    let k = m.value(0, r);
                    if k.is_null() {
                        continue;
                    }
                    let member = (1..projection.len()).map(|c| m.value(c, r));
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
                width: cols.len(),
                members,
            });
        }
        let measure_cols = measures
            .iter()
            .map(|(name, _)| index(&schema, &def.measure(name)?.column, "measure column"))
            .collect::<Result<Vec<usize>, OlapError>>()?;
        Ok(FoldPlan {
            tables,
            arity: schema.columns().len(),
            axes: srcs,
            joins: plan_joins,
            measure_cols,
            empty: measures
                .iter()
                .map(|(_, agg)| CellAcc::empty(*agg))
                .collect(),
        })
    }
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
    /// further roll-up is valid: AVG/COUNT-DISTINCT style measures are not
    /// re-aggregable here).
    pub measures: Vec<(String, Aggregator)>,
    /// The defining cube, retained so stale cells can be rebuilt without
    /// a registry lookup.
    def: CubeDef,
    cells: HashMap<Vec<Value>, Vec<CellAcc>>,
    /// Resolved together with `cells`; exact whenever the aggregate is
    /// fresh, because every write to a table in `plan.tables` either folds
    /// (a fact insert) or makes the aggregate stale.
    plan: FoldPlan,
    stale: bool,
}

impl MaterializedAggregate {
    /// Build by executing the aggregation once through the engine. AVG
    /// measures are fetched as their SUM+COUNT decomposition so the
    /// stored cells stay delta-maintainable. The fold plan is resolved
    /// from the same warehouse in the same build window.
    pub fn build(
        engine: &CubeEngine,
        cube: &CubeDef,
        axes: Vec<LevelRef>,
        measure_names: Vec<String>,
    ) -> Result<Self, OlapError> {
        let measures: Result<Vec<(String, Aggregator)>, OlapError> = measure_names
            .iter()
            .map(|m| cube.measure(m).map(|md| (md.name.clone(), md.aggregator)))
            .collect();
        let measures = measures?;
        let plan = FoldPlan::resolve(engine.database(), cube, &axes, &measures)?;
        let cells = build_cells(engine, cube, &axes, &measures)?;
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

    /// Re-run the defining aggregation, re-resolve the fold plan, and
    /// replace both.
    pub fn rebuild(&mut self, engine: &CubeEngine) -> Result<(), OlapError> {
        self.plan = FoldPlan::resolve(engine.database(), &self.def, &self.axes, &self.measures)?;
        self.cells = build_cells(engine, &self.def, &self.axes, &self.measures)?;
        self.stale = false;
        Ok(())
    }

    /// Fold a batch of rows inserted into `table` into the stored cells.
    ///
    /// A fold reads only the inserted rows and the fold plan resolved at
    /// the last build: each snowflaked axis probes its key → members map,
    /// so it costs O(delta rows), whatever the size of the dimensions.
    ///
    /// Returns [`DeltaOutcome::Folded`] when the cells now reflect the
    /// insert, [`DeltaOutcome::NeedsRebuild`] when the write touches a
    /// dependent table but cannot be folded (dimension-table insert, a
    /// row of the wrong width, or the aggregate is already stale), and
    /// [`DeltaOutcome::Unrelated`] when the write cannot affect the cells
    /// at all — the scoped invalidation that lets unrelated cubes survive
    /// a load.
    ///
    /// A row folds as the ROLAP SQL's inner joins see it: a foreign key
    /// that is NULL or has no dimension row hides the row (from any later
    /// rebuild too), and a key shared by several dimension rows folds the
    /// row once per combination of matching members.
    pub fn apply_delta(&mut self, table: &str, rows: &Batch) -> DeltaOutcome {
        if !table.eq_ignore_ascii_case(&self.def.fact_table) {
            return if self.depends_on(table) {
                DeltaOutcome::NeedsRebuild
            } else {
                DeltaOutcome::Unrelated
            };
        }
        let plan = &self.plan;
        if self.stale || (rows.num_rows() > 0 && rows.num_columns() != plan.arity) {
            return DeltaOutcome::NeedsRebuild;
        }
        // per join: the matching members of the current row, and which
        // of them the current combination takes
        let mut hits: Vec<&[Value]> = Vec::with_capacity(plan.joins.len());
        let mut pick = vec![0usize; plan.joins.len()];
        'rows: for r in 0..rows.num_rows() {
            hits.clear();
            for j in &plan.joins {
                match j.members.get(&rows.value(j.fk, r)) {
                    Some(m) => hits.push(m),
                    None => continue 'rows,
                }
            }
            pick.fill(0);
            loop {
                let key = plan
                    .axes
                    .iter()
                    .map(|a| match *a {
                        AxisSrc::Fact(i) => rows.value(i, r),
                        AxisSrc::Dim { join, col } => {
                            hits[join][pick[join] * plan.joins[join].width + col].clone()
                        }
                    })
                    .collect();
                let cell = self.cells.entry(key).or_insert_with(|| plan.empty.clone());
                for (acc, ((_, agg), &col)) in cell
                    .iter_mut()
                    .zip(self.measures.iter().zip(&plan.measure_cols))
                {
                    acc.fold(*agg, rows.value(col, r));
                }
                // the next combination, odometer-style; done after the last
                let mut j = 0;
                while j < pick.len() {
                    pick[j] += 1;
                    if pick[j] * plan.joins[j].width < hits[j].len() {
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
        DeltaOutcome::Folded
    }

    /// Can this aggregate answer `query` exactly?
    ///
    /// Conditions: same cube axes as a prefix-set (every query axis is one
    /// of ours), every slice level is one of our axes, every requested
    /// measure is stored, and — when the query needs a further roll-up
    /// (fewer axes than stored) — all measures are SUM/COUNT/MIN/MAX
    /// (AVG cannot be re-aggregated from per-group AVGs).
    pub fn answers(&self, query: &CubeQuery) -> bool {
        let has_axis = |lr: &LevelRef| {
            self.axes.iter().any(|a| {
                a.dimension.eq_ignore_ascii_case(&lr.dimension)
                    && a.level.eq_ignore_ascii_case(&lr.level)
            })
        };
        if !query.axes.iter().all(has_axis) {
            return false;
        }
        if !query.slices.iter().all(|s| has_axis(&s.level)) {
            return false;
        }
        let measure_ok = |name: &String| {
            self.measures
                .iter()
                .any(|(m, _)| m.eq_ignore_ascii_case(name))
        };
        if !query.measures.iter().all(measure_ok) {
            return false;
        }
        let needs_rollup = query.axes.len() < self.axes.len() || !query.slices.is_empty();
        if needs_rollup {
            query.measures.iter().all(|name| {
                self.measures
                    .iter()
                    .find(|(m, _)| m.eq_ignore_ascii_case(name))
                    .is_some_and(|(_, agg)| {
                        matches!(
                            agg,
                            Aggregator::Sum | Aggregator::Count | Aggregator::Min | Aggregator::Max
                        )
                    })
            })
        } else {
            true
        }
    }

    /// Answer a query from the materialized cells (must satisfy
    /// [`MaterializedAggregate::answers`]).
    pub fn execute(&self, query: &CubeQuery) -> Result<CellSet, OlapError> {
        if !self.answers(query) {
            return Err(OlapError::Invalid(
                "aggregate does not cover this query".into(),
            ));
        }
        let axis_pos: Vec<usize> = query
            .axes
            .iter()
            .map(|lr| {
                self.axes
                    .iter()
                    .position(|a| {
                        a.dimension.eq_ignore_ascii_case(&lr.dimension)
                            && a.level.eq_ignore_ascii_case(&lr.level)
                    })
                    .expect("answers() checked")
            })
            .collect();
        let slice_pos: Vec<(usize, &Value)> = query
            .slices
            .iter()
            .map(|s| {
                (
                    self.axes
                        .iter()
                        .position(|a| {
                            a.dimension.eq_ignore_ascii_case(&s.level.dimension)
                                && a.level.eq_ignore_ascii_case(&s.level.level)
                        })
                        .expect("answers() checked"),
                    &s.member,
                )
            })
            .collect();
        let measure_pos: Vec<(usize, Aggregator)> = query
            .measures
            .iter()
            .map(|name| {
                let i = self
                    .measures
                    .iter()
                    .position(|(m, _)| m.eq_ignore_ascii_case(name))
                    .expect("answers() checked");
                (i, self.measures[i].1)
            })
            .collect();

        // roll up stored cells onto the requested axes
        let mut grouped: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
        for (coords, ms) in &self.cells {
            if !slice_pos.iter().all(|(i, v)| &coords[*i] == *v) {
                continue;
            }
            let key: Vec<Value> = axis_pos.iter().map(|&i| coords[i].clone()).collect();
            let entry = grouped.entry(key).or_insert_with(|| {
                measure_pos
                    .iter()
                    .map(|(_, agg)| match agg {
                        Aggregator::Sum | Aggregator::Count => Value::Null,
                        Aggregator::Min | Aggregator::Max => Value::Null,
                        Aggregator::Avg => Value::Null,
                    })
                    .collect()
            });
            for (out, (mi, agg)) in entry.iter_mut().zip(&measure_pos) {
                let v = ms[*mi].render();
                if v.is_null() {
                    continue;
                }
                *out = match (agg, &*out) {
                    (_, Value::Null) => v.clone(),
                    (Aggregator::Sum | Aggregator::Count, prev) => {
                        match (prev.as_f64(), v.as_f64()) {
                            (Some(a), Some(b)) => {
                                if matches!((prev, &v), (Value::Int(_), Value::Int(_))) {
                                    Value::Int(prev.as_i64().unwrap() + v.as_i64().unwrap())
                                } else {
                                    Value::Float(a + b)
                                }
                            }
                            _ => prev.clone(),
                        }
                    }
                    (Aggregator::Min, prev) => {
                        if v < *prev {
                            v.clone()
                        } else {
                            prev.clone()
                        }
                    }
                    (Aggregator::Max, prev) => {
                        if v > *prev {
                            v.clone()
                        } else {
                            prev.clone()
                        }
                    }
                    // answers() refuses AVG roll-ups, but a query whose key
                    // still collapses distinct stored cells (e.g. duplicate
                    // axes) can reach a merge; surface it instead of
                    // silently keeping the first-seen value. (The internal
                    // SUM+COUNT pair could express it, but the cache's
                    // roll-up contract for AVG is pinned to refuse.)
                    (Aggregator::Avg, _) => {
                        return Err(OlapError::Invalid(format!(
                            "measure {} (AVG) cannot be re-aggregated from materialized cells",
                            self.measures[*mi].0
                        )))
                    }
                };
            }
        }
        let mut cells: Vec<(Vec<Value>, Vec<Value>)> = grouped.into_iter().collect();
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

/// Execute the defining aggregation and store the result as accumulator
/// cells. AVG measures query their SUM+COUNT decomposition (two synthetic
/// measures on the same column) in one pass so the pair is consistent.
fn build_cells(
    engine: &CubeEngine,
    def: &CubeDef,
    axes: &[LevelRef],
    measures: &[(String, Aggregator)],
) -> Result<HashMap<Vec<Value>, Vec<CellAcc>>, OlapError> {
    let mut qcube = def.clone();
    let mut qnames = Vec::new();
    for (name, agg) in measures {
        if matches!(agg, Aggregator::Avg) {
            let column = def.measure(name)?.column.clone();
            for (suffix, sub) in [("isum", Aggregator::Sum), ("icnt", Aggregator::Count)] {
                let qname = format!("{name}__{suffix}");
                qcube.measures.push(MeasureDef {
                    name: qname.clone(),
                    column: column.clone(),
                    aggregator: sub,
                });
                qnames.push(qname);
            }
        } else {
            qnames.push(name.clone());
        }
    }
    let cs = engine.query(
        &qcube,
        &CubeQuery {
            axes: axes.to_vec(),
            slices: vec![],
            measures: qnames,
        },
    )?;
    let mut cells = HashMap::with_capacity(cs.cells.len());
    for (coords, vals) in cs.cells {
        let mut it = vals.into_iter();
        let mut accs = Vec::with_capacity(measures.len());
        for (_, agg) in measures {
            if matches!(agg, Aggregator::Avg) {
                let sum = it.next().unwrap_or(Value::Null);
                let count = it.next().and_then(|v| v.as_i64()).unwrap_or(0);
                accs.push(CellAcc::AvgPair { sum, count });
            } else {
                accs.push(CellAcc::Plain(it.next().unwrap_or(Value::Null)));
            }
        }
        cells.insert(coords, accs);
    }
    Ok(cells)
}

/// What one [`AggregateCache::apply_deltas`] call did, for telemetry and
/// tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Insert deltas folded in place, counted once per aggregate.
    pub folded: usize,
    /// Aggregates rebuilt from the engine (stale, or fold impossible).
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

    /// Drop every aggregate (the pre-streaming invalidation hammer, still
    /// used when the warehouse is rebuilt wholesale).
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
        engine: &CubeEngine,
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
            if a.rebuild(engine).is_err() {
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
    use crate::cube::Slice;
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
            &engine,
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
            &engine,
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
            &engine,
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
        cube.measures.push(crate::cube::MeasureDef {
            name: "avg_amount".into(),
            column: "amount".into(),
            aggregator: Aggregator::Avg,
        });
        let axes = vec![
            LevelRef::new("time", "year"),
            LevelRef::new("store", "region"),
        ];
        let agg =
            MaterializedAggregate::build(&engine, &cube, axes.clone(), vec!["avg_amount".into()])
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
        // Axes [year, year] pass answers() (same arity, every axis covered)
        // but collapse distinct (year, region) cells onto one key, forcing
        // a merge AVG cannot express — 2009 has both EU and US cells. This
        // must be a structured error, not a silent first-seen value.
        let engine = engine();
        let mut cube = sales_cube();
        cube.measures.push(crate::cube::MeasureDef {
            name: "avg_amount".into(),
            column: "amount".into(),
            aggregator: Aggregator::Avg,
        });
        let agg = MaterializedAggregate::build(
            &engine,
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
        assert!(agg.answers(&q));
        assert!(matches!(agg.execute(&q), Err(OlapError::Invalid(_))));
    }

    #[test]
    fn cache_answers_covered_queries_only() {
        let engine = engine();
        let cube = sales_cube();
        let mut cache = AggregateCache::new();
        cache.add(
            MaterializedAggregate::build(
                &engine,
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
    fn insert_delta_matches_rebuild_across_snowflake_and_degenerate_axes() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(Arc::clone(&db));
        let cube = sales_cube();
        let axes = vec![
            LevelRef::new("time", "year"),
            LevelRef::new("store", "region"),
        ];
        let mut agg = MaterializedAggregate::build(
            &engine,
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
        let rebuilt = MaterializedAggregate::build(
            &engine,
            &cube,
            axes.clone(),
            vec!["revenue".into(), "units".into()],
        )
        .unwrap();
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures: vec!["revenue".into(), "units".into()],
        };
        assert_eq!(
            agg.execute(&q).unwrap().cells,
            rebuilt.execute(&q).unwrap().cells
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
        let mut agg =
            MaterializedAggregate::build(&engine, &cube, axes.clone(), vec!["avg_amount".into()])
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
        let mut agg =
            MaterializedAggregate::build(&engine, &cube, axes.clone(), vec!["revenue".into()])
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
        use crate::cube::{DimensionDef, LevelDef};
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
            &engine,
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
            &engine,
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
                &engine,
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
        let r = cache.apply_deltas(&engine, vec![unrelated], |_| false);
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
        let r = cache.apply_deltas(&engine, vec![mutate], |_| false);
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
                &engine,
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
        let r = cache.apply_deltas(&engine, batch, |_| false);
        assert_eq!((r.folded, r.rebuilt), (0, 1));
        assert_eq!(
            cache.try_answer("sales", &q).unwrap().cells,
            engine.query(&cube, &q).unwrap().cells
        );

        // row 6 is in the table the rebuild reads, its delta is not
        let late = insert(6);
        let r = cache.apply_deltas(&engine, vec![mutate()], |t| t == "fact_sales");
        assert_eq!(r.rebuilt, 1);
        assert!(
            cache.try_answer("sales", &q).is_none(),
            "stale, not doubled"
        );
        let r = cache.apply_deltas(&engine, vec![late], |_| false);
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
                &engine,
                &cube,
                vec![LevelRef::new("store", "region")],
                vec!["revenue".into()],
            )
            .unwrap(),
        );
        let drop = TableDelta::Drop {
            table: "fact_sales".into(),
        };
        let r = cache.apply_deltas(&engine, vec![drop], |_| false);
        assert_eq!(r.dropped, 1);
        assert!(cache.is_empty());
    }
}
