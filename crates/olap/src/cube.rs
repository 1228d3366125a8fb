//! Cube definitions and the aggregation engine.

use std::sync::Arc;

use odbis_sql::Engine;
use odbis_storage::{Database, Value};

use crate::OlapError;

/// A measure's aggregator (the CWM OLAP `Measure` aggregator enum) is the
/// SQL aggregate function: a cube cell is what that SQL aggregate answers.
pub use odbis_sql::ast::AggFunc as Aggregator;

/// A measure: an aggregated fact column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureDef {
    /// Measure name (e.g. `revenue`).
    pub name: String,
    /// Fact-table column.
    pub column: String,
    /// Aggregation function.
    pub aggregator: Aggregator,
}

/// One level of a dimension hierarchy, coarse → fine order within the
/// dimension (e.g. `year` before `month`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelDef {
    /// Level name (e.g. `year`).
    pub name: String,
    /// Column holding the level member (on the dimension table, or on the
    /// fact table for degenerate dimensions).
    pub column: String,
}

/// A dimension: either snowflaked out to a dimension table joined by a
/// foreign key, or degenerate (its level columns live on the fact table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionDef {
    /// Dimension name (e.g. `time`, `department`).
    pub name: String,
    /// Dimension table; `None` for degenerate dimensions.
    pub table: Option<String>,
    /// Fact-table foreign-key column (ignored for degenerate dimensions).
    pub fact_fk: String,
    /// Dimension-table key column (ignored for degenerate dimensions).
    pub dim_key: String,
    /// Hierarchy levels, coarse → fine.
    pub levels: Vec<LevelDef>,
}

impl DimensionDef {
    /// Position of a level by name.
    pub fn level_index(&self, level: &str) -> Option<usize> {
        self.levels
            .iter()
            .position(|l| l.name.eq_ignore_ascii_case(level))
    }
}

/// A cube: fact table + dimensions + measures (the AS's "analysis data
/// model (OLAP data cube)" of ODBIS §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CubeDef {
    /// Cube name.
    pub name: String,
    /// Fact table.
    pub fact_table: String,
    /// Dimensions.
    pub dimensions: Vec<DimensionDef>,
    /// Measures.
    pub measures: Vec<MeasureDef>,
}

impl CubeDef {
    /// Find a dimension by name.
    pub fn dimension(&self, name: &str) -> Result<&DimensionDef, OlapError> {
        self.dimensions
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| OlapError::UnknownDimension(name.to_string()))
    }

    /// Find a measure by name.
    pub fn measure(&self, name: &str) -> Result<&MeasureDef, OlapError> {
        self.measures
            .iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| OlapError::UnknownMeasure(name.to_string()))
    }

    /// Validate the cube against the catalog: fact/dimension tables and all
    /// referenced columns must exist.
    pub fn validate(&self, db: &Database) -> Result<(), OlapError> {
        let fact = db
            .table_schema(&self.fact_table)
            .map_err(|e| OlapError::Invalid(e.to_string()))?;
        for m in &self.measures {
            if fact.index_of(&m.column).is_none() {
                return Err(OlapError::Invalid(format!(
                    "measure {} references missing fact column {}",
                    m.name, m.column
                )));
            }
        }
        for d in &self.dimensions {
            match &d.table {
                None => {
                    for l in &d.levels {
                        if fact.index_of(&l.column).is_none() {
                            return Err(OlapError::Invalid(format!(
                                "degenerate level {}.{} missing on fact table",
                                d.name, l.name
                            )));
                        }
                    }
                }
                Some(t) => {
                    let dim = db
                        .table_schema(t)
                        .map_err(|e| OlapError::Invalid(e.to_string()))?;
                    if fact.index_of(&d.fact_fk).is_none() {
                        return Err(OlapError::Invalid(format!(
                            "dimension {} fk {} missing on fact table",
                            d.name, d.fact_fk
                        )));
                    }
                    if dim.index_of(&d.dim_key).is_none() {
                        return Err(OlapError::Invalid(format!(
                            "dimension {} key {} missing on {t}",
                            d.name, d.dim_key
                        )));
                    }
                    for l in &d.levels {
                        if dim.index_of(&l.column).is_none() {
                            return Err(OlapError::Invalid(format!(
                                "level {}.{} missing on {t}",
                                d.name, l.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A `(dimension, level)` coordinate on a query axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRef {
    /// Dimension name.
    pub dimension: String,
    /// Level name.
    pub level: String,
}

impl LevelRef {
    /// Construct from names.
    pub fn new(dimension: impl Into<String>, level: impl Into<String>) -> Self {
        LevelRef {
            dimension: dimension.into(),
            level: level.into(),
        }
    }
}

/// A slice filter: `level member = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Filtered level.
    pub level: LevelRef,
    /// Member value the level must equal.
    pub member: Value,
}

/// A cube query: group by `axes`, filter by `slices`, aggregate `measures`.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeQuery {
    /// Grouping levels, in output order.
    pub axes: Vec<LevelRef>,
    /// Slice/dice filters (ANDed).
    pub slices: Vec<Slice>,
    /// Measure names to compute.
    pub measures: Vec<String>,
}

/// The result of a cube query: coordinates per axis plus measure values.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSet {
    /// Axis headers (`dimension.level`).
    pub axis_names: Vec<String>,
    /// Measure headers.
    pub measure_names: Vec<String>,
    /// One entry per cell: (coordinates, measure values).
    pub cells: Vec<(Vec<Value>, Vec<Value>)>,
}

impl CellSet {
    /// Find a cell by its coordinates.
    pub fn cell(&self, coords: &[Value]) -> Option<&[Value]> {
        self.cells
            .iter()
            .find(|(c, _)| c.as_slice() == coords)
            .map(|(_, m)| m.as_slice())
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cell set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The Analysis Service engine: executes [`CubeQuery`]s by generating SQL
/// over the star schema (dogfooding the platform's own SQL engine, the way
/// a ROLAP server generates SQL against the warehouse).
pub struct CubeEngine {
    db: Arc<Database>,
    engine: Engine,
}

impl CubeEngine {
    /// Engine over a warehouse database.
    pub fn new(db: Arc<Database>) -> Self {
        CubeEngine {
            db,
            engine: Engine::new(),
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Generate the ROLAP SQL for a query (exposed for EXPLAIN-style
    /// inspection and tests).
    pub fn generate_sql(&self, cube: &CubeDef, query: &CubeQuery) -> Result<String, OlapError> {
        let mut select_parts = Vec::new();
        let mut group_parts = Vec::new();
        let mut joins: Vec<String> = Vec::new();
        let mut joined: Vec<&str> = Vec::new();

        let mut resolve = |lr: &LevelRef| -> Result<String, OlapError> {
            let dim = cube.dimension(&lr.dimension)?;
            let level = dim
                .levels
                .iter()
                .find(|l| l.name.eq_ignore_ascii_case(&lr.level))
                .ok_or_else(|| OlapError::UnknownLevel(format!("{}.{}", lr.dimension, lr.level)))?;
            match &dim.table {
                None => Ok(format!("f.{}", level.column)),
                Some(t) => {
                    let alias = format!("d_{}", dim.name);
                    if !joined.contains(&dim.name.as_str()) {
                        joins.push(format!(
                            "JOIN {t} {alias} ON f.{} = {alias}.{}",
                            dim.fact_fk, dim.dim_key
                        ));
                        joined.push(dim.name.as_str());
                    }
                    Ok(format!("{alias}.{}", level.column))
                }
            }
        };

        for axis in &query.axes {
            let col = resolve(axis)?;
            select_parts.push(format!("{col} AS {}_{}", axis.dimension, axis.level));
            group_parts.push(col);
        }
        let mut where_parts = Vec::new();
        for slice in &query.slices {
            let col = resolve(&slice.level)?;
            let lit = match &slice.member {
                Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
                v => v.render(),
            };
            where_parts.push(format!("{col} = {lit}"));
        }
        for mname in &query.measures {
            let m = cube.measure(mname)?;
            select_parts.push(format!(
                "{}(f.{}) AS {}",
                m.aggregator.name(),
                m.column,
                m.name
            ));
        }
        if select_parts.is_empty() {
            return Err(OlapError::Invalid("query selects nothing".into()));
        }
        let mut sql = format!(
            "SELECT {} FROM {} f",
            select_parts.join(", "),
            cube.fact_table
        );
        for j in &joins {
            sql.push(' ');
            sql.push_str(j);
        }
        if !where_parts.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&where_parts.join(" AND "));
        }
        if !group_parts.is_empty() {
            sql.push_str(" GROUP BY ");
            sql.push_str(&group_parts.join(", "));
            sql.push_str(" ORDER BY ");
            sql.push_str(&group_parts.join(", "));
        }
        Ok(sql)
    }

    /// Execute a cube query.
    ///
    /// The generated SQL runs on the vectorized path and the cell set is
    /// assembled straight from the columnar [`odbis_storage::Batch`] —
    /// coordinates and measures are read column-wise without first
    /// pivoting the whole result to rows.
    pub fn query(&self, cube: &CubeDef, query: &CubeQuery) -> Result<CellSet, OlapError> {
        let mut span = odbis_telemetry::child_span("olap", "cube.query");
        span.set_detail(&cube.name);
        let sql = self.generate_sql(cube, query)?;
        let batch = match self.engine.execute_select_batch(&self.db, &sql) {
            Ok((_, batch)) => batch,
            Err(e) => {
                span.fail();
                return Err(OlapError::Execution(e.to_string()));
            }
        };
        span.set_rows(batch.num_rows() as u64);
        let n_axes = query.axes.len();
        let mut cells = Vec::with_capacity(batch.num_rows());
        for i in 0..batch.num_rows() {
            let coords = (0..n_axes).map(|c| batch.value(c, i)).collect();
            let measures = (n_axes..batch.num_columns())
                .map(|c| batch.value(c, i))
                .collect();
            cells.push((coords, measures));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{sales_cube, sales_db};

    #[test]
    fn validation_catches_bad_references() {
        let db = sales_db();
        let cube = sales_cube();
        cube.validate(&db).unwrap();
        let mut bad = cube.clone();
        bad.measures[0].column = "ghost".into();
        assert!(bad.validate(&db).is_err());
        let mut bad = cube.clone();
        bad.dimensions[0].levels.push(LevelDef {
            name: "nope".into(),
            column: "nope".into(),
        });
        assert!(bad.validate(&db).is_err());
    }

    #[test]
    fn single_axis_rollup() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(db);
        let cube = sales_cube();
        let cs = engine
            .query(
                &cube,
                &CubeQuery {
                    axes: vec![LevelRef::new("store", "region")],
                    slices: vec![],
                    measures: vec!["revenue".into(), "units".into()],
                },
            )
            .unwrap();
        assert_eq!(cs.axis_names, vec!["store.region"]);
        // EU: 10+20+40 = 70 ; US: 30
        assert_eq!(
            cs.cell(&["EU".into()]).unwrap(),
            &[Value::Float(70.0), Value::Int(3)]
        );
        assert_eq!(
            cs.cell(&["US".into()]).unwrap(),
            &[Value::Float(30.0), Value::Int(1)]
        );
    }

    #[test]
    fn two_axes_with_degenerate_time() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(db);
        let cube = sales_cube();
        let cs = engine
            .query(
                &cube,
                &CubeQuery {
                    axes: vec![
                        LevelRef::new("time", "year"),
                        LevelRef::new("store", "region"),
                    ],
                    slices: vec![],
                    measures: vec!["revenue".into()],
                },
            )
            .unwrap();
        assert_eq!(
            cs.cell(&[2009.into(), "EU".into()]).unwrap(),
            &[Value::Float(30.0)]
        );
        assert_eq!(
            cs.cell(&[2010.into(), "EU".into()]).unwrap(),
            &[Value::Float(40.0)]
        );
    }

    #[test]
    fn slicing_restricts_cells() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(db);
        let cube = sales_cube();
        let cs = engine
            .query(
                &cube,
                &CubeQuery {
                    axes: vec![LevelRef::new("store", "city")],
                    slices: vec![Slice {
                        level: LevelRef::new("store", "region"),
                        member: "EU".into(),
                    }],
                    measures: vec!["revenue".into()],
                },
            )
            .unwrap();
        // only EU cities appear
        assert!(cs.cell(&["NYC".into()]).is_none());
        assert_eq!(cs.cell(&["Paris".into()]).unwrap(), &[Value::Float(50.0)]);
    }

    #[test]
    fn generated_sql_is_inspectable() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(db);
        let cube = sales_cube();
        let sql = engine
            .generate_sql(
                &cube,
                &CubeQuery {
                    axes: vec![LevelRef::new("store", "region")],
                    slices: vec![],
                    measures: vec!["revenue".into()],
                },
            )
            .unwrap();
        assert!(sql.contains("JOIN dim_store"));
        assert!(sql.contains("GROUP BY"));
        assert!(sql.contains("SUM(f.amount)"));
    }

    #[test]
    fn unknown_names_error() {
        let db = Arc::new(sales_db());
        let engine = CubeEngine::new(db);
        let cube = sales_cube();
        let q = CubeQuery {
            axes: vec![LevelRef::new("ghost", "x")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        assert!(matches!(
            engine.query(&cube, &q),
            Err(OlapError::UnknownDimension(_))
        ));
        let q = CubeQuery {
            axes: vec![LevelRef::new("store", "ghost")],
            slices: vec![],
            measures: vec![],
        };
        assert!(matches!(
            engine.query(&cube, &q),
            Err(OlapError::UnknownLevel(_))
        ));
        let q = CubeQuery {
            axes: vec![LevelRef::new("store", "region")],
            slices: vec![],
            measures: vec!["ghost".into()],
        };
        assert!(matches!(
            engine.query(&cube, &q),
            Err(OlapError::UnknownMeasure(_))
        ));
    }
}
