//! # odbis-olap
//!
//! The Analysis Service (AS) — the ODBIS core BI service that "allows
//! definition of analysis data models (OLAP data cube), data cube
//! visualization and navigation" (§3.1) — plus the data-mining API slot
//! the paper fills with RapidMiner.
//!
//! * [`CubeDef`] — star-schema cubes (snowflaked or degenerate dimensions,
//!   hierarchies, measures), validated against the warehouse catalog;
//! * [`CubeEngine`] — ROLAP execution: cube queries compile to SQL over
//!   the platform's own engine;
//! * [`CubeView`] — stateful navigation: drill-down, roll-up, slice, dice,
//!   pivot;
//! * [`parse_mdx`] — MDX-lite (`SELECT m BY d.l FROM cube WHERE ...`);
//! * [`DatasetView`] / [`AggregateCache`] — maintained GROUP BYs kept
//!   current over warehouse deltas; cells hold the SQL engine's
//!   [`odbis_sql::Accumulator`]s, so a roll-up, AVG included, answers
//!   what the SQL would. A [`MaterializedAggregate`] (ablation A2) is the
//!   view of the SQL [`CubeEngine::generate_sql`] writes for its axes and
//!   measures;
//! * [`mining`] — k-means, linear regression and association rules.

#![warn(missing_docs)]

mod cube;
mod mdx;
pub mod mining;
mod preagg;
mod view;

pub use cube::{
    Aggregator, CellSet, CubeDef, CubeEngine, CubeQuery, DimensionDef, LevelDef, LevelRef,
    MeasureDef, Slice,
};
pub use mdx::{parse_mdx, MdxStatement};
pub use preagg::{
    AggregateCache, DatasetView, DeltaOutcome, DeltaReport, MaterializedAggregate, TableDelta,
};
pub use view::CubeView;

/// Errors raised by the analysis service.
#[derive(Debug, Clone, PartialEq)]
pub enum OlapError {
    /// Unknown dimension name.
    UnknownDimension(String),
    /// Unknown level name.
    UnknownLevel(String),
    /// Unknown measure name.
    UnknownMeasure(String),
    /// Structural problem in a cube definition or query.
    Invalid(String),
    /// SQL execution failure.
    Execution(String),
    /// Navigation beyond hierarchy bounds.
    Navigation(String),
    /// MDX-lite parse error.
    Mdx(String),
    /// Mining input error.
    Mining(String),
}

impl std::fmt::Display for OlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OlapError::UnknownDimension(d) => write!(f, "unknown dimension {d}"),
            OlapError::UnknownLevel(l) => write!(f, "unknown level {l}"),
            OlapError::UnknownMeasure(m) => write!(f, "unknown measure {m}"),
            OlapError::Invalid(m) => write!(f, "invalid cube/query: {m}"),
            OlapError::Execution(m) => write!(f, "execution failed: {m}"),
            OlapError::Navigation(m) => write!(f, "navigation error: {m}"),
            OlapError::Mdx(m) => write!(f, "MDX parse error: {m}"),
            OlapError::Mining(m) => write!(f, "mining error: {m}"),
        }
    }
}

impl std::error::Error for OlapError {}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use odbis_sql::Engine;
    use odbis_storage::Database;

    /// A small star schema: fact_sales + dim_store, degenerate time dim.
    pub fn sales_db() -> Database {
        let db = Database::new();
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE dim_store (store_id INT PRIMARY KEY, region TEXT, country TEXT, city TEXT);
                 CREATE TABLE fact_sales (id INT PRIMARY KEY, store_id INT, year INT, month INT, amount DOUBLE, qty INT);
                 INSERT INTO dim_store VALUES
                   (1, 'EU', 'FR', 'Paris'), (2, 'EU', 'DE', 'Berlin'), (3, 'US', 'US', 'NYC');
                 INSERT INTO fact_sales VALUES
                   (1, 1, 2009, 1, 10, 1),
                   (2, 2, 2009, 2, 20, 1),
                   (3, 3, 2009, 3, 30, 1),
                   (4, 1, 2010, 1, 40, 1);",
            )
            .unwrap();
        db
    }

    /// The cube over [`sales_db`].
    pub fn sales_cube() -> CubeDef {
        CubeDef {
            name: "sales".into(),
            fact_table: "fact_sales".into(),
            dimensions: vec![
                DimensionDef {
                    name: "store".into(),
                    table: Some("dim_store".into()),
                    fact_fk: "store_id".into(),
                    dim_key: "store_id".into(),
                    levels: vec![
                        LevelDef {
                            name: "region".into(),
                            column: "region".into(),
                        },
                        LevelDef {
                            name: "country".into(),
                            column: "country".into(),
                        },
                        LevelDef {
                            name: "city".into(),
                            column: "city".into(),
                        },
                    ],
                },
                DimensionDef {
                    name: "time".into(),
                    table: None,
                    fact_fk: String::new(),
                    dim_key: String::new(),
                    levels: vec![
                        LevelDef {
                            name: "year".into(),
                            column: "year".into(),
                        },
                        LevelDef {
                            name: "month".into(),
                            column: "month".into(),
                        },
                    ],
                },
            ],
            measures: vec![
                MeasureDef {
                    name: "revenue".into(),
                    column: "amount".into(),
                    aggregator: Aggregator::Sum,
                },
                MeasureDef {
                    name: "units".into(),
                    column: "qty".into(),
                    aggregator: Aggregator::Count,
                },
            ],
        }
    }
}
