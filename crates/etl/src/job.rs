//! ETL jobs: extract → transform → load.

use std::sync::Arc;
use std::time::Instant;

use odbis_sql::Engine;
use odbis_storage::{Column, DataType, Database, DbError, Schema, Value};

use crate::frame::{parse_csv, Frame};
use crate::transform::{compile, Transform};
use crate::EtlError;

/// Where a job reads from.
#[derive(Debug, Clone, PartialEq)]
pub enum Extractor {
    /// Full scan of a table.
    Table(String),
    /// A SQL query.
    Query(String),
    /// Inline CSV text (files, uploads).
    Csv(String),
    /// Inline rows (programmatic sources).
    Inline(Frame),
}

/// How loaded rows land in the target table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Append to existing rows.
    Append,
    /// Truncate the target first.
    Replace,
}

/// Where a job writes to.
#[derive(Debug, Clone, PartialEq)]
pub struct Loader {
    /// Target table (created from the frame header if missing).
    pub table: String,
    /// Append or replace.
    pub mode: LoadMode,
}

/// A named integration job — the Integration Service's unit of work
/// ("an ad-hoc way to define data integration jobs", ODBIS §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct EtlJob {
    /// Job name.
    pub name: String,
    /// Source.
    pub extractor: Extractor,
    /// Transform chain, applied in order.
    pub transforms: Vec<Transform>,
    /// Target.
    pub loader: Loader,
}

/// Outcome of one job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub job: String,
    /// Rows extracted from the source.
    pub extracted: usize,
    /// Rows loaded into the target.
    pub loaded: usize,
    /// Rows quarantined (failed casts or constraint violations).
    pub rejected: usize,
    /// Wall-clock duration of the run.
    pub duration: std::time::Duration,
}

/// Runs ETL jobs against a database.
pub struct JobRunner {
    db: Arc<Database>,
    engine: Engine,
}

impl JobRunner {
    /// Runner over a database.
    pub fn new(db: Arc<Database>) -> Self {
        JobRunner {
            db,
            engine: Engine::new(),
        }
    }

    /// Execute a job end to end.
    pub fn run(&self, job: &EtlJob) -> Result<JobReport, EtlError> {
        let mut span = odbis_telemetry::child_span("etl", "job.run");
        span.set_detail(&job.name);
        let report = self.run_inner(job);
        match &report {
            Ok(r) => span.set_rows((r.extracted + r.loaded) as u64),
            Err(_) => span.fail(),
        }
        report
    }

    fn run_inner(&self, job: &EtlJob) -> Result<JobReport, EtlError> {
        let start = Instant::now();
        let frame = self.extract(&job.extractor)?;
        let extracted = frame.len();
        let mut rejects: Vec<Vec<Value>> = Vec::new();
        let frame =
            compile(&job.transforms, frame.columns, &self.db)?.run(frame.rows, &mut rejects)?;
        let loaded = self.load(&job.loader, &frame, &mut rejects)?;
        Ok(JobReport {
            job: job.name.clone(),
            extracted,
            loaded,
            rejected: rejects.len(),
            duration: start.elapsed(),
        })
    }

    fn extract(&self, extractor: &Extractor) -> Result<Frame, EtlError> {
        match extractor {
            Extractor::Table(name) => {
                let schema = self
                    .db
                    .table_schema(name)
                    .map_err(|e| EtlError::Storage(e.to_string()))?;
                let batch = self
                    .db
                    .scan_batch(name)
                    .map_err(|e| EtlError::Storage(e.to_string()))?;
                Frame::from_batch(
                    schema.columns().iter().map(|c| c.name.clone()).collect(),
                    &batch,
                )
            }
            Extractor::Query(sql) => {
                let r = self
                    .engine
                    .execute(&self.db, sql)
                    .map_err(|e| EtlError::Expression(e.to_string()))?;
                Ok(Frame {
                    columns: r.columns,
                    rows: r.rows,
                })
            }
            Extractor::Csv(text) => parse_csv(text),
            Extractor::Inline(frame) => Ok(frame.clone()),
        }
    }

    fn load(
        &self,
        loader: &Loader,
        frame: &Frame,
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<usize, EtlError> {
        if !self.db.has_table(&loader.table) {
            // derive the target schema from the frame: type from the first
            // non-null value per column, FLOAT where Ints and Floats mix,
            // defaulting to TEXT
            let cols: Vec<Column> = frame
                .columns
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let ty = frame
                        .rows
                        .iter()
                        .filter_map(|r| r[i].data_type())
                        .reduce(|ty, t| match (ty, t) {
                            (DataType::Int, DataType::Float) => DataType::Float,
                            _ => ty,
                        })
                        .unwrap_or(DataType::Text);
                    Column::new(name.clone(), ty)
                })
                .collect();
            let schema = Schema::new(cols).map_err(|e| EtlError::Storage(e.to_string()))?;
            self.db
                .create_table(&loader.table, schema)
                .map_err(|e| EtlError::Storage(e.to_string()))?;
        }
        // one statement: a replace load that the log refuses leaves the
        // old rows in place
        self.db
            .write_table(&loader.table, |t| {
                if loader.mode == LoadMode::Replace {
                    t.truncate();
                }
                let mut loaded = 0usize;
                for row in &frame.rows {
                    match t.insert(row.clone()) {
                        Ok(_) => loaded += 1,
                        Err(_) => rejects.push(row.clone()),
                    }
                }
                Ok::<_, DbError>(loaded)
            })
            .map_err(|e| EtlError::Storage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> EtlJob {
        EtlJob {
            name: "load-orders".into(),
            extractor: Extractor::Csv(
                "id,region,amount\n\
                 1,EU,100\n\
                 2,US,250\n\
                 3,EU,-5\n\
                 4,EU,70\n"
                    .into(),
            ),
            transforms: vec![
                Transform::Filter("amount > 0".into()),
                Transform::Derive {
                    column: "amount_eur".into(),
                    expression: "amount * 0.9".into(),
                },
            ],
            loader: Loader {
                table: "clean_orders".into(),
                mode: LoadMode::Replace,
            },
        }
    }

    #[test]
    fn job_runs_end_to_end() {
        let db = Arc::new(Database::new());
        let runner = JobRunner::new(Arc::clone(&db));
        let report = runner.run(&sample_job()).unwrap();
        assert_eq!(report.extracted, 4);
        assert_eq!(report.loaded, 3);
        assert_eq!(report.rejected, 0);
        assert_eq!(db.row_count("clean_orders").unwrap(), 3);
        let schema = db.table_schema("clean_orders").unwrap();
        assert!(schema.column("amount_eur").is_some());
    }

    #[test]
    fn a_new_column_mixing_ints_and_floats_is_float() {
        let db = Arc::new(Database::new());
        let job = EtlJob {
            name: "mixed".into(),
            extractor: Extractor::Csv("n,m\n1,2.5\n2.5,1\n,3\n".into()),
            transforms: vec![],
            loader: Loader {
                table: "mixed".into(),
                mode: LoadMode::Append,
            },
        };
        let report = JobRunner::new(Arc::clone(&db)).run(&job).unwrap();
        assert_eq!((report.loaded, report.rejected), (3, 0));
        let schema = db.table_schema("mixed").unwrap();
        for c in schema.columns() {
            assert_eq!(c.data_type, DataType::Float, "{}", c.name);
        }
        assert_eq!(
            db.scan("mixed").unwrap()[0],
            vec![Value::Float(1.0), Value::Float(2.5)]
        );
    }

    #[test]
    fn replace_vs_append() {
        let db = Arc::new(Database::new());
        let runner = JobRunner::new(Arc::clone(&db));
        runner.run(&sample_job()).unwrap();
        let mut job = sample_job();
        job.loader.mode = LoadMode::Append;
        runner.run(&job).unwrap();
        assert_eq!(db.row_count("clean_orders").unwrap(), 6);
        runner.run(&sample_job()).unwrap(); // replace
        assert_eq!(db.row_count("clean_orders").unwrap(), 3);
    }

    #[test]
    fn table_and_query_extractors() {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE src (a INT, b INT);
                 INSERT INTO src VALUES (1, 10), (2, 20);",
            )
            .unwrap();
        let runner = JobRunner::new(Arc::clone(&db));
        let job = EtlJob {
            name: "t".into(),
            extractor: Extractor::Table("src".into()),
            transforms: vec![],
            loader: Loader {
                table: "dst1".into(),
                mode: LoadMode::Append,
            },
        };
        assert_eq!(runner.run(&job).unwrap().loaded, 2);
        let job = EtlJob {
            name: "q".into(),
            extractor: Extractor::Query("SELECT a, b * 2 AS b2 FROM src WHERE a > 1".into()),
            transforms: vec![],
            loader: Loader {
                table: "dst2".into(),
                mode: LoadMode::Append,
            },
        };
        assert_eq!(runner.run(&job).unwrap().loaded, 1);
        assert_eq!(
            db.scan("dst2").unwrap()[0],
            vec![Value::Int(2), Value::Int(40)]
        );
    }

    #[test]
    fn constraint_violations_are_quarantined_on_load() {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute(&db, "CREATE TABLE uniq (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let runner = JobRunner::new(Arc::clone(&db));
        let job = EtlJob {
            name: "dups".into(),
            extractor: Extractor::Csv("id,v\n1,a\n1,b\n2,c\n".into()),
            transforms: vec![],
            loader: Loader {
                table: "uniq".into(),
                mode: LoadMode::Append,
            },
        };
        let report = runner.run(&job).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn missing_source_table_is_an_error() {
        let runner = JobRunner::new(Arc::new(Database::new()));
        let job = EtlJob {
            name: "x".into(),
            extractor: Extractor::Table("ghost".into()),
            transforms: vec![],
            loader: Loader {
                table: "y".into(),
                mode: LoadMode::Append,
            },
        };
        assert!(matches!(runner.run(&job), Err(EtlError::Storage(_))));
    }
}
