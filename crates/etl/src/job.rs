//! ETL jobs: extract → transform → load, with two execution modes.

use std::sync::Arc;
use std::time::Instant;

use odbis_sql::Engine;
use odbis_storage::{Column, Database, DbError, Schema, Value};

use crate::frame::{parse_csv, Frame};
use crate::transform::Transform;
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

/// How the transform chain executes (ablation A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Materialize the full frame after every operator.
    OperatorAtATime,
    /// Fuse consecutive row-local operators into one pass per row;
    /// blocking operators (aggregate, deduplicate) cut the pipeline.
    #[default]
    FusedPipeline,
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
    /// Execution mode (fused by default).
    pub mode: ExecutionMode,
}

impl JobRunner {
    /// Runner over a database.
    pub fn new(db: Arc<Database>) -> Self {
        JobRunner {
            db,
            engine: Engine::new(),
            mode: ExecutionMode::default(),
        }
    }

    /// Runner with an explicit execution mode.
    pub fn with_mode(db: Arc<Database>, mode: ExecutionMode) -> Self {
        JobRunner {
            db,
            engine: Engine::new(),
            mode,
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
        let frame = match self.mode {
            ExecutionMode::OperatorAtATime => {
                let mut f = frame;
                for t in &job.transforms {
                    f = t.apply(f, &self.db, &mut rejects)?;
                }
                f
            }
            ExecutionMode::FusedPipeline => self.run_fused(frame, &job.transforms, &mut rejects)?,
        };
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

    /// Fused execution: split the chain at blocking operators; within each
    /// segment of row-local operators, each row flows through the whole
    /// segment before the next row is touched (no intermediate frames).
    fn run_fused(
        &self,
        frame: Frame,
        transforms: &[Transform],
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<Frame, EtlError> {
        let mut current = frame;
        let mut i = 0;
        while i < transforms.len() {
            if transforms[i].is_row_local() {
                // collect the maximal run of row-local operators
                let mut j = i;
                while j < transforms.len() && transforms[j].is_row_local() {
                    j += 1;
                }
                current = self.fuse_segment(current, &transforms[i..j], rejects)?;
                i = j;
            } else {
                current = transforms[i].apply(current, &self.db, rejects)?;
                i += 1;
            }
        }
        Ok(current)
    }

    /// Execute a run of row-local transforms one row at a time.
    ///
    /// Each operator is compiled *once* against the evolving header
    /// (expressions bound, column positions and lookup maps resolved);
    /// every row then streams through the compiled chain without any
    /// intermediate frame materialization — the whole point of fusion.
    fn fuse_segment(
        &self,
        frame: Frame,
        segment: &[Transform],
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<Frame, EtlError> {
        let (ops, out_columns) =
            crate::transform::compile_segment(segment, frame.columns.clone(), &self.db)?;
        let mut out = Frame::new(out_columns);
        'rows: for mut row in frame.rows {
            for op in &ops {
                match op.apply_row(&mut row)? {
                    crate::transform::RowOutcome::Keep => {}
                    crate::transform::RowOutcome::Drop => continue 'rows,
                    crate::transform::RowOutcome::Reject => {
                        rejects.push(row);
                        continue 'rows;
                    }
                }
            }
            out.rows.push(row);
        }
        Ok(out)
    }

    fn load(
        &self,
        loader: &Loader,
        frame: &Frame,
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<usize, EtlError> {
        if !self.db.has_table(&loader.table) {
            // derive the target schema from the frame: type from the first
            // non-null value per column, defaulting to TEXT
            let cols: Vec<Column> = frame
                .columns
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let ty = frame
                        .rows
                        .iter()
                        .find_map(|r| r[i].data_type())
                        .unwrap_or(odbis_storage::DataType::Text);
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
    use crate::transform::AggOp;

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
    fn both_execution_modes_agree() {
        let db1 = Arc::new(Database::new());
        let db2 = Arc::new(Database::new());
        let mut job = sample_job();
        job.transforms.push(Transform::Aggregate {
            group_by: vec!["region".into()],
            aggs: vec![(AggOp::Sum, "amount_eur".into(), "total".into())],
        });
        let r1 = JobRunner::with_mode(Arc::clone(&db1), ExecutionMode::OperatorAtATime)
            .run(&job)
            .unwrap();
        let r2 = JobRunner::with_mode(Arc::clone(&db2), ExecutionMode::FusedPipeline)
            .run(&job)
            .unwrap();
        assert_eq!(r1.loaded, r2.loaded);
        assert_eq!(
            db1.scan("clean_orders").unwrap(),
            db2.scan("clean_orders").unwrap()
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
