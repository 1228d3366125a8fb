//! The Meta-Data Service (MDS).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use odbis_sql::{Engine, QueryResult, SqlError, SqlResult};
use odbis_storage::{Batch, Database, DbError};
use parking_lot::RwLock;

use crate::glossary::Glossary;

/// Connection details for a registered data source (ODBIS §3.3:
/// "DataSource objects provide a set of information (URL, User, Password,
/// etc.) used to connect to database servers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSource {
    /// Unique data-source name.
    pub name: String,
    /// Connection URL (e.g. `odbis://warehouse`).
    pub url: String,
    /// Login user.
    pub user: String,
    /// Secret; never rendered by [`DataSource::describe`].
    pub password: String,
    /// Driver identifier.
    pub driver: String,
}

impl DataSource {
    /// Human-readable description with the password redacted.
    pub fn describe(&self) -> String {
        format!(
            "{} ({} via {}, user {})",
            self.name, self.url, self.driver, self.user
        )
    }
}

/// A DataSet: "a SQL query abstraction used by charts, data-tables and
/// dashboards" (ODBIS §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSet {
    /// Unique data-set name.
    pub name: String,
    /// Data source the query runs against.
    pub source: String,
    /// The SQL `SELECT` defining the set.
    pub sql: String,
    /// Business description.
    pub description: String,
}

/// Maintained answers of data sets. A [`MetadataService`] given views
/// ([`MetadataService::set_views`]) asks them for a data set's answer
/// before it runs the set's plan.
pub trait DatasetViews: Send + Sync {
    /// `dataset`'s output column names and rows from a fresh view of
    /// exactly this definition; `None` when there is none, and the plan
    /// runs.
    fn read(&self, dataset: &DataSet) -> Option<SqlResult<(Vec<String>, Batch)>>;

    /// Data set `name` was dropped: stop maintaining its view.
    fn dropped(&self, name: &str);
}

/// Metadata-service errors.
#[derive(Debug, Clone, PartialEq)]
pub enum MetadataError {
    /// Named entity not found.
    NotFound(String),
    /// Entity already defined.
    AlreadyExists(String),
    /// The data set's SQL failed to parse or is not a SELECT.
    InvalidDataSet(String),
    /// Error executing a data set.
    Execution(String),
    /// Storage-level failure.
    Storage(String),
}

impl std::fmt::Display for MetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataError::NotFound(e) => write!(f, "not found: {e}"),
            MetadataError::AlreadyExists(e) => write!(f, "already exists: {e}"),
            MetadataError::InvalidDataSet(e) => write!(f, "invalid data set: {e}"),
            MetadataError::Execution(e) => write!(f, "execution failed: {e}"),
            MetadataError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for MetadataError {}

impl From<SqlError> for MetadataError {
    fn from(e: SqlError) -> Self {
        MetadataError::Execution(e.to_string())
    }
}

impl From<DbError> for MetadataError {
    fn from(e: DbError) -> Self {
        MetadataError::Storage(e.to_string())
    }
}

/// Result alias for MDS operations.
pub type MetadataResult<T> = Result<T, MetadataError>;

/// The Meta-Data Service: the shared definition layer that "allows
/// meta-data and business information definition to facilitate information
/// sharing and exchange between all services" (ODBIS §3.1).
///
/// Data sources are resolved to live [`Database`] handles through an
/// internal connection registry (the JDBC analogue); data sets execute
/// through the SQL engine.
pub struct MetadataService {
    inner: RwLock<Inner>,
    engine: Engine,
    views: OnceLock<Arc<dyn DatasetViews>>,
}

struct Inner {
    sources: BTreeMap<String, DataSource>,
    connections: BTreeMap<String, Arc<Database>>,
    datasets: BTreeMap<String, Defined>,
    glossary: Glossary,
}

/// A defined data set and the tables its SQL reads, lower-cased, sorted
/// and deduplicated, from the statement parsed at definition.
struct Defined {
    set: DataSet,
    tables: Vec<String>,
}

impl Default for MetadataService {
    fn default() -> Self {
        MetadataService::new()
    }
}

impl MetadataService {
    /// Empty service.
    pub fn new() -> Self {
        MetadataService {
            inner: RwLock::new(Inner {
                sources: BTreeMap::new(),
                connections: BTreeMap::new(),
                datasets: BTreeMap::new(),
                glossary: Glossary::new(),
            }),
            engine: Engine::new(),
            views: OnceLock::new(),
        }
    }

    /// Serve data sets from `views` whenever they answer; a service has
    /// one set of views, and a second call is ignored.
    pub fn set_views(&self, views: Arc<dyn DatasetViews>) {
        let _ = self.views.set(views);
    }

    // ---- data sources -------------------------------------------------------

    /// Register a data source and bind it to a live database handle.
    pub fn register_source(
        &self,
        source: DataSource,
        connection: Arc<Database>,
    ) -> MetadataResult<()> {
        let mut inner = self.inner.write();
        if inner.sources.contains_key(&source.name) {
            return Err(MetadataError::AlreadyExists(source.name));
        }
        inner.connections.insert(source.name.clone(), connection);
        inner.sources.insert(source.name.clone(), source);
        Ok(())
    }

    /// Fetch a data source definition.
    pub fn source(&self, name: &str) -> MetadataResult<DataSource> {
        self.inner
            .read()
            .sources
            .get(name)
            .cloned()
            .ok_or_else(|| MetadataError::NotFound(format!("data source {name}")))
    }

    /// Resolve a data source to its database connection.
    pub fn connection(&self, name: &str) -> MetadataResult<Arc<Database>> {
        self.inner
            .read()
            .connections
            .get(name)
            .cloned()
            .ok_or_else(|| MetadataError::NotFound(format!("data source {name}")))
    }

    /// All data-source names.
    pub fn source_names(&self) -> Vec<String> {
        self.inner.read().sources.keys().cloned().collect()
    }

    // ---- data sets ----------------------------------------------------------

    /// Define a data set. The SQL is validated (must parse as a `SELECT`)
    /// and the source must exist. The tables it reads are kept beside it.
    pub fn define_dataset(&self, dataset: DataSet) -> MetadataResult<()> {
        let mut tables = Vec::new();
        match odbis_sql::parse(&dataset.sql) {
            Ok(stmt @ odbis_sql::ast::Statement::Select(_)) => {
                odbis_sql::statement_tables(&stmt, &mut tables);
                tables.sort();
            }
            Ok(_) => {
                return Err(MetadataError::InvalidDataSet(format!(
                    "data set {} must be a SELECT",
                    dataset.name
                )))
            }
            Err(e) => {
                return Err(MetadataError::InvalidDataSet(format!(
                    "data set {}: {e}",
                    dataset.name
                )))
            }
        }
        let mut inner = self.inner.write();
        if !inner.sources.contains_key(&dataset.source) {
            return Err(MetadataError::NotFound(format!(
                "data source {}",
                dataset.source
            )));
        }
        if inner.datasets.contains_key(&dataset.name) {
            return Err(MetadataError::AlreadyExists(dataset.name));
        }
        let defined = Defined {
            set: dataset,
            tables,
        };
        inner.datasets.insert(defined.set.name.clone(), defined);
        Ok(())
    }

    /// Fetch a data set definition.
    pub fn dataset(&self, name: &str) -> MetadataResult<DataSet> {
        self.with_dataset(name, |d| d.set.clone())
    }

    /// The tables data set `name` reads, lower-cased, sorted and
    /// deduplicated, as its SQL named them when it was defined.
    pub fn dataset_tables(&self, name: &str) -> MetadataResult<Vec<String>> {
        self.with_dataset(name, |d| d.tables.clone())
    }

    fn with_dataset<R>(&self, name: &str, f: impl FnOnce(&Defined) -> R) -> MetadataResult<R> {
        self.inner
            .read()
            .datasets
            .get(name)
            .map(f)
            .ok_or_else(|| MetadataError::NotFound(format!("data set {name}")))
    }

    /// All data-set names.
    pub fn dataset_names(&self) -> Vec<String> {
        self.inner.read().datasets.keys().cloned().collect()
    }

    /// Remove a data set, and its view.
    pub fn drop_dataset(&self, name: &str) -> MetadataResult<()> {
        self.inner
            .write()
            .datasets
            .remove(name)
            .ok_or_else(|| MetadataError::NotFound(format!("data set {name}")))?;
        if let Some(views) = self.views.get() {
            views.dropped(name);
        }
        Ok(())
    }

    /// Execute a data set: [`Self::execute_dataset_batch`], pivoted to rows.
    pub fn execute_dataset(&self, name: &str) -> MetadataResult<QueryResult> {
        let (columns, batch) = self.execute_dataset_batch(name)?;
        Ok(QueryResult::from_batch(columns, &batch))
    }

    /// Execute a data set and return its columnar [`Batch`] without the
    /// row pivot — the one read path of a data set: its view answers when
    /// one is fresh, else its plan runs against its source connection.
    /// Streamed exports (CSV downloads) serialize straight from the batch.
    pub fn execute_dataset_batch(&self, name: &str) -> MetadataResult<(Vec<String>, Batch)> {
        let (dataset, conn) = {
            let inner = self.inner.read();
            let ds = inner
                .datasets
                .get(name)
                .ok_or_else(|| MetadataError::NotFound(format!("data set {name}")))?;
            let conn = inner
                .connections
                .get(&ds.set.source)
                .cloned()
                .ok_or_else(|| MetadataError::NotFound(format!("data source {}", ds.set.source)))?;
            (ds.set.clone(), conn)
        };
        if let Some(answer) = self.views.get().and_then(|v| v.read(&dataset)) {
            return Ok(answer?);
        }
        let mut span = odbis_telemetry::child_span("sql", "execute.vectorized");
        span.set_detail(&dataset.sql);
        let result = self.engine.execute_select_batch(&conn, &dataset.sql);
        match &result {
            Ok((_, batch)) => span.set_rows(batch.num_rows() as u64),
            Err(_) => span.fail(),
        }
        Ok(result?)
    }

    /// Tables a data set reads from ([`Self::dataset_tables`]).
    pub fn lineage(&self, name: &str) -> MetadataResult<Vec<String>> {
        self.dataset_tables(name)
    }

    // ---- glossary -----------------------------------------------------------

    /// Mutable access to the business glossary.
    pub fn with_glossary<R>(&self, f: impl FnOnce(&mut Glossary) -> R) -> R {
        f(&mut self.inner.write().glossary)
    }

    /// Read access to the business glossary.
    pub fn read_glossary<R>(&self, f: impl FnOnce(&Glossary) -> R) -> R {
        f(&self.inner.read().glossary)
    }

    // ---- search ---------------------------------------------------------------

    /// Search all metadata (sources, data sets, glossary terms) by
    /// substring; returns `kind: name` strings.
    pub fn search(&self, needle: &str) -> Vec<String> {
        let needle = needle.to_ascii_lowercase();
        let inner = self.inner.read();
        let mut hits = Vec::new();
        for s in inner.sources.keys() {
            if s.to_ascii_lowercase().contains(&needle) {
                hits.push(format!("datasource: {s}"));
            }
        }
        for (name, ds) in &inner.datasets {
            if name.to_ascii_lowercase().contains(&needle)
                || ds.set.description.to_ascii_lowercase().contains(&needle)
            {
                hits.push(format!("dataset: {name}"));
            }
        }
        for term in inner.glossary.term_names() {
            if term.to_ascii_lowercase().contains(&needle) {
                hits.push(format!("term: {term}"));
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbis_storage::Value;

    fn service_with_warehouse() -> (MetadataService, Arc<Database>) {
        let mds = MetadataService::new();
        let db = Arc::new(Database::new());
        let engine = Engine::new();
        engine
            .execute_script(
                &db,
                "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, amount DOUBLE);
                 INSERT INTO sales VALUES (1, 'EU', 10), (2, 'US', 20), (3, 'EU', 30);",
            )
            .unwrap();
        mds.register_source(
            DataSource {
                name: "warehouse".into(),
                url: "odbis://warehouse".into(),
                user: "bi".into(),
                password: "s3cret".into(),
                driver: "odbis-storage".into(),
            },
            Arc::clone(&db),
        )
        .unwrap();
        (mds, db)
    }

    #[test]
    fn source_registration_and_redaction() {
        let (mds, _db) = service_with_warehouse();
        assert_eq!(mds.source_names(), vec!["warehouse".to_string()]);
        let desc = mds.source("warehouse").unwrap().describe();
        assert!(!desc.contains("s3cret"));
        assert!(desc.contains("odbis://warehouse"));
        assert!(matches!(
            mds.source("nope"),
            Err(MetadataError::NotFound(_))
        ));
        let dup = DataSource {
            name: "warehouse".into(),
            url: "x".into(),
            user: "u".into(),
            password: "p".into(),
            driver: "d".into(),
        };
        assert!(matches!(
            mds.register_source(dup, Arc::new(Database::new())),
            Err(MetadataError::AlreadyExists(_))
        ));
    }

    #[test]
    fn dataset_definition_validates_sql() {
        let (mds, _db) = service_with_warehouse();
        mds.define_dataset(DataSet {
            name: "sales_by_region".into(),
            source: "warehouse".into(),
            sql: "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY region"
                .into(),
            description: "revenue per region".into(),
        })
        .unwrap();
        assert!(matches!(
            mds.define_dataset(DataSet {
                name: "bad".into(),
                source: "warehouse".into(),
                sql: "DELETE FROM sales".into(),
                description: String::new(),
            }),
            Err(MetadataError::InvalidDataSet(_))
        ));
        assert!(matches!(
            mds.define_dataset(DataSet {
                name: "unparsable".into(),
                source: "warehouse".into(),
                sql: "SELECT FROM FROM".into(),
                description: String::new(),
            }),
            Err(MetadataError::InvalidDataSet(_))
        ));
        assert!(matches!(
            mds.define_dataset(DataSet {
                name: "orphan".into(),
                source: "ghost".into(),
                sql: "SELECT 1".into(),
                description: String::new(),
            }),
            Err(MetadataError::NotFound(_))
        ));
    }

    #[test]
    fn dataset_execution_returns_rows() {
        let (mds, _db) = service_with_warehouse();
        mds.define_dataset(DataSet {
            name: "sales_by_region".into(),
            source: "warehouse".into(),
            sql: "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY region"
                .into(),
            description: String::new(),
        })
        .unwrap();
        let r = mds.execute_dataset("sales_by_region").unwrap();
        assert_eq!(r.columns, vec!["region", "total"]);
        assert_eq!(r.rows[0], vec![Value::from("EU"), Value::Float(40.0)]);
        assert!(matches!(
            mds.execute_dataset("missing"),
            Err(MetadataError::NotFound(_))
        ));
    }

    #[test]
    fn lineage_extracts_tables() {
        let (mds, db) = service_with_warehouse();
        Engine::new()
            .execute(
                &db,
                "CREATE TABLE regions (code TEXT PRIMARY KEY, name TEXT)",
            )
            .unwrap();
        mds.define_dataset(DataSet {
            name: "joined".into(),
            source: "warehouse".into(),
            sql: "SELECT s.id FROM sales s JOIN regions r ON s.region = r.code".into(),
            description: String::new(),
        })
        .unwrap();
        assert_eq!(
            mds.lineage("joined").unwrap(),
            vec!["regions".to_string(), "sales".to_string()]
        );
        // names come back as the watch keys spell them: lower-cased, once
        mds.define_dataset(DataSet {
            name: "shouted".into(),
            source: "warehouse".into(),
            sql: "SELECT a.id FROM SALES a JOIN Sales b ON a.id = b.id".into(),
            description: String::new(),
        })
        .unwrap();
        assert_eq!(mds.lineage("shouted").unwrap(), vec!["sales".to_string()]);
    }

    #[test]
    fn search_spans_all_metadata() {
        let (mds, _db) = service_with_warehouse();
        mds.define_dataset(DataSet {
            name: "sales_kpi".into(),
            source: "warehouse".into(),
            sql: "SELECT COUNT(*) FROM sales".into(),
            description: "the headline revenue KPI".into(),
        })
        .unwrap();
        mds.with_glossary(|g| g.define_term("Revenue", "money in", Some("sales_kpi")))
            .unwrap();
        assert_eq!(mds.search("warehouse").len(), 1);
        assert_eq!(mds.search("kpi").len(), 1); // matches description
        assert!(mds.search("revenue").iter().any(|h| h.starts_with("term:")));
        assert!(mds.search("zzz").is_empty());
    }

    #[test]
    fn drop_dataset() {
        let (mds, _db) = service_with_warehouse();
        mds.define_dataset(DataSet {
            name: "tmp".into(),
            source: "warehouse".into(),
            sql: "SELECT 1".into(),
            description: String::new(),
        })
        .unwrap();
        mds.drop_dataset("tmp").unwrap();
        assert!(mds.drop_dataset("tmp").is_err());
        assert!(mds.dataset_names().is_empty());
    }
}
