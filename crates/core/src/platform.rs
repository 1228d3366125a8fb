//! The ODBIS platform façade: the five-layer SaaS architecture of
//! Figure 1, wired and tenant-aware.
//!
//! Every tenant call goes through one gate, [`OdbisPlatform::gate`]: it
//! fences the call against a migration cutover and opens its root span,
//! the tenant must be active, the session must resolve, the principal must
//! hold the operation's authority — and the call is metered for
//! pay-as-you-go billing. That gate *is* the platform's SaaS contract.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use odbis_admin::{AdminService, CheckpointOutcome, DurabilityStatus, UsageLine};
use odbis_delivery::{Channel, DeliveryService, ReportPayload};
use odbis_etl::{EtlJob, JobReport, JobRunner, JobScheduler};
use odbis_mddws::DwProject;
use odbis_metadata::{DataSet, DataSource, DatasetViews, MetadataService};
use odbis_olap::{
    AggregateCache, CellSet, CubeDef, CubeEngine, DatasetView, DeltaReport, LevelRef,
    MaterializedAggregate, TableDelta,
};
use odbis_reporting::{Dashboard, RenderedReport, ReportTemplate, ReportingService};
use odbis_sql::{Engine, QueryResult, SqlResult};
use odbis_storage::{
    Batch, CheckpointReport, Database, DbError, DbResult, DurableStore, FsyncPolicy, Wal,
    WalRecord, WalSink, WalStats,
};
use odbis_telemetry::{CostLine, SlowEntry, Span};
use odbis_tenancy::{ServiceKind, SubscriptionPlan, TenantRegistry, UsageMeter};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::cluster::{Cluster, ClusterMap, ClusterNode, ClusterRoute};
use crate::error::{PlatformError, PlatformResult};
use crate::watch::{DeliveryPoll, WatchHub, WatchKey};

/// Per-tenant workspace: the tenant's logical slice of the shared backend
/// — its warehouse, metadata, cubes, jobs and DW projects. Physically the
/// process is shared; logically each customer is unique (ODBIS §2).
pub struct TenantWorkspace {
    /// The tenant's warehouse database.
    pub warehouse: Arc<Database>,
    /// The tenant's Meta-Data Service.
    pub mds: Arc<MetadataService>,
    /// The tenant's Reporting Service.
    pub reporting: Arc<ReportingService>,
    /// The tenant's ETL runner.
    pub etl: Arc<JobRunner>,
    /// The tenant's job scheduler.
    pub scheduler: Arc<JobScheduler>,
    /// The tenant's cube engine.
    pub cubes: Arc<CubeEngine>,
    /// Registered cube definitions.
    pub cube_defs: RwLock<HashMap<String, CubeDef>>,
    /// Materialized aggregates consulted by MDX queries and the views
    /// data sets are read from, maintained incrementally by
    /// [`TenantWorkspace::publish_deltas`]. A publication applies its whole
    /// batch under the write lock, so a reader sees all of it or none.
    pub agg_cache: Arc<RwLock<AggregateCache>>,
    /// The tenant's delivery service; each delivery bumps the recipient's
    /// [`WatchKey::Deliveries`] on `watch`.
    pub delivery: Arc<DeliveryService>,
    /// Journaled-but-unpublished warehouse mutations, drained by
    /// [`TenantWorkspace::publish_deltas`]. Deltas land here from the
    /// WAL sink, i.e. only once the write is acknowledged.
    pub deltas: Arc<DeltaBuffer>,
    /// The workspace watch hub long-poll subscriptions park on: dataset
    /// watches on tables, delivery polls on their user's outbox.
    pub watch: Arc<WatchHub>,
    /// Held while the delta buffer is drained into the aggregate cache,
    /// so batches apply in commit order, and while an aggregate or a view
    /// is built, so no batch is drained between the build and its
    /// registration. It guards what every publication so far did to the
    /// aggregates and views.
    publish_lock: Mutex<DeltaReport>,
    /// MDDWS projects by name.
    pub projects: Mutex<HashMap<String, DwProject>>,
    /// The tenant's durable store (checkpoint + WAL), when the platform was
    /// booted with a data directory. `None` for in-memory platforms.
    pub durable: Option<Arc<DurableStore>>,
}

/// The warehouse's one [`WalSink`]: it appends each statement's records
/// to the tenant's log (durable workspaces only), then turns every record
/// into the [`TableDelta`] the aggregate cache applies, one per record — a
/// multi-row INSERT is one. Appending first is the guarantee: a delta can
/// only describe a write the log accepted, so an unacked write never
/// reaches the aggregate cache or a watcher. The sink runs under the
/// written table's lock, so it must only buffer — application happens
/// later, outside that lock, in [`TenantWorkspace::publish_deltas`].
pub struct DeltaBuffer {
    /// The tenant's write-ahead log; `None` for an in-memory workspace,
    /// where every applied mutation counts as acknowledged.
    wal: Option<Arc<Wal>>,
    deltas: Mutex<Vec<TableDelta>>,
}

impl DeltaBuffer {
    fn new(wal: Option<Arc<Wal>>) -> Self {
        DeltaBuffer {
            wal,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Take everything buffered so far.
    fn drain(&self) -> Vec<TableDelta> {
        std::mem::take(&mut *self.deltas.lock())
    }

    /// Number of buffered, not-yet-published deltas.
    pub fn pending(&self) -> usize {
        self.deltas.lock().len()
    }

    /// Whether a buffered delta writes `table`.
    fn touches(&self, table: &str) -> bool {
        self.deltas
            .lock()
            .iter()
            .any(|d| d.table().eq_ignore_ascii_case(table))
    }
}

impl WalSink for DeltaBuffer {
    fn append(&self, records: &[WalRecord]) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            wal.append_batch(records)?;
        }
        self.deltas
            .lock()
            .extend(records.iter().filter_map(record_to_delta));
        Ok(())
    }
}

/// The name of the data source every workspace registers for its
/// warehouse: the only database whose deltas reach the aggregate cache,
/// so the only one a data set view may read.
const WAREHOUSE: &str = "warehouse";

/// The warehouse's data set views as the tenant's Meta-Data Service reads
/// them: a fresh view of exactly the data set's definition answers it.
struct WarehouseViews {
    cache: Arc<RwLock<AggregateCache>>,
    warehouse: Arc<Database>,
    engine: Engine,
}

impl DatasetViews for WarehouseViews {
    /// Finish the view's groups under the cache's read lock, then run the
    /// plan above its aggregation over them with the lock released, in an
    /// `olap`/`view.read` span.
    fn read(&self, dataset: &DataSet) -> Option<SqlResult<(Vec<String>, Batch)>> {
        if dataset.source != WAREHOUSE {
            return None;
        }
        let cache = self.cache.read();
        let view = cache.view(&dataset.name, &dataset.sql)?;
        let mut span = odbis_telemetry::child_span("olap", "view.read");
        span.set_detail(&dataset.name);
        let answer = view.answer();
        drop(cache);
        let result = answer.and_then(|plan| self.engine.execute_plan(&self.warehouse, &plan));
        match &result {
            Ok((_, batch)) => span.set_rows(batch.num_rows() as u64),
            Err(_) => span.fail(),
        }
        Some(result)
    }

    fn dropped(&self, name: &str) {
        self.cache.write().drop_view(name);
    }
}

/// The scope of one journaled mutation as seen by the maintenance layer:
/// which table changed, and whether the change is row-additive (foldable),
/// arbitrary (rebuild), or structural removal. Index maintenance does not
/// change query results, so index records become no delta.
fn record_to_delta(record: &WalRecord) -> Option<TableDelta> {
    match record {
        WalRecord::Insert { table, row } => Some(TableDelta::Insert {
            table: table.clone(),
            rows: vec![row.clone()],
        }),
        WalRecord::InsertMany { table, rows } => Some(TableDelta::Insert {
            table: table.clone(),
            rows: rows.clone(),
        }),
        WalRecord::Update { table, .. }
        | WalRecord::Delete { table, .. }
        | WalRecord::Truncate { table }
        | WalRecord::CreateTable { name: table, .. } => Some(TableDelta::Mutate {
            table: table.clone(),
        }),
        WalRecord::DropTable { name } => Some(TableDelta::Drop {
            table: name.clone(),
        }),
        WalRecord::CreateIndex { .. } | WalRecord::DropIndex { .. } => None,
    }
}

impl TenantWorkspace {
    fn new(tenant_id: &str) -> PlatformResult<Self> {
        Self::assemble(tenant_id, Database::new(), None)
    }

    /// Open (or recover) a durable workspace rooted at `dir`: load the
    /// checkpoint, replay the WAL, and journal every future warehouse
    /// mutation through it. Re-provisioning a tenant over an existing
    /// directory recovers exactly the committed state. (WAL replay happens
    /// before the sink is attached, so recovery never republishes
    /// historical deltas — aggregates are built fresh.)
    fn durable(tenant_id: &str, dir: PathBuf, policy: FsyncPolicy) -> PlatformResult<Self> {
        let (db, store) = DurableStore::open(dir, policy)?;
        Self::assemble(tenant_id, db, Some(Arc::new(store)))
    }

    fn assemble(
        tenant_id: &str,
        warehouse: Database,
        durable: Option<Arc<DurableStore>>,
    ) -> PlatformResult<Self> {
        let warehouse = Arc::new(warehouse);
        let deltas = Arc::new(DeltaBuffer::new(
            durable.as_ref().map(|store| Arc::clone(store.wal())),
        ));
        warehouse.set_wal_sink(Arc::clone(&deltas) as Arc<dyn WalSink>);
        let mds = Arc::new(MetadataService::new());
        mds.register_source(
            DataSource {
                name: WAREHOUSE.into(),
                url: format!("odbis://{tenant_id}/warehouse"),
                user: "platform".into(),
                password: String::new(),
                driver: "odbis-storage".into(),
            },
            Arc::clone(&warehouse),
        )?;
        let reporting = Arc::new(ReportingService::new(Arc::clone(&mds)));
        let etl = Arc::new(JobRunner::new(Arc::clone(&warehouse)));
        let scheduler = Arc::new(JobScheduler::new(Arc::clone(&etl)));
        let cubes = Arc::new(CubeEngine::new(Arc::clone(&warehouse)));
        let agg_cache = Arc::new(RwLock::new(AggregateCache::new()));
        mds.set_views(Arc::new(WarehouseViews {
            cache: Arc::clone(&agg_cache),
            warehouse: Arc::clone(&warehouse),
            engine: Engine::new(),
        }));
        let watch = Arc::new(WatchHub::new());
        let hub = Arc::clone(&watch);
        let delivery = Arc::new(DeliveryService::notifying(move |user| {
            hub.bump(&[WatchKey::Deliveries(user.to_string())]);
        }));
        Ok(TenantWorkspace {
            warehouse,
            mds,
            reporting,
            etl,
            scheduler,
            cubes,
            cube_defs: RwLock::new(HashMap::new()),
            agg_cache,
            delivery,
            deltas,
            watch,
            publish_lock: Mutex::new(DeltaReport::default()),
            projects: Mutex::new(HashMap::new()),
            durable,
        })
    }

    /// Drain the delta buffer into the aggregate cache — inserts fold into
    /// the aggregates over their table, other mutations rebuild only the
    /// aggregates over theirs — then bump the watch hub for every touched
    /// table. Returns the number of deltas applied.
    pub fn publish_deltas(&self) -> usize {
        self.apply_buffered(&mut self.publish_lock.lock())
    }

    /// Aggregate folds, rebuilds and drops, summed over every publication
    /// of this workspace.
    fn aggregate_totals(&self) -> DeltaReport {
        *self.publish_lock.lock()
    }

    /// Apply the buffered deltas, build a view over the current warehouse
    /// with `build`, and register it in place of any view with its key
    /// ([`AggregateCache::add_view`]). The deltas go first, so the build
    /// does not read a row that a later publication would fold in again;
    /// if rows commit while it builds, it is registered stale and the next
    /// publication rebuilds it. Returns the number of groups built.
    fn keep<E>(&self, build: impl FnOnce(&Database) -> Result<DatasetView, E>) -> Result<usize, E> {
        let mut held = self.publish_lock.lock();
        self.apply_buffered(&mut held);
        let mut view = build(&self.warehouse)?;
        if view.tables().iter().any(|t| self.deltas.touches(t)) {
            view.mark_stale();
        }
        let groups = view.len();
        self.agg_cache.write().add_view(view);
        Ok(groups)
    }

    /// Register cube `cube` in place of any of its name, and drop the
    /// aggregates built from the old definition. Under `publish_lock`, so
    /// no aggregate of the old definition registers after the drop.
    fn register_cube(&self, cube: CubeDef) {
        let _held = self.publish_lock.lock();
        self.agg_cache.write().drop_cube(&cube.name);
        self.cube_defs.write().insert(cube.name.clone(), cube);
    }

    /// Materialize an aggregate of registered cube `cube`
    /// ([`MaterializedAggregate::build`]) through [`Self::keep`]. Returns
    /// the number of cells built.
    fn materialize(
        &self,
        cube: &str,
        axes: Vec<LevelRef>,
        measures: Vec<String>,
    ) -> PlatformResult<usize> {
        self.keep(|db| {
            let def = (self.cube_defs.read().get(cube).cloned())
                .ok_or_else(|| PlatformError::Olap(format!("unknown cube {cube}")))?;
            Ok(MaterializedAggregate::build(db, &def, axes, measures)?.into())
        })
    }

    /// Define a data set in the MDS and, when it reads the warehouse and
    /// its plan is one a view keeps ([`DatasetView`]), keep its view
    /// through [`Self::keep`]; otherwise drop any view of that name.
    /// Returns the verdict: `view`, or the clause that keeps the data set
    /// on its plan.
    fn define_dataset(&self, dataset: DataSet) -> PlatformResult<String> {
        let (name, sql) = (dataset.name.clone(), dataset.sql.clone());
        let warehouse = dataset.source == WAREHOUSE;
        self.mds.define_dataset(dataset)?;
        let kept = if warehouse {
            self.keep(|db| DatasetView::build(db, &name, &sql))
        } else {
            Err("a source other than the warehouse".to_string())
        };
        Ok(match kept {
            Ok(_) => "view".to_string(),
            Err(why) => {
                self.agg_cache.write().drop_view(&name);
                why
            }
        })
    }

    /// [`Self::publish_deltas`], for a caller holding `publish_lock`.
    fn apply_buffered(&self, totals: &mut MutexGuard<'_, DeltaReport>) -> usize {
        let deltas = self.deltas.drain();
        if deltas.is_empty() {
            return 0;
        }
        let applied = deltas.len();
        let mut touched: Vec<WatchKey> = Vec::new();
        for d in &deltas {
            let key = WatchKey::table(d.table());
            if !touched.contains(&key) {
                touched.push(key);
            }
        }
        **totals += self
            .agg_cache
            .write()
            .apply_deltas(self.cubes.database(), deltas, |t| self.deltas.touches(t));
        self.watch.bump(&touched);
        applied
    }
}

/// What most tenant calls run against: the tenant's workspace.
type Workspace = Arc<TenantWorkspace>;

/// A tenant's workspace and its durable store.
type Durable = (Workspace, Arc<DurableStore>);

/// Checkpoint `store`. A checkpoint that hits a transient I/O fault (fsync
/// hiccup, disk stall, injected failpoint) is retried in place with a short
/// backoff, three attempts in all, before it is `Unavailable`; only I/O
/// errors are transient — any other error fails at once.
fn checkpoint_with_retry(store: &DurableStore, db: &Database) -> PlatformResult<CheckpointReport> {
    const ATTEMPTS: u32 = 3;
    const BACKOFF_MS: u64 = 5;
    let mut last_io = String::new();
    for attempt in 1..=ATTEMPTS {
        match store.checkpoint(db) {
            Ok(report) => return Ok(report),
            Err(DbError::Io(m)) => {
                last_io = m;
                if attempt < ATTEMPTS {
                    odbis_chaos::count_retry("checkpoint");
                    std::thread::sleep(std::time::Duration::from_millis(
                        BACKOFF_MS << (attempt - 1),
                    ));
                }
            }
            Err(e) => return Err(PlatformError::Storage(format!("storage failure: {e}"))),
        }
    }
    Err(PlatformError::Unavailable(format!(
        "checkpoint failed after {ATTEMPTS} attempts: {last_io}"
    )))
}

/// The platform: administration layer, SaaS kernel, and one
/// [`TenantWorkspace`] per tenant.
pub struct OdbisPlatform {
    /// Administration & configuration layer.
    pub admin: AdminService,
    /// Per-tenant HTTP admission control, resolving `limits.rate`,
    /// `limits.burst` and `limits.queue_depth` from the platform config
    /// (tenant → platform → declared default) on every request.
    pub admission: Arc<odbis_web::AdmissionControl>,
    sql: Engine,
    workspaces: RwLock<HashMap<String, Arc<TenantWorkspace>>>,
    data_dir: Option<PathBuf>,
    /// Cluster membership, `None` for a standalone node. Set once by
    /// [`OdbisPlatform::join_cluster`].
    cluster: RwLock<Option<ClusterNode>>,
    /// Per-tenant migration write fences. Every gated call holds the
    /// tenant's fence for reading (recursively — nested gated calls on
    /// one thread must not self-deadlock behind a waiting writer);
    /// migration cutover holds it for writing, which drains in-flight
    /// calls and blocks new ones for the duration of the flip.
    fences: Mutex<HashMap<String, Arc<RwLock<()>>>>,
}

impl Default for OdbisPlatform {
    fn default() -> Self {
        OdbisPlatform::new()
    }
}

impl OdbisPlatform {
    /// Boot an empty in-memory platform (no durability; tests, demos).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Boot a durable platform rooted at `dir`: every tenant provisioned
    /// afterwards gets a write-ahead log plus checkpoint under
    /// `dir/<tenant>/`, and re-provisioning over an existing directory
    /// recovers the committed state.
    pub fn with_data_dir(dir: impl Into<PathBuf>) -> Self {
        Self::build(Some(dir.into()))
    }

    fn build(data_dir: Option<PathBuf>) -> Self {
        let registry = Arc::new(TenantRegistry::new());
        let meter = Arc::new(UsageMeter::new());
        let admin = AdminService::new(registry, meter);
        let config = Arc::clone(&admin.config);
        let admission = Arc::new(odbis_web::AdmissionControl::new(move |tenant| {
            odbis_web::TenantLimits {
                rate: config.get_int(tenant, "limits.rate").unwrap_or(0).max(0) as f64,
                burst: config.get_int(tenant, "limits.burst").unwrap_or(0).max(0) as f64,
                queue_depth: config
                    .get_int(tenant, "limits.queue_depth")
                    .unwrap_or(64)
                    .max(0) as u64,
            }
        }));
        OdbisPlatform {
            admin,
            admission,
            sql: Engine::new(),
            workspaces: RwLock::new(HashMap::new()),
            data_dir,
            cluster: RwLock::new(None),
            fences: Mutex::new(HashMap::new()),
        }
    }

    // ---- clustering ----------------------------------------------------------

    /// Join an in-process cluster as `node_id`: requests for tenants this
    /// node does not own will be proxied (or redirected) to their owner
    /// by the web layer, and this node becomes a valid migration
    /// source/target for the fabric.
    pub fn join_cluster(
        &self,
        node_id: &str,
        map: Arc<ClusterMap>,
        fabric: std::sync::Weak<Cluster>,
    ) {
        *self.cluster.write() = Some(ClusterNode {
            node_id: node_id.to_string(),
            map,
            fabric,
        });
    }

    /// This node's cluster identity and map, `None` when standalone.
    pub fn cluster_node(&self) -> Option<(String, Arc<ClusterMap>)> {
        self.cluster
            .read()
            .as_ref()
            .map(|n| (n.node_id.clone(), Arc::clone(&n.map)))
    }

    /// The cluster fabric this node belongs to, when it is clustered and
    /// the fabric is still alive.
    pub fn cluster_fabric(&self) -> Option<Arc<Cluster>> {
        self.cluster
            .read()
            .as_ref()
            .and_then(|n| n.fabric.upgrade())
    }

    /// Route a tenant's request: local when standalone, when this node
    /// owns the tenant, or when the owner has no usable address (failing
    /// local yields an honest tenant error rather than a dead proxy).
    pub fn cluster_route(&self, tenant: &str) -> ClusterRoute {
        let guard = self.cluster.read();
        let Some(node) = guard.as_ref() else {
            return ClusterRoute::Local;
        };
        match node.map.owner(tenant) {
            Some(owner) if owner != node.node_id => {
                match node.map.addr_of(&owner).filter(|a| !a.is_empty()) {
                    Some(addr) => ClusterRoute::Remote {
                        node_id: owner,
                        addr,
                    },
                    None => ClusterRoute::Local,
                }
            }
            _ => ClusterRoute::Local,
        }
    }

    /// The per-tenant migration fence (created on first use). Gated
    /// calls take it for reading; migration cutover takes it for
    /// writing.
    pub fn tenant_fence(&self, tenant: &str) -> Arc<RwLock<()>> {
        Arc::clone(
            self.fences
                .lock()
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(RwLock::new(()))),
        )
    }

    /// The data directory this platform journals tenants under (`None`
    /// for in-memory platforms). Migration stages its shipped bytes in
    /// `data_dir()/<tenant>` before [`OdbisPlatform::attach_workspace`]
    /// recovers them.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.data_dir.as_deref()
    }

    // ---- tenancy -------------------------------------------------------------

    /// Provision a tenant: registry entry, security realm with standard
    /// roles, first admin user, and the tenant workspace.
    pub fn provision_tenant(
        &self,
        id: &str,
        display_name: &str,
        plan: SubscriptionPlan,
        admin_user: &str,
        admin_password: &str,
    ) -> PlatformResult<()> {
        self.provision_identity(id, display_name, plan, admin_user, admin_password)?;
        self.attach_workspace(id)
    }

    /// Provision only the tenant's identity: registry entry, security
    /// realm with the standard roles, first admin user — no workspace.
    /// The cluster fabric provisions identity on every node (so logins
    /// and authorization work wherever a request lands) but a workspace
    /// only on the owner node.
    pub fn provision_identity(
        &self,
        id: &str,
        display_name: &str,
        plan: SubscriptionPlan,
        admin_user: &str,
        admin_password: &str,
    ) -> PlatformResult<()> {
        self.admin
            .provision_tenant(id, display_name, plan, admin_user, admin_password)?;
        Ok(())
    }

    /// Build (or recover) the tenant's workspace and attach it to this
    /// node. On a durable platform the workspace roots at
    /// `data_dir/<tenant>`, so attaching over a directory staged by a
    /// migration recovers exactly the shipped state — the recovery path
    /// re-verifies every WAL frame and segment CRC as it replays.
    pub fn attach_workspace(&self, id: &str) -> PlatformResult<()> {
        let ws = match &self.data_dir {
            Some(root) => {
                let policy = FsyncPolicy::parse(
                    &self
                        .admin
                        .config
                        .get_str(id, "durability.fsync")
                        .unwrap_or_else(|_| "never".into()),
                );
                Arc::new(TenantWorkspace::durable(id, root.join(id), policy)?)
            }
            None => Arc::new(TenantWorkspace::new(id)?),
        };
        self.workspaces.write().insert(id.to_string(), ws);
        Ok(())
    }

    /// Detach a tenant's workspace from this node (migration cutover:
    /// the source stops serving the tenant). The identity stays — the
    /// registry entry and realm keep answering authorization so a
    /// late request fails with a routing-level error, not a phantom
    /// "unknown tenant". Returns the detached workspace, if any.
    pub fn detach_workspace(&self, id: &str) -> Option<Arc<TenantWorkspace>> {
        self.workspaces.write().remove(id)
    }

    // ---- durability ----------------------------------------------------------

    /// Checkpoint a tenant's durable store: fold the WAL into its segments
    /// and truncate the log. A transient I/O fault is retried in place
    /// before it surfaces as `Unavailable`. Admin-only; an in-memory
    /// platform answers `Storage`, a tenant with no durable store here
    /// `NotFound`.
    pub fn checkpoint_tenant(
        &self,
        tenant: &str,
        token: &str,
    ) -> PlatformResult<CheckpointOutcome> {
        let op = (ServiceKind::Admin, "durability.checkpoint", "ADMIN_CONFIG");
        self.gate(tenant, token, op, tenant, |span, _, scope: Durable| {
            let (ws, store) = scope;
            let report = checkpoint_with_retry(&store, &ws.warehouse)?;
            self.admin
                .telemetry
                .record_checkpoint(tenant, report.micros);
            span.set_bytes(report.wal_bytes_folded);
            let outcome = CheckpointOutcome {
                tenant: tenant.to_string(),
                tables: report.tables,
                tables_flushed: report.tables_flushed,
                wal_bytes_folded: report.wal_bytes_folded,
                micros: report.micros,
            };
            Ok((outcome, 1))
        })
    }

    /// A tenant's durability status: fsync policy, WAL append/byte counters
    /// and file length, next LSN.
    pub fn durability_status(&self, tenant: &str, token: &str) -> PlatformResult<DurabilityStatus> {
        let op = (ServiceKind::Admin, "durability.status", "ADMIN_CONFIG");
        self.gate(tenant, token, op, tenant, |span, _, (_, store): Durable| {
            let stats = store.wal().stats();
            span.set_bytes(stats.bytes);
            let status = DurabilityStatus {
                tenant: tenant.to_string(),
                fsync: store.wal().policy().as_str().to_string(),
                wal_appends: stats.appends,
                wal_bytes: stats.bytes,
                wal_file_len: stats.file_len,
                next_lsn: stats.next_lsn,
            };
            Ok((status, 1))
        })
    }

    /// A tenant's workspace and durable store. An in-memory platform has
    /// none (`Storage`, HTTP 500); on a durable one a tenant with no
    /// workspace on this node has none either (`NotFound`, HTTP 404).
    fn durable_store(&self, tenant: &str) -> PlatformResult<Durable> {
        if self.data_dir.is_none() {
            return Err(PlatformError::Storage("durability is not enabled".into()));
        }
        self.workspaces
            .read()
            .get(tenant)
            .and_then(|ws| Some((Arc::clone(ws), Arc::clone(ws.durable.as_ref()?))))
            .ok_or_else(|| PlatformError::NotFound(format!("durable store for tenant {tenant}")))
    }

    /// WAL counters of every durable workspace attached to this node,
    /// sorted by tenant, read from each log's own [`WalStats`]: the series
    /// follows the workspace, so a tenant that migrated away has none here.
    pub fn wal_stats(&self) -> Vec<(String, WalStats)> {
        let mut out: Vec<(String, WalStats)> = self
            .workspaces
            .read()
            .iter()
            .filter_map(|(id, ws)| Some((id.clone(), ws.durable.as_ref()?.wal().stats())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Aggregate maintenance totals of every workspace attached to this
    /// node, sorted by tenant ([`TenantWorkspace::aggregate_totals`]).
    pub(crate) fn aggregate_stats(&self) -> Vec<(String, DeltaReport)> {
        // read off the map lock: a publish lock can be held for a build
        let attached: Vec<(String, Arc<TenantWorkspace>)> = self
            .workspaces
            .read()
            .iter()
            .map(|(id, ws)| (id.clone(), Arc::clone(ws)))
            .collect();
        let mut out: Vec<(String, DeltaReport)> = attached
            .into_iter()
            .map(|(id, ws)| (id, ws.aggregate_totals()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The workspace of a tenant. A miss on a clustered node whose map
    /// routes the tenant elsewhere means the tenant migrated away — the
    /// caller is told where it went (HTTP: a 307 at the owner) instead of
    /// getting a spurious tenancy error.
    pub fn workspace(&self, tenant: &str) -> PlatformResult<Arc<TenantWorkspace>> {
        if let Some(ws) = self.workspaces.read().get(tenant).cloned() {
            return Ok(ws);
        }
        if let Some(moved) = self.moved_err(tenant) {
            return Err(moved);
        }
        Err(PlatformError::Tenancy(format!(
            "no workspace for tenant {tenant}"
        )))
    }

    /// The [`PlatformError::Moved`] for a tenant another node owns (with
    /// a usable address), `None` when this node may serve it.
    fn moved_err(&self, tenant: &str) -> Option<PlatformError> {
        match self.cluster_route(tenant) {
            ClusterRoute::Remote { node_id, addr } => Some(PlatformError::Moved {
                msg: format!("tenant {tenant} moved to node {node_id}; retry there"),
                node_id,
                addr,
            }),
            ClusterRoute::Local => None,
        }
    }

    /// Authenticate a tenant user; returns the session token.
    pub fn login(&self, tenant: &str, user: &str, password: &str) -> PlatformResult<String> {
        self.admin.registry().require_active(tenant)?;
        let realm = self.admin.registry().realm(tenant)?;
        Ok(realm.login(user, password)?.token)
    }

    /// Create an additional user in a tenant (enforces the plan's user
    /// limit) and assign a role.
    pub fn create_user(
        &self,
        tenant: &str,
        admin_token: &str,
        user: &str,
        password: &str,
        role: &str,
    ) -> PlatformResult<()> {
        let op = (ServiceKind::Admin, "user.create", "ADMIN_USERS");
        self.gate(tenant, admin_token, op, user, |_, _, ()| {
            self.admin.registry().check_user_limit(tenant)?;
            let realm = self.admin.registry().realm(tenant)?;
            realm.create_user(user, password)?;
            realm.assign_role(user, role)?;
            Ok(((), 0))
        })
    }

    /// Tenant active + session valid + authority held. Returns the
    /// principal's username. Every tenant call checks this inside the
    /// platform's gate; the node-level admin routes call it bare.
    pub fn authorize(&self, tenant: &str, token: &str, authority: &str) -> PlatformResult<String> {
        self.admin.registry().require_active(tenant)?;
        let realm = self.admin.registry().realm(tenant)?;
        let principal = realm.authenticate(token)?;
        realm.require_authority(&principal, authority)?;
        Ok(principal)
    }

    // ---- the gate ------------------------------------------------------------

    /// The one gate every tenant call runs through, in this order:
    /// 1. the `platform.fence` failpoint, then the tenant's migration
    ///    fence, held for reading until the call returns;
    /// 2. the moved re-check;
    /// 3. the root span, with the tenant's `telemetry.slow_ms` and
    ///    `detail` for the slow log;
    /// 4. [`Self::authorize`] against the authority in
    ///    `op = (service, operation, authority)`;
    /// 5. the lookup of the call's [`Scope`];
    /// 6. the call, which gets the span, the principal and the scope, and
    ///    reports its value and its billable units;
    /// 7. on success only, metering of those units under `service`.
    fn gate<S: Scope, R>(
        &self,
        tenant: &str,
        token: &str,
        (service, operation, authority): (ServiceKind, &'static str, &'static str),
        detail: &str,
        call: impl FnOnce(&mut Span, String, S) -> PlatformResult<(R, u64)>,
    ) -> PlatformResult<R> {
        // Failpoint between routing and the fence: the chaos suite uses a
        // delay here to pin a dispatch inside the cutover window.
        odbis_chaos::check("platform.fence")
            .map_err(|e| PlatformError::Unavailable(format!("platform.fence: {e}")))?;
        // A cutover takes the fence for writing, so it observes every
        // in-flight call to completion before flipping ownership: an
        // acknowledged write is either in the shipped WAL tail or never
        // acknowledged. Recursive, so a gated call nested inside another
        // never deadlocks behind a waiting cutover.
        let fence = self.tenant_fence(tenant);
        let _fenced = fence.read_recursive();
        // A request routed here before a cutover flip resumes with the
        // workspace already detached: answer with the new owner, not a
        // workspace miss.
        if let Some(moved) = self.moved_err(tenant) {
            return Err(moved);
        }
        let slow_ms = self
            .admin
            .config
            .get_int(tenant, "telemetry.slow_ms")
            .unwrap_or(250)
            .max(0) as u64;
        let mut span = self
            .admin
            .telemetry
            .span(tenant, service.code(), operation, slow_ms);
        span.set_detail(detail);
        let result = self
            .authorize(tenant, token, authority)
            .and_then(|user| call(&mut span, user, S::lookup(self, tenant)?));
        match result {
            Ok((value, units)) => {
                self.admin.meter_usage(tenant, service, units);
                Ok(value)
            }
            Err(e) => {
                span.fail();
                Err(e)
            }
        }
    }

    // ---- core BI services (metered) -------------------------------------------

    /// Execute raw SQL in the tenant warehouse (designer capability).
    pub fn sql(&self, tenant: &str, token: &str, sql: &str) -> PlatformResult<QueryResult> {
        let op = (ServiceKind::Metadata, "sql", "ETL_DESIGN");
        self.gate(tenant, token, op, sql, |span, _, ws: Workspace| {
            let result = self.sql.execute(&ws.warehouse, sql)?;
            // Any write this statement journaled now rides the delta
            // pipeline: inserts fold into covered aggregates, other
            // mutations rebuild only the aggregates over the touched
            // tables, and watchers of those tables wake. Reads buffered
            // nothing, so this is a no-op for SELECTs.
            ws.publish_deltas();
            let touched = (result.rows.len() + result.rows_affected) as u64;
            span.set_rows(touched);
            // pay-as-you-go: one unit per call plus one per row touched
            Ok((result, 1 + touched))
        })
    }

    /// Define a data set in the tenant's MDS.
    pub fn define_dataset(
        &self,
        tenant: &str,
        token: &str,
        dataset: DataSet,
    ) -> PlatformResult<()> {
        let op = (ServiceKind::Metadata, "dataset.define", "ETL_DESIGN");
        self.gate(tenant, token, op, "", |span, _, ws: Workspace| {
            span.set_detail(&dataset.name);
            let name = dataset.name.clone();
            let verdict = ws.define_dataset(dataset)?;
            span.set_detail(&format!("{name}: {verdict}"));
            Ok(((), 1))
        })
    }

    /// The names of the data sets in the tenant's MDS. Unmetered.
    pub fn dataset_names(&self, tenant: &str, token: &str) -> PlatformResult<Vec<String>> {
        let op = (ServiceKind::Metadata, "dataset.list", "DATASET_RUN");
        self.gate(tenant, token, op, "", |_, _, ws: Workspace| {
            Ok((ws.mds.dataset_names(), 0))
        })
    }

    /// Execute a data set and pivot its answer to rows: the gated read of
    /// [`OdbisPlatform::execute_dataset_batch`] plus
    /// [`QueryResult::from_batch`].
    pub fn execute_dataset(
        &self,
        tenant: &str,
        token: &str,
        name: &str,
    ) -> PlatformResult<QueryResult> {
        let (columns, batch) = self.execute_dataset_batch(tenant, token, name)?;
        Ok(QueryResult::from_batch(columns, &batch))
    }

    /// Resolve a watch subscription for a data set: authorize the caller,
    /// look the data set up, and return the workspace watch hub plus the
    /// keys of the tables the data set's SQL reads — the set whose
    /// changes complete a parked `GET /datasets/:name/watch` long-poll.
    pub fn watch_dataset(
        &self,
        tenant: &str,
        token: &str,
        name: &str,
    ) -> PlatformResult<(Arc<WatchHub>, Vec<WatchKey>)> {
        let op = (ServiceKind::Metadata, "dataset.watch", "DATASET_RUN");
        self.gate(tenant, token, op, name, |_, _, ws: Workspace| {
            let tables = ws.mds.dataset_tables(name)?;
            let keys = tables.iter().map(|t| WatchKey::table(t)).collect();
            Ok(((Arc::clone(&ws.watch), keys), 1))
        })
    }

    /// Execute a data set and return its columnar batch (no row pivot) —
    /// what every `GET /datasets/:name` body is written from. The one
    /// gated data set read (`dataset.run`), metered at `1 + rows` units.
    pub fn execute_dataset_batch(
        &self,
        tenant: &str,
        token: &str,
        name: &str,
    ) -> PlatformResult<(Vec<String>, odbis_storage::Batch)> {
        let op = (ServiceKind::Metadata, "dataset.run", "DATASET_RUN");
        self.gate(tenant, token, op, name, |span, _, ws: Workspace| {
            let (columns, batch) = ws.mds.execute_dataset_batch(name)?;
            span.set_rows(batch.num_rows() as u64);
            let units = 1 + batch.num_rows() as u64;
            Ok(((columns, batch), units))
        })
    }

    /// Run an integration job in the tenant warehouse.
    pub fn run_etl(&self, tenant: &str, token: &str, job: &EtlJob) -> PlatformResult<JobReport> {
        let op = (ServiceKind::Integration, "etl.run", "ETL_DESIGN");
        self.gate(tenant, token, op, &job.name, |span, _, ws: Workspace| {
            let report = ws.etl.run(job).map_err(PlatformError::from)?;
            // ETL loads write the warehouse: publish the journaled deltas
            // so only aggregates over the loaded tables are maintained or
            // rebuilt — an unrelated cube's preagg survives the load.
            ws.publish_deltas();
            span.set_rows(report.loaded as u64);
            let units = report.loaded as u64;
            Ok((report, units))
        })
    }

    /// Register a cube definition (validated against the warehouse).
    pub fn register_cube(&self, tenant: &str, token: &str, cube: CubeDef) -> PlatformResult<()> {
        let op = (ServiceKind::Analysis, "cube.register", "CUBE_DESIGN");
        self.gate(tenant, token, op, "", |span, _, ws: Workspace| {
            span.set_detail(&cube.name);
            cube.validate(&ws.warehouse)?;
            ws.register_cube(cube);
            Ok(((), 1))
        })
    }

    /// Run an MDX-lite query against a registered cube.
    pub fn mdx(&self, tenant: &str, token: &str, mdx: &str) -> PlatformResult<CellSet> {
        let op = (ServiceKind::Analysis, "mdx", "CUBE_QUERY");
        self.gate(tenant, token, op, mdx, |span, _, ws: Workspace| {
            let stmt = odbis_olap::parse_mdx(mdx)?;
            let cube = ws
                .cube_defs
                .read()
                .get(&stmt.cube)
                .cloned()
                .ok_or_else(|| PlatformError::Olap(format!("unknown cube {}", stmt.cube)))?;
            // a fresh materialized aggregate that covers the query answers
            // it; anything else reads the warehouse (ROLAP)
            let cached = ws.agg_cache.read().try_answer(&stmt.cube, &stmt.query);
            let cells = match cached {
                Some(cells) => cells,
                None => ws.cubes.query(&cube, &stmt.query)?,
            };
            span.set_rows(cells.len() as u64);
            let units = 1 + cells.len() as u64;
            Ok((cells, units))
        })
    }

    /// Render a dashboard to HTML.
    pub fn render_dashboard(
        &self,
        tenant: &str,
        token: &str,
        dashboard: &Dashboard,
    ) -> PlatformResult<String> {
        let op = (ServiceKind::Reporting, "dashboard.render", "REPORT_VIEW");
        let detail = &dashboard.title;
        self.gate(tenant, token, op, detail, |span, _, ws: Workspace| {
            let html = ws.reporting.render_dashboard(dashboard)?;
            span.set_bytes(html.len() as u64);
            Ok((html, dashboard.widget_count() as u64))
        })
    }

    /// Deliver a report payload to a user of the tenant's realm over a
    /// channel; any other recipient is [`PlatformError::NotFound`].
    pub fn deliver(
        &self,
        tenant: &str,
        token: &str,
        user: &str,
        report: &str,
        channel: Channel,
        payload: &ReportPayload,
    ) -> PlatformResult<String> {
        let op = (ServiceKind::Delivery, "deliver", "REPORT_VIEW");
        self.gate(tenant, token, op, report, |span, _, ws: Workspace| {
            if !self.admin.registry().realm(tenant)?.has_user(user) {
                return Err(PlatformError::NotFound(format!("user {user}")));
            }
            let delivered = ws.delivery.deliver(user, report, channel, payload);
            span.set_bytes(delivered.body.len() as u64);
            Ok((delivered.body, 1))
        })
    }

    /// The caller's own deliveries after `cursor`
    /// ([`DeliveryService::read`]), with what a `GET /api/v1/deliveries`
    /// long-poll parks on when there are none.
    pub fn deliveries(
        &self,
        tenant: &str,
        token: &str,
        cursor: u64,
    ) -> PlatformResult<DeliveryPoll> {
        let op = (ServiceKind::Delivery, "deliveries", "REPORT_VIEW");
        self.gate(tenant, token, op, "", |span, user, ws: Workspace| {
            let poll = DeliveryPoll::new(&ws.watch, &ws.delivery, user, cursor);
            span.set_rows(poll.read.entries.len() as u64);
            Ok((poll, 1))
        })
    }

    /// Materialize an aggregate for a registered cube; later MDX queries it
    /// covers are answered from the cache while it is fresh.
    pub fn materialize_aggregate(
        &self,
        tenant: &str,
        token: &str,
        cube_name: &str,
        axes: Vec<LevelRef>,
        measures: Vec<String>,
    ) -> PlatformResult<usize> {
        let op = (
            ServiceKind::Analysis,
            "aggregate.materialize",
            "CUBE_DESIGN",
        );
        self.gate(tenant, token, op, cube_name, |span, _, ws: Workspace| {
            let cells = ws.materialize(cube_name, axes, measures)?;
            span.set_rows(cells as u64);
            Ok((cells, 1 + cells as u64))
        })
    }

    /// Upload a report template into a tenant report group (the BIRT
    /// upload path of §3.3).
    pub fn upload_template(
        &self,
        tenant: &str,
        token: &str,
        group: &str,
        template: ReportTemplate,
    ) -> PlatformResult<()> {
        let op = (ServiceKind::Reporting, "template.upload", "REPORT_DESIGN");
        self.gate(tenant, token, op, "", |span, _, ws: Workspace| {
            span.set_detail(&template.name);
            if !ws.reporting.group_names().contains(&group.to_string()) {
                ws.reporting.create_group(group)?;
            }
            ws.reporting
                .register(group, odbis_reporting::Report::Template(template))?;
            Ok(((), 1))
        })
    }

    /// Execute an uploaded template with parameters against the tenant
    /// warehouse (the BIRT viewer path).
    pub fn run_template(
        &self,
        tenant: &str,
        token: &str,
        group: &str,
        name: &str,
        params: &std::collections::BTreeMap<String, odbis_storage::Value>,
    ) -> PlatformResult<RenderedReport> {
        let op = (ServiceKind::Reporting, "template.run", "REPORT_VIEW");
        self.gate(tenant, token, op, name, |span, _, ws: Workspace| {
            let odbis_reporting::Report::Template(template) = ws.reporting.report(group, name)?
            else {
                return Err(PlatformError::Reporting(format!(
                    "{group}/{name} is not a template"
                )));
            };
            let rendered = odbis_reporting::run_template(&template, params, &ws.warehouse)?;
            span.set_bytes(rendered.html.len() as u64);
            let units = 1 + rendered.queries_run as u64;
            Ok((rendered, units))
        })
    }

    // ---- administration (tenant-scoped reads) ---------------------------------

    /// The caller's tenant's lines of the usage report. Unmetered.
    pub fn tenant_usage(&self, tenant: &str, token: &str) -> PlatformResult<Vec<UsageLine>> {
        let op = (ServiceKind::Admin, "usage.read", "ADMIN_USERS");
        self.gate(tenant, token, op, "", |_, _, ()| {
            let mut lines = self.admin.usage_report();
            lines.retain(|l| l.tenant == tenant);
            Ok((lines, 0))
        })
    }

    /// The caller's tenant's lines of the pay-as-you-go invoice.
    /// Unmetered.
    pub fn tenant_invoice(&self, tenant: &str, token: &str) -> PlatformResult<Vec<CostLine>> {
        let op = (ServiceKind::Admin, "invoice.read", "ADMIN_USERS");
        self.gate(tenant, token, op, "", |_, _, ()| {
            let mut lines = self.admin.invoice_report();
            lines.retain(|l| l.tenant == tenant);
            Ok((lines, 0))
        })
    }

    /// The caller's tenant's slow-log entries, oldest first. Unmetered.
    pub fn tenant_slowlog(&self, tenant: &str, token: &str) -> PlatformResult<Vec<SlowEntry>> {
        let op = (ServiceKind::Admin, "slowlog.read", "ADMIN_USERS");
        self.gate(tenant, token, op, "", |_, _, ()| {
            let mut entries = self.admin.telemetry.slow_log();
            entries.retain(|e| e.tenant == tenant);
            Ok((entries, 0))
        })
    }

    /// The caller's tenant's metric series, as Prometheus text, labelled
    /// `tenant="..."` (`GET /api/v1/admin/metrics`). Unmetered.
    pub fn tenant_metrics(&self, tenant: &str, token: &str) -> PlatformResult<String> {
        let op = (ServiceKind::Admin, "metrics.read", "ADMIN_USERS");
        self.gate(tenant, token, op, "", |_, _, ()| {
            Ok((self.render_metrics(Some(tenant)), 0))
        })
    }

    /// The platform's metric families in the Prometheus text format: the
    /// telemetry spine's, live sessions, WAL volume, aggregate maintenance
    /// and admission verdicts. With `Some(tenant)` they are that tenant's
    /// series, labelled `tenant="..."`; with `None` they are the node's
    /// totals, and no series names a tenant — what the public scrape
    /// serves.
    pub(crate) fn render_metrics(&self, tenant: Option<&str>) -> String {
        let mut body = self.admin.telemetry.render_prometheus(tenant);
        // live sessions per tenant realm (expired sessions are swept on
        // login and excluded from the count either way)
        let sessions: Vec<(String, u64)> = (self.admin.registry().tenant_ids().into_iter())
            .filter_map(|id| {
                let realm = self.admin.registry().realm(&id).ok()?;
                Some((id, realm.session_count() as u64))
            })
            .collect();
        push_tenant_series(
            &mut body,
            "gauge",
            &[("odbis_sessions_active", "Live sessions.", |n: &u64| *n)],
            &sessions,
            tenant,
        );
        // WAL volume per attached durable workspace, read from the log
        // that counts it
        push_tenant_series(
            &mut body,
            "counter",
            &[
                (
                    "odbis_wal_appends_total",
                    "WAL statements appended (one frame each).",
                    |s: &WalStats| s.appends,
                ),
                (
                    "odbis_wal_bytes_total",
                    "WAL bytes appended (frames included).",
                    |s| s.bytes,
                ),
            ],
            &self.wal_stats(),
            tenant,
        );
        // aggregate maintenance per workspace, summed where publications
        // apply their deltas
        push_tenant_series(
            &mut body,
            "counter",
            &[
                (
                    "odbis_aggregate_folds_total",
                    "Insert deltas folded into materialized aggregates (once per aggregate).",
                    |r: &DeltaReport| r.folded as u64,
                ),
                (
                    "odbis_aggregate_rebuilds_total",
                    "Materialized aggregates rebuilt from the warehouse.",
                    |r| r.rebuilt as u64,
                ),
            ],
            &self.aggregate_stats(),
            tenant,
        );
        // admission-control verdicts, counted at the server edge
        body.push_str(&self.admission.render_prometheus(tenant));
        body
    }

    // ---- MDDWS -----------------------------------------------------------------

    /// Create a model-driven DW project in the tenant workspace.
    pub fn create_dw_project(&self, tenant: &str, token: &str, name: &str) -> PlatformResult<()> {
        let op = (ServiceKind::Admin, "dw.project.create", "CUBE_DESIGN");
        self.gate(tenant, token, op, name, |_, _, ws: Workspace| {
            let mut projects = ws.projects.lock();
            if projects.contains_key(name) {
                return Err(PlatformError::Mddws(format!("project {name} exists")));
            }
            projects.insert(name.to_string(), DwProject::new(name));
            Ok(((), 1))
        })
    }

    /// Run a closure against a tenant's DW project.
    pub fn with_dw_project<R>(
        &self,
        tenant: &str,
        token: &str,
        name: &str,
        f: impl FnOnce(&mut DwProject) -> PlatformResult<R>,
    ) -> PlatformResult<R> {
        let op = (ServiceKind::Admin, "dw.project.run", "CUBE_DESIGN");
        self.gate(tenant, token, op, name, |_, _, ws: Workspace| {
            let mut projects = ws.projects.lock();
            let project = projects
                .get_mut(name)
                .ok_or_else(|| PlatformError::Mddws(format!("unknown project {name}")))?;
            Ok((f(project)?, 1))
        })
    }
}

/// What a tenant call runs against. [`OdbisPlatform::gate`] looks it up
/// once the caller is authorized; a miss fails the call with the scope's
/// own error.
trait Scope: Sized {
    fn lookup(platform: &OdbisPlatform, tenant: &str) -> PlatformResult<Self>;
}

/// The tenant's workspace; a miss is `Moved` (307) or `Tenancy` (402).
impl Scope for Workspace {
    fn lookup(platform: &OdbisPlatform, tenant: &str) -> PlatformResult<Self> {
        platform.workspace(tenant)
    }
}

/// The workspace and its durable store; a miss is `Storage` (500) on an
/// in-memory platform, else `NotFound` (404).
impl Scope for Durable {
    fn lookup(platform: &OdbisPlatform, tenant: &str) -> PlatformResult<Self> {
        platform.durable_store(tenant)
    }
}

/// Nothing past the realm: a call over the tenant's users or this node's
/// meters.
impl Scope for () {
    fn lookup(_: &OdbisPlatform, _: &str) -> PlatformResult<Self> {
        Ok(())
    }
}

/// A Prometheus family: name, help text, and how to read a tenant's
/// sample off its stats.
type Family<S> = (&'static str, &'static str, fn(&S) -> u64);

/// Append one Prometheus family of `kind` per `(name, help, read)`: with
/// `Some(tenant)` that tenant's sample, labelled; with `None` one
/// unlabelled sample, the sum over every tenant.
fn push_tenant_series<S>(
    body: &mut String,
    kind: &str,
    families: &[Family<S>],
    per_tenant: &[(String, S)],
    tenant: Option<&str>,
) {
    for (name, help, read) in families {
        body.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        match tenant {
            None => {
                let total: u64 = per_tenant.iter().map(|(_, s)| read(s)).sum();
                body.push_str(&format!("{name} {total}\n"));
            }
            Some(t) => {
                for (_, stats) in per_tenant.iter().filter(|(id, _)| id == t) {
                    body.push_str(&format!("{name}{{tenant=\"{t}\"}} {}\n", read(stats)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> (OdbisPlatform, String) {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        (p, token)
    }

    #[test]
    fn provision_login_and_gate() {
        let (p, token) = boot();
        assert_eq!(p.authorize("acme", &token, "REPORT_VIEW").unwrap(), "root");
        assert!(matches!(
            p.authorize("acme", "bad-token", "REPORT_VIEW"),
            Err(PlatformError::Security(_))
        ));
        assert!(matches!(
            p.authorize("ghost", &token, "REPORT_VIEW"),
            Err(PlatformError::Tenancy(_))
        ));
        assert!(matches!(
            p.login("acme", "root", "wrong"),
            Err(PlatformError::Security(_))
        ));
    }

    #[test]
    fn sql_and_datasets_are_metered() {
        let (p, token) = boot();
        p.sql(
            "acme",
            &token,
            "CREATE TABLE sales (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql(
            "acme",
            &token,
            "INSERT INTO sales VALUES ('EU', 70), ('US', 30)",
        )
        .unwrap();
        p.define_dataset(
            "acme",
            &token,
            DataSet {
                name: "by_region".into(),
                source: "warehouse".into(),
                sql: "SELECT region, SUM(amount) AS total FROM sales GROUP BY region".into(),
                description: String::new(),
            },
        )
        .unwrap();
        let r = p.execute_dataset("acme", &token, "by_region").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(p.admin.meter().usage("acme", ServiceKind::Metadata) >= 4);
    }

    #[test]
    fn least_privilege_users_are_denied_design_calls() {
        let (p, token) = boot();
        p.create_user("acme", &token, "viewer", "pw2", "ROLE_ANALYST")
            .unwrap();
        let viewer = p.login("acme", "viewer", "pw2").unwrap();
        // analysts can run datasets but not define tables
        assert!(matches!(
            p.sql("acme", &viewer, "CREATE TABLE x (a INT)"),
            Err(PlatformError::Security(_))
        ));
        assert!(matches!(
            p.create_user("acme", &viewer, "w2", "p", "ROLE_USER"),
            Err(PlatformError::Security(_))
        ));
    }

    #[test]
    fn suspended_tenant_is_locked_out() {
        let (p, token) = boot();
        p.admin
            .registry()
            .set_status("acme", odbis_tenancy::TenantStatus::Suspended)
            .unwrap();
        assert!(matches!(
            p.sql("acme", &token, "SELECT 1"),
            Err(PlatformError::Tenancy(_))
        ));
        assert!(matches!(
            p.login("acme", "root", "pw"),
            Err(PlatformError::Tenancy(_))
        ));
    }

    #[test]
    fn tenant_workspaces_are_isolated() {
        let (p, token_a) = boot();
        p.provision_tenant("beta", "Beta", SubscriptionPlan::free(), "root", "pw")
            .unwrap();
        let token_b = p.login("beta", "root", "pw").unwrap();
        p.sql("acme", &token_a, "CREATE TABLE secrets (v TEXT)")
            .unwrap();
        // beta's warehouse has no such table
        assert!(matches!(
            p.sql("beta", &token_b, "SELECT * FROM secrets"),
            Err(PlatformError::Sql(_))
        ));
        // tokens don't cross tenants
        assert!(p.authorize("beta", &token_a, "REPORT_VIEW").is_err());
    }

    #[test]
    fn cube_registration_and_mdx() {
        let (p, token) = boot();
        p.sql(
            "acme",
            &token,
            "CREATE TABLE fact_s (y INT, region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql(
            "acme",
            &token,
            "INSERT INTO fact_s VALUES (2009, 'EU', 10), (2010, 'EU', 40), (2010, 'US', 5)",
        )
        .unwrap();
        let cube = CubeDef {
            name: "s".into(),
            fact_table: "fact_s".into(),
            dimensions: vec![
                odbis_olap::DimensionDef {
                    name: "time".into(),
                    table: None,
                    fact_fk: String::new(),
                    dim_key: String::new(),
                    levels: vec![odbis_olap::LevelDef {
                        name: "year".into(),
                        column: "y".into(),
                    }],
                },
                odbis_olap::DimensionDef {
                    name: "geo".into(),
                    table: None,
                    fact_fk: String::new(),
                    dim_key: String::new(),
                    levels: vec![odbis_olap::LevelDef {
                        name: "region".into(),
                        column: "region".into(),
                    }],
                },
            ],
            measures: vec![odbis_olap::MeasureDef {
                name: "revenue".into(),
                column: "amount".into(),
                aggregator: odbis_olap::Aggregator::Sum,
            }],
        };
        p.register_cube("acme", &token, cube).unwrap();
        let cells = p
            .mdx(
                "acme",
                &token,
                "SELECT revenue BY geo.region FROM s WHERE time.year = 2010",
            )
            .unwrap();
        assert_eq!(
            cells.cell(&["EU".into()]).unwrap(),
            &[odbis_storage::Value::Float(40.0)]
        );
        assert!(matches!(
            p.mdx("acme", &token, "SELECT revenue BY geo.region FROM nocube"),
            Err(PlatformError::Olap(_))
        ));
    }

    #[test]
    fn billing_reflects_usage() {
        let (p, token) = boot();
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        for i in 0..10 {
            p.sql("acme", &token, &format!("INSERT INTO t VALUES ({i})"))
                .unwrap();
        }
        let invoices = p.admin.billing_run();
        assert_eq!(invoices.len(), 1);
        assert!(invoices[0].units >= 11);
        assert_eq!(invoices[0].plan, "standard");
    }

    #[test]
    fn dw_project_via_platform() {
        let (p, token) = boot();
        p.create_dw_project("acme", &token, "dw1").unwrap();
        assert!(matches!(
            p.create_dw_project("acme", &token, "dw1"),
            Err(PlatformError::Mddws(_))
        ));
        let ws = p.workspace("acme").unwrap();
        let warehouse = Arc::clone(&ws.warehouse);
        let created = p
            .with_dw_project("acme", &token, "dw1", |project| {
                let mut bcim =
                    odbis_metamodel::ModelRepository::new("bcim", odbis_mddws::cim_metamodel());
                let prop = bcim
                    .create(
                        "BusinessProperty",
                        vec![("name", "amount".into()), ("valueType", "NUMBER".into())],
                    )
                    .map_err(|e| PlatformError::Mddws(e.to_string()))?;
                bcim.create(
                    "BusinessConcept",
                    vec![
                        ("name", "orders".into()),
                        ("kind", "FACT".into()),
                        (
                            "properties",
                            odbis_metamodel::AttrValue::RefList(vec![prop]),
                        ),
                    ],
                )
                .map_err(|e| PlatformError::Mddws(e.to_string()))?;
                project
                    .run_layer_pipeline(
                        odbis_mddws::DwLayer::Warehouse,
                        bcim,
                        "ODBIS-STORAGE",
                        &warehouse,
                    )
                    .map_err(PlatformError::from)
            })
            .unwrap();
        assert_eq!(created, vec!["fact_orders"]);
        // the MDA-deployed table is queryable through the normal SQL path
        let r = p
            .sql("acme", &token, "SELECT COUNT(*) FROM fact_orders")
            .unwrap();
        assert_eq!(r.rows[0][0], odbis_storage::Value::Int(0));
    }
}

/// Cube `name` over `fact (region TEXT, amount DOUBLE)`: SUM(amount) as
/// `revenue`, by the degenerate level `geo.region`.
#[cfg(test)]
fn region_cube(name: &str, fact: &str) -> CubeDef {
    CubeDef {
        name: name.into(),
        fact_table: fact.into(),
        dimensions: vec![odbis_olap::DimensionDef {
            name: "geo".into(),
            table: None,
            fact_fk: String::new(),
            dim_key: String::new(),
            levels: vec![odbis_olap::LevelDef {
                name: "region".into(),
                column: "region".into(),
            }],
        }],
        measures: vec![odbis_olap::MeasureDef {
            name: "revenue".into(),
            column: "amount".into(),
            aggregator: odbis_olap::Aggregator::Sum,
        }],
    }
}

#[cfg(test)]
mod preagg_tests {
    use super::*;
    use odbis_olap::CubeQuery;
    use odbis_storage::Value;

    /// Tenant `acme` with table `f` holding `rows` and cube `c` over it.
    fn region_fact(rows: &str) -> (OdbisPlatform, String) {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        p.sql(
            "acme",
            &token,
            "CREATE TABLE f (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql("acme", &token, &format!("INSERT INTO f VALUES {rows}"))
            .unwrap();
        p.register_cube("acme", &token, region_cube("c", "f"))
            .unwrap();
        (p, token)
    }

    /// Materialize revenue by region for `cube`; returns its cell count.
    fn materialize(p: &OdbisPlatform, token: &str, cube: &str) -> usize {
        let by_region = vec![LevelRef::new("geo", "region")];
        p.materialize_aggregate("acme", token, cube, by_region, vec!["revenue".into()])
            .unwrap()
    }

    /// Cube `c`'s EU revenue from its aggregate (`None` while the
    /// aggregate is stale) and from a live query.
    fn eu_revenue(p: &OdbisPlatform) -> (Option<Value>, Value) {
        let ws = p.workspace("acme").unwrap();
        let q = CubeQuery {
            axes: vec![LevelRef::new("geo", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        let eu = |cells: CellSet| cells.cell(&["EU".into()]).unwrap()[0].clone();
        let cached = ws.agg_cache.read().try_answer("c", &q).map(eu);
        let live = eu(ws.cubes.query(&region_cube("c", "f"), &q).unwrap());
        (cached, live)
    }

    #[test]
    fn mdx_answers_from_materialized_aggregate_when_enabled() {
        let (p, token) = region_fact("('EU', 10), ('EU', 20), ('US', 5)");
        assert_eq!(materialize(&p, &token, "c"), 2);
        // the materialized aggregate answers covered MDX queries
        let via_cache = p
            .mdx("acme", &token, "SELECT revenue BY geo.region FROM c")
            .unwrap();
        assert_eq!(
            via_cache.cell(&["EU".into()]).unwrap(),
            &[odbis_storage::Value::Float(30.0)]
        );
        // a warehouse write invalidates the aggregate: MDX sees fresh rows,
        // never a stale cached cell
        p.sql("acme", &token, "INSERT INTO f VALUES ('EU', 100)")
            .unwrap();
        let after_write = p
            .mdx("acme", &token, "SELECT revenue BY geo.region FROM c")
            .unwrap();
        assert_eq!(
            after_write.cell(&["EU".into()]).unwrap(),
            &[odbis_storage::Value::Float(130.0)]
        );
        // and the answer is the live ROLAP query's, cell for cell
        let ws = p.workspace("acme").unwrap();
        let stmt = odbis_olap::parse_mdx("SELECT revenue BY geo.region FROM c").unwrap();
        let live = ws.cubes.query(&region_cube("c", "f"), &stmt.query).unwrap();
        assert_eq!(after_write.cells, live.cells);
    }

    /// A load of `csv` into `f` in `mode`.
    fn load_f(mode: odbis_etl::LoadMode, csv: &str) -> EtlJob {
        EtlJob {
            name: "load_f".into(),
            extractor: odbis_etl::Extractor::Csv(csv.into()),
            transforms: vec![],
            loader: odbis_etl::Loader {
                table: "f".into(),
                mode,
            },
        }
    }

    #[test]
    fn etl_load_invalidates_materialized_aggregates() {
        let (p, token) = region_fact("('EU', 10), ('US', 5)");
        materialize(&p, &token, "c");
        // load more fact rows through the integration service
        let job = load_f(odbis_etl::LoadMode::Append, "region,amount\nEU,90\n");
        let report = p.run_etl("acme", &token, &job).unwrap();
        assert_eq!(report.loaded, 1);
        // the pre-ETL aggregate must not answer any more
        let cells = p
            .mdx("acme", &token, "SELECT revenue BY geo.region FROM c")
            .unwrap();
        assert_eq!(
            cells.cell(&["EU".into()]).unwrap(),
            &[odbis_storage::Value::Float(100.0)]
        );
    }

    /// Regression pin for scoped invalidation: before the streaming-BI
    /// change, any ETL load cleared the *whole* aggregate cache, so a load
    /// into one table silently evicted every other cube's materialization.
    /// Now invalidation is delta-scoped: a load into `f` must leave the
    /// aggregate over the untouched `g` registered, fresh, and answering.
    #[test]
    fn etl_load_leaves_unrelated_cubes_aggregate_intact() {
        let (p, token) = region_fact("('EU', 10), ('US', 5)");
        p.sql(
            "acme",
            &token,
            "CREATE TABLE g (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql(
            "acme",
            &token,
            "INSERT INTO g VALUES ('EU', 7), ('APAC', 3)",
        )
        .unwrap();
        p.register_cube("acme", &token, region_cube("d", "g"))
            .unwrap();
        for cube in ["c", "d"] {
            materialize(&p, &token, cube);
        }

        // the ETL load touches only `f`
        let job = load_f(odbis_etl::LoadMode::Append, "region,amount\nEU,90\n");
        p.run_etl("acme", &token, &job).unwrap();

        // both aggregates are still registered (the pre-fix blanket clear
        // left the cache empty here) and the unrelated one still answers
        // straight from its cells
        let ws = p.workspace("acme").unwrap();
        assert_eq!(ws.agg_cache.read().len(), 2, "an aggregate was evicted");
        let q = CubeQuery {
            axes: vec![LevelRef::new("geo", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        let unrelated = ws
            .agg_cache
            .read()
            .try_answer("d", &q)
            .expect("unrelated cube's aggregate must survive the load");
        assert_eq!(
            unrelated.cells,
            vec![
                (vec![Value::Text("APAC".into())], vec![Value::Float(3.0)]),
                (vec![Value::Text("EU".into())], vec![Value::Float(7.0)]),
            ]
        );
        // and the loaded cube's aggregate reflects the new rows via MDX
        let loaded = p
            .mdx("acme", &token, "SELECT revenue BY geo.region FROM c")
            .unwrap();
        assert_eq!(loaded.cell(&["EU".into()]).unwrap(), &[Value::Float(100.0)]);
    }

    // A build or rebuild reads the live table, which may already hold rows
    // whose deltas are not applied yet; the three cases below each folded
    // such a row in a second time, and the aggregate silently diverged.

    /// A replace load journals `Truncate` then `InsertMany`: the rebuild
    /// the truncate forces reads the loaded rows (20 for 10 when they
    /// were also folded in).
    #[test]
    fn replace_load_into_an_aggregated_fact_table_counts_rows_once() {
        let (p, token) = region_fact("('EU', 10), ('US', 5)");
        materialize(&p, &token, "c");
        let job = load_f(odbis_etl::LoadMode::Replace, "region,amount\nEU,10\n");
        p.run_etl("acme", &token, &job).unwrap();
        assert_eq!(
            eu_revenue(&p),
            (Some(Value::Float(10.0)), Value::Float(10.0))
        );
    }

    /// An UPDATE and an INSERT commit before one publication: the
    /// UPDATE's rebuild reads the inserted row (11 for 6 when it was also
    /// folded in).
    #[test]
    fn update_and_insert_published_together_count_the_insert_once() {
        let (p, token) = region_fact("('EU', 10), ('US', 5)");
        materialize(&p, &token, "c");
        let ws = p.workspace("acme").unwrap();
        let sql = Engine::new();
        sql.execute(&ws.warehouse, "UPDATE f SET amount = 1 WHERE region = 'EU'")
            .unwrap();
        sql.execute(&ws.warehouse, "INSERT INTO f VALUES ('EU', 5)")
            .unwrap();
        ws.publish_deltas();
        assert_eq!(eu_revenue(&p), (Some(Value::Float(6.0)), Value::Float(6.0)));
    }

    /// A row commits and an aggregate is built before the row's delta is
    /// published: the build reads the row (11 for 6 when the publication
    /// also folded it in).
    #[test]
    fn row_committed_before_a_build_is_not_folded_in_again() {
        let (p, token) = region_fact("('EU', 1), ('US', 5)");
        let ws = p.workspace("acme").unwrap();
        Engine::new()
            .execute(&ws.warehouse, "INSERT INTO f VALUES ('EU', 5)")
            .unwrap();
        materialize(&p, &token, "c");
        ws.publish_deltas();
        assert_eq!(eu_revenue(&p), (Some(Value::Float(6.0)), Value::Float(6.0)));
    }

    /// A cube registered again answers from its new definition: the
    /// aggregates of the old one go with it, where they used to answer
    /// the old measure's sums under the new measure's name.
    #[test]
    fn a_cube_registered_again_answers_from_its_new_definition() {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        for sql in [
            "CREATE TABLE f (region TEXT, amount DOUBLE, qty DOUBLE)",
            "INSERT INTO f VALUES ('EU', 10, 1), ('US', 5, 2)",
        ] {
            p.sql("acme", &token, sql).unwrap();
        }
        p.register_cube("acme", &token, region_cube("c", "f"))
            .unwrap();
        materialize(&p, &token, "c");
        let mut by_qty = region_cube("c", "f");
        by_qty.measures[0].column = "qty".into();
        p.register_cube("acme", &token, by_qty.clone()).unwrap();
        let mdx = "SELECT revenue BY geo.region FROM c";
        let answered = p.mdx("acme", &token, mdx).unwrap();
        let ws = p.workspace("acme").unwrap();
        let query = odbis_olap::parse_mdx(mdx).unwrap().query;
        assert_eq!(
            answered.cells,
            ws.cubes.query(&by_qty, &query).unwrap().cells
        );
        assert_eq!(answered.cell(&["EU".into()]).unwrap(), &[Value::Float(1.0)]);
        assert!(ws.agg_cache.read().is_empty());
    }

    /// The same aggregate materialized again replaces the one kept, so a
    /// fact INSERT folds once, not once per call.
    #[test]
    fn the_same_aggregate_materialized_twice_is_kept_once() {
        let (p, token) = region_fact("('EU', 10), ('US', 5)");
        materialize(&p, &token, "c");
        materialize(&p, &token, "c");
        let ws = p.workspace("acme").unwrap();
        assert_eq!(ws.agg_cache.read().len(), 1);
        let before = ws.aggregate_totals();
        p.sql("acme", &token, "INSERT INTO f VALUES ('EU', 1)")
            .unwrap();
        assert_eq!(ws.aggregate_totals().folded - before.folded, 1);
        assert_eq!(
            eu_revenue(&p),
            (Some(Value::Float(11.0)), Value::Float(11.0))
        );
    }

    /// An aggregate with no axes is refused, as a view refuses SQL with
    /// no GROUP BY, and nothing is registered.
    #[test]
    fn an_aggregate_with_no_axes_is_refused_and_registers_nothing() {
        let (p, token) = region_fact("('EU', 10)");
        let refused = p
            .materialize_aggregate("acme", &token, "c", vec![], vec!["revenue".into()])
            .unwrap_err();
        assert!(refused.to_string().contains("no GROUP BY"), "{refused}");
        let ws = p.workspace("acme").unwrap();
        assert!(ws.agg_cache.read().is_empty());
    }
}

#[cfg(test)]
mod template_tests {
    use super::*;
    use odbis_reporting::{ParamDef, Section, TableSpec};
    use odbis_storage::DataType;

    #[test]
    fn upload_and_run_template_through_platform() {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        p.sql("acme", &token, "CREATE TABLE visits (dept TEXT, n INT)")
            .unwrap();
        p.sql(
            "acme",
            &token,
            "INSERT INTO visits VALUES ('Cardiology', 12), ('Oncology', 7)",
        )
        .unwrap();
        let template = ReportTemplate {
            name: "dept".into(),
            title: "Department report".into(),
            parameters: vec![ParamDef {
                name: "dept".into(),
                data_type: DataType::Text,
                default: None,
            }],
            sections: vec![Section::QueryTable {
                sql: "SELECT dept, n FROM visits WHERE dept = ${dept}".into(),
                spec: TableSpec {
                    title: "Visits".into(),
                    columns: vec![],
                    max_rows: None,
                },
            }],
        };
        p.upload_template("acme", &token, "standard-reports", template)
            .unwrap();
        let mut params = std::collections::BTreeMap::new();
        params.insert("dept".to_string(), odbis_storage::Value::from("Oncology"));
        let rendered = p
            .run_template("acme", &token, "standard-reports", "dept", &params)
            .unwrap();
        assert!(rendered.html.contains("Oncology"));
        assert!(rendered.html.contains("7"));
        assert!(!rendered.html.contains("Cardiology"));
        // missing param errors cleanly
        assert!(matches!(
            p.run_template(
                "acme",
                &token,
                "standard-reports",
                "dept",
                &Default::default()
            ),
            Err(PlatformError::Reporting(_))
        ));
    }

    /// A template whose section writes is refused before any section
    /// runs: the table, the MDX answer over its covering aggregate and
    /// the delta buffer are as they were.
    #[test]
    fn template_with_a_write_section_is_refused_and_writes_nothing() {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        p.sql(
            "acme",
            &token,
            "CREATE TABLE f (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql("acme", &token, "INSERT INTO f VALUES ('EU', 10), ('US', 5)")
            .unwrap();
        p.register_cube("acme", &token, region_cube("c", "f"))
            .unwrap();
        let by_region = vec![LevelRef::new("geo", "region")];
        p.materialize_aggregate("acme", &token, "c", by_region, vec!["revenue".into()])
            .unwrap();
        let query = |sql: &str| Section::QueryTable {
            sql: sql.into(),
            spec: TableSpec {
                title: sql.into(),
                columns: vec![],
                max_rows: None,
            },
        };
        let template = ReportTemplate {
            name: "sneaky".into(),
            title: "Sneaky".into(),
            parameters: vec![],
            sections: vec![
                query("SELECT region, amount FROM f"),
                query("INSERT INTO f VALUES ('EU', 100)"),
            ],
        };
        p.upload_template("acme", &token, "reports", template)
            .unwrap();
        let mdx = "SELECT revenue BY geo.region FROM c";
        let before = (
            p.sql("acme", &token, "SELECT * FROM f").unwrap().rows,
            p.mdx("acme", &token, mdx).unwrap(),
        );
        let refused = p.run_template("acme", &token, "reports", "sneaky", &Default::default());
        assert!(
            matches!(&refused, Err(PlatformError::Reporting(m)) if m.contains("only a SELECT")),
            "{refused:?}"
        );
        assert_eq!(p.workspace("acme").unwrap().deltas.pending(), 0);
        let after = (
            p.sql("acme", &token, "SELECT * FROM f").unwrap().rows,
            p.mdx("acme", &token, mdx).unwrap(),
        );
        assert_eq!(before, after);
    }
}

#[cfg(test)]
mod durability_tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("odbis-platform-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn boot_durable(dir: &std::path::Path) -> (OdbisPlatform, String) {
        let p = OdbisPlatform::with_data_dir(dir.to_path_buf());
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        (p, token)
    }

    #[test]
    fn durable_platform_recovers_committed_state() {
        let dir = tmp_dir("recover");
        {
            let (p, token) = boot_durable(&dir);
            p.sql("acme", &token, "CREATE TABLE orders (id INT, region TEXT)")
                .unwrap();
            p.sql(
                "acme",
                &token,
                "INSERT INTO orders VALUES (1, 'EU'), (2, 'US')",
            )
            .unwrap();
            p.sql("acme", &token, "DELETE FROM orders WHERE id = 2")
                .unwrap();
        } // platform dropped: simulated process exit, nothing checkpointed
        let (p2, token2) = boot_durable(&dir);
        let r = p2
            .sql("acme", &token2, "SELECT id, region FROM orders")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                odbis_storage::Value::Int(1),
                odbis_storage::Value::from("EU")
            ]]
        );
        // the recovered warehouse keeps journaling
        p2.sql("acme", &token2, "INSERT INTO orders VALUES (3, 'APAC')")
            .unwrap();
        let status = p2.durability_status("acme", &token2).unwrap();
        assert!(status.wal_appends >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_folds_wal_and_meters_telemetry() {
        let dir = tmp_dir("checkpoint");
        let (p, token) = boot_durable(&dir);
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        for i in 0..5 {
            p.sql("acme", &token, &format!("INSERT INTO t VALUES ({i})"))
                .unwrap();
        }
        let before = p.durability_status("acme", &token).unwrap();
        assert!(before.wal_appends >= 6);
        assert!(before.wal_file_len > 0);
        // the declared default: what the CI durability job exports, else never
        let declared = std::env::var("ODBIS_DURABILITY_FSYNC").unwrap_or_default();
        assert_eq!(before.fsync, FsyncPolicy::parse(&declared).as_str());
        let outcome = p.checkpoint_tenant("acme", &token).unwrap();
        assert_eq!(outcome.tenant, "acme");
        assert_eq!(outcome.tables, 1);
        assert!(outcome.wal_bytes_folded > 0);
        let after = p.durability_status("acme", &token).unwrap();
        assert_eq!(after.wal_file_len, 0);
        // the checkpoint is metered into telemetry; the WAL counters the
        // metrics endpoint serves are the log's own
        let prom = p.admin.telemetry.render_prometheus(Some("acme"));
        assert!(prom.contains("odbis_checkpoints_total{tenant=\"acme\"} 1"));
        let wal = p.wal_stats();
        assert_eq!(wal.len(), 1);
        assert_eq!(wal[0].0, "acme");
        assert_eq!(wal[0].1.appends, after.wal_appends);
        assert_eq!(wal[0].1.bytes, after.wal_bytes);
        // post-checkpoint restart recovers from the checkpoint alone
        drop(p);
        let (p2, token2) = boot_durable(&dir);
        let r = p2.sql("acme", &token2, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], odbis_storage::Value::Int(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 100-row INSERT is one WAL append and one delta: one preagg fold,
    /// and the folded cells equal a live query.
    #[test]
    fn hundred_row_insert_is_one_append_and_one_delta() {
        let dir = tmp_dir("batch");
        let (p, token) = boot_durable(&dir);
        p.sql(
            "acme",
            &token,
            "CREATE TABLE f (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql("acme", &token, "INSERT INTO f VALUES ('EU', 1), ('US', 2)")
            .unwrap();
        let cube = region_cube("c", "f");
        p.register_cube("acme", &token, cube.clone()).unwrap();
        let by_region = vec![LevelRef::new("geo", "region")];
        p.materialize_aggregate("acme", &token, "c", by_region, vec!["revenue".into()])
            .unwrap();

        let ws = p.workspace("acme").unwrap();
        let appends = p.durability_status("acme", &token).unwrap().wal_appends;
        // integer literals into a DOUBLE column: the delta carries the
        // coerced floats the table stores
        let values: Vec<String> = (0..100)
            .map(|i| format!("('{}', {i})", ["EU", "US"][i % 2]))
            .collect();
        let sql = format!("INSERT INTO f VALUES {}", values.join(", "));
        Engine::new().execute(&ws.warehouse, &sql).unwrap();
        let after = p.durability_status("acme", &token).unwrap().wal_appends;
        assert_eq!(after - appends, 1, "one frame for the whole statement");
        assert_eq!(ws.publish_deltas(), 1, "one delta for the whole statement");

        let q = odbis_olap::CubeQuery {
            axes: vec![LevelRef::new("geo", "region")],
            slices: vec![],
            measures: vec!["revenue".into()],
        };
        let folded = ws.agg_cache.read().try_answer("c", &q).expect("fresh");
        let eu = (0..100).step_by(2).sum::<usize>() as f64 + 1.0;
        assert_eq!(
            folded.cell(&["EU".into()]).unwrap(),
            &[odbis_storage::Value::Float(eu)]
        );
        assert_eq!(folded.cells, ws.cubes.query(&cube, &q).unwrap().cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A replace load is one statement — truncate plus the new rows — so
    /// it is one WAL append, and a reopen finds the new rows.
    #[test]
    fn replace_load_is_one_wal_append() {
        let dir = tmp_dir("replace");
        let (p, token) = boot_durable(&dir);
        p.sql(
            "acme",
            &token,
            "CREATE TABLE f (region TEXT, amount DOUBLE)",
        )
        .unwrap();
        p.sql(
            "acme",
            &token,
            "INSERT INTO f VALUES ('EU', 1), ('US', 2), ('EU', 3)",
        )
        .unwrap();
        let appends = p.durability_status("acme", &token).unwrap().wal_appends;
        let job = EtlJob {
            name: "reload_f".into(),
            extractor: odbis_etl::Extractor::Csv(
                "region,amount\nEU,10\nUS,20\nEU,30\nUS,40\nAPAC,50\n".into(),
            ),
            transforms: vec![],
            loader: odbis_etl::Loader {
                table: "f".into(),
                mode: odbis_etl::LoadMode::Replace,
            },
        };
        assert_eq!(p.run_etl("acme", &token, &job).unwrap().loaded, 5);
        let after = p.durability_status("acme", &token).unwrap().wal_appends;
        assert_eq!(after - appends, 1, "truncate and rows in one frame");
        drop(p);
        let (p2, token2) = boot_durable(&dir);
        let r = p2.sql("acme", &token2, "SELECT COUNT(*) FROM f").unwrap();
        assert_eq!(r.rows[0][0], odbis_storage::Value::Int(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_platform_reports_durability_unavailable() {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        assert!(p.workspace("acme").unwrap().durable.is_none());
        let err = p.durability_status("acme", &token).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::Storage(_) | PlatformError::NotFound(_)
        ));
        assert!(p.checkpoint_tenant("acme", &token).is_err());
    }

    #[test]
    fn fsync_policy_comes_from_configuration() {
        let dir = tmp_dir("fsync");
        let p = OdbisPlatform::with_data_dir(dir.clone());
        p.admin
            .config
            .set("durability.fsync", "always".into())
            .unwrap();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        let status = p.durability_status("acme", &token).unwrap();
        assert_eq!(status.fsync, "always");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    fn boot() -> (OdbisPlatform, String) {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        (p, token)
    }

    #[test]
    fn gate_spans_link_service_children_into_one_trace() {
        let (p, token) = boot();
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        p.admin.telemetry.reset();
        p.sql("acme", &token, "SELECT x FROM t").unwrap();
        let spans = p.admin.telemetry.recent_spans();
        let root = spans
            .iter()
            .find(|s| s.service == "MDS" && s.operation == "sql")
            .expect("gate root span");
        assert!(root.parent_id.is_none());
        let child = spans
            .iter()
            .find(|s| s.service == "sql")
            .expect("sql engine child span");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_eq!(child.tenant, "acme");
    }

    #[test]
    fn telemetry_totals_and_errors_accumulate() {
        let (p, token) = boot();
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        assert!(p.sql("acme", &token, "SELEKT broken").is_err());
        let totals = p.admin.telemetry.totals();
        let mds = totals
            .get(&("acme".to_string(), "MDS".to_string()))
            .expect("MDS totals");
        assert!(mds.requests >= 2);
        assert!(mds.errors >= 1);
    }

    #[test]
    fn slow_log_honors_configured_threshold() {
        let (p, token) = boot();
        // a 1ms threshold catches any non-trivial statement
        p.admin
            .config
            .set_for_tenant("acme", "telemetry.slow_ms", 1i64.into())
            .unwrap();
        p.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
        let mut insert = String::from("INSERT INTO t VALUES (0)");
        for i in 1..20_000 {
            insert.push_str(&format!(", ({i})"));
        }
        p.sql("acme", &token, &insert).unwrap();
        let slow = p.admin.telemetry.slow_log();
        assert!(!slow.is_empty());
        assert_eq!(slow[0].tenant, "acme");
        assert!(slow[0].trace_id > 0);
    }
}

#[cfg(test)]
mod view_tests {
    use super::*;
    use odbis_reporting::{ChartKind, ChartSpec, KpiSpec, TableSpec, Widget};

    const BY_REGION: &str = "SELECT d.region, COUNT(*) AS n, SUM(f.amount) AS revenue \
         FROM f JOIN dim d ON f.k = d.k GROUP BY d.region ORDER BY d.region";
    const TOP: &str = "SELECT k, SUM(amount) AS revenue FROM f \
         GROUP BY k ORDER BY revenue DESC, k LIMIT 2";

    /// A tenant with a fact table `f` over a dimension `dim`, and two data
    /// sets a view keeps plus one (`late`, with a WHERE) it does not.
    fn boot() -> (OdbisPlatform, String) {
        let p = OdbisPlatform::new();
        p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login("acme", "root", "pw").unwrap();
        for sql in [
            "CREATE TABLE dim (k INT, region TEXT)",
            "INSERT INTO dim VALUES (1, 'EU'), (2, 'US'), (3, 'EU')",
            "CREATE TABLE f (id INT, k INT, amount INT)",
            "INSERT INTO f VALUES (1, 1, 10), (2, 2, 20), (3, 3, 30), (4, NULL, 40), (5, 1, 5)",
        ] {
            p.sql("acme", &token, sql).unwrap();
        }
        let late = "SELECT k, COUNT(*) AS n FROM f WHERE amount > 15 GROUP BY k ORDER BY k";
        for (name, sql) in [("by_region", BY_REGION), ("top", TOP), ("late", late)] {
            let dataset = DataSet {
                name: name.into(),
                source: "warehouse".into(),
                sql: sql.into(),
                description: String::new(),
            };
            p.define_dataset("acme", &token, dataset).unwrap();
        }
        (p, token)
    }

    fn dashboard() -> Dashboard {
        Dashboard {
            name: "d".into(),
            title: "Sales".into(),
            rows: vec![vec![
                Widget::Chart {
                    dataset: "by_region".into(),
                    spec: ChartSpec {
                        title: "Revenue".into(),
                        kind: ChartKind::Bar,
                        category: "region".into(),
                        series: vec!["revenue".into(), "n".into()],
                    },
                },
                Widget::Table {
                    dataset: "top".into(),
                    spec: TableSpec {
                        title: "Top".into(),
                        columns: vec![],
                        max_rows: None,
                    },
                },
                Widget::Kpi {
                    dataset: "by_region".into(),
                    spec: KpiSpec {
                        title: "EU orders".into(),
                        value_column: "n".into(),
                        unit: String::new(),
                    },
                },
            ]],
        }
    }

    /// The services and operations of the spans the last call recorded.
    fn spans(p: &OdbisPlatform) -> Vec<(&'static str, String)> {
        let spans = p.admin.telemetry.recent_spans();
        spans
            .into_iter()
            .map(|s| (s.service, s.operation))
            .collect()
    }

    /// Each definition's span records its verdict: `view`, or the clause
    /// that refuses one.
    #[test]
    fn eligible_datasets_are_registered_as_views_and_the_rest_run_their_plan() {
        let (p, _) = boot();
        let verdicts: Vec<String> = (p.admin.telemetry.recent_spans().into_iter())
            .filter(|s| s.operation == "dataset.define")
            .map(|s| s.detail)
            .collect();
        assert_eq!(verdicts, ["by_region: view", "top: view", "late: WHERE"]);
        // a view answers only the SQL it was built from
        let ws = p.workspace("acme").unwrap();
        assert!(ws.agg_cache.read().view("top", BY_REGION).is_none());
    }

    /// A warm tile is a view read: an `olap`/`view.read` child of the
    /// gate's span, and no `sql` span. A data set a view does not keep
    /// still runs its plan.
    #[test]
    fn a_warm_tile_reads_its_view_and_runs_no_sql() {
        let (p, token) = boot();
        // both reads are the one gated read, under one operation name
        for rows in [true, false] {
            p.admin.telemetry.reset();
            if rows {
                p.execute_dataset("acme", &token, "by_region").unwrap();
            } else {
                p.execute_dataset_batch("acme", &token, "by_region")
                    .unwrap();
            }
            let recorded = p.admin.telemetry.recent_spans();
            let gated: Vec<_> = (recorded.iter())
                .filter(|s| s.parent_id.is_none())
                .collect();
            assert_eq!(gated.len(), 1, "{rows}");
            let root = gated[0];
            assert_eq!(root.operation, "dataset.run", "{rows}");
            let view = (recorded.iter())
                .find(|s| s.service == "olap" && s.operation == "view.read")
                .expect("view.read span");
            assert_eq!(view.parent_id, Some(root.span_id), "{rows}");
            assert_eq!(view.rows, 2, "{rows}");
            assert_eq!(view.detail, "by_region", "{rows}");
            assert!(!spans(&p).iter().any(|(s, _)| *s == "sql"), "{rows}");
        }
        p.admin.telemetry.reset();
        p.execute_dataset("acme", &token, "late").unwrap();
        let ran = spans(&p);
        assert!(ran.contains(&("sql", "execute.vectorized".to_string())));
        assert!(!ran.iter().any(|(s, _)| *s == "olap"));
    }

    /// The Figure 6 path reads tiles through the same function: a render
    /// over fresh views runs no SQL, and equals the render of the same
    /// dashboard with the views stale, which runs every tile's plan.
    #[test]
    fn a_dashboard_over_views_renders_as_over_plans() {
        let (p, token) = boot();
        p.sql("acme", &token, "INSERT INTO f VALUES (6, 2, 7), (7, 9, 1)")
            .unwrap();
        p.admin.telemetry.reset();
        let fresh = p.render_dashboard("acme", &token, &dashboard()).unwrap();
        let ran = spans(&p);
        assert!(!ran.iter().any(|(s, _)| *s == "sql"), "{ran:?}");
        assert_eq!(
            (ran.iter())
                .filter(|(s, o)| *s == "olap" && o == "view.read")
                .count(),
            3
        );

        let ws = p.workspace("acme").unwrap();
        ws.agg_cache.write().mark_stale_over("f");
        p.admin.telemetry.reset();
        let stale = p.render_dashboard("acme", &token, &dashboard()).unwrap();
        let ran = spans(&p);
        assert!(!ran.iter().any(|(s, _)| *s == "olap"), "{ran:?}");
        assert_eq!(ran.iter().filter(|(s, _)| *s == "sql").count(), 3);
        assert_eq!(fresh, stale);
    }

    /// Each fact INSERT folds into every view over its table and rebuilds
    /// none; a dimension write rebuilds the views that join it.
    #[test]
    fn views_count_in_the_aggregate_fold_and_rebuild_totals() {
        let (p, token) = boot();
        let totals = || {
            let stats = p.aggregate_stats();
            let (_, report) = stats.iter().find(|(t, _)| t == "acme").unwrap();
            (report.folded, report.rebuilt, report.dropped)
        };
        let before = totals();
        p.sql("acme", &token, "INSERT INTO f VALUES (8, 1, 1)")
            .unwrap();
        assert_eq!(totals(), (before.0 + 2, before.1, before.2));
        p.sql("acme", &token, "INSERT INTO dim VALUES (4, 'APAC')")
            .unwrap();
        assert_eq!(totals(), (before.0 + 2, before.1 + 1, before.2));
        p.sql("acme", &token, "DROP TABLE dim").unwrap();
        assert_eq!(totals(), (before.0 + 2, before.1 + 2, before.2 + 1));
        let ws = p.workspace("acme").unwrap();
        assert!(ws.agg_cache.read().view("by_region", BY_REGION).is_none());
        assert!(p.execute_dataset("acme", &token, "by_region").is_err());
        assert_eq!(
            p.execute_dataset("acme", &token, "top").unwrap().rows,
            p.sql("acme", &token, TOP).unwrap().rows
        );
        // a dropped data set's view is no longer maintained
        ws.mds.drop_dataset("top").unwrap();
        assert!(ws.agg_cache.read().is_empty());
        p.sql("acme", &token, "INSERT INTO f VALUES (9, 1, 1)")
            .unwrap();
        assert_eq!(totals(), (before.0 + 2, before.1 + 2, before.2 + 1));
    }
}
