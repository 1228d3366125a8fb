//! Boots the platform the way a deployment does — a two-node in-process
//! [`Cluster`], each node an `OdbisPlatform::with_data_dir` behind
//! `serve_platform(.., 2)` on the reactor — and loads tenants' marts over
//! the nodes' own HTTP API.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use odbis::{serve_platform, Cluster, OdbisPlatform};
use odbis_metadata::DataSet;
use odbis_olap::{Aggregator, CubeDef, DimensionDef, LevelDef, LevelRef, MeasureDef};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::HttpServer;

use crate::client::{self, Conn};
use crate::mart::Mart;

/// Handler workers per node: one per core of the 2-vCPU reference host.
pub const WORKERS: usize = 2;
/// Rows per multi-`VALUES` statement while loading.
const LOAD_CHUNK: usize = 500;
pub const PASSWORD: &str = "o2p-bench";

pub struct TenantSpec {
    pub id: String,
    /// Owning node (0 is the entry node all measured traffic is sent to).
    pub node: usize,
    pub rows: usize,
    pub customers: i64,
    /// `durability.fsync = always` instead of the default `never`.
    pub fsync_always: bool,
    pub seed: u64,
}

pub struct Tenant {
    pub id: String,
    pub token: String,
    pub node: usize,
    pub mart: Mart,
}

impl Tenant {
    /// A request for this tenant with bearer auth, serialized once.
    pub fn request(&self, method: &str, path: &str, extra: &[(&str, &str)], body: &str) -> Vec<u8> {
        let bearer = format!("Bearer {}", self.token);
        let mut headers = vec![
            ("x-tenant", self.id.as_str()),
            ("Authorization", bearer.as_str()),
        ];
        headers.extend_from_slice(extra);
        client::request(method, path, &headers, body)
    }

    pub fn sql_request(&self, sql: &str) -> Vec<u8> {
        self.request("POST", "/api/v1/sql", &[], sql)
    }

    pub fn dataset_path(name: &str) -> String {
        format!("/api/v1/datasets/{name}")
    }
}

pub struct Node {
    pub platform: Arc<OdbisPlatform>,
    pub addr: String,
    server: HttpServer,
}

pub struct World {
    pub root: PathBuf,
    pub fabric: Arc<Cluster>,
    pub nodes: Vec<Node>,
    pub tenants: Vec<Tenant>,
}

pub fn o2p_cube() -> CubeDef {
    let level = |name: &str| LevelDef {
        name: name.into(),
        column: name.into(),
    };
    CubeDef {
        name: "o2p".into(),
        fact_table: "fact_order".into(),
        dimensions: vec![
            DimensionDef {
                name: "channel".into(),
                table: Some("dim_channel".into()),
                fact_fk: "channel_id".into(),
                dim_key: "channel_id".into(),
                levels: vec![level("name")],
            },
            DimensionDef {
                name: "time".into(),
                table: Some("dim_date".into()),
                fact_fk: "date_key".into(),
                dim_key: "date_key".into(),
                levels: vec![level("year"), level("month")],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "revenue".into(),
                column: "amount".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "orders".into(),
                column: "order_id".into(),
                aggregator: Aggregator::Count,
            },
        ],
    }
}

pub fn o2p_aggregate_axes() -> Vec<LevelRef> {
    vec![
        LevelRef::new("channel", "name"),
        LevelRef::new("time", "year"),
    ]
}

pub fn o2p_aggregate_measures() -> Vec<String> {
    vec!["revenue".to_string(), "orders".to_string()]
}

impl World {
    /// Boot two nodes under `root` and provision, load and describe every
    /// tenant in `specs`. Everything here counts as set-up time.
    pub fn boot(root: &Path, specs: &[TenantSpec]) -> Result<World, String> {
        let _ = std::fs::remove_dir_all(root);
        let fabric = Cluster::new();
        let mut nodes = Vec::new();
        for i in 0..2 {
            let id = format!("node-{i}");
            let platform = fabric
                .add_node(&id, root.join(&id))
                .map_err(|e| format!("add {id}: {e}"))?;
            let server =
                serve_platform(&platform, WORKERS).map_err(|e| format!("serve {id}: {e}"))?;
            let addr = server.addr().to_string();
            fabric.map().set_addr(&id, &addr);
            nodes.push(Node {
                platform,
                addr,
                server,
            });
        }
        let mut world = World {
            root: root.to_path_buf(),
            fabric,
            nodes,
            tenants: Vec::new(),
        };
        for spec in specs {
            let tenant = world.provision(spec)?;
            world.tenants.push(tenant);
        }
        Ok(world)
    }

    fn provision(&self, spec: &TenantSpec) -> Result<Tenant, String> {
        let node = &self.nodes[spec.node];
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", spec.id);
        self.fabric
            .map()
            .pin(&spec.id, &format!("node-{}", spec.node));
        if spec.fsync_always {
            node.platform
                .admin
                .config
                .set_for_tenant(&spec.id, "durability.fsync", "always".into())
                .map_err(|e| err("fsync", &e))?;
        }
        self.fabric
            .provision_tenant(
                &spec.id,
                &spec.id,
                SubscriptionPlan::standard(),
                "root",
                PASSWORD,
            )
            .map_err(|e| err("provision", &e))?;

        // log in and load through the owner's front door, like an ETL client
        let mut conn = Conn::open(&node.addr).map_err(|e| err("connect", &e))?;
        let login = serde_json::json!({"tenant": spec.id, "user": "root", "password": PASSWORD});
        let resp = conn
            .call(&client::request(
                "POST",
                "/api/v1/login",
                &[],
                &login.to_string(),
            ))
            .map_err(|e| err("login", &e))?;
        let token = std::str::from_utf8(resp.body)
            .ok()
            .and_then(|body| serde_json::from_str::<serde_json::Value>(body).ok())
            .and_then(|v| v["token"].as_str().map(str::to_string))
            .ok_or_else(|| err("login", &"no token in response"))?;
        let mut tenant = Tenant {
            id: spec.id.clone(),
            token,
            node: spec.node,
            mart: Mart::new(spec.seed, spec.customers),
        };

        let mut statements = Mart::schema_sql();
        statements.extend(tenant.mart.dimension_sql(LOAD_CHUNK));
        for chunk in tenant.mart.extend(spec.rows).chunks(LOAD_CHUNK) {
            statements.push(crate::mart::insert_facts_sql(chunk));
        }
        for sql in &statements {
            let resp = conn
                .call(&tenant.sql_request(sql))
                .map_err(|e| err("load", &e))?;
            if resp.status != 200 {
                return Err(err("load", &String::from_utf8_lossy(resp.body)));
            }
        }

        let p = &node.platform;
        for (name, sql) in Mart::datasets() {
            let dataset = DataSet {
                name: name.into(),
                source: "warehouse".into(),
                sql,
                description: String::new(),
            };
            p.define_dataset(&tenant.id, &tenant.token, dataset)
                .map_err(|e| err("dataset", &e))?;
        }
        p.register_cube(&tenant.id, &tenant.token, o2p_cube())
            .map_err(|e| err("cube", &e))?;
        p.materialize_aggregate(
            &tenant.id,
            &tenant.token,
            "o2p",
            o2p_aggregate_axes(),
            o2p_aggregate_measures(),
        )
        .map_err(|e| err("aggregate", &e))?;
        Ok(tenant)
    }

    /// Address of the entry node: all measured traffic goes here.
    pub fn entry(&self) -> &str {
        &self.nodes[0].addr
    }

    /// A tenant's data directory on its owning node.
    pub fn tenant_dir(&self, tenant: &Tenant) -> PathBuf {
        self.root
            .join(format!("node-{}", tenant.node))
            .join(&tenant.id)
    }

    /// Stop both servers and drop the platforms with no final checkpoint —
    /// what a crash leaves behind, minus the unflushed page cache the
    /// durability check cuts away itself. The data directory stays.
    pub fn halt(self) -> PathBuf {
        for node in self.nodes {
            node.server.shutdown();
        }
        self.root
    }
}
