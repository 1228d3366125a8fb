//! Shard-router / live-migration bench harness (experiment A10): an
//! in-process multi-node cluster — each node a full [`OdbisPlatform`]
//! behind its own [`HttpServer`] with a deliberately small handler pool
//! — driven by per-tenant writer threads issuing durable (fsync=always)
//! `INSERT`s over HTTP.
//!
//! ## What "a node" costs and what adding one buys
//!
//! A node's write capacity here is its handler pool: every insert holds
//! a handler worker through the WAL fsync, so a node admits at most
//! `workers_per_node` concurrent durable writes. The scaling experiment
//! holds the tenant fleet and writer count fixed while growing the
//! cluster, pinning tenants round-robin so each configuration is
//! balanced, and records aggregate acked writes/sec plus client-side
//! latency percentiles at each cluster size. On real hardware each node
//! brings its own cores and disk and the aggregate scales with the pool
//! count; in this reproduction every "node" shares one container vCPU,
//! so wall-clock gains are capped by that shared core and the recorded
//! ratios say so — the probe's report documents the ceiling rather than
//! hiding it.
//!
//! ## Routing
//!
//! Throughput writers route like a redirect-following smart client:
//! resolve the owner from the shared map before each request and talk
//! to it directly (one hop, the steady state after a 307). The
//! migration demo does the opposite — its writers keep hammering the
//! *original* owner's address throughout, so the proxy path and the
//! cutover window are both on the measured path.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odbis::{build_router, Cluster, MigrationReport, OdbisPlatform};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_request, HttpServer};

/// One cluster member: platform + its HTTP front door.
pub struct BenchNode {
    /// Node id in the cluster map.
    pub id: String,
    /// Bound listen address (`127.0.0.1:port`).
    pub addr: String,
    /// The node's platform.
    pub platform: Arc<OdbisPlatform>,
    server: HttpServer,
}

/// An n-node in-process cluster with every tenant's token.
pub struct BenchCluster {
    /// The shared fabric (map + membership).
    pub fabric: Arc<Cluster>,
    /// Members in id order (`node-0`, `node-1`, ...).
    pub nodes: Vec<BenchNode>,
    /// tenant → admin session token (valid on every node: identity is
    /// provisioned cluster-wide and sessions are adopted at cutover).
    pub tokens: Vec<(String, String)>,
    root: PathBuf,
}

impl BenchCluster {
    /// Boot `node_count` nodes (each with `workers_per_node` HTTP
    /// handler workers and fsync=always durability), provision
    /// `tenant_count` tenants pinned round-robin across the nodes, log
    /// each in and create its `f` fact table.
    pub fn start(
        node_count: usize,
        workers_per_node: usize,
        tenant_count: usize,
        tag: &str,
    ) -> BenchCluster {
        let root = std::env::var("ODBIS_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir())
            .join(format!("odbis-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let fabric = Cluster::new();
        let mut nodes = Vec::new();
        for i in 0..node_count {
            let id = format!("node-{i}");
            let platform = fabric.add_node(&id, root.join(&id)).expect("add node");
            platform
                .admin
                .config
                .set("durability.fsync", "always".into())
                .expect("declare fsync");
            let server = HttpServer::start(build_router(Arc::clone(&platform)), workers_per_node)
                .expect("start node server");
            let addr = server.addr().to_string();
            fabric.map().set_addr(&id, &addr);
            nodes.push(BenchNode {
                id,
                addr,
                platform,
                server,
            });
        }

        let mut tokens = Vec::new();
        for t in 0..tenant_count {
            let tenant = format!("t{t:03}");
            // round-robin pin: a balanced fleet at every cluster size
            fabric.map().pin(&tenant, &nodes[t % node_count].id);
            let owner = fabric
                .provision_tenant(&tenant, &tenant, SubscriptionPlan::standard(), "root", "pw")
                .expect("provision");
            let platform = fabric.node(&owner).expect("owner node");
            let token = platform.login(&tenant, "root", "pw").expect("login");
            platform
                .sql(&tenant, &token, "CREATE TABLE f (id INT PRIMARY KEY)")
                .expect("create fact table");
            tokens.push((tenant, token));
        }
        BenchCluster {
            fabric,
            nodes,
            tokens,
            root,
        }
    }

    /// Address of the node currently owning `tenant`, per the map.
    pub fn owner_addr(&self, tenant: &str) -> String {
        let owner = self.fabric.map().owner(tenant).expect("tenant routed");
        self.fabric.map().addr_of(&owner).expect("owner addr")
    }

    /// Shut the servers down and remove the data directories.
    pub fn teardown(self) {
        for node in self.nodes {
            node.server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Post one durable insert for `tenant` to `addr`; true iff acked (200).
pub fn insert_http(addr: &str, tenant: &str, token: &str, id: i64) -> bool {
    matches!(
        http_request(
            addr,
            "POST",
            "/api/v1/sql",
            &[
                ("x-tenant", tenant),
                ("Authorization", &format!("Bearer {token}"))
            ],
            format!("INSERT INTO f VALUES ({id})").as_bytes(),
        ),
        Ok((200, _, _))
    )
}

/// Where the writer threads aim their requests.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Resolve the owner from the map before each request and talk to
    /// it directly — the redirect-following smart-client steady state.
    MapFirst,
    /// Send everything to node 0 regardless of ownership, so every
    /// non-resident tenant's request takes the proxy hop. Measures the
    /// router tax.
    FixedEntry,
}

/// Aggregate result of a timed write run.
pub struct Throughput {
    /// Acked (200) writes/sec across the fleet over the timed window.
    pub acked_per_sec: f64,
    /// Median per-request latency, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_micros: u64,
}

/// One writer thread per tenant for `warmup + window`; returns the
/// aggregate acked rate and client-observed latency percentiles over
/// the timed window.
pub fn timed_write_throughput(
    cluster: &BenchCluster,
    routing: Routing,
    warmup: Duration,
    window: Duration,
) -> Throughput {
    let stop = Arc::new(AtomicBool::new(false));
    let counting = Arc::new(AtomicBool::new(false));
    let latencies: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::default();
    let entry = cluster.nodes[0].addr.clone();
    let workers: Vec<_> = cluster
        .tokens
        .iter()
        .enumerate()
        .map(|(w, (tenant, token))| {
            let map = Arc::clone(cluster.fabric.map());
            let (tenant, token) = (tenant.clone(), token.clone());
            let entry = entry.clone();
            let (stop, counting, latencies) = (
                Arc::clone(&stop),
                Arc::clone(&counting),
                Arc::clone(&latencies),
            );
            std::thread::spawn(move || {
                let mut id = (w as i64 + 1) * 10_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let addr = match routing {
                        Routing::FixedEntry => entry.clone(),
                        Routing::MapFirst => map
                            .owner(&tenant)
                            .and_then(|n| map.addr_of(&n))
                            .expect("owner addr"),
                    };
                    let started = Instant::now();
                    if insert_http(&addr, &tenant, &token, id) && counting.load(Ordering::Relaxed) {
                        latencies.lock().push(started.elapsed().as_micros() as u64);
                    }
                    id += 1;
                }
            })
        })
        .collect();

    std::thread::sleep(warmup);
    counting.store(true, Ordering::Relaxed);
    let started = Instant::now();
    std::thread::sleep(window);
    counting.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let mut lat = latencies.lock().clone();
    lat.sort_unstable();
    let pct = |q: f64| lat[((lat.len().max(1) - 1) as f64 * q) as usize];
    Throughput {
        acked_per_sec: lat.len() as f64 / elapsed.as_secs_f64(),
        p50_micros: pct(0.5),
        p99_micros: pct(0.99),
    }
}

/// Outcome of [`migrate_under_load`].
pub struct MigrationDemo {
    /// The fabric's migration report.
    pub report: MigrationReport,
    /// Writes acknowledged with 200 across the whole run.
    pub acked: BTreeSet<i64>,
    /// Requests that came back non-200 (caught mid-cutover and retried
    /// by id bump — the protocol only promises acked durability).
    pub rejected: u64,
    /// Ids actually present on the new owner afterwards.
    pub present: BTreeSet<i64>,
    /// `acked - present`: must be empty.
    pub lost: BTreeSet<i64>,
}

/// Live-migrate `tenant` to `target` while `writer_count` threads keep
/// writing **to the original owner's address** (exercising the proxy
/// before the flip and after it). Returns the acked/present audit.
pub fn migrate_under_load(
    cluster: &BenchCluster,
    tenant: &str,
    token: &str,
    target: &str,
    writer_count: usize,
) -> MigrationDemo {
    let origin = cluster.owner_addr(tenant);
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(parking_lot::Mutex::new(BTreeSet::new()));
    let rejected = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..writer_count as i64)
        .map(|w| {
            let (origin, tenant, token) = (origin.clone(), tenant.to_string(), token.to_string());
            let (stop, acked, rejected) =
                (Arc::clone(&stop), Arc::clone(&acked), Arc::clone(&rejected));
            std::thread::spawn(move || {
                let mut id = (w + 1) * 10_000_000;
                while !stop.load(Ordering::Relaxed) {
                    if insert_http(&origin, &tenant, &token, id) {
                        acked.lock().insert(id);
                    } else {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    id += 1;
                }
            })
        })
        .collect();

    // writers running — move the tenant out from under them
    while acked.lock().len() < 25 {
        std::thread::yield_now();
    }
    let report = cluster.fabric.migrate(tenant, target).expect("migration");
    // keep load on the (now proxying) old address past the flip
    let after = acked.lock().len();
    while acked.lock().len() < after + 25 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    let new_owner = cluster.fabric.node(target).expect("target node");
    let result = new_owner
        .sql(tenant, token, "SELECT id FROM f")
        .expect("post-migration scan");
    let present: BTreeSet<i64> = result
        .rows
        .iter()
        .map(|row| match &row[0] {
            odbis_storage::Value::Int(v) => *v,
            other => panic!("non-int id: {other:?}"),
        })
        .collect();
    let acked = Arc::try_unwrap(acked)
        .map(parking_lot::Mutex::into_inner)
        .unwrap_or_else(|a| a.lock().clone());
    let lost: BTreeSet<i64> = acked.difference(&present).copied().collect();
    MigrationDemo {
        report,
        acked,
        rejected: rejected.load(Ordering::Relaxed),
        present,
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_scales_and_migrates() {
        let cluster = BenchCluster::start(2, 2, 2, "selftest");
        let t = timed_write_throughput(
            &cluster,
            Routing::MapFirst,
            Duration::from_millis(50),
            Duration::from_millis(200),
        );
        assert!(t.acked_per_sec > 0.0, "no writes acked");
        assert!(t.p99_micros >= t.p50_micros);
        let (tenant, token) = cluster.tokens[0].clone();
        let owner = cluster.fabric.map().owner(&tenant).unwrap();
        let target = if owner == "node-0" {
            "node-1"
        } else {
            "node-0"
        };
        let demo = migrate_under_load(&cluster, &tenant, &token, target, 2);
        assert!(demo.lost.is_empty(), "acked writes lost: {:?}", demo.lost);
        assert_eq!(demo.report.to, target);
        cluster.teardown();
    }
}
