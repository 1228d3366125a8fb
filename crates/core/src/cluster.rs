//! In-process multi-node cluster: tenant shard routing and live
//! migration.
//!
//! The paper's platform is a single Tomcat/PostgreSQL pair; growing it
//! to many nodes needs two things this module provides. First a
//! **shard router**: a [`ClusterMap`] shared by every node that assigns
//! each tenant an owner node by consistent hashing (so adding a node
//! moves only its share of tenants) with explicit **pins** overriding
//! the hash for tenants that have been migrated. Second a **migration
//! protocol** that moves a live tenant between nodes without dropping
//! an acknowledged write:
//!
//! 1. **Checkpoint** — the source folds its WAL so the image is small;
//! 2. **Ship image** — the checkpoint artifact (manifest + segments)
//!    is copied byte-for-byte to the target's staging directory
//!    together with a warm-up WAL tail;
//! 3. **Drain** — the source acquires the tenant's write fence: every
//!    in-flight gated call completes, new ones block;
//! 4. **Final tail** — with the source quiescent, WAL frames above the
//!    checkpoint stamp are exported and staged (superseding the
//!    warm-up tail — staging is idempotent). A checkpoint that raced
//!    the ship phase truncated the WAL at a newer cut, so the stamp is
//!    re-read under the fence and the image re-exported if it advanced
//!    — image + tail always cover every acknowledged write;
//! 5. **Cutover** — the target recovers the staged state (re-verifying
//!    every CRC), adopts the source realm's live sessions, the map
//!    pins the tenant to the target, and the source detaches;
//! 6. **Finalize** — the fence lifts and the source's copy is removed.
//!
//! An error (or injected `migrate.*` failpoint) at any phase before the
//! cutover flip aborts: staging is wiped, the fence lifts, and the
//! source keeps ownership — callers observe at most a pause. The flip
//! itself is a single pin insert under the held fence, so there is no
//! window where both nodes (or neither) accept writes for the tenant.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use odbis_tenancy::SubscriptionPlan;
use parking_lot::{Mutex, RwLock};

use crate::error::{PlatformError, PlatformResult};
use crate::platform::OdbisPlatform;

/// FNV-1a 64-bit — small, dependency-free, well distributed for the
/// short tenant-id keys the ring hashes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Virtual points each node contributes to the hash ring. More points
/// smooth the tenant distribution; 64 keeps rebuilds trivial.
const VNODES: usize = 64;

struct MapInner {
    /// node id → HTTP address (`host:port`, empty until the node's
    /// server is up).
    nodes: BTreeMap<String, String>,
    /// Consistent-hash ring: sorted `(point, node id)` pairs.
    ring: Vec<(u64, String)>,
    /// Tenants routed away from their hash home (post-migration).
    pins: HashMap<String, String>,
}

/// The shared cluster map: node membership, the consistent-hash ring,
/// and per-tenant pins. One instance is shared (via `Arc`) by every
/// node of an in-process cluster; `epoch` bumps on every change so
/// routers and clients can detect staleness cheaply.
pub struct ClusterMap {
    inner: RwLock<MapInner>,
    epoch: AtomicU64,
}

impl Default for ClusterMap {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterMap {
    /// An empty map at epoch 0.
    pub fn new() -> Self {
        ClusterMap {
            inner: RwLock::new(MapInner {
                nodes: BTreeMap::new(),
                ring: Vec::new(),
                pins: HashMap::new(),
            }),
            epoch: AtomicU64::new(0),
        }
    }

    /// Add (or re-address) a node and rebuild the ring.
    pub fn add_node(&self, node_id: &str, addr: &str) {
        let mut inner = self.inner.write();
        inner.nodes.insert(node_id.to_string(), addr.to_string());
        inner.ring = inner
            .nodes
            .keys()
            .flat_map(|id| {
                (0..VNODES).map(move |i| (fnv1a64(format!("{id}#{i}").as_bytes()), id.clone()))
            })
            .collect();
        inner.ring.sort();
        drop(inner);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Update a node's address (the HTTP port is only known once its
    /// server has started).
    pub fn set_addr(&self, node_id: &str, addr: &str) {
        let mut inner = self.inner.write();
        if let Some(slot) = inner.nodes.get_mut(node_id) {
            *slot = addr.to_string();
        }
        drop(inner);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The node that owns `tenant`: its pin if migrated, else the first
    /// ring point at or after the tenant's hash (wrapping). `None` on an
    /// empty map.
    pub fn owner(&self, tenant: &str) -> Option<String> {
        let inner = self.inner.read();
        if let Some(pinned) = inner.pins.get(tenant) {
            return Some(pinned.clone());
        }
        if inner.ring.is_empty() {
            return None;
        }
        let h = fnv1a64(tenant.as_bytes());
        let at = inner.ring.partition_point(|(p, _)| *p < h);
        let (_, id) = &inner.ring[if at == inner.ring.len() { 0 } else { at }];
        Some(id.clone())
    }

    /// The HTTP address of a node (`None` for unknown ids, empty string
    /// until the node's server reported in).
    pub fn addr_of(&self, node_id: &str) -> Option<String> {
        self.inner.read().nodes.get(node_id).cloned()
    }

    /// Pin `tenant` to `node_id`, overriding the hash — the cutover flip.
    pub fn pin(&self, tenant: &str, node_id: &str) {
        self.inner
            .write()
            .pins
            .insert(tenant.to_string(), node_id.to_string());
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// All nodes as `(id, addr)` pairs, id-sorted.
    pub fn nodes(&self) -> Vec<(String, String)> {
        self.inner
            .read()
            .nodes
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// All pins as `(tenant, node id)` pairs, tenant-sorted.
    pub fn pins(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .inner
            .read()
            .pins
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        v.sort();
        v
    }

    /// Monotonic change counter: bumps on membership, address and pin
    /// changes.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// One node's membership in a cluster: its identity, the shared map,
/// and a weak handle back to the fabric (weak, because the fabric owns
/// the platforms — a strong reference would cycle).
pub struct ClusterNode {
    /// This node's id in the [`ClusterMap`].
    pub node_id: String,
    /// The map shared by every node of the cluster.
    pub map: Arc<ClusterMap>,
    /// The fabric this node belongs to.
    pub fabric: Weak<Cluster>,
}

/// Where the router says a tenant's requests should run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterRoute {
    /// Serve on this node (not clustered, owner here, or no usable
    /// route — failing local yields an honest tenant error).
    Local,
    /// Another node owns the tenant: proxy or redirect there.
    Remote {
        /// Owning node's id.
        node_id: String,
        /// Owning node's HTTP address.
        addr: String,
    },
}

/// What one completed migration did, returned by [`Cluster::migrate`]
/// and serialized by `POST /api/v1/admin/migrate`.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated tenant.
    pub tenant: String,
    /// Source node id.
    pub from: String,
    /// Target node id.
    pub to: String,
    /// The shipped checkpoint's fold LSN.
    pub checkpoint_lsn: u64,
    /// WAL frames — statements — shipped in the final (drained) tail.
    pub tail_frames: u64,
    /// Highest LSN shipped — everything acknowledged on the source.
    pub tail_last_lsn: u64,
    /// Live sessions adopted by the target realm.
    pub sessions_adopted: usize,
    /// Map epoch after the cutover flip.
    pub epoch: u64,
}

/// Failpoint gate for migration phases: an injected fault surfaces as a
/// retryable 503 and aborts the attempt (the source keeps ownership).
fn gate(site: &str) -> PlatformResult<()> {
    odbis_chaos::check(site).map_err(|e| PlatformError::Unavailable(format!("{site}: {e}")))
}

/// An in-process cluster fabric: the shared [`ClusterMap`] plus the
/// node platforms, with tenant provisioning and live migration. In a
/// multi-process deployment the fabric's role is played by a control
/// plane; in-process it doubles as the test/bench harness for the
/// routing and migration protocol.
pub struct Cluster {
    map: Arc<ClusterMap>,
    nodes: RwLock<HashMap<String, Arc<OdbisPlatform>>>,
    /// Serializes migrations: two concurrent moves could contend on
    /// fences and staging directories for no benefit.
    migrations: Mutex<()>,
}

impl Cluster {
    /// An empty fabric.
    pub fn new() -> Arc<Cluster> {
        Arc::new(Cluster {
            map: Arc::new(ClusterMap::new()),
            nodes: RwLock::new(HashMap::new()),
            migrations: Mutex::new(()),
        })
    }

    /// Boot a durable platform rooted at `data_dir` and join it to the
    /// fabric as `node_id`. The node's HTTP address starts empty; set it
    /// with [`ClusterMap::set_addr`] once its server is up.
    pub fn add_node(
        self: &Arc<Self>,
        node_id: &str,
        data_dir: impl Into<std::path::PathBuf>,
    ) -> PlatformResult<Arc<OdbisPlatform>> {
        let platform = Arc::new(OdbisPlatform::with_data_dir(data_dir));
        platform.join_cluster(node_id, Arc::clone(&self.map), Arc::downgrade(self));
        self.map.add_node(node_id, "");
        self.nodes
            .write()
            .insert(node_id.to_string(), Arc::clone(&platform));
        Ok(platform)
    }

    /// The platform of a node.
    pub fn node(&self, node_id: &str) -> Option<Arc<OdbisPlatform>> {
        self.nodes.read().get(node_id).cloned()
    }

    /// The shared cluster map.
    pub fn map(&self) -> &Arc<ClusterMap> {
        &self.map
    }

    /// Provision a tenant cluster-wide: identity (registry entry, realm,
    /// admin user) on **every** node — so logins and authorization work
    /// wherever a request lands, before and after migrations — but the
    /// workspace (warehouse, WAL) only on the owner node the map
    /// assigns. Returns the owner's node id.
    pub fn provision_tenant(
        &self,
        id: &str,
        display_name: &str,
        plan: SubscriptionPlan,
        admin_user: &str,
        admin_password: &str,
    ) -> PlatformResult<String> {
        let owner = self
            .map
            .owner(id)
            .ok_or_else(|| PlatformError::Unavailable("cluster has no nodes".into()))?;
        let nodes: Vec<(String, Arc<OdbisPlatform>)> = self
            .nodes
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (node_id, platform) in &nodes {
            platform.provision_identity(
                id,
                display_name,
                plan.clone(),
                admin_user,
                admin_password,
            )?;
            if *node_id == owner {
                platform.attach_workspace(id)?;
            }
        }
        Ok(owner)
    }

    /// Live-migrate `tenant` to node `to`. See the module docs for the
    /// protocol; on any error before the cutover flip the staging copy
    /// is removed and the source keeps ownership.
    pub fn migrate(&self, tenant: &str, to: &str) -> PlatformResult<MigrationReport> {
        let _one_at_a_time = self.migrations.lock();
        gate("migrate.begin")?;
        let from = self
            .map
            .owner(tenant)
            .ok_or_else(|| PlatformError::NotFound(format!("tenant {tenant} has no owner")))?;
        if from == to {
            return Err(PlatformError::Tenancy(format!(
                "tenant {tenant} already lives on {to}"
            )));
        }
        let source = self
            .node(&from)
            .ok_or_else(|| PlatformError::NotFound(format!("no node {from}")))?;
        let target = self
            .node(to)
            .ok_or_else(|| PlatformError::NotFound(format!("no node {to}")))?;
        let ws = source.workspace(tenant)?;
        let store = ws.durable.clone().ok_or_else(|| {
            PlatformError::Tenancy(format!("tenant {tenant} has no durable store to migrate"))
        })?;
        let target_root = target
            .data_dir()
            .ok_or_else(|| PlatformError::Tenancy(format!("node {to} has no data directory")))?;
        let stage = target_root.join(tenant);

        let result = (|| -> PlatformResult<MigrationReport> {
            // Phase: checkpoint. Shrinks the tail; everything acknowledged
            // so far lands in the image or the log above its stamp.
            gate("migrate.checkpoint")?;
            store.checkpoint(&ws.warehouse)?;

            // Phase: ship image + warm-up tail, before any fence — the
            // bulk of the bytes move while the tenant keeps writing.
            gate("migrate.ship.image")?;
            let image = store.export_checkpoint()?;
            gate("migrate.ship.tail")?;
            let warm = store.export_wal_tail(image.last_lsn)?;
            odbis_storage::DurableStore::import_image(&stage, &image, &warm.bytes)?;

            // Phase: drain. The write fence blocks new gated calls and
            // waits out in-flight ones; `read_recursive` on the read side
            // means a reader never deadlocks behind this writer.
            gate("migrate.drain")?;
            let fence = source.tenant_fence(tenant);
            let _drained = fence.write();

            // A tenant checkpoint that raced the ship phase (gated calls
            // only exclude each other at the fence, taken just now)
            // truncated the WAL at a newer cut: frames in
            // (image.last_lsn, cut] survive only in the newer artifact,
            // so the shipped image must be refreshed or they would be
            // dropped at cutover. Quiescent under the fence, the stamp is
            // stable — re-read it and re-export if it advanced.
            let image = if store.checkpoint_lsn() == image.last_lsn {
                image
            } else {
                store.export_checkpoint()?
            };

            // Phase: final tail, exported quiescent, re-staged over the
            // warm-up copy (staging clears previous artifacts first).
            let tail = store.export_wal_tail(image.last_lsn)?;
            gate("migrate.import")?;
            odbis_storage::DurableStore::import_image(&stage, &image, &tail.bytes)?;

            // Phase: cutover. Target recovers the staged bytes (CRCs
            // re-verified), adopts live sessions, and the single pin
            // insert flips ownership — all under the held fence.
            gate("migrate.cutover")?;
            target.attach_workspace(tenant)?;
            let mut adopted = 0usize;
            if let (Ok(src_realm), Ok(dst_realm)) = (
                source.admin.registry().realm(tenant),
                target.admin.registry().realm(tenant),
            ) {
                for session in src_realm.active_sessions() {
                    dst_realm.adopt_session(session);
                    adopted += 1;
                }
            }
            self.map.pin(tenant, to);
            source.detach_workspace(tenant);
            drop(_drained);

            // Phase: finalize. Best-effort once ownership has flipped: a
            // fault here must not report failure for a migration that
            // already happened, and the leftover source copy is invisible
            // anyway — the map routes away from it.
            if gate("migrate.finalize").is_ok() {
                if let Some(src_root) = source.data_dir() {
                    let _ = std::fs::remove_dir_all(src_root.join(tenant));
                }
            }
            Ok(MigrationReport {
                tenant: tenant.to_string(),
                from: from.clone(),
                to: to.to_string(),
                checkpoint_lsn: image.last_lsn,
                tail_frames: tail.frames,
                tail_last_lsn: tail.last_lsn,
                sessions_adopted: adopted,
                epoch: self.map.epoch(),
            })
        })();

        if result.is_err() && self.map.owner(tenant).as_deref() != Some(to) {
            // Abort before the flip: wipe staging so a retry (or the
            // target's own future tenants) never sees half a copy.
            let _ = std::fs::remove_dir_all(&stage);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routing_is_stable_and_complete() {
        let map = ClusterMap::new();
        map.add_node("node-a", "127.0.0.1:1");
        map.add_node("node-b", "127.0.0.1:2");
        map.add_node("node-c", "127.0.0.1:3");
        let owner = map.owner("acme").unwrap();
        // deterministic: same tenant, same owner, every time
        for _ in 0..100 {
            assert_eq!(map.owner("acme").unwrap(), owner);
        }
        // every tenant resolves to a real node
        for t in ["acme", "globex", "initech", "umbrella", "t-0", "t-999"] {
            let o = map.owner(t).unwrap();
            assert!(map.addr_of(&o).is_some(), "{t} routed to unknown {o}");
        }
    }

    #[test]
    fn adding_a_node_moves_only_a_fraction_of_tenants() {
        let map = ClusterMap::new();
        map.add_node("node-a", "");
        map.add_node("node-b", "");
        let tenants: Vec<String> = (0..200).map(|i| format!("tenant-{i}")).collect();
        let before: Vec<String> = tenants.iter().map(|t| map.owner(t).unwrap()).collect();
        map.add_node("node-c", "");
        let moved = tenants
            .iter()
            .zip(&before)
            .filter(|(t, was)| map.owner(t).unwrap() != **was)
            .count();
        // consistent hashing: roughly 1/3 should move, never close to all
        assert!(moved > 0, "a new node must take some tenants");
        assert!(moved < 140, "{moved}/200 moved — ring is not consistent");
        // moved tenants all moved *to* the new node
        for t in &tenants {
            let o = map.owner(t).unwrap();
            let was = &before[tenants.iter().position(|x| x == t).unwrap()];
            if o != *was {
                assert_eq!(o, "node-c");
            }
        }
    }

    #[test]
    fn pins_override_the_hash_and_bump_the_epoch() {
        let map = ClusterMap::new();
        map.add_node("node-a", "");
        map.add_node("node-b", "");
        let home = map.owner("acme").unwrap();
        let away = if home == "node-a" { "node-b" } else { "node-a" };
        let e = map.epoch();
        map.pin("acme", away);
        assert_eq!(map.owner("acme").unwrap(), away);
        assert!(map.epoch() > e);
        assert_eq!(map.pins(), vec![("acme".to_string(), away.to_string())]);
    }
}
