//! Migration chaos suite: live tenant migration driven under injected
//! faults at every protocol phase (`migrate.*` failpoints) plus the
//! storage sites the shipped bytes travel through, with concurrent
//! acked writes in flight. The cluster-level invariants, asserted
//! throughout:
//!
//! 1. **No acknowledged write is lost** — every SQL write acknowledged
//!    `Ok`, before or during a migration (failed or successful), is
//!    present on whichever node owns the tenant afterwards.
//! 2. **Abort keeps source ownership** — a fault at any phase before
//!    the cutover flip leaves the source owning and serving the tenant,
//!    the target without a workspace, and the staging directory wiped.
//! 3. **No double-ownership window** — at no observable point do both
//!    nodes hold a workspace for the tenant.
//! 4. **Metering stays monotonic across the move** — the cluster-wide
//!    usage sum never decreases (counters are per-node and never copied,
//!    so the sum is the invoiceable quantity).
//! 5. **Failures are structured** — an aborted migration surfaces as a
//!    typed platform error (a retryable 503 over HTTP), never a panic
//!    or a wedged fence.
//!
//! Each test prints its seed; rerun with `ODBIS_CHAOS_SEED=<seed>`.
//! CI pins seeds 3405691582 and 195948557 (same as the storage suite).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use odbis::{Cluster, OdbisPlatform};
use odbis_storage::Value;
use odbis_tenancy::SubscriptionPlan;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "odbis-chaos-mig-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed() -> u64 {
    std::env::var("ODBIS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0DB15C4A05)
}

const TENANT: &str = "acme";

/// A two-node cluster with the tenant provisioned (identity everywhere,
/// workspace on the map's owner) and a logged-in admin token.
fn boot_cluster(
    root: &std::path::Path,
) -> (
    Arc<Cluster>,
    Arc<OdbisPlatform>,
    Arc<OdbisPlatform>,
    String,
    String,
) {
    let fabric = Cluster::new();
    let a = fabric.add_node("node-a", root.join("a")).unwrap();
    let b = fabric.add_node("node-b", root.join("b")).unwrap();
    let owner = fabric
        .provision_tenant(TENANT, "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let (src, dst) = if owner == "node-a" {
        (Arc::clone(&a), Arc::clone(&b))
    } else {
        (Arc::clone(&b), Arc::clone(&a))
    };
    let token = src.login(TENANT, "root", "pw").unwrap();
    (fabric, src, dst, token, owner)
}

/// Ids visible in table `t` on `p` (empty when the table — or the whole
/// workspace — is not there).
fn present_ids(p: &OdbisPlatform, token: &str) -> BTreeSet<i64> {
    match p.sql(TENANT, token, "SELECT id FROM t") {
        Ok(r) => r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(v) => *v,
                other => panic!("non-int id: {other:?}"),
            })
            .collect(),
        Err(_) => BTreeSet::new(),
    }
}

/// Cluster-wide metered units for the tenant: the sum over both nodes.
/// Neither side resets at cutover, so this is the monotonic quantity.
fn cluster_units(nodes: &[&OdbisPlatform]) -> u64 {
    nodes
        .iter()
        .flat_map(|p| p.admin.usage_report())
        .filter(|l| l.tenant == TENANT)
        .map(|l| l.units)
        .sum()
}

/// Insert one row, returning whether the platform acknowledged it.
fn insert(p: &OdbisPlatform, token: &str, id: i64) -> bool {
    p.sql(TENANT, token, &format!("INSERT INTO t VALUES ({id})"))
        .is_ok()
}

/// Every pre-cutover phase, in protocol order. `migrate.finalize` is
/// deliberately absent: it runs after the flip and is best-effort.
const ABORT_PHASES: [&str; 7] = [
    "migrate.begin",
    "migrate.checkpoint",
    "migrate.ship.image",
    "migrate.ship.tail",
    "migrate.drain",
    "migrate.import",
    "migrate.cutover",
];

/// A migration aborted at every single phase leaves the source owning
/// and serving every acknowledged write, the target empty, and the
/// fence released (proved by writing again after each abort).
#[test]
fn abort_at_every_phase_keeps_source_ownership_and_all_acked_writes() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let root = tmp_dir("abort");
    let (fabric, src, dst, token, owner) = boot_cluster(&root);
    let dst_id = if owner == "node-a" {
        "node-b"
    } else {
        "node-a"
    };

    src.sql(TENANT, &token, "CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    let mut shadow: BTreeSet<i64> = BTreeSet::new();
    let mut next_id = 0i64;
    for _ in 0..10 {
        assert!(insert(&src, &token, next_id));
        shadow.insert(next_id);
        next_id += 1;
    }
    let mut floor = cluster_units(&[&src, &dst]);

    for site in ABORT_PHASES {
        odbis_chaos::apply_spec(&format!("{site}=return-err")).unwrap();
        let err = fabric
            .migrate(TENANT, dst_id)
            .expect_err(&format!("{site} fault must abort the migration"));
        // structured + retryable: the HTTP layer renders this as a 503
        assert_eq!(err.http_status(), 503, "{site}: {err:?}");
        odbis_chaos::clear();

        // source still owns and serves; target never saw the tenant
        assert_eq!(fabric.map().owner(TENANT).unwrap(), owner, "{site}");
        assert!(src.workspace(TENANT).is_ok(), "{site}: source detached");
        assert!(
            dst.workspace(TENANT).is_err(),
            "{site}: double ownership — target has a workspace after abort"
        );
        assert_eq!(present_ids(&src, &token), shadow, "{site}: lost writes");
        // staging is wiped so a half-copy can never be recovered later
        assert!(
            !dst.data_dir().unwrap().join(TENANT).exists(),
            "{site}: staging directory left behind"
        );
        // the fence must be released: the very next write is acknowledged
        assert!(insert(&src, &token, next_id), "{site}: fence wedged");
        shadow.insert(next_id);
        next_id += 1;
        let units = cluster_units(&[&src, &dst]);
        assert!(units >= floor, "{site}: metering went backwards");
        floor = units;
    }

    // with the faults gone the same migration succeeds, carries every
    // acknowledged write, and a finalize fault cannot un-happen it
    odbis_chaos::apply_spec("migrate.finalize=return-err").unwrap();
    let report = fabric.migrate(TENANT, dst_id).unwrap();
    odbis_chaos::clear();
    assert_eq!(report.to, dst_id);
    assert_eq!(fabric.map().owner(TENANT).unwrap(), dst_id);
    assert!(src.workspace(TENANT).is_err(), "source still attached");
    assert_eq!(present_ids(&dst, &token), shadow, "writes lost in the move");
    let units = cluster_units(&[&src, &dst]);
    assert!(units >= floor, "metering went backwards across the cutover");

    let _ = std::fs::remove_dir_all(&root);
}

/// Writer threads race a live migration: each thread resolves the
/// current owner through the shared map before every insert, retries
/// the handful of requests that land in the cutover window, and records
/// only acknowledged ids. Zero acked writes may be missing afterwards.
#[test]
fn concurrent_writers_lose_nothing_across_a_live_migration() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let root = tmp_dir("load");
    let (fabric, src, _dst, token, owner) = boot_cluster(&root);
    let dst_id = if owner == "node-a" {
        "node-b"
    } else {
        "node-a"
    };
    src.sql(TENANT, &token, "CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();

    let acked: Arc<std::sync::Mutex<BTreeSet<i64>>> = Arc::default();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..3i64)
        .map(|w| {
            let fabric = Arc::clone(&fabric);
            let token = token.clone();
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut id = w * 1_000_000;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // route like the shard filter does: map → owner node
                    let ok = fabric
                        .map()
                        .owner(TENANT)
                        .and_then(|n| fabric.node(&n))
                        .map(|p| insert(&p, &token, id))
                        .unwrap_or(false);
                    if ok {
                        acked.lock().unwrap().insert(id);
                    }
                    // a miss here is a request caught mid-cutover (old
                    // owner already detached); the client retries a new
                    // id — the protocol only promises *acked* durability
                    id += 1;
                }
            })
        })
        .collect();

    // let the writers get going, then move the tenant under them
    while acked.lock().unwrap().len() < 50 {
        std::thread::yield_now();
    }
    let report = fabric.migrate(TENANT, dst_id).unwrap();
    assert_eq!(report.to, dst_id);
    // keep writing on the new owner for a bit before stopping
    let after_flip = acked.lock().unwrap().len();
    while acked.lock().unwrap().len() < after_flip + 50 {
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    let new_owner = fabric.node(dst_id).unwrap();
    let present = present_ids(&new_owner, &token);
    let acked = acked.lock().unwrap();
    let lost: Vec<_> = acked.difference(&present).collect();
    assert!(lost.is_empty(), "acked writes lost in migration: {lost:?}");
    assert!(acked.len() >= 100, "load generator barely ran");

    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant checkpoint that lands between the ship phase and the drain
/// truncates the WAL at a newer cut, so the frames acked in between
/// exist only in the newer checkpoint artifact — not in the shipped
/// image, not in the final tail. The protocol must detect the advanced
/// stamp under the fence and re-ship the image, or those acked writes
/// are silently dropped at cutover.
#[test]
fn checkpoint_racing_the_ship_phase_loses_no_acked_writes() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let root = tmp_dir("ckpt-race");
    let (fabric, src, dst, token, owner) = boot_cluster(&root);
    let dst_id = if owner == "node-a" {
        "node-b"
    } else {
        "node-a"
    };

    src.sql(TENANT, &token, "CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    let mut shadow: BTreeSet<i64> = BTreeSet::new();
    for id in 0..10 {
        assert!(insert(&src, &token, id));
        shadow.insert(id);
    }

    // park the migration between staging the warm-up copy and taking the
    // drain fence — the widest version of the window the race needs
    odbis_chaos::apply_spec("migrate.drain=delay(600)").unwrap();
    let migration = {
        let fabric = Arc::clone(&fabric);
        std::thread::spawn(move || fabric.migrate(TENANT, dst_id))
    };
    // while it sleeps: acknowledge more writes, then checkpoint — the
    // WAL is truncated past them, so only a re-shipped image carries them
    std::thread::sleep(std::time::Duration::from_millis(150));
    for id in 100..110 {
        assert!(insert(&src, &token, id));
        shadow.insert(id);
    }
    src.checkpoint_tenant(TENANT, &token).unwrap();

    let report = migration.join().unwrap().unwrap();
    odbis_chaos::clear();
    assert_eq!(report.to, dst_id);
    assert_eq!(fabric.map().owner(TENANT).unwrap(), dst_id);
    assert!(
        report.checkpoint_lsn > 0,
        "the re-shipped image must carry the racing checkpoint's stamp"
    );
    assert_eq!(
        present_ids(&dst, &token),
        shadow,
        "writes acked during the ship phase were dropped at cutover"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded ping-pong migrations under probabilistic faults on every
/// migration phase plus the WAL sites the shipped bytes cross, with
/// writes interleaved between attempts. Attempts repeat (bounded) until
/// one lands — transient faults abort, they must never corrupt.
fn run_migration_case(case: &str, spec_template: &str, rounds: usize, seed: u64) {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    eprintln!("chaos-migration case {case} seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let root = tmp_dir(case);
    let (fabric, src, dst, token, owner) = boot_cluster(&root);
    let mut rng = StdRng::seed_from_u64(seed);

    src.sql(TENANT, &token, "CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    let mut shadow: BTreeSet<i64> = BTreeSet::new();
    let mut attempted: BTreeSet<i64> = BTreeSet::new();
    let mut next_id = 0i64;
    let mut floor = 0u64;
    // home holds the workspace right now; away is the migration target
    let (mut home, mut away) = (Arc::clone(&src), Arc::clone(&dst));
    let mut away_id = if owner == "node-a" {
        "node-b"
    } else {
        "node-a"
    };

    for round in 0..rounds {
        let spec = spec_template.replace("{r}", &rng.random_range(1..u64::MAX >> 1).to_string());
        odbis_chaos::apply_spec(&spec).unwrap();

        // interleave writes with (possibly failing) migration attempts
        let mut migrated = false;
        for burst in 0..24 {
            for _ in 0..rng.random_range(1..4) {
                attempted.insert(next_id);
                if insert(&home, &token, next_id) {
                    shadow.insert(next_id);
                }
                next_id += 1;
            }
            if !migrated && burst % 6 == 5 {
                match fabric.migrate(TENANT, away_id) {
                    Ok(report) => {
                        assert_eq!(report.to, away_id, "round {round}");
                        migrated = true;
                        std::mem::swap(&mut home, &mut away);
                    }
                    Err(e) => {
                        // an abort is a structured, retryable failure...
                        assert_eq!(e.http_status(), 503, "round {round}: {e:?}");
                        // ...that leaves exactly one owner serving
                        assert!(home.workspace(TENANT).is_ok(), "round {round}");
                        assert!(away.workspace(TENANT).is_err(), "round {round}");
                    }
                }
            }
        }
        odbis_chaos::clear();
        if !migrated {
            // faults blocked every attempt this round: one clean retry
            // must land (chaos is off now)
            fabric.migrate(TENANT, away_id).unwrap();
            std::mem::swap(&mut home, &mut away);
        }
        away_id = if away_id == "node-a" {
            "node-b"
        } else {
            "node-a"
        };

        // invariants at the end of every round
        let present = present_ids(&home, &token);
        assert!(
            present.is_superset(&shadow),
            "round {round}: acked writes lost: {:?}",
            shadow.difference(&present).collect::<Vec<_>>()
        );
        assert!(
            present.is_subset(&attempted),
            "round {round}: phantom rows appeared"
        );
        assert!(
            away.workspace(TENANT).is_err(),
            "round {round}: double ownership after round"
        );
        let units = cluster_units(&[&src, &dst]);
        assert!(units >= floor, "round {round}: metering went backwards");
        floor = units;
        // unacknowledged writes with an ambiguous commit point (a fault
        // hit after the WAL frame went down) are now settled by what the
        // move carried: adopt reality into the shadow
        shadow = present;
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn migration_survives_phase_faults_under_load() {
    run_migration_case(
        "phases",
        "migrate.drain=err-with-prob(0.4,{r});migrate.cutover=err-with-prob(0.3,{r});migrate.import=err-with-prob(0.3,{r})",
        3,
        seed(),
    );
}

#[test]
fn migration_survives_transport_and_wal_faults() {
    run_migration_case(
        "transport",
        "migrate.ship.image=err-with-prob(0.3,{r});migrate.ship.tail=err-with-prob(0.3,{r});wal.write=err-with-prob(0.05,{r})",
        3,
        seed(),
    );
}

#[test]
fn migration_survives_checkpoint_and_export_faults() {
    run_migration_case(
        "checkpoint",
        "migrate.checkpoint=err-with-prob(0.4,{r});checkpoint.begin=err-every-nth(3);migrate.export.image=err-with-prob(0.2,{r});migrate.export.tail=err-with-prob(0.2,{r})",
        3,
        seed(),
    );
}

/// Heavier sweep for the CI chaos job: the matrix under derived seeds.
/// `cargo test --test chaos_migration -- --ignored`.
#[test]
#[ignore]
fn chaos_migration_sweep_many_seeds() {
    let base = seed();
    for i in 0..3u64 {
        let s = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        run_migration_case(
            "sweep-phases",
            "migrate.drain=err-with-prob(0.4,{r});migrate.cutover=err-with-prob(0.3,{r})",
            2,
            s,
        );
        run_migration_case(
            "sweep-transport",
            "migrate.ship.image=err-with-prob(0.3,{r});wal.write=err-with-prob(0.05,{r})",
            2,
            s,
        );
    }
}
