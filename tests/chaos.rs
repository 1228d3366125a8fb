//! Seeded platform-level chaos suite: randomized multi-tenant workloads
//! run against the durable platform while failpoints inject storage,
//! checkpoint and socket faults, with a crash (drop) + recovery (reopen)
//! between rounds. Five invariants are asserted throughout:
//!
//! 1. **No committed write is lost** — every SQL write the platform
//!    acknowledged with `Ok` is present after recovery.
//! 2. **Checkpoints are never torn** — recovery always succeeds, under
//!    manifest-rename, checkpoint-entry and WAL-reset faults included.
//! 3. **Per-tenant isolation** — one tenant's faults never corrupt or leak
//!    into another tenant's data.
//! 4. **Usage metering is monotonic** — metered units never decrease,
//!    fault or no fault.
//! 5. **Every client-visible failure is structured** — HTTP errors are
//!    `{"error":{kind,message}}` envelopes; transient storage failures map
//!    to 503 with `Retry-After`.
//!
//! Each test prints its seed; rerun a failure with
//! `ODBIS_CHAOS_SEED=<seed> cargo test --test chaos`. The WAL-internal
//! fault matrix (torn tails, recovery-under-fault, the repair teeth test)
//! lives in `crates/storage/tests/chaos_wal.rs`; this suite exercises the
//! same sites through the full platform and HTTP stack.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use odbis::{build_router, OdbisPlatform};
use odbis_storage::Value;
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_get, http_request, HttpServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// ------------------------------------------------------------------ helpers

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "odbis-chaos-{tag}-{}-{:?}",
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

const TENANTS: [&str; 2] = ["acme", "globex"];
/// Disjoint pk ranges per tenant so cross-tenant leakage is detectable.
const PK_BASE: [i64; 2] = [0, 1_000_000];

/// Boot (or reboot) the durable platform on `dir` and log both tenants in.
fn boot(dir: &std::path::Path) -> (OdbisPlatform, [String; 2]) {
    let p = OdbisPlatform::with_data_dir(dir.to_path_buf());
    let mut tokens = Vec::new();
    for t in TENANTS {
        p.provision_tenant(t, t, SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        tokens.push(p.login(t, "root", "pw").unwrap());
    }
    (p, tokens.try_into().unwrap())
}

/// The ids currently visible in tenant `i`'s table `t`.
fn present_ids(p: &OdbisPlatform, i: usize, token: &str) -> BTreeSet<i64> {
    match p.sql(TENANTS[i], token, "SELECT id FROM t") {
        Ok(result) => result
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(v) => *v,
                other => panic!("non-int id: {other:?}"),
            })
            .collect(),
        // table missing means nothing committed yet
        Err(_) => BTreeSet::new(),
    }
}

/// Total metered units for a tenant across all services.
fn units_for(p: &OdbisPlatform, tenant: &str) -> u64 {
    p.admin
        .usage_report()
        .iter()
        .filter(|l| l.tenant == tenant)
        .map(|l| l.units)
        .sum()
}

/// Run `rounds` boot → randomized-workload → crash cycles under
/// `policy_spec` (a `{r}` placeholder is replaced with a fresh per-round
/// seed so probabilistic sites don't replay one trigger pattern), then
/// verify the invariants on a final clean recovery.
///
/// The shadow model mirrors the WAL-level suite: acknowledged writes are
/// committed to the shadow set; the single op that errors before a tenant
/// wedges is *pending* — its commit point is ambiguous (a refused append
/// is cut back off the log, but a torn write poisons the log and leaves
/// its whole frames before the tear for recovery) — and is
/// resolved by observing what recovery actually produced.
///
/// Every site the spec arms must inject at least one fault over the run,
/// so a case cannot pass vacuously on a site nothing reaches.
fn run_platform_case(case: &str, policy_spec: &str, rounds: usize, seed: u64) {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    eprintln!("chaos case {case} seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let dir = tmp_dir(case);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut shadow: [BTreeSet<i64>; 2] = [BTreeSet::new(), BTreeSet::new()];
    let mut pending: [Option<i64>; 2] = [None, None];
    let mut next: [i64; 2] = PK_BASE;
    let sites: Vec<&str> = policy_spec
        .split(';')
        .map(|entry| entry.split('=').next().unwrap())
        .collect();
    let mut injected = vec![0u64; sites.len()];

    for round in 0..rounds {
        let (p, tokens) = boot(&dir);

        for i in 0..2 {
            // invariant 2: recovery itself succeeded (boot didn't panic,
            // the table reads back) even after checkpoint/WAL faults
            let got = present_ids(&p, i, &tokens[i]);
            // resolve the ambiguous op from the previous crash
            if let Some(pk) = pending[i].take() {
                if got.contains(&pk) {
                    shadow[i].insert(pk);
                }
            }
            // invariant 1 + 3: exactly the acknowledged writes survived
            assert_eq!(
                got, shadow[i],
                "round {round}, tenant {}: recovered ids diverge from \
                 acknowledged writes (seed {seed})",
                TENANTS[i]
            );
        }
        if round == 0 {
            for i in 0..2 {
                p.sql(TENANTS[i], &tokens[i], "CREATE TABLE t (id INT, note TEXT)")
                    .unwrap();
            }
        }

        let spec = policy_spec.replace("{r}", &seed.wrapping_add(round as u64).to_string());
        odbis_chaos::apply_spec(&spec).unwrap();
        // one checkpoint per tenant up front, so every armed checkpoint
        // site is reached each round however early the tenants wedge
        for i in 0..2 {
            let _ = p.checkpoint_tenant(TENANTS[i], &tokens[i]);
        }

        let mut wedged = [false, false];
        for _ in 0..24 {
            let i = rng.random_range(0..2i64) as usize;
            if wedged[i] {
                continue;
            }
            let before = units_for(&p, TENANTS[i]);
            let pk = next[i];
            next[i] += 1;
            let res = p.sql(
                TENANTS[i],
                &tokens[i],
                &format!("INSERT INTO t VALUES ({pk}, 'x')"),
            );
            // invariant 4: metering never moves backwards, fault or not
            let after = units_for(&p, TENANTS[i]);
            assert!(
                after >= before,
                "metering went backwards for {} ({before} -> {after}, seed {seed})",
                TENANTS[i]
            );
            match res {
                Ok(_) => {
                    shadow[i].insert(pk);
                }
                Err(_) => {
                    // the store may hold a torn tail now — stop writing,
                    // remember the one commit-point-ambiguous op
                    pending[i] = Some(pk);
                    wedged[i] = true;
                }
            }
            // occasional checkpoints exercise manifest + WAL-reset sites;
            // a failed checkpoint must not change logical state
            if !wedged[i] && rng.random_range(0..6i64) == 0 {
                let _ = p.checkpoint_tenant(TENANTS[i], &tokens[i]);
            }
        }

        // crash: disarm, then drop the platform without checkpointing
        for (n, site) in injected.iter_mut().zip(&sites) {
            *n += odbis_chaos::triggered_count(site);
        }
        odbis_chaos::clear();
        drop(p);
    }

    // final clean recovery: both shadows intact, tenants fully disjoint
    let (p, tokens) = boot(&dir);
    for i in 0..2 {
        let got = present_ids(&p, i, &tokens[i]);
        if let Some(pk) = pending[i].take() {
            if got.contains(&pk) {
                shadow[i].insert(pk);
            }
        }
        assert_eq!(
            got, shadow[i],
            "final recovery, tenant {}: lost or invented writes (seed {seed})",
            TENANTS[i]
        );
        let (lo, hi) = (PK_BASE[i], PK_BASE[i] + 1_000_000);
        assert!(
            got.iter().all(|pk| (lo..hi).contains(pk)),
            "tenant {} sees ids outside its own range (seed {seed})",
            TENANTS[i]
        );
    }
    assert!(
        shadow[0].len() + shadow[1].len() >= 5,
        "workload acknowledged almost nothing under {policy_spec} (seed {seed})"
    );
    for (site, n) in sites.iter().zip(&injected) {
        assert!(
            *n > 0,
            "{case}: {site} never injected a fault (seed {seed})"
        );
    }
}

// --------------------------------------------------------- the fault matrix

#[test]
fn platform_survives_fsync_faults() {
    run_platform_case("fsync", "wal.fsync=err-every-nth(3)", 3, seed());
}

#[test]
fn platform_survives_wal_write_faults() {
    run_platform_case("write", "wal.write=err-every-nth(4)", 3, seed());
}

#[test]
fn platform_survives_torn_wal_tails() {
    run_platform_case("torn", "wal.write.short=err-every-nth(5)", 3, seed());
}

#[test]
fn platform_survives_probabilistic_write_faults() {
    run_platform_case("prob", "wal.write=err-with-prob(0.2,{r})", 3, seed());
}

#[test]
fn platform_survives_snapshot_and_checkpoint_faults() {
    run_platform_case(
        "snap",
        "manifest.rename=err-every-nth(2);checkpoint.begin=err-every-nth(3);wal.reset=err-every-nth(2)",
        3,
        seed(),
    );
}

/// Heavier sweep for the CI chaos job: the whole matrix under several
/// derived seeds. `cargo test --test chaos -- --ignored`.
#[test]
#[ignore]
fn chaos_platform_sweep_many_seeds() {
    let base = seed();
    for i in 0..4u64 {
        let s = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        run_platform_case("sweep-fsync", "wal.fsync=err-every-nth(3)", 3, s);
        run_platform_case("sweep-prob", "wal.write=err-with-prob(0.3,{r})", 3, s);
        run_platform_case(
            "sweep-compound",
            "wal.fsync=err-every-nth(4);manifest.rename=err-every-nth(2)",
            3,
            s,
        );
    }
}

// ------------------------------------------------------- HTTP-level chaos

fn auth(
    addr: &str,
    method: &str,
    path: &str,
    token: &str,
    body: &str,
) -> (u16, std::collections::BTreeMap<String, String>, String) {
    let bearer = format!("Bearer {token}");
    http_request(
        addr,
        method,
        path,
        &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
        body.as_bytes(),
    )
    .unwrap()
}

fn serve_durable(dir: &std::path::Path) -> (HttpServer, Arc<OdbisPlatform>, String) {
    let p = Arc::new(OdbisPlatform::with_data_dir(dir.to_path_buf()));
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();
    let server = HttpServer::start(build_router(Arc::clone(&p)), 2).unwrap();
    (server, p, token)
}

/// Invariant 5: with the WAL faulting underneath, every `/api/v1/sql`
/// response is either a success or a structured 503 `unavailable`
/// envelope carrying `Retry-After` — never a bare 500, never a torn body.
#[test]
fn wedged_store_surfaces_structured_503_envelopes() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let s = seed();
    eprintln!("chaos case http-envelope seed={s}");
    let dir = tmp_dir("http-envelope");
    let (server, p, token) = serve_durable(&dir);
    let addr = server.addr().to_string();
    p.sql("acme", &token, "CREATE TABLE t (id INT, note TEXT)")
        .unwrap();

    odbis_chaos::apply_spec("wal.write=err-every-nth(3)").unwrap();
    let (mut oks, mut unavailable) = (0, 0);
    for pk in 0..12 {
        let (status, headers, body) = auth(
            &addr,
            "POST",
            "/api/v1/sql",
            &token,
            &format!("INSERT INTO t VALUES ({pk}, 'x')"),
        );
        match status {
            200 => oks += 1,
            503 => {
                let v: serde_json::Value = serde_json::from_str(&body)
                    .unwrap_or_else(|e| panic!("503 body is not JSON: {e} ({body})"));
                let err = v.get("error").expect("503 must carry an error envelope");
                assert_eq!(
                    err.get("kind").and_then(|k| k.as_str()),
                    Some("unavailable")
                );
                assert!(!err
                    .get("message")
                    .and_then(|m| m.as_str())
                    .unwrap_or("")
                    .is_empty());
                assert_eq!(
                    headers.get("retry-after").map(String::as_str),
                    Some("1"),
                    "transient failures must advertise Retry-After"
                );
                unavailable += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    odbis_chaos::clear();
    assert!(oks > 0, "no insert ever succeeded");
    assert!(unavailable > 0, "the failpoint never fired");
    server.shutdown();
}

/// One sample of a `{tenant="acme"}` counter from a metrics scrape.
fn scraped(body: &str, family: &str) -> u64 {
    let prefix = format!("{family}{{tenant=\"acme\"}} ");
    body.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {family} sample for acme:\n{body}"))
        .parse()
        .unwrap()
}

/// The WAL counters the metrics endpoint serves are the durability
/// report's: both read the tenant's log, so they agree after a one-row
/// INSERT, a 100-row INSERT, an INSERT the log refused and a checkpoint.
#[test]
fn wal_counters_on_metrics_equal_the_durability_report() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let dir = tmp_dir("wal-metrics");
    let (server, _p, token) = serve_durable(&dir);
    let addr = server.addr().to_string();
    // (walAppends, walBytes) from the durability report, checked against
    // the metrics scrape
    let counted = |step: &str| -> (u64, u64) {
        let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/durability", &token, "");
        assert_eq!(status, 200, "{step}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let report = (
            v["walAppends"].as_u64().unwrap(),
            v["walBytes"].as_u64().unwrap(),
        );
        let (status, metrics) = http_get(&addr, "/api/v1/metrics").unwrap();
        assert_eq!(status, 200);
        let scrape = (
            scraped(&metrics, "odbis_wal_appends_total"),
            scraped(&metrics, "odbis_wal_bytes_total"),
        );
        assert_eq!(scrape, report, "{step}: /metrics vs /admin/durability");
        report
    };
    let sql = |body: &str| auth(&addr, "POST", "/api/v1/sql", &token, body).0;

    assert_eq!(sql("CREATE TABLE t (id INT, note TEXT)"), 200);
    let created = counted("create");
    assert_eq!(sql("INSERT INTO t VALUES (0, 'one')"), 200);
    let one = counted("one-row insert");
    assert_eq!(one.0, created.0 + 1);
    assert!(one.1 > created.1);
    let rows: Vec<String> = (1..=100).map(|i| format!("({i}, 'many')")).collect();
    assert_eq!(
        sql(&format!("INSERT INTO t VALUES {}", rows.join(", "))),
        200
    );
    let hundred = counted("100-row insert");
    assert_eq!(hundred.0, one.0 + 1, "a statement is one append");

    odbis_chaos::apply_spec("wal.write=return-err").unwrap();
    let status = sql("INSERT INTO t VALUES (101, 'refused')");
    odbis_chaos::remove("wal.write");
    assert_eq!(status, 503);
    assert_eq!(
        counted("refused insert"),
        hundred,
        "a refused append counts nothing"
    );

    let (status, _, body) = auth(&addr, "POST", "/api/v1/admin/checkpoint", &token, "");
    assert_eq!(status, 200, "{body}");
    counted("checkpoint");
    odbis_chaos::clear();
    server.shutdown();
}

/// Transient checkpoint IO errors are retried behind the scenes (the
/// caller sees success and a bumped retry counter); a persistent fault
/// exhausts the budget and surfaces as a retryable 503 over HTTP.
#[test]
fn checkpoint_retries_transient_io_then_exhausts_to_503() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let dir = tmp_dir("ckpt-retry");
    let (server, p, token) = serve_durable(&dir);
    let addr = server.addr().to_string();
    p.sql("acme", &token, "CREATE TABLE t (id INT, note TEXT)")
        .unwrap();
    p.sql("acme", &token, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        .unwrap();

    // every-2nd check fails: first checkpoint sails through, the second
    // absorbs one transient fault and succeeds on its in-process retry
    let before = odbis_chaos::retry_count("checkpoint");
    odbis_chaos::apply_spec("checkpoint.begin=err-every-nth(2)").unwrap();
    p.checkpoint_tenant("acme", &token).unwrap();
    p.checkpoint_tenant("acme", &token).unwrap();
    // remove (not clear): clear() also zeroes the retry counters under test
    odbis_chaos::remove("checkpoint.begin");
    assert_eq!(
        odbis_chaos::retry_count("checkpoint") - before,
        1,
        "exactly one transient fault should have been retried"
    );

    // a hard fault burns all 3 attempts and maps to 503 + Retry-After
    odbis_chaos::apply_spec("checkpoint.begin=return-err").unwrap();
    let (status, headers, body) = auth(&addr, "POST", "/api/v1/admin/checkpoint", &token, "");
    odbis_chaos::remove("checkpoint.begin");
    assert_eq!(status, 503, "exhausted retries must be 503: {body}");
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("1"));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("unavailable")
    );
    assert_eq!(
        odbis_chaos::retry_count("checkpoint") - before,
        3,
        "the exhausted checkpoint should have retried twice more"
    );

    // the store is not poisoned: with the fault gone, checkpoint works
    p.checkpoint_tenant("acme", &token).unwrap();
    odbis_chaos::clear();
    server.shutdown();
}

/// Socket-level faults (accept, read, write) drop individual connections
/// but never kill the server: once disarmed, the very next request is
/// served normally and shutdown still completes.
#[test]
fn socket_faults_drop_connections_but_never_kill_the_server() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let platform = Arc::new(OdbisPlatform::new());
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    for site in ["http.accept", "http.read", "http.write"] {
        odbis_chaos::apply_spec(&format!("{site}=err-every-nth(2)")).unwrap();
        let mut dropped = 0;
        for _ in 0..6 {
            // a faulted connection surfaces as a client-side Err — that is
            // allowed; a 5xx or a hung server is not
            match http_get(&addr, "/api/v1/health") {
                Ok((status, _)) => assert_eq!(status, 200, "{site}"),
                Err(_) => dropped += 1,
            }
        }
        odbis_chaos::clear();
        assert!(dropped > 0, "{site} never dropped a connection");
        let (status, body) = http_get(&addr, "/api/v1/health").unwrap();
        assert_eq!(status, 200, "server wedged after {site} faults: {body}");
    }
    server.shutdown();
}

// ------------------------------------------------------ delta maintenance
//
// The streaming-BI delta pipeline (warehouse write → WAL ack → delta
// buffer → incremental aggregate maintenance) under random writes and WAL
// faults. The invariant: a materialized aggregate never *diverges* — every
// answer it gives equals a live query against the warehouse — and a write
// the log refused never becomes a delta.

/// Star schema + cube + two materialized aggregates, on a platform
/// journaled under `dir` or, without one, in memory; returns the cube
/// definition for live-query comparison.
fn delta_platform(dir: Option<&std::path::Path>) -> (OdbisPlatform, String, odbis_olap::CubeDef) {
    use odbis_olap::{Aggregator, CubeDef, DimensionDef, LevelDef, LevelRef, MeasureDef};
    let p = match dir {
        Some(dir) => OdbisPlatform::with_data_dir(dir.to_path_buf()),
        None => OdbisPlatform::new(),
    };
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();
    p.sql(
        "acme",
        &token,
        "CREATE TABLE dim_store (store_id INT PRIMARY KEY, region TEXT)",
    )
    .unwrap();
    p.sql(
        "acme",
        &token,
        "INSERT INTO dim_store VALUES (1, 'EU'), (2, 'US'), (3, 'APAC')",
    )
    .unwrap();
    p.sql(
        "acme",
        &token,
        "CREATE TABLE fact_sales (id INT PRIMARY KEY, store_id INT, year INT, amount DOUBLE)",
    )
    .unwrap();
    p.sql(
        "acme",
        &token,
        "INSERT INTO fact_sales VALUES (1, 1, 2009, 10.0), (2, 2, 2009, 20.0)",
    )
    .unwrap();
    let cube = CubeDef {
        name: "streamcube".into(),
        fact_table: "fact_sales".into(),
        dimensions: vec![
            DimensionDef {
                name: "geo".into(),
                table: Some("dim_store".into()),
                fact_fk: "store_id".into(),
                dim_key: "store_id".into(),
                levels: vec![LevelDef {
                    name: "region".into(),
                    column: "region".into(),
                }],
            },
            DimensionDef {
                name: "time".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![LevelDef {
                    name: "year".into(),
                    column: "year".into(),
                }],
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
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
        ],
    };
    p.register_cube("acme", &token, cube.clone()).unwrap();
    p.materialize_aggregate(
        "acme",
        &token,
        "streamcube",
        vec![LevelRef::new("geo", "region")],
        vec!["revenue".into(), "orders".into()],
    )
    .unwrap();
    p.materialize_aggregate(
        "acme",
        &token,
        "streamcube",
        vec![LevelRef::new("time", "year")],
        vec!["revenue".into()],
    )
    .unwrap();
    (p, token, cube)
}

/// Every maintained aggregate must answer its covering query identically
/// to a live cube query against the warehouse — fault or no fault.
fn assert_preaggs_converged(p: &OdbisPlatform, cube: &odbis_olap::CubeDef, ctx: &str) {
    use odbis_olap::{CubeQuery, LevelRef};
    let ws = p.workspace("acme").unwrap();
    for (axes, measures) in [
        (
            vec![LevelRef::new("geo", "region")],
            vec!["revenue".to_string(), "orders".to_string()],
        ),
        (
            vec![LevelRef::new("time", "year")],
            vec!["revenue".to_string()],
        ),
    ] {
        let q = CubeQuery {
            axes,
            slices: vec![],
            measures,
        };
        let maintained = ws
            .agg_cache
            .read()
            .try_answer("streamcube", &q)
            .unwrap_or_else(|| panic!("aggregate vanished or stayed stale ({ctx})"));
        let live = ws.cubes.query(cube, &q).unwrap();
        assert_eq!(
            maintained.cells, live.cells,
            "maintained aggregate diverged from warehouse ({ctx})"
        );
    }
}

/// Random INSERT / UPDATE / DELETE traffic: after every write the
/// aggregates must equal a live query.
#[test]
fn random_writes_never_diverge_preaggs() {
    let s = seed();
    eprintln!("chaos case delta-random seed={s} (rerun: ODBIS_CHAOS_SEED={s})");
    let (p, token, cube) = delta_platform(None);
    let mut rng = StdRng::seed_from_u64(s);
    let mut next_id = 3i64;
    for step in 0..20 {
        let roll = rng.random_range(0..10i64);
        let sql = if roll < 7 {
            let store = rng.random_range(1..=3i64);
            let year = rng.random_range(2008..=2012i64);
            let amount = rng.random_range(10..5_000i64) as f64 / 10.0;
            next_id += 1;
            format!(
                "INSERT INTO fact_sales VALUES ({}, {store}, {year}, {amount:?})",
                next_id - 1
            )
        } else if roll < 9 {
            let id = rng.random_range(1..next_id);
            let amount = rng.random_range(10..5_000i64) as f64 / 10.0;
            format!("UPDATE fact_sales SET amount = {amount:?} WHERE id = {id}")
        } else {
            let id = rng.random_range(1..next_id);
            format!("DELETE FROM fact_sales WHERE id = {id}")
        };
        p.sql("acme", &token, &sql).unwrap();
        assert_preaggs_converged(&p, &cube, &format!("delta-random, step {step}, seed {s}"));
    }
}

/// WAL write faults under the delta path, on a durable workspace: a
/// refused INSERT leaves no delta behind, and the aggregates equal a live
/// query after every step, refused or acknowledged.
#[test]
fn combined_wal_and_dispatch_faults_never_diverge_preaggs() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let s = seed();
    eprintln!("chaos case delta-wal seed={s} (rerun: ODBIS_CHAOS_SEED={s})");
    let dir = tmp_dir("delta-wal");
    let (p, token, cube) = delta_platform(Some(dir.as_path()));
    let ws = p.workspace("acme").unwrap();
    let mut rng = StdRng::seed_from_u64(s);
    odbis_chaos::apply_spec("wal.write=err-every-nth(3)").unwrap();
    let (mut acked, mut refused) = (0, 0);
    for step in 0..20i64 {
        let next_id = 3 + step;
        let store = rng.random_range(1..=3i64);
        let amount = rng.random_range(10..5_000i64) as f64 / 10.0;
        let sql = format!("INSERT INTO fact_sales VALUES ({next_id}, {store}, 2010, {amount:?})");
        if p.sql("acme", &token, &sql).is_ok() {
            acked += 1;
        } else {
            refused += 1;
            assert_eq!(
                ws.deltas.pending(),
                0,
                "a refused INSERT left a delta behind (step {step}, seed {s})"
            );
        }
        assert_preaggs_converged(&p, &cube, &format!("delta-wal, step {step}, seed {s}"));
    }
    let triggered = odbis_chaos::triggered_count("wal.write");
    odbis_chaos::clear();
    assert!(triggered > 0, "wal.write never injected a fault");
    assert!(acked > 0 && refused > 0, "acked {acked}, refused {refused}");
}

/// The new chaos telemetry rides the normal metrics scrape: triggered
/// fault counts and retry counts are exported in Prometheus text format.
#[test]
fn failpoint_and_retry_counters_are_scraped() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let platform = Arc::new(OdbisPlatform::new());
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    odbis_chaos::apply_spec("chaos.metrics.probe=return-err").unwrap();
    assert!(odbis_chaos::check("chaos.metrics.probe").is_err());
    odbis_chaos::count_retry("metrics.probe");

    let (status, body) = http_get(&addr, "/api/v1/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("odbis_failpoint_triggered_total{site=\"chaos.metrics.probe\"} 1"),
        "missing failpoint counter:\n{body}"
    );
    assert!(
        body.contains("odbis_retries_total{op=\"metrics.probe\"}"),
        "missing retry counter:\n{body}"
    );
    odbis_chaos::clear();
    server.shutdown();
}
