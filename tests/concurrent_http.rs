//! Concurrency smoke test: many client threads hammer one platform server
//! with mixed traffic (reads, writes, bad requests, metrics scrapes) and
//! every response must come back — no connection resets, no 5xx, and the
//! server must shut down cleanly (bounded join) afterwards.

use std::io::{Read, Write};
use std::sync::Arc;

use odbis::{build_router, serve_platform, OdbisPlatform};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_get, http_request, HttpServer};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 25;

/// Multi-tenant reader/writer stress over HTTP: per tenant, one writer
/// bulk-inserts into `events` while one reader repeatedly aggregates the
/// untouched `ref_data` table. With per-table locking the reader's answer
/// must be the same every time (one consistent cut, never a torn or
/// blocked read), every response must stay under 500, and the usage meter
/// must tick monotonically while traffic flows.
#[test]
fn tenants_read_consistently_while_bulk_inserts_run() {
    const TENANTS: [&str; 2] = ["acme", "beta"];
    const REF_ROWS: i64 = 100;
    const ROUNDS: usize = 30;

    let platform = Arc::new(OdbisPlatform::new());
    let mut tokens = Vec::new();
    for t in TENANTS {
        platform
            .provision_tenant(t, t, SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = platform.login(t, "root", "pw").unwrap();
        platform
            .sql(t, &token, "CREATE TABLE ref_data (id INT, v INT)")
            .unwrap();
        let rows: Vec<String> = (0..REF_ROWS).map(|i| format!("({i}, {})", i * 3)).collect();
        platform
            .sql(
                t,
                &token,
                &format!("INSERT INTO ref_data VALUES {}", rows.join(", ")),
            )
            .unwrap();
        platform
            .sql(t, &token, "CREATE TABLE events (id INT, payload TEXT)")
            .unwrap();
        tokens.push(token);
    }
    let expected_sum: i64 = (0..REF_ROWS).map(|i| i * 3).sum();

    let server = HttpServer::start(build_router(Arc::clone(&platform)), 4).unwrap();
    let addr = server.addr().to_string();

    let mut handles = Vec::new();
    for (ti, tenant) in TENANTS.iter().enumerate() {
        // writer: bulk inserts, 20 rows per statement
        {
            let addr = addr.clone();
            let bearer = format!("Bearer {}", tokens[ti]);
            let tenant = tenant.to_string();
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let base = (round * 20) as i64;
                    let rows: Vec<String> = (0..20)
                        .map(|j| format!("({}, 'p{round}')", base + j))
                        .collect();
                    let sql = format!("INSERT INTO events VALUES {}", rows.join(", "));
                    let (status, _, body) = http_request(
                        &addr,
                        "POST",
                        "/api/v1/sql",
                        &[
                            ("x-tenant", tenant.as_str()),
                            ("Authorization", bearer.as_str()),
                        ],
                        sql.as_bytes(),
                    )
                    .expect("writer reset");
                    assert!(
                        status < 500,
                        "{tenant} writer round {round}: {status}: {body}"
                    );
                }
            }));
        }
        // reader: the aggregate over ref_data must never waver
        {
            let addr = addr.clone();
            let bearer = format!("Bearer {}", tokens[ti]);
            let tenant = tenant.to_string();
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let (status, _, body) = http_request(
                        &addr,
                        "POST",
                        "/api/v1/sql",
                        &[
                            ("x-tenant", tenant.as_str()),
                            ("Authorization", bearer.as_str()),
                        ],
                        b"SELECT COUNT(id), SUM(v) FROM ref_data",
                    )
                    .expect("reader reset");
                    assert!(
                        status < 500,
                        "{tenant} reader round {round}: {status}: {body}"
                    );
                    assert_eq!(status, 200, "{tenant} reader round {round}: {body}");
                    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
                    assert_eq!(
                        v["rows"][0][0].as_str(),
                        Some(REF_ROWS.to_string().as_str()),
                        "{tenant} round {round}: torn count: {body}"
                    );
                    assert_eq!(
                        v["rows"][0][1].as_str(),
                        Some(expected_sum.to_string().as_str()),
                        "{tenant} round {round}: torn sum: {body}"
                    );
                }
            }));
        }
    }

    // meter sampler: total usage units only ever grow while traffic flows
    let sampler = {
        let platform = Arc::clone(&platform);
        std::thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..40 {
                let total: u64 = platform.admin.usage_report().iter().map(|l| l.units).sum();
                assert!(
                    total >= last,
                    "usage meter went backwards: {last} -> {total}"
                );
                last = total;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };

    for h in handles {
        h.join().expect("a stress thread panicked");
    }
    sampler.join().expect("sampler panicked");

    // after the dust settles: every bulk insert landed, in both tenants
    for (ti, tenant) in TENANTS.iter().enumerate() {
        let rows = platform
            .sql(tenant, &tokens[ti], "SELECT COUNT(id) FROM events")
            .unwrap();
        assert_eq!(
            rows.rows[0][0],
            odbis_storage::Value::Int((ROUNDS * 20) as i64),
            "{tenant} lost inserts"
        );
    }
    server.shutdown();
}

#[test]
fn many_clients_no_resets_no_5xx_clean_shutdown() {
    let platform = Arc::new(OdbisPlatform::new());
    platform
        .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = platform.login("acme", "root", "pw").unwrap();
    platform
        .sql("acme", &token, "CREATE TABLE hits (id INT, who TEXT)")
        .unwrap();
    platform
        .sql("acme", &token, "INSERT INTO hits VALUES (0, 'seed')")
        .unwrap();

    let server = HttpServer::start(build_router(Arc::clone(&platform)), 4).unwrap();
    let addr = server.addr().to_string();

    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let addr = addr.clone();
        let token = token.clone();
        handles.push(std::thread::spawn(move || {
            let bearer = format!("Bearer {token}");
            for i in 0..REQUESTS_PER_CLIENT {
                let (status, body) = match i % 5 {
                    // unauthenticated surface
                    0 => http_get(&addr, "/api/v1/health").expect("health reset"),
                    1 => http_get(&addr, "/api/v1/metrics").expect("metrics reset"),
                    // authenticated write + read traffic
                    2 | 3 => {
                        let sql = if i % 5 == 2 {
                            format!(
                                "INSERT INTO hits VALUES ({}, 'c{client}')",
                                client * 1000 + i
                            )
                        } else {
                            "SELECT COUNT(id) FROM hits".to_string()
                        };
                        let (status, _, body) = http_request(
                            &addr,
                            "POST",
                            "/api/v1/sql",
                            &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
                            sql.as_bytes(),
                        )
                        .expect("sql reset");
                        (status, body)
                    }
                    // a client error: must be a clean 4xx envelope, not 5xx
                    _ => {
                        let (status, _, body) = http_request(
                            &addr,
                            "POST",
                            "/api/v1/sql",
                            &[("x-tenant", "acme"), ("Authorization", "Bearer forged")],
                            b"SELECT 1",
                        )
                        .expect("forged-token reset");
                        (status, body)
                    }
                };
                assert!(
                    status < 500,
                    "client {client} request {i}: got {status}: {body}"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("a client thread panicked");
    }

    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert!(
        server.requests_served() >= total,
        "served {} of {total} requests",
        server.requests_served()
    );

    // clean shutdown: all worker + accept threads join within bounded time
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );

    // and the writes all actually landed (4 requests per client are inserts)
    let inserts = (0..CLIENTS)
        .map(|_| (0..REQUESTS_PER_CLIENT).filter(|i| i % 5 == 2).count())
        .sum::<usize>();
    let rows = platform
        .sql("acme", &token, "SELECT COUNT(id) FROM hits")
        .unwrap();
    assert_eq!(
        rows.rows[0][0],
        odbis_storage::Value::Int((inserts + 1) as i64)
    );
}

/// One keep-alive connection, many requests — including a pipelined burst
/// written before any response is read. The event loop must answer all of
/// them, in order, on the same socket.
#[test]
fn keep_alive_connection_pipelines_through_the_reactor() {
    let platform = Arc::new(OdbisPlatform::new());
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();

    // write 10 requests back-to-back without reading a single byte
    const N: usize = 10;
    let mut burst = String::new();
    for i in 0..N {
        burst.push_str(&format!(
            "GET /api/v1/health HTTP/1.1\r\nHost: t\r\nX-Request-Id: pipe-{i}\r\n\r\n"
        ));
    }
    stream.write_all(burst.as_bytes()).unwrap();

    // the responses come back in request order on the same connection
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while buf.windows(4).filter(|w| w == b"\r\n\r\n").count() < N
        || !String::from_utf8_lossy(&buf).contains(&format!("pipe-{}", N - 1))
    {
        let n = stream.read(&mut chunk).expect("read pipelined response");
        assert!(n > 0, "connection closed after {} bytes", buf.len());
        buf.extend_from_slice(&chunk[..n]);
        if String::from_utf8_lossy(&buf)
            .matches("HTTP/1.1 200")
            .count()
            >= N
        {
            break;
        }
    }
    let text = String::from_utf8_lossy(&buf);
    assert_eq!(text.matches("HTTP/1.1 200").count(), N, "{text}");
    // responses carry the ids in the order the requests were written
    let mut last = 0;
    let mut seen = 0;
    for i in 0..N {
        let needle = format!("pipe-{i}");
        let pos = text
            .find(&needle)
            .unwrap_or_else(|| panic!("missing {needle}"));
        assert!(pos >= last, "response {i} out of order");
        last = pos;
        seen += 1;
    }
    assert_eq!(seen, N);
    assert!(server.requests_served() >= N as u64);
    server.shutdown();
}

/// Noisy-neighbor isolation: tenant A blasts far past its configured rate
/// limit while tenant B issues paced requests. A must see structured 429s
/// with Retry-After; B must never be throttled or slowed into failure;
/// the metrics scrape must count A's rejections.
#[test]
fn noisy_tenant_throttled_while_quiet_tenant_sails_through() {
    let platform = Arc::new(OdbisPlatform::new());
    for t in ["noisy", "quiet"] {
        platform
            .provision_tenant(t, t, SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
    }
    // only the noisy tenant is rate-limited: 5 rps, burst 5, queue 2
    platform
        .admin
        .config
        .set_for_tenant("noisy", "limits.rate", 5i64.into())
        .unwrap();
    platform
        .admin
        .config
        .set_for_tenant("noisy", "limits.burst", 5i64.into())
        .unwrap();
    platform
        .admin
        .config
        .set_for_tenant("noisy", "limits.queue_depth", 2i64.into())
        .unwrap();

    // the admission-aware server entry point
    let server = serve_platform(&platform, 4).unwrap();
    let addr = server.addr().to_string();

    // eight parallel clients push the noisy tenant far past rate + queue
    let noisy: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (mut ok, mut throttled) = (0u32, 0u32);
                for _ in 0..20 {
                    let (status, headers, body) = http_request(
                        &addr,
                        "GET",
                        "/api/v1/health",
                        &[("x-tenant", "noisy")],
                        b"",
                    )
                    .expect("noisy reset");
                    match status {
                        200 => ok += 1,
                        429 => {
                            throttled += 1;
                            assert!(
                                headers.contains_key("retry-after"),
                                "429 must carry Retry-After: {headers:?}"
                            );
                            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
                            assert_eq!(v["error"]["kind"], "rate_limited", "{body}");
                            assert!(
                                v["error"]["request_id"].as_str().is_some(),
                                "429 envelope carries the request id: {body}"
                            );
                        }
                        other => panic!("noisy got {other}: {body}"),
                    }
                }
                (ok, throttled)
            })
        })
        .collect();
    let quiet = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            for i in 0..20 {
                let (status, _, body) = http_request(
                    &addr,
                    "GET",
                    "/api/v1/health",
                    &[("x-tenant", "quiet")],
                    b"",
                )
                .expect("quiet reset");
                assert_eq!(status, 200, "quiet request {i} throttled: {body}");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    let (mut ok, mut throttled) = (0u32, 0u32);
    for h in noisy {
        let (o, t) = h.join().expect("noisy thread panicked");
        ok += o;
        throttled += t;
    }
    quiet.join().expect("quiet thread panicked");
    assert!(
        ok >= 5,
        "the burst allowance admits the first requests: {ok}"
    );
    assert!(
        throttled >= 10,
        "blasting past the limit must throttle: ok={ok} throttled={throttled}"
    );

    // rejections are visible on each tenant's own scrape, labelled by
    // tenant, and as a node total that names no tenant on the public one
    let (status, body) = http_get(&addr, "/api/v1/metrics").unwrap();
    assert_eq!(status, 200);
    let node_rejected: u32 = body
        .lines()
        .find_map(|l| l.strip_prefix("odbis_admission_rejected_total "))
        .unwrap_or_else(|| panic!("no node total of rejections: {body}"))
        .parse()
        .unwrap();
    assert!(node_rejected >= throttled, "{node_rejected} < {throttled}");
    let scrape = |tenant: &str| -> String {
        let token = platform.login(tenant, "root", "pw").unwrap();
        let bearer = format!("Bearer {token}");
        let headers = [("x-tenant", tenant), ("Authorization", bearer.as_str())];
        // the noisy tenant's own scrape is rate-gated too: wait out its
        // Retry-After
        for _ in 0..10 {
            let (status, resp_headers, body) =
                http_request(&addr, "GET", "/api/v1/admin/metrics", &headers, b"").unwrap();
            match status {
                200 => return body,
                429 => {
                    let secs: u64 = resp_headers["retry-after"].parse().unwrap();
                    std::thread::sleep(std::time::Duration::from_secs(secs));
                }
                other => panic!("{tenant} scrape answered {other}: {body}"),
            }
        }
        panic!("{tenant} scrape stayed throttled")
    };
    let body = scrape("noisy");
    assert!(
        body.contains("odbis_admission_rejected_total{tenant=\"noisy\"}"),
        "scrape must count noisy rejections"
    );
    let body = scrape("quiet");
    assert!(
        !body.contains("odbis_admission_rejected_total{tenant=\"quiet\"}")
            || body.contains("odbis_admission_rejected_total{tenant=\"quiet\"} 0"),
        "quiet tenant must have no rejections: {body}"
    );
    server.shutdown();
}

/// 100 parked long-poll watchers on a 2-worker server must not starve
/// the pool: a parked watcher costs a file descriptor, not a worker
/// thread, so unrelated requests keep flowing underneath, and one commit
/// wakes every watcher with the same new cursor.
#[test]
fn hundred_parked_watchers_do_not_starve_the_worker_pool() {
    use odbis_metadata::DataSet;

    const WATCHERS: usize = 100;

    let platform = Arc::new(OdbisPlatform::new());
    platform
        .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = platform.login("acme", "root", "pw").unwrap();
    platform
        .sql("acme", &token, "CREATE TABLE ticks (id INT, v INT)")
        .unwrap();
    platform
        .define_dataset(
            "acme",
            &token,
            DataSet {
                name: "tick_sum".into(),
                source: "warehouse".into(),
                sql: "SELECT SUM(v) AS s FROM ticks".into(),
                description: String::new(),
            },
        )
        .unwrap();

    // two workers would deadlock immediately if watchers held worker
    // threads
    let server = odbis_web::HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    let hub = Arc::clone(&platform.workspace("acme").unwrap().watch);
    let cursor = hub.cursor();
    let watchers: Vec<_> = (0..WATCHERS)
        .map(|i| {
            let addr = addr.clone();
            let bearer = format!("Bearer {token}");
            std::thread::spawn(move || {
                let (status, headers, body) = http_request(
                    &addr,
                    "GET",
                    &format!("/api/v1/datasets/tick_sum/watch?cursor={cursor}&timeout_ms=30000"),
                    &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
                    b"",
                )
                .unwrap_or_else(|e| panic!("watcher {i} reset: {e}"));
                (status, headers, body)
            })
        })
        .collect();

    // all 100 must park (none served a premature answer, none rejected)
    let parked_deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while hub.parked() < WATCHERS {
        assert!(
            std::time::Instant::now() < parked_deadline,
            "only {} of {WATCHERS} watchers parked",
            hub.parked()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // the pool is not starved: unrelated traffic is served while every
    // watcher is parked
    for i in 0..10 {
        let (status, body) = http_get(&addr, "/api/v1/health").unwrap();
        assert_eq!(status, 200, "probe {i} starved: {body}");
    }

    // one commit wakes the whole crowd
    platform
        .sql("acme", &token, "INSERT INTO ticks VALUES (1, 7)")
        .unwrap();
    let mut cursors = std::collections::BTreeSet::new();
    for (i, w) in watchers.into_iter().enumerate() {
        let (status, headers, body) = w.join().expect("watcher panicked");
        assert_eq!(status, 200, "watcher {i}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["changed"], true, "watcher {i}: {body}");
        let c = v["cursor"].as_u64().unwrap();
        assert!(c > cursor, "watcher {i} got a stale cursor {c}");
        assert_eq!(headers["x-watch-cursor"], c.to_string(), "watcher {i}");
        cursors.insert(c);
    }
    assert_eq!(
        cursors.len(),
        1,
        "every watcher sees the same committed version: {cursors:?}"
    );
    assert_eq!(hub.parked(), 0, "no watcher left behind");
    server.shutdown();
}

/// Two threads write one aggregated fact table through the platform at
/// once, round after round: one UPDATEs a row the aggregate reads, which
/// forces a rebuild, and one INSERTs, so the rebuild can read a row whose
/// delta is not applied yet. After every round the aggregate must be fresh
/// and equal a live query — one that also folded such a row in read a row
/// too high.
#[test]
fn concurrent_updates_and_inserts_keep_the_preagg_exact() {
    use odbis_olap::{
        Aggregator, CubeDef, CubeQuery, DimensionDef, LevelDef, LevelRef, MeasureDef,
    };

    const ROUNDS: usize = 100;
    let platform = OdbisPlatform::new();
    platform
        .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = platform.login("acme", "root", "pw").unwrap();
    for sql in [
        "CREATE TABLE f (region TEXT, amount INT)",
        "INSERT INTO f VALUES ('EU', 1), ('US', 1)",
    ] {
        platform.sql("acme", &token, sql).unwrap();
    }
    let cube = CubeDef {
        name: "c".into(),
        fact_table: "f".into(),
        dimensions: vec![DimensionDef {
            name: "geo".into(),
            table: None,
            fact_fk: String::new(),
            dim_key: String::new(),
            levels: vec![LevelDef {
                name: "region".into(),
                column: "region".into(),
            }],
        }],
        measures: vec![MeasureDef {
            name: "revenue".into(),
            column: "amount".into(),
            aggregator: Aggregator::Sum,
        }],
    };
    platform
        .register_cube("acme", &token, cube.clone())
        .unwrap();
    let q = CubeQuery {
        axes: vec![LevelRef::new("geo", "region")],
        slices: vec![],
        measures: vec!["revenue".into()],
    };
    platform
        .materialize_aggregate("acme", &token, "c", q.axes.clone(), q.measures.clone())
        .unwrap();
    let ws = platform.workspace("acme").unwrap();

    for round in 0..ROUNDS {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for sql in [
                "UPDATE f SET amount = 1 WHERE region = 'US'",
                "INSERT INTO f VALUES ('EU', 1)",
            ] {
                let (platform, token, start) = (&platform, &token, &start);
                s.spawn(move || {
                    start.wait();
                    platform.sql("acme", token, sql).unwrap();
                });
            }
        });
        let maintained = ws
            .agg_cache
            .read()
            .try_answer("c", &q)
            .unwrap_or_else(|| panic!("round {round}: the aggregate stayed stale"));
        let live = ws.cubes.query(&cube, &q).unwrap();
        assert_eq!(maintained.cells, live.cells, "round {round}");
    }
}
