//! Versioned-API + telemetry-spine end-to-end: drive every service of the
//! platform (SQL, ETL, OLAP/MDX, reporting, delivery) through the gate,
//! then read the telemetry back out through the `/api/v1` surface — the
//! Prometheus metrics scrape and the pay-as-you-go invoice.

use std::sync::Arc;

use odbis::{build_router, OdbisPlatform};
use odbis_delivery::Channel;
use odbis_metadata::DataSet;
use odbis_olap::{Aggregator, CubeDef, DimensionDef, LevelDef, MeasureDef};
use odbis_reporting::{Dashboard, KpiSpec, Widget};
use odbis_sql::QueryResult;
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_get, http_request, HttpServer};

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
        &[("x-tenant", "clinic"), ("Authorization", bearer.as_str())],
        body.as_bytes(),
    )
    .unwrap()
}

/// Provision a tenant and push one request through every platform service
/// so each ServiceKind accrues both meter units and telemetry.
fn drive_traffic(platform: &Arc<OdbisPlatform>) -> String {
    platform
        .provision_tenant(
            "clinic",
            "City Clinic",
            SubscriptionPlan::standard(),
            "cio",
            "pw",
        )
        .unwrap();
    let token = platform.login("clinic", "cio", "pw").unwrap();

    // MDS: SQL + data set
    platform
        .sql(
            "clinic",
            &token,
            "CREATE TABLE admissions (dept TEXT, year INT, cost DOUBLE)",
        )
        .unwrap();
    platform
        .sql(
            "clinic",
            &token,
            "INSERT INTO admissions VALUES ('Cardiology', 2010, 1200), ('Oncology', 2010, 3400), ('Cardiology', 2009, 800)",
        )
        .unwrap();
    platform
        .define_dataset(
            "clinic",
            &token,
            DataSet {
                name: "total_cost".into(),
                source: "warehouse".into(),
                sql: "SELECT SUM(cost) AS total FROM admissions".into(),
                description: String::new(),
            },
        )
        .unwrap();
    platform
        .execute_dataset("clinic", &token, "total_cost")
        .unwrap();

    // IS: an ETL job loading a CSV extract
    platform
        .run_etl(
            "clinic",
            &token,
            &odbis_etl::EtlJob {
                name: "load-referrals".into(),
                extractor: odbis_etl::Extractor::Csv("dept,n\nCardiology,4\nOncology,2\n".into()),
                transforms: vec![],
                loader: odbis_etl::Loader {
                    table: "referrals".into(),
                    mode: odbis_etl::LoadMode::Replace,
                },
            },
        )
        .unwrap();

    // AS: cube + MDX
    platform
        .register_cube(
            "clinic",
            &token,
            CubeDef {
                name: "adm".into(),
                fact_table: "admissions".into(),
                dimensions: vec![DimensionDef {
                    name: "org".into(),
                    table: None,
                    fact_fk: String::new(),
                    dim_key: String::new(),
                    levels: vec![LevelDef {
                        name: "dept".into(),
                        column: "dept".into(),
                    }],
                }],
                measures: vec![MeasureDef {
                    name: "cost".into(),
                    column: "cost".into(),
                    aggregator: Aggregator::Sum,
                }],
            },
        )
        .unwrap();
    platform
        .mdx("clinic", &token, "SELECT cost BY org.dept FROM adm")
        .unwrap();

    // RS: a dashboard over the data set
    platform
        .render_dashboard(
            "clinic",
            &token,
            &Dashboard {
                name: "exec".into(),
                title: "Exec".into(),
                rows: vec![vec![Widget::Kpi {
                    dataset: "total_cost".into(),
                    spec: KpiSpec {
                        title: "Total cost".into(),
                        value_column: "total".into(),
                        unit: "€".into(),
                    },
                }]],
            },
        )
        .unwrap();

    // IDS: deliver a payload by e-mail
    platform
        .deliver(
            "clinic",
            &token,
            "cio",
            "exec",
            Channel::Email,
            &odbis_delivery::ReportPayload {
                title: "Exec".into(),
                data: QueryResult {
                    columns: vec!["total".into()],
                    rows: vec![vec![odbis_storage::Value::Float(5400.0)]],
                    rows_affected: 0,
                },
            },
        )
        .unwrap();

    token
}

#[test]
fn metrics_scrape_covers_every_service() {
    let platform = Arc::new(OdbisPlatform::new());
    drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // the scrape is public (monitoring agents hold no tenant session)
    let (status, body) = http_get(&addr, "/api/v1/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE odbis_requests_total counter"));
    assert!(body.contains("# TYPE odbis_latency_seconds histogram"));
    // every gate service shows up with the tenant label
    for service in ["MDS", "IS", "AS", "RS", "IDS"] {
        assert!(
            body.contains(&format!("tenant=\"clinic\",service=\"{service}\"")),
            "metrics must cover service {service}: {body}"
        );
    }
    // the layer-level child spans are labelled too
    assert!(body.contains("service=\"sql\""));
    // rows flowed through the SQL layer
    assert!(body.contains("odbis_rows_total"));
    server.shutdown();
}

#[test]
fn invoice_prices_all_services_and_needs_admin() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/invoice", &token, "");
    assert_eq!(status, 200);
    let lines: serde_json::Value = serde_json::from_str(&body).unwrap();
    let lines = lines.as_array().unwrap().clone();
    for service in ["MDS", "IS", "AS", "RS", "IDS"] {
        let line = lines
            .iter()
            .find(|l| l["tenant"] == "clinic" && l["service"] == service)
            .unwrap_or_else(|| panic!("invoice must have a {service} line: {body}"));
        assert!(line["millicents"].as_i64().unwrap() > 0);
        assert!(line["requests"].as_i64().unwrap() >= 1);
    }

    // a non-admin analyst cannot read invoices
    platform
        .create_user("clinic", &token, "analyst", "pw", "ROLE_ANALYST")
        .unwrap();
    let analyst = platform.login("clinic", "analyst", "pw").unwrap();
    let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/invoice", &analyst, "");
    assert_eq!(status, 403);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"], "security");
    server.shutdown();
}

#[test]
fn versioned_surface_serves_login_and_error_envelopes() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    let (status, _, _) = auth(&addr, "GET", "/api/v1/datasets", &token, "");
    assert_eq!(status, 200);

    // JSON login on the canonical path
    let (status, _, body) = http_request(
        &addr,
        "POST",
        "/api/v1/login",
        &[],
        b"{\"tenant\":\"clinic\",\"user\":\"cio\",\"password\":\"pw\"}",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("token"));

    // the error envelope rides the versioned surface: unknown data set is 404
    let (status, _, body) = auth(&addr, "GET", "/api/v1/datasets/ghost", &token, "");
    assert_eq!(status, 404);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"], "not_found");
    server.shutdown();
}

#[test]
fn self_description_index_advertises_the_route_table() {
    let platform = Arc::new(OdbisPlatform::new());
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // the index is public: clients discover the surface before they log in
    let (status, body) = http_get(&addr, "/api/v1").unwrap();
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["api"], "v1");
    let routes = v["routes"].as_array().unwrap();

    let find = |method: &str, path: &str| {
        routes
            .iter()
            .find(|r| r["method"] == method && r["path"] == path)
            .unwrap_or_else(|| panic!("index must list {method} {path}: {body}"))
    };
    // canonical routes advertise their auth requirement
    assert_eq!(find("GET", "/api/v1/health")["auth"], "public");
    assert_eq!(find("GET", "/api/v1/datasets")["auth"], "DATASET_RUN");
    assert_eq!(find("POST", "/api/v1/sql")["auth"], "ETL_DESIGN");
    assert_eq!(find("GET", "/api/v1/admin/slowlog")["auth"], "ADMIN_USERS");
    assert_eq!(
        find("POST", "/api/v1/admin/failpoints")["auth"],
        "ADMIN_CONFIG"
    );
    // one route tree: each handler is listed once, under the prefix
    let mut listed: Vec<String> = routes
        .iter()
        .map(|r| format!("{} {}", r["method"], r["path"]))
        .collect();
    assert!(listed.iter().all(|l| l.contains(" \"/api/v1")), "{body}");
    listed.sort();
    listed.dedup();
    assert_eq!(listed.len(), routes.len(), "duplicate registration: {body}");
    // the index lists itself
    assert_eq!(find("GET", "/api/v1")["auth"], "public");

    // every advertised canonical GET route actually resolves (anything but
    // 404/405 proves the route is wired; most answer 401 without a session)
    for r in routes.iter().filter(|r| r["method"] == "GET") {
        let path = r["path"].as_str().unwrap();
        if path.contains(':') {
            continue; // parameterized paths need a concrete segment
        }
        let (status, _) = http_get(&addr, path).unwrap();
        assert!(
            status != 404 && status != 405,
            "advertised route GET {path} is not wired: {status}"
        );
    }
    server.shutdown();
}

#[test]
fn collection_pagination_pages_and_validates_cursors() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    // four more data sets on top of drive_traffic's `total_cost`
    for i in 0..4 {
        platform
            .define_dataset(
                "clinic",
                &token,
                DataSet {
                    name: format!("extra_{i}"),
                    source: "warehouse".into(),
                    sql: "SELECT dept FROM admissions".into(),
                    description: String::new(),
                },
            )
            .unwrap();
    }
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // unpaged keeps the original bare-array shape
    let (status, _, body) = auth(&addr, "GET", "/api/v1/datasets", &token, "");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.as_array().unwrap().len(), 5, "bare shape: {body}");

    // paged: walk the whole collection two items at a time
    let mut seen = Vec::new();
    let mut cursor = String::new();
    loop {
        let path = if cursor.is_empty() {
            "/api/v1/datasets?limit=2".to_string()
        } else {
            format!("/api/v1/datasets?limit=2&cursor={cursor}")
        };
        let (status, _, body) = auth(&addr, "GET", &path, &token, "");
        assert_eq!(status, 200, "{path}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let items = v["items"].as_array().unwrap();
        assert!(items.len() <= 2);
        seen.extend(items.iter().map(|i| i.as_str().unwrap().to_string()));
        match v["next_cursor"].as_str() {
            Some(c) => cursor = c.to_string(),
            None => break,
        }
    }
    assert_eq!(
        seen.len(),
        5,
        "pagination lost or duplicated items: {seen:?}"
    );

    // a cursor past the end is an empty page, not an error
    let (status, _, body) = auth(&addr, "GET", "/api/v1/datasets?cursor=999", &token, "");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v["items"].as_array().unwrap().is_empty());
    assert!(v["next_cursor"].is_null());

    // malformed cursor and out-of-range limit are 400 envelopes
    for path in [
        "/api/v1/datasets?cursor=abc",
        "/api/v1/datasets?limit=0",
        "/api/v1/datasets?limit=100000",
    ] {
        let (status, _, body) = auth(&addr, "GET", path, &token, "");
        assert_eq!(status, 400, "{path}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "bad_request", "{path}: {body}");
        assert!(
            v["error"]["request_id"]
                .as_str()
                .is_some_and(|s| !s.is_empty()),
            "envelope must carry the request id: {body}"
        );
    }

    // the same paging contract holds on the admin collections
    let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/usage?limit=3", &token, "");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v["items"].as_array().unwrap().len() <= 3, "{body}");
    server.shutdown();
}

#[test]
fn request_ids_ride_responses_envelopes_and_the_slowlog() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    // everything slower than 0ms is "slow": every traced call lands in the log
    platform
        .admin
        .config
        .set_for_tenant("clinic", "telemetry.slow_ms", 1i64.into())
        .unwrap();
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();
    let bearer = format!("Bearer {token}");

    // a client-supplied id is adopted and echoed
    let mut insert = String::from("INSERT INTO admissions VALUES ('Gen', 2012, 1)");
    for i in 0..20_000 {
        insert.push_str(&format!(", ('Gen', 2012, {i})"));
    }
    let (status, headers, _) = http_request(
        &addr,
        "POST",
        "/api/v1/sql",
        &[
            ("x-tenant", "clinic"),
            ("Authorization", bearer.as_str()),
            ("X-Request-Id", "e2e-slow-insert-1"),
        ],
        insert.as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("x-request-id").map(String::as_str),
        Some("e2e-slow-insert-1")
    );

    // ... and shows up on the slow-log entry for that statement
    let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/slowlog", &token, "");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let entries = v.as_array().unwrap();
    assert!(
        entries
            .iter()
            .any(|e| e["requestId"] == "e2e-slow-insert-1"),
        "slow log must link the request id: {body}"
    );

    // a request without an id gets a minted one, echoed on the response
    let (_, headers, _) = auth(&addr, "GET", "/api/v1/datasets", &token, "");
    let minted = headers.get("x-request-id").expect("id must be minted");
    assert!(minted.starts_with("req-"), "minted id: {minted}");

    // error envelopes embed the id that the response header carries
    let (status, headers, body) = http_request(
        &addr,
        "GET",
        "/api/v1/datasets/ghost",
        &[
            ("x-tenant", "clinic"),
            ("Authorization", bearer.as_str()),
            ("X-Request-Id", "e2e-miss-7"),
        ],
        b"",
    )
    .unwrap();
    assert_eq!(status, 404);
    assert_eq!(
        headers.get("x-request-id").map(String::as_str),
        Some("e2e-miss-7")
    );
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["request_id"], "e2e-miss-7", "{body}");
    server.shutdown();
}

#[test]
fn dataset_downloads_negotiate_csv_and_json() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();
    let bearer = format!("Bearer {token}");
    let hdrs = |accept: &'static str| {
        [
            ("x-tenant", "clinic"),
            ("Authorization", bearer.as_str()),
            ("Accept", accept),
        ]
    };

    // text/csv streams straight from the columnar batch
    let (status, headers, body) = http_request(
        &addr,
        "GET",
        "/api/v1/datasets/total_cost",
        &hdrs("text/csv"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(headers["content-type"].starts_with("text/csv"));
    assert_eq!(body, "total\r\n5400.0\r\n");

    // JSON stays the default shape
    let (status, headers, body) = http_request(
        &addr,
        "GET",
        "/api/v1/datasets/total_cost",
        &hdrs("application/json"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(headers["content-type"].starts_with("application/json"));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["columns"][0], "total");

    // an unsupported type is a 406 envelope, not a silent JSON fallback
    let (status, _, body) = http_request(
        &addr,
        "GET",
        "/api/v1/datasets/total_cost",
        &hdrs("application/xml"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 406, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"], "not_acceptable");

    // a missing data set under CSV negotiation still errors as JSON envelope
    let (status, _, body) = http_request(
        &addr,
        "GET",
        "/api/v1/datasets/ghost",
        &hdrs("text/csv"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 404);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"], "not_found");
    server.shutdown();
}

#[test]
fn slowlog_endpoint_exposes_slow_operations() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    // retroactively making everything >1ms slow: run one more heavy statement
    platform
        .admin
        .config
        .set_for_tenant("clinic", "telemetry.slow_ms", 1i64.into())
        .unwrap();
    let mut insert = String::from("INSERT INTO admissions VALUES ('Generated', 2011, 1)");
    for i in 0..20_000 {
        insert.push_str(&format!(", ('Generated', 2011, {i})"));
    }
    platform.sql("clinic", &token, &insert).unwrap();

    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();
    let (status, _, body) = auth(&addr, "GET", "/api/v1/admin/slowlog", &token, "");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let entries = v.as_array().unwrap();
    assert!(!entries.is_empty(), "slow log must have entries: {body}");
    assert_eq!(entries[0]["tenant"], "clinic");
    assert!(entries[0]["durationMicros"].as_i64().unwrap() >= 1000);
    server.shutdown();
}

/// Every tenant's first user holds `ADMIN_USERS`, so the admin reads must
/// answer the caller's own tenant only: a second tenant's admin sees none
/// of `clinic`'s usage or cost lines, operations or SQL text.
#[test]
fn admin_reads_answer_only_the_callers_tenant() {
    let platform = Arc::new(OdbisPlatform::new());
    let clinic = drive_traffic(&platform);
    let secret = "INSERT INTO admissions VALUES ('Psychiatry', 2011, 1)";
    for tenant in ["clinic", "lab"] {
        platform
            .admin
            .config
            .set_for_tenant(tenant, "telemetry.slow_ms", 1i64.into())
            .unwrap();
    }
    let mut insert = String::from(secret);
    for i in 0..20_000 {
        insert.push_str(&format!(", ('Psychiatry', 2011, {i})"));
    }
    platform.sql("clinic", &clinic, &insert).unwrap();
    platform
        .provision_tenant("lab", "Lab", SubscriptionPlan::standard(), "boss", "pw")
        .unwrap();
    let lab = platform.login("lab", "boss", "pw").unwrap();
    platform
        .sql("lab", &lab, "CREATE TABLE samples (id INT)")
        .unwrap();
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    let read = |tenant: &str, token: &str, path: &str| {
        let bearer = format!("Bearer {token}");
        let (status, _, body) = http_request(
            &addr,
            "GET",
            path,
            &[("x-tenant", tenant), ("Authorization", bearer.as_str())],
            b"",
        )
        .unwrap();
        assert_eq!(status, 200, "{tenant} {path}: {body}");
        body
    };
    for path in [
        "/api/v1/admin/usage",
        "/api/v1/admin/invoice",
        "/api/v1/admin/slowlog",
    ] {
        let body = read("lab", &lab, path);
        assert!(!body.contains("clinic"), "{path} leaks clinic: {body}");
        assert!(!body.contains("Psychiatry"), "{path} leaks SQL: {body}");
        assert!(!body.contains("etl.run"), "{path} leaks operations: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let lines = v.as_array().unwrap();
        assert!(lines.iter().all(|l| l["tenant"] == "lab"), "{path}: {body}");
        // and the owner still reads its own
        let own = read("clinic", &clinic, path);
        assert!(own.contains("\"clinic\""), "{path}: {own}");
    }
    assert!(read("clinic", &clinic, "/api/v1/admin/slowlog").contains("Psychiatry"));
    server.shutdown();
}

// --------------------------------------------------------------- watch API
//
// `GET /api/v1/datasets/:name/watch`: long-poll push delivery. The client
// passes the version cursor from its previous poll; the response is 200
// `{"dataset","changed":true,"cursor"}` as soon as any table the dataset
// reads changes past that cursor, or 204 with the client's own cursor
// echoed when the timeout lapses. Both shapes carry `X-Watch-Cursor`.

#[test]
fn watch_long_poll_returns_when_a_watched_table_changes() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // park strictly after "now": past writes must not complete this poll
    let hub = Arc::clone(&platform.workspace("clinic").unwrap().watch);
    let cursor = hub.cursor();
    let poller = {
        let addr = addr.clone();
        let token = token.clone();
        std::thread::spawn(move || {
            auth(
                &addr,
                "GET",
                &format!("/api/v1/datasets/total_cost/watch?cursor={cursor}&timeout_ms=10000"),
                &token,
                "",
            )
        })
    };
    // wait until the watcher is actually parked, then commit a write to
    // the table the dataset reads
    for _ in 0..200 {
        if hub.parked() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(hub.parked() > 0, "watcher never parked");
    platform
        .sql(
            "clinic",
            &token,
            "INSERT INTO admissions VALUES ('Radiology', 2011, 500)",
        )
        .unwrap();

    let (status, headers, body) = poller.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["dataset"], "total_cost");
    assert_eq!(v["changed"], true);
    let new_cursor = v["cursor"].as_u64().unwrap();
    assert!(new_cursor > cursor, "cursor must advance past {cursor}");
    assert_eq!(headers["x-watch-cursor"], new_cursor.to_string());
    server.shutdown();
}

#[test]
fn watch_cursor_replays_a_missed_update_without_parking() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // the update happens while no watcher is connected…
    platform
        .sql(
            "clinic",
            &token,
            "INSERT INTO admissions VALUES ('Neurology', 2012, 900)",
        )
        .unwrap();
    // …and a poll from an older cursor replays it immediately (cursor 0 =
    // "anything ever"), long before the 10 s timeout
    let started = std::time::Instant::now();
    let (status, headers, body) = auth(
        &addr,
        "GET",
        "/api/v1/datasets/total_cost/watch?cursor=0&timeout_ms=10000",
        &token,
        "",
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "replay must not park"
    );
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["changed"], true);
    let replayed = v["cursor"].as_u64().unwrap();
    assert!(replayed > 0);
    assert_eq!(headers["x-watch-cursor"], replayed.to_string());

    // polling again from the replayed cursor finds nothing new: 204 with
    // the same cursor echoed back
    let (status, headers, body) = auth(
        &addr,
        "GET",
        &format!("/api/v1/datasets/total_cost/watch?cursor={replayed}&timeout_ms=100"),
        &token,
        "",
    );
    assert_eq!(status, 204, "{body}");
    assert!(body.is_empty(), "a timeout response has no body: {body}");
    assert_eq!(headers["x-watch-cursor"], replayed.to_string());
    server.shutdown();
}

#[test]
fn watch_rejects_bad_parameters_and_unknown_datasets() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    for (path, kind, status) in [
        (
            "/api/v1/datasets/total_cost/watch?cursor=abc",
            "bad_request",
            400,
        ),
        (
            "/api/v1/datasets/total_cost/watch?timeout_ms=3600000",
            "bad_request",
            400,
        ),
        (
            "/api/v1/datasets/ghost/watch?timeout_ms=50",
            "not_found",
            404,
        ),
    ] {
        let (got, _, body) = auth(&addr, "GET", path, &token, "");
        assert_eq!(got, status, "{path}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], kind, "{path}");
    }
    server.shutdown();
}

// ------------------------------------------------------- deliveries API
//
// `GET /api/v1/deliveries`: the caller's own outbox, read by cursor (the
// `seq` of the last entry read). Entries after the cursor come back at
// once as `{"entries","missed","cursor"}`; with none the poll parks until
// the caller's next delivery, or answers 204 with its cursor echoed when
// the timeout lapses. Both shapes carry `X-Watch-Cursor`.

fn deliver_to(platform: &OdbisPlatform, tenant: &str, token: &str, user: &str, report: &str) {
    let payload = odbis_delivery::ReportPayload {
        title: report.into(),
        data: QueryResult {
            columns: vec!["n".into()],
            rows: vec![vec![odbis_storage::Value::Int(1)]],
            rows_affected: 0,
        },
    };
    platform
        .deliver(tenant, token, user, report, Channel::OfficeTool, &payload)
        .unwrap();
}

fn deliveries_at(
    addr: &str,
    token: &str,
    query: &str,
) -> (u16, std::collections::BTreeMap<String, String>, String) {
    auth(
        addr,
        "GET",
        &format!("/api/v1/deliveries?{query}"),
        token,
        "",
    )
}

fn reports_of(body: &str) -> Vec<String> {
    let v: serde_json::Value = serde_json::from_str(body).unwrap();
    v["entries"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e["report"].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn deliveries_long_poll_wakes_only_on_the_callers_own_delivery() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform); // delivered "exec" to cio
    platform
        .create_user("clinic", &token, "nurse", "pw", "ROLE_ANALYST")
        .unwrap();
    let nurse = platform.login("clinic", "nurse", "pw").unwrap();
    // a second tenant with a user of the same name
    platform
        .provision_tenant("lab", "Lab", SubscriptionPlan::standard(), "cio", "pw")
        .unwrap();
    let lab = platform.login("lab", "cio", "pw").unwrap();
    // a table named like the user, from a quoted identifier
    platform
        .sql("clinic", &token, "CREATE TABLE \"cio\" (x INT)")
        .unwrap();
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();

    // entries after the cursor answer at once
    let (status, headers, body) = deliveries_at(&addr, &token, "cursor=0");
    assert_eq!(status, 200, "{body}");
    assert_eq!(reports_of(&body), ["exec"]);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        (v["cursor"].as_u64(), v["missed"].as_u64()),
        (Some(1), Some(0))
    );
    assert_eq!(headers["x-watch-cursor"], "1");

    let hub = Arc::clone(&platform.workspace("clinic").unwrap().watch);
    let poller = {
        let (addr, token) = (addr.clone(), token.clone());
        std::thread::spawn(move || deliveries_at(&addr, &token, "cursor=1&timeout_ms=10000"))
    };
    for _ in 0..200 {
        if hub.parked() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(hub.parked(), 1, "poll never parked");
    // none of these is a delivery to clinic's cio: the poll stays parked
    deliver_to(&platform, "clinic", &token, "nurse", "ward");
    deliver_to(&platform, "lab", &lab, "cio", "assay");
    platform
        .sql("clinic", &token, "INSERT INTO \"cio\" VALUES (1)")
        .unwrap();
    assert_eq!(hub.parked(), 1, "woken by someone else's change");

    deliver_to(&platform, "clinic", &token, "cio", "daily");
    let (status, headers, body) = poller.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(reports_of(&body), ["daily"]);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["entries"][0]["seq"], 2);
    assert_eq!(v["entries"][0]["contentType"], "text/csv");
    assert_eq!(v["entries"][0]["body"], "n\n1\n");
    assert_eq!(headers["x-watch-cursor"], "2");

    // nothing new: 204 with the cursor echoed
    let (status, headers, _) = deliveries_at(&addr, &token, "cursor=2&timeout_ms=50");
    assert_eq!(status, 204);
    assert_eq!(headers["x-watch-cursor"], "2");
    // re-reading an old cursor returns the same entries (at-least-once)
    let (_, _, again) = deliveries_at(&addr, &token, "cursor=1");
    assert_eq!(reports_of(&again), ["daily"]);
    // a cursor ahead of the outbox resynchronises from the start
    let (status, headers, body) = deliveries_at(&addr, &token, "cursor=99");
    assert_eq!(status, 200);
    assert_eq!(reports_of(&body), ["exec", "daily"]);
    assert_eq!(headers["x-watch-cursor"], "2");
    // every user, in every tenant, reads only their own outbox
    let (_, _, body) = deliveries_at(&addr, &nurse, "cursor=0");
    assert_eq!(reports_of(&body), ["ward"]);
    let (_, _, body) = http_request(
        &addr,
        "GET",
        "/api/v1/deliveries?cursor=0",
        &[
            ("x-tenant", "lab"),
            ("Authorization", &format!("Bearer {lab}")),
        ],
        b"",
    )
    .unwrap();
    assert_eq!(reports_of(&body), ["assay"]);
    server.shutdown();
}

#[test]
fn deliveries_report_what_the_bounded_outbox_evicted() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform);
    for i in 0..odbis_delivery::OUTBOX_CAPACITY {
        deliver_to(&platform, "clinic", &token, "cio", &format!("r{i}"));
    }
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();
    // "exec" (seq 1) was evicted: the reader is told, not skipped past it
    let (status, _, body) = deliveries_at(&addr, &token, "cursor=0");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["missed"], 1);
    let entries = v["entries"].as_array().unwrap();
    assert_eq!(entries.len(), odbis_delivery::OUTBOX_CAPACITY);
    assert_eq!(entries[0]["seq"], 2);
    // bad parameters are 400 envelopes, as on the dataset watch
    for query in ["cursor=abc", "timeout_ms=3600000"] {
        let (status, _, body) = deliveries_at(&addr, &token, query);
        assert_eq!(status, 400, "{query}: {body}");
    }
    server.shutdown();
}

/// Deliveries go to the users of the tenant's realm: any other recipient
/// is a 404, so a burst to made-up names can neither flush a user's
/// unread entries nor grow the outbox.
#[test]
fn deliveries_refuse_recipients_outside_the_realm() {
    let platform = Arc::new(OdbisPlatform::new());
    let token = drive_traffic(&platform); // delivered "exec" to cio
    let payload = odbis_delivery::ReportPayload {
        title: "spam".into(),
        data: QueryResult {
            columns: vec![],
            rows: vec![],
            rows_affected: 0,
        },
    };
    for i in 0..odbis_delivery::OUTBOX_CAPACITY {
        let ghost = format!("ghost{i}");
        let err = platform
            .deliver("clinic", &token, &ghost, "spam", Channel::Email, &payload)
            .unwrap_err();
        assert_eq!(
            (err.http_status(), err.kind()),
            (404, "not_found"),
            "{ghost}"
        );
    }
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
    let addr = server.addr().to_string();
    let (status, _, body) = deliveries_at(&addr, &token, "cursor=0");
    assert_eq!(status, 200, "{body}");
    assert_eq!(reports_of(&body), ["exec"]);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        (v["missed"].as_u64(), v["cursor"].as_u64()),
        (Some(0), Some(1))
    );
    server.shutdown();
}

// ------------------------------------------------- watch across migration
//
// The migration contract for watchers: version cursors are per-node. A
// client that kept polling across a migration carries a cursor from the
// source node's hub, which may be *ahead* of the target's fresh counter.
// Such a poll must not park until timeout — the hub answers immediately
// with `changed: true` and its own authoritative cursor, so the client
// re-reads the dataset once and is resynchronized. (Datasets themselves
// are ephemeral metadata, re-registered after a move exactly as after a
// node restart; the warehouse and the session token both migrate.)

#[test]
fn watch_contract_across_live_migration() {
    let mut root = std::env::temp_dir();
    root.push(format!("odbis-api-v1-migrate-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let fabric = odbis::Cluster::new();
    let node_a = fabric.add_node("node-a", root.join("a")).unwrap();
    let node_b = fabric.add_node("node-b", root.join("b")).unwrap();
    let srv_a = HttpServer::start(build_router(Arc::clone(&node_a)), 2).unwrap();
    let srv_b = HttpServer::start(build_router(Arc::clone(&node_b)), 2).unwrap();
    fabric.map().set_addr("node-a", &srv_a.addr().to_string());
    fabric.map().set_addr("node-b", &srv_b.addr().to_string());

    let owner = fabric
        .provision_tenant(
            "clinic",
            "City Clinic",
            SubscriptionPlan::standard(),
            "cio",
            "pw",
        )
        .unwrap();
    let (src, dst, src_addr, dst_id) = if owner == "node-a" {
        (
            Arc::clone(&node_a),
            Arc::clone(&node_b),
            srv_a.addr().to_string(),
            "node-b",
        )
    } else {
        (
            Arc::clone(&node_b),
            Arc::clone(&node_a),
            srv_b.addr().to_string(),
            "node-a",
        )
    };
    let token = src.login("clinic", "cio", "pw").unwrap();
    let dataset = DataSet {
        name: "total_cost".into(),
        source: "warehouse".into(),
        sql: "SELECT SUM(cost) AS total FROM admissions".into(),
        description: String::new(),
    };
    src.sql(
        "clinic",
        &token,
        "CREATE TABLE admissions (dept TEXT, year INT, cost DOUBLE)",
    )
    .unwrap();
    src.sql(
        "clinic",
        &token,
        "INSERT INTO admissions VALUES ('Cardiology', 2010, 1200)",
    )
    .unwrap();
    src.define_dataset("clinic", &token, dataset.clone())
        .unwrap();

    // the client's cursor, minted on the source hub: strictly positive
    let (status, _, body) = auth(
        &src_addr,
        "GET",
        "/api/v1/datasets/total_cost/watch?cursor=0&timeout_ms=10000",
        &token,
        "",
    );
    assert_eq!(status, 200, "{body}");
    let carried: u64 = serde_json::from_str::<serde_json::Value>(&body).unwrap()["cursor"]
        .as_u64()
        .unwrap();
    assert!(carried > 0);

    // live-migrate the tenant, then re-register the ephemeral dataset on
    // the new owner (same contract as after a restart) with the SAME
    // token — sessions were adopted by the target realm
    let report = fabric.migrate("clinic", dst_id).unwrap();
    assert_eq!(report.to, dst_id);
    dst.define_dataset("clinic", &token, dataset).unwrap();

    // the carried cursor is ahead of the target's fresh hub: the poll
    // (sent to the OLD node, which now proxies to the new owner) must
    // answer immediately with the authoritative cursor, not park 10 s
    let started = std::time::Instant::now();
    let (status, headers, body) = auth(
        &src_addr,
        "GET",
        &format!("/api/v1/datasets/total_cost/watch?cursor={carried}&timeout_ms=10000"),
        &token,
        "",
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "a future cursor must not park until timeout"
    );
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["changed"], true, "resync is signalled as a change");
    let resynced = v["cursor"].as_u64().unwrap();
    assert!(
        resynced < carried,
        "authoritative cursor comes from the target"
    );
    assert_eq!(headers["x-watch-cursor"], resynced.to_string());

    // from the authoritative cursor the protocol is back to normal: a
    // write through the old address reaches the new owner and wakes the
    // watcher with a cursor above the resynced one
    let hub = Arc::clone(&dst.workspace("clinic").unwrap().watch);
    let poller = {
        let src_addr = src_addr.clone();
        let token = token.clone();
        std::thread::spawn(move || {
            auth(
                &src_addr,
                "GET",
                &format!("/api/v1/datasets/total_cost/watch?cursor={resynced}&timeout_ms=9000"),
                &token,
                "",
            )
        })
    };
    for _ in 0..400 {
        if hub.parked() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(hub.parked() > 0, "watcher never parked on the target hub");
    let (status, _, body) = auth(
        &src_addr,
        "POST",
        "/api/v1/sql",
        &token,
        "INSERT INTO admissions VALUES ('Oncology', 2011, 700)",
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = poller.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["changed"], true);
    assert!(v["cursor"].as_u64().unwrap() > resynced);

    srv_a.shutdown();
    srv_b.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// A request that clears the shard-router filter just before a migration
// cutover flip resumes with the workspace already detached from the node
// it landed on. The dispatch must not surface a raw tenancy error: the
// gated call re-checks the cluster route under the fence and answers
// 307 with a Location at the new owner, so the client replays the very
// same request there.

#[test]
fn request_racing_a_cutover_gets_a_redirect_not_an_error() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let mut root = std::env::temp_dir();
    root.push(format!("odbis-api-v1-cutover-307-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let fabric = odbis::Cluster::new();
    let node_a = fabric.add_node("node-a", root.join("a")).unwrap();
    let node_b = fabric.add_node("node-b", root.join("b")).unwrap();
    let srv_a = HttpServer::start(build_router(Arc::clone(&node_a)), 2).unwrap();
    let srv_b = HttpServer::start(build_router(Arc::clone(&node_b)), 2).unwrap();
    fabric.map().set_addr("node-a", &srv_a.addr().to_string());
    fabric.map().set_addr("node-b", &srv_b.addr().to_string());
    let owner = fabric
        .provision_tenant(
            "clinic",
            "City Clinic",
            SubscriptionPlan::standard(),
            "cio",
            "pw",
        )
        .unwrap();
    let (src, dst, src_addr, dst_addr, dst_id) = if owner == "node-a" {
        (
            Arc::clone(&node_a),
            Arc::clone(&node_b),
            srv_a.addr().to_string(),
            srv_b.addr().to_string(),
            "node-b",
        )
    } else {
        (
            Arc::clone(&node_b),
            Arc::clone(&node_a),
            srv_b.addr().to_string(),
            srv_a.addr().to_string(),
            "node-a",
        )
    };
    let token = src.login("clinic", "cio", "pw").unwrap();
    src.sql("clinic", &token, "CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();

    // park gated dispatches between the routing filter and the fence,
    // pinning the in-flight request inside the cutover window
    const PARKED: std::time::Duration = std::time::Duration::from_millis(600);
    odbis_chaos::apply_spec(&format!("platform.fence=delay({})", PARKED.as_millis())).unwrap();
    // the racer cannot start its delay before this instant, so a cutover
    // done within PARKED of it is done before the racer resumes
    let start = std::time::Instant::now();
    let racer = {
        let src_addr = src_addr.clone();
        let token = token.clone();
        std::thread::spawn(move || {
            auth(
                &src_addr,
                "POST",
                "/api/v1/sql",
                &token,
                "INSERT INTO t VALUES (7)",
            )
        })
    };
    // the filter routes the request Local, then it parks at the failpoint;
    // once it is parked, flip ownership underneath it
    while odbis_chaos::triggered_count("platform.fence") == 0 {
        assert!(
            start.elapsed() < PARKED,
            "the request never reached the fence"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let report = fabric.migrate("clinic", dst_id).unwrap();
    assert_eq!(report.to, dst_id);
    let took = start.elapsed();
    assert!(
        took < PARKED,
        "the cutover took {took:?}, longer than the request stays parked ({PARKED:?}): \
         this host is too slow for the race this test stages"
    );

    let (status, headers, body) = racer.join().unwrap();
    odbis_chaos::clear();
    assert_eq!(status, 307, "stale dispatch must redirect, got: {body}");
    assert_eq!(headers["x-odbis-owner"], dst_id);
    assert_eq!(headers["location"], format!("http://{dst_addr}/api/v1/sql"));
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"], "moved");

    // replaying the same request at the Location target succeeds, and
    // the row is the new owner's
    let (status, _, body) = auth(
        &dst_addr,
        "POST",
        "/api/v1/sql",
        &token,
        "INSERT INTO t VALUES (7)",
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = auth(&dst_addr, "POST", "/api/v1/sql", &token, "SELECT id FROM t");
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["rows"].as_array().unwrap().len(), 1);
    assert!(dst.workspace("clinic").is_ok());

    srv_a.shutdown();
    srv_b.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
