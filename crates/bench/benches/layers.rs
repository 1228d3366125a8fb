//! E4 (Figure 4) — per-layer latency breakdown of the JEE-style
//! application stack: storage-direct vs platform-gated vs full HTTP
//! round trip. The deltas between the three series are the cost of the
//! service/security layer and of the web tier respectively.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use odbis::{build_router, OdbisPlatform};
use odbis_sql::Engine;
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{http_request, HttpServer};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
}

fn fig4_layer_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_layer_roundtrip");

    // shared fixture: platform + tenant + a small table
    let platform = Arc::new(OdbisPlatform::new());
    platform
        .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = platform.login("acme", "root", "pw").unwrap();
    platform
        .sql(
            "acme",
            &token,
            "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)",
        )
        .unwrap();
    for i in 0..100 {
        platform
            .sql(
                "acme",
                &token,
                &format!("INSERT INTO kv VALUES ({i}, 'value-{i}')"),
            )
            .unwrap();
    }
    let warehouse = Arc::clone(&platform.workspace("acme").unwrap().warehouse);
    let engine = Engine::new();
    let query = "SELECT v FROM kv WHERE k = 42";

    // layer 1+2: data access + SQL engine only
    group.bench_function("storage_and_sql_only", |b| {
        b.iter(|| engine.execute(&warehouse, query).unwrap())
    });

    // + layer 3: the platform gate (tenancy check, session, authority,
    //   metering) around the same query
    group.bench_function("platform_gated", |b| {
        b.iter(|| platform.sql("acme", &token, query).unwrap())
    });

    // + layers 4-5: the full HTTP round trip through the web tier
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 4).unwrap();
    let addr = server.addr().to_string();
    let bearer = format!("Bearer {token}");
    group.bench_function("full_http_roundtrip", |b| {
        b.iter(|| {
            let (status, _, _) = http_request(
                &addr,
                "POST",
                "/api/v1/sql",
                &[("x-tenant", "acme"), ("Authorization", &bearer)],
                query.as_bytes(),
            )
            .unwrap();
            assert_eq!(status, 200);
        })
    });
    group.finish();
}

/// Raw web-tier throughput: a trivial handler over the loopback socket.
fn web_server_throughput(c: &mut Criterion) {
    use odbis_web::{HttpResponse, HttpServer, Method, Router};
    let mut router = Router::new();
    router.route(Method::Get, "/ping", |_, _| HttpResponse::text("pong"));
    let server = HttpServer::start(router, 4).unwrap();
    let addr = server.addr().to_string();
    c.bench_function("web_get_roundtrip", |b| {
        b.iter(|| {
            let (status, _) = odbis_web::http_get(&addr, "/ping").unwrap();
            assert_eq!(status, 200);
        })
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = fig4_layer_roundtrip, web_server_throughput
}
criterion_main!(benches);
