//! E1 (Figure 1): one request traverses all five layers of the ODBIS SaaS
//! architecture — end-user access (HTTP) → information delivery → core BI
//! services → administration/configuration → technical resources.

use std::sync::Arc;

use odbis::{build_router, OdbisPlatform};
use odbis_metadata::DataSet;
use odbis_tenancy::{ServiceKind, SubscriptionPlan};
use odbis_web::{http_request, HttpServer};

fn auth_get(addr: &str, path: &str, token: &str) -> (u16, String) {
    let bearer = format!("Bearer {token}");
    let (status, _, body) = http_request(
        addr,
        "GET",
        path,
        &[("x-tenant", "clinic"), ("Authorization", bearer.as_str())],
        b"",
    )
    .unwrap();
    (status, body)
}

fn auth_post(addr: &str, path: &str, token: &str, body: &str) -> (u16, String) {
    let bearer = format!("Bearer {token}");
    let (status, _, resp) = http_request(
        addr,
        "POST",
        path,
        &[("x-tenant", "clinic"), ("Authorization", bearer.as_str())],
        body.as_bytes(),
    )
    .unwrap();
    (status, resp)
}

#[test]
fn request_traverses_all_five_layers() {
    // layer 3 (administration): provision the tenant with its realm
    let platform = Arc::new(OdbisPlatform::new());
    platform
        .provision_tenant(
            "clinic",
            "City Clinic",
            SubscriptionPlan::standard(),
            "cio",
            "pw",
        )
        .unwrap();

    // layer 5 (end-user access): a real HTTP server on loopback
    let server = HttpServer::start(build_router(Arc::clone(&platform)), 4).unwrap();
    let addr = server.addr().to_string();

    // login over the wire
    let (status, body) = odbis_web::http_post(
        &addr,
        "/api/v1/login",
        "{\"tenant\":\"clinic\",\"user\":\"cio\",\"password\":\"pw\"}",
    )
    .unwrap();
    assert_eq!(status, 200);
    let token = serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
        .as_str()
        .unwrap()
        .to_string();

    // layer 1 (technical resources): DDL+DML land in the storage engine
    let (status, _) = auth_post(
        &addr,
        "/api/v1/sql",
        &token,
        "CREATE TABLE admissions (dept TEXT, cost DOUBLE)",
    );
    assert_eq!(status, 200);
    let (status, _) = auth_post(
        &addr,
        "/api/v1/sql",
        &token,
        "INSERT INTO admissions VALUES ('Cardiology', 1200), ('Oncology', 3400), ('Cardiology', 800)",
    );
    assert_eq!(status, 200);

    // layer 4 (core BI services): MDS data set defined and executed
    platform
        .define_dataset(
            "clinic",
            &token,
            DataSet {
                name: "cost_by_dept".into(),
                source: "warehouse".into(),
                sql: "SELECT dept, SUM(cost) AS total FROM admissions GROUP BY dept ORDER BY dept"
                    .into(),
                description: "cost per department".into(),
            },
        )
        .unwrap();
    let (status, body) = auth_get(&addr, "/api/v1/datasets/cost_by_dept", &token);
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["rows"][0][0], "Cardiology");
    assert_eq!(v["rows"][0][1], "2000.0");

    // layer 3 again: the calls above were metered for pay-as-you-go
    let clinic = platform.admin.registry().get("clinic").unwrap();
    let mds_units = clinic.usage.get(ServiceKind::Metadata);
    assert!(mds_units > 0, "usage must be metered");
    let (status, usage) = auth_get(&addr, "/api/v1/admin/usage", &token);
    assert_eq!(status, 200);
    assert!(usage.contains("clinic"));

    // unauthorized access is rejected at the boundary (layer 3 security)
    let (status, _) = auth_get(&addr, "/api/v1/datasets/cost_by_dept", "forged-token");
    assert_eq!(status, 403);

    assert!(server.requests_served() >= 5);
    server.shutdown();
}

#[test]
fn five_tenants_share_one_platform_instance() {
    let platform = Arc::new(OdbisPlatform::new());
    let mut tokens = Vec::new();
    for i in 0..5 {
        let id = format!("t{i}");
        platform
            .provision_tenant(
                &id,
                &format!("Tenant {i}"),
                SubscriptionPlan::free(),
                "adm",
                "pw",
            )
            .unwrap();
        let token = platform.login(&id, "adm", "pw").unwrap();
        platform
            .sql(&id, &token, "CREATE TABLE private (secret TEXT)")
            .unwrap();
        platform
            .sql(
                &id,
                &token,
                &format!("INSERT INTO private VALUES ('tenant-{i}')"),
            )
            .unwrap();
        tokens.push((id, token));
    }
    // every tenant sees exactly its own row
    for (id, token) in &tokens {
        let r = platform
            .sql(id, token, "SELECT secret FROM private")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].render(), format!("tenant-{}", &id[1..]));
    }
    // one billing run covers all tenants
    let invoices = platform.admin.billing_run();
    assert_eq!(invoices.len(), 5);
}
