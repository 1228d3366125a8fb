//! C4 (§3.3 claim): "enterprise-grade security" — authorization enforced
//! at every service boundary, tenant isolation, audit.

use std::sync::Arc;

use odbis::{serve_platform, OdbisPlatform, PlatformError};
use odbis_delivery::Channel;
use odbis_metadata::DataSet;
use odbis_reporting::{Dashboard, KpiSpec, Widget};
use odbis_sql::QueryResult;
use odbis_tenancy::SubscriptionPlan;
use odbis_web::http_request;

fn boot() -> (OdbisPlatform, String) {
    let p = OdbisPlatform::new();
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();
    p.sql(
        "acme",
        &token,
        "CREATE TABLE sales (region TEXT, amount DOUBLE)",
    )
    .unwrap();
    p.sql("acme", &token, "INSERT INTO sales VALUES ('EU', 10)")
        .unwrap();
    p.define_dataset(
        "acme",
        &token,
        DataSet {
            name: "total".into(),
            source: "warehouse".into(),
            sql: "SELECT SUM(amount) AS total FROM sales".into(),
            description: String::new(),
        },
    )
    .unwrap();
    (p, token)
}

#[test]
fn every_service_boundary_checks_authority() {
    let (p, admin_token) = boot();
    // a plain user: can log in, can do nothing else
    p.create_user("acme", &admin_token, "intern", "pw", "ROLE_USER")
        .unwrap();
    let intern = p.login("acme", "intern", "pw").unwrap();

    let denied = |r: Result<(), PlatformError>| {
        assert!(
            matches!(r, Err(PlatformError::Security(_))),
            "expected denial"
        );
    };
    denied(p.sql("acme", &intern, "SELECT 1").map(drop));
    denied(p.execute_dataset("acme", &intern, "total").map(drop));
    denied(
        p.define_dataset(
            "acme",
            &intern,
            DataSet {
                name: "x".into(),
                source: "warehouse".into(),
                sql: "SELECT 1".into(),
                description: String::new(),
            },
        )
        .map(drop),
    );
    denied(
        p.run_etl(
            "acme",
            &intern,
            &odbis_etl::EtlJob {
                name: "j".into(),
                extractor: odbis_etl::Extractor::Csv("a\n1\n".into()),
                transforms: vec![],
                loader: odbis_etl::Loader {
                    table: "t".into(),
                    mode: odbis_etl::LoadMode::Append,
                },
            },
        )
        .map(drop),
    );
    denied(p.mdx("acme", &intern, "SELECT m BY d.l FROM c").map(drop));
    let dash = Dashboard {
        name: "d".into(),
        title: "D".into(),
        rows: vec![vec![Widget::Kpi {
            dataset: "total".into(),
            spec: KpiSpec {
                title: "T".into(),
                value_column: "total".into(),
                unit: String::new(),
            },
        }]],
    };
    denied(p.render_dashboard("acme", &intern, &dash).map(drop));
    let payload = odbis_delivery::ReportPayload {
        title: "t".into(),
        data: QueryResult {
            columns: vec!["a".into()],
            rows: vec![],
            rows_affected: 0,
        },
    };
    denied(
        p.deliver("acme", &intern, "intern", "r", Channel::Email, &payload)
            .map(drop),
    );
    denied(p.create_dw_project("acme", &intern, "proj").map(drop));
    // every denial was audited
    let acme = p.admin.registry().get("acme").unwrap();
    let realm = &acme.realm;
    let audit = realm.audit_log();
    assert!(
        audit.iter().filter(|e| e.kind == "ACCESS_DENIED").count() >= 8,
        "denials must be audited"
    );
}

#[test]
fn analyst_can_view_but_not_design() {
    let (p, admin_token) = boot();
    p.create_user("acme", &admin_token, "ana", "pw", "ROLE_ANALYST")
        .unwrap();
    let ana = p.login("acme", "ana", "pw").unwrap();
    // analysts run datasets and view dashboards
    let r = p.execute_dataset("acme", &ana, "total").unwrap();
    assert_eq!(r.rows[0][0], odbis_storage::Value::Float(10.0));
    // ...but cannot run DDL or ETL
    assert!(p.sql("acme", &ana, "DROP TABLE sales").is_err());
}

#[test]
fn sessions_expire_and_logout_works() {
    let (p, _token) = boot();
    let acme = p.admin.registry().get("acme").unwrap();
    let realm = &acme.realm;
    let session = realm.login("root", "pw").unwrap();
    realm.logout(&session.token);
    assert!(matches!(
        p.sql("acme", &session.token, "SELECT 1"),
        Err(PlatformError::Security(_))
    ));
}

#[test]
fn tokens_do_not_cross_tenants() {
    let (p, acme_token) = boot();
    p.provision_tenant("rival", "Rival", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    // acme's perfectly valid token is useless against rival
    assert!(matches!(
        p.sql("rival", &acme_token, "SELECT 1"),
        Err(PlatformError::Security(_))
    ));
}

#[test]
fn password_hashes_are_salted_per_user() {
    use odbis_security::SecurityManager;
    let sm = SecurityManager::new();
    sm.create_user("a", "same-password").unwrap();
    sm.create_user("b", "same-password").unwrap();
    // identical passwords, different users → both log in, and a wrong
    // password fails for both (hash table cannot be shared)
    assert!(sm.login("a", "same-password").is_ok());
    assert!(sm.login("b", "same-password").is_ok());
    assert!(sm.login("a", "other").is_err());
}

/// An id no one provisioned is answered with the 402 `tenancy` envelope,
/// through the platform and over HTTP, and leaves nothing behind: no
/// telemetry series, no admission bucket, no registry entry. A provisioned
/// tenant's forged token still fails inside the gate, on a recorded span.
#[test]
fn an_unprovisioned_tenant_leaves_nothing_behind() {
    const N: usize = 50;
    let (p, _) = boot();
    let p = Arc::new(p);
    let server = serve_platform(&p, 2).unwrap();
    let addr = server.addr().to_string();
    let sql = |tenant: &str, bearer: &str| {
        let headers = [("x-tenant", tenant), ("Authorization", bearer)];
        http_request(&addr, "POST", "/api/v1/sql", &headers, b"SELECT 1").unwrap()
    };
    let telemetry = p.admin.telemetry.totals();
    let admission = p.admission.render_prometheus(None);
    let tenants = p.admin.registry().len();
    for i in 0..N {
        let err = p.sql(&format!("ghost-{i}"), "some-bearer", "SELECT 1");
        let err = err.unwrap_err();
        assert_eq!((err.kind(), err.http_status()), ("tenancy", 402), "{err}");
        let (status, _, body) = sql(&format!("ghost-http-{i}"), "Bearer some-bearer");
        assert_eq!(status, 402, "{body}");
        assert!(body.contains(r#""kind":"tenancy""#), "{body}");
    }
    assert_eq!(p.admin.telemetry.totals(), telemetry);
    assert_eq!(p.admission.render_prometheus(None), admission);
    assert_eq!(p.admin.registry().len(), tenants);
    assert!(p.admin.usage_report().iter().all(|l| l.tenant == "acme"));

    // a provisioned tenant with a forged token fails on a recorded span
    let key = ("acme".to_string(), "MDS".to_string());
    let errors = |p: &OdbisPlatform| p.admin.telemetry.totals()[&key].errors;
    let before = errors(&p);
    assert!(matches!(
        p.sql("acme", "forged", "SELECT 1"),
        Err(PlatformError::Security(_))
    ));
    let (status, _, body) = sql("acme", "Bearer forged");
    assert_eq!(status, 403, "{body}");
    assert_eq!(errors(&p), before + 2);
    server.shutdown();
}
