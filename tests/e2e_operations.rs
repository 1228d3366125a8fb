//! Operational end-to-end scenarios: scheduled ETL refresh feeding live
//! dashboards, warehouse checkpoint/reopen, and subscription bursting.

use std::sync::Arc;

use odbis_delivery::{Channel, ReportPayload};
use odbis_etl::{
    EtlJob, Extractor, JobRunner, JobScheduler, LoadMode, Loader, Schedule, Transform,
};
use odbis_metadata::{DataSet, DataSource, MetadataService};
use odbis_reporting::{Dashboard, KpiSpec, ReportingService, Widget};
use odbis_sql::Engine;
use odbis_storage::{Database, DurableStore, FsyncPolicy, Value, WalSink};

/// The nightly-refresh loop: a scheduled job rebuilds a mart; the
/// dashboard reads the mart through a data set and sees fresh numbers
/// after each tick.
#[test]
fn scheduled_refresh_feeds_live_dashboard() {
    let warehouse = Arc::new(Database::new());
    let engine = Engine::new();
    engine
        .execute_script(
            &warehouse,
            "CREATE TABLE raw (amount DOUBLE);
             INSERT INTO raw VALUES (10), (20);",
        )
        .unwrap();

    let runner = Arc::new(JobRunner::new(Arc::clone(&warehouse)));
    let scheduler = JobScheduler::new(Arc::clone(&runner));
    scheduler.schedule(
        EtlJob {
            name: "refresh-mart".into(),
            extractor: Extractor::Query("SELECT SUM(amount) AS total FROM raw".into()),
            transforms: vec![Transform::Derive {
                column: "total_cents".into(),
                expression: "total * 100".into(),
            }],
            loader: Loader {
                table: "mart_total".into(),
                mode: LoadMode::Replace,
            },
        },
        Schedule::Every(1),
    );
    scheduler.tick();

    let mds = Arc::new(MetadataService::new());
    mds.register_source(
        DataSource {
            name: "warehouse".into(),
            url: "odbis://wh".into(),
            user: "svc".into(),
            password: String::new(),
            driver: "odbis-storage".into(),
        },
        Arc::clone(&warehouse),
    )
    .unwrap();
    mds.define_dataset(DataSet {
        name: "headline".into(),
        source: "warehouse".into(),
        sql: "SELECT total, total_cents FROM mart_total".into(),
        description: String::new(),
    })
    .unwrap();
    let rs = ReportingService::new(mds);
    let dash = Dashboard {
        name: "ops".into(),
        title: "Ops".into(),
        rows: vec![vec![Widget::Kpi {
            dataset: "headline".into(),
            spec: KpiSpec {
                title: "Total".into(),
                value_column: "total".into(),
                unit: String::new(),
            },
        }]],
    };
    let before = rs.render_dashboard(&dash).unwrap();
    assert!(before.contains("30.0"), "{before}");

    // new raw data arrives; the next scheduled tick refreshes the mart
    engine
        .execute(&warehouse, "INSERT INTO raw VALUES (70)")
        .unwrap();
    scheduler.tick();
    let after = rs.render_dashboard(&dash).unwrap();
    assert!(after.contains("100.0"), "{after}");
    assert_eq!(scheduler.history("refresh-mart").len(), 2);
}

/// Checkpoint a tenant warehouse to disk, drop it, and reopen it: rows,
/// the secondary index and uniqueness all come back — the platform's
/// persistence story.
#[test]
fn warehouse_snapshot_round_trip() {
    let dir = std::env::temp_dir().join(format!("odbis-e2e-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::new();
    let before = {
        let (warehouse, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        warehouse.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        engine
            .execute_script(
                &warehouse,
                "CREATE TABLE facts (id INT PRIMARY KEY, v DOUBLE, label TEXT);
                 CREATE INDEX ix_label ON facts (label);
                 INSERT INTO facts VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, NULL);",
            )
            .unwrap();
        store.checkpoint(&warehouse).unwrap();
        warehouse.scan("facts").unwrap()
    };
    let (restored, _store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
    assert_eq!(restored.scan("facts").unwrap(), before);
    // secondary index was rebuilt and still answers queries via the planner
    let explain = engine
        .explain(&restored, "SELECT id FROM facts WHERE label = 'a'")
        .unwrap();
    assert!(explain.contains("IndexScan"), "{explain}");
    let r = engine
        .execute(&restored, "SELECT id FROM facts WHERE label = 'b'")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    // uniqueness survives the round trip
    assert!(engine
        .execute(&restored, "INSERT INTO facts VALUES (1, 9.9, 'dup')")
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Subscription bursting: one report event fans out to every subscriber on
/// their preferred channel, with correct per-channel formats.
#[test]
fn burst_formats_per_channel() {
    let ids = odbis_delivery::DeliveryService::new();
    ids.subscribe("ceo", "weekly", Channel::Email);
    ids.subscribe("analyst", "weekly", Channel::WebService);
    ids.subscribe("field-rep", "weekly", Channel::Mobile);
    ids.subscribe("accountant", "weekly", Channel::OfficeTool);

    let payload = ReportPayload {
        title: "Weekly numbers".into(),
        data: odbis_sql::QueryResult {
            columns: vec!["kpi".into(), "value".into()],
            rows: (0..30)
                .map(|i| vec![Value::from(format!("kpi{i}")), Value::Int(i)])
                .collect(),
            rows_affected: 0,
        },
    };
    assert_eq!(ids.burst("weekly", &payload), 4);
    let outbox = ids.outbox();
    assert_eq!(outbox.len(), 4);
    let by_user = |u: &str| {
        outbox
            .iter()
            .find(|e| e.user == u)
            .unwrap_or_else(|| panic!("missing delivery for {u}"))
    };
    assert!(by_user("ceo")
        .delivered
        .body
        .starts_with("== Weekly numbers =="));
    let api: serde_json::Value = serde_json::from_str(&by_user("analyst").delivered.body).unwrap();
    assert_eq!(api["rowCount"], 30);
    assert_eq!(api["truncated"], false);
    let mobile: serde_json::Value =
        serde_json::from_str(&by_user("field-rep").delivered.body).unwrap();
    assert_eq!(mobile["truncated"], true);
    assert_eq!(
        mobile["rows"].as_array().unwrap().len(),
        odbis_delivery::MOBILE_ROW_CAP
    );
    assert!(by_user("accountant")
        .delivered
        .body
        .starts_with("kpi,value\n"));
}
