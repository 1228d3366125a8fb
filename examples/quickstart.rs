//! Quickstart: boot the ODBIS platform, provision a tenant, load data,
//! define a data set and render a report — the smallest end-to-end tour of
//! the on-demand BI services.
//!
//! Run with: `cargo run --example quickstart`

use odbis::OdbisPlatform;
use odbis_metadata::DataSet;
use odbis_reporting::{render_text, ChartKind, ChartSpec, Dashboard, KpiSpec, TableSpec, Widget};
use odbis_tenancy::SubscriptionPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. boot the platform and provision a tenant (SaaS layer)
    let platform = OdbisPlatform::new();
    platform.provision_tenant(
        "acme",
        "Acme Retail",
        SubscriptionPlan::standard(),
        "admin",
        "s3cret",
    )?;
    let token = platform.login("acme", "admin", "s3cret")?;
    println!("tenant 'acme' provisioned; admin logged in");

    // 2. create and load a table in the tenant warehouse (technical layer)
    platform.sql(
        "acme",
        &token,
        "CREATE TABLE sales (region TEXT, product TEXT, amount DOUBLE)",
    )?;
    platform.sql(
        "acme",
        &token,
        "INSERT INTO sales VALUES
           ('EU', 'widgets', 1200), ('EU', 'gadgets', 800),
           ('US', 'widgets', 2400), ('US', 'gadgets', 300),
           ('APAC', 'widgets', 700)",
    )?;

    // 3. define a reusable data set in the Meta-Data Service
    platform.define_dataset(
        "acme",
        &token,
        DataSet {
            name: "sales_by_region".into(),
            source: "warehouse".into(),
            sql: "SELECT region, SUM(amount) AS total FROM sales \
                  GROUP BY region ORDER BY total DESC"
                .into(),
            description: "revenue per region".into(),
        },
    )?;

    // 4. run it and print (MDS → SQL engine → storage)
    let result = platform.execute_dataset("acme", &token, "sales_by_region")?;
    println!("\n{}", render_text("Sales by region", &result));

    // 5. render a dashboard (Reporting Service)
    platform.define_dataset(
        "acme",
        &token,
        DataSet {
            name: "grand_total".into(),
            source: "warehouse".into(),
            sql: "SELECT SUM(amount) AS total FROM sales".into(),
            description: String::new(),
        },
    )?;
    let dashboard = Dashboard {
        name: "exec".into(),
        title: "Acme Executive Dashboard".into(),
        rows: vec![
            vec![Widget::Kpi {
                dataset: "grand_total".into(),
                spec: KpiSpec {
                    title: "Total revenue".into(),
                    value_column: "total".into(),
                    unit: " EUR".into(),
                },
            }],
            vec![
                Widget::Chart {
                    dataset: "sales_by_region".into(),
                    spec: ChartSpec {
                        title: "Revenue by region".into(),
                        kind: ChartKind::Bar,
                        category: "region".into(),
                        series: vec!["total".into()],
                    },
                },
                Widget::Table {
                    dataset: "sales_by_region".into(),
                    spec: TableSpec {
                        title: "Detail".into(),
                        columns: vec![],
                        max_rows: None,
                    },
                },
            ],
        ],
    };
    let html = platform.render_dashboard("acme", &token, &dashboard)?;
    let out = std::env::temp_dir().join("odbis-quickstart-dashboard.html");
    std::fs::write(&out, &html)?;
    println!(
        "dashboard written to {} ({} bytes)",
        out.display(),
        html.len()
    );

    // 6. pay-as-you-go: see what this session will be billed
    let acme = platform.admin.registry().get("acme")?;
    for (service, units) in acme.usage.lines() {
        if units > 0 {
            println!("metered usage  {:>4}: {units} units", service.code());
        }
    }
    let invoices = platform.admin.billing_run();
    println!(
        "invoice: plan={} units={} total=${:.2}",
        invoices[0].plan,
        invoices[0].units,
        invoices[0].total_cents as f64 / 100.0
    );
    Ok(())
}
