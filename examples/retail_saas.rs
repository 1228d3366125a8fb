//! Multi-tenant SaaS scenario (ODBIS §2): three retailers share one
//! platform instance; each gets logically-isolated data, its own users and
//! a pay-as-you-go invoice aligned with its actual usage.
//!
//! Run with: `cargo run --example retail_saas`

use odbis::OdbisPlatform;
use odbis_bench::workloads;
use odbis_metadata::DataSet;
use odbis_tenancy::{ServiceKind, SubscriptionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = OdbisPlatform::new();

    // three tenants on three different plans
    let tenants = [
        (
            "nordwind",
            "Nordwind Traders",
            SubscriptionPlan::enterprise(),
            12_000usize,
        ),
        (
            "contoso",
            "Contoso Retail",
            SubscriptionPlan::standard(),
            3_000,
        ),
        ("tailspin", "Tailspin Toys", SubscriptionPlan::free(), 200),
    ];

    for (i, (id, name, plan, orders)) in tenants.iter().enumerate() {
        platform.provision_tenant(id, name, plan.clone(), "admin", "pw")?;
        let token = platform.login(id, "admin", "pw")?;
        platform.sql(
            id,
            &token,
            "CREATE TABLE orders (region TEXT, product_id INT, amount DOUBLE)",
        )?;
        // bulk-load synthetic orders (each tenant gets a distinct seed)
        for chunk in workloads::retail_orders(*orders, 100 + i as u64).chunks(500) {
            let values: Vec<String> = chunk
                .iter()
                .map(|(r, p, a)| format!("('{r}', {p}, {a})"))
                .collect();
            platform.sql(
                id,
                &token,
                &format!("INSERT INTO orders VALUES {}", values.join(", ")),
            )?;
        }
        platform.define_dataset(
            id,
            &token,
            DataSet {
                name: "revenue_by_region".into(),
                source: "warehouse".into(),
                sql: "SELECT region, ROUND(SUM(amount), 2) AS revenue, COUNT(*) AS orders \
                      FROM orders GROUP BY region ORDER BY revenue DESC"
                    .into(),
                description: "regional revenue".into(),
            },
        )?;
        let result = platform.execute_dataset(id, &token, "revenue_by_region")?;
        println!("=== {name} ({}, {} orders) ===", plan.name, orders);
        println!("{}", result.to_text_table());
    }

    // logically unique per tenant: identical dataset names, disjoint data
    println!(
        "tenants registered: {:?}",
        (platform.admin.registry().tenants().iter())
            .map(|t| t.id.as_str())
            .collect::<Vec<_>>()
    );

    // usage report: each tenant's metered activity differs with its load
    println!("\nplatform usage report:");
    for line in platform.admin.usage_report() {
        println!(
            "  {:<10} {:<4} {:>8} units",
            line.tenant, line.service, line.units
        );
    }
    let registry = platform.admin.registry();
    let mds = |t: &str| registry.get(t).unwrap().usage.get(ServiceKind::Metadata);
    assert!(mds("nordwind") > mds("contoso"));
    assert!(mds("contoso") > mds("tailspin"));

    // billing run: cost follows usage and plan
    println!("\ninvoices:");
    for invoice in platform.admin.billing_run() {
        println!(
            "  {:<10} plan={:<10} units={:>8} base=${:>8.2} overage=${:>7.2} total=${:>8.2}",
            invoice.tenant,
            invoice.plan,
            invoice.units,
            invoice.base_cents as f64 / 100.0,
            invoice.overage_cents as f64 / 100.0,
            invoice.total_cents as f64 / 100.0,
        );
    }
    Ok(())
}
