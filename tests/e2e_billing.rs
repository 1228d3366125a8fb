//! C2 (§2 claim): "costs are directly aligned with usage" — metering is
//! exact (billed units = actual service activity) and invoices follow the
//! pay-as-you-go plan math.

use odbis::OdbisPlatform;
use odbis_metadata::DataSet;
use odbis_tenancy::{Invoice, ServiceKind, SubscriptionPlan};

#[test]
fn billed_units_match_actual_service_calls_exactly() {
    let p = OdbisPlatform::new();
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();

    // a known workload: 1 DDL + 10 inserts + 1 dataset definition + 5 runs
    p.sql("acme", &token, "CREATE TABLE events (id INT, v INT)")
        .unwrap();
    for i in 0..10 {
        p.sql(
            "acme",
            &token,
            &format!("INSERT INTO events VALUES ({i}, {i})"),
        )
        .unwrap();
    }
    p.define_dataset(
        "acme",
        &token,
        DataSet {
            name: "all_events".into(),
            source: "warehouse".into(),
            sql: "SELECT id, v FROM events".into(),
            description: String::new(),
        },
    )
    .unwrap();
    for _ in 0..5 {
        p.execute_dataset("acme", &token, "all_events").unwrap();
    }

    // expected MDS units:
    //   1 DDL statement (1 call + 0 rows)            = 1
    //   10 inserts x (1 call + 1 row affected)       = 20
    //   1 dataset definition                         = 1
    //   5 dataset runs x (1 call + 10 rows)          = 55
    let expected = 1 + 20 + 1 + 5 * 11;
    let acme = p.admin.registry().get("acme").unwrap();
    assert_eq!(acme.usage.get(ServiceKind::Metadata), expected);

    // plan math: under the allowance, the invoice is exactly the base fee
    let invoices = p.admin.billing_run();
    assert_eq!(invoices.len(), 1);
    assert_eq!(invoices[0].units, expected);
    assert_eq!(invoices[0].overage_cents, 0);
    assert_eq!(invoices[0].total_cents, 9_900);
}

#[test]
fn overage_is_billed_and_cost_is_monotonic_in_usage() {
    let plan = SubscriptionPlan::standard();
    let mut last = 0;
    for units in [0u64, 50_000, 100_000, 100_001, 150_000, 1_000_000] {
        let invoice = Invoice::compute("t", &plan, units);
        assert!(
            invoice.total_cents >= last,
            "cost must not decrease with usage"
        );
        assert_eq!(
            invoice.total_cents,
            invoice.base_cents + invoice.overage_cents
        );
        last = invoice.total_cents;
    }
    // crossing the allowance starts charging
    let at = Invoice::compute("t", &plan, plan.included_units);
    let over = Invoice::compute("t", &plan, plan.included_units + 10_000);
    assert_eq!(at.overage_cents, 0);
    assert!(over.overage_cents > 0);
}

#[test]
fn billing_periods_are_disjoint() {
    let p = OdbisPlatform::new();
    p.provision_tenant("t", "T", SubscriptionPlan::standard(), "a", "pw")
        .unwrap();
    let token = p.login("t", "a", "pw").unwrap();
    p.sql("t", &token, "CREATE TABLE x (a INT)").unwrap();
    let first = p.admin.billing_run();
    assert!(first[0].units > 0);
    // the meter was reset: an immediate second run bills zero units
    let second = p.admin.billing_run();
    assert_eq!(second[0].units, 0);
    assert_eq!(second[0].total_cents, second[0].base_cents);
}
