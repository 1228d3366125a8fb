//! Property-based tests for the SaaS kernel: billing math and metering.

use odbis_tenancy::{Invoice, ServiceKind, SubscriptionPlan, TenantRegistry};
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = SubscriptionPlan> {
    prop_oneof![
        Just(SubscriptionPlan::free()),
        Just(SubscriptionPlan::standard()),
        Just(SubscriptionPlan::enterprise()),
    ]
}

proptest! {
    /// Invoice totals are monotonic in usage, decompose into base+overage,
    /// and charge no overage within the allowance.
    #[test]
    fn invoice_math_invariants(plan in arb_plan(), a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let inv_lo = Invoice::compute("t", &plan, lo);
        let inv_hi = Invoice::compute("t", &plan, hi);
        prop_assert!(inv_lo.total_cents <= inv_hi.total_cents);
        for inv in [&inv_lo, &inv_hi] {
            prop_assert_eq!(inv.total_cents, inv.base_cents + inv.overage_cents);
            if inv.units <= plan.included_units {
                prop_assert_eq!(inv.overage_cents, 0);
                prop_assert_eq!(inv.overage_units, 0);
            } else {
                prop_assert_eq!(inv.overage_units, inv.units - plan.included_units);
            }
        }
        // invoice agrees with the plan's own cost function
        prop_assert_eq!(inv_hi.total_cents, plan.monthly_cost_cents(hi));
    }

    /// Each tenant entry's counters equal the sum of the usage recorded
    /// on it, per tenant and per service, regardless of interleaving; a
    /// closed period returns everything and the next one starts empty.
    #[test]
    fn metering_is_exact(events in prop::collection::vec((0u8..4, 0u8..6, 0u64..1_000), 0..120)) {
        let registry = TenantRegistry::new();
        for t in 0..4 {
            registry.provision(&format!("t{t}"), "T", SubscriptionPlan::standard()).unwrap();
        }
        let mut expected = std::collections::HashMap::new();
        for (t, s, units) in &events {
            let tenant = format!("t{t}");
            let service = ServiceKind::ALL[(*s as usize) % ServiceKind::ALL.len()];
            registry.get(&tenant).unwrap().usage.record(service, *units);
            *expected.entry((tenant, service)).or_insert(0u64) += units;
        }
        for ((tenant, service), total) in &expected {
            prop_assert_eq!(registry.get(tenant).unwrap().usage.get(*service), *total);
        }
        let sum = |lines: Vec<(ServiceKind, u64)>| lines.iter().map(|(_, u)| u).sum::<u64>();
        let grand: u64 = expected.values().sum();
        let tenants = registry.tenants();
        let measured: u64 = tenants.iter().map(|t| sum(t.usage.lines())).sum();
        prop_assert_eq!(measured, grand);
        // every service called has its line, and only those
        let lines: usize = tenants.iter().map(|t| t.usage.lines().len()).sum();
        prop_assert_eq!(lines, expected.len());
        // closing the period returns everything and resets
        let closed: u64 = tenants.iter().map(|t| sum(t.usage.close_period())).sum();
        prop_assert_eq!(closed, grand);
        prop_assert_eq!(sum(registry.get("t0").unwrap().usage.lines()), 0);
        // periods are disjoint: the next one holds only what came after
        registry.get("t0").unwrap().usage.record(ServiceKind::Admin, 7);
        let next: u64 = tenants.iter().map(|t| sum(t.usage.close_period())).sum();
        prop_assert_eq!(next, 7);
    }
}
