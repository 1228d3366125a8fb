//! C1 — multi-tenant economies of scale: cost per tenant under
//! shared-schema vs dedicated-instance deployment as the tenant count
//! grows. C2 — pay-as-you-go metering overhead.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis_storage::{Column, DataType, Database, Schema, Value};
use odbis_tenancy::{
    DedicatedInstances, ServiceKind, SharedSchema, SubscriptionPlan, TenantRegistry,
};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
}

fn order_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("amount", DataType::Float),
    ])
    .unwrap()
}

const ROWS_PER_TENANT: usize = 200;

/// C1: provision N tenants and run each one's workload (load + query) —
/// once against one shared-schema database, once against N dedicated
/// instances. The shared path amortizes table/catalog setup across
/// tenants; the dedicated path pays full per-tenant infrastructure.
fn c1_economies_of_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_economies_of_scale");
    for &tenants in &[4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("shared_schema", tenants),
            &tenants,
            |b, &tenants| {
                b.iter(|| {
                    let shared = SharedSchema::new(Arc::new(Database::new()));
                    shared
                        .create_shared_table("orders", order_schema())
                        .unwrap();
                    for t in 0..tenants {
                        let tenant = format!("t{t}");
                        for i in 0..ROWS_PER_TENANT {
                            shared
                                .insert(
                                    &tenant,
                                    "orders",
                                    vec![Value::Int(i as i64), Value::Float(i as f64)],
                                )
                                .unwrap();
                        }
                        let r = shared
                            .query(&tenant, "SELECT SUM(amount) FROM orders")
                            .unwrap();
                        assert_eq!(r.rows.len(), 1);
                    }
                    shared
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dedicated_instances", tenants),
            &tenants,
            |b, &tenants| {
                b.iter(|| {
                    let ded = DedicatedInstances::new();
                    for t in 0..tenants {
                        let tenant = format!("t{t}");
                        ded.execute(&tenant, "CREATE TABLE orders (id INT, amount DOUBLE)")
                            .unwrap();
                        let values: Vec<String> = (0..ROWS_PER_TENANT)
                            .map(|i| format!("({i}, {i}.0)"))
                            .collect();
                        ded.execute(
                            &tenant,
                            &format!("INSERT INTO orders VALUES {}", values.join(", ")),
                        )
                        .unwrap();
                        let r = ded
                            .execute(&tenant, "SELECT SUM(amount) FROM orders")
                            .unwrap();
                        assert_eq!(r.rows.len(), 1);
                    }
                    ded
                })
            },
        );
    }
    group.finish();
}

/// C2: the marginal cost of metering — the same loop with and without a
/// usage-record per operation, an atomic add on the tenant's registry
/// entry the gate already resolved.
fn c2_metering_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("c2_metering_overhead");
    let registry = TenantRegistry::new();
    let tenant = (registry.provision("tenant-1", "T1", SubscriptionPlan::standard()))
        .expect("fresh registry");
    group.bench_function("record_usage", |b| {
        b.iter(|| tenant.usage.record(ServiceKind::Reporting, 1))
    });
    group.bench_function("workload_unmetered_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        })
    });
    group.bench_function("workload_metered_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(i);
                tenant.usage.record(ServiceKind::Reporting, 1);
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = c1_economies_of_scale, c2_metering_overhead
}
criterion_main!(benches);
