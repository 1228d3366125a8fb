//! Telemetry-spine overhead. "on" is the gated platform call, which always
//! traces; "off" runs the same statement on the tenant's warehouse under an
//! inert `Span::disabled()` root, so no gate span and no child span is
//! recorded. "off" also skips the gate's authorization and metering, so the
//! on/off delta is an upper bound on the tracing cost. The spine's
//! acceptance budget is ≤5% overhead on the traced path; the inert span
//! must be indistinguishable from free.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use odbis::OdbisPlatform;
use odbis_tenancy::SubscriptionPlan;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(3000))
        .warm_up_time(Duration::from_millis(500))
}

fn booted() -> (Arc<OdbisPlatform>, String) {
    let p = Arc::new(OdbisPlatform::new());
    p.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
        .unwrap();
    let token = p.login("acme", "root", "pw").unwrap();
    p.sql("acme", &token, "CREATE TABLE kpis (k TEXT, v INT)")
        .unwrap();
    let mut insert = String::from("INSERT INTO kpis VALUES ('a', 0)");
    for i in 1..2_000 {
        insert.push_str(&format!(", ('k{i}', {i})"));
    }
    p.sql("acme", &token, &insert).unwrap();
    (p, token)
}

const QUERIES: &[(&str, &str)] = &[
    ("point", "SELECT v FROM kpis WHERE k = 'k999'"),
    (
        "aggregate",
        "SELECT COUNT(*) AS n, SUM(v) AS total FROM kpis",
    ),
];

/// The raw cost of the instrumentation itself, isolated from query noise:
/// one gate root span + one service child span, fully recorded, vs the
/// inert disabled span.
fn span_microcost(c: &mut Criterion) {
    let t = Arc::new(odbis_telemetry::Telemetry::new());
    let mut group = c.benchmark_group("telemetry_span");
    group.bench_function("root_child_pair", |b| {
        b.iter(|| {
            let mut s = t.span("acme", "MDS", "sql", 250);
            s.set_detail("SELECT v FROM kpis WHERE k = 'k999'");
            let mut child = odbis_telemetry::child_span("sql", "execute.vectorized");
            child.set_rows(1);
            drop(child);
            s.set_rows(1);
        })
    });
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let mut s = odbis_telemetry::Span::disabled();
            s.set_rows(1);
        })
    });
    group.finish();
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    let (p, token) = booted();
    let warehouse = Arc::clone(&p.workspace("acme").unwrap().warehouse);
    let engine = odbis_sql::Engine::new();
    for (label, sql) in QUERIES {
        group.bench_with_input(
            BenchmarkId::new(format!("sql_{label}"), "on"),
            &(),
            |b, _| b.iter(|| p.sql("acme", &token, sql).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("sql_{label}"), "off"),
            &(),
            |b, _| {
                b.iter(|| {
                    let _root = odbis_telemetry::Span::disabled();
                    engine.execute(&warehouse, sql).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = telemetry_overhead, span_microcost
}
criterion_main!(benches);
