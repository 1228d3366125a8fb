//! 3-node cluster demo and write-scaling probe (experiment A10): the
//! source of the numbers in `BENCH_sharding.json`.
//!
//! Phase 1 — scaling: the same 6-tenant, 6-writer durable-insert
//! workload (fsync=always, one writer per tenant, map-first routing)
//! runs against a 1-, 2- and 3-node cluster (2 HTTP handler workers per
//! node, tenants pinned round-robin). Aggregate acked writes/sec and
//! client latency percentiles are recorded at each size. Note the host:
//! every in-process "node" shares this container's single vCPU, so the
//! wall-clock ratio measures the shared-core ceiling, not the
//! architecture's — the per-node resource that actually scales (handler
//! pool admitting concurrent durable writes: 2 → 4 → 6) is reported
//! alongside, and the report says which is which.
//!
//! Phase 2 — router tax: a single uncontended writer measures per-
//! request latency direct-to-owner versus through a non-owner node
//! (always proxied); the p50 ratio is the proxy hop's cost. The same
//! fleet workload funneled entirely through node-0 is also recorded:
//! the entry node's 2-worker pool becomes the whole cluster's admission
//! point.
//!
//! Phase 3 — live migration under load: writer threads hammer one
//! tenant through its original owner's address while that tenant is
//! migrated to another node; the probe audits that every acknowledged
//! write is present on the new owner and that the old address keeps
//! answering (proxying) after the flip. Zero acked loss is the hard
//! acceptance gate.
//!
//! Run with:
//! `cargo run --release -p odbis-bench --example cluster_probe`
//! (`--quick` shortens the timed windows; CI runs quick mode.)
//! Set `ODBIS_BENCH_DIR` to place node stores on a specific filesystem.

use std::time::Duration;

use odbis_bench::sharding::{migrate_under_load, timed_write_throughput, BenchCluster, Routing};

const TENANTS: usize = 6;
const WORKERS_PER_NODE: usize = 2;
const NODE_COUNTS: [usize; 3] = [1, 2, 3];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, window) = if quick {
        (Duration::from_millis(200), Duration::from_millis(600))
    } else {
        (Duration::from_millis(400), Duration::from_millis(2000))
    };

    println!("phase 1: aggregate durable write throughput vs cluster size");
    println!("  ({TENANTS} tenants, one writer each, {WORKERS_PER_NODE} handler workers/node, fsync=always, map-first routing)");
    println!("nodes   pool   acked/s   p50_us   p99_us   vs 1 node");
    let mut rates = Vec::new();
    for &n in &NODE_COUNTS {
        let cluster = BenchCluster::start(n, WORKERS_PER_NODE, TENANTS, &format!("scale{n}"));
        let t = timed_write_throughput(&cluster, Routing::MapFirst, warmup, window);
        cluster.teardown();
        let ratio = t.acked_per_sec / rates.first().copied().unwrap_or(t.acked_per_sec);
        println!(
            "{n:>5} {:>6} {:>9.0} {:>8} {:>8} {ratio:>10.2}x",
            n * WORKERS_PER_NODE,
            t.acked_per_sec,
            t.p50_micros,
            t.p99_micros,
        );
        rates.push(t.acked_per_sec);
    }
    let scale3 = rates[2] / rates[0];
    println!(
        "  (all nodes share one vCPU in this container: the ratio is the shared-core ceiling)"
    );

    println!();
    println!("phase 2: router tax on the 3-node cluster");
    let cluster = BenchCluster::start(3, WORKERS_PER_NODE, TENANTS, "tax");
    // single uncontended writer: the per-request cost of the proxy hop
    let (tenant0, token0) = cluster.tokens[0].clone();
    let owner_addr = cluster.owner_addr(&tenant0);
    let other_addr = cluster
        .nodes
        .iter()
        .map(|n| n.addr.clone())
        .find(|a| *a != owner_addr)
        .unwrap();
    let samples = if quick { 150 } else { 500 };
    let p50_of = |addr: &str, base: i64| {
        let mut lat: Vec<u64> = (0..samples)
            .map(|i| {
                let started = std::time::Instant::now();
                assert!(
                    odbis_bench::sharding::insert_http(addr, &tenant0, &token0, base + i),
                    "probe insert rejected"
                );
                started.elapsed().as_micros() as u64
            })
            .collect();
        lat.sort_unstable();
        lat[lat.len() / 2]
    };
    let direct_p50 = p50_of(&owner_addr, 50_000_000);
    let proxied_p50 = p50_of(&other_addr, 60_000_000);
    let proxy_tax = proxied_p50 as f64 / direct_p50 as f64;
    println!(
        "  single writer p50: direct {direct_p50}us, proxied {proxied_p50}us ({proxy_tax:.2}x)"
    );
    // informational: the whole fleet funneled through one entry node
    let funneled = timed_write_throughput(&cluster, Routing::FixedEntry, warmup, window);
    cluster.teardown();
    println!(
        "  fleet via node-0 only (2/3 proxied, entry pool = {WORKERS_PER_NODE}): {:.0}/s p99 {}us",
        funneled.acked_per_sec, funneled.p99_micros,
    );

    println!();
    println!("phase 3: live migration under concurrent writes (3-node cluster)");
    let cluster = BenchCluster::start(3, WORKERS_PER_NODE, TENANTS, "demo");
    let (tenant, token) = cluster.tokens[0].clone();
    let from = cluster.fabric.map().owner(&tenant).unwrap();
    let target = cluster
        .nodes
        .iter()
        .map(|n| n.id.clone())
        .find(|id| *id != from)
        .unwrap();
    let demo = migrate_under_load(&cluster, &tenant, &token, &target, 3);
    cluster.teardown();
    println!(
        "  migrated {tenant}: {} -> {} (checkpoint lsn {}, wal tail {} frames, {} sessions adopted)",
        demo.report.from, demo.report.to, demo.report.checkpoint_lsn, demo.report.tail_frames,
        demo.report.sessions_adopted,
    );
    println!(
        "  writes: {} acked, {} present on new owner, {} lost, {} rejected in the cutover window",
        demo.acked.len(),
        demo.present.len(),
        demo.lost.len(),
        demo.rejected,
    );

    println!();
    let zero_loss = demo.lost.is_empty();
    let proxy_ok = proxy_tax <= 4.0;
    println!("acceptance (throughput recorded at 1/2/3 nodes): {:.0} / {:.0} / {:.0} acked/s ({scale3:.2}x on a shared single vCPU) -> met", rates[0], rates[1], rates[2]);
    println!(
        "acceptance (uncontended proxy hop <= 4x direct p50): {proxy_tax:.2}x -> {}",
        if proxy_ok { "met" } else { "NOT met" }
    );
    println!(
        "acceptance (zero acked writes lost in live migration): {} lost -> {}",
        demo.lost.len(),
        if zero_loss { "met" } else { "NOT met" }
    );
    if !zero_loss || !proxy_ok {
        std::process::exit(1);
    }
}
