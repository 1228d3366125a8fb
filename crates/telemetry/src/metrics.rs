//! Sharded counters and log2-bucketed latency histograms, with Prometheus
//! text exposition.
//!
//! Each `(tenant, service, operation)` key owns one [`MetricEntry`]:
//! request/error/row/byte counters, a total-CPU-time accumulator, and a
//! histogram whose bucket `i` counts durations below `2^i` microseconds.
//! Keys hash to one of [`crate::STRIPES`] independently locked shards, so
//! concurrent recording from server worker threads rarely contends.

use std::hash::{Hash, Hasher};

/// Histogram bucket count: bucket `i < BUCKETS-1` counts durations
/// `< 2^i µs`; the last bucket is the +Inf catch-all. `2^26 µs ≈ 67 s`
/// comfortably covers any in-process BI call.
pub const BUCKETS: usize = 28;

/// Identity of one metric series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Tenant id.
    pub tenant: String,
    /// Service label.
    pub service: &'static str,
    /// Operation label.
    pub operation: String,
}

/// Counters and histogram for one key.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Finished spans.
    pub requests: u64,
    /// Spans marked failed.
    pub errors: u64,
    /// Total rows touched.
    pub rows: u64,
    /// Total bytes produced.
    pub bytes: u64,
    /// Total duration in microseconds.
    pub duration_micros_total: u64,
    /// log2 latency buckets (non-cumulative counts).
    pub hist: [u64; BUCKETS],
}

impl Default for MetricEntry {
    fn default() -> Self {
        MetricEntry {
            requests: 0,
            errors: 0,
            rows: 0,
            bytes: 0,
            duration_micros_total: 0,
            hist: [0; BUCKETS],
        }
    }
}

/// Bucket index for a duration: the position of its highest set bit,
/// clamped to the +Inf bucket.
pub fn bucket_index(micros: u64) -> usize {
    ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound of bucket `i` in seconds (`f64::INFINITY` for the last).
pub fn bucket_upper_seconds(i: usize) -> f64 {
    if i >= BUCKETS - 1 {
        f64::INFINITY
    } else {
        (1u64 << i) as f64 / 1e6
    }
}

/// One shard: a plain map behind its own lock.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    entries: std::collections::HashMap<MetricKey, MetricEntry>,
}

impl Shard {
    pub(crate) fn record(
        &mut self,
        key: MetricKey,
        micros: u64,
        rows: u64,
        bytes: u64,
        error: bool,
    ) {
        let e = self.entries.entry(key).or_default();
        e.requests += 1;
        if error {
            e.errors += 1;
        }
        e.rows += rows;
        e.bytes += bytes;
        e.duration_micros_total += micros;
        e.hist[bucket_index(micros)] += 1;
    }

    pub(crate) fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.entries
            .iter()
            .map(|(k, e)| MetricSnapshot {
                key: k.clone(),
                requests: e.requests,
                errors: e.errors,
                rows: e.rows,
                bytes: e.bytes,
                duration_micros_total: e.duration_micros_total,
                hist: e.hist,
            })
            .collect()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Stripe index for a key (FNV-1a over the key fields).
pub(crate) fn stripe_of(key: &MetricKey, stripes: usize) -> usize {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    (h.finish() as usize) % stripes
}

#[derive(Default)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

/// A point-in-time copy of one metric entry.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Series identity.
    pub key: MetricKey,
    /// Finished spans.
    pub requests: u64,
    /// Spans marked failed.
    pub errors: u64,
    /// Total rows touched.
    pub rows: u64,
    /// Total bytes produced.
    pub bytes: u64,
    /// Total duration in microseconds.
    pub duration_micros_total: u64,
    /// log2 latency buckets (non-cumulative counts).
    pub hist: [u64; BUCKETS],
}

/// Per-tenant checkpoint counters. The WAL's append and byte totals are
/// the log's own (`Wal::stats`); the platform renders them at scrape time.
#[derive(Debug, Clone)]
pub struct WalCounters {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Total checkpoint wall time in microseconds.
    pub checkpoint_micros_total: u64,
    /// log2 checkpoint-latency buckets (non-cumulative counts).
    pub checkpoint_hist: [u64; BUCKETS],
}

impl Default for WalCounters {
    fn default() -> Self {
        WalCounters {
            checkpoints: 0,
            checkpoint_micros_total: 0,
            checkpoint_hist: [0; BUCKETS],
        }
    }
}

impl WalCounters {
    pub(crate) fn record_checkpoint(&mut self, micros: u64) {
        self.checkpoints += 1;
        self.checkpoint_micros_total += micros;
        self.checkpoint_hist[bucket_index(micros)] += 1;
    }
}

/// Render per-tenant checkpoint counters in Prometheus exposition format
/// (appended after the request-path families).
pub(crate) fn render_wal(tenants: &[(String, WalCounters)]) -> String {
    let mut out = String::new();
    let name = "odbis_checkpoints_total";
    out.push_str(&format!(
        "# HELP {name} Durability checkpoints taken, by tenant.\n# TYPE {name} counter\n"
    ));
    for (tenant, w) in tenants {
        out.push_str(&format!(
            "{name}{{tenant=\"{}\"}} {}\n",
            escape_label(tenant),
            w.checkpoints
        ));
    }
    let name = "odbis_checkpoint_seconds";
    out.push_str(&format!(
        "# HELP {name} Checkpoint latency, log2 buckets.\n# TYPE {name} histogram\n"
    ));
    for (tenant, w) in tenants {
        let l = format!("tenant=\"{}\"", escape_label(tenant));
        let mut cumulative = 0u64;
        for (i, count) in w.checkpoint_hist.iter().enumerate() {
            cumulative += count;
            if *count == 0 && i != BUCKETS - 1 {
                continue;
            }
            out.push_str(&format!(
                "{name}_bucket{{{l},le=\"{}\"}} {cumulative}\n",
                format_le(bucket_upper_seconds(i)),
            ));
        }
        out.push_str(&format!(
            "{name}_sum{{{l}}} {}\n{name}_count{{{l}}} {}\n",
            w.checkpoint_micros_total as f64 / 1e6,
            w.checkpoints
        ));
    }
    out
}

/// Per-`(tenant, service)` totals aggregated over operations — the shape
/// the cost pipeline joins against `UsageMeter` units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTotals {
    /// Finished spans.
    pub requests: u64,
    /// Spans marked failed.
    pub errors: u64,
    /// Total rows touched.
    pub rows: u64,
    /// Total bytes produced.
    pub bytes: u64,
    /// Total CPU (wall) time in microseconds.
    pub cpu_micros: u64,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn labels(key: &MetricKey) -> String {
    format!(
        "tenant=\"{}\",service=\"{}\",operation=\"{}\"",
        escape_label(&key.tenant),
        escape_label(key.service),
        escape_label(&key.operation)
    )
}

/// Format an `le` bound the way Prometheus clients expect.
fn format_le(seconds: f64) -> String {
    if seconds.is_infinite() {
        "+Inf".to_string()
    } else {
        // shortest round-trip formatting of powers of two is exact
        format!("{seconds}")
    }
}

/// One Prometheus counter family: name, help text, and value accessor.
type CounterFamily = (&'static str, &'static str, fn(&MetricSnapshot) -> u64);

/// Render sorted snapshots as Prometheus text exposition format.
pub(crate) fn render_prometheus(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::with_capacity(4096 + snaps.len() * 512);
    let counters: [CounterFamily; 4] = [
        (
            "odbis_requests_total",
            "Platform service calls finished, by tenant/service/operation.",
            |s| s.requests,
        ),
        (
            "odbis_errors_total",
            "Platform service calls that failed.",
            |s| s.errors,
        ),
        ("odbis_rows_total", "Rows touched by service calls.", |s| {
            s.rows
        }),
        (
            "odbis_bytes_total",
            "Bytes produced by service calls.",
            |s| s.bytes,
        ),
    ];
    for (name, help, get) in counters {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for s in snaps {
            out.push_str(&format!("{name}{{{}}} {}\n", labels(&s.key), get(s)));
        }
    }
    let name = "odbis_latency_seconds";
    out.push_str(&format!(
        "# HELP {name} Service call latency, log2 buckets.\n# TYPE {name} histogram\n"
    ));
    for s in snaps {
        let l = labels(&s.key);
        let mut cumulative = 0u64;
        for (i, count) in s.hist.iter().enumerate() {
            cumulative += count;
            // elide empty leading/interior buckets except the mandatory +Inf
            if *count == 0 && i != BUCKETS - 1 {
                continue;
            }
            out.push_str(&format!(
                "{name}_bucket{{{l},le=\"{}\"}} {cumulative}\n",
                format_le(bucket_upper_seconds(i)),
            ));
        }
        out.push_str(&format!(
            "{name}_sum{{{l}}} {}\n{name}_count{{{l}}} {}\n",
            s.duration_micros_total as f64 / 1e6,
            s.requests
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: &str, op: &str) -> MetricKey {
        MetricKey {
            tenant: t.to_string(),
            service: "MDS",
            operation: op.to_string(),
        }
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_seconds(0), 1e-6);
        assert!(bucket_upper_seconds(BUCKETS - 1).is_infinite());
    }

    #[test]
    fn shard_accumulates() {
        let mut shard = Shard::default();
        shard.record(key("t", "sql"), 100, 5, 10, false);
        shard.record(key("t", "sql"), 300, 5, 0, true);
        let snap = shard.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.requests, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.rows, 10);
        assert_eq!(s.bytes, 10);
        assert_eq!(s.duration_micros_total, 400);
        // 100µs and 300µs land in log2 buckets 7 and 9
        assert_eq!(s.hist[7], 1);
        assert_eq!(s.hist[9], 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut shard = Shard::default();
        shard.record(key("acme", "sql"), 1500, 42, 0, false);
        let text = render_prometheus(&shard.snapshot());
        assert!(text.contains("# TYPE odbis_requests_total counter"));
        assert!(text
            .contains("odbis_requests_total{tenant=\"acme\",service=\"MDS\",operation=\"sql\"} 1"));
        assert!(
            text.contains("odbis_rows_total{tenant=\"acme\",service=\"MDS\",operation=\"sql\"} 42")
        );
        assert!(text.contains("# TYPE odbis_latency_seconds histogram"));
        // 1500µs < 2^11µs → cumulative 1 at le=0.002048
        assert!(text.contains("le=\"0.002048\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains(
            "odbis_latency_seconds_count{tenant=\"acme\",service=\"MDS\",operation=\"sql\"} 1"
        ));
        assert!(text.contains(
            "odbis_latency_seconds_sum{tenant=\"acme\",service=\"MDS\",operation=\"sql\"} 0.0015"
        ));
    }

    #[test]
    fn label_escaping() {
        let k = MetricKey {
            tenant: "we\"ird\\t".to_string(),
            service: "MDS",
            operation: "op".to_string(),
        };
        let l = labels(&k);
        assert!(l.contains("we\\\"ird\\\\t"));
    }

    #[test]
    fn striping_is_stable_and_in_range() {
        for t in ["a", "b", "c", "dddddd"] {
            let k = key(t, "op");
            let s = stripe_of(&k, 16);
            assert!(s < 16);
            assert_eq!(s, stripe_of(&k, 16));
        }
    }
}
