//! # odbis-telemetry
//!
//! The platform telemetry spine: the observability counterpart of the
//! paper's pay-as-you-go claim (ODBIS §1–2). The tenant registry counts
//! *units*; this crate measures *what a request cost* — latency, rows, bytes — and
//! joins the two into per-tenant cost lines.
//!
//! Four pieces, each its own module:
//!
//! * [`span`] — a lightweight trace context. A **root span** is opened at
//!   the platform gate (authorize/meter path) and installs itself in a
//!   thread-local stack; service layers (SQL execution, ETL job runs, OLAP
//!   cube queries, report renders, delivery) open **child spans** with
//!   [`child_span`], which inherit trace id and tenant from the ambient
//!   stack — no API signature changes anywhere in the service crates.
//! * [`metrics`] — striped-lock shards of per-`(tenant, service,
//!   operation)` counters (requests, errors, rows, bytes, CPU time) and
//!   log2-bucketed latency histograms, rendered in Prometheus text
//!   exposition format.
//! * [`slowlog`] — a bounded ring of spans that exceeded the configurable
//!   slow threshold (`telemetry.slow_ms`), with operation detail (e.g. the
//!   SQL text).
//! * [`cost`] — the pay-as-you-go cost model: a [`CostModel`] prices
//!   metered units, CPU seconds, rows and bytes into [`CostLine`]s.
//!
//! Every gated call is traced; the instrumentation overhead budget is ≤5%
//! end-to-end. A [`Span::disabled`] span is inert (no allocation, no
//! locking, no thread-local install): a child span opened outside any root
//! is one.
//!
//! Counts the work's own component already keeps are not copied here: the
//! WAL append and byte totals live in the log (`Wal::stats`) and the
//! platform renders them at scrape time; this crate keeps only what no
//! other component counts — request spans and checkpoint latency.
//!
//! ```
//! use std::sync::Arc;
//! use odbis_telemetry::{child_span, Telemetry};
//!
//! let telemetry = Arc::new(Telemetry::new());
//! {
//!     let mut root = telemetry.span("acme", "MDS", "sql", 250);
//!     root.set_rows(3);
//!     // ... deeper layers annotate the same trace:
//!     let child = child_span("sql", "execute.vectorized");
//!     drop(child);
//! }
//! let text = telemetry.render_prometheus(Some("acme"));
//! assert!(text.contains("odbis_requests_total{tenant=\"acme\",service=\"MDS\",operation=\"sql\"} 1"));
//! // the node's totals name no tenant
//! let node = telemetry.render_prometheus(None);
//! assert!(node.contains("odbis_requests_total{service=\"MDS\",operation=\"sql\"} 1"));
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod metrics;
pub mod slowlog;
pub mod span;

pub use cost::{CostLine, CostModel};
pub use metrics::{MetricKey, MetricSnapshot, ServiceTotals, WalCounters};
pub use slowlog::SlowEntry;
pub use span::{
    ambient_request_id, child_span, current_trace_id, set_ambient_request_id, Span, SpanRecord,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use metrics::Shard;

/// How many striped metric shards the registry keeps. Keys are hashed to a
/// stripe so concurrent recording from worker threads rarely contends.
pub const STRIPES: usize = 16;

/// Recent-span ring capacity (for trace inspection, not a durable store).
const SPAN_RING: usize = 512;

/// The telemetry registry: sharded metrics, the slow-query log, and the
/// recent-span ring. One per platform, shared via `Arc`.
pub struct Telemetry {
    shards: Vec<Mutex<Shard>>,
    slow: Mutex<slowlog::SlowLog>,
    spans: Mutex<std::collections::VecDeque<SpanRecord>>,
    // Per-tenant checkpoint counters. A BTreeMap behind one lock is
    // enough: one push per checkpoint, far off the striped request path.
    wal: Mutex<BTreeMap<String, metrics::WalCounters>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Empty registry.
    pub fn new() -> Self {
        Telemetry {
            shards: (0..STRIPES).map(|_| Mutex::new(Shard::default())).collect(),
            slow: Mutex::new(slowlog::SlowLog::new(256)),
            spans: Mutex::new(std::collections::VecDeque::with_capacity(SPAN_RING)),
            wal: Mutex::new(BTreeMap::new()),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }
    }

    /// Open a span. If the calling thread already has an active span (a
    /// platform call nested inside another, or a service layer under the
    /// gate), the new span joins that trace as a child; otherwise it roots
    /// a fresh trace. The span installs itself in the thread-local stack so
    /// deeper layers can attach with [`child_span`].
    ///
    /// `slow_ms` is the slow-log threshold for this span (0 disables).
    pub fn span(
        self: &Arc<Self>,
        tenant: &str,
        service: &'static str,
        operation: impl Into<String>,
        slow_ms: u64,
    ) -> Span {
        span::start(Arc::clone(self), tenant, service, operation.into(), slow_ms)
    }

    /// Fresh trace id.
    pub(crate) fn new_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Fresh span id.
    pub(crate) fn new_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn record(&self, rec: SpanRecord, slow_ms: u64) {
        let key = MetricKey {
            tenant: rec.tenant.clone(),
            service: rec.service,
            operation: rec.operation.clone(),
        };
        let stripe = metrics::stripe_of(&key, self.shards.len());
        self.shards[stripe]
            .lock()
            .record(key, rec.duration_micros, rec.rows, rec.bytes, rec.error);
        if slow_ms > 0 && rec.duration_micros >= slow_ms.saturating_mul(1000) {
            self.slow.lock().push(SlowEntry {
                tenant: rec.tenant.clone(),
                service: rec.service,
                operation: rec.operation.clone(),
                detail: rec.detail.clone(),
                duration_micros: rec.duration_micros,
                trace_id: rec.trace_id,
                request_id: rec.request_id.clone(),
            });
        }
        let mut spans = self.spans.lock();
        if spans.len() == SPAN_RING {
            spans.pop_front();
        }
        spans.push_back(rec);
    }

    /// Snapshot of every `(tenant, service, operation)` metric entry,
    /// sorted by key.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut all: Vec<MetricSnapshot> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().snapshot())
            .collect();
        all.sort_by(|a, b| a.key.cmp(&b.key));
        all
    }

    /// Totals aggregated over operations, keyed by `(tenant, service)` —
    /// the join key shared with the usage report.
    pub fn totals(&self) -> BTreeMap<(String, String), ServiceTotals> {
        let mut out: BTreeMap<(String, String), ServiceTotals> = BTreeMap::new();
        for snap in self.snapshot() {
            let entry = out
                .entry((snap.key.tenant.clone(), snap.key.service.to_string()))
                .or_default();
            entry.requests += snap.requests;
            entry.errors += snap.errors;
            entry.rows += snap.rows;
            entry.bytes += snap.bytes;
            entry.cpu_micros += snap.duration_micros_total;
        }
        out
    }

    /// Meter one durability checkpoint for `tenant`.
    pub fn record_checkpoint(&self, tenant: &str, micros: u64) {
        self.wal
            .lock()
            .entry(tenant.to_string())
            .or_default()
            .record_checkpoint(micros);
    }

    /// Point-in-time copy of the per-tenant checkpoint counters, sorted by
    /// tenant.
    pub fn wal_snapshot(&self) -> Vec<(String, WalCounters)> {
        self.wal
            .lock()
            .iter()
            .map(|(t, w)| (t.clone(), w.clone()))
            .collect()
    }

    /// The slow-query log, oldest first.
    pub fn slow_log(&self) -> Vec<SlowEntry> {
        self.slow.lock().entries()
    }

    /// Recently finished spans, oldest first (bounded ring).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Drop all recorded metrics, slow-log entries and spans (close of a
    /// billing/observation period).
    pub fn reset(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
        self.slow.lock().clear();
        self.spans.lock().clear();
        self.wal.lock().clear();
    }

    /// Render every counter and histogram in the Prometheus text
    /// exposition format (`text/plain; version=0.0.4`), deterministically
    /// ordered: with `Some(tenant)` that tenant's series, labelled
    /// `tenant="..."`; with `None` the node's totals, summed over tenants
    /// per service and operation, which name no tenant.
    pub fn render_prometheus(&self, tenant: Option<&str>) -> String {
        let (snaps, wal) = (self.snapshot(), self.wal_snapshot());
        let (snaps, wal) = match tenant {
            None => (metrics::node_totals(&snaps), metrics::wal_node_totals(&wal)),
            Some(t) => (
                snaps.into_iter().filter(|s| s.key.tenant == t).collect(),
                wal.into_iter().filter(|(id, _)| id == t).collect(),
            ),
        };
        let mut out = metrics::render_prometheus(&snaps);
        out.push_str(&metrics::render_wal(&wal));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_child_spans_share_a_trace() {
        let t = Arc::new(Telemetry::new());
        {
            let mut root = t.span("acme", "MDS", "sql", 0);
            root.set_rows(2);
            let mut child = child_span("sql", "execute.vectorized");
            child.set_rows(2);
        }
        let spans = t.recent_spans();
        assert_eq!(spans.len(), 2);
        // child finishes (and is recorded) first
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_eq!(child.tenant, "acme");
        assert_eq!(root.parent_id, None);
        assert_eq!(root.service, "MDS");
        assert_eq!(child.service, "sql");
    }

    #[test]
    fn child_span_without_root_is_inert() {
        let t = Arc::new(Telemetry::new());
        {
            let mut orphan = child_span("sql", "execute");
            orphan.set_rows(100);
        }
        assert!(t.recent_spans().is_empty());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn nested_platform_calls_nest_spans() {
        let t = Arc::new(Telemetry::new());
        {
            let _outer = t.span("acme", "MDS", "dataset", 0);
            let _inner = t.span("acme", "MDS", "sql", 0);
        }
        let spans = t.recent_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].operation, "sql");
        assert_eq!(spans[0].parent_id, Some(spans[1].span_id));
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
    }

    #[test]
    fn totals_aggregate_over_operations() {
        let t = Arc::new(Telemetry::new());
        {
            let mut a = t.span("acme", "MDS", "sql", 0);
            a.set_rows(10);
            a.set_bytes(100);
        }
        {
            let mut b = t.span("acme", "MDS", "dataset", 0);
            b.set_rows(5);
            b.fail();
        }
        {
            let _c = t.span("beta", "AS", "mdx", 0);
        }
        let totals = t.totals();
        assert_eq!(totals.len(), 2);
        let acme = &totals[&("acme".to_string(), "MDS".to_string())];
        assert_eq!(acme.requests, 2);
        assert_eq!(acme.errors, 1);
        assert_eq!(acme.rows, 15);
        assert_eq!(acme.bytes, 100);
        assert!(totals.contains_key(&("beta".to_string(), "AS".to_string())));
    }

    #[test]
    fn reset_clears_everything() {
        let t = Arc::new(Telemetry::new());
        drop(t.span("acme", "MDS", "sql", 0));
        t.record_checkpoint("acme", 64);
        assert!(!t.snapshot().is_empty());
        t.reset();
        assert!(t.snapshot().is_empty());
        assert!(t.recent_spans().is_empty());
        assert!(t.slow_log().is_empty());
        assert!(t.wal_snapshot().is_empty());
    }

    #[test]
    fn checkpoint_counters_accumulate_and_render() {
        let t = Arc::new(Telemetry::new());
        t.record_checkpoint("acme", 1500);
        t.record_checkpoint("beta", 7);
        let snap = t.wal_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "acme");
        assert_eq!(snap[0].1.checkpoints, 1);
        assert_eq!(snap[0].1.checkpoint_micros_total, 1500);
        let text = t.render_prometheus(Some("acme"));
        assert!(text.contains("odbis_checkpoints_total{tenant=\"acme\"} 1"));
        assert!(!text.contains("beta"));
        let node = t.render_prometheus(None);
        assert!(node.contains("odbis_checkpoints_total 2\n"), "{node}");
        assert!(
            node.contains("odbis_checkpoint_seconds_count 2\n"),
            "{node}"
        );
        assert!(!node.contains("tenant="), "{node}");
        assert!(text.contains("# TYPE odbis_checkpoint_seconds histogram"));
        // 1500µs < 2^11µs → cumulative 1 at le=0.002048
        assert!(text.contains("odbis_checkpoint_seconds_bucket{tenant=\"acme\",le=\"0.002048\"} 1"));
        assert!(text.contains("odbis_checkpoint_seconds_count{tenant=\"acme\"} 1"));
        // the WAL append families are the platform's, read from the log
        assert!(!text.contains("odbis_wal_"));
    }

    #[test]
    fn concurrent_spans_record_exactly() {
        let t = Arc::new(Telemetry::new());
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    let mut s = t.span(&format!("t{i}"), "MDS", "sql", 0);
                    s.set_rows(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let totals = t.totals();
        let requests: u64 = totals.values().map(|v| v.requests).sum();
        assert_eq!(requests, 1000);
    }
}
