//! Per-tenant admission control: token-bucket rate limits plus
//! queue-depth backpressure.
//!
//! This converts the platform's pay-as-you-go *cost* model into a *QoS*
//! model: a tenant bursting past its contracted rate pays in its own
//! latency (its requests queue, then 429), never in its neighbors'. The
//! server consults [`AdmissionControl::admit`] the moment a request is
//! parsed — before any handler work is spent on it — and reports
//! completion so queue depth tracks real in-flight load.
//!
//! Limits resolve per tenant through a caller-supplied resolver (the
//! platform wires this to `limits.rate` / `limits.burst` /
//! `limits.queue_depth` configuration). A rate of 0 means the tenant is
//! unlimited; a tenant the resolver does not know is admitted untracked,
//! so a name no one provisioned takes no bucket.

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use crate::http::{HttpRequest, HttpResponse};

/// Upper bound on the `Retry-After` advice a 429 carries. A misconfigured
/// near-zero refill rate must not tell clients to come back in a million
/// years — an hour is the longest honest "try later" this layer gives.
pub const MAX_RETRY_AFTER_SECS: u64 = 3_600;

/// The admission limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLimits {
    /// Steady-state request rate (requests/second). `0` disables limiting.
    pub rate: f64,
    /// Bucket capacity: how far a tenant may burst above its rate. `0`
    /// falls back to `rate` (one second of headroom).
    pub burst: f64,
    /// How many requests past the rate may be queued/in flight before the
    /// tenant is answered 429 instead.
    pub queue_depth: u64,
}

impl TenantLimits {
    /// An unlimited tenant (no admission control applied).
    pub fn unlimited() -> Self {
        TenantLimits {
            rate: 0.0,
            burst: 0.0,
            queue_depth: 0,
        }
    }

    fn effective_burst(&self) -> f64 {
        if self.burst > 0.0 {
            self.burst
        } else {
            self.rate.max(1.0)
        }
    }
}

/// The verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Within the tenant's rate: serve it.
    Admit,
    /// Past the rate but within queue depth: serve it (the tenant pays in
    /// its own queueing latency).
    Queued,
    /// Past rate and queue depth: answer 429, advising a retry after the
    /// given number of seconds (when the bucket will hold a token again).
    Reject {
        /// Whole seconds until the tenant's bucket accrues a token (≥ 1).
        retry_after_secs: u64,
    },
}

#[derive(Debug)]
struct TenantState {
    tokens: f64,
    last_refill: Instant,
    /// Requests admitted (either way) and not yet completed.
    pending: u64,
    admitted: u64,
    queued: u64,
    rejected: u64,
}

type LimitsResolver = dyn Fn(&str) -> Option<TenantLimits> + Send + Sync;

/// Token-bucket admission control keyed by tenant.
pub struct AdmissionControl {
    resolver: Box<LimitsResolver>,
    state: Mutex<HashMap<String, TenantState>>,
}

impl AdmissionControl {
    /// Build with a limits resolver — called on every admission decision,
    /// so configuration changes apply to the next request. It answers
    /// `None` for a tenant it does not know.
    pub fn new(resolver: impl Fn(&str) -> Option<TenantLimits> + Send + Sync + 'static) -> Self {
        AdmissionControl {
            resolver: Box::new(resolver),
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Fixed limits for every tenant (tests, benches).
    pub fn with_uniform_limits(limits: TenantLimits) -> Self {
        AdmissionControl::new(move |_| Some(limits))
    }

    /// Decide whether to serve a request for `tenant` right now. Callers
    /// must pair every `Admit`/`Queued` verdict with a later
    /// [`complete`](Self::complete). A tenant the resolver does not know
    /// is admitted and keeps no state.
    pub fn admit(&self, tenant: &str) -> Admission {
        let Some(limits) = (self.resolver)(tenant) else {
            return Admission::Admit;
        };
        let mut map = self.state.lock();
        let state = map
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                tokens: limits.effective_burst(),
                last_refill: Instant::now(),
                pending: 0,
                admitted: 0,
                queued: 0,
                rejected: 0,
            });
        if limits.rate <= 0.0 {
            state.admitted += 1;
            state.pending += 1;
            return Admission::Admit;
        }
        // refill, capped at burst
        let now = Instant::now();
        let elapsed = now.duration_since(state.last_refill).as_secs_f64();
        state.last_refill = now;
        state.tokens = (state.tokens + elapsed * limits.rate).min(limits.effective_burst());
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            state.admitted += 1;
            state.pending += 1;
            Admission::Admit
        } else if state.pending < limits.queue_depth {
            state.queued += 1;
            state.pending += 1;
            Admission::Queued
        } else {
            state.rejected += 1;
            // Clamp the advice into [1, MAX_RETRY_AFTER_SECS]: a tiny
            // configured rate (say 1e-12 req/s) would otherwise compute an
            // astronomical wait, and the max()/min() chain is NaN-safe —
            // f64::max/min return the other operand on NaN, so a degenerate
            // division still yields a sane whole-second answer rather than
            // `Retry-After: 0` or a saturated u64.
            let secs = ((1.0 - state.tokens) / limits.rate)
                .ceil()
                .max(1.0)
                .min(MAX_RETRY_AFTER_SECS as f64);
            Admission::Reject {
                retry_after_secs: secs as u64,
            }
        }
    }

    /// Gate one parsed request — the single entry point the server
    /// calls. Requests without an `X-Tenant` header are not gated
    /// (`Ok(None)`); gated requests return the tenant to
    /// [`complete`](Self::complete) later (`Ok(Some(tenant))`), or a
    /// ready-to-send 429 in the structured envelope with `Retry-After`
    /// and the request id stamped (`Err(response)`).
    pub fn gate(&self, request: &mut HttpRequest) -> Result<Option<String>, HttpResponse> {
        let Some(tenant) = request.header("x-tenant").map(str::to_string) else {
            return Ok(None);
        };
        match self.admit(&tenant) {
            Admission::Admit | Admission::Queued => Ok(Some(tenant)),
            Admission::Reject { retry_after_secs } => {
                let id = request.ensure_request_id();
                let body = format!(
                    r#"{{"error":{{"kind":"rate_limited","message":"request rate limit exceeded, retry after {retry_after_secs}s","request_id":"{id}"}}}}"#
                );
                Err(HttpResponse::status(429)
                    .with_header("Content-Type", "application/json")
                    .with_header("Retry-After", &retry_after_secs.to_string())
                    .with_header("X-Request-Id", &id)
                    .with_body(body))
            }
        }
    }

    /// Report a previously admitted request as finished (response written
    /// or connection torn down), releasing its queue slot.
    pub fn complete(&self, tenant: &str) {
        if let Some(state) = self.state.lock().get_mut(tenant) {
            state.pending = state.pending.saturating_sub(1);
        }
    }

    /// Requests currently admitted and not yet completed for `tenant`.
    pub fn pending(&self, tenant: &str) -> u64 {
        self.state.lock().get(tenant).map_or(0, |s| s.pending)
    }

    /// Per-tenant `(tenant, admitted, queued, rejected)` counter snapshot,
    /// sorted by tenant — the source of the
    /// `odbis_admission_{admitted,queued,rejected}_total` metrics.
    pub fn snapshot(&self) -> Vec<(String, u64, u64, u64)> {
        let map = self.state.lock();
        let mut rows: Vec<_> = map
            .iter()
            .map(|(t, s)| (t.clone(), s.admitted, s.queued, s.rejected))
            .collect();
        rows.sort();
        rows
    }

    /// Render the admission counters in Prometheus text format: with
    /// `Some(tenant)` that tenant's series, labelled `tenant="..."`; with
    /// `None` the node's totals, which name no tenant.
    pub fn render_prometheus(&self, tenant: Option<&str>) -> String {
        let rows: Vec<(String, u64, u64, u64)> = match tenant {
            Some(t) => self.snapshot().into_iter().filter(|r| r.0 == t).collect(),
            None => {
                let total = (self.snapshot().iter()).fold((0, 0, 0), |(a, q, r), row| {
                    (a + row.1, q + row.2, r + row.3)
                });
                vec![(String::new(), total.0, total.1, total.2)]
            }
        };
        let mut out = String::new();
        for (metric, pick) in [("admitted", 0usize), ("queued", 1), ("rejected", 2)] {
            out.push_str(&format!("# TYPE odbis_admission_{metric}_total counter\n"));
            for (tenant, admitted, queued, rejected) in &rows {
                let value = [admitted, queued, rejected][pick];
                let label = if tenant.is_empty() {
                    String::new()
                } else {
                    format!("{{tenant=\"{tenant}\"}}")
                };
                out.push_str(&format!("odbis_admission_{metric}_total{label} {value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits(rate: f64, burst: f64, queue_depth: u64) -> TenantLimits {
        TenantLimits {
            rate,
            burst,
            queue_depth,
        }
    }

    #[test]
    fn burst_admits_then_queues_then_rejects() {
        // rate so low the bucket effectively never refills mid-test
        let ac = AdmissionControl::with_uniform_limits(limits(0.001, 1.0, 2));
        // bucket starts full at burst: one straight admit
        assert_eq!(ac.admit("t"), Admission::Admit);
        // bucket empty: the next queues (pending 1 < depth 2)
        assert_eq!(ac.admit("t"), Admission::Queued);
        // queue depth reached (pending 2): 429 with a sane Retry-After
        match ac.admit("t") {
            Admission::Reject { retry_after_secs } => assert!(retry_after_secs >= 1),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(ac.pending("t"), 2);
        // completions release queue slots
        ac.complete("t");
        assert_eq!(ac.pending("t"), 1);
        assert_eq!(ac.admit("t"), Admission::Queued);
        let snap = ac.snapshot();
        assert_eq!(snap, vec![("t".to_string(), 1, 2, 1)]);
    }

    #[test]
    fn tenants_do_not_share_buckets() {
        let ac = AdmissionControl::with_uniform_limits(limits(1.0, 1.0, 0));
        assert_eq!(ac.admit("a"), Admission::Admit);
        assert!(matches!(ac.admit("a"), Admission::Reject { .. }));
        // tenant b's bucket is untouched by a's burst
        assert_eq!(ac.admit("b"), Admission::Admit);
    }

    #[test]
    fn zero_rate_means_unlimited() {
        let ac = AdmissionControl::with_uniform_limits(TenantLimits::unlimited());
        for _ in 0..1000 {
            assert_eq!(ac.admit("t"), Admission::Admit);
        }
    }

    /// `limits.rate = 0` with a zero burst must never divide by zero or
    /// build a permanent-reject bucket: the zero-rate early return wins
    /// regardless of the other knobs.
    #[test]
    fn zero_rate_with_zero_burst_and_depth_never_rejects() {
        let ac = AdmissionControl::with_uniform_limits(limits(0.0, 0.0, 0));
        for _ in 0..100 {
            assert_eq!(ac.admit("t"), Admission::Admit);
        }
        // negative rates (bad config arithmetic upstream) are unlimited too
        let ac = AdmissionControl::with_uniform_limits(limits(-5.0, 0.0, 0));
        assert_eq!(ac.admit("t"), Admission::Admit);
    }

    /// A near-zero refill rate computes an astronomical wait; the advice
    /// must clamp into [1, MAX_RETRY_AFTER_SECS] instead of truncating a
    /// huge (or infinite) f64 through `as u64`.
    #[test]
    fn tiny_rate_clamps_retry_after() {
        let ac = AdmissionControl::with_uniform_limits(limits(1e-12, 1.0, 0));
        assert_eq!(ac.admit("t"), Admission::Admit);
        match ac.admit("t") {
            Admission::Reject { retry_after_secs } => {
                assert!(
                    (1..=MAX_RETRY_AFTER_SECS).contains(&retry_after_secs),
                    "unclamped Retry-After: {retry_after_secs}"
                );
                assert_eq!(retry_after_secs, MAX_RETRY_AFTER_SECS);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    /// Huge rates stay sane: the bucket holds burst tokens, rejections
    /// (when queue depth is exhausted) advise at least one whole second,
    /// and nothing overflows.
    #[test]
    fn huge_rate_still_behaves() {
        let ac = AdmissionControl::with_uniform_limits(limits(1e18, 2.0, 0));
        assert_eq!(ac.admit("t"), Admission::Admit);
        assert_eq!(ac.admit("t"), Admission::Admit);
        // even if a reject happens before any refill, the advice is >= 1
        let ac = AdmissionControl::with_uniform_limits(limits(f64::MAX, 1.0, 0));
        assert_eq!(ac.admit("t"), Admission::Admit);
        match ac.admit("t") {
            Admission::Admit | Admission::Queued => {}
            Admission::Reject { retry_after_secs } => {
                assert!((1..=MAX_RETRY_AFTER_SECS).contains(&retry_after_secs));
            }
        }
    }

    #[test]
    fn bucket_refills_over_time() {
        let ac = AdmissionControl::with_uniform_limits(limits(1000.0, 1.0, 0));
        assert_eq!(ac.admit("t"), Admission::Admit);
        assert!(matches!(ac.admit("t"), Admission::Reject { .. }));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ac.admit("t"), Admission::Admit, "token should have accrued");
    }

    #[test]
    fn an_unknown_tenant_is_admitted_and_takes_no_bucket() {
        let ac = AdmissionControl::new(|t| (t == "acme").then(TenantLimits::unlimited));
        for _ in 0..3 {
            assert_eq!(ac.admit("ghost"), Admission::Admit);
            ac.complete("ghost");
        }
        assert_eq!(ac.admit("acme"), Admission::Admit);
        assert_eq!(ac.snapshot(), vec![("acme".to_string(), 1, 0, 0)]);
    }

    #[test]
    fn gate_skips_anonymous_and_rejects_with_envelope() {
        use crate::http::{HttpRequest, Method};
        let ac = AdmissionControl::with_uniform_limits(limits(0.001, 1.0, 0));
        // no tenant header: not gated
        let mut anon = HttpRequest::new(Method::Get, "/x");
        assert_eq!(ac.gate(&mut anon).unwrap(), None);
        // first tenant request admitted, second rejected with the envelope
        let mut req = HttpRequest::new(Method::Get, "/x").with_header("X-Tenant", "acme");
        assert_eq!(ac.gate(&mut req).unwrap(), Some("acme".to_string()));
        let mut req = HttpRequest::new(Method::Get, "/x")
            .with_header("X-Tenant", "acme")
            .with_header("X-Request-Id", "trace-me");
        let resp = ac.gate(&mut req).unwrap_err();
        assert_eq!(resp.status, 429);
        assert!(resp.headers.contains_key("Retry-After"));
        assert_eq!(resp.headers.get("X-Request-Id").unwrap(), "trace-me");
        let body = resp.body_text();
        assert!(body.contains(r#""kind":"rate_limited""#), "{body}");
        assert!(body.contains(r#""request_id":"trace-me""#), "{body}");
    }

    #[test]
    fn prometheus_rendering_lists_all_three_counters() {
        let ac = AdmissionControl::with_uniform_limits(limits(1.0, 1.0, 0));
        let _ = ac.admit("t");
        let _ = ac.admit("t");
        let _ = ac.admit("u");
        let text = ac.render_prometheus(Some("t"));
        assert!(!text.contains("\"u\""), "{text}");
        assert!(text.contains("# TYPE odbis_admission_admitted_total counter"));
        assert!(text.contains("odbis_admission_admitted_total{tenant=\"t\"} 1"));
        assert!(text.contains("odbis_admission_rejected_total{tenant=\"t\"} 1"));
        assert!(text.contains("odbis_admission_queued_total{tenant=\"t\"} 0"));
        let node = ac.render_prometheus(None);
        assert!(
            node.contains("odbis_admission_admitted_total 2\n"),
            "{node}"
        );
        assert!(
            node.contains("odbis_admission_rejected_total 1\n"),
            "{node}"
        );
        assert!(!node.contains("tenant="), "{node}");
    }
}
