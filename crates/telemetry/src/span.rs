//! Trace-context spans with thread-local ambient propagation.
//!
//! The platform gate opens a span per service call; the span pushes a
//! frame onto a thread-local stack. Service layers deeper in the call
//! graph — SQL execution, ETL runs, cube queries, report renders,
//! delivery — attach to the ambient trace with [`child_span`] without any
//! plumbing through their APIs. Frames pop on drop; because every span is
//! a scoped guard on one thread, the stack discipline is LIFO.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::Telemetry;

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    // The HTTP request id serving on this thread, installed by the web
    // layer's identity filter. Spans copy it at record time, tying slow-log
    // entries and span records back to the client-visible `X-Request-Id`.
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Install (or clear) the ambient request id for the calling thread. The
/// web layer sets this when a request starts on a worker; every span the
/// request produces records it, so a 429/503 in a client log can be
/// matched to its root span and slow-log entry.
pub fn set_ambient_request_id(id: Option<String>) {
    REQUEST_ID.with(|slot| *slot.borrow_mut() = id);
}

/// The ambient request id, if the thread is serving an HTTP request.
pub fn ambient_request_id() -> Option<String> {
    REQUEST_ID.with(|slot| slot.borrow().clone())
}

/// One active-span frame on the thread-local stack.
struct Frame {
    telemetry: Arc<Telemetry>,
    trace_id: u64,
    span_id: u64,
    tenant: Arc<str>,
    slow_ms: u64,
}

/// A finished span as recorded into the registry's recent-span ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (`None` for a root span).
    pub parent_id: Option<u64>,
    /// Tenant the traced call ran for.
    pub tenant: String,
    /// Service label (`MDS`, `IS`, `AS`, `RS`, `IDS`, `ADM` at the gate;
    /// layer names like `sql`, `etl`, `olap` for child spans).
    pub service: &'static str,
    /// Operation label.
    pub operation: String,
    /// Wall-clock duration in microseconds.
    pub duration_micros: u64,
    /// Rows touched (service-defined).
    pub rows: u64,
    /// Bytes produced (service-defined).
    pub bytes: u64,
    /// Whether the traced call failed.
    pub error: bool,
    /// The HTTP request id the span served, empty outside a request (ETL
    /// schedules, tests).
    pub request_id: String,
    /// What the service attached with [`Span::set_detail`] (the SQL text, a
    /// data set's name, a data set definition's view verdict), empty when
    /// nothing was.
    pub detail: String,
}

struct SpanInner {
    telemetry: Arc<Telemetry>,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    tenant: Arc<str>,
    service: &'static str,
    operation: String,
    start: Instant,
    rows: u64,
    bytes: u64,
    error: bool,
    detail: String,
    slow_ms: u64,
}

/// A scoped span guard. Dropping it stops the clock and records the span
/// (metrics, slow log, span ring). A disabled span is inert: every method
/// is a no-op and nothing is recorded.
pub struct Span(Option<SpanInner>);

/// Open a span: child of the ambient span when one exists, root otherwise.
pub(crate) fn start(
    telemetry: Arc<Telemetry>,
    tenant: &str,
    service: &'static str,
    operation: String,
    slow_ms: u64,
) -> Span {
    let (trace_id, parent_id, tenant_arc) = STACK.with(|stack| {
        let stack = stack.borrow();
        match stack.last() {
            Some(top) => (top.trace_id, Some(top.span_id), Arc::clone(&top.tenant)),
            None => (telemetry.new_trace_id(), None, Arc::from(tenant)),
        }
    });
    let span_id = telemetry.new_span_id();
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            telemetry: Arc::clone(&telemetry),
            trace_id,
            span_id,
            tenant: Arc::clone(&tenant_arc),
            slow_ms,
        })
    });
    Span(Some(SpanInner {
        telemetry,
        trace_id,
        span_id,
        parent_id,
        tenant: tenant_arc,
        service,
        operation,
        start: Instant::now(),
        rows: 0,
        bytes: 0,
        error: false,
        detail: String::new(),
        slow_ms,
    }))
}

/// Attach a child span to the ambient trace. Inert (and allocation-free)
/// when the thread has no active span — i.e. when telemetry is disabled or
/// the code runs outside the platform gate.
pub fn child_span(service: &'static str, operation: impl Into<String>) -> Span {
    let ambient = STACK.with(|stack| {
        let stack = stack.borrow();
        stack.last().map(|top| {
            (
                Arc::clone(&top.telemetry),
                top.trace_id,
                top.span_id,
                Arc::clone(&top.tenant),
                top.slow_ms,
            )
        })
    });
    let Some((telemetry, trace_id, parent_id, tenant, slow_ms)) = ambient else {
        return Span(None);
    };
    let span_id = telemetry.new_span_id();
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            telemetry: Arc::clone(&telemetry),
            trace_id,
            span_id,
            tenant: Arc::clone(&tenant),
            slow_ms,
        })
    });
    Span(Some(SpanInner {
        telemetry,
        trace_id,
        span_id,
        parent_id: Some(parent_id),
        tenant,
        service,
        operation: operation.into(),
        start: Instant::now(),
        rows: 0,
        bytes: 0,
        error: false,
        detail: String::new(),
        slow_ms,
    }))
}

/// The ambient trace id of the calling thread, if a span is active.
pub fn current_trace_id() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().map(|f| f.trace_id))
}

impl Span {
    /// An inert span (used when telemetry is disabled for the tenant).
    pub fn disabled() -> Self {
        Span(None)
    }

    /// Whether this span actually records anything.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Trace id (None when inert).
    pub fn trace_id(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.trace_id)
    }

    /// Set the rows-touched gauge.
    pub fn set_rows(&mut self, rows: u64) {
        if let Some(i) = &mut self.0 {
            i.rows = rows;
        }
    }

    /// Add to the rows-touched gauge.
    pub fn add_rows(&mut self, rows: u64) {
        if let Some(i) = &mut self.0 {
            i.rows += rows;
        }
    }

    /// Set the bytes-produced gauge.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(i) = &mut self.0 {
            i.bytes = bytes;
        }
    }

    /// Attach operation detail, shown in the span's record and in the slow
    /// log (e.g. the SQL text). The last call wins.
    pub fn set_detail(&mut self, detail: &str) {
        if let Some(i) = &mut self.0 {
            i.detail = detail.to_string();
        }
    }

    /// Mark the traced call as failed.
    pub fn fail(&mut self) {
        if let Some(i) = &mut self.0 {
            i.error = true;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        // pop this span's frame; defensively drain any frames leaked above
        // it (a span dropped out of LIFO order) so the stack cannot grow
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            while let Some(top) = stack.pop() {
                if top.span_id == inner.span_id {
                    break;
                }
            }
        });
        let duration_micros = inner.start.elapsed().as_micros() as u64;
        let rec = SpanRecord {
            trace_id: inner.trace_id,
            span_id: inner.span_id,
            parent_id: inner.parent_id,
            tenant: inner.tenant.to_string(),
            service: inner.service,
            operation: inner.operation,
            duration_micros,
            rows: inner.rows,
            bytes: inner.bytes,
            error: inner.error,
            request_id: ambient_request_id().unwrap_or_default(),
            detail: inner.detail,
        };
        inner.telemetry.record(rec, inner.slow_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_fully_inert() {
        let mut s = Span::disabled();
        assert!(!s.is_recording());
        assert!(s.trace_id().is_none());
        s.set_rows(5);
        s.set_bytes(5);
        s.set_detail("x");
        s.fail();
        drop(s);
        assert!(current_trace_id().is_none());
    }

    #[test]
    fn ambient_trace_id_tracks_the_stack() {
        let t = Arc::new(Telemetry::new());
        assert!(current_trace_id().is_none());
        let root = t.span("acme", "MDS", "op", 0);
        assert_eq!(current_trace_id(), root.trace_id());
        {
            let child = child_span("sql", "execute");
            assert_eq!(child.trace_id(), root.trace_id());
        }
        assert_eq!(current_trace_id(), root.trace_id());
        drop(root);
        assert!(current_trace_id().is_none());
    }

    #[test]
    fn spans_record_the_ambient_request_id() {
        let t = Arc::new(Telemetry::new());
        set_ambient_request_id(Some("req-abc".to_string()));
        {
            let _root = t.span("acme", "MDS", "sql", 0);
            let _child = child_span("sql", "execute");
        }
        set_ambient_request_id(None);
        {
            let _outside = t.span("acme", "MDS", "etl", 0);
        }
        let spans = t.recent_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].request_id, "req-abc"); // child
        assert_eq!(spans[1].request_id, "req-abc"); // root
        assert_eq!(spans[2].request_id, ""); // outside any request
    }

    #[test]
    fn a_record_carries_the_last_detail_set() {
        let t = Arc::new(Telemetry::new());
        {
            let mut root = t.span("acme", "MDS", "dataset.define", 0);
            root.set_detail("sales");
            root.set_detail("sales: view");
            let _child = child_span("olap", "view.build");
        }
        let details: Vec<String> = t.recent_spans().into_iter().map(|s| s.detail).collect();
        assert_eq!(details, ["", "sales: view"]);
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_bounded() {
        let t = Arc::new(Telemetry::new());
        let outer = t.span("acme", "MDS", "outer", 0);
        let inner = t.span("acme", "MDS", "inner", 0);
        // dropping the OUTER guard first drains the inner frame too
        drop(outer);
        assert!(current_trace_id().is_none());
        drop(inner);
        assert_eq!(t.recent_spans().len(), 2);
    }
}
