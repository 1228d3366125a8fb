//! The administration service: tenant provisioning, usage and performance
//! reporting, and billing runs.

use std::sync::Arc;
use std::time::Duration;

use odbis_security::Role;
use odbis_telemetry::{CostLine, CostModel, Telemetry};
use odbis_tenancy::{
    Invoice, ServiceKind, SubscriptionPlan, TenancyError, TenantRegistry, UsageMeter,
};
use parking_lot::Mutex;

use crate::config::PlatformConfig;

/// A latency sample recorded by the performance monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfSample {
    /// Duration of the operation.
    pub duration: Duration,
}

/// Per-operation latency statistics ("report same information on platform
/// usage and performance", ODBIS §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Operation name.
    pub operation: String,
    /// Sample count.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// 50th percentile.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Maximum.
    pub max: Duration,
}

/// Thread-safe latency recorder.
#[derive(Debug, Default)]
pub struct PerfMonitor {
    samples: Mutex<Vec<(String, Duration)>>,
}

impl PerfMonitor {
    /// Empty monitor.
    pub fn new() -> Self {
        PerfMonitor::default()
    }

    /// Record one operation latency.
    pub fn record(&self, operation: &str, duration: Duration) {
        self.samples.lock().push((operation.to_string(), duration));
    }

    /// Time a closure and record it.
    pub fn time<R>(&self, operation: &str, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let r = f();
        self.record(operation, start.elapsed());
        r
    }

    /// Statistics for one operation (None when no samples exist).
    pub fn report(&self, operation: &str) -> Option<PerfReport> {
        let samples = self.samples.lock();
        let mut durations: Vec<Duration> = samples
            .iter()
            .filter(|(op, _)| op == operation)
            .map(|(_, d)| *d)
            .collect();
        if durations.is_empty() {
            return None;
        }
        durations.sort();
        let count = durations.len();
        let total: Duration = durations.iter().sum();
        let pct = |p: f64| durations[(((count - 1) as f64) * p) as usize];
        Some(PerfReport {
            operation: operation.to_string(),
            count,
            mean: total / count as u32,
            p50: pct(0.50),
            p95: pct(0.95),
            max: *durations.last().expect("non-empty"),
        })
    }

    /// Names of all recorded operations, sorted and deduplicated.
    pub fn operations(&self) -> Vec<String> {
        let mut ops: Vec<String> = self
            .samples
            .lock()
            .iter()
            .map(|(op, _)| op.clone())
            .collect();
        ops.sort();
        ops.dedup();
        ops
    }
}

/// One line of the platform usage report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageLine {
    /// Tenant id.
    pub tenant: String,
    /// Service code (MDS/IS/AS/RS/IDS/ADM).
    pub service: &'static str,
    /// Metered units.
    pub units: u64,
}

/// The administration & configuration service of the ODBIS platform.
pub struct AdminService {
    registry: Arc<TenantRegistry>,
    meter: Arc<UsageMeter>,
    /// Platform configuration store — shared (`Arc`) so cross-cutting
    /// consumers like the web tier's admission-control resolver can read
    /// live limits without holding the whole service.
    pub config: Arc<PlatformConfig>,
    /// Platform performance monitor.
    pub perf: PerfMonitor,
    /// The telemetry spine: spans, histograms, slow log (shared with every
    /// layer through the thread-local trace context).
    pub telemetry: Arc<Telemetry>,
    /// The pay-as-you-go cost model joining meter units with telemetry.
    pub cost_model: CostModel,
}

impl AdminService {
    /// Build over shared tenancy infrastructure.
    pub fn new(registry: Arc<TenantRegistry>, meter: Arc<UsageMeter>) -> Self {
        AdminService {
            registry,
            meter,
            config: Arc::new(PlatformConfig::with_defaults()),
            perf: PerfMonitor::new(),
            telemetry: Arc::new(Telemetry::new()),
            cost_model: CostModel::default(),
        }
    }

    /// Provision a tenant: register it, create its security realm with the
    /// standard role set, and create the tenant's first administrator.
    pub fn provision_tenant(
        &self,
        id: &str,
        display_name: &str,
        plan: SubscriptionPlan,
        admin_user: &str,
        admin_password: &str,
    ) -> Result<(), TenancyError> {
        let realm = self.registry.provision(id, display_name, plan)?;
        let wrap = |e: odbis_security::SecurityError| TenancyError::PlanLimit(e.to_string());
        realm
            .create_role(Role::new("ROLE_USER").grant("PLATFORM_LOGIN"))
            .map_err(wrap)?;
        realm
            .create_role(
                Role::new("ROLE_ANALYST")
                    .grant("REPORT_VIEW")
                    .grant("CUBE_QUERY")
                    .grant("DATASET_RUN")
                    .inherits("ROLE_USER"),
            )
            .map_err(wrap)?;
        realm
            .create_role(
                Role::new("ROLE_DESIGNER")
                    .grant("ETL_DESIGN")
                    .grant("CUBE_DESIGN")
                    .grant("REPORT_DESIGN")
                    .inherits("ROLE_ANALYST"),
            )
            .map_err(wrap)?;
        realm
            .create_role(
                Role::new("ROLE_TENANT_ADMIN")
                    .grant("ADMIN_USERS")
                    .grant("ADMIN_CONFIG")
                    .inherits("ROLE_DESIGNER"),
            )
            .map_err(wrap)?;
        realm
            .create_user(admin_user, admin_password)
            .map_err(wrap)?;
        realm
            .assign_role(admin_user, "ROLE_TENANT_ADMIN")
            .map_err(wrap)?;
        Ok(())
    }

    /// The usage report: one line per (tenant, service) with usage, sorted.
    pub fn usage_report(&self) -> Vec<UsageLine> {
        self.meter
            .summary()
            .into_iter()
            .map(|((tenant, service), units)| UsageLine {
                tenant,
                service: service.code(),
                units,
            })
            .collect()
    }

    /// Run billing for the period: one invoice per tenant from the metered
    /// usage, then reset the meters.
    pub fn billing_run(&self) -> Vec<Invoice> {
        let mut invoices = Vec::new();
        for id in self.registry.tenant_ids() {
            let Ok(tenant) = self.registry.get(&id) else {
                continue;
            };
            let units = self.meter.tenant_total(&id);
            invoices.push(Invoice::compute(&id, &tenant.plan, units));
        }
        self.meter.close_period();
        invoices
    }

    /// The pay-as-you-go invoice: an outer join of metered units
    /// (`UsageMeter`) with measured resource consumption (telemetry
    /// requests, rows, bytes, CPU time) per `(tenant, service)`, priced by
    /// the cost model. Non-destructive — neither the meter nor the
    /// telemetry registry is reset (that stays `billing_run`'s job).
    pub fn invoice_report(&self) -> Vec<CostLine> {
        let usage = self.meter.summary();
        let mut totals = self.telemetry.totals();
        let mut lines = Vec::new();
        for ((tenant, service), units) in usage {
            let code = service.code();
            let t = totals
                .remove(&(tenant.clone(), code.to_string()))
                .unwrap_or_default();
            lines.push(self.cost_model.line(&tenant, code, units, t));
        }
        // telemetry-only pairs (e.g. calls that failed before metering).
        // Child spans carry layer labels (`sql`, `olap`, ...) whose time is
        // already inside the gate-level root spans — only gate service
        // codes become invoice lines.
        for ((tenant, service), t) in totals {
            if ServiceKind::ALL.iter().any(|k| k.code() == service) {
                lines.push(self.cost_model.line(&tenant, &service, 0, t));
            }
        }
        lines.sort_by(|a, b| (&a.tenant, &a.service).cmp(&(&b.tenant, &b.service)));
        lines
    }

    /// Record usage on behalf of a service (the platform layer calls this
    /// on every service invocation).
    pub fn meter_usage(&self, tenant: &str, service: ServiceKind, units: u64) {
        self.meter.record(tenant, service, units);
    }

    /// Shared registry handle.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Shared meter handle.
    pub fn meter(&self) -> &Arc<UsageMeter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admin() -> AdminService {
        AdminService::new(Arc::new(TenantRegistry::new()), Arc::new(UsageMeter::new()))
    }

    #[test]
    fn provisioning_creates_realm_with_roles_and_admin() {
        let a = admin();
        a.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let realm = a.registry().realm("acme").unwrap();
        let session = realm.login("root", "pw").unwrap();
        assert_eq!(realm.authenticate(&session.token).unwrap(), "root");
        // the tenant admin transitively holds every standard authority
        for auth in ["PLATFORM_LOGIN", "REPORT_VIEW", "ETL_DESIGN", "ADMIN_USERS"] {
            assert!(realm.has_authority("root", auth), "missing {auth}");
        }
        assert!(matches!(
            a.provision_tenant("acme", "again", SubscriptionPlan::free(), "x", "y"),
            Err(TenancyError::AlreadyExists(_))
        ));
    }

    #[test]
    fn usage_report_and_billing_run() {
        let a = admin();
        a.provision_tenant("t1", "T1", SubscriptionPlan::standard(), "a", "p")
            .unwrap();
        a.provision_tenant("t2", "T2", SubscriptionPlan::free(), "a", "p")
            .unwrap();
        a.meter_usage("t1", ServiceKind::Reporting, 150_000);
        a.meter_usage("t1", ServiceKind::Analysis, 10);
        a.meter_usage("t2", ServiceKind::Reporting, 5);
        let report = a.usage_report();
        assert_eq!(report.len(), 3);
        assert!(report
            .iter()
            .any(|l| l.tenant == "t1" && l.service == "RS" && l.units == 150_000));
        let invoices = a.billing_run();
        assert_eq!(invoices.len(), 2);
        let t1 = invoices.iter().find(|i| i.tenant == "t1").unwrap();
        assert_eq!(t1.units, 150_010);
        assert!(t1.overage_cents > 0);
        let t2 = invoices.iter().find(|i| i.tenant == "t2").unwrap();
        assert_eq!(t2.total_cents, 0);
        // meters reset after the run
        assert!(a.usage_report().is_empty());
    }

    #[test]
    fn invoice_report_joins_meter_and_telemetry() {
        let a = admin();
        a.provision_tenant("t1", "T1", SubscriptionPlan::standard(), "u", "p")
            .unwrap();
        a.meter_usage("t1", ServiceKind::Metadata, 100);
        {
            let mut span = a.telemetry.span("t1", "MDS", "sql", 0);
            span.set_rows(50);
            // a child span must NOT produce its own invoice line
            let _child = odbis_telemetry::child_span("sql", "execute");
        }
        // telemetry-only service for another tenant
        drop(a.telemetry.span("t2", "AS", "mdx", 0));
        let lines = a.invoice_report();
        assert_eq!(lines.len(), 2);
        let t1 = &lines[0];
        assert_eq!((t1.tenant.as_str(), t1.service.as_str()), ("t1", "MDS"));
        assert_eq!(t1.units, 100);
        assert_eq!(t1.requests, 1);
        assert_eq!(t1.rows, 50);
        assert!(t1.millicents >= 100 * a.cost_model.millicents_per_unit);
        let t2 = &lines[1];
        assert_eq!((t2.tenant.as_str(), t2.service.as_str()), ("t2", "AS"));
        assert_eq!(t2.units, 0);
        assert_eq!(t2.requests, 1);
        // the meter is untouched by the report
        assert_eq!(a.meter().usage("t1", ServiceKind::Metadata), 100);
    }

    #[test]
    fn perf_monitor_percentiles() {
        let m = PerfMonitor::new();
        for ms in 1..=100u64 {
            m.record("query", Duration::from_millis(ms));
        }
        m.record("other", Duration::from_millis(5));
        let r = m.report("query").unwrap();
        assert_eq!(r.count, 100);
        assert_eq!(r.p50, Duration::from_millis(50));
        assert_eq!(r.p95, Duration::from_millis(95));
        assert_eq!(r.max, Duration::from_millis(100));
        assert!(m.report("missing").is_none());
        assert_eq!(
            m.operations(),
            vec!["other".to_string(), "query".to_string()]
        );
        let out = m.time("timed", || 40 + 2);
        assert_eq!(out, 42);
        assert_eq!(m.report("timed").unwrap().count, 1);
    }
}
