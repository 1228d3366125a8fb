//! The administration service: tenant provisioning, usage and performance
//! reporting, and billing runs.

use std::sync::Arc;

use odbis_security::Role;
use odbis_telemetry::{CostLine, CostModel, Telemetry};
use odbis_tenancy::{Invoice, ServiceKind, SubscriptionPlan, TenancyError, Tenant, TenantRegistry};

use crate::config::PlatformConfig;

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

impl UsageLine {
    /// A tenant's lines of the open period, one per service it called.
    pub fn of(tenant: &Tenant) -> impl Iterator<Item = UsageLine> + '_ {
        (tenant.usage.lines().into_iter()).map(|(service, units)| UsageLine {
            tenant: tenant.id.clone(),
            service: service.code(),
            units,
        })
    }
}

/// The administration & configuration service of the ODBIS platform.
pub struct AdminService {
    registry: Arc<TenantRegistry>,
    /// Platform configuration store — shared (`Arc`) so cross-cutting
    /// consumers like the web tier's admission-control resolver can read
    /// live limits without holding the whole service.
    pub config: Arc<PlatformConfig>,
    /// The telemetry spine: spans, histograms, slow log (shared with every
    /// layer through the thread-local trace context).
    pub telemetry: Arc<Telemetry>,
    /// The pay-as-you-go cost model joining metered units with telemetry.
    pub cost_model: CostModel,
}

impl AdminService {
    /// Build over shared tenancy infrastructure.
    pub fn new(registry: Arc<TenantRegistry>) -> Self {
        AdminService {
            registry,
            config: Arc::new(PlatformConfig::with_defaults()),
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
        let tenant = self.registry.provision(id, display_name, plan)?;
        let realm = &tenant.realm;
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

    /// The usage report: one line per (tenant, service) the tenant called
    /// this period, sorted.
    pub fn usage_report(&self) -> Vec<UsageLine> {
        let tenants = self.registry.tenants();
        tenants.iter().flat_map(|t| UsageLine::of(t)).collect()
    }

    /// Run billing for the period: one invoice per tenant from its metered
    /// usage, closing each tenant's period as it is read.
    pub fn billing_run(&self) -> Vec<Invoice> {
        let tenants = self.registry.tenants();
        (tenants.iter())
            .map(|t| {
                let units = t.usage.close_period().iter().map(|(_, units)| units).sum();
                Invoice::compute(&t.id, &t.plan(), units)
            })
            .collect()
    }

    /// The pay-as-you-go invoice: an outer join of metered units (the
    /// registry's usage counters) with measured resource consumption
    /// (telemetry requests, rows, bytes, CPU time) per `(tenant, service)`,
    /// priced by the cost model. Non-destructive — neither the counters
    /// nor the telemetry registry is reset (that stays `billing_run`'s
    /// job).
    pub fn invoice_report(&self) -> Vec<CostLine> {
        let mut totals = self.telemetry.totals();
        let mut lines = Vec::new();
        for usage in self.usage_report() {
            let t = totals
                .remove(&(usage.tenant.clone(), usage.service.to_string()))
                .unwrap_or_default();
            lines.push(
                self.cost_model
                    .line(&usage.tenant, usage.service, usage.units, t),
            );
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

    /// Record usage on behalf of a service, on the tenant's registry
    /// entry. A tenant no one provisioned has none, and is not metered.
    pub fn meter_usage(&self, tenant: &str, service: ServiceKind, units: u64) {
        if let Ok(t) = self.registry.get(tenant) {
            t.usage.record(service, units);
        }
    }

    /// Shared registry handle.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admin() -> AdminService {
        AdminService::new(Arc::new(TenantRegistry::new()))
    }

    #[test]
    fn provisioning_creates_realm_with_roles_and_admin() {
        let a = admin();
        a.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let acme = a.registry().get("acme").unwrap();
        let realm = &acme.realm;
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
        // counters reset after the run
        assert!(a.usage_report().is_empty());
        // a tenant no one provisioned is not metered
        a.meter_usage("ghost", ServiceKind::Reporting, 5);
        assert!(a.usage_report().is_empty());
        assert_eq!(a.registry().len(), 2);
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
        // the counters are untouched by the report
        let t1 = a.registry().get("t1").unwrap();
        assert_eq!(t1.usage.get(ServiceKind::Metadata), 100);
    }
}
