//! Usage metering: the mechanism that aligns cost with usage.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// The five core BI services plus administration (ODBIS §3.1) — the
/// dimensions along which usage is metered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKind {
    /// Meta-Data Service (MDS).
    Metadata,
    /// Integration Service (IS).
    Integration,
    /// Analysis Service (AS).
    Analysis,
    /// Reporting Service (RS).
    Reporting,
    /// Information Delivery Service (IDS).
    Delivery,
    /// Administration & configuration.
    Admin,
}

impl ServiceKind {
    /// All services, for iteration.
    pub const ALL: [ServiceKind; 6] = [
        ServiceKind::Metadata,
        ServiceKind::Integration,
        ServiceKind::Analysis,
        ServiceKind::Reporting,
        ServiceKind::Delivery,
        ServiceKind::Admin,
    ];

    /// Short service code.
    pub fn code(self) -> &'static str {
        match self {
            ServiceKind::Metadata => "MDS",
            ServiceKind::Integration => "IS",
            ServiceKind::Analysis => "AS",
            ServiceKind::Reporting => "RS",
            ServiceKind::Delivery => "IDS",
            ServiceKind::Admin => "ADM",
        }
    }
}

/// Aggregated usage per (tenant, service).
pub type UsageSummary = BTreeMap<(String, ServiceKind), u64>;

/// Thread-safe usage meter: one counter per (tenant, service), keyed by
/// tenant and then service, so recording borrows the tenant id and
/// allocates nothing after the tenant's first call.
#[derive(Debug, Default)]
pub struct UsageMeter {
    counters: Mutex<BTreeMap<String, BTreeMap<ServiceKind, u64>>>,
}

impl UsageMeter {
    /// Empty meter.
    pub fn new() -> Self {
        UsageMeter::default()
    }

    /// Record usage.
    pub fn record(&self, tenant: &str, service: ServiceKind, units: u64) {
        let mut counters = self.counters.lock();
        let services = match counters.get_mut(tenant) {
            Some(services) => services,
            None => counters.entry(tenant.to_string()).or_default(),
        };
        *services.entry(service).or_insert(0) += units;
    }

    /// Total units for a tenant across all services.
    pub fn tenant_total(&self, tenant: &str) -> u64 {
        self.counters
            .lock()
            .get(tenant)
            .map_or(0, |services| services.values().sum())
    }

    /// Units for one (tenant, service).
    pub fn usage(&self, tenant: &str, service: ServiceKind) -> u64 {
        self.counters
            .lock()
            .get(tenant)
            .and_then(|services| services.get(&service))
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn summary(&self) -> UsageSummary {
        flatten(&self.counters.lock())
    }

    /// Drain the counters (close of a billing period). Returns the final
    /// summary.
    pub fn close_period(&self) -> UsageSummary {
        flatten(&std::mem::take(&mut *self.counters.lock()))
    }
}

fn flatten(counters: &BTreeMap<String, BTreeMap<ServiceKind, u64>>) -> UsageSummary {
    counters
        .iter()
        .flat_map(|(tenant, services)| {
            services
                .iter()
                .map(move |(service, units)| ((tenant.clone(), *service), *units))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_exactly() {
        let m = UsageMeter::new();
        m.record("t1", ServiceKind::Reporting, 3);
        m.record("t1", ServiceKind::Reporting, 4);
        m.record("t1", ServiceKind::Analysis, 10);
        m.record("t2", ServiceKind::Reporting, 100);
        assert_eq!(m.usage("t1", ServiceKind::Reporting), 7);
        assert_eq!(m.tenant_total("t1"), 17);
        assert_eq!(m.tenant_total("t2"), 100);
        assert_eq!(m.tenant_total("ghost"), 0);
        assert_eq!(m.summary().len(), 3);
    }

    #[test]
    fn close_period_resets() {
        let m = UsageMeter::new();
        m.record("t", ServiceKind::Admin, 5);
        let summary = m.close_period();
        assert_eq!(summary[&("t".to_string(), ServiceKind::Admin)], 5);
        assert_eq!(m.tenant_total("t"), 0);
        assert!(m.summary().is_empty());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        use std::sync::Arc;
        let m = Arc::new(UsageMeter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.record("t", ServiceKind::Analysis, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.usage("t", ServiceKind::Analysis), 4000);
    }

    #[test]
    fn service_codes() {
        assert_eq!(ServiceKind::Metadata.code(), "MDS");
        assert_eq!(ServiceKind::ALL.len(), 6);
    }
}
