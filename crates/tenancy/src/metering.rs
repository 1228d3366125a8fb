//! Usage metering: the mechanism that aligns cost with usage.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// One tenant's usage counters: units per service, and which services it
/// called, so a call metered at 0 units still gets its usage line. They
/// live on the tenant's registry entry, so recording is an atomic add and
/// there is no node-wide meter to lock.
#[derive(Debug, Default)]
pub struct Usage {
    units: [AtomicU64; ServiceKind::ALL.len()],
    called: AtomicU64,
}

impl Usage {
    /// Meter `units` of `service`.
    pub fn record(&self, service: ServiceKind, units: u64) {
        let bit = 1 << service as u64;
        self.units[service as usize].fetch_add(units, Ordering::Relaxed);
        if self.called.load(Ordering::Relaxed) & bit == 0 {
            self.called.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Units metered for `service` in the open billing period.
    pub fn get(&self, service: ServiceKind) -> u64 {
        self.units[service as usize].load(Ordering::Relaxed)
    }

    /// The open period: one `(service, units)` per service called, 0 units
    /// included, in service order.
    pub fn lines(&self) -> Vec<(ServiceKind, u64)> {
        self.read(|a| a.load(Ordering::Relaxed))
    }

    /// Close the billing period: its lines, with every counter swapped to
    /// zero as it is read, so each unit lands in exactly one period.
    pub fn close_period(&self) -> Vec<(ServiceKind, u64)> {
        self.read(|a| a.swap(0, Ordering::Relaxed))
    }

    fn read(&self, read: impl Fn(&AtomicU64) -> u64) -> Vec<(ServiceKind, u64)> {
        let called = read(&self.called);
        let called = |service: ServiceKind| called & 1 << service as u64 != 0;
        (ServiceKind::ALL.into_iter())
            .map(|service| (service, read(&self.units[service as usize])))
            .filter(|&(service, units)| called(service) || units > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_codes() {
        assert_eq!(ServiceKind::Metadata.code(), "MDS");
        assert_eq!(ServiceKind::ALL.len(), 6);
        // `Usage` indexes its counters by declaration order
        for (i, service) in ServiceKind::ALL.into_iter().enumerate() {
            assert_eq!(service as usize, i);
        }
    }
}
