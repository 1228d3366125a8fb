//! The pay-as-you-go cost pipeline: price metered units *and* measured
//! resource consumption (CPU time, rows, bytes) into per-tenant cost
//! lines.
//!
//! ODBIS §2 claims the platform "aligns cost with usage". Each tenant's
//! registry entry counts abstract units per service; telemetry
//! measures what those units actually cost in latency, rows and bytes.
//! A [`CostModel`] joins the two sides into [`CostLine`]s — the body of
//! the `GET /api/v1/admin/invoice` response.

use crate::metrics::ServiceTotals;

/// Prices in millicents (1/1000 of a cent) so small workloads still
/// produce non-zero, integer-exact charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Price per metered unit (the currency of the tenants' usage
    /// counters).
    pub millicents_per_unit: u64,
    /// Price per CPU-second of measured service time.
    pub millicents_per_cpu_second: u64,
    /// Price per million rows touched.
    pub millicents_per_million_rows: u64,
    /// Price per mebibyte produced.
    pub millicents_per_mebibyte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            millicents_per_unit: 5,
            millicents_per_cpu_second: 200,
            millicents_per_million_rows: 400,
            millicents_per_mebibyte: 50,
        }
    }
}

/// One line of the pay-as-you-go invoice: a `(tenant, service)` pair with
/// the metered units, the measured resource totals, and the priced cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostLine {
    /// Tenant id.
    pub tenant: String,
    /// Service code (`MDS`, `IS`, `AS`, `RS`, `IDS`, `ADM`).
    pub service: String,
    /// Units from the usage meter.
    pub units: u64,
    /// Service calls measured by telemetry.
    pub requests: u64,
    /// Failed calls.
    pub errors: u64,
    /// Rows touched.
    pub rows: u64,
    /// Bytes produced.
    pub bytes: u64,
    /// Measured service time in microseconds.
    pub cpu_micros: u64,
    /// Priced cost in millicents.
    pub millicents: u64,
}

impl CostModel {
    /// Price one `(tenant, service)` pair. `units` comes from the usage
    /// meter; `totals` from telemetry (zero when one side has no data —
    /// the join is an outer join).
    pub fn line(&self, tenant: &str, service: &str, units: u64, totals: ServiceTotals) -> CostLine {
        let millicents = (units as u128 * self.millicents_per_unit as u128
            + totals.cpu_micros as u128 * self.millicents_per_cpu_second as u128 / 1_000_000
            + totals.rows as u128 * self.millicents_per_million_rows as u128 / 1_000_000
            + totals.bytes as u128 * self.millicents_per_mebibyte as u128 / (1024 * 1024))
            as u64;
        CostLine {
            tenant: tenant.to_string(),
            service: service.to_string(),
            units,
            requests: totals.requests,
            errors: totals.errors,
            rows: totals.rows,
            bytes: totals.bytes,
            cpu_micros: totals.cpu_micros,
            millicents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_combines_units_and_measurements() {
        let model = CostModel::default();
        let totals = ServiceTotals {
            requests: 10,
            errors: 0,
            rows: 2_000_000,
            bytes: 2 * 1024 * 1024,
            cpu_micros: 3_000_000, // 3 CPU-seconds
        };
        let line = model.line("acme", "MDS", 100, totals);
        // 100*5 + 3*200 + 2*400 + 2*50 = 500 + 600 + 800 + 100
        assert_eq!(line.millicents, 2000);
        assert_eq!(line.units, 100);
        assert_eq!(line.requests, 10);
    }

    #[test]
    fn outer_join_sides_price_independently() {
        let model = CostModel::default();
        let meter_only = model.line("t", "ADM", 40, ServiceTotals::default());
        assert_eq!(meter_only.millicents, 200);
        assert_eq!(meter_only.requests, 0);
        let telemetry_only = model.line(
            "t",
            "AS",
            0,
            ServiceTotals {
                cpu_micros: 500_000,
                ..Default::default()
            },
        );
        assert_eq!(telemetry_only.millicents, 100);
    }
}
