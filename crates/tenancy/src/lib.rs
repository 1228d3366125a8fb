//! # odbis-tenancy
//!
//! The SaaS kernel of the ODBIS platform: the multi-tenant architecture,
//! on-demand/pay-as-you-go model and economies-of-scale machinery the
//! paper's §2 describes.
//!
//! * [`TenantRegistry`] — one [`Tenant`] entry per tenant: lifecycle,
//!   plan, security realm, migration fence and per-service usage
//!   counters;
//! * [`SubscriptionPlan`] / [`Invoice`] — pay-as-you-go pricing: "costs are
//!   directly aligned with usage";
//! * [`SharedSchema`] vs [`DedicatedInstances`] — "one database is used to
//!   store all customers data" vs the traditional per-customer deployment,
//!   so the economies-of-scale claim (experiment C1) is measurable.
//!
//! ```
//! use odbis_tenancy::{Invoice, ServiceKind, SubscriptionPlan, TenantRegistry};
//!
//! let registry = TenantRegistry::new();
//! registry.provision("acme", "Acme Corp", SubscriptionPlan::standard()).unwrap();
//! let tenant = registry.get("acme").unwrap();
//! tenant.usage.record(ServiceKind::Reporting, 120_000);
//! let units = tenant.usage.close_period().iter().map(|(_, units)| units).sum();
//! let invoice = Invoice::compute("acme", &tenant.plan(), units);
//! assert!(invoice.total_cents > tenant.plan().monthly_fee_cents); // overage billed
//! ```

#![warn(missing_docs)]

mod isolation;
mod metering;
mod plan;
mod registry;

pub use isolation::{scope_select, DedicatedInstances, SharedSchema, TENANT_COLUMN};
pub use metering::{ServiceKind, Usage};
pub use plan::{Invoice, SubscriptionPlan};
pub use registry::{TenancyError, TenancyResult, Tenant, TenantRegistry, TenantStatus};
