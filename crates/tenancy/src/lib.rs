//! # odbis-tenancy
//!
//! The SaaS kernel of the ODBIS platform: the multi-tenant architecture,
//! on-demand/pay-as-you-go model and economies-of-scale machinery the
//! paper's §2 describes.
//!
//! * [`TenantRegistry`] — tenant lifecycle, per-tenant security realms,
//!   plan limits;
//! * [`SubscriptionPlan`] / [`Invoice`] — pay-as-you-go pricing: "costs are
//!   directly aligned with usage";
//! * [`UsageMeter`] — per-(tenant, service) usage counters;
//! * [`SharedSchema`] vs [`DedicatedInstances`] — "one database is used to
//!   store all customers data" vs the traditional per-customer deployment,
//!   so the economies-of-scale claim (experiment C1) is measurable.
//!
//! ```
//! use odbis_tenancy::{ServiceKind, SubscriptionPlan, TenantRegistry, UsageMeter, Invoice};
//!
//! let registry = TenantRegistry::new();
//! registry.provision("acme", "Acme Corp", SubscriptionPlan::standard()).unwrap();
//! let meter = UsageMeter::new();
//! meter.record("acme", ServiceKind::Reporting, 120_000);
//! let tenant = registry.get("acme").unwrap();
//! let invoice = Invoice::compute("acme", &tenant.plan, meter.tenant_total("acme"));
//! assert!(invoice.total_cents > tenant.plan.monthly_fee_cents); // overage billed
//! ```

#![warn(missing_docs)]

mod isolation;
mod metering;
mod plan;
mod registry;

pub use isolation::{scope_select, DedicatedInstances, SharedSchema, TENANT_COLUMN};
pub use metering::{ServiceKind, UsageMeter, UsageSummary};
pub use plan::{Invoice, SubscriptionPlan};
pub use registry::{TenancyError, TenancyResult, Tenant, TenantRegistry, TenantStatus};
