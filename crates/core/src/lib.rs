//! # odbis
//!
//! The ODBIS platform façade — the five-layer SaaS architecture of the
//! paper's Figure 1, wired end to end:
//!
//! 1. **technical resources**: the embedded storage engine and SQL engine
//!    ([`odbis_storage`], [`odbis_sql`]), the ESB ([`odbis_esb`]) and the
//!    rules engine ([`odbis_rules`]);
//! 2. **DW design & management**: MDDWS projects ([`odbis_mddws`]) living
//!    inside each tenant workspace;
//! 3. **administration & configuration**: [`OdbisPlatform::admin`]
//!    ([`odbis_admin`]) over the SaaS kernel ([`odbis_tenancy`],
//!    [`odbis_security`]). Each count is kept once, by the component doing
//!    the work: the gate meters units into the usage meter and records
//!    spans into the telemetry spine, and the WAL counts its own appends
//!    and bytes, which `/api/v1/metrics` reads at scrape time
//!    ([`OdbisPlatform::wal_stats`]);
//! 4. **core BI services**: MDS, IS, AS, RS and IDS per tenant
//!    ([`TenantWorkspace`]);
//! 5. **end-user access**: the HTTP API ([`build_router`]) served by
//!    [`odbis_web`].
//!
//! ```
//! use odbis::OdbisPlatform;
//! use odbis_tenancy::SubscriptionPlan;
//!
//! let platform = OdbisPlatform::new();
//! platform.provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw").unwrap();
//! let token = platform.login("acme", "root", "pw").unwrap();
//! platform.sql("acme", &token, "CREATE TABLE t (x INT)").unwrap();
//! let r = platform.sql("acme", &token, "SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(r.rows[0][0], odbis_storage::Value::Int(0));
//! ```

#![warn(missing_docs)]

mod cluster;
mod error;
mod platform;
mod watch;
mod web_api;

pub use cluster::{Cluster, ClusterMap, ClusterNode, ClusterRoute, MigrationReport};
pub use error::{PlatformError, PlatformResult};
pub use platform::{OdbisPlatform, TenantWorkspace};
pub use watch::{WatchHub, WatchOutcome};
pub use web_api::{
    build_router, serve_platform, API_PREFIX, DEFAULT_PAGE_LIMIT, MAX_PAGE_LIMIT,
    MAX_WATCH_TIMEOUT_MS,
};
