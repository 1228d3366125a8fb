//! # odbis-platform
//!
//! Umbrella crate for the ODBIS reproduction — re-exports every subsystem
//! so examples and integration tests can depend on one crate.
//!
//! See the workspace `README.md` for the architecture overview, and
//! `DESIGN.md` / `EXPERIMENTS.md` for the paper-reproduction inventory.

pub use odbis;
pub use odbis_admin as admin;
pub use odbis_delivery as delivery;
pub use odbis_etl as etl;
pub use odbis_mddws as mddws;
pub use odbis_metadata as metadata;
pub use odbis_metamodel as metamodel;
pub use odbis_olap as olap;
pub use odbis_orm as orm;
pub use odbis_reporting as reporting;
pub use odbis_rules as rules;
pub use odbis_security as security;
pub use odbis_sql as sql;
pub use odbis_storage as storage;
pub use odbis_tenancy as tenancy;
pub use odbis_web as web;
