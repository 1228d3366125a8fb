//! # odbis-admin
//!
//! The infrastructure administration and configuration layer of ODBIS
//! (§3.1): "a web-based tool for administrators to manage users accounts,
//! to customize services configuration and to report same information on
//! platform usage and performance."
//!
//! * [`AdminService`] — tenant provisioning with the standard role
//!   hierarchy, usage reporting, billing runs;
//! * [`PlatformConfig`] — declared-key configuration with platform and
//!   per-tenant overrides (the paper's personalization claim);
//! * [`DurabilityStatus`] / [`CheckpointOutcome`] — the WAL status and
//!   checkpoint reports the platform answers for durable tenant stores.

#![warn(missing_docs)]

mod config;
mod durability;
mod service;

pub use config::{ConfigError, ConfigValue, PlatformConfig};
pub use durability::{CheckpointOutcome, DurabilityStatus};
pub use service::{AdminService, UsageLine};
