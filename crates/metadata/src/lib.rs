//! # odbis-metadata
//!
//! The Meta-Data Service (MDS) — the first of the five core business
//! intelligence services in the ODBIS architecture (§3.1): it "allows
//! meta-data and business information definition to facilitate information
//! sharing and exchange between all services".
//!
//! * [`DataSource`] — connection descriptors resolved to live database
//!   handles;
//! * [`DataSet`] — named SQL query abstractions reused by the integration,
//!   analysis and reporting services (experiment C3);
//! * [`Glossary`] — business terms stored as CWM `Term` instances, mapped
//!   onto technical metadata and exchangeable via XMI;
//! * lineage extraction and cross-metadata search.

#![warn(missing_docs)]

mod glossary;
mod service;

pub use glossary::Glossary;
pub use service::{
    DataSet, DataSource, DatasetViews, MetadataError, MetadataResult, MetadataService,
};
