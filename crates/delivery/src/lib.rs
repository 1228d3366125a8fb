//! # odbis-delivery
//!
//! The Information Delivery Service (IDS) — the fifth ODBIS core BI
//! service: "an abstraction level to support many client interfaces and
//! technologies (e.g., web browser, mobile, office tools). It can be also
//! presented as a web services for more flexibility" (§3.1).
//!
//! Payloads format per [`Channel`] (HTML, JSON, compact mobile JSON, CSV,
//! text e-mail digests) and land in a bounded outbox that each recipient
//! reads by cursor; users subscribe to reports and
//! [`DeliveryService::burst`] fans a report out to every subscriber on
//! their own channel.

#![warn(missing_docs)]

mod format;
mod service;

pub use format::{format_for, Channel, Delivered, ReportPayload, MOBILE_ROW_CAP};
pub use service::{DeliveryService, OutboxEntry, OutboxRead, Subscription, OUTBOX_CAPACITY};
