//! # odbis-etl
//!
//! The Integration Service (IS) — the ODBIS core BI service that "offers
//! an ad-hoc way to define data integration jobs, jobs scheduling, etc."
//! (§3.1), and the executable counterpart of the CWM Transformation
//! package's EXTRACT/FILTER/MAP/AGGREGATE/LOOKUP/DEDUPLICATE/LOAD steps.
//!
//! * [`Frame`] — the record batch flowing between operators, with CSV
//!   ingestion and type inference;
//! * [`Transform`] — declarative operators (filters and derivations are
//!   real SQL expressions, an aggregate is the SQL engine's GROUP BY);
//! * [`EtlJob`] / [`JobRunner`] — extract → transform → load with bad-row
//!   quarantine. A run compiles its whole transform chain once against the
//!   extracted header; a run of row-local operators streams row by row
//!   (the fused pipeline that won ablation A4), while a deduplicate or an
//!   aggregate takes the whole frame;
//! * [`JobScheduler`] — deterministic logical-clock scheduling.

#![warn(missing_docs)]

mod frame;
mod job;
mod schedule;
mod transform;

pub use frame::{infer_value, parse_csv, to_csv, Frame};
pub use job::{EtlJob, Extractor, JobReport, JobRunner, LoadMode, Loader};
pub use odbis_sql::ast::AggFunc;
pub use schedule::{JobScheduler, RunRecord, Schedule};
pub use transform::{compile_expression, Transform};

/// Errors raised by the integration service.
#[derive(Debug, Clone, PartialEq)]
pub enum EtlError {
    /// Frame shape problem (arity mismatch, empty CSV...).
    Shape(String),
    /// Unknown column referenced by a transform.
    UnknownColumn(String),
    /// A SQL expression failed to compile or evaluate.
    Expression(String),
    /// Storage-level failure.
    Storage(String),
}

impl std::fmt::Display for EtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtlError::Shape(m) => write!(f, "shape error: {m}"),
            EtlError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            EtlError::Expression(m) => write!(f, "expression error: {m}"),
            EtlError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for EtlError {}
