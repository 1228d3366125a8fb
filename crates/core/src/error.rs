//! The platform error type: one façade over every subsystem's errors.

use std::fmt;

/// Errors surfaced by the platform façade.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// Tenant unknown, suspended or over a plan limit.
    Tenancy(String),
    /// Authentication/authorization failure.
    Security(String),
    /// Meta-data service failure.
    Metadata(String),
    /// SQL failure.
    Sql(String),
    /// Integration-service failure.
    Etl(String),
    /// Analysis-service failure.
    Olap(String),
    /// Reporting failure.
    Reporting(String),
    /// MDDWS failure.
    Mddws(String),
    /// Storage-engine/durability failure (WAL, snapshot, recovery).
    Storage(String),
    /// A named resource (data set, data source, report...) does not exist.
    NotFound(String),
    /// A transient infrastructure failure (I/O error, wedged store): the
    /// request may succeed if retried — HTTP maps this to 503 + Retry-After.
    Unavailable(String),
    /// The tenant's workspace lives on another node — a migration cutover
    /// flipped ownership after this request was routed here. The same
    /// request succeeds against the owner; HTTP maps this to a 307
    /// redirect at the owner's address.
    Moved {
        /// Owning node's id.
        node_id: String,
        /// Owning node's HTTP address (`host:port`).
        addr: String,
        /// Human-readable description (the error-envelope message).
        msg: String,
    },
    /// Anything else.
    Internal(String),
}

impl PlatformError {
    /// Machine-readable error kind (the `error.kind` field of the HTTP
    /// error envelope).
    pub fn kind(&self) -> &'static str {
        match self {
            PlatformError::Tenancy(_) => "tenancy",
            PlatformError::Security(_) => "security",
            PlatformError::Metadata(_) => "metadata",
            PlatformError::Sql(_) => "sql",
            PlatformError::Etl(_) => "etl",
            PlatformError::Olap(_) => "olap",
            PlatformError::Reporting(_) => "reporting",
            PlatformError::Mddws(_) => "mddws",
            PlatformError::Storage(_) => "storage",
            PlatformError::NotFound(_) => "not_found",
            PlatformError::Unavailable(_) => "unavailable",
            PlatformError::Moved { .. } => "moved",
            PlatformError::Internal(_) => "internal",
        }
    }

    /// The error's message, without the kind prefix.
    pub fn message(&self) -> &str {
        match self {
            PlatformError::Tenancy(m)
            | PlatformError::Security(m)
            | PlatformError::Metadata(m)
            | PlatformError::Sql(m)
            | PlatformError::Etl(m)
            | PlatformError::Olap(m)
            | PlatformError::Reporting(m)
            | PlatformError::Mddws(m)
            | PlatformError::Storage(m)
            | PlatformError::NotFound(m)
            | PlatformError::Unavailable(m)
            | PlatformError::Internal(m) => m,
            PlatformError::Moved { msg, .. } => msg,
        }
    }

    /// The HTTP status the platform API maps this error to: missing
    /// resources are 404, authn/authz failures are 403, plan/quota and
    /// tenant-state violations are 402 (payment required), transient
    /// infrastructure failures are 503 (retryable), a tenant that just
    /// migrated away is a 307 (redirect to the owner), everything else
    /// is a 400.
    pub fn http_status(&self) -> u16 {
        match self {
            PlatformError::NotFound(_) => 404,
            PlatformError::Security(_) => 403,
            PlatformError::Tenancy(_) => 402,
            PlatformError::Unavailable(_) => 503,
            PlatformError::Moved { .. } => 307,
            PlatformError::Storage(_) | PlatformError::Internal(_) => 500,
            _ => 400,
        }
    }

    /// Whether a client retry of the same request may succeed (the 503
    /// classification — drives the `Retry-After` response header).
    pub fn is_retryable(&self) -> bool {
        matches!(self, PlatformError::Unavailable(_))
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            PlatformError::NotFound(_) => "not found",
            other => other.kind(),
        };
        write!(f, "{kind} error: {}", self.message())
    }
}

impl std::error::Error for PlatformError {}

impl From<odbis_tenancy::TenancyError> for PlatformError {
    fn from(e: odbis_tenancy::TenancyError) -> Self {
        PlatformError::Tenancy(e.to_string())
    }
}

impl From<odbis_security::SecurityError> for PlatformError {
    fn from(e: odbis_security::SecurityError) -> Self {
        PlatformError::Security(e.to_string())
    }
}

impl From<odbis_metadata::MetadataError> for PlatformError {
    fn from(e: odbis_metadata::MetadataError) -> Self {
        match e {
            odbis_metadata::MetadataError::NotFound(what) => PlatformError::NotFound(what),
            other => PlatformError::Metadata(other.to_string()),
        }
    }
}

impl From<odbis_sql::SqlError> for PlatformError {
    fn from(e: odbis_sql::SqlError) -> Self {
        // an I/O failure underneath a query is the store wedging, not the
        // query being wrong: classify it transient so clients back off
        if let odbis_sql::SqlError::Storage(odbis_storage::DbError::Io(m)) = &e {
            return PlatformError::Unavailable(m.clone());
        }
        PlatformError::Sql(e.to_string())
    }
}

impl From<odbis_etl::EtlError> for PlatformError {
    fn from(e: odbis_etl::EtlError) -> Self {
        PlatformError::Etl(e.to_string())
    }
}

impl From<odbis_olap::OlapError> for PlatformError {
    fn from(e: odbis_olap::OlapError) -> Self {
        PlatformError::Olap(e.to_string())
    }
}

impl From<odbis_reporting::ReportError> for PlatformError {
    fn from(e: odbis_reporting::ReportError) -> Self {
        PlatformError::Reporting(e.to_string())
    }
}

impl From<odbis_mddws::MddwsError> for PlatformError {
    fn from(e: odbis_mddws::MddwsError) -> Self {
        PlatformError::Mddws(e.to_string())
    }
}

impl From<odbis_storage::DbError> for PlatformError {
    fn from(e: odbis_storage::DbError) -> Self {
        match e {
            // I/O errors (disk full, fsync failure, injected faults) are
            // transient: the tenant's store may recover; 503 + Retry-After
            odbis_storage::DbError::Io(m) => PlatformError::Unavailable(m),
            other => PlatformError::Storage(other.to_string()),
        }
    }
}

/// Result alias for platform operations.
pub type PlatformResult<T> = Result<T, PlatformError>;
