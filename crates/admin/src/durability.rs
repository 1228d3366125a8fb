//! Durability administration: checkpoint control and WAL status reporting.
//!
//! The admin layer sits below the platform (the platform depends on it),
//! so it cannot reach tenant workspaces directly. Instead the platform
//! registers a [`DurabilityHook`] at construction; the admin service (and
//! the HTTP surface above it) talk to durable stores through the
//! [`DurabilityRegistry`] without knowing how tenants are laid out.

use std::sync::Arc;

use parking_lot::RwLock;

/// Point-in-time durability state of one tenant's warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Tenant id.
    pub tenant: String,
    /// Effective fsync policy (`"always"` / `"never"`).
    pub fsync: String,
    /// WAL records appended since the log was opened.
    pub wal_appends: u64,
    /// WAL bytes appended since the log was opened.
    pub wal_bytes: u64,
    /// Current WAL file length in bytes.
    pub wal_file_len: u64,
    /// LSN the next append will receive.
    pub next_lsn: u64,
}

/// Result of one administrative checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// Tenant id.
    pub tenant: String,
    /// Tables captured in the checkpoint cut.
    pub tables: usize,
    /// Tables actually re-encoded to disk (fewer than `tables` when an
    /// incremental segment checkpoint skipped clean tables).
    pub tables_flushed: usize,
    /// WAL bytes folded into the checkpoint and discarded.
    pub wal_bytes_folded: u64,
    /// Checkpoint wall time in microseconds.
    pub micros: u64,
}

/// Durability administration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// No hook registered: the platform is running without durable storage.
    Unavailable,
    /// The tenant has no durable store.
    UnknownTenant(String),
    /// The underlying storage operation failed.
    Storage(String),
    /// A transient storage failure that exhausted its retry budget — the
    /// caller may retry the whole operation later (HTTP maps this to 503).
    Retryable(String),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Unavailable => write!(f, "durability is not enabled"),
            DurabilityError::UnknownTenant(t) => write!(f, "tenant {t} has no durable store"),
            DurabilityError::Storage(e) => write!(f, "storage failure: {e}"),
            DurabilityError::Retryable(e) => write!(f, "transient storage failure: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// Implemented by the platform layer over its tenant workspaces.
pub trait DurabilityHook: Send + Sync {
    /// Tenants with durable stores, sorted.
    fn tenants(&self) -> Vec<String>;
    /// Durability state of one tenant.
    fn status(&self, tenant: &str) -> Result<DurabilityStatus, DurabilityError>;
    /// Checkpoint one tenant's warehouse (fold the WAL into its segments).
    fn checkpoint(&self, tenant: &str) -> Result<CheckpointOutcome, DurabilityError>;
}

/// Registry the admin service exposes; empty until the platform registers
/// its hook.
#[derive(Default)]
pub struct DurabilityRegistry {
    hook: RwLock<Option<Arc<dyn DurabilityHook>>>,
}

impl DurabilityRegistry {
    /// Empty registry (durability reported unavailable).
    pub fn new() -> Self {
        DurabilityRegistry::default()
    }

    /// Install the platform's hook (replacing any previous one).
    pub fn register(&self, hook: Arc<dyn DurabilityHook>) {
        *self.hook.write() = Some(hook);
    }

    /// Whether a hook is registered.
    pub fn is_available(&self) -> bool {
        self.hook.read().is_some()
    }

    fn hook(&self) -> Result<Arc<dyn DurabilityHook>, DurabilityError> {
        self.hook.read().clone().ok_or(DurabilityError::Unavailable)
    }

    /// Durability state of one tenant.
    pub fn status(&self, tenant: &str) -> Result<DurabilityStatus, DurabilityError> {
        self.hook()?.status(tenant)
    }

    /// Durability state of every durable tenant, sorted by tenant id.
    pub fn status_all(&self) -> Result<Vec<DurabilityStatus>, DurabilityError> {
        let hook = self.hook()?;
        let mut all = Vec::new();
        for t in hook.tenants() {
            all.push(hook.status(&t)?);
        }
        all.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        Ok(all)
    }

    /// Checkpoint one tenant's warehouse.
    pub fn checkpoint(&self, tenant: &str) -> Result<CheckpointOutcome, DurabilityError> {
        self.hook()?.checkpoint(tenant)
    }

    /// Checkpoint every durable tenant, returning per-tenant outcomes in
    /// tenant order. Individual failures don't abort the sweep.
    pub fn checkpoint_all(
        &self,
    ) -> Result<Vec<Result<CheckpointOutcome, DurabilityError>>, DurabilityError> {
        let hook = self.hook()?;
        let mut tenants = hook.tenants();
        tenants.sort();
        Ok(tenants.iter().map(|t| hook.checkpoint(t)).collect())
    }
}

impl std::fmt::Debug for DurabilityRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityRegistry")
            .field("registered", &self.is_available())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeHook;

    impl DurabilityHook for FakeHook {
        fn tenants(&self) -> Vec<String> {
            vec!["beta".into(), "acme".into()]
        }
        fn status(&self, tenant: &str) -> Result<DurabilityStatus, DurabilityError> {
            if tenant == "ghost" {
                return Err(DurabilityError::UnknownTenant(tenant.into()));
            }
            Ok(DurabilityStatus {
                tenant: tenant.to_string(),
                fsync: "never".into(),
                wal_appends: 3,
                wal_bytes: 120,
                wal_file_len: 120,
                next_lsn: 4,
            })
        }
        fn checkpoint(&self, tenant: &str) -> Result<CheckpointOutcome, DurabilityError> {
            Ok(CheckpointOutcome {
                tenant: tenant.to_string(),
                tables: 2,
                tables_flushed: 1,
                wal_bytes_folded: 120,
                micros: 42,
            })
        }
    }

    #[test]
    fn empty_registry_is_unavailable() {
        let r = DurabilityRegistry::new();
        assert!(!r.is_available());
        assert_eq!(r.status("acme"), Err(DurabilityError::Unavailable));
        assert_eq!(r.checkpoint("acme"), Err(DurabilityError::Unavailable));
        assert!(r.status_all().is_err());
    }

    #[test]
    fn registered_hook_serves_status_and_checkpoints() {
        let r = DurabilityRegistry::new();
        r.register(Arc::new(FakeHook));
        assert!(r.is_available());
        let all = r.status_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].tenant, "acme"); // sorted
        assert_eq!(all[1].tenant, "beta");
        assert_eq!(r.status("acme").unwrap().wal_appends, 3);
        assert!(matches!(
            r.status("ghost"),
            Err(DurabilityError::UnknownTenant(_))
        ));
        let outcomes = r.checkpoint_all().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].as_ref().unwrap().tenant, "acme");
        assert_eq!(outcomes[0].as_ref().unwrap().wal_bytes_folded, 120);
    }
}
