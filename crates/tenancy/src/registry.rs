//! Tenant registry and lifecycle: one entry per tenant, the one record a
//! node keeps for it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use odbis_security::SecurityManager;
use parking_lot::{Mutex, RwLock};

use crate::metering::Usage;
use crate::plan::SubscriptionPlan;

/// Tenant lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantStatus {
    /// Normal operation.
    Active,
    /// Access blocked (e.g. unpaid invoices); data retained.
    Suspended,
    /// Scheduled for deletion; no access.
    Closed,
}

/// One tenant of the multi-tenant platform, and everything a node keeps
/// for it: its record (name, plan, status), its security realm (its
/// users, roles and sessions are its own even though the process is
/// shared — ODBIS §2), its migration fence and its usage counters. The
/// registry hands out shared handles, so a call resolves its tenant once
/// and then checks, fences and meters it without another lookup.
pub struct Tenant {
    /// Stable tenant id (also the discriminator value in shared tables).
    pub id: String,
    /// Display name.
    pub name: String,
    /// The tenant's security realm.
    pub realm: SecurityManager,
    /// The migration fence: calls hold it for reading, a migration's
    /// cutover for writing, which drains in-flight calls and blocks new
    /// ones for the duration of the flip.
    pub fence: RwLock<()>,
    /// Usage metered in the open billing period.
    pub usage: Usage,
    plan: Mutex<SubscriptionPlan>,
    status: AtomicU8,
}

impl Tenant {
    /// The current subscription plan.
    pub fn plan(&self) -> SubscriptionPlan {
        self.plan.lock().clone()
    }

    /// Switch the tenant's plan.
    pub fn change_plan(&self, plan: SubscriptionPlan) {
        *self.plan.lock() = plan;
    }

    /// Change the lifecycle status.
    pub fn set_status(&self, status: TenantStatus) {
        self.status.store(status as u8, Ordering::Relaxed);
    }

    /// Require the tenant to be active (gate for every service call).
    pub fn require_active(&self) -> TenancyResult<()> {
        match self.status.load(Ordering::Relaxed) == TenantStatus::Active as u8 {
            true => Ok(()),
            false => Err(TenancyError::NotActive(self.id.clone())),
        }
    }

    /// Enforce the plan's user limit before adding a user to the realm.
    pub fn check_user_limit(&self) -> TenancyResult<()> {
        let plan = self.plan.lock();
        match plan.max_users {
            Some(max) if self.realm.usernames().len() as u32 >= max => Err(
                TenancyError::PlanLimit(format!("plan {} allows at most {max} users", plan.name)),
            ),
            _ => Ok(()),
        }
    }
}

/// Tenancy errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenancyError {
    /// Tenant id already registered.
    AlreadyExists(String),
    /// Tenant id not found.
    NotFound(String),
    /// Operation not allowed in the tenant's current status.
    NotActive(String),
    /// Plan constraint violated (e.g. user limit).
    PlanLimit(String),
}

impl std::fmt::Display for TenancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenancyError::AlreadyExists(t) => write!(f, "tenant {t} already exists"),
            TenancyError::NotFound(t) => write!(f, "tenant {t} not found"),
            TenancyError::NotActive(t) => write!(f, "tenant {t} is not active"),
            TenancyError::PlanLimit(m) => write!(f, "plan limit: {m}"),
        }
    }
}

impl std::error::Error for TenancyError {}

/// Result alias for tenancy operations.
pub type TenancyResult<T> = Result<T, TenancyError>;

/// Registry of all tenants, keyed by id. It is the only per-tenant map a
/// node keeps: an id no one provisioned has no entry, and nothing is
/// created for it by looking it up.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Provision a tenant: registers it and creates its security realm.
    pub fn provision(
        &self,
        id: &str,
        name: &str,
        plan: SubscriptionPlan,
    ) -> TenancyResult<Arc<Tenant>> {
        let mut tenants = self.tenants.write();
        if tenants.contains_key(id) {
            return Err(TenancyError::AlreadyExists(id.to_string()));
        }
        let tenant = Arc::new(Tenant {
            id: id.to_string(),
            name: name.to_string(),
            realm: SecurityManager::new(),
            fence: RwLock::new(()),
            usage: Usage::default(),
            plan: Mutex::new(plan),
            status: AtomicU8::new(TenantStatus::Active as u8),
        });
        tenants.insert(id.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Resolve a tenant's entry: one read lock, and no allocation when the
    /// tenant exists.
    pub fn get(&self, id: &str) -> TenancyResult<Arc<Tenant>> {
        self.tenants
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| TenancyError::NotFound(id.to_string()))
    }

    /// Every tenant, sorted by id.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read().values().cloned().collect()
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceKind;

    #[test]
    fn provision_and_lifecycle() {
        let reg = TenantRegistry::new();
        reg.provision("acme", "Acme Corp", SubscriptionPlan::standard())
            .unwrap();
        assert!(matches!(
            reg.provision("acme", "again", SubscriptionPlan::free()),
            Err(TenancyError::AlreadyExists(_))
        ));
        let acme = reg.get("acme").unwrap();
        assert_eq!(acme.name, "Acme Corp");
        acme.require_active().unwrap();
        acme.set_status(TenantStatus::Suspended);
        assert!(matches!(
            reg.get("acme").unwrap().require_active(),
            Err(TenancyError::NotActive(_))
        ));
        acme.set_status(TenantStatus::Active);
        acme.require_active().unwrap();
        assert!(matches!(reg.get("ghost"), Err(TenancyError::NotFound(_))));
        // looking an id up creates nothing
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn realms_are_isolated_per_tenant() {
        let reg = TenantRegistry::new();
        let t1 = reg
            .provision("t1", "T1", SubscriptionPlan::standard())
            .unwrap();
        let t2 = reg
            .provision("t2", "T2", SubscriptionPlan::standard())
            .unwrap();
        let (r1, r2) = (&t1.realm, &t2.realm);
        r1.create_user("alice", "pw").unwrap();
        // the same username can exist in another tenant's realm
        r2.create_user("alice", "other-pw").unwrap();
        assert!(r1.login("alice", "pw").is_ok());
        assert!(r2.login("alice", "pw").is_err());
        assert!(r2.login("alice", "other-pw").is_ok());
    }

    #[test]
    fn plan_user_limits_enforced() {
        let reg = TenantRegistry::new();
        let small = reg
            .provision("small", "S", SubscriptionPlan::free())
            .unwrap();
        for i in 0..3 {
            small.check_user_limit().unwrap();
            small.realm.create_user(&format!("u{i}"), "pw").unwrap();
        }
        assert!(matches!(
            small.check_user_limit(),
            Err(TenancyError::PlanLimit(_))
        ));
        small.change_plan(SubscriptionPlan::enterprise());
        small.check_user_limit().unwrap();
    }

    fn two_tenants() -> (Arc<Tenant>, Arc<Tenant>) {
        let reg = TenantRegistry::new();
        let t1 = reg.provision("t1", "T1", SubscriptionPlan::free()).unwrap();
        let t2 = reg.provision("t2", "T2", SubscriptionPlan::free()).unwrap();
        (t1, t2)
    }

    #[test]
    fn counters_aggregate_exactly() {
        let (t1, t2) = two_tenants();
        t1.usage.record(ServiceKind::Reporting, 3);
        t1.usage.record(ServiceKind::Reporting, 4);
        t1.usage.record(ServiceKind::Analysis, 10);
        t2.usage.record(ServiceKind::Reporting, 100);
        assert_eq!(t1.usage.get(ServiceKind::Reporting), 7);
        assert_eq!(
            t1.usage.lines(),
            vec![(ServiceKind::Analysis, 10), (ServiceKind::Reporting, 7)]
        );
        assert_eq!(t2.usage.lines(), vec![(ServiceKind::Reporting, 100)]);
    }

    #[test]
    fn a_call_metered_at_zero_units_keeps_its_line() {
        let (t1, t2) = two_tenants();
        t1.usage.record(ServiceKind::Admin, 0);
        assert_eq!(t1.usage.lines(), vec![(ServiceKind::Admin, 0)]);
        assert!(t2.usage.lines().is_empty());
    }

    #[test]
    fn close_period_resets() {
        let (t, _) = two_tenants();
        t.usage.record(ServiceKind::Admin, 5);
        assert_eq!(t.usage.close_period(), vec![(ServiceKind::Admin, 5)]);
        assert_eq!(t.usage.get(ServiceKind::Admin), 0);
        assert!(t.usage.lines().is_empty());
        assert!(t.usage.close_period().is_empty());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let (t, _) = two_tenants();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.usage.record(ServiceKind::Analysis, 1);
                    }
                });
            }
        });
        assert_eq!(t.usage.get(ServiceKind::Analysis), 4000);
    }
}
