//! Platform configuration: typed settings with defaults and per-tenant
//! overrides ("customize services configuration", ODBIS §3.1 — the
//! out-of-the-box "flexible configuration and personalization" claim).

use std::collections::BTreeMap;

use parking_lot::RwLock;

/// A typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// String setting.
    Str(String),
    /// Integer setting.
    Int(i64),
    /// Boolean setting.
    Bool(bool),
}

impl ConfigValue {
    fn kind(&self) -> &'static str {
        match self {
            ConfigValue::Str(_) => "string",
            ConfigValue::Int(_) => "int",
            ConfigValue::Bool(_) => "bool",
        }
    }
}

impl From<&str> for ConfigValue {
    fn from(s: &str) -> Self {
        ConfigValue::Str(s.to_string())
    }
}
impl From<i64> for ConfigValue {
    fn from(i: i64) -> Self {
        ConfigValue::Int(i)
    }
}
impl From<bool> for ConfigValue {
    fn from(b: bool) -> Self {
        ConfigValue::Bool(b)
    }
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The key is not declared.
    UnknownKey(String),
    /// The value's type does not match the declaration.
    TypeMismatch {
        /// Setting key.
        key: String,
        /// Declared kind.
        expected: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownKey(k) => write!(f, "unknown configuration key {k}"),
            ConfigError::TypeMismatch { key, expected } => {
                write!(f, "configuration {key} expects a {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The declared default for `durability.fsync`: the `ODBIS_DURABILITY_FSYNC`
/// environment variable when set (the CI durability job exports `always`),
/// otherwise `never` — crash-safe against process death, not power loss.
fn fsync_default() -> String {
    match std::env::var("ODBIS_DURABILITY_FSYNC").as_deref() {
        Ok(v) if v.eq_ignore_ascii_case("always") => "always".to_string(),
        _ => "never".to_string(),
    }
}

/// Declared-key configuration store with platform defaults and per-tenant
/// overrides. Reads resolve tenant → platform → declared default.
pub struct PlatformConfig {
    declared: BTreeMap<String, ConfigValue>,
    inner: RwLock<Overrides>,
}

#[derive(Default)]
struct Overrides {
    platform: BTreeMap<String, ConfigValue>,
    per_tenant: BTreeMap<(String, String), ConfigValue>,
}

impl PlatformConfig {
    /// Store with the platform's standard settings declared.
    pub fn with_defaults() -> Self {
        let mut declared = BTreeMap::new();
        for (k, v) in [
            // 0 = auto: let the engine size its worker pool to the machine.
            ("sql.parallelism", ConfigValue::Int(0)),
            ("durability.fsync", ConfigValue::Str(fsync_default())),
            ("telemetry.enabled", ConfigValue::Bool(true)),
            ("telemetry.slow_ms", ConfigValue::Int(250)),
            ("chaos.enabled", ConfigValue::Bool(false)),
            // Per-tenant admission control (requests/second). Limits
            // default open (0 = unlimited); operators and the
            // noisy-neighbor suites opt tenants in per deployment.
            ("limits.rate", ConfigValue::Int(0)),
            // bucket capacity above the rate (0 = one second of rate)
            ("limits.burst", ConfigValue::Int(0)),
            // in-flight requests a tenant may hold past its rate before 429
            ("limits.queue_depth", ConfigValue::Int(64)),
            // shard router: answer non-local tenants with 307 + Location
            // instead of proxying to the owner node
            ("cluster.redirect", ConfigValue::Bool(false)),
        ] {
            declared.insert(k.to_string(), v);
        }
        PlatformConfig {
            declared,
            inner: RwLock::new(Overrides::default()),
        }
    }

    /// Declare an additional key with its default.
    pub fn declare(&mut self, key: &str, default: ConfigValue) {
        self.declared.insert(key.to_string(), default);
    }

    fn check(&self, key: &str, value: &ConfigValue) -> Result<(), ConfigError> {
        let decl = self
            .declared
            .get(key)
            .ok_or_else(|| ConfigError::UnknownKey(key.to_string()))?;
        if decl.kind() != value.kind() {
            return Err(ConfigError::TypeMismatch {
                key: key.to_string(),
                expected: decl.kind(),
            });
        }
        Ok(())
    }

    /// Set a platform-wide override.
    pub fn set(&self, key: &str, value: ConfigValue) -> Result<(), ConfigError> {
        self.check(key, &value)?;
        self.inner.write().platform.insert(key.to_string(), value);
        Ok(())
    }

    /// Set a tenant-specific override ("personalization").
    pub fn set_for_tenant(
        &self,
        tenant: &str,
        key: &str,
        value: ConfigValue,
    ) -> Result<(), ConfigError> {
        self.check(key, &value)?;
        self.inner
            .write()
            .per_tenant
            .insert((tenant.to_string(), key.to_string()), value);
        Ok(())
    }

    /// Resolve a setting for a tenant.
    pub fn get(&self, tenant: &str, key: &str) -> Result<ConfigValue, ConfigError> {
        let decl = self
            .declared
            .get(key)
            .ok_or_else(|| ConfigError::UnknownKey(key.to_string()))?;
        let inner = self.inner.read();
        if let Some(v) = inner.per_tenant.get(&(tenant.to_string(), key.to_string())) {
            return Ok(v.clone());
        }
        if let Some(v) = inner.platform.get(key) {
            return Ok(v.clone());
        }
        Ok(decl.clone())
    }

    /// Integer-setting convenience.
    pub fn get_int(&self, tenant: &str, key: &str) -> Result<i64, ConfigError> {
        match self.get(tenant, key)? {
            ConfigValue::Int(i) => Ok(i),
            _ => Err(ConfigError::TypeMismatch {
                key: key.to_string(),
                expected: "int",
            }),
        }
    }

    /// String-setting convenience.
    pub fn get_str(&self, tenant: &str, key: &str) -> Result<String, ConfigError> {
        match self.get(tenant, key)? {
            ConfigValue::Str(s) => Ok(s),
            _ => Err(ConfigError::TypeMismatch {
                key: key.to_string(),
                expected: "string",
            }),
        }
    }

    /// All declared keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.declared.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_order_tenant_platform_default() {
        let cfg = PlatformConfig::with_defaults();
        assert_eq!(cfg.get_int("t1", "telemetry.slow_ms").unwrap(), 250);
        cfg.set("telemetry.slow_ms", 5_000i64.into()).unwrap();
        assert_eq!(cfg.get_int("t1", "telemetry.slow_ms").unwrap(), 5_000);
        cfg.set_for_tenant("t1", "telemetry.slow_ms", 100i64.into())
            .unwrap();
        assert_eq!(cfg.get_int("t1", "telemetry.slow_ms").unwrap(), 100);
        // other tenants still see the platform override
        assert_eq!(cfg.get_int("t2", "telemetry.slow_ms").unwrap(), 5_000);
    }

    #[test]
    fn unknown_keys_and_type_mismatches() {
        let cfg = PlatformConfig::with_defaults();
        assert!(matches!(
            cfg.set("nope", 1i64.into()),
            Err(ConfigError::UnknownKey(_))
        ));
        assert!(matches!(
            cfg.set("telemetry.slow_ms", "lots".into()),
            Err(ConfigError::TypeMismatch { .. })
        ));
        assert!(matches!(
            cfg.get("t", "ghost.key"),
            Err(ConfigError::UnknownKey(_))
        ));
        assert!(matches!(
            cfg.get_int("t", "durability.fsync"),
            Err(ConfigError::TypeMismatch { .. })
        ));
    }

    /// The knobs that used to select the retired row executor and JSON
    /// checkpoint format, the six keys no code ever read, and the ROLAP-only
    /// MDX switch and per-tenant optimizer rule set no deployment set, are
    /// gone, not merely ignored: setting one is an error an operator sees.
    #[test]
    fn retired_twin_selectors_are_unknown_keys() {
        let cfg = PlatformConfig::with_defaults();
        assert_eq!(cfg.keys().len(), 9);
        for (key, value) in [
            ("sql.vectorized", ConfigValue::Bool(false)),
            ("durability.format", ConfigValue::from("json")),
            ("olap.preaggregation", ConfigValue::Bool(true)),
            ("sql.optimizer_rules", ConfigValue::from("all")),
            ("reporting.max_rows", ConfigValue::Int(10_000)),
            ("reporting.default_chart", ConfigValue::from("bar")),
            ("etl.reject_threshold", ConfigValue::Int(1_000)),
            ("delivery.mobile_row_cap", ConfigValue::Int(20)),
            ("security.session_minutes", ConfigValue::Int(30)),
            ("platform.name", ConfigValue::from("ODBIS")),
        ] {
            assert_eq!(
                cfg.set_for_tenant("t", key, value.clone()),
                Err(ConfigError::UnknownKey(key.to_string()))
            );
            assert_eq!(
                cfg.set(key, value),
                Err(ConfigError::UnknownKey(key.to_string()))
            );
            assert!(matches!(cfg.get("t", key), Err(ConfigError::UnknownKey(_))));
        }
    }

    #[test]
    fn admission_limits_are_declared_with_open_defaults() {
        let cfg = PlatformConfig::with_defaults();
        assert_eq!(cfg.get_int("t", "limits.rate").unwrap(), 0);
        assert_eq!(cfg.get_int("t", "limits.burst").unwrap(), 0);
        assert_eq!(cfg.get_int("t", "limits.queue_depth").unwrap(), 64);
        // per-tenant personalization works like any other key
        cfg.set_for_tenant("noisy", "limits.rate", 50i64.into())
            .unwrap();
        assert_eq!(cfg.get_int("noisy", "limits.rate").unwrap(), 50);
        assert_eq!(cfg.get_int("quiet", "limits.rate").unwrap(), 0);
    }

    #[test]
    fn declaring_new_keys() {
        let mut cfg = PlatformConfig::with_defaults();
        cfg.declare("custom.flag", ConfigValue::Bool(false));
        assert_eq!(
            cfg.get("t", "custom.flag").unwrap(),
            ConfigValue::Bool(false)
        );
        cfg.set("custom.flag", true.into()).unwrap();
        assert_eq!(
            cfg.get("t", "custom.flag").unwrap(),
            ConfigValue::Bool(true)
        );
        assert!(cfg.keys().contains(&"custom.flag".to_string()));
    }
}
