//! Deterministic fault injection for the ODBIS platform.
//!
//! A *failpoint* is a named site in production code (`"wal.fsync"`,
//! `"http.accept"`, ...) where a test — or an operator, via
//! `ODBIS_FAILPOINTS` / the admin API — can inject a failure policy:
//!
//! | policy                  | effect at the site                          |
//! |-------------------------|---------------------------------------------|
//! | `off`                   | nothing (site behaves normally)             |
//! | `return-err`            | every pass through the site fails           |
//! | `panic`                 | the site panics                             |
//! | `delay(ms)`             | the site sleeps `ms` milliseconds           |
//! | `err-every-nth(n)`      | every n-th pass fails (1-based)             |
//! | `err-with-prob(p[,s])`  | each pass fails with probability `p`, from a
//! |                         | deterministic per-site RNG seeded with `s`  |
//!
//! Sites are strings so lower layers (storage, web) need no shared
//! enum; the registry is process-global. The fast path is a single relaxed
//! atomic load: when no site is armed, [`check`] costs one load and a
//! predictable branch, so instrumented hot paths (WAL append, HTTP accept)
//! pay nothing in production.
//!
//! The crate also hosts the platform's *resilience counters*: layers that
//! retry after a classified-transient failure call [`count_retry`], and
//! both failpoint triggers and retries are rendered in Prometheus text
//! format by [`render_prometheus`] for the `/api/v1/metrics` endpoint.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

/// Sentinel meaning "the registry has not consulted `ODBIS_FAILPOINTS`
/// yet"; forces the first [`check`] through the slow path exactly once.
const UNINIT: u32 = u32::MAX;

/// Number of armed (non-`off`) sites; `UNINIT` before the env var is read.
static ACTIVE: AtomicU32 = AtomicU32::new(UNINIT);

/// Global site registry, lazily seeded from `ODBIS_FAILPOINTS`.
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Serializes tests that arm global failpoints (see [`exclusive`]).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// The failure policy armed at one site.
#[derive(Debug, Clone, PartialEq)]
pub enum FailPolicy {
    /// Site behaves normally.
    Off,
    /// Every pass through the site fails.
    ReturnErr,
    /// The site panics (exercises panic containment above it).
    Panic,
    /// The site sleeps this many milliseconds, then succeeds.
    Delay(u64),
    /// Every n-th pass through the site fails (1-based; `n = 1` fails
    /// every pass, `n = 3` fails passes 3, 6, 9, ...).
    ErrEveryNth(u64),
    /// Each pass fails with probability `prob`, drawn from a per-site
    /// xorshift RNG seeded with `seed` — deterministic across runs.
    ErrWithProb {
        /// Failure probability in `[0, 1]`.
        prob: f64,
        /// RNG seed; the same seed replays the same trigger pattern.
        seed: u64,
    },
}

impl FailPolicy {
    /// Parse one policy from the spec grammar (see module docs).
    pub fn parse(s: &str) -> Result<FailPolicy, String> {
        let s = s.trim();
        if let Some(args) = s.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
            let ms: u64 = args
                .trim()
                .parse()
                .map_err(|_| format!("bad delay millis: {args:?}"))?;
            return Ok(FailPolicy::Delay(ms));
        }
        if let Some(args) = s
            .strip_prefix("err-every-nth(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let n: u64 = args
                .trim()
                .parse()
                .map_err(|_| format!("bad err-every-nth count: {args:?}"))?;
            if n == 0 {
                return Err("err-every-nth count must be >= 1".into());
            }
            return Ok(FailPolicy::ErrEveryNth(n));
        }
        if let Some(args) = s
            .strip_prefix("err-with-prob(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let mut parts = args.splitn(2, ',');
            let p_str = parts.next().unwrap_or("").trim();
            let prob: f64 = p_str
                .parse()
                .map_err(|_| format!("bad probability: {p_str:?}"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability out of [0,1]: {prob}"));
            }
            let seed = match parts.next() {
                Some(s_str) => s_str
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed: {s_str:?}"))?,
                None => 0xB1ED0C5,
            };
            return Ok(FailPolicy::ErrWithProb { prob, seed });
        }
        match s {
            "off" => Ok(FailPolicy::Off),
            "return-err" => Ok(FailPolicy::ReturnErr),
            "panic" => Ok(FailPolicy::Panic),
            other => Err(format!("unknown failpoint policy: {other:?}")),
        }
    }
}

impl fmt::Display for FailPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailPolicy::Off => write!(f, "off"),
            FailPolicy::ReturnErr => write!(f, "return-err"),
            FailPolicy::Panic => write!(f, "panic"),
            FailPolicy::Delay(ms) => write!(f, "delay({ms})"),
            FailPolicy::ErrEveryNth(n) => write!(f, "err-every-nth({n})"),
            FailPolicy::ErrWithProb { prob, seed } => write!(f, "err-with-prob({prob},{seed})"),
        }
    }
}

/// The error a triggered failpoint injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointError {
    /// Site that fired.
    pub site: String,
}

impl fmt::Display for FailpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected failpoint {}", self.site)
    }
}

impl std::error::Error for FailpointError {}

struct SiteState {
    policy: FailPolicy,
    /// Passes through the site since it was armed.
    hits: u64,
    /// Times the site actually injected a fault (err/panic/delay).
    triggered: u64,
    /// Per-site xorshift64* state for `err-with-prob`.
    rng: u64,
}

#[derive(Default)]
struct Registry {
    sites: BTreeMap<String, SiteState>,
    retries: BTreeMap<String, u64>,
}

/// Lock the registry, seeding it from `ODBIS_FAILPOINTS` on first use.
fn registry() -> MutexGuard<'static, Option<Registry>> {
    let mut guard = REGISTRY.lock();
    if guard.is_none() {
        let mut reg = Registry::default();
        if let Ok(spec) = std::env::var("ODBIS_FAILPOINTS") {
            // A bad env spec must not take down the process on some random
            // first instrumented call; report on stderr and ignore.
            if let Err(e) = apply_spec_to(&mut reg, &spec) {
                eprintln!("odbis-chaos: ignoring bad ODBIS_FAILPOINTS: {e}");
            }
        }
        store_active(&reg);
        *guard = Some(reg);
    }
    guard
}

fn store_active(reg: &Registry) {
    let armed = reg
        .sites
        .values()
        .filter(|s| s.policy != FailPolicy::Off)
        .count() as u32;
    ACTIVE.store(armed, Ordering::Relaxed);
}

fn apply_spec_to(reg: &mut Registry, spec: &str) -> Result<usize, String> {
    let mut armed = 0;
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, policy) = part
            .split_once('=')
            .ok_or_else(|| format!("expected site=policy, got {part:?}"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("empty site name in {part:?}"));
        }
        let policy = FailPolicy::parse(policy)?;
        set_in(reg, site, policy);
        armed += 1;
    }
    Ok(armed)
}

fn set_in(reg: &mut Registry, site: &str, policy: FailPolicy) {
    if policy == FailPolicy::Off {
        reg.sites.remove(site);
        return;
    }
    // xorshift64* starts from the seed itself, so nearby seeds would give
    // nearby streams (seeds s and s + 1 share their first draws): scramble
    // the seed through the splitmix64 finalizer first. The state must not
    // be zero.
    let rng_seed = match policy {
        FailPolicy::ErrWithProb { seed, .. } => splitmix64(seed).max(1),
        _ => 1,
    };
    reg.sites.insert(
        site.to_string(),
        SiteState {
            policy,
            hits: 0,
            triggered: 0,
            rng: rng_seed,
        },
    );
}

/// The splitmix64 output function: a bijection on `u64` that sends
/// adjacent inputs to unrelated outputs.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evaluate the failpoint at `site`.
///
/// Returns `Err(FailpointError)` when an armed policy decides this pass
/// should fail; `Ok(())` otherwise (including always, for `delay`, after
/// sleeping). `panic` policies panic here. When nothing is armed this is
/// a single relaxed atomic load.
#[inline]
pub fn check(site: &str) -> Result<(), FailpointError> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    check_slow(site)
}

/// `check(site).is_err()`, for call sites that inject a custom fault shape
/// (short write, dropped socket) instead of returning the injected error.
#[inline]
pub fn triggered(site: &str) -> bool {
    check(site).is_err()
}

#[cold]
fn check_slow(site: &str) -> Result<(), FailpointError> {
    let delay_ms;
    {
        let mut guard = registry();
        let reg = guard.as_mut().expect("registry initialized");
        let Some(st) = reg.sites.get_mut(site) else {
            return Ok(());
        };
        st.hits += 1;
        let fire = match st.policy {
            FailPolicy::Off => false,
            FailPolicy::ReturnErr | FailPolicy::Panic => true,
            FailPolicy::Delay(_) => true,
            FailPolicy::ErrEveryNth(n) => st.hits % n == 0,
            FailPolicy::ErrWithProb { prob, .. } => {
                // xorshift64*: deterministic per-site stream.
                let mut x = st.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                st.rng = x;
                let draw = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
                draw < prob
            }
        };
        if !fire {
            return Ok(());
        }
        st.triggered += 1;
        match st.policy {
            FailPolicy::Panic => panic!("injected failpoint panic at {site}"),
            FailPolicy::Delay(ms) => delay_ms = Some(ms),
            _ => delay_ms = None,
        }
    }
    // Sleep outside the registry lock so a delayed site never stalls
    // other sites (or other threads arming/clearing policies).
    if let Some(ms) = delay_ms {
        std::thread::sleep(Duration::from_millis(ms));
        return Ok(());
    }
    Err(FailpointError { site: site.into() })
}

/// Arm `site` with `policy` (replacing any previous policy; `Off` disarms).
pub fn set(site: &str, policy: FailPolicy) {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    set_in(reg, site, policy);
    store_active(reg);
}

/// Disarm `site`.
pub fn remove(site: &str) {
    set(site, FailPolicy::Off);
}

/// Disarm every site and zero the retry counters.
pub fn clear() {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    reg.sites.clear();
    reg.retries.clear();
    store_active(reg);
}

/// Apply a full `site=policy[;site=policy...]` spec string (the
/// `ODBIS_FAILPOINTS` / admin-API grammar). Returns how many entries the
/// spec contained. On parse error nothing before the bad entry is rolled
/// back, matching env-var behavior.
pub fn apply_spec(spec: &str) -> Result<usize, String> {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    let r = apply_spec_to(reg, spec);
    store_active(reg);
    r
}

/// `(site, policy, hits, triggered)` for every armed site, sorted by site.
pub fn snapshot() -> Vec<(String, String, u64, u64)> {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    reg.sites
        .iter()
        .map(|(site, st)| (site.clone(), st.policy.to_string(), st.hits, st.triggered))
        .collect()
}

/// Times `site` has injected a fault since it was armed.
pub fn triggered_count(site: &str) -> u64 {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    reg.sites.get(site).map_or(0, |s| s.triggered)
}

/// Record that `op` was retried after a classified-transient failure
/// (the platform's in-place checkpoint retry counts as `checkpoint`).
pub fn count_retry(op: &str) {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    *reg.retries.entry(op.to_string()).or_insert(0) += 1;
}

/// Total retries recorded for `op`.
pub fn retry_count(op: &str) -> u64 {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    reg.retries.get(op).copied().unwrap_or(0)
}

/// Render `odbis_failpoint_triggered_total` and `odbis_retries_total` in
/// Prometheus text format (appended to the platform metrics endpoint).
pub fn render_prometheus() -> String {
    let mut guard = registry();
    let reg = guard.as_mut().expect("registry initialized");
    let mut out = String::new();
    out.push_str("# HELP odbis_failpoint_triggered_total Faults injected per failpoint site.\n");
    out.push_str("# TYPE odbis_failpoint_triggered_total counter\n");
    for (site, st) in &reg.sites {
        out.push_str(&format!(
            "odbis_failpoint_triggered_total{{site=\"{site}\"}} {}\n",
            st.triggered
        ));
    }
    out.push_str("# HELP odbis_retries_total Retries after classified-transient failures.\n");
    out.push_str("# TYPE odbis_retries_total counter\n");
    for (op, n) in &reg.retries {
        out.push_str(&format!("odbis_retries_total{{op=\"{op}\"}} {n}\n"));
    }
    out
}

/// Arms `site` with `policy` for the guard's lifetime; disarms on drop.
/// Intended for tests — pair with [`exclusive`] when the test binary runs
/// tests in parallel, since the registry is process-global.
pub struct ScopedFailpoint {
    site: String,
}

impl ScopedFailpoint {
    /// Arm `site` with `policy` until the guard drops.
    pub fn new(site: &str, policy: FailPolicy) -> ScopedFailpoint {
        set(site, policy);
        ScopedFailpoint { site: site.into() }
    }
}

impl Drop for ScopedFailpoint {
    fn drop(&mut self) {
        remove(&self.site);
    }
}

/// Take the process-wide chaos test lock. Tests that arm global failpoints
/// hold this so parallel tests in the same binary don't see each other's
/// faults. (Separate test binaries are separate processes and need no
/// coordination.)
pub fn exclusive() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_site_is_ok_and_costs_one_load() {
        let _x = exclusive();
        clear();
        assert!(check("nothing.armed").is_ok());
        assert_eq!(ACTIVE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn return_err_fires_every_time_and_counts() {
        let _x = exclusive();
        clear();
        let _g = ScopedFailpoint::new("t.always", FailPolicy::ReturnErr);
        for _ in 0..3 {
            let e = check("t.always").unwrap_err();
            assert_eq!(e.site, "t.always");
            assert!(e.to_string().contains("t.always"));
        }
        assert_eq!(triggered_count("t.always"), 3);
        assert!(check("t.other").is_ok(), "unarmed sites unaffected");
    }

    #[test]
    fn err_every_nth_fires_on_schedule() {
        let _x = exclusive();
        clear();
        let _g = ScopedFailpoint::new("t.nth", FailPolicy::ErrEveryNth(3));
        let fired: Vec<bool> = (0..9).map(|_| check("t.nth").is_err()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn err_with_prob_is_deterministic_per_seed() {
        let _x = exclusive();
        clear();
        let run = |seed| {
            set("t.prob", FailPolicy::ErrWithProb { prob: 0.5, seed });
            let v: Vec<bool> = (0..64).map(|_| check("t.prob").is_err()).collect();
            remove("t.prob");
            v
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same trigger pattern");
        assert_ne!(a, c, "different seed, different pattern");
        let fires = a.iter().filter(|f| **f).count();
        assert!((10..=54).contains(&fires), "p=0.5 over 64 draws: {fires}");
    }

    #[test]
    fn adjacent_seeds_draw_independent_streams() {
        // a sweep reseeds round r with `base + r`: the first pass of each
        // round must fail with probability p, not all together (from this
        // base, unscrambled seeds fired on the first pass of every round)
        let _x = exclusive();
        clear();
        let base = 11_400_714_819_519_147_042u64;
        let first_pass_fires = |n: u64| {
            (0..n)
                .filter(|r| {
                    let seed = base.wrapping_add(*r);
                    set("t.adjacent", FailPolicy::ErrWithProb { prob: 0.3, seed });
                    let fired = check("t.adjacent").is_err();
                    remove("t.adjacent");
                    fired
                })
                .count()
        };
        assert!(
            first_pass_fires(6) < 6,
            "six adjacent rounds all failed at once"
        );
        let fires = first_pass_fires(256);
        assert!((50..=105).contains(&fires), "p=0.3 over 256 seeds: {fires}");
    }

    #[test]
    #[should_panic(expected = "injected failpoint panic at t.boom")]
    fn panic_policy_panics() {
        // NB: deliberately not holding `exclusive()` (panicking while
        // holding the parking_lot guard would not poison it, but keep the
        // site name unique instead).
        set("t.boom", FailPolicy::Panic);
        let _ = check("t.boom");
    }

    #[test]
    fn delay_sleeps_then_succeeds() {
        let _x = exclusive();
        clear();
        let _g = ScopedFailpoint::new("t.slow", FailPolicy::Delay(20));
        let t0 = std::time::Instant::now();
        assert!(check("t.slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(18));
        assert_eq!(triggered_count("t.slow"), 1);
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _x = exclusive();
        clear();
        let n = apply_spec(
            "wal.fsync=err-every-nth(3); http.accept = err-with-prob(0.25, 42) ;x=delay(5)",
        )
        .unwrap();
        assert_eq!(n, 3);
        let snap = snapshot();
        let sites: Vec<&str> = snap.iter().map(|(s, ..)| s.as_str()).collect();
        assert_eq!(sites, vec!["http.accept", "wal.fsync", "x"]);
        assert_eq!(snap[1].1, "err-every-nth(3)");
        assert_eq!(snap[0].1, "err-with-prob(0.25,42)");
        // off disarms
        apply_spec("x=off").unwrap();
        assert_eq!(snapshot().len(), 2);
        clear();
        assert_eq!(snapshot().len(), 0);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FailPolicy::parse("explode").is_err());
        assert!(FailPolicy::parse("err-every-nth(0)").is_err());
        assert!(FailPolicy::parse("err-with-prob(1.5)").is_err());
        assert!(FailPolicy::parse("delay(abc)").is_err());
        assert!(apply_spec("no-equals-sign").is_err());
        assert!(apply_spec("=return-err").is_err());
    }

    #[test]
    fn retry_counters_accumulate_and_render() {
        let _x = exclusive();
        clear();
        count_retry("checkpoint");
        count_retry("checkpoint");
        assert_eq!(retry_count("checkpoint"), 2);
        let _g = ScopedFailpoint::new("t.render", FailPolicy::ReturnErr);
        let _ = check("t.render");
        let text = render_prometheus();
        assert!(text.contains("odbis_failpoint_triggered_total{site=\"t.render\"} 1"));
        assert!(text.contains("odbis_retries_total{op=\"checkpoint\"} 2"));
        clear();
    }
}
