//! Compile-time-erasable failpoints for fault-injection testing.
//!
//! A *failpoint* is a named site in production code where a test can
//! inject a fault: an error return, a panic, or a delay. Sites are
//! declared with [`fail_point!`]:
//!
//! ```ignore
//! pif_fail::fail_point!("cache.store.write", |e: pif_fail::FailError| Err(e.to_string()));
//! ```
//!
//! Without the `fail-inject` feature the macro expands to an empty
//! block: no code is generated, the site-name string literal never
//! reaches the binary, and the call site costs nothing (CI greps a
//! release binary to prove it). With `fail-inject` enabled, each site
//! consults the installed [`FailPlan`].
//!
//! # Plans
//!
//! A [`FailPlan`] maps site names to a [`SiteRule`]: an action
//! ([`FailAction`]), a firing probability, and an optional fire cap.
//! Plans are fully deterministic: every site draws from its own
//! SplitMix64 stream seeded by `plan.seed ^ fnv1a_64(site)`, so the
//! decision sequence at one site does not depend on how other sites
//! interleave with it. Install a plan from code with [`install`], or
//! from the `PIF_FAIL` environment variable with [`install_env`]:
//!
//! ```text
//! PIF_FAIL="seed=42;cache.store.write=error@0.5;service.job.run=delay(25)@0.3;service.worker.panic=panic#2"
//! ```
//!
//! Grammar: `seed=N` plus `site=action[@probability][#max_fires]`
//! entries separated by `;`. Actions are `error`, `panic`,
//! `delay(MILLIS)`, and `off`. Probability defaults to `1.0`;
//! `#max_fires` caps the number of times the site fires.
//!
//! The plan API ([`FailPlan::parse`], [`install`], [`stats`], …) is
//! compiled unconditionally so plans can be parsed and inspected from
//! tests in any build; only the *evaluation at call sites* is gated by
//! `fail-inject`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use pif_types::rng::{fnv1a_64_once, splitmix64};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return a [`FailError`] from the site (via the two-argument form
    /// of [`fail_point!`]); one-argument sites ignore `Error` rules.
    Error,
    /// Panic at the site with a message naming it.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Never fire. Useful to mask a site out of a broad plan.
    Off,
}

/// The injected error produced by an [`FailAction::Error`] rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailError {
    /// Name of the site that fired.
    pub site: String,
}

impl fmt::Display for FailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for FailError {}

/// Per-site rule in a [`FailPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRule {
    /// Action taken when the site fires.
    pub action: FailAction,
    /// Probability in `[0.0, 1.0]` that an evaluation fires.
    pub probability: f64,
    /// Cap on total fires at this site; `None` means unlimited.
    pub max_fires: Option<u64>,
}

impl SiteRule {
    /// Rule that always fires with `action`.
    pub fn always(action: FailAction) -> Self {
        SiteRule {
            action,
            probability: 1.0,
            max_fires: None,
        }
    }
}

/// A deterministic, seeded fault-injection plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailPlan {
    /// Base seed; each site derives an independent stream from it.
    pub seed: u64,
    /// Rules keyed by site name (sorted for stable iteration).
    pub sites: BTreeMap<String, SiteRule>,
}

impl FailPlan {
    /// Empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FailPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Adds a rule for `site`, replacing any existing one.
    pub fn site(mut self, site: &str, rule: SiteRule) -> Self {
        self.sites.insert(site.to_string(), rule);
        self
    }

    /// Parses the `PIF_FAIL` grammar (see crate docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FailPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("pif-fail: entry `{entry}` is not `key=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("pif-fail: bad seed `{value}`"))?;
                continue;
            }
            plan.sites.insert(key.to_string(), parse_rule(value)?);
        }
        Ok(plan)
    }
}

fn parse_rule(spec: &str) -> Result<SiteRule, String> {
    // action[@probability][#max_fires] — split suffixes from the right
    // so `delay(25)@0.3#2` parses cleanly.
    let (rest, max_fires) = match spec.rsplit_once('#') {
        Some((rest, max)) => {
            let max = max
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("pif-fail: bad max_fires in `{spec}`"))?;
            (rest.trim(), Some(max))
        }
        None => (spec, None),
    };
    let (action, probability) = match rest.rsplit_once('@') {
        Some((action, prob)) => {
            let prob = prob
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("pif-fail: bad probability in `{spec}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("pif-fail: probability out of [0,1] in `{spec}`"));
            }
            (action.trim(), prob)
        }
        None => (rest.trim(), 1.0),
    };
    let action = if action == "error" {
        FailAction::Error
    } else if action == "panic" {
        FailAction::Panic
    } else if action == "off" {
        FailAction::Off
    } else if let Some(ms) = action
        .strip_prefix("delay(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let ms = ms
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("pif-fail: bad delay millis in `{spec}`"))?;
        FailAction::Delay(Duration::from_millis(ms))
    } else {
        return Err(format!(
            "pif-fail: unknown action `{action}` (expected error|panic|delay(MS)|off)"
        ));
    };
    Ok(SiteRule {
        action,
        probability,
        max_fires,
    })
}

/// Evaluation counters for one site of the active plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Site name.
    pub site: String,
    /// Times the site was evaluated (reached while armed).
    pub evals: u64,
    /// Times the site fired its action.
    pub fires: u64,
}

struct ActiveSite {
    rule: SiteRule,
    rng: Mutex<u64>,
    evals: AtomicU64,
    fires: AtomicU64,
}

struct ActivePlan {
    sites: BTreeMap<String, Arc<ActiveSite>>,
}

/// Fast-path switch: `eval` returns immediately unless a plan is
/// installed. Only consulted in `fail-inject` builds.
static ARMED: AtomicBool = AtomicBool::new(false);

fn active() -> &'static Mutex<Option<ActivePlan>> {
    static ACTIVE: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn lock_active() -> std::sync::MutexGuard<'static, Option<ActivePlan>> {
    // Failpoint state must survive an injected panic crossing a lock
    // scope; recover the guard rather than poisoning everything after
    // the first `panic` action.
    match active().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs `plan` as the process-global active plan, replacing any
/// previous one and resetting all counters.
pub fn install(plan: &FailPlan) {
    let sites = plan
        .sites
        .iter()
        .map(|(name, rule)| {
            (
                name.clone(),
                Arc::new(ActiveSite {
                    rule: *rule,
                    rng: Mutex::new(plan.seed ^ fnv1a_64_once(name.as_bytes())),
                    evals: AtomicU64::new(0),
                    fires: AtomicU64::new(0),
                }),
            )
        })
        .collect();
    *lock_active() = Some(ActivePlan { sites });
    ARMED.store(true, Ordering::Release);
}

/// Installs a plan parsed from the `PIF_FAIL` environment variable.
///
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset or empty, and `Err` on a parse failure.
pub fn install_env() -> Result<bool, String> {
    match std::env::var("PIF_FAIL") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(&FailPlan::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Removes the active plan; all sites disarm.
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    *lock_active() = None;
}

/// Snapshot of evaluation counters for every site of the active plan.
pub fn stats() -> Vec<SiteStats> {
    let guard = lock_active();
    let Some(plan) = guard.as_ref() else {
        return Vec::new();
    };
    plan.sites
        .iter()
        .map(|(name, site)| SiteStats {
            site: name.clone(),
            evals: site.evals.load(Ordering::Relaxed),
            fires: site.fires.load(Ordering::Relaxed),
        })
        .collect()
}

fn site_for(name: &str) -> Option<Arc<ActiveSite>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    lock_active()
        .as_ref()
        .and_then(|p| p.sites.get(name).cloned())
}

fn try_fire(site: &ActiveSite) -> Option<FailAction> {
    site.evals.fetch_add(1, Ordering::Relaxed);
    if matches!(site.rule.action, FailAction::Off) {
        return None;
    }
    if let Some(max) = site.rule.max_fires {
        if site.fires.load(Ordering::Relaxed) >= max {
            return None;
        }
    }
    if site.rule.probability < 1.0 {
        let roll = {
            let mut state = match site.rng.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            splitmix64(&mut state)
        };
        // 53-bit mantissa draw in [0, 1).
        let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= site.rule.probability {
            return None;
        }
    }
    site.fires.fetch_add(1, Ordering::Relaxed);
    Some(site.rule.action)
}

/// Evaluates a one-argument failpoint: fires `Panic` and `Delay` rules;
/// `Error` rules are ignored (the site has no error channel).
///
/// Called by [`fail_point!`]; not intended for direct use.
pub fn eval(name: &str) {
    let Some(site) = site_for(name) else { return };
    match try_fire(&site) {
        Some(FailAction::Panic) => panic!("injected panic at failpoint `{name}`"),
        Some(FailAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
}

/// Evaluates a two-argument failpoint: like [`eval`], but an `Error`
/// rule returns `Some(FailError)` for the site to convert into its own
/// error type.
///
/// Called by [`fail_point!`]; not intended for direct use.
pub fn eval_err(name: &str) -> Option<FailError> {
    let site = site_for(name)?;
    match try_fire(&site) {
        Some(FailAction::Error) => Some(FailError {
            site: name.to_string(),
        }),
        Some(FailAction::Panic) => panic!("injected panic at failpoint `{name}`"),
        Some(FailAction::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        _ => None,
    }
}

/// Declares a named failpoint.
///
/// * `fail_point!("site")` — can inject `panic` and `delay(MS)` faults.
/// * `fail_point!("site", |e: FailError| <expr>)` — additionally
///   supports `error` rules: when one fires, the closure maps the
///   [`FailError`] into the enclosing function's error type and the
///   macro `return`s it.
///
/// Without the `fail-inject` feature both forms expand to an empty
/// block.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        #[cfg(feature = "fail-inject")]
        $crate::eval($name);
    }};
    ($name:expr, $on_err:expr) => {{
        #[cfg(feature = "fail-inject")]
        {
            if let Some(err) = $crate::eval_err($name) {
                return ($on_err)(err);
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FailPlan::parse(
            "seed=42;cache.store.write=error@0.5;service.job.run=delay(25)@0.3#2;w=panic;x=off",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.sites["cache.store.write"],
            SiteRule {
                action: FailAction::Error,
                probability: 0.5,
                max_fires: None
            }
        );
        assert_eq!(
            plan.sites["service.job.run"],
            SiteRule {
                action: FailAction::Delay(Duration::from_millis(25)),
                probability: 0.3,
                max_fires: Some(2)
            }
        );
        assert_eq!(plan.sites["w"], SiteRule::always(FailAction::Panic));
        assert_eq!(plan.sites["x"], SiteRule::always(FailAction::Off));
    }

    #[test]
    fn parse_ignores_blank_entries_and_whitespace() {
        let plan = FailPlan::parse(" seed = 7 ;; a = error ; ").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.sites.len(), 1);
        assert_eq!(plan.sites["a"], SiteRule::always(FailAction::Error));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "nokeyvalue",
            "seed=abc",
            "a=explode",
            "a=error@2.0",
            "a=error@x",
            "a=delay(ms)",
            "a=error#x",
        ] {
            assert!(FailPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn empty_spec_parses_to_default() {
        assert_eq!(FailPlan::parse("").unwrap(), FailPlan::default());
    }

    #[test]
    fn site_streams_are_independent_of_seed_and_name() {
        // Same site + seed → same first outputs; different name → different.
        let mut a = 42 ^ fnv1a_64_once(b"cache.store.write");
        let mut b = 42 ^ fnv1a_64_once(b"cache.store.write");
        let mut c = 42 ^ fnv1a_64_once(b"proto.write.frame");
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut c));
    }
}
