//! Deterministic fault injection for the serving tier (feature
//! `fault-injection`).
//!
//! The robustness suite needs to *prove* that one poisoned or slow example
//! cannot take down a batch — which requires making examples poisoned or
//! slow on demand, deterministically, at the exact pipeline stages the
//! service guards. This module provides named checkpoints
//! ([`Site::Grounding`], [`Site::Coverage`], [`Site::Alignment`]) that
//! production code compiles in only under the `fault-injection` feature; a
//! [`FaultPlan`] installed via [`install`] decides, from a seed and the
//! checkpoint's key, whether to panic, sleep, or force the caller's step
//! budget to zero at each visit.
//!
//! Decisions are a pure function of `(seed, rule index, site, key)` — no
//! global RNG state — so a plan injects the same faults at every thread
//! count and on every rerun. [`install`] holds a global lock for the
//! lifetime of the returned [`FaultGuard`], serializing tests that inject
//! faults against each other; dropping the guard clears the plan.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// Marker embedded in every injected panic's message, so panic hooks and
/// assertions can tell injected panics from real bugs.
pub const PANIC_MARKER: &str = "fault-injection: injected panic";

/// A named pipeline stage where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Bottom-clause grounding of one served example (key: the tuple's
    /// display form).
    Grounding,
    /// The per-example coverage test (key: the tuple's display form).
    Coverage,
    /// MD similarity-catalog construction at prepare time (key: the target
    /// relation's name).
    Alignment,
    /// Incremental delta application — index maintenance and grounding
    /// patching (key: the target relation's name).
    Delta,
    /// Model publication on the serving tier — the epoch swap in
    /// `PredictorService::publish` / `PredictorService::apply_delta` (key:
    /// `"publish@<epoch>"` / `"delta@<epoch>"`).
    Swap,
    /// Refinement search in `Engine::learn` — any strategy's learner over
    /// the prepared plan (key: the strategy's display name).
    Learn,
    /// A batch the coalescer's batcher thread drained, before it is served
    /// (key: the display form of the batch's first tuple).
    Coalesce,
}

impl Site {
    fn index(self) -> usize {
        match self {
            Site::Grounding => 0,
            Site::Coverage => 1,
            Site::Alignment => 2,
            Site::Delta => 3,
            Site::Swap => 4,
            Site::Learn => 5,
            Site::Coalesce => 6,
        }
    }

    /// Stable name used in hashes and messages.
    pub fn name(self) -> &'static str {
        match self {
            Site::Grounding => "grounding",
            Site::Coverage => "coverage",
            Site::Alignment => "alignment",
            Site::Delta => "delta",
            Site::Swap => "swap",
            Site::Learn => "learn",
            Site::Coalesce => "coalesce",
        }
    }
}

/// What an activated rule does at its checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Panic with a message containing [`PANIC_MARKER`].
    Panic,
    /// Sleep for the given duration, then proceed.
    Delay(Duration),
    /// Tell the caller to act as if its step budget were already exhausted.
    ExhaustBudget,
}

/// What the caller of [`checkpoint`] should do next. Panics and delays are
/// executed *inside* the checkpoint; budget exhaustion cannot be (only the
/// caller knows its budget), so it is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a checkpoint may demand budget exhaustion"]
pub enum Action {
    /// No fault (or the fault was already executed in the checkpoint).
    Proceed,
    /// Run the guarded computation with a zeroed step budget.
    ExhaustBudget,
}

/// One injection rule: fire `fault` at `site`, for keys containing
/// `key_contains` (all keys when `None`), with the given probability.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The checkpoint this rule applies to.
    pub site: Site,
    /// Substring filter over the checkpoint key; `None` matches every key.
    pub key_contains: Option<String>,
    /// Activation probability in `[0, 1]`, evaluated deterministically from
    /// the plan seed, the rule's position, the site and the key.
    pub probability: f64,
    /// The fault to execute when the rule activates.
    pub fault: Fault,
}

/// A deterministic, seeded set of injection rules. First matching rule wins.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule that always fires at `site` for keys containing `key`.
    pub fn on_key(mut self, site: Site, key: &str, fault: Fault) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            key_contains: Some(key.to_string()),
            probability: 1.0,
            fault,
        });
        self
    }

    /// Add a rule that fires at `site` for every key with `probability`.
    pub fn with_probability(mut self, site: Site, probability: f64, fault: Fault) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            key_contains: None,
            probability,
            fault,
        });
        self
    }

    /// Add an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// First rule matching `(site, key)` whose seeded coin flip comes up.
    fn decide(&self, site: Site, key: &str) -> Option<&Fault> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            if let Some(needle) = &rule.key_contains {
                if !key.contains(needle.as_str()) {
                    continue;
                }
            }
            if rule.probability >= 1.0 || hash01(self.seed, idx, site, key) < rule.probability {
                return Some(&rule.fault);
            }
        }
        None
    }
}

/// Deterministic hash of `(seed, rule, site, key)` into `[0, 1)`.
fn hash01(seed: u64, rule_idx: usize, site: Site, key: &str) -> f64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    rule_idx.hash(&mut h);
    site.name().hash(&mut h);
    key.hash(&mut h);
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

struct Registry {
    plan: RwLock<Option<FaultPlan>>,
    install_lock: Mutex<()>,
    injected: [AtomicU64; 7],
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        plan: RwLock::new(None),
        install_lock: Mutex::new(()),
        injected: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

/// Keeps a [`FaultPlan`] installed; dropping it clears the plan and releases
/// the install lock.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let reg = registry();
        *reg.plan.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Install a plan globally. The returned guard holds a process-wide lock, so
/// concurrent installers (other `#[test]` threads) queue; counters are reset
/// on each install. Also installs (once per process) a panic hook that
/// swallows the default stderr backtrace for injected panics — they are
/// expected and caught — while delegating every other panic to the previous
/// hook.
pub fn install(plan: FaultPlan) -> FaultGuard {
    install_quiet_hook();
    let reg = registry();
    let lock = reg.install_lock.lock().unwrap_or_else(|e| e.into_inner());
    for counter in &reg.injected {
        counter.store(0, Ordering::Relaxed);
    }
    *reg.plan.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    FaultGuard { _lock: lock }
}

fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Number of faults injected at `site` since the current plan was installed.
pub fn injected(site: Site) -> u64 {
    registry().injected[site.index()].load(Ordering::Relaxed)
}

/// Production checkpoint: consult the installed plan (if any) for `(site,
/// key)`. The key is formatted here, not by the caller, so builds without
/// the harness never format one. Panics and delays execute here — after the
/// plan lock is released, so a panicking checkpoint never poisons the
/// registry; budget exhaustion is returned for the caller to honor.
pub fn checkpoint(site: Site, key: impl std::fmt::Display) -> Action {
    let key = key.to_string();
    let reg = registry();
    let fault = {
        let plan = reg.plan.read().unwrap_or_else(|e| e.into_inner());
        match plan.as_ref().and_then(|p| p.decide(site, &key)) {
            Some(f) => f.clone(),
            None => return Action::Proceed,
        }
    };
    reg.injected[site.index()].fetch_add(1, Ordering::Relaxed);
    match fault {
        Fault::Panic => panic!("{PANIC_MARKER} at {} for `{key}`", site.name()),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            Action::Proceed
        }
        Fault::ExhaustBudget => Action::ExhaustBudget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_key_scoped() {
        let plan = FaultPlan::new(42)
            .on_key(Site::Grounding, "bad", Fault::Panic)
            .with_probability(Site::Coverage, 0.5, Fault::ExhaustBudget);
        assert_eq!(
            plan.decide(Site::Grounding, "a bad tuple"),
            Some(&Fault::Panic)
        );
        assert_eq!(plan.decide(Site::Grounding, "a good tuple"), None);
        assert_eq!(plan.decide(Site::Alignment, "bad"), None);
        // Probabilistic rules are pure functions of (seed, rule, site, key).
        for key in ["k1", "k2", "k3", "k4"] {
            assert_eq!(
                plan.decide(Site::Coverage, key).is_some(),
                plan.decide(Site::Coverage, key).is_some()
            );
        }
    }

    #[test]
    fn probability_roughly_splits_keys() {
        let plan = FaultPlan::new(7).with_probability(Site::Coverage, 0.5, Fault::Panic);
        let hits = (0..1000)
            .filter(|i| plan.decide(Site::Coverage, &format!("key-{i}")).is_some())
            .count();
        assert!((300..700).contains(&hits), "hits={hits}");
    }

    #[test]
    fn install_checkpoint_and_counters_round_trip() {
        let guard = install(FaultPlan::new(1).on_key(Site::Coverage, "x", Fault::ExhaustBudget));
        assert_eq!(checkpoint(Site::Coverage, "tuple x"), Action::ExhaustBudget);
        assert_eq!(checkpoint(Site::Coverage, "other"), Action::Proceed);
        assert_eq!(injected(Site::Coverage), 1);
        drop(guard);
        assert_eq!(checkpoint(Site::Coverage, "tuple x"), Action::Proceed);
    }
}
