//! The resilient serving tier: a long-lived front-end over [`Predictor`].
//!
//! A fleet-facing predictor must survive its traffic, not just be fast on
//! clean inputs: a pathological tuple used to pin a worker in the
//! subsumption search with no deadline, a worker panic tore down the whole
//! batch, and a binding step budget silently flipped a decision to "no".
//! [`PredictorService`] makes all three survivable and observable:
//!
//! * **Cached grounding** — a bounded, sharded cross-batch cache of
//!   `tuple → GroundExample` with clock (second-chance) eviction. Grounding
//!   is a pure function of the tuple (the RNG derives from the session seed
//!   alone), so a cache hit reuses the identical ground clause a fresh
//!   grounding would produce — verdicts are bit-identical cache-on vs
//!   cache-off, which `tests/service.rs` pins across 1/2/8 threads.
//! * **Deadlines and cooperative cancellation** — a per-call [`Budget`]
//!   threads a deadline into the subsumption search via a
//!   [`CancelToken`] polled alongside the step-budget test. A slow example
//!   returns [`DlearnError::DeadlineExceeded`] *for that example only*; the
//!   rest of the batch completes.
//! * **Panic isolation** — each example runs inside the crate's one panic
//!   boundary at the chunk worker, so one poisoned example yields
//!   [`DlearnError::WorkerPanicked`] and lands in a quarantine that keeps
//!   its tuple out of the cache forever after.
//! * **Degradation accounting** — budget-exhausted subsumption searches no
//!   longer masquerade as clean "no"s: every verdict carries its
//!   [`ServeVerdict::exhausted_searches`] count and the service-wide
//!   [`ServiceMetrics`] aggregate them.
//! * **Hot model swap** — the service owns its model as an
//!   `RwLock<Arc<(epoch, predictor, cache)>>`: every batch takes the read
//!   lock only to clone the `Arc`, so it serves one consistent snapshot and
//!   reads and fills only the cache of that snapshot. A publication
//!   ([`PredictorService::publish`] / [`PredictorService::apply_delta`])
//!   swaps in a successor under the write lock while in-flight batches
//!   finish on their old epoch. A full publish starts its successor with an
//!   empty cache; a delta publication moves the cache into the successor,
//!   minus the groundings the delta affected. A displaced model, cache
//!   included, is freed when its last in-flight batch ends. Every
//!   [`ServeVerdict`] names the epoch that produced it. For queued request
//!   coalescing in front of the service, see [`crate::coalesce`].
//!
//! ```
//! use dlearn_core::{Engine, LearnerConfig, LearningTask, PredictorService,
//!                   ServiceConfig, Strategy, TargetSpec};
//! use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};
//!
//! let db = DatabaseBuilder::new()
//!     .relation(RelationBuilder::new("movies").int_attr("id").str_attr("title").build())
//!     .relation(RelationBuilder::new("genres").int_attr("id").str_attr("genre").build())
//!     .row("movies", vec![Value::int(1), Value::str("Superbad")])
//!     .row("genres", vec![Value::int(1), Value::str("comedy")])
//!     .build();
//! let mut task = LearningTask::new(db, TargetSpec::new("hit", 1));
//! task.add_constant_attribute("genres", "genre");
//! task.positives.push(tuple(vec![Value::int(1)]));
//!
//! let engine = Engine::prepare(task, LearnerConfig::fast())?;
//! let learned = engine.learn(Strategy::DLearn)?;
//! let service = PredictorService::new(engine.predictor(&learned)?, ServiceConfig::default());
//! let results = service.predict_batch(&[tuple(vec![Value::int(1)])]);
//! assert!(results[0].is_ok());
//! assert!(service.metrics().served >= 1);
//!
//! // Hot swap: re-publish a (re-)learned model without stopping traffic.
//! let next = service.publish(engine.predictor(&learned)?)?;
//! assert_eq!(next, service.epoch());
//! assert_eq!(service.metrics().swaps, 1);
//! # Ok::<(), dlearn_core::DlearnError>(())
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use dlearn_logic::CancelToken;
use dlearn_relstore::Tuple;

use crate::coverage::{CoverageOutcome, GroundExample};
use crate::engine::Predictor;
use crate::error::DlearnError;
use crate::fault;

/// Per-call resource budget for one served example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline per example. The subsumption search polls the
    /// clock against it every
    /// [`CANCEL_CHECK_INTERVAL`](dlearn_logic::CANCEL_CHECK_INTERVAL) steps,
    /// so a blown deadline surfaces as [`DlearnError::DeadlineExceeded`]
    /// within one poll interval instead of hanging. A deadline too far out
    /// to represent as an [`Instant`] (such as [`Duration::MAX`]) means no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Cap on subsumption search steps per search, applied on top of (never
    /// above) the session's `subsumption.max_steps`. Exhausted searches act
    /// as "not covered" and are counted in the verdict.
    pub max_subsumption_steps: Option<usize>,
}

impl Budget {
    /// No deadline and no extra step cap.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Set the per-example deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Set the per-search subsumption step cap (builder style).
    pub fn with_max_subsumption_steps(mut self, steps: usize) -> Budget {
        self.max_subsumption_steps = Some(steps);
        self
    }
}

/// Configuration of a [`PredictorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total ground-example cache capacity across all shards: the cache
    /// never holds more groundings. `0` disables caching entirely (every
    /// serve re-grounds).
    pub cache_capacity: usize,
    /// Number of cache shards; rounded up to a power of two, and down to
    /// one shard per entry when the capacity is smaller. More shards mean
    /// less lock contention under concurrent batches.
    pub cache_shards: usize,
    /// Worker threads for batch fan-out (`0` = the session config's
    /// coverage-thread resolution).
    pub worker_threads: usize,
    /// Default budget applied by [`PredictorService::predict_batch`];
    /// [`PredictorService::predict_batch_with`] overrides it per call.
    pub budget: Budget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 4096,
            cache_shards: 8,
            worker_threads: 0,
            budget: Budget::default(),
        }
    }
}

/// One successful serving verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeVerdict {
    /// Whether the definition covers the example (Definition 3.4).
    pub covered: bool,
    /// Subsumption searches that ran out of step budget while deciding.
    /// Non-zero means the verdict may be degraded: an exhausted search acts
    /// as "not covered", exactly as in training, but here it is observable.
    pub exhausted_searches: u32,
    /// Epoch of the model snapshot that produced this verdict (the first
    /// published model is epoch 1). Under a hot swap, in-flight batches
    /// finish on their old epoch — this field says which model answered.
    pub epoch: u64,
}

impl ServeVerdict {
    /// `true` when at least one subsumption search was cut short by the
    /// step budget, i.e. the verdict is potentially weaker than the
    /// unbounded decision.
    pub fn is_degraded(&self) -> bool {
        self.exhausted_searches > 0
    }
}

/// Per-example serving result: a verdict, or a typed error scoped to this
/// example alone ([`DlearnError::DeadlineExceeded`],
/// [`DlearnError::WorkerPanicked`], [`DlearnError::PredictArity`]).
pub type ServeResult = Result<ServeVerdict, DlearnError>;

counter_table! {
    /// A point-in-time snapshot of a service's counters.
    pub struct ServiceMetrics counted by Counters {
        /// Examples served to a successful verdict.
        served,
        /// Ground-example cache hits.
        cache_hits,
        /// Ground-example cache misses (fresh groundings).
        cache_misses,
        /// Cache entries evicted by the clock hand.
        cache_evictions,
        /// Serves of a quarantined tuple (served fresh, never re-cached).
        quarantine_hits,
        /// Examples that blew their deadline.
        deadline_exceeded,
        /// Worker panics caught and isolated.
        worker_panics,
        /// Total budget-exhausted subsumption searches across all serves.
        budget_exhausted_searches,
        /// Successful verdicts with at least one exhausted search.
        degraded_verdicts,
        /// Inputs rejected before serving (wrong arity).
        rejected_inputs,
        /// Cache entries evicted by [`PredictorService::apply_delta`] because
        /// their grounding probed a changed value.
        delta_evictions,
        /// Successful model publications — [`PredictorService::publish`] plus
        /// committed [`PredictorService::apply_delta`] calls.
        swaps,
        /// Cache entries a full [`PredictorService::publish`] dropped: its
        /// successor starts with an empty cache, so every grounding the
        /// displaced epoch held at the publication goes with it.
        epoch_evictions,
    }
}

/// One clock-cache entry.
struct CacheEntry {
    key: Tuple,
    value: Arc<GroundExample>,
    referenced: bool,
}

/// A fixed-capacity clock (second-chance) cache shard. The hand sweeps the
/// entry ring on eviction, clearing reference bits until it finds a victim —
/// LRU-approximating with O(1) hits and no per-hit reordering.
#[derive(Default)]
struct Shard {
    entries: Vec<CacheEntry>,
    index: HashMap<Tuple, usize>,
    hand: usize,
}

impl Shard {
    fn get(&mut self, key: &Tuple) -> Option<Arc<GroundExample>> {
        let &i = self.index.get(key)?;
        self.entries[i].referenced = true;
        Some(self.entries[i].value.clone())
    }

    /// Insert, returning the number of clock evictions (0 or 1).
    fn insert(&mut self, key: Tuple, value: Arc<GroundExample>, capacity: usize) -> u64 {
        if capacity == 0 {
            return 0;
        }
        if let Some(&i) = self.index.get(&key) {
            self.entries[i].value = value;
            self.entries[i].referenced = true;
            return 0;
        }
        if self.entries.len() < capacity {
            self.index.insert(key.clone(), self.entries.len());
            self.entries.push(CacheEntry {
                key,
                value,
                referenced: false,
            });
            return 0;
        }
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.entries.len();
            if self.entries[i].referenced {
                self.entries[i].referenced = false;
            } else {
                self.index.remove(&self.entries[i].key);
                self.index.insert(key.clone(), i);
                self.entries[i] = CacheEntry {
                    key,
                    value,
                    referenced: false,
                };
                return 1;
            }
        }
    }

    /// The cache walk of a publication: evict the entries whose grounding
    /// is `affected` (every entry for a full publish; for a delta, those
    /// that probed a changed value, so each survivor is provably
    /// bit-identical to a fresh grounding over the mutated database). The
    /// survivors keep their ring order. Returns the number evicted.
    fn evict(&mut self, mut affected: impl FnMut(&GroundExample) -> bool) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|entry| !affected(&entry.value));
        let evicted = before - self.entries.len();
        if evicted > 0 {
            self.index.clear();
            for (i, entry) in self.entries.iter().enumerate() {
                self.index.insert(entry.key.clone(), i);
            }
            self.hand = 0;
        }
        evicted as u64
    }
}

/// Maximum tuples remembered by the quarantine ring; beyond it the oldest
/// entries are forgotten (they become cacheable again — bounded memory wins
/// over a perfect permanent ban).
const QUARANTINE_CAP: usize = 4096;

#[derive(Default)]
struct Quarantine {
    set: HashSet<Tuple>,
    order: VecDeque<Tuple>,
}

impl Quarantine {
    fn insert(&mut self, tuple: Tuple) {
        if self.set.insert(tuple.clone()) {
            self.order.push_back(tuple);
            while self.order.len() > QUARANTINE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, tuple: &Tuple) -> bool {
        self.set.contains(tuple)
    }
}

/// One published model: the epoch number, the predictor state serving it and
/// the ground-example cache filled under it. Readers clone the whole
/// snapshot out of the service's model cell, so a batch never observes half
/// of one model and half of another, nor a grounding cached under another.
struct EpochModel {
    epoch: u64,
    predictor: Predictor,
    /// Clock shards, a power of two of them.
    cache: Vec<Mutex<Shard>>,
}

impl EpochModel {
    /// The locked cache shard `tuple` hashes to.
    fn shard(&self, tuple: &Tuple) -> MutexGuard<'_, Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tuple.hash(&mut h);
        self.cache[(h.finish() as usize) & (self.cache.len() - 1)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

/// A long-lived, `Send + Sync` serving front-end over a [`Predictor`]: see
/// the [module docs](crate::service) for the resilience contract.
pub struct PredictorService {
    /// The epoch-versioned model and its cache. Batches clone one snapshot
    /// out under the read lock; publications swap in a successor under the
    /// write lock.
    model: RwLock<Arc<EpochModel>>,
    config: ServiceConfig,
    per_shard_capacity: usize,
    quarantine: Mutex<Quarantine>,
    counters: Counters,
    /// Serializes publications ([`PredictorService::publish`] /
    /// [`PredictorService::apply_delta`]), so the epoch a publication
    /// derives from the installed one is still the installed one when it
    /// installs its successor.
    publish_lock: Mutex<()>,
    /// Set by a panic mid-publication: the old epoch keeps serving, but
    /// selective delta publications are refused until a clean full
    /// [`PredictorService::publish`].
    swap_quarantined: AtomicBool,
}

impl PredictorService {
    /// Wrap a predictor for serving; it becomes epoch 1.
    pub fn new(predictor: Predictor, config: ServiceConfig) -> PredictorService {
        // Never more shards than entries, and an even split rounded down,
        // so the shards together hold at most `cache_capacity` groundings.
        let mut shard_count = config.cache_shards.max(1).next_power_of_two();
        while shard_count > config.cache_capacity.max(1) {
            shard_count /= 2;
        }
        let per_shard_capacity = config.cache_capacity / shard_count;
        PredictorService {
            model: RwLock::new(Arc::new(EpochModel {
                epoch: 1,
                predictor,
                cache: (0..shard_count).map(|_| Mutex::default()).collect(),
            })),
            config,
            per_shard_capacity,
            quarantine: Mutex::new(Quarantine::default()),
            counters: Counters::default(),
            publish_lock: Mutex::new(()),
            swap_quarantined: AtomicBool::new(false),
        }
    }

    /// The epoch of the currently installed model (the model a batch
    /// starting *now* would serve with). The first model is epoch 1.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Delta sequence of the currently installed model (see
    /// [`Predictor::delta_seq`]).
    pub fn delta_seq(&self) -> u64 {
        self.current().predictor.delta_seq()
    }

    /// The installed model: the read lock is held only to clone the `Arc`.
    fn current(&self) -> Arc<EpochModel> {
        self.model.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The one publication path: build the successor of the installed model
    /// (epoch + 1), move each cache shard into it minus the entries it may
    /// not inherit, and install it under the write lock. A full publish
    /// (`delta` is `None`) inherits no entry
    /// ([`ServiceMetrics::epoch_evictions`]). A delta publication refuses a
    /// quarantined swap path or a report that does not chain from the
    /// served model, then evicts the entries whose recorded probes the
    /// delta touched ([`ServiceMetrics::delta_evictions`]). Returns the new
    /// epoch and the number of entries evicted.
    ///
    /// A panic while building the successor (only reachable via the
    /// fault-injection harness) drops it half-built, leaves the installed
    /// epoch serving and quarantines the swap path.
    fn install(
        &self,
        predictor: Predictor,
        delta: Option<&crate::DeltaReport>,
    ) -> Result<(u64, u64), DlearnError> {
        let _publishing = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.current();
        if let Some(report) = delta {
            if self.swap_quarantined.load(Ordering::Acquire) {
                return Err(DlearnError::SwapQuarantined);
            }
            let served = current.predictor.delta_seq();
            if report.sequence != served + 1 || predictor.delta_seq() != report.sequence {
                return Err(DlearnError::DeltaEpochMismatch {
                    served,
                    report: report.sequence,
                });
            }
        }
        let epoch = current.epoch + 1;
        let successor = crate::par::isolate("swap", || {
            let kind = if delta.is_some() { "delta" } else { "publish" };
            let _ = fault::checkpoint(fault::Site::Swap, format_args!("{kind}@{epoch}"));
            let mut evicted = 0;
            let cache = current
                .cache
                .iter()
                .map(|shard| {
                    let mut moved =
                        std::mem::take(&mut *shard.lock().unwrap_or_else(|e| e.into_inner()));
                    evicted +=
                        moved.evict(|g| delta.is_none_or(|report| report.affects(&g.probes)));
                    Mutex::new(moved)
                })
                .collect();
            (cache, evicted)
        });
        let (cache, evicted) = match successor {
            Ok(successor) => successor,
            Err(err) => {
                self.swap_quarantined.store(true, Ordering::Release);
                self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
        };
        // `current` still holds the displaced model, so replacing it under
        // the write lock only drops a reference: the model is freed when
        // `current` goes out of scope (no reader waits on its destructor),
        // or by its last in-flight batch.
        *self.model.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(EpochModel {
            epoch,
            predictor,
            cache,
        });
        let evictions = match delta {
            Some(_) => &self.counters.delta_evictions,
            None => &self.counters.epoch_evictions,
        };
        evictions.fetch_add(evicted, Ordering::Relaxed);
        self.counters.swaps.fetch_add(1, Ordering::Relaxed);
        self.swap_quarantined.store(false, Ordering::Release);
        Ok((epoch, evicted))
    }

    /// `true` after a panic mid-publication: the previous epoch keeps
    /// serving, selective [`PredictorService::apply_delta`] calls are
    /// refused, and a clean full [`PredictorService::publish`] recovers.
    pub fn is_swap_quarantined(&self) -> bool {
        self.swap_quarantined.load(Ordering::Acquire)
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.counters.snapshot()
    }

    /// Atomically publish a (re-)learned model as a fresh epoch with an
    /// empty cache, returning the new epoch number. In-flight batches finish
    /// on the epoch (and cache) they loaded; batches starting after the
    /// publish serve the new model.
    ///
    /// This is also the recovery path after a swap quarantine: a clean
    /// publish installs a fresh epoch and lifts the quarantine. A panic
    /// inside the publication (only reachable via the fault-injection
    /// harness) leaves the old epoch serving and quarantines the swap path.
    pub fn publish(&self, predictor: Predictor) -> Result<u64, DlearnError> {
        self.install(predictor, None).map(|(epoch, _)| epoch)
    }

    /// Publish a post-delta predictor, handing it the cache of the served
    /// epoch: entries whose recorded probes intersect the delta's change set
    /// (see [`crate::DeltaReport::affects`]) are evicted, and every
    /// surviving entry — provably bit-identical to a fresh grounding over
    /// the mutated database — moves to the new epoch, so cache-on and
    /// cache-off serving stay in parity across deltas. Returns the number of
    /// delta-evicted entries.
    ///
    /// The report must chain directly from the served model: its
    /// [`crate::DeltaReport::sequence`] has to be the served
    /// [`Predictor::delta_seq`] plus one, and `predictor` must be re-bound
    /// at that sequence — anything else (out-of-order reports, a predictor
    /// from a different engine session) is refused with
    /// [`DlearnError::DeltaEpochMismatch`] and the served model stays
    /// untouched. While the swap path is quarantined the call is refused
    /// with [`DlearnError::SwapQuarantined`];
    /// [`PredictorService::publish`] recovers.
    pub fn apply_delta(
        &self,
        predictor: Predictor,
        report: &crate::DeltaReport,
    ) -> Result<u64, DlearnError> {
        self.install(predictor, Some(report))
            .map(|(_, evicted)| evicted)
    }

    /// Drop every ground example cached under the installed model (counters
    /// are kept). Used by the cold-cache benchmarks.
    pub fn clear_cache(&self) {
        for shard in &self.current().cache {
            *shard.lock().unwrap_or_else(|e| e.into_inner()) = Shard::default();
        }
    }

    /// Serve a batch under the service's default budget. Results are
    /// index-aligned with `examples`; every error is scoped to its example —
    /// the batch as a whole always completes.
    pub fn predict_batch(&self, examples: &[Tuple]) -> Vec<ServeResult> {
        self.predict_batch_with(examples, &self.config.budget)
    }

    /// Serve a batch under an explicit per-call budget. The whole batch
    /// runs against one model snapshot: a concurrent
    /// [`PredictorService::publish`] never splits a batch across epochs.
    pub fn predict_batch_with(&self, examples: &[Tuple], budget: &Budget) -> Vec<ServeResult> {
        // One consistent snapshot per batch; a concurrent publish retires
        // the epoch, not this batch.
        let model = self.current();
        // Reject malformed inputs per position, keeping the valid ones.
        let mut results: Vec<Option<ServeResult>> = examples
            .iter()
            .enumerate()
            .map(|(index, e)| match model.predictor.check_arity(e, index) {
                Ok(()) => None,
                Err(err) => {
                    self.counters
                        .rejected_inputs
                        .fetch_add(1, Ordering::Relaxed);
                    Some(Err(err))
                }
            })
            .collect();

        // Dedup the valid tuples in first-occurrence order, exactly like
        // `Predictor::predict_batch`: serving is a pure function of the
        // tuple (given the snapshot), so each distinct tuple is served once
        // per batch.
        let valid: Vec<usize> = (0..examples.len())
            .filter(|&i| results[i].is_none())
            .collect();
        let (unique, slots) = crate::par::dedup(valid.iter().map(|&i| &examples[i]));

        let threads = if self.config.worker_threads > 0 {
            self.config.worker_threads
        } else {
            model.predictor.config().effective_threads()
        };
        let builder = model.predictor.builder();
        let served = crate::par::chunked_map(&unique, threads, 2, (), |_, _, e| {
            crate::par::isolate("serve", || self.serve_one(&model, &builder, e, budget))
        });

        // Isolated panics become typed per-example errors, and the tuple is
        // quarantined so it can never poison the cache.
        let served: Vec<ServeResult> = served
            .into_iter()
            .zip(&unique)
            .map(|(r, e)| {
                r.unwrap_or_else(|err| {
                    self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                    self.quarantine
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert((*e).clone());
                    Err(err)
                })
            })
            .collect();

        for (&i, &slot) in valid.iter().zip(&slots) {
            results[i] = Some(served[slot].clone());
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot is filled"))
            .collect()
    }

    /// Serve one (pre-validated) example end to end against one model
    /// snapshot: the deadline, the snapshot's cache or a fresh grounding,
    /// and coverage under the effective step budget.
    fn serve_one(
        &self,
        model: &EpochModel,
        builder: &crate::bottom::BottomClauseBuilder<'_>,
        example: &Tuple,
        budget: &Budget,
    ) -> ServeResult {
        // Parity with `Predictor::predict`: an empty definition covers
        // nothing and never grounds.
        let decided = if model.predictor.definition().is_empty() {
            Some((false, 0))
        } else {
            let cancel = budget
                .deadline
                .and_then(|d| Instant::now().checked_add(d))
                .map(CancelToken::with_deadline);
            self.cover(model, builder, example, budget, cancel.as_ref())
        };
        let Some((covered, exhausted)) = decided else {
            self.counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Err(DlearnError::DeadlineExceeded {
                budget_ms: budget.deadline.map_or(0, |d| d.as_millis() as u64),
            });
        };
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        if exhausted > 0 {
            self.counters
                .budget_exhausted_searches
                .fetch_add(exhausted as u64, Ordering::Relaxed);
            self.counters
                .degraded_verdicts
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(ServeVerdict {
            covered,
            exhausted_searches: exhausted,
            epoch: model.epoch,
        })
    }

    /// Decide `(covered, exhausted searches)` for `example`, grounding it
    /// unless the snapshot's cache holds it; `None` once `cancel`'s deadline
    /// has passed.
    fn cover(
        &self,
        model: &EpochModel,
        builder: &crate::bottom::BottomClauseBuilder<'_>,
        example: &Tuple,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> Option<(bool, u32)> {
        let expired = || cancel.is_some_and(CancelToken::is_cancelled);
        if expired() {
            return None;
        }
        let cached = match self.per_shard_capacity {
            0 => None,
            _ => model.shard(example).get(example),
        };
        let fresh = cached.is_none();
        let ground = match cached {
            Some(g) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                g
            }
            None => {
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                // Budget exhaustion is a coverage-site fault; at grounding
                // only panics and delays apply, both executed inside.
                let _ = fault::checkpoint(fault::Site::Grounding, example);
                Arc::new(model.predictor.ground(builder, example))
            }
        };
        if expired() {
            return None;
        }

        let coverage_action = fault::checkpoint(fault::Site::Coverage, example);
        // A stall before the search (the checkpoint above can sleep) may
        // burn the whole deadline in one place; the in-search poll only
        // fires every `CANCEL_CHECK_INTERVAL` steps, so a short search
        // would otherwise return a late verdict instead of timing out.
        if expired() {
            return None;
        }
        let mut sub = model.predictor.config().subsumption;
        if let Some(cap) = budget.max_subsumption_steps {
            sub.max_steps = sub.max_steps.min(cap);
        }
        if coverage_action == fault::Action::ExhaustBudget {
            sub.max_steps = 0;
        }

        let decided = match model.predictor.decide(&ground, &sub, cancel) {
            CoverageOutcome::Cancelled => return None,
            CoverageOutcome::Covered { exhausted_searches } => (true, exhausted_searches),
            CoverageOutcome::NotCovered { exhausted_searches } => (false, exhausted_searches),
        };

        // Only a fully successful serve populates the cache — and never for
        // a quarantined tuple.
        if fresh && self.per_shard_capacity > 0 {
            let quarantined = self
                .quarantine
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(example);
            if quarantined {
                self.counters
                    .quarantine_hits
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                let evictions =
                    model
                        .shard(example)
                        .insert(example.clone(), ground, self.per_shard_capacity);
                self.counters
                    .cache_evictions
                    .fetch_add(evictions, Ordering::Relaxed);
            }
        }
        Some(decided)
    }
}

impl std::fmt::Debug for PredictorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let model = self.current();
        f.debug_struct("PredictorService")
            .field("epoch", &model.epoch)
            .field("predictor", &model.predictor)
            .field("cache_capacity", &self.config.cache_capacity)
            .field("cache_shards", &model.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ground_stub(tag: i64) -> Arc<GroundExample> {
        use dlearn_logic::{Clause, Literal, Term};
        let clause = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        Arc::new(GroundExample::from_clause(
            dlearn_relstore::tuple(vec![dlearn_relstore::Value::int(tag)]),
            &clause,
            &crate::LearnerConfig::fast(),
        ))
    }

    fn key(tag: i64) -> Tuple {
        dlearn_relstore::tuple(vec![dlearn_relstore::Value::int(tag)])
    }

    fn hit(shard: &mut Shard, key: &Tuple) -> bool {
        shard.get(key).is_some()
    }

    #[test]
    fn clock_shard_evicts_unreferenced_entries_first() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 2), 0);
        assert_eq!(shard.insert(key(2), ground_stub(2), 2), 0);
        // Touch key 1 so its reference bit protects it for one sweep.
        assert!(hit(&mut shard, &key(1)));
        assert_eq!(shard.insert(key(3), ground_stub(3), 2), 1);
        assert!(hit(&mut shard, &key(1)), "referenced entry survived");
        assert!(!hit(&mut shard, &key(2)), "unreferenced entry evicted");
        assert!(hit(&mut shard, &key(3)));
    }

    #[test]
    fn zero_capacity_disables_the_shard() {
        let mut shard = Shard::default();
        assert_eq!(shard.insert(key(1), ground_stub(1), 0), 0);
        assert!(!hit(&mut shard, &key(1)));
    }

    #[test]
    fn delta_walk_evicts_affected_entries_and_keeps_the_rest() {
        let mut shard = Shard::default();
        for tag in 1..=3 {
            shard.insert(key(tag), ground_stub(tag), 8);
        }
        let affected = key(2);
        assert_eq!(shard.evict(|g| g.example == affected), 1);
        assert!(hit(&mut shard, &key(1)));
        assert!(!hit(&mut shard, &key(2)));
        assert!(hit(&mut shard, &key(3)), "the index follows the survivors");
    }

    #[test]
    fn publish_releases_the_displaced_model() {
        use crate::learner::test_fixtures::two_source_task;
        use crate::{Engine, LearnerConfig, Strategy};

        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), LearnerConfig::fast()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let bind = || engine.predictor(&learned).expect("bind predictor");
        let service = PredictorService::new(bind(), ServiceConfig::default());
        assert!(service
            .predict_batch(&task.positives)
            .iter()
            .all(Result::is_ok));

        // A batch in flight holds the snapshot it loaded.
        let in_flight = service.current();
        let epoch1 = Arc::downgrade(&in_flight);
        assert_eq!(service.publish(bind()).expect("publish"), 2);
        assert!(
            epoch1.upgrade().is_some(),
            "epoch 1 was freed under its batch"
        );
        drop(in_flight);
        assert!(
            epoch1.upgrade().is_none(),
            "epoch 1 outlived its last batch"
        );

        // With no batch in flight, a publication frees the model it displaces.
        let epoch2 = Arc::downgrade(&service.current());
        assert_eq!(service.publish(bind()).expect("publish"), 3);
        assert!(
            epoch2.upgrade().is_none(),
            "epoch 2 outlived its publication"
        );
        assert_eq!(service.epoch(), 3);
    }

    #[test]
    fn a_full_publish_frees_the_groundings_the_displaced_epoch_cached() {
        use crate::learner::test_fixtures::two_source_task;
        use crate::{Engine, LearnerConfig, Strategy};

        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), LearnerConfig::fast()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let bind = || engine.predictor(&learned).expect("bind predictor");
        let service = PredictorService::new(bind(), ServiceConfig::default());
        let example = &task.positives[0];
        assert!(service.predict_batch(std::slice::from_ref(example))[0].is_ok());
        let cached = {
            let model = service.current();
            let ground = model.shard(example).get(example).expect("cached");
            Arc::downgrade(&ground)
        };
        assert!(cached.upgrade().is_some());

        assert_eq!(service.publish(bind()).expect("publish"), 2);
        assert!(
            cached.upgrade().is_none(),
            "a grounding of epoch 1 outlived its publication"
        );
        assert_eq!(service.metrics().epoch_evictions, 1);
    }

    #[test]
    fn quarantine_is_bounded_and_forgets_oldest() {
        let mut q = Quarantine::default();
        for i in 0..(QUARANTINE_CAP as i64 + 10) {
            q.insert(key(i));
        }
        assert!(!q.contains(&key(0)), "oldest entries are forgotten");
        assert!(q.contains(&key(QUARANTINE_CAP as i64 + 9)));
        assert_eq!(q.set.len(), QUARANTINE_CAP);
    }
}
