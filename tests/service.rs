//! The serving tier's functional contract (no fault injection — see
//! `tests/service_robustness.rs` for the injected-failure suite):
//!
//! * **Cache-on/off verdict parity** — grounding is a pure function of the
//!   tuple, so serving through the ground-example cache must be
//!   bit-identical to serving without it, and to a sequential
//!   `Predictor::predict` loop, across 1/2/8 worker threads, cold and warm.
//! * **Deadlines** — a zero deadline fails every example with a typed
//!   `DeadlineExceeded`, the batch still completes, and nothing hangs; a
//!   deadline or coalescer linger too long to represent (`Duration::MAX`)
//!   means no limit.
//! * **Degradation accounting** — a zeroed subsumption budget turns silent
//!   "no"s into counted exhausted searches on the verdict and in metrics.
//! * **Per-example errors** — a wrong-arity tuple fails alone; its
//!   neighbors serve normally.

use std::time::Duration;

use dlearn::core::{
    Budget, DlearnError, Engine, LearnerConfig, Predictor, PredictorService, ServiceConfig,
    Strategy,
};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::relstore::{tuple, Tuple, Value};

fn config(coverage_threads: usize) -> LearnerConfig {
    LearnerConfig {
        coverage_threads,
        seed: 7,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

fn serving_fixture() -> (Engine, dlearn::core::Learned, Vec<Tuple>) {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let engine = Engine::prepare(dataset.task.clone(), config(1)).expect("valid task");
    let learned = engine.learn(Strategy::DLearn).expect("learn");
    // A serving-style trace with duplicates so the dedup and cache paths
    // both see traffic.
    let trace: Vec<Tuple> = (0..3)
        .flat_map(|_| {
            dataset
                .task
                .positives
                .iter()
                .chain(dataset.task.negatives.iter())
                .cloned()
        })
        .collect();
    (engine, learned, trace)
}

fn predictor(engine: &Engine, learned: &dlearn::core::Learned) -> Predictor {
    engine.predictor(learned).expect("bind predictor")
}

#[test]
fn cache_on_and_off_verdicts_match_the_predictor_at_any_thread_count() {
    let (engine, learned, trace) = serving_fixture();
    let baseline: Vec<bool> = {
        let p = predictor(&engine, &learned);
        trace
            .iter()
            .map(|e| p.predict(e).expect("predict"))
            .collect()
    };
    assert!(
        baseline.iter().any(|&b| b) && baseline.iter().any(|&b| !b),
        "trace verdicts are uniform; the parity test is vacuous"
    );
    for workers in [1usize, 2, 8] {
        for cache_capacity in [0usize, 4096] {
            let service = PredictorService::new(
                predictor(&engine, &learned),
                ServiceConfig {
                    cache_capacity,
                    worker_threads: workers,
                    ..ServiceConfig::default()
                },
            );
            for pass in ["cold", "warm"] {
                let results = service.predict_batch(&trace);
                let verdicts: Vec<bool> = results
                    .iter()
                    .map(|r| r.as_ref().expect("serve").covered)
                    .collect();
                assert_eq!(
                    baseline, verdicts,
                    "workers={workers}, cache={cache_capacity}, {pass} pass diverged"
                );
                assert!(
                    results.iter().all(|r| !r.as_ref().unwrap().is_degraded()),
                    "unbudgeted serving must not degrade"
                );
            }
            let metrics = service.metrics();
            if cache_capacity > 0 {
                assert!(metrics.cache_hits > 0, "warm pass produced no cache hits");
            } else {
                assert_eq!(metrics.cache_hits, 0, "disabled cache reported hits");
            }
        }
    }
}

#[test]
fn tiny_cache_evicts_and_counts() {
    let (engine, learned, trace) = serving_fixture();
    let distinct = {
        let mut seen = std::collections::HashSet::new();
        trace.iter().filter(|t| seen.insert(*t)).count()
    };
    // One shard, and the default shard count (more shards than entries).
    for cache_shards in [1, ServiceConfig::default().cache_shards] {
        let service = PredictorService::new(
            predictor(&engine, &learned),
            ServiceConfig {
                cache_capacity: 2,
                cache_shards,
                worker_threads: 1,
                ..ServiceConfig::default()
            },
        );
        // Two passes over a trace with far more distinct tuples than capacity.
        let first = service.predict_batch(&trace);
        let second = service.predict_batch(&trace);
        assert!(first.iter().chain(&second).all(|r| r.is_ok()));
        let metrics = service.metrics();
        assert!(distinct > 2, "fixture too small to exercise eviction");
        assert!(metrics.cache_evictions > 0, "{metrics:?}");
        assert_eq!(
            metrics.served,
            2 * distinct as u64,
            "each distinct tuple serves once per batch: {metrics:?}"
        );
        // Every miss inserts and every eviction replaces an entry, so this
        // is what the cache holds: never more than its capacity.
        assert!(
            metrics.cache_misses - metrics.cache_evictions <= 2,
            "shards={cache_shards}: {metrics:?}"
        );
        // Verdicts are still correct under heavy eviction.
        let baseline = predictor(&engine, &learned)
            .predict_batch(&trace)
            .expect("predict");
        let verdicts: Vec<bool> = second.iter().map(|r| r.as_ref().unwrap().covered).collect();
        assert_eq!(baseline, verdicts);
    }
}

#[test]
fn zero_deadline_fails_every_example_without_hanging_the_batch() {
    let (engine, learned, trace) = serving_fixture();
    let service = PredictorService::new(predictor(&engine, &learned), ServiceConfig::default());
    let start = std::time::Instant::now();
    let results =
        service.predict_batch_with(&trace, &Budget::unlimited().with_deadline(Duration::ZERO));
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "zero-deadline batch took {:?}",
        start.elapsed()
    );
    assert_eq!(results.len(), trace.len());
    for r in &results {
        assert!(
            matches!(r, Err(DlearnError::DeadlineExceeded { budget_ms: 0 })),
            "{r:?}"
        );
    }
    let metrics = service.metrics();
    assert!(metrics.deadline_exceeded > 0, "{metrics:?}");
    assert_eq!(metrics.served, 0, "{metrics:?}");
    // The failed groundings were never cached; a normal pass still works.
    let ok = service.predict_batch(&trace);
    assert!(ok.iter().all(|r| r.is_ok()));
}

#[test]
fn an_unrepresentable_deadline_serves_like_no_deadline() {
    let (engine, learned, trace) = serving_fixture();
    let service = PredictorService::new(predictor(&engine, &learned), ServiceConfig::default());
    let unlimited = service.predict_batch_with(&trace, &Budget::unlimited());
    let results =
        service.predict_batch_with(&trace, &Budget::unlimited().with_deadline(Duration::MAX));
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    assert_eq!(results, unlimited);
    let metrics = service.metrics();
    assert_eq!(metrics.worker_panics, 0, "{metrics:?}");
    assert_eq!(metrics.deadline_exceeded, 0, "{metrics:?}");
}

#[test]
fn an_unrepresentable_linger_drains_a_full_batch() {
    use dlearn::core::{CoalesceConfig, Coalescer};
    use std::sync::{mpsc, Arc};

    let (engine, learned, trace) = serving_fixture();
    let service = Arc::new(PredictorService::new(
        predictor(&engine, &learned),
        ServiceConfig::default(),
    ));
    let max_coalesce = 4;
    let items: Vec<(Tuple, Budget)> = trace
        .iter()
        .take(max_coalesce)
        .map(|t| (t.clone(), Budget::unlimited()))
        .collect();
    let expected = service.predict_batch_with(
        &items.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
        &Budget::unlimited(),
    );
    // On its own thread, so a batcher that never drains fails the test at
    // the timeout instead of hanging it.
    let (done, finished) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let coalescer = Coalescer::new(
            service,
            CoalesceConfig {
                max_coalesce,
                max_wait: Duration::MAX,
                ..CoalesceConfig::default()
            },
        );
        let results = coalescer.submit_many_with(&items);
        let _ = done.send((results, coalescer.metrics()));
    });
    let (results, metrics) = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("a full batch drains under an unrepresentable linger");
    caller.join().expect("the caller thread finished cleanly");
    assert_eq!(results, expected);
    assert_eq!(metrics.batches, 1, "{metrics:?}");
    assert_eq!(metrics.full_drains, 1, "{metrics:?}");
    assert_eq!(metrics.timer_drains, 0, "{metrics:?}");
}

#[test]
fn zeroed_subsumption_budget_degrades_observably_instead_of_silently() {
    let (engine, learned, trace) = serving_fixture();
    let service = PredictorService::new(predictor(&engine, &learned), ServiceConfig::default());
    let results =
        service.predict_batch_with(&trace, &Budget::unlimited().with_max_subsumption_steps(0));
    // Every search that actually enters the subsumption backtracker exhausts
    // immediately: no verdict can be "covered", and the exhaustion shows up
    // on the affected verdicts. (Examples rejected by the pre-search filters
    // are conclusive "no"s without a search, so not every verdict degrades.)
    for r in &results {
        let v = r.as_ref().expect("serve");
        assert!(!v.covered, "a zero-step search cannot prove coverage");
    }
    assert!(
        results
            .iter()
            .any(|r| r.as_ref().expect("serve").is_degraded()),
        "no verdict was flagged degraded under a zero step budget"
    );
    let metrics = service.metrics();
    assert!(metrics.budget_exhausted_searches > 0, "{metrics:?}");
    assert!(metrics.degraded_verdicts > 0, "{metrics:?}");
    // An unbudgeted pass over the same service is unaffected (the degraded
    // pass cached only fully-successful serves, which these were — the
    // ground example is sound either way).
    let baseline = predictor(&engine, &learned)
        .predict_batch(&trace)
        .expect("predict");
    let verdicts: Vec<bool> = service
        .predict_batch(&trace)
        .iter()
        .map(|r| r.as_ref().expect("serve").covered)
        .collect();
    assert_eq!(baseline, verdicts);
}

#[test]
fn wrong_arity_examples_fail_alone_and_are_counted() {
    let (engine, learned, trace) = serving_fixture();
    let service = PredictorService::new(predictor(&engine, &learned), ServiceConfig::default());
    let mut batch = trace.clone();
    batch.insert(2, tuple(vec![Value::int(1), Value::int(2)]));
    let results = service.predict_batch(&batch);
    assert_eq!(results.len(), batch.len());
    assert!(
        matches!(
            &results[2],
            Err(DlearnError::PredictArity {
                expected: 1,
                actual: 2,
                index: 2
            })
        ),
        "{:?}",
        results[2]
    );
    let baseline = predictor(&engine, &learned)
        .predict_batch(&trace)
        .expect("predict");
    let rest: Vec<bool> = results
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 2)
        .map(|(_, r)| r.as_ref().expect("serve").covered)
        .collect();
    assert_eq!(baseline, rest, "neighbors of the rejected tuple diverged");
    assert_eq!(service.metrics().rejected_inputs, 1);
}

#[test]
fn service_is_send_and_sync_and_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PredictorService>();

    // Concurrent batches through one shared service agree with the
    // sequential baseline.
    let (engine, learned, trace) = serving_fixture();
    let baseline = predictor(&engine, &learned)
        .predict_batch(&trace)
        .expect("predict");
    let service = PredictorService::new(predictor(&engine, &learned), ServiceConfig::default());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = &service;
                let trace = &trace;
                scope.spawn(move || {
                    service
                        .predict_batch(trace)
                        .iter()
                        .map(|r| r.as_ref().expect("serve").covered)
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(baseline, h.join().expect("no panics"));
        }
    });
}

#[test]
fn coalesced_zero_deadline_and_zero_steps_degrade_only_their_own_requests() {
    // Budget edge cases through the coalescing front-end: requests with a
    // zero deadline fail typed, requests with a zeroed subsumption budget
    // degrade observably, and unlimited requests riding the *same* drained
    // queue are completely unaffected.
    use dlearn::core::{CoalesceConfig, Coalescer};
    use std::sync::Arc;

    let (engine, learned, trace) = serving_fixture();
    let baseline: Vec<bool> = {
        let p = predictor(&engine, &learned);
        trace
            .iter()
            .map(|e| p.predict(e).expect("predict"))
            .collect()
    };
    let service = Arc::new(PredictorService::new(
        predictor(&engine, &learned),
        ServiceConfig::default(),
    ));
    let coalescer = Coalescer::new(service.clone(), CoalesceConfig::default());

    // One mixed submission: per-request budgets interleaved over the trace.
    let budgets = [
        Budget::unlimited().with_deadline(Duration::ZERO),
        Budget::unlimited().with_max_subsumption_steps(0),
        Budget::unlimited(),
    ];
    let items: Vec<(Tuple, Budget)> = trace
        .iter()
        .enumerate()
        .map(|(i, t)| (t.clone(), budgets[i % budgets.len()]))
        .collect();
    let results = coalescer.submit_many_with(&items);
    assert_eq!(results.len(), items.len());
    for (i, r) in results.iter().enumerate() {
        match i % budgets.len() {
            0 => assert!(
                matches!(r, Err(DlearnError::DeadlineExceeded { budget_ms: 0 })),
                "zero-deadline request {i} did not time out: {r:?}"
            ),
            1 => {
                let v = r.as_ref().expect("zero-step serve");
                assert!(!v.covered, "a zero-step search cannot prove coverage");
            }
            _ => {
                let v = r.as_ref().expect("unlimited serve");
                assert_eq!(
                    v.covered, baseline[i],
                    "unlimited request {i} was degraded by its batch neighbors"
                );
                assert!(!v.is_degraded());
            }
        }
    }
    // The zero-step third must have degraded at least one verdict, and the
    // mixed budgets genuinely shared drained batches (the coalescer split
    // them into per-budget service calls, not per-request ones).
    assert!(
        results
            .iter()
            .skip(1)
            .step_by(budgets.len())
            .any(|r| r.as_ref().expect("zero-step serve").is_degraded()),
        "no zero-step request was flagged degraded"
    );
    let metrics = coalescer.metrics();
    assert!(metrics.largest_batch >= 2, "{metrics:?}");
    assert_eq!(metrics.submitted, items.len() as u64, "{metrics:?}");
    let service_metrics = service.metrics();
    assert!(service_metrics.deadline_exceeded > 0, "{service_metrics:?}");
    assert!(
        service_metrics.budget_exhausted_searches > 0,
        "{service_metrics:?}"
    );

    // The edge-case batch never poisoned anything: a follow-up unlimited
    // submission over the same tuples matches the sequential baseline.
    let clean: Vec<(Tuple, Budget)> = trace
        .iter()
        .map(|t| (t.clone(), Budget::unlimited()))
        .collect();
    let verdicts: Vec<bool> = coalescer
        .submit_many_with(&clean)
        .iter()
        .map(|r| r.as_ref().expect("clean serve").covered)
        .collect();
    assert_eq!(verdicts, baseline);
}

#[test]
fn dropped_coalescer_serves_its_queue_and_a_fresh_one_serves_after_it() {
    use dlearn::core::{CoalesceConfig, Coalescer};
    use std::sync::Arc;

    let (engine, learned, trace) = serving_fixture();
    let service = Arc::new(PredictorService::new(
        predictor(&engine, &learned),
        ServiceConfig::default(),
    ));
    let coalescer = Coalescer::new(service.clone(), CoalesceConfig::default());
    // In-flight work completes through the drop (the batcher drains the
    // queue before exiting)...
    let items: Vec<(Tuple, Budget)> = trace
        .iter()
        .take(4)
        .map(|t| (t.clone(), Budget::unlimited()))
        .collect();
    let results = coalescer.submit_many_with(&items);
    assert!(results.iter().all(|r| r.is_ok()));
    drop(coalescer);
    // ...and a fresh coalescer over the same service still works (the
    // service outlives its front-ends).
    let again = Coalescer::new(service.clone(), CoalesceConfig::default());
    let r = again.submit(trace[0].clone());
    assert!(r.is_ok(), "{r:?}");
}
