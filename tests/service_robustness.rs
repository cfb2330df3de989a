//! Fault-injection robustness suite (feature `fault-injection`): proves the
//! serving tier survives poisoned, slow and budget-starved examples —
//! no abort, no hang past the deadline, no cache poisoning — with every
//! failure scoped to its example and typed.
//!
//! Run with `cargo test --features fault-injection`.

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use dlearn::core::{
    Budget, DlearnError, Engine, LearnerConfig, PredictorService, ServiceConfig, Strategy,
};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::relstore::Tuple;
use dlearn_test_support::fault::{self, Fault, FaultPlan, Site};

fn config() -> LearnerConfig {
    LearnerConfig {
        coverage_threads: 1,
        seed: 7,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

struct Fixture {
    engine: Engine,
    learned: dlearn::core::Learned,
    trace: Vec<Tuple>,
    baseline: Vec<bool>,
}

fn fixture() -> Fixture {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let engine = Engine::prepare(dataset.task.clone(), config()).expect("valid task");
    let learned = engine.learn(Strategy::DLearn).expect("learn");
    let trace: Vec<Tuple> = dataset
        .task
        .positives
        .iter()
        .chain(dataset.task.negatives.iter())
        .cloned()
        .collect();
    let predictor = engine.predictor(&learned).expect("bind predictor");
    let baseline: Vec<bool> = trace
        .iter()
        .map(|e| predictor.predict(e).expect("predict"))
        .collect();
    Fixture {
        engine,
        learned,
        trace,
        baseline,
    }
}

fn service(fx: &Fixture, workers: usize) -> PredictorService {
    PredictorService::new(
        fx.engine.predictor(&fx.learned).expect("bind predictor"),
        ServiceConfig {
            worker_threads: workers,
            ..ServiceConfig::default()
        },
    )
}

/// Fault plans are process-global, so a plan one test installs would also
/// fire inside another test's unguarded steps (an injected delta panic
/// inside a neighbour's `apply_delta`). The tests of this suite therefore
/// run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The injection key of a tuple is its display form (what the service hands
/// to the checkpoint).
fn key_of(t: &Tuple) -> String {
    t.to_string()
}

#[test]
fn injected_grounding_panic_isolates_one_example_and_never_poisons_the_cache() {
    let _serial = serial();
    let fx = fixture();
    let victim = fx.trace[1].clone();
    for workers in [1usize, 2, 8] {
        let service = service(&fx, workers);
        {
            let _guard = fault::install(FaultPlan::new(42).on_key(
                Site::Grounding,
                &key_of(&victim),
                Fault::Panic,
            ));
            let results = service.predict_batch(&fx.trace);
            assert_eq!(results.len(), fx.trace.len());
            for (i, r) in results.iter().enumerate() {
                if fx.trace[i] == victim {
                    let Err(DlearnError::WorkerPanicked { site, message }) = r else {
                        panic!("workers={workers}: victim did not fail typed: {r:?}");
                    };
                    assert_eq!(*site, "serve");
                    assert!(message.contains(fault::PANIC_MARKER), "{message}");
                } else {
                    assert_eq!(
                        r.as_ref().expect("healthy example failed").covered,
                        fx.baseline[i],
                        "workers={workers}: neighbor verdict diverged at {i}"
                    );
                }
            }
            assert!(service.metrics().worker_panics >= 1);
            assert!(fault::injected(Site::Grounding) >= 1);
        }
        // Plan cleared: the victim serves correctly now — fresh, because the
        // quarantine kept the poisoned attempt out of the cache — and its
        // verdict equals the no-fault baseline (no cache poisoning).
        let after = service.predict_batch(&fx.trace);
        let verdicts: Vec<bool> = after
            .iter()
            .map(|r| r.as_ref().expect("post-fault serve").covered)
            .collect();
        assert_eq!(
            fx.baseline, verdicts,
            "workers={workers}: post-fault verdicts diverged from baseline"
        );
    }
}

#[test]
fn injected_coverage_delay_blows_only_the_slow_examples_deadline() {
    let _serial = serial();
    let fx = fixture();
    let victim = fx.trace[0].clone();
    let service = service(&fx, 2);
    let _guard = fault::install(FaultPlan::new(7).on_key(
        Site::Coverage,
        &key_of(&victim),
        Fault::Delay(Duration::from_millis(300)),
    ));
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(50));
    let start = std::time::Instant::now();
    let results = service.predict_batch_with(&fx.trace, &budget);
    // The batch completes in bounded wall time: the delay is 300ms per
    // victim occurrence, everything else is fast.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "batch took {:?}",
        start.elapsed()
    );
    for (i, r) in results.iter().enumerate() {
        if fx.trace[i] == victim {
            assert!(
                matches!(r, Err(DlearnError::DeadlineExceeded { budget_ms: 50 })),
                "slow example did not time out: {r:?}"
            );
        } else {
            assert_eq!(
                r.as_ref().expect("fast example failed").covered,
                fx.baseline[i],
                "fast example diverged at {i}"
            );
        }
    }
    assert!(service.metrics().deadline_exceeded >= 1);
}

#[test]
fn injected_budget_exhaustion_degrades_observably_without_errors() {
    let _serial = serial();
    let fx = fixture();
    let service = service(&fx, 1);
    let _guard = fault::install(FaultPlan::new(3).with_probability(
        Site::Coverage,
        1.0,
        Fault::ExhaustBudget,
    ));
    let results = service.predict_batch(&fx.trace);
    for r in &results {
        let v = r.as_ref().expect("exhaustion is not an error");
        assert!(!v.covered, "a zero-step search cannot prove coverage");
    }
    // Examples that never enter the backtracker (pre-search filters reject
    // them conclusively) are sound "no"s, so degradation is asserted on the
    // batch, not per example.
    assert!(
        results
            .iter()
            .any(|r| r.as_ref().expect("serve").is_degraded()),
        "forced exhaustion left no degraded verdicts"
    );
    let metrics = service.metrics();
    assert!(metrics.budget_exhausted_searches > 0, "{metrics:?}");
    assert!(metrics.degraded_verdicts > 0, "{metrics:?}");
    assert!(fault::injected(Site::Coverage) >= fx.trace.len() as u64);
}

#[test]
fn injected_alignment_panic_fails_prepare_with_a_typed_error() {
    let _serial = serial();
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let _guard =
        fault::install(FaultPlan::new(1).with_probability(Site::Alignment, 1.0, Fault::Panic));
    let err = Engine::prepare(dataset.task.clone(), config()).unwrap_err();
    let DlearnError::WorkerPanicked { site, message } = &err else {
        panic!("expected WorkerPanicked, got {err:?}");
    };
    assert_eq!(*site, "prepare");
    assert!(message.contains(fault::PANIC_MARKER), "{message}");
    assert!(fault::injected(Site::Alignment) >= 1);
}

#[test]
fn post_episode_parity_cache_on_vs_off_across_threads() {
    let _serial = serial();
    // After a full fault episode (panics + delays on a few tuples), a
    // recovered service must serve bit-identical verdicts cache-on vs
    // cache-off at every thread count — the oracle-style pin that the
    // quarantine and error paths never leak state into verdicts.
    let fx = fixture();
    let with_cache = service(&fx, 1);
    {
        let _guard = fault::install(
            FaultPlan::new(11)
                .on_key(Site::Grounding, &key_of(&fx.trace[0]), Fault::Panic)
                .on_key(
                    Site::Coverage,
                    &key_of(&fx.trace[1]),
                    Fault::Delay(Duration::from_millis(200)),
                ),
        );
        let _ = with_cache.predict_batch_with(
            &fx.trace,
            &Budget::unlimited().with_deadline(Duration::from_millis(50)),
        );
    }
    for workers in [1usize, 2, 8] {
        let no_cache = PredictorService::new(
            fx.engine.predictor(&fx.learned).expect("bind predictor"),
            ServiceConfig {
                cache_capacity: 0,
                worker_threads: workers,
                ..ServiceConfig::default()
            },
        );
        let cached: Vec<bool> = with_cache
            .predict_batch(&fx.trace)
            .iter()
            .map(|r| r.as_ref().expect("serve").covered)
            .collect();
        let uncached: Vec<bool> = no_cache
            .predict_batch(&fx.trace)
            .iter()
            .map(|r| r.as_ref().expect("serve").covered)
            .collect();
        assert_eq!(cached, uncached, "workers={workers}");
        assert_eq!(cached, fx.baseline, "workers={workers}");
    }
}

#[test]
fn injected_learn_panic_is_typed_per_strategy_and_leaves_the_session_healthy() {
    let _serial = serial();
    // A crash inside any strategy's refinement search must surface as a
    // typed WorkerPanicked{site:"learn"} — keyed by the strategy's display
    // name, so one poisoned learner never blocks the others — and the
    // prepared session must stay fully usable afterwards.
    let fx = fixture();
    {
        let _guard = fault::install(FaultPlan::new(29).on_key(
            Site::Learn,
            Strategy::Tilde.name(),
            Fault::Panic,
        ));
        let err = fx.engine.learn(Strategy::Tilde).unwrap_err();
        let DlearnError::WorkerPanicked { site, message } = &err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(*site, "learn");
        assert!(message.contains(fault::PANIC_MARKER), "{message}");
        assert!(fault::injected(Site::Learn) >= 1);
        // Other strategies are untouched while the plan is still installed:
        // the checkpoint keys on the strategy name.
        let healthy = fx.engine.learn(Strategy::DLearn).expect("unkeyed learn");
        assert_eq!(healthy.definition(), fx.learned.definition());
    }
    // Plan cleared: the poisoned strategy learns normally — the panic never
    // quarantined the session or corrupted shared prepared state.
    let recovered = fx.engine.learn(Strategy::Tilde).expect("recovered learn");
    assert!(!recovered.definition().is_empty());
    let verdicts: Vec<bool> = fx
        .trace
        .iter()
        .map(|e| {
            fx.engine
                .predictor(&fx.learned)
                .expect("bind predictor")
                .predict(e)
                .expect("predict")
        })
        .collect();
    assert_eq!(
        verdicts, fx.baseline,
        "serving state changed after a learn panic"
    );
}

#[test]
fn injected_delta_panic_quarantines_the_session_but_keeps_serving_reads() {
    let _serial = serial();
    // A crash mid-delta-maintenance must be transactional: the engine keeps
    // the last committed state (reads — learn, predict — still serve it
    // bit-identically), and every further delta is refused typed.
    let mut fx = fixture();
    let tx = dlearn::relstore::DeltaTx::new().insert(
        dlearn::relstore::RelId::intern("imdb_movies"),
        dlearn::relstore::tuple(vec![
            dlearn::relstore::Value::int(990_100),
            dlearn::relstore::Value::str("Quarantine Drill"),
            dlearn::relstore::Value::int(2020),
        ]),
    );
    {
        let _guard =
            fault::install(FaultPlan::new(13).with_probability(Site::Delta, 1.0, Fault::Panic));
        let err = fx.engine.apply_delta(&tx).unwrap_err();
        let DlearnError::WorkerPanicked { site, message } = &err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(*site, "delta");
        assert!(message.contains(fault::PANIC_MARKER), "{message}");
        assert!(fault::injected(Site::Delta) >= 1);
    }
    assert!(fx.engine.is_quarantined());
    // Further deltas are refused even with the fault plan cleared...
    assert!(matches!(
        fx.engine.apply_delta(&tx),
        Err(DlearnError::DeltaQuarantined)
    ));
    // ...but the committed pre-delta state still serves reads: the learned
    // definition and every verdict equal the no-fault baseline.
    let relearned = fx
        .engine
        .learn(Strategy::DLearn)
        .expect("quarantined learn");
    assert_eq!(relearned.definition(), fx.learned.definition());
    let verdicts: Vec<bool> = fx
        .trace
        .iter()
        .map(|e| {
            fx.engine
                .predictor(&relearned)
                .expect("bind predictor")
                .predict(e)
                .expect("predict")
        })
        .collect();
    assert_eq!(
        verdicts, fx.baseline,
        "quarantined session no longer serves the committed state"
    );
}

#[test]
fn deadline_during_post_delta_serving_degrades_only_the_victim() {
    let _serial = serial();
    // A delta lands, the service re-binds and keeps serving — and an
    // injected stall on one tuple under a tight deadline must degrade only
    // that tuple, while every neighbor serves the correct *post-delta*
    // verdict.
    let mut fx = fixture();
    let service = service(&fx, 2);
    let tx = dlearn::relstore::DeltaTx::new().insert(
        dlearn::relstore::RelId::intern("imdb_movies"),
        dlearn::relstore::tuple(vec![
            dlearn::relstore::Value::int(990_101),
            dlearn::relstore::Value::str("Deadline Drill"),
            dlearn::relstore::Value::int(2021),
        ]),
    );
    let report = fx.engine.apply_delta(&tx).expect("apply_delta");
    let learned = fx.engine.learn(Strategy::DLearn).expect("post-delta learn");
    service
        .apply_delta(
            fx.engine.predictor(&learned).expect("rebind predictor"),
            &report,
        )
        .expect("service delta");
    let predictor = fx.engine.predictor(&learned).expect("bind predictor");
    let post_delta: Vec<bool> = fx
        .trace
        .iter()
        .map(|e| predictor.predict(e).expect("predict"))
        .collect();
    let victim = fx.trace[0].clone();
    {
        let _guard = fault::install(FaultPlan::new(17).on_key(
            Site::Coverage,
            &key_of(&victim),
            Fault::Delay(Duration::from_millis(300)),
        ));
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(50));
        let results = service.predict_batch_with(&fx.trace, &budget);
        for (i, r) in results.iter().enumerate() {
            if fx.trace[i] == victim {
                assert!(
                    matches!(r, Err(DlearnError::DeadlineExceeded { budget_ms: 50 })),
                    "victim did not time out post-delta: {r:?}"
                );
            } else {
                assert_eq!(
                    r.as_ref().expect("healthy post-delta serve").covered,
                    post_delta[i],
                    "post-delta neighbor verdict diverged at {i}"
                );
            }
        }
        assert!(service.metrics().deadline_exceeded >= 1);
    }
    // Fault cleared: the whole trace serves the post-delta truth.
    let after: Vec<bool> = service
        .predict_batch(&fx.trace)
        .iter()
        .map(|r| r.as_ref().expect("post-fault serve").covered)
        .collect();
    assert_eq!(after, post_delta);
}

#[test]
fn injected_swap_panic_leaves_the_old_epoch_serving_and_quarantines_the_swap_path() {
    let _serial = serial();
    // A panic mid-publication must mirror the engine's delta quarantine: the
    // previous epoch keeps serving the exact committed verdicts, selective
    // delta publications are refused typed, and a clean full publish
    // recovers the swap path.
    let mut fx = fixture();
    let service = service(&fx, 2);
    let epoch_before = service.epoch();
    {
        let _guard =
            fault::install(FaultPlan::new(5).with_probability(Site::Swap, 1.0, Fault::Panic));
        let err = service
            .publish(fx.engine.predictor(&fx.learned).expect("rebind predictor"))
            .expect_err("publish must fail under an injected swap panic");
        let DlearnError::WorkerPanicked { site, message } = err else {
            panic!("swap panic was not typed as WorkerPanicked");
        };
        assert_eq!(site, "swap");
        assert!(message.contains(fault::PANIC_MARKER), "{message}");
        assert!(fault::injected(Site::Swap) >= 1);
    }
    // The failed publication installed nothing: same epoch, same verdicts.
    assert_eq!(service.epoch(), epoch_before);
    assert!(service.is_swap_quarantined());
    let still_serving: Vec<bool> = service
        .predict_batch(&fx.trace)
        .iter()
        .map(|r| r.as_ref().expect("post-panic serve").covered)
        .collect();
    assert_eq!(
        still_serving, fx.baseline,
        "old epoch no longer serves the committed verdicts after a swap panic"
    );

    // Selective delta publication is refused while quarantined — even a
    // perfectly chained one — and leaves the epoch untouched.
    let tx = dlearn::relstore::DeltaTx::new().insert(
        dlearn::relstore::RelId::intern("imdb_movies"),
        dlearn::relstore::tuple(vec![
            dlearn::relstore::Value::int(990_202),
            dlearn::relstore::Value::str("Quarantine Drill"),
            dlearn::relstore::Value::int(2022),
        ]),
    );
    let report = fx.engine.apply_delta(&tx).expect("engine delta");
    let relearned = fx.engine.learn(Strategy::DLearn).expect("post-delta learn");
    let err = service
        .apply_delta(
            fx.engine.predictor(&relearned).expect("rebind predictor"),
            &report,
        )
        .expect_err("quarantined swap path accepted a delta publication");
    assert!(
        matches!(err, DlearnError::SwapQuarantined),
        "wrong error for a quarantined delta publication: {err:?}"
    );
    assert_eq!(service.epoch(), epoch_before);

    // Recovery: a clean full publish installs a fresh epoch, lifts the
    // quarantine, and the service serves the post-delta truth.
    let recovered = service
        .publish(fx.engine.predictor(&relearned).expect("rebind predictor"))
        .expect("recovery publish");
    assert!(recovered > epoch_before);
    assert!(!service.is_swap_quarantined());
    let predictor = fx.engine.predictor(&relearned).expect("bind predictor");
    let post_delta: Vec<bool> = fx
        .trace
        .iter()
        .map(|e| predictor.predict(e).expect("predict"))
        .collect();
    let served: Vec<bool> = service
        .predict_batch(&fx.trace)
        .iter()
        .map(|r| r.as_ref().expect("post-recovery serve").covered)
        .collect();
    assert_eq!(served, post_delta);
    let metrics = service.metrics();
    assert_eq!(metrics.swaps, 1, "{metrics:?}");
    assert!(metrics.worker_panics >= 1, "{metrics:?}");
}

#[test]
fn a_batcher_that_panics_closes_its_queue_and_fails_every_caller_typed() {
    use dlearn::core::{CoalesceConfig, Coalescer};
    use std::sync::{mpsc, Arc};

    let _serial = serial();
    let fx = fixture();
    let service = Arc::new(service(&fx, 1));
    let items: Vec<(Tuple, Budget)> = fx
        .trace
        .iter()
        .take(3)
        .map(|t| (t.clone(), Budget::unlimited()))
        .collect();
    // One request per batch, and the first batch panics the batcher: the
    // two requests still queued must not wait for a batcher that is gone.
    let _guard =
        fault::install(FaultPlan::new(6).with_probability(Site::Coalesce, 1.0, Fault::Panic));
    // On its own thread, so callers left waiting fail the test at the
    // timeout instead of hanging it.
    let (done, finished) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let coalescer = Coalescer::new(
            service,
            CoalesceConfig {
                max_coalesce: 1,
                ..CoalesceConfig::default()
            },
        );
        let results = coalescer.submit_many_with(&items);
        let later = coalescer.submit(items[0].0.clone());
        let _ = done.send((results, later));
    });
    let (results, later) = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("callers of a dead batcher are answered");
    caller.join().expect("the caller thread finished cleanly");
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(matches!(r, Err(DlearnError::CoalescerClosed)), "{r:?}");
    }
    assert!(
        matches!(later, Err(DlearnError::CoalescerClosed)),
        "a submit after the batcher died was not refused typed: {later:?}"
    );
    assert_eq!(fault::injected(Site::Coalesce), 1);
}
