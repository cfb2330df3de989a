//! Dedicated cases for every typed error of the fallible surface: each
//! `Engine::prepare` variant, the serving-side arity checks (single, batch,
//! and service), and the serving-tier variants introduced with the
//! resilient front-end (`DeadlineExceeded`, `WorkerPanicked`).

use dlearn::core::{DlearnError, Engine, LearnerConfig, PredictorService, ServiceConfig, Strategy};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::logic::SubsumptionConfig;
use dlearn::relstore::{tuple, Value};
use dlearn_constraints::{Cfd, MatchingDependency, PatternValue};

fn fast() -> LearnerConfig {
    LearnerConfig {
        coverage_threads: 1,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

#[test]
fn prepare_example_arity_names_the_offending_side_and_index() {
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.negatives.insert(0, tuple(Vec::<Value>::new()));
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(
        matches!(
            err,
            DlearnError::ExampleArity {
                expected: 1,
                actual: 0,
                index: 0,
                positive: false,
            }
        ),
        "{err:?}"
    );
}

#[test]
fn prepare_empty_positives_is_typed() {
    let base = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    let task = base.with_examples(Vec::new(), base.negatives.clone());
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(matches!(err, DlearnError::EmptyPositives), "{err:?}");
}

#[test]
fn prepare_store_error_names_the_unknown_relation() {
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.mds.push(MatchingDependency::simple(
        "ghost",
        "imdb_movies",
        "title",
        "no_such_relation",
        "title",
    ));
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(matches!(err, DlearnError::Store(_)), "{err:?}");
    assert!(err.to_string().contains("no_such_relation"), "{err}");
}

/// The paper's inconsistent pair (Section 2.3), `(A → B, a1 ‖ b1)` and
/// `(B → A, b1 ‖ a2)`, with A the title and B the year of `imdb_movies`.
#[test]
fn prepare_rejects_conflicting_cfds_naming_both_and_the_attribute() {
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    let (a1, b1, a2) = (Value::str("a1"), Value::int(1), Value::str("a2"));
    let cfd = |name, lhs, rhs, pattern: &Value, forced: &Value| {
        let lhs_pattern = vec![PatternValue::Const(*pattern)];
        Cfd::with_pattern(
            name,
            "imdb_movies",
            vec![lhs],
            rhs,
            lhs_pattern,
            PatternValue::Const(*forced),
        )
    };
    task.cfds
        .push(cfd("title_fixes_year", "title", "year", &a1, &b1));
    task.cfds
        .push(cfd("year_fixes_title", "year", "title", &b1, &a2));
    let err = Engine::prepare(task, fast()).unwrap_err();
    let DlearnError::InconsistentCfds(conflict) = &err else {
        panic!("{err:?}");
    };
    let named = [&conflict.first, &conflict.second, &conflict.attribute];
    assert_eq!(named, ["title_fixes_year", "year_fixes_title", "title"]);
    let msg = err.to_string();
    assert!(
        named.iter().all(|part| msg.contains(part.as_str())),
        "{msg}"
    );
}

#[test]
fn prepare_invalid_config_covers_every_validated_field() {
    let task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    let cases: Vec<(&'static str, LearnerConfig)> = vec![
        (
            "iterations",
            LearnerConfig {
                iterations: 0,
                ..fast()
            },
        ),
        (
            "sample_size",
            LearnerConfig {
                sample_size: 0,
                ..fast()
            },
        ),
        (
            "max_clauses",
            LearnerConfig {
                max_clauses: 0,
                ..fast()
            },
        ),
        (
            "max_repaired_clauses",
            LearnerConfig {
                max_repaired_clauses: 0,
                ..fast()
            },
        ),
        (
            "binding_cap",
            LearnerConfig {
                binding_cap: 0,
                ..fast()
            },
        ),
        (
            "sample_positives",
            LearnerConfig {
                sample_positives: 0,
                ..fast()
            },
        ),
        (
            "subsumption.max_steps",
            LearnerConfig {
                subsumption: SubsumptionConfig { max_steps: 0 },
                ..fast()
            },
        ),
        (
            "km",
            LearnerConfig {
                km: 0,
                use_mds: true,
                ..fast()
            },
        ),
        (
            "similarity_threshold",
            LearnerConfig {
                similarity_threshold: f64::NAN,
                ..fast()
            },
        ),
        (
            "index_hot_key_fraction",
            LearnerConfig {
                index_hot_key_fraction: -0.5,
                ..fast()
            },
        ),
    ];
    for (field, config) in cases {
        let err = Engine::prepare(task.clone(), config).unwrap_err();
        match err {
            DlearnError::InvalidConfig { field: f, .. } => {
                assert_eq!(f, field, "wrong field reported")
            }
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn predict_arity_errors_are_typed_on_every_serving_entry_point() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let engine = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
    let learned = engine.learn(Strategy::DLearn).expect("learn");
    let predictor = engine.predictor(&learned).expect("bind predictor");
    let bad = tuple(vec![Value::int(1), Value::str("extra")]);

    let err = predictor.predict(&bad).unwrap_err();
    assert!(
        matches!(
            err,
            DlearnError::PredictArity {
                expected: 1,
                actual: 2,
                index: 0
            }
        ),
        "{err:?}"
    );

    let good = dataset.task.positives[0].clone();
    let err = predictor
        .predict_batch(&[good.clone(), bad.clone()])
        .unwrap_err();
    assert!(
        matches!(err, DlearnError::PredictArity { index: 1, .. }),
        "{err:?}"
    );

    // The service scopes the error to the offending example instead of
    // failing the batch.
    let service = PredictorService::new(
        engine.predictor(&learned).expect("bind predictor"),
        ServiceConfig::default(),
    );
    let results = service.predict_batch(&[good, bad]);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(
        matches!(results[1], Err(DlearnError::PredictArity { index: 1, .. })),
        "{:?}",
        results[1]
    );
}

#[test]
fn serving_tier_errors_render_actionable_messages() {
    let deadline = DlearnError::DeadlineExceeded { budget_ms: 250 };
    assert!(deadline.to_string().contains("250ms"), "{deadline}");
    let panicked = DlearnError::WorkerPanicked {
        site: "serve",
        message: "index out of bounds".into(),
    };
    let msg = panicked.to_string();
    assert!(
        msg.contains("serve") && msg.contains("index out of bounds"),
        "{msg}"
    );
    // Serving errors are plain data: cloneable and comparable, so batch
    // results can be deduplicated and asserted on.
    assert_eq!(deadline.clone(), deadline);
    assert_ne!(deadline, panicked);
}

#[test]
fn delta_failures_are_typed_and_leave_the_engine_untouched() {
    // Every store-level delta failure maps to its typed variant, and after
    // any failed transaction the engine is byte-for-byte the session it was:
    // the same definition is learned and no delta work is reported later.
    use dlearn::relstore::{DeltaTx, RelId};

    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let mut engine = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
    let baseline = engine
        .learn(Strategy::DLearn)
        .expect("learn")
        .definition()
        .clone();

    let unknown = DeltaTx::new().insert(
        RelId::intern("no_such_relation"),
        tuple(vec![Value::int(1)]),
    );
    let err = engine.apply_delta(&unknown).unwrap_err();
    assert!(
        matches!(&err, DlearnError::DeltaUnknownRelation { relation } if relation == "no_such_relation"),
        "{err:?}"
    );
    assert!(
        err.to_string()
            .contains("delta references unknown relation 'no_such_relation'"),
        "{err}"
    );

    let short = DeltaTx::new().insert(
        RelId::intern("imdb_movies"),
        tuple(vec![Value::int(1), Value::str("Truncated Row")]),
    );
    let err = engine.apply_delta(&short).unwrap_err();
    assert!(
        matches!(
            &err,
            DlearnError::DeltaArityMismatch {
                relation,
                expected: 3,
                actual: 2,
            } if relation == "imdb_movies"
        ),
        "{err:?}"
    );
    assert!(
        err.to_string().contains("has arity 2, schema expects 3"),
        "{err}"
    );

    let absent = DeltaTx::new().delete(
        RelId::intern("imdb_movies"),
        tuple(vec![
            Value::int(987_654),
            Value::str("Never Stored"),
            Value::int(1900),
        ]),
    );
    let err = engine.apply_delta(&absent).unwrap_err();
    assert!(
        matches!(&err, DlearnError::DeltaAbsentTuple { relation, .. } if relation == "imdb_movies"),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("delta deletes absent tuple") && msg.contains("imdb_movies"),
        "{msg}"
    );

    // Untouched: not quarantined, and the session still learns the exact
    // pre-failure definition.
    assert!(!engine.is_quarantined());
    assert_eq!(
        engine
            .learn(Strategy::DLearn)
            .expect("learn after failed deltas")
            .definition(),
        &baseline,
        "failed deltas perturbed the session"
    );
}

#[test]
fn delta_error_variants_render_actionable_messages() {
    // The quarantine refusal (reachable only through an injected mid-delta
    // panic; exercised end-to-end in the fault-injection suite) and its
    // sibling variants are plain, comparable data with actionable text.
    let quarantined = DlearnError::DeltaQuarantined;
    let msg = quarantined.to_string();
    assert!(
        msg.contains("quarantined") && msg.contains("Engine::prepare"),
        "{msg}"
    );
    assert_eq!(quarantined.clone(), quarantined);
    assert_ne!(
        quarantined,
        DlearnError::DeltaUnknownRelation {
            relation: "r".into()
        }
    );
}

#[test]
fn out_of_order_delta_reports_are_rejected_typed_and_leave_the_service_untouched() {
    // `PredictorService::apply_delta` only accepts a report that chains
    // directly from the served model's delta sequence, with a predictor
    // re-bound at that sequence. A stale predictor, a replayed report, or a
    // skipped delta all surface as `DeltaEpochMismatch` — and the served
    // model keeps answering exactly as before.
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let mut engine = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
    let learned = engine.learn(Strategy::DLearn).expect("learn");
    let stale_predictor = engine.predictor(&learned).expect("bind predictor");
    let service = PredictorService::new(
        engine.predictor(&learned).expect("bind predictor"),
        ServiceConfig::default(),
    );
    let trace: Vec<dlearn::relstore::Tuple> = dataset
        .task
        .positives
        .iter()
        .chain(dataset.task.negatives.iter())
        .cloned()
        .collect();
    let epoch_before = service.epoch();

    let tx = dlearn::relstore::DeltaTx::new().insert(
        dlearn::relstore::RelId::intern("imdb_movies"),
        tuple(vec![
            Value::int(990_303),
            Value::str("Sequence Drill"),
            Value::int(2023),
        ]),
    );
    let report = engine.apply_delta(&tx).expect("engine delta");
    assert_eq!(report.sequence, 1, "first delta of a fresh session");
    let relearned = engine.learn(Strategy::DLearn).expect("post-delta learn");

    // A predictor still bound at the pre-delta state cannot carry the
    // post-delta report.
    let err = service
        .apply_delta(stale_predictor, &report)
        .expect_err("stale predictor must be rejected");
    assert_eq!(
        err,
        DlearnError::DeltaEpochMismatch {
            served: 0,
            report: 1
        },
        "{err:?}"
    );

    // A correctly chained publication lands...
    service
        .apply_delta(engine.predictor(&relearned).expect("rebind"), &report)
        .expect("chained delta publication");
    // ...and replaying the very same report is now out of order.
    let err = service
        .apply_delta(engine.predictor(&relearned).expect("rebind"), &report)
        .expect_err("replayed report must be rejected");
    assert_eq!(
        err,
        DlearnError::DeltaEpochMismatch {
            served: 1,
            report: 1
        },
        "{err:?}"
    );

    // The rejections never installed anything: one successful publication,
    // and the service answers match the rebound engine exactly.
    assert_eq!(service.epoch(), epoch_before + 1);
    assert_eq!(service.metrics().swaps, 1);
    let rebound = engine.predictor(&relearned).expect("bind predictor");
    let after: Vec<bool> = service
        .predict_batch(&trace)
        .iter()
        .map(|r| r.as_ref().expect("serve").covered)
        .collect();
    let direct = rebound.predict_batch(&trace).expect("predict");
    assert_eq!(after, direct);
}

#[test]
fn swap_error_variants_render_actionable_messages() {
    let mismatch = DlearnError::DeltaEpochMismatch {
        served: 4,
        report: 2,
    };
    let msg = mismatch.to_string();
    assert!(
        msg.contains("sequence 2") && msg.contains("sequence 4") && msg.contains("apply_delta"),
        "{msg}"
    );
    assert_eq!(mismatch.clone(), mismatch);

    let quarantined = DlearnError::SwapQuarantined;
    let msg = quarantined.to_string();
    assert!(
        msg.contains("quarantined") && msg.contains("publish"),
        "{msg}"
    );
    assert_ne!(quarantined, DlearnError::DeltaQuarantined);

    let closed = DlearnError::CoalescerClosed;
    let msg = closed.to_string();
    assert!(
        msg.contains("coalescer") && msg.contains("not served"),
        "{msg}"
    );
}
