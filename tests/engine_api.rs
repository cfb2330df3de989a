//! The fallible session API: typed errors on malformed tasks and
//! configurations (instead of panics deep inside bottom-clause
//! construction), parity between single and batched prediction,
//! determinism across independently prepared sessions, and deltas that
//! share the ground examples they do not re-ground.

use std::sync::Arc;

use dlearn::core::{DlearnError, Engine, LearnerConfig, Strategy, TargetSpec};
use dlearn::datagen::citations::{generate_citation_dataset, CitationConfig};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::datagen::products::{generate_product_dataset, ProductConfig};
use dlearn::relstore::{tuple, RelId, StoreError, Value};
use dlearn_constraints::{Cfd, MatchingDependency};
use dlearn_test_support::delta::{tx_script, TxScriptConfig};

fn fast() -> LearnerConfig {
    LearnerConfig {
        coverage_threads: 1,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

#[test]
fn prepare_rejects_bad_example_arity_with_a_typed_error() {
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.positives
        .insert(1, tuple(vec![Value::int(5), Value::str("extra")]));
    let err = Engine::prepare(task, fast()).unwrap_err();
    match err {
        DlearnError::ExampleArity {
            expected,
            actual,
            index,
            positive,
        } => {
            assert_eq!((expected, actual), (1, 2));
            assert_eq!(index, 1);
            assert!(positive);
        }
        other => panic!("expected ExampleArity, got {other:?}"),
    }
}

#[test]
fn prepare_rejects_constraints_referencing_unknown_relations() {
    // An MD naming a relation that exists in neither the database nor the
    // target spec used to panic inside the similarity probe; now it is a
    // typed error naming the MD.
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.mds.push(MatchingDependency::simple(
        "ghost",
        "imdb_movies",
        "title",
        "no_such_relation",
        "title",
    ));
    let err = Engine::prepare(task, fast()).unwrap_err();
    let DlearnError::Store(store) = &err else {
        panic!("expected Store error, got {err:?}");
    };
    assert!(
        matches!(store, StoreError::InContext { context, .. } if context.contains("ghost")),
        "{err}"
    );
    assert!(err.to_string().contains("no_such_relation"), "{err}");

    // Same for a CFD over an unknown attribute...
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.cfds
        .push(Cfd::fd("bad_fd", "imdb_movies", vec!["id"], "no_such_attr"));
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(err.to_string().contains("bad_fd"), "{err}");
    assert!(err.to_string().contains("no_such_attr"), "{err}");

    // ...and for a constant-attribute declaration on an unknown relation.
    let mut task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    task.add_constant_attribute("no_such_relation", "genre");
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(err.to_string().contains("no_such_relation"), "{err}");
}

#[test]
fn prepare_rejects_empty_positive_example_sets() {
    let base = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    let task = base.with_examples(Vec::new(), base.negatives.clone());
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(matches!(err, DlearnError::EmptyPositives), "{err:?}");
}

#[test]
fn prepare_rejects_degenerate_configurations() {
    let task = generate_movie_dataset(&MovieConfig::tiny(), 42).task;
    let bad_threshold = LearnerConfig {
        similarity_threshold: 0.0,
        ..fast()
    };
    let err = Engine::prepare(task.clone(), bad_threshold).unwrap_err();
    assert!(
        matches!(
            err,
            DlearnError::InvalidConfig {
                field: "similarity_threshold",
                ..
            }
        ),
        "{err:?}"
    );
    let bad_iterations = LearnerConfig {
        iterations: 0,
        ..fast()
    };
    let err = Engine::prepare(task, bad_iterations).unwrap_err();
    assert!(
        matches!(
            err,
            DlearnError::InvalidConfig {
                field: "iterations",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn target_side_mds_still_validate() {
    // The movie target has no stored relation; an MD whose left-hand side is
    // the target must validate against the TargetSpec's attributes.
    let db = dlearn::relstore::DatabaseBuilder::new()
        .relation(
            dlearn::relstore::RelationBuilder::new("movies")
                .int_attr("id")
                .str_attr("title")
                .build(),
        )
        .row("movies", vec![Value::int(1), Value::str("Superbad (2007)")])
        .build();
    let mut task = dlearn::core::LearningTask::new(
        db,
        TargetSpec::with_attributes("highGrossing", vec!["title"]),
    );
    task.mds.push(MatchingDependency::simple(
        "titles",
        "highGrossing",
        "title",
        "movies",
        "title",
    ));
    task.positives.push(tuple(vec![Value::str("Superbad")]));
    assert!(task.validate().is_ok());
    assert!(Engine::prepare(task.clone(), fast()).is_ok());

    // But an MD identifying a *missing* target attribute is rejected.
    task.mds[0] =
        MatchingDependency::simple("titles", "highGrossing", "revenue", "movies", "title");
    let err = Engine::prepare(task, fast()).unwrap_err();
    assert!(err.to_string().contains("revenue"), "{err}");
}

#[test]
fn single_and_batched_predictions_agree_across_datasets() {
    let datasets = [
        generate_movie_dataset(&MovieConfig::tiny(), 42),
        generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 7),
        generate_citation_dataset(&CitationConfig::tiny(), 3),
        generate_product_dataset(&ProductConfig::tiny(), 11),
    ];
    for dataset in &datasets {
        let engine = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let predictor = engine.predictor(&learned).expect("bind predictor");
        let examples: Vec<_> = dataset
            .task
            .positives
            .iter()
            .chain(dataset.task.negatives.iter())
            .cloned()
            .collect();
        let batch = predictor.predict_batch(&examples).expect("predict");
        for (e, &verdict) in examples.iter().zip(&batch) {
            assert_eq!(
                predictor.predict(e).expect("predict"),
                verdict,
                "{}: single prediction diverged from batch",
                dataset.name
            );
        }
    }
}

#[test]
fn every_strategy_is_deterministic_across_engines() {
    // Two independently prepared engines over the same task must learn
    // bit-identical definitions for every strategy (no hidden session
    // state leaks into the result).
    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 19);
    let a = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
    let b = Engine::prepare(dataset.task.clone(), fast()).expect("valid task");
    for strategy in Strategy::ALL {
        assert_eq!(
            a.learn(strategy).expect("learn").definition(),
            b.learn(strategy).expect("learn").definition(),
            "{} differs between two engines over the same task",
            strategy.name()
        );
    }
}

#[test]
fn a_delta_shares_the_ground_examples_it_does_not_reground() {
    // Every example a delta leaves alone is the pre-delta engine's own
    // allocation (a reference count, not a copy); every re-ground one is new.
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let config = LearnerConfig {
        coverage_threads: 2,
        ..fast()
    };
    let mut engine = Engine::prepare(dataset.task.clone(), config).expect("valid task");
    let relations = ["imdb_movies", "omdb_movies", "imdb_mov2genres"].map(RelId::intern);
    let script = tx_script(
        &dataset.task.database,
        &relations,
        &TxScriptConfig::default(),
        7,
    );
    let (mut shared, mut reground) = ([0usize; 2], [0usize; 2]);
    for (step, tx) in script.iter().enumerate() {
        let before = [
            engine.coverage().positives().to_vec(),
            engine.coverage().negatives().to_vec(),
        ];
        let g = engine.apply_delta(tx).expect("apply_delta").grounding;
        let after = [engine.coverage().positives(), engine.coverage().negatives()];
        let reused = [g.positives_reused, g.negatives_reused];
        for side in 0..2 {
            let (old, new) = (&before[side], after[side]);
            assert_eq!(old.len(), new.len());
            let same: Vec<bool> = old
                .iter()
                .zip(new)
                .map(|(o, n)| Arc::ptr_eq(o, n))
                .collect();
            let count = same.iter().filter(|&&s| s).count();
            assert_eq!(
                count, reused[side],
                "step {step} side {side}: shared != reused"
            );
            for (i, n) in new.iter().enumerate().filter(|(i, _)| !same[*i]) {
                assert!(
                    old.iter().all(|o| !Arc::ptr_eq(o, n)),
                    "step {step} side {side}: re-ground example {i} is not a new allocation"
                );
            }
            shared[side] += count;
            reground[side] += new.len() - count;
        }
    }
    // Vacuity guard: the script both shared and re-ground on each side.
    assert!(
        shared.iter().chain(&reground).all(|&n| n > 0),
        "shared {shared:?}, re-ground {reground:?}"
    );
}
