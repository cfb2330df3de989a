//! The prepare-once contract: a prepared [`Engine`] aligns strings exactly
//! once — at `Engine::prepare` time — no matter how many strategies run
//! against it or how many predictions it serves. Castor-Exact joins through
//! an exact catalog that runs no alignment (`MdCatalog::build_exact`),
//! Castor-Clean unifies through the prepared index and then builds the same
//! kind of exact catalog, and DLearn-Repaired reuses the index outright when
//! no CFD right-hand side overlaps an MD-identified column.
//!
//! This file holds a single test on purpose: it asserts on the
//! process-global [`SimilarityIndex::build_count`], and integration-test
//! binaries are separate processes, so nothing else can increment the
//! counter concurrently.

use dlearn::core::{Engine, LearnerConfig, Strategy};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::similarity::SimilarityIndex;

#[test]
fn similarity_index_is_built_exactly_once_per_engine() {
    // One MD (titles), four CFDs whose right-hand sides (year, rating,
    // country) never overlap the MD-identified title columns — so every
    // strategy can share or derive from the prepared index.
    let dataset = generate_movie_dataset(&MovieConfig::tiny().with_violation_rate(0.1), 42);
    assert_eq!(dataset.task.mds.len(), 1);

    let before = SimilarityIndex::build_count();
    let engine = Engine::prepare(
        dataset.task.clone(),
        LearnerConfig::fast().with_iterations(4),
    )
    .expect("valid task");
    let after_prepare = SimilarityIndex::build_count();
    assert_eq!(
        after_prepare - before,
        dataset.task.mds.len(),
        "prepare must build exactly one index per MD"
    );

    // All seven strategies — the five paper systems plus FOIL and TILDE,
    // including repeated runs — plus serving on each learned definition:
    // zero further alignment builds. The extension learners run over the
    // shared base plan, so they inherit the prepare-once contract outright.
    for strategy in Strategy::ALL {
        for _ in 0..2 {
            let learned = engine.learn(strategy).expect("learn");
            let predictor = engine.predictor(&learned).expect("bind predictor");
            let _ = predictor
                .predict_batch(&dataset.task.positives)
                .expect("predict");
        }
    }
    assert_eq!(
        SimilarityIndex::build_count(),
        after_prepare,
        "running strategies/predictions against a prepared engine must not rebuild the index"
    );
}
