//! Determinism of the parallel covering loop: the generalization-scoring
//! fan-out reduces with "best score, ties broken by sample order", so the
//! learned definition must be bit-identical at every thread count — and the
//! parallel coverage masks must equal the serial ones clause for clause.
//!
//! The same holds when coverage and generalization both fan out: at 1, 2 and
//! 8 threads each, the learned definition must equal the serial one literal
//! for literal.
//!
//! Similarity-index construction carries the same contract: left-value
//! chunks merge in left order, so the built [`SimilarityIndex`] — and every
//! definition learned through it — is bit-identical across index-build
//! thread counts.
//!
//! Serving carries it too: [`Predictor::predict_batch`] grounds each
//! distinct tuple with an RNG derived from the session seed alone and fans
//! out through the order-preserving chunked map, so batch results are
//! bit-identical across 1/2/8 coverage threads and equal to a sequential
//! `predict` loop.
//!
//! The FOIL and TILDE extension learners make the same promise over their
//! own candidate-scoring fan-outs (see
//! `extension_learners_are_bit_identical_across_thread_counts`).

use dlearn::core::{Engine, LearnerConfig, Predictor, Strategy};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::logic::Definition;
use dlearn::relstore::Tuple;
use dlearn::similarity::{IndexConfig, SimilarityIndex, SimilarityOperator};
use dlearn_test_support::vocab::{dirty_vocabulary, VocabConfig};

fn config(seed: u64, generalization_threads: usize, coverage_threads: usize) -> LearnerConfig {
    LearnerConfig {
        generalization_threads,
        coverage_threads,
        seed,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

fn learn_with(
    task: &dlearn::core::LearningTask,
    config: LearnerConfig,
    strategy: Strategy,
) -> Definition {
    let engine = Engine::prepare(task.clone(), config).expect("valid task");
    engine.learn(strategy).expect("learn").definition().clone()
}

fn learn(task: &dlearn::core::LearningTask, config: LearnerConfig) -> Definition {
    learn_with(task, config, Strategy::DLearn)
}

#[test]
fn parallel_and_serial_generalization_learn_identical_definitions() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    for seed in [7u64, 21, 42] {
        let serial = learn(&dataset.task, config(seed, 1, 1));
        let parallel = learn(&dataset.task, config(seed, 4, 1));
        assert_eq!(
            serial, parallel,
            "seed {seed}: parallel generalization diverged from serial"
        );
    }
}

#[test]
fn learned_definitions_are_bit_identical_at_any_thread_count() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let baseline = learn(&dataset.task, config(7, 1, 1));
    for threads in [1usize, 2, 8] {
        let definition = learn(&dataset.task, config(7, threads, threads));
        assert_eq!(
            baseline, definition,
            "threads={threads}: learned definition diverged"
        );
    }
}

#[test]
fn index_build_threads_produce_bit_identical_indexes() {
    // The index itself, on realistic dirty vocabularies: 1/2/8 construction
    // threads × 2 seeds must agree entry for entry (SimilarityIndex derives
    // PartialEq over its two match maps).
    for seed in [5u64, 23] {
        let vocab = dirty_vocabulary(&VocabConfig::default(), seed);
        let config = IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::with_threshold(0.7),
            threads: 1,
            ..IndexConfig::default()
        };
        let serial = SimilarityIndex::build(&vocab.left, &vocab.right, &config);
        assert!(
            serial.pair_count() > 0,
            "seed {seed}: vocabulary produced no matches; the test is vacuous"
        );
        for threads in [2usize, 8] {
            let threaded = SimilarityIndex::build(
                &vocab.left,
                &vocab.right,
                &config.clone().with_threads(threads),
            );
            assert_eq!(
                serial, threaded,
                "seed {seed}: index built with {threads} threads diverged from serial"
            );
        }
    }
}

#[test]
fn index_build_threads_do_not_change_the_learned_model() {
    // Downstream of the index: the learned definition must be bit-identical
    // across index-build thread counts 1/2/8 × 2 seeds.
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    for seed in [7u64, 21] {
        let baseline = learn(&dataset.task, config(seed, 1, 1).with_index_threads(1));
        for threads in [2usize, 8] {
            let definition = learn(
                &dataset.task,
                config(seed, 1, 1).with_index_threads(threads),
            );
            assert_eq!(
                baseline, definition,
                "seed {seed}, index_threads={threads}: learned definition diverged"
            );
        }
    }
}

#[test]
fn extension_learners_are_bit_identical_across_thread_counts() {
    // The FOIL and TILDE refiners fan candidate scoring out through the same
    // order-preserving chunked map as generalization scoring (serial masks
    // inside the fan-out, first-strict-maximum tie-breaking), so their
    // learned definitions carry the full determinism contract: bit-identical
    // at 1/2/8 threads × 2 seeds, on both a dirty integration task and the
    // tree-shaped segmentation task.
    let movie = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let segments =
        dlearn::datagen::generate_segment_dataset(&dlearn::datagen::SegmentConfig::tiny(), 91);
    for task in [&movie.task, &segments.task] {
        for strategy in [Strategy::Foil, Strategy::Tilde] {
            for seed in [7u64, 21] {
                let baseline = learn_with(task, config(seed, 1, 1), strategy);
                assert!(
                    !baseline.is_empty(),
                    "{} seed {seed}: learned nothing; the determinism check is vacuous",
                    strategy.name()
                );
                for threads in [2usize, 8] {
                    let definition = learn_with(task, config(seed, threads, threads), strategy);
                    assert_eq!(
                        baseline,
                        definition,
                        "{} seed {seed}: definition diverged at {threads} threads",
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_coverage_masks_do_not_change_the_learned_model() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let serial = learn(&dataset.task, config(7, 1, 1));
    let threaded = learn(&dataset.task, config(7, 4, 4));
    assert_eq!(
        serial, threaded,
        "coverage/generalization threads changed the learned definition"
    );
}

#[test]
fn predict_batch_is_bit_identical_across_thread_counts() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    // A serving-style trace with duplicates, so the batch path's dedup and
    // fan-out are both exercised.
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
    for seed in [7u64, 21] {
        let predictor_at = |threads: usize| -> Predictor {
            let engine = Engine::prepare(dataset.task.clone(), config(seed, 1, threads))
                .expect("valid task");
            let learned = engine.learn(Strategy::DLearn).expect("learn");
            engine.predictor(&learned).expect("bind predictor")
        };
        let baseline_predictor = predictor_at(1);
        let baseline = baseline_predictor.predict_batch(&trace).expect("predict");
        // The batch equals a sequential per-example loop...
        let singles: Vec<bool> = trace
            .iter()
            .map(|e| baseline_predictor.predict(e).expect("predict"))
            .collect();
        assert_eq!(baseline, singles, "seed {seed}: batch diverged from loop");
        assert!(
            baseline.iter().any(|&b| b) && baseline.iter().any(|&b| !b),
            "seed {seed}: trace verdicts are uniform; the test is vacuous"
        );
        // ...and is bit-identical at every coverage thread count.
        for threads in [2usize, 8] {
            let batch = predictor_at(threads)
                .predict_batch(&trace)
                .expect("predict");
            assert_eq!(
                baseline, batch,
                "seed {seed}: predict_batch with {threads} threads diverged"
            );
        }
    }
}

#[test]
fn delta_maintenance_is_bit_identical_across_thread_counts() {
    // Incremental maintenance composes with the determinism contract: a
    // session driven through the same delta script must land on the same
    // definition and the same batch verdicts at every coverage thread count.
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let relations = [
        dlearn::relstore::RelId::intern("imdb_movies"),
        dlearn::relstore::RelId::intern("omdb_movies"),
        dlearn::relstore::RelId::intern("imdb_mov2genres"),
    ];
    for seed in [7u64, 21] {
        let script = dlearn_test_support::delta::tx_script(
            &dataset.task.database,
            &relations,
            &dlearn_test_support::delta::TxScriptConfig::default(),
            seed,
        );
        let trace: Vec<Tuple> = dataset
            .task
            .positives
            .iter()
            .chain(dataset.task.negatives.iter())
            .cloned()
            .collect();
        let run = |threads: usize| -> (Definition, Vec<bool>) {
            let mut engine = Engine::prepare(dataset.task.clone(), config(seed, threads, threads))
                .expect("valid task");
            for tx in &script {
                engine.apply_delta(tx).expect("apply_delta");
            }
            let learned = engine.learn(Strategy::DLearn).expect("learn");
            let verdicts = engine
                .predictor(&learned)
                .expect("bind predictor")
                .predict_batch(&trace)
                .expect("predict");
            (learned.definition().clone(), verdicts)
        };
        let (baseline_def, baseline_verdicts) = run(1);
        for threads in [2usize, 8] {
            let (definition, verdicts) = run(threads);
            assert_eq!(
                baseline_def, definition,
                "seed {seed}: post-delta definition diverged at {threads} threads"
            );
            assert_eq!(
                baseline_verdicts, verdicts,
                "seed {seed}: post-delta verdicts diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn deltas_interleaved_with_serving_keep_cache_on_off_parity() {
    // A serving tier interleaved with streaming deltas: after every
    // `PredictorService::apply_delta` (which selectively evicts only cache
    // entries whose probe logs the delta touched), a cached service must
    // serve bit-identical verdicts to an uncached one — at every worker
    // count — and both must match the rebound engine's own batch path.
    use dlearn::core::{PredictorService, ServiceConfig};

    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let relations = [
        dlearn::relstore::RelId::intern("imdb_movies"),
        dlearn::relstore::RelId::intern("omdb_movies"),
        dlearn::relstore::RelId::intern("imdb_mov2genres"),
    ];
    let script = dlearn_test_support::delta::tx_script(
        &dataset.task.database,
        &relations,
        &dlearn_test_support::delta::TxScriptConfig::default(),
        7,
    );
    let trace: Vec<Tuple> = (0..2)
        .flat_map(|_| {
            dataset
                .task
                .positives
                .iter()
                .chain(dataset.task.negatives.iter())
                .cloned()
        })
        .collect();
    let mut total_evictions = 0u64;
    for workers in [1usize, 2, 8] {
        let mut engine =
            Engine::prepare(dataset.task.clone(), config(7, 1, workers)).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let cached = PredictorService::new(
            engine.predictor(&learned).expect("bind predictor"),
            ServiceConfig {
                worker_threads: workers,
                ..ServiceConfig::default()
            },
        );
        let uncached = PredictorService::new(
            engine.predictor(&learned).expect("bind predictor"),
            ServiceConfig {
                worker_threads: workers,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let mut service_evictions = 0u64;
        for (step, tx) in script.iter().enumerate() {
            // Warm the cache, then mutate the store underneath it.
            cached.predict_batch(&trace);
            let report = engine.apply_delta(tx).expect("apply_delta");
            let learned = engine.learn(Strategy::DLearn).expect("post-delta learn");
            let evicted = cached
                .apply_delta(
                    engine.predictor(&learned).expect("rebind predictor"),
                    &report,
                )
                .expect("cached service delta");
            uncached
                .apply_delta(
                    engine.predictor(&learned).expect("rebind predictor"),
                    &report,
                )
                .expect("uncached service delta");
            service_evictions += evicted;
            total_evictions += evicted;
            let with_cache: Vec<bool> = cached
                .predict_batch(&trace)
                .iter()
                .map(|r| r.as_ref().expect("cached serve").covered)
                .collect();
            let without_cache: Vec<bool> = uncached
                .predict_batch(&trace)
                .iter()
                .map(|r| r.as_ref().expect("uncached serve").covered)
                .collect();
            assert_eq!(
                with_cache, without_cache,
                "workers {workers} step {step}: cache-on/off verdicts diverged after delta"
            );
            let direct = engine
                .predictor(&learned)
                .expect("bind predictor")
                .predict_batch(&trace)
                .expect("predict");
            assert_eq!(
                with_cache, direct,
                "workers {workers} step {step}: served verdicts diverged from engine batch"
            );
        }
        assert_eq!(
            cached.metrics().delta_evictions,
            service_evictions,
            "workers {workers}: delta_evictions metric disagrees with apply_delta returns"
        );
    }
    // Vacuity guard: across the grid at least one delta must actually have
    // evicted a stale cached grounding (otherwise parity is trivially true).
    assert!(
        total_evictions > 0,
        "no delta ever evicted a cached ground example"
    );
}
