//! Differential test of repaired-clause expansion on realistic clauses:
//! every training bottom clause of the movie (one and three MDs), product,
//! citation and segment scenarios at tiny and small scale, plus seeded
//! random head-connected subclauses of each, must expand exactly as the
//! clause-cloning reference does (`dlearn_test_support::expand_reference`),
//! as whole `Vec<Clause>` values at every limit of `DIFFERENTIAL_LIMITS`;
//! `retain_head_connected` and `canonical_string` must equal the
//! reference's on every clause. The seeded-clause corpus and the fallback
//! and prefix pins live in `crates/logic/tests/expand_differential.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn::core::{augment_with_target, BottomClauseBuilder, LearnerConfig, LearningTask};
use dlearn::datagen::citations::{generate_citation_dataset, CitationConfig};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::datagen::products::{generate_product_dataset, ProductConfig};
use dlearn::datagen::segments::{generate_segment_dataset, SegmentConfig};
use dlearn::logic::Clause;
use dlearn_constraints::MdCatalog;
use dlearn_similarity::{IndexConfig, SimilarityOperator};
use dlearn_test_support::expand_reference::{self, assert_agrees};

/// Subclauses drawn per bottom clause.
const SUBCLAUSES: usize = 2;

/// Every training example's bottom clause, built the way `Engine::prepare`
/// builds them (walk over the MD catalog of the target-augmented database).
fn bottom_clauses(task: &LearningTask) -> Vec<Clause> {
    let config = LearnerConfig::fast();
    let index_config = IndexConfig {
        top_k: config.km,
        operator: SimilarityOperator::with_threshold(config.similarity_threshold),
        ..IndexConfig::default()
    };
    let catalog = MdCatalog::build(&task.mds, &augment_with_target(task), &index_config);
    let builder = BottomClauseBuilder::new(task, &catalog, &config);
    task.positives
        .iter()
        .chain(&task.negatives)
        .enumerate()
        .map(|(i, example)| builder.build(example, &mut StdRng::seed_from_u64(i as u64)))
        .collect()
}

/// A random subset of the body literals and repair groups, made
/// head-connected by the reference.
fn subclause(clause: &Clause, rng: &mut StdRng) -> Clause {
    let mut sub = clause.clone();
    sub.body.retain(|_| rng.gen_bool(0.6));
    sub.repairs.retain(|_| rng.gen_bool(0.7));
    expand_reference::retain_head_connected(&mut sub);
    sub
}

/// Run the differential on every bottom clause of `task` and on
/// [`SUBCLAUSES`] subclauses of each; returns how many clauses carried
/// repair groups.
fn check_scenario(name: &str, task: &LearningTask, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut with_repairs = 0;
    for (i, bottom) in bottom_clauses(task).iter().enumerate() {
        assert_agrees(bottom, &format!("{name} bottom clause {i}"));
        with_repairs += !bottom.repairs.is_empty() as usize;
        for k in 0..SUBCLAUSES {
            let sub = subclause(bottom, &mut rng);
            assert_agrees(&sub, &format!("{name} bottom clause {i}, subclause {k}"));
        }
    }
    with_repairs
}

#[test]
fn movie_bottom_clauses_expand_exactly_like_the_reference() {
    let mut with_repairs = 0;
    for (scale, config) in [
        ("tiny", MovieConfig::tiny()),
        ("small", MovieConfig::small()),
    ] {
        let one_md = generate_movie_dataset(&config.clone().with_violation_rate(0.1), 42);
        with_repairs += check_scenario(&format!("movies-{scale}"), &one_md.task, 1);
        let three_mds =
            generate_movie_dataset(&config.with_three_mds().with_violation_rate(0.1), 42);
        with_repairs += check_scenario(&format!("movies-3md-{scale}"), &three_mds.task, 2);
    }
    assert!(
        with_repairs > 100,
        "only {with_repairs} movie bottom clauses carry repairs"
    );
}

#[test]
fn product_and_citation_bottom_clauses_expand_exactly_like_the_reference() {
    for (scale, config) in [
        ("tiny", ProductConfig::tiny()),
        ("small", ProductConfig::small()),
    ] {
        let dataset = generate_product_dataset(&config.with_violation_rate(0.1), 42);
        check_scenario(&format!("products-{scale}"), &dataset.task, 3);
    }
    for (scale, config) in [
        ("tiny", CitationConfig::tiny()),
        ("small", CitationConfig::small()),
    ] {
        let dataset = generate_citation_dataset(&config.with_violation_rate(0.1), 42);
        check_scenario(&format!("citations-{scale}"), &dataset.task, 4);
    }
}

#[test]
fn segment_bottom_clauses_expand_exactly_like_the_reference() {
    for (scale, config) in [
        ("tiny", SegmentConfig::tiny()),
        ("small", SegmentConfig::small()),
    ] {
        let dataset = generate_segment_dataset(&config, 42);
        check_scenario(&format!("segments-{scale}"), &dataset.task, 5);
    }
}
