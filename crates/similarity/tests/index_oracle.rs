//! Differential suite: `SimilarityIndex::build` against the brute-force
//! all-pairs reference index, on seeded dirty vocabularies.
//!
//! The oracle (`dlearn_test_support::index_oracle::ReferenceIndex`) scores
//! every (left, right) pair — no blocking, no length filter, no top-k early
//! exit, strictly serial. Equality with the production build therefore
//! proves, per seeded case:
//!
//! * the **bound filter** never skips a pair whose true score reaches the
//!   threshold (the `score_bound_from_matches` inequality holds in floating
//!   point);
//! * the **top-k early exit** never abandons a candidate that belongs in
//!   the final top-k under the (score desc, value asc) tie-break;
//! * **blocking is complete on these vocabularies**: the generators corrupt
//!   at most one token per variant and keep leading trigrams intact, so
//!   every pair that can reach the threshold shares a blocking key (see
//!   `dlearn_test_support::vocab`);
//! * the **parallel merge** is deterministic — thread counts 1/2/8 build
//!   the same index, which the dedicated sweep below pins case by case.
//!
//! This is the standing parity mechanism for index construction: future
//! changes to the alignment loop only have to keep these properties, not
//! reproduce any particular candidate order.

use dlearn_similarity::{IndexConfig, SimilarityIndex, SimilarityOperator};
use dlearn_test_support::index_oracle::ReferenceIndex;
use dlearn_test_support::vocab::{dirty_vocabulary, DirtyVocabulary, VocabConfig};

/// (threshold, top_k) grid crossed with the seeds below: thresholds span
/// lenient to strict, top_k spans the paper's `km` sweep (2, 5, 10) plus
/// the best-match case `km = 1`.
const OPERATOR_GRID: &[(f64, usize)] = &[(0.65, 5), (0.7, 2), (0.75, 1), (0.8, 10)];

fn check_case(vocab: &DirtyVocabulary, seed: u64, threshold: f64, top_k: usize) {
    let index_config = IndexConfig {
        top_k,
        operator: SimilarityOperator::with_threshold(threshold),
        threads: 1,
        ..IndexConfig::default()
    };
    let oracle = ReferenceIndex::build(&vocab.left, &vocab.right, &index_config);
    let built = SimilarityIndex::build(&vocab.left, &vocab.right, &index_config);
    let built_view = ReferenceIndex::view_of(&built);
    assert_eq!(
        oracle, built_view,
        "seed {seed}, threshold {threshold}, top_k {top_k}: \
         built index diverged from the all-pairs oracle"
    );
}

/// ~300 seeded vocabularies: 75 seeds × the 4-point operator grid, plus a
/// smaller-vocabulary sweep (more noise relative to signal) below. The
/// vocabulary depends only on (config, seed), so it is generated once per
/// seed and shared across the operator grid.
#[test]
fn built_index_equals_all_pairs_oracle_on_seeded_vocabularies() {
    let config = VocabConfig::default();
    for seed in 0..75u64 {
        let vocab = dirty_vocabulary(&config, seed);
        for &(threshold, top_k) in OPERATOR_GRID {
            check_case(&vocab, seed, threshold, top_k);
        }
    }
}

#[test]
fn built_index_equals_oracle_on_small_noisy_vocabularies() {
    // Small vocabularies surface edge cases the big sweep averages away:
    // single-value blocks, left values with no candidates at all, sides
    // that dedup to near-nothing.
    let config = VocabConfig {
        bases: 5,
        left_variants: 1,
        right_variants: 2,
        noise_per_side: 4,
        ..VocabConfig::default()
    };
    for seed in 1000..1050u64 {
        let vocab = dirty_vocabulary(&config, seed);
        for &(threshold, top_k) in &[(0.65, 2), (0.75, 5)] {
            check_case(&vocab, seed, threshold, top_k);
        }
    }
}

#[test]
fn zero_top_k_stores_nothing_and_matches_the_oracle() {
    let vocab = dirty_vocabulary(&VocabConfig::default(), 9);
    let index_config = IndexConfig {
        top_k: 0,
        operator: SimilarityOperator::with_threshold(0.65),
        threads: 1,
        ..IndexConfig::default()
    };
    let oracle = ReferenceIndex::build(&vocab.left, &vocab.right, &index_config);
    let built = SimilarityIndex::build(&vocab.left, &vocab.right, &index_config);
    assert_eq!(oracle.pair_count(), 0);
    assert_eq!(built.pair_count(), 0);
    assert_eq!(oracle, ReferenceIndex::view_of(&built));
}

/// The parallel merge is deterministic: 1/2/8 construction threads build
/// bit-identical indexes (and all of them equal the oracle).
#[test]
fn thread_counts_build_identical_indexes() {
    let config = VocabConfig::default();
    for seed in [3u64, 17] {
        let vocab = dirty_vocabulary(&config, seed);
        let base_config = IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::with_threshold(0.7),
            threads: 1,
            ..IndexConfig::default()
        };
        let oracle = ReferenceIndex::build(&vocab.left, &vocab.right, &base_config);
        let serial = SimilarityIndex::build(&vocab.left, &vocab.right, &base_config);
        assert_eq!(oracle, ReferenceIndex::view_of(&serial), "seed {seed}");
        for threads in [2usize, 8] {
            let threaded = SimilarityIndex::build(
                &vocab.left,
                &vocab.right,
                &base_config.clone().with_threads(threads),
            );
            assert_eq!(
                serial, threaded,
                "seed {seed}: {threads}-thread build diverged from serial"
            );
        }
    }
}

/// Zipf-skewed vocabularies: hot stopword-ish tokens pile most values into
/// a few huge blocks, forcing the index through its skew-aware hot-key path
/// (length-partitioned postings, windowed probes). Entry-for-entry oracle
/// equality here proves the window never skips a candidate the filter could
/// keep — and the 1/2/8-thread sweep pins that the hot path preserves the
/// deterministic parallel merge.
#[test]
fn built_index_equals_oracle_on_zipf_skewed_vocabularies() {
    let config = VocabConfig::skewed_oracle(1.2);
    for seed in 200..215u64 {
        let vocab = dirty_vocabulary(&config, seed);
        for &(threshold, top_k) in &[(0.65, 5), (0.75, 2)] {
            let base_config = IndexConfig {
                top_k,
                operator: SimilarityOperator::with_threshold(threshold),
                threads: 1,
                ..IndexConfig::default()
            };
            let oracle = ReferenceIndex::build(&vocab.left, &vocab.right, &base_config);
            let serial = SimilarityIndex::build(&vocab.left, &vocab.right, &base_config);
            assert_eq!(
                oracle,
                ReferenceIndex::view_of(&serial),
                "seed {seed}, threshold {threshold}, top_k {top_k}: \
                 skewed-vocabulary index diverged from the all-pairs oracle"
            );
            for threads in [2usize, 8] {
                let threaded = SimilarityIndex::build(
                    &vocab.left,
                    &vocab.right,
                    &base_config.clone().with_threads(threads),
                );
                assert_eq!(
                    serial, threaded,
                    "seed {seed}, threshold {threshold}: \
                     {threads}-thread skewed build diverged from serial"
                );
            }
        }
    }
}

/// The hot-key fraction is a pure performance knob: any setting builds the
/// identical index. Swept on skewed vocabularies (where it changes which
/// postings actually go hot) from "everything past the floor is hot" to
/// "the hot path is disabled".
#[test]
fn hot_key_fraction_sweep_builds_identical_indexes_on_skewed_vocabularies() {
    let config = VocabConfig::skewed_oracle(1.2);
    for seed in [300u64, 301, 302] {
        let vocab = dirty_vocabulary(&config, seed);
        let base_config = IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::with_threshold(0.65),
            threads: 1,
            ..IndexConfig::default()
        };
        let reference = SimilarityIndex::build(&vocab.left, &vocab.right, &base_config);
        for fraction in [0.0, 0.01, 0.2, 1.0] {
            let swept = SimilarityIndex::build(
                &vocab.left,
                &vocab.right,
                &base_config.clone().with_hot_key_fraction(fraction),
            );
            assert_eq!(
                reference, swept,
                "seed {seed}: hot_key_fraction {fraction} changed the index"
            );
        }
    }
}

/// The exact-join rule: matching normalized strings only
/// ([`SimilarityIndex::exact_normalized`], which runs no alignment) equals
/// an aligned build at threshold 0.9999 and the all-pairs oracle there,
/// since below 5,000 normalized characters only equal strings score that
/// high. Castor-Exact and Castor-Clean join through exact indexes on that
/// basis. Pinned on seeded dirty vocabularies across top-k values.
#[test]
fn exact_normalized_equals_aligned_build_at_exact_threshold_on_seeded_vocabularies() {
    let config = VocabConfig::default();
    let mut exact_pairs = 0;
    for seed in [2u64, 13, 29] {
        let vocab = dirty_vocabulary(&config, seed);
        for top_k in [1usize, 2, 5] {
            let index_config = IndexConfig {
                top_k,
                operator: SimilarityOperator::with_threshold(0.9999),
                threads: 1,
                ..IndexConfig::default()
            };
            let aligned = SimilarityIndex::build(&vocab.left, &vocab.right, &index_config);
            let exact = SimilarityIndex::exact_normalized(&vocab.left, &vocab.right, top_k);
            assert_eq!(
                exact, aligned,
                "seed {seed}, top_k {top_k}: exact index diverged from an aligned build at 0.9999"
            );
            assert_eq!(
                ReferenceIndex::build(&vocab.left, &vocab.right, &index_config),
                ReferenceIndex::view_of(&exact),
                "seed {seed}, top_k {top_k}: exact index diverged from the all-pairs oracle"
            );
            exact_pairs += exact.pair_count();
        }
    }
    assert!(exact_pairs > 0, "no vocabulary held an exact pair");
}
