//! # dlearn-similarity — string similarity operators and match indexes
//!
//! DLearn resolves value heterogeneity with a string-similarity operator: the
//! average of the Smith-Waterman-Gotoh local-alignment similarity and the
//! Length similarity (Section 5 of the paper), and it precomputes, for every
//! value participating in a matching dependency, the top-`km` most similar
//! values on the other side of the dependency.
//!
//! * [`swg_similarity`] — normalized Smith-Waterman-Gotoh score.
//! * [`length_similarity`] — ratio of string lengths.
//! * [`SimilarityOperator`] — the combined operator with a decision threshold.
//! * [`SimilarityIndex`] — blocking-based precomputed top-`km` match index.
//! * [`MaintainedIndex`] — incremental maintenance of a built index under
//!   streaming column deltas, always equal to a fresh build.
//! * [`chunked_map`] and [`resolve_threads`] — the stack's one
//!   order-preserving fan-out and its thread policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combined;
pub mod delta;
pub mod index;
pub mod length;
pub mod par;
pub mod sw_gotoh;
pub mod sw_kernel;
pub mod tokenize;

pub use combined::SimilarityOperator;
pub use delta::{ColumnDelta, DeltaOutcome, MaintainedIndex};
pub use index::{IndexConfig, Match, QuerySym, SimilarityIndex};
pub use length::{
    char_histogram, common_char_count, length_similarity, length_similarity_from_counts, HIST_BINS,
};
pub use par::{chunked_map, resolve_threads, MAX_AUTO_THREADS};
pub use sw_gotoh::{
    swg_similarity, swg_similarity_normalized_chars, swg_similarity_normalized_chars_at_least,
    swg_similarity_with, SwgParams,
};
pub use sw_kernel::{
    aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile, MASK_MAX_LEN,
};

#[cfg(test)]
mod proptests {
    //! Property-style tests over seeded random strings (formerly `proptest`
    //! strategies; driven by the vendored deterministic RNG instead).

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::combined::SimilarityOperator;
    use crate::length::length_similarity;
    use crate::sw_gotoh::swg_similarity;

    const CASES: usize = 300;

    /// Random printable-ASCII string of length `0..max_len`.
    fn printable(rng: &mut StdRng, max_len: usize) -> String {
        let len = rng.gen_range(0..max_len + 1);
        (0..len)
            .map(|_| rng.gen_range(0x20u8..0x7f) as char)
            .collect()
    }

    /// Random lowercase alphanumeric string of length `1..=max_len`.
    fn alnum(rng: &mut StdRng, max_len: usize) -> String {
        let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ";
        let len = rng.gen_range(1..max_len + 1);
        (0..len)
            .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
            .collect()
    }

    #[test]
    fn swg_is_bounded_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(0x5179);
        for _ in 0..CASES {
            let a = printable(&mut rng, 24);
            let b = printable(&mut rng, 24);
            let ab = swg_similarity(&a, &b);
            let ba = swg_similarity(&b, &a);
            assert!((0.0..=1.0).contains(&ab), "swg({a:?}, {b:?}) = {ab}");
            assert!((ab - ba).abs() < 1e-9, "asymmetry on ({a:?}, {b:?})");
        }
    }

    #[test]
    fn swg_identity_is_one() {
        let mut rng = StdRng::seed_from_u64(0x1d31);
        for _ in 0..CASES {
            let a = alnum(&mut rng, 24);
            if a.trim().is_empty() {
                continue;
            }
            assert!(
                (swg_similarity(&a, &a) - 1.0).abs() < 1e-9,
                "swg({a:?}, {a:?}) != 1"
            );
        }
    }

    #[test]
    fn length_similarity_bounded() {
        let mut rng = StdRng::seed_from_u64(0x1e57);
        for _ in 0..CASES {
            let a = printable(&mut rng, 32);
            let b = printable(&mut rng, 32);
            let s = length_similarity(&a, &b);
            assert!((0.0..=1.0).contains(&s), "length({a:?}, {b:?}) = {s}");
        }
    }

    #[test]
    fn combined_score_bounded() {
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        let op = SimilarityOperator::default();
        for _ in 0..CASES {
            let a = printable(&mut rng, 24);
            let b = printable(&mut rng, 24);
            let s = op.score(&a, &b);
            assert!((0.0..=1.0).contains(&s), "combined({a:?}, {b:?}) = {s}");
        }
    }
}
