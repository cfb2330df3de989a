//! # dlearn-similarity — string similarity operators and match indexes
//!
//! DLearn resolves value heterogeneity with a string-similarity operator: the
//! average of the Smith-Waterman-Gotoh local-alignment similarity and the
//! Length similarity (Section 5 of the paper), and it precomputes, for every
//! value participating in a matching dependency, the top-`km` most similar
//! values on the other side of the dependency.
//!
//! * [`SimilarityOperator`] — the combined operator with a decision
//!   threshold, and [`SimilarityOperator::score_bound_from_matches`], the
//!   one upper bound on its score.
//! * [`swg_similarity_banded_at_least`] — the normalized
//!   Smith-Waterman-Gotoh score: the crate's one SWG dynamic program, banded
//!   and early-abandoning against a required score.
//! * [`length_similarity_from_counts`] — ratio of normalized string lengths.
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
pub mod sw_kernel;
pub mod tokenize;

pub use combined::SimilarityOperator;
pub use delta::{ColumnDelta, DeltaOutcome, MaintainedIndex};
pub use index::{IndexConfig, Match, QuerySym, SimilarityIndex};
pub use length::{char_histogram, common_char_count, length_similarity_from_counts, HIST_BINS};
pub use par::{chunked_map, resolve_threads, MAX_AUTO_THREADS};
pub use sw_kernel::{
    aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile, SwgParams, MASK_MAX_LEN,
};
