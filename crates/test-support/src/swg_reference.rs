//! The exhaustive Smith-Waterman-Gotoh reference score.
//!
//! Production `dlearn-similarity` scores through one banded,
//! early-abandoning kernel (`sw_kernel`). This is the plain three-matrix
//! dynamic program (`H`, `E`, `F`; local alignment with affine gaps,
//! Gotoh 1982) over every cell, with no band, no abandon test and no fast
//! path, plus the operator's average with the length similarity. The
//! all-pairs [`crate::ReferenceIndex`] and the vocabulary vetting pass score
//! through it, so the oracles stay independent of the kernel, and
//! `crates/similarity/tests/kernel_oracle.rs` checks the kernel against it
//! bit for bit.

use dlearn_similarity::tokenize::normalize;
use dlearn_similarity::{SimilarityOperator, SwgParams};

/// Normalized SWG similarity of two already-normalized char slices, in
/// `[0, 1]`: the best local score divided by `match_score · min(|a|, |b|)`,
/// the most the shorter string can score. Two empty strings score 1, one
/// empty string 0.
pub fn reference_swg(a: &[char], b: &[char], p: &SwgParams) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.len() == b.len() { 1.0 } else { 0.0 };
    }
    let denom = p.match_score * a.len().min(b.len()) as f64;
    if denom <= 0.0 {
        return 0.0;
    }
    let m = b.len();
    // Rolling rows: H (best score ending at i,j), E (gap in a), F (gap in b).
    let mut h_prev = vec![0.0f64; m + 1];
    let mut h_curr = vec![0.0f64; m + 1];
    let mut f_prev = vec![f64::NEG_INFINITY; m + 1];
    let mut f_curr = vec![f64::NEG_INFINITY; m + 1];
    let mut best = 0.0f64;
    for &ca in a {
        let mut e = f64::NEG_INFINITY;
        for j in 1..=m {
            e = (e - p.gap_extend).max(h_curr[j - 1] - p.gap_open);
            f_curr[j] = (f_prev[j] - p.gap_extend).max(h_prev[j] - p.gap_open);
            let subst = if ca == b[j - 1] {
                p.match_score
            } else {
                p.mismatch_score
            };
            let score = (h_prev[j - 1] + subst).max(e).max(f_curr[j]).max(0.0);
            h_curr[j] = score;
            best = best.max(score);
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
        std::mem::swap(&mut f_prev, &mut f_curr);
    }
    (best / denom).clamp(0.0, 1.0)
}

/// The operator's combined score of two raw strings: the average of
/// [`reference_swg`] and the length similarity (shorter over longer
/// normalized length) of their normalized forms.
pub fn reference_score(op: &SimilarityOperator, a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    let (short, long) = (a.len().min(b.len()), a.len().max(b.len()));
    let len = match (short, long) {
        (_, 0) => 1.0,
        (0, _) => 0.0,
        _ => short as f64 / long as f64,
    };
    (reference_swg(&a, &b, &op.swg) + len) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swg(a: &str, b: &str) -> f64 {
        let a: Vec<char> = normalize(a).chars().collect();
        let b: Vec<char> = normalize(b).chars().collect();
        reference_swg(&a, &b, &SwgParams::default())
    }

    #[test]
    fn identical_and_empty_strings_hit_the_ends_of_the_scale() {
        assert_eq!(swg("Superbad", "Superbad"), 1.0);
        assert_eq!(swg("STAR-WARS", "star wars"), 1.0);
        assert_eq!(swg("", ""), 1.0);
        assert_eq!(swg("", "abc"), 0.0);
        assert_eq!(swg("abc", ""), 0.0);
    }

    #[test]
    fn a_contained_string_aligns_fully_and_unrelated_ones_barely() {
        assert_eq!(swg("Star Wars", "Star Wars: Episode IV - 1977"), 1.0);
        assert!(swg("Zoolander", "Zoolandr") > 0.8);
        assert!(swg("Superbad", "Orphanage") < 0.6);
        assert!(swg("aaaa", "zzzz") < 0.01);
    }

    #[test]
    fn stricter_mismatches_never_raise_the_score() {
        let strict = SwgParams {
            mismatch_score: -10.0,
            ..SwgParams::default()
        };
        let (a, b): (Vec<char>, Vec<char>) = ("abcd".chars().collect(), "abxd".chars().collect());
        assert!(reference_swg(&a, &b, &strict) <= reference_swg(&a, &b, &SwgParams::default()));
    }

    #[test]
    fn the_score_averages_alignment_and_length() {
        let op = SimilarityOperator::default();
        assert_eq!(reference_score(&op, "abcd", "abcdefgh"), 0.75);
        assert_eq!(reference_score(&op, "", ""), 1.0);
        assert_eq!(reference_score(&op, "?!|", "abc"), 0.0);
    }
}
