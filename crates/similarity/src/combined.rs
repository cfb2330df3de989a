//! The combined similarity operator used by DLearn.
//!
//! Section 5 of the paper: *"To implement similarity over strings, DLearn
//! uses the operator defined as the average of the Smith-Waterman-Gotoh and
//! the Length similarity functions."*
//!
//! Every score runs through [`SimilarityOperator::score_profiles_at_least`]:
//! the banded kernel ([`crate::sw_kernel`]) computes the SWG half and the
//! normalized lengths the length half. One formula,
//! [`SimilarityOperator::score_bound_from_matches`], bounds that score from
//! above; the index prunes candidate pairs with it.

use crate::length::{common_char_count, length_similarity_from_counts};
use crate::sw_kernel::{
    aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile, SwgParams,
};

/// A configurable string-similarity operator with a decision threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityOperator {
    /// Parameters of the Smith-Waterman-Gotoh component.
    pub swg: SwgParams,
    /// Two strings are considered *similar* (`a ≈ b`) when their combined
    /// score is at least this threshold.
    pub threshold: f64,
}

impl Default for SimilarityOperator {
    fn default() -> Self {
        // The threshold is calibrated so that an entity name matches its
        // decorated variants in the other source (e.g. "Star Wars" vs
        // "Star Wars: Episode IV - 1977", where the length component pulls
        // the average down) while unrelated names stay below it.
        SimilarityOperator {
            swg: SwgParams::default(),
            threshold: 0.65,
        }
    }
}

impl SimilarityOperator {
    /// Operator with a custom decision threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        SimilarityOperator {
            threshold,
            ..SimilarityOperator::default()
        }
    }

    /// Combined similarity score of two strings in `[0, 1]`: the average of
    /// the SWG and length similarities of their normalized forms
    /// (lowercased, punctuation collapsed), so `"Superbad (2007)"` and
    /// `"superbad 2007"` score 1.0.
    pub fn score(&self, a: &str, b: &str) -> f64 {
        self.score_profiles_at_least(&SimProfile::new(a), &SimProfile::new(b), f64::NEG_INFINITY)
            .expect("nothing is required, so the kernel never abandons")
    }

    /// The `≈` predicate: whether two strings are similar under the
    /// operator's threshold.
    pub fn similar(&self, a: &str, b: &str) -> bool {
        self.score(a, b) >= self.threshold
    }

    /// Upper bound on [`SimilarityOperator::score`] for two strings with
    /// normalized char counts `left_len` and `right_len`, given any upper
    /// bound `matches` on the number of equal-character pairs an alignment
    /// of them can contain.
    ///
    /// Every cell of the SWG dynamic program adds at most `match_score` and
    /// only for a pair of *equal* characters, so the best local score is at
    /// most `match_score · matches` whenever mismatches and gaps cannot add
    /// score (`mismatch_score <= 0`, non-negative gap costs — true for the
    /// shipped parameters). Hence
    ///
    /// ```text
    /// score(a, b) = (swg + len) / 2  <=  (min(1, matches / min(|a|, |b|)) + len) / 2
    /// ```
    ///
    /// where `len` is the exact length similarity. With score-increasing
    /// custom parameters the SWG half falls back to `1`. When exactly one
    /// side is empty both components are `0`, so the bound is `0`. The
    /// inequality survives floating point: the divisions are single
    /// correctly-rounded operations, and `x ↦ (x + len) / 2` is monotone.
    ///
    /// `matches = min(|a|, |b|)` gives the pure length bound
    /// `(1 + len) / 2`, which a prefix pair (`"abcd"` vs `"abcdefgh"`)
    /// attains exactly; the index feeds it the histogram intersection and
    /// the binned LCS (see [`crate::index`]).
    pub fn score_bound_from_matches(&self, left_len: usize, right_len: usize, matches: f64) -> f64 {
        if left_len == 0 || right_len == 0 {
            return if left_len == right_len { 1.0 } else { 0.0 };
        }
        let swg_bound = if self.swg.match_score > 0.0
            && self.swg.mismatch_score <= 0.0
            && self.swg.gap_open >= 0.0
            && self.swg.gap_extend >= 0.0
        {
            (matches / left_len.min(right_len) as f64).min(1.0)
        } else {
            1.0
        };
        (swg_bound + length_similarity_from_counts(left_len, right_len)) / 2.0
    }

    /// The score bound of one candidate pair, computed once per pair by the
    /// index build's filter and by delta maintenance alike. The histogram
    /// intersection ([`common_char_count`]) bounds the matches first; only
    /// when that bound still reaches the threshold does the order-aware
    /// binned LCS ([`aligned_match_upper_bound`]) tighten it — both are
    /// upper bounds on the matches, so their minimum bounds the score.
    pub(crate) fn pair_bound(&self, a: &SimProfile, b: &SimProfile) -> f64 {
        let (la, lb) = (a.len(), b.len());
        let bound =
            self.score_bound_from_matches(la, lb, common_char_count(&a.hist, &b.hist) as f64);
        if bound < self.threshold {
            return bound;
        }
        match aligned_match_upper_bound(a, b) {
            Some(lcs) => bound.min(self.score_bound_from_matches(la, lb, lcs)),
            None => bound,
        }
    }

    /// The combined score of two profiled strings, abandoning as soon as it
    /// provably falls strictly below `required`: the banded kernel runs at
    /// the SWG requirement the length similarity leaves, so a hopeless pair
    /// pays for a prefix of the dynamic program instead of all of it. A
    /// `Some` score is exact. Pass `f64::NEG_INFINITY` to never abandon.
    pub fn score_profiles_at_least(
        &self,
        a: &SimProfile,
        b: &SimProfile,
        required: f64,
    ) -> Option<f64> {
        let len = length_similarity_from_counts(a.len(), b.len());
        let required_swg = if required > f64::NEG_INFINITY {
            2.0 * required - len
        } else {
            f64::NEG_INFINITY
        };
        let swg = swg_similarity_banded_at_least(&a.chars, &b.chars, &self.swg, required_swg)?;
        Some((swg + len) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_strings_have_score_one() {
        assert_eq!(
            SimilarityOperator::default().score("Superbad", "Superbad"),
            1.0
        );
    }

    #[test]
    fn substring_with_extra_tokens_scores_between_swg_and_one() {
        let s = SimilarityOperator::default().score("Superbad", "Superbad (2007)");
        assert!(s > 0.7 && s < 1.0, "score {s}");
    }

    #[test]
    fn threshold_controls_the_similar_predicate() {
        let lenient = SimilarityOperator::with_threshold(0.5);
        let strict = SimilarityOperator::with_threshold(0.95);
        assert!(lenient.similar("Superbad", "Superbad 2007"));
        assert!(!strict.similar("Superbad", "Superbad 2007 director cut edition"));
    }

    #[test]
    fn unrelated_strings_are_not_similar() {
        let op = SimilarityOperator::default();
        assert!(!op.similar("Zoolander", "The Orphanage"));
    }

    /// A random string of length `0..=max_len` over `alphabet`.
    fn random_string(rng: &mut StdRng, alphabet: &str, max_len: usize) -> String {
        let len = rng.gen_range(0..max_len + 1);
        (0..len)
            .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
            .collect()
    }

    #[test]
    fn score_is_bounded_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        let printable: String = (0x20u8..0x7f).map(char::from).collect();
        let op = SimilarityOperator::default();
        for _ in 0..300 {
            let a = random_string(&mut rng, &printable, 24);
            let b = random_string(&mut rng, &printable, 24);
            let s = op.score(&a, &b);
            assert!((0.0..=1.0).contains(&s), "score({a:?}, {b:?}) = {s}");
            assert_eq!(s, op.score(&b, &a), "asymmetry on ({a:?}, {b:?})");
        }
    }

    /// The pure length bound of two strings: the matches bound at
    /// `matches = min(|a|, |b|)`.
    fn length_bound(op: &SimilarityOperator, a: &str, b: &str) -> f64 {
        let (la, lb) = (SimProfile::new(a).len(), SimProfile::new(b).len());
        op.score_bound_from_matches(la, lb, la.min(lb) as f64)
    }

    /// The histogram-intersection bound of two strings.
    fn histogram_bound(op: &SimilarityOperator, a: &str, b: &str) -> f64 {
        let (pa, pb) = (SimProfile::new(a), SimProfile::new(b));
        op.score_bound_from_matches(
            pa.len(),
            pb.len(),
            common_char_count(&pa.hist, &pb.hist) as f64,
        )
    }

    #[test]
    fn bound_is_tight_for_prefix_pairs() {
        // A prefix aligns perfectly, so swg = 1 and the score *equals* the
        // bound — the bound cannot be lowered without pruning real matches.
        let op = SimilarityOperator::default();
        for (a, b) in [
            ("abcd", "abcdefgh"),
            ("star wars", "star wars episode iv 1977"),
            ("x", "xyxyxyxy"),
        ] {
            let score = op.score(a, b);
            let bound = length_bound(&op, a, b);
            assert!(
                (score - bound).abs() < 1e-12,
                "prefix pair ({a:?}, {b:?}): score {score} != bound {bound}"
            );
        }
    }

    #[test]
    fn bound_at_and_just_below_the_threshold_boundary() {
        // With threshold t, a pair survives the filter iff
        // (1 + min/max) / 2 >= t, i.e. min/max >= 2t - 1. For t = 0.75 the
        // boundary ratio is 0.5: an (n, 2n) prefix pair sits exactly *at*
        // the boundary and must not be pruned; an (n, 2n + 1) pair sits just
        // below it and must be prunable.
        let op = SimilarityOperator::with_threshold(0.75);
        for n in [1usize, 2, 5, 13, 40] {
            let at = op.score_bound_from_matches(n, 2 * n, n as f64);
            assert!(
                at >= op.threshold,
                "boundary pair ({n}, {}) pruned: bound {at} < {}",
                2 * n,
                op.threshold
            );
            let below = op.score_bound_from_matches(n, 2 * n + 1, n as f64);
            assert!(
                below < op.threshold,
                "pair ({n}, {}) should fall below threshold: bound {below}",
                2 * n + 1
            );
        }
        // An actual string pair exactly at the boundary: prefix of half the
        // length scores exactly (1 + 0.5) / 2 = 0.75 = t.
        let score = op.score("abcd", "abcdefgh");
        assert!((score - 0.75).abs() < 1e-12, "score {score}");
        assert!(score >= op.threshold);
    }

    #[test]
    fn bound_handles_empty_strings() {
        let op = SimilarityOperator::default();
        // Both empty: identical under normalization, score = bound = 1.
        assert_eq!(op.score_bound_from_matches(0, 0, 0.0), 1.0);
        // One empty: both components are 0, and the bound knows it (the
        // naive (1 + 0) / 2 = 0.5 would be sound but needlessly loose).
        assert_eq!(op.score_bound_from_matches(0, 7, 0.0), 0.0);
        assert_eq!(op.score_bound_from_matches(7, 0, 0.0), 0.0);
        assert_eq!(length_bound(&op, "?!|", "abcdefg"), 0.0); // normalizes to empty
    }

    #[test]
    fn bound_holds_for_identical_token_repetitions() {
        // All-identical-token values: maximal swg overlap at every length
        // ratio — the adversarial case for the swg <= 1 half of the bound.
        let op = SimilarityOperator::default();
        for reps_a in 1..=6usize {
            for reps_b in 1..=6usize {
                let a = vec!["echo"; reps_a].join(" ");
                let b = vec!["echo"; reps_b].join(" ");
                let (pa, pb) = (SimProfile::new(&a), SimProfile::new(&b));
                let score = op.score(&a, &b);
                assert!(score <= op.pair_bound(&pa, &pb), "({a:?}, {b:?})");
                if reps_a == reps_b {
                    assert_eq!(op.pair_bound(&pa, &pb), 1.0);
                    assert_eq!(score, 1.0);
                }
            }
        }
    }

    #[test]
    fn pair_bound_is_sound_and_no_looser_than_the_histogram_bound() {
        // The small alphabet forces heavy char overlap, the adversarial case
        // for the matches / min(|a|, |b|) half of the bound.
        let mut rng = StdRng::seed_from_u64(0xc0c0);
        for (alphabet, max_len) in [
            ("abcab ", 20),
            ("abcdefghijklmnopqrstuvwxyz0123456789 -!", 28),
        ] {
            let op = SimilarityOperator::default();
            for _ in 0..400 {
                let a = random_string(&mut rng, alphabet, max_len);
                let b = random_string(&mut rng, alphabet, max_len);
                let score = op.score(&a, &b);
                let bound = op.pair_bound(&SimProfile::new(&a), &SimProfile::new(&b));
                let histogram = histogram_bound(&op, &a, &b);
                assert!(
                    score <= bound,
                    "score({a:?}, {b:?}) = {score} > bound {bound}"
                );
                assert!(
                    bound <= histogram,
                    "pair bound {bound} above histogram {histogram}"
                );
                assert!(histogram <= length_bound(&op, &a, &b), "({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn pair_bound_prunes_token_sharing_junk_the_length_bound_keeps() {
        // Two titles blocked together by a shared stopword-ish token but
        // otherwise unrelated: similar lengths (length bound useless), few
        // common chars (histogram bound decisive). This is the pair shape
        // that dominates large blocks, so the filter must catch it.
        let op = SimilarityOperator::default();
        let (a, b) = ("the golden harbor", "the mystic summit 1984");
        assert!(length_bound(&op, a, b) >= op.threshold);
        let bound = op.pair_bound(&SimProfile::new(a), &SimProfile::new(b));
        assert!(
            bound < op.threshold,
            "pair bound {bound} failed to prune the junk pair"
        );
        assert!(
            op.score(a, b) < op.threshold,
            "pair is genuinely below threshold"
        );
    }

    #[test]
    fn score_increasing_params_degrade_the_swg_half_to_one() {
        // A positive mismatch score breaks the "only equal chars add score"
        // argument; the bound must fall back to the plain length bound
        // instead of becoming unsound.
        let weird = SimilarityOperator {
            swg: SwgParams {
                mismatch_score: 0.5,
                ..SwgParams::default()
            },
            threshold: 0.65,
        };
        let (a, b) = ("abcdef", "uvwxyz");
        let bound = weird.pair_bound(&SimProfile::new(a), &SimProfile::new(b));
        assert_eq!(bound, length_bound(&weird, a, b));
        assert!(weird.score(a, b) <= bound);
    }
}
