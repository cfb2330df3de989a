//! The combined similarity operator used by DLearn.
//!
//! Section 5 of the paper: *"To implement similarity over strings, DLearn
//! uses the operator defined as the average of the Smith-Waterman-Gotoh and
//! the Length similarity functions."*

use crate::length::{length_similarity, length_similarity_from_counts};
use crate::sw_gotoh::{swg_similarity_with, SwgParams, ABANDON_SLACK};
use crate::sw_kernel::{aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile};

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

    /// Combined similarity score of two strings in `[0, 1]`.
    pub fn score(&self, a: &str, b: &str) -> f64 {
        let swg = swg_similarity_with(a, b, &self.swg);
        let len = length_similarity(a, b);
        (swg + len) / 2.0
    }

    /// The `≈` predicate: whether two strings are similar under the
    /// operator's threshold.
    pub fn similar(&self, a: &str, b: &str) -> bool {
        self.score(a, b) >= self.threshold
    }

    /// Upper bound on [`SimilarityOperator::score`] for any pair of strings
    /// whose *normalized* char counts are `left_len` and `right_len`.
    ///
    /// The combined score averages the Smith-Waterman-Gotoh similarity
    /// (clamped to `[0, 1]`, so at most `1`) with the length similarity,
    /// which depends only on the two normalized lengths. Hence
    ///
    /// ```text
    /// score(a, b) = (swg + len) / 2  <=  (1 + len(|a|, |b|)) / 2
    /// ```
    ///
    /// and when exactly one side is empty, both components are `0`, so the
    /// bound is `0`. The inequality holds in floating point too: `swg` is
    /// clamped to at most `1.0` and `x ↦ (x + len) / 2` is monotone under
    /// IEEE-754 addition and division. The bound is *tight*: a prefix pair
    /// (`"abcd"` vs `"abcdefgh"`) has `swg = 1` and attains it exactly.
    ///
    /// Index construction uses this to skip `score` calls for pairs that
    /// provably cannot reach `threshold` (see
    /// [`crate::index::SimilarityIndex::build`]): skipping is lossless
    /// because `bound < threshold` implies `score < threshold`.
    pub fn max_score_bound(&self, left_len: usize, right_len: usize) -> f64 {
        if left_len == 0 || right_len == 0 {
            // Both components vanish against an empty normalized string,
            // except for the both-empty case where both are 1.
            return if left_len == right_len { 1.0 } else { 0.0 };
        }
        (1.0 + length_similarity_from_counts(left_len, right_len)) / 2.0
    }

    /// Tighter upper bound on the score given, additionally, the size of
    /// the two strings' character multiset intersection (`common`, from
    /// [`crate::length::common_char_count`]).
    ///
    /// Every cell of the SWG dynamic program adds at most `match_score` and
    /// only for a pair of *equal* characters, so the best local score is at
    /// most `match_score · common` whenever mismatches and gaps cannot add
    /// score (`mismatch_score <= 0`, non-negative gap costs — true for the
    /// shipped parameters). Hence
    ///
    /// ```text
    /// swg(a, b) <= min(1, common / min(|a|, |b|))
    /// ```
    ///
    /// and the combined bound averages that with the exact length
    /// similarity. Both divisions are single correctly-rounded IEEE-754
    /// operations over exactly-representable integers, so the inequality
    /// survives floating point. With score-increasing custom parameters the
    /// SWG half falls back to `1`, degrading to [`Self::max_score_bound`]
    /// rather than turning unsound.
    pub fn max_score_bound_with_common(
        &self,
        left_len: usize,
        right_len: usize,
        common: u32,
    ) -> f64 {
        self.score_bound_from_matches(left_len, right_len, common as f64)
    }

    /// Upper bound on the score given any upper bound `matches` on the
    /// number of equal-character pairs an alignment of the two strings can
    /// contain — the generalization behind both
    /// [`Self::max_score_bound_with_common`] (histogram intersection) and
    /// the bit-parallel gate (the binned-LCS bound from
    /// [`crate::sw_kernel::aligned_match_upper_bound`], which also accounts
    /// for character *order* and is therefore often much tighter on
    /// anagram-ish pairs). Soundness needs the same parameter shape as the
    /// histogram bound; otherwise the SWG half falls back to `1`.
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

    /// The profile-to-profile hot path of index construction: the
    /// bit-parallel match bound gates the pair, then the **banded** exact
    /// dynamic program scores it. `None` means the combined score is
    /// strictly below `required`, so hopeless candidates pay for a prefix
    /// of the dynamic program instead of all of it; a `Some` score is
    /// bit-identical to [`Self::score`] on the strings the profiles were
    /// built from (the band and the gate only ever drop pairs that provably
    /// fall short). Pass `f64::NEG_INFINITY` to never abandon.
    pub fn score_profiles_at_least(
        &self,
        a: &SimProfile,
        b: &SimProfile,
        required: f64,
    ) -> Option<f64> {
        if required > f64::NEG_INFINITY {
            if let Some(matches) = aligned_match_upper_bound(a, b) {
                if self.score_bound_from_matches(a.len(), b.len(), matches)
                    < required - ABANDON_SLACK
                {
                    return None;
                }
            }
        }
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

    #[test]
    fn score_is_symmetric() {
        let op = SimilarityOperator::default();
        assert!((op.score("abcd", "abce") - op.score("abce", "abcd")).abs() < 1e-12);
    }

    use crate::tokenize::normalize;

    fn norm_len(s: &str) -> usize {
        normalize(s).chars().count()
    }

    /// The bound invariant the length filter relies on: for *any* pair, the
    /// real score never exceeds `max_score_bound` of the normalized lengths.
    fn assert_bounded(op: &SimilarityOperator, a: &str, b: &str) {
        let score = op.score(a, b);
        let bound = op.max_score_bound(norm_len(a), norm_len(b));
        assert!(
            score <= bound,
            "score({a:?}, {b:?}) = {score} exceeds bound {bound}"
        );
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
            let bound = op.max_score_bound(norm_len(a), norm_len(b));
            assert!(
                (score - bound).abs() < 1e-12,
                "prefix pair ({a:?}, {b:?}): score {score} != bound {bound}"
            );
            assert_bounded(&op, a, b);
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
            let at = op.max_score_bound(n, 2 * n);
            assert!(
                at >= op.threshold,
                "boundary pair ({n}, {}) pruned: bound {at} < {}",
                2 * n,
                op.threshold
            );
            let below = op.max_score_bound(n, 2 * n + 1);
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
        assert_eq!(op.max_score_bound(0, 0), 1.0);
        assert_eq!(op.score("", ""), 1.0);
        // One empty: both components are 0, and the bound knows it (the
        // naive (1 + 0) / 2 = 0.5 would be sound but needlessly loose).
        assert_eq!(op.max_score_bound(0, 7), 0.0);
        assert_eq!(op.max_score_bound(7, 0), 0.0);
        assert_bounded(&op, "", "abcdefg");
        assert_bounded(&op, "?!|", "abcdefg"); // normalizes to empty
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
                assert_bounded(&op, &a, &b);
                if reps_a == reps_b {
                    let bound = op.max_score_bound(norm_len(&a), norm_len(&b));
                    assert_eq!(bound, 1.0);
                    assert_eq!(op.score(&a, &b), 1.0);
                }
            }
        }
    }

    #[test]
    fn bound_holds_on_seeded_random_pairs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb0bd);
        let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 -!";
        let op = SimilarityOperator::default();
        for _ in 0..400 {
            let mut s = |max_len: usize| -> String {
                let len = rng.gen_range(0..max_len + 1);
                (0..len)
                    .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
                    .collect()
            };
            let a = s(28);
            let b = s(28);
            assert_bounded(&op, &a, &b);
        }
    }

    use crate::length::{char_histogram, common_char_count};

    fn common_of(a: &str, b: &str) -> u32 {
        common_char_count(
            &char_histogram(&normalize(a)),
            &char_histogram(&normalize(b)),
        )
    }

    #[test]
    fn common_char_bound_is_sound_and_no_looser_than_the_length_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc0c0);
        // A small alphabet forces heavy char overlap, the adversarial case
        // for the common/min(|a|,|b|) half of the bound.
        let alphabet = "abcab ";
        let op = SimilarityOperator::default();
        for _ in 0..400 {
            let mut s = |max_len: usize| -> String {
                let len = rng.gen_range(0..max_len + 1);
                (0..len)
                    .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
                    .collect()
            };
            let a = s(20);
            let b = s(20);
            let score = op.score(&a, &b);
            let tight =
                op.max_score_bound_with_common(norm_len(&a), norm_len(&b), common_of(&a, &b));
            let loose = op.max_score_bound(norm_len(&a), norm_len(&b));
            assert!(
                score <= tight,
                "score({a:?}, {b:?}) = {score} > tight bound {tight}"
            );
            assert!(
                tight <= loose,
                "tight bound {tight} above length bound {loose}"
            );
        }
    }

    #[test]
    fn common_char_bound_is_tight_for_identical_strings() {
        let op = SimilarityOperator::default();
        let s = "star wars";
        let bound = op.max_score_bound_with_common(norm_len(s), norm_len(s), common_of(s, s));
        assert_eq!(bound, 1.0);
        assert_eq!(op.score(s, s), 1.0);
    }

    #[test]
    fn common_char_bound_prunes_token_sharing_junk_the_length_bound_keeps() {
        // Two titles blocked together by a shared stopword-ish token but
        // otherwise unrelated: similar lengths (length bound useless), few
        // common chars (common bound decisive). This is the pair shape that
        // dominates large blocks, so the filter must catch it.
        let op = SimilarityOperator::default();
        let (a, b) = ("the golden harbor", "the mystic summit 1984");
        assert!(op.max_score_bound(norm_len(a), norm_len(b)) >= op.threshold);
        let tight = op.max_score_bound_with_common(norm_len(a), norm_len(b), common_of(a, b));
        assert!(
            tight < op.threshold,
            "common-char bound {tight} failed to prune the junk pair"
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
        let tight = weird.max_score_bound_with_common(norm_len(a), norm_len(b), common_of(a, b));
        assert_eq!(tight, weird.max_score_bound(norm_len(a), norm_len(b)));
        assert!(weird.score(a, b) <= tight);
    }

    #[test]
    fn common_bound_is_the_matches_bound_at_the_integer_point() {
        let op = SimilarityOperator::default();
        for (ll, rl, common) in [(4usize, 8usize, 3u32), (10, 10, 10), (1, 30, 0), (0, 5, 0)] {
            assert_eq!(
                op.max_score_bound_with_common(ll, rl, common),
                op.score_bound_from_matches(ll, rl, common as f64),
                "({ll}, {rl}, {common})"
            );
        }
    }

    #[test]
    fn profile_path_matches_the_scalar_char_path() {
        // The full kernel chain (bit-parallel gate + banded DP) against the
        // scalar reference, on seeded random pairs and random requirements:
        // completed runs are bit-identical, abandons only hide scores that
        // are truly below the requirement.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9f11);
        let alphabet = "abcdefgh 129";
        let op = SimilarityOperator::default();
        for _ in 0..600 {
            let mut s = |max_len: usize| -> String {
                let len = rng.gen_range(0..max_len + 1);
                (0..len)
                    .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
                    .collect()
            };
            let a = s(24);
            let b = s(24);
            let pa = crate::sw_kernel::SimProfile::new(&a);
            let pb = crate::sw_kernel::SimProfile::new(&b);
            let exact = op.score(&a, &b);
            let required = rng.gen_range(0.0..1.2);
            match op.score_profiles_at_least(&pa, &pb, required) {
                Some(v) => assert_eq!(v, exact, "({a:?}, {b:?}, required {required})"),
                None => assert!(
                    exact < required,
                    "kernel abandoned ({a:?}, {b:?}) at {required} but exact is {exact}"
                ),
            }
        }
    }

    #[test]
    fn profile_path_without_requirement_never_abandons() {
        let op = SimilarityOperator::default();
        for (a, b) in [("Superbad", "Superbad (2007)"), ("", ""), ("?!|", "x")] {
            let (pa, pb) = (
                crate::sw_kernel::SimProfile::new(a),
                crate::sw_kernel::SimProfile::new(b),
            );
            assert_eq!(
                op.score_profiles_at_least(&pa, &pb, f64::NEG_INFINITY),
                Some(op.score(a, b)),
                "({a:?}, {b:?})"
            );
        }
    }
}
