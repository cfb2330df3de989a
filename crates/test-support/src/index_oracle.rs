//! Brute-force all-pairs reference similarity index.
//!
//! The production [`dlearn_similarity::SimilarityIndex`] earns its speed
//! three ways — token/trigram blocking, a score bound, and a top-k early
//! exit — and builds in parallel on a banded alignment kernel. This
//! reference does none of that: it scores **every** (left, right) pair with
//! the exhaustive reference DP ([`crate::swg_reference`]), keeps
//! pairs at or above the threshold, sorts by (score descending, value
//! ascending) and truncates to `top_k`, mirroring the index's documented
//! semantics with the dumbest possible implementation. The differential
//! suite (`crates/similarity/tests/index_oracle.rs`) asserts the production
//! build equals this oracle entry for entry on seeded dirty vocabularies,
//! which proves no prune ever drops a pair that could reach the threshold.

use std::collections::BTreeMap;

use dlearn_relstore::Sym;
use dlearn_similarity::{IndexConfig, Match, SimilarityIndex};

use crate::swg_reference::reference_score;

/// The oracle's view of a built index: per-side sorted entry lists, one
/// `(value, matches)` pair per value with at least one stored match.
///
/// `Entries` is ordered by `Sym`'s lexicographic `Ord`, so two views compare
/// with `==` regardless of how they were produced.
pub type Entries = BTreeMap<Sym, Vec<Match>>;

/// A brute-force all-pairs reference index (no blocking, no length filter,
/// no early exit, strictly serial).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceIndex {
    /// Left-side entries.
    pub left_to_right: Entries,
    /// Right-side entries.
    pub right_to_left: Entries,
}

impl ReferenceIndex {
    /// Build the reference by scoring all `|L| · |R|` pairs.
    pub fn build(left: &[Sym], right: &[Sym], config: &IndexConfig) -> Self {
        let left = dedup(left);
        let right = dedup(right);
        let mut left_to_right: Entries = BTreeMap::new();
        let mut right_to_left: Entries = BTreeMap::new();
        for &l in &left {
            let mut matches: Vec<Match> = Vec::new();
            for &r in &right {
                let score = reference_score(&config.operator, l.as_str(), r.as_str());
                if score >= config.operator.threshold {
                    matches.push(Match { value: r, score });
                }
            }
            sort_matches(&mut matches);
            matches.truncate(config.top_k);
            for m in &matches {
                right_to_left.entry(m.value).or_default().push(Match {
                    value: l,
                    score: m.score,
                });
            }
            if !matches.is_empty() {
                left_to_right.insert(l, matches);
            }
        }
        for matches in right_to_left.values_mut() {
            sort_matches(matches);
            matches.truncate(config.top_k);
        }
        ReferenceIndex {
            left_to_right,
            right_to_left,
        }
    }

    /// The production index's contents in the oracle's comparable shape.
    pub fn view_of(index: &SimilarityIndex) -> Self {
        ReferenceIndex {
            left_to_right: index.iter_left().map(|(k, v)| (k, v.to_vec())).collect(),
            right_to_left: index.iter_right().map(|(k, v)| (k, v.to_vec())).collect(),
        }
    }

    /// Total number of stored forward match pairs.
    pub fn pair_count(&self) -> usize {
        self.left_to_right.values().map(Vec::len).sum()
    }
}

/// The index's deterministic match order: descending score, ties broken by
/// the value's string order.
fn sort_matches(matches: &mut [Match]) {
    matches.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.value.cmp(&b.value))
    });
}

fn dedup(values: &[Sym]) -> Vec<Sym> {
    let mut v: Vec<Sym> = values.to_vec();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_similarity::SimilarityOperator;

    fn syms(values: &[&str]) -> Vec<Sym> {
        values.iter().map(Sym::intern).collect()
    }

    #[test]
    fn oracle_finds_unblocked_pairs_too() {
        // "abcd" / "abxd" share no token or trigram, so the *blocked* index
        // cannot see the pair — but the all-pairs oracle must: that is the
        // difference that makes it a reference for blocking-complete
        // vocabularies rather than a re-implementation of the index.
        let left = syms(&["abcd"]);
        let right = syms(&["abxd"]);
        let config = IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::with_threshold(0.7),
            ..IndexConfig::default()
        };
        let oracle = ReferenceIndex::build(&left, &right, &config);
        assert_eq!(oracle.pair_count(), 1, "{oracle:?}");
        let built = SimilarityIndex::build(&left, &right, &config);
        assert_eq!(built.pair_count(), 0, "blocking should hide this pair");
    }

    #[test]
    fn oracle_orders_and_truncates_like_the_index() {
        let left = syms(&["star wars"]);
        let right = syms(&[
            "star wars episode iv",
            "star wars episode iii",
            "star wars trilogy boxed set extended",
        ]);
        let config = IndexConfig {
            top_k: 2,
            operator: SimilarityOperator::with_threshold(0.5),
            ..IndexConfig::default()
        };
        let oracle = ReferenceIndex::build(&left, &right, &config);
        let entry = &oracle.left_to_right[&left[0]];
        assert_eq!(entry.len(), 2, "{entry:?}");
        assert!(entry[0].score >= entry[1].score);
        let built = ReferenceIndex::view_of(&SimilarityIndex::build(&left, &right, &config));
        assert_eq!(oracle, built);
    }

    #[test]
    fn view_of_round_trips_the_built_index() {
        let left = syms(&["golden harbor", "silent meadow"]);
        let right = syms(&["golden harbor (1984)", "unrelated"]);
        let config = IndexConfig::top_k(3);
        let built = SimilarityIndex::build(&left, &right, &config);
        let view = ReferenceIndex::view_of(&built);
        assert_eq!(view.pair_count(), built.pair_count());
    }
}
