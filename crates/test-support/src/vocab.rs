//! Seeded dirty-string vocabulary generators for similarity-index testing.
//!
//! The generators model the value heterogeneity DLearn's matching
//! dependencies are built for: the two sides of an MD hold *variants* of a
//! shared set of base entity names — decorated with years or edition tags,
//! typo'd inside a token, or with their tokens swapped — plus some values
//! private to one side.
//!
//! The generated vocabularies are **blocking-complete**: every (left,
//! right) pair whose combined score can reach `blocking_floor` shares at
//! least one blocking key of the production index
//! (`dlearn_similarity::tokenize::blocking_keys`: word tokens, plus
//! character trigrams for values of at most two tokens). Two mechanisms
//! cooperate:
//!
//! * the corruptions are designed to keep same-base variants in a common
//!   block — at most one token is typo'd per variant, typos only hit tokens
//!   of length ≥ 6 at char position ≥ 3 (leading trigrams survive), token
//!   swaps permute tokens without changing them, decorations only append;
//! * a final deterministic vetting pass *enforces* the contract: any left
//!   value still forming an above-floor pair with a key-disjoint right
//!   value (two sides of a base typo'd in different tokens, or short
//!   unrelated words aligning by chance) is dropped. The pass only removes
//!   values, so it cannot create a completeness violation, and the drop
//!   rate stays small (pinned by a test below).
//!
//! That makes brute-force all-pairs comparison a meaningful oracle for the
//! blocked index: on these vocabularies, blocking hides nothing above the
//! floor, so the only ways the built index could diverge from the oracle
//! are the length filter, the top-k early exit, or the parallel merge —
//! exactly what `crates/similarity/tests/index_oracle.rs` pins.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_relstore::Sym;
use dlearn_similarity::tokenize::blocking_keys;
use dlearn_similarity::SimilarityOperator;

use crate::swg_reference::reference_score;

/// Adjective-like title words. All entries are at least 6 chars so any of
/// them is eligible for a trigram-preserving typo.
const WORDS_A: &[&str] = &[
    "crimson",
    "silent",
    "golden",
    "hidden",
    "broken",
    "electric",
    "midnight",
    "wandering",
    "obsidian",
    "restless",
    "scarlet",
    "twisted",
    "violet",
    "frozen",
    "burning",
    "distant",
    "gentle",
    "hollow",
    "emerald",
    "mystic",
];

/// Noun-like title words.
const WORDS_B: &[&str] = &[
    "harbor",
    "summit",
    "valley",
    "garden",
    "empire",
    "shadow",
    "canyon",
    "horizon",
    "meadow",
    "fortress",
    "lantern",
    "mirror",
    "orchard",
    "passage",
    "quarry",
    "sanctuary",
    "threshold",
    "voyage",
    "whisper",
    "beacon",
    "cascade",
    "dominion",
    "frontier",
    "glacier",
    "harvest",
];

/// Edition-style decoration tokens (appended, never corrupted).
const EDITIONS: &[&str] = &["remastered", "directors cut", "special edition", "unrated"];

/// Knobs of the dirty vocabulary generator.
#[derive(Debug, Clone)]
pub struct VocabConfig {
    /// Number of shared base entity names.
    pub bases: usize,
    /// Variants of each base emitted on the left side (`0..=left_variants`,
    /// drawn uniformly).
    pub left_variants: usize,
    /// Variants of each base emitted on the right side.
    pub right_variants: usize,
    /// Extra values private to each side (unrelated entities).
    pub noise_per_side: usize,
    /// Probability that a variant gets a char-level typo in one token.
    pub p_typo: f64,
    /// Probability that a variant gets a year/edition decoration.
    pub p_decorate: f64,
    /// Probability that a multi-token variant has two tokens swapped.
    pub p_swap: f64,
    /// Blocking-completeness floor: after generation, left values that form
    /// a pair scoring at least this value with a key-disjoint right value
    /// are dropped (see the module docs). Oracle suites must not test
    /// thresholds below this. `None` skips the vetting pass (benchmarks,
    /// where completeness is irrelevant and the all-pairs pass would cost
    /// as much as the workload itself).
    pub blocking_floor: Option<f64>,
    /// Zipf skew exponent of the word draws: rank `i` of a word list is
    /// drawn with weight `1 / (i + 1)^zipf_s`. `0.0` (the default) is the
    /// uniform draw — and takes the *identical* RNG path as before the knob
    /// existed, so seeded vocabularies (including the committed benchmark
    /// workloads) are unchanged. Realistic title vocabularies are heavily
    /// skewed; `zipf_s` ≈ 1 makes a handful of words dominate, which turns
    /// their blocking keys hot and exercises the index's skew-aware
    /// candidate generation.
    pub zipf_s: f64,
}

impl Default for VocabConfig {
    fn default() -> Self {
        VocabConfig {
            bases: 24,
            left_variants: 2,
            right_variants: 2,
            noise_per_side: 8,
            p_typo: 0.45,
            p_decorate: 0.5,
            p_swap: 0.25,
            blocking_floor: Some(0.65),
            zipf_s: 0.0,
        }
    }
}

impl VocabConfig {
    /// A configuration sized for the `index_build` benchmark: ~1k distinct
    /// values per side, no vetting pass.
    pub fn benchmark_1k() -> Self {
        VocabConfig {
            bases: 720,
            left_variants: 2,
            right_variants: 2,
            noise_per_side: 260,
            blocking_floor: None,
            ..VocabConfig::default()
        }
    }

    /// A benchmark configuration scaled to roughly `per_side` values per
    /// side, keeping the base/noise mix of [`VocabConfig::benchmark_1k`]
    /// (`benchmark_sized(1000)` *is* that configuration). Used by the
    /// scaling-curve benches, where curve shape across sizes is the signal.
    pub fn benchmark_sized(per_side: usize) -> Self {
        VocabConfig {
            bases: per_side * 72 / 100,
            noise_per_side: per_side * 26 / 100,
            ..VocabConfig::benchmark_1k()
        }
    }

    /// A default-shaped oracle configuration with Zipf-skewed word draws:
    /// hot stopword-ish tokens dominate, so the index's hot-key path is
    /// exercised while the vetting pass still guarantees
    /// blocking-completeness.
    pub fn skewed_oracle(zipf_s: f64) -> Self {
        VocabConfig {
            zipf_s,
            ..VocabConfig::default()
        }
    }

    /// Set the Zipf skew exponent (builder style).
    pub fn with_zipf_s(mut self, zipf_s: f64) -> Self {
        self.zipf_s = zipf_s;
        self
    }
}

/// A generated pair of dirty columns (the two sides of an MD).
#[derive(Debug, Clone)]
pub struct DirtyVocabulary {
    /// Left-column values (duplicates possible, as in a real column).
    pub left: Vec<Sym>,
    /// Right-column values.
    pub right: Vec<Sym>,
    /// Left values removed by the blocking-completeness vetting pass.
    pub dropped_left: usize,
}

/// A base entity name of 1–3 tokens drawn from the word lists.
fn base_title(rng: &mut StdRng, zipf_s: f64) -> String {
    match rng.gen_range(0..4u32) {
        // Single-token names exercise the trigram blocking path.
        0 => pick(rng, WORDS_B, zipf_s).to_string(),
        1 | 2 => format!(
            "{} {}",
            pick(rng, WORDS_A, zipf_s),
            pick(rng, WORDS_B, zipf_s)
        ),
        _ => format!(
            "{} {} {}",
            pick(rng, WORDS_A, zipf_s),
            pick(rng, WORDS_B, zipf_s),
            pick(rng, WORDS_B, zipf_s)
        ),
    }
}

/// Draw a word: uniformly for `zipf_s = 0` (one integer draw — the exact
/// pre-knob RNG stream), Zipf-weighted by list rank otherwise (one float
/// draw walking the cumulative mass).
fn pick<'a>(rng: &mut StdRng, items: &'a [&'a str], zipf_s: f64) -> &'a str {
    if zipf_s <= 0.0 {
        return items[rng.gen_range(0..items.len())];
    }
    let weight = |i: usize| 1.0 / ((i + 1) as f64).powf(zipf_s);
    let total: f64 = (0..items.len()).map(weight).sum();
    let mut draw = rng.gen_range(0.0..1.0) * total;
    for (i, item) in items.iter().enumerate() {
        draw -= weight(i);
        if draw <= 0.0 {
            return item;
        }
    }
    items[items.len() - 1]
}

/// Apply a char-level typo (substitution, deletion, or duplication) to one
/// eligible token: length ≥ 6, at char position ≥ 3, so the token's leading
/// trigrams — and with them at least one blocking key of short values —
/// survive.
fn typo_one_token(title: &str, rng: &mut StdRng) -> String {
    let mut tokens: Vec<String> = title.split(' ').map(str::to_string).collect();
    let eligible: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].chars().count() >= 6)
        .collect();
    if eligible.is_empty() {
        return title.to_string();
    }
    let ti = eligible[rng.gen_range(0..eligible.len())];
    let mut chars: Vec<char> = tokens[ti].chars().collect();
    let pos = rng.gen_range(3..chars.len());
    match rng.gen_range(0..3u32) {
        0 => chars[pos] = alphabet_char(rng),
        1 => {
            chars.remove(pos);
        }
        _ => chars.insert(pos, chars[pos - 1]),
    }
    tokens[ti] = chars.into_iter().collect();
    tokens.join(" ")
}

fn alphabet_char(rng: &mut StdRng) -> char {
    (b'a' + rng.gen_range(0..26u32) as u8) as char
}

/// One dirty variant of a base title. At most one token is typo'd; swaps
/// permute whole tokens; decorations append new tokens — so variant and
/// base always share a blocking key.
fn variant(base: &str, rng: &mut StdRng, config: &VocabConfig) -> String {
    let mut title = base.to_string();
    if rng.gen_bool(config.p_typo) {
        title = typo_one_token(&title, rng);
    }
    if rng.gen_bool(config.p_swap) {
        let mut tokens: Vec<&str> = title.split(' ').collect();
        if tokens.len() >= 2 {
            let i = rng.gen_range(0..tokens.len() - 1);
            tokens.swap(i, i + 1);
            title = tokens.join(" ");
        }
    }
    if rng.gen_bool(config.p_decorate) {
        title = match rng.gen_range(0..3u32) {
            0 => format!("{title} ({})", 1960 + rng.gen_range(0..60u32)),
            1 => format!("{title} {}", pick(rng, EDITIONS, config.zipf_s)),
            _ => format!("The {title}"),
        };
    }
    title
}

/// Generate a seeded dirty vocabulary pair. Deterministic per
/// `(config, seed)`.
pub fn dirty_vocabulary(config: &VocabConfig, seed: u64) -> DirtyVocabulary {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<String> = (0..config.bases)
        .map(|_| base_title(&mut rng, config.zipf_s))
        .collect();
    let mut left: Vec<Sym> = Vec::new();
    let mut right: Vec<Sym> = Vec::new();
    for base in &bases {
        for _ in 0..rng.gen_range(0..config.left_variants + 1) {
            left.push(Sym::intern(variant(base, &mut rng, config)));
        }
        for _ in 0..rng.gen_range(0..config.right_variants + 1) {
            right.push(Sym::intern(variant(base, &mut rng, config)));
        }
    }
    // Side-private noise: fresh bases that may still collide with shared
    // tokens (realistic, and it stresses the blocking candidate lists).
    for _ in 0..config.noise_per_side {
        left.push(Sym::intern(base_title(&mut rng, config.zipf_s)));
        right.push(Sym::intern(base_title(&mut rng, config.zipf_s)));
    }
    let dropped_left = match config.blocking_floor {
        Some(floor) => enforce_blocking_completeness(&mut left, &right, floor),
        None => 0,
    };
    DirtyVocabulary {
        left,
        right,
        dropped_left,
    }
}

/// Drop every left value that forms a pair scoring at least `floor` with a
/// right value it shares no blocking key with. Removing values can only
/// remove pairs, so the result is blocking-complete above `floor` by
/// construction. Returns the number of values dropped.
fn enforce_blocking_completeness(left: &mut Vec<Sym>, right: &[Sym], floor: f64) -> usize {
    let operator = SimilarityOperator::with_threshold(floor);
    let right_keys: Vec<HashSet<String>> = right
        .iter()
        .map(|r| blocking_keys(r.as_str()).into_iter().collect())
        .collect();
    let before = left.len();
    left.retain(|l| {
        let keys = blocking_keys(l.as_str());
        right.iter().zip(&right_keys).all(|(r, rk)| {
            keys.iter().any(|k| rk.contains(k))
                || reference_score(&operator, l.as_str(), r.as_str()) < floor
        })
    });
    before - left.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = VocabConfig::default();
        let a = dirty_vocabulary(&config, 11);
        let b = dirty_vocabulary(&config, 11);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        let c = dirty_vocabulary(&config, 12);
        assert_ne!(
            (a.left, a.right),
            (c.left, c.right),
            "different seeds should differ"
        );
    }

    #[test]
    fn vocabularies_are_nonempty_and_dirty() {
        let config = VocabConfig::default();
        let v = dirty_vocabulary(&config, 3);
        assert!(v.left.len() >= config.noise_per_side);
        assert!(v.right.len() >= config.noise_per_side);
        // At least one decorated variant should appear across a few seeds.
        let any_decorated = (0..5).any(|seed| {
            dirty_vocabulary(&config, seed)
                .right
                .iter()
                .any(|s| s.as_str().contains('('))
        });
        assert!(any_decorated, "no decoration ever applied");
    }

    #[test]
    fn typos_preserve_leading_trigrams() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let t = typo_one_token("sanctuary", &mut rng);
            assert!(t.starts_with("san"), "typo clobbered the prefix: {t:?}");
        }
    }

    #[test]
    fn vetting_pass_drops_only_a_small_fraction() {
        // The corruption rules are supposed to keep same-base variants in a
        // common block on their own; the vetting pass is a backstop for the
        // residue (different tokens typo'd on the two sides, chance
        // alignments of short words). If it starts eating the vocabulary,
        // the oracle suite would be passing on trivial inputs.
        let config = VocabConfig::default();
        let mut total = 0usize;
        let mut dropped = 0usize;
        for seed in 0..30u64 {
            let v = dirty_vocabulary(&config, seed);
            total += v.left.len() + v.dropped_left;
            dropped += v.dropped_left;
        }
        assert!(total > 0);
        let rate = dropped as f64 / total as f64;
        assert!(
            rate < 0.15,
            "vetting pass dropped {dropped}/{total} left values (rate {rate:.2})"
        );
    }

    #[test]
    fn vetted_vocabularies_are_blocking_complete() {
        // Re-check the invariant the pass enforces, with independent code.
        let config = VocabConfig::default();
        let floor = config.blocking_floor.unwrap();
        let operator = SimilarityOperator::with_threshold(floor);
        for seed in 40..48u64 {
            let v = dirty_vocabulary(&config, seed);
            for &l in &v.left {
                let lk: HashSet<String> = blocking_keys(l.as_str()).into_iter().collect();
                for &r in &v.right {
                    if reference_score(&operator, l.as_str(), r.as_str()) >= floor {
                        assert!(
                            blocking_keys(r.as_str()).iter().any(|k| lk.contains(k)),
                            "seed {seed}: {:?} / {:?} reach the floor but share no key",
                            l.as_str(),
                            r.as_str()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_config_reaches_about_1k_values_per_side() {
        let v = dirty_vocabulary(&VocabConfig::benchmark_1k(), 42);
        assert!(
            v.left.len() >= 850 && v.right.len() >= 850,
            "left {} right {}",
            v.left.len(),
            v.right.len()
        );
    }

    #[test]
    fn benchmark_sized_1000_is_benchmark_1k() {
        let a = dirty_vocabulary(&VocabConfig::benchmark_sized(1000), 42);
        let b = dirty_vocabulary(&VocabConfig::benchmark_1k(), 42);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        // Smaller sizes scale roughly proportionally.
        let small = dirty_vocabulary(&VocabConfig::benchmark_sized(250), 42);
        assert!(
            small.left.len() >= 180 && small.left.len() <= 330,
            "250-sized config produced {} left values",
            small.left.len()
        );
    }

    #[test]
    fn zipf_zero_keeps_the_legacy_rng_stream() {
        // The knob's uniform path must draw exactly what the pre-knob
        // generator drew, so every committed seeded workload is unchanged.
        // `with_zipf_s(0.0)` is a no-op by construction; the load-bearing
        // check is that a *tiny positive* skew changes the stream (i.e. the
        // skewed path really is taken) while 0.0 does not.
        let config = VocabConfig::default();
        let base = dirty_vocabulary(&config, 9);
        let zero = dirty_vocabulary(&config.clone().with_zipf_s(0.0), 9);
        assert_eq!((&base.left, &base.right), (&zero.left, &zero.right));
        let skewed = dirty_vocabulary(&config.clone().with_zipf_s(1.2), 9);
        assert_ne!(
            (&base.left, &base.right),
            (&skewed.left, &skewed.right),
            "skewed generation unexpectedly identical"
        );
    }

    #[test]
    fn zipf_skew_concentrates_word_mass() {
        // Under s = 1.2 the rank-0 noun must dominate the rank-last noun by
        // a wide margin; under the uniform draw they are comparable.
        let count = |v: &DirtyVocabulary, word: &str| -> usize {
            v.left
                .iter()
                .chain(&v.right)
                .filter(|s| s.as_str().split(' ').any(|t| t == word))
                .count()
        };
        let config = VocabConfig {
            bases: 200,
            noise_per_side: 40,
            blocking_floor: None,
            ..VocabConfig::default()
        };
        let first = WORDS_B[0];
        let last = WORDS_B[WORDS_B.len() - 1];
        let skewed = dirty_vocabulary(&config.clone().with_zipf_s(1.2), 17);
        let (hot, cold) = (count(&skewed, first), count(&skewed, last));
        assert!(
            hot >= 5 * cold.max(1),
            "rank-0 word not dominant under skew: {hot} vs {cold}"
        );
        let uniform = dirty_vocabulary(&config, 17);
        let (u_hot, u_cold) = (count(&uniform, first), count(&uniform, last));
        assert!(
            u_hot < 3 * u_cold.max(1),
            "uniform draw unexpectedly skewed: {u_hot} vs {u_cold}"
        );
    }

    #[test]
    fn skewed_oracle_vocabularies_stay_blocking_complete_and_nonempty() {
        // The vetting pass must survive the hot-token pileup: skewed
        // vocabularies still come out blocking-complete (re-checked with
        // independent code) and the pass must not eat the vocabulary.
        let config = VocabConfig::skewed_oracle(1.2);
        let floor = config.blocking_floor.unwrap();
        let operator = SimilarityOperator::with_threshold(floor);
        let mut total = 0usize;
        let mut dropped = 0usize;
        for seed in 60..66u64 {
            let v = dirty_vocabulary(&config, seed);
            total += v.left.len() + v.dropped_left;
            dropped += v.dropped_left;
            for &l in &v.left {
                let lk: HashSet<String> = blocking_keys(l.as_str()).into_iter().collect();
                for &r in &v.right {
                    if reference_score(&operator, l.as_str(), r.as_str()) >= floor {
                        assert!(
                            blocking_keys(r.as_str()).iter().any(|k| lk.contains(k)),
                            "seed {seed}: {:?} / {:?} reach the floor but share no key",
                            l.as_str(),
                            r.as_str()
                        );
                    }
                }
            }
        }
        assert!(total > 0);
        let rate = dropped as f64 / total as f64;
        assert!(
            rate < 0.35,
            "vetting pass dropped {dropped}/{total} skewed left values (rate {rate:.2})"
        );
    }
}
