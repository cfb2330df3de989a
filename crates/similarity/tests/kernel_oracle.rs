//! Differential suite: the banded SWG kernel against the exhaustive
//! reference DP (`dlearn_test_support::swg_reference`), bit for bit.
//!
//! Production scores every pair through one kernel
//! (`swg_similarity_banded_at_least`, reached through
//! `SimilarityOperator::score` and `score_profiles_at_least`). Its band, its
//! row-abandon test and its identical-string fast path may only ever skip
//! work: a completed score must carry the reference's exact bits, and an
//! abandon may only hide a score strictly below the requirement. The cases
//! cover seeded random pairs, empty strings, values longer than the 64-char
//! bit-parallel masks, and custom `SwgParams` that switch the band off
//! (a positive mismatch score), make gaps free or scale the match score.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_similarity::{
    aligned_match_upper_bound, swg_similarity_banded_at_least, SimProfile, SimilarityOperator,
    SwgParams,
};
use dlearn_test_support::swg_reference::{reference_score, reference_swg};

/// The shipped parameters plus custom ones: a positive mismatch score
/// (the kernel then runs without its band and identical-string fast path),
/// free gaps, and a non-unit match score (no fast path).
fn param_sets() -> [SwgParams; 4] {
    let shipped = SwgParams::default();
    [
        shipped,
        SwgParams {
            mismatch_score: 0.5,
            ..shipped
        },
        SwgParams {
            gap_open: 0.0,
            gap_extend: 0.0,
            ..shipped
        },
        SwgParams {
            match_score: 2.0,
            mismatch_score: -1.0,
            gap_open: 1.5,
            gap_extend: 0.25,
        },
    ]
}

fn operator(swg: SwgParams) -> SimilarityOperator {
    SimilarityOperator {
        swg,
        ..SimilarityOperator::default()
    }
}

/// A random string of length `min_len..=max_len` over `alphabet`.
fn random_string(rng: &mut StdRng, alphabet: &str, min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..max_len + 1);
    (0..len)
        .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// Seeded string pairs: printable ASCII, a small alphabet that forces
/// heavy overlap, identical pairs, pairs over 64 normalized chars (no
/// bit-parallel masks) and hand-picked edge cases with empty strings.
fn pairs(seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let printable: String = (0x20u8..0x7f).map(char::from).collect();
    let mut out: Vec<(String, String)> = [
        ("", ""),
        ("", "abc"),
        ("?!|", "abc"),
        ("?!|", "---"),
        ("Superbad", "Superbad (2007)"),
        ("Star Wars", "star-wars"),
        ("J. Smth", "Jon Smith"),
    ]
    .iter()
    .map(|&(a, b)| (a.to_string(), b.to_string()))
    .collect();
    for _ in 0..150 {
        out.push((
            random_string(&mut rng, &printable, 0, 24),
            random_string(&mut rng, &printable, 0, 24),
        ));
        out.push((
            random_string(&mut rng, "abcd e12", 0, 24),
            random_string(&mut rng, "abcd e12", 0, 24),
        ));
    }
    for _ in 0..30 {
        let a = random_string(&mut rng, "abcdefghij 12", 1, 24);
        out.push((a.clone(), a));
    }
    for _ in 0..30 {
        let a = random_string(&mut rng, "abcd e12", 65, 110);
        let mut b = a.clone();
        b.insert_str(rng.gen_range(0..a.len()), "xy z");
        out.push((a, b));
        out.push((
            random_string(&mut rng, "abcd e12", 65, 110),
            random_string(&mut rng, "abcd e12", 0, 90),
        ));
    }
    out
}

#[test]
fn score_equals_the_reference_bit_for_bit() {
    let cases = pairs(0x5c0e);
    assert!(cases
        .iter()
        .any(|(a, b)| SimProfile::new(a).len() > 64 && SimProfile::new(b).len() > 64));
    for params in param_sets() {
        let op = operator(params);
        for (a, b) in &cases {
            let (score, reference) = (op.score(a, b), reference_score(&op, a, b));
            assert_eq!(
                score.to_bits(),
                reference.to_bits(),
                "{params:?} ({a:?}, {b:?}): score {score} != reference {reference}"
            );
            assert_eq!(op.similar(a, b), reference >= op.threshold);
        }
    }
}

#[test]
fn kernel_completes_exactly_or_abandons_below_the_requirement() {
    let mut rng = StdRng::seed_from_u64(0xba2d);
    for params in param_sets() {
        for (a, b) in pairs(0xba2e) {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            let exact = reference_swg(&a, &b, &params);
            let unbounded = swg_similarity_banded_at_least(&a, &b, &params, f64::NEG_INFINITY);
            assert_eq!(unbounded.map(f64::to_bits), Some(exact.to_bits()));
            let required = rng.gen_range(0.0..1.2);
            match swg_similarity_banded_at_least(&a, &b, &params, required) {
                Some(v) => assert_eq!(
                    v.to_bits(),
                    exact.to_bits(),
                    "{params:?} ({a:?}, {b:?}, required {required}): {v} != {exact}"
                ),
                None => assert!(
                    exact < required,
                    "{params:?}: abandoned ({a:?}, {b:?}) at {required} but exact is {exact}"
                ),
            }
        }
    }
}

#[test]
fn profile_scores_at_any_requirement_are_the_score_or_a_sound_abandon() {
    let mut rng = StdRng::seed_from_u64(0x9f11);
    for params in param_sets() {
        let op = operator(params);
        for (a, b) in pairs(0x9f12) {
            let (pa, pb) = (SimProfile::new(&a), SimProfile::new(&b));
            let exact = reference_score(&op, &a, &b);
            for required in [f64::NEG_INFINITY, rng.gen_range(0.0..1.2)] {
                match op.score_profiles_at_least(&pa, &pb, required) {
                    Some(v) => assert_eq!(
                        v.to_bits(),
                        exact.to_bits(),
                        "{params:?} ({a:?}, {b:?}, required {required}): {v} != {exact}"
                    ),
                    None => assert!(
                        exact < required,
                        "{params:?}: abandoned ({a:?}, {b:?}) at {required} but exact is {exact}"
                    ),
                }
            }
        }
    }
}

#[test]
fn match_upper_bound_is_sound_against_the_reference() {
    // The binned LCS caps the matched chars of any alignment, so the raw
    // SWG score is at most `match_score · bound` and the normalized
    // similarity at most `bound / min_len`.
    let params = SwgParams::default();
    let mut checked = 0;
    for (a, b) in pairs(0xb17b) {
        let (pa, pb) = (SimProfile::new(&a), SimProfile::new(&b));
        if pa.is_empty() || pb.is_empty() {
            continue;
        }
        let Some(bound) = aligned_match_upper_bound(&pa, &pb) else {
            continue;
        };
        let exact = reference_swg(&pa.chars, &pb.chars, &params);
        let sim_bound = (bound / pa.len().min(pb.len()) as f64).min(1.0);
        assert!(
            exact <= sim_bound,
            "({a:?}, {b:?}): {exact} above {sim_bound}"
        );
        checked += 1;
    }
    assert!(checked > 300, "only {checked} pairs carried masks");
}
