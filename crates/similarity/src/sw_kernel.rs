//! Bit-parallel prefilter and the banded Smith-Waterman-Gotoh kernel: the
//! crate's one SWG dynamic program.
//!
//! Every similarity score the crate computes — [`SimilarityOperator::score`]
//! and the index's candidate scoring alike — runs through
//! [`swg_similarity_banded_at_least`]. An exhaustive DP pays
//! `O(|a| · |b|)` per pair; the index hot path scores millions of pairs,
//! so this module cuts that two compounding ways, both *lossless*:
//!
//! 1. **Bit-parallel match bound** — each value's normalized chars are
//!    packed once into per-bin `u64` position masks ([`SimProfile`]).
//!    An Allison-Dix bit-parallel row recurrence then computes the exact
//!    LCS length of the two *binned* strings in `O(|b|)` word operations
//!    (for values up to 64 normalized chars). Any SWG alignment's matched
//!    pairs form a common subsequence, so `matches ≤ LCS_binned`, and the
//!    lumped bins only *raise* the LCS — the sound direction. The index
//!    folds this bound into its one pair bound (see
//!    [`crate::index`]), so candidates that cannot reach the running
//!    requirement never touch the dynamic program. The tests cross-check
//!    this bound against an independently derived one, a Myers
//!    bit-parallel edit-distance pass over the same masks
//!    (`matches ≤ (|a| + |b| − D) / 2`).
//! 2. **Banded exact DP** — a local alignment scoring `S` (raw) through a
//!    cell on diagonal offset `d = j − i` matches at most
//!    `Mcap(d) = min(|a|, |b|, |b| − d, |a| + d)` characters (the cell
//!    splits the path into a prefix matching at most `min(i, j)` chars and
//!    a suffix matching at most `min(|a| − i, |b| − j)`), so with the
//!    shipped parameters (`mismatch ≤ 0`, gap costs ≥ 0) it scores at most
//!    `match_score · Mcap(d)`. Cells whose diagonal cannot reach the
//!    required raw score are provably irrelevant and skipped wholesale:
//!    the DP runs only over `d ∈ [K − |a|, |b| − K]` with
//!    `K = needed_raw / match_score`, widened by one diagonal on each side
//!    so floating-point rounding can never clip a qualifying path.
//!
//! **Contract:** when the banded kernel returns `Some(score)`, that score
//! is bit-identical to the exhaustive three-matrix DP — every path
//! achieving the final best stays inside the band, where the recurrence
//! computes the exact same IEEE-754 operations on the exact same operands;
//! out-of-band neighbors enter as the local-alignment floor (`H = 0`, gap
//! states `−∞`), which only affects paths that provably score below the
//! requirement. When nothing is required the band covers the whole matrix
//! and the kernel *is* the exhaustive DP. When it returns `None`, the true
//! score is strictly below `required`. The exhaustive DP lives in
//! `dlearn-test-support` (`swg_reference`) as the reference, and
//! `crates/similarity/tests/kernel_oracle.rs` pins the contract against it.
//!
//! [`SimilarityOperator::score`]: crate::combined::SimilarityOperator::score

use crate::length::{char_bin, char_histogram, HIST_BINS};
use crate::tokenize::normalize;

/// Scoring parameters of the Smith-Waterman-Gotoh alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwgParams {
    /// Reward for two equal characters.
    pub match_score: f64,
    /// Penalty (negative contribution) for two different characters.
    pub mismatch_score: f64,
    /// Cost of opening a gap (subtracted when a gap starts).
    pub gap_open: f64,
    /// Cost of extending an existing gap by one character.
    pub gap_extend: f64,
}

impl Default for SwgParams {
    fn default() -> Self {
        // The SimMetrics defaults used by Castor/DLearn-style systems:
        // reward 1 for a match, -2 for a mismatch, affine gaps of 0.5 / 0.3.
        SwgParams {
            match_score: 1.0,
            mismatch_score: -2.0,
            gap_open: 0.5,
            gap_extend: 0.3,
        }
    }
}

/// Safety slack of the early-abandon translation from a required
/// *similarity* to a required *raw score*: the abandon test fires only when
/// the final similarity is provably below `required` by more than this, so
/// the handful of floating-point roundings between the two scales can never
/// abandon a pair whose true score ties the requirement exactly.
const ABANDON_SLACK: f64 = 1e-9;

/// Longest normalized value (in chars) that gets a single-word bit-parallel
/// mask. Longer values skip the bit-parallel prefilter and rely on the
/// histogram bound plus the banded DP alone.
pub const MASK_MAX_LEN: usize = 64;

/// A value's cached normalized form, computed once per value: the char
/// vector the aligner consumes, the character histogram the size filter
/// consumes, and — for values of at most [`MASK_MAX_LEN`] chars — the
/// per-bin `u64` position masks the bit-parallel prefilter consumes.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Normalized characters (the aligner's input).
    pub chars: Vec<char>,
    /// Character histogram over the lumped 38-bin alphabet.
    pub hist: [u32; HIST_BINS],
    /// Per-bin position masks: bit `i` of `masks[b]` is set when
    /// `char_bin(chars[i]) == b`. `None` for empty or over-long values.
    masks: Option<Box<[u64; HIST_BINS]>>,
}

impl SimProfile {
    /// Profile of a raw (un-normalized) string.
    pub fn new(raw: &str) -> Self {
        let normalized = normalize(raw);
        let chars: Vec<char> = normalized.chars().collect();
        let hist = char_histogram(&normalized);
        let masks = build_masks(&chars);
        SimProfile { chars, hist, masks }
    }

    /// Normalized length in chars.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Whether the normalized form is empty.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }
}

fn build_masks(chars: &[char]) -> Option<Box<[u64; HIST_BINS]>> {
    if chars.is_empty() || chars.len() > MASK_MAX_LEN {
        return None;
    }
    let mut masks = Box::new([0u64; HIST_BINS]);
    for (i, &c) in chars.iter().enumerate() {
        masks[char_bin(c)] |= 1u64 << i;
    }
    Some(masks)
}

/// Allison-Dix (1986) bit-parallel LCS length between the masked pattern
/// and `text`, over the lumped bin alphabet. Bit `j` of `v` records a
/// column where row `i` of the LCS table increments, so `popcount(v)` after
/// the last row *is* the LCS length; the row update is four word operations
/// (the subtraction's borrow chain plays the role Myers' carry chain plays
/// for edit distance). Exact for the binned strings at any `pattern_len`
/// in `1..=64`.
fn lcs_length(masks: &[u64; HIST_BINS], text: &[char]) -> u32 {
    let mut v: u64 = 0;
    for &c in text {
        let x = v | masks[char_bin(c)];
        v = x & !(x.wrapping_sub((v << 1) | 1));
    }
    v.count_ones()
}

/// Upper bound on the number of equal-character pairs any alignment of the
/// two profiles can contain: the exact bit-parallel LCS of the *binned*
/// strings. Returns `None` when neither profile carries masks (both sides
/// longer than [`MASK_MAX_LEN`]) — callers then fall back to the histogram
/// bound alone.
///
/// Soundness: SWG matches require exact char equality, which implies
/// bin-level equality, so the matched pairs form a common subsequence of
/// the binned strings — `matches ≤ LCS_binned`. Lumping bins can only grow
/// the LCS, i.e. only loosen the bound. This is always at least as tight
/// as the Myers edit-distance bound `(|a| + |b| − D) / 2`, which the tests
/// below derive independently and compare against.
pub fn aligned_match_upper_bound(a: &SimProfile, b: &SimProfile) -> Option<f64> {
    let (pattern, text) = if a.masks.is_some() { (a, b) } else { (b, a) };
    let masks = pattern.masks.as_deref()?;
    Some(lcs_length(masks, &text.chars) as f64)
}

/// Raw best local score over the banded dynamic program, abandoning when it
/// provably cannot reach `needed_raw`. Returns `None` in that case;
/// a `Some` value is bit-identical to the exhaustive DP (see the module
/// docs for the band argument).
fn banded_best_local_score_at_least(
    a: &[char],
    b: &[char],
    p: &SwgParams,
    needed_raw: f64,
) -> Option<f64> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Some(0.0);
    }
    // The Mcap(d) band argument needs parameters under which only matches
    // add score; otherwise (and when nothing is required) the band covers
    // the whole matrix and the loop below is the exhaustive DP.
    let band_ok = needed_raw > 0.0
        && p.match_score > 0.0
        && p.mismatch_score <= 0.0
        && p.gap_open >= 0.0
        && p.gap_extend >= 0.0;
    let (d_lo, d_hi, banded) = if band_ok {
        if p.match_score * (n.min(m) as f64) < needed_raw {
            return None; // even a full-length perfect match falls short
        }
        let k = needed_raw / p.match_score;
        // Keep diagonals with match_score · min(m − d, n + d) ≥ needed_raw,
        // widened by one diagonal per side for floating-point safety.
        let lo = ((k - n as f64).ceil() as isize - 1).max(1 - n as isize);
        let hi = ((m as f64 - k).floor() as isize + 1).min(m as isize - 1);
        if lo > hi {
            return None;
        }
        (lo, hi, true)
    } else {
        (1 - n as isize, m as isize - 1, false)
    };

    // Rolling rows over the band: H (best score ending at i,j), E (gap in
    // a, restarts per row), F (gap in b, carried across rows). Positions
    // outside a row's band hold the out-of-band boundary (H = 0, F = −∞),
    // which the write pattern maintains: the band's right edge advances by
    // at most one column per row, so a position is first read no earlier
    // than the row before it is first written, and still holds its
    // initialized boundary value then. The four row buffers are
    // thread-local scratch — the hot path calls this tens of thousands of
    // times per build, and re-filling beats re-allocating.
    DP_ROWS.with(|rows| {
        let mut rows = rows.borrow_mut();
        let (h_prev, h_curr, f) = rows.reset(m);
        banded_dp_loop(a, b, p, needed_raw, d_lo, d_hi, banded, h_prev, h_curr, f)
    })
}

/// The rolling DP rows, reused across kernel calls on one thread. Two H
/// rows roll (the diagonal term reads the previous row at `j − 1` *after*
/// the current row wrote `j − 1`); F needs only one row, updated in place,
/// because `F(i, j)` reads exclusively column `j` of row `i − 1`.
#[derive(Default)]
struct DpRows {
    h_prev: Vec<f64>,
    h_curr: Vec<f64>,
    f: Vec<f64>,
}

impl DpRows {
    /// Re-initialize for a `m + 1`-column matrix: H rows to the
    /// local-alignment floor, F to the out-of-band boundary.
    fn reset(&mut self, m: usize) -> (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>) {
        for h in [&mut self.h_prev, &mut self.h_curr] {
            h.clear();
            h.resize(m + 1, 0.0);
        }
        self.f.clear();
        self.f.resize(m + 1, f64::NEG_INFINITY);
        (&mut self.h_prev, &mut self.h_curr, &mut self.f)
    }
}

thread_local! {
    static DP_ROWS: std::cell::RefCell<DpRows> = std::cell::RefCell::new(DpRows::default());
}

/// The banded DP loop proper, over caller-provided (already initialized)
/// rolling rows. Split out so the buffer plumbing stays out of the band
/// derivation above.
#[allow(clippy::too_many_arguments)]
fn banded_dp_loop(
    a: &[char],
    b: &[char],
    p: &SwgParams,
    needed_raw: f64,
    d_lo: isize,
    d_hi: isize,
    banded: bool,
    h_prev: &mut Vec<f64>,
    h_curr: &mut Vec<f64>,
    f: &mut [f64],
) -> Option<f64> {
    let n = a.len();
    let m = b.len();
    let mut h_prev = &mut *h_prev;
    let mut h_curr = &mut *h_curr;
    let (ms, mm, go, ge) = (p.match_score, p.mismatch_score, p.gap_open, p.gap_extend);
    let mut best = 0.0f64;

    let abandon_enabled =
        needed_raw > f64::NEG_INFINITY && p.gap_open >= 0.0 && p.gap_extend >= 0.0;
    let row_gain = p.match_score.max(p.mismatch_score).max(0.0);

    for i in 1..=n {
        let ii = i as isize;
        let jl = (ii + d_lo).max(1);
        if jl > m as isize {
            break; // the band has exited the matrix on the right
        }
        let jh = (ii + d_hi).min(m as isize);
        if jh < 1 {
            continue; // the band has not entered the matrix yet; rows are
                      // untouched, so the rolling buffers stay boundary-clean
        }
        let (jl, jh) = (jl as usize, jh as usize);
        // Left boundary: the cell just left of the band is out-of-band
        // (or column 0) — the local-alignment floor in either case. The
        // running `prev_score` carries it through the row; the buffer write
        // is for the *next* row's diagonal read at `jl − 1`.
        h_curr[jl - 1] = 0.0;
        let ca = a[i - 1];
        let mut e = f64::NEG_INFINITY;
        let mut row_max = 0.0f64;
        let mut prev_score = 0.0f64;
        // Zipped slices over the band: `hp2` is the `[h_prev[j − 1],
        // h_prev[j]]` window, so every per-cell access is bounds-checked
        // once at slice construction instead of per iteration.
        let diag_src = &h_prev[jl - 1..=jh];
        let iter = b[jl - 1..jh]
            .iter()
            .zip(diag_src.windows(2))
            .zip(&mut f[jl..=jh])
            .zip(&mut h_curr[jl..=jh]);
        for (((&cb, hp2), f_j), h_out) in iter {
            e = (e - ge).max(prev_score - go);
            let fj = (*f_j - ge).max(hp2[1] - go);
            *f_j = fj;
            let subst = if ca == cb { ms } else { mm };
            let diag = hp2[0] + subst;
            // `score ≥ fj` by construction, so `row_max` over scores already
            // accounts for the gap states.
            let score = diag.max(e).max(fj).max(0.0);
            *h_out = score;
            if score > best {
                best = score;
            }
            row_max = row_max.max(score);
            prev_score = score;
        }
        // No boundary restore is needed when the band moves right: the next
        // row reads h at indices ≥ its jl − 1 ≥ this row's jl − 1, so cells
        // this row left stale are never consulted again, and cells beyond
        // this row's jh were last touched two rows back at columns ≤ this
        // jh — i.e. still hold their initialized boundary values when first
        // read. F is per-column state: a column's slot is first read in the
        // row the band first covers it, still holding −∞ then, and a column
        // the band has passed is never read again.
        let future_bound = row_max + row_gain * (n - i).min(m) as f64;
        if abandon_enabled && best < needed_raw && future_bound < needed_raw {
            return None;
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
    }

    if !banded || best >= needed_raw {
        Some(best)
    } else {
        // The banded value may undercount paths that wander out of band;
        // all of those score below `needed_raw`, so the only safe claim
        // here is the abandon claim.
        None
    }
}

/// Smith-Waterman-Gotoh similarity of two **already-normalized** char
/// slices in `[0, 1]`: the best local alignment score (the three-matrix
/// `H`/`E`/`F` program with affine gaps, Gotoh 1982) divided by
/// `match_score · min(|a|, |b|)`, the most the shorter string can score.
/// Gives up (returns `None`) as soon as the similarity provably cannot
/// reach `required`, and otherwise returns the exact similarity. Pass
/// `f64::NEG_INFINITY` to never abandon (the band then covers the whole
/// matrix and this *is* the exhaustive DP).
pub fn swg_similarity_banded_at_least(
    ca: &[char],
    cb: &[char],
    params: &SwgParams,
    required: f64,
) -> Option<f64> {
    if ca.is_empty() && cb.is_empty() {
        return Some(1.0);
    }
    if ca.is_empty() || cb.is_empty() {
        return Some(0.0);
    }
    let denom = params.match_score * ca.len().min(cb.len()) as f64;
    if denom <= 0.0 {
        return Some(0.0);
    }
    // Identical-string fast path: dirty vocabularies carry many exact
    // duplicates across the two sides, and the full-diagonal all-match path
    // is optimal whenever only matches add score. With `match_score == 1.0`
    // the exhaustive DP sums exact small integers, so its normalized result
    // is exactly `1.0` — returning it directly preserves bit-identity.
    if params.match_score == 1.0
        && params.mismatch_score <= 0.0
        && params.gap_open >= 0.0
        && params.gap_extend >= 0.0
        && ca == cb
    {
        return Some(1.0);
    }
    let needed_raw = if required > f64::NEG_INFINITY {
        (required - ABANDON_SLACK) * denom
    } else {
        f64::NEG_INFINITY
    };
    let best = banded_best_local_score_at_least(ca, cb, params, needed_raw)?;
    Some((best / denom).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference unit-cost edit distance over binned chars, the textbook
    /// O(nm) recurrence — independent of the bit-parallel code.
    fn reference_binned_distance(a: &[char], b: &[char]) -> u32 {
        let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
        let mut curr = vec![0u32; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            curr[0] = i as u32 + 1;
            for (j, &cb) in b.iter().enumerate() {
                let sub = prev[j] + u32::from(char_bin(ca) != char_bin(cb));
                curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[b.len()]
    }

    fn random_chars(rng: &mut StdRng, alphabet: &str, max_len: usize) -> Vec<char> {
        let len = rng.gen_range(0..max_len + 1);
        (0..len)
            .map(|_| alphabet.as_bytes()[rng.gen_range(0..alphabet.len())] as char)
            .collect()
    }

    /// Myers (1999) bit-parallel unit-cost edit distance between the masked
    /// pattern and `text`, over the lumped bin alphabet. `pattern_len` must be
    /// in `1..=64` (enforced by `build_masks`).
    fn myers_distance(masks: &[u64; HIST_BINS], pattern_len: usize, text: &[char]) -> u32 {
        debug_assert!((1..=64).contains(&pattern_len));
        let mut pv: u64 = if pattern_len == 64 {
            u64::MAX
        } else {
            (1u64 << pattern_len) - 1
        };
        let mut mv: u64 = 0;
        let mut dist = pattern_len as u32;
        let high = 1u64 << (pattern_len - 1);
        for &c in text {
            let eq = masks[char_bin(c)];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & high != 0 {
                dist += 1;
            } else if mh & high != 0 {
                dist -= 1;
            }
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        dist
    }

    /// The Myers edit-distance form of the match bound,
    /// `(|a| + |b| − D) / 2` — never tighter than
    /// [`aligned_match_upper_bound`] but derived through an independent
    /// recurrence, which is exactly what makes it a useful cross-check.
    fn myers_match_upper_bound(a: &SimProfile, b: &SimProfile) -> Option<f64> {
        let (pattern, text) = if a.masks.is_some() { (a, b) } else { (b, a) };
        let masks = pattern.masks.as_deref()?;
        let d = myers_distance(masks, pattern.len(), &text.chars);
        Some(((pattern.len() + text.len()) as f64 - d as f64) / 2.0)
    }

    #[test]
    fn myers_distance_matches_the_reference_dp() {
        let mut rng = StdRng::seed_from_u64(0x4d79);
        let alphabet = "abcdef 19";
        for _ in 0..600 {
            let a = random_chars(&mut rng, alphabet, 40);
            let b = random_chars(&mut rng, alphabet, 40);
            if a.is_empty() || a.len() > MASK_MAX_LEN {
                continue;
            }
            let masks = build_masks(&a).expect("in range");
            assert_eq!(
                myers_distance(&masks, a.len(), &b),
                reference_binned_distance(&a, &b),
                "({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn myers_distance_handles_the_64_char_edge() {
        let a: Vec<char> = std::iter::repeat_n('a', 64).collect();
        let mut b = a.clone();
        b[63] = 'b';
        let masks = build_masks(&a).expect("64 chars still masked");
        assert_eq!(myers_distance(&masks, 64, &a), 0);
        assert_eq!(myers_distance(&masks, 64, &b), 1);
        let too_long: Vec<char> = std::iter::repeat_n('a', 65).collect();
        assert!(build_masks(&too_long).is_none());
        assert!(build_masks(&[]).is_none());
    }

    /// Reference LCS length over binned chars, the textbook O(nm)
    /// recurrence — independent of the bit-parallel code.
    fn reference_binned_lcs(a: &[char], b: &[char]) -> u32 {
        let mut prev = vec![0u32; b.len() + 1];
        let mut curr = vec![0u32; b.len() + 1];
        for &ca in a {
            for (j, &cb) in b.iter().enumerate() {
                curr[j + 1] = if char_bin(ca) == char_bin(cb) {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(curr[j])
                };
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[b.len()]
    }

    #[test]
    fn lcs_length_matches_the_reference_dp() {
        let mut rng = StdRng::seed_from_u64(0x1c5);
        let alphabet = "abcdef 19";
        for _ in 0..600 {
            let a = random_chars(&mut rng, alphabet, 40);
            let b = random_chars(&mut rng, alphabet, 40);
            if a.is_empty() || a.len() > MASK_MAX_LEN {
                continue;
            }
            let masks = build_masks(&a).expect("in range");
            assert_eq!(
                lcs_length(&masks, &b),
                reference_binned_lcs(&a, &b),
                "({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn lcs_length_handles_the_64_char_edge() {
        let a: Vec<char> = std::iter::repeat_n('a', 64).collect();
        let mut b = a.clone();
        b[63] = 'b';
        let masks = build_masks(&a).expect("64 chars still masked");
        assert_eq!(lcs_length(&masks, &a), 64);
        assert_eq!(lcs_length(&masks, &b), 63);
        assert_eq!(lcs_length(&masks, &[]), 0);
    }

    #[test]
    fn lcs_bound_is_never_looser_than_the_myers_bound() {
        // Two independently-derived upper bounds on the same quantity; the
        // LCS one must dominate, which is why the gate runs it.
        let mut rng = StdRng::seed_from_u64(0x1c52);
        let alphabet = "abcab 1";
        for _ in 0..600 {
            let a = random_chars(&mut rng, alphabet, 40);
            let b = random_chars(&mut rng, alphabet, 40);
            let pa = SimProfile::new(&a.iter().collect::<String>());
            let pb = SimProfile::new(&b.iter().collect::<String>());
            let (Some(lcs), Some(myers)) = (
                aligned_match_upper_bound(&pa, &pb),
                myers_match_upper_bound(&pa, &pb),
            ) else {
                continue;
            };
            assert!(lcs <= myers + 1e-12, "({a:?}, {b:?}): {lcs} > {myers}");
        }
    }

    #[test]
    fn profiles_expose_masks_only_in_range() {
        assert!(SimProfile::new("star wars").masks.is_some());
        assert!(SimProfile::new("").masks.is_none());
        assert!(SimProfile::new(&"x".repeat(80)).masks.is_none());
        let exactly_64 = "ab".repeat(32);
        assert!(SimProfile::new(&exactly_64).masks.is_some());
    }
}
