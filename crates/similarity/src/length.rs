//! Length similarity: ratio of the shorter to the longer string length —
//! plus the character-histogram machinery of the index's size filter.

/// Number of bins of a [`char_histogram`]: `a`–`z`, `0`–`9`, space, other.
pub const HIST_BINS: usize = 38;

/// A character multiset histogram over a *normalized* string.
///
/// ASCII letters and digits and the space get their own bin; every other
/// character (non-ASCII alphanumerics survive normalization) is lumped into
/// one bin. Lumping can only *overcount* a multiset intersection, which
/// keeps bounds derived from [`common_char_count`] sound.
pub fn char_histogram(normalized: &str) -> [u32; HIST_BINS] {
    let mut hist = [0u32; HIST_BINS];
    for c in normalized.chars() {
        hist[char_bin(c)] += 1;
    }
    hist
}

/// Bin index of a character under the [`char_histogram`] scheme. Exposed so
/// the bit-parallel kernel can build its per-value match masks over the
/// *same* lumped alphabet: two characters compare equal at the mask level
/// whenever they share a bin, which — like the histogram intersection — can
/// only overcount real matches, the sound direction for upper bounds.
pub fn char_bin(c: char) -> usize {
    match c {
        'a'..='z' => c as usize - 'a' as usize,
        '0'..='9' => 26 + (c as usize - '0' as usize),
        ' ' => 36,
        _ => 37,
    }
}

/// Size of the character multiset intersection of two histograms: an upper
/// bound on the number of equal-character matches any alignment of the two
/// strings can contain.
pub fn common_char_count(a: &[u32; HIST_BINS], b: &[u32; HIST_BINS]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| x.min(y)).sum()
}

/// Length similarity of two strings from their *normalized* char counts,
/// in `[0, 1]`.
///
/// The paper defines it as the length of the smaller string divided by the
/// length of the larger string; counting normalized chars keeps
/// punctuation-only differences from counting. [`crate::SimProfile::len`]
/// is the count the scorer and the index's bounds pass in.
pub fn length_similarity_from_counts(la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let (min, max) = if la < lb { (la, lb) } else { (lb, la) };
    min as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_form_is_the_ratio_of_lengths() {
        assert_eq!(length_similarity_from_counts(4, 4), 1.0);
        assert_eq!(length_similarity_from_counts(0, 0), 1.0);
        assert_eq!(length_similarity_from_counts(0, 3), 0.0);
        assert_eq!(length_similarity_from_counts(2, 4), 0.5);
        assert_eq!(length_similarity_from_counts(4, 2), 0.5);
    }

    #[test]
    fn histogram_counts_characters_with_multiplicity() {
        let h = char_histogram("star wars 1977");
        assert_eq!(h[char_bin('s')], 2);
        assert_eq!(h[char_bin('a')], 2);
        assert_eq!(h[char_bin('r')], 2);
        assert_eq!(h[char_bin('9')], 1);
        assert_eq!(h[char_bin('7')], 2);
        assert_eq!(h[char_bin(' ')], 2);
        assert_eq!(h.iter().sum::<u32>(), 14);
    }

    #[test]
    fn common_count_is_the_multiset_intersection() {
        let a = char_histogram("abca");
        let b = char_histogram("aabd");
        // common: a (min(2,2)=2), b (1); c, d don't overlap.
        assert_eq!(common_char_count(&a, &b), 3);
        assert_eq!(common_char_count(&a, &a), 4);
        assert_eq!(common_char_count(&a, &char_histogram("")), 0);
    }

    #[test]
    fn non_ascii_characters_share_the_lumped_bin() {
        // Distinct non-ASCII chars lump together: the intersection may
        // overcount (é vs ü), never undercount — the sound direction.
        let a = char_histogram("é");
        let b = char_histogram("ü");
        assert_eq!(common_char_count(&a, &b), 1);
    }

    #[test]
    fn counts_form_is_symmetric_and_bounded() {
        for la in 0..20usize {
            for lb in 0..20usize {
                let s = length_similarity_from_counts(la, lb);
                assert!((0.0..=1.0).contains(&s), "({la}, {lb}) = {s}");
                assert_eq!(s, length_similarity_from_counts(lb, la));
            }
        }
    }
}
