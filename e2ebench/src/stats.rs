//! Order statistics over latency samples.

use std::fmt;

/// A percentile is only reported when at least this many samples lie beyond
/// it; with fewer, one outlier decides the number.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The requested percentile, in percent.
    pub percentile: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has {} beyond it (need {MIN_BEYOND})",
            self.percentile, self.samples, self.beyond
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// The nearest-rank percentile `p` (in percent) of `values`, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            percentile: p,
            samples: n,
            beyond,
        });
    }
    Ok(sorted(values)[rank - 1])
}

/// The median of a non-empty sample (the mean of the two middle values for
/// an even count). Unlike [`percentile`] it needs no samples beyond it: it
/// also summarizes a run's few whole set-up cycles.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of a non-empty sample without its lowest and its highest
/// `trim` share (rounded down to whole samples), for `trim` in `[0, 0.5)`.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of an empty sample");
    assert!(
        (0.0..0.5).contains(&trim),
        "trim share {trim} not in [0, 0.5)"
    );
    let s = sorted(values);
    let cut = (s.len() as f64 * trim) as usize;
    mean(&s[cut..s.len() - cut])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
