//! # dlearn-eval — metrics, cross-validation and the experiment runner
//!
//! Reproduces the paper's evaluation (Section 6): F1-score under k-fold
//! cross-validation for DLearn and the Castor-style baselines over the three
//! synthetic dataset pairs, with one experiment function per table/figure:
//!
//! * [`experiments::table4`] — baselines vs DLearn with `km ∈ {2,5,10}`.
//! * [`experiments::table5`] — DLearn-CFD vs DLearn-Repaired under injected
//!   CFD violations.
//! * [`experiments::table6`] / [`experiments::figure1_examples`] — scaling
//!   the number of training examples.
//! * [`experiments::table7`] — effect of the bottom-clause iteration depth.
//! * [`experiments::figure1_sample_size`] — effect of the sample size.
//! * [`experiments::learner_diversity`] — extension (not in the paper):
//!   every strategy, including FOIL and TILDE, on the tree-shaped
//!   segmentation dataset where decision-tree learning beats clausal
//!   covering.
//!
//! The binaries `table4`, `table5`, `table6`, `table7`, `figure1`,
//! `learner_diversity` and `all_experiments` run these and print the
//! paper-style tables; pass `--scale smoke|small|paper` to control the
//! dataset sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cv;
pub mod experiments;
pub mod metrics;
pub mod report;

pub use cv::{cross_validate, cross_validate_strategies, single_split, EvalResult};
pub use experiments::Scale;
pub use metrics::{mean, Confusion};

/// Parse the `--scale` command-line argument for the experiment binaries
/// (defaults to [`Scale::Small`]).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            if let Some(s) = args.get(i + 1).and_then(|v| Scale::parse(v)) {
                return s;
            }
        }
        if let Some(rest) = args[i].strip_prefix("--scale=") {
            if let Some(s) = Scale::parse(rest) {
                return s;
            }
        }
    }
    Scale::Small
}
