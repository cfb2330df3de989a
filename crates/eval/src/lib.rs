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

pub use cv::{cross_validate, cross_validate_strategies, EvalResult};
pub use experiments::Scale;
pub use metrics::{mean, Confusion};

/// The `--scale` argument of the experiment binaries: `--scale <scale>` or
/// `--scale=<scale>`, [`Scale::Small`] when absent. Ends the process with
/// exit code 2 and a message naming the three scales when the value is
/// missing or unknown.
pub fn scale_from_args() -> Scale {
    parse_scale(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// Parse `--scale` out of the binaries' arguments (see [`scale_from_args`]).
fn parse_scale(args: impl IntoIterator<Item = String>) -> Result<Scale, String> {
    let mut args = args.into_iter();
    let mut value = None;
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            value = Some(args.next().unwrap_or_default());
        } else if let Some(rest) = arg.strip_prefix("--scale=") {
            value = Some(rest.to_string());
        }
    }
    let Some(value) = value else {
        return Ok(Scale::Small);
    };
    Scale::parse(&value)
        .ok_or_else(|| format!("--scale must be smoke, small or paper, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_arguments_parse_or_fail_naming_the_scales() {
        let parse = |args: &[&str]| parse_scale(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(Scale::Small));
        assert_eq!(parse(&["--scale", "smoke"]), Ok(Scale::Smoke));
        assert_eq!(parse(&["--scale=paper"]), Ok(Scale::Paper));
        for bad in [&["--scale", "smke"][..], &["--scale"], &["--scale="]] {
            let message = parse(bad).expect_err("not a scale");
            assert!(
                message.contains("smoke, small or paper"),
                "{bad:?}: {message}"
            );
        }
    }
}
