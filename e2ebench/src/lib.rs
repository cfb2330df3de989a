//! End-to-end and per-layer benchmark of DLearn.
//!
//! One command generates a workload's inputs from a seed, runs the workload
//! against the public API, checks every output, and prints each metric by
//! name with its unit; the last line of standard output is a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Untraced runs print
//! the end-to-end metrics; traced runs (`--trace 1`) record spans around
//! each layer's public entry point, replay the layers the engine calls
//! internally, and print the per-layer metrics. See `README.md`.

pub mod inputs;
mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
