//! Benchmark support crate; benchmarks live in benches/.

#![forbid(unsafe_code)]
