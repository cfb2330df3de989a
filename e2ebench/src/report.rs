//! The metric declarations and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what a run
//! prints; `BENCHMARK.json` at the repository root declares the same names
//! and units, and the self-tests hold the two in agreement.

use std::collections::BTreeMap;

/// A declared metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn decl(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// What a DLearn user waits for, printed by every untraced run.
pub const END_TO_END: &[Decl] = &[
    decl("setup_s", "s"),
    decl("learn_s", "s"),
    decl("heldout_f1", "ratio"),
    decl("request_p50_ms", "ms"),
    decl("request_p90_ms", "ms"),
    decl("requests_per_s", "1/s"),
    decl("peak_rss_mb", "MB"),
];

/// One figure per layer boundary, printed by every traced run. A layer the
/// workload leaves idle reads 0 with 0 samples.
pub const PER_LAYER: &[Decl] = &[
    decl("learner.augment_ms", "ms"),
    decl("md_index.build_ms", "ms"),
    decl("md_index.pairs", "count"),
    decl("bottom.walk_ms", "ms"),
    decl("bottom.literals", "count"),
    decl("bottom.probes", "count"),
    decl("expand.ms", "ms"),
    decl("expand.repaired", "per_clause"),
    decl("clause.ground_ms", "ms"),
    decl("coverage.prepare_us", "us"),
    decl("coverage.counts_us", "us"),
    decl("learn.clauses", "count"),
    decl("learn.bottom_clauses", "count"),
    decl("engine.bind_ms", "ms"),
    decl("engine.predict_batch_ms", "ms"),
    decl("service.batch_us", "us"),
    decl("service.hit_ratio", "ratio"),
    decl("service.evictions_per_1k", "per_1k"),
    decl("service.degraded", "count"),
    decl("coalesce.wait_us", "us"),
    decl("coalesce.batch_mean", "requests"),
    decl("coalesce.timer_drain_frac", "ratio"),
    decl("delta.apply_ms", "ms"),
    decl("delta.reground_frac", "ratio"),
    decl("delta.rescored_lefts", "per_tx"),
    decl("delta.patched_entries", "per_tx"),
    decl("relstore.apply_ms", "ms"),
    decl("relstore.interned_per_tx", "per_tx"),
    decl("swap.publish_ms", "ms"),
    decl("swap.delta_evictions", "per_tx"),
    decl("replay.verified", "flag"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the declared unit.
    pub value: f64,
    /// Samples (calls, spans, repetitions) behind the value.
    pub samples: usize,
}

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    /// Record a declared metric.
    ///
    /// # Panics
    /// On a name missing from [`END_TO_END`] and [`PER_LAYER`]: every
    /// printed name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, Measured { value, samples });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Human-readable lines, one per metric of `decls` that was recorded.
    pub fn lines(&self, decls: &[Decl]) -> Vec<String> {
        decls
            .iter()
            .filter_map(|d| {
                self.get(d.name).map(|v| {
                    format!(
                        "  {:<28} {:>14.6} {:<10} n={}",
                        d.name, v.value, d.unit, v.samples
                    )
                })
            })
            .collect()
    }

    /// The JSON object of the metrics in `decls`, each `{"value", "unit"}`.
    ///
    /// # Panics
    /// When a metric of `decls` was not recorded, or is not finite.
    pub fn json(&self, decls: &[Decl]) -> String {
        let fields: Vec<String> = decls
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(v.value.is_finite(), "metric {} is {}", d.name, v.value);
                // `{}` on `f64` prints the shortest form that reads back
                // exactly: every digit of the measurement, valid JSON.
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v.value, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The declared unit of a metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}
