//! Seeded script generators for the hot-swap / coalescing stress suite.
//!
//! The swap suite (`tests/swap_stress.rs` at the workspace root) needs two
//! kinds of seeded schedules:
//!
//! * [`swap_script`] — an interleaving of engine deltas, full model
//!   publications and serving bursts, with the deltas drawn from the same
//!   evolving-clone [`tx_script`] generator the
//!   delta oracle replays (so every delta is valid at its point in the
//!   script). The generator guarantees the script is non-vacuous: at least
//!   one delta, one publish and one serve burst each appear.
//! * [`coalesce_script`] — per-caller tuple-index sequences, so N
//!   concurrent callers submit a seeded but reproducible traffic mix to a
//!   coalescer while the main thread replays publications.
//!
//! Like the rest of this crate the generators are engine-agnostic (this
//! crate sits *below* `dlearn-core`); the replay drivers that bind the
//! scripts to an `Engine`/`PredictorService` live in the workspace test
//! tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_relstore::{Database, DeltaTx, RelId};

use crate::delta::{tx_script, TxScriptConfig};

/// One step of a [`swap_script`].
#[derive(Debug, Clone)]
pub enum SwapStep {
    /// Apply this transaction to the engine and publish the delta to the
    /// service ([`Engine::apply_delta`] → [`PredictorService::apply_delta`]
    /// in the replay driver).
    ///
    /// [`Engine::apply_delta`]: ../dlearn_core/struct.Engine.html
    /// [`PredictorService::apply_delta`]: ../dlearn_core/struct.PredictorService.html
    Delta(DeltaTx),
    /// Re-bind the current learned model and publish it as a fresh epoch.
    Publish,
    /// Serve this many concurrent batches against whatever epoch is
    /// installed.
    Serve {
        /// Number of batches the replay driver should issue for this step.
        batches: usize,
    },
}

/// Knobs of the seeded [`swap_script`] generator.
#[derive(Debug, Clone)]
pub struct SwapScriptConfig {
    /// Number of steps in the script.
    pub steps: usize,
    /// Probability a step is a [`SwapStep::Delta`] (while generated deltas
    /// remain).
    pub p_delta: f64,
    /// Probability a step is a [`SwapStep::Publish`] (evaluated after the
    /// delta draw).
    pub p_publish: f64,
    /// Generator knobs for the underlying delta transactions.
    pub tx: TxScriptConfig,
}

impl Default for SwapScriptConfig {
    fn default() -> Self {
        SwapScriptConfig {
            steps: 24,
            p_delta: 0.25,
            p_publish: 0.2,
            tx: TxScriptConfig::default(),
        }
    }
}

/// Derive a seeded interleaving of deltas, publications and serving bursts.
///
/// Delta transactions come from [`tx_script`] against an evolving clone of
/// `db`, in order — so replaying the `Delta` steps in script order against
/// the real engine is valid by construction. The script always contains at
/// least one `Delta`, one `Publish` and one `Serve` step (a schedule that
/// never swaps, or never serves, would pin nothing).
pub fn swap_script(
    db: &Database,
    relations: &[RelId],
    config: &SwapScriptConfig,
    seed: u64,
) -> Vec<SwapStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a0b_5c47);
    let tx_config = TxScriptConfig {
        txs: config.steps.max(1),
        ..config.tx.clone()
    };
    let mut deltas: std::collections::VecDeque<DeltaTx> =
        tx_script(db, relations, &tx_config, seed).into();

    let mut script = Vec::with_capacity(config.steps);
    for _ in 0..config.steps {
        if !deltas.is_empty() && rng.gen_bool(config.p_delta) {
            script.push(SwapStep::Delta(deltas.pop_front().expect("non-empty")));
        } else if rng.gen_bool(config.p_publish) {
            script.push(SwapStep::Publish);
        } else {
            script.push(SwapStep::Serve {
                batches: rng.gen_range(1..=3usize),
            });
        }
    }

    // Vacuity guards: force one of each step kind into the schedule if the
    // draws happened to miss it, at seeded positions.
    if !script.iter().any(|s| matches!(s, SwapStep::Delta(_))) {
        let at = rng.gen_range(0..script.len().max(1));
        script[at] = SwapStep::Delta(deltas.pop_front().expect("generator made one per step"));
    }
    if !script.iter().any(|s| matches!(s, SwapStep::Publish)) {
        let at = pick_non_delta(&script, &mut rng);
        script[at] = SwapStep::Publish;
    }
    if !script.iter().any(|s| matches!(s, SwapStep::Serve { .. })) {
        let at = pick_non_delta(&script, &mut rng);
        script[at] = SwapStep::Serve { batches: 1 };
    }
    script
}

/// A seeded index of a non-`Delta` step (replacing a delta would break the
/// evolving-clone validity chain of the remaining deltas).
fn pick_non_delta(script: &[SwapStep], rng: &mut StdRng) -> usize {
    let candidates: Vec<usize> = script
        .iter()
        .enumerate()
        .filter(|(_, s)| !matches!(s, SwapStep::Delta(_)))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !candidates.is_empty(),
        "swap_script: schedule has no replaceable step"
    );
    candidates[rng.gen_range(0..candidates.len())]
}

/// Derive per-caller request schedules for a coalescing stress run: each
/// caller `c` submits `calls_per_caller` requests, each naming an index into
/// the test's shared tuple pool (`0..tuples`). Schedules differ per caller
/// (the seed folds the caller id in) but are reproducible per seed.
pub fn coalesce_script(
    tuples: usize,
    callers: usize,
    calls_per_caller: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(tuples > 0, "coalesce_script: empty tuple pool");
    (0..callers)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0a1_e5ce ^ ((c as u64) << 32));
            (0..calls_per_caller)
                .map(|_| rng.gen_range(0..tuples))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};

    fn db() -> Database {
        let mut db = DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("m")
                    .int_attr("id")
                    .str_attr("title")
                    .build(),
            )
            .build();
        for (i, t) in ["golden harbor", "silent meadow", "crimson summit"]
            .iter()
            .enumerate()
        {
            db.insert("m", tuple(vec![Value::int(i as i64), Value::str(*t)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn swap_scripts_are_non_vacuous_and_deltas_replay_clean() {
        let db = db();
        let rels = [RelId::intern("m")];
        for seed in [1u64, 7, 42] {
            let script = swap_script(&db, &rels, &SwapScriptConfig::default(), seed);
            assert_eq!(script.len(), SwapScriptConfig::default().steps);
            assert!(script.iter().any(|s| matches!(s, SwapStep::Delta(_))));
            assert!(script.iter().any(|s| matches!(s, SwapStep::Publish)));
            assert!(script.iter().any(|s| matches!(s, SwapStep::Serve { .. })));
            // Deltas must stay valid when applied in script order.
            let mut replay = db.clone();
            for step in &script {
                if let SwapStep::Delta(tx) = step {
                    replay.apply_delta(tx).expect("script delta must be valid");
                }
            }
        }
    }

    #[test]
    fn swap_scripts_are_reproducible_per_seed() {
        let db = db();
        let rels = [RelId::intern("m")];
        let a = swap_script(&db, &rels, &SwapScriptConfig::default(), 9);
        let b = swap_script(&db, &rels, &SwapScriptConfig::default(), 9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn coalesce_scripts_cover_callers_and_stay_in_range() {
        let script = coalesce_script(5, 3, 16, 11);
        assert_eq!(script.len(), 3);
        assert!(script.iter().all(|s| s.len() == 16));
        assert!(script.iter().flatten().all(|&i| i < 5));
        // Different callers get different schedules (vacuity guard).
        assert_ne!(script[0], script[1]);
        let again = coalesce_script(5, 3, 16, 11);
        assert_eq!(script, again);
    }
}
