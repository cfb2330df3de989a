//! Seeded delta-sequence generators and the incremental-vs-rebuild replay
//! driver.
//!
//! Two layers of the streaming-delta contract are exercised from here:
//!
//! * **Column level** — [`column_script`] derives a seeded sequence of
//!   [`ColumnDelta`]s over a pool of dirty-vocabulary values, and
//!   [`replay_and_compare`] drives a [`MaintainedIndex`] through it,
//!   pinning after *every* step that the maintained index is `==` (entry
//!   for entry, score bits included) to a fresh [`SimilarityIndex::build`]
//!   over the live columns **and** to the brute-force all-pairs
//!   [`ReferenceIndex`].
//! * **Tuple level** — [`tx_script`] derives a seeded sequence of valid
//!   [`DeltaTx`]s against an evolving database clone (deletes always name
//!   present tuples; inserts recombine and decorate values already in the
//!   column, so similarity blocking is actually exercised). The
//!   engine-level oracle (`tests/delta_oracle.rs` at the workspace root)
//!   replays these against `Engine::apply_delta` and a from-scratch
//!   `Engine::prepare` on the mutated store.
//!
//! The split mirrors the crate graph: this crate sits *below*
//! `dlearn-core` (core's fault-injection feature depends on it), so the
//! engine-side driver has to live in the workspace test tree; everything
//! seedable and engine-agnostic lives here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_relstore::{Database, DeltaTx, RelId, Sym, Value, ValueType};
use dlearn_similarity::{ColumnDelta, IndexConfig, MaintainedIndex, SimilarityIndex};

use crate::index_oracle::ReferenceIndex;

/// Knobs of the seeded [`column_script`] generator.
#[derive(Debug, Clone)]
pub struct ColumnScriptConfig {
    /// Number of [`ColumnDelta`] steps in the script.
    pub steps: usize,
    /// Values added/removed per side per step are drawn from
    /// `0..=max_changes_per_side`.
    pub max_changes_per_side: usize,
    /// Probability that a drawn change is a removal (when the live side is
    /// non-empty) rather than an addition (when the spare pool is
    /// non-empty).
    pub p_remove: f64,
}

impl Default for ColumnScriptConfig {
    fn default() -> Self {
        ColumnScriptConfig {
            steps: 6,
            max_changes_per_side: 3,
            p_remove: 0.45,
        }
    }
}

/// The live column state a script evolves, plus the script itself.
#[derive(Debug, Clone)]
pub struct ColumnScript {
    /// Initial left column (the values live *before* the first delta).
    pub left: Vec<Sym>,
    /// Initial right column.
    pub right: Vec<Sym>,
    /// Delta steps, in application order.
    pub deltas: Vec<ColumnDelta>,
}

/// Derive a seeded delta script over two value pools.
///
/// Roughly half of each pool starts live; each step moves a few values per
/// side between the live set and the spare pool, so the script mixes
/// insertions of never-seen values, removals, and re-insertions of
/// previously removed values (the adopt-state must survive round trips).
pub fn column_script(
    left_pool: &[Sym],
    right_pool: &[Sym],
    config: &ColumnScriptConfig,
    seed: u64,
) -> ColumnScript {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_de17a);
    let (mut live_left, mut spare_left) = split_pool(left_pool, &mut rng);
    let (mut live_right, mut spare_right) = split_pool(right_pool, &mut rng);
    let left = live_left.clone();
    let right = live_right.clone();

    let mut deltas = Vec::with_capacity(config.steps);
    for _ in 0..config.steps {
        let mut delta = ColumnDelta::default();
        step_side(
            &mut live_left,
            &mut spare_left,
            &mut delta.added_left,
            &mut delta.removed_left,
            config,
            &mut rng,
        );
        step_side(
            &mut live_right,
            &mut spare_right,
            &mut delta.added_right,
            &mut delta.removed_right,
            config,
            &mut rng,
        );
        deltas.push(delta);
    }
    ColumnScript {
        left,
        right,
        deltas,
    }
}

/// Split a pool into (live, spare), keeping roughly half live and at least
/// one value on each side when the pool allows it.
fn split_pool(pool: &[Sym], rng: &mut StdRng) -> (Vec<Sym>, Vec<Sym>) {
    let mut live = Vec::new();
    let mut spare = Vec::new();
    for &v in pool {
        if rng.gen_bool(0.5) {
            live.push(v);
        } else {
            spare.push(v);
        }
    }
    if live.is_empty() && !spare.is_empty() {
        live.push(spare.pop().expect("non-empty"));
    }
    if spare.is_empty() && live.len() > 1 {
        spare.push(live.pop().expect("non-empty"));
    }
    (live, spare)
}

/// Draw one side's additions/removals for a step, keeping live/spare in
/// sync so later steps stay valid.
fn step_side(
    live: &mut Vec<Sym>,
    spare: &mut Vec<Sym>,
    added: &mut Vec<Sym>,
    removed: &mut Vec<Sym>,
    config: &ColumnScriptConfig,
    rng: &mut StdRng,
) {
    let changes = rng.gen_range(0..=config.max_changes_per_side);
    for _ in 0..changes {
        let remove = rng.gen_bool(config.p_remove);
        if remove && !live.is_empty() {
            let v = live.swap_remove(rng.gen_range(0..live.len()));
            removed.push(v);
            spare.push(v);
        } else if !spare.is_empty() {
            let v = spare.swap_remove(rng.gen_range(0..spare.len()));
            added.push(v);
            live.push(v);
        }
    }
}

/// Per-step statistics of one [`replay_and_compare`] run.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Steps replayed (equals the script length).
    pub steps: usize,
    /// Total stored pairs across all post-step maintained indexes (a
    /// vacuity guard: a script whose every state is empty proves nothing).
    pub pairs_seen: usize,
    /// Total full re-scans the maintained index ran.
    pub rescored_lefts: usize,
    /// Total targeted single-entry patches the maintained index ran.
    pub patched_entries: usize,
}

/// Drive a [`MaintainedIndex`] through a script, pinning after every step
/// that it equals both a fresh [`SimilarityIndex::build`] and the
/// brute-force [`ReferenceIndex`] over the live columns.
///
/// Panics (via `assert_eq!`) on the first divergence, naming the step.
pub fn replay_and_compare(script: &ColumnScript, config: &IndexConfig) -> ReplayStats {
    let built = SimilarityIndex::build(&script.left, &script.right, config);
    let mut maintained = MaintainedIndex::adopt(built, &script.left, &script.right, config.clone());
    let mut live_left = script.left.clone();
    let mut live_right = script.right.clone();
    let mut stats = ReplayStats::default();

    for (step, delta) in script.deltas.iter().enumerate() {
        apply_to_live(&mut live_left, &delta.added_left, &delta.removed_left);
        apply_to_live(&mut live_right, &delta.added_right, &delta.removed_right);
        let outcome = maintained.apply(delta);
        stats.steps += 1;
        stats.rescored_lefts += outcome.rescored_lefts;
        stats.patched_entries += outcome.patched_entries;
        stats.pairs_seen += maintained.index().pair_count();

        let fresh = SimilarityIndex::build(&live_left, &live_right, config);
        assert_eq!(
            maintained.index(),
            &fresh,
            "maintained index diverged from fresh build after step {step} ({delta:?})"
        );
        let reference = ReferenceIndex::build(&live_left, &live_right, config);
        assert_eq!(
            ReferenceIndex::view_of(maintained.index()),
            reference,
            "maintained index diverged from brute-force reference after step {step}"
        );
    }
    stats
}

fn apply_to_live(live: &mut Vec<Sym>, added: &[Sym], removed: &[Sym]) {
    live.retain(|v| !removed.contains(v));
    live.extend_from_slice(added);
}

/// Knobs of the seeded [`tx_script`] generator.
#[derive(Debug, Clone)]
pub struct TxScriptConfig {
    /// Number of transactions in the script.
    pub txs: usize,
    /// Ops per transaction are drawn from `1..=max_ops_per_tx`.
    pub max_ops_per_tx: usize,
    /// Probability an op is an insert (otherwise a delete of a present
    /// tuple; falls back to insert when the relation is empty).
    pub p_insert: f64,
}

impl Default for TxScriptConfig {
    fn default() -> Self {
        TxScriptConfig {
            txs: 4,
            max_ops_per_tx: 3,
            p_insert: 0.55,
        }
    }
}

/// Decoration tags appended to recombined string values, so inserted
/// strings share blocking tokens with live values (near-duplicates, the
/// regime similarity indexes exist for) without colliding exactly.
const DECOR: &[&str] = &[
    "remastered",
    "unrated",
    "directors cut",
    "special edition",
    "vol 2",
    "redux",
];

/// Derive a seeded sequence of valid [`DeltaTx`]s against `db`.
///
/// Every op is drawn against an evolving clone and applied to it before the
/// next op is drawn, so a delete always names a tuple present *at that
/// point of the script* — including one inserted earlier in the same
/// transaction — and never the same tuple twice. Inserted string values
/// recombine a live value of the same column with a decoration tag;
/// inserted ints are drawn near the column's existing range. Only
/// `relations` are touched.
pub fn tx_script(
    db: &Database,
    relations: &[RelId],
    config: &TxScriptConfig,
    seed: u64,
) -> Vec<DeltaTx> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_7a61e);
    let mut working = db.clone();
    let mut script = Vec::with_capacity(config.txs);
    for _ in 0..config.txs {
        let mut tx = DeltaTx::new();
        let ops = rng.gen_range(1..=config.max_ops_per_tx);
        for _ in 0..ops {
            let rel_id = relations[rng.gen_range(0..relations.len())];
            let rel = working
                .relation(rel_id)
                .unwrap_or_else(|| panic!("tx_script: unknown relation '{rel_id}'"));
            let delete = !rel.is_empty() && !rng.gen_bool(config.p_insert);
            let step = if delete {
                let victim = rel
                    .tuple(rng.gen_range(0..rel.len()))
                    .expect("in range")
                    .clone();
                DeltaTx::new().delete(rel_id, victim)
            } else {
                DeltaTx::new().insert(rel_id, synthesize_tuple(rel, &mut rng))
            };
            working
                .apply_delta(&step)
                .expect("generated ops are valid by construction");
            tx.push(step.ops()[0].clone());
        }
        script.push(tx);
    }
    script
}

/// Build a schema-conforming tuple whose string values are decorated
/// recombinations of live values in the same column.
fn synthesize_tuple(rel: &dlearn_relstore::Relation, rng: &mut StdRng) -> dlearn_relstore::Tuple {
    let schema = rel.schema();
    let mut values = Vec::with_capacity(schema.arity());
    for attr in 0..schema.arity() {
        let ty = schema.attribute(attr).expect("in range").ty;
        values.push(match ty {
            ValueType::Int => {
                let base = rel
                    .tuples()
                    .iter()
                    .filter_map(|t| t.value(attr).and_then(Value::as_int))
                    .max()
                    .unwrap_or(0);
                Value::int(base + 1 + rng.gen_range(0..7i64))
            }
            ValueType::Str | ValueType::Null => {
                let stems: Vec<&str> = rel
                    .tuples()
                    .iter()
                    .filter_map(|t| t.value(attr).and_then(Value::as_str))
                    .collect();
                if stems.is_empty() {
                    Value::str(DECOR[rng.gen_range(0..DECOR.len())])
                } else {
                    let stem = stems[rng.gen_range(0..stems.len())];
                    let tag = DECOR[rng.gen_range(0..DECOR.len())];
                    Value::str(format!("{stem} {tag}"))
                }
            }
        });
    }
    dlearn_relstore::Tuple::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{dirty_vocabulary, VocabConfig};
    use dlearn_relstore::{DatabaseBuilder, RelationBuilder};
    use dlearn_similarity::SimilarityOperator;

    #[test]
    fn column_scripts_change_something_and_replay_clean() {
        let vocab = dirty_vocabulary(&VocabConfig::default(), 11);
        let config = IndexConfig {
            top_k: 4,
            operator: SimilarityOperator::with_threshold(0.7),
            threads: 1,
            ..IndexConfig::default()
        };
        let script = column_script(
            &vocab.left,
            &vocab.right,
            &ColumnScriptConfig::default(),
            11,
        );
        assert!(script.deltas.iter().any(|d| !d.is_empty()));
        let stats = replay_and_compare(&script, &config);
        assert_eq!(stats.steps, script.deltas.len());
        assert!(stats.pairs_seen > 0, "vacuous script: {stats:?}");
    }

    #[test]
    fn tx_scripts_are_valid_and_touch_the_store() {
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
            db.insert(
                "m",
                dlearn_relstore::tuple(vec![Value::int(i as i64), Value::str(*t)]),
            )
            .unwrap();
        }
        let rels = [RelId::intern("m")];
        let script = tx_script(&db, &rels, &TxScriptConfig::default(), 3);
        assert_eq!(script.len(), TxScriptConfig::default().txs);
        let mut replay = db.clone();
        let mut touched = 0;
        for tx in &script {
            let changes = replay.apply_delta(tx).expect("script must stay valid");
            touched += usize::from(!changes.is_empty());
        }
        assert!(touched > 0, "script never touched the store");
        // Inserted strings decorate live stems, so blocking keys overlap.
        let decorated = replay
            .relation("m")
            .unwrap()
            .tuples()
            .iter()
            .filter_map(|t| t.value(1).and_then(Value::as_str))
            .filter(|s| DECOR.iter().any(|d| s.ends_with(d)))
            .count();
        assert!(decorated > 0 || script.iter().all(|tx| !tx.ops().is_empty()));

        // Long transactions over three tuples: each op is drawn against the
        // ops before it, so none deletes a tuple an earlier op removed.
        let dense = TxScriptConfig {
            txs: 8,
            max_ops_per_tx: 6,
            p_insert: 0.3,
        };
        for seed in 0..16 {
            let script = tx_script(&db, &rels, &dense, seed);
            assert!(script.iter().any(|tx| tx.len() > 1));
            let mut replay = db.clone();
            for tx in &script {
                replay
                    .apply_delta(tx)
                    .expect("multi-op transaction stays valid");
            }
        }
    }
}
