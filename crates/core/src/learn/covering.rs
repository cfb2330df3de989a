//! The paper's bottom-up clause search (Algorithm 1's LearnClause) inside
//! the shared covering loop [`super::cover`]: generalize the seed's bottom
//! clause toward sampled uncovered positives, hill-climbing on the clause
//! score. Runs for the five paper strategies.

use rand::seq::SliceRandom;

use crate::config::LearnerConfig;
use crate::coverage::{CoverageCounts, CoverageEngine, PreparedClause};
use crate::engine::StrategyPlan;
use crate::generalize::generalize_prepared;

use super::{cover, score_each, Refined};

/// The covering loop over a strategy's prepared artifacts, learning each
/// clause by generalization until the positives are covered or the clause
/// budget runs out.
pub(crate) fn learn(plan: &StrategyPlan) -> Refined {
    let config = &plan.config;
    let engine = &plan.coverage;
    cover(plan, |bottom, uncovered, rng| {
        // LearnClause: generalize the bottom clause against sampled
        // uncovered positives other than the seed, hill-climbing on the
        // clause score.
        let mut current = PreparedClause::prepare(bottom, config);
        let (mut positives, mut negatives) = engine.masks(&current, config.effective_threads());
        let mut current_score = CoverageCounts::of(&positives, &negatives).score();
        for _round in 0..config.max_generalization_rounds {
            let mut sample = uncovered[1..].to_vec();
            sample.shuffle(rng);
            sample.truncate(config.sample_positives);
            if sample.is_empty() {
                break;
            }
            match best_generalization(engine, &current, &sample, config) {
                Some((score, prepared, pos, neg)) if score > current_score => {
                    current = prepared;
                    (positives, negatives) = (pos, neg);
                    current_score = score;
                }
                _ => break,
            }
        }
        (current.clause, positives, negatives)
    })
}

/// One scored generalization candidate: `(score, clause, positive mask,
/// negative mask)`.
type Scored = (i64, PreparedClause, Vec<bool>, Vec<bool>);

/// Score every sampled generalization candidate and return the best one,
/// with the masks it was scored on.
///
/// The per-candidate work — generalize `current` toward the sampled
/// positive's ground bottom clause, expand/renumber the result, score it
/// against the full training set — is independent across samples, so it fans
/// out through [`score_each`]. The reduction is deterministic and matches the
/// serial loop exactly: highest score wins, ties broken by the earliest
/// sample position, so learned definitions are bit-identical at any thread
/// count.
fn best_generalization(
    engine: &CoverageEngine,
    current: &PreparedClause,
    sample: &[usize],
    config: &LearnerConfig,
) -> Option<Scored> {
    let scored = score_each(config, sample, |&ei, mask_threads| {
        let target_ground = &engine.positive(ei).ground;
        let candidate = generalize_prepared(
            &current.clause,
            current.numbered(),
            target_ground,
            config.binding_cap,
        )?;
        if candidate.body.is_empty() {
            return None;
        }
        let prepared = PreparedClause::prepare(candidate, config);
        let (positives, negatives) = engine.masks(&prepared, mask_threads);
        let score = CoverageCounts::of(&positives, &negatives).score();
        Some((score, prepared, positives, negatives))
    });

    // First strict maximum in sample order — identical to the serial loop.
    let mut best: Option<Scored> = None;
    for entry in scored.into_iter().flatten() {
        if best.as_ref().map(|b| entry.0 > b.0).unwrap_or(true) {
            best = Some(entry);
        }
    }
    best
}
