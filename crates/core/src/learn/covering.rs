//! The paper's bottom-up covering loop (Algorithm 1), extracted from the
//! engine into a [`Refiner`] so it is one search procedure among several
//! over the same prepared state.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dlearn_logic::{Clause, Definition, NumberedClause};

use crate::bottom::BottomClauseBuilder;
use crate::config::LearnerConfig;
use crate::coverage::{CoverageCounts, CoverageEngine, PreparedClause};
use crate::engine::{ClauseStats, StrategyPlan};
use crate::generalize::generalize_prepared;

use super::{accept_clause, mask_threads, Refined, Refiner};

/// The covering loop (Algorithm 1) over a strategy's prepared artifacts:
/// generalize a seed bottom clause toward sampled uncovered positives,
/// hill-climbing on the clause score, until the positives are covered or the
/// clause budget runs out.
pub(crate) struct CoveringRefiner;

impl Refiner for CoveringRefiner {
    fn refine(&self, plan: &StrategyPlan) -> Refined {
        let task = &plan.task;
        let config = &plan.config;
        let engine = &plan.coverage;
        let builder = BottomClauseBuilder::new(task, &plan.catalog, config);
        let mut bottom_clauses_built = task.positives.len() + task.negatives.len();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut uncovered: Vec<usize> = (0..task.positives.len()).collect();
        let mut definition = Definition::new();
        let mut stats: Vec<ClauseStats> = Vec::new();

        while !uncovered.is_empty() && definition.len() < config.max_clauses {
            let seed_example = uncovered[0];
            let bottom = builder.build(&task.positives[seed_example], &mut rng);
            bottom_clauses_built += 1;
            if bottom.body.is_empty() {
                uncovered.remove(0);
                continue;
            }

            // LearnClause: generalize the bottom clause against sampled
            // uncovered positives, hill-climbing on the clause score.
            let mut current = bottom;
            let mut current_prepared = PreparedClause::prepare(current.clone(), config);
            let mut current_score = engine.counts(&current_prepared).score();
            for _round in 0..config.max_generalization_rounds {
                let mut sample: Vec<usize> = uncovered
                    .iter()
                    .copied()
                    .filter(|&i| i != seed_example)
                    .collect();
                sample.shuffle(&mut rng);
                sample.truncate(config.sample_positives);
                if sample.is_empty() {
                    break;
                }
                let best = best_generalization(
                    engine,
                    &current,
                    current_prepared.numbered(),
                    &sample,
                    config,
                );
                match best {
                    Some((score, prepared)) if score > current_score => {
                        current = prepared.clause.clone();
                        current_prepared = prepared;
                        current_score = score;
                    }
                    _ => break,
                }
            }

            // Minimum criterion: the clause must cover enough positives and
            // more positives than negatives.
            let (positive_mask, negative_mask) =
                engine.masks(&current_prepared, config.effective_threads());
            let counts = CoverageCounts::of(&positive_mask, &negative_mask);
            if accept_clause(
                &current,
                counts.positives,
                counts.negatives,
                config.min_positive_coverage,
                uncovered.len(),
            ) {
                definition.push(current);
                stats.push(ClauseStats {
                    positives_covered: counts.positives,
                    negatives_covered: counts.negatives,
                });
                uncovered.retain(|&i| !positive_mask[i]);
                if uncovered.first() == Some(&seed_example) {
                    // Defensive: never loop forever on an uncoverable seed.
                    uncovered.remove(0);
                }
            } else {
                uncovered.remove(0);
            }
        }

        Refined {
            definition,
            stats,
            bottom_clauses_built,
        }
    }
}

/// Score every sampled generalization candidate and return the best one.
///
/// The per-candidate work — generalize `current` toward the sampled
/// positive's ground bottom clause, expand/renumber the result, score it
/// against the full training set — is independent across samples, so it fans
/// out across `std::thread::scope` workers in contiguous chunks (the same
/// order-preserving [`crate::par::chunked_map`] the coverage masks use),
/// with masks on [`mask_threads`] workers. The reduction is deterministic
/// and matches the serial loop exactly: highest score wins, ties broken by
/// the earliest sample position, so learned definitions are bit-identical at
/// any thread count.
fn best_generalization(
    engine: &CoverageEngine,
    current: &Clause,
    current_numbered: &NumberedClause,
    sample: &[usize],
    config: &LearnerConfig,
) -> Option<(i64, PreparedClause)> {
    let threads = config.effective_generalization_threads();
    let inner = mask_threads(config, threads, sample.len());
    let scored = crate::par::chunked_map(sample, threads, 2, |_, &ei| {
        let target_ground = &engine.positive(ei).ground;
        let candidate =
            generalize_prepared(current, current_numbered, target_ground, config.binding_cap)?;
        if candidate.body.is_empty() {
            return None;
        }
        let prepared = PreparedClause::prepare(candidate, config);
        let (positives, negatives) = engine.masks(&prepared, inner);
        Some((CoverageCounts::of(&positives, &negatives).score(), prepared))
    });

    // First strict maximum in sample order — identical to the serial loop.
    let mut best: Option<(i64, PreparedClause)> = None;
    for entry in scored.into_iter().flatten() {
        if best.as_ref().map(|(s, _)| entry.0 > *s).unwrap_or(true) {
            best = Some(entry);
        }
    }
    best
}
