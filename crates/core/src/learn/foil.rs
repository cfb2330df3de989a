//! FOIL-style top-down refinement over the shared prepared state
//! ([`crate::Strategy::Foil`]).
//!
//! Where DLearn searches bottom-up (start maximally specific, *drop*
//! literals), FOIL searches top-down: start from the bare head —
//! which covers everything — and repeatedly *add* the body literal of the
//! seed's bottom clause with the highest information gain
//!
//! ```text
//! gain(L) = p1 · ( log2(p1 / (p1 + n1)) − log2(p0 / (p0 + n0)) )
//! ```
//!
//! where `p0`/`n0` are the uncovered-positive and negative coverage counts
//! of the current clause and `p1`/`n1` those of the clause extended with
//! `L`, both computed against the plan's [`CoverageEngine`] — so FOIL is
//! scored under exactly the repair-aware coverage semantics (Definitions
//! 3.4/3.6) as every other strategy, and dirty-data handling composes with
//! it for free. Candidate literals come from the seed example's bottom
//! clause, which bounds the search to literals that can actually reach the
//! example (the classic FOIL-over-bottom-clause restriction).
//!
//! FOIL keeps the classic outer covering loop, the one the paper's
//! strategies share ([`super::cover`]); only the clause search differs.
//!
//! Determinism: candidates are scored through the order-preserving
//! [`super::score_each`] fan-out, gain is a pure function of coverage
//! counts, and ties break on the earliest bottom-clause body position —
//! bit-identical definitions at any thread count.

use dlearn_logic::Clause;

use crate::config::LearnerConfig;
use crate::coverage::{CoverageEngine, PreparedClause};
use crate::engine::StrategyPlan;

use super::{cover, score_each, subclause, Refined};

/// Minimum gain a literal must contribute to be added: guards against
/// floating-point noise keeping the loop alive on literals that change
/// nothing.
const GAIN_EPSILON: f64 = 1e-9;

/// Cap on the number of specialization steps per clause, over and above the
/// natural bound of the bottom clause's body length. Keeps pathological
/// bottom clauses from building very long (and very slow to test) clauses.
const MAX_LITERALS: usize = 12;

/// Top-down gain-driven clause search inside the covering loop.
pub(crate) fn learn(plan: &StrategyPlan) -> Refined {
    cover(plan, |bottom, uncovered, _rng| {
        specialize(&bottom, &plan.coverage, &plan.config, uncovered)
    })
}

/// One scored extension candidate: `(gain, bottom-body index, clause,
/// positive mask, negative mask)`.
type Scored = (f64, usize, Clause, Vec<bool>, Vec<bool>);

/// Grow one clause: start from the bare head and add the highest-gain
/// bottom-clause literal until the clause is consistent (covers no
/// negatives), no literal has positive gain, or the length cap binds.
/// Returns the clause with its positive and negative coverage masks.
fn specialize(
    bottom: &Clause,
    engine: &CoverageEngine,
    config: &LearnerConfig,
    uncovered: &[usize],
) -> (Clause, Vec<bool>, Vec<bool>) {
    let body_len = bottom.body.len();
    let mut selected = vec![false; body_len];
    let mut current = subclause(bottom, &selected);
    let initial = PreparedClause::prepare(current.clone(), config);
    let (mut positive_mask, mut negative_mask) = engine.masks(&initial, config.effective_threads());

    for _step in 0..body_len.min(MAX_LITERALS) {
        let p0 = uncovered.iter().filter(|&&i| positive_mask[i]).count();
        let n0 = negative_mask.iter().filter(|&&b| b).count();
        if p0 == 0 || (n0 == 0 && !current.body.is_empty()) {
            // Nothing left to gain from, or already consistent.
            break;
        }
        let candidates: Vec<usize> = (0..body_len).filter(|&i| !selected[i]).collect();
        if candidates.is_empty() {
            break;
        }

        let current_len = current.body.len();
        let scored = score_each(config, &candidates, |&index, mask_threads| {
            let mut keep = selected.clone();
            keep[index] = true;
            let candidate = subclause(bottom, &keep);
            if candidate.body.len() <= current_len {
                // The literal was dropped again by head-connectedness
                // cleanup: it cannot attach to the clause yet.
                return None;
            }
            let prepared = PreparedClause::prepare(candidate.clone(), config);
            let (pos, neg) = engine.masks(&prepared, mask_threads);
            let p1 = uncovered.iter().filter(|&&i| pos[i]).count();
            if p1 == 0 {
                return None;
            }
            let n1 = neg.iter().filter(|&&b| b).count();
            let gain = p1 as f64 * (info(p1, n1) - info(p0, n0));
            Some((gain, index, candidate, pos, neg))
        });

        // First strict maximum in candidate (= bottom-clause body) order.
        let mut best: Option<Scored> = None;
        for entry in scored.into_iter().flatten() {
            if best.as_ref().map(|b| entry.0 > b.0).unwrap_or(true) {
                best = Some(entry);
            }
        }
        match best {
            Some((gain, index, candidate, pos, neg)) if gain > GAIN_EPSILON => {
                selected[index] = true;
                current = candidate;
                positive_mask = pos;
                negative_mask = neg;
            }
            _ => break,
        }
    }

    (current, positive_mask, negative_mask)
}

/// `log2(p / (p + n))` — the information carried by a positive verdict at a
/// node with `p` covered positives and `n` covered negatives. Callers
/// guarantee `p >= 1`.
fn info(p: usize, n: usize) -> f64 {
    debug_assert!(p >= 1);
    (p as f64 / (p + n) as f64).log2()
}
