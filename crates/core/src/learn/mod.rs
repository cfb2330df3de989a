//! The learner subsystem: hypothesis searches over prepared
//! [`StrategyPlan`] state.
//!
//! [`crate::Engine::prepare`] front-loads everything expensive — the MD
//! similarity catalog and the ground bottom clauses of the training
//! examples — into a [`StrategyPlan`]. Each learner searches over that
//! shared state: it scores candidates against the plan's
//! [`crate::CoverageEngine`] (the single coverage semantics of Definitions
//! 3.4/3.6, repairs included) and produces a Horn [`Definition`] plus
//! per-clause statistics. [`refine`] runs the one a strategy selects:
//!
//! * [`covering::learn`] — the paper's bottom-up search: generalize the seed
//!   bottom clause toward sampled positives. Runs for the five paper
//!   strategies.
//! * [`foil::learn`] — top-down FOIL-style search
//!   ([`crate::Strategy::Foil`]): specialize from the head by *adding*
//!   bottom-clause literals chosen by information gain over coverage counts.
//! * [`tilde::learn`] — a TILDE-style first-order decision tree
//!   ([`crate::Strategy::Tilde`]): internal nodes are conjunctive tests
//!   drawn from the bottom clauses, split by gain ratio; positive leaves
//!   become the clauses of the learned definition.
//!
//! The two clausal learners share one covering loop, [`cover`] (Algorithm
//! 1), and differ only in how they turn a seed's bottom clause into a clause.
//! All three score their candidates through one fan-out, [`score_each`].
//!
//! Every learner is deterministic at any thread count: the fan-out is the
//! order-preserving [`crate::par::chunked_map`], scores are pure functions
//! of coverage counts, and ties break on the earliest candidate in
//! construction order.

pub(crate) mod covering;
pub(crate) mod foil;
pub(crate) mod tilde;

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{Clause, Definition, Term, Var};

use crate::bottom::BottomClauseBuilder;
use crate::config::LearnerConfig;
use crate::coverage::CoverageCounts;
use crate::engine::{ClauseStats, StrategyPlan};
use crate::learner::Strategy;

/// The outcome of one learner run over a strategy plan.
pub(crate) struct Refined {
    /// The learned Horn definition.
    pub(crate) definition: Definition,
    /// Per-clause training coverage, index-aligned with the definition.
    pub(crate) stats: Vec<ClauseStats>,
    /// Bottom clauses grounded for the run (counting the plan's prepared
    /// ground examples, which every learner reuses).
    pub(crate) bottom_clauses_built: usize,
}

/// Run the learner a strategy selects against its plan. The fault
/// checkpoint makes the whole search a quarantinable site: an injected (or
/// real) panic inside any learner surfaces from [`crate::Engine::learn`] as
/// a typed [`crate::DlearnError::WorkerPanicked`], never a process abort.
pub(crate) fn refine(strategy: Strategy, plan: &StrategyPlan) -> Refined {
    let _ = crate::fault::checkpoint(crate::fault::Site::Learn, strategy.name());
    match strategy {
        Strategy::Foil => foil::learn(plan),
        Strategy::Tilde => tilde::learn(plan),
        _ => covering::learn(plan),
    }
}

/// The covering loop (Algorithm 1) of the clausal learners. While positives
/// stay uncovered and the clause budget lasts: take the first uncovered
/// positive as the seed, build its bottom clause on the loop's RNG, and let
/// `learn_clause(bottom, uncovered, rng)` turn it into a candidate clause
/// with its coverage masks over the training positives and negatives
/// (`uncovered[0]` is the seed). The clause is kept when it has a body,
/// covers at least `min_positive_coverage` positives (capped by the
/// uncovered count) and covers more positives than negatives; the positives
/// it covers are then done. A seed whose bottom clause is empty, whose
/// clause is rejected, or whose accepted clause misses it is dropped, so the
/// loop always ends.
pub(crate) fn cover<F>(plan: &StrategyPlan, mut learn_clause: F) -> Refined
where
    F: FnMut(Clause, &[usize], &mut StdRng) -> (Clause, Vec<bool>, Vec<bool>),
{
    let task = &plan.task;
    let config = &plan.config;
    let builder = BottomClauseBuilder::new(task, &plan.catalog, config);
    let mut bottom_clauses_built = task.positives.len() + task.negatives.len();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut uncovered: Vec<usize> = (0..task.positives.len()).collect();
    let mut definition = Definition::new();
    let mut stats: Vec<ClauseStats> = Vec::new();

    while !uncovered.is_empty() && definition.len() < config.max_clauses {
        let seed = uncovered[0];
        let bottom = builder.build(&task.positives[seed], &mut rng);
        bottom_clauses_built += 1;
        if bottom.body.is_empty() {
            uncovered.remove(0);
            continue;
        }
        let (clause, positive_mask, negative_mask) = learn_clause(bottom, &uncovered, &mut rng);
        let counts = CoverageCounts::of(&positive_mask, &negative_mask);
        if clause.body.is_empty()
            || counts.positives < config.min_positive_coverage.min(uncovered.len())
            || counts.positives <= counts.negatives
        {
            uncovered.remove(0);
            continue;
        }
        uncovered.retain(|&i| !positive_mask[i]);
        if uncovered.first() == Some(&seed) {
            // Defensive: never loop forever on a seed its own clause misses.
            uncovered.remove(0);
        }
        definition.push(clause);
        stats.push(ClauseStats {
            positives_covered: counts.positives,
            negatives_covered: counts.negatives,
        });
    }

    Refined {
        definition,
        stats,
        bottom_clauses_built,
    }
}

/// Score `candidates` in order on the generalization threads. `score`
/// receives each candidate and the coverage threads its masks may use: one
/// when the fan-out runs in parallel, so thread counts do not multiply
/// underneath it (cores², with both knobs defaulting to available cores),
/// else the session's coverage threads. The result is index-aligned with
/// `candidates` and, since masks are identical at any thread count, the same
/// at any thread count.
pub(crate) fn score_each<T, R, F>(config: &LearnerConfig, candidates: &[T], score: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize) -> R + Sync,
{
    let threads = config.effective_generalization_threads();
    let mask_threads = if threads > 1 && candidates.len() >= 2 {
        1
    } else {
        config.effective_threads()
    };
    crate::par::chunked_map(candidates, threads, 2, (), |_, _, candidate| {
        score(candidate, mask_threads)
    })
}

/// Restrict a bottom clause to the selected body literals (by body index),
/// then re-establish head-connectedness. Literals whose connection chain was
/// not selected are dropped again by the cleanup, so the result is always a
/// valid head-connected clause; repair groups follow their literals exactly
/// as in generalization.
pub(crate) fn subclause(bottom: &Clause, keep: &[bool]) -> Clause {
    debug_assert_eq!(keep.len(), bottom.body.len());
    let mut clause = bottom.clone();
    let mut index = 0;
    clause.body.retain(|_| {
        let kept = keep[index];
        index += 1;
        kept
    });
    clause.retain_head_connected();
    clause
}

/// Extract the head-connected *test* rooted at body literal `at`: the literal
/// itself plus a chain of literals linking its variables to the head.
/// Bottom-clause construction walks outward from the head, so a relation
/// literal's chain usually lies among the literals before it, and scanning
/// backwards greedily yields a deterministic, short support set. The `≈`
/// literal of a similarity join, though, is appended after the relation
/// literals it joins; when the backward scan does not reach a head variable,
/// the shortest chain through the whole body that does is added.
/// Returns `None` when no chain reaches the head (the literal would be
/// dropped by head-connectedness cleanup anyway).
pub(crate) fn connected_test(bottom: &Clause, at: usize) -> Option<Clause> {
    let head_vars: BTreeSet<Var> = bottom.head.variables();
    let mut keep = vec![false; bottom.body.len()];
    keep[at] = true;
    let mut frontier: BTreeSet<Var> = bottom.body[at].variables();
    let mut connected = frontier.is_empty() || frontier.iter().any(|v| head_vars.contains(v));
    let mut index = at;
    while !connected && index > 0 {
        index -= 1;
        let vars = bottom.body[index].variables();
        if vars.iter().any(|v| frontier.contains(v)) {
            keep[index] = true;
            frontier.extend(vars);
            connected = frontier.iter().any(|v| head_vars.contains(v));
        }
    }
    if !connected {
        // Breadth-first over the literals the backward scan left out, from
        // the frontier to the first literal holding a head variable; only
        // the chain that reached it is kept, so the test stays short.
        let vars: Vec<BTreeSet<Var>> = bottom.body.iter().map(|l| l.variables()).collect();
        let mut parent: Vec<Option<usize>> = vec![None; vars.len()];
        let mut seen = keep.clone();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, v) in vars.iter().enumerate() {
            if !seen[i] && !v.is_disjoint(&frontier) {
                seen[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            if !vars[i].is_disjoint(&head_vars) {
                let mut at = Some(i);
                while let Some(j) = at {
                    keep[j] = true;
                    at = parent[j];
                }
                connected = true;
                break;
            }
            for j in 0..vars.len() {
                if !seen[j] && !vars[j].is_disjoint(&vars[i]) {
                    seen[j] = true;
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
    }
    if !connected {
        return None;
    }
    let clause = subclause(bottom, &keep);
    if clause.body.is_empty() {
        None
    } else {
        Some(clause)
    }
}

/// Conjoin head-connected tests into one clause under a shared head. Each
/// test keeps the head variables (its existential root) and has every other
/// variable renamed into a fresh range, so tests quantify their own join
/// variables independently — the hypothesis language of a TILDE path.
pub(crate) fn conjoin_tests(tests: &[&Clause]) -> Option<Clause> {
    let first = tests.first()?;
    let head = first.head.clone();
    let head_vars: BTreeSet<Var> = head.variables();
    let mut next = first
        .variables()
        .iter()
        .map(|v| v.0)
        .max()
        .map_or(0, |m| m + 1)
        .max(head_vars.iter().map(|v| v.0 + 1).max().unwrap_or(0));
    let mut out = Clause::new(head);
    for test in tests {
        let mut renaming = dlearn_logic::Substitution::new();
        for v in test.variables() {
            if !head_vars.contains(&v) {
                renaming.bind(v, Term::var(next));
                next += 1;
            }
        }
        let renamed = test.apply(&renaming);
        for literal in renamed.body {
            out.push_unique(literal);
        }
        for group in renamed.repairs {
            out.push_repair(group);
        }
    }
    Some(out)
}

/// Binary entropy (in bits) of a node holding `p` positive and `n` negative
/// examples; 0 for empty or pure nodes.
pub(crate) fn entropy(p: usize, n: usize) -> f64 {
    let total = (p + n) as f64;
    if p == 0 || n == 0 {
        return 0.0;
    }
    let pp = p as f64 / total;
    let pn = n as f64 / total;
    -(pp * pp.log2() + pn * pn.log2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::test_fixtures::two_source_task;
    use dlearn_logic::Literal;

    fn bottom() -> Clause {
        // t(v0) <- a(v0, v1), b(v1, 'x'), c(v2, 'y')   (c is disconnected)
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("a", vec![Term::var(0), Term::var(1)]));
        c.push_unique(Literal::relation(
            "b",
            vec![Term::var(1), Term::constant("x")],
        ));
        c.push_unique(Literal::relation(
            "c",
            vec![Term::var(2), Term::constant("y")],
        ));
        c
    }

    #[test]
    fn subclause_reestablishes_head_connectedness() {
        let b = bottom();
        // Selecting only b(v1, 'x') leaves it disconnected: empty body.
        let c = subclause(&b, &[false, true, false]);
        assert!(c.body.is_empty());
        // Selecting a + b keeps the chain.
        let c = subclause(&b, &[true, true, false]);
        assert_eq!(c.body.len(), 2);
    }

    #[test]
    fn connected_test_pulls_the_backward_chain() {
        let b = bottom();
        let t = connected_test(&b, 1).expect("b is reachable through a");
        assert_eq!(t.body.len(), 2, "{t}");
        assert!(
            connected_test(&b, 2).is_none(),
            "c has no chain to the head"
        );
    }

    #[test]
    fn connected_test_closes_over_a_similarity_literal_after_its_relations() {
        // t(v0) <- a(v0, v1), b(v2, 'x'), d(v2, v3), v1 ≈ v2: the ≈ joining
        // a to b comes after both, so no backward chain links b to the head.
        // The chain kept runs through the ≈; d shares a variable with b but
        // leads nowhere, so it stays out.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("a", vec![Term::var(0), Term::var(1)]));
        c.push_unique(Literal::relation(
            "b",
            vec![Term::var(2), Term::constant("x")],
        ));
        c.push_unique(Literal::relation("d", vec![Term::var(2), Term::var(3)]));
        c.push_unique(Literal::Similar(Term::var(1), Term::var(2)));
        let t = connected_test(&c, 1).expect("b reaches the head through the ≈");
        assert_eq!(t.body.len(), 3, "{t}");
        assert!(t.body.iter().all(|l| l.relation_name() != Some("d")), "{t}");
    }

    #[test]
    fn conjoin_renames_non_head_variables_apart() {
        let b = bottom();
        let t = connected_test(&b, 1).unwrap();
        let joined = conjoin_tests(&[&t, &t]).unwrap();
        // Two copies of the same test quantify their chains independently:
        // same head, disjoint body variable ranges (duplicates deduplicate
        // only if literally identical after renaming — they are not).
        assert_eq!(joined.head, t.head);
        assert_eq!(joined.body.len(), 4, "{joined}");
    }

    #[test]
    fn cover_drops_a_seed_its_accepted_clause_does_not_cover() {
        // The stub's clause covers positives 1 and 2 but not its seed 0. It
        // is kept, and the seed is dropped rather than seeding it again.
        let engine =
            crate::Engine::prepare(two_source_task(), LearnerConfig::fast()).expect("valid task");
        let plan = engine.plan(Strategy::DLearn);
        let negatives = plan.task.negatives.len();
        let mut calls = 0;
        let refined = cover(&plan, |bottom, uncovered, _rng| {
            calls += 1;
            assert_eq!(uncovered, [0, 1, 2]);
            (bottom, vec![false, true, true], vec![false; negatives])
        });
        assert_eq!(calls, 1);
        assert_eq!(refined.definition.len(), 1);
        assert_eq!(
            refined.stats,
            [ClauseStats {
                positives_covered: 2,
                negatives_covered: 0,
            }]
        );
    }

    #[test]
    fn entropy_is_zero_on_pure_nodes_and_one_on_even_splits() {
        assert_eq!(entropy(5, 0), 0.0);
        assert_eq!(entropy(0, 5), 0.0);
        assert!((entropy(4, 4) - 1.0).abs() < 1e-12);
    }
}
