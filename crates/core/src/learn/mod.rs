//! The learner subsystem: strategy *refiners* over prepared
//! [`StrategyPlan`] state.
//!
//! [`crate::Engine::prepare`] front-loads everything expensive — the MD
//! similarity catalog and the ground bottom clauses of the training
//! examples — into a [`StrategyPlan`]. A [`Refiner`] is a hypothesis-search
//! procedure over that shared state: it consumes the plan's
//! [`crate::CoverageEngine`] (the single coverage semantics of Definitions
//! 3.4/3.6, repairs included) and produces a Horn [`Definition`] plus
//! per-clause statistics. Three refiners ship:
//!
//! * [`covering::CoveringRefiner`] — the paper's bottom-up covering loop
//!   (Algorithm 1): build a seed bottom clause, generalize it toward sampled
//!   positives, accept, repeat. Runs for the five paper strategies.
//! * [`foil::FoilRefiner`] — top-down FOIL-style search
//!   ([`crate::Strategy::Foil`]): specialize from the head by *adding*
//!   bottom-clause literals chosen by information gain over coverage counts.
//! * [`tilde::TildeRefiner`] — a TILDE-style first-order decision tree
//!   ([`crate::Strategy::Tilde`]): internal nodes are conjunctive tests
//!   drawn from the bottom clauses, split by gain ratio; positive leaves
//!   become the clauses of the learned definition.
//!
//! Every refiner is deterministic at any thread count: parallel fan-outs go
//! through the order-preserving [`crate::par::chunked_map`], scores are pure
//! functions of coverage counts, and ties break on the earliest candidate in
//! construction order.

pub(crate) mod covering;
pub(crate) mod foil;
pub(crate) mod tilde;

use std::collections::{BTreeSet, VecDeque};

use dlearn_logic::{Clause, Definition, Term, Var};

use crate::config::LearnerConfig;
use crate::engine::{ClauseStats, StrategyPlan};
use crate::learner::Strategy;

/// The outcome of one refinement run over a strategy plan.
pub(crate) struct Refined {
    /// The learned Horn definition.
    pub(crate) definition: Definition,
    /// Per-clause training coverage, index-aligned with the definition.
    pub(crate) stats: Vec<ClauseStats>,
    /// Bottom clauses grounded for the run (counting the plan's prepared
    /// ground examples, which every refiner reuses).
    pub(crate) bottom_clauses_built: usize,
}

/// A hypothesis-search procedure over a prepared strategy plan.
pub(crate) trait Refiner {
    /// Search the plan's hypothesis space and return a definition.
    fn refine(&self, plan: &StrategyPlan) -> Refined;
}

/// Run the refiner a strategy selects against its plan. The fault checkpoint
/// makes the whole search a quarantinable site: an injected (or real) panic
/// inside any refiner surfaces from [`crate::Engine::learn`] as a typed
/// [`crate::DlearnError::WorkerPanicked`], never a process abort.
pub(crate) fn refine(strategy: Strategy, plan: &StrategyPlan) -> Refined {
    let _ = crate::fault::checkpoint(crate::fault::Site::Learn, strategy.name());
    match strategy {
        Strategy::Foil => foil::FoilRefiner.refine(plan),
        Strategy::Tilde => tilde::TildeRefiner.refine(plan),
        _ => covering::CoveringRefiner.refine(plan),
    }
}

/// Coverage threads for the masks scored inside a fan-out of `items`
/// candidates over `threads` workers: one when the fan-out runs in parallel,
/// so the per-mask threads do not multiply underneath it (cores², with both
/// knobs defaulting to available cores), else the session's coverage
/// threads. Masks are identical at any thread count.
pub(crate) fn mask_threads(config: &LearnerConfig, threads: usize, items: usize) -> usize {
    if threads > 1 && items >= 2 {
        1
    } else {
        config.effective_threads()
    }
}

/// The covering-style acceptance criterion shared by the clausal refiners: a
/// clause is kept when it has a non-trivial body, covers enough of the still
/// uncovered positives, and covers more positives than negatives.
pub(crate) fn accept_clause(
    clause: &Clause,
    positives_covered: usize,
    negatives_covered: usize,
    min_positive_coverage: usize,
    uncovered: usize,
) -> bool {
    !clause.body.is_empty()
        && positives_covered >= min_positive_coverage.min(uncovered)
        && positives_covered > negatives_covered
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
    fn entropy_is_zero_on_pure_nodes_and_one_on_even_splits() {
        assert_eq!(entropy(5, 0), 0.0);
        assert_eq!(entropy(0, 5), 0.0);
        assert!((entropy(4, 4) - 1.0).abs() < 1e-12);
    }
}
