//! Coverage testing over heterogeneous data (Section 4.3).
//!
//! To decide whether a candidate clause covers an example, DLearn builds the
//! *ground bottom clause* of the example and tests θ-subsumption against it.
//! For clauses with repair literals, positive coverage follows Definition
//! 3.4 (every repaired clause of the candidate must cover the example in
//! some repair of its ground clause) and negative coverage follows
//! Definition 3.6 (some repaired clause covers it). A direct subsumption test
//! treating repair literals as ordinary literals (Theorem 4.6) is used as a
//! fast sufficient check before falling back to the repaired-clause
//! cross-product.
//!
//! [`PreparedClause::covers`] is the one place this question is answered:
//! training masks, [`crate::Predictor`] and [`crate::PredictorService`] all
//! call it, choosing the definition through [`Semantics`].
//!
//! The training set's ground examples are built in one place too: one
//! fan-out on the coverage threads grounds each example with its own seed.
//! [`CoverageEngine::build`] runs it with nothing stored; a delta runs it
//! with the pre-delta engine, which shares every example the delta cannot
//! have changed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{
    repaired_clauses, subsumes, CancelToken, Clause, Decision, GroundClause, NumberedClause,
    SubsumptionConfig,
};
use dlearn_relstore::Tuple;

use crate::bottom::{BottomClauseBuilder, ProbeLog};
use crate::config::LearnerConfig;
use crate::task::LearningTask;

/// Seed salts of the training examples: example `idx` of a side is grounded
/// with the seed `config.seed ^ salt ^ idx`.
const POSITIVE_SALT: u64 = 0x9e37;
const NEGATIVE_SALT: u64 = 0x7f4a;

/// A training example together with its ground bottom clause and the ground
/// clause's repaired versions (built once, reused for every coverage test).
#[derive(Debug)]
pub struct GroundExample {
    /// The example tuple.
    pub example: Tuple,
    /// Indexed ground bottom clause.
    pub ground: GroundClause,
    /// Indexed repaired versions of the ground bottom clause.
    pub repaired: Vec<GroundClause>,
    /// The probes grounding executed — consulted by delta maintenance to
    /// decide whether this ground clause must be rebuilt after a database
    /// change (empty for clauses wrapped via [`GroundExample::from_clause`]).
    pub probes: ProbeLog,
}

impl GroundExample {
    /// Build the ground example for a tuple.
    pub fn build(
        builder: &BottomClauseBuilder<'_>,
        example: &Tuple,
        config: &LearnerConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (clause, probes) = builder.build_probed(example, &mut rng);
        let mut ground = GroundExample::from_clause(example.clone(), &clause, config);
        ground.probes = probes;
        ground
    }

    /// Wrap an already-built ground bottom clause.
    pub fn from_clause(example: Tuple, clause: &Clause, config: &LearnerConfig) -> Self {
        let repaired = repaired_clauses(clause, config.expand_limits())
            .iter()
            .map(GroundClause::new)
            .collect();
        GroundExample {
            example,
            ground: GroundClause::new(clause),
            repaired,
            probes: ProbeLog::default(),
        }
    }
}

/// A candidate clause prepared for repeated coverage testing: its repaired
/// clauses are expanded once, and the clause-local variable numbering of the
/// clause and of every repaired clause is assigned once, so each subsumption
/// test runs on flat substitutions with no per-test renumbering.
#[derive(Debug, Clone)]
pub struct PreparedClause {
    /// The candidate clause (with repair groups).
    pub clause: Clause,
    /// The clause, renumbered to a dense variable range.
    numbered: NumberedClause,
    /// Its repaired clauses, renumbered.
    numbered_repaired: Vec<NumberedClause>,
}

impl PreparedClause {
    /// Expand the candidate's repaired clauses and assign variable
    /// numberings.
    pub fn prepare(clause: Clause, config: &LearnerConfig) -> Self {
        let numbered = NumberedClause::new(&clause);
        let numbered_repaired = repaired_clauses(&clause, config.expand_limits())
            .iter()
            .map(NumberedClause::new)
            .collect();
        PreparedClause {
            clause,
            numbered,
            numbered_repaired,
        }
    }

    /// The renumbered candidate clause.
    pub fn numbered(&self) -> &NumberedClause {
        &self.numbered
    }

    /// Does this clause cover `example` under `semantics`? The clause covers
    /// it when it θ-subsumes the ground clause directly; otherwise every
    /// ([`Semantics::Positive`]) or some ([`Semantics::Negative`]) repaired
    /// clause must subsume some repaired version of the ground clause.
    ///
    /// `cancel` is polled inside each search. A budget-exhausted search acts
    /// as "no" and is counted in the outcome; a fired token ends the test as
    /// [`CoverageOutcome::Cancelled`].
    pub fn covers(
        &self,
        example: &GroundExample,
        semantics: Semantics,
        config: &SubsumptionConfig,
        cancel: Option<&CancelToken>,
    ) -> CoverageOutcome {
        let mut exhausted: u32 = 0;
        match self.decide(example, semantics, config, cancel, &mut exhausted) {
            Some(true) => CoverageOutcome::Covered {
                exhausted_searches: exhausted,
            },
            Some(false) => CoverageOutcome::NotCovered {
                exhausted_searches: exhausted,
            },
            None => CoverageOutcome::Cancelled,
        }
    }

    /// The verdict of [`PreparedClause::covers`]; `None` when cancelled.
    fn decide(
        &self,
        example: &GroundExample,
        semantics: Semantics,
        config: &SubsumptionConfig,
        cancel: Option<&CancelToken>,
        exhausted: &mut u32,
    ) -> Option<bool> {
        let mut test = |c: &NumberedClause, d: &GroundClause| match subsumes(c, d, config, cancel) {
            Decision::Yes => Some(true),
            Decision::No => Some(false),
            Decision::BudgetExhausted => {
                *exhausted += 1;
                Some(false)
            }
            Decision::Cancelled => None,
        };
        if test(&self.numbered, &example.ground)? {
            return Some(true);
        }
        if self.numbered_repaired.is_empty() {
            return Some(false);
        }
        // Definition 3.4 needs every repaired clause, 3.6 needs one: stop at
        // the first repaired clause whose answer settles the verdict.
        let every = semantics == Semantics::Positive;
        for cr in &self.numbered_repaired {
            let mut hit = false;
            for gr in &example.repaired {
                if test(cr, gr)? {
                    hit = true;
                    break;
                }
            }
            if hit != every {
                return Some(hit);
            }
        }
        Some(every)
    }
}

/// Which coverage definition a test applies to a clause with repair
/// literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Definition 3.4, for positive examples and for prediction: every
    /// repaired clause covers the example in some repair.
    Positive,
    /// Definition 3.6, for negative examples: some repaired clause covers
    /// the example in some repair.
    Negative,
}

/// Outcome of a coverage test: the verdict plus how many of the underlying
/// subsumption searches ran out of step budget (a budget-exhausted search
/// acts as "no" for the verdict, but is counted so degraded answers are
/// observable), or `Cancelled` when the cancel token fired mid-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageOutcome {
    /// The clause covers the example.
    Covered {
        /// Subsumption searches that hit the step budget during this test.
        exhausted_searches: u32,
    },
    /// The clause does not cover the example.
    NotCovered {
        /// Subsumption searches that hit the step budget during this test.
        exhausted_searches: u32,
    },
    /// The cancel token fired before the test concluded.
    Cancelled,
}

impl CoverageOutcome {
    /// The coverage verdict; `None` when the test was cancelled.
    pub fn verdict(self) -> Option<bool> {
        match self {
            CoverageOutcome::Covered { .. } => Some(true),
            CoverageOutcome::NotCovered { .. } => Some(false),
            CoverageOutcome::Cancelled => None,
        }
    }
}

/// Coverage statistics of a clause over a set of examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageCounts {
    /// Covered positive examples.
    pub positives: usize,
    /// Covered negative examples.
    pub negatives: usize,
}

impl CoverageCounts {
    /// The counts of a pair of coverage masks (see [`CoverageEngine::masks`]).
    pub fn of(positives: &[bool], negatives: &[bool]) -> CoverageCounts {
        CoverageCounts {
            positives: positives.iter().filter(|&&b| b).count(),
            negatives: negatives.iter().filter(|&&b| b).count(),
        }
    }

    /// The clause score used by the covering loop: positives minus negatives.
    pub fn score(&self) -> i64 {
        self.positives as i64 - self.negatives as i64
    }
}

/// How many ground examples a delta re-grounded versus shared with the
/// pre-delta engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundPatchStats {
    /// Positive examples whose grounding was rebuilt.
    pub positives_reground: usize,
    /// Positive examples whose stored grounding was shared unchanged.
    pub positives_reused: usize,
    /// Negative examples whose grounding was rebuilt.
    pub negatives_reground: usize,
    /// Negative examples whose stored grounding was shared unchanged.
    pub negatives_reused: usize,
}

/// The coverage engine: precomputed ground examples for the whole training
/// set plus the subsumption-based coverage tests.
pub struct CoverageEngine {
    positives: Vec<Arc<GroundExample>>,
    negatives: Vec<Arc<GroundExample>>,
    config: LearnerConfig,
}

impl CoverageEngine {
    /// Build ground bottom clauses for every training example of the task:
    /// the one grounding fan-out, with nothing stored to share.
    pub fn build(
        task: &LearningTask,
        builder: &BottomClauseBuilder<'_>,
        config: &LearnerConfig,
    ) -> Self {
        let nothing = CoverageEngine {
            positives: Vec::new(),
            negatives: Vec::new(),
            config: config.clone(),
        };
        nothing.rebuilt_where(task, builder, |_| true).0
    }

    /// Ground the training examples of `task` on the coverage threads.
    /// Example `idx` of a side shares this engine's ground example at `idx`
    /// unless `affected` selects it; every other example is grounded with
    /// the seed `config.seed ^ salt ^ idx` a from-scratch build uses, so the
    /// result is bit-identical to [`CoverageEngine::build`] over `task`. The
    /// builder must be bound to `task` and its catalog.
    pub(crate) fn rebuilt_where<F>(
        &self,
        task: &LearningTask,
        builder: &BottomClauseBuilder<'_>,
        affected: F,
    ) -> (CoverageEngine, GroundPatchStats)
    where
        F: Fn(&GroundExample) -> bool + Sync,
    {
        let config = &self.config;
        let side = |examples: &[Tuple], stored: &[Arc<GroundExample>], salt: u64| {
            let grounded: Vec<Arc<GroundExample>> = crate::par::chunked_map(
                examples,
                config.effective_threads(),
                8,
                (),
                |_, idx, e| match stored.get(idx) {
                    Some(g) if !affected(g) => Arc::clone(g),
                    _ => Arc::new(GroundExample::build(
                        builder,
                        e,
                        config,
                        config.seed ^ salt ^ idx as u64,
                    )),
                },
            );
            let pairs = grounded.iter().zip(stored);
            let reused = pairs.filter(|(g, s)| Arc::ptr_eq(g, s)).count();
            (grounded, reused)
        };
        let (positives, positives_reused) = side(&task.positives, &self.positives, POSITIVE_SALT);
        let (negatives, negatives_reused) = side(&task.negatives, &self.negatives, NEGATIVE_SALT);
        let stats = GroundPatchStats {
            positives_reground: positives.len() - positives_reused,
            positives_reused,
            negatives_reground: negatives.len() - negatives_reused,
            negatives_reused,
        };
        let engine = CoverageEngine {
            positives,
            negatives,
            config: config.clone(),
        };
        (engine, stats)
    }

    /// Ground examples of the positive training set.
    pub fn positives(&self) -> &[Arc<GroundExample>] {
        &self.positives
    }

    /// Ground examples of the negative training set.
    pub fn negatives(&self) -> &[Arc<GroundExample>] {
        &self.negatives
    }

    /// The ground example of the `i`-th positive training example.
    pub fn positive(&self, index: usize) -> &GroundExample {
        &self.positives[index]
    }

    /// Coverage masks over the positive (Definition 3.4) and negative
    /// (Definition 3.6) training examples, index-aligned with them, computed
    /// on up to `threads` workers. Callers that are themselves a parallel
    /// fan-out pass 1, so thread counts do not multiply underneath it; the
    /// masks are identical at any thread count.
    pub fn masks(&self, prepared: &PreparedClause, threads: usize) -> (Vec<bool>, Vec<bool>) {
        let mask = |examples: &[Arc<GroundExample>], semantics: Semantics| {
            crate::par::chunked_map(examples, threads, 8, (), |_, _, e| {
                matches!(
                    prepared.covers(e, semantics, &self.config.subsumption, None),
                    CoverageOutcome::Covered { .. }
                )
            })
        };
        (
            mask(&self.positives, Semantics::Positive),
            mask(&self.negatives, Semantics::Negative),
        )
    }

    /// Count coverage over both example sets, on the configured coverage
    /// threads.
    pub fn counts(&self, prepared: &PreparedClause) -> CoverageCounts {
        let (positives, negatives) = self.masks(prepared, self.config.effective_threads());
        CoverageCounts::of(&positives, &negatives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_logic::{CondAtom, Literal, RepairGroup, RepairOrigin, Term, Var};

    fn config() -> LearnerConfig {
        LearnerConfig {
            coverage_threads: 1,
            ..LearnerConfig::fast()
        }
    }

    fn ground_from(clause: &Clause) -> Arc<GroundExample> {
        Arc::new(GroundExample::from_clause(
            dlearn_relstore::tuple(vec![dlearn_relstore::Value::str("e")]),
            clause,
            &config(),
        ))
    }

    fn ge_comedy() -> Arc<GroundExample> {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        d.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        ground_from(&d)
    }

    fn ge_drama() -> Arc<GroundExample> {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        d.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("drama")],
        ));
        ground_from(&d)
    }

    fn comedy_clause() -> PreparedClause {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(0)],
        ));
        c.push_unique(Literal::relation(
            "genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        PreparedClause::prepare(c, &config())
    }

    #[test]
    fn direct_subsumption_covers() {
        let engine = CoverageEngine {
            positives: vec![ge_comedy()],
            negatives: vec![ge_drama()],
            config: config(),
        };
        let prepared = comedy_clause();
        let sub = config().subsumption;
        assert_eq!(
            prepared
                .covers(&engine.positives[0], Semantics::Positive, &sub, None)
                .verdict(),
            Some(true)
        );
        assert_eq!(
            prepared
                .covers(&engine.negatives[0], Semantics::Negative, &sub, None)
                .verdict(),
            Some(false)
        );
        let counts = engine.counts(&prepared);
        assert_eq!(
            counts,
            CoverageCounts {
                positives: 1,
                negatives: 0
            }
        );
        assert_eq!(counts.score(), 1);
    }

    #[test]
    fn masks_align_with_example_order() {
        let engine = CoverageEngine {
            positives: vec![ge_comedy(), ge_drama()],
            negatives: vec![],
            config: config(),
        };
        let (mask, _) = engine.masks(&comedy_clause(), 1);
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn partial_repaired_coverage_separates_definitions_3_4_and_3_6() {
        // Paper Example 3.3: t(x) ← r(y), x ≈ y, s(z), x ≈ z with one MD
        // repair unifying x with y and another unifying x with z. Its two
        // repaired clauses are t(v) ← r(v) and t(u) ← s(u).
        let (x, y, z, vx, ux) = (
            Term::var(0),
            Term::var(1),
            Term::var(2),
            Term::var(3),
            Term::var(4),
        );
        let mut c = Clause::new(Literal::relation("t", vec![x]));
        c.push_unique(Literal::relation("r", vec![y]));
        c.push_unique(Literal::Similar(x, y));
        c.push_unique(Literal::relation("s", vec![z]));
        c.push_unique(Literal::Similar(x, z));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(x, y)],
            vec![(Var(0), vx), (Var(1), vx)],
            vec![Literal::Similar(x, y)],
        ));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(1),
            vec![CondAtom::Sim(x, z)],
            vec![(Var(0), ux), (Var(2), ux)],
            vec![Literal::Similar(x, z)],
        ));
        let prepared = PreparedClause::prepare(c, &config());
        assert_eq!(prepared.numbered_repaired.len(), 2);

        // The example has an r-fact but no s-fact: the direct test fails (no
        // s literal), and only the first repaired clause covers it.
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation("r", vec![Term::var(0)]));
        let example = ground_from(&d);
        let sub = config().subsumption;
        assert_eq!(
            prepared.covers(&example, Semantics::Negative, &sub, None),
            CoverageOutcome::Covered {
                exhausted_searches: 0
            },
            "Definition 3.6: some repaired clause covers the example"
        );
        assert_eq!(
            prepared.covers(&example, Semantics::Positive, &sub, None),
            CoverageOutcome::NotCovered {
                exhausted_searches: 0
            },
            "Definition 3.4: every repaired clause must cover the example"
        );
    }

    #[test]
    fn prepared_clause_without_repairs_has_single_expansion() {
        let prepared = comedy_clause();
        assert_eq!(prepared.numbered_repaired.len(), 1);
    }
}
