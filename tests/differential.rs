//! End-to-end differential test on the movie workload: every coverage
//! decision the learner makes — candidate clause × ground bottom clause,
//! across direct and repaired-clause subsumption — must be identical
//! between the interned engine and the string-keyed reference matcher, and
//! every witness substitution the engine can be asked for must *verify* as
//! a real embedding (the θ-verification contract; see
//! `dlearn_test_support`).
//!
//! Brute-force enumeration is not run here — movie bottom clauses are far
//! beyond its feasible size; the enumeration oracle pins the semantics on
//! the randomized suite in `crates/logic/tests/differential.rs`, while this
//! test pins the two production-shaped implementations against each other
//! on realistic clauses.

use rand::SeedableRng;

use dlearn::core::{
    BottomClauseBuilder, CoverageOutcome, Engine, GroundExample, LearnerConfig, PreparedClause,
    Semantics, Strategy,
};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::logic::{repaired_clauses, witness, Clause, SubsumptionConfig};
use dlearn_constraints::MdCatalog;
use dlearn_similarity::{IndexConfig, SimilarityOperator};
use dlearn_test_support::{string_reference, OracleGround, StringGround};

fn config() -> LearnerConfig {
    LearnerConfig {
        coverage_threads: 1,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

/// Coverage decision through the reference matcher, replicating
/// `PreparedClause::covers` under both semantics over pre-expanded repaired
/// ground clauses; the candidate's repaired clauses are expanded here at the
/// limits it was prepared with.
fn reference_covers(
    prepared: &PreparedClause,
    ground: &Clause,
    repaired_grounds: &[Clause],
    positive_semantics: bool,
) -> bool {
    let direct = StringGround::new(ground);
    if string_reference::subsumes(&prepared.clause, &direct) {
        return true;
    }
    let repaired = repaired_clauses(&prepared.clause, config().expand_limits());
    if repaired.is_empty() {
        return false;
    }
    let repaired_refs: Vec<StringGround> = repaired_grounds.iter().map(StringGround::new).collect();
    let one = |cr: &Clause| {
        repaired_refs
            .iter()
            .any(|gr| string_reference::subsumes(cr, gr))
    };
    if positive_semantics {
        repaired.iter().all(one)
    } else {
        repaired.iter().any(one)
    }
}

/// The shipped coverage decision: `PreparedClause::covers` under the
/// semantics the example set uses.
fn interned_covers(
    prepared: &PreparedClause,
    example: &GroundExample,
    positive_semantics: bool,
    sub: &SubsumptionConfig,
) -> bool {
    let semantics = if positive_semantics {
        Semantics::Positive
    } else {
        Semantics::Negative
    };
    matches!(
        prepared.covers(example, semantics, sub, None),
        CoverageOutcome::Covered { .. }
    )
}

#[test]
fn movie_task_coverage_decisions_match_string_reference() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let task = &dataset.task;
    let config = config();

    // Candidate clauses: the actually learned definition plus the raw bottom
    // clauses of a few positive examples (the clauses the covering loop
    // scores most often).
    let session = Engine::prepare(task.clone(), config.clone()).expect("valid task");
    let model = session.learn(Strategy::DLearn).expect("learn");
    let index_config = IndexConfig {
        top_k: config.km,
        operator: SimilarityOperator::with_threshold(config.similarity_threshold),
        ..IndexConfig::default()
    };
    let catalog = MdCatalog::build(
        &task.mds,
        &dlearn::core::augment_with_target(task),
        &index_config,
    );
    let builder = BottomClauseBuilder::new(task, &catalog, &config);

    let mut candidates: Vec<PreparedClause> = model
        .clauses()
        .iter()
        .map(|c| PreparedClause::prepare(c.clone(), &config))
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for example in task.positives.iter().take(3) {
        let bottom = builder.build(example, &mut rng);
        candidates.push(PreparedClause::prepare(bottom, &config));
    }
    assert!(!candidates.is_empty(), "no candidate clauses to compare");

    // Ground sides: build each example's bottom clause once, index it for
    // the engine and hand the raw clause and its repaired clauses to the
    // reference, so both see the identical inputs.
    let sub = SubsumptionConfig {
        max_steps: usize::MAX,
    };
    let mut compared = 0usize;
    let mut covered = 0usize;
    let mut verified_witnesses = 0usize;
    for (examples, positive_semantics) in [(&task.positives, true), (&task.negatives, false)] {
        for example in examples {
            let ground_clause = builder.build(example, &mut rng);
            let ge = GroundExample::from_clause(example.clone(), &ground_clause, &config);
            let repaired_clauses = repaired_clauses(&ground_clause, config.expand_limits());
            let oracle = OracleGround::new(&ground_clause);
            for prepared in &candidates {
                let new_decision = interned_covers(prepared, &ge, positive_semantics, &sub);
                let old_decision = reference_covers(
                    prepared,
                    &ground_clause,
                    &repaired_clauses,
                    positive_semantics,
                );
                assert_eq!(
                    new_decision, old_decision,
                    "coverage divergence for clause {} on example {}",
                    prepared.clause, ge.example
                );
                // θ-verification on the direct subsumption leg: whenever the
                // engine would return a witness, it must embed C into the
                // ground bottom clause.
                if let Some(theta) = witness(prepared.numbered(), &ge.ground, &sub) {
                    assert!(
                        oracle.verify_witness(&prepared.clause, &theta),
                        "unsound witness for clause {} on example {}",
                        prepared.clause,
                        ge.example
                    );
                    verified_witnesses += 1;
                }
                compared += 1;
                covered += new_decision as usize;
            }
        }
    }
    assert!(compared >= 24, "too few decisions compared: {compared}");
    assert!(covered > 0, "differential is vacuous: nothing was covered");
    assert!(
        covered < compared,
        "differential is vacuous: everything was covered"
    );
    assert!(
        verified_witnesses > 0,
        "θ-verification is vacuous: no direct witness was ever produced"
    );
}
