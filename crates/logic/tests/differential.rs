//! Differential tests of the θ-subsumption engine against two independent
//! references, under the soundness/decision contract that replaced the old
//! decision-parity pin:
//!
//! * **Soundness** — any witness substitution the production matcher
//!   returns must *verify*: applying it to `C` really lands inside `D`
//!   (head, relation literals, constraints and repair replacements), as
//!   checked by `dlearn_test_support::OracleGround::verify_witness`.
//! * **Decision agreement** — the boolean decision must agree with both the
//!   string-keyed reference matcher (`dlearn_test_support::string_reference`)
//!   and the brute-force enumeration oracle
//!   (`dlearn_test_support::OracleGround::enumerate`), on ≥ 500 seeded
//!   random cases.
//! * **Ordering invariance** — adaptive and static literal ordering, and
//!   the renumber-per-call vs prepared-numbering entry points, must all
//!   decide identically (which witness is found first may differ; each must
//!   verify).
//!
//! The generated candidates are *oracle-safe* (see
//! `dlearn_test_support::gen`): every constraint/repair variable occurs in
//! the head or a relation literal, the shape bottom-clause construction
//! emits. This is what makes the greedy constraint phase complete, so the
//! three matchers are deciding the same ∃-question.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{
    subsumes, witness, Clause, GroundClause, Literal, NumberedClause, SubsumptionConfig, Term, Var,
};
use dlearn_test_support::{
    backtracking_heavy_pair, derived_candidate, random_candidate, random_ground, string_reference,
    GenConfig, OracleGround, StringGround,
};

fn unbounded() -> SubsumptionConfig {
    SubsumptionConfig {
        // The references have no budget; give the production matcher one it
        // cannot hit at these clause sizes.
        max_steps: usize::MAX,
        ..SubsumptionConfig::default()
    }
}

fn static_order() -> SubsumptionConfig {
    SubsumptionConfig {
        adaptive_ordering: false,
        ..unbounded()
    }
}

/// The main contract: 600 seeded random cases (≥ 500 required), half
/// derived from `D` (positive-leaning), half independent (negative-leaning).
#[test]
fn decisions_agree_with_both_references_and_witnesses_verify() {
    let cfg = GenConfig::default();
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let mut positives = 0usize;
    for case in 0..600 {
        let d = random_ground(&mut rng, &cfg);
        let c = if case % 2 == 0 {
            derived_candidate(&mut rng, &d, &cfg)
        } else {
            random_candidate(&mut rng, &cfg)
        };
        let ground = GroundClause::new(&d);
        let oracle = OracleGround::new(&d);
        let string_ground = StringGround::new(&d);

        let numbered = NumberedClause::new(&c);
        let found = witness(&numbered, &ground, &unbounded());
        let decision = found.is_some();

        // Soundness: the returned θ embeds C into D.
        if let Some(theta) = &found {
            assert!(
                oracle.verify_witness(&c, theta),
                "unsound witness on case {case}:\n  C = {c}\n  D = {d}\n  θ does not embed"
            );
        }

        // Decision agreement with the string-keyed reference.
        assert_eq!(
            decision,
            string_reference::subsumes(&c, &string_ground),
            "string-reference divergence on case {case}:\n  C = {c}\n  D = {d}"
        );

        // Decision agreement with the enumeration oracle, and the oracle's
        // own assignment must verify (self-consistency).
        let enumerated = oracle.enumerate(&c);
        assert_eq!(
            decision,
            enumerated.is_some(),
            "oracle divergence on case {case}:\n  C = {c}\n  D = {d}"
        );
        if let Some(sigma) = &enumerated {
            assert!(oracle.verify_witness(&c, sigma));
        }

        // Ordering invariance: static ordering and the decision view decide
        // identically, and their witnesses verify.
        assert_eq!(
            subsumes(&numbered, &ground, &unbounded(), None).is_yes(),
            decision,
            "numbered decision diverged on case {case}:\n  C = {c}\n  D = {d}"
        );
        if let Some(theta) = witness(&numbered, &ground, &unbounded()) {
            assert!(
                oracle.verify_witness(&c, &theta),
                "unsound numbered witness on case {case}:\n  C = {c}\n  D = {d}"
            );
        }
        let static_witness = witness(&numbered, &ground, &static_order());
        assert_eq!(
            static_witness.is_some(),
            decision,
            "static-ordering divergence on case {case}:\n  C = {c}\n  D = {d}"
        );
        if let Some(theta) = &static_witness {
            assert!(oracle.verify_witness(&c, theta));
        }

        positives += decision as usize;
    }
    // The generator must exercise both outcomes or the suite is vacuous.
    assert!(positives > 75, "too few positive cases: {positives}");
    assert!(
        positives < 525,
        "too few negative cases: {}",
        600 - positives
    );
}

/// The adversarial bench workload is a *hard negative*: every matcher must
/// reject it, however its literals are ordered.
#[test]
fn backtracking_heavy_pair_is_rejected_by_everyone() {
    let (c, d) = backtracking_heavy_pair();
    let ground = GroundClause::new(&d);
    let numbered = NumberedClause::new(&c);
    assert!(witness(&numbered, &ground, &unbounded()).is_none());
    assert!(witness(&numbered, &ground, &static_order()).is_none());
    assert!(!string_reference::subsumes(&c, &StringGround::new(&d)));
    assert!(OracleGround::new(&d).enumerate(&c).is_none());
}

/// Budget exhaustion must report "does not subsume" (never panic), at every
/// budget size, and a positive answer under a small budget must be sound —
/// it agrees with the unbounded decision and its witness verifies.
#[test]
fn budget_exhaustion_is_a_clean_no() {
    let cfg = GenConfig::default();
    let mut rng = StdRng::seed_from_u64(0xb4d9);
    for _ in 0..50 {
        let d = random_ground(&mut rng, &cfg);
        let c = derived_candidate(&mut rng, &d, &cfg);
        let ground = GroundClause::new(&d);
        let oracle = OracleGround::new(&d);
        let numbered = NumberedClause::new(&c);
        let full = witness(&numbered, &ground, &unbounded()).is_some();
        for budget in [0usize, 1, 2, 5, 20] {
            let tiny = SubsumptionConfig {
                max_steps: budget,
                ..SubsumptionConfig::default()
            };
            if let Some(theta) = witness(&numbered, &ground, &tiny) {
                // A budgeted yes must be a real yes; a budgeted no is allowed.
                assert!(full, "budget {budget} invented a subsumption");
                assert!(oracle.verify_witness(&c, &theta));
            }
        }
    }
}

/// `Var(u32::MAX)` is used as a sentinel by the pair checker; make sure the
/// trail/unwind machinery copes with adversarial variable indices near it.
#[test]
fn extreme_variable_indices_do_not_break_matching() {
    let mut c = Clause::new(Literal::relation("t", vec![Term::var(u32::MAX - 1)]));
    c.push_unique(Literal::relation("r0", vec![Term::var(u32::MAX - 1)]));
    let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
    d.push_unique(Literal::relation("r0", vec![Term::var(0)]));
    let ground = GroundClause::new(&d);
    assert!(witness(
        &NumberedClause::new(&c),
        &ground,
        &SubsumptionConfig::default()
    )
    .is_some());
    let _ = Var(u32::MAX); // the sentinel itself stays constructible
}
