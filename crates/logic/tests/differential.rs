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
//! * **View agreement** — the decision view ([`subsumes`]) and the witness
//!   view ([`witness`]) of one prepared numbering decide identically, and
//!   every witness verifies.
//!
//! The generated candidates are *oracle-safe* (see
//! `dlearn_test_support::gen`): every constraint/repair variable occurs in
//! the head or a relation literal, the shape bottom-clause construction
//! emits. This is what makes the greedy constraint phase complete, so the
//! three matchers are deciding the same ∃-question.
//!
//! The seeded suites run over two generator configurations: the default
//! one, and a constraint-heavy one (more `≈`/`=`/`≠` literals and repair
//! groups, longer bodies) that exercises the forward checks of the
//! relation search. Hand-built regression pairs pin that the forward
//! checks settle, within a small budget, searches that enumerating every
//! relation mapping would exhaust, and that searching the independent parts
//! of a clause one at a time settles, within the same budget, a search that
//! interleaving the parts would exhaust. One more pins that a mapping the
//! final phase rejects leaves none of that phase's bindings behind, and
//! another that the repair phase backtracks into an earlier repair group
//! when a later one finds no fact. The generators never emit those shapes:
//! their constraint and repair variables all occur in the head or a
//! relation literal, so the final phase never has to bind one.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_logic::{
    subsumes, witness, Clause, Decision, GroundClause, Literal, NumberedClause, RepairGroup,
    RepairOrigin, SubsumptionConfig, Term, Var,
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
    }
}

/// The generator configurations every seeded suite runs over, by name: the
/// default one, and a constraint-heavy one whose candidates carry many
/// `≈`/`=`/`≠` literals and repair groups.
fn gen_configs() -> [(&'static str, GenConfig); 2] {
    [
        ("default", GenConfig::default()),
        (
            "constraint-heavy",
            GenConfig {
                max_similar: 6,
                max_equal: 4,
                max_repairs: 4,
                p_keep_literal: 0.8,
                p_keep_repair: 0.8,
                p_not_equal: 0.6,
                max_body: 12,
                ..GenConfig::default()
            },
        ),
    ]
}

/// The main contract: 600 seeded random cases (≥ 500 required) per
/// generator configuration, half derived from `D` (positive-leaning), half
/// independent (negative-leaning).
#[test]
fn decisions_agree_with_both_references_and_witnesses_verify() {
    for (name, cfg) in gen_configs() {
        decisions_agree_on(name, &cfg);
    }
}

fn decisions_agree_on(name: &str, cfg: &GenConfig) {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let mut positives = 0usize;
    for case in 0..600 {
        let d = random_ground(&mut rng, cfg);
        let c = if case % 2 == 0 {
            derived_candidate(&mut rng, &d, cfg)
        } else {
            random_candidate(&mut rng, cfg)
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
                "unsound witness on {name} case {case}:\n  C = {c}\n  D = {d}\n  θ does not embed"
            );
        }

        // Decision agreement with the string-keyed reference.
        assert_eq!(
            decision,
            string_reference::subsumes(&c, &string_ground),
            "string-reference divergence on {name} case {case}:\n  C = {c}\n  D = {d}"
        );

        // Decision agreement with the enumeration oracle, and the oracle's
        // own assignment must verify (self-consistency).
        let enumerated = oracle.enumerate(&c);
        assert_eq!(
            decision,
            enumerated.is_some(),
            "oracle divergence on {name} case {case}:\n  C = {c}\n  D = {d}"
        );
        if let Some(sigma) = &enumerated {
            assert!(oracle.verify_witness(&c, sigma));
        }

        // View agreement: the decision view decides as the witness view.
        assert_eq!(
            subsumes(&numbered, &ground, &unbounded(), None).is_yes(),
            decision,
            "numbered decision diverged on {name} case {case}:\n  C = {c}\n  D = {d}"
        );

        positives += decision as usize;
    }
    // The generator must exercise both outcomes or the suite is vacuous.
    assert!(
        positives > 75,
        "{name}: too few positive cases: {positives}"
    );
    assert!(
        positives < 525,
        "{name}: too few negative cases: {}",
        600 - positives
    );
}

/// The adversarial bench workload is a *hard negative*: every matcher must
/// reject it.
#[test]
fn backtracking_heavy_pair_is_rejected_by_everyone() {
    let (c, d) = backtracking_heavy_pair();
    let ground = GroundClause::new(&d);
    let numbered = NumberedClause::new(&c);
    assert!(witness(&numbered, &ground, &unbounded()).is_none());
    assert!(!string_reference::subsumes(&c, &StringGround::new(&d)));
    assert!(OracleGround::new(&d).enumerate(&c).is_none());
}

/// Budget exhaustion must report "does not subsume" (never panic), at every
/// budget size, and a positive answer under a small budget must be sound —
/// it agrees with the unbounded decision and its witness verifies. Runs
/// over every generator configuration.
#[test]
fn budget_exhaustion_is_a_clean_no() {
    for (_, cfg) in gen_configs() {
        budget_exhaustion_is_a_clean_no_on(&cfg);
    }
}

fn budget_exhaustion_is_a_clean_no_on(cfg: &GenConfig) {
    let mut rng = StdRng::seed_from_u64(0xb4d9);
    for _ in 0..50 {
        let d = random_ground(&mut rng, cfg);
        let c = derived_candidate(&mut rng, &d, cfg);
        let ground = GroundClause::new(&d);
        let oracle = OracleGround::new(&d);
        let numbered = NumberedClause::new(&c);
        let full = witness(&numbered, &ground, &unbounded()).is_some();
        for budget in [0usize, 1, 2, 5, 20] {
            let tiny = SubsumptionConfig { max_steps: budget };
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

/// A budget the regression pairs below are settled within, and that
/// enumerating every relation mapping exhausts: each match of `a(x, y)`
/// opens 5⁵ mappings of the five `b` literals.
const SMALL_BUDGET: usize = 1000;

/// `C = t(x) ← a(x, y), b(z1), …, b(z5)`, plus `y ≈ x` when `similar`.
fn chain_candidate(similar: bool) -> Clause {
    let mut c = Clause::new(Literal::relation("t", vec![Term::var(100)]));
    c.push_unique(Literal::relation("a", vec![Term::var(100), Term::var(101)]));
    for z in 1..=5 {
        c.push_unique(Literal::relation("b", vec![Term::var(110 + z)]));
    }
    if similar {
        c.push_unique(Literal::Similar(Term::var(101), Term::var(100)));
    }
    c
}

/// `D = t(c0) ← a(c0, v1), b(e0), …, b(e4)`, plus `a(c0, v2)` when
/// `second_match`.
fn chain_ground(second_match: bool) -> Clause {
    let c0 = Term::constant("c0");
    let mut d = Clause::new(Literal::relation("t", vec![c0]));
    d.push_unique(Literal::relation("a", vec![c0, Term::var(1)]));
    if second_match {
        d.push_unique(Literal::relation("a", vec![c0, Term::var(2)]));
    }
    for e in 0..5 {
        d.push_unique(Literal::relation(
            "b",
            vec![Term::constant(format!("e{e}"))],
        ));
    }
    d
}

/// `c` against `d` decides `expected` within [`SMALL_BUDGET`], as the
/// unbounded search does and with the same witness; the enumeration oracle
/// agrees and the witness verifies.
fn assert_settled_within_small_budget(c: &Clause, d: &Clause, expected: Decision) {
    let ground = GroundClause::new(d);
    let numbered = NumberedClause::new(c);
    let oracle = OracleGround::new(d);
    assert_eq!(
        oracle.enumerate(c).is_some(),
        expected == Decision::Yes,
        "oracle disagrees:\n  C = {c}\n  D = {d}"
    );
    let small = SubsumptionConfig {
        max_steps: SMALL_BUDGET,
    };
    assert_eq!(subsumes(&numbered, &ground, &unbounded(), None), expected);
    assert_eq!(
        subsumes(&numbered, &ground, &small, None),
        expected,
        "not settled within {SMALL_BUDGET} steps:\n  C = {c}\n  D = {d}"
    );
    let found = witness(&numbered, &ground, &small);
    assert_eq!(found, witness(&numbered, &ground, &unbounded()));
    if let Some(theta) = &found {
        assert!(oracle.verify_witness(c, theta));
    }
}

/// `y ≈ x` fails as soon as `a(x, y)` binds `y`: without forward checks
/// the search would try all 5⁵ mappings of the `b` literals first.
#[test]
fn similarity_literal_prunes_before_the_remaining_relation_literals() {
    let c = chain_candidate(true);
    assert_settled_within_small_budget(&c, &chain_ground(false), Decision::No);

    // With a second `a` match that is similar to c0, the first match fails
    // its check at once and the second one leads to the witness.
    let mut d = chain_ground(true);
    d.push_unique(Literal::Similar(Term::constant("c0"), Term::var(2)));
    assert_settled_within_small_budget(&c, &d, Decision::Yes);
}

/// A repair replacement `(y, w)` needs a repair fact of its origin for θy
/// as soon as `a(x, y)` binds `y`.
#[test]
fn repair_replacement_prunes_before_the_remaining_relation_literals() {
    let mut c = chain_candidate(false);
    c.push_repair(RepairGroup::new(
        RepairOrigin::Md(0),
        vec![],
        vec![(Var(101), Term::var(102))],
        vec![],
    ));
    // D has a fact for v1, but of another origin, and an md0 fact for v2,
    // which only the second `a` match binds.
    let facts = |d: &mut Clause| {
        for (origin, x) in [(RepairOrigin::Md(1), 1), (RepairOrigin::Md(0), 2)] {
            d.push_repair(RepairGroup::new(
                origin,
                vec![],
                vec![(Var(x), Term::var(9))],
                vec![],
            ));
        }
    };
    let mut d = chain_ground(false);
    facts(&mut d);
    assert_settled_within_small_budget(&c, &d, Decision::No);

    let mut d = chain_ground(true);
    facts(&mut d);
    assert_settled_within_small_budget(&c, &d, Decision::Yes);
}

/// `C = t(x) ← a(x, y), c(y, w), d(w), b(z1), …, b(z5)`. Once the head binds
/// `x`, the chain through `y` and `w` and each `b(zi)` are six parts that
/// share no variable.
fn parts_candidate() -> Clause {
    let mut c = Clause::new(Literal::relation("t", vec![Term::var(100)]));
    c.push_unique(Literal::relation("a", vec![Term::var(100), Term::var(101)]));
    c.push_unique(Literal::relation("c", vec![Term::var(101), Term::var(102)]));
    c.push_unique(Literal::relation("d", vec![Term::var(102)]));
    for z in 1..=5 {
        c.push_unique(Literal::relation("b", vec![Term::var(110 + z)]));
    }
    c
}

/// `D = t(c0) ← a(c0, v1), a(c0, v2), c(v1, w1), …, c(v1, w6), d(w7), …,
/// d(w12), b(e0), …, b(e4)`, plus `c(v2, w7)` when `joined`.
fn parts_ground(joined: bool) -> Clause {
    let c0 = Term::constant("c0");
    let mut d = Clause::new(Literal::relation("t", vec![c0]));
    d.push_unique(Literal::relation("a", vec![c0, Term::var(1)]));
    d.push_unique(Literal::relation("a", vec![c0, Term::var(2)]));
    for w in 1..=6 {
        d.push_unique(Literal::relation(
            "c",
            vec![Term::var(1), Term::var(10 + w)],
        ));
    }
    for w in 7..=12 {
        d.push_unique(Literal::relation("d", vec![Term::var(10 + w)]));
    }
    if joined {
        d.push_unique(Literal::relation("c", vec![Term::var(2), Term::var(17)]));
    }
    for e in 0..5 {
        d.push_unique(Literal::relation(
            "b",
            vec![Term::constant(format!("e{e}"))],
        ));
    }
    d
}

/// The chain part has no mapping unless `c(v2, w7)` joins it, and finding
/// that out takes a handful of steps when the part is searched on its own.
/// Interleaved with the `b` parts, which have fewer candidates, the search
/// would re-prove the chain's failure under each of their 5⁵ mappings.
#[test]
fn independent_parts_are_searched_one_at_a_time() {
    let c = parts_candidate();
    assert_settled_within_small_budget(&c, &parts_ground(false), Decision::No);
    assert_settled_within_small_budget(&c, &parts_ground(true), Decision::Yes);
}

/// `C = t(x) ← a(x, y), y ≈ z, z ≠ x`, where only the final phase binds `z`,
/// against `D = t(c0) ← a(c0, v1), a(c0, v2), v1 ≈ c0, v2 ≈ v5`. The first
/// `a` match gives `y = v1`, and `y ≈ z` binds `z` to v1's first partner,
/// `c0`; `z ≠ x` then rejects the mapping. The second match gives `y = v2`,
/// whose partner is `v5`, and succeeds only if the rejected mapping left `z`
/// unbound.
#[test]
fn rejected_final_phase_leaves_no_binding_behind() {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    let mut c = Clause::new(Literal::relation("t", vec![x]));
    c.push_unique(Literal::relation("a", vec![x, y]));
    c.push_unique(Literal::Similar(y, z));
    c.push_unique(Literal::NotEqual(z, x));
    let c0 = Term::constant("c0");
    let mut d = Clause::new(Literal::relation("t", vec![c0]));
    d.push_unique(Literal::relation("a", vec![c0, Term::var(1)]));
    d.push_unique(Literal::relation("a", vec![c0, Term::var(2)]));
    d.push_unique(Literal::Similar(Term::var(1), c0));
    d.push_unique(Literal::Similar(Term::var(2), Term::var(5)));
    let numbered = NumberedClause::new(&c);
    let ground = GroundClause::new(&d);
    assert_eq!(
        subsumes(&numbered, &ground, &unbounded(), None),
        Decision::Yes
    );
    let oracle = OracleGround::new(&d);
    assert!(oracle.enumerate(&c).is_some());
    let theta = witness(&numbered, &ground, &unbounded()).expect("y = v2 and z = v5 embed C");
    assert_eq!(theta.apply(&z), Term::var(5));
    assert!(oracle.verify_witness(&c, &theta));
}

/// `C = t(x) ← r(x, y)` with md0 groups `(x → w)` and `(y → w)`, where only
/// the repair phase binds `w`, against `D = t(v0) ← r(v0, v1)` with md0
/// facts `(v0 → p)`, `(v0 → q)` and `(v1 → q)`. The first group's first
/// fact gives `w = p`, for which `v1` has no fact; the search must go back
/// into the first group and take `w = q`.
#[test]
fn repair_groups_backtrack_into_earlier_groups() {
    let (x, y, w) = (Var(0), Var(1), Term::var(2));
    let mut c = Clause::new(Literal::relation("t", vec![Term::Var(x)]));
    c.push_unique(Literal::relation("r", vec![Term::Var(x), Term::Var(y)]));
    for v in [x, y] {
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(v, w)],
            vec![],
        ));
    }
    let (v0, v1) = (Term::var(0), Term::var(1));
    let (p, q) = (Term::constant("p"), Term::constant("q"));
    let mut d = Clause::new(Literal::relation("t", vec![v0]));
    d.push_unique(Literal::relation("r", vec![v0, v1]));
    for (v, target) in [(Var(0), p), (Var(0), q), (Var(1), q)] {
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(v, target)],
            vec![],
        ));
    }
    let numbered = NumberedClause::new(&c);
    let ground = GroundClause::new(&d);
    assert_eq!(
        subsumes(&numbered, &ground, &unbounded(), None),
        Decision::Yes
    );
    let oracle = OracleGround::new(&d);
    assert!(oracle.enumerate(&c).is_some());
    let theta = witness(&numbered, &ground, &unbounded()).expect("w = q embeds C");
    assert_eq!(theta.apply(&w), q);
    assert!(oracle.verify_witness(&c, &theta));
}
