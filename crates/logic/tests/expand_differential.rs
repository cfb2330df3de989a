//! Differential tests of repaired-clause expansion against the
//! clause-cloning reference it replaced
//! (`dlearn_test_support::expand_reference`): `repaired_clauses` must return
//! the same clauses in the same order at every limit, and
//! `retain_head_connected` / `canonical_string` must equal the reference's.
//! The order matters because `max_repairs` truncates the search, so which
//! repaired clauses survive the cap depends on it.
//!
//! Also pinned here, against both implementations, are the expansion's two
//! silent behaviours: the budget fallback (input with every repair group
//! dropped, made head-connected, its `≈` literals kept) and the prefix
//! property (any capped output is a prefix of the uncapped one, unless it is
//! that fallback).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_logic::{
    repaired_clauses, Clause, CondAtom, ExpandLimits, Literal, RepairGroup, RepairOrigin, Term, Var,
};
use dlearn_test_support::expand_reference::{self, assert_agrees, DIFFERENTIAL_LIMITS};
use dlearn_test_support::{random_ground, GenConfig};

type Expand = fn(&Clause, ExpandLimits) -> Vec<Clause>;

/// Production and reference, for properties both must have.
const IMPLEMENTATIONS: [(&str, Expand); 2] = [
    ("production", repaired_clauses),
    ("reference", expand_reference::repaired_clauses),
];

/// Generator settings for expansion-heavy clauses: few variables and many
/// similarity literals, so MD repair groups often share a variable and
/// conflict (Example 3.3's shape), plus equality literals for the CFD
/// conditions to meet.
fn expandable() -> GenConfig {
    GenConfig {
        min_body: 3,
        max_body: 9,
        n_vars: 5,
        max_similar: 6,
        max_equal: 2,
        max_repairs: 6,
        ..GenConfig::default()
    }
}

/// A seeded clause with MD repair groups from `dlearn_test_support::gen`,
/// now and then a group replacing a variable by a constant, then CFD-style
/// `Neq` groups (`z2 := z1` when `z1 ≠ z2`) — so later groups see a
/// replacement target whose image became a constant, and re-target it.
fn seeded_clause(rng: &mut StdRng, cfg: &GenConfig) -> Clause {
    let mut c = random_ground(rng, cfg);
    let vars: Vec<Var> = c
        .variables()
        .into_iter()
        .filter(|v| v.0 < cfg.n_vars)
        .collect();
    if vars.len() >= 2 {
        if rng.gen_bool(0.4) {
            let v = vars[rng.gen_range(0..vars.len())];
            let w = vars[rng.gen_range(0..vars.len())];
            c.push_repair(RepairGroup::new(
                RepairOrigin::Cfd(9),
                vec![CondAtom::Neq(Term::Var(v), Term::Var(w))],
                vec![(v, Term::constant("alpha"))],
                vec![],
            ));
        }
        for ci in 0..rng.gen_range(0..4usize) {
            let z1 = vars[rng.gen_range(0..vars.len())];
            let z2 = vars[rng.gen_range(0..vars.len())];
            if z1 == z2 {
                continue;
            }
            c.push_repair(RepairGroup::new(
                RepairOrigin::Cfd(ci),
                vec![CondAtom::Neq(Term::Var(z1), Term::Var(z2))],
                vec![(z2, Term::Var(z1))],
                vec![],
            ));
        }
    }
    c
}

fn seeded_corpus() -> Vec<Clause> {
    let cfg = expandable();
    let mut rng = StdRng::seed_from_u64(0xe4a4d);
    let mut corpus: Vec<Clause> = (0..300).map(|_| seeded_clause(&mut rng, &cfg)).collect();
    // The default generator shape, too: fewer, rarely conflicting groups.
    let mut rng = StdRng::seed_from_u64(0xe4a4e);
    corpus.extend((0..100).map(|_| random_ground(&mut rng, &GenConfig::default())));
    corpus
}

/// Paper Example 3.3: `T(x) ← R(y), x ≈ y, S(z), x ≈ z` with two MD repairs,
/// each unifying `x` with one of `y`, `z` via a fresh variable.
fn example_3_3() -> Clause {
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
    c
}

/// Two CFD `Neq` groups over the same right-hand sides, one of them blocked
/// by an equality literal once the other fires.
fn cfd_neq_groups() -> Clause {
    let (k, a, b, c3) = (Term::var(0), Term::var(1), Term::var(2), Term::var(3));
    let mut c = Clause::new(Literal::relation("t", vec![k]));
    c.push_unique(Literal::relation("r", vec![k, a]));
    c.push_unique(Literal::relation("r", vec![k, b]));
    c.push_unique(Literal::relation("r", vec![k, c3]));
    c.push_unique(Literal::Equal(a, c3));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(0),
        vec![CondAtom::Neq(a, b)],
        vec![(Var(2), a)],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(0),
        vec![CondAtom::Neq(b, c3)],
        vec![(Var(3), b)],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(1),
        vec![CondAtom::Neq(a, c3)],
        vec![(Var(3), a)],
        vec![],
    ));
    c
}

/// A group whose replacement target is substituted to a constant by an
/// earlier repair: `RepairGroup::apply` keeps the old target variable, so
/// firing it afterwards substitutes a variable that no longer occurs.
fn target_substituted_to_constant() -> Clause {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    let mut c = Clause::new(Literal::relation("t", vec![x, z]));
    c.push_unique(Literal::relation("r", vec![x, y]));
    c.push_unique(Literal::relation("s", vec![y, z]));
    c.push_unique(Literal::Similar(y, z));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(0),
        vec![CondAtom::Neq(y, x)],
        vec![(Var(1), Term::constant("gold"))],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Md(0),
        vec![CondAtom::Sim(y, z)],
        vec![(Var(1), Term::var(5)), (Var(2), Term::var(5))],
        vec![Literal::Similar(y, z)],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(1),
        vec![CondAtom::Neq(x, z)],
        vec![(Var(1), x)],
        vec![],
    ));
    c
}

/// A replacement target substituted to a constant and then re-targeted:
/// after `y := 'gold'`, group B still replaces `y` (now absent), which moves
/// group C's target from `y` to `z`, so C then replaces `z`.
fn target_retargeted_after_a_constant() -> Clause {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    let mut c = Clause::new(Literal::relation("t", vec![x, z]));
    c.push_unique(Literal::relation("r", vec![x, y]));
    c.push_unique(Literal::relation("s", vec![y, z]));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(0),
        vec![CondAtom::Neq(x, y)],
        vec![(Var(1), Term::constant("gold"))],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(1),
        vec![CondAtom::Neq(z, x)],
        vec![(Var(1), z)],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Cfd(2),
        vec![CondAtom::Neq(x, z)],
        vec![(Var(1), x)],
        vec![],
    ));
    c
}

/// A body with a repeated literal and a trivial equality: kept verbatim on
/// the branch where no repair fires, deduplicated once one does.
fn repeated_and_trivial_literals() -> Clause {
    let (x, y, z) = (Term::var(0), Term::var(1), Term::var(2));
    let mut c = Clause::new(Literal::relation("t", vec![x]));
    c.body = vec![
        Literal::relation("r", vec![x, y]),
        Literal::Equal(y, y),
        Literal::relation("r", vec![x, y]),
        Literal::Similar(y, z),
        Literal::relation("s", vec![z]),
    ];
    c.push_repair(RepairGroup::new(
        RepairOrigin::Md(0),
        vec![CondAtom::Sim(y, Term::var(7))],
        vec![(Var(1), Term::var(6))],
        vec![],
    ));
    c.push_repair(RepairGroup::new(
        RepairOrigin::Md(1),
        vec![CondAtom::Sim(y, z)],
        vec![(Var(1), Term::var(8)), (Var(2), Term::var(8))],
        vec![Literal::Similar(y, z)],
    ));
    c
}

fn hand_built() -> Vec<(&'static str, Clause)> {
    let mut unfired = repeated_and_trivial_literals();
    unfired.repairs.truncate(1);
    vec![
        ("example 3.3", example_3_3()),
        ("cfd neq groups", cfd_neq_groups()),
        (
            "target substituted to a constant",
            target_substituted_to_constant(),
        ),
        (
            "target re-targeted after a constant",
            target_retargeted_after_a_constant(),
        ),
        (
            "repeated and trivial literals",
            repeated_and_trivial_literals(),
        ),
        ("repeated and trivial literals, no repair fires", unfired),
    ]
}

#[test]
fn hand_built_clauses_expand_exactly_like_the_reference() {
    for (name, clause) in hand_built() {
        assert_agrees(&clause, name);
    }
}

#[test]
fn seeded_clauses_expand_exactly_like_the_reference() {
    let corpus = seeded_corpus();
    let mut branching = 0usize;
    for (i, clause) in corpus.iter().enumerate() {
        assert_agrees(clause, &format!("seeded clause {i}"));
        let unbounded = ExpandLimits {
            max_repairs: 1000,
            max_steps: 65536,
        };
        branching += (repaired_clauses(clause, unbounded).len() > 1) as usize;
    }
    // The corpus must exercise the order, not only single-result clauses.
    assert!(branching >= 50, "only {branching} clauses branch");
}

#[test]
fn exhausted_budget_falls_back_to_the_head_connected_input() {
    let clause = example_3_3();
    let mut fallback = clause.clone();
    fallback.repairs.clear();
    fallback.retain_head_connected();
    let similar = |c: &Clause| {
        c.body
            .iter()
            .filter(|l| matches!(l, Literal::Similar(..)))
            .count()
    };
    assert_eq!(similar(&fallback), 2, "{fallback}");
    for (name, expand) in IMPLEMENTATIONS {
        for limits in [
            ExpandLimits {
                max_repairs: 6,
                max_steps: 0,
            },
            ExpandLimits {
                max_repairs: 0,
                max_steps: 2048,
            },
        ] {
            let out = expand(&clause, limits);
            assert_eq!(out, vec![fallback.clone()], "{name} at {limits:?}");
        }
    }
}

#[test]
fn capped_output_is_a_prefix_of_the_uncapped_output() {
    let uncapped = ExpandLimits {
        max_repairs: 1000,
        max_steps: 65536,
    };
    for (i, clause) in seeded_corpus().iter().enumerate() {
        let mut fallback = clause.clone();
        fallback.repairs.clear();
        fallback.retain_head_connected();
        for (name, expand) in IMPLEMENTATIONS {
            let full = expand(clause, uncapped);
            for (max_repairs, max_steps) in DIFFERENTIAL_LIMITS {
                let limits = ExpandLimits {
                    max_repairs,
                    max_steps,
                };
                let capped = expand(clause, limits);
                let is_fallback = capped == [fallback.clone()];
                assert!(
                    is_fallback || full.starts_with(&capped),
                    "{name}, seeded clause {i} at {limits:?}: {capped:?} is not a prefix of {full:?}"
                );
            }
        }
    }
}
