//! # dlearn-logic — first-order logic machinery for relational learning
//!
//! This crate provides the clause language of DLearn: terms, literals
//! (relation, similarity, equality, inequality), Horn clauses and
//! definitions, *repair groups* (the clause-level form of the paper's repair
//! literals), the expansion of a clause into its repaired clauses, and the
//! θ-subsumption engine extended to repair literals (Definition 4.4) that
//! underpins both generalization and coverage testing.
//!
//! * [`Term`], [`Var`] — terms.
//! * [`Literal`] — body/head literals.
//! * [`RepairGroup`], [`CondAtom`], [`RepairOrigin`] — repair literals.
//! * [`Clause`], [`Definition`] — Horn clauses / definitions.
//! * [`CanonicalKey`] — a clause's canonical form, the duplicate key of
//!   expansion and TILDE.
//! * [`repaired_clauses`] — expansion into repaired clauses (Section 3.2).
//! * [`subsumes`], [`witness`], [`GroundClause`] — θ-subsumption (Section
//!   4.2/4.3): one search with a decision view and a witness view.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod canonical;
pub mod clause;
pub mod expand;
pub mod literal;
pub mod numbering;
pub mod repair;
pub mod substitution;
pub mod subsumption;
pub mod term;

pub use canonical::CanonicalKey;
pub use clause::{Clause, Definition};
pub use expand::{repaired_clauses, ExpandLimits};
pub use literal::Literal;
pub use numbering::{NumberedClause, VarNumbering};
pub use repair::{CondAtom, RepairGroup, RepairOrigin};
pub use substitution::{FlatSubstitution, Substitution};
pub use subsumption::{
    extend_bindings, head_bindings, subsumes, witness, CancelToken, Decision, GroundClause,
    SubsumptionConfig, CANCEL_CHECK_INTERVAL,
};
pub use term::{Term, Var};

#[cfg(test)]
mod proptests {
    //! Property-style tests over seeded random clauses. These used to be
    //! `proptest` strategies; the vendored deterministic RNG (see
    //! `vendor/README.md`) drives the same properties over a fixed number of
    //! random cases per seed instead.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::clause::Clause;
    use crate::expand::{repaired_clauses, ExpandLimits};
    use crate::literal::Literal;
    use crate::numbering::NumberedClause;
    use crate::repair::{CondAtom, RepairGroup, RepairOrigin};
    use crate::substitution::Substitution;
    use crate::subsumption::{subsumes, GroundClause, SubsumptionConfig};
    use crate::term::{Term, Var};

    const CASES: usize = 200;

    fn holds(c: &Clause, d: &GroundClause) -> bool {
        subsumes(
            &NumberedClause::new(c),
            d,
            &SubsumptionConfig::default(),
            None,
        )
        .is_yes()
    }

    /// Generate a small random clause over a fixed vocabulary of relations.
    pub(crate) fn random_clause(rng: &mut StdRng) -> Clause {
        let names = ["r0", "r1", "r2", "r3"];
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        for _ in 0..rng.gen_range(0..6usize) {
            let name = names[rng.gen_range(0..names.len())];
            let arity = rng.gen_range(1..3usize);
            let args: Vec<Term> = (0..arity)
                .map(|_| Term::var(rng.gen_range(0..6u32)))
                .collect();
            c.push_unique(Literal::relation(name, args));
        }
        c
    }

    /// Reflexivity: every clause θ-subsumes itself (identity substitution).
    #[test]
    fn subsumption_is_reflexive() {
        let mut rng = StdRng::seed_from_u64(0xa11ce);
        for _ in 0..CASES {
            let c = random_clause(&mut rng);
            let d = GroundClause::new(&c);
            assert!(holds(&c, &d), "clause failed reflexivity: {c}");
        }
    }

    /// Dropping body literals generalizes: the reduced clause still subsumes
    /// the original.
    #[test]
    fn dropping_literals_preserves_subsumption() {
        let mut rng = StdRng::seed_from_u64(0xd20f);
        for _ in 0..CASES {
            let c = random_clause(&mut rng);
            let mut reduced = c.clone();
            reduced.body.retain(|_| rng.gen_bool(0.5));
            let d = GroundClause::new(&c);
            assert!(
                holds(&reduced, &d),
                "reduced clause {reduced} must subsume {c}"
            );
        }
    }

    /// Variable renaming does not affect subsumption of the original.
    #[test]
    fn renamed_clause_subsumes_original() {
        let mut rng = StdRng::seed_from_u64(0x7e4a);
        for _ in 0..CASES {
            let c = random_clause(&mut rng);
            let offset = rng.gen_range(10..20u32);
            let renaming: Substitution = c
                .variables()
                .into_iter()
                .map(|v| (v, Term::var(v.0 + offset)))
                .collect();
            let renamed = c.apply(&renaming);
            let d = GroundClause::new(&c);
            assert!(
                holds(&renamed, &d),
                "renamed clause {renamed} must subsume {c}"
            );
        }
    }

    /// Repaired-clause expansion always yields at least one repaired clause,
    /// every result is free of repair groups, and the count obeys the
    /// configured cap.
    #[test]
    fn expansion_yields_repaired_clauses() {
        let mut rng = StdRng::seed_from_u64(0xe9a2);
        for _ in 0..CASES {
            let mut clause = random_clause(&mut rng);
            let n_repairs = rng.gen_range(0..3usize);
            let cap = rng.gen_range(1..8usize);
            let base = clause.max_var_index().unwrap_or(0) + 1;
            for i in 0..n_repairs {
                let a = Term::var(i as u32 % 3);
                let b = Term::var((i as u32 + 1) % 3);
                clause.push_unique(Literal::Similar(a, b));
                clause.push_repair(RepairGroup::new(
                    RepairOrigin::Md(i),
                    vec![CondAtom::Sim(a, b)],
                    vec![
                        (Var(i as u32 % 3), Term::var(base + i as u32)),
                        (Var((i as u32 + 1) % 3), Term::var(base + i as u32)),
                    ],
                    vec![Literal::Similar(a, b)],
                ));
            }
            let repaired = repaired_clauses(
                &clause,
                ExpandLimits {
                    max_repairs: cap,
                    max_steps: 512,
                },
            );
            assert!(!repaired.is_empty());
            assert!(repaired.len() <= cap);
            for r in &repaired {
                assert!(r.is_repaired());
            }
        }
    }
}
