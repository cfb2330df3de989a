//! # dlearn-constraints — declarative data-quality constraints
//!
//! DLearn expresses the properties of clean data with two classes of
//! declarative constraints and reasons about their possible enforcements
//! during learning:
//!
//! * [`MatchingDependency`] — matching dependencies (Section 2.2), which say
//!   that sufficiently similar values of two relations refer to the same
//!   real-world value and should be identified.
//! * [`Cfd`] — conditional functional dependencies (Section 2.3), functional
//!   dependencies restricted by a tuple pattern, whose violations capture
//!   integrity errors inside a relation.
//!
//! The crate also provides CFD consistency checking
//! ([`consistency::find_inconsistencies`]), violation detection, the
//! *minimal repair* of a database ([`repair::minimal_cfd_repair`], used by
//! the DLearn-Repaired baseline), the best-match value unification used by
//! the Castor-Clean baseline ([`repair::enforce_md_best_match_with_index`]),
//! and the per-MD precomputed similarity catalogs ([`MdCatalog`]) consumed
//! by bottom-clause construction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cfd;
pub mod consistency;
pub mod md;
pub mod md_index;
pub mod repair;

pub use cfd::{Cfd, PatternValue};
pub use consistency::{find_inconsistencies, Inconsistency};
pub use md::{MatchingDependency, SimilarityPair};
pub use md_index::{sym_column, MdCatalog, MdIndex};
pub use repair::{
    all_cfds_satisfied, enforce_md_best_match_with_index, minimal_cfd_repair, RepairStats,
};

#[cfg(test)]
mod proptests {
    //! Property-style tests over seeded random relations (formerly
    //! `proptest` strategies; driven by the vendored deterministic RNG).

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use dlearn_relstore::{tuple, Attribute, Database, Relation, RelationSchema, Value};

    use crate::cfd::Cfd;
    use crate::repair::{all_cfds_satisfied, minimal_cfd_repair};

    const CASES: usize = 100;

    /// A short random string over a two-letter alphabet (dense collisions,
    /// so FD violations are common).
    fn short(rng: &mut StdRng, alphabet: [char; 2]) -> String {
        let len = rng.gen_range(1..3usize);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..2usize)])
            .collect()
    }

    fn random_db(rng: &mut StdRng, max_rows: usize) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "r",
            vec![
                Attribute::str("a"),
                Attribute::str("b"),
                Attribute::str("c"),
            ],
        ))
        .unwrap();
        for _ in 0..rng.gen_range(0..max_rows) {
            let a = short(rng, ['a', 'b']);
            let b = short(rng, ['c', 'd']);
            let c = short(rng, ['e', 'f']);
            db.insert(
                "r",
                tuple(vec![Value::str(a), Value::str(b), Value::str(c)]),
            )
            .unwrap();
        }
        db
    }

    /// The minimal repair of any database w.r.t. a plain FD always satisfies
    /// the FD afterwards and never changes the tuple count.
    #[test]
    fn minimal_repair_reaches_a_consistent_instance() {
        let mut rng = StdRng::seed_from_u64(0x2e9a1);
        for _ in 0..CASES {
            let db = random_db(&mut rng, 20);
            let cfds = vec![
                Cfd::fd("fd", "r", vec!["a"], "c"),
                Cfd::fd("fd2", "r", vec!["b"], "c"),
            ];
            let (repaired, _) = minimal_cfd_repair(&db, &cfds);
            assert!(all_cfds_satisfied(&repaired, &cfds));
            assert_eq!(repaired.total_tuples(), db.total_tuples());
        }
    }

    /// Violation detection is symmetric in the pair and never reports a
    /// tuple violating with itself.
    #[test]
    fn violations_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(0x51c4);
        for _ in 0..CASES {
            let db = random_db(&mut rng, 16);
            let cfd = Cfd::fd("fd", "r", vec!["a"], "b");
            let rel: &Relation = db.relation("r").unwrap();
            for (i, j) in cfd.find_violations(rel) {
                assert!(i < j);
                assert!(rel.tuple(i).is_some() && rel.tuple(j).is_some());
            }
        }
    }
}
