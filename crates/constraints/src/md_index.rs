//! Per-MD precomputed similarity match catalogs.
//!
//! For every matching dependency of a learning task, DLearn precomputes the
//! pairs of similar values between the MD's two sides (Section 5). The
//! [`MdCatalog`] owns one [`SimilarityIndex`] per MD, built from the distinct
//! values of the premise attributes in the database, and answers the
//! similarity-search probes (`ψ_{B ≈ M}(R2)`) issued by bottom-clause
//! construction.

use dlearn_relstore::{Database, RelId, Sym, Value};
use dlearn_similarity::{IndexConfig, Match, QuerySym, SimilarityIndex};

use crate::md::MatchingDependency;

/// The similarity index of a single MD.
#[derive(Debug, Clone)]
pub struct MdIndex {
    /// Position of the MD in the task's MD list.
    pub md_position: usize,
    /// The matching dependency.
    pub md: MatchingDependency,
    index: SimilarityIndex,
}

impl MdIndex {
    /// Build the index for one MD over a database.
    pub fn build(
        md_position: usize,
        md: &MatchingDependency,
        db: &Database,
        config: &IndexConfig,
    ) -> Self {
        // The premise of our MDs compares the identified attributes (the
        // common single-attribute case); we index the identified columns.
        let left_values = sym_column(db, md.left_relation, md.identify_left);
        let right_values = sym_column(db, md.right_relation, md.identify_right);
        let index = SimilarityIndex::build(&left_values, &right_values, config);
        MdIndex {
            md_position,
            md: md.clone(),
            index,
        }
    }

    /// Wrap an already-built similarity index (e.g. one maintained
    /// incrementally under deltas) as the index of the given MD.
    pub fn from_parts(md_position: usize, md: MatchingDependency, index: SimilarityIndex) -> Self {
        MdIndex {
            md_position,
            md,
            index,
        }
    }

    /// The underlying similarity index.
    pub fn index(&self) -> &SimilarityIndex {
        &self.index
    }

    /// Matches of a value of the left relation's identified attribute.
    pub fn matches_from_left(&self, value: impl QuerySym) -> &[Match] {
        self.index.matches_left(value)
    }

    /// Matches of a value of the right relation's identified attribute.
    pub fn matches_from_right(&self, value: impl QuerySym) -> &[Match] {
        self.index.matches_right(value)
    }

    /// Matches of a value appearing in the given relation (which must be one
    /// of the MD's two relations), looking across to the other side.
    pub fn matches_for(&self, relation: impl Into<RelId>, value: impl QuerySym) -> &[Match] {
        let relation = relation.into();
        if relation == self.md.left_relation {
            self.matches_from_left(value)
        } else if relation == self.md.right_relation {
            self.matches_from_right(value)
        } else {
            &[]
        }
    }

    /// Whether two values are similar according to this MD's index.
    pub fn are_matched(&self, left: impl QuerySym, right: impl QuerySym) -> bool {
        self.index.are_matched(left, right)
    }

    /// Total number of match pairs in the index.
    pub fn pair_count(&self) -> usize {
        self.index.pair_count()
    }
}

/// All MD indexes of a learning task.
#[derive(Debug, Clone, Default)]
pub struct MdCatalog {
    indexes: Vec<MdIndex>,
}

impl MdCatalog {
    /// Build the catalog for a list of MDs over a database.
    pub fn build(mds: &[MatchingDependency], db: &Database, config: &IndexConfig) -> Self {
        let indexes = mds
            .iter()
            .enumerate()
            .map(|(i, md)| MdIndex::build(i, md, db, config))
            .collect();
        MdCatalog { indexes }
    }

    /// Assemble a catalog from already-built per-MD indexes (e.g. indexes
    /// maintained incrementally under deltas).
    pub fn from_indexes(indexes: Vec<MdIndex>) -> Self {
        MdCatalog { indexes }
    }

    /// The per-MD indexes.
    pub fn indexes(&self) -> &[MdIndex] {
        &self.indexes
    }

    /// Number of MDs in the catalog.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// `true` when the catalog holds no MDs.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Build an exact-join catalog: values match iff their normalized
    /// strings are equal, and no alignment runs. The Castor-Exact and
    /// Castor-Clean baselines join through it.
    pub fn build_exact(mds: &[MatchingDependency], db: &Database, top_k: usize) -> Self {
        let indexes = mds
            .iter()
            .enumerate()
            .map(|(i, md)| {
                let left_values = sym_column(db, md.left_relation, md.identify_left);
                let right_values = sym_column(db, md.right_relation, md.identify_right);
                let index = SimilarityIndex::exact_normalized(&left_values, &right_values, top_k);
                MdIndex::from_parts(i, md.clone(), index)
            })
            .collect();
        MdCatalog { indexes }
    }
}

/// The distinct string values of one relation attribute — the column a
/// similarity index is built over (empty when the relation or attribute is
/// missing, or the column is not string-typed).
pub fn sym_column(db: &Database, relation: RelId, attribute: Sym) -> Vec<Sym> {
    let Some(rel) = db.relation(relation) else {
        return Vec::new();
    };
    let Some(idx) = rel.schema().attribute_pos(attribute) else {
        return Vec::new();
    };
    rel.distinct_values(idx)
        .into_iter()
        .filter_map(Value::as_sym)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_relstore::{DatabaseBuilder, RelationBuilder};

    fn movie_db() -> Database {
        DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("movies")
                    .int_attr("id")
                    .str_attr("title")
                    .build(),
            )
            .relation(
                RelationBuilder::new("highBudgetMovies")
                    .str_attr("title")
                    .build(),
            )
            .row(
                "movies",
                vec![Value::int(1), Value::str("Star Wars: Episode IV - 1977")],
            )
            .row(
                "movies",
                vec![Value::int(2), Value::str("Star Wars: Episode III - 2005")],
            )
            .row("movies", vec![Value::int(3), Value::str("Superbad (2007)")])
            .row("highBudgetMovies", vec![Value::str("Star Wars")])
            .row("highBudgetMovies", vec![Value::str("Superbad")])
            .build()
    }

    fn titles_md() -> MatchingDependency {
        MatchingDependency::simple("titles", "movies", "title", "highBudgetMovies", "title")
    }

    #[test]
    fn catalog_builds_one_index_per_md() {
        let db = movie_db();
        let catalog = MdCatalog::build(&[titles_md()], &db, &IndexConfig::top_k(5));
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
    }

    #[test]
    fn star_wars_matches_both_episodes() {
        let db = movie_db();
        let catalog = MdCatalog::build(&[titles_md()], &db, &IndexConfig::top_k(5));
        let idx = &catalog.indexes()[0];
        let matches = idx.matches_from_right("Star Wars");
        assert_eq!(matches.len(), 2, "{matches:?}");
        assert!(idx.are_matched("Star Wars: Episode IV - 1977", "Star Wars"));
    }

    #[test]
    fn km_one_keeps_only_the_best_candidate() {
        let db = movie_db();
        let catalog = MdCatalog::build(&[titles_md()], &db, &IndexConfig::top_k(1));
        let idx = &catalog.indexes()[0];
        assert!(idx.matches_from_right("Star Wars").len() <= 1);
    }

    #[test]
    fn matches_for_dispatches_on_relation_side() {
        let db = movie_db();
        let catalog = MdCatalog::build(&[titles_md()], &db, &IndexConfig::top_k(5));
        let idx = &catalog.indexes()[0];
        assert!(!idx.matches_for("highBudgetMovies", "Superbad").is_empty());
        assert!(!idx.matches_for("movies", "Superbad (2007)").is_empty());
        assert!(idx.matches_for("other", "Superbad").is_empty());
    }
}
