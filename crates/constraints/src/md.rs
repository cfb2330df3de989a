//! Matching dependencies (MDs).
//!
//! An MD `R1[A1..n] ≈ R2[B1..n] → R1[C] ⇌ R2[D]` states that whenever the
//! values of the attribute lists `A` and `B` of two tuples are pairwise
//! similar, the values of `C` and `D` refer to the same real-world value and
//! should be identified (Section 2.2 of the paper).

use std::fmt;

use dlearn_relstore::{RelId, Schema, StoreError, Sym};

/// One similarity comparison of an MD premise: `R1[left] ≈ R2[right]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimilarityPair {
    /// Attribute of the left relation (interned).
    pub left: Sym,
    /// Attribute of the right relation (interned).
    pub right: Sym,
}

/// A matching dependency.
///
/// Relation and attribute references are interned handles, so the
/// bottom-clause walk comparing frontier relations against MD sides does so
/// with integer equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingDependency {
    /// Human-readable name used in reports.
    pub name: String,
    /// Left relation (`R1`).
    pub left_relation: RelId,
    /// Right relation (`R2`).
    pub right_relation: RelId,
    /// The similarity premise `R1[A_i] ≈ R2[B_i]`.
    pub premises: Vec<SimilarityPair>,
    /// The identified attribute of the left relation (`C`).
    pub identify_left: Sym,
    /// The identified attribute of the right relation (`D`).
    pub identify_right: Sym,
}

impl MatchingDependency {
    /// Convenience constructor for the common single-attribute MD
    /// `R1[A] ≈ R2[B] → R1[A] ⇌ R2[B]` (e.g. matching titles).
    pub fn simple(
        name: impl Into<String>,
        left_relation: impl Into<RelId>,
        left_attr: impl AsRef<str>,
        right_relation: impl Into<RelId>,
        right_attr: impl AsRef<str>,
    ) -> Self {
        let left_attr = Sym::intern(left_attr);
        let right_attr = Sym::intern(right_attr);
        MatchingDependency {
            name: name.into(),
            left_relation: left_relation.into(),
            right_relation: right_relation.into(),
            premises: vec![SimilarityPair {
                left: left_attr,
                right: right_attr,
            }],
            identify_left: left_attr,
            identify_right: right_attr,
        }
    }

    /// Validate the MD against a database schema: relations and attributes
    /// must exist.
    pub fn validate(&self, schema: &Schema) -> Result<(), StoreError> {
        let left = schema.require_relation(self.left_relation)?;
        let right = schema.require_relation(self.right_relation)?;
        for p in &self.premises {
            left.require_attribute_index(p.left.as_str())?;
            right.require_attribute_index(p.right.as_str())?;
        }
        left.require_attribute_index(self.identify_left.as_str())?;
        right.require_attribute_index(self.identify_right.as_str())?;
        Ok(())
    }
}

impl fmt::Display for MatchingDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let premise = self
            .premises
            .iter()
            .map(|p| {
                format!(
                    "{}[{}] ≈ {}[{}]",
                    self.left_relation, p.left, self.right_relation, p.right
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        write!(
            f,
            "{premise} → {}[{}] ⇌ {}[{}]",
            self.left_relation, self.identify_left, self.right_relation, self.identify_right
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_relstore::{Attribute, RelationSchema};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation(RelationSchema::new(
            "movies",
            vec![
                Attribute::int("id"),
                Attribute::str("title"),
                Attribute::int("year"),
            ],
        ))
        .unwrap();
        s.add_relation(RelationSchema::new(
            "highBudgetMovies",
            vec![Attribute::str("title")],
        ))
        .unwrap();
        s
    }

    #[test]
    fn simple_md_validates_against_schema() {
        let md =
            MatchingDependency::simple("titles", "movies", "title", "highBudgetMovies", "title");
        assert!(md.validate(&schema()).is_ok());
    }

    #[test]
    fn validation_rejects_unknown_attribute() {
        let md = MatchingDependency::simple("bad", "movies", "nope", "highBudgetMovies", "title");
        assert!(md.validate(&schema()).is_err());
        let md = MatchingDependency::simple("bad", "movies", "title", "missingRel", "title");
        assert!(md.validate(&schema()).is_err());
    }

    #[test]
    fn display_uses_paper_notation() {
        let md =
            MatchingDependency::simple("titles", "movies", "title", "highBudgetMovies", "title");
        let s = md.to_string();
        assert!(s.contains("movies[title] ≈ highBudgetMovies[title]"), "{s}");
        assert!(s.contains("⇌"), "{s}");
    }
}
