//! Relation schemas and the database-wide schema catalog.
//!
//! Names are interned: attribute names are [`Sym`]s and relation names are
//! [`RelId`]s, so schema lookups on the hot path compare integers. The
//! catalog is keyed by [`RelId`], whose `Ord` is lexicographic on the
//! resolved name, preserving the deterministic name-ordered iteration the
//! learner relies on.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::StoreError;
use crate::intern::{RelId, Sym};
use crate::value::ValueType;

/// A named, typed attribute of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (interned), unique within its relation.
    pub name: Sym,
    /// Declared type.
    pub ty: ValueType,
}

impl Attribute {
    /// Create a new attribute.
    pub fn new(name: impl AsRef<str>, ty: ValueType) -> Self {
        Attribute {
            name: Sym::intern(name),
            ty,
        }
    }

    /// Shorthand for a string attribute.
    pub fn str(name: impl AsRef<str>) -> Self {
        Attribute::new(name, ValueType::Str)
    }

    /// Shorthand for an integer attribute.
    pub fn int(name: impl AsRef<str>) -> Self {
        Attribute::new(name, ValueType::Int)
    }
}

/// Schema of a single relation: an ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name (interned), unique within the database schema.
    pub name: RelId,
    /// Ordered attributes.
    pub attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// Create a relation schema.
    pub fn new(name: impl Into<RelId>, attributes: Vec<Attribute>) -> Self {
        RelationSchema {
            name: name.into(),
            attributes,
        }
    }

    /// Number of attributes (the relation arity).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of the attribute with the given name.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == *name)
    }

    /// Position of the attribute with the given interned name (no string
    /// comparison).
    pub fn attribute_pos(&self, name: Sym) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Attribute at a given position.
    pub fn attribute(&self, index: usize) -> Option<&Attribute> {
        self.attributes.get(index)
    }

    /// Resolve an attribute name, returning a [`StoreError`] when unknown.
    pub fn require_attribute_index(&self, name: &str) -> Result<usize, StoreError> {
        self.attribute_index(name)
            .ok_or_else(|| StoreError::UnknownAttribute {
                relation: self.name.as_str().to_string(),
                attribute: name.to_string(),
            })
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// The database schema: the set of relation schemas, keyed by [`RelId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<RelId, RelationSchema>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Add a relation schema. Returns an error when the name is taken.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<(), StoreError> {
        if self.relations.contains_key(&relation.name) {
            return Err(StoreError::DuplicateRelation(
                relation.name.as_str().to_string(),
            ));
        }
        self.relations.insert(relation.name, relation);
        Ok(())
    }

    /// Look up a relation schema by name.
    pub fn relation(&self, name: impl Into<RelId>) -> Option<&RelationSchema> {
        self.relations.get(&name.into())
    }

    /// Look up a relation schema, returning an error when unknown.
    pub fn require_relation(&self, name: impl Into<RelId>) -> Result<&RelationSchema, StoreError> {
        let id = name.into();
        self.relations
            .get(&id)
            .ok_or_else(|| StoreError::UnknownRelation(id.as_str().to_string()))
    }

    /// Iterate over relation schemas in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` when the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// `true` when the schema contains the named relation.
    pub fn contains(&self, name: impl Into<RelId>) -> bool {
        self.relations.contains_key(&name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movies_schema() -> RelationSchema {
        RelationSchema::new(
            "movies",
            vec![
                Attribute::int("id"),
                Attribute::str("title"),
                Attribute::int("year"),
            ],
        )
    }

    #[test]
    fn attribute_index_lookup() {
        let s = movies_schema();
        assert_eq!(s.attribute_index("title"), Some(1));
        assert_eq!(s.attribute_index("missing"), None);
        assert_eq!(s.attribute_pos(Sym::intern("title")), Some(1));
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn require_attribute_reports_relation_name() {
        let s = movies_schema();
        let err = s.require_attribute_index("nope").unwrap_err();
        match err {
            StoreError::UnknownAttribute {
                relation,
                attribute,
            } => {
                assert_eq!(relation, "movies");
                assert_eq!(attribute, "nope");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn schema_rejects_duplicate_relations() {
        let mut schema = Schema::new();
        schema.add_relation(movies_schema()).unwrap();
        let err = schema.add_relation(movies_schema()).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateRelation(_)));
    }

    #[test]
    fn schema_lookup_and_iteration_are_deterministic() {
        let mut schema = Schema::new();
        schema
            .add_relation(RelationSchema::new("b_rel", vec![Attribute::int("x")]))
            .unwrap();
        schema
            .add_relation(RelationSchema::new("a_rel", vec![Attribute::int("y")]))
            .unwrap();
        let ids: Vec<RelId> = schema.relations().map(|r| r.name).collect();
        assert_eq!(ids, vec![RelId::intern("a_rel"), RelId::intern("b_rel")]);
        assert!(schema.contains("a_rel"));
        assert!(schema.require_relation("missing").is_err());
        assert_eq!(schema.len(), 2);
    }

    #[test]
    fn display_formats_schema() {
        let s = movies_schema();
        assert_eq!(s.to_string(), "movies(id: int, title: str, year: int)");
    }
}
