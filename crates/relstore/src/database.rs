//! The database: a schema plus one relation instance per relation.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::intern::RelId;
use crate::relation::{Relation, TupleId};
use crate::schema::{RelationSchema, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// A fully materialized, in-memory database instance.
///
/// Relations are keyed by interned [`RelId`], so lookups on the learner's
/// hot paths never hash a string; the `&str`-accepting convenience methods
/// intern on the way in.
#[derive(Debug, Clone, Default)]
pub struct Database {
    schema: Schema,
    relations: HashMap<RelId, Relation>,
}

impl Database {
    /// Empty database with an empty schema.
    pub fn new() -> Self {
        Database::default()
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Declare a new relation.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<(), StoreError> {
        self.schema.add_relation(schema.clone())?;
        self.relations.insert(schema.name, Relation::new(schema));
        Ok(())
    }

    /// Relation instance by name or id.
    pub fn relation(&self, name: impl Into<RelId>) -> Option<&Relation> {
        self.relations.get(&name.into())
    }

    /// Mutable relation instance by name or id.
    pub fn relation_mut(&mut self, name: impl Into<RelId>) -> Option<&mut Relation> {
        self.relations.get_mut(&name.into())
    }

    /// Relation instance, erroring when it does not exist.
    pub fn require_relation(&self, name: impl Into<RelId>) -> Result<&Relation, StoreError> {
        let id = name.into();
        self.relations
            .get(&id)
            .ok_or_else(|| StoreError::UnknownRelation(id.as_str().to_string()))
    }

    /// Insert a tuple into the named relation.
    pub fn insert(
        &mut self,
        relation: impl Into<RelId>,
        tuple: Tuple,
    ) -> Result<TupleId, StoreError> {
        let id = relation.into();
        let rel = self
            .relations
            .get_mut(&id)
            .ok_or_else(|| StoreError::UnknownRelation(id.as_str().to_string()))?;
        rel.insert(tuple)
    }

    /// Iterate over all relation instances in deterministic (name) order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        // RelId's Ord is lexicographic on the name, so this matches the old
        // String-sorted iteration order exactly.
        let mut ids: Vec<RelId> = self.relations.keys().copied().collect();
        ids.sort();
        ids.into_iter().map(move |id| &self.relations[&id])
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Equality selection over a named relation and attribute.
    pub fn select_eq(
        &self,
        relation: impl Into<RelId>,
        attribute: &str,
        value: &Value,
    ) -> Result<Vec<&Tuple>, StoreError> {
        let rel = self.require_relation(relation)?;
        let ids = rel.select_eq_by_name(attribute, value)?;
        Ok(ids.iter().filter_map(|&id| rel.tuple(id)).collect())
    }

    /// A compact human-readable summary (relation name -> cardinality).
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = self
            .relations()
            .map(|r| format!("{}:{}", r.name(), r.len()))
            .collect();
        parts.sort();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::tuple::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "movies",
            vec![Attribute::int("id"), Attribute::str("title")],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "mov2genres",
            vec![Attribute::int("id"), Attribute::str("genre")],
        ))
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let mut db = db();
        db.insert("movies", tuple(vec![Value::int(1), Value::str("Superbad")]))
            .unwrap();
        db.insert(
            "mov2genres",
            tuple(vec![Value::int(1), Value::str("comedy")]),
        )
        .unwrap();

        let hits = db
            .select_eq("movies", "title", &Value::str("Superbad"))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn relid_lookups_match_str_lookups() {
        let mut db = db();
        db.insert(
            RelId::intern("movies"),
            tuple(vec![Value::int(1), Value::str("a")]),
        )
        .unwrap();
        assert_eq!(db.relation(RelId::intern("movies")).unwrap().len(), 1);
        assert_eq!(db.relation("movies").unwrap().len(), 1);
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = db();
        assert!(db.insert("nope", tuple(vec![Value::int(1)])).is_err());
        assert!(db.select_eq("nope", "x", &Value::int(1)).is_err());
        assert!(db.require_relation("nope").is_err());
    }

    #[test]
    fn duplicate_relation_creation_fails() {
        let mut db = db();
        let err = db
            .create_relation(RelationSchema::new("movies", vec![Attribute::int("id")]))
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateRelation(_)));
    }

    #[test]
    fn relations_iterate_in_name_order() {
        let db = db();
        let names: Vec<&str> = db.relations().map(|r| r.name()).collect();
        assert_eq!(names, vec!["mov2genres", "movies"]);
    }

    #[test]
    fn summary_lists_cardinalities() {
        let mut db = db();
        db.insert("movies", tuple(vec![Value::int(1), Value::str("a")]))
            .unwrap();
        assert_eq!(db.summary(), "mov2genres:0, movies:1");
    }
}
