//! Learning tasks: the dirty database, its constraints, and the training
//! examples.

use std::collections::{BTreeMap, BTreeSet};

use dlearn_constraints::{Cfd, MatchingDependency};
use dlearn_relstore::{Database, RelId, StoreError, Sym, Tuple};

/// The target relation to learn, e.g. `highGrossing(title)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpec {
    /// Relation name of the target.
    pub name: String,
    /// Attribute names of the target relation. Matching dependencies whose
    /// left-hand relation is the target refer to these names.
    pub attributes: Vec<String>,
}

impl TargetSpec {
    /// Create a target spec with generic attribute names `arg0..argN`.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        TargetSpec {
            name: name.into(),
            attributes: (0..arity).map(|i| format!("arg{i}")).collect(),
        }
    }

    /// Create a target spec with explicit attribute names.
    pub fn with_attributes(name: impl Into<String>, attributes: Vec<&str>) -> Self {
        TargetSpec {
            name: name.into(),
            attributes: attributes.into_iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Arity of the target relation.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }
}

/// A relational learning task over a dirty database.
///
/// Besides the database, constraints and examples, the task lists the
/// *constant attributes*: attributes whose values are kept as constants in
/// clauses (categorical attributes such as genres, ratings or categories)
/// rather than being variablized. This plays the role of the mode/type
/// declarations used by Castor-style learners.
#[derive(Debug, Clone)]
pub struct LearningTask {
    /// The (dirty) background database.
    pub database: Database,
    /// Matching dependencies over the database.
    pub mds: Vec<MatchingDependency>,
    /// Conditional functional dependencies over the database.
    pub cfds: Vec<Cfd>,
    /// The target relation.
    pub target: TargetSpec,
    /// Positive examples (tuples of the target relation).
    pub positives: Vec<Tuple>,
    /// Negative examples (tuples of the target relation).
    pub negatives: Vec<Tuple>,
    /// `(relation, attribute)` pairs whose values stay constants in clauses.
    pub constant_attributes: BTreeSet<(RelId, Sym)>,
    /// Data source of each relation (e.g. `imdb` vs `omdb`). When sources are
    /// declared, exact value joins are only followed *within* a source;
    /// crossing sources requires a matching dependency. An empty map places
    /// every relation in one implicit source (no restriction).
    pub sources: BTreeMap<String, String>,
    /// Source the target relation's values come from (used as the source of
    /// the example values during the relevant-tuple walk).
    pub target_source: Option<String>,
}

impl LearningTask {
    /// Create a task with no examples and no constraints.
    pub fn new(database: Database, target: TargetSpec) -> Self {
        LearningTask {
            database,
            mds: Vec::new(),
            cfds: Vec::new(),
            target,
            positives: Vec::new(),
            negatives: Vec::new(),
            constant_attributes: BTreeSet::new(),
            sources: BTreeMap::new(),
            target_source: None,
        }
    }

    /// Assign a relation to a named data source.
    pub fn add_source(&mut self, relation: impl Into<String>, source: impl Into<String>) {
        self.sources.insert(relation.into(), source.into());
    }

    /// Mark an attribute as constant-valued for clause construction.
    pub fn add_constant_attribute(
        &mut self,
        relation: impl Into<RelId>,
        attribute: impl AsRef<str>,
    ) {
        self.constant_attributes
            .insert((relation.into(), Sym::intern(attribute)));
    }

    /// `true` when the attribute's values should appear as constants.
    pub fn is_constant_attribute(
        &self,
        relation: impl Into<RelId>,
        attribute_index: usize,
    ) -> bool {
        let id = relation.into();
        let Some(rel) = self.database.schema().relation(id) else {
            return false;
        };
        let Some(attr) = rel.attribute(attribute_index) else {
            return false;
        };
        self.constant_attributes.contains(&(id, attr.name))
    }

    /// Validate the task: constraints and declarations must reference
    /// existing relations and attributes, and examples must have the target
    /// arity.
    ///
    /// References to the *target* relation are resolved against the task's
    /// [`TargetSpec`] (the target is added to the database by
    /// `augment_with_target` before learning, so an MD whose left-hand side
    /// is the target is valid even though the relation holds no stored
    /// tuples yet). Errors carry the offending declaration's name via
    /// [`StoreError::InContext`].
    pub fn validate(&self) -> Result<(), StoreError> {
        let schema = self.schema_with_target();
        for md in &self.mds {
            md.validate(&schema)
                .map_err(|e| e.in_context(format!("MD '{}'", md.name)))?;
        }
        for cfd in &self.cfds {
            cfd.validate(&schema)
                .map_err(|e| e.in_context(format!("CFD '{}'", cfd.name)))?;
        }
        for &(rel, attr) in &self.constant_attributes {
            let context = "constant-attribute declaration";
            let relation = schema
                .require_relation(rel)
                .map_err(|e| e.in_context(context))?;
            relation
                .require_attribute_index(attr.as_str())
                .map_err(|e| e.in_context(context))?;
        }
        for e in self.positives.iter().chain(self.negatives.iter()) {
            if e.arity() != self.target.arity() {
                return Err(StoreError::ArityMismatch {
                    relation: self.target.name.clone(),
                    expected: self.target.arity(),
                    actual: e.arity(),
                });
            }
        }
        Ok(())
    }

    /// The database schema extended with the target relation (string-typed
    /// attributes) when the database does not already hold it — the schema
    /// constraints are validated against.
    fn schema_with_target(&self) -> dlearn_relstore::Schema {
        let mut schema = self.database.schema().clone();
        if !schema.contains(&self.target.name) {
            let attrs = self
                .target
                .attributes
                .iter()
                .map(dlearn_relstore::Attribute::str)
                .collect();
            let _ = schema.add_relation(dlearn_relstore::RelationSchema::new(
                self.target.name.clone(),
                attrs,
            ));
        }
        schema
    }

    /// A copy of this task with different example sets (used by
    /// cross-validation to build per-fold training tasks).
    pub fn with_examples(&self, positives: Vec<Tuple>, negatives: Vec<Tuple>) -> Self {
        let mut t = self.clone();
        t.positives = positives;
        t.negatives = negatives;
        t
    }

    /// Total number of training examples.
    pub fn example_count(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};

    fn small_task() -> LearningTask {
        let db = DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("movies")
                    .int_attr("id")
                    .str_attr("title")
                    .build(),
            )
            .relation(
                RelationBuilder::new("mov2genres")
                    .int_attr("id")
                    .str_attr("genre")
                    .build(),
            )
            .row("movies", vec![Value::int(1), Value::str("Superbad")])
            .row("mov2genres", vec![Value::int(1), Value::str("comedy")])
            .build();
        let mut task = LearningTask::new(db, TargetSpec::new("highGrossing", 1));
        task.positives.push(tuple(vec![Value::str("Superbad")]));
        task.negatives.push(tuple(vec![Value::str("Orphanage")]));
        task.add_constant_attribute("mov2genres", "genre");
        task
    }

    #[test]
    fn valid_task_passes_validation() {
        assert!(small_task().validate().is_ok());
    }

    #[test]
    fn example_arity_is_checked() {
        let mut task = small_task();
        task.positives
            .push(tuple(vec![Value::str("a"), Value::str("b")]));
        assert!(task.validate().is_err());
    }

    #[test]
    fn md_validation_is_applied() {
        let mut task = small_task();
        task.mds.push(MatchingDependency::simple(
            "bad", "movies", "missing", "movies", "title",
        ));
        assert!(task.validate().is_err());
    }

    #[test]
    fn constant_attributes_are_resolved_by_index() {
        let task = small_task();
        assert!(task.is_constant_attribute("mov2genres", 1));
        assert!(!task.is_constant_attribute("mov2genres", 0));
        assert!(!task.is_constant_attribute("movies", 1));
        assert!(!task.is_constant_attribute("unknown", 0));
    }

    #[test]
    fn with_examples_replaces_example_sets() {
        let task = small_task();
        let t2 = task.with_examples(vec![], vec![tuple(vec![Value::str("x")])]);
        assert_eq!(t2.positives.len(), 0);
        assert_eq!(t2.negatives.len(), 1);
        assert_eq!(task.positives.len(), 1, "original task is untouched");
        assert_eq!(t2.example_count(), 1);
    }
}
