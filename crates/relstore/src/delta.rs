//! Streaming delta transactions over a [`Database`].
//!
//! A [`DeltaTx`] is an ordered list of tuple inserts and deletes. Applying
//! it yields a [`ChangeSet`]: the exact set of `(relation, attribute,
//! value)` triples whose equality-selection result changed, which is what
//! the incremental maintenance layers upstream (similarity indexes, ground
//! bottom clauses, serving caches) consult to decide what must be repaired
//! and what can be reused verbatim.
//!
//! The change-set granularity is *value-level*, not relation-level: a
//! bottom-clause walk probes every relation each round, so "some tuple of
//! `R` changed" would invalidate everything. `select_eq(attr, v)` changes
//! if and only if a tuple with `t[attr] == v` was inserted or deleted, and
//! that is exactly what [`ChangeSet::affects`] answers.

use crate::error::StoreError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::RelId;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Database;

/// One tuple-level mutation inside a [`DeltaTx`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Insert `tuple` into `relation`.
    Insert {
        /// Target relation.
        relation: RelId,
        /// Tuple to append.
        tuple: Tuple,
    },
    /// Delete the first occurrence of `tuple` from `relation`.
    Delete {
        /// Target relation.
        relation: RelId,
        /// Tuple to remove.
        tuple: Tuple,
    },
}

impl DeltaOp {
    /// The relation this op touches.
    pub fn relation(&self) -> RelId {
        match self {
            DeltaOp::Insert { relation, .. } | DeltaOp::Delete { relation, .. } => *relation,
        }
    }

    /// The tuple this op carries.
    pub fn tuple(&self) -> &Tuple {
        match self {
            DeltaOp::Insert { tuple, .. } | DeltaOp::Delete { tuple, .. } => tuple,
        }
    }
}

/// An ordered transaction of tuple inserts and deletes.
///
/// Ops apply in order under bag semantics: an insert of a tuple already
/// present adds a second copy, a delete removes the first equal tuple in id
/// order, and a tuple inserted earlier in the same transaction may be
/// deleted later in it (an insert and a delete of the same new tuple leave
/// the store unchanged, though the [`ChangeSet`] still records the tuple's
/// values). Emptiness is allowed (a no-op transaction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaTx {
    ops: Vec<DeltaOp>,
}

impl DeltaTx {
    /// An empty transaction.
    pub fn new() -> Self {
        DeltaTx::default()
    }

    /// Append an insert (builder style).
    pub fn insert(mut self, relation: impl Into<RelId>, tuple: Tuple) -> Self {
        self.ops.push(DeltaOp::Insert {
            relation: relation.into(),
            tuple,
        });
        self
    }

    /// Append a delete (builder style).
    pub fn delete(mut self, relation: impl Into<RelId>, tuple: Tuple) -> Self {
        self.ops.push(DeltaOp::Delete {
            relation: relation.into(),
            tuple,
        });
        self
    }

    /// Append an op in place.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the transaction carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The exact read-visible footprint of an applied [`DeltaTx`].
///
/// For every applied op on relation `R` with tuple `t`, the triples
/// `(R, i, t[i])` for each attribute `i` are recorded — precisely the
/// equality selections whose results can have changed. Anything not in the
/// set is untouched: `select_eq` on it returns the same tuples, in the same
/// relative order (deletion renumbers ids monotonically).
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    touched: FxHashMap<RelId, FxHashSet<(usize, Value)>>,
    /// Number of tuples inserted by the transaction.
    pub inserted: usize,
    /// Number of tuples deleted by the transaction.
    pub deleted: usize,
}

impl ChangeSet {
    /// Record one applied op's footprint.
    pub fn record(&mut self, relation: RelId, tuple: &Tuple) {
        let touched = self.touched.entry(relation).or_default();
        for (i, v) in tuple.values().iter().enumerate() {
            touched.insert((i, *v));
        }
    }

    /// Did the transaction change the result of `select_eq(attribute,
    /// value)` on `relation`?
    pub fn affects(&self, relation: RelId, attribute: usize, value: &Value) -> bool {
        self.touched
            .get(&relation)
            .is_some_and(|t| t.contains(&(attribute, *value)))
    }

    /// Every touched `(relation, attribute, value)` triple (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (RelId, usize, Value)> + '_ {
        self.touched
            .iter()
            .flat_map(|(r, t)| t.iter().map(move |&(a, v)| (*r, a, v)))
    }

    /// The `(attribute, value)` pairs touched in `relation` (unordered).
    pub fn touched_values(&self, relation: RelId) -> impl Iterator<Item = (usize, Value)> + '_ {
        self.touched
            .get(&relation)
            .into_iter()
            .flat_map(|t| t.iter().copied())
    }

    /// `true` when nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

impl Database {
    /// Apply a delta transaction op by op, returning the [`ChangeSet`] of
    /// touched `(relation, attribute, value)` triples.
    ///
    /// Ops are validated as they apply (unknown relation, arity or type
    /// mismatch, delete of an absent tuple), so an error can leave the
    /// database partially modified. Callers needing all-or-nothing
    /// semantics apply the transaction to a clone and commit by swap — the
    /// engine's `apply_delta` does exactly that.
    pub fn apply_delta(&mut self, tx: &DeltaTx) -> Result<ChangeSet, StoreError> {
        let mut changes = ChangeSet::default();
        for op in tx.ops() {
            let rel_id = op.relation();
            let rel = self
                .relation_mut(rel_id)
                .ok_or_else(|| StoreError::UnknownRelation(rel_id.as_str().to_string()))?;
            match op {
                DeltaOp::Insert { tuple, .. } => {
                    rel.insert(tuple.clone())?;
                    changes.inserted += 1;
                }
                DeltaOp::Delete { tuple, .. } => {
                    rel.delete(tuple)?;
                    changes.deleted += 1;
                }
            }
            changes.record(rel_id, op.tuple());
        }
        Ok(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};
    use crate::tuple::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "movies",
            vec![Attribute::int("id"), Attribute::str("title")],
        ))
        .unwrap();
        db
    }

    #[test]
    fn apply_inserts_and_deletes_in_order() {
        let mut db = db();
        db.insert("movies", tuple(vec![Value::int(1), Value::str("a")]))
            .unwrap();
        let tx = DeltaTx::new()
            .insert("movies", tuple(vec![Value::int(2), Value::str("b")]))
            .delete("movies", tuple(vec![Value::int(1), Value::str("a")]));
        let changes = db.apply_delta(&tx).unwrap();
        assert_eq!((changes.inserted, changes.deleted), (1, 1));
        let rel = db.relation("movies").unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&tuple(vec![Value::int(2), Value::str("b")])));
        let id = RelId::intern("movies");
        assert!(changes.affects(id, 0, &Value::int(1)));
        assert!(changes.affects(id, 1, &Value::str("b")));
        assert!(!changes.affects(id, 1, &Value::str("zzz")));
        assert!(!changes.affects(RelId::intern("other"), 0, &Value::int(1)));
        // Four triples: (id 2, title b) and (id 1, title a).
        let mut triples: Vec<_> = changes.iter().collect();
        triples.sort();
        assert_eq!(
            triples,
            [
                (id, 0, Value::int(1)),
                (id, 0, Value::int(2)),
                (id, 1, Value::str("a")),
                (id, 1, Value::str("b")),
            ]
        );
    }

    #[test]
    fn intra_transaction_insert_then_delete_nets_to_zero_tuples() {
        let mut db = db();
        let kept = tuple(vec![Value::int(1), Value::str("kept")]);
        db.insert("movies", kept.clone()).unwrap();
        let t = tuple(vec![Value::int(9), Value::str("ghost")]);
        // Ops apply in order: alone, the delete names an absent tuple.
        let delete = DeltaTx::new().delete("movies", t.clone());
        let err = db.clone().apply_delta(&delete).unwrap_err();
        assert!(matches!(err, StoreError::TupleNotFound { .. }), "{err:?}");
        let tx = DeltaTx::new()
            .insert("movies", t.clone())
            .delete("movies", t.clone());
        let changes = db.apply_delta(&tx).unwrap();
        assert_eq!(db.relation("movies").unwrap().tuples(), [kept]);
        // The footprint still records the value: intermediate states were
        // observable to nothing, but the triple is touched conservatively.
        assert!(changes.affects(RelId::intern("movies"), 1, &Value::str("ghost")));
    }

    #[test]
    fn duplicate_insert_adds_a_second_copy() {
        let mut db = db();
        let t = tuple(vec![Value::int(1), Value::str("a")]);
        let u = tuple(vec![Value::int(2), Value::str("b")]);
        db.insert("movies", t.clone()).unwrap();
        db.insert("movies", u.clone()).unwrap();
        let tx = DeltaTx::new().insert("movies", t.clone());
        db.apply_delta(&tx).unwrap();
        assert_eq!(
            db.relation("movies").unwrap().tuples(),
            [t.clone(), u.clone(), t.clone()]
        );
        // A delete removes the first equal tuple in id order.
        db.apply_delta(&DeltaTx::new().delete("movies", t.clone()))
            .unwrap();
        assert_eq!(db.relation("movies").unwrap().tuples(), [u, t]);
    }

    #[test]
    fn delete_removes_first_occurrence_and_renumbers() {
        let mut db = db();
        for (i, title) in ["a", "b", "a"].iter().enumerate() {
            db.insert(
                "movies",
                tuple(vec![Value::int(i as i64), Value::str(*title)]),
            )
            .unwrap();
        }
        let rel = db.relation_mut("movies").unwrap();
        let id = rel
            .delete(&tuple(vec![Value::int(0), Value::str("a")]))
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(rel.len(), 2);
        // Ids shifted down; indexes stay consistent and sorted.
        assert_eq!(rel.select_eq(1, &Value::str("b")), &[0]);
        assert_eq!(rel.select_eq(1, &Value::str("a")), &[1]);
        assert_eq!(rel.tuple(1).unwrap().value(0), Some(&Value::int(2)));
    }

    #[test]
    fn delete_of_absent_tuple_is_typed() {
        let mut db = db();
        let err = db
            .apply_delta(
                &DeltaTx::new().delete("movies", tuple(vec![Value::int(404), Value::str("nope")])),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::TupleNotFound { .. }), "{err:?}");
        assert!(err.to_string().contains("movies"), "{err}");
    }

    #[test]
    fn unknown_relation_and_arity_are_typed() {
        let mut db = db();
        let err = db
            .apply_delta(&DeltaTx::new().insert("ghost", tuple(vec![Value::int(1)])))
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownRelation(_)), "{err:?}");
        let err = db
            .apply_delta(&DeltaTx::new().insert("movies", tuple(vec![Value::int(1)])))
            .unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }), "{err:?}");
    }
}
