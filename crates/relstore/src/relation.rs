//! A relation instance: a bag of tuples plus per-attribute hash indexes.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::intern::RelId;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Identifier of a tuple inside one relation (its insertion position).
pub type TupleId = usize;

/// A relation instance.
///
/// Tuples are stored in insertion order. Every attribute has a lazily built
/// hash index mapping a value to the ids of tuples holding that value, which
/// backs the equality selections used by bottom-clause construction
/// (`σ_{A ∈ M}(R)` in Algorithm 2 of the paper).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    /// One index per attribute: value -> tuple ids.
    indexes: Vec<HashMap<Value, Vec<TupleId>>>,
}

impl Relation {
    /// Create an empty relation instance for the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            tuples: Vec::new(),
            indexes: vec![HashMap::new(); arity],
        }
    }

    /// The relation schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &'static str {
        self.schema.name.as_str()
    }

    /// The interned relation id.
    pub fn rel_id(&self) -> RelId {
        self.schema.name
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple after arity and type validation; returns its id.
    pub fn insert(&mut self, tuple: Tuple) -> Result<TupleId, StoreError> {
        if tuple.arity() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                relation: self.schema.name.as_str().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, value) in tuple.values().iter().enumerate() {
            let attr = &self.schema.attributes[i];
            if !attr.ty.accepts(value.value_type()) {
                return Err(StoreError::TypeMismatch {
                    relation: self.schema.name.as_str().to_string(),
                    attribute: attr.name.as_str().to_string(),
                });
            }
        }
        let id = self.tuples.len();
        for (i, value) in tuple.values().iter().enumerate() {
            self.indexes[i].entry(*value).or_default().push(id);
        }
        self.tuples.push(tuple);
        Ok(id)
    }

    /// Tuple by id.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.tuples.get(id)
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterate over `(id, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.tuples.iter().enumerate()
    }

    /// Equality selection: ids of tuples whose `attribute` equals `value`.
    pub fn select_eq(&self, attribute: usize, value: &Value) -> &[TupleId] {
        static EMPTY: [TupleId; 0] = [];
        self.indexes
            .get(attribute)
            .and_then(|idx| idx.get(value))
            .map(|v| v.as_slice())
            .unwrap_or(&EMPTY)
    }

    /// Equality selection by attribute name.
    pub fn select_eq_by_name(
        &self,
        attribute: &str,
        value: &Value,
    ) -> Result<&[TupleId], StoreError> {
        let idx = self.schema.require_attribute_index(attribute)?;
        Ok(self.select_eq(idx, value))
    }

    /// Distinct values appearing in an attribute column.
    pub fn distinct_values(&self, attribute: usize) -> Vec<&Value> {
        self.indexes
            .get(attribute)
            .map(|idx| idx.keys().collect())
            .unwrap_or_default()
    }

    /// Replace the value of `attribute` in the tuple `id`, keeping indexes
    /// consistent. Used by CFD repair of a database instance.
    pub fn update_value(
        &mut self,
        id: TupleId,
        attribute: usize,
        value: Value,
    ) -> Result<(), StoreError> {
        if attribute >= self.schema.arity() {
            return Err(StoreError::UnknownAttribute {
                relation: self.schema.name.as_str().to_string(),
                attribute: format!("#{attribute}"),
            });
        }
        let attr = &self.schema.attributes[attribute];
        if !attr.ty.accepts(value.value_type()) {
            return Err(StoreError::TypeMismatch {
                relation: self.schema.name.as_str().to_string(),
                attribute: attr.name.as_str().to_string(),
            });
        }
        let Some(t) = self.tuples.get_mut(id) else {
            return Ok(());
        };
        let old = t.set_value(attribute, value);
        if old != value {
            if let Some(ids) = self.indexes[attribute].get_mut(&old) {
                ids.retain(|&tid| tid != id);
                if ids.is_empty() {
                    self.indexes[attribute].remove(&old);
                }
            }
            self.indexes[attribute].entry(value).or_default().push(id);
        }
        Ok(())
    }

    /// Delete the first tuple equal to `t` (by insertion order), keeping the
    /// per-attribute indexes consistent; returns the removed tuple's old id.
    ///
    /// Tuple ids are insertion positions, so every surviving tuple past the
    /// removed one shifts down by one — an order-preserving renumbering. The
    /// index posting lists stay sorted ascending under that shift, which is
    /// what keeps `select_eq` results in insertion order after any sequence
    /// of deletes.
    pub fn delete(&mut self, t: &Tuple) -> Result<TupleId, StoreError> {
        if t.arity() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                relation: self.schema.name.as_str().to_string(),
                expected: self.schema.arity(),
                actual: t.arity(),
            });
        }
        let found = if self.schema.arity() == 0 {
            if self.tuples.is_empty() {
                None
            } else {
                Some(0)
            }
        } else {
            self.select_eq(0, &t.values()[0])
                .iter()
                .copied()
                .find(|&id| &self.tuples[id] == t)
        };
        let Some(id) = found else {
            return Err(StoreError::TupleNotFound {
                relation: self.schema.name.as_str().to_string(),
                tuple: t.to_string(),
            });
        };
        self.tuples.remove(id);
        for index in &mut self.indexes {
            for ids in index.values_mut() {
                ids.retain(|&tid| tid != id);
                for tid in ids.iter_mut() {
                    if *tid > id {
                        *tid -= 1;
                    }
                }
            }
            index.retain(|_, ids| !ids.is_empty());
        }
        Ok(id)
    }

    /// `true` when the relation contains a tuple equal to `t`.
    pub fn contains(&self, t: &Tuple) -> bool {
        if t.arity() != self.schema.arity() {
            return false;
        }
        if self.schema.arity() == 0 {
            return !self.tuples.is_empty();
        }
        self.select_eq(0, &t.values()[0])
            .iter()
            .any(|&id| &self.tuples[id] == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::tuple::tuple;

    fn rel() -> Relation {
        Relation::new(RelationSchema::new(
            "movies",
            vec![
                Attribute::int("id"),
                Attribute::str("title"),
                Attribute::int("year"),
            ],
        ))
    }

    #[test]
    fn insert_and_select_eq() {
        let mut r = rel();
        r.insert(tuple(vec![
            Value::int(1),
            Value::str("Superbad"),
            Value::int(2007),
        ]))
        .unwrap();
        r.insert(tuple(vec![
            Value::int(2),
            Value::str("Zoolander"),
            Value::int(2001),
        ]))
        .unwrap();
        r.insert(tuple(vec![
            Value::int(3),
            Value::str("Superbad"),
            Value::int(2007),
        ]))
        .unwrap();

        let hits = r
            .select_eq_by_name("title", &Value::str("Superbad"))
            .unwrap();
        assert_eq!(hits, &[0, 2]);
        assert_eq!(
            r.select_eq_by_name("year", &Value::int(1999)).unwrap(),
            &[] as &[usize]
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn insert_rejects_wrong_arity_and_type() {
        let mut r = rel();
        let err = r.insert(tuple(vec![Value::int(1)])).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
        let err = r
            .insert(tuple(vec![Value::str("x"), Value::str("t"), Value::int(1)]))
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn nulls_are_accepted_in_any_attribute() {
        let mut r = rel();
        r.insert(Tuple::new(vec![Value::int(1), Value::Null, Value::Null]))
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn update_value_keeps_indexes_consistent() {
        let mut r = rel();
        let id = r
            .insert(tuple(vec![
                Value::int(1),
                Value::str("Bait"),
                Value::int(2000),
            ]))
            .unwrap();
        r.update_value(id, 1, Value::str("Bait 2")).unwrap();
        assert!(r.select_eq(1, &Value::str("Bait")).is_empty());
        assert_eq!(r.select_eq(1, &Value::str("Bait 2")), &[id]);
        assert_eq!(r.tuple(id).unwrap().value(1), Some(&Value::str("Bait 2")));
    }

    #[test]
    fn contains_checks_full_tuple_equality() {
        let mut r = rel();
        r.insert(tuple(vec![Value::int(1), Value::str("a"), Value::int(2)]))
            .unwrap();
        assert!(r.contains(&tuple(vec![Value::int(1), Value::str("a"), Value::int(2)])));
        assert!(!r.contains(&tuple(vec![Value::int(1), Value::str("a"), Value::int(3)])));
        assert!(!r.contains(&tuple(vec![Value::int(1)])));
    }

    #[test]
    fn distinct_values_and_counts() {
        let mut r = rel();
        r.insert(tuple(vec![
            Value::int(1),
            Value::str("a"),
            Value::int(2000),
        ]))
        .unwrap();
        r.insert(tuple(vec![
            Value::int(2),
            Value::str("a"),
            Value::int(2001),
        ]))
        .unwrap();
        assert_eq!(r.distinct_values(1).len(), 1);
        assert_eq!(r.select_eq(1, &Value::str("a")).len(), 2);
        assert_eq!(r.distinct_values(2).len(), 2);
    }
}
