//! Tuples: ordered sequences of values conforming to a relation schema.

use std::fmt;

use crate::value::Value;

/// A tuple of attribute values.
///
/// Tuples are schema-agnostic containers; arity and type checking happen on
/// insertion into a [`crate::relation::Relation`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Create a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of values in the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at a given position.
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// All values, in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replace the value at `index`, returning the previous value.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn set_value(&mut self, index: usize, value: Value) -> Value {
        std::mem::replace(&mut self.values[index], value)
    }

    /// Iterate over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v.render())?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Convenience macro-free constructor used pervasively in tests and data
/// generators: builds a tuple from anything convertible into [`Value`].
pub fn tuple<I, V>(values: I) -> Tuple
where
    I: IntoIterator<Item = V>,
    V: Into<Value>,
{
    Tuple::new(values.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_accessors() {
        let t = tuple(vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.value(0), Some(&Value::int(1)));
        assert_eq!(t.value(5), None);
    }

    #[test]
    fn set_value_replaces_and_returns_previous() {
        let mut t = tuple(vec![Value::str("x"), Value::str("y")]);
        let old = t.set_value(1, Value::str("z"));
        assert_eq!(old, Value::str("y"));
        assert_eq!(t.value(1), Some(&Value::str("z")));
    }

    #[test]
    fn display_renders_values() {
        let t = tuple(vec![Value::int(3), Value::str("hi")]);
        assert_eq!(t.to_string(), "(3, 'hi')");
    }

    #[test]
    fn tuples_hash_by_content() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(tuple(vec![Value::int(1)]));
        assert!(set.contains(&tuple(vec![Value::int(1)])));
        assert!(!set.contains(&tuple(vec![Value::int(2)])));
    }
}
