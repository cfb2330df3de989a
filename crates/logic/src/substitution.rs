//! Variable substitutions (θ in θ-subsumption).

use std::collections::HashMap;

use crate::term::{Term, Var};

/// A substitution maps variables to terms.
///
/// Applying a substitution to a term replaces mapped variables; constants and
/// unmapped variables are left untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: HashMap<Var, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Self {
        Substitution::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The binding of a variable, if any.
    pub fn get(&self, var: Var) -> Option<&Term> {
        self.map.get(&var)
    }

    /// Bind `var` to `term`, overwriting any previous binding.
    pub fn bind(&mut self, var: Var, term: Term) {
        self.map.insert(var, term);
    }

    /// Remove the binding of `var`, returning it. Used by the subsumption
    /// search to unwind its binding trail instead of cloning the whole
    /// substitution at every backtracking point.
    pub fn remove(&mut self, var: Var) -> Option<Term> {
        self.map.remove(&var)
    }

    /// Try to bind `var` to `term`; fails (returns `false`) when the variable
    /// is already bound to a different term.
    pub fn try_bind(&mut self, var: Var, term: Term) -> bool {
        match self.map.get(&var) {
            Some(existing) => *existing == term,
            None => {
                self.map.insert(var, term);
                true
            }
        }
    }

    /// Apply the substitution to a term.
    pub fn apply(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(v).cloned().unwrap_or(*term),
            Term::Const(_) => *term,
        }
    }

    /// Apply the substitution to a slice of terms.
    pub fn apply_all(&self, terms: &[Term]) -> Vec<Term> {
        self.apply_iter(terms).collect()
    }

    /// Apply the substitution to a slice of terms lazily. Use this instead of
    /// [`Substitution::apply_all`] wherever the result is consumed by
    /// iteration (or collected into an existing buffer): it performs no
    /// intermediate allocation.
    pub fn apply_iter<'a>(&'a self, terms: &'a [Term]) -> impl Iterator<Item = Term> + 'a {
        terms.iter().map(|t| self.apply(t))
    }

    /// Iterate over the bindings in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Term)> {
        self.map.iter()
    }
}

impl FromIterator<(Var, Term)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        Substitution {
            map: iter.into_iter().collect(),
        }
    }
}

/// A substitution over a clause-local **dense** variable numbering: variable
/// `Var(i)` is bound by writing slot `i` of a flat `Vec<Option<Term>>`.
///
/// This is the θ representation of the subsumption matcher's inner loop:
/// `get`/`bind`/`remove` are direct array accesses (no hashing), and the
/// trail-based backtracking of the search unwinds bindings with `O(1)` slot
/// writes. It is only valid for clauses whose variables have been renumbered
/// to `0..n` (see [`crate::numbering::NumberedClause`]); the hash-keyed
/// [`Substitution`] remains the general-purpose representation for arbitrary
/// variable indices (renamings, repair application, witnesses).
///
/// Terms in the *range* of the substitution are unrestricted — they may be
/// constants or variables of the right-hand clause with arbitrary indices
/// (including the `Var(u32::MAX)` sentinel used by the pair checker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSubstitution {
    slots: Vec<Option<Term>>,
    bound: usize,
}

impl FlatSubstitution {
    /// The empty substitution over a clause with `var_count` variables.
    pub fn new(var_count: usize) -> Self {
        FlatSubstitution {
            slots: vec![None; var_count],
            bound: 0,
        }
    }

    /// Number of slots (the clause's variable count), bound or not.
    pub fn var_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bound
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bound == 0
    }

    /// The binding of a variable, if any. Variables outside the numbering
    /// are unbound by definition.
    pub fn get(&self, var: Var) -> Option<&Term> {
        self.slots
            .get(var.0 as usize)
            .and_then(|slot| slot.as_ref())
    }

    /// Bind `var` to `term`, overwriting any previous binding.
    ///
    /// # Panics
    /// Panics when `var` is outside the clause-local numbering — binding a
    /// foreign variable is always a bug in the caller.
    pub fn bind(&mut self, var: Var, term: Term) {
        let slot = &mut self.slots[var.0 as usize];
        if slot.is_none() {
            self.bound += 1;
        }
        *slot = Some(term);
    }

    /// Remove the binding of `var`, returning it. This is the `O(1)` trail
    /// unwind of the subsumption search.
    pub fn remove(&mut self, var: Var) -> Option<Term> {
        let taken = self
            .slots
            .get_mut(var.0 as usize)
            .and_then(|slot| slot.take());
        if taken.is_some() {
            self.bound -= 1;
        }
        taken
    }

    /// Apply the substitution to a term.
    pub fn apply(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => self.get(*v).copied().unwrap_or(*term),
            Term::Const(_) => *term,
        }
    }

    /// Apply the substitution to a slice of terms lazily (no allocation).
    pub fn apply_iter<'a>(&'a self, terms: &'a [Term]) -> impl Iterator<Item = Term> + 'a {
        terms.iter().map(|t| self.apply(t))
    }

    /// Iterate over the bindings in slot (variable-index) order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Term)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (Var(i as u32), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_replaces_bound_variables_only() {
        let mut s = Substitution::new();
        s.bind(Var(0), Term::constant("a"));
        assert_eq!(s.apply(&Term::var(0)), Term::constant("a"));
        assert_eq!(s.apply(&Term::var(1)), Term::var(1));
        assert_eq!(s.apply(&Term::constant(3i64)), Term::constant(3i64));
    }

    #[test]
    fn try_bind_is_consistent() {
        let mut s = Substitution::new();
        assert!(s.try_bind(Var(0), Term::constant("a")));
        assert!(s.try_bind(Var(0), Term::constant("a")));
        assert!(!s.try_bind(Var(0), Term::constant("b")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_iterator_collects_bindings() {
        let s: Substitution = vec![(Var(0), Term::var(5)), (Var(1), Term::constant(7i64))]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.apply_all(&[Term::var(0), Term::var(1)]),
            vec![Term::var(5), Term::constant(7i64)]
        );
    }
}
