//! Literals of the extended Horn-clause language.
//!
//! Besides ordinary relation literals the language contains the similarity
//! literal `x ≈ y`, equality / inequality literals (restriction and induced
//! equality literals of Section 3.2), all over [`Term`]s. Repair literals are
//! represented separately as [`crate::repair::RepairGroup`]s attached to the
//! clause, because a repair is applied as a unit (a substitution plus the
//! removal of its induced literals); the rendering still shows them in the
//! paper's `V_c(x, v_x)` notation.
//!
//! Relation literals carry an interned [`RelId`] rather than an owned
//! `String`: constructing, cloning and comparing literals never touches
//! string data, which is what the θ-subsumption matcher depends on.

use std::collections::BTreeSet;
use std::fmt;

use dlearn_relstore::RelId;

use crate::substitution::Substitution;
use crate::term::{Term, Var};

/// A body or head literal (excluding repair literals).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// A schema relation literal `R(t1, ..., tn)`.
    Relation {
        /// Interned relation name.
        relation: RelId,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// Similarity literal `x ≈ y`.
    Similar(Term, Term),
    /// Equality literal `x = y`.
    Equal(Term, Term),
    /// Inequality literal `x ≠ y`.
    NotEqual(Term, Term),
}

impl Literal {
    /// Build a relation literal (interning the name when given as a string).
    pub fn relation(relation: impl Into<RelId>, args: Vec<Term>) -> Self {
        Literal::Relation {
            relation: relation.into(),
            args,
        }
    }

    /// `true` when this is a relation literal.
    pub fn is_relation(&self) -> bool {
        matches!(self, Literal::Relation { .. })
    }

    /// Name of the relation for relation literals.
    pub fn relation_name(&self) -> Option<&'static str> {
        self.relation_id().map(RelId::as_str)
    }

    /// Interned relation id for relation literals.
    pub fn relation_id(&self) -> Option<RelId> {
        match self {
            Literal::Relation { relation, .. } => Some(*relation),
            _ => None,
        }
    }

    /// Argument terms of the literal.
    pub fn args(&self) -> Vec<&Term> {
        match self {
            Literal::Relation { args, .. } => args.iter().collect(),
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                vec![a, b]
            }
        }
    }

    /// Argument terms of the literal, without allocating.
    pub(crate) fn terms(&self) -> impl Iterator<Item = &Term> {
        let (head, tail): (&[Term], Option<&Term>) = match self {
            Literal::Relation { args, .. } => (args, None),
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                (std::slice::from_ref(a), Some(b))
            }
        };
        head.iter().chain(tail)
    }

    /// Mutable access to the argument terms, in [`Literal::terms`] order.
    pub(crate) fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let (head, tail): (&mut [Term], Option<&mut Term>) = match self {
            Literal::Relation { args, .. } => (args, None),
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                (std::slice::from_mut(a), Some(b))
            }
        };
        head.iter_mut().chain(tail)
    }

    /// The literal's [`Shape`].
    pub(crate) fn shape(&self) -> Shape {
        match self {
            Literal::Relation { relation, .. } => Shape::Relation(*relation),
            Literal::Similar(_, _) => Shape::Similar,
            Literal::Equal(_, _) => Shape::Equal,
            Literal::NotEqual(_, _) => Shape::NotEqual,
        }
    }

    /// Variables occurring in the literal.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.args().into_iter().filter_map(|t| t.as_var()).collect()
    }

    /// Apply a substitution, producing a new literal.
    pub fn apply(&self, subst: &Substitution) -> Literal {
        match self {
            Literal::Relation { relation, args } => Literal::Relation {
                relation: *relation,
                args: subst.apply_iter(args).collect(),
            },
            Literal::Similar(a, b) => Literal::Similar(subst.apply(a), subst.apply(b)),
            Literal::Equal(a, b) => Literal::Equal(subst.apply(a), subst.apply(b)),
            Literal::NotEqual(a, b) => Literal::NotEqual(subst.apply(a), subst.apply(b)),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Relation { relation, args } => {
                write_literal(f, Shape::Relation(*relation), args)
            }
            Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b) => {
                write_literal(f, self.shape(), &[*a, *b])
            }
        }
    }
}

/// A literal's kind without its arguments: the relation of a relation
/// literal, or which binary constraint it is. Paired with an argument slice
/// it is the flat literal form of clause canonicalization and expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Shape {
    Relation(RelId),
    Similar,
    Equal,
    NotEqual,
}

/// Write the rendering of the literal `shape(args)` — the one definition
/// behind `Display` for [`Literal`] and the canonical-form renderer, which
/// orders literals by exactly these bytes.
pub(crate) fn write_literal<W: fmt::Write>(
    out: &mut W,
    shape: Shape,
    args: &[Term],
) -> fmt::Result {
    let infix = match shape {
        Shape::Relation(relation) => {
            out.write_str(relation.as_str())?;
            out.write_char('(')?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                a.write_to(out)?;
            }
            return out.write_char(')');
        }
        Shape::Similar => " ≈ ",
        Shape::Equal => " = ",
        Shape::NotEqual => " ≠ ",
    };
    args[0].write_to(out)?;
    out.write_str(infix)?;
    args[1].write_to(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_literal_accessors() {
        let l = Literal::relation("movies", vec![Term::var(0), Term::constant("Superbad")]);
        assert!(l.is_relation());
        assert_eq!(l.relation_name(), Some("movies"));
        assert_eq!(l.relation_id(), Some(RelId::intern("movies")));
        assert_eq!(l.args().len(), 2);
        assert_eq!(l.variables().len(), 1);
    }

    #[test]
    fn apply_substitutes_arguments() {
        let mut s = Substitution::new();
        s.bind(Var(0), Term::constant(7i64));
        let l = Literal::relation("r", vec![Term::var(0), Term::var(1)]);
        assert_eq!(
            l.apply(&s),
            Literal::relation("r", vec![Term::constant(7i64), Term::var(1)])
        );
        let sim = Literal::Similar(Term::var(0), Term::var(1)).apply(&s);
        assert_eq!(sim, Literal::Similar(Term::constant(7i64), Term::var(1)));
    }

    #[test]
    fn display_uses_datalog_notation() {
        let l = Literal::relation("mov2genres", vec![Term::var(1), Term::constant("comedy")]);
        assert_eq!(l.to_string(), "mov2genres(v1, 'comedy')");
        assert_eq!(
            Literal::Equal(Term::var(0), Term::var(2)).to_string(),
            "v0 = v2"
        );
        assert_eq!(
            Literal::Similar(Term::var(0), Term::var(2)).to_string(),
            "v0 ≈ v2"
        );
    }
}
