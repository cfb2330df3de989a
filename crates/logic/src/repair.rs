//! Repair groups: the clause-level representation of repair literals.
//!
//! Section 3.2 of the paper adds *repair literals* `V_c(x, v_x)` to clauses:
//! each represents replacing `x` with `v_x` if condition `c` holds, and the
//! restriction literals tie replacement variables of the same repair
//! operation together. A clause with repair literals is a compact
//! representation of its *repaired clauses*, obtained by iteratively applying
//! (or discarding, when the condition fails) the repair literals.
//!
//! We group the repair literals that belong to one repair operation — e.g.
//! the pair `V_{x≈t}(x, v_x), V_{x≈t}(t, v_t)` together with the restriction
//! literal `v_x = v_t` introduced for one MD match — into a [`RepairGroup`]
//! that is applied atomically: a substitution over the clause plus the
//! removal of the induced literals that the repair consumes. This keeps the
//! semantics of Sections 3.2/4.1 while making application and subsumption
//! (Definition 4.4) straightforward to implement.

use std::collections::BTreeSet;
use std::fmt;

use crate::literal::Literal;
use crate::substitution::Substitution;
use crate::term::{Term, Var};

/// Which constraint a repair group originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RepairOrigin {
    /// Enforcing the `i`-th matching dependency of the task.
    Md(usize),
    /// Repairing a violation of the `i`-th conditional functional dependency.
    Cfd(usize),
}

impl fmt::Display for RepairOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairOrigin::Md(i) => write!(f, "md{i}"),
            RepairOrigin::Cfd(i) => write!(f, "cfd{i}"),
        }
    }
}

/// One atom of a repair condition (`c` in `V_c(x, v_x)`): a conjunction of
/// these is evaluated against the clause body when the repair is applied.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CondAtom {
    /// The two terms must be equal (identical, or related by an equality
    /// literal in the body).
    Eq(Term, Term),
    /// The two terms must be distinct (different constants, or variables with
    /// no equality literal between them).
    Neq(Term, Term),
    /// The two terms must be similar (related by a similarity literal, or
    /// identical).
    Sim(Term, Term),
}

impl CondAtom {
    /// Apply a substitution to both sides of the atom.
    pub fn apply(&self, subst: &Substitution) -> CondAtom {
        match self {
            CondAtom::Eq(a, b) => CondAtom::Eq(subst.apply(a), subst.apply(b)),
            CondAtom::Neq(a, b) => CondAtom::Neq(subst.apply(a), subst.apply(b)),
            CondAtom::Sim(a, b) => CondAtom::Sim(subst.apply(a), subst.apply(b)),
        }
    }

    /// Variables mentioned by the atom.
    pub fn variables(&self) -> BTreeSet<Var> {
        let (a, b) = match self {
            CondAtom::Eq(a, b) | CondAtom::Neq(a, b) | CondAtom::Sim(a, b) => (a, b),
        };
        [a, b].into_iter().filter_map(|t| t.as_var()).collect()
    }
}

impl fmt::Display for CondAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondAtom::Eq(a, b) => write!(f, "{a} = {b}"),
            CondAtom::Neq(a, b) => write!(f, "{a} ≠ {b}"),
            CondAtom::Sim(a, b) => write!(f, "{a} ≈ {b}"),
        }
    }
}

/// A repair group: the unit in which repair literals are applied to a clause.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RepairGroup {
    /// The constraint that induced this repair.
    pub origin: RepairOrigin,
    /// The condition `c` of the repair literals (a conjunction).
    pub condition: Vec<CondAtom>,
    /// The replacements performed when the repair fires: each `(x, v_x)`
    /// pair corresponds to one repair literal `V_c(x, v_x)`.
    pub replacements: Vec<(Var, Term)>,
    /// Induced / restriction literals that are consumed (removed from the
    /// body) when the repair fires, e.g. the similarity literal an MD match
    /// was based on.
    pub consumes: Vec<Literal>,
}

impl RepairGroup {
    /// Create a repair group.
    pub fn new(
        origin: RepairOrigin,
        condition: Vec<CondAtom>,
        replacements: Vec<(Var, Term)>,
        consumes: Vec<Literal>,
    ) -> Self {
        RepairGroup {
            origin,
            condition,
            replacements,
            consumes,
        }
    }

    /// Variables mentioned anywhere in the group (replaced variables,
    /// replacement terms and condition variables).
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut vars: BTreeSet<Var> = self.replacements.iter().map(|(v, _)| *v).collect();
        for (_, t) in &self.replacements {
            if let Some(v) = t.as_var() {
                vars.insert(v);
            }
        }
        for atom in &self.condition {
            vars.extend(atom.variables());
        }
        vars
    }

    /// Variables that the repair replaces (the `x` of each `V_c(x, v_x)`).
    pub fn targets(&self) -> BTreeSet<Var> {
        self.replacements.iter().map(|(v, _)| *v).collect()
    }

    /// Apply a substitution to every term in the group (used when another
    /// repair fires first and renames variables).
    pub fn apply(&self, subst: &Substitution) -> RepairGroup {
        RepairGroup {
            origin: self.origin,
            condition: self.condition.iter().map(|a| a.apply(subst)).collect(),
            replacements: self
                .replacements
                .iter()
                .map(|(v, t)| {
                    // Replaced variables themselves may have been renamed.
                    let new_target = match subst.apply(&Term::Var(*v)) {
                        Term::Var(nv) => nv,
                        Term::Const(_) => *v,
                    };
                    (new_target, subst.apply(t))
                })
                .collect(),
            consumes: self.consumes.iter().map(|l| l.apply(subst)).collect(),
        }
    }

    /// Render the group in the paper's repair-literal notation.
    pub fn render(&self) -> String {
        let cond = self
            .condition
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" ∧ ");
        let lits = self
            .replacements
            .iter()
            .map(|(v, t)| format!("V[{}]({}, {})", self.origin, Term::Var(*v), t))
            .collect::<Vec<_>>()
            .join(", ");
        if cond.is_empty() {
            lits
        } else {
            format!("{lits} | {cond}")
        }
    }
}

impl fmt::Display for RepairGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md_group() -> RepairGroup {
        // V_{v0 ≈ v1}(v0, v2), V_{v0 ≈ v1}(v1, v2): unify v0 and v1 into v2.
        RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(1))],
            vec![(Var(0), Term::var(2)), (Var(1), Term::var(2))],
            vec![Literal::Similar(Term::var(0), Term::var(1))],
        )
    }

    #[test]
    fn group_targets_and_variables() {
        let g = md_group();
        assert_eq!(g.targets().len(), 2);
        assert!(g.variables().contains(&Var(2)));
    }

    #[test]
    fn apply_renames_all_parts() {
        let g = md_group();
        let mut s = Substitution::new();
        s.bind(Var(0), Term::var(9));
        let g2 = g.apply(&s);
        assert_eq!(g2.replacements[0].0, Var(9));
        assert_eq!(g2.condition[0], CondAtom::Sim(Term::var(9), Term::var(1)));
        assert_eq!(g2.consumes[0], Literal::Similar(Term::var(9), Term::var(1)));
    }

    #[test]
    fn render_uses_paper_notation() {
        let g = md_group();
        let s = g.render();
        assert!(s.contains("V[md0](v0, v2)"), "{s}");
        assert!(s.contains("≈"), "{s}");
    }
}
