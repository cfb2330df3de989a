//! Horn clauses with repair groups, and Horn definitions.

use std::collections::BTreeSet;
use std::fmt;

use dlearn_relstore::FxHashMap;

use crate::literal::Literal;
use crate::repair::RepairGroup;
use crate::substitution::Substitution;
use crate::term::{Term, Var};

/// A Horn clause `head ← body` extended with repair groups.
///
/// The body holds relation, similarity, equality and inequality literals in
/// construction order (which doubles as the total order used by the
/// generalization algorithm); `repairs` holds the clause's repair literals
/// grouped by repair operation (see [`RepairGroup`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// Head literal (always a relation literal).
    pub head: Literal,
    /// Body literals in construction order.
    pub body: Vec<Literal>,
    /// Repair groups attached to the clause.
    pub repairs: Vec<RepairGroup>,
}

impl Clause {
    /// Create a clause with an empty body.
    pub fn new(head: Literal) -> Self {
        debug_assert!(head.is_relation(), "clause heads must be relation literals");
        Clause {
            head,
            body: Vec::new(),
            repairs: Vec::new(),
        }
    }

    /// `true` when the clause has no repair groups (a *repaired clause* in
    /// the paper's terminology).
    pub fn is_repaired(&self) -> bool {
        self.repairs.is_empty()
    }

    /// All variables appearing in the head, body or repair groups.
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut vars = self.head.variables();
        for l in &self.body {
            vars.extend(l.variables());
        }
        for g in &self.repairs {
            vars.extend(g.variables());
        }
        vars
    }

    /// The largest variable index used in the clause, if any.
    pub fn max_var_index(&self) -> Option<u32> {
        self.variables().iter().map(|v| v.0).max()
    }

    /// Number of body literals.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Add a body literal if not already present; returns `true` when added.
    pub fn push_unique(&mut self, literal: Literal) -> bool {
        if self.body.contains(&literal) {
            false
        } else {
            self.body.push(literal);
            true
        }
    }

    /// Add a repair group.
    pub fn push_repair(&mut self, group: RepairGroup) {
        self.repairs.push(group);
    }

    /// Apply a substitution to head, body and repair groups, removing
    /// trivially true equality literals (`x = x`) that the substitution may
    /// create and deduplicating body literals.
    pub fn apply(&self, subst: &Substitution) -> Clause {
        let head = self.head.apply(subst);
        let mut body: Vec<Literal> = Vec::with_capacity(self.body.len());
        for l in &self.body {
            let nl = l.apply(subst);
            if let Literal::Equal(a, b) = &nl {
                if a == b {
                    continue;
                }
            }
            if !body.contains(&nl) {
                body.push(nl);
            }
        }
        let repairs = self.repairs.iter().map(|g| g.apply(subst)).collect();
        Clause {
            head,
            body,
            repairs,
        }
    }

    /// Keep only head-connected body literals (Section 2.1: a literal is
    /// head-connected when it shares a variable with the head or with another
    /// head-connected literal), then drop repair groups that are no longer
    /// connected to any remaining relation literal or the head.
    ///
    /// Connectivity is one union–find pass over dense variable ids: every
    /// body literal joins its variables, and a literal is head-connected
    /// when it is ground or its variables share the head's component.
    pub fn retain_head_connected(&mut self) {
        let mut vars = VarComponents::with_capacity(
            self.body.iter().map(|l| l.terms().count()).sum::<usize>() + self.head.terms().count(),
        );
        let mut head_root = None;
        for t in self.head.terms() {
            if let Term::Var(v) = t {
                let id = vars.id(*v);
                head_root = Some(head_root.map_or(id, |root| vars.sets.union(root, id)));
            }
        }
        let firsts: Vec<Option<u32>> = self
            .body
            .iter()
            .map(|l| {
                let mut first = None;
                for t in l.terms() {
                    if let Term::Var(v) = t {
                        let id = vars.id(*v);
                        first = Some(first.map_or(id, |f| vars.sets.union(f, id)));
                    }
                }
                first
            })
            .collect();
        let head_root = head_root.map(|root| vars.sets.find(root));
        // Ground literals are kept: they are trivially connected through
        // constants that came from the example walk.
        let mut kept = firsts
            .iter()
            .map(|first| first.is_none_or(|id| Some(vars.sets.find(id)) == head_root));
        self.body
            .retain(|_| kept.next().expect("one flag per literal"));
        // Section 3.2 cleanup: similarity/equality/inequality literals whose
        // variables no longer appear in the head or in any schema relation
        // literal constrain nothing and are dropped.
        let mut schema = vec![false; vars.sets.len()];
        let mark = |marks: &mut Vec<bool>, l: &Literal| {
            for t in l.terms() {
                if let Term::Var(v) = t {
                    marks[vars.get(*v).expect("clause variable") as usize] = true;
                }
            }
        };
        mark(&mut schema, &self.head);
        for l in self.body.iter().filter(|l| l.is_relation()) {
            mark(&mut schema, l);
        }
        self.body.retain(|l| {
            l.is_relation()
                || l.terms().all(|t| match t {
                    Term::Var(v) => schema[vars.get(*v).expect("clause variable") as usize],
                    Term::Const(_) => true,
                })
        });
        // Repair groups must stay connected to the surviving literals.
        let mut live = vec![false; vars.sets.len()];
        mark(&mut live, &self.head);
        for l in &self.body {
            mark(&mut live, l);
        }
        // A repair survives only while every variable it replaces is still in
        // the clause: an MD repair that lost one side of its match (because
        // the literal carrying it was dropped) can no longer unify anything.
        self.repairs.retain(|g| {
            g.replacements
                .iter()
                .all(|(v, _)| vars.get(*v).is_some_and(|id| live[id as usize]))
        });
    }

    /// Remove the body literal at `index` along with repair groups whose only
    /// connection to the clause was through that literal, then re-establish
    /// head-connectedness. Used by generalization to drop blocking literals.
    pub fn remove_body_literal(&mut self, index: usize) {
        if index >= self.body.len() {
            return;
        }
        self.body.remove(index);
        self.retain_head_connected();
    }
}

/// Dense ids for a clause's variables with a union–find over them.
struct VarComponents {
    ids: FxHashMap<Var, u32>,
    sets: UnionFind,
}

impl VarComponents {
    fn with_capacity(vars: usize) -> Self {
        VarComponents {
            ids: FxHashMap::with_capacity_and_hasher(vars, Default::default()),
            sets: UnionFind::with_capacity(vars),
        }
    }

    fn get(&self, v: Var) -> Option<u32> {
        self.ids.get(&v).copied()
    }

    fn id(&mut self, v: Var) -> u32 {
        let next = self.sets.len() as u32;
        let id = *self.ids.entry(v).or_insert(next);
        if id == next {
            self.sets.push();
        }
        id
    }
}

/// A union–find over the dense ids `0..len`, halving paths as it finds.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets, with ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn with_capacity(n: usize) -> Self {
        UnionFind {
            parent: Vec::with_capacity(n),
        }
    }

    /// Add a singleton set.
    fn push(&mut self) {
        self.parent.push(self.parent.len() as u32);
    }

    /// The number of ids.
    fn len(&self) -> usize {
        self.parent.len()
    }

    /// The root of `x`'s set.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Join the sets of `a` and `b`, returning the joined root.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
        ra
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← ", self.head)?;
        let mut parts: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        parts.extend(self.repairs.iter().map(|g| g.render()));
        write!(f, "{}", parts.join(", "))
    }
}

/// A Horn definition: a set of clauses sharing the same head relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Definition {
    clauses: Vec<Clause>,
}

impl Definition {
    /// Empty definition.
    pub fn new() -> Self {
        Definition::default()
    }

    /// Add a clause.
    pub fn push(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// The clauses of the definition.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when the definition has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Iterate over clauses.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }
}

impl fmt::Display for Definition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{CondAtom, RepairOrigin};

    fn sample_clause() -> Clause {
        // target(v0) <- movies(v1, v2, v3), mov2genres(v1, 'comedy'), v0 ≈ v2
        let mut c = Clause::new(Literal::relation("target", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        c
    }

    #[test]
    fn push_unique_deduplicates() {
        let mut c = sample_clause();
        let before = c.body_len();
        assert!(!c.push_unique(Literal::Similar(Term::var(0), Term::var(2))));
        assert_eq!(c.body_len(), before);
    }

    #[test]
    fn variables_and_max_index() {
        let c = sample_clause();
        assert_eq!(c.variables().len(), 4);
        assert_eq!(c.max_var_index(), Some(3));
    }

    #[test]
    fn apply_removes_trivial_equalities_and_duplicates() {
        let mut c = sample_clause();
        c.push_unique(Literal::Equal(Term::var(4), Term::var(5)));
        let mut s = Substitution::new();
        s.bind(Var(4), Term::var(6));
        s.bind(Var(5), Term::var(6));
        let c2 = c.apply(&s);
        assert!(!c2
            .body
            .iter()
            .any(|l| matches!(l, Literal::Equal(a, b) if a == b)));
    }

    #[test]
    fn retain_head_connected_drops_disconnected_literals() {
        let mut c = sample_clause();
        c.push_unique(Literal::relation("orphan", vec![Term::var(9)]));
        c.retain_head_connected();
        assert!(!c.body.iter().any(|l| l.relation_name() == Some("orphan")));
        // The connected chain target -> similar -> movies -> genres survives.
        assert_eq!(c.body.len(), 3);
    }

    #[test]
    fn removing_a_literal_can_disconnect_downstream_literals() {
        let mut c = sample_clause();
        // Removing the similarity literal (index 2) disconnects movies and genres.
        c.remove_body_literal(2);
        assert!(c.body.is_empty(), "body should be empty, got {c}");
    }

    #[test]
    fn repair_groups_follow_their_variables() {
        let mut c = sample_clause();
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(2))],
            vec![(Var(0), Term::var(7)), (Var(2), Term::var(7))],
            vec![Literal::Similar(Term::var(0), Term::var(2))],
        ));
        let mut dropped = c.clone();
        dropped.remove_body_literal(2);
        assert!(
            dropped.repairs.is_empty(),
            "repair should drop with its literals"
        );
        c.retain_head_connected();
        assert_eq!(c.repairs.len(), 1);
    }

    #[test]
    fn canonical_string_is_stable_under_variable_renaming() {
        let c = sample_clause();
        let mut renaming = Substitution::new();
        renaming.bind(Var(0), Term::var(10));
        renaming.bind(Var(1), Term::var(11));
        renaming.bind(Var(2), Term::var(12));
        renaming.bind(Var(3), Term::var(13));
        let renamed = c.apply(&renaming);
        assert_eq!(c.canonical_string(), renamed.canonical_string());
    }

    #[test]
    fn definition_display_lists_clauses() {
        let mut d = Definition::new();
        d.push(sample_clause());
        d.push(sample_clause());
        assert_eq!(d.len(), 2);
        let text = d.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("target(v0)"));
    }

    #[test]
    fn ground_literals_survive_head_connected_cleanup() {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("facts", vec![Term::constant("k")]));
        c.retain_head_connected();
        assert_eq!(c.body.len(), 1);
    }
}
