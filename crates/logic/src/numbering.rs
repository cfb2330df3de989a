//! Clause-local variable numbering: the renumbering pass behind the
//! flat-vector substitution.
//!
//! The θ-subsumption matcher binds only variables of the *candidate* clause
//! `C`. When those variables are dense (`0..n`), the substitution can be a
//! flat `Vec<Option<Term>>` indexed by the variable number — no hashing
//! anywhere in the inner loop, and `O(1)` trail unwinding. Clauses in the
//! wild carry arbitrary variable indices (bottom-clause construction leaves
//! gaps behind `retain_head_connected`, renamings shift by +40, …), so
//! [`NumberedClause`] renames a clause's variables to `0..n` **once** — at
//! `PreparedClause::prepare` time in the covering loop — and every later
//! subsumption/generalization call against it reuses the dense form. The
//! same pass lists, per slot, the forward checks of the subsumption search
//! that watch it (see the `subsumption` module docs); a clause without
//! constraint literals or repair groups has none.
//!
//! It also partitions the clause into the independent parts the subsumption
//! search decides one at a time. The head match binds the head's variables,
//! which the numbering puts first, so only the later slots link items: a
//! union–find over them merges the slots of each body literal and each
//! repair group (its replaced variables and replacement terms), and every
//! item takes the part of its slots, numbered in order of first appearance.
//! An item without such a slot is a part by itself. Each part's items are
//! stored as indices into the clause.
//!
//! ## Invariants
//!
//! * The numbering is assigned in **first-appearance order** over the head
//!   arguments, then the body literals in construction order, then the
//!   repair groups (replacements, condition atoms, consumed literals). It is
//!   a pure renaming: body length, literal order and repair-group structure
//!   are preserved exactly (`Clause::apply` is *not* used, because it
//!   deduplicates literals and drops trivial equalities).
//! * A `NumberedClause` is immutable. Any mutation of the underlying clause
//!   (dropping a literal during generalization, applying a repair)
//!   invalidates the numbering; mutate the *original* clause and renumber.
//! * Witness substitutions produced against the dense form are translated
//!   back to the original variable space with [`NumberedClause::to_original`],
//!   so callers never observe renumbered variables.

use dlearn_relstore::FxHashMap;

use crate::clause::Clause;
use crate::literal::Literal;
use crate::repair::{CondAtom, RepairGroup};
use crate::substitution::{FlatSubstitution, Substitution};
use crate::subsumption::{Parts, Watches};
use crate::term::{Term, Var};

/// A bijective mapping between a clause's original variables and the dense
/// range `0..n`, recorded as the original variable of each slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarNumbering {
    /// `originals[slot]` is the variable the slot was renumbered from.
    originals: Vec<Var>,
}

impl VarNumbering {
    /// Number of distinct variables in the numbering.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// `true` when the clause had no variables.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// The original variable renumbered to `slot`.
    pub fn original(&self, slot: u32) -> Var {
        self.originals[slot as usize]
    }

    /// Translate a flat substitution over the dense numbering back into a
    /// [`Substitution`] over the original variables.
    pub fn to_original(&self, flat: &FlatSubstitution) -> Substitution {
        flat.iter()
            .map(|(slot, term)| (self.original(slot.0), *term))
            .collect()
    }
}

/// A clause renamed to the dense variable range `0..n`, together with the
/// numbering that undoes the renaming. This is the candidate-side handle the
/// flat-substitution matcher operates on.
#[derive(Debug, Clone, PartialEq)]
pub struct NumberedClause {
    clause: Clause,
    numbering: VarNumbering,
    /// The subsumption search's forward checks, watched per slot.
    watches: Watches,
    /// The clause's independent parts once the head is bound.
    parts: Parts,
}

impl NumberedClause {
    /// Renumber a clause. The result's body has the same length and order as
    /// the input (pure renaming, no deduplication).
    pub fn new(clause: &Clause) -> Self {
        // Only ever probed, never iterated: the cheap hasher cannot change
        // the numbering.
        let mut map: FxHashMap<Var, u32> = FxHashMap::default();
        let mut originals: Vec<Var> = Vec::new();
        let mut note = |term: &Term| {
            if let Term::Var(v) = term {
                map.entry(*v).or_insert_with(|| {
                    originals.push(*v);
                    originals.len() as u32 - 1
                });
            }
        };
        let note_literal = |lit: &Literal, note: &mut dyn FnMut(&Term)| {
            for t in lit.args() {
                note(t);
            }
        };
        note_literal(&clause.head, &mut note);
        for l in &clause.body {
            note_literal(l, &mut note);
        }
        for g in &clause.repairs {
            for (v, t) in &g.replacements {
                note(&Term::Var(*v));
                note(t);
            }
            for atom in &g.condition {
                let (a, b) = match atom {
                    CondAtom::Eq(a, b) | CondAtom::Neq(a, b) | CondAtom::Sim(a, b) => (a, b),
                };
                note(a);
                note(b);
            }
            for l in &g.consumes {
                note_literal(l, &mut note);
            }
        }

        let rename = |t: &Term| -> Term {
            match t {
                Term::Var(v) => Term::var(map[v]),
                Term::Const(_) => *t,
            }
        };
        let rename_literal = |l: &Literal| -> Literal {
            match l {
                Literal::Relation { relation, args } => Literal::Relation {
                    relation: *relation,
                    args: args.iter().map(rename).collect(),
                },
                Literal::Similar(a, b) => Literal::Similar(rename(a), rename(b)),
                Literal::Equal(a, b) => Literal::Equal(rename(a), rename(b)),
                Literal::NotEqual(a, b) => Literal::NotEqual(rename(a), rename(b)),
            }
        };
        let renamed = Clause {
            head: rename_literal(&clause.head),
            body: clause.body.iter().map(rename_literal).collect(),
            repairs: clause
                .repairs
                .iter()
                .map(|g| RepairGroup {
                    origin: g.origin,
                    condition: g
                        .condition
                        .iter()
                        .map(|atom| match atom {
                            CondAtom::Eq(a, b) => CondAtom::Eq(rename(a), rename(b)),
                            CondAtom::Neq(a, b) => CondAtom::Neq(rename(a), rename(b)),
                            CondAtom::Sim(a, b) => CondAtom::Sim(rename(a), rename(b)),
                        })
                        .collect(),
                    replacements: g
                        .replacements
                        .iter()
                        .map(|(v, t)| (Var(map[v]), rename(t)))
                        .collect(),
                    consumes: g.consumes.iter().map(rename_literal).collect(),
                })
                .collect(),
        };
        NumberedClause {
            watches: Watches::new(&renamed, originals.len()),
            parts: Parts::new(&renamed, originals.len()),
            clause: renamed,
            numbering: VarNumbering { originals },
        }
    }

    /// The renumbered clause (variables are exactly `0..var_count()`).
    pub fn clause(&self) -> &Clause {
        &self.clause
    }

    /// Number of distinct variables in the clause.
    pub fn var_count(&self) -> usize {
        self.numbering.len()
    }

    /// The numbering mapping slots back to original variables.
    pub fn numbering(&self) -> &VarNumbering {
        &self.numbering
    }

    /// The forward checks of the subsumption search, watched per slot.
    pub(crate) fn watches(&self) -> &Watches {
        &self.watches
    }

    /// The independent parts the subsumption search decides one at a time.
    pub(crate) fn parts(&self) -> &Parts {
        &self.parts
    }

    /// A fresh (all-unbound) flat substitution sized for this clause.
    pub fn fresh_substitution(&self) -> FlatSubstitution {
        FlatSubstitution::new(self.var_count())
    }

    /// Translate a flat witness over this clause's numbering back to the
    /// original variable space.
    pub fn to_original(&self, flat: &FlatSubstitution) -> Substitution {
        self.numbering.to_original(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::RepairOrigin;

    fn gappy_clause() -> Clause {
        // Variables 40, 12, 7, 99 — deliberately sparse and out of order.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("r", vec![Term::var(12), Term::var(40)]));
        c.push_unique(Literal::Similar(Term::var(40), Term::var(7)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(40), Term::var(7))],
            vec![(Var(40), Term::var(99)), (Var(7), Term::var(99))],
            vec![Literal::Similar(Term::var(40), Term::var(7))],
        ));
        c
    }

    #[test]
    fn renumbering_is_dense_and_first_appearance_ordered() {
        let c = gappy_clause();
        let n = NumberedClause::new(&c);
        assert_eq!(n.var_count(), 4);
        // First appearance: v40 (head), v12 (body), v7 (similar), v99 (repair).
        assert_eq!(n.numbering().original(0), Var(40));
        assert_eq!(n.numbering().original(1), Var(12));
        assert_eq!(n.numbering().original(2), Var(7));
        assert_eq!(n.numbering().original(3), Var(99));
        let vars = n.clause().variables();
        assert_eq!(
            vars.iter().map(|v| v.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn renumbering_preserves_body_length_and_order() {
        let c = gappy_clause();
        let n = NumberedClause::new(&c);
        assert_eq!(n.clause().body.len(), c.body.len());
        for (orig, renamed) in c.body.iter().zip(&n.clause().body) {
            assert_eq!(orig.relation_id(), renamed.relation_id());
            assert_eq!(orig.args().len(), renamed.args().len());
        }
        assert_eq!(n.clause().repairs.len(), c.repairs.len());
    }

    #[test]
    fn renumbering_is_a_logical_renaming() {
        let c = gappy_clause();
        let n = NumberedClause::new(&c);
        assert_eq!(c.canonical_string(), n.clause().canonical_string());
    }

    /// `t(x) ← a(x, y), c(y, w), d(w), b(z1), …, b(z5)`.
    fn parted_clause() -> Clause {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("a", vec![Term::var(0), Term::var(1)]));
        c.push_unique(Literal::relation("c", vec![Term::var(1), Term::var(2)]));
        c.push_unique(Literal::relation("d", vec![Term::var(2)]));
        for z in 1..=5 {
            c.push_unique(Literal::relation("b", vec![Term::var(10 + z)]));
        }
        c
    }

    /// Per part: its relation literals (positions among the relation
    /// literals), constraint literals (body indices) and repair groups.
    fn parts_of(c: &Clause) -> Vec<[Vec<u32>; 3]> {
        let n = NumberedClause::new(c);
        (0..n.parts().len())
            .map(|p| n.parts().lists(p).map(<[u32]>::to_vec))
            .collect()
    }

    fn relations_only(parts: &[&[u32]]) -> Vec<[Vec<u32>; 3]> {
        parts
            .iter()
            .map(|rels| [rels.to_vec(), vec![], vec![]])
            .collect()
    }

    #[test]
    fn parts_link_items_through_variables_the_head_does_not_bind() {
        // a, c and d share y and w; each b(zi) is a part by itself.
        let c = parted_clause();
        let six = relations_only(&[&[0, 1, 2], &[3], &[4], &[5], &[6], &[7]]);
        assert_eq!(parts_of(&c), six);

        // y ≈ z1 (body index 8) merges the chain with b(z1).
        let mut similar = c.clone();
        similar.push_unique(Literal::Similar(Term::var(1), Term::var(11)));
        let mut five = relations_only(&[&[0, 1, 2, 3], &[4], &[5], &[6], &[7]]);
        five[0][1] = vec![8];
        assert_eq!(parts_of(&similar), five);

        // So does a repair group replacing y and z1 by one target.
        let mut repaired = c.clone();
        repaired.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(Var(1), Term::var(20)), (Var(11), Term::var(20))],
            vec![],
        ));
        five[0][1] = vec![];
        five[0][2] = vec![0];
        assert_eq!(parts_of(&repaired), five);

        // A constraint over head variables alone is a part by itself.
        let mut head_only = c;
        head_only.push_unique(Literal::NotEqual(Term::var(0), Term::constant("k")));
        let mut seven = six;
        seven.push([vec![], vec![8], vec![]]);
        assert_eq!(parts_of(&head_only), seven);
    }

    #[test]
    fn witness_translation_round_trips() {
        let c = gappy_clause();
        let n = NumberedClause::new(&c);
        let mut flat = n.fresh_substitution();
        flat.bind(Var(0), Term::constant("a"));
        flat.bind(Var(2), Term::var(500));
        let original = n.to_original(&flat);
        assert_eq!(original.get(Var(40)), Some(&Term::constant("a")));
        assert_eq!(original.get(Var(7)), Some(&Term::var(500)));
        assert_eq!(original.len(), 2);
    }
}
