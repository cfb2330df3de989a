//! Brute-force enumeration reference matcher and witness verifier.
//!
//! [`OracleGround`] answers θ-subsumption questions by *enumerating* every
//! assignment of the candidate clause's variables over the terms of `D`
//! (plus canonical fresh terms standing in for "any value not in `D`"),
//! instead of searching: the homomorphism-duality observation that small
//! random clauses have small witnesses makes this exhaustive check feasible
//! at differential-test sizes, and its obvious correctness is what makes it
//! an oracle — it shares no code and no search strategy with the production
//! matcher or the string-keyed reference.
//!
//! The enumeration is a plain backtracking sweep over variables in
//! first-appearance order. Each head/body literal and each repair
//! replacement is checked as soon as all of its variables are assigned;
//! that forward pruning discards assignment prefixes that already violate a
//! ground check, which changes nothing about exhaustiveness (every pruned
//! extension would fail the same check at the end).
//!
//! Semantics implemented: the first condition of Definition 4.4 (repair
//! literals are matched like ordinary literals), which is all DLearn
//! implements; its second condition, that every repair literal of `D`
//! connected to a mapped literal be mapped too, is checked by no matcher.
//!
//! * head: `σ(head_C) = head_D` syntactically;
//! * relation literal: `σ(l) ∈ body(D)`;
//! * `Similar(a, b)`: `σa = σb`, or `(σa, σb)` is a similarity pair of `D`
//!   (symmetrically closed);
//! * `Equal(a, b)`: likewise over `D`'s equality pairs;
//! * `NotEqual(a, b)`: `σa ≠ σb` and `(σa, σb)` is not an equality pair;
//! * repair group `g`: every replacement `(x, t)` of `g` matches some
//!   repair fact `(origin, dx, dt)` of `D` with `g`'s origin, `σx = dx`,
//!   `σt = dt` (facts may be reused; groups are checked independently).

use std::collections::{BTreeSet, HashSet};

use dlearn_logic::{Clause, Literal, RepairOrigin, Substitution, Term, Var};

/// A ground clause indexed for brute-force enumeration and witness
/// verification.
pub struct OracleGround {
    head: Literal,
    /// Relation literals of `D`'s body, as a set (mapping is membership).
    body_relations: HashSet<Literal>,
    similar_pairs: BTreeSet<(Term, Term)>,
    equal_pairs: BTreeSet<(Term, Term)>,
    /// Flattened repair facts `(origin, replaced variable, replacement)`.
    repair_facts: Vec<(RepairOrigin, Term, Term)>,
    /// Distinct terms occurring anywhere matchable in `D`.
    universe: Vec<Term>,
    /// Largest variable index in `D` (fresh terms stay clear of it).
    max_var: u32,
}

impl OracleGround {
    /// Index a ground clause.
    pub fn new(d: &Clause) -> Self {
        let mut body_relations = HashSet::new();
        let mut similar_pairs = BTreeSet::new();
        let mut equal_pairs = BTreeSet::new();
        let mut universe: BTreeSet<Term> = d.head.args().into_iter().copied().collect();
        for l in &d.body {
            for t in l.args() {
                universe.insert(*t);
            }
            match l {
                Literal::Relation { .. } => {
                    body_relations.insert(l.clone());
                }
                Literal::Similar(a, b) => {
                    similar_pairs.insert((*a, *b));
                    similar_pairs.insert((*b, *a));
                }
                Literal::Equal(a, b) => {
                    equal_pairs.insert((*a, *b));
                    equal_pairs.insert((*b, *a));
                }
                Literal::NotEqual(_, _) => {}
            }
        }
        let mut repair_facts = Vec::new();
        for g in &d.repairs {
            for (v, t) in &g.replacements {
                repair_facts.push((g.origin, Term::Var(*v), *t));
                universe.insert(Term::Var(*v));
                universe.insert(*t);
            }
        }
        OracleGround {
            head: d.head.clone(),
            body_relations,
            similar_pairs,
            equal_pairs,
            repair_facts,
            universe: universe.into_iter().collect(),
            max_var: d.max_var_index().unwrap_or(0),
        }
    }

    /// Check a single ground (fully substituted) requirement.
    fn check_item(&self, c: &Clause, item: CheckItem, sigma: &Substitution) -> bool {
        match item {
            CheckItem::Head => c.head.apply(sigma) == self.head,
            CheckItem::Body(i) => match &c.body[i] {
                l @ Literal::Relation { .. } => self.body_relations.contains(&l.apply(sigma)),
                Literal::Similar(a, b) => {
                    let (ta, tb) = (sigma.apply(a), sigma.apply(b));
                    ta == tb || self.similar_pairs.contains(&(ta, tb))
                }
                Literal::Equal(a, b) => {
                    let (ta, tb) = (sigma.apply(a), sigma.apply(b));
                    ta == tb || self.equal_pairs.contains(&(ta, tb))
                }
                Literal::NotEqual(a, b) => {
                    let (ta, tb) = (sigma.apply(a), sigma.apply(b));
                    ta != tb && !self.equal_pairs.contains(&(ta, tb))
                }
            },
            CheckItem::Replacement(gi, ri) => {
                let g = &c.repairs[gi];
                let (x, t) = &g.replacements[ri];
                let sx = sigma.apply(&Term::Var(*x));
                let st = sigma.apply(t);
                self.repair_facts
                    .iter()
                    .any(|(o, dx, dt)| *o == g.origin && sx == *dx && st == *dt)
            }
        }
    }

    /// Verify that `theta` embeds `c` into the indexed clause: every
    /// requirement listed in the module docs holds under `theta`. Variables
    /// `theta` leaves unbound are applied as themselves (the same convention
    /// the production matcher's `apply` uses), so a witness that relies on
    /// an unbound variable accidentally naming a term of `D` is rejected
    /// only if the ground checks fail — keep candidate and ground variable
    /// spaces disjoint, as the generators do.
    pub fn verify_witness(&self, c: &Clause, theta: &Substitution) -> bool {
        self.check_item(c, CheckItem::Head, theta)
            && (0..c.body.len()).all(|i| self.check_item(c, CheckItem::Body(i), theta))
            && c.repairs.iter().enumerate().all(|(gi, g)| {
                (0..g.replacements.len())
                    .all(|ri| self.check_item(c, CheckItem::Replacement(gi, ri), theta))
            })
    }

    /// Decide subsumption by exhaustive enumeration, returning a witnessing
    /// assignment (over all of `c`'s variables) when one exists. Feasible
    /// for small clauses only — cost is bounded by
    /// `(|terms(D)| + |vars(C)|) ^ |vars(C)|` before pruning.
    pub fn enumerate(&self, c: &Clause) -> Option<Substitution> {
        // Variables in first-appearance order (head, body, repairs), the
        // order that lets literal checks fire earliest.
        let mut vars: Vec<Var> = Vec::new();
        let mut seen: HashSet<Var> = HashSet::new();
        let mut note = |t: &Term| {
            if let Some(v) = t.as_var() {
                if seen.insert(v) {
                    vars.push(v);
                }
            }
        };
        for t in c.head.args() {
            note(t);
        }
        for l in &c.body {
            for t in l.args() {
                note(t);
            }
        }
        for g in &c.repairs {
            for (v, t) in &g.replacements {
                note(&Term::Var(*v));
                note(t);
            }
        }
        let slot_of = |v: Var| vars.iter().position(|w| *w == v);

        // Requirements become checkable at the slot of their last variable;
        // variable-free requirements are checked up front.
        let mut items: Vec<CheckItem> = vec![CheckItem::Head];
        items.extend((0..c.body.len()).map(CheckItem::Body));
        for (gi, g) in c.repairs.iter().enumerate() {
            items.extend((0..g.replacements.len()).map(|ri| CheckItem::Replacement(gi, ri)));
        }
        let mut ready_at: Vec<Vec<CheckItem>> = vec![Vec::new(); vars.len()];
        let mut sigma = Substitution::new();
        for item in items {
            let item_vars: BTreeSet<Var> = match item {
                CheckItem::Head => c.head.variables(),
                CheckItem::Body(i) => c.body[i].variables(),
                CheckItem::Replacement(gi, ri) => {
                    let (x, t) = &c.repairs[gi].replacements[ri];
                    let mut s = BTreeSet::new();
                    s.insert(*x);
                    if let Some(v) = t.as_var() {
                        s.insert(v);
                    }
                    s
                }
            };
            match item_vars.iter().filter_map(|v| slot_of(*v)).max() {
                Some(slot) => ready_at[slot].push(item),
                // Ground requirement: check once, before enumerating.
                None => {
                    if !self.check_item(c, item, &sigma) {
                        return None;
                    }
                }
            }
        }

        // Fresh terms canonically represent values outside D: slot `k` may
        // reuse the fresh term of any earlier slot (two variables mapping to
        // the same unknown value) or take its own. Any embedding maps onto
        // such an assignment by renaming its unknown values.
        let fresh_base = self
            .max_var
            .max(c.max_var_index().unwrap_or(0))
            .saturating_add(1);

        if self.assign(c, &vars, &ready_at, fresh_base, 0, &mut sigma) {
            Some(sigma)
        } else {
            None
        }
    }

    fn assign(
        &self,
        c: &Clause,
        vars: &[Var],
        ready_at: &[Vec<CheckItem>],
        fresh_base: u32,
        slot: usize,
        sigma: &mut Substitution,
    ) -> bool {
        if slot == vars.len() {
            return true;
        }
        let fresh = (0..=slot as u32).map(|j| Term::var(fresh_base.saturating_add(j)));
        for term in self.universe.iter().copied().chain(fresh) {
            sigma.bind(vars[slot], term);
            if ready_at[slot]
                .iter()
                .all(|item| self.check_item(c, *item, sigma))
                && self.assign(c, vars, ready_at, fresh_base, slot + 1, sigma)
            {
                return true;
            }
            sigma.remove(vars[slot]);
        }
        false
    }
}

/// `CheckItem` names one ground requirement of the embedding: the head
/// equation, a body literal, or one repair replacement of one group.
#[derive(Debug, Clone, Copy)]
enum CheckItem {
    Head,
    Body(usize),
    Replacement(usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_logic::{CondAtom, RepairGroup};

    fn ground() -> Clause {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation("r", vec![Term::var(1), Term::var(2)]));
        d.push_unique(Literal::relation("r", vec![Term::var(2), Term::var(3)]));
        d.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(2))],
            vec![(Var(0), Term::var(9)), (Var(2), Term::var(9))],
            vec![Literal::Similar(Term::var(0), Term::var(2))],
        ));
        d
    }

    #[test]
    fn enumeration_finds_chain_embedding() {
        let d = ground();
        let oracle = OracleGround::new(&d);
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("r", vec![Term::var(41), Term::var(42)]));
        c.push_unique(Literal::relation("r", vec![Term::var(42), Term::var(43)]));
        let sigma = oracle.enumerate(&c).expect("chain embeds");
        assert!(oracle.verify_witness(&c, &sigma));
    }

    #[test]
    fn enumeration_rejects_missing_relation() {
        let d = ground();
        let oracle = OracleGround::new(&d);
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("q", vec![Term::var(41)]));
        assert!(oracle.enumerate(&c).is_none());
    }

    #[test]
    fn constraints_and_repairs_are_enforced() {
        let d = ground();
        let oracle = OracleGround::new(&d);
        // Similar(head, x) with the repair group riding along.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("r", vec![Term::var(42), Term::var(43)]));
        c.push_unique(Literal::Similar(Term::var(40), Term::var(42)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(40), Term::var(42))],
            vec![(Var(40), Term::var(50)), (Var(42), Term::var(50))],
            vec![Literal::Similar(Term::var(40), Term::var(42))],
        ));
        let sigma = oracle.enumerate(&c).expect("similar pair v0≈v2 exists");
        assert!(oracle.verify_witness(&c, &sigma));
        assert_eq!(sigma.apply(&Term::var(42)), Term::var(2));

        // A repair group from a different origin has no matching fact.
        let mut c2 = c.clone();
        c2.repairs[0].origin = RepairOrigin::Md(5);
        assert!(oracle.enumerate(&c2).is_none());
    }

    #[test]
    fn not_equal_uses_fresh_values_for_unconstrained_variables() {
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation("r", vec![Term::var(0)]));
        let oracle = OracleGround::new(&d);
        // x ≠ y over two variables each bound by a relation literal that
        // only admits v0: unsatisfiable.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("r", vec![Term::var(41)]));
        c.push_unique(Literal::relation("r", vec![Term::var(42)]));
        c.push_unique(Literal::NotEqual(Term::var(41), Term::var(42)));
        assert!(oracle.enumerate(&c).is_none());
    }

    #[test]
    fn verify_witness_rejects_non_embeddings() {
        let d = ground();
        let oracle = OracleGround::new(&d);
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(40)]));
        c.push_unique(Literal::relation("r", vec![Term::var(41), Term::var(42)]));
        let mut bogus = Substitution::new();
        bogus.bind(Var(40), Term::var(0));
        bogus.bind(Var(41), Term::var(3)); // r(v3, _) does not exist in D
        bogus.bind(Var(42), Term::var(1));
        assert!(!oracle.verify_witness(&c, &bogus));
    }
}
