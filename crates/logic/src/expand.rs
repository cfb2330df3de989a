//! Expansion of a clause with repair groups into its repaired clauses.
//!
//! Section 3.2: a clause with repair literals is converted into its set of
//! *repaired clauses* by iteratively applying repair literals — if a repair's
//! condition holds it is applied (its replacements are substituted through
//! the clause), otherwise it is simply discarded — until none are left.
//! Different application orders may produce different repaired clauses
//! (Example 3.3), so the expansion explores orders, pruning orders that lead
//! to already-seen results and applying *independent* repairs (sharing no
//! variables with other applicable repairs) eagerly since their order cannot
//! matter.
//!
//! ## Exact-output contract
//!
//! [`repaired_clauses`] returns the same clauses in the same order, at every
//! limit, as the clause-cloning search it replaced. That search is kept
//! verbatim in `dlearn-test-support` (`expand_reference`), and the
//! `expand_differential` suites compare whole results against it. The
//! search itself is unchanged:
//!
//! * depth-first over a stack; every pop is one step, and the search stops
//!   once a pop exceeds `max_steps` or `max_repairs` results exist;
//! * a branch without repair groups is a leaf: made head-connected, then
//!   kept unless its canonical form was seen before;
//! * otherwise, when no repair's condition holds, every group is discarded
//!   (one more step); else the *first* applicable repair that shares no
//!   variable with another applicable one fires alone, or failing that
//!   every applicable repair fires in its own branch, pushed in group order;
//! * when no leaf is reached in budget, the result is the input with its
//!   repair groups dropped, made head-connected.
//!
//! The order is part of the contract, not a nicety: `max_repairs` cuts the
//! search short on most movie bottom clauses, so another enumeration order —
//! including expanding variable-disjoint repair components separately and
//! taking their product — would keep different repaired clauses and change
//! coverage and the learned definitions.
//!
//! Only the cost of a step changed:
//!
//! * a branch is a live bit per original body literal and repair group, the
//!   current image of every original variable, and the replacement target
//!   each variable stands for (`RepairGroup::apply` keeps a target whose
//!   image became a constant); no clause is cloned per branch;
//! * firing a repair finds the literals it consumes and the `≈` literals it
//!   makes stale by comparing images, without building them;
//! * the composed substitution is applied once, at the leaf, dropping
//!   repeated literals and `x = x` in body order — what applying each
//!   repair's substitution in turn through `Clause::apply` yields;
//! * a leaf whose state (live literals, images) equals an earlier leaf's
//!   builds the same clause and is skipped; the others are deduplicated by
//!   canonical key words (see [`crate::canonical`]) instead of rendered
//!   strings.
//!
//! A clause without repair groups returns itself, made head-connected —
//! exactly what the search would return for it.

use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use dlearn_relstore::{FxHashMap, FxHashSet, FxHasher};

use crate::canonical::{CanonicalKey, Canonicalizer};
use crate::clause::Clause;
use crate::literal::Literal;
use crate::repair::{CondAtom, RepairGroup};
use crate::term::{Term, Var};

/// Limits for repaired-clause expansion.
#[derive(Debug, Clone, Copy)]
pub struct ExpandLimits {
    /// Maximum number of distinct repaired clauses to produce.
    pub max_repairs: usize,
    /// Safety cap on explored intermediate clauses.
    pub max_steps: usize,
}

impl Default for ExpandLimits {
    fn default() -> Self {
        ExpandLimits {
            max_repairs: 16,
            max_steps: 1024,
        }
    }
}

/// Enumerate the repaired clauses of `clause`, up to the given limits.
///
/// The result always contains at least one clause; a clause without repair
/// groups expands to itself.
pub fn repaired_clauses(clause: &Clause, limits: ExpandLimits) -> Vec<Clause> {
    if clause.repairs.is_empty() {
        // The search would pop this clause as its only leaf (or, with no
        // budget, fall back to it): either way, the clause made
        // head-connected.
        let mut finished = clause.clone();
        finished.retain_head_connected();
        return vec![finished];
    }
    let search = Search::new(clause);
    let mut results: Vec<Clause> = Vec::new();
    // Canonical keys of the results, and the leaf states already turned into
    // clauses. Both stay small — at most `max_repairs` keys and one state
    // per step — so the fast hasher cannot be driven into long collision
    // chains.
    let mut seen: FxHashSet<CanonicalKey> = FxHashSet::default();
    let mut leaves: FxHashSet<LeafState> = FxHashSet::default();
    let mut canon = Canonicalizer::default();
    let mut scratch = Scratch::default();
    let mut spare: Vec<Branch> = Vec::new();
    let mut stack: Vec<Branch> = vec![search.root()];
    let mut steps = 0usize;

    while let Some(mut current) = stack.pop() {
        steps += 1;
        if steps > limits.max_steps || results.len() >= limits.max_repairs {
            break;
        }
        if current.is_leaf() {
            // Equal leaf states build equal clauses, so only the first of
            // them can be new.
            let state = LeafState(current);
            if leaves.contains(&state) {
                spare.push(state.0);
                continue;
            }
            let mut finished = search.leaf(&state.0);
            leaves.insert(state);
            finished.retain_head_connected();
            canon.canonicalize(&finished);
            if seen.insert(canon.key()) {
                results.push(finished);
            }
            continue;
        }
        search.applicable(&current, &mut scratch.applicable);
        if scratch.applicable.is_empty() {
            // No repair can fire: discard all remaining repair groups.
            current.groups.fill(0);
            stack.push(current);
            continue;
        }
        scratch.fired.clear();
        match search.first_independent(
            &current,
            &scratch.applicable,
            &mut scratch.vars,
            &mut scratch.ends,
        ) {
            Some(group) => scratch.fired.push(group),
            None => scratch.fired.extend_from_slice(&scratch.applicable),
        }
        for &group in &scratch.fired {
            let mut child = spare.pop().unwrap_or_default();
            child.copy_from(&current);
            search.fire(&mut child, group, &mut scratch.pairs);
            stack.push(child);
        }
        spare.push(current);
    }

    if results.is_empty() {
        // Budget exhausted before reaching any fully repaired clause; fall
        // back to dropping the remaining repairs so callers always get a
        // usable clause.
        let mut c = clause.clone();
        c.repairs.clear();
        c.retain_head_connected();
        results.push(c);
    }
    results
}

/// One branch of the search: which original body literals and repair groups
/// are still present, and what each variable slot has become.
#[derive(Debug, Default)]
struct Branch {
    /// Live bit per original body literal.
    body: Vec<u64>,
    /// Live bit per original repair group.
    groups: Vec<u64>,
    /// Current image of each variable slot.
    image: Vec<Term>,
    /// The replacement target each slot stands for in the remaining groups.
    target: Vec<Var>,
    /// Whether a repair fired on this branch: only then has the body been
    /// through `Clause::apply`'s deduplication.
    applied: bool,
}

impl Branch {
    /// Become a copy of `other`, reusing this branch's buffers.
    fn copy_from(&mut self, other: &Branch) {
        self.body.clone_from(&other.body);
        self.groups.clone_from(&other.groups);
        self.image.clone_from(&other.image);
        self.target.clone_from(&other.target);
        self.applied = other.applied;
    }

    fn is_leaf(&self) -> bool {
        self.groups.iter().all(|&word| word == 0)
    }

    /// The current image of a slot-space term.
    fn image(&self, t: &Term) -> Term {
        match t {
            Term::Var(slot) => self.image[slot.0 as usize],
            Term::Const(_) => *t,
        }
    }
}

/// A leaf branch compared by what its clause is built from: the live body
/// literals, the slot images and whether a repair fired.
struct LeafState(Branch);

impl PartialEq for LeafState {
    fn eq(&self, other: &Self) -> bool {
        self.0.body == other.0.body
            && self.0.image == other.0.image
            && self.0.applied == other.0.applied
    }
}

impl Eq for LeafState {}

impl Hash for LeafState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.body.hash(state);
        self.0.image.hash(state);
        self.0.applied.hash(state);
    }
}

fn live(words: &[u64], at: usize) -> bool {
    words[at / 64] >> (at % 64) & 1 == 1
}

fn kill(words: &mut [u64], at: usize) {
    words[at / 64] &= !(1 << (at % 64));
}

fn all_live(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        *words.last_mut().expect("n > 0") = (1 << (n % 64)) - 1;
    }
    words
}

/// Reused per-step buffers.
#[derive(Debug, Default)]
struct Scratch {
    applicable: Vec<usize>,
    fired: Vec<usize>,
    vars: Vec<Var>,
    ends: Vec<usize>,
    pairs: Vec<(Var, Term)>,
}

/// The input clause with every variable replaced by its slot (`Var(slot)`),
/// shared read-only by all branches.
struct Search {
    /// The original variable of each slot.
    vars: Vec<Var>,
    head: Literal,
    body: Vec<Literal>,
    groups: Vec<RepairGroup>,
    /// Body position and arguments of each similarity literal, and of each
    /// equality literal: the evidence repair conditions are checked against.
    similar: Vec<(usize, Term, Term)>,
    equal: Vec<(usize, Term, Term)>,
}

impl Search {
    fn new(clause: &Clause) -> Self {
        let mut slots: FxHashMap<Var, u32> = FxHashMap::default();
        let mut vars: Vec<Var> = Vec::new();
        let mut to_slot = |t: &mut Term| {
            if let Term::Var(v) = t {
                let next = vars.len() as u32;
                let slot = *slots.entry(*v).or_insert(next);
                if slot == next {
                    vars.push(*v);
                }
                *v = Var(slot);
            }
        };
        let mut head = clause.head.clone();
        head.terms_mut().for_each(&mut to_slot);
        let mut body = clause.body.clone();
        for l in &mut body {
            l.terms_mut().for_each(&mut to_slot);
        }
        let mut groups = clause.repairs.clone();
        for g in &mut groups {
            for atom in &mut g.condition {
                let (CondAtom::Eq(a, b) | CondAtom::Neq(a, b) | CondAtom::Sim(a, b)) = atom;
                to_slot(a);
                to_slot(b);
            }
            for (v, t) in &mut g.replacements {
                let mut target = Term::Var(*v);
                to_slot(&mut target);
                *v = target.as_var().expect("a variable stays a variable");
                to_slot(t);
            }
            for l in &mut g.consumes {
                l.terms_mut().for_each(&mut to_slot);
            }
        }
        let mut similar = Vec::new();
        let mut equal = Vec::new();
        for (at, l) in body.iter().enumerate() {
            match l {
                Literal::Similar(a, b) => similar.push((at, *a, *b)),
                Literal::Equal(a, b) => equal.push((at, *a, *b)),
                _ => {}
            }
        }
        Search {
            vars,
            head,
            body,
            groups,
            similar,
            equal,
        }
    }

    /// The input clause as a branch: everything live, every slot itself.
    fn root(&self) -> Branch {
        Branch {
            body: all_live(self.body.len()),
            groups: all_live(self.groups.len()),
            image: self.vars.iter().map(|v| Term::Var(*v)).collect(),
            target: self.vars.clone(),
            applied: false,
        }
    }

    /// The live groups whose condition holds on `b`'s body, in group order.
    fn applicable(&self, b: &Branch, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.groups.len()).filter(|&g| {
            live(&b.groups, g) && self.groups[g].condition.iter().all(|a| self.holds(b, a))
        }));
    }

    /// Whether `atom` holds on `b`'s body, as the pre-rewrite expansion's
    /// condition test decides it (`dlearn_test_support::expand_reference`):
    /// `=` and `≈` on identical images or a live literal relating them, `≠`
    /// on distinct images no live `=` literal relates.
    fn holds(&self, b: &Branch, atom: &CondAtom) -> bool {
        let (CondAtom::Eq(x, y) | CondAtom::Neq(x, y) | CondAtom::Sim(x, y)) = atom;
        let (x, y) = (b.image(x), b.image(y));
        let related = |evidence: &[(usize, Term, Term)]| {
            evidence.iter().any(|(at, p, q)| {
                let (p, q) = (b.image(p), b.image(q));
                live(&b.body, *at) && ((p == x && q == y) || (p == y && q == x))
            })
        };
        match atom {
            CondAtom::Eq(..) => x == y || related(&self.equal),
            CondAtom::Neq(..) => x != y && !related(&self.equal),
            CondAtom::Sim(..) => x == y || related(&self.similar),
        }
    }

    /// The first applicable group sharing no variable with any other
    /// applicable group ([`RepairGroup::variables`] on `b`).
    fn first_independent(
        &self,
        b: &Branch,
        applicable: &[usize],
        vars: &mut Vec<Var>,
        ends: &mut Vec<usize>,
    ) -> Option<usize> {
        vars.clear();
        ends.clear();
        for &g in applicable {
            let group = &self.groups[g];
            for (target, replacement) in &group.replacements {
                vars.push(b.target[target.0 as usize]);
                vars.extend(b.image(replacement).as_var());
            }
            for atom in &group.condition {
                let (CondAtom::Eq(x, y) | CondAtom::Neq(x, y) | CondAtom::Sim(x, y)) = atom;
                vars.extend(b.image(x).as_var());
                vars.extend(b.image(y).as_var());
            }
            ends.push(vars.len());
        }
        let of = |k: usize| &vars[if k == 0 { 0 } else { ends[k - 1] }..ends[k]];
        (0..applicable.len())
            .find(|&k| {
                (0..applicable.len()).all(|m| m == k || of(m).iter().all(|v| !of(k).contains(v)))
            })
            .map(|k| applicable[k])
    }

    /// Fire group `g` on `b`: drop the group, the literals it consumes and
    /// the similarity literals that mention a replaced variable, then compose
    /// its substitution into the slot images and replacement targets.
    fn fire(&self, b: &mut Branch, g: usize, pairs: &mut Vec<(Var, Term)>) {
        kill(&mut b.groups, g);
        let group = &self.groups[g];
        pairs.clear();
        pairs.extend(
            group
                .replacements
                .iter()
                .map(|(target, replacement)| (b.target[target.0 as usize], b.image(replacement))),
        );
        // After unification a replaced variable stands for a fresh (repaired)
        // value, so similarity facts about its old value are stale. This is
        // what makes conflicting repairs of the same variable mutually
        // exclusive (paper Example 3.3).
        for (at, l) in self.body.iter().enumerate() {
            if !live(&b.body, at) {
                continue;
            }
            let consumed = group.consumes.iter().any(|c| {
                c.shape() == l.shape()
                    && c.terms()
                        .map(|t| b.image(t))
                        .eq(l.terms().map(|t| b.image(t)))
            });
            let stale = matches!(l, Literal::Similar(..))
                && l.terms().any(|t| {
                    matches!(b.image(t), Term::Var(v) if pairs.iter().any(|(target, _)| *target == v))
                });
            if consumed || stale {
                kill(&mut b.body, at);
            }
        }
        // The group's substitution: on a repeated target the last
        // replacement wins.
        let subst = |t: Term| match t {
            Term::Var(v) => pairs
                .iter()
                .rev()
                .find(|(target, _)| *target == v)
                .map_or(t, |(_, replacement)| *replacement),
            Term::Const(_) => t,
        };
        for (image, target) in b.image.iter_mut().zip(&mut b.target) {
            *image = subst(*image);
            if let Term::Var(v) = subst(Term::Var(*target)) {
                *target = v;
            }
        }
        b.applied = true;
    }

    /// Build the leaf clause of `b`: the live literals' images in body
    /// order. Once a repair fired, `x = x` and repeated images are dropped,
    /// as `Clause::apply` drops them; repeats are looked up by hash first.
    fn leaf(&self, b: &Branch) -> Clause {
        let image = |l: &Literal| {
            let mut out = l.clone();
            for t in out.terms_mut() {
                *t = b.image(t);
            }
            out
        };
        let hasher = BuildHasherDefault::<FxHasher>::default();
        let mut body: Vec<Literal> = Vec::with_capacity(self.body.len());
        let mut hashes: Vec<u64> = Vec::with_capacity(self.body.len());
        for (at, l) in self.body.iter().enumerate() {
            if !live(&b.body, at) {
                continue;
            }
            let l = image(l);
            if b.applied {
                let hash = hasher.hash_one(&l);
                let repeated = || hashes.iter().zip(&body).any(|(&h, m)| h == hash && *m == l);
                if matches!(&l, Literal::Equal(x, y) if x == y) || repeated() {
                    continue;
                }
                hashes.push(hash);
            }
            body.push(l);
        }
        Clause {
            head: image(&self.head),
            body,
            repairs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::repair::{CondAtom, RepairGroup, RepairOrigin};
    use crate::term::{Term, Var};

    /// Build the clause of paper Example 3.3:
    /// `T(x) ← R(y), x ≈ y, S(z), x ≈ z` with two MD repairs, each unifying
    /// `x` with one of `y`, `z` via a fresh variable.
    fn example_3_3() -> Clause {
        let x = Term::var(0);
        let y = Term::var(1);
        let z = Term::var(2);
        let vx = Term::var(3); // fresh for md0 (x ⇌ y)
        let ux = Term::var(4); // fresh for md1 (x ⇌ z)
        let mut c = Clause::new(Literal::relation("t", vec![x]));
        c.push_unique(Literal::relation("r", vec![y]));
        c.push_unique(Literal::Similar(x, y));
        c.push_unique(Literal::relation("s", vec![z]));
        c.push_unique(Literal::Similar(x, z));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(x, y)],
            vec![(Var(0), vx), (Var(1), vx)],
            vec![Literal::Similar(x, y)],
        ));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(1),
            vec![CondAtom::Sim(x, z)],
            vec![(Var(0), ux), (Var(2), ux)],
            vec![Literal::Similar(x, z)],
        ));
        c
    }

    #[test]
    fn example_3_3_has_two_repaired_clauses() {
        let c = example_3_3();
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 2, "repaired: {repaired:#?}");
        let mut unified_relations = Vec::new();
        for r in &repaired {
            assert!(r.is_repaired());
            // Exactly one of the two MDs was enforced: the head variable is
            // unified with the argument of exactly one of R or S; the other
            // relation literal becomes disconnected from the head and is
            // dropped by the head-connectedness cleanup.
            let head_var = r.head.args()[0].as_var().unwrap();
            let unified: Vec<&str> = r
                .body
                .iter()
                .filter(|l| l.is_relation() && l.args()[0].as_var() == Some(head_var))
                .map(|l| l.relation_name().unwrap())
                .collect();
            assert_eq!(unified.len(), 1, "clause: {r}");
            unified_relations.push(unified[0].to_string());
        }
        unified_relations.sort();
        assert_eq!(unified_relations, vec!["r".to_string(), "s".to_string()]);
    }

    #[test]
    fn clause_without_repairs_expands_to_itself() {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("r", vec![Term::var(0)]));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].canonical_string(), c.canonical_string());
    }

    #[test]
    fn independent_repairs_produce_a_single_repaired_clause() {
        // Two MD repairs touching disjoint variable sets: order cannot
        // matter, so only one repaired clause results.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0), Term::var(2)]));
        c.push_unique(Literal::relation("r", vec![Term::var(1)]));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(1)));
        c.push_unique(Literal::relation("s", vec![Term::var(3)]));
        c.push_unique(Literal::Similar(Term::var(2), Term::var(3)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(1))],
            vec![(Var(0), Term::var(4)), (Var(1), Term::var(4))],
            vec![Literal::Similar(Term::var(0), Term::var(1))],
        ));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(1),
            vec![CondAtom::Sim(Term::var(2), Term::var(3))],
            vec![(Var(2), Term::var(5)), (Var(3), Term::var(5))],
            vec![Literal::Similar(Term::var(2), Term::var(3))],
        ));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1, "{repaired:#?}");
        assert!(repaired[0]
            .body
            .iter()
            .all(|l| !matches!(l, Literal::Similar(_, _))));
    }

    #[test]
    fn failed_conditions_discard_repairs() {
        // The repair's condition references a similarity literal that is not
        // in the body, so it can never fire.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("r", vec![Term::var(1)]));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(1)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(9))],
            vec![(Var(0), Term::var(5))],
            vec![],
        ));
        let repaired = repaired_clauses(&c, ExpandLimits::default());
        assert_eq!(repaired.len(), 1);
        // Nothing was substituted.
        assert_eq!(repaired[0].head, Literal::relation("t", vec![Term::var(0)]));
    }

    #[test]
    fn limits_bound_the_number_of_results() {
        let c = example_3_3();
        let repaired = repaired_clauses(
            &c,
            ExpandLimits {
                max_repairs: 1,
                max_steps: 1024,
            },
        );
        assert_eq!(repaired.len(), 1);
    }
}
