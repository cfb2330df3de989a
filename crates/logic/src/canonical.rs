//! Canonical form of a clause: the duplicate key of repaired-clause
//! expansion and of TILDE's candidate tests, and the text of
//! [`Clause::canonical_string`].
//!
//! Canonicalization runs two passes over the clause. Each pass
//!
//! 1. renames variables in first-appearance order over the head arguments,
//!    the body arguments and each repair group's replacements (replaced
//!    variable, then replacement term) — a variable met only in a repair
//!    condition or a consumed literal keeps its index;
//! 2. applies the renaming everywhere, dropping duplicate body literals and
//!    trivial `x = x` equalities as [`Clause::apply`] does;
//! 3. stably sorts the body by each literal's rendered text, so `v10` sorts
//!    before `v2`.
//!
//! [`CanonicalKey`] holds the result as flat, renamed terms; the canonical
//! string renders the same result, reusing the renderings the last sort
//! compared. The key is structural, but the order it is taken in is the
//! rendered one, so two clauses have equal keys exactly when their
//! canonical strings are equal (renderings are injective for relation names
//! that are identifiers). A numeric order would change the duplicate
//! classes in corner cases, and with them which repaired clauses survive
//! the expansion cap.

use dlearn_relstore::FxHashMap;

use crate::clause::Clause;
use crate::literal::{write_literal, Shape};
use crate::repair::{CondAtom, RepairGroup, RepairOrigin};
use crate::term::{Term, Var};

/// The canonical form of a clause as a hashable value: two clauses have
/// equal keys exactly when their [`Clause::canonical_string`]s are equal.
/// Built by [`Clause::canonical_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey(Vec<KeyWord>);

/// One word of a flat canonical form: a literal's shape and arity, a term,
/// a repair group's origin and part sizes, or a condition atom's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyWord {
    Literal(Shape, u32),
    Term(Term),
    Group(RepairOrigin, u32, u32, u32),
    Condition(u8),
}

/// A body literal of the flat form: its shape and its argument range in the
/// shared term buffer.
#[derive(Debug, Clone, Copy)]
struct FlatLiteral {
    shape: Shape,
    start: u32,
    len: u32,
}

impl FlatLiteral {
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Reusable buffers of the canonicalization passes. One instance serves
/// any number of clauses; after warm-up a clause without repair groups is
/// canonicalized without allocating.
#[derive(Debug, Default)]
pub(crate) struct Canonicalizer {
    /// The current pass's first-appearance renaming.
    names: Renaming,
    head_shape: Option<Shape>,
    head: Vec<Term>,
    body: Vec<FlatLiteral>,
    terms: Vec<Term>,
    next_body: Vec<FlatLiteral>,
    groups: Vec<RepairGroup>,
    /// Renderings of the body literals; `spans[i]` is literal `i`'s range.
    rendered: String,
    spans: Vec<(u32, u32)>,
    next_spans: Vec<(u32, u32)>,
    order: Vec<u32>,
}

impl Canonicalizer {
    /// Bring `clause` into canonical form in the buffers.
    pub(crate) fn canonicalize(&mut self, clause: &Clause) {
        self.load(clause);
        self.pass(true);
        self.pass(false);
    }

    /// The canonical form as a [`CanonicalKey`].
    pub(crate) fn key(&self) -> CanonicalKey {
        let mut out = Vec::new();
        let head_shape = self.head_shape.expect("canonicalize runs before key");
        out.push(KeyWord::Literal(head_shape, self.head.len() as u32));
        out.extend(self.head.iter().copied().map(KeyWord::Term));
        for lit in &self.body {
            out.push(KeyWord::Literal(lit.shape, lit.len));
            out.extend(self.args(lit).iter().copied().map(KeyWord::Term));
        }
        for g in &self.groups {
            out.push(KeyWord::Group(
                g.origin,
                g.condition.len() as u32,
                g.replacements.len() as u32,
                g.consumes.len() as u32,
            ));
            for atom in &g.condition {
                let (kind, a, b) = match atom {
                    CondAtom::Eq(a, b) => (0, a, b),
                    CondAtom::Neq(a, b) => (1, a, b),
                    CondAtom::Sim(a, b) => (2, a, b),
                };
                out.extend([
                    KeyWord::Condition(kind),
                    KeyWord::Term(*a),
                    KeyWord::Term(*b),
                ]);
            }
            for (v, t) in &g.replacements {
                out.extend([KeyWord::Term(Term::Var(*v)), KeyWord::Term(*t)]);
            }
            for l in &g.consumes {
                out.push(KeyWord::Literal(l.shape(), l.terms().count() as u32));
                out.extend(l.terms().copied().map(KeyWord::Term));
            }
        }
        CanonicalKey(out)
    }

    /// Render the canonical form: `head <- body, … & group & …`.
    pub(crate) fn render(&self) -> String {
        let head_shape = self.head_shape.expect("canonicalize runs before render");
        let mut s = String::new();
        write_literal(&mut s, head_shape, &self.head).expect("writing to a String cannot fail");
        s.push_str(" <- ");
        for (i, &(start, end)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&self.rendered[start as usize..end as usize]);
        }
        for g in &self.groups {
            s.push_str(" & ");
            s.push_str(&g.render());
        }
        s
    }

    fn args(&self, lit: &FlatLiteral) -> &[Term] {
        &self.terms[lit.range()]
    }

    fn load(&mut self, clause: &Clause) {
        self.head_shape = Some(clause.head.shape());
        self.head.clear();
        self.head.extend(clause.head.terms().copied());
        self.body.clear();
        self.terms.clear();
        for l in &clause.body {
            let start = self.terms.len() as u32;
            self.terms.extend(l.terms().copied());
            self.body.push(FlatLiteral {
                shape: l.shape(),
                start,
                len: self.terms.len() as u32 - start,
            });
        }
        self.groups.clear();
        self.groups.extend(clause.repairs.iter().cloned());
    }

    /// One rename–apply–sort pass. The first pass meets arbitrary variable
    /// indices; it leaves every variable of the head, the body and the
    /// replacements in `0..n`, so the second pass renames through a table.
    fn pass(&mut self, first: bool) {
        // 1. First-appearance renaming, applied to the head and the body as
        // it is assigned.
        let names = &mut self.names;
        names.reset(first);
        for t in &mut self.head {
            if let Term::Var(v) = t {
                *v = names.visit(*v);
            }
        }
        for lit in &self.body {
            for t in &mut self.terms[lit.range()] {
                if let Term::Var(v) = t {
                    *v = names.visit(*v);
                }
            }
        }
        for g in &self.groups {
            for (v, t) in &g.replacements {
                names.visit(*v);
                if let Term::Var(w) = t {
                    names.visit(*w);
                }
            }
        }

        // 2. Apply it to the repair groups.
        let names = &self.names;
        let rename = |t: Term| match t {
            Term::Var(v) => Term::Var(names.get(v)),
            Term::Const(_) => t,
        };
        for g in &mut self.groups {
            rename_group(g, &rename);
        }

        // 3. Stable sort of the body by rendered text, dropping `x = x` and
        // repeated literals. A repeat renders like the literal it repeats,
        // so it sits in that literal's run of equal texts, after it.
        self.rendered.clear();
        self.spans.clear();
        for lit in &self.body {
            let start = self.rendered.len() as u32;
            write_literal(&mut self.rendered, lit.shape, &self.terms[lit.range()])
                .expect("writing to a String cannot fail");
            self.spans.push((start, self.rendered.len() as u32));
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.body.len() as u32);
        let rendered = &self.rendered;
        let text = |(start, end): (u32, u32)| &rendered[start as usize..end as usize];
        let spans = &self.spans;
        order.sort_by(|&a, &b| text(spans[a as usize]).cmp(text(spans[b as usize])));
        self.next_body.clear();
        self.next_spans.clear();
        let terms = &self.terms;
        let args = |lit: &FlatLiteral| &terms[lit.range()];
        let mut run = 0;
        for &i in &order {
            let lit = self.body[i as usize];
            let span = self.spans[i as usize];
            if lit.shape == Shape::Equal && args(&lit)[0] == args(&lit)[1] {
                continue;
            }
            if self
                .next_spans
                .last()
                .is_some_and(|&last| text(last) != text(span))
            {
                run = self.next_body.len();
            }
            if self.next_body[run..]
                .iter()
                .any(|kept| kept.shape == lit.shape && args(kept) == args(&lit))
            {
                continue;
            }
            self.next_body.push(lit);
            self.next_spans.push(span);
        }
        std::mem::swap(&mut self.body, &mut self.next_body);
        std::mem::swap(&mut self.spans, &mut self.next_spans);
        self.order = order;
    }
}

/// A first-appearance renaming under construction.
#[derive(Debug, Default)]
struct Renaming {
    /// Names of the first pass, over arbitrary variable indices.
    sparse: FxHashMap<Var, Var>,
    /// Names of the second pass, indexed by variable (`u32::MAX`: none yet).
    dense: Vec<u32>,
    first: bool,
    next: u32,
}

impl Renaming {
    /// Start a pass. The second pass's table covers the first pass's names.
    fn reset(&mut self, first: bool) {
        if !first {
            self.dense.clear();
            self.dense.resize(self.next as usize, u32::MAX);
        }
        self.sparse.clear();
        self.first = first;
        self.next = 0;
    }

    /// The name of `v`, assigning the next one on its first appearance.
    fn visit(&mut self, v: Var) -> Var {
        let next = Var(self.next);
        let name = if self.first {
            *self.sparse.entry(v).or_insert(next)
        } else {
            let slot = &mut self.dense[v.0 as usize];
            if *slot == u32::MAX {
                *slot = next.0;
            }
            Var(*slot)
        };
        if name == next {
            self.next += 1;
        }
        name
    }

    /// The name of `v`; a variable never visited keeps its index.
    fn get(&self, v: Var) -> Var {
        if self.first {
            self.sparse.get(&v).copied().unwrap_or(v)
        } else {
            match self.dense.get(v.0 as usize) {
                Some(&name) if name != u32::MAX => Var(name),
                _ => v,
            }
        }
    }
}

/// Rename every term of a repair group, as [`RepairGroup::apply`] does with
/// a renaming substitution.
fn rename_group(g: &mut RepairGroup, rename: &impl Fn(Term) -> Term) {
    for atom in &mut g.condition {
        let (CondAtom::Eq(a, b) | CondAtom::Neq(a, b) | CondAtom::Sim(a, b)) = atom;
        *a = rename(*a);
        *b = rename(*b);
    }
    for (v, t) in &mut g.replacements {
        if let Term::Var(renamed) = rename(Term::Var(*v)) {
            *v = renamed;
        }
        *t = rename(*t);
    }
    for l in &mut g.consumes {
        for t in l.terms_mut() {
            *t = rename(*t);
        }
    }
}

impl Clause {
    /// The clause's canonical form as a hashable key: equal for two clauses
    /// exactly when their [`Clause::canonical_string`]s are equal, without
    /// building the string. Used to deduplicate logically identical clauses.
    pub fn canonical_key(&self) -> CanonicalKey {
        let mut canon = Canonicalizer::default();
        canon.canonicalize(self);
        canon.key()
    }

    /// A canonical string form: variables renamed by first appearance and
    /// the body sorted (twice; see [`crate::canonical`]). Renders the same
    /// form [`Clause::canonical_key`] holds.
    pub fn canonical_string(&self) -> String {
        let mut canon = Canonicalizer::default();
        canon.canonicalize(self);
        canon.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;

    #[test]
    fn rendered_order_puts_v10_before_v2() {
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        for i in 1..=10 {
            c.push_unique(Literal::relation("r", vec![Term::var(0), Term::var(i)]));
        }
        let s = c.canonical_string();
        let v10 = s.find("r(v0, v10)").expect("v10 literal");
        let v2 = s.find("r(v0, v2)").expect("v2 literal");
        assert!(v10 < v2, "{s}");
    }

    #[test]
    fn keys_agree_with_strings_on_renamings_and_repairs() {
        let mut a = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        a.push_unique(Literal::relation("r", vec![Term::var(1)]));
        a.push_unique(Literal::Similar(Term::var(0), Term::var(1)));
        a.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(1))],
            vec![(Var(0), Term::var(2)), (Var(1), Term::var(2))],
            vec![Literal::Similar(Term::var(0), Term::var(1))],
        ));
        let renamed = a.apply(
            &[
                (Var(0), Term::var(7)),
                (Var(1), Term::var(5)),
                (Var(2), Term::var(9)),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(a.canonical_key(), renamed.canonical_key());
        assert_eq!(a.canonical_string(), renamed.canonical_string());
        let mut other = a.clone();
        other.repairs[0].origin = RepairOrigin::Md(1);
        assert_ne!(a.canonical_key(), other.canonical_key());
        assert_ne!(a.canonical_string(), other.canonical_string());
    }
}
