//! Reference re-implementation of the **pre-interning string-based
//! subsumption matcher**: relation literals keyed by name `String`s,
//! candidate lists scanned linearly, θ cloned at every backtracking point,
//! no `(RelId, arity)` buckets and no per-position value indexes.
//!
//! Deliberately kept allocation-heavy and string-keyed: it documents the
//! representation the interning refactor replaced. One semantic update rode
//! along with the adaptive-ordering refactor: like the production matcher,
//! the reference now treats a relation mapping rejected by the constraint /
//! repair phase as a dead end to backtrack past, not as the end of the
//! search. That makes its boolean decision independent of literal order, so
//! it can stand next to the enumeration oracle ([`crate::OracleGround`]) as
//! a structurally different second reference — the exact-search-order
//! parity the old decision-parity tests pinned is retired.
//!
//! Its repair phase stays greedy across groups: each group keeps the first
//! facts that match it, and a later group that finds none does not send the
//! search back into an earlier one. The production matcher does go back.
//! The two differ only when groups share a replacement target that no
//! relation literal binds, and the generators never emit such a target, so
//! on their cases the decisions agree.

use std::collections::{BTreeSet, HashMap};

use dlearn_logic::{Clause, Literal, RepairGroup, RepairOrigin, Substitution, Term};

/// String-keyed index side, as `GroundClause` was before interning.
pub struct StringGround {
    head: Literal,
    body: Vec<Literal>,
    by_relation: HashMap<String, Vec<usize>>,
    similar_pairs: BTreeSet<(Term, Term)>,
    equal_pairs: BTreeSet<(Term, Term)>,
    repair_facts: Vec<(RepairOrigin, Term, Term)>,
}

impl StringGround {
    /// Index a clause for repeated subsumption testing.
    pub fn new(clause: &Clause) -> Self {
        let mut by_relation: HashMap<String, Vec<usize>> = HashMap::new();
        let mut similar_pairs = BTreeSet::new();
        let mut equal_pairs = BTreeSet::new();
        for (i, l) in clause.body.iter().enumerate() {
            match l {
                Literal::Relation { .. } => {
                    by_relation
                        .entry(l.relation_name().expect("relation literal").to_string())
                        .or_default()
                        .push(i);
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
        for g in &clause.repairs {
            for (v, t) in &g.replacements {
                repair_facts.push((g.origin, Term::Var(*v), *t));
            }
        }
        StringGround {
            head: clause.head.clone(),
            body: clause.body.clone(),
            by_relation,
            similar_pairs,
            equal_pairs,
            repair_facts,
        }
    }

    fn candidates(&self, relation: &str) -> &[usize] {
        static EMPTY: [usize; 0] = [];
        self.by_relation
            .get(relation)
            .map(|v| v.as_slice())
            .unwrap_or(&EMPTY)
    }
}

/// String-comparing literal match, extending the substitution.
fn match_literal(c_lit: &Literal, d_lit: &Literal, theta: &mut Substitution) -> bool {
    match (c_lit, d_lit) {
        (Literal::Relation { args: ac, .. }, Literal::Relation { args: ad, .. }) => {
            if c_lit.relation_name() != d_lit.relation_name() || ac.len() != ad.len() {
                return false;
            }
            for (a, b) in ac.iter().zip(ad.iter()) {
                if !match_term(a, b, theta) {
                    return false;
                }
            }
            true
        }
        _ => false,
    }
}

fn match_term(c_term: &Term, d_term: &Term, theta: &mut Substitution) -> bool {
    match c_term {
        Term::Const(v) => match d_term {
            Term::Const(w) => v == w,
            Term::Var(_) => false,
        },
        Term::Var(v) => theta.try_bind(*v, *d_term),
    }
}

struct State<'a> {
    theta: Substitution,
    constraint_lits: Vec<&'a Literal>,
    repairs: &'a [RepairGroup],
}

/// The string-keyed decision procedure (unbounded budget).
pub fn subsumes(c: &Clause, d: &StringGround) -> bool {
    let mut theta = Substitution::new();
    if !match_literal(&c.head, &d.head, &mut theta) {
        return false;
    }
    let mut relation_lits: Vec<&Literal> = c.body.iter().filter(|l| l.is_relation()).collect();
    relation_lits.sort_by_key(|l| {
        l.relation_name()
            .map(|n| d.candidates(n).len())
            .unwrap_or(0)
    });
    let constraint_lits: Vec<&Literal> = c.body.iter().filter(|l| !l.is_relation()).collect();

    let mut state = State {
        theta,
        constraint_lits,
        repairs: &c.repairs,
    };
    search(&relation_lits, 0, d, &mut state)
}

fn search(lits: &[&Literal], depth: usize, d: &StringGround, state: &mut State) -> bool {
    if depth == lits.len() {
        // A complete relation mapping: accept it only if the constraint and
        // repair phase does; otherwise roll θ back and let the caller try
        // the next mapping.
        let saved_theta = state.theta.clone();
        let constraint_lits = state.constraint_lits.clone();
        let repairs = state.repairs;
        if check_constraints(&constraint_lits, &mut state.theta, d)
            && match_repairs(repairs, 0, d, state)
        {
            return true;
        }
        state.theta = saved_theta;
        return false;
    }
    let lit = lits[depth];
    let Some(name) = lit.relation_name() else {
        return false;
    };
    let candidates: Vec<usize> = d.candidates(name).to_vec();
    for idx in candidates {
        let saved = state.theta.clone();
        if match_literal(lit, &d.body[idx], &mut state.theta) && search(lits, depth + 1, d, state) {
            return true;
        }
        state.theta = saved;
    }
    false
}

fn check_constraints(lits: &[&Literal], theta: &mut Substitution, d: &StringGround) -> bool {
    for lit in lits {
        match lit {
            Literal::Similar(a, b) => {
                if !check_pair(theta, d, a, b, true) {
                    return false;
                }
            }
            Literal::Equal(a, b) => {
                if !check_pair(theta, d, a, b, false) {
                    return false;
                }
            }
            Literal::NotEqual(a, b) => {
                let ta = theta.apply(a);
                let tb = theta.apply(b);
                if ta == tb || d.equal_pairs.contains(&(ta, tb)) {
                    return false;
                }
            }
            Literal::Relation { .. } => unreachable!(),
        }
    }
    true
}

fn check_pair(
    theta: &mut Substitution,
    d: &StringGround,
    a: &Term,
    b: &Term,
    similar: bool,
) -> bool {
    let pairs = if similar {
        &d.similar_pairs
    } else {
        &d.equal_pairs
    };
    let ta = theta.apply(a);
    let tb = theta.apply(b);
    let a_bound = ta.is_const() || a.as_var().map(|v| theta.get(v).is_some()).unwrap_or(true);
    let b_bound = tb.is_const() || b.as_var().map(|v| theta.get(v).is_some()).unwrap_or(true);
    match (a_bound, b_bound) {
        (true, true) => ta == tb || pairs.contains(&(ta, tb)),
        (true, false) => {
            for (x, y) in pairs.iter() {
                if *x == ta {
                    if let Some(vb) = b.as_var() {
                        if theta.try_bind(vb, *y) {
                            return true;
                        }
                    }
                }
            }
            if let Some(vb) = b.as_var() {
                return theta.try_bind(vb, ta);
            }
            false
        }
        (false, true) => check_pair(theta, d, b, a, similar),
        (false, false) => {
            if let (Some(va), Some(vb)) = (a.as_var(), b.as_var()) {
                if let Some((x, y)) = pairs.iter().next() {
                    return theta.try_bind(va, *x) && theta.try_bind(vb, *y);
                }
                return theta.try_bind(va, Term::var(u32::MAX))
                    && theta.try_bind(vb, Term::var(u32::MAX));
            }
            false
        }
    }
}

fn match_repairs(
    groups: &[RepairGroup],
    depth: usize,
    d: &StringGround,
    state: &mut State,
) -> bool {
    if depth == groups.len() {
        return true;
    }
    match_group(&groups[depth], 0, d, state) && match_repairs(groups, depth + 1, d, state)
}

fn match_group(group: &RepairGroup, ri: usize, d: &StringGround, state: &mut State) -> bool {
    if ri == group.replacements.len() {
        return true;
    }
    let (x, t) = &group.replacements[ri];
    let x_term = Term::Var(*x);
    for (origin, dx, dt) in &d.repair_facts {
        if *origin != group.origin {
            continue;
        }
        let saved = state.theta.clone();
        if match_term(&x_term, dx, &mut state.theta)
            && match_term(t, dt, &mut state.theta)
            && match_group(group, ri + 1, d, state)
        {
            return true;
        }
        state.theta = saved;
    }
    false
}
