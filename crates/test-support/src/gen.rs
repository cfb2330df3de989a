//! Seeded random clause generation for differential testing.
//!
//! [`random_ground`] produces "ground bottom clause"-shaped right-hand sides
//! `D`: relation literals mixing variables and constants, similarity and
//! equality literals, and MD repair groups over the similarity literals.
//! [`derived_candidate`] and [`random_candidate`] produce left-hand sides
//! `C` that are **oracle-safe**: every variable of a constraint literal or a
//! repair replacement's left side occurs in the head or in a relation
//! literal, and each repair group's replacement target is a variable private
//! to that group. For safe clauses the production matcher's greedy
//! constraint/repair phase decides exactly the ∃-semantics the brute-force
//! oracle enumerates (all constraint variables are bound by the time the
//! phase runs), so boolean decisions must agree — which is what the
//! differential suites assert. Bottom-clause construction only emits safe
//! clauses, so the restriction does not narrow the tested contract.

use rand::rngs::StdRng;
use rand::Rng;

use dlearn_logic::{Clause, CondAtom, Literal, RepairGroup, RepairOrigin, Substitution, Term, Var};

/// Knobs of the random clause generator. The defaults reproduce the clause
/// distribution of the original decision-parity differential (4 relations ×
/// arities 1–3 over 8 variables and 4 constants) with equality literals and
/// inequality candidates added on top.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Relation-name vocabulary for body literals.
    pub relations: &'static [&'static str],
    /// Constant vocabulary.
    pub constants: &'static [&'static str],
    /// Body literal count range `min_body..max_body` of `D`.
    pub min_body: usize,
    /// Exclusive upper bound of the body literal count of `D`.
    pub max_body: usize,
    /// Arities are drawn from `1..=max_arity`.
    pub max_arity: usize,
    /// Variables of `D` are drawn from `0..n_vars`.
    pub n_vars: u32,
    /// Probability that a relation argument is a constant.
    pub p_const: f64,
    /// Maximum number of similarity literals added to `D`.
    pub max_similar: usize,
    /// Maximum number of equality literals added to `D`.
    pub max_equal: usize,
    /// Maximum number of repair groups attached to `D` (capped by the
    /// number of similarity literals actually present).
    pub max_repairs: usize,
    /// Probability a body literal of `D` is kept in a derived candidate.
    pub p_keep_literal: f64,
    /// Probability a repair group of `D` is kept in a derived candidate.
    pub p_keep_repair: f64,
    /// Probability of adding one inequality literal between two bound
    /// variables of a derived candidate.
    pub p_not_equal: f64,
    /// Offset added to every candidate variable, so candidate and ground
    /// variable spaces never collide.
    pub rename_offset: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            relations: &["r0", "r1", "r2", "r3"],
            constants: &["alpha", "beta", "gamma", "delta"],
            min_body: 2,
            max_body: 8,
            max_arity: 3,
            n_vars: 8,
            p_const: 0.3,
            max_similar: 3,
            max_equal: 2,
            max_repairs: 2,
            p_keep_literal: 0.6,
            p_keep_repair: 0.4,
            p_not_equal: 0.3,
            rename_offset: 40,
        }
    }
}

/// Variable index base for the fresh per-group repair replacement targets of
/// generated ground clauses (kept clear of `0..n_vars`).
const REPAIR_TARGET_BASE: u32 = 20;

fn random_term(rng: &mut StdRng, cfg: &GenConfig) -> Term {
    if rng.gen_bool(cfg.p_const) {
        Term::constant(cfg.constants[rng.gen_range(0..cfg.constants.len())])
    } else {
        Term::var(rng.gen_range(0..cfg.n_vars))
    }
}

/// A random "ground bottom" style clause: relation literals (mixing
/// variables and constants), similarity and equality literals, and MD repair
/// groups over the similarity literals.
pub fn random_ground(rng: &mut StdRng, cfg: &GenConfig) -> Clause {
    let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
    let n_lits = rng.gen_range(cfg.min_body..cfg.max_body);
    for _ in 0..n_lits {
        let name = cfg.relations[rng.gen_range(0..cfg.relations.len())];
        let arity = rng.gen_range(1..=cfg.max_arity);
        let args: Vec<Term> = (0..arity).map(|_| random_term(rng, cfg)).collect();
        d.push_unique(Literal::relation(name, args));
    }
    for _ in 0..rng.gen_range(0..=cfg.max_similar) {
        let a = Term::var(rng.gen_range(0..cfg.n_vars));
        let b = Term::var(rng.gen_range(0..cfg.n_vars));
        if a != b {
            d.push_unique(Literal::Similar(a, b));
        }
    }
    for _ in 0..rng.gen_range(0..=cfg.max_equal) {
        let a = Term::var(rng.gen_range(0..cfg.n_vars));
        let b = Term::var(rng.gen_range(0..cfg.n_vars));
        if a != b {
            d.push_unique(Literal::Equal(a, b));
        }
    }
    // Repair groups over existing similarity literals, each replacing the
    // similar pair by a target variable private to the group.
    let sims: Vec<(Term, Term)> = d
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Similar(a, b) => Some((*a, *b)),
            _ => None,
        })
        .collect();
    for (gi, (a, b)) in sims.iter().enumerate().take(cfg.max_repairs) {
        let fresh = Term::var(REPAIR_TARGET_BASE + gi as u32);
        let (Some(va), Some(vb)) = (a.as_var(), b.as_var()) else {
            continue;
        };
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(gi),
            vec![CondAtom::Sim(*a, *b)],
            vec![(va, fresh), (vb, fresh)],
            vec![Literal::Similar(*a, *b)],
        ));
    }
    d
}

/// Restrict a candidate clause to its oracle-safe core: drop constraint
/// literals mentioning a variable bound by no relation literal (and not by
/// the head), and repair groups whose replaced variables are not all bound.
/// See the module docs for why safety makes greedy constraint checking
/// complete.
fn make_safe(c: &mut Clause) {
    let mut bound: std::collections::BTreeSet<Var> = c.head.variables();
    for l in c.body.iter().filter(|l| l.is_relation()) {
        bound.extend(l.variables());
    }
    c.body
        .retain(|l| l.is_relation() || l.variables().iter().all(|v| bound.contains(v)));
    c.repairs
        .retain(|g| g.replacements.iter().all(|(x, _)| bound.contains(x)));
}

/// Rename every variable of `c` by `cfg.rename_offset`, so the candidate's
/// variable space is disjoint from the ground clause's.
fn rename(c: &Clause, cfg: &GenConfig) -> Clause {
    let renaming: Substitution = c
        .variables()
        .into_iter()
        .map(|v| (v, Term::var(v.0 + cfg.rename_offset)))
        .collect();
    c.apply(&renaming)
}

/// Derive a candidate `C` from `D`: keep a random subset of literals and
/// repair groups, restrict to the oracle-safe core, optionally add an
/// inequality literal, then rename variables. By construction these
/// frequently (but not always — repair groups may lose their consumed
/// literals, inequalities may be unsatisfiable) subsume `D`, giving the
/// differential both positive and negative cases.
pub fn derived_candidate(rng: &mut StdRng, d: &Clause, cfg: &GenConfig) -> Clause {
    let mut c = Clause::new(d.head.clone());
    for l in &d.body {
        if rng.gen_bool(cfg.p_keep_literal) {
            c.push_unique(l.clone());
        }
    }
    for g in &d.repairs {
        if rng.gen_bool(cfg.p_keep_repair) {
            c.push_repair(g.clone());
        }
    }
    make_safe(&mut c);
    if rng.gen_bool(cfg.p_not_equal) {
        let bound: Vec<Var> = {
            let mut vars = c.head.variables();
            for l in c.body.iter().filter(|l| l.is_relation()) {
                vars.extend(l.variables());
            }
            vars.into_iter().collect()
        };
        if bound.len() >= 2 {
            let i = rng.gen_range(0..bound.len());
            let j = rng.gen_range(0..bound.len());
            if i != j {
                c.push_unique(Literal::NotEqual(Term::Var(bound[i]), Term::Var(bound[j])));
            }
        }
    }
    rename(&c, cfg)
}

/// A fully random candidate (mostly negative cases), restricted to its
/// oracle-safe core and renamed clear of the ground clause's variables.
pub fn random_candidate(rng: &mut StdRng, cfg: &GenConfig) -> Clause {
    let mut c = random_ground(rng, cfg);
    make_safe(&mut c);
    // Rename twice the offset so independently generated candidates do not
    // collide with derived candidates either.
    let renaming: Substitution = c
        .variables()
        .into_iter()
        .map(|v| (v, Term::var(v.0 + 2 * cfg.rename_offset)))
        .collect();
    c.apply(&renaming)
}

/// The deterministic adversarial workload behind the `backtracking_heavy`
/// bench entry: a candidate chain `edge(x1,x2), …, edge(x5,x6)` that must
/// start in graph component A (`start(x1)`) and end in component B
/// (`end(x6)`) of a ground clause whose `edge` relation never crosses the
/// two components — so the clause does **not** subsume, and the matcher has
/// to exhaust the search space to say so.
///
/// The chain literals are deliberately listed in a scrambled body order:
/// a fixed fewest-candidates-first order (all `edge` literals tie on bucket
/// size) would degenerate to that scrambled order and repeatedly match
/// literals none of whose variables are bound yet. Picking the most
/// constrained literal at every node instead follows the bindings through
/// the chain and fail-fasts as soon as the component-B endpoint makes some
/// remaining literal candidate-free.
///
/// Returns `(candidate, ground)`.
pub fn backtracking_heavy_pair() -> (Clause, Clause) {
    const COMPONENT: usize = 20;
    let name = |prefix: &str, i: usize| format!("{prefix}{i}");

    let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
    // Two disconnected digraph components over constants, out-degree 3.
    for (prefix, base) in [("a", 0usize), ("b", 1000usize)] {
        for i in 0..COMPONENT {
            let src = Term::constant(name(prefix, base + i));
            for step in [1usize, 7, 11] {
                let dst = Term::constant(name(prefix, base + (i + step) % COMPONENT));
                d.push_unique(Literal::relation("edge", vec![src, dst]));
            }
        }
    }
    d.push_unique(Literal::relation(
        "start",
        vec![Term::constant(name("a", 0))],
    ));
    d.push_unique(Literal::relation(
        "end",
        vec![Term::constant(name("b", 1000 + 5))],
    ));

    let mut c = Clause::new(Literal::relation("t", vec![Term::var(100)]));
    c.push_unique(Literal::relation("start", vec![Term::var(1)]));
    c.push_unique(Literal::relation("end", vec![Term::var(6)]));
    // Scrambled chain order: consecutive listed literals share no variable.
    for (s, t) in [(3u32, 4u32), (1, 2), (5, 6), (2, 3), (4, 5)] {
        c.push_unique(Literal::relation("edge", vec![Term::var(s), Term::var(t)]));
    }
    (c, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_candidates_are_safe() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(0x5afe);
        for case in 0..200 {
            let d = random_ground(&mut rng, &cfg);
            let c = if case % 2 == 0 {
                derived_candidate(&mut rng, &d, &cfg)
            } else {
                random_candidate(&mut rng, &cfg)
            };
            let mut bound = c.head.variables();
            for l in c.body.iter().filter(|l| l.is_relation()) {
                bound.extend(l.variables());
            }
            for l in c.body.iter().filter(|l| !l.is_relation()) {
                assert!(
                    l.variables().iter().all(|v| bound.contains(v)),
                    "unsafe constraint literal {l} in {c}"
                );
            }
            for g in &c.repairs {
                assert!(g.replacements.iter().all(|(x, _)| bound.contains(x)));
            }
        }
    }

    #[test]
    fn backtracking_heavy_pair_is_well_formed() {
        let (c, d) = backtracking_heavy_pair();
        assert_eq!(c.body.len(), 7);
        // 2 components × 20 nodes × out-degree 3, plus start and end.
        assert_eq!(d.body.len(), 2 * 20 * 3 + 2);
    }
}
