//! Generalization of a clause to cover an additional positive example
//! (Section 4.2, after ProGolem's asymmetric relative minimal generalization).
//!
//! Given a clause `C` (initially a bottom clause) and the ground bottom
//! clause `G_{e'}` of another positive example `e'`, the generalization drops
//! the *blocking literals* of `C`: scanning the body in its construction
//! order while maintaining the set of partial substitutions into `G_{e'}`, a
//! literal is blocking when no current substitution can be extended to map
//! it. The result θ-subsumes `C` (it is produced by dropping literals), is
//! head-connected, and covers `e'` by construction.

use dlearn_logic::subsumption::{extend_bindings, head_bindings, GroundClause};
use dlearn_logic::{Clause, FlatSubstitution, NumberedClause};

/// Generalize `clause` so that it covers the example whose ground bottom
/// clause is `target`. Returns `None` when even the head cannot be mapped
/// (e.g. a different target relation). The clause's variable numbering is
/// prepared once by the caller (the covering loop reuses one numbering
/// across every sampled target): `numbered` must be the renumbering of
/// `clause`; the two bodies are index-aligned because renumbering is a pure
/// renaming.
pub fn generalize_prepared(
    clause: &Clause,
    numbered: &NumberedClause,
    target: &GroundClause,
    binding_cap: usize,
) -> Option<Clause> {
    debug_assert_eq!(numbered.clause().body.len(), clause.body.len());
    let head = head_bindings(numbered, target)?;
    let mut bindings: Vec<FlatSubstitution> = vec![head];
    let mut blocking: Vec<usize> = Vec::new();

    for (i, literal) in numbered.clause().body.iter().enumerate() {
        let extended = extend_bindings(literal, &bindings, target, binding_cap);
        if extended.is_empty() {
            blocking.push(i);
        } else {
            bindings = extended;
        }
    }

    if blocking.is_empty() {
        return Some(clause.clone());
    }
    let mut generalized = clause.clone();
    for &i in blocking.iter().rev() {
        generalized.body.remove(i);
    }
    generalized.retain_head_connected();
    Some(generalized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_logic::subsumption::{subsumes, SubsumptionConfig};
    use dlearn_logic::{Literal, Term};

    fn generalize(clause: &Clause, target: &GroundClause, binding_cap: usize) -> Option<Clause> {
        generalize_prepared(clause, &NumberedClause::new(clause), target, binding_cap)
    }

    fn holds(c: &Clause, d: &GroundClause) -> bool {
        subsumes(
            &NumberedClause::new(c),
            d,
            &SubsumptionConfig::default(),
            None,
        )
        .is_yes()
    }

    /// Bottom clause of the paper's Example 4.2 / 4.7: Superbad is a comedy
    /// released in August; Zoolander is a comedy released in September.
    fn superbad_bottom() -> Clause {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        c.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        c.push_unique(Literal::relation(
            "mov2releasedate",
            vec![Term::var(1), Term::constant("August"), Term::var(4)],
        ));
        c
    }

    fn zoolander_ground() -> GroundClause {
        let mut d = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        d.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        d.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        d.push_unique(Literal::relation(
            "mov2releasedate",
            vec![Term::var(1), Term::constant("September"), Term::var(4)],
        ));
        GroundClause::new(&d)
    }

    #[test]
    fn blocking_release_date_literal_is_dropped() {
        // Paper Example 4.7: generalizing the Superbad bottom clause to cover
        // Zoolander drops the August release-date literal.
        let bottom = superbad_bottom();
        let target = zoolander_ground();
        let g = generalize(&bottom, &target, 32).unwrap();
        assert!(
            !g.body
                .iter()
                .any(|l| l.relation_name() == Some("mov2releasedate")),
            "clause: {g}"
        );
        assert!(g
            .body
            .iter()
            .any(|l| l.relation_name() == Some("mov2genres")));
        // The generalization covers the new example and still subsumes the
        // original bottom clause (it was produced by dropping literals).
        assert!(holds(&g, &target));
        assert!(holds(&g, &GroundClause::new(&bottom)));
    }

    #[test]
    fn clause_already_covering_the_example_is_unchanged() {
        let mut c = superbad_bottom();
        c.remove_body_literal(3); // drop the release-date literal up front
        let g = generalize(&c, &zoolander_ground(), 32).unwrap();
        assert_eq!(g.canonical_string(), c.canonical_string());
    }

    #[test]
    fn different_head_relation_yields_none() {
        let c = Clause::new(Literal::relation("otherTarget", vec![Term::var(0)]));
        assert!(generalize(&c, &zoolander_ground(), 32).is_none());
    }

    #[test]
    fn dropping_a_join_literal_drops_its_dependents() {
        // If the movies literal itself is blocking, everything that joins
        // through it must also disappear (head-connectedness).
        let bottom = superbad_bottom();
        let mut d = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        d.push_unique(Literal::relation("unrelated", vec![Term::var(0)]));
        let target = GroundClause::new(&d);
        let g = generalize(&bottom, &target, 32).unwrap();
        assert!(g.body.is_empty(), "clause: {g}");
    }
}
