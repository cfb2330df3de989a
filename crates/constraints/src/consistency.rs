//! Consistency checking for sets of CFDs.
//!
//! Unlike plain FDs, a set of CFDs can be *inconsistent*: no non-empty
//! relation can satisfy all of them (Section 2.3, e.g. `(A → B, a1 || b1)`
//! and `(B → A, b1 || a2)` over `R(A, B)`). Cleaning only makes sense for a
//! consistent set, so `Engine::prepare` rejects a task whose CFDs fail this
//! check.
//!
//! We implement the pairwise chase-style test from Bohannon et al. (2007) for
//! CFDs with constant patterns: two CFDs conflict when the constants forced
//! by one contradict the pattern required by the other on a hypothetical
//! single tuple.

use std::collections::HashMap;

use dlearn_relstore::{Sym, Value};

use crate::cfd::{Cfd, PatternValue};

/// A detected inconsistency between two CFDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// Name of the first CFD.
    pub first: String,
    /// Name of the second CFD.
    pub second: String,
    /// Attribute whose forced values conflict.
    pub attribute: String,
}

/// Check a set of CFDs for pairwise inconsistencies.
///
/// The test builds, for each ordered pair of CFDs over the same relation, a
/// hypothetical tuple that satisfies the first CFD's pattern with its forced
/// RHS constant, and checks whether the second CFD then forces a different
/// constant on an attribute that the first CFD pins. Only conflicts that are
/// certain (constant vs. different constant) are reported.
pub fn find_inconsistencies(cfds: &[Cfd]) -> Vec<Inconsistency> {
    let mut found = Vec::new();
    for (i, a) in cfds.iter().enumerate() {
        for b in cfds.iter().skip(i + 1) {
            if a.relation != b.relation {
                continue;
            }
            if let Some(attr) = conflicts(a, b).or_else(|| conflicts(b, a)) {
                found.push(Inconsistency {
                    first: a.name.clone(),
                    second: b.name.clone(),
                    attribute: attr,
                });
            }
        }
    }
    found
}

/// Does applying `a` (assuming its pattern) force a value that contradicts
/// what `b` requires?
fn conflicts(a: &Cfd, b: &Cfd) -> Option<String> {
    // Constants pinned by a's LHS pattern plus its RHS constant (if any).
    let mut pinned: HashMap<Sym, &Value> = HashMap::new();
    for (attr, pat) in a.lhs.iter().zip(a.lhs_pattern.iter()) {
        if let PatternValue::Const(v) = pat {
            pinned.insert(*attr, v);
        }
    }
    if let PatternValue::Const(v) = &a.rhs_pattern {
        pinned.insert(a.rhs, v);
    }
    if pinned.is_empty() {
        return None;
    }
    // b applies when its LHS pattern is compatible with the pinned values;
    // all of b's constant LHS attributes must be pinned to the same constant
    // for the conflict to be certain.
    let mut b_applies = true;
    for (attr, pat) in b.lhs.iter().zip(b.lhs_pattern.iter()) {
        if let PatternValue::Const(v) = pat {
            match pinned.get(attr) {
                Some(existing) if *existing == v => {}
                _ => {
                    b_applies = false;
                    break;
                }
            }
        }
    }
    if !b_applies {
        return None;
    }
    // b then forces its RHS pattern constant; conflict if a pins a different
    // constant on the same attribute.
    if let PatternValue::Const(forced) = &b.rhs_pattern {
        if let Some(existing) = pinned.get(&b.rhs) {
            if *existing != forced {
                return Some(b.rhs.as_str().to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's example: (A → B, a1 || b1) and (B → A, b1 || a2) are
    /// inconsistent.
    #[test]
    fn paper_inconsistency_example_is_detected() {
        let c1 = Cfd::with_pattern(
            "c1",
            "r",
            vec!["a"],
            "b",
            vec![PatternValue::Const(Value::str("a1"))],
            PatternValue::Const(Value::str("b1")),
        );
        let c2 = Cfd::with_pattern(
            "c2",
            "r",
            vec!["b"],
            "a",
            vec![PatternValue::Const(Value::str("b1"))],
            PatternValue::Const(Value::str("a2")),
        );
        let issues = find_inconsistencies(&[c1, c2]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].attribute, "a");
        assert!(
            find_inconsistencies(&[]).is_empty(),
            "the empty set of CFDs is trivially consistent"
        );
    }

    #[test]
    fn plain_fds_are_always_consistent() {
        let c1 = Cfd::fd("c1", "r", vec!["a"], "b");
        let c2 = Cfd::fd("c2", "r", vec!["b"], "a");
        assert!(find_inconsistencies(&[c1, c2]).is_empty());
    }

    #[test]
    fn cfds_over_different_relations_never_conflict() {
        let c1 = Cfd::with_pattern(
            "c1",
            "r",
            vec!["a"],
            "b",
            vec![PatternValue::Const(Value::str("a1"))],
            PatternValue::Const(Value::str("b1")),
        );
        let c2 = Cfd::with_pattern(
            "c2",
            "s",
            vec!["b"],
            "a",
            vec![PatternValue::Const(Value::str("b1"))],
            PatternValue::Const(Value::str("a2")),
        );
        assert!(find_inconsistencies(&[c1, c2]).is_empty());
    }

    #[test]
    fn compatible_constant_cfds_are_consistent() {
        let c1 = Cfd::with_pattern(
            "c1",
            "r",
            vec!["a"],
            "b",
            vec![PatternValue::Const(Value::str("a1"))],
            PatternValue::Const(Value::str("b1")),
        );
        let c2 = Cfd::with_pattern(
            "c2",
            "r",
            vec!["b"],
            "c",
            vec![PatternValue::Const(Value::str("b1"))],
            PatternValue::Const(Value::str("c1")),
        );
        assert!(find_inconsistencies(&[c1, c2]).is_empty());
    }
}
