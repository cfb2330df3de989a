//! Reference re-implementation of the **clause-cloning repaired-clause
//! expansion** that `dlearn_logic::repaired_clauses` replaced, together with
//! the `canonical_string`, `retain_head_connected` and repair-group helpers
//! (condition evaluation, a group's substitution) it relied on.
//!
//! Deliberately kept as it was: every branch clones the whole clause, every
//! repair application runs `Clause::apply` over the clause, every leaf runs
//! the `BTreeSet` fixpoint of head-connectedness and deduplicates by a
//! rendered `String` whose two sorts render each literal O(log n) times. The
//! production expansion must return exactly what [`repaired_clauses`]
//! returns — the same clauses in the same order, at every limit — and the
//! production `Clause::retain_head_connected` and `Clause::canonical_string`
//! must agree with [`retain_head_connected`] and [`canonical_string`]; the
//! `expand_differential` suites assert all three.

use std::collections::{BTreeSet, HashSet};

use dlearn_logic::{Clause, CondAtom, ExpandLimits, Literal, RepairGroup, Substitution, Term, Var};

/// Enumerate the repaired clauses of `clause`, up to the given limits.
///
/// The result always contains at least one clause; a clause without repair
/// groups expands to itself.
pub fn repaired_clauses(clause: &Clause, limits: ExpandLimits) -> Vec<Clause> {
    let mut results: Vec<Clause> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack: Vec<Clause> = vec![clause.clone()];
    let mut steps = 0usize;

    while let Some(current) = stack.pop() {
        steps += 1;
        if steps > limits.max_steps || results.len() >= limits.max_repairs {
            break;
        }
        if current.repairs.is_empty() {
            let mut finished = current;
            retain_head_connected(&mut finished);
            if seen.insert(canonical_string(&finished)) {
                results.push(finished);
            }
            continue;
        }
        let applicable: Vec<usize> = current
            .repairs
            .iter()
            .enumerate()
            .filter(|(_, g)| condition_holds(g, &current.body))
            .map(|(i, _)| i)
            .collect();

        if applicable.is_empty() {
            // No repair can fire: discard all remaining repair groups.
            let mut c = current;
            c.repairs.clear();
            stack.push(c);
            continue;
        }

        // Repairs that share no variables with any *other* applicable repair
        // can be applied in any order with the same outcome; fire the first
        // such repair without branching.
        let independent = applicable.iter().copied().find(|&i| {
            let vars_i = current.repairs[i].variables();
            applicable
                .iter()
                .all(|&j| j == i || current.repairs[j].variables().is_disjoint(&vars_i))
        });

        let branch_targets: Vec<usize> = match independent {
            Some(i) => vec![i],
            None => applicable,
        };

        for &i in &branch_targets {
            stack.push(apply_repair(&current, i));
        }
    }

    if results.is_empty() {
        // Budget exhausted before reaching any fully repaired clause; fall
        // back to dropping the remaining repairs so callers always get a
        // usable clause.
        let mut c = clause.clone();
        c.repairs.clear();
        retain_head_connected(&mut c);
        results.push(c);
    }
    results
}

/// Apply the repair group at `index` to the clause, producing the successor
/// clause: consumed literals are removed, the group's substitution is applied
/// everywhere (including the other groups' conditions), and the group itself
/// is dropped.
fn apply_repair(clause: &Clause, index: usize) -> Clause {
    let mut c = clause.clone();
    let group = c.repairs.remove(index);
    let targets = group.targets();
    // Remove the literals the repair consumes, plus similarity literals that
    // mention a replaced variable: after unification the replaced variable
    // stands for a fresh (repaired) value, so similarity facts about its old
    // value are stale. This is what makes conflicting repairs of the same
    // variable mutually exclusive (paper Example 3.3: a dirty title can be
    // unified with only one of its candidate matches per repaired clause).
    c.body.retain(|l| {
        if group.consumes.contains(l) {
            return false;
        }
        if matches!(l, Literal::Similar(_, _)) {
            return !l.variables().iter().any(|v| targets.contains(v));
        }
        true
    });
    let subst = substitution(&group);
    c.apply(&subst)
}

/// The substitution a repair group performs: each replaced variable to its
/// replacement (on a repeated target the last replacement wins).
fn substitution(group: &RepairGroup) -> Substitution {
    group.replacements.iter().map(|(v, t)| (*v, *t)).collect()
}

/// Evaluate a repair group's condition (a conjunction) against a clause
/// body.
fn condition_holds(group: &RepairGroup, body: &[Literal]) -> bool {
    group
        .condition
        .iter()
        .all(|atom| cond_atom_holds(atom, body))
}

/// Evaluate one condition atom against a clause body.
fn cond_atom_holds(atom: &CondAtom, body: &[Literal]) -> bool {
    match atom {
        CondAtom::Eq(a, b) => {
            a == b
                || body.iter().any(|l| {
                    matches!(l, Literal::Equal(x, y)
                        if (x == a && y == b) || (x == b && y == a))
                })
        }
        CondAtom::Neq(a, b) => {
            if a == b {
                return false;
            }
            // Distinct constants are unequal; distinct variables are
            // treated as unequal unless an equality literal unifies them
            // (Section 4.1: inequality conditions "return true if the
            // variables are distinct and there is no equality literal
            // between them").
            !body.iter().any(|l| {
                matches!(l, Literal::Equal(x, y)
                    if (x == a && y == b) || (x == b && y == a))
            })
        }
        CondAtom::Sim(a, b) => {
            a == b
                || body.iter().any(|l| {
                    matches!(l, Literal::Similar(x, y)
                        if (x == a && y == b) || (x == b && y == a))
                })
        }
    }
}

/// Keep only head-connected body literals (Section 2.1: a literal is
/// head-connected when it shares a variable with the head or with another
/// head-connected literal), then drop repair groups that are no longer
/// connected to any remaining relation literal or the head.
pub fn retain_head_connected(clause: &mut Clause) {
    let mut connected: BTreeSet<Var> = clause.head.variables();
    let mut kept = vec![false; clause.body.len()];
    // Fixpoint over body literals.
    loop {
        let mut changed = false;
        for (i, l) in clause.body.iter().enumerate() {
            if kept[i] {
                continue;
            }
            let vars = l.variables();
            if vars.is_empty() {
                // Fully ground literal: keep (it is trivially connected
                // through constants that came from the example walk).
                kept[i] = true;
                changed = true;
                continue;
            }
            if vars.iter().any(|v| connected.contains(v)) {
                kept[i] = true;
                connected.extend(vars);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut idx = 0;
    clause.body.retain(|_| {
        let keep = kept[idx];
        idx += 1;
        keep
    });
    // Section 3.2 cleanup: similarity/equality/inequality literals whose
    // variables no longer appear in the head or in any schema relation
    // literal constrain nothing and are dropped.
    let mut schema_vars: BTreeSet<Var> = clause.head.variables();
    for l in &clause.body {
        if l.is_relation() {
            schema_vars.extend(l.variables());
        }
    }
    clause
        .body
        .retain(|l| l.is_relation() || l.variables().iter().all(|v| schema_vars.contains(v)));
    // Repair groups must stay connected to the surviving literals.
    let mut live_vars: BTreeSet<Var> = clause.head.variables();
    for l in &clause.body {
        live_vars.extend(l.variables());
    }
    // A repair survives only while every variable it replaces is still in
    // the clause: an MD repair that lost one side of its match (because
    // the literal carrying it was dropped) can no longer unify anything.
    clause
        .repairs
        .retain(|g| g.targets().iter().all(|v| live_vars.contains(v)));
}

/// A canonical string form: variables renamed by first appearance and the
/// body sorted, used to deduplicate logically identical repaired clauses.
pub fn canonical_string(clause: &Clause) -> String {
    let mut clause = clause.clone();
    for _ in 0..2 {
        let renaming = first_appearance_renaming(&clause);
        clause = clause.apply(&renaming);
        clause.body.sort_by_key(|l| l.to_string());
    }
    let mut s = clause.head.to_string();
    s.push_str(" <- ");
    s.push_str(
        &clause
            .body
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    for g in &clause.repairs {
        s.push_str(" & ");
        s.push_str(&g.render());
    }
    s
}

fn first_appearance_renaming(clause: &Clause) -> Substitution {
    let mut renaming = Substitution::new();
    let mut next = 0u32;
    let visit = |term: &Term, renaming: &mut Substitution, next: &mut u32| {
        if let Some(v) = term.as_var() {
            if renaming.get(v).is_none() {
                renaming.bind(v, Term::var(*next));
                *next += 1;
            }
        }
    };
    for t in clause.head.args() {
        visit(t, &mut renaming, &mut next);
    }
    for l in &clause.body {
        for t in l.args() {
            visit(t, &mut renaming, &mut next);
        }
    }
    for g in &clause.repairs {
        for (v, t) in &g.replacements {
            visit(&Term::Var(*v), &mut renaming, &mut next);
            visit(t, &mut renaming, &mut next);
        }
    }
    renaming
}

/// The `(max_repairs, max_steps)` grid the expansion differential suites
/// run at: the shipped caps, tight and zero budgets, a zero result cap, and
/// both caps lifted.
pub const DIFFERENTIAL_LIMITS: [(usize, usize); 8] = [
    (1, 2048),
    (6, 2048),
    (12, 2048),
    (16, 1024),
    (6, 8),
    (6, 0),
    (0, 2048),
    (1000, 65536),
];

/// Assert that production and reference agree on `clause`:
/// `dlearn_logic::repaired_clauses` equals [`repaired_clauses`] as a whole
/// `Vec<Clause>` (content and order) at every limit of
/// [`DIFFERENTIAL_LIMITS`]; `Clause::retain_head_connected` and
/// `Clause::canonical_string` equal [`retain_head_connected`] and
/// [`canonical_string`] on the clause and on every repaired clause; and
/// `Clause::canonical_key` separates exactly the clauses the canonical
/// strings separate. `context` names the clause in failure messages.
pub fn assert_agrees(clause: &Clause, context: &str) {
    let mut connected = clause.clone();
    connected.retain_head_connected();
    let mut reference_connected = clause.clone();
    retain_head_connected(&mut reference_connected);
    assert_eq!(
        connected, reference_connected,
        "{context}: retain_head_connected differs on {clause}"
    );
    let mut checked: Vec<Clause> = vec![clause.clone(), connected];
    for (max_repairs, max_steps) in DIFFERENTIAL_LIMITS {
        let limits = ExpandLimits {
            max_repairs,
            max_steps,
        };
        let produced = dlearn_logic::repaired_clauses(clause, limits);
        let expected = repaired_clauses(clause, limits);
        assert_eq!(
            produced, expected,
            "{context}: repaired_clauses differs at max_repairs {max_repairs}, \
             max_steps {max_steps} on {clause}"
        );
        checked.extend(produced);
    }
    let strings: Vec<String> = checked.iter().map(canonical_string).collect();
    let keys: Vec<_> = checked.iter().map(Clause::canonical_key).collect();
    for (i, c) in checked.iter().enumerate() {
        assert_eq!(
            c.canonical_string(),
            strings[i],
            "{context}: canonical_string differs on {c}"
        );
        for j in 0..i {
            assert_eq!(
                keys[i] == keys[j],
                strings[i] == strings[j],
                "{context}: canonical keys and strings disagree on {c} vs {}",
                checked[j]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_logic::RepairOrigin;

    #[test]
    fn condition_evaluation_over_body() {
        let body = vec![
            Literal::Similar(Term::var(0), Term::var(1)),
            Literal::Equal(Term::var(3), Term::var(4)),
        ];
        let holds = |atom: CondAtom| cond_atom_holds(&atom, &body);
        assert!(holds(CondAtom::Sim(Term::var(0), Term::var(1))));
        assert!(holds(CondAtom::Sim(Term::var(1), Term::var(0))));
        assert!(!holds(CondAtom::Sim(Term::var(0), Term::var(2))));
        assert!(holds(CondAtom::Eq(Term::var(3), Term::var(4))));
        assert!(holds(CondAtom::Eq(Term::var(7), Term::var(7))));
        assert!(!holds(CondAtom::Eq(Term::var(0), Term::var(1))));
        assert!(holds(CondAtom::Neq(Term::var(0), Term::var(1))));
        assert!(!holds(CondAtom::Neq(Term::var(3), Term::var(4))));
        assert!(!holds(CondAtom::Neq(Term::var(5), Term::var(5))));
    }

    #[test]
    fn group_condition_and_substitution() {
        // V_{v0 ≈ v1}(v0, v2), V_{v0 ≈ v1}(v1, v2): unify v0 and v1 into v2.
        let g = RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(1))],
            vec![(Var(0), Term::var(2)), (Var(1), Term::var(2))],
            vec![Literal::Similar(Term::var(0), Term::var(1))],
        );
        let body = vec![Literal::Similar(Term::var(0), Term::var(1))];
        assert!(condition_holds(&g, &body));
        assert!(!condition_holds(&g, &[]));
        let subst = substitution(&g);
        assert_eq!(subst.apply(&Term::var(0)), Term::var(2));
        assert_eq!(subst.apply(&Term::var(1)), Term::var(2));
        assert_eq!(subst.len(), 2);
    }
}
