//! Database repairs.
//!
//! Two repair procedures are provided:
//!
//! * [`minimal_cfd_repair`] — the *minimal repair* of CFD violations used by
//!   the DLearn-Repaired baseline (Section 6.1.3): every group of tuples that
//!   agrees on a CFD's left-hand side is forced to a single right-hand-side
//!   value (the pattern constant when the CFD specifies one, otherwise the
//!   most frequent value in the group), iterated to a fixpoint across CFDs.
//!   This commits to one repair and therefore loses the alternative repairs
//!   that DLearn itself keeps.
//! * [`enforce_md_best_match_with_index`] — the value unification performed
//!   by the Castor-Clean baseline: every value of the right-hand identified
//!   attribute of an MD is replaced by its most similar left-hand value in
//!   the MD's prebuilt index, rewriting the database so the heterogeneity
//!   is resolved by a hard (and possibly wrong) choice.

use std::collections::HashMap;

use dlearn_relstore::{Database, RelId, Sym, Value};

use crate::cfd::{Cfd, PatternValue};

/// Statistics about a repair pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Number of attribute values modified.
    pub values_changed: usize,
    /// Number of fixpoint iterations performed.
    pub iterations: usize,
}

/// Union-find over tuple ids, used to compute the connected components of
/// tuples whose right-hand-side values must be equalized.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Produce the minimal CFD repair of a database (value modifications only).
///
/// For every right-hand-side attribute, tuples connected through any CFD
/// group (same LHS value, matching LHS pattern) are equalized in one step:
/// each connected component takes the pattern constant when a CFD forces
/// one, otherwise its most frequent current value. The outer loop repeats
/// because repairing one CFD can change another CFD's grouping.
///
/// Returns the repaired database and statistics. The input is not modified.
pub fn minimal_cfd_repair(database: &Database, cfds: &[Cfd]) -> (Database, RepairStats) {
    let mut db = database.clone();
    let mut stats = RepairStats::default();
    let max_rounds = 16;
    for round in 0..max_rounds {
        stats.iterations = round + 1;
        let mut changed_this_round = 0usize;

        // Group the CFDs by (relation, rhs attribute): their repairs interact
        // directly, so they are equalized together through one union-find.
        let mut buckets: HashMap<(RelId, Sym), Vec<&Cfd>> = HashMap::new();
        for cfd in cfds {
            buckets
                .entry((cfd.relation, cfd.rhs))
                .or_default()
                .push(cfd);
        }

        for (&(relation_name, _rhs_attr), group_cfds) in &buckets {
            let Some(relation) = db.relation(relation_name) else {
                continue;
            };
            let rhs_index = group_cfds[0].rhs_index(relation);
            let n = relation.len();
            if n == 0 {
                continue;
            }
            let mut uf = UnionFind::new(n);
            // Forced constants per tuple (from constant RHS patterns).
            let mut forced: HashMap<usize, Value> = HashMap::new();

            for cfd in group_cfds {
                let lhs_indices = cfd.lhs_indices(relation);
                let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (id, tuple) in relation.iter() {
                    if !cfd.lhs_matches(tuple, &lhs_indices) {
                        continue;
                    }
                    let key: Vec<Value> = lhs_indices
                        .iter()
                        .map(|&i| tuple.value(i).cloned().unwrap_or(Value::Null))
                        .collect();
                    groups.entry(key).or_default().push(id);
                }
                for ids in groups.values() {
                    for w in ids.windows(2) {
                        uf.union(w[0], w[1]);
                    }
                    if let PatternValue::Const(c) = &cfd.rhs_pattern {
                        for &id in ids {
                            forced.insert(id, *c);
                        }
                    }
                }
            }

            // Collect components and choose a target value per component.
            let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
            for id in 0..n {
                components.entry(uf.find(id)).or_default().push(id);
            }
            let mut updates: Vec<(usize, Value)> = Vec::new();
            for ids in components.values() {
                if ids.len() < 2 && !ids.iter().any(|id| forced.contains_key(id)) {
                    continue;
                }
                let target = if let Some(c) = ids.iter().find_map(|id| forced.get(id)) {
                    *c
                } else {
                    let mut counts: HashMap<Value, usize> = HashMap::new();
                    for &id in ids {
                        if let Some(v) = relation.tuple(id).and_then(|t| t.value(rhs_index)) {
                            *counts.entry(*v).or_default() += 1;
                        }
                    }
                    match counts
                        .into_iter()
                        .max_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
                    {
                        Some((v, _)) => v,
                        None => continue,
                    }
                };
                for &id in ids {
                    let current = relation.tuple(id).and_then(|t| t.value(rhs_index));
                    if current != Some(&target) {
                        updates.push((id, target));
                    }
                }
            }

            if updates.is_empty() {
                continue;
            }
            let rel_mut = db.relation_mut(relation_name).expect("relation exists");
            for (id, value) in updates {
                rel_mut
                    .update_value(id, rhs_index, value)
                    .expect("validated update");
                changed_this_round += 1;
            }
        }

        stats.values_changed += changed_this_round;
        if changed_this_round == 0 {
            break;
        }
    }
    (db, stats)
}

/// Verify that every CFD is satisfied by the database.
pub fn all_cfds_satisfied(database: &Database, cfds: &[Cfd]) -> bool {
    cfds.iter().all(|cfd| {
        database
            .relation(cfd.relation)
            .map(|r| cfd.satisfied_by(r))
            .unwrap_or(true)
    })
}

/// Castor-Clean's preprocessing over a prebuilt MD index: every value of
/// the MD's right-hand identified attribute is replaced, in place, by its
/// best match recorded in the index (the first entry of its right-to-left
/// match list). Prepared sessions build the index once at `Engine::prepare`
/// time, so the rewrite runs no alignment of its own.
///
/// The match is the best *stored* pair: the index's right-to-left lists are
/// derived from the pairs that survived each *left* value's top-k
/// truncation, so a right value whose true best left match was truncated
/// out unifies with its best stored partner (or stays unchanged when no pair
/// survived).
pub fn enforce_md_best_match_with_index(db: &mut Database, md_index: &crate::md_index::MdIndex) {
    let md = &md_index.md;
    let Some(right_rel) = db.relation_mut(md.right_relation) else {
        return;
    };
    let Some(right_idx) = right_rel.schema().attribute_pos(md.identify_right) else {
        return;
    };
    let updates: Vec<(usize, Value)> = right_rel
        .iter()
        .filter_map(|(id, tuple)| {
            let current = tuple.value(right_idx)?.as_sym()?;
            let best = md_index.matches_from_right(current).first()?;
            if best.value != current {
                Some((id, Value::Str(best.value)))
            } else {
                None
            }
        })
        .collect();
    for (id, value) in updates {
        right_rel
            .update_value(id, right_idx, value)
            .expect("validated update");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::MatchingDependency;
    use crate::md_index::MdIndex;
    use dlearn_relstore::{DatabaseBuilder, RelationBuilder};
    use dlearn_similarity::IndexConfig;

    fn dirty_locale_db() -> Database {
        DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("mov2locale")
                    .str_attr("title")
                    .str_attr("language")
                    .str_attr("country")
                    .build(),
            )
            .row("mov2locale", vec!["Bait", "English", "USA"])
            .row("mov2locale", vec!["Bait", "English", "Ireland"])
            .row("mov2locale", vec!["Bait", "English", "USA"])
            .row("mov2locale", vec!["Rec", "Spanish", "Spain"])
            .build()
    }

    fn phi1() -> Cfd {
        Cfd::with_pattern(
            "phi1",
            "mov2locale",
            vec!["title", "language"],
            "country",
            vec![
                PatternValue::Any,
                PatternValue::Const(Value::str("English")),
            ],
            PatternValue::Any,
        )
    }

    #[test]
    fn minimal_repair_eliminates_violations() {
        let db = dirty_locale_db();
        let cfds = vec![phi1()];
        assert!(!all_cfds_satisfied(&db, &cfds));
        let (repaired, stats) = minimal_cfd_repair(&db, &cfds);
        assert!(all_cfds_satisfied(&repaired, &cfds));
        // The majority value (USA) wins, so exactly one tuple changes.
        assert_eq!(stats.values_changed, 1);
        let rel = repaired.relation("mov2locale").unwrap();
        let usa = rel
            .select_eq_by_name("country", &Value::str("USA"))
            .unwrap();
        assert_eq!(usa.len(), 3);
    }

    #[test]
    fn repair_is_idempotent() {
        let db = dirty_locale_db();
        let cfds = vec![phi1()];
        let (repaired, _) = minimal_cfd_repair(&db, &cfds);
        let (again, stats) = minimal_cfd_repair(&repaired, &cfds);
        assert_eq!(stats.values_changed, 0);
        assert_eq!(again.summary(), repaired.summary());
    }

    #[test]
    fn rhs_pattern_constant_forces_that_value() {
        let db = dirty_locale_db();
        let cfd = Cfd::with_pattern(
            "force_usa",
            "mov2locale",
            vec!["language"],
            "country",
            vec![PatternValue::Const(Value::str("English"))],
            PatternValue::Const(Value::str("USA")),
        );
        let (repaired, _) = minimal_cfd_repair(&db, std::slice::from_ref(&cfd));
        assert!(all_cfds_satisfied(&repaired, &[cfd]));
        let rel = repaired.relation("mov2locale").unwrap();
        assert_eq!(
            rel.select_eq_by_name("country", &Value::str("USA"))
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn untouched_relations_are_preserved() {
        let db = dirty_locale_db();
        let (repaired, _) = minimal_cfd_repair(&db, &[phi1()]);
        let rel = repaired.relation("mov2locale").unwrap();
        assert_eq!(
            rel.select_eq_by_name("country", &Value::str("Spain"))
                .unwrap()
                .len(),
            1,
            "the Spanish tuple does not participate in any violation"
        );
    }

    #[test]
    fn md_best_match_rewrites_right_values() {
        let mut db = DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("movies")
                    .int_attr("id")
                    .str_attr("title")
                    .build(),
            )
            .relation(
                RelationBuilder::new("highBudgetMovies")
                    .str_attr("title")
                    .build(),
            )
            .row("movies", vec![Value::int(1), Value::str("Superbad (2007)")])
            .row(
                "movies",
                vec![Value::int(2), Value::str("Zoolander (2001)")],
            )
            .row("highBudgetMovies", vec![Value::str("Superbad")])
            .row("highBudgetMovies", vec![Value::str("Zoolander")])
            .build();
        let md =
            MatchingDependency::simple("titles", "movies", "title", "highBudgetMovies", "title");
        let config = IndexConfig {
            top_k: 1,
            ..IndexConfig::default()
        };
        let index = MdIndex::build(0, &md, &db, &config);
        enforce_md_best_match_with_index(&mut db, &index);
        let rel = db.relation("highBudgetMovies").unwrap();
        for title in ["Superbad (2007)", "Zoolander (2001)"] {
            let rows = rel.select_eq_by_name("title", &Value::str(title)).unwrap();
            assert_eq!(rows.len(), 1, "{title}");
        }
    }
}
