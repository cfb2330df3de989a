//! Bottom-clause construction over a dirty database (Algorithm 2).
//!
//! The bottom clause `C_e` of a training example `e` is the most specific
//! clause in the hypothesis space that covers `e`. It is built by walking the
//! database from the example's values for `d` iterations, following both
//! exact value matches (hash-index selections) and similarity matches
//! prescribed by the task's matching dependencies, then turning every
//! relevant tuple into a literal. Similarity matches additionally contribute
//! a similarity literal `x ≈ t` plus an MD repair group, and CFD violations
//! among the collected literals contribute CFD repair groups (Section 4.1).
//!
//! Every map of a walk hashes with the in-repo Fx hasher
//! ([`dlearn_relstore::FxHashMap`]), not the standard library's SipHash.
//! Their keys are interned ids, integers and small tuples of them, so no
//! string is hashed. Each map lives for one walk and holds what that walk
//! reached, bounded by `sample_size` tuples per relation and
//! `MAX_FRONTIER` values per round, so a run of colliding keys costs one
//! bounded walk at most (see the caveat in [`dlearn_relstore::fxhash`]). No
//! output depends on a map's iteration order: body literals come from a
//! sorted list, the frontier and the similarity matches are vectors, and a
//! [`ProbeLog`] is only tested for membership and compared whole.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use dlearn_constraints::MdCatalog;
use dlearn_logic::repair::{CondAtom, RepairGroup, RepairOrigin};
use dlearn_logic::{Clause, Literal, Term, Var};
use dlearn_relstore::{FxHashMap, FxHashSet, RelId, Sym, Tuple, Value};

use crate::config::LearnerConfig;
use crate::task::LearningTask;

/// Maximum number of frontier values explored per walk iteration; keeps the
/// relevant-tuple walk bounded on very dense databases.
const MAX_FRONTIER: usize = 256;

/// The exact probes one bottom-clause construction executed against the
/// database and the MD catalog.
///
/// The walk of Algorithm 2 reads its inputs only through two kinds of probe:
/// hash-index selections `select_eq(attribute, value)` and similarity-index
/// lookups for a symbol under one MD. Everything else — RNG consumption,
/// capacity bookkeeping, literal emission — is a pure function of the probe
/// *results*. So if no probe in the log is affected by a database delta, the
/// construction replayed on the mutated database returns a bit-identical
/// clause, and the stored ground clause can be reused as-is. (Tuple-id
/// renumbering under deletions is order-preserving and the emitted clause
/// contains no tuple ids, so unaffected probe results survive renumbering.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeLog {
    /// Exact-selection probes: `(relation, attribute, value)` triples.
    pub(crate) values: FxHashSet<(RelId, usize, Value)>,
    /// Similarity probes: `(md position, probed symbol)` pairs. A probe is
    /// affected when the delta changed the symbol's match list on either
    /// side of that MD's index.
    pub(crate) sims: FxHashSet<(usize, Sym)>,
}

impl ProbeLog {
    /// Number of distinct exact-selection probes recorded.
    pub fn value_probes(&self) -> usize {
        self.values.len()
    }

    /// Number of distinct similarity probes recorded.
    pub fn sim_probes(&self) -> usize {
        self.sims.len()
    }
}

/// Builds bottom clauses (and ground bottom clauses) for training examples.
pub struct BottomClauseBuilder<'a> {
    task: &'a LearningTask,
    catalog: &'a MdCatalog,
    config: &'a LearnerConfig,
    /// Interned copy of `task.sources`, resolved once so the per-tuple walk
    /// never hashes a source string.
    sources: FxHashMap<RelId, Sym>,
    /// Interned `task.target_source`.
    target_source: Option<Sym>,
}

impl<'a> BottomClauseBuilder<'a> {
    /// Create a builder for a task. The MD catalog must have been built over
    /// the same database (it is empty for learners that ignore MDs).
    pub fn new(task: &'a LearningTask, catalog: &'a MdCatalog, config: &'a LearnerConfig) -> Self {
        let sources = task
            .sources
            .iter()
            .map(|(rel, src)| (RelId::intern(rel), Sym::intern(src)))
            .collect();
        let target_source = task.target_source.as_ref().map(Sym::intern);
        BottomClauseBuilder {
            task,
            catalog,
            config,
            sources,
            target_source,
        }
    }

    /// The declared source of a relation, as an interned symbol (`None` when
    /// no sources are declared or the relation is unlisted).
    fn source_sym(&self, relation: RelId) -> Option<Sym> {
        self.sources.get(&relation).copied()
    }

    /// Build the bottom clause for one example.
    pub fn build(&self, example: &Tuple, rng: &mut StdRng) -> Clause {
        self.build_inner(example, rng, None)
    }

    /// Build the bottom clause for one example, recording every database and
    /// similarity probe the walk executes (see [`ProbeLog`]).
    pub fn build_probed(&self, example: &Tuple, rng: &mut StdRng) -> (Clause, ProbeLog) {
        let mut probes = ProbeLog::default();
        let clause = self.build_inner(example, rng, Some(&mut probes));
        (clause, probes)
    }

    fn build_inner(
        &self,
        example: &Tuple,
        rng: &mut StdRng,
        mut probes: Option<&mut ProbeLog>,
    ) -> Clause {
        let mut state = BuildState::default();

        // Head literal: one variable per example value.
        let head_args: Vec<Term> = example.values().iter().map(|v| state.var_for(*v)).collect();
        let head = Literal::relation(&self.task.target.name, head_args);
        let mut clause = Clause::new(head);

        let mut frontier: Vec<Value> = example.values().to_vec();
        for v in &frontier {
            state.known.insert(*v);
            if let Some(src) = self.target_source {
                state.value_sources.entry(*v).or_default().insert(src);
            }
        }

        // Relevant-tuple walk (Algorithm 2).
        for _round in 0..self.config.iterations {
            if frontier.is_empty() {
                break;
            }
            if frontier.len() > MAX_FRONTIER {
                frontier.shuffle(rng);
                frontier.truncate(MAX_FRONTIER);
            }
            let mut next_frontier: Vec<Value> = Vec::new();

            // Exact selections over every relation and attribute. When the
            // task declares relation sources, exact joins only stay within a
            // source; crossing sources requires a matching dependency.
            for relation in self.task.database.relations() {
                let rel_id = relation.rel_id();
                let capacity = self
                    .config
                    .sample_size
                    .saturating_sub(state.per_relation.get(&rel_id).copied().unwrap_or(0));
                if capacity == 0 {
                    continue;
                }
                let rel_source = self.source_sym(rel_id);
                let mut candidate_ids: Vec<usize> = Vec::new();
                for attr in 0..relation.schema().arity() {
                    for v in &frontier {
                        if !state.allows_source(v, rel_source) {
                            continue;
                        }
                        if let Some(log) = probes.as_deref_mut() {
                            log.values.insert((rel_id, attr, *v));
                        }
                        for &id in relation.select_eq(attr, v) {
                            candidate_ids.push(id);
                        }
                    }
                }
                candidate_ids.sort_unstable();
                candidate_ids.dedup();
                candidate_ids.retain(|id| !state.collected.contains(&(rel_id, *id)));
                if candidate_ids.len() > capacity {
                    candidate_ids.shuffle(rng);
                    candidate_ids.truncate(capacity);
                    candidate_ids.sort_unstable();
                }
                for id in candidate_ids {
                    state.collect(
                        rel_id,
                        id,
                        relation.tuple(id).expect("valid id"),
                        rel_source,
                        &mut next_frontier,
                    );
                }
            }

            // Similarity selections prescribed by the MDs (ψ in Algorithm 2).
            if self.config.use_mds {
                self.similarity_probe(
                    &frontier,
                    &mut state,
                    &mut next_frontier,
                    rng,
                    probes.as_deref_mut(),
                );
            }

            frontier = next_frontier;
        }

        // Turn collected tuples into body literals.
        let mut literal_sources: Vec<(usize, RelId, usize)> = Vec::new();
        let mut ordered: Vec<(RelId, usize)> = state.collected.iter().copied().collect();
        ordered.sort(); // RelId orders by name: same order as the String era
        for (rel_id, id) in ordered {
            // Invariant: every (rel_id, id) in `collected` came out of a
            // select over this database earlier in the walk. Task-shape
            // errors (unknown relations in MDs/CFDs, bad example arity) are
            // rejected at `Engine::prepare` time and never reach here.
            let relation = self
                .task
                .database
                .relation(rel_id)
                .expect("collected (relation, id) pairs come from this database");
            let tuple = relation
                .tuple(id)
                .expect("collected (relation, id) pairs come from this database");
            let args: Vec<Term> = tuple
                .values()
                .iter()
                .enumerate()
                .map(|(p, v)| {
                    if v.is_null() {
                        // Every NULL is its own variable: NULLs never join.
                        state.fresh_var()
                    } else if self.task.is_constant_attribute(rel_id, p) {
                        Term::Const(*v)
                    } else {
                        state.var_for(*v)
                    }
                })
                .collect();
            let literal = Literal::relation(rel_id, args);
            if clause.push_unique(literal) {
                literal_sources.push((clause.body.len() - 1, rel_id, id));
            }
        }

        // Similarity literals and MD repair groups.
        if self.config.use_mds {
            let matches = state.similarity_matches.clone();
            for (left, right, md_pos) in &matches {
                let (Some(tl), Some(tr)) = (state.term_of(left), state.term_of(right)) else {
                    continue;
                };
                if tl == tr {
                    continue;
                }
                let (Some(vl), Some(vr)) = (tl.as_var(), tr.as_var()) else {
                    continue;
                };
                let sim = Literal::Similar(tl, tr);
                clause.push_unique(sim.clone());
                let fresh = state.fresh_var();
                clause.push_repair(RepairGroup::new(
                    RepairOrigin::Md(*md_pos),
                    vec![CondAtom::Sim(tl, tr)],
                    vec![(vl, fresh), (vr, fresh)],
                    vec![sim],
                ));
            }
        }

        // CFD repair groups for violations among the collected literals.
        if self.config.use_cfd_repairs {
            self.add_cfd_repairs(&mut clause, &literal_sources);
        }

        clause.retain_head_connected();
        clause
    }

    /// Probe the MD similarity indexes with the frontier values and collect
    /// the matched tuples from the opposite relation of each MD.
    fn similarity_probe(
        &self,
        frontier: &[Value],
        state: &mut BuildState,
        next_frontier: &mut Vec<Value>,
        rng: &mut StdRng,
        mut probes: Option<&mut ProbeLog>,
    ) {
        for md_index in self.catalog.indexes() {
            for (probe_relation, target_relation, target_attr) in [
                (
                    md_index.md.left_relation,
                    md_index.md.right_relation,
                    md_index.md.identify_right,
                ),
                (
                    md_index.md.right_relation,
                    md_index.md.left_relation,
                    md_index.md.identify_left,
                ),
            ] {
                let Some(target_rel) = self.task.database.relation(target_relation) else {
                    continue;
                };
                let Some(attr_idx) = target_rel.schema().attribute_pos(target_attr) else {
                    continue;
                };
                // Loop-invariant: the source only depends on the target
                // relation, not on the frontier value or the match.
                let target_source = self.source_sym(target_relation);
                for v in frontier {
                    let Some(s) = v.as_sym() else { continue };
                    if let Some(log) = probes.as_deref_mut() {
                        log.sims.insert((md_index.md_position, s));
                    }
                    let matches = md_index.matches_for(probe_relation, s);
                    // The example's values do not belong to any relation, so
                    // also probe them against both sides.
                    let matches =
                        if matches.is_empty() && probe_relation == md_index.md.left_relation {
                            md_index.matches_from_right(s)
                        } else {
                            matches
                        };
                    for m in matches.iter().take(self.config.km) {
                        let capacity = self.config.sample_size.saturating_sub(
                            state
                                .per_relation
                                .get(&target_relation)
                                .copied()
                                .unwrap_or(0),
                        );
                        if capacity == 0 {
                            break;
                        }
                        let matched_value = Value::Str(m.value);
                        if let Some(log) = probes.as_deref_mut() {
                            log.values
                                .insert((target_relation, attr_idx, matched_value));
                        }
                        let mut ids: Vec<usize> =
                            target_rel.select_eq(attr_idx, &matched_value).to_vec();
                        ids.retain(|id| !state.collected.contains(&(target_relation, *id)));
                        if ids.len() > capacity {
                            ids.shuffle(rng);
                            ids.truncate(capacity);
                        }
                        let mut hit = ids.is_empty()
                            && state.collected.iter().any(|(r, id)| {
                                *r == target_relation
                                    && target_rel.tuple(*id).and_then(|t| t.value(attr_idx))
                                        == Some(&matched_value)
                            });
                        for id in ids {
                            state.collect(
                                target_relation,
                                id,
                                target_rel.tuple(id).expect("valid id"),
                                target_source,
                                next_frontier,
                            );
                            hit = true;
                        }
                        if hit {
                            state.record_similarity(*v, matched_value, md_index.md_position);
                        }
                    }
                }
            }
        }
    }

    /// Scan the clause for CFD violations (using the source tuples' actual
    /// values) and add the corresponding repair groups. Following the
    /// minimal-repair reduction at the end of Section 4.1, only right-hand
    /// side repairs over the existing variables are introduced.
    fn add_cfd_repairs(&self, clause: &mut Clause, literal_sources: &[(usize, RelId, usize)]) {
        for (ci, cfd) in self.task.cfds.iter().enumerate() {
            let Some(relation) = self.task.database.relation(cfd.relation) else {
                continue;
            };
            let lhs_indices = cfd.lhs_indices(relation);
            let rhs_index = cfd.rhs_index(relation);
            let members: Vec<&(usize, RelId, usize)> = literal_sources
                .iter()
                .filter(|(_, r, _)| *r == cfd.relation)
                .collect();
            for (a, (body_a, _, id_a)) in members.iter().enumerate() {
                for (body_b, _, id_b) in members.iter().skip(a + 1) {
                    let t1 = relation.tuple(*id_a).expect("valid id");
                    let t2 = relation.tuple(*id_b).expect("valid id");
                    if !cfd.violates(t1, t2, &lhs_indices, rhs_index) {
                        continue;
                    }
                    let z1 = *clause.body[*body_a].args()[rhs_index];
                    let z2 = *clause.body[*body_b].args()[rhs_index];
                    let (Some(_v1), Some(v2)) = (z1.as_var(), z2.as_var()) else {
                        // Constant right-hand sides are not repaired at the
                        // clause level: the Section 4.1 reduction above only
                        // repairs over existing variables, and the
                        // generators keep CFD right-hand sides variablized.
                        continue;
                    };
                    if z1 == z2 {
                        continue;
                    }
                    clause.push_repair(RepairGroup::new(
                        RepairOrigin::Cfd(ci),
                        vec![CondAtom::Neq(z1, z2)],
                        vec![(v2, z1)],
                        vec![],
                    ));
                }
            }
        }
    }
}

/// Mutable state of one bottom-clause construction.
#[derive(Default)]
struct BuildState {
    value_to_var: FxHashMap<Value, Var>,
    next_var: u32,
    known: FxHashSet<Value>,
    /// Sources each value has been observed in (used to forbid exact joins
    /// across sources when the task declares relation sources).
    value_sources: FxHashMap<Value, FxHashSet<Sym>>,
    collected: FxHashSet<(RelId, usize)>,
    per_relation: FxHashMap<RelId, usize>,
    similarity_matches: Vec<(Value, Value, usize)>,
    similarity_seen: FxHashSet<(Value, Value, usize)>,
}

impl BuildState {
    fn var_for(&mut self, value: Value) -> Term {
        if let Some(v) = self.value_to_var.get(&value) {
            return Term::Var(*v);
        }
        let v = Var(self.next_var);
        self.next_var += 1;
        self.value_to_var.insert(value, v);
        Term::Var(v)
    }

    fn fresh_var(&mut self) -> Term {
        let v = Var(self.next_var);
        self.next_var += 1;
        Term::Var(v)
    }

    fn term_of(&self, value: &Value) -> Option<Term> {
        self.value_to_var.get(value).map(|v| Term::Var(*v))
    }

    fn collect(
        &mut self,
        relation: RelId,
        id: usize,
        tuple: &Tuple,
        source: Option<Sym>,
        next_frontier: &mut Vec<Value>,
    ) {
        if !self.collected.insert((relation, id)) {
            return;
        }
        *self.per_relation.entry(relation).or_default() += 1;
        for v in tuple.values() {
            if v.is_null() {
                continue;
            }
            if let Some(src) = source {
                self.value_sources.entry(*v).or_default().insert(src);
            }
            if self.known.insert(*v) {
                next_frontier.push(*v);
            }
        }
    }

    /// `true` when exact joins on `value` are allowed into a relation of the
    /// given source: either no sources are declared, the value has been seen
    /// in that source, or the value has no recorded source at all.
    fn allows_source(&self, value: &Value, source: Option<Sym>) -> bool {
        match source {
            None => true,
            Some(src) => self
                .value_sources
                .get(value)
                .map(|set| set.contains(&src))
                .unwrap_or(true),
        }
    }

    fn record_similarity(&mut self, left: Value, right: Value, md_pos: usize) {
        if self.similarity_seen.insert((left, right, md_pos)) {
            self.similarity_matches.push((left, right, md_pos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TargetSpec;
    use dlearn_constraints::{Cfd, MatchingDependency};
    use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder};
    use dlearn_similarity::IndexConfig;
    use rand::SeedableRng;

    /// The example movie database of Table 2 in the paper, plus a BOM-style
    /// relation reachable only through a similarity match.
    fn movie_task() -> LearningTask {
        let db = DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("movies")
                    .int_attr("id")
                    .str_attr("title")
                    .int_attr("year")
                    .build(),
            )
            .relation(
                RelationBuilder::new("mov2genres")
                    .int_attr("id")
                    .str_attr("genre")
                    .build(),
            )
            .relation(
                RelationBuilder::new("mov2countries")
                    .int_attr("id")
                    .str_attr("country")
                    .build(),
            )
            .relation(
                RelationBuilder::new("mov2releasedate")
                    .int_attr("id")
                    .str_attr("month")
                    .int_attr("year")
                    .build(),
            )
            .row(
                "movies",
                vec![
                    Value::int(1),
                    Value::str("Superbad (2007)"),
                    Value::int(2007),
                ],
            )
            .row(
                "movies",
                vec![
                    Value::int(2),
                    Value::str("Zoolander (2001)"),
                    Value::int(2001),
                ],
            )
            .row(
                "movies",
                vec![
                    Value::int(3),
                    Value::str("Orphanage (2007)"),
                    Value::int(2007),
                ],
            )
            .row("mov2genres", vec![Value::int(1), Value::str("comedy")])
            .row("mov2genres", vec![Value::int(2), Value::str("comedy")])
            .row("mov2genres", vec![Value::int(3), Value::str("drama")])
            .row("mov2countries", vec![Value::int(1), Value::str("USA")])
            .row("mov2countries", vec![Value::int(2), Value::str("USA")])
            .row("mov2countries", vec![Value::int(3), Value::str("Spain")])
            .row(
                "mov2releasedate",
                vec![Value::int(1), Value::str("August"), Value::int(2007)],
            )
            .row(
                "mov2releasedate",
                vec![Value::int(2), Value::str("September"), Value::int(2001)],
            )
            .build();
        let mut task = LearningTask::new(
            db,
            TargetSpec::with_attributes("highGrossing", vec!["title"]),
        );
        task.mds.push(MatchingDependency::simple(
            "titles",
            "highGrossing",
            "title",
            "movies",
            "title",
        ));
        task.add_constant_attribute("mov2genres", "genre");
        task.add_constant_attribute("mov2countries", "country");
        task.add_constant_attribute("mov2releasedate", "month");
        task.positives.push(tuple(vec![Value::str("Superbad")]));
        task.negatives.push(tuple(vec![Value::str("Orphanage")]));
        task
    }

    /// The fixture's MD has the *target* relation on its left, which holds
    /// no stored tuples, so the catalog is built over the database augmented
    /// with the examples as target tuples (`augment_with_target`), as
    /// `Engine::prepare` builds it, at a lower threshold than the default.
    fn catalog_for(task: &LearningTask, km: usize) -> MdCatalog {
        let mut config = IndexConfig::top_k(km);
        config.operator = dlearn_similarity::SimilarityOperator::with_threshold(0.6);
        MdCatalog::build(
            &task.mds,
            &crate::learner::augment_with_target(task),
            &config,
        )
    }

    #[test]
    fn bottom_clause_reaches_tuples_through_similarity() {
        let task = movie_task();
        let catalog = catalog_for(&task, 2);
        let config = LearnerConfig::fast();
        let builder = BottomClauseBuilder::new(&task, &catalog, &config);
        let mut rng = StdRng::seed_from_u64(1);
        let clause = builder.build(&task.positives[0], &mut rng);

        let relations: Vec<&str> = clause
            .body
            .iter()
            .filter_map(|l| l.relation_name())
            .collect();
        assert!(relations.contains(&"movies"), "clause: {clause}");
        assert!(relations.contains(&"mov2genres"), "clause: {clause}");
        assert!(
            clause
                .body
                .iter()
                .any(|l| matches!(l, Literal::Similar(_, _))),
            "similarity literal expected: {clause}"
        );
        assert!(
            !clause.repairs.is_empty(),
            "MD repair group expected: {clause}"
        );
        assert!(
            clause.body.iter().any(|l| l
                .args()
                .iter()
                .any(|t| **t == Term::Const(Value::str("comedy")))),
            "genre should stay a constant: {clause}"
        );
    }

    #[test]
    fn without_mds_the_other_source_is_unreachable() {
        let task = movie_task();
        let catalog = MdCatalog::default();
        let config = LearnerConfig {
            use_mds: false,
            ..LearnerConfig::fast()
        };
        let builder = BottomClauseBuilder::new(&task, &catalog, &config);
        let mut rng = StdRng::seed_from_u64(1);
        let clause = builder.build(&task.positives[0], &mut rng);
        // "Superbad" does not exactly match "Superbad (2007)", so nothing in
        // the database is reachable from the example.
        assert!(clause.body.is_empty(), "clause: {clause}");
    }

    #[test]
    fn sample_size_caps_literals_per_relation() {
        let task = movie_task();
        let catalog = catalog_for(&task, 5);
        let config = LearnerConfig {
            sample_size: 1,
            ..LearnerConfig::fast()
        };
        let builder = BottomClauseBuilder::new(&task, &catalog, &config);
        let mut rng = StdRng::seed_from_u64(3);
        let clause = builder.build(&task.positives[0], &mut rng);
        let movies_count = clause
            .body
            .iter()
            .filter(|l| l.relation_name() == Some("movies"))
            .count();
        assert!(movies_count <= 1, "clause: {clause}");
    }

    #[test]
    fn cfd_violations_produce_repair_groups() {
        // Two release-date tuples for the same movie with different years
        // violate id -> year.
        let mut task = movie_task();
        task.database
            .insert(
                "mov2releasedate",
                tuple(vec![Value::int(1), Value::str("August"), Value::int(2009)]),
            )
            .unwrap();
        task.cfds
            .push(Cfd::fd("rd_year", "mov2releasedate", vec!["id"], "year"));
        let catalog = catalog_for(&task, 2);
        let config = LearnerConfig::fast();
        let builder = BottomClauseBuilder::new(&task, &catalog, &config);
        let mut rng = StdRng::seed_from_u64(1);
        let clause = builder.build(&task.positives[0], &mut rng);
        assert!(
            clause
                .repairs
                .iter()
                .any(|g| matches!(g.origin, RepairOrigin::Cfd(_))),
            "expected a CFD repair group: {clause}"
        );
    }

    #[test]
    fn construction_is_deterministic_for_a_fixed_seed() {
        let task = movie_task();
        let catalog = catalog_for(&task, 2);
        let config = LearnerConfig::fast();
        let builder = BottomClauseBuilder::new(&task, &catalog, &config);
        let a = builder.build(&task.positives[0], &mut StdRng::seed_from_u64(5));
        let b = builder.build(&task.positives[0], &mut StdRng::seed_from_u64(5));
        assert_eq!(a.canonical_string(), b.canonical_string());
    }
}
