//! Streaming deltas over a prepared session (incremental maintenance).
//!
//! [`Engine::prepare`] front-loads two expensive artifacts: the MD similarity
//! catalog and the ground bottom clauses of the training examples. A tuple
//! insert or delete invalidates only a sliver of each — one changed column
//! value touches a handful of match lists, and most ground clauses never
//! probed the changed value at all. [`Engine::apply_delta`] exploits that:
//!
//! * each similarity index is maintained **incrementally** (see
//!   [`MaintainedIndex`]): postings are patched in place and only match
//!   lists whose candidate sets changed re-run the bounded scorer, with the
//!   invariant that the maintained index is bit-identical to a fresh
//!   [`SimilarityIndex::build`] over the mutated columns;
//! * each ground bottom clause records the exact probes its construction
//!   executed (see [`ProbeLog`]); after a delta, only clauses whose probe
//!   log intersects the change set are re-grounded — through prepare's own
//!   grounding fan-out, with the same per-example seed a from-scratch build
//!   would use, so the patched coverage engine is bit-identical to
//!   `Engine::prepare` on the mutated database. Every other ground example
//!   is shared with the pre-delta engine: a reference count, not a copy.
//!
//! Deltas are transactional at the session level: on any error the engine is
//! untouched, and a panic mid-maintenance (e.g. injected via the
//! fault-injection harness) quarantines the session — the last committed
//! state keeps serving reads, but further deltas are refused with
//! [`DlearnError::DeltaQuarantined`].
//!
//! [`SimilarityIndex::build`]: dlearn_similarity::SimilarityIndex::build

use std::collections::HashSet;
use std::sync::Arc;

use dlearn_constraints::{sym_column, MdCatalog, MdIndex};
use dlearn_relstore::{ChangeSet, Database, DeltaTx, RelId, StoreError, Sym};
use dlearn_similarity::{ColumnDelta, MaintainedIndex};

use crate::bottom::{BottomClauseBuilder, ProbeLog};
use crate::coverage::GroundPatchStats;
use crate::engine::{index_config_for, Engine, StrategyPlan};
use crate::error::DlearnError;
use crate::learner::augment_with_target;
use crate::task::LearningTask;

/// What one committed [`Engine::apply_delta`] call did: the change set it
/// applied, how much incremental work each maintenance path performed, and
/// which similarity values changed (consulted by
/// [`crate::PredictorService::apply_delta`] for selective cache eviction).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The distinct `(relation, attribute, value)` touches of the
    /// transaction.
    pub changes: ChangeSet,
    /// Number of MD similarity indexes maintained incrementally.
    pub mds_maintained: usize,
    /// Full bounded re-scans run across all maintained indexes (added left
    /// values plus full match lists that lost a member).
    pub rescored_lefts: usize,
    /// Targeted single-entry patches across all maintained indexes.
    pub patched_entries: usize,
    /// How many ground bottom clauses were rebuilt versus reused unchanged.
    pub grounding: GroundPatchStats,
    /// Position of this delta in the session's committed chain: the engine's
    /// [`crate::Predictor::delta_seq`] after this transaction committed (the
    /// first delta of a fresh session reports 1).
    /// [`crate::PredictorService::apply_delta`] refuses reports that do not
    /// chain from the model it serves.
    pub sequence: u64,
    /// Per maintained MD: `(md_position, values whose match list changed on
    /// either side)`.
    changed_syms: Vec<(usize, HashSet<Sym>)>,
}

impl DeltaReport {
    /// `true` when a grounding that executed the given probes could observe
    /// this delta — i.e. its stored ground clause may no longer equal a
    /// fresh build and must be rebuilt (or evicted from a serving cache).
    ///
    /// The exact probes are tested from the change set's side: a log holds a
    /// few hundred of them, while a streamed transaction touches a few dozen
    /// triples.
    pub fn affects(&self, probes: &ProbeLog) -> bool {
        self.changes
            .iter()
            .any(|probe| probes.values.contains(&probe))
            || probes.sims.iter().any(|(md, s)| {
                self.changed_syms
                    .iter()
                    .any(|(pos, set)| pos == md && set.contains(s))
            })
    }

    /// Total number of values whose similarity match list changed, across
    /// all maintained indexes.
    pub fn changed_match_lists(&self) -> usize {
        self.changed_syms.iter().map(|(_, set)| set.len()).sum()
    }
}

impl Engine {
    /// `true` once a delta application panicked mid-transaction: the last
    /// committed state keeps serving reads, but every further
    /// [`Engine::apply_delta`] is refused and the session should be rebuilt
    /// with [`Engine::prepare`].
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Apply a transaction of tuple inserts and deletes to the session,
    /// maintaining the similarity catalog and the ground bottom clauses
    /// incrementally instead of rebuilding them.
    ///
    /// After a committed delta the session is indistinguishable from a fresh
    /// [`Engine::prepare`] over the mutated database: maintained indexes are
    /// bit-identical to freshly built ones, re-grounded clauses use the same
    /// per-example seeds, and untouched clauses are provably unaffected (no
    /// probe their construction executed changed its result).
    ///
    /// The call is transactional: on any [`DlearnError`] the engine state is
    /// untouched. A panic mid-maintenance quarantines the session (see
    /// [`Engine::is_quarantined`]). Derived baseline-strategy plans are
    /// invalidated and lazily re-derived from the new state. Predictors and
    /// services bound to the session keep serving the *pre-delta* state
    /// until re-bound ([`crate::Engine::predictor`],
    /// [`crate::PredictorService::apply_delta`]).
    pub fn apply_delta(&mut self, tx: &DeltaTx) -> Result<DeltaReport, DlearnError> {
        if self.quarantined {
            return Err(DlearnError::DeltaQuarantined);
        }
        // The database is copied, not mutated: predictors bound to the
        // pre-delta plan still read it.
        let mut db = self.base.task.database.clone();
        let changes = db.apply_delta(tx).map_err(delta_store_error)?;
        // The maintained indexes are updated in place. A panic can leave
        // them half-updated, but it quarantines the session, and a
        // quarantined session never reads them again; the committed plan
        // keeps serving reads.
        match crate::par::isolate("delta", || compute_delta(self, db, changes)) {
            Ok((base, report)) => {
                self.base = base;
                self.plans = Default::default();
                Ok(report)
            }
            Err(err) => {
                self.quarantined = true;
                Err(err)
            }
        }
    }
}

/// The maintenance pass proper: updates `engine`'s maintained indexes in
/// place and returns the new base plan and the report. The caller commits
/// the plan.
fn compute_delta(
    engine: &mut Engine,
    db: Database,
    changes: ChangeSet,
) -> (Arc<StrategyPlan>, DeltaReport) {
    let old = &engine.base;
    let config = &old.config;
    // Injected panics here model a crash mid-maintenance; budget exhaustion
    // is meaningless for a delta and is ignored.
    let _ = crate::fault::checkpoint(crate::fault::Site::Delta, &old.task.target.name);

    let old_db = &old.task.database;
    let use_indexes = config.use_mds && !old.task.mds.is_empty();

    // Adopt the prepared catalog into maintained form on the first delta
    // (no alignment runs — adoption only rebuilds postings and back-refs).
    let maintenance: &mut Vec<MaintainedIndex> = engine.maintenance.get_or_insert_with(|| {
        if !use_indexes {
            return Vec::new();
        }
        let augmented = augment_with_target(&old.task);
        old.catalog
            .indexes()
            .iter()
            .map(|mi| {
                MaintainedIndex::adopt(
                    mi.index().clone(),
                    &sym_column(&augmented, mi.md.left_relation, mi.md.identify_left),
                    &sym_column(&augmented, mi.md.right_relation, mi.md.identify_right),
                    index_config_for(config),
                )
            })
            .collect()
    });

    let mut changed_syms: Vec<(usize, HashSet<Sym>)> = Vec::new();
    let mut rescored_lefts = 0usize;
    let mut patched_entries = 0usize;
    for (mi, maintained) in old.catalog.indexes().iter().zip(maintenance.iter_mut()) {
        let (added_left, removed_left) = presence_transitions(
            old_db,
            &db,
            &changes,
            mi.md.left_relation,
            mi.md.identify_left,
        );
        let (added_right, removed_right) = presence_transitions(
            old_db,
            &db,
            &changes,
            mi.md.right_relation,
            mi.md.identify_right,
        );
        let outcome = maintained.apply(&ColumnDelta {
            added_left,
            removed_left,
            added_right,
            removed_right,
        });
        rescored_lefts += outcome.rescored_lefts;
        patched_entries += outcome.patched_entries;
        let mut set = outcome.changed_left;
        set.extend(outcome.changed_right);
        changed_syms.push((mi.md_position, set));
    }
    let catalog: Arc<MdCatalog> = if use_indexes {
        Arc::new(MdCatalog::from_indexes(
            old.catalog
                .indexes()
                .iter()
                .zip(maintenance.iter())
                .map(|(mi, m)| {
                    MdIndex::from_parts(mi.md_position, mi.md.clone(), m.index().clone())
                })
                .collect(),
        ))
    } else {
        Arc::new(MdCatalog::default())
    };

    // Every field but the database carries over; cloning the old task
    // whole would copy its database only to drop it.
    let old_task = &old.task;
    let task = LearningTask {
        database: db,
        mds: old_task.mds.clone(),
        cfds: old_task.cfds.clone(),
        target: old_task.target.clone(),
        positives: old_task.positives.clone(),
        negatives: old_task.negatives.clone(),
        constant_attributes: old_task.constant_attributes.clone(),
        sources: old_task.sources.clone(),
        target_source: old_task.target_source.clone(),
    };

    let mut report = DeltaReport {
        changes,
        mds_maintained: maintenance.len(),
        rescored_lefts,
        patched_entries,
        grounding: GroundPatchStats::default(),
        sequence: old.delta_seq + 1,
        changed_syms,
    };
    let (coverage, grounding) = {
        let builder = BottomClauseBuilder::new(&task, &catalog, config);
        old.coverage
            .rebuilt_where(&task, &builder, |g| report.affects(&g.probes))
    };
    report.grounding = grounding;
    let plan = Arc::new(StrategyPlan {
        task,
        config: config.clone(),
        catalog,
        coverage,
        delta_seq: old.delta_seq + 1,
    });
    (plan, report)
}

/// Distinct-value presence transitions of one indexed column under a change
/// set: values that newly appeared in, or completely vanished from, the
/// column. Values merely gaining or losing duplicate rows transition
/// neither way and leave the index untouched.
fn presence_transitions(
    old_db: &Database,
    new_db: &Database,
    changes: &ChangeSet,
    relation: RelId,
    attribute: Sym,
) -> (Vec<Sym>, Vec<Sym>) {
    let (Some(old_rel), Some(new_rel)) = (old_db.relation(relation), new_db.relation(relation))
    else {
        // Target-relation sides live only in the augmented database, which
        // deltas cannot touch.
        return (Vec::new(), Vec::new());
    };
    let Some(idx) = old_rel.schema().attribute_pos(attribute) else {
        return (Vec::new(), Vec::new());
    };
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (attr, value) in changes.touched_values(relation) {
        if attr != idx {
            continue;
        }
        let Some(s) = value.as_sym() else { continue };
        let pre = !old_rel.select_eq(idx, &value).is_empty();
        let post = !new_rel.select_eq(idx, &value).is_empty();
        match (pre, post) {
            (false, true) => added.push(s),
            (true, false) => removed.push(s),
            _ => {}
        }
    }
    // The change set iterates hash-ordered; sort so maintenance work (and
    // its counters) are deterministic across runs.
    added.sort_unstable();
    removed.sort_unstable();
    (added, removed)
}

/// Map store-level delta failures to their typed engine variants; anything
/// else stays a generic [`DlearnError::Store`].
fn delta_store_error(e: StoreError) -> DlearnError {
    match e {
        StoreError::UnknownRelation(relation) => DlearnError::DeltaUnknownRelation { relation },
        StoreError::ArityMismatch {
            relation,
            expected,
            actual,
        } => DlearnError::DeltaArityMismatch {
            relation,
            expected,
            actual,
        },
        StoreError::TupleNotFound { relation, tuple } => {
            DlearnError::DeltaAbsentTuple { relation, tuple }
        }
        other => DlearnError::Store(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlearn_relstore::{tuple, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The probe-by-probe test: every probe of the log against the change
    /// set.
    fn probe_by_probe(report: &DeltaReport, probes: &ProbeLog) -> bool {
        probes
            .values
            .iter()
            .any(|(rel, attr, v)| report.changes.affects(*rel, *attr, v))
            || probes.sims.iter().any(|(md, s)| {
                report
                    .changed_syms
                    .iter()
                    .any(|(pos, set)| pos == md && set.contains(s))
            })
    }

    /// A report over `ops` random two-column tuples and `syms` changed
    /// match lists, drawn from small pools so logs hit them now and then.
    fn report(rng: &mut StdRng, ops: usize, syms: usize) -> DeltaReport {
        let relations = [RelId::intern("r"), RelId::intern("s")];
        let mut changes = ChangeSet::default();
        for _ in 0..ops {
            let relation = relations[rng.gen_range(0..2usize)];
            let t = tuple(vec![
                Value::int(rng.gen_range(0..400i64)),
                Value::str(format!("w{}", rng.gen_range(0..400u32))),
            ]);
            changes.record(relation, &t);
        }
        let mut changed_syms: Vec<(usize, HashSet<Sym>)> =
            vec![(0, HashSet::new()), (2, HashSet::new())];
        for _ in 0..syms {
            let (_, set) = &mut changed_syms[rng.gen_range(0..2usize)];
            set.insert(Sym::intern(format!("w{}", rng.gen_range(0..400u32))));
        }
        DeltaReport {
            changes,
            mds_maintained: 2,
            rescored_lefts: 0,
            patched_entries: 0,
            grounding: GroundPatchStats::default(),
            sequence: 1,
            changed_syms,
        }
    }

    /// A log of up to `values` exact and `sims` similarity probes.
    fn log(rng: &mut StdRng, values: usize, sims: usize) -> ProbeLog {
        let relations = [RelId::intern("r"), RelId::intern("s")];
        let mut probes = ProbeLog::default();
        for _ in 0..values {
            let relation = relations[rng.gen_range(0..2usize)];
            let probe = if rng.gen_bool(0.5) {
                (relation, 0, Value::int(rng.gen_range(0..400i64)))
            } else {
                let word = format!("w{}", rng.gen_range(0..400u32));
                (relation, 1, Value::str(word))
            };
            probes.values.insert(probe);
        }
        for _ in 0..sims {
            let md = rng.gen_range(0..3usize);
            let word = Sym::intern(format!("w{}", rng.gen_range(0..400u32)));
            probes.sims.insert((md, word));
        }
        probes
    }

    #[test]
    fn affects_equals_the_probe_by_probe_test_from_either_side() {
        let mut rng = StdRng::seed_from_u64(26);
        // How often the log's exact probes outnumbered the change set's
        // triples, and what the answer was.
        let mut seen = [[0usize; 2]; 2];
        for round in 0..400 {
            // Alternate which side is larger.
            let (ops, values) = if round % 2 == 0 {
                (2usize, 120usize)
            } else {
                (60, 3)
            };
            let ops = rng.gen_range(0..=ops);
            let (values, sims) = (rng.gen_range(0..=values), rng.gen_range(0..=2usize));
            let report = report(&mut rng, ops, 10);
            let probes = log(&mut rng, values, sims);
            let expected = probe_by_probe(&report, &probes);
            assert_eq!(report.affects(&probes), expected, "round {round}");
            let larger = probes.values.len() > report.changes.iter().count();
            seen[larger as usize][expected as usize] += 1;
        }
        // Either side was the larger, with both answers.
        assert!(seen.iter().flatten().all(|&n| n > 0), "{seen:?}");
    }
}
