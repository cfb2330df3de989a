//! Prepared learning/serving sessions.
//!
//! The paper's pipeline front-loads two expensive, *per-database* artifacts:
//! the similarity index behind every matching dependency (Section 5) and the
//! ground bottom clauses of the training examples (Section 4.3). An
//! [`Engine`] builds them once at [`Engine::prepare`] time and shares them —
//! behind `Arc` — across every strategy run and every prediction:
//!
//! * [`Engine::learn`] runs any [`Strategy`] — the five paper systems plus
//!   the FOIL/TILDE extension learners of the `learn` subsystem, which
//!   search the base plan directly. Strategy
//!   preprocessing is an explicit, cached step (a strategy *plan*) that
//!   reuses the prepared similarity index whenever the strategy's semantics
//!   allow: Castor-Exact and Castor-Clean join through an exact-join
//!   catalog that runs no alignment (normalized-string equality, see
//!   [`MdCatalog::build_exact`]), Castor-Clean after unifying values
//!   through the prepared index, and DLearn-Repaired reuses the index
//!   outright when no CFD right-hand side overlaps an MD-identified column
//!   (a CFD repair can only rewrite CFD right-hand sides). Running all five
//!   baselines therefore aligns strings exactly once.
//! * [`Engine::predictor`] binds a learned [`Learned`] value to the session,
//!   yielding a [`Predictor`] whose [`Predictor::predict_batch`] fans
//!   bottom-clause grounding across the configured coverage threads with a
//!   deterministic, order-preserving reduction. Every serving path —
//!   `predict`, `predict_batch` and [`crate::PredictorService`] — grounds a
//!   tuple the same way and decides it through the same per-tuple decision
//!   over the bound clauses.
//!
//! The entire surface is fallible: tasks and configurations are validated at
//! [`Engine::prepare`] time ([`DlearnError`]), so malformed input is a typed
//! error instead of a panic deep inside bottom-clause construction.

use std::sync::{Arc, OnceLock};

use dlearn_constraints::{
    enforce_md_best_match_with_index, find_inconsistencies, minimal_cfd_repair, MdCatalog,
};
use dlearn_logic::{CancelToken, Clause, Definition, SubsumptionConfig};
use dlearn_relstore::Tuple;
use dlearn_similarity::{IndexConfig, SimilarityOperator};

use crate::bottom::BottomClauseBuilder;
use crate::config::LearnerConfig;
use crate::coverage::{CoverageEngine, CoverageOutcome, GroundExample, PreparedClause, Semantics};
use crate::error::DlearnError;
use crate::learner::{augment_with_target, Strategy};
use crate::task::LearningTask;

/// Salt of the serving grounding seed: a served tuple is grounded with
/// `config.seed ^ SERVE_SEED_SALT`, whatever its batch position or thread.
const SERVE_SEED_SALT: u64 = 0xdead_beef;

/// One strategy's fully preprocessed state: the (possibly rewritten) task
/// and config, the MD catalog the strategy joins through, and the ground
/// bottom clauses of the training examples. Built at most once per
/// [`Engine`] and shared by every `learn` call and every bound predictor of
/// that strategy.
pub(crate) struct StrategyPlan {
    /// The strategy's preprocessed task (Castor-Clean and DLearn-Repaired
    /// rewrite the database; the others share the engine's task).
    pub(crate) task: LearningTask,
    /// The strategy's effective configuration.
    pub(crate) config: LearnerConfig,
    /// The MD similarity catalog the strategy's bottom clauses probe.
    pub(crate) catalog: Arc<MdCatalog>,
    /// Ground bottom clauses of the training examples, built once.
    pub(crate) coverage: CoverageEngine,
    /// Number of committed [`Engine::apply_delta`] transactions this plan's
    /// database reflects (0 for a fresh prepare). Serving tiers use it to
    /// reject delta reports that do not chain from the model they serve.
    pub(crate) delta_seq: u64,
}

impl StrategyPlan {
    fn build(
        task: LearningTask,
        config: LearnerConfig,
        catalog: Arc<MdCatalog>,
        delta_seq: u64,
    ) -> StrategyPlan {
        let coverage = {
            let builder = BottomClauseBuilder::new(&task, &catalog, &config);
            CoverageEngine::build(&task, &builder, &config)
        };
        StrategyPlan {
            task,
            config,
            catalog,
            coverage,
            delta_seq,
        }
    }
}

/// A prepared learning session over one task and configuration.
///
/// ```
/// use dlearn_core::{Engine, LearnerConfig, LearningTask, Strategy, TargetSpec};
/// use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};
///
/// let db = DatabaseBuilder::new()
///     .relation(RelationBuilder::new("movies").int_attr("id").str_attr("title").build())
///     .relation(RelationBuilder::new("genres").int_attr("id").str_attr("genre").build())
///     .row("movies", vec![Value::int(1), Value::str("Superbad")])
///     .row("genres", vec![Value::int(1), Value::str("comedy")])
///     .build();
/// let mut task = LearningTask::new(db, TargetSpec::new("hit", 1));
/// task.add_constant_attribute("genres", "genre");
/// task.positives.push(tuple(vec![Value::int(1)]));
///
/// let engine = Engine::prepare(task, LearnerConfig::fast())?;
/// let learned = engine.learn(Strategy::DLearn)?;
/// let predictor = engine.predictor(&learned)?;
/// let verdicts = predictor.predict_batch(&[tuple(vec![Value::int(1)])])?;
/// assert_eq!(verdicts.len(), 1);
/// # Ok::<(), dlearn_core::DlearnError>(())
/// ```
pub struct Engine {
    /// The user's configuration (before any strategy preprocessing).
    pub(crate) config: LearnerConfig,
    /// The DLearn plan: the engine's own task, config and shared catalog.
    pub(crate) base: Arc<StrategyPlan>,
    /// Lazily derived plans for the four baseline strategies.
    pub(crate) plans: [OnceLock<Arc<StrategyPlan>>; 4],
    /// Incrementally maintained similarity indexes, adopted from the base
    /// catalog on the first [`Engine::apply_delta`] call and updated in
    /// place by every delta (index-aligned with the catalog's MD indexes).
    pub(crate) maintenance: Option<Vec<dlearn_similarity::MaintainedIndex>>,
    /// Set when a delta application panicked mid-flight: the incremental
    /// state can no longer be trusted and every further delta is refused
    /// (reads against the last committed state keep working).
    pub(crate) quarantined: bool,
}

impl Engine {
    /// Validate the task and configuration, then build the session's shared
    /// artifacts: the augmented database's MD similarity catalog and the
    /// ground bottom clauses of every training example.
    pub fn prepare(task: LearningTask, config: LearnerConfig) -> Result<Engine, DlearnError> {
        config.validate()?;
        Self::validate_task(&task)?;
        // Session preparation fans grounding across worker threads; a panic
        // in any of them (a malformed row that slipped past validation, an
        // injected fault) surfaces as a typed error, not a process abort.
        crate::par::isolate("prepare", || {
            let catalog = Arc::new(build_catalog(&task, &config));
            let base = Arc::new(StrategyPlan::build(task, config.clone(), catalog, 0));
            Engine {
                config,
                base,
                plans: Default::default(),
                maintenance: None,
                quarantined: false,
            }
        })
    }

    fn validate_task(task: &LearningTask) -> Result<(), DlearnError> {
        let expected = task.target.arity();
        let sides = [(true, &task.positives), (false, &task.negatives)];
        for (positive, examples) in sides {
            for (index, e) in examples.iter().enumerate() {
                if e.arity() != expected {
                    return Err(DlearnError::ExampleArity {
                        expected,
                        actual: e.arity(),
                        index,
                        positive,
                    });
                }
            }
        }
        task.validate()?;
        if let Some(conflict) = find_inconsistencies(&task.cfds).into_iter().next() {
            return Err(DlearnError::InconsistentCfds(Box::new(conflict)));
        }
        if task.positives.is_empty() {
            return Err(DlearnError::EmptyPositives);
        }
        Ok(())
    }

    /// The task the session was prepared over.
    pub fn task(&self) -> &LearningTask {
        &self.base.task
    }

    /// The session's configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// The prepared MD similarity catalog of the base plan. Exposed so the
    /// incremental-maintenance oracle can pin that a maintained catalog is
    /// bit-identical to a fresh [`Engine::prepare`] over the mutated store.
    pub fn catalog(&self) -> &MdCatalog {
        &self.base.catalog
    }

    /// The prepared ground training examples of the base plan (see
    /// [`Engine::catalog`] for why this is public).
    pub fn coverage(&self) -> &CoverageEngine {
        &self.base.coverage
    }

    /// Learn a definition with the given strategy against the session's
    /// prepared artifacts. Strategy preprocessing runs at most once per
    /// strategy per engine; the similarity index is shared or derived
    /// (never re-aligned) wherever the strategy's semantics allow. The
    /// refinement search itself — any of the `learn` subsystem's learners —
    /// is a quarantined site: a worker panic inside it surfaces as
    /// [`DlearnError::WorkerPanicked`], not a process abort.
    pub fn learn(&self, strategy: Strategy) -> Result<Learned, DlearnError> {
        // Resolve (and lazily derive) the strategy plan *outside* the timed
        // region: `Learned::seconds` reports the refinement search alone, so
        // a baseline's first run is comparable to its later runs — and to
        // strategies whose plan was built at prepare time.
        let plan = self.plan(strategy);
        let start = std::time::Instant::now();
        let refined = crate::par::isolate("learn", || crate::learn::refine(strategy, &plan))?;
        Ok(Learned {
            strategy,
            definition: refined.definition,
            stats: refined.stats,
            seconds: start.elapsed().as_secs_f64(),
            bottom_clauses_built: refined.bottom_clauses_built,
        })
    }

    /// Bind a learned definition to this session for serving: the returned
    /// [`Predictor`] shares the strategy's prepared artifacts (deriving the
    /// strategy's plan first if no `learn` call has). Binding cannot fail;
    /// the `Result` keeps callers' error handling stable.
    pub fn predictor(&self, learned: &Learned) -> Result<Predictor, DlearnError> {
        Ok(Predictor::bind(
            self.plan(learned.strategy),
            learned.definition.clone(),
            learned.stats.clone(),
        ))
    }

    pub(crate) fn plan(&self, strategy: Strategy) -> Arc<StrategyPlan> {
        let slot = match strategy {
            // Foil and Tilde search the same hypothesis space over the same
            // prepared semantics as DLearn: they share the base plan, so
            // delta invalidation and the one-alignment-per-session
            // invariant cover them automatically.
            Strategy::DLearn | Strategy::Foil | Strategy::Tilde => return self.base.clone(),
            Strategy::CastorNoMd => 0,
            Strategy::CastorExact => 1,
            Strategy::CastorClean => 2,
            Strategy::DLearnRepaired => 3,
        };
        self.plans[slot]
            .get_or_init(|| Arc::new(self.derive_plan(strategy)))
            .clone()
    }

    /// Strategy preprocessing: rewrite the task/config for the baseline and
    /// pick its catalog, reusing the prepared index whenever the semantics
    /// allow.
    fn derive_plan(&self, strategy: Strategy) -> StrategyPlan {
        let mut config = self.config.clone();
        // No baseline adds CFD repair literals to its clauses.
        config.use_cfd_repairs = false;
        let mut task = self.base.task.clone();
        let catalog: Arc<MdCatalog> = match strategy {
            Strategy::DLearn | Strategy::Foil | Strategy::Tilde => {
                unreachable!("these strategies run over the base plan")
            }
            Strategy::CastorNoMd => {
                config.use_mds = false;
                Arc::new(MdCatalog::default())
            }
            Strategy::CastorExact => Arc::new(exact_catalog(&task, &config)),
            Strategy::CastorClean => {
                // Unify each value of an MD's right-hand identified column
                // with its best match, MD by MD, then join exactly. Since no
                // string is re-aligned after `prepare`, two conditions hold:
                // a value unifies with its best *stored* match (see
                // `enforce_md_best_match_with_index`), and every MD index
                // describes the original database, so a value an earlier MD
                // rewrote does not probe later indexes. No shipped dataset
                // has two MDs identifying the same column.
                for md_index in self.base.catalog.indexes() {
                    enforce_md_best_match_with_index(&mut task.database, md_index);
                }
                Arc::new(exact_catalog(&task, &config))
            }
            Strategy::DLearnRepaired => {
                let (repaired, _) = minimal_cfd_repair(&task.database, &task.cfds);
                task.database = repaired;
                if cfd_repairs_can_touch_md_columns(&task) {
                    // A repair may have rewritten an MD-identified column;
                    // the prepared index no longer describes the database.
                    Arc::new(build_catalog(&task, &config))
                } else {
                    // CFD repairs only rewrite CFD right-hand sides, none of
                    // which is an MD-identified column here: the similarity
                    // index inputs are unchanged, so reuse it.
                    self.base.catalog.clone()
                }
            }
        };
        StrategyPlan::build(task, config, catalog, self.base.delta_seq)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("target", &self.base.task.target.name)
            .field("examples", &self.base.task.example_count())
            .field("mds", &self.base.task.mds.len())
            .finish()
    }
}

/// Build the MD similarity catalog for a task/config pair (the expensive
/// alignment pass the engine performs once).
fn build_catalog(task: &LearningTask, config: &LearnerConfig) -> MdCatalog {
    // Budget exhaustion is meaningless at alignment time; only panics and
    // delays apply here, and both execute inside the checkpoint.
    let _ = crate::fault::checkpoint(crate::fault::Site::Alignment, &task.target.name);
    if config.use_mds && !task.mds.is_empty() {
        MdCatalog::build(
            &task.mds,
            &augment_with_target(task),
            &index_config_for(config),
        )
    } else {
        MdCatalog::default()
    }
}

/// The exact-join catalog Castor-Exact and Castor-Clean join through: two
/// values match (score 1.0) iff their normalized strings are equal, keeping
/// `km` matches per value. It runs no alignment, yet equals an aligned build
/// at threshold 0.9999, since below 5,000 normalized characters only equal
/// strings score that high (`tests/exact_join_catalog.rs`).
fn exact_catalog(task: &LearningTask, config: &LearnerConfig) -> MdCatalog {
    if config.use_mds && !task.mds.is_empty() {
        MdCatalog::build_exact(&task.mds, &augment_with_target(task), config.km)
    } else {
        MdCatalog::default()
    }
}

/// The similarity-index configuration a config pair builds catalogs with
/// (shared by the prepare-time build and incremental delta maintenance, which
/// must adopt indexes under the exact build configuration).
pub(crate) fn index_config_for(config: &LearnerConfig) -> IndexConfig {
    IndexConfig {
        top_k: config.km,
        operator: SimilarityOperator::with_threshold(config.similarity_threshold),
        threads: config.index_threads,
        hot_key_fraction: config.index_hot_key_fraction,
    }
}

/// `true` when some CFD's right-hand side — the only column a minimal CFD
/// repair rewrites — is also an MD-identified column, i.e. an input of the
/// prepared similarity index.
fn cfd_repairs_can_touch_md_columns(task: &LearningTask) -> bool {
    task.cfds.iter().any(|cfd| {
        task.mds.iter().any(|md| {
            (cfd.relation == md.left_relation && cfd.rhs == md.identify_left)
                || (cfd.relation == md.right_relation && cfd.rhs == md.identify_right)
        })
    })
}

/// Per-clause training coverage statistics, mirroring the annotations the
/// paper prints next to each learned clause ("positive covered=…, negative
/// covered=…").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClauseStats {
    /// Positive training examples covered by the clause.
    pub positives_covered: usize,
    /// Negative training examples covered by the clause.
    pub negatives_covered: usize,
}

/// The outcome of one [`Engine::learn`] run: the learned Horn definition,
/// its per-clause training statistics, and basic run metrics. A `Learned`
/// value is plain data — it holds no database, catalog or configuration —
/// and binds to a session for serving via [`Engine::predictor`].
#[derive(Debug, Clone)]
pub struct Learned {
    strategy: Strategy,
    definition: Definition,
    stats: Vec<ClauseStats>,
    seconds: f64,
    bottom_clauses_built: usize,
}

impl Learned {
    /// The strategy that learned this definition.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The learned Horn definition.
    pub fn definition(&self) -> &Definition {
        &self.definition
    }

    /// The learned clauses.
    pub fn clauses(&self) -> &[Clause] {
        self.definition.clauses()
    }

    /// Per-clause coverage statistics over the training data.
    pub fn stats(&self) -> &[ClauseStats] {
        &self.stats
    }

    /// Wall-clock learning time of this run, in seconds: the covering loop
    /// alone. Session preparation and strategy-plan derivation (index
    /// construction, database rewrites, example grounding) are amortized
    /// across runs and not included.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Number of bottom clauses grounded for this run, counting the
    /// session's prepared ground examples it reused.
    pub fn bottom_clauses_built(&self) -> usize {
        self.bottom_clauses_built
    }

    /// Render the definition with its per-clause coverage annotations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, clause) in self.definition.clauses().iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&clause.to_string());
            if let Some(s) = self.stats.get(i) {
                out.push_str(&format!(
                    "\n  (positive covered={}, negative covered={})",
                    s.positives_covered, s.negatives_covered
                ));
            }
        }
        out
    }
}

/// A learned definition bound to its session's prepared artifacts for
/// serving. Prediction follows the positive-coverage semantics of
/// Definition 3.4 over the example's ground bottom clause.
pub struct Predictor {
    pub(crate) plan: Arc<StrategyPlan>,
    definition: Definition,
    stats: Vec<ClauseStats>,
    prepared: Vec<PreparedClause>,
}

impl Predictor {
    pub(crate) fn bind(
        plan: Arc<StrategyPlan>,
        definition: Definition,
        stats: Vec<ClauseStats>,
    ) -> Predictor {
        let prepared = definition
            .clauses()
            .iter()
            .map(|c| PreparedClause::prepare(c.clone(), &plan.config))
            .collect();
        Predictor {
            plan,
            definition,
            stats,
            prepared,
        }
    }

    /// The definition this predictor serves.
    pub fn definition(&self) -> &Definition {
        &self.definition
    }

    /// Per-clause coverage statistics over the training data.
    pub fn stats(&self) -> &[ClauseStats] {
        &self.stats
    }

    /// The configuration of the strategy the definition was learned with.
    pub fn config(&self) -> &LearnerConfig {
        &self.plan.config
    }

    /// Number of committed [`Engine::apply_delta`] transactions the bound
    /// plan's database reflects. [`crate::PredictorService::apply_delta`]
    /// checks it against [`crate::DeltaReport::sequence`] so out-of-order or
    /// cross-session delta reports are rejected typed.
    pub fn delta_seq(&self) -> u64 {
        self.plan.delta_seq
    }

    /// Predict whether an example tuple belongs to the target relation: the
    /// definition covers the example iff at least one clause covers its
    /// ground bottom clause.
    pub fn predict(&self, example: &Tuple) -> Result<bool, DlearnError> {
        self.check_arity(example, 0)?;
        Ok(self.predict_with(&self.builder(), example))
    }

    /// Predict a batch of examples, fanning bottom-clause grounding and the
    /// coverage tests across the configured `coverage_threads`.
    ///
    /// Results are index-aligned with `examples` and bit-identical to a
    /// sequential [`Predictor::predict`] loop at any thread count: the
    /// fan-out is the same order-preserving chunked map the coverage masks
    /// use, and each example's grounding derives its RNG from the session
    /// seed alone (never from batch position or thread). Duplicate tuples —
    /// common in serving traffic — are grounded and tested once, then fanned
    /// back out to their positions.
    pub fn predict_batch(&self, examples: &[Tuple]) -> Result<Vec<bool>, DlearnError> {
        for (index, e) in examples.iter().enumerate() {
            self.check_arity(e, index)?;
        }
        let builder = self.builder();
        let (unique, slots) = crate::par::dedup(examples);
        let threads = self.plan.config.effective_threads();
        let verdicts = crate::par::chunked_map(&unique, threads, 2, (), |_, _, e| {
            self.predict_with(&builder, e)
        });
        Ok(slots.into_iter().map(|s| verdicts[s]).collect())
    }

    pub(crate) fn check_arity(&self, example: &Tuple, index: usize) -> Result<(), DlearnError> {
        let expected = self.plan.task.target.arity();
        if example.arity() != expected {
            return Err(DlearnError::PredictArity {
                expected,
                actual: example.arity(),
                index,
            });
        }
        Ok(())
    }

    pub(crate) fn builder(&self) -> BottomClauseBuilder<'_> {
        BottomClauseBuilder::new(&self.plan.task, &self.plan.catalog, &self.plan.config)
    }

    /// Ground one example for serving. The grounding RNG derives from the
    /// session seed alone, never from batch position or thread, so grounding
    /// is a pure function of the tuple — the invariant the serving cache
    /// relies on.
    pub(crate) fn ground(
        &self,
        builder: &BottomClauseBuilder<'_>,
        example: &Tuple,
    ) -> GroundExample {
        let config = &self.plan.config;
        GroundExample::build(builder, example, config, config.seed ^ SERVE_SEED_SALT)
    }

    /// The per-tuple decision every serving path shares: the definition
    /// covers a ground example iff some bound clause covers it under
    /// Definition 3.4 (Section 2.1). Stops at the first covering clause; the
    /// outcome counts the exhausted searches of every clause tried.
    pub(crate) fn decide(
        &self,
        ground: &GroundExample,
        config: &SubsumptionConfig,
        cancel: Option<&CancelToken>,
    ) -> CoverageOutcome {
        let mut exhausted = 0;
        for prepared in &self.prepared {
            match prepared.covers(ground, Semantics::Positive, config, cancel) {
                CoverageOutcome::NotCovered { exhausted_searches } => {
                    exhausted += exhausted_searches
                }
                CoverageOutcome::Covered { exhausted_searches } => {
                    return CoverageOutcome::Covered {
                        exhausted_searches: exhausted + exhausted_searches,
                    }
                }
                CoverageOutcome::Cancelled => return CoverageOutcome::Cancelled,
            }
        }
        CoverageOutcome::NotCovered {
            exhausted_searches: exhausted,
        }
    }

    fn predict_with(&self, builder: &BottomClauseBuilder<'_>, example: &Tuple) -> bool {
        if self.definition.is_empty() {
            return false;
        }
        let ground = self.ground(builder, example);
        matches!(
            self.decide(&ground, &self.plan.config.subsumption, None),
            CoverageOutcome::Covered { .. }
        )
    }
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("clauses", &self.definition.len())
            .field("target", &self.plan.task.target.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::test_fixtures::two_source_task;
    use dlearn_relstore::{tuple, Value};

    fn config() -> LearnerConfig {
        LearnerConfig {
            km: 2,
            iterations: 2,
            sample_size: 8,
            min_positive_coverage: 2,
            sample_positives: 4,
            max_generalization_rounds: 3,
            coverage_threads: 1,
            ..LearnerConfig::default()
        }
    }

    #[test]
    fn engine_learns_and_serves_the_two_source_task() {
        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), config()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        assert!(!learned.clauses().is_empty(), "no definition learned");
        let predictor = engine.predictor(&learned).expect("bind predictor");
        let batch: Vec<Tuple> = task
            .positives
            .iter()
            .chain(task.negatives.iter())
            .cloned()
            .collect();
        let verdicts = predictor.predict_batch(&batch).expect("predict");
        let singles: Vec<bool> = batch
            .iter()
            .map(|e| predictor.predict(e).expect("predict"))
            .collect();
        assert_eq!(verdicts, singles, "batch diverged from single predictions");
        let (pos, neg) = verdicts.split_at(task.positives.len());
        let covered = |side: &[bool]| side.iter().filter(|&&b| b).count();
        assert!(
            covered(pos) >= 2,
            "positives covered:\n{}",
            learned.render()
        );
        assert!(
            covered(neg) <= 2,
            "negatives covered:\n{}",
            learned.render()
        );
    }

    #[test]
    fn learned_reports_runtime_and_bottom_clause_counts() {
        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), config()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        assert!(learned.seconds() >= 0.0);
        assert!(learned.bottom_clauses_built() >= task.example_count());
    }

    #[test]
    fn castor_clean_predictor_serves_over_the_cleaned_database() {
        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), config()).expect("valid task");
        let learned = engine.learn(Strategy::CastorClean).expect("learn");
        let predictor = engine.predictor(&learned).expect("bind predictor");
        predictor.predict(&task.positives[0]).expect("predict");
    }

    #[test]
    fn all_strategies_run_against_one_prepared_session() {
        let task = two_source_task();
        let engine = Engine::prepare(task, config()).expect("valid task");
        for strategy in Strategy::ALL {
            let learned = engine.learn(strategy).expect("learn");
            // Each strategy's plan is cached: a second run reuses it and
            // must produce the identical definition.
            let again = engine.learn(strategy).expect("learn");
            assert_eq!(
                learned.definition(),
                again.definition(),
                "{} diverged between runs over one session",
                strategy.name()
            );
        }
    }

    #[test]
    fn extension_learners_separate_the_two_source_task() {
        // The rating that separates the hits is three hops from the head
        // (id → IMDB title ≈ OMDB title → oid → rating); two iterations of
        // the bottom-clause walk stop before `omdb_ratings`.
        let task = two_source_task();
        let config = LearnerConfig {
            iterations: 3,
            ..config()
        };
        let engine = Engine::prepare(task.clone(), config).expect("valid task");
        for strategy in [Strategy::Foil, Strategy::Tilde] {
            let learned = engine.learn(strategy).expect("learn");
            assert!(
                !learned.clauses().is_empty(),
                "{} learned nothing",
                strategy.name()
            );
            let predictor = engine.predictor(&learned).expect("bind predictor");
            let pos = task
                .positives
                .iter()
                .filter(|e| predictor.predict(e).unwrap())
                .count();
            let neg = task
                .negatives
                .iter()
                .filter(|e| predictor.predict(e).unwrap())
                .count();
            assert!(
                pos >= 2 && neg <= 2,
                "{}: positives={pos} negatives={neg}\n{}",
                strategy.name(),
                learned.render()
            );
        }
    }

    #[test]
    fn prepare_rejects_wrong_arity_examples() {
        let mut task = two_source_task();
        task.negatives
            .push(tuple(vec![Value::int(1), Value::int(2)]));
        let err = Engine::prepare(task, config()).unwrap_err();
        assert!(
            matches!(
                err,
                DlearnError::ExampleArity {
                    expected: 1,
                    actual: 2,
                    positive: false,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn predictor_rejects_wrong_arity_tuples() {
        let task = two_source_task();
        let engine = Engine::prepare(task, config()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let predictor = engine.predictor(&learned).expect("bind predictor");
        let err = predictor
            .predict(&tuple(vec![Value::int(1), Value::int(2)]))
            .unwrap_err();
        assert!(matches!(err, DlearnError::PredictArity { .. }), "{err:?}");
        let err = predictor
            .predict_batch(&[tuple(vec![Value::int(0)]), tuple(Vec::<Value>::new())])
            .unwrap_err();
        assert!(
            matches!(err, DlearnError::PredictArity { index: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn predict_batch_dedups_repeated_tuples() {
        let task = two_source_task();
        let engine = Engine::prepare(task.clone(), config()).expect("valid task");
        let learned = engine.learn(Strategy::DLearn).expect("learn");
        let predictor = engine.predictor(&learned).expect("bind predictor");
        // A serving-style trace with heavy repetition.
        let trace: Vec<Tuple> = (0..4)
            .flat_map(|_| task.positives.iter().chain(task.negatives.iter()).cloned())
            .collect();
        let batch = predictor.predict_batch(&trace).expect("predict");
        let singles: Vec<bool> = trace
            .iter()
            .map(|e| predictor.predict(e).expect("predict"))
            .collect();
        assert_eq!(batch, singles);
    }
}
