//! Replays of the layers `Engine::prepare` calls internally.
//!
//! The engine builds its catalog and ground examples in one call, so the
//! traced run times each stage by calling the stage's own public entry point
//! again on the session's inputs, serially, and then checks that the replay
//! reproduced what the engine built. A failed check flags the per-layer
//! numbers as unverified: the replay no longer mirrors the engine.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn::constraints::MdCatalog;
use dlearn::core::{augment_with_target, BottomClauseBuilder, Engine, Learned, PreparedClause};
use dlearn::logic::{repaired_clauses, Clause, ExpandLimits, GroundClause};
use dlearn::similarity::{IndexConfig, SimilarityOperator};

use crate::trace::{SpanId, Tracer};

/// Seed salts `CoverageEngine::build` mixes into each training example's
/// grounding seed (positives, negatives).
const GROUNDING_SALTS: [u64; 2] = [0x9e37, 0x7f4a];
/// Step budget of the repaired-clause expansion in `GroundExample` and
/// `PreparedClause`.
const EXPAND_MAX_STEPS: usize = 2048;

/// Per-stage cost of one `Engine::prepare`, replayed serially.
#[derive(Debug, Default)]
pub(crate) struct PrepareReplay {
    /// `augment_with_target`, in ms.
    pub(crate) augment_ms: f64,
    /// `MdCatalog::build`, in ms (0 without MDs).
    pub(crate) md_build_ms: f64,
    /// Similarity pairs stored across the catalog's indexes.
    pub(crate) pairs: usize,
    /// `BottomClauseBuilder::build_probed` over every training example, in ms.
    pub(crate) walk_ms: f64,
    /// Body literals across the bottom clauses.
    pub(crate) literals: usize,
    /// Exact and similarity probes across the bottom clauses.
    pub(crate) probes: usize,
    /// `repaired_clauses` over every bottom clause, in ms.
    pub(crate) expand_ms: f64,
    /// Repaired clauses across the bottom clauses.
    pub(crate) repaired: usize,
    /// Bottom clauses built (one per training example).
    pub(crate) clauses: usize,
    /// `GroundClause::new` over every bottom and repaired clause, in ms.
    pub(crate) ground_ms: f64,
    /// Bottom clauses of the positive training examples.
    pub(crate) positive_clauses: Vec<Clause>,
    /// Where the replay differs from what the engine built.
    pub(crate) mismatches: Vec<String>,
}

/// Replay the stages of `Engine::prepare` on `engine`'s task and config.
pub(crate) fn replay_prepare(engine: &Engine, tracer: &Tracer, request: u64) -> PrepareReplay {
    tracer.span("prepare.replay", None, request, |root| {
        let mut out = PrepareReplay::default();
        let task = engine.task();
        let config = engine.config();

        let (augmented, ms) = timed(tracer, "learner.augment", root, request, || {
            augment_with_target(task)
        });
        out.augment_ms = ms;

        if config.use_mds && !task.mds.is_empty() {
            let index_config = IndexConfig {
                top_k: config.km,
                operator: SimilarityOperator::with_threshold(config.similarity_threshold),
                threads: config.index_threads,
                hot_key_fraction: config.index_hot_key_fraction,
            };
            let (catalog, ms) = timed(tracer, "md_index.build", root, request, || {
                MdCatalog::build(&task.mds, &augmented, &index_config)
            });
            out.md_build_ms = ms;
            out.pairs = catalog.indexes().iter().map(|i| i.pair_count()).sum();
            let built = engine.catalog().indexes();
            let same = catalog.indexes().len() == built.len()
                && catalog
                    .indexes()
                    .iter()
                    .zip(built)
                    .all(|(a, b)| a.md_position == b.md_position && a.index() == b.index());
            if !same {
                out.mismatches
                    .push("replayed MD catalog differs from Engine::catalog()".into());
            }
        }

        let builder = BottomClauseBuilder::new(task, engine.catalog(), config);
        let limits = ExpandLimits {
            max_repairs: config.max_repaired_clauses,
            max_steps: EXPAND_MAX_STEPS,
        };
        let coverage = engine.coverage();
        let sides = [
            (&task.positives, coverage.positives(), GROUNDING_SALTS[0]),
            (&task.negatives, coverage.negatives(), GROUNDING_SALTS[1]),
        ];
        for (side, (examples, grounded, salt)) in sides.into_iter().enumerate() {
            for (idx, (example, built)) in examples.iter().zip(grounded).enumerate() {
                let mut rng = StdRng::seed_from_u64(config.seed ^ salt ^ idx as u64);
                let ((clause, probes), ms) = timed(tracer, "bottom.walk", root, request, || {
                    builder.build_probed(example, &mut rng)
                });
                out.walk_ms += ms;
                out.literals += clause.body_len();
                out.probes += probes.value_probes() + probes.sim_probes();
                let (repaired, ms) = timed(tracer, "expand", root, request, || {
                    repaired_clauses(&clause, limits)
                });
                out.expand_ms += ms;
                let ((), ms) = timed(tracer, "clause.ground", root, request, || {
                    black_box(GroundClause::new(&clause));
                    for r in &repaired {
                        black_box(GroundClause::new(r));
                    }
                });
                out.ground_ms += ms;
                out.clauses += 1;
                out.repaired += repaired.len();
                if probes != built.probes || repaired.len() != built.repaired.len() {
                    out.mismatches.push(format!(
                        "replayed grounding of {} example {idx} differs from Engine::coverage()",
                        if side == 0 { "positive" } else { "negative" }
                    ));
                }
                if side == 0 {
                    out.positive_clauses.push(clause);
                }
            }
        }
        out
    })
}

/// Mean cost of preparing a candidate clause and counting its coverage.
#[derive(Debug, Default)]
pub(crate) struct CoverageReplay {
    /// Mean `PreparedClause::prepare`, in µs.
    pub(crate) prepare_us: f64,
    /// Mean `CoverageEngine::counts`, in µs.
    pub(crate) counts_us: f64,
}

/// Time `PreparedClause::prepare` and `CoverageEngine::counts` on each
/// positive's bottom clause (the seeds the covering loop starts from) and on
/// each learned clause.
pub(crate) fn replay_coverage(
    engine: &Engine,
    learned: &Learned,
    positive_clauses: &[Clause],
    tracer: &Tracer,
    request: u64,
) -> CoverageReplay {
    tracer.span("coverage.replay", None, request, |root| {
        let config = engine.config();
        let mut prepare = Vec::new();
        let mut counts = Vec::new();
        for clause in positive_clauses.iter().chain(learned.clauses()) {
            let (prepared, ms) = timed(tracer, "coverage.prepare", root, request, || {
                PreparedClause::prepare(clause.clone(), config)
            });
            prepare.push(ms * 1e3);
            let (c, ms) = timed(tracer, "coverage.counts", root, request, || {
                engine.coverage().counts(&prepared)
            });
            black_box(c);
            counts.push(ms * 1e3);
        }
        CoverageReplay {
            prepare_us: crate::stats::mean(&prepare),
            counts_us: crate::stats::mean(&counts),
        }
    })
}

/// Run `f` in a span and return its result with its wall time in ms.
pub(crate) fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    tracer.span(name, parent, request, |_| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e3)
    })
}
