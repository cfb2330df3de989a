//! # dlearn-core — learning over dirty data without cleaning
//!
//! The primary contribution of the paper: a bottom-up relational learner
//! (in the ProGolem/Castor family) that learns Horn-clause definitions of a
//! target relation **directly over a dirty, heterogeneous database**, using
//! matching dependencies and conditional functional dependencies to encode
//! the space of possible repairs inside the learned clauses instead of
//! cleaning the data first.
//!
//! The pipeline is:
//!
//! 1. [`bottom::BottomClauseBuilder`] builds the most specific clause
//!    covering a training example, following exact and similarity joins and
//!    attaching MD/CFD repair literals (Section 4.1).
//! 2. [`generalize::generalize_prepared`] drops blocking literals so the clause also
//!    covers further positive examples (Section 4.2).
//! 3. [`coverage::CoverageEngine`] scores candidate clauses with
//!    θ-subsumption-based coverage tests under the repair semantics of
//!    Definitions 3.4 / 3.6 (Section 4.3).
//! 4. [`engine::Engine`] prepares the expensive per-database artifacts (the
//!    MD similarity index, the ground bottom clauses of the training
//!    examples) **once**, runs any [`Strategy`] against them — the paper's
//!    five systems plus the extension learners [`Strategy::Foil`] (top-down
//!    information-gain refinement) and [`Strategy::Tilde`] (first-order
//!    decision trees), both implemented in the `learn` subsystem over the
//!    same prepared state — and binds learned definitions to
//!    [`engine::Predictor`]s for batched serving.
//!
//! The main entry point is [`Engine`]: prepare once, learn and serve many
//! times.
//!
//! ```
//! use dlearn_core::{Engine, LearnerConfig, LearningTask, Strategy, TargetSpec};
//! use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};
//!
//! let db = DatabaseBuilder::new()
//!     .relation(RelationBuilder::new("movies").int_attr("id").str_attr("title").build())
//!     .relation(RelationBuilder::new("genres").int_attr("id").str_attr("genre").build())
//!     .row("movies", vec![Value::int(1), Value::str("Superbad")])
//!     .row("genres", vec![Value::int(1), Value::str("comedy")])
//!     .build();
//! let mut task = LearningTask::new(db, TargetSpec::new("hit", 1));
//! task.add_constant_attribute("genres", "genre");
//! task.positives.push(tuple(vec![Value::int(1)]));
//!
//! // Prepare the session once: validates the task and builds the shared
//! // similarity index and ground examples. Malformed tasks are typed
//! // `DlearnError`s here, not panics later.
//! let engine = Engine::prepare(task, LearnerConfig::fast())?;
//!
//! // Learn with any strategy against the shared prepared state: the five
//! // paper systems (`DLearn`, `CastorNoMd`, `CastorExact`, `CastorClean`,
//! // `DLearnRepaired`) or the extension learners (`Foil`, `Tilde`) —
//! // `Strategy::ALL` enumerates all seven.
//! let learned = engine.learn(Strategy::DLearn)?;
//! assert!(learned.clauses().len() <= 4);
//! assert_eq!(Strategy::ALL.len(), 7);
//!
//! // Bind the definition for serving: `predict_batch` grounds and tests
//! // examples in parallel, deterministically.
//! let predictor = engine.predictor(&learned)?;
//! let verdicts = predictor.predict_batch(&[tuple(vec![Value::int(1)])])?;
//! assert_eq!(verdicts.len(), 1);
//! # Ok::<(), dlearn_core::DlearnError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Declare a set of monotone `u64` counters once. From one list of
/// documented field names it generates the public snapshot struct (one
/// `u64` per counter, keeping each field's doc comment), its private
/// `AtomicU64` twin, and the twin's `snapshot()`, which reads every counter
/// with `Relaxed` loads: the counters are independent tallies, so a snapshot
/// promises no cross-counter consistency.
macro_rules! counter_table {
    (
        $(#[$snapshot_doc:meta])*
        pub struct $snapshot:ident counted by $atomic:ident {
            $( $(#[$field_doc:meta])* $field:ident, )*
        }
    ) => {
        $(#[$snapshot_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $( $(#[$field_doc])* pub $field: u64, )*
        }

        #[derive(Default)]
        struct $atomic {
            $( $field: std::sync::atomic::AtomicU64, )*
        }

        impl $atomic {
            fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $( $field: self.$field.load(std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }
    };
}

pub mod bottom;
pub mod coalesce;
pub mod config;
pub mod coverage;
pub mod delta;
pub mod engine;
pub mod error;
mod fault;
pub mod generalize;
pub(crate) mod learn;
pub mod learner;
mod par;
pub mod service;
pub mod task;

pub use bottom::{BottomClauseBuilder, ProbeLog};
pub use coalesce::{CoalesceConfig, CoalesceMetrics, Coalescer};
pub use config::LearnerConfig;
pub use coverage::{
    CoverageCounts, CoverageEngine, CoverageOutcome, GroundExample, GroundPatchStats,
    PreparedClause, Semantics,
};
pub use delta::DeltaReport;
pub use engine::{ClauseStats, Engine, Learned, Predictor};
pub use error::DlearnError;
pub use generalize::generalize_prepared;
pub use learner::{augment_with_target, Strategy};
pub use service::{
    Budget, PredictorService, ServeResult, ServeVerdict, ServiceConfig, ServiceMetrics,
};
pub use task::{LearningTask, TargetSpec};
