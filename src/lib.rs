//! # DLearn — learning over dirty data without cleaning
//!
//! This is the umbrella crate of the DLearn reproduction. It re-exports every
//! sub-crate of the workspace under a single, convenient namespace so that
//! examples, integration tests, and downstream users can depend on one crate.
//!
//! The library reproduces the system described in *Learning Over Dirty Data
//! Without Cleaning* (Picado, Davis, Termehchy, Lee — SIGMOD 2020): a
//! bottom-up relational learner that learns Horn-clause definitions of a
//! target relation directly over an inconsistent, heterogeneous database by
//! encoding the space of possible repairs (induced by matching dependencies
//! and conditional functional dependencies) inside the learned clauses.
//!
//! ## Crate map
//!
//! * [`relstore`] — in-memory relational database substrate (schemas, typed
//!   values, relations, indexes, selection).
//! * [`similarity`] — string similarity operators (Smith-Waterman-Gotoh +
//!   length) and the precomputed top-`km` similarity index.
//! * [`logic`] — first-order logic machinery: terms, literals, Horn clauses,
//!   θ-subsumption with repair literals.
//! * [`constraints`] — matching dependencies, conditional functional
//!   dependencies, violation detection, and database repairs.
//! * [`core`] — the prepared-session [`core::Engine`] running the DLearn
//!   learner and the Castor-style baselines, plus the serving-side
//!   [`core::Predictor`].
//! * [`datagen`] — synthetic dirty-data generators emulating the paper's
//!   three integrated dataset pairs.
//! * [`eval`] — metrics, cross-validation, and the experiment runner that
//!   regenerates every table and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use dlearn::datagen::movies::{MovieConfig, generate_movie_dataset};
//! use dlearn::core::{Engine, LearnerConfig, Strategy};
//!
//! // Generate a small synthetic dirty movie database (IMDB+OMDB style).
//! let cfg = MovieConfig::tiny();
//! let dataset = generate_movie_dataset(&cfg, 7);
//!
//! // Prepare a session once (validates the task, builds the similarity
//! // index and ground examples), then learn directly over the dirty data.
//! let engine = Engine::prepare(dataset.task.clone(), LearnerConfig::fast())?;
//! let learned = engine.learn(Strategy::DLearn)?;
//! println!("{}", learned.render());
//! assert!(learned.clauses().len() <= 4);
//!
//! // Bind the definition for serving and predict a batch in parallel.
//! let predictor = engine.predictor(&learned)?;
//! let verdicts = predictor.predict_batch(&dataset.task.positives)?;
//! assert_eq!(verdicts.len(), dataset.task.positives.len());
//! # Ok::<(), dlearn::core::DlearnError>(())
//! ```

#![forbid(unsafe_code)]

pub use dlearn_constraints as constraints;
pub use dlearn_core as core;
pub use dlearn_datagen as datagen;
pub use dlearn_eval as eval;
pub use dlearn_logic as logic;
pub use dlearn_relstore as relstore;
pub use dlearn_similarity as similarity;
