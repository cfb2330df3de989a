//! The fallible public surface: every error a prepared [`crate::Engine`]
//! session or a bound [`crate::Predictor`] can report.
//!
//! The paper's pipeline has plenty of places where a malformed task used to
//! surface as a panic deep inside bottom-clause construction (an MD naming a
//! relation that does not exist, an example tuple of the wrong arity, …).
//! [`DlearnError`] moves all of those to `Engine::prepare`/`predict` time as
//! typed variants, so serving callers can reject bad input without tearing
//! down the process.

use std::fmt;

use dlearn_constraints::Inconsistency;
use dlearn_relstore::StoreError;

/// Errors of the public learning/serving API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DlearnError {
    /// A schema-level reference error: the task's database, constraints or
    /// declarations reference an unknown relation/attribute, or a tuple does
    /// not fit its schema. Wraps the store's own error, usually inside a
    /// [`StoreError::InContext`] naming the offending declaration.
    Store(StoreError),
    /// An example tuple's arity does not match the target relation's.
    ExampleArity {
        /// Arity declared by the task's [`crate::TargetSpec`].
        expected: usize,
        /// Arity of the offending example tuple.
        actual: usize,
        /// Position of the tuple in the example list.
        index: usize,
        /// `true` when the tuple is a positive example.
        positive: bool,
    },
    /// The task has no positive examples; a covering learner cannot learn a
    /// definition from negatives alone.
    EmptyPositives,
    /// Two of the task's CFDs force different constants on one attribute,
    /// so no non-empty relation satisfies both (Section 2.3). Boxed so the
    /// variant does not widen every `DlearnError` a served result carries.
    InconsistentCfds(Box<Inconsistency>),
    /// A tuple handed to [`crate::Predictor::predict`] /
    /// [`crate::Predictor::predict_batch`] does not have the target
    /// relation's arity.
    PredictArity {
        /// Arity of the target relation the model was learned for.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
        /// Position of the tuple in the batch (0 for single predictions).
        index: usize,
    },
    /// A configuration field holds a value the learner cannot run with.
    InvalidConfig {
        /// The offending [`crate::LearnerConfig`] field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// A served example blew through its per-call deadline
    /// ([`crate::Budget::deadline`]): grounding plus coverage did not finish
    /// in time and the search was cooperatively cancelled. Only the affected
    /// example reports this; the rest of the batch completes.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A worker thread panicked while processing one example. The panic was
    /// caught at the chunk boundary, the example's tuple was quarantined from
    /// the serving cache, and the rest of the batch completed.
    WorkerPanicked {
        /// Which pipeline stage panicked (e.g. `"serve"`, `"prepare"`).
        site: &'static str,
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// A delta transaction named a relation the session's database does not
    /// have. The engine state is untouched.
    DeltaUnknownRelation {
        /// The unknown relation name.
        relation: String,
    },
    /// A delta operation's tuple does not match the relation's arity. The
    /// engine state is untouched.
    DeltaArityMismatch {
        /// Relation the operation targeted.
        relation: String,
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A delta tried to delete a tuple that is not present. The engine state
    /// is untouched.
    DeltaAbsentTuple {
        /// Relation the delete targeted.
        relation: String,
        /// Display form of the missing tuple.
        tuple: String,
    },
    /// [`crate::Engine::apply_delta`] was called on an engine quarantined by
    /// an earlier mid-delta panic; its incremental state can no longer be
    /// trusted and the session must be rebuilt with [`crate::Engine::prepare`].
    DeltaQuarantined,
    /// [`crate::PredictorService::apply_delta`] was handed a delta report
    /// whose sequence number does not chain from the model the service is
    /// currently serving (or a predictor not rebound at that sequence):
    /// deltas were applied out of order, skipped, or came from a different
    /// engine session. The served model is untouched.
    DeltaEpochMismatch {
        /// Delta sequence of the model the service is serving.
        served: u64,
        /// Sequence number carried by the rejected report.
        report: u64,
    },
    /// The service's swap path is quarantined after a panic mid-publication:
    /// the previous epoch keeps serving reads, but selective
    /// [`crate::PredictorService::apply_delta`] calls are refused until a
    /// clean full [`crate::PredictorService::publish`] installs a fresh
    /// epoch.
    SwapQuarantined,
    /// A [`crate::Coalescer`] request went unanswered: the batcher thread
    /// is gone (it panicked) and dropped the request's reply channel. The
    /// request was never served. A dropped coalescer serves its queue
    /// before its batcher exits, and no caller can submit to it afterwards.
    CoalescerClosed,
}

impl fmt::Display for DlearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlearnError::Store(e) => write!(f, "invalid task: {e}"),
            DlearnError::ExampleArity {
                expected,
                actual,
                index,
                positive,
            } => write!(
                f,
                "{} example #{index} has arity {actual}, target expects {expected}",
                if *positive { "positive" } else { "negative" }
            ),
            DlearnError::EmptyPositives => {
                write!(f, "task has no positive examples to learn from")
            }
            DlearnError::InconsistentCfds(c) => write!(
                f,
                "CFDs '{}' and '{}' force different constants on attribute '{}': no \
                 non-empty relation satisfies both",
                c.first, c.second, c.attribute
            ),
            DlearnError::PredictArity {
                expected,
                actual,
                index,
            } => write!(
                f,
                "prediction tuple #{index} has arity {actual}, target expects {expected}"
            ),
            DlearnError::InvalidConfig { field, reason } => {
                write!(f, "invalid config field `{field}`: {reason}")
            }
            DlearnError::DeadlineExceeded { budget_ms } => {
                write!(f, "serving deadline of {budget_ms}ms exceeded")
            }
            DlearnError::WorkerPanicked { site, message } => {
                write!(f, "worker panicked at `{site}`: {message}")
            }
            DlearnError::DeltaUnknownRelation { relation } => {
                write!(f, "delta references unknown relation '{relation}'")
            }
            DlearnError::DeltaArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "delta tuple for relation '{relation}' has arity {actual}, schema expects {expected}"
            ),
            DlearnError::DeltaAbsentTuple { relation, tuple } => {
                write!(f, "delta deletes absent tuple {tuple} from relation '{relation}'")
            }
            DlearnError::DeltaQuarantined => write!(
                f,
                "engine is quarantined after a failed delta; rebuild the session with Engine::prepare"
            ),
            DlearnError::DeltaEpochMismatch { served, report } => write!(
                f,
                "delta report sequence {report} does not chain from the served model's sequence \
                 {served}; apply engine deltas in order and re-bind the predictor before \
                 PredictorService::apply_delta"
            ),
            DlearnError::SwapQuarantined => write!(
                f,
                "service swap path is quarantined after a mid-publication panic; recover with a \
                 full PredictorService::publish"
            ),
            DlearnError::CoalescerClosed => {
                write!(f, "coalescer is shut down; the request was not served")
            }
        }
    }
}

impl std::error::Error for DlearnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlearnError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for DlearnError {
    fn from(e: StoreError) -> Self {
        DlearnError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_actionable_messages() {
        let e = DlearnError::from(
            StoreError::UnknownRelation("omdb_movies".into()).in_context("MD 'titles'"),
        );
        let msg = e.to_string();
        assert!(msg.contains("MD 'titles'"), "{msg}");
        assert!(msg.contains("omdb_movies"), "{msg}");

        let e = DlearnError::ExampleArity {
            expected: 1,
            actual: 3,
            index: 4,
            positive: false,
        };
        assert!(e.to_string().contains("negative example #4"), "{e}");
        assert!(DlearnError::EmptyPositives.to_string().contains("positive"));
    }

    #[test]
    fn store_errors_keep_their_source_chain() {
        use std::error::Error;
        let e = DlearnError::from(StoreError::UnknownRelation("x".into()));
        assert!(e.source().is_some());
        assert!(DlearnError::EmptyPositives.source().is_none());
    }
}
