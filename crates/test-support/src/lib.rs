//! # dlearn-test-support — differential-testing machinery
//!
//! This crate is the testing contract of the θ-subsumption engine, shared by
//! the `dlearn-logic` randomized differential suite, the workspace-level
//! end-to-end differential suite and the benches. It provides:
//!
//! * [`gen`] — seeded random clause / ground-clause generators producing
//!   *oracle-safe* candidate clauses (every constraint and repair variable
//!   occurs in the head or a relation literal — the shape bottom-clause
//!   construction emits), plus the deterministic `backtracking_heavy`
//!   adversarial pair used by the benches.
//! * [`oracle`] — a brute-force reference matcher that enumerates **all**
//!   variable→term assignments of a small candidate clause (over the terms
//!   of `D` plus canonical fresh terms) and a witness verifier checking that
//!   a returned θ really embeds `C` into `D`.
//! * [`string_reference`] — the string-keyed, allocation-heavy matcher the
//!   interning refactor replaced, kept as a second, structurally different
//!   reference implementation.
//! * [`expand_reference`] — the clause-cloning repaired-clause expansion
//!   (with its string `canonical_string`, `BTreeSet` head-connectedness and
//!   repair-condition evaluation) that the production expansion must
//!   reproduce clause for clause, in order.
//! * [`vocab`] — seeded dirty-string vocabulary generators (typos, token
//!   swaps, decorations) whose corruptions always leave the two sides of a
//!   shared base in a common blocking block.
//! * [`swg_reference`] — the exhaustive Smith-Waterman-Gotoh dynamic
//!   program and the operator's combined score over it: the reference the
//!   similarity crate's banded kernel must match bit for bit.
//! * [`index_oracle`] — a brute-force all-pairs reference similarity index
//!   (no blocking, no length filter, no early exit, scored by
//!   [`swg_reference`]) that the similarity crate's differential suite
//!   compares the production `SimilarityIndex::build` against.
//! * `fault` (feature `fault-injection`) — deterministic seeded injection
//!   of panics, delays and forced budget exhaustion at named serving-tier
//!   checkpoints, driving the service robustness suite.
//!
//! The differential tests assert *soundness* (any θ the production matcher
//! returns verifies as an embedding) and *decision agreement* with both
//! references, instead of pinning the exact search order — which is what
//! frees the production matcher to re-order literals adaptively.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod expand_reference;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod gen;
pub mod index_oracle;
pub mod oracle;
pub mod string_reference;
pub mod swap;
pub mod swg_reference;
pub mod vocab;

pub use delta::{
    column_script, replay_and_compare, tx_script, ColumnScript, ColumnScriptConfig, ReplayStats,
    TxScriptConfig,
};
pub use gen::{
    backtracking_heavy_pair, derived_candidate, random_candidate, random_ground, GenConfig,
};
pub use index_oracle::ReferenceIndex;
pub use oracle::OracleGround;
pub use string_reference::StringGround;
pub use swap::{coalesce_script, swap_script, SwapScriptConfig, SwapStep};
pub use swg_reference::{reference_score, reference_swg};
pub use vocab::{dirty_vocabulary, DirtyVocabulary, VocabConfig};
