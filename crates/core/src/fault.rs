//! Fault-injection checkpoints for the serving tier.
//!
//! With the `fault-injection` feature on, the checkpoints re-export the
//! deterministic harness in `dlearn-test-support` (see its `fault` module);
//! off, they compile to no-op shims the optimizer erases, so production
//! builds carry no injection machinery. A checkpoint key is any `Display`
//! value, formatted only by the harness, so a production build never
//! formats one.

#[cfg(feature = "fault-injection")]
pub(crate) use dlearn_test_support::fault::{checkpoint, Action, Site};

#[cfg(not(feature = "fault-injection"))]
pub(crate) use noop::{checkpoint, Action, Site};

#[cfg(not(feature = "fault-injection"))]
mod noop {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Site {
        Grounding,
        Coverage,
        Alignment,
        Delta,
        Swap,
        Learn,
        Coalesce,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Action {
        Proceed,
        #[allow(dead_code)]
        ExhaustBudget,
    }

    #[inline(always)]
    pub(crate) fn checkpoint(_site: Site, _key: impl std::fmt::Display) -> Action {
        Action::Proceed
    }
}
