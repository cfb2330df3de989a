//! # dlearn-relstore — in-memory relational database substrate
//!
//! DLearn (the paper's system) is implemented on top of a main-memory RDBMS
//! (VoltDB) and only needs a small slice of its functionality: typed
//! relations, equality selections backed by hash indexes, and cheap in-place
//! value updates for database repairs. This crate provides exactly that
//! substrate, from scratch, with deterministic iteration orders so that
//! learning runs are reproducible.
//!
//! The main types are:
//!
//! * [`Interner`], [`Sym`], [`RelId`] — process-wide string interning; every
//!   relation name, attribute name and string constant is a copy-type handle
//!   with integer equality/hashing (the representation the θ-subsumption hot
//!   path in `dlearn-logic` relies on).
//! * [`Value`] / [`ValueType`] — attribute values (ints, interned strings,
//!   `NULL`); `Value` is `Copy`.
//! * [`Attribute`], [`RelationSchema`], [`Schema`] — schema catalog.
//! * [`Tuple`] — an ordered list of values.
//! * [`Relation`] — a relation instance with per-attribute hash indexes.
//! * [`Database`] — the full instance, keyed by [`RelId`].
//! * [`DeltaTx`] / [`ChangeSet`] — streaming tuple-level delta transactions
//!   and their value-level read-visible footprint.
//! * [`DatabaseBuilder`] / [`RelationBuilder`] — fluent construction helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod database;
pub mod delta;
pub mod error;
pub mod fxhash;
pub mod intern;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use builder::{DatabaseBuilder, RelationBuilder};
pub use database::Database;
pub use delta::{ChangeSet, DeltaOp, DeltaTx};
pub use error::StoreError;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, RelId, Sym};
pub use relation::{Relation, TupleId};
pub use schema::{Attribute, RelationSchema, Schema};
pub use tuple::{tuple, Tuple};
pub use value::{Value, ValueType};
