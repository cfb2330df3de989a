//! # dlearn-datagen — synthetic dirty-data generators
//!
//! The paper evaluates DLearn on three integrated dataset pairs from the
//! Magellan repository (IMDB+OMDB, Walmart+Amazon, DBLP+Google Scholar). The
//! original data is not redistributable, so this crate synthesizes
//! structurally equivalent databases: two sources describing the same
//! entities whose shared keys are spelled differently (recoverable only by
//! the similarity operator / matching dependencies), target labels that
//! require crossing the similarity join, and configurable CFD-violation
//! injection (`p`), exactly mirroring Section 6.1 of the paper.
//!
//! * [`movies`] — IMDB+OMDB, target `dramaRestrictedMovies(imdbId)`.
//! * [`products`] — Walmart+Amazon, target `upcOfComputersAccessories(upc)`.
//! * [`citations`] — DBLP+Google Scholar, target `gsPaperYear(gsId, year)`.
//! * [`segments`] — a clean, tree-shaped segmentation target (six
//!   region-specific disjuncts) built to differentiate decision-tree from
//!   clausal-covering learners, target `premiumAccounts(accountId)`.
//! * [`dataset::Dataset`] — k-fold cross-validation splitting.
//! * [`violations::inject_cfd_violations`] — violation injection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod citations;
pub mod dataset;
pub mod dirt;
pub mod movies;
pub mod products;
pub mod segments;
pub mod violations;
pub mod vocab;

pub use citations::{generate_citation_dataset, CitationConfig};
pub use dataset::{Dataset, Fold};
pub use movies::{generate_movie_dataset, MovieConfig};
pub use products::{generate_product_dataset, ProductConfig};
pub use segments::{generate_segment_dataset, SegmentConfig};
pub use violations::inject_cfd_violations;
