//! The exact-join rule at the catalog level. Castor-Exact and Castor-Clean
//! join through [`MdCatalog::build_exact`], which matches equal normalized
//! strings and runs no alignment. It must equal an aligned
//! [`MdCatalog::build`] at threshold 0.9999, because below 5,000 normalized
//! characters only equal strings score that high.

use dlearn::constraints::MdCatalog;
use dlearn::core::augment_with_target;
use dlearn::datagen::{
    generate_citation_dataset, generate_movie_dataset, generate_product_dataset, CitationConfig,
    MovieConfig, ProductConfig,
};
use dlearn::similarity::{IndexConfig, SimilarityOperator};

/// Every MD of three-MD movies, products and citations (data seed 42) at
/// `km` 1, 2 and 5.
#[test]
fn exact_catalog_equals_an_aligned_build_at_the_exact_threshold() {
    let movies = MovieConfig::paper()
        .with_three_mds()
        .with_violation_rate(0.1);
    let datasets = [
        ("movies-3md", generate_movie_dataset(&movies, 42)),
        (
            "products",
            generate_product_dataset(&ProductConfig::paper(), 42),
        ),
        (
            "citations",
            generate_citation_dataset(&CitationConfig::paper(), 42),
        ),
    ];
    for (name, dataset) in datasets {
        let mds = &dataset.task.mds;
        let db = augment_with_target(&dataset.task);
        for km in [1, 2, 5] {
            let config = IndexConfig {
                operator: SimilarityOperator::with_threshold(0.9999),
                ..IndexConfig::top_k(km)
            };
            let aligned = MdCatalog::build(mds, &db, &config);
            let exact = MdCatalog::build_exact(mds, &db, km);
            assert_eq!(exact.len(), mds.len(), "{name}: one index per MD");
            for (e, a) in exact.indexes().iter().zip(aligned.indexes()) {
                assert_eq!(e.index(), a.index(), "{name}, km {km}, MD '{}'", e.md.name);
            }
            let pairs: usize = exact.indexes().iter().map(|i| i.pair_count()).sum();
            assert!(pairs > 0, "{name}, km {km}: no exact pair to compare");
        }
    }
}
