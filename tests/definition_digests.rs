//! Pins what every strategy learns. For each strategy of `Strategy::ALL` on
//! three paper-scale datasets (data seed 42, a 70/30 split), the test digests
//! the rendered definition (clauses with their coverage annotations), the
//! number of bottom clauses built and the held-out verdicts, and compares the
//! digest with the committed table.
//!
//! A change meant to keep behaviour keeps every row. A change meant to move a
//! definition copies the table the failure prints and gives the reason in
//! CHANGES.md.

use dlearn::core::{Engine, LearnerConfig, Strategy};
use dlearn::datagen::{
    generate_movie_dataset, generate_segment_dataset, Dataset, MovieConfig, SegmentConfig,
};

/// `(dataset, strategy, digest)`: datasets in [`datasets`] order, strategies
/// in `Strategy::ALL` order.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("movies-3md", "Castor-NoMD", 0xbc94ad0ceba5daa3),
    ("movies-3md", "Castor-Exact", 0xafd1ebc8eb27e767),
    ("movies-3md", "Castor-Clean", 0x7325dea6fa13d883),
    ("movies-3md", "DLearn", 0xa14fb039fab4d2a1),
    ("movies-3md", "DLearn-Repaired", 0xf10cb5726686bfac),
    ("movies-3md", "FOIL", 0x9bacbb1a9203bfd5),
    ("movies-3md", "TILDE", 0x53404800932d8b3b),
    ("movies-1md", "Castor-NoMD", 0xf44855481c28e693),
    ("movies-1md", "Castor-Exact", 0xf44855481c28e693),
    ("movies-1md", "Castor-Clean", 0x6a99c811b8b7c3dc),
    ("movies-1md", "DLearn", 0xeeeae6455fc42dc1),
    ("movies-1md", "DLearn-Repaired", 0xeeeae6455fc42dc1),
    ("movies-1md", "FOIL", 0x1001b758b2d30253),
    ("movies-1md", "TILDE", 0x8f3e3c3a25221a36),
    ("segments", "Castor-NoMD", 0xfa88636347c19692),
    ("segments", "Castor-Exact", 0xfa88636347c19692),
    ("segments", "Castor-Clean", 0xfa88636347c19692),
    ("segments", "DLearn", 0xfa88636347c19692),
    ("segments", "DLearn-Repaired", 0xfa88636347c19692),
    ("segments", "FOIL", 0xfa88636347c19692),
    ("segments", "TILDE", 0x0d7981f3a9eb4cbf),
];

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        (
            "movies-3md",
            generate_movie_dataset(
                &MovieConfig::paper()
                    .with_three_mds()
                    .with_violation_rate(0.1),
                42,
            ),
        ),
        (
            "movies-1md",
            generate_movie_dataset(&MovieConfig::paper(), 42),
        ),
        (
            "segments",
            generate_segment_dataset(&SegmentConfig::paper(), 42),
        ),
    ]
}

/// 64-bit FNV-1a over length-delimited strings: stable across processes,
/// platforms and releases, unlike the standard library's hashers.
fn fnv1a(parts: &[&str]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain((part.len() as u64).to_le_bytes()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn every_strategy_learns_the_committed_definition() {
    let config = LearnerConfig {
        coverage_threads: 2,
        generalization_threads: 2,
        index_threads: 2,
        ..LearnerConfig::fast()
    };
    let mut actual: Vec<(&str, &str, u64)> = Vec::new();
    for (name, dataset) in datasets() {
        let fold = dataset.train_test_split(0.7, 1);
        let held_out: Vec<_> = fold
            .test_positives
            .iter()
            .chain(&fold.test_negatives)
            .cloned()
            .collect();
        let engine = Engine::prepare(fold.train, config.clone()).expect("valid task");
        for strategy in Strategy::ALL {
            let learned = engine.learn(strategy).expect("learn");
            let verdicts: String = engine
                .predictor(&learned)
                .expect("bind")
                .predict_batch(&held_out)
                .expect("predict")
                .iter()
                .map(|&covered| if covered { '1' } else { '0' })
                .collect();
            let digest = fnv1a(&[
                &learned.render(),
                &learned.bottom_clauses_built().to_string(),
                &verdicts,
            ]);
            actual.push((name, strategy.name(), digest));
        }
    }
    if actual != EXPECTED {
        let table: String = actual
            .iter()
            .map(|(dataset, strategy, digest)| {
                format!("    ({dataset:?}, {strategy:?}, 0x{digest:016x}),\n")
            })
            .collect();
        panic!("a learned definition moved; the new table:\n{table}");
    }
}
