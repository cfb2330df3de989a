//! Movie integration scenario (the paper's IMDB+OMDB workload): compare
//! DLearn against the Castor-style baselines on a database whose movie titles
//! are spelled differently in the two sources.
//!
//! All systems run against **one prepared engine session**, so the title
//! similarity index is built once, not once per system. This is a single-run
//! miniature of Table 4. Run with:
//! `cargo run --release --example movie_integration`

use dlearn::core::{Engine, LearnerConfig, Strategy};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::eval::Confusion;

fn main() -> Result<(), dlearn::core::DlearnError> {
    let dataset = generate_movie_dataset(&MovieConfig::small().with_three_mds(), 42);
    let fold = dataset.train_test_split(0.7, 1);
    println!(
        "dataset: {} ({} tuples)\n",
        dataset.name,
        dataset.task.database.total_tuples()
    );

    let config = LearnerConfig::fast().with_iterations(4).with_km(2);
    let engine = Engine::prepare(fold.train.clone(), config)?;

    println!(
        "{:<18} {:>6} {:>10} {:>10} {:>10}",
        "system", "F1", "precision", "recall", "time(s)"
    );
    for strategy in Strategy::ALL {
        if strategy == Strategy::DLearnRepaired {
            continue; // no CFD violations in this scenario
        }
        let learned = engine.learn(strategy)?;
        let predictor = engine.predictor(&learned).expect("bind predictor");
        let confusion = Confusion::from_predictions(
            &predictor.predict_batch(&fold.test_positives)?,
            &predictor.predict_batch(&fold.test_negatives)?,
        );
        println!(
            "{:<18} {:>6.2} {:>10.2} {:>10.2} {:>10.2}",
            strategy.name(),
            confusion.f1(),
            confusion.precision(),
            confusion.recall(),
            learned.seconds()
        );
    }
    Ok(())
}
