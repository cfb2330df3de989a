//! Strategies and the shared target-augmentation helper.
//!
//! The strategy preprocessing lives in [`crate::engine`] and the refinement
//! searches in the `learn` subsystem; [`crate::Engine::learn`] runs any
//! [`Strategy`] against a prepared session.

use dlearn_relstore::{Attribute, Database, RelationSchema, ValueType};

use crate::task::LearningTask;

/// Which system to run. `DLearn` is the paper's contribution; the others are
/// the baselines of Section 6.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// DLearn with MD and CFD repair support (DLearn-CFD in Table 5; plain
    /// DLearn in Table 4 where no CFD violations are injected).
    DLearn,
    /// Castor over the original databases, ignoring MDs entirely.
    CastorNoMd,
    /// Castor where MD attributes may be joined, but only through exact
    /// matches.
    CastorExact,
    /// Castor over a database where each value is first unified with its
    /// single most similar counterpart (one hard match per value).
    CastorClean,
    /// DLearn with MDs only, run over the minimal repair of the CFD
    /// violations (the baseline of Table 5).
    DLearnRepaired,
    /// FOIL-style top-down refinement over the DLearn-prepared state:
    /// specialize from the bare head by adding bottom-clause literals chosen
    /// by information gain over coverage counts (not in the paper; see
    /// `learn/foil.rs`).
    Foil,
    /// TILDE-style first-order decision tree over the DLearn-prepared state:
    /// internal nodes are conjunctive tests from the bottom clauses, split by
    /// gain ratio; positive leaves become the definition's clauses (not in
    /// the paper; see `learn/tilde.rs`).
    Tilde,
}

impl Strategy {
    /// Every strategy, in presentation order: the five paper systems first
    /// (in the order the paper's tables list them), then the extension
    /// learners. The single source of truth for strategy enumeration — eval
    /// tables, examples, and tests iterate this rather than hand-listed
    /// arrays.
    pub const ALL: [Strategy; 7] = [
        Strategy::CastorNoMd,
        Strategy::CastorExact,
        Strategy::CastorClean,
        Strategy::DLearn,
        Strategy::DLearnRepaired,
        Strategy::Foil,
        Strategy::Tilde,
    ];

    /// Display name matching the paper (extension learners use their
    /// literature names).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::DLearn => "DLearn",
            Strategy::CastorNoMd => "Castor-NoMD",
            Strategy::CastorExact => "Castor-Exact",
            Strategy::CastorClean => "Castor-Clean",
            Strategy::DLearnRepaired => "DLearn-Repaired",
            Strategy::Foil => "FOIL",
            Strategy::Tilde => "TILDE",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parse a strategy from its display name; matching is case-insensitive
    /// and ignores `-`/`_` separators, so `dlearn-repaired`, `DLearnRepaired`
    /// and `DLearn_Repaired` all parse.
    fn from_str(s: &str) -> Result<Strategy, String> {
        let normalized: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        Strategy::ALL
            .into_iter()
            .find(|strategy| {
                strategy
                    .name()
                    .chars()
                    .filter(|c| *c != '-' && *c != '_')
                    .map(|c| c.to_ascii_lowercase())
                    .eq(normalized.chars())
            })
            .ok_or_else(|| {
                let known: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
                format!("unknown strategy `{s}` (known: {})", known.join(", "))
            })
    }
}

/// Clone the task's database and add the target relation, populated with the
/// training examples, so that MDs whose left-hand relation is the target can
/// be indexed. Attribute types are inferred from the first example.
pub fn augment_with_target(task: &LearningTask) -> Database {
    let mut db = task.database.clone();
    if db.schema().contains(&task.target.name) {
        return db;
    }
    let sample = task.positives.first().or(task.negatives.first());
    let attrs: Vec<Attribute> = task
        .target
        .attributes
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ty = sample
                .and_then(|t| t.value(i))
                .map(|v| match v.value_type() {
                    ValueType::Int => ValueType::Int,
                    _ => ValueType::Str,
                })
                .unwrap_or(ValueType::Str);
            Attribute::new(name.clone(), ty)
        })
        .collect();
    if db
        .create_relation(RelationSchema::new(task.target.name.clone(), attrs))
        .is_ok()
    {
        for e in task.positives.iter().chain(task.negatives.iter()) {
            let _ = db.insert(&task.target.name, e.clone());
        }
    }
    db
}

/// Helpers shared by unit tests across the crate.
#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use crate::task::TargetSpec;
    use dlearn_constraints::MatchingDependency;
    use dlearn_relstore::{tuple, DatabaseBuilder, RelationBuilder, Value};

    /// A small two-source movie task: the target `hit(imdb_id)` holds for
    /// movies that are comedies (IMDB side) *and* rated R (OMDB side); the
    /// only way to reach the rating is a similarity join on titles.
    pub fn two_source_task() -> LearningTask {
        let mut builder = DatabaseBuilder::new()
            .relation(
                RelationBuilder::new("imdb_movies")
                    .int_attr("id")
                    .str_attr("title")
                    .build(),
            )
            .relation(
                RelationBuilder::new("imdb_genres")
                    .int_attr("id")
                    .str_attr("genre")
                    .build(),
            )
            .relation(
                RelationBuilder::new("omdb_movies")
                    .int_attr("oid")
                    .str_attr("title")
                    .build(),
            )
            .relation(
                RelationBuilder::new("omdb_ratings")
                    .int_attr("oid")
                    .str_attr("rating")
                    .build(),
            );
        // Ten movies; even ids are comedies, and the first six are rated R on
        // the OMDB side. Hits: comedies rated R = ids 0, 2, 4.
        let titles = [
            "Alpha Dawn",
            "Beta Harvest",
            "Crimson Tide Story",
            "Delta Grove",
            "Echo Valley",
            "Foxtrot Nine",
            "Golden Hour",
            "Hidden Creek",
            "Iron Summit",
            "Jade Harbor",
        ];
        for (i, title) in titles.iter().enumerate() {
            let id = i as i64;
            builder = builder
                .row("imdb_movies", vec![Value::int(id), Value::str(*title)])
                .row(
                    "imdb_genres",
                    vec![
                        Value::int(id),
                        Value::str(if i % 2 == 0 { "comedy" } else { "thriller" }),
                    ],
                )
                .row(
                    "omdb_movies",
                    vec![
                        Value::int(100 + id),
                        Value::str(format!("{title} ({})", 1990 + i)),
                    ],
                )
                .row(
                    "omdb_ratings",
                    vec![
                        Value::int(100 + id),
                        Value::str(if i < 6 { "R" } else { "PG" }),
                    ],
                );
        }
        let db = builder.build();
        let mut task = LearningTask::new(db, TargetSpec::with_attributes("hit", vec!["imdb_id"]));
        task.mds.push(MatchingDependency::simple(
            "titles",
            "imdb_movies",
            "title",
            "omdb_movies",
            "title",
        ));
        task.add_constant_attribute("imdb_genres", "genre");
        task.add_constant_attribute("omdb_ratings", "rating");
        for i in [0i64, 2, 4] {
            task.positives.push(tuple(vec![Value::int(i)]));
        }
        for i in [1i64, 3, 5, 6, 7, 8, 9] {
            task.negatives.push(tuple(vec![Value::int(i)]));
        }
        task
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::two_source_task;
    use super::*;

    #[test]
    fn strategies_expose_paper_names() {
        assert_eq!(Strategy::DLearn.name(), "DLearn");
        assert_eq!(Strategy::CastorNoMd.name(), "Castor-NoMD");
        assert_eq!(Strategy::Foil.name(), "FOIL");
        assert_eq!(Strategy::Tilde.name(), "TILDE");
        assert_eq!(Strategy::ALL.len(), 7);
    }

    #[test]
    fn strategy_display_and_from_str_round_trip() {
        for strategy in Strategy::ALL {
            assert_eq!(strategy.to_string(), strategy.name());
            assert_eq!(strategy.name().parse::<Strategy>(), Ok(strategy));
            // Parsing is case-insensitive and separator-insensitive.
            assert_eq!(
                strategy.name().to_lowercase().replace('-', "_").parse(),
                Ok(strategy)
            );
        }
        let err = "no-such-learner".parse::<Strategy>().unwrap_err();
        assert!(err.contains("no-such-learner"), "{err}");
        assert!(
            err.contains("TILDE"),
            "error should list known names: {err}"
        );
    }

    #[test]
    fn augment_with_target_adds_examples_once() {
        let task = two_source_task();
        let db = augment_with_target(&task);
        let rel = db.require_relation("hit").unwrap();
        assert_eq!(rel.len(), task.example_count());
        // Augmenting a database that already has the relation is a no-op.
        let mut task2 = task.clone();
        task2.database = db;
        let db2 = augment_with_target(&task2);
        assert_eq!(
            db2.require_relation("hit").unwrap().len(),
            task.example_count()
        );
    }
}
