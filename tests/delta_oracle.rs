//! Engine-level incremental-maintenance oracle: after **any** sequence of
//! streaming delta transactions, a session maintained through
//! [`Engine::apply_delta`] must be indistinguishable from a from-scratch
//! [`Engine::prepare`] over the identically mutated database.
//!
//! "Indistinguishable" is pinned structurally, not just behaviourally:
//!
//! * every maintained MD similarity index is `==` (entry for entry, score
//!   bits included) to the freshly built one;
//! * every ground bottom clause — its probe log and its indexed form — is
//!   bit-identical to the fresh grounding, whether it was re-ground or
//!   reused unchanged;
//! * the learned definition and batched predictor verdicts agree.
//!
//! The transactions come from the seeded [`tx_script`] generator (deletes
//! always name present tuples; inserts recombine and decorate live values so
//! similarity blocking is actually exercised), and the whole grid runs at
//! 1/2/8 coverage threads so incremental maintenance composes with the
//! parallel-determinism contract.

use dlearn::core::{Engine, LearnerConfig, Strategy};
use dlearn::datagen::movies::{generate_movie_dataset, MovieConfig};
use dlearn::relstore::{tuple, RelId, Tuple, Value};
use dlearn_test_support::delta::{tx_script, TxScriptConfig};

fn config(seed: u64, coverage_threads: usize) -> LearnerConfig {
    LearnerConfig {
        coverage_threads,
        seed,
        ..LearnerConfig::fast().with_iterations(4)
    }
}

/// Relations the delta scripts mutate: both MD-indexed title columns plus a
/// join relation with no similarity index, so scripts mix index maintenance
/// with exact-probe invalidation.
fn delta_relations() -> [RelId; 3] {
    [
        RelId::intern("imdb_movies"),
        RelId::intern("omdb_movies"),
        RelId::intern("imdb_mov2genres"),
    ]
}

/// Structural equality of a maintained session against a fresh prepare.
fn assert_sessions_equal(incremental: &Engine, fresh: &Engine, ctx: &str) {
    let (ci, cf) = (incremental.catalog().indexes(), fresh.catalog().indexes());
    assert_eq!(ci.len(), cf.len(), "{ctx}: MD index count diverged");
    for (a, b) in ci.iter().zip(cf) {
        assert_eq!(
            a.index(),
            b.index(),
            "{ctx}: maintained similarity index at md_position {} diverged from fresh build",
            a.md_position
        );
    }
    let (gi, gf) = (incremental.coverage(), fresh.coverage());
    let sides = [
        ("positives", gi.positives(), gf.positives()),
        ("negatives", gi.negatives(), gf.negatives()),
    ];
    for (side, a, b) in sides {
        assert_eq!(a.len(), b.len(), "{ctx}: {side} count diverged");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.example, y.example, "{ctx}: {side}[{i}] example diverged");
            assert_eq!(
                x.probes, y.probes,
                "{ctx}: {side}[{i}] probe log diverged from fresh grounding"
            );
            // `GroundClause` has no `PartialEq`; its `Debug` form is a full
            // structural dump and both sides were built by (claimed-)
            // identical insertion sequences, so the digests must match.
            assert_eq!(
                format!("{:?}", x.ground),
                format!("{:?}", y.ground),
                "{ctx}: {side}[{i}] ground clause diverged from fresh grounding"
            );
            assert_eq!(
                x.repaired.len(),
                y.repaired.len(),
                "{ctx}: {side}[{i}] repaired-variant count diverged"
            );
        }
    }
}

#[test]
fn incremental_session_equals_fresh_prepare_after_every_transaction() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let relations = delta_relations();
    let mut reused = 0usize;
    let mut reground = 0usize;
    let mut match_lists_changed = 0usize;
    for threads in [1usize, 2, 8] {
        for seed in [7u64, 21] {
            let cfg = config(seed, threads);
            let mut engine = Engine::prepare(dataset.task.clone(), cfg.clone()).expect("prepare");
            let mut task = dataset.task.clone();
            let script = tx_script(&task.database, &relations, &TxScriptConfig::default(), seed);
            assert!(!script.is_empty(), "script generator produced no work");
            let last = script.len() - 1;
            for (step, tx) in script.iter().enumerate() {
                let report = engine.apply_delta(tx).expect("apply_delta");
                task.database.apply_delta(tx).expect("mirror apply");
                reused += report.grounding.positives_reused + report.grounding.negatives_reused;
                reground +=
                    report.grounding.positives_reground + report.grounding.negatives_reground;
                match_lists_changed += report.changed_match_lists();
                let fresh = Engine::prepare(task.clone(), cfg.clone()).expect("fresh prepare");
                let ctx = format!("threads {threads} seed {seed} step {step}");
                assert_sessions_equal(&engine, &fresh, &ctx);
                if step == last {
                    let inc_learned = engine.learn(Strategy::DLearn).expect("incremental learn");
                    let fresh_learned = fresh.learn(Strategy::DLearn).expect("fresh learn");
                    assert_eq!(
                        inc_learned.definition(),
                        fresh_learned.definition(),
                        "{ctx}: learned definitions diverged"
                    );
                    let trace: Vec<Tuple> = task
                        .positives
                        .iter()
                        .chain(task.negatives.iter())
                        .cloned()
                        .collect();
                    let inc_verdicts = engine
                        .predictor(&inc_learned)
                        .expect("incremental predictor")
                        .predict_batch(&trace)
                        .expect("incremental predict");
                    let fresh_verdicts = fresh
                        .predictor(&fresh_learned)
                        .expect("fresh predictor")
                        .predict_batch(&trace)
                        .expect("fresh predict");
                    assert_eq!(inc_verdicts, fresh_verdicts, "{ctx}: verdicts diverged");
                }
            }
        }
    }
    // Vacuity guards: across the grid the scripts must have exercised both
    // maintenance paths — clauses rebuilt because a probe they executed
    // changed, clauses reused untouched, and similarity match lists patched.
    assert!(reground > 0, "no ground clause was ever re-ground");
    assert!(reused > 0, "no ground clause was ever reused");
    assert!(
        match_lists_changed > 0,
        "no similarity match list ever changed"
    );
}

#[test]
fn delta_report_accounts_for_every_training_example() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let mut engine = Engine::prepare(dataset.task.clone(), config(7, 1)).expect("prepare");
    let positives = engine.coverage().positives().len();
    let negatives = engine.coverage().negatives().len();
    let script = tx_script(
        &dataset.task.database,
        &delta_relations(),
        &TxScriptConfig::default(),
        7,
    );
    for tx in &script {
        let report = engine.apply_delta(tx).expect("apply_delta");
        let g = report.grounding;
        assert_eq!(
            g.positives_reground + g.positives_reused,
            positives,
            "positives must be either re-ground or reused"
        );
        assert_eq!(
            g.negatives_reground + g.negatives_reused,
            negatives,
            "negatives must be either re-ground or reused"
        );
        assert_eq!(report.mds_maintained, engine.catalog().indexes().len());
    }
}

#[test]
fn novel_title_insert_patches_the_similarity_index() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let mut engine = Engine::prepare(dataset.task.clone(), config(7, 1)).expect("prepare");
    // A brand-new id with a title close to the live vocabulary: the title
    // value newly appears in the indexed column, so the maintained index
    // must run a bounded re-scan for it and report the changed match list.
    let tx = dlearn::relstore::DeltaTx::new().insert(
        RelId::intern("imdb_movies"),
        tuple(vec![
            Value::int(990_001),
            Value::str("The Matrix Resurrections: Delta Cut"),
            Value::int(2021),
        ]),
    );
    let report = engine.apply_delta(&tx).expect("apply_delta");
    assert!(
        report.rescored_lefts + report.patched_entries > 0,
        "a novel indexed title must trigger incremental index work"
    );
    assert!(
        report.changed_match_lists() > 0,
        "a novel indexed title must change at least its own match list"
    );
    // And the maintained session must still equal a fresh prepare.
    let mut task = dataset.task.clone();
    task.database.apply_delta(&tx).expect("mirror apply");
    let fresh = Engine::prepare(task, config(7, 1)).expect("fresh prepare");
    assert_sessions_equal(&engine, &fresh, "novel title insert");
}

/// Relstore's semantics within one transaction (ops apply in order under
/// bag semantics), replayed through the engine: the transaction inserts a
/// new title and deletes it again, inserts a second copy of a live movie
/// row, and deletes a title it inserted two ops earlier. The maintained
/// session must equal a fresh prepare over the mirrored database.
#[test]
fn in_transaction_semantics_match_a_fresh_prepare() {
    let dataset = generate_movie_dataset(&MovieConfig::tiny(), 42);
    let mut engine = Engine::prepare(dataset.task.clone(), config(7, 1)).expect("prepare");
    let (imdb, omdb) = (RelId::intern("imdb_movies"), RelId::intern("omdb_movies"));
    let movie = |id, title| tuple(vec![Value::int(id), Value::str(title), Value::int(2001)]);
    let live = dataset.task.database.relation(imdb).unwrap().tuples()[0].clone();
    let ghost = movie(990_101, "Ghost Title: Inserted And Deleted");
    let early = movie(990_102, "Early Title: Deleted Later");
    let kept = movie(990_103, "Kept Title: Survives The Transaction");
    let tx = dlearn::relstore::DeltaTx::new()
        .insert(imdb, ghost.clone())
        .delete(imdb, ghost.clone())
        .insert(imdb, live.clone())
        .insert(omdb, early.clone())
        .insert(omdb, kept.clone())
        .delete(omdb, early.clone());
    let report = engine.apply_delta(&tx).expect("apply_delta");
    let mut task = dataset.task.clone();
    task.database.apply_delta(&tx).expect("mirror apply");
    let copies = |rel: RelId, t: &Tuple| {
        let tuples = task.database.relation(rel).unwrap().tuples();
        tuples.iter().filter(|x| *x == t).count()
    };
    let counts = [(imdb, &ghost), (imdb, &live), (omdb, &early), (omdb, &kept)];
    assert_eq!(counts.map(|(rel, t)| copies(rel, t)), [0, 2, 0, 1]);
    let g = report.grounding;
    assert!(
        g.positives_reground + g.negatives_reground > 0,
        "no example re-ground"
    );
    let fresh = Engine::prepare(task, config(7, 1)).expect("fresh prepare");
    assert_sessions_equal(&engine, &fresh, "in-transaction semantics");
}
