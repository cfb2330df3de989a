//! The three closed-loop workloads.
//!
//! Every workload first sets a session up several times — `Engine::prepare`
//! → `Engine::learn` → `Engine::predictor` → a held-out
//! `Predictor::predict_batch` — and then runs its own closed loop of
//! requests for the measured seconds:
//!
//! * `movies-learn` keeps repeating the set-up itself on the dirtiest movie
//!   data (three MDs, CFD violations); its requests are movies drawn
//!   uniformly and served one at a time by each freshly learned predictor.
//!   Expansion dominates grounding here; the cache, coalescer and delta
//!   layers idle.
//! * `segments-serve` learns a TILDE tree on clean data once and then serves
//!   Zipf-drawn accounts from two callers through a `Coalescer` in front of
//!   a `PredictorService` whose cache is smaller than the working set;
//!   grounding is cheap and latency is the coalescer's linger plus misses.
//! * `movies-stream` learns once on one-MD movie data and then commits a
//!   stream of insert/delete transactions, each followed by a 16-tuple read;
//!   its requests are commits, timed until the new epoch serves.
//!
//! The dataset and split are fixed per workload (see [`crate::inputs`]);
//! the run's seed draws the traffic. Every thread count is set explicitly
//! (0 would resolve to the host's cores), and no workload uses more than two
//! load-generating threads.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn::core::{
    CoalesceConfig, Coalescer, DeltaReport, DlearnError, Engine, Learned, LearnerConfig, Predictor,
    PredictorService, ServeResult, ServiceConfig, Strategy,
};
use dlearn::datagen::{MovieConfig, SegmentConfig};
use dlearn::eval::metrics::Confusion;
use dlearn::relstore::{DeltaTx, Interner, Tuple};

use crate::inputs::{
    definition_digest, id_tuples, Digest, Inputs, MovieStream, ZipfKeys, DATA_SEED,
};
use crate::layers::{replay_coverage, replay_prepare, timed};
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, trimmed_mean};
use crate::trace::Tracer;

/// Threads for every parallel stage of the learner on the movie workloads,
/// and for the `movies-stream` service.
const LEARNER_THREADS: usize = 2;
/// Closed-loop requests a run completes at least, so that p90 has ten
/// samples beyond it.
const MIN_REQUESTS: usize = 100;
/// Set-up cycles `movies-learn` runs at least (`setup_s` is the median and
/// `learn_s` the trimmed mean over a run's cycles).
const MIN_CYCLES: u64 = 5;
/// Share of a run's learns dropped from each end before `learn_s` averages
/// the rest.
const LEARN_TRIM: f64 = 0.1;
/// The serve and stream workloads cut their seconds into this many slices;
/// each slice repeats the set-up and then continues the closed loop, so
/// both sample the whole run and a burst of CPU contention on the host
/// skews a few samples of each rather than all samples of one.
const SLICES: u32 = 10;
/// Share of each `segments-serve` slice spent repeating the set-up. Its
/// millisecond set-ups and learns switch between the host's fast and slow
/// modes within seconds, so a run's figures wander with the share of fast
/// samples it happened to draw; half the run draws twice the samples of a
/// quarter. Its serve figures need far less: the linger sets them.
const SERVE_SETUP_SHARE: f64 = 0.5;
/// Share of each `movies-stream` slice spent repeating the set-up; the
/// rest commits, and its request figures need the commits.
const STREAM_SETUP_SHARE: f64 = 0.25;
/// Rounds of the two `segments-serve` callers a run completes at least;
/// the service replay replays exactly these rounds.
const SERVE_ROUNDS: usize = 500;
/// Commits of `movies-stream` a run completes at least; the count metrics
/// of the stream layers are read over exactly these commits.
const STREAM_COMMITS: usize = MIN_REQUESTS;
/// Movies `movies-learn` serves after each learn.
const REQUESTS_PER_CYCLE: usize = 100;
/// Existing movies drawn into each post-commit read.
const READ_DRAWS: usize = 15;
/// IMDB id of the first movie the stream inserts (clear of the generated
/// ids and of their OMDB ids).
const FIRST_STREAM_ID: i64 = 10_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated set-up and one-at-a-time serving on three-MD movies.
    MoviesLearn,
    /// Coalesced, cached serving of a TILDE model on customer segments.
    SegmentsServe,
    /// Commits and reads on one-MD movies.
    MoviesStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::MoviesLearn,
        Workload::SegmentsServe,
        Workload::MoviesStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MoviesLearn => "movies-learn",
            Workload::SegmentsServe => "segments-serve",
            Workload::MoviesStream => "movies-stream",
        }
    }

    /// The workload with a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the closed loop runs.
    pub seconds: f64,
    /// Record spans and replay internal layers (per-layer metrics).
    pub trace: bool,
}

/// What a run measured and checked.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Fallible calls made.
    pub attempted: u64,
    /// Calls that returned a typed error.
    pub failed: u64,
    /// End-to-end metrics, and with tracing the per-layer metrics.
    pub metrics: Metrics,
    /// Report lines: digests, check failures, named views.
    pub notes: Vec<String>,
    /// The run's spans (empty without tracing).
    pub tracer: Tracer,
}

/// Run a workload. `Err` means the session could not be set up at all.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut run = Run::new(opts);
    match opts.workload {
        Workload::MoviesLearn => movies_learn(&mut run)?,
        Workload::SegmentsServe => segments_serve(&mut run)?,
        Workload::MoviesStream => movies_stream(&mut run)?,
    }
    run.finish()
}

/// The learner configuration of the workloads: `LearnerConfig::fast()`
/// with every thread count pinned to `threads`.
fn learner_config(threads: usize) -> LearnerConfig {
    LearnerConfig {
        coverage_threads: threads,
        generalization_threads: threads,
        index_threads: threads,
        ..LearnerConfig::fast()
    }
}

/// A session set up and learned once.
struct Session {
    engine: Engine,
    learned: Learned,
    predictor: Predictor,
}

/// Accumulated state of one run.
struct Run<'a> {
    opts: &'a Options,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    /// Output checks that failed.
    mismatches: usize,
    replay_mismatches: Vec<String>,
    notes: Vec<String>,
    /// Set-up cycles run so far; the request id of the next.
    cycles: u64,
    /// Thread count of every parallel learner stage.
    learner_threads: usize,
    /// Digest of the seeded traffic a run of any length sends first.
    traffic: Digest,
    /// Raw samples by metric name (per-layer names, `setup_s`, `learn_s`).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Closed-loop request latencies, in ms.
    requests: Vec<f64>,
    /// Completed requests per second of closed-loop time.
    request_rate: f64,
    /// Named views of the workload's own figures, printed as notes.
    views: Vec<(&'static str, f64, &'static str, usize)>,
    definition: Option<u64>,
    heldout: Option<Vec<bool>>,
    f1: f64,
    positive_clauses: Vec<dlearn::logic::Clause>,
}

impl<'a> Run<'a> {
    fn new(opts: &'a Options) -> Run<'a> {
        Run {
            opts,
            tracer: Tracer::new(opts.trace),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            replay_mismatches: Vec::new(),
            notes: Vec::new(),
            cycles: 0,
            learner_threads: LEARNER_THREADS,
            traffic: Digest::new(),
            samples: BTreeMap::new(),
            requests: Vec::new(),
            request_rate: 0.0,
            views: Vec::new(),
            definition: None,
            heldout: None,
            f1: 0.0,
            positive_clauses: Vec::new(),
        }
    }

    fn seconds(&self) -> Duration {
        Duration::from_secs_f64(self.opts.seconds)
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Count a call; keep its value, or count its typed error.
    fn call<T>(&mut self, what: &str, result: Result<T, DlearnError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    self.notes.push(format!("{what} failed: {e}"));
                }
                None
            }
        }
    }

    /// A call the run cannot continue without.
    fn required<T>(&mut self, what: &str, result: Result<T, DlearnError>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| format!("{what} failed: {e}"))
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.mismatches <= 5 {
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    fn note_inputs(&mut self, inputs: &Inputs) {
        self.notes.push(format!(
            "dataset: {} | train {}+/{}- held-out {}+/{}- | data digest {:016x}",
            inputs.dataset.name,
            inputs.fold.train.positives.len(),
            inputs.fold.train.negatives.len(),
            inputs.fold.test_positives.len(),
            inputs.fold.test_negatives.len(),
            inputs.digest()
        ));
    }

    /// `Engine::prepare` on the training split; with tracing, replay its
    /// stages.
    fn prepare(&mut self, inputs: &Inputs, rep: u64) -> Result<Engine, String> {
        let (task, config) = (
            inputs.fold.train.clone(),
            learner_config(self.learner_threads),
        );
        let (engine, ms) = timed(&self.tracer, "engine.prepare", None, rep, || {
            Engine::prepare(task, config)
        });
        let engine = self.required("Engine::prepare", engine)?;
        self.push("setup_s", ms / 1e3);
        if self.tracer.enabled() {
            let replay = replay_prepare(&engine, &self.tracer, rep);
            self.push("learner.augment_ms", replay.augment_ms);
            self.push("bottom.walk_ms", replay.walk_ms);
            self.push("bottom.literals", replay.literals as f64);
            self.push("bottom.probes", replay.probes as f64);
            self.push("expand.ms", replay.expand_ms);
            self.push(
                "expand.repaired",
                replay.repaired as f64 / replay.clauses.max(1) as f64,
            );
            self.push("clause.ground_ms", replay.ground_ms);
            if !engine.catalog().is_empty() {
                self.push("md_index.build_ms", replay.md_build_ms);
                self.push("md_index.pairs", replay.pairs as f64);
            }
            self.replay_mismatches.extend(replay.mismatches);
            self.positive_clauses = replay.positive_clauses;
        }
        Ok(engine)
    }

    /// Learn, bind and predict the held-out split; check the definition and
    /// the verdicts against the run's first repetition.
    fn learn(
        &mut self,
        inputs: &Inputs,
        engine: Engine,
        strategy: Strategy,
        rep: u64,
    ) -> Result<Session, String> {
        let (learned, ms) = timed(&self.tracer, "engine.learn", None, rep, || {
            engine.learn(strategy)
        });
        let learned = self.required("Engine::learn", learned)?;
        self.push("learn_s", ms / 1e3);
        let digest = definition_digest(learned.definition());
        match self.definition {
            None => {
                self.definition = Some(digest);
                self.notes.push(format!(
                    "learned: {} clause(s), definition digest {digest:016x}",
                    learned.clauses().len()
                ));
            }
            Some(first) if first != digest => self.mismatch(format!(
                "repetition {rep} learned definition {digest:016x}, the first learned {first:016x}"
            )),
            Some(_) => {}
        }

        let (predictor, ms) = timed(&self.tracer, "engine.bind", None, rep, || {
            engine.predictor(&learned)
        });
        let predictor = self.required("Engine::predictor", predictor)?;
        self.push("engine.bind_ms", ms);
        let heldout = inputs.heldout();
        let (verdicts, ms) = timed(&self.tracer, "engine.predict_batch", None, rep, || {
            predictor.predict_batch(&heldout)
        });
        let verdicts = self.required("Predictor::predict_batch", verdicts)?;
        self.push("engine.predict_batch_ms", ms);
        match &self.heldout {
            None => {
                let split = inputs.fold.test_positives.len();
                self.f1 = Confusion::from_predictions(&verdicts[..split], &verdicts[split..]).f1();
                self.heldout = Some(verdicts);
            }
            Some(first) if *first != verdicts => self.mismatch(format!(
                "repetition {rep} changed held-out verdicts of an identical definition"
            )),
            Some(_) => {}
        }

        if self.tracer.enabled() {
            let replay =
                replay_coverage(&engine, &learned, &self.positive_clauses, &self.tracer, rep);
            self.push("coverage.prepare_us", replay.prepare_us);
            self.push("coverage.counts_us", replay.counts_us);
            self.push("learn.clauses", learned.clauses().len() as f64);
            self.push(
                "learn.bottom_clauses",
                learned.bottom_clauses_built() as f64,
            );
        }
        Ok(Session {
            engine,
            learned,
            predictor,
        })
    }

    /// Repeat the whole set-up cycle for `budget`, at least once; returns
    /// the last session.
    fn set_up(
        &mut self,
        inputs: &Inputs,
        strategy: Strategy,
        budget: Duration,
    ) -> Result<Session, String> {
        let started = Instant::now();
        loop {
            let rep = self.cycles;
            self.cycles += 1;
            let engine = self.prepare(inputs, rep)?;
            let session = self.learn(inputs, engine, strategy, rep)?;
            if started.elapsed() >= budget {
                return Ok(session);
            }
        }
    }

    /// The set-up and closed-loop budgets of each of a run's [`SLICES`],
    /// `set_up_share` of each slice going to the set-up.
    fn slice_budgets(&self, set_up_share: f64) -> (Duration, Duration) {
        let slice = self.seconds() / SLICES;
        let set_up = slice.mul_f64(set_up_share);
        (set_up, slice - set_up)
    }

    fn view(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.views.push((name, value, unit, samples));
    }

    /// Reduce the samples to the declared metrics.
    fn finish(mut self) -> Result<Outcome, String> {
        self.notes.push(format!(
            "traffic: seed {} | traffic digest {:016x}",
            self.opts.seed,
            self.traffic.finish()
        ));
        let mut metrics = Metrics::default();
        let reps = |name: &str| self.samples.get(name).map_or(&[][..], |v| &v[..]);
        metrics.set("setup_s", median(reps("setup_s")), reps("setup_s").len());
        // On a shared host, millisecond learns run in a fast and a slow mode
        // (about 8 and 13 ms on segments-serve) as the neighbors come and
        // go. A run's median sits in whichever mode holds more than half of
        // its samples, so it jumps between the modes from run to run; a mean
        // moves only in proportion to the share of fast samples, and
        // trimming the tails keeps the rare stalls of a learn out of it.
        metrics.set(
            "learn_s",
            trimmed_mean(reps("learn_s"), LEARN_TRIM),
            reps("learn_s").len(),
        );
        let heldout = self.heldout.as_ref().map_or(0, Vec::len);
        metrics.set("heldout_f1", self.f1, heldout);
        let n = self.requests.len();
        let p50 = percentile(&self.requests, 50.0).map_err(|e| e.to_string())?;
        let p90 = percentile(&self.requests, 90.0).map_err(|e| e.to_string())?;
        metrics.set("request_p50_ms", p50, n);
        metrics.set("request_p90_ms", p90, n);
        metrics.set("requests_per_s", self.request_rate, n);
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.set("peak_rss_mb", rss, 1);

        if self.tracer.enabled() {
            let verified = self.replay_mismatches.is_empty();
            self.push("replay.verified", if verified { 1.0 } else { 0.0 });
            for d in PER_LAYER {
                match self.samples.get(d.name) {
                    Some(v) => metrics.set(d.name, median(v), v.len()),
                    None => metrics.set(d.name, 0.0, 0),
                }
            }
            if !verified {
                self.notes.push(format!(
                    "per-layer numbers UNVERIFIED: {}",
                    self.replay_mismatches[0]
                ));
            }
        }

        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let (attempted, correct) = (self.attempted as usize, self.mismatches == 0);
        self.view("failed_frac", failed_frac, "ratio", attempted);
        for &(name, value, unit, samples) in &self.views {
            self.notes
                .push(format!("  {name:<28} {value:>14.6} {unit:<10} n={samples}"));
        }
        debug_assert!(END_TO_END.iter().all(|d| metrics.get(d.name).is_some()));
        Ok(Outcome {
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes: self.notes,
            tracer: self.tracer,
        })
    }
}

/// Process peak resident set, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `movies-learn`: repeat the whole set-up, and after each learn serve
/// movies drawn uniformly from the target's domain, one at a time, from the
/// freshly learned predictor.
fn movies_learn(run: &mut Run<'_>) -> Result<(), String> {
    let inputs = Inputs::movies(DATA_SEED, true);
    run.note_inputs(&inputs);
    let movies = id_tuples(MovieConfig::paper().n_movies);
    let mut rng = StdRng::seed_from_u64(run.opts.seed ^ 0x6c65_6172);
    let mut reference = None;
    let started = Instant::now();
    let mut serving_ms = 0.0;
    loop {
        let session = run.set_up(&inputs, Strategy::DLearn, Duration::ZERO)?;
        let rep = run.cycles - 1;
        // Every repetition learns the identical definition (checked), so
        // one cache-off reference covers them all.
        if reference.is_none() {
            reference = Some(reference_verdicts(run, &session, &movies)?);
        }
        let expected = reference.as_ref().expect("set after the first learn");
        for _ in 0..REQUESTS_PER_CYCLE {
            let example = &movies[rng.gen_range(0..movies.len())];
            if rep == 0 {
                run.traffic.write(&example.to_string());
            }
            let (verdict, ms) = timed(&run.tracer, "engine.predict", None, rep, || {
                session.predictor.predict(example)
            });
            if let Some(covered) = run.call("Predictor::predict", verdict) {
                serving_ms += ms;
                run.requests.push(ms);
                if covered != expected[example] {
                    run.mismatch(format!(
                        "Predictor::predict({example}) = {covered}, the cache-off batch says {}",
                        expected[example]
                    ));
                }
            }
        }
        if run.cycles >= MIN_CYCLES
            && run.requests.len() >= MIN_REQUESTS
            && started.elapsed() >= run.seconds()
        {
            break;
        }
    }
    run.request_rate = run.requests.len() as f64 / (serving_ms / 1e3);
    Ok(())
}

/// One request a `segments-serve` caller submitted.
struct Submitted {
    example: Tuple,
    result: ServeResult,
    ms: f64,
}

/// `segments-serve`: two closed-loop callers submit Zipf-drawn accounts
/// through a coalescer in front of a small-cache service.
fn segments_serve(run: &mut Run<'_>) -> Result<(), String> {
    let seed = run.opts.seed;
    let inputs = Inputs::segments(DATA_SEED);
    run.note_inputs(&inputs);
    // A clean 168-example task grounds in a few milliseconds: a second
    // learner thread only adds fork-join cost, and on a two-core host it
    // competes with the two callers and the batcher.
    run.learner_threads = 1;
    let (set_up_budget, serve_budget) = run.slice_budgets(SERVE_SETUP_SHARE);
    let session = run.set_up(&inputs, Strategy::Tilde, set_up_budget)?;
    let accounts = id_tuples(SegmentConfig::paper().n_accounts);
    let reference = reference_verdicts(run, &session, &accounts)?;

    let service_config = ServiceConfig {
        cache_capacity: 128,
        worker_threads: 1,
        ..ServiceConfig::default()
    };
    let coalescer = Coalescer::new(
        Arc::new(PredictorService::new(
            session.predictor,
            service_config.clone(),
        )),
        CoalesceConfig::default(),
    );
    let keys = ZipfKeys::new(accounts, seed ^ 0x6163_6374);
    let mut rngs = [0, 1].map(|caller| StdRng::seed_from_u64(seed ^ (0xca11_e500 + caller)));
    let mut logs: [Vec<Submitted>; 2] = [Vec::new(), Vec::new()];
    let mut wall = Duration::ZERO;
    for slice in 0..SLICES {
        if slice > 0 {
            run.set_up(&inputs, Strategy::Tilde, set_up_budget)?;
        }
        let min_rounds = if slice + 1 == SLICES { SERVE_ROUNDS } else { 0 };
        wall += serve(
            &coalescer,
            &keys,
            &mut rngs,
            &mut logs,
            serve_budget,
            min_rounds,
            &run.tracer,
        );
    }
    let coalesced = coalescer.metrics();
    drop(coalescer);
    for round in 0..SERVE_ROUNDS {
        for log in &logs {
            run.traffic.write(&log[round].example.to_string());
        }
    }

    let mut submit_ms = Vec::new();
    let mut degraded = 0usize;
    for s in logs.iter().flatten() {
        if let Some(v) = run.call("Coalescer::submit", s.result.clone()) {
            submit_ms.push(s.ms);
            degraded += usize::from(v.is_degraded());
            if v.covered != reference[&s.example] || v.epoch != 1 {
                run.mismatch(format!(
                    "served {} as {} at epoch {}, the cache-off reference says {}",
                    s.example, v.covered, v.epoch, reference[&s.example]
                ));
            }
        }
    }
    run.requests.extend(&submit_ms);
    run.request_rate = submit_ms.len() as f64 / wall.as_secs_f64();
    let n = submit_ms.len();
    let serve_p50 = percentile(&submit_ms, 50.0).map_err(|e| e.to_string())?;
    run.view("serve_p50_us", serve_p50 * 1e3, "us", n);
    if let Ok(p99) = percentile(&submit_ms, 99.0) {
        run.view("serve_p99_us", p99 * 1e3, "us", n);
    }
    run.view("serve_rps", run.request_rate, "1/s", n);
    run.view("serve_degraded", degraded as f64, "count", n);

    if run.tracer.enabled() {
        let batches = coalesced.batches.max(1) as f64;
        run.push(
            "coalesce.batch_mean",
            coalesced.coalesced_tuples as f64 / batches,
        );
        run.push(
            "coalesce.timer_drain_frac",
            coalesced.timer_drains as f64 / batches,
        );
        // Replay the first rounds directly on a fresh service with the same
        // configuration, one two-tuple batch per round in caller order: the
        // service's own cost, and cache counters that depend on the seed
        // alone.
        let predictor = run.required(
            "Engine::predictor",
            session.engine.predictor(&session.learned),
        )?;
        let replay = PredictorService::new(predictor, service_config);
        let mut batch_us = Vec::with_capacity(SERVE_ROUNDS);
        let mut degraded = 0usize;
        for round in 0..SERVE_ROUNDS {
            let batch: Vec<Tuple> = logs.iter().map(|l| l[round].example.clone()).collect();
            let (results, ms) = timed(
                &run.tracer,
                "service.predict_batch",
                None,
                round as u64,
                || replay.predict_batch(&batch),
            );
            batch_us.push(ms * 1e3);
            for (example, result) in batch.iter().zip(results) {
                if let Some(v) = run.call("PredictorService::predict_batch", result) {
                    degraded += usize::from(v.is_degraded());
                    if v.covered != reference[example] {
                        run.mismatch(format!("replayed {example} disagrees with the reference"));
                    }
                }
            }
        }
        push_service_counters(run, &replay, degraded);
        for us in &batch_us {
            run.push("service.batch_us", *us);
        }
        let wait = median(&submit_ms) * 1e3 - median(&batch_us);
        run.push("coalesce.wait_us", wait);
    }
    Ok(())
}

/// Two closed-loop callers submit Zipf-drawn accounts through the
/// coalescer for `budget`, and until each caller's log holds `min_rounds`
/// requests; returns the wall time.
///
/// Callers start together and move in rounds: each submits one request,
/// and both check the stop flag only after both verdicts of the round
/// arrived, so the loop ends on a whole round and every batch holds both
/// requests unless a caller is descheduled for longer than the linger.
fn serve(
    coalescer: &Coalescer,
    keys: &ZipfKeys,
    rngs: &mut [StdRng; 2],
    logs: &mut [Vec<Submitted>; 2],
    budget: Duration,
    min_rounds: usize,
    tracer: &Tracer,
) -> Duration {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (caller, (rng, log)) in rngs.iter_mut().zip(logs.iter_mut()).enumerate() {
            let (stop, barrier) = (&stop, &barrier);
            scope.spawn(move || {
                barrier.wait();
                loop {
                    let example = keys.draw(rng);
                    let request = (2 * log.len() + caller) as u64;
                    let (result, ms) = timed(tracer, "coalesce.submit", None, request, || {
                        coalescer.submit(example.clone())
                    });
                    log.push(Submitted {
                        example,
                        result,
                        ms,
                    });
                    if caller == 0 && log.len() >= min_rounds && started.elapsed() >= budget {
                        stop.store(true, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        }
    });
    started.elapsed()
}

/// Cache-off verdicts of the session's model for every example, from a
/// second predictor bound to the same session.
fn reference_verdicts(
    run: &mut Run<'_>,
    session: &Session,
    examples: &[Tuple],
) -> Result<HashMap<Tuple, bool>, String> {
    let predictor = run.required(
        "Engine::predictor",
        session.engine.predictor(&session.learned),
    )?;
    let verdicts = run.required(
        "Predictor::predict_batch",
        predictor.predict_batch(examples),
    )?;
    Ok(examples.iter().cloned().zip(verdicts).collect())
}

/// The service layer's cache figures from a service's counters.
fn push_service_counters(run: &mut Run<'_>, service: &PredictorService, degraded: usize) {
    let m = service.metrics();
    let lookups = (m.cache_hits + m.cache_misses).max(1) as f64;
    let evictions = m.cache_evictions + m.delta_evictions + m.epoch_evictions;
    run.push("service.hit_ratio", m.cache_hits as f64 / lookups);
    run.push(
        "service.evictions_per_1k",
        evictions as f64 * 1000.0 / m.served.max(1) as f64,
    );
    run.push("service.degraded", degraded as f64);
}

/// What one commit reported, evicted and took (times in ms).
struct Commit {
    report: DeltaReport,
    evicted: u64,
    fresh_ms: f64,
    apply_ms: f64,
    bind_ms: f64,
    publish_ms: f64,
}

/// `Engine::apply_delta` → `Engine::predictor` → `PredictorService::apply_delta`.
fn commit(
    engine: &mut Engine,
    learned: &Learned,
    service: &PredictorService,
    tx: &DeltaTx,
    tracer: &Tracer,
    request: u64,
) -> Result<Commit, DlearnError> {
    tracer.span("commit", None, request, |root| {
        let begun = Instant::now();
        let (report, apply_ms) = timed(tracer, "delta.apply", root, request, || {
            engine.apply_delta(tx)
        });
        let report = report?;
        let (predictor, bind_ms) = timed(tracer, "engine.bind", root, request, || {
            engine.predictor(learned)
        });
        let (evicted, publish_ms) = timed(tracer, "swap.publish", root, request, || {
            service.apply_delta(predictor?, &report)
        });
        let evicted = evicted?;
        Ok(Commit {
            report,
            evicted,
            fresh_ms: begun.elapsed().as_secs_f64() * 1e3,
            apply_ms,
            bind_ms,
            publish_ms,
        })
    })
}

/// `movies-stream`: commit the transaction stream, each commit followed by
/// a read of the new movie and Zipf-drawn existing movies.
fn movies_stream(run: &mut Run<'_>) -> Result<(), String> {
    let seed = run.opts.seed;
    let inputs = Inputs::movies(DATA_SEED, false);
    run.note_inputs(&inputs);
    let (set_up_budget, stream_budget) = run.slice_budgets(STREAM_SETUP_SHARE);
    let session = run.set_up(&inputs, Strategy::DLearn, set_up_budget)?;
    let task = session.engine.task();
    let examples = (task.positives.len() + task.negatives.len()) as f64;
    let service = PredictorService::new(
        session.predictor,
        ServiceConfig {
            worker_threads: LEARNER_THREADS,
            ..ServiceConfig::default()
        },
    );
    let mut stream = Stream {
        engine: session.engine,
        learned: session.learned,
        service,
        keys: ZipfKeys::new(id_tuples(MovieConfig::paper().n_movies), seed ^ 0x7265_6164),
        rng: StdRng::seed_from_u64(seed ^ 0x6472_6177),
        txs: MovieStream::new(seed, FIRST_STREAM_ID),
        examples,
        interned_before: Interner::len(),
        read_ms: Vec::new(),
        degraded: 0,
        commits: 0,
    };
    for slice in 0..SLICES {
        if slice > 0 {
            run.set_up(&inputs, Strategy::DLearn, set_up_budget)?;
        }
        let min_commits = if slice + 1 == SLICES {
            STREAM_COMMITS
        } else {
            0
        };
        let started = Instant::now();
        while stream.commits < min_commits || started.elapsed() < stream_budget {
            stream.step(run);
        }
    }
    run.request_rate = run.requests.len() as f64 / (run.requests.iter().sum::<f64>() / 1e3);
    let fresh_ms = run.requests.clone();
    for (name, values, p) in [
        ("fresh_p50_ms", &fresh_ms, 50.0),
        ("fresh_p90_ms", &fresh_ms, 90.0),
        ("read_p50_ms", &stream.read_ms, 50.0),
        ("read_p90_ms", &stream.read_ms, 90.0),
    ] {
        let v = percentile(values, p).map_err(|e| e.to_string())?;
        run.view(name, v, "ms", values.len());
    }
    Ok(())
}

/// The live state of the `movies-stream` closed loop.
struct Stream {
    engine: Engine,
    learned: Learned,
    service: PredictorService,
    keys: ZipfKeys,
    rng: StdRng,
    txs: MovieStream,
    /// Training examples, the base of `delta.reground_frac`.
    examples: f64,
    interned_before: usize,
    read_ms: Vec<f64>,
    /// Degraded read verdicts over the first [`STREAM_COMMITS`] commits.
    degraded: usize,
    /// Transactions attempted so far.
    commits: usize,
}

impl Stream {
    /// Commit the next transaction, then read the new movie and
    /// [`READ_DRAWS`] existing ones and check every verdict.
    fn step(&mut self, run: &mut Run<'_>) {
        let index = self.commits;
        self.commits += 1;
        let request = index as u64;
        let prefix = index < STREAM_COMMITS;
        let (tx, movie) = self.txs.next_tx();
        if run.tracer.enabled() {
            // The store update inside the commit, replayed on the
            // pre-commit database.
            let ((), ms) = timed(&run.tracer, "relstore.apply", None, request, || {
                let mut db = self.engine.task().database.clone();
                black_box(db.apply_delta(&tx).is_ok());
            });
            run.push("relstore.apply_ms", ms);
        }
        let committed = commit(
            &mut self.engine,
            &self.learned,
            &self.service,
            &tx,
            &run.tracer,
            request,
        );
        // A commit is three calls: apply, bind and publish.
        run.attempted += 2;
        let Some(c) = run.call("commit", committed) else {
            return;
        };
        run.requests.push(c.fresh_ms);
        run.push("delta.apply_ms", c.apply_ms);
        run.push("engine.bind_ms", c.bind_ms);
        run.push("swap.publish_ms", c.publish_ms);
        if prefix {
            let g = &c.report.grounding;
            let reground = g.positives_reground + g.negatives_reground;
            run.push("delta.reground_frac", reground as f64 / self.examples);
            run.push("delta.rescored_lefts", c.report.rescored_lefts as f64);
            run.push("delta.patched_entries", c.report.patched_entries as f64);
            run.push("swap.delta_evictions", c.evicted as f64);
        }

        let mut batch = vec![movie];
        batch.extend((0..READ_DRAWS).map(|_| self.keys.draw(&mut self.rng)));
        if prefix {
            for op in tx.ops() {
                run.traffic.write(&format!("{op:?}"));
            }
            for example in &batch {
                run.traffic.write(&example.to_string());
            }
        }
        let (results, ms) = timed(&run.tracer, "service.predict_batch", None, request, || {
            self.service.predict_batch(&batch)
        });
        self.read_ms.push(ms);
        if run.tracer.enabled() {
            run.push("service.batch_us", ms * 1e3);
        }
        let reference = run
            .call("Engine::predictor", self.engine.predictor(&self.learned))
            .and_then(|p| run.call("Predictor::predict_batch", p.predict_batch(&batch)));
        let epoch = self.service.epoch();
        for (i, result) in results.into_iter().enumerate() {
            let Some(v) = run.call("PredictorService::predict_batch", result) else {
                continue;
            };
            if prefix {
                self.degraded += usize::from(v.is_degraded());
            }
            match &reference {
                Some(r) if r[i] == v.covered && v.epoch == epoch => {}
                _ => run.mismatch(format!(
                    "read {} after commit {index} served {} at epoch {} (serving epoch {epoch}), \
                     the cache-off reference says {:?}",
                    batch[i],
                    v.covered,
                    v.epoch,
                    reference.as_ref().map(|r| r[i])
                )),
            }
        }
        if index + 1 == STREAM_COMMITS && run.tracer.enabled() {
            push_service_counters(run, &self.service, self.degraded);
            let interned = Interner::len() - self.interned_before;
            run.push(
                "relstore.interned_per_tx",
                interned as f64 / STREAM_COMMITS as f64,
            );
        }
    }
}
