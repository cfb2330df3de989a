//! Seeded workload inputs: datasets, train/held-out splits, request draws
//! and the transaction stream, plus the digests that show two runs of one
//! seed saw the same inputs.
//!
//! A workload's dataset and split are part of its definition and come from
//! [`DATA_SEED`]; the run's seed draws its traffic (which tuples are served,
//! by whom, and what the stream commits). Drawing a fresh dataset or split
//! per seed changes what gets learned: over five seeds of three-MD movies,
//! `learn_s` ranged from 0.27 s to 2.7 s and held-out F1 from 0.65 to 0.76,
//! so no regression bound could hold across seeds.
//!
//! `dlearn_datagen::inject_cfd_violations` draws replacement values from
//! `Relation::distinct_values`, whose order comes from a randomly seeded
//! hash map, so one seed yields a different database in every process. The
//! datasets here are therefore generated clean (violation rate 0) and the
//! violations injected by [`inject_cfd_violations`] below, which sorts each
//! column's domain before drawing from it.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dlearn::constraints::Cfd;
use dlearn::datagen::{
    dirt, generate_movie_dataset, generate_segment_dataset, vocab, Dataset, Fold, MovieConfig,
    SegmentConfig,
};
use dlearn::logic::Definition;
use dlearn::relstore::{tuple, Database, DeltaTx, RelId, Tuple, Value};

/// Seed of every workload's dataset, violations and split.
pub const DATA_SEED: u64 = 42;
/// Share of the examples kept for training; the rest is held out.
const TRAIN_FRACTION: f64 = 0.7;
/// CFD-violation rate of the movie workloads.
const MOVIE_VIOLATION_RATE: f64 = 0.1;
/// Zipf exponent of every request draw.
const ZIPF_EXPONENT: f64 = 1.0;
/// A stream transaction deletes the movie inserted this many transactions
/// earlier, so the database size stays bounded.
const STREAM_WINDOW: usize = 8;

/// A dataset split for one run.
pub struct Inputs {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Its seeded 70/30 split.
    pub fold: Fold,
}

impl Inputs {
    /// IMDB+OMDB at paper scale with CFD violations injected deterministically.
    pub fn movies(seed: u64, three_mds: bool) -> Inputs {
        let mut config = MovieConfig::paper().with_violation_rate(0.0);
        if three_mds {
            config = config.with_three_mds();
        }
        let mut dataset = generate_movie_dataset(&config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee00);
        let cfds = dataset.task.cfds.clone();
        inject_cfd_violations(
            &mut dataset.task.database,
            &cfds,
            MOVIE_VIOLATION_RATE,
            &mut rng,
        );
        Inputs::split(dataset, seed)
    }

    /// Customer segments at paper scale (clean: no MDs, no CFDs).
    pub fn segments(seed: u64) -> Inputs {
        Inputs::split(
            generate_segment_dataset(&SegmentConfig::paper(), seed),
            seed,
        )
    }

    fn split(dataset: Dataset, seed: u64) -> Inputs {
        let fold = dataset.train_test_split(TRAIN_FRACTION, seed);
        Inputs { dataset, fold }
    }

    /// Digest of the database, the constraints and the split's four example
    /// lists.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.database(&self.fold.train.database);
        for md in &self.fold.train.mds {
            d.write(&format!("{md:?}"));
        }
        for cfd in &self.fold.train.cfds {
            d.write(&format!("{cfd:?}"));
        }
        for (tag, examples) in [
            ("train+", &self.fold.train.positives),
            ("train-", &self.fold.train.negatives),
            ("test+", &self.fold.test_positives),
            ("test-", &self.fold.test_negatives),
        ] {
            d.write(tag);
            for e in examples {
                d.write(&e.to_string());
            }
        }
        d.finish()
    }

    /// The held-out examples, positives first.
    pub fn heldout(&self) -> Vec<Tuple> {
        self.fold
            .test_positives
            .iter()
            .chain(&self.fold.test_negatives)
            .cloned()
            .collect()
    }
}

/// Inject CFD violations so that roughly `rate` of the tuples of each
/// constrained relation take part in one: duplicate a random tuple and
/// perturb the duplicate's right-hand-side value. The same algorithm as
/// `dlearn_datagen::inject_cfd_violations`, except that replacement values
/// are drawn from the column's domain in sorted order, so the result depends
/// on the seed alone. Returns the number of duplicates inserted.
fn inject_cfd_violations(
    database: &mut Database,
    cfds: &[Cfd],
    rate: f64,
    rng: &mut StdRng,
) -> usize {
    let mut injected = 0;
    for cfd in cfds {
        let Some(relation) = database.relation(cfd.relation) else {
            continue;
        };
        let rhs = cfd.rhs_index(relation);
        let n = relation.len();
        let count = ((rate * n as f64) / 2.0).ceil() as usize;
        let mut domain: Vec<Value> = relation.distinct_values(rhs).into_iter().copied().collect();
        domain.sort_unstable();
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        ids.truncate(count);
        let mut rows = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(t) = relation.tuple(id) else {
                continue;
            };
            let mut dirty = t.clone();
            let current = dirty.value(rhs).copied().unwrap_or(Value::Null);
            dirty.set_value(rhs, perturb(current, &domain, rng));
            rows.push(dirty);
        }
        for row in rows {
            if database.insert(cfd.relation, row).is_ok() {
                injected += 1;
            }
        }
    }
    injected
}

/// A value other than `current`, preferring one already in the domain.
fn perturb(current: Value, domain: &[Value], rng: &mut StdRng) -> Value {
    let alternatives: Vec<Value> = domain.iter().copied().filter(|v| *v != current).collect();
    if !alternatives.is_empty() && rng.gen_bool(0.7) {
        return alternatives[rng.gen_range(0..alternatives.len())];
    }
    match current {
        Value::Int(i) => Value::Int(i + rng.gen_range(1..5i64)),
        Value::Str(s) => Value::str(format!("{s} ?")),
        Value::Null => Value::str("unknown"),
    }
}

/// A Zipf(`exponent`) distribution over ranks `0..n`: rank 0 is the most
/// frequent.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Zipf-skewed draws over a fixed key set. Which key is hot is itself
/// seeded, so the hot set is not simply the lowest ids.
#[derive(Debug, Clone)]
pub(crate) struct ZipfKeys {
    zipf: Zipf,
    keys: Vec<Tuple>,
}

impl ZipfKeys {
    /// Skewed draws over `keys`, ranked by a `seed`-shuffled order.
    pub(crate) fn new(mut keys: Vec<Tuple>, seed: u64) -> ZipfKeys {
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        ZipfKeys {
            zipf: Zipf::new(keys.len(), ZIPF_EXPONENT),
            keys,
        }
    }

    /// Draw one key.
    pub(crate) fn draw(&self, rng: &mut StdRng) -> Tuple {
        self.keys[self.zipf.sample(rng)].clone()
    }
}

/// Single-attribute id tuples `0..n`, the example shape of both datasets.
pub(crate) fn id_tuples(n: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|id| tuple(vec![Value::int(id)]))
        .collect()
}

/// The seeded transaction stream of `movies-stream`: each transaction
/// inserts one new movie across both sources and deletes the movie it
/// inserted [`STREAM_WINDOW`] transactions earlier.
pub(crate) struct MovieStream {
    rng: StdRng,
    next: i64,
    live: VecDeque<Vec<(RelId, Tuple)>>,
}

impl MovieStream {
    /// New movies get IMDB ids from `first_id` on; OMDB ids follow the
    /// generator's `100_000 + id` convention.
    pub(crate) fn new(seed: u64, first_id: i64) -> MovieStream {
        MovieStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_5eed),
            next: first_id,
            live: VecDeque::new(),
        }
    }

    /// The next transaction and the example tuple of the movie it inserts.
    pub(crate) fn next_tx(&mut self) -> (DeltaTx, Tuple) {
        let mut tx = DeltaTx::new();
        if self.live.len() == STREAM_WINDOW {
            for (rel, t) in self.live.pop_front().expect("window is full") {
                tx = tx.delete(rel, t);
            }
        }
        let id = self.next;
        self.next += 1;
        let rows = self.movie_rows(id);
        for (rel, t) in &rows {
            tx = tx.insert(*rel, t.clone());
        }
        self.live.push_back(rows);
        (tx, tuple(vec![Value::int(id)]))
    }

    /// One movie's rows, shaped like the generator's: the OMDB title is
    /// decorated and the OMDB cast name perturbed; genre, rating and
    /// country are drawn from the generator's domains.
    fn movie_rows(&mut self, id: i64) -> Vec<(RelId, Tuple)> {
        const GENRES: [&str; 5] = ["drama", "comedy", "thriller", "action", "horror"];
        const RATINGS: [&str; 4] = ["R", "PG-13", "PG", "G"];
        const COUNTRIES: [&str; 6] = ["USA", "UK", "France", "Spain", "Japan", "India"];
        let rng = &mut self.rng;
        let oid = 100_000 + id;
        let title = vocab::movie_title(rng);
        let year = 1950 + rng.gen_range(0..70i64);
        let genre = vocab::pick(rng, &GENRES);
        let rating = vocab::pick(rng, &RATINGS);
        let country = vocab::pick(rng, &COUNTRIES);
        let actor = vocab::person_name(rng);
        let writer = vocab::person_name(rng);
        let omdb_title = dirt::decorate_title(&title, year, rng);
        let omdb_actor = dirt::perturb_name(&actor, rng);
        let (i, o) = (Value::int(id), Value::int(oid));
        [
            ("imdb_movies", vec![i, Value::str(&title), Value::int(year)]),
            ("imdb_mov2genres", vec![i, Value::str(genre)]),
            ("imdb_mov2countries", vec![i, Value::str(country)]),
            ("imdb_mov2cast", vec![i, Value::str(&actor)]),
            ("imdb_mov2writers", vec![i, Value::str(&writer)]),
            (
                "omdb_movies",
                vec![o, Value::str(&omdb_title), Value::int(year)],
            ),
            ("omdb_mov2ratings", vec![o, Value::str(rating)]),
            ("omdb_mov2genres", vec![o, Value::str(genre)]),
            ("omdb_mov2cast", vec![o, Value::str(&omdb_actor)]),
            ("omdb_mov2writers", vec![o, Value::str(&writer)]),
        ]
        .into_iter()
        .map(|(rel, values)| (RelId::intern(rel), tuple(values)))
        .collect()
    }
}

/// Digest of a learned definition's rendering.
pub(crate) fn definition_digest(definition: &Definition) -> u64 {
    let mut d = Digest::new();
    d.write(&definition.to_string());
    d.finish()
}

/// 64-bit FNV-1a over length-delimited strings: stable across processes,
/// platforms and releases, unlike the standard library's hashers.
pub(crate) struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub(crate) fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb one string.
    pub(crate) fn write(&mut self, s: &str) {
        for b in s.bytes().chain((s.len() as u64).to_le_bytes()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorb every relation, in name order, with its tuples in storage
    /// order.
    pub(crate) fn database(&mut self, db: &Database) {
        let mut relations: Vec<_> = db.relations().collect();
        relations.sort_by_key(|r| r.name());
        for r in relations {
            self.write(r.name());
            for (_, t) in r.iter() {
                self.write(&t.to_string());
            }
        }
    }

    /// The digest value.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}
