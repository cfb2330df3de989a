//! Self-tests of the benchmark's own helpers.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dlearn_e2ebench::inputs::{Inputs, Zipf, DATA_SEED};
use dlearn_e2ebench::report::{unit_of, Decl, END_TO_END, PER_LAYER};
use dlearn_e2ebench::stats::{median, percentile, trimmed_mean, MIN_BEYOND};
use dlearn_e2ebench::trace::{layer_times, Span};

#[test]
fn zipf_draws_repeat_for_a_seed_and_are_skewed() {
    let zipf = Zipf::new(480, 1.0);
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..20_000)
            .map(|_| zipf.sample(&mut rng))
            .collect::<Vec<_>>()
    };
    let a = draw(7);
    assert_eq!(a, draw(7), "one seed, two different draw sequences");
    assert_ne!(a, draw(8), "two seeds, one draw sequence");

    let mut counts = vec![0usize; 480];
    for &rank in &a {
        counts[rank] += 1;
    }
    let share =
        |ranks: std::ops::Range<usize>| counts[ranks].iter().sum::<usize>() as f64 / a.len() as f64;
    // Zipf(1) over 480 ranks: rank 0 carries 1/H(480) ≈ 0.148 of the mass,
    // the top 10% of ranks about 0.66, the bottom half about 0.10.
    assert!(
        (share(0..1) - 0.148).abs() < 0.015,
        "rank 0: {}",
        share(0..1)
    );
    assert!(share(0..48) > 0.6, "top decile: {}", share(0..48));
    assert!(share(240..480) < 0.15, "bottom half: {}", share(240..480));
    assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[400]);
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(percentile(&samples(20), 50.0), Ok(10.0));
    assert!(percentile(&samples(19), 50.0).is_err());
    assert_eq!(percentile(&samples(100), 90.0), Ok(90.0));
    let refused = percentile(&samples(99), 90.0).unwrap_err();
    assert_eq!((refused.samples, refused.beyond), (99, 9));
    assert_eq!(percentile(&samples(1000), 99.0), Ok(990.0));
    assert!(percentile(&samples(999), 99.0).is_err());
    assert!(percentile(&[], 50.0).is_err());
    // Order of the input does not matter.
    let mut shuffled = samples(100);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 90.0), Ok(90.0));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn trimmed_mean_drops_the_tails_and_follows_the_mixture() {
    // A tenth of ten samples is one from each end: the stall at 1000 and
    // the lowest value go, whatever the input order.
    let mut samples: Vec<f64> = (1..=9).map(f64::from).chain([1000.0]).collect();
    samples.reverse();
    assert_eq!(trimmed_mean(&samples, 0.1), 5.5);
    assert_eq!(trimmed_mean(&samples, 0.0), 104.5);
    // Fewer samples than one per trimmed share: nothing is dropped.
    assert_eq!(trimmed_mean(&[4.0, 8.0], 0.1), 6.0);
    // Learns in a fast (8) and a slow (13) mode: when a tenth of them
    // change mode across one half, the median jumps by the whole gap and
    // the trimmed mean moves by an eighth of it (the 80 kept samples gain
    // ten fast ones).
    let mixture = |fast: usize| {
        let mut v = vec![8.0; fast];
        v.resize(100, 13.0);
        v
    };
    assert_eq!(median(&mixture(45)), 13.0);
    assert_eq!(median(&mixture(55)), 8.0);
    let (fewer, more) = (
        trimmed_mean(&mixture(45), 0.1),
        trimmed_mean(&mixture(55), 0.1),
    );
    assert!((fewer - 10.8125).abs() < 1e-12, "45% fast: {fewer}");
    assert!((fewer - more - 0.625).abs() < 1e-12, "55% fast: {more}");
}

/// Recorded from a run of this test; a different value means the inputs of
/// every workload changed, and with them every recorded number.
const MOVIES_THREE_MD_SEED_42: u64 = 0x824b_974b_082f_ecde;

#[test]
fn injected_movie_inputs_match_the_recorded_digest() {
    assert_eq!(DATA_SEED, 42);
    let digest = Inputs::movies(DATA_SEED, true).digest();
    assert_eq!(
        digest, MOVIES_THREE_MD_SEED_42,
        "input digest {digest:016x} for movies, three MDs, seed 42"
    );
    assert_eq!(Inputs::movies(DATA_SEED, true).digest(), digest);
    assert_ne!(Inputs::movies(DATA_SEED, false).digest(), digest);
    assert_ne!(Inputs::movies(DATA_SEED + 1, true).digest(), digest);
}

/// `(name, unit)` of every metric in one array of BENCHMARK.json.
fn declared(json: &str, array: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let rest = &line[at..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

#[test]
fn every_printed_metric_is_well_named_and_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let pairs = |decls: &[Decl]| {
        decls
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !d.name.is_empty()
                && d.name.len() <= 64
                && d.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric())
                && d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {:?}",
            d.name
        );
        assert_eq!(unit_of(d.name), Some(d.unit), "{} declared twice", d.name);
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        request: 0,
    };
    let spans = [
        span("root", 0, 100, None),
        span("child", 10, 30, Some(0)),
        span("child", 20, 50, Some(0)),
        span("child", 90, 120, Some(0)),
        span("leaf", 12, 14, Some(1)),
    ];
    let times = layer_times(&spans);
    let ms = |ns: f64| ns / 1e6;
    let root = times["root"];
    assert_eq!(root.spans, 1);
    assert!((root.busy_ms - ms(100.0)).abs() < 1e-12);
    // Children cover [10, 50] and [90, 100] of the root.
    assert!((root.self_ms - ms(50.0)).abs() < 1e-12);
    let child = times["child"];
    assert_eq!(child.spans, 3);
    assert!((child.busy_ms - ms(80.0)).abs() < 1e-12);
    assert!((child.self_ms - ms(78.0)).abs() < 1e-12);
}
