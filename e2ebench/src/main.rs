//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its report; the last line is the result
//! JSON. Exits 2 on bad arguments and 1 when the session cannot be set up,
//! printing no result in either case.

use std::path::PathBuf;
use std::process::ExitCode;

use dlearn_e2ebench::report::{result_line, END_TO_END, PER_LAYER};
use dlearn_e2ebench::workloads::{run, Options, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <movies-learn|segments-serve|movies-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# e2ebench {} seed={} seconds={} trace={} available_parallelism={threads}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("end-to-end{}:", if opts.trace { " (traced)" } else { "" });
    for line in outcome.metrics.lines(END_TO_END) {
        println!("{line}");
    }
    let metrics = if opts.trace {
        println!("traced-e2e: {}", outcome.metrics.json(END_TO_END));
        println!("per-layer:");
        for line in outcome.metrics.lines(PER_LAYER) {
            println!("{line}");
        }
        println!("spans (busy / self ms):");
        for (name, t) in outcome.tracer.layer_times() {
            println!(
                "  {name:<28} {:>12.3} {:>12.3} spans={}",
                t.busy_ms, t.self_ms, t.spans
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", opts.workload.name(), opts.seed));
        match outcome.tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
        outcome.metrics.json(PER_LAYER)
    } else {
        outcome.metrics.json(END_TO_END)
    };
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
