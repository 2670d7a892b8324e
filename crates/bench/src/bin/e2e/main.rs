//! End-to-end benchmark of the HIGGS service through `ServiceClient`.
//!
//! ```text
//! e2e --workload <ingest|durable|dashboard|live|all> [--seed N]
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up its starting
//! service, measures for `--seconds`, checks its answers against the exact
//! oracle, and prints one `workload/metric value unit` line per metric and,
//! last, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs report the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then with spans recorded, writes the spans to
//! `<target>/e2e/trace-<workload>.jsonl`, and reports the per-layer split
//! instead. See `README.md` beside this file.

mod inputs;
mod layers;
mod schedule;
mod stats;
mod trace;
mod workloads;

use inputs::Inputs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, E2e, Run, Tally};

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("bytes_per_edge", "B/edge"),
];

const WORKLOADS: &[&str] = &["ingest", "durable", "dashboard", "live"];

/// Spans written to a trace file, at most.
const TRACE_FILE_CAP: usize = 200_000;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let name = WORKLOADS.iter().find(|&&w| w == value).ok_or(format!(
                    "unknown workload {value}; one of {WORKLOADS:?} or all"
                ))?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside (0, 120]", args.seconds));
    }
    Ok(args)
}

/// Where scratch directories and trace files go: inside the build's
/// target directory, so a run writes nothing outside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

struct Outcome {
    tally: Tally,
    /// `(workload, metric, value, unit)` in report order.
    metrics: Vec<(&'static str, &'static str, f64, &'static str)>,
}

fn run_workload(workload: &str, ctx: &mut Ctx) -> Result<Run, String> {
    match workload {
        "ingest" => workloads::ingest(ctx),
        "durable" => workloads::durable(ctx),
        "dashboard" => workloads::dashboard(ctx),
        _ => workloads::live(ctx),
    }
}

/// How much tracing slowed the workload: the traced run's primary metric
/// against the untraced run's, as a cost ratio (above 1 is slower).
/// Throughput is primary for the closed loops; for the open loops, whose
/// throughput is the offered rate, the median latency is.
fn trace_overhead(workload: &str, untraced: &E2e, traced: &E2e) -> f64 {
    match workload {
        "ingest" | "durable" => untraced.throughput / traced.throughput,
        _ => traced.p50_ms / untraced.p50_ms,
    }
}

fn run_one(workload: &'static str, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut inputs = Inputs::generate(args.seed)?;
    let scratch = target_dir()
        .join("e2e")
        .join(format!("scratch-{}-{workload}", std::process::id()));
    workloads::fresh_dir(&scratch)?;
    let mut ctx = Ctx {
        inputs: &mut inputs,
        seconds: args.seconds,
        trace: false,
        epoch,
        scratch: scratch.clone(),
    };
    // A traced run spends half of `--seconds` untraced and half traced,
    // so that it measures its own overhead.
    let untraced = if args.trace {
        ctx.seconds /= 2.0;
        let run = run_workload(workload, &mut ctx)?;
        absorb(&mut out.tally, &run.tally);
        ctx.trace = true;
        Some(run.e2e)
    } else {
        None
    };
    let run = run_workload(workload, &mut ctx)?;
    absorb(&mut out.tally, &run.tally);
    if let Some(untraced) = untraced {
        let path = target_dir()
            .join("e2e")
            .join(format!("trace-{workload}.jsonl"));
        trace::write_jsonl(&path, &run.spans, TRACE_FILE_CAP)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let overhead = trace_overhead(workload, &untraced, &run.e2e);
        let mut checks = Tally::default();
        let layers = layers::measure(&mut inputs, run, overhead, &scratch, &mut checks)?;
        absorb(&mut out.tally, &checks);
        for (name, value, unit) in layers.report()? {
            out.metrics.push((workload, name, value, unit));
        }
    } else {
        let e = &run.e2e;
        let values = [e.throughput, e.p50_ms, e.setup_s, e.bytes_per_edge];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            out.metrics.push((workload, name, value, unit));
        }
        // The tail is printed, not gated: on the reference machine it
        // swings with the host from run to run (see README).
        println!(
            "{workload}/latency_p99_ms {} ms (not gated; {} samples)",
            e.p99_ms, e.samples
        );
        drop(run.service);
    }
    workloads::remove_dir(&scratch)
}

fn absorb(total: &mut Tally, part: &Tally) {
    total.attempted += part.attempted;
    total.failed += part.failed;
    total.notes.extend_from_slice(&part.notes);
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome {
        tally: Tally::default(),
        metrics: Vec::new(),
    };
    for &workload in &args.workloads {
        if let Err(e) = run_one(workload, &args, &mut out) {
            eprintln!("e2e: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for note in &out.tally.notes {
        eprintln!("e2e: check failed: {note}");
    }
    let mut fields = Vec::new();
    for (workload, name, value, unit) in &out.metrics {
        println!("{workload}/{name} {value} {unit}");
        // A run of one workload keys its metrics by name alone.
        let key = if args.workloads.len() == 1 {
            name.to_string()
        } else {
            format!("{workload}/{name}")
        };
        fields.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(&key),
            json_string(unit)
        ));
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics_and_workloads() {
        let listed = |name: &str| BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\""));
        for &(name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
            assert!(BENCHMARK_JSON.contains(&format!("\"unit\": \"{unit}\"")));
        }
        for w in WORKLOADS {
            assert!(listed(w), "workload {w} missing from BENCHMARK.json");
        }
        let entries = BENCHMARK_JSON.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + layers::PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse(argv("--workload live --seed 7 --seconds 3 --trace 1").into_iter())
            .expect("valid arguments");
        assert_eq!(args.workloads, vec!["live"]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert_eq!(
            parse(argv("").into_iter()).map(|a| a.workloads.len()).ok(),
            Some(4)
        );
        assert!(parse(argv("--workload nope").into_iter()).is_err());
        assert!(parse(argv("--seconds 0").into_iter()).is_err());
        assert!(parse(argv("--seed").into_iter()).is_err());
    }
}
