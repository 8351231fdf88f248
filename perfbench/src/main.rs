//! The MicroFaaS benchmark: four workloads over the simulator and the
//! HTTP gateway, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload capacity --seed 2022 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod alloc;
mod layers;
mod measure;
mod report;
mod spans;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use crate::report::{end_to_end, per_layer, Metric, Outcome};
use crate::workloads::{
    expected_fingerprint, paper_accuracy, CapacityBench, FlashBench, GatewayBench, PaperBench,
    Workload, DEFAULT_SEED,
};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where traced runs write their Chrome trace, relative to the
/// directory the benchmark runs from.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{}", usage()))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| format!("{reference} (unresolved)")),
        None => head,
    }
}

fn provenance(args: &Args) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} git={} profile={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        profile,
        nproc
    );
}

fn print_metrics(outcome: &Outcome, catalog: &[Metric]) {
    for m in catalog {
        if let Some(value) = outcome.values.get(&m.name) {
            println!("  {:<32} {:>16.6} {}", m.name, value, m.unit);
        }
    }
    println!(
        "  ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args) -> Outcome {
    let seed = args.seed;
    let rounds = match args.workload {
        Workload::Capacity => measure::run_rounds(&CapacityBench { seed }, args.seconds),
        Workload::FlashTaps => measure::run_rounds(&FlashBench { seed }, args.seconds),
        Workload::PaperSuite => measure::run_rounds(&PaperBench { seed }, args.seconds),
        Workload::GatewayMix => measure::run_rounds(&GatewayBench::new(seed), args.seconds),
    };
    let first = &rounds.rounds[0];
    if let Some(run) = &first.open_loop {
        println!(
            "  completed {} mean {:.2} s p95 {:.2} s power {:.2} W {:.2} J/func cycles {} \
             cache {}/{}/{} (hit/miss/coalesced)",
            run.completed,
            run.mean_latency_s,
            run.p95_latency_s,
            run.mean_power_w,
            run.joules_per_function,
            run.power_cycles,
            run.cache_hits,
            run.cache_misses,
            run.cache_coalesced
        );
    }
    let fingerprint = first.fingerprint();
    let mut outcome = measure::end_to_end(&rounds, expected_fingerprint(args.workload, seed));
    outcome.set("paper_err_pct", paper_accuracy(seed));
    println!(
        "  rounds {} output fingerprint {fingerprint:#018x}",
        rounds.rounds.len()
    );
    outcome
}

/// The traced run: per-layer metrics, and the Chrome trace written to
/// `trace_dir`.
fn traced(args: &Args, trace_dir: &Path) -> Outcome {
    let (mut outcome, spans) = layers::traced_run(args.workload, args.seed, args.seconds);
    let json = spans.to_chrome_json(&format!(
        "perfbench {} seed {}",
        args.workload.name(),
        args.seed
    ));
    let valid = microfaas_sim::chrome::validate_chrome_trace(&json);
    let path = trace_dir.join(format!("trace_{}_{}.json", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(trace_dir).and_then(|()| std::fs::write(&path, &json));
    match (&valid, &written) {
        (Ok(summary), Ok(())) => println!(
            "  chrome trace {} ({} spans)",
            path.display(),
            summary.complete
        ),
        (Err(e), _) => eprintln!("perfbench: invalid chrome trace: {e}"),
        (_, Err(e)) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    outcome.tally(1, u64::from(valid.is_err() || written.is_err()));
    outcome.set(
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    provenance(&args);
    let (outcome, catalog) = if args.trace {
        (traced(&args, Path::new(TRACE_DIR)), per_layer())
    } else {
        (untraced(&args), end_to_end())
    };
    print_metrics(&outcome, &catalog);
    match outcome.result_json(&catalog) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sim::chrome::{parse_json, JsonValue};

    /// Runs every workload untraced and traced, as briefly as a run
    /// goes, and checks the result line: every declared metric with its
    /// unit, and every check passed (at seed 2022, so the recorded
    /// fingerprints are checked too).
    #[test]
    fn every_declared_metric_is_printed_for_every_workload() {
        let trace_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.01,
                    trace,
                };
                let (outcome, catalog) = if trace {
                    (traced(&args, &trace_dir), per_layer())
                } else {
                    (untraced(&args), end_to_end())
                };
                let line = outcome
                    .result_json(&catalog)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                let doc = parse_json(&line).expect("the result line is JSON");
                assert_eq!(
                    doc.get("correct"),
                    Some(&JsonValue::Bool(true)),
                    "{} trace={trace}: {line}",
                    workload.name()
                );
                let metrics = doc.get("metrics").expect("metrics");
                for m in &catalog {
                    let entry = metrics
                        .get(&m.name)
                        .unwrap_or_else(|| panic!("{} misses {}", workload.name(), m.name));
                    assert!(entry.get("value").and_then(JsonValue::as_f64).is_some());
                    assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "capacity", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "capacity", "--seconds", "-1"]).is_err());
        let args = parse(&["--workload", "gateway_mix", "--seed", "9", "--trace", "1"])
            .expect("valid arguments");
        assert_eq!(args.workload, Workload::GatewayMix);
        assert_eq!(args.seed, 9);
        assert!(args.trace);
    }
}
