//! The untraced run: rounds of a workload for the run's duration, and
//! the end-to-end metrics computed from them.

use std::time::{Duration, Instant};

use microfaas_sim::Samples;

use crate::alloc::{self, AllocCount};
use crate::report::Outcome;
use crate::spans::NoSpans;
use crate::workloads::{failed_ops, Bench, Round};

/// Fewest rounds a run makes, however long they take.
pub const MIN_ROUNDS: usize = 3;
/// Fewest set-ups whose median is `setup_s`.
pub const MIN_SETUPS: usize = 7;
/// Extra set-ups stop after this much set-up time or [`MAX_SETUPS`]
/// set-ups, so that a cheap set-up is still timed many times.
const SETUP_BUDGET_S: f64 = 0.1;
const MAX_SETUPS: usize = 1000;

/// Rounds and set-up times of one run.
pub struct Rounds {
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Host time of every set-up, seconds.
    pub setup_s: Vec<f64>,
}

/// Runs rounds of `bench` until `seconds` have passed (at least
/// [`MIN_ROUNDS`]), then extra set-ups: at least [`MIN_SETUPS`] in all,
/// and more while they fit in [`SETUP_BUDGET_S`].
pub fn run_rounds<B: Bench>(bench: &B, seconds: f64) -> Rounds {
    bench.warm_up();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut setup_s = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let t0 = Instant::now();
        let ready = bench.setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        rounds.push(bench.round(ready, rounds.len() as u64, &mut NoSpans));
    }
    let mut extra_s = 0.0;
    let mut extra = 0;
    while setup_s.len() < MIN_SETUPS || (extra_s < SETUP_BUDGET_S && extra < MAX_SETUPS) {
        let t0 = Instant::now();
        let ready = bench.setup();
        let s = t0.elapsed().as_secs_f64();
        drop(ready);
        setup_s.push(s);
        extra_s += s;
        extra += 1;
    }
    Rounds { rounds, setup_s }
}

/// Nearest-rank percentile `p` (0–100) of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut samples = Samples::new();
    samples.extend(values.iter().copied());
    samples.percentile(p).unwrap_or(f64::NAN)
}

/// Nearest-rank median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The end-to-end metrics of a run, plus its attempted and failed op
/// counts. `paper_err_pct` is set by the caller.
pub fn end_to_end(rounds: &Rounds, fingerprint: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let attempted: u64 = rounds.rounds.iter().map(|r| r.ops).sum();
    out.tally(attempted, failed_ops(&rounds.rounds, fingerprint));

    out.set("setup_s", median(&rounds.setup_s));
    let rates: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| r.ops as f64 / (r.busy_ns.max(1) as f64 / 1e9))
        .collect();
    out.set("ops_per_s", median(&rates));

    // Ops that are separate calls are timed one by one: each round's
    // percentiles over its 1,000 ops, then the median over rounds, so a
    // stall in one round moves neither. Ops that happen inside one
    // engine call are timed per round (host ms per op): the median
    // round, and the slowest.
    let (p50, p99) = if rounds.rounds.iter().all(|r| !r.op_ns.is_empty()) {
        let per_round: Vec<(f64, f64)> = rounds
            .rounds
            .iter()
            .map(|r| {
                let ms: Vec<f64> = r.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
                (percentile(&ms, 50.0), percentile(&ms, 99.0))
            })
            .collect();
        let p50s: Vec<f64> = per_round.iter().map(|p| p.0).collect();
        let p99s: Vec<f64> = per_round.iter().map(|p| p.1).collect();
        (median(&p50s), median(&p99s))
    } else {
        let ms: Vec<f64> = rounds
            .rounds
            .iter()
            .map(|r| r.busy_ns as f64 / 1e6 / r.ops.max(1) as f64)
            .collect();
        (median(&ms), percentile(&ms, 100.0))
    };
    out.set("op_ms_p50", p50);
    out.set("op_ms_p99", p99);

    let mut total = AllocCount::default();
    for r in &rounds.rounds {
        total.add(r.alloc);
    }
    out.set(
        "allocs_per_op",
        total.allocs as f64 / attempted.max(1) as f64,
    );
    out.set(
        "alloc_bytes_per_op",
        total.bytes as f64 / attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", alloc::peak_rss_mb());
    out
}
