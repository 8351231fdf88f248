//! The traced run: the workload's own ops with spans around each layer
//! call, the same ops untraced for the tracing overhead, and replays of
//! each layer's public functions with the workload's spec, seed and
//! fleet size.
//!
//! Layers a workload never runs are replayed with the spec of the
//! workload that layer metric is mapped to (see `README.md`), so every
//! traced run reports every layer. Outcome metrics of a simulation the
//! workload does not run (cache ratios on `capacity`, attribution on
//! `gateway_mix`, ...) read 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use microfaas::cache::{content_key, CacheConfig, ResultCache};
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::gateway::{Gateway, HttpRequest, HttpResponse};
use microfaas::micro::{run_microfaas, run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{
    run_open_loop_monitored_streaming, run_open_loop_streaming, run_open_loop_streaming_attributed,
    run_open_loop_with, NullSink, OpenLoopConfig,
};
use microfaas::registry::FunctionRegistry;
use microfaas::{run_conventional, ArrivalState, FunctionPicker};
use microfaas_energy::attribution::IdlePolicy;
use microfaas_energy::EnergyMeter;
use microfaas_hw::SbcNode;
use microfaas_sched::{GovernorKind, NodeView, PolicyEngine};
use microfaas_sim::{
    CriticalPath, EventQueue, MetricsRegistry, Observer, Phase, QuantileSketch, Rng, SimDuration,
    SimTime, SpanTree, TelemetryConfig, TraceBuffer, TraceEvent, TraceSink, WorkerState,
};
use microfaas_workloads::interp::Script;
use microfaas_workloads::{run_function, FunctionId, ServiceBackends, WorkloadClass};

use crate::measure::{median, percentile};
use crate::report::{Outcome, SELF_TIME_SPANS};
use crate::spans::{NoSpans, Spans, Tracer};
use crate::workloads::{
    capacity_config, failed_ops, flash_config, open_loop_digest, paper_mix, paper_seed, Bench,
    GatewayBench, Round, Workload,
};

/// Collects a traced run's metrics and failures.
struct Traced {
    out: Outcome,
    spans: Spans,
}

impl Traced {
    fn check(&mut self, ok: bool) {
        self.out.tally(1, u64::from(!ok));
    }
}

/// Runs `workload`'s traced run at `seed`, spending about `seconds` on
/// its own ops, and returns the per-layer metrics with the spans.
pub fn traced_run(workload: Workload, seed: u64, seconds: f64) -> (Outcome, Spans) {
    let mut t = Traced {
        out: Outcome::default(),
        spans: Spans::new(),
    };
    match workload {
        Workload::Capacity => {
            own_ops(&mut t, &crate::workloads::CapacityBench { seed }, seconds);
            open_loop_outcomes(&mut t, &capacity_config(seed), None);
        }
        Workload::FlashTaps => {
            let rounds = own_ops(&mut t, &crate::workloads::FlashBench { seed }, seconds);
            let taps = rounds[0].open_loop.as_ref().map(open_loop_digest);
            open_loop_outcomes(&mut t, &flash_config(seed), taps);
        }
        Workload::PaperSuite => {
            own_ops(&mut t, &crate::workloads::PaperBench { seed }, seconds);
            zero_open_loop_outcomes(&mut t.out);
        }
        Workload::GatewayMix => {
            let bench = GatewayBench::new(seed);
            own_ops(&mut t, &bench, seconds);
            zero_open_loop_outcomes(&mut t.out);
            gateway_events(&mut t, &bench);
        }
    }
    paper_outcomes(&mut t, workload, seed);
    replay_layers(&mut t, workload, seed);

    let totals = t.spans.totals();
    for name in SELF_TIME_SPANS {
        let self_us = totals
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e3 / s.count as f64);
        t.out.set(&format!("span.{name}.self_us"), self_us);
    }
    let fail_ratio = t.out.failed as f64 / t.out.attempted.max(1) as f64;
    t.out.set("fail_ratio", fail_ratio);
    (t.out, t.spans)
}

/// The workload's own ops: untraced and traced rounds alternated until
/// half of `seconds` has passed (one pair at least). Reports the
/// tracing overhead and returns the traced rounds. Only the first
/// traced round's spans are kept for the Chrome trace, which keeps the
/// written document small; later traced rounds record into a throwaway
/// recorder at the same cost.
fn own_ops<B: Bench>(t: &mut Traced, bench: &B, seconds: f64) -> Vec<Round> {
    bench.warm_up();
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut id = 0;
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
        plain.push(bench.round(bench.setup(), id, &mut NoSpans));
        let round = if traced.is_empty() {
            bench.round(bench.setup(), id + 1, &mut t.spans)
        } else {
            bench.round(bench.setup(), id + 1, &mut Spans::new())
        };
        traced.push(round);
        id += 2;
    }
    let rate = |rounds: &[Round]| {
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.ops as f64 / r.busy_ns.max(1) as f64)
            .collect();
        median(&rates)
    };
    let overhead = 100.0 * (rate(&plain) / rate(&traced) - 1.0);
    t.out.set("trace.overhead_pct", overhead);
    let mut all = plain;
    all.extend(traced.iter().cloned());
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    t.out.tally(attempted, failed_ops(&all, None));
    traced
}

/// A [`TraceSink`] that counts events and completions.
#[derive(Default)]
struct CountingSink {
    events: u64,
    completions: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, _at: SimTime, event: TraceEvent) {
        self.events += 1;
        if matches!(event, TraceEvent::JobCompleted { .. }) {
            self.completions += 1;
        }
    }
}

fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Outcomes of an open-loop workload: the cost of each tap, events per
/// completion, boots and occupancy. Every tapped run must reproduce the
/// plain run's aggregates exactly; `taps` is the digest of the
/// workload's own run with every tap on, when it has one.
fn open_loop_outcomes(t: &mut Traced, config: &OpenLoopConfig, taps: Option<u64>) {
    t.spans.enter("layer.open_loop.plain", 0);
    let (plain, plain_ns) = timed_ns(|| run_open_loop_streaming(config, &mut NullSink));
    t.spans.exit();
    t.spans.enter("layer.open_loop.attributed", 0);
    let ((attributed, ledger), attr_ns) = timed_ns(|| {
        run_open_loop_streaming_attributed(config, &mut NullSink, IdlePolicy::UsageWeighted)
    });
    t.spans.exit();
    t.spans.enter("layer.open_loop.monitored", 0);
    let ((monitored, _series), tel_ns) =
        timed_ns(|| run_open_loop_monitored_streaming(config, &TelemetryConfig::default()));
    t.spans.exit();

    let reference = open_loop_digest(&plain);
    t.check(open_loop_digest(&attributed) == reference);
    t.check(open_loop_digest(&monitored) == reference);
    t.check(ledger.conserves());
    if let Some(taps) = taps {
        t.check(taps == reference);
    }

    let completed = plain.completed.max(1) as f64;
    t.out.set(
        "attribution.ns_per_op",
        (attr_ns as f64 - plain_ns as f64) / completed,
    );
    t.out.set(
        "telemetry.ns_per_op",
        (tel_ns as f64 - plain_ns as f64) / completed,
    );

    let mut sink = CountingSink::default();
    let mut registry = MetricsRegistry::new();
    t.spans.enter("layer.open_loop.observed", 0);
    let observed = run_open_loop_with(config, &mut Observer::full(&mut sink, &mut registry));
    t.spans.exit();
    let counter = registry.counter("open_jobs_completed_total");
    t.check(observed.completed == plain.completed);
    t.check(sink.completions == plain.completed);
    t.check(registry.counter_value(counter) == plain.completed);
    t.out
        .set("trace.events_per_op", sink.events as f64 / completed);

    let lookups = plain.cache_hits + plain.cache_misses + plain.cache_coalesced;
    let ratio = |n: u64| {
        if lookups == 0 {
            0.0
        } else {
            n as f64 / lookups as f64
        }
    };
    t.out.set(
        "cache.served_free_ratio",
        ratio(plain.cache_hits + plain.cache_coalesced),
    );
    t.out
        .set("cache.coalesced_ratio", ratio(plain.cache_coalesced));
    t.out
        .set("sim.boots_per_op", plain.power_cycles as f64 / completed);
    t.out.set("sim.powered_on_mean", plain.mean_powered_on);
}

/// The open-loop outcomes of a workload that runs no open loop.
fn zero_open_loop_outcomes(out: &mut Outcome) {
    for name in [
        "attribution.ns_per_op",
        "telemetry.ns_per_op",
        "cache.served_free_ratio",
        "cache.coalesced_ratio",
        "trace.events_per_op",
        "sim.boots_per_op",
        "sim.powered_on_mean",
    ] {
        out.set(name, 0.0);
    }
}

/// The gateway's observability work per request: counter increments in
/// its metrics registry.
fn gateway_events(t: &mut Traced, bench: &GatewayBench) {
    let Some(mut gateway) = bench.gateway() else {
        t.check(false);
        return;
    };
    let before = counter_total(&gateway);
    for raw in &bench.requests {
        t.check(gateway.handle(raw).status == 200);
    }
    let events = counter_total(&gateway) - before;
    t.out
        .set("trace.events_per_op", events / bench.requests.len() as f64);
}

fn counter_total(gateway: &Gateway) -> f64 {
    gateway
        .metrics()
        .flatten()
        .iter()
        .filter(|(name, _)| name.contains("_total"))
        .map(|(_, v)| v)
        .sum()
}

/// Paper ops traced by the simulator: phase shares from
/// [`SpanTree::derive`] on the SBC cluster, and, on `paper_suite`,
/// boots, occupancy and events per op.
fn paper_outcomes(t: &mut Traced, workload: Workload, seed: u64) {
    const TRACED_OPS: u64 = 10;
    let mix = paper_mix();
    let jobs = mix.total_jobs() as f64;
    let mut shares = [0.0; 3];
    let (mut boots, mut powered, mut events) = (0.0, 0.0, 0.0);
    t.spans.enter("layer.paper.traced", 0);
    for i in 0..TRACED_OPS {
        let s = paper_seed(seed, i);
        let mut micro_trace = TraceBuffer::new(1 << 16);
        let micro = run_microfaas_with(
            &MicroFaasConfig::paper_prototype(mix.clone(), s),
            &mut Observer::tracing(&mut micro_trace),
        );
        let mut conv_sink = CountingSink::default();
        let conv = run_conventional_with(
            &ConventionalConfig::paper_baseline(mix.clone(), s),
            &mut Observer::tracing(&mut conv_sink),
        );
        t.check(micro_trace.dropped() == 0);
        t.check(micro.jobs_accounted() as f64 == jobs && conv.jobs_accounted() as f64 == jobs);
        let tree = SpanTree::from_buffer(&micro_trace);
        let mut cp = CriticalPath::analyze(&tree);
        for (share, phase) in shares
            .iter_mut()
            .zip([Phase::Queue, Phase::Boot, Phase::Exec])
        {
            *share += cp.overall().phase_share(phase) / 100.0;
        }
        let mut on_us = 0u64;
        for span in tree.lifecycle() {
            if matches!(span.state, WorkerState::Booting | WorkerState::Rebooting) {
                boots += 1.0;
            }
            if !matches!(span.state, WorkerState::Off | WorkerState::Crashed) {
                on_us += span.end.duration_since(span.start).as_micros();
            }
        }
        powered += on_us as f64 / tree.end().as_micros().max(1) as f64;
        events += (micro_trace.len() as u64 + conv_sink.events) as f64;
    }
    t.spans.exit();
    let n = TRACED_OPS as f64;
    t.out.set("sim.queue_share", shares[0] / n);
    t.out.set("sim.boot_share", shares[1] / n);
    t.out.set("sim.exec_share", shares[2] / n);
    if workload == Workload::PaperSuite {
        t.out.set("sim.boots_per_op", boots / n);
        t.out.set("sim.powered_on_mean", powered / n);
        t.out.set("trace.events_per_op", events / n);
    }
}

/// The open-loop spec a layer replay uses: the workload's own when it
/// is an open-loop workload, else that of the workload the layer metric
/// is mapped to.
fn replay_config(workload: Workload, mapped: Workload, seed: u64) -> OpenLoopConfig {
    let spec = match workload {
        Workload::Capacity | Workload::FlashTaps => workload,
        Workload::PaperSuite | Workload::GatewayMix => mapped,
    };
    if spec == Workload::Capacity {
        capacity_config(seed)
    } else {
        flash_config(seed)
    }
}

/// Median over `batches` of the host ns per call of `calls` calls.
fn ns_per_call(batches: usize, calls: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (_, ns) = timed_ns(&mut batch);
            ns as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn replay_layers(t: &mut Traced, workload: Workload, seed: u64) {
    use Workload::{Capacity, FlashTaps};
    const CALLS: u64 = 200_000;
    const BATCHES: usize = 5;

    // Arrivals: gap draws and function picks.
    let cfg = replay_config(workload, FlashTaps, seed);
    t.spans.enter("layer.arrivals", 0);
    let mut rng = Rng::new(seed);
    let mut state = ArrivalState::default();
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + cfg.duration;
    let gap_ns = ns_per_call(BATCHES, CALLS, || {
        for _ in 0..CALLS {
            now += cfg.arrival.next_gap(now, &mut rng, &mut state);
            if now >= end {
                now = SimTime::ZERO;
            }
        }
        black_box(now);
    });
    let picker = FunctionPicker::new(&cfg.popularity, cfg.functions.len());
    let pick_ns = ns_per_call(BATCHES, CALLS, || {
        let mut acc = 0usize;
        for _ in 0..CALLS {
            acc = acc.wrapping_add(picker.pick(&mut rng));
        }
        black_box(acc);
    });
    t.spans.exit();
    t.out.set("arrivals.next_gap_ns", gap_ns);
    t.out.set("arrivals.pick_ns", pick_ns);

    // The timing wheel at the workload's pending-event occupancy.
    let cfg = replay_config(workload, Capacity, seed);
    t.spans.enter("layer.queue", 0);
    let occupancy = cfg.workers;
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_micros(rng.range_u64(1_000, 3_000_000)))
        .collect();
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..occupancy {
        queue.schedule(SimTime::from_micros(rng.range_u64(0, 3_000_000)), i as u32);
    }
    let mut k = 0usize;
    let op_ns = ns_per_call(BATCHES, CALLS, || {
        for _ in 0..CALLS {
            let (at, event) = queue.pop().expect("queue holds its occupancy");
            k = (k + 1) & 4095;
            queue.schedule(at + delays[k], event);
        }
    });
    t.check(queue.len() == occupancy);
    const GATES: usize = 4096;
    let mut order: Vec<usize> = (0..GATES).collect();
    for i in (1..GATES).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let mut cancel_samples = Vec::new();
    let mut ids = Vec::with_capacity(GATES);
    for _ in 0..BATCHES * 10 {
        let now = queue.now();
        ids.clear();
        for &delay in &delays[..GATES] {
            ids.push(queue.schedule(now + SimDuration::from_secs(60) + delay, u32::MAX));
        }
        let (cancelled, ns) = timed_ns(|| order.iter().filter(|&&j| queue.cancel(ids[j])).count());
        t.check(cancelled == GATES);
        cancel_samples.push(ns as f64 / GATES as f64);
    }
    t.spans.exit();
    t.out.set("queue.op_ns", op_ns);
    t.out.set("queue.cancel_ns", median(&cancel_samples));

    // Placement over the fleet and the governor's drain decision.
    let cfg = replay_config(workload, FlashTaps, seed);
    t.spans.enter("layer.sched", 0);
    let mut policy = PolicyEngine::new(cfg.scheduler, cfg.governor, seed);
    let views: Vec<NodeView> = (0..cfg.workers)
        .map(|_| NodeView {
            queued: rng.index(3),
            busy: rng.chance(0.7),
            powered: rng.chance(0.8),
            load: rng.range_f64(0.0, 3.0),
        })
        .collect();
    let place_ns = ns_per_call(BATCHES, CALLS, || {
        let mut acc = 0usize;
        for _ in 0..CALLS {
            acc = acc.wrapping_add(policy.place(&views, &mut rng));
        }
        black_box(acc);
    });
    let cfg = replay_config(workload, Capacity, seed);
    let mut policy = PolicyEngine::new(cfg.scheduler, cfg.governor, seed);
    let mut at = 0u64;
    let drain_ns = ns_per_call(BATCHES, CALLS, || {
        for i in 0..CALLS {
            at += 1_000;
            black_box(policy.on_drain(SimTime::from_micros(at), (i & 63) as usize));
        }
    });
    t.spans.exit();
    t.out.set("sched.place_ns", place_ns);
    t.out.set("sched.drain_ns", drain_ns);

    // One SBC node cycle under the spec's governor.
    let cfg = replay_config(workload, FlashTaps, seed);
    t.spans.enter("layer.hw", 0);
    let keep_alive = !matches!(cfg.governor, GovernorKind::RebootPerJob);
    let mut node = SbcNode::new(0, SimTime::ZERO);
    let mut clock = 0u64;
    let mut cycle_ok = true;
    const CYCLES: u64 = 50_000;
    let cycle_ns = ns_per_call(BATCHES, CYCLES, || {
        for _ in 0..CYCLES {
            let mut step = |f: &mut dyn FnMut(SimTime) -> bool| {
                clock += 1_000;
                cycle_ok &= f(SimTime::from_micros(clock));
            };
            step(&mut |now| node.power_on(now).is_ok());
            step(&mut |now| node.boot_complete(now).is_ok());
            step(&mut |now| node.start_job(now).is_ok());
            if keep_alive {
                step(&mut |now| node.finish_job_and_standby(now).is_ok());
                step(&mut |now| node.power_off(now).is_ok());
            } else {
                step(&mut |now| node.finish_job_and_power_off(now).is_ok());
            }
        }
    });
    t.check(cycle_ok);
    t.spans.exit();
    t.out.set("hw.job_cycle_ns", cycle_ns);

    // The energy meter across the fleet and the latency sketch.
    t.spans.enter("layer.energy", 0);
    let mut meter = EnergyMeter::new(SimTime::ZERO);
    let channels: Vec<_> = (0..cfg.workers)
        .map(|i| meter.add_channel(format!("sbc{i}")))
        .collect();
    let watts = [0.0, 0.128, 1.8, 2.2];
    let picks: Vec<(usize, f64)> = (0..4096)
        .map(|_| (rng.index(channels.len()), watts[rng.index(4)]))
        .collect();
    let mut clock = 0u64;
    let power_ns = ns_per_call(BATCHES, CALLS, || {
        for i in 0..CALLS as usize {
            clock += 10;
            let (channel, w) = picks[i & 4095];
            meter.set_power(SimTime::from_micros(clock), channels[channel], w);
        }
    });
    black_box(meter.total_joules(SimTime::from_micros(clock)));
    let latencies: Vec<f64> = (0..4096).map(|_| rng.exponential(14.0)).collect();
    let mut sketch = QuantileSketch::with_relative_error(0.01);
    let sketch_ns = ns_per_call(BATCHES, CALLS, || {
        for i in 0..CALLS as usize {
            sketch.record(latencies[i & 4095]);
        }
    });
    black_box(sketch.quantile(0.95));
    t.spans.exit();
    t.out.set("energy.set_power_ns", power_ns);
    t.out.set("stats.sketch_record_ns", sketch_ns);

    // The result cache on the spec's key stream (flash's cache spec
    // where the workload has none).
    t.spans.enter("layer.cache", 0);
    let cache_cfg = match cfg.cache {
        CacheConfig::Off => flash_config(seed).cache,
        other => other,
    };
    let mut cache: ResultCache<u64> =
        ResultCache::from_config(&cache_cfg).expect("an enabled cache spec");
    let inputs = cache_cfg.input_variants().max(1) as usize;
    let keys: Vec<u64> = (0..65_536)
        .map(|_| content_key(picker.pick(&mut rng) as u8, rng.index(inputs) as u64))
        .collect();
    let rate = cfg
        .arrival
        .mean_per_second(cfg.duration.as_secs_f64())
        .max(1e-9);
    let step_us = (1e6 / rate).max(1.0) as u64;
    let mut now_us = 0u64;
    let lookup_ns = ns_per_call(BATCHES, CALLS, || {
        for i in 0..CALLS as usize {
            now_us += step_us;
            let key = keys[i & 65_535];
            if cache.lookup(key, now_us).is_none() {
                cache.insert(key, i as u64, now_us);
            }
        }
    });
    t.spans.exit();
    t.out.set("cache.lookup_ns", lookup_ns);

    replay_paper_clusters(t, seed);
    replay_gateway(t, seed);
}

/// Host time of each cluster engine on paper-prototype runs.
fn replay_paper_clusters(t: &mut Traced, seed: u64) {
    const RUNS: u64 = 40;
    let mix = paper_mix();
    t.spans.enter("layer.paper.clusters", 0);
    let mut micro_ms = Vec::new();
    let mut conv_ms = Vec::new();
    for i in 0..RUNS {
        let s = paper_seed(seed, i);
        let (m, ns) = timed_ns(|| run_microfaas(&MicroFaasConfig::paper_prototype(mix.clone(), s)));
        micro_ms.push(ns as f64 / 1e6);
        let (c, ns) =
            timed_ns(|| run_conventional(&ConventionalConfig::paper_baseline(mix.clone(), s)));
        conv_ms.push(ns as f64 / 1e6);
        t.check(m.jobs_accounted() == mix.total_jobs() && c.jobs_accounted() == mix.total_jobs());
    }
    t.spans.exit();
    t.out.set("micro.run_ms", median(&micro_ms));
    t.out.set("conventional.run_ms", median(&conv_ms));
}

/// The real kernels, the HTTP codec, the gateway's own share of a
/// request and the script interpreter.
fn replay_gateway(t: &mut Traced, seed: u64) {
    const SAMPLES: usize = 9;
    let bench = GatewayBench::new(seed);

    // Every Table-I kernel through `run_function`.
    t.spans.enter("layer.workloads", 0);
    let mut backends = ServiceBackends::seeded();
    let mut rng = Rng::new(seed);
    let mut run_us: BTreeMap<FunctionId, f64> = BTreeMap::new();
    let mut bodies = Vec::new();
    for f in FunctionId::ALL {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..=SAMPLES {
            let (result, ns) = timed_ns(|| run_function(f, 1, &mut rng, &mut backends));
            match result {
                Ok(output) => {
                    if samples.is_empty() && bodies.len() < FunctionId::ALL.len() {
                        bodies.push(output.summary.into_bytes());
                    }
                    samples.push(ns as f64 / 1e3);
                }
                Err(_) => t.check(false),
            }
        }
        // The first call warms caches; the rest are the samples.
        let p50 = percentile(samples.get(1..).unwrap_or(&[]), 50.0);
        run_us.insert(f, p50);
        t.out.set(&format!("workloads.{}_us", f.name()), p50);
    }
    t.spans.exit();

    // The gateway's share: `handle` minus `run_function` on the
    // service-bound functions.
    t.spans.enter("layer.gateway.self", 0);
    let mut gateway = Gateway::new(FunctionRegistry::paper_suite(), seed);
    let mut self_us = Vec::new();
    for f in FunctionId::ALL
        .into_iter()
        .filter(|f| f.class() == WorkloadClass::NetworkBound)
    {
        let raw = format!(
            "POST /invoke/{} HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
            f.name()
        );
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..=SAMPLES {
            let (response, ns) = timed_ns(|| gateway.handle(raw.as_bytes()));
            t.check(response.status == 200);
            samples.push(ns as f64 / 1e3);
        }
        self_us.push(percentile(&samples[1..], 50.0) - run_us[&f]);
    }
    t.spans.exit();
    t.out.set("gateway.self_us", median(&self_us));

    // The HTTP codec on the mix's requests and the kernels' bodies.
    t.spans.enter("layer.gateway.codec", 0);
    let requests = &bench.requests;
    let mut parsed_ok = true;
    let parse_ns = ns_per_call(5, requests.len() as u64 * 20, || {
        for _ in 0..20 {
            for raw in requests {
                parsed_ok &= black_box(HttpRequest::parse(raw)).is_ok();
            }
        }
    });
    t.check(parsed_ok);
    let responses: Vec<HttpResponse> = bodies
        .into_iter()
        .map(|body| HttpResponse {
            status: 200,
            body,
            content_type: "text/plain".to_string(),
        })
        .collect();
    let encode_ns = ns_per_call(5, responses.len() as u64 * 2000, || {
        for _ in 0..2000 {
            for response in &responses {
                black_box(response.encode());
            }
        }
    });
    t.spans.exit();
    t.out.set("gateway.parse_ns", parse_ns);
    t.out.set("gateway.encode_ns", encode_ns);

    // The interpreter on the mix's scripts.
    t.spans.enter("layer.interp", 0);
    let mut compile_us = Vec::new();
    let mut exec_us = Vec::new();
    for source in &bench.scripts {
        for _ in 0..5 {
            let (script, ns) = timed_ns(|| Script::compile(source));
            compile_us.push(ns as f64 / 1e3);
            match script {
                Ok(script) => {
                    let (value, ns) = timed_ns(|| script.run(10_000_000));
                    t.check(value.is_ok());
                    exec_us.push(ns as f64 / 1e3);
                }
                Err(_) => t.check(false),
            }
        }
    }
    t.spans.exit();
    t.out.set("interp.compile_us", median(&compile_us));
    t.out.set("interp.run_us", median(&exec_us));
}
