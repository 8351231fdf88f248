//! The four workloads: their inputs, their ops and the checks on every
//! op's output.
//!
//! Each workload is a closed loop on the program: one caller, and the
//! next op starts when the previous one returns. A run repeats rounds;
//! a round builds the workload's set-up (timed as `setup_s`) and then
//! runs a fixed batch of ops on it, so every round does the same work
//! and the exact counts repeat whatever the number of rounds.

use std::sync::Arc;
use std::time::Instant;

use microfaas::arrivals::{ArrivalProcess, Popularity, TenantClass};
use microfaas::cache::{fnv1a, fnv1a_extend, CacheConfig, FNV_OFFSET};
use microfaas::config::{Jitter, WorkloadMix};
use microfaas::conventional::{run_conventional, ConventionalConfig};
use microfaas::gateway::Gateway;
use microfaas::micro::{run_microfaas, MicroFaasConfig};
use microfaas::openloop::{
    run_open_loop_monitored_attributed, run_open_loop_streaming, NullSink, OpenLoopConfig,
    OpenLoopRun,
};
use microfaas::recovery::FaultsConfig;
use microfaas::registry::FunctionRegistry;
use microfaas::report::ClusterRun;
use microfaas_energy::attribution::IdlePolicy;
use microfaas_sched::{GovernorKind, PlacementKind};
use microfaas_sim::{Rng, SimDuration, TelemetryConfig};
use microfaas_workloads::FunctionId;

use crate::alloc::{self, AllocCount};
use crate::spans::Tracer;

/// The seed the recorded fingerprints belong to.
pub const DEFAULT_SEED: u64 = 2022;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming open loop at 10,000 jobs/s on 16,384 keep-alive workers.
    Capacity,
    /// A flash-crowd day with Zipf popularity, two tenants, the result
    /// cache, attribution and telemetry.
    FlashTaps,
    /// Paired closed-loop paper-prototype runs (10 SBCs and 6 VMs).
    PaperSuite,
    /// Raw HTTP requests through the in-process gateway.
    GatewayMix,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `paper_suite`,
    /// whose host time swings too far between runs on a shared host to
    /// gate on (see `README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::Capacity,
        Workload::FlashTaps,
        Workload::PaperSuite,
        Workload::GatewayMix,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Capacity => "capacity",
            Workload::FlashTaps => "flash_taps",
            Workload::PaperSuite => "paper_suite",
            Workload::GatewayMix => "gateway_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The output fingerprint recorded at [`DEFAULT_SEED`] from the
    /// current code: a digest over every output a round checks.
    pub fn fingerprint(self) -> u64 {
        match self {
            Workload::Capacity => 0x9fad_a629_1aae_6c25,
            Workload::FlashTaps => 0x7b9e_e3fc_e033_2109,
            Workload::PaperSuite => 0x2434_3d2e_32e3_198d,
            Workload::GatewayMix => 0x8d7a_ce39_e86d_f8e1,
        }
    }
}

/// FNV-1a over 64-bit words: the digest the checks compare.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |hash, w| fnv1a_extend(hash, &w.to_le_bytes()))
}

/// Digest of every aggregate of an open-loop run. `Debug` prints each
/// `f64` with its shortest round-trip form, so equal digests mean
/// bit-equal aggregates.
pub fn open_loop_digest(run: &OpenLoopRun) -> u64 {
    fnv1a(format!("{run:?}").as_bytes())
}

/// The open-loop capacity run: `EverySecond{10000}` for
/// [`CAPACITY_SECS`] simulated seconds on 16,384 random-static workers
/// under keep-alive, uniform popularity, no cache or tenants.
pub fn capacity_config(seed: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        workers: 16_384,
        seed,
        duration: SimDuration::from_secs(CAPACITY_SECS),
        arrival: ArrivalProcess::EverySecond {
            jobs_per_tick: CAPACITY_RATE as usize,
        },
        scheduler: PlacementKind::RandomStatic,
        governor: "keep-alive"
            .parse::<GovernorKind>()
            .expect("known governor"),
        jitter: Jitter::default_run_to_run(),
        functions: FunctionId::ALL.to_vec(),
        popularity: Popularity::Uniform,
        tenants: Vec::new(),
        faults: FaultsConfig::none(),
        cache: CacheConfig::Off,
    }
}

/// Simulated seconds of arrivals in one capacity op batch.
pub const CAPACITY_SECS: u64 = 100;
/// Arrivals per simulated second in the capacity workload.
pub const CAPACITY_RATE: u64 = 10_000;

/// The flash-crowd day: `flash:10,3600,300,500` over 86,400 s on 1,024
/// random-static workers, reboot-per-job, `zipf:1.0`, tenants
/// `paid:1:2.5,free:4:30` and cache `lru:4096,ttl=300,inputs=256`.
pub fn flash_config(seed: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        workers: 1024,
        seed,
        duration: SimDuration::from_secs(86_400),
        arrival: ArrivalProcess::parse("flash:10,3600,300,500").expect("valid arrival spec"),
        scheduler: PlacementKind::RandomStatic,
        governor: GovernorKind::RebootPerJob,
        jitter: Jitter::default_run_to_run(),
        functions: FunctionId::ALL.to_vec(),
        popularity: Popularity::parse("zipf:1.0").expect("valid popularity spec"),
        tenants: vec![
            TenantClass {
                name: "paid".into(),
                weight: 1.0,
                slo_latency_s: 2.5,
            },
            TenantClass {
                name: "free".into(),
                weight: 4.0,
                slo_latency_s: 30.0,
            },
        ],
        faults: FaultsConfig::none(),
        cache: CacheConfig::parse("lru:4096,ttl=300,inputs=256").expect("valid cache spec"),
    }
}

/// Invocations per function in one paper-prototype op (17 functions,
/// so 340 jobs per cluster).
pub const PAPER_INVOCATIONS: u32 = 20;
/// Paper ops per round.
pub const PAPER_BATCH: u64 = 1000;
/// Paper ops the accuracy figure `paper_err_pct` averages over.
pub const PAPER_ACCURACY_OPS: u64 = 200;

/// The seed of paper op `i`: consecutive seeds derived from the
/// benchmark's seed.
pub fn paper_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// The paper's headline numbers (Section V): func/min of both
/// clusters, J/func of both clusters, and the efficiency gain.
pub const PAPER_HEADLINE: [f64; 5] = [200.6, 211.7, 5.7, 32.0, 5.6];

/// The simulated headline numbers of one paired run, in
/// [`PAPER_HEADLINE`] order.
pub fn headline(micro: &ClusterRun, conv: &ClusterRun) -> [f64; 5] {
    let micro_j = micro.joules_per_function().unwrap_or(f64::NAN);
    let conv_j = conv.joules_per_function().unwrap_or(f64::NAN);
    [
        micro.functions_per_minute(),
        conv.functions_per_minute(),
        micro_j,
        conv_j,
        conv_j / micro_j,
    ]
}

/// The largest relative error, in percent, of the mean simulated
/// headline numbers against the paper's.
pub fn paper_err_pct(headlines: &[[f64; 5]]) -> f64 {
    let n = headlines.len() as f64;
    (0..5)
        .map(|k| {
            let mean = headlines.iter().map(|h| h[k]).sum::<f64>() / n;
            100.0 * (mean - PAPER_HEADLINE[k]).abs() / PAPER_HEADLINE[k]
        })
        .fold(0.0, f64::max)
}

/// One paired paper-prototype run on a shared mix.
pub fn paper_pair<T: Tracer>(
    mix: &Arc<WorkloadMix>,
    seed: u64,
    op: u64,
    tracer: &mut T,
) -> (ClusterRun, ClusterRun) {
    tracer.enter("micro.run", op);
    let micro = run_microfaas(&MicroFaasConfig::paper_prototype(Arc::clone(mix), seed));
    tracer.exit();
    tracer.enter("conventional.run", op);
    let conv = run_conventional(&ConventionalConfig::paper_baseline(Arc::clone(mix), seed));
    tracer.exit();
    (micro, conv)
}

/// The paper suite's mix: every Table-I function at
/// [`PAPER_INVOCATIONS`].
pub fn paper_mix() -> Arc<WorkloadMix> {
    Arc::new(WorkloadMix::new(
        FunctionId::ALL.to_vec(),
        PAPER_INVOCATIONS,
    ))
}

/// The accuracy figure every workload reports: `paper_err_pct` over the
/// first [`PAPER_ACCURACY_OPS`] paper ops at `seed`, run untimed.
pub fn paper_accuracy(seed: u64) -> f64 {
    let mix = paper_mix();
    let headlines: Vec<[f64; 5]> = (0..PAPER_ACCURACY_OPS)
        .map(|i| {
            let (m, c) = paper_pair(&mix, paper_seed(seed, i), i, &mut crate::spans::NoSpans);
            headline(&m, &c)
        })
        .collect();
    paper_err_pct(&headlines)
}

/// What one round did.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Ops in the round.
    pub ops: u64,
    /// Ops whose own check failed (invariants, status codes).
    pub failed: u64,
    /// Host time of the ops only, ns.
    pub busy_ns: u64,
    /// Host time of each op, ns, for workloads whose ops are separate
    /// calls; empty where the ops happen inside one engine call.
    pub op_ns: Vec<u64>,
    /// Allocations inside the timed ops.
    pub alloc: AllocCount,
    /// Output digests, one per check unit, compared across rounds and
    /// against the recorded fingerprint.
    pub digests: Vec<u64>,
    /// Ops each digest covers.
    pub ops_per_digest: u64,
    /// The open-loop aggregates (open-loop workloads only).
    pub open_loop: Option<OpenLoopRun>,
}

impl Round {
    /// Folds every digest of the round into one fingerprint.
    pub fn fingerprint(&self) -> u64 {
        digest_words(self.digests.iter().copied())
    }
}

/// Times one op: host ns and allocations, around `f` only.
#[inline]
fn timed<R>(round: &mut Round, f: impl FnOnce() -> R) -> (R, u64) {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    round.alloc.add(alloc::snapshot().since(a0));
    round.busy_ns += ns;
    (out, ns)
}

/// A workload as the measurement loop drives it.
pub trait Bench {
    /// What set-up builds before the first op.
    type Ready;
    /// Builds configs, registries, backends and first deploys.
    fn setup(&self) -> Self::Ready;
    /// Runs one round of ops on `ready`, spanning each layer call.
    fn round<T: Tracer>(&self, ready: Self::Ready, round_id: u64, tracer: &mut T) -> Round;
    /// A short untimed run that warms code and allocator caches.
    fn warm_up(&self);
}

/// The `capacity` workload.
pub struct CapacityBench {
    /// Benchmark seed.
    pub seed: u64,
}

impl Bench for CapacityBench {
    type Ready = OpenLoopConfig;

    fn setup(&self) -> OpenLoopConfig {
        capacity_config(self.seed)
    }

    fn round<T: Tracer>(&self, config: OpenLoopConfig, round_id: u64, tracer: &mut T) -> Round {
        let mut round = Round::default();
        tracer.enter("op", round_id);
        tracer.enter("engine.open_loop", round_id);
        let (run, _) = timed(&mut round, || {
            run_open_loop_streaming(&config, &mut NullSink)
        });
        tracer.exit();
        tracer.exit();
        let expected = CAPACITY_RATE * CAPACITY_SECS;
        round.ops = expected;
        round.ops_per_digest = expected;
        if run.completed != expected {
            round.failed = expected;
        }
        round.digests.push(open_loop_digest(&run));
        round.open_loop = Some(run);
        round
    }

    fn warm_up(&self) {
        let mut config = capacity_config(self.seed);
        config.duration = SimDuration::from_secs(5);
        std::hint::black_box(run_open_loop_streaming(&config, &mut NullSink));
    }
}

/// The `flash_taps` workload.
pub struct FlashBench {
    /// Benchmark seed.
    pub seed: u64,
}

impl Bench for FlashBench {
    type Ready = (OpenLoopConfig, TelemetryConfig);

    fn setup(&self) -> (OpenLoopConfig, TelemetryConfig) {
        (flash_config(self.seed), TelemetryConfig::default())
    }

    fn round<T: Tracer>(
        &self,
        (config, telemetry): (OpenLoopConfig, TelemetryConfig),
        round_id: u64,
        tracer: &mut T,
    ) -> Round {
        let mut round = Round::default();
        tracer.enter("op", round_id);
        tracer.enter("engine.open_loop", round_id);
        let ((run, ledger, series), _) = timed(&mut round, || {
            run_open_loop_monitored_attributed(&config, IdlePolicy::UsageWeighted, &telemetry)
        });
        tracer.exit();
        tracer.exit();
        round.ops = run.completed;
        round.ops_per_digest = run.completed;
        let cache_accounts =
            run.cache_hits + run.cache_misses + run.cache_coalesced == run.completed;
        if !cache_accounts || !ledger.conserves() || run.completed == 0 {
            round.failed = run.completed.max(1);
            round.ops = round.ops.max(1);
        }
        let digest = digest_words([open_loop_digest(&run)]);
        let digest = fnv1a_extend(digest, ledger.to_csv().as_bytes());
        round
            .digests
            .push(fnv1a_extend(digest, series.to_csv().as_bytes()));
        round.open_loop = Some(run);
        round
    }

    fn warm_up(&self) {
        let mut config = flash_config(self.seed);
        config.duration = SimDuration::from_secs(1800);
        std::hint::black_box(run_open_loop_monitored_attributed(
            &config,
            IdlePolicy::UsageWeighted,
            &TelemetryConfig::default(),
        ));
    }
}

/// The `paper_suite` workload.
pub struct PaperBench {
    /// Benchmark seed.
    pub seed: u64,
}

impl Bench for PaperBench {
    type Ready = Arc<WorkloadMix>;

    fn setup(&self) -> Arc<WorkloadMix> {
        paper_mix()
    }

    fn round<T: Tracer>(&self, mix: Arc<WorkloadMix>, _round_id: u64, tracer: &mut T) -> Round {
        let mut round = Round {
            ops: PAPER_BATCH,
            ops_per_digest: 1,
            op_ns: Vec::with_capacity(PAPER_BATCH as usize),
            digests: Vec::with_capacity(PAPER_BATCH as usize),
            ..Round::default()
        };
        let jobs = mix.total_jobs();
        for i in 0..PAPER_BATCH {
            let seed = paper_seed(self.seed, i);
            let ((micro, conv), ns) = timed(&mut round, || {
                tracer.enter("op", i);
                let pair = paper_pair(&mix, seed, i, tracer);
                tracer.exit();
                pair
            });
            round.op_ns.push(ns);
            let h = headline(&micro, &conv);
            let terminal = micro.jobs_accounted() == jobs && conv.jobs_accounted() == jobs;
            if !terminal || !h.iter().all(|v| v.is_finite() && *v > 0.0) {
                round.failed += 1;
            }
            let counts = [micro.jobs_completed(), conv.jobs_completed()];
            round
                .digests
                .push(digest_words(h.iter().map(|v| v.to_bits()).chain(counts)));
        }
        round
    }

    fn warm_up(&self) {
        let mix = paper_mix();
        for i in 0..20 {
            std::hint::black_box(paper_pair(
                &mix,
                paper_seed(self.seed, i),
                i,
                &mut crate::spans::NoSpans,
            ));
        }
    }
}

/// Invokes of each Table-I function in one gateway round.
pub const INVOKES_PER_FUNCTION: usize = 55;
/// Invokes of deployed scripts in one gateway round.
pub const SCRIPT_INVOKES: usize = 50;
/// Deploys of fresh scripts in one gateway round.
pub const DEPLOYS: usize = 15;
/// Requests per gateway round.
pub const GATEWAY_BATCH: usize = 17 * INVOKES_PER_FUNCTION + SCRIPT_INVOKES + DEPLOYS;

/// The `gateway_mix` workload: raw requests generated from the seed.
pub struct GatewayBench {
    /// Benchmark seed.
    pub seed: u64,
    /// Scripts deployed during set-up, as raw requests.
    pub first_deploys: Vec<Vec<u8>>,
    /// The batch of raw requests one round sends.
    pub requests: Vec<Vec<u8>>,
    /// Every script source the batch deploys, set-up's first.
    pub scripts: Vec<String>,
}

/// One of the interpreter scripts the gateway mix deploys, sized by
/// `rng`.
fn script_source(rng: &mut Rng) -> String {
    match rng.index(3) {
        0 => {
            let n = 200 + rng.index(1800);
            let k = 1 + rng.index(9);
            format!(
                "let total = 0; let i = 1; while i <= {n} {{ total = total + i * {k}; i = i + 1; }} return total;"
            )
        }
        1 => {
            let n = 20 + rng.index(70);
            format!(
                "let a = 0; let b = 1; let i = 0; while i < {n} {{ let t = a + b; a = b; b = t; i = i + 1; }} return a;"
            )
        }
        _ => {
            let n = 200 + rng.index(1800);
            let h = rng.index(n);
            format!(
                "let s = 0; let i = 0; while i < {n} {{ if i < {h} {{ s = s + i; }} else {{ s = s - 1; }} i = i + 1; }} return s;"
            )
        }
    }
}

fn deploy_request(name: &str, source: &str) -> Vec<u8> {
    format!(
        "POST /deploy/{name} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{source}",
        source.len()
    )
    .into_bytes()
}

fn invoke_request(name: &str) -> Vec<u8> {
    format!("POST /invoke/{name} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n")
        .into_bytes()
}

impl GatewayBench {
    /// Generates the request mix from `seed`: each of the 17 Table-I
    /// functions invoked [`INVOKES_PER_FUNCTION`] times (94%),
    /// [`SCRIPT_INVOKES`] invokes of deployed scripts (5%) and
    /// [`DEPLOYS`] deploys of fresh scripts (1%), in an order shuffled
    /// by the seed. Fixed counts keep the work of a batch the same at
    /// every seed; the order, the scripts and the inputs vary.
    pub fn new(seed: u64) -> Self {
        enum Kind {
            Function(FunctionId),
            Script,
            Deploy,
        }
        let mut rng = Rng::new(seed ^ 0x6761_7465_7761_7921);
        let mut scripts = Vec::new();
        let mut names = Vec::new();
        let mut first_deploys = Vec::new();
        for i in 0..4 {
            let name = format!("setup{i}");
            let source = script_source(&mut rng);
            first_deploys.push(deploy_request(&name, &source));
            scripts.push(source);
            names.push(name);
        }
        let mut kinds: Vec<Kind> = FunctionId::ALL
            .into_iter()
            .flat_map(|f| (0..INVOKES_PER_FUNCTION).map(move |_| Kind::Function(f)))
            .chain((0..SCRIPT_INVOKES).map(|_| Kind::Script))
            .chain((0..DEPLOYS).map(|_| Kind::Deploy))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.index(i + 1));
        }
        let mut requests = Vec::with_capacity(GATEWAY_BATCH);
        for (i, kind) in kinds.into_iter().enumerate() {
            requests.push(match kind {
                Kind::Function(f) => invoke_request(f.name()),
                Kind::Script => invoke_request(&names[rng.index(names.len())]),
                Kind::Deploy => {
                    let name = format!("fresh{i}");
                    let source = script_source(&mut rng);
                    let raw = deploy_request(&name, &source);
                    scripts.push(source);
                    names.push(name);
                    raw
                }
            });
        }
        GatewayBench {
            seed,
            first_deploys,
            requests,
            scripts,
        }
    }

    /// A gateway over the paper suite with the first scripts deployed;
    /// `None` if a first deploy is refused.
    pub fn gateway(&self) -> Option<Gateway> {
        let mut gateway = Gateway::new(FunctionRegistry::paper_suite(), self.seed);
        for raw in &self.first_deploys {
            if gateway.handle(raw).status != 200 {
                return None;
            }
        }
        Some(gateway)
    }
}

impl Bench for GatewayBench {
    type Ready = Option<Gateway>;

    fn setup(&self) -> Option<Gateway> {
        self.gateway()
    }

    fn round<T: Tracer>(&self, gateway: Option<Gateway>, _round_id: u64, tracer: &mut T) -> Round {
        let n = self.requests.len();
        let mut round = Round {
            ops: n as u64,
            ops_per_digest: 1,
            op_ns: Vec::with_capacity(n),
            digests: Vec::with_capacity(n),
            ..Round::default()
        };
        let Some(mut gateway) = gateway else {
            round.failed = n as u64;
            round.digests = vec![0; n];
            return round;
        };
        for (i, raw) in self.requests.iter().enumerate() {
            let op = i as u64;
            let ((status, wire), ns) = timed(&mut round, || {
                tracer.enter("op", op);
                tracer.enter("gateway.handle", op);
                let response = gateway.handle(raw);
                tracer.exit();
                tracer.enter("gateway.encode", op);
                let wire = response.encode();
                tracer.exit();
                tracer.exit();
                (response.status, wire)
            });
            round.op_ns.push(ns);
            if status != 200 {
                round.failed += 1;
            }
            round.digests.push(fnv1a(&wire));
        }
        round
    }

    fn warm_up(&self) {
        if let Some(mut gateway) = self.gateway() {
            for f in FunctionId::ALL {
                std::hint::black_box(gateway.handle(&invoke_request(f.name())));
            }
        }
    }
}

/// Counts the ops that failed across `rounds`: each round's own
/// failures, every op whose digest differs from the first round's (the
/// same inputs must give the same outputs), and, when `fingerprint` is
/// given, every op of every round if the first round's outputs do not
/// match it.
pub fn failed_ops(rounds: &[Round], fingerprint: Option<u64>) -> u64 {
    let Some(first) = rounds.first() else {
        return 0;
    };
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    if fingerprint.is_some_and(|fp| fp != first.fingerprint()) {
        return attempted;
    }
    let mut failed: u64 = first.failed;
    for round in &rounds[1..] {
        let mismatched = round
            .digests
            .iter()
            .zip(&first.digests)
            .filter(|(a, b)| a != b)
            .count() as u64
            + first.digests.len().abs_diff(round.digests.len()) as u64;
        failed += (round.failed + mismatched * round.ops_per_digest).min(round.ops);
    }
    failed.min(attempted)
}

/// The fingerprint a run at `seed` is checked against: the recorded one
/// at [`DEFAULT_SEED`], none elsewhere.
pub fn expected_fingerprint(workload: Workload, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then(|| workload.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(digests: Vec<u64>) -> Round {
        Round {
            ops: digests.len() as u64,
            ops_per_digest: 1,
            digests,
            ..Round::default()
        }
    }

    #[test]
    fn wrong_fingerprint_counts_as_failed_ops() {
        let rounds = vec![round(vec![1, 2, 3]), round(vec![1, 2, 3])];
        let right = rounds[0].fingerprint();
        assert_eq!(failed_ops(&rounds, Some(right)), 0);
        assert_eq!(failed_ops(&rounds, None), 0);
        assert_eq!(failed_ops(&rounds, Some(right ^ 1)), 6);
    }

    #[test]
    fn output_that_changes_between_rounds_fails() {
        let rounds = vec![round(vec![1, 2, 3]), round(vec![1, 9, 3])];
        assert_eq!(failed_ops(&rounds, None), 1);
    }

    #[test]
    fn a_wrong_gateway_fingerprint_fails_real_ops() {
        let bench = GatewayBench::new(7);
        let short = GatewayBench {
            requests: bench.requests[..40].to_vec(),
            ..bench
        };
        let ready = short.setup();
        let r = short.round(ready, 0, &mut crate::spans::NoSpans);
        assert_eq!(r.failed, 0, "every request answers 200");
        let fp = r.fingerprint();
        let rounds = vec![r];
        assert_eq!(failed_ops(&rounds, Some(fp)), 0);
        assert_eq!(failed_ops(&rounds, Some(fp.wrapping_add(1))), 40);
    }

    /// The spans that nest (`micro.run` and `conventional.run` in a
    /// paper op; `gateway.handle` and `gateway.encode` in a request)
    /// account for the op they sit in, within 10%.
    #[test]
    fn nested_spans_reconcile_with_their_op() {
        let mut spans = crate::spans::Spans::new();
        let paper = PaperBench { seed: 3 };
        paper.round(paper.setup(), 0, &mut spans);
        let gateway = GatewayBench::new(3);
        let short = GatewayBench {
            requests: gateway.requests[..120].to_vec(),
            ..gateway
        };
        short.round(short.setup(), 1, &mut spans);

        let child = spans.child_ns();
        let (mut op_ns, mut covered_ns) = (0u64, 0u64);
        for (span, &child_ns) in spans.spans().iter().zip(&child) {
            if span.name != "op" {
                continue;
            }
            assert!(child_ns <= span.dur_ns());
            op_ns += span.dur_ns();
            covered_ns += child_ns;
            if span.dur_ns() >= 200_000 {
                assert!(
                    child_ns as f64 >= 0.9 * span.dur_ns() as f64,
                    "op {} children cover {child_ns} of {} ns",
                    span.op,
                    span.dur_ns()
                );
            }
        }
        assert!(covered_ns as f64 >= 0.9 * op_ns as f64);
        let names: std::collections::BTreeSet<_> = spans.spans().iter().map(|s| s.name).collect();
        for name in [
            "micro.run",
            "conventional.run",
            "gateway.handle",
            "gateway.encode",
        ] {
            assert!(names.contains(name), "missing span {name}");
        }
    }

    #[test]
    fn gateway_mix_is_deterministic_per_seed() {
        assert_eq!(GatewayBench::new(5).requests, GatewayBench::new(5).requests);
        assert_ne!(GatewayBench::new(5).requests, GatewayBench::new(6).requests);
    }

    #[test]
    fn paper_error_is_relative_to_the_paper() {
        assert_eq!(paper_err_pct(&[PAPER_HEADLINE]), 0.0);
        let mut h = PAPER_HEADLINE;
        h[3] *= 1.1;
        assert!((paper_err_pct(&[h]) - 10.0).abs() < 1e-9);
    }
}
