//! The experiment commands behind each `microfaas <subcommand>`.

use std::path::Path;

use microfaas::arrivals::{Popularity, Scenario, TenantClass};
use microfaas::cache::{CacheConfig, DEFAULT_CACHE_SPEC};
use microfaas::config::WorkloadMix;
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::experiment::{
    compare_suites, conventional_replicates, energy_proportionality, micro_replicates,
    microfaas_reference, policy_sweep, policy_sweep_csv, sbc_scale_sweep, scenario_sweep,
    scenario_sweep_csv, vm_sweep,
};
use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{
    run_open_loop, run_open_loop_attributed, run_open_loop_monitored_streaming,
    run_open_loop_streaming, ArrivalProcess, NullSink, OpenLoopConfig,
};
use microfaas::report::PhaseColumns;
use microfaas::timeline::Timeline;
use microfaas::{FaultsConfig, Jitter};
use microfaas_energy::attribution::{EnergyLedger, IdlePolicy, Phase};
use microfaas_hw::boot::{BootPlatform, BootProfile};
use microfaas_hw::reliability::{simulate_fleet, FleetSpec};
use microfaas_sched::{parse_budget_spec, PolicyParseError};
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{
    evaluate_alerts, export_chrome_trace, export_counter_trace, par_map_indexed,
    validate_chrome_trace, AlertPolicy, CriticalPath, Jobs, MetricsRegistry, Observer, Rng,
    SimDuration, SpanTree, TelemetryConfig, TraceBuffer, TraceRecord,
};
use microfaas_tco::{savings_percent, ClusterSpec, Conditions, CostModel};
use microfaas_workloads::suite::{run_function, FunctionId, ServiceBackends};

use crate::args::{Args, ParseArgsError};
use crate::csv::Csv;

/// Runs the subcommand in `args`, printing human-readable output and
/// optionally exporting CSV via `--csv <path>`.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown subcommands or malformed flags,
/// with the message the binary prints to stderr.
pub fn dispatch(args: &Args) -> Result<(), ParseArgsError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        "compare" => compare(args),
        "boot" => boot(args),
        "sweep" => sweep(args),
        "proportionality" => proportionality(args),
        "tco" => tco(args),
        "workloads" => workloads(args),
        "openloop" => openloop(args),
        "monitor" => monitor(args),
        "energy" => energy(args),
        "sched" => sched(args),
        "scenarios" => scenarios(args),
        "reliability" => reliability(args),
        "timeline" => timeline(args),
        "scale" => scale(args),
        "trace" => trace(args),
        "analyze" => analyze(args),
        "faults" => faults(args),
        other => Err(ParseArgsError(format!(
            "unknown subcommand '{other}'\n\n{}",
            usage()
        ))),
    }
}

/// The help text.
pub fn usage() -> &'static str {
    "microfaas — drive the MicroFaaS reproduction

USAGE: microfaas <subcommand> [--flag value]...

SUBCOMMANDS
  compare          run the full suite on both clusters (Fig. 3 + headline)
                     --invocations N (default 100)  --seed S  --csv PATH
                     --metrics-out PATH (Prometheus text exposition)
                     --faults PATH (JSON fault plan applied to both clusters)
                     --jobs N (parallel runs; default: available cores)
  boot             worker-OS boot-time progression (Fig. 1)
                     --csv PATH
  sweep            conventional-cluster VM sweep (Fig. 4)
                     --max-vms N (default 20)  --invocations N  --seed S  --csv PATH
                     --jobs N (parallel sweep points; default: available cores)
  proportionality  power vs active workers (Fig. 5)
                     --workers N (default 10)  --csv PATH
  tco              5-year lifetime cost (Table II)
                     --utilization F (default 0.5)  --online-rate F (default 0.95)
  workloads        execute all 17 functions for real (Table I)
                     --seed S
  openloop         arrival-driven run with power gating
                     --rate F (jobs/s, default 1.0)
                     --policy work-conserving|random|least-loaded|jsq|warm-first|power-aware
                     --governor reboot-per-job|keep-alive|always-on|warm-pool
                     --duration-secs N (default 600)  --workers N  --seed S
                     --jobs-per-tick N (fixed batch each second instead of Poisson)
                     --arrivals SPEC (generative arrival model, e.g. mmpp:0.1,5,120,15
                       or flash:10,3600,300,500 — see docs/WORKLOADS.md)
                     --popularity SPEC (uniform | zipf:EXP | hot-cold:N,SHARE)
                     --streaming (O(1)-memory results path for million-job runs;
                       see docs/SCALING.md)
                     --cache SPEC (content-addressed result cache: off | on |
                       lru:CAP[,ttl=SECS][,inputs=N] — see docs/CACHING.md)
  monitor          time-resolved telemetry: windowed flight recorder, SLO
                   burn-rate alerts, anomaly detection (docs/MONITORING.md)
                     --rate F (jobs/s, default 1.0)
                     --arrivals SPEC (generative arrival model, e.g.
                       flash:0.2,120,60,40 — see docs/WORKLOADS.md)
                     --policy ... --governor ... (as openloop)
                     --budget SPEC (per-tenant joule caps; breach windows
                       raise critical alerts)
                     --duration-secs N (default 600)  --workers N  --seed S
                     --tenants SPEC (NAME:WEIGHT[:SLO_S] classes, e.g.
                       paid:1:2.5,free:4:30 — per-tenant burn-rate alerts)
                     --slo-target F (attainment target, default 0.95)
                     --window-secs F (tumbling-window width, default 1.0)
                     --max-windows N (flight-recorder bound, default 4096)
                     --cache SPEC (result cache; adds hit-rate telemetry)
                     --csv PATH (per-window time series, byte-identical
                       at every --jobs count)
                     --metrics-out PATH (Prometheus windowed gauges)
                     --perfetto PATH (Chrome trace counter tracks)
                     --jobs N (parallel monitored + baseline runs)
  energy           per-function / per-tenant joule attribution (docs/ENERGY.md)
                     --rate F (jobs/s, default 1.0)  --duration-secs N (default 600)
                     --workers N (default 10)  --seed S (default 2022)
                     --governor reboot-per-job|keep-alive|always-on|warm-pool
                     --idle none|equal|usage-weighted (idle apportionment,
                       default none; all three ledgers are computed and
                       cross-checked, --idle picks the one shown/exported)
                     --tenants [SPEC] (print the per-tenant ledger; SPEC
                       defines weighted classes, e.g. paid:3,free:1)
                     --budget SPEC (per-tenant joule caps, forces the
                       energy-budget governor: CAP_W[,burst=J][,action=
                       shed|defer|throttle])
                     --breakdown (per-function five-phase joule table)
                     --csv PATH (exact-decimal ledger rows, byte-identical
                       at every --jobs count)
                     --metrics-out PATH (Prometheus gauges + the
                       function_energy_j histogram)
                     --jobs N (parallel idle-policy ledgers; default: cores)
  sched            placement x governor sweep with latency-energy Pareto front
                     --rate F (jobs/s, default 0.1 — sparse load, where the
                       warm governors trade energy for latency)
                     --duration-secs N (default 1200)  --workers N (default 10)
                     --seed S (default 1)  --csv PATH (docs/EXPERIMENTS.md columns)
                     --jobs N (parallel sweep points; default: available cores)
                     --cache SPEC (result cache; adds hit-rate columns)
  scenarios        the sched cross product under every traffic regime, with a
                   per-regime energy-delay-product winner (docs/WORKLOADS.md)
                     --spec PATH (scenario JSON; default: the built-in
                       steady/bursty/diurnal/flash-crowd/heavy-tail suite)
                     --duration-secs N (default 1200)  --workers N (default 10)
                     --seed S (default 1)  --csv PATH (docs/EXPERIMENTS.md columns)
                     --jobs N (parallel runs; default: available cores)
                     --cache SPEC (result cache; re-evaluates each regime's winner)
  reliability      MTBF-driven fleet failure simulation
                     --seed S
  timeline         ASCII Gantt of worker activity for a small run
                     --invocations N (default 15)  --width N (default 72)  --seed S
  scale            MicroFaaS worker-count linearity sweep (paper SIII-c)
                     --invocations N (default 30)  --seed S  --csv PATH
                     --jobs N (parallel sweep points; default: available cores)
  trace            record a traced run and export observability artifacts
                     --cluster micro|conventional (default micro)
                     --invocations N (default 25)  --seed S
                     --buffer N (trace capacity, default 1048576)
                     --out PATH (JSON-lines trace)
                     --metrics-out PATH (Prometheus text exposition)
                     --csv PATH (flattened metrics as metric,value rows)
                     --job ID (keep only events causally tied to one job)
                     --type EVENT (keep only one event kind, e.g. net_transfer)
  analyze          derive causal spans and attribute latency to phases
                     --invocations N (default 100)  --seed S
                     --breakdown (add the per-function phase table)
                     --cluster micro|conventional (default micro; selects the
                       trace behind --job and --perfetto)
                     --job ID (print the latency waterfall for one job)
                     --perfetto PATH (Chrome trace-event JSON for Perfetto)
                     --csv PATH (per-job phase durations, both clusters)
                     --jobs N (parallel cluster runs; default: available cores)
  faults           run a cluster under an injected fault plan
                     --plan PATH (default examples/faults_crash.json)
                     --cluster micro|conventional (default micro)
                     --invocations N (default 25)  --seed S
                     --width N (timeline columns, default 72)
                     --out PATH (JSON-lines trace)
                     --metrics-out PATH (Prometheus text exposition)
                     --csv PATH (flattened metrics as metric,value rows)
                     --replicates R (Monte-Carlo over seeds S..S+R-1; prints
                       aggregate stats instead of the single-run timeline)
                     --jobs N (parallel replicates; default: available cores)
  help             this text

Parallel runs are bit-identical to serial: sweeps and replicates fan out
over --jobs threads but gather results in canonical order (set
MICROFAAS_JOBS to change the default; see docs/PERFORMANCE.md)."
}

fn maybe_csv(args: &Args, csv: &Csv) -> Result<(), ParseArgsError> {
    if let Some(path) = args.get_str("csv") {
        csv.write_to(Path::new(path))
            .map_err(|e| ParseArgsError(format!("cannot write '{path}': {e}")))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn write_text(path: &str, text: &str) -> Result<(), ParseArgsError> {
    std::fs::write(path, text)
        .map_err(|e| ParseArgsError(format!("cannot write '{path}': {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// The one shared `--metrics-out PATH` write path: renders the
/// Prometheus exposition (lazily — only when the flag is present) and
/// writes it through [`write_text`], so every subcommand reports the
/// same "cannot write '<path>': <err>" wording. Mirrors the
/// [`reject_conflicts`] consolidation: call sites cannot drift.
fn maybe_metrics_out(args: &Args, render: impl FnOnce() -> String) -> Result<(), ParseArgsError> {
    match args.get_str("metrics-out") {
        Some(path) => write_text(path, &render()),
        None => Ok(()),
    }
}

/// Resolves `--jobs N` (default: available parallelism, overridable via
/// the `MICROFAAS_JOBS` environment variable). Any job count yields
/// bit-identical results — see `docs/PERFORMANCE.md`.
fn jobs_flag(args: &Args) -> Result<Jobs, ParseArgsError> {
    match args.get_str("jobs") {
        None => Ok(Jobs::auto()),
        Some(raw) => raw.parse::<Jobs>().map_err(ParseArgsError),
    }
}

/// Resolves `--cache SPEC` (default: off, which pins the pre-cache
/// golden outputs). `--cache on` expands to [`DEFAULT_CACHE_SPEC`];
/// anything else goes through [`CacheConfig::parse`].
fn cache_flag(args: &Args) -> Result<CacheConfig, ParseArgsError> {
    match args.get_str("cache") {
        None => Ok(CacheConfig::Off),
        Some("on") => CacheConfig::parse(DEFAULT_CACHE_SPEC).map_err(ParseArgsError),
        Some(spec) => CacheConfig::parse(spec).map_err(ParseArgsError),
    }
}

/// The one mutual-exclusion check every subcommand routes conflicting
/// flag pairs through, so the wording is uniform ("--a and --b are
/// mutually exclusive") and a new pair can never silently skip
/// validation the way `--cache` + `--jobs-per-tick` once did.
fn reject_conflicts(args: &Args, pairs: &[(&str, &str)]) -> Result<(), ParseArgsError> {
    for (a, b) in pairs {
        if args.has(a) && args.has(b) {
            return Err(ParseArgsError(format!(
                "--{a} and --{b} are mutually exclusive"
            )));
        }
    }
    Ok(())
}

impl From<PolicyParseError> for ParseArgsError {
    fn from(e: PolicyParseError) -> Self {
        ParseArgsError(e.0)
    }
}

/// A flag value that must be strictly positive (and, for floats,
/// finite).
trait Positive: std::str::FromStr {
    fn is_positive(&self) -> bool;
}

impl Positive for f64 {
    fn is_positive(&self) -> bool {
        self.is_finite() && *self > 0.0
    }
}

impl Positive for usize {
    fn is_positive(&self) -> bool {
        *self > 0
    }
}

impl Positive for u32 {
    fn is_positive(&self) -> bool {
        *self > 0
    }
}

/// Reads `--key` (or `default`) and rejects zero, negative and
/// non-finite values with one wording: "--key must be positive".
fn positive<T: Positive>(args: &Args, key: &str, default: T) -> Result<T, ParseArgsError> {
    let value = args.get_or(key, default)?;
    if value.is_positive() {
        Ok(value)
    } else {
        Err(ParseArgsError(format!("--{key} must be positive")))
    }
}

/// `--duration-secs` as a [`SimDuration`]. A value whose microseconds
/// do not fit in `u64` is an error, where `SimDuration::from_secs` would
/// wrap (release) or panic (debug).
fn duration_flag(args: &Args, default_secs: u64) -> Result<SimDuration, ParseArgsError> {
    let secs = args.get_or("duration-secs", default_secs)?;
    secs.checked_mul(1_000_000)
        .map(SimDuration::from_micros)
        .ok_or_else(|| {
            ParseArgsError(format!(
                "--duration-secs {secs} is too long (at most {} s)",
                u64::MAX / 1_000_000
            ))
        })
}

/// The one open-loop flag parser behind `openloop`, `monitor` and
/// `energy`. It reads every open-loop flag — rate, arrivals,
/// jobs-per-tick, policy, governor, budget, popularity, tenants,
/// workers, seed, duration and cache — and each subcommand's
/// `expect_only` list decides which of them it accepts. Absent flags
/// take the paper's defaults: Poisson arrivals at 1 job/s, random
/// placement, reboot-per-job, uniform popularity, no tenants, 10
/// workers, seed 2022, 600 s and no cache.
///
/// `--arrivals` takes any generative-model spec (docs/WORKLOADS.md);
/// `--jobs-per-tick` switches to the paper's literal fixed-batch
/// arrivals, where batch x duration pins the exact job count (how the
/// 10M-job capacity recipe in docs/SCALING.md is phrased), so it
/// excludes every generative extension. `--budget` forces the
/// energy-budget governor, so it excludes `--governor`.
fn open_loop_config(args: &Args) -> Result<OpenLoopConfig, ParseArgsError> {
    reject_conflicts(
        args,
        &[
            ("arrivals", "jobs-per-tick"),
            ("popularity", "jobs-per-tick"),
            ("cache", "jobs-per-tick"),
            ("budget", "governor"),
        ],
    )?;
    let rate = positive(args, "rate", 1.0f64)?;
    let arrival = if let Some(spec) = args.get_str("arrivals") {
        ArrivalProcess::parse(spec).map_err(ParseArgsError)?
    } else if args.has("jobs-per-tick") {
        ArrivalProcess::EverySecond {
            jobs_per_tick: positive(args, "jobs-per-tick", 0usize)?,
        }
    } else {
        ArrivalProcess::Poisson { per_second: rate }
    };
    let governor = match args.get_str("budget") {
        Some(spec) => parse_budget_spec(spec)?,
        None => args
            .get_str("governor")
            .unwrap_or("reboot-per-job")
            .parse()?,
    };
    Ok(OpenLoopConfig {
        workers: positive(args, "workers", 10usize)?,
        seed: args.get_or("seed", 2022u64)?,
        duration: duration_flag(args, 600)?,
        arrival,
        scheduler: args.get_str("policy").unwrap_or("random").parse()?,
        governor,
        jitter: Jitter::default_run_to_run(),
        functions: FunctionId::ALL.to_vec(),
        popularity: match args.get_str("popularity") {
            Some(spec) => Popularity::parse(spec).map_err(ParseArgsError)?,
            None => Popularity::Uniform,
        },
        tenants: match args.get_str("tenants") {
            Some(spec) => parse_tenant_classes(spec)?,
            None => Vec::new(),
        },
        faults: FaultsConfig::none(),
        cache: cache_flag(args)?,
    })
}

/// Whether the conditional cache-hit summary columns should print: the
/// cache must be on *and* the run must have consulted it at least once.
/// A cached run that recorded zero lookups prints like an uncached one
/// instead of showing a meaningless 0.0% ([`microfaas::cache::CacheStats::hit_rate`]
/// already clamps that division to `0.0`).
fn show_hit_stats(cache: &CacheConfig, lookups: u64) -> bool {
    cache.enabled() && lookups > 0
}

fn load_plan(path: &str) -> Result<FaultPlan, ParseArgsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseArgsError(format!("cannot read '{path}': {e}")))?;
    FaultPlan::from_json(&text).map_err(|e| ParseArgsError(format!("'{path}': {e}")))
}

fn compare(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "invocations",
        "seed",
        "csv",
        "metrics-out",
        "faults",
        "jobs",
    ])?;
    let invocations = args.get_or("invocations", 100u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let jobs = jobs_flag(args)?;
    let plan = args.get_str("faults").map(load_plan).transpose()?;
    let faults = plan
        .clone()
        .map_or_else(FaultsConfig::none, FaultsConfig::with_plan);
    let mut metrics = MetricsRegistry::new();
    let cmp = compare_suites(invocations, seed, &faults, &mut metrics, jobs);

    let mut csv = Csv::new(&[
        "function",
        "micro_exec_ms",
        "micro_overhead_ms",
        "conv_exec_ms",
        "conv_overhead_ms",
    ]);
    println!(
        "{:<13} {:>12} {:>12} {:>12}",
        "function", "uF total", "conv total", "ratio"
    );
    for row in &cmp.rows {
        println!(
            "{:<13} {:>10.0}ms {:>10.0}ms {:>12.2}",
            row.function.name(),
            row.micro_total_ms(),
            row.conv_total_ms(),
            row.micro_total_ms() / row.conv_total_ms()
        );
        csv.row_display(&[
            &row.function.name(),
            &row.micro_exec_ms,
            &row.micro_overhead_ms,
            &row.conv_exec_ms,
            &row.conv_overhead_ms,
        ]);
    }
    println!("\n{}", cmp.micro);
    println!("{}", cmp.conventional);
    println!(
        "efficiency gain: {:.2}x (paper: 5.6x)",
        cmp.efficiency_gain()
    );
    // Only a non-empty plan gets the extra lines, so a run with an
    // empty plan prints byte-identically to a fault-free compare.
    if plan.as_ref().is_some_and(|p| !p.is_empty()) {
        for run in [&cmp.micro, &cmp.conventional] {
            println!(
                "faults [{}]: {} injected, {} requeued, {} retries, {} dropped",
                run.label,
                run.faults.injected,
                run.faults.requeued,
                run.faults.retries,
                run.dropped.len()
            );
        }
    }
    maybe_metrics_out(args, || metrics.render_prometheus())?;
    maybe_csv(args, &csv)
}

fn boot(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["csv"])?;
    let mut csv = Csv::new(&["platform", "stage", "real_s", "cpu_s"]);
    for platform in [BootPlatform::Arm, BootPlatform::X86] {
        println!("--- {platform:?} ---");
        for (stage, time) in BootProfile::progression(platform) {
            let label = stage.map_or("baseline".to_string(), |s| s.to_string());
            println!(
                "{label:<48} {:>6.2}s real {:>6.2}s cpu",
                time.real.as_secs_f64(),
                time.cpu.as_secs_f64()
            );
            csv.row_display(&[
                &format!("{platform:?}"),
                &label,
                &time.real.as_secs_f64(),
                &time.cpu.as_secs_f64(),
            ]);
        }
    }
    maybe_csv(args, &csv)
}

fn sweep(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["max-vms", "invocations", "seed", "csv", "jobs"])?;
    let max_vms = args.get_or("max-vms", 20usize)?;
    let invocations = args.get_or("invocations", 40u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let jobs = jobs_flag(args)?;
    let reference = microfaas_reference(invocations, seed);
    let points = vm_sweep(max_vms, invocations, seed, jobs);
    let mut csv = Csv::new(&["vms", "func_per_min", "joules_per_function"]);
    println!(
        "(MicroFaaS reference: {:.1} f/min, {:.2} J/func)",
        reference.functions_per_minute, reference.joules_per_function
    );
    println!("{:>4} {:>14} {:>12}", "VMs", "func/min", "J/func");
    for point in &points {
        println!(
            "{:>4} {:>14.1} {:>12.2}",
            point.vms, point.functions_per_minute, point.joules_per_function
        );
        csv.row_display(&[
            &point.vms,
            &point.functions_per_minute,
            &point.joules_per_function,
        ]);
    }
    maybe_csv(args, &csv)
}

fn proportionality(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["workers", "csv"])?;
    let workers = args.get_or("workers", 10usize)?;
    let series = energy_proportionality(workers);
    let mut csv = Csv::new(&["active", "sbc_watts", "server_watts"]);
    println!(
        "{:>8} {:>14} {:>14}",
        "active", "SBC cluster", "rack server"
    );
    for point in &series {
        println!(
            "{:>8} {:>12.2} W {:>12.2} W",
            point.active_workers, point.sbc_cluster_watts, point.vm_cluster_watts
        );
        csv.row_display(&[
            &point.active_workers,
            &point.sbc_cluster_watts,
            &point.vm_cluster_watts,
        ]);
    }
    maybe_csv(args, &csv)
}

fn tco(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["utilization", "online-rate"])?;
    let utilization = args.get_or("utilization", 0.5f64)?;
    let online_rate = args.get_or("online-rate", 0.95f64)?;
    if !(0.0..=1.0).contains(&utilization) || online_rate <= 0.0 || online_rate > 1.0 {
        return Err(ParseArgsError(
            "utilization must be in [0,1]; online-rate in (0,1]".to_string(),
        ));
    }
    let model = CostModel::benchmark_datacenter();
    let conditions = Conditions {
        utilization,
        online_rate,
    };
    let conv = model.evaluate(&ClusterSpec::conventional_rack(), conditions);
    let micro = model.evaluate(&ClusterSpec::microfaas_rack(), conditions);
    println!(
        "conditions: {:.0}% utilization, {:.1}% online rate",
        utilization * 100.0,
        online_rate * 100.0
    );
    println!("  {conv}");
    println!("  {micro}");
    println!("  MicroFaaS saves {:.1}%", savings_percent(&conv, &micro));
    Ok(())
}

fn workloads(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["seed"])?;
    let seed = args.get_or("seed", 7u64)?;
    let mut backends = ServiceBackends::seeded();
    let mut rng = Rng::new(seed);
    for function in FunctionId::ALL {
        match run_function(function, 1, &mut rng, &mut backends) {
            Ok(out) => println!("{:<13} {}", function.name(), out.summary),
            Err(e) => return Err(ParseArgsError(format!("{function} failed: {e}"))),
        }
    }
    Ok(())
}

fn openloop(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "rate",
        "policy",
        "governor",
        "duration-secs",
        "workers",
        "seed",
        "streaming",
        "jobs-per-tick",
        "arrivals",
        "popularity",
        "cache",
    ])?;
    let config = open_loop_config(args)?;
    let run = if args.has("streaming") {
        run_open_loop_streaming(&config, &mut NullSink)
    } else {
        run_open_loop(&config)
    };
    println!(
        "policy:           {} / {}",
        config.scheduler, config.governor
    );
    if args.has("streaming") {
        println!("results path:     streaming (O(1)-memory aggregates)");
    }
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("p95 latency:      {:.2} s", run.p95_latency_s);
    println!("mean power:       {:.2} W", run.mean_power_w);
    println!("energy/function:  {:.2} J", run.joules_per_function);
    println!(
        "mean powered-on:  {:.2} of {} workers",
        run.mean_powered_on, config.workers
    );
    println!("power cycles:     {}", run.power_cycles);
    // Cache lines appear only with --cache (and only when the run
    // actually consulted the cache), so the default output is
    // byte-identical to pre-cache builds.
    if show_hit_stats(
        &config.cache,
        run.cache_hits + run.cache_misses + run.cache_coalesced,
    ) {
        let served = run.cache_hits + run.cache_coalesced;
        let rate = if run.completed > 0 {
            served as f64 / run.completed as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "result cache:     {} hits + {} coalesced = {served} served free \
             ({rate:.1}% of completions, {} misses)",
            run.cache_hits, run.cache_coalesced, run.cache_misses
        );
    }
    Ok(())
}

/// The `monitor` subcommand: an open-loop run on the streaming path
/// with the telemetry flight recorder attached, plus burn-rate /
/// anomaly alert evaluation over the windowed series. Always runs the
/// identically-configured *unmonitored* streaming engine alongside
/// (fanned over `--jobs`) and cross-checks the aggregates, making the
/// "telemetry perturbs nothing" contract an executable assertion on
/// every invocation. See `docs/MONITORING.md`.
fn monitor(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "rate",
        "arrivals",
        "policy",
        "governor",
        "budget",
        "duration-secs",
        "workers",
        "seed",
        "tenants",
        "slo-target",
        "window-secs",
        "max-windows",
        "cache",
        "csv",
        "metrics-out",
        "perfetto",
        "jobs",
    ])?;
    let config = open_loop_config(args)?;
    let window_secs = positive(args, "window-secs", 1.0f64)?;
    let max_windows = positive(args, "max-windows", 4096usize)?;
    let slo_target = args.get_or("slo-target", 0.95f64)?;
    if !(slo_target > 0.0 && slo_target < 1.0) {
        return Err(ParseArgsError(
            "--slo-target must be strictly between 0 and 1".to_string(),
        ));
    }
    let telemetry = TelemetryConfig {
        window: SimDuration::from_secs_f64(window_secs),
        max_windows,
        ..TelemetryConfig::default()
    };
    let alert_policy = AlertPolicy {
        slo_target,
        ..AlertPolicy::default()
    };
    let jobs = jobs_flag(args)?;

    // Task 0 runs monitored, task 1 runs the plain streaming engine on
    // the same config. Both fan over --jobs and must agree exactly —
    // the recorder consumes no RNG draws.
    let mut results = par_map_indexed(jobs, 2, |i| {
        if i == 0 {
            let (run, series) = run_open_loop_monitored_streaming(&config, &telemetry);
            (run, Some(series))
        } else {
            (run_open_loop_streaming(&config, &mut NullSink), None)
        }
    });
    let (baseline, _) = results.pop().expect("two tasks");
    let (run, series) = results.pop().expect("two tasks");
    let series = series.expect("task 0 is the monitored run");
    if run.completed != baseline.completed
        || run.mean_power_w != baseline.mean_power_w
        || run.power_cycles != baseline.power_cycles
    {
        return Err(ParseArgsError(
            "telemetry perturbed the run: monitored and unmonitored aggregates disagree"
                .to_string(),
        ));
    }

    println!(
        "policy:           {} / {}",
        config.scheduler, config.governor
    );
    println!(
        "telemetry:        {} windows x {:.3} s (dropped {}), verified inert",
        series.windows.len(),
        series.window.as_secs_f64(),
        series.dropped_windows
    );
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("p95 latency:      {:.2} s", run.p95_latency_s);
    println!("mean power:       {:.2} W", run.mean_power_w);
    println!("windowed energy:  {:.1} J", series.total_energy_j());
    if let Some(cap_w) = config.governor.budget_cap_w() {
        println!("budget cap:       {cap_w:.1} W per tenant");
    }
    if let Some(peak) = series
        .windows
        .iter()
        .max_by(|a, b| a.throughput_per_s().total_cmp(&b.throughput_per_s()))
    {
        println!(
            "peak throughput:  {:.1} jobs/s in window {} (t = {:.0} s)",
            peak.throughput_per_s(),
            peak.index,
            peak.start.as_secs_f64()
        );
    }
    if let Some(peak) = series
        .windows
        .iter()
        .max_by(|a, b| a.queue_depth.total_cmp(&b.queue_depth))
    {
        println!(
            "peak queue depth: {:.1} jobs in window {} (t = {:.0} s)",
            peak.queue_depth,
            peak.index,
            peak.start.as_secs_f64()
        );
    }
    for (t, spec) in series.tenants.iter().enumerate() {
        let completed: u64 = series.windows.iter().map(|w| w.tenants[t].completed).sum();
        let hits: u64 = series.windows.iter().map(|w| w.tenants[t].slo_hits).sum();
        let attainment = if completed > 0 {
            hits as f64 / completed as f64 * 100.0
        } else {
            100.0
        };
        println!(
            "tenant {:<10} {completed} completed, {attainment:.2}% in SLO (target {:.1}%)",
            format!("{}:", spec.name),
            slo_target * 100.0
        );
    }

    let alerts = evaluate_alerts(&series, &alert_policy);
    if alerts.is_empty() {
        println!("\nalerts:           none");
    } else {
        println!(
            "\n{:<28} {:>8} {:>9} {:>10} {:>8}",
            "alert", "severity", "fired_s", "resolved_s", "peak"
        );
        for alert in &alerts {
            let fired = alert.fired.as_secs_f64();
            let resolved = match alert.resolved {
                Some(at) => format!("{:.0}", at.as_secs_f64()),
                None => "active".to_string(),
            };
            println!(
                "{:<28} {:>8} {fired:>9.0} {resolved:>10} {:>8.2}",
                alert.signal.to_string(),
                alert.severity.label(),
                alert.peak
            );
        }
    }

    if let Some(path) = args.get_str("csv") {
        // Fixed-decimal rendering: byte-identical at every --jobs count
        // (ci/check.sh compares 1 vs 2).
        write_text(path, &series.to_csv())?;
    }
    maybe_metrics_out(args, || series.render_prometheus())?;
    if let Some(path) = args.get_str("perfetto") {
        write_text(
            path,
            &export_counter_trace(&series.counter_tracks(), "monitor"),
        )?;
    }
    Ok(())
}

/// Parses the `--tenants` spec: comma-separated `NAME:WEIGHT[:SLO_S]`
/// classes (`paid:3,free:1`). Weights are relative arrival shares; the
/// SLO defaults to a permissive 60 s since the energy subcommand
/// reports joules, not attainment.
fn parse_tenant_classes(spec: &str) -> Result<Vec<TenantClass>, ParseArgsError> {
    let mut classes = Vec::new();
    for part in spec.split(',') {
        let mut fields = part.split(':');
        let name = fields.next().unwrap_or_default();
        let weight: f64 = fields
            .next()
            .ok_or_else(|| {
                ParseArgsError(format!(
                    "tenant '{part}' must be NAME:WEIGHT[:SLO_S] (e.g. paid:3,free:1)"
                ))
            })?
            .parse()
            .map_err(|_| ParseArgsError(format!("tenant '{part}' weight is not a number")))?;
        let slo_latency_s: f64 = match fields.next() {
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseArgsError(format!("tenant '{part}' SLO is not a number")))?,
            None => 60.0,
        };
        if name.is_empty()
            || fields.next().is_some()
            || !weight.is_finite()
            || weight <= 0.0
            || !slo_latency_s.is_finite()
            || slo_latency_s <= 0.0
        {
            return Err(ParseArgsError(format!(
                "tenant '{part}' needs a name, a positive weight, and a positive SLO"
            )));
        }
        classes.push(TenantClass {
            name: name.to_string(),
            weight,
            slo_latency_s,
        });
    }
    Ok(classes)
}

/// Picojoules as display joules (tables only; exports keep the exact
/// integer-decimal rendering from the ledger).
fn pj_as_j(pj: u128) -> f64 {
    pj as f64 / 1e12
}

fn energy(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "rate",
        "duration-secs",
        "workers",
        "seed",
        "governor",
        "idle",
        "tenants",
        "budget",
        "breakdown",
        "csv",
        "metrics-out",
        "jobs",
    ])?;
    let config = open_loop_config(args)?;
    let idle: IdlePolicy = args
        .get_str("idle")
        .unwrap_or("none")
        .parse()
        .map_err(ParseArgsError)?;
    let jobs = jobs_flag(args)?;

    // All three idle-policy ledgers come from identically-seeded runs
    // (fanned over --jobs); attribution never perturbs the simulation,
    // so the runs agree and only the idle apportionment differs.
    let results: Vec<(microfaas::openloop::OpenLoopRun, EnergyLedger)> =
        par_map_indexed(jobs, IdlePolicy::ALL.len(), |i| {
            run_open_loop_attributed(&config, IdlePolicy::ALL[i])
        });
    for (_, ledger) in &results {
        if !ledger.conserves() {
            return Err(ParseArgsError(format!(
                "conservation violated under --idle {}: attributed + idle != total",
                ledger.policy()
            )));
        }
    }
    let total_pj = results[0].1.total_pj();
    if results.iter().any(|(_, l)| l.total_pj() != total_pj) {
        return Err(ParseArgsError(
            "idle-policy ledgers disagree on whole-cluster picojoules".to_string(),
        ));
    }
    let sel = IdlePolicy::ALL
        .iter()
        .position(|p| *p == idle)
        .expect("IdlePolicy::ALL covers every policy");
    let (run, ledger) = &results[sel];

    // `energy` accepts no --arrivals, so this is the Poisson --rate.
    let rate = config
        .arrival
        .mean_per_second(config.duration.as_secs_f64());
    println!(
        "energy attribution: {} workers, {rate} jobs/s for {:.0} s, seed {}",
        config.workers,
        config.duration.as_secs_f64(),
        config.seed
    );
    println!("governor:         {}", config.governor.label());
    if let Some(spec) = args.get_str("budget") {
        println!("tenant budget:    {spec} (breaches gate admission)");
    }
    println!("idle policy:      {idle}");
    println!("completed:        {}", run.completed);
    println!("mean latency:     {:.2} s", run.mean_latency_s);
    println!("energy/function:  {:.2} J", run.joules_per_function);
    let attributed_pj = total_pj - ledger.idle_pj();
    println!(
        "cluster energy:   {:.2} J = {:.2} J attributed + {:.2} J idle pool",
        pj_as_j(total_pj),
        pj_as_j(attributed_pj),
        pj_as_j(ledger.idle_pj())
    );
    println!("conservation:     attributed + idle == total, bit-exact in pJ (all idle policies)");

    if args.has("breakdown") {
        println!(
            "\n{:<13} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "function",
            "jobs",
            "queue_j",
            "boot_j",
            "exec_j",
            "over_j",
            "resp_j",
            "idle_j",
            "total_j"
        );
        for (f, name) in ledger.functions().iter().enumerate() {
            let total = ledger.function_attributed_pj(f) + ledger.function_idle_pj(f);
            print!("{:<13} {:>6}", name, ledger.function_completions(f));
            for phase in Phase::ALL {
                print!(" {:>9.3}", pj_as_j(ledger.function_phase_pj(f, phase)));
            }
            println!(
                " {:>9.3} {:>9.3}",
                pj_as_j(ledger.function_idle_pj(f)),
                pj_as_j(total)
            );
        }
    }
    if args.has("tenants") {
        println!(
            "\n{:<13} {:>6} {:>12} {:>9} {:>9}",
            "tenant", "jobs", "attributed_j", "idle_j", "total_j"
        );
        for (t, name) in ledger.tenants().iter().enumerate() {
            println!(
                "{:<13} {:>6} {:>12.3} {:>9.3} {:>9.3}",
                name,
                ledger.tenant_completions(t),
                pj_as_j(ledger.tenant_attributed_pj(t)),
                pj_as_j(ledger.tenant_idle_pj(t)),
                pj_as_j(ledger.tenant_attributed_pj(t) + ledger.tenant_idle_pj(t))
            );
        }
    }
    maybe_metrics_out(args, || ledger.render_prometheus())?;
    if let Some(path) = args.get_str("csv") {
        // Ledger-rendered exact decimals, so --jobs N output is
        // byte-identical for every N (ci/check.sh compares them).
        write_text(path, &ledger.to_csv())?;
    }
    Ok(())
}

fn sched(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "rate",
        "duration-secs",
        "workers",
        "seed",
        "jobs",
        "csv",
        "cache",
    ])?;
    let rate = positive(args, "rate", 0.1f64)?;
    let duration = duration_flag(args, 1200)?;
    let workers = positive(args, "workers", 10usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let jobs = jobs_flag(args)?;
    let cache = cache_flag(args)?;
    let points = policy_sweep(rate, duration, workers, seed, &cache, jobs);
    println!(
        "policy sweep: {} workers, {rate} jobs/s for {:.0} s, seed {seed} \
         ({} placement x governor points)",
        workers,
        duration.as_secs_f64(),
        points.len()
    );
    // The hit-rate column exists only with --cache and at least one
    // recorded lookup, keeping default output byte-identical to
    // pre-cache builds (and cached-but-idle sweeps free of a
    // meaningless 0.0% column).
    let show_hits = show_hit_stats(&cache, points.iter().map(|p| p.cache_lookups).sum());
    if show_hits {
        println!(
            "{:<20} {:<14} {:>6} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}  pareto",
            "placement",
            "governor",
            "done",
            "mean_lat",
            "p95_lat",
            "watts",
            "J/func",
            "cycles",
            "hit%"
        );
    } else {
        println!(
            "{:<20} {:<14} {:>6} {:>9} {:>9} {:>8} {:>8} {:>7}  pareto",
            "placement", "governor", "done", "mean_lat", "p95_lat", "watts", "J/func", "cycles"
        );
    }
    for p in &points {
        let hit_col = if show_hits {
            format!(" {:>6.1}%", p.hit_rate * 100.0)
        } else {
            String::new()
        };
        println!(
            "{:<20} {:<14} {:>6} {:>8.2}s {:>8.2}s {:>8.2} {:>8.2} {:>7}{hit_col} {}",
            p.placement.label(),
            p.governor.label(),
            p.completed,
            p.mean_latency_s,
            p.p95_latency_s,
            p.mean_power_w,
            p.joules_per_function,
            p.power_cycles,
            if p.pareto { "   *" } else { "" }
        );
    }
    let front: Vec<String> = points
        .iter()
        .filter(|p| p.pareto)
        .map(|p| format!("{}/{}", p.placement.label(), p.governor.label()))
        .collect();
    println!("\nlatency-energy Pareto front: {}", front.join(", "));
    if let Some(path) = args.get_str("csv") {
        // The CSV is rendered by the library so --jobs N output is
        // byte-identical for every N (ci/check.sh compares them).
        write_text(path, &policy_sweep_csv(&points))?;
    }
    Ok(())
}

fn scenarios(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "spec",
        "duration-secs",
        "workers",
        "seed",
        "jobs",
        "csv",
        "cache",
    ])?;
    let suite = match args.get_str("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseArgsError(format!("cannot read {path}: {e}")))?;
            Scenario::from_json(&text).map_err(ParseArgsError)?
        }
        None => Scenario::standard_suite(),
    };
    let duration = duration_flag(args, 1200)?;
    let workers = positive(args, "workers", 10usize)?;
    let seed = args.get_or("seed", 1u64)?;
    let jobs = jobs_flag(args)?;
    let cache = cache_flag(args)?;
    let outcomes = scenario_sweep(&suite, duration, workers, seed, &cache, jobs);
    println!(
        "scenario sweep: {} regime(s) x {} policy points, {workers} workers \
         for {:.0} s, seed {seed}",
        outcomes.len(),
        outcomes.first().map_or(0, |o| o.points.len()),
        duration.as_secs_f64()
    );
    // The winner table is re-evaluated over the measured (cached)
    // coordinates, so --cache can flip a regime's EDP winner; the
    // hit-rate column appears only when a cache runs and recorded a
    // lookup, keeping default output byte-identical to pre-cache
    // builds.
    let show_hits = show_hit_stats(
        &cache,
        outcomes
            .iter()
            .flat_map(|o| o.points.iter().map(|p| p.cache_lookups))
            .sum(),
    );
    if show_hits {
        println!(
            "{:<12} {:<20} {:<14} {:>8} {:>9} {:>8} {:>7} {:>9}",
            "regime",
            "winner placement",
            "governor",
            "mean_lat",
            "J/func",
            "watts",
            "hit%",
            "worst-SLO"
        );
    } else {
        println!(
            "{:<12} {:<20} {:<14} {:>8} {:>9} {:>8} {:>9}",
            "regime", "winner placement", "governor", "mean_lat", "J/func", "watts", "worst-SLO"
        );
    }
    for outcome in &outcomes {
        let p = outcome.winning_point();
        let worst = outcome.slo_attainment[outcome.winner];
        let hit_col = if show_hits {
            format!(" {:>6.1}%", p.hit_rate * 100.0)
        } else {
            String::new()
        };
        println!(
            "{:<12} {:<20} {:<14} {:>7.2}s {:>9.2} {:>8.2}{hit_col} {:>9}",
            outcome.scenario.name,
            p.placement.label(),
            p.governor.label(),
            p.mean_latency_s,
            p.joules_per_function,
            p.mean_power_w,
            if worst.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}%", worst * 100.0)
            }
        );
    }
    println!("\nwinner = lowest energy-delay product (mean latency x J/func) per regime");
    if let Some(path) = args.get_str("csv") {
        // Library-rendered so --jobs N output is byte-identical for
        // every N (ci/check.sh compares them).
        write_text(path, &scenario_sweep_csv(&outcomes))?;
    }
    Ok(())
}

fn reliability(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["seed"])?;
    let seed = args.get_or("seed", 2022u64)?;
    let mut rng = Rng::new(seed);
    for (label, spec) in [
        ("MicroFaaS (989 SBCs)", FleetSpec::microfaas_rack()),
        ("Conventional (41 servers)", FleetSpec::conventional_rack()),
    ] {
        let report = simulate_fleet(&spec, &mut rng);
        println!(
            "{label:<26} {} failures over 5y, {:.2}% replaced, {:.5}% online",
            report.failures,
            report.replaced_fraction * 100.0,
            report.online_rate * 100.0
        );
    }
    Ok(())
}

fn timeline(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["invocations", "width", "seed"])?;
    let invocations = args.get_or("invocations", 15u32)?;
    let width = positive(args, "width", 72usize)?;
    let seed = args.get_or("seed", 2022u64)?;
    let run = microfaas::micro::run_microfaas(&microfaas::micro::MicroFaasConfig::paper_prototype(
        microfaas::config::WorkloadMix::new(FunctionId::ALL.to_vec(), invocations),
        seed,
    ));
    let timeline = microfaas::timeline::Timeline::from_run(&run);
    print!("{}", timeline.render(width));
    if let Some(gap) = timeline.mean_gap() {
        println!("mean inter-job gap: {gap} (the 1.51 s reboot)");
    }
    println!("{run}");
    Ok(())
}

fn scale(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&["invocations", "seed", "csv", "jobs"])?;
    let invocations = args.get_or("invocations", 30u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let jobs = jobs_flag(args)?;
    let points = sbc_scale_sweep(&[5, 10, 20, 40, 80], invocations, seed, jobs);
    let mut csv = Csv::new(&["workers", "func_per_min", "per_node", "joules_per_function"]);
    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "workers", "func/min", "per node", "J/func"
    );
    for point in &points {
        let per_node = point.functions_per_minute / point.workers as f64;
        println!(
            "{:>8} {:>14.1} {:>12.2} {:>10.2}",
            point.workers, point.functions_per_minute, per_node, point.joules_per_function
        );
        csv.row_display(&[
            &point.workers,
            &point.functions_per_minute,
            &per_node,
            &point.joules_per_function,
        ]);
    }
    println!("\nper-node rate and J/func stay flat: capacity and cost scale linearly (SIII-c).");
    maybe_csv(args, &csv)
}

fn trace(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "cluster",
        "invocations",
        "seed",
        "buffer",
        "out",
        "metrics-out",
        "csv",
        "job",
        "type",
    ])?;
    let invocations = args.get_or("invocations", 25u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let capacity = positive(args, "buffer", 1_048_576usize)?;
    let job_filter = if args.has("job") {
        Some(args.get_or("job", 0u64)?)
    } else {
        None
    };
    let kind_filter = args.get_str("type").filter(|k| !k.is_empty());
    if args.has("type") && kind_filter.is_none() {
        return Err(ParseArgsError(
            "--type requires an event kind (e.g. --type net_transfer)".to_string(),
        ));
    }
    let mix = evaluation_mix(invocations);
    let mut buffer = TraceBuffer::new(capacity);
    let mut metrics = MetricsRegistry::new();
    let cluster = args.get_str("cluster").unwrap_or("micro");
    let run = {
        let mut observer = Observer::full(&mut buffer, &mut metrics);
        match cluster {
            "micro" => {
                run_microfaas_with(&MicroFaasConfig::paper_prototype(mix, seed), &mut observer)
            }
            "conventional" => run_conventional_with(
                &ConventionalConfig::paper_baseline(mix, seed),
                &mut observer,
            ),
            other => {
                return Err(ParseArgsError(format!(
                    "unknown cluster '{other}' (micro | conventional)"
                )))
            }
        }
    };

    println!(
        "captured {} events ({} dropped by the ring buffer)",
        buffer.len(),
        buffer.dropped()
    );
    let filtered = job_filter.is_some() || kind_filter.is_some();
    let selected: Vec<&TraceRecord> = buffer
        .iter()
        .filter(|record| {
            job_filter.is_none_or(|id| record.event.job_id() == Some(id))
                && kind_filter.is_none_or(|kind| record.event.kind() == kind)
        })
        .collect();
    if filtered {
        println!(
            "{} of {} events match the filters",
            selected.len(),
            buffer.len()
        );
        for record in &selected {
            println!("{}", record.to_json());
        }
    } else {
        let mut kinds: Vec<(&'static str, usize)> = Vec::new();
        for record in buffer.iter() {
            let kind = record.event.kind();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        for (kind, n) in &kinds {
            println!("  {kind:<20} {n:>7}");
        }
        let timeline = Timeline::from_trace(buffer.iter(), run.workers);
        match timeline.overlap_violation() {
            None => println!("single-tenancy check on the reconstructed Gantt: OK"),
            Some((a, b)) => {
                return Err(ParseArgsError(format!(
                    "trace violates single tenancy: {a:?} overlaps {b:?}"
                )))
            }
        }
        println!("{run}");
    }

    if let Some(path) = args.get_str("out") {
        if filtered {
            let mut lines = String::new();
            for record in &selected {
                lines.push_str(&record.to_json());
                lines.push('\n');
            }
            write_text(path, &lines)?;
        } else {
            write_text(path, &buffer.to_json_lines())?;
        }
    }
    maybe_metrics_out(args, || metrics.render_prometheus())?;
    let mut csv = Csv::new(&["metric", "value"]);
    for (name, value) in metrics.flatten() {
        csv.row_display(&[&name, &value]);
    }
    maybe_csv(args, &csv)
}

fn analyze(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "invocations",
        "seed",
        "jobs",
        "breakdown",
        "cluster",
        "job",
        "perfetto",
        "csv",
    ])?;
    let invocations = args.get_or("invocations", 100u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let jobs = jobs_flag(args)?;
    let cluster = args.get_str("cluster").unwrap_or("micro");
    if !matches!(cluster, "micro" | "conventional") {
        return Err(ParseArgsError(format!(
            "unknown cluster '{cluster}' (micro | conventional)"
        )));
    }
    let mix = evaluation_mix(invocations);

    // Both clusters run traced, fanned over the PR 3 exec engine; each
    // closure owns its buffer so the derived trees are --jobs invariant.
    let mut trees = par_map_indexed(jobs, 2, |i| {
        let mut buffer = TraceBuffer::new(1 << 22);
        let mut metrics = MetricsRegistry::new();
        let mut observer = Observer::full(&mut buffer, &mut metrics);
        if i == 0 {
            run_microfaas_with(
                &MicroFaasConfig::paper_prototype(mix.clone(), seed),
                &mut observer,
            );
        } else {
            run_conventional_with(
                &ConventionalConfig::paper_baseline(mix.clone(), seed),
                &mut observer,
            );
        }
        if buffer.dropped() > 0 {
            return Err(format!(
                "trace ring buffer dropped {} events; spans would be incomplete",
                buffer.dropped()
            ));
        }
        Ok(SpanTree::from_buffer(&buffer))
    })
    .into_iter();
    let micro = trees.next().expect("two runs").map_err(ParseArgsError)?;
    let conv = trees.next().expect("two runs").map_err(ParseArgsError)?;

    for (label, tree) in [("micro", &micro), ("conventional", &conv)] {
        println!(
            "{label:<13} {} spans derived ({} skipped) · {} workers · horizon {:.3} s",
            tree.jobs().len(),
            tree.skipped(),
            tree.worker_count(),
            tree.end().as_secs_f64()
        );
        println!("              {}", PhaseColumns::from_spans(tree.jobs()));
        for span in tree.jobs() {
            let sum: u64 = span.phases().iter().map(|d| d.as_micros()).sum();
            if sum != span.end_to_end().as_micros() {
                return Err(ParseArgsError(format!(
                    "phase decomposition broke for {label} job #{}: phases sum to \
                     {sum} us but end-to-end is {} us",
                    span.job,
                    span.end_to_end().as_micros()
                )));
            }
        }
    }
    println!("phase decomposition check: every span's phases sum to its end-to-end latency\n");

    let mut micro_path = CriticalPath::analyze(&micro);
    let mut conv_path = CriticalPath::analyze(&conv);
    println!("{}", micro_path.cluster_breakdown("micro"));
    println!("{}", conv_path.cluster_breakdown("conventional"));
    if args.has("breakdown") {
        println!("micro per-function:\n{}", micro_path.function_breakdown());
        println!(
            "conventional per-function:\n{}",
            conv_path.function_breakdown()
        );
    }

    let chosen = if cluster == "micro" { &micro } else { &conv };
    if args.has("job") {
        let id = args.get_or("job", 0u64)?;
        match chosen.job(id) {
            Some(span) => println!("{}", span.waterfall()),
            None => {
                return Err(ParseArgsError(format!(
                    "no completed job #{id} in the {cluster} trace (ids run 0..{})",
                    chosen.jobs().last().map_or(0, |s| s.job)
                )))
            }
        }
    }
    if let Some(path) = args.get_str("perfetto") {
        if path.is_empty() {
            return Err(ParseArgsError("--perfetto requires a path".to_string()));
        }
        let json = export_chrome_trace(chosen, cluster);
        let summary = validate_chrome_trace(&json)
            .map_err(|e| ParseArgsError(format!("perfetto export failed validation: {e}")))?;
        write_text(path, &json)?;
        println!(
            "perfetto export ({cluster}): {} events — {} slices, {} instants, \
             {} metadata; load at ui.perfetto.dev",
            summary.events, summary.complete, summary.instant, summary.metadata
        );
    }

    let mut csv = Csv::new(&[
        "cluster",
        "job",
        "function",
        "worker",
        "queue_us",
        "boot_us",
        "exec_us",
        "overhead_us",
        "response_us",
        "end_to_end_us",
    ]);
    for (label, tree) in [("micro", &micro), ("conventional", &conv)] {
        for span in tree.jobs() {
            let phases = span.phases();
            csv.row_display(&[
                &label,
                &span.job,
                &span.function,
                &span.worker,
                &phases[0].as_micros(),
                &phases[1].as_micros(),
                &phases[2].as_micros(),
                &phases[3].as_micros(),
                &phases[4].as_micros(),
                &span.end_to_end().as_micros(),
            ]);
        }
    }
    maybe_csv(args, &csv)
}

fn faults(args: &Args) -> Result<(), ParseArgsError> {
    args.expect_only(&[
        "plan",
        "cluster",
        "invocations",
        "seed",
        "width",
        "out",
        "metrics-out",
        "csv",
        "jobs",
        "replicates",
    ])?;
    let path = args.get_str("plan").unwrap_or("examples/faults_crash.json");
    let plan = load_plan(path)?;
    let invocations = args.get_or("invocations", 25u32)?;
    let seed = args.get_or("seed", 2022u64)?;
    let width = positive(args, "width", 72usize)?;
    let jobs = jobs_flag(args)?;
    let replicates = positive(args, "replicates", 1u32)?;
    if replicates > 1 {
        return faults_replicated(args, path, plan, invocations, seed, jobs, replicates);
    }
    let mix = evaluation_mix(invocations);
    let submitted = mix.total_jobs();
    let mut buffer = TraceBuffer::new(1_048_576);
    let mut metrics = MetricsRegistry::new();
    let cluster = args.get_str("cluster").unwrap_or("micro");
    let run = {
        let mut observer = Observer::full(&mut buffer, &mut metrics);
        match cluster {
            "micro" => {
                let mut config = MicroFaasConfig::paper_prototype(mix, seed);
                config.faults = FaultsConfig::with_plan(plan);
                run_microfaas_with(&config, &mut observer)
            }
            "conventional" => {
                let mut config = ConventionalConfig::paper_baseline(mix, seed);
                config.faults = FaultsConfig::with_plan(plan);
                run_conventional_with(&config, &mut observer)
            }
            other => {
                return Err(ParseArgsError(format!(
                    "unknown cluster '{other}' (micro | conventional)"
                )))
            }
        }
    };

    println!("fault plan: {path}");
    println!("faults injected:   {}", run.faults.injected);
    println!("jobs requeued:     {}", run.faults.requeued);
    println!("retries scheduled: {}", run.faults.retries);
    println!("timed out:         {}", run.timed_out());
    println!("shed:              {}", run.shed());
    println!("failed:            {}", run.failed());
    println!(
        "accounted:         {} of {} submitted",
        run.jobs_accounted(),
        submitted
    );
    let timeline = Timeline::from_trace(buffer.iter(), run.workers);
    println!("\ntimeline (`#` busy, `x` crashed, `.` not executing):");
    print!("{}", timeline.render(width));
    println!("{run}");

    if let Some(path) = args.get_str("out") {
        write_text(path, &buffer.to_json_lines())?;
    }
    maybe_metrics_out(args, || metrics.render_prometheus())?;
    let mut csv = Csv::new(&["metric", "value"]);
    for (name, value) in metrics.flatten() {
        csv.row_display(&[&name, &value]);
    }
    maybe_csv(args, &csv)
}

/// The `faults --replicates R` Monte-Carlo mode: runs `R` seed
/// replicates of the faulted cluster concurrently (under `--jobs`) and
/// prints aggregate statistics instead of a single-run timeline. The
/// per-seed runs are aggregated in canonical seed order, so the numbers
/// are bit-identical at every job count.
fn faults_replicated(
    args: &Args,
    path: &str,
    plan: FaultPlan,
    invocations: u32,
    seed: u64,
    jobs: Jobs,
    replicates: u32,
) -> Result<(), ParseArgsError> {
    for flag in ["out", "metrics-out"] {
        if args.get_str(flag).is_some() {
            return Err(ParseArgsError(format!(
                "--{flag} exports single-run artifacts; drop it or run with --replicates 1"
            )));
        }
    }
    let mix = evaluation_mix(invocations);
    let submitted_per_run = mix.total_jobs();
    let cluster = args.get_str("cluster").unwrap_or("micro");
    let summary = match cluster {
        "micro" => {
            let mut config = MicroFaasConfig::paper_prototype(mix, seed);
            config.faults = FaultsConfig::with_plan(plan);
            micro_replicates(&config, replicates, seed, jobs)
        }
        "conventional" => {
            let mut config = ConventionalConfig::paper_baseline(mix, seed);
            config.faults = FaultsConfig::with_plan(plan);
            conventional_replicates(&config, replicates, seed, jobs)
        }
        other => {
            return Err(ParseArgsError(format!(
                "unknown cluster '{other}' (micro | conventional)"
            )))
        }
    };

    println!("fault plan: {path}");
    println!(
        "replicates:        {} (seeds {}..={})",
        summary.runs,
        seed,
        seed + (replicates - 1) as u64
    );
    let fpm = &summary.functions_per_minute;
    println!(
        "throughput:        {:.1} ± {:.1} func/min (min {:.1}, max {:.1})",
        fpm.mean(),
        fpm.std_dev(),
        fpm.min().unwrap_or(f64::NAN),
        fpm.max().unwrap_or(f64::NAN)
    );
    let jpf = &summary.joules_per_function;
    println!(
        "energy:            {:.2} ± {:.2} J/func",
        jpf.mean(),
        jpf.std_dev()
    );
    println!(
        "makespan:          {:.1} ± {:.1} s",
        summary.makespan_seconds.mean(),
        summary.makespan_seconds.std_dev()
    );
    println!(
        "faults injected:   {} total ({:.1} per run)",
        summary.faults_injected,
        summary.faults_injected as f64 / replicates as f64
    );
    println!("retries scheduled: {}", summary.fault_retries);
    println!(
        "accounted:         {} of {} submitted",
        summary.jobs_completed + summary.jobs_dropped,
        submitted_per_run * replicates as u64
    );

    let mut csv = Csv::new(&["metric", "value"]);
    for (name, value) in [
        ("replicates", summary.runs as f64),
        ("func_per_min_mean", fpm.mean()),
        ("func_per_min_std", fpm.std_dev()),
        ("joules_per_function_mean", jpf.mean()),
        ("joules_per_function_std", jpf.std_dev()),
        ("makespan_seconds_mean", summary.makespan_seconds.mean()),
        ("faults_injected_total", summary.faults_injected as f64),
        ("retries_total", summary.fault_retries as f64),
        ("jobs_completed_total", summary.jobs_completed as f64),
        ("jobs_dropped_total", summary.jobs_dropped as f64),
    ] {
        csv.row_display(&[&name, &value]);
    }
    maybe_csv(args, &csv)
}

/// Builds the paper's evaluation mix at a given scale (exposed for the
/// binary's tests).
pub fn evaluation_mix(invocations: u32) -> WorkloadMix {
    WorkloadMix::new(FunctionId::ALL.to_vec(), invocations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<(), ParseArgsError> {
        dispatch(&Args::parse(argv.iter().copied()).expect("parses"))
    }

    #[test]
    fn help_prints() {
        run(&["help"]).expect("help works");
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(&["frobnicate"]).expect_err("unknown");
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn tco_validates_ranges() {
        assert!(run(&["tco", "--utilization", "1.5"]).is_err());
        assert!(run(&["tco", "--online-rate", "0"]).is_err());
        run(&["tco", "--utilization", "0.5", "--online-rate", "0.95"]).expect("valid");
    }

    #[test]
    fn boot_and_proportionality_run() {
        run(&["boot"]).expect("boot");
        run(&["proportionality", "--workers", "4"]).expect("proportionality");
    }

    #[test]
    fn openloop_validates_policy_and_rate() {
        assert!(run(&["openloop", "--policy", "mystery"]).is_err());
        assert!(run(&["openloop", "--governor", "mystery"]).is_err());
        assert!(run(&["openloop", "--rate", "-1"]).is_err());
        run(&["openloop", "--rate", "1.0", "--duration-secs", "60"]).expect("runs");
        run(&[
            "openloop",
            "--rate",
            "0.5",
            "--duration-secs",
            "60",
            "--policy",
            "jsq",
            "--governor",
            "keep-alive",
        ])
        .expect("runs with new policies");
    }

    #[test]
    fn openloop_streaming_and_batch_flags() {
        assert!(run(&["openloop", "--jobs-per-tick", "0"]).is_err());
        run(&[
            "openloop",
            "--streaming",
            "--jobs-per-tick",
            "2",
            "--duration-secs",
            "60",
            "--governor",
            "keep-alive",
        ])
        .expect("streaming batch run");
    }

    #[test]
    fn openloop_arrival_and_popularity_specs() {
        assert!(run(&["openloop", "--arrivals", "warp:1"]).is_err());
        assert!(run(&["openloop", "--arrivals", "poisson:-1"]).is_err());
        assert!(run(&["openloop", "--popularity", "pareto:1"]).is_err());
        assert!(
            run(&[
                "openloop",
                "--arrivals",
                "poisson:1",
                "--jobs-per-tick",
                "2"
            ])
            .is_err(),
            "--arrivals and --jobs-per-tick are exclusive"
        );
        run(&[
            "openloop",
            "--arrivals",
            "mmpp:0.2,2,60,15",
            "--popularity",
            "zipf:1.1",
            "--duration-secs",
            "60",
        ])
        .expect("bursty heavy-tailed run");
        run(&[
            "openloop",
            "--arrivals",
            "flash:0.5,20,10,4",
            "--streaming",
            "--duration-secs",
            "60",
        ])
        .expect("flash-crowd streaming run");
    }

    #[test]
    fn sched_validates_flags() {
        assert!(run(&["sched", "--rate", "0"]).is_err());
        assert!(run(&["sched", "--workers", "0"]).is_err());
        assert!(run(&["sched", "--jobs", "nope"]).is_err());
    }

    #[test]
    fn scenarios_validates_flags() {
        assert!(run(&["scenarios", "--workers", "0"]).is_err());
        assert!(run(&["scenarios", "--spec", "/nonexistent/suite.json"]).is_err());
        assert!(run(&["scenarios", "--jobs", "nope"]).is_err());
    }

    #[test]
    fn scenarios_runs_a_spec_file_and_exports_csv() {
        let dir = std::env::temp_dir();
        let spec = dir.join("microfaas_cli_test_scenarios.json");
        let csv = dir.join("microfaas_cli_test_scenarios.csv");
        std::fs::write(
            &spec,
            r#"{"scenarios": [
                {"name": "steady", "arrivals": "poisson:0.5"},
                {"name": "spiky", "arrivals": "flash:0.2,60,30,3",
                 "tenants": [{"name": "paid", "weight": 1.0, "slo_latency_s": 10.0}]}
            ]}"#,
        )
        .expect("spec written");
        let _ = std::fs::remove_file(&csv);
        run(&[
            "scenarios",
            "--spec",
            spec.to_str().expect("utf-8 temp path"),
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&csv).expect("csv written");
        assert!(written.starts_with(
            "scenario,placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,slo_attainment,\
             hit_rate,joules_saved,cached_edp,pareto,winner"
        ));
        assert_eq!(written.lines().count(), 1 + 2 * 35);
        assert!(written.contains("\nspiky,"));
    }

    #[test]
    fn sched_sweep_exports_pareto_csv() {
        let path = std::env::temp_dir().join("microfaas_cli_test_sched.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "sched",
            "--rate",
            "0.5",
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(written.starts_with(
            "placement,governor,completed,mean_latency_s,p95_latency_s,\
             mean_power_w,joules_per_function,power_cycles,hit_rate,\
             joules_saved,cached_edp,pareto"
        ));
        assert_eq!(written.lines().count(), 36, "header + 35 policy points");
        assert!(
            written.lines().any(|l| l.ends_with(",1")),
            "some row sits on the Pareto front"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_flag_validates_and_runs() {
        assert!(run(&["openloop", "--cache", "arc:64"]).is_err());
        assert!(run(&["sched", "--cache", "lru:0"]).is_err());
        assert!(run(&["scenarios", "--cache", "off:1"]).is_err());
        run(&[
            "openloop",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--cache",
            "on",
        ])
        .expect("openloop with the default cache spec");
        run(&[
            "openloop",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--streaming",
            "--cache",
            "lru:256,ttl=120,inputs=4",
        ])
        .expect("streaming openloop with an explicit cache spec");
    }

    #[test]
    fn cached_sweeps_run_and_export() {
        let path = std::env::temp_dir().join("microfaas_cli_test_sched_cached.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "sched",
            "--rate",
            "0.5",
            "--duration-secs",
            "120",
            "--seed",
            "4",
            "--cache",
            "lru:1024",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("cached sched sweep runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(
            written
                .lines()
                .skip(1)
                .any(|l| l.split(',').nth(8).is_some_and(|hit| hit != "0.000000")),
            "some cached point records a nonzero hit rate"
        );
        let _ = std::fs::remove_file(&path);
        run(&[
            "scenarios",
            "--duration-secs",
            "60",
            "--seed",
            "4",
            "--cache",
            "on",
        ])
        .expect("cached scenario sweep runs");
    }

    #[test]
    fn flag_conflicts_share_one_wording() {
        for argv in [
            [
                "openloop",
                "--arrivals",
                "poisson:1",
                "--jobs-per-tick",
                "2",
            ],
            [
                "openloop",
                "--popularity",
                "zipf:1.1",
                "--jobs-per-tick",
                "2",
            ],
            ["openloop", "--cache", "on", "--jobs-per-tick", "2"],
            ["energy", "--budget", "1", "--governor", "keep-alive"],
        ] {
            let err = run(&argv).expect_err("conflicting flags");
            assert!(
                err.to_string().contains("mutually exclusive"),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn non_positive_workers_and_rates_are_errors_not_panics() {
        for command in ["openloop", "monitor", "energy", "sched", "scenarios"] {
            for (flag, value) in [
                ("--workers", "0"),
                ("--rate", "0"),
                ("--rate", "-1"),
                ("--rate", "NaN"),
                ("--rate", "inf"),
            ] {
                let err = run(&[command, flag, value, "--duration-secs", "10"])
                    .expect_err("a non-positive value must be rejected");
                // `scenarios` takes its rates from the regime specs, so
                // it has no --rate flag to accept in the first place.
                let expected = if command == "scenarios" && flag == "--rate" {
                    "unknown flag '--rate'".to_string()
                } else {
                    format!("{flag} must be positive")
                };
                assert!(
                    err.to_string().contains(&expected),
                    "{command} {flag} {value}: {err}"
                );
            }
        }
    }

    #[test]
    fn overflowing_durations_are_errors_not_panics() {
        // 18,446,744,073,709 s is the longest duration whose microseconds
        // fit in u64; one second more overflows.
        for command in ["openloop", "monitor", "energy", "sched", "scenarios"] {
            for value in ["18446744073710", "18446744073709551615"] {
                let err = run(&[command, "--duration-secs", value])
                    .expect_err("an overflowing duration must be rejected");
                assert!(
                    err.to_string().contains("--duration-secs")
                        && err.to_string().contains("too long"),
                    "{command} {value}: {err}"
                );
            }
        }
        let args = Args::parse(["openloop", "--duration-secs", "18446744073709"]).expect("parses");
        assert_eq!(
            duration_flag(&args, 600).expect("fits"),
            SimDuration::from_micros(18_446_744_073_709_000_000)
        );
    }

    #[test]
    fn deeply_nested_spec_files_are_errors_not_aborts() {
        let path = std::env::temp_dir().join("microfaas_cli_test_deep.json");
        std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).expect("written");
        let path = path.to_str().expect("utf-8 temp path");
        for argv in [["scenarios", "--spec", path], ["faults", "--plan", path]] {
            let err = run(&argv).expect_err("nesting past the parser's cap");
            assert!(err.to_string().contains("nesting"), "{argv:?}: {err}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn open_loop_config_reads_every_shared_flag() {
        let args = Args::parse([
            "openloop",
            "--arrivals",
            "poisson:3",
            "--policy",
            "jsq",
            "--budget",
            "2",
            "--popularity",
            "zipf:1.1",
            "--tenants",
            "paid:1:2.5",
            "--workers",
            "7",
            "--seed",
            "9",
            "--duration-secs",
            "30",
            "--cache",
            "lru:8",
        ])
        .expect("parses");
        let config = open_loop_config(&args).expect("valid flags");
        assert_eq!(config.arrival, ArrivalProcess::Poisson { per_second: 3.0 });
        assert_eq!(config.scheduler.label(), "join-shortest-queue");
        assert!(config.governor.budget_cap_w().is_some());
        assert_eq!(config.popularity, Popularity::Zipf { exponent: 1.1 });
        assert_eq!(config.tenants.len(), 1);
        assert_eq!(
            (config.workers, config.seed, config.duration),
            (7, 9, SimDuration::from_secs(30))
        );
        assert!(config.cache.enabled());
        let defaults = open_loop_config(&Args::parse(["energy"]).expect("parses")).expect("valid");
        let mut paper = OpenLoopConfig::paper_arrangement(1, SimDuration::from_secs(600), 2022);
        paper.arrival = ArrivalProcess::Poisson { per_second: 1.0 };
        assert_eq!(format!("{defaults:?}"), format!("{paper:?}"));
    }

    #[test]
    fn hit_columns_need_cache_and_lookups() {
        let lru = CacheConfig::parse("lru:16").expect("parses");
        assert!(!show_hit_stats(&CacheConfig::Off, 100));
        assert!(
            !show_hit_stats(&lru, 0),
            "cached-but-idle run suppresses hit%"
        );
        assert!(show_hit_stats(&lru, 1));
    }

    #[test]
    fn energy_validates_flags() {
        assert!(run(&["energy", "--rate", "0"]).is_err());
        assert!(run(&["energy", "--workers", "0"]).is_err());
        assert!(run(&["energy", "--idle", "fair"]).is_err());
        assert!(run(&["energy", "--budget", "-3"]).is_err());
        assert!(run(&["energy", "--tenants", "paid"]).is_err());
        assert!(run(&["energy", "--tenants", "paid:zero"]).is_err());
        assert!(run(&["energy", "--governor", "mystery"]).is_err());
    }

    #[test]
    fn energy_runs_and_exports_ledgers() {
        let dir = std::env::temp_dir();
        let csv = dir.join("microfaas_cli_test_energy.csv");
        let prom = dir.join("microfaas_cli_test_energy.prom");
        for path in [&csv, &prom] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "energy",
            "--rate",
            "2.0",
            "--duration-secs",
            "60",
            "--workers",
            "4",
            "--seed",
            "7",
            "--idle",
            "equal",
            "--breakdown",
            "--tenants",
            "paid:3,free:1",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let rows = std::fs::read_to_string(&csv).expect("csv written");
        assert!(rows.starts_with(
            "idle_policy,function,completions,queue_j,boot_j,exec_j,\
             overhead_j,response_j,idle_share_j,total_j"
        ));
        assert!(rows.contains("equal,(idle),"), "idle remainder row present");
        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("# TYPE function_energy_total_j gauge"));
        assert!(exposition.contains("tenant_energy_total_j{tenant=\"paid\""));
        assert!(exposition.contains("function_energy_j_bucket{le=\"+Inf\"}"));
        for path in [&csv, &prom] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn energy_csv_is_jobs_invariant_under_a_budget() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_energy_j1.csv");
        let parallel = dir.join("microfaas_cli_test_energy_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "energy",
                "--rate",
                "2.0",
                "--duration-secs",
                "60",
                "--workers",
                "4",
                "--seed",
                "9",
                "--budget",
                "0.5,burst=5,action=shed",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("runs");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "--jobs must not change the exact-decimal ledger");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn typo_flag_is_caught() {
        let err = run(&["sweep", "--max-vm", "3"]).expect_err("typo");
        assert!(err.to_string().contains("--max-vm"));
    }

    #[test]
    fn compare_small_runs() {
        run(&["compare", "--invocations", "5", "--seed", "1"]).expect("runs");
    }

    #[test]
    fn jobs_flag_is_validated() {
        assert!(run(&["compare", "--invocations", "2", "--jobs", "0"]).is_err());
        assert!(run(&["sweep", "--max-vms", "2", "--jobs", "nope"]).is_err());
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "1",
            "--jobs",
            "2",
        ])
        .expect("runs");
    }

    #[test]
    fn sweep_and_scale_accept_jobs() {
        run(&[
            "sweep",
            "--max-vms",
            "3",
            "--invocations",
            "2",
            "--jobs",
            "2",
        ])
        .expect("sweep runs");
        run(&["scale", "--invocations", "2", "--seed", "2", "--jobs", "3"]).expect("scale runs");
    }

    #[test]
    fn reliability_runs() {
        run(&["reliability", "--seed", "3"]).expect("runs");
    }

    #[test]
    fn timeline_runs_and_validates_width() {
        run(&["timeline", "--invocations", "3", "--width", "40"]).expect("runs");
        assert!(run(&["timeline", "--width", "0"]).is_err());
    }

    #[test]
    fn scale_runs() {
        run(&["scale", "--invocations", "3", "--seed", "2"]).expect("runs");
    }

    #[test]
    fn evaluation_mix_scales() {
        assert_eq!(evaluation_mix(10).total_jobs(), 170);
    }

    #[test]
    fn trace_validates_flags() {
        assert!(run(&["trace", "--cluster", "mystery"]).is_err());
        assert!(run(&["trace", "--buffer", "0"]).is_err());
        run(&["trace", "--invocations", "2", "--seed", "1"]).expect("micro runs");
        run(&["trace", "--cluster", "conventional", "--invocations", "2"]).expect("conv runs");
    }

    #[test]
    fn trace_exports_all_three_artifacts() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("microfaas_cli_test_trace.jsonl");
        let prom = dir.join("microfaas_cli_test_trace.prom");
        let csv = dir.join("microfaas_cli_test_trace.csv");
        for path in [&jsonl, &prom, &csv] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "trace",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--out",
            jsonl.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");

        let trace = std::fs::read_to_string(&jsonl).expect("trace written");
        assert!(trace
            .lines()
            .next()
            .expect("nonempty")
            .starts_with("{\"seq\":0,"));
        assert!(trace.contains("\"type\":\"job_completed\""));

        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("# TYPE micro_jobs_completed_total counter"));
        assert!(exposition.contains("micro_jobs_completed_total 34"));

        let flat = std::fs::read_to_string(&csv).expect("csv written");
        assert!(flat.starts_with("metric,value"));
        assert!(flat.contains("micro_jobs_completed_total,34"));
        for path in [&jsonl, &prom, &csv] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trace_filters_validate_and_export() {
        assert!(run(&["trace", "--invocations", "2", "--type"]).is_err());
        assert!(run(&["trace", "--invocations", "2", "--job", "nope"]).is_err());
        let path = std::env::temp_dir().join("microfaas_cli_test_trace_filtered.jsonl");
        let _ = std::fs::remove_file(&path);
        run(&[
            "trace",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--job",
            "0",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let lines = std::fs::read_to_string(&path).expect("filtered trace written");
        assert!(!lines.is_empty(), "job 0 has causal events");
        for line in lines.lines() {
            assert!(
                line.contains("\"job\":0"),
                "non-job-0 line exported: {line}"
            );
        }
        run(&[
            "trace",
            "--invocations",
            "2",
            "--type",
            "response_sent",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let lines = std::fs::read_to_string(&path).expect("filtered trace written");
        assert!(lines.lines().count() >= 34, "one response per completion");
        for line in lines.lines() {
            assert!(line.contains("\"type\":\"response_sent\""));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_validates_flags() {
        assert!(run(&["analyze", "--cluster", "mystery"]).is_err());
        assert!(run(&["analyze", "--invocations", "2", "--job", "999999"]).is_err());
        assert!(run(&["analyze", "--jobs", "0"]).is_err());
        assert!(run(&["analyze", "--invocations", "2", "--perfetto"]).is_err());
    }

    #[test]
    fn analyze_reports_and_exports() {
        let dir = std::env::temp_dir();
        let perfetto = dir.join("microfaas_cli_test_analyze.json");
        let csv = dir.join("microfaas_cli_test_analyze.csv");
        for path in [&perfetto, &csv] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "analyze",
            "--invocations",
            "2",
            "--seed",
            "7",
            "--breakdown",
            "--job",
            "0",
            "--perfetto",
            perfetto.to_str().expect("utf-8 temp path"),
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let json = std::fs::read_to_string(&perfetto).expect("perfetto written");
        microfaas_sim::validate_chrome_trace(&json).expect("round-trips the parser");
        let rows = std::fs::read_to_string(&csv).expect("csv written");
        assert!(rows.starts_with(
            "cluster,job,function,worker,queue_us,boot_us,exec_us,\
             overhead_us,response_us,end_to_end_us"
        ));
        assert_eq!(
            rows.lines().count(),
            1 + 2 * 34,
            "header + every completed job on both clusters"
        );
        for path in [&perfetto, &csv] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn analyze_csv_is_jobs_invariant() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_analyze_j1.csv");
        let parallel = dir.join("microfaas_cli_test_analyze_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "analyze",
                "--invocations",
                "2",
                "--seed",
                "9",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("runs");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "--jobs must not change derived spans");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn compare_metrics_out_covers_both_clusters() {
        let path = std::env::temp_dir().join("microfaas_cli_test_compare.prom");
        let _ = std::fs::remove_file(&path);
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "5",
            "--metrics-out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let exposition = std::fs::read_to_string(&path).expect("metrics written");
        assert!(exposition.contains("micro_jobs_completed_total 34"));
        assert!(exposition.contains("conv_jobs_completed_total 34"));
        let _ = std::fs::remove_file(&path);
    }

    /// The checked-in example plan, resolved from the crate dir so the
    /// test passes regardless of the runner's working directory.
    const EXAMPLE_PLAN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/faults_crash.json"
    );

    #[test]
    fn faults_validates_flags() {
        assert!(run(&["faults", "--plan", "/nonexistent/plan.json"]).is_err());
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--cluster", "mystery"]).is_err());
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--width", "0"]).is_err());
    }

    #[test]
    fn faults_runs_the_checked_in_plan_on_both_clusters() {
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
        ])
        .expect("micro runs");
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--cluster",
            "conventional",
            "--invocations",
            "2",
            "--seed",
            "7",
        ])
        .expect("conv runs");
    }

    #[test]
    fn faults_replicates_validates_and_runs() {
        assert!(run(&["faults", "--plan", EXAMPLE_PLAN, "--replicates", "0"]).is_err());
        assert!(
            run(&[
                "faults",
                "--plan",
                EXAMPLE_PLAN,
                "--replicates",
                "2",
                "--out",
                "/tmp/never.jsonl",
            ])
            .is_err(),
            "trace export is a single-run artifact"
        );
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--replicates",
            "3",
            "--jobs",
            "2",
        ])
        .expect("replicated micro runs");
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--cluster",
            "conventional",
            "--invocations",
            "2",
            "--replicates",
            "2",
        ])
        .expect("replicated conv runs");
    }

    #[test]
    fn faults_replicates_csv_exports_summary() {
        let path = std::env::temp_dir().join("microfaas_cli_test_replicates.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--replicates",
            "2",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("csv written");
        assert!(written.starts_with("metric,value"));
        assert!(written.contains("replicates,2"));
        assert!(written.contains("func_per_min_mean,"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_exports_metrics_with_nonzero_injection_count() {
        let path = std::env::temp_dir().join("microfaas_cli_test_faults.prom");
        let _ = std::fs::remove_file(&path);
        run(&[
            "faults",
            "--plan",
            EXAMPLE_PLAN,
            "--invocations",
            "2",
            "--seed",
            "7",
            "--metrics-out",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let exposition = std::fs::read_to_string(&path).expect("metrics written");
        assert!(exposition.contains("micro_faults_injected_total"));
        assert!(
            !exposition.contains("micro_faults_injected_total 0"),
            "the scheduled crash must fire"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compare_accepts_a_fault_plan() {
        run(&[
            "compare",
            "--invocations",
            "2",
            "--seed",
            "5",
            "--faults",
            EXAMPLE_PLAN,
        ])
        .expect("runs");
        assert!(run(&["compare", "--faults", "/nonexistent/plan.json"]).is_err());
    }

    #[test]
    fn csv_export_writes_file() {
        let path = std::env::temp_dir().join("microfaas_cli_test_fig5.csv");
        let _ = std::fs::remove_file(&path);
        run(&[
            "proportionality",
            "--workers",
            "3",
            "--csv",
            path.to_str().expect("utf-8 temp path"),
        ])
        .expect("runs");
        let written = std::fs::read_to_string(&path).expect("file exists");
        assert!(written.starts_with("active,sbc_watts,server_watts"));
        assert_eq!(written.lines().count(), 5, "header + 4 rows");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn monitor_validates_flags() {
        assert!(run(&["monitor", "--rate", "0"]).is_err());
        assert!(run(&["monitor", "--window-secs", "0"]).is_err());
        assert!(run(&["monitor", "--max-windows", "0"]).is_err());
        assert!(run(&["monitor", "--slo-target", "1.0"]).is_err());
        assert!(run(&["monitor", "--slo-target", "0"]).is_err());
        assert!(run(&["monitor", "--policy", "mystery"]).is_err());
        assert!(run(&["monitor", "--arrivals", "warp:1"]).is_err());
        assert!(run(&["monitor", "--jobs", "nope"]).is_err());
        assert!(
            run(&[
                "monitor",
                "--budget",
                "5:60",
                "--governor",
                "keep-alive",
                "--duration-secs",
                "60"
            ])
            .is_err(),
            "--budget and --governor are exclusive"
        );
        assert!(run(&["monitor", "--streaming"]).is_err(), "unknown flag");
    }

    #[test]
    fn monitor_exports_series_alerts_and_counter_tracks() {
        let dir = std::env::temp_dir();
        let csv = dir.join("microfaas_cli_test_monitor.csv");
        let prom = dir.join("microfaas_cli_test_monitor.prom");
        let perfetto = dir.join("microfaas_cli_test_monitor_trace.json");
        for path in [&csv, &prom, &perfetto] {
            let _ = std::fs::remove_file(path);
        }
        run(&[
            "monitor",
            "--arrivals",
            "flash:0.2,60,30,20",
            "--duration-secs",
            "180",
            "--workers",
            "8",
            "--governor",
            "keep-alive",
            "--tenants",
            "paid:1:2.5,free:4:30",
            "--seed",
            "2022",
            "--csv",
            csv.to_str().expect("utf-8 temp path"),
            "--metrics-out",
            prom.to_str().expect("utf-8 temp path"),
            "--perfetto",
            perfetto.to_str().expect("utf-8 temp path"),
        ])
        .expect("monitored flash-crowd run");
        let series = std::fs::read_to_string(&csv).expect("csv written");
        assert!(series.starts_with("window,start_s,elapsed_s,completed,"));
        assert!(series.contains("paid_attainment"));
        let exposition = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(exposition.contains("telemetry_window_width_seconds"));
        let trace = std::fs::read_to_string(&perfetto).expect("trace written");
        assert!(trace.contains("\"ph\":\"C\""));
        validate_chrome_trace(&trace).expect("counter trace validates");
        for path in [&csv, &prom, &perfetto] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn monitor_csv_is_jobs_invariant() {
        let dir = std::env::temp_dir();
        let serial = dir.join("microfaas_cli_test_monitor_j1.csv");
        let parallel = dir.join("microfaas_cli_test_monitor_j2.csv");
        for (path, jobs) in [(&serial, "1"), (&parallel, "2")] {
            let _ = std::fs::remove_file(path);
            run(&[
                "monitor",
                "--rate",
                "2.0",
                "--duration-secs",
                "120",
                "--workers",
                "6",
                "--governor",
                "keep-alive",
                "--seed",
                "11",
                "--jobs",
                jobs,
                "--csv",
                path.to_str().expect("utf-8 temp path"),
            ])
            .expect("monitored run");
        }
        let a = std::fs::read_to_string(&serial).expect("serial csv");
        let b = std::fs::read_to_string(&parallel).expect("parallel csv");
        assert_eq!(a, b, "time series must be byte-identical across --jobs");
        for path in [&serial, &parallel] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn metrics_out_helper_shares_one_error_wording() {
        // Every --metrics-out site funnels through maybe_metrics_out, so
        // an unwritable path yields the same "cannot write" message from
        // all of them.
        let bad = "/nonexistent-dir/metrics.prom";
        for argv in [
            vec!["compare", "--invocations", "2", "--metrics-out", bad],
            vec!["monitor", "--duration-secs", "60", "--metrics-out", bad],
        ] {
            let err = run(&argv).expect_err("unwritable path");
            assert!(
                err.to_string()
                    .contains("cannot write '/nonexistent-dir/metrics.prom'"),
                "unexpected wording: {err}"
            );
        }
    }
}
