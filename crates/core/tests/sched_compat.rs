//! Backward-compatibility pin for the scheduling subsystem.
//!
//! The golden table below hashes every observable surface of a run:
//! aggregate results (as exact f64 bit patterns), the full JSON trace,
//! and the Prometheus exposition. The paper-default policies —
//! `WorkConserving` / `RandomStatic` placement under the
//! `RebootPerJob` governor — must reproduce all of them bit for bit;
//! the subsystem is required to be invisible until a non-default
//! policy is selected.
//!
//! The aggregate columns date from the commit *before*
//! `microfaas-sched` existed and have never moved. The trace and
//! exposition hashes were re-captured when span tracing landed: the
//! `wake_requested` / `response_sent` causal anchors and the `# HELP`
//! exposition lines change the bytes without touching any simulated
//! decision — the unchanged makespan/joules/records columns prove it.
//!
//! A second table pins the open-loop features the legacy goldens never
//! reach: the conventional open loop (plain, skewed + multi-tenant +
//! cached, its attributed ledger CSV and its telemetry CSV) and the SBC
//! open loop under keep-alive, warm-pool, every energy-budget action,
//! cache + coalescing, and a crash plan, on both the exact and the
//! streaming results paths.
//!
//! A third group pins the experiment drivers (`policy_sweep`,
//! `scenario_sweep`, `compare_suites`, `vm_sweep`, `sbc_scale_sweep`):
//! their CSV renderings, `Debug` output and Prometheus expositions.

use std::sync::Arc;

use microfaas::cache::CacheConfig;
use microfaas::config::{Assignment, WorkloadMix};
use microfaas::conventional::{run_conventional_with, ConventionalConfig};
use microfaas::experiment::{
    compare_suites, policy_sweep, policy_sweep_csv, sbc_scale_sweep, scenario_sweep,
    scenario_sweep_csv, vm_sweep,
};
use microfaas::micro::{run_microfaas_with, MicroFaasConfig};
use microfaas::openloop::{
    run_open_loop_conventional, run_open_loop_conventional_attributed,
    run_open_loop_conventional_monitored, run_open_loop_monitored_attributed,
    run_open_loop_streaming, run_open_loop_with, ArrivalProcess, Completion, OpenLoopConfig,
    RunSink,
};
use microfaas::{FaultsConfig, Popularity, Scenario, TenantClass};
use microfaas_energy::attribution::IdlePolicy;
use microfaas_sched::{
    BudgetAction, GovernorKind, PlacementKind, DEFAULT_KEEP_ALIVE_TIMEOUT, DEFAULT_WARM_POOL_ALPHA,
    DEFAULT_WARM_POOL_HEADROOM,
};
use microfaas_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use microfaas_sim::telemetry::TelemetryConfig;
use microfaas_sim::trace::{Observer, TraceBuffer};
use microfaas_sim::{Jobs, MetricsRegistry, SimDuration, SimTime};
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit, the same hash the capture harness used.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a of a value's `Debug` rendering, which prints every f64 at
/// full round-trip precision — a bit-exact digest of an aggregate.
fn fnv_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// `(makespan_bits, joules_bits, records, trace_fnv, expo_fnv)` for a
/// closed-loop run.
type ClosedFingerprint = (u64, u64, usize, u64, u64);

fn micro_fingerprint(assignment: Assignment, seed: u64) -> ClosedFingerprint {
    let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
    let mut config = MicroFaasConfig::paper_prototype(quick, seed);
    config.assignment = assignment;
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_microfaas_with(&config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.makespan.as_secs_f64().to_bits(),
        run.energy.total_joules.to_bits(),
        run.records.len(),
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

fn conv_fingerprint(assignment: Assignment, seed: u64) -> ClosedFingerprint {
    let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
    let mut config = ConventionalConfig::paper_baseline(quick, seed);
    config.assignment = assignment;
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_conventional_with(&config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.makespan.as_secs_f64().to_bits(),
        run.energy.total_joules.to_bits(),
        run.records.len(),
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

/// `(mean_latency_bits, jpf_bits, completed, power_cycles, trace_fnv,
/// expo_fnv)` for an open-loop run.
type OpenFingerprint = (u64, u64, u64, u64, u64, u64);

fn open_fingerprint(scheduler: PlacementKind, seed: u64) -> OpenFingerprint {
    let mut config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(600), seed);
    config.scheduler = scheduler;
    config.arrival = ArrivalProcess::Poisson { per_second: 2.0 };
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let run = run_open_loop_with(&config, &mut Observer::full(&mut trace, &mut metrics));
    (
        run.mean_latency_s.to_bits(),
        run.joules_per_function.to_bits(),
        run.completed,
        run.power_cycles,
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
    )
}

/// Folds every completion's `Debug` rendering into one FNV-1a hash,
/// pinning the streaming path's per-job records and their order.
struct HashSink(u64);

impl RunSink for HashSink {
    fn on_completion(&mut self, completion: &Completion) {
        self.0 = fnv1a_extend(self.0, format!("{completion:?}").as_bytes());
    }
}

/// The feature-table base: 300 s of Poisson arrivals at `rate`.
fn feature_config(rate: f64, seed: u64) -> OpenLoopConfig {
    let mut config = OpenLoopConfig::paper_arrangement(2, SimDuration::from_secs(300), seed);
    config.arrival = ArrivalProcess::Poisson { per_second: rate };
    config
}

/// Zipf popularity, two tenant classes and an LRU result cache: the
/// intake features (tenant draw, content key, hits, coalescing).
fn with_intake_features(mut config: OpenLoopConfig, exponent: f64) -> OpenLoopConfig {
    config.popularity = Popularity::Zipf { exponent };
    config.tenants = vec![
        TenantClass {
            name: "interactive".to_string(),
            weight: 3.0,
            slo_latency_s: 5.0,
        },
        TenantClass {
            name: "batch".to_string(),
            weight: 1.0,
            slo_latency_s: 60.0,
        },
    ];
    config.cache = CacheConfig::parse("lru:4096,ttl=300").expect("valid cache spec");
    config
}

/// The SBC feature configs, by label.
fn sbc_feature_config(label: &str) -> OpenLoopConfig {
    let budget = |action| {
        let mut config = feature_config(3.0, 64);
        config.governor = GovernorKind::EnergyBudget {
            cap_w: 0.5,
            burst_j: 10.0,
            action,
        };
        config
    };
    match label {
        "keep-alive" => {
            let mut config = feature_config(1.0, 41);
            config.scheduler = PlacementKind::JoinShortestQueue;
            config.governor = GovernorKind::KeepAlive {
                idle_timeout: DEFAULT_KEEP_ALIVE_TIMEOUT,
            };
            config
        }
        "warm-pool" => {
            let mut config = feature_config(1.5, 42);
            config.scheduler = PlacementKind::WarmFirst;
            config.governor = GovernorKind::WarmPool {
                alpha: DEFAULT_WARM_POOL_ALPHA,
                headroom: DEFAULT_WARM_POOL_HEADROOM,
            };
            config
        }
        "shed" => budget(BudgetAction::Shed),
        "defer" => budget(BudgetAction::Defer),
        "throttle" => budget(BudgetAction::Throttle),
        "cache" => {
            let mut config = with_intake_features(feature_config(3.0, 43), 1.1);
            config.scheduler = PlacementKind::CacheAffine;
            config
        }
        "crash" => {
            let mut config = feature_config(2.0, 44);
            config.scheduler = PlacementKind::LeastLoaded;
            config.faults = FaultsConfig::with_plan(FaultPlan {
                seed: 3,
                faults: vec![
                    FaultSpec {
                        kind: FaultKind::Crash,
                        worker: Some(1),
                        trigger: FaultTrigger::At(SimTime::from_secs(30)),
                    },
                    FaultSpec {
                        kind: FaultKind::Crash,
                        worker: Some(4),
                        trigger: FaultTrigger::At(SimTime::from_secs(90)),
                    },
                ],
            });
            config
        }
        other => panic!("unknown SBC feature label {other}"),
    }
}

/// `(run_fnv, trace_fnv, expo_fnv, streaming_run_fnv, sink_fnv)`: the
/// exact path with a full observer, then the streaming path with a
/// hashing sink.
type FeatureFingerprint = (u64, u64, u64, u64, u64);

fn sbc_feature_fingerprint(config: &OpenLoopConfig) -> FeatureFingerprint {
    let mut trace = TraceBuffer::new(1 << 21);
    let mut metrics = MetricsRegistry::new();
    let exact = run_open_loop_with(config, &mut Observer::full(&mut trace, &mut metrics));
    let mut sink = HashSink(FNV_OFFSET);
    let streamed = run_open_loop_streaming(config, &mut sink);
    (
        fnv_debug(&exact),
        fnv1a(trace.to_json_lines().as_bytes()),
        fnv1a(metrics.render_prometheus().as_bytes()),
        fnv_debug(&streamed),
        sink.0,
    )
}

fn assignment(label: &str) -> Assignment {
    match label {
        "wc" => Assignment::WorkConserving,
        "rs" => Assignment::RandomStatic,
        other => panic!("unknown assignment label {other}"),
    }
}

#[test]
fn micro_defaults_are_bit_identical_to_pre_subsystem_runs() {
    // Captured by tools/capture_goldens (since deleted) on the last
    // commit before crates/sched existed.
    let goldens: [(&str, u64, u64, u64, usize, u64, u64); 6] = [
        (
            "wc",
            3,
            0x4070_1985_e5f3_0e80,
            0x40b3_8beb_b9c3_85af,
            850,
            0xd3dd_b71b_4638_1f19,
            0xebc6_8c6c_68e1_23e3,
        ),
        (
            "rs",
            3,
            0x4072_c8a4_ba94_bbe4,
            0x40b3_7999_7619_0bf3,
            850,
            0xc54c_3359_64c1_5f17,
            0x67e8_f80a_bd5f_26cd,
        ),
        (
            "wc",
            7,
            0x4070_14c8_7b99_d452,
            0x40b3_8816_596c_82e9,
            850,
            0xa81c_5bed_a989_b2c1,
            0x7784_956d_cb91_dd4b,
        ),
        (
            "rs",
            7,
            0x4072_7ec9_b1fa_b96f,
            0x40b3_7a33_5ddd_d6be,
            850,
            0xc551_2df4_8be4_e67c,
            0xe59f_28c3_6dc0_cc84,
        ),
        (
            "wc",
            11,
            0x4070_156c_e896_56ef,
            0x40b3_85e7_d5b1_4cf2,
            850,
            0x5482_b55e_44b3_fd11,
            0x4429_7f94_4426_80ad,
        ),
        (
            "rs",
            11,
            0x4072_6401_ede1_198b,
            0x40b3_7669_ae0a_1409,
            850,
            0xd640_a489_4778_76a3,
            0xeda6_4503_97c0_f4c1,
        ),
    ];
    for (label, seed, makespan, joules, records, trace_fnv, expo_fnv) in goldens {
        let got = micro_fingerprint(assignment(label), seed);
        assert_eq!(
            got,
            (makespan, joules, records, trace_fnv, expo_fnv),
            "micro {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

#[test]
fn conventional_defaults_are_bit_identical_to_pre_subsystem_runs() {
    let goldens: [(&str, u64, u64, u64, usize, u64, u64); 6] = [
        (
            "wc",
            3,
            0x406e_6e3e_4473_cd57,
            0x40da_dedd_71c1_0d77,
            850,
            0x9097_599d_8667_24bb,
            0x87f3_f6a8_cd08_3b97,
        ),
        (
            "rs",
            3,
            0x4070_4b0f_7db6_e504,
            0x40db_df63_71c9_70fa,
            850,
            0x0afc_a468_3908_9ba2,
            0xea4e_1567_ca6c_6236,
        ),
        (
            "wc",
            7,
            0x406e_6f53_f9e7_b80b,
            0x40da_e05b_3743_632c,
            850,
            0x1a75_c3a0_f6ec_0d96,
            0xfd6c_7722_35e2_c7a6,
        ),
        (
            "rs",
            7,
            0x4070_400b_8e08_6bdf,
            0x40db_da1b_e1f1_f7f6,
            850,
            0x3d93_dc1b_ff2f_11b3,
            0x057f_af77_f2c2_c60b,
        ),
        (
            "wc",
            11,
            0x406e_7451_5ce9_e5e2,
            0x40da_e1d9_a86c_9b33,
            850,
            0x8b65_5b79_2461_129a,
            0x37a5_afc3_8d38_544b,
        ),
        (
            "rs",
            11,
            0x406f_48f2_1709_3101,
            0x40db_46ef_18f2_3f5a,
            850,
            0xde69_d87c_b420_fa8c,
            0x31ad_d38a_f734_df95,
        ),
    ];
    for (label, seed, makespan, joules, records, trace_fnv, expo_fnv) in goldens {
        let got = conv_fingerprint(assignment(label), seed);
        assert_eq!(
            got,
            (makespan, joules, records, trace_fnv, expo_fnv),
            "conventional {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

#[test]
fn open_loop_defaults_are_bit_identical_to_pre_subsystem_runs() {
    // Label, seed, then the OpenFingerprint fields flattened:
    // latency bits, jpf bits, completed, power cycles, trace FNV,
    // exposition FNV. "rq" is the historical RandomQueue spelling,
    // now RandomStatic.
    type OpenGolden = (&'static str, u64, u64, u64, u64, u64, u64, u64);
    let goldens: [OpenGolden; 6] = [
        (
            "rq",
            7,
            0x4013_c792_61ce_d88e,
            0x4016_f41d_4c1e_6ac9,
            1168,
            519,
            0x1aa3_d01d_2c84_fc12,
            0x1c1f_25c9_144d_1ab6,
        ),
        (
            "ll",
            7,
            0x4009_9dd5_67e9_eb02,
            0x4017_ad18_bc78_a57c,
            1170,
            1093,
            0x87a0_f978_9570_e46c,
            0xa63f_2858_accb_9844,
        ),
        (
            "pa",
            7,
            0x4013_d8ed_6830_9d62,
            0x4017_7d91_ebeb_f5f5,
            1215,
            192,
            0x1d60_7dc6_964c_dbd9,
            0x8f99_64fe_e7a9_f85b,
        ),
        (
            "rq",
            2022,
            0x4016_4764_5017_452c,
            0x4017_7be3_1baa_0386,
            1187,
            494,
            0x63d2_638f_8191_cae4,
            0x94bd_5b6a_74ee_7573,
        ),
        (
            "ll",
            2022,
            0x4008_aaea_81e3_b5ce,
            0x4017_1716_baa1_50e2,
            1192,
            1133,
            0x006b_c296_f129_289b,
            0x4ce4_6db0_8271_7886,
        ),
        (
            "pa",
            2022,
            0x4013_d2fd_cb97_4adc,
            0x4017_5e95_2096_e378,
            1151,
            175,
            0x4a12_3abd_43fe_8f74,
            0xf908_278b_9916_0b1c,
        ),
    ];
    for (label, seed, latency, jpf, completed, cycles, trace_fnv, expo_fnv) in goldens {
        let scheduler = match label {
            "rq" => PlacementKind::RandomStatic,
            "ll" => PlacementKind::LeastLoaded,
            "pa" => PlacementKind::PowerAware,
            other => panic!("unknown scheduler label {other}"),
        };
        let got = open_fingerprint(scheduler, seed);
        assert_eq!(
            got,
            (latency, jpf, completed, cycles, trace_fnv, expo_fnv),
            "open-loop {label} seed {seed} diverged from the pre-subsystem golden"
        );
    }
}

#[test]
fn sbc_open_loop_features_are_pinned() {
    let goldens: [(&str, FeatureFingerprint); 7] = [
        (
            "keep-alive",
            (
                0x4f90_d0f9_3b9d_a6c3,
                0xa7a8_ec4e_07b9_64ec,
                0xb837_804d_d22e_4ea9,
                0xd6f9_dff4_a6a8_af33,
                0xbbfb_2e0b_19ba_c013,
            ),
        ),
        (
            "warm-pool",
            (
                0x118b_5829_d3e5_c4c7,
                0x1fdf_ab31_ceab_b8f3,
                0x3d94_a643_e853_9834,
                0x1526_2cf2_acda_1d63,
                0xe080_ec66_7eca_c496,
            ),
        ),
        (
            "shed",
            (
                0x3020_9804_a1be_f334,
                0x916a_2410_75ed_6ddb,
                0x699a_4179_ca69_3377,
                0x3449_df23_2fba_9e71,
                0xac05_fc75_638f_3d35,
            ),
        ),
        (
            "defer",
            (
                0x7ef6_acdb_6859_36f8,
                0xa374_fba1_1bbd_d2bb,
                0x95e9_71ff_79cb_c846,
                0x60a0_db91_1fe7_c592,
                0xeb72_39d8_3747_d145,
            ),
        ),
        (
            "throttle",
            (
                0xd656_e67d_f333_997b,
                0x42f6_2198_9fec_7559,
                0x181c_fe6c_65d9_9aee,
                0xc80e_c9de_ff0e_3fbf,
                0xf427_ef12_69b4_e924,
            ),
        ),
        (
            "cache",
            (
                0x5228_e507_4ee0_b6bb,
                0x7233_885b_7676_53a5,
                0xe360_3ce5_fafa_af50,
                0xecb2_9bbb_31b6_95a1,
                0x6875_6238_0cbe_9e79,
            ),
        ),
        (
            "crash",
            (
                0x604f_a199_ce6e_1502,
                0x06b6_7120_ba0f_15b0,
                0x0bac_167a_7b2b_20c0,
                0xcddd_e7da_7d1d_3355,
                0xda7b_beee_3c04_f946,
            ),
        ),
    ];
    for (label, golden) in goldens {
        let got = sbc_feature_fingerprint(&sbc_feature_config(label));
        assert_eq!(
            got, golden,
            "SBC open loop '{label}' diverged from its golden"
        );
    }
}

#[test]
fn sbc_open_loop_feature_configs_reach_their_feature() {
    let run = |label| run_open_loop_streaming(&sbc_feature_config(label), &mut HashSink(0));
    let cached = run("cache");
    assert!(cached.cache_hits > 0 && cached.cache_coalesced > 0);
    assert!(run("crash").faults_injected > 0);
    let shed = run("shed");
    assert!((shed.completed as f64) < shed.offered_per_second * 300.0 - 1.0);
}

#[test]
fn sbc_open_loop_ledger_and_telemetry_are_pinned() {
    let config = sbc_feature_config("cache");
    let (run, ledger, series) = run_open_loop_monitored_attributed(
        &config,
        IdlePolicy::UsageWeighted,
        &TelemetryConfig::default(),
    );
    let got = (
        fnv_debug(&run),
        fnv1a(ledger.to_csv().as_bytes()),
        fnv1a(series.to_csv().as_bytes()),
    );
    assert_eq!(
        got,
        (
            0xecb2_9bbb_31b6_95a1,
            0x54e4_e0e6_496c_b7a4,
            0xeec0_e1bc_b018_6ebe
        ),
        "SBC open-loop ledger or telemetry CSV diverged from its golden"
    );
}

#[test]
fn conventional_open_loop_is_pinned() {
    let plain = feature_config(1.0, 45);
    let featured = with_intake_features(feature_config(2.0, 46), 1.0);
    let (attributed, ledger) =
        run_open_loop_conventional_attributed(&featured, 6, IdlePolicy::Equal);
    let (monitored, series) =
        run_open_loop_conventional_monitored(&featured, 6, &TelemetryConfig::default());
    let got = [
        fnv_debug(&run_open_loop_conventional(&plain, 6)),
        fnv_debug(&run_open_loop_conventional(&featured, 6)),
        fnv_debug(&attributed),
        fnv1a(ledger.to_csv().as_bytes()),
        fnv_debug(&monitored),
        fnv1a(series.to_csv().as_bytes()),
    ];
    let golden = [
        0x8ef9_b30e_39d2_b9b5,
        0x31f6_65b8_1d03_5acb,
        0x31f6_65b8_1d03_5acb,
        0x3e80_21ab_8721_709d,
        0x2c2f_8497_2561_328c,
        0x6625_c512_53e0_2c52,
    ];
    assert_eq!(
        got, golden,
        "conventional open loop diverged from its golden"
    );
}

/// The cache spec the cached sweep goldens run under.
fn sweep_cache() -> CacheConfig {
    CacheConfig::parse("lru:64").expect("valid cache spec")
}

#[test]
fn policy_sweep_csv_is_pinned() {
    let duration = SimDuration::from_secs(120);
    let got = [CacheConfig::Off, sweep_cache()].map(|cache| {
        let points = policy_sweep(0.5, duration, 4, 7, &cache, Jobs::new(2));
        fnv1a(policy_sweep_csv(&points).as_bytes())
    });
    assert_eq!(
        got,
        [0x785c_95b5_5a8c_50aa, 0x899e_f192_391a_7621],
        "policy sweep CSV diverged from its golden"
    );
}

#[test]
fn scenario_sweep_csv_is_pinned() {
    let all = Scenario::standard_suite();
    let suite = [all[0].clone(), all[4].clone()];
    let duration = SimDuration::from_secs(120);
    let got = [CacheConfig::Off, sweep_cache()].map(|cache| {
        let outcomes = scenario_sweep(&suite, duration, 4, 9, &cache, Jobs::new(2));
        fnv1a(scenario_sweep_csv(&outcomes).as_bytes())
    });
    assert_eq!(
        got,
        [0xbdc8_7c1d_0754_c5e8, 0xaff3_2f11_2159_d61a],
        "scenario sweep CSV diverged from its golden"
    );
}

/// Two scheduled crashes plus a boot-failure probability: the closed
/// loop's recovery, requeue and retry paths.
fn compare_crash_plan() -> FaultsConfig {
    FaultsConfig::with_plan(FaultPlan {
        seed: 5,
        faults: vec![
            FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(2),
                trigger: FaultTrigger::At(SimTime::from_secs(4)),
            },
            FaultSpec {
                kind: FaultKind::Crash,
                worker: Some(0),
                trigger: FaultTrigger::At(SimTime::from_secs(9)),
            },
            FaultSpec {
                kind: FaultKind::BootFailure,
                worker: None,
                trigger: FaultTrigger::Probability(0.1),
            },
        ],
    })
}

#[test]
fn compare_suites_is_pinned() {
    let fingerprint = |faults: &FaultsConfig| {
        let mut metrics = MetricsRegistry::new();
        let cmp = compare_suites(3, 2022, faults, &mut metrics, Jobs::new(2));
        let injected = [cmp.micro.faults.injected, cmp.conventional.faults.injected];
        let hashes = [
            fnv_debug(&cmp.micro),
            fnv_debug(&cmp.conventional),
            fnv1a(metrics.render_prometheus().as_bytes()),
        ];
        (hashes, injected)
    };
    let (plain, _) = fingerprint(&FaultsConfig::none());
    let (crashed, injected) = fingerprint(&compare_crash_plan());
    assert!(
        injected.iter().all(|&n| n > 0),
        "the crash plan must fire on both clusters: {injected:?}"
    );
    assert_eq!(
        plain,
        [
            0x8230_5717_2894_a5d7,
            0xbda4_2e83_aea3_a44d,
            0xf7b3_3f10_b685_d59c
        ],
        "fault-free comparison diverged from its golden"
    );
    assert_eq!(
        crashed,
        [
            0xdae3_f81e_d5ba_8269,
            0x1b63_f6cb_f46c_a6aa,
            0x0729_0259_f307_603c
        ],
        "crash-plan comparison diverged from its golden"
    );
    let mut metrics = MetricsRegistry::new();
    let serial = compare_suites(3, 2022, &FaultsConfig::none(), &mut metrics, Jobs::serial());
    assert_eq!(
        [
            fnv_debug(&serial.micro),
            fnv_debug(&serial.conventional),
            fnv1a(metrics.render_prometheus().as_bytes()),
        ],
        plain,
        "the serial comparison must match the parallel one"
    );
}

#[test]
fn vm_and_sbc_scale_sweeps_are_pinned() {
    let got = [
        fnv_debug(&vm_sweep(6, 3, 2022, Jobs::new(2))),
        fnv_debug(&sbc_scale_sweep(&[2, 5, 10], 3, 2022, Jobs::new(2))),
    ];
    assert_eq!(
        got,
        [0xd1b5_a8cb_3643_dc19, 0x8598_0a03_9c23_a7c6],
        "VM or SBC scale sweep diverged from its golden"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed, not just the pinned ones: equal seeds give equal bits
    /// on every observable surface, for both default placements.
    #[test]
    fn micro_default_runs_are_deterministic(seed in 0u64..10_000) {
        for assignment in [Assignment::WorkConserving, Assignment::RandomStatic] {
            let a = micro_fingerprint(assignment, seed);
            let b = micro_fingerprint(assignment, seed);
            prop_assert_eq!(a, b);
        }
    }

    /// The default governor leaves zero footprint: no scheduler metric
    /// families, no scheduler trace events, for any seed.
    #[test]
    fn default_policies_emit_no_scheduler_telemetry(seed in 0u64..10_000) {
        let quick: Arc<WorkloadMix> = Arc::new(WorkloadMix::quick());
        let config = MicroFaasConfig::paper_prototype(quick, seed);
        let mut trace = TraceBuffer::new(1 << 21);
        let mut metrics = MetricsRegistry::new();
        run_microfaas_with(&config, &mut Observer::full(&mut trace, &mut metrics));
        let expo = metrics.render_prometheus();
        prop_assert!(!expo.contains("sched_"), "default run leaked sched metrics");
        let lines = trace.to_json_lines();
        prop_assert!(!lines.contains("placement_decision"));
        prop_assert!(!lines.contains("governor_transition"));
    }

    /// Open loop: the historical schedulers under the default governor
    /// are deterministic for any seed.
    #[test]
    fn open_loop_default_runs_are_deterministic(seed in 0u64..10_000) {
        for scheduler in [
            PlacementKind::RandomStatic,
            PlacementKind::LeastLoaded,
            PlacementKind::PowerAware,
        ] {
            let a = open_fingerprint(scheduler, seed);
            let b = open_fingerprint(scheduler, seed);
            prop_assert_eq!(a, b);
        }
    }
}
