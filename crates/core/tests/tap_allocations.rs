//! The always-on taps stay off the allocator on their hot paths.
//!
//! - An [`Attributor`] whose channels exist makes no heap allocation
//!   per job lifecycle on a one-job-per-channel SBC sequence: the
//!   in-flight accumulator lives on its channel, not in a map.
//! - Once its ring is full, [`CompletionWindows`] makes at most one
//!   allocation per closed window (the exact-fit copy of the window's
//!   latency sketch); the sketch storage and the tenant counters are
//!   handed on, not rebuilt.
//!
//! The counting allocator counts per thread, so the tests in this file
//! can run in parallel without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use microfaas_energy::attribution::{Attributor, IdlePolicy};
use microfaas_sim::telemetry::{CompletionWindows, TelemetryConfig, TenantSpec};
use microfaas_sim::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn attributor_allocates_nothing_per_job_lifecycle() {
    const CHANNELS: usize = 16;
    let mut attr = Attributor::new(
        IdlePolicy::UsageWeighted,
        vec!["CascSHA".to_string(), "AES128".to_string()],
        vec!["interactive".to_string(), "batch".to_string()],
    );
    for _ in 0..CHANNELS {
        attr.add_channel();
    }
    let mut now_ms = 0;
    let mut at = |step: u64| {
        now_ms += step;
        SimTime::from_millis(now_ms)
    };
    let made = allocations(|| {
        for job in 0..5_000u64 {
            let ch = (job % CHANNELS as u64) as usize;
            let func = (job % 2) as usize;
            let tenant = (job % 3 % 2) as usize;
            // Boot, execute, respond, finish, power down: the SBC
            // reboot-per-job lifecycle, plus a cache hit beside it.
            attr.set_power(ch, at(1), 1.82);
            attr.boot_started(ch, at(0));
            attr.boot_done(ch, at(40));
            attr.set_power(ch, at(0), 1.96);
            attr.job_started(ch, at(0), job, func, tenant);
            attr.response_started(ch, at(120), job);
            assert!(attr.job_finished(ch, at(5), job) > 0);
            attr.set_power(ch, at(0), 0.0);
            attr.record_free(func, tenant);
        }
    });
    assert_eq!(made, 0, "the attributor allocated per job");
    assert!(attr.finalize(at(1)).conserves());
}

#[test]
fn completion_windows_allocate_at_most_once_per_closed_window() {
    const RING: usize = 32;
    let config = TelemetryConfig {
        window: SimDuration::from_secs(1),
        max_windows: RING,
        ..TelemetryConfig::default()
    };
    let tenants = vec![
        TenantSpec {
            name: "interactive".to_string(),
            slo_latency_s: 5.0,
        },
        TenantSpec {
            name: "batch".to_string(),
            slo_latency_s: 60.0,
        },
    ];
    let mut windows = CompletionWindows::new(&config, tenants);
    // Each window sees latencies spread over three decades, so every
    // closed window's sketch holds a few hundred buckets.
    let fill = |windows: &mut CompletionWindows, from: u64, to: u64| {
        for second in from..to {
            for k in 0..50u64 {
                let finished = SimTime::from_micros(second * 1_000_000 + k * 20_000);
                let latency_s = 0.01 * (1.0 + ((second * 50 + k) % 997) as f64);
                windows.record(finished, latency_s, (k % 2) as u16, k % 7 == 0);
            }
        }
    };
    // Fill the ring and let the handed-on sketch storage reach its size.
    fill(&mut windows, 0, 2 * RING as u64);
    const CLOSED: u64 = 200;
    let from = 2 * RING as u64;
    let made = allocations(|| fill(&mut windows, from, from + CLOSED));
    assert!(
        made <= CLOSED as usize,
        "{made} allocations over {CLOSED} closed windows"
    );
}
