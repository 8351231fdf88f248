//! The regex engine allocates per call, never per input byte or per
//! start offset: `find_all` and `is_match` on a 64 KiB text make exactly
//! as many heap allocations as on a 1 KiB one when nothing matches.
//!
//! This file holds one test so the counting allocator below sees no
//! other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use microfaas_workloads::algorithms::regex::Regex;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn allocations_do_not_grow_with_the_input() {
    // The RegExSearch pattern on text that keeps threads alive at every
    // byte (each letter starts a `[a-z]+` run) but never completes a match.
    let re = Regex::new(r"[a-z]+@[a-z]+\.(com|org|net)").expect("valid pattern");
    let short = "worker node status ".repeat(1024 / 19 + 1);
    let long = "worker node status ".repeat(64 * 1024 / 19 + 1);

    let find_short = allocations(|| assert!(re.find_all(&short).is_empty()));
    let find_long = allocations(|| assert!(re.find_all(&long).is_empty()));
    assert_eq!(find_short, find_long, "find_all allocates per input byte");
    assert!(find_long <= 4, "find_all made {find_long} allocations");

    let match_short = allocations(|| assert!(!re.is_match(&short)));
    let match_long = allocations(|| assert!(!re.is_match(&long)));
    assert_eq!(match_short, match_long, "is_match allocates per input byte");
    assert!(match_long <= 4, "is_match made {match_long} allocations");
}
