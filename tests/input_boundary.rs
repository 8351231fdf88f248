//! Inputs accepted at a boundary must fail with an error, never abort
//! the process. Every JSON document the workspace reads — scenario
//! specs, fault plans, Chrome traces — goes through one depth-capped
//! parser, so pathologically nested input is an `Err` at each entry
//! point instead of a stack overflow.

use microfaas::Scenario;
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{json, validate_chrome_trace};

/// `[` x 200,000 then `]` x 200,000: far past any recursion the stack
/// could hold without the depth cap.
fn deep_document() -> String {
    "[".repeat(200_000) + &"]".repeat(200_000)
}

#[test]
fn deep_json_is_an_error_at_every_entry_point() {
    let deep = deep_document();
    let err = json::parse(&deep).expect_err("nesting past the cap");
    assert_eq!(err.offset, json::MAX_DEPTH);
    assert!(Scenario::from_json(&deep).is_err());
    assert!(FaultPlan::from_json(&deep).is_err());
    assert!(validate_chrome_trace(&deep).is_err());
}

#[test]
fn deep_objects_are_an_error_too() {
    let depth = 200_000;
    let deep = r#"{"scenarios":"#.repeat(depth) + "[]" + &"}".repeat(depth);
    let err = Scenario::from_json(&deep).expect_err("nesting past the cap");
    assert!(err.contains("nesting"), "{err}");
    let err = FaultPlan::from_json(&deep).expect_err("nesting past the cap");
    assert!(err.to_string().contains("nesting"), "{err}");
}
