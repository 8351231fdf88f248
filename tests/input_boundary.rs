//! Inputs accepted at a boundary must fail with an error, never abort
//! the process. Every JSON document the workspace reads — scenario
//! specs, fault plans, Chrome traces — goes through one depth-capped
//! parser, so pathologically nested input is an `Err` at each entry
//! point instead of a stack overflow. Deployed scripts, which reach
//! `Script::compile` through the gateway's `POST /deploy`, are capped
//! the same way.

use microfaas::gateway::Gateway;
use microfaas::registry::FunctionRegistry;
use microfaas::Scenario;
use microfaas_sim::faults::FaultPlan;
use microfaas_sim::{json, validate_chrome_trace};
use microfaas_workloads::interp::{Script, MAX_DEPTH};

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

/// Scripts nested 200,000 deep every way the grammar nests: parentheses,
/// unary operator chains, `if` blocks, `else if` chains and a flat
/// operator chain, whose left-leaning tree is as tall as it is long.
fn deep_scripts() -> Vec<(&'static str, String)> {
    let depth = 200_000;
    vec![
        (
            "parentheses",
            format!("return {}1{};", "(".repeat(depth), ")".repeat(depth)),
        ),
        ("negations", format!("return {}1;", "-".repeat(depth))),
        ("nots", format!("return {}true;", "!".repeat(depth))),
        (
            "blocks",
            format!(
                "{}return 1;{}",
                "if true { ".repeat(depth),
                " }".repeat(depth)
            ),
        ),
        (
            "else-if chain",
            format!(
                "if false {{ }}{} return 1;",
                " else if false { }".repeat(depth)
            ),
        ),
        (
            "operator chain",
            format!("return {}1;", "1 + ".repeat(depth)),
        ),
    ]
}

#[test]
fn deep_scripts_are_a_compile_error() {
    for (shape, source) in deep_scripts() {
        let err = Script::compile(&source).expect_err(shape);
        assert!(err.to_string().contains("nesting"), "{shape}: {err}");
    }
}

#[test]
fn scripts_at_the_cap_still_compile_and_run() {
    let parens = format!(
        "return {}1{};",
        "(".repeat(MAX_DEPTH - 1),
        ")".repeat(MAX_DEPTH - 1)
    );
    let chain = format!("return {}1;", "1 + ".repeat(MAX_DEPTH - 1));
    for source in [parens, chain] {
        let script = Script::compile(&source).expect("within the cap");
        assert!(script.run(1_000_000).is_ok());
    }
}

#[test]
fn the_gateway_answers_deep_deploys_with_400() {
    let mut gateway = Gateway::new(FunctionRegistry::paper_suite(), 7);
    for (i, (shape, source)) in deep_scripts().into_iter().enumerate() {
        let raw = format!(
            "POST /deploy/deep{i} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{source}",
            source.len()
        );
        let response = gateway.handle(raw.as_bytes());
        assert_eq!(response.status, 400, "{shape}");
        let body = String::from_utf8_lossy(&response.body);
        assert!(body.contains("nesting"), "{shape}: {body}");
    }
}
