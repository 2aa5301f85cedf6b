//! Seed replay is byte-exact at the outermost observable layer: two
//! `repro --json` runs with the same seed must produce identical bytes.
//!
//! This is the regression test for the unordered-iteration fixes
//! (MultiPacer and the sim engine's live-event set moved to ordered
//! containers; clippy's `disallowed_types` now bans `HashMap`/`HashSet`):
//! any order-dependent iteration that sneaks back into the simulation
//! shows up here as a byte diff between two identical seeds.

use std::process::Command;

fn repro_json(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "no JSON on stdout");
    out.stdout
}

#[test]
fn identical_seeds_produce_byte_identical_json() {
    // sec52 drives the facility + workload layers; table45 drives the
    // rate pacer (the code the BTreeMap fix touched).
    let args = ["sec52", "table45", "--quick", "--seed", "7", "--json", "-"];
    let a = repro_json(&args);
    let b = repro_json(&args);
    assert_eq!(
        a,
        b,
        "two runs with seed 7 diverged:\n--- run 1\n{}\n--- run 2\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
}

#[test]
fn profiler_json_is_byte_identical_under_seed_1() {
    // The profiler threads two independent RNG streams (triggers and the
    // context script) plus a BTreeMap-keyed profile through the export;
    // byte identity here pins the whole chain, including the folded-stack
    // ordering in the JSON report.
    let args = ["profiler", "--quick", "--seed", "1", "--json", "-"];
    let a = repro_json(&args);
    let b = repro_json(&args);
    assert_eq!(
        a,
        b,
        "two profiler runs with seed 1 diverged:\n--- run 1\n{}\n--- run 2\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
    let text = String::from_utf8(a).expect("utf8 JSON");
    assert!(text.contains("\"experiment\":\"profiler\""));
    assert!(text.contains("max_abs_error"));
}

#[test]
fn different_seeds_actually_perturb_the_output() {
    let a = repro_json(&["sec52", "--quick", "--seed", "7", "--json", "-"]);
    let b = repro_json(&["sec52", "--quick", "--seed", "8", "--json", "-"]);
    assert_ne!(a, b, "seed is not reaching the simulation");
}
