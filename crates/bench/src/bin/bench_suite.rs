//! Runs the hot-path microbenchmark suite and maintains the
//! `BENCH_*.json` perf trajectory.
//!
//! ```text
//! bench-suite [--smoke] [--out PATH]          run the suite, write a snapshot
//! bench-suite --compare OLD NEW [--tolerance F]   gate NEW against OLD
//! bench-suite --trend FILE...                 per-bench trajectory table
//! ```
//!
//! Run mode prints one summary line per entry and writes the snapshot
//! (default `BENCH_PR4.json`), validating it with `st-trace`'s JSON
//! validator first. Compare mode parses both snapshots, prints the
//! per-bench delta table, and exits 1 when any bench's `min_ns`
//! regressed beyond the tolerance (default 30 %, plus a 20 ns absolute
//! floor to ignore clock-granularity noise). `scripts/perf_gate.sh`
//! wraps compare mode for CI. Trend mode reads an ordered series of
//! snapshots (oldest first) and prints every bench's `min_ns` across the
//! whole series — `scripts/bench_trend.sh` feeds it all committed
//! `BENCH_PR*.json` files.

use st_bench::suite;
use st_trace::json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = String::from("BENCH_PR4.json");
    let mut compare: Option<(String, String)> = None;
    let mut trend_paths: Vec<String> = Vec::new();
    let mut tolerance = 0.30f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .clone();
            }
            "--compare" => {
                let old = it
                    .next()
                    .unwrap_or_else(|| die("--compare needs OLD and NEW paths"))
                    .clone();
                let new = it
                    .next()
                    .unwrap_or_else(|| die("--compare needs OLD and NEW paths"))
                    .clone();
                compare = Some((old, new));
            }
            "--trend" => {
                trend_paths.extend(it.by_ref().cloned());
                if trend_paths.is_empty() {
                    die("--trend needs at least one snapshot path");
                }
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a fraction, e.g. 0.30"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench-suite [--smoke] [--out PATH]\n\
                     \x20      bench-suite --compare OLD NEW [--tolerance F]\n\
                     \x20      bench-suite --trend FILE...\n\
                     --smoke        5 samples per bench instead of 30 (CI default)\n\
                     --out PATH     snapshot path (default BENCH_PR4.json)\n\
                     --compare      gate snapshot NEW against snapshot OLD\n\
                     --trend        print the per-bench min_ns trajectory across\n\
                     \x20              the given snapshots, oldest first\n\
                     --tolerance F  allowed min_ns growth fraction (default 0.30)"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?} (see --help)")),
        }
    }

    if !trend_paths.is_empty() {
        let snapshots: Vec<(String, String)> = trend_paths
            .iter()
            .map(|p| {
                let label = std::path::Path::new(p)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(p)
                    .to_string();
                let body = std::fs::read_to_string(p)
                    .unwrap_or_else(|e| die(&format!("reading {p}: {e}")));
                (label, body)
            })
            .collect();
        let report = suite::trend(&snapshots).unwrap_or_else(|e| die(&e));
        println!("perf trajectory ({} snapshots):", snapshots.len());
        println!("{}", report.header);
        for line in &report.lines {
            println!("{line}");
        }
        return;
    }

    if let Some((old_path, new_path)) = compare {
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("reading {p}: {e}")))
        };
        let report = suite::compare(&read(&old_path), &read(&new_path), tolerance)
            .unwrap_or_else(|e| die(&e));
        println!(
            "perf gate: {old_path} -> {new_path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
        for line in &report.lines {
            println!("  {line}");
        }
        if report.regressions.is_empty() {
            println!("perf gate: ok ({} benches compared)", report.lines.len());
        } else {
            eprintln!(
                "perf gate: {} regression(s): {}",
                report.regressions.len(),
                report.regressions.join(", ")
            );
            std::process::exit(1);
        }
        return;
    }

    let stats = suite::run_suite(smoke);
    for s in &stats {
        println!(
            "{:<42} min {:>10.1} ns  median {:>10.1} ns  mean {:>10.1} ns  ({} samples)",
            s.name, s.min_ns, s.median_ns, s.mean_ns, s.samples
        );
    }
    let body = suite::to_json(&stats, smoke);
    json::validate(&body)
        .unwrap_or_else(|e| die(&format!("internal error: invalid snapshot JSON: {e}")));
    std::fs::write(&out_path, format!("{body}\n"))
        .unwrap_or_else(|e| die(&format!("writing {out_path}: {e}")));
    eprintln!(
        "wrote {out_path} ({} benches, {} mode)",
        stats.len(),
        if smoke { "smoke" } else { "full" }
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
