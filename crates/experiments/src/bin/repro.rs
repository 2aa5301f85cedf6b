//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--seed N] [--csv DIR] [--json PATH] [--trace DIR] [--timeline DIR]
//! repro --list
//! ```
//!
//! `--list` prints the experiment catalog (names, aliases, and the
//! `key_metrics` keys each emits) and exits. Unknown experiment names
//! exit with status 2.
//!
//! `--json PATH` writes one JSON object per experiment (`-` = stdout,
//! suppressing the text report); `--trace DIR` records the run with
//! `st-trace` and exports `chrome_trace.json` (load it in Perfetto),
//! `metrics.jsonl` and `summary.txt`; `--timeline DIR` turns on the
//! same session's series view and exports `timeline.jsonl` (time series
//! and fire-delay waterfall; observation only, so `--json` output is
//! byte-identical with and without it). See EXPERIMENTS.md for all
//! three schemas.

use st_experiments::{
    ack_compression, appendix_a, congestion, fault_matrix, fig2_fig3, fig4_table1, fig5,
    fig6_table2, latency, livelock, overload, profiler, profiler_overhead, rt_calibration,
    rt_chaos, scaling, sec52, table3, table45, table67, table8, timeline, trace_overhead, Scale,
    CATALOG,
};
use st_trace::json::ObjectBuilder;
use st_trace::{json, TraceConfig, TraceSession};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut seed = 1u64;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut json_path: Option<String> = None;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut timeline_dir: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--csv" => {
                let dir = it.next().unwrap_or_else(|| die("--csv needs a directory"));
                csv_dir = Some(std::path::PathBuf::from(dir));
            }
            "--json" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| die("--json needs a path ('-' for stdout)"));
                json_path = Some(path.clone());
            }
            "--trace" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| die("--trace needs a directory"));
                trace_dir = Some(std::path::PathBuf::from(dir));
            }
            "--timeline" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| die("--timeline needs a directory"));
                timeline_dir = Some(std::path::PathBuf::from(dir));
            }
            "--list" => {
                print_list();
                return;
            }
            "--help" | "-h" => {
                let names: Vec<&str> = CATALOG.iter().map(|e| e.name).collect();
                println!(
                    "usage: repro [EXPERIMENT ...] [--quick] [--seed N] [--csv DIR] [--json PATH] [--trace DIR] [--timeline DIR]\n\
                     experiments: all {}\n\
                     --list          print the experiment catalog with metric keys and exit\n\
                     --json PATH     one JSON object per experiment; '-' writes to stdout and suppresses the text report\n\
                     --trace DIR     record with st-trace; writes chrome_trace.json, metrics.jsonl, summary.txt\n\
                     --timeline DIR  sample time series while running; writes timeline.jsonl (series + fire-delay waterfall)",
                    names.join(" ")
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    for w in &wanted {
        if w != "all" && st_experiments::find_experiment(w).is_none() {
            die(&format!(
                "unknown experiment '{w}' (run with --list for the catalog)"
            ));
        }
    }

    let all = wanted.iter().any(|w| w == "all");
    let want = |names: &[&str]| all || wanted.iter().any(|w| names.contains(&w.as_str()));

    // With `--json -` the machine-readable stream owns stdout.
    let json_to_stdout = json_path.as_deref() == Some("-");
    let mut json_lines: Vec<String> = Vec::new();
    let collect_json = json_path.is_some();

    // One session serves both flags: `--trace` sizes the event ring for
    // a whole run (without it the ring only has to exist beside the
    // registry the sampler differences), `--timeline` turns the series
    // view on (without it worlds are not observed, so a trace records
    // exactly the run it would have been unobserved).
    for dir in trace_dir.iter().chain(&timeline_dir) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    }
    let config = TraceConfig {
        capacity: trace_dir.as_ref().map_or(1 << 12, |_| 1 << 20),
        series_capacity: timeline_dir.as_ref().map_or(0, |_| 1 << 13),
    };
    let session =
        (trace_dir.is_some() || timeline_dir.is_some()).then(|| TraceSession::start(config));

    if !json_to_stdout {
        println!(
            "# soft-timers paper reproduction ({:?} scale, seed {seed})\n",
            scale
        );
    }
    let write_csv = |name: &str, series: &st_stats::Series| {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("csv dir: {e}")));
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, series.to_csv())
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
    };
    // One report: print the text rendering (unless JSON owns stdout) and
    // collect the experiment's key metrics as a JSON line.
    let mut emit = |name: &str, rendered: String, metrics: Vec<(String, f64)>| {
        if !json_to_stdout {
            println!("{rendered}");
        }
        if collect_json {
            let mut m = ObjectBuilder::new();
            for (k, v) in &metrics {
                m = m.f64(k, *v);
            }
            json_lines.push(
                ObjectBuilder::new()
                    .str("experiment", name)
                    .u64("seed", seed)
                    .str(
                        "scale",
                        if scale == Scale::Quick {
                            "quick"
                        } else {
                            "full"
                        },
                    )
                    .raw("metrics", &m.build())
                    .build(),
            );
        }
    };

    if want(&["fig2", "fig3"]) {
        let r = fig2_fig3::run(scale, seed);
        emit("fig2_fig3", r.render(), r.key_metrics());
        write_csv("fig2_throughput", &r.fig2_series());
        write_csv("fig3_overhead", &r.fig3_series());
    }
    if want(&["sec52"]) {
        let r = sec52::run(scale, seed);
        emit("sec52", r.render(), r.key_metrics());
    }
    if want(&["fig4", "table1"]) {
        let r = fig4_table1::run(scale, seed);
        emit("fig4_table1", r.render(), r.key_metrics());
        for id in st_workloads::WorkloadId::ALL {
            if let Some(s) = r.cdf_series(id) {
                write_csv(
                    &format!(
                        "fig4_cdf_{}",
                        id.label().to_lowercase().replace([' ', '(', ')'], "")
                    ),
                    &s,
                );
            }
        }
    }
    if want(&["fig5"]) {
        let r = fig5::run(scale, seed);
        emit("fig5", r.render(), r.key_metrics());
        write_csv("fig5_medians_1ms", &r.series_1ms());
        write_csv("fig5_medians_10ms", &r.series_10ms());
    }
    if want(&["fig6", "table2"]) {
        let r = fig6_table2::run(scale, seed);
        emit("fig6_table2", r.render(), r.key_metrics());
        for src in [
            st_kernel::TriggerSource::Syscall,
            st_kernel::TriggerSource::IpOutput,
            st_kernel::TriggerSource::IpIntr,
            st_kernel::TriggerSource::TcpipOther,
            st_kernel::TriggerSource::Trap,
        ] {
            if let Some(s) = r.knockout_series(src) {
                write_csv(&format!("fig6_no_{}", src.label().replace('-', "_")), &s);
            }
        }
    }
    if want(&["table3"]) {
        let r = table3::run(scale, seed);
        emit("table3", r.render(), r.key_metrics());
    }
    if want(&["table45", "table4", "table5"]) {
        let r = table45::run(scale, seed);
        emit("table45", r.render(), r.key_metrics());
    }
    if want(&["table67", "table6", "table7"]) {
        let r = table67::run(scale, seed);
        emit("table67", r.render(), r.key_metrics());
    }
    if want(&["table8"]) {
        let r = table8::run(scale, seed);
        emit("table8", r.render(), r.key_metrics());
    }
    if want(&["scaling"]) {
        let r = scaling::run(scale, seed);
        emit("scaling", r.render(), r.key_metrics());
    }
    if want(&["appendix_a", "appendixa"]) {
        let r = appendix_a::run(scale, seed);
        emit("appendix_a", r.render(), r.key_metrics());
    }
    if want(&["livelock"]) {
        let r = livelock::run(scale, seed);
        emit("livelock", r.render(), r.key_metrics());
    }
    if want(&["latency"]) {
        let r = latency::run(scale, seed);
        emit("latency", r.render(), r.key_metrics());
    }
    if want(&["ack_compression", "ackcompression"]) {
        let r = ack_compression::run(scale, seed);
        emit("ack_compression", r.render(), r.key_metrics());
    }
    if want(&["congestion", "loss"]) {
        let r = congestion::run(scale, seed);
        emit("congestion", r.render(), r.key_metrics());
    }
    if want(&["overload", "admit"]) {
        let r = overload::run(scale, seed);
        emit("overload", r.render(), r.key_metrics());
    }
    if want(&["fault_matrix", "faultmatrix"]) {
        // The hostile-callback rows inject panics that the harness
        // catches; keep the default hook from spraying their
        // backtraces over the report.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let matrix = fault_matrix::run(scale, seed);
        std::panic::set_hook(hook);
        emit("fault_matrix", matrix.render(), matrix.key_metrics());
    }
    if want(&["trace_overhead", "traceoverhead"]) {
        // Suspends (and later restores) this binary's own --trace
        // session while it runs its self-measuring sessions.
        let r = trace_overhead::run(scale, seed);
        emit("trace_overhead", r.render(), r.key_metrics());
    }
    if want(&["timeline", "scope"]) {
        // Suspends (and later restores) this binary's own --timeline /
        // --trace sessions while it runs its self-measuring rows.
        let r = timeline::run(scale, seed);
        emit("timeline", r.render(), r.key_metrics());
    }
    if want(&["profiler"]) {
        let r = profiler::run(scale, seed);
        emit("profiler", r.render(), r.key_metrics());
        if let Some(dir) = &csv_dir {
            // Collapsed-stack export alongside the CSVs: load it in
            // speedscope or pipe through inferno-flamegraph.
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("csv dir: {e}")));
            let path = dir.join("profiler.folded");
            std::fs::write(&path, &r.folded)
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
    }
    if want(&["profiler_overhead", "profileroverhead"]) {
        let r = profiler_overhead::run(scale, seed);
        emit("profiler_overhead", r.render(), r.key_metrics());
        write_csv("profiler_overhead", &r.series());
    }
    if want(&["rt_chaos", "rtchaos", "chaos"]) {
        // Chaos runs inject handler panics that the dispatcher catches;
        // keep the default hook from spraying backtraces over the
        // report. Host-side numbers vary run to run; the sim twin and
        // the injection schedule do not.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = rt_chaos::run(scale, seed);
        std::panic::set_hook(hook);
        emit("rt_chaos", r.render(), r.key_metrics());
    }
    if want(&["rt_calibration", "rtcalibration", "rt"]) {
        // The only experiment that measures the real machine: host-side
        // numbers vary run to run; the sim-side replay does not.
        let r = rt_calibration::run(scale, seed);
        emit("rt_calibration", r.render(), r.key_metrics());
    }

    if let Some(path) = &json_path {
        let mut out = String::new();
        for line in &json_lines {
            json::validate(line)
                .unwrap_or_else(|e| die(&format!("internal error: invalid JSON line: {e}")));
            out.push_str(line);
            out.push('\n');
        }
        if path == "-" {
            print!("{out}");
        } else {
            std::fs::write(path, out).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            eprintln!("wrote {path} ({} experiments)", json_lines.len());
        }
    }

    let Some(snap) = session.map(TraceSession::finish) else {
        return;
    };
    let write = |dir: &std::path::Path, name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body)
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    };
    // The exporters validate what they can themselves; re-validate here
    // so a writer bug fails with the artifact's name in the message.
    let check = |what: &str, text: &str| {
        json::validate(text)
            .unwrap_or_else(|e| die(&format!("internal error: invalid {what}: {e}")))
    };
    if let Some(dir) = trace_dir.as_ref() {
        let chrome = snap.chrome_trace_json();
        check("chrome trace", &chrome);
        let jsonl = snap.metrics_jsonl();
        jsonl.lines().for_each(|line| check("metrics line", line));
        write(dir, "chrome_trace.json", &chrome);
        write(dir, "metrics.jsonl", &jsonl);
        write(dir, "summary.txt", &snap.summary());
    }
    if let Some(dir) = timeline_dir.as_ref() {
        let lines = snap.timeline_jsonl();
        lines.iter().for_each(|line| check("timeline line", line));
        write(dir, "timeline.jsonl", &(lines.join("\n") + "\n"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints the experiment catalog: names, aliases, description and the
/// `key_metrics` keys each experiment emits (`<x>` marks a family of
/// keys expanded at run time).
fn print_list() {
    println!("experiments ('all' runs every one):");
    for e in CATALOG {
        let aliases = if e.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", e.aliases.join(", "))
        };
        println!("  {}{aliases}\n      {}", e.name, e.what);
        println!("      keys: {}", e.keys.join(", "));
    }
}
