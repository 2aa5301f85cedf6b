//! Regeneration harness for every table and figure in the paper's
//! evaluation (section 5).
//!
//! Each module reproduces one experiment and returns a structured report
//! that renders as a text table with paper-reported values alongside the
//! measured ones. The `repro` binary drives them:
//!
//! ```text
//! cargo run --release -p st-experiments --bin repro -- all
//! cargo run --release -p st-experiments --bin repro -- table3 --quick
//! ```
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig2_fig3`] | Figures 2-3: throughput / overhead vs. added timer frequency |
//! | [`sec52`] | §5.2: base overhead of soft timers (null handler at max rate) |
//! | [`fig4_table1`] | Figure 4 + Table 1: trigger interval CDFs and statistics |
//! | [`fig5`] | Figure 5: windowed medians over time (ST-Apache-compute) |
//! | [`fig6_table2`] | Figure 6 + Table 2: trigger sources and knock-out CDFs |
//! | [`table3`] | Table 3: rate-based clocking overhead |
//! | [`table45`] | Tables 4-5: transmission process statistics |
//! | [`table67`] | Tables 6-7: WAN transfer performance |
//! | [`table8`] | Table 8: network polling throughput |
//! | [`scaling`] | §5.10 scaling discussion (PII-300 / PIII-500 / Alpha) |
//! | [`appendix_a`] | Appendix A: big ACKs & burst smoothing (extension) |
//! | [`ack_compression`] | Appendix A.1: ACK compression vs pacing (extension) |
//! | [`congestion`] | loss recovery: drop-tail bottleneck + faulty wire, paced vs regular (extension) |
//! | [`livelock`] | receive livelock across dispatch policies (extension) |
//! | [`overload`] | hostile open-loop clients vs soft-timer-driven admission control (extension) |
//! | [`fault_matrix`] | fault injection: firing bound under clock/interrupt/NIC/callback/wire/overload faults (extension) |
//! | [`latency`] | packet latency on an idle machine across policies (extension) |
//! | [`trace_overhead`] | st-trace self-measurement: tracer cost + Table-1 shares re-derived from the trace (extension) |
//! | [`timeline`] | timeline telemetry: flash-crowd trajectory + fire-delay attribution (extension) |
//! | [`profiler`] | st-prof sampled attribution vs exact context accounting (extension) |
//! | [`profiler_overhead`] | hardware-interrupt vs soft-timer sampling cost sweep (extension) |
//! | [`rt_calibration`] | host-runtime measurement + sim↔reality CostModel calibration (extension) |
//! | [`rt_chaos`] | supervised host runtime under chaos injection: detection, self-healing, degraded envelope (extension) |
//!
//! Every report additionally exposes `key_metrics()` — a flat list of
//! `(name, value)` pairs — which the `repro --json` flag serializes as
//! one JSON object per experiment (see EXPERIMENTS.md for the schema).
//! [`CATALOG`] is the machine-readable registry behind `repro --list`:
//! every experiment's CLI names and metric keys, in dispatch order.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod ack_compression;
pub mod appendix_a;
pub mod congestion;
pub mod fault_matrix;
pub mod fig2_fig3;
pub mod fig4_table1;
pub mod fig5;
pub mod fig6_table2;
pub mod latency;
pub mod livelock;
pub mod overload;
pub mod profiler;
pub mod profiler_overhead;
pub mod rt_calibration;
pub mod rt_chaos;
pub mod scaling;
pub mod sec52;
pub mod table3;
pub mod table45;
pub mod table67;
pub mod table8;
pub mod timeline;
pub mod trace_overhead;

/// How much work to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts / durations: seconds per experiment. Used by
    /// tests and benches.
    Quick,
    /// Paper-scale sample counts (2 M trigger samples, long transfers).
    Full,
}

impl Scale {
    /// Scales a full-size count down in quick mode.
    pub fn count(self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 10).max(1),
            Scale::Full => full,
        }
    }

    /// Scales a duration in seconds.
    pub fn secs(self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 5).max(1),
            Scale::Full => full,
        }
    }
}

/// One entry in the `repro` experiment catalog.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Canonical CLI name.
    pub name: &'static str,
    /// Additional accepted CLI spellings.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub what: &'static str,
    /// `key_metrics` keys the experiment emits; `<x>` marks a per-row
    /// or per-frequency family expanded at run time.
    pub keys: &'static [&'static str],
}

/// The experiment registry: CLI names, descriptions and metric keys, in
/// `repro`'s dispatch order. Drives `repro --list` and the unknown-name
/// check (anything not named here exits with status 2).
pub const CATALOG: &[ExperimentInfo] = &[
    ExperimentInfo {
        name: "fig2",
        aliases: &["fig3"],
        what: "Figures 2-3: throughput/overhead vs added hardware-timer frequency",
        keys: &[
            "us_per_interrupt",
            "throughput_<khz>khz",
            "overhead_<khz>khz",
        ],
    },
    ExperimentInfo {
        name: "sec52",
        aliases: &[],
        what: "sec. 5.2: base overhead of soft timers (null handler at max rate)",
        keys: &[
            "base_throughput",
            "soft_throughput",
            "soft_overhead",
            "soft_fire_interval_us",
            "hw_equivalent_throughput",
            "hw_overhead",
        ],
    },
    ExperimentInfo {
        name: "fig4",
        aliases: &["table1"],
        what: "Figure 4 + Table 1: trigger interval CDFs and statistics",
        keys: &[
            "<workload>_median_us",
            "<workload>_mean_us",
            "<workload>_over_100us",
            "<workload>_over_150us",
        ],
    },
    ExperimentInfo {
        name: "fig5",
        aliases: &[],
        what: "Figure 5: windowed medians over time (ST-Apache-compute)",
        keys: &[
            "windows_1ms",
            "windows_10ms",
            "frac_1ms_above_100us",
            "frac_1ms_in_20_60us",
        ],
    },
    ExperimentInfo {
        name: "fig6",
        aliases: &["table2"],
        what: "Figure 6 + Table 2: trigger sources and knock-out CDFs",
        keys: &[
            "all_median_us",
            "frac_<source>",
            "median_without_<source>_us",
        ],
    },
    ExperimentInfo {
        name: "table3",
        aliases: &[],
        what: "Table 3: rate-based clocking overhead, hardware vs soft",
        keys: &[
            "<server>_base_throughput",
            "<server>_hw_overhead",
            "<server>_soft_overhead",
            "<server>_soft_xmit_interval_us",
        ],
    },
    ExperimentInfo {
        name: "table45",
        aliases: &["table4", "table5"],
        what: "Tables 4-5: transmission process statistics",
        keys: &[
            "<machine>_target_ticks",
            "<machine>_hw_avg",
            "<machine>_hw_std",
            "<machine>_min<t>_avg",
            "<machine>_min<t>_std",
        ],
    },
    ExperimentInfo {
        name: "table67",
        aliases: &["table6", "table7"],
        what: "Tables 6-7: WAN transfer performance, paced vs regular",
        keys: &[
            "<link>_bottleneck_mbps",
            "<link>_p<loss>_reg_xput",
            "<link>_p<loss>_rbc_xput",
            "<link>_p<loss>_reg_resp_ms",
            "<link>_p<loss>_rbc_resp_ms",
        ],
    },
    ExperimentInfo {
        name: "table8",
        aliases: &[],
        what: "Table 8: network polling throughput across dispatch policies",
        keys: &[
            "<server>_interrupt",
            "<server>_hybrid",
            "<server>_soft<t>us",
        ],
    },
    ExperimentInfo {
        name: "scaling",
        aliases: &[],
        what: "sec. 5.10: interrupt cost vs trigger granularity across machines",
        keys: &[
            "<machine>_interrupt_us",
            "<machine>_trigger_mean_us",
            "<machine>_granularity_per_cost",
        ],
    },
    ExperimentInfo {
        name: "appendix_a",
        aliases: &["appendixa"],
        what: "Appendix A: big ACKs and burst smoothing (extension)",
        keys: &[
            "<mode>_max_ack_coverage",
            "<mode>_max_backlog_ms",
            "<mode>_response_ms",
        ],
    },
    ExperimentInfo {
        name: "livelock",
        aliases: &[],
        what: "receive livelock across dispatch policies (extension)",
        keys: &["<policy>_peak_pps", "<policy>_at_max_load_pps"],
    },
    ExperimentInfo {
        name: "latency",
        aliases: &[],
        what: "packet latency on an idle machine across policies (extension)",
        keys: &[
            "offered_pps",
            "<policy>_mean_us",
            "<policy>_max_us",
            "<policy>_delivered_pps",
        ],
    },
    ExperimentInfo {
        name: "ack_compression",
        aliases: &["ackcompression"],
        what: "Appendix A.1: ACK compression vs pacing (extension)",
        keys: &[
            "<mode>_compressed_frac",
            "<mode>_max_backlog_ms",
            "<mode>_response_ms",
        ],
    },
    ExperimentInfo {
        name: "congestion",
        aliases: &["loss"],
        what: "loss recovery: drop-tail bottleneck + faulty wire, paced vs regular (extension)",
        keys: &[
            "pacing_wins",
            "backoff_bounded",
            "<path>_wan_drops",
            "<path>_wire_drops",
            "<path>_retransmits",
            "<path>_fast_retransmits",
            "<path>_timeouts",
            "<path>_max_rto_backoff",
            "<path>_srtt_us",
            "<path>_resp_ms",
            "<path>_fired_trigger",
            "<path>_fired_backup",
        ],
    },
    ExperimentInfo {
        name: "overload",
        aliases: &["admit"],
        what: "hostile open-loop clients vs soft-timer-driven admission control (extension)",
        keys: &[
            "no_admission_collapses",
            "soft_timer_holds",
            "soft_update_cpu_pct",
            "hw_update_cpu_pct",
            "soft_cheaper_than_hw",
            "<row>_offered",
            "<row>_goodput",
            "<row>_p99_us",
            "<row>_p999_us",
            "<row>_shed_rate",
            "<row>_dropped",
            "<row>_reaped_pins",
            "<row>_update_cpu_pct",
        ],
    },
    ExperimentInfo {
        name: "fault_matrix",
        aliases: &["faultmatrix"],
        what: "fault injection: firing bound under clock/interrupt/NIC/callback/wire/overload faults (extension)",
        keys: &[
            "all_clean",
            "<fault>_fired",
            "<fault>_backup_fraction",
            "<fault>_bound_violations",
            "<fault>_replayed",
        ],
    },
    ExperimentInfo {
        name: "trace_overhead",
        aliases: &["traceoverhead"],
        what: "st-trace self-measurement: tracer cost + share fidelity (extension)",
        keys: &[
            "ns_per_check_disabled",
            "ns_per_check_enabled",
            "overhead_ratio",
            "triggers",
            "events_captured",
            "events_dropped",
            "fired_trigger",
            "fired_backup",
            "exports_valid",
            "share_<source>",
        ],
    },
    ExperimentInfo {
        name: "timeline",
        aliases: &["scope"],
        what: "timeline telemetry: flash-crowd trajectory + fire-delay attribution (extension)",
        keys: &[
            "attribution_exact",
            "soft_sampling_cpu_pct",
            "hw_sampling_cpu_pct",
            "soft_sampling_cheaper",
            "limit_dips_during_surge",
            "<row>_goodput",
            "<row>_p99_us",
            "<row>_scope_fires",
            "<row>_scope_cpu_pct",
            "<row>_facility_fires",
            "<row>_trigger_wait_ticks",
            "<row>_cascade_ticks",
            "<row>_win<w>_done_per_s",
        ],
    },
    ExperimentInfo {
        name: "profiler",
        aliases: &[],
        what: "st-prof sampled attribution vs exact context accounting (extension)",
        keys: &[
            "samples",
            "skipped",
            "distinct_stacks",
            "max_abs_error",
            "json_valid",
            "exact_<stack>",
            "sampled_<stack>",
        ],
    },
    ExperimentInfo {
        name: "profiler_overhead",
        aliases: &["profileroverhead"],
        what: "hardware-interrupt vs soft-timer sampling cost sweep (extension)",
        keys: &[
            "prof_sample_ns",
            "hw_interrupt_ns",
            "hw_overhead_<khz>khz",
            "soft_overhead_<khz>khz",
            "soft_effective_<khz>khz",
        ],
    },
    ExperimentInfo {
        name: "rt_calibration",
        aliases: &["rtcalibration", "rt"],
        what: "host-runtime measurement + sim<->reality CostModel calibration (extension; runs on this machine)",
        keys: &[
            "host_<source>_density_hz",
            "host_<source>_interval_p50_ns",
            "host_<source>_interval_p99_ns",
            "host_<source>_fire_delay_p50_ns",
            "host_fired_trigger",
            "host_fired_backup",
            "host_fire_delay_p50_ns",
            "host_fire_delay_p99_ns",
            "host_backup_share",
            "host_facility_cpu_fraction",
            "host_facility_cpu_fraction_raw",
            "host_check_cost_p50_ns",
            "host_sleep_slack_p50_ns",
            "host_spin_slack_p50_ns",
            "probe_retries",
            "fitted_trigger_check_ns",
            "fitted_fire_dispatch_ns",
            "fitted_clock_read_ns",
            "fitted_wake_fire_ns",
            "fitted_max_idle_density_hz",
            "model_prof_sample_ns",
            "model_scope_sample_ns",
            "sim_checks",
            "sim_fired_trigger",
            "sim_fired_backup",
            "sim_fire_delay_p50_ns",
            "sim_fire_delay_p99_ns",
            "sim_backup_share",
            "sim_facility_cpu_fraction",
            "sim_replay_identical",
            "err_fire_delay_p50",
            "err_fire_delay_p99",
            "err_backup_share",
            "err_facility_cpu_fraction",
        ],
    },
    ExperimentInfo {
        name: "rt_chaos",
        aliases: &["rtchaos", "chaos"],
        what: "supervised host runtime under chaos injection: detection, restart, degraded envelope (extension; runs on this machine)",
        keys: &[
            "classes",
            "<class>_stalls_injected",
            "<class>_stalls_detected",
            "<class>_detect_latency_p50_ns",
            "<class>_restarts",
            "<class>_recovered",
            "<class>_giveups",
            "<class>_degraded_windows",
            "<class>_degraded_total_ns",
            "<class>_degraded_delay_p99_ns",
            "<class>_envelope_ns",
            "<class>_envelope_ok",
            "<class>_detected_in_window",
            "<class>_panics_caught",
            "<class>_clock_jumps",
            "<class>_lock_recoveries",
            "<class>_twin_actions",
            "<class>_twin_identical",
            "all_twin_replays_identical",
            "any_stall_detected",
            "any_stall_recovered",
            "all_envelopes_ok",
        ],
    },
];

/// Looks up a CLI name (canonical or alias) in [`CATALOG`].
pub fn find_experiment(name: &str) -> Option<&'static ExperimentInfo> {
    CATALOG
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// Formats a ratio as the paper's "(1.23)" speedup annotation.
pub fn speedup(base: f64, x: f64) -> String {
    format!("({:.2})", x / base)
}

/// Normalizes a label into a `key_metrics` / JSON metric key:
/// lowercase, with runs of non-alphanumerics collapsed to `_`.
pub fn metric_key(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod lib_tests {
    use super::{find_experiment, metric_key, CATALOG};

    #[test]
    fn metric_keys_are_flat_identifiers() {
        assert_eq!(metric_key("ST-Apache (compute)"), "st_apache_compute");
        assert_eq!(metric_key("ip-output"), "ip_output");
        assert_eq!(metric_key("P-HTTP"), "p_http");
        assert_eq!(metric_key("__x__"), "x");
    }

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let mut seen = std::collections::BTreeSet::new();
        for e in CATALOG {
            assert!(seen.insert(e.name), "duplicate name {}", e.name);
            for a in e.aliases {
                assert!(seen.insert(a), "duplicate alias {a}");
            }
            assert!(!e.what.is_empty());
            assert!(!e.keys.is_empty(), "{} lists no keys", e.name);
        }
        assert_eq!(find_experiment("fig3").map(|e| e.name), Some("fig2"));
        assert_eq!(
            find_experiment("profiler").map(|e| e.name),
            Some("profiler")
        );
        assert!(find_experiment("nope").is_none());
    }

    #[test]
    fn catalog_keys_match_emitted_metrics() {
        // Spot-check one cheap experiment: every static (non-family) key
        // in the catalog appears in the experiment's actual key_metrics.
        let e = find_experiment("profiler_overhead").unwrap();
        let r = crate::profiler_overhead::run(crate::Scale::Quick, 1);
        let emitted: Vec<String> = r.key_metrics().into_iter().map(|(k, _)| k).collect();
        for key in e.keys.iter().filter(|k| !k.contains('<')) {
            assert!(emitted.iter().any(|k| k == key), "missing key {key}");
        }
    }
}
