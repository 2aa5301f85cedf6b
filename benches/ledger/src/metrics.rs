//! The metric registry — the names `BENCHMARK.json` lists, with units and
//! bounds — and the `repeat` mode that checks two sets of runs of one
//! build against those bounds.

use crate::{run_workload, Outcome};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One named metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads `BENCHMARK.json` lists: the driver runs these and holds
/// their end-to-end metrics to the bounds.
pub const WORKLOADS: [&str; 4] = ["rearm_16k", "cancel_16k", "host_paced", "host_saturated"];

/// Workloads `--workload` also takes, which `BENCHMARK.json` does not list.
/// The two simulator workloads work on a few megabytes, past this
/// machine's 2 MB of private cache, so their wall time follows what the
/// host's other guests do to the shared cache: consecutive passes of one
/// build differ by up to 1.7x, for tens of seconds at a time, and ten runs
/// spread by 15-26 % of their median, whichever way a run folds its
/// passes. No bound the contract allows holds that, so their timing is per
/// layer (`experiments.*_s`) and what the driver would have checked is
/// checked by `repeat`: every pass repeats the first one's results.
pub const UNLISTED: [&str; 2] = ["sim_timers", "sim_stack"];

/// Listed workloads first, then the unlisted ones.
pub fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().chain(&UNLISTED).copied()
}

/// Every workload reports every one of these, with tracing off.
pub const END_TO_END: [Metric; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_ns", "ns", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Every traced run reports every one of these.
pub const PER_LAYER: [Metric; 90] = [
    // st-wheel, the production queue at three populations, and the heap.
    layer("wheel.schedule_ns.n256", "ns", Lower),
    layer("wheel.schedule_ns.n16k", "ns", Lower),
    layer("wheel.schedule_ns.n1m", "ns", Lower),
    layer("wheel.cancel_ns.n256", "ns", Lower),
    layer("wheel.cancel_ns.n16k", "ns", Lower),
    layer("wheel.cancel_ns.n1m", "ns", Lower),
    layer("wheel.next_deadline_ns.n256", "ns", Lower),
    layer("wheel.next_deadline_ns.n16k", "ns", Lower),
    layer("wheel.next_deadline_ns.n1m", "ns", Lower),
    layer("wheel.advance_ns_per_fire.n256", "ns", Lower),
    layer("wheel.advance_ns_per_fire.n16k", "ns", Lower),
    layer("wheel.advance_ns_per_fire.n1m", "ns", Lower),
    layer("wheel.heap.schedule_ns.n16k", "ns", Lower),
    layer("wheel.heap.next_deadline_ns.n16k", "ns", Lower),
    layer("wheel.heap.advance_ns_per_fire.n16k", "ns", Lower),
    layer("wheel.next_deadline_calls_per_fire", "ratio", Lower),
    layer("wheel.empty_advance_ratio", "ratio", Lower),
    // st-core.
    layer("core.poll_not_due_ns", "ns", Lower),
    layer("core.poll_fire_ns_per_fire.n256", "ns", Lower),
    layer("core.poll_fire_ns_per_fire.n16k", "ns", Lower),
    layer("core.poll_fire_ns_per_fire.n1m", "ns", Lower),
    layer("core.schedule_ns.n16k", "ns", Lower),
    layer("core.cancel_ns.n16k", "ns", Lower),
    layer("core.self_ns_per_fire.n16k", "ns", Lower),
    layer("core.fires_per_poll", "count", Higher),
    layer("core.pacer_on_transmit_ns", "ns", Lower),
    layer("core.poller_on_poll_ns", "ns", Lower),
    layer("core.smp_trigger_ns", "ns", Lower),
    // st-kernel.
    layer("kernel.trigger_not_due_ns", "ns", Lower),
    layer("kernel.trigger_fire_ns", "ns", Lower),
    layer("kernel.backup_tick_ns", "ns", Lower),
    layer("kernel.machine_ns_per_trigger", "ns", Lower),
    // st-sim.
    layer("sim.engine_ns_per_event.k16", "ns", Lower),
    layer("sim.engine_ns_per_event.k16k", "ns", Lower),
    layer("sim.engine_cancel_ns", "ns", Lower),
    layer("sim.rng_next_ns", "ns", Lower),
    // st-net.
    layer("net.link_enqueue_ns", "ns", Lower),
    layer("net.nic_rx_ns_per_packet", "ns", Lower),
    layer("net.wan_forward_ns", "ns", Lower),
    // st-tcp.
    layer("tcp.transfer_ns_per_segment.lossless", "ns", Lower),
    layer("tcp.transfer_ns_per_segment.lossy", "ns", Lower),
    layer("tcp.retransmit_cycle_ns", "ns", Lower),
    // st-http.
    layer("http.saturation_ns_per_request", "ns", Lower),
    layer("http.saturation_sim_speed", "ratio", Higher),
    layer("http.livelock_ns_per_packet", "ns", Lower),
    // st-experiments: wall seconds of one run of each, and the digests.
    layer("experiments.sec52_s", "s", Lower),
    layer("experiments.table3_s", "s", Lower),
    layer("experiments.table45_s", "s", Lower),
    layer("experiments.table67_s", "s", Lower),
    layer("experiments.table8_s", "s", Lower),
    layer("experiments.fig2_s", "s", Lower),
    layer("experiments.fig4_s", "s", Lower),
    layer("experiments.fig6_s", "s", Lower),
    layer("experiments.livelock_s", "s", Lower),
    layer("experiments.profiler_s", "s", Lower),
    layer("experiments.digest.sim_timers", "count", Lower),
    layer("experiments.digest.sim_stack", "count", Lower),
    // st-rt: the probes, then what the two host regimes show in situ.
    layer("rt.clock_read_ns", "ns", Lower),
    layer("rt.trigger_check_ns", "ns", Lower),
    layer("rt.dispatch_ns", "ns", Lower),
    layer("rt.check_p50_ns.paced", "ns", Lower),
    layer("rt.check_p50_ns.saturated", "ns", Lower),
    layer("rt.check_p99_ns.paced", "ns", Lower),
    layer("rt.check_p99_ns.saturated", "ns", Lower),
    layer("rt.fire_delay_p99_ns.paced", "ns", Lower),
    layer("rt.fire_delay_p99_ns.saturated", "ns", Lower),
    layer("rt.fire_delay_p999_ns.paced", "ns", Lower),
    layer("rt.late_fire_ratio.paced", "ratio", Lower),
    layer("rt.backup_share.paced", "ratio", Lower),
    layer("rt.backup_share.saturated", "ratio", Lower),
    layer("rt.facility_cpu_fraction.paced", "ratio", Lower),
    layer("rt.facility_cpu_fraction.saturated", "ratio", Lower),
    layer("rt.task_density_hz.paced", "1/s", Higher),
    layer("rt.task_density_hz.saturated", "1/s", Higher),
    layer("rt.idle_density_hz.paced", "1/s", Higher),
    layer("rt.idle_density_hz.saturated", "1/s", Higher),
    layer("rt.delivered_ratio.paced", "ratio", Higher),
    layer("rt.delivered_ratio.saturated", "ratio", Higher),
    layer("rt.lock_recoveries", "count", Lower),
    // st-stats, st-trace, st-scope: all three sit inside every host fire.
    layer("stats.hdr_record_ns", "ns", Lower),
    layer("stats.hdr_quantile_ns", "ns", Lower),
    layer("trace.sealed_emit_ns", "ns", Lower),
    layer("scope.sealed_fire_delay_ns", "ns", Lower),
    // The harness itself.
    layer("ledger.clock_pair_ns", "ns", Lower),
    layer("ledger.trace_overhead_ratio.rearm_16k", "ratio", Lower),
    layer("ledger.trace_overhead_ratio.cancel_16k", "ratio", Lower),
    layer("ledger.spans_kept", "count", Higher),
    layer("ledger.spans_overwritten", "count", Lower),
    layer("ledger.traced_ops", "count", Higher),
    layer("ledger.traced_ns_per_op", "ns", Lower),
];

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worse_by(m: &Metric, first: f64, second: f64) -> f64 {
    match m.better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

fn set(seed: u64, seconds: f64) -> Result<Vec<Outcome>, String> {
    all_workloads()
        .map(|w| {
            eprintln!("st-ledger: repeat: {w} seed {seed}");
            run_workload(w, seed, seconds)
        })
        .collect()
}

/// Two full sets on this build under one seed: prints each end-to-end
/// metric's relative gap beside its bound and fails on a breach (listed
/// workloads only; an unlisted one has no bound to breach), on a failed
/// operation, or on a digest that does not repeat. A short third set under
/// another seed checks that the digests do move with the seed.
pub fn repeat(seed: u64, seconds: f64) -> Result<(), String> {
    let first = set(seed, seconds)?;
    let second = set(seed, seconds)?;
    let other = set(seed.wrapping_add(1), seconds.min(1.0))?;
    let mut breaches = Vec::new();
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse_by", "bound"
    );
    for (w, (a, b)) in all_workloads().zip(first.iter().zip(&second)) {
        let listed = WORKLOADS.contains(&w);
        for ((m, va), (_, vb)) in a.values.iter().zip(&b.values) {
            let gap = worse_by(m, *va, *vb);
            let bound = m.bound.filter(|_| listed).unwrap_or(f64::INFINITY);
            let breach = gap > bound;
            println!(
                "{w:<16} {:<12} {va:>16.4} {vb:>16.4} {gap:>+9.4} {bound:>7.2}{}",
                m.name,
                if breach { "  BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{w}/{}", m.name));
            }
        }
        if !(a.correct() && b.correct()) {
            breaches.push(format!("{w}: a run was not correct"));
        }
        if a.digest != b.digest {
            breaches.push(format!("{w}: digest moved under one seed"));
        }
    }
    for (w, (a, c)) in all_workloads().zip(first.iter().zip(&other)) {
        if a.digest == c.digest {
            breaches.push(format!("{w}: digest did not move with the seed"));
        }
    }
    if breaches.is_empty() {
        println!("repeat: two sets agree within every bound; digests repeat");
        Ok(())
    } else {
        Err(format!("repeat: {}", breaches.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_trace::json::{self, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    /// `BENCHMARK.json` is the contract; the registry compiled into the
    /// binary must say the same, name for name.
    #[test]
    fn benchmark_json_lists_exactly_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<Value> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .to_vec()
        };
        let workloads: Vec<String> = names("workloads")
            .iter()
            .map(|w| field(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, registry) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = names(key);
            assert_eq!(listed.len(), registry.len(), "{key} length");
            for (l, m) in listed.iter().zip(registry) {
                assert_eq!(field(l, "name"), m.name);
                assert_eq!(field(l, "unit"), m.unit, "{}", m.name);
                let better = match m.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(field(l, "better"), better, "{}", m.name);
                assert_eq!(
                    l.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let up = &END_TO_END[1];
        let down = &END_TO_END[2];
        assert!((worse_by(up, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(down, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(up, 100.0, 110.0) < 0.0);
    }
}
