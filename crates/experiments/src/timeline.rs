//! Timeline telemetry (extension): the flash-crowd overload story told
//! *over simulated time*, plus fire-delay attribution and the cost of
//! watching.
//!
//! The `overload` experiment reports end-of-run aggregates; this one
//! replays its flash-crowd scenario under a sampling session and
//! reports the trajectory — offered-load surge, admission-limit dip and
//! recovery, per-window goodput and p99 — sampled at 1 kHz by a
//! periodic soft-timer event. Three rows:
//!
//! - `undefended`: no admission control, sampling *observed only*
//!   ([`ScopeSampling::Off`] under a sampling session) — the
//!   collapse trajectory, watched for free;
//! - `aimd-soft`: the AIMD limiter defends while a soft-timer sampler
//!   ([`ScopeSampling::Soft`]) pays its modeled cost from trigger
//!   states — the recovery trajectory plus the delay-attribution
//!   waterfall;
//! - `aimd-hw`: the same run sampled by a dedicated 1 kHz hardware
//!   timer ([`ScopeSampling::Hardware`]) — the `timeline_overhead`
//!   contrast, the paper's Figure 2/3 argument applied to telemetry.
//!
//! Headline claims, asserted in tests and exported as metrics:
//!
//! - per-source delay attribution is *integer-exact*: waterfall lane
//!   sums rebuild `FacilityStats`' recorded fire-delay total;
//! - soft-timer-driven sampling costs several times less CPU than the
//!   equivalent hardware-timer sampler at the same 1 kHz rate;
//! - the defended run's admission limit visibly dips during the surge
//!   window and the undefended run's queue does not drain.

use st_admit::LimiterKind;
use st_http::{
    AdmissionMode, ArrivalModel, HttpMode, OpenLoopConfig, OverloadStats, SaturationConfig,
    SaturationSim, Scenario as Traffic, ScopeSampling, ServerKind, ServerModel,
};
use st_kernel::CostModel;
use st_sim::SimDuration;
use st_trace::{Snapshot, TraceConfig, TraceSession};

use crate::Scale;

/// Trajectory windows the run is split into for reporting.
pub const WINDOWS: usize = 8;

/// One sampled run.
#[derive(Debug)]
pub struct TimelineRow {
    /// Row label (`undefended`, `aimd-soft`, `aimd-hw`).
    pub label: &'static str,
    /// End-of-run overload aggregates (the `overload` view).
    pub stats: OverloadStats,
    /// Telemetry samples taken by the modeled sampler (0 when observed).
    pub scope_fires: u64,
    /// CPU spent on modeled sampling, percent of the run.
    pub scope_cpu_pct: f64,
    /// Soft-timer facility fires during the run.
    pub facility_fires: u64,
    /// The facility's exact integer fire-delay total, ticks.
    pub facility_delay_ticks: u64,
    /// The run's timeline and waterfall.
    pub report: Snapshot,
    /// Run length, µs (fixes the trajectory window width).
    pub duration_us: u64,
}

/// The full timeline study.
#[derive(Debug)]
pub struct Timeline {
    /// Seed every row ran from.
    pub seed: u64,
    /// Surge window, µs.
    pub surge_us: (u64, u64),
    /// The three rows.
    pub rows: Vec<TimelineRow>,
}

fn flash(scale: Scale) -> (Traffic, u64, u64) {
    let (surge_start, surge_end) = match scale {
        Scale::Quick => (500, 1_500),
        Scale::Full => (1_000, 4_000),
    };
    (
        Traffic::FlashCrowd {
            base_rps: 735.0,
            surge_factor: 10.0,
            surge_start: SimDuration::from_millis(surge_start),
            surge_end: SimDuration::from_millis(surge_end),
        },
        surge_start * 1_000,
        surge_end * 1_000,
    )
}

fn run_row(
    scale: Scale,
    seed: u64,
    label: &'static str,
    admission: Option<AdmissionMode>,
    sampling: ScopeSampling,
) -> TimelineRow {
    let machine = CostModel::pentium_ii_300();
    let server = ServerModel::calibrated(ServerKind::Apache, HttpMode::Http, &machine, 774.0);
    let mut cfg = SaturationConfig::baseline(machine, server, seed);
    cfg.duration = match scale {
        Scale::Quick => SimDuration::from_secs(2),
        Scale::Full => SimDuration::from_secs(5),
    };
    let duration_us = cfg.duration.as_micros();
    let (scenario, _, _) = flash(scale);
    let mut open = OpenLoopConfig::new(scenario, admission);
    open.max_connections = 1_024;
    cfg.arrivals = ArrivalModel::Open(open);
    cfg.scope_sampling = sampling;

    // This experiment owns its session: suspend a caller-owned one
    // (`repro --trace` / `repro --timeline` wrap every experiment) so
    // the rows below see identical ambient state however they are
    // invoked — that is what keeps `repro --json` byte-identical with
    // and without `--timeline`.
    let outer = st_trace::suspend();
    // The row keeps its snapshot for the series and the lanes; nothing
    // reads its events, so the ring need not retain them.
    let session = TraceSession::start(TraceConfig {
        capacity: 1,
        series_capacity: 1 << 13,
    });
    let r = SaturationSim::run(cfg);
    let report = session.finish();
    st_trace::resume(outer);

    TimelineRow {
        label,
        stats: r.overload.expect("open-loop runs carry overload stats"),
        scope_fires: r.scope_fires,
        scope_cpu_pct: r.scope_cpu_pct,
        facility_fires: r.facility_fires,
        facility_delay_ticks: r.facility_delay_ticks,
        report,
        duration_us,
    }
}

/// Runs the study.
pub fn run(scale: Scale, seed: u64) -> Timeline {
    let (_, surge_start_us, surge_end_us) = flash(scale);
    let rows = vec![
        run_row(scale, seed, "undefended", None, ScopeSampling::Off),
        run_row(
            scale,
            seed,
            "aimd-soft",
            Some(AdmissionMode::soft(LimiterKind::Aimd)),
            ScopeSampling::Soft { freq_hz: 1_000 },
        ),
        run_row(
            scale,
            seed,
            "aimd-hw",
            Some(AdmissionMode::soft(LimiterKind::Aimd)),
            ScopeSampling::Hardware { freq_hz: 1_000 },
        ),
    ];
    Timeline {
        seed,
        surge_us: (surge_start_us, surge_end_us),
        rows,
    }
}

impl TimelineRow {
    /// Whether the waterfall rebuilds the facility's delay accounting
    /// exactly: same fire count, same integer tick total.
    pub fn attribution_exact(&self) -> bool {
        self.report.waterfall.fires() == self.facility_fires
            && self.report.waterfall.delay_sum() == self.facility_delay_ticks
    }

    fn window_of(&self, tick: u64) -> usize {
        let w = (self.duration_us / WINDOWS as u64).max(1);
        usize::try_from(tick / w).map_or(WINDOWS - 1, |i| i.min(WINDOWS - 1))
    }

    /// Sum of a counter-delta series per trajectory window.
    pub fn windowed_sum(&self, series: &str) -> [f64; WINDOWS] {
        let mut out = [0.0; WINDOWS];
        if let Some(s) = self.report.timeline.get(series) {
            for (tick, v) in s.points() {
                out[self.window_of(tick)] += v;
            }
        }
        out
    }

    /// Last value of a gauge series per trajectory window (NaN when the
    /// window holds no points).
    pub fn windowed_last(&self, series: &str) -> [f64; WINDOWS] {
        let mut out = [f64::NAN; WINDOWS];
        if let Some(s) = self.report.timeline.get(series) {
            for (tick, v) in s.points() {
                out[self.window_of(tick)] = v;
            }
        }
        out
    }

    /// Maximum value of a series per trajectory window (0 when empty).
    pub fn windowed_max(&self, series: &str) -> [f64; WINDOWS] {
        let mut out = [0.0f64; WINDOWS];
        if let Some(s) = self.report.timeline.get(series) {
            for (tick, v) in s.points() {
                let w = self.window_of(tick);
                out[w] = out[w].max(v);
            }
        }
        out
    }

    /// Per-window goodput proxy: completions per second, from the
    /// `http.completed` counter-delta series.
    pub fn completed_per_sec(&self) -> [f64; WINDOWS] {
        let mut w = self.windowed_sum("http.completed");
        let secs = (self.duration_us as f64 / WINDOWS as f64) / 1e6;
        for v in &mut w {
            *v /= secs.max(1e-9);
        }
        w
    }
}

impl Timeline {
    fn row(&self, label: &str) -> Option<&TimelineRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Whether every sampled row reconciles its waterfall exactly
    /// against the facility's integer delay accounting.
    pub fn attribution_exact(&self) -> bool {
        self.rows.iter().all(TimelineRow::attribution_exact)
    }

    /// Soft-timer sampling CPU share, percent (`aimd-soft`).
    pub fn soft_sampling_cpu_pct(&self) -> f64 {
        self.row("aimd-soft").map_or(f64::NAN, |r| r.scope_cpu_pct)
    }

    /// Hardware-timer sampling CPU share, percent (`aimd-hw`).
    pub fn hw_sampling_cpu_pct(&self) -> f64 {
        self.row("aimd-hw").map_or(f64::NAN, |r| r.scope_cpu_pct)
    }

    /// The `timeline_overhead` measurement: soft-timer-driven sampling
    /// costs less CPU than the equivalent 1 kHz hardware-timer sampler.
    pub fn soft_sampling_cheaper(&self) -> bool {
        let (s, h) = (self.soft_sampling_cpu_pct(), self.hw_sampling_cpu_pct());
        s < h && h.is_finite()
    }

    /// Whether the defended run's interactive limit visibly dipped
    /// during the surge (trajectory evidence the controller reacted).
    pub fn limit_dips_during_surge(&self) -> bool {
        let Some(r) = self.row("aimd-soft") else {
            return false;
        };
        let Some(s) = r.report.timeline.get("admit.limit.interactive") else {
            return false;
        };
        let (lo, hi) = self.surge_us;
        let mut pre_max = 0.0f64;
        let mut surge_min = f64::INFINITY;
        for (tick, v) in s.points() {
            if tick < lo {
                pre_max = pre_max.max(v);
            } else if tick < hi {
                surge_min = surge_min.min(v);
            }
        }
        surge_min.is_finite() && surge_min < pre_max
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Timeline telemetry: flash crowd over sim time (extension; seed {}) ==\n",
            self.seed
        ));
        out.push_str(&format!(
            "surge window: {}..{} ms; {} trajectory windows\n",
            self.surge_us.0 / 1_000,
            self.surge_us.1 / 1_000,
            WINDOWS
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "\n-- {} (goodput {:.0}/s, p99 {:.1} ms, sampler: {} fires, {:.4}% cpu) --\n",
                r.label,
                r.stats.goodput,
                r.stats.p99_us as f64 / 1e3,
                r.scope_fires,
                r.scope_cpu_pct
            ));
            let completed = r.completed_per_sec();
            let limit = r.windowed_last("admit.limit.interactive");
            let p99 = r.windowed_max("http.latency_us.p99");
            out.push_str(&format!(
                "{:<10} {:>10} {:>10} {:>10}\n",
                "window", "done/s", "limit", "p99(ms)"
            ));
            for w in 0..WINDOWS {
                let lim = if limit[w].is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.0}", limit[w])
                };
                out.push_str(&format!(
                    "{:<10} {:>10.0} {:>10} {:>10.1}\n",
                    w,
                    completed[w],
                    lim,
                    p99[w] / 1e3
                ));
            }
            out.push_str(&format!(
                "waterfall ({} fires, {} delay ticks, exact: {}):\n",
                r.report.waterfall.fires(),
                r.report.waterfall.delay_sum(),
                r.attribution_exact()
            ));
            let mut lanes: Vec<_> = r.report.waterfall.lanes().collect();
            lanes.sort_by_key(|(_, l)| std::cmp::Reverse(l.delay_sum()));
            for (name, l) in lanes {
                out.push_str(&format!(
                    "  {:<14} {:>7} fires  wait {:>9} ticks  cascade {:>7} ticks\n",
                    name,
                    l.fires(),
                    l.trigger_wait_sum(),
                    l.cascade_sum()
                ));
            }
        }
        out.push_str(&format!(
            "\nattribution exact: {}; sampling cpu soft {:.4}% vs hw {:.4}% (soft cheaper: {}); limit dips in surge: {}\n",
            self.attribution_exact(),
            self.soft_sampling_cpu_pct(),
            self.hw_sampling_cpu_pct(),
            self.soft_sampling_cheaper(),
            self.limit_dips_during_surge()
        ));
        out
    }

    /// Flat `(name, value)` metric pairs for `repro --json`.
    pub fn key_metrics(&self) -> Vec<(String, f64)> {
        let mut m = vec![
            (
                "attribution_exact".to_string(),
                self.attribution_exact() as u64 as f64,
            ),
            (
                "soft_sampling_cpu_pct".to_string(),
                self.soft_sampling_cpu_pct(),
            ),
            (
                "hw_sampling_cpu_pct".to_string(),
                self.hw_sampling_cpu_pct(),
            ),
            (
                "soft_sampling_cheaper".to_string(),
                self.soft_sampling_cheaper() as u64 as f64,
            ),
            (
                "limit_dips_during_surge".to_string(),
                self.limit_dips_during_surge() as u64 as f64,
            ),
        ];
        for r in &self.rows {
            let key = crate::metric_key(r.label);
            m.push((format!("{key}_goodput"), r.stats.goodput));
            m.push((format!("{key}_p99_us"), r.stats.p99_us as f64));
            m.push((format!("{key}_scope_fires"), r.scope_fires as f64));
            m.push((format!("{key}_scope_cpu_pct"), r.scope_cpu_pct));
            m.push((format!("{key}_facility_fires"), r.facility_fires as f64));
            m.push((
                format!("{key}_trigger_wait_ticks"),
                r.report.waterfall.trigger_wait_sum() as f64,
            ));
            m.push((
                format!("{key}_cascade_ticks"),
                r.report.waterfall.cascade_sum() as f64,
            ));
            let completed = r.completed_per_sec();
            for (w, v) in completed.iter().enumerate() {
                m.push((format!("{key}_win{w}_done_per_s"), *v));
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_claims_hold() {
        let t = run(Scale::Quick, 42);
        assert!(t.attribution_exact(), "\n{}", t.render());
        assert!(t.soft_sampling_cheaper(), "\n{}", t.render());
        assert!(t.limit_dips_during_surge(), "\n{}", t.render());
        assert!(
            t.soft_sampling_cpu_pct() < 0.1,
            "soft sampling must stay under 0.1% CPU\n{}",
            t.render()
        );
    }

    #[test]
    fn trajectory_sees_the_surge_and_the_recovery() {
        let t = run(Scale::Quick, 42);
        let und = t.row("undefended").expect("undefended row");
        let def = t.row("aimd-soft").expect("aimd-soft row");
        // Collapse is a trajectory fact, not a completion-rate fact: the
        // undefended server keeps finishing requests, but its backlog
        // pins at the connection cap after the surge while the defended
        // run drains, and its windowed p99 sits orders of magnitude
        // higher.
        let tail = WINDOWS - 2;
        let u_conns = und.windowed_last("http.conns");
        let d_conns = def.windowed_last("http.conns");
        assert!(
            u_conns[tail] > 4.0 * d_conns[tail].max(1.0),
            "undefended tail backlog {:.0} not >> defended {:.0}\n{}",
            u_conns[tail],
            d_conns[tail],
            t.render()
        );
        let u_p99 = und.windowed_max("http.latency_us.p99");
        let d_p99 = def.windowed_max("http.latency_us.p99");
        assert!(
            u_p99[tail] > 100_000.0,
            "undefended tail p99 {:.0} us never left the SLO\n{}",
            u_p99[tail],
            t.render()
        );
        assert!(
            u_p99[tail] > 10.0 * d_p99[tail],
            "undefended tail p99 {:.0} us not >> defended {:.0} us\n{}",
            u_p99[tail],
            d_p99[tail],
            t.render()
        );
        // Both timelines actually sampled: >= 1 kHz over the whole run.
        for r in &t.rows {
            assert!(
                r.report.timeline.samples() > 1_000,
                "{} sampled only {} times",
                r.label,
                r.report.timeline.samples()
            );
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let fingerprint = |t: &Timeline| -> Vec<(String, u64)> {
            t.key_metrics()
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect()
        };
        let a = run(Scale::Quick, 7);
        let b = run(Scale::Quick, 7);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
