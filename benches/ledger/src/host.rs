//! The two host-runtime workloads: `st_rt::host::run` on real threads,
//! open loop on the wall clock.
//!
//! Lanes are the same in both: one worker running 30 us tasks (its
//! task-return points are trigger states), the idle poller with a 1 us
//! pause, the backup sweep every 1 ms. With the calling thread asleep
//! that is two spinning threads — no more than this machine's two cores.
//! `host_paced` keeps 4 periodic timers of about 1.6 ms armed (2.4 k
//! fires/s offered, a twentieth of what keeps the dispatching lane busy:
//! the latency regime); `host_saturated` keeps 1 000 of 100 us (10 M
//! fires/s offered, about five times what one `Mutex<SoftTimerCore>`
//! delivers: the throughput regime). Fire delay is measured by the runtime
//! from each event's due time, so a stall shows in the events behind it.

use std::time::Duration;

use st_rt::host::{self, HostConfig, HostReport};
use st_stats::HdrHistogram;

use crate::span::{Probe, SpanName};
use crate::{gen, median, Measured};

/// Which of the two regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Paced,
    Saturated,
}

impl Regime {
    /// Periods of the regime's periodic timers under `seed`.
    pub fn periods_ns(self, seed: u64) -> Vec<u64> {
        match self {
            Regime::Paced => gen::paced_periods_ns(seed),
            Regime::Saturated => gen::saturated_periods_ns(seed),
        }
    }

    /// Suffix of the regime's per-layer metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Regime::Paced => "paced",
            Regime::Saturated => "saturated",
        }
    }
}

/// Host runs per box. A metric is the median over them, except the paced
/// regime's fire delay, which is read from the quiet end
/// ([`HostRun::quiet_low`]).
pub const SEGMENTS: usize = 32;

/// Host runs per slice of the traced run: a slice is a twentieth of a
/// box, and a host run shorter than a few hundred ms is mostly its own
/// start (threads spawning, the first fires left to the backup sweep).
pub const TRACED_SEGMENTS: usize = 4;

/// A fire later than this is counted late: two backup periods, the
/// paper's `X + 1` bound with scheduler slack. On this machine the
/// hypervisor takes a spinning thread off its core for milliseconds at a
/// time, so late fires and skipped periods happen on a healthy runtime;
/// they are reported per layer, not counted as failures.
pub const LATE_NS: u64 = 2_000_000;

/// Wall time of the warm host run every set-up makes.
pub const WARM_RUN: Duration = Duration::from_millis(10);

pub fn config(periods_ns: &[u64], duration: Duration) -> HostConfig {
    HostConfig {
        workers: 1,
        duration,
        task_work: Duration::from_micros(30),
        idle_poller: true,
        idle_pause: Duration::from_micros(1),
        backup_period: Duration::from_millis(1),
        timer_periods: periods_ns
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect(),
        ..Default::default()
    }
}

/// One host run, reduced to what the benchmark reports.
pub struct Segment {
    pub fires: u64,
    /// Periods the armed timers offered during the measured interval.
    pub offered: u64,
    pub duration_ns: u64,
    /// Fire delay past due of every fire, whichever origin.
    pub delay_ns: HdrHistogram,
    /// Fires later than [`LATE_NS`].
    pub late: u64,
    /// Handlers that did not run for a fire (or ran without one), plus
    /// poisoned-lock recoveries: what a healthy runtime never shows.
    pub failed: u64,
    pub report: HostReport,
}

fn reduce(periods_ns: &[u64], report: HostReport, recoveries: u64) -> Segment {
    let fires = report.fired_trigger.count + report.fired_backup.count;
    let offered: u64 = periods_ns
        .iter()
        .map(|&p| report.duration_ns / p.max(1))
        .sum();
    let mut delay_ns = report.fired_trigger.delay_ns.clone();
    delay_ns.merge(&report.fired_backup.delay_ns);
    let late = delay_ns
        .buckets()
        .filter(|&(lo, _, _)| lo > LATE_NS)
        .map(|(_, _, n)| n)
        .sum();
    Segment {
        fires,
        offered,
        duration_ns: report.duration_ns,
        delay_ns,
        late,
        failed: report.handler_runs.abs_diff(fires) + recoveries,
        report,
    }
}

/// What the segments of one box saw.
pub struct HostRun {
    pub segments: Vec<Segment>,
}

/// `count` host runs of `box_ns / count` each.
pub fn run_segments<T: Probe>(periods_ns: &[u64], box_ns: u64, count: usize, probe: &T) -> HostRun {
    let cfg = config(periods_ns, Duration::from_nanos(box_ns / count as u64));
    let segments = (0..count)
        .map(|_| {
            let before = host::lock_recoveries();
            probe.begin_op();
            probe.begin(SpanName::HostRun);
            let report = host::run(&cfg);
            probe.end();
            let recoveries = host::lock_recoveries() - before;
            reduce(periods_ns, report, recoveries)
        })
        .collect();
    HostRun { segments }
}

/// The warm run of a host set-up: spawns, arms, joins — everything a
/// measured segment pays before and after its interval.
pub fn warm(periods_ns: &[u64]) {
    std::hint::black_box(host::run(&config(periods_ns, WARM_RUN)));
}

impl HostRun {
    /// Median over the segments of `f`.
    pub fn med(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        let mut v: Vec<f64> = self.segments.iter().map(f).collect();
        median(&mut v)
    }

    /// `f` in the quietest eighth of the segments, for a quantity that
    /// interference can only raise: the value an eighth of the way up the
    /// sorted segments. Not the lowest one, as in the closed-loop
    /// workloads: a segment's quantile comes from two thousand fires and
    /// carries a few per cent of sampling error, which a minimum over 32
    /// would follow downwards.
    pub fn quiet_low(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        let mut v: Vec<f64> = self.segments.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 8).copied().unwrap_or(0.0)
    }

    /// Quantile `q` of the fire delay over the fires of every segment
    /// together (the traced run's segments are too short to have a tail
    /// each).
    pub fn delay_quantile(&self, q: f64) -> f64 {
        let mut segments = self.segments.iter();
        let Some(first) = segments.next() else {
            return 0.0;
        };
        let mut all = first.delay_ns.clone();
        for s in segments {
            all.merge(&s.delay_ns);
        }
        all.quantile(q).unwrap_or(0) as f64
    }

    pub fn delivered_ratio(&self) -> f64 {
        self.med(|s| s.fires as f64 / s.offered.max(1) as f64)
    }

    /// Fires later than [`LATE_NS`], as a share of all fires.
    pub fn late_ratio(&self) -> f64 {
        self.med(|s| s.late as f64 / s.fires.max(1) as f64)
    }

    /// `ops_per_s`: fires delivered per second of wall time.
    /// `lat_p50_ns`: fire delay past due. Every delivered fire is checked;
    /// overload shows as delivered ratio, not failure.
    ///
    /// The paced regime's delay is half the idle poller's cycle plus the
    /// check, and anything else on the machine only lengthens it: a busy
    /// neighbour slows the clock reads and the lock, a third runnable
    /// thread takes the poller off its core. Those episodes last seconds
    /// here and move the median segment by 10-20 %, so the figure is the
    /// quiet eighth's. The saturated regime has no quiet end to read: a
    /// lane off its core relieves the lock and makes the run *faster*, so
    /// it keeps the median.
    pub fn measured(&self, regime: Regime) -> Measured {
        let p50 = |s: &Segment| s.delay_ns.quantile(0.5).unwrap_or(0) as f64;
        Measured {
            ops_per_s: self.med(|s| s.fires as f64 * 1e9 / s.duration_ns.max(1) as f64),
            lat_p50_ns: match regime {
                Regime::Paced => self.quiet_low(p50),
                Regime::Saturated => self.med(p50),
            },
            attempted: self.segments.iter().map(|s| s.fires).sum(),
            failed: self.segments.iter().map(|s| s.failed).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NoProbe;

    #[test]
    fn a_short_paced_box_delivers_what_it_offers() {
        let periods = Regime::Paced.periods_ns(1);
        let run = run_segments(&periods, 400_000_000, SEGMENTS, &NoProbe);
        assert_eq!(run.segments.len(), SEGMENTS);
        let m = run.measured(Regime::Paced);
        // 4 timers at ~1.6 ms: ~2.4 k fires/s offered.
        assert!(m.ops_per_s > 1_200.0, "{} fires/s", m.ops_per_s);
        assert!(run.delivered_ratio() > 0.5);
        // The quiet eighth is no later than the median segment.
        let p50 = |s: &Segment| s.delay_ns.quantile(0.5).unwrap_or(0) as f64;
        assert!(m.lat_p50_ns > 0.0 && m.lat_p50_ns <= run.med(p50));
        assert!(run.delay_quantile(0.99) >= run.delay_quantile(0.5));
        assert!(m.attempted > 0);
    }

    #[test]
    fn unrun_handlers_and_lock_recoveries_fail_late_fires_are_counted() {
        let periods = [100_000u64; 4];
        let cfg = config(&periods, Duration::from_millis(20));
        let mut report = host::run(&cfg);
        let late_before = reduce(&periods, report.clone(), 0).late;
        report.handler_runs += 3;
        report.fired_trigger.delay_ns.record_n(5_000_000, 2);
        report.fired_trigger.count += 2;
        let seg = reduce(&periods, report, 1);
        assert_eq!(seg.failed, 1 + 1, "handler gap plus one lock recovery");
        assert_eq!(seg.late, late_before + 2);
    }
}
