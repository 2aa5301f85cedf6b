//! The two simulator workloads: in-process passes over the paper's
//! experiments, repeated until the box closes.
//!
//! `sim_timers` holds the experiments whose result rests on soft-timer
//! fires through `st-kernel`'s `SoftClock`; `sim_stack` the ones in which
//! the facility never fires and `st-sim` / `st-kernel` / `st-http` do the
//! work. A pass is correct when its sorted `key_metrics()` are finite and
//! equal those of the first pass of the same run: the simulator is
//! deterministic under a seed, so anything else is a lost guarantee.

use std::panic::{catch_unwind, AssertUnwindSafe};

use st_experiments::Scale;

use crate::gen::Fnv;
use crate::span::{Clock, Probe, SpanName};
use crate::{median, quietest_low, Measured};

/// One experiment: its name and a function returning its key metrics.
pub type Experiment = (&'static str, fn(Scale, u64) -> Vec<(String, f64)>);

/// Five experiments run as one pass.
pub struct SimSet {
    pub experiments: [Experiment; 5],
    /// The cheapest of the five, run once as set-up.
    pub warm: usize,
}

pub const SIM_TIMERS: SimSet = SimSet {
    warm: 3,
    experiments: [
        ("sec52", |s, seed| {
            st_experiments::sec52::run(s, seed).key_metrics()
        }),
        ("table3", |s, seed| {
            st_experiments::table3::run(s, seed).key_metrics()
        }),
        ("table45", |s, seed| {
            st_experiments::table45::run(s, seed).key_metrics()
        }),
        ("table67", |s, seed| {
            st_experiments::table67::run(s, seed).key_metrics()
        }),
        ("table8", |s, seed| {
            st_experiments::table8::run(s, seed).key_metrics()
        }),
    ],
};

pub const SIM_STACK: SimSet = SimSet {
    warm: 2,
    experiments: [
        ("fig2", |s, seed| {
            st_experiments::fig2_fig3::run(s, seed).key_metrics()
        }),
        ("fig4", |s, seed| {
            st_experiments::fig4_table1::run(s, seed).key_metrics()
        }),
        ("fig6", |s, seed| {
            st_experiments::fig6_table2::run(s, seed).key_metrics()
        }),
        ("livelock", |s, seed| {
            st_experiments::livelock::run(s, seed).key_metrics()
        }),
        ("profiler", |s, seed| {
            st_experiments::profiler::run(s, seed).key_metrics()
        }),
    ],
};

/// The scale every pass runs at. A full-scale pass of `sim_timers` takes
/// ~12 s here, so two of them do not fit the run length the driver's cap
/// allows; quick scale is the same code on shorter simulated intervals
/// (2.4 s and 0.8 s a pass), which leaves room for several passes and a
/// median.
pub const SCALE: Scale = Scale::Quick;

/// Sorted `key=value` lines of one experiment run, or why it has none.
fn run_one(exp: &Experiment, seed: u64) -> Result<Vec<String>, String> {
    let (name, run) = *exp;
    let mut metrics = catch_unwind(AssertUnwindSafe(|| run(SCALE, seed)))
        .map_err(|_| format!("{name} panicked"))?;
    if let Some((k, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name}: {k} = {v}"));
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(metrics
        .into_iter()
        .map(|(k, v)| format!("{name}.{k}={v:?}"))
        .collect())
}

/// Set-up of a sim workload: one run of its cheapest experiment, which
/// faults in the simulator's code and warms the allocator.
pub fn warm(set: &SimSet, seed: u64) {
    std::hint::black_box(run_one(&set.experiments[set.warm], seed).ok());
}

/// What the passes of one box saw.
pub struct SimRun {
    /// Wall ns of each experiment, per pass, in set order.
    pub exp_ns: Vec<[u64; 5]>,
    pub attempted: u64,
    pub failed: u64,
    /// Low 32 bits of FNV-1a over the first pass's sorted lines.
    pub digest: u32,
    /// First few failures, for the human reading stderr.
    pub complaints: Vec<String>,
}

/// Passes over `set` until `box_ns` has gone by, at least `min_passes`.
pub fn run_passes<T: Probe>(
    clock: Clock,
    set: &SimSet,
    seed: u64,
    box_ns: u64,
    min_passes: usize,
    probe: &T,
) -> SimRun {
    let start = clock.now_ns();
    let mut out = SimRun {
        exp_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: 0,
        complaints: Vec::new(),
    };
    let mut first: Vec<Option<Vec<String>>> = vec![None; set.experiments.len()];
    loop {
        let mut exp_ns = [0u64; 5];
        for (i, exp) in set.experiments.iter().enumerate() {
            probe.begin_op();
            probe.begin(SpanName::Experiment);
            let t0 = clock.now_ns();
            let lines = run_one(exp, seed);
            exp_ns[i] = clock.now_ns() - t0;
            probe.end();
            out.attempted += 1;
            let ok = match (&lines, &first[i]) {
                (Ok(_), None) => true,
                (Ok(now), Some(then)) => now == then,
                (Err(_), _) => false,
            };
            if !ok {
                out.failed += 1;
                if out.complaints.len() < 8 {
                    out.complaints.push(match lines {
                        Err(ref why) => why.clone(),
                        Ok(_) => format!("{} differs from the first pass", exp.0),
                    });
                }
            }
            if first[i].is_none() {
                first[i] = lines.ok();
            }
        }
        out.exp_ns.push(exp_ns);
        if clock.now_ns() - start >= box_ns && out.exp_ns.len() >= min_passes {
            break;
        }
    }
    let mut h = Fnv::new();
    for line in first.iter().flatten().flatten() {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    out.digest = (h.0 & 0xffff_ffff) as u32;
    out
}

impl SimRun {
    /// Median wall ns of experiment `i` over the passes.
    pub fn exp_median_ns(&self, i: usize) -> f64 {
        let mut v: Vec<f64> = self.exp_ns.iter().map(|p| p[i] as f64).collect();
        median(&mut v)
    }

    /// Wall ns of experiment `i` in its quietest run (see
    /// [`quietest_low`]).
    pub fn exp_quiet_ns(&self, i: usize) -> f64 {
        let v: Vec<f64> = self.exp_ns.iter().map(|p| p[i] as f64).collect();
        quietest_low(&v)
    }

    /// `lat_p50_ns`: wall ns of a pass — what a `repro` user waits for —
    /// as the sum of each experiment's quietest run, so a disturbed
    /// second costs one run of one experiment, not a pass. `ops_per_s`:
    /// experiment runs per second of wall time at that pace.
    pub fn measured(&self) -> Measured {
        let quiet: Vec<f64> = (0..5).map(|i| self.exp_quiet_ns(i)).collect();
        let pass_ns: f64 = quiet.iter().sum();
        Measured {
            ops_per_s: 5.0 * 1e9 / pass_ns,
            lat_p50_ns: pass_ns,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NoProbe;

    #[test]
    fn a_pass_repeats_exactly_under_one_seed_and_moves_under_another() {
        let exp = &SIM_STACK.experiments[2];
        let a = run_one(exp, 9).expect("fig6 runs");
        assert_eq!(a, run_one(exp, 9).expect("fig6 runs"));
        assert_ne!(a, run_one(exp, 10).expect("fig6 runs"));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "lines are sorted");
    }

    #[test]
    fn a_non_finite_metric_or_a_panic_is_a_failure_not_a_crash() {
        let nan: Experiment = ("nan", |_, _| vec![("x".to_string(), f64::NAN)]);
        assert!(run_one(&nan, 1).unwrap_err().contains("nan: x"));
        let boom: Experiment = ("boom", |_, _| panic!("injected"));
        assert!(run_one(&boom, 1).unwrap_err().contains("panicked"));
    }

    #[test]
    fn a_pass_that_differs_from_the_first_is_counted_failed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let drifting: Experiment = ("drift", |_, _| {
            vec![(
                "calls".to_string(),
                CALLS.fetch_add(1, Ordering::Relaxed) as f64,
            )]
        });
        let steady: Experiment = ("steady", |_, _| vec![("one".to_string(), 1.0)]);
        let set = SimSet {
            experiments: [drifting, steady, steady, steady, steady],
            warm: 1,
        };
        let run = run_passes(Clock::start(), &set, 1, 0, 3, &NoProbe);
        assert_eq!(run.exp_ns.len(), 3);
        assert_eq!(run.attempted, 15);
        assert_eq!(run.failed, 2, "passes two and three drifted");
        assert!(run.complaints[0].contains("drift differs"));
    }
}
