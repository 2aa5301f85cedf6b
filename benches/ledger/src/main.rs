//! `st-ledger`: the repo's benchmark.
//!
//! ```text
//! st-ledger --workload W --seed N --seconds S --trace 0   end-to-end metrics, tracing off
//! st-ledger --workload W --seed N --seconds S --trace 1   the traced run: per-layer metrics + spans
//! st-ledger repeat [--seed N] [--seconds S]               two sets on this build, gap beside bound
//! st-ledger --smoke                                       every workload once, short boxes
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package for the workloads, the metric glossary and the frozen
//! API surface.

#![forbid(unsafe_code)]

mod facility;
mod gen;
mod host;
mod layers;
mod metrics;
mod sims;
mod span;

use std::process::ExitCode;
use std::rc::Rc;

use facility::{measure, production_core, Cancel, Rearm, Stepper};
use gen::{CancelInput, RearmInput};
use host::Regime;
use metrics::{all_workloads, Metric, END_TO_END};
use span::{Clock, NoProbe};

/// Every workload sets up at least `SETUP_REPS` times, and again until
/// `SETUP_SPAN_NS` of wall time (a box shorter than that: the box's length)
/// has gone into set-ups or `SETUP_MAX` of them are done; `setup_s` is the
/// quietest one.
const SETUP_REPS: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SPAN_NS: u64 = 2_000_000_000;

/// Median of `v` (mean of the two middle values for an even count); 0
/// for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What a closed-loop box's windows say about a quantity where lower is
/// better: its value in the quietest window.
///
/// A closed loop on one thread cannot run faster than its code allows, so
/// interference on a shared machine only ever adds time — a neighbour
/// evicts the cache, the hypervisor takes the core away — and here it
/// comes in episodes of seconds to minutes that move the *median* window
/// by 10 % and more. The quietest window is what the code costs when left
/// alone; it is the estimator `st_rt::probe` and the `BENCH_*.json` gate
/// already use (minimum over batches), and it repeats between runs two to
/// three times closer than the median does.
pub fn quietest_low(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// [`quietest_low`] for a quantity where higher is better.
pub fn quietest_high(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The end-to-end figures of one box, before `setup_s` joins them.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub ops_per_s: f64,
    pub lat_p50_ns: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static Metric, f64)>,
    /// Digest of the generated input (and, for the sim workloads, of the
    /// simulated results); `repeat` checks that it repeats.
    pub digest: u64,
}

impl Outcome {
    /// Correct means: nothing failed and every metric is a usable number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.iter().all(|(_, v)| v.is_finite())
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs `setup` repeatedly (see [`SETUP_REPS`]); returns the last state and
/// the wall seconds of the quietest run. Set-up is single-threaded work
/// like the closed loops, so what holds for their windows holds for it;
/// the median of five consecutive set-ups sits inside one episode of
/// interference and moved by 25 % between a calm and a busy quarter of an
/// hour, and so did the quietest of five on `rearm_16k` (22 % between two
/// sets of ten runs, twice), which is why two seconds go into set-ups:
/// 20 of `rearm_16k`'s, 7 of `cancel_16k`'s. The cheap set-ups (10-20 ms:
/// the sims' and the hosts') are the ones that repeat `SETUP_MAX` times.
fn timed_setup<S>(clock: Clock, box_ns: u64, mut setup: impl FnMut() -> S) -> (S, f64) {
    let span_ns = SETUP_SPAN_NS.min(box_ns);
    let mut secs = Vec::with_capacity(SETUP_MAX);
    let started = clock.now_ns();
    loop {
        let t0 = clock.now_ns();
        let state = setup();
        let t1 = clock.now_ns();
        secs.push((t1 - t0) as f64 / 1e9);
        let enough = secs.len() >= SETUP_REPS && t1 - started >= span_ns;
        if enough || secs.len() >= SETUP_MAX {
            return (state, quietest_low(&secs));
        }
    }
}

/// Sets up a facility workload (`setup` returns the input's digest and the
/// armed workload), measures it for `box_ns` and closes its books.
fn facility_box<W: Stepper>(
    clock: Clock,
    box_ns: u64,
    setup: impl FnMut() -> (u64, W),
) -> (Measured, f64, u64) {
    let ((digest, w), setup_s) = timed_setup(clock, box_ns, setup);
    let (run, fails, attempted) = measure(clock, w, box_ns);
    if fails.total() > 0 {
        eprintln!("st-ledger: oracle failures: {fails:?}");
    }
    (run.measured(attempted, fails.total()), setup_s, digest)
}

/// One run with tracing off: sets up, measures for `seconds`, checks.
pub fn run_workload(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let clock = Clock::start();
    let box_ns = (seconds * 1e9) as u64;
    let (m, setup_s, digest) = match workload {
        // Set-up generates the input, builds the facility, arms every flow
        // and runs the workload until every timer has been replaced once;
        // the box opens on that population.
        "rearm_16k" => facility_box(clock, box_ns, || {
            let input = Rc::new(RearmInput::generate(seed));
            (
                input.digest(),
                Rearm::arm(production_core(), NoProbe, input),
            )
        }),
        "cancel_16k" => facility_box(clock, box_ns, || {
            let input = Rc::new(CancelInput::generate(seed));
            (
                input.digest(),
                Cancel::arm(production_core(), NoProbe, input),
            )
        }),
        "sim_timers" | "sim_stack" => {
            let set = if workload == "sim_timers" {
                &sims::SIM_TIMERS
            } else {
                &sims::SIM_STACK
            };
            let ((), setup_s) = timed_setup(clock, box_ns, || sims::warm(set, seed));
            let run = sims::run_passes(clock, set, seed, box_ns, 2, &NoProbe);
            for why in &run.complaints {
                eprintln!("st-ledger: {workload}: {why}");
            }
            (run.measured(), setup_s, u64::from(run.digest))
        }
        "host_paced" | "host_saturated" => {
            let regime = if workload == "host_paced" {
                Regime::Paced
            } else {
                Regime::Saturated
            };
            let (periods, setup_s) = timed_setup(clock, box_ns, || {
                let periods = regime.periods_ns(seed);
                host::warm(&periods);
                periods
            });
            let run = host::run_segments(&periods, box_ns, host::SEGMENTS, &NoProbe);
            (run.measured(regime), setup_s, gen::host_digest(&periods))
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "ops_per_s" => m.ops_per_s,
        "lat_p50_ns" => m.lat_p50_ns,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        values: END_TO_END.iter().map(|e| (e, value(e.name))).collect(),
        digest,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        smoke: false,
        repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "repeat" => args.repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: st-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       st-ledger repeat [--seed <n>] [--seconds <s>]\n       st-ledger --smoke",
        all_workloads().collect::<Vec<_>>().join("|")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("st-ledger: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if args.smoke {
        layers::smoke(args.seed)
    } else if args.repeat {
        metrics::repeat(args.seed, args.seconds)
    } else {
        let Some(workload) = args.workload.as_deref() else {
            eprintln!("st-ledger: --workload is required\n{}", usage());
            return ExitCode::from(2);
        };
        let outcome = if args.trace {
            layers::run_traced(workload, args.seed, args.seconds)
        } else {
            run_workload(workload, args.seed, args.seconds)
        };
        outcome.and_then(|o| {
            let line = o.to_json();
            st_trace::json::validate(&line).map_err(|e| format!("result line: {e}"))?;
            println!("{line}");
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("st-ledger: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_picks_the_fast_end() {
        let v = [50.0, 10.0, 40.0];
        assert_eq!(quietest_low(&v), 10.0);
        assert_eq!(quietest_high(&v), 50.0);
        assert_eq!(quietest_low(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn result_line_is_valid_json_with_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
            values: END_TO_END.iter().map(|m| (m, 1.25)).collect(),
            digest: 0,
        };
        let line = o.to_json();
        st_trace::json::validate(&line).expect("valid JSON");
        let v = st_trace::json::parse(&line).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn a_failure_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            values: vec![(&END_TO_END[0], 1.0)],
            digest: 0,
        };
        assert!(!o.correct());
        o.failed = 0;
        assert!(o.correct());
        o.values[0].1 = f64::NAN;
        assert!(!o.correct());
        st_trace::json::validate(&o.to_json()).expect("still valid JSON");
    }
}
