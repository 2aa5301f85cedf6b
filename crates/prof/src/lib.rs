//! `st-prof` — a statistical CPU profiler built on soft timers.
//!
//! The paper's Figures 2/3 show why microsecond-granularity *sampling*
//! is unaffordable from hardware timer interrupts: 20–100 kHz of
//! interrupts costs 9–45 % of the machine. Profiling is the canonical
//! application of the soft-timer claim — a sample is just "read the
//! interrupted context, bump a counter", and from a trigger state that
//! costs procedure-call money instead of interrupt money.
//!
//! This crate is the profiler the simulated kernel runs as a third
//! soft-timer application (next to rate-based clocking and polling):
//!
//! - [`Profile`] accumulates samples keyed by *folded stack* — the
//!   `outer;inner;leaf` rendering used by flame-graph tools. The exporter
//!   [`Profile::folded`] emits Brendan-Gregg collapsed-stack text that
//!   both `inferno` and speedscope import directly;
//!   [`Profile::to_json`] emits a JSON report checked by `st-trace`'s
//!   validator.
//! - [`Sampler`] is the soft-timer event glue: it keeps the sample grid
//!   aligned to the nominal period (delays do not shift later samples),
//!   counts samples that had to be skipped when the facility fell more
//!   than a period behind, and tells the embedding what delta to rearm
//!   with.
//! - [`Comparison`] scores a profile against exact ground truth (the
//!   simulator's context accounting, `st_kernel::context`), per folded
//!   stack — the `repro profiler` experiment asserts convergence.
//!
//! Everything is deterministic and allocation-light: recording a sample
//! of an already-seen stack is one `BTreeMap` lookup, no allocation.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use st_trace::json::ObjectBuilder;

/// Accumulated sample counts per folded stack.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    stacks: BTreeMap<String, u64>,
    total: u64,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Records one sample of `folded` (an `outer;inner;leaf` stack; the
    /// empty string means "unattributed" and is recorded under `(none)`).
    pub fn record(&mut self, folded: &str) {
        let key = if folded.is_empty() { "(none)" } else { folded };
        match self.stacks.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                self.stacks.insert(key.to_string(), 1); // st-lint: allow(hot-path-cost) -- false call-graph edge: `record` name-matches the stats recorders; the profiler interns stacks off the timer path
            }
        }
        self.total += 1;
        if st_trace::active() {
            st_trace::count("prof.samples", 1);
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct folded stacks seen.
    pub fn distinct(&self) -> usize {
        self.stacks.len()
    }

    /// Samples recorded for `folded`.
    pub fn count(&self, folded: &str) -> u64 {
        self.stacks.get(folded).copied().unwrap_or(0)
    }

    /// Share of all samples attributed to `folded`, in `[0, 1]`.
    pub fn share(&self, folded: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(folded) as f64 / self.total as f64
        }
    }

    /// Iterates `(folded, count)` in lexicographic stack order.
    pub fn stacks(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.stacks.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another profile into this one (SMP: per-CPU profiles fold
    /// into a machine profile).
    pub fn merge(&mut self, other: &Profile) {
        for (k, &v) in &other.stacks {
            match self.stacks.get_mut(k) {
                Some(n) => *n += v,
                None => {
                    self.stacks.insert(k.clone(), v);
                }
            }
        }
        self.total += other.total;
    }

    /// Collapsed-stack text: one `stack count` line per folded stack, in
    /// lexicographic order. This is the format `inferno-flamegraph` and
    /// speedscope import directly.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.stacks {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON report: schema tag, totals, and a `stacks` object mapping
    /// each folded stack to its sample count. Always passes
    /// [`st_trace::json::validate`].
    pub fn to_json(&self, name: &str) -> String {
        let mut stacks = ObjectBuilder::new();
        for (k, &v) in &self.stacks {
            stacks = stacks.u64(k, v);
        }
        ObjectBuilder::new()
            .str("schema", "st-prof-v1")
            .str("name", name)
            .u64("samples", self.total)
            .u64("distinct_stacks", self.distinct() as u64)
            .raw("stacks", &stacks.build())
            .build()
    }

    /// Scores this profile against exact ground truth: `truth_ns` maps
    /// each folded stack to its exact attributed nanoseconds (see
    /// `st_kernel::context::ContextTruth::ns`).
    pub fn compare(&self, truth_ns: &BTreeMap<String, u64>) -> Comparison {
        let truth_total: u64 = truth_ns.values().sum();
        let mut keys: Vec<&str> = self.stacks.keys().map(String::as_str).collect();
        for k in truth_ns.keys() {
            if !self.stacks.contains_key(k) {
                keys.push(k);
            }
        }
        keys.sort_unstable();
        let rows: Vec<StackError> = keys
            .into_iter()
            .map(|k| {
                let sampled = self.share(k);
                let exact = if truth_total == 0 {
                    0.0
                } else {
                    truth_ns.get(k).copied().unwrap_or(0) as f64 / truth_total as f64
                };
                StackError {
                    folded: k.to_string(),
                    sampled_share: sampled,
                    exact_share: exact,
                    abs_error: (sampled - exact).abs(),
                }
            })
            .collect();
        let max_abs_error = rows.iter().map(|r| r.abs_error).fold(0.0, f64::max);
        Comparison {
            rows,
            max_abs_error,
        }
    }
}

/// One folded stack's sampled-vs-exact attribution.
#[derive(Debug, Clone)]
pub struct StackError {
    /// The folded stack.
    pub folded: String,
    /// Share of profiler samples attributed to this stack.
    pub sampled_share: f64,
    /// Exact share of simulated time spent in this stack.
    pub exact_share: f64,
    /// `|sampled - exact|`.
    pub abs_error: f64,
}

/// A profile scored against ground truth.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-stack rows, lexicographic by folded stack (union of stacks
    /// seen by either side).
    pub rows: Vec<StackError>,
    /// Largest absolute share error across stacks.
    pub max_abs_error: f64,
}

impl Comparison {
    /// Whether every stack's absolute share error is within `tol`.
    pub fn within(&self, tol: f64) -> bool {
        self.max_abs_error <= tol
    }
}

/// Soft-timer sampling glue: grid-aligned rearming and skip accounting.
///
/// The profiler's event is scheduled with a fixed period `P` on the
/// facility's measurement clock. Soft-timer fires are *late* by design
/// (they wait for the next trigger state), so rearming "fire time + P"
/// would let delays accumulate and the effective rate drift down.
/// [`Sampler::on_fire`] instead rearms onto the original grid: the next
/// sample is due at the first grid point strictly after the fire tick.
/// Grid points that passed while the facility was stalled are counted as
/// [`Sampler::skipped`] — visible, not silently stretched.
#[derive(Debug)]
pub struct Sampler {
    profile: Profile,
    period: u64,
    skipped: u64,
}

impl Sampler {
    /// Creates a sampler with the given period in measurement ticks.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (a zero-period sampler would fire at
    /// every trigger state — use the facility's null event for that).
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        Sampler {
            profile: Profile::new(),
            period,
            skipped: 0,
        }
    }

    /// Handles one fire of the sampling event: records a sample of
    /// `folded` and returns the delta (in ticks from `fired_at`) to
    /// rearm with so the next sample lands on the nominal grid.
    ///
    /// `due` is the tick the event became eligible ([`due`] of the
    /// expired event), `fired_at` the tick it actually fired.
    ///
    /// [`due`]: https://docs.rs/st-core/latest/st_core/facility/struct.Expired.html
    pub fn on_fire(&mut self, folded: &str, due: u64, fired_at: u64) -> u64 {
        self.profile.record(folded);
        // Next grid point strictly after the fire tick. `fired_at >= due`
        // always holds (the facility never fires early); each whole
        // period we lag past `due` is a sample that never happened.
        let lag = fired_at.saturating_sub(due);
        let missed = lag / self.period;
        self.skipped += missed;
        self.period - (lag % self.period)
    }

    /// The nominal sampling period, ticks.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Grid samples skipped because the facility lagged a full period.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The accumulated profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consumes the sampler, returning the profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_shares() {
        let mut p = Profile::new();
        for _ in 0..3 {
            p.record("phase;user");
        }
        p.record("phase;kernel");
        p.record("");
        assert_eq!(p.total(), 5);
        assert_eq!(p.distinct(), 3);
        assert_eq!(p.count("phase;user"), 3);
        assert!((p.share("phase;user") - 0.6).abs() < 1e-12);
        assert_eq!(p.count("(none)"), 1);
    }

    #[test]
    fn folded_output_is_sorted_and_parseable() {
        let mut p = Profile::new();
        p.record("b;y");
        p.record("a;x");
        p.record("a;x");
        let text = p.folded();
        assert_eq!(text, "a;x 2\nb;y 1\n");
        // Round-trip: every line is `stack count`.
        for line in text.lines() {
            let (stack, n) = line.rsplit_once(' ').expect("space-separated");
            assert!(!stack.is_empty());
            let _: u64 = n.parse().expect("count parses");
        }
    }

    #[test]
    fn json_export_validates() {
        let mut p = Profile::new();
        p.record("phase \"q\";user");
        p.record("phase;idle");
        let json = p.to_json("unit");
        st_trace::json::validate(&json).expect("profile JSON validates");
        assert!(json.contains("\"st-prof-v1\""));
        assert!(json.contains("\"samples\":2"));
    }

    #[test]
    fn merge_folds_counts() {
        let mut a = Profile::new();
        a.record("x");
        let mut b = Profile::new();
        b.record("x");
        b.record("y");
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 1);
    }

    #[test]
    fn comparison_covers_union_of_stacks() {
        let mut p = Profile::new();
        for _ in 0..50 {
            p.record("a");
        }
        for _ in 0..50 {
            p.record("ghost"); // sampled but no exact time
        }
        let mut truth = BTreeMap::new();
        truth.insert("a".to_string(), 50_u64);
        truth.insert("b".to_string(), 50_u64); // exact time, never sampled
        let c = p.compare(&truth);
        assert_eq!(c.rows.len(), 3);
        assert!(!c.within(0.4));
        let ghost = c.rows.iter().find(|r| r.folded == "ghost").unwrap();
        assert_eq!(ghost.exact_share, 0.0);
        assert!((ghost.sampled_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_match_has_zero_error() {
        let mut p = Profile::new();
        for _ in 0..30 {
            p.record("a");
        }
        for _ in 0..70 {
            p.record("b");
        }
        let mut truth = BTreeMap::new();
        truth.insert("a".to_string(), 30_u64);
        truth.insert("b".to_string(), 70_u64);
        let c = p.compare(&truth);
        assert!(c.max_abs_error < 1e-12);
        assert!(c.within(0.0));
    }

    #[test]
    fn sampler_rearms_onto_grid() {
        let mut s = Sampler::new(50);
        // Fired 7 ticks late: next sample due 43 ticks later.
        assert_eq!(s.on_fire("a", 100, 107), 43);
        assert_eq!(s.skipped(), 0);
        // Fired 2.5 periods late: two grid samples skipped.
        assert_eq!(s.on_fire("a", 150, 275), 25);
        assert_eq!(s.skipped(), 2);
        // Fired exactly on the due tick: a full period to the next.
        assert_eq!(s.on_fire("a", 300, 300), 50);
        assert_eq!(s.profile().total(), 3);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn sampler_rejects_zero_period() {
        let _ = Sampler::new(0);
    }
}
