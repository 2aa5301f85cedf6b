//! Quickstart: real-time soft timers in an ordinary userspace program.
//!
//! An event loop calls `run_pending()` once per iteration — its trigger
//! state — and gets microsecond-class timers with no timerfd wakeups; a
//! 1 ms backup thread bounds every event's delay, exactly as the paper's
//! backup hardware interrupt does.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use soft_timers::rt::{RtConfig, RtSoftTimers};

fn main() {
    let timers = RtSoftTimers::start(RtConfig::default());
    println!(
        "measurement clock: {} Hz; backup interrupt clock: {} Hz (X = {})",
        timers.measure_resolution(),
        timers.interrupt_clock_resolution(),
        timers.measure_resolution() / timers.interrupt_clock_resolution(),
    );

    // Schedule a spread of one-shot events 50..500 µs out and record the
    // delay past each deadline when the handler actually runs (the
    // runtime's ticks are nanoseconds).
    let total_delay_ns = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicU64::new(0));
    const EVENTS: u64 = 64;
    for i in 0..EVENTS {
        let delta = Duration::from_micros(50 + i * 7);
        let scheduled = timers.measure_time();
        let due = scheduled + delta.as_nanos() as u64;
        let total = total_delay_ns.clone();
        let fired = fired.clone();
        timers.schedule_in(delta, move |rt| {
            let late = rt.measure_time().saturating_sub(due);
            total.fetch_add(late, Ordering::Relaxed);
            fired.fetch_add(1, Ordering::Relaxed);
        });
    }

    // The "application": a busy loop that reaches a trigger state every
    // ~20 µs of work.
    let mut iterations = 0u64;
    while fired.load(Ordering::Relaxed) < EVENTS {
        busy_work(Duration::from_micros(20));
        iterations += 1;
        timers.run_pending();
    }

    let stats = timers.stats();
    println!(
        "fired {EVENTS} events over {iterations} loop iterations \
         ({} from trigger states, {} from the backup sweep)",
        stats.fired_trigger, stats.fired_backup
    );
    println!(
        "mean delay past deadline: {:.1} us (bounded by the {} ms backup period)",
        total_delay_ns.load(Ordering::Relaxed) as f64 / 1e3 / EVENTS as f64,
        1000 / timers.interrupt_clock_resolution().max(1),
    );

    // A periodic event that reschedules itself from its own handler —
    // the paper's rate-based clocking pattern.
    let ticks = Arc::new(AtomicU64::new(0));
    fn tick(rt: &RtSoftTimers, ticks: Arc<AtomicU64>) {
        if ticks.fetch_add(1, Ordering::Relaxed) + 1 < 100 {
            rt.schedule_in(Duration::from_micros(100), move |rt| tick(rt, ticks));
        }
    }
    let t = ticks.clone();
    let start = std::time::Instant::now();
    timers.schedule_in(Duration::from_micros(100), move |rt| tick(rt, t));
    while ticks.load(Ordering::Relaxed) < 100 {
        busy_work(Duration::from_micros(10));
        timers.run_pending();
    }
    let elapsed = start.elapsed();
    println!(
        "100 self-rescheduling events at a 100 us target took {:.2} ms \
         (ideal 10.0 ms; overshoot is trigger-state latency)",
        elapsed.as_secs_f64() * 1e3
    );

    timers.shutdown();
}

/// Spins the CPU for roughly `d` (simulating application work between
/// trigger states).
fn busy_work(d: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}
