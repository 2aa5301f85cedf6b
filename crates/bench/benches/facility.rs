//! The facility's hot paths.
//!
//! The headline number is `poll_not_due`: the cost of a trigger-state
//! check when no event is due. The paper inserts this check at every
//! syscall return, trap return and interrupt return and measures "no
//! noticeable impact on system performance" — for that to hold, this
//! path must be a clock read and one comparison.

use st_bench::criterion::{criterion_group, criterion_main, Criterion};
use st_core::facility::{Config, Expired, SoftTimerCore};
use st_wheel::HeapQueue;

fn bench_poll_not_due(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility");
    group.bench_function("poll_not_due", |b| {
        let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
        core.schedule(0, u32::MAX as u64, 1);
        let mut out: Vec<Expired<u64>> = Vec::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            core.poll(std::hint::black_box(now), &mut out)
        });
    });
    group.bench_function("has_due", |b| {
        let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
        core.schedule(0, u32::MAX as u64, 1);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            core.has_due(std::hint::black_box(now))
        });
    });
    group.finish();
}

fn bench_schedule_fire_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility_schedule_fire");
    // Steady-state rate-based clocking: one pending event, fired and
    // rescheduled 40 ticks out, with a trigger check every 20 ticks.
    group.bench_function("timing_wheel_default", |b| {
        let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
        let mut out = Vec::new();
        let mut now = 0u64;
        core.schedule(now, 40, 1);
        b.iter(|| {
            now += 20;
            out.clear();
            if core.poll(now, &mut out) > 0 {
                core.schedule(now, 40, 1);
            }
        });
    });
    group.bench_function("heap_store", |b| {
        let mut core: SoftTimerCore<u64, HeapQueue<u64>> =
            SoftTimerCore::with_queue(Config::default(), HeapQueue::new());
        let mut out = Vec::new();
        let mut now = 0u64;
        core.schedule(now, 40, 1);
        b.iter(|| {
            now += 20;
            out.clear();
            if core.poll(now, &mut out) > 0 {
                core.schedule(now, 40, 1);
            }
        });
    });
    group.finish();
}

fn bench_backup_sweep(c: &mut Criterion) {
    // A 1 ms backup sweep over a facility with many pending far events.
    c.bench_function("facility_backup_sweep_1k_pending", |b| {
        let mut core: SoftTimerCore<u64> = SoftTimerCore::new(Config::default());
        let mut now = 0u64;
        for i in 0..1_000u64 {
            core.schedule(now, 1_000_000 + i, i);
        }
        let mut out = Vec::new();
        b.iter(|| {
            now += 1_000;
            out.clear();
            core.interrupt_sweep(now, &mut out)
        });
    });
}

criterion_group!(
    benches,
    bench_poll_not_due,
    bench_schedule_fire_cycle,
    bench_backup_sweep
);
criterion_main!(benches);
