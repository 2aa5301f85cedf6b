//! Timer data structures: the paper's "modified timing wheels" choice
//! (section 3, footnote 2) against a binary-heap baseline — schedule,
//! advance, and cancel at several pending-set sizes.

use st_bench::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_bench::{deadline_stream, PENDING_SIZES};
use st_wheel::{HeapQueue, TimerQueue, TimingWheel};

/// One full churn cycle: keep `pending` timers live while time advances
/// in small steps, rescheduling every expired timer — the facility's
/// steady-state usage pattern.
fn churn<Q: TimerQueue<u64>>(queue: &mut Q, pending: usize, steps: u64) {
    let mut next = deadline_stream(42, 2_000);
    let mut now = 0u64;
    for i in 0..pending {
        queue.schedule(next(now), i as u64);
    }
    let mut out = Vec::with_capacity(64);
    for _ in 0..steps {
        now += 25;
        out.clear();
        queue.advance(now, &mut out);
        for &(_, p) in out.iter() {
            queue.schedule(next(now), p);
        }
    }
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_1000_steps");
    for &n in &PENDING_SIZES {
        group.bench_with_input(BenchmarkId::new("heap", n), &n, |b, &n| {
            b.iter(|| churn(&mut HeapQueue::new(), n, 1_000));
        });
        group.bench_with_input(BenchmarkId::new("timing_wheel", n), &n, |b, &n| {
            b.iter(|| churn(&mut TimingWheel::new(), n, 1_000));
        });
    }
    group.finish();
}

fn bench_schedule_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_then_cancel");
    group.bench_function("heap", |b| {
        b.iter(|| {
            let mut q = HeapQueue::new();
            let handles: Vec<_> = (0..1_000u64).map(|i| q.schedule(i * 3 + 1, i)).collect();
            for h in handles {
                q.cancel(h);
            }
        });
    });
    group.bench_function("timing_wheel", |b| {
        b.iter(|| {
            let mut q = TimingWheel::new();
            let handles: Vec<_> = (0..1_000u64).map(|i| q.schedule(i * 3 + 1, i)).collect();
            for h in handles {
                q.cancel(h);
            }
        });
    });
    group.finish();
}

fn bench_sparse_advance(c: &mut Criterion) {
    // The idle-system case: advancing a long way with nothing due.
    let mut group = c.benchmark_group("sparse_advance_1ms_jump");
    group.bench_function("timing_wheel", |b| {
        let mut q: TimingWheel<()> = TimingWheel::new();
        q.schedule(u64::MAX / 2, ());
        let mut now = 0;
        let mut out = Vec::new();
        b.iter(|| {
            now += 1_000;
            q.advance(now, &mut out);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_churn,
    bench_schedule_cancel,
    bench_sparse_advance
);
criterion_main!(benches);
