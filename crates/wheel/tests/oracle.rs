//! Randomized oracle tests: the wheel must agree with the binary-heap
//! oracle on arbitrary schedule / cancel / advance sequences.
//!
//! Op sequences are drawn from the in-repo deterministic [`SimRng`]
//! (fixed seed per test, so failures replay exactly) instead of an
//! external property-testing framework — the workspace builds with no
//! network access.

use st_sim::SimRng;
use st_wheel::{HeapQueue, TimerQueue, TimingWheel};

/// An operation in a random timer workload. All tick arithmetic
/// saturates: a case may run at the end of time.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a timer at `deadline`.
    Schedule { deadline: Deadline },
    /// Cancel the `nth` still-live handle (modulo live count).
    Cancel { nth: usize },
    /// Advance time forward by `delta` ticks.
    Advance { delta: u64 },
}

/// Where a scheduled timer's deadline lies.
#[derive(Debug, Clone, Copy)]
enum Deadline {
    /// This many ticks past the current advance point.
    Ahead(u64),
    /// This many ticks *before* the current advance point.
    Behind(u64),
    /// This many ticks before `u64::MAX`.
    FromEnd(u64),
}

/// How close to `u64::MAX` the end-of-time deadlines and opening jumps
/// land: inside the wheel's last level-2 bucket.
const NEAR_END: u64 = 3 * 4096;

/// How far ahead a case schedules and how far it jumps, in ticks.
#[derive(Debug, Clone, Copy)]
struct Spans {
    schedule: u64,
    advance: u64,
}

/// One regime per stretch of wheel levels (a level is 8 bits of the
/// deadline, so level `k` begins at 256^k ticks out).
const SPANS: [Spans; 5] = [
    // Level 0 alone: everything within one 256-tick turn.
    Spans {
        schedule: 256,
        advance: 96,
    },
    // Levels 0-1, the facility at 1 µs ticks: events tens to thousands of
    // ticks out, polls that cross many level-0 buckets.
    Spans {
        schedule: 4096,
        advance: 2000,
    },
    // Levels 0-2 crossed in small steps: an entry is filed again on each
    // level on its way down.
    Spans {
        schedule: 262_144,
        advance: 2000,
    },
    // What the host runtime feeds the wheel at 1 GHz ticks: ms-scale
    // deltas (level 2) and jumps that swallow whole level-1 buckets.
    Spans {
        schedule: 2_000_000,
        advance: 1_000_000,
    },
    // Levels 3 and 4: deltas below 2^40 ticks, jumps of up to 2^34.
    Spans {
        schedule: 1 << 40,
        advance: 1 << 34,
    },
];

/// Weighted draw: schedule 4 (of which one in eight lands in the past and
/// one in eight near `u64::MAX`), cancel 1, advance 2.
fn random_op(rng: &mut SimRng, spans: Spans) -> Op {
    match rng.range_u64(0, 7) {
        0..=3 => Op::Schedule {
            deadline: match rng.range_u64(0, 8) {
                0 => Deadline::Behind(rng.range_u64(0, spans.schedule)),
                1 => Deadline::FromEnd(rng.range_u64(0, NEAR_END)),
                _ => Deadline::Ahead(rng.range_u64(0, spans.schedule)),
            },
        },
        4 => Op::Cancel {
            nth: rng.next_u64() as usize,
        },
        _ => Op::Advance {
            delta: rng.range_u64(0, spans.advance),
        },
    }
}

/// One case: a span regime, and one case in four opens with a jump to
/// within [`NEAR_END`] of `u64::MAX` so the rest of it runs against the
/// end of time.
fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    let spans = SPANS[rng.index(SPANS.len())];
    let mut ops = Vec::new();
    if rng.range_u64(0, 4) == 0 {
        ops.push(Op::Advance {
            delta: u64::MAX - rng.range_u64(0, NEAR_END),
        });
    }
    ops.extend((0..rng.range_u64(1, 120)).map(|_| random_op(rng, spans)));
    ops
}

/// Runs the op sequence against `queue` and the oracle simultaneously,
/// asserting identical observable behaviour after every step.
fn check_against_oracle<Q: TimerQueue<u64>>(mut queue: Q, ops: &[Op]) {
    let mut oracle: HeapQueue<u64> = HeapQueue::new();
    let mut now = 0u64;
    let mut live: Vec<(st_wheel::TimerHandle, st_wheel::TimerHandle)> = Vec::new();
    let mut payload = 0u64;

    for op in ops {
        match *op {
            Op::Schedule { deadline } => {
                let deadline = match deadline {
                    Deadline::Ahead(delta) => now.saturating_add(delta),
                    Deadline::Behind(back) => now.saturating_sub(back),
                    Deadline::FromEnd(back) => u64::MAX - back,
                };
                let h1 = queue.schedule(deadline, payload);
                let h2 = oracle.schedule(deadline, payload);
                live.push((h1, h2));
                payload += 1;
            }
            Op::Cancel { nth } => {
                if live.is_empty() {
                    continue;
                }
                let idx = nth % live.len();
                let (h1, h2) = live.swap_remove(idx);
                let c1 = queue.cancel(h1);
                let c2 = oracle.cancel(h2);
                assert_eq!(c1, c2, "cancel result diverged");
            }
            Op::Advance { delta } => {
                now = now.saturating_add(delta);
                let mut out1 = Vec::new();
                let mut out2 = Vec::new();
                queue.advance(now, &mut out1);
                oracle.advance(now, &mut out2);
                assert_eq!(out1, out2, "expiry diverged at t={now}");
                // Handles of fired timers stay in `live`; canceling them
                // later must return `None` identically in both structures,
                // which the Cancel arm asserts.
            }
        }
        assert_eq!(queue.len(), oracle.len(), "len diverged");
        assert_eq!(
            queue.next_deadline(),
            oracle.next_deadline(),
            "next_deadline diverged"
        );
    }

    // Drain everything left and compare. The second advance to the same
    // tick is the pinned-clock case: it must be a no-op, not an overflow.
    for _ in 0..2 {
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        queue.advance(u64::MAX, &mut out1);
        oracle.advance(u64::MAX, &mut out2);
        assert_eq!(out1, out2, "final drain diverged");
        assert!(queue.is_empty());
    }
}

const CASES: u64 = 64;

fn run_cases<Q: TimerQueue<u64>>(seed: u64, make: impl Fn() -> Q) {
    let mut rng = SimRng::seed(seed);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng);
        check_against_oracle(make(), &ops);
    }
}

#[test]
fn timing_wheel_matches_heap() {
    for seed in [0x51, 0x53, 0x54] {
        run_cases(seed, TimingWheel::new);
    }
}

#[test]
fn end_of_time_rearm_matches_heap() {
    // A wheel advanced to `u64::MAX` stays usable: re-arming there (the
    // facility's saturated deadline under a pinned clock) and advancing
    // to the same tick again fires the new timer.
    let ops = [
        Op::Schedule {
            deadline: Deadline::FromEnd(0),
        },
        Op::Advance { delta: u64::MAX },
        Op::Schedule {
            deadline: Deadline::Ahead(0),
        },
        Op::Advance { delta: 0 },
        Op::Advance { delta: 0 },
    ];
    check_against_oracle(TimingWheel::new(), &ops);
}
