//! Round-robin process scheduler with FreeBSD's 10 ms time slice.
//!
//! Used by the multi-process Apache model (frequent context switches,
//! poor locality) and by the ST-Apache-compute workload where a
//! compute-bound background process shares the CPU with the server
//! (section 5.3). The scheduler is passive: the machine simulation asks
//! it what to run and informs it of elapsed time and blocking events.

use std::collections::VecDeque;

use st_sim::SimDuration;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

/// Outcome of a scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep running the current process.
    Keep(ProcId),
    /// Switch to another process (a context switch must be charged).
    Switch {
        /// The process leaving the CPU, if any.
        from: Option<ProcId>,
        /// The process taking the CPU.
        to: ProcId,
    },
    /// Nothing runnable: the CPU idles.
    Idle,
}

/// Round-robin scheduler.
///
/// # Examples
///
/// ```
/// use st_kernel::sched::{Decision, ProcId, Scheduler};
/// use st_sim::SimDuration;
///
/// let mut s = Scheduler::new(SimDuration::from_millis(10));
/// s.spawn(ProcId(1));
/// s.spawn(ProcId(2));
/// assert!(matches!(s.pick(), Decision::Switch { to: ProcId(1), .. }));
/// // Process 1 exhausts its slice: round-robin to process 2.
/// s.consume(SimDuration::from_millis(10));
/// assert!(matches!(s.pick(), Decision::Switch { to: ProcId(2), .. }));
/// ```
#[derive(Debug)]
pub struct Scheduler {
    slice: SimDuration,
    run_queue: VecDeque<ProcId>,
    current: Option<ProcId>,
    remaining: SimDuration,
    switches: u64,
}

impl Scheduler {
    /// Creates a scheduler with the given time slice.
    ///
    /// # Panics
    ///
    /// Panics on a zero slice.
    pub fn new(slice: SimDuration) -> Self {
        assert!(slice > SimDuration::ZERO, "slice must be positive");
        Scheduler {
            slice,
            run_queue: VecDeque::new(),
            current: None,
            remaining: SimDuration::ZERO,
            switches: 0,
        }
    }

    /// The configured time slice.
    pub fn slice(&self) -> SimDuration {
        self.slice
    }

    /// Makes a process runnable for the first time.
    pub fn spawn(&mut self, pid: ProcId) {
        self.run_queue.push_back(pid);
    }

    /// Currently running process.
    pub fn current(&self) -> Option<ProcId> {
        self.current
    }

    /// Remaining slice of the current process.
    pub fn remaining_slice(&self) -> SimDuration {
        self.remaining
    }

    /// Total context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.switches
    }

    /// Number of runnable (queued, not current) processes.
    pub fn runnable(&self) -> usize {
        self.run_queue.len()
    }

    /// Picks what to run. Call after any state change (spawn, wake,
    /// block, slice expiry).
    pub fn pick(&mut self) -> Decision {
        match self.current {
            Some(cur) if self.remaining > SimDuration::ZERO => Decision::Keep(cur),
            cur => match self.run_queue.pop_front() {
                Some(next) => {
                    // Requeue a current process whose slice expired.
                    if let Some(prev) = cur {
                        if prev != next {
                            self.run_queue.push_back(prev);
                        }
                    }
                    self.current = Some(next);
                    self.remaining = self.slice;
                    if cur != Some(next) {
                        self.switches += 1;
                        Decision::Switch {
                            from: cur,
                            to: next,
                        }
                    } else {
                        Decision::Keep(next)
                    }
                }
                None => match cur {
                    // Slice expired but nobody else runnable: renew.
                    Some(prev) => {
                        self.remaining = self.slice;
                        Decision::Keep(prev)
                    }
                    None => Decision::Idle,
                },
            },
        }
    }

    /// Consumes CPU time from the current slice.
    pub fn consume(&mut self, d: SimDuration) {
        self.remaining = self.remaining.saturating_sub(d);
    }

    /// The current process blocks (I/O wait); it leaves the CPU.
    ///
    /// # Panics
    ///
    /// Panics when no process is running.
    pub fn block_current(&mut self) -> ProcId {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: only a running process can block"
        )]
        let cur = self.current.take().expect("no current process to block");
        self.remaining = SimDuration::ZERO;
        cur
    }

    /// A blocked process becomes runnable again.
    pub fn wake(&mut self, pid: ProcId) {
        self.run_queue.push_back(pid);
    }

    /// The current process exits.
    ///
    /// # Panics
    ///
    /// Panics when no process is running.
    pub fn exit_current(&mut self) -> ProcId {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: only a running process can exit"
        )]
        let cur = self.current.take().expect("no current process to exit");
        self.remaining = SimDuration::ZERO;
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = Scheduler::new(ms(10));
        s.spawn(ProcId(1));
        s.spawn(ProcId(2));
        s.spawn(ProcId(3));
        let mut order = Vec::new();
        for _ in 0..6 {
            match s.pick() {
                Decision::Switch { to, .. } | Decision::Keep(to) => order.push(to.0),
                Decision::Idle => panic!("unexpected idle"),
            }
            s.consume(ms(10));
        }
        assert_eq!(order, vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(s.context_switches(), 6);
    }

    #[test]
    fn keep_within_slice() {
        let mut s = Scheduler::new(ms(10));
        s.spawn(ProcId(1));
        s.spawn(ProcId(2));
        assert!(matches!(s.pick(), Decision::Switch { to: ProcId(1), .. }));
        s.consume(ms(4));
        assert_eq!(s.pick(), Decision::Keep(ProcId(1)));
        assert_eq!(s.remaining_slice(), ms(6));
    }

    #[test]
    fn sole_process_renews_slice_without_switch() {
        let mut s = Scheduler::new(ms(10));
        s.spawn(ProcId(7));
        s.pick();
        let switches = s.context_switches();
        s.consume(ms(10));
        assert_eq!(s.pick(), Decision::Keep(ProcId(7)));
        assert_eq!(s.context_switches(), switches, "no self-switch");
    }

    #[test]
    fn block_and_wake() {
        let mut s = Scheduler::new(ms(10));
        s.spawn(ProcId(1));
        s.spawn(ProcId(2));
        s.pick();
        let blocked = s.block_current();
        assert_eq!(blocked, ProcId(1));
        assert!(matches!(s.pick(), Decision::Switch { to: ProcId(2), .. }));
        s.wake(ProcId(1));
        s.consume(ms(10));
        assert!(matches!(s.pick(), Decision::Switch { to: ProcId(1), .. }));
    }

    #[test]
    fn idle_when_empty() {
        let mut s = Scheduler::new(ms(10));
        assert_eq!(s.pick(), Decision::Idle);
        s.spawn(ProcId(1));
        s.pick();
        s.exit_current();
        assert_eq!(s.pick(), Decision::Idle);
    }

    #[test]
    fn runnable_count() {
        let mut s = Scheduler::new(ms(1));
        s.spawn(ProcId(1));
        s.spawn(ProcId(2));
        assert_eq!(s.runnable(), 2);
        s.pick();
        assert_eq!(s.runnable(), 1);
    }
}
