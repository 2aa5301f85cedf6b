//! Timer queue data structures for the soft-timers facility.
//!
//! The paper maintains scheduled soft-timer events in "a modified form of
//! timing wheels" (section 3, footnote 2), citing Varghese & Lauck. This
//! crate implements that structure plus the reference it is tested against:
//!
//! - [`TimingWheel`] — eleven levels of 64 buckets covering every `u64`
//!   tick (Varghese & Lauck scheme 7), an occupancy bitmap per level and
//!   intrusive bucket lists: `O(1)` insert, `O(1)` cancel by unlinking,
//!   find-first-set for the earliest deadline, and an expiry that visits
//!   only the occupied buckets it crosses. The one production timer queue,
//!   with two users: the facility's store (`st-core`, measurement-clock
//!   ticks) and the simulator's event calendar (`st_sim::Engine`, whose
//!   ticks are `SimTime` nanoseconds).
//! - [`HeapQueue`] — binary-heap timer queue (`O(log n)` insert/expire), the
//!   oracle the wheel must agree with and the baseline it is benchmarked
//!   against.
//!
//! Both share the [`TimerQueue`] trait, carry generic payloads, support
//! `O(1)` cancelation through generation-checked [`TimerHandle`]s (the
//! wheel unlinks at once, the heap drops the entry when it surfaces), and
//! fire events in deadline order (FIFO among equal deadlines) so they are
//! interchangeable inside the facility. Seeded property tests check the
//! wheel against [`HeapQueue`] on generated op sequences.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod heap;
pub mod slab;
pub mod wheel;

pub use heap::HeapQueue;
pub use slab::TimerHandle;
pub use wheel::TimingWheel;

/// A queue of `(deadline_tick, payload)` timers.
///
/// Ticks are abstract `u64` values — the facility uses measurement-clock
/// ticks (1 µs by default), the simulator's engine virtual nanoseconds.
/// Time never goes backwards: `advance` panics on a tick lower than a
/// previous call's.
pub trait TimerQueue<P> {
    /// Schedules `payload` to expire at absolute tick `deadline`.
    ///
    /// A deadline at or before the current tick expires on the next
    /// [`TimerQueue::advance`] call.
    fn schedule(&mut self, deadline: u64, payload: P) -> TimerHandle;

    /// Cancels a scheduled timer, returning its payload, or `None` when the
    /// timer already expired or was already canceled.
    fn cancel(&mut self, handle: TimerHandle) -> Option<P>;

    /// Advances the queue to `now`, appending all timers with
    /// `deadline <= now` to `out` in deadline order (FIFO among equals).
    ///
    /// # Panics
    ///
    /// Panics if `now` is smaller than a previously passed tick.
    fn advance(&mut self, now: u64, out: &mut Vec<(u64, P)>);

    /// Earliest pending deadline, or `None` when empty. Exact: a canceled
    /// timer never shows.
    ///
    /// On [`TimingWheel`] this is two find-first-set steps and a minimum
    /// over the one bucket they select; the [`HeapQueue`] oracle scans.
    /// The facility re-queries after every expiry (see `st-core`).
    fn next_deadline(&self) -> Option<u64>;

    /// Number of pending (scheduled, not canceled, not expired) timers.
    fn len(&self) -> usize;

    /// Whether no timers are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
