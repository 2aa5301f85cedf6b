//! Timer queue data structures for the soft-timers facility.
//!
//! The paper maintains scheduled soft-timer events in "a modified form of
//! timing wheels" (section 3, footnote 2), citing Varghese & Lauck. This
//! crate implements that structure plus the reference it is tested against:
//!
//! - [`HashedWheel`] — deadline hashed modulo the slot count, unsorted
//!   per-slot lists (scheme 6) — `O(1)` insert, amortized `O(1)` expiry at
//!   soft-timer densities. The facility's store.
//! - [`HeapQueue`] — binary-heap timer queue (`O(log n)` insert/expire), the
//!   oracle the wheel must agree with and the baseline it is benchmarked
//!   against.
//!
//! Both share the [`TimerQueue`] trait, carry generic payloads, support
//! `O(1)` cancelation through generation-checked [`TimerHandle`]s, and fire
//! events in deadline order (FIFO among equal deadlines) so they are
//! interchangeable inside the facility. Seeded property tests check the
//! wheel against [`HeapQueue`] on generated op sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heap;
pub mod slab;
pub mod wheel;

pub use heap::HeapQueue;
pub use slab::TimerHandle;
pub use wheel::HashedWheel;

/// A queue of `(deadline_tick, payload)` timers.
///
/// Ticks are abstract `u64` values — the facility uses measurement-clock
/// ticks (1 µs by default). Time never goes backwards: `advance` panics on
/// a tick lower than a previous call's.
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

    /// Earliest pending deadline, or `None` when empty.
    ///
    /// May cost a scan of the structure's slots; the facility caches the
    /// result and only re-queries after expiry (see `st-core`).
    fn next_deadline(&self) -> Option<u64>;

    /// Number of pending (scheduled, not canceled, not expired) timers.
    fn len(&self) -> usize;

    /// Whether no timers are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
