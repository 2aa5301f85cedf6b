//! Binary-heap timer queue — the baseline and property-test oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::slab::{Entry, TimerSlab};
use crate::{TimerHandle, TimerQueue};

/// A timer queue backed by a binary heap of `(deadline, seq)` keys.
///
/// `O(log n)` schedule and expire. This is what a conventional OS timer
/// facility (e.g. a `callout` heap) provides; the wheel is measured
/// against it in `st-bench`, and the property tests use it as the oracle
/// the wheel must agree with.
///
/// # Examples
///
/// ```
/// use st_wheel::{HeapQueue, TimerQueue};
///
/// let mut q = HeapQueue::new();
/// q.schedule(30, "late");
/// q.schedule(10, "early");
/// let mut out = Vec::new();
/// q.advance(20, &mut out);
/// assert_eq!(out, vec![(10, "early")]);
/// ```
#[derive(Debug)]
pub struct HeapQueue<P> {
    heap: BinaryHeap<Reverse<(u64, u64, Entry)>>,
    slab: TimerSlab<P>,
    now: u64,
    push_count: u64,
}

impl<P> HeapQueue<P> {
    /// Creates an empty queue at tick 0.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            slab: TimerSlab::new(),
            now: 0,
            push_count: 0,
        }
    }
}

impl<P> Default for HeapQueue<P> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<P> TimerQueue<P> for HeapQueue<P> {
    fn schedule(&mut self, deadline: u64, payload: P) -> TimerHandle {
        let handle = self.slab.insert(deadline, payload);
        let seq = self.push_count;
        self.push_count += 1;
        self.heap.push(Reverse((
            deadline,
            seq,
            Entry {
                index: handle.index,
                generation: handle.generation,
            },
        )));
        handle
    }

    fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        // The heap entry stays behind and is skipped at pop time (lazy
        // deletion keyed on the slab generation).
        self.slab.remove(handle).map(|(_, _, p)| p)
    }

    fn advance(&mut self, now: u64, out: &mut Vec<(u64, P)>) {
        assert!(
            now >= self.now,
            "time went backwards: {} -> {now}",
            self.now
        );
        self.now = now;
        while let Some(&Reverse((deadline, _, entry))) = self.heap.peek() {
            if deadline > now {
                break;
            }
            self.heap.pop();
            if let Some((d, _, payload)) = self.slab.remove_index(entry.index, entry.generation) {
                out.push((d, payload));
            }
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        // Canceled entries linger in the heap, so the head alone is not
        // authoritative; take the min over entries still live in the slab.
        // The facility calls this only after expiry, so O(n) is acceptable
        // for the baseline.
        self.heap
            .iter()
            .filter_map(|&Reverse((d, _, e))| {
                self.slab.deadline_of(e.index, e.generation).map(|_| d)
            })
            .min()
    }

    fn len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut q = HeapQueue::new();
        for i in 0..5 {
            q.schedule(7, i);
        }
        let mut out = Vec::new();
        q.advance(7, &mut out);
        assert_eq!(out, (0..5).map(|i| (7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_expiry() {
        let mut q = HeapQueue::new();
        let a = q.schedule(5, "a");
        q.schedule(5, "b");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None);
        let mut out = Vec::new();
        q.advance(10, &mut out);
        assert_eq!(out, vec![(5, "b")]);
    }

    #[test]
    fn next_deadline_ignores_canceled() {
        let mut q = HeapQueue::new();
        let a = q.schedule(3, ());
        q.schedule(9, ());
        q.cancel(a);
        assert_eq!(q.next_deadline(), Some(9));
    }

    #[test]
    fn len_tracks_live() {
        let mut q = HeapQueue::new();
        let a = q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        let mut out = Vec::new();
        q.advance(5, &mut out);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn advance_rejects_regression() {
        let mut q: HeapQueue<()> = HeapQueue::new();
        let mut out = Vec::new();
        q.advance(10, &mut out);
        q.advance(9, &mut out);
    }

    #[test]
    fn deadline_at_or_before_now_fires_immediately() {
        let mut q = HeapQueue::new();
        let mut out = Vec::new();
        q.advance(100, &mut out);
        q.schedule(50, "past");
        q.advance(100, &mut out);
        assert_eq!(out, vec![(50, "past")]);
    }

    #[test]
    fn empty_queue_behaviour() {
        let q: HeapQueue<()> = HeapQueue::new();
        assert_eq!(q.next_deadline(), None);
        assert!(q.is_empty());
    }
}
