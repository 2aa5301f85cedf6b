//! Bounded drop-oldest ring buffer: the one retention policy behind
//! both the event stream and every time series.
//!
//! The session is a flight recorder, not a log: when a ring fills, the
//! oldest items are overwritten and a counter records how many were
//! lost, so exports can never silently pretend to be complete.

/// Fixed-capacity ring with drop-oldest overwrite semantics.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest retained item once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    /// Creates a ring holding at most `capacity` items (minimum 1),
    /// reserving up to 65 536 of them up front so a recording does not
    /// pay for growth on the emit path.
    pub fn new(capacity: usize) -> Ring<T> {
        let cap = capacity.max(1);
        Ring {
            buf: Vec::with_capacity(cap.min(1 << 16)), // st-lint: allow(hot-path-cost) -- enabled path: built once per series name (and once per session for events), and only while a session is recording
            cap,
            start: 0,
            dropped: 0,
        }
    }

    /// Appends an item, evicting the oldest one if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.start] = item;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no items are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of items evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained items in arrival order (oldest first).
    pub fn oldest_first(&self) -> impl Iterator<Item = T> + '_ {
        let (newer, older) = self.buf.split_at(self.start);
        older.iter().chain(newer).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cap: usize, n: u64) -> Ring<u64> {
        let mut r = Ring::new(cap);
        (0..n).for_each(|i| r.push(i));
        r
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let r = filled(8, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.oldest_first().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drops_oldest_when_full_and_counts_losses() {
        let r = filled(4, 10);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.oldest_first().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let r = filled(0, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.oldest_first().next(), Some(1));
        assert_eq!(r.dropped(), 1);
    }
}
