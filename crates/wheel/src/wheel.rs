//! The hashed timing wheel (Varghese & Lauck scheme 6).

use crate::slab::{Entry, TimerSlab};
use crate::{TimerHandle, TimerQueue};

fn drain_sorted<P>(due: &mut Vec<(u64, u64, P)>, out: &mut Vec<(u64, P)>) {
    due.sort_by_key(|&(d, s, _)| (d, s));
    out.extend(due.drain(..).map(|(d, _, p)| (d, p)));
}

/// Hashed timing wheel: deadlines hash into `slots` by modulo, each slot an
/// unsorted list checked against the full deadline (scheme 6).
///
/// There is no horizon: a deadline arbitrarily far out parks in its slot
/// and survives as many cursor rotations as needed.
/// This is the structure the paper's facility is described as using.
///
/// # Examples
///
/// ```
/// use st_wheel::{HashedWheel, TimerQueue};
///
/// let mut w = HashedWheel::with_slots(256);
/// w.schedule(10, 'a');
/// w.schedule(10 + 256, 'b'); // same slot, next rotation
/// let mut out = Vec::new();
/// w.advance(20, &mut out);
/// assert_eq!(out, vec![(10, 'a')]);
/// out.clear();
/// w.advance(300, &mut out);
/// assert_eq!(out, vec![(266, 'b')]);
/// ```
#[derive(Debug)]
pub struct HashedWheel<P> {
    slots: Vec<Vec<Entry>>,
    mask: u64,
    past_due: Vec<Entry>,
    /// Reusable sweep buffer; keeps `advance` allocation-free once warm.
    sweep: Vec<(u64, u64, P)>,
    slab: TimerSlab<P>,
    now: u64,
}

impl<P> HashedWheel<P> {
    /// Creates a wheel with `slots` slots (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "slot count must be positive");
        let n = slots.next_power_of_two();
        HashedWheel {
            slots: (0..n).map(|_| Vec::new()).collect(),
            mask: n as u64 - 1,
            past_due: Vec::new(),
            sweep: Vec::new(),
            slab: TimerSlab::new(),
            now: 0,
        }
    }

    /// Creates the facility's default geometry (4096 slots).
    pub fn new() -> Self {
        HashedWheel::with_slots(4096)
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

impl<P> Default for HashedWheel<P> {
    fn default() -> Self {
        HashedWheel::new()
    }
}

impl<P> TimerQueue<P> for HashedWheel<P> {
    fn schedule(&mut self, deadline: u64, payload: P) -> TimerHandle {
        let handle = self.slab.insert(deadline, payload);
        let entry = Entry {
            index: handle.index,
            generation: handle.generation,
        };
        if deadline <= self.now {
            self.past_due.push(entry);
        } else {
            // st-lint: allow(no-silent-cast) -- masked to the power-of-two
            // slot count, so it always fits a usize index
            let idx = (deadline & self.mask) as usize;
            self.slots[idx].push(entry);
        }
        handle
    }

    fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        self.slab.remove(handle).map(|(_, _, p)| p)
    }

    fn advance(&mut self, now: u64, out: &mut Vec<(u64, P)>) {
        assert!(
            now >= self.now,
            "time went backwards: {} -> {now}",
            self.now
        );
        let mut due = std::mem::take(&mut self.sweep);

        let past = std::mem::take(&mut self.past_due);
        for entry in past {
            if let Some((d, s, p)) = self.slab.remove_index(entry.index, entry.generation) {
                due.push((d, s, p));
            }
        }

        let slots = self.slots.len() as u64;
        let jump = now - self.now;
        let visit = |slot: &mut Vec<Entry>,
                     slab: &mut TimerSlab<P>,
                     due: &mut Vec<(u64, u64, P)>| {
            slot.retain(
                |entry| match slab.deadline_of(entry.index, entry.generation) {
                    None => false,
                    Some(d) if d <= now => {
                        if let Some((dd, s, p)) = slab.remove_index(entry.index, entry.generation) {
                            due.push((dd, s, p));
                        }
                        false
                    }
                    Some(_) => true,
                },
            );
        };
        if jump >= slots {
            for i in 0..self.slots.len() {
                let mut slot = std::mem::take(&mut self.slots[i]);
                visit(&mut slot, &mut self.slab, &mut due);
                self.slots[i] = slot;
            }
        } else {
            // Visits ticks `self.now + 1 ..= now` as `tick_before + 1`, which
            // cannot overflow because `tick_before < now`; `self.now + 1`
            // does once the wheel has been advanced to `u64::MAX`.
            for tick_before in self.now..now {
                // st-lint: allow(no-silent-cast) -- masked to the
                // power-of-two slot count, so it always fits a usize index
                let idx = ((tick_before + 1) & self.mask) as usize;
                let mut slot = std::mem::take(&mut self.slots[idx]);
                visit(&mut slot, &mut self.slab, &mut due);
                self.slots[idx] = slot;
            }
        }
        self.now = now;
        drain_sorted(&mut due, out);
        self.sweep = due;
    }

    fn next_deadline(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut consider = |d: u64| {
            min = Some(match min {
                Some(m) => m.min(d),
                None => d,
            });
        };
        for entry in &self.past_due {
            if let Some(d) = self.slab.deadline_of(entry.index, entry.generation) {
                consider(d);
            }
        }
        for slot in &self.slots {
            for entry in slot {
                if let Some(d) = self.slab.deadline_of(entry.index, entry.generation) {
                    consider(d);
                }
            }
        }
        min
    }

    fn len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_wheel_rotations() {
        let mut w = HashedWheel::with_slots(16);
        w.schedule(5, 'a');
        w.schedule(5 + 16, 'b');
        w.schedule(5 + 32, 'c');
        let mut out = Vec::new();
        w.advance(6, &mut out);
        assert_eq!(out, vec![(5, 'a')]);
        out.clear();
        w.advance(40, &mut out);
        assert_eq!(out, vec![(21, 'b'), (37, 'c')]);
    }

    #[test]
    fn hashed_wheel_rounds_slots_to_power_of_two() {
        let w: HashedWheel<()> = HashedWheel::with_slots(1000);
        assert_eq!(w.slot_count(), 1024);
    }

    #[test]
    fn hashed_wheel_next_deadline() {
        let mut w = HashedWheel::with_slots(8);
        assert_eq!(w.next_deadline(), None);
        let h = w.schedule(9, ());
        w.schedule(17, ());
        assert_eq!(w.next_deadline(), Some(9));
        w.cancel(h);
        assert_eq!(w.next_deadline(), Some(17));
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut w = HashedWheel::with_slots(8);
        for i in 0..4 {
            w.schedule(3, i);
        }
        let mut out = Vec::new();
        w.advance(3, &mut out);
        assert_eq!(out, (0..4).map(|i| (3, i)).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn hashed_wheel_rejects_regression() {
        let mut w: HashedWheel<()> = HashedWheel::with_slots(4);
        let mut out = Vec::new();
        w.advance(5, &mut out);
        w.advance(4, &mut out);
    }
}
