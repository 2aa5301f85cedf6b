//! Generation-checked payload storage shared by both timer structures.
//!
//! The queues order small slab indices rather than payloads; the payload
//! and its full deadline live in a slab slot, and a handle is the slot's
//! index plus the generation it was issued under, so a stale handle is
//! rejected in `O(1)`. Each slot also carries a per-queue link field `L`:
//! the wheel threads its bucket lists through it (prev/next/bucket), so a
//! cancel unlinks the entry on the spot and nothing stale is ever left in
//! a list. The heap leaves `L` empty and alone keeps lazy deletion: a
//! canceled entry stays in the heap and is skipped at pop time because its
//! generation no longer matches.

/// Opaque handle to a scheduled timer, valid across any [`crate::TimerQueue`]
/// implementation that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

#[derive(Debug)]
struct Slot<P, L> {
    generation: u32,
    /// Owned by the queue; meaningful only while the slot is occupied.
    links: L,
    state: SlotState<P>,
}

#[derive(Debug)]
enum SlotState<P> {
    Free { next_free: Option<u32> },
    Occupied { deadline: u64, seq: u64, payload: P },
}

/// Slab of timer slots with an intrusive free list.
#[derive(Debug)]
pub(crate) struct TimerSlab<P, L = ()> {
    slots: Vec<Slot<P, L>>,
    free_head: Option<u32>,
    live: usize,
    next_seq: u64,
}

impl<P, L: Default> TimerSlab<P, L> {
    pub(crate) fn new() -> Self {
        TimerSlab {
            slots: Vec::new(),
            free_head: None,
            live: 0,
            next_seq: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Stores a payload, returning its handle and insertion sequence.
    pub(crate) fn insert(&mut self, deadline: u64, payload: P) -> TimerHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        match self.free_head {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                let next_free = match slot.state {
                    SlotState::Free { next_free } => next_free,
                    SlotState::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next_free;
                slot.state = SlotState::Occupied {
                    deadline,
                    seq,
                    payload,
                };
                TimerHandle {
                    index: idx,
                    generation: slot.generation,
                }
            }
            None => {
                // st-lint: allow(no-panicking-arith) -- handles carry u32
                // indices by design; 2^32 live timers is a program bug, not
                // a runtime condition to recover from
                let idx = u32::try_from(self.slots.len()).expect("timer slab exceeds u32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    links: L::default(),
                    state: SlotState::Occupied {
                        deadline,
                        seq,
                        payload,
                    },
                });
                TimerHandle {
                    index: idx,
                    generation: 0,
                }
            }
        }
    }

    /// Removes the payload behind `handle` if it is still current.
    pub(crate) fn remove(&mut self, handle: TimerHandle) -> Option<(u64, u64, P)> {
        if self.slots.get(handle.index as usize)?.generation != handle.generation {
            return None;
        }
        self.take(handle.index)
    }

    /// Removes by raw index when the stored generation matches `generation`.
    pub(crate) fn remove_index(&mut self, index: u32, generation: u32) -> Option<(u64, u64, P)> {
        self.remove(TimerHandle { index, generation })
    }

    /// Removes whatever is live at `index`: for a queue whose lists hold
    /// live entries only, so the generation has nothing left to tell it.
    pub(crate) fn take(&mut self, index: u32) -> Option<(u64, u64, P)> {
        let slot = self.slots.get_mut(index as usize)?;
        if matches!(slot.state, SlotState::Free { .. }) {
            return None;
        }
        let state = std::mem::replace(
            &mut slot.state,
            SlotState::Free {
                next_free: self.free_head,
            },
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = Some(index);
        self.live -= 1;
        match state {
            SlotState::Occupied {
                deadline,
                seq,
                payload,
            } => Some((deadline, seq, payload)),
            SlotState::Free { .. } => unreachable!("checked occupied above"),
        }
    }

    /// The deadline stored at `index` when live under `generation`.
    pub(crate) fn deadline_of(&self, index: u32, generation: u32) -> Option<u64> {
        if self.slots.get(index as usize)?.generation != generation {
            return None;
        }
        self.deadline_at(index)
    }

    /// The deadline of whatever is live at `index`.
    pub(crate) fn deadline_at(&self, index: u32) -> Option<u64> {
        match self.slots.get(index as usize)?.state {
            SlotState::Occupied { deadline, .. } => Some(deadline),
            SlotState::Free { .. } => None,
        }
    }

    /// The queue's link field of slot `index` (which must have been issued).
    pub(crate) fn links(&self, index: u32) -> &L {
        &self.slots[index as usize].links
    }

    /// Mutable access to the link field of slot `index`.
    pub(crate) fn links_mut(&mut self, index: u32) -> &mut L {
        &mut self.slots[index as usize].links
    }
}

/// A heap entry: slab index plus the generation at insert time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Entry {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut s: TimerSlab<&str> = TimerSlab::new();
        let h = s.insert(10, "a");
        assert_eq!(s.len(), 1);
        let (d, _, p) = s.remove(h).unwrap();
        assert_eq!((d, p), (10, "a"));
        assert_eq!(s.len(), 0);
        assert!(s.remove(h).is_none(), "double remove");
    }

    #[test]
    fn slots_are_reused_with_new_generation() {
        let mut s: TimerSlab<u32> = TimerSlab::new();
        let h1 = s.insert(1, 100);
        s.remove(h1).unwrap();
        let h2 = s.insert(2, 200);
        assert_eq!(h1.index, h2.index, "slot reused");
        assert_ne!(h1.generation, h2.generation, "generation bumped");
        assert!(s.remove(h1).is_none(), "stale handle rejected");
        assert_eq!(s.remove(h2).unwrap().2, 200);
    }

    #[test]
    fn seq_monotone() {
        let mut s: TimerSlab<()> = TimerSlab::new();
        let h1 = s.insert(5, ());
        let h2 = s.insert(5, ());
        let (_, s1, _) = s.remove(h1).unwrap();
        let (_, s2, _) = s.remove(h2).unwrap();
        assert!(s1 < s2);
    }

    #[test]
    fn deadline_of_checks_generation() {
        let mut s: TimerSlab<()> = TimerSlab::new();
        let h = s.insert(42, ());
        assert_eq!(s.deadline_of(h.index, h.generation), Some(42));
        assert_eq!(s.deadline_of(h.index, h.generation + 1), None);
        s.remove(h).unwrap();
        assert_eq!(s.deadline_of(h.index, h.generation), None);
    }
}
