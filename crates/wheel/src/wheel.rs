//! The timing wheel: hierarchical, bit-mapped, on intrusive lists.

use crate::slab::TimerSlab;
use crate::{TimerHandle, TimerQueue};

/// Wheel levels: level `k` files a deadline by bits `8k .. 8k + 8`, so
/// eight levels cover all 64 bits exactly.
const LEVELS: usize = 8;
/// Bits of a deadline one level consumes.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: u16 = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Bucket rows: row 0 is the past-due list (only its slot 0 is used), row
/// `k + 1` is wheel level `k`. Bucket `row * SLOTS + slot`: a lower number
/// means earlier deadlines, so one find-first-set over the occupancy
/// words gives the earliest occupied bucket whichever kind it is.
const ROWS: usize = LEVELS + 1;
const BUCKETS: usize = ROWS << SLOT_BITS;
/// Occupancy words: bit `b % 64` of word `b / 64` is bucket `b`.
const WORDS: usize = BUCKETS.div_ceil(64);
/// Where a deadline at or before `now` parks until the next `advance`.
const PAST_DUE: u16 = 0;
/// First bucket of wheel level 1: below it a bucket holds one deadline.
const LEVEL_1: u16 = 2 * SLOTS;
/// End of a bucket list.
const NIL: u32 = u32::MAX;

// What the geometry must satisfy, checked when it is compiled.
const _: () = assert!(BUCKETS <= 1 << 16, "every bucket number fits u16");
const _: () = assert!(WORDS <= 64, "the summary word covers every word");
const _: () = assert!(LEVELS * SLOT_BITS as usize >= 64, "the levels cover a u64");

/// An entry's place in its bucket's doubly-linked list. `link` writes all
/// of it before anything reads it, so the default is never seen.
#[derive(Debug, Clone, Copy, Default)]
struct Links {
    prev: u32,
    next: u32,
    bucket: u16,
}

/// The bucket `deadline` belongs to while the wheel stands at
/// `now < deadline`: the level is the one holding the highest bit in which
/// the two differ, the slot is the deadline's digit on that level. The
/// deadline's digit there exceeds `now`'s, so no bucket ever wraps, and
/// every entry of level `k` precedes every entry of level `k + 1`.
fn bucket_for(now: u64, deadline: u64) -> u16 {
    let level = (63 - ((now ^ deadline) | SLOT_MASK).leading_zeros()) / SLOT_BITS;
    let slot = (deadline >> (level * SLOT_BITS)) & SLOT_MASK;
    let bucket = (u64::from(level) + 1) << SLOT_BITS | slot;
    // Lossless: below `BUCKETS`, which fits `u16`.
    bucket as u16
}

/// First and last tick of wheel bucket `bucket` while the wheel stands at
/// `now`.
fn span(now: u64, bucket: u16) -> (u64, u64) {
    let shift = u32::from(bucket / SLOTS - 1) * SLOT_BITS;
    // The top level's digit ends at bit 63: nothing above it to keep.
    let above = u64::MAX.checked_shl(shift + SLOT_BITS).unwrap_or(0);
    let start = (now & above) | (u64::from(bucket % SLOTS) << shift);
    (start, start | ((1 << shift) - 1))
}

/// Hierarchical timing wheel: eight levels of 256 buckets, one bit per
/// bucket in a flat array of `u64` occupancy words and a `u64` summary of
/// the non-empty words, each bucket an intrusive doubly-linked list
/// through the timer slab.
///
/// `schedule` and `cancel` are `O(1)` (a cancel unlinks its entry on the
/// spot; nothing stale stays behind), `next_deadline` is two
/// find-first-set steps plus a minimum over the one bucket they select,
/// and `advance` visits only the occupied buckets that begin at or before
/// the new tick — it fires their due entries and files the rest one or
/// more levels down. There is no horizon: any `u64` deadline has a bucket.
/// This is the structure the paper's facility is described as using.
///
/// # Examples
///
/// ```
/// use st_wheel::{TimerQueue, TimingWheel};
///
/// let mut w = TimingWheel::new();
/// w.schedule(10, 'a');
/// w.schedule(10 + 4096, 'b'); // a level up
/// assert_eq!(w.next_deadline(), Some(10));
/// let mut out = Vec::new();
/// w.advance(20, &mut out);
/// assert_eq!(out, vec![(10, 'a')]);
/// out.clear();
/// w.advance(5000, &mut out);
/// assert_eq!(out, vec![(4106, 'b')]);
/// ```
#[derive(Debug)]
pub struct TimingWheel<P> {
    slab: TimerSlab<P, Links>,
    /// Head of each bucket's list, `NIL` when empty.
    heads: Box<[u32; BUCKETS]>,
    /// Bit `b % 64` of word `b / 64` set exactly when bucket `b` is used.
    occupied: [u64; WORDS],
    /// Bit `w` set exactly when `occupied[w]` is non-zero.
    summary: u64,
    now: u64,
    /// Reusable sweep buffer; keeps `advance` allocation-free once warm.
    sweep: Vec<(u64, u64, P)>,
    /// Entries filed into a bucket so far, cascades included.
    #[cfg(test)]
    filed: u64,
}

impl<P> TimingWheel<P> {
    /// Creates an empty wheel at tick 0.
    pub fn new() -> Self {
        TimingWheel {
            slab: TimerSlab::new(),
            heads: Box::new([NIL; BUCKETS]),
            occupied: [0; WORDS],
            summary: 0,
            now: 0,
            sweep: Vec::new(),
            #[cfg(test)]
            filed: 0,
        }
    }

    /// The earliest occupied bucket, past-due list included.
    fn first_bucket(&self) -> Option<u16> {
        if self.summary == 0 {
            return None;
        }
        let word = self.summary.trailing_zeros();
        let bit = self.occupied[word as usize].trailing_zeros();
        // Lossless: below `BUCKETS`, which fits `u16`.
        Some((word * 64 + bit) as u16)
    }

    /// Pushes slab entry `index` onto the bucket `deadline` selects.
    fn link(&mut self, index: u32, deadline: u64) {
        let bucket = if deadline <= self.now {
            PAST_DUE
        } else {
            bucket_for(self.now, deadline)
        };
        let head = std::mem::replace(&mut self.heads[usize::from(bucket)], index);
        *self.slab.links_mut(index) = Links {
            prev: NIL,
            next: head,
            bucket,
        };
        if head != NIL {
            self.slab.links_mut(head).prev = index;
        }
        let b = usize::from(bucket);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.summary |= 1 << (b / 64);
        #[cfg(test)]
        {
            self.filed += 1;
        }
    }

    /// Records that `bucket`'s list has emptied.
    fn mark_empty(&mut self, bucket: u16) {
        let b = usize::from(bucket);
        let word = &mut self.occupied[b / 64];
        *word &= !(1 << (b % 64));
        if *word == 0 {
            self.summary &= !(1 << (b / 64));
        }
    }

    /// Empties `bucket`: entries due at `now` go to `due` in
    /// `(deadline, seq)` order, the rest are filed again from where the
    /// wheel stands.
    fn drain(&mut self, bucket: u16, now: u64, due: &mut Vec<(u64, u64, P)>) {
        let from = due.len();
        let mut cursor = std::mem::replace(&mut self.heads[usize::from(bucket)], NIL);
        self.mark_empty(bucket);
        while cursor != NIL {
            let index = cursor;
            cursor = self.slab.links(index).next;
            let Some(deadline) = self.slab.deadline_at(index) else {
                unreachable!("bucket list links a free slab slot");
            };
            if deadline > now {
                self.link(index, deadline);
            } else if let Some(fired) = self.slab.take(index) {
                due.push(fired);
            }
        }
        // Most drains fire one entry; the call itself is the cost then.
        // Keys are unique, so the unstable sort is the stable one without
        // its scratch allocation.
        if due.len() - from > 1 {
            due[from..].sort_unstable_by_key(|&(deadline, seq, _)| (deadline, seq));
        }
    }
}

impl<P> Default for TimingWheel<P> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<P> TimerQueue<P> for TimingWheel<P> {
    fn schedule(&mut self, deadline: u64, payload: P) -> TimerHandle {
        let handle = self.slab.insert(deadline, payload);
        self.link(handle.index, deadline);
        handle
    }

    fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        let (_, _, payload) = self.slab.remove(handle)?;
        // The freed slot keeps its links until it is issued again.
        let Links { prev, next, bucket } = *self.slab.links(handle.index);
        if next != NIL {
            self.slab.links_mut(next).prev = prev;
        }
        if prev != NIL {
            self.slab.links_mut(prev).next = next;
        } else {
            self.heads[usize::from(bucket)] = next;
            if next == NIL {
                self.mark_empty(bucket);
            }
        }
        Some(payload)
    }

    fn advance(&mut self, now: u64, out: &mut Vec<(u64, P)>) {
        assert!(
            now >= self.now,
            "time went backwards: {} -> {now}",
            self.now
        );
        let mut due = std::mem::take(&mut self.sweep);
        // Buckets come up in time order and their spans do not overlap, so
        // each one's due entries, sorted among themselves, follow the last
        // one's: the batch ends up sorted without a pass over all of it.
        while let Some(bucket) = self.first_bucket() {
            if bucket != PAST_DUE {
                let (start, last) = span(self.now, bucket);
                if start > now {
                    break;
                }
                // Every earlier bucket is empty, so the wheel may stand
                // anywhere up to this one: at `now` when that falls inside
                // it, which files the survivors at their final level in
                // one pass, else at its last tick, where all of it is due.
                self.now = now.min(last);
            }
            self.drain(bucket, now, &mut due);
        }
        self.now = now;
        out.extend(due.drain(..).map(|(deadline, _, p)| (deadline, p)));
        self.sweep = due;
    }

    fn next_deadline(&self) -> Option<u64> {
        let bucket = self.first_bucket()?;
        let mut cursor = self.heads[usize::from(bucket)];
        let mut min = self.slab.deadline_at(cursor)?;
        // A level-0 bucket holds one deadline; any other, and the
        // past-due list, is searched.
        if bucket == PAST_DUE || bucket >= LEVEL_1 {
            while cursor != NIL {
                min = min.min(self.slab.deadline_at(cursor)?);
                cursor = self.slab.links(cursor).next;
            }
        }
        Some(min)
    }

    fn len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapQueue;
    use st_sim::SimRng;

    impl<P> TimingWheel<P> {
        /// The invariants every operation must leave behind.
        fn assert_structure(&self) {
            let mut linked = 0;
            for (b, &head) in self.heads.iter().enumerate() {
                let bucket = u16::try_from(b).unwrap();
                let bit = self.occupied[b / 64] >> (b % 64) & 1 == 1;
                assert_eq!(
                    bit,
                    head != NIL,
                    "bucket {b}: bit without list or list without bit"
                );
                let (mut prev, mut cursor) = (NIL, head);
                while cursor != NIL {
                    let links = *self.slab.links(cursor);
                    assert_eq!(links.prev, prev, "bucket {b}: prev does not mirror next");
                    assert_eq!(links.bucket, bucket, "entry records another bucket");
                    let deadline = self.slab.deadline_at(cursor).expect("linked entry is live");
                    let home = if deadline <= self.now {
                        PAST_DUE
                    } else {
                        bucket_for(self.now, deadline)
                    };
                    assert_eq!(bucket, home, "deadline {deadline} at now {}", self.now);
                    linked += 1;
                    (prev, cursor) = (cursor, links.next);
                }
            }
            for (w, &word) in self.occupied.iter().enumerate() {
                assert_eq!(
                    self.summary >> w & 1 == 1,
                    word != 0,
                    "word {w} and its summary bit"
                );
            }
            assert_eq!(self.summary.checked_shr(WORDS as u32).unwrap_or(0), 0);
            assert_eq!(linked, self.len(), "linked entries and len()");
        }
    }

    /// A wheel and the heap oracle driven in lockstep, structure and
    /// observable state compared after every operation.
    struct Pair {
        wheel: TimingWheel<u64>,
        heap: HeapQueue<u64>,
        handles: Vec<(TimerHandle, TimerHandle)>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                wheel: TimingWheel::new(),
                heap: HeapQueue::new(),
                handles: Vec::new(),
            }
        }

        fn check(&self) {
            self.wheel.assert_structure();
            assert_eq!(self.wheel.len(), self.heap.len());
            assert_eq!(self.wheel.next_deadline(), self.heap.next_deadline());
        }

        fn schedule(&mut self, deadline: u64) -> usize {
            let payload = self.handles.len() as u64;
            self.handles.push((
                self.wheel.schedule(deadline, payload),
                self.heap.schedule(deadline, payload),
            ));
            self.check();
            self.handles.len() - 1
        }

        fn cancel(&mut self, nth: usize) {
            let (w, h) = self.handles[nth];
            assert_eq!(self.wheel.cancel(w), self.heap.cancel(h));
            self.check();
        }

        fn advance(&mut self, now: u64) -> Vec<(u64, u64)> {
            let (mut fired, mut expect) = (Vec::new(), Vec::new());
            self.wheel.advance(now, &mut fired);
            self.heap.advance(now, &mut expect);
            assert_eq!(fired, expect, "advance to {now}");
            self.check();
            fired
        }
    }

    #[test]
    fn structure_holds_under_a_seeded_op_stream() {
        let mut rng = SimRng::seed(0x13);
        // Deltas below level `k`'s first tick exercise levels 0..k; the
        // last regime starts near the end of time.
        let level = |k: u32| 1u64 << (SLOT_BITS * k);
        for (span, start) in [
            (level(1), 0),
            (level(2), 0),
            (level(3), 1000),
            (level(5), 0),
            (1 << 20, u64::MAX - (1 << 21)),
        ] {
            let mut pair = Pair::new();
            let mut now = start;
            pair.advance(now);
            for _ in 0..400 {
                match rng.range_u64(0, 8) {
                    0..=3 => {
                        pair.schedule(now.saturating_add(rng.range_u64(0, span)));
                    }
                    4 => {
                        pair.schedule(now.saturating_sub(rng.range_u64(0, span)));
                    }
                    5 if !pair.handles.is_empty() => {
                        pair.cancel(rng.index(pair.handles.len()));
                    }
                    _ => {
                        now = now.saturating_add(rng.range_u64(0, span / 2));
                        pair.advance(now);
                    }
                }
            }
            pair.advance(u64::MAX);
            assert!(pair.wheel.is_empty());
        }
    }

    #[test]
    fn level_boundaries_match_heap() {
        let top = LEVELS as u32 - 1;
        // Every level's first tick, then the top level's last bucket (its
        // digit all ones), so the top level is crossed end to end.
        let edges = (1..=top).map(|k| 1u64 << (SLOT_BITS * k));
        for edge in edges.chain([u64::MAX << (SLOT_BITS * top)]) {
            let deadlines = [edge - 1, edge, edge + 1, u64::MAX];
            let mut stops = vec![edge - 2, edge - 1, edge, edge + 1, edge + 2];
            stops.extend([u64::MAX - 1, u64::MAX]);
            // Step through every stop in turn...
            let mut pair = Pair::new();
            for d in deadlines {
                pair.schedule(d);
            }
            let fired: usize = stops.iter().map(|&t| pair.advance(t).len()).sum();
            assert_eq!(fired, deadlines.len(), "edge {edge:#x}");
            // ...and jump to each one straight from tick 0.
            for &stop in &stops {
                let mut pair = Pair::new();
                for d in deadlines {
                    pair.schedule(d);
                }
                pair.advance(stop);
            }
        }
    }

    #[test]
    fn an_entry_is_filed_once_per_level_at_most() {
        for delta in [1, 255, 256, 65_535, 65_536, 1 << 24, 1 << 40, u64::MAX] {
            // Once on its level, once on each level below it.
            let most = 1 + u64::from(delta.ilog2() / SLOT_BITS);
            for step in [1, 20, 4095] {
                let mut w = TimingWheel::new();
                w.schedule(delta, ());
                // The last 2^16 steps are walked; anything before them is
                // one jump.
                let mut now = delta.saturating_sub(step << 16);
                let mut out = Vec::new();
                while out.is_empty() {
                    w.advance(now, &mut out);
                    now = now.saturating_add(step).min(delta);
                }
                assert_eq!(out, vec![(delta, ())]);
                assert!(w.filed <= most, "delta {delta} step {step}: {}", w.filed);
            }
        }
    }

    #[test]
    fn rearm_pattern_files_a_timer_under_two_and_a_half_times_a_fire() {
        // 16 384 pacer timers of period 32 768 at seeded phases, polled
        // every 20 ticks, each fire re-armed one period after its
        // deadline. Counted over two periods after one to warm up.
        const PERIOD: u64 = 32_768;
        let mut rng = SimRng::seed(0x35);
        let mut w = TimingWheel::new();
        for _ in 0..16_384 {
            w.schedule(1 + rng.range_u64(0, PERIOD), ());
        }
        let (mut now, mut out, mut fires) = (0, Vec::new(), 0u64);
        for end in [PERIOD, 3 * PERIOD] {
            (w.filed, fires) = (0, 0);
            while now < end {
                now += 20;
                w.advance(now, &mut out);
                for (deadline, ()) in out.drain(..) {
                    w.schedule(deadline + PERIOD, ());
                    fires += 1;
                }
            }
        }
        assert!(fires.abs_diff(2 * 16_384) < 20, "{fires} fires");
        let filed = w.filed;
        assert!(2 * filed <= 5 * fires, "{filed} filings, {fires} fires");
    }

    #[test]
    fn cancel_unlinks_head_middle_tail_and_past_due() {
        // Ticks 300..303 share level 1's second bucket; the list runs from
        // the last scheduled to the first.
        for victim in 0..3 {
            let mut pair = Pair::new();
            let ids = [300, 301, 302].map(|d| pair.schedule(d));
            let bucket = |i: usize| pair.wheel.slab.links(pair.handles[i].0.index).bucket;
            assert!(ids.iter().all(|&i| bucket(i) == LEVEL_1 + 1));
            pair.cancel(ids[victim]);
            pair.cancel(ids[victim]); // a second cancel finds nothing
            assert_eq!(pair.advance(600).len(), 2);
        }
        let mut pair = Pair::new();
        pair.advance(50);
        let parked = [10, 20, 30].map(|d| pair.schedule(d));
        pair.cancel(parked[0]);
        assert_eq!(pair.wheel.next_deadline(), Some(20));
        assert_eq!(pair.advance(50), vec![(20, 1), (30, 2)]);
        // The last entry out clears the bucket's bit.
        let only = pair.schedule(500);
        pair.cancel(only);
        assert_eq!(pair.wheel.summary, 0);
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut w = TimingWheel::new();
        for i in 0..4 {
            w.schedule(3, i);
        }
        let mut out = Vec::new();
        w.advance(3, &mut out);
        assert_eq!(out, (0..4).map(|i| (3, i)).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_regression() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        let mut out = Vec::new();
        w.advance(5, &mut out);
        w.advance(4, &mut out);
    }
}
