//! The traced run's span recorder and the `Timed<Q>` queue wrapper.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. Every span
//! updates an in-memory per-name count / total / child-time / log2
//! histogram; one operation in [`SAMPLE_EVERY`] also keeps its full span
//! tree in a preallocated ring that is written out as JSONL when the run
//! ends. Spans are recorded from the benchmark's own files only, around
//! the calls into each layer: workload -> experiment / host run ->
//! `SoftTimerCore` call -> `Timed<Q>` call.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use st_wheel::{TimerHandle, TimerQueue};

/// One operation in this many (a power of two) keeps its span tree in
/// the ring.
pub const SAMPLE_EVERY: u64 = 1024;

/// Spans the ring holds before it overwrites its oldest entries.
pub const RING_CAPACITY: usize = 1 << 16;

/// Wall clock in nanoseconds since the benchmark started.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The boundaries the benchmark can see, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Workload,
    Experiment,
    HostRun,
    CorePoll,
    CoreSchedule,
    CoreCancel,
    QueueSchedule,
    QueueCancel,
    QueueAdvance,
    QueueNextDeadline,
}

impl SpanName {
    pub const ALL: [SpanName; 10] = [
        SpanName::Workload,
        SpanName::Experiment,
        SpanName::HostRun,
        SpanName::CorePoll,
        SpanName::CoreSchedule,
        SpanName::CoreCancel,
        SpanName::QueueSchedule,
        SpanName::QueueCancel,
        SpanName::QueueAdvance,
        SpanName::QueueNextDeadline,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Workload => "workload",
            SpanName::Experiment => "experiment",
            SpanName::HostRun => "host.run",
            SpanName::CorePoll => "core.poll",
            SpanName::CoreSchedule => "core.schedule",
            SpanName::CoreCancel => "core.cancel",
            SpanName::QueueSchedule => "queue.schedule",
            SpanName::QueueCancel => "queue.cancel",
            SpanName::QueueAdvance => "queue.advance",
            SpanName::QueueNextDeadline => "queue.next_deadline",
        }
    }

    /// Coarse spans (a handful per run) are kept whatever the sampling
    /// decision of the operation they belong to.
    fn always_kept(self) -> bool {
        matches!(
            self,
            SpanName::Workload | SpanName::Experiment | SpanName::HostRun
        )
    }

    pub fn is_core(self) -> bool {
        matches!(
            self,
            SpanName::CorePoll | SpanName::CoreSchedule | SpanName::CoreCancel
        )
    }
}

/// Running totals of one span name.
#[derive(Debug, Clone)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    pub child_ns: u64,
    /// Child spans closed inside spans of this name.
    pub children: u64,
    /// `log2[k]` counts durations `d` with `floor(log2(d + 1)) == k`.
    pub log2: [u64; 64],
}

impl SpanStat {
    fn new() -> Self {
        SpanStat {
            count: 0,
            total_ns: 0,
            child_ns: 0,
            children: 0,
            log2: [0; 64],
        }
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub op_id: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    /// The span's id when it is kept.
    id: Option<u64>,
}

/// Span recorder of one thread.
pub struct Tracer {
    clock: Clock,
    stats: Vec<SpanStat>,
    stack: Vec<Open>,
    op_id: u64,
    sampled: bool,
    next_id: u64,
    ring: Vec<SpanRec>,
    written: usize,
    /// `queue.advance` calls that appended nothing.
    pub empty_advances: u64,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            stats: SpanName::ALL.iter().map(|_| SpanStat::new()).collect(),
            stack: Vec::with_capacity(8),
            op_id: 0,
            sampled: false,
            next_id: 0,
            ring: Vec::with_capacity(RING_CAPACITY),
            written: 0,
            empty_advances: 0,
        }
    }

    /// Starts the next operation; spans opened until the next call share
    /// its id.
    #[inline]
    pub fn begin_op(&mut self) {
        self.op_id += 1;
        self.sampled = self.op_id & (SAMPLE_EVERY - 1) == 0;
    }

    #[inline]
    pub fn begin(&mut self, name: SpanName) {
        let id = (self.sampled || name.always_kept()).then(|| {
            self.next_id += 1;
            self.next_id
        });
        self.stack.push(Open {
            name,
            start_ns: self.clock.now_ns(),
            child_ns: 0,
            children: 0,
            id,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        let end_ns = self.clock.now_ns();
        let open = self.stack.pop().expect("span end without a begin");
        let dur = end_ns - open.start_ns;
        let stat = &mut self.stats[open.name as usize];
        stat.count += 1;
        stat.total_ns += dur;
        stat.child_ns += open.child_ns;
        stat.children += open.children;
        stat.log2[(63 - (dur + 1).leading_zeros()) as usize] += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.id
        });
        if let Some(id) = open.id {
            let rec = SpanRec {
                id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: parent.flatten(),
                op_id: self.op_id,
            };
            if self.ring.len() < RING_CAPACITY {
                self.ring.push(rec);
            } else {
                self.ring[self.written % RING_CAPACITY] = rec;
            }
            self.written += 1;
        }
    }

    pub fn stat(&self, name: SpanName) -> &SpanStat {
        &self.stats[name as usize]
    }

    /// Kept spans, oldest first.
    pub fn kept(&self) -> Vec<SpanRec> {
        if self.written <= RING_CAPACITY {
            return self.ring.clone();
        }
        let split = self.written % RING_CAPACITY;
        let mut out = self.ring[split..].to_vec();
        out.extend_from_slice(&self.ring[..split]);
        out
    }

    /// How many spans [`Tracer::kept`] returns.
    pub fn kept_len(&self) -> usize {
        self.written.min(RING_CAPACITY)
    }

    /// Spans the ring overwrote.
    pub fn overwritten(&self) -> usize {
        self.written.saturating_sub(RING_CAPACITY)
    }

    /// One JSON object per kept span, then one per span name with its
    /// totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.kept() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}\n",
                r.id,
                r.name.as_str(),
                r.start_ns,
                r.end_ns,
                parent,
                r.op_id
            ));
        }
        for name in SpanName::ALL {
            let s = self.stat(name);
            if s.count == 0 {
                continue;
            }
            let hist: Vec<String> = s
                .log2
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, c)| format!("[{k},{c}]"))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"stat\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"child_ns\":{},\"children\":{},\"log2\":[{}]}}\n",
                name.as_str(),
                s.count,
                s.total_ns,
                s.child_ns,
                s.children,
                hist.join(",")
            ));
        }
        out
    }
}

/// What the workload drivers and `Timed<Q>` record through: the real
/// recorder in the traced run, nothing at all (and no clock read) in the
/// run that produces the end-to-end metrics.
pub trait Probe {
    fn begin_op(&self);
    fn begin(&self, name: SpanName);
    fn end(&self);
    fn empty_advance(&self);
}

/// Tracing off.
#[derive(Debug, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin_op(&self) {}
    #[inline(always)]
    fn begin(&self, _name: SpanName) {}
    #[inline(always)]
    fn end(&self) {}
    #[inline(always)]
    fn empty_advance(&self) {}
}

/// Tracing on; the driver and the queue wrapper inside the core share
/// one recorder.
pub type Shared = Rc<RefCell<Tracer>>;

impl Probe for Shared {
    #[inline]
    fn begin_op(&self) {
        self.borrow_mut().begin_op();
    }
    #[inline]
    fn begin(&self, name: SpanName) {
        self.borrow_mut().begin(name);
    }
    #[inline]
    fn end(&self) {
        self.borrow_mut().end();
    }
    #[inline]
    fn empty_advance(&self) {
        self.borrow_mut().empty_advances += 1;
    }
}

/// A [`TimerQueue`] that records one span around every call into the
/// queue it wraps — the innermost boundary the benchmark can see, since
/// `SoftTimerCore` owns its queue.
pub struct Timed<Q, T> {
    inner: Q,
    probe: T,
}

impl<Q, T> Timed<Q, T> {
    pub fn new(inner: Q, probe: T) -> Self {
        Timed { inner, probe }
    }
}

impl<P, Q: TimerQueue<P>, T: Probe> TimerQueue<P> for Timed<Q, T> {
    fn schedule(&mut self, deadline: u64, payload: P) -> TimerHandle {
        self.probe.begin(SpanName::QueueSchedule);
        let h = self.inner.schedule(deadline, payload);
        self.probe.end();
        h
    }

    fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        self.probe.begin(SpanName::QueueCancel);
        let p = self.inner.cancel(handle);
        self.probe.end();
        p
    }

    fn advance(&mut self, now: u64, out: &mut Vec<(u64, P)>) {
        let before = out.len();
        self.probe.begin(SpanName::QueueAdvance);
        self.inner.advance(now, out);
        self.probe.end();
        if out.len() == before {
            self.probe.empty_advance();
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        self.probe.begin(SpanName::QueueNextDeadline);
        let d = self.inner.next_deadline();
        self.probe.end();
        d
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Cost of one empty span as its enclosing code sees it (`pair_ns`) and
/// as the span itself measures it (`inner_ns`), both medians over
/// batches. A span's true duration is its measured one minus `inner_ns`;
/// a parent additionally loses `pair_ns - inner_ns` per child.
pub fn calibrate_pair(clock: Clock) -> (f64, f64) {
    let mut pairs = Vec::new();
    let mut inners = Vec::new();
    for _ in 0..32 {
        let mut tr = Tracer::new(clock);
        let t0 = clock.now_ns();
        for _ in 0..2_000 {
            tr.begin_op();
            tr.begin(SpanName::QueueSchedule);
            tr.end();
        }
        let wall = clock.now_ns() - t0;
        pairs.push(wall as f64 / 2_000.0);
        let s = tr.stat(SpanName::QueueSchedule);
        inners.push(s.total_ns as f64 / s.count as f64);
    }
    (crate::median(&mut pairs), crate::median(&mut inners))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_child_time_and_parents() {
        let mut tr = Tracer::new(Clock::start());
        tr.begin(SpanName::Workload);
        tr.begin(SpanName::CorePoll);
        tr.begin(SpanName::QueueAdvance);
        tr.end();
        tr.begin(SpanName::QueueNextDeadline);
        tr.end();
        tr.end();
        tr.end();
        let poll = tr.stat(SpanName::CorePoll);
        assert_eq!(poll.count, 1);
        assert_eq!(poll.children, 2);
        let kids = tr.stat(SpanName::QueueAdvance).total_ns
            + tr.stat(SpanName::QueueNextDeadline).total_ns;
        assert_eq!(poll.child_ns, kids);
        assert!(poll.total_ns >= poll.child_ns);
        // Only the always-kept workload span was recorded (op 0 is not a
        // sampled operation).
        let kept = tr.kept();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, SpanName::Workload);
        assert_eq!(kept[0].parent, None);
    }

    #[test]
    fn one_op_in_sample_every_keeps_its_tree() {
        let mut tr = Tracer::new(Clock::start());
        for _ in 0..(3 * SAMPLE_EVERY) {
            tr.begin_op();
            tr.begin(SpanName::CorePoll);
            tr.begin(SpanName::QueueAdvance);
            tr.end();
            tr.end();
        }
        let kept = tr.kept();
        assert_eq!(kept.len(), 6, "three sampled ops of two spans each");
        for pair in kept.chunks(2) {
            // Children close first.
            assert_eq!(pair[0].name, SpanName::QueueAdvance);
            assert_eq!(pair[1].name, SpanName::CorePoll);
            assert_eq!(pair[0].parent, Some(pair[1].id));
            assert_eq!(pair[0].op_id, pair[1].op_id);
            assert_eq!(pair[0].op_id % SAMPLE_EVERY, 0);
            assert!(pair[1].start_ns <= pair[0].start_ns && pair[0].end_ns <= pair[1].end_ns);
        }
        assert_eq!(tr.stat(SpanName::CorePoll).count, 3 * SAMPLE_EVERY);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut tr = Tracer::new(Clock::start());
        let n = RING_CAPACITY + 10;
        for _ in 0..n {
            tr.begin(SpanName::Experiment);
            tr.end();
        }
        assert_eq!(tr.overwritten(), 10);
        let kept = tr.kept();
        assert_eq!(kept.len(), RING_CAPACITY);
        assert_eq!(kept[0].id, 11);
        assert!(kept.windows(2).all(|w| w[0].id + 1 == w[1].id));
    }

    #[test]
    fn jsonl_lines_validate() {
        let mut tr = Tracer::new(Clock::start());
        tr.begin(SpanName::Workload);
        tr.begin(SpanName::Experiment);
        tr.end();
        tr.end();
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            st_trace::json::validate(line).expect("span line must be valid JSON");
        }
    }

    #[test]
    fn timed_queue_counts_empty_advances() {
        let shared: Shared = Rc::new(RefCell::new(Tracer::new(Clock::start())));
        let mut q = Timed::new(st_wheel::HeapQueue::<u64>::new(), shared.clone());
        let h = q.schedule(10, 1);
        q.schedule(20, 2);
        let mut out = Vec::new();
        q.advance(5, &mut out);
        q.advance(15, &mut out);
        assert_eq!(q.cancel(h), None);
        assert_eq!(q.next_deadline(), Some(20));
        let tr = shared.borrow();
        assert_eq!(tr.empty_advances, 1);
        assert_eq!(tr.stat(SpanName::QueueAdvance).count, 2);
        assert_eq!(tr.stat(SpanName::QueueSchedule).count, 2);
        assert_eq!(tr.stat(SpanName::QueueNextDeadline).count, 1);
    }
}
