//! The discrete-event loop.
//!
//! A classic calendar: events carry a firing time and are dispatched in
//! time order, FIFO among equal times. The [`World`] owns all simulation
//! state; during dispatch it receives a [`Ctx`] through which it can read
//! the clock and schedule or cancel further events.
//!
//! The calendar is st-wheel's [`TimingWheel`] at 1 ns ticks
//! ([`SimTime::as_nanos`]), the queue the soft-timer facility itself runs
//! on: schedule and cancel are `O(1)` (a cancel unlinks the event on the
//! spot, nothing stale stays behind) and the earliest time is two
//! find-first-set steps. The engine takes one whole instant out of the
//! wheel at a time — *the instant in hand* — and dispatches it from the
//! front, in schedule order. Anything a handler schedules meanwhile, at
//! the same instant or later, has a later sequence number, so it goes into
//! the wheel and comes out after the instant in hand: the order is exactly
//! `(time, schedule order)`.

use std::collections::VecDeque;

use st_wheel::{TimerHandle, TimerQueue, TimingWheel};

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancelation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    /// The event's wheel entry; stale once the event leaves the wheel.
    handle: TimerHandle,
    /// Schedule order: finds the event once it is in hand.
    seq: u64,
}

/// Simulation state that receives events.
pub trait World: Sized {
    /// The event type dispatched to this world.
    type Event;

    /// Handles one event. `ctx` gives access to the clock and scheduler.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Scheduling interface handed to [`World::handle`] during dispatch.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut Queue<E>,
}

struct Queue<E> {
    /// Pending events as `(seq, event)`, keyed by nanosecond time.
    wheel: TimingWheel<(u64, E)>,
    /// The instant in hand: the events of one time already out of the
    /// wheel, as `advance` hands them out, in rising `seq`.
    hand: VecDeque<(u64, (u64, E))>,
    /// `advance`'s output buffer, kept for its capacity.
    taken: Vec<(u64, (u64, E))>,
    next_seq: u64,
}

impl<E> Queue<E> {
    fn new() -> Self {
        Queue {
            wheel: TimingWheel::new(),
            hand: VecDeque::new(),
            taken: Vec::new(),
            next_seq: 0,
        }
    }

    fn schedule_at(&mut self, time: SimTime, ev: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let handle = self.wheel.schedule(time.as_nanos(), (seq, ev));
        EventId { handle, seq }
    }

    fn cancel(&mut self, id: EventId) -> bool {
        if self.wheel.cancel(id.handle).is_some() {
            return true;
        }
        let hand = &mut self.hand;
        let found = hand.binary_search_by_key(&id.seq, |&(_, (seq, _))| seq);
        found.is_ok_and(|i| hand.remove(i).is_some())
    }

    /// The next event, taking the next instant out of the wheel when the
    /// one in hand is spent.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.hand.is_empty() {
            let next = self.wheel.next_deadline()?;
            self.wheel.advance(next, &mut self.taken);
            self.hand.extend(self.taken.drain(..));
        }
        let (time, (_, ev)) = self.hand.pop_front()?;
        Some((SimTime::from_nanos(time), ev))
    }

    /// Time of the next event. Read-only: taking an instant here would
    /// move the wheel past times an outside `schedule_at` may still use.
    fn peek_time(&self) -> Option<SimTime> {
        let time = match self.hand.front() {
            Some(&(time, _)) => Some(time),
            None => self.wheel.next_deadline(),
        };
        time.map(SimTime::from_nanos)
    }
}

impl<'a, E> Ctx<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` to fire at absolute time `time`.
    ///
    /// Scheduling in the past is clamped to "now" (the event fires after
    /// the current dispatch completes, preserving causality).
    pub fn schedule_at(&mut self, time: SimTime, ev: E) -> EventId {
        self.queue.schedule_at(time.max(self.now), ev)
    }

    /// Schedules `ev` to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: E) -> EventId {
        let t = self.now.checked_add(delay).expect("virtual time overflow");
        self.queue.schedule_at(t, ev)
    }

    /// Cancels a previously scheduled event. Returns `false` when the
    /// event already fired or was already canceled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// The simulation engine: owns the world and the event queue.
///
/// # Examples
///
/// ```
/// use st_sim::{Ctx, Engine, SimDuration, SimTime, World};
///
/// struct Counter(u32);
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
///         self.0 += 1;
///         if self.0 < 3 {
///             ctx.schedule_in(SimDuration::from_micros(10), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Counter(0));
/// engine.schedule_at(SimTime::ZERO, ());
/// engine.run();
/// assert_eq!(engine.world().0, 3);
/// assert_eq!(engine.now().as_micros(), 20);
/// ```
pub struct Engine<W: World> {
    world: W,
    queue: Queue<W::Event>,
    now: SimTime,
    dispatched: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: Queue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (between dispatches).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at absolute time `time` (clamped to now).
    pub fn schedule_at(&mut self, time: SimTime, ev: W::Event) -> EventId {
        self.queue.schedule_at(time.max(self.now), ev)
    }

    /// Schedules an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: W::Event) -> EventId {
        let t = self.now.checked_add(delay).expect("virtual time overflow");
        self.queue.schedule_at(t, ev)
    }

    /// Cancels a scheduled event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Dispatches the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.dispatched += 1;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle(ev, &mut ctx);
        true
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or virtual time would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are dispatched; the clock is
    /// left at the later of its current value and `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs while `keep_going(world)` holds, asked before each event, or
    /// until the queue drains. Returns `true` when `keep_going` returned
    /// `false` (the run stopped on it), `false` when the queue drained.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&W) -> bool) -> bool {
        loop {
            if !keep_going(&self.world) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((ctx.now().as_micros(), ev));
        }
    }

    fn recorder() -> Recorder {
        Recorder { log: Vec::new() }
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut e = Engine::new(recorder());
        e.schedule_at(SimTime::from_micros(10), 1);
        e.schedule_at(SimTime::from_micros(50), 2);
        e.run_until(SimTime::from_micros(20));
        assert_eq!(e.world().log, vec![(10, 1)]);
        assert_eq!(e.now(), SimTime::from_micros(20));
        e.run_until(SimTime::from_micros(50));
        assert_eq!(e.world().log.len(), 2);
    }

    #[test]
    fn run_until_dispatches_events_at_deadline() {
        let mut e = Engine::new(recorder());
        e.schedule_at(SimTime::from_micros(10), 1);
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world().log, vec![(10, 1)]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut e = Engine::new(recorder());
        e.schedule_at(SimTime::from_micros(10), 100);
        e.run_until(SimTime::from_micros(10));
        // Scheduling "at 3" when now is 10 must not rewind time.
        e.schedule_at(SimTime::from_micros(3), 9);
        e.run();
        let (t, _) = *e
            .world()
            .log
            .iter()
            .find(|&&(_, v)| v == 9)
            .expect("event 9 fired");
        assert!(t >= 10, "fired at {t}, before now");
    }

    #[test]
    fn run_while_predicate() {
        let mut e = Engine::new(recorder());
        for i in 0..100 {
            e.schedule_at(SimTime::from_micros(i), i as u32);
        }
        let satisfied = e.run_while(|w| w.log.len() < 5);
        assert!(satisfied);
        assert_eq!(e.world().log.len(), 5);
    }

    #[test]
    fn dispatched_counter() {
        let mut e = Engine::new(recorder());
        e.schedule_at(SimTime::from_micros(1), 1);
        e.schedule_at(SimTime::from_micros(2), 2);
        e.run();
        assert_eq!(e.dispatched(), 2);
    }

    /// What both sides of the differential test log, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Note {
        Fired(SimTime, usize),
        Canceled(usize, bool),
    }

    /// The scheduling surface seen by `behave` and the op stream, on
    /// either side. An event is named by its label: the number of events
    /// scheduled before it.
    trait Sched {
        fn rng(&mut self) -> &mut SimRng;
        fn clock(&self) -> SimTime;
        fn labels(&self) -> usize;
        fn put(&mut self, time: SimTime);
        fn cancel_label(&mut self, label: usize);
    }

    /// A handler: up to three acts drawn from the side's own RNG, among
    /// them ties at `now`, near-future events and cancels of its own
    /// label, of a recent one (often at this instant, already out of the
    /// wheel), of anyone (often fired) and of one label twice.
    fn behave(label: usize, s: &mut impl Sched) {
        for _ in 0..s.rng().range_u64(0, 4) {
            let (now, labels) = (s.clock(), s.labels());
            match s.rng().range_u64(0, 7) {
                0 => s.put(now),
                1 | 2 => {
                    let ahead = SimDuration::from_nanos(s.rng().range_u64(1, 4));
                    s.put(now + ahead);
                }
                3 => s.cancel_label(label),
                4 => {
                    let back = s.rng().index(labels.min(8));
                    s.cancel_label(labels - 1 - back);
                }
                5 => {
                    let victim = s.rng().index(labels);
                    s.cancel_label(victim);
                }
                _ => {
                    let victim = s.rng().index(labels);
                    s.cancel_label(victim);
                    s.cancel_label(victim);
                }
            }
        }
    }

    /// The reference: pending `(time, label)` in a `Vec`, the next event
    /// found by a scan for the minimum. Labels rise in schedule order, so
    /// the minimum is the minimum `(time, seq)`.
    struct Reference {
        rng: SimRng,
        now: SimTime,
        pending: Vec<(SimTime, usize)>,
        labels: usize,
        log: Vec<Note>,
    }

    impl Sched for Reference {
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn clock(&self) -> SimTime {
            self.now
        }
        fn labels(&self) -> usize {
            self.labels
        }
        fn put(&mut self, time: SimTime) {
            self.pending.push((time.max(self.now), self.labels));
            self.labels += 1;
        }
        fn cancel_label(&mut self, label: usize) {
            let found = self.pending.iter().position(|&(_, l)| l == label);
            if let Some(i) = found {
                self.pending.swap_remove(i);
            }
            self.log.push(Note::Canceled(label, found.is_some()));
        }
    }

    impl Reference {
        fn next_event_time(&self) -> Option<SimTime> {
            self.pending.iter().map(|&(t, _)| t).min()
        }

        fn step(&mut self) -> bool {
            let pending = &self.pending;
            let Some(i) = (0..pending.len()).min_by_key(|&i| pending[i]) else {
                return false;
            };
            let (time, label) = self.pending.swap_remove(i);
            self.now = time;
            self.log.push(Note::Fired(time, label));
            behave(label, self);
            true
        }

        fn run_until(&mut self, deadline: SimTime) {
            while self.next_event_time().is_some_and(|t| t <= deadline) {
                self.step();
            }
            self.now = self.now.max(deadline);
        }

        fn run_while(&mut self, mut keep_going: impl FnMut(&[Note]) -> bool) -> bool {
            loop {
                if !keep_going(&self.log) {
                    return true;
                }
                if !self.step() {
                    return false;
                }
            }
        }
    }

    /// The engine's side: ids by label, the same log, and a count of
    /// handler cancels that found their event in hand.
    struct Model {
        rng: SimRng,
        ids: Vec<EventId>,
        log: Vec<Note>,
        in_hand_cancels: usize,
    }

    impl World for Model {
        type Event = usize;
        fn handle(&mut self, label: usize, ctx: &mut Ctx<'_, usize>) {
            self.log.push(Note::Fired(ctx.now(), label));
            behave(label, &mut InHandler { ctx, model: self });
        }
    }

    struct InHandler<'a, 'b> {
        ctx: &'a mut Ctx<'b, usize>,
        model: &'a mut Model,
    }

    impl Sched for InHandler<'_, '_> {
        fn rng(&mut self) -> &mut SimRng {
            &mut self.model.rng
        }
        fn clock(&self) -> SimTime {
            self.ctx.now()
        }
        fn labels(&self) -> usize {
            self.model.ids.len()
        }
        fn put(&mut self, time: SimTime) {
            let label = self.model.ids.len();
            self.model.ids.push(self.ctx.schedule_at(time, label));
        }
        fn cancel_label(&mut self, label: usize) {
            let id = self.model.ids[label];
            let hand = &self.ctx.queue.hand;
            if hand.iter().any(|&(_, (seq, _))| seq == id.seq) {
                self.model.in_hand_cancels += 1;
            }
            let canceled = self.ctx.cancel(id);
            self.model.log.push(Note::Canceled(label, canceled));
        }
    }

    impl Sched for Engine<Model> {
        fn rng(&mut self) -> &mut SimRng {
            &mut self.world.rng
        }
        fn clock(&self) -> SimTime {
            self.now
        }
        fn labels(&self) -> usize {
            self.world.ids.len()
        }
        fn put(&mut self, time: SimTime) {
            let label = self.world.ids.len();
            let id = self.schedule_at(time, label);
            self.world.ids.push(id);
        }
        fn cancel_label(&mut self, label: usize) {
            let canceled = self.cancel(self.world.ids[label]);
            self.world.log.push(Note::Canceled(label, canceled));
        }
    }

    /// Runs one seeded op stream on both sides in lockstep, comparing
    /// the logs, the clocks and `next_event_time` after every op. Returns
    /// how often it clamped a past time, stopped `run_while` mid-instant
    /// and canceled an event in hand from a handler.
    fn differential(seed: u64, ops: usize) -> [usize; 3] {
        let mut rng = SimRng::seed(seed);
        let mut engine = Engine::new(Model {
            rng: SimRng::seed(seed ^ 1),
            ids: Vec::new(),
            log: Vec::new(),
            in_hand_cancels: 0,
        });
        let mut reference = Reference {
            rng: SimRng::seed(seed ^ 1),
            now: SimTime::ZERO,
            pending: Vec::new(),
            labels: 0,
            log: Vec::new(),
        };
        let (mut clamps, mut mid_instant) = (0, 0);
        for op in 0..ops {
            let now = engine.now();
            let ns = |n| SimDuration::from_nanos(n);
            // An outside schedule, or `None` after the other ops.
            let put = match rng.range_u64(0, 10) {
                0..=2 => Some(now + ns(rng.range_u64(0, 6))),
                3 => Some(now + ns(rng.range_u64(0, 1 << 20))),
                4 => {
                    let past = now.as_nanos().saturating_sub(rng.range_u64(1, 4));
                    clamps += usize::from(past < now.as_nanos());
                    Some(SimTime::from_nanos(past))
                }
                5 if engine.labels() > 0 => {
                    let label = rng.index(engine.labels());
                    engine.cancel_label(label);
                    reference.cancel_label(label);
                    None
                }
                6 => {
                    let deadline = now + ns(rng.range_u64(0, 5));
                    engine.run_until(deadline);
                    reference.run_until(deadline);
                    None
                }
                7 => {
                    let stop = engine.world.log.len() + rng.index(6);
                    let stopped = engine.run_while(|m| m.log.len() < stop);
                    assert_eq!(stopped, reference.run_while(|log| log.len() < stop));
                    mid_instant += usize::from(!engine.queue.hand.is_empty());
                    Some(engine.now())
                }
                _ => {
                    assert_eq!(engine.step(), reference.step(), "seed {seed} op {op}");
                    None
                }
            };
            if let Some(t) = put {
                engine.put(t);
                reference.put(t);
            }
            let at = format!("seed {seed} op {op}");
            assert_eq!(engine.world.log, reference.log, "{at}");
            assert_eq!(engine.now(), reference.now, "{at}");
            assert_eq!(
                engine.next_event_time(),
                reference.next_event_time(),
                "{at}"
            );
        }
        engine.run();
        while reference.step() {}
        assert_eq!(engine.world.log, reference.log, "seed {seed} drained");
        [clamps, mid_instant, engine.world.in_hand_cancels]
    }

    #[test]
    fn engine_matches_a_scanned_reference() {
        let mut covered = [0; 3];
        for seed in 0..64 {
            for (total, n) in covered.iter_mut().zip(differential(seed, 300)) {
                *total += n;
            }
        }
        let [clamps, mid_instant, in_hand_cancels] = covered;
        assert!(
            clamps > 0 && mid_instant > 0 && in_hand_cancels > 0,
            "{covered:?}"
        );
    }
}
