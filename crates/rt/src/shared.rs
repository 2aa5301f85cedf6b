//! One `SoftTimerCore` shared by several OS threads: the protocol both
//! host embeddings ([`crate::host`]'s measured lanes and
//! [`crate::timers::RtSoftTimers`]) run on.
//!
//! The paper's cost argument — a trigger-state check is a clock read and a
//! compare — only survives threads sharing one facility if the check does
//! not synchronise, so the core's earliest deadline is mirrored in an
//! atomic word beside the mutex and the lock is taken only when an event
//! is due. The invariant that makes the word usable, **it is rewritten at
//! the end of every hold of the core lock**, is enforced by [`CoreGuard`],
//! the only way to reach the core: its `Drop` stores the word while the
//! mutex is still held. A reader sees a value stale only by the holds in
//! flight, which delays one fire to the next check or backup sweep — what
//! the facility tolerates anyway.
//!
//! Every visit to the core on the fire path is **a hold** (`hold`): lock,
//! read the clock once, re-arm what the batch before left, optionally poll
//! the next batch at that same reading, unlock; handlers run between holds
//! with nothing locked. Two compositions: [`SharedCore::fire_due`] — a
//! thread with other work: two holds and two readings per batch of any
//! size, one batch per trigger state — and [`SharedCore::fire_rounds`] — the
//! idle lane: one hold and one reading per batch while batches keep coming,
//! and [`SharedCore::wait_due`] on the word itself between them.
//!
//! **One thread dispatches at a time.** A check that finds events due while
//! another check is mid-batch is over: that check's thread runs what is
//! due and meets whatever came due since at its next check. Only the
//! backup sweep, which is the delay bound, goes in beside a running batch.
//! Two saturated lanes taking turns at the lock for every poll and every
//! re-arm delivered less than one alone (6.5-9.3 M fires/s of the 10 M/s
//! `host_saturated` offers, against the ~10-11 M/s the lanes carry with
//! one dispatching) and split the work differently from one run to the
//! next (DESIGN.md §15).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use st_core::{Config, Expired, FireOrigin, SoftTimerCore};
use st_trace::Category;

use crate::clock::spin;

pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Process-wide count of poisoned-lock recoveries (see
/// [`lock_recoveries`]).
static LOCK_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// How many times a host-runtime lock was acquired through poison
/// recovery process-wide. A panic that unwinds through a held guard
/// poisons the mutex; the runtime keeps going because facility state
/// stays consistent under its own methods — but recovery must be audible,
/// not silent, so each one is counted here and in the
/// `rt.lock_recoveries` trace counter.
pub fn lock_recoveries() -> u64 {
    LOCK_RECOVERIES.load(Ordering::Relaxed)
}

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Handlers run outside the lock, so poisoning is only reachable through
/// a panic inside the facility itself, whose methods keep its state
/// consistent. Recoveries are counted — see [`lock_recoveries`].
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        LOCK_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        st_trace::count("rt.lock_recoveries", 1);
        poisoned.into_inner()
    })
}

/// The backup-sweep frequency (Hz, at least 1) a sweep period in ns
/// amounts to — what the core reports as `interrupt_clock_resolution()`.
pub(crate) fn interrupt_hz(backup_period_ns: u64) -> u64 {
    (NANOS_PER_SEC / backup_period_ns.max(1)).max(1)
}

/// Drift-free next deadline of a periodic event that was due at `due` and
/// is re-armed at `now`: one period after `due`, or, when the run fell
/// behind, the first point of the `due + k * period_ns` grid strictly
/// after `now` (missed periods are skipped arithmetically, not fired in a
/// burst). Saturates at the end of time instead of wrapping.
fn next_due(due: u64, period_ns: u64, now: u64) -> u64 {
    let period = period_ns.max(1);
    let next = due.saturating_add(period);
    if next > now {
        return next;
    }
    let skipped = ((now - next) / period).saturating_add(1);
    next.saturating_add(skipped.saturating_mul(period))
}

/// A payload [`SharedCore::fire_due`] can re-arm.
pub(crate) trait Periodic {
    /// The period (ns) to re-arm the event on after its handler ran;
    /// `None` for a one-shot event or a periodic one that is finished.
    fn period_ns(&self) -> Option<u64>;
}

/// The facility and its lock on cache lines of their own (128 bytes: x86
/// prefetches lines in adjacent pairs). Every fire writes here — the lock
/// word, `last_seen`, the stats — while every lane reads the clock, the
/// `earliest` word and its stop flag on every loop iteration; on a shared
/// line each lock acquisition would first wait for the line to come back
/// from the other lanes' cores, ~100 ns added to every paced fire's delay
/// on this machine.
#[repr(align(128))]
struct CoreCell<T>(Mutex<SoftTimerCore<T>>);

/// A `SoftTimerCore` in wall-clock nanoseconds shared between threads:
/// the mutex-protected core plus the lock-free earliest-deadline word.
pub(crate) struct SharedCore<T> {
    core: CoreCell<T>,
    /// Earliest armed deadline (ns; `u64::MAX` when none), stored only by
    /// [`CoreGuard`]'s `Drop`.
    earliest: AtomicU64,
    /// Set while a trigger-state check is between its poll and the end of
    /// its re-arm; guards no data (the mutex does).
    dispatching: BatchFlag,
}

/// On a line of its own: beside `earliest`, which every lane reads every
/// loop iteration, the swap that opens a batch waited for the line first
/// (`host_paced` `lat_p50_ns` 707 -> 755 ns in ten of ten pairs).
#[repr(align(128))]
struct BatchFlag(AtomicBool);

/// A trigger-state batch in flight; dropping it ends the batch however
/// the pass ends (dropping a payload runs caller code, which may unwind).
struct Dispatching<'a>(&'a AtomicBool);

impl Drop for Dispatching<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The core lock, held. Dropping it publishes the core's earliest
/// deadline before the mutex is released.
pub(crate) struct CoreGuard<'a, T> {
    core: MutexGuard<'a, SoftTimerCore<T>>,
    earliest: &'a AtomicU64,
}

impl<T> Deref for CoreGuard<'_, T> {
    type Target = SoftTimerCore<T>;
    fn deref(&self) -> &SoftTimerCore<T> {
        &self.core
    }
}

impl<T> DerefMut for CoreGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut SoftTimerCore<T> {
        &mut self.core
    }
}

impl<T> Drop for CoreGuard<'_, T> {
    fn drop(&mut self) {
        // Release pairs with the Acquire load of the check fast path; the
        // mutex guard field is dropped (unlocked) after this body.
        self.earliest.store(
            self.core.earliest_deadline().unwrap_or(u64::MAX),
            Ordering::Release,
        );
    }
}

impl<T> SharedCore<T> {
    /// An empty core on 1 GHz ticks whose backup sweep runs every
    /// `backup_period_ns`.
    pub(crate) fn new(backup_period_ns: u64) -> Self {
        SharedCore {
            core: CoreCell(Mutex::new(SoftTimerCore::new(Config {
                measure_hz: NANOS_PER_SEC,
                interrupt_hz: interrupt_hz(backup_period_ns),
            }))),
            earliest: AtomicU64::new(u64::MAX),
            dispatching: BatchFlag(AtomicBool::new(false)),
        }
    }

    /// Locks the core, recovering (counted) from poisoning.
    pub(crate) fn lock(&self) -> CoreGuard<'_, T> {
        CoreGuard {
            core: lock_recover(&self.core.0),
            earliest: &self.earliest,
        }
    }

    /// The cached earliest armed deadline (ns; `u64::MAX` when none).
    pub(crate) fn earliest(&self) -> u64 {
        self.earliest.load(Ordering::Acquire)
    }

    /// The idle lane's wait between checks: from the caller's latest reading
    /// `seen_ns`, spins on `now_ns` until the clock passes the earliest armed
    /// deadline or `over` accepts the reading, and returns the reading that
    /// ended it (`seen_ns` itself, the clock not read, if that one does). The
    /// word is re-read every spin, so a deadline armed meanwhile is seen; due
    /// while another check is mid-batch is not a wake-up, and the flag is only
    /// loaded: the swap belongs to the check that will fire.
    pub(crate) fn wait_due(
        &self,
        seen_ns: u64,
        now_ns: impl Fn() -> u64,
        over: impl Fn(u64) -> bool,
    ) -> u64 {
        let due = |now| now >= self.earliest() && !self.dispatching.0.load(Ordering::Relaxed);
        let done = |now| over(now) || due(now);
        if done(seen_ns) {
            return seen_ns;
        }
        spin(now_ns, done)
    }

    /// Opens a trigger-state batch at the caller's reading `seen_ns`: `None`
    /// when nothing is due (a load and a compare) or another check is
    /// mid-batch (one swap more).
    fn open_batch(&self, seen_ns: u64) -> Option<Dispatching<'_>> {
        let open = seen_ns >= self.earliest() && !self.dispatching.0.swap(true, Ordering::Acquire);
        open.then(|| Dispatching(&self.dispatching.0))
    }
}

impl<T: Periodic> SharedCore<T> {
    /// **A hold**: the core lock taken once and the clock read once under it
    /// (`S`, returned). Counts the `panics` of the batch before, re-arms what
    /// `buf` still carries of it drift-free from `S` — read after that
    /// batch's last handler, so every new deadline is past the moment its
    /// handler finished — then polls (`TriggerState`) or sweeps
    /// (`BackupInterrupt`) at the same `S` into the emptied `buf`, or neither
    /// (`None`). A deadline armed here is strictly after `S`, so the poll
    /// beside it cannot fire it, and `S` is each fire's `fired_at`.
    fn hold(
        &self,
        now_ns: &impl Fn() -> u64,
        buf: &mut Vec<Expired<T>>,
        panics: u64,
        then: Option<FireOrigin>,
    ) -> u64 {
        let mut core = self.lock();
        let now = now_ns();
        for _ in 0..panics {
            core.note_handler_panic();
        }
        for ev in buf.drain(..) {
            let Some(period_ns) = ev.payload.period_ns() else {
                continue;
            };
            let next = next_due(ev.due, period_ns, now);
            // `schedule(now, delta)` arms deadline `now + delta + 1`.
            core.schedule(now, next.saturating_sub(now).saturating_sub(1), ev.payload);
        }
        match then {
            Some(FireOrigin::TriggerState) => core.poll(now, buf),
            Some(FireOrigin::BackupInterrupt) => core.interrupt_sweep(now, buf),
            None => 0,
        };
        now
    }

    /// Runs the batch in `buf` with nothing locked: each handler behind its
    /// own `catch_unwind`, a panic confined to the one fire and counted
    /// (returned) for the next hold; payloads that report no period are then
    /// dropped — still unlocked, dropping one may run caller code.
    fn run_batch(buf: &mut Vec<Expired<T>>, handler: &mut impl FnMut(&mut Expired<T>)) -> u64 {
        let mut panics = 0u64;
        for ev in buf.iter_mut() {
            if catch_unwind(AssertUnwindSafe(|| handler(ev))).is_err() {
                panics += 1;
                // Sealed: visible only to a trace session on this thread.
                st_trace::count("rt.handler_panics", 1);
                st_trace::emit(Category::Rt, "rt.handler_panic", ev.fired_at, ev.due, 0);
            }
        }
        buf.retain(|ev| ev.payload.period_ns().is_some());
        panics
    }

    /// One trigger-state check at the caller's clock reading `seen_ns`, or
    /// one backup sweep (`None`): `hold(poll) · handlers · hold(arm only)`.
    /// Not due at `seen_ns`, a check is a load and a compare — no clock
    /// read, no lock; due while another check is mid-batch, it fires
    /// nothing. One batch per call, whatever came due meanwhile: a worker's
    /// next task is never delayed by a second one. `buf` comes back empty;
    /// returns how many events fired.
    // Inlined into its two callers: out of line the pass cost a saturated
    // lane ~1 ns a fire (`rt.host.batch_dispatch` 33.5 -> 34.5 ns).
    #[inline]
    pub(crate) fn fire_due(
        &self,
        seen_ns: Option<u64>,
        now_ns: impl Fn() -> u64,
        buf: &mut Vec<Expired<T>>,
        mut handler: impl FnMut(&mut Expired<T>),
    ) -> usize {
        let (_batch, origin) = match seen_ns {
            Some(seen) => match self.open_batch(seen) {
                Some(batch) => (Some(batch), FireOrigin::TriggerState),
                None => return 0,
            },
            None => (None, FireOrigin::BackupInterrupt),
        };
        buf.clear();
        self.hold(&now_ns, buf, 0, Some(origin));
        let fired = buf.len();
        let panics = Self::run_batch(buf, &mut handler);
        if !buf.is_empty() || panics > 0 {
            self.hold(&now_ns, buf, panics, None);
        }
        fired
    }

    /// The idle lane's check at its reading `seen_ns`, for a thread with
    /// nothing else to do: `hold(poll) · (handlers · hold(arm + poll))*`
    /// under one `dispatching` window, until a poll comes back empty. Each
    /// hold in the middle re-arms one batch and polls the next at one
    /// reading; `go_on` is shown that reading and, by returning `false`,
    /// makes the next hold arm-only: the batch in hand is run and armed,
    /// nothing stays carried and the flag is released before the lane
    /// leaves. Returns the last hold's reading — it closes the check and is
    /// the first the next wait tests — or `None` exactly where
    /// [`Self::fire_due`] returns 0 unlocked.
    #[inline]
    pub(crate) fn fire_rounds(
        &self,
        seen_ns: u64,
        now_ns: impl Fn() -> u64,
        buf: &mut Vec<Expired<T>>,
        mut handler: impl FnMut(&mut Expired<T>),
        mut go_on: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let _batch = self.open_batch(seen_ns)?;
        buf.clear();
        let mut then = Some(FireOrigin::TriggerState);
        let mut now = self.hold(&now_ns, buf, 0, then);
        while !buf.is_empty() {
            let panics = Self::run_batch(buf, &mut handler);
            now = self.hold(&now_ns, buf, panics, then);
            if !buf.is_empty() && !go_on(now) {
                then = None;
            }
        }
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_due_stays_on_the_grid_and_strictly_ahead() {
        // On time: one period after the previous deadline.
        assert_eq!(next_due(1_000, 100, 1_050), 1_100);
        // `next == now` is not in the future yet: skip one period.
        assert_eq!(next_due(1_000, 100, 1_100), 1_200);
        // One whole period behind, then k periods and a bit.
        assert_eq!(next_due(1_000, 100, 1_200), 1_300);
        for k in [1u64, 2, 7, 1_000] {
            let now = 1_100 + k * 100 + 37;
            assert_eq!(next_due(1_000, 100, now), 1_100 + (k + 1) * 100);
        }
        // Degenerate periods: 1 ns, and 0 treated as 1.
        assert_eq!(next_due(10, 1, 500), 501);
        assert_eq!(next_due(10, 0, 500), 501);
        // Within one period of the end of time: saturated, never wrapped,
        // whether the clock is early or itself at the end.
        assert_eq!(next_due(u64::MAX - 5, 100, 17), u64::MAX);
        assert_eq!(next_due(u64::MAX - 5, 100, u64::MAX), u64::MAX);
        assert_eq!(next_due(0, u64::MAX / 2 + 1, u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn wait_due_ends_at_the_deadline_or_the_pause_end_whichever_is_first() {
        let shared: SharedCore<u8> = SharedCore::new(1_000_000);
        // A scripted clock: every reading is 10 ns after the last.
        let t = std::cell::Cell::new(0u64);
        let clock = || t.replace(t.get() + 10) + 10;
        // Every wait starts from the last reading taken, as the idle lane's do.
        let wait = |pause_end: u64| shared.wait_due(t.get(), clock, |now| now >= pause_end);
        // Nothing armed (`u64::MAX`): the full pause.
        assert_eq!(wait(100), 100);
        // The first reading at or past the earlier of the two ends it; a
        // reading handed in already due is returned, the clock not read.
        shared.lock().schedule(0, 499, 0);
        assert_eq!(shared.earliest(), 500);
        assert_eq!((wait(1_000), wait(1_000), t.get()), (500, 500, 500));
        // Due while another check is mid-batch is that check's business:
        // only the pause ends the wait, and the flag is left as it was.
        shared.dispatching.0.store(true, Ordering::Relaxed);
        assert_eq!(wait(600), 600);
        assert!(shared.dispatching.0.swap(false, Ordering::Relaxed));
        // A deadline armed during the wait is seen: the word is re-read
        // every spin, not sampled when the wait began.
        assert_eq!(shared.lock().poll(t.get(), &mut Vec::new()), 1);
        shared.lock().schedule(0, 4_999, 0);
        let arming = || {
            if t.get() == 690 {
                shared.lock().schedule(690, 59, 0);
            }
            clock()
        };
        assert_eq!(shared.wait_due(t.get(), arming, |now| now >= 10_000), 750);
    }

    /// A payload that notes, when dropped, whether the core lock was free.
    struct Shot(
        Option<u64>,
        std::rc::Weak<SharedCore<Shot>>,
        std::rc::Rc<std::cell::Cell<u32>>,
    );

    impl Periodic for Shot {
        fn period_ns(&self) -> Option<u64> {
            self.0
        }
    }

    impl Drop for Shot {
        fn drop(&mut self) {
            if self
                .1
                .upgrade()
                .is_some_and(|s| s.core.0.try_lock().is_ok())
            {
                self.2.set(self.2.get() + 1);
            }
        }
    }

    #[test]
    fn a_carried_panic_is_counted_by_the_next_hold_and_a_one_shot_dropped_unlocked() {
        let shared = std::rc::Rc::new(SharedCore::<Shot>::new(1_000_000));
        let freed = std::rc::Rc::new(std::cell::Cell::new(0u32));
        // Two periodic events due at 100 (the first one's handler panics),
        // a one-shot and a periodic one due at 150.
        for (first, period) in [
            (100, Some(100)),
            (100, Some(100)),
            (150, None),
            (150, Some(100)),
        ] {
            let shot = Shot(period, std::rc::Rc::downgrade(&shared), freed.clone());
            shared.lock().schedule(0, first - 1, shot);
        }
        let script = std::cell::RefCell::new(vec![160, 155, 105]);
        let clock = || script.borrow_mut().pop().expect("a clock reading too many");
        let runs = std::cell::Cell::new(0u32);
        let handler = |_: &mut Expired<Shot>| {
            if runs.replace(runs.get() + 1) == 0 {
                panic!("hostile, once");
            }
        };
        let closed = shared.fire_rounds(100, clock, &mut Vec::new(), handler, |hold_ns| {
            // The hold at 155 counted the first batch's panic, re-armed both
            // of its events and polled the second batch.
            let core = shared.lock();
            assert_eq!(
                (hold_ns, core.stats().handler_panics, core.pending()),
                (155, 1, 2)
            );
            true
        });
        assert_eq!((closed, runs.get(), freed.get()), (Some(160), 4, 1));
        let core = shared.lock();
        assert_eq!((core.stats().handler_panics, core.pending()), (1, 3));
    }

    #[test]
    fn lock_recovery_is_counted_not_silent() {
        let m = std::sync::Mutex::new(7u64);
        let before = lock_recoveries();
        // Poison the lock: a thread panics while holding the guard.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
        // A healthy lock doesn't count.
        let healthy = std::sync::Mutex::new(1u64);
        drop(lock_recover(&healthy));
        assert_eq!(lock_recoveries(), before);
        // Recovery yields the data, still consistent, and is counted.
        {
            let mut g = lock_recover(&m);
            assert_eq!(*g, 7);
            *g = 8;
        }
        assert_eq!(lock_recoveries(), before + 1);
        // The recovered mutex stays poisoned (std semantics), so every
        // subsequent recovery is also audible.
        drop(lock_recover(&m));
        assert_eq!(lock_recoveries(), before + 2);
    }
}
