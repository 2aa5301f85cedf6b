//! Multi-CPU soft timers: the idle-loop rules of §5.2.
//!
//! On a multiprocessor, every CPU's trigger states check the shared
//! facility, and the idle loop spins checking for due events — but to
//! keep power consumption sane the paper halts an idle CPU when either:
//!
//! - **(a)** no soft-timer event is scheduled before the next hardware
//!   timer interrupt (the backup sweep will catch everything anyway), or
//! - **(b)** another idle CPU is already checking for soft-timer events
//!   (one spinning checker is enough).
//!
//! [`SmpFacility`] models exactly that designation logic around a shared
//! [`SoftTimerCore`]. It is single-threaded by design (the simulator's
//! machines interleave CPUs through the event loop); the real-time
//! multi-threaded embedding is `st-rt`.

use st_wheel::TimerHandle;

use crate::facility::{Config, Expired, SoftTimerCore};

/// What an idle CPU should do, per the §5.2 rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleDirective {
    /// Spin in the idle loop checking for soft-timer events (this CPU is
    /// now the designated checker).
    SpinChecking,
    /// Halt until the next interrupt: rule (a) — nothing due before the
    /// backup sweep.
    HaltNoNearEvents,
    /// Halt until the next interrupt: rule (b) — another idle CPU
    /// already checks.
    HaltOtherChecker,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuState {
    Busy,
    IdleChecking,
    IdleHalted,
}

/// A shared soft-timer facility for `n` CPUs with idle-checker
/// designation.
///
/// # Examples
///
/// ```
/// use st_core::smp::{IdleDirective, SmpFacility};
///
/// let mut smp: SmpFacility<&str> = SmpFacility::new(2);
/// smp.schedule(0, 40, "ev");
///
/// // CPU 0 idles: there is a near event, so it spins checking.
/// assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
/// // CPU 1 idles too: someone already checks — halt (rule b).
/// assert_eq!(smp.cpu_idle_enter(1, 0), IdleDirective::HaltOtherChecker);
///
/// // The checker's idle loop finds the event once due.
/// let mut out = Vec::new();
/// smp.idle_check(0, 45, &mut out);
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug)]
pub struct SmpFacility<P> {
    core: SoftTimerCore<P>,
    cpus: Vec<CpuState>,
    checker: Option<usize>,
    halted_wakeups_saved: u64,
    /// Tick of the designated checker's most recent `idle_check`; `None`
    /// right after a designation that carried no timestamp (promotion on
    /// `cpu_idle_exit`), in which case the next backup starts the clock.
    checker_last_check: Option<u64>,
    checker_recoveries: u64,
}

impl<P> SmpFacility<P> {
    /// Creates a facility shared by `n` CPUs (default config: 1 MHz
    /// measurement, 1 kHz backup).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize) -> Self {
        SmpFacility::with_config(n, Config::default())
    }

    /// Creates with an explicit facility configuration.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn with_config(n: usize, config: Config) -> Self {
        assert!(n > 0, "need at least one CPU");
        SmpFacility {
            core: SoftTimerCore::new(config),
            cpus: vec![CpuState::Busy; n],
            checker: None,
            halted_wakeups_saved: 0,
            checker_last_check: None,
            checker_recoveries: 0,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The designated idle checker, if any.
    pub fn checker(&self) -> Option<usize> {
        self.checker
    }

    /// Idle-loop iterations avoided by the halting rules (power saved).
    pub fn halted_wakeups_saved(&self) -> u64 {
        self.halted_wakeups_saved
    }

    /// Times the backup interrupt demoted a stalled designated checker
    /// (one that went a full backup period without an `idle_check`).
    pub fn checker_recoveries(&self) -> u64 {
        self.checker_recoveries
    }

    /// The shared facility (for stats and configuration).
    pub fn core(&self) -> &SoftTimerCore<P> {
        &self.core
    }

    /// Schedules an event (any CPU may schedule).
    pub fn schedule(&mut self, now: u64, delta: u64, payload: P) -> TimerHandle {
        self.core.schedule(now, delta, payload)
    }

    /// Cancels an event.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<P> {
        self.core.cancel(handle)
    }

    /// Ticks of the measurement clock until the next backup interrupt,
    /// given `now` (the backup runs on a fixed grid).
    fn ticks_to_backup(&self, now: u64) -> u64 {
        let x = self.core.config().x_ticks();
        x - (now % x)
    }

    /// Whether any pending event is due before the next backup sweep —
    /// the condition for rule (a).
    pub fn has_event_before_backup(&self, now: u64) -> bool {
        match self.core.earliest_deadline() {
            Some(e) => e < now + self.ticks_to_backup(now),
            None => false,
        }
    }

    /// A trigger state on `cpu` (syscall/trap/interrupt return). Works
    /// regardless of the CPU's idle bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range CPU index.
    pub fn trigger(&mut self, cpu: usize, now: u64, out: &mut Vec<Expired<P>>) -> usize {
        assert!(cpu < self.cpus.len(), "no such CPU {cpu}");
        self.core.poll(now, out)
    }

    /// `cpu` enters the idle loop at `now`; returns what it should do.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range CPU index.
    pub fn cpu_idle_enter(&mut self, cpu: usize, now: u64) -> IdleDirective {
        assert!(cpu < self.cpus.len(), "no such CPU {cpu}");
        if let Some(c) = self.checker {
            if c != cpu {
                self.cpus[cpu] = CpuState::IdleHalted;
                self.halted_wakeups_saved += 1;
                self.trace_idle(cpu, now, IdleDirective::HaltOtherChecker);
                return IdleDirective::HaltOtherChecker;
            }
        }
        if !self.has_event_before_backup(now) {
            self.cpus[cpu] = CpuState::IdleHalted;
            self.halted_wakeups_saved += 1;
            self.trace_idle(cpu, now, IdleDirective::HaltNoNearEvents);
            return IdleDirective::HaltNoNearEvents;
        }
        self.cpus[cpu] = CpuState::IdleChecking;
        self.checker = Some(cpu);
        self.checker_last_check = Some(now);
        self.trace_idle(cpu, now, IdleDirective::SpinChecking);
        IdleDirective::SpinChecking
    }

    fn trace_idle(&self, cpu: usize, now: u64, directive: IdleDirective) {
        if st_trace::active() {
            let (name, counter) = match directive {
                IdleDirective::SpinChecking => ("smp.idle.spin_checking", "smp.idle.spin_checking"),
                IdleDirective::HaltNoNearEvents => {
                    ("smp.idle.halt_no_near", "smp.idle.halt_no_near")
                }
                IdleDirective::HaltOtherChecker => {
                    ("smp.idle.halt_other_checker", "smp.idle.halt_other_checker")
                }
            };
            st_trace::count(counter, 1);
            st_trace::emit(st_trace::Category::Smp, name, now, cpu as u64, 0);
        }
    }

    /// `cpu` leaves the idle loop (work arrived / interrupt woke it).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range CPU index.
    pub fn cpu_idle_exit(&mut self, cpu: usize) {
        assert!(cpu < self.cpus.len(), "no such CPU {cpu}");
        self.cpus[cpu] = CpuState::Busy;
        if self.checker == Some(cpu) {
            // Promote a halted idle CPU to checker, if any (it would be
            // woken by the designation IPI in a real kernel). No clock is
            // available here, so the stall watchdog's clock starts at the
            // next backup sweep.
            self.checker = None;
            self.checker_last_check = None;
            self.promote_halted();
        }
    }

    fn promote_halted(&mut self) {
        if let Some(next) = self.cpus.iter().position(|&s| s == CpuState::IdleHalted) {
            self.cpus[next] = CpuState::IdleChecking;
            self.checker = Some(next);
        }
    }

    /// One iteration of the designated checker's idle loop.
    ///
    /// # Panics
    ///
    /// Panics when `cpu` is not the designated checker — the caller's
    /// idle loop must have been told [`IdleDirective::SpinChecking`].
    pub fn idle_check(&mut self, cpu: usize, now: u64, out: &mut Vec<Expired<P>>) -> usize {
        assert_eq!(
            self.checker,
            Some(cpu),
            "cpu {cpu} is not the designated idle checker"
        );
        let fired = self.core.poll(now, out);
        self.checker_last_check = Some(now);
        // Rule (a) re-evaluated each iteration: once nothing is due
        // before the backup, the checker may halt too.
        if !self.has_event_before_backup(now) {
            self.checker = None;
            self.checker_last_check = None;
            self.cpus[cpu] = CpuState::IdleHalted;
            self.halted_wakeups_saved += 1;
        }
        fired
    }

    /// The periodic backup interrupt (delivered to one CPU; which one is
    /// irrelevant to the facility).
    ///
    /// Doubles as the watchdog for the designated checker: a CPU that
    /// claimed `SpinChecking` but then went a full backup period without
    /// an `idle_check` has stalled (wedged in a long-running interrupt
    /// handler, taken offline, spinning on a lock). Rule (b) would
    /// otherwise keep every other idle CPU halted forever while nobody
    /// checks; the sweep demotes the stalled checker to `Busy` and
    /// promotes a halted idle CPU, so trigger-state coverage resumes.
    pub fn backup(&mut self, now: u64, out: &mut Vec<Expired<P>>) -> usize {
        if let Some(c) = self.checker {
            match self.checker_last_check {
                Some(last) if now.saturating_sub(last) >= self.core.config().x_ticks() => {
                    self.checker_recoveries += 1;
                    if st_trace::active() {
                        st_trace::count("smp.checker_recoveries", 1);
                        st_trace::emit(
                            st_trace::Category::Smp,
                            "smp.checker_recovery",
                            now,
                            c as u64,
                            last,
                        );
                    }
                    self.cpus[c] = CpuState::Busy;
                    self.checker = None;
                    self.checker_last_check = None;
                    self.promote_halted();
                    if self.checker.is_some() {
                        self.checker_last_check = Some(now);
                    }
                }
                // Designated without a timestamp (promotion on idle-exit
                // or recovery): start the watchdog clock now.
                None => self.checker_last_check = Some(now),
                _ => {}
            }
        }
        self.core.interrupt_sweep(now, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_one_idle_checker() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(4);
        smp.schedule(0, 50, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        for cpu in 1..4 {
            assert_eq!(
                smp.cpu_idle_enter(cpu, 0),
                IdleDirective::HaltOtherChecker,
                "cpu {cpu}"
            );
        }
        assert_eq!(smp.checker(), Some(0));
        assert_eq!(smp.halted_wakeups_saved(), 3);
    }

    #[test]
    fn rule_a_halts_when_nothing_near() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        // Next backup is at tick 1000; the event is far beyond it.
        smp.schedule(0, 5_000, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::HaltNoNearEvents);
        assert_eq!(smp.checker(), None);
        // With no events at all, also halt.
        let mut smp2: SmpFacility<u32> = SmpFacility::new(2);
        assert_eq!(smp2.cpu_idle_enter(0, 0), IdleDirective::HaltNoNearEvents);
    }

    #[test]
    fn checker_fires_events_and_then_halts() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        smp.schedule(0, 40, 7);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        let mut out = Vec::new();
        assert_eq!(smp.idle_check(0, 30, &mut out), 0);
        assert_eq!(smp.checker(), Some(0), "still due soon: keep spinning");
        assert_eq!(smp.idle_check(0, 45, &mut out), 1);
        assert_eq!(out[0].payload, 7);
        // Nothing left before the backup: the checker halted itself.
        assert_eq!(smp.checker(), None);
    }

    #[test]
    fn checker_handoff_on_exit() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(3);
        smp.schedule(0, 10, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        assert_eq!(smp.cpu_idle_enter(1, 0), IdleDirective::HaltOtherChecker);
        // CPU 0 gets work; the halted CPU 1 is promoted to checker.
        smp.cpu_idle_exit(0);
        assert_eq!(smp.checker(), Some(1));
        let mut out = Vec::new();
        assert_eq!(smp.idle_check(1, 50, &mut out), 1);
    }

    #[test]
    fn triggers_work_from_any_cpu() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(4);
        smp.schedule(0, 10, 9);
        let mut out = Vec::new();
        assert_eq!(smp.trigger(3, 20, &mut out), 1);
        assert_eq!(out[0].payload, 9);
    }

    #[test]
    fn backup_grid_condition() {
        let smp: SmpFacility<u32> = SmpFacility::new(1);
        // X = 1000: from tick 250 the next backup is at 1000.
        assert_eq!(smp.ticks_to_backup(250), 750);
        assert_eq!(smp.ticks_to_backup(0), 1000);
        let mut smp: SmpFacility<u32> = SmpFacility::new(1);
        smp.schedule(250, 600, 1); // Deadline 851 < 1000: near.
        assert!(smp.has_event_before_backup(250));
        let mut smp2: SmpFacility<u32> = SmpFacility::new(1);
        smp2.schedule(250, 900, 1); // Deadline 1151 > 1000: far.
        assert!(!smp2.has_event_before_backup(250));
    }

    #[test]
    fn stalled_checker_is_demoted_and_replaced() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(3);
        // Keep something near so CPU 0 becomes (and stays) the checker.
        smp.schedule(0, 500, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        assert_eq!(smp.cpu_idle_enter(1, 0), IdleDirective::HaltOtherChecker);
        let mut out = Vec::new();
        assert_eq!(smp.idle_check(0, 100, &mut out), 0);
        assert_eq!(smp.checker(), Some(0));

        // CPU 0 wedges. The first backup after less than X ticks of
        // silence tolerates it...
        assert_eq!(smp.backup(1_000, &mut out), 1);
        assert_eq!(smp.checker(), Some(0));
        assert_eq!(smp.checker_recoveries(), 0);

        // ...but a full backup period without a check is a stall: demote
        // CPU 0, promote the halted CPU 1.
        smp.schedule(1_000, 500, 2);
        smp.backup(2_000, &mut out);
        assert_eq!(smp.checker_recoveries(), 1);
        assert_eq!(smp.checker(), Some(1));
        // The replacement checker actually checks.
        assert_eq!(smp.idle_check(1, 2_100, &mut out), 0);
    }

    #[test]
    fn active_checker_is_not_demoted() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        smp.schedule(0, 500, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        let mut out = Vec::new();
        // Checked recently (and stays designated: the event is still near).
        smp.idle_check(0, 400, &mut out);
        assert_eq!(smp.checker(), Some(0));
        smp.backup(1_000, &mut out);
        assert_eq!(smp.checker_recoveries(), 0);
        assert_eq!(smp.checker(), Some(0));
    }

    #[test]
    fn stall_recovery_without_halted_cpu_clears_designation() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        smp.schedule(0, 500, 1);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        let mut out = Vec::new();
        smp.backup(5_000, &mut out);
        assert_eq!(smp.checker_recoveries(), 1);
        // Nobody halted to promote: no checker, so the next idle CPU can
        // claim the role instead of halting under rule (b) forever.
        assert_eq!(smp.checker(), None);
        smp.schedule(5_000, 500, 2);
        assert_eq!(smp.cpu_idle_enter(1, 5_000), IdleDirective::SpinChecking);
    }

    #[test]
    fn promoted_checker_gets_a_grace_period() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        smp.schedule(0, 10_000, 1);
        smp.schedule(0, 500, 2);
        assert_eq!(smp.cpu_idle_enter(0, 0), IdleDirective::SpinChecking);
        assert_eq!(smp.cpu_idle_enter(1, 0), IdleDirective::HaltOtherChecker);
        // CPU 0 takes work; CPU 1 is promoted with no timestamp.
        smp.cpu_idle_exit(0);
        assert_eq!(smp.checker(), Some(1));
        let mut out = Vec::new();
        // The next backup starts the watchdog clock rather than demoting.
        smp.backup(1_000, &mut out);
        assert_eq!(smp.checker(), Some(1));
        assert_eq!(smp.checker_recoveries(), 0);
        // Silence for a further full period is then a stall.
        smp.backup(2_000, &mut out);
        assert_eq!(smp.checker_recoveries(), 1);
    }

    #[test]
    #[should_panic(expected = "not the designated idle checker")]
    fn idle_check_requires_designation() {
        let mut smp: SmpFacility<u32> = SmpFacility::new(2);
        let mut out = Vec::new();
        smp.idle_check(0, 10, &mut out);
    }
}
