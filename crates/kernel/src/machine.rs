//! A mechanistic single-CPU machine: scheduler + interrupt controller +
//! soft clock, driven by per-process behaviour models.
//!
//! The calibrated workload generators in `st-workloads` reproduce the
//! *published* Table 1 distributions directly. This module derives the
//! paper's key qualitative claims from first principles instead: processes
//! with their own syscall/trap behaviour share the CPU under round-robin
//! time slices, device interrupts arrive regardless of what runs, and
//! every kernel exit is a trigger state. In particular it demonstrates
//! §5.3's observation that a compute-bound background process does *not*
//! degrade soft-timer granularity — interrupts and the server's own
//! activity keep providing trigger states during the compute process's
//! slices — and §5.4's time-slice-scale variability (Figure 5).
//!
//! The machine is intentionally small: processes are renewal processes
//! over kernel-event gaps, not full applications. What matters for soft
//! timers is *when kernel boundaries occur*, and that is what this models.

use st_sim::{Ctx, Engine, Exp, LogNormal, SampleDist, SimDuration, SimRng, SimTime, World};

use crate::costs::CostModel;
use crate::sched::{Decision, ProcId, Scheduler};
use crate::trigger::{TriggerRecorder, TriggerSource};

/// How a process behaves between kernel entries.
#[derive(Debug, Clone, Copy)]
pub enum ProcessBehavior {
    /// A server-like process: frequent syscalls (log-normal gaps with the
    /// given median/sigma in µs) and occasional traps.
    Server {
        /// Median user-mode run between syscalls, µs.
        syscall_gap_median: f64,
        /// Log-normal shape of the gap.
        sigma: f64,
        /// Fraction of kernel entries that are traps rather than
        /// syscalls.
        trap_fraction: f64,
    },
    /// A compute-bound process: runs flat out, making a syscall only
    /// every `syscall_gap_us` µs on average (exponential) — the paper's
    /// "tight loop without performing system calls" background job.
    Compute {
        /// Mean gap between (rare) syscalls, µs.
        syscall_gap_us: f64,
    },
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cost model (context-switch charge and the like).
    pub machine: CostModel,
    /// One behaviour per process.
    pub processes: Vec<ProcessBehavior>,
    /// Mean gap between network interrupts, µs (Poisson; 0 disables).
    pub nic_interrupt_gap_us: f64,
    /// Probability that a received packet causes follow-on protocol work
    /// (softintr processing, a reply transmission) with its own trigger
    /// states a few µs later. This is §5.3's mechanism: "frequent network
    /// interrupts ... yield frequent trigger states even during periods
    /// where the background process is executing" — one packet is several
    /// kernel boundaries, not one.
    pub nic_followup_prob: f64,
    /// Mean gap between disk interrupts, µs (Poisson; 0 disables).
    pub disk_interrupt_gap_us: f64,
    /// Scheduler time slice.
    pub time_slice: SimDuration,
    /// Simulated duration.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl MachineConfig {
    /// A saturated-server machine like the ST-Apache testbed: one busy
    /// server process, dense network interrupts.
    pub fn busy_server(seed: u64) -> Self {
        MachineConfig {
            machine: CostModel::pentium_ii_300(),
            processes: vec![ProcessBehavior::Server {
                syscall_gap_median: 55.0,
                sigma: 0.7,
                trap_fraction: 0.05,
            }],
            nic_interrupt_gap_us: 100.0,
            nic_followup_prob: 0.8,
            disk_interrupt_gap_us: 0.0,
            time_slice: SimDuration::from_millis(10),
            duration: SimDuration::from_secs(5),
            seed,
        }
    }

    /// The same machine plus a compute-bound background process
    /// (ST-Apache-compute).
    pub fn busy_server_with_compute(seed: u64) -> Self {
        let mut c = MachineConfig::busy_server(seed);
        c.processes.push(ProcessBehavior::Compute {
            syscall_gap_us: 50_000.0,
        });
        c
    }
}

/// Mechanistic run results.
#[derive(Debug)]
pub struct MachineRun {
    /// The trigger recorder (interval distribution, per-source counts).
    pub recorder: TriggerRecorder,
    /// Context switches performed.
    pub context_switches: u64,
    /// Simulated time covered.
    pub elapsed: SimTime,
}

#[derive(Debug)]
enum Ev {
    /// The running process reaches its next kernel entry (syscall/trap).
    KernelEntry { gen: u64 },
    /// The time slice of the running process expires.
    SliceExpiry { gen: u64 },
    /// A NIC interrupt arrives.
    NicIntr,
    /// Follow-on protocol work from a received packet completes.
    NicFollowup,
    /// A disk interrupt arrives.
    DiskIntr,
}

struct MachineWorld {
    config: MachineConfig,
    rng: SimRng,
    sched: Scheduler,
    recorder: TriggerRecorder,
    /// Generation guard for the running process's pending events.
    gen: u64,
    /// When the current process started its remaining slice.
    running_since: SimTime,
    deadline: SimTime,
}

impl MachineWorld {
    /// Draws the next kernel-entry gap and source for `pid`.
    fn next_kernel_entry(&mut self, pid: ProcId) -> (SimDuration, TriggerSource) {
        let behaviour = self.config.processes[pid.0 as usize % self.config.processes.len()];
        match behaviour {
            ProcessBehavior::Server {
                syscall_gap_median,
                sigma,
                trap_fraction,
            } => {
                let gap = LogNormal::with_median(syscall_gap_median, sigma)
                    .sample(&mut self.rng)
                    .max(0.5);
                let source = if self.rng.chance(trap_fraction) {
                    TriggerSource::Trap
                } else {
                    TriggerSource::Syscall
                };
                (SimDuration::from_micros_f64(gap), source)
            }
            ProcessBehavior::Compute { syscall_gap_us } => {
                let gap = Exp::with_mean(syscall_gap_us)
                    .sample(&mut self.rng)
                    .max(1.0);
                (SimDuration::from_micros_f64(gap), TriggerSource::Syscall)
            }
        }
    }

    /// Dispatches (or keeps) a process and schedules its next events.
    fn dispatch(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        if now >= self.deadline {
            return;
        }
        let decision = self.sched.pick();
        let pid = match decision {
            Decision::Keep(p) => p,
            Decision::Switch { to, .. } => {
                // The switch itself delays the process; its cost is small
                // relative to the 10 ms slice and charged as time.
                to
            }
            Decision::Idle => return,
        };
        self.gen += 1;
        self.running_since = now;
        let (gap, _) = self.next_kernel_entry(pid);
        let remaining = self.sched.remaining_slice();
        if gap < remaining {
            ctx.schedule_at(now + gap, Ev::KernelEntry { gen: self.gen });
        } else {
            ctx.schedule_at(now + remaining, Ev::SliceExpiry { gen: self.gen });
        }
    }
}

impl World for MachineWorld {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::KernelEntry { gen } => {
                if gen != self.gen {
                    return; // Preempted meanwhile.
                }
                self.sched.consume(now.since(self.running_since));
                // A kernel entry's *return* is the trigger state; the
                // entry/exit cost is far below our µs resolution of
                // interest here.
                let (_, source) = {
                    #[expect(
                        clippy::expect_used,
                        reason = "the generation check above proved this kernel entry belongs \
                                  to the still-running process"
                    )]
                    let pid = self.sched.current().expect("a process was running");
                    let b = self.config.processes[pid.0 as usize % self.config.processes.len()];
                    match b {
                        ProcessBehavior::Server { trap_fraction, .. } => {
                            if self.rng.chance(trap_fraction) {
                                (0, TriggerSource::Trap)
                            } else {
                                (0, TriggerSource::Syscall)
                            }
                        }
                        ProcessBehavior::Compute { .. } => (0, TriggerSource::Syscall),
                    }
                };
                self.recorder.record(now, source);
                self.dispatch(now, ctx);
            }
            Ev::SliceExpiry { gen } => {
                if gen != self.gen {
                    return;
                }
                self.sched.consume(self.sched.remaining_slice());
                // The scheduler runs from the clock interrupt: its return
                // path is a trigger state too.
                self.recorder.record(now, TriggerSource::OtherIntr);
                self.dispatch(now, ctx);
            }
            Ev::NicIntr => {
                if now < self.deadline {
                    let gap = Exp::with_mean(self.config.nic_interrupt_gap_us)
                        .sample(&mut self.rng)
                        .max(0.5);
                    ctx.schedule_in(SimDuration::from_micros_f64(gap), Ev::NicIntr);
                }
                // Interrupts fire regardless of the running process; their
                // return is a trigger state. The handler delays the
                // current process slightly; at µs scale we fold that into
                // the next gap.
                self.recorder.record(now, TriggerSource::IpIntr);
                if self.rng.chance(self.config.nic_followup_prob) {
                    let d = Exp::with_mean(8.0).sample(&mut self.rng).max(1.0);
                    ctx.schedule_in(SimDuration::from_micros_f64(d), Ev::NicFollowup);
                }
            }
            Ev::NicFollowup => {
                // Softintr protocol processing / the reply's ip-output
                // path: more kernel boundaries from the same packet.
                let source = if self.rng.chance(0.7) {
                    TriggerSource::IpOutput
                } else {
                    TriggerSource::TcpipOther
                };
                self.recorder.record(now, source);
            }
            Ev::DiskIntr => {
                if now < self.deadline {
                    let gap = Exp::with_mean(self.config.disk_interrupt_gap_us)
                        .sample(&mut self.rng)
                        .max(1.0);
                    ctx.schedule_in(SimDuration::from_micros_f64(gap), Ev::DiskIntr);
                }
                self.recorder.record(now, TriggerSource::OtherIntr);
            }
        }
    }
}

/// Runs the mechanistic machine.
pub fn run_machine(config: MachineConfig) -> MachineRun {
    let duration = config.duration;
    let mut world = MachineWorld {
        rng: SimRng::seed(config.seed),
        sched: Scheduler::new(config.time_slice),
        recorder: TriggerRecorder::new(true),
        gen: 0,
        running_since: SimTime::ZERO,
        deadline: SimTime::ZERO + duration,
        config,
    };
    for i in 0..world.config.processes.len() {
        world.sched.spawn(ProcId(i as u32));
    }
    let mut engine = Engine::new(world);
    // Boot interrupt sources.
    if engine.world().config.nic_interrupt_gap_us > 0.0 {
        engine.schedule_at(SimTime::from_micros(7), Ev::NicIntr);
    }
    if engine.world().config.disk_interrupt_gap_us > 0.0 {
        engine.schedule_at(SimTime::from_micros(13), Ev::DiskIntr);
    }
    // Boot the first process via a zero-gen slice event path: dispatch
    // directly through a primer kernel entry.
    engine.schedule_at(SimTime::ZERO, Ev::SliceExpiry { gen: 0 });
    engine.run_until(SimTime::ZERO + duration);
    let elapsed = engine.now();
    let world = engine.into_world();
    MachineRun {
        recorder: world.recorder,
        context_switches: world.sched.context_switches(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_server_reaches_trigger_states_every_tens_of_us() {
        let run = run_machine(MachineConfig::busy_server(1));
        let mean = run.recorder.all.mean();
        // Table 1's ST-Apache mean is 31.5 µs; the mechanistic machine
        // should land in the same regime.
        assert!(
            (22.0..42.0).contains(&mean),
            "mechanistic busy-server mean {mean} us"
        );
        assert!(run.recorder.total() > 50_000);
    }

    #[test]
    fn compute_background_does_not_degrade_triggers() {
        // §5.3: "the presence of background processes has no tangible
        // impact" — mechanistically, because interrupts and the server's
        // own slices keep supplying trigger states.
        let alone = run_machine(MachineConfig::busy_server(2));
        let shared = run_machine(MachineConfig::busy_server_with_compute(2));
        let m1 = alone.recorder.all.mean();
        let m2 = shared.recorder.all.mean();
        assert!(
            (m2 - m1).abs() / m1 < 0.35,
            "background compute changed the mean too much: {m1} -> {m2}"
        );
        // During the compute process's slices, interrupts are the only
        // triggers (~60 us apart) — the distribution widens slightly but
        // stays bounded far below the 1 ms backup.
        assert!(
            run_stat_over(&shared, 500.0) < 0.01,
            "long trigger gaps should stay rare"
        );
        // The compute process actually ran: slices alternated.
        assert!(shared.context_switches > 400, "{}", shared.context_switches);
    }

    fn run_stat_over(run: &MachineRun, us: f64) -> f64 {
        run.recorder.fraction_above_us(us)
    }

    #[test]
    fn timeslice_structure_shows_in_windowed_medians() {
        // §5.4 / Figure 5: medians over 1 ms windows vary (within vs
        // outside the compute process's slices); 10 ms windows (one full
        // slice rotation) are much tighter.
        let run = run_machine(MachineConfig::busy_server_with_compute(3));
        let w1 = run
            .recorder
            .windowed_medians(SimDuration::from_millis(1))
            .expect("raw kept");
        let w10 = run
            .recorder
            .windowed_medians(SimDuration::from_millis(10))
            .expect("raw kept");
        let spread = |pts: &[(f64, f64)]| {
            let mut s = st_stats::Summary::new();
            for &(_, m) in pts {
                s.record(m);
            }
            s.population_stddev()
        };
        assert!(
            spread(&w10) < spread(&w1),
            "10 ms windows must be tighter: {} vs {}",
            spread(&w10),
            spread(&w1)
        );
    }

    #[test]
    fn interrupts_supply_triggers_during_compute_slices() {
        // Disable the server process entirely: a pure compute machine
        // still reaches trigger states at the NIC interrupt rate.
        let cfg = MachineConfig {
            processes: vec![ProcessBehavior::Compute {
                syscall_gap_us: 100_000.0,
            }],
            ..MachineConfig::busy_server(4)
        };
        let run = run_machine(cfg);
        let mean = run.recorder.all.mean();
        // One packet yields ~1.8 kernel boundaries: mean gap ~= 100 / 1.8.
        assert!(
            (35.0..80.0).contains(&mean),
            "interrupt-only trigger mean {mean}"
        );
        let net = run.recorder.fraction(TriggerSource::IpIntr)
            + run.recorder.fraction(TriggerSource::IpOutput)
            + run.recorder.fraction(TriggerSource::TcpipOther);
        assert!(net > 0.9, "network sources dominate: {net}");
    }

    #[test]
    fn no_interrupts_no_syscalls_means_rare_triggers() {
        // The paper's "most pessimistic scenario" (§5.3): compute-bound,
        // no I/O — trigger states become rare and only the backup
        // interrupt (not modeled here) would bound delays.
        let cfg = MachineConfig {
            processes: vec![ProcessBehavior::Compute {
                syscall_gap_us: 10_000.0,
            }],
            nic_interrupt_gap_us: 0.0,
            ..MachineConfig::busy_server(5)
        };
        let run = run_machine(cfg);
        assert!(
            run.recorder.all.mean() > 1_000.0,
            "triggers should be ms-scale: {}",
            run.recorder.all.mean()
        );
    }
}
