//! The calibrated cost model.
//!
//! Every constant here is taken from a measurement reported in the paper
//! (see DESIGN.md section 4 for the full provenance table). The simulation
//! charges these costs to the [`crate::cpu::CpuAccountant`]; the
//! experiments' headline ratios (interrupt overhead vs. frequency,
//! soft-timer overhead, polling speedups) all derive from them.

use st_sim::SimDuration;

/// Which measured machine the cost model reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// 300 MHz Pentium II running FreeBSD-2.2.6 — the paper's main testbed.
    PentiumII300,
    /// 333 MHz Pentium II — the Table 8 polling server.
    PentiumII333,
    /// 500 MHz Pentium III (Xeon) running FreeBSD-3.3 (section 5.1/5.3).
    PentiumIII500,
    /// 500 MHz Alpha 21164 (AlphaStation 500au) running FreeBSD-4.0-beta.
    Alpha21164_500,
    /// Constants fitted from st-rt microbenchmarks on the machine the
    /// reproduction itself runs on (`repro rt_calibration`), rather than
    /// transcribed from the paper.
    CalibratedHost,
}

/// CPU cost constants for one machine.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Which machine these constants model.
    pub kind: MachineKind,
    /// Total cost of one hardware timer interrupt with a null handler on a
    /// busy system, including state save/restore and the cache/TLB
    /// pollution it causes (section 5.1: 4.45 µs on the PII-300).
    pub hw_interrupt: SimDuration,
    /// *Additional* cache pollution charged when a hardware-interrupt
    /// handler does real work (Table 3 shows rate-based clocking from a
    /// hardware timer costs 4-8 % beyond the null-handler base; the
    /// per-interrupt surcharge depends on the victim's locality, so it is
    /// a parameter of the *workload*, scaled by this machine baseline).
    pub hw_handler_pollution: SimDuration,
    /// Cost of the trigger-state check when no event is due: a clock read
    /// plus one comparison (section 3: "no noticeable impact").
    pub soft_check: SimDuration,
    /// Cost of invoking a due soft-timer event handler: a procedure call
    /// plus residual cache effects (section 5.2 measures "no observable
    /// difference" in server throughput at one event per 31.5 µs, which
    /// bounds this below ~0.3 µs).
    pub soft_dispatch: SimDuration,
    /// Cost of one *profiling sample* taken from a trigger state: read
    /// the interrupted context (already in registers at a trigger state),
    /// bump one counter bucket, rearm. Derived, not directly measured:
    /// the paper's §5.2 bound caps full event dispatch below ~0.3 µs, and
    /// a sample handler does strictly less work than a general handler
    /// (no payload, no cache-cold callback), so it sits between
    /// `soft_check` and `soft_dispatch`.
    pub prof_sample: SimDuration,
    /// Cost of one *telemetry sample* taken from a periodic soft-timer
    /// event (st-trace's `sample`): read a handful of registry
    /// counters, push ring points, snapshot a windowed histogram's quantiles. More work than
    /// a profiler sample (`prof_sample` touches one bucket; this walks a
    /// small counter set) but still strictly less than a general handler
    /// payload, so it sits between `prof_sample` and `soft_dispatch`.
    pub scope_sample: SimDuration,
    /// Cost of the per-request admission fast path: one inflight-counter
    /// compare plus an increment (PR 6, st-admit). All adaptive work is
    /// deferred to the periodic limit update, so this sits just above
    /// `soft_check` — the same "one compare on the hot path" economics
    /// as the trigger-state check itself.
    pub admit_check: SimDuration,
    /// Cost of one periodic limit-update event body (st-admit): fold
    /// the latency EWMA, run one integer limiter step per class, rearm.
    /// Strictly less work than a general soft-timer callback payload,
    /// so it sits below `soft_dispatch` when dispatched from a trigger
    /// state; the dispatch cost itself (`soft_dispatch` or a hardware
    /// interrupt) is charged separately by the caller.
    pub admit_update: SimDuration,
    /// A process context switch (save/restore + locality shift).
    pub context_switch: SimDuration,
    /// Kernel entry/exit for a system call (trap in, trap out).
    pub syscall_entry_exit: SimDuration,
    /// Network packet receive processing (device interrupt + IP/TCP input;
    /// section A.3: "can take more than 100 µs" total on the PII-300 —
    /// this constant is the interrupt-and-driver part).
    pub nic_interrupt: SimDuration,
    /// Polling one NIC's status registers and finding nothing.
    pub nic_poll_empty: SimDuration,
    /// Per-packet processing cost *savings* factor when packets are
    /// processed in an aggregated batch (locality gain of polling,
    /// section 4.2). Expressed as a fraction of per-packet protocol cost
    /// saved for every packet after the first in a batch. Backed out of
    /// Table 8's quota sweep (Apache 1.07 -> 1.11 over quotas 1..15
    /// implies batching saves most of the per-frame protocol cost).
    pub aggregation_saving: f64,
    /// Irreducible part of a NIC interrupt (vectoring and dispatch) that
    /// never benefits from cache residency.
    pub nic_intr_floor: SimDuration,
    /// Time constant (µs) of interrupt-handler cache residency: an
    /// interrupt arriving within ~this much of the previous one finds the
    /// handler's code and data still cached and pays proportionally less
    /// pollution. Explains why the fastest server (Flash P-HTTP, Table 8)
    /// sees the *smallest* per-interrupt cost.
    pub intr_cache_residency_us: f64,
}

impl CostModel {
    /// The paper's main testbed: 300 MHz Pentium II, FreeBSD-2.2.6.
    pub fn pentium_ii_300() -> Self {
        CostModel {
            kind: MachineKind::PentiumII300,
            hw_interrupt: SimDuration::from_nanos(4_450),
            hw_handler_pollution: SimDuration::from_nanos(1_200),
            soft_check: SimDuration::from_nanos(20),
            soft_dispatch: SimDuration::from_nanos(250),
            prof_sample: SimDuration::from_nanos(80),
            scope_sample: SimDuration::from_nanos(120),
            admit_check: SimDuration::from_nanos(60),
            admit_update: SimDuration::from_nanos(180),
            context_switch: SimDuration::from_nanos(6_000),
            syscall_entry_exit: SimDuration::from_nanos(2_000),
            nic_interrupt: SimDuration::from_nanos(7_000),
            nic_poll_empty: SimDuration::from_nanos(500),
            aggregation_saving: 0.6,
            nic_intr_floor: SimDuration::from_nanos(1_500),
            intr_cache_residency_us: 50.0,
        }
    }

    /// The Table 8 polling server: 333 MHz Pentium II. Slightly faster
    /// than the 300 MHz part; interrupt cost is dominated by memory
    /// behaviour and barely moves.
    pub fn pentium_ii_333() -> Self {
        let base = Self::pentium_ii_300();
        CostModel {
            kind: MachineKind::PentiumII333,
            hw_interrupt: SimDuration::from_nanos(4_400),
            context_switch: SimDuration::from_nanos(5_400),
            syscall_entry_exit: SimDuration::from_nanos(1_800),
            nic_interrupt: SimDuration::from_nanos(6_300),
            ..base
        }
    }

    /// 500 MHz Pentium III (Xeon): compute costs scale with clock, the
    /// interrupt cost does not (section 5.1 measures 4.36 µs — nearly
    /// unchanged), which is the paper's core scaling observation.
    pub fn pentium_iii_500() -> Self {
        CostModel {
            kind: MachineKind::PentiumIII500,
            hw_interrupt: SimDuration::from_nanos(4_360),
            hw_handler_pollution: SimDuration::from_nanos(1_100),
            soft_check: SimDuration::from_nanos(12),
            soft_dispatch: SimDuration::from_nanos(150),
            prof_sample: SimDuration::from_nanos(50),
            scope_sample: SimDuration::from_nanos(70),
            admit_check: SimDuration::from_nanos(36),
            admit_update: SimDuration::from_nanos(110),
            context_switch: SimDuration::from_nanos(3_600),
            syscall_entry_exit: SimDuration::from_nanos(1_200),
            nic_interrupt: SimDuration::from_nanos(5_500),
            nic_poll_empty: SimDuration::from_nanos(300),
            aggregation_saving: 0.6,
            nic_intr_floor: SimDuration::from_nanos(1_500),
            intr_cache_residency_us: 50.0,
        }
    }

    /// 500 MHz Alpha 21164: the paper measures an even higher interrupt
    /// cost (8.64 µs), showing the overhead is not an x86 artifact.
    pub fn alpha_21164_500() -> Self {
        CostModel {
            kind: MachineKind::Alpha21164_500,
            hw_interrupt: SimDuration::from_nanos(8_640),
            hw_handler_pollution: SimDuration::from_nanos(2_000),
            soft_check: SimDuration::from_nanos(12),
            soft_dispatch: SimDuration::from_nanos(180),
            prof_sample: SimDuration::from_nanos(60),
            scope_sample: SimDuration::from_nanos(80),
            admit_check: SimDuration::from_nanos(40),
            admit_update: SimDuration::from_nanos(130),
            context_switch: SimDuration::from_nanos(4_000),
            syscall_entry_exit: SimDuration::from_nanos(1_400),
            nic_interrupt: SimDuration::from_nanos(6_000),
            nic_poll_empty: SimDuration::from_nanos(350),
            aggregation_saving: 0.6,
            nic_intr_floor: SimDuration::from_nanos(1_500),
            intr_cache_residency_us: 50.0,
        }
    }

    /// Cost model fitted from host measurements (`repro rt_calibration`,
    /// via st-rt's probes) instead of the paper's tables.
    ///
    /// Only the two constants the soft-timer facility itself exercises —
    /// the empty trigger-state check and the event dispatch — are directly
    /// measurable from userspace. The derived handler-body costs
    /// (`prof_sample`, `scope_sample`, `admit_check`, `admit_update`) are
    /// placed by *log-interpolating* between the measured check and
    /// dispatch at the same relative positions they occupy on the PII-300
    /// (e.g. `prof_sample` sits 55 % of the log-distance from check to
    /// dispatch), which preserves every ordering invariant the simulator's
    /// tests pin (`check < prof < scope < dispatch`,
    /// `check <= admit_check < dispatch`, `admit_update <= dispatch`)
    /// for any sane measured pair. Kernel-side constants that userspace
    /// cannot observe (hardware interrupt cost, NIC costs, context
    /// switches) keep the paper's PII-300 values and must be read as
    /// provenance-labelled estimates, not measurements.
    ///
    /// A degenerate measurement (`dispatch` less than `4 x check`, which
    /// leaves no integer room for the strictly-ordered derived constants)
    /// is repaired by widening dispatch to `12.5 x check` (the PII-300
    /// ratio) so the interpolation stays well-defined.
    pub fn calibrated_host(soft_check: SimDuration, soft_dispatch: SimDuration) -> Self {
        let base = Self::pentium_ii_300();
        let check = soft_check.as_nanos().max(1);
        let mut dispatch = soft_dispatch.as_nanos();
        if dispatch < check * 4 {
            dispatch = check * base.soft_dispatch.as_nanos() / base.soft_check.as_nanos();
        }
        // Log-position of a PII-300 constant between its check & dispatch.
        let position = |value: SimDuration| -> f64 {
            let lo = base.soft_check.as_nanos() as f64;
            let hi = base.soft_dispatch.as_nanos() as f64;
            (value.as_nanos() as f64 / lo).ln() / (hi / lo).ln()
        };
        let interpolate = |t: f64| -> SimDuration {
            let lo = check as f64;
            let hi = dispatch as f64;
            SimDuration::from_nanos((lo * (hi / lo).powf(t)).round() as u64)
        };
        CostModel {
            kind: MachineKind::CalibratedHost,
            soft_check: SimDuration::from_nanos(check),
            soft_dispatch: SimDuration::from_nanos(dispatch),
            prof_sample: interpolate(position(base.prof_sample)),
            scope_sample: interpolate(position(base.scope_sample)),
            admit_check: interpolate(position(base.admit_check)),
            admit_update: interpolate(position(base.admit_update)),
            ..base
        }
    }

    /// Rough CPU clock ratio of this machine relative to the PII-300;
    /// used to scale *compute* (not interrupt) costs of workloads, as in
    /// the paper's Xeon comparison (Table 1 last row: the trigger interval
    /// mean scales with clock speed).
    pub fn compute_speedup(&self) -> f64 {
        match self.kind {
            MachineKind::PentiumII300 => 1.0,
            MachineKind::PentiumII333 => 333.0 / 300.0,
            MachineKind::PentiumIII500 => 500.0 / 300.0,
            MachineKind::Alpha21164_500 => 500.0 / 300.0,
            // Workload compute costs are expressed in the host's own
            // measured terms, so no cross-machine scaling applies.
            MachineKind::CalibratedHost => 1.0,
        }
    }

    /// Scales a PII-300 compute cost to this machine.
    pub fn scale_compute(&self, base: SimDuration) -> SimDuration {
        SimDuration::from_nanos((base.as_nanos() as f64 / self.compute_speedup()).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_interrupt_costs() {
        assert_eq!(CostModel::pentium_ii_300().hw_interrupt.as_nanos(), 4_450);
        assert_eq!(CostModel::pentium_iii_500().hw_interrupt.as_nanos(), 4_360);
        assert_eq!(CostModel::alpha_21164_500().hw_interrupt.as_nanos(), 8_640);
    }

    #[test]
    fn interrupt_cost_does_not_scale_with_clock() {
        let p2 = CostModel::pentium_ii_300();
        let p3 = CostModel::pentium_iii_500();
        let ratio = p2.hw_interrupt.as_nanos() as f64 / p3.hw_interrupt.as_nanos() as f64;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "interrupt cost should be ~flat across CPU generations"
        );
    }

    #[test]
    fn compute_costs_do_scale_with_clock() {
        let p3 = CostModel::pentium_iii_500();
        let base = SimDuration::from_micros(30);
        let scaled = p3.scale_compute(base);
        let ratio = base.as_nanos() as f64 / scaled.as_nanos() as f64;
        assert!((ratio - 500.0 / 300.0).abs() < 0.01);
    }

    #[test]
    fn aggregation_saving_is_a_fraction() {
        for m in [
            CostModel::pentium_ii_300(),
            CostModel::pentium_iii_500(),
            CostModel::alpha_21164_500(),
        ] {
            assert!((0.0..1.0).contains(&m.aggregation_saving));
        }
    }

    #[test]
    fn soft_check_is_orders_cheaper_than_interrupt() {
        let m = CostModel::pentium_ii_300();
        assert!(m.hw_interrupt.as_nanos() > 100 * m.soft_check.as_nanos());
        assert!(m.hw_interrupt.as_nanos() > 10 * m.soft_dispatch.as_nanos());
    }

    #[test]
    fn prof_sample_sits_between_check_and_dispatch() {
        for m in [
            CostModel::pentium_ii_300(),
            CostModel::pentium_ii_333(),
            CostModel::pentium_iii_500(),
            CostModel::alpha_21164_500(),
        ] {
            assert!(m.prof_sample.as_nanos() > m.soft_check.as_nanos());
            assert!(m.prof_sample.as_nanos() < m.soft_dispatch.as_nanos());
            // The acceptance contrast requires soft sampling to stay below
            // 1 % of the CPU at 100 kHz: 100k * prof_sample < 0.01 s.
            assert!(100_000 * m.prof_sample.as_nanos() < 10_000_000);
        }
    }

    #[test]
    fn scope_sample_sits_between_prof_sample_and_dispatch() {
        for m in [
            CostModel::pentium_ii_300(),
            CostModel::pentium_ii_333(),
            CostModel::pentium_iii_500(),
            CostModel::alpha_21164_500(),
        ] {
            assert!(m.scope_sample.as_nanos() > m.prof_sample.as_nanos());
            assert!(m.scope_sample.as_nanos() < m.soft_dispatch.as_nanos());
            // The PR 7 acceptance bound: 1 kHz telemetry sampling
            // dispatched from trigger states (dispatch + sample body)
            // stays well under 0.1 % CPU.
            let per_sec = 1_000 * (m.soft_dispatch.as_nanos() + m.scope_sample.as_nanos());
            assert!(per_sec < 1_000_000, "1 kHz sampling costs {per_sec} ns/s");
        }
    }

    #[test]
    fn admit_costs_follow_the_trigger_state_economics() {
        for m in [
            CostModel::pentium_ii_300(),
            CostModel::pentium_ii_333(),
            CostModel::pentium_iii_500(),
            CostModel::alpha_21164_500(),
        ] {
            // Fast path barely heavier than the trigger-state check,
            // update body lighter than a general callback dispatch.
            assert!(m.admit_check.as_nanos() >= m.soft_check.as_nanos());
            assert!(m.admit_check.as_nanos() < m.soft_dispatch.as_nanos());
            assert!(m.admit_update.as_nanos() <= m.soft_dispatch.as_nanos());
            // The PR 6 acceptance bound: 1 kHz limit updates dispatched
            // from trigger states (dispatch + body) stay under 1 % CPU.
            let per_sec = 1_000 * (m.soft_dispatch.as_nanos() + m.admit_update.as_nanos());
            assert!(per_sec < 10_000_000, "1 kHz updates cost {per_sec} ns/s");
        }
    }

    #[test]
    fn calibrated_host_preserves_ordering_invariants() {
        for (check, dispatch) in [(20, 250), (8, 90), (150, 3_000), (1, 2)] {
            let m = CostModel::calibrated_host(
                SimDuration::from_nanos(check),
                SimDuration::from_nanos(dispatch),
            );
            assert_eq!(m.kind, MachineKind::CalibratedHost);
            assert_eq!(m.soft_check.as_nanos(), check);
            assert!(m.prof_sample.as_nanos() > m.soft_check.as_nanos());
            assert!(m.prof_sample.as_nanos() < m.scope_sample.as_nanos());
            assert!(m.scope_sample.as_nanos() < m.soft_dispatch.as_nanos());
            assert!(m.admit_check.as_nanos() >= m.soft_check.as_nanos());
            assert!(m.admit_check.as_nanos() < m.soft_dispatch.as_nanos());
            assert!(m.admit_update.as_nanos() <= m.soft_dispatch.as_nanos());
            assert_eq!(m.compute_speedup(), 1.0);
        }
    }

    #[test]
    fn calibrated_host_repairs_degenerate_measurements() {
        // dispatch <= check: impossible physically, but a loaded machine
        // can produce it; the constructor must stay well-defined.
        let m =
            CostModel::calibrated_host(SimDuration::from_nanos(100), SimDuration::from_nanos(40));
        assert!(m.soft_dispatch.as_nanos() > m.soft_check.as_nanos());
        assert!(m.prof_sample.as_nanos() > m.soft_check.as_nanos());
        assert!(m.prof_sample.as_nanos() < m.soft_dispatch.as_nanos());
        // Zero check is clamped to 1 ns, not a division by zero.
        let z = CostModel::calibrated_host(SimDuration::from_nanos(0), SimDuration::from_nanos(0));
        assert!(z.soft_check.as_nanos() >= 1);
        assert!(z.soft_dispatch.as_nanos() > z.soft_check.as_nanos());
    }

    #[test]
    fn calibrated_host_matching_pii300_reproduces_pii300_derived_costs() {
        let base = CostModel::pentium_ii_300();
        let m = CostModel::calibrated_host(base.soft_check, base.soft_dispatch);
        // Interpolating at the PII-300's own positions is the identity
        // (up to rounding).
        for (got, want) in [
            (m.prof_sample, base.prof_sample),
            (m.scope_sample, base.scope_sample),
            (m.admit_check, base.admit_check),
            (m.admit_update, base.admit_update),
        ] {
            let diff = got.as_nanos().abs_diff(want.as_nanos());
            assert!(diff <= 1, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn fig3_overhead_at_100khz_is_about_45_percent() {
        // Sanity: 100k interrupts/s at 4.45 us each consumes ~44.5 % of a
        // second — the paper's Figure 3 end point.
        let m = CostModel::pentium_ii_300();
        let frac = 100_000.0 * m.hw_interrupt.as_nanos() as f64 / 1e9;
        assert!((frac - 0.445).abs() < 0.001);
    }
}
