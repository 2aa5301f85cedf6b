//! Seeded input generators: one seed gives one input stream.
//!
//! Everything random is drawn here, before the measured box opens, so the
//! measured loops read tables and never pay for the generator.

use st_sim::SimRng;

/// Flows (armed timers) of the two facility workloads.
pub const FLOWS: usize = 16_384;

/// `rearm_16k`: pacer period of every flow, in ticks.
pub const REARM_PERIOD: u64 = 32_768;
/// `rearm_16k`: every re-arm moves the next due tick by up to this much
/// either way.
pub const REARM_JITTER: i64 = 8;
/// `rearm_16k`: ticks between two polls.
pub const REARM_POLL_STEP: u64 = 20;

/// `cancel_16k`: the retransmission-timeout delta, in ticks.
pub const CANCEL_DELTA: u64 = 200_000;
/// `cancel_16k`: ticks the clock advances per operation.
pub const CANCEL_TICKS_PER_OP: u64 = 3;

/// Table lengths are primes. A table is cycled, and a length that shares
/// a factor with the flow count (or the wheel's slot count) hands every
/// flow the same few entries for ever: with 65 536 jitter entries each
/// flow drifts at a constant rate, deadlines bunch up, and `rearm_16k`
/// speeds up by 2x over a minute.
const JITTER_LEN: usize = 65_521;
const PICKS_LEN: usize = 1_048_573;

/// 64-bit FNV-1a over little-endian words; the digest the `repeat` mode
/// compares across runs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Input of `rearm_16k`.
#[derive(Debug)]
pub struct RearmInput {
    /// First due tick of each flow, uniform over one period.
    pub phases: Vec<u64>,
    /// Jitter applied to successive re-arms, cycled.
    pub jitter: Vec<i64>,
}

impl RearmInput {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SimRng::seed(seed).fork(0x0072_6561_726d);
        let phases = (0..FLOWS)
            .map(|_| 1 + rng.range_u64(0, REARM_PERIOD))
            .collect();
        let span = u64::try_from(2 * REARM_JITTER).expect("jitter span is positive");
        let jitter = (0..JITTER_LEN)
            .map(|_| {
                i64::try_from(rng.range_u64(0, span + 1)).expect("jitter fits i64") - REARM_JITTER
            })
            .collect();
        RearmInput { phases, jitter }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.phases.iter().for_each(|&p| h.word(p));
        self.jitter.iter().for_each(|&j| h.word(j as u64));
        h.0
    }
}

/// Input of `cancel_16k`.
#[derive(Debug)]
pub struct CancelInput {
    /// Delta of each flow's first timer, uniform over the timeout, so the
    /// population starts spread out instead of expiring as one batch.
    pub first_delta: Vec<u64>,
    /// The flow each successive operation re-arms, cycled.
    pub picks: Vec<u32>,
}

impl CancelInput {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SimRng::seed(seed).fork(0x6361_6e63_656c);
        let first_delta = (0..FLOWS)
            .map(|_| rng.range_u64(1, CANCEL_DELTA + 1))
            .collect();
        let picks = (0..PICKS_LEN)
            .map(|_| u32::try_from(rng.index(FLOWS)).expect("flow index fits u32"))
            .collect();
        CancelInput { first_delta, picks }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.first_delta.iter().for_each(|&d| h.word(d));
        self.picks.iter().for_each(|&p| h.word(u64::from(p)));
        h.0
    }
}

/// `host_paced`: the four timers' periods before the seeded offset. About
/// 1.6 ms each (2.4 k fires/s offered together), and no two pairs the same
/// distance apart.
///
/// Two things are bought with these numbers. The rate: one fire holds the
/// core lock for 10-20 us today, so the 40 k fires/s of four 100 us timers
/// kept the dispatching lane 80 % busy, and the fire delay was a queueing
/// delay that moved by 30 % when the machine's scan speed moved by 10 %.
/// At 9.8 k fires/s (four 400 us timers) a fifth of the fires still found
/// the lock held, and the median of the rest moved with that share: it sits
/// at quantile 0.5 / (1 - share) of the unblocked fires, 6-7 % later for
/// every 5 points of share. At 2.4 k fires/s the lane is 4 % busy and the
/// median is half the idle poller's cycle plus the check, which is what a
/// latency regime is for. The spread: periods 72 to 256 us apart take
/// every pair through all relative phases every 10-35 ms, so every host
/// run sees the same mix of pile-ups whatever the seed. Periods a few
/// hundred ns apart line all four up at once every few seconds, and how
/// exactly they line up (the seed's luck) sets the tail.
pub const PACED_BASE_NS: [u64; 4] = [1_516_000, 1_588_000, 1_676_000, 1_772_000];

/// Periods of `host_paced`: [`PACED_BASE_NS`] plus a seeded offset below
/// 1 us each.
pub fn paced_periods_ns(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed(seed).fork(0x0070_6163_6564);
    PACED_BASE_NS
        .iter()
        .map(|&base| base + rng.range_u64(0, 1_000))
        .collect()
}

/// `host_saturated`: armed timers.
pub const SATURATED_TIMERS: usize = 1_000;

/// Periods of `host_saturated`: [`SATURATED_TIMERS`] timers at 100 us plus
/// a seeded shift of the whole set below 100 ns, one ns apart. The runtime
/// is overloaded by design, so the phases do not matter; the offsets only
/// keep the deadlines from being one tick.
pub fn saturated_periods_ns(seed: u64) -> Vec<u64> {
    let shift = SimRng::seed(seed).fork(0x686f_7374).range_u64(0, 100);
    (0..SATURATED_TIMERS as u64)
        .map(|i| 100_000 + shift + i)
        .collect()
}

pub fn host_digest(periods_ns: &[u64]) -> u64 {
    let mut h = Fnv::new();
    periods_ns.iter().for_each(|&p| h.word(p));
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            RearmInput::generate(7).digest(),
            RearmInput::generate(7).digest()
        );
        assert_ne!(
            RearmInput::generate(7).digest(),
            RearmInput::generate(8).digest()
        );
        assert_eq!(
            CancelInput::generate(7).digest(),
            CancelInput::generate(7).digest()
        );
        assert_ne!(
            CancelInput::generate(7).digest(),
            CancelInput::generate(8).digest()
        );
        assert_eq!(saturated_periods_ns(7), saturated_periods_ns(7));
        assert_eq!(paced_periods_ns(7), paced_periods_ns(7));
        assert_ne!(
            host_digest(&paced_periods_ns(7)),
            host_digest(&paced_periods_ns(8))
        );
    }

    #[test]
    fn generated_values_stay_in_their_ranges() {
        let r = RearmInput::generate(3);
        assert_eq!(r.phases.len(), FLOWS);
        assert!(r.phases.iter().all(|&p| (1..=REARM_PERIOD).contains(&p)));
        assert!(r
            .jitter
            .iter()
            .all(|j| (-REARM_JITTER..=REARM_JITTER).contains(j)));
        assert!(r.jitter.contains(&REARM_JITTER));
        assert!(r.jitter.contains(&-REARM_JITTER));
        let c = CancelInput::generate(3);
        assert!(c
            .first_delta
            .iter()
            .all(|&d| (1..=CANCEL_DELTA).contains(&d)));
        assert!(c.picks.iter().all(|&p| (p as usize) < FLOWS));
        let saturated = saturated_periods_ns(3);
        assert_eq!(saturated.len(), SATURATED_TIMERS);
        assert!(saturated.iter().all(|&p| (100_000..101_100).contains(&p)));
        // Paced: each period within 1 us above its base, and no two pairs
        // the same distance apart (to the microsecond).
        let paced = paced_periods_ns(3);
        assert!(paced
            .iter()
            .zip(PACED_BASE_NS)
            .all(|(&p, base)| (base..base + 1_000).contains(&p)));
        let mut gaps: Vec<u64> = (0..4)
            .flat_map(|i| (i + 1..4).map(move |j| (PACED_BASE_NS[j] - PACED_BASE_NS[i]) / 1_000))
            .collect();
        gaps.sort_unstable();
        gaps.dedup();
        assert_eq!(gaps.len(), 6);
    }
}
