//! Network interface model: descriptor rings, interrupts, polling.

use std::collections::VecDeque;

use st_sim::SimTime;

use crate::packet::Packet;

/// A network interface card.
///
/// Receive path: the wire delivers frames into the rx ring
/// ([`Nic::deliver_rx`]); in interrupt mode the NIC asserts its line (the
/// caller raises it on the interrupt controller); in polled mode the
/// kernel reads the status register ([`Nic::rx_pending`]) and drains
/// frames ([`Nic::poll_rx`]). A full ring drops frames — the overload
/// failure mode Mogul & Ramakrishnan's livelock work targets.
///
/// Transmit completion is reported by the link model; the NIC only counts.
#[derive(Debug)]
pub struct Nic {
    rx_ring: VecDeque<Packet>,
    rx_capacity: usize,
    rx_intr_enabled: bool,
    rx_delivered: u64,
    rx_dropped: u64,
    rx_polled: u64,
    tx_frames: u64,
    last_rx_at: Option<SimTime>,
}

impl Nic {
    /// Creates a NIC with the given rx ring capacity.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(rx_capacity: usize) -> Self {
        assert!(rx_capacity > 0, "rx ring needs capacity");
        Nic {
            rx_ring: VecDeque::with_capacity(rx_capacity),
            rx_capacity,
            rx_intr_enabled: true,
            rx_delivered: 0,
            rx_dropped: 0,
            rx_polled: 0,
            tx_frames: 0,
            last_rx_at: None,
        }
    }

    /// A typical 256-descriptor receive ring.
    pub fn default_ring() -> Self {
        Nic::new(256)
    }

    /// Disables receive interrupts (polled operation).
    pub fn disable_rx_interrupts(&mut self) {
        self.rx_intr_enabled = false;
    }

    /// The wire delivers a frame at `now`. Returns `true` when the NIC
    /// would assert its interrupt line (interrupts enabled). A full ring
    /// drops the frame.
    pub fn deliver_rx(&mut self, now: SimTime, packet: Packet) -> bool {
        if self.rx_ring.len() >= self.rx_capacity {
            self.rx_dropped += 1;
            if st_trace::active() {
                st_trace::count("net.rx.dropped", 1);
                st_trace::emit(
                    st_trace::Category::Net,
                    "net.rx_drop",
                    now.as_micros(),
                    self.rx_ring.len() as u64,
                    0,
                );
            }
            return false;
        }
        self.rx_ring.push_back(packet);
        self.rx_delivered += 1;
        self.last_rx_at = Some(now);
        st_trace::gauge(now.as_micros(), "net.rx_ring", self.rx_ring.len() as f64);
        if st_trace::active() {
            st_trace::count("net.rx.delivered", 1);
            st_trace::emit(
                st_trace::Category::Net,
                "net.rx",
                now.as_micros(),
                self.rx_ring.len() as u64,
                self.rx_intr_enabled as u64,
            );
        }
        self.rx_intr_enabled
    }

    /// Status register: frames waiting in the rx ring.
    pub fn rx_pending(&self) -> usize {
        self.rx_ring.len()
    }

    /// Drains up to `max` frames from the rx ring (a poll or the interrupt
    /// handler's work loop).
    pub fn poll_rx(&mut self, max: usize) -> Vec<Packet> {
        let n = max.min(self.rx_ring.len());
        self.rx_polled += n as u64;
        if n > 0 {
            st_trace::count("net.rx.polled", n as u64);
        }
        self.rx_ring.drain(..n).collect()
    }

    /// Records a transmitted frame (for counters only; timing is the
    /// link's job).
    pub fn record_tx(&mut self) {
        self.tx_frames += 1;
    }

    /// Frames accepted into the rx ring so far.
    pub fn rx_delivered(&self) -> u64 {
        self.rx_delivered
    }

    /// Frames dropped due to a full ring.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }

    /// Frames drained by polls / handlers.
    pub fn rx_polled(&self) -> u64 {
        self.rx_polled
    }

    /// Frames transmitted.
    pub fn tx_frames(&self) -> u64 {
        self.tx_frames
    }

    /// When the most recent frame arrived.
    pub fn last_rx_at(&self) -> Option<SimTime> {
        self.last_rx_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ConnId, Packet};

    fn pkt(id: u64) -> Packet {
        Packet::ack(id, ConnId(0), 0, 0)
    }

    #[test]
    fn rx_interrupt_signaled_only_when_enabled() {
        let mut nic = Nic::new(4);
        assert!(nic.deliver_rx(SimTime::ZERO, pkt(1)));
        nic.disable_rx_interrupts();
        assert!(!nic.deliver_rx(SimTime::ZERO, pkt(2)));
        assert_eq!(nic.rx_pending(), 2);
    }

    #[test]
    fn poll_drains_in_order() {
        let mut nic = Nic::new(8);
        for i in 0..5 {
            nic.deliver_rx(SimTime::from_micros(i), pkt(i));
        }
        let got = nic.poll_rx(3);
        assert_eq!(got.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(nic.rx_pending(), 2);
        let rest = nic.poll_rx(100);
        assert_eq!(rest.len(), 2);
        assert_eq!(nic.rx_polled(), 5);
    }

    #[test]
    fn full_ring_drops() {
        let mut nic = Nic::new(2);
        assert!(nic.deliver_rx(SimTime::ZERO, pkt(1)));
        assert!(nic.deliver_rx(SimTime::ZERO, pkt(2)));
        assert!(!nic.deliver_rx(SimTime::ZERO, pkt(3)), "dropped, no intr");
        assert_eq!(nic.rx_dropped(), 1);
        assert_eq!(nic.rx_delivered(), 2);
    }

    #[test]
    fn tx_counter() {
        let mut nic = Nic::default_ring();
        nic.record_tx();
        nic.record_tx();
        assert_eq!(nic.tx_frames(), 2);
    }

    #[test]
    fn last_rx_time_tracked() {
        let mut nic = Nic::new(4);
        assert_eq!(nic.last_rx_at(), None);
        nic.deliver_rx(SimTime::from_micros(7), pkt(1));
        assert_eq!(nic.last_rx_at(), Some(SimTime::from_micros(7)));
    }
}
