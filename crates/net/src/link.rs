//! Point-to-point links with exact serialization and propagation times.

use st_sim::{Bandwidth, SimDuration, SimTime};

/// One direction of a full-duplex link.
///
/// A transmitter serializes frames back to back: a frame enqueued while a
/// previous one is still on the wire starts serializing when the wire
/// frees up. Delivery time = serialization end + propagation delay.
#[derive(Debug, Clone)]
struct Direction {
    busy_until: SimTime,
    frames: u64,
    bytes: u64,
}

/// A full-duplex point-to-point link.
///
/// The link is passive: callers ask when an enqueued frame would arrive
/// and schedule their own delivery events. This keeps the link free of
/// event-queue plumbing and lets every simulation reuse it.
///
/// # Examples
///
/// ```
/// use st_net::Link;
/// use st_sim::{Bandwidth, SimDuration, SimTime};
///
/// let mut link = Link::new(Bandwidth::mbps(100), SimDuration::from_micros(10));
/// // A full frame takes 120 µs to serialize + 10 µs to propagate.
/// let t = link.enqueue_forward(SimTime::ZERO, 1500);
/// assert_eq!(t, SimTime::from_micros(130));
/// // A second frame queued immediately waits for the wire.
/// let t2 = link.enqueue_forward(SimTime::ZERO, 1500);
/// assert_eq!(t2, SimTime::from_micros(250));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Bandwidth,
    propagation: SimDuration,
    forward: Direction,
    reverse: Direction,
}

impl Link {
    /// Creates a link with the given bandwidth and one-way propagation
    /// delay.
    pub fn new(bandwidth: Bandwidth, propagation: SimDuration) -> Self {
        let dir = Direction {
            busy_until: SimTime::ZERO,
            frames: 0,
            bytes: 0,
        };
        Link {
            bandwidth,
            propagation,
            forward: dir.clone(),
            reverse: dir,
        }
    }

    /// A switched 100 Mbps Ethernet segment with LAN-scale propagation —
    /// the paper's testbed fabric.
    pub fn fast_ethernet_lan() -> Self {
        Link::new(Bandwidth::mbps(100), SimDuration::from_micros(5))
    }

    /// The link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    fn enqueue(
        dir: &mut Direction,
        bw: Bandwidth,
        prop: SimDuration,
        now: SimTime,
        bytes: u32,
    ) -> SimTime {
        let start = now.max(dir.busy_until);
        let done = start + bw.serialization_time(bytes as u64);
        dir.busy_until = done;
        dir.frames += 1;
        dir.bytes += bytes as u64;
        done + prop
    }

    /// Enqueues a frame in the forward direction at `now`; returns its
    /// arrival time at the far end.
    pub fn enqueue_forward(&mut self, now: SimTime, bytes: u32) -> SimTime {
        Self::enqueue(
            &mut self.forward,
            self.bandwidth,
            self.propagation,
            now,
            bytes,
        )
    }

    /// Enqueues a frame in the reverse direction at `now`.
    pub fn enqueue_reverse(&mut self, now: SimTime, bytes: u32) -> SimTime {
        Self::enqueue(
            &mut self.reverse,
            self.bandwidth,
            self.propagation,
            now,
            bytes,
        )
    }

    /// Frames sent forward so far.
    pub fn forward_frames(&self) -> u64 {
        self.forward.frames
    }

    /// Bytes sent forward so far.
    pub fn forward_bytes(&self) -> u64 {
        self.forward.bytes
    }

    /// Frames sent in reverse so far.
    pub fn reverse_frames(&self) -> u64 {
        self.reverse.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_and_propagation() {
        let mut l = Link::new(Bandwidth::gbps(1), SimDuration::from_micros(2));
        let t = l.enqueue_forward(SimTime::ZERO, 1500);
        assert_eq!(t, SimTime::from_micros(14)); // 12 + 2
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut l = Link::new(Bandwidth::mbps(100), SimDuration::ZERO);
        let t1 = l.enqueue_forward(SimTime::ZERO, 1500);
        let t2 = l.enqueue_forward(SimTime::from_micros(30), 1500);
        assert_eq!(t1, SimTime::from_micros(120));
        assert_eq!(t2, SimTime::from_micros(240), "waits for the wire");
        // After the wire idles, a new frame starts immediately.
        let t3 = l.enqueue_forward(SimTime::from_micros(1000), 1500);
        assert_eq!(t3, SimTime::from_micros(1120));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = Link::new(Bandwidth::mbps(100), SimDuration::ZERO);
        l.enqueue_forward(SimTime::ZERO, 1500);
        let t = l.enqueue_reverse(SimTime::ZERO, 1500);
        assert_eq!(t, SimTime::from_micros(120), "no head-of-line blocking");
        assert_eq!(l.forward_frames(), 1);
        assert_eq!(l.reverse_frames(), 1);
    }

    #[test]
    fn counters() {
        let mut l = Link::fast_ethernet_lan();
        l.enqueue_forward(SimTime::ZERO, 1000);
        l.enqueue_forward(SimTime::ZERO, 500);
        assert_eq!(l.forward_bytes(), 1500);
        assert_eq!(l.forward_frames(), 2);
    }
}
