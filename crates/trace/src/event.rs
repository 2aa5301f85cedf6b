//! The fixed-size structured event record.
//!
//! Events are deliberately tiny (40 bytes) and `Copy`: the ring buffer
//! stores them inline, and the emitting hot paths never allocate.  The
//! `name` is a `&'static str` so instrumentation sites pay a pointer
//! copy, not a string copy; the two argument words carry site-specific
//! payload (documented per instrumentation point).

/// The layer an event originated from.
///
/// Categories map to Chrome-trace "threads" in the exporter so that
/// Perfetto renders one swim-lane per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Simulated-kernel layer: trigger states, backup interrupt ticks.
    Kernel,
    /// The soft-timer facility: schedule/fire/cancel lifecycle.
    Facility,
    /// Real-time (thread-backed) embedding.
    Rt,
    /// Multiprocessor facility: idle directives, checker watchdog.
    Smp,
    /// Network layer: NIC delivery, poll/interrupt decisions.
    Net,
    /// TCP layer: pacer release decisions.
    Tcp,
    /// Fault injection: anomalies as they are injected.
    Fault,
    /// Experiment-driver annotations.
    Experiment,
    /// Admission control: limit updates and shed decisions.
    Admit,
}

impl Category {
    /// Every category, in swim-lane order.
    pub const ALL: [Category; 9] = [
        Category::Kernel,
        Category::Facility,
        Category::Rt,
        Category::Smp,
        Category::Net,
        Category::Tcp,
        Category::Fault,
        Category::Experiment,
        Category::Admit,
    ];

    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Category::Kernel => "kernel",
            Category::Facility => "facility",
            Category::Rt => "rt",
            Category::Smp => "smp",
            Category::Net => "net",
            Category::Tcp => "tcp",
            Category::Fault => "fault",
            Category::Experiment => "experiment",
            Category::Admit => "admit",
        }
    }

    /// Dense index (the position in [`Category::ALL`]), used as the
    /// Chrome-trace `tid`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in the emitter's clock domain (microsecond ticks for
    /// the simulated stack).
    pub ts: u64,
    /// Originating layer.
    pub cat: Category,
    /// Static event name, e.g. `"facility.fire.trigger"`.
    pub name: &'static str,
    /// First site-specific argument word.
    pub a: u64,
    /// Second site-specific argument word.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_labels_and_indices_are_unique() {
        let mut labels: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
