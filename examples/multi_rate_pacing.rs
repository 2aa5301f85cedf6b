//! Pacing many connections at different rates through one facility.
//!
//! Section 5.7: "Soft timers can be used to clock transmission on
//! different connections simultaneously, even at different rates" —
//! something a single hardware interval timer cannot do. This example
//! runs four connections with different target rates over one simulated
//! trigger stream and shows each one independently achieving its target.
//!
//! ```text
//! cargo run --release --example multi_rate_pacing
//! ```

use soft_timers::core::facility::{Config, SoftTimerCore};
use soft_timers::core::pacer::{MultiPacer, PacerConfig};
use soft_timers::stats::Summary;
use soft_timers::workloads::{TriggerStream, WorkloadId};

fn main() {
    // Four connections: 1 Gbps-class pacing down to Fast-Ethernet pacing.
    let targets: [(u32, u64); 4] = [(1, 40), (2, 60), (3, 120), (4, 240)];

    let mut pacers: MultiPacer<u32> = MultiPacer::new();
    for &(conn, interval) in &targets {
        pacers.insert(conn, PacerConfig::new(interval, 12));
    }

    let mut core: SoftTimerCore<u32> = SoftTimerCore::new(Config::default());
    let mut stream = TriggerStream::new(WorkloadId::StApache.spec(), 11);
    let mut now = 0u64;
    let mut next_backup = 1000u64;
    let mut out = Vec::new();
    let mut intervals: std::collections::BTreeMap<u32, (Option<u64>, Summary)> = targets
        .iter()
        .map(|&(c, _)| (c, (None, Summary::new())))
        .collect();

    // Kick every connection off.
    for &(conn, _) in &targets {
        pacers.get_mut(&conn).expect("registered").start_train(0);
        core.schedule(0, 0, conn);
    }

    const PACKETS_PER_CONN: u64 = 20_000;
    let mut sent = 0u64;
    while sent < PACKETS_PER_CONN * targets.len() as u64 {
        let gap = stream.next_gap().0.round().max(1.0) as u64;
        now += gap;
        while next_backup < now {
            core.interrupt_sweep(next_backup, &mut out);
            next_backup += 1000;
        }
        core.poll(now, &mut out);
        for ev in out.drain(..) {
            let conn = ev.payload;
            let (last, stats) = intervals.get_mut(&conn).expect("known conn");
            if let Some(prev) = *last {
                stats.record((now - prev) as f64);
            }
            *last = Some(now);
            sent += 1;
            let pacer = pacers.get_mut(&conn).expect("registered");
            let interval = pacer.on_transmit(now);
            if stats.count() < PACKETS_PER_CONN {
                core.schedule(now, pacer.next_delta(interval), conn);
            }
        }
    }

    println!("four connections, one facility, one trigger stream (ST-Apache):\n");
    println!("conn  target(us)  achieved avg(us)  stddev(us)");
    for &(conn, target) in &targets {
        let (_, stats) = &intervals[&conn];
        println!(
            "{conn:>4}  {target:>10}  {:>16.1}  {:>10.1}",
            stats.mean(),
            stats.population_stddev()
        );
    }
    println!(
        "\nbackup-interrupt share of fires: {:.2}% (the rest fired at trigger states)",
        core.stats().backup_fraction() * 100.0
    );
}
