//! Cluster-scale simulator outputs are pinned bit for bit.
//!
//! The event loop dispatches only the resources an event touched; the
//! pins below were captured from the full-scan executor it replaced, on
//! megatron-145b at 64 and 512 nodes (TP8 × PP8, DP = nodes/8, batch
//! 2 × nodes) under GPipe and 1F1B. Any drift in the iteration time, the
//! number of events the loop processed or the gradient-sync transfers it
//! ran means event order is no longer the order the full scan produced.

use std::sync::Arc;

use amped::configs::{accelerators, efficiency, models, systems};
use amped::core::Parallelism;
use amped::sim::{PipelineSchedule, SimConfig};
use amped_obs::Observer;

/// What one pinned iteration must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    iteration_bits: u64,
    events: u64,
    gsync_transfers: usize,
}

fn observe(nodes: usize, schedule: PipelineSchedule) -> Pin {
    let model = models::megatron_145b();
    let accel = accelerators::a100();
    let system = systems::a100_hdr_cluster(nodes, 8);
    let p = Parallelism::builder()
        .tp(8, 1)
        .pp(1, 8)
        .dp(1, nodes / 8)
        .build()
        .unwrap();
    let obs = Arc::new(Observer::new());
    let r = SimConfig::new(&model, &accel, &system, &p)
        .with_efficiency(efficiency::case_study())
        .with_schedule(schedule)
        .with_observer(Arc::clone(&obs))
        .simulate_iteration(2 * nodes)
        .unwrap();
    Pin {
        iteration_bits: r.iteration_time.to_bits(),
        events: obs.counters()["sim.des.events_processed"],
        gsync_transfers: r
            .timeline
            .entries()
            .iter()
            .filter(|e| e.label.starts_with("gsync"))
            .count(),
    }
}

fn check(nodes: usize, schedule: PipelineSchedule, pinned: Pin) {
    let got = observe(nodes, schedule);
    assert_eq!(
        got,
        pinned,
        "{nodes} nodes {schedule:?}: {} s vs pinned {} s",
        f64::from_bits(got.iteration_bits),
        f64::from_bits(pinned.iteration_bits)
    );
}

#[test]
fn gpipe_64_nodes_matches_pin() {
    check(
        64,
        PipelineSchedule::GPipe,
        Pin {
            iteration_bits: 0x4028_1a07_a3b3_fede,
            events: 2880,
            gsync_transfers: 896,
        },
    );
}

#[test]
fn one_f_one_b_64_nodes_matches_pin() {
    check(
        64,
        PipelineSchedule::OneFOneB,
        Pin {
            iteration_bits: 0x4027_6a98_8399_845c,
            events: 2880,
            gsync_transfers: 896,
        },
    );
}

#[test]
fn gpipe_512_nodes_matches_pin() {
    check(
        512,
        PipelineSchedule::GPipe,
        Pin {
            iteration_bits: 0x4028_30ed_a7d6_15d6,
            events: 80384,
            gsync_transfers: 64512,
        },
    );
}

#[test]
fn one_f_one_b_512_nodes_matches_pin() {
    check(
        512,
        PipelineSchedule::OneFOneB,
        Pin {
            iteration_bits: 0x4027_817e_87bb_9b54,
            events: 80384,
            gsync_transfers: 64512,
        },
    );
}
