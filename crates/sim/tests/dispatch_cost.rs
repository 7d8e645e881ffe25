//! A deterministic guard on the event loop's per-event cost.
//!
//! Each finish event may visit only the resource it freed and the
//! resources its newly ready successors queue on, on top of one initial
//! pass over every resource. Resource visits are counted exactly, so the
//! bound `visits ≤ resources + events + edges` holds bit for bit on any
//! host. A loop that rescanned every resource after each event would make
//! `events × resources` visits instead.

use std::sync::Arc;

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::Parallelism;
use amped_obs::Observer;
use amped_sim::{PipelineSchedule, SimConfig};

/// Resources per simulated device: the compute unit plus one send port
/// per link class.
const RESOURCES_PER_DEVICE: u64 = 3;

#[test]
fn resource_visits_stay_linear_on_a_512_node_cluster() {
    // megatron-145b, TP8 × PP8 × DP64 over 512 nodes of 8 A100s.
    let model = models::megatron_145b();
    let accel = accelerators::a100();
    let system = systems::a100_hdr_cluster(512, 8);
    let p = Parallelism::builder()
        .tp(8, 1)
        .pp(1, 8)
        .dp(1, 64)
        .build()
        .unwrap();
    for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
        let obs = Arc::new(Observer::new());
        let r = SimConfig::new(&model, &accel, &system, &p)
            .with_efficiency(efficiency::case_study())
            .with_schedule(schedule)
            .with_observer(Arc::clone(&obs))
            .simulate_iteration(1024)
            .unwrap();
        let c = obs.counters();
        let resources = RESOURCES_PER_DEVICE * r.device_stats.len() as u64;
        let events = c["sim.des.events_processed"];
        let edges = c["sim.graph.edges"];
        let visits = c["sim.des.resource_visits"];
        assert_eq!(r.device_stats.len(), 512, "{schedule:?}");
        assert_eq!(events, c["sim.graph.tasks"], "{schedule:?}");
        assert!(
            visits <= resources + events + edges,
            "{schedule:?}: {visits} visits > {resources} resources + {events} events + \
             {edges} edges (a full scan per event would be {})",
            events * resources
        );
    }
}
