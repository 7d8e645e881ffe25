//! Records the simulator's event-loop cost at cluster scale into
//! `BENCH_sim.json` at the repo root: one training iteration of
//! megatron-145b on the A100 HDR cluster (TP8 × PP8 × DP = nodes/8,
//! batch 2 × nodes, GPipe) at 64 to 1024 nodes. For each rung it gives
//! the graph size, the event count and the resource visits, all exact;
//! the median host time per iteration with its sample count; and, from
//! as many observed iterations, the mean graph-build, event-loop and
//! remaining milliseconds (the build and loop from the sums of the
//! `sim.build.us`/`sim.run.us` histograms). Run with
//! `cargo run --release -p amped-bench --bin bench_sim`.

use std::sync::Arc;
use std::time::Instant;

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::{AcceleratorSpec, Parallelism, TransformerModel};
use amped_obs::Observer;
use amped_sim::SimConfig;

/// Minimum wall time per rung; the iteration repeats until it is reached.
const MIN_MEASURE_SECS: f64 = 1.0;
/// Minimum timed iterations per rung.
const MIN_RUNS: usize = 5;

const LADDER: [usize; 5] = [64, 128, 256, 512, 1024];

fn rung(model: &TransformerModel, accel: &AcceleratorSpec, nodes: usize) -> serde_json::Value {
    let system = systems::a100_hdr_cluster(nodes, 8);
    let p = Parallelism::builder()
        .tp(8, 1)
        .pp(1, 8)
        .dp(1, nodes / 8)
        .build()
        .expect("ladder mapping is valid");
    let config =
        SimConfig::new(model, accel, &system, &p).with_efficiency(efficiency::case_study());
    let batch = 2 * nodes;

    // One observed iteration for the exact counts (and to warm up).
    let obs = Arc::new(Observer::new());
    config
        .clone()
        .with_observer(Arc::clone(&obs))
        .simulate_iteration(batch)
        .expect("ladder rung simulates");
    let c = obs.counters();
    let events = c["sim.des.events_processed"];

    // Timed iterations run without an observer.
    let mut samples = Vec::new();
    let mut elapsed = 0.0;
    while elapsed < MIN_MEASURE_SECS || samples.len() < MIN_RUNS {
        let start = Instant::now();
        std::hint::black_box(config.simulate_iteration(batch).expect("simulates"));
        let t = start.elapsed().as_secs_f64();
        samples.push(t);
        elapsed += t;
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];

    // The same number of observed iterations split host time into the
    // graph build, the event loop, and the rest of `simulate_iteration`.
    let traced = Arc::new(Observer::new());
    let start = Instant::now();
    for _ in 0..samples.len() {
        let observed = config.clone().with_observer(Arc::clone(&traced));
        std::hint::black_box(observed.simulate_iteration(batch).expect("simulates"));
    }
    let traced_ms = start.elapsed().as_secs_f64() * 1e3 / samples.len() as f64;
    let histograms = traced.histograms();
    let phase_ms =
        |phase: &str| histograms[&format!("{phase}.us")].sum as f64 / 1e3 / samples.len() as f64;
    let (build_ms, run_ms) = (phase_ms("sim.build"), phase_ms("sim.run"));
    println!(
        "n{nodes}: {events} events, {:.2} ms/iteration (median of {}), {:.0} events/s; \
         traced: build {build_ms:.2} ms + run {run_ms:.2} ms of {traced_ms:.2} ms",
        median * 1e3,
        samples.len(),
        events as f64 / median
    );
    serde_json::json!({
        "nodes": nodes,
        "devices": p.dp() * p.pp(),
        "tasks": c["sim.graph.tasks"],
        "edges": c["sim.graph.edges"],
        "events": events,
        "resource_visits": c["sim.des.resource_visits"],
        "host_ms_per_iteration": median * 1e3,
        "runs": samples.len(),
        "events_per_sec": events as f64 / median,
        "traced_ms_per_iteration": traced_ms,
        "build_ms": build_ms,
        "run_ms": run_ms,
        "other_ms": traced_ms - build_ms - run_ms,
    })
}

fn main() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rungs: Vec<_> = LADDER.iter().map(|&n| rung(&model, &a100, n)).collect();
    let report = serde_json::json!({
        "benchmark": "sim/dp_ladder",
        "fixture": "megatron_145b on a100_hdr_cluster(nodes, 8), TP8 x PP8 x DP nodes/8, \
                    batch 2 x nodes, GPipe, case-study efficiency",
        "nproc": nproc,
        "timing": "host_ms_per_iteration: median of simulate_iteration without an observer; \
                   build/run/other_ms: means over as many observed iterations \
                   (build and run from the sim.build.us/sim.run.us histogram sums)",
        "rungs": rungs,
    });
    let text = serde_json::to_string_pretty(&report).expect("serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, format!("{text}\n")).expect("writes BENCH_sim.json");
    println!("{text}");
}
