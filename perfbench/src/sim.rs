//! The simulator workloads: one op is one `SimConfig::simulate_iteration`.
//!
//! * `sim-dp-ladder` grows data parallelism (megatron-145b, TP8 intra ×
//!   PP8 inter × DP = nodes/8 at 64…512 nodes), so the exact ring
//!   all-reduce and its `amped-topo` schedules dominate the event loop.
//! * `sim-pp-deep` runs the same event loop with no DP collectives
//!   (gpt3-175b, TP8 × PP12, DP 1) over deep GPipe and 1F1B pipelines.
//!
//! Each pass runs every rung `weight` times in a seeded order. The weights
//! keep the median and the tail percentile inside one rung's samples rather
//! than on the boundary between two rungs, so they do not flip run to run.

use std::sync::Arc;
use std::time::Instant;

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::{
    AcceleratorSpec, EfficiencyModel, MicrobatchPolicy, Parallelism, SystemSpec, TransformerModel,
};
use amped_obs::Observer;
use amped_sim::{PipelineSchedule, SimConfig, SimResult};
use amped_topo::Schedule;

use crate::common::{
    ensure, ratio, repeat_setup, secs, shuffle, EndToEnd, Fallible, Metric, OpClock, Outcome,
    RunOptions, SplitMix64, Timebase, P90,
};

pub struct Rung {
    pub name: String,
    model: TransformerModel,
    system: SystemSpec,
    parallelism: Parallelism,
    schedule: PipelineSchedule,
    batch: usize,
    weight: usize,
}

/// What every repeat of a rung must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    iteration_time: u64,
    intra_bytes: u64,
    inter_bytes: u64,
}

impl Fingerprint {
    fn of(r: &SimResult) -> Self {
        Fingerprint {
            iteration_time: r.iteration_time.to_bits(),
            intra_bytes: r.intra_bytes.to_bits(),
            inter_bytes: r.inter_bytes.to_bits(),
        }
    }
}

/// The DP ladder: 64/128/256/512 nodes, batch 2 × nodes.
pub fn dp_ladder() -> Vec<Rung> {
    [(64, 4), (128, 3), (256, 1), (512, 2)]
        .into_iter()
        .map(|(nodes, weight)| Rung {
            name: format!("n{nodes}"),
            model: models::megatron_145b(),
            system: systems::a100_hdr_cluster(nodes, 8),
            parallelism: Parallelism::builder()
                .tp(8, 1)
                .pp(1, 8)
                .dp(1, nodes / 8)
                .build()
                .expect("ladder mapping is valid"),
            schedule: PipelineSchedule::GPipe,
            batch: 2 * nodes,
            weight,
        })
        .collect()
}

/// The deep pipeline: one-sample microbatches, 96/384/1536 of them.
pub fn pp_deep() -> Vec<Rung> {
    let mut rungs = Vec::new();
    for (schedule, tag) in [
        (PipelineSchedule::GPipe, "gpipe"),
        (PipelineSchedule::OneFOneB, "1f1b"),
    ] {
        for microbatches in [96, 384, 1536] {
            let weight = if microbatches == 384 && tag == "gpipe" {
                2
            } else {
                1
            };
            rungs.push(Rung {
                name: format!("{tag}-mb{microbatches}"),
                model: models::gpt3_175b(),
                system: systems::a100_hdr_cluster(12, 8),
                parallelism: Parallelism::builder()
                    .tp(8, 1)
                    .pp(1, 12)
                    .microbatches(MicrobatchPolicy::TargetMicrobatch(1))
                    .build()
                    .expect("deep-pipeline mapping is valid"),
                schedule,
                batch: microbatches,
                weight,
            });
        }
    }
    rungs
}

struct Bench {
    accel: AcceleratorSpec,
    efficiency: EfficiencyModel,
}

impl Bench {
    fn config<'a>(&'a self, r: &'a Rung) -> SimConfig<'a> {
        SimConfig::new(&r.model, &self.accel, &r.system, &r.parallelism)
            .with_efficiency(self.efficiency.clone())
            .with_schedule(r.schedule)
    }

    /// One iteration with an observer: the result and what the simulator
    /// ran, counted exactly.
    fn observed(&self, r: &Rung) -> Fallible<(SimResult, Counts)> {
        let obs = Arc::new(Observer::new());
        let result = self
            .config(r)
            .with_observer(Arc::clone(&obs))
            .simulate_iteration(r.batch)
            .map_err(|e| format!("{}: {e}", r.name))?;
        let counts = Counts {
            events: obs
                .counters()
                .get("sim.des.events_processed")
                .copied()
                .unwrap_or(0),
            // Every gradient-sync transfer the event loop ran leaves one
            // timeline interval labelled `gsync…`.
            grad_sync_transfers: result
                .timeline
                .entries()
                .iter()
                .filter(|e| e.label.starts_with("gsync"))
                .count() as u64,
        };
        Ok((result, counts))
    }
}

/// Exact counts of one observed iteration; every traced repeat of a rung
/// must reproduce them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// Events the discrete-event loop processed.
    events: u64,
    /// Gradient-sync transfers the simulator ran.
    grad_sync_transfers: u64,
}

/// The reference repeat of every rung: its fingerprint and exact counts.
fn setup(bench: &Bench, rungs: &[Rung]) -> Fallible<Vec<(Fingerprint, Counts)>> {
    rungs
        .iter()
        .map(|r| {
            let (result, counts) = bench.observed(r)?;
            ensure(counts.events > 0, || {
                format!("{}: no events processed", r.name)
            })?;
            Ok((Fingerprint::of(&result), counts))
        })
        .collect()
}

/// Payload of the timed ring schedules. A schedule's transfer list, and so
/// its build cost, depends on the rank count alone.
const RING_BYTES: u64 = 1 << 30;

#[derive(Default, Clone)]
struct RungLayers {
    host_s: f64,
    ops: u64,
    events: u64,
    grad_sync_transfers: u64,
    ring_schedule_s: f64,
}

/// Run the rungs; set-up (one reference repeat of every rung) is timed
/// `setup_reps` times.
pub fn run(
    rungs: Vec<Rung>,
    setup_reps: usize,
    opts: &RunOptions,
    traced: bool,
) -> Fallible<Outcome> {
    let bench = Bench {
        accel: accelerators::a100(),
        efficiency: efficiency::case_study(),
    };
    let (reference, setup_s) =
        repeat_setup(setup_reps, Timebase::Reference, || setup(&bench, &rungs))?;
    let mut rng = SplitMix64::new(opts.seed);
    let mut layers = vec![RungLayers::default(); rungs.len()];
    let mut order: Vec<usize> = Vec::new();
    for (i, r) in rungs.iter().enumerate() {
        order.extend(std::iter::repeat_n(i, r.weight));
    }
    let mut clock = OpClock::new(Timebase::Reference);
    while clock.now() < opts.seconds {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let r = &rungs[i];
            let (expect, expect_counts) = reference[i];
            let began = clock.now();
            if traced {
                let (result, counts) = bench.observed(r)?;
                let host = clock.record(began);
                ensure(Fingerprint::of(&result) == expect, || {
                    format!("{}: iteration time or bytes differ across repeats", r.name)
                })?;
                ensure(counts == expect_counts, || {
                    format!("{}: counts {counts:?} != {expect_counts:?}", r.name)
                })?;
                let l = &mut layers[i];
                l.host_s += host;
                l.ops += 1;
                l.events += counts.events;
                l.grad_sync_transfers += counts.grad_sync_transfers;
                // The flat DP ring schedule, built once per pipeline stage.
                let t = Instant::now();
                for _ in 0..r.parallelism.pp() {
                    std::hint::black_box(Schedule::ring_all_reduce(r.parallelism.dp(), RING_BYTES));
                }
                l.ring_schedule_s += secs(t);
            } else {
                let result = bench
                    .config(r)
                    .simulate_iteration(r.batch)
                    .map_err(|e| format!("{}: {e}", r.name))?;
                clock.record(began);
                ensure(Fingerprint::of(&result) == expect, || {
                    format!("{}: iteration time or bytes differ across repeats", r.name)
                })?;
            }
            clock.tick();
        }
    }
    let speed = clock.speed_note();
    let ops = clock.finish();
    let e2e = EndToEnd {
        ops: &ops,
        timebase: Timebase::Reference,
        pass_ops: order.len(),
        setup_s: &setup_s,
        tail: P90,
    };
    let mut metrics = e2e.metrics();
    let mut notes = vec![
        format!(
            "rungs (runs per pass): {}",
            rungs
                .iter()
                .zip(&reference)
                .map(|(r, (_, c))| format!("{} x{} ({} events)", r.name, r.weight, c.events))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        e2e.note(),
    ];
    notes.extend(speed);
    if traced {
        metrics.extend(layer_metrics(&rungs, &layers));
    } else {
        let pass_events: u64 = rungs
            .iter()
            .zip(&reference)
            .map(|(r, (_, c))| c.events * r.weight as u64)
            .sum();
        let passes = (ops.len() / order.len()) as u64;
        let sim_s: f64 = ops.iter().map(|o| o.1 - o.0).sum();
        notes.push(format!(
            "events_per_s {:.0} 1/s (n={} events over {passes} passes)",
            ratio((pass_events * passes) as f64, sim_s),
            pass_events * passes
        ));
    }
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed: 0,
        metrics,
        notes,
    })
}

/// The per-layer metrics of a traced run over `rungs`.
fn layer_metrics(rungs: &[Rung], layers: &[RungLayers]) -> Vec<Metric> {
    let (host, events): (f64, u64) = layers
        .iter()
        .fold((0.0, 0), |(h, e), l| (h + l.host_s, e + l.events));
    let mut out = vec![Metric::new(
        "sim.events_per_s",
        ratio(events as f64, host),
        "1/s",
        events,
    )];
    for (r, l) in rungs.iter().zip(layers) {
        let n = &r.name;
        out.push(Metric::new(
            format!("sim.host_ms.{n}"),
            ratio(l.host_s * 1e3, l.ops as f64),
            "ms",
            l.ops,
        ));
        out.push(Metric::new(
            format!("sim.us_per_event.{n}"),
            ratio(l.host_s * 1e6, l.events as f64),
            "us",
            l.events,
        ));
        out.push(Metric::new(
            format!("sim.events.{n}"),
            ratio(l.events as f64, l.ops as f64),
            "count",
            l.ops,
        ));
        out.push(Metric::new(
            format!("topo.ring_transfers.{n}"),
            ratio(l.grad_sync_transfers as f64, l.ops as f64),
            "count",
            l.ops,
        ));
        out.push(Metric::new(
            format!("topo.ring_schedule_us.{n}"),
            ratio(l.ring_schedule_s * 1e6, l.ops as f64),
            "us",
            l.ops,
        ));
    }
    out
}

/// The per-layer metrics of `rungs` with nothing measured (all zero).
pub fn layer_catalog(rungs: &[Rung]) -> Vec<Metric> {
    layer_metrics(rungs, &vec![RungLayers::default(); rungs.len()])
}
