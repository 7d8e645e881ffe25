//! Differential test of the event loop against a full-scan oracle.
//!
//! The executor dispatches only the resources a finish event touched. The
//! oracle below is the straightforward loop it replaced: after every event
//! it scans every resource in index order and starts whatever it can. Both
//! must agree exactly — makespan bits, every `DeviceStats` field, byte
//! totals and the timeline entry for entry — on random DAGs that mix
//! compute and transfer tasks, tie on priorities and finish times, fan out
//! onto one resource, and run under stragglers and link-fault windows.
//!
//! The oracle lives only here; the simulator keeps no second path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use amped_sim::des::NetworkParams;
use amped_sim::{
    Activity, DeviceStats, FaultSchedule, LinkClass, LinkFault, SimOutcome, Simulator, SplitMix64,
    TaskGraph, TaskKind, Timeline,
};
use proptest::prelude::*;

fn network() -> NetworkParams {
    NetworkParams {
        intra_latency_s: 1e-6,
        intra_bw_bps: 8e9,
        inter_latency_s: 1e-5,
        inter_bw_bps: 8e8,
    }
}

// ---------------------------------------------------------------------------
// The oracle: one full scan over every resource after every event.
// ---------------------------------------------------------------------------

const RES_PER_DEVICE: usize = 3;

fn resource_of(kind: &TaskKind) -> usize {
    match *kind {
        TaskKind::Compute { device, .. } => RES_PER_DEVICE * device,
        TaskKind::Transfer {
            src,
            link: LinkClass::Intra,
            ..
        } => RES_PER_DEVICE * src + 1,
        TaskKind::Transfer {
            src,
            link: LinkClass::Inter,
            ..
        } => RES_PER_DEVICE * src + 2,
    }
}

fn transfer_time(net: &NetworkParams, bytes: f64, link: LinkClass) -> f64 {
    let (lat, bw) = match link {
        LinkClass::Intra => (net.intra_latency_s, net.intra_bw_bps),
        LinkClass::Inter => (net.inter_latency_s, net.inter_bw_bps),
    };
    lat + bytes * 8.0 / bw
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct EventTime(f64);

impl Eq for EventTime {}

impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite event times")
    }
}

type Queues = Vec<BinaryHeap<Reverse<(u64, usize)>>>;
type Events = BinaryHeap<Reverse<(EventTime, u64, usize, usize)>>;

#[allow(clippy::too_many_arguments)]
fn full_scan_dispatch(
    graph: &TaskGraph,
    net: &NetworkParams,
    faults: Option<&FaultSchedule>,
    record_timeline: bool,
    now: f64,
    queues: &mut Queues,
    busy: &mut [bool],
    events: &mut Events,
    seq: &mut u64,
    stats: &mut [DeviceStats],
    timeline: &mut Timeline,
) {
    for res in 0..queues.len() {
        while !busy[res] {
            let Some(Reverse((_, task))) = queues[res].pop() else {
                break;
            };
            let t = graph.task(task);
            let base = match t.kind {
                TaskKind::Compute { duration_s, .. } => duration_s,
                TaskKind::Transfer { bytes, link, .. } => transfer_time(net, bytes, link),
            };
            let dur = match faults {
                None => base,
                Some(f) => f.adjust(&t.kind, base, now),
            };
            busy[res] = true;
            *seq += 1;
            events.push(Reverse((EventTime(now + dur), *seq, res, task)));
            match t.kind {
                TaskKind::Compute { device, .. } => {
                    stats[device].compute_busy_s += dur;
                    if record_timeline {
                        let activity = if t.label == "ckpt" {
                            Activity::Checkpoint
                        } else {
                            Activity::Compute
                        };
                        timeline.push(device, activity, now, now + dur, t.label);
                    }
                }
                TaskKind::Transfer { src, .. } => {
                    stats[src].comm_busy_s += dur;
                    if record_timeline {
                        timeline.push(src, Activity::Comm, now, now + dur, t.label);
                    }
                }
            }
        }
    }
}

fn full_scan_run(
    graph: &TaskGraph,
    net: &NetworkParams,
    faults: Option<&FaultSchedule>,
    record_timeline: bool,
) -> SimOutcome {
    let n_tasks = graph.len();
    let n_devices = graph.num_devices();
    let mut pending: Vec<usize> = (0..n_tasks).map(|t| graph.preds(t).len()).collect();
    let mut queues: Queues = (0..n_devices * RES_PER_DEVICE)
        .map(|_| BinaryHeap::new())
        .collect();
    let mut busy = vec![false; n_devices * RES_PER_DEVICE];
    let mut events: Events = BinaryHeap::new();
    let mut seq = 0u64;
    let mut stats = vec![DeviceStats::default(); n_devices];
    let mut timeline = Timeline::new(n_devices);
    let (mut intra_bytes, mut inter_bytes) = (0.0f64, 0.0f64);
    for t in graph.tasks() {
        if let TaskKind::Transfer { bytes, link, .. } = t.kind {
            match link {
                LinkClass::Intra => intra_bytes += bytes,
                LinkClass::Inter => inter_bytes += bytes,
            }
        }
    }
    let mut now = 0.0f64;
    for t in 0..n_tasks {
        if pending[t] == 0 {
            queues[resource_of(&graph.task(t).kind)].push(Reverse((graph.task(t).priority, t)));
        }
    }
    full_scan_dispatch(
        graph,
        net,
        faults,
        record_timeline,
        now,
        &mut queues,
        &mut busy,
        &mut events,
        &mut seq,
        &mut stats,
        &mut timeline,
    );
    while let Some(Reverse((time, _, res, task))) = events.pop() {
        now = time.0;
        busy[res] = false;
        let device = match graph.task(task).kind {
            TaskKind::Compute { device, .. } => device,
            TaskKind::Transfer { dst, .. } => dst,
        };
        stats[device].last_finish_s = stats[device].last_finish_s.max(now);
        if let TaskKind::Transfer { src, .. } = graph.task(task).kind {
            stats[src].last_finish_s = stats[src].last_finish_s.max(now);
        }
        for &succ in graph.succs(task) {
            pending[succ] -= 1;
            if pending[succ] == 0 {
                let t = graph.task(succ);
                queues[resource_of(&t.kind)].push(Reverse((t.priority, succ)));
            }
        }
        full_scan_dispatch(
            graph,
            net,
            faults,
            record_timeline,
            now,
            &mut queues,
            &mut busy,
            &mut events,
            &mut seq,
            &mut stats,
            &mut timeline,
        );
    }
    timeline.set_makespan(now);
    SimOutcome {
        makespan_s: now,
        device_stats: stats,
        timeline,
        intra_bytes,
        inter_bytes,
    }
}

// ---------------------------------------------------------------------------
// Random workloads.
// ---------------------------------------------------------------------------

const LABELS: [&str; 5] = ["fwd", "bwd", "gsync", "send", "ckpt"];

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[below(rng, xs.len())]
}

fn one_in(rng: &mut SplitMix64, n: usize) -> bool {
    below(rng, n) == 0
}

/// A random DAG over `devices` devices. Durations and byte counts come
/// from small sets so finish times tie often; priorities come from a small
/// range so queue order ties too; every few tasks a hub fans out to
/// several successors on one device.
fn random_graph(seed: u64, devices: usize, n_tasks: usize) -> TaskGraph {
    let mut rng = SplitMix64::new(seed);
    let mut g = TaskGraph::new(devices);
    while g.len() < n_tasks {
        let id = g.len();
        let mut deps = Vec::new();
        if id > 0 {
            for _ in 0..below(&mut rng, 4) {
                // Duplicate dependencies are legal and exercised too.
                deps.push(below(&mut rng, id));
            }
        }
        let kind = random_kind(&mut rng, devices);
        let label = pick(&mut rng, &LABELS);
        let task = if one_in(&mut rng, 2) {
            g.add(kind, label, &deps)
        } else {
            g.add_with_priority(kind, label, &deps, rng.next_u64() % 4)
        };
        if one_in(&mut rng, 5) {
            // Fan-out: several successors of one task on one resource.
            let device = below(&mut rng, devices);
            for _ in 0..2 + below(&mut rng, 4) {
                let kind = if one_in(&mut rng, 2) {
                    TaskKind::Compute {
                        device,
                        duration_s: pick(&mut rng, &[0.0, 0.25, 0.5, 1.0]),
                    }
                } else {
                    TaskKind::Transfer {
                        src: device,
                        dst: below(&mut rng, devices),
                        bytes: pick(&mut rng, &[0.0, 1e6, 4e6]),
                        link: LinkClass::Intra,
                    }
                };
                g.add_with_priority(kind, "fan", &[task], rng.next_u64() % 3);
            }
        }
    }
    g
}

fn random_kind(rng: &mut SplitMix64, devices: usize) -> TaskKind {
    if one_in(rng, 3) {
        TaskKind::Transfer {
            src: below(rng, devices),
            dst: below(rng, devices),
            bytes: pick(rng, &[0.0, 1e5, 1e6, 8e6]),
            link: pick(rng, &[LinkClass::Intra, LinkClass::Inter]),
        }
    } else {
        TaskKind::Compute {
            device: below(rng, devices),
            duration_s: pick(rng, &[0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
        }
    }
}

/// Stragglers on some devices and degraded-link windows on some ports.
fn random_faults(seed: u64, devices: usize) -> FaultSchedule {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_fa17);
    let compute_slowdown = (0..devices)
        .map(|_| pick(&mut rng, &[1.0, 1.0, 1.5, 2.0, 3.7]))
        .collect();
    let link_faults = (0..below(&mut rng, 4))
        .map(|_| {
            let from_s = pick(&mut rng, &[0.0, 0.25, 0.5, 1.0, 2.0]);
            LinkFault {
                device: below(&mut rng, devices),
                link: pick(&mut rng, &[LinkClass::Intra, LinkClass::Inter]),
                factor: pick(&mut rng, &[1.0, 2.0, 10.0]),
                from_s,
                until_s: from_s + pick(&mut rng, &[0.25, 1.0, f64::INFINITY]),
            }
        })
        .collect();
    FaultSchedule {
        compute_slowdown,
        link_faults,
    }
}

fn assert_identical(got: &SimOutcome, want: &SimOutcome) -> Result<(), String> {
    prop_assert_eq!(got.makespan_s.to_bits(), want.makespan_s.to_bits());
    prop_assert_eq!(got.intra_bytes.to_bits(), want.intra_bytes.to_bits());
    prop_assert_eq!(got.inter_bytes.to_bits(), want.inter_bytes.to_bits());
    prop_assert_eq!(got.device_stats.len(), want.device_stats.len());
    for (d, (g, w)) in got.device_stats.iter().zip(&want.device_stats).enumerate() {
        prop_assert_eq!(
            [g.compute_busy_s, g.comm_busy_s, g.last_finish_s].map(f64::to_bits),
            [w.compute_busy_s, w.comm_busy_s, w.last_finish_s].map(f64::to_bits),
            "device {} stats differ: {:?} vs {:?}",
            d,
            g,
            w
        );
    }
    let (ge, we) = (got.timeline.entries(), want.timeline.entries());
    prop_assert_eq!(ge.len(), we.len());
    for (i, (g, w)) in ge.iter().zip(we).enumerate() {
        prop_assert!(
            g.device == w.device
                && g.activity == w.activity
                && g.label == w.label
                && g.start_s.to_bits() == w.start_s.to_bits()
                && g.end_s.to_bits() == w.end_s.to_bits(),
            "timeline entry {} differs: {:?} vs {:?}",
            i,
            g,
            w
        );
    }
    prop_assert_eq!(
        got.timeline.makespan().to_bits(),
        want.timeline.makespan().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executor_matches_full_scan_oracle(
        seed in 0u64..u64::MAX,
        devices in 1usize..=6,
        n_tasks in 1usize..=80,
    ) {
        let graph = random_graph(seed, devices, n_tasks);
        let net = network();
        let got = Simulator::new(net).run(&graph);
        assert_identical(&got, &full_scan_run(&graph, &net, None, true))?;
    }

    #[test]
    fn executor_matches_full_scan_oracle_under_faults(
        seed in 0u64..u64::MAX,
        devices in 1usize..=6,
        n_tasks in 1usize..=80,
    ) {
        let graph = random_graph(seed, devices, n_tasks);
        let faults = random_faults(seed, devices);
        let net = network();
        let got = Simulator::new(net)
            .with_fault_schedule(faults.clone())
            .run(&graph);
        assert_identical(&got, &full_scan_run(&graph, &net, Some(&faults), true))?;
        let untimed = Simulator::new(net)
            .with_fault_schedule(faults.clone())
            .without_timeline()
            .run(&graph);
        assert_identical(&untimed, &full_scan_run(&graph, &net, Some(&faults), false))?;
    }
}
