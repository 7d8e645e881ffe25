//! Activity timelines — the simulator's substitute for the paper's Fig. 1
//! `nvidia-smi` utilization traces.

use serde::{Deserialize, Serialize};

/// What a device was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// The compute unit was busy with training math.
    Compute,
    /// A send port was busy.
    Comm,
    /// The device was draining a checkpoint snapshot to storage.
    Checkpoint,
    /// The device was redoing work discarded by a fault restart.
    Recompute,
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Device index.
    pub device: usize,
    /// Activity kind.
    pub activity: Activity,
    /// Start time in seconds.
    pub start_s: f64,
    /// End time in seconds.
    pub end_s: f64,
    /// Label of the task that produced the interval.
    pub label: &'static str,
}

/// The recorded activity of all devices over a run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
    num_devices: usize,
    makespan_s: f64,
}

impl Timeline {
    /// An empty timeline over `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        Timeline::with_capacity(num_devices, 0)
    }

    /// An empty timeline over `num_devices` devices with room for
    /// `entries` intervals.
    pub fn with_capacity(num_devices: usize, entries: usize) -> Self {
        Timeline {
            entries: Vec::with_capacity(entries),
            num_devices,
            makespan_s: 0.0,
        }
    }

    /// Record an interval.
    pub fn push(
        &mut self,
        device: usize,
        activity: Activity,
        start_s: f64,
        end_s: f64,
        label: &'static str,
    ) {
        debug_assert!(end_s >= start_s, "interval must not be reversed");
        self.entries.push(TimelineEntry {
            device,
            activity,
            start_s,
            end_s,
            label,
        });
    }

    /// Set the run makespan (done by the simulator at the end).
    pub fn set_makespan(&mut self, makespan_s: f64) {
        self.makespan_s = makespan_s;
    }

    /// The run makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.makespan_s
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// All recorded intervals, in start order of recording.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Compute utilization of `device` sampled into `buckets` equal time
    /// bins over the makespan — a discrete `nvidia-smi`-style trace.
    pub fn utilization_trace(&self, device: usize, buckets: usize) -> Vec<f64> {
        let mut trace = vec![0.0; buckets.max(1)];
        if self.makespan_s <= 0.0 || buckets == 0 {
            return trace;
        }
        let width = self.makespan_s / buckets as f64;
        for e in &self.entries {
            if e.device != device || e.activity != Activity::Compute {
                continue;
            }
            let first = ((e.start_s / width).floor() as usize).min(buckets - 1);
            let last = ((e.end_s / width).ceil() as usize).min(buckets);
            for (b, slot) in trace.iter_mut().enumerate().take(last).skip(first) {
                let lo = (b as f64 * width).max(e.start_s);
                let hi = ((b + 1) as f64 * width).min(e.end_s);
                if hi > lo {
                    *slot += (hi - lo) / width;
                }
            }
        }
        for v in &mut trace {
            *v = v.min(1.0);
        }
        trace
    }

    /// Render one device's trace as a sparkline string (`" .:-=+*#%@"`).
    pub fn ascii_trace(&self, device: usize, buckets: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        self.utilization_trace(device, buckets)
            .into_iter()
            .map(|u| {
                let idx = (u * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)] as char
            })
            .collect()
    }

    /// Total compute-busy seconds of a device.
    pub fn compute_busy(&self, device: usize) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.device == device && e.activity == Activity::Compute)
            .map(|e| e.end_s - e.start_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_reflects_busy_intervals() {
        let mut t = Timeline::new(1);
        t.push(0, Activity::Compute, 0.0, 5.0, "a");
        t.set_makespan(10.0);
        let trace = t.utilization_trace(0, 10);
        assert!(trace[..5].iter().all(|&u| (u - 1.0).abs() < 1e-9));
        assert!(trace[5..].iter().all(|&u| u == 0.0));
    }

    #[test]
    fn comm_does_not_count_as_compute() {
        let mut t = Timeline::new(1);
        t.push(0, Activity::Comm, 0.0, 10.0, "x");
        t.set_makespan(10.0);
        assert!(t.utilization_trace(0, 4).iter().all(|&u| u == 0.0));
        assert_eq!(t.compute_busy(0), 0.0);
    }

    #[test]
    fn partial_bucket_is_fractional() {
        let mut t = Timeline::new(1);
        t.push(0, Activity::Compute, 0.0, 2.5, "a");
        t.set_makespan(10.0);
        let trace = t.utilization_trace(0, 2); // buckets of 5 s
        assert!((trace[0] - 0.5).abs() < 1e-9);
        assert_eq!(trace[1], 0.0);
    }

    #[test]
    fn ascii_trace_has_requested_width() {
        let mut t = Timeline::new(2);
        t.push(1, Activity::Compute, 0.0, 1.0, "a");
        t.set_makespan(1.0);
        let s = t.ascii_trace(1, 16);
        assert_eq!(s.chars().count(), 16);
        assert!(s.contains('@'));
        let idle = t.ascii_trace(0, 16);
        assert!(idle.chars().all(|c| c == ' '));
    }

    #[test]
    fn empty_timeline_is_safe() {
        let t = Timeline::new(1);
        assert_eq!(t.utilization_trace(0, 4), vec![0.0; 4]);
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.num_devices(), 1);
        assert!(t.entries().is_empty());
    }
}
