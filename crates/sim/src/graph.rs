//! Task graphs: the unit of work the simulator executes.
//!
//! A [`TaskGraph`] is a DAG of [`Task`]s. Compute tasks occupy a device's
//! compute unit for a duration; transfer tasks occupy the sender's port of
//! the named [`LinkClass`] for `latency + bytes/bandwidth`. Dependencies
//! are explicit edges; per-device execution order among ready tasks follows
//! the task priority (its creation index unless overridden), which is how
//! pipeline schedules like 1F1B are expressed.
//!
//! Edges are stored flat (compressed sparse rows): every task's
//! predecessors sit in one shared id array, appended by [`TaskGraph::add`],
//! and the successor lists are derived from them once, on first use, by a
//! counting sort. Building a graph therefore costs O(tasks + edges) time
//! and no allocation per task beyond amortized growth of the flat arrays.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Identifier of a task within its graph (dense, `0..len`).
pub type TaskId = usize;

/// Which link a transfer crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Intra-node fabric (NVLink/NVSwitch/optical substrate).
    Intra,
    /// Inter-node network (per-accelerator NIC share).
    Inter,
}

/// What a task does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Busy a device's compute unit for `duration_s`.
    Compute {
        /// Executing device.
        device: usize,
        /// Busy time in seconds.
        duration_s: f64,
    },
    /// Move `bytes` from `src` to `dst` over `link`.
    Transfer {
        /// Sending device (whose send port serializes the transfer).
        src: usize,
        /// Receiving device.
        dst: usize,
        /// Payload in bytes.
        bytes: f64,
        /// Link class crossed.
        link: LinkClass,
    },
}

/// A node of the task graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Task {
    /// What the task does.
    pub kind: TaskKind,
    /// Per-device ordering key: among *ready* tasks contending for the same
    /// resource, lower priority values start first.
    pub priority: u64,
    /// Human-readable label recorded into the timeline (e.g. `"fwd m3 s1"`).
    pub label: &'static str,
}

/// A DAG of compute and transfer tasks over a set of devices.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// `pred_ids[pred_start[id]..pred_start[id + 1]]` are the deps of `id`,
    /// in the order (and with the duplicates) they were given.
    pred_start: Vec<usize>,
    pred_ids: Vec<TaskId>,
    /// Successor lists in the same layout, ascending with one entry per
    /// edge; derived from the preds on first use, reset by every `add`.
    succs: OnceLock<(Vec<usize>, Vec<TaskId>)>,
    num_devices: usize,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph::new(0)
    }
}

impl TaskGraph {
    /// An empty graph over `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        TaskGraph {
            tasks: Vec::new(),
            pred_start: vec![0],
            pred_ids: Vec::new(),
            succs: OnceLock::new(),
            num_devices,
        }
    }

    /// Number of devices the graph spans.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges: one per dep, duplicates included.
    pub fn num_edges(&self) -> usize {
        self.pred_ids.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task with dependencies `deps`; returns its id. Priority
    /// defaults to the creation index.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is out of range (forward references are
    /// impossible by construction) or a device index is out of range.
    pub fn add(&mut self, kind: TaskKind, label: &'static str, deps: &[TaskId]) -> TaskId {
        let id = self.tasks.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of task {id} does not exist yet");
        }
        match kind {
            TaskKind::Compute { device, duration_s } => {
                assert!(device < self.num_devices, "device {device} out of range");
                assert!(
                    duration_s.is_finite() && duration_s >= 0.0,
                    "compute duration must be non-negative, got {duration_s}"
                );
            }
            TaskKind::Transfer { src, dst, bytes, .. } => {
                assert!(
                    src < self.num_devices && dst < self.num_devices,
                    "transfer endpoints out of range"
                );
                assert!(
                    bytes.is_finite() && bytes >= 0.0,
                    "transfer bytes must be non-negative"
                );
            }
        }
        self.tasks.push(Task {
            kind,
            priority: id as u64,
            label,
        });
        self.pred_ids.extend_from_slice(deps);
        self.pred_start.push(self.pred_ids.len());
        self.succs.take();
        id
    }

    /// Add a task with an explicit priority.
    pub fn add_with_priority(
        &mut self,
        kind: TaskKind,
        label: &'static str,
        deps: &[TaskId],
        priority: u64,
    ) -> TaskId {
        let id = self.add(kind, label, deps);
        self.tasks[id].priority = priority;
        id
    }

    /// The task with id `id`.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Predecessors of `id`, in the order given to [`TaskGraph::add`].
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.pred_ids[self.pred_start[id]..self.pred_start[id + 1]]
    }

    /// Successors of `id` in ascending order, one entry per edge (a task
    /// that lists `id` twice appears twice).
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        let (start, ids) = self.succs.get_or_init(|| self.successor_rows());
        &ids[start[id]..start[id + 1]]
    }

    /// Transpose the pred rows by counting sort: count each task's
    /// out-degree, prefix-sum into row starts, then scatter successors in
    /// ascending task order.
    fn successor_rows(&self) -> (Vec<usize>, Vec<TaskId>) {
        let mut start = vec![0usize; self.tasks.len() + 1];
        for &d in &self.pred_ids {
            start[d + 1] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            sum += *s;
            *s = sum;
        }
        let mut next = start.clone();
        let mut ids = vec![0; self.pred_ids.len()];
        for id in 0..self.tasks.len() {
            for &d in self.preds(id) {
                ids[next[d]] = id;
                next[d] += 1;
            }
        }
        (start, ids)
    }

    /// Total compute seconds per device (lower bound on its busy time).
    pub fn compute_load(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.num_devices];
        for t in &self.tasks {
            if let TaskKind::Compute { device, duration_s } = t.kind {
                load[device] += duration_s;
            }
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_chain() {
        let mut g = TaskGraph::new(2);
        let a = g.add(
            TaskKind::Compute {
                device: 0,
                duration_s: 1.0,
            },
            "a",
            &[],
        );
        let t = g.add(
            TaskKind::Transfer {
                src: 0,
                dst: 1,
                bytes: 1e6,
                link: LinkClass::Intra,
            },
            "t",
            &[a],
        );
        let b = g.add(
            TaskKind::Compute {
                device: 1,
                duration_s: 2.0,
            },
            "b",
            &[t],
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.preds(b), &[t]);
        assert_eq!(g.succs(a), &[t]);
        let load = g.compute_load();
        assert_eq!(load, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new(1);
        g.add(
            TaskKind::Compute {
                device: 0,
                duration_s: 1.0,
            },
            "x",
            &[5],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_rejected() {
        let mut g = TaskGraph::new(1);
        g.add(
            TaskKind::Compute {
                device: 3,
                duration_s: 1.0,
            },
            "x",
            &[],
        );
    }

    #[test]
    fn priority_defaults_to_creation_order() {
        let mut g = TaskGraph::new(1);
        let a = g.add(
            TaskKind::Compute {
                device: 0,
                duration_s: 1.0,
            },
            "a",
            &[],
        );
        let b = g.add_with_priority(
            TaskKind::Compute {
                device: 0,
                duration_s: 1.0,
            },
            "b",
            &[],
            0,
        );
        assert_eq!(g.task(a).priority, 0);
        assert_eq!(g.task(b).priority, 0);
        assert!(!g.is_empty());
    }
}
