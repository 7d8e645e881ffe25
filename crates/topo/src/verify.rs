//! Structural checks over [`Schedule`]s, used by tests and by the simulator's
//! debug assertions.

use crate::schedule::Schedule;

/// A violation found by [`check_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// A transfer names a rank outside `0..num_ranks`.
    RankOutOfRange {
        /// The offending rank id.
        rank: usize,
        /// The number of ranks the schedule declares.
        num_ranks: usize,
    },
    /// A transfer sends a payload to its own source.
    SelfTransfer {
        /// The rank sending to itself.
        rank: usize,
    },
    /// Steps are not contiguous from zero (a gap means dead barrier phases).
    NonContiguousSteps {
        /// First missing step index.
        missing: usize,
    },
    /// A transfer's step is lower than the step of the transfer before it,
    /// breaking the ascending order [`Schedule::steps`] groups by.
    StepsOutOfOrder {
        /// Position of the offending transfer in the transfer list.
        index: usize,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::RankOutOfRange { rank, num_ranks } => {
                write!(f, "rank {rank} out of range (num_ranks = {num_ranks})")
            }
            ScheduleViolation::SelfTransfer { rank } => {
                write!(f, "rank {rank} transfers to itself")
            }
            ScheduleViolation::NonContiguousSteps { missing } => {
                write!(f, "step {missing} has no transfers but later steps do")
            }
            ScheduleViolation::StepsOutOfOrder { index } => {
                write!(
                    f,
                    "transfer {index} has a lower step than the transfer before it"
                )
            }
        }
    }
}

/// Check a schedule for structural violations. Returns all violations found
/// (empty means the schedule is well-formed).
///
/// # Example
///
/// ```
/// use amped_topo::{verify::check_schedule, Schedule};
/// assert!(check_schedule(&Schedule::ring_all_reduce(8, 1 << 20)).is_empty());
/// ```
pub fn check_schedule(schedule: &Schedule) -> Vec<ScheduleViolation> {
    let mut violations = Vec::new();
    let n = schedule.num_ranks();
    let mut seen_steps = vec![false; schedule.num_steps()];
    let mut last_step = 0;
    for (index, t) in schedule.transfers().iter().enumerate() {
        if t.step < last_step {
            violations.push(ScheduleViolation::StepsOutOfOrder { index });
        }
        last_step = t.step;
        if t.src >= n {
            violations.push(ScheduleViolation::RankOutOfRange {
                rank: t.src,
                num_ranks: n,
            });
        }
        if t.dst >= n {
            violations.push(ScheduleViolation::RankOutOfRange {
                rank: t.dst,
                num_ranks: n,
            });
        }
        if t.src == t.dst {
            violations.push(ScheduleViolation::SelfTransfer { rank: t.src });
        }
        if t.step < seen_steps.len() {
            seen_steps[t.step] = true;
        }
    }
    if let Some(missing) = seen_steps.iter().position(|&s| !s) {
        violations.push(ScheduleViolation::NonContiguousSteps { missing });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TransferStep;

    #[test]
    fn builtin_schedules_are_well_formed() {
        for n in [2usize, 3, 7, 16] {
            for s in [
                Schedule::ring_all_reduce(n, 4096),
                Schedule::ring_reduce_scatter(n, 4096),
                Schedule::ring_all_gather(n, 4096),
                Schedule::pairwise_all_to_all(n, 4096),
                Schedule::tree_broadcast(n, 4096),
            ] {
                assert!(check_schedule(&s).is_empty(), "n={n} schedule={s:?}");
            }
        }
    }

    #[test]
    fn detects_self_transfer() {
        let s = Schedule::point_to_point(3, 3, 10);
        let v = check_schedule(&s);
        assert!(v.contains(&ScheduleViolation::SelfTransfer { rank: 3 }));
    }

    #[test]
    fn violation_messages_are_nonempty() {
        let v = ScheduleViolation::RankOutOfRange {
            rank: 9,
            num_ranks: 4,
        };
        assert!(v.to_string().contains("9"));
    }

    #[test]
    fn detects_step_gap() {
        // Hand-build a schedule with a gap by serializing through serde.
        let json = serde_json::json!({
            "transfers": [
                {"step": 0, "src": 0, "dst": 1, "bytes": 1},
                {"step": 2, "src": 1, "dst": 0, "bytes": 1}
            ],
            "num_ranks": 2
        });
        let s: Schedule = serde_json::from_value(json).unwrap();
        let v = check_schedule(&s);
        assert!(v.contains(&ScheduleViolation::NonContiguousSteps { missing: 1 }));
        let _ = TransferStep {
            step: 0,
            src: 0,
            dst: 1,
            bytes: 1,
        };
    }

    #[test]
    fn detects_steps_out_of_order() {
        let json = serde_json::json!({
            "transfers": [
                {"step": 0, "src": 0, "dst": 1, "bytes": 1},
                {"step": 1, "src": 1, "dst": 0, "bytes": 1},
                {"step": 0, "src": 1, "dst": 0, "bytes": 1}
            ],
            "num_ranks": 2
        });
        let s: Schedule = serde_json::from_value(json).unwrap();
        assert_eq!(
            check_schedule(&s),
            vec![ScheduleViolation::StepsOutOfOrder { index: 2 }]
        );
        assert!(ScheduleViolation::StepsOutOfOrder { index: 2 }
            .to_string()
            .contains('2'));
    }
}
