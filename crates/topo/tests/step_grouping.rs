//! `Schedule::steps` groups transfers in one linear pass, relying on the
//! schedule invariant that transfers are stored in ascending step order.
//! Every constructor must keep that invariant (`check_schedule` is empty)
//! and the linear grouping must yield exactly the `(step, transfers)`
//! groups of the filter-per-step grouping it replaced, kept here as the
//! oracle.

use amped_topo::{verify::check_schedule, Schedule, TransferStep};
use proptest::prelude::*;

/// The old grouping: one filter over every transfer per step.
fn filter_grouping(s: &Schedule) -> Vec<(usize, Vec<TransferStep>)> {
    (0..s.num_steps())
        .map(|step| {
            let batch = s
                .transfers()
                .iter()
                .copied()
                .filter(|t| t.step == step)
                .collect();
            (step, batch)
        })
        .collect()
}

fn constructors(n: usize, bytes: u64) -> Vec<(&'static str, Schedule)> {
    let mut all = vec![
        ("ring_all_reduce", Schedule::ring_all_reduce(n, bytes)),
        (
            "ring_reduce_scatter",
            Schedule::ring_reduce_scatter(n, bytes),
        ),
        ("ring_all_gather", Schedule::ring_all_gather(n, bytes)),
        (
            "pairwise_all_to_all",
            Schedule::pairwise_all_to_all(n, bytes),
        ),
        ("tree_broadcast", Schedule::tree_broadcast(n, bytes)),
        ("point_to_point", Schedule::point_to_point(0, n, bytes)),
    ];
    if n.is_power_of_two() {
        all.push((
            "halving_doubling_all_reduce",
            Schedule::halving_doubling_all_reduce(n, bytes),
        ));
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_grouping_matches_the_filter_oracle(
        bytes in 0u64..=1 << 40,
    ) {
        for n in 1..=33 {
            for (name, s) in constructors(n, bytes) {
                prop_assert!(check_schedule(&s).is_empty(), "{name} n={n}: {:?}", check_schedule(&s));
                let linear: Vec<(usize, Vec<TransferStep>)> =
                    s.steps().map(|(step, batch)| (step, batch.to_vec())).collect();
                prop_assert_eq!(linear, filter_grouping(&s), "{} n={}", name, n);
            }
        }
    }
}
