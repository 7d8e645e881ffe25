//! The flat (CSR) task-graph storage against naive per-task adjacency
//! lists: `preds` returns the deps exactly as given (order and
//! duplicates), `succs` the ascending successor list with one entry per
//! edge, and `num_edges` the total dep count — also after tasks are added
//! once the successor rows have been derived.

use amped_sim::{SplitMix64, TaskGraph, TaskId, TaskKind};
use proptest::prelude::*;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn compute(device: usize) -> TaskKind {
    TaskKind::Compute {
        device,
        duration_s: 1.0,
    }
}

/// Add `n` random tasks to both `g` and the naive `deps` lists: up to
/// three random deps each (duplicates allowed), plus — for about half the
/// tasks — the current hub, sometimes twice, so hubs fan out widely.
fn grow(g: &mut TaskGraph, deps: &mut Vec<Vec<TaskId>>, rng: &mut SplitMix64, n: usize) {
    let mut hub = None;
    for _ in 0..n {
        let id = deps.len();
        let mut d = Vec::new();
        if id > 0 {
            if below(rng, 8) == 0 {
                hub = Some(id - 1);
            }
            if let Some(h) = hub.filter(|_| below(rng, 2) == 0) {
                d.push(h);
                if below(rng, 3) == 0 {
                    d.push(h);
                }
            }
            for _ in 0..below(rng, 4) {
                d.push(below(rng, id));
            }
        }
        let device = below(rng, g.num_devices());
        assert_eq!(g.add(compute(device), "t", &d), id);
        deps.push(d);
    }
}

fn check(g: &TaskGraph, deps: &[Vec<TaskId>]) -> Result<(), String> {
    let mut succs = vec![Vec::new(); deps.len()];
    for (id, d) in deps.iter().enumerate() {
        for &p in d {
            succs[p].push(id);
        }
    }
    prop_assert_eq!(g.len(), deps.len());
    prop_assert_eq!(g.num_edges(), deps.iter().map(Vec::len).sum::<usize>());
    for id in 0..deps.len() {
        prop_assert_eq!(g.preds(id), deps[id].as_slice(), "preds of {}", id);
        prop_assert_eq!(g.succs(id), succs[id].as_slice(), "succs of {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_rows_match_naive_adjacency(
        seed in 0u64..u64::MAX,
        devices in 1usize..=4,
        first in 0usize..=60,
        more in 0usize..=60,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut g = TaskGraph::new(devices);
        let mut deps = Vec::new();
        grow(&mut g, &mut deps, &mut rng, first);
        check(&g, &deps)?;
        // Succs were derived above; adding tasks must extend them.
        grow(&mut g, &mut deps, &mut rng, more);
        check(&g, &deps)?;
        let clone = g.clone();
        check(&clone, &deps)?;
    }
}
