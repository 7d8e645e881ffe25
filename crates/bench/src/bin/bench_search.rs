//! Records the training search's cost into `BENCH_search.json` at the repo
//! root, on a fixture that takes milliseconds: the training grid of the
//! `plan-grid` benchmark workload — six model presets on A100 clusters of
//! 16, 128 and 1024 nodes × 8, at 1 and 2 samples per GPU (36 queries),
//! memory filter on, one search worker, a cold engine per query. The grid
//! runs unpruned and with branch-and-bound pruning.
//!
//! Each repeat times one untraced pass of the grid (wall time per query)
//! and one pass with a search observer per query, whose phase timings
//! (`search.enumerate` / `search.explore` / `search.rank`) and counters
//! (candidates, `search.bound.evaluated`) are reported per query. Medians
//! over the repeats are recorded. Run with
//! `cargo run --release -p amped-bench --bin bench_search`.

use std::sync::Arc;
use std::time::Instant;

use amped_configs::pipeline::{ScenarioDraft, Source};
use amped_configs::scenario::ResolvedScenario;
use amped_obs::Observer;
use amped_search::{EnumerationOptions, SearchEngine};

const MODELS: [&str; 6] = [
    "gpt3-175b",
    "megatron-145b",
    "megatron-530b",
    "megatron-1t",
    "glam-64e",
    "llama-65b",
];
const NODES: [usize; 3] = [16, 128, 1024];
const SAMPLES_PER_GPU: [usize; 2] = [1, 2];
/// Minimum repeats per mode, and the wall time a mode is repeated for.
const MIN_REPEATS: usize = 7;
const MIN_MEASURE_SECS: f64 = 3.0;

fn scenario(model: &str, nodes: usize, per_gpu: usize) -> ResolvedScenario {
    let mut draft = ScenarioDraft::new();
    draft
        .push(
            Source::Flags,
            serde_json::json!({
                "model": { "preset": model },
                "accelerator": { "preset": "a100" },
                "system": { "nodes": nodes, "accels_per_node": 8 },
                "training": { "global_batch": nodes * 8 * per_gpu, "num_batches": 1 }
            }),
        )
        .expect("overlay is valid");
    draft.resolve().expect("grid scenario resolves").scenario
}

fn engine(s: &ResolvedScenario, prune: bool) -> SearchEngine<'_> {
    SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options)
        .with_enumeration(EnumerationOptions::default())
        .with_memory_filter(true)
        .with_pruning(prune)
        .with_parallelism(1)
}

/// One traced pass: per-query means of the phase times (µs) and totals of
/// the search counters.
struct Traced {
    enumerate_us: f64,
    explore_us: f64,
    rank_us: f64,
    counters: [u64; 5],
}

const COUNTERS: [&str; 5] = [
    "search.candidates.generated",
    "search.candidates.pruned",
    "search.candidates.memory_rejected",
    "search.candidates.kept",
    "search.bound.evaluated",
];

fn traced_pass(grid: &[ResolvedScenario], prune: bool) -> Traced {
    let mut t = Traced {
        enumerate_us: 0.0,
        explore_us: 0.0,
        rank_us: 0.0,
        counters: [0; 5],
    };
    for s in grid {
        let obs = Arc::new(Observer::new());
        engine(s, prune)
            .with_observer(Arc::clone(&obs))
            .search(&s.training)
            .expect("grid query searches");
        let report = obs.report("bench_search");
        for (name, sec) in &report.phases {
            let us = sec * 1e6 / grid.len() as f64;
            match name.as_str() {
                "search.enumerate" => t.enumerate_us += us,
                "search.explore" => t.explore_us += us,
                "search.rank" => t.rank_us += us,
                _ => {}
            }
        }
        for (total, name) in t.counters.iter_mut().zip(COUNTERS) {
            *total += report.counters.get(name).copied().unwrap_or(0);
        }
    }
    t
}

/// Mean wall µs per query of one untraced pass.
fn untraced_pass(grid: &[ResolvedScenario], prune: bool) -> f64 {
    let start = Instant::now();
    for s in grid {
        std::hint::black_box(
            engine(s, prune)
                .search(&s.training)
                .expect("grid query searches"),
        );
    }
    start.elapsed().as_secs_f64() * 1e6 / grid.len() as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn measure(grid: &[ResolvedScenario], prune: bool) -> serde_json::Value {
    let (mut query, mut enumerate, mut explore, mut rank) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counters = None;
    let start = Instant::now();
    while query.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < MIN_MEASURE_SECS {
        query.push(untraced_pass(grid, prune));
        let t = traced_pass(grid, prune);
        enumerate.push(t.enumerate_us);
        explore.push(t.explore_us);
        rank.push(t.rank_us);
        // Single-worker passes are deterministic, counters included.
        assert!(
            counters.is_none_or(|c| c == t.counters),
            "counters differ between passes"
        );
        counters = Some(t.counters);
    }
    let c = counters.expect("at least one pass");
    serde_json::json!({
        "repeats": query.len(),
        "query_us": median(query),
        "enumerate_us": median(enumerate),
        "explore_us": median(explore),
        "rank_us": median(rank),
        "candidates_generated": c[0],
        "candidates_pruned": c[1],
        "candidates_memory_rejected": c[2],
        "candidates_kept": c[3],
        "bounds_evaluated": c[4],
    })
}

fn main() {
    let mut grid = Vec::new();
    for model in MODELS {
        for nodes in NODES {
            for per_gpu in SAMPLES_PER_GPU {
                grid.push(scenario(model, nodes, per_gpu));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unpruned = measure(&grid, false);
    let pruned = measure(&grid, true);
    let report = serde_json::json!({
        "benchmark": "search/plan_grid_training",
        "fixture": "plan-grid training grid: gpt3-175b, megatron-145b, megatron-530b, \
                    megatron-1t, glam-64e, llama-65b on a100 x (16, 128, 1024) nodes x 8, \
                    global batch 1 and 2 per GPU, memory filter on",
        "queries": grid.len(),
        "jobs": 1,
        "nproc": nproc,
        "unit": "per-query medians over repeats; phases from a traced pass",
        "unpruned": unpruned,
        "pruned": pruned,
    });
    let text = serde_json::to_string_pretty(&report).expect("serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, format!("{text}\n")).expect("writes BENCH_search.json");
    println!("{text}");
}
