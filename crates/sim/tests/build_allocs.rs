//! A deterministic guard on heap allocations per simulated iteration.
//!
//! The task graph stores its edges in flat arrays and the builders pass
//! dependencies as slices of reused buffers, so building and running one
//! iteration allocates O(stages · steps + resources) times, not a few
//! times per task. A counting global allocator makes the bound exact on
//! any host: `simulate_iteration` may allocate at most once per four
//! tasks. Allocations are counted on the calling thread only, so the test
//! harness and any other thread cannot inflate the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::{MicrobatchPolicy, Parallelism, SystemSpec, TransformerModel};
use amped_obs::Observer;
use amped_sim::{PipelineSchedule, SimConfig};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before it touches only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `dealloc` are passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

fn check(name: &str, model: &TransformerModel, system: &SystemSpec, p: &Parallelism, batch: usize) {
    let accel = accelerators::a100();
    for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
        let config = SimConfig::new(model, &accel, system, p)
            .with_efficiency(efficiency::case_study())
            .with_schedule(schedule);
        let obs = Arc::new(Observer::new());
        config
            .clone()
            .with_observer(Arc::clone(&obs))
            .simulate_iteration(batch)
            .unwrap();
        let tasks = obs.counters()["sim.graph.tasks"];
        let (result, allocations) = count_allocations(|| config.simulate_iteration(batch));
        let result = result.unwrap();
        println!("{name} {schedule:?}: {allocations} allocations for {tasks} tasks");
        assert_eq!(
            result.timeline.entries().len() as u64,
            tasks,
            "{name} {schedule:?}"
        );
        assert!(
            allocations <= tasks / 4,
            "{name} {schedule:?}: {allocations} allocations for {tasks} tasks"
        );
    }
}

// One test in this binary: the counters are per thread, but a single
// test also keeps the harness quiet while it runs.
#[test]
fn one_iteration_allocates_at_most_once_per_four_tasks() {
    // megatron-145b, TP8 × PP8 × DP64 over 512 nodes of 8 A100s.
    let p = Parallelism::builder()
        .tp(8, 1)
        .pp(1, 8)
        .dp(1, 64)
        .build()
        .unwrap();
    check(
        "megatron-145b n512",
        &models::megatron_145b(),
        &systems::a100_hdr_cluster(512, 8),
        &p,
        1024,
    );

    // gpt3-175b, TP8 × PP12, 1,536 one-sample microbatches.
    let p = Parallelism::builder()
        .tp(8, 1)
        .pp(1, 12)
        .microbatches(MicrobatchPolicy::TargetMicrobatch(1))
        .build()
        .unwrap();
    check(
        "gpt3-175b mb1536",
        &models::gpt3_175b(),
        &systems::a100_hdr_cluster(12, 8),
        &p,
        1536,
    );
}
