//! `plan-grid`: an in-process capacity-planning sweep, the way a CLI user
//! runs `search` / `recommend` / `search --workload infer`, one cold query
//! at a time.
//!
//! Each op builds a fresh engine (so no estimate cache survives between
//! queries), enumerates, prices, ranks and renders the JSON artifact. The
//! query set is fixed; the seed only sets the order, reshuffled per pass.

use std::sync::Arc;
use std::time::Instant;

use amped_configs::pipeline::{ScenarioDraft, Source};
use amped_configs::scenario::ResolvedScenario;
use amped_core::{
    AnalyticalBackend, CostBackend, Estimator, InferenceConfig, Parallelism, TrainingConfig,
};
use amped_infer::{AnalyticalInferBackend, InferBackend};
use amped_obs::Observer;
use amped_report::artifacts;
use amped_search::{
    enumerate_mappings, Candidate, EnumerationOptions, SearchEngine, SearchStats, ServingCandidate,
    ServingSearch, ServingSweepOptions,
};

use crate::common::{
    ensure, mean, ratio, repeat_setup, secs, shuffle, EndToEnd, Fallible, Metric, OpClock, Outcome,
    RunOptions, SplitMix64, Timebase, P99,
};

const TRAIN_MODELS: [&str; 6] = [
    "gpt3-175b",
    "megatron-145b",
    "megatron-530b",
    "megatron-1t",
    "glam-64e",
    "llama-65b",
];
const TRAIN_NODES: [usize; 3] = [16, 128, 1024];
/// Global batch per accelerator; every (model, cluster) runs at each.
const BATCH_PER_GPU: [usize; 2] = [1, 2];
const SERVE_PRESETS: [&str; 2] = ["llama-65b-serve", "dev-small-infer"];
/// (prompt, decode) request shapes of the serving queries.
const SERVE_SHAPES: [(usize, usize); 3] = [(256, 64), (2048, 256), (512, 512)];
const SERVE_MAX_BATCH: [usize; 3] = [16, 64, 256];
/// Each serving query appears this many times per pass, so serving takes
/// a share of wall time comparable to training.
const SERVE_REPEATS: usize = 6;
/// Rows rendered per artifact (the CLI's `--top` default).
const TOP: usize = 10;
/// Relative agreement required between the winner's ranked time and its
/// re-pricing through the paper-shaped scalar estimator.
const REPRICE_TOL: f64 = 1e-12;
const SETUP_REPS: usize = 9;
/// Search worker threads per query. One, below `nproc`: on a 2-vCPU KVM
/// guest a two-thread search was slower per query (p50 0.23 ms against
/// 0.13 ms) and, by keeping both vCPUs busy, drew three to seven times the
/// hypervisor steal time, which made run-to-run spread exceed the
/// benchmark's bounds. See perfbench/README.md.
const SEARCH_JOBS: usize = 1;

enum Kind {
    Train {
        training: TrainingConfig,
        prune: bool,
    },
    Serve {
        request: InferenceConfig,
        max_batch: usize,
        prune: bool,
    },
}

/// One distinct query with its verified reference answer.
struct Query {
    label: String,
    scenario: ResolvedScenario,
    kind: Kind,
    /// Ranked `(parallelism degrees, batch, objective bits)` of the reference
    /// pass (batch is 0 for training queries).
    reference_rows: Vec<([usize; 6], usize, u64)>,
    /// Rendered reference artifact (serving queries are byte-stable).
    reference_bytes: String,
}

fn resolve(overlay: serde_json::Value, preset: Option<&str>) -> Fallible<ResolvedScenario> {
    let mut draft = ScenarioDraft::new();
    if let Some(name) = preset {
        draft.preset(name).map_err(|e| e.to_string())?;
    }
    draft
        .push(Source::Flags, overlay)
        .map_err(|e| e.to_string())?;
    Ok(draft.resolve().map_err(|e| e.to_string())?.scenario)
}

fn engine(s: &ResolvedScenario, prune: bool) -> SearchEngine<'_> {
    SearchEngine::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_engine_options(s.options)
        .with_enumeration(EnumerationOptions::default())
        .with_memory_filter(true)
        .with_pruning(prune)
        .with_parallelism(SEARCH_JOBS)
}

fn serving(s: &ResolvedScenario, max_batch: usize, prune: bool) -> ServingSearch<'_> {
    ServingSearch::new(&s.model, &s.accelerator, &s.system)
        .with_precision(s.precision)
        .with_sweep(ServingSweepOptions {
            max_batch,
            ..ServingSweepOptions::default()
        })
        .with_parallelism(SEARCH_JOBS)
        .with_pruning(prune)
}

fn key(p: &amped_core::Parallelism) -> [usize; 6] {
    [
        p.tp_intra(),
        p.tp_inter(),
        p.pp_intra(),
        p.pp_inter(),
        p.dp_intra(),
        p.dp_inter(),
    ]
}

fn to_json(value: &serde_json::Value) -> Fallible<String> {
    serde_json::to_string_pretty(value).map_err(|e| e.to_string())
}

/// The result of one executed query, reduced to what the checks compare.
struct Answer {
    rows: Vec<([usize; 6], usize, u64)>,
    bytes: String,
    generated: u64,
    /// The winner's mapping, serving batch (0 for training) and ranked
    /// time (total time for training, objective time for serving).
    winner: Option<(Parallelism, usize, f64)>,
}

fn check_train(label: &str, results: &[Candidate], stats: &SearchStats) -> Fallible<()> {
    ensure(
        results
            .windows(2)
            .all(|w| w[0].objective_time() <= w[1].objective_time()),
        || format!("{label}: ranking is not ordered"),
    )?;
    ensure(
        stats.generated == stats.pruned + stats.kept + stats.memory_rejected.total(),
        || format!("{label}: generated != pruned + kept + memory_rejected ({stats:?})"),
    )
}

fn check_serve(
    label: &str,
    results: &[ServingCandidate],
    stats: &amped_search::ServingSearchStats,
) -> Fallible<()> {
    ensure(
        results
            .windows(2)
            .all(|w| w[0].objective_time() <= w[1].objective_time()),
        || format!("{label}: serving ranking is not ordered"),
    )?;
    ensure(
        stats.generated == stats.pruned + stats.kept + stats.memory_rejected.total(),
        || format!("{label}: serving generated != pruned + kept + memory_rejected"),
    )
}

/// Execute one query: build the engine, search, render. With `layers`,
/// the search runs with an observer and the search and render steps are
/// recorded there.
fn execute(q: &Query, layers: Option<&mut Layers>) -> Fallible<Answer> {
    let s = &q.scenario;
    match &q.kind {
        Kind::Train { training, prune } => {
            let obs = layers.is_some().then(|| Arc::new(Observer::new()));
            let mut e = engine(s, *prune);
            if let Some(obs) = &obs {
                e = e.with_observer(Arc::clone(obs));
            }
            let (results, stats) = e.search_with_stats(training).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let bytes = to_json(&artifacts::search_value(&results, TOP, &stats))?;
            let render_s = secs(t);
            check_train(&q.label, &results, &stats)?;
            if let (Some(l), Some(obs)) = (layers, obs) {
                l.record_search(&obs, &stats);
                l.record_render(render_s, &bytes);
            }
            Ok(Answer {
                rows: results
                    .iter()
                    .map(|c| (key(&c.parallelism), 0, c.objective_time().to_bits()))
                    .collect(),
                bytes,
                generated: stats.generated,
                winner: results
                    .first()
                    .map(|c| (c.parallelism, 0, c.estimate.total_time.get())),
            })
        }
        Kind::Serve {
            request,
            max_batch,
            prune,
        } => {
            let t = Instant::now();
            let (results, stats) = serving(s, *max_batch, *prune)
                .search_with_stats(request)
                .map_err(|e| e.to_string())?;
            let search_s = secs(t);
            let t = Instant::now();
            let bytes = to_json(&artifacts::serving_search_value(&results, TOP, &stats))?;
            let render_s = secs(t);
            check_serve(&q.label, &results, &stats)?;
            if let Some(l) = layers {
                l.serving_s.push(search_s);
                l.record_render(render_s, &bytes);
            }
            Ok(Answer {
                rows: results
                    .iter()
                    .map(|c| (key(&c.parallelism), c.batch, c.objective_time().to_bits()))
                    .collect(),
                bytes,
                generated: stats.generated,
                winner: results
                    .first()
                    .map(|c| (c.parallelism, c.batch, c.objective_time())),
            })
        }
    }
}

/// Compare an answer with the query's verified reference. Pruned training
/// queries keep a deterministic ranking but a timing-dependent pruned/kept
/// split, so only their rows are compared; everything else is compared
/// byte for byte.
fn check_answer(q: &Query, a: &Answer) -> Fallible<()> {
    ensure(a.rows == q.reference_rows, || {
        format!("{}: ranking differs from the reference pass", q.label)
    })?;
    let byte_stable = !matches!(q.kind, Kind::Train { prune: true, .. });
    ensure(!byte_stable || a.bytes == q.reference_bytes, || {
        format!(
            "{}: rendered artifact differs from the reference pass",
            q.label
        )
    })
}

/// Re-price the training winner through the scalar `Estimator::estimate`.
fn check_winner(q: &Query, a: &Answer) -> Fallible<()> {
    let (Kind::Train { training, .. }, Some((winner, _, ranked))) = (&q.kind, a.winner) else {
        return Ok(());
    };
    let s = &q.scenario;
    let repriced = Estimator::new(&s.model, &s.accelerator, &s.system, &winner)
        .with_precision(s.precision)
        .with_efficiency(s.efficiency.clone())
        .with_options(s.options)
        .estimate(training)
        .map_err(|e| e.to_string())?
        .total_time
        .get();
    let rel = ((repriced - ranked) / ranked).abs();
    ensure(rel <= REPRICE_TOL, || {
        format!(
            "{}: winner re-priced through Estimator::estimate differs by {rel:e} relative",
            q.label
        )
    })
}

fn queries() -> Fallible<Vec<Query>> {
    let mut out = Vec::new();
    for model in TRAIN_MODELS {
        for nodes in TRAIN_NODES {
            for (b, per_gpu) in BATCH_PER_GPU.iter().enumerate() {
                let batch = nodes * 8 * per_gpu;
                let scenario = resolve(
                    serde_json::json!({
                        "model": { "preset": model },
                        "accelerator": { "preset": "a100" },
                        "system": { "nodes": nodes, "accels_per_node": 8 },
                        "training": { "global_batch": batch, "num_batches": 1 }
                    }),
                    None,
                )?;
                // Every (model, cluster) ranks in full; its first batch also
                // runs pruned, as `recommend` does.
                let prunes: &[bool] = if b == 0 { &[false, true] } else { &[false] };
                for &prune in prunes {
                    out.push(Query {
                        label: format!("train {model} {nodes}x8 batch {batch} prune={prune}"),
                        scenario: scenario.clone(),
                        kind: Kind::Train {
                            training: scenario.training,
                            prune,
                        },
                        reference_rows: Vec::new(),
                        reference_bytes: String::new(),
                    });
                }
            }
        }
    }
    for preset in SERVE_PRESETS {
        let scenario = resolve(serde_json::json!({}), Some(preset))?;
        for (prompt, decode) in SERVE_SHAPES {
            let request = InferenceConfig::new(prompt, decode, 1).map_err(|e| e.to_string())?;
            for max_batch in SERVE_MAX_BATCH {
                for prune in [false, true] {
                    out.push(Query {
                        label: format!(
                            "serve {preset} {prompt}+{decode} max_batch {max_batch} prune={prune}"
                        ),
                        scenario: scenario.clone(),
                        kind: Kind::Serve {
                            request,
                            max_batch,
                            prune,
                        },
                        reference_rows: Vec::new(),
                        reference_bytes: String::new(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// Resolve every query and run its verified reference pass.
fn setup() -> Fallible<Vec<Query>> {
    let mut qs = queries()?;
    for q in &mut qs {
        let a = execute(q, None)?;
        ensure(a.generated > 0, || {
            format!("{}: nothing enumerated", q.label)
        })?;
        check_winner(q, &a)?;
        q.reference_rows = a.rows;
        q.reference_bytes = a.bytes;
    }
    Ok(qs)
}

/// The op order of one pass: every training query once, every serving
/// query `SERVE_REPEATS` times, shuffled.
fn pass(qs: &[Query], rng: &mut SplitMix64) -> Vec<usize> {
    let mut order = Vec::new();
    for (i, q) in qs.iter().enumerate() {
        let n = if matches!(q.kind, Kind::Serve { .. }) {
            SERVE_REPEATS
        } else {
            1
        };
        order.extend(std::iter::repeat_n(i, n));
    }
    shuffle(&mut order, rng);
    order
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    train_ops: u64,
    enumerate_s: f64,
    explore_s: f64,
    rank_s: f64,
    cache_hits: u64,
    cache_lookups: u64,
    generated: u64,
    pruned: u64,
    memory_rejected: u64,
    eval_many_s: f64,
    eval_many_cands: u64,
    estimate_s: f64,
    estimate_calls: u64,
    serving_s: Vec<f64>,
    infer_s: f64,
    infer_calls: u64,
    render_s: Vec<f64>,
    bytes: Vec<f64>,
}

impl Layers {
    /// The search observer's phases and cache counters of one training
    /// query, and its candidate accounting.
    fn record_search(&mut self, obs: &Observer, stats: &SearchStats) {
        let report = obs.report("plan-grid");
        for (name, sec) in &report.phases {
            match name.as_str() {
                "search.enumerate" => self.enumerate_s += sec,
                "search.explore" => self.explore_s += sec,
                "search.rank" => self.rank_s += sec,
                _ => {}
            }
        }
        let counter = |n: &str| report.counters.get(n).copied().unwrap_or(0);
        self.cache_hits += counter("search.cache.hits");
        self.cache_lookups += counter("search.cache.lookups");
        self.train_ops += 1;
        self.generated += stats.generated;
        self.pruned += stats.pruned;
        self.memory_rejected += stats.memory_rejected.total();
    }

    fn record_render(&mut self, seconds: f64, bytes: &str) {
        self.render_s.push(seconds);
        self.bytes.push(bytes.len() as f64);
    }

    /// Time the pricing layers on the query's own inputs: `evaluate_many`
    /// over every enumerated mapping and the scalar `Estimator::estimate`
    /// of the training winner, or `AnalyticalInferBackend::evaluate` of the
    /// serving winner, which must reproduce its ranked time.
    fn probe_pricing(&mut self, q: &Query, a: &Answer) -> Fallible<()> {
        let s = &q.scenario;
        match &q.kind {
            Kind::Train { training, .. } => {
                let mappings =
                    enumerate_mappings(&s.system, &s.model, &EnumerationOptions::default());
                let scenario = s.to_scenario();
                let t = Instant::now();
                let priced = AnalyticalBackend.evaluate_many(&scenario, &mappings, training);
                self.eval_many_s += secs(t);
                self.eval_many_cands += mappings.len() as u64;
                ensure(priced.iter().all(Result::is_ok), || {
                    format!("{}: evaluate_many failed on an enumerated mapping", q.label)
                })?;
                if let Some((winner, _, _)) = a.winner {
                    let t = Instant::now();
                    Estimator::new(&s.model, &s.accelerator, &s.system, &winner)
                        .with_precision(s.precision)
                        .with_efficiency(s.efficiency.clone())
                        .with_options(s.options)
                        .estimate(training)
                        .map_err(|e| e.to_string())?;
                    self.estimate_s += secs(t);
                    self.estimate_calls += 1;
                }
            }
            Kind::Serve { request, .. } => {
                if let Some((winner, batch, ranked)) = a.winner {
                    let scenario = s.to_scenario().with_parallelism(winner);
                    let shaped = InferenceConfig::new(
                        request.prompt_tokens(),
                        request.decode_tokens(),
                        batch,
                    )
                    .map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    let est = AnalyticalInferBackend
                        .evaluate(&scenario, &shaped)
                        .map_err(|e| e.to_string())?;
                    self.infer_s += secs(t);
                    self.infer_calls += 1;
                    ensure(
                        est.request_latency.get().to_bits() == ranked.to_bits(),
                        || format!("{}: serving winner re-priced differently", q.label),
                    )?;
                }
            }
        }
        Ok(())
    }

    fn metrics(&self) -> Vec<Metric> {
        let per_train = |s: f64| ratio(s * 1e6, self.train_ops as f64);
        let n = self.train_ops;
        vec![
            Metric::new("search.enumerate_us", per_train(self.enumerate_s), "us", n),
            Metric::new("search.explore_us", per_train(self.explore_s), "us", n),
            Metric::new("search.rank_us", per_train(self.rank_s), "us", n),
            Metric::new(
                "core.evaluate_many_us_per_cand",
                ratio(self.eval_many_s * 1e6, self.eval_many_cands as f64),
                "us",
                self.eval_many_cands,
            ),
            Metric::new(
                "core.estimate_us",
                ratio(self.estimate_s * 1e6, self.estimate_calls as f64),
                "us",
                self.estimate_calls,
            ),
            Metric::new(
                "search.cache_hit_ratio",
                ratio(self.cache_hits as f64, self.cache_lookups as f64),
                "ratio",
                self.cache_lookups,
            ),
            Metric::new(
                "search.candidates",
                ratio(self.generated as f64, n as f64),
                "count",
                n,
            ),
            Metric::new(
                "search.pruned_ratio",
                ratio(self.pruned as f64, self.generated as f64),
                "ratio",
                self.generated,
            ),
            Metric::new(
                "memory.rejected_ratio",
                ratio(self.memory_rejected as f64, self.generated as f64),
                "ratio",
                self.generated,
            ),
            Metric::new(
                "search.serving_query_us",
                mean(&self.serving_s) * 1e6,
                "us",
                self.serving_s.len() as u64,
            ),
            Metric::new(
                "infer.estimate_us",
                ratio(self.infer_s * 1e6, self.infer_calls as f64),
                "us",
                self.infer_calls,
            ),
            Metric::new(
                "report.render_us",
                mean(&self.render_s) * 1e6,
                "us",
                self.render_s.len() as u64,
            ),
            Metric::new(
                "report.bytes",
                mean(&self.bytes),
                "bytes",
                self.bytes.len() as u64,
            ),
        ]
    }
}

pub fn run(opts: &RunOptions, traced: bool) -> Fallible<Outcome> {
    let (qs, setup_s) = repeat_setup(SETUP_REPS, Timebase::Reference, setup)?;
    let mut rng = SplitMix64::new(opts.seed);
    let mut layers = Layers::default();
    let mut pass_ops = 0;
    let mut clock = OpClock::new(Timebase::Reference);
    while clock.now() < opts.seconds {
        let order = pass(&qs, &mut rng);
        pass_ops = order.len();
        for i in order {
            let q = &qs[i];
            let began = clock.now();
            let answer = execute(q, traced.then_some(&mut layers))?;
            if traced {
                layers.probe_pricing(q, &answer)?;
            }
            clock.record(began);
            check_answer(q, &answer)?;
            clock.tick();
        }
    }
    let speed = clock.speed_note();
    let ops = clock.finish();
    let e2e = EndToEnd {
        ops: &ops,
        timebase: Timebase::Reference,
        pass_ops,
        setup_s: &setup_s,
        tail: P99,
    };
    let mut metrics = e2e.metrics();
    if traced {
        metrics.extend(layers.metrics());
    }
    let mut notes = vec![
        format!(
            "{} distinct queries ({} training, {} serving); {pass_ops} ops per pass in seeded order",
            qs.len(),
            qs.iter().filter(|q| matches!(q.kind, Kind::Train { .. })).count(),
            qs.iter().filter(|q| matches!(q.kind, Kind::Serve { .. })).count(),
        ),
        e2e.note(),
    ];
    notes.extend(speed);
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed: 0,
        metrics,
        notes,
    })
}

/// The per-layer metrics with nothing measured (all zero).
pub fn layer_catalog() -> Vec<Metric> {
    Layers::default().metrics()
}
