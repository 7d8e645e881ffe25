//! The repository benchmark: four seeded workloads against the public APIs
//! of the AMPeD crates, run from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-grid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` measures the
//! untraced workload for half the time, then the traced workload (each
//! layer's public functions timed from here) for the other half, and
//! reports the per-layer table plus `obs.trace_overhead_ratio`. Every
//! per-layer metric is printed on every workload; a layer the workload does
//! not exercise reads 0. The last line of standard output is the JSON
//! result; the lines above it are the same figures for people.
//!
//! The CPU-bound workloads (`plan-grid` and the sims) report their time
//! metrics in reference time, scaled by the host's speed as a calibration
//! kernel samples it between ops (`common::Timebase`); `serve-mixed`
//! reports wall-clock time. See `perfbench/README.md`.

mod common;
mod plan_grid;
mod serve_mixed;
mod sim;

use common::{nproc, Fallible, Metric, Outcome, RunOptions};

const WORKLOADS: [&str; 4] = ["plan-grid", "sim-dp-ladder", "sim-pp-deep", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, opts: &RunOptions, traced: bool) -> Fallible<Outcome> {
    match name {
        "plan-grid" => plan_grid::run(opts, traced),
        "sim-dp-ladder" => sim::run(sim::dp_ladder(), 3, opts, traced),
        "sim-pp-deep" => sim::run(sim::pp_deep(), 9, opts, traced),
        "serve-mixed" => serve_mixed::run(opts, traced),
        _ => unreachable!("workload names are validated"),
    }
}

/// Every per-layer metric of every workload, zero-valued, each name once.
fn layer_catalog() -> Vec<Metric> {
    let mut all: Vec<Metric> = Vec::new();
    for m in plan_grid::layer_catalog()
        .into_iter()
        .chain(sim::layer_catalog(&sim::dp_ladder()))
        .chain(sim::layer_catalog(&sim::pp_deep()))
        .chain(serve_mixed::layer_catalog())
        .chain([Metric::new("obs.trace_overhead_ratio", 0.0, "ratio", 0)])
    {
        if !all.iter().any(|a| a.name == m.name) {
            all.push(m);
        }
    }
    all
}

fn metric_value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// The per-layer run: untraced then traced, half of `--seconds` each.
fn per_layer(args: &Args, opts: &RunOptions) -> Fallible<Outcome> {
    let half = RunOptions {
        seconds: opts.seconds / 2.0,
        ..*opts
    };
    let plain = run_workload(&args.workload, &half, false)?;
    let traced = run_workload(&args.workload, &half, true)?;
    let overhead =
        metric_value(&plain.metrics, "ops_per_s") / metric_value(&traced.metrics, "ops_per_s");
    let mut metrics = Vec::new();
    for zero in layer_catalog() {
        let measured = traced.metrics.iter().find(|m| m.name == zero.name);
        metrics.push(measured.cloned().unwrap_or(zero));
    }
    if let Some(m) = metrics
        .iter_mut()
        .find(|m| m.name == "obs.trace_overhead_ratio")
    {
        m.value = overhead;
        m.samples = traced.attempted;
    }
    let mut notes = traced.notes;
    notes.push(
        "obs.trace_overhead_ratio = untraced ops_per_s / traced ops_per_s; \
         layers a workload does not exercise read 0"
            .to_string(),
    );
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
    })
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest representation that round-trips, so every
    // measured digit survives.
    format!("{v:?}")
}

fn print_result(correct: bool, outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        jobs: nproc(),
    };
    println!(
        "# perfbench workload={} seed={} nproc={} commit={} seconds={} trace={}",
        args.workload,
        args.seed,
        opts.jobs,
        common::commit(),
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        per_layer(&args, &opts)
    } else {
        run_workload(&args.workload, &opts, false)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", args.workload);
            print_result(false, &Outcome::default());
            std::process::exit(1);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    for m in &outcome.metrics {
        println!(
            "{:<40} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<40} {:>16.6} {:<6} (n={})",
        "error_rate",
        common::ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    print_result(true, &outcome);
}
