//! `serve-mixed`: an in-process `amped-serve` daemon driven closed-loop by
//! `nproc` clients over loopback TCP, each waiting for its reply before
//! sending the next request, as planning tools do.
//!
//! The request menu crosses every compute endpoint with the five scenario
//! presets, each scaled by `nodes` (with the preset's DP widened to match)
//! and `global_batch` overrides, so the server's estimate-cache working set
//! spans many scenario contexts. Each client draws requests uniformly from
//! the menu with its own seeded generator. Every response must be `200` and
//! byte-identical to in-process `api::handle` for the same request.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amped_configs::pipeline::{ScenarioDraft, Source};
use amped_configs::registry;
use amped_core::Result as CoreResult;
use amped_serve::{
    api, Endpoint, Request, ServeConfig, ServeSummary, Server, ServerHandle, ServiceState,
};

use crate::common::{
    ensure, mean, ratio, repeat_setup, secs, EndToEnd, Fallible, Metric, Outcome, RunOptions, Span,
    SplitMix64, Timebase, P90,
};

/// The scenario presets the menu scales.
const PRESETS: [&str; 5] = [
    "dev-small",
    "dev-small-infer",
    "flagship-a100",
    "llama-65b-32x8",
    "llama-65b-serve",
];
/// Presets `recommend` finds no memory-feasible training mapping for.
const NO_RECOMMEND: [&str; 1] = ["llama-65b-serve"];
const NODE_SCALES: [usize; 3] = [1, 2, 4];
const BATCH_SCALES: [usize; 2] = [1, 2];

/// Request kinds: endpoint and extra query.
const KINDS: [(Endpoint, &str); 7] = [
    (Endpoint::Estimate, ""),
    (Endpoint::Infer, ""),
    (Endpoint::Search, "top=5"),
    (Endpoint::Search, "workload=infer&top=5"),
    (Endpoint::Sweep, ""),
    (Endpoint::Resilience, ""),
    (Endpoint::Recommend, ""),
];

/// How a preset scales: its node count, the explicit DP degrees it pins
/// (widened with the node count) and its global batch, as the registry
/// defines them.
struct Scaling {
    nodes: u64,
    dp: Option<(u64, u64)>,
    batch: u64,
}

fn scaling(preset: &str) -> Fallible<Scaling> {
    let doc = registry::scenario(preset).ok_or_else(|| format!("unknown preset {preset}"))?;
    let field = |section: &str, name: &str| doc.get(section).and_then(|s| s.get(name));
    let number = |section: &str, name: &str| {
        field(section, name)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("preset {preset} has no {section}.{name}"))
    };
    let dp = match field("parallelism", "dp").and_then(serde_json::Value::as_array) {
        Some(d) => match d.as_slice() {
            [i, x] => Some((
                i.as_u64().ok_or("dp is not a count")?,
                x.as_u64().ok_or("dp is not a count")?,
            )),
            _ => return Err(format!("preset {preset}: dp is not [intra, inter]")),
        },
        None => None,
    };
    Ok(Scaling {
        nodes: number("system", "nodes")?,
        dp,
        batch: number("training", "global_batch")?,
    })
}

/// The server-side endpoints the per-layer table reconciles.
const ENDPOINTS: [Endpoint; 6] = [
    Endpoint::Estimate,
    Endpoint::Infer,
    Endpoint::Search,
    Endpoint::Sweep,
    Endpoint::Resilience,
    Endpoint::Recommend,
];
const SETUP_REPS: usize = 9;

/// One distinct request of the menu with its reference body.
struct Call {
    endpoint: Endpoint,
    request: Request,
    /// `path?query` as sent on the wire.
    target: String,
    expected: String,
}

fn menu() -> Fallible<Vec<Call>> {
    let mut out = Vec::new();
    for (endpoint, extra) in &KINDS {
        for preset in PRESETS {
            if *endpoint == Endpoint::Recommend && NO_RECOMMEND.contains(&preset) {
                continue;
            }
            let p = scaling(preset)?;
            for k in NODE_SCALES {
                let k = k as u64;
                for b in BATCH_SCALES {
                    let mut body = serde_json::json!({
                        "system": { "nodes": p.nodes * k },
                        "training": { "global_batch": p.batch * b as u64 }
                    });
                    if let (Some((dp_i, dp_x)), serde_json::Value::Object(fields)) =
                        (p.dp, &mut body)
                    {
                        fields.push((
                            "parallelism".to_string(),
                            serde_json::json!({ "dp": [dp_i, dp_x * k] }),
                        ));
                    }
                    let body = serde_json::to_string(&body).expect("body serializes");
                    let mut query = vec![("preset".to_string(), preset.to_string())];
                    query.extend(extra.split('&').filter(|s| !s.is_empty()).map(|kv| {
                        let (k, v) = kv.split_once('=').expect("key=value");
                        (k.to_string(), v.to_string())
                    }));
                    let path = format!("/v1/{}", endpoint.name());
                    let target = format!(
                        "{path}?{}",
                        query
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join("&")
                    );
                    out.push(Call {
                        endpoint: *endpoint,
                        request: Request {
                            method: "POST".to_string(),
                            path,
                            query,
                            body,
                        },
                        target,
                        expected: String::new(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// A running daemon; shut down and joined on drop.
struct Daemon {
    addr: String,
    state: Arc<ServiceState>,
    handle: ServerHandle,
    thread: Option<JoinHandle<CoreResult<ServeSummary>>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn start_daemon(jobs: usize) -> Fallible<Daemon> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let daemon = Daemon {
        addr,
        state: server.state(),
        handle: server.handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if matches!(http(&daemon.addr, "GET", "/v1/health", ""), Ok((200, _))) {
            return Ok(daemon);
        }
        if Instant::now() > deadline {
            return Err("server did not answer /v1/health within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A one-shot HTTP/1.1 exchange (the server closes every connection).
fn http(addr: &str, method: &str, target: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let (_, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// Build the menu, price every request in-process for its reference body,
/// and start the daemon.
fn setup(jobs: usize) -> Fallible<(Vec<Call>, Daemon)> {
    let mut calls = menu()?;
    let reference = ServiceState::new();
    for c in &mut calls {
        let response = api::handle(&reference, c.endpoint, &c.request);
        ensure(response.status == 200, || {
            format!(
                "{}: reference status {}: {}",
                c.target, response.status, response.body
            )
        })?;
        c.expected = response.body;
    }
    Ok((calls, start_daemon(jobs)?))
}

/// One client's record of the measured phase.
#[derive(Default)]
struct ClientLog {
    /// Endpoint and span of every answered request.
    done: Vec<(Endpoint, Span)>,
    failed: u64,
    mismatch: Option<String>,
}

/// One closed-loop client: each request is drawn uniformly from the menu.
fn client(addr: &str, calls: &[Call], seed: u64, start: Instant, seconds: f64) -> ClientLog {
    let mut rng = SplitMix64::new(seed);
    let mut log = ClientLog::default();
    while secs(start) < seconds && log.mismatch.is_none() {
        let c = &calls[(rng.next_u64() % calls.len() as u64) as usize];
        let began = secs(start);
        match http(addr, "POST", &c.target, &c.request.body) {
            Ok((200, body)) => {
                log.done.push((c.endpoint, (began, secs(start))));
                if body != c.expected {
                    log.mismatch = Some(format!(
                        "{}: body differs from in-process api::handle",
                        c.target
                    ));
                }
            }
            _ => log.failed += 1,
        }
    }
    log
}

/// `/v1/metrics` figures the reconciliation needs.
#[derive(Default)]
struct Snapshot {
    /// Histogram `(count, sum)` by series name.
    histograms: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    fn take(addr: &str) -> Fallible<Snapshot> {
        let (status, body) = http(addr, "GET", "/v1/metrics", "").map_err(|e| e.to_string())?;
        ensure(status == 200, || format!("/v1/metrics answered {status}"))?;
        let doc: serde_json::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
        let section = |name: &str| {
            doc.get(name)
                .and_then(|v| v.as_object())
                .cloned()
                .unwrap_or_default()
        };
        let mut snap = Snapshot::default();
        for (name, h) in section("histograms") {
            let field = |f: &str| h.get(f).and_then(serde_json::Value::as_u64).unwrap_or(0);
            snap.histograms.insert(name, (field("count"), field("sum")));
        }
        for (name, v) in section("counters") {
            snap.counters.insert(name, v.as_u64().unwrap_or(0));
        }
        for (name, v) in section("gauges") {
            snap.gauges.insert(name, v.as_f64().unwrap_or(0.0));
        }
        Ok(snap)
    }

    /// Mean of histogram `name` over the interval since `before`.
    fn mean_since(&self, before: &Snapshot, name: &str) -> f64 {
        let (c1, s1) = self.histograms.get(name).copied().unwrap_or_default();
        let (c0, s0) = before.histograms.get(name).copied().unwrap_or_default();
        ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }

    fn counter_since(&self, before: &Snapshot, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before))
    }
}

/// Per-endpoint means (µs) of the traced run.
#[derive(Default, Clone)]
struct EndpointLayers {
    client_us: f64,
    queue_us: f64,
    handler_us: f64,
    direct_us: f64,
    requests: u64,
    direct_calls: u64,
}

fn layer_metrics(
    eps: &[EndpointLayers],
    resolve_us: &[f64],
    cache: (u64, u64),
    status_429: u64,
    in_flight_peak: f64,
) -> Vec<Metric> {
    let mut out = vec![Metric::new(
        "configs.resolve_us",
        mean(resolve_us),
        "us",
        resolve_us.len() as u64,
    )];
    for (ep, l) in ENDPOINTS.iter().zip(eps) {
        let name = ep.name();
        let n = l.requests;
        out.push(Metric::new(
            format!("serve.client_us.{name}"),
            l.client_us,
            "us",
            n,
        ));
        out.push(Metric::new(
            format!("serve.queue_us.{name}"),
            l.queue_us,
            "us",
            n,
        ));
        out.push(Metric::new(
            format!("serve.handler_us.{name}"),
            l.handler_us,
            "us",
            n,
        ));
        out.push(Metric::new(
            format!("serve.unaccounted_us.{name}"),
            l.client_us - l.queue_us - l.handler_us,
            "us",
            n,
        ));
        out.push(Metric::new(
            format!("serve.direct_handler_us.{name}"),
            l.direct_us,
            "us",
            l.direct_calls,
        ));
    }
    out.push(Metric::new(
        "serve.cache_hit_ratio",
        ratio(cache.0 as f64, cache.1 as f64),
        "ratio",
        cache.1,
    ));
    out.push(Metric::new(
        "serve.status_429",
        status_429 as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "serve.in_flight_peak",
        in_flight_peak,
        "count",
        1,
    ));
    out
}

/// The per-layer metrics with nothing measured (all zero).
pub fn layer_catalog() -> Vec<Metric> {
    layer_metrics(
        &vec![EndpointLayers::default(); ENDPOINTS.len()],
        &[],
        (0, 0),
        0,
        0.0,
    )
}

pub fn run(opts: &RunOptions, traced: bool) -> Fallible<Outcome> {
    let ((calls, daemon), setup_s) = repeat_setup(SETUP_REPS, Timebase::Wall, || setup(opts.jobs))?;
    let before = if traced {
        Some(Snapshot::take(&daemon.addr)?)
    } else {
        None
    };

    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.jobs)
            .map(|c| {
                let (addr, calls) = (&daemon.addr, &calls);
                let seed = opts.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(c as u64 + 1));
                scope.spawn(move || client(addr, calls, seed, start, opts.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(m) = logs.iter().find_map(|l| l.mismatch.clone()) {
        return Err(m);
    }
    let mut ops: Vec<Span> = logs
        .iter()
        .flat_map(|l| l.done.iter().map(|d| d.1))
        .collect();
    ops.sort_by(|a, b| a.1.total_cmp(&b.1));
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    // The tail is p90, not p99: in this closed loop nearly every request
    // waits out the server's 15 ms accept poll, so the slowest 1% are set by
    // how late the host wakes the threads on the request's path. On a
    // shared 2-vCPU guest that swung p99 between 21 and 27 ms with the
    // hypervisor's steal time while p50 held at 15.3 ms.
    let e2e = EndToEnd {
        ops: &ops,
        timebase: Timebase::Wall,
        pass_ops: 1,
        setup_s: &setup_s,
        tail: P90,
    };
    let mut metrics = e2e.metrics();
    let attempted = ops.len() as u64 + failed;
    let mut notes = vec![
        format!(
            "{} distinct requests over {} presets, {} clients, {} server workers",
            calls.len(),
            PRESETS.len(),
            opts.jobs,
            opts.jobs
        ),
        e2e.note(),
    ];
    if let Some(before) = before {
        let after = Snapshot::take(&daemon.addr)?;
        let mut eps = vec![EndpointLayers::default(); ENDPOINTS.len()];
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            let name = ep.name();
            let client: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.done.iter())
                .filter(|(endpoint, _)| endpoint == ep)
                .map(|(_, (began, end))| (end - began) * 1e6)
                .collect();
            // The handler alone, in-process on the daemon's own (warm)
            // state, once per menu entry of this endpoint.
            let mut direct = Vec::new();
            for c in calls.iter().filter(|c| c.endpoint == *ep) {
                let t = Instant::now();
                let response = api::handle(&daemon.state, c.endpoint, &c.request);
                direct.push(secs(t) * 1e6);
                ensure(response.body == c.expected, || {
                    format!("{}: direct handler body differs", c.target)
                })?;
            }
            eps[i] = EndpointLayers {
                client_us: mean(&client),
                queue_us: after.mean_since(&before, &format!("serve.http.{name}.queue_us")),
                handler_us: after.mean_since(&before, &format!("serve.http.{name}.handler_us")),
                direct_us: mean(&direct),
                requests: client.len() as u64,
                direct_calls: direct.len() as u64,
            };
        }
        // Scenario resolution alone, as the handlers run it: preset, then
        // the body as the scenario-file layer.
        let mut resolve_us = Vec::new();
        for c in &calls {
            let preset = c.request.query_param("preset").unwrap_or_default();
            let t = Instant::now();
            let mut draft = ScenarioDraft::new();
            draft.preset(preset).map_err(|e| e.to_string())?;
            draft
                .push_json(Source::File, &c.request.body)
                .map_err(|e| e.to_string())?;
            draft.resolve().map_err(|e| e.to_string())?;
            resolve_us.push(secs(t) * 1e6);
        }
        let cache = (
            after.counter_since(&before, "serve.cache.hits"),
            after.counter_since(&before, "serve.cache.lookups"),
        );
        metrics.extend(layer_metrics(
            &eps,
            &resolve_us,
            cache,
            after.counter_since(&before, "serve.http.status.429"),
            after
                .gauges
                .get("serve.http.in_flight.max")
                .copied()
                .unwrap_or(0.0),
        ));
        notes.push(
            "serve.unaccounted_us = client - queue - handler: time the server does not record \
             (accept, connection set-up, parse, write)"
                .to_string(),
        );
    }
    drop(daemon);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}
