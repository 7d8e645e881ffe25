//! Shared measurement plumbing: the metric record every workload returns,
//! latency quantiles, peak memory, the seeded generator, and run metadata.

use std::time::Instant;

pub use amped_sim::SplitMix64;

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed above the result.
    pub notes: Vec<String>,
}

/// A workload failure: an output check did not hold, or an op errored.
pub type Fallible<T> = Result<T, String>;

/// Fail with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Fallible<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Run options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub jobs: usize,
}

/// The host's parallelism; worker pools, load threads and connections are
/// all sized to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean, or 0 for an empty list.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The latency percentile a workload reports as its tail.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub q: f64,
    pub label: &'static str,
}

pub const P99: Tail = Tail {
    q: 0.99,
    label: "p99",
};
pub const P90: Tail = Tail {
    q: 0.90,
    label: "p90",
};

/// One timed op: its start and end, in seconds since the measured phase
/// began.
pub type Span = (f64, f64);

/// How a workload's time metrics are read.
///
/// The benchmark runs on a few vCPUs of a shared host whose speed swings
/// by up to 1.7x for seconds at a time as other tenants come and go, so
/// wall-clock times of CPU-bound work differ more between runs than any
/// change worth catching. CPU-bound workloads therefore report reference
/// time: wall-clock time scaled by the host's speed, which the
/// calibration kernel (`kernel_seconds`) samples between the ops it
/// scales. The kernel is the benchmark's own code and never calls the
/// program, so a change to the program moves reference time exactly as it
/// moves wall-clock time on a host of constant speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timebase {
    /// Wall-clock seconds, as measured. For work that mostly waits
    /// (sockets, poll sleeps), which does not scale with CPU speed.
    Wall,
    /// Reference seconds: wall-clock seconds x `REFERENCE_KERNEL_S` / the
    /// calibration kernel's time measured next to them.
    Reference,
}

impl Timebase {
    pub fn label(self) -> &'static str {
        match self {
            Timebase::Wall => "wall-clock",
            Timebase::Reference => "reference (host-speed calibrated)",
        }
    }

    /// A host-speed sample: the calibration kernel's time, or nothing on
    /// the wall clock.
    fn sample(self) -> Option<f64> {
        (self == Timebase::Reference).then(kernel_seconds)
    }

    /// `wall` seconds of work on this timebase, given the host-speed
    /// samples taken just before and just after it.
    fn scale(wall: f64, before: Option<f64>, after: Option<f64>) -> f64 {
        match (before, after) {
            (Some(b), Some(a)) => wall * REFERENCE_KERNEL_S / ((a + b) / 2.0),
            _ => wall,
        }
    }
}

/// The calibration kernel's time on the reference host, a typical figure
/// on a 2-vCPU Sapphire Rapids KVM guest (where it ranges 3.2-5.7 ms as
/// the host's load changes). One reference second is the time in which
/// that host runs the kernel `1 / REFERENCE_KERNEL_S` times.
pub const REFERENCE_KERNEL_S: f64 = 0.004;

/// Minimum wall-clock time between two host-speed samples of a measured
/// phase; the kernel takes about 4% of the phase.
const CALIBRATION_INTERVAL_S: f64 = 0.1;

/// Run the calibration kernel once and return its wall-clock time.
///
/// The kernel mixes what the CPU-bound workloads spend their time on:
/// floating-point arithmetic with transcendentals, sorting, hashing, small
/// allocations, ordered maps and number formatting. Its inputs are fixed,
/// so its work is the same on every call.
pub fn kernel_seconds() -> f64 {
    let t = Instant::now();
    std::hint::black_box(calibration_kernel());
    secs(t)
}

fn calibration_kernel() -> u64 {
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write;
    let mut rng = SplitMix64::new(0x5eed);
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0u64;
    for _ in 0..10 {
        let mut v: Vec<f64> = (0..2048).map(|_| unit()).collect();
        let s: f64 = v.iter().map(|x| (x * 3.7 + 1.0).ln() * x.sqrt()).sum();
        v.sort_by(f64::total_cmp);
        let h: HashMap<u64, f64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| (x.to_bits() ^ i as u64, *x))
            .collect();
        let mut text = String::new();
        for x in v.iter().take(256) {
            write!(text, "{x:.6},").expect("writing to a String cannot fail");
        }
        let boxed: Vec<Box<[u64; 4]>> = (0..512)
            .map(|i| Box::new([i, i * 2, i * 3, s.to_bits()]))
            .collect();
        acc = acc.wrapping_add(
            (h.len() + text.len()) as u64 + boxed.iter().map(|b| b[1]).sum::<u64>() + s.to_bits(),
        );
    }
    for _ in 0..3 {
        let mut m: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for i in 0..2000u64 {
            m.entry((unit() * 5000.0) as u64).or_default().push(i);
        }
        let keys: Vec<String> = m.iter().map(|(k, v)| format!("{k}:{}", v.len())).collect();
        acc = acc.wrapping_add(keys.iter().map(|k| k.len() as u64).sum::<u64>());
    }
    let rows: Vec<[f64; 4]> = (0..4096)
        .map(|_| [unit() + 0.5, unit() + 0.5, unit() + 0.5, unit() + 0.5])
        .collect();
    let mut total = 0.0f64;
    for _ in 0..6 {
        for r in &rows {
            let t = r[0] * 1e12 / (r[1] * 312e12) + r[2].ln() * r[3].powf(1.3);
            total += if t > 1.0 {
                t.sqrt()
            } else {
                (t * 2.0).exp() / r[3]
            };
        }
    }
    acc.wrapping_add(total.to_bits())
}

/// Records op spans against the start of the measured phase and, on the
/// reference timebase, samples the host's speed between ops.
pub struct OpClock {
    start: Instant,
    timebase: Timebase,
    ops: Vec<Span>,
    /// Host-speed samples: when each kernel run began and ended.
    calibrations: Vec<Span>,
}

impl OpClock {
    pub fn new(timebase: Timebase) -> Self {
        let mut clock = OpClock {
            start: Instant::now(),
            timebase,
            ops: Vec::new(),
            calibrations: Vec::new(),
        };
        clock.calibrate();
        clock
    }

    /// Wall-clock seconds since the measured phase began.
    pub fn now(&self) -> f64 {
        secs(self.start)
    }

    /// Record an op that began at `began`; returns its wall-clock latency.
    pub fn record(&mut self, began: f64) -> f64 {
        let end = self.now();
        self.ops.push((began, end));
        end - began
    }

    /// The host-speed samples, for the human-readable block.
    pub fn speed_note(&self) -> Option<String> {
        let kernel: Vec<f64> = self.calibrations.iter().map(|c| c.1 - c.0).collect();
        (!kernel.is_empty()).then(|| {
            format!(
                "host speed: calibration kernel median {:.3} ms over {} samples \
                 (reference {:.3} ms)",
                median(&kernel) * 1e3,
                kernel.len(),
                REFERENCE_KERNEL_S * 1e3
            )
        })
    }

    /// Between ops: sample the host's speed if the last sample is older
    /// than `CALIBRATION_INTERVAL_S`.
    pub fn tick(&mut self) {
        let last = self.calibrations.last().map_or(0.0, |c| c.1);
        if self.now() - last >= CALIBRATION_INTERVAL_S {
            self.calibrate();
        }
    }

    fn calibrate(&mut self) {
        if self.timebase == Timebase::Reference {
            let began = self.now();
            kernel_seconds();
            self.calibrations.push((began, self.now()));
        }
    }

    /// The recorded ops on the clock's timebase. On the reference
    /// timebase the kernel's own runs are cut out, and the time between
    /// two samples is scaled by the mean of their smoothed kernel times.
    ///
    /// A single kernel run can be slowed by a third by an interrupt or a
    /// burst of hypervisor steal, while the host's speed holds for
    /// seconds, so each sample's kernel time is smoothed to the median of
    /// the `SMOOTHING` samples centred on it.
    pub fn finish(mut self) -> Vec<Span> {
        const SMOOTHING: usize = 7;
        self.calibrate();
        let cal = &self.calibrations;
        if cal.len() < 2 {
            return self.ops;
        }
        let kernel: Vec<f64> = cal.iter().map(|c| c.1 - c.0).collect();
        let smoothed: Vec<f64> = (0..kernel.len())
            .map(|i| {
                let from = i.saturating_sub(SMOOTHING / 2);
                median(&kernel[from..(i + SMOOTHING / 2 + 1).min(kernel.len())])
            })
            .collect();
        // For the gap after each sample: its start on the reference
        // timebase and its scale factor.
        let mut gaps = Vec::with_capacity(cal.len() - 1);
        let mut at = 0.0;
        for (k, w) in cal.windows(2).enumerate() {
            let factor = REFERENCE_KERNEL_S / ((smoothed[k] + smoothed[k + 1]) / 2.0);
            gaps.push((w[0].1, at, factor));
            at += (w[1].0 - w[0].1) * factor;
        }
        self.ops
            .iter()
            .map(|&(began, end)| {
                let k = gaps.partition_point(|g| g.0 <= began).max(1) - 1;
                let (from, base, factor) = gaps[k];
                (base + (began - from) * factor, base + (end - from) * factor)
            })
            .collect()
    }
}

/// The end-to-end metrics of a measured phase.
///
/// The ops are cut into consecutive chunks of whole passes, each just large
/// enough for the tail percentile to have ten samples beyond it. Every time
/// metric is computed per chunk and reported as the median over chunks, so
/// a few seconds of interference from other tenants of a shared host
/// cannot set a run's tail on their own.
pub struct EndToEnd<'a> {
    /// Every op of the measured phase, in completion order, on `timebase`.
    pub ops: &'a [Span],
    pub timebase: Timebase,
    /// Ops per pass of the workload's op mix.
    pub pass_ops: usize,
    pub setup_s: &'a [f64],
    pub tail: Tail,
}

impl EndToEnd<'_> {
    /// Ops per chunk: whole passes, with ten samples beyond the tail.
    fn chunk_ops(&self) -> usize {
        let min_ops = (10.0 / (1.0 - self.tail.q)).round() as usize;
        let pass = self.pass_ops.max(1);
        min_ops.div_ceil(pass) * pass
    }

    /// `(ops per second, p50, tail)` of each chunk; the last chunk takes
    /// any remainder.
    fn chunks(&self) -> Vec<[f64; 3]> {
        let size = self.chunk_ops();
        let count = (self.ops.len() / size).max(1);
        (0..count)
            .map(|i| {
                let end = if i + 1 == count {
                    self.ops.len()
                } else {
                    (i + 1) * size
                };
                let chunk = &self.ops[i * size..end];
                let first = chunk.iter().map(|o| o.0).fold(f64::INFINITY, f64::min);
                let last = chunk.iter().map(|o| o.1).fold(0.0, f64::max);
                let mut lat: Vec<f64> = chunk.iter().map(|o| o.1 - o.0).collect();
                lat.sort_by(f64::total_cmp);
                [
                    ratio(chunk.len() as f64, last - first),
                    quantile(&lat, 0.5),
                    quantile(&lat, self.tail.q),
                ]
            })
            .collect()
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.ops.len() as u64;
        let chunks = self.chunks();
        let over_chunks = |i: usize| median(&chunks.iter().map(|c| c[i]).collect::<Vec<_>>());
        vec![
            Metric::new(
                "setup_s",
                median(self.setup_s),
                "s",
                self.setup_s.len() as u64,
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
            Metric::new("ops_per_s", over_chunks(0), "1/s", n),
            Metric::new("latency_p50_ms", over_chunks(1) * 1e3, "ms", n),
            Metric::new("latency_tail_ms", over_chunks(2) * 1e3, "ms", n),
        ]
    }

    /// How the figures were taken, for the human-readable block.
    pub fn note(&self) -> String {
        let n = self.ops.len();
        let size = self.chunk_ops();
        let mut note = format!(
            "{n} ops in {} chunk(s) of >= {size} ops; latency_tail_ms is {} per chunk; \
             time metrics are {} medians over chunks",
            (n / size).max(1),
            self.tail.label,
            self.timebase.label()
        );
        if n < size {
            note.push_str("; fewer than 10 samples beyond the tail, run longer");
        }
        note
    }
}

/// The median of a list, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Fisher–Yates shuffle driven by the seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Run `setup` `reps` times, timing each on `timebase`; keep the last
/// result. Set-up is repeated so its reported time is a median, not one
/// noisy sample.
pub fn repeat_setup<T>(
    reps: usize,
    timebase: Timebase,
    mut setup: impl FnMut() -> Fallible<T>,
) -> Fallible<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut before = timebase.sample();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = setup()?;
        let wall = secs(t);
        let after = timebase.sample();
        times.push(Timebase::scale(wall, before, after));
        before = after;
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The commit checked out in the working directory, read from `.git`;
/// `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
