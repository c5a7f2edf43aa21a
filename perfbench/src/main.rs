//! End-to-end and per-layer benchmark of the SIA stack.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-burst --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Workloads (all at T = 8; each model has fixed untrained weights, is
//! quantized, converted, written as a `.sia` image and loaded back through
//! `sia_serve::load_bytes`; the seed draws the inputs and the arrival
//! schedule):
//!
//! * `serve-light` — open loop: Poisson arrivals at 100 req/s of one
//!   16×16 image each against a self-hosted `sia-serve` server running
//!   `ServeConfig::default()` on ResNet-18 w4. Not listed in
//!   `BENCHMARK.json`: on a shared 2-vCPU virtual machine its latency is
//!   set by how fast idle vCPUs wake, and across ten runs its p50 and tail
//!   spread by 0.42 and 0.49 of their medians, past any bound worth
//!   gating on. Run it by hand to see the batching window's share.
//! * `serve-burst` — closed loop: one client per core posting 8-image
//!   requests back to back; the server runs the margin early-exit policy.
//! * `eval-offline` — `BatchEvaluator` on the int backend, one thread per
//!   core, ResNet-18 w8 at 32×32.
//! * `accel-sim` — the cycle-level SIA through `EnginePool` over
//!   `SiaEngineFactory`, VGG-11 w16 at 32×32.
//!
//! Every output is compared bit for bit with a single-thread reference
//! computed before the timed region. `--trace 0` times with tracing off and
//! reports the end-to-end metrics; `--trace 1` runs an untraced and a
//! traced phase, writes the span dump to `perfbench/out/` and reports the
//! per-layer metrics. The last line of standard output is one JSON object.

mod model;
mod offline;
mod schedule;
mod serve;
mod stats;
mod trace;

use sia_telemetry::{json, Snapshot};
use stats::Tally;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timesteps every workload runs (the paper's budget, `sia serve`'s default).
pub const TIMESTEPS: usize = 8;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

/// End-to-end metrics, reported with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("images_per_s", "img/s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("http.rtt_ms", "ms"),
    ("http.self_ms", "ms"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("json.resp_encode_us", "us"),
    ("json.resp_decode_us", "us"),
    ("batcher.wait_ms", "ms"),
    ("batcher.batch_requests", "count"),
    ("batcher.fill_frac", "ratio"),
    ("batcher.rejected", "count"),
    ("unit.request_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("check.verify_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("pool.start_ms", "ms"),
    ("pool.image_ms", "ms"),
    ("pool.busy_frac", "ratio"),
    ("engine.image_ms", "ms"),
    ("engine.spike_density", "ratio"),
    ("kernel.tap_skip_frac", "ratio"),
    ("exit.avg_t", "steps"),
    ("exit.rate", "ratio"),
    ("accel.compile_ms", "ms"),
    ("accel.host_ms_per_image", "ms"),
    ("accel.host_ns_per_kcycle", "ns"),
    ("accel.sim_cycles_per_image", "cycles"),
    ("accel.sim_gops", "GOPS"),
    ("accel.compute_cycles_per_image", "cycles"),
    ("accel.transfer_cycles_per_image", "cycles"),
    ("accel.pe_util", "ratio"),
    ("accel.segment_skip_frac", "ratio"),
    ("gen.sent", "count"),
    ("gen.late_p99_ms", "ms"),
    ("rtt_share.batcher", "ratio"),
    ("rtt_share.compute", "ratio"),
    ("rtt_share.json", "ratio"),
    ("rtt_share.unattributed", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed: inputs, arrival schedule and client request order.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Host cores; sizes pools, connections and client threads.
    pub nproc: usize,
}

impl Ctx {
    /// The measured duration of one phase: the whole run untraced, half of
    /// it for each of the traced run's two phases.
    #[must_use]
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched the reference bit for bit.
    pub correct: bool,
    /// Operations attempted and failed in the measured phases.
    pub tally: Tally,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// A metric's value, 0 when unset.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median seconds of [`SETUP_REPS`] calls of `f`.
pub fn median_time<R>(mut f: impl FnMut() -> R) -> f64 {
    stats::median(
        &(0..SETUP_REPS)
            .map(|_| timed(|| std::hint::black_box(f())).1)
            .collect::<Vec<_>>(),
    )
}

/// Mean single-thread `IntRunner::run_policy` time per image over up to
/// 32 of `images`, ms — the engine without the pool around it.
pub fn engine_image_ms(
    net: &sia_snn::SnnNetwork,
    images: &[sia_tensor::Tensor],
    policy: sia_snn::ExitPolicy,
    tracer: &trace::Tracer,
) -> f64 {
    let mut runner = sia_snn::IntRunner::new(net);
    let sample = &images[..images.len().min(32)];
    let (_, secs) = timed(|| {
        for img in sample {
            tracer.span("engine.run", 0, None, |_| {
                std::hint::black_box(runner.run_policy(img, TIMESTEPS, 0, policy));
            });
        }
    });
    secs * 1e3 / sample.len() as f64
}

/// Peak resident set (`VmHWM`) of this process, in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Telemetry movement between two snapshots of the program's registry.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    /// Starts a measurement window.
    #[must_use]
    pub fn begin() -> Self {
        let before = sia_telemetry::global_snapshot();
        Delta {
            after: before.clone(),
            before,
        }
    }

    /// Closes the window.
    pub fn end(&mut self) {
        self.after = sia_telemetry::global_snapshot();
    }

    /// Counter increase over the window.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }

    fn hist(&self, name: &str) -> (u64, u64, Vec<u64>) {
        let get = |s: &Snapshot| {
            s.histograms
                .get(name)
                .map_or((0, 0, Vec::new()), |h| (h.count, h.sum, h.buckets.clone()))
        };
        let (c0, s0, b0) = get(&self.before);
        let (c1, s1, b1) = get(&self.after);
        let buckets = b1
            .iter()
            .enumerate()
            .map(|(i, n)| n - b0.get(i).copied().unwrap_or(0))
            .collect();
        (c1 - c0, s1 - s0, buckets)
    }

    /// Samples a histogram gained over the window.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.hist(name).0
    }

    /// Σ of the samples a histogram gained over the window.
    #[must_use]
    pub fn sum(&self, name: &str) -> u64 {
        self.hist(name).1
    }

    /// Mean of the samples a histogram gained (0 when none).
    #[must_use]
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum, _) = self.hist(name);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Samples gained whose value has bit length `bits` (log2 bucket).
    #[must_use]
    pub fn bucket(&self, name: &str, bits: usize) -> u64 {
        self.hist(name).2.get(bits).copied().unwrap_or(0)
    }
}

/// `num / den`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Writes the span dump of a traced run next to the benchmark sources.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Adds the self-time table of a traced phase to the report's notes.
pub fn note_self_times(report: &mut Report, spans: &[trace::Span]) {
    report.note(format!(
        "{:<22} {:>8} {:>12} {:>12}",
        "span", "count", "mean ms", "self ms"
    ));
    for (name, t) in trace::self_times(spans) {
        report.note(format!(
            "{name:<22} {:>8} {:>12.4} {:>12.4}",
            t.count,
            t.mean_ms(),
            t.self_ms()
        ));
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        },
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve-light" => serve::run(&args.ctx, serve::Mode::Light),
        "serve-burst" => serve::run(&args.ctx, serve::Mode::Burst),
        "eval-offline" => offline::eval_offline(&args.ctx),
        "accel-sim" => offline::accel_sim(&args.ctx),
        other => Err(format!(
            "unknown workload {other} (serve-light|serve-burst|eval-offline|accel-sim)"
        )),
    }
}

/// The result line: every metric of the run's table, by name with unit.
fn result_json(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct, report.tally.attempted, report.tally.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        let value = match value {
            Some(v) => v,
            // an end-to-end metric every workload must measure
            None if table == END_TO_END => return Err(format!("metric {name} not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        out.push_str(":{\"value\":");
        json::write_f64(&mut out, value);
        out.push_str(",\"unit\":");
        json::write_escaped(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let table = if args.ctx.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "{} seed {} ({} s{}, nproc {})",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        if args.ctx.trace { ", traced" } else { "" },
        args.ctx.nproc
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == name) {
            println!("  {name:<34} {v:>14.6} {unit}");
        }
    }
    let line = match result_json(&report, table) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: output mismatch", args.workload);
        ExitCode::FAILURE
    }
}
