//! `eval-offline` (`BatchEvaluator` on the int backend) and `accel-sim`
//! (the cycle-level SIA through `EnginePool` over `SiaEngineFactory`).

use crate::model::{self, Arch, ModelSpec};
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{median_time, ratio, timed, Ctx, Delta, Report, SETUP_REPS, TIMESTEPS};
use sia_accel::{compile_for, SiaEngineFactory};
use sia_dataset::LabelledSet;
use sia_serve::{enforce_static_checks, load_bytes, LoadedModel};
use sia_snn::{
    spiking_stage_sizes, BatchEvaluator, EnginePool, EvalBatch, EvalConfig, EvalEncoding,
    EvalOutcome, ExitPolicy, IntEngineFactory, IntRunner, SnnNetwork, SnnOutput, SpikeStats,
};
use sia_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// ResNet-18 w8 at the paper's 32×32 CIFAR input.
const EVAL_SPEC: ModelSpec = ModelSpec {
    arch: Arch::ResNet18,
    width: 8,
    size: 32,
};

/// Images per `BatchEvaluator::evaluate` pass.
const EVAL_IMAGES: usize = 24;

/// Per-image latencies per window: 100 leaves ten samples beyond p90.
const EVAL_WINDOW: usize = 100;

/// VGG-11 w16 at 32×32 on the simulated SIA.
const ACCEL_SPEC: ModelSpec = ModelSpec {
    arch: Arch::Vgg11,
    width: 16,
    size: 32,
};

/// Images per `EnginePool::submit` pass on the simulator.
const ACCEL_IMAGES: usize = 16;

/// Per-image latencies per window on the slower simulator: 40 leaves ten
/// samples beyond p75.
const ACCEL_WINDOW: usize = 40;

/// Single-thread reference runs, one per image: the int datapath every
/// backend must match bit for bit.
fn reference(net: &SnnNetwork, images: &[Tensor]) -> Vec<SnnOutput> {
    let mut runner = IntRunner::new(net);
    images
        .iter()
        .map(|img| runner.run_policy(img, TIMESTEPS, 0, ExitPolicy::Fixed))
        .collect()
}

/// Timed passes of one phase: each pass's wall seconds, and every image's
/// µs as the pool reports it, in completion order.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    latency_us: Vec<f64>,
    mismatches: usize,
}

impl Passes {
    /// Median per-pass throughput.
    fn images_per_s(&self, per_pass: usize) -> f64 {
        stats::median(
            &self
                .walls
                .iter()
                .map(|w| ratio(per_pass as f64, *w))
                .collect::<Vec<_>>(),
        )
    }

    fn report_end_to_end(&self, report: &mut Report, per_pass: usize, window: usize) {
        let us_to_ms = 1e-3;
        let latency = stats::windowed(&self.latency_us, window);
        report.set("p50_ms", latency.p50 * us_to_ms);
        report.set("tail_ms", latency.tail * us_to_ms);
        report.set("images_per_s", self.images_per_s(per_pass));
        report.set("ok_frac", 1.0);
        report.note(format!(
            "{} passes of {per_pass} images, images_per_s their median; p50_ms and \
             tail_ms ({}) are medians over {} windows of {window} images",
            self.walls.len(),
            stats::percentile_name(latency.q),
            latency.windows
        ));
    }
}

/// Runs `pass` back to back until `duration` has passed (at least once).
fn run_passes(
    duration: Duration,
    mut pass: impl FnMut(usize) -> Result<(Vec<u64>, bool), String>,
) -> Result<Passes, String> {
    let mut out = Passes::default();
    let end = Instant::now() + duration;
    while out.walls.is_empty() || Instant::now() < end {
        let (result, wall) = timed(|| pass(out.walls.len()));
        let (latencies, matched) = result?;
        out.latency_us.extend(latencies.iter().map(|&us| us as f64));
        out.walls.push(wall);
        out.mismatches += usize::from(!matched);
    }
    Ok(out)
}

/// Registry load of the image bytes, inside a `registry.load` span.
fn load(
    bytes: &[u8],
    spec: ModelSpec,
    tracer: &Tracer,
    trace_id: u64,
    parent: u64,
) -> Result<Arc<LoadedModel>, String> {
    tracer.span("registry.load", trace_id, Some(parent), |_| {
        load_bytes(bytes, &spec.label(), TIMESTEPS).map(Arc::new)
    })
}

/// Static-check and single-engine figures every offline workload reports.
fn common_layers(
    report: &mut Report,
    model: &LoadedModel,
    images: &[Tensor],
    tracer: &Tracer,
    traced: bool,
) {
    let net = &model.network;
    let verify = median_time(|| {
        tracer.span("check.verify", 0, None, |_| {
            enforce_static_checks(net, &model.config, TIMESTEPS)
        })
    });
    report.set("check.verify_ms", verify * 1e3);
    if traced {
        report.set(
            "engine.image_ms",
            crate::engine_image_ms(net, images, ExitPolicy::Fixed, tracer),
        );
    }
}

/// The outcome `BatchEvaluator` must reproduce, folded from the reference
/// runs exactly as the evaluator folds pool results. Its equality covers
/// every deterministic field: predictions, the per-timestep correct
/// counts, the per-stage spike counts and the executed timesteps.
fn expected_outcome(set: &LabelledSet, outputs: &[SnnOutput]) -> EvalOutcome {
    let mut correct_per_t = vec![0u64; TIMESTEPS];
    let mut stats: Option<SpikeStats> = None;
    for (i, out) in outputs.iter().enumerate() {
        let last = out.logits_per_t.len() - 1;
        for (t, c) in correct_per_t.iter_mut().enumerate() {
            if out.predicted_at(t.min(last)) == set.get(i).1 {
                *c += 1;
            }
        }
        match &mut stats {
            Some(s) => s.merge(&out.stats),
            None => stats = Some(out.stats.clone()),
        }
    }
    EvalOutcome {
        total: outputs.len(),
        timesteps: TIMESTEPS,
        predictions: outputs.iter().map(SnnOutput::predicted).collect(),
        correct_per_t,
        stats: stats.unwrap_or_default(),
        executed_t: outputs.iter().map(|o| o.logits_per_t.len()).collect(),
        latency_us: Vec::new(),
    }
}

/// Runs `eval-offline`.
///
/// # Errors
///
/// Fails when the model does not load.
pub fn eval_offline(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    let bytes = model::image_bytes(EVAL_SPEC);
    let set = model::inputs(EVAL_SPEC.size, EVAL_IMAGES, ctx.seed);
    let images = model::images(&set);

    // --- set-up, repeated: registry load and engine pool start ---
    let mut setups = Vec::new();
    let mut loaded = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (model, pool, load_s, pool_s) = tracer.span("setup", rep as u64, None, |root| {
            let (model, load_s) = timed(|| load(&bytes, EVAL_SPEC, &tracer, rep as u64, root));
            let model = model?;
            let (pool, pool_s) = timed(|| {
                tracer.span("pool.start", rep as u64, Some(root), |_| {
                    EnginePool::new(IntEngineFactory::new(Arc::clone(&model.network)), ctx.nproc)
                })
            });
            Ok::<_, String>((model, pool, load_s, pool_s))
        })?;
        setups.push([t0.elapsed().as_secs_f64(), load_s, pool_s]);
        // `BatchEvaluator` starts a pool per pass; this one only times the start
        drop(pool);
        loaded = Some(model);
    }
    let model = loaded.ok_or("no set-up ran")?;
    let col = |i: usize| stats::median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    report.set("setup_s", col(0));
    report.set("registry.load_ms", col(1) * 1e3);
    report.set("pool.start_ms", col(2) * 1e3);
    common_layers(&mut report, &model, &images, &tracer, ctx.trace);

    // --- reference and checked warm-up ---
    let expected = expected_outcome(&set, &reference(&model.network, &images));
    let evaluator = BatchEvaluator::new(EvalConfig {
        timesteps: TIMESTEPS,
        burn_in: 0,
        threads: ctx.nproc,
        encoding: EvalEncoding::Dense,
        exit: ExitPolicy::Fixed,
    });
    let evaluate = || evaluator.evaluate(IntEngineFactory::new(Arc::clone(&model.network)), &set);
    let mut mismatches = usize::from(evaluate() != expected);

    let phase = |tracer: &Tracer, base: u64| {
        run_passes(ctx.phase(), |i| {
            let outcome = tracer.span("eval.pass", base + i as u64, None, |_| evaluate());
            Ok((outcome.latency_us.clone(), outcome == expected))
        })
    };
    let untraced = phase(&Tracer::new(false), 0)?;
    mismatches += untraced.mismatches;
    untraced.report_end_to_end(&mut report, EVAL_IMAGES, EVAL_WINDOW);
    report.tally.merge(Tally::all_ok(untraced.latency_us.len()));

    if ctx.trace {
        let mut delta = Delta::begin();
        let traced = phase(&tracer, 1 << 32)?;
        delta.end();
        mismatches += traced.mismatches;
        report.tally.merge(Tally::all_ok(traced.latency_us.len()));
        report.set(
            "trace.overhead_frac",
            1.0 - ratio(
                traced.images_per_s(EVAL_IMAGES),
                untraced.images_per_s(EVAL_IMAGES),
            ),
        );
        pool_layers(&mut report, &delta, ctx.nproc, traced.walls.iter().sum());
        let neurons: u64 = spiking_stage_sizes(&model.network).1.iter().sum();
        let steps = (traced.latency_us.len() * TIMESTEPS) as f64;
        report.set(
            "engine.spike_density",
            ratio(delta.counter("snn.spikes") as f64, neurons as f64 * steps),
        );
        report.set("exit.avg_t", TIMESTEPS as f64);
        report.set("exit.rate", 0.0);
        finish_trace(&mut report, &tracer, "eval-offline", ctx.seed)?;
    }
    report.correct = mismatches == 0;
    report.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(report)
}

/// Pool and kernel figures of a traced phase.
fn pool_layers(report: &mut Report, delta: &Delta, workers: usize, wall_s: f64) {
    report.set("pool.image_ms", delta.mean("snn.eval.image_us") / 1e3);
    report.set(
        "pool.busy_frac",
        ratio(
            delta.sum("snn.eval.image_us") as f64 / 1e6,
            workers as f64 * wall_s,
        ),
    );
    let skipped = delta.counter("snn.taps.skipped") as f64;
    let taps = skipped + delta.counter("snn.taps.processed") as f64;
    report.set("kernel.tap_skip_frac", ratio(skipped, taps));
}

/// Span count, self-time table and span dump of a traced run.
fn finish_trace(
    report: &mut Report,
    tracer: &Tracer,
    workload: &str,
    seed: u64,
) -> Result<(), String> {
    let spans = tracer.take();
    report.set("trace.spans", spans.len() as f64);
    crate::note_self_times(report, &spans);
    let path = crate::write_spans(workload, seed, &spans)?;
    report.note(format!("spans written to {path}"));
    Ok(())
}

/// Bitwise equality of a machine run and its int reference.
fn same_bits(got: &SnnOutput, want: &SnnOutput) -> bool {
    got.stats == want.stats
        && got.logits_per_t.len() == want.logits_per_t.len()
        && got
            .logits_per_t
            .iter()
            .flatten()
            .zip(want.logits_per_t.iter().flatten())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Simulated-hardware counters of one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SimPass {
    total: u64,
    compute: u64,
    transfer: u64,
    ops: u64,
    active_pe: u64,
    seg_processed: u64,
    seg_skipped: u64,
}

impl SimPass {
    fn of(delta: &Delta) -> Self {
        SimPass {
            total: delta.counter("accel.total_cycles"),
            compute: delta.counter("accel.compute_cycles"),
            transfer: delta.counter("accel.transfer_cycles"),
            ops: delta.counter("accel.ops"),
            active_pe: delta.counter("accel.pe.active_cycles"),
            seg_processed: delta.counter("accel.pe.segments_processed"),
            seg_skipped: delta.counter("accel.pe.segments_skipped"),
        }
    }
}

/// Runs `accel-sim`.
///
/// # Errors
///
/// Fails when the model does not load or compile.
pub fn accel_sim(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    let bytes = model::image_bytes(ACCEL_SPEC);
    let set = model::inputs(ACCEL_SPEC.size, ACCEL_IMAGES, ctx.seed);
    let images = model::images(&set);

    // --- set-up, repeated: registry load, compile, engine pool start ---
    let mut setups = Vec::new();
    let mut hosted = None;
    for rep in 0..SETUP_REPS {
        // the previous pool joins its workers before the next set-up is timed
        drop(hosted.take());
        let t0 = Instant::now();
        let (model, pool, times) = tracer.span("setup", rep as u64, None, |root| {
            let (model, load_s) = timed(|| load(&bytes, ACCEL_SPEC, &tracer, rep as u64, root));
            let model = model?;
            let (program, compile_s) = timed(|| {
                tracer.span("accel.compile", rep as u64, Some(root), |_| {
                    compile_for(&model.network, &model.config, TIMESTEPS)
                })
            });
            let program = program.map_err(|e| e.to_string())?;
            let (pool, pool_s) = timed(|| {
                tracer.span("pool.start", rep as u64, Some(root), |_| {
                    EnginePool::new(
                        SiaEngineFactory::new(program, model.config.clone()),
                        ctx.nproc,
                    )
                })
            });
            Ok::<_, String>((model, pool, [load_s, compile_s, pool_s]))
        })?;
        setups.push([t0.elapsed().as_secs_f64(), times[0], times[1], times[2]]);
        hosted = Some((model, pool));
    }
    let (model, pool) = hosted.ok_or("no set-up ran")?;
    let col = |i: usize| stats::median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    report.set("setup_s", col(0));
    report.set("registry.load_ms", col(1) * 1e3);
    report.set("accel.compile_ms", col(2) * 1e3);
    report.set("pool.start_ms", col(3) * 1e3);
    common_layers(&mut report, &model, &images, &tracer, ctx.trace);

    // --- reference (machine ≡ int runner) and checked warm-up ---
    let expected = reference(&model.network, &images);
    let params = EvalBatch {
        timesteps: TIMESTEPS,
        burn_in: 0,
        encoding: EvalEncoding::Dense,
        exit: ExitPolicy::Fixed,
    };
    let mut sim: Option<SimPass> = None;
    let mut sim_repeats = true;
    let mut submit = |tracer: &Tracer, trace_id: u64| -> Result<(Vec<u64>, bool), String> {
        let mut delta = Delta::begin();
        let results = tracer.span("pool.submit", trace_id, None, |_| {
            pool.submit(images.clone(), params)
        });
        delta.end();
        let results = results.map_err(|e| e.to_string())?;
        let pass = SimPass::of(&delta);
        match sim {
            Some(first) => sim_repeats &= first == pass,
            None => sim = Some(pass),
        }
        let matched = results.len() == expected.len()
            && results
                .iter()
                .zip(&expected)
                .all(|((o, _), w)| same_bits(o, w));
        Ok((results.iter().map(|(_, us)| *us).collect(), matched))
    };
    let (_, warm_ok) = submit(&Tracer::new(false), 0)?;
    let mut mismatches = usize::from(!warm_ok);

    let untraced = run_passes(ctx.phase(), |i| submit(&Tracer::new(false), i as u64))?;
    mismatches += untraced.mismatches;
    untraced.report_end_to_end(&mut report, ACCEL_IMAGES, ACCEL_WINDOW);
    report.tally.merge(Tally::all_ok(untraced.latency_us.len()));

    if ctx.trace {
        let mut delta = Delta::begin();
        let t = run_passes(ctx.phase(), |i| submit(&tracer, (1 << 32) + i as u64))?;
        delta.end();
        mismatches += t.mismatches;
        report.tally.merge(Tally::all_ok(t.latency_us.len()));
        report.set(
            "trace.overhead_frac",
            1.0 - ratio(
                t.images_per_s(ACCEL_IMAGES),
                untraced.images_per_s(ACCEL_IMAGES),
            ),
        );
        pool_layers(&mut report, &delta, pool.workers(), t.walls.iter().sum());
        report.set(
            "accel.host_ms_per_image",
            delta.mean("snn.eval.image_us") / 1e3,
        );
    }

    // simulated statistics of one pass, identical on every pass
    let sim = sim.ok_or("no pass ran")?;
    if !sim_repeats {
        report.note("simulated cycle counts differ between passes of the same images".to_string());
    }
    let per_image = |v: u64| v as f64 / ACCEL_IMAGES as f64;
    let cycles = per_image(sim.total);
    let clock_hz = model.config.clock_hz as f64;
    report.set("accel.sim_cycles_per_image", cycles);
    report.set(
        "accel.sim_gops",
        ratio(sim.ops as f64, sim.total as f64 / clock_hz) / 1e9,
    );
    report.set("accel.compute_cycles_per_image", per_image(sim.compute));
    report.set("accel.transfer_cycles_per_image", per_image(sim.transfer));
    report.set(
        "accel.pe_util",
        ratio(
            sim.active_pe as f64,
            sim.compute as f64 * model.config.pe_count() as f64,
        ),
    );
    report.set(
        "accel.segment_skip_frac",
        ratio(
            sim.seg_skipped as f64,
            (sim.seg_processed + sim.seg_skipped) as f64,
        ),
    );
    let merged = expected
        .iter()
        .skip(1)
        .fold(expected[0].stats.clone(), |mut s, o| {
            s.merge(&o.stats);
            s
        });
    report.note(format!(
        "simulated: {cycles:.1} cycles/image, {:.3} GOPS at {:.0} MHz, spike density {:.4}",
        report.get("accel.sim_gops"),
        clock_hz / 1e6,
        merged.overall_rate()
    ));
    if ctx.trace {
        let host_ms = report.get("accel.host_ms_per_image");
        report.set(
            "accel.host_ns_per_kcycle",
            ratio(host_ms * 1e6, cycles / 1e3),
        );
        report.set("engine.spike_density", f64::from(merged.overall_rate()));
        report.set("exit.avg_t", TIMESTEPS as f64);
        report.set("exit.rate", 0.0);
        finish_trace(&mut report, &tracer, "accel-sim", ctx.seed)?;
    }
    report.correct = mismatches == 0 && sim_repeats;
    report.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(report)
}
