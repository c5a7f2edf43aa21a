//! `serve-light` (open loop) and `serve-burst` (closed loop) against a
//! self-hosted `sia-serve` server.

use crate::model::{self, Arch, ModelSpec};
use crate::schedule::{self, Arrival};
use crate::stats::{self, Outcome, Tally};
use crate::trace::Tracer;
use crate::{median_time, ratio, timed, Ctx, Delta, Report, SETUP_REPS, TIMESTEPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sia_serve::{
    enforce_static_checks, images_json, load_bytes, parse_images, parse_predictions,
    predictions_json, Client, LoadedModel, ModelRegistry, Prediction, ServeConfig, Server,
    ServingUnit,
};
use sia_snn::{spiking_stage_sizes, EnginePool, ExitPolicy, IntEngineFactory};
use sia_tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Open loop, Poisson arrivals, one image per request, fixed policy.
    Light,
    /// Closed loop, one client per core, 8 images per request, margin exit.
    Burst,
}

/// ResNet-18 w4 at 16×16: the served model of both workloads.
const SPEC: ModelSpec = ModelSpec {
    arch: Arch::ResNet18,
    width: 4,
    size: 16,
};

/// Open-loop arrival rate.
const RATE_PER_S: f64 = 100.0;

/// Distinct request bodies in the corpus.
const BODIES: usize = 32;

/// Images per request body, per mode.
fn images_per_request(mode: Mode) -> usize {
    match mode {
        Mode::Light => 1,
        Mode::Burst => 8,
    }
}

/// Closed-loop warm-up before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);

/// The server's configuration: `sia serve`'s defaults, plus the margin
/// early-exit policy `sia bench` ships for the burst workload.
fn serve_config(mode: Mode) -> ServeConfig {
    ServeConfig {
        exit: match mode {
            Mode::Light => ExitPolicy::Fixed,
            Mode::Burst => ExitPolicy::Margin {
                threshold: 0.5,
                window: 1,
            },
        },
        ..ServeConfig::default()
    }
}

/// The request corpus: encoded bodies, their images and the reference
/// predictions of each.
struct Corpus {
    bodies: Vec<Vec<u8>>,
    images: Vec<Vec<Tensor>>,
    expected: Vec<Vec<Prediction>>,
}

/// A self-hosted server and its accept-loop thread.
struct Hosted {
    server: Arc<Server>,
    accept: JoinHandle<Result<(), String>>,
    addr: String,
}

impl Hosted {
    fn stop(self) -> Result<(), String> {
        self.server.request_shutdown();
        self.accept
            .join()
            .map_err(|_| "server accept loop panicked".to_string())?
    }
}

/// One set-up: registry load (parse, hash, static checks) and server bind
/// (serving unit and engine pool start). Returns the hosted server and the
/// seconds of `(total, load, bind)`.
fn host(
    bytes: &[u8],
    mode: Mode,
    tracer: &Tracer,
    trace_id: u64,
) -> Result<(Hosted, Arc<LoadedModel>, [f64; 3]), String> {
    let t0 = Instant::now();
    tracer.span("setup", trace_id, None, |root| {
        let registry = Arc::new(ModelRegistry::new(TIMESTEPS));
        let (model, load_s) = timed(|| {
            tracer.span("registry.load", trace_id, Some(root), |_| {
                load_bytes(bytes, &SPEC.label(), TIMESTEPS).map(|m| registry.insert(Arc::new(m)))
            })
        });
        let model = model?;
        let (server, bind_s) = timed(|| {
            tracer.span("server.bind", trace_id, Some(root), |_| {
                Server::bind(
                    "127.0.0.1",
                    0,
                    Arc::clone(&registry),
                    Arc::clone(&model),
                    serve_config(mode),
                )
            })
        });
        let server = server?;
        let addr = format!("127.0.0.1:{}", server.port());
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let total = t0.elapsed().as_secs_f64();
        Ok((
            Hosted {
                server,
                accept,
                addr,
            },
            model,
            [total, load_s, bind_s],
        ))
    })
}

/// One request's fate.
#[derive(Clone, Copy, Debug)]
struct Record {
    outcome: Outcome,
    /// Response bits differ from the reference.
    mismatch: bool,
    images: usize,
    /// Open loop: from due time to response; closed loop: from send.
    latency_ns: u64,
    /// How late the send ran against its due time (open loop).
    late_ns: u64,
    /// Response time since the phase started.
    done_ns: u64,
}

/// Bitwise equality of served and reference predictions.
fn same_bits(got: &[Prediction], want: &[Prediction]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.class == w.class
                && g.logits.len() == w.logits.len()
                && g.logits
                    .iter()
                    .zip(&w.logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Posts corpus entry `input` and checks the answer. A failed connection
/// is dropped so the next request reconnects.
fn exchange(
    client: &mut Option<Client>,
    addr: &str,
    corpus: &Corpus,
    input: usize,
    tracer: &Tracer,
    trace_id: u64,
) -> (Outcome, bool) {
    tracer.span("request", trace_id, None, |root| {
        if client.is_none() {
            *client = Client::connect(addr).ok();
        }
        let Some(c) = client.as_mut() else {
            return (Outcome::ConnectionError, false);
        };
        let response = tracer.span("http.post", trace_id, Some(root), |_| {
            c.post("/predict", &corpus.bodies[input])
        });
        match response {
            Err(_) => {
                *client = None;
                (Outcome::ConnectionError, false)
            }
            Ok((200, body)) => {
                let got = tracer.span("json.resp_decode", trace_id, Some(root), |_| {
                    parse_predictions(&body)
                });
                let ok = got.is_ok_and(|g| same_bits(&g, &corpus.expected[input]));
                (Outcome::Ok, !ok)
            }
            Ok((status, _)) => (Outcome::Status(status), false),
        }
    })
}

/// Open loop: `conns` keep-alive connections take the schedule's requests
/// in order, each sent at its due time or as soon as a connection frees.
fn open_loop(
    addr: &str,
    corpus: &Corpus,
    arrivals: &[Arrival],
    conns: usize,
    tracer: &Tracer,
    trace_base: u64,
) -> Result<Vec<Record>, String> {
    let images = corpus.images[0].len();
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).ok();
                    let mut records = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(a) = arrivals.get(i) else {
                            return records;
                        };
                        let due = start + Duration::from_secs_f64(a.due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (outcome, mismatch) = exchange(
                            &mut client,
                            addr,
                            corpus,
                            a.input,
                            tracer,
                            trace_base + i as u64,
                        );
                        let done = Instant::now();
                        records.push(Record {
                            outcome,
                            mismatch,
                            images,
                            latency_ns: (done - due).as_nanos() as u64,
                            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                            done_ns: done.saturating_duration_since(start).as_nanos() as u64,
                        });
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(
                w.join()
                    .map_err(|_| "load generator panicked".to_string())?,
            );
        }
        Ok(all)
    })
}

/// Closed loop: `clients` connections each post seeded corpus entries back
/// to back until `duration` has passed.
fn closed_loop(
    addr: &str,
    corpus: &Corpus,
    clients: usize,
    duration: Duration,
    seed: u64,
    tracer: &Tracer,
    trace_base: u64,
) -> Result<Vec<Record>, String> {
    let images = corpus.images[0].len();
    let ids = AtomicU64::new(trace_base);
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let ids = &ids;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(model::derive(seed, 100 + c as u64));
                    let mut client = Client::connect(addr).ok();
                    let mut records = Vec::new();
                    while Instant::now() < end {
                        let input = rng.gen_range(0..corpus.bodies.len());
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let (outcome, mismatch) =
                            exchange(&mut client, addr, corpus, input, tracer, id);
                        let done = Instant::now();
                        records.push(Record {
                            outcome,
                            mismatch,
                            images,
                            latency_ns: (done - sent).as_nanos() as u64,
                            late_ns: 0,
                            done_ns: (done - start).as_nanos() as u64,
                        });
                    }
                    records
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().map_err(|_| "load client panicked".to_string())?);
        }
        Ok(all)
    })
}

/// Requests per latency window: 100 leaves ten samples beyond p90.
const WINDOW: usize = 100;

/// End-to-end figures of one measured phase.
struct Phase {
    tally: Tally,
    mismatches: usize,
    /// Latency figures over windows.
    latency: stats::Windowed,
    /// Whole-phase median and p99, for the human-readable report.
    run_p50_ms: f64,
    run_p99_ms: f64,
    images_per_s: f64,
    late_p99_ms: f64,
    sent: usize,
}

/// Folds a phase's records. The open loop's throughput is its served
/// images over the schedule; the closed loop's is the median of its
/// per-window rates.
fn summarize(mut records: Vec<Record>, mode: Mode, phase_s: f64) -> Phase {
    records.sort_by_key(|r| r.done_ns);
    let mut tally = Tally::default();
    for r in &records {
        tally.record(r.outcome);
    }
    let ok: Vec<&Record> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .collect();
    let lat: Vec<f64> = ok.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
    let late = stats::sorted(
        &records
            .iter()
            .map(|r| r.late_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let images_per_s = match mode {
        Mode::Light => ratio(ok.iter().map(|r| r.images).sum::<usize>() as f64, phase_s),
        Mode::Burst => {
            let mut start_ns = 0;
            let rates: Vec<f64> = ok
                .chunks_exact(WINDOW)
                .map(|c| {
                    let end_ns = c[c.len() - 1].done_ns;
                    let images: usize = c.iter().map(|r| r.images).sum();
                    let rate = ratio(images as f64 * 1e9, (end_ns - start_ns) as f64);
                    start_ns = end_ns;
                    rate
                })
                .collect();
            stats::median(&rates)
        }
    };
    let sorted = stats::sorted(&lat);
    Phase {
        tally,
        mismatches: records.iter().filter(|r| r.mismatch).count(),
        latency: stats::windowed(&lat, WINDOW),
        run_p50_ms: stats::quantile(&sorted, 0.5),
        run_p99_ms: stats::quantile(&sorted, 0.99),
        images_per_s,
        late_p99_ms: stats::quantile(&late, 0.99),
        sent: records.len(),
    }
}

/// One measured phase of the workload.
fn measure(
    ctx: &Ctx,
    mode: Mode,
    addr: &str,
    corpus: &Corpus,
    tracer: &Tracer,
    trace_base: u64,
) -> Result<Phase, String> {
    let phase = ctx.phase();
    let records = match mode {
        Mode::Light => {
            let arrivals = schedule::poisson(
                model::derive(ctx.seed, 3),
                RATE_PER_S,
                phase.as_secs_f64(),
                corpus.bodies.len(),
            );
            open_loop(addr, corpus, &arrivals, ctx.nproc, tracer, trace_base)?
        }
        Mode::Burst => closed_loop(addr, corpus, ctx.nproc, phase, ctx.seed, tracer, trace_base)?,
    };
    Ok(summarize(records, mode, phase.as_secs_f64()))
}

/// Mean µs per call of `f` over `inputs`, sweeping the inputs until at
/// least 50 ms of calls have run; one span covers each sweep.
fn micro<T>(tracer: &Tracer, name: &'static str, inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut calls = 0u64;
    let t0 = Instant::now();
    while calls == 0 || t0.elapsed() < Duration::from_millis(50) {
        tracer.span(name, 0, None, |_| inputs.iter().for_each(&mut f));
        calls += inputs.len() as u64;
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Runs `serve-light` or `serve-burst`.
///
/// # Errors
///
/// Fails when the model does not load or the server cannot be hosted.
pub fn run(ctx: &Ctx, mode: Mode) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = Tracer::new(ctx.trace);
    let bytes = model::image_bytes(SPEC);
    let per_request = images_per_request(mode);
    let set = model::inputs(SPEC.size, BODIES * per_request, ctx.seed);
    let all_images = model::images(&set);
    let images: Vec<Vec<Tensor>> = all_images.chunks(per_request).map(<[_]>::to_vec).collect();

    // --- set-up, repeated; the last server stays up ---
    let mut setups = Vec::new();
    let mut hosted = None;
    for rep in 0..SETUP_REPS {
        if let Some((h, _)) = hosted.take() {
            Hosted::stop(h)?;
        }
        let (h, model, secs) = host(&bytes, mode, &tracer, rep as u64)?;
        setups.push(secs);
        hosted = Some((h, model));
    }
    let (hosted, model) = hosted.ok_or("no set-up ran")?;
    let col = |i: usize| stats::median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    report.set("setup_s", col(0));
    report.set("registry.load_ms", col(1) * 1e3);
    report.set("server.bind_ms", col(2) * 1e3);
    let net = Arc::clone(&model.network);
    let verify_s = median_time(|| {
        tracer.span("check.verify", 0, None, |_| {
            enforce_static_checks(&net, &model.config, TIMESTEPS)
        })
    });
    report.set("check.verify_ms", verify_s * 1e3);
    let pool_s = median_time(|| {
        tracer.span("pool.start", 0, None, |_| {
            EnginePool::new(IntEngineFactory::new(Arc::clone(&net)), 0)
        })
    });
    report.set("pool.start_ms", pool_s * 1e3);

    // --- reference: a single-thread serving unit, same exit policy ---
    let cfg = serve_config(mode);
    let reference = ServingUnit::start(
        Arc::clone(&model),
        ServeConfig {
            threads: 1,
            max_batch: all_images.len(),
            max_delay_us: 0,
            queue_capacity: all_images.len(),
            ..cfg
        },
    )?;
    let expected_all = reference
        .predict(all_images.clone())
        .map_err(|e| format!("reference predict: {e}"))?;
    reference.shutdown();
    let corpus = Corpus {
        bodies: images.iter().map(|i| images_json(i).into_bytes()).collect(),
        expected: expected_all
            .chunks(per_request)
            .map(<[_]>::to_vec)
            .collect(),
        images,
    };

    // --- warm-up: the closed loop for a second, checked but not timed ---
    let warm = closed_loop(
        &hosted.addr,
        &corpus,
        ctx.nproc,
        WARMUP,
        model::derive(ctx.seed, 4),
        &Tracer::new(false),
        0,
    )?;
    if let Some(r) = warm.iter().find(|r| r.outcome != Outcome::Ok) {
        return Err(format!("warm-up request failed: {:?}", r.outcome));
    }
    let mut mismatches = warm.iter().filter(|r| r.mismatch).count();

    // --- measured phase(s) ---
    let untraced = measure(ctx, mode, &hosted.addr, &corpus, &Tracer::new(false), 0)?;
    mismatches += untraced.mismatches;
    report.tally.merge(untraced.tally);
    let latency = untraced.latency;
    report.note(format!(
        "{} requests, {} failed (failed_frac {:.4}); generator late p99 {:.3} ms; \
         whole-phase p50 {:.3} ms, p99 {:.3} ms",
        untraced.sent,
        untraced.tally.failed,
        untraced.tally.failed_frac(),
        untraced.late_p99_ms,
        untraced.run_p50_ms,
        untraced.run_p99_ms
    ));
    report.note(format!(
        "p50_ms and tail_ms ({}) are medians over {} windows of {WINDOW} requests",
        stats::percentile_name(latency.q),
        latency.windows
    ));
    report.set("p50_ms", latency.p50);
    report.set("tail_ms", latency.tail);
    report.set("images_per_s", untraced.images_per_s);
    report.set("ok_frac", untraced.tally.ok_frac());

    if ctx.trace {
        let mut delta = Delta::begin();
        let t0 = Instant::now();
        let traced = measure(ctx, mode, &hosted.addr, &corpus, &tracer, 1 << 32)?;
        let wall_s = t0.elapsed().as_secs_f64();
        delta.end();
        mismatches += traced.mismatches;
        report.tally.merge(traced.tally);
        let neurons = spiking_stage_sizes(&net).1.iter().sum();
        traced_metrics(&mut report, mode, &traced, &untraced, &delta, neurons);
        let workers = hosted.server.serving().workers() as f64;
        report.set(
            "pool.busy_frac",
            ratio(
                delta.sum("snn.eval.image_us") as f64 / 1e6,
                workers * wall_s,
            ),
        );
        report.set(
            "engine.image_ms",
            crate::engine_image_ms(&net, &all_images, cfg.exit, &tracer),
        );

        // JSON layers, timed on the corpus the run sent
        let dims = net.input;
        let responses: Vec<String> = corpus
            .expected
            .iter()
            .map(|p| predictions_json(p))
            .collect();
        let encode = micro(&tracer, "json.encode", &corpus.images, |i| {
            std::hint::black_box(images_json(i));
        });
        let decode = micro(&tracer, "json.decode", &corpus.bodies, |b| {
            std::hint::black_box(parse_images(b, dims).ok());
        });
        let resp_encode = micro(&tracer, "json.resp_encode", &corpus.expected, |p| {
            std::hint::black_box(predictions_json(p));
        });
        let resp_decode = micro(&tracer, "json.resp_decode", &responses, |r| {
            std::hint::black_box(parse_predictions(r.as_bytes()).ok());
        });
        report.set("json.encode_us", encode);
        report.set("json.decode_us", decode);
        report.set("json.resp_encode_us", resp_encode);
        report.set("json.resp_decode_us", resp_decode);
        let spans = tracer.take();
        let rtt = crate::trace::self_times(&spans)
            .get("http.post")
            .map_or(0.0, |t| t.mean_ms());
        let wait = report.get("batcher.wait_ms");
        let unit = report.get("unit.request_ms");
        let json_ms = (decode + resp_encode) / 1e3;
        report.set("http.rtt_ms", rtt);
        report.set("http.self_ms", rtt - unit);
        report.set("rtt_share.batcher", ratio(wait, rtt));
        report.set("rtt_share.compute", ratio(unit - wait, rtt));
        report.set("rtt_share.json", ratio(json_ms, rtt));
        report.set("rtt_share.unattributed", ratio(rtt - unit - json_ms, rtt));
        report.set("trace.spans", spans.len() as f64);
        crate::note_self_times(&mut report, &spans);
        let path = crate::write_spans(
            match mode {
                Mode::Light => "serve-light",
                Mode::Burst => "serve-burst",
            },
            ctx.seed,
            &spans,
        )?;
        report.note(format!("spans written to {path}"));
    }
    hosted.stop()?;
    report.correct = mismatches == 0;
    if mismatches > 0 {
        report.note(format!("{mismatches} responses differ from the reference"));
    }
    report.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(report)
}

/// Per-layer figures of the traced phase: bench spans for the client
/// side, the program's telemetry for the server side.
fn traced_metrics(
    report: &mut Report,
    mode: Mode,
    traced: &Phase,
    untraced: &Phase,
    delta: &Delta,
    neurons: u64,
) {
    report.set("gen.sent", traced.sent as f64);
    report.set(
        "gen.late_p99_ms",
        if mode == Mode::Light {
            traced.late_p99_ms
        } else {
            0.0
        },
    );
    report.set(
        "trace.overhead_frac",
        match mode {
            // the open loop's rate is fixed: tracing shows in latency
            Mode::Light => ratio(traced.latency.p50, untraced.latency.p50) - 1.0,
            Mode::Burst => 1.0 - ratio(traced.images_per_s, untraced.images_per_s),
        },
    );
    let us_to_ms = 1e-3;
    report.set("unit.request_ms", delta.mean("serve.request_us") * us_to_ms);
    report.set(
        "batcher.wait_ms",
        delta.mean("serve.queue_wait_us") * us_to_ms,
    );
    let batch = delta.mean("serve.batch.size");
    report.set("batcher.batch_requests", batch);
    report.set(
        "batcher.fill_frac",
        batch / serve_config(mode).max_batch as f64,
    );
    report.set(
        "batcher.rejected",
        delta.counter("serve.batcher.rejected") as f64,
    );
    report.set("pool.image_ms", delta.mean("snn.eval.image_us") * us_to_ms);
    let taps = delta.counter("snn.taps.processed") + delta.counter("snn.taps.skipped");
    report.set(
        "kernel.tap_skip_frac",
        ratio(delta.counter("snn.taps.skipped") as f64, taps as f64),
    );
    let images = delta.count("snn.eval.image_us");
    let (executed, exited) = match mode {
        Mode::Light => (images * TIMESTEPS as u64, 0),
        // t ≤ TIMESTEPS = 8, so the log2 bucket of bit length 4 (8..=15)
        // holds exactly the runs that did not exit early
        Mode::Burst => (
            delta.sum("snn.exit.t"),
            delta.count("snn.exit.t") - delta.bucket("snn.exit.t", 4),
        ),
    };
    report.set("exit.avg_t", ratio(executed as f64, images as f64));
    report.set("exit.rate", ratio(exited as f64, images as f64));
    report.set(
        "engine.spike_density",
        ratio(
            delta.counter("snn.spikes") as f64,
            (neurons * executed) as f64,
        ),
    );
}
