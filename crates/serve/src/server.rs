//! The serving front end: persistent engines behind an HTTP/1.1 listener.
//!
//! A [`Server`] owns a [`ModelRegistry`] and one *serving unit* — the
//! currently-served model plus its long-lived [`EnginePool`] and
//! [`DynamicBatcher`]. Connection threads parse `/predict` bodies, submit
//! them to the batcher and block for their replies; a single dispatcher
//! thread drains the batcher and feeds coalesced batches to the pool, so
//! engines stay resident across requests and the per-request cost is the
//! inference itself, not setup.
//!
//! Determinism: a predict batch flows through the exact pipeline
//! `sia eval` uses — [`EnginePool::submit`] with the same per-image
//! independent runs and index-order reduction — so served predictions are
//! bit-identical to offline evaluation on the same model, backend and
//! timestep count, for any thread count and any request interleaving.
//!
//! Endpoints (all JSON):
//!
//! * `POST /predict` — `{"images": [[f32; C·H·W], …]}` →
//!   `{"predictions": [class, …], "logits": [[f32; classes], …]}`;
//!   `503` with `{"error": "overloaded", …}` under backpressure.
//! * `GET /healthz` — serving model hash, backend, shapes.
//! * `GET /metrics` — telemetry snapshot: counters, gauges, histogram
//!   summaries (count/mean/p50/p95/p99) including `snn.eval.image_us`.
//! * `GET /models` — registry contents; `POST /models`
//!   (`{"path": "other.sia"}`) loads, verifies and hot-swaps — a model
//!   failing `sia_check` is refused and the old unit keeps serving.
//! * `POST /shutdown` — clean drain-and-exit (the CI gate's stop signal).

use crate::batcher::{BatcherConfig, DynamicBatcher, Overloaded};
use crate::http::{read_request, write_response, ReadOutcome, Request};
use crate::registry::{Backend, LoadedModel, ModelRegistry};
use sia_accel::{compile_for, SiaEngineFactory};
use sia_snn::{
    EnginePool, EvalBatch, EvalEncoding, ExitPolicy, FloatEngineFactory, IntEngineFactory,
    SnnOutput,
};
use sia_telemetry::json::{self, Json};
use sia_tensor::Tensor;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before polling the
/// shutdown flag (keep-alive connections notice shutdown within this).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Serving parameters (`sia serve`'s knobs).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Engine backend.
    pub backend: Backend,
    /// Pool worker threads; `0` = one per core.
    pub threads: usize,
    /// Timesteps per image.
    pub timesteps: usize,
    /// Readout burn-in.
    pub burn_in: usize,
    /// Batching window: flush at this many queued requests.
    pub max_batch: usize,
    /// Batching window: flush this many µs after the first queued request.
    pub max_delay_us: u64,
    /// Bounded queue depth; beyond it `/predict` returns 503.
    pub queue_capacity: usize,
    /// Confidence-gated early-exit policy applied per served image
    /// ([`ExitPolicy::Fixed`] = run every timestep, the classic behaviour).
    pub exit: ExitPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            backend: Backend::Int,
            threads: 0,
            timesteps: 8,
            burn_in: 0,
            max_batch: 16,
            max_delay_us: 2000,
            queue_capacity: 256,
            exit: ExitPolicy::Fixed,
        }
    }
}

/// One served prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted class at the final timestep.
    pub class: usize,
    /// Final-timestep logits.
    pub logits: Vec<f32>,
}

/// Why a predict call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictError {
    /// Backpressure: the bounded request queue was full.
    Overloaded(Overloaded),
    /// The dispatcher or an engine failed.
    Internal(String),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Overloaded(o) => o.fmt(f),
            PredictError::Internal(msg) => write!(f, "inference failed: {msg}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// One queued request: its images and the channel its reply goes back on.
struct Pending {
    images: Vec<Tensor>,
    reply: mpsc::Sender<Result<Vec<Prediction>, String>>,
    enqueued: Instant,
}

/// A model bound to live engines: the hot-swappable half of a [`Server`].
///
/// Owns the request batcher; the dispatcher thread owns the engine pool
/// and exits when the batcher closes. Dropping the unit drains and joins.
pub struct ServingUnit {
    /// The model this unit serves.
    pub model: Arc<LoadedModel>,
    batcher: Arc<DynamicBatcher<Pending>>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    workers: usize,
    config: ServeConfig,
}

impl ServingUnit {
    /// Builds the engine pool for `model` and starts the dispatcher.
    ///
    /// # Errors
    ///
    /// Fails when the accel backend cannot compile the model.
    pub fn start(model: Arc<LoadedModel>, config: ServeConfig) -> Result<Arc<ServingUnit>, String> {
        let pool = match config.backend {
            Backend::Float => EnginePool::new(
                FloatEngineFactory::new(Arc::clone(&model.network)),
                config.threads,
            ),
            Backend::Int => EnginePool::new(
                IntEngineFactory::new(Arc::clone(&model.network)),
                config.threads,
            ),
            Backend::Accel => {
                let program = compile_for(&model.network, &model.config, config.timesteps)
                    .map_err(|e| e.to_string())?;
                EnginePool::new(
                    SiaEngineFactory::new(program, model.config.clone()),
                    config.threads,
                )
            }
        };
        let params = EvalBatch {
            timesteps: config.timesteps,
            burn_in: config.burn_in,
            encoding: if model.event_input {
                EvalEncoding::Events {
                    value_per_event: 1.0,
                }
            } else {
                EvalEncoding::Dense
            },
            exit: config.exit,
        };
        let batcher = Arc::new(DynamicBatcher::new(BatcherConfig {
            max_batch: config.max_batch,
            max_delay: Duration::from_micros(config.max_delay_us),
            capacity: config.queue_capacity,
        }));
        let workers = pool.workers();
        let dispatcher = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || dispatch_loop(&pool, &batcher, params)) // concurrency-allow: server lifecycle thread (accept-loop tier)
        };
        Ok(Arc::new(ServingUnit {
            model,
            batcher,
            dispatcher: Mutex::new(Some(dispatcher)), // concurrency-allow: join-handle holder, never contended
            workers,
            config,
        }))
    }

    /// Engine-pool workers behind this unit.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The serving parameters.
    #[must_use]
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Runs `images` through the batched serving path and returns one
    /// [`Prediction`] per image, in request order. Blocks until the batch
    /// window containing this request completes.
    ///
    /// # Errors
    ///
    /// [`PredictError::Overloaded`] under backpressure,
    /// [`PredictError::Internal`] when an engine fails.
    pub fn predict(&self, images: Vec<Tensor>) -> Result<Vec<Prediction>, PredictError> {
        let n = images.len() as u64;
        let (reply, rx) = mpsc::channel();
        let enqueued = Instant::now();
        self.batcher
            .submit(Pending {
                images,
                reply,
                enqueued,
            })
            .map_err(PredictError::Overloaded)?;
        let result = match rx.recv() {
            Ok(Ok(predictions)) => Ok(predictions),
            Ok(Err(msg)) => Err(PredictError::Internal(msg)),
            Err(_) => Err(PredictError::Internal(
                "serving unit shut down mid-request".to_string(),
            )),
        };
        if result.is_ok() {
            sia_telemetry::counter!("serve.requests", 1);
            sia_telemetry::counter!("serve.images", n);
            sia_telemetry::histogram!("serve.request_us", enqueued.elapsed().as_micros() as u64);
        } else {
            sia_telemetry::counter!("serve.errors", 1);
        }
        result
    }

    /// Drains the batcher and joins the dispatcher (idempotent).
    pub fn shutdown(&self) {
        self.batcher.close();
        if let Some(handle) = self
            .dispatcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for ServingUnit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: drains the batcher, coalesces request images into one
/// pool batch, splits pool results back per request. Exits when the
/// batcher closes.
fn dispatch_loop(pool: &EnginePool, batcher: &DynamicBatcher<Pending>, params: EvalBatch) {
    while let Some(mut batch) = batcher.next_batch() {
        for pending in &batch {
            sia_telemetry::histogram!(
                "serve.queue_wait_us",
                pending.enqueued.elapsed().as_micros() as u64
            );
        }
        let counts: Vec<usize> = batch.iter().map(|p| p.images.len()).collect();
        let images: Vec<Tensor> = batch.iter_mut().flat_map(|p| p.images.drain(..)).collect();
        match pool.submit(images, params) {
            Ok(results) => {
                let mut cursor = 0;
                for (pending, count) in batch.iter().zip(&counts) {
                    let predictions = results[cursor..cursor + count]
                        .iter()
                        .map(|(out, _us): &(SnnOutput, u64)| Prediction {
                            class: out.predicted(),
                            logits: out.logits().to_vec(),
                        })
                        .collect();
                    cursor += count;
                    let _ = pending.reply.send(Ok(predictions));
                }
            }
            Err(e) => {
                // the whole batch shared the failing submit; report to all
                for pending in &batch {
                    let _ = pending.reply.send(Err(e.to_string()));
                }
            }
        }
    }
}

/// The HTTP front end: a bound listener plus the hot-swappable serving
/// unit and the registry behind `/models`.
pub struct Server {
    registry: Arc<ModelRegistry>,
    serving: RwLock<Arc<ServingUnit>>,
    listener: TcpListener,
    port: u16,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds `host:port` (port 0 picks an ephemeral port) and starts the
    /// serving unit for `model`, which must already be in `registry`.
    ///
    /// # Errors
    ///
    /// Fails on bind errors or unit start failures.
    pub fn bind(
        host: &str,
        port: u16,
        registry: Arc<ModelRegistry>,
        model: Arc<LoadedModel>,
        config: ServeConfig,
    ) -> Result<Arc<Server>, String> {
        let listener =
            TcpListener::bind((host, port)).map_err(|e| format!("binding {host}:{port}: {e}"))?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        let unit = ServingUnit::start(model, config)?;
        Ok(Arc::new(Server {
            registry,
            serving: RwLock::new(unit), // concurrency-allow: reader-heavy hot-swap lock, no condvar protocol
            listener,
            port,
            shutdown: AtomicBool::new(false),
        }))
    }

    /// The bound port (useful with ephemeral binds).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The currently serving unit.
    #[must_use]
    pub fn serving(&self) -> Arc<ServingUnit> {
        Arc::clone(
            &self
                .serving
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Requests shutdown: the accept loop and every keep-alive connection
    /// exit within one idle-poll interval.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }

    /// Serves until [`Server::request_shutdown`] (or `POST /shutdown`),
    /// then drains: joins connection threads and the serving unit.
    ///
    /// # Errors
    ///
    /// Returns accept-loop failures other than shutdown.
    pub fn run(self: &Arc<Self>) -> Result<(), String> {
        let mut connections = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(format!("accept failed: {e}"));
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let server = Arc::clone(self);
            connections.push(std::thread::spawn(move || {
                // concurrency-allow: the accept loop's per-connection threads
                server.handle_connection(stream);
            }));
            // reap finished connection threads so the list stays bounded
            connections.retain(|c| !c.is_finished());
        }
        for c in connections {
            let _ = c.join();
        }
        self.serving().shutdown();
        Ok(())
    }

    /// One keep-alive connection: parse → route → respond, until close,
    /// error, or shutdown.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let mut reader = BufReader::new(stream);
        loop {
            match read_request(&mut reader) {
                Ok(ReadOutcome::Idle) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Ok(ReadOutcome::Closed) => return,
                Ok(ReadOutcome::Request(req)) => {
                    let (status, body) = self.route(&req);
                    let close = req.wants_close() || self.shutdown.load(Ordering::SeqCst);
                    if write_response(
                        reader.get_mut(),
                        status,
                        "application/json",
                        body.as_bytes(),
                        !close,
                    )
                    .is_err()
                        || close
                    {
                        return;
                    }
                }
                Err(e) => {
                    let _ = write_response(
                        reader.get_mut(),
                        400,
                        "application/json",
                        error_json(&format!("bad request: {e}")).as_bytes(),
                        false,
                    );
                    return;
                }
            }
        }
    }

    /// Routes one request to `(status, json_body)`.
    fn route(&self, req: &Request) -> (u16, String) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/predict") => self.handle_predict(&req.body),
            ("GET", "/healthz") => (200, self.healthz_json()),
            ("GET", "/metrics") => (200, metrics_json(&sia_telemetry::global_snapshot())),
            ("GET", "/models") => (200, self.models_json()),
            ("POST", "/models") => self.handle_swap(&req.body),
            ("POST", "/shutdown") => {
                self.request_shutdown();
                (200, "{\"status\":\"shutting-down\"}".to_string())
            }
            ("GET" | "POST", _) => (404, error_json(&format!("no route {}", req.path))),
            _ => (
                405,
                error_json(&format!("method {} not allowed", req.method)),
            ),
        }
    }

    fn handle_predict(&self, body: &[u8]) -> (u16, String) {
        let unit = self.serving();
        let dims = unit.model.network.input;
        let images = match parse_images(body, dims) {
            Ok(images) => images,
            Err(e) => return (400, error_json(&e)),
        };
        match unit.predict(images) {
            Ok(predictions) => (200, predictions_json(&predictions)),
            Err(PredictError::Overloaded(o)) => (
                503,
                format!(
                    "{{\"error\":\"overloaded\",\"queue_capacity\":{}}}",
                    o.capacity
                ),
            ),
            Err(PredictError::Internal(msg)) => (500, error_json(&msg)),
        }
    }

    fn handle_swap(&self, body: &[u8]) -> (u16, String) {
        let parsed = match std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(json::parse)
        {
            Ok(v) => v,
            Err(e) => return (400, error_json(&format!("bad /models body: {e}"))),
        };
        let Some(path) = parsed.get("path").and_then(Json::as_str) else {
            return (400, error_json("expected {\"path\": \"model.sia\"}"));
        };
        // load refuses images that fail static verification, so a broken
        // model can never displace the serving unit
        let model = match self.registry.load(path) {
            Ok(model) => model,
            Err(e) => return (400, error_json(&e)),
        };
        let config = self.serving().config();
        let unit = match ServingUnit::start(Arc::clone(&model), config) {
            Ok(unit) => unit,
            Err(e) => return (400, error_json(&e)),
        };
        if let Err(e) = self.registry.set_serving(model.hash) {
            return (400, error_json(&e));
        }
        let old = {
            let mut serving = self
                .serving
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::replace(&mut *serving, unit)
        };
        // drain the displaced unit after the swap so in-flight requests
        // on it still complete
        old.shutdown();
        sia_telemetry::counter!("serve.models.swapped", 1);
        (
            200,
            format!(
                "{{\"status\":\"swapped\",\"model\":\"{}\"}}",
                model.hash_hex()
            ),
        )
    }

    fn healthz_json(&self) -> String {
        let unit = self.serving();
        let model = &unit.model;
        let (c, h, w) = model.network.input;
        let cfg = unit.config();
        let mut out = String::from("{\"status\":\"ok\",\"model\":");
        json::write_escaped(&mut out, &model.hash_hex());
        out.push_str(",\"source\":");
        json::write_escaped(&mut out, &model.source);
        out.push_str(",\"backend\":");
        json::write_escaped(&mut out, cfg.backend.as_str());
        out.push_str(",\"exit_policy\":");
        json::write_escaped(&mut out, cfg.exit.kind());
        if let Some(threshold) = cfg.exit.threshold() {
            out.push_str(",\"exit_threshold\":");
            json::write_f64(&mut out, f64::from(threshold));
        }
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"timesteps\":{},\"burn_in\":{},\"input\":[{c},{h},{w}],\
                 \"events\":{},\"classes\":{},\"workers\":{},\"max_batch\":{},\
                 \"max_delay_us\":{},\"queue_capacity\":{}}}",
                cfg.timesteps,
                cfg.burn_in,
                model.event_input,
                model.network.num_classes,
                unit.workers(),
                cfg.max_batch,
                cfg.max_delay_us,
                cfg.queue_capacity
            ),
        );
        out
    }

    fn models_json(&self) -> String {
        let serving_hash = self.serving().model.hash;
        let mut out = String::from("{\"serving\":");
        json::write_escaped(&mut out, &format!("{serving_hash:016x}"));
        out.push_str(",\"models\":[");
        for (i, model) in self.registry.list().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (c, h, w) = model.network.input;
            out.push_str("{\"hash\":");
            json::write_escaped(&mut out, &model.hash_hex());
            out.push_str(",\"source\":");
            json::write_escaped(&mut out, &model.source);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"input\":[{c},{h},{w}],\"events\":{},\"serving\":{}}}",
                    model.event_input,
                    model.hash == serving_hash
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Parses a `/predict` body — `{"images": [[…], …]}` or `{"image": […]}` —
/// into `C×H×W` tensors.
///
/// # Errors
///
/// Rejects malformed JSON, missing keys, and images whose length is not
/// `C·H·W`.
pub fn parse_images(body: &[u8], dims: (usize, usize, usize)) -> Result<Vec<Tensor>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let parsed = json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let arrays: Vec<&Json> = if let Some(Json::Arr(images)) = parsed.get("images") {
        images.iter().collect()
    } else if let Some(image) = parsed.get("image") {
        vec![image]
    } else {
        return Err("expected {\"images\": [[…]]} or {\"image\": […]}".to_string());
    };
    if arrays.is_empty() {
        return Err("empty image list".to_string());
    }
    let (c, h, w) = dims;
    let expected = c * h * w;
    let mut out = Vec::with_capacity(arrays.len());
    for (i, image) in arrays.iter().enumerate() {
        let Json::Arr(values) = image else {
            return Err(format!("image {i} is not an array"));
        };
        if values.len() != expected {
            return Err(format!(
                "image {i} has {} values, model expects {expected} ({c}x{h}x{w})",
                values.len()
            ));
        }
        let mut data = Vec::with_capacity(expected);
        for (j, v) in values.iter().enumerate() {
            let Some(x) = v.as_f64() else {
                return Err(format!("image {i} value {j} is not a number"));
            };
            // A finite f64 beyond f32's range casts to ±inf: reject it
            // rather than run the datapath on a value no check covered.
            let x32 = x as f32;
            if !x32.is_finite() {
                return Err(format!("image {i} value {j} ({x:e}) is not a finite f32"));
            }
            data.push(x32);
        }
        out.push(Tensor::from_vec(vec![c, h, w], data));
    }
    Ok(out)
}

/// Renders predictions as the `/predict` response body. Logits are f32
/// written via the shortest-round-trip f64 form, so a client parsing them
/// back to f32 recovers the exact bits.
#[must_use]
pub fn predictions_json(predictions: &[Prediction]) -> String {
    let mut out = String::from("{\"predictions\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", p.class));
    }
    out.push_str("],\"logits\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &l) in p.logits.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, f64::from(l));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Renders tensors as a `/predict` request body — the client half used by
/// `sia bench serve` and the determinism tests. Values round-trip
/// bit-exactly through [`parse_images`] (same shortest-round-trip f64
/// form as [`predictions_json`]).
#[must_use]
pub fn images_json(images: &[Tensor]) -> String {
    let mut out = String::from("{\"images\":[");
    for (i, image) in images.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in image.data().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, f64::from(v));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parses a `/predict` response body back into [`Prediction`]s — the
/// client half used by `sia bench serve` and the determinism tests.
///
/// # Errors
///
/// Rejects malformed bodies.
pub fn parse_predictions(body: &[u8]) -> Result<Vec<Prediction>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let parsed = json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let Some(Json::Arr(classes)) = parsed.get("predictions") else {
        return Err("missing predictions array".to_string());
    };
    let Some(Json::Arr(logit_rows)) = parsed.get("logits") else {
        return Err("missing logits array".to_string());
    };
    if classes.len() != logit_rows.len() {
        return Err("predictions/logits length mismatch".to_string());
    }
    classes
        .iter()
        .zip(logit_rows)
        .enumerate()
        .map(|(i, (class, row))| {
            let class = class
                .as_u64()
                .ok_or_else(|| format!("prediction {i} is not a number"))?
                as usize;
            let Json::Arr(values) = row else {
                return Err(format!("logits {i} is not an array"));
            };
            let logits = values
                .iter()
                .map(|v| v.as_f64().map(|x| x as f32))
                .collect::<Option<Vec<f32>>>()
                .ok_or_else(|| format!("logits {i} holds a non-number"))?;
            Ok(Prediction { class, logits })
        })
        .collect()
}

/// Renders a telemetry snapshot as the `/metrics` body.
#[must_use]
pub fn metrics_json(snapshot: &sia_telemetry::Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(":{value}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        out.push(':');
        json::write_f64(&mut out, *value);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(":{{\"count\":{},\"mean\":", h.count),
        );
        json::write_f64(&mut out, h.mean());
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.min,
                h.max,
                h.p50(),
                h.p95(),
                h.p99()
            ),
        );
    }
    out.push_str("}}");
    out
}

fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":");
    json::write_escaped(&mut out, msg);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_round_trip_bit_exactly() {
        let predictions = vec![
            Prediction {
                class: 3,
                logits: vec![0.1_f32, -2.5, 1.0e-7, f32::MIN_POSITIVE, 1234.5678],
            },
            Prediction {
                class: 0,
                logits: vec![0.0, -0.0, 7.25],
            },
        ];
        let body = predictions_json(&predictions);
        let back = parse_predictions(body.as_bytes()).unwrap();
        assert_eq!(back.len(), predictions.len());
        for (a, b) in predictions.iter().zip(&back) {
            assert_eq!(a.class, b.class);
            // bit-for-bit, not approximate: the shortest-round-trip f64
            // form must reproduce the exact f32
            let a_bits: Vec<u32> = a.logits.iter().map(|l| l.to_bits()).collect();
            let b_bits: Vec<u32> = b.logits.iter().map(|l| l.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn images_round_trip_bit_exactly() {
        let dims = (1, 1, 3);
        let images = vec![
            Tensor::from_vec(vec![1, 1, 3], vec![0.1_f32, -2.5, f32::MIN_POSITIVE]),
            Tensor::from_vec(vec![1, 1, 3], vec![0.0, -0.0, 1234.5678]),
        ];
        let body = images_json(&images);
        let back = parse_images(body.as_bytes(), dims).unwrap();
        assert_eq!(back.len(), images.len());
        for (a, b) in images.iter().zip(&back) {
            let a_bits: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn parse_images_validates_shape() {
        let dims = (1, 2, 2);
        let images = parse_images(b"{\"images\":[[1,2,3,4],[5,6,7,8]]}", dims).unwrap();
        assert_eq!(images.len(), 2);
        assert_eq!(images[0].data(), &[1.0, 2.0, 3.0, 4.0]);
        let single = parse_images(b"{\"image\":[1,2,3,4]}", dims).unwrap();
        assert_eq!(single.len(), 1);
        assert!(parse_images(b"{\"images\":[[1,2,3]]}", dims).is_err());
        assert!(parse_images(b"{\"images\":[]}", dims).is_err());
        assert!(parse_images(b"{}", dims).is_err());
        assert!(parse_images(b"not json", dims).is_err());
    }

    #[test]
    fn parse_images_rejects_values_beyond_f32() {
        let dims = (1, 2, 2);
        let err = parse_images(b"{\"image\":[1e300,0,0,0]}", dims).unwrap_err();
        assert!(err.contains("image 0 value 0"), "{err}");
        let err = parse_images(b"{\"images\":[[0,0,0,0],[0,0,-1e39,0]]}", dims).unwrap_err();
        assert!(err.contains("image 1 value 2"), "{err}");
        // the largest finite f32 is still accepted
        assert!(parse_images(b"{\"image\":[3.4028235e38,0,0,0]}", dims).is_ok());
    }

    #[test]
    fn metrics_json_is_parseable_and_complete() {
        sia_telemetry::counter!("serve.test.counter", 2);
        sia_telemetry::histogram!("serve.test.hist", 100);
        sia_telemetry::histogram!("serve.test.hist", 200);
        let body = metrics_json(&sia_telemetry::global_snapshot());
        let parsed = json::parse(&body).unwrap();
        // structural keys always present, even on an empty snapshot
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
        assert!(parsed.get("histograms").is_some());
        if let Some(h) = parsed
            .get("histograms")
            .and_then(|h| h.get("serve.test.hist"))
        {
            assert!(h.get("count").and_then(Json::as_u64).unwrap() >= 2);
            assert!(h.get("p50").is_some() && h.get("p95").is_some() && h.get("p99").is_some());
        }
    }
}
