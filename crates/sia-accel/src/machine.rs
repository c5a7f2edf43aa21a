//! The top-level SIA machine: executes a compiled [`Program`] layer by
//! layer (the sequential flow of Fig. 5), producing **bit-exact** spike
//! trains against `sia-snn`'s integer runner together with the cycle
//! accounting behind Tables I, II and IV.
//!
//! The machine is a backend of the shared [`sia_snn::Engine`] layer: the
//! timestep × layer traversal, input encoding, validation and spike
//! statistics all live in [`sia_snn::drive`], so agreement with the
//! functional runners is structural — the machine adds only the hardware
//! arithmetic (PE-array passes, ping-pong membrane memory, the
//! controller's MMIO protocol) and the cycle/traffic accounting. The
//! PE-array psums themselves come from the shared INT8 kernels (see
//! [`crate::spiking_core`]), so even that part of the agreement is
//! structural.

use crate::compiler::Program;
use crate::config::SiaConfig;
use crate::controller::Controller;
use crate::memory::PingPongMembranes;
use crate::report::{CycleReport, LayerCycles};
use crate::spiking_core::run_layer_pass;
use sia_fixed::sat::add16;
use sia_snn::encode::EventStream;
use sia_snn::neuron::step_int;
use sia_snn::scratch::scratch_resize;
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{
    conv_psums_dense_into, conv_psums_int_plane, drive, drive_policy, ConvScratch, DriveScratch,
    Engine, EngineInput, ExitPolicy, SnnConv, SnnItem, SnnNetwork, SnnOutput, SpikeStats,
};
use sia_telemetry::Value;
use sia_tensor::Tensor;

/// Result of one machine inference.
#[derive(Clone, Debug)]
pub struct MachineRun {
    /// PS-side readout after every timestep (same convention as
    /// [`sia_snn::SnnOutput`]).
    pub logits_per_t: Vec<Vec<f32>>,
    /// Spike statistics, structured identically to the functional runner's.
    pub stats: SpikeStats,
    /// Cycle/traffic accounting.
    pub report: CycleReport,
}

impl From<(SnnOutput, CycleReport)> for MachineRun {
    fn from((out, report): (SnnOutput, CycleReport)) -> Self {
        MachineRun {
            logits_per_t: out.logits_per_t,
            stats: out.stats,
            report,
        }
    }
}

impl MachineRun {
    /// Predicted class at the final timestep.
    ///
    /// # Panics
    ///
    /// Panics on a zero-timestep run.
    #[must_use]
    pub fn predicted(&self) -> usize {
        let logits = self.logits_per_t.last().expect("zero-timestep run");
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best
    }
}

/// The accelerator executor.
#[derive(Debug)]
pub struct SiaMachine {
    program: Program,
    config: SiaConfig,
    controller: Controller,
    // per-run state, reset by `begin_run`
    report: CycleReport,
    /// One accounting row per program item, filled by `begin_item` at the
    /// run's first chunk and drained by `end_item` after the traversal —
    /// layers stay live across timestep chunks.
    active: Vec<Option<LayerCycles>>,
    /// Ping-pong membrane banks per program item (`None` for items without
    /// membranes), resident across runs: `begin_item` re-precharges them,
    /// and they carry state from chunk to chunk within a run.
    banks: Vec<Option<PingPongMembranes>>,
    /// Flat per-timestep psum currents awaiting the closing `BlockAdd`
    /// (`run_timesteps` frames of `pending_len` each).
    pending: Vec<i16>,
    pending_len: usize,
    /// Dense first-layer currents, constant across timesteps.
    input_currents: Vec<i16>,
    head_acc: Vec<i64>,
    run_timesteps: usize,
    // reusable scratch, retained across runs (zero-allocation hot loop)
    conv: ConvScratch,
    residual: Vec<i16>,
    arenas: DriveScratch,
    /// PE kernel-row segments `(processed, skipped)` since the last
    /// `stage_taps` — psum-stage segments are reported by the closing
    /// `BlockAdd`, matching the functional runners' tap attribution.
    seg_taps: (u64, u64),
}

impl SiaMachine {
    /// Builds a machine for a compiled program.
    #[must_use]
    pub fn new(program: Program, config: SiaConfig) -> Self {
        // One self-describing configuration event per machine so a metrics
        // JSONL file carries everything `sia report` needs to derive the
        // roofline (PE-array peak + Fig. 5 memory/AXI budget).
        sia_telemetry::emit(
            "accel.config",
            &[
                ("pe_rows", Value::from(config.pe_rows)),
                ("pe_cols", Value::from(config.pe_cols)),
                ("clock_hz", Value::from(config.clock_hz)),
                ("taps_per_cycle", Value::from(config.taps_per_cycle)),
                ("ops_per_pe_cycle", Value::from(config.ops_per_pe_cycle)),
                (
                    "dma_bytes_per_cycle",
                    Value::from(config.dma_bytes_per_cycle),
                ),
                (
                    "mmio_cycles_per_word",
                    Value::from(config.mmio_cycles_per_word),
                ),
                ("weight_mem_bytes", Value::from(config.weight_mem_bytes)),
                ("membrane_mem_bytes", Value::from(config.membrane_mem_bytes)),
                ("output_mem_bytes", Value::from(config.output_mem_bytes)),
                ("residual_mem_bytes", Value::from(config.residual_mem_bytes)),
                ("spike_in_mem_bytes", Value::from(config.spike_in_mem_bytes)),
                (
                    "layer_overhead_cycles",
                    Value::from(config.layer_overhead_cycles),
                ),
            ],
        );
        let items = program.network.items.len();
        SiaMachine {
            program,
            config,
            controller: Controller::new(),
            report: CycleReport::default(),
            active: Vec::new(),
            banks: vec![None; items],
            pending: Vec::new(),
            pending_len: 0,
            input_currents: Vec::new(),
            head_acc: Vec::new(),
            run_timesteps: 0,
            conv: ConvScratch::new(),
            residual: Vec::new(),
            arenas: DriveScratch::default(),
            seg_taps: (0, 0),
        }
    }

    /// Layer passes started since construction (controller status).
    #[must_use]
    pub fn layers_started(&self) -> u64 {
        self.controller.layers_started
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs a `timesteps`-step inference on one `C×H×W` image.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or the network does not start with an
    /// input conv.
    #[must_use]
    pub fn run(&mut self, image: &Tensor, timesteps: usize) -> MachineRun {
        self.run_with(image, timesteps, 0)
    }

    /// [`SiaMachine::run`] with readout burn-in (see
    /// [`sia_snn::IntRunner::run_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_with(&mut self, image: &Tensor, timesteps: usize, burn_in: usize) -> MachineRun {
        drive(self, EngineInput::Image(image), timesteps, burn_in).into()
    }

    /// Runs on a DVS-style event stream (paper §IV: event-driven data
    /// transferred directly to the SIA; the first layer executes on the PE
    /// array like any other spiking convolution).
    ///
    /// # Panics
    ///
    /// Panics if the network was converted for dense input, the stream is
    /// shorter than `timesteps`, or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_events(
        &mut self,
        events: &EventStream,
        timesteps: usize,
        burn_in: usize,
    ) -> MachineRun {
        drive(self, EngineInput::Events(events), timesteps, burn_in).into()
    }

    /// [`SiaMachine::run_with`] under a confidence-gated exit policy (see
    /// [`sia_snn::drive_policy`]): exited images cost proportionally fewer
    /// modelled cycles, so the report prices the *real* hardware saving.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_policy(
        &mut self,
        image: &Tensor,
        timesteps: usize,
        burn_in: usize,
        policy: ExitPolicy,
    ) -> MachineRun {
        drive_policy(self, EngineInput::Image(image), timesteps, burn_in, policy).into()
    }
}

/// Where a PL conv timestep delivers its result: spikes into a packed
/// plane through the layer's membrane banks (spiking stage) or batch-normed
/// currents into a pending-psum frame (psum stage).
enum PlOut<'a> {
    Spikes(&'a mut SpikePlane, &'a mut PingPongMembranes),
    Currents(&'a mut [i16]),
}

/// The machine state one PL conv timestep works with: configuration, the
/// controller, the layer's accounting row, and the shared kernel scratch
/// (bundled so the pass sequence stays a free function without an
/// unwieldy parameter list).
struct PlConvCtx<'a> {
    cfg: &'a SiaConfig,
    controller: &'a mut Controller,
    cycles: &'a mut LayerCycles,
    conv: &'a mut ConvScratch,
    taps: &'a mut (u64, u64),
}

/// One PE-array pass sequence for one timestep of PL conv layer `idx`: the
/// array's psums and segment counts are computed once for all output
/// channels, then the PS programs the register file per kernel group, the
/// controller validates and starts the pass, and aggregation spikes (or
/// exports currents for a psum stage) the group's slice. Works entirely on
/// the bit-packed input plane and retained scratch — the warm timestep loop
/// allocates nothing.
fn pl_conv_timestep(
    idx: usize,
    c: &SnnConv,
    ctx: &mut PlConvCtx<'_>,
    plane: &SpikePlane,
    timesteps: usize,
    mut out: PlOut<'_>,
) {
    let (oh, ow) = c.geom.out_hw();
    let per_ch = oh * ow;
    let cfg = ctx.cfg;
    let cycles = &mut *ctx.cycles;
    let pass = run_layer_pass(c, plane, cfg, ctx.conv, idx * 2);
    if let PlOut::Spikes(o, _) = &mut out {
        o.reset(c.geom.out_channels, oh, ow);
    }
    // §III-B: output channels are processed in kernel groups of at most
    // `pe_count`
    for start in (0..c.geom.out_channels).step_by(cfg.pe_count()) {
        let size = (c.geom.out_channels - start).min(cfg.pe_count());
        // §III-C: the PS programs the register file and starts the pass; the
        // controller validates the image before the cores run. A compiled
        // program can never produce a bad image.
        ctx.controller
            .program_layer(&c.geom, c.theta, c.mode, timesteps, start, size);
        ctx.controller
            .start(cfg.pe_count())
            .expect("compiled programs produce valid register images");
        let (psums, stats) = pass.group(start, size);
        ctx.controller.finish(); // per-pass done interrupt
        cycles.compute_cycles += stats.cycles + cfg.aggregation_pipeline_depth;
        cycles.active_pe_cycles += stats.active_pe_cycles;
        cycles.ops += stats.active_pe_cycles * cfg.ops_per_pe_cycle;
        // what a dense schedule would have cost: every segment, processed
        // or skipped, at the full group width
        cycles.nominal_ops += (stats.processed_segments + stats.skipped_segments)
            * size as u64
            * cfg.ops_per_pe_cycle;
        ctx.taps.0 += stats.processed_segments;
        ctx.taps.1 += stats.skipped_segments;
        sia_telemetry::counter!("accel.pe.active_cycles", stats.active_pe_cycles);
        sia_telemetry::counter!("accel.pe.segments_processed", stats.processed_segments);
        sia_telemetry::counter!("accel.pe.segments_skipped", stats.skipped_segments);
        let base = start * per_ch;
        match &mut out {
            PlOut::Spikes(o, mem) => {
                // aggregation tile (BN + IF/LIF), overlapped with the
                // spiking core except the pipeline fill counted above
                for (j, &p) in psums.iter().enumerate() {
                    let ch = start + j / per_ch;
                    let mut u = mem.read(base + j);
                    if step_int(&mut u, add16(c.g[ch].mul_int(p), c.h[ch]), c.theta, c.mode) {
                        o.set_linear(base + j);
                        cycles.spikes += 1;
                    }
                    mem.write(base + j, u);
                }
            }
            PlOut::Currents(o) => {
                for (j, &p) in psums.iter().enumerate() {
                    let ch = start + j / per_ch;
                    o[base + j] = add16(c.g[ch].mul_int(p), c.h[ch]);
                }
            }
        }
    }
    if let PlOut::Spikes(_, mem) = out {
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
    }
}

impl Engine for SiaMachine {
    type Extra = CycleReport;

    fn network(&self) -> &SnnNetwork {
        &self.program.network
    }

    fn span_name(&self) -> &'static str {
        "accel.run"
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.arenas)
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.arenas = scratch;
    }

    fn begin_run(&mut self, timesteps: usize) {
        self.report = CycleReport::for_config(&self.config);
        self.active.clear();
        self.active
            .resize_with(self.program.network.items.len(), || None);
        self.pending.clear();
        self.pending_len = 0;
        self.input_currents.clear();
        self.head_acc.clear();
        self.run_timesteps = timesteps;
        self.seg_taps = (0, 0);
    }

    fn begin_item(&mut self, idx: usize, _timesteps: usize) {
        let lp = &self.program.layers[idx];
        let cfg = &self.config;
        let mut cycles = LayerCycles {
            name: lp.name.clone(),
            transfer_cycles: lp.traffic.cycles(cfg),
            overlapped: lp.on_pl,
            ..LayerCycles::default()
        };
        // (pre-charge value, neurons) of the item's membrane banks
        let membranes = match &self.program.network.items[idx] {
            SnnItem::InputConv(c) => {
                // dense frame conversion runs on the PS once per image
                cycles.compute_cycles += (c.geom.macs() as f64 * cfg.ps_cycles_per_mac) as u64;
                cycles.overhead_cycles = cfg.layer_overhead_cycles;
                Some((c.theta / 2, c.out_neurons()))
            }
            SnnItem::Conv(c) => {
                cycles.overhead_cycles = cfg.layer_overhead_cycles;
                Some((c.theta / 2, c.out_neurons()))
            }
            SnnItem::ConvPsum(_) => {
                cycles.overhead_cycles = cfg.layer_overhead_cycles;
                None // psum stage: currents bypass the membrane banks
            }
            SnnItem::BlockAdd(a) => {
                cycles.overhead_cycles = cfg.layer_overhead_cycles;
                Some((a.theta / 2, a.neurons()))
            }
            SnnItem::MaxPoolOr { channels, h, w } => {
                // one OR gate per output per timestep, fully parallel in
                // the PL: a handful of cycles, dominated by streaming
                cycles.compute_cycles += (channels * h * w / 4) as u64 / 16;
                None
            }
            SnnItem::Head(l) => {
                cycles.overhead_cycles = cfg.layer_overhead_cycles;
                cycles.overlapped = false; // driver-paced
                                           // per-timestep PS compute is priced in `end_item`, once the
                                           // executed timestep count (early exit!) is known
                scratch_resize(&mut self.head_acc, l.out, 0);
                None
            }
            SnnItem::BlockStart => None,
        };
        if let Some((u0, neurons)) = membranes {
            self.banks[idx]
                .get_or_insert_with(|| {
                    PingPongMembranes::new(cfg.membrane_mem_bytes.max(neurons * 4))
                })
                .precharge(u0, neurons);
        }
        self.active[idx] = Some(cycles);
    }

    fn end_item(&mut self, idx: usize, executed: usize) {
        let lp = &self.program.layers[idx];
        let mut cycles = self.active[idx].take().expect("begin_item ran");
        if let SnnItem::Head(l) = &self.program.network.items[idx] {
            // one INT8 GEMV over the spike accumulators per executed
            // timestep — an early exit skips the remaining readouts
            cycles.compute_cycles += ((l.out * l.channels * l.in_h * l.in_w) as f64
                * self.config.ps_cycles_per_mac
                * executed as f64) as u64;
        }
        // spiking-unit count of the stage, for spike-density attribution
        let neurons = match &self.program.network.items[idx] {
            SnnItem::InputConv(c) | SnnItem::Conv(c) | SnnItem::ConvPsum(c) => c.out_neurons(),
            SnnItem::BlockAdd(a) => a.neurons(),
            SnnItem::MaxPoolOr { channels, h, w } => channels * h * w / 4,
            SnnItem::Head(l) => l.out,
            SnnItem::BlockStart => 0,
        };
        // live counters, reconciled against the CycleReport totals by the
        // telemetry integration tests
        sia_telemetry::counter!("accel.layers", 1);
        sia_telemetry::counter!("accel.compute_cycles", cycles.compute_cycles);
        sia_telemetry::counter!("accel.transfer_cycles", cycles.transfer_cycles);
        sia_telemetry::counter!("accel.total_cycles", cycles.total_cycles());
        sia_telemetry::counter!("accel.spikes", cycles.spikes);
        sia_telemetry::counter!("accel.ops", cycles.ops);
        sia_telemetry::counter!("accel.nominal_ops", cycles.nominal_ops);
        sia_telemetry::counter!("accel.axi.stream_bytes", lp.traffic.stream_bytes() as u64);
        sia_telemetry::counter!(
            "accel.axi.mmio_words",
            (lp.traffic.config_words + lp.traffic.mmio_data_words) as u64
        );
        sia_telemetry::emit(
            "accel.layer",
            &[
                ("name", Value::from(cycles.name.as_str())),
                ("compute_cycles", Value::from(cycles.compute_cycles)),
                ("transfer_cycles", Value::from(cycles.transfer_cycles)),
                ("overhead_cycles", Value::from(cycles.overhead_cycles)),
                ("total_cycles", Value::from(cycles.total_cycles())),
                ("overlapped", Value::from(cycles.overlapped)),
                ("spikes", Value::from(cycles.spikes)),
                ("ops", Value::from(cycles.ops)),
                ("nominal_ops", Value::from(cycles.nominal_ops)),
                ("active_pe_cycles", Value::from(cycles.active_pe_cycles)),
                ("neurons", Value::from(neurons)),
                ("timesteps", Value::from(executed)),
                ("stream_bytes", Value::from(lp.traffic.stream_bytes())),
                (
                    "mmio_words",
                    Value::from(lp.traffic.config_words + lp.traffic.mmio_data_words),
                ),
            ],
        );
        self.report.layers.push(cycles);
    }

    fn step_input_conv(&mut self, idx: usize, codes: &[i8], t: usize, out: &mut SpikePlane) {
        if t == 0 {
            let SnnItem::InputConv(c) = &self.program.network.items[idx] else {
                unreachable!("step_input_conv on a non-input item")
            };
            let psums = conv_psums_dense_into(c, codes, &mut self.conv);
            let per_ch = psums.len() / c.geom.out_channels;
            scratch_resize(&mut self.input_currents, psums.len(), 0);
            for (i, &p) in psums.iter().enumerate() {
                self.input_currents[i] = add16(c.g[i / per_ch].mul_int_wide(p), c.h[i / per_ch]);
            }
        }
        let SiaMachine {
            program,
            active,
            banks,
            input_currents,
            ..
        } = self;
        let SnnItem::InputConv(c) = &program.network.items[idx] else {
            unreachable!("step_input_conv on a non-input item")
        };
        let cycles = active[idx].as_mut().expect("begin_item ran");
        let mem = banks[idx].as_mut().expect("input conv has membranes");
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        for (i, &cur) in input_currents.iter().enumerate() {
            let mut u = mem.read(i);
            if step_int(&mut u, cur, c.theta, c.mode) {
                out.set_linear(i);
                cycles.spikes += 1;
            }
            mem.write(i, u);
        }
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
        cycles.compute_cycles += input_currents.len() as u64;
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        let SiaMachine {
            program,
            config,
            controller,
            active,
            banks,
            run_timesteps,
            conv,
            seg_taps,
            ..
        } = self;
        let SnnItem::Conv(c) = &program.network.items[idx] else {
            unreachable!("step_conv on a non-conv item")
        };
        let mut ctx = PlConvCtx {
            cfg: config,
            controller,
            cycles: active[idx].as_mut().expect("begin_item ran"),
            conv,
            taps: seg_taps,
        };
        let mem = banks[idx].as_mut().expect("spiking conv has membranes");
        pl_conv_timestep(
            idx,
            c,
            &mut ctx,
            spikes,
            *run_timesteps,
            PlOut::Spikes(out, mem),
        );
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let SiaMachine {
            program,
            config,
            controller,
            active,
            pending,
            pending_len,
            run_timesteps,
            conv,
            seg_taps,
            ..
        } = self;
        let SnnItem::ConvPsum(c) = &program.network.items[idx] else {
            unreachable!("step_conv_psum on a non-psum item")
        };
        // Differently-sized psum stages share this buffer; under the
        // chunked driver each stage revisits it every chunk (not only at
        // t == 0), so re-shape whenever the frame geometry changes.
        let needed = *run_timesteps * c.out_neurons();
        if c.out_neurons() != *pending_len || pending.len() != needed {
            *pending_len = c.out_neurons();
            scratch_resize(pending, needed, 0);
        }
        let frame = &mut pending[t * *pending_len..(t + 1) * *pending_len];
        let mut ctx = PlConvCtx {
            cfg: config,
            controller,
            cycles: active[idx].as_mut().expect("begin_item ran"),
            conv,
            taps: seg_taps,
        };
        pl_conv_timestep(
            idx,
            c,
            &mut ctx,
            spikes,
            *run_timesteps,
            PlOut::Currents(frame),
        );
    }

    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let SiaMachine {
            program,
            config,
            active,
            banks,
            pending,
            pending_len,
            conv,
            residual,
            ..
        } = self;
        let SnnItem::BlockAdd(a) = &program.network.items[idx] else {
            unreachable!("step_block_add on a non-add item")
        };
        let n = a.neurons();
        // PS-side residual currents (§IV), saturating accumulation with the
        // pending psum frame of this timestep
        scratch_resize(residual, n, 0);
        match &a.down {
            Some(d) => {
                let psums = conv_psums_int_plane(d, skip, conv, idx * 2 + 1);
                assert_eq!(
                    *pending_len,
                    psums.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    pending_len,
                    psums.len()
                );
                let per_ch = psums.len() / d.geom.out_channels;
                let pend = &pending[t * *pending_len..(t + 1) * *pending_len];
                for (i, (r, &p)) in residual.iter_mut().zip(psums).enumerate() {
                    let skip_cur = add16(d.g[i / per_ch].mul_int(p), d.h[i / per_ch]);
                    *r = add16(pend[i], skip_cur);
                }
            }
            None => {
                assert_eq!(
                    *pending_len,
                    skip.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    pending_len,
                    skip.len()
                );
                let pend = &pending[t * *pending_len..(t + 1) * *pending_len];
                for (i, (r, &p)) in residual.iter_mut().zip(pend).enumerate() {
                    let skip_cur = if skip.bit_linear(i) { a.skip_add } else { 0 };
                    *r = add16(p, skip_cur);
                }
            }
        }
        let cycles = active[idx].as_mut().expect("begin_item ran");
        let mem = banks[idx].as_mut().expect("block add has membranes");
        out.reset(a.channels, a.h, a.w);
        // aggregation tile over the accumulated currents (identity BN:
        // G = 1.0, H = 0 passes every current through unchanged)
        for (i, &total) in residual.iter().enumerate() {
            let mut u = mem.read(i);
            if step_int(&mut u, total, a.theta, a.mode) {
                out.set_linear(i);
                cycles.spikes += 1;
            }
            mem.write(i, u);
        }
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
        cycles.compute_cycles += config.aggregation_pipeline_depth + n as u64;
        if let Some(d) = &a.down {
            cycles.compute_cycles += (d.geom.macs() as f64 * config.ps_cycles_per_mac) as u64;
        }
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let SnnItem::Head(l) = &self.program.network.items[idx] else {
            unreachable!("head_accumulate on a non-head item")
        };
        let per_ch = l.in_h * l.in_w;
        for (o, acc) in self.head_acc.iter_mut().enumerate() {
            let mut a = 0i64;
            spikes.for_each_set_linear(|i| {
                a += i64::from(l.weights[o * l.channels + i / per_ch]);
            });
            *acc += a;
        }
    }

    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]) {
        let SnnItem::Head(l) = &self.program.network.items[idx] else {
            unreachable!("head_readout on a non-head item")
        };
        for ((o, &a), &b) in out.iter_mut().zip(&self.head_acc).zip(&l.bias) {
            *o = a as f32 * l.q.scale() / t_eff as f32 + b;
        }
    }

    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        // PE kernel-row segments plus the PS-side (down/input) conv taps —
        // the machine's event-driven accounting in the same two buckets as
        // the functional runners
        let (cp, cs) = self.conv.take_taps();
        let (sp, ss) = std::mem::take(&mut self.seg_taps);
        Some((cp + sp, cs + ss))
    }

    fn finish_run(&mut self) -> CycleReport {
        std::mem::take(&mut self.report)
    }
}

/// [`sia_snn::EngineFactory`] building one [`SiaMachine`] per pool worker
/// from a compiled program — the accelerator backend of the persistent
/// engine pool. Each worker's machine keeps its scratch arenas resident
/// across every batch the pool serves.
#[derive(Clone, Debug)]
pub struct SiaEngineFactory {
    program: Program,
    config: SiaConfig,
}

impl SiaEngineFactory {
    /// Creates a factory over a compiled program and its configuration.
    #[must_use]
    pub fn new(program: Program, config: SiaConfig) -> Self {
        SiaEngineFactory { program, config }
    }
}

impl sia_snn::EngineFactory for SiaEngineFactory {
    type Engine<'a> = SiaMachine;

    fn build(&self) -> SiaMachine {
        SiaMachine::new(self.program.clone(), self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_for;
    use sia_nn::{ActSpec, BnSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions, IntRunner};
    use sia_tensor::Conv2dGeom;

    /// A small but structurally complete network: input conv, residual
    /// block with downsample, OR-pool, head.
    fn full_spec() -> NetworkSpec {
        let g1 = Conv2dGeom {
            in_channels: 3,
            out_channels: 4,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let g2 = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let g3 = Conv2dGeom {
            in_channels: 8,
            out_channels: 8,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let gd = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 1,
            stride: 2,
            padding: 0,
        };
        let bn = |ch: usize| BnSpec {
            gamma: vec![1.0; ch],
            beta: vec![0.05; ch],
            mean: vec![0.1; ch],
            var: vec![1.0; ch],
            eps: 1e-5,
        };
        let w = |n: usize, seed: usize| {
            Tensor::from_vec(
                vec![n],
                (0..n)
                    .map(|i| (((i * 31 + seed * 7) % 17) as f32 - 8.0) * 0.05)
                    .collect(),
            )
        };
        NetworkSpec {
            name: "full".into(),
            input: (3, 8, 8),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom: g1,
                    weights: w(4 * 3 * 9, 1).reshape(vec![4, 3, 3, 3]),
                    bn: Some(bn(4)),
                    act: Some(ActSpec {
                        levels: 8,
                        step: 0.7,
                    }),
                }),
                SpecItem::BlockStart,
                SpecItem::Conv(ConvSpec {
                    geom: g2,
                    weights: w(8 * 4 * 9, 2).reshape(vec![8, 4, 3, 3]),
                    bn: Some(bn(8)),
                    act: Some(ActSpec {
                        levels: 8,
                        step: 0.5,
                    }),
                }),
                SpecItem::Conv(ConvSpec {
                    geom: g3,
                    weights: w(8 * 8 * 9, 3).reshape(vec![8, 8, 3, 3]),
                    bn: Some(bn(8)),
                    act: None,
                }),
                SpecItem::BlockAdd {
                    down: Some(ConvSpec {
                        geom: gd,
                        weights: w(8 * 4, 4).reshape(vec![8, 4, 1, 1]),
                        bn: Some(bn(8)),
                        act: None,
                    }),
                    act: ActSpec {
                        levels: 8,
                        step: 0.6,
                    },
                },
                SpecItem::MaxPool2x2,
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 8,
                    out_features: 10,
                    weights: w(80, 5).reshape(vec![10, 8]),
                    bias: vec![0.01; 10],
                }),
            ],
        }
    }

    fn image() -> Tensor {
        Tensor::from_vec(
            vec![3, 8, 8],
            (0..192).map(|i| ((i * 13 % 29) as f32) / 29.0).collect(),
        )
    }

    #[test]
    fn machine_is_bit_exact_with_int_runner() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let hw = machine.run(&img, 8);
        let sw = IntRunner::new(&net).run(&img, 8);
        assert_eq!(hw.logits_per_t, sw.logits_per_t, "logits diverged");
        assert_eq!(hw.stats.spikes, sw.stats.spikes, "spike counts diverged");
        assert_eq!(hw.predicted(), sw.predicted());
    }

    #[test]
    fn machine_burn_in_matches_runner_burn_in() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let hw = machine.run_with(&img, 8, 3);
        let sw = IntRunner::new(&net).run_with(&img, 8, 3);
        assert_eq!(hw.logits_per_t, sw.logits_per_t);
    }

    #[test]
    fn report_has_meaningful_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg.clone());
        let run = machine.run(&image(), 8);
        assert!(run.report.total_cycles() > 0);
        assert!(run.report.total_ms() > 0.0);
        assert!(run.report.total_ops() > 0);
        let util = run.report.pe_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilisation {util}");
        // every PL conv layer spent compute cycles
        for l in &run.report.layers {
            if l.name.starts_with("conv") {
                assert!(l.compute_cycles > 0, "{} has no compute", l.name);
            }
        }
    }

    #[test]
    fn sparser_input_is_faster() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let bright = machine.run(&image(), 8);
        let dark = machine.run(&Tensor::zeros(vec![3, 8, 8]), 8);
        let conv_cycles = |r: &MachineRun| -> u64 {
            r.report
                .layers
                .iter()
                .filter(|l| l.name.starts_with("conv"))
                .map(|l| l.compute_cycles)
                .sum()
        };
        assert!(conv_cycles(&dark) < conv_cycles(&bright));
    }

    #[test]
    fn unreachable_exit_threshold_is_bit_exact_with_fixed_run() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let fixed = machine.run(&img, 8);
        for window in [1, 2, 3, 8] {
            let never = machine.run_policy(
                &img,
                8,
                0,
                ExitPolicy::Margin {
                    threshold: f32::INFINITY,
                    window,
                },
            );
            assert_eq!(never.logits_per_t, fixed.logits_per_t, "window {window}");
            assert_eq!(never.stats, fixed.stats, "window {window}");
            assert_eq!(
                never.report.total_cycles(),
                fixed.report.total_cycles(),
                "window {window}"
            );
        }
    }

    #[test]
    fn early_exit_is_a_prefix_and_saves_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let fixed = machine.run(&img, 8);
        let policy = ExitPolicy::Margin {
            threshold: 0.0,
            window: 1,
        };
        let early = machine.run_policy(&img, 8, 0, policy);
        let t = early.logits_per_t.len();
        assert!(t < 8, "threshold 0 must exit at the first boundary");
        assert_eq!(early.logits_per_t[..], fixed.logits_per_t[..t]);
        assert_eq!(early.stats.timesteps, t as u64);
        // the modelled hardware prices the skipped timesteps: fewer PL conv
        // passes and head readouts → strictly fewer cycles
        assert!(
            early.report.total_cycles() < fixed.report.total_cycles(),
            "exit at t={t} saved no cycles ({} vs {})",
            early.report.total_cycles(),
            fixed.report.total_cycles()
        );
    }

    #[test]
    fn more_timesteps_cost_more_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let mut m4 = SiaMachine::new(compile_for(&net, &cfg, 4).unwrap(), cfg.clone());
        let mut m8 = SiaMachine::new(compile_for(&net, &cfg, 8).unwrap(), cfg);
        let img = image();
        let a = m4.run(&img, 4);
        let b = m8.run(&img, 8);
        assert!(a.report.total_cycles() < b.report.total_cycles());
    }
}

#[cfg(test)]
mod controller_integration {
    use super::*;
    use crate::compiler::compile_for;
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions};
    use sia_tensor::Conv2dGeom;

    #[test]
    fn controller_counts_one_start_per_group_pass_per_timestep() {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: 100, // two kernel groups on a 64-PE array
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let spec = NetworkSpec {
            name: "ctl".into(),
            input: (3, 4, 4),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::full(vec![100, 3, 3, 3], 0.05),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 4,
                        step: 1.0,
                    }),
                }),
                SpecItem::Conv(ConvSpec {
                    geom: Conv2dGeom {
                        in_channels: 100,
                        out_channels: 10,
                        ..geom
                    },
                    weights: Tensor::full(vec![10, 100, 3, 3], 0.01),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 4,
                        step: 1.0,
                    }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 10,
                    out_features: 4,
                    weights: Tensor::full(vec![4, 10], 0.1),
                    bias: vec![0.0; 4],
                }),
            ],
        };
        let net = convert(&spec, &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let mut m = SiaMachine::new(compile_for(&net, &cfg, 4).unwrap(), cfg);
        assert_eq!(m.layers_started(), 0);
        let _ = m.run(&Tensor::full(vec![3, 4, 4], 0.5), 4);
        // first conv is dense-input (PS-side, no controller); the second PL
        // conv has one group, but the first *spiking* conv in this net is
        // the 100-channel one? No: the 100-channel conv is dense-input.
        // PL convs: the 10-channel conv → 1 group × 4 timesteps = 4 starts.
        assert_eq!(m.layers_started(), 4);
    }
}
