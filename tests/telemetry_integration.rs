//! Telemetry integration: the live counters/events the machine emits
//! *during* simulation must reconcile exactly with the `CycleReport` it
//! returns, and the JSONL stream must be valid line-delimited JSON.
//!
//! Everything here is behind the `telemetry` feature so the suite still
//! passes with `--no-default-features` (probes compiled out).

#![cfg(feature = "telemetry")]

use sia_accel::spiking_core::run_conv_pass;
use sia_accel::{compile_for, SiaConfig, SiaMachine};
use sia_fixed::sat::add16;
use sia_fixed::QuantScale;
use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_snn::encode::encode_image;
use sia_snn::network::ConvInput;
use sia_snn::neuron::step_int;
use sia_snn::{conv_psums_dense, convert, ConvertOptions, IntRunner, SnnItem};
use sia_telemetry::json::{parse, Json};
use sia_tensor::{Conv2dGeom, Tensor};
use std::sync::Mutex;

/// The JSONL sink is process-global; serialise the tests that install it.
fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn det_weights(n: usize, seed: usize) -> Tensor {
    Tensor::from_vec(
        vec![n],
        (0..n)
            .map(|i| (((i * 37 + seed * 11) % 19) as f32 - 9.0) * 0.04)
            .collect(),
    )
}

/// A small dense-input conv→conv→pool→head network, cheap to simulate.
fn spec() -> NetworkSpec {
    let g1 = Conv2dGeom {
        in_channels: 2,
        out_channels: 6,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let g2 = Conv2dGeom {
        in_channels: 6,
        out_channels: 8,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    NetworkSpec {
        name: "telemetry-e2e".into(),
        input: (2, 8, 8),
        items: vec![
            SpecItem::Conv(ConvSpec {
                geom: g1,
                weights: det_weights(6 * 2 * 9, 1).reshape(vec![6, 2, 3, 3]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.8,
                }),
            }),
            SpecItem::Conv(ConvSpec {
                geom: g2,
                weights: det_weights(8 * 6 * 9, 2).reshape(vec![8, 6, 3, 3]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.6,
                }),
            }),
            SpecItem::MaxPool2x2,
            SpecItem::GlobalAvgPool,
            SpecItem::Linear(LinearSpec {
                in_features: 8,
                out_features: 10,
                weights: det_weights(80, 3).reshape(vec![10, 8]),
                bias: vec![0.02; 10],
            }),
        ],
    }
}

fn image() -> Tensor {
    Tensor::from_vec(
        vec![2, 8, 8],
        (0..128).map(|i| ((i * 17 % 31) as f32) / 31.0).collect(),
    )
}

#[test]
fn live_events_reconcile_with_cycle_report() {
    let _guard = sink_lock();
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let mut machine = SiaMachine::new(compile_for(&net, &cfg, 4).unwrap(), cfg);
    let before = sia_telemetry::snapshot();
    sia_telemetry::install_jsonl(None).unwrap();
    let run = machine.run(&image(), 4);
    let bytes = sia_telemetry::uninstall_jsonl();
    let after = sia_telemetry::snapshot();

    // every line is valid JSON with an event kind and a timestamp
    let text = String::from_utf8(bytes).expect("sink produced non-UTF8");
    let events: Vec<Json> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    assert!(events.iter().all(|e| e.get("ts_us").is_some()));

    // the per-layer events match the returned report, field for field
    let layer_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ev").and_then(Json::as_str) == Some("accel.layer"))
        .collect();
    assert_eq!(layer_events.len(), run.report.layers.len());
    for (ev, layer) in layer_events.iter().zip(&run.report.layers) {
        let field = |k: &str| ev.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        assert_eq!(
            ev.get("name").and_then(Json::as_str),
            Some(layer.name.as_str())
        );
        assert_eq!(
            field("compute_cycles"),
            layer.compute_cycles,
            "{}",
            layer.name
        );
        assert_eq!(
            field("transfer_cycles"),
            layer.transfer_cycles,
            "{}",
            layer.name
        );
        assert_eq!(
            field("overhead_cycles"),
            layer.overhead_cycles,
            "{}",
            layer.name
        );
        assert_eq!(
            field("total_cycles"),
            layer.total_cycles(),
            "{}",
            layer.name
        );
        assert_eq!(field("spikes"), layer.spikes, "{}", layer.name);
        assert_eq!(field("ops"), layer.ops, "{}", layer.name);
    }

    // the live counters sum to the report totals
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("accel.layers"), run.report.layers.len() as u64);
    assert_eq!(delta("accel.total_cycles"), run.report.total_cycles());
    assert_eq!(
        delta("accel.compute_cycles"),
        run.report
            .layers
            .iter()
            .map(|l| l.compute_cycles)
            .sum::<u64>()
    );
    assert_eq!(
        delta("accel.transfer_cycles"),
        run.report
            .layers
            .iter()
            .map(|l| l.transfer_cycles)
            .sum::<u64>()
    );
    assert_eq!(delta("accel.ops"), run.report.total_ops());
    assert_eq!(
        delta("accel.spikes"),
        run.report.layers.iter().map(|l| l.spikes).sum::<u64>()
    );
    // ping-pong banks switch once per (spiking layer, timestep)
    let spiking_layers = 2 /* input conv + PL conv */;
    assert_eq!(delta("accel.pingpong.switches"), spiking_layers * 4);
}

/// The PE-array accounting the machine reports — the PL stage's taps in
/// its `snn.stage` event, the `accel.pe.*` counters and the conv layer's
/// `CycleReport` row — equals the sum of per-PE oracle passes over the
/// stage's real input spikes. A PL stage reports PE segments only, so
/// kernel taps leaking into the stage count fail here.
#[test]
fn pe_accounting_equals_oracle_passes() {
    let _guard = sink_lock();
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let timesteps = 4;
    let (SnnItem::InputConv(c1), SnnItem::Conv(c2)) = (&net.items[0], &net.items[1]) else {
        panic!("spec starts with the input conv and one PL conv")
    };
    let ConvInput::Dense { scale } = c1.input else {
        panic!("first layer is dense-input")
    };

    // the PL conv's input per timestep: the input conv's IF neurons driven
    // by their constant batch-normed currents from a θ/2 pre-charge
    let psums = conv_psums_dense(
        c1,
        &encode_image(&image(), QuantScale::for_max_abs(scale * 127.0)),
    );
    let per_ch = psums.len() / c1.geom.out_channels;
    let mut membranes = vec![c1.theta / 2; psums.len()];
    let mut input_spikes = 0u64;
    let (mut processed, mut skipped, mut active, mut cycles, mut nominal) = (0, 0, 0, 0, 0);
    for _ in 0..timesteps {
        let spikes: Vec<u8> = psums
            .iter()
            .zip(membranes.iter_mut())
            .enumerate()
            .map(|(i, (&p, u))| {
                let cur = add16(c1.g[i / per_ch].mul_int_wide(p), c1.h[i / per_ch]);
                u8::from(step_int(u, cur, c1.theta, c1.mode))
            })
            .collect();
        input_spikes += spikes.iter().map(|&b| u64::from(b)).sum::<u64>();
        for start in (0..c2.geom.out_channels).step_by(cfg.pe_count()) {
            let size = (c2.geom.out_channels - start).min(cfg.pe_count());
            let pass = run_conv_pass(&c2.geom, &c2.weights, start, size, &spikes, &cfg);
            processed += pass.processed_segments;
            skipped += pass.skipped_segments;
            active += pass.active_pe_cycles;
            cycles += pass.cycles + cfg.aggregation_pipeline_depth;
            nominal += (pass.processed_segments + pass.skipped_segments) * size as u64;
        }
    }
    assert!(
        processed > 0 && skipped > 0,
        "the input must be neither silent nor full"
    );

    let mut machine = SiaMachine::new(compile_for(&net, &cfg, timesteps).unwrap(), cfg.clone());
    let before = sia_telemetry::snapshot();
    sia_telemetry::install_jsonl(None).unwrap();
    let run = machine.run(&image(), timesteps);
    let bytes = sia_telemetry::uninstall_jsonl();
    let after = sia_telemetry::snapshot();
    assert_eq!(run.stats.spikes[0], input_spikes, "oracle input diverged");

    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("accel.pe.segments_processed"), processed);
    assert_eq!(delta("accel.pe.segments_skipped"), skipped);
    assert_eq!(delta("accel.pe.active_cycles"), active);

    let text = String::from_utf8(bytes).expect("sink produced non-UTF8");
    let stage = text
        .lines()
        .filter_map(|l| parse(l).ok())
        .find(|e| {
            e.get("ev").and_then(Json::as_str) == Some("snn.stage")
                && e.get("name").and_then(Json::as_str) == Some(run.stats.names[1].as_str())
        })
        .expect("the PL conv stage emits its snn.stage event");
    let taps = |k: &str| stage.get(k).and_then(Json::as_u64);
    assert_eq!(taps("taps_processed"), Some(processed));
    assert_eq!(taps("taps_skipped"), Some(skipped));

    let layer = &run.report.layers[1];
    assert_eq!(layer.compute_cycles, cycles);
    assert_eq!(layer.active_pe_cycles, active);
    assert_eq!(layer.ops, active * cfg.ops_per_pe_cycle);
    assert_eq!(layer.nominal_ops, nominal * cfg.ops_per_pe_cycle);
    // the PL conv is the only stage on the PE array
    assert_eq!(run.report.total_ops(), active * cfg.ops_per_pe_cycle);
    assert_eq!(
        run.report.total_nominal_ops(),
        nominal * cfg.ops_per_pe_cycle
    );
}

#[test]
fn instrumented_machine_stays_bit_exact() {
    // §6 of DESIGN.md: instrumentation must not perturb the datapath.
    // (Serialised too: this machine would otherwise emit into a JSONL
    // sink installed by a concurrently running test.)
    let _guard = sink_lock();
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let mut machine = SiaMachine::new(compile_for(&net, &cfg, 6).unwrap(), cfg);
    let img = image();
    let hw = machine.run(&img, 6);
    let sw = IntRunner::new(&net).run(&img, 6);
    assert_eq!(hw.logits_per_t, sw.logits_per_t);
    assert_eq!(hw.stats.spikes, sw.stats.spikes);
}

#[test]
fn snn_runner_emits_per_timestep_spike_events() {
    let _guard = sink_lock();
    let net = convert(&spec(), &ConvertOptions::default());
    sia_telemetry::install_jsonl(None).unwrap();
    let out = IntRunner::new(&net).run(&image(), 5);
    let bytes = sia_telemetry::uninstall_jsonl();
    let text = String::from_utf8(bytes).unwrap();
    let steps: Vec<Json> = text
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|e| e.get("ev").and_then(Json::as_str) == Some("snn.timestep"))
        .collect();
    assert_eq!(steps.len(), 5);
    let emitted: u64 = steps
        .iter()
        .map(|e| e.get("spikes").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(emitted, out.stats.spikes.iter().sum::<u64>());
    assert!(steps.iter().all(|e| e.get("saturated").is_some()));
}

/// Input conv, then a stride-2 residual block with a 1×1 stride-2
/// downsample: a spiking stride-2 conv, a psum conv and a downsample conv.
fn residual_spec() -> NetworkSpec {
    let geom = |cin, cout, hw, k, stride| Conv2dGeom {
        in_channels: cin,
        out_channels: cout,
        in_h: hw,
        in_w: hw,
        kernel: k,
        stride,
        padding: k / 2,
    };
    let conv = |g: Conv2dGeom, seed, act: Option<f32>| ConvSpec {
        geom: g,
        // biased positive so the block sees dense input
        weights: det_weights(g.weight_count(), seed)
            .map(|w| w + 0.12)
            .reshape(vec![g.out_channels, g.in_channels, g.kernel, g.kernel]),
        bn: None,
        act: act.map(|step| ActSpec { levels: 8, step }),
    };
    NetworkSpec {
        name: "tap-pin".into(),
        input: (2, 8, 8),
        items: vec![
            SpecItem::Conv(conv(geom(2, 8, 8, 3, 1), 1, Some(0.5))),
            SpecItem::BlockStart,
            SpecItem::Conv(conv(geom(8, 16, 8, 3, 2), 2, Some(1.0))),
            SpecItem::Conv(conv(geom(16, 16, 4, 3, 1), 3, None)),
            SpecItem::BlockAdd {
                down: Some(conv(geom(8, 16, 8, 1, 2), 4, None)),
                act: ActSpec {
                    levels: 8,
                    step: 1.0,
                },
            },
            SpecItem::GlobalAvgPool,
            SpecItem::Linear(LinearSpec {
                in_features: 16,
                out_features: 10,
                weights: det_weights(160, 5).reshape(vec![10, 16]),
                bias: vec![0.0; 10],
            }),
        ],
    }
}

/// Every spiking conv runs the event-driven scatter, so each `snn.stage`
/// event reports exactly `spikes·K²` processed taps and `silent·K²`
/// skipped ones, summed over the convs whose taps the stage reports (a
/// psum conv and a downsample report through their closing `BlockAdd`).
/// The stride-2 conv's input is dense enough that a density-gated dense
/// kernel would take it and report no skipped taps.
#[test]
fn stage_taps_are_input_spikes_times_kernel_area() {
    let _guard = sink_lock();
    let net = convert(&residual_spec(), &ConvertOptions::default());
    let timesteps = 4u64;
    sia_telemetry::install_jsonl(None).unwrap();
    let out = IntRunner::new(&net).run(&image(), timesteps as usize);
    let bytes = sia_telemetry::uninstall_jsonl();
    let text = String::from_utf8(bytes).expect("sink produced non-UTF8");
    let stage_taps = |name: &str| -> (u64, u64) {
        let e = text
            .lines()
            .filter_map(|l| parse(l).ok())
            .find(|e| {
                e.get("ev").and_then(Json::as_str) == Some("snn.stage")
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .unwrap_or_else(|| panic!("no snn.stage event for {name}"));
        let field = |k: &str| e.get(k).and_then(Json::as_u64).unwrap();
        (field("taps_processed"), field("taps_skipped"))
    };

    // (Σ input spikes · K², Σ input neurons · K² · T) of one conv, whose
    // input plane is the output of stage `src`
    let conv_taps = |c: &sia_snn::SnnConv, src: usize| {
        let g = &c.geom;
        let k2 = (g.kernel * g.kernel) as u64;
        let neurons = (g.in_channels * g.in_h * g.in_w) as u64;
        (out.stats.spikes[src] * k2, neurons * k2 * timesteps)
    };
    let add = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
    let mut stage = 0usize;
    let (mut cur, mut skip) = (0usize, 0usize);
    let mut pending = (0u64, 0u64);
    let mut checked = 0;
    for item in &net.items {
        let want = match item {
            SnnItem::InputConv(_) => Some((0, 0)),
            SnnItem::Conv(c) => Some(conv_taps(c, cur)),
            SnnItem::ConvPsum(c) => {
                pending = add(pending, conv_taps(c, cur));
                None
            }
            SnnItem::BlockStart => {
                skip = cur;
                None
            }
            SnnItem::BlockAdd(a) => {
                let down = a.down.as_ref().map_or((0, 0), |d| conv_taps(d, skip));
                Some(add(std::mem::take(&mut pending), down))
            }
            SnnItem::MaxPoolOr { .. } => unreachable!("no pool in this net"),
            SnnItem::Head(_) => None,
        };
        if let Some((processed, total)) = want {
            let name = &out.stats.names[stage];
            let (got_processed, got_skipped) = stage_taps(name);
            assert_eq!(got_processed, processed, "{name}: processed taps");
            assert_eq!(got_processed + got_skipped, total, "{name}: all taps");
            cur = stage;
            stage += 1;
            checked += 1;
        }
    }
    assert_eq!(checked, 3, "input conv, stride-2 conv, block add");

    // the stride-2 conv's input (the input conv's output) is dense
    let input_neurons = 8 * 8 * 8 * timesteps;
    assert!(
        out.stats.spikes[0] * 5 > input_neurons,
        "stride-2 conv input density {} is too low to pin the kernel",
        out.stats.spikes[0] as f64 / input_neurons as f64
    );
}
