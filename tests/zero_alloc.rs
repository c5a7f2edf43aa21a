//! The steady-state timestep loop is allocation-free on every backend.
//!
//! Every buffer the timestep × layer traversal writes — psums, membrane
//! staging, pending residual currents, the spike-plane arenas — goes
//! through `sia_snn::scratch`, which counts a growth event whenever a
//! tracked buffer's capacity actually grows. After a warm-up run every
//! buffer has reached its high-water mark, so repeated runs must leave the
//! (thread-local) counter untouched.

use sia_accel::{compile_for, SiaConfig, SiaMachine};
use sia_nn::{ActSpec, BnSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_snn::encode::rate_encode;
use sia_snn::scratch::scratch_growth;
use sia_snn::{convert, ConvertOptions, ExitPolicy, FloatRunner, InputEncoding, IntRunner};
use sia_tensor::{Conv2dGeom, Tensor};

/// Structurally complete network: input conv, residual block with
/// downsample (conv + psum conv + block add), OR-pool, head — every item
/// kind the timestep loop executes.
fn spec() -> NetworkSpec {
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
        name: "zeroalloc".into(),
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

/// Runs `body` twice to warm every scratch buffer to its high-water mark,
/// then asserts three more executions grow nothing.
fn assert_steady_state_growth_free(mut body: impl FnMut()) {
    body();
    body();
    let before = scratch_growth();
    for _ in 0..3 {
        body();
    }
    assert_eq!(
        scratch_growth(),
        before,
        "steady-state runs grew scratch buffers"
    );
}

#[test]
fn int_runner_steady_state_is_growth_free() {
    let net = convert(&spec(), &ConvertOptions::default());
    let mut runner = IntRunner::new(&net);
    let img = image();
    assert_steady_state_growth_free(|| {
        let _ = runner.run(&img, 6);
    });
}

#[test]
fn float_runner_steady_state_is_growth_free() {
    let net = convert(&spec(), &ConvertOptions::default());
    let mut runner = FloatRunner::new(&net);
    let img = image();
    assert_steady_state_growth_free(|| {
        let _ = runner.run(&img, 6);
    });
}

#[test]
fn machine_steady_state_is_growth_free() {
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let program = compile_for(&net, &cfg, 6).expect("compiles");
    let mut machine = SiaMachine::new(program, cfg);
    let img = image();
    assert_steady_state_growth_free(|| {
        let _ = machine.run(&img, 6);
    });
}

/// The chunked adaptive driver reuses the same scratch as the fixed-T
/// path: per-boundary head readouts and exit checks must not allocate once
/// buffers are warm, whether or not the policy actually fires.
#[test]
fn adaptive_policy_steady_state_is_growth_free() {
    let net = convert(&spec(), &ConvertOptions::default());
    let mut runner = IntRunner::new(&net);
    let img = image();
    // Checks at every boundary but never exits: the worst case for
    // per-chunk readout traffic.
    let never = ExitPolicy::Margin {
        threshold: f32::INFINITY,
        window: 1,
    };
    // Exits at the first boundary: exercises the early-return path.
    let always = ExitPolicy::Margin {
        threshold: 0.0,
        window: 1,
    };
    assert_steady_state_growth_free(|| {
        let _ = runner.run_policy(&img, 6, 0, never);
        let _ = runner.run_policy(&img, 6, 0, always);
    });
}

#[test]
fn event_stream_path_is_growth_free() {
    let net = convert(
        &spec(),
        &ConvertOptions {
            encoding: InputEncoding::EventDriven,
            ..ConvertOptions::default()
        },
    );
    let mut runner = IntRunner::new(&net);
    let events = rate_encode(&image(), 6, 1.0);
    assert_steady_state_growth_free(|| {
        let _ = runner.run_events(&events, 6, 1);
    });
}

/// Warm runs stay bit-identical to cold runs — buffer reuse must never
/// leak state between inferences.
#[test]
fn warm_runs_match_cold_runs() {
    let net = convert(&spec(), &ConvertOptions::default());
    let img = image();
    let cold = IntRunner::new(&net).run(&img, 6);
    let mut warm_runner = IntRunner::new(&net);
    for _ in 0..3 {
        let _ = warm_runner.run(&img, 6);
    }
    let warm = warm_runner.run(&img, 6);
    assert_eq!(cold.logits_per_t, warm.logits_per_t);
    assert_eq!(cold.stats.spikes, warm.stats.spikes);
}

/// The machine keeps its membrane banks resident across runs and only
/// re-precharges them: a warm machine — after other images and an
/// early-exited run — must match a cold one bit for bit and cycle for
/// cycle.
#[test]
fn machine_warm_runs_match_cold_runs() {
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let program = compile_for(&net, &cfg, 6).expect("compiles");
    let img = image();
    let cold = SiaMachine::new(program.clone(), cfg.clone()).run(&img, 6);
    let mut warm_machine = SiaMachine::new(program, cfg);
    let _ = warm_machine.run(&Tensor::full(vec![3, 8, 8], 0.9), 6);
    let first_boundary = ExitPolicy::Margin {
        threshold: 0.0,
        window: 1,
    };
    let _ = warm_machine.run_policy(&img, 6, 0, first_boundary);
    let warm = warm_machine.run(&img, 6);
    assert_eq!(cold.logits_per_t, warm.logits_per_t);
    assert_eq!(cold.stats, warm.stats);
    assert_eq!(cold.report.layers, warm.report.layers);
}
