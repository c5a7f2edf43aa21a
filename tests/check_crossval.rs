//! Dynamic cross-validation of the static checker: the verdicts
//! `sia-check` proves about a model must agree with what the runtime
//! telemetry observes when that model actually runs.
//!
//! Two models anchor the two directions of the implication:
//!
//! * a **tuned** model the interval analysis proves fully exact
//!   (`overflow_free()`): the integer runner's `snn.membrane.saturated`
//!   counter must stay at zero for every input, and the backends must agree
//!   on the prediction;
//! * an **under-scaled** model (a batch-norm β far beyond what the 16-bit
//!   offset can carry): the checker must flag it statically
//!   (`overflow.coeff-h` + `sat.membrane`) AND the runtime counter must
//!   actually saturate — so the static "no overflow" claim is never
//!   contradicted at runtime, and real saturation never goes unflagged.
//!
//! The under-scaled β is *negative*: the runtime counter samples membranes
//! after the reset subtraction, so a positive-side transient that spikes
//! immediately un-pins itself, while a membrane driven below `i16::MIN`
//! stays pinned (reset-by-subtraction never fires below threshold). The
//! static pass flags both (its pre-reset peak is what `add16` sees); the
//! negative direction is the one a runtime counter can corroborate.
//!
//! The saturation-counter assertions need the `telemetry` feature (the
//! counter compiles out otherwise); the structural assertions run always.

use sia_accel::{compile_for, SiaConfig, SiaMachine};
use sia_check::check_network;
use sia_nn::{ActSpec, BnSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_snn::{
    convert, drive_policy, ConvertOptions, EngineInput, ExitPolicy, FloatRunner, IntRunner,
};
use sia_tensor::{Conv2dGeom, Tensor};

const T: usize = 8;

fn det_weights(n: usize, seed: usize, scale: f32) -> Tensor {
    Tensor::from_vec(
        vec![n],
        (0..n)
            .map(|i| (((i * 37 + seed * 11) % 19) as f32 - 9.0) * scale)
            .collect(),
    )
}

/// A conv→conv→pool→head spec sized so the interval analysis can prove the
/// integer datapath exact at `T = 8`:
///
/// * first layer 1×1 with |w| ≤ 0.16 → Q8.8 gain ≈ 0.16 over power-of-two
///   quant scales, so even the worst-case ±128 input codes keep
///   |current| ≈ 3.3 k against θ = 4096 (bounded above by θ + current, and
///   8·current stays off the negative rail);
/// * second layer 3×3 with |w| ≤ 0.036 → gain ≈ 1.5, worst-case binary
///   psum ≈ ±1.9 k, same argument.
///
/// `beta` adds a batch-norm shift on the second conv; 0.0 keeps the model
/// well-conditioned, a large negative value under-scales it (H = β/ν clamps
/// at −32768 and drags every membrane to the negative rail).
fn spec(beta: f32) -> NetworkSpec {
    let g1 = Conv2dGeom {
        in_channels: 2,
        out_channels: 6,
        in_h: 8,
        in_w: 8,
        kernel: 1,
        stride: 1,
        padding: 0,
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
    let w = 0.16f32;
    #[rustfmt::skip]
    let w1 = vec![
         w, -w,
        -w,  w,
         w,  w,
         w / 2.0, -w,
        -w,  w / 2.0,
         w,  w / 2.0,
    ];
    let bn = (beta != 0.0).then(|| BnSpec {
        gamma: vec![1.0; 8],
        beta: vec![beta; 8],
        mean: vec![0.0; 8],
        var: vec![1.0; 8],
        eps: 1e-5,
    });
    NetworkSpec {
        name: if beta == 0.0 { "tuned" } else { "under-scaled" }.into(),
        input: (2, 8, 8),
        items: vec![
            SpecItem::Conv(ConvSpec {
                geom: g1,
                weights: Tensor::from_vec(vec![6, 2, 1, 1], w1),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.8,
                }),
            }),
            SpecItem::Conv(ConvSpec {
                geom: g2,
                weights: det_weights(8 * 6 * 9, 2, 0.004).reshape(vec![8, 6, 3, 3]),
                bn,
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
                weights: det_weights(80, 3, 0.04).reshape(vec![10, 8]),
                bias: vec![0.02; 10],
            }),
        ],
    }
}

fn image(seed: usize) -> Tensor {
    Tensor::from_vec(
        vec![2, 8, 8],
        (0..128)
            .map(|i| (((i * 17 + seed * 29) % 31) as f32) / 31.0)
            .collect(),
    )
}

/// Runs one image through the integer runner and returns (final logits,
/// saturation-counter delta).
fn run_int(net: &sia_snn::SnnNetwork, img: &Tensor) -> (Vec<f32>, u64) {
    let before = sia_telemetry::snapshot().counter("snn.membrane.saturated");
    let mut runner = IntRunner::new(net);
    let (out, ()) = drive_policy(
        &mut runner,
        EngineInput::Image(img),
        T,
        0,
        ExitPolicy::Fixed,
    );
    let after = sia_telemetry::snapshot().counter("snn.membrane.saturated");
    (out.logits_per_t.last().unwrap().clone(), after - before)
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0
}

#[test]
fn proven_exact_model_never_saturates_at_runtime() {
    let net = convert(&spec(0.0), &ConvertOptions::default());
    let report = check_network(&net, &SiaConfig::pynq_z2(), T);
    assert!(report.passed(), "tuned model must pass: {report}");
    assert!(
        report.overflow_free(),
        "tuned model must be proven exact: {report}"
    );
    for seed in 0..5 {
        let (_, saturated) = run_int(&net, &image(seed));
        #[cfg(feature = "telemetry")]
        assert_eq!(
            saturated, 0,
            "static proof contradicted: {saturated} saturated membranes (seed {seed})"
        );
        #[cfg(not(feature = "telemetry"))]
        let _ = saturated;
    }
}

#[test]
fn backends_agree_on_the_proven_model() {
    let spec = spec(0.0);
    let net = convert(&spec, &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let program = compile_for(&net, &cfg, T).expect("compiles");
    for seed in 0..3 {
        let img = image(seed);
        let (int_logits, _) = run_int(&net, &img);
        let mut float = FloatRunner::new(&net);
        let (fout, ()) = drive_policy(
            &mut float,
            EngineInput::Image(&img),
            T,
            0,
            ExitPolicy::Fixed,
        );
        let mut machine = SiaMachine::new(program.clone(), cfg.clone());
        let (aout, _report) = drive_policy(
            &mut machine,
            EngineInput::Image(&img),
            T,
            0,
            ExitPolicy::Fixed,
        );
        let accel_logits = aout.logits_per_t.last().unwrap();
        // int and accel share the datapath bit for bit; float agrees on the
        // decision for this well-conditioned model
        assert_eq!(&int_logits, accel_logits, "int vs accel (seed {seed})");
        assert_eq!(
            argmax(&int_logits),
            argmax(fout.logits_per_t.last().unwrap()),
            "int vs float decision (seed {seed})"
        );
    }
}

#[test]
fn under_scaled_model_is_flagged_statically_and_saturates_dynamically() {
    let net = convert(&spec(-4000.0), &ConvertOptions::default());
    let report = check_network(&net, &SiaConfig::pynq_z2(), T);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "overflow.coeff-h"),
        "conversion clamp must be reported: {report}"
    );
    assert!(
        report.diagnostics.iter().any(|d| d.rule == "sat.membrane"),
        "membrane saturation must be predicted: {report}"
    );
    assert!(!report.passed(), "clamped conversion is an error");
    assert!(!report.overflow_free());
    let (_, saturated) = run_int(&net, &image(0));
    #[cfg(feature = "telemetry")]
    assert!(
        saturated > 0,
        "under-scaled model should saturate at runtime too"
    );
    #[cfg(not(feature = "telemetry"))]
    let _ = saturated;
}

/// A spec whose *second* (PL-resident spiking) conv is `big`; the first
/// layer runs PS-side and is exempt from the PL budget lints.
fn pl_conv_spec(name: &str, big: Conv2dGeom, weight_scale: f32) -> NetworkSpec {
    let g1 = Conv2dGeom {
        in_channels: 2,
        out_channels: big.in_channels,
        in_h: big.in_h,
        in_w: big.in_w,
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    let n1 = big.in_channels * 2;
    let nbig = big.weight_count();
    NetworkSpec {
        name: name.into(),
        input: (2, big.in_h, big.in_w),
        items: vec![
            SpecItem::Conv(ConvSpec {
                geom: g1,
                weights: det_weights(n1, 4, 0.01).reshape(vec![big.in_channels, 2, 1, 1]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.8,
                }),
            }),
            SpecItem::Conv(ConvSpec {
                geom: big,
                weights: det_weights(nbig, 5, weight_scale).reshape(vec![
                    big.out_channels,
                    big.in_channels,
                    big.kernel,
                    big.kernel,
                ]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.6,
                }),
            }),
            SpecItem::GlobalAvgPool,
            SpecItem::Linear(LinearSpec {
                in_features: big.out_channels,
                out_features: 10,
                weights: det_weights(10 * big.out_channels, 6, 0.01)
                    .reshape(vec![10, big.out_channels]),
                bias: vec![0.0; 10],
            }),
        ],
    }
}

#[test]
fn crafted_over_budget_model_is_rejected_with_rule_and_fix() {
    // 1024 channels at 32×32 → a 131 072 B output spike bitmap, far past
    // the 56 kB output memory: unschedulable, a hard budget error.
    let big = Conv2dGeom {
        in_channels: 4,
        out_channels: 1024,
        in_h: 32,
        in_w: 32,
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    let net = convert(
        &pl_conv_spec("over-budget", big, 0.002),
        &ConvertOptions::default(),
    );
    let report = check_network(&net, &SiaConfig::pynq_z2(), T);
    let e = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "budget.output-sram")
        .expect("over-budget output must be flagged");
    assert_eq!(e.severity, sia_check::Severity::Error);
    assert!(
        e.suggestion.as_deref().unwrap_or("").contains("tile"),
        "suggestion must carry the tiling fix: {e:?}"
    );
    assert!(!report.passed());
    // and the accelerator compiler indeed refuses the same layer
    assert!(compile_for(&net, &SiaConfig::pynq_z2(), T).is_err());
}

#[test]
fn deny_promotes_streaming_warning_to_error() {
    // A 64-wide 3×3 kernel group (36 864 B) exceeds the 8 kB weight SRAM:
    // legal (the compiler streams input-channel chunks) but deniable.
    let big = Conv2dGeom {
        in_channels: 64,
        out_channels: 64,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let net = convert(
        &pl_conv_spec("streams-weights", big, 0.0005),
        &ConvertOptions::default(),
    );
    let mut report = check_network(&net, &SiaConfig::pynq_z2(), T);
    let w = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "budget.weight-sram")
        .expect("streaming must be flagged");
    assert_eq!(w.severity, sia_check::Severity::Warning);
    let errors_before = report.error_count();
    report.deny(&["budget.weight-sram".to_string()]);
    assert!(report.error_count() > errors_before);
    assert!(!report.passed());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == "budget.weight-sram" && d.promoted));
}
