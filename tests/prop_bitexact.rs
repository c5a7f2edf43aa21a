//! Property-based end-to-end checks: for *randomized* network topologies,
//! weights and inputs, the cycle-level machine must be bit-exact with the
//! functional integer simulator, the deployment image must round-trip, and
//! the converter's invariants must hold.

use proptest::prelude::*;
use sia_accel::{compile_for, read_image, write_image, SiaConfig, SiaEngineFactory, SiaMachine};
use sia_nn::{ActSpec, BnSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_snn::encode::rate_encode;
use sia_snn::{
    conv_psums_f32, conv_psums_f32_plane, conv_psums_int, conv_psums_int_plane, convert, drive,
    BatchEvaluator, ConvScratch, ConvertOptions, EngineInput, EvalConfig, EvalEncoding,
    FloatEngineFactory, FloatRunner, InputEncoding, IntEngineFactory, IntRunner, SnnItem,
    SpikePlane,
};
use sia_tensor::{Conv2dGeom, Tensor};
use std::sync::Arc;

/// Parameters of one randomized network.
#[derive(Clone, Debug)]
struct NetParams {
    input_hw: usize,
    base_ch: usize,
    stages: Vec<StageKind>,
    steps: Vec<f32>,
    weight_seed: u64,
}

#[derive(Clone, Copy, Debug)]
enum StageKind {
    Conv { widen: bool },
    Block { downsample: bool },
    Pool,
}

fn stage_strategy() -> impl Strategy<Value = StageKind> {
    prop_oneof![
        any::<bool>().prop_map(|widen| StageKind::Conv { widen }),
        any::<bool>().prop_map(|downsample| StageKind::Block { downsample }),
        Just(StageKind::Pool),
    ]
}

fn params_strategy() -> impl Strategy<Value = NetParams> {
    (
        prop_oneof![Just(4usize), Just(6), Just(8)],
        1usize..=3,
        proptest::collection::vec(stage_strategy(), 1..=3),
        proptest::collection::vec(0.3f32..2.0, 8),
        any::<u64>(),
    )
        .prop_map(
            |(input_hw, base_ch, stages, steps, weight_seed)| NetParams {
                input_hw,
                base_ch,
                stages,
                steps,
                weight_seed,
            },
        )
}

fn pseudo_weights(n: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    let vals: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i32 % 200) as f32 / 200.0
        })
        .collect();
    Tensor::from_vec(vec![n], vals)
}

fn bn(ch: usize, seed: u64) -> BnSpec {
    let g = pseudo_weights(ch, seed ^ 0x11);
    let b = pseudo_weights(ch, seed ^ 0x22);
    let m = pseudo_weights(ch, seed ^ 0x33);
    BnSpec {
        gamma: g.data().iter().map(|v| 1.0 + 0.3 * v).collect(),
        beta: b.data().iter().map(|v| 0.2 * v).collect(),
        mean: m.data().iter().map(|v| 0.3 * v).collect(),
        var: vec![1.0; ch],
        eps: 1e-5,
    }
}

/// Builds a valid spec from the random parameters.
fn build_spec(p: &NetParams) -> NetworkSpec {
    let mut items = Vec::new();
    let mut ch = 1usize; // input channels
    let mut hw = p.input_hw;
    let mut step_idx = 0usize;
    let next_step = |idx: &mut usize| {
        let s = p.steps[*idx % p.steps.len()];
        *idx += 1;
        s
    };
    let conv_spec = |cin: usize,
                     cout: usize,
                     hw: usize,
                     k: usize,
                     stride: usize,
                     act: Option<ActSpec>,
                     seed: u64| {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: k,
            stride,
            padding: k / 2,
        };
        ConvSpec {
            geom,
            weights: pseudo_weights(geom.weight_count(), seed).reshape(vec![cout, cin, k, k]),
            bn: Some(bn(cout, seed ^ 0x77)),
            act,
        }
    };
    // mandatory first conv (dense input)
    let s0 = next_step(&mut step_idx);
    items.push(SpecItem::Conv(conv_spec(
        ch,
        p.base_ch,
        hw,
        3,
        1,
        Some(ActSpec {
            levels: 4,
            step: s0,
        }),
        p.weight_seed,
    )));
    ch = p.base_ch;
    for (i, stage) in p.stages.iter().enumerate() {
        let seed = p.weight_seed ^ ((i as u64 + 2) << 8);
        match *stage {
            StageKind::Conv { widen } => {
                let out = if widen { ch * 2 } else { ch };
                let s = next_step(&mut step_idx);
                items.push(SpecItem::Conv(conv_spec(
                    ch,
                    out,
                    hw,
                    3,
                    1,
                    Some(ActSpec { levels: 4, step: s }),
                    seed,
                )));
                ch = out;
            }
            StageKind::Block { downsample } => {
                let stride = if downsample && hw >= 4 { 2 } else { 1 };
                let out = if stride == 2 { ch * 2 } else { ch };
                let s1 = next_step(&mut step_idx);
                let s2 = next_step(&mut step_idx);
                items.push(SpecItem::BlockStart);
                items.push(SpecItem::Conv(conv_spec(
                    ch,
                    out,
                    hw,
                    3,
                    stride,
                    Some(ActSpec {
                        levels: 4,
                        step: s1,
                    }),
                    seed,
                )));
                let new_hw = if stride == 2 { hw / 2 } else { hw };
                items.push(SpecItem::Conv(conv_spec(
                    out,
                    out,
                    new_hw,
                    3,
                    1,
                    None,
                    seed ^ 0x1,
                )));
                let down = (stride == 2 || out != ch)
                    .then(|| conv_spec(ch, out, hw, 1, stride, None, seed ^ 0x2));
                items.push(SpecItem::BlockAdd {
                    down,
                    act: ActSpec {
                        levels: 4,
                        step: s2,
                    },
                });
                ch = out;
                hw = new_hw;
            }
            StageKind::Pool => {
                if hw >= 4 && hw.is_multiple_of(2) {
                    items.push(SpecItem::MaxPool2x2);
                    hw /= 2;
                }
            }
        }
    }
    items.push(SpecItem::GlobalAvgPool);
    items.push(SpecItem::Linear(LinearSpec {
        in_features: ch,
        out_features: 4,
        weights: pseudo_weights(4 * ch, p.weight_seed ^ 0xFC).reshape(vec![4, ch]),
        bias: vec![0.05, -0.05, 0.0, 0.1],
    }));
    NetworkSpec {
        name: "prop".into(),
        input: (1, p.input_hw, p.input_hw),
        items,
    }
}

fn image_for(p: &NetParams) -> Tensor {
    let n = p.input_hw * p.input_hw;
    pseudo_weights(n, p.weight_seed ^ 0xF00)
        .map(|v| v.abs())
        .reshape(vec![1, p.input_hw, p.input_hw])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn machine_matches_runner_on_random_networks(p in params_strategy()) {
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 4).expect("compiles");
        let mut machine = SiaMachine::new(program, cfg);
        let img = image_for(&p);
        let hw = machine.run(&img, 4);
        let sw = IntRunner::new(&net).run(&img, 4);
        prop_assert_eq!(&hw.logits_per_t, &sw.logits_per_t);
        prop_assert_eq!(&hw.stats.spikes, &sw.stats.spikes);
    }

    #[test]
    fn image_roundtrip_on_random_networks(p in params_strategy()) {
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let bytes = write_image(&net, &cfg);
        let (net2, cfg2) = read_image(&bytes).expect("roundtrip");
        prop_assert_eq!(cfg2, cfg);
        let img = image_for(&p);
        let a = IntRunner::new(&net).run(&img, 4);
        let b = IntRunner::new(&net2).run(&img, 4);
        prop_assert_eq!(&a.logits_per_t, &b.logits_per_t);
    }

    #[test]
    fn all_backends_agree_through_the_shared_driver(p in params_strategy()) {
        // Dense input with a non-zero burn-in: the same `drive` loop runs
        // all three backends, and the two integer datapaths (functional
        // simulator and cycle-level machine) must stay bit-exact.
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 4).expect("compiles");
        let img = image_for(&p);
        let (float_out, ()) =
            drive(&mut FloatRunner::new(&net), EngineInput::Image(&img), 4, 1);
        let (int_out, ()) =
            drive(&mut IntRunner::new(&net), EngineInput::Image(&img), 4, 1);
        let (hw_out, report) = drive(
            &mut SiaMachine::new(program, cfg),
            EngineInput::Image(&img),
            4,
            1,
        );
        prop_assert_eq!(&hw_out.logits_per_t, &int_out.logits_per_t);
        prop_assert_eq!(&hw_out.stats.spikes, &int_out.stats.spikes);
        // the driver fills every backend's stats the same way
        prop_assert_eq!(float_out.stats.images, 1);
        prop_assert_eq!(int_out.stats.images, 1);
        prop_assert_eq!(hw_out.stats.images, 1);
        prop_assert_eq!(float_out.logits_per_t.len(), 4);
        prop_assert!(!report.layers.is_empty());
        // and the public wrappers are pure delegations to the same driver
        let wrapped = IntRunner::new(&net).run_with(&img, 4, 1);
        prop_assert_eq!(&wrapped.logits_per_t, &int_out.logits_per_t);
    }

    #[test]
    fn machine_matches_runner_on_event_streams(p in params_strategy()) {
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions {
            encoding: InputEncoding::EventDriven,
            ..ConvertOptions::default()
        });
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 4).expect("compiles");
        let img = image_for(&p);
        let events = rate_encode(&img, 4, 1.0);
        let hw = SiaMachine::new(program, cfg).run_events(&events, 4, 1);
        let sw = IntRunner::new(&net).run_events(&events, 4, 1);
        prop_assert_eq!(&hw.logits_per_t, &sw.logits_per_t);
        prop_assert_eq!(&hw.stats.spikes, &sw.stats.spikes);
    }

    #[test]
    fn spiking_convs_match_byte_references_on_random_networks(
        p in params_strategy(),
        rate in 0u64..=100,
        seed in any::<u64>(),
    ) {
        // Every spiking conv of the network — stride-2 block convs and
        // 1×1 downsamples included — runs the event-driven scatter on the
        // integer and float datapaths; on a packed plane of the conv's
        // input shape both must equal the byte-wise references exactly,
        // saturating tap order and f32 addition order included.
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions::default());
        let mut scratch = ConvScratch::new();
        let mut state = seed | 1;
        let convs = net.items.iter().flat_map(|item| match item {
            SnnItem::Conv(c) | SnnItem::ConvPsum(c) => vec![c],
            SnnItem::BlockAdd(a) => a.down.iter().collect(),
            _ => Vec::new(),
        });
        for (key, conv) in convs.enumerate() {
            let g = &conv.geom;
            let bytes: Vec<u8> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    u8::from((state >> 33) % 100 < rate)
                })
                .collect();
            let mut plane = SpikePlane::default();
            plane.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &bytes);
            let got = conv_psums_int_plane(conv, &plane, &mut scratch, key).to_vec();
            prop_assert_eq!(got, conv_psums_int(conv, &bytes), "int conv {}", key);
            let got = conv_psums_f32_plane(conv, &plane, &mut scratch, key).to_vec();
            prop_assert_eq!(got, conv_psums_f32(conv, &bytes), "f32 conv {}", key);
        }
    }

    #[test]
    fn converter_invariants_hold(p in params_strategy()) {
        let spec = build_spec(&p);
        let net = convert(&spec, &ConvertOptions::default());
        for item in &net.items {
            match item {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => {
                    // θ is a power of two in range and ν·θ reconstructs s^l
                    prop_assert!(c.theta >= 16 && c.theta <= 4096);
                    prop_assert_eq!(c.theta.count_ones(), 1);
                    prop_assert!((c.nu * f32::from(c.theta) - c.step).abs() < 1e-5);
                    prop_assert_eq!(c.g.len(), c.geom.out_channels);
                    prop_assert_eq!(c.h.len(), c.geom.out_channels);
                }
                SnnItem::ConvPsum(c) => {
                    prop_assert_eq!(c.theta, 0); // psum stages never spike
                }
                SnnItem::BlockAdd(a) => {
                    prop_assert!(a.theta >= 16);
                    prop_assert!((a.nu * f32::from(a.theta) - a.step).abs() < 1e-5);
                    if a.down.is_none() {
                        // identity skip: one spike adds skip_value volts
                        let volts = f32::from(a.skip_add) * a.nu;
                        prop_assert!((volts - a.skip_value).abs() <= a.nu);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Batched evaluation must be bit-for-bit independent of the thread count,
/// on every backend — the machine factory clones program and config into
/// each worker, so no state is shared between threads.
#[test]
fn batch_evaluation_is_deterministic_across_thread_counts() {
    let p = NetParams {
        input_hw: 6,
        base_ch: 2,
        stages: vec![StageKind::Block { downsample: true }, StageKind::Pool],
        steps: vec![0.9, 1.3, 0.6, 1.1, 0.8, 1.6, 0.5, 1.0],
        weight_seed: 0xD1CE,
    };
    let spec = build_spec(&p);
    let net = Arc::new(convert(&spec, &ConvertOptions::default()));
    let cfg = SiaConfig::pynq_z2();
    let program = compile_for(&net, &cfg, 4).expect("compiles");
    let images: Vec<Tensor> = (0..7)
        .map(|i| {
            pseudo_weights(p.input_hw * p.input_hw, 0xBEEF ^ (i as u64))
                .map(|v| v.abs())
                .reshape(vec![1, p.input_hw, p.input_hw])
        })
        .collect();
    let labels: Vec<usize> = (0..7).map(|i| i % 4).collect();
    let set = sia_dataset::LabelledSet::new(images, labels);
    let eval = |threads: usize| {
        BatchEvaluator::new(EvalConfig {
            timesteps: 4,
            burn_in: 1,
            threads,
            encoding: EvalEncoding::Dense,
            exit: sia_snn::ExitPolicy::Fixed,
        })
    };
    let float_1 = eval(1).evaluate(FloatEngineFactory::new(Arc::clone(&net)), &set);
    let float_4 = eval(4).evaluate(FloatEngineFactory::new(Arc::clone(&net)), &set);
    assert_eq!(float_1, float_4);
    let int_1 = eval(1).evaluate(IntEngineFactory::new(Arc::clone(&net)), &set);
    let int_4 = eval(4).evaluate(IntEngineFactory::new(Arc::clone(&net)), &set);
    assert_eq!(int_1, int_4);
    let accel_1 = eval(1).evaluate(SiaEngineFactory::new(program.clone(), cfg.clone()), &set);
    let accel_4 = eval(4).evaluate(SiaEngineFactory::new(program.clone(), cfg.clone()), &set);
    assert_eq!(accel_1, accel_4);
    // the accelerator's datapath is the integer simulator's, bit for bit
    assert_eq!(int_1.predictions, accel_1.predictions);
    assert_eq!(int_1.correct_per_t, accel_1.correct_per_t);
}
