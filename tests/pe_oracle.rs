//! The machine's PE-array pass against the per-PE oracle.
//!
//! `SiaMachine` computes a PL conv layer-timestep with
//! `spiking_core::run_layer_pass`: psums for every output channel from the
//! shared INT8 scatter, kernel-row segments counted word-parallel once per
//! layer-timestep. `run_conv_pass` clocks every `ProcessingElement` of one
//! kernel group through every pixel, row and segment. For random
//! geometries, densities, weights and PE-array sizes the two must agree
//! group by group: psums and all four counters.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sia_accel::spiking_core::{run_conv_pass, run_layer_pass};
use sia_accel::SiaConfig;
use sia_fixed::{QuantScale, Q8_8};
use sia_snn::network::{ConvInput, NeuronMode};
use sia_snn::{ConvScratch, SnnConv, SpikePlane};
use sia_tensor::Conv2dGeom;

/// A spiking conv stage around `geom` and `weights`; only those two feed
/// the PE array.
fn snn_conv(geom: Conv2dGeom, weights: Vec<i8>) -> SnnConv {
    let cout = geom.out_channels;
    SnnConv {
        geom,
        weights,
        q_w: QuantScale::new(7),
        input: ConvInput::Spikes { value: 1.0 },
        g: vec![Q8_8::ONE; cout],
        h: vec![0; cout],
        theta: 64,
        nu: 1.0,
        gf: vec![1.0; cout],
        hf: vec![0.0; cout],
        step: 1.0,
        levels: 8,
        mode: NeuronMode::If,
    }
}

#[derive(Clone, Copy, Debug)]
enum Weights {
    /// Uniform INT8 codes.
    Random,
    /// Runs of +127 then −128 per row: saturates the i16 psum on the
    /// way up, so the fold order decides the result.
    Rails,
}

#[derive(Clone, Debug)]
struct Case {
    geom: Conv2dGeom,
    /// Probability of a set spike bit.
    density: f64,
    weights: Weights,
    /// PE array side (`side × side` PEs).
    pe_side: usize,
    taps_per_cycle: usize,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            prop_oneof![Just(1usize), Just(3), Just(5), Just(7)],
            1usize..=2,
            0usize..=3,
            1usize..=10,
            1usize..=40,
        ),
        (any::<bool>(), 0usize..=12, 1usize..=6),
        prop_oneof![Just(0.0f64), Just(0.05), Just(0.3), Just(0.8), Just(1.0)],
        prop_oneof![Just(Weights::Random), Just(Weights::Rails)],
        prop_oneof![Just(8usize), Just(4), Just(2)],
        1usize..=3,
        any::<u64>(),
    )
        .prop_map(
            |(
                (kernel, stride, pad_pick, in_channels, out_channels),
                (wide, w_pick, h_pick),
                density,
                weights,
                pe_side,
                taps_per_cycle,
                seed,
            )| {
                // padding 0 ..= K/2; widths either within one word or past it
                let padding = pad_pick % (kernel / 2 + 1);
                let in_w = if wide {
                    65 + w_pick * 4
                } else {
                    kernel + w_pick
                };
                Case {
                    geom: Conv2dGeom {
                        in_channels,
                        out_channels,
                        in_h: kernel + h_pick - 1,
                        in_w,
                        kernel,
                        stride,
                        padding,
                    },
                    density,
                    weights,
                    pe_side,
                    taps_per_cycle,
                    seed,
                }
            },
        )
}

fn weights_for(g: &Conv2dGeom, kind: Weights, rng: &mut TestRng) -> Vec<i8> {
    let n = g.weight_count();
    match kind {
        Weights::Random => (0..n).map(|_| rng.next_u64() as i8).collect(),
        Weights::Rails => {
            let per_co = n / g.out_channels;
            (0..n)
                .map(|i| {
                    if i % per_co < per_co * 3 / 4 {
                        127
                    } else {
                        -128
                    }
                })
                .collect()
        }
    }
}

fn spikes_for(g: &Conv2dGeom, density: f64, rng: &mut TestRng) -> Vec<u8> {
    (0..g.in_channels * g.in_h * g.in_w)
        .map(|_| u8::from(rng.unit_f64() < density))
        .collect()
}

/// Runs every kernel group of the case through both paths.
fn check_case(c: &Case) -> Result<(), TestCaseError> {
    let mut rng = TestRng::seed_from_u64(c.seed);
    let g = c.geom;
    let conv = snn_conv(g, weights_for(&g, c.weights, &mut rng));
    let spikes = spikes_for(&g, c.density, &mut rng);
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &spikes);
    let cfg = SiaConfig {
        pe_rows: c.pe_side,
        pe_cols: c.pe_side,
        taps_per_cycle: c.taps_per_cycle,
        ..SiaConfig::pynq_z2()
    };
    let mut scratch = ConvScratch::new();
    let pass = run_layer_pass(&conv, &plane, &cfg, &mut scratch, 0);
    let pe = cfg.pe_count();
    for start in (0..g.out_channels).step_by(pe) {
        let size = (g.out_channels - start).min(pe);
        let want = run_conv_pass(&g, &conv.weights, start, size, &spikes, &cfg);
        let (psums, stats) = pass.group(start, size);
        prop_assert_eq!(psums, &want.psums[..], "psums of group {}", start);
        prop_assert_eq!(stats.cycles, want.cycles, "cycles of group {}", start);
        prop_assert_eq!(
            stats.active_pe_cycles,
            want.active_pe_cycles,
            "active PE cycles of group {}",
            start
        );
        prop_assert_eq!(
            stats.processed_segments,
            want.processed_segments,
            "processed segments of group {}",
            start
        );
        prop_assert_eq!(
            stats.skipped_segments,
            want.skipped_segments,
            "skipped segments of group {}",
            start
        );
    }
    // nothing in the scratch's tap counters: PL stages report PE segments
    prop_assert_eq!(scratch.take_taps(), (0, 0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn layer_pass_matches_pe_oracle_for_every_group(c in case_strategy()) {
        check_case(&c)?;
    }
}

/// Dense input against all-(+127) then all-(−128) kernels: every interior
/// psum pins at `i16::MAX` before the negative taps pull it back down, so
/// only the PE's `(ci, ky, kx)` fold order gives the oracle's value.
#[test]
fn saturating_rails_fold_in_pe_order() {
    let g = Conv2dGeom {
        in_channels: 8,
        out_channels: 3,
        in_h: 9,
        in_w: 9,
        kernel: 7,
        stride: 1,
        padding: 3,
    };
    let case = Case {
        geom: g,
        density: 1.0,
        weights: Weights::Rails,
        pe_side: 8,
        taps_per_cycle: 3,
        seed: 1,
    };
    check_case(&case).unwrap();
    let conv = snn_conv(
        g,
        weights_for(&g, Weights::Rails, &mut TestRng::seed_from_u64(1)),
    );
    let want = run_conv_pass(
        &g,
        &conv.weights,
        0,
        3,
        &vec![1; 8 * 81],
        &SiaConfig::pynq_z2(),
    );
    // 392 taps: 294 × 127 saturates, then 98 × −128 = −12544 off the rail
    assert_eq!(want.psums[4 * 9 + 4], i16::MAX - 12544);
}
