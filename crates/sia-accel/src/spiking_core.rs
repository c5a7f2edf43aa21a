//! The 8×8 spiking core: kernel-parallel, event-driven convolution.
//!
//! Mapping (§III-A + §III-D): the weight memory holds "up to 64 kernels",
//! one per PE. The array walks output pixels; at each pixel the input spike
//! window is broadcast to every PE, which accumulates its own kernel's
//! weights. A kernel row is consumed in segments of `taps_per_cycle`
//! (3 muxes ⇒ 3 taps per cycle, so a 3×3 row costs one cycle); segments
//! whose spike taps are all zero are **skipped without spending a cycle** —
//! the event-driven saving that lets every equal-MAC conv layer of Table I
//! finish in ≈ 0.9 ms instead of the ≈ 2 ms a dense schedule would need.
//!
//! Two implementations of that schedule live here:
//!
//! * [`run_layer_pass`] — what the machine executes. The psums of all
//!   `C_out` channels come from one call to the shared word-parallel INT8
//!   scatter of [`sia_snn::sparse`]; each PE folds its saturating adds in
//!   `(ci, ky, kx)` order and so does the kernel for every output, so the
//!   PE-array psums are the kernel's psums bit for bit. The segment counts
//!   depend only on the input plane and the geometry, so they are counted
//!   once per layer-timestep, word-parallel, and every
//!   kernel group derives its cycle figures from them
//!   ([`LayerPass::group`]).
//! * [`run_conv_pass`] — the per-PE reference oracle: it walks every
//!   pixel, row and segment, gathers the segment's spike bits and clocks
//!   each [`ProcessingElement`] of the group. Tests, the table and
//!   ablation binaries, and the kernel-reconfiguration example use it; the
//!   oracle proptest pins [`run_layer_pass`] to it group by group.

use crate::config::SiaConfig;
use crate::pe::ProcessingElement;
use sia_snn::network::SnnConv;
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{conv_psums_int_scatter, ConvScratch};
use sia_tensor::Conv2dGeom;

/// Result of one convolution pass (one kernel group over all output pixels,
/// one timestep).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvPassOutput {
    /// Partial sums, `[group_size, OH, OW]` row-major.
    pub psums: Vec<i16>,
    /// Clock cycles spent by the spiking core.
    pub cycles: u64,
    /// Σ over cycles of active PEs (for utilisation and energy accounting).
    pub active_pe_cycles: u64,
    /// Kernel-row segments skipped by the event-driven logic.
    pub skipped_segments: u64,
    /// Kernel-row segments processed.
    pub processed_segments: u64,
}

/// Cycle accounting of one kernel-group pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConvPassStats {
    /// Clock cycles spent by the spiking core.
    pub cycles: u64,
    /// Σ over cycles of active PEs.
    pub active_pe_cycles: u64,
    /// Kernel-row segments skipped by the event-driven logic.
    pub skipped_segments: u64,
    /// Kernel-row segments processed.
    pub processed_segments: u64,
}

/// Kernel-row segments one pass over an input plane processes and skips.
/// Every kernel group of a layer scans the same segments, so one count
/// serves all of them.
#[derive(Clone, Copy, Debug)]
struct SegmentCounts {
    /// Segments with at least one set spike tap (one cycle each).
    processed: u64,
    /// Segments whose taps are all zero, padding included (no cycle).
    skipped: u64,
}

/// One layer-timestep of the PE array: the psums of every output channel
/// and the segment counts every kernel group shares.
#[derive(Clone, Copy, Debug)]
pub struct LayerPass<'a> {
    /// Partial sums, `[C_out, OH, OW]` row-major.
    psums: &'a [i16],
    /// Segment counts of one kernel-group pass.
    segments: SegmentCounts,
    /// Output pixels per channel (`OH · OW`).
    pixels: usize,
}

impl LayerPass<'_> {
    /// Psums (`[size, OH, OW]`) and cycle accounting of the kernel group
    /// `start .. start + size` — what [`run_conv_pass`] returns for it.
    ///
    /// # Panics
    ///
    /// Panics if the group range exceeds `C_out`.
    #[must_use]
    pub fn group(&self, start: usize, size: usize) -> (&[i16], ConvPassStats) {
        let SegmentCounts { processed, skipped } = self.segments;
        let stats = ConvPassStats {
            // one cycle per processed segment + one handoff per pixel
            cycles: processed + self.pixels as u64,
            active_pe_cycles: processed * size as u64,
            skipped_segments: skipped,
            processed_segments: processed,
        };
        let psums = &self.psums[start * self.pixels..(start + size) * self.pixels];
        (psums, stats)
    }
}

/// Runs one timestep of a spiking convolution on the PE array for all
/// output channels of `conv`: psums from the shared INT8 scatter (`key`
/// names the layer in the scratch's transposed-weight cache), segment
/// counts from `count_segments`.
///
/// The scatter entry used here does no tap accounting, so `scratch` may be
/// shared with convolutions whose kernel taps are reported: a PL stage
/// reports PE segments only.
///
/// # Panics
///
/// Panics if the plane shape mismatches `conv`'s input geometry.
pub fn run_layer_pass<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    config: &SiaConfig,
    scratch: &'a mut ConvScratch,
    key: usize,
) -> LayerPass<'a> {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let segments = count_segments(g, plane, config.taps_per_cycle);
    LayerPass {
        psums: conv_psums_int_scatter(conv, plane, scratch, key),
        segments,
        pixels: oh * ow,
    }
}

/// Counts the kernel-row segments one PE-array pass over `plane`
/// processes and skips, word-parallel (once per layer-timestep).
///
/// Output pixel `(oy, ox)` reads segment `(ky, kx0)` of channel `ci` from
/// input row `iy = oy·s + ky − p`, columns `ox·s + kx0 − p ..` plus
/// `seg` taps. For one input row and segment, OR-ing the `seg` shifted
/// copies of the packed row gives a word whose bit `q` says whether the
/// segment starting at padded column `q` holds a spike; masking the bits
/// output pixels sample (`q = ox·s`) and popcounting counts that row's
/// processed segments for every output column at once. Each input row is
/// read by a fixed number of `(oy, ky)` pairs, which multiplies its count;
/// rows above or below the plane are padding and always skipped.
///
/// # Panics
///
/// Panics if the plane shape mismatches `geom`'s input.
fn count_segments(geom: &Conv2dGeom, plane: &SpikePlane, taps_per_cycle: usize) -> SegmentCounts {
    assert!(
        plane.channels() == geom.in_channels
            && plane.height() == geom.in_h
            && plane.width() == geom.in_w,
        "spike plane shape mismatches conv geometry"
    );
    let (oh, ow) = geom.out_hw();
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let total = (oh * ow * geom.in_channels * k * k.div_ceil(taps_per_cycle)) as u64;
    // sampled padded columns q = ox·s span this many words (ow ≥ 1)
    let words = (s * (ow - 1) + 1).div_ceil(64);
    let mut processed = 0u64;
    for iy in 0..geom.in_h {
        // (oy, ky) pairs whose kernel row lands on input row iy
        let t = iy + p;
        let uses = (0..k)
            .filter(|&ky| t >= ky && (t - ky) % s == 0 && (t - ky) / s < oh)
            .count() as u64;
        if uses == 0 {
            continue;
        }
        for j in 0..words {
            let sample = sample_word(j, s, ow);
            let lo = (64 * j) as isize - p as isize;
            let mut hits = 0u64;
            for ci in 0..geom.in_channels {
                let row = plane.row(ci, iy);
                for kx0 in (0..k).step_by(taps_per_cycle) {
                    let seg = taps_per_cycle.min(k - kx0);
                    let occupied = (kx0..kx0 + seg)
                        .fold(0u64, |acc, kx| acc | row_window(row, lo + kx as isize));
                    hits += u64::from((occupied & sample).count_ones());
                }
            }
            processed += uses * hits;
        }
    }
    SegmentCounts {
        processed,
        skipped: total - processed,
    }
}

/// Bits `lo .. lo + 64` of a packed row, LSB = column `lo`; columns outside
/// the row read 0 (the padding semantics of [`SpikePlane::extract_bits`]).
fn row_window(row: &[u64], lo: isize) -> u64 {
    let word = |i: isize| {
        usize::try_from(i)
            .ok()
            .and_then(|i| row.get(i))
            .copied()
            .unwrap_or(0)
    };
    let (wi, bit) = (lo.div_euclid(64), lo.rem_euclid(64) as u32);
    if bit == 0 {
        word(wi)
    } else {
        // 1 ≤ bit ≤ 63: neither shift reaches the word width
        (word(wi) >> bit) | (word(wi + 1) << (64 - bit))
    }
}

/// Word `j` of the sample mask: bit `q − 64j` set for every sampled padded
/// column `q = ox·s`, `ox < ow`.
fn sample_word(j: usize, s: usize, ow: usize) -> u64 {
    let base = 64 * j;
    let first = base.div_ceil(s);
    let end = ow.min((base + 64).div_ceil(s));
    (first..end).fold(0u64, |m, ox| m | 1u64 << (ox * s - base))
}

/// Runs one timestep of a spiking convolution for output channels
/// `group_start .. group_start + group_size` on the per-PE model — the
/// reference oracle of [`run_layer_pass`].
///
/// `weights` is the full layer tensor `[C_out, C_in, K, K]` (INT8 codes);
/// `spikes` the input bitmap `[C_in, H, W]`. Each segment's spike taps are
/// gathered in one packed read ([`SpikePlane::extract_bits`], out-of-bounds
/// taps read 0 — the padding semantics); a non-zero segment costs one
/// cycle in which every PE of the group accumulates its own weights.
///
/// # Panics
///
/// Panics if the group exceeds the PE count, the group range exceeds
/// `C_out`, or buffer sizes disagree with `geom`.
#[must_use]
pub fn run_conv_pass(
    geom: &Conv2dGeom,
    weights: &[i8],
    group_start: usize,
    group_size: usize,
    spikes: &[u8],
    config: &SiaConfig,
) -> ConvPassOutput {
    assert!(
        group_size <= config.pe_count(),
        "kernel group exceeds PE array"
    );
    assert!(
        group_start + group_size <= geom.out_channels,
        "kernel group out of range"
    );
    assert_eq!(
        weights.len(),
        geom.weight_count(),
        "weight buffer size mismatch"
    );
    assert_eq!(
        spikes.len(),
        geom.in_channels * geom.in_h * geom.in_w,
        "spike buffer size mismatch"
    );
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(geom.in_channels, geom.in_h, geom.in_w, spikes);
    let (oh, ow) = geom.out_hw();
    let k = geom.kernel;
    let taps = config.taps_per_cycle;
    let mut pes = vec![ProcessingElement::new(); group_size];
    let mut out = ConvPassOutput {
        psums: vec![0; group_size * oh * ow],
        cycles: 0,
        active_pe_cycles: 0,
        skipped_segments: 0,
        processed_segments: 0,
    };
    for oy in 0..oh {
        for ox in 0..ow {
            for ci in 0..geom.in_channels {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    let mut kx = 0usize;
                    while kx < k {
                        let seg = (k - kx).min(taps);
                        let ix0 = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        // all `seg` spike taps in one packed read
                        let bits = plane.extract_bits(ci, iy, ix0, seg);
                        if bits != 0 {
                            // one cycle: every PE in the group accumulates
                            out.cycles += 1;
                            out.active_pe_cycles += group_size as u64;
                            out.processed_segments += 1;
                            let seg_spikes: Vec<bool> =
                                (0..seg).map(|dx| bits >> dx & 1 != 0).collect();
                            for (p, pe) in pes.iter_mut().enumerate() {
                                let co = group_start + p;
                                let row = ((co * geom.in_channels + ci) * k + ky) * k;
                                pe.accumulate_row(&weights[row + kx..row + kx + seg], &seg_spikes);
                            }
                        } else {
                            out.skipped_segments += 1;
                        }
                        kx += seg;
                    }
                }
            }
            // final handoff cycle to the aggregation core
            out.cycles += 1;
            for (p, pe) in pes.iter_mut().enumerate() {
                out.psums[(p * oh + oy) * ow + ox] = pe.take_psum();
            }
        }
    }
    out
}

/// Cycle cost of one timestep of a fully-connected pass (the PE array in FC
/// mode, §III-A "the analysis can be extended to … fully connected
/// layers"): each PE owns one output neuron, inputs stream in segments of
/// `taps_per_cycle` with the same event-driven skip.
#[must_use]
pub fn fc_pass_cycles(
    in_features: usize,
    out_features: usize,
    active_inputs: usize,
    config: &SiaConfig,
) -> u64 {
    let groups = out_features.div_ceil(config.pe_count());
    let segments = in_features.div_ceil(config.taps_per_cycle);
    // occupied segment probability from the active-input density
    let density = active_inputs as f64 / in_features.max(1) as f64;
    let occupied =
        (segments as f64 * (1.0 - (1.0 - density).powi(config.taps_per_cycle as i32))).ceil();
    groups as u64 * (occupied as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(cin: usize, cout: usize, hw: usize, k: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: k,
            stride: 1,
            padding: k / 2,
        }
    }

    /// Reference psums (the functional simulator's tap order).
    fn reference_psums(
        g: &Conv2dGeom,
        weights: &[i8],
        group: (usize, usize),
        spikes: &[u8],
    ) -> Vec<i16> {
        let (oh, ow) = g.out_hw();
        let mut out = vec![0i16; group.1 * oh * ow];
        for p in 0..group.1 {
            let co = group.0 + p;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i16;
                    for ci in 0..g.in_channels {
                        for ky in 0..g.kernel {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            if iy < 0 || iy >= g.in_h as isize {
                                continue;
                            }
                            for kx in 0..g.kernel {
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                if ix < 0 || ix >= g.in_w as isize {
                                    continue;
                                }
                                if spikes[(ci * g.in_h + iy as usize) * g.in_w + ix as usize] != 0 {
                                    let widx =
                                        ((co * g.in_channels + ci) * g.kernel + ky) * g.kernel + kx;
                                    acc = sia_fixed::sat::acc_weight(acc, weights[widx]);
                                }
                            }
                        }
                    }
                    out[(p * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    fn pattern_weights(n: usize) -> Vec<i8> {
        (0..n)
            .map(|i| ((i * 37 % 255) as i32 - 127) as i8)
            .collect()
    }

    fn pattern_spikes(n: usize, rate_mod: usize) -> Vec<u8> {
        (0..n).map(|i| u8::from(i % rate_mod == 0)).collect()
    }

    #[test]
    fn psums_match_reference_3x3() {
        let g = geom(4, 6, 6, 3);
        let w = pattern_weights(g.weight_count());
        let s = pattern_spikes(4 * 36, 3);
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 0, 6, &s, &cfg);
        assert_eq!(out.psums, reference_psums(&g, &w, (0, 6), &s));
    }

    #[test]
    fn psums_match_reference_5x5_group_offset() {
        let g = geom(2, 8, 8, 5);
        let w = pattern_weights(g.weight_count());
        let s = pattern_spikes(2 * 64, 4);
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 3, 5, &s, &cfg);
        assert_eq!(out.psums, reference_psums(&g, &w, (3, 5), &s));
    }

    #[test]
    fn silent_input_costs_only_handoff_cycles() {
        let g = geom(8, 4, 4, 3);
        let w = pattern_weights(g.weight_count());
        let s = vec![0u8; 8 * 16];
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 0, 4, &s, &cfg);
        let (oh, ow) = g.out_hw();
        assert_eq!(out.cycles, (oh * ow) as u64); // one handoff per pixel
        assert_eq!(out.processed_segments, 0);
        assert!(out.skipped_segments > 0);
        assert!(out.psums.iter().all(|&p| p == 0));
    }

    #[test]
    fn dense_input_costs_full_schedule() {
        let g = geom(2, 4, 4, 3);
        let w = pattern_weights(g.weight_count());
        let s = vec![1u8; 2 * 16];
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 0, 4, &s, &cfg);
        // interior pixels: C_in·K rows, 1 cycle each (K=3 fits the 3 muxes),
        // +1 handoff. Border pixels may skip padded rows.
        let (oh, ow) = g.out_hw();
        let max = (oh * ow) as u64 * (2 * 3 + 1);
        assert!(out.cycles <= max);
        assert!(out.cycles > max / 2);
        assert_eq!(out.skipped_segments + out.processed_segments, 16 * 2 * 3);
    }

    #[test]
    fn event_driven_skip_reduces_cycles_proportionally() {
        let g = geom(16, 8, 8, 3);
        let w = pattern_weights(g.weight_count());
        let cfg = SiaConfig::pynq_z2();
        let sparse = pattern_spikes(16 * 64, 8);
        let dense = pattern_spikes(16 * 64, 2);
        let a = run_conv_pass(&g, &w, 0, 8, &sparse, &cfg);
        let b = run_conv_pass(&g, &w, 0, 8, &dense, &cfg);
        assert!(a.cycles < b.cycles, "{} !< {}", a.cycles, b.cycles);
    }

    #[test]
    fn wide_kernels_use_multiple_segments() {
        // K=5 ⇒ rows split into 3+2 tap segments: an all-ones input costs
        // 2 cycles per row.
        let g = geom(1, 1, 8, 5);
        let w = pattern_weights(g.weight_count());
        let s = vec![1u8; 64];
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 0, 1, &s, &cfg);
        // interior pixel: 5 rows × 2 segments = 10 cycles + 1 handoff
        // total bounded by pixels × 11
        assert!(out.cycles <= 64 * 11);
        assert_eq!(out.psums, reference_psums(&g, &w, (0, 1), &s));
    }

    #[test]
    fn active_pe_cycles_track_group_size() {
        let g = geom(2, 4, 4, 3);
        let w = pattern_weights(g.weight_count());
        let s = vec![1u8; 2 * 16];
        let cfg = SiaConfig::pynq_z2();
        let out = run_conv_pass(&g, &w, 0, 4, &s, &cfg);
        assert_eq!(out.active_pe_cycles, out.processed_segments * 4);
    }

    #[test]
    #[should_panic(expected = "exceeds PE array")]
    fn oversized_group_rejected() {
        let g = geom(1, 128, 4, 3);
        let w = pattern_weights(g.weight_count());
        let s = vec![0u8; 16];
        let _ = run_conv_pass(&g, &w, 0, 128, &s, &SiaConfig::pynq_z2());
    }

    #[test]
    fn row_window_reads_outside_columns_as_zero() {
        let row = [u64::MAX, 0b101];
        assert_eq!(row_window(&row, 0), u64::MAX);
        assert_eq!(row_window(&row, -3), u64::MAX << 3);
        assert_eq!(row_window(&row, 62), 0b10111); // straddles both words
        assert_eq!(row_window(&row, 64), 0b101);
        assert_eq!(row_window(&row, -64), 0);
        assert_eq!(row_window(&row, 128), 0);
    }

    #[test]
    fn sample_word_marks_strided_output_columns() {
        assert_eq!(sample_word(0, 1, 5), 0b11111);
        assert_eq!(sample_word(0, 2, 3), 0b10101);
        // stride 2 over 40 outputs: columns 0 ..= 78 step 2, 8 of them
        // in the second word
        assert_eq!(sample_word(1, 2, 40), 0x5555);
        assert_eq!(sample_word(2, 1, 100), 0);
    }

    #[test]
    fn fc_cycles_scale_with_groups_and_density() {
        let cfg = SiaConfig::pynq_z2();
        let sparse = fc_pass_cycles(512, 10, 50, &cfg);
        let dense = fc_pass_cycles(512, 10, 512, &cfg);
        assert!(sparse < dense);
        // 10 outputs fit one group; dense: 171 segments + 1
        assert_eq!(dense, 172);
        let two_groups = fc_pass_cycles(512, 100, 512, &cfg);
        assert_eq!(two_groups, 2 * 172);
    }
}
