//! Event-driven (scatter) convolution kernels over bit-packed spike planes.
//!
//! The dense reference walks every `(co, oy, ox, ci, ky, kx)` tap whether
//! the input spiked or not, so its cost is independent of sparsity. The
//! scatter path iterates only the **set** spike bits and adds each spike's
//! weight taps into a channels-last psum buffer — the software analogue of
//! the SIA's event-driven PE accumulation (paper Fig. 3), where a silent
//! input costs nothing.
//!
//! ## Row runs
//!
//! The production integer kernel mirrors the paper's PE, which takes a
//! whole kernel row per clock (§III-A, Fig. 3): for each spike and each
//! valid kernel row it does **one** contiguous add of a precomputed weight
//! *run* into a column-padded channels-last psum plane, instead of `K`
//! separate `C_out`-wide per-tap adds.
//!
//! * **Weight runs.** With `m = ⌈K / stride⌉`, a spike at input column `x`
//!   has residue `r = (x + pad) mod stride` and reaches output columns
//!   `q − (m−1) ..= q`, `q = (x + pad) / stride`, through the taps
//!   `kx = r + (m−1−t)·stride` (slot `t = 0..m`, *descending* `kx`, so the
//!   output columns ascend). For each `(ci, ky, r)` the run stores those
//!   `m` slots of `C_out` weights back to back, a slot whose `kx ≥ K`
//!   holding zeros, and the run is zero-extended to a whole number of
//!   [`LANES`] blocks (C_out = 8, K = 3, stride 1: 24 weights in 32 lanes).
//!   A spike with `r ≥ K` has no taps and is skipped.
//! * **Psum plane.** Channels-last `[OH, PW, C_out]` with `m−1` padding
//!   columns on the left and `m` on the right (`PW = OW + 2m − 1`), plus
//!   one run of slack at the end. Output column `ox` lives at padded
//!   column `ox + m − 1`, so the spike's run starts at padded column `q`
//!   for every kernel row: slots for `ox < 0` or `ox ≥ OW` land in that
//!   row's padding columns, and the zero-extension lanes spill at most
//!   `LANES − 1` lanes further.
//! * **Kernel rows.** The valid `(ky, oy)` pairs depend only on the input
//!   row, so they are computed once per row (a `j` range with
//!   `ky = ry + j·stride`, `oy = qy − j`), never per spike; a row with no
//!   valid output row skips its spikes entirely.
//! * **Output.** One transpose to canonical `[C_out, OH, OW]`, which drops
//!   the padding columns.
//!
//! ## Bit-exactness
//!
//! Saturating 16-bit accumulation makes the addition order observable, so
//! every real accumulator must receive its contributions in exactly the
//! reference order `(ci asc, ky asc, kx asc)`:
//!
//! * `ci` is the scatter loop's outermost dimension — same order;
//! * for a fixed output row `oy`, the contributing input row is
//!   `iy = oy·stride + ky − pad`, strictly increasing in `ky`, so visiting
//!   input rows ascending visits `ky` ascending, and one input row feeds a
//!   given `oy` through at most one `ky`;
//! * within one input row, set bits are visited with `x` ascending; for a
//!   fixed output column `ox` the tap is `kx = x − ox·stride + pad`,
//!   strictly increasing in `x`, so `kx` is visited ascending, and one
//!   spike's run holds at most one slot per output column.
//!
//! The run's extra lanes change nothing: a zero slot or zero-extension
//! lane adds `0`, and `p.saturating_add(0) == p` for every `p`, rails
//! included, so wherever such a lane lands — a padding column, the slack,
//! or a real accumulator of a later column or row — that accumulator's
//! value and the order of its real taps are untouched. Real weights only
//! land in a padding column when their output column is out of range, and
//! padding columns are never read. The scalar [`scatter`] (per-tap adds
//! over `[(ci, ky, kx), co]`-transposed weights) is kept as the
//! iteration-order oracle; the equivalence with it and with the byte
//! reference is enforced bit-for-bit by proptests
//! (`crates/snn/tests/sparse_dense.rs`).
//!
//! ## Word-level parallelism
//!
//! A run is a whole number of [`LANES`]-wide blocks, so every add is
//! blocked ([`add_weight_lanes`]) and none falls to a scalar tail, whatever
//! `C_out`: narrow layers fill their lanes with adjacent output columns
//! (`C_out = 8`: two blocks per kernel row instead of three 8-lane scalar
//! tails). Each lane is a *different* accumulator, so blocking never
//! reorders any one accumulator's additions, and the autovectorizer lifts
//! the block into saturating i16 SIMD adds (`PADDSW`-class instructions —
//! the software image of one PE-array row accumulating a kernel row of
//! output channels per clock).
//!
//! ## One kernel
//!
//! Every spiking convolution on every backend runs the scatter: like the
//! SIA's PE array (paper §III-A), a silent input costs nothing, so there
//! is no density at which a second, dense kernel has to take over. The
//! dense loops left in this module ([`conv_psums_int_gather_ref`] and the
//! byte references in [`crate::runner`]) are test and bench oracles.

use crate::network::SnnConv;
use crate::scratch::scratch_resize;
use crate::spikeplane::SpikePlane;
use sia_fixed::sat::acc_weight;
use sia_tensor::tile::zip_blocks_mut;
use sia_tensor::Conv2dGeom;

/// i16 accumulator lanes per unrolled scatter block: one 256-bit
/// saturating-add's worth on AVX2-class hosts; narrower targets split a
/// block into two 128-bit ops, wider ones fuse adjacent blocks.
pub const LANES: usize = 16;

/// Reusable per-engine convolution scratch: psum buffers (canonical and
/// channels-last), single-entry weight-layout caches keyed by layer, and
/// the event-driven tap accounting surfaced through `Engine::stage_taps`.
#[derive(Clone, Debug, Default)]
pub struct ConvScratch {
    psum_i: Vec<i16>,
    psum_cl_i: Vec<i16>,
    psum_f: Vec<f32>,
    psum_cl_f: Vec<f32>,
    psum_d32: Vec<i32>,
    psum_df: Vec<f32>,
    runs_i: Vec<i8>,
    runs_i_key: Option<usize>,
    wt_i: Vec<i8>,
    wt_i_key: Option<usize>,
    wt_f: Vec<f32>,
    wt_f_key: Option<usize>,
    /// Weight taps the scatter accumulated since the last
    /// [`ConvScratch::take_taps`] (input-centric: one spike touches `K²`
    /// taps).
    pub taps_processed: u64,
    /// Weight taps skipped by event-driven iteration (silent inputs ×
    /// `K²`).
    pub taps_skipped: u64,
}

impl ConvScratch {
    /// Empty scratch (buffers grow to their high-water mark on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns and resets the tap counters accumulated since the last call.
    pub fn take_taps(&mut self) -> (u64, u64) {
        let t = (self.taps_processed, self.taps_skipped);
        self.taps_processed = 0;
        self.taps_skipped = 0;
        t
    }
}

fn account_taps(scr: &mut ConvScratch, g: &Conv2dGeom, spikes: u64) {
    let k2 = (g.kernel * g.kernel) as u64;
    let neurons = (g.in_channels * g.in_h * g.in_w) as u64;
    scr.taps_processed += spikes * k2;
    scr.taps_skipped += (neurons - spikes) * k2;
}

/// Row-run shape of a conv geometry (see the module docs).
#[derive(Clone, Copy, Debug)]
struct RunGeom {
    /// Output columns one run spans: `⌈K / stride⌉`.
    m: usize,
    /// Column residues that carry taps: `min(stride, K)`.
    residues: usize,
    /// Lanes per run: `m·C_out` rounded up to whole [`LANES`] blocks.
    run_len: usize,
    /// Padded psum-plane width: `(m − 1) + OW + m` columns.
    pw: usize,
}

impl RunGeom {
    fn new(g: &Conv2dGeom) -> Self {
        let m = g.kernel.div_ceil(g.stride);
        Self {
            m,
            residues: g.stride.min(g.kernel),
            run_len: (m * g.out_channels).next_multiple_of(LANES),
            pw: g.out_hw().1 + 2 * m - 1,
        }
    }
}

/// Row-run weight layout `[(ci, ky, r), slot, co]`, each run zero-extended
/// to `run_len` lanes, built into `runs` (scratch-tracked). Slot `t` of
/// residue `r` holds tap `kx = r + (m−1−t)·stride`, or zeros if `kx ≥ K`.
fn build_runs_int(conv: &SnnConv, rg: &RunGeom, runs: &mut Vec<i8>) {
    let g = &conv.geom;
    let (cout, k) = (g.out_channels, g.kernel);
    scratch_resize(runs, g.in_channels * k * rg.residues * rg.run_len, 0);
    let mut dst = runs.chunks_exact_mut(rg.run_len);
    for ci in 0..g.in_channels {
        for ky in 0..k {
            for r in 0..rg.residues {
                let run = dst.next().expect("one run per (ci, ky, r)");
                for (t, slot) in run.chunks_exact_mut(cout).take(rg.m).enumerate() {
                    let kx = r + (rg.m - 1 - t) * g.stride;
                    if kx < k {
                        for (co, w) in slot.iter_mut().enumerate() {
                            *w = conv.weight(co, ci, ky, kx);
                        }
                    }
                }
            }
        }
    }
}

/// Weights transposed to `[(ci, ky, kx), co]` for the scalar oracle
/// scatter, built into `wt` (scratch-tracked).
fn build_wt_int(conv: &SnnConv, wt: &mut Vec<i8>) {
    let g = &conv.geom;
    let (cout, cin, k) = (g.out_channels, g.in_channels, g.kernel);
    scratch_resize(wt, cout * cin * k * k, 0);
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    wt[((ci * k + ky) * k + kx) * cout + co] = conv.weight(co, ci, ky, kx);
                }
            }
        }
    }
}

fn build_wt_f32(conv: &SnnConv, wt: &mut Vec<f32>) {
    let g = &conv.geom;
    let (cout, cin, k) = (g.out_channels, g.in_channels, g.kernel);
    scratch_resize(wt, cout * cin * k * k, 0.0);
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    wt[((ci * k + ky) * k + kx) * cout + co] =
                        f32::from(conv.weight(co, ci, ky, kx));
                }
            }
        }
    }
}

/// Scatter core, generic over the accumulator: for every set spike bit,
/// visit its valid `(ky, kx)` taps and fold the transposed weight row into
/// the channels-last psum row (see the module docs for the order proof).
fn scatter<W: Copy, A: Copy>(
    g: &Conv2dGeom,
    wt: &[W],
    plane: &SpikePlane,
    psum_cl: &mut [A],
    acc: impl Fn(A, W) -> A,
) {
    let (oh, ow) = g.out_hw();
    let (k, cout) = (g.kernel, g.out_channels);
    let pad = g.padding as isize;
    let stride = g.stride as isize;
    for ci in 0..g.in_channels {
        for iy in 0..g.in_h {
            plane.for_each_set_in_row(ci, iy, |x| {
                for ky in 0..k {
                    // oy·stride = iy + pad − ky, decreasing in ky: once
                    // negative it stays negative.
                    let oy_num = iy as isize + pad - ky as isize;
                    if oy_num < 0 {
                        break;
                    }
                    if oy_num % stride != 0 {
                        continue;
                    }
                    let oy = (oy_num / stride) as usize;
                    if oy >= oh {
                        continue;
                    }
                    for kx in 0..k {
                        let ox_num = x as isize + pad - kx as isize;
                        if ox_num < 0 {
                            break;
                        }
                        if ox_num % stride != 0 {
                            continue;
                        }
                        let ox = (ox_num / stride) as usize;
                        if ox >= ow {
                            continue;
                        }
                        let wrow = &wt[((ci * k + ky) * k + kx) * cout..][..cout];
                        let prow = &mut psum_cl[(oy * ow + ox) * cout..][..cout];
                        for (p, &w) in prow.iter_mut().zip(wrow) {
                            *p = acc(*p, w);
                        }
                    }
                }
            });
        }
    }
}

/// One weight run, word-parallel: folds it into the psum plane in
/// [`LANES`]-wide blocks. Every lane is a distinct accumulator, so blocking
/// cannot reorder any single accumulator's additions. Runs are whole
/// blocks, so the scalar tail (the identical `acc_weight` op) never runs
/// on them.
#[inline]
fn add_weight_lanes(prow: &mut [i16], wrow: &[i8]) {
    zip_blocks_mut::<LANES, _, _>(
        prow,
        wrow,
        |p, w| {
            for l in 0..LANES {
                p[l] = p[l].saturating_add(i16::from(w[l]));
            }
        },
        |p, &w| *p = acc_weight(*p, w),
    );
}

/// Row-run integer scatter: for every set spike bit and every valid kernel
/// row, one blocked add of the `(ci, ky, r)` weight run into the padded
/// channels-last psum plane (see the module docs for the layout and the
/// order proof).
fn scatter_int_runs(
    g: &Conv2dGeom,
    rg: &RunGeom,
    runs: &[i8],
    plane: &SpikePlane,
    psum: &mut [i16],
) {
    let oh = g.out_hw().0;
    let (k, s, pad, cout) = (g.kernel, g.stride, g.padding, g.out_channels);
    let RunGeom {
        residues,
        run_len,
        pw,
        ..
    } = *rg;
    for ci in 0..g.in_channels {
        for iy in 0..g.in_h {
            // ky = ry + j·s feeds oy = qy − j: valid for j < ⌈(K − ry)/s⌉,
            // j ≤ qy and qy − j < OH. Ascending j is ascending ky.
            let (qy, ry) = ((iy + pad) / s, (iy + pad) % s);
            if ry >= k {
                continue;
            }
            let j_lo = (qy + 1).saturating_sub(oh);
            let j_hi = (k - ry).div_ceil(s).min(qy + 1);
            if j_lo >= j_hi {
                continue;
            }
            let run_row = (ci * k + ry) * residues;
            plane.for_each_set_in_row(ci, iy, |x| {
                let xp = x + pad;
                // stride 1 (most layers) needs no per-spike division
                let (q, r) = if s == 1 { (xp, 0) } else { (xp / s, xp % s) };
                if r >= k {
                    return;
                }
                for j in j_lo..j_hi {
                    let run = &runs[(run_row + j * s * residues + r) * run_len..][..run_len];
                    let dst = &mut psum[((qy - j) * pw + q) * cout..][..run_len];
                    add_weight_lanes(dst, run);
                }
            });
        }
    }
}

/// Channels-last `[OH, PW, C_out]` → canonical `[C_out, OH, OW]`
/// (value-preserving); output column `ox` sits at column `ox + lpad` of
/// a `pw`-wide row, and the padding columns are dropped.
fn transpose_cl<A: Copy>(
    cl: &[A],
    out: &mut [A],
    cout: usize,
    (oh, ow): (usize, usize),
    pw: usize,
    lpad: usize,
) {
    for oy in 0..oh {
        for ox in 0..ow {
            let src = &cl[(oy * pw + ox + lpad) * cout..][..cout];
            for (co, &v) in src.iter().enumerate() {
                out[(co * oh + oy) * ow + ox] = v;
            }
        }
    }
}

/// Dense gather replicating [`crate::runner::conv_psums_int`] exactly, but
/// reading spikes from the packed plane and writing into scratch.
fn gather_int(conv: &SnnConv, plane: &SpikePlane, out: &mut [i16]) {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    for co in 0..g.out_channels {
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
                            if plane.bit(ci, iy as usize, ix as usize) {
                                acc = acc_weight(acc, conv.weight(co, ci, ky, kx));
                            }
                        }
                    }
                }
                out[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

fn check_plane(g: &Conv2dGeom, plane: &SpikePlane) {
    assert_eq!(
        (plane.channels(), plane.height(), plane.width()),
        (g.in_channels, g.in_h, g.in_w),
        "spike plane shape mismatches conv geometry"
    );
}

/// Direct entry to the row-run scatter: [`conv_psums_int_plane`] without
/// the tap accounting. The SIA machine's PE-array pass calls it (PL stages
/// report PE segments, not taps), as do `sia bench conv` and the
/// proptests. `key` identifies the layer for the single-entry weight-run
/// cache.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_scatter<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    let rg = RunGeom::new(g);
    if scr.runs_i_key != Some(key) {
        build_runs_int(conv, &rg, &mut scr.runs_i);
        scr.runs_i_key = Some(key);
    }
    let (oh, ow) = g.out_hw();
    let ConvScratch {
        psum_i,
        psum_cl_i,
        runs_i,
        ..
    } = scr;
    scratch_resize(psum_cl_i, oh * rg.pw * g.out_channels + rg.run_len, 0);
    scatter_int_runs(g, &rg, runs_i, plane, psum_cl_i);
    scratch_resize(psum_i, g.out_channels * oh * ow, 0);
    transpose_cl(psum_cl_i, psum_i, g.out_channels, (oh, ow), rg.pw, rg.m - 1);
    &scr.psum_i
}

/// Direct entry to the scalar per-tap scatter over `[(ci, ky, kx), co]`
/// weights, kept as the like-for-like speedup reference and
/// iteration-order oracle.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_scatter_scalar<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    if scr.wt_i_key != Some(key) {
        build_wt_int(conv, &mut scr.wt_i);
        scr.wt_i_key = Some(key);
    }
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    let ConvScratch {
        psum_i,
        psum_cl_i,
        wt_i,
        ..
    } = scr;
    scratch_resize(psum_cl_i, n_out, 0);
    scatter(g, wt_i, plane, psum_cl_i, acc_weight);
    scratch_resize(psum_i, n_out, 0);
    transpose_cl(psum_cl_i, psum_i, g.out_channels, (oh, ow), ow, 0);
    &scr.psum_i
}

/// Direct entry to the naive branchy dense gather: a bit-exactness oracle
/// over the packed plane, and the "before" timing reference in
/// `sia bench conv`.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_gather_ref<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    let (oh, ow) = g.out_hw();
    scratch_resize(&mut scr.psum_i, g.out_channels * oh * ow, 0);
    gather_int(conv, plane, &mut scr.psum_i);
    &scr.psum_i
}

/// Integer partial sums from a packed spike plane through the
/// row-run event-driven scatter, bit-exact with
/// [`crate::runner::conv_psums_int`]. Adds the call's taps to the scratch
/// counters: `spikes·K²` processed, `silent·K²` skipped. `key` identifies
/// the layer for the weight-run cache (stable per engine, e.g.
/// `item_index * 2 + is_downsample`).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    account_taps(scr, &conv.geom, plane.count_ones());
    conv_psums_int_scatter(conv, plane, scr, key)
}

/// Float twin of [`conv_psums_int_plane`] through the scalar per-tap
/// scatter (same per-accumulator tap order and tap accounting, `f32`
/// accumulation — addition order preserved, so results match
/// [`crate::runner::conv_psums_f32`] exactly).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_f32_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [f32] {
    let g = &conv.geom;
    check_plane(g, plane);
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    account_taps(scr, g, plane.count_ones());
    if scr.wt_f_key != Some(key) {
        build_wt_f32(conv, &mut scr.wt_f);
        scr.wt_f_key = Some(key);
    }
    let ConvScratch {
        psum_f,
        psum_cl_f,
        wt_f,
        ..
    } = scr;
    scratch_resize(psum_cl_f, n_out, 0.0);
    scatter(g, wt_f, plane, psum_cl_f, |a, w| a + w);
    scratch_resize(psum_f, n_out, 0.0);
    transpose_cl(psum_cl_f, psum_f, g.out_channels, (oh, ow), ow, 0);
    &scr.psum_f
}

/// Scratch-buffer variant of [`crate::runner::conv_psums_dense`] (dense
/// INT8 first-layer codes, 32-bit accumulation) — same values, zero
/// steady-state allocation.
pub fn conv_psums_dense_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [i32] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    scratch_resize(&mut scr.psum_d32, g.out_channels * oh * ow, 0);
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
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
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc += i32::from(codes[sidx]) * i32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                scr.psum_d32[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    &scr.psum_d32
}

/// Float twin of [`conv_psums_dense_into`].
pub fn conv_psums_dense_f32_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [f32] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    scratch_resize(&mut scr.psum_df, g.out_channels * oh * ow, 0.0);
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
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
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc += f32::from(codes[sidx]) * f32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                scr.psum_df[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    &scr.psum_df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ConvInput, NeuronMode};
    use sia_fixed::{QuantScale, Q8_8};

    pub(crate) fn test_conv(
        cin: usize,
        cout: usize,
        hw: usize,
        k: usize,
        stride: usize,
        padding: usize,
        wseed: usize,
    ) -> SnnConv {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: k,
            stride,
            padding,
        };
        let weights = (0..geom.weight_count())
            .map(|i| (((i * 31 + wseed * 13) % 255) as i32 - 127) as i8)
            .collect();
        SnnConv {
            geom,
            weights,
            q_w: QuantScale::new(7),
            input: ConvInput::Spikes { value: 1.0 },
            g: vec![Q8_8::ONE; cout],
            h: vec![0; cout],
            theta: 128,
            nu: 1.0 / 128.0,
            gf: vec![1.0; cout],
            hf: vec![0.0; cout],
            step: 1.0,
            levels: 8,
            mode: NeuronMode::If,
        }
    }

    fn spikes(n: usize, rate: u32, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                u8::from(((s >> 33) as u32 % 100) < rate)
            })
            .collect()
    }

    #[test]
    fn scatter_matches_dense_reference_int() {
        let mut scr = ConvScratch::new();
        for (i, &(cin, cout, hw, k, stride, pad)) in [
            (1usize, 1usize, 4usize, 1usize, 1usize, 0usize),
            (3, 5, 6, 3, 1, 1),
            (2, 4, 8, 3, 2, 1),
            (4, 3, 7, 3, 1, 0),
            (2, 2, 5, 1, 2, 0),
        ]
        .iter()
        .enumerate()
        {
            let conv = test_conv(cin, cout, hw, k, stride, pad, i + 1);
            for rate in [0u32, 3, 25, 60, 100] {
                let bytes = spikes(cin * hw * hw, rate, (i as u64 + 1) * 97 + u64::from(rate));
                let mut plane = SpikePlane::default();
                plane.pack_from_bytes(cin, hw, hw, &bytes);
                let reference = crate::runner::conv_psums_int(&conv, &bytes);
                let got = conv_psums_int_plane(&conv, &plane, &mut scr, i).to_vec();
                assert_eq!(got, reference, "plane case {i} rate {rate}");
                let wide = conv_psums_int_scatter(&conv, &plane, &mut scr, i).to_vec();
                assert_eq!(wide, reference, "wide scatter case {i} rate {rate}");
                let scalar = conv_psums_int_scatter_scalar(&conv, &plane, &mut scr, i).to_vec();
                assert_eq!(scalar, reference, "scalar scatter case {i} rate {rate}");
                let gather = conv_psums_int_gather_ref(&conv, &plane, &mut scr).to_vec();
                assert_eq!(gather, reference, "gather case {i} rate {rate}");
            }
        }
    }

    #[test]
    fn single_edge_spikes_match_dense_reference() {
        // One spike at each corner and edge midpoint: pins the row-run
        // padding columns (runs hanging off either side of the plane), the
        // per-row (ky, oy) range at the top and bottom edges, and the
        // r ≥ K skip (K = 1 at stride 2 drops odd padded columns).
        let mut scr = ConvScratch::new();
        let mut key = 0;
        for hw in [5usize, 6] {
            let last = hw - 1;
            let mid = hw / 2;
            let spots = [
                (0, 0),
                (0, mid),
                (0, last),
                (mid, 0),
                (mid, last),
                (last, 0),
                (last, mid),
                (last, last),
            ];
            for k in [1usize, 3] {
                for stride in [1usize, 2] {
                    for pad in [0usize, 1] {
                        for cout in [1usize, 8, 17] {
                            let conv = test_conv(2, cout, hw, k, stride, pad, cout + k);
                            key += 1;
                            for ci in 0..2 {
                                for &(y, x) in &spots {
                                    let mut bytes = vec![0u8; 2 * hw * hw];
                                    bytes[(ci * hw + y) * hw + x] = 1;
                                    let mut plane = SpikePlane::default();
                                    plane.pack_from_bytes(2, hw, hw, &bytes);
                                    let reference = crate::runner::conv_psums_int(&conv, &bytes);
                                    let got = conv_psums_int_scatter(&conv, &plane, &mut scr, key)
                                        .to_vec();
                                    assert_eq!(
                                        got, reference,
                                        "hw {hw} k {k} s {stride} p {pad} cout {cout} \
                                         spike ({ci}, {y}, {x})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_matches_dense_reference_f32() {
        let mut scr = ConvScratch::new();
        for (i, &(cin, cout, hw, k, stride, pad)) in [
            (3usize, 4usize, 6usize, 3usize, 1usize, 1usize),
            (2, 3, 7, 3, 2, 1),
        ]
        .iter()
        .enumerate()
        {
            let conv = test_conv(cin, cout, hw, k, stride, pad, 9 + i);
            let bytes = spikes(cin * hw * hw, 30, 5 + i as u64);
            let mut plane = SpikePlane::default();
            plane.pack_from_bytes(cin, hw, hw, &bytes);
            let got = conv_psums_f32_plane(&conv, &plane, &mut scr, i).to_vec();
            // identical accumulation order ⇒ exact f32 equality, not approximate
            assert_eq!(
                got,
                crate::runner::conv_psums_f32(&conv, &bytes),
                "case {i}"
            );
        }
    }

    #[test]
    fn saturating_paths_agree_under_extreme_weights() {
        // all-max weights + dense spikes drive the i16 accumulator into
        // saturation; order equality is what keeps the paths bit-exact
        let mut conv = test_conv(40, 2, 6, 3, 1, 1, 0);
        conv.weights.iter_mut().for_each(|w| *w = 127);
        let bytes = vec![1u8; 40 * 36];
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(40, 6, 6, &bytes);
        let mut scr = ConvScratch::new();
        let reference = crate::runner::conv_psums_int(&conv, &bytes);
        assert!(reference.contains(&i16::MAX), "not saturating");
        let got = conv_psums_int_plane(&conv, &plane, &mut scr, 0).to_vec();
        assert_eq!(got, reference);
    }

    #[test]
    fn tap_accounting_is_input_centric() {
        let conv = test_conv(2, 3, 4, 3, 1, 1, 2);
        let bytes = spikes(2 * 16, 25, 11);
        let n_spikes: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(2, 4, 4, &bytes);
        let mut scr = ConvScratch::new();
        let _ = conv_psums_int_plane(&conv, &plane, &mut scr, 0);
        assert_eq!(scr.take_taps(), (n_spikes * 9, (32 - n_spikes) * 9));
        let _ = conv_psums_f32_plane(&conv, &plane, &mut scr, 0);
        assert_eq!(scr.take_taps(), (n_spikes * 9, (32 - n_spikes) * 9));
        // the direct scatter entry does no accounting
        let _ = conv_psums_int_scatter(&conv, &plane, &mut scr, 0);
        assert_eq!(scr.take_taps(), (0, 0));
    }

    #[test]
    fn dense_into_matches_allocating_reference() {
        let conv = test_conv(3, 4, 5, 3, 1, 1, 7);
        let codes: Vec<i8> = (0..3 * 25).map(|i| ((i * 7 % 255) - 127) as i8).collect();
        let mut scr = ConvScratch::new();
        assert_eq!(
            conv_psums_dense_into(&conv, &codes, &mut scr),
            crate::runner::conv_psums_dense(&conv, &codes).as_slice()
        );
    }
}
