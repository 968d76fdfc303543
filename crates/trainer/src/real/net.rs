//! A from-scratch convolutional segmentation network with manual
//! backpropagation — the numerical stand-in for DLv3+ in the accuracy
//! experiment.
//!
//! Architecture (all stride 1, same padding):
//! `conv k×k (cin→h1) → ReLU → conv k×k (h1→h2) → ReLU → conv 1×1
//! (h2→classes) → per-pixel softmax cross-entropy`
//! — a miniature encoder/classifier head that must combine local color
//! and neighborhood structure, like a segmentation model in the small.
//!
//! ## Hot-path layout
//!
//! Parameters live in **one flat `Vec<f32>`** (`[w1|b1|w2|b2|w3|b3]`,
//! see [`Layout`]); [`SegNet::params`] / [`SegNet::params_mut`] are
//! borrows, so the optimizer and the gradient allreduce operate on the
//! storage in place, with no gather/scatter copies per step.
//!
//! Convolutions run as **direct kernels over a zero-bordered input**
//! ([`conv_forward`] / [`conv_backward`]): each k×k layer input is
//! copied once per sample into a `(h+2p)×(w+2p)` plane per channel
//! (`pad_into`), so every tap is a shifted row load and the inner
//! loops carry no boundary branch. The forward and the weight gradient
//! both read that copy; the input gradient reads a bordered copy of the
//! output gradient and accumulates each tap straight into its result.
//! The 1×1 head is the `p = 0` case of the same kernels. Every kernel
//! has an AVX2+FMA version and a scalar twin behind runtime dispatch,
//! each with a fixed per-element summation order. The original naive
//! loops are retained as [`reference_conv_forward`] /
//! [`reference_conv_backward`] and property-tested equivalent (see
//! `conv_proptests`).
//!
//! All per-sample scratch (activations, gradients, bordered copies)
//! lives in a reusable [`Workspace`]; [`SegNet::loss_grad_acc`]
//! performs **zero heap allocations**, and [`SegNet::batch_loss_grad_ws`]
//! folds a batch into per-lane workspaces ([`BatchWorkspace`]) on the
//! process-wide [`CorePool`] so the steady-state training step never
//! touches the allocator in the gradient path, on any core count
//! (asserted by `tests/zero_alloc.rs`).
//!
//! Gradients are verified against finite differences in the tests.

use std::ops::Range;

use rand::Rng;
use summit_metrics::rng::rng_for;

use super::pool::CorePool;
use super::segdata::Sample;

/// Network shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    pub height: usize,
    pub width: usize,
    pub cin: usize,
    pub hidden1: usize,
    pub hidden2: usize,
    pub n_classes: usize,
    /// Kernel size of the two hidden convolutions (odd).
    pub k: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { height: 24, width: 24, cin: 3, hidden1: 8, hidden2: 16, n_classes: 4, k: 3 }
    }
}

impl NetConfig {
    fn conv_params(k: usize, cin: usize, cout: usize) -> usize {
        k * k * cin * cout + cout
    }

    pub fn n_params(&self) -> usize {
        Self::conv_params(self.k, self.cin, self.hidden1)
            + Self::conv_params(self.k, self.hidden1, self.hidden2)
            + Self::conv_params(1, self.hidden2, self.n_classes)
    }
}

/// Offsets of the six parameter blocks inside the flat vector, in the
/// fixed order `[w1, b1, w2, b2, w3, b3]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    ends: [usize; 6],
}

impl Layout {
    fn new(cfg: &NetConfig) -> Self {
        let k2 = cfg.k * cfg.k;
        let sizes = [
            k2 * cfg.cin * cfg.hidden1,
            cfg.hidden1,
            k2 * cfg.hidden1 * cfg.hidden2,
            cfg.hidden2,
            cfg.hidden2 * cfg.n_classes,
            cfg.n_classes,
        ];
        let mut ends = [0usize; 6];
        let mut off = 0;
        for (e, s) in ends.iter_mut().zip(sizes) {
            off += s;
            *e = off;
        }
        Layout { ends }
    }

    fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    fn n_params(&self) -> usize {
        self.ends[5]
    }

    /// Borrow the six blocks of a flat parameter/gradient vector.
    fn split<'a>(&self, flat: &'a [f32]) -> [&'a [f32]; 6] {
        debug_assert_eq!(flat.len(), self.n_params());
        let (w1, rest) = flat.split_at(self.ends[0]);
        let (b1, rest) = rest.split_at(self.ends[1] - self.ends[0]);
        let (w2, rest) = rest.split_at(self.ends[2] - self.ends[1]);
        let (b2, rest) = rest.split_at(self.ends[3] - self.ends[2]);
        let (w3, b3) = rest.split_at(self.ends[4] - self.ends[3]);
        [w1, b1, w2, b2, w3, b3]
    }

    /// Mutably borrow the six blocks of a flat gradient vector at once.
    fn split_mut<'a>(&self, flat: &'a mut [f32]) -> [&'a mut [f32]; 6] {
        debug_assert_eq!(flat.len(), self.n_params());
        let (w1, rest) = flat.split_at_mut(self.ends[0]);
        let (b1, rest) = rest.split_at_mut(self.ends[1] - self.ends[0]);
        let (w2, rest) = rest.split_at_mut(self.ends[2] - self.ends[1]);
        let (b2, rest) = rest.split_at_mut(self.ends[3] - self.ends[2]);
        let (w3, b3) = rest.split_at_mut(self.ends[4] - self.ends[3]);
        [w1, b1, w2, b2, w3, b3]
    }
}

/// The network: three convolution layers in one flat parameter vector.
#[derive(Debug, Clone)]
pub struct SegNet {
    pub cfg: NetConfig,
    layout: Layout,
    params: Vec<f32>,
}

// --------------------------------------------------------------- reference
// The original naive kernels, kept as the correctness oracle for the
// optimized path (property tests + bench baselines).

/// `out[o, y, x] = b[o] + Σ_{i, dy, dx} w[o, i, dy, dx]·in[i, y+dy-p, x+dx-p]`
///
/// Naive loop nest with boundary clamping — the reference
/// implementation the optimized [`conv_forward`] is tested against.
#[allow(clippy::too_many_arguments)] // a conv is a conv
pub fn reference_conv_forward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    bias: &[f32],
    k: usize,
    cout: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(input.len(), cin * h * w);
    debug_assert_eq!(weights.len(), k * k * cin * cout);
    debug_assert_eq!(out.len(), cout * h * w);
    let p = k / 2;
    for o in 0..cout {
        let wo = &weights[o * cin * k * k..(o + 1) * cin * k * k];
        let out_o = &mut out[o * h * w..(o + 1) * h * w];
        out_o.fill(bias[o]);
        for i in 0..cin {
            let in_i = &input[i * h * w..(i + 1) * h * w];
            let wi = &wo[i * k * k..(i + 1) * k * k];
            for dy in 0..k {
                for dx in 0..k {
                    let wv = wi[dy * k + dx];
                    if wv == 0.0 {
                        continue;
                    }
                    let oy = dy as isize - p as isize;
                    let ox = dx as isize - p as isize;
                    let y0 = (-oy).max(0) as usize;
                    let y1 = (h as isize - oy).min(h as isize) as usize;
                    let x0 = (-ox).max(0) as usize;
                    let x1 = (w as isize - ox).min(w as isize) as usize;
                    for y in y0..y1 {
                        let src = ((y as isize + oy) as usize) * w;
                        let dst = y * w;
                        for x in x0..x1 {
                            out_o[dst + x] += wv * in_i[src + (x as isize + ox) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Backward of [`reference_conv_forward`]: accumulate `dw`, `db`, and
/// (if `dinput` is `Some`) the input gradient.
#[allow(clippy::too_many_arguments)]
pub fn reference_conv_backward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    k: usize,
    cout: usize,
    dout: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    mut dinput: Option<&mut [f32]>,
) {
    let p = k / 2;
    for o in 0..cout {
        let dout_o = &dout[o * h * w..(o + 1) * h * w];
        db[o] += dout_o.iter().sum::<f32>();
        for i in 0..cin {
            let in_i = &input[i * h * w..(i + 1) * h * w];
            let dw_oi = &mut dw[(o * cin + i) * k * k..(o * cin + i + 1) * k * k];
            let w_oi = &weights[(o * cin + i) * k * k..(o * cin + i + 1) * k * k];
            for dy in 0..k {
                for dx in 0..k {
                    let oy = dy as isize - p as isize;
                    let ox = dx as isize - p as isize;
                    let y0 = (-oy).max(0) as usize;
                    let y1 = (h as isize - oy).min(h as isize) as usize;
                    let x0 = (-ox).max(0) as usize;
                    let x1 = (w as isize - ox).min(w as isize) as usize;
                    let mut acc = 0.0f32;
                    for y in y0..y1 {
                        let src = ((y as isize + oy) as usize) * w;
                        let dst = y * w;
                        for x in x0..x1 {
                            acc += dout_o[dst + x] * in_i[src + (x as isize + ox) as usize];
                        }
                    }
                    dw_oi[dy * k + dx] += acc;
                    if let Some(din) = dinput.as_deref_mut() {
                        let din_i = &mut din[i * h * w..(i + 1) * h * w];
                        let wv = w_oi[dy * k + dx];
                        for y in y0..y1 {
                            let src = ((y as isize + oy) as usize) * w;
                            let dst = y * w;
                            for x in x0..x1 {
                                din_i[src + (x as isize + ox) as usize] += wv * dout_o[dst + x];
                            }
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------- optimized
// Direct convolution kernels. A k×k kernel reads its spatial operand
// from a zero-bordered copy, `(h+2p)×(w+2p)` per channel with
// `p = k/2`, so every tap is a shifted row load and no inner loop has a
// boundary branch; a 1×1 convolution has `p = 0` and reads the plain
// planes. Output and gradient planes stay unbordered `h×w`.
//
// The AVX2 kernels walk the flat index `y·w+x` in groups of eight
// pixels (see `px8!` for groups that straddle rows or run past the
// last pixel). Each kernel fixes one summation order per output
// element, stated on its doc, and a border zero adds exactly `+0`, so
// the AVX2 kernels and their scalar twins give the same bits on every
// shape as the order they state.

/// Border width, bordered row stride and bordered plane length of a
/// same-padded `k×k` convolution over `h×w` planes.
#[inline]
fn bordered(h: usize, w: usize, k: usize) -> (usize, usize, usize) {
    let p = k / 2;
    let wp = w + 2 * p;
    (p, wp, (h + 2 * p) * wp)
}

/// Offset of tap `r = (i·k + dy)·k + dx` in a set of bordered planes:
/// where the tap reads for the output pixel at the origin.
#[inline]
fn tap_offset(r: usize, k: usize, wp: usize, plane: usize) -> usize {
    let (i, t) = (r / (k * k), r % (k * k));
    i * plane + (t / k) * wp + t % k
}

/// Length of `c` zero-bordered planes for a `k×k` convolution over
/// `h×w` pixels: `c·(h+2p)·(w+2p)` with `p = k/2`.
pub fn pad_len(c: usize, h: usize, w: usize, k: usize) -> usize {
    c * bordered(h, w, k).2
}

/// Copy `c` planes of `h×w` pixels into `dst` with a zero border of
/// `k/2` on every side. Writes all of `dst`.
// lint: hot-path
// lint: no-f64
fn pad_into(src: &[f32], c: usize, h: usize, w: usize, k: usize, dst: &mut [f32]) {
    let (p, wp, plane) = bordered(h, w, k);
    debug_assert_eq!(src.len(), c * h * w);
    debug_assert_eq!(dst.len(), c * plane);
    for (s, d) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(plane)) {
        d[..p * wp].fill(0.0);
        for (y, row) in s.chunks_exact(w).enumerate() {
            let drow = &mut d[(y + p) * wp..(y + p + 1) * wp];
            drow[..p].fill(0.0);
            drow[p..p + w].copy_from_slice(row);
            drow[p + w..].fill(0.0);
        }
        d[(h + p) * wp..].fill(0.0);
    }
}

/// An eight-pixel group of the flat index `y·w + x`: its first flat
/// index `p`, the bordered offset `row = y·wp` of its first row, and
/// its first column `x0`. The last group of a plane is partial when
/// `h·w` is not a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Group {
    p: usize,
    row: usize,
    x0: usize,
}

#[cfg(target_arch = "x86_64")]
impl Group {
    const FIRST: Group = Group { p: 0, row: 0, x0: 0 };

    /// The next group along the flat index.
    #[inline]
    fn next(self, w: usize, wp: usize) -> Group {
        let (mut row, mut x0) = (self.row, self.x0 + 8);
        while x0 >= w {
            x0 -= w;
            row += wp;
        }
        Group { p: self.p + 8, row, x0 }
    }

    /// The register tile starting at this group: up to [`TILE`] groups
    /// below the flat index `npix`, and how many there are. Slots past
    /// the end repeat the last group; kernels compute them and never
    /// store them.
    #[inline]
    fn tile(self, npix: usize, w: usize, wp: usize) -> ([Group; TILE], usize) {
        let n = (npix - self.p).div_ceil(8).min(TILE);
        let mut gs = [self; TILE];
        for q in 1..TILE {
            gs[q] = if q < n { gs[q - 1].next(w, wp) } else { gs[q - 1] };
        }
        (gs, n)
    }

    /// Bordered offsets of the group's eight pixels from the start of
    /// their plane. Lanes past pixel `npix - 1` repeat it, so a gather
    /// through these offsets stays in bounds.
    fn lane_offsets(self, w: usize, wp: usize, npix: usize) -> [i32; 8] {
        let mut offs = [0i32; 8];
        let (mut row, mut x) = (self.row, self.x0);
        for (l, off) in offs.iter_mut().enumerate() {
            *off = i32::try_from(row + x).expect("plane offsets fit an i32 gather index"); // lint: allow(unwrap): planes are far below 2^31 floats
            if self.p + l + 1 < npix {
                x += 1;
                if x == w {
                    x = 0;
                    row += wp;
                }
            }
        }
        offs
    }
}

/// Whether every eight-pixel group lies within one row: then a group
/// is one plain load (`px8!(contiguous, ..)`) and each row holds whole
/// groups. The 1×1 kernels always qualify, their planes being one row.
#[cfg(target_arch = "x86_64")]
#[inline]
fn groups_in_rows(h: usize, w: usize) -> bool {
    w.is_multiple_of(8) || h == 1
}

/// Pixel groups per register tile of the forward and input-gradient
/// kernels: 4 channels × 2 groups = 8 YMM accumulators, which leaves
/// registers for the loads and broadcasts (12 accumulators spill).
#[cfg(target_arch = "x86_64")]
const TILE: usize = 2;

/// The eight words from `LANE_MASK[8 - n]` set lanes `0..n`.
#[cfg(target_arch = "x86_64")]
static LANE_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// A YMM mask with lanes `0..$n` set (`$n` in `1..=8`).
#[cfg(target_arch = "x86_64")]
macro_rules! first_lanes {
    ($n:expr) => {
        _mm256_loadu_si256(LANE_MASK.as_ptr().add(8 - $n).cast())
    };
}

/// Load the eight pixels of group `$g` from the bordered plane at
/// `$base` (channel and tap offsets already applied), row stride `$wp`,
/// `$w` pixels per row. The mode is chosen once per call or tile:
/// `contiguous` when every group lies in one row ([`groups_in_rows`]):
/// one load; `straddle` for full groups of a plane at least 8 wide: a
/// group that runs past the row end continues on the next row
/// `wp - w` floats further on, two loads and a blend; `gather` for any
/// group, through its [`Group::lane_offsets`] in `$idx` — the partial
/// last group, and planes narrower than 8 where a group may span more
/// rows.
#[cfg(target_arch = "x86_64")]
macro_rules! px8 {
    (contiguous, $base:expr, $g:expr, $idx:expr, $w:expr, $wp:expr) => {
        _mm256_loadu_ps($base.add($g.row + $g.x0))
    };
    (straddle, $base:expr, $g:expr, $idx:expr, $w:expr, $wp:expr) => {{
        let (base, g, w, wp): (*const f32, Group, usize, usize) = ($base, $g, $w, $wp);
        let at = base.add(g.row + g.x0);
        if g.x0 + 8 <= w {
            _mm256_loadu_ps(at)
        } else {
            let this_row = _mm256_castsi256_ps(first_lanes!(w - g.x0));
            _mm256_blendv_ps(_mm256_loadu_ps(at.add(wp - w)), _mm256_loadu_ps(at), this_row)
        }
    }};
    (gather, $base:expr, $g:expr, $idx:expr, $w:expr, $wp:expr) => {
        _mm256_i32gather_ps::<4>($base, $idx)
    };
}

/// Sum the eight lanes of a YMM register through a stack spill — the
/// same reassociation as the scalar twin's `lanes.iter().sum()`.
#[cfg(target_arch = "x86_64")]
macro_rules! hsum8 {
    ($v:expr) => {{
        let mut buf = [0.0f32; 8];
        _mm256_storeu_ps(buf.as_mut_ptr(), $v);
        buf.iter().sum::<f32>()
    }};
}

/// Forward: `out[o, y, x] = bias[o] + Σ_{i,dy,dx} w[o,i,dy,dx]·
/// xpad[i, y+dy, x+dx]`, then `max(0, ·)` when `relu`. Each output
/// starts from the bias and adds the taps in `(i, dy, dx)` order,
/// `a += w·x` rounded twice. Scalar twin of [`conv_fwd_avx2`]; the loop
/// nest sweeps a whole output plane per tap so the row loop
/// autovectorizes.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_fwd_scalar(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    bias: &[f32],
    cout: usize,
    relu: bool,
    out: &mut [f32],
) {
    let (_, wp, plane) = bordered(h, w, k);
    let npix = h * w;
    let rdim = cin * k * k;
    debug_assert_eq!(xpad.len(), cin * plane);
    debug_assert_eq!(weights.len(), cout * rdim);
    debug_assert_eq!(out.len(), cout * npix);
    for (o, out_o) in out.chunks_exact_mut(npix).enumerate() {
        out_o.fill(bias[o]);
        let wo = &weights[o * rdim..(o + 1) * rdim];
        let mut r = 0;
        for i in 0..cin {
            for dy in 0..k {
                for dx in 0..k {
                    let wv = wo[r];
                    let tap = &xpad[i * plane + dy * wp + dx..];
                    for (y, dst) in out_o.chunks_exact_mut(w).enumerate() {
                        for (d, s) in dst.iter_mut().zip(&tap[y * wp..y * wp + w]) {
                            *d += wv * *s;
                        }
                    }
                    r += 1;
                }
            }
        }
    }
    if relu {
        out.iter_mut().for_each(|x| *x = x.max(0.0));
    }
}

/// AVX2+FMA twin of [`conv_fwd_scalar`]: a 4-output × 16-pixel register
/// tile (8 YMM accumulators seeded with the bias), one fused
/// multiply-add per tap in `(i, dy, dx)` order, ReLU applied in-register
/// before the single store (masked for the partial last group). An
/// output-channel or pixel block past the end repeats its last row or
/// group and is never stored.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_fwd_avx2(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    bias: &[f32],
    cout: usize,
    relu: bool,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (_, wp, plane) = bordered(h, w, k);
    let npix = h * w;
    let rdim = cin * k * k;
    debug_assert_eq!(xpad.len(), cin * plane);
    debug_assert_eq!(weights.len(), cout * rdim);
    debug_assert_eq!(out.len(), cout * npix);
    let xp = xpad.as_ptr();
    let op = out.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    let mut o = 0;
    while o < cout {
        let nb = (cout - o).min(4);
        let mut wrow = [weights.as_ptr(); 4];
        let mut b = [zero; 4];
        for j in 0..4 {
            let oj = o + j.min(nb - 1);
            wrow[j] = weights.as_ptr().add(oj * rdim);
            b[j] = _mm256_set1_ps(*bias.get_unchecked(oj));
        }
        let mut g0 = Group::FIRST;
        while g0.p < npix {
            let (gs, n) = g0.tile(npix, w, wp);
            let mut a = [[zero; TILE]; 4];
            for j in 0..4 {
                a[j] = [b[j]; TILE];
            }
            let mut idx = [_mm256_setzero_si256(); TILE];
            macro_rules! taps {
                ($mode:ident) => {{
                    // Tap rows `(i, dy)` in order; `row` steps to the
                    // next plane after `dy = k - 1`.
                    let (mut r, mut row, mut dy) = (0, xp, 0);
                    for _ in 0..cin * k {
                        for dx in 0..k {
                            let mut c = [zero; TILE];
                            for q in 0..TILE {
                                c[q] = px8!($mode, row.add(dx), gs[q], idx[q], w, wp);
                            }
                            for j in 0..4 {
                                let wv = _mm256_set1_ps(*wrow[j].add(r));
                                for q in 0..TILE {
                                    a[j][q] = _mm256_fmadd_ps(wv, c[q], a[j][q]);
                                }
                            }
                            r += 1;
                        }
                        dy += 1;
                        row = row.add(if dy == k {
                            dy = 0;
                            plane - (k - 1) * wp
                        } else {
                            wp
                        });
                    }
                }};
            }
            let partial = gs[n - 1].p + 8 > npix;
            if !partial && groups_in_rows(h, w) {
                taps!(contiguous);
            } else if !partial && w >= 8 {
                taps!(straddle);
            } else {
                for q in 0..TILE {
                    idx[q] = _mm256_loadu_si256(gs[q].lane_offsets(w, wp, npix).as_ptr().cast());
                }
                taps!(gather);
            }
            for (j, aj) in a.iter().enumerate().take(nb) {
                for (q, g) in gs.iter().enumerate().take(n) {
                    let v = if relu { _mm256_max_ps(aj[q], zero) } else { aj[q] };
                    let at = op.add((o + j) * npix + g.p);
                    if g.p + 8 <= npix {
                        _mm256_storeu_ps(at, v);
                    } else {
                        _mm256_maskstore_ps(at, first_lanes!(npix - g.p), v);
                    }
                }
            }
            g0 = gs[TILE - 1].next(w, wp);
        }
        o += nb;
    }
}

/// Runtime dispatch over the [`conv_fwd_scalar`] / [`conv_fwd_avx2`]
/// twins.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_fwd(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    bias: &[f32],
    cout: usize,
    relu: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { conv_fwd_avx2(xpad, cin, h, w, k, weights, bias, cout, relu, out) };
        return;
    }
    conv_fwd_scalar(xpad, cin, h, w, k, weights, bias, cout, relu, out);
}

/// Weight gradient: `dw[o, r] += Σ_p dout[o, p]·xpad[r at p]` for every
/// tap `r = (i, dy, dx)`. Each sum keeps eight lane partials over the
/// flat pixel index (`p mod 8`, pixels `< h·w − h·w mod 8`, in pixel
/// order), adds them low lane to high, then adds the tail pixels' sum.
/// Scalar twin of [`conv_wgrad_avx2`], with `a += d·x` rounded twice.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_wgrad_scalar(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
) {
    let (_, wp, plane) = bordered(h, w, k);
    let npix = h * w;
    let kk = k * k;
    let rdim = cin * kk;
    let full = npix - npix % 8;
    debug_assert_eq!(xpad.len(), cin * plane);
    debug_assert_eq!(dout.len(), cout * npix);
    debug_assert_eq!(dw.len(), cout * rdim);
    for r in 0..rdim {
        let tap = &xpad[tap_offset(r, k, wp, plane)..];
        for (o, d) in dout.chunks_exact(npix).enumerate() {
            let mut lanes = [0.0f32; 8];
            let mut tail = 0.0f32;
            let mut p = 0;
            for y in 0..h {
                for &x in &tap[y * wp..y * wp + w] {
                    let v = d[p] * x;
                    if p < full {
                        lanes[p % 8] += v;
                    } else {
                        tail += v;
                    }
                    p += 1;
                }
            }
            dw[o * rdim + r] += lanes.iter().sum::<f32>() + tail;
        }
    }
}

/// AVX2+FMA twin of [`conv_wgrad_scalar`]: a 4-output × 3-tap block
/// keeps 12 YMM lane accumulators live while the pixel groups stream
/// (fused multiply-adds), the tail pixels run an FMA chain, and each
/// accumulator collapses to one `dw` entry at block end. A block past
/// the last output or tap repeats it and is never stored.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_wgrad_avx2(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (_, wp, plane) = bordered(h, w, k);
    let npix = h * w;
    let kk = k * k;
    let rdim = cin * kk;
    let full = npix - npix % 8;
    debug_assert_eq!(xpad.len(), cin * plane);
    debug_assert_eq!(dout.len(), cout * npix);
    debug_assert_eq!(dw.len(), cout * rdim);
    let xp = xpad.as_ptr();
    let gp = dw.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    // Bordered offsets of the tail pixels `full..npix`.
    let mut tail_at = [0usize; 8];
    for (at, p) in tail_at.iter_mut().zip(full..npix) {
        *at = (p / w) * wp + p % w;
    }
    let tail_at = &tail_at[..npix - full];
    let mut o = 0;
    while o < cout {
        let nb = (cout - o).min(4);
        let mut drow = [dout.as_ptr(); 4];
        for (j, d) in drow.iter_mut().enumerate() {
            *d = dout.as_ptr().add((o + j.min(nb - 1)) * npix);
        }
        let mut r = 0;
        while r < rdim {
            let nr = (rdim - r).min(3);
            let mut tap = [xp; 3];
            for (q, t) in tap.iter_mut().enumerate() {
                let rq = r + q.min(nr - 1);
                *t = xp.add(tap_offset(rq, k, wp, plane));
            }
            let mut a = [[zero; 3]; 4];
            macro_rules! fma_group {
                ($mode:ident, $g:expr, $idx:expr) => {{
                    let g = $g;
                    let c = [
                        px8!($mode, tap[0], g, $idx, w, wp),
                        px8!($mode, tap[1], g, $idx, w, wp),
                        px8!($mode, tap[2], g, $idx, w, wp),
                    ];
                    for j in 0..4 {
                        let d = _mm256_loadu_ps(drow[j].add(g.p));
                        for q in 0..3 {
                            a[j][q] = _mm256_fmadd_ps(d, c[q], a[j][q]);
                        }
                    }
                }};
            }
            if groups_in_rows(h, w) {
                // Walk each row's whole groups.
                let (mut row, mut p) = (0, 0);
                for _ in 0..h {
                    let mut x0 = 0;
                    while x0 + 8 <= w {
                        fma_group!(contiguous, Group { p, row, x0 }, ());
                        x0 += 8;
                        p += 8;
                    }
                    row += wp;
                }
            } else {
                let mut g = Group::FIRST;
                while g.p < full {
                    if w >= 8 {
                        fma_group!(straddle, g, ());
                    } else {
                        let offs = g.lane_offsets(w, wp, npix);
                        let idx = _mm256_loadu_si256(offs.as_ptr().cast());
                        fma_group!(gather, g, idx);
                    }
                    g = g.next(w, wp);
                }
            }
            let mut t = [[0.0f32; 3]; 4];
            for (p, &at) in (full..npix).zip(tail_at) {
                for (tj, d) in t.iter_mut().zip(&drow) {
                    let dv = *d.add(p);
                    for q in 0..3 {
                        tj[q] = dv.mul_add(*tap[q].add(at), tj[q]);
                    }
                }
            }
            for j in 0..nb {
                for q in 0..nr {
                    *gp.add((o + j) * rdim + r + q) += hsum8!(a[j][q]) + t[j][q];
                }
            }
            r += nr;
        }
        o += nb;
    }
}

/// Runtime dispatch over the [`conv_wgrad_scalar`] /
/// [`conv_wgrad_avx2`] twins.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_wgrad(
    xpad: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { conv_wgrad_avx2(xpad, cin, h, w, k, dout, cout, dw) };
        return;
    }
    conv_wgrad_scalar(xpad, cin, h, w, k, dout, cout, dw);
}

/// Pixels per row chunk of [`conv_igrad_scalar`]'s stack accumulator.
const ROW_CHUNK: usize = 64;

/// Input gradient: `din[i, y, x] += Σ_{dy,dx} Σ_o w[o,i,dy,dx]·
/// dpad[o, y+2p−dy, x+2p−dx]`, where `dpad` is `dout` with a `p`-wide
/// zero border. Each tap's sum over `o` starts from zero and is added to
/// `din`, taps in `(dy, dx)` order; for `k = 1` the single sum starts
/// from `din` itself. Scalar twin of [`conv_igrad_avx2`], with
/// `a += w·d` rounded twice.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_igrad_scalar(
    dpad: &[f32],
    cout: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    cin: usize,
    din: &mut [f32],
) {
    let (p, wp, plane) = bordered(h, w, k);
    let kk = k * k;
    let rdim = cin * kk;
    debug_assert_eq!(dpad.len(), cout * plane);
    debug_assert_eq!(weights.len(), cout * rdim);
    debug_assert_eq!(din.len(), cin * h * w);
    let single = k == 1;
    for (i, din_i) in din.chunks_exact_mut(h * w).enumerate() {
        for (y, drow) in din_i.chunks_exact_mut(w).enumerate() {
            for (c, dst) in drow.chunks_mut(ROW_CHUNK).enumerate() {
                let x0 = c * ROW_CHUNK;
                let mut buf = [0.0f32; ROW_CHUNK];
                let acc = &mut buf[..dst.len()];
                for dy in 0..k {
                    for dx in 0..k {
                        if single {
                            acc.copy_from_slice(dst);
                        } else {
                            acc.fill(0.0);
                        }
                        let at = (y + 2 * p - dy) * wp + x0 + 2 * p - dx;
                        for o in 0..cout {
                            let wv = weights[o * rdim + i * kk + dy * k + dx];
                            let src = &dpad[o * plane + at..o * plane + at + acc.len()];
                            for (a, s) in acc.iter_mut().zip(src) {
                                *a += wv * *s;
                            }
                        }
                        if single {
                            dst.copy_from_slice(acc);
                        } else {
                            for (d, a) in dst.iter_mut().zip(acc.iter()) {
                                *d += *a;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// AVX2+FMA twin of [`conv_igrad_scalar`]: a 4-input-channel × 16-pixel
/// register tile per tap, the output channels streaming through weight
/// broadcasts into fused multiply-adds; the tile is added to `din`
/// once per tap. A channel or pixel block past the end repeats its last
/// row or group and is never stored.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_igrad_avx2(
    dpad: &[f32],
    cout: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    cin: usize,
    din: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (p, wp, plane) = bordered(h, w, k);
    let npix = h * w;
    let kk = k * k;
    let rdim = cin * kk;
    debug_assert_eq!(dpad.len(), cout * plane);
    debug_assert_eq!(weights.len(), cout * rdim);
    debug_assert_eq!(din.len(), cin * npix);
    let single = k == 1;
    let dp = dpad.as_ptr();
    let wt = weights.as_ptr();
    let ip = din.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    // `din` access for group `g`: masked for the partial last group.
    let load = |at: *const f32, g: Group| {
        if g.p + 8 <= npix {
            _mm256_loadu_ps(at)
        } else {
            _mm256_maskload_ps(at, first_lanes!(npix - g.p))
        }
    };
    let store = |at: *mut f32, g: Group, v: __m256| {
        if g.p + 8 <= npix {
            _mm256_storeu_ps(at, v)
        } else {
            _mm256_maskstore_ps(at, first_lanes!(npix - g.p), v)
        }
    };
    let mut i = 0;
    while i < cin {
        let nb = (cin - i).min(4);
        let mut wcol = [wt; 4];
        let mut dst = [ip; 4];
        for j in 0..4 {
            let ij = i + j.min(nb - 1);
            wcol[j] = wt.add(ij * kk);
            dst[j] = ip.add(ij * npix);
        }
        for dy in 0..k {
            for dx in 0..k {
                let t = dy * k + dx;
                let src = dp.add((2 * p - dy) * wp + 2 * p - dx);
                let mut wj = [wt; 4];
                for j in 0..4 {
                    wj[j] = wcol[j].add(t);
                }
                let mut g0 = Group::FIRST;
                while g0.p < npix {
                    let (gs, n) = g0.tile(npix, w, wp);
                    let mut a = [[zero; TILE]; 4];
                    if single {
                        for j in 0..4 {
                            for q in 0..TILE {
                                a[j][q] = load(dst[j].add(gs[q].p), gs[q]);
                            }
                        }
                    }
                    let mut idx = [_mm256_setzero_si256(); TILE];
                    macro_rules! chain {
                        ($mode:ident) => {{
                            let mut plane_o = src;
                            let mut wo = 0;
                            for _ in 0..cout {
                                let mut d = [zero; TILE];
                                for q in 0..TILE {
                                    d[q] = px8!($mode, plane_o, gs[q], idx[q], w, wp);
                                }
                                for j in 0..4 {
                                    let wv = _mm256_set1_ps(*wj[j].add(wo));
                                    for q in 0..TILE {
                                        a[j][q] = _mm256_fmadd_ps(wv, d[q], a[j][q]);
                                    }
                                }
                                plane_o = plane_o.add(plane);
                                wo += rdim;
                            }
                        }};
                    }
                    let partial = gs[n - 1].p + 8 > npix;
                    if !partial && groups_in_rows(h, w) {
                        chain!(contiguous);
                    } else if !partial && w >= 8 {
                        chain!(straddle);
                    } else {
                        for q in 0..TILE {
                            let offs = gs[q].lane_offsets(w, wp, npix);
                            idx[q] = _mm256_loadu_si256(offs.as_ptr().cast());
                        }
                        chain!(gather);
                    }
                    for (j, aj) in a.iter().enumerate().take(nb) {
                        for (q, &g) in gs.iter().enumerate().take(n) {
                            let at = dst[j].add(g.p);
                            let v = if single { aj[q] } else { _mm256_add_ps(load(at, g), aj[q]) };
                            store(at, g, v);
                        }
                    }
                    g0 = gs[TILE - 1].next(w, wp);
                }
            }
        }
        i += nb;
    }
}

/// Runtime dispatch over the [`conv_igrad_scalar`] /
/// [`conv_igrad_avx2`] twins.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn conv_igrad(
    dpad: &[f32],
    cout: usize,
    h: usize,
    w: usize,
    k: usize,
    weights: &[f32],
    cin: usize,
    din: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { conv_igrad_avx2(dpad, cout, h, w, k, weights, cin, din) };
        return;
    }
    conv_igrad_scalar(dpad, cout, h, w, k, weights, cin, din);
}

/// Optimized convolution forward: borders `input` into `xpad`
/// (caller-provided, [`pad_len`]`(cin, h, w, k)` long; unused for
/// `k == 1`), then runs the direct kernel. `relu` fuses `max(0, ·)`
/// into the output store. Numerically equivalent to
/// [`reference_conv_forward`] (plus a ReLU pass when requested) up to
/// float summation order.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_forward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    bias: &[f32],
    k: usize,
    cout: usize,
    relu: bool,
    xpad: &mut [f32],
    out: &mut [f32],
) {
    if k == 1 {
        // No border and no row structure: each plane is one flat row.
        conv_fwd(input, cin, 1, h * w, k, weights, bias, cout, relu, out);
        return;
    }
    pad_into(input, cin, h, w, k, xpad);
    conv_fwd(xpad, cin, h, w, k, weights, bias, cout, relu, out);
}

/// Optimized convolution backward. `xpad` must hold the bordered layer
/// input (left over from [`conv_forward`]; `input` is read instead for
/// `k == 1`); `dpad` is scratch of [`pad_len`]`(cout, h, w, k)` for the
/// bordered `dout` (ignored when `dinput` is `None` or `k == 1`).
/// Accumulates into `dw` / `db` / `dinput` like the reference.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_backward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    k: usize,
    cout: usize,
    dout: &[f32],
    xpad: &[f32],
    dpad: &mut [f32],
    dw: &mut [f32],
    db: &mut [f32],
    dinput: Option<&mut [f32]>,
) {
    let npix = h * w;
    for (o, bo) in db.iter_mut().enumerate() {
        let row = &dout[o * npix..(o + 1) * npix];
        // Eight-lane sum, same reassociation as the weight gradient.
        let mut lanes = [0.0f32; 8];
        for ch in row.chunks_exact(8) {
            for l in 0..8 {
                lanes[l] += ch[l];
            }
        }
        let rem = row.len() - row.len() % 8;
        *bo += lanes.iter().sum::<f32>() + row[rem..].iter().sum::<f32>();
    }
    // A 1×1 convolution reads `input` itself, each plane one flat row.
    let (xpad, h, w) = if k == 1 { (input, 1, npix) } else { (xpad, h, w) };
    conv_wgrad(xpad, cin, h, w, k, dout, cout, dw);
    if let Some(din) = dinput {
        let dpad: &[f32] = if k == 1 {
            dout
        } else {
            pad_into(dout, cout, h, w, k, dpad);
            dpad
        };
        conv_igrad(dpad, cout, h, w, k, weights, cin, din);
    }
}

/// ReLU backward: zero `d` wherever the post-ReLU activation `a` is not
/// positive (post-ReLU `a > 0` ⇔ pre-activation `> 0`). A select, not a
/// branch: the sign pattern is data-dependent, so a branch would
/// mispredict on about half the elements, and the select vectorizes.
// lint: hot-path
// lint: no-f64
fn relu_backward(d: &mut [f32], a: &[f32]) {
    for (d, &a) in d.iter_mut().zip(a) {
        *d = if a <= 0.0 { 0.0 } else { *d };
    }
}

// --------------------------------------------------------------- workspace

/// Reusable per-sample scratch for [`SegNet::loss_grad_acc`]: forward
/// activations, backward gradients, and the zero-bordered copies the
/// k×k kernels read (the input pixels, `a1`, and `da2`). Constructing
/// one allocates everything the hot path needs; using it allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Bordered input pixels: layer-1 forward and weight gradient.
    xpad: Vec<f32>,
    a1: Vec<f32>,
    /// Bordered `a1`: layer-2 forward and weight gradient.
    a1pad: Vec<f32>,
    a2: Vec<f32>,
    /// Logits on the way forward, `dlogits` after the softmax backward.
    dlogits: Vec<f32>,
    da1: Vec<f32>,
    da2: Vec<f32>,
    /// Bordered `da2`: layer-2 input gradient.
    da2pad: Vec<f32>,
}

impl Workspace {
    pub fn new(cfg: &NetConfig) -> Self {
        let (h, w, k) = (cfg.height, cfg.width, cfg.k);
        let npix = h * w;
        Workspace {
            xpad: vec![0.0; pad_len(cfg.cin, h, w, k)],
            a1: vec![0.0; cfg.hidden1 * npix],
            a1pad: vec![0.0; pad_len(cfg.hidden1, h, w, k)],
            a2: vec![0.0; cfg.hidden2 * npix],
            dlogits: vec![0.0; cfg.n_classes * npix],
            da1: vec![0.0; cfg.hidden1 * npix],
            da2: vec![0.0; cfg.hidden2 * npix],
            da2pad: vec![0.0; pad_len(cfg.hidden2, h, w, k)],
        }
    }
}

/// Balanced contiguous chunk `c` of `n` chunks over `len` items.
pub(crate) fn chunk_range(len: usize, n: usize, c: usize) -> Range<usize> {
    let base = len / n;
    let rem = len % n;
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// Per-lane state for [`SegNet::batch_loss_grad_ws`]: one
/// ([`Workspace`], gradient accumulator) slot per lane of
/// [`CorePool::global`], plus the combined mean gradient. Construct
/// once, reuse every step.
#[derive(Debug)]
pub struct BatchWorkspace {
    slots: Vec<Slot>,
    /// Mean gradient of the last [`SegNet::batch_loss_grad_ws`] call.
    pub grad: Vec<f32>,
}

#[derive(Debug)]
struct Slot {
    ws: Workspace,
    grad: Vec<f32>,
    loss: f64,
}

impl BatchWorkspace {
    pub fn new(cfg: &NetConfig) -> Self {
        let n_params = cfg.n_params();
        let slots = (0..CorePool::global().workers())
            .map(|_| Slot { ws: Workspace::new(cfg), grad: vec![0.0; n_params], loss: 0.0 })
            .collect();
        BatchWorkspace { slots, grad: vec![0.0; n_params] }
    }
}

impl SegNet {
    /// He-initialized network, deterministic in `seed`.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        assert!(cfg.k % 2 == 1, "kernel must be odd for same padding");
        let layout = Layout::new(&cfg);
        let mut params = vec![0.0f32; layout.n_params()];
        let mut rng = rng_for(seed, "segnet-init");
        let k2 = cfg.k * cfg.k;
        // Weight blocks in declaration order (w1, w2, w3) so the RNG
        // stream matches the historical per-field initialization.
        for (block, fan_in) in [(0, k2 * cfg.cin), (2, k2 * cfg.hidden1), (4, cfg.hidden2)] {
            let scale = (2.0 / fan_in as f32).sqrt();
            for v in &mut params[layout.range(block)] {
                *v = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        SegNet { cfg, layout, params }
    }

    pub fn n_params(&self) -> usize {
        self.cfg.n_params()
    }

    /// The flat parameter vector (fixed order `[w1|b1|w2|b2|w3|b3]`),
    /// borrowed — no copy.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable borrow of the flat parameter vector: the optimizer
    /// updates the network storage in place.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.n_params(), "parameter vector length");
        self.params.copy_from_slice(flat);
    }

    /// Forward pass to per-pixel logits (`classes × h × w`).
    pub fn forward_logits(&self, pixels: &[f32]) -> Vec<f32> {
        let c = &self.cfg;
        let npix = c.height * c.width;
        let mut ws = Workspace::new(c);
        self.forward_ws(pixels, &mut ws);
        let mut logits = vec![0.0; c.n_classes * npix];
        logits.copy_from_slice(&ws.dlogits);
        logits
    }

    /// Forward through the workspace; logits end up in `ws.dlogits`.
    fn forward_ws(&self, pixels: &[f32], ws: &mut Workspace) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [w1, b1, w2, b2, w3, b3] = self.layout.split(&self.params);
        // ReLU is fused into the kernels' output store (`relu: true`).
        conv_forward(pixels, c.cin, h, w, w1, b1, c.k, c.hidden1, true, &mut ws.xpad, &mut ws.a1);
        conv_forward(
            &ws.a1,
            c.hidden1,
            h,
            w,
            w2,
            b2,
            c.k,
            c.hidden2,
            true,
            &mut ws.a1pad,
            &mut ws.a2,
        );
        conv_forward(
            &ws.a2,
            c.hidden2,
            h,
            w,
            w3,
            b3,
            1,
            c.n_classes,
            false,
            &mut [],
            &mut ws.dlogits,
        );
    }

    /// Argmax class map (allocating convenience wrapper over
    /// [`SegNet::predict_into`]).
    pub fn predict(&self, pixels: &[f32]) -> Vec<u8> {
        let mut ws = Workspace::new(&self.cfg);
        let mut out = vec![0; self.cfg.height * self.cfg.width];
        self.predict_into(pixels, &mut ws, &mut out);
        out
    }

    /// Argmax class map written into `out` (one label per pixel), the
    /// forward pass running through `ws`: no heap allocation.
    pub fn predict_into(&self, pixels: &[f32], ws: &mut Workspace, out: &mut [u8]) {
        let c = &self.cfg;
        let npix = c.height * c.width;
        assert_eq!(out.len(), npix, "prediction length");
        self.forward_ws(pixels, ws);
        let logits = &ws.dlogits;
        for (i, o) in out.iter_mut().enumerate() {
            *o = (0..c.n_classes)
                .max_by(|&a, &b| logits[a * npix + i].total_cmp(&logits[b * npix + i]))
                .expect("at least one class") as u8; // lint: allow(unwrap): n_classes >= 1 is validated at construction
        }
    }

    /// Parameter ranges of the six blocks, in the fixed flat order
    /// `[w1, b1, w2, b2, w3, b3]` — what the pipelined step executor
    /// uses to address gradient tiles inside a flat vector.
    pub fn block_ranges(&self) -> [Range<usize>; 6] {
        [
            self.layout.range(0),
            self.layout.range(1),
            self.layout.range(2),
            self.layout.range(3),
            self.layout.range(4),
            self.layout.range(5),
        ]
    }

    /// Cross-entropy loss for one sample, **accumulating** the flat
    /// parameter gradient into `grad_acc` (`+=`). Performs zero heap
    /// allocations: all scratch comes from `ws`.
    ///
    /// The body is the four pipeline phases run back to back; the
    /// pipelined executor calls them individually so each layer's
    /// gradient tile can be reduced as soon as its phase completes.
    // lint: hot-path
    pub fn loss_grad_acc(&self, sample: &Sample, ws: &mut Workspace, grad_acc: &mut [f32]) -> f64 {
        assert_eq!(grad_acc.len(), self.n_params(), "gradient vector length");
        let [gw1, gb1, gw2, gb2, gw3, gb3] = self.layout.split_mut(grad_acc);
        let loss = self.phase_forward_softmax(sample, ws);
        self.phase_backward_head(ws, gw3, gb3);
        self.phase_backward_mid(ws, gw2, gb2);
        self.phase_backward_input(sample, ws, gw1, gb1);
        loss
    }

    /// Pipeline phase 1: forward pass plus per-pixel softmax
    /// cross-entropy backward. Leaves the loss gradient w.r.t. the
    /// logits in `ws.dlogits`; returns the sample's mean pixel loss.
    // lint: hot-path
    pub fn phase_forward_softmax(&self, sample: &Sample, ws: &mut Workspace) -> f64 {
        let c = &self.cfg;
        let npix = c.height * c.width;
        self.forward_ws(&sample.pixels, ws);

        // Per-pixel softmax cross-entropy; dlogits in place. (ReLU
        // masks are implicit: post-ReLU activation > 0 ⇔ pre-activation
        // > 0, so `a1`/`a2` double as their own masks.)
        let mut loss = 0.0f64;
        let dlogits = &mut ws.dlogits;
        for i in 0..npix {
            let mut maxv = f32::NEG_INFINITY;
            for cl in 0..c.n_classes {
                maxv = maxv.max(dlogits[cl * npix + i]);
            }
            let target = sample.labels[i] as usize;
            let logit_t = dlogits[target * npix + i];
            // Single-exp formulation: stash e^(x-max) in place on the
            // accumulation pass, then normalize — same `e / denom`
            // division as the reference, so the result is bit-identical
            // while halving the (dominant) exp count.
            let mut denom = 0.0f32;
            for cl in 0..c.n_classes {
                let e = (dlogits[cl * npix + i] - maxv).exp();
                denom += e;
                dlogits[cl * npix + i] = e;
            }
            loss += f64::from(denom.ln() + maxv - logit_t);
            for cl in 0..c.n_classes {
                let p = dlogits[cl * npix + i] / denom;
                dlogits[cl * npix + i] = (p - f32::from(u8::from(cl == target))) / npix as f32;
            }
        }
        loss / npix as f64
    }

    /// Pipeline phase 2: 1×1 head backward. Accumulates into the
    /// `w3`/`b3` gradient blocks and leaves the ReLU-masked activation
    /// gradient in `ws.da2`. Requires phase 1's workspace state.
    // lint: hot-path
    pub fn phase_backward_head(&self, ws: &mut Workspace, gw3: &mut [f32], gb3: &mut [f32]) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [_, _, _, _, w3, _] = self.layout.split(&self.params);
        ws.da2.fill(0.0);
        conv_backward(
            &ws.a2,
            c.hidden2,
            h,
            w,
            w3,
            1,
            c.n_classes,
            &ws.dlogits,
            &[],
            &mut [],
            gw3,
            gb3,
            Some(&mut ws.da2),
        );
        relu_backward(&mut ws.da2, &ws.a2);
    }

    /// Pipeline phase 3: middle k×k layer backward. Accumulates into
    /// `w2`/`b2` and leaves the ReLU-masked `ws.da1`. Requires phase 2.
    // lint: hot-path
    pub fn phase_backward_mid(&self, ws: &mut Workspace, gw2: &mut [f32], gb2: &mut [f32]) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [_, _, w2, _, _, _] = self.layout.split(&self.params);
        ws.da1.fill(0.0);
        conv_backward(
            &ws.a1,
            c.hidden1,
            h,
            w,
            w2,
            c.k,
            c.hidden2,
            &ws.da2,
            &ws.a1pad,
            &mut ws.da2pad,
            gw2,
            gb2,
            Some(&mut ws.da1),
        );
        relu_backward(&mut ws.da1, &ws.a1);
    }

    /// Pipeline phase 4: input k×k layer backward. Accumulates into
    /// `w1`/`b1`; no further input gradient. Requires phase 3.
    // lint: hot-path
    pub fn phase_backward_input(
        &self,
        sample: &Sample,
        ws: &mut Workspace,
        gw1: &mut [f32],
        gb1: &mut [f32],
    ) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [w1, _, _, _, _, _] = self.layout.split(&self.params);
        conv_backward(
            &sample.pixels,
            c.cin,
            h,
            w,
            w1,
            c.k,
            c.hidden1,
            &ws.da1,
            &ws.xpad,
            &mut [],
            gw1,
            gb1,
            None,
        );
    }

    /// Cross-entropy loss and flat parameter gradient for one sample
    /// (allocating convenience wrapper over [`SegNet::loss_grad_acc`]).
    pub fn loss_grad(&self, sample: &Sample) -> (f64, Vec<f32>) {
        let mut ws = Workspace::new(&self.cfg);
        let mut grad = vec![0.0f32; self.n_params()];
        let loss = self.loss_grad_acc(sample, &mut ws, &mut grad);
        (loss, grad)
    }

    /// The naive-kernel twin of [`SegNet::loss_grad`]: allocates fresh
    /// buffers and runs [`reference_conv_forward`] /
    /// [`reference_conv_backward`] end to end. Retained as the
    /// correctness oracle and the bench baseline the optimized path is
    /// measured against.
    pub fn reference_loss_grad(&self, sample: &Sample) -> (f64, Vec<f32>) {
        let c = &self.cfg;
        let (h, w, npix) = (c.height, c.width, c.height * c.width);
        let [w1, b1, w2, b2, w3, b3] = self.layout.split(&self.params);
        // Forward, keeping activations.
        let mut a1 = vec![0.0; c.hidden1 * h * w];
        reference_conv_forward(&sample.pixels, c.cin, h, w, w1, b1, c.k, c.hidden1, &mut a1);
        let z1_mask: Vec<bool> = a1.iter().map(|&x| x > 0.0).collect();
        a1.iter_mut().for_each(|x| *x = x.max(0.0));
        let mut a2 = vec![0.0; c.hidden2 * h * w];
        reference_conv_forward(&a1, c.hidden1, h, w, w2, b2, c.k, c.hidden2, &mut a2);
        let z2_mask: Vec<bool> = a2.iter().map(|&x| x > 0.0).collect();
        a2.iter_mut().for_each(|x| *x = x.max(0.0));
        let mut logits = vec![0.0; c.n_classes * h * w];
        reference_conv_forward(&a2, c.hidden2, h, w, w3, b3, 1, c.n_classes, &mut logits);

        // Per-pixel softmax cross-entropy; dlogits in place.
        let mut loss = 0.0f64;
        let mut dlogits = logits;
        for i in 0..npix {
            let mut maxv = f32::NEG_INFINITY;
            for cl in 0..c.n_classes {
                maxv = maxv.max(dlogits[cl * npix + i]);
            }
            let mut denom = 0.0f32;
            for cl in 0..c.n_classes {
                denom += (dlogits[cl * npix + i] - maxv).exp();
            }
            let target = sample.labels[i] as usize;
            let logit_t = dlogits[target * npix + i];
            loss += f64::from(denom.ln() + maxv - logit_t);
            for cl in 0..c.n_classes {
                let p = (dlogits[cl * npix + i] - maxv).exp() / denom;
                dlogits[cl * npix + i] = (p - f32::from(u8::from(cl == target))) / npix as f32;
            }
        }
        loss /= npix as f64;

        // Backward.
        let mut grad = vec![0.0f32; self.n_params()];
        let [gw1, gb1, gw2, gb2, gw3, gb3] = self.layout.split_mut(&mut grad);
        let mut da2 = vec![0.0; a2.len()];
        reference_conv_backward(
            &a2,
            c.hidden2,
            h,
            w,
            w3,
            1,
            c.n_classes,
            &dlogits,
            gw3,
            gb3,
            Some(&mut da2),
        );
        for (d, &m) in da2.iter_mut().zip(&z2_mask) {
            if !m {
                *d = 0.0;
            }
        }
        let mut da1 = vec![0.0; a1.len()];
        reference_conv_backward(
            &a1,
            c.hidden1,
            h,
            w,
            w2,
            c.k,
            c.hidden2,
            &da2,
            gw2,
            gb2,
            Some(&mut da1),
        );
        for (d, &m) in da1.iter_mut().zip(&z1_mask) {
            if !m {
                *d = 0.0;
            }
        }
        reference_conv_backward(
            &sample.pixels,
            c.cin,
            h,
            w,
            w1,
            c.k,
            c.hidden1,
            &da1,
            gw1,
            gb1,
            None,
        );
        (loss, grad)
    }

    /// Mean loss and gradient over a batch, written into `bw.grad`.
    /// Zero heap allocations after `bw` is constructed: each slot folds
    /// its contiguous shard of the batch into its own workspace and
    /// accumulator on a lane of [`CorePool::global`], and the partials
    /// combine in fixed slot order (deterministic for a given core
    /// count, whether the pool fanned out or ran the lanes inline).
    // lint: hot-path
    pub fn batch_loss_grad_ws(&self, batch: &[Sample], bw: &mut BatchWorkspace) -> f64 {
        assert!(!batch.is_empty());
        let n = bw.slots.len().min(batch.len());
        CorePool::global().for_each_mut(&mut bw.slots[..n], &|c, slot| {
            slot.loss = 0.0;
            slot.grad.fill(0.0);
            for s in &batch[chunk_range(batch.len(), n, c)] {
                slot.loss += self.loss_grad_acc(s, &mut slot.ws, &mut slot.grad);
            }
        });
        bw.grad.fill(0.0);
        let mut loss = 0.0f64;
        for slot in &bw.slots[..n] {
            loss += slot.loss;
            for (g, s) in bw.grad.iter_mut().zip(&slot.grad) {
                *g += *s;
            }
        }
        let inv = 1.0 / batch.len() as f32;
        bw.grad.iter_mut().for_each(|g| *g *= inv);
        loss / batch.len() as f64
    }

    /// Mean loss and mean gradient over a batch (allocating convenience
    /// wrapper over [`SegNet::batch_loss_grad_ws`]).
    pub fn batch_loss_grad(&self, batch: &[Sample]) -> (f64, Vec<f32>) {
        let mut bw = BatchWorkspace::new(&self.cfg);
        let loss = self.batch_loss_grad_ws(batch, &mut bw);
        (loss, bw.grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::segdata::{generate, DataConfig};

    fn tiny_cfg() -> NetConfig {
        NetConfig { height: 8, width: 8, cin: 3, hidden1: 4, hidden2: 5, n_classes: 4, k: 3 }
    }

    fn tiny_sample(seed: u64) -> Sample {
        let dc = DataConfig { height: 8, width: 8, ..DataConfig::default() };
        generate(&dc, seed, 0)
    }

    #[test]
    fn shapes_and_param_count() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        assert_eq!(net.n_params(), cfg.n_params());
        assert_eq!(net.params().len(), net.n_params());
        let s = tiny_sample(2);
        assert_eq!(net.forward_logits(&s.pixels).len(), 4 * 64);
        assert_eq!(net.predict(&s.pixels).len(), 64);
    }

    #[test]
    fn params_roundtrip() {
        let cfg = tiny_cfg();
        let a = SegNet::new(cfg, 1);
        let mut b = SegNet::new(cfg, 2);
        assert_ne!(a.params(), b.params());
        b.set_params(a.params());
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn params_mut_is_the_storage() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        net.params_mut()[0] = 42.0;
        assert_eq!(net.params()[0], 42.0);
    }

    #[test]
    fn layout_blocks_partition_the_vector() {
        let cfg = tiny_cfg();
        let layout = Layout::new(&cfg);
        assert_eq!(layout.n_params(), cfg.n_params());
        let flat = vec![0.0f32; cfg.n_params()];
        let parts = layout.split(&flat);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), cfg.n_params());
        assert_eq!(parts[0].len(), 9 * 3 * 4);
        assert_eq!(parts[1].len(), 4);
        assert_eq!(parts[4].len(), 5 * 4);
        assert_eq!(parts[5].len(), 4);
    }

    #[test]
    fn loss_is_log_nclasses_at_uniform_logits() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        net.set_params(&vec![0.0; net.n_params()]);
        let (loss, _) = net.loss_grad(&tiny_sample(3));
        assert!((loss - (4.0f64).ln()).abs() < 1e-5, "loss {loss} vs ln 4");
    }

    /// The load-bearing test: analytic gradients match finite differences.
    #[test]
    fn gradient_check() {
        let cfg =
            NetConfig { height: 5, width: 5, cin: 3, hidden1: 3, hidden2: 3, n_classes: 4, k: 3 };
        let dc = DataConfig { height: 5, width: 5, ..DataConfig::default() };
        let sample = generate(&dc, 11, 0);
        // Seed chosen so no ReLU pre-activation sits within eps of its
        // kink: finite differences across a kink disagree with the
        // (one-sided) analytic gradient no matter how eps is tuned.
        let net = SegNet::new(cfg, 1);
        let (_, grad) = net.loss_grad(&sample);
        let params = net.params().to_vec();
        let eps = 3e-3f32;
        let mut checked = 0;
        // Check a spread of parameter indices across all layers.
        for idx in (0..net.n_params()).step_by(net.n_params() / 40 + 1) {
            let mut plus = net.clone();
            let mut p = params.clone();
            p[idx] += eps;
            plus.set_params(&p);
            let (lp, _) = plus.loss_grad(&sample);
            let mut minus = net.clone();
            p[idx] -= 2.0 * eps;
            minus.set_params(&p);
            let (lm, _) = minus.loss_grad(&sample);
            let numeric = ((lp - lm) / (2.0 * f64::from(eps))) as f32;
            let analytic = grad[idx];
            let denom = numeric.abs().max(analytic.abs()).max(1e-4);
            assert!(
                (numeric - analytic).abs() / denom < 0.08,
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        assert!(checked >= 30);
    }

    #[test]
    fn optimized_matches_reference_loss_grad() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 9);
        let s = tiny_sample(4);
        let (lo, go) = net.loss_grad(&s);
        let (lr, gr) = net.reference_loss_grad(&s);
        assert!((lo - lr).abs() < 1e-6, "loss {lo} vs reference {lr}");
        for (i, (a, b)) in go.iter().zip(&gr).enumerate() {
            assert!((a - b).abs() < 1e-4, "grad[{i}]: optimized {a} vs reference {b}");
        }
    }

    #[test]
    fn workspace_reuse_is_identical() {
        // The same workspace reused across samples must give bitwise
        // identical results to a fresh one (no state leaks between
        // calls).
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 9);
        let (s1, s2) = (tiny_sample(4), tiny_sample(5));
        let mut ws = Workspace::new(&cfg);
        let mut g_reused = vec![0.0f32; net.n_params()];
        net.loss_grad_acc(&s1, &mut ws, &mut g_reused);
        g_reused.fill(0.0);
        let l_reused = net.loss_grad_acc(&s2, &mut ws, &mut g_reused);
        let (l_fresh, g_fresh) = net.loss_grad(&s2);
        assert_eq!(l_reused, l_fresh);
        assert_eq!(g_reused, g_fresh);
    }

    #[test]
    fn batch_gradient_is_mean_of_samples() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        let s1 = tiny_sample(5);
        let s2 = tiny_sample(6);
        let (l1, g1) = net.loss_grad(&s1);
        let (l2, g2) = net.loss_grad(&s2);
        let (lb, gb) = net.batch_loss_grad(&[s1, s2]);
        assert!((lb - (l1 + l2) / 2.0).abs() < 1e-9);
        for i in 0..gb.len() {
            assert!((gb[i] - (g1[i] + g2[i]) / 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_workspace_reuse_is_deterministic() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        let batch: Vec<Sample> = (0..5).map(tiny_sample).collect();
        let mut bw = BatchWorkspace::new(&cfg);
        let l1 = net.batch_loss_grad_ws(&batch, &mut bw);
        let g1 = bw.grad.clone();
        let l2 = net.batch_loss_grad_ws(&batch, &mut bw);
        assert_eq!(l1, l2);
        assert_eq!(g1, bw.grad);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        let s = tiny_sample(8);
        let (l0, g) = net.loss_grad(&s);
        for (pi, gi) in net.params_mut().iter_mut().zip(&g) {
            *pi -= 2.0 * gi;
        }
        let (l1, _) = net.loss_grad(&s);
        assert!(l1 < l0, "loss must drop: {l0} -> {l1}");
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let cfg = tiny_cfg();
        assert_eq!(SegNet::new(cfg, 3).params(), SegNet::new(cfg, 3).params());
        assert_ne!(SegNet::new(cfg, 3).params(), SegNet::new(cfg, 4).params());
    }

    #[test]
    fn chunk_range_partitions() {
        for len in [1usize, 2, 7, 16] {
            for n in 1..=4usize.min(len) {
                let mut covered = 0;
                let mut prev = 0;
                for c in 0..n {
                    let r = chunk_range(len, n, c);
                    assert_eq!(r.start, prev);
                    prev = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len);
            }
        }
    }
}
