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
//! Convolutions run as **im2col + register-blocked matmul**
//! ([`im2col`], `matmul_bias` / `matmul_dw` / `matmul_t_acc`): im2col
//! hoists the boundary handling out of the inner loops, and the matmul
//! kernels process four output rows per pass over a pixel tile so the
//! compiler autovectorizes clean FMA loops. The original naive loops are
//! retained as [`reference_conv_forward`] / [`reference_conv_backward`]
//! and property-tested equivalent (see `conv_proptests`).
//!
//! All per-sample scratch (activations, gradients, im2col matrices)
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
// im2col + register-blocked matmul kernels. Shapes: `cols` is the
// unrolled-patch matrix, `rdim = cin·k²` rows of `npix = h·w` pixels.

/// Pixel-tile width of the blocked matmul kernels: one 2 KiB cols/dout
/// row segment plus four output-row segments stay resident in L1 while
/// the reduction dimension streams past.
const PIXEL_TILE: usize = 512;

/// Length of the im2col matrix for a `cin`-channel, `k×k` convolution
/// over `npix` pixels.
pub fn im2col_len(cin: usize, k: usize, npix: usize) -> usize {
    cin * k * k * npix
}

/// Unroll same-padded `k×k` patches: `cols[(i·k+dy)·k+dx, y·w+x] =
/// input[i, y+dy-p, x+dx-p]` (zero outside the image). Row-shifted
/// memcpys, so the matmul kernels never see a boundary branch.
// lint: hot-path
// lint: no-f64
pub fn im2col(input: &[f32], cin: usize, h: usize, w: usize, k: usize, cols: &mut [f32]) {
    let npix = h * w;
    debug_assert_eq!(input.len(), cin * npix);
    debug_assert_eq!(cols.len(), im2col_len(cin, k, npix));
    let p = k / 2;
    let mut rows = cols.chunks_exact_mut(npix);
    for i in 0..cin {
        let chan = &input[i * npix..(i + 1) * npix];
        for dy in 0..k {
            let oy = dy as isize - p as isize;
            for dx in 0..k {
                let ox = dx as isize - p as isize;
                let row = rows.next().expect("cols row per (i, dy, dx)"); // lint: allow(unwrap): chunks_exact_mut yields ci*k*k rows
                for y in 0..h {
                    let dst = &mut row[y * w..(y + 1) * w];
                    let sy = y as isize + oy;
                    if sy < 0 || sy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &chan[(sy as usize) * w..(sy as usize + 1) * w];
                    if ox >= 0 {
                        let ox = ox as usize;
                        let n = w - ox;
                        dst[..n].copy_from_slice(&src[ox..]);
                        dst[n..].fill(0.0);
                    } else {
                        let sx = (-ox) as usize;
                        let n = w - sx;
                        dst[..sx].fill(0.0);
                        dst[sx..].copy_from_slice(&src[..n]);
                    }
                }
            }
        }
    }
}

/// Inverse scatter of [`im2col`]: `dinput[i, y+dy-p, x+dx-p] +=
/// dcols[(i·k+dy)·k+dx, y·w+x]`, accumulating into `dinput`.
// lint: hot-path
// lint: no-f64
pub fn col2im_acc(dcols: &[f32], cin: usize, h: usize, w: usize, k: usize, dinput: &mut [f32]) {
    let npix = h * w;
    debug_assert_eq!(dinput.len(), cin * npix);
    debug_assert_eq!(dcols.len(), im2col_len(cin, k, npix));
    let p = k / 2;
    let mut rows = dcols.chunks_exact(npix);
    for i in 0..cin {
        let chan = &mut dinput[i * npix..(i + 1) * npix];
        for dy in 0..k {
            let oy = dy as isize - p as isize;
            for dx in 0..k {
                let ox = dx as isize - p as isize;
                let row = rows.next().expect("dcols row per (i, dy, dx)"); // lint: allow(unwrap): chunks_exact yields ci*k*k rows
                for y in 0..h {
                    let sy = y as isize + oy;
                    if sy < 0 || sy >= h as isize {
                        continue;
                    }
                    let src = &row[y * w..(y + 1) * w];
                    let dst = &mut chan[(sy as usize) * w..(sy as usize + 1) * w];
                    if ox >= 0 {
                        let ox = ox as usize;
                        let n = w - ox;
                        for (d, s) in dst[ox..].iter_mut().zip(&src[..n]) {
                            *d += *s;
                        }
                    } else {
                        let sx = (-ox) as usize;
                        let n = w - sx;
                        for (d, s) in dst[..n].iter_mut().zip(&src[sx..]) {
                            *d += *s;
                        }
                    }
                }
            }
        }
    }
}

/// Four disjoint `npix`-wide rows of `buf` starting at row `o`.
// lint: hot-path
// lint: no-f64
#[inline]
fn four_rows(buf: &mut [f32], npix: usize, o: usize) -> [&mut [f32]; 4] {
    let rest = &mut buf[o * npix..];
    let (r0, rest) = rest.split_at_mut(npix);
    let (r1, rest) = rest.split_at_mut(npix);
    let (r2, rest) = rest.split_at_mut(npix);
    let (r3, _) = rest.split_at_mut(npix);
    [r0, r1, r2, r3]
}

/// `out[o, p] = bias[o] + Σ_r w[o, r]·cols[r, p]` (then optional ReLU)
/// — the forward matmul, scalar twin of [`matmul_bias_avx2`].
///
/// Blocked two ways: pixel tiles of [`PIXEL_TILE`] keep the working set
/// in L1, and four output rows advance together so each cols element
/// loaded feeds four FMAs.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn matmul_bias_scalar(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(out.len(), cout * npix);
    debug_assert_eq!(bias.len(), cout);
    for (o, row) in out.chunks_exact_mut(npix).enumerate() {
        row.fill(bias[o]);
    }
    let mut p0 = 0;
    while p0 < npix {
        let pt = PIXEL_TILE.min(npix - p0);
        let mut o = 0;
        while o + 4 <= cout {
            let [r0, r1, r2, r3] = four_rows(out, npix, o);
            let (t0, t1, t2, t3) = (
                &mut r0[p0..p0 + pt],
                &mut r1[p0..p0 + pt],
                &mut r2[p0..p0 + pt],
                &mut r3[p0..p0 + pt],
            );
            for r in 0..rdim {
                let c = &cols[r * npix + p0..r * npix + p0 + pt];
                let w0 = w[o * rdim + r];
                let w1 = w[(o + 1) * rdim + r];
                let w2 = w[(o + 2) * rdim + r];
                let w3 = w[(o + 3) * rdim + r];
                for p in 0..pt {
                    let cv = c[p];
                    t0[p] += w0 * cv;
                    t1[p] += w1 * cv;
                    t2[p] += w2 * cv;
                    t3[p] += w3 * cv;
                }
            }
            o += 4;
        }
        while o < cout {
            let t = &mut out[o * npix + p0..o * npix + p0 + pt];
            for r in 0..rdim {
                let c = &cols[r * npix + p0..r * npix + p0 + pt];
                let wv = w[o * rdim + r];
                for p in 0..pt {
                    t[p] += wv * c[p];
                }
            }
            o += 1;
        }
        p0 += pt;
    }
    if relu {
        out.iter_mut().for_each(|x| *x = x.max(0.0));
    }
}

/// AVX2+FMA twin of [`matmul_bias_scalar`]: a 4-output-row ×
/// 16-pixel register tile (8 YMM accumulators seeded with the bias)
/// with the reduction dimension streaming through broadcasts, ReLU
/// applied in-register before the single store of each output block.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_bias_avx2(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(out.len(), cout * npix);
    debug_assert_eq!(bias.len(), cout);
    let wp = w.as_ptr();
    let cp = cols.as_ptr();
    let op = out.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    let mut o = 0;
    while o + 4 <= cout {
        let b0 = _mm256_set1_ps(*bias.get_unchecked(o));
        let b1 = _mm256_set1_ps(*bias.get_unchecked(o + 1));
        let b2 = _mm256_set1_ps(*bias.get_unchecked(o + 2));
        let b3 = _mm256_set1_ps(*bias.get_unchecked(o + 3));
        let mut p = 0;
        while p + 16 <= npix {
            let mut a00 = b0;
            let mut a01 = b0;
            let mut a10 = b1;
            let mut a11 = b1;
            let mut a20 = b2;
            let mut a21 = b2;
            let mut a30 = b3;
            let mut a31 = b3;
            for r in 0..rdim {
                let c0 = _mm256_loadu_ps(cp.add(r * npix + p));
                let c1 = _mm256_loadu_ps(cp.add(r * npix + p + 8));
                let w0 = _mm256_set1_ps(*wp.add(o * rdim + r));
                a00 = _mm256_fmadd_ps(w0, c0, a00);
                a01 = _mm256_fmadd_ps(w0, c1, a01);
                let w1 = _mm256_set1_ps(*wp.add((o + 1) * rdim + r));
                a10 = _mm256_fmadd_ps(w1, c0, a10);
                a11 = _mm256_fmadd_ps(w1, c1, a11);
                let w2 = _mm256_set1_ps(*wp.add((o + 2) * rdim + r));
                a20 = _mm256_fmadd_ps(w2, c0, a20);
                a21 = _mm256_fmadd_ps(w2, c1, a21);
                let w3 = _mm256_set1_ps(*wp.add((o + 3) * rdim + r));
                a30 = _mm256_fmadd_ps(w3, c0, a30);
                a31 = _mm256_fmadd_ps(w3, c1, a31);
            }
            if relu {
                a00 = _mm256_max_ps(a00, zero);
                a01 = _mm256_max_ps(a01, zero);
                a10 = _mm256_max_ps(a10, zero);
                a11 = _mm256_max_ps(a11, zero);
                a20 = _mm256_max_ps(a20, zero);
                a21 = _mm256_max_ps(a21, zero);
                a30 = _mm256_max_ps(a30, zero);
                a31 = _mm256_max_ps(a31, zero);
            }
            _mm256_storeu_ps(op.add(o * npix + p), a00);
            _mm256_storeu_ps(op.add(o * npix + p + 8), a01);
            _mm256_storeu_ps(op.add((o + 1) * npix + p), a10);
            _mm256_storeu_ps(op.add((o + 1) * npix + p + 8), a11);
            _mm256_storeu_ps(op.add((o + 2) * npix + p), a20);
            _mm256_storeu_ps(op.add((o + 2) * npix + p + 8), a21);
            _mm256_storeu_ps(op.add((o + 3) * npix + p), a30);
            _mm256_storeu_ps(op.add((o + 3) * npix + p + 8), a31);
            p += 16;
        }
        while p + 8 <= npix {
            let mut a0 = b0;
            let mut a1 = b1;
            let mut a2 = b2;
            let mut a3 = b3;
            for r in 0..rdim {
                let c = _mm256_loadu_ps(cp.add(r * npix + p));
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add(o * rdim + r)), c, a0);
                a1 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add((o + 1) * rdim + r)), c, a1);
                a2 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add((o + 2) * rdim + r)), c, a2);
                a3 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add((o + 3) * rdim + r)), c, a3);
            }
            if relu {
                a0 = _mm256_max_ps(a0, zero);
                a1 = _mm256_max_ps(a1, zero);
                a2 = _mm256_max_ps(a2, zero);
                a3 = _mm256_max_ps(a3, zero);
            }
            _mm256_storeu_ps(op.add(o * npix + p), a0);
            _mm256_storeu_ps(op.add((o + 1) * npix + p), a1);
            _mm256_storeu_ps(op.add((o + 2) * npix + p), a2);
            _mm256_storeu_ps(op.add((o + 3) * npix + p), a3);
            p += 8;
        }
        while p < npix {
            for j in 0..4 {
                let mut acc = *bias.get_unchecked(o + j);
                for r in 0..rdim {
                    acc = (*wp.add((o + j) * rdim + r)).mul_add(*cp.add(r * npix + p), acc);
                }
                if relu {
                    acc = acc.max(0.0);
                }
                *op.add((o + j) * npix + p) = acc;
            }
            p += 1;
        }
        o += 4;
    }
    while o < cout {
        let bo = _mm256_set1_ps(*bias.get_unchecked(o));
        let mut p = 0;
        while p + 16 <= npix {
            let mut a0 = bo;
            let mut a1 = bo;
            for r in 0..rdim {
                let wv = _mm256_set1_ps(*wp.add(o * rdim + r));
                a0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(cp.add(r * npix + p)), a0);
                a1 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(cp.add(r * npix + p + 8)), a1);
            }
            if relu {
                a0 = _mm256_max_ps(a0, zero);
                a1 = _mm256_max_ps(a1, zero);
            }
            _mm256_storeu_ps(op.add(o * npix + p), a0);
            _mm256_storeu_ps(op.add(o * npix + p + 8), a1);
            p += 16;
        }
        while p + 8 <= npix {
            let mut a0 = bo;
            for r in 0..rdim {
                let wv = _mm256_set1_ps(*wp.add(o * rdim + r));
                a0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(cp.add(r * npix + p)), a0);
            }
            if relu {
                a0 = _mm256_max_ps(a0, zero);
            }
            _mm256_storeu_ps(op.add(o * npix + p), a0);
            p += 8;
        }
        while p < npix {
            let mut acc = *bias.get_unchecked(o);
            for r in 0..rdim {
                acc = (*wp.add(o * rdim + r)).mul_add(*cp.add(r * npix + p), acc);
            }
            if relu {
                acc = acc.max(0.0);
            }
            *op.add(o * npix + p) = acc;
            p += 1;
        }
        o += 1;
    }
}

/// Runtime dispatch over the [`matmul_bias_scalar`] /
/// [`matmul_bias_avx2`] twins. `relu` fuses the activation into the
/// same pass (one store per output element instead of a second sweep).
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn matmul_bias(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_bias_avx2(w, cols, rdim, npix, cout, bias, relu, out) };
        return;
    }
    matmul_bias_scalar(w, cols, rdim, npix, cout, bias, relu, out);
}

/// Eight-lane dot product: independent partial sums so the reduction
/// autovectorizes (a strict sequential sum cannot be reassociated).
// lint: hot-path
// lint: no-f64
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let rem = a.len() - a.len() % 8;
    let mut tail = 0.0f32;
    for (x, y) in a[rem..].iter().zip(&b[rem..]) {
        tail += x * y;
    }
    lanes.iter().sum::<f32>() + tail
}

/// `dw[o, r] += Σ_p dout[o, p]·cols[r, p]` — the weight-gradient
/// matmul, scalar twin of [`matmul_dw_avx2`].
///
/// Loop order keeps each cols row L1-hot across all `cout` dot products.
// lint: hot-path
// lint: no-f64
fn matmul_dw_scalar(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    debug_assert_eq!(dw.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    for r in 0..rdim {
        let c = &cols[r * npix..(r + 1) * npix];
        for o in 0..cout {
            dw[o * rdim + r] += dot(&dout[o * npix..(o + 1) * npix], c);
        }
    }
}

/// Sum the eight lanes of a YMM register through a stack spill — the
/// same reassociation as the scalar [`dot`]'s `lanes.iter().sum()`.
#[cfg(target_arch = "x86_64")]
macro_rules! hsum8 {
    ($v:expr) => {{
        let mut buf = [0.0f32; 8];
        _mm256_storeu_ps(buf.as_mut_ptr(), $v);
        buf.iter().sum::<f32>()
    }};
}

/// AVX2+FMA twin of [`matmul_dw_scalar`]: a 4-output-channel ×
/// 2-reduction-row block keeps 8 YMM accumulators live while the pixel
/// dimension streams; each accumulator collapses to one `dw` entry at
/// block end, so the inner loop has no horizontal operations.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_dw_avx2(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(dw.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    let dp = dout.as_ptr();
    let cp = cols.as_ptr();
    let gp = dw.as_mut_ptr();
    let mut o = 0;
    while o + 4 <= cout {
        let mut r = 0;
        while r + 2 <= rdim {
            let mut a00 = _mm256_setzero_ps();
            let mut a01 = _mm256_setzero_ps();
            let mut a10 = _mm256_setzero_ps();
            let mut a11 = _mm256_setzero_ps();
            let mut a20 = _mm256_setzero_ps();
            let mut a21 = _mm256_setzero_ps();
            let mut a30 = _mm256_setzero_ps();
            let mut a31 = _mm256_setzero_ps();
            let mut p = 0;
            while p + 8 <= npix {
                let c0 = _mm256_loadu_ps(cp.add(r * npix + p));
                let c1 = _mm256_loadu_ps(cp.add((r + 1) * npix + p));
                let d0 = _mm256_loadu_ps(dp.add(o * npix + p));
                a00 = _mm256_fmadd_ps(d0, c0, a00);
                a01 = _mm256_fmadd_ps(d0, c1, a01);
                let d1 = _mm256_loadu_ps(dp.add((o + 1) * npix + p));
                a10 = _mm256_fmadd_ps(d1, c0, a10);
                a11 = _mm256_fmadd_ps(d1, c1, a11);
                let d2 = _mm256_loadu_ps(dp.add((o + 2) * npix + p));
                a20 = _mm256_fmadd_ps(d2, c0, a20);
                a21 = _mm256_fmadd_ps(d2, c1, a21);
                let d3 = _mm256_loadu_ps(dp.add((o + 3) * npix + p));
                a30 = _mm256_fmadd_ps(d3, c0, a30);
                a31 = _mm256_fmadd_ps(d3, c1, a31);
                p += 8;
            }
            let mut t = [[0.0f32; 2]; 4];
            while p < npix {
                let cv0 = *cp.add(r * npix + p);
                let cv1 = *cp.add((r + 1) * npix + p);
                for (j, tj) in t.iter_mut().enumerate() {
                    let dv = *dp.add((o + j) * npix + p);
                    tj[0] = dv.mul_add(cv0, tj[0]);
                    tj[1] = dv.mul_add(cv1, tj[1]);
                }
                p += 1;
            }
            *gp.add(o * rdim + r) += hsum8!(a00) + t[0][0];
            *gp.add(o * rdim + r + 1) += hsum8!(a01) + t[0][1];
            *gp.add((o + 1) * rdim + r) += hsum8!(a10) + t[1][0];
            *gp.add((o + 1) * rdim + r + 1) += hsum8!(a11) + t[1][1];
            *gp.add((o + 2) * rdim + r) += hsum8!(a20) + t[2][0];
            *gp.add((o + 2) * rdim + r + 1) += hsum8!(a21) + t[2][1];
            *gp.add((o + 3) * rdim + r) += hsum8!(a30) + t[3][0];
            *gp.add((o + 3) * rdim + r + 1) += hsum8!(a31) + t[3][1];
            r += 2;
        }
        if r < rdim {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut p = 0;
            while p + 8 <= npix {
                let c0 = _mm256_loadu_ps(cp.add(r * npix + p));
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(dp.add(o * npix + p)), c0, a0);
                a1 = _mm256_fmadd_ps(_mm256_loadu_ps(dp.add((o + 1) * npix + p)), c0, a1);
                a2 = _mm256_fmadd_ps(_mm256_loadu_ps(dp.add((o + 2) * npix + p)), c0, a2);
                a3 = _mm256_fmadd_ps(_mm256_loadu_ps(dp.add((o + 3) * npix + p)), c0, a3);
                p += 8;
            }
            let mut t = [0.0f32; 4];
            while p < npix {
                let cv = *cp.add(r * npix + p);
                for (j, tj) in t.iter_mut().enumerate() {
                    *tj = (*dp.add((o + j) * npix + p)).mul_add(cv, *tj);
                }
                p += 1;
            }
            *gp.add(o * rdim + r) += hsum8!(a0) + t[0];
            *gp.add((o + 1) * rdim + r) += hsum8!(a1) + t[1];
            *gp.add((o + 2) * rdim + r) += hsum8!(a2) + t[2];
            *gp.add((o + 3) * rdim + r) += hsum8!(a3) + t[3];
        }
        o += 4;
    }
    while o < cout {
        for r in 0..rdim {
            let mut acc = _mm256_setzero_ps();
            let mut p = 0;
            while p + 8 <= npix {
                acc = _mm256_fmadd_ps(
                    _mm256_loadu_ps(dp.add(o * npix + p)),
                    _mm256_loadu_ps(cp.add(r * npix + p)),
                    acc,
                );
                p += 8;
            }
            let mut tail = 0.0f32;
            while p < npix {
                tail = (*dp.add(o * npix + p)).mul_add(*cp.add(r * npix + p), tail);
                p += 1;
            }
            *gp.add(o * rdim + r) += hsum8!(acc) + tail;
        }
        o += 1;
    }
}

/// Runtime dispatch over the [`matmul_dw_scalar`] / [`matmul_dw_avx2`]
/// twins.
// lint: hot-path
// lint: no-f64
fn matmul_dw(dout: &[f32], cols: &[f32], rdim: usize, npix: usize, cout: usize, dw: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_dw_avx2(dout, cols, rdim, npix, cout, dw) };
        return;
    }
    matmul_dw_scalar(dout, cols, rdim, npix, cout, dw);
}

/// `dcols[r, p] += Σ_o w[o, r]·dout[o, p]` — the input-gradient
/// (transposed) matmul, same tiling as [`matmul_bias_scalar`] with the
/// roles of output channels and cols rows swapped. Scalar twin of
/// [`matmul_t_acc_avx2`].
// lint: hot-path
// lint: no-f64
fn matmul_t_acc_scalar(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dcols: &mut [f32],
) {
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(dcols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    let mut p0 = 0;
    while p0 < npix {
        let pt = PIXEL_TILE.min(npix - p0);
        let mut r = 0;
        while r + 4 <= rdim {
            let [t0, t1, t2, t3] = four_rows(dcols, npix, r);
            let (t0, t1, t2, t3) = (
                &mut t0[p0..p0 + pt],
                &mut t1[p0..p0 + pt],
                &mut t2[p0..p0 + pt],
                &mut t3[p0..p0 + pt],
            );
            for o in 0..cout {
                let d = &dout[o * npix + p0..o * npix + p0 + pt];
                let w0 = w[o * rdim + r];
                let w1 = w[o * rdim + r + 1];
                let w2 = w[o * rdim + r + 2];
                let w3 = w[o * rdim + r + 3];
                for p in 0..pt {
                    let dv = d[p];
                    t0[p] += w0 * dv;
                    t1[p] += w1 * dv;
                    t2[p] += w2 * dv;
                    t3[p] += w3 * dv;
                }
            }
            r += 4;
        }
        while r < rdim {
            let t = &mut dcols[r * npix + p0..r * npix + p0 + pt];
            for o in 0..cout {
                let d = &dout[o * npix + p0..o * npix + p0 + pt];
                let wv = w[o * rdim + r];
                for p in 0..pt {
                    t[p] += wv * d[p];
                }
            }
            r += 1;
        }
        p0 += pt;
    }
}

/// AVX2+FMA twin of [`matmul_t_acc_scalar`]: 4 cols rows × 16 pixels
/// of accumulators loaded from `dcols` (the kernel accumulates), the
/// output-channel dimension streaming through weight broadcasts.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_t_acc_avx2(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dcols: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(dcols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    let wp = w.as_ptr();
    let dp = dout.as_ptr();
    let tp = dcols.as_mut_ptr();
    let mut r = 0;
    while r + 4 <= rdim {
        let mut p = 0;
        while p + 16 <= npix {
            let mut a00 = _mm256_loadu_ps(tp.add(r * npix + p));
            let mut a01 = _mm256_loadu_ps(tp.add(r * npix + p + 8));
            let mut a10 = _mm256_loadu_ps(tp.add((r + 1) * npix + p));
            let mut a11 = _mm256_loadu_ps(tp.add((r + 1) * npix + p + 8));
            let mut a20 = _mm256_loadu_ps(tp.add((r + 2) * npix + p));
            let mut a21 = _mm256_loadu_ps(tp.add((r + 2) * npix + p + 8));
            let mut a30 = _mm256_loadu_ps(tp.add((r + 3) * npix + p));
            let mut a31 = _mm256_loadu_ps(tp.add((r + 3) * npix + p + 8));
            for o in 0..cout {
                let d0 = _mm256_loadu_ps(dp.add(o * npix + p));
                let d1 = _mm256_loadu_ps(dp.add(o * npix + p + 8));
                let w0 = _mm256_set1_ps(*wp.add(o * rdim + r));
                a00 = _mm256_fmadd_ps(w0, d0, a00);
                a01 = _mm256_fmadd_ps(w0, d1, a01);
                let w1 = _mm256_set1_ps(*wp.add(o * rdim + r + 1));
                a10 = _mm256_fmadd_ps(w1, d0, a10);
                a11 = _mm256_fmadd_ps(w1, d1, a11);
                let w2 = _mm256_set1_ps(*wp.add(o * rdim + r + 2));
                a20 = _mm256_fmadd_ps(w2, d0, a20);
                a21 = _mm256_fmadd_ps(w2, d1, a21);
                let w3 = _mm256_set1_ps(*wp.add(o * rdim + r + 3));
                a30 = _mm256_fmadd_ps(w3, d0, a30);
                a31 = _mm256_fmadd_ps(w3, d1, a31);
            }
            _mm256_storeu_ps(tp.add(r * npix + p), a00);
            _mm256_storeu_ps(tp.add(r * npix + p + 8), a01);
            _mm256_storeu_ps(tp.add((r + 1) * npix + p), a10);
            _mm256_storeu_ps(tp.add((r + 1) * npix + p + 8), a11);
            _mm256_storeu_ps(tp.add((r + 2) * npix + p), a20);
            _mm256_storeu_ps(tp.add((r + 2) * npix + p + 8), a21);
            _mm256_storeu_ps(tp.add((r + 3) * npix + p), a30);
            _mm256_storeu_ps(tp.add((r + 3) * npix + p + 8), a31);
            p += 16;
        }
        while p + 8 <= npix {
            let mut a0 = _mm256_loadu_ps(tp.add(r * npix + p));
            let mut a1 = _mm256_loadu_ps(tp.add((r + 1) * npix + p));
            let mut a2 = _mm256_loadu_ps(tp.add((r + 2) * npix + p));
            let mut a3 = _mm256_loadu_ps(tp.add((r + 3) * npix + p));
            for o in 0..cout {
                let d = _mm256_loadu_ps(dp.add(o * npix + p));
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add(o * rdim + r)), d, a0);
                a1 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add(o * rdim + r + 1)), d, a1);
                a2 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add(o * rdim + r + 2)), d, a2);
                a3 = _mm256_fmadd_ps(_mm256_set1_ps(*wp.add(o * rdim + r + 3)), d, a3);
            }
            _mm256_storeu_ps(tp.add(r * npix + p), a0);
            _mm256_storeu_ps(tp.add((r + 1) * npix + p), a1);
            _mm256_storeu_ps(tp.add((r + 2) * npix + p), a2);
            _mm256_storeu_ps(tp.add((r + 3) * npix + p), a3);
            p += 8;
        }
        while p < npix {
            for j in 0..4 {
                let mut acc = *tp.add((r + j) * npix + p);
                for o in 0..cout {
                    acc = (*wp.add(o * rdim + r + j)).mul_add(*dp.add(o * npix + p), acc);
                }
                *tp.add((r + j) * npix + p) = acc;
            }
            p += 1;
        }
        r += 4;
    }
    while r < rdim {
        let mut p = 0;
        while p + 8 <= npix {
            let mut a0 = _mm256_loadu_ps(tp.add(r * npix + p));
            for o in 0..cout {
                let wv = _mm256_set1_ps(*wp.add(o * rdim + r));
                a0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(dp.add(o * npix + p)), a0);
            }
            _mm256_storeu_ps(tp.add(r * npix + p), a0);
            p += 8;
        }
        while p < npix {
            let mut acc = *tp.add(r * npix + p);
            for o in 0..cout {
                acc = (*wp.add(o * rdim + r)).mul_add(*dp.add(o * npix + p), acc);
            }
            *tp.add(r * npix + p) = acc;
            p += 1;
        }
        r += 1;
    }
}

/// Runtime dispatch over the [`matmul_t_acc_scalar`] /
/// [`matmul_t_acc_avx2`] twins.
// lint: hot-path
// lint: no-f64
fn matmul_t_acc(w: &[f32], dout: &[f32], rdim: usize, npix: usize, cout: usize, dcols: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_t_acc_avx2(w, dout, rdim, npix, cout, dcols) };
        return;
    }
    matmul_t_acc_scalar(w, dout, rdim, npix, cout, dcols);
}

/// Optimized convolution forward: im2col into `cols` (caller-provided,
/// [`im2col_len`]-sized; unused for `k == 1`), then blocked matmul.
/// `relu` fuses `max(0, ·)` into the matmul's output store.
/// Numerically equivalent to [`reference_conv_forward`] (plus a ReLU
/// pass when requested) up to float summation order.
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
    cols: &mut [f32],
    out: &mut [f32],
) {
    let npix = h * w;
    let rdim = cin * k * k;
    if k == 1 {
        // 1×1 convolution: the input already is the cols matrix.
        matmul_bias(weights, input, rdim, npix, cout, bias, relu, out);
        return;
    }
    im2col(input, cin, h, w, k, cols);
    matmul_bias(weights, cols, rdim, npix, cout, bias, relu, out);
}

/// Optimized convolution backward. `cols` must hold the im2col of the
/// layer input (left over from [`conv_forward`], ignored for `k == 1`);
/// `dcols` is scratch for the input gradient (ignored when `dinput` is
/// `None` or `k == 1`). Accumulates into `dw` / `db` / `dinput` like
/// the reference.
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
    cols: &[f32],
    dcols: &mut [f32],
    dw: &mut [f32],
    db: &mut [f32],
    dinput: Option<&mut [f32]>,
) {
    let npix = h * w;
    let rdim = cin * k * k;
    for (o, bo) in db.iter_mut().enumerate() {
        let row = &dout[o * npix..(o + 1) * npix];
        // Eight-lane sum, same reassociation as `dot`.
        let mut lanes = [0.0f32; 8];
        for ch in row.chunks_exact(8) {
            for l in 0..8 {
                lanes[l] += ch[l];
            }
        }
        let rem = row.len() - row.len() % 8;
        *bo += lanes.iter().sum::<f32>() + row[rem..].iter().sum::<f32>();
    }
    let cols = if k == 1 { input } else { cols };
    matmul_dw(dout, cols, rdim, npix, cout, dw);
    if let Some(din) = dinput {
        if k == 1 {
            matmul_t_acc(weights, dout, rdim, npix, cout, din);
        } else {
            dcols.fill(0.0);
            matmul_t_acc(weights, dout, rdim, npix, cout, dcols);
            col2im_acc(dcols, cin, h, w, k, din);
        }
    }
}

// --------------------------------------------------------------- workspace

/// Reusable per-sample scratch for [`SegNet::loss_grad_acc`]: forward
/// activations, backward gradients, and the im2col matrices of both
/// k×k layers. Constructing one allocates everything the hot path
/// needs; using it allocates nothing.
#[derive(Debug, Clone)]
pub struct Workspace {
    a1: Vec<f32>,
    a2: Vec<f32>,
    /// Logits on the way forward, `dlogits` after the softmax backward.
    dlogits: Vec<f32>,
    da1: Vec<f32>,
    da2: Vec<f32>,
    cols1: Vec<f32>,
    cols2: Vec<f32>,
    dcols: Vec<f32>,
}

impl Workspace {
    pub fn new(cfg: &NetConfig) -> Self {
        let npix = cfg.height * cfg.width;
        Workspace {
            a1: vec![0.0; cfg.hidden1 * npix],
            a2: vec![0.0; cfg.hidden2 * npix],
            dlogits: vec![0.0; cfg.n_classes * npix],
            da1: vec![0.0; cfg.hidden1 * npix],
            da2: vec![0.0; cfg.hidden2 * npix],
            cols1: vec![0.0; im2col_len(cfg.cin, cfg.k, npix)],
            cols2: vec![0.0; im2col_len(cfg.hidden1, cfg.k, npix)],
            dcols: vec![0.0; im2col_len(cfg.hidden1, cfg.k, npix)],
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
        // ReLU is fused into the matmul's output store (`relu: true`).
        conv_forward(pixels, c.cin, h, w, w1, b1, c.k, c.hidden1, true, &mut ws.cols1, &mut ws.a1);
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
            &mut ws.cols2,
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
            &mut ws.dcols,
            &mut ws.dlogits,
        );
    }

    /// Argmax class map.
    pub fn predict(&self, pixels: &[f32]) -> Vec<u8> {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let logits = self.forward_logits(pixels);
        (0..h * w)
            .map(|i| {
                (0..c.n_classes)
                    .max_by(|&a, &b| logits[a * h * w + i].total_cmp(&logits[b * h * w + i]))
                    .expect("at least one class") as u8 // lint: allow(unwrap): n_classes >= 1 is validated at construction
            })
            .collect()
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
        for (d, &a) in ws.da2.iter_mut().zip(&ws.a2) {
            if a <= 0.0 {
                *d = 0.0;
            }
        }
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
            &ws.cols2,
            &mut ws.dcols,
            gw2,
            gb2,
            Some(&mut ws.da1),
        );
        for (d, &a) in ws.da1.iter_mut().zip(&ws.a1) {
            if a <= 0.0 {
                *d = 0.0;
            }
        }
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
            &ws.cols1,
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
