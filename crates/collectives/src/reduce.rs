//! Element-wise reduction kernels.
//!
//! Every kernel is a serial loop (AVX2 with a scalar twin): the
//! executors already run one thread per rank, and the pipelined trainer
//! spreads tile reductions over its core pool, so a reduction never
//! fans out further inside a rank.

/// Reduction applied by an allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    /// Sum followed by division by the rank count (what Horovod's
    /// gradient averaging does).
    Average,
    Max,
}

/// Serial `dst[i] += src[i]`, scalar twin of [`sum_chunk_avx2`].
// lint: hot-path
// lint: no-f64
fn sum_chunk_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

/// AVX2 twin of [`sum_chunk_scalar`] (element-wise, so bit-identical
/// to the scalar loop).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sum_chunk_avx2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(dst.len(), src.len());
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let n = dst.len();
    let mut i = 0;
    while i + 16 <= n {
        let a0 = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(sp.add(i)));
        let a1 = _mm256_add_ps(_mm256_loadu_ps(dp.add(i + 8)), _mm256_loadu_ps(sp.add(i + 8)));
        _mm256_storeu_ps(dp.add(i), a0);
        _mm256_storeu_ps(dp.add(i + 8), a1);
        i += 16;
    }
    while i + 8 <= n {
        let a = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(sp.add(i)));
        _mm256_storeu_ps(dp.add(i), a);
        i += 8;
    }
    while i < n {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

/// Serial `dst[i] = max(dst[i], src[i])`, scalar twin of
/// [`max_chunk_avx2`].
// lint: hot-path
// lint: no-f64
fn max_chunk_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.max(*s);
    }
}

/// AVX2 twin of [`max_chunk_scalar`]. `f32::max(a, b)` returns `b` when
/// `a` is NaN and the non-NaN operand otherwise; `VMAXPS` returns the
/// second operand on any NaN — passing `dst` as the second operand makes
/// the two twins agree except when **src** is NaN (gradients reduced
/// here are finite; the differential proptests generate finite inputs).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn max_chunk_avx2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(dst.len(), src.len());
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let n = dst.len();
    let mut i = 0;
    while i + 8 <= n {
        let m = _mm256_max_ps(_mm256_loadu_ps(sp.add(i)), _mm256_loadu_ps(dp.add(i)));
        _mm256_storeu_ps(dp.add(i), m);
        i += 8;
    }
    while i < n {
        *dp.add(i) = (*dp.add(i)).max(*sp.add(i));
        i += 1;
    }
}

/// Serial `x *= scale`, scalar twin of [`scale_chunk_avx2`].
// lint: hot-path
// lint: no-f64
fn scale_chunk_scalar(buf: &mut [f32], scale: f32) {
    for x in buf.iter_mut() {
        *x *= scale;
    }
}

/// AVX2 twin of [`scale_chunk_scalar`] (element-wise multiply, so
/// bit-identical to the scalar loop).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available (dispatch through
/// [`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn scale_chunk_avx2(buf: &mut [f32], scale: f32) {
    use std::arch::x86_64::*;
    let bp = buf.as_mut_ptr();
    let n = buf.len();
    let sv = _mm256_set1_ps(scale);
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(bp.add(i), _mm256_mul_ps(_mm256_loadu_ps(bp.add(i)), sv));
        i += 8;
    }
    while i < n {
        *bp.add(i) *= scale;
        i += 1;
    }
}

/// `dst[i] = dst[i] + src[i]`, with runtime dispatch over the twins.
// lint: hot-path
// lint: no-f64
pub fn combine_sum(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "segment length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { sum_chunk_avx2(dst, src) };
        return;
    }
    sum_chunk_scalar(dst, src);
}

/// `dst[i] = max(dst[i], src[i])`, with runtime dispatch over the twins.
// lint: hot-path
// lint: no-f64
pub fn combine_max(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "segment length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { max_chunk_avx2(dst, src) };
        return;
    }
    max_chunk_scalar(dst, src);
}

/// Combine according to `op`'s accumulation step (Average accumulates as
/// Sum; the final scale is applied by [`finalize`]).
// lint: hot-path
// lint: no-f64
pub fn combine(op: ReduceOp, dst: &mut [f32], src: &[f32]) {
    match op {
        ReduceOp::Sum | ReduceOp::Average => combine_sum(dst, src),
        ReduceOp::Max => combine_max(dst, src),
    }
}

/// Post-process a fully reduced buffer (scales by 1/n for Average).
// lint: hot-path
// lint: no-f64
pub fn finalize(op: ReduceOp, buf: &mut [f32], n_ranks: usize) {
    if op != ReduceOp::Average {
        return;
    }
    let inv = 1.0 / n_ranks as f32;
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { scale_chunk_avx2(buf, inv) };
        return;
    }
    scale_chunk_scalar(buf, inv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_small() {
        let mut a = vec![1.0, 2.0, 3.0];
        combine_sum(&mut a, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn sum_large() {
        let n = (1 << 15) + 17;
        let mut a = vec![1.0f32; n];
        let b = vec![2.0f32; n];
        combine_sum(&mut a, &b);
        assert!(a.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn max_combines() {
        let mut a = vec![1.0, 5.0, -2.0];
        combine_max(&mut a, &[3.0, 4.0, -1.0]);
        assert_eq!(a, vec![3.0, 5.0, -1.0]);
    }

    #[test]
    fn average_finalizes() {
        let mut a = vec![8.0, 4.0];
        finalize(ReduceOp::Average, &mut a, 4);
        assert_eq!(a, vec![2.0, 1.0]);
        let mut b = vec![8.0];
        finalize(ReduceOp::Sum, &mut b, 4);
        assert_eq!(b, vec![8.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![1.0];
        combine_sum(&mut a, &[1.0, 2.0]);
    }

    #[test]
    fn combine_dispatches_by_op() {
        let mut a = vec![1.0];
        combine(ReduceOp::Average, &mut a, &[2.0]);
        assert_eq!(a, vec![3.0]); // accumulation step is a plain sum
        let mut b = vec![1.0];
        combine(ReduceOp::Max, &mut b, &[2.0]);
        assert_eq!(b, vec![2.0]);
    }

    /// Deterministic pseudo-random value including subnormal and
    /// negative cases at the low indices.
    fn val(i: usize) -> f32 {
        match i % 5 {
            0 => f32::from_bits((i as u32).wrapping_mul(2654435761) >> 10), // subnormal-ish
            1 => -(i as f32) * 0.37,
            2 => (i as f32 * 0.001).sin(),
            3 => 1e-40 * (i as f32 + 1.0), // subnormal
            _ => i as f32 * 123.456,
        }
    }

    /// The AVX2 twins are element-wise, so on finite inputs they must be
    /// **bit-identical** to the scalar twins — at every length, covering
    /// 16/8-lane bodies, tails, and the empty slice.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_twins_match_scalar_bitwise() {
        if !simd::have_avx2_fma() {
            return; // nothing to differentiate on this host
        }
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 257] {
            let src: Vec<f32> = (0..n).map(val).collect();
            let base: Vec<f32> = (0..n).map(|i| val(i + 1000)).collect();

            let mut s = base.clone();
            let mut v = base.clone();
            sum_chunk_scalar(&mut s, &src);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { sum_chunk_avx2(&mut v, &src) };
            assert_eq!(bits(&s), bits(&v), "sum twins diverge at n={n}");

            let mut s = base.clone();
            let mut v = base.clone();
            max_chunk_scalar(&mut s, &src);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { max_chunk_avx2(&mut v, &src) };
            assert_eq!(bits(&s), bits(&v), "max twins diverge at n={n}");

            let mut s = base.clone();
            let mut v = base;
            scale_chunk_scalar(&mut s, 0.125);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { scale_chunk_avx2(&mut v, 0.125) };
            assert_eq!(bits(&s), bits(&v), "scale twins diverge at n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
