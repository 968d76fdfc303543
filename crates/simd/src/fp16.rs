//! IEEE 754 binary16 conversion, implemented from scratch — the
//! numerical substance of Horovod's fp16 gradient compression.
//!
//! Round-to-nearest-even, with full handling of subnormals, overflow to
//! infinity, and NaN propagation. The slice kernels exist as
//! scalar/F16C twins dispatched through [`crate::have_f16c`]: the
//! hardware `VCVTPS2PH`/`VCVTPH2PS` conversion matches the from-scratch
//! scalar conversion bit-for-bit on every non-NaN input.
//!
//! The `collectives` compression codecs and the trainer's pipelined
//! tile reduction share this one conversion.

/// Convert an `f32` to binary16 bits (round-to-nearest-even).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a mantissa bit for NaN.
        return sign | 0x7c00 | (u16::from(mant != 0) * 0x0200);
    }
    // Unbiased exponent, rebiased for f16 (bias 15).
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow -> inf
    }
    if e <= 0 {
        // Subnormal or underflow to zero.
        if e < -10 {
            return sign;
        }
        // Implicit leading 1, shifted into subnormal position.
        let m = mant | 0x0080_0000;
        let shift = (14 - e) as u32;
        let half = m >> shift;
        // Round to nearest even on the dropped bits.
        let rem = m & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = match rem.cmp(&halfway) {
            std::cmp::Ordering::Greater => half + 1,
            std::cmp::Ordering::Equal => half + (half & 1),
            std::cmp::Ordering::Less => half,
        };
        return sign | rounded as u16;
    }
    // Normal: 10-bit mantissa, round-to-nearest-even on 13 dropped bits.
    let half = mant >> 13;
    let rem = mant & 0x1fff;
    let rounded = match rem.cmp(&0x1000) {
        std::cmp::Ordering::Greater => half + 1,
        std::cmp::Ordering::Equal => half + (half & 1),
        std::cmp::Ordering::Less => half,
    };
    let (e, rounded) = if rounded == 0x400 { (e + 1, 0) } else { (e, rounded) };
    if e >= 0x1f {
        return sign | 0x7c00;
    }
    sign | ((e as u16) << 10) | rounded as u16
}

/// Convert binary16 bits to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = u32::from(h & 0x03ff);
    let bits = match exp {
        0 => {
            if mant == 0 {
                sign // ±0
            } else {
                // Subnormal: value = mant × 2⁻²⁴. Normalize so the top
                // set bit becomes the implicit leading 1 (bit 10).
                let shift = mant.leading_zeros() - 21;
                let m = (mant << shift) & 0x03ff;
                let e = 113 - shift; // 127 + (-14 - shift)
                sign | (e << 23) | (m << 13)
            }
        }
        0x1f => sign | 0x7f80_0000 | (mant << 13), // inf / NaN
        _ => {
            let e = (i32::from(exp) - 15 + 127) as u32;
            sign | (e << 23) | (mant << 13)
        }
    };
    f32::from_bits(bits)
}

/// Round-trip one value through half precision.
pub fn roundtrip(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Serial in-place round-trip, scalar twin of [`roundtrip_slice_f16c`].
// lint: hot-path
// lint: no-f64
fn roundtrip_slice_scalar(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = roundtrip(*x);
    }
}

/// F16C twin of [`roundtrip_slice_scalar`]: `VCVTPS2PH`/`VCVTPH2PS`
/// with round-to-nearest-even, which matches the from-scratch scalar
/// conversion bit-for-bit on every non-NaN input (NaNs stay NaN but may
/// carry a different payload — the differential tests compare NaNs
/// semantically).
///
/// # Safety
/// Caller must ensure F16C (and AVX) is available (dispatch through
/// [`crate::have_f16c`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn roundtrip_slice_f16c(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    let p = xs.as_mut_ptr();
    let n = xs.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(p.add(i));
        let h = _mm256_cvtps_ph::<RNE>(v);
        _mm256_storeu_ps(p.add(i), _mm256_cvtph_ps(h));
        i += 8;
    }
    while i < n {
        *p.add(i) = roundtrip(*p.add(i));
        i += 1;
    }
}

/// In-place fp16 round-trip of a slice, dispatching over the twins.
// lint: hot-path
// lint: no-f64
pub fn roundtrip_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::have_f16c() {
        // SAFETY: the dispatch predicate just confirmed F16C.
        unsafe { roundtrip_slice_f16c(xs) };
        return;
    }
    roundtrip_slice_scalar(xs);
}

/// Serial fused finalize-compress: `x = roundtrip(x · scale)`, scalar
/// twin of [`scale_roundtrip_f16c`]. One pass where the classic path
/// needs a scale sweep plus a compress sweep.
// lint: hot-path
// lint: no-f64
fn scale_roundtrip_scalar(xs: &mut [f32], scale: f32) {
    for x in xs.iter_mut() {
        *x = roundtrip(*x * scale);
    }
}

/// F16C twin of [`scale_roundtrip_scalar`].
///
/// # Safety
/// Caller must ensure F16C (and AVX) is available (dispatch through
/// [`crate::have_f16c`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn scale_roundtrip_f16c(xs: &mut [f32], scale: f32) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    let p = xs.as_mut_ptr();
    let n = xs.len();
    let sv = _mm256_set1_ps(scale);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), sv);
        _mm256_storeu_ps(p.add(i), _mm256_cvtph_ps(_mm256_cvtps_ph::<RNE>(v)));
        i += 8;
    }
    while i < n {
        *p.add(i) = roundtrip(*p.add(i) * scale);
        i += 1;
    }
}

/// Fused `x = roundtrip(x · scale)`, dispatching over the twins.
// lint: hot-path
// lint: no-f64
pub fn scale_roundtrip(xs: &mut [f32], scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::have_f16c() {
        // SAFETY: the dispatch predicate just confirmed F16C.
        unsafe { scale_roundtrip_f16c(xs, scale) };
        return;
    }
    scale_roundtrip_scalar(xs, scale);
}

/// Serial pack to f16 bits: `dst[i] = f16(src[i])`, scalar twin of
/// [`pack_slice_f16c`]. This is the wire-encode half of the fp16 codec.
// lint: hot-path
// lint: no-f64
fn pack_slice_scalar(src: &[f32], dst: &mut [u16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(*s);
    }
}

/// F16C twin of [`pack_slice_scalar`].
///
/// # Safety
/// Caller must ensure F16C (and AVX) is available (dispatch through
/// [`crate::have_f16c`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn pack_slice_f16c(src: &[f32], dst: &mut [u16]) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    debug_assert_eq!(src.len(), dst.len());
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let n = src.len();
    let mut i = 0;
    while i + 8 <= n {
        let h = _mm256_cvtps_ph::<RNE>(_mm256_loadu_ps(sp.add(i)));
        _mm_storeu_si128(dp.add(i) as *mut __m128i, h);
        i += 8;
    }
    while i < n {
        *dp.add(i) = f32_to_f16_bits(*sp.add(i));
        i += 1;
    }
}

/// Pack a slice to f16 bit patterns, dispatching over the twins.
// lint: hot-path
// lint: no-f64
pub fn pack_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "pack length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::have_f16c() {
        // SAFETY: the dispatch predicate just confirmed F16C.
        unsafe { pack_slice_f16c(src, dst) };
        return;
    }
    pack_slice_scalar(src, dst);
}

/// Serial unpack from f16 bits, scalar twin of [`unpack_slice_f16c`].
/// This is the wire-decode half of the fp16 codec (exact).
// lint: hot-path
// lint: no-f64
fn unpack_slice_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(*s);
    }
}

/// F16C twin of [`unpack_slice_scalar`].
///
/// # Safety
/// Caller must ensure F16C (and AVX) is available (dispatch through
/// [`crate::have_f16c`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn unpack_slice_f16c(src: &[u16], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(src.len(), dst.len());
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let n = src.len();
    let mut i = 0;
    while i + 8 <= n {
        let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
        _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
        i += 8;
    }
    while i < n {
        *dp.add(i) = f16_bits_to_f32(*sp.add(i));
        i += 1;
    }
}

/// Unpack f16 bit patterns into f32, dispatching over the twins.
// lint: hot-path
// lint: no-f64
pub fn unpack_slice(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "unpack length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::have_f16c() {
        // SAFETY: the dispatch predicate just confirmed F16C.
        unsafe { unpack_slice_f16c(src, dst) };
        return;
    }
    unpack_slice_scalar(src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_survive() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.25, 65504.0] {
            assert_eq!(roundtrip(v), v, "{v} must be exactly representable");
        }
        assert!(roundtrip(0.0).is_sign_positive());
        assert!(roundtrip(-0.0).is_sign_negative());
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(-f32::INFINITY), 0xfc00);
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        // Smallest positive subnormal: 2^-24.
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
    }

    #[test]
    fn overflow_saturates_to_inf() {
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e6), 0xfc00);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // rounds past max
    }

    #[test]
    fn tiny_underflows_to_zero() {
        assert_eq!(f32_to_f16_bits(1e-9), 0x0000);
        assert_eq!(f32_to_f16_bits(-1e-9), 0x8000);
    }

    #[test]
    fn nan_propagates() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn relative_error_bound_for_normals() {
        // f16 has 11 significand bits: relative error <= 2^-11.
        let mut x = 6.1e-5f32; // just above the subnormal range
        while x < 6.0e4 {
            let r = roundtrip(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 4.9e-4, "x={x}: roundtrip {r}, rel err {rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16;
        // nearest-even rounds down to 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(roundtrip(halfway), 1.0);
        // 1 + 3·2^-11 is halfway between the 1st and 2nd f16 steps
        // (step = 2^-10); nearest-even rounds up to the 2nd step, whose
        // mantissa (2) is even.
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(roundtrip(halfway2), 1.0 + 2.0 * 2.0f32.powi(-10));
    }

    #[test]
    fn monotone_on_a_sample() {
        let mut last = f32::NEG_INFINITY;
        let mut x = -100.0f32;
        while x < 100.0 {
            let r = roundtrip(x);
            assert!(r >= last, "roundtrip must be monotone: {x}");
            last = r;
            x += 0.37;
        }
    }

    /// Deterministic f32 stress values: normals across the range,
    /// halfway rounding cases, subnormals, overflow, zeros.
    pub(crate) fn stress(i: usize) -> f32 {
        match i % 8 {
            0 => 1.0 + (i as f32) * 2.0f32.powi(-11), // halfway ladder
            1 => -(i as f32 * 0.123),
            2 => 1e-40 * (i as f32 + 1.0),        // f32 subnormal
            3 => 6.0e-8 * (i as f32 % 17.0),      // f16 subnormal range
            4 => 60000.0 + 10.0 * i as f32,       // near f16 overflow
            5 => (i as f32 * 0.001).sin() * 1e-4, // small normals
            6 => 0.0,
            _ => f32::from_bits((i as u32).wrapping_mul(0x9e3779b9) & 0x7fff_ffff),
        }
    }

    /// The hardware F16C conversion must match the from-scratch scalar
    /// RNE conversion bit-for-bit on non-NaN inputs, at every length
    /// (vector body + tail + empty), for all four kernels.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f16c_twins_match_scalar_bitwise() {
        if !crate::have_f16c() {
            return; // nothing to differentiate on this host
        }
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 257] {
            let src: Vec<f32> = (0..n).map(stress).collect();
            let src_nonnan: Vec<f32> =
                src.iter().map(|&x| if x.is_nan() { 1.0 } else { x }).collect();

            let mut s = src_nonnan.clone();
            let mut v = src_nonnan.clone();
            roundtrip_slice_scalar(&mut s);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { roundtrip_slice_f16c(&mut v) };
            assert_eq!(bits(&s), bits(&v), "roundtrip twins diverge at n={n}");

            let mut s = src_nonnan.clone();
            let mut v = src_nonnan.clone();
            scale_roundtrip_scalar(&mut s, 0.0625);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { scale_roundtrip_f16c(&mut v, 0.0625) };
            assert_eq!(bits(&s), bits(&v), "scale twins diverge at n={n}");

            let mut hs = vec![0u16; n];
            let mut hv = vec![0u16; n];
            pack_slice_scalar(&src_nonnan, &mut hs);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { pack_slice_f16c(&src_nonnan, &mut hv) };
            assert_eq!(hs, hv, "pack twins diverge at n={n}");

            let mut us = vec![0f32; n];
            let mut uv = vec![0f32; n];
            unpack_slice_scalar(&hs, &mut us);
            // SAFETY: guarded by the dispatch predicate above.
            unsafe { unpack_slice_f16c(&hs, &mut uv) };
            assert_eq!(bits(&us), bits(&uv), "unpack twins diverge at n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_kernels_match_composed_scalar_ops() {
        let finite = |x: f32| if x.is_nan() { 1.0 } else { x };
        let src: Vec<f32> = (0..100).map(stress).map(finite).collect();
        let mut xs = src.clone();
        let want: Vec<f32> = src.iter().map(|&x| roundtrip(x * 0.25)).collect();
        scale_roundtrip(&mut xs, 0.25);
        assert_eq!(xs, want);
    }

    #[test]
    fn pack_unpack_slice_roundtrips_like_scalar() {
        let finite = |x: f32| if x.is_nan() { 1.0 } else { x };
        let src: Vec<f32> = (0..300).map(stress).map(finite).collect();
        let mut h = vec![0u16; src.len()];
        pack_slice(&src, &mut h);
        let want_bits: Vec<u16> = src.iter().map(|&x| f32_to_f16_bits(x)).collect();
        assert_eq!(h, want_bits);
        let mut back = vec![0f32; src.len()];
        unpack_slice(&h, &mut back);
        let want: Vec<f32> = src.iter().map(|&x| roundtrip(x)).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn exhaustive_f16_space_roundtrips_exactly() {
        // Every finite f16 value converts to f32 and back to the same bits.
        for h in 0..=0xffffu16 {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                continue;
            }
            let back = f32_to_f16_bits(f);
            assert_eq!(back, h, "f16 bits {h:#06x} -> {f} -> {back:#06x}");
        }
    }
}
