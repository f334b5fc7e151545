//! AVX2+FMA implementations of the kernels in [`super::scalar`].
//!
//! Each function mirrors its scalar reference *operation for operation*:
//! elementwise kernels run the identical per-lane expression (with
//! `vfmadd*ps` matching [`f32::mul_add`]), and reductions keep the same
//! eight lane-strided partial sums — the `ymm` accumulator *is* the scalar
//! reference's `[f32; 8]` partial array — combined with the same fixed
//! tree. Because every instruction used here is correctly rounded
//! (IEEE-754 add/sub/mul/div/fma/max/min), the results are bit-identical
//! to the scalar path for every input, NaN and signed zero included.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it, and every function is `#[target_feature]`-gated
//! so it must only be called after runtime detection (enforced by the
//! dispatch layer in [`super`]).
#![allow(unsafe_code)]

use super::{scalar, Act};
use core::arch::x86_64::{
    __m256i, _mm256_add_ps, _mm256_blendv_ps, _mm256_castps_si256, _mm256_castsi256_ps,
    _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_div_ps, _mm256_fmadd_ps, _mm256_fnmadd_ps,
    _mm256_hadd_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps,
    _mm256_min_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_ps,
    _CMP_GT_OQ, _CMP_UNORD_Q,
};

const W: usize = 8;

macro_rules! zip_kernel {
    ($name:ident, $vop:expr, $sop:expr) => {
        /// AVX2 twin of the like-named scalar reference kernel.
        ///
        /// # Safety
        ///
        /// Requires AVX2+FMA, verified by the caller via runtime detection.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub(super) unsafe fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            let n = out.len();
            assert!(a.len() >= n && b.len() >= n);
            let mut i = 0;
            while i + W <= n {
                let va = _mm256_loadu_ps(a.as_ptr().add(i));
                let vb = _mm256_loadu_ps(b.as_ptr().add(i));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), $vop(va, vb));
                i += W;
            }
            while i < n {
                out[i] = $sop(a[i], b[i]);
                i += 1;
            }
        }
    };
}

zip_kernel!(add, _mm256_add_ps, |x: f32, y: f32| x + y);
zip_kernel!(sub, _mm256_sub_ps, |x: f32, y: f32| x - y);
zip_kernel!(mul, _mm256_mul_ps, |x: f32, y: f32| x * y);
zip_kernel!(div, _mm256_div_ps, |x: f32, y: f32| x / y);

macro_rules! assign_kernel {
    ($name:ident, $vop:expr, $sop:expr) => {
        /// AVX2 twin of the like-named scalar reference kernel.
        ///
        /// # Safety
        ///
        /// Requires AVX2+FMA, verified by the caller via runtime detection.
        #[target_feature(enable = "avx2", enable = "fma")]
        pub(super) unsafe fn $name(dst: &mut [f32], src: &[f32]) {
            let n = dst.len();
            assert!(src.len() >= n);
            let mut i = 0;
            while i + W <= n {
                let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
                let vs = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), $vop(vd, vs));
                i += W;
            }
            while i < n {
                dst[i] = $sop(dst[i], src[i]);
                i += 1;
            }
        }
    };
}

assign_kernel!(add_assign, _mm256_add_ps, |d: f32, s: f32| d + s);
assign_kernel!(sub_assign, _mm256_sub_ps, |d: f32, s: f32| d - s);
assign_kernel!(mul_assign, _mm256_mul_ps, |d: f32, s: f32| d * s);

/// AVX2 twin of [`scalar::axpy`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn axpy(dst: &mut [f32], alpha: f32, x: &[f32]) {
    let n = dst.len();
    assert!(x.len() >= n);
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vx, vd));
        i += W;
    }
    while i < n {
        dst[i] = alpha.mul_add(x[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::add_prod_assign`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn add_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let n = dst.len();
    assert!(a.len() >= n && b.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vb, vd));
        i += W;
    }
    while i < n {
        dst[i] = a[i].mul_add(b[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::sub_prod_assign`] (`vfnmadd` computes the same
/// correctly-rounded `-a*b + dst` as the scalar `(-a).mul_add(b, dst)`).
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sub_prod_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    let n = dst.len();
    assert!(a.len() >= n && b.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_fnmadd_ps(va, vb, vd));
        i += W;
    }
    while i < n {
        dst[i] = (-a[i]).mul_add(b[i], dst[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::mul_add`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn mul_add(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n && b.len() >= n && c.len() >= n);
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        let vc = _mm256_loadu_ps(c.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_fmadd_ps(va, vb, vc));
        i += W;
    }
    while i < n {
        out[i] = a[i].mul_add(b[i], c[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::scale`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n);
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(va, vs));
        i += W;
    }
    while i < n {
        out[i] = a[i] * s;
        i += 1;
    }
}

/// AVX2 twin of [`scalar::scale_assign`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn scale_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    while i + W <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(vd, vs));
        i += W;
    }
    while i < n {
        dst[i] *= s;
        i += 1;
    }
}

/// AVX2 twin of [`scalar::sum`]: the `ymm` accumulator is the scalar
/// reference's `[f32; 8]` partial array; tail elements fold into their
/// `i % 8` lanes after the store, then the shared fixed tree combines.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sum(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(a.as_ptr().add(i)));
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, &v) in lanes.iter_mut().zip(&a[i..]) {
        *l += v;
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::dot`]; same lane-strided partials as [`sum`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_fmadd_ps(va, vb, acc);
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, (&x, &y)) in lanes.iter_mut().zip(a[i..n].iter().zip(&b[i..n])) {
        *l = x.mul_add(y, *l);
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::sum_sq`]; same lane-strided partials as [`sum`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn sum_sq(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + W <= n {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        acc = _mm256_fmadd_ps(va, va, acc);
        i += W;
    }
    let mut lanes = [0.0f32; W];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (l, &v) in lanes.iter_mut().zip(&a[i..]) {
        *l = v.mul_add(v, *l);
    }
    scalar::combine(&lanes)
}

/// AVX2 twin of [`scalar::matmul_row`].
///
/// Columns advance in blocks of 32 (four independent `ymm` accumulators to
/// hide FMA latency), then 8, then a scalar tail; every output element
/// still accumulates its `k` terms as one ascending-`k` fused chain
/// starting from its initial value, identical to the scalar reference.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    let k = a_row.len();
    assert!(b.len() >= k * n && out_row.len() >= n);
    if k == 0 {
        return;
    }
    let bp = b.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut j = 0;
    while j + 4 * W <= n {
        let mut c0 = _mm256_loadu_ps(op.add(j));
        let mut c1 = _mm256_loadu_ps(op.add(j + W));
        let mut c2 = _mm256_loadu_ps(op.add(j + 2 * W));
        let mut c3 = _mm256_loadu_ps(op.add(j + 3 * W));
        for (kk, &a) in a_row.iter().enumerate() {
            let va = _mm256_set1_ps(a);
            let base = bp.add(kk * n + j);
            c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base), c0);
            c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(W)), c1);
            c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(2 * W)), c2);
            c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(3 * W)), c3);
        }
        _mm256_storeu_ps(op.add(j), c0);
        _mm256_storeu_ps(op.add(j + W), c1);
        _mm256_storeu_ps(op.add(j + 2 * W), c2);
        _mm256_storeu_ps(op.add(j + 3 * W), c3);
        j += 4 * W;
    }
    while j + W <= n {
        let mut c0 = _mm256_loadu_ps(op.add(j));
        for (kk, &a) in a_row.iter().enumerate() {
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(a), _mm256_loadu_ps(bp.add(kk * n + j)), c0);
        }
        _mm256_storeu_ps(op.add(j), c0);
        j += W;
    }
    while j < n {
        out_row[j] = scalar::fma_dot_chain(a_row, 1, &b[j..], n, k, out_row[j]);
        j += 1;
    }
}

/// Builds the lane mask selecting the first `lanes` of eight `f32` lanes
/// (for `maskload`/`maskstore` on a partially-covered tile edge).
///
/// # Safety
///
/// Requires AVX2, verified by the caller via runtime detection.
#[target_feature(enable = "avx2")]
unsafe fn lane_mask(lanes: usize) -> __m256i {
    _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// AVX2 twin of [`scalar::gemm_tile`] for the 6x16 micro-tile geometry:
/// six rows of two `ymm` accumulators, fed by one broadcast of the packed
/// A panel and two loads of the packed B panel per `k` step.
///
/// Accumulators start at zero (`init`) or at the tile's current C values,
/// and every element continues its ascending-`k` fused chain — the same
/// chain as the scalar reference and the row kernel, so results stay
/// bit-identical. Rows `>= rows` compute on zero-padded A entries and are
/// never stored; columns `>= cols` are handled by masked C loads/stores
/// (panel entries there are zero-padded, C memory is never touched).
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
/// `ap`/`bp` must hold at least `kc*6` / `kc*16` elements and `c` the
/// `rows x cols` corner at row stride `ldc`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_tile_6x16(
    ap: *const f32,
    bp: *const f32,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    c: *mut f32,
    ldc: usize,
) {
    const MR: usize = 6;
    debug_assert!(rows <= MR && cols <= 2 * W && rows > 0 && cols > 0);
    let full = cols == 2 * W;
    let m0 = lane_mask(cols.min(W));
    let m1 = lane_mask(cols.saturating_sub(W));
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    if !init {
        for (r, a) in acc.iter_mut().enumerate().take(rows) {
            let p = c.add(r * ldc);
            if full {
                a[0] = _mm256_loadu_ps(p);
                a[1] = _mm256_loadu_ps(p.add(W));
            } else {
                a[0] = _mm256_maskload_ps(p, m0);
                if cols > W {
                    a[1] = _mm256_maskload_ps(p.add(W), m1);
                }
            }
        }
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(kk * 2 * W));
        let b1 = _mm256_loadu_ps(bp.add(kk * 2 * W + W));
        for (r, a) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(kk * MR + r));
            a[0] = _mm256_fmadd_ps(av, b0, a[0]);
            a[1] = _mm256_fmadd_ps(av, b1, a[1]);
        }
    }
    for (r, a) in acc.iter().enumerate().take(rows) {
        let p = c.add(r * ldc);
        if full {
            _mm256_storeu_ps(p, a[0]);
            _mm256_storeu_ps(p.add(W), a[1]);
        } else {
            _mm256_maskstore_ps(p, m0, a[0]);
            if cols > W {
                _mm256_maskstore_ps(p.add(W), m1, a[1]);
            }
        }
    }
}

/// AVX2 twin of [`scalar::dot_cols`].
///
/// Eight output columns per block share each load of `a_row`: accumulator
/// `c` is column `j + c`'s eight lane partials, fed exactly as [`dot`]
/// feeds its `ymm` (the `k % 8` tail through a lane mask and a blend, so
/// untouched lanes keep their bits). The [`scalar::combine`] tree then
/// runs for all eight columns at once: two rounds of `hadd` build
/// `(l0+l1)+(l2+l3)` and `(l4+l5)+(l6+l7)` per column in the low and high
/// 128-bit halves, and one add across the halves finishes it. Columns
/// past the last full block go through [`dot`].
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn dot_cols(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    let k = a_row.len();
    assert!(b.len() >= k * n && out_row.len() >= n);
    let k8 = k - k % W;
    let tail = lane_mask(k - k8);
    let ap = a_row.as_ptr();
    let mut j = 0;
    while j + W <= n {
        let bp = b.as_ptr().add(j * k);
        let mut acc = [_mm256_setzero_ps(); W];
        let mut kk = 0;
        while kk < k8 {
            let va = _mm256_loadu_ps(ap.add(kk));
            for (c, l) in acc.iter_mut().enumerate() {
                *l = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp.add(c * k + kk)), *l);
            }
            kk += W;
        }
        if kk < k {
            let va = _mm256_maskload_ps(ap.add(kk), tail);
            for (c, l) in acc.iter_mut().enumerate() {
                let vb = _mm256_maskload_ps(bp.add(c * k + kk), tail);
                *l = _mm256_blendv_ps(*l, _mm256_fmadd_ps(va, vb, *l), _mm256_castsi256_ps(tail));
            }
        }
        let q0 = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]), _mm256_hadd_ps(acc[2], acc[3]));
        let q1 = _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]), _mm256_hadd_ps(acc[6], acc[7]));
        let lo = _mm256_permute2f128_ps::<0x20>(q0, q1);
        let hi = _mm256_permute2f128_ps::<0x31>(q0, q1);
        _mm256_storeu_ps(out_row.as_mut_ptr().add(j), _mm256_add_ps(lo, hi));
        j += W;
    }
    while j < n {
        out_row[j] = dot(a_row, &b[j * k..j * k + k]);
        j += 1;
    }
}

/// AVX2 twin of [`scalar::tanh`]: the same clamp, fused polynomial chain
/// and division on eight lanes at a time, with NaN inputs passed through
/// bit-for-bit via an unordered-compare blend.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn tanh(a: &[f32], out: &mut [f32]) {
    let n = out.len();
    assert!(a.len() >= n);
    let clamp_hi = _mm256_set1_ps(scalar::CLAMP);
    let clamp_lo = _mm256_set1_ps(-scalar::CLAMP);
    let mut i = 0;
    while i + W <= n {
        let x = _mm256_loadu_ps(a.as_ptr().add(i));
        // max/min with the clamp constant in the second operand: NaN lanes
        // come out clamped here but are replaced by the original x below.
        let xc = _mm256_min_ps(_mm256_max_ps(x, clamp_lo), clamp_hi);
        let x2 = _mm256_mul_ps(xc, xc);
        let mut p = _mm256_set1_ps(scalar::A13);
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A11));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A9));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A7));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A5));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A3));
        p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(scalar::A1));
        let num = _mm256_mul_ps(p, xc);
        let mut q = _mm256_set1_ps(scalar::B6);
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B4));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B2));
        q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(scalar::B0));
        let t = _mm256_div_ps(num, q);
        let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_blendv_ps(t, x, nan_mask));
        i += W;
    }
    while i < n {
        out[i] = scalar::tanh_lane(a[i]);
        i += 1;
    }
}

/// AVX2 twin of [`scalar::dense_epilogue`]: the same multiply, add and
/// activation per lane. `_mm256_max_ps(v, 0)` returns its second operand
/// when `v` is NaN or a zero, which is what `v.max(0.0)` gives; the leaky
/// ReLU blends `alpha * v` under an ordered `v > 0` mask, so NaN takes
/// the `alpha * v` branch exactly as the scalar `if` does.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn dense_epilogue(
    row: &mut [f32],
    scale: Option<&[f32]>,
    shift: Option<&[f32]>,
    act: Act,
) {
    let n = row.len();
    assert!(scale.is_none_or(|s| s.len() >= n) && shift.is_none_or(|t| t.len() >= n));
    let zero = _mm256_setzero_ps();
    let valpha = _mm256_set1_ps(match act {
        Act::LeakyRelu(alpha) => alpha,
        _ => 0.0,
    });
    let rp = row.as_mut_ptr();
    let mut i = 0;
    while i + W <= n {
        let mut v = _mm256_loadu_ps(rp.add(i));
        if let Some(s) = scale {
            v = _mm256_mul_ps(v, _mm256_loadu_ps(s.as_ptr().add(i)));
        }
        if let Some(t) = shift {
            v = _mm256_add_ps(v, _mm256_loadu_ps(t.as_ptr().add(i)));
        }
        v = match act {
            Act::Identity => v,
            Act::Relu => _mm256_max_ps(v, zero),
            Act::LeakyRelu(_) => {
                let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                _mm256_blendv_ps(_mm256_mul_ps(valpha, v), v, pos)
            }
        };
        _mm256_storeu_ps(rp.add(i), v);
        i += W;
    }
    if i < n {
        scalar::dense_epilogue(&mut row[i..], scale.map(|s| &s[i..]), shift.map(|t| &t[i..]), act);
    }
}

/// AVX2 twin of [`scalar::group_max`]: eight columns per block keep their
/// running max and winning row offset in registers across the group's
/// rows. A lane updates under an ordered `v > best` mask (NaN never
/// wins, ties keep the earlier row), the same comparison the scalar loop
/// makes per element. Columns past the last full block go through the
/// scalar reference.
///
/// # Safety
///
/// Requires AVX2+FMA, verified by the caller via runtime detection.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn group_max(
    x: &[f32],
    k: usize,
    row0: usize,
    best: &mut [f32],
    arg: &mut [usize],
) {
    let cols = best.len();
    assert!(x.len() >= k * cols && arg.len() >= cols && k <= i32::MAX as usize);
    let xp = x.as_ptr();
    let mut c = 0;
    while c + W <= cols {
        let mut b = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut at = _mm256_setzero_ps(); // row offset 0 in every lane
        for j in 0..k {
            let v = _mm256_loadu_ps(xp.add(j * cols + c));
            let wins = _mm256_cmp_ps::<_CMP_GT_OQ>(v, b);
            b = _mm256_blendv_ps(b, v, wins);
            at = _mm256_blendv_ps(at, _mm256_castsi256_ps(_mm256_set1_epi32(j as i32)), wins);
        }
        _mm256_storeu_ps(best.as_mut_ptr().add(c), b);
        let mut offsets = [0i32; W];
        _mm256_storeu_si256(offsets.as_mut_ptr().cast(), _mm256_castps_si256(at));
        for (a, &j) in arg[c..c + W].iter_mut().zip(&offsets) {
            *a = row0 + j as usize;
        }
        c += W;
    }
    scalar::group_max_from(x, k, row0, c, best, arg);
}
