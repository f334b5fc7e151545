//! Property tests pinning the kernel-dispatch contract: the dispatched
//! kernels must be **bit-identical** to the pinned-order scalar reference
//! on every shape — empty slices, single elements, non-multiples of the
//! 8-lane width, and matrices with zero rows or columns.
//!
//! Each case runs the dispatched entry point on both paths (scalar forced
//! via [`kernels::set_simd_enabled`], then SIMD when the host supports it)
//! and against a direct call into [`kernels::scalar`], comparing raw `f32`
//! bits rather than values so `-0.0` vs `0.0` and NaN payload differences
//! cannot hide.

use colper_tensor::gemm::{self, Epilogue};
use colper_tensor::kernels::{self, scalar, Act};
use colper_tensor::Matrix;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global dispatch mode.
static PATH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` with SIMD forced off, then (when supported) forced on, and
/// returns both bit dumps; the caller asserts they agree with each other
/// and with the direct scalar-reference result.
fn on_both_paths(f: impl Fn() -> Vec<u32>) -> (Vec<u32>, Option<Vec<u32>>) {
    let _guard = lock();
    let was = kernels::simd_active();
    kernels::set_simd_enabled(false);
    let scalar_path = f();
    let simd_path = if kernels::simd_supported() {
        kernels::set_simd_enabled(true);
        Some(f())
    } else {
        None
    };
    kernels::set_simd_enabled(was);
    (scalar_path, simd_path)
}

/// `a * b^T` through the dispatched `matmul_nt_into`, over a dirty
/// output so a missed element shows.
fn nt_bits(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Matrix::from_fn(a.rows(), b.rows(), |_, _| f32::NAN);
    a.matmul_nt_into(b, &mut out).unwrap();
    bits(out.as_slice())
}

/// The per-element definition of `a * b^T`.
fn nt_reference(a: &Matrix, b: &Matrix) -> Vec<u32> {
    (0..a.rows())
        .flat_map(|i| (0..b.rows()).map(move |j| scalar::dot(a.row(i), b.row(j)).to_bits()))
        .collect()
}

fn arb_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    (0..=max_len).prop_flat_map(|n| proptest::collection::vec(-100.0f32..100.0, n))
}

/// A matmul driver, called by name instead of routed by shape.
type Driver = fn(&Matrix, &Matrix, &Epilogue<'_>, &mut Matrix);

/// Runs `f` under every (SIMD leg, GEMM driver) combination the host
/// supports — scalar / AVX2 / AVX-512, each handed [`gemm::row_into`] and
/// [`gemm::tiled_into`] — and returns the labelled bit dumps. The first
/// entry is always the scalar row-driver reference; callers assert every
/// other leg matches it bit for bit.
fn on_all_gemm_legs(f: impl Fn(Driver) -> Vec<u32>) -> Vec<(String, Vec<u32>)> {
    let _guard = lock();
    let was_simd = kernels::simd_active();
    let was_512 = kernels::avx512_active();
    let mut runs = Vec::new();
    for (simd, avx512) in [(false, false), (true, false), (true, true)] {
        if simd && !kernels::simd_supported() {
            continue;
        }
        if avx512 && !kernels::avx512_supported() {
            continue;
        }
        kernels::set_simd_enabled(simd);
        kernels::set_avx512_enabled(avx512);
        let drivers: [(&str, Driver); 2] = [("row", gemm::row_into), ("tiled", gemm::tiled_into)];
        for (name, driver) in drivers {
            runs.push((format!("simd={simd} avx512={avx512} driver={name}"), f(driver)));
        }
    }
    kernels::set_simd_enabled(was_simd);
    kernels::set_avx512_enabled(was_512);
    runs
}

/// `a * b` through `driver` over a dirty output (so a missed element
/// shows), then again with a scale/shift/leaky-ReLU epilogue, followed by
/// the shape-routed `at^T * b`.
fn gemm_bits(driver: Driver, a: &Matrix, at: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Matrix::from_fn(a.rows(), b.cols(), |_, _| f32::NAN);
    driver(a, b, &Epilogue::NONE, &mut out);
    let mut dump = bits(out.as_slice());
    let scale: Vec<f32> = (0..b.cols()).map(|j| 0.5 + j as f32 * 0.125).collect();
    let shift: Vec<f32> = (0..b.cols()).map(|j| (j as f32 * 0.7).sin()).collect();
    let epi = Epilogue { scale: Some(&scale), shift: Some(&shift), act: Act::LeakyRelu(0.2) };
    out.as_mut_slice().fill(f32::NAN);
    driver(a, b, &epi, &mut out);
    dump.extend(bits(out.as_slice()));
    dump.extend(bits(at.matmul_tn(b).unwrap().as_slice()));
    dump
}

/// [`bits`] with every NaN folded to one pattern: the compiler may
/// commute the operands of a scalar `*`, which moves a NaN's payload, so
/// only where NaN appears is pinned.
fn value_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// Values on a coarse grid (so ties and exact zeros are common) mixed
/// with NaN, both infinities and both zeros.
fn arb_special() -> impl Strategy<Value = f32> {
    (0u32..12, -4i32..5).prop_map(|(pick, level)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => level as f32 * 0.75,
    })
}

fn arb_act() -> impl Strategy<Value = Act> {
    (0usize..3).prop_map(|i| [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)][i])
}

proptest! {
    #[test]
    fn zip_kernels_match_scalar_reference(a in arb_vec(70), b in arb_vec(70)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference = {
            let mut bits_out = Vec::new();
            let mut out = vec![f32::NAN; n];
            scalar::add(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::sub(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::mul(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::div(a, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::mul_add(a, b, b, &mut out);
            bits_out.extend(bits(&out));
            scalar::scale(a, -2.625, &mut out);
            bits_out.extend(bits(&out));
            bits_out
        };
        let run = || {
            let mut bits_out = Vec::new();
            let mut out = vec![f32::NAN; n];
            kernels::add(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::sub(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::mul(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::div(a, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::mul_add(a, b, b, &mut out);
            bits_out.extend(bits(&out));
            kernels::scale(a, -2.625, &mut out);
            bits_out.extend(bits(&out));
            bits_out
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn accumulating_kernels_match_scalar_reference(a in arb_vec(70), b in arb_vec(70)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference = {
            let mut d = a.to_vec();
            scalar::add_assign(&mut d, b);
            scalar::sub_assign(&mut d, a);
            scalar::mul_assign(&mut d, b);
            scalar::axpy(&mut d, 0.6875, a);
            scalar::add_prod_assign(&mut d, a, b);
            scalar::sub_prod_assign(&mut d, b, a);
            scalar::scale_assign(&mut d, -0.375);
            bits(&d)
        };
        let run = || {
            let mut d = a.to_vec();
            kernels::add_assign(&mut d, b);
            kernels::sub_assign(&mut d, a);
            kernels::mul_assign(&mut d, b);
            kernels::axpy(&mut d, 0.6875, a);
            kernels::add_prod_assign(&mut d, a, b);
            kernels::sub_prod_assign(&mut d, b, a);
            kernels::scale_assign(&mut d, -0.375);
            bits(&d)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn reductions_match_scalar_reference(a in arb_vec(200), b in arb_vec(200)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference =
            vec![scalar::sum(a).to_bits(), scalar::dot(a, b).to_bits(), scalar::sum_sq(a).to_bits()];
        let run =
            || vec![kernels::sum(a).to_bits(), kernels::dot(a, b).to_bits(), kernels::sum_sq(a).to_bits()];
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn tanh_matches_scalar_reference(a in arb_vec(70)) {
        let reference = {
            let mut out = vec![f32::NAN; a.len()];
            scalar::tanh(&a, &mut out);
            bits(&out)
        };
        let run = || {
            let mut out = vec![f32::NAN; a.len()];
            kernels::tanh(&a, &mut out);
            bits(&out)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    #[test]
    fn matmul_row_matches_scalar_reference(
        k in 0usize..24,
        n in 0usize..40,
        seed in -3.0f32..3.0,
    ) {
        let a_row: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.71 + seed).sin() * 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.37 - seed).cos() * 1.5).collect();
        let reference = {
            let mut out = vec![0.25f32; n];
            scalar::matmul_row(&a_row, &b, n, &mut out);
            bits(&out)
        };
        let run = || {
            let mut out = vec![0.25f32; n];
            kernels::matmul_row(&a_row, &b, n, &mut out);
            bits(&out)
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    /// `matmul_nt` must be, element for element, the per-element dot
    /// product it replaced — `scalar::dot(a.row(i), b.row(j))` — on both
    /// dispatch legs, on shapes whose `k` and `n` straddle the 8-lane
    /// width (including `k = 0` and `n < 8`). Comparing against the
    /// reference (not only leg against leg) catches an order change both
    /// legs would share.
    #[test]
    fn matmul_nt_matches_per_element_dot(
        m in 0usize..6,
        k in 0usize..40,
        n in 0usize..40,
        seed in -2.0f32..2.0,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) as f32 * 0.43 + seed).sin());
        let b = Matrix::from_fn(n, k, |r, c| ((r * 5 + c) as f32 * 0.29 - seed).cos());
        let (scalar_path, simd_path) = on_both_paths(|| nt_bits(&a, &b));
        let reference = nt_reference(&a, &b);
        prop_assert_eq!(&scalar_path, &reference);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &reference);
        }
    }

    /// The three matmul variants, transpose and elementwise tanh at the
    /// `Matrix` level — including zero-row and zero-column operands — must
    /// not depend on which dispatch path ran them.
    #[test]
    fn matrix_ops_bit_identical_across_paths(
        m in 0usize..10,
        k in 0usize..10,
        n in 0usize..10,
        seed in -2.0f32..2.0,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) as f32 * 0.43 + seed).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) as f32 * 0.29 - seed).cos());
        let bt = b.transpose();
        let at = a.transpose();
        let run = || {
            let mut out = Vec::new();
            out.extend(bits(a.matmul(&b).unwrap().as_slice()));
            out.extend(bits(at.matmul_tn(&b).unwrap().as_slice()));
            out.extend(bits(a.matmul_nt(&bt).unwrap().as_slice()));
            out.extend(bits(a.tanh().as_slice()));
            out.extend(bits(a.transpose().as_slice()));
            out.push(a.sum().to_bits());
            out.push(a.frobenius_sq().to_bits());
            out
        };
        let (scalar_path, simd_path) = on_both_paths(run);
        if let Some(simd_path) = simd_path {
            prop_assert_eq!(&simd_path, &scalar_path);
        }
    }

    /// The tiled GEMM — on every ISA leg — must reproduce the scalar row
    /// kernel bit for bit on ragged shapes: dimensions that are not
    /// multiples of the 6x16 / 12x32 micro-tiles, zero-dimension operands,
    /// and single-row matrices. `matmul_tn` packs its transpose and then
    /// routes by shape, so it rides along.
    #[test]
    fn tiled_gemm_bit_identical_to_row_kernel_on_ragged_shapes(
        m in 0usize..40,
        k in 0usize..48,
        n in 0usize..40,
        seed in -2.0f32..2.0,
    ) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c) as f32 * 0.43 + seed).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) as f32 * 0.29 - seed).cos());
        let at = a.transpose();
        let runs = on_all_gemm_legs(|driver| gemm_bits(driver, &a, &at, &b));
        let (ref_label, reference) = &runs[0];
        prop_assert!(ref_label.contains("simd=false"));
        for (label, run) in &runs[1..] {
            prop_assert_eq!(run, reference, "leg {} diverged from {}", label, ref_label);
        }
    }
}

proptest! {
    /// The dense epilogue and the group max-pool: the dispatched
    /// kernel against the scalar reference, both called by name, on
    /// ragged widths and special values (NaN, infinities, signed zeros,
    /// ties).
    #[test]
    fn dense_and_group_max_kernels_match_scalar_reference(
        data in proptest::collection::vec(arb_special(), 0..160),
        width in 1usize..20,
        act in arb_act(),
        use_scale in proptest::bool::ANY,
        use_shift in proptest::bool::ANY,
    ) {
        let n = data.len() / 3;
        let (v, rest) = data.split_at(n);
        let (s, rest) = rest.split_at(n);
        let t = &rest[..n];
        let (scale, shift) = (use_scale.then_some(s), use_shift.then_some(t));

        let mut want = v.to_vec();
        scalar::dense_epilogue(&mut want, scale, shift, act);
        let mut got = v.to_vec();
        kernels::dense_epilogue(&mut got, scale, shift, act);
        prop_assert_eq!(value_bits(&got), value_bits(&want));

        let k = data.len() / width;
        let x = &data[..k * width];
        let (mut want, mut want_arg) = (vec![0.0; width], vec![0; width]);
        scalar::group_max(x, k, 7, &mut want, &mut want_arg);
        let (mut got, mut got_arg) = (vec![0.0; width], vec![0; width]);
        kernels::group_max(x, k, 7, &mut got, &mut got_arg);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(got_arg, want_arg);
    }
}

/// One deterministic shape that crosses every blocking boundary at once:
/// `m = 211` spans three `MC = 96` bands (the last one partial), `k = 519`
/// spans three `KC = 256` panels (exercising the accumulate-into-C reload
/// at `pc > 0`), and `n = 67` leaves partial-column micro-tiles on every
/// leg. All legs and both kernels must agree bit for bit.
#[test]
fn tiled_gemm_crosses_band_and_panel_boundaries() {
    let (m, k, n) = (211, 519, 67);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 13 + c) as f32 * 0.017).sin());
    let b = Matrix::from_fn(k, n, |r, c| ((r * 3 + c) as f32 * 0.023).cos());
    let at = a.transpose();
    let runs = on_all_gemm_legs(|driver| gemm_bits(driver, &a, &at, &b));
    let (ref_label, reference) = &runs[0];
    for (label, run) in &runs[1..] {
        assert_eq!(run, reference, "leg {label} diverged from {ref_label}");
    }
}

/// The shapes the attack step runs through `matmul_nt`: ResGCN's
/// `4096x32 * (64x32)^T` input gradient plus ragged edges (`k = 0`,
/// `n < 8`, `k` and `n` not multiples of 8). Both legs must equal the
/// per-element `scalar::dot` reference, also with the work split across
/// a worker pool.
#[test]
fn matmul_nt_attack_shapes_match_per_element_dot() {
    let pool = colper_runtime::Runtime::new(2);
    for (m, k, n) in [(4096, 32, 64), (3, 0, 5), (5, 13, 3), (17, 9, 8), (33, 64, 17)] {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 13 + c) as f32 * 0.017).sin());
        let b = Matrix::from_fn(n, k, |r, c| ((r * 3 + c) as f32 * 0.023).cos());
        let reference = nt_reference(&a, &b);
        let (scalar_path, simd_path) = on_both_paths(|| nt_bits(&a, &b));
        assert_eq!(scalar_path, reference, "scalar leg at {m}x{k}x{n}");
        if let Some(simd_path) = simd_path {
            assert_eq!(simd_path, reference, "SIMD leg at {m}x{k}x{n}");
        }
        assert_eq!(pool.install(|| nt_bits(&a, &b)), reference, "pooled at {m}x{k}x{n}");
    }
}
