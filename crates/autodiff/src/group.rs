//! Row-major kernels for grouped max and softmax over consecutive groups
//! of `k` rows of a `[G*k, C]` row-major slice. The max-pool's per-group
//! loop is the dispatched [`kernels::group_max`] (scalar reference plus
//! AVX2 twin); the softmax loops live here.
//!
//! The recording constructors (`ops_struct.rs`), the schedule replay
//! (`schedule.rs`) and `step_backward` all call these, so each op has one
//! body. Rows are walked in order with the columns innermost; every
//! `(group, column)` still sees its `k` rows in ascending order with the
//! same operations as a column-at-a-time loop (`>` with first-occurrence
//! argmax, `f32::max`, `exp`, sums in row order), so results do not
//! depend on the loop order.
//!
//! Per-column running values (softmax max, denominator and backward dot)
//! live in fixed stack blocks of [`BLOCK`] columns, so no call allocates.
//! A zero-column input is a no-op.

use colper_tensor::kernels;

/// Columns per stack block of per-column running values.
const BLOCK: usize = 64;

/// Max-pool: `out[g][c] = max_j x[g*k + j][c]`, with `argmax[g*C + c]`
/// the first row reaching it (`g*k` when no row beats `-inf`). Each
/// group runs through the dispatched [`kernels::group_max`].
pub(crate) fn max_forward(x: &[f32], cols: usize, k: usize, out: &mut [f32], argmax: &mut [usize]) {
    if cols == 0 {
        return;
    }
    kernels::count_dispatch(out.len() / cols);
    let span = k * cols;
    for (g, (best, arg)) in
        out.chunks_exact_mut(cols).zip(argmax.chunks_exact_mut(cols)).enumerate()
    {
        kernels::group_max(&x[g * span..(g + 1) * span], k, g * k, best, arg);
    }
}

/// Max-pool backward: `dx[argmax[g*C + c]][c] += dy[g][c]`. `dx` is
/// zero-filled by the caller; each element receives at most one term.
pub(crate) fn max_backward(dy: &[f32], argmax: &[usize], cols: usize, dx: &mut [f32]) {
    if cols == 0 {
        return;
    }
    for (dy_row, arg) in dy.chunks_exact(cols).zip(argmax.chunks_exact(cols)) {
        for (c, (&d, &r)) in dy_row.iter().zip(arg).enumerate() {
            dx[r * cols + c] += d;
        }
    }
}

/// Softmax over each group's `k` rows, per column:
/// `out[r][c] = exp(x[r][c] - m[c]) / sum_j exp(x[g*k+j][c] - m[c])`.
pub(crate) fn softmax_forward(x: &[f32], cols: usize, k: usize, out: &mut [f32]) {
    if cols == 0 {
        return;
    }
    let span = k * cols;
    for (xg, og) in x.chunks_exact(span).zip(out.chunks_exact_mut(span)) {
        for c0 in (0..cols).step_by(BLOCK) {
            let w = BLOCK.min(cols - c0);
            let mut maxv = [f32::NEG_INFINITY; BLOCK];
            let mut denom = [0.0f32; BLOCK];
            let (maxv, denom) = (&mut maxv[..w], &mut denom[..w]);
            for xr in xg.chunks_exact(cols) {
                for (m, &v) in maxv.iter_mut().zip(&xr[c0..c0 + w]) {
                    *m = m.max(v);
                }
            }
            for (xr, or) in xg.chunks_exact(cols).zip(og.chunks_exact_mut(cols)) {
                let block = xr[c0..c0 + w].iter().zip(&mut or[c0..c0 + w]);
                for (((&v, o), &m), d) in block.zip(maxv.iter()).zip(denom.iter_mut()) {
                    let e = (v - m).exp();
                    *o = e;
                    *d += e;
                }
            }
            for or in og.chunks_exact_mut(cols) {
                for (o, &d) in or[c0..c0 + w].iter_mut().zip(denom.iter()) {
                    *o /= d;
                }
            }
        }
    }
}

/// Softmax backward from the saved output `s`:
/// `dx[r][c] = s[r][c] * (dy[r][c] - sum_j dy[g*k+j][c] * s[g*k+j][c])`.
/// Every element of `dx` is overwritten.
pub(crate) fn softmax_backward(dy: &[f32], s: &[f32], cols: usize, k: usize, dx: &mut [f32]) {
    if cols == 0 {
        return;
    }
    let span = k * cols;
    let groups = dy.chunks_exact(span).zip(s.chunks_exact(span)).zip(dx.chunks_exact_mut(span));
    for ((dyg, sg), dxg) in groups {
        for c0 in (0..cols).step_by(BLOCK) {
            let w = BLOCK.min(cols - c0);
            let mut dot = [0.0f32; BLOCK];
            let dot = &mut dot[..w];
            for (dr, sr) in dyg.chunks_exact(cols).zip(sg.chunks_exact(cols)) {
                for ((t, &d), &sv) in dot.iter_mut().zip(&dr[c0..c0 + w]).zip(&sr[c0..c0 + w]) {
                    *t += d * sv;
                }
            }
            let rows =
                dyg.chunks_exact(cols).zip(sg.chunks_exact(cols)).zip(dxg.chunks_exact_mut(cols));
            for ((dr, sr), xr) in rows {
                let block = dr[c0..c0 + w].iter().zip(&sr[c0..c0 + w]).zip(&mut xr[c0..c0 + w]);
                for (((&d, &sv), o), &t) in block.zip(dot.iter()) {
                    *o = sv * (d - t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Column-outer references: each op defined one (group, column) at a
    // time, in the op order the row-major kernels must reproduce.

    fn ref_max_forward(x: &[f32], cols: usize, k: usize) -> (Vec<f32>, Vec<usize>) {
        let groups = x.len().checked_div(cols * k).unwrap_or(0);
        let mut out = vec![0.0; groups * cols];
        let mut argmax = vec![0; groups * cols];
        for g in 0..groups {
            for c in 0..cols {
                let mut best = f32::NEG_INFINITY;
                let mut best_row = g * k;
                for j in 0..k {
                    let r = g * k + j;
                    let v = x[r * cols + c];
                    if v > best {
                        best = v;
                        best_row = r;
                    }
                }
                out[g * cols + c] = best;
                argmax[g * cols + c] = best_row;
            }
        }
        (out, argmax)
    }

    fn ref_max_backward(dy: &[f32], argmax: &[usize], rows: usize, cols: usize) -> Vec<f32> {
        let mut g = vec![0.0f32; rows * cols];
        for out_row in 0..dy.len().checked_div(cols).unwrap_or(0) {
            for col in 0..cols {
                let src = argmax[out_row * cols + col];
                g[src * cols + col] += dy[out_row * cols + col];
            }
        }
        g
    }

    fn ref_softmax_forward(x: &[f32], cols: usize, k: usize) -> Vec<f32> {
        let groups = x.len().checked_div(cols * k).unwrap_or(0);
        let mut out = vec![0.0f32; x.len()];
        for g in 0..groups {
            for c in 0..cols {
                let mut maxv = f32::NEG_INFINITY;
                for j in 0..k {
                    maxv = maxv.max(x[(g * k + j) * cols + c]);
                }
                let mut denom = 0.0f32;
                for j in 0..k {
                    let e = (x[(g * k + j) * cols + c] - maxv).exp();
                    out[(g * k + j) * cols + c] = e;
                    denom += e;
                }
                for j in 0..k {
                    out[(g * k + j) * cols + c] /= denom;
                }
            }
        }
        out
    }

    fn ref_softmax_backward(dy: &[f32], s: &[f32], cols: usize, k: usize) -> Vec<f32> {
        let groups = dy.len().checked_div(cols * k).unwrap_or(0);
        let mut g = vec![0.0f32; dy.len()];
        for gi in 0..groups {
            for cc in 0..cols {
                let mut dot = 0.0f32;
                for j in 0..k {
                    let rr = gi * k + j;
                    dot += dy[rr * cols + cc] * s[rr * cols + cc];
                }
                for j in 0..k {
                    let rr = gi * k + j;
                    g[rr * cols + cc] = s[rr * cols + cc] * (dy[rr * cols + cc] - dot);
                }
            }
        }
        g
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN folded to one pattern. Rust leaves the sign
    /// and payload of a NaN produced by arithmetic unspecified (the
    /// compiler may commute the operands of `+` and `*`, and x86 keeps the
    /// first operand's NaN), so neither loop order pins them; NaN must
    /// still appear exactly where the reference has it.
    fn value_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Finite values drawn from a handful of levels (so ties are common),
    /// mixed with NaN, both infinities and both zeros.
    fn arb_elem() -> impl Strategy<Value = f32> {
        (0u32..15, -4i32..4, -50.0f32..50.0).prop_map(|(pick, level, wide)| match pick {
            0..=5 => level as f32 * 0.5,
            6..=9 => wide,
            10 => f32::NAN,
            11 => f32::INFINITY,
            12 => f32::NEG_INFINITY,
            13 => -0.0,
            _ => 0.0,
        })
    }

    /// `(groups, k, cols, x, dy)`; `cols` is either small or crosses the
    /// stack block.
    fn arb_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
        (0usize..4, 1usize..6, 0usize..10, 60usize..140, proptest::bool::ANY).prop_flat_map(
            |(groups, k, narrow, wide, pick_wide)| {
                let cols = if pick_wide { wide } else { narrow };
                let len = groups * k * cols;
                (
                    Just(groups),
                    Just(k),
                    Just(cols),
                    proptest::collection::vec(arb_elem(), len),
                    proptest::collection::vec(arb_elem(), len),
                )
            },
        )
    }

    proptest! {
        #[test]
        fn max_kernels_match_column_outer_reference((groups, k, cols, x, dy) in arb_case()) {
            let (want, want_arg) = ref_max_forward(&x, cols, k);
            let mut out = vec![f32::NAN; groups * cols];
            let mut argmax = vec![usize::MAX; groups * cols];
            max_forward(&x, cols, k, &mut out, &mut argmax);
            prop_assert_eq!(bits(&out), bits(&want));
            prop_assert_eq!(&argmax, &want_arg);

            let dy = &dy[..groups * cols];
            let want_dx = ref_max_backward(dy, &want_arg, groups * k, cols);
            let mut dx = vec![0.0f32; groups * k * cols];
            max_backward(dy, &argmax, cols, &mut dx);
            prop_assert_eq!(bits(&dx), bits(&want_dx));
        }

        #[test]
        fn softmax_kernels_match_column_outer_reference((_g, k, cols, x, dy) in arb_case()) {
            let want = ref_softmax_forward(&x, cols, k);
            let mut out = vec![f32::NAN; x.len()];
            softmax_forward(&x, cols, k, &mut out);
            prop_assert_eq!(value_bits(&out), value_bits(&want));

            let want_dx = ref_softmax_backward(&dy, &want, cols, k);
            let mut dx = vec![f32::NAN; x.len()];
            softmax_backward(&dy, &want, cols, k, &mut dx);
            prop_assert_eq!(value_bits(&dx), value_bits(&want_dx));
        }
    }

    #[test]
    fn max_ties_pick_the_first_row_and_nan_never_wins() {
        // Two groups of three rows, two columns; the last column is all NaN.
        let nan = f32::NAN;
        let x = [1.0, nan, 1.0, -0.0, 0.5, 0.0, nan, nan, 2.0, nan, 2.0, nan];
        let mut out = [0.0f32; 4];
        let mut argmax = [0usize; 4];
        max_forward(&x, 2, 3, &mut out, &mut argmax);
        assert_eq!(bits(&out), bits(&[1.0, -0.0, 2.0, f32::NEG_INFINITY]));
        assert_eq!(argmax, [0, 1, 4, 3]);
    }
}
