//! `Tape::dense` against the unfused chain it replaces, `matmul →
//! mul_row(scale) → add_row(shift) → activation`: the output and every
//! gradient (`dx`, `dW`, `dshift`) must match bit for bit, for every
//! activation, with scale and shift present or absent, on both GEMM
//! routes (row driver and tiled driver), with frozen weights (the
//! attack's input-gradient-only backward) and trainable ones, at one and
//! two threads. Runs on whichever kernel leg the dispatcher picked; the
//! kernels themselves are compared leg against leg in
//! `colper-tensor`'s `simd_equivalence`.

use colper_autodiff::{Act, Tape, Var};
use colper_runtime::Runtime;
use colper_tensor::Matrix;
use proptest::prelude::*;

const ACTS: [Act; 3] = [Act::Identity, Act::Relu, Act::LeakyRelu(0.2)];

/// One layer's operands; `r` weights the output into a scalar loss so the
/// backward pass sees an arbitrary upstream gradient.
struct Layer {
    x: Matrix,
    w: Matrix,
    scale: Matrix,
    shift: Matrix,
    r: Matrix,
}

impl Layer {
    /// Values on a coarse grid, so exact zeros (and, through negative
    /// scales, negative zeros) reach the activation.
    fn generated(m: usize, k: usize, n: usize, seed: u32) -> Self {
        let grid = move |salt: u32| {
            move |r: usize, c: usize| {
                let h = (r as u32).wrapping_mul(73_856_093)
                    ^ (c as u32).wrapping_mul(19_349_663)
                    ^ seed.wrapping_mul(83_492_791)
                    ^ salt;
                ((h.wrapping_mul(2_654_435_761) >> 27) as f32 - 16.0) * 0.125
            }
        };
        Layer {
            x: Matrix::from_fn(m, k, grid(1)),
            w: Matrix::from_fn(k, n, grid(2)),
            scale: Matrix::from_fn(1, n, grid(3)),
            shift: Matrix::from_fn(1, n, grid(4)),
            r: Matrix::from_fn(m, n, grid(5)),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Variant {
    act: Act,
    scale: bool,
    shift: bool,
    /// Weights and shift are differentiable leaves (training); otherwise
    /// constants, as an eval-mode attack binds them.
    train: bool,
}

fn variants() -> impl Iterator<Item = Variant> {
    ACTS.into_iter().flat_map(|act| {
        (0..8).map(move |bits| Variant {
            act,
            scale: bits & 1 != 0,
            shift: bits & 2 != 0,
            train: bits & 4 != 0,
        })
    })
}

fn unfused(t: &mut Tape, x: Var, w: Var, scale: Option<Var>, shift: Option<Var>, act: Act) -> Var {
    let mut h = t.matmul(x, w);
    if let Some(s) = scale {
        h = t.mul_row(h, s);
    }
    if let Some(b) = shift {
        h = t.add_row(h, b);
    }
    match act {
        Act::Identity => h,
        Act::Relu => t.relu(h),
        Act::LeakyRelu(alpha) => t.leaky_relu(h, alpha),
    }
}

fn bits(m: Option<&Matrix>) -> Vec<u32> {
    m.map_or_else(Vec::new, |m| m.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// `[y, dx, dW, dshift]` bit dumps of one forward/backward pass.
fn run(layer: &Layer, v: Variant, fused: bool) -> [Vec<u32>; 4] {
    let mut t = Tape::new();
    let x = t.leaf_from(&layer.x);
    let bind = |t: &mut Tape, m: &Matrix| if v.train { t.leaf_from(m) } else { t.constant_from(m) };
    let w = bind(&mut t, &layer.w);
    let scale = v.scale.then(|| t.constant_from(&layer.scale));
    let shift = v.shift.then(|| bind(&mut t, &layer.shift));
    let y = if fused {
        t.dense(x, w, scale, shift, v.act)
    } else {
        unfused(&mut t, x, w, scale, shift, v.act)
    };
    let r = t.constant_from(&layer.r);
    let weighted = t.mul(y, r);
    let loss = t.sum(weighted);
    t.backward(loss);
    [
        bits(Some(t.value(y))),
        bits(t.grad(x)),
        bits(t.grad(w)),
        shift.map_or_else(Vec::new, |s| bits(t.grad(s))),
    ]
}

/// Every variant, fused against unfused, sequentially and on a
/// two-thread pool.
fn assert_layer_matches(layer: &Layer) {
    let pool = Runtime::new(2);
    let seq = Runtime::sequential();
    for v in variants() {
        let reference = seq.install(|| run(layer, v, false));
        for (threads, rt) in [(1, &seq), (2, &pool)] {
            let fused = rt.install(|| run(layer, v, true));
            for (name, (got, want)) in
                ["y", "dx", "dW", "dshift"].iter().zip(fused.iter().zip(&reference))
            {
                assert_eq!(got, want, "{name} diverged for {v:?} at {threads} thread(s)");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row-driver shapes (the `B` footprint stays under the tiled
    /// threshold), including single rows and columns.
    #[test]
    fn dense_matches_unfused_chain_on_row_route(
        m in 1usize..24,
        k in 1usize..12,
        n in 1usize..20,
        seed in 0u32..1000,
    ) {
        assert_layer_matches(&Layer::generated(m, k, n, seed));
    }
}

/// A tiled-driver shape: `k * n >= 32768` with both output sides at least
/// 16, `m` spanning two row bands and `k` two `KC` blocks, so the
/// epilogue runs after each band's final block.
#[test]
fn dense_matches_unfused_chain_on_tiled_route() {
    assert_layer_matches(&Layer::generated(100, 300, 112, 7));
}
