//! Matmul routing: the row-at-a-time driver and the register-blocked,
//! cache-tiled GEMM driver with pooled packing panels.
//!
//! The row driver ([`row_into`], over [`crate::kernels::matmul_row`])
//! streams the full `B` operand from memory once per output row, which is
//! optimal while `B` fits in L1/L2 but collapses once it does not. The
//! tiled driver ([`tiled_into`]) adds the classic three-level blocking on
//! top of the same arithmetic:
//!
//! * **`KC` blocking** — the `k` dimension is processed in blocks of
//!   [`KC`]; each output element's partial sum is stored to `C` between
//!   blocks and reloaded into the accumulator, so the per-element chain
//!   of fused multiply-adds is *the same ascending-`k` chain* the row
//!   kernel computes. That single invariant makes the tiled path
//!   bit-identical to the row kernel, the scalar reference, and every
//!   micro-tile geometry.
//! * **Packing** — within a block, `A` and `B` are repacked into
//!   k-major panels (`A`: row-minor stride `MR`; `B`: column-minor
//!   stride `NR`, both zero-padded to the tile edge) so the micro-kernel
//!   reads both operands contiguously. Panels come from a thread-local
//!   [`BufferPool`] with dirty hand-back, so the steady-state 0-alloc
//!   budget of the attack loop holds.
//! * **Micro-tiles** — the inner kernel computes an `MR x NR` register
//!   tile per call ([`crate::kernels::gemm_tile`]); the geometry is per
//!   instruction set (6x16 AVX2, 12x32 AVX-512, scalar twin in the AVX2
//!   geometry).
//!
//! Parallelism splits the output into fixed [`MC`]-row bands (boundaries
//! depend only on the shape, never on thread count) via the shared
//! work-stealing runtime; each band owns its rows exclusively, so
//! results are bit-identical at any thread count.
//!
//! Both drivers take an [`Epilogue`]: a per-row `scale`/`shift`/activation
//! applied to each output row as soon as its sums are final (after the row
//! kernel, or after a band's last `KC` block), while the row is still in
//! cache. That is how a dense layer's `Linear → BatchNorm → activation`
//! chain runs as one pass over its output.
//!
//! [`Matrix::matmul_into`] and [`Matrix::matmul_tn_into`] pick a driver
//! by shape alone: the tiled one when both output sides are at least
//! [`TILED_MIN_DIM`] and the `B` footprint `k * n` is at least
//! [`TILED_MIN_KN`]. Both drivers compute the same bits, so the choice
//! only moves performance.

use crate::kernels::{self, Act, GemmIsa};
use crate::par::{for_each_out_row, runtime_for, MIN_PAR_MACS};
use crate::{BufferPool, Matrix};
use std::cell::RefCell;

/// `k`-dimension block: one packed `A` band (`MC x KC`) plus the live
/// `C` tile stay cache-resident while a `B` panel streams.
pub const KC: usize = 256;

/// Output row band processed by one parallel task. Divisible by every
/// micro-tile `MR` (6 and 12), so band-local tile boundaries line up
/// identically on all instruction-set legs.
pub const MC: usize = 96;

/// Smallest `m`/`n` for which the tiled driver may win.
pub const TILED_MIN_DIM: usize = 16;

/// Smallest `k * n` (the `B` footprint in elements) for which the tiled
/// driver may win; below this the row kernel keeps `B` L1/L2-resident
/// and is already near peak.
pub const TILED_MIN_KN: usize = 1 << 15;

/// A transform applied to every finished output row of a product:
/// `act(row * scale + shift)` through [`kernels::dense_epilogue`], with
/// `scale` and `shift` optional `[n]` rows. [`Epilogue::NONE`] leaves the
/// product untouched.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-column multiplier, applied first.
    pub scale: Option<&'a [f32]>,
    /// Per-column offset, added after the scale.
    pub shift: Option<&'a [f32]>,
    /// The activation, applied last.
    pub act: Act,
}

impl Epilogue<'_> {
    /// The plain product.
    pub const NONE: Epilogue<'static> = Epilogue { scale: None, shift: None, act: Act::Identity };

    /// Whether applying this epilogue changes anything.
    fn is_active(&self) -> bool {
        self.scale.is_some() || self.shift.is_some() || self.act != Act::Identity
    }

    fn apply(&self, row: &mut [f32]) {
        if self.is_active() {
            kernels::dense_epilogue(row, self.scale, self.shift, self.act);
        }
    }

    /// Kernel calls one `m`-row product makes with this epilogue.
    fn calls(&self, m: usize) -> usize {
        if self.is_active() {
            2 * m
        } else {
            m
        }
    }
}

/// Whether an `[m,k] x [k,n]` product routes to [`tiled_into`] rather
/// than [`row_into`].
pub(crate) fn use_tiled(m: usize, k: usize, n: usize) -> bool {
    m >= TILED_MIN_DIM && n >= TILED_MIN_DIM && k * n >= TILED_MIN_KN
}

/// Panics unless `out = epi(a * b)` is shape-consistent.
fn check_shapes(a: &Matrix, b: &Matrix, epi: &Epilogue<'_>, out: &Matrix) {
    assert!(
        a.cols() == b.rows() && out.shape() == (a.rows(), b.cols()),
        "gemm: {:?} x {:?} -> {:?} is not a matmul",
        a.shape(),
        b.shape(),
        out.shape()
    );
    let n = b.cols();
    assert!(
        epi.scale.is_none_or(|s| s.len() == n) && epi.shift.is_none_or(|t| t.len() == n),
        "gemm: epilogue rows must be {n} wide"
    );
}

thread_local! {
    /// Per-thread scratch for packing panels (GEMM `A`/`B` panels and the
    /// matmul-transposed left operand). Thread-local so the hot loop
    /// stays allocation-free after warmup without threading a pool handle
    /// through every matmul call site; per-worker warmup is a bounded
    /// one-time cost because the runtime's workers are persistent.
    static PACK_POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// A `rows x cols` panel with unspecified contents from the calling
/// thread's pack pool, crediting `gemm.pack.hit` / `gemm.pack.miss`.
pub(crate) fn pack_scratch(rows: usize, cols: usize) -> Matrix {
    PACK_POOL.with(|p| {
        let mut p = p.borrow_mut();
        let before = p.stats();
        let m = p.scratch(rows, cols);
        let after = p.stats();
        if after.0 > before.0 {
            colper_obs::counters::GEMM_PACK_HIT.incr();
        } else if after.1 > before.1 {
            colper_obs::counters::GEMM_PACK_MISS.incr();
        }
        m
    })
}

/// Hands a panel back to the calling thread's pack pool (dirty).
pub(crate) fn pack_recycle(m: Matrix) {
    PACK_POOL.with(|p| p.borrow_mut().recycle(m));
}

/// Packs the `kc` wide `k`-block of `B` starting at `pc` into column
/// bands of `NR`: band `jb` holds `panel[jb*nr*kc + kk*nr + j] =
/// b[(pc+kk)*n + jb*nr + j]`, zero-padded past column `n`.
fn pack_b_block(b: &[f32], n: usize, pc: usize, kc: usize, nr: usize, panel: &mut [f32]) {
    let n_bands = n.div_ceil(nr);
    for jb in 0..n_bands {
        let base = jb * nr * kc;
        let col0 = jb * nr;
        let width = nr.min(n - col0);
        for kk in 0..kc {
            let src = (pc + kk) * n + col0;
            let dst = &mut panel[base + kk * nr..base + kk * nr + nr];
            dst[..width].copy_from_slice(&b[src..src + width]);
            dst[width..].fill(0.0);
        }
    }
}

/// Packs one `MC`-band of `A` rows (`row0..row0+band_rows`, `k`-block at
/// `pc`) into row tiles of `MR`: tile `t` holds `panel[t*mr*kc + kk*mr +
/// r] = a[(row0+t*mr+r)*k + pc + kk]`, zero-padded past the band's rows.
#[allow(clippy::too_many_arguments)]
fn pack_a_band(
    a: &[f32],
    k: usize,
    row0: usize,
    band_rows: usize,
    pc: usize,
    kc: usize,
    mr: usize,
    panel: &mut [f32],
) {
    let tiles = band_rows.div_ceil(mr);
    for t in 0..tiles {
        let base = t * mr * kc;
        let rows = mr.min(band_rows - t * mr);
        for kk in 0..kc {
            let dst = &mut panel[base + kk * mr..base + kk * mr + mr];
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < rows { a[(row0 + t * mr + r) * k + pc + kk] } else { 0.0 };
            }
        }
    }
}

/// Credits the deterministic micro-tile invocation count of one product
/// to `gemm.tile.tasks` (computed arithmetically, so the total is
/// independent of thread count and chunking).
fn count_tile_tasks(m: usize, k: usize, n: usize, mr: usize, nr: usize) {
    let tiles = m.div_ceil(mr) * n.div_ceil(nr) * k.div_ceil(KC);
    colper_obs::counters::GEMM_TILE_TASKS.add(tiles as u64);
}

/// Runs the fixed-boundary `MC`-band loop of one `k`-block over `out`,
/// splitting bands across the ambient runtime when the block's work
/// clears the parallel threshold. Each band packs its own `A` panel from
/// the per-thread pack pool and owns its output rows exclusively, so the
/// result is bit-identical to the sequential band loop. On the last
/// `k`-block (`epi` is `Some`) each band finishes its rows with the
/// epilogue while they are still cache-resident.
#[allow(clippy::too_many_arguments)]
fn run_bands(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    init: bool,
    bpanel: &[f32],
    isa: GemmIsa,
    epi: Option<&Epilogue<'_>>,
    out: &mut [f32],
) {
    let (mr, nr) = isa.micro_tile();
    let n_bands = n.div_ceil(nr);
    let band_job = |band: usize, sub: &mut [f32]| {
        let row0 = band * MC;
        let band_rows = sub.len() / n;
        let tiles = band_rows.div_ceil(mr);
        let mut apanel = pack_scratch(1, tiles * mr * kc);
        pack_a_band(a, k, row0, band_rows, pc, kc, mr, apanel.as_mut_slice());
        let ap = apanel.as_slice();
        for jb in 0..n_bands {
            let cols = nr.min(n - jb * nr);
            for t in 0..tiles {
                let rows = mr.min(band_rows - t * mr);
                kernels::gemm_tile(
                    isa,
                    &ap[t * mr * kc..],
                    &bpanel[jb * nr * kc..],
                    kc,
                    rows,
                    cols,
                    init,
                    &mut sub[t * mr * n + jb * nr..],
                    n,
                );
            }
        }
        pack_recycle(apanel);
        if let Some(epi) = epi {
            for row in sub.chunks_mut(n) {
                epi.apply(row);
            }
        }
    };
    match runtime_for(m * kc * n, MIN_PAR_MACS) {
        None => {
            for (band, sub) in out.chunks_mut(MC * n).enumerate() {
                band_job(band, sub);
            }
        }
        Some(rt) => rt.par_chunks_mut(out, MC * n, band_job),
    }
}

/// The row driver: `out = epi(a * b)` one output row per
/// [`kernels::matmul_row`] call, each followed by its epilogue (`out` is
/// zeroed first, so recycled buffers are safe), rows split across the
/// ambient runtime.
///
/// # Panics
///
/// Panics when `a.cols() != b.rows()`, `out` is not `[a.rows(), b.cols()]`
/// or an epilogue row is not `b.cols()` wide.
pub fn row_into(a: &Matrix, b: &Matrix, epi: &Epilogue<'_>, out: &mut Matrix) {
    check_shapes(a, b, epi, out);
    let (m, k) = a.shape();
    let n = b.cols();
    kernels::count_dispatch(epi.calls(m));
    out.as_mut_slice().fill(0.0);
    let b = b.as_slice();
    for_each_out_row(out, m * k * n, |i, out_row| {
        kernels::matmul_row(a.row(i), b, n, out_row);
        epi.apply(out_row);
    });
}

/// The tiled driver: `out = epi(a * b)` (fully overwritten; `init`
/// semantics make pre-zeroing unnecessary). Bit-identical to
/// [`row_into`] for every input, SIMD leg and thread count.
///
/// # Panics
///
/// Panics when `a.cols() != b.rows()`, `out` is not `[a.rows(), b.cols()]`
/// or an epilogue row is not `b.cols()` wide.
pub fn tiled_into(a: &Matrix, b: &Matrix, epi: &Epilogue<'_>, out: &mut Matrix) {
    check_shapes(a, b, epi, out);
    let (m, k) = a.shape();
    let n = b.cols();
    kernels::count_dispatch(epi.calls(m));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.as_mut_slice().fill(0.0);
        for row in out.as_mut_slice().chunks_mut(n) {
            epi.apply(row);
        }
        return;
    }
    let isa = kernels::gemm_isa();
    let (mr, nr) = isa.micro_tile();
    count_tile_tasks(m, k, n, mr, nr);
    let (a, b, out) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let mut bpanel = pack_scratch(1, n.div_ceil(nr) * nr * kc);
        pack_b_block(b, n, pc, kc, nr, bpanel.as_mut_slice());
        let last = (pc + kc == k).then_some(epi);
        run_bands(a, m, k, n, pc, kc, pc == 0, bpanel.as_slice(), isa, last, out);
        pack_recycle(bpanel);
        pc += kc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_a_pure_shape_predicate() {
        assert!(use_tiled(256, 256, 256));
        assert!(use_tiled(16, 2048, 16), "the thresholds are inclusive");
        assert!(!use_tiled(15, 4096, 16), "skinny m stays on the row kernel");
        assert!(!use_tiled(256, 256, 8), "skinny n stays on the row kernel");
        assert!(!use_tiled(96, 64, 64), "L1-resident B stays on the row kernel");
        assert!(!use_tiled(4096, 511, 64), "k * n just under the footprint threshold");
        assert!(use_tiled(4096, 512, 64));
    }

    #[test]
    fn packing_layouts_zero_pad_edges() {
        // B: 2x5 with nr=4 -> 2 bands of 4 cols x kc=2.
        let b: Vec<f32> = (1..=10).map(|v| v as f32).collect();
        let mut panel = vec![f32::NAN; 2 * 4 * 2];
        pack_b_block(&b, 5, 0, 2, 4, &mut panel);
        assert_eq!(
            panel,
            vec![
                1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, // band 0, kk=0..2
                5.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, // band 1, zero-padded
            ]
        );
        // A: 3 rows, k=2, mr=2 -> 2 tiles, last row-padded.
        let a: Vec<f32> = (1..=6).map(|v| v as f32).collect();
        let mut panel = vec![f32::NAN; 2 * 2 * 2];
        pack_a_band(&a, 2, 0, 3, 0, 2, 2, &mut panel);
        assert_eq!(panel, vec![1.0, 3.0, 2.0, 4.0, 5.0, 0.0, 6.0, 0.0]);
    }
}
