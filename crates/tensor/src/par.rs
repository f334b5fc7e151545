//! Ambient-runtime helpers for the parallel tensor kernels.
//!
//! Tensor ops sit at the bottom of the autodiff stack, far below any
//! signature a [`colper_runtime::Runtime`] handle could be threaded
//! through, so they consult the ambient runtime installed by
//! [`colper_runtime::Runtime::install`]. Every parallel kernel in this
//! crate partitions its *output* across threads (each element written by
//! exactly one task, with the same per-element operation order as the
//! sequential loop), so results are bit-identical to sequential execution
//! regardless of thread count.

use crate::Matrix;
use colper_runtime::Runtime;

/// Minimum multiply-accumulate count before a matmul goes parallel; below
/// this the scheduling overhead outweighs the arithmetic.
pub(crate) const MIN_PAR_MACS: usize = 1 << 15;

/// Minimum element count before an elementwise kernel goes parallel.
pub(crate) const MIN_PAR_ELEMS: usize = 1 << 15;

/// Returns the ambient runtime when `work` crosses `threshold` and the
/// runtime actually has workers; `None` means "run the sequential loop".
pub(crate) fn runtime_for(work: usize, threshold: usize) -> Option<Runtime> {
    if work < threshold {
        return None;
    }
    let rt = colper_runtime::current();
    if rt.is_sequential() {
        None
    } else {
        Some(rt)
    }
}

/// The per-thread slice length used to split `len` output elements.
pub(crate) fn chunk_len(len: usize, rt: &Runtime) -> usize {
    len.div_ceil(4 * rt.threads()).max(1)
}

/// Runs `row_job(i, out_row)` for every row of `out`, splitting the rows
/// across the ambient runtime when `macs` (multiply-accumulate count) makes
/// it worthwhile. Each row is written by exactly one invocation, so the
/// result is bit-identical to the sequential row loop.
pub(crate) fn for_each_out_row(
    out: &mut Matrix,
    macs: usize,
    row_job: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (m, n) = out.shape();
    if m == 0 || n == 0 {
        return;
    }
    match runtime_for(macs, MIN_PAR_MACS) {
        None => {
            for i in 0..m {
                row_job(i, out.row_mut(i));
            }
        }
        Some(rt) => {
            let rows_per = chunk_len(m, &rt);
            rt.par_chunks_mut(out.as_mut_slice(), rows_per * n, |c, sub| {
                for (j, out_row) in sub.chunks_mut(n).enumerate() {
                    row_job(c * rows_per + j, out_row);
                }
            });
        }
    }
}
