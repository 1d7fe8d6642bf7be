//! Pluggable compute backends behind one dispatch trait.
//!
//! Every dense/sparse kernel in this crate ([`Tensor::matmul`],
//! [`Tensor::matmul_tb`], [`Tensor::matmul_ta`], `Tape::spmm`,
//! `Tape::edge_softmax`, and the [`cosine_slices`](crate::cosine_slices)
//! / [`l2_norm`](crate::l2_norm) helper family) routes through the
//! thread's **active backend**:
//!
//! * [`ReferenceBackend`] — the bit-exact scalar kernels this crate has
//!   always shipped, as order-preserving tiled loops: every output
//!   element runs the original loops' float sequence. That sequence is
//!   the determinism contract: results are bit-identical across runs,
//!   thread budgets, and machines, which is what the parallel
//!   proptests and the `WorkerPool` bit-identity tests pin.
//!   Reference is the default and stays the truth for CI.
//! * [`FastBackend`] — register-tiled kernels with `std::arch` SIMD
//!   (AVX2 on x86_64, NEON on aarch64) selected once per process by
//!   runtime feature detection, with a scalar-tiled fallback that is
//!   safe on any host. Fast reorders float accumulation (SIMD lanes sum
//!   in parallel), so it is only *tolerance*-equal to Reference — but it
//!   is still deterministic run-to-run and across worker counts, because
//!   each output row is produced by one fixed-order kernel regardless of
//!   how rows are blocked over the pool.
//!
//! The active backend is a thread-local, installed RAII-style exactly
//! like [`WorkerPool::install`](crate::WorkerPool::install):
//!
//! ```
//! use gp_tensor::{Backend, Tensor};
//! let a = Tensor::from_vec(2, 3, vec![1.0; 6]);
//! let b = Tensor::from_vec(3, 2, vec![2.0; 6]);
//! let fast = {
//!     let _guard = Backend::Fast.install();
//!     a.matmul(&b) // tiled/SIMD kernels
//! }; // guard dropped: this thread is back on Reference
//! let reference = a.matmul(&b);
//! for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
//!     assert!((x - y).abs() <= 1e-5 * x.abs().max(1.0));
//! }
//! ```
//!
//! Kernel fan-out captures the submitting thread's backend, so a block
//! running on a pool worker uses the backend of whoever called the
//! kernel, not the worker's own default.

mod fast;
mod reference;

pub use fast::FastBackend;
pub use reference::ReferenceBackend;

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::str::FromStr;

use crate::sparse::EdgeList;
use crate::tensor::Tensor;

/// Which kernel implementation a thread dispatches to.
///
/// `Reference` is the default everywhere; `Fast` must be opted into
/// (per [`Engine`](crate) via `EngineBuilder::backend`, per session in
/// gp-serve, or `gp --backend fast` on the CLI).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Bit-exact scalar kernels; the determinism contract and CI truth.
    #[default]
    Reference,
    /// Register-tiled + SIMD kernels; tolerance-equal to Reference.
    Fast,
}

impl Backend {
    /// Stable lowercase name, matching [`FromStr`] (`"reference"`/`"fast"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Fast => "fast",
        }
    }

    /// The (static) kernel implementation for this kind.
    pub fn implementation(self) -> &'static dyn ComputeBackend {
        match self {
            Backend::Reference => &ReferenceBackend,
            Backend::Fast => &FastBackend,
        }
    }

    /// Whether this backend will actually run `std::arch` SIMD on this
    /// host (runtime feature detection): always `false` for Reference,
    /// and `false` for Fast on hosts where it falls back to the
    /// scalar-tiled kernels.
    pub fn is_simd_accelerated(self) -> bool {
        match self {
            Backend::Reference => false,
            Backend::Fast => fast::simd_active(),
        }
    }

    /// Install this backend as the thread's active backend, returning a
    /// guard that restores the previous one on drop. Nests like
    /// [`WorkerPool::install`](crate::WorkerPool::install); the guard is
    /// `!Send` so install/uninstall cannot migrate across threads.
    #[must_use = "the backend is uninstalled when the guard drops"]
    pub fn install(self) -> BackendGuard {
        let prev = ACTIVE.with(|c| c.replace(self));
        BackendGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(Backend::Reference),
            "fast" => Ok(Backend::Fast),
            other => Err(format!(
                "unknown backend '{other}' (expected 'reference' or 'fast')"
            )),
        }
    }
}

thread_local! {
    static ACTIVE: Cell<Backend> = const { Cell::new(Backend::Reference) };
}

/// The backend kind installed on the current thread ([`Backend::Reference`]
/// when none has been installed).
pub fn installed_backend() -> Backend {
    ACTIVE.with(Cell::get)
}

/// The current thread's active kernel implementation.
pub fn active_backend() -> &'static dyn ComputeBackend {
    installed_backend().implementation()
}

/// RAII guard from [`Backend::install`]: restores the previously active
/// backend when dropped.
#[must_use = "dropping the guard immediately uninstalls the backend"]
pub struct BackendGuard {
    prev: Backend,
    /// Install/uninstall must happen on one thread.
    _not_send: PhantomData<*const ()>,
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        ACTIVE.with(|c| c.set(self.prev));
    }
}

/// One kernel implementation. All methods operate on raw row-major
/// slices (shape checks stay in the public [`Tensor`] entry points) so
/// both `Tensor` and `Tape` can dispatch without exposing internals.
///
/// The three matmul `*_block` methods receive a disjoint range of
/// output rows plus the backing sub-slice for exactly those rows — the
/// shape handed out by `parallel::for_row_blocks` — so one trait
/// implementation serves the serial path (`rows = 0..n`) and every
/// pool-blocked fan-out alike. Implementations must compute each row
/// with a fixed, row-local operation order: that is what makes results
/// independent of the worker count for *both* backends (bit-identical
/// blocking is a structural property, not a Reference-only one).
pub trait ComputeBackend: Sync {
    /// Which [`Backend`] this implementation is.
    fn kind(&self) -> Backend;

    /// `block[local] += a[i] · b` for each `i` in `rows`:
    /// `a` is `n×k`, `b` is `k×m`, `block` holds `rows.len()` rows of m.
    ///
    /// On both backends each element starts from the block's value (zero
    /// from [`Tensor::matmul`]) and folds `kk` ascending onto it, so a
    /// fold split at any `kk` and continued from the stored partial (see
    /// [`Tensor::matmul_onto`]) gives the unsplit result bit for bit.
    /// On [`ReferenceBackend`] each step skips `a[i][kk] == 0.0` (`-0.0`
    /// too) and otherwise does one rounded multiply then one rounded
    /// add; no FMA, `std::arch` or reassociation, pinned bit for bit by
    /// its oracle test against the original loop. [`FastBackend`] keeps
    /// one SIMD lane per element, so its sequence differs from
    /// Reference's only in rounding (NEON fuses the multiply-add).
    fn matmul_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    );

    /// `block[local][j] = a[i] · b[j]` (dot of rows): `a` is `n×k`,
    /// `b` is `m×k` interpreted transposed.
    fn matmul_tb_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    );

    /// Whole-output `a^T (k×n) · b (k×m) -> n×m` for the serial path.
    fn matmul_ta_serial(&self, a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]);

    /// Row-blocked `a^T · b`: output rows `rows` of the `n×m` result.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the other block kernels' flat slice-and-dims shape; `n` strides `a`"
    )]
    fn matmul_ta_block(
        &self,
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    );

    /// Dot product `Σ a[i]·b[i]` (slices already length-checked).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// Sum of squares `Σ a[i]²` (the pre-sqrt half of
    /// [`l2_norm`](crate::l2_norm)).
    fn sum_sq(&self, a: &[f32]) -> f32;

    /// Cosine similarity with the `1e-12` zero-norm guard of
    /// [`cosine_slices`](crate::cosine_slices).
    fn cosine(&self, a: &[f32], b: &[f32]) -> f32;

    /// Sparse aggregate `out[dst] += w_e · x[src]` over `edges`, in
    /// edge order (`w = None` means unit weights).
    fn spmm(&self, edges: &EdgeList, x: &Tensor, w: Option<&[f32]>, out: &mut Tensor);

    /// Grouped-by-destination softmax of `E×1` edge `scores` into `out`.
    fn edge_softmax(&self, edges: &EdgeList, scores: &[f32], out: &mut [f32]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_reference() {
        assert_eq!(installed_backend(), Backend::Reference);
        assert_eq!(active_backend().kind(), Backend::Reference);
    }

    #[test]
    fn install_guard_nests_and_restores() {
        assert_eq!(installed_backend(), Backend::Reference);
        {
            let _outer = Backend::Fast.install();
            assert_eq!(installed_backend(), Backend::Fast);
            {
                let _inner = Backend::Reference.install();
                assert_eq!(installed_backend(), Backend::Reference);
            }
            assert_eq!(installed_backend(), Backend::Fast, "inner drop restores");
        }
        assert_eq!(installed_backend(), Backend::Reference);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a raw thread on purpose: it must not inherit the pool's backend"
    )]
    fn install_is_per_thread() {
        let _guard = Backend::Fast.install();
        let other = std::thread::spawn(installed_backend)
            .join()
            .expect("thread joins");
        assert_eq!(other, Backend::Reference, "fresh threads default");
        assert_eq!(installed_backend(), Backend::Fast);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Reference, Backend::Fast] {
            assert_eq!(b.name().parse::<Backend>(), Ok(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert!("avx512".parse::<Backend>().is_err());
    }

    #[test]
    fn reference_never_reports_simd() {
        assert!(!Backend::Reference.is_simd_accelerated());
        // Fast may or may not, depending on the host; the call just must
        // not panic and must be stable.
        assert_eq!(
            Backend::Fast.is_simd_accelerated(),
            Backend::Fast.is_simd_accelerated()
        );
    }
}
