//! Pluggable compute backends behind one dispatch trait.
//!
//! The kernels live in `reference.rs`. One of them, `matmul_block` (the
//! row fold behind [`Tensor::matmul`] and [`Tensor::matmul_onto`]), is
//! a [`ComputeBackend`] method and routes through the thread's
//! **active backend**; every other kernel ([`Tensor::matmul_tb`],
//! [`Tensor::matmul_ta`], `Tape::spmm`, `Tape::edge_softmax` and the
//! [`cosine_slices`](crate::cosine_slices) / [`l2_norm`](crate::l2_norm)
//! family) is one function that both backends run.
//!
//! * [`ReferenceBackend`] — the bit-exact scalar kernels this crate has
//!   always shipped, as order-preserving tiled loops: every output
//!   element runs the original loops' float sequence. That sequence is
//!   the determinism contract: results are bit-identical across runs,
//!   thread budgets, and machines, which is what the parallel
//!   proptests and the `WorkerPool` bit-identity tests pin.
//!   Reference is the default and stays the truth for CI.
//! * [`FastBackend`] — Reference plus one `std::arch` kernel: on x86_64
//!   hosts with AVX2 (detected at run time) its `matmul_block` runs an
//!   AVX2 row that folds each element like Reference but without
//!   Reference's zero skip; elsewhere it runs Reference's.
//!
//! **The contract: Fast equals Reference bit for bit**, on every kernel
//! and every host, with one exception. Where a zero `a` entry (`0.0` or
//! `-0.0`) meets a non-finite `b` entry in `matmul_block`, Fast's AVX2
//! row multiplies and gives NaN, while Reference skips the step. A
//! `-0.0` partial is the only other case where the two could differ
//! (Fast's `-0.0 + 0.0` is `+0.0`), and no caller makes one: every
//! block starts at `+0.0` ([`Tensor::matmul`]) or at a partial of such
//! a fold ([`Tensor::matmul_onto`]), and a fold from `+0.0` never
//! reaches `-0.0`. That exception is why the embedding-store
//! fingerprint still names the backend and gp-serve still pins a
//! session to one.
//!
//! The active backend is a thread-local, installed RAII-style exactly
//! like [`WorkerPool::install`](crate::WorkerPool::install):
//!
//! ```
//! use gp_tensor::{Backend, Tensor};
//! let a = Tensor::from_vec(2, 3, vec![1.0, 0.0, -0.5, 0.25, 3.0, 0.0]);
//! let b = Tensor::from_vec(3, 2, vec![2.0, -1.0, 0.5, 4.0, 1.5, 0.75]);
//! let fast = {
//!     let _guard = Backend::Fast.install();
//!     a.matmul(&b) // the AVX2 row, where the host has AVX2
//! }; // guard dropped: this thread is back on Reference
//! let reference = a.matmul(&b);
//! for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
//!     assert_eq!(x.to_bits(), y.to_bits());
//! }
//! ```
//!
//! Kernel fan-out captures the submitting thread's backend, so a block
//! running on a pool worker uses the backend of whoever called the
//! kernel, not the worker's own default.

mod fast;
pub(crate) mod reference;

pub use fast::FastBackend;
pub use reference::ReferenceBackend;

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::str::FromStr;

#[cfg(doc)]
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
    /// Reference plus an AVX2 `matmul_block`; bit-equal to Reference
    /// but for the zero × non-finite exception in the [module
    /// docs](self).
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

/// One implementation of the kernel the backends do not share. It
/// works on raw row-major slices (shape checks stay in the public
/// [`Tensor`] entry points).
///
/// `matmul_block` receives a disjoint range of output rows plus the
/// backing sub-slice for exactly those rows — the shape handed out by
/// `parallel::for_row_blocks` — so one implementation serves the serial
/// path (`rows = 0..n`) and every pool-blocked fan-out alike.
/// Implementations must compute each row with a fixed, row-local
/// operation order: that is what makes results independent of the
/// worker count for *both* backends (bit-identical blocking is a
/// structural property, not a Reference-only one).
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
    /// Each step does one rounded multiply then one rounded add; no FMA
    /// or reassociation. [`ReferenceBackend`] skips the steps where
    /// `a[i][kk] == 0.0` (`-0.0` too), pinned bit for bit by its oracle
    /// test against the original loop; [`FastBackend`]'s AVX2 row does
    /// not, which is the one exception in the [module docs](self).
    fn matmul_block(
        &self,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        block: &mut [f32],
    );
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
}
