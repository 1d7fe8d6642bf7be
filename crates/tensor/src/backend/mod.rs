//! The kernels, and the names of the compute backends they once chose
//! between.
//!
//! The kernels live in `reference.rs`: every output element of every
//! kernel runs one pinned float sequence (see its module docs), the
//! determinism contract: results are bit-identical across runs, thread
//! budgets and machines. Four of them (`matmul`, `matmul_tb`,
//! `matmul_ta` and `spmm`) also have an AVX2 compilation in `fast.rs`,
//! which they run on x86_64 hosts with AVX2 (detected at run time). It
//! keeps the same sequence, so it gives the same bits; a zero times
//! `inf` or NaN is NaN on every path.
//!
//! Since there is one sequence, a [`Backend`] selects nothing. The name
//! stays an accepted value (`gp --backend`, `EngineBuilder::backend`,
//! gp-serve's `"backend"` field) and [`Backend::install`] a guard that
//! changes nothing:
//!
//! ```
//! use gp_tensor::{Backend, Tensor};
//! let a = Tensor::from_vec(2, 3, vec![1.0, 0.0, -0.5, 0.25, 3.0, 0.0]);
//! let b = Tensor::from_vec(3, 2, vec![2.0, -1.0, 0.5, 4.0, 1.5, 0.75]);
//! let fast = {
//!     let _guard = Backend::Fast.install();
//!     a.matmul(&b)
//! };
//! let reference = a.matmul(&b);
//! for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
//!     assert_eq!(x.to_bits(), y.to_bits());
//! }
//! ```

mod fast;
pub(crate) mod reference;

pub(crate) use reference::Kernel;

use std::fmt;
use std::str::FromStr;

/// A compute backend name. Both names run the same kernels and give the
/// same bits; the type stays so that callers naming one keep working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The historical default.
    #[default]
    Reference,
    /// Once Reference plus an AVX2 `matmul` row, which every host with
    /// AVX2 now runs.
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

    /// A guard that changes nothing: there is one set of kernels. Kept
    /// so that callers scoping a backend keep compiling.
    pub fn install(self) -> BackendGuard {
        BackendGuard(())
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

/// The guard [`Backend::install`] returns; dropping it changes nothing.
#[must_use = "the guard scopes nothing, but callers hold it"]
pub struct BackendGuard(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_reference() {
        assert_eq!(Backend::default(), Backend::Reference);
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
