//! Parameter registry, decoupled from the per-step autodiff tape.

use gp_tensor::Tensor;

/// Typed error for fallible [`ParamStore`] mutations ([`ParamStore::try_set`],
/// [`ParamStore::try_restore`]). The panicking variants remain for internal
/// hot paths where a mismatch is a programmer error; checkpoint/restore code
/// paths use the `try_` variants so corrupt or mismatched state surfaces as a
/// recoverable error instead of a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// A tensor's shape does not match the registered parameter's shape.
    ShapeMismatch {
        /// Debug name of the parameter.
        name: String,
        /// Shape registered in the store.
        expected: (usize, usize),
        /// Shape that was offered.
        got: (usize, usize),
    },
    /// A snapshot's tensor count does not match the store's.
    LengthMismatch {
        /// Number of tensors in the store.
        expected: usize,
        /// Number of tensors offered.
        got: usize,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::ShapeMismatch {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "shape mismatch for {name}: expected {expected:?}, got {got:?}"
                )
            }
            ParamError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot length mismatch: store has {expected} tensors, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Opaque handle to a parameter tensor inside a [`ParamStore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the store (stable for the store's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns every trainable tensor of a model.
///
/// Layers hold [`ParamId`]s, not tensors, so the same layer object can be
/// used across training steps while optimizers mutate the store in place.
/// Cloning preserves ids, so a cloned store can be *extended* with new
/// parameters (e.g. a per-episode head over a frozen encoder) while the
/// original layers keep working against it.
#[derive(Clone, Default)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
    names: Vec<String>,
    revision: u64,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotonic counter bumped by every (potential) mutation of parameter
    /// values: [`ParamStore::add`], [`ParamStore::get_mut`],
    /// [`ParamStore::set`]/[`ParamStore::try_set`],
    /// [`ParamStore::restore`]/[`ParamStore::try_restore`]. Caches keyed
    /// on model weights (e.g. memoized
    /// embeddings) compare revisions to detect staleness without hashing
    /// tensor data.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Register a parameter; `name` is for debugging/reporting only.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        self.revision += 1;
        self.tensors.push(tensor);
        self.names.push(name.into());
        ParamId(self.tensors.len() - 1)
    }

    /// Current value of a parameter.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access (used by optimizers). Conservatively counts as a
    /// mutation for [`ParamStore::revision`].
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.revision += 1;
        &mut self.tensors[id.0]
    }

    /// Overwrite a parameter's value (e.g. loading a checkpoint).
    ///
    /// # Panics
    /// Panics on shape mismatch; use [`ParamStore::try_set`] where the
    /// tensor comes from untrusted input (files, snapshots).
    #[expect(
        clippy::panic,
        reason = "documented panicking twin of try_set for in-process tensors; untrusted input goes through try_set"
    )]
    pub fn set(&mut self, id: ParamId, tensor: Tensor) {
        self.try_set(id, tensor)
            .unwrap_or_else(|e| panic!("ParamStore::set: {e}"));
    }

    /// Fallible [`ParamStore::set`]: rejects shape mismatches with a typed
    /// error instead of panicking.
    pub fn try_set(&mut self, id: ParamId, tensor: Tensor) -> Result<(), ParamError> {
        if self.tensors[id.0].shape() != tensor.shape() {
            return Err(ParamError::ShapeMismatch {
                name: self.names[id.0].clone(),
                expected: self.tensors[id.0].shape(),
                got: tensor.shape(),
            });
        }
        self.revision += 1;
        self.tensors[id.0] = tensor;
        Ok(())
    }

    /// Debug name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Iterate over all `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), t))
    }

    /// Snapshot all parameter values (cheap checkpointing).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.tensors.clone()
    }

    /// Restore a snapshot taken with [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store layout; use
    /// [`ParamStore::try_restore`] for snapshots loaded from disk.
    #[expect(
        clippy::panic,
        reason = "documented panicking twin of try_restore for in-process snapshots; snapshots from disk go through try_restore"
    )]
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        self.try_restore(snapshot)
            .unwrap_or_else(|e| panic!("ParamStore::restore: {e}"));
    }

    /// Fallible [`ParamStore::restore`]: validates the whole snapshot
    /// (count and every shape) before mutating anything, so a failed
    /// restore leaves the store untouched.
    pub fn try_restore(&mut self, snapshot: &[Tensor]) -> Result<(), ParamError> {
        if snapshot.len() != self.tensors.len() {
            return Err(ParamError::LengthMismatch {
                expected: self.tensors.len(),
                got: snapshot.len(),
            });
        }
        for (i, (t, s)) in self.tensors.iter().zip(snapshot).enumerate() {
            if t.shape() != s.shape() {
                return Err(ParamError::ShapeMismatch {
                    name: self.names[i].clone(),
                    expected: t.shape(),
                    got: s.shape(),
                });
            }
        }
        self.revision += 1;
        for (t, s) in self.tensors.iter_mut().zip(snapshot) {
            *t = s.clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(2, 3));
        assert_eq!(store.get(id).shape(), (2, 3));
        store.set(id, Tensor::full(2, 3, 1.5));
        assert_eq!(store.get(id).get(1, 2), 1.5);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.num_scalars(), 6);
    }

    #[test]
    fn snapshot_restore() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::full(1, 2, 3.0));
        let snap = store.snapshot();
        store.get_mut(id).as_mut_slice()[0] = -1.0;
        store.restore(&snap);
        assert_eq!(store.get(id).get(0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_rejects_wrong_shape() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(2, 3));
        store.set(id, Tensor::zeros(3, 2));
    }

    #[test]
    fn try_set_returns_typed_error() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(2, 3));
        let err = store.try_set(id, Tensor::zeros(3, 2)).unwrap_err();
        assert_eq!(
            err,
            ParamError::ShapeMismatch {
                name: "w".into(),
                expected: (2, 3),
                got: (3, 2)
            }
        );
        assert!(store.try_set(id, Tensor::full(2, 3, 1.0)).is_ok());
        assert_eq!(store.get(id).get(0, 0), 1.0);
    }

    #[test]
    fn revision_bumps_on_every_mutation_path() {
        let mut store = ParamStore::new();
        let r0 = store.revision();
        let id = store.add("w", Tensor::zeros(2, 2));
        assert!(store.revision() > r0, "add must bump");

        let r1 = store.revision();
        store.get(id);
        store.iter().count();
        let _ = store.snapshot();
        assert_eq!(store.revision(), r1, "reads must not bump");

        store.get_mut(id).as_mut_slice()[0] = 1.0;
        let r2 = store.revision();
        assert!(r2 > r1, "get_mut must bump");

        // A failed try_set leaves the revision alone.
        assert!(store.try_set(id, Tensor::zeros(9, 9)).is_err());
        assert_eq!(store.revision(), r2);
        assert!(store.try_set(id, Tensor::full(2, 2, 2.0)).is_ok());
        let r3 = store.revision();
        assert!(r3 > r2, "try_set must bump");

        let snap = store.snapshot();
        assert!(store.try_restore(&[Tensor::zeros(1, 1)]).is_err());
        assert_eq!(store.revision(), r3, "failed restore must not bump");
        store.restore(&snap);
        assert!(store.revision() > r3, "restore must bump");
    }

    #[test]
    fn try_restore_validates_before_mutating() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::full(1, 2, 1.0));
        let b = store.add("b", Tensor::full(2, 2, 2.0));
        // Wrong count.
        let err = store.try_restore(&[Tensor::zeros(1, 2)]).unwrap_err();
        assert_eq!(
            err,
            ParamError::LengthMismatch {
                expected: 2,
                got: 1
            }
        );
        // Second tensor has the wrong shape: nothing may change.
        let bad = vec![Tensor::zeros(1, 2), Tensor::zeros(9, 9)];
        assert!(store.try_restore(&bad).is_err());
        assert_eq!(store.get(a).get(0, 0), 1.0);
        assert_eq!(store.get(b).get(0, 0), 2.0);
        // A matching snapshot applies.
        let good = vec![Tensor::full(1, 2, -1.0), Tensor::full(2, 2, -2.0)];
        assert!(store.try_restore(&good).is_ok());
        assert_eq!(store.get(a).get(0, 0), -1.0);
    }
}
