//! # gp-tensor
//!
//! Dense 2-D `f32` tensors and a tape-based reverse-mode automatic
//! differentiation engine, built for the GraphPrompter reproduction.
//!
//! The design follows the classic *Wengert list*: every operation appends a
//! node to a [`Tape`]; node ids are therefore already in topological order
//! and the backward pass is a single reverse sweep with analytic adjoints
//! per [`Op`] variant (no boxed closures, no `Rc` cycles).
//!
//! Two ops are specific to graph learning and carry the load of the paper:
//!
//! * [`Tape::spmm`] — sparse (edge-list) × dense multiply with
//!   **differentiable per-edge weights**, i.e. `out[dst] += w_e · x[src]`.
//!   Gradients flow both into the dense features *and into the edge
//!   weights*, which is exactly what trains the Prompt Generator's
//!   reconstruction layer (Eqs. 2–4 of the paper).
//! * [`Tape::edge_softmax`] — softmax over edge scores grouped by
//!   destination node, the primitive behind GAT-style attention and the
//!   task-graph attention GNN.
//!
//! The engine is deliberately minimal: 2-D shapes only (vectors are `n×1`
//! or `1×d`), `f32` only. Model sizes in this reproduction (hidden dims
//! ≤ 128, subgraphs ≤ a few hundred nodes) keep tensors simple; see
//! DESIGN.md.
//!
//! Kernels keep the historical bit-exact accumulation order, results
//! bit-identical across runs, hosts and thread budgets: every output
//! element runs one pinned float sequence (see [`backend`]), which
//! `matmul` and friends also run compiled for AVX2 on hosts that have it
//! (detected at run time), with the same bits. Each kernel runs whole on
//! its calling thread; the one fan-out, `gp_core`'s episode evaluation,
//! runs through [`parallel::WorkerPool::map`] under one thread budget
//! (see [`parallel`]).

pub mod backend;
pub mod parallel;
pub mod rng;
pub mod sparse;
pub mod tape;
pub mod tensor;

pub use backend::{Backend, BackendGuard};
pub use parallel::{Parallelism, WorkerPool};
pub use sparse::EdgeList;
pub use tape::{Op, Tape, Var};
pub use tensor::{cosine_slices, cosine_slices_with_norms, l2_norm, rank_asc, rank_desc, Tensor};
