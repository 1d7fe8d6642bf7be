//! # gp-nn
//!
//! Neural-network building blocks over the [`gp_tensor`] autograd engine:
//!
//! * [`ParamStore`] / [`Session`] — a parameter registry decoupled from the
//!   per-step [`gp_tensor::Tape`], so one set of weights can drive many
//!   forward/backward passes (the "tape per step, params outside" pattern).
//! * [`Forward`] / [`Eval`] — every layer's forward is written once over
//!   [`Forward`]; [`Session`] records it for training, and the tape-free
//!   [`Eval`] runs it for inference, borrowing parameters and overwriting
//!   intermediates in place, bit-identical to the tape.
//! * [`Linear`] / [`Mlp`] — the 2-layer MLPs the paper uses for the
//!   reconstruction layer (`MLP_φ`, Eq. 2) and selection layer (`MLP_θ`, Eq. 5).
//! * Optimizers: [`Sgd`] and [`AdamW`] (the paper trains with AdamW,
//!   lr 1e-3, weight decay 1e-3).
//! * GNNs: [`GraphSage`] (the paper's `GNN_D`, §V-A4), [`Gcn`], and [`Gat`]
//!   (the Fig. 4 generator ablation), all supporting *differentiable edge
//!   weights* so the Prompt Generator's reconstruction weights train
//!   end-to-end.
//! * [`TaskGraphAttention`] — the attention-based bipartite task-graph
//!   model (Eq. 10) that fuses prompts per class into label embeddings and
//!   scores queries by cosine similarity (Eq. 11).

pub mod forward;
pub mod gnn;
pub mod linear;
pub mod optim;
pub mod params;
pub mod session;
pub mod task_graph;

pub use forward::{Eval, Forward, RowMap};
pub use gnn::{EncodeGraph, Gat, Gcn, GnnEncoder, GraphSage};
pub use linear::{Activation, Linear, Mlp};
pub use optim::{AdamW, Optimizer, Sgd};
pub use params::{ParamError, ParamId, ParamStore};
pub use session::Session;
pub use task_graph::TaskGraphAttention;
