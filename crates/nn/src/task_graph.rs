//! The bipartite task-graph model (§III-B, Eq. 10–11).
//!
//! A task graph contains `m·k + n` data nodes (prompts + queries) and `m`
//! label nodes. Each prompt node connects to *all* label nodes; the edge
//! attribute is `T` for the prompt's true class and `F` otherwise. An
//! attention GNN fuses the prompts associated with each class into a label
//! embedding (`H = GNN_T(G^T(S, Q))`, Eq. 10) and each query is classified
//! by the cosine-most-similar label embedding (Eq. 11).
//!
//! The `P·m` prompt→label edges carry only `2P` distinct messages: an
//! edge's message and attention score depend on its prompt and on
//! whether the edge is `T` or `F`. A training [`Session`](crate::Session)
//! records the message net over every edge, as the per-edge graph reads;
//! the tape-free [`Eval`](crate::Eval) computes the `2P` distinct rows
//! once (see [`Forward::keyed_rows`]) and never expands the messages:
//! each edge's `src` is its message's built row, so the label `spmm`
//! reads the `2P` rows in place, and only the `P·m×1` scores are
//! gathered to the edges for `edge_softmax`. The bits are the expanded
//! pass's: `spmm` is an edge-order scatter and reads
//! the same row values in the same edge order.

use gp_tensor::rng::StdRng;
use std::sync::Arc;

use gp_tensor::{EdgeList, Tensor};

use crate::forward::Forward;
use crate::linear::{Activation, Linear};
use crate::params::{ParamId, ParamStore};

/// Attention-based task-graph GNN, following Prodigy's task-graph design.
pub struct TaskGraphAttention {
    /// Embedding per edge attribute (`T` = row 0, `F` = row 1).
    edge_emb: ParamId,
    /// Message net over `[prompt_emb | edge_emb]`.
    msg: Linear,
    /// Attention scorer over messages.
    att: Linear,
    /// Label update net back to embedding space.
    upd: Linear,
    /// Query projection.
    query_proj: Linear,
    /// Learned gate on the prototype residual path.
    proto_gate: ParamId,
    /// Whether the prototype residual path is wired in at all.
    use_prototype_residual: bool,
    /// Cosine-logit temperature (fixed).
    temperature: f32,
    edge_dim: usize,
    dim: usize,
}

impl TaskGraphAttention {
    /// Build with embedding width `dim` (matching `GNN_D`'s output), hidden
    /// width `hidden`, and edge-attribute width `edge_dim`.
    pub fn new(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        dim: usize,
        hidden: usize,
        edge_dim: usize,
    ) -> Self {
        Self {
            edge_emb: store.add(
                format!("{name}.edge_emb"),
                gp_tensor::rng::xavier_uniform(rng_, 2, edge_dim),
            ),
            msg: Linear::new(store, rng_, &format!("{name}.msg"), dim + edge_dim, hidden),
            att: Linear::new(store, rng_, &format!("{name}.att"), hidden, 1),
            upd: Linear::new(store, rng_, &format!("{name}.upd"), hidden, dim),
            query_proj: Linear::new(store, rng_, &format!("{name}.qproj"), dim, dim),
            proto_gate: store.add(format!("{name}.proto_gate"), Tensor::scalar(0.5)),
            temperature: 10.0,
            use_prototype_residual: true,
            edge_dim,
            dim,
        }
    }

    /// Enable or disable the prototype residual path (enabled by default).
    pub fn set_prototype_residual(&mut self, enabled: bool) {
        self.use_prototype_residual = enabled;
    }

    /// Embedding width this model expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Run the task graph and return the `n×m` scaled-cosine logits of
    /// the queries against the `m` label-node embeddings.
    ///
    /// * `prompts` — `P×d` prompt data-node embeddings (already importance-
    ///   weighted by the Prompt Selector when enabled).
    /// * `prompt_labels` — class of each prompt, values `< num_classes`.
    /// * `queries` — `n×d` query data-node embeddings.
    ///
    /// The messages and attention scores go through
    /// [`Forward::keyed_rows`], keyed by prompt and `T`/`F`: a `Session`
    /// computes all `P·m` edge rows, an `Eval` the `2P` distinct ones,
    /// which the edges read through the returned [`RowMap`](crate::RowMap).
    ///
    /// # Panics
    /// Panics when the prompt set is empty or a label is out of range.
    pub fn forward<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        prompts: &F::V,
        prompt_labels: &[usize],
        queries: &F::V,
        num_classes: usize,
    ) -> F::V {
        let p = f.value(prompts).rows();
        assert!(p > 0, "task graph needs at least one prompt");
        assert_eq!(prompt_labels.len(), p, "one label per prompt required");
        assert!(
            prompt_labels.iter().all(|&y| y < num_classes),
            "prompt label out of range"
        );

        // Bipartite prompt→label edges: every prompt to every label.
        // Edge row r = i*m + j carries attribute T (0) iff label_i == j,
        // so its message and score depend only on the key 2i + [y_i ≠ j]:
        // the P·m edges carry 2P distinct rows.
        let m = num_classes;
        let mut keys = Vec::with_capacity(p * m);
        for (i, &yi) in prompt_labels.iter().enumerate() {
            for j in 0..m {
                keys.push(2 * i + usize::from(yi != j));
            }
        }

        // Messages relu(W_msg [x_i | e_ij]) and their attention scores.
        let ([msg_h, scores], map) = f.keyed_rows(&keys, |f, rows| {
            let prompt_idx = rows.iter().map(|&r| r / m).collect();
            let attr_idx = rows
                .iter()
                .map(|&r| usize::from(prompt_labels[r / m] != r % m)) // 0 = T, 1 = F
                .collect();
            let x_e = f.gather_rows(prompts, Arc::new(prompt_idx));
            let emb = f.param(self.edge_emb);
            let e_e = f.gather_rows(&emb, Arc::new(attr_idx));
            let msg_in = f.concat_cols(&x_e, &e_e);
            let msg_lin = self.msg.forward(f, &msg_in);
            let msg_h = Activation::Relu.apply(f, msg_lin);
            let scores_raw = self.att.forward(f, &msg_h);
            let scores = f.leaky_relu(scores_raw, 0.2);
            [msg_h, scores]
        });
        // Edge r sends its built row's message to label r % m, so the
        // aggregation reads the built rows in place.
        let bip = EdgeList::from_pairs((0..keys.len()).map(|r| (map.at(r) as u32, (r % m) as u32)))
            .into_shared();

        // Attention over messages, normalized per label node.
        let edge_scores = map.expand(f, scores);
        let alpha = f.edge_softmax(&bip, &edge_scores);

        // Aggregate messages into label nodes and update. The label
        // embedding is the attention update *plus* a class-prototype
        // residual (mean of the class's own prompt embeddings): the
        // attention path learns corrections while the prototype path keeps
        // label nodes anchored in the data-embedding space — which is what
        // lets test-time cached samples (Prompt Augmenter) shift decision
        // boundaries toward the test distribution, a la T3A.
        let label_agg = f.spmm(&bip, &msg_h, Some(&alpha), m);
        let upd = self.upd.forward(f, &label_agg);
        let correction = f.tanh(upd);
        if !self.use_prototype_residual {
            // Attention-only label embeddings.
            return self.logits(f, queries, correction);
        }
        let mut class_count = vec![0f32; m];
        for &y in prompt_labels {
            class_count[y] += 1.0;
        }
        let proto_edges = EdgeList::from_pairs(
            prompt_labels
                .iter()
                .enumerate()
                .map(|(i, &y)| (i as u32, y as u32)),
        )
        .into_shared();
        let proto_w = f.data(Tensor::from_vec(
            prompt_labels.len(),
            1,
            prompt_labels
                .iter()
                .map(|&y| 1.0 / class_count[y].max(1.0))
                .collect(),
        ));
        let proto = f.spmm(&proto_edges, prompts, Some(&proto_w), m);
        // Gate the prototype path with a learned scalar so pre-training
        // balances prototype-averaging against the attention correction.
        let gate = f.param(self.proto_gate);
        let ones_m = f.data(Tensor::full(m, 1, 1.0));
        let gate_col = f.matmul(&ones_m, &gate);
        let gated_proto = f.mul_rows_by_col(proto, &gate_col);
        let label_embeddings = f.add(gated_proto, &correction);
        self.logits(f, queries, label_embeddings)
    }

    /// Queries → scaled-cosine logits against the label embeddings.
    fn logits<'a, F: Forward<'a>>(&self, f: &mut F, queries: &F::V, labels: F::V) -> F::V {
        let q = self.query_proj.forward(f, queries);
        let qn = f.row_l2_normalize(q);
        let ln = f.row_l2_normalize(labels);
        let cos = f.matmul_tb(&qn, &ln);
        f.scale(cos, self.temperature)
    }

    /// Edge-attribute embedding width.
    pub fn edge_dim(&self) -> usize {
        self.edge_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{AdamW, Optimizer};
    use crate::{Eval, Session};
    use gp_tensor::rng::check;

    fn setup(dim: usize) -> (ParamStore, TaskGraphAttention) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let tg = TaskGraphAttention::new(&mut store, &mut rng, "tg", dim, 16, 4);
        (store, tg)
    }

    /// Cluster-separated prompt embeddings: class c centered at unit axis c.
    fn clustered(
        n_per_class: usize,
        m: usize,
        dim: usize,
        noise: f32,
        seed: u64,
    ) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..m {
            for _ in 0..n_per_class {
                for d in 0..dim {
                    let base = if d == c { 1.0 } else { 0.0 };
                    data.push(base + noise * gp_tensor::rng::standard_normal(&mut rng));
                }
                labels.push(c);
            }
        }
        (Tensor::from_vec(n_per_class * m, dim, data), labels)
    }

    #[test]
    fn output_shapes() {
        let (store, tg) = setup(8);
        let (p, labels) = clustered(3, 4, 8, 0.1, 0);
        let (q, _) = clustered(2, 4, 8, 0.1, 1);
        let mut sess = Session::new(&store);
        let pv = sess.data(p);
        let qv = sess.data(q);
        let out = tg.forward(&mut sess, &pv, &labels, &qv, 4);
        assert_eq!(sess.value(&out).shape(), (8, 4));
    }

    #[test]
    fn trains_to_classify_clustered_queries() {
        let (mut store, tg) = setup(6);
        let m = 3;
        let (p, p_labels) = clustered(3, m, 6, 0.05, 2);
        let (q, q_labels) = clustered(4, m, 6, 0.05, 3);
        let targets = Arc::new(q_labels.clone());
        let mut opt = AdamW::new(0.01, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..150 {
            let mut sess = Session::new(&store);
            let pv = sess.data(p.clone());
            let qv = sess.data(q.clone());
            let out = tg.forward(&mut sess, &pv, &p_labels, &qv, m);
            let loss = sess.tape.cross_entropy_logits(out, targets.clone());
            let (lv, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
            last = lv;
        }
        assert!(last < 0.3, "task graph did not train: loss {last}");
        // After training, the argmax prediction (Eq. 11) must match.
        let mut sess = Session::new(&store);
        let pv = sess.data(p);
        let qv = sess.data(q);
        let out = tg.forward(&mut sess, &pv, &p_labels, &qv, m);
        let pred = sess.value(&out).argmax_rows();
        let correct = pred.iter().zip(&q_labels).filter(|(a, b)| a == b).count();
        assert!(correct >= 10, "only {correct}/12 correct");
    }

    #[test]
    #[should_panic(expected = "at least one prompt")]
    fn empty_prompt_set_panics() {
        let (store, tg) = setup(4);
        let mut sess = Session::new(&store);
        let pv = sess.data(Tensor::zeros(0, 4));
        let qv = sess.data(Tensor::zeros(1, 4));
        let _ = tg.forward(&mut sess, &pv, &[], &qv, 2);
    }

    #[test]
    fn class_with_no_prompt_still_gets_embedding() {
        // Labels only from class 0; class 1's label node aggregates F-edges.
        let (store, tg) = setup(4);
        let mut sess = Session::new(&store);
        let pv = sess.data(Tensor::from_vec(
            2,
            4,
            vec![1.0, 0.0, 0.0, 0.0, 0.9, 0.1, 0.0, 0.0],
        ));
        let qv = sess.data(Tensor::from_vec(1, 4, vec![1.0, 0.0, 0.0, 0.0]));
        let out = tg.forward(&mut sess, &pv, &[0, 0], &qv, 2);
        assert!(sess.value(&out).all_finite());
    }

    fn logit_bits<'a, F: Forward<'a>>(
        tg: &TaskGraphAttention,
        f: &mut F,
        prompts: &Tensor,
        labels: &[usize],
        queries: &Tensor,
        m: usize,
    ) -> Vec<u32> {
        let pv = f.data(prompts.clone());
        let qv = f.data(queries.clone());
        let out = tg.forward(f, &pv, labels, &qv, m);
        f.value(&out)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn eval_matches_the_tape_bit_for_bit_at_many_ways() {
        check(24, |rng| {
            let m = [2, 10, 40][rng.gen_range(0..3)];
            // Prompts fall in the first `used` classes only, so the rest
            // get none and, as P grows, each used class gets several.
            let used = rng.gen_range(1..m + 1);
            let p = rng.gen_range(1..3 * used + 1);
            let labels: Vec<usize> = (0..p).map(|_| rng.gen_range(0..used)).collect();
            // The model's widths, and small odd ones for kernel remainders.
            let (dim, hidden, edge_dim) = [(32, 64, 8), (5, 12, 3)][rng.gen_range(0..2)];
            let prompts = gp_tensor::rng::randn(rng, p, dim, 1.0);
            let n = rng.gen_range(1..6);
            let queries = gp_tensor::rng::randn(rng, n, dim, 1.0);
            let mut store = ParamStore::new();
            let mut tg = TaskGraphAttention::new(&mut store, rng, "tg", dim, hidden, edge_dim);
            for residual in [true, false] {
                tg.set_prototype_residual(residual);
                let tape = logit_bits(
                    &tg,
                    &mut Session::new(&store),
                    &prompts,
                    &labels,
                    &queries,
                    m,
                );
                let eval = logit_bits(&tg, &mut Eval::new(&store), &prompts, &labels, &queries, m);
                assert_eq!(tape, eval, "m {m} P {p} residual {residual}");
            }
        });
    }

    /// `Eval` reads the `2P` message rows in place and gathers only the
    /// scores; its logits equal the tape's, which records every `P·m`
    /// edge row, on prompt sets shaped as inference builds them: `k`
    /// selected prompts per class plus up to `c` cached ones per class
    /// (the augmenter's `Ŝ ∪ C`, so `P` exceeds the selected `m·k`),
    /// importance-scaled rows, and classes that hold no prompt at all.
    #[test]
    fn eval_reads_the_messages_in_place_bit_for_bit() {
        check(24, |rng| {
            let m = [2, 5, 10, 40][rng.gen_range(0..4)];
            let (k, c) = (rng.gen_range(1..4), rng.gen_range(1..4));
            // About a quarter of the classes get no prompt; class 0
            // always gets some, so the set is never empty.
            let held: Vec<usize> = (0..m)
                .filter(|&y| y == 0 || rng.gen_range(0..4) != 0)
                .collect();
            let mut labels: Vec<usize> = held.iter().flat_map(|&y| vec![y; k]).collect();
            let selected = labels.len();
            for &y in &held {
                labels.extend(std::iter::repeat_n(y, rng.gen_range(1..=c)));
            }
            let p = labels.len();
            assert!(p > selected);
            let (dim, hidden, edge_dim) = [(32, 64, 8), (5, 12, 3)][rng.gen_range(0..2)];
            let mut prompts = gp_tensor::rng::randn(rng, p, dim, 1.0);
            let imps: Vec<f32> = (0..p).map(|_| rng.next_f32()).collect();
            prompts = prompts.mul_rows_by_col(&Tensor::from_vec(p, 1, imps));
            let n = rng.gen_range(1..6);
            let queries = gp_tensor::rng::randn(rng, n, dim, 1.0);
            let mut store = ParamStore::new();
            let mut tg = TaskGraphAttention::new(&mut store, rng, "tg", dim, hidden, edge_dim);
            for residual in [true, false] {
                tg.set_prototype_residual(residual);
                let tape = logit_bits(
                    &tg,
                    &mut Session::new(&store),
                    &prompts,
                    &labels,
                    &queries,
                    m,
                );
                let eval = logit_bits(&tg, &mut Eval::new(&store), &prompts, &labels, &queries, m);
                assert_eq!(
                    tape,
                    eval,
                    "m {m} k {k} P {p} held {} residual {residual}",
                    held.len()
                );
            }
        });
    }
}
