//! Prompt Selector (§IV-B): combine pre-trained selection-layer importance
//! with kNN retrieval, then pick the episode prompt set by query voting.
//!
//! This stage runs at inference on plain tensors (no tape): it "can be
//! used effectively and doesn't need to update any parameters in
//! inference" (§I).

use gp_tensor::rng::StdRng;
use gp_tensor::Tensor;

/// Similarity measure for kNN retrieval (Eq. 6). The paper uses cosine
/// and notes it "can be substituted by other distance metrics, like
/// Euclidean distance or Manhattan distance"; both are provided, mapped
/// to similarities via `-distance` so larger is always better.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum DistanceMetric {
    /// Cosine similarity (the paper's default).
    #[default]
    Cosine,
    /// Negative Euclidean (L2) distance.
    Euclidean,
    /// Negative Manhattan (L1) distance.
    Manhattan,
}

impl DistanceMetric {
    /// Similarity between row `i` of `a` and row `j` of `b`.
    pub fn similarity(self, a: &Tensor, i: usize, b: &Tensor, j: usize) -> f32 {
        match self {
            DistanceMetric::Cosine => a.cosine_rows(i, b, j),
            DistanceMetric::Euclidean => {
                let d: f32 = a
                    .row(i)
                    .iter()
                    .zip(b.row(j))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                -d.sqrt()
            }
            DistanceMetric::Manhattan => {
                let d: f32 = a
                    .row(i)
                    .iter()
                    .zip(b.row(j))
                    .map(|(x, y)| (x - y).abs())
                    .sum();
                -d
            }
        }
    }
}

/// How prompts were scored (returned for diagnostics).
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Selected candidate indices, grouped `k` per class in class order.
    pub selected: Vec<usize>,
    /// Vote totals per candidate (Eq. 8); empty for random selection.
    pub votes: Vec<f32>,
}

/// Score and select `k` prompts per class from `N·m` candidates.
///
/// * `prompt_embs` — `P×d` candidate embeddings (`G_p`).
/// * `prompt_imps` — `P` importances (`I_p`, Eq. 5).
/// * `prompt_labels` — episode class per candidate.
/// * `query_embs` / `query_imps` — the voting pool `Q`.
/// * `use_knn` adds `sim(p,q) = cos(G_p, G_q)` (Eq. 6); `use_selection`
///   adds `I_p · I_q` (Eq. 7). With both disabled the choice is uniform
///   random — exactly Prodigy's strategy.
///
/// Voting (Eq. 8): each query casts `score(p,q)` votes for every prompt in
/// its top-`m·k` scored list; the per-class top-`k` vote-getters win.
///
/// # Panics
/// Panics on shape mismatches between the inputs.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors Eq. 7's inputs one-to-one"
)]
pub fn select_prompts(
    prompt_embs: &Tensor,
    prompt_imps: &[f32],
    prompt_labels: &[usize],
    query_embs: &Tensor,
    query_imps: &[f32],
    num_classes: usize,
    shots: usize,
    use_knn: bool,
    use_selection: bool,
    rng: &mut StdRng,
) -> SelectionOutcome {
    select_prompts_with_metric(
        prompt_embs,
        prompt_imps,
        prompt_labels,
        query_embs,
        query_imps,
        num_classes,
        shots,
        use_knn,
        use_selection,
        DistanceMetric::Cosine,
        rng,
    )
}

/// As [`select_prompts`] with an explicit kNN distance metric.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors Eq. 7's inputs one-to-one, plus the kNN metric"
)]
pub fn select_prompts_with_metric(
    prompt_embs: &Tensor,
    prompt_imps: &[f32],
    prompt_labels: &[usize],
    query_embs: &Tensor,
    query_imps: &[f32],
    num_classes: usize,
    shots: usize,
    use_knn: bool,
    use_selection: bool,
    metric: DistanceMetric,
    rng: &mut StdRng,
) -> SelectionOutcome {
    let p = prompt_embs.rows();
    let n = query_embs.rows();
    assert_eq!(prompt_imps.len(), p, "importance per prompt required");
    assert_eq!(prompt_labels.len(), p, "label per prompt required");
    assert_eq!(query_imps.len(), n, "importance per query required");

    if !use_knn && !use_selection {
        // Prodigy: uniform-random k per class.
        let mut selected = Vec::new();
        for class in 0..num_classes {
            let mut pool: Vec<usize> = (0..p).filter(|&i| prompt_labels[i] == class).collect();
            rng.shuffle(&mut pool);
            selected.extend(pool.into_iter().take(shots));
        }
        return SelectionOutcome {
            selected,
            votes: Vec::new(),
        };
    }

    // Eq. 7: score(p, q) = sim(p, q) + I_p · I_q, with each term gated by
    // its ablation toggle. Cosine norms depend on one row only, so they
    // are hoisted out of the P×Q loop (P+Q norms instead of 2·P·Q);
    // the dot/norm accumulation order is unchanged, keeping every score
    // bit-identical to the naive per-pair form.
    let cosine_knn = use_knn && metric == DistanceMetric::Cosine;
    let (prompt_norms, query_norms) = if cosine_knn {
        let norms = |t: &Tensor| {
            (0..t.rows())
                .map(|r| gp_tensor::l2_norm(t.row(r)))
                .collect()
        };
        (norms(prompt_embs), norms(query_embs))
    } else {
        (Vec::new(), Vec::new())
    };
    let mut votes = vec![0.0f32; p];
    let top = (num_classes * shots).min(p);
    let mut scores: Vec<(usize, f32)> = Vec::with_capacity(p);
    for q in 0..n {
        scores.clear();
        for i in 0..p {
            let mut s = 0.0;
            if cosine_knn {
                s += gp_tensor::cosine_slices_with_norms(
                    prompt_embs.row(i),
                    query_embs.row(q),
                    prompt_norms[i],
                    query_norms[q],
                );
            } else if use_knn {
                s += metric.similarity(prompt_embs, i, query_embs, q);
            }
            if use_selection {
                s += prompt_imps[i] * query_imps[q];
            }
            scores.push((i, s));
        }
        // T(q): the top-(m·k) scored prompts for this query. Vote weights
        // are shifted per query so they are non-negative — with raw scores
        // (Eq. 8) a prompt appearing in many top-k lists under a negative
        // metric (Euclidean/Manhattan, or anti-aligned cosine) would
        // accumulate more *negative* mass and rank lower, inverting the
        // vote's intent. The comparator is total (gp_tensor::rank_desc):
        // a NaN score — e.g. the cosine of a zero-norm embedding — ranks
        // last instead of leaving the order at the mercy of sort
        // internals, and NaN-free inputs sort exactly as partial_cmp did.
        scores.sort_by(|a, b| gp_tensor::rank_desc(a.1, b.1));
        let floor = scores
            .iter()
            .take(top)
            .map(|&(_, s)| s)
            .fold(f32::INFINITY, f32::min)
            .min(0.0);
        for &(i, s) in scores.iter().take(top) {
            votes[i] += s - floor;
        }
    }

    // Final set Ŝ: per class, the k candidates with the most votes (the
    // paper's evaluation protocol keeps k examples per category, §V-A2).
    let mut selected = Vec::new();
    for class in 0..num_classes {
        let mut pool: Vec<usize> = (0..p).filter(|&i| prompt_labels[i] == class).collect();
        // Vote tie-break is total as well: a candidate whose votes went
        // NaN (it only ever received NaN scores) ranks last in its class.
        pool.sort_by(|&a, &b| gp_tensor::rank_desc(votes[a], votes[b]));
        selected.extend(pool.into_iter().take(shots));
    }
    SelectionOutcome { selected, votes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 classes × 3 candidates along axes 0/1; queries near axis 0/1.
    fn fixture() -> (Tensor, Vec<f32>, Vec<usize>, Tensor, Vec<f32>) {
        let prompts = Tensor::from_vec(
            6,
            2,
            vec![
                1.0, 0.0, // c0, aligned with queries of class 0
                0.9, 0.1, // c0
                -0.5, -0.5, // c0, poor: dissimilar to every query
                0.0, 1.0, // c1
                0.1, 0.9, // c1
                -0.6, -0.4, // c1, poor
            ],
        );
        let imps = vec![0.9, 0.8, 0.1, 0.9, 0.8, 0.1];
        let labels = vec![0, 0, 0, 1, 1, 1];
        let queries = Tensor::from_vec(2, 2, vec![1.0, 0.05, 0.05, 1.0]);
        let q_imps = vec![0.9, 0.9];
        (prompts, imps, labels, queries, q_imps)
    }

    #[test]
    fn knn_prefers_aligned_prompts() {
        let (p, i, l, q, qi) = fixture();
        let mut rng = StdRng::seed_from_u64(0);
        let out = select_prompts(&p, &i, &l, &q, &qi, 2, 2, true, false, &mut rng);
        assert_eq!(out.selected.len(), 4);
        // The poor candidates (2 and 5) must not be selected.
        assert!(!out.selected.contains(&2));
        assert!(!out.selected.contains(&5));
    }

    #[test]
    fn selection_layer_alone_prefers_important_prompts() {
        let (p, i, l, q, qi) = fixture();
        let mut rng = StdRng::seed_from_u64(0);
        let out = select_prompts(&p, &i, &l, &q, &qi, 2, 1, false, true, &mut rng);
        assert_eq!(out.selected, vec![0, 3]);
    }

    #[test]
    fn combined_score_adds_both_terms() {
        // Two near-identical candidates per class; the slightly-less-similar
        // one carries much higher importance, so the combined score must
        // flip the choice relative to kNN alone.
        let p = Tensor::from_vec(
            4,
            2,
            vec![
                1.0, 0.0, // c0, best cosine, tiny importance
                0.95, 0.05, // c0, slightly worse cosine, huge importance
                0.0, 1.0, // c1
                0.05, 0.95, // c1
            ],
        );
        let i = vec![0.05, 0.95, 0.05, 0.95];
        let l = vec![0, 0, 1, 1];
        let q = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let qi = vec![1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let knn_only = select_prompts(&p, &i, &l, &q, &qi, 2, 1, true, false, &mut rng);
        let both = select_prompts(&p, &i, &l, &q, &qi, 2, 1, true, true, &mut rng);
        assert_eq!(knn_only.selected, vec![0, 2]);
        assert_eq!(both.selected, vec![1, 3]);
    }

    #[test]
    fn random_fallback_is_class_balanced() {
        let (p, i, l, q, qi) = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        let out = select_prompts(&p, &i, &l, &q, &qi, 2, 2, false, false, &mut rng);
        assert_eq!(out.selected.len(), 4);
        let c0 = out.selected.iter().filter(|&&s| l[s] == 0).count();
        assert_eq!(c0, 2);
        assert!(out.votes.is_empty());
    }

    #[test]
    fn votes_are_nonnegative_sums_over_queries() {
        let (p, i, l, q, qi) = fixture();
        let mut rng = StdRng::seed_from_u64(0);
        let out = select_prompts(&p, &i, &l, &q, &qi, 2, 2, true, true, &mut rng);
        assert_eq!(out.votes.len(), 6);
        // Selected prompts have votes at least as large as unselected
        // same-class prompts.
        for class in 0..2 {
            let sel_min = out
                .selected
                .iter()
                .filter(|&&s| l[s] == class)
                .map(|&s| out.votes[s])
                .fold(f32::INFINITY, f32::min);
            for (cand, &lab) in l.iter().enumerate() {
                if lab == class && !out.selected.contains(&cand) {
                    assert!(out.votes[cand] <= sel_min + 1e-6);
                }
            }
        }
    }

    #[test]
    fn euclidean_and_manhattan_metrics_rank_aligned_prompts_first() {
        let (p, i, l, q, qi) = fixture();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let mut rng = StdRng::seed_from_u64(0);
            let out = select_prompts_with_metric(
                &p, &i, &l, &q, &qi, 2, 2, true, false, metric, &mut rng,
            );
            assert!(
                !out.selected.contains(&2),
                "{metric:?} picked the poor candidate"
            );
            assert!(
                !out.selected.contains(&5),
                "{metric:?} picked the poor candidate"
            );
        }
    }

    #[test]
    fn metric_similarity_identities() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let b = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        // Self-similarity is maximal for each metric.
        for m in [
            DistanceMetric::Cosine,
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
        ] {
            assert!(m.similarity(&a, 0, &a, 0) >= m.similarity(&a, 0, &b, 0));
        }
        assert!((DistanceMetric::Euclidean.similarity(&a, 0, &b, 0) + 2f32.sqrt()).abs() < 1e-6);
        assert!((DistanceMetric::Manhattan.similarity(&a, 0, &b, 0) + 2.0).abs() < 1e-6);
    }

    /// The hoisted-norm cosine used inside the scoring loop must be
    /// bit-identical to the naive per-pair [`DistanceMetric::similarity`]
    /// it replaced, for every (prompt, query) pair of the fixture.
    #[test]
    fn hoisted_norm_cosine_is_bitwise_identical_to_per_pair() {
        let (p, _, _, q, _) = fixture();
        let p_norms: Vec<f32> = (0..p.rows())
            .map(|r| gp_tensor::l2_norm(p.row(r)))
            .collect();
        let q_norms: Vec<f32> = (0..q.rows())
            .map(|r| gp_tensor::l2_norm(q.row(r)))
            .collect();
        for (i, &p_norm) in p_norms.iter().enumerate() {
            for (j, &q_norm) in q_norms.iter().enumerate() {
                let naive = DistanceMetric::Cosine.similarity(&p, i, &q, j);
                let hoisted =
                    gp_tensor::cosine_slices_with_norms(p.row(i), q.row(j), p_norm, q_norm);
                assert_eq!(
                    naive.to_bits(),
                    hoisted.to_bits(),
                    "pair ({i},{j}): {naive} vs {hoisted}"
                );
            }
        }
    }

    /// 2 classes × 2 candidates scored purely by the selection layer
    /// (Eq. 7's `I_p · I_q` term), with candidate 0's importance poisoned
    /// to NaN — the same failure mode a zero-norm embedding produces.
    fn nan_fixture() -> (Tensor, Vec<f32>, Vec<usize>, Tensor, Vec<f32>) {
        let prompts = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]);
        let imps = vec![f32::NAN, 0.5, 0.9, 0.4];
        let labels = vec![0, 0, 1, 1];
        let queries = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let q_imps = vec![1.0, 1.0];
        (prompts, imps, labels, queries, q_imps)
    }

    /// Regression for the `partial_cmp(..).unwrap_or(Equal)` hazard: a
    /// candidate whose score goes NaN must rank *last* — never selected
    /// while a healthy same-class candidate remains — and the outcome
    /// must be identical on every run instead of depending on sort
    /// internals and input order.
    #[test]
    fn nan_scored_candidate_ranks_last_deterministically() {
        let (p, i, l, q, qi) = nan_fixture();
        let run = || {
            let mut rng = StdRng::seed_from_u64(0);
            // shots = 1 → per-query top list holds 2 of 4 candidates; the
            // NaN candidate sorts below every finite score, stays out of
            // every top list, and collects zero votes.
            select_prompts(&p, &i, &l, &q, &qi, 2, 1, false, true, &mut rng)
        };
        let out = run();
        assert_eq!(
            out.selected,
            vec![1, 2],
            "healthy candidates win: {:?}",
            out.selected
        );
        for _ in 0..4 {
            let again = run();
            assert_eq!(again.selected, out.selected, "selection must be stable");
            assert_eq!(
                again.votes.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.votes.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "votes must be bit-identical across runs"
            );
        }
    }

    /// Even when the NaN-scored candidate cannot be dodged (shots take
    /// every candidate, so its votes themselves go NaN), it is appended
    /// last in its class group rather than displacing a healthy pick.
    #[test]
    fn nan_votes_lose_the_class_tie_break() {
        let (p, i, l, q, qi) = nan_fixture();
        let mut rng = StdRng::seed_from_u64(0);
        let out = select_prompts(&p, &i, &l, &q, &qi, 2, 2, false, true, &mut rng);
        let class0: Vec<usize> = out
            .selected
            .iter()
            .copied()
            .filter(|&s| l[s] == 0)
            .collect();
        assert_eq!(
            class0,
            vec![1, 0],
            "NaN candidate must rank last in its class"
        );
        assert!(
            out.votes[0].is_nan(),
            "forced-in NaN candidate accumulates NaN votes"
        );
    }

    #[test]
    fn fewer_candidates_than_shots_takes_all() {
        let p = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        let out = select_prompts(
            &p,
            &[0.5, 0.5],
            &[0, 1],
            &p,
            &[0.5, 0.5],
            2,
            3,
            true,
            true,
            &mut rng,
        );
        assert_eq!(out.selected.len(), 2);
    }
}
