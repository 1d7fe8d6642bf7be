//! Few-shot episode sampling (the paper's §V-A2 evaluation protocol).

use crate::dataset::{DataPoint, Dataset, Split};
use gp_tensor::rng::StdRng;

/// One `m`-way episode: `N` candidate prompts per class from the train
/// partition, `n` queries from the test partition, labels remapped to
/// `0..m` for the episode.
#[derive(Clone, Debug)]
pub struct FewShotTask {
    /// The original class ids chosen for this episode (length `m`).
    pub classes: Vec<u16>,
    /// Candidate prompt pool: `(datapoint, episode label)`, up to `N` per class.
    pub candidates: Vec<(DataPoint, usize)>,
    /// Queries: `(datapoint, episode label)`.
    pub queries: Vec<(DataPoint, usize)>,
}

impl FewShotTask {
    /// Number of ways `m`.
    pub fn ways(&self) -> usize {
        self.classes.len()
    }
}

/// Sample an `ways`-way episode:
/// * choose `ways` distinct classes that have support in both splits,
/// * take up to `candidates_per_class` (= `N`) train datapoints per class,
/// * take up to `num_queries` test datapoints across the chosen classes.
///
/// # Panics
/// Panics if fewer than `ways` classes have support in both partitions
/// ([`supported_classes`]).
pub fn sample_few_shot_task(
    dataset: &Dataset,
    ways: usize,
    candidates_per_class: usize,
    num_queries: usize,
    rng: &mut StdRng,
) -> FewShotTask {
    sample_few_shot_from_splits(
        dataset,
        Split::Train,
        Split::Test,
        ways,
        candidates_per_class,
        num_queries,
        rng,
    )
}

/// Seed of evaluation episode `i` under base seed `seed`.
pub fn episode_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 7919)
}

/// Evaluation episode `i`: the [`sample_few_shot_task`] draw under
/// [`episode_seed`]`(seed, i)`, plus the RNG positioned just after it.
///
/// Every method draws its episodes here, so episode `i` is the same task
/// for all of them. Only `per_class` differs between methods (`k` prompts
/// drawn directly, or a pool of `N` candidates). It changes neither the
/// classes, the queries nor the RNG stream: each class pool is shuffled
/// whole before its first `per_class` members are taken, so a `k`-draw's
/// candidates are the first `k` of the `N`-draw's per class.
pub fn episode_task(
    dataset: &Dataset,
    ways: usize,
    per_class: usize,
    queries: usize,
    seed: u64,
    i: usize,
) -> (FewShotTask, StdRng) {
    let mut rng = StdRng::seed_from_u64(episode_seed(seed, i));
    let task = sample_few_shot_task(dataset, ways, per_class, queries, &mut rng);
    (task, rng)
}

/// The classes an episode drawing prompts from `prompt_split` and
/// queries from `query_split` can use: those with at least one point in
/// each, ascending. An episode has at most this many ways.
pub fn supported_classes(dataset: &Dataset, prompt_split: Split, query_split: Split) -> Vec<u16> {
    let present = |split| {
        let mut seen = vec![false; dataset.num_classes];
        for dp in dataset.split(split) {
            seen[dp.label(&dataset.graph) as usize] = true;
        }
        seen
    };
    let (prompts, queries) = (present(prompt_split), present(query_split));
    (0..dataset.num_classes as u16)
        .filter(|&c| prompts[c as usize] && queries[c as usize])
        .collect()
}

/// As [`sample_few_shot_task`] but with explicit source splits (pretraining
/// episodes draw both prompts and queries from the train partition).
pub fn sample_few_shot_from_splits(
    dataset: &Dataset,
    prompt_split: Split,
    query_split: Split,
    ways: usize,
    candidates_per_class: usize,
    num_queries: usize,
    rng: &mut StdRng,
) -> FewShotTask {
    let graph = &dataset.graph;
    let mut by_class_prompts: Vec<Vec<DataPoint>> = vec![Vec::new(); dataset.num_classes];
    for dp in dataset.split(prompt_split) {
        by_class_prompts[dp.label(graph) as usize].push(*dp);
    }
    let mut by_class_queries: Vec<Vec<DataPoint>> = vec![Vec::new(); dataset.num_classes];
    for dp in dataset.split(query_split) {
        by_class_queries[dp.label(graph) as usize].push(*dp);
    }

    let mut eligible = supported_classes(dataset, prompt_split, query_split);
    assert!(
        eligible.len() >= ways,
        "{}: only {} classes have support, need {ways}",
        dataset.name,
        eligible.len()
    );
    rng.shuffle(&mut eligible);
    let mut classes: Vec<u16> = eligible[..ways].to_vec();
    classes.sort_unstable();

    let mut candidates = Vec::new();
    let mut queries = Vec::new();
    for (episode_label, &c) in classes.iter().enumerate() {
        let mut pool = by_class_prompts[c as usize].clone();
        rng.shuffle(&mut pool);
        for dp in pool.into_iter().take(candidates_per_class) {
            candidates.push((dp, episode_label));
        }
        let mut qpool = by_class_queries[c as usize].clone();
        rng.shuffle(&mut qpool);
        // Balanced queries per class; remainder handled below.
        for dp in qpool.into_iter().take(num_queries.div_ceil(ways)) {
            queries.push((dp, episode_label));
        }
    }
    rng.shuffle(&mut queries);
    queries.truncate(num_queries);

    FewShotTask {
        classes,
        candidates,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CitationConfig;

    fn ds() -> Dataset {
        CitationConfig::new("t", 400, 8, 11).generate()
    }

    #[test]
    fn episode_has_requested_shape() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(0);
        let task = sample_few_shot_task(&d, 5, 10, 30, &mut rng);
        assert_eq!(task.ways(), 5);
        assert_eq!(task.classes.len(), 5);
        assert!(task.candidates.len() <= 50);
        assert!(task.candidates.len() >= 5);
        assert_eq!(task.queries.len(), 30);
    }

    #[test]
    fn episode_labels_are_remapped_consistently() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(1);
        let task = sample_few_shot_task(&d, 4, 6, 20, &mut rng);
        for (dp, el) in task.candidates.iter().chain(&task.queries) {
            let orig = dp.label(&d.graph);
            assert_eq!(task.classes[*el], orig, "episode label mismatch");
        }
    }

    #[test]
    fn each_class_has_candidates() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(2);
        let task = sample_few_shot_task(&d, 6, 8, 24, &mut rng);
        for el in 0..6 {
            assert!(
                task.candidates.iter().any(|(_, l)| *l == el),
                "class {el} has no candidates"
            );
        }
    }

    #[test]
    fn queries_come_from_test_split() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(3);
        let task = sample_few_shot_task(&d, 3, 5, 15, &mut rng);
        use std::collections::HashSet;
        let test_set: HashSet<_> = d.test.iter().copied().collect();
        for (dp, _) in &task.queries {
            assert!(test_set.contains(dp), "query not from test split");
        }
    }

    /// The pairing contract: the `k`-per-class draw (Contrastive, Finetune,
    /// ProG) and the `N`-per-class draw (the Engine methods) of one episode
    /// share classes, queries and the RNG stream, and each class's `k`
    /// candidates are the first `k` of its `N`.
    #[test]
    fn episode_task_pairs_k_and_n_draws() {
        let d = ds();
        for seed in [0u64, 1, 42, u64::MAX - 3] {
            for i in [0usize, 1, 7, 31] {
                for (k, n) in [(1usize, 10usize), (3, 10), (5, 8)] {
                    let (small, mut small_rng) = episode_task(&d, 5, k, 20, seed, i);
                    let (large, mut large_rng) = episode_task(&d, 5, n, 20, seed, i);
                    assert_eq!(small.classes, large.classes, "seed {seed} episode {i}");
                    assert_eq!(small.queries, large.queries, "seed {seed} episode {i}");
                    assert_eq!(small_rng.next_u64(), large_rng.next_u64());
                    for class in 0..small.ways() {
                        let of = |t: &FewShotTask| -> Vec<DataPoint> {
                            t.candidates
                                .iter()
                                .filter(|(_, l)| *l == class)
                                .map(|(dp, _)| *dp)
                                .collect()
                        };
                        let (few, many) = (of(&small), of(&large));
                        assert_eq!(few.len(), k.min(many.len()));
                        assert_eq!(few[..], many[..few.len()], "seed {seed} episode {i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "classes have support")]
    fn too_many_ways_panics() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = sample_few_shot_task(&d, 100, 5, 10, &mut rng);
    }
}
