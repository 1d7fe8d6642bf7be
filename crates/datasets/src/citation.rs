//! Stochastic-block-model citation graphs (MAG240M / arXiv stand-ins).

use gp_graph::GraphBuilder;
use gp_tensor::{rng as trng, Tensor};

use crate::dataset::{stratified_split, DataPoint, Dataset, Task};
use crate::{NODE_FEAT_DIM, REL_FEAT_DIM};

/// Generator parameters for a class-structured citation network.
///
/// Class signal exists in **both** structure and features:
/// * structure — a node cites a same-class node with probability
///   `intra_class_affinity`, otherwise a random node ("noise" edges the
///   Prompt Generator's reconstruction layer learns to down-weight);
/// * features — class-centered Gaussian clusters with `feature_noise`.
/// ```
/// use gp_datasets::CitationConfig;
///
/// let ds = CitationConfig::new("demo", 200, 4, 7).generate();
/// assert_eq!(ds.num_classes, 4);
/// assert!(ds.graph.num_edges() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct CitationConfig {
    /// Dataset display name.
    pub name: String,
    /// Number of papers.
    pub num_nodes: usize,
    /// Number of paper categories.
    pub num_classes: usize,
    /// Mean out-citations per paper.
    pub mean_degree: f32,
    /// Probability an edge lands inside the class (vs. uniform noise).
    pub intra_class_affinity: f32,
    /// Std of Gaussian feature noise around the class center.
    pub feature_noise: f32,
    /// Sub-modes per class: each class is a mixture of this many feature
    /// sub-clusters (real categories are multi-modal; this is what gives
    /// few-shot prompts something to miss and the Prompt Augmenter's
    /// test-time samples something to add).
    pub modes_per_class: usize,
    /// Norm of each sub-mode's offset from its class center, relative to
    /// the unit class-center norm.
    pub mode_spread: f32,
    /// Fraction of nodes whose *recorded* label is flipped to a random
    /// other class (annotation noise). Structure and features follow the
    /// true label; corrupted nodes are confined to the train/valid
    /// partitions, polluting the candidate prompt pool without distorting
    /// test accuracy.
    pub train_label_noise: f32,
    /// RNG seed; different seeds → different class geometry (domain gap).
    pub seed: u64,
}

impl CitationConfig {
    /// Sensible defaults for a mid-size instance.
    pub fn new(name: &str, num_nodes: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            num_nodes,
            num_classes,
            mean_degree: 6.0,
            intra_class_affinity: 0.75,
            feature_noise: 0.45,
            modes_per_class: 1,
            mode_spread: 0.6,
            train_label_noise: 0.0,
            seed,
        }
    }

    /// Generate the dataset (graph + node-classification splits).
    pub fn generate(&self) -> Dataset {
        use gp_tensor::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(self.seed);
        assert!(self.num_classes >= 2, "need at least 2 classes");
        assert!(
            self.num_nodes >= self.num_classes * 4,
            "too few nodes per class"
        );

        // Random unit class centers.
        let centers: Vec<Tensor> = (0..self.num_classes)
            .map(|_| trng::randn(&mut rng, 1, NODE_FEAT_DIM, 1.0).l2_normalize_rows(1e-9))
            .collect();

        // Round-robin class assignment keeps classes balanced.
        let labels: Vec<u16> = (0..self.num_nodes)
            .map(|i| (i % self.num_classes) as u16)
            .collect();

        // Sub-mode offsets: class y's mode j sits at center_y + offset_yj.
        // With a single mode the offset is skipped entirely (it would just
        // relocate the class center).
        let modes = self.modes_per_class.max(1);
        let mode_offsets: Vec<Tensor> = (0..self.num_classes * modes)
            .map(|_| {
                if modes == 1 {
                    Tensor::zeros(1, NODE_FEAT_DIM)
                } else {
                    trng::randn(&mut rng, 1, NODE_FEAT_DIM, 1.0)
                        .l2_normalize_rows(1e-9)
                        .scale(self.mode_spread)
                }
            })
            .collect();

        // Features: center + mode offset + noise. The per-dimension noise
        // std is scaled by 1/√dim so `feature_noise` is the expected
        // noise-to-signal *norm* ratio, independent of NODE_FEAT_DIM.
        let noise_std = self.feature_noise / (NODE_FEAT_DIM as f32).sqrt();
        let mut feat = Vec::with_capacity(self.num_nodes * NODE_FEAT_DIM);
        for (i, &y) in labels.iter().enumerate() {
            let c = &centers[y as usize];
            // Mode decoupled from the round-robin class assignment:
            // i = class + num_classes·block → mode = block mod modes.
            let mode = (i / self.num_classes) % modes;
            let mo = &mode_offsets[y as usize * modes + mode];
            for d in 0..NODE_FEAT_DIM {
                feat.push(c.get(0, d) + mo.get(0, d) + noise_std * trng::standard_normal(&mut rng));
            }
        }
        let features = Tensor::from_vec(self.num_nodes, NODE_FEAT_DIM, feat);

        // Citation edges: one relation type ("cites").
        let mut builder = GraphBuilder::new(self.num_nodes, 1);
        // Bucket nodes per class for O(1) intra-class endpoint sampling.
        let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); self.num_classes];
        for (i, &y) in labels.iter().enumerate() {
            by_class[y as usize].push(i as u32);
        }
        let total_edges = (self.num_nodes as f32 * self.mean_degree / 2.0) as usize;
        for _ in 0..total_edges {
            let u = rng.gen_range(0..self.num_nodes) as u32;
            let v = if rng.next_f32() < self.intra_class_affinity {
                let bucket = &by_class[labels[u as usize] as usize];
                bucket[rng.gen_range(0..bucket.len())]
            } else {
                rng.gen_range(0..self.num_nodes) as u32
            };
            if u != v {
                builder.add_triple(u, 0, v);
            }
        }
        // Annotation noise: flip recorded labels after structure/features
        // were generated from the true ones; corrupted nodes stay out of
        // the test partition.
        let mut recorded = labels.clone();
        let mut corrupted = std::collections::BTreeSet::new();
        if self.train_label_noise > 0.0 && self.num_classes > 1 {
            for (i, y) in recorded.iter_mut().enumerate() {
                if rng.next_f32() < self.train_label_noise {
                    let mut ny = rng.gen_range(0..self.num_classes) as u16;
                    if ny == *y {
                        ny = (ny + 1) % self.num_classes as u16;
                    }
                    *y = ny;
                    corrupted.insert(i as u32);
                }
            }
        }
        builder.node_features(features);
        builder.node_labels(recorded);
        builder.rel_features(trng::randn(&mut rng, 1, REL_FEAT_DIM, 1.0));
        let graph = builder.build();

        let points: Vec<DataPoint> = (0..self.num_nodes as u32)
            .filter(|n| !corrupted.contains(n))
            .map(DataPoint::Node)
            .collect();
        let (mut train, mut valid, test) = stratified_split(&graph, points, self.num_classes);
        // Corrupted nodes split train/valid (`i % 5`) in ascending order.
        for (i, n) in corrupted.into_iter().enumerate() {
            if i % 5 == 4 {
                valid.push(DataPoint::Node(n));
            } else {
                train.push(DataPoint::Node(n));
            }
        }
        let ds = Dataset {
            name: self.name.clone(),
            graph,
            task: Task::NodeClassification,
            num_classes: self.num_classes,
            train,
            valid,
            test,
        };
        ds.validate();
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_dataset() {
        let ds = CitationConfig::new("toy-citation", 200, 5, 1).generate();
        assert_eq!(ds.task, Task::NodeClassification);
        assert_eq!(ds.num_classes, 5);
        assert_eq!(ds.len(), 200);
        assert!(ds.graph.num_edges() > 100);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = CitationConfig::new("a", 100, 4, 7).generate();
        let b = CitationConfig::new("a", 100, 4, 7).generate();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.features().as_slice(), b.graph.features().as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let a = CitationConfig::new("a", 100, 4, 7).generate();
        let b = CitationConfig::new("a", 100, 4, 8).generate();
        assert_ne!(a.graph.features().as_slice(), b.graph.features().as_slice());
    }

    #[test]
    fn homophily_exceeds_chance() {
        let ds = CitationConfig::new("t", 600, 6, 3).generate();
        let g = &ds.graph;
        let same = g
            .triples()
            .iter()
            .filter(|t| g.node_label(t.head) == g.node_label(t.tail))
            .count();
        let frac = same as f32 / g.num_edges() as f32;
        // Chance level is 1/6 ≈ 0.17; affinity 0.75 should push well past it.
        assert!(frac > 0.5, "homophily only {frac}");
    }

    #[test]
    fn features_cluster_by_class() {
        let ds = CitationConfig::new("t", 300, 3, 5).generate();
        let g = &ds.graph;
        // Mean intra-class cosine must exceed mean inter-class cosine.
        let f = g.features();
        let (mut intra, mut inter, mut n_intra, mut n_inter) = (0.0f32, 0.0f32, 0, 0);
        for i in (0..300).step_by(7) {
            for j in (1..300).step_by(11) {
                if i == j {
                    continue;
                }
                let c = f.cosine_rows(i, f, j);
                if g.node_label(i as u32) == g.node_label(j as u32) {
                    intra += c;
                    n_intra += 1;
                } else {
                    inter += c;
                    n_inter += 1;
                }
            }
        }
        assert!(intra / n_intra as f32 > inter / n_inter as f32 + 0.2);
    }
}
