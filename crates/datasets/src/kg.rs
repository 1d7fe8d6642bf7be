//! Synthetic multi-relational knowledge graphs (Wiki / ConceptNet /
//! FB15K-237 / NELL stand-ins).

use gp_graph::GraphBuilder;
use gp_tensor::rng::{self as trng, StdRng};
use gp_tensor::Tensor;

use crate::dataset::{stratified_split, DataPoint, Dataset, Task};
use crate::{NODE_FEAT_DIM, REL_FEAT_DIM};

/// Generator parameters for an entity-typed knowledge graph.
///
/// Each entity has a latent type; each relation `r` is anchored to a
/// specific (subject-type, object-type) pair drawn at generation time.
/// A triple `(u, r, v)` is emitted by picking a relation, then sampling
/// endpoints of the right types (with probability `type_noise` an endpoint
/// is sampled uniformly instead — mislabeled/noisy facts). Relation
/// classification is therefore solvable from endpoint context, the same
/// signal real KGs carry, while never being trivially readable from a
/// single feature.
#[derive(Clone, Debug)]
pub struct KgConfig {
    /// Dataset display name.
    pub name: String,
    /// Number of entities.
    pub num_entities: usize,
    /// Number of relation types (= edge classes).
    pub num_relations: usize,
    /// Number of latent entity types.
    pub num_entity_types: usize,
    /// Mean triples per entity.
    pub triples_per_entity: f32,
    /// Probability an endpoint ignores its relation's type constraint.
    pub type_noise: f32,
    /// Std of Gaussian feature noise around the entity-type center.
    pub feature_noise: f32,
    /// Sub-modes per entity type (see [`crate::CitationConfig`]): makes
    /// types multi-modal so few-shot prompts can under-cover a type and
    /// test-time cached samples carry real information.
    pub modes_per_type: usize,
    /// Norm of each sub-mode's offset from its type center.
    pub mode_spread: f32,
    /// Fraction of the *last* sub-mode's datapoints placed in the test
    /// partition ("emerging mode"). Real benchmark splits are not i.i.d. —
    /// test entities drift from train entities — and this is precisely the
    /// headroom test-time adaptation (the Prompt Augmenter) exploits.
    /// `0.2` reproduces an i.i.d. split; higher skews the mode toward test.
    pub emerging_test_frac: f32,
    /// Fraction of triples whose *recorded* relation is corrupted to a
    /// random other relation (noisy facts, ubiquitous in real KGs).
    /// Corrupted triples are confined to the train/valid partitions — they
    /// pollute the candidate prompt pool (which adaptive selection can
    /// route around and random selection cannot) without distorting the
    /// measured test accuracy.
    pub train_label_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl KgConfig {
    /// Sensible defaults for a mid-size instance.
    pub fn new(
        name: &str,
        num_entities: usize,
        num_relations: usize,
        num_entity_types: usize,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            num_entities,
            num_relations,
            num_entity_types,
            triples_per_entity: 4.0,
            type_noise: 0.10,
            feature_noise: 0.35,
            modes_per_type: 1,
            mode_spread: 0.5,
            emerging_test_frac: 0.2,
            train_label_noise: 0.0,
            seed,
        }
    }

    /// Latent sub-mode of entity `i` (decoupled from its type:
    /// `i = type + num_types·block` → mode = block mod modes).
    fn entity_mode(&self, i: usize) -> usize {
        (i / self.num_entity_types) % self.modes_per_type.max(1)
    }

    /// Generate the dataset (graph + edge-classification splits).
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        assert!(self.num_relations >= 2, "need at least 2 relations");
        assert!(self.num_entity_types >= 2, "need at least 2 entity types");

        // Entity types (balanced) and type-centered features.
        let type_centers: Vec<Tensor> = (0..self.num_entity_types)
            .map(|_| trng::randn(&mut rng, 1, NODE_FEAT_DIM, 1.0).l2_normalize_rows(1e-9))
            .collect();
        let entity_type: Vec<usize> = (0..self.num_entities)
            .map(|i| i % self.num_entity_types)
            .collect();
        // Sub-mode offsets per (type, mode).
        let modes = self.modes_per_type.max(1);
        let mode_offsets: Vec<Tensor> = (0..self.num_entity_types * modes)
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

        // Noise std scaled by 1/√dim: `feature_noise` is the expected
        // noise-to-signal norm ratio (see CitationConfig).
        let noise_std = self.feature_noise / (NODE_FEAT_DIM as f32).sqrt();
        let mut feat = Vec::with_capacity(self.num_entities * NODE_FEAT_DIM);
        for (i, &t) in entity_type.iter().enumerate() {
            let c = &type_centers[t];
            let mo = &mode_offsets[t * modes + self.entity_mode(i)];
            for d in 0..NODE_FEAT_DIM {
                feat.push(c.get(0, d) + mo.get(0, d) + noise_std * trng::standard_normal(&mut rng));
            }
        }
        let features = Tensor::from_vec(self.num_entities, NODE_FEAT_DIM, feat);

        // Relation → (subject type, object type) signature.
        let signatures: Vec<(usize, usize)> = (0..self.num_relations)
            .map(|_| {
                (
                    rng.gen_range(0..self.num_entity_types),
                    rng.gen_range(0..self.num_entity_types),
                )
            })
            .collect();

        // Entity buckets per type.
        let mut by_type: Vec<Vec<u32>> = vec![Vec::new(); self.num_entity_types];
        for (i, &t) in entity_type.iter().enumerate() {
            by_type[t].push(i as u32);
        }

        let mut builder = GraphBuilder::new(self.num_entities, self.num_relations);
        let total = (self.num_entities as f32 * self.triples_per_entity) as usize;
        let sample_endpoint = |rng: &mut StdRng, ty: usize| -> u32 {
            if rng.next_f32() < self.type_noise {
                rng.gen_range(0..self.num_entities) as u32
            } else {
                let bucket = &by_type[ty];
                bucket[rng.gen_range(0..bucket.len())]
            }
        };
        let mut raw: Vec<(u32, u16, u32)> = Vec::with_capacity(total);
        for i in 0..total {
            // Cycle through relations so every class has enough support.
            let r = i % self.num_relations;
            let (st, ot) = signatures[r];
            let u = sample_endpoint(&mut rng, st);
            let v = sample_endpoint(&mut rng, ot);
            if u != v {
                raw.push((u, r as u16, v));
            }
        }
        // Corrupt a fraction of recorded relations (noisy facts). The
        // corrupted ids are kept out of the test partition below.
        let mut corrupted = std::collections::HashSet::new();
        if self.train_label_noise > 0.0 && self.num_relations > 1 {
            for (eid, t) in raw.iter_mut().enumerate() {
                if rng.next_f32() < self.train_label_noise {
                    let mut new_rel = rng.gen_range(0..self.num_relations) as u16;
                    if new_rel == t.1 {
                        new_rel = (new_rel + 1) % self.num_relations as u16;
                    }
                    t.1 = new_rel;
                    corrupted.insert(eid as u32);
                }
            }
        }
        for (u, r, v) in &raw {
            builder.add_triple(*u, *r, *v);
        }
        builder.node_features(features);
        builder.rel_features(trng::randn(&mut rng, self.num_relations, REL_FEAT_DIM, 1.0));
        let graph = builder.build();

        // Drift-aware split: triples whose head entity belongs to the last
        // ("emerging") sub-mode go predominantly to test; the rest split
        // 60/20/20 per relation. This reproduces the non-i.i.d. character
        // of real benchmark splits.
        let is_emerging = |dp: &DataPoint| -> bool {
            let DataPoint::Edge(eid) = dp else {
                return false;
            };
            let head = graph.triple(*eid).head as usize;
            self.modes_per_type > 1 && self.entity_mode(head) == self.modes_per_type - 1
        };
        let all: Vec<DataPoint> = (0..graph.num_edges() as u32)
            .map(DataPoint::Edge)
            .filter(|dp| {
                let DataPoint::Edge(eid) = dp else {
                    return true;
                };
                !corrupted.contains(eid)
            })
            .collect();
        let (emerging, regular): (Vec<_>, Vec<_>) = all.into_iter().partition(|dp| is_emerging(dp));
        let (mut train, mut valid, mut test) =
            stratified_split(&graph, regular, self.num_relations);
        // Noisy facts live only in the candidate pool (train) and valid.
        // Sorted edge order: iterating the HashSet directly would hand the
        // train/valid assignment (`i % 5`) to the hash seed, making the
        // generated splits differ run to run.
        let mut corrupted_sorted: Vec<u32> = corrupted.into_iter().collect();
        corrupted_sorted.sort_unstable();
        for (i, eid) in corrupted_sorted.iter().enumerate() {
            let dp = DataPoint::Edge(*eid);
            if i % 5 == 4 {
                valid.push(dp);
            } else {
                train.push(dp);
            }
        }
        // Emerging-mode points: `emerging_test_frac` to test, remainder
        // split evenly between train and valid (per relation, so every
        // relation keeps candidate support).
        let mut per_rel: Vec<Vec<DataPoint>> = vec![Vec::new(); self.num_relations];
        for dp in emerging {
            per_rel[dp.label(&graph) as usize].push(dp);
        }
        for bucket in per_rel {
            let n = bucket.len();
            let n_test = (n as f32 * self.emerging_test_frac).round() as usize;
            let n_train = (n - n_test) / 2;
            for (i, dp) in bucket.into_iter().enumerate() {
                if i < n_test {
                    test.push(dp);
                } else if i < n_test + n_train {
                    train.push(dp);
                } else {
                    valid.push(dp);
                }
            }
        }
        let ds = Dataset {
            name: self.name.clone(),
            graph,
            task: Task::EdgeClassification,
            num_classes: self.num_relations,
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
        let ds = KgConfig::new("toy-kg", 300, 10, 6, 1).generate();
        assert_eq!(ds.task, Task::EdgeClassification);
        assert_eq!(ds.num_classes, 10);
        assert!(ds.graph.num_edges() > 500);
        assert!(ds.graph.rel_features().is_some());
    }

    #[test]
    fn every_relation_has_train_support() {
        let ds = KgConfig::new("t", 400, 12, 8, 2).generate();
        let mut seen = [false; 12];
        for dp in &ds.train {
            seen[dp.label(&ds.graph) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing relation in train split");
    }

    #[test]
    fn relations_respect_type_signatures_mostly() {
        let cfg = KgConfig::new("t", 500, 8, 5, 3);
        let ds = cfg.generate();
        let g = &ds.graph;
        // Count triples whose endpoints match the modal type pair for the
        // relation; with 10% noise per endpoint most should match.
        use std::collections::BTreeMap;
        let mut modal: BTreeMap<u16, BTreeMap<(usize, usize), usize>> = BTreeMap::new();
        let ty = |n: u32| (n as usize) % cfg.num_entity_types;
        for t in g.triples() {
            *modal
                .entry(t.rel)
                .or_default()
                .entry((ty(t.head), ty(t.tail)))
                .or_default() += 1;
        }
        for (_, counts) in modal {
            let total: usize = counts.values().sum();
            let max = counts.values().max().copied().unwrap_or(0);
            assert!(
                max as f32 / total as f32 > 0.6,
                "type signature too noisy: {max}/{total}"
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = KgConfig::new("t", 200, 6, 4, 9).generate();
        let b = KgConfig::new("t", 200, 6, 4, 9).generate();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.triples(), b.graph.triples());
    }
}
