//! Property tests for dataset generation and episode sampling.

use gp_datasets::{load_dataset, sample_few_shot_task, CitationConfig, KgConfig};
use gp_tensor::rng::{check, StdRng};

#[test]
fn citation_splits_partition_the_datapoints() {
    check(24, |rng| {
        let (classes, nodes_per_class) = (rng.gen_range(2..8), rng.gen_range(10..30));
        let n = classes * nodes_per_class;
        let ds = CitationConfig::new("p", n, classes, rng.next_u64()).generate();
        // Every node appears in exactly one split.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for dp in ds.train.iter().chain(&ds.valid).chain(&ds.test) {
            assert!(seen.insert(*dp), "datapoint in two splits");
        }
        assert_eq!(seen.len(), n);
        // Labels in range everywhere.
        for dp in &seen {
            assert!((dp.label(&ds.graph) as usize) < classes);
        }
    });
}

#[test]
fn kg_splits_cover_every_relation_in_train() {
    check(24, |rng| {
        let (rels, types) = (rng.gen_range(3..12), rng.gen_range(3..8));
        let ds = KgConfig::new("p", 300, rels, types, rng.next_u64()).generate();
        let mut seen = vec![false; rels];
        for dp in &ds.train {
            seen[dp.label(&ds.graph) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "a relation lost train support");
    });
}

#[test]
fn generation_is_deterministic() {
    check(24, |rng| {
        let (classes, seed) = (rng.gen_range(2..6), rng.next_u64());
        let a = CitationConfig::new("p", 120, classes, seed).generate();
        let b = CitationConfig::new("p", 120, classes, seed).generate();
        assert_eq!(a.graph.features().as_slice(), b.graph.features().as_slice());
        assert_eq!(a.graph.triples(), b.graph.triples());
        assert_eq!(a.train, b.train);
    });
}

#[test]
fn episodes_are_internally_consistent() {
    check(24, |rng| {
        let classes = rng.gen_range(3..8);
        let (ways, shots, queries) = (
            rng.gen_range(2..4),
            rng.gen_range(1..5),
            rng.gen_range(1..20),
        );
        let ds = CitationConfig::new("p", classes * 30, classes, rng.next_u64()).generate();
        let task = sample_few_shot_task(&ds, ways, shots, queries, rng);
        assert_eq!(task.ways(), ways);
        // Episode labels consistent with the class map.
        for (dp, el) in task.candidates.iter().chain(&task.queries) {
            assert!(*el < ways);
            assert_eq!(task.classes[*el], dp.label(&ds.graph));
        }
        // Candidates never exceed shots per class.
        for el in 0..ways {
            let got = task.candidates.iter().filter(|(_, l)| *l == el).count();
            assert!(got <= shots);
        }
        assert!(task.queries.len() <= queries);
    });
}

#[test]
fn label_noise_keeps_corrupted_out_of_test() {
    check(24, |rng| {
        let mut cfg = KgConfig::new("p", 300, 6, 5, rng.next_u64());
        cfg.train_label_noise = rng.gen_range(0.05..0.4);
        let ds = cfg.generate();
        // Test labels must be consistent with the type signature far more
        // often than the corrupted train pool would allow — spot-check by
        // re-deriving consistency: test split has no corrupted points, and
        // the dataset validates (labels in range).
        ds.validate();
        // Train must be strictly larger than with zero corruption confined
        // elsewhere — i.e., corrupted points all landed in train/valid.
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        assert_eq!(total, ds.graph.num_edges());
    });
}

/// One `nodes.tsv` feature token: mostly a finite decimal (so about a
/// fifth of the six-token files load), else a NaN or ∞ spelling, a
/// decimal whose exponent may overflow `f32`, or arbitrary bytes (biased
/// towards number characters). Separators are left out, so the token
/// stays one token.
fn feature_token(rng: &mut StdRng) -> Vec<u8> {
    const SPECIAL: &[&str] = &["nan", "NaN", "inf", "Infinity", "-inf", "+infinity", "INF"];
    const NUMBERISH: &[u8] = b"0123456789.eE+-nafiINF";
    match rng.gen_range(0..10) {
        0..=6 => format!("{}", rng.gen_range(-1e3f32..1e3)).into_bytes(),
        7 => SPECIAL[rng.gen_range(0..SPECIAL.len())].as_bytes().to_vec(),
        8 => format!(
            "{}e{}",
            rng.gen_range(-9.9f32..9.9),
            rng.gen_range(0..81) as i64 - 20
        )
        .into_bytes(),
        _ => (0..rng.gen_range(0..6))
            .map(|_| match rng.gen_range(0..2) {
                0 => NUMBERISH[rng.gen_range(0..NUMBERISH.len())],
                _ => rng.next_u64() as u8,
            })
            .filter(|b| !b" \t\n".contains(b))
            .collect(),
    }
}

#[test]
fn feature_tokens_load_exactly_when_all_parse_finite() {
    let dir = std::env::temp_dir().join(format!("gp-fuzz-features-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("meta.tsv"),
        "task\tnode\nclasses\t2\nrelations\t1\nfeat_dim\t3\n",
    )
    .unwrap();
    std::fs::write(dir.join("edges.tsv"), "0\t0\t1\t-\n").unwrap();
    let parse = |t: &[u8]| std::str::from_utf8(t).ok()?.parse::<f32>().ok();
    check(256, |rng| {
        let mut nodes = Vec::new();
        let mut all_finite = true;
        for id in 0..2 {
            let tokens: Vec<Vec<u8>> = (0..3).map(|_| feature_token(rng)).collect();
            all_finite &= tokens.iter().all(|t| parse(t).is_some_and(f32::is_finite));
            nodes.extend(format!("{id}\t{id}\t").bytes());
            nodes.extend(tokens.join(&b' '));
            nodes.extend(b"\ttrain\n");
        }
        std::fs::write(dir.join("nodes.tsv"), &nodes).unwrap();
        let loaded = load_dataset(&dir);
        assert_eq!(
            loaded.is_ok(),
            all_finite,
            "{:?}: {:?}",
            String::from_utf8_lossy(&nodes),
            loaded.err()
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}
