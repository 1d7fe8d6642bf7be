//! Plain-text dataset import/export.
//!
//! Lets users bring their own graphs: a dataset is a directory of three
//! TSV files plus a small metadata header. The format is deliberately
//! trivial to produce from any pipeline (pandas, jq, awk):
//!
//! ```text
//! meta.tsv      task=node|edge, classes=<m>, relations=<r>, feat_dim=<d>
//! nodes.tsv     <node_id>\t<label|-)>\t<f0> <f1> ... <fd-1>
//! edges.tsv     <head>\t<rel>\t<tail>\t<split: train|valid|test|->
//! ```
//!
//! For node tasks the split of each node rides in a fourth `nodes.tsv`
//! column; for edge tasks the split column of `edges.tsv` applies.
//! Relation features (needed by the reconstruction layer) are generated
//! deterministically from the relation id when absent, so exported and
//! hand-written datasets work identically.
//!
//! Features must be finite. A value that parses to NaN or ±∞ (`nan`,
//! `inf`, or an overflowing literal such as `1e39`) is a format error
//! that names its `nodes.tsv` line and feature index, so non-finite
//! numbers never reach the model.

use std::io::{BufRead, Write};
use std::path::Path;

use gp_graph::GraphBuilder;
use gp_tensor::rng::StdRng;
use gp_tensor::{rng as trng, Tensor};

use crate::dataset::{DataPoint, Dataset, Task};
use crate::REL_FEAT_DIM;

/// Errors produced by dataset IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural problem with the files.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io: {e}"),
            IoError::Format(m) => write!(f, "format: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn fmt_err(msg: impl Into<String>) -> IoError {
    IoError::Format(msg.into())
}

/// Export a dataset to `dir` (created if missing).
pub fn save_dataset(dataset: &Dataset, dir: impl AsRef<Path>) -> Result<(), IoError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let g = &dataset.graph;

    // meta.tsv
    let task = match dataset.task {
        Task::NodeClassification => "node",
        Task::EdgeClassification => "edge",
    };
    std::fs::write(
        dir.join("meta.tsv"),
        format!(
            "task\t{task}\nclasses\t{}\nrelations\t{}\nfeat_dim\t{}\nname\t{}\n",
            dataset.num_classes,
            g.num_relations(),
            g.feature_dim(),
            dataset.name
        ),
    )?;

    // Split lookup.
    let split_of = |dp: DataPoint| -> &'static str {
        if dataset.train.contains(&dp) {
            "train"
        } else if dataset.valid.contains(&dp) {
            "valid"
        } else if dataset.test.contains(&dp) {
            "test"
        } else {
            "-"
        }
    };

    // nodes.tsv
    let mut nodes = std::io::BufWriter::new(std::fs::File::create(dir.join("nodes.tsv"))?);
    for v in 0..g.num_nodes() as u32 {
        let label = match g.node_labels() {
            Some(l) => l[v as usize].to_string(),
            None => "-".to_string(),
        };
        let feats: Vec<String> = g.feature_row(v).iter().map(|x| x.to_string()).collect();
        let split = if dataset.task == Task::NodeClassification {
            split_of(DataPoint::Node(v))
        } else {
            "-"
        };
        writeln!(nodes, "{v}\t{label}\t{}\t{split}", feats.join(" "))?;
    }
    nodes.flush()?;

    // edges.tsv
    let mut edges = std::io::BufWriter::new(std::fs::File::create(dir.join("edges.tsv"))?);
    for (eid, t) in g.triples().iter().enumerate() {
        let split = if dataset.task == Task::EdgeClassification {
            split_of(DataPoint::Edge(eid as u32))
        } else {
            "-"
        };
        writeln!(edges, "{}\t{}\t{}\t{split}", t.head, t.rel, t.tail)?;
    }
    edges.flush()?;
    Ok(())
}

/// Import a dataset previously written by [`save_dataset`] (or produced by
/// hand in the same format).
pub fn load_dataset(dir: impl AsRef<Path>) -> Result<Dataset, IoError> {
    let dir = dir.as_ref();

    // meta.tsv
    let meta = std::fs::read_to_string(dir.join("meta.tsv"))?;
    let mut task = None;
    let mut classes = None;
    let mut relations = None;
    let mut feat_dim = None;
    let mut name = String::from("imported");
    for line in meta.lines() {
        let mut parts = line.splitn(2, '\t');
        let key = parts.next().unwrap_or("");
        let value = parts
            .next()
            .ok_or_else(|| fmt_err("meta line missing value"))?;
        match key {
            "task" => {
                task = Some(match value {
                    "node" => Task::NodeClassification,
                    "edge" => Task::EdgeClassification,
                    other => return Err(fmt_err(format!("unknown task '{other}'"))),
                })
            }
            "classes" => {
                classes = Some(
                    value
                        .parse()
                        .map_err(|_| fmt_err(format!("meta.tsv: bad classes '{value}'")))?,
                )
            }
            "relations" => {
                relations = Some(
                    value
                        .parse()
                        .map_err(|_| fmt_err(format!("meta.tsv: bad relations '{value}'")))?,
                )
            }
            "feat_dim" => {
                feat_dim = Some(
                    value
                        .parse()
                        .map_err(|_| fmt_err(format!("meta.tsv: bad feat_dim '{value}'")))?,
                )
            }
            "name" => name = value.to_string(),
            _ => {}
        }
    }
    let task = task.ok_or_else(|| fmt_err("meta.tsv missing task"))?;
    let classes: usize = classes.ok_or_else(|| fmt_err("meta.tsv missing classes"))?;
    let relations: usize = relations.ok_or_else(|| fmt_err("meta.tsv missing relations"))?;
    let feat_dim: usize = feat_dim.ok_or_else(|| fmt_err("meta.tsv missing feat_dim"))?;

    // nodes.tsv
    let node_file = std::io::BufReader::new(std::fs::File::open(dir.join("nodes.tsv"))?);
    let mut features = Vec::new();
    let mut labels: Vec<u16> = Vec::new();
    let mut any_label = false;
    let mut node_splits: Vec<String> = Vec::new();
    let mut count = 0usize;
    for (lineno, line) in node_file.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 3 {
            return Err(fmt_err(format!(
                "nodes.tsv:{}: expected ≥3 columns",
                lineno + 1
            )));
        }
        let id: usize = cols[0]
            .parse()
            .map_err(|_| fmt_err(format!("nodes.tsv:{}: bad id", lineno + 1)))?;
        if id != count {
            return Err(fmt_err(format!(
                "nodes.tsv:{}: ids must be dense and ascending (got {id}, expected {count})",
                lineno + 1
            )));
        }
        if cols[1] == "-" {
            labels.push(0);
        } else {
            any_label = true;
            labels.push(
                cols[1]
                    .parse()
                    .map_err(|_| fmt_err(format!("nodes.tsv:{}: bad label", lineno + 1)))?,
            );
        }
        let feats: Result<Vec<f32>, _> = cols[2].split(' ').map(str::parse).collect();
        let feats = feats.map_err(|_| fmt_err(format!("nodes.tsv:{}: bad feature", lineno + 1)))?;
        if feats.len() != feat_dim {
            return Err(fmt_err(format!(
                "nodes.tsv:{}: {} features, meta says {feat_dim}",
                lineno + 1,
                feats.len()
            )));
        }
        if let Some(i) = feats.iter().position(|v| !v.is_finite()) {
            return Err(fmt_err(format!(
                "nodes.tsv:{}: feature {i} is {}; features must be finite",
                lineno + 1,
                feats[i]
            )));
        }
        features.extend(feats);
        node_splits.push(cols.get(3).unwrap_or(&"-").to_string());
        count += 1;
    }
    if count == 0 {
        return Err(fmt_err("nodes.tsv is empty"));
    }

    // edges.tsv
    let edge_file = std::io::BufReader::new(std::fs::File::open(dir.join("edges.tsv"))?);
    let mut builder = GraphBuilder::new(count, relations.max(1));
    let mut edge_splits: Vec<String> = Vec::new();
    for (lineno, line) in edge_file.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 3 {
            return Err(fmt_err(format!(
                "edges.tsv:{}: expected ≥3 columns",
                lineno + 1
            )));
        }
        let head: u32 = cols[0]
            .parse()
            .map_err(|_| fmt_err(format!("edges.tsv:{}: bad head", lineno + 1)))?;
        let rel: u16 = cols[1]
            .parse()
            .map_err(|_| fmt_err(format!("edges.tsv:{}: bad relation", lineno + 1)))?;
        let tail: u32 = cols[2]
            .parse()
            .map_err(|_| fmt_err(format!("edges.tsv:{}: bad tail", lineno + 1)))?;
        if head as usize >= count || tail as usize >= count || rel as usize >= relations {
            return Err(fmt_err(format!(
                "edges.tsv:{}: endpoint/relation out of range",
                lineno + 1
            )));
        }
        builder.add_triple(head, rel, tail);
        edge_splits.push(cols.get(3).unwrap_or(&"-").to_string());
    }

    builder.node_features(Tensor::from_vec(count, feat_dim, features));
    if any_label {
        builder.node_labels(labels);
    }
    // Deterministic relation features: any hand-written dataset gets the
    // same embedding for relation r at the same REL_FEAT_DIM.
    let mut rel_rng = StdRng::seed_from_u64(0x7265_6c66);
    builder.rel_features(trng::randn(
        &mut rel_rng,
        relations.max(1),
        REL_FEAT_DIM,
        1.0,
    ));
    let graph = builder.build();

    // Splits.
    let (mut train, mut valid, mut test) = (Vec::new(), Vec::new(), Vec::new());
    let push = |dp: DataPoint,
                split: &str,
                train: &mut Vec<DataPoint>,
                valid: &mut Vec<DataPoint>,
                test: &mut Vec<DataPoint>| {
        match split {
            "train" => train.push(dp),
            "valid" => valid.push(dp),
            "test" => test.push(dp),
            _ => {}
        }
    };
    match task {
        Task::NodeClassification => {
            for (v, split) in node_splits.iter().enumerate() {
                push(
                    DataPoint::Node(v as u32),
                    split,
                    &mut train,
                    &mut valid,
                    &mut test,
                );
            }
        }
        Task::EdgeClassification => {
            for (e, split) in edge_splits.iter().enumerate() {
                push(
                    DataPoint::Edge(e as u32),
                    split,
                    &mut train,
                    &mut valid,
                    &mut test,
                );
            }
        }
    }

    let ds = Dataset {
        name,
        graph,
        task,
        num_classes: classes,
        train,
        valid,
        test,
    };
    // A structurally broken import must surface as a typed error, never as
    // a panic inside the library.
    ds.try_validate().map_err(IoError::Format)?;
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CitationConfig, KgConfig};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gp_io_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn node_dataset_roundtrip() {
        let ds = CitationConfig::new("rt", 120, 4, 7).generate();
        let dir = tmpdir("node");
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset(&dir).unwrap();
        assert_eq!(back.task, Task::NodeClassification);
        assert_eq!(back.num_classes, 4);
        assert_eq!(back.graph.num_nodes(), ds.graph.num_nodes());
        assert_eq!(back.graph.num_edges(), ds.graph.num_edges());
        assert_eq!(back.graph.triples(), ds.graph.triples());
        assert_eq!(
            back.graph.features().as_slice(),
            ds.graph.features().as_slice()
        );
        assert_eq!(back.train.len(), ds.train.len());
        assert_eq!(back.test.len(), ds.test.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_dataset_roundtrip() {
        let ds = KgConfig::new("rt", 150, 6, 5, 8).generate();
        let dir = tmpdir("edge");
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset(&dir).unwrap();
        assert_eq!(back.task, Task::EdgeClassification);
        assert_eq!(back.num_classes, 6);
        assert_eq!(back.graph.triples(), ds.graph.triples());
        assert_eq!(back.train.len(), ds.train.len());
        assert_eq!(back.valid.len(), ds.valid.len());
        assert_eq!(back.test.len(), ds.test.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_dataset_is_trainable() {
        // The imported dataset must work through the full pipeline.
        let ds = KgConfig::new("rt", 150, 5, 4, 9).generate();
        let dir = tmpdir("pipeline");
        save_dataset(&ds, &dir).unwrap();
        let back = load_dataset(&dir).unwrap();
        assert!(back.graph.rel_features().is_some());
        let mut rng = StdRng::seed_from_u64(0);
        let task = crate::sample_few_shot_task(&back, 3, 4, 6, &mut rng);
        assert_eq!(task.ways(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let dir = tmpdir("bad");
        std::fs::write(dir.join("meta.tsv"), "task\tnode\nclasses\t3\n").unwrap();
        // Missing relations/feat_dim.
        assert!(load_dataset(&dir).is_err());

        std::fs::write(
            dir.join("meta.tsv"),
            "task\tnode\nclasses\t2\nrelations\t1\nfeat_dim\t2\n",
        )
        .unwrap();
        std::fs::write(dir.join("nodes.tsv"), "0\t0\t0.5 0.5\t-\n5\t1\t1 0\t-\n").unwrap();
        std::fs::write(dir.join("edges.tsv"), "").unwrap();
        // Non-dense node ids.
        assert!(load_dataset(&dir).is_err());

        // Features that parse to NaN or ±∞, overflow included.
        for bad in ["nan", "-inf", "1e39"] {
            let nodes = format!("0\t0\t0.5 0.5\t-\n1\t1\t1 {bad}\t-\n");
            std::fs::write(dir.join("nodes.tsv"), nodes).unwrap();
            let err = load_dataset(&dir).err().expect(bad).to_string();
            assert!(
                err.starts_with("format: nodes.tsv:2: feature 1 is "),
                "{bad}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_numeric_meta_is_a_typed_error_not_missing() {
        let dir = tmpdir("badmeta");
        std::fs::write(
            dir.join("meta.tsv"),
            "task\tnode\nclasses\tthree\nrelations\t1\nfeat_dim\t2\n",
        )
        .unwrap();
        std::fs::write(dir.join("nodes.tsv"), "0\t0\t0.5 0.5\t-\n").unwrap();
        std::fs::write(dir.join("edges.tsv"), "").unwrap();
        let err = load_dataset(&dir).err().expect("load must fail");
        match err {
            IoError::Format(m) => assert!(m.contains("bad classes"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_dataset_returns_error_instead_of_panicking() {
        // A label outside `classes` used to abort the process via
        // `Dataset::validate`; it must now surface as IoError::Format.
        let dir = tmpdir("badlabel");
        std::fs::write(
            dir.join("meta.tsv"),
            "task\tnode\nclasses\t2\nrelations\t1\nfeat_dim\t2\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("nodes.tsv"),
            "0\t0\t0.5 0.5\ttrain\n1\t7\t1 0\ttrain\n",
        )
        .unwrap();
        std::fs::write(dir.join("edges.tsv"), "0\t0\t1\t-\n").unwrap();
        let err = load_dataset(&dir).err().expect("load must fail");
        match err {
            IoError::Format(m) => assert!(m.contains("label 7"), "{m}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
