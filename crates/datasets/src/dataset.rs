//! Dataset wrapper: a graph, a task, and train/valid/test datapoints.

use gp_graph::Graph;

/// Which downstream task the dataset defines (Definition 2 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Task {
    /// Predict the class of a node (`|V_i| = 1`), e.g. arXiv categories.
    NodeClassification,
    /// Predict the relation of a (head, tail) pair (`|V_i| = 2`), e.g.
    /// FB15K-237 relation types. The target edge is excluded from the
    /// datapoint's data graph.
    EdgeClassification,
}

/// One classification datapoint `x_i`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DataPoint {
    /// A node id (node classification).
    Node(u32),
    /// A triple index into [`Graph::triples`] (edge classification).
    Edge(u32),
}

impl DataPoint {
    /// The anchor node ids this datapoint contextualizes around.
    pub fn anchors(self, graph: &Graph) -> Vec<u32> {
        match self {
            DataPoint::Node(n) => vec![n],
            DataPoint::Edge(eid) => {
                let t = graph.triple(eid);
                vec![t.head, t.tail]
            }
        }
    }

    /// The ground-truth class of this datapoint.
    pub fn label(self, graph: &Graph) -> u16 {
        match self {
            DataPoint::Node(n) => graph.node_label(n),
            DataPoint::Edge(eid) => graph.triple(eid).rel,
        }
    }
}

/// Train/valid/test partition names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Split {
    /// Candidate prompts are drawn from here.
    Train,
    /// Held-out tuning partition.
    Valid,
    /// Queries are drawn from here.
    Test,
}

/// A benchmark dataset: graph + task + split datapoints.
pub struct Dataset {
    /// Human-readable name (e.g. `"fb15k237-like"`).
    pub name: String,
    /// The underlying graph.
    pub graph: Graph,
    /// Node or edge classification.
    pub task: Task,
    /// Total number of classes (`|Y|` before episode subsampling).
    pub num_classes: usize,
    /// Datapoints usable as labelled prompt candidates.
    pub train: Vec<DataPoint>,
    /// Held-out datapoints.
    pub valid: Vec<DataPoint>,
    /// Datapoints used as queries.
    pub test: Vec<DataPoint>,
}

impl Dataset {
    /// Datapoints of one split.
    pub fn split(&self, split: Split) -> &[DataPoint] {
        match split {
            Split::Train => &self.train,
            Split::Valid => &self.valid,
            Split::Test => &self.test,
        }
    }

    /// Sanity-check internal consistency (labels in range, anchors valid).
    /// Used by tests and the experiment harness at startup.
    ///
    /// # Panics
    /// Panics on the first inconsistency; use [`Dataset::try_validate`]
    /// for data loaded from external files.
    #[expect(
        clippy::panic,
        reason = "the documented panicking twin of try_validate, for tests and the experiment harness; data from files goes through try_validate"
    )]
    pub fn validate(&self) {
        self.try_validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Dataset::validate`]: returns a description of the first
    /// inconsistency instead of panicking, including datapoints that index
    /// outside the graph (which the panicking path would hit as an
    /// out-of-bounds access).
    pub fn try_validate(&self) -> Result<(), String> {
        for dp in self.train.iter().chain(&self.valid).chain(&self.test) {
            match *dp {
                DataPoint::Node(n) => {
                    if n as usize >= self.graph.num_nodes() {
                        return Err(format!(
                            "{}: node datapoint {n} outside graph of {} nodes",
                            self.name,
                            self.graph.num_nodes()
                        ));
                    }
                }
                DataPoint::Edge(eid) => {
                    if eid as usize >= self.graph.num_edges() {
                        return Err(format!(
                            "{}: edge datapoint {eid} outside graph of {} edges",
                            self.name,
                            self.graph.num_edges()
                        ));
                    }
                }
            }
            let label = dp.label(&self.graph) as usize;
            if label >= self.num_classes {
                return Err(format!(
                    "{}: label {label} out of {} classes",
                    self.name, self.num_classes
                ));
            }
            for a in dp.anchors(&self.graph) {
                if a as usize >= self.graph.num_nodes() {
                    return Err(format!(
                        "{}: anchor node {a} outside graph of {} nodes",
                        self.name,
                        self.graph.num_nodes()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of datapoints across all splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// True when the dataset carries no datapoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Deterministically split datapoints 60/20/20 per class so every class is
/// represented in every split (the paper draws candidate prompts from the
/// train partition and queries from the test partition, §V-A2).
pub fn stratified_split(
    graph: &Graph,
    points: Vec<DataPoint>,
    num_classes: usize,
) -> (Vec<DataPoint>, Vec<DataPoint>, Vec<DataPoint>) {
    let mut per_class: Vec<Vec<DataPoint>> = vec![Vec::new(); num_classes];
    for dp in points {
        per_class[dp.label(graph) as usize].push(dp);
    }
    let (mut train, mut valid, mut test) = (Vec::new(), Vec::new(), Vec::new());
    for bucket in per_class {
        let n = bucket.len();
        let n_train = (n * 6) / 10;
        let n_valid = (n * 2) / 10;
        for (i, dp) in bucket.into_iter().enumerate() {
            if i < n_train {
                train.push(dp);
            } else if i < n_train + n_valid {
                valid.push(dp);
            } else {
                test.push(dp);
            }
        }
    }
    (train, valid, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::GraphBuilder;

    fn labelled_graph() -> Graph {
        let mut b = GraphBuilder::new(10, 2);
        for i in 0..9 {
            b.add_triple(i, (i % 2) as u16, i + 1);
        }
        b.node_labels((0..10).map(|i| (i % 2) as u16).collect());
        b.build()
    }

    #[test]
    fn node_datapoint_accessors() {
        let g = labelled_graph();
        let dp = DataPoint::Node(3);
        assert_eq!(dp.anchors(&g), vec![3]);
        assert_eq!(dp.label(&g), 1);
    }

    #[test]
    fn edge_datapoint_accessors() {
        let g = labelled_graph();
        let dp = DataPoint::Edge(2);
        assert_eq!(dp.anchors(&g), vec![2, 3]);
        assert_eq!(dp.label(&g), 0);
    }

    #[test]
    fn stratified_split_covers_all_classes() {
        let g = labelled_graph();
        let points: Vec<DataPoint> = (0..10).map(DataPoint::Node).collect();
        let (train, valid, test) = stratified_split(&g, points, 2);
        assert_eq!(train.len() + valid.len() + test.len(), 10);
        for split in [&train, &test] {
            let mut seen = [false; 2];
            for dp in split {
                seen[dp.label(&g) as usize] = true;
            }
            assert!(seen[0] && seen[1], "class missing from a split");
        }
    }
}
