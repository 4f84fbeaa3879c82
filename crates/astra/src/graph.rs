//! Dependency-graph scheduling.
//!
//! An [`ExecGraph`] is a DAG of timed nodes. A node starts when all its
//! dependencies have finished; independent nodes overlap freely (compute
//! and communication occupy different engines, matching ASTRA-sim's
//! compute/network split — contention *within* a node's duration is
//! already priced by the GPU/network models that produced it).

use fcc_sim::SimTime;

/// Index of a node in its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Engine classification, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Compute,
    Communication,
    /// A fused computation-communication operator.
    Fused,
}

#[derive(Debug, Clone)]
struct Node {
    label: String,
    kind: NodeKind,
    duration: SimTime,
    deps: Vec<NodeId>,
}

/// Result of scheduling a graph.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per-node `(start, end)`.
    pub times: Vec<(SimTime, SimTime)>,
    /// End of the last node.
    pub makespan: SimTime,
    /// Node ids along one critical path, source → sink.
    pub critical_path: Vec<NodeId>,
}

/// A DAG of timed operators.
#[derive(Debug, Clone, Default)]
pub struct ExecGraph {
    nodes: Vec<Node>,
}

impl ExecGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ExecGraph::default()
    }

    /// Adds a node; `deps` must already exist (ids are append-ordered, so
    /// the graph is acyclic by construction).
    pub fn add(
        &mut self,
        label: impl Into<String>,
        kind: NodeKind,
        duration: SimTime,
        deps: &[NodeId],
    ) -> NodeId {
        for d in deps {
            assert!(d.0 < self.nodes.len(), "dependency {d:?} not yet added");
        }
        self.nodes.push(Node {
            label: label.into(),
            kind,
            duration,
            deps: deps.to_vec(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's label.
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.0].label
    }

    /// A node's kind.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// A node's duration.
    pub fn duration(&self, id: NodeId) -> SimTime {
        self.nodes[id.0].duration
    }

    /// Schedules the graph: each node starts at the max end of its deps.
    pub fn schedule(&self) -> Schedule {
        let mut times: Vec<(SimTime, SimTime)> = Vec::with_capacity(self.nodes.len());
        let mut critical_pred: Vec<Option<NodeId>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let (start, pred) = node
                .deps
                .iter()
                .map(|&d| (times[d.0].1, Some(d)))
                .max_by_key(|&(t, _): &(SimTime, _)| t)
                .unwrap_or((SimTime::ZERO, None));
            times.push((start, start + node.duration));
            critical_pred.push(pred);
        }
        let makespan = times
            .iter()
            .map(|&(_, end)| end)
            .max()
            .unwrap_or(SimTime::ZERO);

        // Walk back from the sink that realizes the makespan.
        let mut critical_path = Vec::new();
        if let Some(sink) = (0..self.nodes.len())
            .rev()
            .find(|&i| times[i].1 == makespan)
        {
            let mut cur = Some(NodeId(sink));
            while let Some(id) = cur {
                critical_path.push(id);
                // Follow the predecessor that actually gated the start.
                cur = if times[id.0].0 == SimTime::ZERO && self.nodes[id.0].deps.is_empty() {
                    None
                } else {
                    self.nodes[id.0]
                        .deps
                        .iter()
                        .copied()
                        .find(|d| times[d.0].1 == times[id.0].0)
                };
            }
            critical_path.reverse();
        }

        Schedule {
            times,
            makespan,
            critical_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn chain_sums_durations() {
        let mut g = ExecGraph::new();
        let a = g.add("a", NodeKind::Compute, ms(2), &[]);
        let b = g.add("b", NodeKind::Communication, ms(3), &[a]);
        let c = g.add("c", NodeKind::Compute, ms(1), &[b]);
        let s = g.schedule();
        assert_eq!(s.makespan, ms(6));
        assert_eq!(s.critical_path, vec![a, b, c]);
        assert_eq!(s.times[1], (ms(2), ms(5)));
    }

    #[test]
    fn independent_nodes_overlap() {
        let mut g = ExecGraph::new();
        let a = g.add("compute", NodeKind::Compute, ms(4), &[]);
        let b = g.add("comm", NodeKind::Communication, ms(3), &[]);
        let c = g.add("join", NodeKind::Compute, ms(1), &[a, b]);
        let s = g.schedule();
        assert_eq!(s.makespan, ms(5));
        assert_eq!(s.critical_path, vec![a, c]);
    }

    #[test]
    fn diamond_takes_longest_branch() {
        let mut g = ExecGraph::new();
        let src = g.add("src", NodeKind::Compute, ms(1), &[]);
        let fast = g.add("fast", NodeKind::Compute, ms(1), &[src]);
        let slow = g.add("slow", NodeKind::Communication, ms(5), &[src]);
        let sink = g.add("sink", NodeKind::Compute, ms(1), &[fast, slow]);
        let s = g.schedule();
        assert_eq!(s.makespan, ms(7));
        assert_eq!(s.critical_path, vec![src, slow, sink]);
    }

    #[test]
    fn empty_graph_schedules_to_zero() {
        let s = ExecGraph::new().schedule();
        assert_eq!(s.makespan, SimTime::ZERO);
        assert!(s.critical_path.is_empty());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependencies_rejected() {
        let mut g = ExecGraph::new();
        g.add("a", NodeKind::Compute, ms(1), &[NodeId(3)]);
    }
}
