//! Dataflow-graph representation.
//!
//! A [`Dfg`] is a directed multigraph of single-cycle operations connected
//! by token-carrying edges. Edges correspond to the two-entry elastic
//! queues of the UE-CGRA interconnect; cycles in the graph are
//! inter-iteration (recurrence) dependencies, bootstrapped by initial
//! tokens on phi nodes.

use crate::op::Op;
use std::error::Error;
use std::fmt;

/// Identifier of a node within a [`Dfg`].
///
/// Node ids are dense indices assigned in insertion order, so they can be
/// used to index side tables (`Vec<T>` keyed by `NodeId::index`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node (insertion order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a `NodeId` from a dense index previously obtained
    /// from [`NodeId::index`]. The caller must ensure the index refers
    /// to a node of the graph it is used with; graph accessors panic on
    /// out-of-range ids.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl EdgeId {
    /// Dense index of this edge (insertion order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an `EdgeId` from a dense index previously obtained
    /// from [`EdgeId::index`]. The caller must ensure the index refers
    /// to an edge of the graph it is used with.
    pub fn from_index(index: usize) -> EdgeId {
        EdgeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A node of the dataflow graph: one operation plus its static
/// configuration (constant operand, recurrence-bootstrapping token).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation this node performs.
    pub op: Op,
    /// Human-readable label used in reports and DOT dumps.
    pub name: String,
    /// A configured constant supplied through the PE multi-purpose
    /// register. When an input port has no incoming edge, the constant is
    /// used as that operand (a "self-cycle" in the paper's Figure 14).
    pub constant: Option<u32>,
    /// Initial token emitted once after reset (phi nodes only). This is
    /// what allows a DFG cycle to start iterating ("iteration zero").
    pub init: Option<u32>,
}

/// An edge of the dataflow graph: a two-entry elastic queue carrying
/// 32-bit tokens from an output port of `src` to an input port of `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Output port on the producer (`0` for all ops except `br`, which
    /// steers to port `0` when the condition is true and `1` when false).
    pub src_port: u8,
    /// Consuming node.
    pub dst: NodeId,
    /// Input port on the consumer (operand index).
    pub dst_port: u8,
}

/// Errors reported by [`Dfg`] construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id that does not exist.
    UnknownNode(NodeId),
    /// An edge used an output port outside the producer's `out_ports()`.
    BadSrcPort {
        /// The offending producer node.
        node: NodeId,
        /// The out-of-range output port.
        port: u8,
    },
    /// An edge used an input port outside the consumer's `arity()`.
    BadDstPort {
        /// The offending consumer node.
        node: NodeId,
        /// The out-of-range input port.
        port: u8,
    },
    /// Two edges drive the same input port of the same node.
    InputConflict {
        /// The node whose input is multiply driven.
        node: NodeId,
        /// The conflicting input port.
        port: u8,
    },
    /// A node is missing an input and has no constant to substitute.
    MissingInput {
        /// The node with the undriven input.
        node: NodeId,
        /// The undriven input port.
        port: u8,
    },
    /// An initial token was configured on a non-phi node.
    InitOnNonPhi(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::BadSrcPort { node, port } => {
                write!(f, "node {node} has no output port {port}")
            }
            GraphError::BadDstPort { node, port } => {
                write!(f, "node {node} has no input port {port}")
            }
            GraphError::InputConflict { node, port } => {
                write!(f, "multiple edges drive input port {port} of node {node}")
            }
            GraphError::MissingInput { node, port } => {
                write!(
                    f,
                    "input port {port} of node {node} is undriven and has no constant"
                )
            }
            GraphError::InitOnNonPhi(n) => {
                write!(f, "initial token configured on non-phi node {n}")
            }
        }
    }
}

impl Error for GraphError {}

/// A dataflow graph of single-cycle operations.
///
/// # Examples
///
/// Build the toy graph of the paper's Figure 1: a four-op chain
/// `A → B → C → D` whose result feeds back to `A` (an inter-iteration
/// dependency):
///
/// ```
/// use uecgra_dfg::{Dfg, Op};
///
/// let mut g = Dfg::new();
/// let a = g.add_node(Op::Phi, "A").init(0).id();
/// let b = g.add_node(Op::Add, "B").constant(1).id();
/// let c = g.add_node(Op::Mul, "C").constant(3).id();
/// let d = g.add_node(Op::Add, "D").constant(7).id();
/// g.connect(a, b);
/// g.connect(b, c);
/// g.connect(c, d);
/// g.connect(d, a); // recurrence edge
/// g.validate().unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert!(g.recurrence_edges().count() == 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

/// Builder handle returned by [`Dfg::add_node`], allowing fluent
/// configuration of the node just added.
#[derive(Debug)]
pub struct NodeBuilder<'g> {
    graph: &'g mut Dfg,
    id: NodeId,
}

impl<'g> NodeBuilder<'g> {
    /// Set a constant operand (held in the PE multi-purpose register).
    pub fn constant(self, value: u32) -> Self {
        self.graph.nodes[self.id.index()].constant = Some(value);
        self
    }

    /// Set the initial token of a phi node (bootstraps a recurrence).
    pub fn init(self, value: u32) -> Self {
        self.graph.nodes[self.id.index()].init = Some(value);
        self
    }

    /// Finish and return the node id.
    pub fn id(self) -> NodeId {
        self.id
    }
}

impl Dfg {
    /// Create an empty graph.
    pub fn new() -> Dfg {
        Dfg::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node, returning a builder for fluent configuration.
    pub fn add_node(&mut self, op: Op, name: impl Into<String>) -> NodeBuilder<'_> {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            name: name.into(),
            constant: None,
            init: None,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        NodeBuilder { graph: self, id }
    }

    /// Connect output port 0 of `src` to the lowest-numbered free input
    /// port of `dst`. Panics if `dst` has no free port (use
    /// [`Dfg::connect_ports`] for explicit wiring).
    ///
    /// # Panics
    ///
    /// Panics if every input port of `dst` is already driven.
    pub fn connect(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        let arity = self.nodes[dst.index()].op.arity().max(1);
        let used: Vec<u8> = self.in_edges[dst.index()]
            .iter()
            .map(|e| self.edges[e.index()].dst_port)
            .collect();
        let port = (0..arity as u8)
            .find(|p| !used.contains(p))
            .unwrap_or_else(|| panic!("no free input port on {dst}"));
        self.connect_ports(src, 0, dst, port)
    }

    /// Connect an explicit output port of `src` to an explicit input port
    /// of `dst`. Port validity is checked by [`Dfg::validate`].
    pub fn connect_ports(
        &mut self,
        src: NodeId,
        src_port: u8,
        dst: NodeId,
        dst_port: u8,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src,
            src_port,
            dst,
            dst_port,
        });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        id
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Access an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterate over `(NodeId, &Node)` in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterate over `(EdgeId, &Edge)` in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Edges leaving `node`.
    pub fn outputs(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out_edges[node.index()]
            .iter()
            .map(move |&e| (e, &self.edges[e.index()]))
    }

    /// Edges entering `node`.
    pub fn inputs(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.in_edges[node.index()]
            .iter()
            .map(move |&e| (e, &self.edges[e.index()]))
    }

    /// Fan-out (number of outgoing edges) of `node`.
    pub fn fan_out(&self, node: NodeId) -> usize {
        self.out_edges[node.index()].len()
    }

    /// Fan-in (number of incoming edges) of `node`.
    pub fn fan_in(&self, node: NodeId) -> usize {
        self.in_edges[node.index()].len()
    }

    /// Successor node ids (with multiplicity, in edge order).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[node.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Predecessor node ids (with multiplicity, in edge order).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges[node.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// Nodes with the `Source` pseudo-op (live-ins of the graph).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| n.op == Op::Source)
            .map(|(id, _)| id)
    }

    /// Nodes with the `Sink` pseudo-op (live-outs of the graph).
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| n.op == Op::Sink)
            .map(|(id, _)| id)
    }

    /// Count of real PE operations (excluding source/sink pseudo-ops).
    pub fn pe_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.op.is_pseudo()).count()
    }

    /// Edges that close a cycle in a depth-first traversal — the
    /// inter-iteration (recurrence) dependencies. The set of back edges
    /// depends on traversal order, but *whether* the graph has any is
    /// traversal-invariant, and every cycle contains at least one.
    pub fn recurrence_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let back = self.back_edges();
        self.edges()
            .map(|(id, _)| id)
            .filter(move |id| back.contains(&id.index()))
    }

    fn back_edges(&self) -> Vec<usize> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.nodes.len()];
        let mut back = Vec::new();
        // Iterative DFS over every component.
        for root in 0..self.nodes.len() {
            if color[root] != Color::White {
                continue;
            }
            // Stack holds (node, next-out-edge-index).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = Color::Grey;
            while let Some(&mut (n, ref mut i)) = stack.last_mut() {
                if *i < self.out_edges[n].len() {
                    let eid = self.out_edges[n][*i];
                    *i += 1;
                    let m = self.edges[eid.index()].dst.index();
                    match color[m] {
                        Color::White => {
                            color[m] = Color::Grey;
                            stack.push((m, 0));
                        }
                        Color::Grey => back.push(eid.index()),
                        Color::Black => {}
                    }
                } else {
                    color[n] = Color::Black;
                    stack.pop();
                }
            }
        }
        back
    }

    /// Validate structural invariants: edge endpoints exist, ports are in
    /// range, no two edges drive the same input port, every input port of
    /// every non-phi node is driven or backed by a constant, and initial
    /// tokens only appear on phi nodes.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (_, e) in self.edges() {
            if e.src.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(e.src));
            }
            if e.dst.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(e.dst));
            }
            let src_op = self.nodes[e.src.index()].op;
            if (e.src_port as usize) >= src_op.out_ports() {
                return Err(GraphError::BadSrcPort {
                    node: e.src,
                    port: e.src_port,
                });
            }
            let dst_op = self.nodes[e.dst.index()].op;
            if (e.dst_port as usize) >= dst_op.arity().max(1) {
                return Err(GraphError::BadDstPort {
                    node: e.dst,
                    port: e.dst_port,
                });
            }
        }
        for (id, node) in self.nodes() {
            // Every port is below `arity().max(1)` <= 2 by now.
            let mut seen = [0u32; 2];
            for (_, e) in self.inputs(id) {
                seen[e.dst_port as usize] += 1;
            }
            if let Some(port) = seen.iter().position(|&count| count > 1) {
                return Err(GraphError::InputConflict {
                    node: id,
                    port: port as u8,
                });
            }
            if node.init.is_some() && node.op != Op::Phi {
                return Err(GraphError::InitOnNonPhi(id));
            }
            if node.op == Op::Source {
                continue;
            }
            // Phi fires on either input, so a single driven port suffices.
            if node.op.fires_on_any_input() {
                if seen == [0, 0] && node.constant.is_none() {
                    return Err(GraphError::MissingInput { node: id, port: 0 });
                }
                continue;
            }
            for port in 0..node.op.arity() as u8 {
                if seen[port as usize] == 0 && node.constant.is_none() {
                    return Err(GraphError::MissingInput { node: id, port });
                }
            }
        }
        Ok(())
    }

    /// Render the graph in Graphviz DOT format (for debugging and docs).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph dfg {\n  rankdir=TB;\n");
        for (id, n) in self.nodes() {
            let shape = match n.op {
                Op::Source | Op::Sink => "invhouse",
                Op::Phi => "diamond",
                Op::Br => "trapezium",
                Op::Load | Op::Store => "box3d",
                _ => "ellipse",
            };
            let _ = writeln!(
                s,
                "  {} [label=\"{}\\n{}\" shape={}];",
                id, n.name, n.op, shape
            );
        }
        let back: Vec<usize> = self.back_edges();
        for (id, e) in self.edges() {
            let style = if back.contains(&id.index()) {
                " [style=dashed color=red]"
            } else {
                ""
            };
            let _ = writeln!(s, "  {} -> {}{};", e.src, e.dst, style);
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "in").id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        let c = g.add_node(Op::Mul, "c").constant(2).id();
        let d = g.add_node(Op::Add, "d").id();
        g.connect(a, b);
        g.connect(a, c);
        g.connect(b, d);
        g.connect(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.fan_out(a), 2);
        assert_eq!(g.fan_in(d), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        g.validate().unwrap();
    }

    #[test]
    fn connect_assigns_free_ports() {
        let (g, [_, b, c, d]) = diamond();
        let ports: Vec<u8> = g.inputs(d).map(|(_, e)| e.dst_port).collect();
        assert_eq!(ports, vec![0, 1]);
        assert_eq!(g.inputs(b).next().unwrap().1.dst_port, 0);
        assert_eq!(g.inputs(c).next().unwrap().1.dst_port, 0);
    }

    #[test]
    fn recurrence_detection() {
        let mut g = Dfg::new();
        let phi = g.add_node(Op::Phi, "phi").init(0).id();
        let add = g.add_node(Op::Add, "add").constant(1).id();
        g.connect(phi, add);
        g.connect(add, phi);
        g.validate().unwrap();
        let rec: Vec<_> = g.recurrence_edges().collect();
        assert_eq!(rec.len(), 1);

        let (acyclic, _) = diamond();
        assert_eq!(acyclic.recurrence_edges().count(), 0);
    }

    #[test]
    fn validate_rejects_input_conflict() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "a").id();
        let b = g.add_node(Op::Source, "b").id();
        let c = g.add_node(Op::Add, "c").id();
        g.connect_ports(a, 0, c, 0);
        g.connect_ports(b, 0, c, 0);
        assert!(matches!(
            g.validate(),
            Err(GraphError::InputConflict { .. })
        ));
    }

    #[test]
    fn input_conflict_reports_the_lowest_port() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "a").id();
        let b = g.add_node(Op::Source, "b").id();
        let c = g.add_node(Op::Add, "c").id();
        for port in [1, 0] {
            g.connect_ports(a, 0, c, port);
            g.connect_ports(b, 0, c, port);
        }
        assert_eq!(
            g.validate(),
            Err(GraphError::InputConflict { node: c, port: 0 })
        );
    }

    #[test]
    fn validate_rejects_missing_input() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "a").id();
        let c = g.add_node(Op::Add, "c").id();
        g.connect(a, c);
        assert!(matches!(g.validate(), Err(GraphError::MissingInput { .. })));
    }

    #[test]
    fn constant_substitutes_missing_input() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Source, "a").id();
        let c = g.add_node(Op::Add, "c").constant(5).id();
        g.connect(a, c);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_ports() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        let b = g.add_node(Op::Add, "b").constant(0).id();
        g.connect_ports(a, 1, b, 0); // add has 1 output port
        assert!(matches!(g.validate(), Err(GraphError::BadSrcPort { .. })));

        let mut g2 = Dfg::new();
        let a2 = g2.add_node(Op::Add, "a").constant(0).id();
        let b2 = g2.add_node(Op::Nop, "b").id();
        g2.connect_ports(a2, 0, b2, 1); // nop has arity 1
        assert!(matches!(g2.validate(), Err(GraphError::BadDstPort { .. })));
    }

    #[test]
    fn validate_rejects_init_on_non_phi() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Add, "a").constant(0).id();
        g.node_mut(a).init = Some(3);
        assert!(matches!(g.validate(), Err(GraphError::InitOnNonPhi(_))));
    }

    #[test]
    fn br_has_two_output_ports() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let c = g.add_node(Op::Source, "cond").id();
        let br = g.add_node(Op::Br, "br").id();
        let t = g.add_node(Op::Sink, "t").id();
        let f = g.add_node(Op::Sink, "f").id();
        g.connect_ports(s, 0, br, 0);
        g.connect_ports(c, 0, br, 1);
        g.connect_ports(br, 0, t, 0);
        g.connect_ports(br, 1, f, 0);
        g.validate().unwrap();
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        for (id, _) in g.nodes() {
            assert!(dot.contains(&id.to_string()));
        }
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn phi_with_single_input_is_valid() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let phi = g.add_node(Op::Phi, "phi").init(1).id();
        g.connect(s, phi);
        g.validate().unwrap();
    }
}
