//! Placement: assign DFG nodes to PEs.
//!
//! A greedy constructive pass (nodes in forward dataflow order, each
//! taking the legal free PE closest to its placed neighbors) followed
//! by simulated-annealing refinement over pairwise swaps/moves, each
//! costed by the wirelength change of the edges it touches.
//! Memory ops are constrained to the north/south perimeter rows, which
//! hold the SRAM banks. Deterministic for a given seed.

use super::{ArrayShape, Coord, MapError};
use uecgra_dfg::analysis::TopoOrder;
use uecgra_dfg::{Dfg, NodeId};
use uecgra_util::SplitMix64;

/// A placement: node → PE coordinate (pseudo-ops are off-fabric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    coords: Vec<Option<Coord>>,
}

impl Placement {
    /// Coordinate of `node`, if it is on the fabric.
    pub fn coord(&self, node: NodeId) -> Option<Coord> {
        self.coords[node.index()]
    }

    /// All node coordinates (indexed by `NodeId::index`).
    pub fn coords(&self) -> impl Iterator<Item = Option<Coord>> + '_ {
        self.coords.iter().copied()
    }

    /// The node occupying `coord`, if any.
    pub fn node_at(&self, coord: Coord) -> Option<NodeId> {
        self.coords
            .iter()
            .position(|&c| c == Some(coord))
            .map(NodeId::from_index)
    }

    /// Total Manhattan wirelength of all on-fabric edges.
    pub fn wirelength(&self, dfg: &Dfg) -> usize {
        dfg.edges()
            .filter_map(
                |(_, e)| match (self.coords[e.src.index()], self.coords[e.dst.index()]) {
                    (Some(a), Some(b)) => Some(ArrayShape::manhattan(a, b)),
                    _ => None,
                },
            )
            .sum()
    }
}

/// Place `dfg` onto `shape`.
///
/// # Errors
///
/// Returns [`MapError::TooManyNodes`] / [`MapError::TooManyMemoryNodes`]
/// when the graph cannot fit.
pub fn place(dfg: &Dfg, shape: ArrayShape, seed: u64) -> Result<Placement, MapError> {
    let fabric_nodes: Vec<NodeId> = dfg
        .nodes()
        .filter(|(_, n)| !n.op.is_pseudo())
        .map(|(id, _)| id)
        .collect();
    if fabric_nodes.len() > shape.len() {
        return Err(MapError::TooManyNodes {
            nodes: fabric_nodes.len(),
            pes: shape.len(),
        });
    }
    let mem_nodes = fabric_nodes
        .iter()
        .filter(|&&n| dfg.node(n).op.is_memory())
        .count();
    if mem_nodes > shape.memory_capacity() {
        return Err(MapError::TooManyMemoryNodes {
            nodes: mem_nodes,
            slots: shape.memory_capacity(),
        });
    }

    let mut board = Board {
        width: shape.width,
        coords: vec![None; dfg.node_count()],
        occupant: vec![None; shape.len()],
    };

    // Greedy construction in forward dataflow order. A compute node
    // may take a perimeter PE only while more of them stay free than
    // there are memory nodes left to place.
    let mut perimeter_free = shape.memory_capacity();
    let mut memory_left = mem_nodes;
    let topo = TopoOrder::compute(dfg);
    for &node in topo.order() {
        if dfg.node(node).op.is_pseudo() {
            continue;
        }
        let is_memory = dfg.node(node).op.is_memory();
        let neighbors: Vec<Coord> = dfg
            .predecessors(node)
            .chain(dfg.successors(node))
            .filter_map(|m| board.coords[m.index()])
            .collect();
        let legal = |c: Coord| {
            board.at(c).is_none()
                && if shape.is_memory_row(c) {
                    is_memory || perimeter_free > memory_left
                } else {
                    !is_memory
                }
        };
        let best = shape
            .coords()
            .filter(|&c| legal(c))
            .min_by_key(|&c| {
                let attraction: usize =
                    neighbors.iter().map(|&n| ArrayShape::manhattan(c, n)).sum();
                // Prefer center-out when unconstrained, to leave the
                // perimeter for memory ops.
                let center_bias = if neighbors.is_empty() {
                    c.1.abs_diff(shape.height / 2) + c.0.abs_diff(shape.width / 2)
                } else {
                    0
                };
                (attraction * 64 + center_bias, c.1 * shape.width + c.0)
            })
            .expect("capacity checked above");
        board.swap(node, best);
        if shape.is_memory_row(best) {
            perimeter_free -= 1;
        }
        if is_memory {
            memory_left -= 1;
        }
    }

    // Simulated-annealing refinement over moves that place a node on a
    // random PE, swapping with any occupant. A move's cost is the
    // wirelength change over the edges incident to the moved pair; a
    // rejected move is swapped back.
    if fabric_nodes.is_empty() {
        return Ok(Placement {
            coords: board.coords,
        });
    }
    // Per node, the other end of each edge to a different on-fabric
    // node; self-loops and edges to pseudo-ops never change length.
    let mut ends: Vec<Vec<NodeId>> = vec![Vec::new(); dfg.node_count()];
    for (_, e) in dfg.edges() {
        if e.src != e.dst
            && board.coords[e.src.index()].is_some()
            && board.coords[e.dst.index()].is_some()
        {
            ends[e.src.index()].push(e.dst);
            ends[e.dst.index()].push(e.src);
        }
    }
    // Length of the edges incident to `node` or `partner`, each once.
    let local_length = |coords: &[Option<Coord>], node: NodeId, partner: Option<NodeId>| {
        let of = |n: NodeId, skip: Option<NodeId>| -> usize {
            let at = coords[n.index()].expect("fabric node placed");
            ends[n.index()]
                .iter()
                .filter(|&&m| Some(m) != skip)
                .map(|&m| ArrayShape::manhattan(at, coords[m.index()].expect("fabric node placed")))
                .sum()
        };
        of(node, None) + partner.map_or(0, |o| of(o, Some(node)))
    };
    let is_memory = |n: NodeId| dfg.node(n).op.is_memory();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut temperature = 2.0;
    for _ in 0..SWEEPS {
        let node = fabric_nodes[rng.range(fabric_nodes.len())];
        let target: Coord = (rng.range(shape.width), rng.range(shape.height));
        let here = board.coords[node.index()].expect("fabric node placed");
        let other = board.at(target);
        // Legal iff both nodes respect the memory-row constraint
        // afterwards.
        let legal = (!is_memory(node) || shape.is_memory_row(target))
            && other.is_none_or(|o| o != node && (!is_memory(o) || shape.is_memory_row(here)));
        if !legal {
            temperature *= 0.999;
            continue;
        }
        let before = local_length(&board.coords, node, other);
        board.swap(node, target);
        let delta = local_length(&board.coords, node, other) as f64 - before as f64;
        let accept = delta <= 0.0 || rng.f64() < (-delta / temperature).exp();
        if !accept {
            board.swap(node, here);
        }
        temperature *= 0.999;
    }
    Ok(Placement {
        coords: board.coords,
    })
}

/// Annealing moves tried per placement.
const SWEEPS: usize = 4000;

/// A placement in progress: node → PE and PE → node (`y·w + x`),
/// kept in step.
struct Board {
    width: usize,
    coords: Vec<Option<Coord>>,
    occupant: Vec<Option<NodeId>>,
}

impl Board {
    fn at(&self, (x, y): Coord) -> Option<NodeId> {
        self.occupant[y * self.width + x]
    }

    /// Put `node` on PE `to`; whatever occupied `to` moves to `node`'s
    /// old PE (if it had one). Swapping back to the old PE undoes it.
    fn swap(&mut self, node: NodeId, (x, y): Coord) {
        let other = self.occupant[y * self.width + x];
        if let Some(from) = self.coords[node.index()] {
            self.occupant[from.1 * self.width + from.0] = other;
            if let Some(o) = other {
                self.coords[o.index()] = Some(from);
            }
        }
        self.occupant[y * self.width + x] = Some(node);
        self.coords[node.index()] = Some((x, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels::synthetic;
    use uecgra_dfg::Op;

    #[test]
    fn chain_places_compactly() {
        let s = synthetic::chain(6);
        let p = place(&s.dfg, ArrayShape::default(), 1).unwrap();
        // A 6-node chain has minimum wirelength 5 (nodes adjacent).
        let wl = p.wirelength(&s.dfg);
        assert!(wl <= 8, "wirelength {wl} too loose for a 6-chain");
    }

    #[test]
    fn ring_places_compactly() {
        let s = synthetic::cycle_n(4);
        let p = place(&s.dfg, ArrayShape::default(), 1).unwrap();
        // A 4-ring fits a 2x2 block: wirelength 4.
        assert!(p.wirelength(&s.dfg) <= 6);
    }

    #[test]
    fn memory_nodes_stay_on_perimeter_after_annealing() {
        let mut g = uecgra_dfg::Dfg::new();
        let mut prev = g.add_node(Op::Load, "ld0").constant(0).id();
        for i in 1..6 {
            let n = g.add_node(Op::Add, format!("a{i}")).constant(1).id();
            g.connect(prev, n);
            prev = n;
        }
        let st = g.add_node(Op::Store, "st").constant(0).id();
        g.connect(prev, st);
        for seed in 0..5 {
            let p = place(&g, ArrayShape::default(), seed).unwrap();
            let shape = ArrayShape::default();
            for (id, n) in g.nodes() {
                if n.op.is_memory() {
                    assert!(shape.is_memory_row(p.coord(id).unwrap()));
                }
            }
        }
    }

    #[test]
    fn compute_nodes_leave_the_perimeter_to_memory_nodes() {
        // 48 chained adds, then 16 stores: the adds must take exactly
        // the 48 interior PEs, or some store finds no perimeter PE.
        let mut g = uecgra_dfg::Dfg::new();
        let mut prev = g.add_node(Op::Add, "a0").constant(1).id();
        for i in 1..48 {
            let n = g.add_node(Op::Add, format!("a{i}")).constant(1).id();
            g.connect(prev, n);
            prev = n;
        }
        for i in 0..16 {
            let st = g.add_node(Op::Store, format!("st{i}")).constant(0).id();
            g.connect(prev, st);
        }
        let shape = ArrayShape::default();
        let p = place(&g, shape, 0).unwrap();
        for (id, n) in g.nodes() {
            assert_eq!(shape.is_memory_row(p.coord(id).unwrap()), n.op.is_memory());
        }
    }

    #[test]
    fn a_graph_without_fabric_nodes_places_nothing() {
        let mut g = uecgra_dfg::Dfg::new();
        let src = g.add_node(Op::Source, "in").id();
        let out = g.add_node(Op::Sink, "out").id();
        g.connect(src, out);
        let p = place(&g, ArrayShape::default(), 0).unwrap();
        assert!(p.coords().all(|c| c.is_none()));
    }

    #[test]
    fn node_at_inverts_coord() {
        let s = synthetic::chain(4);
        let p = place(&s.dfg, ArrayShape::default(), 0).unwrap();
        for (id, n) in s.dfg.nodes() {
            if n.op.is_pseudo() {
                continue;
            }
            let c = p.coord(id).unwrap();
            assert_eq!(p.node_at(c), Some(id));
        }
        assert!(p.node_at((7, 7)).is_none());
    }
}
