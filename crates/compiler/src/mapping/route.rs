//! Routing: per-net Steiner trees through the inter-PE network.
//!
//! All edges leaving the same output port of a node carry the *same
//! value*, so they are routed together as one **net** that may fork at
//! intermediate PEs (the PE's output muxes can select one bypass
//! message for several directions at once). Each directed inter-PE
//! link carries one net; each PE can bypass at most two distinct nets
//! through itself (the two bypass paths of the UE-CGRA PE, paper
//! Section IV-A).
//!
//! Per-sink paths are found with Dijkstra — "a valid path to route
//! dependencies is calculated with Dijkstra's algorithm" (Section
//! VI-A) — growing each net's tree incrementally (existing tree links
//! are free), inside a PathFinder-style negotiated-congestion loop
//! that reroutes everything with rising penalties on oversubscribed
//! links and bypasses until the routing is feasible.
//!
//! Internally every resource is a dense index (see `Grid`): usage,
//! congestion history, distances and predecessors are flat arrays, and
//! the public `HashMap` trees are built once, from the final round
//! (DESIGN.md §15).

use super::{ArrayShape, Coord, MapError, Placement};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use uecgra_dfg::{Dfg, EdgeId, NodeId};

/// A routed edge: the sequence of PE coordinates from producer to
/// consumer (inclusive), following the net's tree. Empty for
/// off-fabric edges; `[c]` for self-loops through the PE's
/// multi-purpose register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// PE coordinates along the route.
    pub path: Vec<Coord>,
}

/// A net: one value stream from a node output port to all its sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Producing node.
    pub src: NodeId,
    /// Output port on the producer.
    pub src_port: u8,
    /// Source coordinate.
    pub root: Coord,
    /// The routed tree: child coordinate → parent coordinate (toward
    /// the root). The root itself is absent.
    pub parent: HashMap<Coord, Coord>,
    /// The DFG edges this net serves.
    pub edges: Vec<EdgeId>,
}

impl Net {
    /// All coordinates the net touches (root, interior, sinks).
    pub fn coords(&self) -> HashSet<Coord> {
        let mut s: HashSet<Coord> = self.parent.keys().copied().collect();
        s.insert(self.root);
        s
    }

    /// Children of `coord` in the tree (fan-out directions).
    pub fn children(&self, coord: Coord) -> Vec<Coord> {
        let mut c: Vec<Coord> = self
            .parent
            .iter()
            .filter(|&(_, &p)| p == coord)
            .map(|(&child, _)| child)
            .collect();
        c.sort();
        c
    }
}

/// Result of routing: per-edge paths plus the nets they belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Per-edge route (indexed by `EdgeId::index`).
    pub routes: Vec<Route>,
    /// All routed nets.
    pub nets: Vec<Net>,
    /// Net index of each edge (`usize::MAX` for off-fabric edges).
    pub net_of_edge: Vec<usize>,
}

/// Capacity of a directed inter-PE link (one net).
const LINK_CAPACITY: u32 = 1;
/// Distinct nets a PE can bypass.
const BYPASS_CAPACITY: u32 = 2;
/// Negotiation rounds before giving up.
const MAX_ROUNDS: usize = 80;
/// Base cost of traversing one link.
const BASE_COST: u64 = 16;
/// "No link": the `via` of a PE the search has not reached through a
/// link (tree points and unvisited PEs).
const NONE: u32 = u32::MAX;

/// The array on dense indices. PE `(x, y)` is `y·w + x`; the directed
/// link leaving PE `p` in direction `k` (west, east, north, south, the
/// order the search relaxes them in) is `p·4 + k`, so a link's source
/// PE is `link / 4`.
#[derive(Clone, Copy)]
struct Grid {
    w: usize,
    h: usize,
}

impl Grid {
    fn pe(self, (x, y): Coord) -> usize {
        y * self.w + x
    }

    fn coord(self, pe: usize) -> Coord {
        (pe % self.w, pe / self.w)
    }

    /// Heap tie-break key: orders PEs as their `(x, y)` coordinates.
    fn key(self, pe: usize) -> usize {
        (pe % self.w) * self.h + pe / self.w
    }

    /// `(link, neighbour)` for each on-array step out of `pe`.
    fn neighbors(self, pe: usize) -> impl Iterator<Item = (usize, usize)> {
        let (x, y) = (pe % self.w, pe / self.w);
        [
            (x > 0).then(|| pe - 1),
            (x + 1 < self.w).then(|| pe + 1),
            (y > 0).then(|| pe - self.w),
            (y + 1 < self.h).then(|| pe + self.w),
        ]
        .into_iter()
        .enumerate()
        .filter_map(move |(k, next)| next.map(|n| (pe * 4 + k, n)))
    }
}

/// One counter per directed link and one per PE bypass: the round's
/// usage (`u32`) or the accumulated congestion history (`u64`).
struct PerResource<T> {
    links: Vec<T>,
    bypass: Vec<T>,
}

impl<T: Copy + Default> PerResource<T> {
    fn new(pes: usize) -> Self {
        PerResource {
            links: vec![T::default(); pes * 4],
            bypass: vec![T::default(); pes],
        }
    }
}

impl PerResource<u32> {
    fn overused(&self) -> bool {
        self.links.iter().any(|&u| u > LINK_CAPACITY)
            || self.bypass.iter().any(|&u| u > BYPASS_CAPACITY)
    }
}

impl PerResource<u64> {
    /// Charge every oversubscribed resource of a failed round.
    fn charge(&mut self, usage: &PerResource<u32>) {
        for (h, &u) in self.links.iter_mut().zip(&usage.links) {
            if u > LINK_CAPACITY {
                *h += u64::from(u - LINK_CAPACITY) * BASE_COST;
            }
        }
        for (h, &u) in self.bypass.iter_mut().zip(&usage.bypass) {
            if u > BYPASS_CAPACITY {
                *h += u64::from(u - BYPASS_CAPACITY) * BASE_COST;
            }
        }
    }
}

/// The nets to route: one per (producer, output port) with on-fabric
/// sinks.
struct ProtoNet {
    src: NodeId,
    src_port: u8,
    root: Coord,
    sinks: Vec<(EdgeId, Coord)>,
    /// Distinct sink PEs, farthest from the root first (so trunks are
    /// laid before twigs).
    targets: Vec<usize>,
}

/// A routed tree: `(child PE, link from its parent)` per tree link.
type Tree = Vec<(usize, usize)>;

/// Route every edge of `dfg` under a fixed placement.
///
/// # Errors
///
/// Returns [`MapError::Unroutable`] when negotiation fails to converge
/// within the round budget.
pub fn route_all(
    dfg: &Dfg,
    shape: ArrayShape,
    placement: &Placement,
    seed: u64,
) -> Result<Routing, MapError> {
    let grid = Grid {
        w: shape.width,
        h: shape.height,
    };
    // Build nets from on-fabric edges, keyed by (src node, src port).
    let mut net_index: HashMap<(NodeId, u8), usize> = HashMap::new();
    let mut protos: Vec<ProtoNet> = Vec::new();
    for (id, e) in dfg.edges() {
        let (Some(s), Some(d)) = (placement.coord(e.src), placement.coord(e.dst)) else {
            continue;
        };
        let key = (e.src, e.src_port);
        let idx = *net_index.entry(key).or_insert_with(|| {
            protos.push(ProtoNet {
                src: e.src,
                src_port: e.src_port,
                root: s,
                sinks: Vec::new(),
                targets: Vec::new(),
            });
            protos.len() - 1
        });
        protos[idx].sinks.push((id, d));
    }
    for p in &mut protos {
        let mut ordered: Vec<Coord> = p.sinks.iter().map(|&(_, d)| d).collect();
        ordered.sort_by_key(|&d| (usize::MAX - ArrayShape::manhattan(p.root, d), d));
        ordered.dedup();
        p.targets = ordered.into_iter().map(|d| grid.pe(d)).collect();
    }

    // Net order: largest bounding box first; seed breaks ties only.
    let mut order: Vec<usize> = (0..protos.len()).collect();
    let span = |p: &ProtoNet| -> usize {
        p.sinks
            .iter()
            .map(|&(_, d)| ArrayShape::manhattan(p.root, d))
            .max()
            .unwrap_or(0)
    };
    order.sort_by_key(|&i| {
        (
            usize::MAX - span(&protos[i]),
            (i as u64).wrapping_mul(seed | 1) % 97,
            i,
        )
    });

    let mut router = Router::new(grid);
    let mut history = PerResource::<u64>::new(shape.len());
    let mut usage = PerResource::<u32>::new(shape.len());
    let mut trees: Vec<Tree> = vec![Vec::new(); protos.len()];
    let mut forwards = vec![false; shape.len()];

    for round in 0..MAX_ROUNDS {
        let pressure = BASE_COST * (round as u64 + 1);
        usage.links.fill(0);
        usage.bypass.fill(0);

        for &pi in &order {
            let p = &protos[pi];
            let root = grid.pe(p.root);
            let tree = &mut trees[pi];
            router.route_net(root, &p.targets, &usage, &history, pressure, tree);
            // Charge usage: each tree link once; bypass once per PE
            // that forwards this net onward (a link's source other
            // than the root), since that consumes one of its two
            // bypass paths.
            for &(_, link) in tree.iter() {
                usage.links[link] += 1;
                let from = link / 4;
                if from != root && !forwards[from] {
                    forwards[from] = true;
                    usage.bypass[from] += 1;
                }
            }
            for &(_, link) in tree.iter() {
                forwards[link / 4] = false;
            }
        }

        if !usage.overused() {
            return Ok(finish(dfg, grid, &protos, &trees));
        }
        history.charge(&usage);
    }

    // Blame the widest net's first edge for diagnostics.
    let widest = order
        .first()
        .and_then(|&i| protos[i].sinks.first())
        .map(|&(id, _)| id)
        .unwrap_or_else(|| EdgeId::from_index(0));
    Err(MapError::Unroutable(widest))
}

/// Scratch state reused by every search of one routing.
struct Router {
    grid: Grid,
    dist: Vec<u64>,
    /// The link each PE was reached through.
    via: Vec<u32>,
    in_tree: Vec<bool>,
    /// Max-heap on `(Reverse(cost), key)`: cheapest first, then the
    /// largest coordinate.
    heap: BinaryHeap<(Reverse<u64>, usize, usize)>,
}

impl Router {
    fn new(grid: Grid) -> Self {
        let pes = grid.w * grid.h;
        Router {
            grid,
            dist: vec![u64::MAX; pes],
            via: vec![NONE; pes],
            in_tree: vec![false; pes],
            heap: BinaryHeap::new(),
        }
    }

    /// Grow one net's tree into `tree`: route each target to the
    /// nearest point of the existing tree with congestion-aware
    /// Dijkstra.
    fn route_net(
        &mut self,
        root: usize,
        targets: &[usize],
        usage: &PerResource<u32>,
        history: &PerResource<u64>,
        pressure: u64,
        tree: &mut Tree,
    ) {
        tree.clear();
        self.in_tree[root] = true;
        for &sink in targets {
            if self.in_tree[sink] {
                continue;
            }
            self.search(root, tree, sink, usage, history, pressure);
            // Walk back from the sink to the tree point it joined.
            let mut cur = sink;
            while self.via[cur] != NONE {
                let link = self.via[cur] as usize;
                tree.push((cur, link));
                self.in_tree[cur] = true;
                cur = link / 4;
            }
        }
        self.in_tree[root] = false;
        for &(pe, _) in tree.iter() {
            self.in_tree[pe] = false;
        }
    }

    /// Multi-source Dijkstra from the whole tree to `sink`, leaving the
    /// path in `via`. Always succeeds (costs are finite on a connected
    /// grid).
    fn search(
        &mut self,
        root: usize,
        tree: &Tree,
        sink: usize,
        usage: &PerResource<u32>,
        history: &PerResource<u64>,
        pressure: u64,
    ) {
        let grid = self.grid;
        self.dist.fill(u64::MAX);
        self.via.fill(NONE);
        self.heap.clear();
        for t in std::iter::once(root).chain(tree.iter().map(|&(pe, _)| pe)) {
            self.dist[t] = 0;
            self.heap.push((Reverse(0), grid.key(t), t));
        }

        while let Some((Reverse(cost), _, pe)) = self.heap.pop() {
            if pe == sink {
                return;
            }
            if cost > self.dist[pe] {
                continue;
            }
            for (link, next) in grid.neighbors(pe) {
                let mut step = BASE_COST + history.links[link];
                let link_use = usage.links[link];
                if link_use >= LINK_CAPACITY {
                    step += pressure * u64::from(link_use - LINK_CAPACITY + 1);
                }
                if next != sink {
                    step += history.bypass[next];
                    let by_use = usage.bypass[next];
                    if by_use >= BYPASS_CAPACITY {
                        step += pressure * u64::from(by_use - BYPASS_CAPACITY + 1);
                    }
                }
                let ncost = cost + step;
                if ncost < self.dist[next] {
                    self.dist[next] = ncost;
                    self.via[next] = link as u32;
                    self.heap.push((Reverse(ncost), grid.key(next), next));
                }
            }
        }
        unreachable!("grid is connected; a path always exists")
    }
}

/// Build the public nets and per-edge paths from the routed trees.
fn finish(dfg: &Dfg, grid: Grid, protos: &[ProtoNet], trees: &[Tree]) -> Routing {
    let mut routes = vec![Route::default(); dfg.edge_count()];
    let mut net_of_edge = vec![usize::MAX; dfg.edge_count()];
    let mut up = vec![usize::MAX; grid.w * grid.h];
    let mut nets = Vec::with_capacity(protos.len());

    for (ni, (p, tree)) in protos.iter().zip(trees).enumerate() {
        for &(pe, link) in tree {
            up[pe] = link / 4;
        }
        let root = grid.pe(p.root);
        for &(eid, sink) in &p.sinks {
            net_of_edge[eid.index()] = ni;
            // Walk parents from the sink back to the root; a self-loop
            // (sink == root) stays in the multi-purpose register.
            let mut path = vec![sink];
            let mut cur = grid.pe(sink);
            while cur != root {
                cur = up[cur];
                path.push(grid.coord(cur));
            }
            path.reverse();
            routes[eid.index()] = Route { path };
        }
        for &(pe, _) in tree {
            up[pe] = usize::MAX;
        }
        nets.push(Net {
            src: p.src,
            src_port: p.src_port,
            root: p.root,
            parent: tree
                .iter()
                .map(|&(pe, link)| (grid.coord(pe), grid.coord(link / 4)))
                .collect(),
            edges: p.sinks.iter().map(|&(id, _)| id).collect(),
        });
    }

    Routing {
        routes,
        nets,
        net_of_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::place::place;
    use uecgra_dfg::{Dfg, Op};

    #[test]
    fn single_edge_routes_shortest() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Phi, "a").init(0).id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        g.connect(a, b);
        g.connect(b, a);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        for (id, _) in g.edges() {
            let p = &routing.routes[id.index()];
            assert_eq!(p.path.len(), 2, "adjacent placement → 1-hop route");
        }
    }

    #[test]
    fn fanout_shares_one_net() {
        // One producer feeding five consumers: impossible with disjoint
        // per-edge paths (only 4 output links), fine as a forked net.
        let mut g = Dfg::new();
        let src = g.add_node(Op::Phi, "s").init(0).id();
        g.connect(src, src); // keep it firing
        for i in 0..5 {
            let c = g.add_node(Op::Add, format!("c{i}")).constant(1).id();
            g.connect_ports(src, 0, c, 0);
        }
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 1).unwrap();
        let routing = route_all(&g, shape, &placement, 1).unwrap();
        // All six edges (self + 5 consumers) share one net.
        let nets: HashSet<usize> = routing
            .net_of_edge
            .iter()
            .copied()
            .filter(|&n| n != usize::MAX)
            .collect();
        assert_eq!(nets.len(), 1);
    }

    #[test]
    fn different_ports_are_different_nets() {
        let mut g = Dfg::new();
        let s = g.add_node(Op::Source, "s").id();
        let c = g.add_node(Op::Source, "c").id();
        let br = g.add_node(Op::Br, "br").id();
        let t = g.add_node(Op::Add, "t").constant(0).id();
        let f = g.add_node(Op::Add, "f").constant(0).id();
        g.connect_ports(s, 0, br, 0);
        g.connect_ports(c, 0, br, 1);
        let e_t = g.connect_ports(br, 0, t, 0);
        let e_f = g.connect_ports(br, 1, f, 0);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        assert_ne!(
            routing.net_of_edge[e_t.index()],
            routing.net_of_edge[e_f.index()],
            "br's two ports carry different values"
        );
    }

    #[test]
    fn distinct_nets_use_distinct_links() {
        let mut g = Dfg::new();
        let a = g.add_node(Op::Phi, "a").init(0).id();
        let b = g.add_node(Op::Add, "b").constant(1).id();
        let c = g.add_node(Op::Add, "c").constant(1).id();
        g.connect(a, b);
        g.connect(b, c);
        g.connect(c, a);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 2).unwrap();
        let routing = route_all(&g, shape, &placement, 2).unwrap();
        let mut seen: HashMap<(Coord, Coord), usize> = HashMap::new();
        for (ni, net) in routing.nets.iter().enumerate() {
            for (&child, &parent) in &net.parent {
                if let Some(&other) = seen.get(&(parent, child)) {
                    panic!("link {parent:?}→{child:?} used by nets {other} and {ni}");
                }
                seen.insert((parent, child), ni);
            }
        }
    }

    #[test]
    fn self_loops_route_in_place() {
        let mut g = Dfg::new();
        let acc = g.add_node(Op::Phi, "acc").init(0).id();
        g.connect(acc, acc);
        let shape = ArrayShape::default();
        let placement = place(&g, shape, 0).unwrap();
        let routing = route_all(&g, shape, &placement, 0).unwrap();
        assert_eq!(routing.routes[0].path.len(), 1);
    }
}
