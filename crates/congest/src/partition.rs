//! Chunk partitioning policies for the parallel scheduler.
//!
//! The parallel engine splits the node set into per-worker chunks and cuts
//! the flat mailbox arena along the same boundaries. A chunk is always a
//! **contiguous range of positions** in some node arrangement — that is
//! what keeps the slot arena, its delivery blocks, and the routing tables
//! simple — and within a chunk nodes always sit in **ascending id order**,
//! so a chunk reads the topology and its node programs in the order they
//! were allocated. The policies differ in *which chunk* a node joins:
//!
//! * [`PartitionPolicy::Contiguous`] cuts the original id order into
//!   port-balanced ranges (the historical behaviour). On the paper's
//!   bipartite incidence this separates vertex nodes (`0..n`) from
//!   hyperedge nodes (`n..n+m`), so almost every link crosses a chunk
//!   boundary, and in every MWHVC round only the chunks of one side work.
//! * [`PartitionPolicy::Locality`] assigns chunks along a deterministic
//!   breadth-first traversal that clusters connected nodes — vertices
//!   next to the hyperedges they touch — so most messages stay
//!   chunk-local and never change workers: the engine delivers them
//!   inside the sending chunk. The traversal also splits the nodes by
//!   BFS-depth parity, which on the bipartite incidence is exactly the
//!   vertex side and the hyperedge side. Each side is cut at its own
//!   port-weight quantiles, so every chunk gets an even share of the
//!   work of the side that is active in a round.
//!
//! Both policies balance by **port weight** (`degree + 1` per node), the
//! same balance constraint the contiguous splitter always used, so a
//! locality cut never trades the cut size for a lopsided worker load. The
//! arrangement is internal to the engine: node programs still observe
//! their original ids (`Ctx::node`), results come back in original id
//! order, and the determinism contract is unchanged — the placement of a
//! node only decides *which worker* steps it, never *what it observes*.

use crate::topology::Topology;

/// How the parallel scheduler assigns nodes to worker chunks.
///
/// `Contiguous` cuts the original id order into port-balanced ranges (on
/// the bipartite incidence this separates vertices from hyperedges, so
/// almost every link crosses chunks); `Locality` assigns chunks along a
/// deterministic breadth-first traversal that clusters connected nodes,
/// so most messages stay chunk-local and never change workers, and it
/// balances each BFS-parity class (the vertex side and the hyperedge
/// side) across the chunks separately. Either way a chunk steps its nodes
/// in ascending id order. The policy affects scheduling
/// and the intra/cross-chunk message split reported by
/// [`SimReport`](crate::SimReport) — never results: both policies are
/// bit-identical to the sequential scheduler for any protocol and any
/// thread count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Cut chunks from the original node-id order.
    #[default]
    Contiguous,
    /// Assign chunks along a breadth-first traversal that keeps connected
    /// nodes in the same chunk where the per-side port balance allows.
    Locality,
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PartitionPolicy::Contiguous => "contiguous",
            PartitionPolicy::Locality => "locality",
        })
    }
}

impl std::str::FromStr for PartitionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "contiguous" => Ok(PartitionPolicy::Contiguous),
            "locality" => Ok(PartitionPolicy::Locality),
            other => Err(format!(
                "unknown partition policy '{other}' (expected 'contiguous' or 'locality')"
            )),
        }
    }
}

/// A concrete chunking of a topology: a node arrangement whose chunks are
/// contiguous position ranges, each listing its nodes in ascending id
/// order.
///
/// Positions `bounds[i]..bounds[i + 1]` form chunk `i`; `order` maps a
/// position to the original node id and `pos_of` inverts it. For the
/// identity arrangement (`Contiguous`, one chunk, or a `Locality`
/// assignment that happens to follow id order) the two tables stay empty
/// and the mapping short-circuits.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// Position → original node id; empty when the permutation is the identity.
    order: Vec<u32>,
    /// Original node id → position; empty when the permutation is the identity.
    pos_of: Vec<u32>,
    /// Permuted CSR port prefix: `slot_offsets[p]` is the arena slot where
    /// the node at position `p` starts; length `n + 1`.
    slot_offsets: Vec<usize>,
    /// Chunk boundaries in position space; length `num_chunks + 1`,
    /// `bounds[0] == 0`, `bounds[num_chunks] == n`, monotone.
    bounds: Vec<usize>,
    identity: bool,
}

impl Partition {
    /// Builds a partition of `topo` into `num_chunks` chunks under `policy`.
    pub(crate) fn new(topo: &Topology, num_chunks: usize, policy: PartitionPolicy) -> Self {
        match policy {
            PartitionPolicy::Contiguous => Self::contiguous(topo, num_chunks),
            PartitionPolicy::Locality => Self::locality(topo, num_chunks),
        }
    }

    /// The identity arrangement cut into `num_chunks` port-balanced ranges.
    pub(crate) fn contiguous(topo: &Topology, num_chunks: usize) -> Self {
        let slot_offsets = slot_prefix(topo, 0..topo.len());
        let bounds = balanced_bounds(&slot_offsets, num_chunks);
        Partition {
            order: Vec::new(),
            pos_of: Vec::new(),
            slot_offsets,
            bounds,
            identity: true,
        }
    }

    /// The locality arrangement of `topo` in `num_chunks` chunks, each
    /// listing its nodes in ascending id order.
    ///
    /// A deterministic greedy BFS — seeded from the lowest still-unplaced
    /// node id, appending unvisited neighbours in port order — decides only
    /// which chunk a node joins. It also records each node's depth parity:
    /// on the bipartite incidence the two parity classes are exactly the
    /// vertex side and the hyperedge side, and MWHVC rounds alternate
    /// between them, so each class is cut at its own port-weight quantiles
    /// along the BFS order and every chunk gets an even share of the work
    /// of both sides. On any other topology the classes still partition
    /// the nodes, so balancing both balances the total. A counting pass
    /// over ids then lays each chunk out in ascending id order, which keeps
    /// a chunk's reads of the topology and of its node programs in the
    /// order they were allocated. One chunk is the identity arrangement.
    pub(crate) fn locality(topo: &Topology, num_chunks: usize) -> Self {
        let n = topo.len();
        if num_chunks <= 1 {
            return Self::contiguous(topo, num_chunks);
        }
        // BFS order, with `side[u]` the depth parity of `u` plus one
        // (0 = not yet placed). The order vector doubles as the queue.
        let mut bfs: Vec<u32> = Vec::with_capacity(n);
        let mut side = vec![0u8; n];
        let mut head = 0;
        for seed in 0..n {
            if side[seed] != 0 {
                continue;
            }
            side[seed] = 1;
            bfs.push(seed as u32);
            while let Some(&u) = bfs.get(head) {
                head += 1;
                let (u, other) = (u as usize, 3 - side[u as usize]);
                for p in 0..topo.degree(u) {
                    let (v, _) = topo.peer(u, p);
                    if side[v] == 0 {
                        side[v] = other;
                        bfs.push(v as u32);
                    }
                }
            }
        }
        debug_assert_eq!(bfs.len(), n);

        // Each parity class's slot prefix along the BFS order, cut at its
        // own port-weight quantiles: `chunk[u]` is the chunk `u` joins.
        let odd = side.iter().filter(|&&s| s == 2).count();
        let mut class_offsets = [n - odd, odd].map(|len| {
            let mut offsets = Vec::with_capacity(len + 1);
            offsets.push(0usize);
            offsets
        });
        for &u in &bfs {
            let offsets = &mut class_offsets[side[u as usize] as usize - 1];
            offsets.push(offsets[offsets.len() - 1] + topo.degree(u as usize));
        }
        let class_bounds = class_offsets.map(|offsets| balanced_bounds(&offsets, num_chunks));
        let mut chunk = vec![0u32; n];
        let (mut seen, mut current) = ([0usize; 2], [0usize; 2]);
        for &u in &bfs {
            let class = side[u as usize] as usize - 1;
            while class_bounds[class][current[class] + 1] <= seen[class] {
                current[class] += 1;
            }
            seen[class] += 1;
            chunk[u as usize] = current[class] as u32;
        }

        // Counting pass: chunk sizes give the bounds, then ids in ascending
        // order take their chunk's next position. `bfs` becomes the
        // position → id table and `chunk` the id → position table.
        let mut bounds = vec![0usize; num_chunks + 1];
        for &c in &chunk {
            bounds[c as usize + 1] += 1;
        }
        for i in 0..num_chunks {
            bounds[i + 1] += bounds[i];
        }
        let mut next = bounds.clone();
        let (mut order, mut pos_of) = (bfs, chunk);
        for (id, slot) in pos_of.iter_mut().enumerate() {
            let pos = &mut next[*slot as usize];
            order[*pos] = id as u32;
            *slot = *pos as u32;
            *pos += 1;
        }
        let slot_offsets = slot_prefix(topo, order.iter().map(|&u| u as usize));
        let identity = order.iter().enumerate().all(|(p, &u)| p == u as usize);
        if identity {
            (order, pos_of) = (Vec::new(), Vec::new());
        }
        Partition {
            order,
            pos_of,
            slot_offsets,
            bounds,
            identity,
        }
    }

    /// Number of nodes partitioned.
    pub(crate) fn len(&self) -> usize {
        self.slot_offsets.len() - 1
    }

    /// Number of chunks.
    #[cfg(test)]
    pub(crate) fn num_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Chunk boundaries in position space.
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Original node id at arrangement position `pos`.
    pub(crate) fn node_at(&self, pos: usize) -> usize {
        if self.identity {
            pos
        } else {
            self.order[pos] as usize
        }
    }

    /// Chunk that hosts original node `id`.
    pub(crate) fn chunk_of(&self, id: usize) -> usize {
        let pos = self.position(id);
        self.bounds[1..].partition_point(|&b| b <= pos)
    }

    /// Arrangement position of original node `id`.
    pub(crate) fn position(&self, id: usize) -> usize {
        if self.identity {
            id
        } else {
            self.pos_of[id] as usize
        }
    }

    /// First arena slot of the node at position `pos` (permuted CSR prefix).
    pub(crate) fn slot_offset(&self, pos: usize) -> usize {
        self.slot_offsets[pos]
    }

    /// Whether the arrangement is the identity permutation.
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// Counts the links whose endpoints land in different chunks —
    /// the quantity the locality arrangement minimizes. Each undirected
    /// link is counted once.
    #[cfg(test)]
    pub(crate) fn cut_links(&self, topo: &Topology) -> usize {
        let mut cut = 0;
        for u in 0..topo.len() {
            for (_, v) in topo.neighbors(u) {
                if u < v && self.chunk_of(u) != self.chunk_of(v) {
                    cut += 1;
                }
            }
        }
        cut
    }
}

/// The CSR port prefix of `topo` laid out in `order`: entry `p` is the
/// first arena slot of the `p`-th node of `order`; length `n + 1`.
fn slot_prefix(topo: &Topology, order: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(topo.len() + 1);
    let mut total = 0;
    offsets.push(total);
    for u in order {
        total += topo.degree(u);
        offsets.push(total);
    }
    offsets
}

/// Cuts `num_chunks` contiguous position ranges balanced by port weight
/// (`degree + 1` per node, so isolated nodes still carry weight).
///
/// `slot_offsets` is a CSR port prefix along some node sequence (length
/// `n + 1`); the weight prefix at position `p` is therefore
/// `slot_offsets[p] + p`. Bound `i` is the first position whose weight
/// prefix reaches `i / num_chunks` of the total, so every range's weight
/// is within one node's weight of an even share.
fn balanced_bounds(slot_offsets: &[usize], num_chunks: usize) -> Vec<usize> {
    let n = slot_offsets.len() - 1;
    let weight_total = slot_offsets[n] + n;
    let mut bounds = Vec::with_capacity(num_chunks + 1);
    bounds.push(0);
    let mut p = 0;
    for i in 1..num_chunks {
        let target = weight_total * i / num_chunks;
        while slot_offsets[p] + p < target {
            p += 1;
        }
        bounds.push(p);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn contiguous_is_identity_with_monotone_covering_bounds() {
        let topo = builders::star(9);
        for chunks in 1..=6 {
            let part = Partition::contiguous(&topo, chunks);
            assert!(part.is_identity());
            assert_eq!(part.num_chunks(), chunks);
            let bounds = part.bounds();
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[chunks], topo.len());
            for w in bounds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for id in 0..topo.len() {
                assert_eq!(part.node_at(id), id);
                assert_eq!(part.position(id), id);
            }
            assert_eq!(part.slot_offset(topo.len()), topo.total_ports());
        }
    }

    #[test]
    fn locality_order_is_a_permutation_with_consistent_tables() {
        let topo = builders::grid(5, 7);
        for chunks in 1..=5 {
            let part = Partition::locality(&topo, chunks);
            let n = topo.len();
            assert_eq!(part.len(), n);
            let mut seen = vec![false; n];
            for pos in 0..n {
                let id = part.node_at(pos);
                assert!(!seen[id], "node {id} placed twice");
                seen[id] = true;
                assert_eq!(part.position(id), pos);
            }
            assert!(seen.into_iter().all(|s| s));
            // The permuted slot prefix must sum degrees in order.
            assert_eq!(part.slot_offset(0), 0);
            for pos in 0..n {
                assert_eq!(
                    part.slot_offset(pos + 1) - part.slot_offset(pos),
                    topo.degree(part.node_at(pos))
                );
            }
            assert_eq!(part.slot_offset(n), topo.total_ports());
        }
    }

    #[test]
    fn locality_cuts_no_more_links_than_contiguous_on_bipartite_incidence() {
        // A path hypergraph's bipartite incidence is a path graph:
        // vertices 0..n then edges n..n+m in id order, so the contiguous
        // split at 2+ chunks severs many vertex→edge links while the BFS
        // arrangement (which re-linearizes the path) severs one per cut.
        let g = dcover_hypergraph::generators::path(24);
        let topo = Topology::bipartite_incidence(&g);
        for chunks in [2, 4, 8] {
            let cont = Partition::contiguous(&topo, chunks).cut_links(&topo);
            let loc = Partition::locality(&topo, chunks).cut_links(&topo);
            assert!(
                loc <= cont,
                "locality cut {loc} worse than contiguous {cont} at {chunks} chunks"
            );
            assert!(
                loc < cont,
                "expected a strictly smaller cut on the path incidence ({loc} vs {cont})"
            );
        }
    }

    /// BFS-depth parity per node (seeded from the lowest unplaced id, like
    /// the locality traversal), computed independently of `Partition`.
    fn bfs_parity(topo: &Topology) -> Vec<bool> {
        let n = topo.len();
        let mut parity: Vec<Option<bool>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for seed in 0..n {
            if parity[seed].is_some() {
                continue;
            }
            parity[seed] = Some(false);
            queue.push_back(seed);
            while let Some(u) = queue.pop_front() {
                let odd = parity[u] == Some(true);
                for (_, v) in topo.neighbors(u) {
                    if parity[v].is_none() {
                        parity[v] = Some(!odd);
                        queue.push_back(v);
                    }
                }
            }
        }
        parity.into_iter().map(|p| p == Some(true)).collect()
    }

    /// The incidence network of a small skewed (preferential) hypergraph,
    /// and the topologies with odd cycles that are not bipartite at all.
    fn balance_topologies() -> Vec<(&'static str, Topology)> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = dcover_hypergraph::generators::preferential_attachment(
            300,
            500,
            3,
            &dcover_hypergraph::generators::WeightDist::Uniform { min: 1, max: 9 },
            &mut rng,
        );
        vec![
            ("skewed incidence", Topology::bipartite_incidence(&g)),
            ("odd ring", builders::ring(101)),
            ("complete", builders::complete(9)),
        ]
    }

    #[test]
    fn bipartite_incidence_parity_classes_are_the_two_sides() {
        let (_, topo) = &balance_topologies()[0];
        let parity = bfs_parity(topo);
        let vertices = topo.len() - 500;
        for (id, &odd) in parity.iter().enumerate() {
            assert_eq!(odd, id >= vertices, "node {id}");
        }
    }

    #[test]
    fn locality_chunks_list_ascending_ids() {
        let mut topologies = balance_topologies();
        topologies.push(("grid", builders::grid(5, 7)));
        for (name, topo) in &topologies {
            for chunks in 1..=5 {
                let part = Partition::locality(topo, chunks);
                for w in part.bounds().windows(2) {
                    for pos in w[0] + 1..w[1] {
                        assert!(
                            part.node_at(pos - 1) < part.node_at(pos),
                            "{name}, {chunks} chunks: position {pos} out of id order"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn locality_balances_each_parity_class_across_chunks() {
        for (name, topo) in balance_topologies() {
            let parity = bfs_parity(&topo);
            let max_weight = topo.max_degree() + 1;
            for chunks in 2..=5 {
                let part = Partition::locality(&topo, chunks);
                for class in [false, true] {
                    let mut shares = vec![0usize; chunks];
                    for id in (0..topo.len()).filter(|&id| parity[id] == class) {
                        shares[part.chunk_of(id)] += topo.degree(id) + 1;
                    }
                    let total: usize = shares.iter().sum();
                    for (c, &share) in shares.iter().enumerate() {
                        // |share - total / chunks| <= max_weight, scaled.
                        assert!(
                            (share * chunks).abs_diff(total) <= max_weight * chunks,
                            "{name}, {chunks} chunks, class {class}: chunk {c} \
                             carries {share} of {total}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_chunk_locality_partition_is_the_identity() {
        for (name, topo) in balance_topologies() {
            let part = Partition::locality(&topo, 1);
            assert!(part.is_identity(), "{name}");
            assert_eq!(part.bounds(), &[0, topo.len()]);
            for id in 0..topo.len() {
                assert_eq!(part.node_at(id), id);
                assert_eq!(part.chunk_of(id), 0);
            }
        }
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Locality] {
            let s = policy.to_string();
            assert_eq!(s.parse::<PartitionPolicy>().unwrap(), policy);
        }
        assert!("metis".parse::<PartitionPolicy>().is_err());
        assert_eq!(PartitionPolicy::default(), PartitionPolicy::Contiguous);
    }

    #[test]
    fn disconnected_components_are_all_placed() {
        // Two disjoint links plus an isolated node.
        let topo = Topology::from_links(5, &[(0, 3), (1, 4)]);
        let part = Partition::locality(&topo, 2);
        let n = topo.len();
        let mut seen = vec![false; n];
        for pos in 0..n {
            seen[part.node_at(pos)] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        assert_eq!(part.bounds()[0], 0);
        assert_eq!(part.bounds()[2], n);
    }
}
