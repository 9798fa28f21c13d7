//! Seeded input generation. Everything the program under test sees is the
//! text these functions produce; the generated `Hypergraph`s never reach
//! it.

use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, InstanceDelta, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Vertex weights of every generated instance (the `dcover gen` default).
pub const WEIGHTS: WeightDist = WeightDist::Uniform { min: 1, max: 100 };

pub fn uniform(n: usize, m: usize, rank: usize, rng: &mut StdRng) -> Hypergraph {
    random_uniform(
        &RandomUniform {
            n,
            m,
            rank,
            weights: WEIGHTS,
        },
        rng,
    )
}

/// A rank-`rank` instance whose members are drawn with probability
/// proportional to `degree + 1`: the distribution of
/// `generators::preferential_attachment`, sampled in O(1) per member from
/// an urn of endpoints instead of that function's O(n) scan, which takes
/// minutes at this benchmark's sizes.
pub fn preferential(n: usize, m: usize, rank: usize, rng: &mut StdRng) -> Hypergraph {
    let rank = rank.min(n);
    let mut b = HypergraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        b.add_vertex(WEIGHTS.sample(rng));
    }
    // Slot `i < n` is vertex `i`'s smoothing "+1"; each later slot is one
    // endpoint of an accepted edge.
    let mut urn: Vec<u32> = Vec::with_capacity(m * rank);
    let mut edge: Vec<VertexId> = Vec::with_capacity(rank);
    for _ in 0..m {
        edge.clear();
        while edge.len() < rank {
            let slot = rng.gen_range(0..n + urn.len());
            let v = if slot < n {
                VertexId::new(slot)
            } else {
                VertexId::from_raw(urn[slot - n])
            };
            if !edge.contains(&v) {
                edge.push(v);
            }
        }
        urn.extend(edge.iter().map(|v| v.index() as u32));
        b.add_edge(edge.iter().copied())
            .expect("generated edges are valid");
    }
    b.build().expect("generated instances are valid")
}

/// A revision of `base`: remove and insert `k` edges each and reweight
/// `k` vertices, `k` being about 1% of the instance.
pub fn revision(base: &Hypergraph, rank: usize, rng: &mut StdRng) -> InstanceDelta {
    let k = (base.m() / 100).max(1);
    let mut edges: Vec<usize> = (0..base.m()).collect();
    let (removed, _) = edges.partial_shuffle(rng, k);
    let mut remove_edges: Vec<EdgeId> = removed.iter().map(|&e| EdgeId::new(e)).collect();
    remove_edges.sort();
    let mut vertices: Vec<u32> = (0..base.n() as u32).collect();
    let add_edges = (0..k)
        .map(|_| {
            let (members, _) = vertices.partial_shuffle(rng, rank.min(base.n()));
            members.iter().map(|&v| VertexId::from_raw(v)).collect()
        })
        .collect();
    let (reweighted, _) = vertices.partial_shuffle(rng, k.min(base.n()));
    let mut set_weights: Vec<(VertexId, u64)> = reweighted
        .iter()
        .map(|&v| (VertexId::from_raw(v), WEIGHTS.sample(rng)))
        .collect();
    set_weights.sort();
    InstanceDelta {
        remove_edges,
        add_edges,
        set_weights,
    }
}
