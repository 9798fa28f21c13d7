//! The zero-allocation round engine shared by both schedulers.
//!
//! # Mailbox arena
//!
//! Mail lives in a **flat port-indexed slot arena**: one `Option<M>` slot
//! per directed link endpoint `(node, port)`, laid out in the topology's CSR
//! order ([`Topology::slot_of`]). Because CONGEST permits exactly one
//! message per directed link per round, a slot holds at most one message;
//! delivery is a single indexed write, a node's inbox is the contiguous
//! slot range of its ports, and port order is structural — no inbox is
//! ever sorted.
//!
//! The arena is **double-buffered** (`cur` is read this round, `nxt` is
//! written for the next) and buffers swap at the end of each round. A
//! node's inbox slots are cleared right after the node is stepped, while
//! they are still in cache, so no slot is visited twice and no list of
//! written slots is kept; an **active worklist** per chunk makes halted
//! nodes cost literally zero.
//!
//! # Delivery blocks
//!
//! A chunk's mailbox is cut into **blocks** of [`MAILBOX_BLOCK_SLOTS`]
//! consecutive slots, and every send is staged into one bucket per
//! destination (chunk, block) pair. Delivery drains the buckets block by
//! block, so its writes land in a window of a few MiB that the TLB and
//! the caches already cover, instead of anywhere in a mailbox of tens of
//! MiB: on a 700k-node network a random scatter of sends costs most of a
//! round. A chunk whose whole mailbox fits in one block gains nothing
//! from staging, so mail that stays inside such a chunk is written
//! straight into its `nxt` buffer (**direct write**).
//!
//! The block size, 2^17 slots (3 MiB of MWHVC's 24-byte slots), is a
//! constant: it must be small enough for a block's slots and receiver
//! tables to stay cache- and TLB-resident during a drain, and large
//! enough that the small instances of a serving workload (up to ~45k
//! slots) fit in one block and keep the direct write — staging their
//! mail in 2^15-slot blocks was measured 10–15% slower on a 2-vCPU x86
//! VM. Sizes from 2^14 to 2^19 performed alike there on a 700k-node
//! solve.
//!
//! # Chunks and the two phases
//!
//! Nodes are partitioned into chunks (one per worker; the sequential
//! scheduler is the 1-chunk special case): a contiguous range of
//! *positions* in the arrangement chosen by a
//! [`Partition`](crate::partition::Partition) — port-balanced id ranges
//! under `PartitionPolicy::Contiguous`; under `PartitionPolicy::Locality`,
//! chunks assigned along a breadth-first traversal with the vertex and
//! hyperedge sides balanced separately. Either way a chunk lists its
//! nodes in ascending id order. The chunk remembers the
//! original id of every node it hosts (`global_ids`), so node programs
//! observe their true ids regardless of placement. Each round runs two
//! phases:
//!
//! 1. [`phase_step`] — every chunk steps its active nodes in ascending
//!    position (= ascending id) order. Each send either takes the direct write or is
//!    staged as a `(destination slot, payload)` pair into the bucket of
//!    its destination (chunk, block); the routing tables built by
//!    [`ChunkState::rebuild`] decide which, per port. All sends are
//!    accounted on the send side ([`SendTally`](crate::process::SendTally),
//!    which also counts the mail that crosses chunks).
//! 2. [`phase_deliver`] — every chunk drains the buckets addressed to it,
//!    block by block, into its `nxt` buffer, dropping mail addressed to
//!    halted nodes (already charged at send time — mail to halted nodes
//!    is counted exactly once, by the sender), then swaps its buffers.
//!
//! A direct write to a receiver that halts (or already halted) is
//! equivalent to the dropped bucket delivery: the slot belongs to a node
//! that is never stepped again, so the message is never read. A direct
//! write to an *occupied* slot is a duplicate same-port send (or such
//! stale mail); it falls back to the chunk's own bucket so
//! [`phase_deliver`] applies the canonical halted-before-duplicate check
//! and reports the identical typed error in the identical round.
//!
//! Writes are chunk-local in both phases, so the parallel scheduler needs
//! no locks and no `unsafe`: chunk state simply moves to a worker and back.
//!
//! # Determinism contract
//!
//! All per-round metrics are sums and maxima over sends, merged in
//! ascending chunk order (under the contiguous policy that is ascending
//! node id, the sequential step order), so the merge order cannot change
//! them.
//! Node programs observe identical inboxes in both schedulers because slot
//! layout is structural. Therefore `Simulator` and `ParallelSimulator`
//! produce **bit-identical** node states, [`RoundMetrics`], and
//! [`SimReport`](crate::SimReport)s for any thread count — verified by
//! property tests.
//!
//! # Steady-state allocation
//!
//! After warm-up (bucket capacity growth in early rounds), a round
//! performs **zero heap allocations**: staging reuses bucket capacity and
//! chunk state is moved, never reallocated. A chunk's staging buckets
//! live in it, so an [`EngineArena`] carries their capacity across solves
//! too.
//! `tests/zero_alloc.rs` enforces this with a counting global allocator,
//! on single-block and multi-block mailboxes.

use std::ops::Range;

use crate::error::SimError;
use crate::metrics::{BitBudget, RoundMetrics};
use crate::partition::Partition;
use crate::process::{Ctx, Process, SendTally, StagedSends, Status, DIRECT_WRITE};
use crate::topology::Topology;

/// log2 of [`MAILBOX_BLOCK_SLOTS`].
const BLOCK_SHIFT: u32 = 17;

/// Mailbox slots per delivery block (see the module docs for the choice).
pub const MAILBOX_BLOCK_SLOTS: usize = 1 << BLOCK_SHIFT;

/// Delivery blocks of a chunk mailbox of `num_slots` slots (at least one).
fn blocks_of(num_slots: usize) -> usize {
    num_slots.div_ceil(MAILBOX_BLOCK_SLOTS).max(1)
}

/// Everything one worker needs to run its share of a round: the node
/// programs of a contiguous position range of the partition arrangement,
/// their mailbox slots (both buffers), the active worklist, staging
/// buckets, and the precomputed routing tables. Moves wholesale between
/// the scheduler and a worker thread.
#[derive(Debug)]
pub(crate) struct ChunkState<P: Process> {
    /// Original (global) node id per local node, ascending. Under the
    /// identity arrangement this is just `first_position + lu`; under a
    /// locality arrangement it is the set of ids the chunk hosts. Node
    /// programs and error reports use it.
    pub global_ids: Vec<u32>,
    /// Node programs, indexed by local id.
    pub nodes: Vec<P>,
    /// Halted flag per local node.
    pub halted: Vec<bool>,
    /// Local ids of nodes still running, ascending.
    pub worklist: Vec<u32>,
    /// Mailbox slots read this round (one per local port).
    pub cur: Vec<Option<P::Msg>>,
    /// Mailbox slots being written for next round.
    pub nxt: Vec<Option<P::Msg>>,
    /// Outgoing staging: one bucket per destination (chunk, block) pair,
    /// numbered chunk-major; entries are `(destination-local slot,
    /// payload)`.
    pub stage: Vec<Vec<(u32, P::Msg)>>,
    /// The buckets that address this chunk's own blocks, in block order.
    pub own_buckets: Range<usize>,
    /// Send-side accounting for the current round.
    pub tally: SendTally,
    /// Nodes of this chunk that halted in the current round.
    pub newly_halted: u32,
    /// First CONGEST violation observed at delivery (a duplicate same-port
    /// send). Recorded instead of panicking so the scheduler can surface a
    /// typed [`SimError`]; once set, the chunk stops stepping.
    pub delivery_error: Option<SimError>,
    /// Per local node: first local slot (CSR offsets rebased to the chunk;
    /// length `nodes.len() + 1`).
    local_offsets: Vec<u32>,
    /// Per local slot: owning local node (for the halted-receiver check).
    slot_node: Vec<u32>,
    /// Per local slot, viewed as a *sender* port: destination bucket, or
    /// [`DIRECT_WRITE`].
    dest_bucket: Vec<u32>,
    /// Per local slot, viewed as a *sender* port: destination-local slot.
    dest_local: Vec<u32>,
}

impl<P: Process> ChunkState<P> {
    /// A chunk with no nodes, no slots, and no routing tables — the state an
    /// [`EngineArena`] holds between solves. Every buffer is empty but, for
    /// a recycled chunk, retains its capacity.
    pub(crate) fn empty() -> Self {
        Self {
            global_ids: Vec::new(),
            nodes: Vec::new(),
            halted: Vec::new(),
            worklist: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
            stage: Vec::new(),
            own_buckets: 0..0,
            tally: SendTally::default(),
            newly_halted: 0,
            delivery_error: None,
            local_offsets: Vec::new(),
            slot_node: Vec::new(),
            dest_bucket: Vec::new(),
            dest_local: Vec::new(),
        }
    }

    /// Builds the chunk at `index` of `part`. (Production paths go through
    /// [`ChunkState::rebuild`] on a recycled chunk; building from scratch
    /// remains as the test oracle.)
    #[cfg(test)]
    pub(crate) fn build(topo: &Topology, part: &Partition, index: usize) -> Self {
        let mut chunk = Self::empty();
        chunk.rebuild(topo, part, index);
        chunk
    }

    /// Re-derives every per-topology table for a (possibly different)
    /// topology and partition **in place**, reusing the capacity of every
    /// buffer — mailbox slots, worklist, staging buckets and routing tables
    /// all keep their allocations across solves. `nodes` is cleared; the
    /// caller refills it *in position order*. The result is logically
    /// identical to [`ChunkState::build`] for the same arguments.
    pub(crate) fn rebuild(&mut self, topo: &Topology, part: &Partition, index: usize) {
        let bounds = part.bounds();
        let (start, end) = (bounds[index], bounds[index + 1]);
        let slot_bases: Vec<usize> = bounds.iter().map(|&b| part.slot_offset(b)).collect();
        // First bucket of every chunk (one bucket per block, chunk-major),
        // plus the total bucket count at the end.
        let mut bucket_bases = vec![0];
        let mut total = 0;
        for (lo, hi) in slot_bases.iter().zip(slot_bases.iter().skip(1)) {
            total += blocks_of(hi - lo);
            bucket_bases.push(total);
        }
        let slot_base = slot_bases[index];
        let num_slots = slot_bases[index + 1] - slot_base;
        self.own_buckets = bucket_bases[index]..bucket_bases[index + 1];
        // Mail that stays in a one-block chunk needs no staging.
        let direct = self.own_buckets.len() == 1;

        self.global_ids.clear();
        self.global_ids
            .extend((start..end).map(|pos| part.node_at(pos) as u32));
        self.nodes.clear();
        self.halted.clear();
        self.halted.resize(end - start, false);
        self.worklist.clear();
        self.worklist.extend(0..(end - start) as u32);
        self.cur.clear();
        self.cur.resize_with(num_slots, || None);
        self.nxt.clear();
        self.nxt.resize_with(num_slots, || None);
        // Keep existing bucket capacity; only adjust the bucket count.
        for bucket in &mut self.stage {
            bucket.clear();
        }
        self.stage.resize_with(total, Vec::new);
        self.tally.clear();
        self.newly_halted = 0;
        self.delivery_error = None;

        self.local_offsets.clear();
        self.slot_node.clear();
        self.dest_bucket.clear();
        self.dest_local.clear();
        self.local_offsets.push(0);
        for (lu, pos) in (start..end).enumerate() {
            let u = part.node_at(pos);
            for p in 0..topo.degree(u) {
                self.slot_node.push(lu as u32);
                // The peer's receiving slot, in the *arrangement's* arena
                // layout: its chunk and block pick the bucket.
                let (v, q) = topo.peer(u, p);
                let recip = part.slot_offset(part.position(v)) + q;
                let c = slot_bases[1..].partition_point(|&b| b <= recip);
                let local = recip - slot_bases[c];
                self.dest_bucket.push(if direct && c == index {
                    DIRECT_WRITE
                } else {
                    (bucket_bases[c] + (local >> BLOCK_SHIFT)) as u32
                });
                self.dest_local.push(local as u32);
            }
            self.local_offsets.push(self.slot_node.len() as u32);
        }
    }

    /// Number of nodes in this chunk.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.halted.len()
    }

    /// Scans destination-local slot indices of *undelivered* staged mail
    /// addressed to this chunk for a duplicate — exactly the check
    /// [`phase_deliver`] would perform, including skipping halted
    /// receivers. Used by the parallel scheduler on terminal paths (round
    /// limit, all-halted) where the deferred delivery will never run, so a
    /// final-round duplicate send still surfaces as
    /// [`SimError::DuplicateSend`] instead of being masked.
    pub(crate) fn scan_undelivered_duplicate(
        &self,
        staged_slots: impl Iterator<Item = u32>,
        sent_round: u64,
    ) -> Option<SimError> {
        // Direct writes from `sent_round` already sit in `nxt` (the
        // deferred delivery that would have swapped them away never ran).
        // Seed them so a staged duplicate colliding with a direct write is
        // still caught. Stale mail of halted receivers seeds too, harmlessly:
        // staged mail to halted receivers is skipped before `seen` is read.
        let mut seen: Vec<bool> = self.nxt.iter().map(Option::is_some).collect();
        for lslot in staged_slots {
            let ls = lslot as usize;
            let receiver = self.slot_node[ls] as usize;
            if self.halted[receiver] {
                continue;
            }
            if seen[ls] {
                return Some(SimError::DuplicateSend {
                    round: sent_round,
                    receiver: self.global_ids[receiver] as usize,
                    port: ls - self.local_offsets[receiver] as usize,
                });
            }
            seen[ls] = true;
        }
        None
    }
}

/// A reusable bundle of round-engine buffers: the mailbox slot arena (both
/// buffers), active worklist, staging buckets, and routing tables of one
/// engine chunk.
///
/// Build one with [`EngineArena::new`], hand it to
/// [`Simulator::with_arena`](crate::Simulator::with_arena), and recover it
/// with [`Simulator::into_arena`](crate::Simulator::into_arena): every
/// buffer keeps its capacity across solves, so a stream of solves on
/// same-sized instances performs no steady-state arena allocations. A
/// [`SimPool`](crate::SimPool) keeps one arena parked per worker for
/// batch serving.
#[derive(Debug)]
pub struct EngineArena<P: Process> {
    pub(crate) chunk: Box<ChunkState<P>>,
}

impl<P: Process> EngineArena<P> {
    /// An empty arena (no capacity yet; it grows on first use).
    #[must_use]
    pub fn new() -> Self {
        Self {
            chunk: Box::new(ChunkState::empty()),
        }
    }
}

impl<P: Process> Default for EngineArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Phase 1 of a round: step every active node of `chunk`, writing or
/// staging its sends, and clearing its inbox slots right after it ran.
/// Mutates only chunk-local state.
pub(crate) fn phase_step<P: Process>(
    chunk: &mut ChunkState<P>,
    round: u64,
    budget: Option<BitBudget>,
) {
    let ChunkState {
        global_ids,
        nodes,
        halted,
        worklist,
        cur,
        nxt,
        stage,
        own_buckets,
        tally,
        newly_halted,
        delivery_error,
        local_offsets,
        dest_bucket,
        dest_local,
        ..
    } = chunk;
    tally.clear();
    *newly_halted = 0;
    if delivery_error.is_some() {
        // The previous delivery observed a protocol violation; the run is
        // aborting, so don't step node programs against the corrupt inbox.
        return;
    }
    let own = own_buckets.start as u32..own_buckets.end as u32;
    for &lu_raw in worklist.iter() {
        let lu = lu_raw as usize;
        let ports = local_offsets[lu] as usize..local_offsets[lu + 1] as usize;
        let inbox = &mut cur[ports.clone()];
        let mut ctx = Ctx::staged(
            round,
            global_ids[lu] as usize,
            inbox,
            StagedSends {
                buckets: stage.as_mut_slice(),
                dest_bucket: &dest_bucket[ports.clone()],
                dest_local: &dest_local[ports],
                nxt: nxt.as_mut_slice(),
                own_buckets: own.clone(),
                tally: &mut *tally,
                budget,
            },
        );
        let status = nodes[lu].on_round(&mut ctx);
        // The inbox is consumed; clear it while it is still in cache.
        inbox.fill(None);
        if status == Status::Halted {
            halted[lu] = true;
            *newly_halted += 1;
        }
    }
    if *newly_halted > 0 {
        worklist.retain(|&lu| !halted[lu as usize]);
    }
}

/// Phase 2 of a round: deliver the buckets addressed to `chunk` into its
/// `nxt` buffer, dropping mail to halted receivers, then swap the buffers.
/// Each bucket holds the mail of one destination block, so its drain
/// writes within that block only. Buckets are drained but keep their
/// capacity; the caller returns them to their owners.
///
/// Two messages landing on the same slot in one round violate CONGEST (one
/// message per directed link per round). The first message wins, the
/// duplicate is dropped, and the violation is recorded in
/// `chunk.delivery_error` as [`SimError::DuplicateSend`] for the scheduler
/// to surface — a bad node program must yield a typed error, not a crash.
/// `sent_round` is the round in which the offending messages were sent.
pub(crate) fn phase_deliver<P: Process>(
    chunk: &mut ChunkState<P>,
    inbound: &mut [Vec<(u32, P::Msg)>],
    sent_round: u64,
) {
    for bucket in inbound.iter_mut() {
        for (lslot, msg) in bucket.drain(..) {
            let ls = lslot as usize;
            let receiver = chunk.slot_node[ls] as usize;
            if chunk.halted[receiver] {
                // Already charged by the sender; the program is gone.
                continue;
            }
            let slot = &mut chunk.nxt[ls];
            if slot.is_some() {
                if chunk.delivery_error.is_none() {
                    chunk.delivery_error = Some(SimError::DuplicateSend {
                        round: sent_round,
                        receiver: chunk.global_ids[receiver] as usize,
                        port: ls - chunk.local_offsets[receiver] as usize,
                    });
                }
                continue;
            }
            *slot = Some(msg);
        }
    }
    std::mem::swap(&mut chunk.cur, &mut chunk.nxt);
}

/// Folds per-chunk tallies (in ascending chunk order) into the round's
/// metrics, or a budget error. Shared by both schedulers so their reports
/// are identical by construction.
pub(crate) fn finish_round(
    topo: &Topology,
    merged: &SendTally,
    round: u64,
    active_at_start: usize,
    budget: Option<BitBudget>,
) -> Result<RoundMetrics, SimError> {
    if let (Some((sender, port, bits)), Some(b)) = (merged.violation, budget) {
        let (receiver, rport) = topo.peer(sender, port);
        return Err(SimError::BudgetExceeded {
            round,
            receiver,
            port: rport,
            bits,
            budget: b.bits(),
        });
    }
    Ok(RoundMetrics {
        round,
        messages: merged.messages,
        bits: merged.bits,
        max_link_bits: merged.max_link_bits,
        active_nodes: active_at_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionPolicy;

    #[test]
    fn chunks_partition_slots() {
        let topo = crate::builders::grid(5, 7);
        for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Locality] {
            let part = Partition::new(&topo, 4, policy);
            let mut total_nodes = 0;
            let mut total_slots = 0;
            for i in 0..4 {
                let c: ChunkState<DummyProc> = ChunkState::build(&topo, &part, i);
                total_nodes += c.len();
                total_slots += c.cur.len();
                assert_eq!(c.cur.len(), c.slot_node.len());
                assert_eq!(*c.local_offsets.last().unwrap() as usize, c.cur.len());
            }
            assert_eq!(total_nodes, topo.len());
            assert_eq!(total_slots, topo.total_ports());
        }
    }

    /// Decodes a routing entry of `chunks[ci]` back to a global arena slot.
    fn routed_slot(
        chunks: &[ChunkState<DummyProc>],
        slot_bases: &[usize],
        ci: usize,
        ls: usize,
    ) -> usize {
        let raw = chunks[ci].dest_bucket[ls];
        let dc = if raw == DIRECT_WRITE {
            ci
        } else {
            chunks
                .iter()
                .position(|c| c.own_buckets.contains(&(raw as usize)))
                .unwrap()
        };
        let dl = chunks[ci].dest_local[ls] as usize;
        if raw != DIRECT_WRITE {
            // The bucket is the destination block of the slot.
            let block = raw as usize - chunks[dc].own_buckets.start;
            assert_eq!(block, dl / MAILBOX_BLOCK_SLOTS);
        }
        slot_bases[dc] + dl
    }

    #[test]
    fn routing_tables_invert_reciprocal_slots() {
        let topo = crate::builders::complete(6);
        for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Locality] {
            let part = Partition::new(&topo, 3, policy);
            let chunks: Vec<ChunkState<DummyProc>> =
                (0..3).map(|i| ChunkState::build(&topo, &part, i)).collect();
            let bounds = part.bounds();
            let slot_bases: Vec<usize> = bounds.iter().map(|&b| part.slot_offset(b)).collect();
            for (ci, chunk) in chunks.iter().enumerate() {
                assert_eq!(chunk.own_buckets, ci..ci + 1, "one block per chunk");
                assert_eq!(chunk.stage.len(), 3);
                for ls in 0..chunk.cur.len() {
                    // Recover the owning (node, port) from the arrangement
                    // layout, then check the routing entry addresses the
                    // peer's slot in the same layout.
                    let gslot = slot_bases[ci] + ls;
                    let pos = (0..part.len())
                        .find(|&p| part.slot_offset(p) <= gslot && gslot < part.slot_offset(p + 1))
                        .unwrap();
                    let u = part.node_at(pos);
                    let p = gslot - part.slot_offset(pos);
                    let (v, q) = topo.peer(u, p);
                    let recip = part.slot_offset(part.position(v)) + q;
                    assert_eq!(routed_slot(&chunks, &slot_bases, ci, ls), recip);
                    // One-block chunks write exactly their own mail directly.
                    let target_in_chunk =
                        bounds[ci] <= part.position(v) && part.position(v) < bounds[ci + 1];
                    assert_eq!(
                        chunk.dest_bucket[ls] == DIRECT_WRITE,
                        target_in_chunk,
                        "slot ({u}, {p})"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_block_chunks_stage_by_destination_block() {
        // A ring of n nodes has 2n slots: 3 blocks in one chunk, and two
        // chunks of 2 blocks each.
        let n = MAILBOX_BLOCK_SLOTS + MAILBOX_BLOCK_SLOTS / 4;
        let links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let topo = Topology::from_links(n, &links);
        for workers in [1, 2] {
            let part = Partition::contiguous(&topo, workers);
            let chunks: Vec<ChunkState<DummyProc>> = (0..workers)
                .map(|i| ChunkState::build(&topo, &part, i))
                .collect();
            let slot_bases: Vec<usize> =
                part.bounds().iter().map(|&b| part.slot_offset(b)).collect();
            let blocks = if workers == 1 { 3 } else { 2 };
            for (ci, chunk) in chunks.iter().enumerate() {
                assert_eq!(chunk.own_buckets, ci * blocks..(ci + 1) * blocks);
                assert_eq!(chunk.stage.len(), workers * blocks);
                assert!(chunk.dest_bucket.iter().all(|&b| b != DIRECT_WRITE));
                for ls in 0..chunk.cur.len() {
                    let (u, p) = topo.slot_owner(slot_bases[ci] + ls);
                    let (v, q) = topo.peer(u, p);
                    assert_eq!(
                        routed_slot(&chunks, &slot_bases, ci, ls),
                        topo.slot_of(v, q)
                    );
                }
            }
        }
    }

    #[test]
    fn single_chunk_routes_everything_through_the_fast_path() {
        let topo = crate::builders::grid(3, 4);
        let part = Partition::contiguous(&topo, 1);
        let c: ChunkState<DummyProc> = ChunkState::build(&topo, &part, 0);
        assert!(c.dest_bucket.iter().all(|&d| d == DIRECT_WRITE));
        assert_eq!(c.own_buckets, 0..1);
        assert_eq!(c.global_ids, (0..topo.len() as u32).collect::<Vec<_>>());
    }

    /// Minimal process for table tests (never stepped).
    struct DummyProc;
    impl Process for DummyProc {
        type Msg = u64;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Status {
            Status::Halted
        }
    }
}
