//! Scheduler equivalence and the CONGEST checks on mailboxes of several
//! delivery blocks per chunk.
//!
//! A chunk whose mailbox exceeds one block of
//! [`MAILBOX_BLOCK_SLOTS`] stages every send into a bucket per
//! destination (chunk, block) pair, including mail that stays inside the
//! chunk. The instance below gives every chunk at least three blocks at
//! up to three threads, so these tests run that staged path end to end:
//! results must match the sequential scheduler bit for bit, and duplicate
//! sends, mail to halted receivers and arena reuse must behave exactly as
//! on one-block mailboxes.

use dcover_congest::{
    Ctx, EngineArena, ParallelSimulator, PartitionPolicy, Process, SimError, SimPool, SimReport,
    Simulator, Status, Topology, MAILBOX_BLOCK_SLOTS,
};

const MAX_THREADS: usize = 3;
const POLICIES: [PartitionPolicy; 2] = [PartitionPolicy::Contiguous, PartitionPolicy::Locality];

/// A ring of `n` nodes (`n` a multiple of 4) plus a chord from every even
/// node half-way (plus one) around the ring. Every node's neighbours
/// have the opposite parity, and chords carry mail between distant
/// blocks. The mailbox has `3n` slots.
fn ring_with_chords(n: usize) -> Topology {
    assert_eq!(n % 4, 0);
    let stride = n / 2 + 1;
    let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    links.extend((0..n).step_by(2).map(|i| (i, (i + stride) % n)));
    Topology::from_links(n, &links)
}

/// An instance whose mailbox gives each of [`MAX_THREADS`] port-balanced
/// chunks at least three delivery blocks.
fn multi_block_topology() -> Topology {
    // `3n` slots: three blocks for each chunk, plus slack for the balance.
    let n = (MAX_THREADS * MAILBOX_BLOCK_SLOTS + 1024).next_multiple_of(4);
    let topo = ring_with_chords(n);
    assert!(topo.total_ports() / MAX_THREADS > 2 * MAILBOX_BLOCK_SLOTS);
    topo
}

/// A small instance: one block per chunk, direct writes.
fn one_block_topology() -> Topology {
    ring_with_chords(4_000)
}

/// A deterministic stateful protocol with data-dependent fan-out.
#[derive(Clone, Debug, PartialEq)]
struct Churn {
    state: u64,
    ttl: u32,
}

impl Process for Churn {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for item in ctx.inbox() {
            self.state = self
                .state
                .rotate_left(7)
                .wrapping_add(item.msg)
                .wrapping_mul(0x9E37_79B9)
                ^ item.port as u64;
        }
        if self.ttl == 0 {
            return Status::Halted;
        }
        self.ttl -= 1;
        if self.state.is_multiple_of(3) {
            ctx.broadcast(self.state % 8191);
        } else {
            ctx.send((self.state as usize) % ctx.degree(), self.state % 127);
        }
        Status::Running
    }
}

fn churn_nodes(n: usize) -> Vec<Churn> {
    (0..n)
        .map(|i| Churn {
            state: (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            ttl: 4 + (i % 3) as u32,
        })
        .collect()
}

fn run_seq(topo: &Topology) -> (SimReport, Vec<Churn>) {
    let mut sim = Simulator::new(topo.clone(), churn_nodes(topo.len())).with_trace(true);
    let report = sim.run(64).expect("terminates");
    let (nodes, _) = sim.into_parts();
    (report, nodes)
}

#[test]
fn schedulers_agree_on_multi_block_mailboxes() {
    let topo = multi_block_topology();
    let (seq_report, seq_nodes) = run_seq(&topo);
    assert!(seq_report.all_halted);
    assert!(seq_report.total_messages > topo.len() as u64);
    for threads in 1..=MAX_THREADS {
        for policy in POLICIES {
            let mut sim = ParallelSimulator::with_partition(
                topo.clone(),
                churn_nodes(topo.len()),
                threads,
                policy,
            )
            .with_trace(true);
            let report = sim.run(64).expect("terminates");
            let (nodes, _) = sim.into_parts();
            assert_eq!(report, seq_report, "{threads} threads, {policy:?}");
            assert!(
                nodes == seq_nodes,
                "{threads} threads, {policy:?}: node states"
            );
            // Mail inside a chunk is never counted as crossing chunks.
            if threads == 1 {
                assert_eq!(report.cross_chunk_messages, 0);
            }
        }
    }
}

/// Sends once on port 0 every round; node `culprit` sends twice in round 1.
#[derive(Clone)]
struct DoubleOnce {
    culprit: bool,
}

impl Process for DoubleOnce {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        ctx.send(0, ctx.round());
        if self.culprit && ctx.round() == 1 {
            ctx.send(0, 99);
        }
        Status::Running
    }
}

fn double_once_nodes(n: usize, culprit: usize) -> Vec<DoubleOnce> {
    (0..n)
        .map(|i| DoubleOnce {
            culprit: i == culprit,
        })
        .collect()
}

#[test]
fn duplicate_send_on_the_blocked_path_is_a_typed_error() {
    let topo = multi_block_topology();
    let n = topo.len();
    // Mid-instance, so the collision lands in an inner block of a chunk.
    let culprit = n / 2 + 6;
    let (receiver, port) = topo.peer(culprit, 0);
    let expected = SimError::DuplicateSend {
        round: 1,
        receiver,
        port,
    };

    // Sequential: detected in the step that sent it.
    let mut seq = Simulator::new(topo.clone(), double_once_nodes(n, culprit));
    seq.step().expect("round 0 is clean");
    assert_eq!(seq.step().unwrap_err(), expected);

    for threads in 2..=MAX_THREADS {
        for policy in POLICIES {
            // Delivered by the next dispatch.
            let mut par = ParallelSimulator::with_partition(
                topo.clone(),
                double_once_nodes(n, culprit),
                threads,
                policy,
            );
            assert_eq!(par.run(10).unwrap_err(), expected, "{threads}, {policy:?}");
            // Sent in the last round before the limit: the undelivered
            // block buckets are scanned instead.
            let mut par = ParallelSimulator::with_partition(
                topo.clone(),
                double_once_nodes(n, culprit),
                threads,
                policy,
            );
            assert_eq!(par.run(2).unwrap_err(), expected, "{threads}, {policy:?}");
        }
    }
}

/// Even nodes halt at once, silently; odd nodes — whose neighbours are all
/// even — send every port twice for three rounds, then halt.
#[derive(Clone)]
struct TalkToHalted {
    odd: bool,
}

impl Process for TalkToHalted {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        assert!(ctx.inbox().is_empty(), "mail reached a running node");
        if !self.odd || ctx.round() == 3 {
            return Status::Halted;
        }
        for port in 0..ctx.degree() {
            ctx.send(port, 1);
            ctx.send(port, 2);
        }
        Status::Running
    }
}

#[test]
fn mail_to_halted_receivers_is_charged_then_dropped_on_the_blocked_path() {
    let topo = multi_block_topology();
    let n = topo.len();
    let nodes = || (0..n).map(|i| TalkToHalted { odd: i % 2 == 1 }).collect();
    let odd_ports: usize = (1..n).step_by(2).map(|v| topo.degree(v)).sum();

    let mut seq = Simulator::new(topo.clone(), nodes());
    let seq_report = seq.run(10).expect("duplicates to halted nodes are dropped");
    assert!(seq_report.all_halted);
    assert_eq!(seq_report.total_messages, (3 * 2 * odd_ports) as u64);
    for threads in 2..=MAX_THREADS {
        for policy in POLICIES {
            let mut par = ParallelSimulator::with_partition(topo.clone(), nodes(), threads, policy);
            assert_eq!(par.run(10).unwrap(), seq_report, "{threads}, {policy:?}");
        }
    }
}

#[test]
fn engine_arenas_are_reused_across_block_layouts() {
    let layouts = [
        multi_block_topology(),
        one_block_topology(),
        multi_block_topology(),
    ];
    let mut arena = EngineArena::new();
    let mut pool = SimPool::new(2);
    for (i, topo) in layouts.iter().enumerate() {
        let (fresh_report, fresh_nodes) = run_seq(topo);

        let mut sim =
            Simulator::with_arena(topo.clone(), churn_nodes(topo.len()), arena).with_trace(true);
        let report = sim.run(64).expect("terminates");
        let (nodes, _, back) = sim.into_arena();
        arena = back;
        assert_eq!(report, fresh_report, "layout {i}, sequential arena");
        assert!(nodes == fresh_nodes, "layout {i}, sequential arena");

        let mut par = ParallelSimulator::with_pool_partition(
            topo.clone(),
            churn_nodes(topo.len()),
            pool,
            PartitionPolicy::Locality,
        )
        .with_trace(true);
        let report = par.run(64).expect("terminates");
        let (nodes, _, back) = par.into_pool();
        pool = back;
        assert_eq!(report, fresh_report, "layout {i}, pooled arenas");
        assert!(nodes == fresh_nodes, "layout {i}, pooled arenas");
    }
}
