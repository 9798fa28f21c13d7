//! The deterministic sequential round scheduler.
//!
//! Drives the shared [`engine`](crate::engine) as its single-chunk special
//! case: per round, [`phase_step`](crate::engine::phase_step) steps active
//! nodes against the flat mailbox arena and
//! [`phase_deliver`](crate::engine::phase_deliver) drains the staged
//! messages block by block and swaps the buffers. See the engine module docs for the
//! arena layout, the determinism contract, and the zero-allocation
//! guarantee.

use crate::cancel::Interrupt;
use crate::engine::{finish_round, phase_deliver, phase_step, ChunkState, EngineArena};
use crate::error::SimError;
use crate::metrics::{BitBudget, RoundMetrics, SimReport};
use crate::partition::Partition;
use crate::process::Process;
use crate::topology::{NodeId, Topology};

/// Deterministic synchronous simulator: steps every running node once per
/// round, delivers messages at the next round boundary, and records
/// communication metrics.
///
/// # Examples
///
/// A two-node protocol where each node sends one greeting and halts after
/// hearing back:
///
/// ```
/// use dcover_congest::{Ctx, Process, Simulator, Status, Topology};
///
/// struct Greeter;
/// impl Process for Greeter {
///     type Msg = u64;
///     fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
///         if ctx.round() == 0 {
///             ctx.broadcast(ctx.node() as u64);
///             Status::Running
///         } else {
///             assert_eq!(ctx.inbox().len(), 1);
///             Status::Halted
///         }
///     }
/// }
///
/// let topo = Topology::from_links(2, &[(0, 1)]);
/// let mut sim = Simulator::new(topo, vec![Greeter, Greeter]);
/// let report = sim.run(10)?;
/// assert_eq!(report.rounds, 2);
/// assert_eq!(report.total_messages, 2);
/// assert!(report.all_halted);
/// # Ok::<(), dcover_congest::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<P: Process> {
    topo: Topology,
    chunk: Box<ChunkState<P>>,
    active: usize,
    round: u64,
    report: SimReport,
    trace: bool,
    budget: Option<BitBudget>,
    interrupt: Option<Interrupt>,
}

impl<P: Process> Simulator<P> {
    /// Creates a simulator over `topo` with one program per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()`.
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<P>) -> Self {
        Self::with_arena(topo, nodes, EngineArena::new())
    }

    /// Creates a simulator that recycles `arena`'s buffers — mailbox
    /// slots, worklist, staging buckets and routing tables all keep the
    /// capacity they grew in previous solves. Results are
    /// bit-identical to [`Simulator::new`]; recover the arena afterwards
    /// with [`into_arena`](Self::into_arena).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()`.
    #[must_use]
    pub fn with_arena(topo: Topology, nodes: Vec<P>, arena: EngineArena<P>) -> Self {
        // invariant: documented construction-time precondition (see
        // `# Panics`) tying the caller's program vector to its topology —
        // checked before any engine state exists.
        assert_eq!(nodes.len(), topo.len(), "need exactly one program per node");
        let n = nodes.len();
        let part = Partition::contiguous(&topo, 1);
        let mut chunk = arena.chunk;
        chunk.rebuild(&topo, &part, 0);
        chunk.nodes = nodes;
        Self {
            topo,
            chunk,
            active: n,
            round: 0,
            report: SimReport::default(),
            trace: false,
            budget: None,
            interrupt: None,
        }
    }

    /// Enables per-round metric tracing (costs memory on long runs).
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enforces a per-link per-round bit budget; a violation aborts the run
    /// with [`SimError::BudgetExceeded`].
    #[must_use]
    pub fn with_budget(mut self, budget: BitBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a cooperative [`Interrupt`] (cancel token and/or absolute
    /// deadline): [`run`](Self::run) checks it **once per round**, between
    /// rounds, and stops with [`SimError::Interrupted`] at the first round
    /// boundary where it has fired. Every completed round stays
    /// bit-identical to an uninterrupted run; [`step`](Self::step) does
    /// not check (callers driving rounds by hand poll the interrupt
    /// themselves).
    #[must_use]
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// The next round to be executed (also the number of rounds done).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of nodes still running.
    #[must_use]
    pub fn active_nodes(&self) -> usize {
        self.active
    }

    /// Whether every node has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.active == 0
    }

    /// Read access to a node program (for assertions and result extraction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        &self.chunk.nodes[id]
    }

    /// Read access to all node programs.
    #[must_use]
    pub fn nodes(&self) -> &[P] {
        &self.chunk.nodes
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Consumes the simulator, returning the node programs (with their final
    /// local state) and the report.
    #[must_use]
    pub fn into_parts(self) -> (Vec<P>, SimReport) {
        let (nodes, report, _arena) = self.into_arena();
        (nodes, report)
    }

    /// Consumes the simulator, returning the node programs, the report,
    /// and the engine arena (every buffer's capacity intact) for reuse by
    /// a later [`Simulator::with_arena`].
    #[must_use]
    pub fn into_arena(mut self) -> (Vec<P>, SimReport, EngineArena<P>) {
        let nodes = std::mem::take(&mut self.chunk.nodes);
        let mut report = self.report;
        report.all_halted = self.active == 0;
        (nodes, report, EngineArena { chunk: self.chunk })
    }

    /// Executes one synchronous round.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] if a link overflows the
    /// configured budget, or [`SimError::DuplicateSend`] if a node sent
    /// two messages over one directed link this round.
    pub fn step(&mut self) -> Result<RoundMetrics, SimError> {
        let active_at_start = self.active;
        phase_step(&mut self.chunk, self.round, self.budget);
        self.active -= self.chunk.newly_halted as usize;
        // Single chunk: its staging buckets, one per block, are also its
        // inbound buckets.
        let mut inbound = std::mem::take(&mut self.chunk.stage);
        phase_deliver(&mut self.chunk, &mut inbound, self.round);
        self.chunk.stage = inbound;
        if let Some(err) = self.chunk.delivery_error.clone() {
            return Err(err);
        }
        let rm = finish_round(
            &self.topo,
            &self.chunk.tally,
            self.round,
            active_at_start,
            self.budget,
        )?;
        self.round += 1;
        self.report.absorb(rm, self.trace);
        self.report
            .record_cut(self.chunk.tally.messages, self.chunk.tally.cross_messages);
        Ok(rm)
    }

    /// Runs until every node halts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if not all nodes halted within
    /// `max_rounds`, [`SimError::BudgetExceeded`] on a CONGEST violation,
    /// or [`SimError::Interrupted`] when a configured
    /// [`with_interrupt`](Self::with_interrupt) condition fires between
    /// rounds.
    pub fn run(&mut self, max_rounds: u64) -> Result<SimReport, SimError> {
        while self.active > 0 {
            if let Some(reason) = self.interrupt.as_ref().and_then(Interrupt::fired) {
                return Err(SimError::Interrupted {
                    reason,
                    round: self.round,
                    active: self.active,
                });
            }
            if self.round >= max_rounds {
                return Err(SimError::RoundLimit {
                    limit: max_rounds,
                    active: self.active,
                });
            }
            self.step()?;
        }
        let mut report = self.report.clone();
        report.all_halted = true;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Status};
    use crate::topology::Port;

    /// Floods the maximum node id seen so far; halts when no new info
    /// arrives. Classic leader election by flooding.
    struct MaxFlood {
        known: u64,
        changed: bool,
        quiet_rounds: u32,
        diameter_bound: u32,
    }

    impl MaxFlood {
        fn new(id: usize, diameter_bound: u32) -> Self {
            Self {
                known: id as u64,
                changed: true,
                quiet_rounds: 0,
                diameter_bound,
            }
        }
    }

    impl Process for MaxFlood {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            for item in ctx.inbox() {
                if item.msg > self.known {
                    self.known = item.msg;
                    self.changed = true;
                }
            }
            if self.changed {
                ctx.broadcast(self.known);
                self.changed = false;
                self.quiet_rounds = 0;
            } else {
                self.quiet_rounds += 1;
            }
            if self.quiet_rounds > self.diameter_bound {
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    fn path_topology(n: usize) -> Topology {
        let links: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Topology::from_links(n, &links)
    }

    #[test]
    fn max_flood_on_path() {
        let n = 8;
        let topo = path_topology(n);
        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut sim = Simulator::new(topo, nodes).with_trace(true);
        let report = sim.run(100).unwrap();
        assert!(report.all_halted);
        for node in sim.nodes() {
            assert_eq!(node.known, (n - 1) as u64);
        }
        // Information needs at least diameter rounds to traverse the path.
        assert!(report.rounds >= (n - 1) as u64);
        assert!(report.per_round.is_some());
    }

    /// A node that sends `payload` to port 0 in round 0 and halts.
    struct OneShot {
        payload: u64,
        got: Option<u64>,
    }

    impl Process for OneShot {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, self.payload);
                Status::Running
            } else {
                self.got = ctx.inbox().first().map(|i| i.msg);
                Status::Halted
            }
        }
    }

    #[test]
    fn messages_delivered_next_round() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![
            OneShot {
                payload: 5,
                got: None,
            },
            OneShot {
                payload: 9,
                got: None,
            },
        ];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert_eq!(sim.node(0).got, Some(9));
        assert_eq!(sim.node(1).got, Some(5));
        assert_eq!(report.rounds, 2);
        assert_eq!(report.total_messages, 2);
        // payload 5 -> 3 bits, payload 9 -> 4 bits
        assert_eq!(report.total_bits, 7);
        assert_eq!(report.max_link_bits, 4);
    }

    #[test]
    fn budget_violation_detected() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![
            OneShot {
                payload: u64::MAX, // 64 bits
                got: None,
            },
            OneShot {
                payload: 1,
                got: None,
            },
        ];
        let mut sim = Simulator::new(topo, nodes).with_budget(BitBudget::new(8));
        let err = sim.run(10).unwrap_err();
        match err {
            SimError::BudgetExceeded { bits, budget, .. } => {
                assert_eq!(bits, 64);
                assert_eq!(budget, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Never halts; used to exercise the round limit.
    struct Spinner;
    impl Process for Spinner {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Status {
            Status::Running
        }
    }

    #[test]
    fn round_limit_is_an_error() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner]);
        let err = sim.run(5).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimit {
                limit: 5,
                active: 2
            }
        );
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn a_cancelled_token_interrupts_before_the_first_round() {
        use crate::cancel::{CancelToken, Interrupt, InterruptReason};
        // A pre-cancelled token on a never-halting protocol: the run must
        // stop immediately at round boundary 0 — not spin to the round
        // limit — with the typed Interrupted error.
        let token = CancelToken::new();
        token.cancel();
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner])
            .with_interrupt(Interrupt::new().with_token(token));
        let err = sim.run(1_000_000).unwrap_err();
        assert_eq!(
            err,
            SimError::Interrupted {
                reason: InterruptReason::Cancelled,
                round: 0,
                active: 2
            }
        );
        assert_eq!(sim.round(), 0, "no round ran after the cancel");
    }

    #[test]
    fn a_past_deadline_interrupts_a_never_halting_run() {
        use crate::cancel::{Interrupt, InterruptReason};
        use std::time::{Duration, Instant};
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![Spinner, Spinner]).with_interrupt(
            Interrupt::new().with_deadline(Instant::now() - Duration::from_secs(1)),
        );
        let err = sim.run(1_000_000).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Interrupted {
                    reason: InterruptReason::DeadlinePassed,
                    round: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn an_unfired_interrupt_changes_nothing() {
        use crate::cancel::{CancelToken, Interrupt};
        use std::time::{Duration, Instant};
        let n = 8;
        let topo = path_topology(n);
        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut plain = Simulator::new(path_topology(n), nodes).with_trace(true);
        let plain_report = plain.run(100).unwrap();

        let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
        let mut interruptible = Simulator::new(topo, nodes).with_trace(true).with_interrupt(
            Interrupt::new()
                .with_token(CancelToken::new())
                .with_deadline(Instant::now() + Duration::from_secs(3600)),
        );
        let report = interruptible.run(100).unwrap();
        assert_eq!(report, plain_report, "interrupt checks must not perturb");
    }

    /// Halts immediately; neighbor keeps sending to it.
    struct Mute;
    impl Process for Mute {
        type Msg = u64;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Status {
            Status::Halted
        }
    }

    struct Chatter {
        rounds_left: u32,
    }
    impl Process for Chatter {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            ctx.send(0, 1);
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    enum Pair {
        Mute(Mute),
        Chatter(Chatter),
    }
    impl Process for Pair {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            match self {
                Pair::Mute(p) => p.on_round(ctx),
                Pair::Chatter(p) => p.on_round(ctx),
            }
        }
    }

    #[test]
    fn messages_to_halted_nodes_are_dropped_but_counted() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let nodes = vec![Pair::Mute(Mute), Pair::Chatter(Chatter { rounds_left: 3 })];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert!(report.all_halted);
        assert_eq!(report.total_messages, 3);
        assert_eq!(report.rounds, 3);
    }

    /// Echo server: checks inbox port labels are the receiver's ports.
    struct PortChecker {
        expect_from_port: Port,
        seen: bool,
    }
    impl Process for PortChecker {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                // Star center (node 0) sends distinct values per port.
                if ctx.node() == 0 {
                    for p in 0..ctx.degree() {
                        ctx.send(p, p as u64 + 100);
                    }
                }
                Status::Running
            } else {
                if ctx.node() != 0 {
                    let item = ctx.inbox().first().expect("one message");
                    assert_eq!(item.port, self.expect_from_port);
                    assert_eq!(item.msg, 100 + (ctx.node() as u64 - 1));
                    self.seen = true;
                }
                Status::Halted
            }
        }
    }

    #[test]
    fn ports_are_receiver_local() {
        // Star: 0 - 1, 0 - 2, 0 - 3. Leaves have a single port 0.
        let topo = Topology::from_links(4, &[(0, 1), (0, 2), (0, 3)]);
        let nodes = (0..4)
            .map(|_| PortChecker {
                expect_from_port: 0,
                seen: false,
            })
            .collect();
        let mut sim = Simulator::new(topo, nodes);
        sim.run(10).unwrap();
        for leaf in 1..4 {
            assert!(sim.node(leaf).seen);
        }
    }

    #[test]
    fn into_parts_returns_state_and_report() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(
            topo,
            vec![
                OneShot {
                    payload: 3,
                    got: None,
                },
                OneShot {
                    payload: 4,
                    got: None,
                },
            ],
        );
        sim.run(10).unwrap();
        let (nodes, report) = sim.into_parts();
        assert_eq!(nodes[0].got, Some(4));
        assert!(report.all_halted);
    }

    /// Sends twice on the same port in one round — a CONGEST violation the
    /// engine turns into a typed error at delivery (a serving layer must
    /// not be crashable by one bad node program).
    struct DoubleSender;
    impl Process for DoubleSender {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, 1);
                ctx.send(0, 2);
                Status::Running
            } else {
                Status::Halted
            }
        }
    }

    #[test]
    fn duplicate_same_port_send_is_typed_error() {
        let topo = Topology::from_links(2, &[(0, 1)]);
        let mut sim = Simulator::new(topo, vec![DoubleSender, DoubleSender]);
        let err = sim.step().unwrap_err();
        assert_eq!(
            err,
            SimError::DuplicateSend {
                round: 0,
                receiver: 1,
                port: 0
            }
        );
        // The simulator is poisoned: further steps keep reporting it.
        assert!(matches!(
            sim.step().unwrap_err(),
            SimError::DuplicateSend { .. }
        ));
    }

    /// Arena-recycled solves must be bit-identical to fresh ones.
    #[test]
    fn arena_reuse_is_bit_identical() {
        use crate::engine::EngineArena;
        let make = |n: usize| {
            let links: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let topo = Topology::from_links(n, &links);
            let nodes: Vec<MaxFlood> = (0..n).map(|i| MaxFlood::new(i, n as u32)).collect();
            (topo, nodes)
        };
        let mut arena = EngineArena::new();
        for n in [8usize, 5, 12, 8] {
            let (topo, nodes) = make(n);
            let mut fresh = Simulator::new(topo, nodes).with_trace(true);
            let fresh_report = fresh.run(200).unwrap();

            let (topo, nodes) = make(n);
            let mut recycled = Simulator::with_arena(topo, nodes, arena).with_trace(true);
            let recycled_report = recycled.run(200).unwrap();
            assert_eq!(recycled_report, fresh_report, "n = {n}");
            for id in 0..n {
                assert_eq!(recycled.node(id).known, fresh.node(id).known);
            }
            let (_, _, back) = recycled.into_arena();
            arena = back;
        }
    }

    /// Parallel links between the same pair are distinct ports and carry
    /// distinct messages.
    struct ParallelLinks {
        got: Vec<u64>,
    }
    impl Process for ParallelLinks {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == 0 {
                ctx.send(0, 10);
                ctx.send(1, 20);
                Status::Running
            } else {
                self.got = ctx.inbox().iter().map(|i| i.msg).collect();
                Status::Halted
            }
        }
    }

    #[test]
    fn parallel_links_deliver_independently() {
        let topo = Topology::from_links(2, &[(0, 1), (0, 1)]);
        let nodes = vec![ParallelLinks { got: vec![] }, ParallelLinks { got: vec![] }];
        let mut sim = Simulator::new(topo, nodes);
        let report = sim.run(10).unwrap();
        assert_eq!(sim.node(0).got, vec![10, 20]);
        assert_eq!(sim.node(1).got, vec![10, 20]);
        assert_eq!(report.total_messages, 4);
    }
}
