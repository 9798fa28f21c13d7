//! The node-program abstraction: what runs at each network node.

use std::ops::Range;

use crate::message::Message;
use crate::metrics::BitBudget;
use crate::topology::Port;

/// Whether a node keeps participating after the current round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// The node wants to receive messages and be stepped again.
    Running,
    /// The node has terminated; it is never stepped again and messages sent
    /// to it are dropped (and counted in the metrics).
    Halted,
}

/// An incoming message together with the local port it arrived on.
///
/// The round engine stores mail in a flat port-indexed slot arena, so this
/// type no longer appears in storage; inbox iteration *yields* `Incoming`
/// values (cheap — message types are small and `Clone`), and slices of
/// `Incoming` are still accepted by [`Ctx::new`] for round-by-round unit
/// tests of [`Process`] implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The local port (link) the message arrived on.
    pub port: Port,
    /// The message payload.
    pub msg: M,
}

/// A node program in the synchronous message-passing model.
///
/// The simulator calls [`on_round`](Process::on_round) once per round for
/// every non-halted node, passing a [`Ctx`] that exposes the inbox (messages
/// sent to this node in the *previous* round, indexed by arrival port) and
/// collects outgoing messages (delivered to neighbors in the *next* round).
/// Round 0 has an empty inbox everywhere; local input must be baked into the
/// node value before the simulation starts — exactly the CONGEST convention.
pub trait Process: Send {
    /// The message type of this protocol.
    type Msg: Message;

    /// Executes one synchronous round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Status;
}

/// How the inbox is represented: arena slots inside the engine, an
/// `Incoming` list in manual unit-test harnesses.
#[derive(Debug)]
enum InboxRepr<'a, M> {
    /// One optional message per port, port == index (the engine's flat
    /// mailbox arena view).
    Slots(&'a [Option<M>]),
    /// Explicit (port, message) list, as built by hand in protocol unit
    /// tests via [`Ctx::new`].
    List(&'a [Incoming<M>]),
}

/// Read-only view of the messages a node received this round, indexed by
/// arrival port.
///
/// Iteration yields [`Incoming`] values in ascending port order — port order
/// is structural in the mailbox arena, so no sorting ever happens. `Inbox`
/// is `Copy`; methods take `self` by value so views returned from
/// [`Ctx::inbox`] can be chained freely.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    repr: InboxRepr<'a, M>,
}

// Manual impls: `Inbox` is a pair of references, so it is `Copy` for every
// `M` (a derive would wrongly require `M: Copy`).
impl<M> Clone for InboxRepr<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for InboxRepr<'_, M> {}
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M: Message> Inbox<'a, M> {
    /// A view over per-port slots (`slots[p]` = message arrived on port
    /// `p`). Useful for driving [`Process::on_round`] without a simulator.
    #[must_use]
    pub fn from_slots(slots: &'a [Option<M>]) -> Self {
        Self {
            repr: InboxRepr::Slots(slots),
        }
    }

    /// A view over an explicit message list (must be sorted by port to match
    /// engine behaviour).
    #[must_use]
    pub fn from_list(list: &'a [Incoming<M>]) -> Self {
        Self {
            repr: InboxRepr::List(list),
        }
    }

    /// Number of messages received this round.
    ///
    /// Counts occupied ports, i.e. costs `O(degree)` on the engine's slot
    /// representation.
    #[must_use]
    pub fn len(self) -> usize {
        match self.repr {
            InboxRepr::Slots(s) => s.iter().filter(|m| m.is_some()).count(),
            InboxRepr::List(l) => l.len(),
        }
    }

    /// Whether no message arrived this round.
    #[must_use]
    pub fn is_empty(self) -> bool {
        match self.repr {
            InboxRepr::Slots(s) => s.iter().all(|m| m.is_none()),
            InboxRepr::List(l) => l.is_empty(),
        }
    }

    /// The message that arrived on `port`, if any.
    #[must_use]
    pub fn get(self, port: Port) -> Option<&'a M> {
        match self.repr {
            InboxRepr::Slots(s) => s.get(port).and_then(Option::as_ref),
            InboxRepr::List(l) => l.iter().find(|i| i.port == port).map(|i| &i.msg),
        }
    }

    /// The lowest-port message, if any arrived.
    #[must_use]
    pub fn first(self) -> Option<Incoming<M>> {
        self.iter().next()
    }

    /// Iterates received messages as [`Incoming`] values in ascending port
    /// order.
    #[must_use]
    pub fn iter(self) -> InboxIter<'a, M> {
        InboxIter {
            repr: self.repr,
            next: 0,
        }
    }
}

impl<'a, M: Message> IntoIterator for Inbox<'a, M> {
    type Item = Incoming<M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding [`Incoming`] values.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    repr: InboxRepr<'a, M>,
    next: usize,
}

impl<M: Message> Iterator for InboxIter<'_, M> {
    type Item = Incoming<M>;

    fn next(&mut self) -> Option<Incoming<M>> {
        match self.repr {
            InboxRepr::Slots(slots) => {
                while self.next < slots.len() {
                    let port = self.next;
                    self.next += 1;
                    if let Some(msg) = &slots[port] {
                        return Some(Incoming {
                            port,
                            msg: msg.clone(),
                        });
                    }
                }
                None
            }
            InboxRepr::List(list) => {
                let item = list.get(self.next)?;
                self.next += 1;
                Some(item.clone())
            }
        }
    }
}

/// Sentinel routing value marking a port whose receiving slot lies in the
/// sender's own chunk *and* that chunk's mailbox is a single delivery
/// block: such messages are written straight into the local next-round
/// mailbox instead of a staging bucket.
pub(crate) const DIRECT_WRITE: u32 = u32::MAX;

/// The engine-side send machinery a stepped node writes into: staging
/// buckets, the chunk's own next-round mailbox for direct writes, and
/// send-side accounting.
///
/// `dest_bucket[p]` / `dest_local[p]` give, for the node's port `p`, the
/// staging bucket of the receiving (chunk, block) pair (or
/// [`DIRECT_WRITE`]) and the slot index in the receiving chunk's mailbox.
#[derive(Debug)]
pub(crate) struct StagedSends<'a, M> {
    /// Staging buckets of `(chunk-local slot, payload)`, one per
    /// destination (chunk, block) pair.
    pub buckets: &'a mut [Vec<(u32, M)>],
    /// Port → staging bucket, [`DIRECT_WRITE`] for direct-write ports.
    pub dest_bucket: &'a [u32],
    /// Port → chunk-local slot in the receiving chunk's mailbox.
    pub dest_local: &'a [u32],
    /// The sender chunk's next-round mailbox (direct-write destination).
    pub nxt: &'a mut [Option<M>],
    /// The buckets addressing the sender's own chunk. Mail staged outside
    /// this range is cross-chunk; a direct write that finds its slot
    /// occupied (a duplicate send) falls back to the first of them, so
    /// the delivery phase applies the canonical halted/duplicate checks.
    pub own_buckets: Range<u32>,
    /// Send-side accounting for this chunk's current round.
    pub tally: &'a mut SendTally,
    /// Per-message bit budget, if one is enforced.
    pub budget: Option<BitBudget>,
}

/// Where [`Ctx::send`] puts outgoing messages.
#[derive(Debug)]
enum OutboxRepr<'a, M> {
    /// The engine path: block staging buckets plus direct writes, with
    /// send-side metric accounting.
    Staged(StagedSends<'a, M>),
    /// The unit-test path: collect raw `(port, message)` pairs.
    Collect(&'a mut Vec<(Port, M)>),
}

/// Send-side accounting accumulated while a round is stepped. Per-link
/// maxima are exact because CONGEST permits one message per directed link
/// per round (the engine rejects duplicate same-port sends at delivery).
#[derive(Clone, Debug, Default)]
pub(crate) struct SendTally {
    /// Messages sent.
    pub messages: u64,
    /// Messages whose destination slot lies in a *different* chunk;
    /// `messages - cross_messages` stayed inside the sender's chunk.
    pub cross_messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Largest single-link payload.
    pub max_link_bits: u64,
    /// First budget violation in step order: `(sender, port, bits)`.
    pub violation: Option<(usize, Port, u64)>,
}

impl SendTally {
    pub(crate) fn clear(&mut self) {
        *self = SendTally::default();
    }

    /// Folds `other` (a later chunk's tally) into `self`, keeping the
    /// earliest violation.
    pub(crate) fn merge(&mut self, other: &SendTally) {
        self.messages += other.messages;
        self.cross_messages += other.cross_messages;
        self.bits += other.bits;
        self.max_link_bits = self.max_link_bits.max(other.max_link_bits);
        if self.violation.is_none() {
            self.violation = other.violation;
        }
    }
}

/// Per-round execution context handed to [`Process::on_round`].
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) round: u64,
    pub(crate) node: usize,
    pub(crate) degree: usize,
    inbox: Inbox<'a, M>,
    outbox: OutboxRepr<'a, M>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Creates a context manually — lets protocol crates unit-test
    /// [`Process`] implementations round-by-round without a simulator.
    /// `inbox` should be sorted by port to match simulator behaviour; sent
    /// messages are collected into `outgoing` as `(port, message)` pairs.
    #[must_use]
    pub fn new(
        round: u64,
        node: usize,
        degree: usize,
        inbox: &'a [Incoming<M>],
        outgoing: &'a mut Vec<(Port, M)>,
    ) -> Self {
        Self {
            round,
            node,
            degree,
            inbox: Inbox::from_list(inbox),
            outbox: OutboxRepr::Collect(outgoing),
        }
    }

    /// Engine-internal constructor over arena slots and the send machinery.
    pub(crate) fn staged(
        round: u64,
        node: usize,
        inbox_slots: &'a [Option<M>],
        sends: StagedSends<'a, M>,
    ) -> Self {
        Self {
            round,
            node,
            degree: inbox_slots.len(),
            inbox: Inbox::from_slots(inbox_slots),
            outbox: OutboxRepr::Staged(sends),
        }
    }

    /// The current round number (0-based).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's id. Available because CONGEST assumes unique `O(log n)`-
    /// bit identifiers; protocols that want anonymity simply don't read it.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of ports (neighbors) of this node.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Messages received this round, indexed by arrival port.
    #[must_use]
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Sends `msg` over the link at `port`; it arrives next round.
    ///
    /// CONGEST permits one message per directed link per round: sending
    /// twice on the same port in one round is a protocol bug, and the
    /// engine aborts the run with
    /// [`SimError::DuplicateSend`](crate::SimError::DuplicateSend) when the
    /// duplicate is delivered.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            port < self.degree,
            "send on port {port} but node {} has degree {}",
            self.node,
            self.degree
        );
        match &mut self.outbox {
            OutboxRepr::Staged(sends) => {
                let bits = msg.bit_size();
                sends.tally.messages += 1;
                sends.tally.bits += bits;
                sends.tally.max_link_bits = sends.tally.max_link_bits.max(bits);
                if sends.tally.violation.is_none() {
                    if let Some(b) = sends.budget {
                        if bits > b.bits() {
                            sends.tally.violation = Some((self.node, port, bits));
                        }
                    }
                }
                let bucket = sends.dest_bucket[port];
                let local = sends.dest_local[port];
                if bucket == DIRECT_WRITE {
                    // An occupied slot means a duplicate same-port send (or
                    // stale mail of a halted receiver); stage it so the
                    // delivery phase applies the canonical
                    // halted-before-duplicate semantics.
                    let slot = &mut sends.nxt[local as usize];
                    if slot.is_none() {
                        *slot = Some(msg);
                    } else {
                        sends.buckets[sends.own_buckets.start as usize].push((local, msg));
                    }
                } else {
                    if !sends.own_buckets.contains(&bucket) {
                        sends.tally.cross_messages += 1;
                    }
                    sends.buckets[bucket as usize].push((local, msg));
                }
            }
            OutboxRepr::Collect(out) => out.push((port, msg)),
        }
    }

    /// Sends a copy of `msg` on every port.
    pub fn broadcast(&mut self, msg: M) {
        for port in 0..self.degree {
            self.send(port, msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_send_and_broadcast() {
        let inbox: Vec<Incoming<u64>> = vec![];
        let mut out = Vec::new();
        let mut ctx = Ctx::new(3, 1, 3, &inbox, &mut out);
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.node(), 1);
        assert_eq!(ctx.degree(), 3);
        assert!(ctx.inbox().is_empty());
        ctx.send(1, 42);
        ctx.broadcast(7);
        assert_eq!(out, vec![(1, 42), (0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn send_out_of_range_panics() {
        let inbox: Vec<Incoming<u64>> = vec![];
        let mut out = Vec::new();
        let mut ctx = Ctx::new(0, 0, 1, &inbox, &mut out);
        ctx.send(1, 0);
    }

    #[test]
    fn inbox_views_agree() {
        let slots: Vec<Option<u64>> = vec![None, Some(8), None, Some(3)];
        let list = vec![
            Incoming { port: 1, msg: 8u64 },
            Incoming { port: 3, msg: 3 },
        ];
        let a = Inbox::from_slots(&slots);
        let b = Inbox::from_list(&list);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(a.get(1), Some(&8));
        assert_eq!(b.get(1), Some(&8));
        assert_eq!(a.get(0), None);
        assert_eq!(b.get(0), None);
        assert_eq!(a.first(), Some(Incoming { port: 1, msg: 8 }));
        let from_slots: Vec<Incoming<u64>> = a.iter().collect();
        let from_list: Vec<Incoming<u64>> = b.iter().collect();
        assert_eq!(from_slots, from_list);
        assert_eq!(from_slots, list);
        // `for` loops work directly on the view.
        let mut total = 0;
        for item in a {
            total += item.msg + item.port as u64;
        }
        assert_eq!(total, 8 + 1 + 3 + 3);
    }

    #[test]
    fn empty_inbox() {
        let slots: Vec<Option<u64>> = vec![None, None];
        let v = Inbox::from_slots(&slots);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.first(), None);
        assert_eq!(v.iter().count(), 0);
    }
}
