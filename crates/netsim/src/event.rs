//! The event core: a hierarchical timer wheel with a heap overflow.
//!
//! A single flat `enum` keeps dispatch in the simulator hot loop free of
//! virtual calls (a Rust-performance-book idiom). Events with equal
//! timestamps are ordered by an insertion sequence number so that the
//! schedule is a *total* order and every run is reproducible.
//!
//! # Structure
//!
//! Near-future events go into a three-level timer wheel (256 slots per
//! level, ~1 µs / ~262 µs / ~67 ms per slot); events beyond the wheel
//! horizon (~17 s from the queue's current time) wait in a `BinaryHeap`
//! overflow. Insertion is O(1) for the wheel and pops are amortized O(1):
//! a 256-bit occupancy bitmap per level finds the next non-empty slot, and
//! each slot is sorted by `(time, seq)` once, when it becomes the active
//! drain slot. The pop path compares the wheel minimum against the
//! overflow top, so the exact `(time, seq)` total order of the old
//! pure-heap queue is preserved bit for bit.
//!
//! # Delivery pipes
//!
//! A link serialises packets in order at a fixed rate and adds a fixed
//! propagation delay, so its arrivals come out in the order it sent them
//! ([`EventQueue::schedule_deliver`] refuses one that would not). The
//! queue keeps each link's packets on the wire in one *pipe*: a FIFO of
//! `(at, seq, Packet)`, its `seq` drawn from the same counter as every
//! other event's. The wheel holds one `Deliver` per non-empty pipe, keyed
//! by its head's `(at, seq)`; [`EventQueue::take_packet`] pops the head
//! and inserts the wheel entry for the next one, under that packet's own
//! `(at, seq)`. So a BDP of packets on the wire costs the wheel one entry
//! per link instead of one per packet, and the `(time, seq)` total order
//! is the one the wheel would give had every packet its own entry.

use crate::link::LinkId;
use crate::packet::{Dir, FlowId, NodeId, Packet, PacketRef};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Kinds of per-flow timers. The protocol endpoints interpret these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Flow start (connection establishment is abstracted away).
    Start,
    /// Retransmission timeout.
    Rto,
    /// Pacing release: the endpoint may transmit more data now.
    Pace,
    /// Delayed-ACK timeout on the receiver.
    DelAck,
}

/// A simulation event.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A link finished serializing a packet; its transmitter is free.
    LinkTxDone { link: LinkId },
    /// A packet arrives at `node` (after serialization + propagation).
    /// The packet is the head of the delivery pipe of the link `pkt`
    /// names; [`EventQueue::take_packet`] takes it.
    Deliver { node: NodeId, pkt: PacketRef },
    /// A per-endpoint timer fires. `gen` is the arming generation: the
    /// simulator drops the event unless it matches the endpoint's current
    /// generation for `kind`, which is how re-arming a timer cancels the
    /// previously scheduled firing.
    Timer { flow: FlowId, dir: Dir, kind: TimerKind, gen: u32 },
    /// A scheduled fault fires on `link`: `idx` indexes the simulator's
    /// installed fault-action table. Routed through the same wheel/heap as
    /// every other event, so faulted runs keep the exact `(time, seq)`
    /// total order that makes fixed-seed runs byte-identical.
    Fault { link: LinkId, idx: u32 },
    /// A telemetry sample tick: the simulator reads flow/queue state into
    /// the installed [`crate::record::Recorder`] and re-arms the tick.
    /// Scheduled only when a recorder is installed, and excluded from the
    /// processed-event counter so recorded runs report identical metrics.
    Sample,
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    /// Fire time in raw nanoseconds (shift-friendly for slot indexing).
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

const SLOTS: usize = 256;
const WORDS: usize = SLOTS / 64;
/// Level-0 slot width: 2^10 ns ≈ 1.02 µs (sub-serialization-time at 25G).
const L0_SHIFT: u32 = 10;
/// Level-1 slot width: 2^18 ns ≈ 262 µs.
const L1_SHIFT: u32 = L0_SHIFT + 8;
/// Level-2 slot width: 2^26 ns ≈ 67 ms.
const L2_SHIFT: u32 = L1_SHIFT + 8;
/// Events at or beyond 2^34 ns (≈17.2 s) past the current window overflow
/// into the heap.
const HORIZON_SHIFT: u32 = L2_SHIFT + 8;
/// `active0` sentinel: no slot is currently the sorted drain slot.
const NO_ACTIVE: usize = SLOTS;

/// One wheel level: 256 slots plus an occupancy bitmap.
#[derive(Debug)]
struct Level {
    slots: Vec<Vec<Scheduled>>,
    bitmap: [u64; WORDS],
    count: usize,
}

impl Level {
    fn new() -> Self {
        Level { slots: (0..SLOTS).map(|_| Vec::new()).collect(), bitmap: [0; WORDS], count: 0 }
    }

    #[inline]
    fn push(&mut self, idx: usize, s: Scheduled) {
        self.slots[idx].push(s);
        self.bitmap[idx >> 6] |= 1 << (idx & 63);
        self.count += 1;
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.bitmap[idx >> 6] &= !(1 << (idx & 63));
    }

    /// Index of the first non-empty slot at or after `from`, if any.
    #[inline]
    fn first_set(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut mask = !0u64 << (from & 63);
        while w < WORDS {
            let bits = self.bitmap[w] & mask;
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            w += 1;
            mask = !0;
        }
        None
    }
}

/// A packet on the wire: its arrival key and its body.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    at: u64,
    seq: u64,
    pkt: Packet,
}

/// One link's packets on the wire: one FIFO ordered by `(at, seq)`, and
/// the node they arrive at.
#[derive(Debug)]
struct Wire {
    node: NodeId,
    pipe: VecDeque<InFlight>,
}

/// Where `prepare_min` located the next event.
enum MinSrc {
    Slot(usize),
    Heap,
}

/// A deterministic priority queue of [`Event`]s.
///
/// Pops events in `(time, insertion order)` order.
#[derive(Debug)]
pub struct EventQueue {
    l0: Level,
    l1: Level,
    l2: Level,
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Delivery pipes, one per link, indexed by `LinkId`.
    wires: Vec<Wire>,
    /// Wheel position: the time of the last popped event (or the start of
    /// the window most recently cascaded down). Slot placement is relative
    /// to this; it never decreases.
    cur: u64,
    /// The level-0 slot currently sorted and being drained.
    active0: usize,
    next_seq: u64,
    /// Pending events: wheel and heap entries, plus the packets in each
    /// pipe behind its head.
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            l0: Level::new(),
            l1: Level::new(),
            l2: Level::new(),
            overflow: BinaryHeap::new(),
            wires: Vec::new(),
            cur: 0,
            active0: NO_ACTIVE,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `ev` to fire at `at`.
    ///
    /// Times before the last popped event are treated as "now": the event
    /// fires as early as possible while keeping pops monotone.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Scheduled { at: at.as_nanos(), seq, ev });
    }

    /// Put `pkt` on the back of `link`'s pipe, to arrive at `node` at `at`.
    /// A pipe that was empty gets its wheel entry.
    ///
    /// # Panics
    ///
    /// If `at` is before the arrival of the link's newest packet on the
    /// wire: a link delivers in the order it sends.
    #[inline]
    pub fn schedule_deliver(&mut self, at: SimTime, link: LinkId, node: NodeId, pkt: Packet) {
        let (at, seq) = (at.as_nanos(), self.next_seq);
        self.next_seq += 1;
        self.len += 1;
        let l = link.0 as usize;
        if l >= self.wires.len() {
            self.wires.resize_with(l + 1, || Wire { node, pipe: VecDeque::new() });
        }
        let wire = &mut self.wires[l];
        wire.node = node;
        assert!(
            wire.pipe.back().is_none_or(|b| b.at <= at),
            "a link delivers in the order it sends"
        );
        wire.pipe.push_back(InFlight { at, seq, pkt });
        if wire.pipe.len() == 1 {
            let ev = Event::Deliver { node, pkt: PacketRef(link.0) };
            self.insert(Scheduled { at, seq, ev });
        }
    }

    /// Take the packet of a popped `Deliver` event: the head of its link's
    /// pipe. The pipe's next packet, if any, gets the wheel entry. Call it
    /// for each popped `Deliver` before the next pop.
    #[inline]
    pub fn take_packet(&mut self, r: PacketRef) -> Packet {
        let wire = &mut self.wires[r.0 as usize];
        let head = wire.pipe.pop_front().expect("a popped Deliver has its packet on the wire");
        if let Some(&InFlight { at, seq, .. }) = wire.pipe.front() {
            let ev = Event::Deliver { node: wire.node, pkt: r };
            self.insert(Scheduled { at, seq, ev });
        }
        head.pkt
    }

    /// Read the packet of a popped `Deliver` event without taking it.
    pub fn packet(&self, r: PacketRef) -> &Packet {
        let pipe = &self.wires[r.0 as usize].pipe;
        &pipe.front().expect("a popped Deliver has its packet on the wire").pkt
    }

    /// Packets on the wire (scheduled deliveries not yet taken) — the "in
    /// flight" term of the checker's packet-conservation equation.
    pub fn packets_live(&self) -> usize {
        self.wires.iter().map(|w| w.pipe.len()).sum()
    }

    /// Place `s` on the wheel or the overflow heap. `len` counts it
    /// already: a pipe's next head was counted when it was scheduled.
    #[inline]
    fn insert(&mut self, s: Scheduled) {
        // Slot placement clamps to the wheel position; the true fire time
        // stays in `s.at` and decides order within the slot.
        let t = s.at.max(self.cur);
        if t >> L1_SHIFT == self.cur >> L1_SHIFT {
            let idx = ((t >> L0_SHIFT) & 0xff) as usize;
            if idx == self.active0 {
                // The drain slot is kept sorted descending by (at, seq);
                // insert in place so pops stay in total order.
                let slot = &mut self.l0.slots[idx];
                let pos = slot.partition_point(|x| (x.at, x.seq) > (s.at, s.seq));
                slot.insert(pos, s);
                self.l0.bitmap[idx >> 6] |= 1 << (idx & 63);
                self.l0.count += 1;
            } else {
                self.l0.push(idx, s);
            }
        } else if t >> L2_SHIFT == self.cur >> L2_SHIFT {
            self.l1.push(((t >> L1_SHIFT) & 0xff) as usize, s);
        } else if t >> HORIZON_SHIFT == self.cur >> HORIZON_SHIFT {
            self.l2.push(((t >> L2_SHIFT) & 0xff) as usize, s);
        } else {
            self.overflow.push(Reverse(s));
        }
    }

    /// Locate the globally minimal `(at, seq)` event, cascading wheel
    /// levels down as needed. Does not remove anything.
    fn prepare_min(&mut self) -> Option<(u64, MinSrc)> {
        loop {
            if self.l0.count > 0 {
                let from = ((self.cur >> L0_SHIFT) & 0xff) as usize;
                let idx = self.l0.first_set(from).expect("l0 events precede wheel position");
                if self.active0 != idx {
                    self.l0.slots[idx].sort_unstable_by_key(|s| Reverse((s.at, s.seq)));
                    self.active0 = idx;
                }
                let s = *self.l0.slots[idx].last().expect("occupancy bit set on empty slot");
                if let Some(Reverse(top)) = self.overflow.peek() {
                    if (top.at, top.seq) < (s.at, s.seq) {
                        return Some((top.at, MinSrc::Heap));
                    }
                }
                return Some((s.at, MinSrc::Slot(idx)));
            }
            if self.l1.count > 0 {
                let from = ((self.cur >> L1_SHIFT) & 0xff) as usize;
                let o = self.l1.first_set(from).expect("l1 events precede wheel position");
                let start = (((self.cur >> L1_SHIFT) & !0xff) | o as u64) << L1_SHIFT;
                if let Some(Reverse(top)) = self.overflow.peek() {
                    if top.at < start {
                        return Some((top.at, MinSrc::Heap));
                    }
                }
                self.cur = self.cur.max(start);
                self.active0 = NO_ACTIVE;
                let mut evs = std::mem::take(&mut self.l1.slots[o]);
                self.l1.count -= evs.len();
                self.l1.clear_bit(o);
                for s in evs.drain(..) {
                    debug_assert!(s.at >= self.cur);
                    self.l0.push(((s.at >> L0_SHIFT) & 0xff) as usize, s);
                }
                self.l1.slots[o] = evs; // keep the allocation
                continue;
            }
            if self.l2.count > 0 {
                let from = ((self.cur >> L2_SHIFT) & 0xff) as usize;
                let o = self.l2.first_set(from).expect("l2 events precede wheel position");
                let start = (((self.cur >> L2_SHIFT) & !0xff) | o as u64) << L2_SHIFT;
                if let Some(Reverse(top)) = self.overflow.peek() {
                    if top.at < start {
                        return Some((top.at, MinSrc::Heap));
                    }
                }
                self.cur = self.cur.max(start);
                let mut evs = std::mem::take(&mut self.l2.slots[o]);
                self.l2.count -= evs.len();
                self.l2.clear_bit(o);
                for s in evs.drain(..) {
                    debug_assert!(s.at >= self.cur);
                    self.l1.push(((s.at >> L1_SHIFT) & 0xff) as usize, s);
                }
                self.l2.slots[o] = evs;
                continue;
            }
            return self.overflow.peek().map(|Reverse(top)| (top.at, MinSrc::Heap));
        }
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (_, src) = self.prepare_min()?;
        let s = match src {
            MinSrc::Slot(idx) => {
                let slot = &mut self.l0.slots[idx];
                let s = slot.pop().expect("prepared slot drained");
                self.l0.count -= 1;
                if slot.is_empty() {
                    self.l0.clear_bit(idx);
                    self.active0 = NO_ACTIVE;
                }
                s
            }
            MinSrc::Heap => self.overflow.pop().expect("prepared heap drained").0,
        };
        self.len -= 1;
        self.cur = self.cur.max(s.at);
        Some((SimTime::from_nanos(s.at), s.ev))
    }

    /// Timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because locating the minimum may cascade wheel
    /// levels down (observable order is unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.prepare_min().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(flow: u32) -> Event {
        Event::Timer { flow: FlowId(flow), dir: Dir::Sender, kind: TimerKind::Rto, gen: 0 }
    }

    fn flow_of(ev: Event) -> u32 {
        match ev {
            Event::Timer { flow, .. } => flow.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), timer(3));
        q.schedule(SimTime::from_nanos(10), timer(1));
        q.schedule(SimTime::from_nanos(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, timer(i));
        }
        let flows: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, ev)| flow_of(ev)).collect();
        assert_eq!(flows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(7), timer(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_seq, 1);
    }

    #[test]
    fn orders_across_all_wheel_levels_and_overflow() {
        // One event per time scale: same l0 slot, later l0 slot, l1, l2,
        // and past the ~17 s horizon (overflow heap).
        let times =
            [40u64, 900, 90_000, 40_000_000, 2_000_000_000, 30_000_000_000, 500_000_000_000];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().rev().enumerate() {
            q.schedule(SimTime::from_nanos(t), timer(i as u32));
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_nanos()).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(order, want);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Mimic the simulator: after each pop, schedule new events at or
        // after the popped time, across slot and level boundaries.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(0), timer(0));
        let offsets = [1u64, 700, 3_000, 300_000, 70_000_000, 1_000];
        let mut last = 0u64;
        let mut popped = 0usize;
        let mut scheduled = 1usize;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_nanos() >= last, "pop went backwards: {last} then {t:?}");
            last = t.as_nanos();
            popped += 1;
            if scheduled < 200 {
                for &off in &offsets[..(popped % offsets.len()).max(1)] {
                    q.schedule(SimTime::from_nanos(last + off), timer(scheduled as u32));
                    scheduled += 1;
                }
            }
        }
        assert_eq!(popped, scheduled);
    }

    #[test]
    fn same_slot_insert_during_drain_keeps_insertion_order() {
        // Two events at time t; while draining (after the first pop), a
        // third lands at the same time — it must pop last (highest seq).
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, timer(0));
        q.schedule(t, timer(1));
        assert_eq!(flow_of(q.pop().unwrap().1), 0);
        q.schedule(t, timer(2));
        assert_eq!(flow_of(q.pop().unwrap().1), 1);
        assert_eq!(flow_of(q.pop().unwrap().1), 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn deliver_events_round_trip_through_pipes() {
        let mut q = EventQueue::new();
        let pkt = Packet::data(FlowId(7), NodeId(0), NodeId(1), 42, 1500, SimTime::ZERO);
        q.schedule_deliver(SimTime::from_nanos(10), LinkId(3), NodeId(1), pkt);
        assert_eq!(q.packets_live(), 1);
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(10));
        let Event::Deliver { node, pkt: r } = ev else { panic!("expected Deliver") };
        assert_eq!(node, NodeId(1));
        assert_eq!(q.packet(r).seq, 42);
        let got = q.take_packet(r);
        assert_eq!(got.seq, 42);
        assert_eq!(got.flow, FlowId(7));
        assert_eq!(q.packets_live(), 0);
    }

    #[test]
    fn a_pipe_is_one_wheel_entry_and_keeps_the_total_order() {
        // 100 packets on one link, a timer between each pair of arrivals
        // and one at the same time as each arrival, scheduled after it.
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            let at = 1_000 * u64::from(i) + 500_000;
            let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), i.into(), 1500, SimTime::ZERO);
            q.schedule_deliver(SimTime::from_nanos(at), LinkId(0), NodeId(1), pkt);
            q.schedule(SimTime::from_nanos(at), timer(i));
            q.schedule(SimTime::from_nanos(at + 500), timer(1000 + i));
        }
        assert_eq!(q.len(), 300);
        assert_eq!(q.packets_live(), 100);
        let entries = q.l0.count + q.l1.count + q.l2.count + q.overflow.len();
        assert_eq!(entries, 201, "the pipe holds its packets behind one wheel entry");
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            order.push(match ev {
                Event::Deliver { pkt, .. } => q.take_packet(pkt).seq as u32,
                ev => 10_000 + flow_of(ev),
            });
        }
        let want: Vec<u32> = (0..100).flat_map(|i| [i, 10_000 + i, 11_000 + i]).collect();
        assert_eq!(order, want);
        assert_eq!(q.packets_live(), 0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "a link delivers in the order it sends")]
    fn a_delivery_may_not_overtake_the_links_newest() {
        let mut q = EventQueue::new();
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1500, SimTime::ZERO);
        q.schedule_deliver(SimTime::from_nanos(6_000), LinkId(0), NodeId(1), pkt);
        q.schedule_deliver(SimTime::from_nanos(3_000), LinkId(0), NodeId(1), pkt);
    }

    #[test]
    fn scheduled_elements_stay_compact() {
        // A `Deliver` carries a 4-byte handle, not its packet: wheel and
        // heap elements are 32 bytes.
        assert!(std::mem::size_of::<Scheduled>() <= 32);
    }
}
