//! The queue-discipline (AQM) interface and the one byte-limited FIFO
//! every discipline keeps its packets in.
//!
//! Concrete disciplines — RED, PIE, CoDel, FQ-CoDel — live in the
//! `elephants-aqm` crate as their drop/mark laws over [`DropTail`] (FQ-CoDel
//! over one [`PacketFifo`] per bucket); the trait lives here so that
//! [`crate::link::Link`] can own a `Box<dyn Aqm>` without a dependency cycle.

use crate::check::CheckFailure;
use crate::packet::Packet;
use crate::time::SimTime;
use crate::rng::SmallRng;
use std::collections::VecDeque;
use std::fmt;

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet accepted.
    Enqueued,
    /// Packet accepted and ECN-marked (Congestion Experienced).
    Marked,
    /// Packet dropped.
    Dropped,
}

/// Outcome of a dequeue attempt.
///
/// Disciplines like CoDel drop *at dequeue time*; `dropped` reports how many
/// packets were discarded while finding `pkt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DequeueResult {
    /// The packet to transmit next, if the queue is non-empty.
    pub pkt: Option<Packet>,
    /// Packets dropped during this dequeue operation.
    pub dropped: u32,
}

impl DequeueResult {
    /// An empty result (queue empty, nothing dropped).
    pub const EMPTY: DequeueResult = DequeueResult { pkt: None, dropped: 0 };
}

/// Aggregate counters every discipline maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AqmStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped on enqueue (taildrop / RED early drop / overflow).
    pub dropped_enqueue: u64,
    /// Packets dropped at dequeue (CoDel-style).
    pub dropped_dequeue: u64,
    /// Packets ECN-marked instead of dropped.
    pub marked: u64,
    /// Packets handed to the link for transmission.
    pub dequeued: u64,
}

impl AqmStats {
    /// Total packets dropped by the discipline.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_enqueue + self.dropped_dequeue
    }
}

/// A queue discipline on a link's egress.
///
/// Implementations must be deterministic given the same call sequence and
/// RNG state; all randomness must come from the supplied `SmallRng`.
pub trait Aqm: Send {
    /// Offer `pkt` to the queue at time `now`.
    fn enqueue(&mut self, pkt: Packet, now: SimTime, rng: &mut SmallRng) -> Verdict;

    /// Remove the next packet to transmit at time `now`.
    fn dequeue(&mut self, now: SimTime, rng: &mut SmallRng) -> DequeueResult;

    /// Bytes currently queued.
    fn backlog_bytes(&self) -> u64;

    /// Packets currently queued.
    fn backlog_pkts(&self) -> usize;

    /// Counters.
    fn stats(&self) -> AqmStats;

    /// Discipline name for reports (e.g. `"fifo"`, `"red"`, `"fq_codel"`).
    fn name(&self) -> &'static str;

    /// The discipline's internal control variable, for telemetry: RED
    /// reports its average queue (bytes), PIE its drop probability.
    /// Disciplines whose drop law has no single scalar (FIFO, CoDel's
    /// interval state machine) return `None` — the default.
    fn control_state(&self) -> Option<f64> {
        None
    }

    /// Invariant probe for the strict-mode checker. Read-only — must not
    /// mutate state or draw randomness. [`DropTail`] enforces the O(1)
    /// packet-accounting balance and, when `deep`, the O(n) per-packet
    /// checks ([`PacketFifo::check_deep`]) that are affordable only at
    /// finalize; disciplines built on it add their control-law bounds
    /// (RED's average within `[0, limit]`, PIE's probability in `[0, 1]`).
    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure>;
}

/// A packet FIFO with its byte backlog kept alongside: the storage under
/// every discipline. [`DropTail`] owns one; FQ-CoDel one per bucket.
#[derive(Debug, Default)]
pub struct PacketFifo {
    pkts: VecDeque<Packet>,
    bytes: u64,
}

impl PacketFifo {
    /// Append `pkt` at the tail.
    #[inline]
    pub fn push(&mut self, pkt: Packet) {
        self.bytes += pkt.size as u64;
        self.pkts.push_back(pkt);
    }

    /// Remove the head packet.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.pkts.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    /// Packets held.
    #[inline]
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether no packet is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Bytes held.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The O(n) structural checks, reported against `at` (which queue):
    /// the byte counter equals the sum of resident sizes, and no resident
    /// packet is stamped in the future (sojourn ≥ 0 holds by construction —
    /// `SimTime::since` saturates — so this is its checkable form).
    pub fn check_deep(&self, now: SimTime, at: fmt::Arguments<'_>, fails: &mut Vec<CheckFailure>) {
        let sum: u64 = self.pkts.iter().map(|p| p.size as u64).sum();
        if sum != self.bytes {
            let bytes = self.bytes;
            fails.push(CheckFailure::new(
                "queue_byte_accounting",
                format!("{at}: backlog counter {bytes} != sum of resident sizes {sum}"),
            ));
        }
        if let Some(p) = self.pkts.iter().find(|p| p.enqueued_at > now) {
            let stamp = p.enqueued_at;
            fails.push(CheckFailure::new(
                "queue_sojourn",
                format!("{at}: resident packet enqueued in the future ({stamp} > {now})"),
            ));
        }
    }
}

/// Plain droptail FIFO with a byte limit (`pfifo`/`bfifo` semantics).
///
/// This is the paper's "FIFO" AQM, the default queue on non-bottleneck
/// links, and the queue under RED, PIE and CoDel: it keeps the packets, the
/// limit, the counters and the CE marks, so a discipline built on it holds
/// only its drop/mark law and decides through [`DropTail::fits`],
/// [`DropTail::admit`], [`DropTail::refuse`] and [`DropTail::dequeue_by`].
#[derive(Debug)]
pub struct DropTail {
    fifo: PacketFifo,
    limit_bytes: u64,
    stats: AqmStats,
}

impl DropTail {
    /// A droptail queue holding at most `limit_bytes` of packets.
    pub fn new(limit_bytes: u64) -> Self {
        assert!(limit_bytes > 0, "droptail limit must be positive");
        DropTail { fifo: PacketFifo::default(), limit_bytes, stats: AqmStats::default() }
    }

    /// The configured byte limit.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Whether `pkt` fits under the byte limit — marked or not.
    #[inline]
    pub fn fits(&self, pkt: &Packet) -> bool {
        self.fifo.bytes + pkt.size as u64 <= self.limit_bytes
    }

    /// Accept `pkt` at `now` (CE-marked if `mark`): stamp it for sojourn,
    /// queue it, count it.
    #[inline]
    pub fn admit(&mut self, mut pkt: Packet, now: SimTime, mark: bool) -> Verdict {
        pkt.enqueued_at = now;
        pkt.ecn_ce |= mark;
        self.fifo.push(pkt);
        self.stats.enqueued += 1;
        if mark {
            self.stats.marked += 1;
            Verdict::Marked
        } else {
            Verdict::Enqueued
        }
    }

    /// Drop the arriving packet.
    #[inline]
    pub fn refuse(&mut self) -> Verdict {
        self.stats.dropped_enqueue += 1;
        Verdict::Dropped
    }

    /// Dequeue through a discipline's `law`, which pops from the FIFO and
    /// returns the packet to send with how many it dropped and marked on
    /// the way.
    #[inline]
    pub fn dequeue_by(
        &mut self,
        law: impl FnOnce(&mut PacketFifo) -> (Option<Packet>, u32, u32),
    ) -> DequeueResult {
        let (pkt, dropped, marked) = law(&mut self.fifo);
        self.stats.dropped_dequeue += dropped as u64;
        self.stats.marked += marked as u64;
        self.stats.dequeued += pkt.is_some() as u64;
        DequeueResult { pkt, dropped }
    }
}

impl Aqm for DropTail {
    #[inline]
    fn enqueue(&mut self, pkt: Packet, now: SimTime, _rng: &mut SmallRng) -> Verdict {
        if self.fits(&pkt) {
            self.admit(pkt, now, false)
        } else {
            self.refuse()
        }
    }

    #[inline]
    fn dequeue(&mut self, _now: SimTime, _rng: &mut SmallRng) -> DequeueResult {
        // Branching here, not `dequeued += is_some()`: that measured ~2-3% slower on a FIFO cell.
        let Some(pkt) = self.fifo.pop() else { return DequeueResult::EMPTY };
        self.stats.dequeued += 1;
        DequeueResult { pkt: Some(pkt), dropped: 0 }
    }

    #[inline]
    fn backlog_bytes(&self) -> u64 {
        self.fifo.bytes
    }

    #[inline]
    fn backlog_pkts(&self) -> usize {
        self.fifo.len()
    }

    #[inline]
    fn stats(&self) -> AqmStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "fifo"
    }

    /// The accounting balance — each packet accepted is dequeued, dropped
    /// at dequeue, or still resident — plus, when `deep`, the FIFO's
    /// structural checks.
    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        let mut fails = Vec::new();
        let (s, resident) = (self.stats, self.fifo.len() as u64);
        if s.enqueued != s.dequeued + s.dropped_dequeue + resident {
            let (e, d, dd) = (s.enqueued, s.dequeued, s.dropped_dequeue);
            fails.push(CheckFailure::new(
                "queue_accounting",
                format!("enqueued {e} != dequeued {d} + dropped_dequeue {dd} + resident {resident}"),
            ));
        }
        if deep {
            self.fifo.check_deep(now, format_args!("queue"), &mut fails);
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};
    use crate::rng::SeedableRng;

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), seq, size, SimTime::ZERO)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTail::new(1_000_000);
        let mut r = rng();
        for i in 0..5 {
            assert_eq!(q.enqueue(pkt(i, 100), SimTime::ZERO, &mut r), Verdict::Enqueued);
        }
        for i in 0..5 {
            let got = q.dequeue(SimTime::ZERO, &mut r).pkt.unwrap();
            assert_eq!(got.seq, i);
        }
        assert!(q.dequeue(SimTime::ZERO, &mut r).pkt.is_none());
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTail::new(250);
        let mut r = rng();
        assert_eq!(q.enqueue(pkt(0, 100), SimTime::ZERO, &mut r), Verdict::Enqueued);
        assert_eq!(q.enqueue(pkt(1, 100), SimTime::ZERO, &mut r), Verdict::Enqueued);
        // Third packet would exceed 250 bytes.
        assert_eq!(q.enqueue(pkt(2, 100), SimTime::ZERO, &mut r), Verdict::Dropped);
        assert_eq!(q.stats().dropped_enqueue, 1);
        assert_eq!(q.backlog_bytes(), 200);
        assert_eq!(q.backlog_pkts(), 2);
    }

    #[test]
    fn backlog_accounting_exact() {
        let mut q = DropTail::new(10_000);
        let mut r = rng();
        q.enqueue(pkt(0, 1500), SimTime::ZERO, &mut r);
        q.enqueue(pkt(1, 72), SimTime::ZERO, &mut r);
        assert_eq!(q.backlog_bytes(), 1572);
        q.dequeue(SimTime::ZERO, &mut r);
        assert_eq!(q.backlog_bytes(), 72);
        q.dequeue(SimTime::ZERO, &mut r);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn enqueue_stamps_time() {
        let mut q = DropTail::new(10_000);
        let mut r = rng();
        let t = SimTime::from_nanos(999);
        q.enqueue(pkt(0, 100), t, &mut r);
        let got = q.dequeue(t, &mut r).pkt.unwrap();
        assert_eq!(got.enqueued_at, t);
    }
}
