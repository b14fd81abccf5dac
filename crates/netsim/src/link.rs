//! Unidirectional links: serialization, propagation, egress queueing.

use crate::event::{Event, EventQueue};
use crate::fault::{FaultAction, LossModel, LossState};
use crate::packet::{NodeId, Packet};
use crate::queue::{Aqm, AqmStats, DropTail, Verdict};
use crate::record::{EventRing, TraceEvent, TraceEventKind, TRACE_NO_FLOW};
use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;
use crate::rng::SmallRng;

/// Index of a link within the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Declarative description of a link (rate + propagation delay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Serialization rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub prop: SimDuration,
}

impl LinkSpec {
    /// Construct a link spec.
    pub fn new(rate: Bandwidth, prop: SimDuration) -> Self {
        LinkSpec { rate, prop }
    }
}

/// Byte/packet counters for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to this link's egress (before any queue/down-link
    /// decision). Anchors the per-link conservation identity:
    /// `pkts_offered == down_drops + dequeued + dropped_enqueue +
    /// dropped_dequeue + backlog`.
    pub pkts_offered: u64,
    /// Packets fully serialized onto the wire.
    pub pkts_tx: u64,
    /// Bytes fully serialized onto the wire.
    pub bytes_tx: u64,
    /// Packets destroyed by fault injection after transmission.
    pub fault_losses: u64,
    /// Packets destroyed because the link was down.
    pub down_drops: u64,
    /// Timed fault actions applied to this link.
    pub fault_events_applied: u64,
    /// Largest egress-queue depth observed, in packets.
    pub peak_qlen_pkts: u64,
}

/// A unidirectional link with an egress queue discipline.
pub struct Link {
    /// This link's index.
    pub id: LinkId,
    /// Node that transmits onto this link.
    pub src: NodeId,
    /// Node that receives from this link.
    pub dst: NodeId,
    /// Serialization rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub prop: SimDuration,
    /// Egress queue discipline.
    pub aqm: Box<dyn Aqm>,
    /// Random in-flight loss (fault-injection extension; defaults to none).
    pub loss_model: LossModel,
    loss_state: LossState,
    up: bool,
    busy: bool,
    stats: LinkStats,
    /// Per-packet trace ring (flight recorder); `None` — the default —
    /// costs one predictable branch per queue operation.
    trace: Option<Box<EventRing>>,
    /// One-entry memo of `(rate, size) -> serialization time`. A link's
    /// traffic is dominated by one segment size (MSS data one way, fixed
    /// ACKs the other), so this turns the per-packet u128 division in
    /// [`Bandwidth::serialization_time`] into a compare. Keyed on the rate
    /// too, so a direct `rate` mutation simply misses once. Pure caching of
    /// an exact value — schedules are bit-identical with and without it.
    ser_memo: Option<(Bandwidth, u32, SimDuration)>,
}

impl Link {
    /// Create a link with the given queue discipline.
    pub fn new(id: LinkId, src: NodeId, dst: NodeId, spec: LinkSpec, aqm: Box<dyn Aqm>) -> Self {
        Link {
            id,
            src,
            dst,
            rate: spec.rate,
            prop: spec.prop,
            aqm,
            loss_model: LossModel::None,
            loss_state: LossState::default(),
            up: true,
            busy: false,
            stats: LinkStats::default(),
            trace: None,
            ser_memo: None,
        }
    }

    /// Create a link with an effectively unlimited droptail queue — used for
    /// the non-bottleneck access links of the dumbbell.
    pub fn with_big_fifo(id: LinkId, src: NodeId, dst: NodeId, spec: LinkSpec) -> Self {
        // 1 GiB of buffer: large enough never to drop on a 25G access link
        // in these experiments, mirroring host ring buffers + switch fabric.
        Link::new(id, src, dst, spec, Box::new(DropTail::new(1 << 30)))
    }

    /// Offer a packet to this link's egress queue, starting transmission if
    /// the transmitter is idle. While the link is down the packet is
    /// destroyed (a dark link has no queue to hold it).
    pub fn offer(&mut self, pkt: Packet, now: SimTime, events: &mut EventQueue, rng: &mut SmallRng) {
        self.stats.pkts_offered += 1;
        if !self.up {
            self.stats.down_drops += 1;
            if let Some(ring) = &mut self.trace {
                trace(ring, now, TraceEventKind::Drop, Some(&pkt));
            }
            return;
        }
        match self.aqm.enqueue(pkt, now, rng) {
            Verdict::Dropped => {
                if let Some(ring) = &mut self.trace {
                    trace(ring, now, TraceEventKind::Drop, Some(&pkt));
                }
            }
            _ => {
                if let Some(ring) = &mut self.trace {
                    let kind = if pkt.retx { TraceEventKind::Retx } else { TraceEventKind::Enqueue };
                    trace(ring, now, kind, Some(&pkt));
                }
                let depth = self.aqm.backlog_pkts() as u64;
                if depth > self.stats.peak_qlen_pkts {
                    self.stats.peak_qlen_pkts = depth;
                }
                if !self.busy {
                    self.start_tx(now, events, rng);
                }
            }
        }
    }

    /// Called when serialization of the current packet completes.
    pub fn on_tx_done(&mut self, now: SimTime, events: &mut EventQueue, rng: &mut SmallRng) {
        self.busy = false;
        self.start_tx(now, events, rng);
    }

    fn start_tx(&mut self, now: SimTime, events: &mut EventQueue, rng: &mut SmallRng) {
        debug_assert!(!self.busy);
        if !self.up {
            return;
        }
        let res = self.aqm.dequeue(now, rng);
        let Some(pkt) = res.pkt else { return };
        if let Some(ring) = &mut self.trace {
            trace(ring, now, TraceEventKind::Dequeue, Some(&pkt));
        }
        let ser = match self.ser_memo {
            Some((rate, size, ser)) if rate == self.rate && size == pkt.size => ser,
            _ => {
                let ser = self.rate.serialization_time(pkt.size as u64);
                self.ser_memo = Some((self.rate, pkt.size, ser));
                ser
            }
        };
        self.busy = true;
        self.stats.pkts_tx += 1;
        self.stats.bytes_tx += pkt.size as u64;
        events.schedule(now + ser, Event::LinkTxDone { link: self.id });
        // The loss draw happens in event order on the shared run RNG, so a
        // fixed seed yields a fixed loss pattern; `LossModel::None` draws
        // nothing.
        if self.loss_state.should_drop(&self.loss_model, rng) {
            self.stats.fault_losses += 1;
            return;
        }
        events.schedule_deliver(now + ser + self.prop, self.id, self.dst, pkt);
    }

    /// Apply a timed fault action (dispatched by the simulator).
    pub fn apply_fault(
        &mut self,
        action: FaultAction,
        now: SimTime,
        events: &mut EventQueue,
        rng: &mut SmallRng,
    ) {
        self.stats.fault_events_applied += 1;
        if let Some(ring) = &mut self.trace {
            trace(ring, now, TraceEventKind::Fault, None);
        }
        match action {
            FaultAction::LinkDown => self.set_down(),
            FaultAction::LinkUp => self.set_up(now, events, rng),
            FaultAction::SetLossModel(m) => self.loss_model = m,
        }
    }

    /// Take the link down. The transmitter freezes: already-queued packets
    /// stay buffered (router memory survives the cut) and resume on
    /// [`Link::set_up`], while packets *offered* during the outage are
    /// destroyed and counted as `down_drops`. A packet mid-serialization
    /// finishes its `LinkTxDone` and its delivery still arrives — faults
    /// cut the link, not photons already in the fiber. Idempotent.
    fn set_down(&mut self) {
        self.up = false;
    }

    /// Bring the link back up, restarting transmission if a packet is
    /// queued and the transmitter is idle. Idempotent.
    fn set_up(&mut self, now: SimTime, events: &mut EventQueue, rng: &mut SmallRng) {
        if self.up {
            return;
        }
        self.up = true;
        if !self.busy {
            self.start_tx(now, events, rng);
        }
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Transmission counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Queue-discipline counters.
    pub fn aqm_stats(&self) -> AqmStats {
        self.aqm.stats()
    }

    /// Start tracing queue operations into a ring of at most `capacity`
    /// events. Replaces any earlier ring.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(EventRing::new(capacity)));
    }

    /// Remove and return the trace ring (post-run drain).
    pub fn take_trace(&mut self) -> Option<Box<EventRing>> {
        self.trace.take()
    }
}

/// Push one flight-recorder trace event: `pkt`'s identity, or none for a
/// link-level (fault) event.
#[inline]
fn trace(ring: &mut EventRing, t: SimTime, kind: TraceEventKind, pkt: Option<&Packet>) {
    let (flow, seq, size) = pkt.map_or((TRACE_NO_FLOW, 0, 0), |p| (p.flow, p.seq, p.size));
    ring.push(TraceEvent { t, kind, flow, seq, size });
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("rate", &self.rate)
            .field("prop", &self.prop)
            .field("aqm", &self.aqm.name())
            .field("busy", &self.busy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::rng::SeedableRng;

    fn mk_link(rate_mbps: u64, prop_ms: u64) -> Link {
        Link::with_big_fifo(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            LinkSpec::new(Bandwidth::from_mbps(rate_mbps), SimDuration::from_millis(prop_ms)),
        )
    }

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), seq, size, SimTime::ZERO)
    }

    #[test]
    fn single_packet_schedules_txdone_and_deliver() {
        let mut link = mk_link(10, 5);
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        link.offer(pkt(0, 1250), SimTime::ZERO, &mut ev, &mut rng);
        // 1250 B at 10 Mbps = 1 ms serialization.
        let (t1, e1) = ev.pop().unwrap();
        assert_eq!(t1, SimTime::from_nanos(1_000_000));
        assert!(matches!(e1, Event::LinkTxDone { .. }));
        let (t2, e2) = ev.pop().unwrap();
        assert_eq!(t2, SimTime::from_nanos(6_000_000)); // + 5 ms prop
        match e2 {
            Event::Deliver { node, pkt } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(ev.take_packet(pkt).seq, 0);
            }
            _ => panic!("expected Deliver"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let mut link = mk_link(10, 0);
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        link.offer(pkt(0, 1250), SimTime::ZERO, &mut ev, &mut rng);
        link.offer(pkt(1, 1250), SimTime::ZERO, &mut ev, &mut rng);
        // Only the first TxDone/Deliver pair exists until TxDone is handled.
        let (t1, _) = ev.pop().unwrap(); // TxDone at 1 ms
        let (_, _) = ev.pop().unwrap(); // Deliver pkt0 at 1 ms (prop 0)
        assert_eq!(t1, SimTime::from_nanos(1_000_000));
        link.on_tx_done(t1, &mut ev, &mut rng);
        let (t2, _) = ev.pop().unwrap(); // TxDone pkt1 at 2 ms
        assert_eq!(t2, SimTime::from_nanos(2_000_000));
        assert_eq!(link.stats().pkts_tx, 2);
        assert_eq!(link.stats().bytes_tx, 2500);
    }

    #[test]
    fn fault_loss_drops_delivery_but_not_txdone() {
        let mut link = mk_link(10, 0);
        link.loss_model = LossModel::Bernoulli { p: 1.0 };
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        link.offer(pkt(0, 1250), SimTime::ZERO, &mut ev, &mut rng);
        let (_, e1) = ev.pop().unwrap();
        assert!(matches!(e1, Event::LinkTxDone { .. }));
        assert!(ev.pop().is_none(), "delivery must be suppressed");
        assert_eq!(link.stats().fault_losses, 1);
    }

    #[test]
    fn idle_txdone_is_harmless() {
        let mut link = mk_link(10, 0);
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        link.on_tx_done(SimTime::ZERO, &mut ev, &mut rng);
        assert!(ev.is_empty());
        assert!(!link.busy);
    }

    #[test]
    fn down_link_destroys_offers_and_freezes_backlog() {
        let mut link = mk_link(10, 0);
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        // Queue two packets, let the first start serializing.
        link.offer(pkt(0, 1250), SimTime::ZERO, &mut ev, &mut rng);
        link.offer(pkt(1, 1250), SimTime::ZERO, &mut ev, &mut rng);
        link.set_down();
        assert!(!link.is_up());
        // Offers during the outage are destroyed.
        link.offer(pkt(2, 1250), SimTime::ZERO, &mut ev, &mut rng);
        assert_eq!(link.stats().down_drops, 1);
        // The in-flight packet still completes...
        let (t1, _) = ev.pop().unwrap(); // TxDone pkt0
        let (_, _) = ev.pop().unwrap(); // Deliver pkt0
        link.on_tx_done(t1, &mut ev, &mut rng);
        // ...but the frozen transmitter does not pick up the backlog.
        assert!(ev.is_empty(), "down link must not serialize the backlog");
        assert!(!link.busy);
        // Coming back up resumes transmission of the surviving packet.
        link.set_up(t1, &mut ev, &mut rng);
        let (_, e) = ev.pop().unwrap();
        assert!(matches!(e, Event::LinkTxDone { .. }));
        assert_eq!(link.stats().pkts_tx, 2);
    }

    #[test]
    fn fault_actions_change_rate_delay_and_loss() {
        // Only the loss model changes: a fault leaves rate and delay alone.
        let mut link = mk_link(10, 5);
        let mut ev = EventQueue::new();
        let mut rng = SmallRng::seed_from_u64(0);
        link.apply_fault(
            FaultAction::SetLossModel(LossModel::Bernoulli { p: 1.0 }),
            SimTime::ZERO,
            &mut ev,
            &mut rng,
        );
        assert_eq!(link.stats().fault_events_applied, 1);
        assert_eq!((link.rate, link.prop), (Bandwidth::from_mbps(10), SimDuration::from_millis(5)));
        link.offer(pkt(0, 1250), SimTime::ZERO, &mut ev, &mut rng);
        // 1250 B at 10 Mbps = 1 ms serialization; loss model eats delivery.
        let (t1, e1) = ev.pop().unwrap();
        assert_eq!(t1, SimTime::from_nanos(1_000_000));
        assert!(matches!(e1, Event::LinkTxDone { .. }));
        assert!(ev.pop().is_none());
        assert_eq!(link.stats().fault_losses, 1);
    }
}
