//! The TCP receiver endpoint: reorder buffer, SACK generation, delayed ACKs.

use elephants_netsim::{
    AckInfo, Ctx, EndpointReport, FlowEndpoint, NodeId, Packet, SimDuration, SimTime, TimerKind,
    SACK_MAX,
};
use std::any::Any;
use std::collections::BTreeMap;

/// How a receiver ACKs in-order data. Under either policy, reordering,
/// duplicates and ECN marks force an immediate ACK, so loss recovery and
/// ECN feedback latency do not depend on the choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReceiverConfig {
    /// Linux delayed ACK, the paper's hosts (GRO/LRO off): ACK every
    /// second in-order segment, or 40 ms after an unacked one arrived.
    #[default]
    DelayedAck,
    /// GRO-style receive coalescing: aggregate up to 16 back-to-back
    /// in-order segments (~142 KB of paper-MSS data, comfortably under a
    /// 25 Gbps link's 50 µs of wire time) into one ACK, with a 500 µs
    /// flush deadline so low-rate flows still see a prompt ACK clock.
    Coalesced,
}

/// Delayed ACK: in-order segments per ACK, and the timer for a lone one.
const DELACK_SEGS: u32 = 2;
const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);
/// Coalescing: the batch size, and the flush deadline of a partial batch.
const COALESCE_SEGS: u32 = 16;
const COALESCE_TIMEOUT: SimDuration = SimDuration::from_micros(500);

impl ReceiverConfig {
    /// The coalescing preset, [`ReceiverConfig::Coalesced`].
    pub fn coalesced() -> Self {
        ReceiverConfig::Coalesced
    }
}

/// The receiver endpoint for one flow.
pub struct TcpReceiver {
    /// In-order segments that trigger an ACK.
    ack_threshold: u32,
    /// Deadline for ACKing fewer than `ack_threshold` segments.
    flush_after: SimDuration,
    peer: NodeId,
    /// Next expected in-order sequence.
    rcv_nxt: u64,
    /// Out-of-order ranges `[start, end)`, disjoint and non-adjacent.
    ooo: BTreeMap<u64, u64>,
    /// Most recently changed SACK ranges (newest first).
    recent_sacks: Vec<(u64, u64)>,
    /// Unacked in-order arrivals since the last ACK.
    unacked_count: u32,
    delack_deadline: Option<SimTime>,
    ack_serial: u64,
    /// Pending ECN echo (a CE-marked packet arrived).
    ecn_pending: bool,
    // Stats.
    delivered_bytes: u64,
    delivered_segments: u64,
    delivered_bytes_at_mark: u64,
    ecn_marks: u64,
}

impl TcpReceiver {
    /// A receiver whose ACKs go to `peer`.
    pub fn new(cfg: ReceiverConfig, peer: NodeId) -> Self {
        let (ack_threshold, flush_after) = match cfg {
            ReceiverConfig::DelayedAck => (DELACK_SEGS, DELACK_TIMEOUT),
            ReceiverConfig::Coalesced => (COALESCE_SEGS, COALESCE_TIMEOUT),
        };
        TcpReceiver {
            ack_threshold,
            flush_after,
            peer,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            recent_sacks: Vec::with_capacity(4),
            unacked_count: 0,
            delack_deadline: None,
            ack_serial: 0,
            ecn_pending: false,
            delivered_bytes: 0,
            delivered_segments: 0,
            delivered_bytes_at_mark: 0,
            ecn_marks: 0,
        }
    }

    /// Total delivered payload bytes.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    fn note_delivered(&mut self, bytes: u64) {
        self.delivered_bytes += bytes;
        self.delivered_segments += 1;
    }

    /// Insert an out-of-order segment `[seq, seq+1)`, merging neighbours.
    fn insert_ooo(&mut self, seq: u64) -> (u64, u64) {
        let mut start = seq;
        let mut end = seq + 1;
        // Merge with a predecessor range that touches us.
        if let Some((&ps, &pe)) = self.ooo.range(..=seq).next_back() {
            if pe >= seq {
                if pe >= end {
                    // Duplicate: fully contained.
                    return (ps, pe);
                }
                start = ps;
                self.ooo.remove(&ps);
            }
        }
        // Merge with successor ranges we now touch.
        while let Some((&ns, &ne)) = self.ooo.range(start..).next() {
            if ns <= end {
                end = end.max(ne);
                self.ooo.remove(&ns);
            } else {
                break;
            }
        }
        self.ooo.insert(start, end);
        (start, end)
    }

    fn remember_sack(&mut self, range: (u64, u64)) {
        // Keep only entries disjoint from the new range (overlapping or
        // contained ones are superseded by it).
        self.recent_sacks.retain(|r| r.1 < range.0 || range.1 < r.0);
        self.recent_sacks.insert(0, range);
        self.recent_sacks.truncate(SACK_MAX);
    }

    fn build_ack(&mut self, ctx: &Ctx) -> Packet {
        let mut info = AckInfo::cumulative(self.rcv_nxt);
        let mut n = 0usize;
        for &(s, e) in &self.recent_sacks {
            if e <= self.rcv_nxt {
                continue; // already covered cumulatively
            }
            info.sacks[n] = (s.max(self.rcv_nxt), e);
            n += 1;
            if n == SACK_MAX {
                break;
            }
        }
        info.n_sacks = n as u8;
        info.ecn_echo = self.ecn_pending;
        self.ecn_pending = false;
        self.ack_serial += 1;
        Packet::ack(ctx.flow, ctx.local, self.peer, self.ack_serial, info, ctx.now)
    }

    fn send_ack(&mut self, ctx: &mut Ctx) {
        let ack = self.build_ack(ctx);
        ctx.send(ack);
        self.unacked_count = 0;
        // An immediate ACK covers the pending delayed one: disarm it so the
        // simulator never dispatches the superseded firing.
        if self.delack_deadline.take().is_some() {
            ctx.cancel_timer(TimerKind::DelAck);
        }
    }
}

impl FlowEndpoint for TcpReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if !pkt.is_data() {
            return;
        }
        if pkt.ecn_ce {
            self.ecn_pending = true;
            self.ecn_marks += 1;
        }
        let seq = pkt.seq;
        let mut out_of_order = false;
        if seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.note_delivered(pkt.size as u64);
            // Pull in any now-contiguous out-of-order data.
            if let Some((&s, &e)) = self.ooo.iter().next() {
                if s == self.rcv_nxt {
                    self.ooo.remove(&s);
                    let n = e - s;
                    self.rcv_nxt = e;
                    for _ in 0..n {
                        self.note_delivered(pkt.size as u64);
                    }
                }
            }
            self.unacked_count += 1;
        } else if seq > self.rcv_nxt {
            let range = self.insert_ooo(seq);
            self.remember_sack(range);
            out_of_order = true;
        } else {
            // Duplicate of already-delivered data (spurious retransmission):
            // ACK immediately so the sender resynchronizes.
            out_of_order = true;
        }

        // Immediate ACK on reordering/dup/ECN; otherwise the delayed-ACK
        // policy, or — when receive coalescing is on — the GRO-style batch
        // policy (bigger count budget, much shorter flush deadline).
        if out_of_order || self.ecn_pending || self.unacked_count >= self.ack_threshold {
            self.send_ack(ctx);
        } else if self.delack_deadline.is_none() {
            let at = ctx.now + self.flush_after;
            self.delack_deadline = Some(at);
            ctx.set_timer(TimerKind::DelAck, at);
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        // Superseded firings are cancelled at the source, so a DelAck
        // arriving here is always the live one.
        if kind == TimerKind::DelAck {
            self.delack_deadline = None;
            if self.unacked_count > 0 {
                self.send_ack(ctx);
            }
        }
    }

    fn on_mark(&mut self, _now: SimTime) {
        self.delivered_bytes_at_mark = self.delivered_bytes;
    }

    fn report(&self) -> EndpointReport {
        EndpointReport {
            delivered_bytes: self.delivered_bytes,
            delivered_bytes_window: self.delivered_bytes - self.delivered_bytes_at_mark,
            delivered_segments: self.delivered_segments,
            ecn_marks: self.ecn_marks,
            ..Default::default()
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_netsim::{PacketKind, SimConfig, Simulator, TopologySpec};
    use elephants_netsim::Bandwidth;

    // The Ctx type cannot be constructed outside the simulator, so receiver
    // behaviour is tested through one-flow micro-simulations.

    struct ScriptedSender {
        peer: NodeId,
        script: Vec<(u64, u64)>, // (µs from start, seq), chronological
        /// The seq sent with its CE mark set, if any.
        ce: Option<u64>,
        next: usize,
        acks_seen: Vec<AckInfo>,
    }

    impl ScriptedSender {
        /// Arm one chained timer for the next scripted transmission (only
        /// one instance of a timer kind can be armed at a time).
        fn arm_next(&self, ctx: &mut Ctx) {
            if let Some(&(us, _)) = self.script.get(self.next) {
                ctx.set_timer(TimerKind::Pace, SimTime::ZERO + SimDuration::from_micros(us));
            }
        }
    }

    impl FlowEndpoint for ScriptedSender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.arm_next(ctx);
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
            if let PacketKind::Ack(info) = pkt.kind {
                self.acks_seen.push(info);
            }
        }
        fn on_timer(&mut self, _kind: TimerKind, ctx: &mut Ctx) {
            let (_, seq) = self.script[self.next];
            self.next += 1;
            let mut pkt = Packet::data(ctx.flow, ctx.local, self.peer, seq, 1000, ctx.now);
            pkt.ecn_ce = self.ce == Some(seq);
            ctx.send(pkt);
            self.arm_next(ctx);
        }
        fn report(&self) -> EndpointReport {
            EndpointReport::default()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn run_script(script: Vec<(u64, u64)>, cfg: ReceiverConfig) -> (Vec<AckInfo>, EndpointReport) {
        run_marked(script, None, cfg)
    }

    fn run_marked(
        script: Vec<(u64, u64)>,
        ce: Option<u64>,
        cfg: ReceiverConfig,
    ) -> (Vec<AckInfo>, EndpointReport) {
        let rtt = SimDuration::from_millis(62);
        let topo = TopologySpec::Dumbbell.build(Bandwidth::from_gbps(1), rtt).unwrap();
        let (s, r) = (topo.sender_hosts()[0], topo.receiver_hosts()[0]);
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                duration: SimDuration::from_secs(3),
                warmup: SimDuration::ZERO,
                max_events: 1_000_000,
            },
            7,
        );
        let flow = sim.add_flow(
            s,
            r,
            Box::new(ScriptedSender { peer: r, script, ce, next: 0, acks_seen: vec![] }),
            Box::new(TcpReceiver::new(cfg, s)),
            SimTime::ZERO,
        );
        let summary = sim.run();
        let sender = sim.sender(flow).as_any().downcast_ref::<ScriptedSender>().unwrap();
        (sender.acks_seen.clone(), summary.flows[flow.0 as usize].receiver)
    }

    #[test]
    fn in_order_delivery_acks_every_second_segment() {
        let script = (0..6).map(|i| (i * 10_000, i)).collect();
        let (acks, rep) = run_script(script, ReceiverConfig::default());
        assert_eq!(rep.delivered_segments, 6);
        assert_eq!(rep.delivered_bytes, 6000);
        // Every second segment: cumulative ACKs at 2, 4, 6.
        let cums: Vec<u64> = acks.iter().map(|a| a.cum).collect();
        assert_eq!(cums, vec![2, 4, 6]);
        assert!(acks.iter().all(|a| a.n_sacks == 0));
    }

    #[test]
    fn gap_triggers_immediate_sack() {
        // Sequence 0, 2 (gap at 1), then 1 heals it.
        let script = vec![(0, 0), (10_000, 2), (20_000, 1)];
        let (acks, rep) = run_script(script, ReceiverConfig::default());
        assert_eq!(rep.delivered_segments, 3);
        // The out-of-order arrival of 2 forces an immediate ACK with a SACK.
        let sacked = acks.iter().find(|a| a.n_sacks > 0).expect("expected SACK");
        assert_eq!(sacked.cum, 1);
        assert_eq!(sacked.sacks[0], (2, 3));
        // Final cumulative must reach 3.
        assert_eq!(acks.last().unwrap().cum, 3);
    }

    #[test]
    fn multiple_gaps_reported_as_multiple_sacks() {
        // Receive 0, 2, 4, 6: three OOO ranges after seq 0.
        let script = vec![(0, 0), (10_000, 2), (20_000, 4), (30_000, 6)];
        let (acks, _) = run_script(script, ReceiverConfig::default());
        let last = acks.last().unwrap();
        assert_eq!(last.cum, 1);
        assert_eq!(last.n_sacks, 3);
        let mut got: Vec<(u64, u64)> = last.sack_ranges().collect();
        got.sort();
        assert_eq!(got, vec![(2, 3), (4, 5), (6, 7)]);
    }

    #[test]
    fn adjacent_ooo_ranges_merge() {
        let script = vec![(0, 0), (10_000, 3), (20_000, 2)];
        let (acks, _) = run_script(script, ReceiverConfig::default());
        let last = acks.last().unwrap();
        assert_eq!(last.cum, 1);
        assert_eq!(last.n_sacks, 1);
        assert_eq!(last.sacks[0], (2, 4));
    }

    #[test]
    fn duplicate_data_is_acked_immediately() {
        let script = vec![(0, 0), (10_000, 1), (20_000, 0)]; // dup of 0
        let (acks, rep) = run_script(script, ReceiverConfig::default());
        assert_eq!(rep.delivered_segments, 2, "duplicate must not double-count");
        // Three ACKs: delayed/2nd-seg ack, then immediate dup-ack.
        assert!(acks.len() >= 2);
        assert_eq!(acks.last().unwrap().cum, 2);
    }

    #[test]
    fn delayed_ack_timer_fires_for_odd_tail() {
        let script = vec![(0, 0)]; // a single segment, below the ACK count
        let (acks, _) = run_script(script, ReceiverConfig::default());
        assert_eq!(acks.len(), 1, "delack timer must flush the pending ACK");
        assert_eq!(acks[0].cum, 1);
    }

    #[test]
    fn coalescing_batches_in_order_segments_into_one_ack() {
        // 32 back-to-back segments, 10 µs apart: two full 16-segment batches.
        let script = (0..32).map(|i| (i * 10, i)).collect();
        let (acks, rep) = run_script(script, ReceiverConfig::coalesced());
        assert_eq!(rep.delivered_segments, 32, "coalescing must not lose data");
        let cums: Vec<u64> = acks.iter().map(|a| a.cum).collect();
        assert_eq!(cums, vec![16, 32], "16-segment batches → one ACK per batch");
    }

    #[test]
    fn coalescing_flush_timer_flushes_partial_batch() {
        let script = vec![(0, 0), (10, 1), (20, 2)];
        let (acks, rep) = run_script(script, ReceiverConfig::coalesced());
        assert_eq!(rep.delivered_segments, 3);
        assert_eq!(acks.len(), 1, "partial batch must be flushed by the timer");
        assert_eq!(acks[0].cum, 3);
    }

    #[test]
    fn coalescing_still_acks_reordering_immediately() {
        // Seq 2 arrives out of order: the SACK must go out at once, not
        // wait out the coalescing budget, or fast retransmit stalls.
        let script = vec![(0, 0), (10, 2), (20, 1)];
        let (acks, _) = run_script(script, ReceiverConfig::coalesced());
        let sacked = acks.iter().find(|a| a.n_sacks > 0).expect("expected immediate SACK");
        assert_eq!(sacked.cum, 1);
        assert_eq!(sacked.sacks[0], (2, 3));
        assert_eq!(acks.last().unwrap().cum, 3);
    }

    #[test]
    fn coalescing_still_acks_duplicates_and_ce_marks_immediately() {
        // Seq 0 again, then a CE-marked seq 2: each is ACKed on arrival,
        // ahead of the 500 µs flush deadline.
        let script = vec![(0, 0), (10, 1), (20, 0), (30, 2)];
        let (acks, rep) = run_marked(script, Some(2), ReceiverConfig::coalesced());
        assert_eq!(rep.delivered_segments, 3, "duplicate must not double-count");
        assert_eq!(rep.ecn_marks, 1);
        let cums: Vec<u64> = acks.iter().map(|a| a.cum).collect();
        assert_eq!(cums, vec![2, 3], "one ACK for the duplicate, one for the mark");
        assert!(acks[1].ecn_echo);
    }
}
