//! The TCP sender endpoint: window management, SACK-driven recovery, RTO,
//! pacing, and delivery-rate sampling for model-based CCAs.
//!
//! The sender models an *elephant flow*: an unbounded source (iperf3-style)
//! that always has data to send. Sequence numbers count MSS-sized segments.

use crate::rate;
use crate::rtt::RttEstimator;
use crate::scoreboard::{PktMeta, PktState, Scoreboard};
use elephants_cca::{AckEvent, CongestionControl, LossEvent};
use elephants_netsim::{
    CheckFailure, Ctx, EndpointReport, FlowEndpoint, FlowProbe, NodeId, Packet, PacketKind,
    SimDuration, SimTime, TimerKind,
};
use std::any::Any;

/// Duplicate-ACK / SACK reordering threshold, in segments.
pub const DUPTHRESH: u64 = 3;

/// Burst cap per send opportunity when unpaced, in segments.
const MAX_BURST: u32 = 64;

/// Sender configuration.
#[derive(Debug, Clone, Copy)]
pub struct SenderConfig {
    /// Maximum segment size in bytes (on-wire size of data packets).
    pub mss: u32,
    /// Negotiate ECN (ECT(0) on data packets).
    pub ecn: bool,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig { mss: 8900, ecn: false }
    }
}

/// The sender endpoint for one flow.
pub struct TcpSender {
    cfg: SenderConfig,
    peer: NodeId,
    cca: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    board: Scoreboard,
    // --- delivery-rate sampling (Linux tcp_rate.c) ---
    delivered: u64,
    delivered_time: SimTime,
    first_tx_time: SimTime,
    // --- round tracking (for BBR) ---
    next_round_delivered: u64,
    round_count: u64,
    // --- recovery state ---
    recovery_high: Option<u64>,
    /// True between an RTO firing and either spurious-undo or episode end.
    rto_episode: bool,
    /// Spurious RTOs detected and undone (F-RTO/Eifel).
    spurious_rtos: u64,
    // --- RTO management ---
    rto_deadline: Option<SimTime>,
    rto_timer_scheduled_at: Option<SimTime>,
    // --- pacing ---
    next_release: SimTime,
    pace_timer_at: Option<SimTime>,
    // --- stats ---
    segments_sent: u64,
    retransmits: u64,
    retransmits_at_mark: u64,
    rto_count: u64,
    ecn_echoes: u64,
    started: bool,
}

impl TcpSender {
    /// A sender towards `peer` driven by the given congestion controller.
    pub fn new(cfg: SenderConfig, peer: NodeId, cca: Box<dyn CongestionControl>) -> Self {
        TcpSender {
            cfg,
            peer,
            cca,
            rtt: RttEstimator::new(),
            board: Scoreboard::new(),
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_tx_time: SimTime::ZERO,
            next_round_delivered: 0,
            round_count: 0,
            recovery_high: None,
            rto_episode: false,
            spurious_rtos: 0,
            rto_deadline: None,
            rto_timer_scheduled_at: None,
            next_release: SimTime::ZERO,
            pace_timer_at: None,
            segments_sent: 0,
            retransmits: 0,
            retransmits_at_mark: 0,
            rto_count: 0,
            ecn_echoes: 0,
            started: false,
        }
    }

    /// The congestion controller (for inspection).
    pub fn cca(&self) -> &dyn CongestionControl {
        self.cca.as_ref()
    }

    /// Bytes currently in flight.
    pub fn inflight_bytes(&self) -> u64 {
        self.board.inflight_segments() * self.cfg.mss as u64
    }

    /// Whether the sender is in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery_high.is_some()
    }

    /// Total retransmitted segments so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Current round count (test hook).
    pub fn rounds(&self) -> u64 {
        self.round_count
    }

    /// Spurious RTOs detected and undone (test hook).
    pub fn spurious_rtos(&self) -> u64 {
        self.spurious_rtos
    }

    fn fresh_meta(&self, now: SimTime) -> PktMeta {
        PktMeta {
            state: PktState::Outstanding,
            tx_time: now,
            retx: false,
            delivered_at_send: self.delivered,
            delivered_time_at_send: self.delivered_time,
            first_tx_at_send: self.first_tx_time,
            app_limited_at_send: false,
        }
    }

    fn transmit_new(&mut self, ctx: &mut Ctx) {
        let seq = self.board.snd_nxt();
        if self.board.is_empty() {
            // Pipe was empty: restart the rate-sample send window.
            self.first_tx_time = ctx.now;
            if self.delivered_time == SimTime::ZERO && self.delivered == 0 {
                self.delivered_time = ctx.now;
            }
        }
        let meta = self.fresh_meta(ctx.now);
        self.board.push_sent(seq, meta);
        let mut pkt = Packet::data(ctx.flow, ctx.local, self.peer, seq, self.cfg.mss, ctx.now);
        pkt.ecn_capable = self.cfg.ecn;
        ctx.send(pkt);
        self.segments_sent += 1;
    }

    fn transmit_retx(&mut self, seq: u64, ctx: &mut Ctx) {
        let meta = self.fresh_meta(ctx.now);
        self.board.mark_retransmitted(seq, meta);
        let mut pkt = Packet::data(ctx.flow, ctx.local, self.peer, seq, self.cfg.mss, ctx.now);
        pkt.ecn_capable = self.cfg.ecn;
        pkt.retx = true;
        ctx.send(pkt);
        self.segments_sent += 1;
        self.retransmits += 1;
    }

    /// Send as much as the window (and pacing) allows.
    fn try_send(&mut self, ctx: &mut Ctx) {
        let mss = self.cfg.mss as u64;
        let pacing = self.cca.pacing_rate();
        let mut burst_left = MAX_BURST;

        loop {
            let cwnd = self.cca.cwnd().max(mss);
            let inflight = self.board.inflight_segments() * mss;
            let has_retx = self.board.lost_pending() > 0;
            let want_new = inflight + mss <= cwnd;
            // Retransmissions get priority and a little window grace.
            let want_retx = has_retx && inflight < cwnd + mss;
            if !want_new && !want_retx {
                break;
            }
            if let Some(rate_bps) = pacing {
                if rate_bps == 0 {
                    break;
                }
                if ctx.now < self.next_release {
                    self.arm_pace_timer(ctx);
                    break;
                }
            } else if burst_left == 0 {
                // Unpaced sender: bound the burst per opportunity; the rest
                // goes out on subsequent ACK clocks (approximates the NIC
                // queue draining without modelling TSO).
                break;
            }

            if want_retx {
                let seq = self.board.next_lost().expect("lost_pending > 0");
                self.transmit_retx(seq, ctx);
            } else {
                self.transmit_new(ctx);
            }
            burst_left = burst_left.saturating_sub(1);
            if let Some(rate_bps) = pacing {
                let gap = SimDuration::from_nanos(
                    (self.cfg.mss as u128 * 8 * 1_000_000_000 / rate_bps as u128) as u64,
                );
                let base = if self.next_release > ctx.now { self.next_release } else { ctx.now };
                self.next_release = base + gap;
            }
        }
        self.ensure_rto_armed(ctx);
    }

    fn arm_pace_timer(&mut self, ctx: &mut Ctx) {
        if self.pace_timer_at != Some(self.next_release) {
            self.pace_timer_at = Some(self.next_release);
            ctx.set_timer(TimerKind::Pace, self.next_release);
        }
    }

    fn ensure_rto_armed(&mut self, ctx: &mut Ctx) {
        if self.board.is_empty() {
            self.rto_deadline = None;
            return;
        }
        // Anchor the deadline to the oldest in-flight transmission, not to
        // "now": otherwise a permanently stalled hole (retransmission lost
        // again) never times out as long as other ACKs keep arriving.
        let anchor = self.board.first_inflight_tx_time().unwrap_or(ctx.now);
        let deadline = self.rtt.rto_deadline(anchor).max(ctx.now);
        self.rto_deadline = Some(deadline);
        // Lazy re-arm: leave an already-pending earlier firing in place (it
        // re-checks the live deadline when it fires) instead of re-arming on
        // every ACK, which would churn the event queue.
        match self.rto_timer_scheduled_at {
            Some(at) if at <= deadline && at > ctx.now => {}
            _ => {
                self.rto_timer_scheduled_at = Some(deadline);
                ctx.set_timer(TimerKind::Rto, deadline);
            }
        }
    }

    fn handle_rto_fired(&mut self, ctx: &mut Ctx) {
        self.rto_timer_scheduled_at = None;
        let Some(deadline) = self.rto_deadline else { return };
        if ctx.now < deadline {
            // Data was acked since; re-arm at the true deadline.
            self.rto_timer_scheduled_at = Some(deadline);
            ctx.set_timer(TimerKind::Rto, deadline);
            return;
        }
        if self.board.is_empty() {
            self.rto_deadline = None;
            return;
        }
        // Genuine timeout (possibly spurious; detected on later ACKs).
        self.rto_count += 1;
        self.rto_episode = true;
        self.rtt.backoff();
        self.cca.on_rto(ctx.now);
        self.board.mark_all_lost();
        // RTO ends any fast-recovery episode; the retransmission sweep
        // restarts from snd_una.
        self.recovery_high = Some(self.board.snd_nxt());
        self.next_release = ctx.now;
        self.try_send(ctx);
    }

    fn process_ack(&mut self, info: &elephants_netsim::AckInfo, ecn_echo: bool, ctx: &mut Ctx) {
        let mss = self.cfg.mss as u64;
        let now = ctx.now;

        // Gather newly delivered segments (cumulative + SACK), tracking the
        // most recently transmitted one for the rate sample and RTT.
        let mut newly_acked_bytes: u64 = 0;
        let mut sample: Option<PktMeta> = None;
        let mut rtt_sample: Option<SimDuration> = None;

        let mut spurious_evidence = false;
        if info.cum > self.board.snd_una() {
            // One scoreboard pass folds the whole cumulative advance — a
            // GRO-coalesced ACK can cover dozens of segments — into a
            // fixed-size batch. Sacked segments were already counted as
            // delivered; a Lost-but-never-retransmitted segment covered
            // cumulatively is F-RTO/Eifel evidence the timeout in progress
            // was spurious (its original transmission arrived).
            let batch = self.board.advance_una_batch(info.cum);
            newly_acked_bytes += batch.newly_acked * mss;
            if self.rto_episode && batch.lost_never_retx {
                spurious_evidence = true;
            }
            sample = batch.sample;
            if let Some(tx) = batch.latest_clean_tx {
                let r = now.since(tx);
                rtt_sample = Some(rtt_sample.map_or(r, |x: SimDuration| x.min(r)));
            }
        }
        for (s, e) in info.sack_ranges() {
            self.board.apply_sack(s, e, |_seq, meta| {
                newly_acked_bytes += mss;
                if sample.is_none_or(|s| meta.delivered_at_send >= s.delivered_at_send) {
                    sample = Some(*meta);
                }
                if !meta.retx {
                    let r = now.since(meta.tx_time);
                    rtt_sample = Some(rtt_sample.map_or(r, |x: SimDuration| x.min(r)));
                }
            });
        }

        if newly_acked_bytes > 0 {
            self.delivered += newly_acked_bytes;
            self.delivered_time = now;
        }
        if spurious_evidence {
            // Undo the collapse: restore the window and put the falsely
            // "lost" segments back in flight.
            self.spurious_rtos += 1;
            self.rto_episode = false;
            self.recovery_high = None;
            self.board.revert_lost_to_outstanding();
            self.cca.on_spurious_rto(now);
        }
        if let Some(r) = rtt_sample {
            self.rtt.on_sample(r);
        }

        // Round accounting (Linux: round advances when a packet sent after
        // the previous round's delivered milestone is acked).
        let mut round_start = false;
        if let Some(s) = sample {
            if s.delivered_at_send >= self.next_round_delivered {
                self.next_round_delivered = self.delivered;
                self.round_count += 1;
                round_start = true;
            }
        }

        // Delivery-rate sample (Linux tcp_rate_gen).
        let delivery_rate = sample.and_then(|s| {
            rate::delivery_rate_bps(
                self.delivered,
                s.delivered_at_send,
                s.tx_time,
                s.first_tx_at_send,
                now,
                s.delivered_time_at_send,
            )
        });
        if let Some(s) = sample {
            // Slide the send-rate window start to this sample's tx time.
            if s.tx_time > self.first_tx_time {
                self.first_tx_time = s.tx_time;
            }
        }

        // Loss detection (FACK-style with DUPTHRESH).
        let mut newly_lost = 0u64;
        self.board.detect_losses(DUPTHRESH, |_seq| newly_lost += mss);

        // Recovery entry / exit.
        if newly_lost > 0 && self.recovery_high.is_none() {
            self.recovery_high = Some(self.board.snd_nxt());
            let ev = LossEvent {
                now,
                inflight: self.board.inflight_segments() * mss,
                delivered: self.delivered,
                min_rtt: self.rtt.min_rtt().unwrap_or(SimDuration::from_millis(1)),
                max_rtt_epoch: self.rtt.latest().unwrap_or(SimDuration::from_millis(1)),
            };
            self.cca.on_loss_event(&ev);
        }
        let mut exited_recovery = false;
        if let Some(high) = self.recovery_high {
            if self.board.snd_una() >= high {
                self.recovery_high = None;
                self.rto_episode = false;
                exited_recovery = true;
            }
        }

        // Hand the ACK to the congestion controller.
        if ecn_echo {
            self.ecn_echoes += 1;
        }
        let srtt = self.rtt.srtt().unwrap_or(SimDuration::from_millis(1));
        let ev = AckEvent {
            now,
            rtt: self.rtt.latest().unwrap_or(srtt),
            min_rtt: self.rtt.min_rtt().unwrap_or(srtt),
            srtt,
            newly_acked: newly_acked_bytes,
            newly_lost,
            inflight: self.board.inflight_segments() * mss,
            delivery_rate,
            app_limited: sample.map(|s| s.app_limited_at_send).unwrap_or(false),
            delivered: self.delivered,
            round_start,
            ecn_ce: ecn_echo,
        };
        self.cca.on_ack(&ev, self.in_recovery());
        if exited_recovery {
            self.cca.on_recovery_exit(now);
        }

        self.try_send(ctx);
    }
}

impl FlowEndpoint for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = true;
        self.next_release = ctx.now;
        self.try_send(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if let PacketKind::Ack(info) = pkt.kind {
            self.process_ack(&info, info.ecn_echo, ctx);
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        match kind {
            TimerKind::Pace => {
                // Re-arming cancels superseded instances, so any firing
                // that reaches us is the live one.
                self.pace_timer_at = None;
                self.try_send(ctx);
            }
            TimerKind::Rto => self.handle_rto_fired(ctx),
            _ => {}
        }
    }

    fn on_mark(&mut self, _now: SimTime) {
        self.retransmits_at_mark = self.retransmits;
    }

    fn telemetry_probe(&self, _now: SimTime) -> Option<FlowProbe> {
        let snap = self.cca.state_snapshot();
        Some(FlowProbe {
            cwnd: snap.cwnd,
            pacing_rate: snap.pacing_rate,
            srtt: self.rtt.srtt(),
            inflight: self.inflight_bytes(),
            phase: snap.phase,
        })
    }

    fn check_invariants(&self) -> Vec<CheckFailure> {
        let mut fails = Vec::new();
        if !self.board.check_conservation() {
            let (o, s, l, r) = self.board.state_counts();
            let n = self.board.len();
            fails.push(CheckFailure::new(
                "scoreboard_conservation",
                format!("outstanding {o} + sacked {s} + lost {l} + lost_retx {r} != tracked {n}"),
            ));
        }
        let (una, nxt) = (self.board.snd_una(), self.board.snd_nxt());
        if una > nxt {
            fails.push(CheckFailure::new(
                "scoreboard_window",
                format!("snd_una {una} above snd_nxt {nxt}"),
            ));
        }
        let inflight = self.board.inflight_segments();
        if inflight > self.board.len() as u64 {
            let n = self.board.len();
            fails.push(CheckFailure::new(
                "scoreboard_inflight",
                format!("inflight {inflight} segments exceeds tracked {n}"),
            ));
        }
        fails.extend(self.cca.check_invariants(self.cfg.mss));
        fails
    }

    fn report(&self) -> EndpointReport {
        EndpointReport {
            data_segments_sent: self.segments_sent,
            retransmits: self.retransmits,
            retransmits_window: self.retransmits - self.retransmits_at_mark,
            rto_count: self.rto_count,
            min_rtt: self.rtt.min_rtt(),
            srtt: self.rtt.srtt(),
            ecn_marks: self.ecn_echoes,
            ..Default::default()
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
