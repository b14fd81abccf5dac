//! Hamilton TCP (Leith & Shorten 2004) — adaptive AIMD for high
//! bandwidth-delay-product paths.
//!
//! H-TCP scales its additive-increase factor α with the *time elapsed since
//! the last congestion event* (so long-running loss-free flows accelerate),
//! and adapts its backoff factor β to the ratio `RTT_min / RTT_max` of the
//! last congestion epoch. The adaptive β is the behaviour the paper leans
//! on: as FIFO bufferbloat inflates `RTT_max`, β falls toward 0.5 and H-TCP
//! cedes buffer space that CUBIC then occupies (paper §5.1).

use crate::loss_based::{take_whole, GrowthLaw, LossBased};
use crate::{AckEvent, LossEvent};
use elephants_netsim::{SimDuration, SimTime};

/// Low-speed regime length Δ_L: below this time since the last loss,
/// behave like Reno (α = 1).
const DELTA_L: SimDuration = SimDuration::from_secs(1);
/// Clamp for the adaptive β = RTT_min / RTT_max.
const BETA_MIN: f64 = 0.5;
const BETA_MAX: f64 = 0.8;
/// Relative throughput change between epochs that resets β to 0.5.
const THROUGHPUT_JUMP: f64 = 0.2;

/// The H-TCP congestion controller.
pub type Htcp = LossBased<HtcpLaw>;

/// H-TCP's law: α(Δ) growth and the RTT-ratio backoff.
#[derive(Debug, Clone)]
pub struct HtcpLaw {
    /// When the current congestion epoch began (last loss; None = no loss yet).
    epoch_start: Option<SimTime>,
    /// Current backoff factor.
    beta: f64,
    /// RTT extremes observed during the current epoch.
    rtt_min_epoch: Option<SimDuration>,
    rtt_max_epoch: Option<SimDuration>,
    /// Delivered-byte counter at epoch start, for the throughput estimate.
    delivered_at_epoch: u64,
    /// Previous epoch's throughput estimate (bytes/s).
    prev_throughput: Option<f64>,
    /// Sub-segment growth accumulator.
    cwnd_cnt: f64,
}

impl Htcp {
    /// A fresh H-TCP controller with IW10.
    pub fn new(mss: u32) -> Self {
        let law = HtcpLaw {
            epoch_start: None,
            beta: BETA_MIN,
            rtt_min_epoch: None,
            rtt_max_epoch: None,
            delivered_at_epoch: 0,
            prev_throughput: None,
            cwnd_cnt: 0.0,
        };
        LossBased::with_law(mss, law)
    }

    /// Current backoff factor β (test hook).
    pub fn beta(&self) -> f64 {
        self.law.beta
    }

    /// Additive-increase factor α for elapsed time `delta` since last loss.
    pub fn alpha(&self, delta: SimDuration) -> f64 {
        self.law.alpha(delta)
    }
}

impl HtcpLaw {
    fn alpha(&self, delta: SimDuration) -> f64 {
        let raw = if delta <= DELTA_L {
            1.0
        } else {
            let d = (delta - DELTA_L).as_secs_f64();
            1.0 + 10.0 * d + 0.25 * d * d
        };
        // Compensate the adaptive backoff so average throughput is
        // independent of β (H-TCP spec: α ← 2(1-β)α).
        2.0 * (1.0 - self.beta) * raw
    }

    fn new_epoch(&mut self, now: SimTime) {
        self.cwnd_cnt = 0.0;
        self.epoch_start = Some(now);
        self.rtt_min_epoch = None;
        self.rtt_max_epoch = None;
    }
}

impl GrowthLaw for HtcpLaw {
    const NAME: &'static str = "htcp";
    const PHASE: &'static str = "htcp";

    fn on_any_ack(&mut self, ev: &AckEvent) {
        self.rtt_min_epoch = Some(self.rtt_min_epoch.map_or(ev.rtt, |m| m.min(ev.rtt)));
        self.rtt_max_epoch = Some(self.rtt_max_epoch.map_or(ev.rtt, |m| m.max(ev.rtt)));
    }

    /// cwnd += α/cwnd segments per ACKed segment.
    fn increase(&mut self, cwnd: u64, mss: u64, ev: &AckEvent) -> u64 {
        let delta = match self.epoch_start {
            Some(t0) => ev.now.since(t0),
            None => SimDuration::ZERO, // pre-first-loss: Reno-like α = 1
        };
        let acked_seg = ev.newly_acked as f64 / mss as f64;
        let cwnd_seg = cwnd as f64 / mss as f64;
        self.cwnd_cnt += self.alpha(delta) * acked_seg / cwnd_seg;
        take_whole(&mut self.cwnd_cnt)
    }

    fn loss_beta(&mut self, _cwnd: u64, _mss: u64, ev: &LossEvent) -> f64 {
        // β from the epoch's RTT excursion.
        let new_beta = match (self.rtt_min_epoch, self.rtt_max_epoch) {
            (Some(lo), Some(hi)) if hi.as_nanos() > 0 => {
                (lo.as_secs_f64() / hi.as_secs_f64()).clamp(BETA_MIN, BETA_MAX)
            }
            _ => BETA_MIN,
        };
        // Throughput jump check: a large change in achieved rate means
        // conditions shifted; fall back to conservative β = 0.5.
        let epoch_secs = self.epoch_start.map(|t0| ev.now.since(t0).as_secs_f64()).unwrap_or(0.0);
        let throughput = if epoch_secs > 0.0 {
            Some((ev.delivered.saturating_sub(self.delivered_at_epoch)) as f64 / epoch_secs)
        } else {
            None
        };
        self.beta = match (throughput, self.prev_throughput) {
            (Some(b1), Some(b0)) if b0 > 0.0 && ((b1 - b0) / b0).abs() > THROUGHPUT_JUMP => BETA_MIN,
            _ => new_beta,
        };
        self.prev_throughput = throughput.or(self.prev_throughput);
        self.new_epoch(ev.now);
        self.delivered_at_epoch = ev.delivered;
        self.beta
    }

    fn rto_beta(&mut self, _cwnd: u64, _mss: u64, now: SimTime) -> f64 {
        self.new_epoch(now);
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionControl;

    const MSS: u32 = 1000;

    fn ack_at(now_ms: u64, rtt_ms: u64, acked: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + SimDuration::from_millis(now_ms),
            rtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(62),
            srtt: SimDuration::from_millis(rtt_ms),
            newly_acked: acked,
            newly_lost: 0,
            inflight: 0,
            delivery_rate: None,
            app_limited: false,
            delivered: 0,
            round_start: false,
            ecn_ce: false,
            is_app_limited_now: false,
        }
    }

    fn loss_at(now_ms: u64, delivered: u64) -> LossEvent {
        LossEvent {
            now: SimTime::ZERO + SimDuration::from_millis(now_ms),
            inflight: 0,
            delivered,
            min_rtt: SimDuration::from_millis(62),
            max_rtt_epoch: SimDuration::from_millis(62),
        }
    }

    #[test]
    fn alpha_is_one_in_low_speed_regime() {
        let mut h = Htcp::new(MSS);
        h.law.beta = 0.5;
        assert_eq!(h.alpha(SimDuration::from_millis(500)), 1.0);
        assert_eq!(h.alpha(SimDuration::from_secs(1)), 1.0);
    }

    #[test]
    fn alpha_grows_quadratically_past_delta_l() {
        let h = Htcp::new(MSS);
        // Δ = 3 s → d = 2: α = 1 + 20 + 1 = 22.
        assert!((h.alpha(SimDuration::from_secs(3)) - 22.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_scaled_by_backoff_compensation() {
        let mut h = Htcp::new(MSS);
        h.law.beta = 0.8;
        // 2(1-0.8) = 0.4 scaling.
        assert!((h.alpha(SimDuration::from_secs(1)) - 0.4).abs() < 1e-9);
        h.law.beta = 0.5;
        assert!((h.alpha(SimDuration::from_secs(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_tracks_rtt_ratio() {
        let mut h = Htcp::new(MSS);
        h.ssthresh = h.cwnd; // CA
        // Epoch with RTT from 62 to 88.6 ms: β = 62/88.6 ≈ 0.7.
        h.on_ack(&ack_at(0, 62, 1000), false);
        h.on_ack(&ack_at(10, 88, 1000), false);
        h.on_loss_event(&loss_at(20, 1_000_000));
        assert!((h.beta() - 62.0 / 88.0).abs() < 1e-9, "beta = {}", h.beta());
    }

    #[test]
    fn beta_clamped_to_half_under_bufferbloat() {
        let mut h = Htcp::new(MSS);
        h.ssthresh = h.cwnd;
        // RTT doubles: ratio 0.31 clamps to 0.5.
        h.on_ack(&ack_at(0, 62, 1000), false);
        h.on_ack(&ack_at(10, 200, 1000), false);
        h.on_loss_event(&loss_at(20, 1_000_000));
        assert_eq!(h.beta(), 0.5);
    }

    #[test]
    fn beta_clamped_to_max_when_rtt_flat() {
        let mut h = Htcp::new(MSS);
        h.ssthresh = h.cwnd;
        h.on_ack(&ack_at(0, 62, 1000), false);
        h.on_ack(&ack_at(10, 62, 1000), false);
        h.on_loss_event(&loss_at(20, 1_000_000));
        assert_eq!(h.beta(), 0.8);
    }

    #[test]
    fn loss_multiplies_cwnd_by_beta() {
        let mut h = Htcp::new(MSS);
        h.cwnd = 100 * MSS as u64;
        h.ssthresh = h.cwnd;
        h.on_ack(&ack_at(0, 62, 1000), false);
        h.on_ack(&ack_at(10, 62, 1000), false);
        h.on_loss_event(&loss_at(20, 1_000_000));
        assert_eq!(h.cwnd(), 80 * MSS as u64); // β = 0.8
    }

    #[test]
    fn long_loss_free_epoch_accelerates_growth() {
        let mut h = Htcp::new(MSS);
        h.cwnd = 100 * MSS as u64;
        h.ssthresh = h.cwnd;
        h.on_loss_event(&loss_at(0, 0)); // epoch starts, cwnd -> 50 (β=0.5 default first loss... β from empty epoch = 0.5)
        let w0 = h.cwnd();
        // 0.5 s of ACKs: α = 1-regime.
        for i in 0..50 {
            h.on_ack(&ack_at(10 * i + 10, 62, 1000), false);
        }
        let early_gain = h.cwnd() - w0;
        // Now jump to 5 s since loss: α large.
        let w1 = h.cwnd();
        for i in 0..50 {
            h.on_ack(&ack_at(5000 + 10 * i, 62, 1000), false);
        }
        let late_gain = h.cwnd() - w1;
        assert!(late_gain > early_gain * 5, "late {late_gain} vs early {early_gain}");
    }

    #[test]
    fn rto_collapses_window() {
        let mut h = Htcp::new(MSS);
        h.cwnd = 40 * MSS as u64;
        h.on_rto(SimTime::ZERO);
        assert_eq!(h.cwnd(), MSS as u64);
        assert_eq!(h.ssthresh(), 20 * MSS as u64);
    }

    #[test]
    fn slow_start_respects_ssthresh_cap() {
        let mut h = Htcp::new(MSS);
        h.ssthresh = 12 * MSS as u64;
        // Two ACKs reach the threshold exactly; the flow leaves slow start.
        h.on_ack(&ack_at(0, 62, MSS as u64), false);
        h.on_ack(&ack_at(0, 62, MSS as u64), false);
        assert_eq!(h.cwnd(), 12 * MSS as u64);
        assert!(!h.in_slow_start());
        // Further ACKs grow in congestion avoidance, ~α/cwnd per ACK.
        for _ in 0..18 {
            h.on_ack(&ack_at(0, 62, MSS as u64), false);
        }
        assert!(h.cwnd() >= 12 * MSS as u64 && h.cwnd() <= 14 * MSS as u64);
    }
}
