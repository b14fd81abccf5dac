//! TCP CUBIC (Ha, Rhee & Xu 2008; RFC 8312), with HyStart.
//!
//! CUBIC replaces AIMD's linear growth with a cubic function of the time
//! since the last congestion event, anchored at the window size where the
//! loss occurred (`W_max`). It is the Linux default and the paper's
//! reference competitor in every inter-CCA experiment. Fast convergence and
//! the Reno-friendly region (RFC 8312 §4.2, §4.6) are always on, as in
//! Linux `tcp_cubic`.

use crate::loss_based::{take_whole, GrowthLaw, LossBased};
use crate::{AckEvent, LossEvent};
use elephants_netsim::{SimDuration, SimTime};

/// The cubic scaling constant `C` (segments/s³).
const C: f64 = 0.4;
/// Multiplicative-decrease factor β.
const BETA: f64 = 0.7;

/// HyStart (delay increase detection) per-round state.
#[derive(Debug, Clone, Copy, Default)]
struct HyStart {
    round_min_rtt: Option<SimDuration>,
    prev_round_min_rtt: Option<SimDuration>,
    samples: u32,
}

const HYSTART_MIN_SAMPLES: u32 = 8;

impl HyStart {
    fn on_round_start(&mut self) {
        self.prev_round_min_rtt = self.round_min_rtt.or(self.prev_round_min_rtt);
        self.round_min_rtt = None;
        self.samples = 0;
    }

    /// Returns true when the delay increase says "queue is building: leave
    /// slow start".
    fn on_rtt_sample(&mut self, rtt: SimDuration) -> bool {
        self.samples += 1;
        self.round_min_rtt = Some(match self.round_min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        if self.samples < HYSTART_MIN_SAMPLES {
            return false;
        }
        let (Some(cur), Some(prev)) = (self.round_min_rtt, self.prev_round_min_rtt) else {
            return false;
        };
        // eta = clamp(prev/8, 4ms, 16ms), per HyStart++ (RFC 9406).
        let eta = (prev / 8)
            .max(SimDuration::from_millis(4))
            .min(SimDuration::from_millis(16));
        cur >= prev + eta
    }
}

/// The CUBIC congestion controller.
pub type Cubic = LossBased<CubicLaw>;

/// CUBIC's law: the cubic epoch (segment units, like the reference impl).
#[derive(Debug, Clone, Default)]
pub struct CubicLaw {
    epoch_start: Option<SimTime>,
    w_max: f64,
    k: f64,
    origin_point: f64,
    /// Reno-friendly window estimate (segments).
    w_est: f64,
    /// Sub-MSS growth accumulator (Linux `snd_cwnd_cnt`).
    cwnd_cnt: f64,
    /// HyStart delay-based slow-start exit, when on.
    hystart: Option<HyStart>,
    /// `w_max` before the last RTO, for spurious-RTO undo.
    undo_w_max: f64,
}

impl Cubic {
    /// A fresh CUBIC controller with IW10, with or without HyStart.
    pub fn new(hystart: bool, mss: u32) -> Self {
        let hystart = hystart.then(HyStart::default);
        LossBased::with_law(mss, CubicLaw { hystart, ..Default::default() })
    }

    /// `W_max` in segments (test hook).
    pub fn w_max(&self) -> f64 {
        self.law.w_max
    }

    /// Time-to-origin `K` in seconds (test hook).
    pub fn k(&self) -> f64 {
        self.law.k
    }
}

impl CubicLaw {
    fn enter_epoch(&mut self, now: SimTime, cwnd: f64) {
        self.epoch_start = Some(now);
        if cwnd < self.w_max {
            self.k = ((self.w_max - cwnd) / C).cbrt();
            self.origin_point = self.w_max;
        } else {
            self.k = 0.0;
            self.origin_point = cwnd;
        }
        self.w_est = cwnd;
        self.cwnd_cnt = 0.0;
    }

    /// The cubic window W(t) in segments.
    fn w_cubic(&self, t: f64) -> f64 {
        self.origin_point + C * (t - self.k).powi(3)
    }
}

impl GrowthLaw for CubicLaw {
    const NAME: &'static str = "cubic";
    const PHASE: &'static str = "cubic";

    fn ends_slow_start(&mut self, ev: &AckEvent) -> bool {
        let Some(hystart) = &mut self.hystart else {
            return false;
        };
        if ev.round_start {
            hystart.on_round_start();
        }
        hystart.on_rtt_sample(ev.rtt)
    }

    fn increase(&mut self, cwnd: u64, mss: u64, ev: &AckEvent) -> u64 {
        let cwnd = cwnd as f64 / mss as f64;
        let epoch = match self.epoch_start {
            Some(t0) => t0,
            None => {
                self.enter_epoch(ev.now, cwnd);
                ev.now
            }
        };
        // Target the window one RTT into the future (RFC 8312 §4.1).
        let t = ev.now.since(epoch).as_secs_f64() + ev.min_rtt.as_secs_f64();
        let target = self.w_cubic(t);

        // Per-ACK increment: (target - cwnd)/cwnd segments, at most 1.5x
        // growth per RTT worth of ACKs (the reference's cnt >= 2 clamp is
        // approximated by capping the per-ack step at 0.5 segment).
        let acked_seg = ev.newly_acked as f64 / mss as f64;
        let mut inc = if target > cwnd {
            ((target - cwnd) / cwnd * acked_seg).min(0.5 * acked_seg)
        } else {
            // Stagnation: crawl at 1% of a segment per cwnd of ACKs.
            0.01 * acked_seg / cwnd
        };

        // Reno-equivalent growth: 3(1-β)/(1+β) segments per cwnd ACKed.
        let friendly_gain = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += friendly_gain * acked_seg / cwnd;
        if self.w_est > cwnd + self.cwnd_cnt + inc {
            inc = self.w_est - cwnd - self.cwnd_cnt;
        }

        self.cwnd_cnt += inc;
        take_whole(&mut self.cwnd_cnt)
    }

    fn loss_beta(&mut self, cwnd: u64, mss: u64, _ev: &LossEvent) -> f64 {
        self.epoch_start = None;
        let cwnd = cwnd as f64 / mss as f64;
        // Fast convergence: release more when losses come below W_max.
        self.w_max = if cwnd < self.w_max { cwnd * (2.0 - BETA) / 2.0 } else { cwnd };
        self.cwnd_cnt = 0.0;
        BETA
    }

    fn rto_beta(&mut self, cwnd: u64, mss: u64, _now: SimTime) -> f64 {
        self.undo_w_max = self.w_max;
        self.epoch_start = None;
        self.w_max = cwnd as f64 / mss as f64;
        self.cwnd_cnt = 0.0;
        BETA
    }

    fn undo_rto(&mut self) {
        self.w_max = self.undo_w_max;
        self.epoch_start = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionControl;

    const MSS: u32 = 1000;

    fn ack_at(now_ms: u64, acked: u64, rtt_ms: u64, round_start: bool) -> AckEvent {
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
            round_start,
            ecn_ce: false,
        }
    }

    fn loss() -> LossEvent {
        LossEvent {
            now: SimTime::ZERO,
            inflight: 0,
            delivered: 0,
            min_rtt: SimDuration::from_millis(62),
            max_rtt_epoch: SimDuration::from_millis(70),
        }
    }

    #[test]
    fn slow_start_growth() {
        let mut c = Cubic::new(false, MSS);
        let w = c.cwnd();
        for _ in 0..10 {
            c.on_ack(&ack_at(0, MSS as u64, 62, false), false);
        }
        assert_eq!(c.cwnd(), w + 10 * MSS as u64);
    }

    #[test]
    fn loss_reduces_by_beta_and_sets_wmax() {
        let mut c = Cubic::new(true, MSS);
        c.cwnd = 100 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss());
        assert_eq!(c.cwnd(), 70 * MSS as u64);
        assert!((c.w_max() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fast_convergence_lowers_wmax_on_back_to_back_losses() {
        let mut c = Cubic::new(true, MSS);
        c.cwnd = 100 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss()); // w_max = 100, cwnd = 70
        c.on_loss_event(&loss()); // cwnd(70) < w_max(100): w_max = 70*(2-0.7)/2 = 45.5
        assert!((c.w_max() - 45.5).abs() < 1e-9);
    }

    #[test]
    fn k_is_cube_root_of_deficit_over_c() {
        let mut c = Cubic::new(false, MSS);
        c.cwnd = 100 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss());
        // Trigger epoch start in CA.
        c.on_ack(&ack_at(100, MSS as u64, 62, false), false);
        // W_max=100, cwnd=70: K = cbrt((100-70)/0.4) = cbrt(75) ≈ 4.217 s.
        assert!((c.k() - 75f64.cbrt()).abs() < 1e-6, "K={}", c.k());
    }

    #[test]
    fn concave_region_grows_toward_wmax() {
        let mut c = Cubic::new(false, MSS);
        c.cwnd = 100 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss()); // cwnd -> 70
        let w0 = c.cwnd();
        // Feed two simulated RTTs of ACKs spread over K seconds.
        let mut t = 0u64;
        for _ in 0..200 {
            t += 25;
            let acked = c.cwnd() / 20;
            c.on_ack(&ack_at(t, acked, 62, false), false);
        }
        let w1 = c.cwnd();
        assert!(w1 > w0, "window must recover: {w0} -> {w1}");
        // After ~5 s (t > K ≈ 4.2 s) the window should be near/above W_max.
        assert!(w1 >= 95 * MSS as u64, "w1 = {}", w1 / MSS as u64);
    }

    #[test]
    fn convex_region_accelerates_past_wmax() {
        let mut c = Cubic::new(false, MSS);
        c.cwnd = 100 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss());
        // Push far past K.
        let mut t = 0u64;
        let mut grew_fast_late = 0u64;
        let mut prev = c.cwnd();
        for step in 0..400 {
            t += 25;
            let acked = c.cwnd() / 20;
            c.on_ack(&ack_at(t, acked, 62, false), false);
            if step == 300 {
                grew_fast_late = c.cwnd() - prev;
            }
            prev = c.cwnd();
        }
        assert!(c.cwnd() > 110 * MSS as u64, "convex growth expected, got {}", c.cwnd());
        let _ = grew_fast_late;
    }

    #[test]
    fn hystart_exits_slow_start_on_delay_increase() {
        let mut c = Cubic::new(true, MSS);
        // Round 1: baseline RTT 62 ms.
        c.on_ack(&ack_at(0, MSS as u64, 62, true), false);
        for i in 1..10 {
            c.on_ack(&ack_at(i, MSS as u64, 62, false), false);
        }
        assert!(c.in_slow_start());
        // Round 2: RTT inflated to 100 ms (queue building).
        c.on_ack(&ack_at(62, MSS as u64, 100, true), false);
        for i in 1..10 {
            c.on_ack(&ack_at(62 + i, MSS as u64, 100, false), false);
        }
        assert!(!c.in_slow_start(), "HyStart must cap ssthresh");
        assert_eq!(c.ssthresh(), c.cwnd());
    }

    #[test]
    fn hystart_tolerates_stable_rtt() {
        let mut c = Cubic::new(true, MSS);
        for round in 0..5 {
            c.on_ack(&ack_at(round * 62, MSS as u64, 62, true), false);
            for i in 1..12 {
                c.on_ack(&ack_at(round * 62 + i, MSS as u64, 62, false), false);
            }
        }
        assert!(c.in_slow_start(), "no delay increase, no exit");
    }

    #[test]
    fn rto_resets_to_one_segment() {
        let mut c = Cubic::new(true, MSS);
        c.cwnd = 50 * MSS as u64;
        c.on_rto(SimTime::ZERO);
        assert_eq!(c.cwnd(), MSS as u64);
        assert_eq!(c.ssthresh(), 35 * MSS as u64);
    }

    #[test]
    fn friendly_region_tracks_reno_under_small_bdp() {
        // With TCP friendliness on, CUBIC should not grow slower than the
        // Reno estimate right after a loss at small windows.
        let mut c = Cubic::new(false, MSS);
        c.cwnd = 20 * MSS as u64;
        c.ssthresh = c.cwnd;
        c.on_loss_event(&loss()); // cwnd -> 14
        let w0 = c.cwnd();
        let mut t = 0;
        for _ in 0..140 {
            t += 4;
            c.on_ack(&ack_at(t, MSS as u64, 62, false), false);
        }
        // 10 cwnd's worth of ACKs: Reno-style would add ~ 0.53*10 ≈ 5 MSS.
        assert!(c.cwnd() >= w0 + 3 * MSS as u64, "friendly growth too slow: {} -> {}", w0, c.cwnd());
    }
}
