//! TCP Reno (RFC 5681): slow start, AIMD congestion avoidance.

use crate::loss_based::{GrowthLaw, LossBased};
use crate::{AckEvent, LossEvent};
use elephants_netsim::SimTime;

/// TCP Reno congestion control.
pub type Reno = LossBased<RenoLaw>;

/// Reno's law: one MSS per cwnd of ACKed bytes, β = 0.5.
#[derive(Debug, Clone, Default)]
pub struct RenoLaw {
    /// Byte accumulator for sub-MSS congestion-avoidance increments.
    acked_accum: u64,
}

impl Reno {
    /// A fresh Reno controller with IW10.
    pub fn new(mss: u32) -> Self {
        LossBased::with_law(mss, RenoLaw::default())
    }
}

impl GrowthLaw for RenoLaw {
    const NAME: &'static str = "reno";
    const PHASE: &'static str = "avoidance";

    fn increase(&mut self, cwnd: u64, _mss: u64, ev: &AckEvent) -> u64 {
        self.acked_accum += ev.newly_acked;
        if self.acked_accum < cwnd {
            return 0;
        }
        self.acked_accum -= cwnd;
        1
    }

    fn loss_beta(&mut self, _cwnd: u64, _mss: u64, _ev: &LossEvent) -> f64 {
        self.acked_accum = 0;
        0.5
    }

    fn rto_beta(&mut self, _cwnd: u64, _mss: u64, _now: SimTime) -> f64 {
        self.acked_accum = 0;
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionControl;
    use elephants_netsim::SimDuration;

    pub(crate) fn ack(newly_acked: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO,
            rtt: SimDuration::from_millis(62),
            min_rtt: SimDuration::from_millis(62),
            srtt: SimDuration::from_millis(62),
            newly_acked,
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

    fn loss(inflight: u64) -> LossEvent {
        LossEvent {
            now: SimTime::ZERO,
            inflight,
            delivered: 0,
            min_rtt: SimDuration::from_millis(62),
            max_rtt_epoch: SimDuration::from_millis(70),
        }
    }

    const MSS: u32 = 1000;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::new(MSS);
        let start = r.cwnd();
        // One round: every in-flight segment acked grows cwnd by 1 MSS.
        for _ in 0..10 {
            r.on_ack(&ack(MSS as u64), false);
        }
        assert_eq!(r.cwnd(), start + 10 * MSS as u64);
        assert!(r.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_cwnd() {
        let mut r = Reno::new(MSS);
        r.ssthresh = r.cwnd; // force CA
        let start = r.cwnd();
        let acks_needed = start / MSS as u64;
        for _ in 0..acks_needed {
            r.on_ack(&ack(MSS as u64), false);
        }
        assert_eq!(r.cwnd(), start + MSS as u64);
        assert!(!r.in_slow_start());
    }

    #[test]
    fn loss_halves_cwnd() {
        let mut r = Reno::new(MSS);
        r.cwnd = 100 * MSS as u64;
        r.ssthresh = r.cwnd;
        r.on_loss_event(&loss(r.cwnd));
        assert_eq!(r.cwnd(), 50 * MSS as u64);
        assert_eq!(r.ssthresh(), 50 * MSS as u64);
    }

    #[test]
    fn rto_collapses_to_one_segment() {
        let mut r = Reno::new(MSS);
        r.cwnd = 100 * MSS as u64;
        r.on_rto(SimTime::ZERO);
        assert_eq!(r.cwnd(), MSS as u64);
        assert_eq!(r.ssthresh(), 50 * MSS as u64);
        assert!(r.in_slow_start());
    }

    #[test]
    fn cwnd_never_below_floor_after_loss() {
        let mut r = Reno::new(MSS);
        r.cwnd = 2 * MSS as u64;
        r.on_loss_event(&loss(r.cwnd));
        assert_eq!(r.cwnd(), 2 * MSS as u64); // floor = 2 MSS
    }

    #[test]
    fn growth_frozen_during_recovery() {
        let mut r = Reno::new(MSS);
        let w = r.cwnd();
        for _ in 0..50 {
            r.on_ack(&ack(MSS as u64), true);
        }
        assert_eq!(r.cwnd(), w);
    }

    #[test]
    fn slow_start_caps_at_ssthresh() {
        let mut r = Reno::new(MSS);
        r.ssthresh = 12 * MSS as u64;
        for _ in 0..10 {
            r.on_ack(&ack(MSS as u64), false);
        }
        assert_eq!(r.cwnd(), 12 * MSS as u64);
    }
}
