//! BBR version 1 (Cardwell et al., 2016/2017): the model both BBRs share
//! (DESIGN.md §3j) under an eight-phase pacing-gain cycle, capping inflight at
//! `cwnd_gain × BDP` (the "2 BDP inflight cap" the paper repeatedly
//! invokes). It is deliberately **loss-blind**: packet loss does not reduce
//! the sending rate; only an RTO collapses the window.

pub use crate::bbr::BbrMode;
use crate::bbr::{forward_to_core, BbrCore};
use crate::{AckEvent, CcaState, CongestionControl, LossEvent};
use elephants_netsim::{CheckFailure, SimDuration, SimTime};

/// RTprop min-filter window: 10 s, as in Linux `tcp_bbr.c`.
const RTPROP_WINDOW: SimDuration = SimDuration::from_secs(10);

/// The ProbeBW pacing-gain cycle (8 phases of ~1 RTprop each).
pub const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// The BBRv1 congestion controller: the shared model plus the gain cycle.
#[derive(Debug, Clone)]
pub struct BbrV1 {
    core: BbrCore,
    // ProbeBW cycling.
    cycle_index: usize,
    cycle_stamp: SimTime,
}

impl BbrV1 {
    /// A fresh BBRv1 controller with IW10; `seed` feeds the deterministic
    /// choice of the first ProbeBW phase.
    pub fn new(mss: u32, seed: u64) -> Self {
        BbrV1 {
            core: BbrCore::new(mss, seed),
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
        }
    }

    /// Current mode (test hook).
    pub fn mode(&self) -> BbrMode {
        self.core.mode
    }

    /// Current bottleneck-bandwidth estimate (bits/s).
    pub fn btlbw(&self) -> Option<u64> {
        self.core.btlbw()
    }

    /// Current pacing gain (test hook).
    pub fn pacing_gain(&self) -> f64 {
        self.core.pacing_gain
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        // Random initial phase, excluding the 0.75 (drain) phase — per spec.
        let r = (self.core.next_rand() % 7) as usize;
        self.cycle_index = if r >= 1 { r + 1 } else { 0 };
        self.cycle_stamp = now;
        self.core.pacing_gain = PROBE_BW_GAINS[self.cycle_index];
    }

    fn advance_cycle(&mut self, ev: &AckEvent) {
        // Phase advances roughly once per RTprop; the 1.25 phase holds until
        // it has actually inflated inflight (or saw loss), the 0.75 phase
        // ends as soon as inflight is back at 1 BDP.
        let core = &self.core;
        let elapsed = ev.now.since(self.cycle_stamp);
        let should_advance = match PROBE_BW_GAINS[self.cycle_index] {
            g if g > 1.0 => {
                elapsed > core.rtprop && (ev.newly_lost > 0 || ev.inflight >= core.bdp_bytes(g))
            }
            g if g < 1.0 => elapsed > core.rtprop || ev.inflight <= core.bdp_bytes(1.0),
            _ => elapsed > core.rtprop,
        };
        if should_advance {
            self.cycle_index = (self.cycle_index + 1) % PROBE_BW_GAINS.len();
            self.cycle_stamp = ev.now;
            self.core.pacing_gain = PROBE_BW_GAINS[self.cycle_index];
        }
    }
}

impl CongestionControl for BbrV1 {
    fn name(&self) -> &'static str {
        "bbr1"
    }

    fn on_ack(&mut self, ev: &AckEvent, _in_recovery: bool) {
        self.core.update_model(ev, RTPROP_WINDOW);
        if self.core.startup_drain_step(ev) {
            self.enter_probe_bw(ev.now);
        } else if self.core.mode == BbrMode::ProbeBw {
            self.advance_cycle(ev);
        }
        // ProbeRTT pins the window to the 4-segment pipe floor.
        if self.core.probe_rtt_step(ev, self.core.min_pipe_cwnd()) {
            self.enter_probe_bw(ev.now);
        }
        // The 2 BDP inflight cap is ProbeBW's; Startup and Drain (and a
        // Startup resumed after ProbeRTT) size the window by `HIGH_GAIN`.
        let cwnd_gain = match self.core.mode {
            BbrMode::ProbeBw => BbrCore::CWND_GAIN,
            _ => BbrCore::HIGH_GAIN,
        };
        self.core.set_cwnd(ev, self.core.bdp_bytes(cwnd_gain));
    }

    fn on_loss_event(&mut self, _ev: &LossEvent) {
        // Loss-blind by design: BBRv1 does not react to fast-retransmit
        // losses (the paper's "rigid response" that inflates retransmissions).
    }

    forward_to_core!();

    fn state_snapshot(&self) -> CcaState {
        // ProbeBW labels carry the gain phase so a recorded series exposes
        // the 8-phase cycle (1.25 up-probe -> 0.75 drain -> 6x cruise):
        // counting "probe_bw:1.25" entries counts ProbeBW cycles.
        self.core.snapshot(match PROBE_BW_GAINS[self.cycle_index] {
            g if g > 1.0 => "probe_bw:1.25",
            g if g < 1.0 => "probe_bw:0.75",
            _ => "probe_bw:1.00",
        })
    }

    fn check_invariants(&self, mss: u32) -> Vec<CheckFailure> {
        let mut fails = self.core.check_invariants(&self.state_snapshot(), mss);
        if self.cycle_index >= PROBE_BW_GAINS.len() {
            let i = self.cycle_index;
            fails.push(CheckFailure::new(
                "bbr_cycle_index",
                format!("ProbeBW gain-cycle index {i} out of range 0..{}", PROBE_BW_GAINS.len()),
            ));
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbr::testing::{drive_to_probe_bw, AckFeeder, MSS};

    #[test]
    fn starts_in_startup_with_high_gain() {
        let b = BbrV1::new(MSS, 0);
        assert_eq!(b.mode(), BbrMode::Startup);
        assert!((b.pacing_gain() - 2.885).abs() < 1e-9);
    }

    #[test]
    fn startup_exits_to_drain_when_bw_plateaus() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        // Growing bandwidth: stays in startup.
        for bw in [10, 20, 40] {
            b.on_ack(&f.ev(10, bw, 50, 100_000, true, 0), false);
            assert_eq!(b.mode(), BbrMode::Startup);
        }
        // Plateau: three rounds with <25 % growth.
        for _ in 0..3 {
            b.on_ack(&f.ev(10, 41, 50, 100_000, true, 0), false);
        }
        assert_eq!(b.mode(), BbrMode::Drain);
        assert!(b.pacing_gain() < 1.0);
    }

    #[test]
    fn drain_enters_probe_bw_at_one_bdp() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        assert_eq!(b.mode(), BbrMode::ProbeBw);
        assert!((b.pacing_gain() - PROBE_BW_GAINS[0]).abs() < 1e-9 || b.pacing_gain() == 1.0 || b.pacing_gain() == 1.25);
    }

    #[test]
    fn probe_bw_cwnd_capped_at_two_bdp() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // Pump many ACKs: cwnd must not exceed 2 * BDP.
        let bdp = 40_000_000u64 / 8 / 20; // 40 Mbps * 50 ms = 250_000 B
        for _ in 0..500 {
            b.on_ack(&f.ev(1, 40, 50, 200_000, false, 0), false);
        }
        assert!(b.cwnd() <= 2 * bdp + MSS as u64, "cwnd {} vs 2*BDP {}", b.cwnd(), 2 * bdp);
    }

    #[test]
    fn loss_events_are_ignored() {
        let mut b = BbrV1::new(MSS, 0);
        let cwnd = b.cwnd();
        b.on_loss_event(&LossEvent {
            now: SimTime::ZERO,
            inflight: 0,
            delivered: 0,
            min_rtt: SimDuration::from_millis(50),
            max_rtt_epoch: SimDuration::from_millis(60),
        });
        assert_eq!(b.cwnd(), cwnd, "BBRv1 is loss-blind");
    }

    #[test]
    fn rto_collapses_then_recovery_restores() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        let before = b.cwnd();
        b.on_rto(f.now);
        assert_eq!(b.cwnd(), MSS as u64);
        b.on_recovery_exit(f.now);
        assert!(b.cwnd() >= before, "prior cwnd must be restored");
    }

    #[test]
    fn probe_rtt_triggers_after_stale_rtprop() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // 11 s of ACKs whose RTT never reaches the old floor.
        for _ in 0..110 {
            b.on_ack(&f.ev(100, 40, 60, 200_000, false, 0), false);
        }
        assert_eq!(b.mode(), BbrMode::ProbeRtt);
        assert!(b.cwnd() <= 4 * MSS as u64, "ProbeRTT pins cwnd to 4 MSS");
    }

    #[test]
    fn probe_rtt_exits_after_duration_and_round() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        for _ in 0..110 {
            b.on_ack(&f.ev(100, 40, 60, 200_000, false, 0), false);
        }
        assert_eq!(b.mode(), BbrMode::ProbeRtt);
        // Inflight at the floor; rounds pass; 200+ ms elapse.
        b.on_ack(&f.ev(10, 40, 50, 2_000, true, 0), false);
        b.on_ack(&f.ev(150, 40, 50, 2_000, true, 0), false);
        b.on_ack(&f.ev(100, 40, 50, 2_000, true, 0), false);
        assert_eq!(b.mode(), BbrMode::ProbeBw, "ProbeRTT must end");
    }

    #[test]
    fn app_limited_samples_do_not_lower_estimate() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        b.on_ack(&f.ev(10, 100, 50, 100_000, true, 0), false);
        assert_eq!(b.btlbw(), Some(100_000_000));
        let mut ev = f.ev(10, 5, 50, 100_000, true, 0);
        ev.app_limited = true;
        b.on_ack(&ev, false);
        assert_eq!(b.btlbw(), Some(100_000_000), "app-limited sample must not replace max");
    }

    #[test]
    fn pacing_rate_follows_gain_times_bw() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        b.on_ack(&f.ev(10, 100, 50, 100_000, true, 0), false);
        let rate = b.pacing_rate().unwrap();
        assert_eq!(rate, (2.885f64 * 100_000_000.0) as u64);
    }

    #[test]
    fn probe_bw_cycles_through_gains() {
        let mut b = BbrV1::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        let mut seen = std::collections::HashSet::new();
        // BDP = 250 kB; inflight around 250k advances all phases.
        for _ in 0..200 {
            b.on_ack(&f.ev(60, 40, 50, 320_000, false, 0), false);
            seen.insert((b.pacing_gain() * 100.0) as u64);
        }
        assert!(seen.contains(&125), "must visit the 1.25 probe phase: {seen:?}");
        assert!(seen.contains(&75), "must visit the 0.75 drain phase");
        assert!(seen.contains(&100), "must visit cruise phases");
    }
}
