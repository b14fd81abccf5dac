//! BBR version 2 (Cardwell et al., IETF 106 v2alpha).
//!
//! BBRv2 keeps BBRv1's max-bandwidth / min-RTT model but bounds it with
//! explicit loss/ECN feedback:
//!
//! * `inflight_hi` — the highest inflight volume that did **not** produce a
//!   loss rate above `LOSS_THRESH` (2 %). Probing that exceeds the threshold
//!   cuts `inflight_hi` by `BETA` (30 %). This is why, in the paper, BBRv2
//!   under deep-buffer FIFO fares *worse* against CUBIC than BBRv1: CUBIC's
//!   buffer occupancy forces drop rates over 2 % and BBRv2 backs off, while
//!   loss-blind BBRv1 holds its ground.
//! * Under RED's gentle early dropping the per-round loss rate rarely
//!   crosses 2 %, so BBRv2 (like BBRv1) sails over CUBIC — the paper's RED
//!   takeover result.
//! * ProbeBW is restructured into DOWN → CRUISE → REFILL → UP, cruising
//!   with 15 % headroom below `inflight_hi`.

pub use crate::bbr::BbrMode;
use crate::bbr::{forward_to_core, BbrCore};
use crate::{AckEvent, CcaState, CongestionControl, LossEvent};
use elephants_netsim::{CheckFailure, SimDuration, SimTime};

// Where v2alpha departs from the constants both versions share (DESIGN.md
// §3j).

/// Per-round loss rate that marks inflight too high (v2alpha: 2 %).
const LOSS_THRESH: f64 = 0.02;
/// Min-RTT validity window: BBRv2 probes RTT every 5 s.
const RTPROP_WINDOW: SimDuration = SimDuration::from_secs(5);
/// ProbeBW UP pacing gain.
const UP_GAIN: f64 = 1.25;
/// ProbeBW DOWN pacing gain.
const DOWN_GAIN: f64 = 0.75;
/// Multiplicative cut applied to `inflight_hi` on excessive loss.
const BETA: f64 = 0.3;
/// Headroom kept below `inflight_hi` while cruising (15 %).
const HEADROOM: f64 = 0.15;
/// Base wait in CRUISE before the next bandwidth probe.
const PROBE_WAIT_BASE: SimDuration = SimDuration::from_secs(2);
/// Random extra wait added to `PROBE_WAIT_BASE` (0..this).
const PROBE_WAIT_RAND: SimDuration = SimDuration::from_secs(1);
/// ECN CE-fraction threshold treated like excessive loss.
const ECN_THRESH: f64 = 0.5;

/// ProbeBW sub-phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePhase {
    /// Deflate the queue (gain 0.75).
    Down,
    /// Cruise with headroom (gain 1.0).
    Cruise,
    /// Refill the pipe to `inflight_hi` (gain 1.0).
    Refill,
    /// Probe for more bandwidth (gain 1.25).
    Up,
}

/// The BBRv2 congestion controller: the shared model plus the loss-bounded
/// ProbeBW phases.
#[derive(Debug, Clone)]
pub struct BbrV2 {
    core: BbrCore,
    phase: ProbePhase,
    // Inflight bounds.
    inflight_hi: u64,
    // Per-round loss/ECN accounting.
    loss_in_round: u64,
    delivered_in_round: u64,
    ce_in_round: u64,
    loss_events_in_round: u32,
    loss_round_rate: f64,
    loss_round_events: u32,
    ce_round_rate: f64,
    // Phase clocks.
    phase_stamp: SimTime,
    cruise_wait: SimDuration,
    refill_round: u64,
    up_rounds: u32,
}

impl BbrV2 {
    /// A fresh BBRv2 controller with IW10; `seed` feeds the deterministic
    /// cruise-wait jitter.
    pub fn new(mss: u32, seed: u64) -> Self {
        BbrV2 {
            core: BbrCore::new(mss, seed),
            phase: ProbePhase::Cruise,
            inflight_hi: u64::MAX,
            loss_in_round: 0,
            delivered_in_round: 0,
            ce_in_round: 0,
            loss_events_in_round: 0,
            loss_round_rate: 0.0,
            loss_round_events: 0,
            ce_round_rate: 0.0,
            phase_stamp: SimTime::ZERO,
            cruise_wait: PROBE_WAIT_BASE,
            refill_round: 0,
            up_rounds: 0,
        }
    }

    /// Current mode (test hook).
    pub fn mode(&self) -> BbrMode {
        self.core.mode
    }

    /// Current ProbeBW phase (test hook).
    pub fn phase(&self) -> ProbePhase {
        self.phase
    }

    /// Current `inflight_hi` bound in bytes (`u64::MAX` = unset).
    pub fn inflight_hi(&self) -> u64 {
        self.inflight_hi
    }

    /// Per-round loss/CE accounting: commit the finished round's rates at a
    /// round start, then add this ACK to the live round.
    fn account_round(&mut self, ev: &AckEvent) {
        if ev.round_start {
            if self.delivered_in_round > 0 {
                self.loss_round_rate = self.loss_in_round as f64 / self.delivered_in_round as f64;
                self.loss_round_events = self.loss_events_in_round;
                self.ce_round_rate = self.ce_in_round as f64 / self.delivered_in_round as f64;
            }
            self.reset_live_round();
        }
        self.loss_in_round += ev.newly_lost;
        if ev.newly_lost > 0 {
            self.loss_events_in_round += 1;
        }
        self.delivered_in_round += ev.newly_acked;
        if ev.ecn_ce {
            self.ce_in_round += ev.newly_acked;
        }
    }

    fn reset_live_round(&mut self) {
        self.loss_in_round = 0;
        self.delivered_in_round = 0;
        self.ce_in_round = 0;
        self.loss_events_in_round = 0;
    }

    /// Whether recent loss/ECN says the inflight volume is too high.
    ///
    /// Mirrors the v2alpha robustness gating: a handful of isolated losses
    /// must NOT trigger a cut (that is the RED regime where BBRv2 is meant
    /// to sail on); only a loss *rate* above `LOSS_THRESH` backed by at
    /// least `LOSS_EVENTS_MIN` distinct loss events in the round counts.
    fn inflight_too_high(&self) -> bool {
        const LOSS_EVENTS_MIN: u32 = 4;
        let committed = self.loss_round_events >= LOSS_EVENTS_MIN
            && self.loss_round_rate > LOSS_THRESH;
        let live = self.loss_events_in_round >= LOSS_EVENTS_MIN
            && self.delivered_in_round > 16 * self.core.mss
            && (self.loss_in_round as f64
                > LOSS_THRESH * self.delivered_in_round as f64);
        let ecn = self.ce_round_rate > ECN_THRESH;
        committed || live || ecn
    }

    /// Cut `inflight_hi` after probing too hard (v2alpha
    /// `bbr2_handle_inflight_too_high`).
    fn handle_inflight_too_high(&mut self, inflight: u64) {
        let base = inflight.max(self.core.bdp_bytes(1.0));
        self.inflight_hi =
            ((base as f64 * (1.0 - BETA)) as u64).max(self.core.min_pipe_cwnd());
        // Reset the live counters so one bad round is punished once.
        self.loss_round_rate = 0.0;
        self.loss_round_events = 0;
        self.reset_live_round();
    }

    fn enter_phase(&mut self, phase: ProbePhase, now: SimTime) {
        self.phase = phase;
        self.phase_stamp = now;
        self.core.pacing_gain = match phase {
            ProbePhase::Down => DOWN_GAIN,
            ProbePhase::Cruise | ProbePhase::Refill => 1.0,
            ProbePhase::Up => UP_GAIN,
        };
        match phase {
            ProbePhase::Cruise => {
                let r = self.core.next_rand() % PROBE_WAIT_RAND.as_nanos();
                self.cruise_wait = PROBE_WAIT_BASE + SimDuration::from_nanos(r);
            }
            ProbePhase::Refill => {
                self.refill_round = self.core.round_count;
            }
            ProbePhase::Up => {
                self.up_rounds = 0;
            }
            ProbePhase::Down => {}
        }
    }

    fn probe_bw_step(&mut self, ev: &AckEvent) {
        match self.phase {
            ProbePhase::Down => {
                // Leave once the queue we built is drained.
                if ev.inflight <= self.core.bdp_bytes(1.0)
                    || ev.now.since(self.phase_stamp) > self.core.rtprop * 2
                {
                    self.enter_phase(ProbePhase::Cruise, ev.now);
                }
            }
            ProbePhase::Cruise => {
                if ev.now.since(self.phase_stamp) >= self.cruise_wait {
                    self.enter_phase(ProbePhase::Refill, ev.now);
                }
            }
            ProbePhase::Refill => {
                // One full round of refilling, then probe up.
                if self.core.round_count > self.refill_round {
                    self.enter_phase(ProbePhase::Up, ev.now);
                }
            }
            ProbePhase::Up => {
                if self.inflight_too_high() {
                    self.handle_inflight_too_high(ev.inflight);
                    self.enter_phase(ProbePhase::Down, ev.now);
                    return;
                }
                if ev.round_start {
                    self.up_rounds += 1;
                    // Probing sustained without excessive loss: raise the
                    // ceiling so the next cruise can use what we found.
                    if self.inflight_hi != u64::MAX && ev.inflight >= self.inflight_hi {
                        let step = self.core.mss << self.up_rounds.min(12);
                        self.inflight_hi = self.inflight_hi.saturating_add(step);
                    }
                }
                if ev.now.since(self.phase_stamp) > self.core.rtprop
                    && ev.inflight >= self.core.bdp_bytes(UP_GAIN)
                {
                    self.enter_phase(ProbePhase::Down, ev.now);
                }
            }
        }
    }

    fn effective_inflight_cap(&self) -> u64 {
        if self.inflight_hi == u64::MAX {
            return u64::MAX;
        }
        match (self.core.mode, self.phase) {
            // Cruise keeps headroom below the ceiling so other flows can
            // probe (v2alpha `bbr2_inflight_with_headroom`).
            (BbrMode::ProbeBw, ProbePhase::Cruise) => {
                ((self.inflight_hi as f64 * (1.0 - HEADROOM)) as u64)
                    .max(self.core.min_pipe_cwnd())
            }
            _ => self.inflight_hi,
        }
    }
}

impl CongestionControl for BbrV2 {
    fn name(&self) -> &'static str {
        "bbr2"
    }

    fn on_ack(&mut self, ev: &AckEvent, _in_recovery: bool) {
        self.account_round(ev);
        self.core.update_model(ev, RTPROP_WINDOW);
        if self.core.startup_drain_step(ev) {
            self.enter_phase(ProbePhase::Cruise, ev.now);
        } else if self.core.mode == BbrMode::Startup && self.inflight_too_high() {
            // v2 also leaves Startup when loss says inflight is too high.
            self.handle_inflight_too_high(ev.inflight);
            self.core.enter_drain();
        } else if self.core.mode == BbrMode::ProbeBw {
            self.probe_bw_step(ev);
        }
        // ProbeRTT floor: half the estimated BDP (v2 probes less brutally
        // than v1's 4-segment floor).
        if self.core.probe_rtt_step(ev, self.core.bdp_bytes(0.5)) {
            self.enter_phase(ProbePhase::Cruise, ev.now);
        }
        let target = self.core.bdp_bytes(BbrCore::CWND_GAIN).min(self.effective_inflight_cap());
        self.core.set_cwnd(ev, target);
    }

    fn on_loss_event(&mut self, ev: &LossEvent) {
        // Outside of deliberate probing, a loss episode that crosses the
        // threshold still cuts the ceiling (e.g. FIFO overflow caused by a
        // competing CUBIC flow filling the buffer).
        if self.inflight_too_high() {
            self.handle_inflight_too_high(ev.inflight);
            if self.core.mode == BbrMode::ProbeBw && self.phase != ProbePhase::Down {
                self.enter_phase(ProbePhase::Down, ev.now);
            }
        }
    }

    forward_to_core!();

    fn state_snapshot(&self) -> CcaState {
        self.core.snapshot(match self.phase {
            ProbePhase::Down => "probe_bw:down",
            ProbePhase::Cruise => "probe_bw:cruise",
            ProbePhase::Refill => "probe_bw:refill",
            ProbePhase::Up => "probe_bw:up",
        })
    }

    fn check_invariants(&self, mss: u32) -> Vec<CheckFailure> {
        let mut fails = self.core.check_invariants(&self.state_snapshot(), mss);
        if self.inflight_hi < self.core.min_pipe_cwnd() {
            let (hi, floor) = (self.inflight_hi, self.core.min_pipe_cwnd());
            fails.push(CheckFailure::new(
                "bbr2_inflight_hi",
                format!("inflight_hi {hi} below the {floor}-byte pipe floor"),
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
    fn startup_to_drain_to_probe_bw() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        assert_eq!(b.mode(), BbrMode::Startup);
        drive_to_probe_bw(&mut b, &mut f);
        assert_eq!(b.mode(), BbrMode::ProbeBw);
        assert_eq!(b.phase(), ProbePhase::Cruise);
    }

    #[test]
    fn cruise_waits_then_refills_then_probes_up() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // Cruise for up to 3 s (base 2 s + rand 1 s).
        let mut phases = vec![];
        for _ in 0..80 {
            b.on_ack(&f.ev(50, 40, 50, 240_000, true, 0), false);
            phases.push(b.phase());
        }
        assert!(phases.contains(&ProbePhase::Refill), "{phases:?}");
        assert!(phases.contains(&ProbePhase::Up), "{phases:?}");
    }

    #[test]
    fn excessive_loss_in_up_cuts_inflight_hi_and_goes_down() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // Walk to UP.
        for _ in 0..80 {
            b.on_ack(&f.ev(50, 40, 50, 240_000, true, 0), false);
            if b.phase() == ProbePhase::Up {
                break;
            }
        }
        assert_eq!(b.phase(), ProbePhase::Up);
        // A round with ~10 % loss (well over the 2 % threshold).
        for _ in 0..10 {
            b.on_ack(&f.ev(5, 40, 50, 300_000, false, 100), false);
        }
        b.on_ack(&f.ev(5, 40, 50, 300_000, true, 100), false);
        assert_eq!(b.phase(), ProbePhase::Down, "must bail out of UP");
        let hi = b.inflight_hi();
        assert!(hi < 300_000, "inflight_hi must be cut, got {hi}");
        // Cut is (1-beta) = 0.7 of max(inflight, BDP).
        let bdp = 40_000_000u64 / 8 / 20;
        let expect = (300_000f64.max(bdp as f64) * 0.7) as u64;
        assert!((hi as i64 - expect as i64).abs() < 2 * MSS as i64, "hi={hi} expect≈{expect}");
    }

    #[test]
    fn small_loss_rates_are_tolerated() {
        // ~1 % loss: below the 2 % threshold, no cut — this is the RED
        // regime where BBRv2 dominates CUBIC in the paper.
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        for i in 0..300 {
            let lost = if i % 100 == 0 { MSS as u64 } else { 0 };
            b.on_ack(&f.ev(5, 40, 50, 240_000, i % 25 == 0, lost), false);
        }
        assert_eq!(b.inflight_hi(), u64::MAX, "1% loss must not cut inflight_hi");
    }

    #[test]
    fn cruise_keeps_headroom_below_inflight_hi() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // Force a known ceiling.
        b.inflight_hi = 100_000;
        b.enter_phase(ProbePhase::Cruise, f.now);
        for _ in 0..50 {
            b.on_ack(&f.ev(5, 40, 50, 80_000, false, 0), false);
        }
        assert!(b.cwnd() <= 85_000, "cruise cwnd {} must respect 15% headroom", b.cwnd());
    }

    #[test]
    fn startup_exits_on_excessive_loss() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        // One clean round, then a sustained very lossy stretch (enough
        // delivered data and distinct loss events to clear the robustness
        // gates).
        b.on_ack(&f.ev(10, 40, 50, 100_000, true, 0), false);
        for _ in 0..30 {
            b.on_ack(&f.ev(2, 40, 50, 100_000, false, 200), false);
        }
        assert_ne!(b.mode(), BbrMode::Startup, "loss must end startup");
        assert!(b.inflight_hi() < u64::MAX);
    }

    #[test]
    fn rto_and_recovery_round_trip() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        let before = b.cwnd();
        b.on_rto(f.now);
        assert_eq!(b.cwnd(), MSS as u64);
        b.on_recovery_exit(f.now);
        assert!(b.cwnd() >= before);
    }

    #[test]
    fn probe_rtt_uses_half_bdp_floor() {
        let mut b = BbrV2::new(MSS, 0);
        let mut f = AckFeeder::new();
        drive_to_probe_bw(&mut b, &mut f);
        // Stale the 5 s window.
        for _ in 0..60 {
            b.on_ack(&f.ev(100, 40, 60, 240_000, false, 0), false);
        }
        assert_eq!(b.mode(), BbrMode::ProbeRtt);
        // Floor is 0.5 * BDP = 125 kB, not 4 segments.
        assert!(b.cwnd() >= 4 * MSS as u64);
        assert!(b.cwnd() <= 130_000, "cwnd {}", b.cwnd());
    }
}
