//! The path model BBRv1 and BBRv2 share.
//!
//! Both estimate the bottleneck bandwidth (`BtlBw`, a windowed max over
//! rounds) and the propagation delay (`RTprop`, a min that expires after a
//! window), pace at `gain × BtlBw`, and walk
//! `Startup → Drain → ProbeBW ⇄ ProbeRTT`. [`BbrCore`] is that model and
//! every step of the walk the two take alike, mode changes included;
//! [`crate::BbrV1`] and [`crate::BbrV2`] each own a core, the config whose
//! constants they hand to its steps, and their ProbeBW policy. Where they
//! differ is the nine-row table in DESIGN.md §3j.

use crate::filters::WindowedMaxByRound;
use crate::{generic_cca_failures, AckEvent, CcaState, INITIAL_CWND_SEGMENTS};
use elephants_netsim::{CheckFailure, SimDuration, SimTime};

/// BBR operating mode (ProbeBW's inner phases are each version's own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrMode {
    /// Exponential search for the bottleneck bandwidth.
    Startup,
    /// Drain the queue Startup built.
    Drain,
    /// Steady-state bandwidth probing.
    ProbeBw,
    /// Periodic floor-RTT re-measurement.
    ProbeRtt,
}

/// Model, window and mode of one BBR flow.
#[derive(Debug, Clone)]
pub(crate) struct BbrCore {
    /// Startup pacing gain; Drain paces at its inverse.
    high_gain: f64,
    pub(crate) mss: u64,
    pub(crate) mode: BbrMode,
    pub(crate) cwnd: u64,
    prior_cwnd: u64,
    pub(crate) pacing_gain: f64,
    // Model.
    bw_filter: WindowedMaxByRound,
    pub(crate) rtprop: SimDuration,
    rtprop_stamp: SimTime,
    rtprop_valid: bool,
    /// Whether the RTprop estimate was stale when the current ACK arrived
    /// (computed before the refresh, as in Linux `bbr_update_min_rtt`).
    rtprop_expired: bool,
    pub(crate) round_count: u64,
    // Startup full-pipe detection.
    full_bw: u64,
    full_bw_cnt: u32,
    full_pipe: bool,
    // ProbeRTT bookkeeping.
    probe_rtt_done_stamp: Option<SimTime>,
    probe_rtt_round_done: bool,
    probe_rtt_enter_round: u64,
    // Deterministic phase randomness.
    rng_state: u64,
}

impl BbrCore {
    /// A fresh core in Startup with IW10.
    pub(crate) fn new(mss: u32, high_gain: f64, bw_window_rounds: u64, seed: u64) -> Self {
        let mss = mss as u64;
        BbrCore {
            high_gain,
            mss,
            mode: BbrMode::Startup,
            cwnd: INITIAL_CWND_SEGMENTS * mss,
            prior_cwnd: 0,
            pacing_gain: high_gain,
            bw_filter: WindowedMaxByRound::new(bw_window_rounds),
            rtprop: SimDuration::MAX,
            rtprop_stamp: SimTime::ZERO,
            rtprop_valid: false,
            rtprop_expired: false,
            round_count: 0,
            full_bw: 0,
            full_bw_cnt: 0,
            full_pipe: false,
            probe_rtt_done_stamp: None,
            probe_rtt_round_done: false,
            probe_rtt_enter_round: 0,
            rng_state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    pub(crate) fn btlbw(&self) -> Option<u64> {
        self.bw_filter.get()
    }

    /// xorshift64*: deterministic per-flow randomness.
    pub(crate) fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn min_pipe_cwnd(&self) -> u64 {
        4 * self.mss
    }

    /// BDP in bytes for the current model, scaled by `gain`.
    pub(crate) fn bdp_bytes(&self, gain: f64) -> u64 {
        let (Some(bw), true) = (self.bw_filter.get(), self.rtprop_valid) else {
            return INITIAL_CWND_SEGMENTS * self.mss;
        };
        let bdp = bw as f64 * self.rtprop.as_secs_f64() / 8.0;
        ((gain * bdp) as u64).max(self.min_pipe_cwnd())
    }

    pub(crate) fn update_model(&mut self, ev: &AckEvent, rtprop_window: SimDuration) {
        if ev.round_start {
            self.round_count += 1;
        }
        if let Some(rate) = ev.delivery_rate {
            // App-limited samples only raise the estimate, never refresh it.
            if !ev.app_limited || Some(rate) >= self.bw_filter.get() {
                self.bw_filter.update(self.round_count, rate);
            }
        }
        self.rtprop_expired =
            self.rtprop_valid && ev.now.since(self.rtprop_stamp) > rtprop_window;
        if !self.rtprop_valid || ev.rtt <= self.rtprop || self.rtprop_expired {
            self.rtprop = ev.rtt;
            self.rtprop_stamp = ev.now;
            self.rtprop_valid = true;
        }
    }

    /// The pipe is full after `count` non-app-limited rounds in a row whose
    /// bandwidth estimate grew by less than `thresh`.
    fn check_full_pipe(&mut self, ev: &AckEvent, thresh: f64, count: u32) {
        if self.full_pipe || !ev.round_start || ev.app_limited {
            return;
        }
        let Some(bw) = self.bw_filter.get() else { return };
        if bw as f64 >= self.full_bw as f64 * thresh {
            self.full_bw = bw;
            self.full_bw_cnt = 0;
            return;
        }
        self.full_bw_cnt += 1;
        if self.full_bw_cnt >= count {
            self.full_pipe = true;
        }
    }

    /// Startup is over — by the full-pipe rule, or by v2's loss exit — and
    /// the pipe counts as full from here on.
    pub(crate) fn enter_drain(&mut self) {
        self.full_pipe = true;
        self.mode = BbrMode::Drain;
        self.pacing_gain = 1.0 / self.high_gain;
    }

    /// Startup and Drain. True on the ACK that ends Drain into ProbeBW: the
    /// caller starts its first phase.
    pub(crate) fn startup_drain_step(&mut self, ev: &AckEvent, thresh: f64, count: u32) -> bool {
        if self.mode == BbrMode::Startup {
            self.check_full_pipe(ev, thresh, count);
            if self.full_pipe {
                self.enter_drain();
            }
            return false;
        }
        let drained = self.mode == BbrMode::Drain && ev.inflight <= self.bdp_bytes(1.0);
        if drained {
            self.mode = BbrMode::ProbeBw;
        }
        drained
    }

    /// ProbeRTT: enter when the RTprop estimate has gone stale, hold cwnd at
    /// `floor` until inflight has sat there for `dwell` *and* a full round
    /// has passed, then restore the window. True on the ACK that leaves it
    /// for ProbeBW: the caller starts its first phase (an unfilled pipe
    /// resumes Startup instead).
    pub(crate) fn probe_rtt_step(&mut self, ev: &AckEvent, floor: u64, dwell: SimDuration) -> bool {
        debug_assert!(floor >= self.min_pipe_cwnd(), "ProbeRTT floor {floor} under the pipe floor");
        if self.mode != BbrMode::ProbeRtt && self.rtprop_expired {
            self.mode = BbrMode::ProbeRtt;
            self.pacing_gain = 1.0;
            self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
            self.probe_rtt_done_stamp = None;
            self.probe_rtt_round_done = false;
            self.probe_rtt_enter_round = self.round_count;
        }
        if self.mode != BbrMode::ProbeRtt {
            return false;
        }
        if self.probe_rtt_done_stamp.is_none() && ev.inflight <= floor {
            self.probe_rtt_done_stamp = Some(ev.now + dwell);
        }
        if ev.round_start && self.round_count > self.probe_rtt_enter_round {
            self.probe_rtt_round_done = true;
        }
        if !self.probe_rtt_round_done || self.probe_rtt_done_stamp.is_none_or(|t| ev.now < t) {
            self.cwnd = self.cwnd.min(floor);
            return false;
        }
        // Fresh floor measurement: restart the clock.
        self.rtprop_stamp = ev.now;
        self.cwnd = self.cwnd.max(self.prior_cwnd);
        if self.full_pipe {
            self.mode = BbrMode::ProbeBw;
        } else {
            self.mode = BbrMode::Startup;
            self.pacing_gain = self.high_gain;
        }
        self.full_pipe
    }

    /// Grow cwnd by the bytes acked toward `target`: capped at it once the
    /// pipe is full, never shrinking before (Linux `bbr_set_cwnd`). In
    /// ProbeRTT the window is [`Self::probe_rtt_step`]'s.
    pub(crate) fn set_cwnd(&mut self, ev: &AckEvent, target: u64) {
        if self.mode == BbrMode::ProbeRtt {
            return;
        }
        if self.full_pipe {
            self.cwnd = (self.cwnd + ev.newly_acked).min(target);
        } else if self.cwnd < target {
            self.cwnd += ev.newly_acked;
        }
        self.cwnd = self.cwnd.max(self.min_pipe_cwnd());
    }

    /// Collapse to one segment; [`Self::restore_cwnd`] undoes it when the
    /// RTO episode ends (Linux bbr saves `prior_cwnd` the same way).
    pub(crate) fn on_rto(&mut self) {
        self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
        self.cwnd = self.mss;
    }

    pub(crate) fn restore_cwnd(&mut self) {
        if self.prior_cwnd > 0 {
            self.cwnd = self.cwnd.max(self.prior_cwnd);
            self.prior_cwnd = 0;
        }
    }

    pub(crate) fn pacing_rate(&self) -> Option<u64> {
        match self.bw_filter.get() {
            Some(bw) => Some((self.pacing_gain * bw as f64) as u64),
            None => {
                // Bootstrap before the first rate sample: IW over 1 ms,
                // like Linux's bbr_init_pacing_rate_from_rtt.
                let iw_bits = (INITIAL_CWND_SEGMENTS * self.mss * 8) as f64;
                Some((self.high_gain * iw_bits / 0.001) as u64)
            }
        }
    }

    /// Telemetry snapshot; `probe_bw_label` is the version's name for its
    /// current ProbeBW phase, used in that mode only.
    pub(crate) fn snapshot(&self, probe_bw_label: &'static str) -> CcaState {
        CcaState {
            phase: match self.mode {
                BbrMode::Startup => "startup",
                BbrMode::Drain => "drain",
                BbrMode::ProbeRtt => "probe_rtt",
                BbrMode::ProbeBw => probe_bw_label,
            },
            cwnd: self.cwnd,
            ssthresh: u64::MAX,
            pacing_rate: self.pacing_rate(),
            bw_estimate: self.bw_filter.get(),
            pacing_gain: Some(self.pacing_gain),
        }
    }

    /// The generic CCA contract plus the model's own structure.
    pub(crate) fn check_invariants(&self, snap: &CcaState, mss: u32) -> Vec<CheckFailure> {
        let mut fails = generic_cca_failures(self.cwnd, snap, mss);
        if !self.bw_filter.is_monotone() {
            fails.push(CheckFailure::new(
                "bbr_filter_monotone",
                "bandwidth max-filter deque lost its monotonic order".to_string(),
            ));
        }
        fails
    }
}

/// The [`crate::CongestionControl`] methods that only forward to
/// `self.core`, for the inside of each version's `impl` block.
macro_rules! forward_to_core {
    () => {
        fn on_rto(&mut self, _now: SimTime) {
            self.core.on_rto();
        }

        fn on_spurious_rto(&mut self, _now: SimTime) {
            self.core.restore_cwnd();
        }

        fn on_recovery_exit(&mut self, _now: SimTime) {
            self.core.restore_cwnd();
        }

        fn cwnd(&self) -> u64 {
            self.core.cwnd
        }

        fn pacing_rate(&self) -> Option<u64> {
            self.core.pacing_rate()
        }

        fn ssthresh(&self) -> u64 {
            u64::MAX
        }

        fn in_slow_start(&self) -> bool {
            self.core.mode == BbrMode::Startup
        }

        fn bw_estimate(&self) -> Option<u64> {
            self.core.btlbw()
        }
    };
}
pub(crate) use forward_to_core;

/// The ACK feeder both versions' unit tests (and the core's) drive.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{AckEvent, CongestionControl};
    use elephants_netsim::{SimDuration, SimTime};

    pub(crate) const MSS: u32 = 1000;

    pub(crate) struct AckFeeder {
        pub(crate) now: SimTime,
        delivered: u64,
    }

    impl AckFeeder {
        pub(crate) fn new() -> Self {
            AckFeeder { now: SimTime::ZERO, delivered: 0 }
        }

        /// One MSS acked `advance_ms` after the previous ACK.
        pub(crate) fn ev(
            &mut self,
            advance_ms: u64,
            rate_mbps: u64,
            rtt_ms: u64,
            inflight: u64,
            round_start: bool,
            newly_lost: u64,
        ) -> AckEvent {
            self.now += SimDuration::from_millis(advance_ms);
            self.delivered += MSS as u64;
            AckEvent {
                now: self.now,
                rtt: SimDuration::from_millis(rtt_ms),
                min_rtt: SimDuration::from_millis(rtt_ms),
                srtt: SimDuration::from_millis(rtt_ms),
                newly_acked: MSS as u64,
                newly_lost,
                inflight,
                delivery_rate: Some(rate_mbps * 1_000_000),
                app_limited: false,
                delivered: self.delivered,
                round_start,
                ecn_ce: false,
                is_app_limited_now: false,
            }
        }
    }

    /// Six flat 40 Mbps rounds fill the pipe (Startup -> Drain); inflight
    /// under the 250 kB BDP (40 Mbps x 50 ms) then ends Drain.
    pub(crate) fn drive_to_probe_bw(b: &mut dyn CongestionControl, f: &mut AckFeeder) {
        for _ in 0..6 {
            b.on_ack(&f.ev(10, 40, 50, 300_000, true, 0), false);
        }
        assert_eq!(b.state_snapshot().phase, "drain");
        b.on_ack(&f.ev(10, 40, 50, 200_000, false, 0), false);
        assert!(b.state_snapshot().phase.starts_with("probe_bw:"));
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{AckFeeder, MSS};
    use super::*;
    use crate::{BbrV1Config, BbrV2Config};

    const WINDOW: SimDuration = SimDuration::from_secs(10);
    const DWELL: SimDuration = SimDuration::from_millis(200);
    const FLOOR: u64 = 4 * MSS as u64;

    fn core() -> BbrCore {
        BbrCore::new(MSS, 2.885, 10, 0)
    }

    /// What both versions' `on_ack` do before their ProbeBW step.
    fn model_step(c: &mut BbrCore, ev: &AckEvent) -> bool {
        c.update_model(ev, WINDOW);
        c.startup_drain_step(ev, 1.25, 3)
    }

    /// Into ProbeBW with a 40 Mbps x 50 ms model, then an ACK past the
    /// RTprop window: the core is in ProbeRTT, entered in round 7.
    fn into_probe_rtt(c: &mut BbrCore, f: &mut AckFeeder) {
        for _ in 0..6 {
            model_step(c, &f.ev(10, 40, 50, 300_000, true, 0));
        }
        assert!(model_step(c, &f.ev(10, 40, 50, 200_000, false, 0)));
        let ev = f.ev(10_001, 40, 60, 200_000, true, 0);
        model_step(c, &ev);
        assert!(!c.probe_rtt_step(&ev, FLOOR, DWELL));
        assert_eq!(c.mode, BbrMode::ProbeRtt);
    }

    /// One ACK through the model and ProbeRTT; true when ProbeRTT ended.
    fn probe_rtt_ack(c: &mut BbrCore, ev: &AckEvent) -> bool {
        c.update_model(ev, WINDOW);
        c.probe_rtt_step(ev, FLOOR, DWELL)
    }

    #[test]
    fn defaults_match_the_reference_constants() {
        // SNIPPETS.md snippets 2-3 (STARTUP_PACING_GAIN, DRAIN_PACING_GAIN,
        // PROBE_BW_CWND_GAIN, PROBE_RTT_DURATION, FULL_BW_THRESH_FACTOR,
        // FULL_BW_COUNT_REQ) and the 10-round BtlBw window of the BBR
        // draft; DESIGN.md section 3j lists where v2 departs.
        macro_rules! assert_shared_defaults {
            ($cfg:expr) => {{
                let cfg = $cfg;
                assert_eq!(cfg.high_gain, 2.885);
                assert_eq!(cfg.cwnd_gain, 2.0);
                assert_eq!(cfg.bw_window_rounds, 10);
                assert_eq!(cfg.probe_rtt_duration, SimDuration::from_millis(200));
                assert_eq!((cfg.full_bw_thresh, cfg.full_bw_count), (1.25, 3));
                let mut c = BbrCore::new(MSS, cfg.high_gain, cfg.bw_window_rounds, 0);
                assert_eq!(c.pacing_gain, 2.885, "Startup paces at high_gain");
                c.enter_drain();
                assert_eq!(c.pacing_gain, 1.0 / 2.885, "Drain paces at its inverse");
            }};
        }
        assert_shared_defaults!(BbrV1Config::default());
        assert_shared_defaults!(BbrV2Config::default());
    }

    #[test]
    fn pipe_is_full_after_three_rounds_under_25_percent_growth() {
        let (mut c, mut f) = (core(), AckFeeder::new());
        for mbps in [10, 20, 40] {
            model_step(&mut c, &f.ev(10, mbps, 50, 100_000, true, 0));
        }
        // +24 % is under the threshold; mid-round ACKs do not count.
        for round_start in [true, false, false, true] {
            model_step(&mut c, &f.ev(10, 49, 50, 100_000, round_start, 0));
            assert_eq!(c.mode, BbrMode::Startup);
        }
        // +25 % of the 40 Mbps baseline is growth: the count starts over.
        model_step(&mut c, &f.ev(10, 50, 50, 100_000, true, 0));
        for _ in 0..2 {
            model_step(&mut c, &f.ev(10, 50, 50, 100_000, true, 0));
            assert_eq!(c.mode, BbrMode::Startup);
        }
        model_step(&mut c, &f.ev(10, 50, 50, 100_000, true, 0));
        assert_eq!(c.mode, BbrMode::Drain);
        assert_eq!(c.pacing_gain, 1.0 / 2.885);
    }

    #[test]
    fn app_limited_rounds_do_not_count_toward_a_full_pipe() {
        let (mut c, mut f) = (core(), AckFeeder::new());
        model_step(&mut c, &f.ev(10, 40, 50, 100_000, true, 0));
        for _ in 0..10 {
            let mut ev = f.ev(10, 40, 50, 100_000, true, 0);
            ev.app_limited = true;
            model_step(&mut c, &ev);
        }
        assert_eq!(c.mode, BbrMode::Startup, "an idle sender has not filled the pipe");
    }

    #[test]
    fn app_limited_samples_raise_but_never_refresh_the_max_filter() {
        let (mut c, mut f) = (core(), AckFeeder::new());
        let mut limited = |c: &mut BbrCore, mbps| {
            let mut ev = f.ev(10, mbps, 50, 100_000, true, 0);
            ev.app_limited = true;
            c.update_model(&ev, WINDOW);
        };
        limited(&mut c, 100);
        limited(&mut c, 120);
        assert_eq!(c.btlbw(), Some(120_000_000), "a higher app-limited sample is still a bound");
        // Eleven more rounds of lower app-limited samples: had they entered
        // the filter, the 60 of round 13 would outlive the 120 of round 2.
        for _ in 0..11 {
            limited(&mut c, 60);
        }
        assert_eq!(c.btlbw(), Some(120_000_000));
        c.update_model(&f.ev(10, 50, 50, 100_000, true, 0), WINDOW);
        assert_eq!(c.btlbw(), Some(50_000_000), "round 14 ages out round 2; no 60 is left behind");
    }

    #[test]
    fn rtprop_expiry_is_computed_before_the_refresh() {
        let (mut c, mut f) = (core(), AckFeeder::new());
        c.update_model(&f.ev(10, 40, 50, 100_000, true, 0), WINDOW);
        // Exactly the window later is not yet stale; a higher RTT is ignored.
        let ev = f.ev(10_000, 40, 60, 100_000, false, 0);
        c.update_model(&ev, WINDOW);
        assert_eq!(c.rtprop, SimDuration::from_millis(50));
        assert!(!c.probe_rtt_step(&ev, FLOOR, DWELL));
        assert_eq!(c.mode, BbrMode::Startup);
        // One ms on, the same ACK that takes the stale estimate's place
        // (resetting the stamp) must still be seen as expired by ProbeRTT.
        let ev = f.ev(1, 40, 60, 100_000, false, 0);
        c.update_model(&ev, WINDOW);
        assert_eq!(c.rtprop, SimDuration::from_millis(60), "expired: any sample is accepted");
        c.probe_rtt_step(&ev, FLOOR, DWELL);
        assert_eq!(c.mode, BbrMode::ProbeRtt);
        assert_eq!(c.pacing_gain, 1.0);
        assert_eq!(c.cwnd, FLOOR);
    }

    #[test]
    fn probe_rtt_needs_the_dwell_and_a_full_round() {
        // The dwell alone: 300 ms at the floor, no round boundary.
        let (mut c, mut f) = (core(), AckFeeder::new());
        into_probe_rtt(&mut c, &mut f);
        for _ in 0..3 {
            assert!(!probe_rtt_ack(&mut c, &f.ev(100, 40, 50, 2_000, false, 0)));
            assert_eq!(c.mode, BbrMode::ProbeRtt);
        }
        // The round boundary supplies the other half.
        assert!(probe_rtt_ack(&mut c, &f.ev(1, 40, 50, 2_000, true, 0)), "full pipe: to ProbeBW");
        assert_eq!(c.mode, BbrMode::ProbeBw);

        // The round alone: boundaries pass 50 ms apart, the dwell has not.
        let (mut c, mut f) = (core(), AckFeeder::new());
        into_probe_rtt(&mut c, &mut f);
        for _ in 0..3 {
            assert!(!probe_rtt_ack(&mut c, &f.ev(50, 40, 50, 2_000, true, 0)));
            assert_eq!(c.mode, BbrMode::ProbeRtt);
        }
        // Inflight above the floor never starts the dwell clock at all.
        let (mut c, mut f) = (core(), AckFeeder::new());
        into_probe_rtt(&mut c, &mut f);
        for _ in 0..10 {
            assert!(!probe_rtt_ack(&mut c, &f.ev(100, 40, 50, FLOOR + 1, true, 0)));
        }
        assert_eq!(c.mode, BbrMode::ProbeRtt);
        assert_eq!(c.cwnd, FLOOR);
    }

    #[test]
    fn probe_rtt_restores_the_window_it_found() {
        let (mut c, mut f) = (core(), AckFeeder::new());
        c.cwnd = 300_000;
        into_probe_rtt(&mut c, &mut f);
        assert_eq!(c.cwnd, FLOOR);
        assert!(!probe_rtt_ack(&mut c, &f.ev(10, 40, 50, 2_000, false, 0)));
        assert!(probe_rtt_ack(&mut c, &f.ev(250, 40, 50, 2_000, true, 0)));
        assert_eq!(c.cwnd, 300_000);
    }
}
