//! The window machine Reno, CUBIC and H-TCP share (DESIGN.md §3k).
//!
//! A loss-based CCA is its growth law: everything but the congestion
//! -avoidance increase, the backoff factor β and a few bookkeeping hooks is
//! the same RFC 5681 machine — IW10, slow start capped at `ssthresh` with
//! one MSS per ACK at most, growth frozen in recovery, the
//! `max(cwnd·β, 2 MSS)` cut, the RTO collapse to one segment and its
//! spurious-RTO undo. [`LossBased`] is that machine, and the only
//! [`CongestionControl`] impl of the three; a [`GrowthLaw`] fills in the
//! rest.

use crate::{AckEvent, CcaState, CongestionControl, LossEvent, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS};
use elephants_netsim::SimTime;

/// What one loss-based CCA adds to the shared window machine.
pub trait GrowthLaw: Send {
    /// [`CongestionControl::name`].
    const NAME: &'static str;
    /// Phase label outside slow start.
    const PHASE: &'static str;

    /// Every ACK, before recovery and zero-byte ACKs are filtered out.
    fn on_any_ack(&mut self, _ev: &AckEvent) {}

    /// Whether slow start ends at this ACK; the core then sets
    /// `ssthresh = cwnd` and does not grow on it.
    fn ends_slow_start(&mut self, _ev: &AckEvent) -> bool {
        false
    }

    /// Congestion avoidance: whole segments to add for this ACK.
    fn increase(&mut self, cwnd: u64, mss: u64, ev: &AckEvent) -> u64;

    /// A fast-retransmit loss episode at window `cwnd`: β for the cut.
    fn loss_beta(&mut self, cwnd: u64, mss: u64, ev: &LossEvent) -> f64;

    /// A retransmission timeout at window `cwnd`: β for `ssthresh`.
    fn rto_beta(&mut self, cwnd: u64, mss: u64, now: SimTime) -> f64;

    /// The last RTO was spurious: restore what [`Self::rto_beta`] changed.
    fn undo_rto(&mut self) {}
}

/// Moves the whole segments out of a fractional growth counter.
pub(crate) fn take_whole(cnt: &mut f64) -> u64 {
    if *cnt < 1.0 {
        return 0;
    }
    let whole = cnt.floor();
    *cnt -= whole;
    whole as u64
}

/// The shared window machine under growth law `L`.
#[derive(Debug, Clone)]
pub struct LossBased<L> {
    mss: u64,
    pub(crate) cwnd: u64,
    pub(crate) ssthresh: u64,
    /// (cwnd, ssthresh) before the last RTO, for spurious-RTO undo.
    undo: Option<(u64, u64)>,
    pub(crate) law: L,
}

impl<L: GrowthLaw> LossBased<L> {
    pub(crate) fn with_law(mss: u32, law: L) -> Self {
        let mss = mss as u64;
        LossBased { mss, cwnd: INITIAL_CWND_SEGMENTS * mss, ssthresh: u64::MAX, undo: None, law }
    }

    /// `max(cwnd·β, 2 MSS)`.
    fn cut(&self, beta: f64) -> u64 {
        ((self.cwnd as f64 * beta) as u64).max(MIN_CWND_SEGMENTS * self.mss)
    }
}

impl<L: GrowthLaw> CongestionControl for LossBased<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn on_ack(&mut self, ev: &AckEvent, in_recovery: bool) {
        self.law.on_any_ack(ev);
        if in_recovery || ev.newly_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            if self.law.ends_slow_start(ev) {
                self.ssthresh = self.cwnd;
                return;
            }
            // RFC 5681 §3.1, with the L = 1 SMSS per-ACK cap.
            self.cwnd = (self.cwnd + ev.newly_acked.min(self.mss)).min(self.ssthresh);
        } else {
            self.cwnd += self.law.increase(self.cwnd, self.mss, ev) * self.mss;
        }
    }

    fn on_loss_event(&mut self, ev: &LossEvent) {
        let beta = self.law.loss_beta(self.cwnd, self.mss, ev);
        self.ssthresh = self.cut(beta);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, now: SimTime) {
        self.undo = Some((self.cwnd, self.ssthresh));
        let beta = self.law.rto_beta(self.cwnd, self.mss, now);
        self.ssthresh = self.cut(beta);
        self.cwnd = self.mss;
    }

    fn on_spurious_rto(&mut self, _now: SimTime) {
        if let Some((cwnd, ssthresh)) = self.undo.take() {
            self.cwnd = self.cwnd.max(cwnd);
            self.ssthresh = ssthresh;
            self.law.undo_rto();
        }
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        self.cwnd = self.cwnd.max(MIN_CWND_SEGMENTS * self.mss);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Option<u64> {
        None
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn state_snapshot(&self) -> CcaState {
        CcaState {
            phase: if self.in_slow_start() { "slow_start" } else { L::PHASE },
            cwnd: self.cwnd,
            ssthresh: self.ssthresh,
            pacing_rate: None,
            bw_estimate: None,
            pacing_gain: None,
        }
    }
}
