//! # elephants-cca
//!
//! From-scratch implementations of the five TCP congestion-control
//! algorithms the paper studies:
//!
//! | CCA | Source | Character |
//! |-----|--------|-----------|
//! | [`Reno`] | RFC 5681 / Jacobson 1988 | loss-based AIMD |
//! | [`Cubic`] | Ha, Rhee & Xu 2008, RFC 8312 (+ HyStart) | loss-based, cubic growth |
//! | [`Htcp`] | Leith & Shorten 2004 | loss-based, adaptive AIMD for high BDP |
//! | [`BbrV1`] | Cardwell et al. 2017 | model-based (max-bw / min-rtt) |
//! | [`BbrV2`] | Cardwell et al. 2019 (v2alpha) | model-based + loss/ECN bounds |
//!
//! The algorithms are pure state machines behind the [`CongestionControl`]
//! trait: the `elephants-tcp` crate feeds them [`AckEvent`]s (with delivery
//! -rate samples, RACK-style loss counts and round markers) and reads back
//! `cwnd()` / `pacing_rate()`. Nothing here depends on the simulator's event
//! loop, which makes each algorithm unit-testable in isolation.

mod bbr;
pub mod bbr1;
pub mod bbr2;
mod cubic;
pub mod filters;
mod htcp;
mod loss_based;
mod reno;

pub use bbr1::{BbrV1, PROBE_BW_GAINS};
pub use bbr2::BbrV2;
pub use cubic::Cubic;
pub use filters::{WindowedMaxByRound, WindowedMinByTime};
pub use htcp::Htcp;
pub use reno::Reno;

use elephants_netsim::{CheckFailure, SimDuration, SimTime};

/// Everything a congestion controller learns from one incoming ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// RTT sample carried by this ACK (most recently acked segment).
    pub rtt: SimDuration,
    /// Connection-lifetime minimum RTT.
    pub min_rtt: SimDuration,
    /// Smoothed RTT.
    pub srtt: SimDuration,
    /// Bytes newly acknowledged (cumulative + SACK) by this ACK.
    pub newly_acked: u64,
    /// Bytes newly marked lost while processing this ACK.
    pub newly_lost: u64,
    /// Bytes in flight *after* processing this ACK.
    pub inflight: u64,
    /// Delivery-rate sample (bits/s), if the rate sampler produced one.
    pub delivery_rate: Option<u64>,
    /// Whether the delivery-rate sample was application-limited.
    pub app_limited: bool,
    /// Total bytes delivered over the connection so far.
    pub delivered: u64,
    /// True when this ACK starts a new round trip (packet sent after the
    /// previous round's end was acked).
    pub round_start: bool,
    /// The receiver echoed an ECN Congestion Experienced mark.
    pub ecn_ce: bool,
}

/// A fast-retransmit-triggering loss episode (once per recovery).
#[derive(Debug, Clone, Copy)]
pub struct LossEvent {
    /// When recovery began.
    pub now: SimTime,
    /// Bytes in flight when the loss was detected.
    pub inflight: u64,
    /// Bytes delivered so far (for throughput estimates).
    pub delivered: u64,
    /// Connection minimum RTT.
    pub min_rtt: SimDuration,
    /// Maximum RTT seen since the previous loss event.
    pub max_rtt_epoch: SimDuration,
}

/// A TCP congestion-control algorithm.
///
/// All byte quantities are real bytes; `mss` is fixed per connection.
pub trait CongestionControl: Send {
    /// Algorithm name (e.g. `"cubic"`).
    fn name(&self) -> &'static str;

    /// Process an incoming ACK. Called for every ACK, including during
    /// recovery (implementations may ignore growth while `in_recovery`).
    fn on_ack(&mut self, ev: &AckEvent, in_recovery: bool);

    /// A new loss episode detected via duplicate ACKs / SACK (fast
    /// retransmit); called once per episode.
    fn on_loss_event(&mut self, ev: &LossEvent);

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime);

    /// The last RTO was detected to be spurious (F-RTO/Eifel): the
    /// "lost" flight was merely delayed. Implementations should undo the
    /// window collapse.
    fn on_spurious_rto(&mut self, _now: SimTime) {}

    /// Recovery completed (all losses repaired).
    fn on_recovery_exit(&mut self, now: SimTime);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current pacing rate in bits/s; `None` means pure ACK clocking.
    fn pacing_rate(&self) -> Option<u64>;

    /// Slow-start threshold in bytes (`u64::MAX` when untouched).
    fn ssthresh(&self) -> u64;

    /// Whether the algorithm considers itself in slow start / startup.
    fn in_slow_start(&self) -> bool;

    /// Estimated bottleneck bandwidth (bits/s), for model-based CCAs.
    fn bw_estimate(&self) -> Option<u64> {
        None
    }

    /// Telemetry snapshot for the flight recorder.
    ///
    /// Must be a pure read — no state mutation. The default derives a
    /// generic `"slow_start"`/`"avoidance"` phase from [`Self::in_slow_start`];
    /// implementations override it with their real phase machine (BBR
    /// encodes the ProbeBW pacing gain in the label, e.g. `"probe_bw:1.25"`,
    /// so cycle transitions are countable from a recorded series).
    fn state_snapshot(&self) -> CcaState {
        CcaState {
            phase: if self.in_slow_start() { "slow_start" } else { "avoidance" },
            cwnd: self.cwnd(),
            ssthresh: self.ssthresh(),
            pacing_rate: self.pacing_rate(),
            bw_estimate: self.bw_estimate(),
            pacing_gain: None,
        }
    }

    /// Invariant probe for the strict-mode checker. Read-only — must not
    /// mutate state. The default enforces the generic contract via
    /// [`generic_cca_failures`]; implementations layer algorithm-specific
    /// structure on top (BBR's gain-cycle index range, bandwidth-filter
    /// monotonicity) and must include the generic checks too.
    fn check_invariants(&self, mss: u32) -> Vec<CheckFailure> {
        generic_cca_failures(self.cwnd(), &self.state_snapshot(), mss)
    }
}

/// The generic congestion-controller contract every algorithm must hold:
/// cwnd at least one MSS, a finite positive pacing gain, and — for paced
/// CCAs — a nonzero pacing rate (a paced flow with rate 0 never sends
/// again). Shared by the trait default and algorithm-specific overrides.
pub fn generic_cca_failures(cwnd: u64, snap: &CcaState, mss: u32) -> Vec<CheckFailure> {
    let mut fails = Vec::new();
    if cwnd < mss as u64 {
        fails.push(CheckFailure::new(
            "cca_cwnd_floor",
            format!("cwnd {cwnd} below one MSS ({mss})"),
        ));
    }
    if let Some(g) = snap.pacing_gain {
        if !g.is_finite() || g <= 0.0 {
            fails.push(CheckFailure::new(
                "cca_pacing_gain",
                format!("pacing gain {g} not finite and positive"),
            ));
        }
    }
    if snap.pacing_rate == Some(0) {
        fails.push(CheckFailure::new(
            "cca_pacing_rate",
            "paced CCA reports pacing rate 0 (flow would stall forever)".to_string(),
        ));
    }
    fails
}

/// One telemetry read-out of a congestion controller (see
/// [`CongestionControl::state_snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcaState {
    /// Phase label; stable strings, suitable for serialization.
    pub phase: &'static str,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes (`u64::MAX` when untouched).
    pub ssthresh: u64,
    /// Pacing rate, bits/s (`None` = ACK-clocked).
    pub pacing_rate: Option<u64>,
    /// Bottleneck-bandwidth estimate, bits/s (model-based CCAs).
    pub bw_estimate: Option<u64>,
    /// Current pacing gain (BBR), if the CCA uses one.
    pub pacing_gain: Option<f64>,
}

/// The columns of [`CcaKind`]'s table that are this crate's own.
struct CcaRow {
    /// Paper-style display name.
    pretty: &'static str,
    /// Constructor from `(mss, per-flow seed)`.
    build: fn(u32, u64) -> Box<dyn CongestionControl>,
}

elephants_json::kind_table! {
    /// Which congestion controller to instantiate: one row per kind, the
    /// only list of CCAs in the workspace (DESIGN.md §3h). Adding one is
    /// its module plus its row here.
    pub enum CcaKind("CCA") -> CcaRow {
        /// BBR version 1.
        BbrV1: "bbr1", ["bbrv1", "bbr"], paper: true, CcaRow {
            pretty: "BBRv1",
            build: |mss, seed| Box::new(BbrV1::new(mss, seed)),
        };
        /// BBR version 2 (v2alpha).
        BbrV2: "bbr2", ["bbrv2"], paper: true, CcaRow {
            pretty: "BBRv2",
            build: |mss, seed| Box::new(BbrV2::new(0.02, mss, seed)),
        };
        /// Hamilton TCP.
        Htcp: "htcp", ["h-tcp"], paper: true, CcaRow {
            pretty: "HTCP",
            build: |mss, _| Box::new(Htcp::new(mss)),
        };
        /// TCP Reno.
        Reno: "reno", [], paper: true, CcaRow {
            pretty: "Reno",
            build: |mss, _| Box::new(Reno::new(mss)),
        };
        /// TCP CUBIC (Linux default).
        Cubic: "cubic", [], paper: true, CcaRow {
            pretty: "CUBIC",
            build: |mss, _| Box::new(Cubic::new(true, mss)),
        };
    }
}

impl CcaKind {
    /// Paper-style display name.
    pub fn pretty(self) -> &'static str {
        self.row().pretty
    }
}

/// Instantiate a congestion controller.
pub fn build_cca(kind: CcaKind, mss: u32) -> Box<dyn CongestionControl> {
    build_cca_seeded(kind, mss, 0)
}

/// Instantiate a congestion controller with a per-flow seed.
///
/// The seed only feeds the BBR probe-phase randomizers (ProbeBW cycle phase
/// in v1, cruise-wait jitter in v2); giving each flow a distinct seed avoids
/// the artificial probe synchronization a shared default would create.
pub fn build_cca_seeded(kind: CcaKind, mss: u32, seed: u64) -> Box<dyn CongestionControl> {
    (kind.row().build)(mss, seed)
}

/// Initial congestion window: 10 segments (Linux IW10, RFC 6928).
pub const INITIAL_CWND_SEGMENTS: u64 = 10;

/// Floor for the congestion window: 2 segments.
pub const MIN_CWND_SEGMENTS: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing_round_trips() {
        let mut spellings = std::collections::HashSet::new();
        for k in CcaKind::ALL {
            for s in k.spellings() {
                assert_eq!(s.parse::<CcaKind>().unwrap(), k, "{s}");
                assert_eq!(s.to_ascii_uppercase().parse::<CcaKind>().unwrap(), k, "{s}");
                assert!(spellings.insert(*s), "'{s}' is claimed by two rows");
            }
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!("bbr".parse::<CcaKind>().unwrap(), CcaKind::BbrV1);
        let err = "quic".parse::<CcaKind>().unwrap_err();
        for k in CcaKind::ALL {
            assert!(err.contains(k.name()), "{err}");
        }
    }

    #[test]
    fn json_spelling_is_the_variant_name_and_round_trips() {
        use elephants_json::{FromJson, ToJson};
        for k in CcaKind::ALL {
            let text = k.to_json_string();
            assert_eq!(text, format!("\"{k:?}\""));
            assert_eq!(CcaKind::from_json_str(&text).unwrap(), k);
        }
        assert!(CcaKind::from_json_str("\"bbr1\"").is_err(), "JSON takes the variant name only");
        assert!(CcaKind::from_json_str("1").is_err());
    }

    #[test]
    fn factory_builds_all_with_iw10() {
        for k in CcaKind::ALL {
            let cca = build_cca(k, 8900);
            assert_eq!(cca.name(), k.name());
            assert_eq!(cca.cwnd(), 10 * 8900, "{k} must start at IW10");
        }
    }

    #[test]
    fn loss_based_ccas_do_not_pace() {
        for k in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Htcp] {
            assert!(build_cca(k, 1500).pacing_rate().is_none());
        }
    }

    #[test]
    fn bbr_paces_from_the_start() {
        for k in [CcaKind::BbrV1, CcaKind::BbrV2] {
            assert!(build_cca(k, 1500).pacing_rate().is_some(), "{k}");
        }
    }
}
