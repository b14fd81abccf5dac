//! Closed-loop dynamics tests: drive each CCA with a synthetic
//! fixed-capacity bottleneck model (no simulator) and check the
//! steady-state behaviours the paper's analysis relies on.
//!
//! The loop models one flow on a `capacity`-limited path with a
//! `buffer`-packet queue and a 62 ms base RTT: each "round" delivers
//! min(cwnd, capacity + queue) packets, queue occupancy inflates the RTT
//! sample, and overflowing the buffer produces a loss event.

use elephants_cca::{
    build_cca_seeded, AckEvent, CcaKind, CongestionControl, LossEvent,
};
use elephants_netsim::{SimDuration, SimTime};

const MSS: u64 = 1000;
const BASE_RTT_MS: u64 = 62;

struct Loop {
    cca: Box<dyn CongestionControl>,
    capacity_pkts: u64,
    buffer_pkts: u64,
    now_ms: u64,
    delivered: u64,
    losses: u64,
    rtt_ms: u64,
}

impl Loop {
    fn new(kind: CcaKind, capacity_pkts: u64, buffer_pkts: u64) -> Self {
        Loop {
            cca: build_cca_seeded(kind, MSS as u32, 3),
            capacity_pkts,
            buffer_pkts,
            now_ms: 0,
            delivered: 0,
            losses: 0,
            rtt_ms: BASE_RTT_MS,
        }
    }

    /// Advance one round trip; returns the delivered packet count.
    fn round(&mut self) -> u64 {
        let cwnd_pkts = (self.cca.cwnd() / MSS).max(1);
        let pipe = self.capacity_pkts;
        let queued = cwnd_pkts.saturating_sub(pipe);
        self.rtt_ms = BASE_RTT_MS + queued.min(self.buffer_pkts) * BASE_RTT_MS / pipe.max(1);
        self.now_ms += self.rtt_ms;

        if queued > self.buffer_pkts {
            // Overflow: loss event, deliver what fits.
            self.losses += queued - self.buffer_pkts;
            let ev = LossEvent {
                now: SimTime::ZERO + SimDuration::from_millis(self.now_ms),
                inflight: cwnd_pkts * MSS,
                delivered: self.delivered * MSS,
                min_rtt: SimDuration::from_millis(BASE_RTT_MS),
                max_rtt_epoch: SimDuration::from_millis(self.rtt_ms),
            };
            self.cca.on_loss_event(&ev);
        }
        let delivered_now = cwnd_pkts.min(pipe + self.buffer_pkts);
        self.delivered += delivered_now;

        // Feed the round's ACKs in a few batches (8 per round).
        let batches = 8u64;
        for b in 0..batches {
            let acked = delivered_now / batches
                + if b < delivered_now % batches { 1 } else { 0 };
            if acked == 0 {
                continue;
            }
            let rate_bps = delivered_now * MSS * 8 * 1000 / self.rtt_ms.max(1);
            let ev = AckEvent {
                now: SimTime::ZERO + SimDuration::from_millis(self.now_ms),
                rtt: SimDuration::from_millis(self.rtt_ms),
                min_rtt: SimDuration::from_millis(BASE_RTT_MS),
                srtt: SimDuration::from_millis(self.rtt_ms),
                newly_acked: acked * MSS,
                newly_lost: 0,
                inflight: cwnd_pkts * MSS / 2,
                delivery_rate: Some(rate_bps),
                app_limited: false,
                delivered: self.delivered * MSS,
                round_start: b == 0,
                ecn_ce: false,
            };
            self.cca.on_ack(&ev, false);
        }
        delivered_now
    }

    /// Run `n` rounds; return mean delivered per round over the last half.
    fn run(&mut self, n: usize) -> f64 {
        let mut tail = 0u64;
        let half = n / 2;
        for i in 0..n {
            let d = self.round();
            if i >= half {
                tail += d;
            }
        }
        tail as f64 / (n - half) as f64
    }
}

#[test]
fn every_cca_reaches_high_mean_utilization_with_bdp_buffer() {
    for kind in CcaKind::ALL {
        let mut l = Loop::new(kind, 87, 87); // 100 Mbps-ish path, 1 BDP buffer
        let mean = l.run(400);
        assert!(
            mean > 0.85 * 87.0,
            "{}: mean delivered {mean:.1} pkts/round (want > {:.1})",
            kind.name(),
            0.85 * 87.0
        );
    }
}

#[test]
fn loss_based_ccas_oscillate_bbr_does_not() {
    // Compare the central cwnd band (10th..90th percentile ratio): CUBIC's
    // sawtooth spans a wide band, BBR's steady-state cwnd is pinned to
    // gain x BDP (ProbeRTT dips fall outside the percentile band).
    let band_ratio = |kind: CcaKind| {
        let mut l = Loop::new(kind, 87, 43);
        l.run(200); // warm up
        let mut samples = vec![];
        for _ in 0..200 {
            l.round();
            samples.push(l.cca.cwnd() as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = samples[samples.len() / 10];
        let p90 = samples[samples.len() * 9 / 10];
        p90 / p10
    };
    let cubic_band = band_ratio(CcaKind::Cubic);
    let bbr_band = band_ratio(CcaKind::BbrV1);
    assert!(cubic_band > 1.05, "CUBIC must sawtooth, band={cubic_band:.3}");
    assert!(
        bbr_band < cubic_band,
        "BBR must be steadier: bbr={bbr_band:.3} cubic={cubic_band:.3}"
    );
}

#[test]
fn cubic_recovers_to_wmax_within_k_seconds() {
    let mut l = Loop::new(CcaKind::Cubic, 87, 87);
    l.run(300); // reach steady sawtooth
    // Find the next loss, then measure time to regain W_max.
    let mut w_max = 0u64;
    for _ in 0..200 {
        let before = l.cca.cwnd();
        let losses_before = l.losses;
        l.round();
        if l.losses > losses_before {
            w_max = before;
            break;
        }
    }
    assert!(w_max > 0, "no loss observed in 200 rounds");
    let cut = l.cca.cwnd();
    assert!(cut < w_max);
    // K = cbrt(w_max_seg * 0.3 / 0.4) seconds; allow 2x slack.
    let w_max_seg = (w_max / MSS) as f64;
    let k_secs = (w_max_seg * 0.3 / 0.4).cbrt();
    let start_ms = l.now_ms;
    let mut recovered = false;
    while l.now_ms < start_ms + (3.0 * k_secs * 1000.0) as u64 {
        l.round();
        if l.cca.cwnd() >= w_max * 95 / 100 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "CUBIC failed to re-approach W_max within 3K");
}

#[test]
fn htcp_beta_adapts_to_queue_depth() {
    // Shallow buffer: RTT barely moves, beta should sit near the 0.8 cap.
    let mut shallow = Loop::new(CcaKind::Htcp, 87, 9);
    shallow.run(300);
    // Deep buffer: bufferbloat pushes RTT up, beta falls toward 0.5.
    let mut deep = Loop::new(CcaKind::Htcp, 87, 870);
    deep.run(300);
    // Compare post-loss cut ratios indirectly via delivered means: both
    // should still utilize well; the interesting assertion is on cwnd cut.
    // Drive each to a loss and measure the cut ratio.
    let cut_ratio = |l: &mut Loop| {
        for _ in 0..400 {
            let before = l.cca.cwnd();
            let losses_before = l.losses;
            l.round();
            if l.losses > losses_before {
                return l.cca.cwnd() as f64 / before as f64;
            }
        }
        panic!("no loss observed");
    };
    let r_shallow = cut_ratio(&mut shallow);
    let r_deep = cut_ratio(&mut deep);
    assert!(
        r_deep < r_shallow + 0.05,
        "deep-buffer H-TCP must back off at least as hard: shallow={r_shallow:.2} deep={r_deep:.2}"
    );
    assert!(r_shallow > 0.6, "shallow-buffer H-TCP should cut gently: {r_shallow:.2}");
}

#[test]
fn bbr1_inflight_stays_near_two_bdp_despite_huge_buffer() {
    let mut l = Loop::new(CcaKind::BbrV1, 87, 87 * 16);
    l.run(400);
    let cwnd_pkts = l.cca.cwnd() / MSS;
    assert!(
        cwnd_pkts <= 87 * 5 / 2,
        "BBRv1 cwnd {cwnd_pkts} pkts must respect ~2 BDP cap (87-pkt BDP)"
    );
}

#[test]
fn reno_additive_increase_rate_is_one_mss_per_rtt() {
    let mut l = Loop::new(CcaKind::Reno, 1000, 1000);
    // Exit slow start via an early loss.
    l.cca.on_loss_event(&LossEvent {
        now: SimTime::ZERO,
        inflight: l.cca.cwnd(),
        delivered: 0,
        min_rtt: SimDuration::from_millis(BASE_RTT_MS),
        max_rtt_epoch: SimDuration::from_millis(BASE_RTT_MS),
    });
    let w0 = l.cca.cwnd();
    for _ in 0..50 {
        l.round();
    }
    let w1 = l.cca.cwnd();
    let per_rtt = (w1 - w0) as f64 / 50.0 / MSS as f64;
    assert!(
        (0.7..=1.3).contains(&per_rtt),
        "Reno CA slope {per_rtt:.2} MSS/RTT, want ~1"
    );
}
