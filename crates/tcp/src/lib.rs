//! # elephants-tcp
//!
//! The TCP data plane connecting congestion controllers (`elephants-cca`)
//! to the network simulator (`elephants-netsim`):
//!
//! * [`TcpSender`] — window management, FACK/SACK loss detection, fast
//!   retransmit + recovery, RFC 6298 RTO with backoff, optional pacing
//!   (driven by the CCA's `pacing_rate()`), and Linux-`tcp_rate.c`-style
//!   delivery-rate sampling for BBR.
//! * [`TcpReceiver`] — reorder buffer, cumulative + 3-block SACK generation,
//!   delayed ACKs, ECN echo.
//!
//! Segments are sequenced in MSS units (the study's jumbo-frame MSS is
//! 8900 bytes), which keeps both ends allocation-free per packet.

pub mod rate;
pub mod receiver;
pub mod rtt;
pub mod scoreboard;
pub mod sender;

pub use receiver::{ReceiverConfig, TcpReceiver};
pub use rtt::{RttEstimator, MAX_RTO, MIN_RTO};
pub use scoreboard::{PktMeta, PktState, Scoreboard};
pub use sender::{SenderConfig, TcpSender, DUPTHRESH};

#[cfg(test)]
mod e2e_tests {
    use super::*;
    use elephants_cca::{build_cca, CcaKind};
    use elephants_netsim::prelude::*;
    use elephants_netsim::RunSummary;

    /// Add one flow from sender host 0 to receiver host 0, starting now.
    fn add_flow(sim: &mut Simulator, kind: CcaKind, cfg: SenderConfig) {
        let (s, r) = (sim.topology().sender_hosts()[0], sim.topology().receiver_hosts()[0]);
        let tx = TcpSender::new(cfg, r, build_cca(kind, cfg.mss));
        let rx = TcpReceiver::new(ReceiverConfig::default(), s);
        sim.add_flow(s, r, Box::new(tx), Box::new(rx), SimTime::ZERO);
    }

    /// Run one TCP flow through the paper dumbbell for `secs` seconds.
    fn run_single(kind: CcaKind, bw_mbps: u64, buffer_bdp: f64, secs: u64) -> RunSummary {
        let bw = Bandwidth::from_mbps(bw_mbps);
        let mut topo = TopologySpec::Dumbbell.build(bw, SimDuration::from_millis(62)).unwrap();
        let rtt = topo.base_rtt();
        let buffer = (elephants_netsim::bdp_bytes(bw, rtt) as f64 * buffer_bdp) as u64;
        let trunk = topo.bottleneck_link().unwrap();
        topo.set_aqm_on(trunk, Box::new(DropTail::new(buffer.max(4 * 8900))));
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                duration: SimDuration::from_secs(secs),
                warmup: SimDuration::from_secs(secs / 2),
                max_events: u64::MAX,
            },
            1,
        );
        add_flow(&mut sim, kind, SenderConfig::default());
        sim.run()
    }

    fn goodput_mbps(s: &RunSummary) -> f64 {
        s.flows[0].window_goodput_bps(s.window) / 1e6
    }

    #[test]
    fn cubic_fills_a_100mbps_pipe() {
        let s = run_single(CcaKind::Cubic, 100, 2.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 90.0, "CUBIC goodput {g:.1} Mbps, want > 90");
    }

    #[test]
    fn reno_fills_a_100mbps_pipe_with_bdp_buffer() {
        let s = run_single(CcaKind::Reno, 100, 1.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 85.0, "Reno goodput {g:.1} Mbps, want > 85");
    }

    #[test]
    fn htcp_fills_a_100mbps_pipe() {
        let s = run_single(CcaKind::Htcp, 100, 2.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 88.0, "HTCP goodput {g:.1} Mbps, want > 88");
    }

    #[test]
    fn bbr1_fills_a_100mbps_pipe() {
        let s = run_single(CcaKind::BbrV1, 100, 2.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 88.0, "BBRv1 goodput {g:.1} Mbps, want > 88");
    }

    #[test]
    fn bbr2_fills_a_100mbps_pipe() {
        let s = run_single(CcaKind::BbrV2, 100, 2.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 88.0, "BBRv2 goodput {g:.1} Mbps, want > 88");
    }

    #[test]
    fn cubic_scales_to_1gbps() {
        let s = run_single(CcaKind::Cubic, 1000, 2.0, 12);
        let g = goodput_mbps(&s);
        assert!(g > 850.0, "CUBIC goodput {g:.1} Mbps at 1G, want > 850");
    }

    #[test]
    fn tiny_buffer_hurts_loss_based_ccas() {
        // 0.1 BDP buffer: Reno cannot keep the pipe full at 62 ms RTT.
        let s = run_single(CcaKind::Reno, 100, 0.1, 12);
        let g = goodput_mbps(&s);
        assert!(g < 85.0, "Reno with 0.1 BDP buffer got {g:.1} Mbps; expected underutilization");
    }

    #[test]
    fn losses_are_repaired_exactly_once_per_drop() {
        // With a small buffer there must be drops, and every drop must be
        // matched by at least one retransmission, with goodput still sane.
        let s = run_single(CcaKind::Cubic, 100, 0.5, 12);
        let drops = s.bottleneck.aqm.dropped_total();
        let retx = s.flows[0].sender.retransmits;
        assert!(drops > 0, "expected drops with a 0.5 BDP buffer");
        assert!(retx >= drops, "every dropped segment needs a retransmit: drops={drops} retx={retx}");
        // No duplicate-delivery inflation: delivered segments == receiver's count.
        let delivered = s.flows[0].receiver.delivered_segments;
        assert!(delivered > 0);
    }

    #[test]
    fn no_rtos_on_a_clean_path() {
        let s = run_single(CcaKind::Cubic, 100, 4.0, 12);
        assert_eq!(s.flows[0].sender.rto_count, 0, "clean path must not time out");
    }

    #[test]
    fn determinism_end_to_end() {
        let a = run_single(CcaKind::Cubic, 100, 1.0, 6);
        let b = run_single(CcaKind::Cubic, 100, 1.0, 6);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.flows[0].receiver.delivered_bytes, b.flows[0].receiver.delivered_bytes);
        assert_eq!(a.flows[0].sender.retransmits, b.flows[0].sender.retransmits);
    }

    #[test]
    fn srtt_close_to_path_rtt() {
        let s = run_single(CcaKind::BbrV2, 100, 1.0, 8);
        let srtt = s.flows[0].sender.srtt.expect("srtt measured");
        let rtt_ms = srtt.as_millis_f64();
        assert!((61.0..200.0).contains(&rtt_ms), "srtt {rtt_ms:.1} ms");
        let min_rtt = s.flows[0].sender.min_rtt.unwrap().as_millis_f64();
        assert!((62.0..66.0).contains(&min_rtt), "min_rtt {min_rtt:.2} ms");
    }
}
