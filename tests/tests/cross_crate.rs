//! Cross-crate integration: wiring the simulator, TCP stack, AQMs and
//! metrics together through the public APIs.

use elephants::cca::{build_cca, build_cca_seeded, CcaKind};
use elephants::netsim::prelude::*;
use elephants::netsim::LossModel;
use elephants::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use integration_tests::{run_study, study_config};

#[test]
fn study_outcome_invariants_hold_across_grid_sample() {
    for aqm in ["fifo", "red", "fq_codel"] {
        for (a, b) in [("cubic", "cubic"), ("bbr2", "cubic")] {
            let out = run_study(&study_config(a, b, aqm, 1.0, 100, 6).build().unwrap(), 1);
            assert!(out.jain > 0.0 && out.jain <= 1.0, "{aqm} {a}/{b} J={}", out.jain);
            assert!(out.utilization >= 0.0 && out.utilization <= 1.0);
            assert!(out.sender_mbps[0] >= 0.0 && out.sender_mbps[1] >= 0.0);
            assert_eq!(out.runs[0].flows, 2);
        }
    }
}

#[test]
fn repeats_average_differs_from_single_seed() {
    let cfg = study_config("cubic", "cubic", "fifo", 2.0, 100, 5).seed(1).build().unwrap();
    let single = run_study(&cfg, 1);
    let averaged = run_study(&cfg, 3);
    // Both valid; the averaged one used 3 seeds (weak check: both sane).
    assert!(single.utilization > 0.5 && averaged.utilization > 0.5);
}

#[test]
fn ecn_enabled_end_to_end_reduces_drops_with_fq_codel() {
    let run = |ecn: bool| {
        let cfg = study_config("bbr2", "bbr2", "fq_codel", 2.0, 100, 8).ecn(ecn).build().unwrap();
        run_study(&cfg, 1)
    };
    let without = run(false);
    let with = run(true);
    // ECN converts drops into marks: retransmissions must not increase.
    assert!(
        with.retransmits <= without.retransmits,
        "ECN should not increase retx: with={:.0} without={:.0}",
        with.retransmits,
        without.retransmits
    );
}

#[test]
fn custom_topology_with_loss_injection() {
    // Build everything by hand through the low-level APIs.
    let bw = Bandwidth::from_mbps(100);
    let spec = DumbbellSpec::paper(bw);
    let mut topo = spec.build();
    let bdp = bdp_bytes(bw, topo.base_rtt());
    topo.set_bottleneck_aqm(Box::new(DropTail::new(2 * bdp)));
    let bn = topo.bottleneck_link().unwrap();
    topo.link_mut(bn).loss_model = LossModel::Bernoulli { p: 0.001 };

    let mut sim = Simulator::new(
        topo,
        SimConfig {
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(2),
            max_events: u64::MAX,
        },
        11,
    );
    let tx = TcpSender::new(SenderConfig::default(), spec.receiver(0), build_cca_seeded(CcaKind::BbrV2, 8900, 1));
    let rx = TcpReceiver::new(ReceiverConfig::default(), spec.sender(0));
    sim.add_flow(spec.sender(0), spec.receiver(0), Box::new(tx), Box::new(rx), SimTime::ZERO);
    let summary = sim.run();
    assert!(summary.bottleneck.fault_losses > 0, "loss model must fire");
    let goodput = summary.flows[0].window_goodput_bps(summary.window) / 1e6;
    assert!(goodput > 50.0, "BBRv2 should still move data under 0.1% loss: {goodput:.1}");
}

#[test]
fn gilbert_elliott_bursts_hurt_more_than_bernoulli_for_cubic() {
    let run = |model: LossModel| {
        let bw = Bandwidth::from_mbps(100);
        let spec = DumbbellSpec::paper(bw);
        let mut topo = spec.build();
        let bdp = bdp_bytes(bw, topo.base_rtt());
        topo.set_bottleneck_aqm(Box::new(DropTail::new(2 * bdp)));
        let bn = topo.bottleneck_link().unwrap();
        topo.link_mut(bn).loss_model = model;
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                duration: SimDuration::from_secs(8),
                warmup: SimDuration::from_secs(2),
                max_events: u64::MAX,
            },
            5,
        );
        let cca = build_cca(CcaKind::Cubic, 8900);
        let tx = TcpSender::new(SenderConfig::default(), spec.receiver(0), cca);
        let rx = TcpReceiver::new(ReceiverConfig::default(), spec.sender(0));
        sim.add_flow(spec.sender(0), spec.receiver(0), Box::new(tx), Box::new(rx), SimTime::ZERO);
        let s = sim.run();
        s.flows[0].window_goodput_bps(s.window) / 1e6
    };
    let clean = run(LossModel::None);
    // Same average loss rate (~0.5%), different burstiness.
    let bursty = run(LossModel::GilbertElliott { p_gb: 0.001, p_bg: 0.2 });
    assert!(clean > bursty, "loss must cost goodput: clean={clean:.1} bursty={bursty:.1}");
}

#[test]
fn flow_scale_controls_flow_count() {
    let cfg = study_config("cubic", "cubic", "fifo", 2.0, 500, 4).flow_scale(0.4).build().unwrap();
    let out = run_study(&cfg, 1);
    // Table 2 at 500 Mbps = 5 flows/node; 40% = 2/node = 4 total.
    assert_eq!(out.runs[0].flows, 4);
}

#[test]
fn pie_extension_keeps_delay_low_with_good_utilization() {
    // The PIE extension (RFC 8033): near-full utilization at 100 Mbps with
    // a 15 ms delay target — the standing queue stays far below what CUBIC
    // would build through plain FIFO.
    let fifo = run_study(&study_config("cubic", "cubic", "fifo", 8.0, 100, 15).build().unwrap(), 1);
    let pie = run_study(&study_config("cubic", "cubic", "pie", 8.0, 100, 15).build().unwrap(), 1);
    assert!(pie.utilization > 0.8, "PIE phi = {:.3}", pie.utilization);
    assert!(pie.jain > 0.85, "PIE J = {:.3}", pie.jain);
    // FIFO at 8 BDP has no drops to speak of but a giant queue; PIE trades
    // a few retransmissions for bounded delay.
    assert!(fifo.utilization > 0.9);
}
