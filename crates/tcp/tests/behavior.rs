//! Focused behavioural tests for the TCP stack: pacing, RTO backoff under
//! blackholes, spurious-RTO undo, ECN echo.

use elephants_cca::{build_cca_seeded, CcaKind};
use elephants_netsim::prelude::*;
use elephants_netsim::{FaultPlan, LossModel};
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

/// The paper dumbbell at `bw` and 62 ms, with `aqm(bdp)` on its trunk.
fn dumbbell(bw: Bandwidth, aqm: impl FnOnce(u64) -> Box<dyn Aqm>) -> Topology {
    let mut topo = TopologySpec::Dumbbell.build(bw, SimDuration::from_millis(62)).unwrap();
    let trunk = topo.bottleneck_link().unwrap();
    let bdp = elephants_netsim::bdp_bytes(bw, topo.base_rtt());
    topo.set_aqm_on(trunk, aqm(bdp));
    topo
}

/// Sender and receiver host of dumbbell pair `pair`.
fn hosts(sim: &Simulator, pair: usize) -> (NodeId, NodeId) {
    (sim.topology().sender_hosts()[pair], sim.topology().receiver_hosts()[pair])
}

fn paper_sim(bw_mbps: u64, buffer_bdp: f64, secs: u64, seed: u64) -> Simulator {
    let topo = dumbbell(Bandwidth::from_mbps(bw_mbps), |bdp| {
        Box::new(DropTail::new(((bdp as f64 * buffer_bdp) as u64).max(4 * 8900)))
    });
    Simulator::new(
        topo,
        SimConfig {
            duration: SimDuration::from_secs(secs),
            warmup: SimDuration::from_secs(secs / 4),
            max_events: u64::MAX,
        },
        seed,
    )
}

fn add_tcp(sim: &mut Simulator, pair: usize, kind: CcaKind) -> FlowId {
    let (s, r) = hosts(sim, pair);
    let cca = build_cca_seeded(kind, 8900, 42 + pair as u64);
    let tx = TcpSender::new(SenderConfig::default(), r, cca);
    let rx = TcpReceiver::new(ReceiverConfig::default(), s);
    sim.add_flow(s, r, Box::new(tx), Box::new(rx), SimTime::ZERO)
}

#[test]
fn bbr_pacing_smooths_the_bottleneck_queue() {
    // A paced BBRv2 flow should keep the standing queue tiny compared to an
    // unpaced CUBIC flow at the same (deep) buffer.
    let run = |kind: CcaKind| {
        let mut sim = paper_sim(100, 8.0, 15, 7);
        let flow = add_tcp(&mut sim, 0, kind);
        let bn = sim.topology().bottleneck_link().unwrap();
        // Sample peak queue over the second half of the run.
        let mut peak = 0usize;
        for step in 1..=60 {
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(step * 250));
            if step > 30 {
                peak = peak.max(sim.topology().link(bn).aqm.backlog_pkts());
            }
        }
        let _ = flow;
        peak
    };
    let bbr_peak = run(CcaKind::BbrV2);
    let cubic_peak = run(CcaKind::Cubic);
    assert!(
        bbr_peak < cubic_peak / 2,
        "paced BBRv2 queue ({bbr_peak} pkts) must stay far below CUBIC's ({cubic_peak} pkts)"
    );
}

#[test]
fn blackhole_triggers_rto_with_backoff() {
    // Kill the bottleneck entirely shortly after start: the sender must
    // RTO, back off exponentially, and not melt down.
    let mut sim = paper_sim(100, 2.0, 20, 1);
    let flow = add_tcp(&mut sim, 0, CcaKind::Cubic);
    // Let it get going, then blackhole the forward path.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let bn = sim.topology().bottleneck_link().unwrap();
    sim.topology_mut().link_mut(bn).loss_model = LossModel::Bernoulli { p: 1.0 };
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
    let sender = sim.sender(flow).as_any().downcast_ref::<TcpSender>().unwrap();
    let report = sender.report();
    assert!(report.rto_count >= 2, "expected repeated RTOs, got {}", report.rto_count);
    // Exponential backoff bounds the attempts in 18 s to a handful.
    assert!(report.rto_count <= 12, "backoff must throttle RTOs, got {}", report.rto_count);
}

#[test]
fn path_recovers_after_transient_blackhole() {
    let mut sim = paper_sim(100, 2.0, 30, 1);
    let flow = add_tcp(&mut sim, 0, CcaKind::Cubic);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let bn = sim.topology().bottleneck_link().unwrap();
    sim.topology_mut().link_mut(bn).loss_model = LossModel::Bernoulli { p: 1.0 };
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(7));
    sim.topology_mut().link_mut(bn).loss_model = LossModel::None;
    // Give the RTO backoff + slow-start ramp time, then measure the final
    // five seconds only.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(25));
    let rx_before = sim
        .receiver(flow)
        .as_any()
        .downcast_ref::<TcpReceiver>()
        .unwrap()
        .delivered_bytes();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let rx_after = sim
        .receiver(flow)
        .as_any()
        .downcast_ref::<TcpReceiver>()
        .unwrap()
        .delivered_bytes();
    let recovered_mbps = (rx_after - rx_before) as f64 * 8.0 / 5.0 / 1e6;
    assert!(
        recovered_mbps > 70.0,
        "flow must recover to near line rate after the outage: {recovered_mbps:.1} Mbps"
    );
}

#[test]
fn flow_survives_a_two_second_link_flap() {
    // Tentpole behaviour: a scheduled LinkDown/LinkUp flap (2 s outage,
    // injected through the fault plan rather than by poking the loss
    // model) must not deadlock the sender. RTO backoff rides out the
    // outage and the flow re-attains at least 80% of its pre-flap goodput
    // once the link returns.
    let mut sim = paper_sim(100, 2.0, 30, 1);
    let flow = add_tcp(&mut sim, 0, CcaKind::Cubic);
    let bn = sim.topology().bottleneck_link().unwrap();
    sim.install_fault_plan(
        bn,
        &FaultPlan::flap(SimDuration::from_secs(10), SimDuration::from_secs(2)),
    );
    let delivered = |sim: &Simulator| {
        sim.receiver(flow).as_any().downcast_ref::<TcpReceiver>().unwrap().delivered_bytes()
    };

    // Pre-flap goodput over t = 5..10 s (past slow start).
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let rx5 = delivered(&sim);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    let rx10 = delivered(&sim);
    let pre_mbps = (rx10 - rx5) as f64 * 8.0 / 5.0 / 1e6;

    // Ride through the outage plus RTO-backoff recovery, then measure the
    // final five seconds.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(25));
    let rx25 = delivered(&sim);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let rx30 = delivered(&sim);
    let post_mbps = (rx30 - rx25) as f64 * 8.0 / 5.0 / 1e6;

    let sender = sim.sender(flow).as_any().downcast_ref::<TcpSender>().unwrap();
    assert!(sender.report().rto_count >= 1, "a 2 s outage must trigger at least one RTO");
    assert!(pre_mbps > 50.0, "sanity: healthy pre-flap goodput, got {pre_mbps:.1} Mbps");
    assert!(
        post_mbps >= 0.8 * pre_mbps,
        "flow must re-attain >=80% of pre-flap goodput: {post_mbps:.1} vs {pre_mbps:.1} Mbps"
    );
    let stats = sim.topology().link(bn).stats();
    assert!(stats.down_drops > 0, "packets offered during the outage are destroyed and counted");
    assert_eq!(stats.fault_events_applied, 2, "LinkDown + LinkUp both dispatched");
}

#[test]
fn ecn_marks_flow_back_to_sender() {
    // ECN-capable sender + marking FQ-CoDel: receiver echoes CE, sender
    // counts echoes, and drops stay at zero on a clean path.
    let topo = dumbbell(Bandwidth::from_mbps(100), |bdp| {
        elephants_aqm::build_aqm(
            elephants_aqm::AqmKind::FqCodel,
            2 * bdp,
            100_000_000,
            8900,
            true, // ECN on
            9,
        )
    });
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            duration: SimDuration::from_secs(15),
            warmup: SimDuration::from_secs(3),
            max_events: u64::MAX,
        },
        9,
    );
    let (s, r) = hosts(&sim, 0);
    let tx = TcpSender::new(
        SenderConfig { ecn: true, ..Default::default() },
        r,
        build_cca_seeded(CcaKind::Cubic, 8900, 5),
    );
    let rx = TcpReceiver::new(ReceiverConfig::default(), s);
    let flow = sim.add_flow(s, r, Box::new(tx), Box::new(rx), SimTime::ZERO);
    let summary = sim.run();
    let rep = &summary.flows[flow.0 as usize];
    assert!(rep.receiver.ecn_marks > 0, "CoDel must CE-mark the CUBIC queue");
    assert!(rep.sender.ecn_marks > 0, "sender must see the echoes");
}

#[test]
fn spurious_rto_counter_stays_zero_on_clean_path() {
    let mut sim = paper_sim(100, 4.0, 15, 3);
    let flow = add_tcp(&mut sim, 0, CcaKind::Cubic);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(15));
    let sender = sim.sender(flow).as_any().downcast_ref::<TcpSender>().unwrap();
    assert_eq!(sender.report().rto_count, 0);
    assert_eq!(sender.spurious_rtos(), 0);
}

#[test]
fn two_competing_flows_are_deterministic_per_seed_and_differ_across_seeds() {
    let run = |seed: u64| {
        let mut sim = paper_sim(100, 1.0, 10, seed);
        let f0 = add_tcp(&mut sim, 0, CcaKind::BbrV1);
        let f1 = add_tcp(&mut sim, 1, CcaKind::Cubic);
        let s = sim.run();
        (
            s.flows[f0.0 as usize].receiver.delivered_bytes,
            s.flows[f1.0 as usize].receiver.delivered_bytes,
        )
    };
    assert_eq!(run(5), run(5));
    // Different seeds shift the start jitter... but these flows start at
    // t=0 exactly, so the difference comes from RED-style randomness only;
    // FIFO runs may legitimately match. Just assert both complete sanely.
    let (a, b) = run(6);
    assert!(a > 0 && b > 0);
}
