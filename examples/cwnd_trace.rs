//! Congestion-window time trace: watch one CUBIC epoch cycle unfold.
//!
//! Demonstrates the simulator's `run_until` stepping API: advance the
//! clock in 500 ms slices and sample sender state between steps — the
//! moral equivalent of `ss -ti` polling on a real sender.
//!
//! Run with: `cargo run --release -p examples --bin cwnd_trace`

use elephants::cca::{build_cca_seeded, CcaKind};
use elephants::netsim::prelude::*;
use elephants::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

fn main() {
    let bw = Bandwidth::from_mbps(500);
    let mut topo = TopologySpec::Dumbbell.build(bw, SimDuration::from_millis(62)).unwrap();
    let (s, r) = (topo.sender_hosts()[0], topo.receiver_hosts()[0]);
    let bdp = bdp_bytes(bw, topo.base_rtt());
    let bn = topo.bottleneck_link().unwrap();
    topo.set_aqm_on(bn, Box::new(DropTail::new(4 * bdp)));
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            duration: SimDuration::from_secs(40),
            warmup: SimDuration::from_secs(1),
            max_events: u64::MAX,
        },
        3,
    );
    let tx = TcpSender::new(SenderConfig::default(), r, build_cca_seeded(CcaKind::Cubic, 8900, 1));
    let rx = TcpReceiver::new(ReceiverConfig::default(), s);
    let flow = sim.add_flow(s, r, Box::new(tx), Box::new(rx), SimTime::ZERO);

    println!("single CUBIC flow, 500 Mbps bottleneck, 4 BDP droptail, 62 ms RTT\n");
    println!("{:>6} {:>11} {:>11} {:>7} {:>7}", "t(s)", "cwnd(pkts)", "queue(pkts)", "drops", "retx");
    let mut last_drops = 0;
    for step in 1..=80u64 {
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(step * 500));
        let drops = sim.topology().link(bn).aqm_stats().dropped_total();
        let sender = sim.sender(flow).as_any().downcast_ref::<TcpSender>().unwrap();
        println!(
            "{:>6.1} {:>11} {:>11} {:>7} {:>7}",
            step as f64 * 0.5,
            sender.cca().cwnd() / 8900,
            sim.topology().link(bn).aqm.backlog_pkts(),
            drops - last_drops,
            sender.retransmits(),
        );
        last_drops = drops;
    }
    println!("\nThe sawtooth: slow start, HyStart exit, cubic growth into the buffer,");
    println!("overflow, multiplicative decrease, concave re-approach to W_max.");
}
