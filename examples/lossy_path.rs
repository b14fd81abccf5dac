//! Lossy path: the paper's future-work experiment, implemented.
//!
//! "In future work, we intend to ... observe performance under network
//! anomalies (e.g. variable rates of packet loss)". This example injects
//! Bernoulli loss on the bottleneck (the `LossModel` extension) and shows
//! the classic split: loss-based CCAs (CUBIC/Reno) collapse as random loss
//! rises, while the model-based BBRs shrug it off until the loss rate
//! crosses BBRv2's 2 % threshold.
//!
//! This example drives the simulator directly (no `ScenarioConfig` or
//! `Runner`) to show the lower-level API: topology, AQM install, fault
//! injection, flows.
//!
//! Run with: `cargo run --release -p examples --bin lossy_path`

use elephants::cca::{build_cca_seeded, CcaKind};
use elephants::netsim::prelude::*;
use elephants::netsim::LossModel;
use elephants::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

fn run_one(kind: CcaKind, loss: f64) -> f64 {
    let bw = Bandwidth::from_mbps(500);
    let mut topo = TopologySpec::Dumbbell.build(bw, SimDuration::from_millis(62)).unwrap();
    let (s, r) = (topo.sender_hosts()[0], topo.receiver_hosts()[0]);
    // 2 BDP droptail bottleneck with Bernoulli loss injected on the wire.
    let bdp = bdp_bytes(bw, topo.base_rtt());
    let bn = topo.bottleneck_link().expect("dumbbell has a bottleneck");
    topo.set_aqm_on(bn, Box::new(DropTail::new(2 * bdp)));
    topo.link_mut(bn).loss_model = LossModel::Bernoulli { p: loss };

    let duration = SimDuration::from_secs(12);
    let mut sim = Simulator::new(
        topo,
        SimConfig { duration, warmup: SimDuration::from_secs(3), max_events: u64::MAX },
        42,
    );
    let tx = TcpSender::new(SenderConfig::default(), r, build_cca_seeded(kind, 8900, 7));
    let rx = TcpReceiver::new(ReceiverConfig::default(), s);
    let flow = sim.add_flow(s, r, Box::new(tx), Box::new(rx), SimTime::ZERO);
    let summary = sim.run();
    summary.flows[flow.0 as usize].window_goodput_bps(summary.window) / 1e6
}

fn main() {
    let kinds = CcaKind::ALL;
    println!("Single flow, 500 Mbps bottleneck, random in-flight loss\n");
    print!("{:>9}", "loss %");
    for k in kinds {
        print!("  {:>8}", k.pretty());
    }
    println!();
    for loss in [0.0, 0.0001, 0.001, 0.01, 0.03] {
        print!("{:>9.2}", loss * 100.0);
        for k in kinds {
            print!("  {:>8.1}", run_one(k, loss));
        }
        println!();
    }
    println!("\n(goodput in Mbps; model-based BBR tolerates random loss far better)");
}
