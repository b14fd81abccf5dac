//! Elephant transfer: which CCA should a science DMZ pick for bulk data?
//!
//! The paper's motivating scenario — long-running high-volume transfers
//! (instrument data, genomics, imaging) over a shared 10 Gbps WAN path.
//! This example pits each candidate CCA against a CUBIC-dominated link and
//! reports throughput, fairness and the retransmission cost, mirroring the
//! trade-off behind the paper's Table 3 recommendation (BBRv2 + FQ_CODEL).
//!
//! Run with: `cargo run --release -p examples --bin elephant_transfer`

use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
use elephants::{AqmKind, CcaKind, SimDuration};

fn main() {
    use CcaKind::*;
    let ccas = [BbrV1, BbrV2, Htcp, Reno, Cubic];
    // 200 flows at 10G is the paper's Table 2 load; a quarter of that keeps
    // this example snappy on a laptop.
    let opts = RunOptions { flow_scale: 0.25, ..RunOptions::standard() };
    println!("Candidate CCA vs CUBIC background traffic, 10 Gbps, 2 BDP buffer\n");
    for aqm in [AqmKind::Fifo, AqmKind::FqCodel] {
        println!("-- bottleneck AQM: {aqm} --");
        println!(
            "{:<6}  {:>11}  {:>11}  {:>6}  {:>6}  {:>9}",
            "CCA", "ours Mbps", "CUBIC Mbps", "Jain", "util", "retx/run"
        );
        for cca in ccas {
            let cfg = ScenarioConfig::builder(cca, Cubic, aqm, 2.0, 10_000_000_000, &opts)
                .duration(SimDuration::from_secs(6))
                .build()
                .expect("valid scenario");
            let out = Runner::new(&cfg).run().expect("run").into_averaged();
            println!(
                "{:<6}  {:>11.0}  {:>11.0}  {:>6.3}  {:>6.2}  {:>9.0}",
                cca.name(),
                out.sender_mbps[0],
                out.sender_mbps[1],
                out.jain,
                out.utilization,
                out.retransmits
            );
        }
        println!();
    }
    println!("Higher Jain + high utilization + modest retransmissions = good citizen.");
}
