//! Quickstart: how do BBRv1 and CUBIC share a 100 Mbps bottleneck?
//!
//! Reproduces one cell of the paper's Figure 2(a): BBRv1 vs CUBIC through a
//! FIFO queue, sweeping the buffer size, and shows BBRv1 winning at small
//! buffers while CUBIC claws back share as the buffer grows.
//!
//! Run with: `cargo run --release -p examples --bin quickstart`

use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
use elephants::{AqmKind, CcaKind, SimDuration};

fn main() {
    println!("BBRv1 vs CUBIC, 100 Mbps bottleneck, FIFO, 62 ms RTT\n");
    println!("{:>10}  {:>12}  {:>12}  {:>7}  {:>5}", "buffer", "BBRv1 Mbps", "CUBIC Mbps", "Jain", "util");
    let opts = RunOptions::standard();
    for queue_bdp in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let cfg = ScenarioConfig::builder(
            CcaKind::BbrV1,
            CcaKind::Cubic,
            AqmKind::Fifo,
            queue_bdp,
            100_000_000,
            &opts,
        )
        .duration(SimDuration::from_secs(30))
        .build()
        .expect("valid scenario");
        let out = Runner::new(&cfg).run().expect("run").into_averaged();
        println!(
            "{:>8} x  {:>12.2}  {:>12.2}  {:>7.3}  {:>5.2}",
            queue_bdp, out.sender_mbps[0], out.sender_mbps[1], out.jain, out.utilization
        );
    }
    println!("\n(x = multiples of the bandwidth-delay product, 775 kB here)");
}
