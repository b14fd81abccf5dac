//! AQM shootout: FIFO vs RED vs FQ_CODEL on an increasingly fast link.
//!
//! Reproduces the paper's §5.3 headline in miniature: FIFO sustains full
//! utilization everywhere, while RED's unscaled thresholds collapse
//! throughput once the link outgrows them (≥1 Gbps), and FQ_CODEL sits in
//! between.
//!
//! Run with: `cargo run --release -p examples --bin aqm_shootout`

use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
use elephants::{AqmKind, CcaKind, SimDuration};

fn main() {
    println!("Intra-CCA CUBIC, 2 BDP buffer: link utilization by AQM\n");
    println!("{:<10}  {:>8}  {:>8}  {:>10}", "bandwidth", "fifo", "red", "fq_codel");
    for (label, mbps, secs) in
        [("100 Mbps", 100u64, 30u64), ("500 Mbps", 500, 20), ("1 Gbps", 1000, 15), ("10 Gbps", 10_000, 6)]
    {
        let mut row = format!("{label:<10}");
        let opts = RunOptions {
            flow_scale: if mbps >= 10_000 { 0.25 } else { 1.0 },
            ..RunOptions::standard()
        };
        for aqm in [AqmKind::Fifo, AqmKind::Red, AqmKind::FqCodel] {
            let cubic = CcaKind::Cubic;
            let cfg = ScenarioConfig::builder(cubic, cubic, aqm, 2.0, mbps * 1_000_000, &opts)
                .duration(SimDuration::from_secs(secs))
                .build()
                .expect("valid scenario");
            let out = Runner::new(&cfg).run().expect("run").into_averaged();
            row.push_str(&format!("  {:>8.3}", out.utilization));
        }
        println!("{row}");
    }
    println!("\nWatch the RED column fall off past 1 Gbps — its byte thresholds");
    println!("were sized for sub-Gbps links and are a sliver of the BDP here.");
}
