//! RTT-unfairness experiment: a short-RTT BBRv1 group sharing one
//! bottleneck with a CUBIC group whose RTT grows through 1:1, 2:1 and
//! 4:1 ratios (multi-dumbbell topology, heterogeneous access delays).
//!
//! BBR's model-based pacing holds its sending rate roughly constant as
//! the competitor's RTT grows, while CUBIC's window growth slows in
//! proportion — so the short-RTT BBR group's bottleneck share must grow
//! monotonically with the ratio. The binary prints one line per ratio
//! and exits nonzero if the monotonicity breaks, making the asymmetry a
//! checkable claim rather than a plot to eyeball.
//!
//! Usage:
//! `cargo run --release -p elephants-experiments --bin rtt_unfair -- \
//!    [--bw 100M] [--base-rtt 31] [--secs 20] [--seed 1] [--scale 1.0]`

use elephants_experiments::cli::parse_bw;
use elephants_experiments::prelude::*;
use elephants_netsim::SimDuration;

fn main() {
    let mut bw = 100_000_000u64;
    let mut base_rtt = 31u64;
    let mut secs = 20u64;
    let mut seed = 1u64;
    let mut scale = 1.0f64;

    let fail = |msg: String| -> ! {
        eprintln!("rtt_unfair: {msg}");
        std::process::exit(2);
    };

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| fail(format!("{a} needs a value")));
        match a.as_str() {
            "--bw" => bw = parse_bw(&val()).unwrap_or_else(|e| fail(e)),
            "--base-rtt" => {
                base_rtt = val().parse().unwrap_or_else(|e| fail(format!("bad --base-rtt: {e}")))
            }
            "--secs" => secs = val().parse().unwrap_or_else(|e| fail(format!("bad --secs: {e}"))),
            "--seed" => seed = val().parse().unwrap_or_else(|e| fail(format!("bad --seed: {e}"))),
            "--scale" => scale = val().parse().unwrap_or_else(|e| fail(format!("bad --scale: {e}"))),
            other => fail(format!("unknown flag {other}")),
        }
    }

    let mut shares: Vec<(u64, f64)> = Vec::new();
    for ratio in [1u64, 2, 4] {
        let opts = RunOptions { seed, flow_scale: scale, ..RunOptions::standard() };
        let cfg = ScenarioConfig::builder(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 2.0, bw, &opts)
            .duration(SimDuration::from_secs(secs))
            .topology(TopologySpec::MultiDumbbell { rtts_ms: vec![base_rtt, base_rtt * ratio] })
            .build()
            .unwrap_or_else(|e| fail(format!("invalid scenario: {e}")));
        let outcome = Runner::new(&cfg)
            .seed(seed)
            .run()
            .unwrap_or_else(|e| fail(format!("run failed ({}): {e}", cfg.label())));
        let r = outcome.into_first();
        let bbr = r.sender_mbps[0];
        let cubic = r.sender_mbps.get(1).copied().unwrap_or(0.0);
        let share = bbr / (bbr + cubic);
        println!(
            "rtt-unfair: ratio={ratio} bbr_rtt={base_rtt}ms cubic_rtt={}ms \
             bbr={bbr:.2}Mbps cubic={cubic:.2}Mbps bbr_share={share:.4}",
            base_rtt * ratio
        );
        shares.push((ratio, share));
    }

    let monotone = shares.windows(2).all(|w| w[1].1 > w[0].1);
    println!("rtt-unfair: monotone={}", if monotone { "yes" } else { "no" });
    if !monotone {
        eprintln!(
            "rtt_unfair: short-RTT BBR share did not grow with the RTT ratio: {shares:?}"
        );
        std::process::exit(1);
    }
}
