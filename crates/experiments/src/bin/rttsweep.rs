//! RTT sensitivity sweep — the paper's "future work: different RTTs",
//! implemented. Holds the Table 1 knobs fixed (FIFO, 2 BDP, 100 Mbps) and
//! sweeps the end-to-end RTT, reporting the BBRv1-vs-CUBIC split, Jain
//! index and utilization.
//!
//! `cargo run --release -p elephants-experiments --bin rttsweep`

use elephants_experiments::cli::exit_usage;
use elephants_experiments::prelude::*;
use elephants_netsim::SimDuration;

fn main() {
    let cli = Cli::parse();
    cli.refuse_scenario_flags().unwrap_or_else(|e| exit_usage(&e));
    let mut t = TextTable::new(vec!["rtt_ms", "bbr1_mbps", "cubic_mbps", "jain", "phi"]);
    for rtt_ms in [12u64, 32, 62, 124, 248] {
        // Scale the run length with the RTT so each sees a similar number
        // of round trips.
        let cfg = ScenarioConfig::builder(
            CcaKind::BbrV1,
            CcaKind::Cubic,
            AqmKind::Fifo,
            2.0,
            100_000_000,
            &cli.opts,
        )
        .rtt_ms(rtt_ms)
        .duration(SimDuration::from_millis((rtt_ms * 800).max(20_000)))
        .build()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let mut runner =
            Runner::new(&cfg).seed(cli.opts.seed).check(cli.shared.check.unwrap_or_default());
        if rtt_ms == 62 {
            if let Some(rec) = cli.record.clone() {
                runner = runner.recorder(rec);
            }
        }
        let r = runner
            .run()
            .unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()))
            .into_first();
        t.row(vec![
            format!("{rtt_ms}"),
            format!("{:.1}", r.sender_mbps[0]),
            format!("{:.1}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
            format!("{:.3}", r.jain),
            format!("{:.3}", r.utilization),
        ]);
    }
    println!("BBRv1 vs CUBIC across RTTs (FIFO, 2 BDP, 100 Mbps)\n");
    println!("{}", t.render());
    if let Err(e) = t.write_csv(format!("{}/rttsweep/rttsweep.csv", cli.out_dir)) {
        eprintln!("warning: failed to write CSV: {e}");
    }
}
