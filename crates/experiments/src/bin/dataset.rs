//! Generate the study's "reproducible dataset": JSON time-series logs
//! (iperf3-interval-style per-sender throughput + router queue log) for a
//! slice of the grid.
//!
//! Usage (defaults: all 9 pairs, FIFO, 2 BDP, 100 Mbps):
//! `cargo run --release -p elephants-experiments --bin dataset -- --bw 100M --out results`

use elephants_experiments::prelude::*;
use elephants_netsim::SimDuration;

fn main() {
    let cli = Cli::parse();
    let mut written = 0;
    for (cca1, cca2) in paper_pairs() {
        for &bw in &cli.bws {
            for aqm in AqmKind::PAPER_SET {
                let mut cfg = ScenarioConfig::new(cca1, cca2, aqm, 2.0, bw, &cli.opts);
                if let Err(e) = cli.apply_faults(&mut cfg) {
                    eprintln!("invalid fault configuration: {e}");
                    std::process::exit(2);
                }
                let trace =
                    match run_scenario_traced(&cfg, cli.opts.seed, SimDuration::from_millis(500)) {
                        Ok(trace) => trace,
                        Err(e) => {
                            eprintln!("{}: {e}", cfg.label());
                            std::process::exit(1);
                        }
                    };
                let path = format!(
                    "{}/dataset/{}_vs_{}_{}_{}.json",
                    cli.out_dir,
                    cca1.name(),
                    cca2.name(),
                    aqm.name(),
                    bw_label(bw),
                );
                match trace.write_json(&path) {
                    Ok(()) => {
                        written += 1;
                        eprintln!("wrote {path} ({} samples)", trace.samples.len());
                    }
                    Err(e) => eprintln!("failed to write {path}: {e}"),
                }
            }
        }
    }
    println!("dataset: {written} trace files under {}/dataset/", cli.out_dir);
}
