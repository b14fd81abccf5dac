//! Generate the study's "reproducible dataset": one flight record (the
//! iperf3-interval-style per-flow delivered-bytes series plus the router
//! queue log) per cell of a slice of the grid.
//!
//! Every cell is a recorded `Runner` run — `flows,queue` sampled every
//! 500 ms unless `--record` / `--sample-interval` say otherwise — so
//! `--loss`, `--flap`, `--topology`, `--coalesce`, `--fault-link` and
//! `--check` apply as they do everywhere else. It runs every cell of its
//! slice once, uncached, so `--limit`, `--repeats` and `--no-cache` are
//! refused (exit 2; `dataset --help` lists what it takes). A record counts
//! as written once it has parsed back; a failed cell exits 1.
//!
//! Usage (defaults: all 9 pairs, the paper's three AQMs, 2 BDP):
//! `cargo run --release -p elephants-experiments --bin dataset -- --bw 100M --out results`

use elephants_experiments::cli::{exit_usage, DATASET};
use elephants_experiments::prelude::*;
use elephants_netsim::SimDuration;

fn main() {
    let cli = Cli::parse("dataset", DATASET, &[]);
    let recording = cli
        .record
        .clone()
        .unwrap_or_else(|| {
            Recording::parse("flows,queue")
                .expect("a valid channel list")
                .interval(SimDuration::from_millis(500))
                .svg(false)
        })
        .out_dir(format!("{}/dataset", cli.out_dir));
    let mut written = 0;
    for (cca1, cca2) in paper_pairs() {
        for &bw in &cli.bws {
            for aqm in AqmKind::PAPER_SET {
                let mut cfg = ScenarioConfig::new(cca1, cca2, aqm, 2.0, bw, &cli.opts);
                cli.shared
                    .apply(&mut cfg)
                    .unwrap_or_else(|e| exit_usage(&format!("invalid fault configuration: {e}")));
                let outcome = Runner::new(&cfg)
                    .seed(cli.opts.seed)
                    .check(cli.shared.check.unwrap_or_default())
                    .recorder(recording.clone())
                    .run()
                    .unwrap_or_else(|e| fail(&cfg, &e.to_string()));
                let record = outcome.load_record().unwrap_or_else(|e| fail(&cfg, &e));
                written += 1;
                let r = outcome.first();
                eprintln!(
                    "wrote {} ({} flow samples, {} queue samples, {} events; drops={} down_drops={}{})",
                    outcome.record_path().unwrap_or_default(),
                    record.flow_samples.len(),
                    record.queue_samples.len(),
                    record.events.len(),
                    r.drops,
                    r.down_drops,
                    outcome
                        .check_reports
                        .first()
                        .map(|report| format!("; check: {}", report.summary_line()))
                        .unwrap_or_default(),
                );
            }
        }
    }
    println!("dataset: {written} flight records under {}/dataset/", cli.out_dir);
}

fn fail(cfg: &ScenarioConfig, why: &str) -> ! {
    eprintln!("{}: {why}", cfg.label());
    std::process::exit(1)
}
