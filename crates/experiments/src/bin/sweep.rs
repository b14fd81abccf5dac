//! Runs the full 810-configuration grid (Table 1) and writes a summary CSV.
//!
//! Uses the fault-tolerant sweep: a failing cell (panic, event budget,
//! wall-clock) is recorded and reported instead of aborting the other
//! cells, and the exit status stays 0 so long CI grids degrade gracefully.
//! Optional `--loss` / `--flap` knobs inject bottleneck anomalies into
//! every cell; `--check audit` ends the summary with what the checker
//! found in the cells this sweep had to run.

use elephants_experiments::cli::{exit_usage, SWEEP};
use elephants_experiments::prelude::*;

fn main() {
    let cli = Cli::parse("sweep", SWEEP, &[]);
    let mut grid = paper_grid(&cli.opts);
    grid.retain(|c| cli.bws.contains(&c.bw_bps));
    if let Some(n) = cli.limit {
        grid.truncate(n);
    }
    for cfg in &mut grid {
        cli.shared
            .apply(cfg)
            .unwrap_or_else(|e| exit_usage(&format!("invalid fault configuration: {e}")));
    }
    eprintln!("sweeping {} configurations x {} repeats", grid.len(), cli.opts.repeats);
    let out = try_sweep_reporting(&grid, cli.opts.repeats, &cli.cache, |done, total| {
        if done % 25 == 0 || done == total {
            eprintln!("  {done}/{total}");
        }
    });
    let mut t = TextTable::new(vec![
        "cca1", "cca2", "aqm", "queue_bdp", "bw", "s1_mbps", "s2_mbps", "jain", "phi", "retx", "rtos",
    ]);
    for r in &out.results {
        t.row(vec![
            r.config.cca1.to_string(),
            r.config.cca2.to_string(),
            r.config.aqm.to_string(),
            format!("{}", r.config.queue_bdp),
            bw_label(r.config.bw_bps),
            format!("{:.2}", r.sender_mbps.first().copied().unwrap_or(0.0)),
            format!("{:.2}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
            format!("{:.3}", r.jain),
            format!("{:.3}", r.utilization),
            format!("{:.0}", r.retransmits),
            format!("{}", r.rtos),
        ]);
    }
    println!("{}", t.render());
    if let Err(e) = t.write_csv(format!("{}/sweep/grid.csv", cli.out_dir)) {
        eprintln!("warning: failed to write CSV: {e}");
    }
    eprintln!("{}", out.summary_line());
    for f in &out.failed {
        eprintln!("  failed: ({}, seed {}): {}", f.config.label(), f.seed, f.error);
    }
}
