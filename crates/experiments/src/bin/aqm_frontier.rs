//! Extension experiment: the full AQM frontier — the paper's three
//! disciplines plus plain CoDel and PIE (RFC 8033) — compared on the same
//! intra-CUBIC workload. This is the follow-up the paper's conclusion asks
//! for ("further research on optimizing these algorithms ... for future
//! Internet").
//!
//! `cargo run --release -p elephants-experiments --bin aqm_frontier`

use elephants_experiments::cli::exit_usage;
use elephants_experiments::prelude::*;

fn main() {
    let cli = Cli::parse();
    cli.refuse_scenario_flags().and_then(|_| cli.refuse_record()).unwrap_or_else(|e| exit_usage(&e));
    let aqms = [AqmKind::Fifo, AqmKind::Red, AqmKind::FqCodel, AqmKind::Codel, AqmKind::Pie];
    let mut t = TextTable::new(vec!["bw", "aqm", "phi", "jain", "retx", "drops"]);
    for &bw in &cli.bws {
        for aqm in aqms {
            let cfg = ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, aqm, 2.0, bw, &cli.opts);
            let r = cli.cache.run(&cfg, cli.opts.seed);
            t.row(vec![
                bw_label(bw),
                aqm.name().to_string(),
                format!("{:.3}", r.utilization),
                format!("{:.3}", r.jain),
                format!("{}", r.retransmits),
                format!("{}", r.drops),
            ]);
        }
    }
    println!("AQM frontier, intra-CCA CUBIC, 2 BDP buffer\n");
    println!("{}", t.render());
    if let Err(e) = t.write_csv(format!("{}/aqm_frontier/frontier.csv", cli.out_dir)) {
        eprintln!("warning: failed to write CSV: {e}");
    }
}
