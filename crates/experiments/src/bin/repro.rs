//! Regenerates one paper artifact: `repro <fig2..fig8|table2|table3> [flags]`.
//! Flags are the shared figure flags; see `repro fig2 --help`. The grids are
//! the paper's, so the scenario-shaping flags and `--record` are refused.

use elephants_experiments::cli::exit_usage;
use elephants_experiments::prelude::*;
use elephants_netsim::Bandwidth;
use elephants_workload::{table2_config, table2_total_flows};

type Figure = fn(&RunOptions, &RunCache, &[u64]) -> FigureOutput;

fn figure(cli: &Cli, fig: Figure) {
    let out = fig(&cli.opts, &cli.cache, &cli.bws);
    println!("{}", out.caption);
    println!("{}", out.text);
    if let Err(e) = out.write_csvs(&cli.out_dir).and_then(|_| out.write_svgs(&cli.out_dir)) {
        eprintln!("warning: failed to write CSV/SVG: {e}");
    } else {
        println!("CSV + SVG written under {}/{}/", cli.out_dir, out.id);
    }
}

fn table(cli: &Cli, name: &str, t: &TextTable) {
    println!("{}", t.render());
    if let Err(e) = t.write_csv(format!("{}/{name}/{name}.csv", cli.out_dir)) {
        eprintln!("warning: failed to write CSV: {e}");
    } else {
        println!("CSV written under {}/{name}/", cli.out_dir);
    }
}

/// Table 2: iperf3 configuration per bottleneck bandwidth.
fn table2_target(cli: &Cli) {
    let mut t = TextTable::new(vec!["Bottleneck BW", "Total #Flows", "iperf3 configuration"]);
    for &bw in &PAPER_BWS {
        let b = Bandwidth::from_bps(bw);
        let c = table2_config(b);
        t.row(vec![
            format!("{b}"),
            format!("{}", table2_total_flows(b)),
            format!("{} iperf3 process(es)/node, {} stream(s) each", c.processes, c.streams),
        ]);
    }
    table(cli, "table2", &t);
}

/// Table 3: Avg(phi), Avg(RR), Avg(J) per CCA-pair x AQM, averaged over
/// the full queue-length set and the selected bandwidths (`--bw`).
fn table3_target(cli: &Cli) {
    let rows = table3(&cli.opts, &cli.cache, &cli.bws, &PAPER_QUEUES_BDP);
    println!("Overall performance comparison (paper Table 3)");
    table(cli, "table3", &render_table3(&rows));
}

type Target = fn(&Cli);

const TARGETS: [(&str, Target); 9] = [
    ("fig2", |cli| figure(cli, fig2)),
    ("fig3", |cli| figure(cli, fig3)),
    ("fig4", |cli| figure(cli, fig4)),
    ("fig5", |cli| figure(cli, fig5)),
    ("fig6", |cli| figure(cli, fig6)),
    ("fig7", |cli| figure(cli, fig7)),
    ("fig8", |cli| figure(cli, fig8)),
    ("table2", table2_target),
    ("table3", table3_target),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_default();
    let Some((_, run)) = TARGETS.iter().find(|(name, _)| *name == target) else {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: repro <{}> [flags]   (flags: repro fig2 --help)", names.join("|"));
        std::process::exit(2);
    };
    let cli = Cli::parse_or_exit(args);
    cli.refuse_scenario_flags().and_then(|_| cli.refuse_record()).unwrap_or_else(|e| exit_usage(&e));
    run(&cli);
    if cli.shared.check.is_some() {
        eprintln!(
            "checked_runs: {}  check_violations: {}",
            cli.cache.checked_runs(),
            cli.cache.check_violations()
        );
    }
}
