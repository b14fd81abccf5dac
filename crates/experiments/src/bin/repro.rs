//! Regenerates one artifact: `repro <target> [flags]`, where the target is a
//! paper figure or table (`fig2..fig8`, `table2`, `table3`) or one of the
//! extension experiments (`aqm_frontier`, `rttsweep`, `ablate`). Flags are
//! the shared figure flags; see `repro fig2 --help`. Every target runs fixed
//! scenarios, so the scenario-shaping flags are refused, and `--record` by
//! all but `rttsweep`.

use elephants_aqm::{Red, RedConfig};
use elephants_cca::{BbrV2, BbrV2Config, CongestionControl, Cubic, CubicConfig};
use elephants_experiments::cli::exit_usage;
use elephants_experiments::prelude::*;
use elephants_netsim::prelude::*;
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
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

/// Write `t` to `OUT/<dir>/<file>.csv`; a failure is a warning, not an error.
fn write_csv(cli: &Cli, dir: &str, file: &str, t: &TextTable) -> bool {
    let written = t.write_csv(format!("{}/{dir}/{file}.csv", cli.out_dir));
    if let Err(e) = &written {
        eprintln!("warning: failed to write CSV: {e}");
    }
    written.is_ok()
}

fn table(cli: &Cli, name: &str, t: &TextTable) {
    println!("{}", t.render());
    if write_csv(cli, name, name, t) {
        println!("CSV written under {}/{name}/", cli.out_dir);
    }
}

/// What an extension target prints: its title and table (the CSV goes to
/// `OUT/<dir>/<file>.csv` without a line of its own).
fn extension(cli: &Cli, title: &str, dir: &str, file: &str, t: &TextTable) {
    println!("{title}\n\n{}", t.render());
    write_csv(cli, dir, file, t);
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

/// Extension: every queue discipline — the paper's three plus the rest of
/// `AqmKind::ALL` — on the same intra-CUBIC workload, the follow-up the
/// paper's conclusion asks for.
fn aqm_frontier_target(cli: &Cli) {
    let mut t = TextTable::new(vec!["bw", "aqm", "phi", "jain", "retx", "drops"]);
    for &bw in &cli.bws {
        for aqm in AqmKind::ALL {
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
    extension(cli, "AQM frontier, intra-CCA CUBIC, 2 BDP buffer", "aqm_frontier", "frontier", &t);
}

/// Extension: the paper's "future work: different RTTs". Holds the Table 1
/// knobs fixed (FIFO, 2 BDP, 100 Mbps) and sweeps the end-to-end RTT;
/// `--record` records the 62 ms run.
fn rttsweep_target(cli: &Cli) {
    let mut t = TextTable::new(vec!["rtt_ms", "bbr1_mbps", "cubic_mbps", "jain", "phi"]);
    for rtt_ms in [12u64, 32, 62, 124, 248] {
        // Scale the run length with the RTT so each sees a similar number
        // of round trips.
        let (cca1, cca2) = (CcaKind::BbrV1, CcaKind::Cubic);
        let cfg = ScenarioConfig::builder(cca1, cca2, AqmKind::Fifo, 2.0, 100_000_000, &cli.opts)
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
        let outcome =
            runner.run().unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()));
        cli.cache.count_checks(&outcome);
        let r = outcome.into_first();
        t.row(vec![
            format!("{rtt_ms}"),
            format!("{:.1}", r.sender_mbps[0]),
            format!("{:.1}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
            format!("{:.3}", r.jain),
            format!("{:.3}", r.utilization),
        ]);
    }
    let title = "BBRv1 vs CUBIC across RTTs (FIFO, 2 BDP, 100 Mbps)";
    extension(cli, title, "rttsweep", "rttsweep", &t);
}

/// One flow with a hand-built CCA and AQM over the paper dumbbell at
/// 100 Mbps: `(goodput Mbps, retransmits)`.
fn ablation_run(cca: Box<dyn CongestionControl>, aqm: Box<dyn Aqm>, secs: u64) -> (f64, u64) {
    let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
    let mut topo = spec.build();
    topo.set_bottleneck_aqm(aqm);
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            duration: SimDuration::from_secs(secs),
            warmup: SimDuration::from_secs(secs / 4),
            max_events: u64::MAX,
        },
        11,
    );
    let tx = TcpSender::new(SenderConfig::default(), spec.receiver(0), cca);
    let rx = TcpReceiver::new(ReceiverConfig::default(), spec.sender(0));
    let f = sim.add_flow(spec.sender(0), spec.receiver(0), Box::new(tx), Box::new(rx), SimTime::ZERO);
    let s = sim.run();
    let flow = &s.flows[f.0 as usize];
    (flow.window_goodput_bps(s.window) / 1e6, flow.sender.retransmits)
}

/// Ablations of design choices DESIGN.md calls out: CUBIC HyStart on/off
/// (startup retransmission cost vs shallow buffers), BBRv2 loss threshold
/// 2% vs 10% (the FIFO/RED asymmetry lever), RED gentle vs non-gentle
/// (forced-drop cliff behaviour).
fn ablate_target(cli: &Cli) {
    let small_fifo = || -> Box<dyn Aqm> {
        let bdp = bdp_bytes(Bandwidth::from_mbps(100), SimDuration::from_millis(62));
        Box::new(DropTail::new(bdp / 2))
    };
    let mut t = TextTable::new(vec!["ablation", "variant", "goodput_mbps", "retransmits"]);
    let mut row = |ablation: &str, variant: String, (goodput, retx): (f64, u64)| {
        t.row(vec![ablation.to_string(), variant, format!("{goodput:.1}"), format!("{retx}")]);
    };

    for hystart in [true, false] {
        let cca = Box::new(Cubic::new(CubicConfig { hystart, ..Default::default() }, 8900));
        let variant = if hystart { "on" } else { "off" };
        row("cubic_hystart", variant.to_string(), ablation_run(cca, small_fifo(), 20));
    }
    for thresh in [0.02, 0.10] {
        let cca = Box::new(BbrV2::new(BbrV2Config { loss_thresh: thresh, ..Default::default() }, 8900));
        row("bbr2_loss_thresh", format!("{thresh}"), ablation_run(cca, small_fifo(), 20));
    }
    for gentle in [false, true] {
        let mut cfg = RedConfig::tc_defaults(1_550_000, 100_000_000, 8900);
        cfg.gentle = gentle;
        let cca = Box::new(Cubic::new(CubicConfig::default(), 8900));
        let variant = if gentle { "gentle" } else { "cliff" };
        row("red_gentle", variant.to_string(), ablation_run(cca, Box::new(Red::new(cfg)), 20));
    }

    let title = "Design-choice ablations (single flow, 100 Mbps, 62 ms RTT)";
    extension(cli, title, "ablate", "ablate", &t);
}

type Target = fn(&Cli);

/// `(name, takes --record, run)`.
const TARGETS: [(&str, bool, Target); 12] = [
    ("fig2", false, |cli| figure(cli, fig2)),
    ("fig3", false, |cli| figure(cli, fig3)),
    ("fig4", false, |cli| figure(cli, fig4)),
    ("fig5", false, |cli| figure(cli, fig5)),
    ("fig6", false, |cli| figure(cli, fig6)),
    ("fig7", false, |cli| figure(cli, fig7)),
    ("fig8", false, |cli| figure(cli, fig8)),
    ("table2", false, table2_target),
    ("table3", false, table3_target),
    ("aqm_frontier", false, aqm_frontier_target),
    ("rttsweep", true, rttsweep_target),
    ("ablate", false, ablate_target),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_default();
    let Some(&(_, takes_record, run)) = TARGETS.iter().find(|(name, ..)| *name == target) else {
        let names: Vec<&str> = TARGETS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: repro <{}> [flags]   (flags: repro fig2 --help)", names.join("|"));
        std::process::exit(2);
    };
    let cli = Cli::parse_or_exit(args);
    cli.refuse_scenario_flags()
        .and_then(|_| if takes_record { Ok(()) } else { cli.refuse_record() })
        .unwrap_or_else(|e| exit_usage(&e));
    run(&cli);
    if cli.shared.check.is_some() {
        eprintln!(
            "checked_runs: {}  check_violations: {}",
            cli.cache.checked_runs(),
            cli.cache.check_violations()
        );
    }
}
