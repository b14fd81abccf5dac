//! Regenerates one artifact: `repro <target> [flags]`, where the target is a
//! paper figure or table (`fig2..fig8`, `table2`, `table3`), an extension
//! experiment (`aqm_frontier`, `rttsweep`) or a checked claim
//! (`dynamics`, `rtt_unfair`). Each target takes only the flags that change
//! what it does, listed in its row of `TARGETS` and printed by
//! `repro <target> --help`; any other flag exits 2.
//!
//! Every target returns one [`FigureOutput`]: `main` prints its caption and
//! text and writes its tables and charts under `OUT/<id>/`. A claim target
//! also returns the judgements of its rows of the claims table, `main`
//! prints their lines, and `repro` exits 1 when one fails.

use elephants_analysis::{convergence_time, ConvergenceSpec};
use elephants_experiments::claims::{dumbbell, Claim, Judgement};
use elephants_experiments::cli::{exit_usage, AQM_FRONTIER, CLAIM, FIGURE, RTTSWEEP, TABLE2};
use elephants_experiments::prelude::*;
use elephants_experiments::svg::{ChartSpec, Series};
use elephants_netsim::prelude::*;
use elephants_workload::{table2_config, table2_total_flows};

/// Table 2: iperf3 configuration per bottleneck bandwidth.
fn table2_target(cli: &Cli) -> FigureOutput {
    let mut t = TextTable::new(vec!["Bottleneck BW", "Total #Flows", "iperf3 configuration"]);
    for &bw in &cli.bws {
        let b = Bandwidth::from_bps(bw);
        let c = table2_config(b);
        t.row(vec![
            format!("{b}"),
            format!("{}", table2_total_flows(b)),
            format!("{} iperf3 process(es)/node, {} stream(s) each", c.processes, c.streams),
        ]);
    }
    let caption = "iperf3 configuration per bottleneck (paper Table 2)";
    FigureOutput::table("table2", caption, "table2", t)
}

/// Table 3: Avg(phi), Avg(RR), Avg(J) per CCA-pair x AQM, averaged over
/// the full queue-length set and the selected bandwidths (`--bw`).
fn table3_target(cli: &Cli) -> FigureOutput {
    let rows = table3(&cli.opts, &cli.cache, &cli.bws, &PAPER_QUEUES_BDP);
    let caption = "Overall performance comparison (paper Table 3)";
    FigureOutput::table("table3", caption, "table3", render_table3(&rows))
}

/// Extension: every queue discipline — the paper's three plus the rest of
/// `AqmKind::ALL` — on the same intra-CUBIC workload, the follow-up the
/// paper's conclusion asks for.
fn aqm_frontier_target(cli: &Cli) -> FigureOutput {
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
    let caption = "AQM frontier, intra-CCA CUBIC, 2 BDP buffer";
    FigureOutput::table("aqm_frontier", caption, "frontier", t)
}

/// One run of `scenario` at the base seed under `--check`, recorded when
/// `rec` is given; its check reports count towards `checked_runs`.
fn run(cli: &Cli, scenario: ScenarioBuilder, rec: Option<Recording>) -> RunOutcome {
    let cfg = scenario.build().unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let mut runner =
        Runner::new(&cfg).seed(cli.opts.seed).check(cli.shared.check.unwrap_or_default());
    if let Some(rec) = rec {
        runner = runner.recorder(rec);
    }
    let outcome = runner.run().unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()));
    cli.cache.count_checks(&outcome);
    outcome
}

/// Extension: the paper's "future work: different RTTs". Holds the Table 1
/// knobs fixed (FIFO, 2 BDP, 100 Mbps) and sweeps the end-to-end RTT;
/// `--record` records the 62 ms run.
fn rttsweep_target(cli: &Cli) -> FigureOutput {
    let mut t = TextTable::new(vec!["rtt_ms", "bbr1_mbps", "cubic_mbps", "jain", "phi"]);
    for rtt_ms in [12u64, 32, 62, 124, 248] {
        // Scale the run length with the RTT so each sees a similar number
        // of round trips.
        let (cca1, cca2) = (CcaKind::BbrV1, CcaKind::Cubic);
        let scenario =
            ScenarioConfig::builder(cca1, cca2, AqmKind::Fifo, 2.0, 100_000_000, &cli.opts)
                .rtt_ms(rtt_ms)
                .duration(SimDuration::from_millis((rtt_ms * 800).max(20_000)));
        let rec = if rtt_ms == 62 { cli.record.clone() } else { None };
        let r = run(cli, scenario, rec).into_first();
        t.row(vec![
            format!("{rtt_ms}"),
            format!("{:.1}", r.sender_mbps[0]),
            format!("{:.1}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
            format!("{:.3}", r.jain),
            format!("{:.3}", r.utilization),
        ]);
    }
    let caption = "BBRv1 vs CUBIC across RTTs (FIFO, 2 BDP, 100 Mbps)";
    FigureOutput::table("rttsweep", caption, "rttsweep", t)
}

fn time_chart(title: String, y_label: &str) -> ChartSpec {
    ChartSpec { title, x_label: "time (s)".into(), y_label: y_label.into(), ..ChartSpec::default() }
}

/// Fairness dynamics: the four inter pairs plus CUBIC vs CUBIC with the
/// flight recorder on (records under `OUT/records`), each windowed into
/// `J(t)` and per-group shares, then a CUBIC group joining a CUBIC
/// incumbent late. Judges the two `dynamics/` claims on the runs of their
/// scenarios.
fn dynamics_target(cli: &Cli) -> (FigureOutput, Vec<Judgement>) {
    let shape_claim = Claim::find("dynamics/bbr1_suppresses_cubic_early_with_partial_recovery");
    let join_claim = Claim::find("dynamics/late_cubic_joiner_reaches_fair_share_in_finite_time");
    let spec = ConvergenceSpec { epsilon: 0.1, hold_s: 2.0 };
    let show = |t: Option<f64>| t.map_or("none".to_string(), |t| format!("{t:.2}s"));
    let recording = Recording::flows_only().out_dir(format!("{}/records", cli.out_dir)).svg(false);
    // One recorded run, read as `claim` reads it: with its windowed record.
    let recorded = |scenario, claim: &Claim| {
        let outcome = run(cli, scenario, Some(recording.clone()));
        let mut reading = (claim.read)(&outcome);
        let d = reading.dynamics.take().expect("a dynamics claim windows its record");
        (reading, outcome.config, d)
    };
    let mut charts = Vec::new();
    let mut pairs_t = TextTable::new(vec![
        "pair",
        "mean_jain",
        "final_jain",
        "convergence",
        "cca2_share_early",
        "cca2_share_late",
    ]);
    let judged = (shape_claim.runs)(&cli.opts).remove(0).build().expect("a valid claim scenario");
    let mut shape = None;
    let pairs = [inter_pairs(), vec![(PAPER_BASELINE, PAPER_BASELINE)]].concat();
    for &(cca1, cca2) in &pairs {
        let (reading, cfg, d) = recorded(dumbbell(&cli.opts, cca1, cca2), shape_claim);
        pairs_t.row(vec![
            format!("{cca1}-{cca2}"),
            format!("{:.4}", d.jain.iter().sum::<f64>() / d.jain.len() as f64),
            format!("{:.4}", d.jain.last().expect("a 10 s run has windows")),
            show(convergence_time(&d, &spec)),
            format!("{:.4}", reading.early),
            format!("{:.4}", reading.late),
        ]);
        if cfg == judged {
            shape = Some(shape_claim.judge(&[reading]));
        }
        let jain = vec![Series { name: "J(t)".into(), points: d.jain_series() }];
        let title = format!("J(t), 250ms windows — {}", cfg.label());
        charts.push((format!("{cca1}_vs_{cca2}_jain"), time_chart(title, "Jain index"), jain));
        let shares = (0..d.n_groups())
            .map(|g| Series {
                name: format!("group {g} ({})", if g == 0 { cca1 } else { cca2 }),
                points: d.share_series(g),
            })
            .collect();
        let title = format!("windowed shares — {}", cfg.label());
        let name = format!("{cca1}_vs_{cca2}_shares");
        charts.push((name, time_chart(title, "share of goodput"), shares));
    }
    let shape = shape.expect("the suppression claim's pair is one of the five");

    let (reading, cfg, d) = recorded((join_claim.runs)(&cli.opts).remove(0), join_claim);
    let offset = format!("{:.1}s", cfg.start_offset_ms[1] as f64 / 1000.0);
    let mut join_t = TextTable::new(vec!["late_join", "offset", "time_to_fair", "concession"]);
    join_t.row(vec![
        format!("{}-{}", cfg.cca1, cfg.cca2),
        offset.clone(),
        show(reading.claim_s),
        format!("{:.3}", reading.concession),
    ]);
    let shares = vec![
        Series { name: "incumbent".into(), points: d.share_series(0) },
        Series { name: "late joiner".into(), points: d.share_series(1) },
    ];
    let title = format!("late joiner (+{offset}) — {}", cfg.label());
    charts.push(("late_join_shares".into(), time_chart(title, "share of goodput"), shares));

    let join = join_claim.judge(&[reading]);
    let ok = |j: &Judgement| if j.holds { "ok" } else { "fail" };
    let text = format!(
        "\n{}{}dynamics: pairs={} shape={} late_join={}",
        pairs_t.render_kv("dynamics"),
        join_t.render_kv("dynamics"),
        pairs.len(),
        ok(&shape),
        ok(&join),
    );
    let caption = format!(
        "Fairness dynamics: bottleneck {} · {}s · seed {} · 250ms windows · \
         convergence ε={} hold={}s",
        bw_label(judged.bw_bps),
        judged.duration.as_secs_f64(),
        cli.opts.seed,
        spec.epsilon,
        spec.hold_s,
    );
    let tables = vec![("pairs".to_string(), pairs_t), ("late_join".to_string(), join_t)];
    let out = FigureOutput { id: "dynamics", caption, text, tables, charts };
    (out, vec![shape, join])
}

/// RTT unfairness: a 31 ms BBRv1 group shares one bottleneck with a CUBIC
/// group at 1, 2 and 4 times its RTT (multi-dumbbell). Judges the
/// `rtt_unfair/` claim on its runs.
fn rtt_unfair_target(cli: &Cli) -> (FigureOutput, Vec<Judgement>) {
    let claim = Claim::find("rtt_unfair/short_rtt_bbr1_share_grows_with_the_rtt_ratio");
    let columns = vec!["ratio", "bbr_rtt", "cubic_rtt", "bbr", "cubic", "bbr_share"];
    let mut t = TextTable::new(columns);
    let mut readings = Vec::new();
    for scenario in (claim.runs)(&cli.opts) {
        let outcome = run(cli, scenario, None);
        let TopologySpec::MultiDumbbell { rtts_ms } = &outcome.config.topology else {
            panic!("{} runs on a multi-dumbbell", claim.id)
        };
        let r = (claim.read)(&outcome);
        t.row(vec![
            format!("{}", rtts_ms[1] / rtts_ms[0]),
            format!("{}ms", rtts_ms[0]),
            format!("{}ms", rtts_ms[1]),
            format!("{:.2}Mbps", r.mbps[0]),
            format!("{:.2}Mbps", r.mbps[1]),
            format!("{:.4}", r.share),
        ]);
        readings.push(r);
    }
    let judgement = claim.judge(&readings);
    let monotone = if judgement.holds { "yes" } else { "no" };
    let text = format!("\n{}rtt-unfair: monotone={monotone}", t.render_kv("rtt-unfair"));
    let caption = "Short-RTT BBRv1 vs CUBIC at 1:1, 2:1 and 4:1 RTT ratios \
                   (FIFO, 2 BDP, 100 Mbps, 10 s)";
    let tables = vec![("shares".to_string(), t)];
    let out =
        FigureOutput { id: "rtt_unfair", caption: caption.into(), text, tables, charts: vec![] };
    (out, vec![judgement])
}

type Target = fn(&Cli) -> (FigureOutput, Vec<Judgement>);

/// `(name, the flags it takes, run)`.
const TARGETS: [(&str, &[&str], Target); 13] = [
    ("fig2", FIGURE, |cli| (fig2(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig3", FIGURE, |cli| (fig3(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig4", FIGURE, |cli| (fig4(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig5", FIGURE, |cli| (fig5(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig6", FIGURE, |cli| (fig6(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig7", FIGURE, |cli| (fig7(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("fig8", FIGURE, |cli| (fig8(&cli.opts, &cli.cache, &cli.bws), vec![])),
    ("table2", TABLE2, |cli| (table2_target(cli), vec![])),
    ("table3", FIGURE, |cli| (table3_target(cli), vec![])),
    ("aqm_frontier", AQM_FRONTIER, |cli| (aqm_frontier_target(cli), vec![])),
    ("rttsweep", RTTSWEEP, |cli| (rttsweep_target(cli), vec![])),
    ("dynamics", CLAIM, dynamics_target),
    ("rtt_unfair", CLAIM, rtt_unfair_target),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_default();
    let Some(&(_, takes, run)) = TARGETS.iter().find(|t| t.0 == target) else {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        let usage = format!(
            "usage: repro <{}> [flags]   (`repro <target> --help` lists a target's flags)",
            names.join("|")
        );
        if target == "--help" || target == "-h" {
            println!("{usage}");
            return;
        }
        exit_usage(&usage);
    };
    let cli = Cli::parse_or_exit(&format!("repro {target}"), takes, &[], args);
    let (out, judgements) = run(&cli);
    println!("{}", out.caption);
    println!("{}", out.text);
    for j in &judgements {
        println!("claim {}: {}", if j.holds { "holds" } else { "FAILED" }, j.line);
    }
    match out.write_csvs(&cli.out_dir).and_then(|_| out.write_svgs(&cli.out_dir)) {
        Err(e) => eprintln!("warning: failed to write CSV/SVG: {e}"),
        Ok(()) => {
            let what = if out.charts.is_empty() { "CSV" } else { "CSV + SVG" };
            println!("{what} written under {}/{}/", cli.out_dir, out.id)
        }
    }
    if cli.shared.check.is_some() {
        eprintln!(
            "checked_runs: {}  check_violations: {}",
            cli.cache.checked_runs(),
            cli.cache.check_violations()
        );
    }
    if judgements.iter().any(|j| !j.holds) {
        std::process::exit(1);
    }
}
