//! Regenerates one artifact: `repro <target> [flags]`, where the target is a
//! paper figure or table (`fig2..fig8`, `table2`, `table3`), an extension
//! experiment (`aqm_frontier`, `rttsweep`, `ablate`) or a checked claim
//! (`dynamics`, `rtt_unfair`). Each target takes only the flags that change
//! what it does, listed in its row of `TARGETS` and printed by
//! `repro <target> --help`; any other flag exits 2.
//!
//! Every target returns one [`FigureOutput`]: `main` prints its caption and
//! text and writes its tables and charts under `OUT/<id>/`. A claim target
//! also returns a verdict, and `repro` exits 1 when the claim fails.

use elephants_analysis::{
    convergence_time, late_joiner_response, suppression_shape, ConvergenceSpec, LateJoinReport,
    SuppressionShape,
};
use elephants_aqm::{Red, RedConfig};
use elephants_cca::{BbrV2, CongestionControl, Cubic};
use elephants_experiments::cli::{
    exit_usage, ABLATE, AQM_FRONTIER, CLAIM, FIGURE, RTTSWEEP, TABLE2,
};
use elephants_experiments::prelude::*;
use elephants_experiments::svg::{ChartSpec, Series};
use elephants_netsim::prelude::*;
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use elephants_workload::{table2_config, table2_total_flows};

/// Whether a claim held, and why not when it did not.
type Verdict = Result<(), String>;

/// Bottleneck and length of every `dynamics` and `rtt_unfair` run.
const CLAIM_BW: u64 = 100_000_000;
const CLAIM_SECS: u64 = 10;

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
fn ablate_target() -> FigureOutput {
    let small_fifo = || -> Box<dyn Aqm> {
        let bdp = bdp_bytes(Bandwidth::from_mbps(100), SimDuration::from_millis(62));
        Box::new(DropTail::new(bdp / 2))
    };
    let mut t = TextTable::new(vec!["ablation", "variant", "goodput_mbps", "retransmits"]);
    let mut row = |ablation: &str, variant: String, (goodput, retx): (f64, u64)| {
        t.row(vec![ablation.to_string(), variant, format!("{goodput:.1}"), format!("{retx}")]);
    };

    for hystart in [true, false] {
        let cca = Box::new(Cubic::new(hystart, 8900));
        let variant = if hystart { "on" } else { "off" };
        row("cubic_hystart", variant.to_string(), ablation_run(cca, small_fifo(), 20));
    }
    for thresh in [0.02, 0.10] {
        let cca = Box::new(BbrV2::new(thresh, 8900, 0));
        row("bbr2_loss_thresh", format!("{thresh}"), ablation_run(cca, small_fifo(), 20));
    }
    for gentle in [false, true] {
        let mut cfg = RedConfig::tc_defaults(1_550_000, 100_000_000, 8900);
        cfg.gentle = gentle;
        let cca = Box::new(Cubic::new(true, 8900));
        let variant = if gentle { "gentle" } else { "cliff" };
        row("red_gentle", variant.to_string(), ablation_run(cca, Box::new(Red::new(cfg)), 20));
    }

    let caption = "Design-choice ablations (single flow, 100 Mbps, 62 ms RTT)";
    FigureOutput::table("ablate", caption, "ablate", t)
}

/// A 2 BDP FIFO scenario at `CLAIM_BW` lasting `CLAIM_SECS`.
fn claim_scenario(cli: &Cli, cca1: CcaKind, cca2: CcaKind) -> ScenarioBuilder {
    ScenarioConfig::builder(cca1, cca2, AqmKind::Fifo, 2.0, CLAIM_BW, &cli.opts)
        .duration(SimDuration::from_secs(CLAIM_SECS))
}

fn time_chart(title: String, y_label: &str) -> ChartSpec {
    ChartSpec { title, x_label: "time (s)".into(), y_label: y_label.into(), ..ChartSpec::default() }
}

/// BBRv1 must hold CUBIC below 0.9 of its fair share early in the run and
/// give back more than 0.05 of share later: suppression without
/// starvation. Pinned on the 100 Mbps / 10 s / 62 ms dumbbell, seeds 1–5:
/// early CUBIC share 0.41–0.43, late 0.71–0.72 across all of them.
fn suppression_verdict(s: &SuppressionShape) -> Verdict {
    if s.early_share < 0.9 * s.fair_share && s.late_share > s.early_share + 0.05 {
        return Ok(());
    }
    Err(format!(
        "BBRv1-vs-CUBIC lost the paper's shape: early CUBIC share {:.3} (want < {:.3}), \
         late {:.3} (want > early + 0.05)",
        s.early_share,
        0.9 * s.fair_share,
        s.late_share
    ))
}

/// A CUBIC group joining a CUBIC incumbent late must claim its fair share
/// in finite time (AIMD converges; the joiner is not locked out).
fn late_join_verdict(join: &LateJoinReport) -> Verdict {
    match join.time_to_fair_share_s {
        Some(_) => Ok(()),
        None => Err("late CUBIC joiner never reached fair share against a CUBIC incumbent".into()),
    }
}

/// Fairness dynamics: the four inter pairs plus CUBIC vs CUBIC with the
/// flight recorder on (records under `OUT/records`), each windowed into
/// `J(t)` and per-group shares at 250 ms, then a CUBIC group joining a
/// CUBIC incumbent 3 s in. Checks [`suppression_verdict`] and
/// [`late_join_verdict`].
fn dynamics_target(cli: &Cli) -> (FigureOutput, Verdict) {
    let spec = ConvergenceSpec { epsilon: 0.1, hold_s: 2.0 };
    let show = |t: Option<f64>| t.map_or("none".to_string(), |t| format!("{t:.2}s"));
    let recording = Recording::flows_only().out_dir(format!("{}/records", cli.out_dir)).svg(false);
    let windowed = |scenario, window_s| {
        let outcome = run(cli, scenario, Some(recording.clone()));
        let d = outcome.analysis(window_s).unwrap_or_else(|e| panic!("analysis: {e}"));
        (outcome.config, d)
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
    let mut shape_verdict = Ok(());
    let pairs = [inter_pairs(), vec![(PAPER_BASELINE, PAPER_BASELINE)]].concat();
    for &(cca1, cca2) in &pairs {
        let (cfg, d) = windowed(claim_scenario(cli, cca1, cca2), 0.25);
        // Early: the first quarter of the run; late: its last 40%.
        let shape = suppression_shape(&d, 1, 2.5, 6.0).expect("a 10 s run has both spans");
        if (cca1, cca2) == (CcaKind::BbrV1, CcaKind::Cubic) {
            shape_verdict = suppression_verdict(&shape);
        }
        pairs_t.row(vec![
            format!("{cca1}-{cca2}"),
            format!("{:.4}", d.jain.iter().sum::<f64>() / d.jain.len() as f64),
            format!("{:.4}", d.jain.last().expect("a 10 s run has windows")),
            show(convergence_time(&d, &spec)),
            format!("{:.4}", shape.early_share),
            format!("{:.4}", shape.late_share),
        ]);
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

    // Late-join responsiveness is judged on 1 s windows (noise in 250 ms
    // windows is ±0.08 of share, which would defeat any sustained-hold
    // criterion) and ε=0.3: the joiner must claim 70% of fair share.
    let cubic = claim_scenario(cli, CcaKind::Cubic, CcaKind::Cubic);
    let (cfg, d) = windowed(cubic.start_offset_ms(vec![0, 3_000]), 1.0);
    let join = late_joiner_response(&d, 1, 3.0, &ConvergenceSpec { epsilon: 0.3, hold_s: 1.0 });
    let mut join_t = TextTable::new(vec!["late_join", "offset", "time_to_fair", "concession"]);
    join_t.row(vec![
        "cubic-cubic".to_string(),
        "3.0s".to_string(),
        show(join.time_to_fair_share_s),
        format!("{:.3}", join.concession),
    ]);
    let shares = vec![
        Series { name: "incumbent".into(), points: d.share_series(0) },
        Series { name: "late joiner".into(), points: d.share_series(1) },
    ];
    let title = format!("late joiner (+3.0s) — {}", cfg.label());
    charts.push(("late_join_shares".into(), time_chart(title, "share of goodput"), shares));

    let join_verdict = late_join_verdict(&join);
    let ok = |v: &Verdict| if v.is_ok() { "ok" } else { "fail" };
    let text = format!(
        "\n{}{}dynamics: pairs={} shape={} late_join={}",
        pairs_t.render_kv("dynamics"),
        join_t.render_kv("dynamics"),
        pairs.len(),
        ok(&shape_verdict),
        ok(&join_verdict),
    );
    let caption = format!(
        "Fairness dynamics: bottleneck {} · {CLAIM_SECS}s · seed {} · 250ms windows · \
         convergence ε={} hold={}s",
        bw_label(CLAIM_BW),
        cli.opts.seed,
        spec.epsilon,
        spec.hold_s,
    );
    let tables = vec![("pairs".to_string(), pairs_t), ("late_join".to_string(), join_t)];
    let out = FigureOutput { id: "dynamics", caption, text, tables, charts };
    (out, shape_verdict.and(join_verdict))
}

/// The short-RTT BBR group's share must grow with every step of the RTT
/// ratio.
fn monotone_verdict(shares: &[(u64, f64)]) -> Verdict {
    if shares.windows(2).all(|w| w[1].1 > w[0].1) {
        return Ok(());
    }
    Err(format!("short-RTT BBR share did not grow with the RTT ratio: {shares:?}"))
}

/// RTT unfairness: a 31 ms BBRv1 group shares one bottleneck with a CUBIC
/// group at 1, 2 and 4 times its RTT (multi-dumbbell). BBR's pacing holds
/// its rate as the competitor's RTT grows while CUBIC's window growth
/// slows in proportion, so checks [`monotone_verdict`].
fn rtt_unfair_target(cli: &Cli) -> (FigureOutput, Verdict) {
    let columns = vec!["ratio", "bbr_rtt", "cubic_rtt", "bbr", "cubic", "bbr_share"];
    let mut t = TextTable::new(columns);
    let mut shares = Vec::new();
    for ratio in [1u64, 2, 4] {
        let rtts_ms = vec![31, 31 * ratio];
        let scenario = claim_scenario(cli, CcaKind::BbrV1, CcaKind::Cubic)
            .topology(TopologySpec::MultiDumbbell { rtts_ms: rtts_ms.clone() });
        let r = run(cli, scenario, None).into_first();
        let (bbr, cubic) = (r.sender_mbps[0], r.sender_mbps.get(1).copied().unwrap_or(0.0));
        let share = bbr / (bbr + cubic);
        t.row(vec![
            format!("{ratio}"),
            format!("{}ms", rtts_ms[0]),
            format!("{}ms", rtts_ms[1]),
            format!("{bbr:.2}Mbps"),
            format!("{cubic:.2}Mbps"),
            format!("{share:.4}"),
        ]);
        shares.push((ratio, share));
    }
    let verdict = monotone_verdict(&shares);
    let monotone = if verdict.is_ok() { "yes" } else { "no" };
    let text = format!("\n{}rtt-unfair: monotone={monotone}", t.render_kv("rtt-unfair"));
    let caption = "Short-RTT BBRv1 vs CUBIC at 1:1, 2:1 and 4:1 RTT ratios \
                   (FIFO, 2 BDP, 100 Mbps, 10 s)";
    let tables = vec![("shares".to_string(), t)];
    let out =
        FigureOutput { id: "rtt_unfair", caption: caption.into(), text, tables, charts: vec![] };
    (out, verdict)
}

type Target = fn(&Cli) -> (FigureOutput, Verdict);

/// `(name, the flags it takes, run)`.
const TARGETS: [(&str, &[&str], Target); 14] = [
    ("fig2", FIGURE, |cli| (fig2(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig3", FIGURE, |cli| (fig3(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig4", FIGURE, |cli| (fig4(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig5", FIGURE, |cli| (fig5(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig6", FIGURE, |cli| (fig6(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig7", FIGURE, |cli| (fig7(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("fig8", FIGURE, |cli| (fig8(&cli.opts, &cli.cache, &cli.bws), Ok(()))),
    ("table2", TABLE2, |cli| (table2_target(cli), Ok(()))),
    ("table3", FIGURE, |cli| (table3_target(cli), Ok(()))),
    ("aqm_frontier", AQM_FRONTIER, |cli| (aqm_frontier_target(cli), Ok(()))),
    ("rttsweep", RTTSWEEP, |cli| (rttsweep_target(cli), Ok(()))),
    ("ablate", ABLATE, |_| (ablate_target(), Ok(()))),
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
    let (out, verdict) = run(&cli);
    println!("{}", out.caption);
    println!("{}", out.text);
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
    if let Err(why) = verdict {
        eprintln!("{}: {why}", out.id);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_verdict_fails_without_suppression_or_recovery() {
        let shape =
            |early_share, late_share| SuppressionShape { early_share, late_share, fair_share: 0.5 };
        assert!(suppression_verdict(&shape(0.41, 0.71)).is_ok());
        let err = suppression_verdict(&shape(0.46, 0.71)).unwrap_err();
        assert!(err.contains("early CUBIC share 0.460"), "{err}");
        assert!(suppression_verdict(&shape(0.41, 0.45)).is_err(), "no recovery");
    }

    #[test]
    fn late_join_verdict_fails_when_the_joiner_never_claims() {
        let report = |time_to_fair_share_s| LateJoinReport {
            joiner: 1,
            join_t_s: 3.0,
            time_to_fair_share_s,
            incumbent_before_bps: 1e8,
            incumbent_after_bps: 7e7,
            concession: 0.3,
        };
        assert!(late_join_verdict(&report(Some(2.0))).is_ok());
        assert!(late_join_verdict(&report(None)).is_err());
    }

    #[test]
    fn monotone_verdict_fails_on_any_step_down() {
        assert!(monotone_verdict(&[(1, 0.1177), (2, 0.3085), (4, 0.5539)]).is_ok());
        let err = monotone_verdict(&[(1, 0.1177), (2, 0.3085), (4, 0.3)]).unwrap_err();
        assert!(err.contains("(4, 0.3)"), "{err}");
        assert!(monotone_verdict(&[(1, 0.2), (2, 0.2)]).is_err(), "a tie is not growth");
    }
}
