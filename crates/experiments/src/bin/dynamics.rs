//! Fairness-dynamics experiment: run the CCA-pair matrix with the flight
//! recorder on, difference each record into windowed per-group shares,
//! and report `J(t)`, convergence time and the late-joiner responsiveness
//! of a staggered CUBIC-vs-CUBIC run.
//!
//! Two qualitative claims from the paper are *checked*, not just plotted:
//!
//! 1. BBRv1-vs-CUBIC shows the paper's shape — CUBIC's share is
//!    suppressed well below fair early in the run, with partial recovery
//!    later (suppression without total starvation).
//! 2. A CUBIC group joining a CUBIC incumbent late claims its fair share
//!    in finite time (AIMD converges; the joiner is not locked out).
//!
//! The binary exits nonzero if either fails, making the dynamics layer a
//! CI gate. Artifacts land in `--out`: a markdown report (`dynamics.md`),
//! plus `J(t)` and windowed-share SVGs per pair.
//!
//! Usage:
//! `cargo run --release -p elephants-experiments --bin dynamics -- \
//!    [--bw 100M] [--secs 10] [--seed 1] [--scale 1.0] [--window-ms 250] \
//!    [--offset-ms 3000] [--out out/dynamics]`

use elephants_analysis::{
    convergence_time, late_joiner_response, suppression_shape, throughput_ratio, ConvergenceSpec,
};
use elephants_experiments::cli::parse_bw;
use elephants_experiments::prelude::*;
use elephants_experiments::svg::{write_chart, ChartSpec, Series};
use elephants_netsim::SimDuration;
use std::path::Path;

struct PairRow {
    label: String,
    mean_jain: f64,
    final_jain: f64,
    convergence_s: Option<f64>,
    cubic_early: f64,
    cubic_late: f64,
    ratio_last: f64,
}

fn main() {
    let mut bw = 100_000_000u64;
    let mut secs = 10u64;
    let mut seed = 1u64;
    let mut scale = 1.0f64;
    let mut window_ms = 250u64;
    let mut offset_ms = 0u64; // 0 = 30% of the duration
    let mut out = "out/dynamics".to_string();

    let fail = |msg: String| -> ! {
        eprintln!("dynamics: {msg}");
        std::process::exit(2);
    };

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| fail(format!("{a} needs a value")));
        match a.as_str() {
            "--bw" => bw = parse_bw(&val()).unwrap_or_else(|e| fail(e)),
            "--secs" => secs = val().parse().unwrap_or_else(|e| fail(format!("bad --secs: {e}"))),
            "--seed" => seed = val().parse().unwrap_or_else(|e| fail(format!("bad --seed: {e}"))),
            "--scale" => scale = val().parse().unwrap_or_else(|e| fail(format!("bad --scale: {e}"))),
            "--window-ms" => {
                window_ms = val().parse().unwrap_or_else(|e| fail(format!("bad --window-ms: {e}")))
            }
            "--offset-ms" => {
                offset_ms = val().parse().unwrap_or_else(|e| fail(format!("bad --offset-ms: {e}")))
            }
            "--out" => out = val(),
            other => fail(format!("unknown flag {other}")),
        }
    }
    if offset_ms == 0 {
        offset_ms = secs * 300; // 30% of the run
    }
    let window_s = window_ms as f64 / 1e3;
    let out_dir = Path::new(&out);
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| fail(format!("mkdir {out}: {e}")));

    let opts = RunOptions { seed, flow_scale: scale, ..RunOptions::standard() };
    let spec = ConvergenceSpec { epsilon: 0.1, hold_s: (secs as f64 * 0.2).max(1.0) };
    let early_until = secs as f64 * 0.25;
    let late_from = secs as f64 * 0.6;

    // --- The pair matrix: the four inter pairs plus the CUBIC baseline.
    let mut pairs = inter_pairs();
    pairs.push((PAPER_BASELINE, PAPER_BASELINE));
    let mut rows: Vec<PairRow> = Vec::new();
    let mut bbr1_shape = None;
    for (cca1, cca2) in pairs {
        let cfg = ScenarioConfig::builder(cca1, cca2, AqmKind::Fifo, 2.0, bw, &opts)
            .duration(SimDuration::from_secs(secs))
            .build()
            .unwrap_or_else(|e| fail(format!("invalid scenario: {e}")));
        let outcome = Runner::new(&cfg)
            .seed(seed)
            .recorder(Recording::flows_only().out_dir(out_dir).svg(false))
            .run()
            .unwrap_or_else(|e| fail(format!("run failed ({}): {e}", cfg.label())));
        let d = outcome.analysis(window_s).unwrap_or_else(|e| fail(format!("analysis: {e}")));
        if d.t.is_empty() {
            fail(format!("no complete {window_ms}ms windows in a {secs}s run"));
        }

        let mean_jain = d.jain.iter().sum::<f64>() / d.jain.len() as f64;
        let shape = suppression_shape(&d, 1, early_until, late_from)
            .unwrap_or_else(|| fail("early/late spans hold no windows".into()));
        let row = PairRow {
            label: format!("{} vs {}", cca1.pretty(), cca2.pretty()),
            mean_jain,
            final_jain: *d.jain.last().unwrap(),
            convergence_s: convergence_time(&d, &spec),
            cubic_early: shape.early_share,
            cubic_late: shape.late_share,
            ratio_last: throughput_ratio(&d, 0, 1).map_or(f64::INFINITY, |r| r.last),
        };
        println!(
            "dynamics: pair={}-{} mean_jain={:.4} final_jain={:.4} convergence={} \
             cca2_share_early={:.4} cca2_share_late={:.4}",
            cca1,
            cca2,
            row.mean_jain,
            row.final_jain,
            row.convergence_s.map_or("none".to_string(), |t| format!("{t:.2}s")),
            row.cubic_early,
            row.cubic_late,
        );
        if (cca1, cca2) == (CcaKind::BbrV1, CcaKind::Cubic) {
            bbr1_shape = Some(shape);
        }

        // J(t) and windowed-share figures for this pair.
        let key = cfg.cache_key(seed);
        write_chart(
            out_dir.join(format!("{key}.jain.svg")),
            &ChartSpec {
                title: format!("J(t), {}ms windows — {}", window_ms, cfg.label()),
                x_label: "time (s)".into(),
                y_label: "Jain index".into(),
                y_from_zero: true,
                ..ChartSpec::default()
            },
            &[Series { name: "J(t)".into(), points: d.jain_series() }],
        )
        .unwrap_or_else(|e| fail(format!("write J(t) figure: {e}")));
        let share_series: Vec<Series> = (0..d.n_groups())
            .map(|g| Series {
                name: format!("group {g} ({})", if g == 0 { cca1 } else { cca2 }),
                points: d.share_series(g),
            })
            .collect();
        write_chart(
            out_dir.join(format!("{key}.shares.svg")),
            &ChartSpec {
                title: format!("windowed shares — {}", cfg.label()),
                x_label: "time (s)".into(),
                y_label: "share of goodput".into(),
                y_from_zero: true,
                ..ChartSpec::default()
            },
            &share_series,
        )
        .unwrap_or_else(|e| fail(format!("write share figure: {e}")));
        rows.push(row);
    }

    // --- Late joiner: CUBIC joins a CUBIC incumbent at +offset.
    let offset_s = offset_ms as f64 / 1e3;
    let late_cfg =
        ScenarioConfig::builder(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, bw, &opts)
            .duration(SimDuration::from_secs(secs))
            .start_offset_ms(vec![0, offset_ms])
            .build()
            .unwrap_or_else(|e| fail(format!("invalid late-join scenario: {e}")));
    let late_outcome = Runner::new(&late_cfg)
        .seed(seed)
        .recorder(Recording::flows_only().out_dir(out_dir).svg(false))
        .run()
        .unwrap_or_else(|e| fail(format!("late-join run failed: {e}")));
    // Late-join responsiveness is judged on 1 s windows (noise in 250 ms
    // windows is ±0.08 of share, which would defeat any sustained-hold
    // criterion) and ε=0.3: the joiner must claim 70% of fair share.
    let late_window = window_s.max(1.0);
    let late_d =
        late_outcome.analysis(late_window).unwrap_or_else(|e| fail(format!("analysis: {e}")));
    let late_spec = ConvergenceSpec { epsilon: 0.3, hold_s: 1.0 };
    let join = late_joiner_response(&late_d, 1, offset_s, &late_spec);
    println!(
        "dynamics: late_join=cubic-cubic offset={offset_s:.1}s time_to_fair={} concession={:.3}",
        join.time_to_fair_share_s.map_or("none".to_string(), |t| format!("{t:.2}s")),
        join.concession,
    );
    write_chart(
        out_dir.join(format!("{}.shares.svg", late_cfg.cache_key(seed))),
        &ChartSpec {
            title: format!("late joiner (+{offset_s:.1}s) — {}", late_cfg.label()),
            x_label: "time (s)".into(),
            y_label: "share of goodput".into(),
            y_from_zero: true,
            ..ChartSpec::default()
        },
        &[
            Series { name: "incumbent".into(), points: late_d.share_series(0) },
            Series { name: "late joiner".into(), points: late_d.share_series(1) },
        ],
    )
    .unwrap_or_else(|e| fail(format!("write late-join figure: {e}")));

    // --- Markdown report.
    let mut md = String::new();
    md.push_str("# Fairness dynamics\n\n");
    md.push_str(&format!(
        "bottleneck {} · {secs}s · seed {seed} · {window_ms}ms windows · \
         convergence ε={} hold={}s\n\n",
        bw_label(bw),
        spec.epsilon,
        spec.hold_s,
    ));
    md.push_str(
        "| pair | mean J(t) | final J | convergence | g1 share early | g1 share late | g0/g1 final |\n",
    );
    md.push_str("|---|---|---|---|---|---|---|\n");
    for r in &rows {
        md.push_str(&format!(
            "| {} | {:.4} | {:.4} | {} | {:.3} | {:.3} | {:.2} |\n",
            r.label,
            r.mean_jain,
            r.final_jain,
            r.convergence_s.map_or("never".to_string(), |t| format!("{t:.2}s")),
            r.cubic_early,
            r.cubic_late,
            r.ratio_last,
        ));
    }
    md.push_str(&format!(
        "\n## Late joiner (CUBIC vs CUBIC, +{offset_s:.1}s)\n\n\
         time to ≥{:.0}% of fair share: {} · incumbent concession: {:.1}%\n",
        (1.0 - late_spec.epsilon) * 100.0,
        join.time_to_fair_share_s.map_or("never".to_string(), |t| format!("{t:.2}s")),
        join.concession * 100.0,
    ));
    std::fs::write(out_dir.join("dynamics.md"), &md)
        .unwrap_or_else(|e| fail(format!("write report: {e}")));

    // --- The two checkable claims.
    let shape = bbr1_shape.expect("BBRv1-vs-CUBIC is always in the matrix");
    // Thresholds pinned on the 100 Mbps / 10 s / 62 ms dumbbell, seeds 1–5:
    // early CUBIC share 0.41–0.43, late 0.71–0.72 across all of them.
    let suppressed = shape.early_share < 0.9 * shape.fair_share;
    let recovers = shape.late_share > shape.early_share + 0.05;
    let late_ok = join.time_to_fair_share_s.is_some();
    let shape_ok = suppressed && recovers;
    println!(
        "dynamics: pairs={} shape={} late_join={}",
        rows.len(),
        if shape_ok { "ok" } else { "fail" },
        if late_ok { "ok" } else { "fail" },
    );
    if !shape_ok {
        eprintln!(
            "dynamics: BBRv1-vs-CUBIC lost the paper's shape: early CUBIC share {:.3} \
             (want < {:.3}), late {:.3} (want > early + 0.05)",
            shape.early_share,
            0.9 * shape.fair_share,
            shape.late_share
        );
        std::process::exit(1);
    }
    if !late_ok {
        eprintln!("dynamics: late CUBIC joiner never reached fair share against a CUBIC incumbent");
        std::process::exit(1);
    }
}
