//! The recorded series against independent sources on real records: the
//! one-pass per-flow split against the scan-per-flow code it replaced (the
//! recorded BBRv1-vs-CUBIC run `telemetry.rs` uses), and a record's
//! cumulative counters and windows against the run they sample.
//!
//! `windowed_goodput` and the cwnd figure used to call
//! `delivered_series(f)` / `cwnd_series(f)` once per flow, each a pass over
//! every sample. They now split the record once (`FlightRecord::by_flow`).
//! Both are rebuilt here the old way, from nothing but
//! `record.flow_samples`, and must match to the bit and to the byte.

use elephants::analysis::windowed_goodput;
use elephants::cca::CcaKind;
use elephants::experiments::{
    emit_dynamics_figures, line_chart, ChartSpec, Recording, RunErrorKind, RunOptions, RunOutcome,
    Runner, ScenarioConfig, Series,
};
use elephants::netsim::{FaultPlan, LossModel};
use elephants::telemetry::{FlightRecord, FlowPoint};
use elephants::{AqmKind, SimDuration};

/// One flow's `(t, y)` series by a full scan of the record.
fn scan(record: &FlightRecord, flow: u32, y: fn(&FlowPoint) -> u64) -> Vec<(f64, f64)> {
    record.flow_samples.iter().filter(|p| p.flow == flow).map(|p| (p.t_s, y(p) as f64)).collect()
}

/// `windowed_goodput` as it was written over per-flow scans.
fn windowed_goodput_by_scans(record: &FlightRecord, window_s: f64) -> (Vec<u32>, Vec<Vec<f64>>) {
    let cumulative_at = |samples: &[(f64, f64)], b: f64| match samples
        .partition_point(|&(t, _)| t <= b)
    {
        0 => 0.0,
        i => samples[i - 1].1,
    };
    let flows = record.flow_ids();
    let t_max = record.flow_samples.iter().map(|p| p.t_s).fold(0.0f64, f64::max);
    let n_windows = (t_max / window_s).floor() as usize;
    let bps = flows
        .iter()
        .map(|&f| {
            let samples = scan(record, f, |p| p.delivered_bytes);
            (0..n_windows)
                .map(|k| {
                    let lo = cumulative_at(&samples, k as f64 * window_s);
                    let hi = cumulative_at(&samples, (k + 1) as f64 * window_s);
                    (hi - lo).max(0.0) * 8.0 / window_s
                })
                .collect()
        })
        .collect();
    (flows, bps)
}

#[test]
fn split_matches_per_flow_scans_on_a_recorded_run() {
    let cfg = ScenarioConfig::new(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    );
    let dir = std::env::temp_dir().join(format!("elephants-series-{}", std::process::id()));
    let outcome = Runner::new(&cfg)
        .seed(1)
        .recorder(Recording::parse("flows,queue").unwrap().out_dir(&dir))
        .run()
        .unwrap();
    let record = outcome.load_record().expect("record written and parseable");
    assert!(record.flow_ids().len() >= 2, "both senders sampled");

    for window_s in [0.1, 0.5] {
        let g = windowed_goodput(&record, window_s);
        let (flows, bps) = windowed_goodput_by_scans(&record, window_s);
        assert_eq!(g.flows, flows);
        assert!(g.n_windows() > 0 && bps.iter().flatten().any(|&b| b > 0.0));
        // Same operations on the same numbers: equal to the bit.
        assert_eq!(g.bps, bps, "windowed goodput at {window_s} s");
    }

    let stem = "series-check";
    let written = emit_dynamics_figures(&record, &dir, stem).unwrap();
    let cwnd_svg = std::fs::read_to_string(dir.join(format!("{stem}.cwnd.svg"))).unwrap();
    assert!(written.iter().any(|p| p.ends_with(format!("{stem}.cwnd.svg"))));
    let series: Vec<Series> = record
        .flow_ids()
        .into_iter()
        .map(|f| Series {
            name: format!("flow {f}"),
            points: scan(&record, f, |p| p.cwnd).into_iter().map(|(t, c)| (t, c / 1e3)).collect(),
        })
        .collect();
    let spec = ChartSpec {
        title: format!("cwnd dynamics — {}", record.label),
        x_label: "time (s)".to_string(),
        y_label: "cwnd (kB)".to_string(),
        ..ChartSpec::default()
    };
    assert_eq!(cwnd_svg, line_chart(&spec, &series), "cwnd figure");
    // The figure the run itself wrote next to its record is that one too.
    let own = std::fs::read_to_string(dir.join(format!("{}.cwnd.svg", cfg.cache_key(1)))).unwrap();
    assert_eq!(own, cwnd_svg);
    std::fs::remove_dir_all(&dir).ok();
}

/// The recorder is the only sampler, so a record must be a faithful view
/// of the run that wrote it, fault knobs included.
#[test]
fn recorded_series_agree_with_the_run_they_sample() {
    let step_s = 0.25;
    let (down_s, outage_s) = (4.9, 0.4);
    // No warmup: the run's windowed totals are then whole-run totals, the
    // quantity the record's cumulative counters end on.
    let mut clean = ScenarioConfig::new(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    );
    clean.warmup = SimDuration::ZERO;
    let mut flapped = clean.clone();
    flapped.faults = FaultPlan::flap(
        SimDuration::from_secs_f64(down_s),
        SimDuration::from_secs_f64(outage_s),
    );
    let mut lossy = clean.clone();
    lossy.loss = LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 };

    let dir = std::env::temp_dir().join(format!("elephants-series-run-{}", std::process::id()));
    let recording = Recording::parse("flows,queue")
        .unwrap()
        .interval(SimDuration::from_secs_f64(step_s))
        .out_dir(&dir)
        .svg(false);
    let recorded = |cfg: &ScenarioConfig| -> (RunOutcome, FlightRecord) {
        let outcome = Runner::new(cfg).seed(3).recorder(recording.clone()).run().unwrap();
        let record = outcome.load_record().expect("record written and parseable");
        (outcome, record)
    };
    let [clean_run, flapped_run, lossy_run] = [&clean, &flapped, &lossy].map(recorded);

    // The last cumulative sample of every flow carries the run's totals.
    for (outcome, record) in [&clean_run, &flapped_run] {
        let run = outcome.first();
        let label = outcome.config.label();
        let window_s = outcome.config.duration.as_secs_f64();
        let last: Vec<&FlowPoint> =
            record.by_flow().iter().map(|track| *track.points.last().unwrap()).collect();
        assert_eq!(last.iter().map(|p| p.retx).sum::<u64>(), run.retransmits, "{label}");
        for (group, &mbps) in run.sender_mbps.iter().enumerate() {
            let delivered: u64 = last
                .iter()
                .zip(outcome.flow_groups())
                .filter(|(_, g)| *g as usize == group)
                .map(|(p, _)| p.delivered_bytes)
                .sum();
            assert_eq!(delivered as f64 * 8.0 / window_s / 1e6, mbps, "{label}, group {group}");
        }
    }

    // The outage shows in the series: a window lying wholly inside it
    // (after the packets already past the link have landed) is silent.
    let d = flapped_run.0.analysis(step_s).unwrap();
    let dark = (0..d.t.len()).any(|k| {
        d.t[k] - step_s > down_s + 0.05 && d.t[k] < down_s + outage_s && d.total_bps[k] == 0.0
    });
    assert!(dark, "no zero-goodput window inside the outage: {:?}", d.total_bps);
    assert!(clean_run.0.analysis(step_s).unwrap().total_bps.iter().all(|&bps| bps > 0.0));

    // A loss model reaches the recorded run too.
    assert_ne!(lossy_run.1.flow_samples, clean_run.1.flow_samples, "Gilbert-Elliott changed nothing");

    // A config the runner refuses is refused before anything is recorded.
    let mut bad = clean.clone();
    bad.fault_link = 1;
    let err = Runner::new(&bad).seed(3).recorder(recording.clone()).run().unwrap_err();
    assert_eq!(err.kind, RunErrorKind::InvalidConfig);
    std::fs::remove_dir_all(&dir).ok();
}
