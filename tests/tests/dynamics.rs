//! Fairness-dynamics acceptance tests, driven through the `elephants`
//! facade (ISSUE: analysis subsystem).
//!
//! Unlike `paper_shapes.rs`, which checks run-level aggregates, these
//! tests difference the flight record into windowed series and assert the
//! paper's *temporal* claims: BBRv1 suppresses CUBIC early with partial
//! recovery later, a late CUBIC joiner claims fair share in finite time,
//! and 10 ms windowed utilization survives sub-RTT burstiness at 25 Gbps
//! (where the run-level `link_utilization` debug assertion would trip).

use elephants::analysis::{late_joiner_response, suppression_shape, ConvergenceSpec};
use elephants::cca::CcaKind;
use elephants::experiments::{Recording, RunOptions, Runner, ScenarioConfig};
use elephants::netsim::SimDuration;
use elephants::AqmKind;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("elephants-dynamics-{tag}-{}", std::process::id()))
}

#[test]
fn bbr1_suppresses_cubic_early_with_partial_recovery() {
    // The paper's qualitative BBRv1-vs-CUBIC shape on the 62 ms dumbbell:
    // CUBIC's share sits well below fair while BBRv1's startup estimate
    // dominates, then recovers as CUBIC's window grows — suppression
    // without starvation. Thresholds match the `repro dynamics` gate
    // (empirically 0.41–0.43 early, 0.71–0.72 late across seeds 1–5).
    let cfg = ScenarioConfig::new(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    );
    let dir = temp_dir("shape");
    let outcome = Runner::new(&cfg)
        .seed(1)
        .recorder(Recording::flows_only().out_dir(&dir).svg(false))
        .run()
        .unwrap();
    let d = outcome.analysis(0.25).unwrap();
    let shape = suppression_shape(&d, 1, 2.5, 6.0).expect("both spans hold windows");
    assert!(
        shape.early_share < 0.9 * shape.fair_share,
        "CUBIC must be suppressed early: share {:.3} vs fair {:.3}",
        shape.early_share,
        shape.fair_share
    );
    assert!(
        shape.late_share > shape.early_share + 0.05,
        "CUBIC must partially recover: early {:.3} late {:.3}",
        shape.early_share,
        shape.late_share
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn late_cubic_joiner_reaches_fair_share_in_finite_time() {
    // CUBIC joining a CUBIC incumbent 3 s in: AIMD converges, so the
    // joiner must claim ≥70% of fair share within the run and the
    // incumbent must concede bandwidth. Judged on 1 s windows — 250 ms
    // share noise (±0.08) would defeat any sustained-hold criterion.
    let cfg = ScenarioConfig::builder(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    )
    .start_offset_ms(vec![0, 3000])
    .build()
    .unwrap();
    assert_eq!(cfg.duration, SimDuration::from_secs(10), "quick preset at 100 Mbps");
    let dir = temp_dir("latejoin");
    let outcome = Runner::new(&cfg)
        .seed(1)
        .recorder(Recording::flows_only().out_dir(&dir).svg(false))
        .run()
        .unwrap();
    let d = outcome.analysis(1.0).unwrap();
    let spec = ConvergenceSpec { epsilon: 0.3, hold_s: 1.0 };
    let join = late_joiner_response(&d, 1, 3.0, &spec);
    assert!(
        join.time_to_fair_share_s.is_some(),
        "joiner never sustained ≥{:.0}% of fair share: {join:?}",
        (1.0 - spec.epsilon) * 100.0
    );
    let t = join.time_to_fair_share_s.unwrap();
    assert!(t > 0.0 && t < 7.0, "claim time within the post-join horizon, got {t:.2}s");
    assert!(
        join.concession > 0.1,
        "incumbent must concede real bandwidth, got {:.3}",
        join.concession
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_utilization_survives_10ms_windows_at_25g() {
    // At 25 Gbps a 10 ms window is ~160 RTT-worth of queue drain: single
    // windows legitimately exceed capacity, which the run-level
    // `link_utilization` debug assertion rejects. The windowed variant
    // must return those ratios raw, and their average must still converge
    // to a sane run-level utilization.
    let cfg = ScenarioConfig::builder(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        25_000_000_000,
        &RunOptions::quick(),
    )
    .flow_scale(0.05)
    .build()
    .unwrap();
    let dir = temp_dir("util25g");
    let outcome = Runner::new(&cfg)
        .seed(1)
        .recorder(Recording::flows_only().out_dir(&dir).svg(false))
        .run()
        .unwrap();
    let d = outcome.analysis(0.01).unwrap();
    assert!(d.t.len() >= 100, "a quick 25G run spans ≥1 s of 10 ms windows");
    assert!(
        d.utilization.iter().all(|u| u.is_finite() && *u >= 0.0),
        "every windowed utilization is a finite ratio"
    );
    // Steady-state average (skipping slow-start) recovers run-level phi.
    let tail: Vec<f64> =
        d.utilization.iter().copied().skip(d.t.len() / 2).collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        mean > 0.5 && mean < 1.05,
        "steady-state mean of windowed utilization stays physical: {mean:.3}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
