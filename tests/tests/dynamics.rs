//! Fairness-dynamics acceptance tests, driven through the `elephants`
//! facade.
//!
//! Unlike `paper_shapes.rs`, which judges run-level aggregates, these
//! tests difference the flight record into windowed series. Two judge the
//! paper's *temporal* claims, the rows
//! `dynamics/bbr1_suppresses_cubic_early_with_partial_recovery` and
//! `dynamics/late_cubic_joiner_reaches_fair_share_in_finite_time` of the
//! claims table (`crates/experiments/src/claims.rs`), which `repro
//! dynamics` judges on its own runs too. The third checks that 10 ms
//! windowed utilization survives sub-RTT burstiness at 25 Gbps (where the
//! run-level `link_utilization` debug assertion would trip).

use elephants::cca::CcaKind;
use elephants::experiments::{Recording, RunOptions, Runner, ScenarioConfig};
use elephants::AqmKind;

integration_tests::claim_tests!("dynamics":
    bbr1_suppresses_cubic_early_with_partial_recovery,
    late_cubic_joiner_reaches_fair_share_in_finite_time,
);

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
    let dir = std::env::temp_dir().join(format!("elephants-dynamics-util25g-{}", std::process::id()));
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
