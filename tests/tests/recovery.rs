//! Loss-recovery byte-identity tests.
//!
//! `fixtures/coalesce` and `fixtures/topology` pin 2 BDP cells where the
//! sender rarely leaves the cumulative-ACK fast path. These three cells
//! mirror the benchmark's `recovery_10g` workload at 100 Mbps — a shallow
//! buffer under BBRv1, bursty random loss, a link flap — so SACK marking,
//! FACK loss detection, retransmit selection, RTO and spurious-RTO undo all
//! run hundreds of times a cell. The fixtures were pinned from the build *before*
//! PR 22 put cursors on the scoreboard's scans; any diff means that change
//! altered which segment is declared lost or retransmitted, or when.
//!
//! Regenerate the pinned fixtures (only when intentionally re-baselining,
//! from a build whose behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test recovery
//! ```

use elephants::cca::CcaKind;
use elephants::experiments::{RunOptions, Runner, ScenarioBuilder, ScenarioConfig};
use elephants::json::ToJson;
use elephants::netsim::{FaultPlan, LossModel};
use elephants::{AqmKind, SimDuration};

const FIXTURE_SEED: u64 = 42;

/// The pinned cells: `recovery_10g`'s three loss shapes at 100 Mbps, where
/// a cell has two flows and needs 20 s for a few dozen recovery episodes
/// (the flap keeps the workload's proportions: down at half time for a
/// fifth of the run).
fn fixture_cells() -> Vec<(&'static str, ScenarioConfig)> {
    let mut opts = RunOptions::quick();
    opts.seed = FIXTURE_SEED;
    let cell = |cca, queue_bdp: f64| -> ScenarioBuilder {
        ScenarioConfig::builder(cca, CcaKind::Cubic, AqmKind::Fifo, queue_bdp, 100_000_000, &opts)
            .duration(SimDuration::from_secs(20))
    };
    let ge = LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 };
    let flap = FaultPlan::flap(SimDuration::from_secs(10), SimDuration::from_secs(4));
    [
        ("bbr1_shallow.json", cell(CcaKind::BbrV1, 0.5)),
        ("htcp_ge_loss.json", cell(CcaKind::Htcp, 2.0).loss(ge)),
        ("bbr1_flap.json", cell(CcaKind::BbrV1, 2.0).faults(flap)),
    ]
    .map(|(name, b)| (name, b.build().expect("recovery cells are valid scenarios")))
    .into()
}

/// `RunMetrics` JSON plus the event count: two runs that retransmit the
/// same segments in a different order can agree on the first and not the
/// second.
fn pinned_json(cfg: &ScenarioConfig) -> String {
    let result = Runner::new(cfg)
        .seed(FIXTURE_SEED)
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.label()))
        .into_first();
    assert!(result.retransmits > 0, "{}: the cell never entered recovery", cfg.label());
    format!(
        "{{\"events_processed\":{},\"metrics\":{}}}",
        result.events,
        result.metrics().to_json_string()
    )
}

#[test]
fn loss_recovery_is_byte_identical_to_pre_change_fixtures() {
    for (name, cfg) in fixture_cells() {
        integration_tests::assert_pinned("recovery", name, &pinned_json(&cfg), &cfg.label());
    }
}
