//! Topology-subsystem equivalence tests.
//!
//! PR 9 lifts the hard-coded dumbbell into a `TopologySpec` on
//! `ScenarioConfig`. One property pins the redesign's safety envelope:
//!
//! **Dumbbell identity** — the default (dumbbell) topology path must
//! produce `RunMetrics` JSON byte-identical to fixtures pinned from the
//! build *before* the topology subsystem existed, across 5 CCA×AQM
//! cells. Any diff means the redesign changed simulation behaviour.
//!
//! Regenerate the pinned fixtures (only when intentionally re-baselining,
//! from a build whose behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test topology_equiv
//! ```

use elephants::cca::CcaKind;
use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
use elephants::json::ToJson;
use elephants::netsim::{CheckMode, TopologySpec};
use elephants::AqmKind;

const FIXTURE_SEED: u64 = 42;

/// The pinned cells: one per AQM, cycling through the five CCAs (all vs
/// CUBIC) so every discipline and every sender implementation appears.
/// 100 Mbps quick keeps each cell a debug-mode-friendly few seconds.
fn fixture_cells() -> Vec<(String, ScenarioConfig)> {
    let pairs = [
        (CcaKind::BbrV1, AqmKind::Fifo),
        (CcaKind::BbrV2, AqmKind::Red),
        (CcaKind::Cubic, AqmKind::FqCodel),
        (CcaKind::Reno, AqmKind::Codel),
        (CcaKind::Htcp, AqmKind::Pie),
    ];
    pairs
        .iter()
        .map(|&(cca, aqm)| {
            let mut opts = RunOptions::quick();
            opts.seed = FIXTURE_SEED;
            let cfg =
                ScenarioConfig::new(cca, CcaKind::Cubic, aqm, 2.0, 100_000_000, &opts);
            (format!("{cca}_{aqm}.json"), cfg)
        })
        .collect()
}

fn metrics_json(cfg: &ScenarioConfig) -> String {
    Runner::new(cfg)
        .seed(FIXTURE_SEED)
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.label()))
        .into_first()
        .metrics()
        .to_json_string()
}

/// The default (dumbbell) topology path must reproduce the pre-redesign
/// build's pinned `RunMetrics` byte-for-byte. This is the contract that
/// lets the topology generalization land without perturbing the paper
/// grid.
#[test]
fn dumbbell_topology_is_byte_identical_to_pre_change_fixtures() {
    for (name, cfg) in fixture_cells() {
        integration_tests::assert_pinned("topology", &name, &metrics_json(&cfg), &cfg.label());
    }
}

/// A strict-checked 3-hop parking-lot run completes with zero invariant
/// violations, reports one `LinkResult` per shaped hop, and every hop
/// carries traffic (the cross-group long flow guarantees this).
#[test]
fn parking_lot_runs_strict_clean_with_per_link_reports() {
    let mut opts = RunOptions::quick();
    opts.seed = FIXTURE_SEED;
    opts.flow_scale = 0.5;
    let mut cfg = ScenarioConfig::new(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        50_000_000,
        &opts,
    );
    cfg.topology = TopologySpec::ParkingLot { hops: 3 };
    let outcome = Runner::new(&cfg)
        .seed(FIXTURE_SEED)
        .check(CheckMode::Strict)
        .run()
        .expect("strict parking-lot run");
    let violations: u64 =
        outcome.check_reports.iter().map(|r| r.violations_total).sum();
    assert_eq!(violations, 0, "strict checker must stay clean on multi-hop");
    let r = outcome.into_first();
    assert_eq!(r.sender_mbps.len(), 4, "K+1 flow groups on a K-hop parking lot");
    assert_eq!(r.links.len(), 3, "one LinkResult per shaped hop");
    for l in &r.links {
        assert!(l.utilization > 0.0, "hop {} idle: {l:?}", l.link);
    }
}

/// Heterogeneous-RTT multi-dumbbell: the short-RTT group outruns the
/// long-RTT group under loss-based congestion control on one shared
/// bottleneck (the classic RTT-unfairness asymmetry).
#[test]
fn multi_dumbbell_short_rtt_group_wins_under_cubic() {
    let mut opts = RunOptions::quick();
    opts.seed = FIXTURE_SEED;
    let mut cfg = ScenarioConfig::new(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        50_000_000,
        &opts,
    );
    cfg.topology = TopologySpec::MultiDumbbell { rtts_ms: vec![10, 124] };
    let r = Runner::new(&cfg)
        .seed(FIXTURE_SEED)
        .run()
        .expect("multi-dumbbell run")
        .into_first();
    assert_eq!(r.sender_mbps.len(), 2);
    assert_eq!(r.links.len(), 1, "multi-dumbbell shares one bottleneck");
    assert!(
        r.sender_mbps[0] > r.sender_mbps[1],
        "10 ms group must beat the 124 ms group: {:?}",
        r.sender_mbps
    );
}
