//! Topology-subsystem equivalence tests.
//!
//! PR 9 lifts the hard-coded dumbbell into a `TopologySpec` on
//! `ScenarioConfig`. Three pinned properties form the safety envelope:
//!
//! **Dumbbell identity** — the default (dumbbell) topology path must
//! produce `RunMetrics` JSON byte-identical to fixtures pinned from the
//! build *before* the topology subsystem existed, across 5 CCA×AQM
//! cells. Any diff means the redesign changed simulation behaviour.
//!
//! **Shape identity** — `shapes.json` pins every named shape's layout
//! (node kinds, links, bottlenecks, hosts, the full route table, base and
//! per-group RTTs) over a grid of sizes, bandwidths and RTTs, and
//! `parking_lot_3.json` / `multi_dumbbell_31_124.json` pin one run's
//! `RunMetrics` on each multi-bottleneck shape. Both were generated before
//! the three shape builders became one chain.
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
use elephants::netsim::rng::fnv1a;
use elephants::netsim::{
    Bandwidth, CheckMode, DumbbellSpec, NodeId, SimDuration, Topology, TopologySpec,
};
use elephants::AqmKind;
use std::fmt::Write;

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

/// Everything a built topology exposes, as text: node kinds, every link,
/// bottlenecks, hosts, the full `route(node, dst)` table, the base RTT and
/// each group's round trip.
fn layout_text(topo: &Topology) -> String {
    let n = topo.n_nodes() as u32;
    let mut s = String::new();
    for node in 0..n {
        write!(s, "{:?} ", topo.kind(NodeId(node))).unwrap();
    }
    s.push('\n');
    for l in topo.links() {
        writeln!(s, "{} {} {} {}", l.src.0, l.dst.0, l.rate.as_bps(), l.prop.as_nanos()).unwrap();
    }
    writeln!(s, "bn {:?}", topo.bottleneck_links()).unwrap();
    writeln!(s, "tx {:?} rx {:?}", topo.sender_hosts(), topo.receiver_hosts()).unwrap();
    for node in 0..n {
        for dst in 0..n {
            write!(s, "{:?} ", topo.route(NodeId(node), NodeId(dst)).map(|l| l.0)).unwrap();
        }
        s.push('\n');
    }
    writeln!(s, "base {}", topo.base_rtt().as_nanos()).unwrap();
    for (&a, &b) in topo.sender_hosts().iter().zip(topo.receiver_hosts()) {
        writeln!(s, "rtt {:?}", topo.path_rtt(a, b).map(|d| d.as_nanos())).unwrap();
    }
    s
}

/// Every named shape over a grid of sizes, bandwidths and RTTs must lay
/// out exactly as the builders did when the fixture was pinned: same
/// nodes, link ids, rates, delays, route tie-breaks and RTTs.
#[test]
fn shapes_are_byte_identical_to_pre_change_fixture() {
    let mut shapes: Vec<(String, Option<usize>, TopologySpec)> = [1, 2, 4]
        .into_iter()
        .map(|n| (format!("dumbbell-pairs:{n}"), Some(n), TopologySpec::Dumbbell))
        .collect();
    for hops in 2..=8 {
        shapes.push((format!("parking-lot:{hops}"), None, TopologySpec::ParkingLot { hops }));
    }
    let lists = [
        vec![31, 124],
        vec![8, 2000],
        vec![62, 62, 63],
        (0..8).map(|i| 10 << i).collect::<Vec<u64>>(),
    ];
    for rtts_ms in lists {
        let spec = TopologySpec::MultiDumbbell { rtts_ms };
        shapes.push((spec.to_string(), None, spec));
    }
    let mut rows = Vec::new();
    for (name, pairs, spec) in &shapes {
        for bps in [100_000_000, 1_234_567, 25_000_000_000] {
            for rtt_ms in [7, 31, 62, 63, 999] {
                let (bw, rtt) = (Bandwidth::from_bps(bps), SimDuration::from_millis(rtt_ms));
                let topo = match pairs {
                    Some(n_pairs) => {
                        DumbbellSpec { n_pairs: *n_pairs, ..DumbbellSpec::paper_with_rtt(bw, rtt) }
                            .build()
                    }
                    None => spec.build(bw, rtt).unwrap_or_else(|e| panic!("{name}: {e}")),
                };
                rows.push(format!(
                    "{{\"shape\":\"{name}\",\"bw_bps\":{bps},\"rtt_ms\":{rtt_ms},\
                     \"nodes\":{},\"links\":{},\"layout_fnv1a\":\"{:016x}\"}}",
                    topo.n_nodes(),
                    topo.links().len(),
                    fnv1a(layout_text(&topo).as_bytes()),
                ));
            }
        }
    }
    let got = format!("[\n{}\n]\n", rows.join(",\n"));
    integration_tests::assert_pinned("topology", "shapes.json", &got, "topology shapes");
}

/// One CUBIC-vs-CUBIC run on each multi-bottleneck shape must reproduce
/// its `RunMetrics` pinned before the shape builders became one chain.
#[test]
fn multi_bottleneck_metrics_are_byte_identical_to_pre_change_fixtures() {
    let cells = [
        ("parking_lot_3.json", TopologySpec::ParkingLot { hops: 3 }),
        ("multi_dumbbell_31_124.json", TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] }),
    ];
    for (name, topology) in cells {
        let mut opts = RunOptions::quick();
        opts.seed = FIXTURE_SEED;
        let mut cfg = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            2.0,
            100_000_000,
            &opts,
        );
        cfg.topology = topology;
        integration_tests::assert_pinned("topology", name, &metrics_json(&cfg), &cfg.label());
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
