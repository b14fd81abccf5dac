//! Topology-subsystem equivalence tests.
//!
//! `shapes.json` pins every named shape's layout (node kinds, links,
//! bottlenecks, hosts, the full route table, base and per-group RTTs) over
//! a grid of sizes, bandwidths and RTTs; it was generated before the three
//! shape builders became one chain. The runs on the dumbbell (`quick/`) and
//! on each multi-bottleneck shape (`topology/`) are rows of the table of
//! pinned runs (`integration_tests::pinned`), pinned before the topology
//! subsystem and the shape chain existed.
//!
//! Regenerate the pinned fixtures (only when intentionally re-baselining,
//! from a build whose behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test topology_equiv
//! ```

use elephants::netsim::rng::fnv1a;
use elephants::netsim::{Bandwidth, NodeId, SimDuration, Topology, TopologySpec};
use integration_tests::pinned;
use std::fmt::Write;

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
    // The dumbbell's rows are named by its host-pair count.
    let mut shapes = vec![("dumbbell-pairs:2".to_string(), TopologySpec::Dumbbell)];
    for hops in 2..=8 {
        let spec = TopologySpec::ParkingLot { hops };
        shapes.push((spec.to_string(), spec));
    }
    let lists = [
        vec![31, 124],
        vec![8, 2000],
        vec![62, 62, 63],
        (0..8).map(|i| 10 << i).collect::<Vec<u64>>(),
    ];
    for rtts_ms in lists {
        let spec = TopologySpec::MultiDumbbell { rtts_ms };
        shapes.push((spec.to_string(), spec));
    }
    let mut rows = Vec::new();
    for (name, spec) in &shapes {
        for bps in [100_000_000, 1_234_567, 25_000_000_000] {
            for rtt_ms in [7, 31, 62, 63, 999] {
                let (bw, rtt) = (Bandwidth::from_bps(bps), SimDuration::from_millis(rtt_ms));
                let topo = spec.build(bw, rtt).unwrap_or_else(|e| panic!("{name}: {e}"));
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

/// The default (dumbbell) topology path, one cell per AQM cycling through
/// the five CCAs, runs strict-clean and reproduces the pre-redesign
/// build's pinned lines byte for byte.
#[test]
fn dumbbell_topology_is_byte_identical_to_pre_change_fixtures() {
    pinned::check("quick/");
}

/// CUBIC on the two-RTT multi-dumbbell runs strict-clean on one busy
/// shared bottleneck with both groups delivering, and reproduces its line
/// pinned before the shape builders became one chain (the parking lot's
/// line is the next test's).
#[test]
fn multi_bottleneck_metrics_are_byte_identical_to_pre_change_fixtures() {
    pinned::check("topology/multi_dumbbell");
}

/// A 3-hop parking lot runs strict-clean, reports one `LinkResult` per
/// shaped hop, every hop carries traffic (the cross-group long flow
/// guarantees this), and it reproduces its pinned line.
#[test]
fn parking_lot_runs_strict_clean_with_per_link_reports() {
    pinned::check("topology/parking_lot");
}

// Heterogeneous-RTT multi-dumbbell: the short-RTT group outruns the
// long-RTT group under loss-based congestion control on one shared
// bottleneck (the classic RTT-unfairness asymmetry), judged by its row of
// the claims table.
integration_tests::claim_tests!("topology_equiv":
    multi_dumbbell_short_rtt_group_wins_under_cubic,
);
