//! # elephants-workload
//!
//! Reproduces the paper's iperf3 traffic generation (Table 2): per
//! bottleneck bandwidth, a number of processes × parallel streams per
//! sender node, all running elephant flows for the duration of the test.
//!
//! | Bottleneck BW | total flows | iperf3 configuration |
//! |---|---|---|
//! | 100 Mbps | 2 | 1 process/node × 1 stream |
//! | 500 Mbps | 10 | 5 processes/node × 1 stream |
//! | 1 Gbps | 20 | 10 processes/node × 1 stream |
//! | 10 Gbps | 200 | 10 processes/node × 10 streams |
//! | 25 Gbps | 500 | 25 processes/node × 10 streams |

use elephants_netsim::{Bandwidth, NodeId, SimDuration, SimTime, Topology};
use elephants_json::impl_json_struct;
use elephants_netsim::{RngExt, SeedableRng, SmallRng};

/// An iperf3-style flow group on one sender node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IperfConfig {
    /// Number of iperf3 processes on the node.
    pub processes: u32,
    /// Parallel streams (`-P`) per process.
    pub streams: u32,
}

impl_json_struct!(IperfConfig { processes, streams });

impl IperfConfig {
    /// Flows contributed by this node.
    pub fn flows(&self) -> u32 {
        self.processes * self.streams
    }
}

/// The paper's Table 2 mapping from bottleneck bandwidth to per-node iperf3
/// configuration. Bandwidths between the paper's grid points get the nearest
/// scaling (1 flow per ~50 Mbps of capacity, split over two nodes).
pub fn table2_config(bw: Bandwidth) -> IperfConfig {
    match bw.as_bps() {
        100_000_000 => IperfConfig { processes: 1, streams: 1 },
        500_000_000 => IperfConfig { processes: 5, streams: 1 },
        1_000_000_000 => IperfConfig { processes: 10, streams: 1 },
        10_000_000_000 => IperfConfig { processes: 10, streams: 10 },
        25_000_000_000 => IperfConfig { processes: 25, streams: 10 },
        bps => {
            // ~1 flow per 50 Mbps per node, in [1, 250].
            let flows = ((bps / 2) / 50_000_000).clamp(1, 250) as u32;
            IperfConfig { processes: flows, streams: 1 }
        }
    }
}

/// Paper Table 2 total flow count across both sender nodes.
pub fn table2_total_flows(bw: Bandwidth) -> u32 {
    2 * table2_config(bw).flows()
}

/// A planned set of flows for one experiment.
#[derive(Debug, Clone)]
pub struct FlowPlan {
    /// Flows per sender node.
    pub per_sender: u32,
    /// Start time of each flow, indexed `[sender][flow]`.
    pub starts: Vec<Vec<SimTime>>,
}

impl_json_struct!(FlowPlan { per_sender, starts });

impl FlowPlan {
    /// Total flows across all senders.
    pub fn total(&self) -> u32 {
        self.starts.iter().map(|v| v.len() as u32).sum()
    }
}

/// One flow group's route through a topology: which hosts its flows run
/// between, which CCA slot they use, and the path RTT they will see.
///
/// A "group" is one (sender host, receiver host) pair — the topology-aware
/// generalization of the paper's two dumbbell sender nodes. Group 0 carries
/// the scenario's first congestion-control algorithm (`cca1`), every other
/// group the second (`cca2`), matching the dumbbell convention where sender
/// 0 runs the algorithm under test against a CUBIC competitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSpec {
    /// Group index (position in the topology's sender-host list).
    pub group: u32,
    /// The group's sender host.
    pub sender: NodeId,
    /// The group's receiver host.
    pub receiver: NodeId,
    /// CCA assignment: `0` = scenario `cca1`, `1` = scenario `cca2`.
    pub cca_slot: u8,
    /// Two-way propagation delay along the group's routed path.
    pub rtt: SimDuration,
    /// Join delay added to every flow start in this group (ZERO for the
    /// paper's synchronized start; nonzero makes the group a late joiner).
    pub start_offset: SimDuration,
}

/// Derive the flow groups of a built topology: one per (sender, receiver)
/// host pair, with per-group path RTTs computed from the route tables.
///
/// Panics if the topology's sender/receiver host lists disagree in length
/// or a pair is unroutable — both indicate a malformed topology builder,
/// not a runtime condition.
pub fn group_specs(topo: &Topology) -> Vec<GroupSpec> {
    let senders = topo.sender_hosts();
    let receivers = topo.receiver_hosts();
    assert_eq!(senders.len(), receivers.len(), "sender/receiver host lists must pair up");
    senders
        .iter()
        .zip(receivers.iter())
        .enumerate()
        .map(|(g, (&s, &r))| GroupSpec {
            group: g as u32,
            sender: s,
            receiver: r,
            cca_slot: if g == 0 { 0 } else { 1 },
            rtt: topo
                .path_rtt(s, r)
                .unwrap_or_else(|| panic!("group {g} ({s:?} -> {r:?}) is unroutable")),
            start_offset: SimDuration::ZERO,
        })
        .collect()
}

/// Apply per-group start offsets to a group list (staggered-join
/// scenarios). `offsets` may be shorter than the group list — remaining
/// groups keep a ZERO offset; it must not be longer.
pub fn apply_start_offsets(groups: &mut [GroupSpec], offsets: &[SimDuration]) {
    assert!(
        offsets.len() <= groups.len(),
        "{} start offsets for {} groups",
        offsets.len(),
        groups.len()
    );
    for (g, &off) in groups.iter_mut().zip(offsets.iter()) {
        g.start_offset = off;
    }
}

/// Build the flow plan for a scenario.
///
/// * `bw` — bottleneck bandwidth (drives Table 2 scaling).
/// * `n_senders` — sender nodes (2 in the paper).
/// * `flow_scale` — fraction of the paper's flow count to instantiate
///   (1.0 = full Table 2; smaller for quick runs). At least one flow per
///   sender always survives.
/// * `seed` — start-jitter randomness.
///
/// iperf3 processes are launched back-to-back by the orchestration notebook,
/// so flow starts are staggered by a few milliseconds of jitter rather than
/// synchronized to the nanosecond.
pub fn plan_flows(bw: Bandwidth, n_senders: u32, flow_scale: f64, seed: u64) -> FlowPlan {
    assert!(n_senders >= 1);
    assert!(flow_scale > 0.0 && flow_scale <= 1.0, "flow_scale must be in (0,1]");
    let full = table2_config(bw).flows();
    let per_sender = ((full as f64 * flow_scale).round() as u32).max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE1E9_4A17_5EED_0001);
    let starts = (0..n_senders)
        .map(|_| {
            (0..per_sender)
                .map(|i| {
                    let stagger = SimDuration::from_millis(2) * i as u64;
                    let jitter = SimDuration::from_nanos(rng.random_range(0..3_000_000u64));
                    SimTime::ZERO + stagger + jitter
                })
                .collect()
        })
        .collect();
    FlowPlan { per_sender, starts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_rows() {
        assert_eq!(table2_total_flows(Bandwidth::from_mbps(100)), 2);
        assert_eq!(table2_total_flows(Bandwidth::from_mbps(500)), 10);
        assert_eq!(table2_total_flows(Bandwidth::from_gbps(1)), 20);
        assert_eq!(table2_total_flows(Bandwidth::from_gbps(10)), 200);
        assert_eq!(table2_total_flows(Bandwidth::from_gbps(25)), 500);
    }

    #[test]
    fn table2_process_stream_split() {
        let c = table2_config(Bandwidth::from_gbps(25));
        assert_eq!((c.processes, c.streams), (25, 10));
        let c = table2_config(Bandwidth::from_mbps(500));
        assert_eq!((c.processes, c.streams), (5, 1));
    }

    #[test]
    fn off_grid_bandwidths_interpolate() {
        let c = table2_config(Bandwidth::from_mbps(200));
        assert!(c.flows() >= 1 && c.flows() <= 4, "{c:?}");
        let c = table2_config(Bandwidth::from_gbps(100));
        assert_eq!(c.flows(), 250, "capped at 250 per node");
    }

    #[test]
    fn plan_respects_scale_and_floor() {
        let p = plan_flows(Bandwidth::from_gbps(25), 2, 1.0, 1);
        assert_eq!(p.total(), 500);
        let p = plan_flows(Bandwidth::from_gbps(25), 2, 0.1, 1);
        assert_eq!(p.total(), 50);
        let p = plan_flows(Bandwidth::from_mbps(100), 2, 0.01, 1);
        assert_eq!(p.total(), 2, "at least one flow per sender");
    }

    fn dumbbell() -> elephants_netsim::Topology {
        elephants_netsim::TopologySpec::Dumbbell
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap()
    }

    #[test]
    fn group_specs_on_dumbbell_match_paper_convention() {
        let topo = dumbbell();
        let groups = group_specs(&topo);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].cca_slot, 0, "group 0 runs cca1");
        assert_eq!(groups[1].cca_slot, 1, "competitor group runs cca2");
        for g in &groups {
            assert_eq!(g.rtt, topo.base_rtt(), "dumbbell paths are symmetric");
        }
        assert_ne!(groups[0].sender, groups[1].sender);
    }

    #[test]
    fn group_specs_see_heterogeneous_rtts() {
        let topo = elephants_netsim::TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] }
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap();
        let groups = group_specs(&topo);
        assert_eq!(groups[0].rtt, SimDuration::from_millis(31));
        assert_eq!(groups[1].rtt, SimDuration::from_millis(124));
    }

    #[test]
    fn start_offsets_apply_prefix_and_default_zero() {
        let topo = dumbbell();
        let mut groups = group_specs(&topo);
        assert!(groups.iter().all(|g| g.start_offset == SimDuration::ZERO));
        apply_start_offsets(&mut groups, &[SimDuration::from_secs(3)]);
        assert_eq!(groups[0].start_offset, SimDuration::from_secs(3));
        assert_eq!(groups[1].start_offset, SimDuration::ZERO, "unlisted groups stay at zero");
    }

    #[test]
    #[should_panic]
    fn start_offsets_reject_excess_entries() {
        let topo = dumbbell();
        let mut groups = group_specs(&topo);
        apply_start_offsets(&mut groups, &[SimDuration::ZERO; 3]);
    }

    #[test]
    fn starts_are_staggered_and_deterministic() {
        let a = plan_flows(Bandwidth::from_gbps(1), 2, 1.0, 42);
        let b = plan_flows(Bandwidth::from_gbps(1), 2, 1.0, 42);
        assert_eq!(a.starts, b.starts);
        let c = plan_flows(Bandwidth::from_gbps(1), 2, 1.0, 43);
        assert_ne!(a.starts, c.starts, "different seed, different jitter");
        // Stagger grows with the flow index.
        let s = &a.starts[0];
        assert!(s[9] > s[0]);
        assert!(s[9].since(s[0]) < SimDuration::from_millis(100));
    }
}
