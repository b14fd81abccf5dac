//! # elephants-metrics
//!
//! The measurement pipeline of the study: Jain's fairness index (paper
//! Eq. 2), overall link utilization φ (Eq. 3), relative retransmissions RR
//! (Eq. 4), and small summary-statistics helpers used when averaging the
//! paper's five repetitions.

pub mod stats;

pub use stats::{mean, mean_std, Summary};

use elephants_json::impl_json_struct;

/// Jain's fairness index over per-entity throughputs (paper Eq. 2).
///
/// Returns a value in `(0, 1]`; `1.0` means perfectly equal shares. By
/// convention an empty or all-zero input yields `1.0` (nothing to be unfair
/// about).
///
/// ```
/// use elephants_metrics::jain_index;
/// assert_eq!(jain_index(&[10.0, 10.0]), 1.0);
/// assert!((jain_index(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_index(throughputs: &[f64]) -> f64 {
    let n = throughputs.len();
    if n == 0 {
        return 1.0;
    }
    // A NaN would flow through both sums and poison the index (and then
    // every average built on it) silently; fail loudly at the source.
    assert!(
        !throughputs.iter().any(|x| x.is_nan()),
        "NaN throughput in jain_index: {throughputs:?}"
    );
    debug_assert!(throughputs.iter().all(|&x| x >= 0.0), "throughputs must be non-negative");
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|&x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Overall link utilization φ (paper Eq. 3): total goodput over capacity.
///
/// Clamps tiny numerical overshoot to 1.0 but deliberately does *not* hide
/// genuine overshoot above 1.05 (which would indicate an accounting bug).
pub fn link_utilization(total_throughput_bps: f64, capacity_bps: f64) -> f64 {
    assert!(capacity_bps > 0.0, "capacity must be positive");
    let phi = total_throughput_bps / capacity_bps;
    debug_assert!(phi < 1.05, "utilization {phi} > 1.05 suggests an accounting bug");
    phi.min(1.0)
}

/// Burst-tolerant utilization for *windowed* measurements.
///
/// Over a short window, delivery is quantized to whole segments and a
/// queue built up in earlier windows can drain into this one, so the
/// per-window ratio legitimately exceeds 1.0 — at a 10 ms window on a
/// 25 Gbps link a single extra 8900-byte segment is already ~0.03 φ, and
/// a draining queue can push a window well past the 1.05 accounting
/// bound [`link_utilization`] enforces for whole-run measurements. This
/// variant therefore returns the raw ratio unclamped; averaging the
/// series over many windows converges back to the whole-run φ. Use
/// [`link_utilization`] for run-level accounting, this for time series.
pub fn link_utilization_windowed(window_throughput_bps: f64, capacity_bps: f64) -> f64 {
    assert!(capacity_bps > 0.0, "capacity must be positive");
    debug_assert!(
        window_throughput_bps >= 0.0 && window_throughput_bps.is_finite(),
        "windowed throughput must be finite and non-negative, got {window_throughput_bps}"
    );
    window_throughput_bps / capacity_bps
}

/// Sentinel returned by [`relative_retransmissions`] when the ratio is
/// undefined: the CUBIC reference saw zero retransmissions while the
/// scenario did not. A genuine RR is always positive, so `-1.0` cannot be
/// confused with a real value — and unlike the `f64::INFINITY` this used to
/// return, it survives a JSON round trip (JSON has no representation for
/// infinities, so `inf` would silently corrupt cached figure data).
pub const RR_UNDEFINED: f64 = -1.0;

/// Whether an RR value is a real ratio rather than the [`RR_UNDEFINED`]
/// sentinel. Use this to filter before averaging RRs.
pub fn rr_is_defined(rr: f64) -> bool {
    rr >= 0.0
}

/// Relative retransmissions RR (paper Eq. 4): retransmissions of a scenario
/// normalized by the CUBIC-vs-CUBIC reference for the same conditions.
///
/// A zero reference with a nonzero numerator is undefined and returns the
/// documented [`RR_UNDEFINED`] sentinel (test with [`rr_is_defined`]); zero
/// over zero is defined as 1.0 (both perfectly clean).
pub fn relative_retransmissions(retx: u64, retx_cubic_ref: u64) -> f64 {
    match (retx, retx_cubic_ref) {
        (0, 0) => 1.0,
        (_, 0) => RR_UNDEFINED,
        (r, c) => r as f64 / c as f64,
    }
}

/// Per-sender aggregate used for the fairness computations: the paper's
/// per-sender Jain index treats each *sender node* (all its iperf flows
/// combined) as one entity (`n = 2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderThroughput {
    /// Sender index (0 or 1 in the paper's dumbbell).
    pub sender: u32,
    /// Aggregate goodput in bits/s over the measurement window.
    pub goodput_bps: f64,
}

impl_json_struct!(SenderThroughput { sender, goodput_bps });

/// Group per-flow goodputs into per-sender totals.
pub fn per_sender_goodput(flow_goodputs: &[(u32, f64)]) -> Vec<SenderThroughput> {
    let mut map: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for &(sender, bps) in flow_goodputs {
        *map.entry(sender).or_insert(0.0) += bps;
    }
    map.into_iter().map(|(sender, goodput_bps)| SenderThroughput { sender, goodput_bps }).collect()
}

/// Per-flow-group fairness summary for topology-aware runs.
///
/// On the paper's dumbbell a "group" and a "sender" coincide, so
/// [`RunMetrics`] (whose JSON shape is pinned by the equivalence fixtures)
/// already tells the whole story. Parking-lot and multi-dumbbell topologies
/// have more than two groups with asymmetric paths; this type carries the
/// per-group view — shares, Jain index, RR split — *alongside* the frozen
/// `RunMetrics`, never inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupShare {
    /// Flow-group index (position in the topology's sender list).
    pub group: u32,
    /// Aggregate goodput in bits/s over the measurement window.
    pub goodput_bps: f64,
    /// This group's fraction of the total goodput (`0.0` if total is zero).
    pub share: f64,
    /// Retransmitted segments attributed to this group's flows.
    pub retransmits: u64,
}

impl_json_struct!(GroupShare { group, goodput_bps, share, retransmits });

/// Per-group fairness report: the multi-group analogue of the scalar
/// `jain`/`retransmits` fields of [`RunMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFairness {
    /// One entry per flow group, ordered by group index.
    pub groups: Vec<GroupShare>,
    /// Jain index over the per-group goodputs.
    pub jain: f64,
    /// Each group's retransmissions relative to the group-mean (all `1.0`
    /// when no group retransmitted at all — a clean run is "fair").
    pub rr_split: Vec<f64>,
}

impl_json_struct!(GroupFairness { groups, jain, rr_split });

impl GroupFairness {
    /// Assemble the per-group report from `(group, goodput_bps, retransmits)`
    /// rows (one per group, any order; rows with the same group are summed).
    pub fn compute(rows: &[(u32, f64, u64)]) -> Self {
        let mut map: std::collections::BTreeMap<u32, (f64, u64)> =
            std::collections::BTreeMap::new();
        for &(group, bps, retx) in rows {
            let e = map.entry(group).or_insert((0.0, 0));
            e.0 += bps;
            e.1 += retx;
        }
        let total: f64 = map.values().map(|&(bps, _)| bps).sum();
        let groups: Vec<GroupShare> = map
            .into_iter()
            .map(|(group, (goodput_bps, retransmits))| GroupShare {
                group,
                goodput_bps,
                share: if total > 0.0 { goodput_bps / total } else { 0.0 },
                retransmits,
            })
            .collect();
        let jain = jain_index(&groups.iter().map(|g| g.goodput_bps).collect::<Vec<_>>());
        let n = groups.len();
        let mean_retx: f64 = if n == 0 {
            0.0
        } else {
            groups.iter().map(|g| g.retransmits as f64).sum::<f64>() / n as f64
        };
        // The mean is over these same groups, so mean == 0 implies every
        // group is clean: define that as uniformly fair (1.0 each).
        let rr_split = groups
            .iter()
            .map(|g| if mean_retx == 0.0 { 1.0 } else { g.retransmits as f64 / mean_retx })
            .collect();
        GroupFairness { groups, jain, rr_split }
    }

    /// The goodput share of one group (`0.0` for an unknown group).
    pub fn share_of(&self, group: u32) -> f64 {
        self.groups.iter().find(|g| g.group == group).map_or(0.0, |g| g.share)
    }
}

/// Everything the study reports for one (config, seed) run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Per-sender goodput (bits/s).
    pub senders: Vec<SenderThroughput>,
    /// Jain index over the per-sender goodputs.
    pub jain: f64,
    /// Link utilization φ.
    pub utilization: f64,
    /// Total retransmitted segments in the measurement window.
    pub retransmits: u64,
    /// Total RTO events.
    pub rtos: u64,
    /// Bottleneck drops (enqueue + dequeue).
    pub drops: u64,
}

impl_json_struct!(RunMetrics { senders, jain, utilization, retransmits, rtos, drops });

impl RunMetrics {
    /// Assemble run metrics from raw ingredients.
    pub fn compute(
        flow_goodputs: &[(u32, f64)],
        capacity_bps: f64,
        retransmits: u64,
        rtos: u64,
        drops: u64,
    ) -> Self {
        let senders = per_sender_goodput(flow_goodputs);
        let tputs: Vec<f64> = senders.iter().map(|s| s.goodput_bps).collect();
        let jain = jain_index(&tputs);
        let total: f64 = tputs.iter().sum();
        let utilization = link_utilization(total, capacity_bps);
        RunMetrics { senders, jain, utilization, retransmits, rtos, drops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "NaN throughput")]
    fn jain_rejects_nan() {
        jain_index(&[10.0, f64::NAN]);
    }

    #[test]
    fn jain_equal_shares_is_one() {
        assert_eq!(jain_index(&[5.0; 8]), 1.0);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        for n in 2..10 {
            let mut v = vec![0.0; n];
            v[0] = 42.0;
            assert!((jain_index(&v) - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn jain_matches_paper_formula_for_two_senders() {
        // J = (s1+s2)^2 / (2 (s1^2 + s2^2))
        let (s1, s2) = (75.0f64, 25.0f64);
        let expect = (s1 + s2).powi(2) / (2.0 * (s1 * s1 + s2 * s2));
        assert!((jain_index(&[s1, s2]) - expect).abs() < 1e-12);
        assert!((expect - 0.8).abs() < 1e-12);
    }

    #[test]
    fn jain_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]);
        let b = jain_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn utilization_basics() {
        assert_eq!(link_utilization(50e6, 100e6), 0.5);
        assert_eq!(link_utilization(100e6, 100e6), 1.0);
        // Tiny overshoot from measurement-window rounding clamps to 1.
        assert_eq!(link_utilization(100.4e6, 100e6), 1.0);
    }

    #[test]
    #[should_panic]
    fn utilization_rejects_zero_capacity() {
        link_utilization(1.0, 0.0);
    }

    #[test]
    fn windowed_utilization_tolerates_bursts() {
        // A queue-drain window at 1.2x capacity would trip the run-level
        // accounting assert; the windowed variant reports it faithfully.
        assert!((link_utilization_windowed(120e6, 100e6) - 1.2).abs() < 1e-12);
        assert_eq!(link_utilization_windowed(50e6, 100e6), 0.5);
        assert_eq!(link_utilization_windowed(0.0, 100e6), 0.0);
    }

    #[test]
    #[should_panic]
    fn windowed_utilization_rejects_zero_capacity() {
        link_utilization_windowed(1.0, 0.0);
    }

    #[test]
    fn rr_normalization() {
        assert_eq!(relative_retransmissions(100, 50), 2.0);
        assert_eq!(relative_retransmissions(0, 0), 1.0);
        assert_eq!(relative_retransmissions(50, 50), 1.0);
    }

    #[test]
    fn rr_zero_reference_is_sentinel_not_inf() {
        let rr = relative_retransmissions(5, 0);
        assert_eq!(rr, RR_UNDEFINED);
        assert!(rr.is_finite(), "sentinel must be JSON-representable");
        assert!(!rr_is_defined(rr));
        // Every defined outcome passes the filter, including 0/5 = 0.
        assert!(rr_is_defined(relative_retransmissions(0, 0)));
        assert!(rr_is_defined(relative_retransmissions(0, 5)));
        assert!(rr_is_defined(relative_retransmissions(7, 5)));
    }

    #[test]
    fn per_sender_grouping() {
        let flows = [(0u32, 10.0), (1, 5.0), (0, 20.0), (1, 5.0)];
        let agg = per_sender_goodput(&flows);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].goodput_bps, 30.0);
        assert_eq!(agg[1].goodput_bps, 10.0);
    }

    #[test]
    fn group_fairness_shares_jain_and_rr_split() {
        // Three parking-lot groups: the long-path group got squeezed.
        let rows = [(0u32, 60e6, 30u64), (1, 30e6, 10), (2, 10e6, 20), (0, 0.0, 0)];
        let gf = GroupFairness::compute(&rows);
        assert_eq!(gf.groups.len(), 3);
        assert!((gf.share_of(0) - 0.6).abs() < 1e-12);
        assert!((gf.share_of(2) - 0.1).abs() < 1e-12);
        assert_eq!(gf.share_of(9), 0.0, "unknown group has no share");
        let expect_jain = jain_index(&[60e6, 30e6, 10e6]);
        assert!((gf.jain - expect_jain).abs() < 1e-12);
        // mean retx = 20 -> splits 1.5, 0.5, 1.0
        assert!((gf.rr_split[0] - 1.5).abs() < 1e-12);
        assert!((gf.rr_split[1] - 0.5).abs() < 1e-12);
        assert!((gf.rr_split[2] - 1.0).abs() < 1e-12);
        // JSON round trip through the strict parser.
        use elephants_json::{FromJson, ToJson};
        let back = GroupFairness::from_json_str(&gf.to_json_string()).unwrap();
        assert_eq!(back, gf);
    }

    #[test]
    fn group_fairness_degenerate_inputs() {
        let clean = GroupFairness::compute(&[(0, 50e6, 0), (1, 50e6, 0)]);
        assert_eq!(clean.jain, 1.0);
        assert_eq!(clean.rr_split, vec![1.0, 1.0], "clean run is uniformly fair");
        let empty = GroupFairness::compute(&[]);
        assert!(empty.groups.is_empty());
        assert_eq!(empty.jain, 1.0);
        let stalled = GroupFairness::compute(&[(0, 0.0, 5)]);
        assert_eq!(stalled.share_of(0), 0.0, "zero total goodput yields zero shares");
    }

    #[test]
    fn run_metrics_assembly() {
        let flows = [(0u32, 40e6), (1, 40e6)];
        let m = RunMetrics::compute(&flows, 100e6, 10, 0, 12);
        assert_eq!(m.jain, 1.0);
        assert!((m.utilization - 0.8).abs() < 1e-12);
        assert_eq!(m.retransmits, 10);
        assert_eq!(m.drops, 12);
    }
}
