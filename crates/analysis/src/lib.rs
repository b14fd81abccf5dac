//! # elephants-analysis
//!
//! Fairness *dynamics*: turns a recorded run ([`FlightRecord`], schema v3)
//! into the time-resolved metrics the paper's questions are actually about
//! — not just "was the final share fair" but *how the share evolved*:
//!
//! * [`windowed_goodput`] — per-flow goodput series differenced from the
//!   cumulative `delivered_bytes` counter each flow sample carries;
//! * [`fairness_dynamics`] — per-group share series, windowed Jain index
//!   `J(t)` and burst-tolerant windowed link utilization;
//! * [`convergence_time`] — first time every group's windowed share stays
//!   within ε of its fair share for a sustained hold duration;
//! * [`late_joiner_response`] — how long a group joining at offset `T`
//!   takes to claim ≥ (1−ε) of its fair share, and how much the
//!   incumbents concede;
//! * [`bootstrap_ci`] — seeded bootstrap confidence intervals across
//!   repeats (deterministic: reuses `netsim::rng`, never the wall clock).
//!
//! Everything here is a pure function of the record plus explicit
//! parameters — same record, same windows, same numbers, every time.
//! [`FlightRecord::parse`] refuses every schema version but v3, so a
//! record read back from a file always carries the `delivered_bytes`
//! counters this crate differences.

use elephants_metrics::{jain_index, link_utilization_windowed};
use elephants_netsim::{RngExt, SeedableRng, SmallRng};
use elephants_telemetry::FlightRecord;

/// Windowed per-flow goodput, differenced from cumulative delivered bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputSeries {
    /// Window length, seconds.
    pub window_s: f64,
    /// Window *end* times, seconds since run start. Only complete windows
    /// are emitted; a partial tail window is dropped.
    pub t: Vec<f64>,
    /// Flow ids present in the record, ascending.
    pub flows: Vec<u32>,
    /// Goodput in bits/s, indexed `[flow index][window]`.
    pub bps: Vec<Vec<f64>>,
}

impl GoodputSeries {
    /// Number of complete windows.
    pub fn n_windows(&self) -> usize {
        self.t.len()
    }

    /// Total goodput (all flows summed) per window, bits/s.
    pub fn total_bps(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.t.len()];
        for series in &self.bps {
            for (k, v) in series.iter().enumerate() {
                total[k] += v;
            }
        }
        total
    }
}

/// Cumulative delivered bytes of one flow at time `b`: the last sample at
/// or before `b` (0 before the first sample — the counter starts at 0).
fn cumulative_at(samples: &[(f64, f64)], b: f64) -> f64 {
    match samples.partition_point(|&(t, _)| t <= b) {
        0 => 0.0,
        i => samples[i - 1].1,
    }
}

/// Difference the cumulative `delivered_bytes` series of every flow in a
/// record into per-window goodput. Windows are `(k·w, (k+1)·w]`; the
/// cumulative counter is evaluated at each boundary by step interpolation
/// (last sample at or before the boundary), so sums over windows exactly
/// reconcile with the counter at the last complete boundary.
pub fn windowed_goodput(record: &FlightRecord, window_s: f64) -> GoodputSeries {
    assert!(window_s > 0.0, "window must be positive");
    let tracks = record.by_flow();
    let t_max =
        record.flow_samples.iter().map(|p| p.t_s).fold(0.0f64, f64::max);
    let n_windows = (t_max / window_s).floor() as usize;
    let t = (1..=n_windows).map(|k| k as f64 * window_s).collect();
    let bps = tracks
        .iter()
        .map(|track| {
            let samples = track.delivered_series();
            (0..n_windows)
                .map(|k| {
                    let lo = cumulative_at(&samples, k as f64 * window_s);
                    let hi = cumulative_at(&samples, (k + 1) as f64 * window_s);
                    (hi - lo).max(0.0) * 8.0 / window_s
                })
                .collect()
        })
        .collect();
    let flows = tracks.iter().map(|track| track.flow).collect();
    GoodputSeries { window_s, t, flows, bps }
}

/// Time-resolved fairness of one run: per-group shares, `J(t)` and
/// windowed utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessDynamics {
    /// Window length, seconds.
    pub window_s: f64,
    /// Each group's fair share of the bottleneck (`1 / n_groups`).
    pub fair_share: f64,
    /// Window end times, seconds.
    pub t: Vec<f64>,
    /// Per-group goodput in bits/s, indexed `[group][window]`.
    pub group_bps: Vec<Vec<f64>>,
    /// All-groups goodput per window, bits/s.
    pub total_bps: Vec<f64>,
    /// Windowed Jain index across groups, one value per window.
    pub jain: Vec<f64>,
    /// Windowed link utilization (burst-tolerant: may exceed 1.0 when a
    /// queue built in earlier windows drains into this one).
    pub utilization: Vec<f64>,
}

impl FairnessDynamics {
    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.group_bps.len()
    }

    /// One group's share of the total goodput in window `k` (0 in an idle
    /// window: no goodput means no one holds a share).
    pub fn share(&self, group: usize, k: usize) -> f64 {
        if self.total_bps[k] > 0.0 {
            self.group_bps[group][k] / self.total_bps[k]
        } else {
            0.0
        }
    }

    /// One group's share series, `(t, share)` per window.
    pub fn share_series(&self, group: usize) -> Vec<(f64, f64)> {
        (0..self.t.len()).map(|k| (self.t[k], self.share(group, k))).collect()
    }

    /// The `(t, J(t))` series.
    pub fn jain_series(&self) -> Vec<(f64, f64)> {
        self.t.iter().copied().zip(self.jain.iter().copied()).collect()
    }

    /// Mean of a group's share over the window span `[from_s, to_s)`
    /// (window-end times). `None` when no window falls inside.
    pub fn mean_share(&self, group: usize, from_s: f64, to_s: f64) -> Option<f64> {
        let picked: Vec<f64> = (0..self.t.len())
            .filter(|&k| self.t[k] >= from_s && self.t[k] < to_s)
            .map(|k| self.share(group, k))
            .collect();
        if picked.is_empty() {
            None
        } else {
            Some(picked.iter().sum::<f64>() / picked.len() as f64)
        }
    }
}

/// Windowed per-group dynamics of a record.
///
/// `flow_groups[flow_id]` assigns each flow to its group (the experiments
/// runner derives this from the flow plan: flows are added group by
/// group). Flows not covered by the mapping are ignored; the number of
/// groups is `max(flow_groups) + 1`. `capacity_bps` is the bottleneck
/// capacity for the utilization series.
pub fn fairness_dynamics(
    record: &FlightRecord,
    flow_groups: &[u32],
    window_s: f64,
    capacity_bps: f64,
) -> FairnessDynamics {
    assert!(capacity_bps > 0.0, "capacity must be positive");
    let goodput = windowed_goodput(record, window_s);
    let n_groups = flow_groups.iter().copied().max().map_or(0, |m| m as usize + 1);
    let n_windows = goodput.n_windows();
    let mut group_bps = vec![vec![0.0; n_windows]; n_groups];
    for (fi, &f) in goodput.flows.iter().enumerate() {
        let Some(&g) = flow_groups.get(f as usize) else { continue };
        for (acc, bps) in group_bps[g as usize].iter_mut().zip(&goodput.bps[fi]) {
            *acc += bps;
        }
    }
    let total_bps: Vec<f64> =
        (0..n_windows).map(|k| group_bps.iter().map(|s| s[k]).sum()).collect();
    let jain = (0..n_windows)
        .map(|k| {
            let at_k: Vec<f64> = group_bps.iter().map(|s| s[k]).collect();
            jain_index(&at_k)
        })
        .collect();
    let utilization =
        total_bps.iter().map(|&b| link_utilization_windowed(b, capacity_bps)).collect();
    FairnessDynamics {
        window_s,
        fair_share: if n_groups > 0 { 1.0 / n_groups as f64 } else { 0.0 },
        t: goodput.t,
        group_bps,
        total_bps,
        jain,
        utilization,
    }
}

/// Parameters of the convergence-time estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSpec {
    /// Fairness tolerance: a window is "fair" when every group's share is
    /// within `epsilon` of the fair share.
    pub epsilon: f64,
    /// How long the fair state must hold before the run counts as
    /// converged, seconds.
    pub hold_s: f64,
}

impl Default for ConvergenceSpec {
    fn default() -> Self {
        ConvergenceSpec { epsilon: 0.1, hold_s: 2.0 }
    }
}

/// Whether window `k` is fair: every group's share within ε of fair share.
fn window_is_fair(d: &FairnessDynamics, k: usize, epsilon: f64) -> bool {
    (0..d.n_groups()).all(|g| (d.share(g, k) - d.fair_share).abs() <= epsilon)
}

/// First time `t` (seconds, window-start) from which every group's
/// windowed share stays within ε of the fair share for at least `hold_s`.
/// `None` if the run never converges (including runs too short to sustain
/// the hold). Monotone non-increasing in ε: loosening the tolerance can
/// only move convergence earlier.
pub fn convergence_time(d: &FairnessDynamics, spec: &ConvergenceSpec) -> Option<f64> {
    assert!(spec.epsilon >= 0.0, "epsilon must be non-negative");
    assert!(spec.hold_s >= 0.0, "hold must be non-negative");
    let hold_windows = ((spec.hold_s / d.window_s).ceil() as usize).max(1);
    let n = d.t.len();
    if n < hold_windows {
        return None;
    }
    (0..=n - hold_windows)
        .find(|&k| (k..k + hold_windows).all(|j| window_is_fair(d, j, spec.epsilon)))
        .map(|k| d.t[k] - d.window_s)
}

/// Outcome of a late-joiner experiment (one group started at offset `T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateJoinReport {
    /// The late group's index.
    pub joiner: u32,
    /// Join time, seconds since run start.
    pub join_t_s: f64,
    /// Seconds from join until the joiner's windowed share first reaches
    /// ≥ (1−ε) of fair share and holds it; `None` if it never claims.
    pub time_to_fair_share_s: Option<f64>,
    /// Mean combined incumbent goodput before the join, bits/s.
    pub incumbent_before_bps: f64,
    /// Mean combined incumbent goodput after the claim point (after the
    /// join, when the joiner never claims), bits/s.
    pub incumbent_after_bps: f64,
    /// Fraction of their pre-join goodput the incumbents gave up
    /// (`1 − after/before`; 0 when there was no pre-join traffic).
    pub concession: f64,
}

/// Measure a late joiner's responsiveness: how quickly the group that
/// joined at `join_t_s` claims ≥ (1−ε) of its fair share (sustained for
/// `hold_s`), and how much goodput the incumbents conceded to make room.
pub fn late_joiner_response(
    d: &FairnessDynamics,
    joiner: u32,
    join_t_s: f64,
    spec: &ConvergenceSpec,
) -> LateJoinReport {
    assert!((joiner as usize) < d.n_groups(), "joiner group out of range");
    let hold_windows = ((spec.hold_s / d.window_s).ceil() as usize).max(1);
    let n = d.t.len();
    let target = (1.0 - spec.epsilon) * d.fair_share;
    let claims = |k: usize| d.share(joiner as usize, k) >= target;
    let claim_k = (0..n.saturating_sub(hold_windows - 1))
        .filter(|&k| d.t[k] - d.window_s >= join_t_s)
        .find(|&k| (k..k + hold_windows).all(claims));
    let time_to_fair_share_s = claim_k.map(|k| d.t[k] - d.window_s - join_t_s);

    let incumbent_bps = |k: usize| -> f64 {
        (0..d.n_groups()).filter(|&g| g != joiner as usize).map(|g| d.group_bps[g][k]).sum()
    };
    let mean_over = |keep: &dyn Fn(usize) -> bool| -> f64 {
        let picked: Vec<f64> = (0..n).filter(|&k| keep(k)).map(incumbent_bps).collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    };
    let incumbent_before_bps = mean_over(&|k| d.t[k] <= join_t_s);
    let after_from = claim_k.map_or(join_t_s, |k| d.t[k]);
    let incumbent_after_bps = mean_over(&|k| d.t[k] - d.window_s >= after_from);
    let concession = if incumbent_before_bps > 0.0 {
        1.0 - incumbent_after_bps / incumbent_before_bps
    } else {
        0.0
    };
    LateJoinReport {
        joiner,
        join_t_s,
        time_to_fair_share_s,
        incumbent_before_bps,
        incumbent_after_bps,
        concession,
    }
}

/// The paper's BBRv1-vs-CUBIC qualitative shape, measured: the suppressed
/// group's mean share early in the run vs late in the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuppressionShape {
    /// Mean share over the early span `[0, early_until_s)`.
    pub early_share: f64,
    /// Mean share over the late span `[late_from_s, end)`.
    pub late_share: f64,
    /// The group's fair share, for reference.
    pub fair_share: f64,
}

/// Mean share of `group` over an early and a late span of the run —
/// the two numbers behind "CUBIC suppressed early, partial recovery".
/// `None` when either span contains no complete window.
pub fn suppression_shape(
    d: &FairnessDynamics,
    group: usize,
    early_until_s: f64,
    late_from_s: f64,
) -> Option<SuppressionShape> {
    let horizon = *d.t.last()? + d.window_s;
    Some(SuppressionShape {
        early_share: d.mean_share(group, 0.0, early_until_s)?,
        late_share: d.mean_share(group, late_from_s, horizon)?,
        fair_share: d.fair_share,
    })
}

/// A seeded bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Sample mean of the input values.
    pub mean: f64,
    /// Lower CI bound (percentile method).
    pub lo: f64,
    /// Upper CI bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub confidence: f64,
    /// Bootstrap resamples drawn.
    pub resamples: u32,
}

/// Stream salt for the bootstrap RNG, so analysis draws can never collide
/// with simulation or workload streams derived from the same base seed.
const BOOTSTRAP_SALT: u64 = 0xB007_57A9_CF1D_E2E7;

/// Percentile-method bootstrap CI over per-repeat values (e.g. one
/// convergence time or mean share per seeded repeat). Deterministic in
/// `seed`; `None` on an empty input. With a single value the interval
/// collapses to a point — honest, if not informative.
pub fn bootstrap_ci(
    values: &[f64],
    confidence: f64,
    resamples: u32,
    seed: u64,
) -> Option<BootstrapCi> {
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be in (0,1)");
    assert!(resamples > 0, "resamples must be positive");
    if values.is_empty() {
        return None;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let mut rng = SmallRng::seed_from_u64(seed ^ BOOTSTRAP_SALT);
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let sum: f64 =
                (0..values.len()).map(|_| values[rng.random_range(0..values.len())]).sum();
            sum / values.len() as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap means must not be NaN"));
    let alpha = (1.0 - confidence) / 2.0;
    let idx = |q: f64| -> f64 {
        let i = (q * (means.len() - 1) as f64).round() as usize;
        means[i.min(means.len() - 1)]
    };
    Some(BootstrapCi { mean, lo: idx(alpha), hi: idx(1.0 - alpha), confidence, resamples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_telemetry::{FlightRecord, FlowPoint, FLIGHT_RECORD_VERSION};

    /// Build a record from per-flow cumulative (t_ms, delivered_bytes)
    /// series — the analysis layer only looks at those fields.
    fn record_of(series: &[&[(u64, u64)]]) -> FlightRecord {
        let mut flow_samples: Vec<FlowPoint> = Vec::new();
        for (f, points) in series.iter().enumerate() {
            for &(t_ms, delivered) in *points {
                flow_samples.push(FlowPoint {
                    t_s: t_ms as f64 / 1e3,
                    flow: f as u32,
                    cwnd: 10_000,
                    pacing_bps: None,
                    srtt_s: None,
                    inflight: 0,
                    phase: "steady".into(),
                    delivered_bytes: delivered,
                    retx: 0,
                });
            }
        }
        flow_samples.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap());
        FlightRecord {
            schema_version: FLIGHT_RECORD_VERSION,
            label: "synthetic".into(),
            seed: 0,
            sample_interval_s: 0.01,
            flow_samples,
            queue_samples: vec![],
            events: vec![],
            events_truncated: 0,
        }
    }

    /// 1 Mbps == 125_000 bytes/s; a flow delivering 12_500 bytes per
    /// 100 ms window runs at exactly 1 Mbps.
    fn steady_flow(ms_step: u64, until_ms: u64, bytes_per_step: u64) -> Vec<(u64, u64)> {
        (0..=until_ms / ms_step).map(|k| (k * ms_step, k * bytes_per_step)).collect()
    }

    #[test]
    fn windowed_goodput_differences_cumulative_counters() {
        // Flow 0: 1 Mbps steady. Flow 1: idle then 2 Mbps from t=500ms.
        let f0 = steady_flow(100, 1000, 12_500);
        let f1: Vec<(u64, u64)> =
            (0..=10).map(|k| (k * 100, 25_000 * (k.max(5) - 5))).collect();
        let rec = record_of(&[&f0, &f1]);
        let g = windowed_goodput(&rec, 0.5);
        assert_eq!(g.n_windows(), 2);
        assert_eq!(g.flows, vec![0, 1]);
        assert!((g.bps[0][0] - 1e6).abs() < 1e-6);
        assert!((g.bps[0][1] - 1e6).abs() < 1e-6);
        assert!((g.bps[1][0] - 0.0).abs() < 1e-6, "late flow idle in window 0");
        assert!((g.bps[1][1] - 2e6).abs() < 1e-6);
        let total = g.total_bps();
        assert!((total[1] - 3e6).abs() < 1e-6);
    }

    #[test]
    fn partial_tail_window_is_dropped() {
        let rec = record_of(&[&steady_flow(100, 1234, 12_500)]);
        let g = windowed_goodput(&rec, 0.5);
        assert_eq!(g.n_windows(), 2, "t_max=1.2s → two complete 0.5s windows");
    }

    #[test]
    fn dynamics_shares_jain_and_utilization() {
        // Two single-flow groups at 3 Mbps and 1 Mbps on a 5 Mbps link.
        let f0 = steady_flow(100, 1000, 37_500);
        let f1 = steady_flow(100, 1000, 12_500);
        let rec = record_of(&[&f0, &f1]);
        let d = fairness_dynamics(&rec, &[0, 1], 0.5, 5e6);
        assert_eq!(d.n_groups(), 2);
        assert!((d.share(0, 0) - 0.75).abs() < 1e-9);
        assert!((d.share(1, 0) - 0.25).abs() < 1e-9);
        // Jain of (3,1) = 16/(2*10) = 0.8.
        assert!((d.jain[0] - 0.8).abs() < 1e-9);
        assert!((d.utilization[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn convergence_detects_the_handover() {
        // Group 1 is suppressed for 2s, then both run equal for 3s.
        let f0: Vec<(u64, u64)> = (0..=50)
            .map(|k| (k * 100, if k <= 20 { 25_000 * k } else { 500_000 + 12_500 * (k - 20) }))
            .collect();
        let f1: Vec<(u64, u64)> =
            (0..=50).map(|k| (k * 100, if k <= 20 { 0 } else { 12_500 * (k - 20) })).collect();
        let rec = record_of(&[&f0, &f1]);
        let d = fairness_dynamics(&rec, &[0, 1], 0.5, 2e6);
        let spec = ConvergenceSpec { epsilon: 0.05, hold_s: 1.5 };
        let t = convergence_time(&d, &spec).expect("converges after the handover");
        assert!((t - 2.0).abs() < 1e-9, "fair from t=2.0s, got {t}");
        // A run that never shares fairly reports None.
        let unfair = record_of(&[&steady_flow(100, 5000, 25_000), &steady_flow(100, 5000, 2_500)]);
        let du = fairness_dynamics(&unfair, &[0, 1], 0.5, 2e6);
        assert_eq!(convergence_time(&du, &spec), None);
    }

    #[test]
    fn convergence_hold_must_be_sustained() {
        // One fair window amid unfair ones must not count with a long hold:
        // flow 0 runs at 2 Mbps except for a 200 ms dip to flow 1's 1 Mbps.
        let step = |j: u64| if (10..12).contains(&j) { 12_500u64 } else { 25_000 };
        let f0: Vec<(u64, u64)> =
            (0..=30).map(|k| (k * 100, (0..k).map(step).sum())).collect();
        let f1 = steady_flow(100, 3000, 12_500);
        let rec = record_of(&[&f0, &f1]);
        let d = fairness_dynamics(&rec, &[0, 1], 0.2, 2e6);
        let strict = ConvergenceSpec { epsilon: 0.05, hold_s: 1.0 };
        assert_eq!(convergence_time(&d, &strict), None);
        let brief = ConvergenceSpec { epsilon: 0.05, hold_s: 0.2 };
        assert!(convergence_time(&d, &brief).is_some(), "the fair blip satisfies a 1-window hold");
    }

    #[test]
    fn late_joiner_reports_claim_and_concession() {
        // Incumbent alone at 2 Mbps for 2s; joiner ramps to parity at 3s.
        let f0: Vec<(u64, u64)> = (0..=50)
            .map(|k| (k * 100, if k <= 30 { 25_000 * k } else { 750_000 + 12_500 * (k - 30) }))
            .collect();
        let f1: Vec<(u64, u64)> = (0..=50)
            .map(|k| (k * 100, if k <= 30 { 0 } else { 12_500 * (k - 30) }))
            .collect();
        let rec = record_of(&[&f0, &f1]);
        let d = fairness_dynamics(&rec, &[0, 1], 0.5, 2e6);
        let spec = ConvergenceSpec { epsilon: 0.1, hold_s: 1.0 };
        let rep = late_joiner_response(&d, 1, 2.0, &spec);
        let tts = rep.time_to_fair_share_s.expect("joiner reaches parity");
        assert!((tts - 1.0).abs() < 1e-9, "claims fair share 1s after joining, got {tts}");
        assert!(rep.incumbent_before_bps > rep.incumbent_after_bps);
        assert!((rep.concession - 0.5).abs() < 0.05, "incumbent gives up half: {}", rep.concession);
        // A joiner that never claims reports None but still measures concession.
        let never = record_of(&[&steady_flow(100, 5000, 25_000), &steady_flow(100, 5000, 1_250)]);
        let dn = fairness_dynamics(&never, &[0, 1], 0.5, 2e6);
        assert_eq!(late_joiner_response(&dn, 1, 2.0, &spec).time_to_fair_share_s, None);
    }

    #[test]
    fn suppression_shape_reads_early_and_late_spans() {
        // Group 1 suppressed to 20% early, recovers to 40% late.
        let f0: Vec<(u64, u64)> = (0..=40)
            .map(|k| (k * 100, if k <= 20 { 40_000 * k } else { 800_000 + 30_000 * (k - 20) }))
            .collect();
        let f1: Vec<(u64, u64)> = (0..=40)
            .map(|k| (k * 100, if k <= 20 { 10_000 * k } else { 200_000 + 20_000 * (k - 20) }))
            .collect();
        let rec = record_of(&[&f0, &f1]);
        let d = fairness_dynamics(&rec, &[0, 1], 0.5, 4e6);
        let s = suppression_shape(&d, 1, 2.0, 2.5).unwrap();
        assert!((s.early_share - 0.2).abs() < 1e-9);
        assert!((s.late_share - 0.4).abs() < 1e-9);
        assert!(s.early_share < s.late_share, "partial recovery");
        assert!(suppression_shape(&d, 1, 0.0, 99.0).is_none(), "empty span yields None");
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_ordered() {
        let vals = [4.2, 3.9, 4.4, 4.1, 4.0];
        let a = bootstrap_ci(&vals, 0.95, 500, 7).unwrap();
        let b = bootstrap_ci(&vals, 0.95, 500, 7).unwrap();
        assert_eq!(a, b, "same seed, same interval");
        assert!(a.lo <= a.mean && a.mean <= a.hi);
        assert!(vals.iter().all(|&v| v >= a.lo - 1.0 && v <= a.hi + 1.0));
        assert!(bootstrap_ci(&[], 0.95, 100, 1).is_none());
        let point = bootstrap_ci(&[2.5], 0.95, 100, 1).unwrap();
        assert_eq!((point.lo, point.hi), (2.5, 2.5), "single repeat collapses to a point");
    }
}
