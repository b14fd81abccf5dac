//! Time-resolved experiment traces — the study's "dataset" output.
//!
//! The paper publishes its raw iperf3 logs so others can re-analyze the
//! runs; it also lists "capture detailed router logs" as future work. This
//! module provides both for the simulated study: [`run_scenario_traced`]
//! steps the simulation on a fixed interval (via `Simulator::run_until`,
//! so the packet-level schedule is identical to an untraced run) and
//! samples
//!
//! * per-sender delivered bytes (iperf3-style interval throughput),
//! * bottleneck queue depth in packets and bytes (the "router log"),
//! * cumulative drops and retransmissions.
//!
//! Traces serialize to JSON for external analysis.
//!
//! The traced simulator is assembled by the same function as
//! [`Runner`](crate::runner::Runner)'s, so loss models, fault plans, start
//! offsets and topologies apply to a trace exactly as to a run. On a
//! multi-bottleneck topology the queue and drop columns describe the
//! primary bottleneck (the link `RunResult`'s top-level counters describe)
//! and `sender_mbps` has one entry per flow group; per-link series come
//! from the flight recorder (`Runner::recorder` +
//! `FlightRecord::queue_series_for`).

use crate::runner::{assemble, check_event_budget, RunError};
use crate::scenario::ScenarioConfig;
use elephants_json::{impl_json_struct, ToJson};
use elephants_netsim::{FlowId, SimDuration, SimTime};
use elephants_tcp::{TcpReceiver, TcpSender};

/// One sampling instant.
#[derive(Debug, Clone)]
pub struct TraceSample {
    /// Sample time in seconds.
    pub t: f64,
    /// Per-sender goodput since the previous sample, Mbps.
    pub sender_mbps: Vec<f64>,
    /// Bottleneck queue depth, packets.
    pub queue_pkts: usize,
    /// Bottleneck queue depth, bytes.
    pub queue_bytes: u64,
    /// Cumulative bottleneck drops: queue drops plus loss-model losses.
    pub drops: u64,
    /// Cumulative retransmissions across all flows.
    pub retransmits: u64,
}

impl_json_struct!(TraceSample { t, sender_mbps, queue_pkts, queue_bytes, drops, retransmits });

/// A full experiment trace.
#[derive(Debug, Clone)]
pub struct ScenarioTrace {
    /// The scenario that produced this trace.
    pub config: ScenarioConfig,
    /// Seed used.
    pub seed: u64,
    /// Sampling interval in seconds.
    pub interval_s: f64,
    /// The samples, in time order.
    pub samples: Vec<TraceSample>,
}

impl_json_struct!(ScenarioTrace { config, seed, interval_s, samples });

impl ScenarioTrace {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_pretty()
    }

    /// Write JSON to `path`, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Peak queue depth in packets over the trace.
    pub fn peak_queue_pkts(&self) -> usize {
        self.samples.iter().map(|s| s.queue_pkts).max().unwrap_or(0)
    }

    /// Mean of the per-sample total throughput (Mbps).
    pub fn mean_total_mbps(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.sender_mbps.iter().sum::<f64>())
            .sum::<f64>()
            / self.samples.len() as f64
    }
}

/// Run a scenario while sampling the bottleneck every `interval`.
///
/// The event schedule is identical to [`crate::runner::Runner`] runs for
/// the same `(cfg, seed)` — stepping with `run_until` does not inject
/// events — so traces are faithful views of the untraced runs. An invalid
/// config or an exhausted event budget comes back as the [`RunError`] the
/// runner would report.
pub fn run_scenario_traced(
    cfg: &ScenarioConfig,
    seed: u64,
    interval: SimDuration,
) -> Result<ScenarioTrace, RunError> {
    assert!(!interval.is_zero(), "sampling interval must be positive");
    let (mut sim, groups, plan) = assemble(cfg, seed, None)?;
    // Flow ids were assigned in plan order, group by group.
    let flow_group: Vec<usize> = plan
        .starts
        .iter()
        .enumerate()
        .flat_map(|(group, starts)| std::iter::repeat_n(group, starts.len()))
        .collect();

    let bn = sim.topology().bottleneck_link().expect("every TopologySpec designates a bottleneck");
    let mut samples = Vec::new();
    let mut prev_delivered: Vec<u64> = vec![0; groups.len()];
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + cfg.duration;
    while t < end {
        t = (t + interval).min(end);
        sim.run_until(t);
        check_event_budget(&mut sim, cfg.max_events)?;

        let mut delivered: Vec<u64> = vec![0; groups.len()];
        let mut retransmits = 0u64;
        for (idx, &group) in flow_group.iter().enumerate() {
            let flow = FlowId(idx as u32);
            let rx = sim
                .receiver(flow)
                .as_any()
                .downcast_ref::<TcpReceiver>()
                .expect("receiver endpoint");
            delivered[group] += rx.delivered_bytes();
            let tx = sim
                .sender(flow)
                .as_any()
                .downcast_ref::<TcpSender>()
                .expect("sender endpoint");
            retransmits += tx.retransmits();
        }
        let link = sim.topology().link(bn);
        samples.push(TraceSample {
            t: t.as_secs_f64(),
            sender_mbps: delivered
                .iter()
                .zip(&prev_delivered)
                .map(|(&d, &p)| (d - p) as f64 * 8.0 / interval.as_secs_f64() / 1e6)
                .collect(),
            queue_pkts: link.aqm.backlog_pkts(),
            queue_bytes: link.aqm.backlog_bytes(),
            // The same sum `RunResult::drops` reports.
            drops: link.aqm_stats().dropped_total() + link.stats().fault_losses,
            retransmits,
        });
        prev_delivered = delivered;
    }

    Ok(ScenarioTrace {
        config: cfg.clone(),
        seed,
        interval_s: interval.as_secs_f64(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunErrorKind, Runner};
    use crate::scenario::RunOptions;
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;
    use elephants_json::FromJson;
    use elephants_netsim::{FaultPlan, LossModel};

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            2.0,
            100_000_000,
            &RunOptions::quick(),
        )
    }

    #[test]
    fn trace_covers_full_duration() {
        let trace = run_scenario_traced(&cfg(), 1, SimDuration::from_millis(500)).unwrap();
        let expect = (cfg().duration.as_secs_f64() / 0.5).round() as usize;
        assert_eq!(trace.samples.len(), expect);
        let last = trace.samples.last().unwrap();
        assert!((last.t - cfg().duration.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn traced_run_matches_untraced_totals() {
        // Stepping must not perturb the simulation, and the traced run must
        // be the run `Runner` makes of the same config — fault knobs
        // included: cumulative drops at the end of the trace equal the
        // untraced run's drop count.
        let step = SimDuration::from_millis(250);
        let (down_s, outage_s) = (4.9, 0.4);
        let mut flapped = cfg();
        flapped.faults = FaultPlan::flap(
            SimDuration::from_secs_f64(down_s),
            SimDuration::from_secs_f64(outage_s),
        );
        let [clean, flapped] = [cfg(), flapped].map(|c| {
            let untraced = Runner::new(&c).seed(3).run().unwrap().into_first();
            let trace = run_scenario_traced(&c, 3, step).unwrap();
            assert_eq!(trace.samples.last().unwrap().drops, untraced.drops, "{}", c.label());
            trace
        });

        // The outage shows in the series: an interval lying wholly inside
        // it (after the packets already past the link have landed) carries
        // no goodput.
        let dark = flapped.samples.iter().any(|s| {
            s.t - step.as_secs_f64() > down_s + 0.05
                && s.t < down_s + outage_s
                && s.sender_mbps.iter().sum::<f64>() == 0.0
        });
        assert!(dark, "no zero-goodput sample inside the outage");

        // A loss model reaches the traced run too.
        let mut lossy = cfg();
        lossy.loss = LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 };
        let lossy = run_scenario_traced(&lossy, 3, step).unwrap();
        assert!(
            lossy.samples.to_json_string() != clean.samples.to_json_string(),
            "Gilbert-Elliott loss left the trace unchanged"
        );

        // A config `Runner` refuses is refused the same way, not panicked on.
        let mut bad = cfg();
        bad.fault_link = 1;
        let err = run_scenario_traced(&bad, 3, step).unwrap_err();
        assert_eq!(err.kind, RunErrorKind::InvalidConfig);
    }

    #[test]
    fn throughput_series_sums_close_to_goodput() {
        let c = cfg();
        let trace = run_scenario_traced(&c, 1, SimDuration::from_millis(500)).unwrap();
        let total: f64 = trace
            .samples
            .iter()
            .map(|s| s.sender_mbps.iter().sum::<f64>() * 0.5 / 8.0 * 1e6)
            .sum();
        // Total delivered bytes (approx) must be within a few percent of
        // capacity x duration for a healthy CUBIC pair.
        let capacity = 100e6 / 8.0 * c.duration.as_secs_f64();
        assert!(total > 0.5 * capacity, "delivered {total} vs capacity {capacity}");
        assert!(total < 1.05 * capacity);
    }

    #[test]
    fn json_round_trip() {
        let trace = run_scenario_traced(&cfg(), 1, SimDuration::from_secs(1)).unwrap();
        let json = trace.to_json();
        let back = ScenarioTrace::from_json_str(&json).unwrap();
        assert_eq!(back.samples.len(), trace.samples.len());
        assert_eq!(back.seed, trace.seed);
    }

    #[test]
    fn queue_depth_is_sampled() {
        let trace = run_scenario_traced(&cfg(), 1, SimDuration::from_millis(200)).unwrap();
        assert!(trace.peak_queue_pkts() > 0, "CUBIC must build a queue");
    }
}
