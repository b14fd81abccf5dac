//! # elephants
//!
//! A from-scratch Rust reproduction of *"Elephants Sharing the Highway:
//! Studying TCP Fairness in Large Transfers over High Throughput Links"*
//! (Mahmud et al., SC-W 2023).
//!
//! The paper measures how pairs of TCP congestion-control algorithms
//! (BBRv1, BBRv2, CUBIC, Reno, HTCP) share a bottleneck under three queue
//! disciplines (FIFO, RED, FQ_CODEL), across queue lengths of 0.5–16 × BDP
//! and bottleneck bandwidths of 100 Mbps–25 Gbps. This crate replaces the
//! paper's FABRIC testbed with a deterministic packet-level discrete-event
//! simulator and rebuilds the whole software stack the experiment needs:
//!
//! * [`netsim`] — the simulator (time, events, links, routing, dumbbell);
//! * [`tcp`] — SACK scoreboard, RTO, pacing, delivery-rate sampling;
//! * [`cca`] — the congestion controllers ([`CcaKind::ALL`]);
//! * [`aqm`] — the queue disciplines ([`AqmKind::ALL`]);
//! * [`workload`] — iperf3-style flow scaling (paper Table 2);
//! * [`metrics`] — Jain index, utilization φ, relative retransmissions;
//! * [`experiments`] — the Table 1 grid, parallel sweeps, and one
//!   regeneration entry point per paper figure/table;
//! * [`telemetry`] — the flight recorder: versioned per-run dynamics
//!   artifacts (cwnd/queue time series) behind the paper-style figures;
//! * [`analysis`] — fairness dynamics over flight records: windowed
//!   goodput, J(t), convergence time, late-joiner responsiveness and
//!   seeded bootstrap confidence intervals;
//! * [`chaos`] — the deterministic fuzzer: seeded scenario/fault
//!   generation, a four-oracle judge, automatic shrinking, and the
//!   replayable regression corpus under `tests/fixtures/chaos/`.
//!
//! ## Quickstart
//!
//! ```
//! use elephants::FairnessStudy;
//!
//! // How do BBRv1 and CUBIC share a 100 Mbps link through a 2-BDP FIFO?
//! let outcome = FairnessStudy::builder()
//!     .cca_pair("bbr1", "cubic")
//!     .aqm("fifo")
//!     .bandwidth_mbps(100)
//!     .queue_bdp(2.0)
//!     .duration_secs(5)
//!     .build()
//!     .expect("valid study")
//!     .run();
//! assert!(outcome.jain > 0.0 && outcome.jain <= 1.0);
//! assert!(outcome.utilization <= 1.0);
//! ```

pub use elephants_json as json;

pub use elephants_analysis as analysis;
pub use elephants_aqm as aqm;
pub use elephants_cca as cca;
pub use elephants_chaos as chaos;
pub use elephants_experiments as experiments;
pub use elephants_metrics as metrics;
pub use elephants_netsim as netsim;
pub use elephants_tcp as tcp;
pub use elephants_telemetry as telemetry;
pub use elephants_workload as workload;

pub use elephants_aqm::AqmKind;
pub use elephants_cca::CcaKind;
pub use elephants_experiments::RunResult;
pub use elephants_netsim::SimDuration;

use elephants_experiments::{DurationPreset, RunOptions, ScenarioConfig};

/// A single fairness experiment, configured through a builder.
///
/// This is the "five-minute" API: one bottleneck, two sender nodes (each
/// running the paper's Table 2 flow count for the chosen bandwidth), one
/// AQM, one queue length. For grids and figure regeneration use
/// [`experiments`] directly.
#[derive(Debug, Clone)]
pub struct FairnessStudy {
    config: ScenarioConfig,
    repeats: u32,
}

/// Builder for [`FairnessStudy`].
#[derive(Debug, Clone)]
pub struct FairnessStudyBuilder {
    cca1: CcaKind,
    cca2: CcaKind,
    aqm: AqmKind,
    bw_bps: u64,
    queue_bdp: f64,
    duration: Option<SimDuration>,
    warmup_frac: f64,
    flow_scale: f64,
    ecn: bool,
    seed: u64,
    repeats: u32,
    error: Option<String>,
}

impl Default for FairnessStudyBuilder {
    fn default() -> Self {
        FairnessStudyBuilder {
            cca1: CcaKind::Cubic,
            cca2: CcaKind::Cubic,
            aqm: AqmKind::Fifo,
            bw_bps: 100_000_000,
            queue_bdp: 2.0,
            duration: None,
            warmup_frac: 0.25,
            flow_scale: 1.0,
            ecn: false,
            seed: 1,
            repeats: 1,
            error: None,
        }
    }
}

impl FairnessStudyBuilder {
    /// Set both senders' congestion controllers by name: the
    /// [`CcaKind::name`] of any of [`CcaKind::ALL`].
    pub fn cca_pair(mut self, cca1: &str, cca2: &str) -> Self {
        match (cca1.parse(), cca2.parse()) {
            (Ok(a), Ok(b)) => {
                self.cca1 = a;
                self.cca2 = b;
            }
            (Err(e), _) | (_, Err(e)) => self.error = Some(e),
        }
        self
    }

    /// Set the bottleneck queue discipline by name: the
    /// [`AqmKind::name`] of any of [`AqmKind::ALL`].
    pub fn aqm(mut self, aqm: &str) -> Self {
        match aqm.parse() {
            Ok(a) => self.aqm = a,
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Bottleneck bandwidth in Mbps.
    pub fn bandwidth_mbps(mut self, mbps: u64) -> Self {
        self.bw_bps = mbps * 1_000_000;
        self
    }

    /// Bottleneck bandwidth in Gbps.
    pub fn bandwidth_gbps(mut self, gbps: u64) -> Self {
        self.bw_bps = gbps * 1_000_000_000;
        self
    }

    /// Queue length as a multiple of the bandwidth-delay product.
    pub fn queue_bdp(mut self, q: f64) -> Self {
        self.queue_bdp = q;
        self
    }

    /// Simulated duration in seconds (default: bandwidth-scaled preset).
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.duration = Some(SimDuration::from_secs(secs));
        self
    }

    /// Fraction of the paper's Table 2 flow count to instantiate.
    pub fn flow_scale(mut self, scale: f64) -> Self {
        self.flow_scale = scale;
        self
    }

    /// Enable ECN end-to-end (off in the paper).
    pub fn ecn(mut self, on: bool) -> Self {
        self.ecn = on;
        self
    }

    /// Base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of seeded repetitions to average (paper: 5).
    pub fn repeats(mut self, n: u32) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Finalize; errors on invalid names or parameters.
    pub fn build(self) -> Result<FairnessStudy, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !(self.flow_scale > 0.0 && self.flow_scale <= 1.0) {
            return Err("flow_scale must be in (0,1]".into());
        }
        if self.queue_bdp <= 0.0 {
            return Err("queue_bdp must be positive".into());
        }
        let opts = RunOptions {
            preset: DurationPreset::Standard,
            warmup_frac: self.warmup_frac,
            repeats: self.repeats,
            flow_scale: self.flow_scale,
            seed: self.seed,
        };
        let mut config =
            ScenarioConfig::new(self.cca1, self.cca2, self.aqm, self.queue_bdp, self.bw_bps, &opts);
        config.ecn = self.ecn;
        if let Some(d) = self.duration {
            config.duration = d;
            config.warmup = d.mul_f64(self.warmup_frac);
        }
        Ok(FairnessStudy { config, repeats: self.repeats })
    }
}

/// Outcome of a [`FairnessStudy`] (averaged over repeats).
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Goodput of sender 1 (running `cca1`), Mbps.
    pub sender1_mbps: f64,
    /// Goodput of sender 2 (running `cca2`), Mbps.
    pub sender2_mbps: f64,
    /// Jain fairness index over the two senders.
    pub jain: f64,
    /// Link utilization φ.
    pub utilization: f64,
    /// Mean retransmitted segments per run.
    pub retransmits: f64,
    /// Total RTO events.
    pub rtos: u64,
    /// Flows simulated per run.
    pub flows: u32,
}

impl FairnessStudy {
    /// Start building a study.
    pub fn builder() -> FairnessStudyBuilder {
        FairnessStudyBuilder::default()
    }

    /// The underlying scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Execute the study (repeats are averaged).
    pub fn run(&self) -> StudyOutcome {
        let avg = elephants_experiments::Runner::new(&self.config)
            .repeats(self.repeats)
            .run()
            .unwrap_or_else(|e| panic!("run failed ({}): {e}", self.config.label()))
            .into_averaged();
        StudyOutcome {
            sender1_mbps: avg.sender_mbps.first().copied().unwrap_or(0.0),
            sender2_mbps: avg.sender_mbps.get(1).copied().unwrap_or(0.0),
            jain: avg.jain,
            utilization: avg.utilization,
            retransmits: avg.retransmits,
            rtos: avg.rtos,
            flows: avg.runs.first().map(|r| r.flows).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_names() {
        assert!(FairnessStudy::builder().cca_pair("bbr9", "cubic").build().is_err());
        assert!(FairnessStudy::builder().aqm("wred").build().is_err());
        assert!(FairnessStudy::builder().flow_scale(0.0).build().is_err());
        assert!(FairnessStudy::builder().queue_bdp(-1.0).build().is_err());
        assert!(FairnessStudy::builder().cca_pair("htcp", "cubic").aqm("red").build().is_ok());
    }

    #[test]
    fn builder_sets_scenario_fields() {
        let study = FairnessStudy::builder()
            .cca_pair("bbr2", "cubic")
            .aqm("fq_codel")
            .bandwidth_gbps(1)
            .queue_bdp(4.0)
            .duration_secs(3)
            .seed(9)
            .build()
            .unwrap();
        let c = study.config();
        assert_eq!(c.cca1, CcaKind::BbrV2);
        assert_eq!(c.aqm, AqmKind::FqCodel);
        assert_eq!(c.bw_bps, 1_000_000_000);
        assert_eq!(c.queue_bdp, 4.0);
        assert_eq!(c.duration, SimDuration::from_secs(3));
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn study_runs_end_to_end() {
        let out = FairnessStudy::builder()
            .bandwidth_mbps(100)
            .duration_secs(4)
            .build()
            .unwrap()
            .run();
        assert_eq!(out.flows, 2);
        assert!(out.jain > 0.0 && out.jain <= 1.0);
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        assert!(out.sender1_mbps + out.sender2_mbps > 0.0);
    }
}
