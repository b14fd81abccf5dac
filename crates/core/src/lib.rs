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
//! use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
//! use elephants::{AqmKind, CcaKind, SimDuration};
//!
//! // How do BBRv1 and CUBIC share a 100 Mbps link through a 2-BDP FIFO?
//! let opts = RunOptions::standard();
//! let cfg = ScenarioConfig::builder(
//!     CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000, &opts,
//! )
//! .duration(SimDuration::from_secs(5))
//! .build()
//! .expect("valid scenario");
//! let out = Runner::new(&cfg).run().expect("run").into_averaged();
//! assert!(out.jain > 0.0 && out.jain <= 1.0);
//! assert!(out.utilization <= 1.0);
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
