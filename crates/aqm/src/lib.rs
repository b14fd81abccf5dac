//! # elephants-aqm
//!
//! The queue disciplines the bottleneck router can run: one module each
//! (droptail FIFO is [`elephants_netsim::DropTail`], re-exported here) and
//! one table row each in [`config`], where `AqmKind::ALL` lists them and
//! `AqmKind::PAPER_SET` is the grid the paper sweeps.
//!
//! All disciplines implement [`elephants_netsim::Aqm`] and are deterministic
//! given the run RNG.
//!
//! The paper's central RED finding — utilization collapse on ≥1 Gbps links —
//! comes from *unscaled default parameters*: thresholds that are generous at
//! hundreds of Mbps but a tiny fraction of the BDP at 10–25 Gbps. The
//! defaults in [`RedConfig`] intentionally mirror that practice (fixed byte
//! thresholds, not BDP-proportional); see `DESIGN.md`.

pub mod codel;
pub mod config;
pub mod fq_codel;
pub mod pie;
pub mod red;

pub use codel::{Codel, CodelConfig, CodelState};
pub use config::{build_aqm, AqmKind};
pub use elephants_netsim::{Aqm, AqmStats, DequeueResult, DropTail, Verdict};
pub use fq_codel::{FqCodel, FqCodelConfig};
pub use pie::{Pie, PieConfig};
pub use red::{Red, RedConfig};
