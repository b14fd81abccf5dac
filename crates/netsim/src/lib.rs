//! # elephants-netsim
//!
//! A deterministic, packet-level discrete-event network simulator.
//!
//! This crate is the substrate on which the `elephants` TCP-fairness study is
//! reproduced. It models:
//!
//! * **Time** as integer nanoseconds ([`SimTime`], [`SimDuration`]) — no
//!   floating-point clock drift, total event order is reproducible.
//! * **Packets** as small `Copy` header structs ([`Packet`]) — payload bytes
//!   are virtual, so the hot loop performs no per-packet heap allocation.
//! * **Links** with a serialization rate, propagation delay, and a pluggable
//!   queue discipline ([`Aqm`]) on their egress.
//! * **Nodes** — hosts that terminate flows and routers that forward packets
//!   via static route tables.
//! * **Flows** — protocol endpoints supplied by the caller through the
//!   [`FlowEndpoint`] trait (the `elephants-tcp` crate provides TCP senders
//!   and receivers).
//!
//! The engine is single-threaded by design; parallelism in the study comes
//! from running many independent simulations concurrently (see
//! `elephants-experiments`), which keeps every individual run bit-for-bit
//! deterministic for a given `(config, seed)` pair.
//!
//! ## Quick example
//!
//! ```
//! use elephants_netsim::prelude::*;
//!
//! // Build the paper's dumbbell with a 100 Mbps bottleneck and a 62 ms RTT,
//! // then put a 1 MB droptail queue on its shaped trunk.
//! let rtt = SimDuration::from_millis(62);
//! let mut topo = TopologySpec::Dumbbell.build(Bandwidth::from_mbps(100), rtt).unwrap();
//! let trunk = topo.bottleneck_link().unwrap();
//! topo.set_aqm_on(trunk, Box::new(DropTail::new(1_000_000)));
//! assert_eq!(topo.base_rtt(), rtt);
//! assert_eq!(topo.sender_hosts().len(), 2);
//! ```

pub mod check;
pub mod event;
pub mod fault;
pub mod link;
pub mod packet;
pub mod prop;
pub mod queue;
pub mod record;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod units;

pub use check::{
    CheckFailure, CheckMode, CheckReport, Checker, Violation, MAX_STORED_VIOLATIONS,
    STRICT_VIOLATION_PREFIX,
};
pub use event::{Event, EventQueue, TimerKind};
pub use fault::{FaultAction, FaultEvent, FaultPlan, LossModel};
pub use link::{Link, LinkId, LinkSpec, LinkStats};
pub use packet::{AckInfo, Dir, FlowId, NodeId, Packet, PacketKind, PacketRef, SACK_MAX};
pub use queue::{Aqm, AqmStats, DequeueResult, DropTail, PacketFifo, Verdict};
pub use record::{
    EventRing, FlowProbe, FlowSample, QueueSample, Recorder, RecorderConfig, TraceEvent,
    TraceEventKind, TRACE_NO_FLOW,
};
pub use rng::{Rng, RngExt, SeedableRng, SmallRng};
pub use sim::{
    BottleneckReport, Ctx, EndpointReport, FlowEndpoint, LinkReport, RunSummary, SimConfig,
    Simulator,
};
pub use time::{SimDuration, SimTime};
pub use topology::{Topology, TopologySpec, EDGE_ONE_WAY};
pub use units::{bdp_bytes, Bandwidth};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::check::{CheckFailure, CheckMode, CheckReport};
    pub use crate::event::TimerKind;
    pub use crate::fault::{FaultAction, FaultEvent, FaultPlan, LossModel};
    pub use crate::link::{LinkId, LinkSpec};
    pub use crate::packet::{AckInfo, Dir, FlowId, NodeId, Packet, PacketKind};
    pub use crate::queue::{Aqm, DequeueResult, DropTail, Verdict};
    pub use crate::record::{FlowProbe, FlowSample, QueueSample, Recorder, RecorderConfig};
    pub use crate::sim::{Ctx, FlowEndpoint, SimConfig, Simulator};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Topology, TopologySpec};
    pub use crate::units::{bdp_bytes, Bandwidth};
    pub use crate::rng::{Rng, RngExt, SeedableRng, SmallRng};
}
