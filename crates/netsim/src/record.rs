//! Flight-recorder hooks: the observability seam of the simulator.
//!
//! A [`Recorder`] is a trait object installed on the simulator that receives
//! periodic per-flow samples ([`FlowSample`]), bottleneck-queue samples
//! ([`QueueSample`]) and, optionally, a bounded per-packet event trace
//! ([`TraceEvent`]) drained from the bottleneck link's [`EventRing`].
//!
//! The contract is *observe, never perturb*: sampling reads endpoint and
//! link state through `&self` accessors, draws no randomness, and schedules
//! only its own `Event::Sample` ticks — which are excluded from the
//! processed-event counter — so a recorded run produces byte-identical
//! metrics to an unrecorded one. When no recorder is installed (the
//! default) no sample events are scheduled at all: the hot path pays
//! nothing.

use crate::link::LinkId;
use crate::packet::FlowId;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// What a sender endpoint exposes at a sample tick (see
/// [`crate::sim::FlowEndpoint::telemetry_probe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProbe {
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// CCA pacing rate, bits per second (None = unpaced).
    pub pacing_rate: Option<u64>,
    /// Smoothed RTT (None before the first sample).
    pub srtt: Option<SimDuration>,
    /// Bytes currently in flight.
    pub inflight: u64,
    /// CCA phase label (e.g. `"slow_start"`, `"probe_bw:1.25"`).
    pub phase: &'static str,
}

/// One per-flow telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSample {
    /// Sample time.
    pub t: SimTime,
    /// The sampled flow.
    pub flow: FlowId,
    /// The sender's probe data.
    pub probe: FlowProbe,
    /// Cumulative bytes delivered to the receiver's application.
    pub delivered_bytes: u64,
    /// Cumulative retransmitted segments at the sender.
    pub retx: u64,
}

/// One bottleneck-queue telemetry sample. Multi-bottleneck topologies emit
/// one sample per instrumented link per tick, distinguished by `link`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Sample time.
    pub t: SimTime,
    /// The sampled link.
    pub link: LinkId,
    /// Packets queued.
    pub backlog_pkts: u64,
    /// Bytes queued.
    pub backlog_bytes: u64,
    /// Cumulative packets dropped by the discipline so far.
    pub dropped: u64,
    /// Cumulative packets ECN-marked so far.
    pub marked: u64,
    /// Discipline-specific control variable, if the AQM exposes one
    /// (RED: average queue in bytes; PIE: drop probability).
    pub control: Option<f64>,
}

/// Kind of a per-packet trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Packet accepted into the bottleneck queue.
    Enqueue,
    /// Retransmitted packet accepted into the bottleneck queue.
    Retx,
    /// Packet handed to the transmitter.
    Dequeue,
    /// Packet dropped (AQM drop or dark-link destruction).
    Drop,
    /// A timed fault action was applied to the link.
    Fault,
}

impl TraceEventKind {
    /// Stable lowercase label for serialization.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Enqueue => "enqueue",
            TraceEventKind::Retx => "retx",
            TraceEventKind::Dequeue => "dequeue",
            TraceEventKind::Drop => "drop",
            TraceEventKind::Fault => "fault",
        }
    }
}

/// Flow id used on [`TraceEventKind::Fault`] records, which have no flow.
pub const TRACE_NO_FLOW: FlowId = FlowId(u32::MAX);

/// One per-packet trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event time.
    pub t: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
    /// The packet's flow ([`TRACE_NO_FLOW`] for fault events).
    pub flow: FlowId,
    /// The packet's sequence number.
    pub seq: u64,
    /// The packet's size in bytes.
    pub size: u32,
}

/// Bounded ring of [`TraceEvent`]s with a loud truncation counter.
///
/// Once `capacity` events are held, further pushes are *counted but not
/// stored* (keep-first semantics): the beginning of a run — slow start,
/// the first loss epoch — is the part worth keeping verbatim, and the
/// `truncated()` counter says exactly how much of the tail was shed.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    truncated: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing { buf: Vec::new(), capacity, truncated: 0 }
    }

    /// Record `ev`, or count it as truncated if the ring is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.truncated += 1;
        }
    }

    /// Events recorded so far (at most `capacity`).
    pub fn events(&self) -> &[TraceEvent] {
        &self.buf
    }

    /// Number of events that arrived after the ring filled.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

/// Sink for telemetry samples. Implemented by `elephants-telemetry`'s
/// `FlightRecorder`.
pub trait Recorder: Send {
    /// A per-flow sample was taken.
    fn on_flow_sample(&mut self, s: &FlowSample);

    /// A bottleneck-queue sample was taken.
    fn on_queue_sample(&mut self, s: &QueueSample);

    /// A trace event drained from the bottleneck's [`EventRing`] after the
    /// run (plus the ring's truncation count, reported once).
    fn on_trace_event(&mut self, e: &TraceEvent);

    /// How many trace events were shed by the ring.
    fn on_trace_truncated(&mut self, _count: u64) {}

    /// Downcasting hook so callers can recover the concrete recorder after
    /// [`crate::sim::Simulator::take_recorder`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What the simulator samples, and how often.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecorderConfig {
    /// Spacing of `Event::Sample` ticks.
    pub interval: SimDuration,
    /// Sample per-flow sender state.
    pub flows: bool,
    /// Sample the bottleneck queue.
    pub queue: bool,
}


#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(seq),
            kind: TraceEventKind::Enqueue,
            flow: FlowId(0),
            seq,
            size: 1500,
        }
    }

    #[test]
    fn ring_keeps_first_and_counts_truncation() {
        let mut ring = EventRing::new(3);
        for i in 0..10 {
            ring.push(ev(i));
        }
        assert_eq!(ring.events().len(), 3);
        assert_eq!(ring.truncated(), 7);
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "keep-first semantics");
    }

    #[test]
    fn ring_below_capacity_truncates_nothing() {
        let mut ring = EventRing::new(8);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.events().len(), 2);
        assert_eq!(ring.truncated(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        EventRing::new(0);
    }

    #[test]
    fn trace_kind_labels_are_stable() {
        assert_eq!(TraceEventKind::Enqueue.label(), "enqueue");
        assert_eq!(TraceEventKind::Retx.label(), "retx");
        assert_eq!(TraceEventKind::Dequeue.label(), "dequeue");
        assert_eq!(TraceEventKind::Drop.label(), "drop");
        assert_eq!(TraceEventKind::Fault.label(), "fault");
    }
}
