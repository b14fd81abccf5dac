//! Span-recording decorators around the three trait objects a simulator is
//! assembled from. Each forwards every call unchanged, so a decorated run
//! simulates exactly what an undecorated one does; only the calls that do a
//! layer's work open a span, read-only accessors are forwarded bare.

use crate::span::{self, Layer};
use elephants_cca::{AckEvent, CcaKind, CcaState, CongestionControl, LossEvent};
use elephants_netsim::{
    Aqm, AqmStats, CheckFailure, Ctx, DequeueResult, EndpointReport, FlowEndpoint, FlowProbe,
    Packet, SimTime, SmallRng, TimerKind, Verdict,
};
use std::any::Any;

/// Run `f` as one call into `layer`.
#[inline]
fn in_span<R>(layer: Layer, is_timer: bool, f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let timed = span::enter(layer, is_timer);
    let out = f();
    (out, span::exit(layer, timed))
}

/// A queue discipline whose enqueue/dequeue calls are `aqm` spans.
pub struct TracedAqm(pub Box<dyn Aqm>);

impl Aqm for TracedAqm {
    fn enqueue(&mut self, pkt: Packet, now: SimTime, rng: &mut SmallRng) -> Verdict {
        in_span(Layer::Aqm, false, || self.0.enqueue(pkt, now, rng)).0
    }
    fn dequeue(&mut self, now: SimTime, rng: &mut SmallRng) -> DequeueResult {
        in_span(Layer::Aqm, false, || self.0.dequeue(now, rng)).0
    }
    fn backlog_bytes(&self) -> u64 {
        self.0.backlog_bytes()
    }
    fn backlog_pkts(&self) -> usize {
        self.0.backlog_pkts()
    }
    fn stats(&self) -> AqmStats {
        self.0.stats()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn control_state(&self) -> Option<f64> {
        self.0.control_state()
    }
    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        self.0.check_invariants(now, deep)
    }
}

/// A flow endpoint whose start/packet/timer callbacks are spans of `layer`
/// (`Sender` or `Receiver`).
pub struct TracedEndpoint {
    pub inner: Box<dyn FlowEndpoint>,
    pub layer: Layer,
}

impl FlowEndpoint for TracedEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx) {
        in_span(self.layer, false, || self.inner.on_start(ctx));
    }
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        in_span(self.layer, false, || self.inner.on_packet(pkt, ctx));
    }
    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
        in_span(self.layer, true, || self.inner.on_timer(kind, ctx));
    }
    fn on_mark(&mut self, now: SimTime) {
        self.inner.on_mark(now)
    }
    fn telemetry_probe(&self, now: SimTime) -> Option<FlowProbe> {
        self.inner.telemetry_probe(now)
    }
    fn check_invariants(&self) -> Vec<CheckFailure> {
        self.inner.check_invariants()
    }
    fn report(&self) -> EndpointReport {
        self.inner.report()
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// A congestion controller whose event callbacks are `cca` spans; timed
/// `on_ack` calls are also summed per algorithm.
pub struct TracedCca {
    inner: Box<dyn CongestionControl>,
    kind: usize,
}

impl TracedCca {
    pub fn new(kind: CcaKind, inner: Box<dyn CongestionControl>) -> Self {
        let kind = CcaKind::ALL
            .iter()
            .position(|&k| k == kind)
            .unwrap_or(span::N_CCA_KINDS - 1);
        TracedCca { inner, kind }
    }
}

impl CongestionControl for TracedCca {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_ack(&mut self, ev: &AckEvent, in_recovery: bool) {
        if let ((), Some(ns)) = in_span(Layer::Cca, false, || self.inner.on_ack(ev, in_recovery)) {
            span::note_on_ack(self.kind, ns);
        }
    }
    fn on_loss_event(&mut self, ev: &LossEvent) {
        in_span(Layer::Cca, false, || self.inner.on_loss_event(ev));
    }
    fn on_rto(&mut self, now: SimTime) {
        in_span(Layer::Cca, false, || self.inner.on_rto(now));
    }
    fn on_spurious_rto(&mut self, now: SimTime) {
        in_span(Layer::Cca, false, || self.inner.on_spurious_rto(now));
    }
    fn on_recovery_exit(&mut self, now: SimTime) {
        in_span(Layer::Cca, false, || self.inner.on_recovery_exit(now));
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn pacing_rate(&self) -> Option<u64> {
        self.inner.pacing_rate()
    }
    fn ssthresh(&self) -> u64 {
        self.inner.ssthresh()
    }
    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }
    fn bw_estimate(&self) -> Option<u64> {
        self.inner.bw_estimate()
    }
    fn state_snapshot(&self) -> CcaState {
        self.inner.state_snapshot()
    }
    fn check_invariants(&self, mss: u32) -> Vec<CheckFailure> {
        self.inner.check_invariants(mss)
    }
}
