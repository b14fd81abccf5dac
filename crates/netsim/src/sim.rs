//! The simulator: event loop, endpoint dispatch, run summaries.

use crate::check::{CheckFailure, CheckMode, CheckReport, Checker};
use crate::event::{Event, EventQueue, TimerKind};
use crate::fault::{FaultAction, FaultPlan};
use crate::link::LinkId;
use crate::packet::{Dir, FlowId, NodeId, Packet};
use crate::queue::AqmStats;
use crate::record::{FlowProbe, FlowSample, QueueSample, Recorder, RecorderConfig, RecorderHandle};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::rng::{SeedableRng, SmallRng};
use std::any::Any;

/// What a protocol endpoint reports at the end of a run.
///
/// Senders fill the transmit-side counters; receivers fill the
/// delivery-side counters. "Window" values count only what happened after
/// the warmup mark — the measurement window the study averages over.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndpointReport {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_sent: u64,
    /// Retransmitted segments (total).
    pub retransmits: u64,
    /// Retransmitted segments inside the measurement window.
    pub retransmits_window: u64,
    /// Retransmission timeouts fired.
    pub rto_count: u64,
    /// In-order payload bytes delivered to the application (total).
    pub delivered_bytes: u64,
    /// In-order payload bytes delivered inside the measurement window.
    pub delivered_bytes_window: u64,
    /// In-order segments delivered (total).
    pub delivered_segments: u64,
    /// Minimum RTT sample observed.
    pub min_rtt: Option<SimDuration>,
    /// Final smoothed RTT.
    pub srtt: Option<SimDuration>,
    /// Final congestion window in bytes (sender side).
    pub final_cwnd: u64,
    /// ECN CE marks seen (receiver) or echoes processed (sender).
    pub ecn_marks: u64,
}

/// A protocol endpoint attached to a host: one side of one flow.
///
/// The `elephants-tcp` crate implements this for TCP senders and receivers;
/// tests implement toy protocols directly.
pub trait FlowEndpoint: Send {
    /// The flow is starting (sender begins transmitting).
    fn on_start(&mut self, ctx: &mut Ctx);

    /// A packet addressed to this endpoint arrived.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx);

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx);

    /// The measurement window begins: snapshot counters.
    fn on_mark(&mut self, _now: SimTime) {}

    /// Telemetry read-out at a sample tick: what the flight recorder sees.
    ///
    /// Called on *sender* endpoints only, through `&self` — implementations
    /// must not mutate state or draw randomness (recording must observe,
    /// never perturb). The default — endpoints with nothing to report —
    /// returns `None` and the sample is skipped.
    fn telemetry_probe(&self, _now: SimTime) -> Option<FlowProbe> {
        None
    }

    /// Invariant probe for the strict-mode checker: structural properties
    /// that must hold after any event touching this flow (scoreboard
    /// conservation, `snd_una ≤ snd_nxt`, cwnd floor, CCA sanity).
    /// Read-only — must not mutate state or draw randomness. The default
    /// — endpoints with nothing to check — reports nothing; the common
    /// clean case returns the empty vector, which never allocates.
    fn check_invariants(&self) -> Vec<CheckFailure> {
        Vec::new()
    }

    /// Final counters for the run summary.
    fn report(&self) -> EndpointReport;

    /// Downcasting hook so experiment code can read protocol-specific state.
    fn as_any(&self) -> &dyn Any;
}

/// Handle for one armed instance of a per-endpoint timer.
///
/// Returned by [`Ctx::set_timer`]. Arming a timer kind again (or calling
/// [`Ctx::cancel_timer`]) invalidates every earlier token of that kind:
/// the superseded firing is silently dropped by the simulator. Endpoints
/// therefore *re-arm* timers instead of tracking stale deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerToken {
    kind: TimerKind,
    gen: u32,
}

impl TimerToken {
    /// The timer kind this token arms.
    pub fn kind(&self) -> TimerKind {
        self.kind
    }
}

/// Arming generations for one endpoint's timers: one counter per kind.
/// A scheduled `Timer` event fires only if its generation still matches,
/// which gives O(1) cancellation with lazy deletion in the event queue.
#[derive(Debug, Default)]
struct TimerGens {
    /// Start, Rto, Pace, DelAck.
    named: [u32; 4],
    /// `TimerKind::Custom` tags, grown on first use (tests/extensions).
    custom: Vec<(u8, u32)>,
}

impl TimerGens {
    fn named_idx(kind: TimerKind) -> Option<usize> {
        match kind {
            TimerKind::Start => Some(0),
            TimerKind::Rto => Some(1),
            TimerKind::Pace => Some(2),
            TimerKind::DelAck => Some(3),
            TimerKind::Custom(_) => None,
        }
    }

    fn current(&self, kind: TimerKind) -> u32 {
        match Self::named_idx(kind) {
            Some(i) => self.named[i],
            None => {
                let TimerKind::Custom(tag) = kind else { unreachable!() };
                self.custom.iter().find(|(t, _)| *t == tag).map_or(0, |(_, g)| *g)
            }
        }
    }

    fn bump(&mut self, kind: TimerKind) -> u32 {
        match Self::named_idx(kind) {
            Some(i) => {
                self.named[i] += 1;
                self.named[i]
            }
            None => {
                let TimerKind::Custom(tag) = kind else { unreachable!() };
                match self.custom.iter_mut().find(|(t, _)| *t == tag) {
                    Some((_, g)) => {
                        *g += 1;
                        *g
                    }
                    None => {
                        self.custom.push((tag, 1));
                        1
                    }
                }
            }
        }
    }
}

/// Per-event context handed to endpoints.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The flow this endpoint belongs to.
    pub flow: FlowId,
    /// Which side of the flow this endpoint is.
    pub dir: Dir,
    /// The host node this endpoint lives on.
    pub local: NodeId,
    /// The host node of the peer endpoint.
    pub peer: NodeId,
    /// Deterministic per-run RNG.
    pub rng: &'a mut SmallRng,
    emitted: &'a mut Vec<Packet>,
    timers: &'a mut Vec<(TimerKind, SimTime, u32)>,
    gens: &'a mut TimerGens,
}

impl Ctx<'_> {
    /// Transmit `pkt` from the local host now.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        self.emitted.push(pkt);
    }

    /// Arrange for [`FlowEndpoint::on_timer`] to be called at `at`.
    ///
    /// At most one instance per kind is armed: setting a kind again moves
    /// the firing (the previously scheduled instance is cancelled), so
    /// endpoints re-arm freely instead of filtering stale firings. Times in
    /// the past are clamped to `now` — the timer fires as soon as possible.
    #[inline]
    pub fn set_timer(&mut self, kind: TimerKind, at: SimTime) -> TimerToken {
        let at = at.max(self.now);
        let gen = self.gens.bump(kind);
        self.timers.push((kind, at, gen));
        TimerToken { kind, gen }
    }

    /// Cancel the armed instance of `kind`, if any. Idempotent.
    #[inline]
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.gens.bump(kind);
    }
}

struct FlowSlot {
    sender_node: NodeId,
    receiver_node: NodeId,
    sender: Box<dyn FlowEndpoint>,
    receiver: Box<dyn FlowEndpoint>,
    sender_gens: TimerGens,
    receiver_gens: TimerGens,
    start: SimTime,
}

/// Run-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Total simulated time.
    pub duration: SimDuration,
    /// Time at which the measurement window opens.
    pub warmup: SimDuration,
    /// Hard cap on processed events (runaway protection).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(2),
            max_events: u64::MAX,
        }
    }
}

/// Per-flow slice of a [`RunSummary`].
#[derive(Debug, Clone, Copy)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Host the sender ran on.
    pub sender_node: NodeId,
    /// Sender-side counters.
    pub sender: EndpointReport,
    /// Receiver-side counters.
    pub receiver: EndpointReport,
}

impl FlowReport {
    /// Goodput over the measurement window, bits per second.
    pub fn window_goodput_bps(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.receiver.delivered_bytes_window as f64 * 8.0 / window.as_secs_f64()
    }
}

/// Bottleneck-link counters over the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BottleneckReport {
    /// Bytes serialized over the whole run.
    pub bytes_tx_total: u64,
    /// Bytes serialized inside the measurement window.
    pub bytes_tx_window: u64,
    /// Queue-discipline counters (whole run).
    pub aqm: AqmStats,
    /// Packets destroyed by fault injection.
    pub fault_losses: u64,
    /// Packets destroyed while a fault held the link down.
    pub down_drops: u64,
    /// Largest bottleneck-queue depth observed, in packets.
    pub peak_qlen_pkts: u64,
    /// Fault-plan events that actually fired before the run ended
    /// (events scheduled past `duration` never fire and are not counted).
    pub fault_events_applied: u64,
}

/// One instrumented link's counters in a [`RunSummary`].
#[derive(Debug, Clone, Copy)]
pub struct LinkReport {
    /// The link.
    pub link: LinkId,
    /// The link's serialization rate at the end of the run, bits/s (for
    /// per-link utilization; mid-run `SetBandwidth` faults move it).
    pub rate_bps: u64,
    /// The link's counters.
    pub report: BottleneckReport,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-flow reports, indexed by flow id.
    pub flows: Vec<FlowReport>,
    /// Primary-bottleneck counters (the first designated link); kept as a
    /// scalar so single-bottleneck consumers are untouched.
    pub bottleneck: BottleneckReport,
    /// Per-bottleneck-link counters, in designation order. Length 1 on a
    /// dumbbell, one entry per shaped hop on a parking lot.
    pub links: Vec<LinkReport>,
    /// Length of the measurement window.
    pub window: SimDuration,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Events processed.
    pub events_processed: u64,
}

/// The discrete-event simulator.
///
/// Owns the topology, the flows and the event queue; `run()` drives
/// everything to completion deterministically.
pub struct Simulator {
    topo: Topology,
    flows: Vec<FlowSlot>,
    events: EventQueue,
    rng: SmallRng,
    cfg: SimConfig,
    now: SimTime,
    marked: bool,
    started: bool,
    processed: u64,
    /// `bytes_tx` of each designated bottleneck link at the warmup mark,
    /// aligned with `topo.bottleneck_links()`.
    mark_bytes: Vec<u64>,
    /// Installed fault actions; `Event::Fault { idx }` indexes this table.
    fault_actions: Vec<FaultAction>,
    /// Flight-recorder slot; empty by default (recording off).
    recorder: RecorderHandle,
    /// Invariant-checker slot; empty by default (checking off). Same
    /// zero-cost-when-off discipline as the recorder: the hot loop pays
    /// one predictable untaken branch per event.
    checker: Option<Box<Checker>>,
    /// Subject of the event in flight (set by `checker_pre_event`, read by
    /// `run_event_checks`); meaningless while checking is off.
    check_subject: (Option<FlowId>, Option<LinkId>),
    scratch_pkts: Vec<Packet>,
    scratch_timers: Vec<(TimerKind, SimTime, u32)>,
}

impl Simulator {
    /// Create a simulator over `topo` with deterministic seed `seed`.
    pub fn new(topo: Topology, cfg: SimConfig, seed: u64) -> Self {
        assert!(cfg.warmup <= cfg.duration, "warmup longer than run");
        // A zero-width measurement window (warmup == duration on a nonzero
        // run) would make every windowed rate a division by zero downstream.
        assert!(
            cfg.duration.is_zero() || cfg.warmup < cfg.duration,
            "zero-width measurement window: warmup ({:?}) must be shorter than duration ({:?})",
            cfg.warmup,
            cfg.duration,
        );
        Simulator {
            topo,
            flows: Vec::new(),
            events: EventQueue::new(),
            rng: SmallRng::seed_from_u64(seed),
            cfg,
            now: SimTime::ZERO,
            marked: false,
            started: false,
            processed: 0,
            mark_bytes: Vec::new(),
            fault_actions: Vec::new(),
            recorder: RecorderHandle::null(),
            checker: None,
            check_subject: (None, None),
            scratch_pkts: Vec::with_capacity(64),
            scratch_timers: Vec::with_capacity(8),
        }
    }

    /// Access the topology (e.g. to install the bottleneck AQM).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Shared access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a flow between two host nodes; returns its id.
    ///
    /// The flow starts (sender's `on_start`) at `start`.
    pub fn add_flow(
        &mut self,
        sender_node: NodeId,
        receiver_node: NodeId,
        sender: Box<dyn FlowEndpoint>,
        receiver: Box<dyn FlowEndpoint>,
        start: SimTime,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowSlot {
            sender_node,
            receiver_node,
            sender,
            receiver,
            sender_gens: TimerGens::default(),
            receiver_gens: TimerGens::default(),
            start,
        });
        id
    }

    /// Number of registered flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Install a validated [`FaultPlan`] on `link`.
    ///
    /// Each event is scheduled through the ordinary event queue (timer
    /// wheel + heap), interleaving with packet and timer events in the
    /// engine's exact `(time, seq)` total order — a faulted fixed-seed run
    /// is therefore just as byte-reproducible as an un-faulted one.
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`]; validate
    /// user-supplied plans before they reach the simulator.
    pub fn install_fault_plan(&mut self, link: LinkId, plan: &FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        for ev in &plan.events {
            let idx = self.fault_actions.len() as u32;
            self.fault_actions.push(ev.action);
            self.events.schedule(SimTime::ZERO + ev.at, Event::Fault { link, idx });
        }
    }

    /// Install a flight recorder and start the sample clock.
    ///
    /// The first tick fires one interval into the run; each tick re-arms
    /// itself until the configured duration. Sample ticks read state
    /// through `&self` accessors, draw no randomness, and are excluded
    /// from the processed-event counter, so a recorded run reports the
    /// same metrics, byte for byte, as an unrecorded one.
    pub fn install_recorder(&mut self, rec: Box<dyn Recorder>, cfg: RecorderConfig) {
        self.recorder.install(rec, cfg);
        self.events.schedule(SimTime::ZERO + cfg.interval, Event::Sample);
    }

    /// Remove and return the installed recorder (post-run recovery).
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Whether a recorder is installed.
    pub fn recording(&self) -> bool {
        self.recorder.is_active()
    }

    /// Enable runtime invariant checking for this run.
    ///
    /// [`CheckMode::Audit`] counts violations into a [`CheckReport`];
    /// [`CheckMode::Strict`] panics on the first one; [`CheckMode::Off`]
    /// removes any installed checker. Checking observes and never
    /// perturbs: a checked run produces byte-identical metrics to an
    /// unchecked one.
    pub fn set_check_mode(&mut self, mode: CheckMode) {
        self.checker = match mode {
            CheckMode::Off => None,
            m => Some(Box::new(Checker::new(m))),
        };
    }

    /// Remove the checker and return its report (post-run recovery).
    pub fn take_check_report(&mut self) -> Option<CheckReport> {
        self.checker.take().map(|c| c.into_report())
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// True when the run stopped on the `max_events` budget with work still
    /// pending — the signature of a runaway configuration.
    pub fn budget_exhausted(&mut self) -> bool {
        self.processed >= self.cfg.max_events && self.events.peek_time().is_some()
    }

    /// Borrow a flow's sender endpoint (for downcasting in tests/analysis).
    pub fn sender(&self, flow: FlowId) -> &dyn FlowEndpoint {
        self.flows[flow.0 as usize].sender.as_ref()
    }

    /// Borrow a flow's receiver endpoint.
    pub fn receiver(&self, flow: FlowId) -> &dyn FlowEndpoint {
        self.flows[flow.0 as usize].receiver.as_ref()
    }

    fn start_flows_once(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, slot) in self.flows.iter().enumerate() {
            self.events.schedule(
                slot.start,
                Event::Timer {
                    flow: FlowId(i as u32),
                    dir: Dir::Sender,
                    kind: TimerKind::Start,
                    gen: slot.sender_gens.current(TimerKind::Start),
                },
            );
        }
    }

    /// Advance the simulation up to (and including) time `until`.
    ///
    /// Can be called repeatedly with increasing times to step the
    /// simulation and inspect state in between (endpoints, link/queue
    /// stats). `run()` drives this to `cfg.duration` and builds the
    /// summary.
    ///
    /// Check dispatch is decided *here*, once per call, not per event: the
    /// `checker.is_some()` test is hoisted into a register-resident flag
    /// that the loop, the private `deliver`, and the per-emitted-packet
    /// path of the private `dispatch` branch on, instead of re-loading
    /// and testing the checker `Option` at every site. The checker can
    /// only be (un)installed between `run_until` calls, so the one-time
    /// selection is exact, and the checked path sees byte-for-byte the
    /// same event schedule — checking still observes, never perturbs.
    ///
    /// A `const CHECKED: bool` monomorphization of the loop (two
    /// branch-free instantiations) was tried first and *measured slower*
    /// on the benchmark host than this spelling — duplicating the event
    /// loop doubles its instruction footprint and perturbs LLVM's
    /// inlining of the dispatch fan-out, which costs more than the
    /// predicted-not-taken flag tests save. See DESIGN.md §3d.
    pub fn run_until(&mut self, until: SimTime) {
        let checked = self.checker.is_some();
        self.run_until_impl(checked, until);
    }

    fn run_until_impl(&mut self, checked: bool, until: SimTime) {
        self.start_flows_once();
        let mark_at = SimTime::ZERO + self.cfg.warmup;
        while let Some(at) = self.events.peek_time() {
            if at > until {
                break;
            }
            if self.processed >= self.cfg.max_events {
                break;
            }
            let (at, ev) = self.events.pop().expect("peeked");
            if !self.marked && at >= mark_at {
                self.do_mark(mark_at);
            }
            self.now = at;
            // Sample ticks are excluded from the processed count: the
            // counter (and the max_events budget it feeds) must mean the
            // same thing whether or not a recorder is installed.
            if !matches!(ev, Event::Sample) {
                self.processed += 1;
            }
            if checked {
                self.checker_pre_event(at, &ev);
            }
            match ev {
                Event::LinkTxDone { link } => {
                    let now = self.now;
                    self.topo.link_mut(link).on_tx_done(now, &mut self.events, &mut self.rng);
                }
                Event::Deliver { node, pkt } => {
                    let pkt = self.events.take_packet(pkt);
                    self.deliver(checked, node, pkt);
                }
                Event::Fault { link, idx } => {
                    let action = self.fault_actions[idx as usize];
                    let now = self.now;
                    self.topo
                        .link_mut(link)
                        .apply_fault(action, now, &mut self.events, &mut self.rng);
                }
                Event::Sample => {
                    let now = self.now;
                    self.sample_tick(now);
                    let next = now + self.recorder.config().interval;
                    if self.recorder.is_active() && next <= SimTime::ZERO + self.cfg.duration {
                        self.events.schedule(next, Event::Sample);
                    }
                }
                Event::Timer { flow, dir, kind, gen } => {
                    // Lazy cancellation: a firing from a superseded arming
                    // (re-armed or cancelled since) is dropped unseen.
                    let slot = &self.flows[flow.0 as usize];
                    let current = match dir {
                        Dir::Sender => slot.sender_gens.current(kind),
                        Dir::Receiver => slot.receiver_gens.current(kind),
                    };
                    if gen != current {
                        continue;
                    }
                    self.dispatch(checked, flow, dir, |ep, ctx| match kind {
                        TimerKind::Start => ep.on_start(ctx),
                        k => ep.on_timer(k, ctx),
                    });
                }
            }
            if checked {
                self.run_event_checks();
            }
        }
        self.now = until.max(self.now);
    }

    /// Checker preamble: time monotonicity is verified on every pop —
    /// including firings the Timer arm drops as cancelled, which still
    /// must come off the wheel in (time, seq) order. The event's subject
    /// (flow/link) is captured before the event consumes it, for
    /// attribution in the post-event checks.
    #[cold]
    #[inline(never)]
    fn checker_pre_event(&mut self, at: SimTime, ev: &Event) {
        let subject = match ev {
            Event::Deliver { pkt, .. } => (Some(self.events.packet(*pkt).flow), None),
            Event::Timer { flow, .. } => (Some(*flow), None),
            Event::LinkTxDone { link } | Event::Fault { link, .. } => (None, Some(*link)),
            Event::Sample => (None, None),
        };
        self.check_subject = subject;
        if let Some(ck) = self.checker.as_deref_mut() {
            ck.on_event(at, self.processed);
        }
    }

    /// Post-event invariant checks against the event's subject (stashed by
    /// [`Simulator::checker_pre_event`]): the touched flow's sender-side
    /// structure (scoreboard, CCA) and/or the touched link's queue
    /// accounting. Take/put-back lets the checker and the rest of `self`
    /// be borrowed together.
    #[cold]
    #[inline(never)]
    fn run_event_checks(&mut self) {
        let (flow, link) = self.check_subject;
        let Some(mut ck) = self.checker.take() else { return };
        let (now, seq) = (self.now, self.processed);
        if let Some(f) = flow {
            let fails = self.flows[f.0 as usize].sender.check_invariants();
            if !fails.is_empty() {
                ck.record(fails, Some(f.0 as u64), None, seq, now);
            }
        }
        if let Some(l) = link {
            let fails = self.topo.link(l).aqm.check_invariants(now, false);
            if !fails.is_empty() {
                ck.record(fails, None, Some(l.0 as u64), seq, now);
            }
        }
        self.checker = Some(ck);
    }

    /// Finalize-time checks: global packet conservation summed over every
    /// link, the *per-link* conservation identities, the deep (O(n))
    /// per-queue scans, and a last pass over every flow's structural
    /// invariants.
    ///
    /// The per-link identities localize what the global sum can only
    /// detect in aggregate (on a multi-bottleneck topology, two
    /// compensating miscounts on different hops cancel globally):
    ///
    /// * **offer conservation** — every packet offered to a link's egress
    ///   is down-dropped, still queued, dropped by the AQM (at enqueue or
    ///   dequeue), or was dequeued:
    ///   `pkts_offered == down_drops + dequeued + dropped_enqueue +
    ///   dropped_dequeue + backlog`. (FqCodel's cross-flow eviction is
    ///   covered because evicted packets count in `dropped_enqueue`, and
    ///   `enqueued` — whose eviction bookkeeping differs per AQM — does
    ///   not appear.)
    /// * **tx accounting** — every dequeued packet was serialized exactly
    ///   once: `pkts_tx == dequeued`.
    fn run_final_checks(&mut self) {
        let Some(mut ck) = self.checker.take() else { return };
        let (now, seq) = (self.now, self.processed);
        let (mut dropped, mut resident) = (0u64, 0u64);
        for link in self.topo.links() {
            let ls = link.stats();
            let qs = link.aqm.stats();
            dropped += qs.dropped_enqueue + qs.dropped_dequeue + ls.down_drops + ls.fault_losses;
            let backlog = link.aqm.backlog_pkts() as u64;
            resident += backlog;
            let mut fails = link.aqm.check_invariants(now, true);
            let accounted =
                ls.down_drops + qs.dequeued + qs.dropped_enqueue + qs.dropped_dequeue + backlog;
            if ls.pkts_offered != accounted {
                fails.push(CheckFailure::new(
                    "link_conservation",
                    format!(
                        "offered {} != down_drops {} + dequeued {} + dropped_enqueue {} \
                         + dropped_dequeue {} + backlog {}",
                        ls.pkts_offered,
                        ls.down_drops,
                        qs.dequeued,
                        qs.dropped_enqueue,
                        qs.dropped_dequeue,
                        backlog
                    ),
                ));
            }
            if ls.pkts_tx != qs.dequeued {
                fails.push(CheckFailure::new(
                    "link_tx_accounting",
                    format!("pkts_tx {} != dequeued {}", ls.pkts_tx, qs.dequeued),
                ));
            }
            if !fails.is_empty() {
                ck.record(fails, None, Some(link.id.0 as u64), seq, now);
            }
        }
        let in_flight = self.events.packets_live() as u64;
        ck.check_packet_conservation(dropped, resident, in_flight, seq, now);
        for (i, slot) in self.flows.iter().enumerate() {
            let fails = slot.sender.check_invariants();
            if !fails.is_empty() {
                ck.record(fails, Some(i as u64), None, seq, now);
            }
        }
        self.checker = Some(ck);
    }

    /// Run to completion and produce the summary.
    pub fn run(&mut self) -> RunSummary {
        let end = SimTime::ZERO + self.cfg.duration;
        self.run_until(end);
        self.finalize()
    }

    /// Close out a run driven by [`Simulator::run_until`] and produce the
    /// summary: `run()` is exactly `run_until(duration)` + `finalize()`, so
    /// callers that step the clock themselves (tracing, watchdogs) get
    /// byte-identical summaries to a one-shot run.
    pub fn finalize(&mut self) -> RunSummary {
        // A run shorter than the warmup still needs a (degenerate) mark.
        if !self.marked {
            self.do_mark(SimTime::ZERO + self.cfg.warmup);
        }
        self.now = SimTime::ZERO + self.cfg.duration;
        self.run_final_checks();
        self.summary(self.processed)
    }

    fn do_mark(&mut self, at: SimTime) {
        self.marked = true;
        for slot in &mut self.flows {
            slot.sender.on_mark(at);
            slot.receiver.on_mark(at);
        }
        self.mark_bytes = self
            .topo
            .bottleneck_links()
            .iter()
            .map(|&l| self.topo.link(l).stats().bytes_tx)
            .collect();
    }

    /// One sample tick: read flow and bottleneck-queue state into the
    /// recorder. Pure observation — no endpoint mutation, no RNG draws.
    fn sample_tick(&mut self, now: SimTime) {
        let cfg = self.recorder.config();
        let Some(rec) = self.recorder.recorder_mut() else { return };
        if cfg.flows {
            for (i, slot) in self.flows.iter().enumerate() {
                if let Some(probe) = slot.sender.telemetry_probe(now) {
                    rec.on_flow_sample(&FlowSample {
                        t: now,
                        flow: FlowId(i as u32),
                        probe,
                        delivered_bytes: slot.receiver.report().delivered_bytes,
                        retx: slot.sender.report().retransmits,
                    });
                }
            }
        }
        if cfg.queue {
            for &bn in self.topo.bottleneck_links() {
                let link = self.topo.link(bn);
                let stats = link.aqm_stats();
                rec.on_queue_sample(&QueueSample {
                    t: now,
                    link: bn,
                    backlog_pkts: link.aqm.backlog_pkts() as u64,
                    backlog_bytes: link.aqm.backlog_bytes(),
                    dropped: stats.dropped_total(),
                    marked: stats.marked,
                    control: link.aqm.control_state(),
                });
            }
        }
    }

    fn deliver(&mut self, checked: bool, node: NodeId, pkt: Packet) {
        use crate::topology::NodeKind;
        match self.topo.kind(node) {
            NodeKind::Router => {
                let Some(link) = self.topo.route(node, pkt.dst) else {
                    debug_assert!(false, "no route from {node:?} to {:?}", pkt.dst);
                    return;
                };
                let now = self.now;
                self.topo.link_mut(link).offer(pkt, now, &mut self.events, &mut self.rng);
            }
            NodeKind::Host => {
                debug_assert_eq!(pkt.dst, node, "packet delivered to wrong host");
                if checked {
                    if let Some(ck) = self.checker.as_deref_mut() {
                        ck.note_delivered();
                    }
                }
                // Data packets go to the receiver endpoint, ACKs to the sender.
                let dir = if pkt.is_data() { Dir::Receiver } else { Dir::Sender };
                self.dispatch(checked, pkt.flow, dir, |ep, ctx| ep.on_packet(&pkt, ctx));
            }
        }
    }

    fn dispatch(
        &mut self,
        checked: bool,
        flow: FlowId,
        dir: Dir,
        f: impl FnOnce(&mut dyn FlowEndpoint, &mut Ctx),
    ) {
        let mut emitted = std::mem::take(&mut self.scratch_pkts);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        let local;
        {
            let slot = &mut self.flows[flow.0 as usize];
            let (ep, gens, l, peer) = match dir {
                Dir::Sender => {
                    (slot.sender.as_mut(), &mut slot.sender_gens, slot.sender_node, slot.receiver_node)
                }
                Dir::Receiver => {
                    (slot.receiver.as_mut(), &mut slot.receiver_gens, slot.receiver_node, slot.sender_node)
                }
            };
            local = l;
            let mut ctx = Ctx {
                now: self.now,
                flow,
                dir,
                local,
                peer,
                rng: &mut self.rng,
                emitted: &mut emitted,
                timers: &mut timers,
                gens,
            };
            f(ep, &mut ctx);
        }
        for (kind, at, gen) in timers.drain(..) {
            self.events.schedule(at, Event::Timer { flow, dir, kind, gen });
        }
        for pkt in emitted.drain(..) {
            let Some(link) = self.topo.route(local, pkt.dst) else {
                debug_assert!(false, "no route from host {local:?} to {:?}", pkt.dst);
                continue;
            };
            if checked {
                if let Some(ck) = self.checker.as_deref_mut() {
                    ck.note_injected();
                }
            }
            let now = self.now;
            self.topo.link_mut(link).offer(pkt, now, &mut self.events, &mut self.rng);
        }
        self.scratch_pkts = emitted;
        self.scratch_timers = timers;
    }

    fn summary(&self, processed: u64) -> RunSummary {
        let flows = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, slot)| FlowReport {
                flow: FlowId(i as u32),
                sender_node: slot.sender_node,
                sender: slot.sender.report(),
                receiver: slot.receiver.report(),
            })
            .collect();
        let links: Vec<LinkReport> = self
            .topo
            .bottleneck_links()
            .iter()
            .enumerate()
            .map(|(i, &bn)| {
                let link = self.topo.link(bn);
                // Before the mark fires `mark_bytes` is empty (degenerate
                // zero-warmup slices); treat the mark snapshot as zero.
                let mark = self.mark_bytes.get(i).copied().unwrap_or(0);
                LinkReport {
                    link: bn,
                    rate_bps: link.rate.as_bps(),
                    report: BottleneckReport {
                        bytes_tx_total: link.stats().bytes_tx,
                        bytes_tx_window: link.stats().bytes_tx - mark,
                        aqm: link.aqm_stats(),
                        fault_losses: link.stats().fault_losses,
                        down_drops: link.stats().down_drops,
                        peak_qlen_pkts: link.stats().peak_qlen_pkts,
                        fault_events_applied: link.stats().fault_events_applied,
                    },
                }
            })
            .collect();
        let bottleneck = links.first().map(|l| l.report).unwrap_or_default();
        RunSummary {
            flows,
            bottleneck,
            links,
            window: self.cfg.duration - self.cfg.warmup,
            duration: self.cfg.duration,
            events_processed: processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use crate::packet::{AckInfo, PacketKind};
    use crate::topology::DumbbellSpec;
    use crate::units::Bandwidth;

    /// A toy sender: blasts `n` fixed-size segments at start, counts ACKs.
    struct BlastSender {
        peer: NodeId,
        n: u64,
        size: u32,
        acked: u64,
        report: EndpointReport,
    }

    impl FlowEndpoint for BlastSender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for seq in 0..self.n {
                let pkt = Packet::data(ctx.flow, ctx.local, self.peer, seq, self.size, ctx.now);
                ctx.send(pkt);
                self.report.data_segments_sent += 1;
            }
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
            if let PacketKind::Ack(info) = pkt.kind {
                self.acked = self.acked.max(info.cum);
            }
        }
        fn on_timer(&mut self, _k: TimerKind, _ctx: &mut Ctx) {}
        fn report(&self) -> EndpointReport {
            self.report
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// A toy receiver: acks every data packet cumulatively (in-order only).
    struct CountingReceiver {
        peer: NodeId,
        next: u64,
        report: EndpointReport,
    }

    impl FlowEndpoint for CountingReceiver {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
            if pkt.is_data() {
                if pkt.seq == self.next {
                    self.next += 1;
                    self.report.delivered_segments += 1;
                    self.report.delivered_bytes += pkt.size as u64;
                }
                let ack = Packet::ack(
                    ctx.flow,
                    ctx.local,
                    self.peer,
                    pkt.seq,
                    AckInfo::cumulative(self.next),
                    ctx.now,
                );
                ctx.send(ack);
            }
        }
        fn on_timer(&mut self, _k: TimerKind, _ctx: &mut Ctx) {}
        fn report(&self) -> EndpointReport {
            self.report
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn build_sim() -> Simulator {
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let topo = spec.build();
        let cfg = SimConfig {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::ZERO,
            max_events: u64::MAX,
        };
        Simulator::new(topo, cfg, 42)
    }

    fn add_blast(sim: &mut Simulator, pair: usize, n: u64) -> FlowId {
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let s = spec.sender(pair);
        let r = spec.receiver(pair);
        sim.add_flow(
            s,
            r,
            Box::new(BlastSender { peer: r, n, size: 1250, acked: 0, report: Default::default() }),
            Box::new(CountingReceiver { peer: s, next: 0, report: Default::default() }),
            SimTime::ZERO,
        )
    }

    #[test]
    fn end_to_end_delivery_and_ack() {
        let mut sim = build_sim();
        let flow = add_blast(&mut sim, 0, 10);
        let summary = sim.run();
        let rep = &summary.flows[flow.0 as usize];
        assert_eq!(rep.receiver.delivered_segments, 10);
        assert_eq!(rep.receiver.delivered_bytes, 12_500);
        // The sender observed the final cumulative ACK.
        let sender = sim.sender(flow).as_any().downcast_ref::<BlastSender>().unwrap();
        assert_eq!(sender.acked, 10);
    }

    #[test]
    fn rtt_floor_respected() {
        // One tiny packet: delivery after one-way latency; ACK after full RTT.
        let mut sim = build_sim();
        let flow = add_blast(&mut sim, 0, 1);
        sim.run();
        let sender = sim.sender(flow).as_any().downcast_ref::<BlastSender>().unwrap();
        assert_eq!(sender.acked, 1);
    }

    #[test]
    fn two_flows_share_bottleneck_counters() {
        let mut sim = build_sim();
        add_blast(&mut sim, 0, 100);
        add_blast(&mut sim, 1, 100);
        let summary = sim.run();
        assert_eq!(summary.flows.len(), 2);
        // All 200 data packets crossed the bottleneck.
        assert_eq!(summary.bottleneck.aqm.dequeued, 200);
        assert_eq!(summary.bottleneck.bytes_tx_total, 200 * 1250);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = build_sim();
            add_blast(&mut sim, 0, 50);
            add_blast(&mut sim, 1, 50);
            let s = sim.run();
            (s.events_processed, s.bottleneck.bytes_tx_total)
        };
        assert_eq!(run(), run());
    }

    /// Exercises the timer API edge cases: past deadlines, re-arming,
    /// cancellation.
    struct TimerProbe {
        fires: Vec<(u8, SimTime)>,
    }

    impl FlowEndpoint for TimerProbe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // A deadline in the past is clamped to `now` (fires asap) in
            // all builds, rather than corrupting the event order.
            ctx.set_timer(TimerKind::Custom(0), SimTime::ZERO);
            // Re-arming the same kind supersedes the earlier instance.
            ctx.set_timer(TimerKind::Custom(1), ctx.now + SimDuration::from_millis(10));
            ctx.set_timer(TimerKind::Custom(1), ctx.now + SimDuration::from_millis(20));
            // A cancelled instance never fires.
            ctx.set_timer(TimerKind::Custom(2), ctx.now + SimDuration::from_millis(15));
            ctx.cancel_timer(TimerKind::Custom(2));
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, kind: TimerKind, ctx: &mut Ctx) {
            let TimerKind::Custom(tag) = kind else { panic!("unexpected {kind:?}") };
            self.fires.push((tag, ctx.now));
        }
        fn report(&self) -> EndpointReport {
            EndpointReport::default()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timer_clamp_rearm_and_cancel() {
        let mut sim = build_sim();
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let start = SimTime::ZERO + SimDuration::from_millis(5);
        let flow = sim.add_flow(
            spec.sender(0),
            spec.receiver(0),
            Box::new(TimerProbe { fires: Vec::new() }),
            Box::new(CountingReceiver { peer: spec.sender(0), next: 0, report: Default::default() }),
            start,
        );
        sim.run();
        let probe = sim.sender(flow).as_any().downcast_ref::<TimerProbe>().unwrap();
        assert_eq!(
            probe.fires,
            vec![
                // Past deadline fired immediately at the flow's start time.
                (0, start),
                // Only the re-armed instance fired; the cancelled one never did.
                (1, start + SimDuration::from_millis(20)),
            ]
        );
    }

    #[test]
    fn fault_plan_dispatches_in_time_order() {
        use crate::fault::{FaultAction, FaultPlan};
        let mut sim = build_sim();
        add_blast(&mut sim, 0, 100);
        let bn = sim.topology().bottleneck_link().unwrap();
        let plan = FaultPlan::flap(SimDuration::from_millis(10), SimDuration::from_millis(50))
            .with(
                SimDuration::from_millis(100),
                FaultAction::SetBandwidth(crate::units::Bandwidth::from_mbps(50)),
            );
        sim.install_fault_plan(bn, &plan);
        let summary = sim.run();
        let link = sim.topology().link(bn);
        assert_eq!(link.stats().fault_events_applied, 3);
        assert!(link.is_up(), "LinkUp must have fired after LinkDown");
        assert_eq!(link.rate, crate::units::Bandwidth::from_mbps(50));
        // The blast starts at t=0 and the flap cuts in at 10 ms: some of the
        // 100 packets are destroyed at the dark link.
        assert!(link.stats().down_drops > 0 || summary.bottleneck.bytes_tx_total > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::fault::{FaultAction, FaultPlan, LossModel};
        let run = || {
            let mut sim = build_sim();
            add_blast(&mut sim, 0, 200);
            add_blast(&mut sim, 1, 200);
            let bn = sim.topology().bottleneck_link().unwrap();
            let plan = FaultPlan::flap(SimDuration::from_millis(20), SimDuration::from_millis(30))
                .with(
                    SimDuration::from_millis(60),
                    FaultAction::SetLossModel(LossModel::GilbertElliott { p_gb: 0.05, p_bg: 0.3 }),
                );
            sim.install_fault_plan(bn, &plan);
            let s = sim.run();
            let st = sim.topology().link(bn).stats();
            (s.events_processed, st.pkts_tx, st.down_drops, st.fault_losses)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn installing_invalid_plan_panics() {
        use crate::fault::{FaultAction, FaultEvent, FaultPlan};
        let mut sim = build_sim();
        let bn = sim.topology().bottleneck_link().unwrap();
        let plan = FaultPlan {
            events: vec![
                FaultEvent { at: SimDuration::from_secs(2), action: FaultAction::LinkDown },
                FaultEvent { at: SimDuration::from_secs(1), action: FaultAction::LinkUp },
            ],
        };
        sim.install_fault_plan(bn, &plan);
    }

    #[test]
    fn sliced_run_with_finalize_matches_one_shot() {
        use crate::fault::FaultPlan;
        let run_one_shot = || {
            let mut sim = build_sim();
            add_blast(&mut sim, 0, 100);
            let bn = sim.topology().bottleneck_link().unwrap();
            sim.install_fault_plan(
                bn,
                &FaultPlan::flap(SimDuration::from_millis(50), SimDuration::from_millis(100)),
            );
            let s = sim.run();
            (s.events_processed, s.bottleneck.bytes_tx_total, s.bottleneck.bytes_tx_window)
        };
        let run_sliced = || {
            let mut sim = build_sim();
            add_blast(&mut sim, 0, 100);
            let bn = sim.topology().bottleneck_link().unwrap();
            sim.install_fault_plan(
                bn,
                &FaultPlan::flap(SimDuration::from_millis(50), SimDuration::from_millis(100)),
            );
            let end = SimTime::ZERO + SimDuration::from_secs(2);
            let mut t = SimTime::ZERO;
            while t < end {
                t = (t + SimDuration::from_millis(73)).min(end);
                sim.run_until(t);
            }
            let s = sim.finalize();
            (s.events_processed, s.bottleneck.bytes_tx_total, s.bottleneck.bytes_tx_window)
        };
        assert_eq!(run_one_shot(), run_sliced());
    }

    #[test]
    fn budget_exhaustion_is_detectable() {
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let topo = spec.build();
        let cfg = SimConfig {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::ZERO,
            max_events: 10,
        };
        let mut sim = Simulator::new(topo, cfg, 1);
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let (s, r) = (spec.sender(0), spec.receiver(0));
        sim.add_flow(
            s,
            r,
            Box::new(BlastSender { peer: r, n: 100, size: 1250, acked: 0, report: Default::default() }),
            Box::new(CountingReceiver { peer: s, next: 0, report: Default::default() }),
            SimTime::ZERO,
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(sim.budget_exhausted(), "10-event budget must trip on a 100-packet blast");
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn strict_checker_passes_a_clean_run_without_perturbing_it() {
        use crate::check::CheckMode;
        let run = |mode: CheckMode| {
            let mut sim = build_sim();
            add_blast(&mut sim, 0, 100);
            add_blast(&mut sim, 1, 100);
            sim.set_check_mode(mode);
            let s = sim.run();
            let report = sim.take_check_report();
            ((s.events_processed, s.bottleneck.bytes_tx_total), report)
        };
        let (plain, none) = run(CheckMode::Off);
        assert!(none.is_none());
        let (strict, report) = run(CheckMode::Strict);
        // Checking observes, never perturbs: identical summary.
        assert_eq!(plain, strict);
        let report = report.unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.events_checked > 0);
    }

    #[test]
    fn checker_conservation_covers_faulted_runs() {
        use crate::check::CheckMode;
        use crate::fault::{FaultAction, FaultPlan, LossModel};
        // Flap + random loss exercise every terminal packet state:
        // delivered, down-dropped, fault-lost, and queue-resident.
        let mut sim = build_sim();
        add_blast(&mut sim, 0, 200);
        add_blast(&mut sim, 1, 200);
        let bn = sim.topology().bottleneck_link().unwrap();
        let plan = FaultPlan::flap(SimDuration::from_millis(20), SimDuration::from_millis(30))
            .with(
                SimDuration::from_millis(60),
                FaultAction::SetLossModel(LossModel::GilbertElliott { p_gb: 0.05, p_bg: 0.3 }),
            );
        sim.install_fault_plan(bn, &plan);
        sim.set_check_mode(CheckMode::Strict);
        sim.run();
        let report = sim.take_check_report().unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn parking_lot_reports_per_link_and_passes_strict_checks() {
        use crate::check::CheckMode;
        use crate::topology::TopologySpec;
        let topo = TopologySpec::ParkingLot { hops: 3 }
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap();
        let hosts: Vec<(NodeId, NodeId)> =
            topo.sender_hosts().iter().copied().zip(topo.receiver_hosts().iter().copied()).collect();
        let cfg = SimConfig {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::ZERO,
            max_events: u64::MAX,
        };
        let mut sim = Simulator::new(topo, cfg, 7);
        // One blast per group: the long flow plus each cross flow.
        for (s, r) in hosts {
            sim.add_flow(
                s,
                r,
                Box::new(BlastSender {
                    peer: r,
                    n: 50,
                    size: 1250,
                    acked: 0,
                    report: Default::default(),
                }),
                Box::new(CountingReceiver { peer: s, next: 0, report: Default::default() }),
                SimTime::ZERO,
            );
        }
        sim.set_check_mode(CheckMode::Strict);
        let summary = sim.run();
        let report = sim.take_check_report().unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // One summary entry per shaped hop; the first mirrors `bottleneck`.
        assert_eq!(summary.links.len(), 3);
        assert_eq!(summary.links[0].report.bytes_tx_total, summary.bottleneck.bytes_tx_total);
        // Hop 0 carries the long group + cross group 1 (100 pkts); the
        // last hop carries the long group + cross group 3.
        assert_eq!(summary.links[0].report.aqm.dequeued, 100);
        assert_eq!(summary.links[2].report.aqm.dequeued, 100);
        // Every flow completed end to end.
        for rep in &summary.flows {
            assert_eq!(rep.receiver.delivered_segments, 50);
        }
    }

    #[test]
    fn window_counters_reset_at_mark() {
        let spec = DumbbellSpec::paper(Bandwidth::from_mbps(100));
        let topo = spec.build();
        let cfg = SimConfig {
            duration: SimDuration::from_secs(2),
            // Mark after everything is done: window counts must be 0.
            warmup: SimDuration::from_millis(1900),
            max_events: u64::MAX,
        };
        let mut sim = Simulator::new(topo, cfg, 1);
        let flow = add_blast(&mut sim, 0, 10);
        let summary = sim.run();
        let rep = &summary.flows[flow.0 as usize];
        assert_eq!(rep.receiver.delivered_bytes_window, 0);
        assert_eq!(summary.bottleneck.bytes_tx_window, 0);
    }
}
