//! Build and execute one scenario in the simulator.
//!
//! The entrypoint is the [`Runner`] builder:
//!
//! ```no_run
//! use elephants_experiments::prelude::*;
//! use elephants_experiments::runner::Runner;
//!
//! let cfg = ScenarioConfig::new(
//!     CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 2.0, 1_000_000_000,
//!     &RunOptions::standard(),
//! );
//! let outcome = Runner::new(&cfg).seed(7).repeats(3).run().unwrap();
//! println!("J = {}", outcome.averaged().jain);
//! ```
//!
//! Attaching a [`Recording`] makes the base-seed run write a versioned
//! [`FlightRecord`] (per-flow cwnd/pacing/srtt series, bottleneck-queue
//! series, optional packet trace) plus SVG dynamics figures, without
//! changing any metric of the run — the recorder is a pure observer.

use crate::scenario::ScenarioConfig;
use elephants_aqm::build_aqm;
use elephants_cca::build_cca_seeded;

use elephants_analysis::FairnessDynamics;
use elephants_json::{impl_json_struct, impl_json_unit_enum, ToJson};
use elephants_metrics::{RunMetrics, SenderThroughput};
use elephants_netsim::{
    CheckMode, CheckReport, RecorderConfig, SimConfig, SimDuration, SimTime, Simulator,
};
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use elephants_telemetry::{FlightRecord, FlightRecorder};
use elephants_workload::{group_specs, plan_flows, FlowPlan, GroupSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Why a single (config, seed) run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// A worker panicked; the payload is in `detail`.
    Panic,
    /// The run hit its `max_events` budget with events still pending.
    EventBudget,
    /// The run exceeded the wall-clock watchdog.
    WallClock,
    /// The config failed validation before the simulator was built.
    InvalidConfig,
    /// Writing a recording artifact (flight record, SVG) failed.
    Io,
}

impl_json_unit_enum!(RunErrorKind { Panic, EventBudget, WallClock, InvalidConfig, Io });

/// A failed run: what class of failure, plus a human-readable detail
/// (panic payload, budget numbers, validation message).
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    /// Failure class.
    pub kind: RunErrorKind,
    /// Diagnostic detail.
    pub detail: String,
}

impl_json_struct!(RunError { kind, detail });

impl RunError {
    /// A panic-class error carrying the captured payload.
    pub fn panic(detail: impl Into<String>) -> Self {
        RunError { kind: RunErrorKind::Panic, detail: detail.into() }
    }

    /// Whether a retry could plausibly succeed: wall-clock overruns depend
    /// on machine load and IO errors on the filesystem, while the other
    /// classes are deterministic in `(config, seed)` and would fail
    /// identically again.
    pub fn is_retryable(&self) -> bool {
        self.kind == RunErrorKind::WallClock || self.kind == RunErrorKind::Io
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Default wall-clock watchdog for one run. Generous: the slowest cell of
/// the full paper grid takes a couple of minutes on one core; ten is a
/// hung simulation.
pub const DEFAULT_WALL_LIMIT: Duration = Duration::from_secs(600);

/// Default flight-recorder sample spacing (10 ms ≈ 6 samples per 62 ms RTT:
/// fine enough to resolve BBR's 8-phase ProbeBW cycle and CUBIC's sawtooth,
/// coarse enough that an hour of simulated time stays a few MB of JSON).
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Default capacity of the bounded per-packet trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What the flight recorder should capture during a run.
///
/// Build one with [`Recording::flows_only`] or parse the CLI spelling
/// (`--record flows,queue,events`) with [`Recording::parse`], then chain
/// setters. Attach it to a [`Runner`]; only the base-seed run records
/// (repeats stay cheap), and recording never changes the run's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Sample per-flow cwnd/pacing/srtt/phase series.
    pub flows: bool,
    /// Sample the bottleneck queue (depth, drops, AQM control variable).
    pub queue: bool,
    /// Capture the bounded per-packet event trace at the bottleneck.
    pub events: bool,
    /// Sample spacing for the flow/queue series.
    pub interval: SimDuration,
    /// Ring capacity for the event trace; when it fills, later events are
    /// counted as truncated rather than recorded (keep-first semantics, so
    /// slow start and the first loss epoch survive verbatim).
    pub event_capacity: usize,
    /// Directory the flight record (and figures) are written into.
    pub out_dir: PathBuf,
    /// Also emit SVG dynamics figures (cwnd-vs-time, queue-vs-time).
    pub svg: bool,
}

impl Recording {
    /// Record only the per-flow series — the cheapest useful recording.
    pub fn flows_only() -> Self {
        Recording {
            flows: true,
            queue: false,
            events: false,
            interval: DEFAULT_SAMPLE_INTERVAL,
            event_capacity: DEFAULT_TRACE_CAPACITY,
            out_dir: PathBuf::from("out/records"),
            svg: true,
        }
    }

    /// Parse the CLI spelling: a comma-separated subset of
    /// `flows`, `queue`, `events` (e.g. `"flows,queue"`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rec = Recording { flows: false, ..Recording::flows_only() };
        for part in spec.split(',') {
            match part.trim() {
                "flows" => rec.flows = true,
                "queue" => rec.queue = true,
                "events" => rec.events = true,
                other => {
                    return Err(format!(
                        "unknown --record channel {other:?} (expected flows, queue, events)"
                    ))
                }
            }
        }
        if !(rec.flows || rec.queue || rec.events) {
            return Err("empty --record spec: nothing to capture".to_string());
        }
        Ok(rec)
    }

    /// Override the sample spacing.
    pub fn interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sample interval must be nonzero");
        self.interval = interval;
        self
    }

    /// Override the output directory.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    /// Enable or disable SVG figure emission.
    pub fn svg(mut self, svg: bool) -> Self {
        self.svg = svg;
        self
    }
}

/// Per-bottleneck-link diagnostics of one run. On the paper dumbbell this
/// vector has one entry mirroring the scalar fields of [`RunResult`];
/// parking-lot topologies report one entry per shaped hop.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkResult {
    /// Link id in the built topology.
    pub link: u32,
    /// Drops at this link (AQM drops + dark-link destruction).
    pub drops: u64,
    /// Packets destroyed while a fault held this link down.
    pub down_drops: u64,
    /// Largest queue depth observed at this link, in packets.
    pub peak_queue_pkts: u64,
    /// This link's wire utilization over the measurement window.
    pub utilization: f64,
}

impl_json_struct!(LinkResult { link, drops, down_drops, peak_queue_pkts, utilization });

/// Result of a single (config, seed) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-flow-group goodput in Mbps over the measurement window (one
    /// entry per sender host; two on the paper dumbbell).
    pub sender_mbps: Vec<f64>,
    /// Jain index over the flow groups.
    pub jain: f64,
    /// Link utilization φ.
    pub utilization: f64,
    /// Retransmitted segments in the measurement window.
    pub retransmits: u64,
    /// RTO events over the run.
    pub rtos: u64,
    /// Bottleneck drops over the run.
    pub drops: u64,
    /// Packets destroyed at the bottleneck while a fault held it down.
    pub down_drops: u64,
    /// Flows simulated.
    pub flows: u32,
    /// Events processed (diagnostic; sample ticks are excluded, so this is
    /// identical whether or not the run was recorded).
    pub events: u64,
    /// Largest bottleneck-queue depth observed, in packets.
    pub peak_queue_pkts: u64,
    /// Fault-plan events that actually fired before the run ended. Events
    /// scheduled past `duration` validate but never fire, so this can be
    /// less than the plan's length — zero for a plan living entirely in
    /// the post-run tail.
    pub fault_events_applied: u64,
    /// Path of the flight record written for this run, if it recorded.
    pub record_path: Option<String>,
    /// Per-bottleneck-link diagnostics, ordered by the topology's shaped-
    /// link list. The scalar `drops`/`down_drops`/`peak_queue_pkts`/
    /// `utilization` fields above mirror entry 0 (the primary bottleneck).
    pub links: Vec<LinkResult>,
}

impl_json_struct!(RunResult {
    sender_mbps,
    jain,
    utilization,
    retransmits,
    rtos,
    drops,
    down_drops,
    flows,
    events,
    peak_queue_pkts,
    fault_events_applied,
    record_path,
    links,
});

impl RunResult {
    /// The paper's per-run metrics view of this result (goodput converted
    /// back to bits/s). Diagnostics — event counts, peak queue, the record
    /// path — are deliberately excluded, which makes this the right object
    /// to compare when asserting that recording does not perturb a run.
    pub fn metrics(&self) -> RunMetrics {
        RunMetrics {
            senders: self
                .sender_mbps
                .iter()
                .enumerate()
                .map(|(i, m)| SenderThroughput { sender: i as u32, goodput_bps: m * 1e6 })
                .collect(),
            jain: self.jain,
            utilization: self.utilization,
            retransmits: self.retransmits,
            rtos: self.rtos,
            drops: self.drops,
        }
    }
}

/// Everything a [`Runner`] produced: one [`RunResult`] per repeat, in seed
/// order (`seed`, `seed+1`, …).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scenario that ran.
    pub config: ScenarioConfig,
    /// Per-repeat results; never empty.
    pub runs: Vec<RunResult>,
    /// One invariant-check report per repeat when checking was enabled
    /// (audit or strict), in the same order as `runs`; empty otherwise.
    /// Deliberately *not* part of [`RunResult`]: the cache and figure
    /// pipelines consume `runs`, and the checker must never change what
    /// they see.
    pub check_reports: Vec<CheckReport>,
}

impl RunOutcome {
    /// The base-seed run (the one that records, when recording is on).
    pub fn first(&self) -> &RunResult {
        &self.runs[0]
    }

    /// Consume the outcome into its base-seed run.
    pub fn into_first(self) -> RunResult {
        self.runs.into_iter().next().expect("RunOutcome.runs is never empty")
    }

    /// Path of the flight record, if the base-seed run recorded one.
    pub fn record_path(&self) -> Option<&str> {
        self.first().record_path.as_deref()
    }

    /// Re-read the base-seed run's flight record through the versioned
    /// parser. Errors when the run did not record (attach a
    /// [`Recording`] with an `out_dir`) or the artifact fails to parse.
    pub fn load_record(&self) -> Result<FlightRecord, String> {
        let path = self
            .record_path()
            .ok_or("no flight record: run with .recorder(Recording::flows_only().out_dir(..))")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        FlightRecord::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    }

    /// Group assignment of every flow id in a run of this scenario: flows
    /// are added group by group, `per_sender` flows each, so flow `f`
    /// belongs to group `f / per_sender` (the mapping
    /// [`elephants_analysis::fairness_dynamics`] wants).
    pub fn flow_groups(&self) -> Vec<u32> {
        let n_groups = self.config.topology.n_groups() as u32;
        // The plan's per-sender flow count is seed-independent (only the
        // start jitter draws), so the config seed maps every repeat.
        let plan =
            plan_flows(self.config.bandwidth(), n_groups, self.config.flow_scale, self.config.seed);
        (0..n_groups).flat_map(|g| std::iter::repeat_n(g, plan.per_sender as usize)).collect()
    }

    /// Fairness dynamics of the base-seed run at the given window:
    /// windowed per-group shares, `J(t)` and burst-tolerant utilization,
    /// computed from the recorded `delivered_bytes` counters. The usual
    /// entry point into `elephants-analysis` after a recorded run.
    pub fn analysis(&self, window_s: f64) -> Result<FairnessDynamics, String> {
        let record = self.load_record()?;
        Ok(elephants_analysis::fairness_dynamics(
            &record,
            &self.flow_groups(),
            window_s,
            self.config.bw_bps as f64,
        ))
    }

    /// Total invariant violations across all repeats (0 when checking was
    /// off or every run was clean).
    pub fn check_violations(&self) -> u64 {
        self.check_reports.iter().map(|r| r.violations_total).sum()
    }

    /// Average the repeats (see [`average_runs`]).
    pub fn averaged(&self) -> AveragedResult {
        average_runs(self.config.clone(), self.runs.clone())
    }

    /// Consume the outcome into an averaged result.
    pub fn into_averaged(self) -> AveragedResult {
        average_runs(self.config, self.runs)
    }
}

/// Builder for executing a scenario: seed, wall-clock watchdog, repeats
/// and an optional flight recording, then [`Runner::run`].
///
/// Fault knobs on the config (steady-state loss, a timed [`FaultPlan`],
/// an event budget) apply to the bottleneck link. Failures — validation,
/// event-budget exhaustion, wall-clock overrun — come back as [`RunError`]
/// instead of aborting the process, so a sweep degrades to a failed cell.
///
/// [`FaultPlan`]: elephants_netsim::FaultPlan
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: ScenarioConfig,
    seed: Option<u64>,
    wall_limit: Duration,
    repeats: u32,
    recording: Option<Recording>,
    check: CheckMode,
}

impl Runner {
    /// A runner for `cfg` with defaults: the config's own base seed, the
    /// default wall limit, one repeat, no recording, no invariant checking.
    pub fn new(cfg: &ScenarioConfig) -> Self {
        Runner {
            cfg: cfg.clone(),
            seed: None,
            wall_limit: DEFAULT_WALL_LIMIT,
            repeats: 1,
            recording: None,
            check: CheckMode::Off,
        }
    }

    /// Override the base seed (default: `cfg.seed`). Repeats use
    /// `seed`, `seed+1`, ….
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Override the per-run wall-clock watchdog.
    pub fn wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = limit;
        self
    }

    /// Number of repeats (clamped to at least 1).
    pub fn repeats(mut self, repeats: u32) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Attach a flight recording. Only the base-seed run records.
    pub fn recorder(mut self, recording: Recording) -> Self {
        self.recording = Some(recording);
        self
    }

    /// Override the invariant-checking mode for this runner. In `Strict`
    /// mode a violation panics inside the run (the sweep executor isolates
    /// worker panics into failed cells); in `Audit` mode violations are
    /// counted and returned in [`RunOutcome::check_reports`] without
    /// changing any metric.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self
    }

    /// Execute: `repeats` runs at consecutive seeds, failing fast on the
    /// first error.
    pub fn run(self) -> Result<RunOutcome, RunError> {
        let base = self.seed.unwrap_or(self.cfg.seed);
        let mut runs = Vec::with_capacity(self.repeats as usize);
        let mut check_reports = Vec::new();
        for seed in repeat_seeds(base, self.repeats)? {
            // Record only the base-seed run: the artifact is for dynamics
            // figures, and repeats exist to average metrics, not figures.
            let rec = if seed == base { self.recording.as_ref() } else { None };
            let (result, report) = run_one(&self.cfg, seed, self.wall_limit, rec, self.check)?;
            runs.push(result);
            check_reports.extend(report);
        }
        Ok(RunOutcome { config: self.cfg, runs, check_reports })
    }
}

/// The seeds of `repeats` runs from `base` (`base`, `base + 1`, …), or an
/// `InvalidConfig` error when the last one would overflow `u64`.
pub(crate) fn repeat_seeds(base: u64, repeats: u32) -> Result<std::ops::RangeInclusive<u64>, RunError> {
    match base.checked_add(u64::from(repeats.max(1) - 1)) {
        Some(last) => Ok(base..=last),
        None => Err(RunError {
            kind: RunErrorKind::InvalidConfig,
            detail: format!("seed {base} with {repeats} repeats runs past u64::MAX"),
        }),
    }
}

/// Build the simulator for one (config, seed): validate, build the
/// topology with the AQM under test on every shaped hop, install the
/// recorder, the loss model and the fault plan, and register every planned
/// flow. Returns the ready simulator with its flow groups and flow plan
/// (flow ids are assigned in plan order, group by group).
///
/// The one place a `ScenarioConfig` becomes a `Simulator` inside this
/// crate. The install order (recorder before fault plan) fixes the
/// `(time, seq)` order of same-instant events and must not change.
fn assemble(
    cfg: &ScenarioConfig,
    seed: u64,
    recording: Option<&Recording>,
) -> Result<(Simulator, Vec<GroupSpec>, FlowPlan), RunError> {
    if let Err(detail) = cfg.validate() {
        return Err(RunError { kind: RunErrorKind::InvalidConfig, detail });
    }
    let bw = cfg.bandwidth();
    let mut topo = cfg
        .topology
        .build(bw, cfg.rtt())
        .map_err(|detail| RunError { kind: RunErrorKind::InvalidConfig, detail })?;
    // Every shaped hop runs the AQM under test at the configured queue
    // length (the dumbbell has one).
    for bn in topo.bottleneck_links().to_vec() {
        topo.set_aqm_on(
            bn,
            build_aqm(cfg.aqm, cfg.queue_bytes(), cfg.bw_bps, cfg.mss, cfg.ecn, seed),
        );
    }
    let mut groups = group_specs(&topo);
    elephants_workload::apply_start_offsets(&mut groups, &cfg.start_offsets());
    let groups = groups;

    // A warmup at or past the end of the run would leave a zero-width
    // measurement window, turning every windowed rate below into a division
    // by zero (inf/NaN goodput). Clamp to "no warmup".
    let warmup = if cfg.duration <= cfg.warmup {
        SimDuration::ZERO
    } else {
        cfg.warmup
    };
    let sim_cfg = SimConfig { duration: cfg.duration, warmup, max_events: cfg.max_events };
    let mut sim = Simulator::new(topo, sim_cfg, seed);

    if let Some(rec) = recording {
        if rec.flows || rec.queue {
            sim.install_recorder(
                Box::new(FlightRecorder::new()),
                RecorderConfig { interval: rec.interval, flows: rec.flows, queue: rec.queue },
            );
        }
        if rec.events {
            if let Some(bn) = sim.topology().bottleneck_link() {
                sim.topology_mut().link_mut(bn).enable_trace(rec.event_capacity);
            }
        }
    }

    // Loss/faults target the configured bottleneck hop (index 0 — the only
    // hop — on the dumbbell); validate() already bounds-checked the index.
    if let Some(&bn) = sim.topology().bottleneck_links().get(cfg.fault_link as usize) {
        sim.topology_mut().link_mut(bn).loss_model = cfg.loss;
        if !cfg.faults.is_empty() {
            sim.install_fault_plan(bn, &cfg.faults);
        }
    }

    let plan = plan_flows(bw, groups.len() as u32, cfg.flow_scale, seed);
    let rx_cfg =
        if cfg.coalesce { ReceiverConfig::coalesced() } else { ReceiverConfig::default() };
    for (group, starts) in plan.starts.iter().enumerate() {
        let g = &groups[group];
        let kind = if g.cca_slot == 0 { cfg.cca1 } else { cfg.cca2 };
        let (s_node, r_node) = (g.sender, g.receiver);
        for (i, &start) in starts.iter().enumerate() {
            let flow_seed = seed
                .wrapping_mul(0x100000001B3)
                .wrapping_add((group as u64) << 32 | i as u64);
            let cca = build_cca_seeded(kind, cfg.mss, flow_seed);
            let tx = TcpSender::new(
                SenderConfig { mss: cfg.mss, ecn: cfg.ecn },
                r_node,
                cca,
            );
            let rx = TcpReceiver::new(rx_cfg, s_node);
            sim.add_flow(s_node, r_node, Box::new(tx), Box::new(rx), start + g.start_offset);
        }
    }
    Ok((sim, groups, plan))
}

/// `Err(EventBudget)` when `sim` stopped on `max_events` with work pending.
fn check_event_budget(sim: &mut Simulator, max_events: u64) -> Result<(), RunError> {
    if !sim.budget_exhausted() {
        return Ok(());
    }
    Err(RunError {
        kind: RunErrorKind::EventBudget,
        detail: format!(
            "event budget exhausted: {} events processed of max {} with work pending at t={:?}",
            sim.events_processed(),
            max_events,
            sim.now(),
        ),
    })
}

/// Execute one (config, seed) run, optionally recording.
///
/// The simulation is driven in fixed simulated-time slices (which does not
/// perturb the event schedule — `run_until` + `finalize` is byte-identical
/// to a one-shot `run`), checking the event budget and the wall clock
/// between slices.
fn run_one(
    cfg: &ScenarioConfig,
    seed: u64,
    wall_limit: Duration,
    recording: Option<&Recording>,
    check: CheckMode,
) -> Result<(RunResult, Option<CheckReport>), RunError> {
    let (mut sim, groups, plan) = assemble(cfg, seed, recording)?;
    sim.set_check_mode(check);

    // Watchdog loop: advance in 64 simulated-time slices, checking the
    // event budget and the wall clock at each boundary. Slicing does not
    // inject events, so the schedule — and therefore every counter in the
    // summary — is identical to a one-shot `sim.run()`.
    let started = Instant::now();
    let end = SimTime::ZERO + cfg.duration;
    let slice = SimDuration::from_nanos((cfg.duration.as_nanos() / 64).max(1));
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + slice).min(end);
        sim.run_until(t);
        check_event_budget(&mut sim, cfg.max_events)?;
        if started.elapsed() > wall_limit {
            return Err(RunError {
                kind: RunErrorKind::WallClock,
                detail: format!(
                    "wall-clock watchdog: exceeded {wall_limit:?} at simulated t={:?} of {:?}",
                    sim.now(),
                    cfg.duration,
                ),
            });
        }
    }
    let summary = sim.finalize();
    let check_report = sim.take_check_report();

    let record_path = match recording {
        Some(rec) => Some(write_record(&mut sim, cfg, seed, rec)?),
        None => None,
    };

    // Per-flow goodput grouped by flow group (sender host).
    let window = summary.window;
    let flow_goodputs: Vec<(u32, f64)> = summary
        .flows
        .iter()
        .map(|f| {
            let group = groups
                .iter()
                .position(|g| g.sender == f.sender_node)
                .expect("flow sender is one of the topology's sender hosts");
            (group as u32, f.window_goodput_bps(window))
        })
        .collect();
    let retransmits: u64 = summary.flows.iter().map(|f| f.sender.retransmits_window).sum();
    let rtos: u64 = summary.flows.iter().map(|f| f.sender.rto_count).sum();
    let drops = summary.bottleneck.aqm.dropped_total() + summary.bottleneck.fault_losses;

    let senders = elephants_metrics::per_sender_goodput(&flow_goodputs);
    let tputs: Vec<f64> = senders.iter().map(|s| s.goodput_bps).collect();
    let jain = elephants_metrics::jain_index(&tputs);
    // Link utilization is measured on the wire (bottleneck bytes serialized
    // inside the window). Receiver goodput would over-count in short runs:
    // the backlog queued during warmup drains into the window, which with a
    // 16 BDP buffer can exceed capacity x window by several percent.
    let window_s = summary.window.as_secs_f64();
    let wire_bps =
        if window_s > 0.0 { summary.bottleneck.bytes_tx_window as f64 * 8.0 / window_s } else { 0.0 };
    let utilization = elephants_metrics::link_utilization(wire_bps, cfg.bw_bps as f64);
    let links: Vec<LinkResult> = summary
        .links
        .iter()
        .map(|l| {
            let link_bps = if window_s > 0.0 {
                l.report.bytes_tx_window as f64 * 8.0 / window_s
            } else {
                0.0
            };
            LinkResult {
                link: l.link.0,
                drops: l.report.aqm.dropped_total() + l.report.fault_losses,
                down_drops: l.report.down_drops,
                peak_queue_pkts: l.report.peak_qlen_pkts,
                utilization: elephants_metrics::link_utilization(link_bps, l.rate_bps as f64),
            }
        })
        .collect();
    let result = RunResult {
        sender_mbps: senders.iter().map(|s| s.goodput_bps / 1e6).collect(),
        jain,
        utilization,
        retransmits,
        rtos,
        drops,
        down_drops: summary.bottleneck.down_drops,
        flows: plan.total(),
        events: summary.events_processed,
        peak_queue_pkts: summary.bottleneck.peak_qlen_pkts,
        fault_events_applied: summary.bottleneck.fault_events_applied,
        record_path,
        links,
    };
    Ok((result, check_report))
}

/// Drain the recorder (and the bottleneck trace ring) out of a finished
/// simulator, assemble the [`FlightRecord`], write it to disk, and emit
/// the SVG dynamics figures. Returns the record path.
fn write_record(
    sim: &mut Simulator,
    cfg: &ScenarioConfig,
    seed: u64,
    rec: &Recording,
) -> Result<String, RunError> {
    let io_err = |what: &str, e: std::io::Error| RunError {
        kind: RunErrorKind::Io,
        detail: format!("{what}: {e}"),
    };

    // An events-only recording never installed a live recorder on the
    // simulator; start from an empty one and fill it from the ring.
    let mut recorder = match sim.take_recorder() {
        Some(mut boxed) => std::mem::take(
            boxed
                .as_any_mut()
                .downcast_mut::<FlightRecorder>()
                .expect("Runner installs a FlightRecorder"),
        ),
        None => FlightRecorder::new(),
    };
    if rec.events {
        if let Some(bn) = sim.topology().bottleneck_link() {
            if let Some(ring) = sim.topology_mut().link_mut(bn).take_trace() {
                use elephants_netsim::Recorder;
                for e in ring.events() {
                    recorder.on_trace_event(e);
                }
                if ring.truncated() > 0 {
                    recorder.on_trace_truncated(ring.truncated());
                }
            }
        }
    }

    let record = recorder.into_record(cfg.label(), seed, rec.interval);
    std::fs::create_dir_all(&rec.out_dir)
        .map_err(|e| io_err("creating record directory", e))?;
    let stem = cfg.cache_key(seed);
    let path = rec.out_dir.join(format!("{stem}.flight.json"));
    std::fs::write(&path, record.to_json_string())
        .map_err(|e| io_err("writing flight record", e))?;
    if rec.svg {
        emit_dynamics_figures(&record, &rec.out_dir, &stem)
            .map_err(|e| io_err("writing dynamics figure", e))?;
    }
    Ok(path.display().to_string())
}

/// Write the paper-style dynamics figures for a record: cwnd-vs-time (one
/// series per flow) and, when queue samples exist, queue-depth-vs-time.
pub fn emit_dynamics_figures(
    record: &FlightRecord,
    out_dir: &std::path::Path,
    stem: &str,
) -> std::io::Result<Vec<PathBuf>> {
    use crate::svg::{write_chart, ChartSpec, Series};
    let mut written = Vec::new();
    let tracks = record.by_flow();
    if !tracks.is_empty() {
        let series: Vec<Series> = tracks
            .iter()
            .map(|track| Series {
                name: format!("flow {}", track.flow),
                points: track
                    .cwnd_series()
                    .into_iter()
                    .map(|(t, cwnd)| (t, cwnd / 1e3))
                    .collect(),
            })
            .collect();
        let spec = ChartSpec {
            title: format!("cwnd dynamics — {}", record.label),
            x_label: "time (s)".to_string(),
            y_label: "cwnd (kB)".to_string(),
            ..ChartSpec::default()
        };
        let path = out_dir.join(format!("{stem}.cwnd.svg"));
        write_chart(&path, &spec, &series)?;
        written.push(path);
    }
    if !record.queue_samples.is_empty() {
        let series = [Series {
            name: "bottleneck queue".to_string(),
            points: record.queue_series(),
        }];
        let spec = ChartSpec {
            title: format!("queue dynamics — {}", record.label),
            x_label: "time (s)".to_string(),
            y_label: "backlog (pkts)".to_string(),
            ..ChartSpec::default()
        };
        let path = out_dir.join(format!("{stem}.queue.svg"));
        write_chart(&path, &spec, &series)?;
        written.push(path);
    }
    Ok(written)
}

/// Averages over repeated runs of one scenario.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// The scenario.
    pub config: ScenarioConfig,
    /// Mean per-sender goodput (Mbps).
    pub sender_mbps: Vec<f64>,
    /// Mean Jain index.
    pub jain: f64,
    /// Mean utilization.
    pub utilization: f64,
    /// Mean retransmissions per run.
    pub retransmits: f64,
    /// Total RTOs across repeats.
    pub rtos: u64,
    /// Individual run results.
    pub runs: Vec<RunResult>,
}

/// Average a set of per-seed runs.
pub fn average_runs(config: ScenarioConfig, runs: Vec<RunResult>) -> AveragedResult {
    assert!(!runs.is_empty());
    let n = runs.len() as f64;
    let n_senders = runs[0].sender_mbps.len();
    // Silently padding a short vector with zeros would drag the mean down
    // and mask a structural mismatch between runs of one scenario.
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(
            r.sender_mbps.len(),
            n_senders,
            "run {i} reports {} senders, run 0 reports {n_senders}: cannot average",
            r.sender_mbps.len(),
        );
    }
    let sender_mbps = (0..n_senders)
        .map(|i| runs.iter().map(|r| r.sender_mbps[i]).sum::<f64>() / n)
        .collect();
    AveragedResult {
        config,
        sender_mbps,
        jain: runs.iter().map(|r| r.jain).sum::<f64>() / n,
        utilization: runs.iter().map(|r| r.utilization).sum::<f64>() / n,
        retransmits: runs.iter().map(|r| r.retransmits as f64).sum::<f64>() / n,
        rtos: runs.iter().map(|r| r.rtos).sum(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::RunOptions;
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;

    fn quick_cfg(cca1: CcaKind, cca2: CcaKind, aqm: AqmKind, q: f64, bw: u64) -> ScenarioConfig {
        ScenarioConfig::new(cca1, cca2, aqm, q, bw, &RunOptions::quick())
    }

    fn run_seeded(cfg: &ScenarioConfig, seed: u64) -> RunResult {
        Runner::new(cfg).seed(seed).run().unwrap().into_first()
    }

    #[test]
    fn cubic_intra_100m_fifo_is_fair_and_full() {
        let cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000);
        let r = run_seeded(&cfg, 1);
        assert_eq!(r.flows, 2);
        assert!(r.utilization > 0.85, "φ = {}", r.utilization);
        assert!(r.jain > 0.8, "J = {}", r.jain);
        assert!(r.record_path.is_none(), "no recorder attached");
    }

    #[test]
    fn runner_is_deterministic() {
        let cfg = quick_cfg(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let a = run_seeded(&cfg, 7);
        let b = run_seeded(&cfg, 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sender_mbps, b.sender_mbps);
        assert_eq!(a.retransmits, b.retransmits);
    }

    #[test]
    fn averaging_is_elementwise() {
        let cfg = quick_cfg(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let avg = Runner::new(&cfg).repeats(2).run().unwrap().into_averaged();
        assert_eq!(avg.runs.len(), 2);
        let expect0 = (avg.runs[0].sender_mbps[0] + avg.runs[1].sender_mbps[0]) / 2.0;
        assert!((avg.sender_mbps[0] - expect0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_is_clamped_not_inf() {
        let mut cfg = quick_cfg(CcaKind::Reno, CcaKind::Reno, AqmKind::Fifo, 1.0, 100_000_000);
        cfg.warmup = cfg.duration; // zero-width window as configured
        let r = run_seeded(&cfg, 3);
        assert!(r.utilization.is_finite(), "φ = {}", r.utilization);
        assert!(r.jain.is_finite(), "J = {}", r.jain);
        assert!(r.sender_mbps.iter().all(|m| m.is_finite()), "{:?}", r.sender_mbps);
        // With the warmup clamped away, the whole run is the window.
        assert!(r.utilization > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot average")]
    fn averaging_rejects_mismatched_sender_vectors() {
        let cfg = quick_cfg(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let a = run_seeded(&cfg, 1);
        let mut b = a.clone();
        b.sender_mbps.pop();
        average_runs(cfg, vec![a, b]);
    }

    #[test]
    fn flow_counts_follow_table2() {
        let cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 500_000_000);
        let r = run_seeded(&cfg, 1);
        assert_eq!(r.flows, 10);
    }

    #[test]
    fn recording_spec_parses_cli_spelling() {
        let rec = Recording::parse("flows").unwrap();
        assert!(rec.flows && !rec.queue && !rec.events);
        let rec = Recording::parse("flows,queue,events").unwrap();
        assert!(rec.flows && rec.queue && rec.events);
        let rec = Recording::parse("queue").unwrap();
        assert!(!rec.flows && rec.queue);
        assert!(Recording::parse("flows,bogus").is_err());
        assert!(Recording::parse("").is_err());
    }

    #[test]
    fn base_seed_run_is_independent_of_repeat_count() {
        // What the deleted run_scenario/run_averaged shims used to assert:
        // a repeats(n) outcome's base-seed run is byte-identical to a
        // standalone single run at the same seed, and averaging one run is
        // the identity.
        let cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let single = run_seeded(&cfg, 5);
        let repeated = Runner::new(&cfg).seed(5).repeats(2).run().unwrap();
        assert_eq!(
            single.metrics().to_json_string(),
            repeated.first().metrics().to_json_string()
        );
        assert_eq!(single.events, repeated.first().events);
        let avg = Runner::new(&cfg).seed(5).run().unwrap().into_averaged();
        assert_eq!(avg.runs.len(), 1);
        assert!((avg.jain - single.jain).abs() < 1e-15);
        assert_eq!(avg.sender_mbps, single.sender_mbps);
        // The last seed a run may take is u64::MAX: a second repeat past it
        // is refused, not wrapped to seed 0.
        let err = Runner::new(&cfg).seed(u64::MAX).repeats(2).run().unwrap_err();
        assert_eq!(err.kind, RunErrorKind::InvalidConfig, "{err}");
        assert!(err.detail.contains("u64::MAX"), "{err}");
    }

    #[test]
    fn audit_checking_does_not_perturb_metrics_and_reports_clean() {
        use elephants_netsim::CheckMode;
        let cfg = quick_cfg(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Red, 2.0, 100_000_000);
        let plain = Runner::new(&cfg).seed(11).run().unwrap();
        let audited = Runner::new(&cfg).seed(11).check(CheckMode::Audit).run().unwrap();
        // The checker is a pure observer: paper metrics and the event count
        // must be byte-identical with and without it.
        assert_eq!(
            plain.first().metrics().to_json_string(),
            audited.first().metrics().to_json_string(),
            "audit checking must not perturb run metrics"
        );
        assert_eq!(plain.first().events, audited.first().events);
        assert!(plain.check_reports.is_empty(), "no report when checking is off");
        assert_eq!(audited.check_reports.len(), 1);
        let report = &audited.check_reports[0];
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.events_checked > 0, "checker must have observed events");
    }

    #[test]
    fn unwritable_record_dir_surfaces_io_error_not_panic() {
        let cfg = quick_cfg(CcaKind::Reno, CcaKind::Reno, AqmKind::Fifo, 1.0, 100_000_000);
        // A regular file where the output directory should go: create_dir_all
        // fails with NotADirectory for every caller, root included (the
        // permission-bit approach is a no-op when tests run as root).
        let blocker =
            std::env::temp_dir().join(format!("elephants-io-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = Runner::new(&cfg)
            .seed(1)
            .recorder(Recording::flows_only().out_dir(blocker.join("records")).svg(true))
            .run()
            .expect_err("writing into a non-directory must fail");
        assert_eq!(err.kind, RunErrorKind::Io, "got {err}");
        assert!(err.is_retryable(), "Io failures are classified retryable");
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn fault_plan_entirely_past_duration_applies_zero_events() {
        use elephants_netsim::{FaultAction, FaultPlan};
        let mut cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let after = cfg.duration + SimDuration::from_secs(1);
        cfg.faults = FaultPlan::none()
            .with(after, FaultAction::LinkDown)
            .with(after + SimDuration::from_millis(100), FaultAction::LinkUp);
        assert!(cfg.validate().is_ok(), "post-duration events are valid config");
        let baseline = {
            let mut c = cfg.clone();
            c.faults = FaultPlan::none();
            run_seeded(&c, 4)
        };
        let r = run_seeded(&cfg, 4);
        assert_eq!(r.fault_events_applied, 0, "no event inside the run may fire");
        assert_eq!(r.down_drops, 0);
        // A plan that never fires must not perturb the run at all.
        assert_eq!(r.metrics().to_json_string(), baseline.metrics().to_json_string());
    }

    #[test]
    fn in_run_fault_plan_reports_applied_events() {
        use elephants_netsim::{FaultAction, FaultPlan};
        let mut cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000);
        let mid = SimDuration::from_millis(500);
        cfg.faults = FaultPlan::none()
            .with(mid, FaultAction::LinkDown)
            .with(mid + SimDuration::from_millis(200), FaultAction::LinkUp);
        let r = run_seeded(&cfg, 4);
        assert_eq!(r.fault_events_applied, 2, "both in-run events must fire");
    }

    #[test]
    fn recording_writes_flight_record_without_perturbing_metrics() {
        let cfg = quick_cfg(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000);
        let dir = std::env::temp_dir().join(format!("elephants-rec-{}", std::process::id()));
        let plain = run_seeded(&cfg, 9);
        let recorded = Runner::new(&cfg)
            .seed(9)
            .recorder(
                Recording::parse("flows,queue,events").unwrap().out_dir(&dir).svg(true),
            )
            .run()
            .unwrap()
            .into_first();
        // The recorder is a pure observer: the paper metrics and the event
        // count must be byte-identical with and without it.
        assert_eq!(
            plain.metrics().to_json_string(),
            recorded.metrics().to_json_string(),
            "recording must not perturb run metrics"
        );
        assert_eq!(plain.events, recorded.events, "sample ticks must not count as events");

        let path = recorded.record_path.as_deref().expect("record path set");
        let json = std::fs::read_to_string(path).unwrap();
        let record = FlightRecord::parse(&json).unwrap();
        assert_eq!(record.seed, 9);
        assert!(record.flow_ids().len() >= 2, "both senders sampled");
        assert!(!record.queue_samples.is_empty(), "queue channel recorded");
        assert!(
            !record.events.is_empty() || record.events_truncated > 0,
            "event trace captured"
        );
        let cwnd_svg = dir.join(format!("{}.cwnd.svg", cfg.cache_key(9)));
        assert!(cwnd_svg.exists(), "cwnd dynamics figure written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_samples_carry_monotone_delivered_counters() {
        let cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000);
        let dir = std::env::temp_dir().join(format!("elephants-deliv-{}", std::process::id()));
        let outcome = Runner::new(&cfg)
            .seed(4)
            .recorder(Recording::flows_only().out_dir(&dir).svg(false))
            .run()
            .unwrap();
        let record = outcome.load_record().expect("record written and parseable");
        for track in record.by_flow() {
            let (flow, series) = (track.flow, track.delivered_series());
            assert!(
                series.windows(2).all(|w| w[1].1 >= w[0].1),
                "delivered_bytes must be cumulative (flow {flow})"
            );
            assert!(
                series.last().unwrap().1 > 0.0,
                "flow {flow} delivered nothing over the whole run"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_offset_delays_the_group_and_analysis_sees_the_join() {
        let base = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000);
        let offset_s = 3.0;
        let mut staggered = base.clone();
        staggered.start_offset_ms = vec![0, (offset_s * 1e3) as u64];
        let dir = std::env::temp_dir().join(format!("elephants-stag-{}", std::process::id()));
        let outcome = Runner::new(&staggered)
            .seed(2)
            .recorder(Recording::flows_only().out_dir(&dir).svg(false))
            .run()
            .unwrap();
        let d = outcome.analysis(0.5).expect("dynamics from the record");
        assert_eq!(outcome.flow_groups(), vec![0, 1]);
        // Group 1 must be silent before its join and active after it.
        let joiner = d.share_series(1);
        let pre: f64 = joiner.iter().filter(|p| p.0 <= offset_s).map(|p| p.1).sum();
        assert_eq!(pre, 0.0, "late group moved bytes before its offset");
        let post_active = joiner.iter().any(|p| p.0 > offset_s + 1.0 && p.1 > 0.05);
        assert!(post_active, "late group never became active: {joiner:?}");
        // The synchronized run is not perturbed: distinct cache keys keep
        // the artifacts apart, and the offset run really differs.
        assert_ne!(base.cache_key(2), staggered.cache_key(2));
        let plain = run_seeded(&base, 2);
        let stag = outcome.into_first();
        assert!(
            stag.sender_mbps[1] < plain.sender_mbps[1],
            "a 3s-late group must move less than a synchronized one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The detail of the `InvalidConfig` error `edit` turns a good config
    /// into; the run must be refused, not panic or produce numbers.
    fn refused(edit: impl FnOnce(&mut ScenarioConfig)) -> String {
        let mut cfg = quick_cfg(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000);
        edit(&mut cfg);
        let err = Runner::new(&cfg).seed(1).run().unwrap_err();
        assert_eq!(err.kind, RunErrorKind::InvalidConfig, "{err}");
        err.detail
    }

    #[test]
    fn zero_bandwidth_is_an_invalid_config() {
        assert!(refused(|c| c.bw_bps = 0).contains("bw_bps"));
    }

    #[test]
    fn nan_queue_is_an_invalid_config() {
        assert!(refused(|c| c.queue_bdp = f64::NAN).contains("queue_bdp"));
        assert!(refused(|c| c.queue_bdp = f64::INFINITY).contains("queue_bdp"));
        // Finite, but `cache_key` would print hundreds of digits.
        assert!(refused(|c| c.queue_bdp = 1e300).contains("queue_bdp"));
        assert!(refused(|c| c.queue_bdp = 1025.0).contains("queue_bdp"));
    }

    #[test]
    fn non_positive_queue_is_an_invalid_config() {
        assert!(refused(|c| c.queue_bdp = -1.0).contains("queue_bdp"));
        assert!(refused(|c| c.queue_bdp = 0.0).contains("queue_bdp"));
        assert!(refused(|c| c.queue_bdp = 1e-300).contains("queue_bdp"));
        assert!(refused(|c| c.queue_bdp = 0.015).contains("queue_bdp"));
    }

    #[test]
    fn zero_duration_is_an_invalid_config() {
        assert!(refused(|c| c.duration = SimDuration::ZERO).contains("duration"));
    }

    #[test]
    fn zero_mss_is_an_invalid_config() {
        assert!(refused(|c| c.mss = 0).contains("mss"));
    }

    #[test]
    fn rtt_inside_the_edge_budget_is_an_invalid_config() {
        // The dumbbell used to assert here and the parking lot to return
        // its own error; both are refused by `validate` now.
        assert!(refused(|c| c.rtt_ms = 6).contains("rtt_ms"));
        assert!(refused(|c| {
            c.rtt_ms = 3;
            c.topology = elephants_netsim::TopologySpec::ParkingLot { hops: 2 };
        })
        .contains("rtt_ms"));
    }
}
