//! A cell of a workload assembled and run from the crates' public
//! constructors, the way `experiments::Runner::run` does it internally, so
//! that the benchmark can put span-recording decorators between the layers
//! and time the assembly on its own. The traced run checks that this
//! replica reproduces `Runner::run` byte for byte.

use crate::span::{self, Layer};
use crate::wrap::{TracedAqm, TracedCca, TracedEndpoint};
use elephants_aqm::build_aqm;
use elephants_cca::{build_cca_seeded, CongestionControl};
use elephants_experiments::runner::{emit_dynamics_figures, LinkResult, Recording, RunResult};
use elephants_experiments::ScenarioConfig;
use elephants_json::ToJson;
use elephants_netsim::{
    Aqm, FlowEndpoint, Recorder, RecorderConfig, RunSummary, SimConfig, SimDuration, SimTime,
    Simulator,
};
use elephants_tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use elephants_telemetry::FlightRecorder;
use elephants_workload::{apply_start_offsets, group_specs, plan_flows, GroupSpec};
use std::time::Instant;

/// A simulator with every flow added, ready to run.
pub struct Assembled {
    sim: Simulator,
    groups: Vec<GroupSpec>,
    flows: u32,
}

/// Build the simulator for `(cfg, seed)`: validate, build the topology,
/// install the AQM on every shaped hop, plan the flows, build one CCA,
/// sender and receiver per flow, install the recorder when `recording`
/// asks for one. With `traced`, the AQMs, endpoints and CCAs go in behind
/// the decorators of [`crate::wrap`].
pub fn assemble(
    cfg: &ScenarioConfig,
    seed: u64,
    recording: Option<&Recording>,
    traced: bool,
) -> Result<Assembled, String> {
    cfg.validate()?;
    let bw = cfg.bandwidth();
    let mut topo = cfg.topology.build(bw, cfg.rtt())?;
    for bn in topo.bottleneck_links().to_vec() {
        let aqm = build_aqm(
            cfg.aqm,
            cfg.queue_bytes(),
            cfg.bw_bps,
            cfg.mss,
            cfg.ecn,
            seed,
        );
        let aqm: Box<dyn Aqm> = if traced {
            Box::new(TracedAqm(aqm))
        } else {
            aqm
        };
        topo.set_aqm_on(bn, aqm);
    }
    let mut groups = group_specs(&topo);
    apply_start_offsets(&mut groups, &cfg.start_offsets());

    let sim_cfg = SimConfig {
        duration: cfg.duration,
        warmup: cfg.warmup,
        max_events: cfg.max_events,
    };
    let mut sim = Simulator::new(topo, sim_cfg, seed);

    if let Some(rec) = recording {
        if rec.flows || rec.queue {
            sim.install_recorder(
                Box::new(FlightRecorder::new()),
                RecorderConfig {
                    interval: rec.interval,
                    flows: rec.flows,
                    queue: rec.queue,
                },
            );
        }
        if rec.events {
            if let Some(bn) = sim.topology().bottleneck_link() {
                sim.topology_mut()
                    .link_mut(bn)
                    .enable_trace(rec.event_capacity);
            }
        }
    }

    if let Some(&bn) = sim
        .topology()
        .bottleneck_links()
        .get(cfg.fault_link as usize)
    {
        sim.topology_mut().link_mut(bn).loss_model = cfg.loss;
        if !cfg.faults.is_empty() {
            sim.install_fault_plan(bn, &cfg.faults);
        }
    }

    let plan = plan_flows(bw, groups.len() as u32, cfg.flow_scale, seed);
    let rx_cfg = if cfg.coalesce {
        ReceiverConfig::coalesced()
    } else {
        ReceiverConfig::default()
    };
    for (group, starts) in plan.starts.iter().enumerate() {
        let g = &groups[group];
        let kind = if g.cca_slot == 0 { cfg.cca1 } else { cfg.cca2 };
        for (i, &start) in starts.iter().enumerate() {
            let flow_seed = seed
                .wrapping_mul(0x100000001B3)
                .wrapping_add((group as u64) << 32 | i as u64);
            let cca = build_cca_seeded(kind, cfg.mss, flow_seed);
            let cca: Box<dyn CongestionControl> = if traced {
                Box::new(TracedCca::new(kind, cca))
            } else {
                cca
            };
            let tx = TcpSender::new(
                SenderConfig {
                    mss: cfg.mss,
                    ecn: cfg.ecn,
                    ..Default::default()
                },
                g.receiver,
                cca,
            );
            let rx = TcpReceiver::new(rx_cfg, g.sender);
            let (tx, rx): (Box<dyn FlowEndpoint>, Box<dyn FlowEndpoint>) = if traced {
                (
                    Box::new(TracedEndpoint {
                        inner: Box::new(tx),
                        layer: Layer::Sender,
                    }),
                    Box::new(TracedEndpoint {
                        inner: Box::new(rx),
                        layer: Layer::Receiver,
                    }),
                )
            } else {
                (Box::new(tx), Box::new(rx))
            };
            sim.add_flow(g.sender, g.receiver, tx, rx, start + g.start_offset);
        }
    }
    Ok(Assembled {
        sim,
        groups,
        flows: plan.total(),
    })
}

/// What one run of the replica produced.
pub struct ReplicaRun {
    pub result: RunResult,
    /// Data segments sent over the whole run, retransmissions included.
    pub segments_sent: u64,
    /// Segments retransmitted over the whole run.
    pub retransmits_total: u64,
    /// Packets the queue disciplines of the shaped hops dropped and marked.
    pub aqm_drops: u64,
    pub aqm_marks: u64,
    /// The flight record, when the cell was recorded, and what it cost.
    pub record: Option<RecordOut>,
}

/// The record of a recorded replica run.
pub struct RecordOut {
    pub path: String,
    pub text: String,
    /// Host milliseconds `FlightRecorder::into_record` took.
    pub into_record_ms: f64,
}

/// Run an assembled cell to its end in the runner's 64 slices, each one a
/// root span when `traced`, and turn the summary into the runner's
/// `RunResult`. A recorded cell writes its record and figures as the
/// runner does.
pub fn run(
    mut cell: Assembled,
    cfg: &ScenarioConfig,
    seed: u64,
    recording: Option<&Recording>,
    traced: bool,
) -> Result<ReplicaRun, String> {
    let end = SimTime::ZERO + cfg.duration;
    let slice = SimDuration::from_nanos((cfg.duration.as_nanos() / 64).max(1));
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + slice).min(end);
        if traced {
            span::enter_root();
        }
        cell.sim.run_until(t);
        if traced {
            span::exit_root();
        }
        if cell.sim.budget_exhausted() {
            return Err(format!("event budget exhausted at t={:?}", cell.sim.now()));
        }
    }
    let summary = cell.sim.finalize();
    let record = match recording {
        Some(rec) => Some(write_record(&mut cell.sim, cfg, seed, rec)?),
        None => None,
    };
    Ok(ReplicaRun {
        segments_sent: summary
            .flows
            .iter()
            .map(|f| f.sender.data_segments_sent)
            .sum(),
        retransmits_total: summary.flows.iter().map(|f| f.sender.retransmits).sum(),
        aqm_drops: summary
            .links
            .iter()
            .map(|l| l.report.aqm.dropped_total())
            .sum(),
        aqm_marks: summary.links.iter().map(|l| l.report.aqm.marked).sum(),
        result: result_of(
            &summary,
            cfg,
            &cell.groups,
            cell.flows,
            record.as_ref().map(|r| r.path.clone()),
        ),
        record,
    })
}

/// The runner's reduction of a `RunSummary` to a `RunResult`.
fn result_of(
    summary: &RunSummary,
    cfg: &ScenarioConfig,
    groups: &[GroupSpec],
    flows: u32,
    record_path: Option<String>,
) -> RunResult {
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
    let senders = elephants_metrics::per_sender_goodput(&flow_goodputs);
    let tputs: Vec<f64> = senders.iter().map(|s| s.goodput_bps).collect();
    let window_s = window.as_secs_f64();
    let bps = |bytes: u64| {
        if window_s > 0.0 {
            bytes as f64 * 8.0 / window_s
        } else {
            0.0
        }
    };
    let bn = &summary.bottleneck;
    RunResult {
        sender_mbps: senders.iter().map(|s| s.goodput_bps / 1e6).collect(),
        jain: elephants_metrics::jain_index(&tputs),
        utilization: elephants_metrics::link_utilization(
            bps(bn.bytes_tx_window),
            cfg.bw_bps as f64,
        ),
        retransmits: summary
            .flows
            .iter()
            .map(|f| f.sender.retransmits_window)
            .sum(),
        rtos: summary.flows.iter().map(|f| f.sender.rto_count).sum(),
        drops: bn.aqm.dropped_total() + bn.fault_losses,
        down_drops: bn.down_drops,
        flows,
        events: summary.events_processed,
        peak_queue_pkts: bn.peak_qlen_pkts,
        fault_events_applied: bn.fault_events_applied,
        record_path,
        links: summary
            .links
            .iter()
            .map(|l| LinkResult {
                link: l.link.0,
                drops: l.report.aqm.dropped_total() + l.report.fault_losses,
                down_drops: l.report.down_drops,
                peak_queue_pkts: l.report.peak_qlen_pkts,
                utilization: elephants_metrics::link_utilization(
                    bps(l.report.bytes_tx_window),
                    l.rate_bps as f64,
                ),
            })
            .collect(),
    }
}

/// Drain the recorder and the bottleneck trace ring into a `FlightRecord`,
/// write it and its figures where the runner would, timing the conversion.
fn write_record(
    sim: &mut Simulator,
    cfg: &ScenarioConfig,
    seed: u64,
    rec: &Recording,
) -> Result<RecordOut, String> {
    let mut recorder = match sim.take_recorder() {
        Some(mut boxed) => std::mem::take(
            boxed
                .as_any_mut()
                .downcast_mut::<FlightRecorder>()
                .expect("assemble installs a FlightRecorder"),
        ),
        None => FlightRecorder::new(),
    };
    if rec.events {
        if let Some(bn) = sim.topology().bottleneck_link() {
            if let Some(ring) = sim.topology_mut().link_mut(bn).take_trace() {
                for e in ring.events() {
                    recorder.on_trace_event(e);
                }
                if ring.truncated() > 0 {
                    recorder.on_trace_truncated(ring.truncated());
                }
            }
        }
    }
    let started = Instant::now();
    let record = recorder.into_record(cfg.label(), seed, rec.interval);
    let into_record_ms = started.elapsed().as_secs_f64() * 1e3;
    let text = record.to_json_string();

    std::fs::create_dir_all(&rec.out_dir).map_err(|e| format!("creating record directory: {e}"))?;
    let stem = cfg.cache_key(seed);
    let path = rec.out_dir.join(format!("{stem}.flight.json"));
    std::fs::write(&path, &text).map_err(|e| format!("writing flight record: {e}"))?;
    if rec.svg {
        emit_dynamics_figures(&record, &rec.out_dir, &stem)
            .map_err(|e| format!("writing dynamics figure: {e}"))?;
    }
    Ok(RecordOut {
        path: path.display().to_string(),
        text,
        into_record_ms,
    })
}
