//! # elephants-telemetry
//!
//! The flight recorder: turns the simulator's observability hooks
//! ([`elephants_netsim::Recorder`]) into a versioned, JSON-serializable
//! [`FlightRecord`] artifact — the per-flow cwnd/pacing/srtt time series,
//! bottleneck-queue depth series and (optional) bounded per-packet event
//! trace behind the paper's dynamics figures (BBR's ProbeBW oscillation,
//! CUBIC's sawtooth, queue standing waves under FIFO/RED).
//!
//! The recorder is strictly an *observer*: installing a [`FlightRecorder`]
//! on a run changes none of the run's metrics (the experiments suite guards
//! this with a byte-identity test). Serialization goes through
//! `elephants-json`; the artifact carries [`FLIGHT_RECORD_VERSION`] so
//! readers can reject records written by a different schema.

use elephants_json::{impl_json_struct, FromJson, JsonError};
use elephants_netsim::{
    FlowSample, QueueSample, Recorder, SimDuration, TraceEvent, TRACE_NO_FLOW,
};
use std::any::Any;
use std::collections::BTreeMap;

/// Schema version stamped into every [`FlightRecord`]. Bump when the JSON
/// shape of the record or its point types changes. [`FlightRecord::parse`]
/// reads this version only: records are regenerated from `(config, seed)`,
/// not migrated.
pub const FLIGHT_RECORD_VERSION: u32 = 3;

/// One per-flow sample row (times in seconds; `null` = not yet measured).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPoint {
    /// Sample time, seconds since run start.
    pub t_s: f64,
    /// Flow id.
    pub flow: u32,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Pacing rate, bits/s (`null` = ACK-clocked).
    pub pacing_bps: Option<u64>,
    /// Smoothed RTT, seconds (`null` before the first sample).
    pub srtt_s: Option<f64>,
    /// Bytes in flight.
    pub inflight: u64,
    /// CCA phase label (e.g. `"slow_start"`, `"probe_bw:1.25"`).
    pub phase: String,
    /// Cumulative bytes delivered to the receiver's application.
    pub delivered_bytes: u64,
    /// Cumulative retransmitted segments at the sender.
    pub retx: u64,
}

impl_json_struct!(FlowPoint {
    t_s,
    flow,
    cwnd,
    pacing_bps,
    srtt_s,
    inflight,
    phase,
    delivered_bytes,
    retx,
});

/// One bottleneck-queue sample row. Multi-bottleneck topologies interleave
/// one row per instrumented link per tick, distinguished by `link`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePoint {
    /// Sample time, seconds since run start.
    pub t_s: f64,
    /// Sampled link id.
    pub link: u32,
    /// Packets queued.
    pub backlog_pkts: u64,
    /// Bytes queued.
    pub backlog_bytes: u64,
    /// Cumulative drops so far.
    pub dropped: u64,
    /// Cumulative ECN marks so far.
    pub marked: u64,
    /// AQM control variable (RED: average queue bytes; PIE: drop
    /// probability; `null` for disciplines without one).
    pub control: Option<f64>,
}

impl_json_struct!(QueuePoint { t_s, link, backlog_pkts, backlog_bytes, dropped, marked, control });

/// One per-packet trace row.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPoint {
    /// Event time, seconds since run start.
    pub t_s: f64,
    /// `"enqueue"`, `"retx"`, `"dequeue"`, `"drop"` or `"fault"`.
    pub kind: String,
    /// Flow id (`u32::MAX` on fault rows, which have no flow).
    pub flow: u32,
    /// Packet sequence number.
    pub seq: u64,
    /// Packet size, bytes.
    pub size: u32,
}

impl_json_struct!(EventPoint { t_s, kind, flow, seq, size });

/// The versioned flight-record artifact of one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Schema version ([`FLIGHT_RECORD_VERSION`] at write time).
    pub schema_version: u32,
    /// Human-readable scenario label.
    pub label: String,
    /// The run's seed.
    pub seed: u64,
    /// Sample spacing, seconds.
    pub sample_interval_s: f64,
    /// Per-flow samples, in time order (flows interleaved).
    pub flow_samples: Vec<FlowPoint>,
    /// Bottleneck-queue samples, in time order.
    pub queue_samples: Vec<QueuePoint>,
    /// Per-packet trace (empty unless event tracing was enabled).
    pub events: Vec<EventPoint>,
    /// Trace events shed by the bounded ring after it filled. Non-zero
    /// means `events` covers only the start of the run — check this before
    /// trusting the trace tail.
    pub events_truncated: u64,
}

impl_json_struct!(FlightRecord {
    schema_version,
    label,
    seed,
    sample_interval_s,
    flow_samples,
    queue_samples,
    events,
    events_truncated,
});

/// The one field every version of the record has had, read off a text
/// that need not be a current record: what names the version in the error
/// when an older or newer record is refused.
struct VersionStamp {
    schema_version: u32,
}

impl_json_struct!(VersionStamp { schema_version });

/// One flow's samples, in record order: what [`FlightRecord::by_flow`]
/// splits a record into.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTrack<'a> {
    /// Flow id.
    pub flow: u32,
    /// The flow's rows of [`FlightRecord::flow_samples`].
    pub points: Vec<&'a FlowPoint>,
}

impl FlowTrack<'_> {
    fn series(&self, y: impl Fn(&FlowPoint) -> u64) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.t_s, y(p) as f64)).collect()
    }

    /// The `(t, cwnd)` series (cwnd in bytes).
    pub fn cwnd_series(&self) -> Vec<(f64, f64)> {
        self.series(|p| p.cwnd)
    }

    /// The `(t, cumulative delivered bytes)` series.
    pub fn delivered_series(&self) -> Vec<(f64, f64)> {
        self.series(|p| p.delivered_bytes)
    }

    /// Number of completed ProbeBW cycles visible in the phase series:
    /// transitions *into* the 1.25 up-probe phase (BBRv1 labels it
    /// `"probe_bw:1.25"`, BBRv2 `"probe_bw:up"`).
    pub fn probe_bw_cycles(&self) -> u64 {
        let mut cycles = 0;
        let mut prev_up = false;
        for p in &self.points {
            let up = p.phase == "probe_bw:1.25" || p.phase == "probe_bw:up";
            if up && !prev_up {
                cycles += 1;
            }
            prev_up = up;
        }
        cycles
    }
}

impl FlightRecord {
    /// Parse a record written at [`FLIGHT_RECORD_VERSION`]. A record of
    /// any other version is refused with an error naming both versions,
    /// whether or not it happens to decode; text that is not a record at
    /// all keeps the decoder's error.
    pub fn parse(s: &str) -> Result<FlightRecord, JsonError> {
        let decoded = FlightRecord::from_json_str(s);
        let version = match &decoded {
            Ok(record) => record.schema_version,
            Err(_) => match VersionStamp::from_json_str(s) {
                Ok(stamp) => stamp.schema_version,
                Err(_) => return decoded,
            },
        };
        if version != FLIGHT_RECORD_VERSION {
            return Err(JsonError::new(format!(
                "flight record schema v{version}: this build reads v{FLIGHT_RECORD_VERSION} \
                 only; regenerate the record"
            )));
        }
        decoded
    }

    /// The distinct flow ids present, ascending.
    pub fn flow_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.flow_samples.iter().map(|p| p.flow).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Every flow's samples, ascending by flow id, split out in one pass
    /// over [`FlightRecord::flow_samples`]: the way to read per-flow series.
    pub fn by_flow(&self) -> Vec<FlowTrack<'_>> {
        let mut tracks: BTreeMap<u32, Vec<&FlowPoint>> = BTreeMap::new();
        for p in &self.flow_samples {
            tracks.entry(p.flow).or_default().push(p);
        }
        tracks.into_iter().map(|(flow, points)| FlowTrack { flow, points }).collect()
    }

    /// The `(t, backlog_pkts)` series of the primary bottleneck queue (the
    /// lowest instrumented link id — the only one on a dumbbell).
    pub fn queue_series(&self) -> Vec<(f64, f64)> {
        let Some(link) = self.queue_samples.iter().map(|p| p.link).min() else {
            return Vec::new();
        };
        self.queue_samples
            .iter()
            .filter(|p| p.link == link)
            .map(|p| (p.t_s, p.backlog_pkts as f64))
            .collect()
    }
}

/// The concrete [`Recorder`] the experiments layer installs: accumulates
/// samples in memory and is consumed into a [`FlightRecord`] after the run.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    flow_samples: Vec<FlowPoint>,
    queue_samples: Vec<QueuePoint>,
    events: Vec<EventPoint>,
    events_truncated: u64,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Consume the recorder into the versioned artifact.
    pub fn into_record(self, label: String, seed: u64, interval: SimDuration) -> FlightRecord {
        FlightRecord {
            schema_version: FLIGHT_RECORD_VERSION,
            label,
            seed,
            sample_interval_s: interval.as_secs_f64(),
            flow_samples: self.flow_samples,
            queue_samples: self.queue_samples,
            events: self.events,
            events_truncated: self.events_truncated,
        }
    }
}

impl Recorder for FlightRecorder {
    fn on_flow_sample(&mut self, s: &FlowSample) {
        self.flow_samples.push(FlowPoint {
            t_s: s.t.as_nanos() as f64 / 1e9,
            flow: s.flow.0,
            cwnd: s.probe.cwnd,
            pacing_bps: s.probe.pacing_rate,
            srtt_s: s.probe.srtt.map(|d| d.as_secs_f64()),
            inflight: s.probe.inflight,
            phase: s.probe.phase.to_string(),
            delivered_bytes: s.delivered_bytes,
            retx: s.retx,
        });
    }

    fn on_queue_sample(&mut self, s: &QueueSample) {
        self.queue_samples.push(QueuePoint {
            t_s: s.t.as_nanos() as f64 / 1e9,
            link: s.link.0,
            backlog_pkts: s.backlog_pkts,
            backlog_bytes: s.backlog_bytes,
            dropped: s.dropped,
            marked: s.marked,
            control: s.control,
        });
    }

    fn on_trace_event(&mut self, e: &TraceEvent) {
        self.events.push(EventPoint {
            t_s: e.t.as_nanos() as f64 / 1e9,
            kind: e.kind.label().to_string(),
            flow: if e.flow == TRACE_NO_FLOW { u32::MAX } else { e.flow.0 },
            seq: e.seq,
            size: e.size,
        });
    }

    fn on_trace_truncated(&mut self, count: u64) {
        self.events_truncated = count;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_json::ToJson;
    use elephants_netsim::{FlowId, FlowProbe, LinkId, SimTime, TraceEventKind};

    fn sample(t_ms: u64, flow: u32, cwnd: u64, phase: &'static str) -> FlowSample {
        FlowSample {
            t: SimTime::ZERO + SimDuration::from_millis(t_ms),
            flow: FlowId(flow),
            probe: FlowProbe {
                cwnd,
                pacing_rate: Some(1_000_000),
                srtt: Some(SimDuration::from_millis(62)),
                inflight: cwnd / 2,
                phase,
            },
            delivered_bytes: cwnd * t_ms,
            retx: t_ms / 10,
        }
    }

    fn record_with_phases(phases: &[&'static str]) -> FlightRecord {
        let mut rec = FlightRecorder::new();
        for (i, ph) in phases.iter().enumerate() {
            rec.on_flow_sample(&sample(i as u64 * 10, 0, 10_000, ph));
        }
        rec.into_record("test".into(), 1, SimDuration::from_millis(10))
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut rec = FlightRecorder::new();
        rec.on_flow_sample(&sample(10, 0, 14_800, "slow_start"));
        rec.on_flow_sample(&sample(20, 1, 29_600, "probe_bw:1.25"));
        rec.on_queue_sample(&QueueSample {
            t: SimTime::ZERO + SimDuration::from_millis(10),
            link: LinkId(1),
            backlog_pkts: 12,
            backlog_bytes: 18_000,
            dropped: 3,
            marked: 0,
            control: Some(0.25),
        });
        rec.on_trace_event(&TraceEvent {
            t: SimTime::ZERO + SimDuration::from_millis(5),
            kind: TraceEventKind::Drop,
            flow: FlowId(1),
            seq: 77,
            size: 1500,
        });
        rec.on_trace_truncated(9);
        let record = rec.into_record("cubic-vs-bbr1".into(), 42, SimDuration::from_millis(10));
        let json = record.to_json_string();
        let back = FlightRecord::parse(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.schema_version, FLIGHT_RECORD_VERSION);
        assert_eq!(back.events_truncated, 9);
        assert_eq!(back.flow_ids(), vec![0, 1]);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let record = FlightRecorder::new().into_record("x".into(), 0, SimDuration::from_millis(1));
        // A current-shaped record under another version number, and the
        // shapes v2 (no counters) and v1 (no queue `link` either) had.
        let restamped = |v: u32| {
            let stamp = format!("\"schema_version\":{v}");
            record.to_json_string().replace("\"schema_version\":3", &stamp)
        };
        let v2 = r#"{"schema_version":2,"label":"old","seed":5,"sample_interval_s":0.01,
            "flow_samples":[{"t_s":0.01,"flow":0,"cwnd":14800,"pacing_bps":null,
                "srtt_s":0.062,"inflight":7400,"phase":"slow_start"}],
            "queue_samples":[{"t_s":0.01,"link":1,"backlog_pkts":2,"backlog_bytes":3000,
                "dropped":0,"marked":0,"control":null}],
            "events":[],"events_truncated":0}"#;
        let v1 = r#"{"schema_version":1,"label":"ancient","seed":5,"sample_interval_s":0.01,
            "flow_samples":[{"t_s":0.01,"flow":1,"cwnd":29600,"pacing_bps":2000000,
                "srtt_s":null,"inflight":0,"phase":"startup"}],
            "queue_samples":[{"t_s":0.01,"backlog_pkts":9,"backlog_bytes":13500,
                "dropped":1,"marked":0,"control":0.5}],
            "events":[],"events_truncated":0}"#;
        let refused =
            [(0, restamped(0)), (1, v1.to_string()), (2, v2.to_string()), (4, restamped(4))];
        for (version, text) in refused {
            let err = FlightRecord::parse(&text).unwrap_err().to_string();
            assert!(err.contains(&format!("schema v{version}:")), "{err}");
            assert!(err.contains("reads v3 only"), "{err}");
        }
        // A damaged current record is a decode error, not a version one.
        let err = FlightRecord::parse(&restamped(3).replace("\"seed\"", "\"sed\"")).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn probe_bw_cycle_counting() {
        // Three entries into the up-probe phase = 3 cycles; consecutive
        // up-probe samples count once.
        let rec = record_with_phases(&[
            "startup",
            "drain",
            "probe_bw:1.25",
            "probe_bw:1.25",
            "probe_bw:0.75",
            "probe_bw:1.00",
            "probe_bw:1.25",
            "probe_bw:0.75",
            "probe_rtt",
            "probe_bw:1.25",
        ]);
        assert_eq!(rec.by_flow()[0].probe_bw_cycles(), 3);
        let cubic = record_with_phases(&["slow_start", "cong_avoid", "recovery"]);
        assert_eq!(cubic.by_flow()[0].probe_bw_cycles(), 0, "no ProbeBW phase, no cycles");
    }

    #[test]
    fn per_link_queue_series_split() {
        let mut rec = FlightRecorder::new();
        for (tick, link, pkts) in [(0u64, 4u32, 3u64), (0, 5, 7), (10, 4, 4), (10, 5, 8)] {
            rec.on_queue_sample(&QueueSample {
                t: SimTime::ZERO + SimDuration::from_millis(tick),
                link: LinkId(link),
                backlog_pkts: pkts,
                backlog_bytes: pkts * 1500,
                dropped: 0,
                marked: 0,
                control: None,
            });
        }
        let record = rec.into_record("pl".into(), 7, SimDuration::from_millis(10));
        // The series is the lowest-id (primary) link's, in time order.
        assert_eq!(record.queue_series(), vec![(0.0, 3.0), (0.01, 4.0)]);
    }

    #[test]
    fn one_pass_split_equals_a_scan_per_flow() {
        use elephants_netsim::prop::{run_cases, vec_of, DEFAULT_CASES};
        use elephants_netsim::{prop_check_eq, RngExt};
        const PHASES: [&str; 5] =
            ["startup", "probe_bw:1.25", "probe_bw:0.75", "probe_bw:up", "cubic"];
        run_cases("one_pass_split_equals_a_scan_per_flow", DEFAULT_CASES, |rng| {
            // Sparse ids; each tick samples a random subset in a random
            // order, so flows go missing from ticks and some show up once.
            let ids = vec_of(rng, 1, 8, |r| r.random_range(0u32..1000) * 7919);
            let mut rec = FlightRecorder::new();
            for tick in 0..rng.random_range(1u64..30) {
                for _ in 0..rng.random_range(0..=ids.len()) {
                    let flow = ids[rng.random_range(0..ids.len())];
                    let phase = PHASES[rng.random_range(0..PHASES.len())];
                    let cwnd = rng.random_range(1u64..1_000_000);
                    rec.on_flow_sample(&sample(tick * 10, flow, cwnd, phase));
                }
            }
            let only_once = u32::MAX;
            rec.on_flow_sample(&sample(5, only_once, 1, "startup"));
            let record = rec.into_record("split".into(), 0, SimDuration::from_millis(10));

            // The per-flow scans, spelled out here so the reference shares
            // no code with the split.
            let of = |flow: u32| record.flow_samples.iter().filter(move |p| p.flow == flow);
            let scan = |flow: u32, y: fn(&FlowPoint) -> u64| -> Vec<(f64, f64)> {
                of(flow).map(|p| (p.t_s, y(p) as f64)).collect()
            };
            let tracks = record.by_flow();
            let split_ids: Vec<u32> = tracks.iter().map(|t| t.flow).collect();
            prop_check_eq!(&split_ids, &record.flow_ids());
            prop_check_eq!(tracks.last().map(|t| t.points.len()), Some(1));
            for track in &tracks {
                let f = track.flow;
                prop_check_eq!(&track.points, &of(f).collect::<Vec<_>>());
                prop_check_eq!(track.cwnd_series(), scan(f, |p| p.cwnd));
                prop_check_eq!(track.delivered_series(), scan(f, |p| p.delivered_bytes));
                let ups: Vec<bool> =
                    of(f).map(|p| p.phase == "probe_bw:1.25" || p.phase == "probe_bw:up").collect();
                let entries = ups.iter().enumerate().filter(|&(i, &up)| up && (i == 0 || !ups[i - 1]));
                prop_check_eq!(track.probe_bw_cycles(), entries.count() as u64);
            }
            Ok(())
        });
    }

    #[test]
    fn series_extraction() {
        let rec = record_with_phases(&["startup", "drain"]);
        let tracks = rec.by_flow();
        let cwnd = tracks[0].cwnd_series();
        assert_eq!(cwnd.len(), 2);
        assert!((cwnd[0].0 - 0.0).abs() < 1e-12);
        assert!((cwnd[1].0 - 0.01).abs() < 1e-12);
        assert_eq!(cwnd[0].1, 10_000.0);
        let delivered = tracks[0].delivered_series();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[1].1, 100_000.0, "cumulative counter rides the sample");
        assert!(rec.queue_series().is_empty());
    }
}
