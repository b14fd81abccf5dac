//! Flight-recorder integration tests, driven through the `elephants` facade.
//!
//! Two contracts are guarded here:
//!
//! 1. **Recording is a pure observation.** A run with the full recorder
//!    attached (flows + queue + events) produces byte-identical
//!    `RunMetrics` JSON — and the same processed-event count — as the same
//!    run with no recorder. Sample ticks ride the event loop but are
//!    excluded from the `processed` counter and never draw from the RNG.
//!
//! 2. **The artifact shows the paper's dynamics.** A BBRv1-vs-CUBIC run
//!    long enough for steady state must show BBRv1 cycling through ProbeBW
//!    (the 8-phase gain cycle is the paper's signature BBR behaviour), and
//!    the record must survive a JSON round trip through the versioned
//!    parser.

use elephants::cca::CcaKind;
use elephants::experiments::{Recording, RunOptions, Runner, ScenarioConfig};
use elephants::json::ToJson;
use elephants::telemetry::FlightRecord;
use elephants::AqmKind;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("elephants-telemetry-{tag}-{}", std::process::id()))
}

#[test]
fn recording_does_not_perturb_run_metrics() {
    let cfg = ScenarioConfig::new(
        CcaKind::BbrV2,
        CcaKind::Cubic,
        AqmKind::Red,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    );
    let dir = temp_dir("identity");

    let plain = Runner::new(&cfg).seed(11).run().unwrap().into_first();
    let recorded = Runner::new(&cfg)
        .seed(11)
        .recorder(Recording::parse("flows,queue,events").unwrap().out_dir(&dir).svg(false))
        .run()
        .unwrap()
        .into_first();

    assert_eq!(
        plain.metrics().to_json_string(),
        recorded.metrics().to_json_string(),
        "RunMetrics JSON must be byte-identical with and without the recorder"
    );
    assert_eq!(
        plain.events, recorded.events,
        "sample ticks must not count toward processed events"
    );
    assert!(plain.record_path.is_none());
    assert!(recorded.record_path.is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bbr1_vs_cubic_record_shows_probe_bw_cycles() {
    // 10 simulated seconds at 100 Mbps / 62 ms RTT: one ProbeBW cycle is
    // 8 × RTprop ≈ 0.5 s, so steady state leaves room for well over three
    // cycles even after startup/drain.
    let cfg = ScenarioConfig::new(
        CcaKind::BbrV1,
        CcaKind::Cubic,
        AqmKind::Fifo,
        2.0,
        100_000_000,
        &RunOptions::quick(),
    );
    let dir = temp_dir("probebw");
    let outcome = Runner::new(&cfg)
        .seed(1)
        .recorder(Recording::parse("flows,queue").unwrap().out_dir(&dir))
        .run()
        .unwrap();

    let path = outcome.record_path().expect("record written");
    let record = FlightRecord::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

    // Flow 0 is sender 0's first flow, running BBRv1.
    let tracks = record.by_flow();
    let cycles = tracks[0].probe_bw_cycles();
    assert!(
        cycles >= 3,
        "BBRv1 must complete at least 3 ProbeBW cycles in 10 s, saw {cycles}"
    );
    // The CUBIC flow never reports a ProbeBW phase.
    let flows = record.flow_ids();
    assert!(flows.len() >= 2, "both senders sampled: {flows:?}");
    let cubic_flow = *flows.last().unwrap();
    assert_eq!(tracks.last().unwrap().probe_bw_cycles(), 0, "CUBIC has no ProbeBW");
    assert!(
        record
            .flow_samples
            .iter()
            .filter(|p| p.flow == cubic_flow)
            .any(|p| p.phase == "cubic"),
        "CUBIC flow reports its avoidance phase"
    );

    // The dynamics figure rides along with the record.
    let svgs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "svg"))
        .collect();
    assert!(!svgs.is_empty(), "cwnd dynamics SVG emitted next to the record");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_record_round_trips_through_versioned_parser() {
    let cfg = ScenarioConfig::new(
        CcaKind::Cubic,
        CcaKind::Cubic,
        AqmKind::Fifo,
        1.0,
        100_000_000,
        &RunOptions::quick(),
    );
    let dir = temp_dir("roundtrip");
    let outcome = Runner::new(&cfg)
        .seed(4)
        .recorder(Recording::parse("flows,queue,events").unwrap().out_dir(&dir).svg(false))
        .run()
        .unwrap();
    let path = outcome.record_path().unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    let record = FlightRecord::parse(&text).unwrap();
    assert_eq!(record.to_json_string(), text.trim(), "parse ∘ serialize is the identity");
    assert_eq!(record.seed, 4);
    assert!(!record.flow_samples.is_empty());
    assert!(!record.queue_samples.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
