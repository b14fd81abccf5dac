//! Congestion-controller op-by-op byte-identity traces.
//!
//! Every CCA in `CcaKind::ALL`, at MSS 1500 and 8900, is driven by a seeded
//! script of 20 000 calls: ACKs of 0–4 MSS (in and out of recovery, with
//! random round starts, CE echoes, RTT samples of 62–250 ms and delivery
//! rates), loss events, recovery exits, RTOs and spurious-RTO undos. The
//! `lossy` script calls them 85 / 5 / 5 / 3 / 2 % of the time; the `calm`
//! one 98.5 / 0.6 / 0.6 / 0.2 / 0.1 %, so loss-free epochs last long enough
//! to reach CUBIC's cubic region and H-TCP's α(Δ) growth. After every call
//! `cwnd`, `ssthresh`, `pacing_rate`, `in_slow_start` and `state_snapshot()`
//! go into a trace whose FNV-1a digest is pinned per cell, with the final
//! snapshot beside it. The fixture was generated before Reno, CUBIC and
//! H-TCP shared one window machine; any diff means a change altered a
//! window, a threshold or a phase somewhere in the script.
//!
//! Four more cells drive a BBRv2 built at `loss_thresh` 0.10 (the value
//! `repro ablate` sets beside the 0.02 default) through the same scripts as
//! the default `bbr2` rows; they were pinned before BBRv2's other settings
//! became constants.
//!
//! Regenerate (only when intentionally re-baselining, from a build whose
//! behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test cca_traces
//! ```

use elephants::cca::{build_cca_seeded, AckEvent, BbrV2, CongestionControl, LossEvent};
use elephants::netsim::rng::fnv1a;
use elephants::netsim::{RngExt, SeedableRng, SimDuration, SimTime, SmallRng};
use elephants::CcaKind;
use std::fmt::Write;

const OPS: usize = 20_000;
const MIN_RTT_MS: u64 = 62;

/// Cumulative op weights (%): ACK, loss event, recovery exit, RTO; the rest
/// is spurious-RTO undo.
const LOSSY: [f64; 4] = [85.0, 90.0, 95.0, 98.0];
const CALM: [f64; 4] = [98.5, 99.1, 99.7, 99.9];

/// A CCA under test: its name in the cell label, the kind whose script it
/// runs, and its constructor from the MSS.
type Subject = (String, CcaKind, Box<dyn Fn(u32) -> Box<dyn CongestionControl>>);

/// Run one cell; returns its fixture row.
fn run_cell(subject: &Subject, mss: u32, script: &str, weights: [f64; 4]) -> String {
    let (name, kind, build) = subject;
    let label = format!("{name} mss={mss} script={script}");
    let mut cca = build(mss);
    // The script is the kind's, so a variant runs the ops its kind runs.
    let script_seed = fnv1a(format!("{kind} mss={mss} script={script}").as_bytes());
    let mut rng = SmallRng::seed_from_u64(script_seed);
    let mut now = SimTime::ZERO;
    let mut delivered = 0u64;
    let mut in_recovery = false;
    let mut max_rtt_epoch = SimDuration::from_millis(MIN_RTT_MS);
    let mut trace = String::new();
    for op in 0..OPS {
        now += SimDuration::from_micros(rng.random_range(0..=20_000u64));
        let pick = rng.random::<f64>() * 100.0;
        if pick < weights[0] {
            let newly_acked =
                if rng.random::<f64>() < 0.15 { 0 } else { rng.random_range(1..=4 * mss as u64) };
            delivered += newly_acked;
            let rtt = SimDuration::from_millis(rng.random_range(MIN_RTT_MS..=250));
            max_rtt_epoch = max_rtt_epoch.max(rtt);
            let ev = AckEvent {
                now,
                rtt,
                min_rtt: SimDuration::from_millis(MIN_RTT_MS),
                srtt: rtt,
                newly_acked,
                newly_lost: if in_recovery { rng.random_range(0..=mss as u64) } else { 0 },
                inflight: cca.cwnd().saturating_sub(newly_acked),
                delivery_rate: Some(rng.random_range(1_000_000..=10_000_000_000u64)),
                app_limited: rng.random::<f64>() < 0.05,
                delivered,
                round_start: rng.random::<f64>() < 0.1,
                ecn_ce: rng.random::<f64>() < 0.05,
            };
            cca.on_ack(&ev, in_recovery);
            write!(trace, "A {newly_acked} {} {}", rtt.as_nanos(), in_recovery).unwrap();
        } else if pick < weights[1] {
            cca.on_loss_event(&LossEvent {
                now,
                inflight: cca.cwnd(),
                delivered,
                min_rtt: SimDuration::from_millis(MIN_RTT_MS),
                max_rtt_epoch,
            });
            in_recovery = true;
            max_rtt_epoch = SimDuration::from_millis(MIN_RTT_MS);
            trace.push('L');
        } else if pick < weights[2] {
            cca.on_recovery_exit(now);
            in_recovery = false;
            trace.push('X');
        } else if pick < weights[3] {
            cca.on_rto(now);
            in_recovery = false;
            trace.push('R');
        } else {
            cca.on_spurious_rto(now);
            trace.push('S');
        }
        writeln!(
            trace,
            " | {} {} {:?} {} | {:?}",
            cca.cwnd(),
            cca.ssthresh(),
            cca.pacing_rate(),
            cca.in_slow_start(),
            cca.state_snapshot()
        )
        .unwrap();
        let fails = cca.check_invariants(mss);
        assert!(fails.is_empty(), "{label} op {op}: check failed: {fails:?}");
    }
    let s = cca.state_snapshot();
    format!(
        "{{\"cell\":\"{label}\",\"ops\":{OPS},\"trace_fnv1a\":\"{:016x}\",\
         \"final\":{{\"phase\":\"{}\",\"cwnd\":{},\"ssthresh\":{},\"pacing_rate\":{}}}}}",
        fnv1a(trace.as_bytes()),
        s.phase,
        s.cwnd,
        s.ssthresh,
        s.pacing_rate.map_or("null".to_string(), |r| r.to_string()),
    )
}

#[test]
fn cca_traces_are_byte_identical_to_pre_change_fixture() {
    let mut subjects: Vec<Subject> = CcaKind::ALL
        .into_iter()
        .map(|kind| -> Subject {
            (kind.to_string(), kind, Box::new(move |mss| build_cca_seeded(kind, mss, 7)))
        })
        .collect();
    subjects.push((
        "bbr2 loss_thresh=0.10".to_string(),
        CcaKind::BbrV2,
        Box::new(|mss| Box::new(BbrV2::new(0.10, mss, 7))),
    ));
    let mut rows = Vec::new();
    for subject in &subjects {
        for mss in [1500, 8900] {
            for (script, weights) in [("lossy", LOSSY), ("calm", CALM)] {
                rows.push(run_cell(subject, mss, script, weights));
            }
        }
    }
    let got = format!("[\n{}\n]\n", rows.join(",\n"));
    integration_tests::assert_pinned("cca", "traces.json", &got, "cca traces");
}
