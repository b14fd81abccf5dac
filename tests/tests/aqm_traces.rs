//! AQM op-by-op byte-identity traces.
//!
//! Every discipline in `AqmKind::ALL`, with ECN off and on, over a shallow
//! (60 kB) and a deep (1 MB) buffer, is driven by the same seeded stream of
//! 20 000 enqueues and dequeues from six flows. Each op's outcome, the
//! backlog, the five counters and `control_state()` go into a trace whose
//! FNV-1a digest is pinned per cell, with the final counters and the
//! verdict / mark tallies beside it. The fixture was generated *before*
//! PR 25 moved the queue mechanics into `netsim::queue::DropTail`; any diff
//! means that change altered a verdict, a drop, a mark or the control law.
//!
//! Regenerate (only when intentionally re-baselining, from a build whose
//! behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test aqm_traces
//! ```

use elephants::aqm::{build_aqm, Verdict};
use elephants::netsim::rng::fnv1a;
use elephants::netsim::{FlowId, NodeId, Packet, RngExt, SeedableRng, SimDuration, SimTime, SmallRng};
use elephants::AqmKind;
use std::fmt::Write;

const OPS: usize = 20_000;
const FLOWS: u32 = 6;
const DEEP_EVERY: usize = 97;

/// Verdict and mark tallies over one cell.
#[derive(Default)]
struct Tally {
    enqueued: u64,
    marked: u64,
    dropped: u64,
    dequeued: u64,
    dequeued_ce: u64,
    dequeue_drops: u64,
}

/// Run one cell; returns its fixture row.
fn run_cell(kind: AqmKind, ecn: bool, buffer: u64) -> String {
    let label = format!("{kind} ecn={ecn} buffer={buffer}");
    let mut aqm = build_aqm(kind, buffer, 100_000_000, 1500, ecn, 7);
    let mut ops = SmallRng::seed_from_u64(fnv1a(label.as_bytes()));
    let mut aqm_rng = SmallRng::seed_from_u64(11);
    let mut seqs = [0u64; FLOWS as usize];
    let mut t = SimTime::ZERO;
    let mut trace = String::new();
    let mut tally = Tally::default();
    for op in 0..OPS {
        t += SimDuration::from_micros(ops.random_range(0..=400u64));
        if ops.random::<f64>() < 0.55 {
            let flow = ops.random_range(0..FLOWS);
            let size = ops.random_range(500..=1100u32);
            let seq = seqs[flow as usize];
            seqs[flow as usize] += 1;
            let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, size, t);
            p.ecn_capable = ops.random::<f64>() < 0.7;
            let v = aqm.enqueue(p, t, &mut aqm_rng);
            match v {
                Verdict::Enqueued => tally.enqueued += 1,
                Verdict::Marked => tally.marked += 1,
                Verdict::Dropped => tally.dropped += 1,
            }
            write!(trace, "E {flow} {seq} {size} {v:?}").unwrap();
        } else {
            let res = aqm.dequeue(t, &mut aqm_rng);
            tally.dequeue_drops += res.dropped as u64;
            match res.pkt {
                Some(p) => {
                    tally.dequeued += 1;
                    tally.dequeued_ce += p.ecn_ce as u64;
                    write!(trace, "D {} {} {} {}", p.flow.0, p.seq, p.ecn_ce, res.dropped).unwrap();
                }
                None => write!(trace, "D - {}", res.dropped).unwrap(),
            }
        }
        let s = aqm.stats();
        writeln!(
            trace,
            " | {} {} | {} {} {} {} {} | {:?}",
            aqm.backlog_pkts(),
            aqm.backlog_bytes(),
            s.enqueued,
            s.dropped_enqueue,
            s.dropped_dequeue,
            s.marked,
            s.dequeued,
            aqm.control_state()
        )
        .unwrap();
        let fails = aqm.check_invariants(t, false);
        assert!(fails.is_empty(), "{label} op {op}: shallow check failed: {fails:?}");
        if op % DEEP_EVERY == 0 {
            let fails = aqm.check_invariants(t, true);
            assert!(fails.is_empty(), "{label} op {op}: deep check failed: {fails:?}");
        }
    }
    let s = aqm.stats();
    format!(
        "{{\"cell\":\"{label}\",\"ops\":{OPS},\"trace_fnv1a\":\"{:016x}\",\
         \"stats\":[{},{},{},{},{}],\"backlog\":[{},{}],\
         \"verdicts\":{{\"enqueued\":{},\"marked\":{},\"dropped\":{}}},\
         \"dequeues\":{{\"pkts\":{},\"ce\":{},\"dropped\":{}}}}}",
        fnv1a(trace.as_bytes()),
        s.enqueued,
        s.dropped_enqueue,
        s.dropped_dequeue,
        s.marked,
        s.dequeued,
        aqm.backlog_pkts(),
        aqm.backlog_bytes(),
        tally.enqueued,
        tally.marked,
        tally.dropped,
        tally.dequeued,
        tally.dequeued_ce,
        tally.dequeue_drops,
    )
}

#[test]
fn aqm_traces_are_byte_identical_to_pre_change_fixture() {
    let mut rows = Vec::new();
    for kind in AqmKind::ALL {
        for ecn in [false, true] {
            for buffer in [60_000, 1_000_000] {
                rows.push(run_cell(kind, ecn, buffer));
            }
        }
    }
    let got = format!("[\n{}\n]\n", rows.join(",\n"));
    integration_tests::assert_pinned("aqm", "traces.json", &got, "aqm traces");
}
