//! The scenario behind every study call in `tests/` and `examples/`, pinned.
//!
//! One row per call site, loops expanded, in source order: the call's
//! scenario, its repeat count and the fingerprint of its config. The
//! `paper_shapes` rows are the runs of the claims table's `paper_shapes/`
//! rows, in table order. A run is a pure function of (config, seed), so an
//! unchanged table means every result those call sites assert on is
//! unchanged too.

use elephants::experiments::claims::{paper, CLAIMS};
use elephants::experiments::{RunOptions, ScenarioBuilder, ScenarioConfig};
use integration_tests::assert_pinned;

/// Every study call, in source order: its site, its scenario (seed 1) and
/// how many seeds it runs.
fn calls() -> Vec<(&'static str, ScenarioConfig, u32)> {
    let o = RunOptions::standard();
    let mut calls = Vec::new();
    let mut push = |site: &'static str, call: ScenarioBuilder, repeats| {
        calls.push((site, call.build().unwrap_or_else(|e| panic!("{site}: {e}")), repeats));
    };

    for claim in CLAIMS.iter().filter(|c| c.id.starts_with("paper_shapes/")) {
        for run in (claim.runs)(&o) {
            push("paper_shapes", run, 1);
        }
    }

    let cross = "cross_crate";
    for aqm in ["fifo", "red", "fq_codel"] {
        for (cca1, cca2) in [("cubic", "cubic"), ("bbr2", "cubic")] {
            push(cross, paper(&o, cca1, cca2, aqm, 1.0, 100, 6), 1);
        }
    }
    for repeats in [1, 3] {
        push(cross, paper(&o, "cubic", "cubic", "fifo", 2.0, 100, 5), repeats);
    }
    for ecn in [false, true] {
        push(cross, paper(&o, "bbr2", "bbr2", "fq_codel", 2.0, 100, 8).ecn(ecn), 1);
    }
    push(cross, paper(&o, "cubic", "cubic", "fifo", 2.0, 500, 4).flow_scale(0.4), 1);
    for aqm in ["fifo", "pie"] {
        push(cross, paper(&o, "cubic", "cubic", aqm, 8.0, 100, 15), 1);
    }

    for queue_bdp in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        push("quickstart", paper(&o, "bbr1", "cubic", "fifo", queue_bdp, 100, 30), 1);
    }
    for aqm in ["fifo", "fq_codel"] {
        for cca in ["bbr1", "bbr2", "htcp", "reno", "cubic"] {
            let call = paper(&o, cca, "cubic", aqm, 2.0, 10_000, 6);
            push("elephant_transfer", call.flow_scale(0.25), 1);
        }
    }
    for (mbps, secs) in [(100, 30), (500, 20), (1000, 15), (10_000, 6)] {
        for aqm in ["fifo", "red", "fq_codel"] {
            let call = paper(&o, "cubic", "cubic", aqm, 2.0, mbps, secs);
            push("aqm_shootout", call.flow_scale(if mbps >= 10_000 { 0.25 } else { 1.0 }), 1);
        }
    }
    calls
}

#[test]
fn every_study_call_runs_its_pinned_config() {
    let table: String = calls()
        .iter()
        .map(|(site, c, repeats)| {
            format!(
                "{site} {} {} {} q={} mbps={} secs={} scale={} ecn={} seed={} repeats={repeats} \
                 {:016x}\n",
                c.cca1,
                c.cca2,
                c.aqm,
                c.queue_bdp,
                c.bw_bps / 1_000_000,
                c.duration.as_secs_f64(),
                c.flow_scale,
                c.ecn,
                c.seed,
                c.fingerprint()
            )
        })
        .collect();
    assert_pinned("front_door", "configs.txt", &table, "study configs");
}
