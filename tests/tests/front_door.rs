//! The scenario behind every study call in `tests/` and `examples/`, pinned.
//!
//! One row per call site, loops expanded, in source order: the call's
//! arguments, its repeat count and the fingerprint of the config it runs.
//! A run is a pure function of (config, seed), so an unchanged table means
//! every result those call sites assert on is unchanged too.

use integration_tests::{assert_pinned, study_config};

/// One study call: the paper dumbbell with these knobs, `repeats` seeds.
struct Call {
    site: &'static str,
    cca1: &'static str,
    cca2: &'static str,
    aqm: &'static str,
    queue_bdp: f64,
    mbps: u64,
    secs: u64,
    flow_scale: f64,
    ecn: bool,
    seed: u64,
    repeats: u32,
}

impl Call {
    fn new(
        site: &'static str,
        (cca1, cca2): (&'static str, &'static str),
        aqm: &'static str,
        queue_bdp: f64,
        mbps: u64,
        secs: u64,
    ) -> Self {
        Call {
            site,
            cca1,
            cca2,
            aqm,
            queue_bdp,
            mbps,
            secs,
            flow_scale: 1.0,
            ecn: false,
            seed: 1,
            repeats: 1,
        }
    }

    fn fingerprint(&self) -> u64 {
        study_config(self.cca1, self.cca2, self.aqm, self.queue_bdp, self.mbps, self.secs)
            .flow_scale(self.flow_scale)
            .ecn(self.ecn)
            .seed(self.seed)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", self.site))
            .fingerprint()
    }
}

/// Every study call, in source order. `quick_study` runs 12 s at 100 Mbps.
fn calls() -> Vec<Call> {
    let mut calls = Vec::new();
    let mut push = |c: Call| calls.push(c);

    let shapes = "paper_shapes";
    push(Call::new(shapes, ("bbr1", "cubic"), "fifo", 0.5, 100, 12));
    push(Call::new(shapes, ("reno", "cubic"), "fifo", 0.5, 100, 30));
    push(Call::new(shapes, ("reno", "cubic"), "fifo", 16.0, 100, 120));
    push(Call::new(shapes, ("bbr1", "cubic"), "red", 2.0, 100, 12));
    push(Call::new(shapes, ("reno", "cubic"), "red", 2.0, 100, 12));
    for pair in [("bbr1", "cubic"), ("bbr2", "cubic"), ("reno", "cubic"), ("htcp", "cubic")] {
        push(Call::new(shapes, pair, "fq_codel", 2.0, 100, 12));
    }
    for cca in ["cubic", "reno", "htcp", "bbr2"] {
        push(Call::new(shapes, (cca, cca), "fifo", 2.0, 100, 12));
    }
    for cca in ["cubic", "bbr1", "bbr2", "htcp"] {
        push(Call::new(shapes, (cca, cca), "fifo", 2.0, 100, 12));
    }
    push(Call::new(shapes, ("cubic", "cubic"), "fifo", 2.0, 1000, 20));
    push(Call::new(shapes, ("cubic", "cubic"), "red", 2.0, 1000, 20));
    push(Call::new(shapes, ("bbr1", "bbr1"), "fifo", 0.5, 100, 12));
    push(Call::new(shapes, ("cubic", "cubic"), "fifo", 0.5, 100, 12));
    push(Call::new(shapes, ("bbr1", "bbr1"), "fifo", 0.5, 100, 20));
    push(Call::new(shapes, ("bbr1", "bbr1"), "fifo", 16.0, 100, 20));
    push(Call::new(shapes, ("bbr2", "bbr2"), "red", 2.0, 100, 12));

    let cross = "cross_crate";
    for aqm in ["fifo", "red", "fq_codel"] {
        for pair in [("cubic", "cubic"), ("bbr2", "cubic")] {
            push(Call::new(cross, pair, aqm, 1.0, 100, 6));
        }
    }
    for repeats in [1, 3] {
        push(Call { repeats, ..Call::new(cross, ("cubic", "cubic"), "fifo", 2.0, 100, 5) });
    }
    for ecn in [false, true] {
        push(Call { ecn, ..Call::new(cross, ("bbr2", "bbr2"), "fq_codel", 2.0, 100, 8) });
    }
    push(Call { flow_scale: 0.4, ..Call::new(cross, ("cubic", "cubic"), "fifo", 2.0, 500, 4) });
    for aqm in ["fifo", "pie"] {
        push(Call::new(cross, ("cubic", "cubic"), aqm, 8.0, 100, 15));
    }

    for queue_bdp in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        push(Call::new("quickstart", ("bbr1", "cubic"), "fifo", queue_bdp, 100, 30));
    }
    for aqm in ["fifo", "fq_codel"] {
        for cca in ["bbr1", "bbr2", "htcp", "reno", "cubic"] {
            let call = Call::new("elephant_transfer", (cca, "cubic"), aqm, 2.0, 10_000, 6);
            push(Call { flow_scale: 0.25, ..call });
        }
    }
    for (mbps, secs) in [(100, 30), (500, 20), (1000, 15), (10_000, 6)] {
        for aqm in ["fifo", "red", "fq_codel"] {
            let call = Call::new("aqm_shootout", ("cubic", "cubic"), aqm, 2.0, mbps, secs);
            push(Call { flow_scale: if mbps >= 10_000 { 0.25 } else { 1.0 }, ..call });
        }
    }
    calls
}

#[test]
fn every_study_call_runs_its_pinned_config() {
    let table: String = calls()
        .iter()
        .map(|c| {
            format!(
                "{} {} {} {} q={} mbps={} secs={} scale={} ecn={} seed={} repeats={} {:016x}\n",
                c.site,
                c.cca1,
                c.cca2,
                c.aqm,
                c.queue_bdp,
                c.mbps,
                c.secs,
                c.flow_scale,
                c.ecn,
                c.seed,
                c.repeats,
                c.fingerprint()
            )
        })
        .collect();
    assert_pinned("front_door", "configs.txt", &table, "study configs");
}
