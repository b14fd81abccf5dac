//! Probe a single scenario cell: print its raw metrics and, with
//! `--record`, write a flight record plus dynamics figures and verify the
//! artifact parses back. The scenario-shaping flags (`--loss`, `--flap`,
//! `--record`, `--sample-interval`, `--check`, `--coalesce`, `--topology`,
//! `--fault-link`) are the shared set from `elephants_experiments::cli`,
//! spelled identically across `probe`, `sweep`, the figure binaries and
//! the chaos fuzzer.
//!
//! Usage:
//! `cargo run --release -p elephants-experiments --bin probe -- \
//!    --cca1 bbr1 --cca2 cubic --aqm fq_codel --queue 2 --bw1 100M --secs 20 \
//!    --topology parking-lot:3 --check strict \
//!    --record flows,queue,events --sample-interval 10 --out results`

use elephants_experiments::cli::parse_bw;
use elephants_experiments::prelude::*;
use elephants_netsim::{CheckMode, SimDuration};
use elephants_telemetry::FlightRecord;

fn main() {
    let mut cca1 = CcaKind::Cubic;
    let mut cca2 = CcaKind::Cubic;
    let mut aqm = AqmKind::Fifo;
    let mut queue = 2.0f64;
    let mut bw = 100_000_000u64;
    let mut secs = 20u64;
    let mut seed = 1u64;
    let mut scale = 1.0f64;
    let mut out_dir = "results".to_string();
    let mut shared = SharedFlags::default();

    let fail = |msg: String| -> ! {
        eprintln!("probe: {msg}");
        std::process::exit(2);
    };

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match shared.try_parse(&a, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => fail(e),
        }
        let mut val = || args.next().unwrap_or_else(|| fail(format!("{a} needs a value")));
        match a.as_str() {
            "--cca1" => cca1 = val().parse().unwrap_or_else(|e| fail(e)),
            "--cca2" => cca2 = val().parse().unwrap_or_else(|e| fail(e)),
            "--aqm" => aqm = val().parse().unwrap_or_else(|e| fail(e)),
            "--queue" => queue = val().parse().unwrap_or_else(|e| fail(format!("bad --queue: {e}"))),
            "--bw1" | "--bw" => bw = parse_bw(&val()).unwrap_or_else(|e| fail(e)),
            "--secs" => secs = val().parse().unwrap_or_else(|e| fail(format!("bad --secs: {e}"))),
            "--seed" => seed = val().parse().unwrap_or_else(|e| fail(format!("bad --seed: {e}"))),
            "--scale" => scale = val().parse().unwrap_or_else(|e| fail(format!("bad --scale: {e}"))),
            "--out" => out_dir = val(),
            other => fail(format!("unknown flag {other}")),
        }
    }

    let opts = RunOptions { seed, flow_scale: scale, ..RunOptions::standard() };
    let mut cfg = ScenarioConfig::builder(cca1, cca2, aqm, queue, bw, &opts)
        .duration(SimDuration::from_secs(secs))
        .build()
        .unwrap_or_else(|e| fail(format!("invalid scenario: {e}")));
    shared.apply(&mut cfg).unwrap_or_else(|e| fail(format!("invalid scenario: {e}")));

    let check = shared.check.unwrap_or(CheckMode::Off);
    let mut runner = Runner::new(&cfg).seed(seed).check(check);
    if let Some(rec) = shared.recording(&out_dir).unwrap_or_else(|e| fail(e)) {
        runner = runner.recorder(rec);
    }
    let outcome = runner
        .run()
        .unwrap_or_else(|e| panic!("run failed ({}): {e}", cfg.label()));
    let check_summary = outcome.check_reports.first().map(|rep| rep.summary_line());
    let r = outcome.into_first();
    println!("{}", cfg.label());
    println!("  flows        : {}", r.flows);
    println!("  sender1      : {:.2} Mbps ({})", r.sender_mbps[0], cca1.pretty());
    println!("  sender2      : {:.2} Mbps ({})", r.sender_mbps.get(1).copied().unwrap_or(0.0), cca2.pretty());
    println!("  jain         : {:.4}", r.jain);
    println!("  utilization  : {:.4}", r.utilization);
    println!("  retransmits  : {}", r.retransmits);
    println!("  rtos         : {}", r.rtos);
    println!("  drops        : {}", r.drops);
    println!("  events       : {}", r.events);
    if r.links.len() > 1 {
        for l in &r.links {
            println!(
                "  link{:<9}: util={:.4} drops={} down_drops={} peak_queue={} pkts",
                l.link, l.utilization, l.drops, l.down_drops, l.peak_queue_pkts
            );
        }
    }
    if let Some(line) = check_summary {
        println!("  check        : {line}");
    }

    // Close the loop on the artifact: read it back through the versioned
    // parser so a schema regression fails here, not in a notebook later.
    if let Some(path) = r.record_path.as_deref() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading flight record {path}: {e}"));
        let rec = FlightRecord::parse(&text)
            .unwrap_or_else(|e| panic!("flight record {path} failed to parse back: {e}"));
        println!(
            "  record       : {path} (v{}, {} flow samples, {} queue samples, {} events{})",
            rec.schema_version,
            rec.flow_samples.len(),
            rec.queue_samples.len(),
            rec.events.len(),
            if rec.events_truncated > 0 {
                format!(", {} truncated", rec.events_truncated)
            } else {
                String::new()
            },
        );
        for track in rec.by_flow() {
            let cycles = track.probe_bw_cycles();
            if cycles > 0 {
                println!("  probe_bw     : flow {} completed {cycles} ProbeBW cycles", track.flow);
            }
        }
    }
}
