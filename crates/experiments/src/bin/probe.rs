//! Probe a single scenario cell: print its raw metrics and, with
//! `--record`, write a flight record plus dynamics figures and verify the
//! artifact parses back. Besides its own `--cca1`, `--cca2`, `--aqm`,
//! `--queue` and `--secs` it takes the flags `elephants_experiments::cli`
//! gives every binary that shapes a scenario (`probe --help` lists them);
//! `--bw` is one bandwidth.
//!
//! Usage:
//! `cargo run --release -p elephants-experiments --bin probe -- \
//!    --cca1 bbr1 --cca2 cubic --aqm fq_codel --queue 2 --bw 100M --secs 20 \
//!    --topology parking-lot:3 --check strict \
//!    --record flows,queue,events --sample-interval 10 --out results`

use elephants_experiments::cli::{exit_usage, Flag, PROBE};
use elephants_experiments::prelude::*;
use elephants_netsim::time::NANOS_PER_SEC;
use elephants_netsim::SimDuration;
use elephants_telemetry::FlightRecord;

/// Probe's own flags; it also takes the shared ones in [`PROBE`].
const OWN: &[Flag] = &[
    ("--cca1", "CCA", "group 1's congestion control (default cubic)"),
    ("--cca2", "CCA", "group 2's congestion control (default cubic)"),
    ("--aqm", "AQM", "bottleneck queue discipline (default fifo)"),
    ("--queue", "BDP", "bottleneck buffer in bandwidth-delay products (default 2)"),
    ("--secs", "S", "simulated seconds (default 20)"),
];

fn main() {
    // Unlike the grid binaries, probe runs one cell at 100 Mbit/s unless
    // `--bw` says otherwise.
    let args = ["--bw".to_string(), "100M".to_string()].into_iter().chain(std::env::args().skip(1));
    let cli = Cli::parse_or_exit("probe", PROBE, OWN, args);
    let [bw] = cli.bws[..] else { exit_usage("--bw: probe runs one bandwidth") };
    let (cca1, cca2) = (cli.value("--cca1", CcaKind::Cubic), cli.value("--cca2", CcaKind::Cubic));
    let aqm = cli.value("--aqm", AqmKind::Fifo);
    let queue = cli.value("--queue", 2.0);
    let secs: u64 = cli.value("--secs", 20);
    let Some(nanos) = secs.checked_mul(NANOS_PER_SEC) else {
        exit_usage(&format!("--secs {secs}: past the simulator's nanosecond clock"))
    };
    let fail = |msg: String| -> ! { exit_usage(&format!("invalid scenario: {msg}")) };

    let mut cfg = ScenarioConfig::builder(cca1, cca2, aqm, queue, bw, &cli.opts)
        .duration(SimDuration::from_nanos(nanos))
        .build()
        .unwrap_or_else(|e| fail(e));
    cli.shared.apply(&mut cfg).unwrap_or_else(|e| fail(e));

    let check = cli.shared.check.unwrap_or_default();
    let mut runner = Runner::new(&cfg).seed(cli.opts.seed).check(check);
    if let Some(rec) = cli.record {
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
