//! One table of pinned runs.
//!
//! Every scenario the suite pins or strict-checks is one row of `rows`.
//! Each row runs once, at its config's seed (42 for every row built here;
//! a `chaos/` row keeps the seed its case was found at), under
//! `CheckMode::Strict`: the checker
//! must have observed events and reported no violation, the run must show
//! what its `Expect` names, and its result is pinned as one line of
//! `tests/fixtures/runs.jsonl`:
//! `{"cell", "events_processed", "metrics"[, "phase_samples"]}`. Two runs
//! that agree on `RunMetrics` can still differ in the event count (the
//! same segments retransmitted in another order) or in the share of time
//! spent in a BBR phase; the line holds all three.
//!
//! The lines were first written before the refactors they guard: the
//! topology chain, the scoreboard cursors, `BbrCore`, the two-valued
//! `ReceiverConfig`. Any diff means a change altered a run.
//!
//! A row belongs to exactly one of [`SECTIONS`], named by the prefix of
//! its cell, and one test runs each section through [`check`]:
//!
//! | section                   | test                                   |
//! |---------------------------|----------------------------------------|
//! | `grid/`                   | `coalesce.rs`                          |
//! | `quick/`, `topology/*`    | `topology_equiv.rs` (three tests)      |
//! | `recovery/`               | `recovery.rs`                          |
//! | `bbr/`                    | `bbr_phases.rs`                        |
//! | `ecn/`                    | `pinned_runs.rs`                       |
//! | `chaos/`                  | `chaos_corpus.rs`                      |
//!
//! `pinned_runs.rs` also checks that the fixture holds one line per row,
//! in table order. To add a row, give it a new name that says what the
//! cell is (not `cfg.label()`, which a plain row and its coalesced twin
//! share, and not `cache_key`, whose hash moves whenever a config field is
//! added) under a section, then regenerate from a build whose behaviour is
//! known-good and check that the diff adds that one line and moves no
//! other:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test <section test>
//! ```

use elephants::cca::CcaKind;
use elephants::experiments::{
    par_try_map_with_workers, Recording, RunOptions, RunResult, Runner, ScenarioBuilder,
    ScenarioConfig,
};
use elephants::json::{FromJson, ToJson};
use elephants::netsim::{CheckMode, FaultPlan, LossModel, TopologySpec};
use elephants::{AqmKind, SimDuration};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Mutex;

/// The sections of the table, by cell prefix; every row is in one.
pub const SECTIONS: [&str; 8] = [
    "grid/",
    "quick/",
    "topology/parking_lot",
    "topology/multi_dumbbell",
    "recovery/",
    "bbr/",
    "ecn/",
    "chaos/",
];

const SEED: u64 = 42;

/// What a row must show beyond a clean strict run.
enum Expect {
    /// Nothing more: the run is there to be pinned.
    Clean,
    /// Loss recovery ran: at least one retransmit.
    Recovers,
    /// Recorded with `Recording::flows_only()`; some flow was sampled in
    /// each of these phase labels, and the per-flow counts by label are
    /// pinned as `phase_samples`.
    Phases(&'static [&'static str]),
    /// Coalesced ACKs must neither manufacture bytes nor wedge the
    /// transfer: the goodput delivered is positive, at most the 100 Mbps
    /// bottleneck plus what the 2-BDP queue drains over the 6 s window
    /// (106 Mbps), and at least half of the named plain twin's. Equality is
    /// not asked for: ACK timing feeds back into the CCA, and per-ACK
    /// window growth ramps slower under ACK thinning.
    CoalescedTwinOf(String),
    /// A 3-hop parking lot: 4 groups, one `LinkResult` per hop, every hop
    /// carries traffic (the long flow crosses all three), and the scalar
    /// drop and queue fields mirror hop 0.
    ParkingLot,
    /// A two-RTT multi-dumbbell: 2 groups, both delivering, on one shared
    /// bottleneck that stays busy.
    MultiDumbbell,
}

struct Row {
    cell: String,
    cfg: ScenarioConfig,
    expect: Expect,
}

/// A 100 Mbps dumbbell cell at the quick preset's paper defaults.
fn cell(cca1: CcaKind, cca2: CcaKind, aqm: AqmKind, queue_bdp: f64, secs: u64) -> ScenarioBuilder {
    ScenarioConfig::builder(cca1, cca2, aqm, queue_bdp, 100_000_000, &RunOptions::quick())
        .duration(SimDuration::from_secs(secs))
}

fn rows() -> Vec<Row> {
    use AqmKind::{Codel, FqCodel, Fifo, Pie, Red};
    use CcaKind::{BbrV1, BbrV2, Cubic, Htcp, Reno};
    let mut rows = Vec::new();
    let mut row = |cell: &str, b: ScenarioBuilder, expect| {
        let cfg = b.seed(SEED).build().unwrap_or_else(|e| panic!("{cell}: {e}"));
        rows.push(Row { cell: cell.to_string(), cfg, expect });
    };

    // Every CCA x AQM cell against CUBIC at 2 BDP, 8 s (6 s measured past
    // warmup), per-segment ACKs and GRO-style coalescing.
    for cca in CcaKind::ALL {
        for aqm in AqmKind::ALL {
            let plain = format!("grid/{cca}_{aqm}");
            row(&plain, cell(cca, Cubic, aqm, 2.0, 8), Expect::Clean);
            let gro = cell(cca, Cubic, aqm, 2.0, 8).coalesce(true);
            row(&format!("{plain}/gro"), gro, Expect::CoalescedTwinOf(plain));
        }
    }

    // The quick preset's 10 s: one cell per AQM, cycling through the five
    // CCAs, then CUBIC on each multi-bottleneck shape.
    for (cca, aqm) in [(BbrV1, Fifo), (BbrV2, Red), (Cubic, FqCodel), (Reno, Codel), (Htcp, Pie)] {
        row(&format!("quick/{cca}_{aqm}"), cell(cca, Cubic, aqm, 2.0, 10), Expect::Clean);
    }
    let shape = |topology| cell(Cubic, Cubic, Fifo, 2.0, 10).topology(topology);
    let parking_lot = shape(TopologySpec::ParkingLot { hops: 3 });
    row("topology/parking_lot_3", parking_lot, Expect::ParkingLot);
    let two_rtts = shape(TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] });
    row("topology/multi_dumbbell_31_124", two_rtts, Expect::MultiDumbbell);

    // The benchmark's `recovery_10g` loss shapes at 100 Mbps: a shallow
    // buffer under BBRv1, bursty random loss, a link flap down at half time
    // for a fifth of the run. 20 s gives a few dozen recovery episodes, so
    // SACK marking, FACK loss detection, retransmit selection, RTO and its
    // undo run hundreds of times a cell.
    let ge = LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 };
    let flap = FaultPlan::flap(SimDuration::from_secs(10), SimDuration::from_secs(4));
    for (name, b) in [
        ("bbr1_shallow", cell(BbrV1, Cubic, Fifo, 0.5, 20)),
        ("htcp_ge_loss", cell(Htcp, Cubic, Fifo, 2.0, 20).loss(ge)),
        ("bbr1_flap", cell(BbrV1, Cubic, Fifo, 2.0, 20).faults(flap)),
    ] {
        row(&format!("recovery/{name}"), b, Expect::Recovers);
    }

    // The branches the two BBRs do not share, and the ProbeRTT step they
    // do, each with the phases it exists to reach.
    let bbr: [(_, _, &'static [&'static str]); 6] = [
        // CUBIC fills a deep FIFO (it takes ~20 s): the first UP probe into
        // the full buffer sees over 2 % loss and cuts `inflight_hi`.
        ("bbr2_cubic_deep", cell(BbrV2, Cubic, Fifo, 16.0, 30), &["probe_bw:down"]),
        // A shallow FIFO overflows in Startup: v2's loss exit.
        ("bbr2_cubic_shallow", cell(BbrV2, Cubic, Fifo, 0.5, 12), &["drain", "probe_bw:down"]),
        // RED marking: per-round CE accounting (the CE rate tops out near
        // 0.1 here, under `ECN_THRESH`, so no cut comes from it).
        ("bbr2_red_ecn", cell(BbrV2, BbrV2, Red, 2.0, 12).ecn(true), &["probe_bw:up"]),
        // The same against CUBIC: the one cell where `on_loss_event` cuts
        // the ceiling (twice, once from Drain) rather than the UP probe;
        // the DOWN it enters is over before the next 10 ms sample.
        ("bbr2_cubic_red_ecn", cell(BbrV2, Cubic, Red, 2.0, 12).ecn(true), &["drain"]),
        // Past one RTprop window (10 s in v1, 5 s in v2).
        (
            "bbr1_probe_rtt",
            cell(BbrV1, BbrV1, Fifo, 2.0, 25),
            &["probe_rtt", "probe_bw:1.25", "probe_bw:0.75", "probe_bw:1.00"],
        ),
        (
            "bbr2_probe_rtt",
            cell(BbrV2, BbrV2, Fifo, 2.0, 12),
            &["probe_rtt", "probe_bw:cruise", "probe_bw:refill", "probe_bw:up", "probe_bw:down"],
        ),
    ];
    for (name, b, phases) in bbr {
        row(&format!("bbr/{name}"), b, Expect::Phases(phases));
    }

    // Every other discipline's CE-mark path (at enqueue in PIE, at dequeue
    // in CoDel and FQ-CoDel). FIFO marks nothing, so its line is
    // `grid/bbr2_fifo`'s: ECT on the wire alone changes no run.
    for aqm in [Fifo, Codel, FqCodel, Pie] {
        let ecn = cell(BbrV2, Cubic, aqm, 2.0, 8).ecn(true);
        row(&format!("ecn/bbr2_cubic_{aqm}"), ecn, Expect::Clean);
    }

    // Generated cases from the corners of the fuzzer's space, each the
    // config line `chaos` prints for a finding (`shrunk (N evals) to:
    // {...}`): a late joiner cut by a link-down; coalesced ACKs under
    // FQ-CoDel; random loss and a link-down on a 3-hop parking lot. A
    // finding becomes a row by pasting that line under a new name; the
    // row runs at the seed in the line, the one the case failed at.
    for (name, json) in [
        (
            "staggered",
            r#"{"cca1":"BbrV2","cca2":"Cubic","aqm":"Red","queue_bdp":16,"bw_bps":50000000,"duration":2500000000,"warmup":1200000000,"flow_scale":0.25,"mss":4500,"ecn":false,"rtt_ms":31,"seed":1,"loss":"None","faults":{"events":[{"at":2070000000,"action":"LinkDown"}]},"max_events":50000000,"coalesce":false,"topology":"Dumbbell","fault_link":0,"start_offset_ms":[0,400]}"#,
        ),
        (
            "coalescing",
            r#"{"cca1":"Htcp","cca2":"Htcp","aqm":"FqCodel","queue_bdp":8,"bw_bps":25000000,"duration":800000000,"warmup":300000000,"flow_scale":1,"mss":4500,"ecn":false,"rtt_ms":62,"seed":25,"loss":"None","faults":{"events":[]},"max_events":50000000,"coalesce":true,"topology":"Dumbbell","fault_link":0,"start_offset_ms":[]}"#,
        ),
        (
            "multi_bottleneck",
            r#"{"cca1":"BbrV1","cca2":"Htcp","aqm":"Pie","queue_bdp":0.5,"bw_bps":25000000,"duration":500000000,"warmup":100000000,"flow_scale":1,"mss":1500,"ecn":false,"rtt_ms":31,"seed":7,"loss":{"Bernoulli":{"p":0.01}},"faults":{"events":[{"at":10000000,"action":"LinkDown"}]},"max_events":50000000,"coalesce":false,"topology":{"ParkingLot":{"hops":3}},"fault_link":0,"start_offset_ms":[]}"#,
        ),
    ] {
        let cell = format!("chaos/{name}");
        let cfg = ScenarioConfig::from_json_str(json).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(cfg.to_json_string(), json, "{cell}: the config re-encodes to its text");
        cfg.validate().unwrap_or_else(|e| panic!("{cell}: {e}"));
        rows.push(Row { cell, cfg, expect: Expect::Clean });
    }
    rows
}

/// The rows of `section`, in table order.
fn rows_of(section: &str) -> Vec<Row> {
    rows().into_iter().filter(|r| r.cell.starts_with(section)).collect()
}

/// The configs of `section`'s rows, in table order.
pub fn configs(section: &str) -> Vec<ScenarioConfig> {
    rows_of(section).into_iter().map(|r| r.cfg).collect()
}

/// One row's strict run, and its per-flow sample counts by phase label
/// when it was recorded.
struct Ran {
    result: RunResult,
    phases: Option<BTreeMap<u32, BTreeMap<String, u64>>>,
}

fn run(row: &Row) -> Ran {
    let cell = &row.cell;
    let dir = std::env::temp_dir()
        .join(format!("elephants-pinned-{}-{}", cell.replace('/', "-"), std::process::id()));
    let mut runner = Runner::new(&row.cfg).check(CheckMode::Strict);
    if let Expect::Phases(_) = row.expect {
        runner = runner.recorder(Recording::flows_only().out_dir(&dir).svg(false));
    }
    let outcome = runner.run().unwrap_or_else(|e| panic!("{cell}: {e}"));
    let [report] = &outcome.check_reports[..] else {
        panic!("{cell}: {} check reports, want one", outcome.check_reports.len())
    };
    assert!(report.events_checked > 0, "{cell}: the checker saw no events");
    assert!(report.is_clean(), "{cell}: {:?}", report.violations);
    let phases = matches!(row.expect, Expect::Phases(_)).then(|| {
        let record = outcome.load_record().unwrap_or_else(|e| panic!("{cell}: {e}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut by_flow: BTreeMap<u32, BTreeMap<String, u64>> = BTreeMap::new();
        for p in record.flow_samples {
            *by_flow.entry(p.flow).or_default().entry(p.phase).or_default() += 1;
        }
        by_flow
    });
    Ran { result: outcome.into_first(), phases }
}

/// Check `row`'s expectation on its run; `done` holds the rows run so far.
fn expect(row: &Row, ran: &Ran, done: &BTreeMap<&str, &Ran>) {
    let (cell, r) = (&row.cell, &ran.result);
    match &row.expect {
        Expect::Clean => {}
        Expect::Recovers => assert!(r.retransmits > 0, "{cell}: the cell never entered recovery"),
        Expect::Phases(must_see) => {
            let by_flow = ran.phases.as_ref().expect("a recorded row");
            for want in *must_see {
                assert!(
                    by_flow.values().any(|phases| phases.contains_key(*want)),
                    "{cell}: no flow was ever sampled in {want}: {by_flow:?}"
                );
            }
        }
        Expect::CoalescedTwinOf(plain) => {
            let total = |r: &RunResult| -> f64 { r.sender_mbps.iter().sum() };
            let p = total(&done.get(plain.as_str()).expect("the plain twin runs first").result);
            let g = total(r);
            assert!(g > 0.0, "{cell}: the coalesced run delivered nothing");
            assert!(g <= 106.0, "{cell}: {g:.2} Mbps through 100 Mbps: bytes manufactured");
            assert!(g >= 0.5 * p, "{cell}: {g:.2} Mbps coalesced against {p:.2} Mbps plain");
        }
        Expect::ParkingLot => {
            assert_eq!(r.sender_mbps.len(), 4, "{cell}: K+1 groups on a K-hop parking lot");
            assert_eq!(r.links.len(), 3, "{cell}: one LinkResult per shaped hop");
            assert!(r.links.iter().all(|l| l.utilization > 0.0), "{cell}: idle hop {:?}", r.links);
            assert_eq!(r.drops, r.links[0].drops, "{cell}: scalars mirror the primary hop");
            assert_eq!(r.peak_queue_pkts, r.links[0].peak_queue_pkts, "{cell}");
        }
        Expect::MultiDumbbell => {
            assert_eq!(r.sender_mbps.len(), 2, "{cell}: one goodput entry per group");
            assert_eq!(r.links.len(), 1, "{cell}: one shared bottleneck");
            assert!(r.utilization > 0.5, "{cell}: φ = {}", r.utilization);
            assert!(r.sender_mbps.iter().all(|&m| m > 0.0), "{cell}: {:?}", r.sender_mbps);
        }
    }
}

/// The pinned line of one row's run.
fn line(row: &Row, ran: &Ran) -> String {
    let r = &ran.result;
    let mut line = format!(
        "{{\"cell\":\"{}\",\"events_processed\":{},\"metrics\":{}",
        row.cell,
        r.events,
        r.metrics().to_json_string()
    );
    if let Some(by_flow) = &ran.phases {
        let flows: Vec<String> = by_flow
            .iter()
            .map(|(flow, counts)| {
                let counts: Vec<String> =
                    counts.iter().map(|(phase, n)| format!("\"{phase}\":{n}")).collect();
                format!("\"{flow}\":{{{}}}", counts.join(","))
            })
            .collect();
        line += &format!(",\"phase_samples\":{{{}}}", flows.join(","));
    }
    line + "}"
}

/// Run every row of `section` once under the strict checker, check each
/// row's expectation, and compare its line with `runs.jsonl` (or, with
/// `UPDATE_FIXTURES` set, write it there).
pub fn check(section: &str) {
    assert!(SECTIONS.contains(&section), "{section}: not one of {SECTIONS:?}");
    let rows = rows_of(section);
    assert!(!rows.is_empty(), "{section}: no rows");
    let runs = par_try_map_with_workers(&rows, 0, run);
    let mut done = BTreeMap::new();
    let mut got = Vec::new();
    for (row, ran) in rows.iter().zip(&runs) {
        let ran = ran.as_ref().unwrap_or_else(|e| panic!("{}: the run panicked: {e}", row.cell));
        expect(row, ran, &done);
        done.insert(row.cell.as_str(), ran);
        got.push(line(row, ran));
    }
    pin(section, &got);
}

/// Every row is in exactly one section, no two rows share a name, and
/// (unless `UPDATE_FIXTURES` is set) the fixture holds one line per row in
/// table order.
pub fn check_table() {
    let cells: Vec<String> = rows().into_iter().map(|r| r.cell).collect();
    for cell in &cells {
        let n = SECTIONS.iter().filter(|s| cell.starts_with(*s)).count();
        assert_eq!(n, 1, "{cell}: in {n} sections, want one");
    }
    let unique: BTreeSet<&String> = cells.iter().collect();
    assert_eq!(unique.len(), cells.len(), "a row name is used twice: {cells:?}");
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        return; // the sections are rewriting their lines
    }
    let text = fixture_text();
    let pinned: Vec<&str> = text.lines().map(cell_of).collect();
    assert_eq!(pinned, cells, "{}: not one line per row in table order", fixture().display());
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("runs.jsonl")
}

fn fixture_text() -> String {
    std::fs::read_to_string(fixture()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with UPDATE_FIXTURES=1 \
             only from a known-good build",
            fixture().display()
        )
    })
}

/// The row a pinned line is of.
fn cell_of(line: &str) -> &str {
    line.strip_prefix("{\"cell\":\"").and_then(|l| l.split('"').next()).unwrap_or(line)
}

/// Compare `section`'s lines with the fixture's, naming the first row that
/// differs; with `UPDATE_FIXTURES` set, replace them and keep the others.
fn pin(section: &str, got: &[String]) {
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        // The tests of one binary run on threads of one process.
        static WRITING: Mutex<()> = Mutex::new(());
        let _writing = WRITING.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::fs::read_to_string(fixture()).unwrap_or_default();
        let mut by_cell: BTreeMap<&str, &str> = old.lines().map(|l| (cell_of(l), l)).collect();
        by_cell.extend(got.iter().map(|l| (cell_of(l), l.as_str())));
        let cells: Vec<String> = rows().into_iter().map(|r| r.cell).collect();
        let text: String = cells
            .iter()
            .filter_map(|cell| by_cell.get(cell.as_str()))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(fixture(), text).unwrap();
        eprintln!("regenerated the {section} lines of {}", fixture().display());
        return;
    }
    let text = fixture_text();
    let want: Vec<&str> = text.lines().filter(|l| cell_of(l).starts_with(section)).collect();
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    if let Some(at) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        let (g, w) = (got.get(at).copied(), want.get(at).copied());
        panic!(
            "pinned runs: row {} diverged from its pre-change line of {}\n got: {}\nwant: {}",
            g.or(w).map_or("?", cell_of),
            fixture().display(),
            g.unwrap_or("<no line>"),
            w.unwrap_or("<no line>")
        );
    }
}
