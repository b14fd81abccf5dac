//! The benchmark-regression report: `BENCH_netsim.json`.
//!
//! The engine bench measures the paper's 25 Gbps FIFO cell at quick scale
//! (and, when not filtered out, the Table-2 500-flow cell at standard
//! scale) and records events/second, ns/event, the sample spread, and the
//! peak bottleneck-queue depth into a JSON trajectory file at the workspace
//! root. Each entry is keyed by a label (`BENCH_LABEL` env var, default
//! `"current"`); re-running with the same label replaces that entry, so the
//! file accumulates one entry per milestone and future PRs have a perf
//! baseline to defend.
//!
//! # The regression gate
//!
//! PR 6 landed a 32% events/sec regression that sat in the committed file
//! unnoticed because nothing *compared* entries. [`BenchReport::gate`]
//! closes that hole: it compares an entry against the previous committed
//! entry for the same benchmark and fails when events/sec dropped more
//! than a threshold (default [`GATE_DEFAULT_THRESHOLD`]). `scripts/bench.sh
//! --gate` and `scripts/ci.sh --bench-gate` run it after a fresh
//! measurement (set `BENCH_GATE=1`; tune with `BENCH_GATE_THRESHOLD`).

use crate::harness::{BenchResult, Criterion};
use crate::{parkinglot_scenario, regression_scenario, table2_scenario};
use elephants_experiments::{Runner, ScenarioConfig};
use elephants_json::{impl_json_struct, FromJson, ToJson};
use std::path::PathBuf;

/// Benchmark id (group/name) of the regression scenario in the engine bench.
pub const REGRESSION_BENCH_ID: &str = "engine/25gbps_fifo_quick";

/// Benchmark id of the paper-faithful Table-2 500-flow scenario.
pub const TABLE2_BENCH_ID: &str = "engine/25gbps_fifo_table2";

/// Benchmark id of the multi-bottleneck 3-hop parking-lot scenario.
pub const PARKINGLOT_BENCH_ID: &str = "engine/1gbps_parkinglot3_quick";

/// Default regression-gate threshold: fail when events/sec drops more than
/// this fraction below the previous committed entry.
pub const GATE_DEFAULT_THRESHOLD: f64 = 0.10;

/// One measured point on the perf trajectory.
///
/// The committed entries measured before the spread was recorded have
/// `runs` 0 and `min_run_ms`/`max_run_ms` equal to the median, so "within
/// noise" claims are only checkable against later entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Milestone label (e.g. `"pr4-recorder"`, `"current"`).
    pub label: String,
    /// Benchmark id this entry measures (gate only compares like with like).
    pub bench: String,
    /// Simulated events processed per wall-clock second (from the median).
    pub events_per_sec: f64,
    /// Wall-clock nanoseconds per simulated event (from the median).
    pub ns_per_event: f64,
    /// Median wall-clock time for the whole scenario run, milliseconds.
    pub median_run_ms: f64,
    /// Fastest sample, milliseconds.
    pub min_run_ms: f64,
    /// Slowest sample, milliseconds.
    pub max_run_ms: f64,
    /// Number of timed samples behind the statistics (0 = spread not recorded).
    pub runs: u64,
    /// Events processed by one run of the scenario.
    pub events_processed: u64,
    /// Largest bottleneck-queue depth observed, in packets.
    pub peak_queue_pkts: u64,
}

impl_json_struct!(BenchEntry {
    label,
    bench,
    events_per_sec,
    ns_per_event,
    median_run_ms,
    min_run_ms,
    max_run_ms,
    runs,
    events_processed,
    peak_queue_pkts,
});

/// A passing gate comparison: which baseline was used and the ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct GatePass {
    /// Label of the baseline entry compared against.
    pub baseline: String,
    /// `new.events_per_sec / baseline.events_per_sec`.
    pub ratio: f64,
}

/// The whole trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Human-readable description of the measured scenario.
    pub scenario: String,
    /// One entry per milestone label, in commit order.
    pub entries: Vec<BenchEntry>,
}

impl_json_struct!(BenchReport { scenario, entries });

impl BenchReport {
    /// Insert `entry`, replacing any previous entry with the same label.
    pub fn upsert(&mut self, entry: BenchEntry) {
        self.entries.retain(|e| e.label != entry.label);
        self.entries.push(entry);
    }

    /// Ratio of `a`'s events/sec over `b`'s, if both labels are present.
    pub fn speedup(&self, a: &str, b: &str) -> Option<f64> {
        let ea = self.entries.iter().find(|e| e.label == a)?;
        let eb = self.entries.iter().find(|e| e.label == b)?;
        Some(ea.events_per_sec / eb.events_per_sec)
    }

    /// The regression gate: compare the entry named `label` against the
    /// previous entry for the same benchmark (entries are kept in commit
    /// order, so "previous" is the latest committed baseline).
    ///
    /// Returns `Err` with a human-readable verdict when events/sec dropped
    /// more than `threshold` (a fraction, e.g. 0.10); `Ok(None)` when there
    /// is no earlier same-benchmark entry to compare against; `Ok(Some)`
    /// with the baseline and ratio otherwise.
    pub fn gate(&self, label: &str, threshold: f64) -> Result<Option<GatePass>, String> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.label == label)
            .ok_or_else(|| format!("gate: no entry labelled '{label}'"))?;
        let new = &self.entries[idx];
        let Some(base) = self.entries[..idx].iter().rev().find(|e| e.bench == new.bench) else {
            return Ok(None);
        };
        let ratio = new.events_per_sec / base.events_per_sec;
        if ratio < 1.0 - threshold {
            return Err(format!(
                "'{label}' regressed {}: {:.2}M events/sec vs '{}' at {:.2}M ({:.1}% drop, \
                 threshold {:.0}%)",
                new.bench,
                new.events_per_sec / 1e6,
                base.label,
                base.events_per_sec / 1e6,
                (1.0 - ratio) * 100.0,
                threshold * 100.0,
            ));
        }
        Ok(Some(GatePass { baseline: base.label.clone(), ratio }))
    }
}

/// Where the trajectory file lives: `$BENCH_OUT`, or `BENCH_netsim.json` at
/// the workspace root.
pub fn default_report_path() -> PathBuf {
    match std::env::var_os("BENCH_OUT") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_netsim.json"),
    }
}

/// Build the trajectory entry for one tracked benchmark from its measured
/// samples and one counting run (events processed + peak queue depth).
pub fn measure_entry(
    label: String,
    bench: &str,
    cfg: &ScenarioConfig,
    r: &BenchResult,
) -> BenchEntry {
    let probe = Runner::new(cfg)
        .seed(1)
        .run()
        .expect("tracked bench scenario must run")
        .into_first();
    let median_ns = r.median_ns();
    BenchEntry {
        label,
        bench: bench.to_string(),
        events_per_sec: probe.events as f64 / (median_ns / 1e9),
        ns_per_event: median_ns / probe.events as f64,
        median_run_ms: median_ns / 1e6,
        min_run_ms: r.samples_ns.first().copied().unwrap_or(median_ns) / 1e6,
        max_run_ms: r.samples_ns.last().copied().unwrap_or(median_ns) / 1e6,
        runs: r.samples_ns.len() as u64,
        events_processed: probe.events,
        peak_queue_pkts: probe.peak_queue_pkts,
    }
}

/// Emit/refresh `BENCH_netsim.json` from a finished engine-bench run.
///
/// Both tracked benchmarks are folded in when they ran: the quick
/// regression cell under `BENCH_LABEL` and the Table-2 500-flow cell under
/// `BENCH_LABEL_TABLE2` (default `"<BENCH_LABEL>-table2"`). No-op when
/// neither ran (filtered out) or in `--test` one-shot mode (timings would
/// be meaningless).
pub fn emit_engine_report(c: &Criterion) {
    if c.is_test_mode() {
        return;
    }
    let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "current".to_string());
    let table2_label =
        std::env::var("BENCH_LABEL_TABLE2").unwrap_or_else(|_| format!("{label}-table2"));
    let parkinglot_label = std::env::var("BENCH_LABEL_PARKINGLOT")
        .unwrap_or_else(|_| format!("{label}-parkinglot"));
    let tracked: [(&str, String, ScenarioConfig); 3] = [
        (REGRESSION_BENCH_ID, label, regression_scenario()),
        (TABLE2_BENCH_ID, table2_label, table2_scenario()),
        (PARKINGLOT_BENCH_ID, parkinglot_label, parkinglot_scenario()),
    ];
    let measured: Vec<BenchEntry> = tracked
        .into_iter()
        .filter_map(|(id, label, cfg)| {
            let r = c.results().iter().find(|r| r.id == id)?;
            Some(measure_entry(label, id, &cfg, r))
        })
        .collect();
    if measured.is_empty() {
        return;
    }

    let path = default_report_path();
    let mut report = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| BenchReport::from_json_str(&s).ok())
        .unwrap_or_else(|| BenchReport { scenario: String::new(), entries: Vec::new() });
    report.scenario = format!("{} (quick preset)", regression_scenario().label());
    for entry in measured {
        report.upsert(entry);
    }
    match std::fs::write(&path, report.to_json_pretty()) {
        Ok(()) => println!("bench report written to {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Run the regression gate over the freshly written report when
/// `BENCH_GATE=1`: every entry recorded by this process (see
/// [`emit_engine_report`]) is compared against its previous committed
/// same-benchmark entry. Threshold comes from `BENCH_GATE_THRESHOLD`
/// (fraction, default [`GATE_DEFAULT_THRESHOLD`]).
pub fn gate_from_env(c: &Criterion) -> Result<(), String> {
    if c.is_test_mode() || std::env::var("BENCH_GATE").map(|v| v != "1").unwrap_or(true) {
        return Ok(());
    }
    let threshold = match std::env::var("BENCH_GATE_THRESHOLD") {
        Ok(s) => {
            s.parse::<f64>().map_err(|e| format!("bad BENCH_GATE_THRESHOLD '{s}': {e}"))?
        }
        Err(_) => GATE_DEFAULT_THRESHOLD,
    };
    let path = default_report_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("gate: cannot read {}: {e}", path.display()))?;
    let report = BenchReport::from_json_str(&text)
        .map_err(|e| format!("gate: cannot parse {}: {e}", path.display()))?;

    let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "current".to_string());
    let table2_label =
        std::env::var("BENCH_LABEL_TABLE2").unwrap_or_else(|_| format!("{label}-table2"));
    let parkinglot_label = std::env::var("BENCH_LABEL_PARKINGLOT")
        .unwrap_or_else(|_| format!("{label}-parkinglot"));
    for (id, label) in [
        (REGRESSION_BENCH_ID, label),
        (TABLE2_BENCH_ID, table2_label),
        (PARKINGLOT_BENCH_ID, parkinglot_label),
    ] {
        if !c.results().iter().any(|r| r.id == id) {
            continue;
        }
        match report.gate(&label, threshold)? {
            Some(pass) => println!(
                "bench gate: PASS '{label}' at {:.1}% of '{}'",
                pass.ratio * 100.0,
                pass.baseline
            ),
            None => {
                println!("bench gate: '{label}' has no earlier {id} entry; nothing to compare")
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, eps: f64) -> BenchEntry {
        BenchEntry {
            label: label.to_string(),
            bench: REGRESSION_BENCH_ID.to_string(),
            events_per_sec: eps,
            ns_per_event: 1e9 / eps,
            median_run_ms: 1.0,
            min_run_ms: 0.9,
            max_run_ms: 1.2,
            runs: 5,
            events_processed: 1000,
            peak_queue_pkts: 7,
        }
    }

    #[test]
    fn upsert_replaces_same_label() {
        let mut r = BenchReport { scenario: "s".into(), entries: vec![entry("a", 1.0)] };
        r.upsert(entry("a", 2.0));
        r.upsert(entry("b", 3.0));
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].events_per_sec, 2.0);
    }

    #[test]
    fn speedup_between_labels() {
        let mut r = BenchReport { scenario: "s".into(), entries: vec![] };
        r.upsert(entry("old", 2.0));
        r.upsert(entry("new", 3.0));
        assert_eq!(r.speedup("new", "old"), Some(1.5));
        assert_eq!(r.speedup("new", "missing"), None);
    }

    #[test]
    fn report_json_round_trips() {
        let r = BenchReport { scenario: "s".into(), entries: vec![entry("a", 1.5)] };
        let back = BenchReport::from_json_str(&r.to_json_pretty()).unwrap();
        assert_eq!(back, r);
        // The committed trajectory carries every field and survives a
        // read-modify-write untouched.
        let committed = include_str!("../../../BENCH_netsim.json");
        let report = BenchReport::from_json_str(committed).unwrap();
        assert_eq!(report.to_json_pretty(), committed);
    }

    /// The gate must catch exactly the regression that PR 6 landed: the
    /// committed 8.29M events/sec against pr4-recorder's 12.19M is a 32%
    /// drop, far beyond the 10% default threshold.
    #[test]
    fn gate_fails_on_the_committed_pr6_regression() {
        let mut r = BenchReport { scenario: "s".into(), entries: vec![] };
        r.upsert(entry("pr2-wheel-arena", 9_249_222.8));
        r.upsert(entry("pr4-recorder", 12_190_651.2));
        r.upsert(entry("pr6-checker", 8_290_719.7));
        let err = r.gate("pr6-checker", GATE_DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("pr4-recorder"), "must compare against the previous entry: {err}");
        assert!(err.contains("32.0% drop"), "{err}");
    }

    #[test]
    fn gate_passes_within_threshold_and_compares_previous_entry() {
        let mut r = BenchReport { scenario: "s".into(), entries: vec![] };
        r.upsert(entry("old", 10_000_000.0));
        r.upsert(entry("new", 9_500_000.0)); // 5% drop: inside the 10% gate
        let pass = r.gate("new", GATE_DEFAULT_THRESHOLD).unwrap().unwrap();
        assert_eq!(pass.baseline, "old");
        assert!((pass.ratio - 0.95).abs() < 1e-9);
    }

    #[test]
    fn gate_only_compares_same_benchmark_entries() {
        let mut r = BenchReport { scenario: "s".into(), entries: vec![] };
        r.upsert(entry("quick-old", 10_000_000.0));
        let mut t2 = entry("table2-new", 5_000_000.0);
        t2.bench = TABLE2_BENCH_ID.to_string();
        r.upsert(t2);
        // Half the quick entry's rate, but a different benchmark: no baseline.
        assert_eq!(r.gate("table2-new", GATE_DEFAULT_THRESHOLD), Ok(None));
    }

    #[test]
    fn gate_unknown_label_is_an_error() {
        let r = BenchReport { scenario: "s".into(), entries: vec![entry("a", 1.0)] };
        assert!(r.gate("missing", 0.1).is_err());
    }
}
