//! The four workloads: their cells, one unit of each run the way a user
//! runs it (`Runner::run`, `try_sweep_with_workers`) or through the traced
//! replica, and the checks on what came out.

use crate::host::{cpu_seconds, Digest};
use crate::replica;
use elephants_analysis::{
    bootstrap_ci, convergence_time, fairness_dynamics, late_joiner_response, ConvergenceSpec,
};
use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_experiments::runner::{Recording, RunResult, Runner};
use elephants_experiments::svg::{ChartSpec, Series};
use elephants_experiments::{
    try_sweep_with_workers, FigureOutput, RunCache, RunOptions, ScenarioConfig, TextTable,
};
use elephants_json::ToJson;
use elephants_netsim::{FaultPlan, LossModel, SimDuration, TopologySpec};
use elephants_telemetry::FlightRecord;
use elephants_workload::plan_flows;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady25g,
    Recovery10g,
    Matrix1g,
    Observed10g,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady25g,
        Workload::Recovery10g,
        Workload::Matrix1g,
        Workload::Observed10g,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady25g => "steady_25g",
            Workload::Recovery10g => "recovery_10g",
            Workload::Matrix1g => "matrix_1g",
            Workload::Observed10g => "observed_10g",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Bottleneck rate of the workload's cells; every smoke cell runs at
    /// 100 Mbps.
    fn bw(self, smoke: bool) -> u64 {
        match (smoke, self) {
            (true, _) => 100_000_000,
            (false, Workload::Steady25g) => 25_000_000_000,
            (false, Workload::Recovery10g | Workload::Observed10g) => 10_000_000_000,
            (false, Workload::Matrix1g) => 1_000_000_000,
        }
    }

    /// How many times the assembly of every cell is repeated for one
    /// `setup_s` sample, sized on the reference box so that a sample spans
    /// at least a quarter of a second.
    pub fn setup_repeats(self, smoke: bool) -> u32 {
        match (smoke, self) {
            (true, _) => 1,
            (false, Workload::Steady25g) => 1100,
            (false, Workload::Recovery10g) => 2000,
            (false, Workload::Matrix1g) => 1400,
            (false, Workload::Observed10g) => 3000,
        }
    }
}

/// One cell: a scenario and, on `observed_10g`, what to record.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cfg: ScenarioConfig,
    pub recording: Option<Recording>,
}

/// Sample spacing of the `observed_10g` recorder.
const RECORD_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Window of the fairness-dynamics analysis, seconds.
const ANALYSIS_WINDOW_S: f64 = 0.1;

/// Generate the cells of `workload` from `seed`. The simulated durations
/// size a unit to about two seconds of host time on the reference box.
pub fn cells(workload: Workload, seed: u64, smoke: bool, scratch: &Path) -> Vec<Cell> {
    use AqmKind::*;
    use CcaKind::*;
    let bw = workload.bw(smoke);
    let opts = RunOptions {
        seed,
        ..RunOptions::standard()
    };
    let cell = |cca1, cca2, aqm, queue_bdp: f64, secs: f64| {
        ScenarioConfig::builder(cca1, cca2, aqm, queue_bdp, bw, &opts)
            .duration(SimDuration::from_secs_f64(secs))
    };
    let built = |b: elephants_experiments::ScenarioBuilder| Cell {
        cfg: b.build().expect("workload cells are valid scenarios"),
        recording: None,
    };
    match workload {
        Workload::Steady25g => {
            let s = if smoke { 2.0 } else { 1.0 };
            vec![
                built(cell(Cubic, Cubic, Fifo, 16.0, 2.2 * s)),
                built(cell(BbrV1, BbrV1, Fifo, 16.0, 1.1 * s)),
                built(cell(BbrV2, BbrV2, Fifo, 16.0, 1.1 * s)),
            ]
        }
        Workload::Recovery10g => {
            // A smoke cell has two flows; it needs longer to lose anything.
            let secs = if smoke { 8.0 } else { 2.0 };
            let flap = FaultPlan::flap(
                SimDuration::from_secs_f64(0.5 * secs),
                SimDuration::from_secs_f64(0.2 * secs),
            );
            vec![
                built(cell(BbrV1, Cubic, Fifo, 0.5, secs)),
                built(cell(Cubic, Cubic, Fifo, 0.5, secs)),
                built(
                    cell(Htcp, Cubic, Fifo, 2.0, secs).loss(LossModel::GilbertElliott {
                        p_gb: 0.002,
                        p_bg: 0.2,
                    }),
                ),
                built(cell(BbrV1, Cubic, Fifo, 2.0, secs).faults(flap)),
            ]
        }
        Workload::Matrix1g => {
            let secs = if smoke { 3.0 } else { 5.0 };
            let mut out = Vec::new();
            for cca in [BbrV1, BbrV2, Htcp, Reno, Cubic] {
                for aqm in [Fifo, Red, Codel, Pie, FqCodel] {
                    out.push(built(cell(cca, Cubic, aqm, 2.0, secs)));
                }
            }
            out.push(built(
                cell(BbrV1, Cubic, Fifo, 2.0, secs).topology(TopologySpec::ParkingLot { hops: 3 }),
            ));
            out.push(built(cell(BbrV1, Cubic, Fifo, 2.0, secs).topology(
                TopologySpec::MultiDumbbell {
                    rtts_ms: vec![20, 80],
                },
            )));
            out
        }
        Workload::Observed10g => {
            let secs = if smoke { 4.0 } else { 2.3 };
            let recording = Recording::parse("flows,queue,events")
                .expect("a valid recording spec")
                .interval(RECORD_INTERVAL)
                .out_dir(scratch.join("records"))
                .svg(true);
            let join_ms = (secs * 300.0) as u64;
            [
                cell(BbrV1, Cubic, Fifo, 2.0, secs),
                cell(BbrV2, Cubic, Fifo, 2.0, secs),
                cell(Cubic, Cubic, Fifo, 2.0, secs).start_offset_ms(vec![0, join_ms]),
            ]
            .into_iter()
            .map(|b| Cell {
                recording: Some(recording.clone()),
                ..built(b)
            })
            .collect()
        }
    }
}

/// What one cell of a unit produced.
#[derive(Debug, Clone)]
pub struct CellOut {
    pub label: String,
    pub sim_s: f64,
    pub result: RunResult,
}

/// What only the replica can see (the runner's `RunResult` drops it).
#[derive(Debug, Clone, Default)]
pub struct ReplicaTotals {
    pub segments_sent: u64,
    pub retransmits_total: u64,
    pub aqm_drops: u64,
    pub aqm_marks: u64,
    /// Host milliseconds spent assembling the cells.
    pub build_ms: f64,
    /// Host milliseconds turning recorders into flight records.
    pub into_record_ms: f64,
    /// The flight records of the recorded cells, read back from their text.
    pub records: Vec<FlightRecord>,
}

/// One unit of a workload, run and checked.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub cells: Vec<CellOut>,
    /// Cells that ended in a `RunError`: failed operations.
    pub errors: Vec<String>,
    /// Checks on the outputs that did not hold.
    pub violations: Vec<String>,
    /// Host wall and CPU seconds of the unit's work (scratch wiping and
    /// the checks are outside).
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The part of `wall_s` spent inside the simulation calls: `Runner::run`,
    /// the cold sweep, or the replica's assemble and run.
    pub runner_wall_s: f64,
    /// CPU seconds of `matrix_1g`'s cold pass, which the two-worker pass is
    /// set against.
    pub cold_cpu_s: f64,
    /// Per-layer readings the unit took on the way, by metric name.
    pub readings: Vec<(&'static str, f64)>,
}

impl Unit {
    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.result.events).sum()
    }

    /// Hash of every cell's canonical `RunMetrics` JSON and event count.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        for c in &self.cells {
            d.feed(c.result.metrics().to_json_string().as_bytes());
            d.feed(c.result.events.to_string().as_bytes());
        }
        d.hex()
    }

    fn push_cell(&mut self, cfg: &ScenarioConfig, result: RunResult) {
        self.cells.push(CellOut {
            label: cfg.label(),
            sim_s: cfg.duration.as_secs_f64(),
            result,
        });
    }

    fn read(&mut self, name: &'static str, value: f64) {
        match self.readings.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += value,
            None => self.readings.push((name, value)),
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host wall and CPU time of a unit's work.
struct Stopwatch {
    cpu0: f64,
    started: Instant,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            cpu0: cpu_seconds(),
            started: Instant::now(),
        }
    }

    fn wall_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The unit's work ends here; what the caller does next checks it.
    fn stop(&self, unit: &mut Unit) {
        unit.wall_s = self.wall_s();
        unit.cpu_s = cpu_seconds() - self.cpu0;
    }
}

/// Empty `dir` and create it again.
pub fn wipe(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).unwrap_or_else(|e| panic!("wipe {}: {e}", dir.display()));
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
}

fn cache_dir(scratch: &Path) -> PathBuf {
    scratch.join("cache")
}

/// Run one unit the way a user of the crates does: one thread, one cell
/// after another, tracing off.
pub fn run_plain(workload: Workload, cells: &[Cell], seed: u64, scratch: &Path) -> Unit {
    wipe(scratch);
    let mut unit = Unit::default();
    let watch = Stopwatch::start();
    match workload {
        Workload::Steady25g | Workload::Recovery10g => {
            for cell in cells {
                match Runner::new(&cell.cfg).seed(seed).run() {
                    Ok(out) => unit.push_cell(&cell.cfg, out.into_first()),
                    Err(e) => unit.errors.push(format!("{}: {e}", cell.cfg.label())),
                }
            }
            watch.stop(&mut unit);
            unit.runner_wall_s = unit.wall_s;
        }
        Workload::Matrix1g => matrix_unit(&mut unit, cells, scratch, &watch),
        Workload::Observed10g => {
            // One record is held at a time, as the pipeline would; the last
            // one stays for the round-trip check (the traced run checks all).
            let mut last = None;
            for cell in cells {
                last = None;
                let rec = cell.recording.clone().expect("observed cells record");
                let t = Instant::now();
                let run = Runner::new(&cell.cfg).seed(seed).recorder(rec).run();
                unit.runner_wall_s += t.elapsed().as_secs_f64();
                match run {
                    Ok(out) => {
                        let path = out.record_path().expect("a recorded run");
                        let text = std::fs::read_to_string(path)
                            .unwrap_or_else(|e| panic!("read {path}: {e}"));
                        let record = FlightRecord::parse(&text)
                            .unwrap_or_else(|e| panic!("parse {path}: {e}"));
                        analyze(&mut unit, &cell.cfg, &record, seed, scratch);
                        last = Some((text, record));
                        unit.push_cell(&cell.cfg, out.into_first());
                    }
                    Err(e) => unit.errors.push(format!("{}: {e}", cell.cfg.label())),
                }
            }
            watch.stop(&mut unit);
            if let Some((text, record)) = &last {
                check_round_trip(&mut unit, text, record);
            }
        }
    }
    check_unit(&mut unit, workload, cells, None);
    unit
}

/// `matrix_1g`: the cells as one flat sweep against a fresh on-disk cache
/// (cold pass), the same sweep again (warm pass, served from the cache),
/// then table, CSV and SVG assembly.
fn matrix_unit(unit: &mut Unit, cells: &[Cell], scratch: &Path, watch: &Stopwatch) {
    let configs: Vec<ScenarioConfig> = cells.iter().map(|c| c.cfg.clone()).collect();
    let cache = RunCache::new(cache_dir(scratch));
    let cold = try_sweep_with_workers(&configs, 1, &cache, 1);
    unit.runner_wall_s = watch.wall_s();
    unit.read("experiments.sweep.cold_ms", unit.runner_wall_s * 1e3);
    unit.cold_cpu_s = cpu_seconds() - watch.cpu0;

    let t = Instant::now();
    let warm = try_sweep_with_workers(&configs, 1, &cache, 1);
    unit.read("experiments.sweep.warm_ms", ms_since(t));

    let t = Instant::now();
    let figure = matrix_figure(&warm.results);
    let out_dir = scratch.join("figures").display().to_string();
    let written = figure
        .write_csvs(&out_dir)
        .and_then(|_| figure.write_svgs(&out_dir));
    unit.read("experiments.figures.assemble_ms", ms_since(t));

    watch.stop(unit);

    if let Err(e) = written {
        unit.violations
            .push(format!("writing the matrix figure: {e}"));
    }
    for f in cold.failed.iter().chain(&warm.failed) {
        unit.errors.push(format!(
            "{} (seed {}): {}",
            f.config.label(),
            f.seed,
            f.error
        ));
    }
    for r in &cold.results {
        unit.push_cell(&r.config, r.runs[0].clone());
    }
    let json = |out: &elephants_experiments::SweepOutput| -> Vec<String> {
        out.results
            .iter()
            .map(|r| r.runs[0].to_json_string())
            .collect()
    };
    if json(&cold) != json(&warm) {
        unit.violations
            .push("warm-pass results differ from the cold pass".into());
    }
    let entries = std::fs::read_dir(cache_dir(scratch)).map_or(0, |d| d.count());
    if entries != cells.len() {
        unit.violations
            .push(format!("{entries} cache entries for {} cells", cells.len()));
    }
    unit.read("experiments.cache.put_errors", warm.cache_put_errors as f64);
    unit.read(
        "experiments.cache.quarantined",
        warm.cache_quarantined as f64,
    );
    if warm.cache_put_errors + warm.cache_quarantined > 0 {
        unit.violations.push(format!(
            "cache reported {} put errors and {} quarantined entries",
            warm.cache_put_errors, warm.cache_quarantined
        ));
    }
}

/// The figure a sweep of the matrix feeds: Jain index and goodput per
/// CCA pair and queue discipline, as a table, CSVs and one chart per pair.
fn matrix_figure(results: &[elephants_experiments::runner::AveragedResult]) -> FigureOutput {
    let mut jain = TextTable::new(vec!["pair", "aqm", "topology", "jain", "utilization"]);
    let mut goodput = TextTable::new(vec!["pair", "aqm", "topology", "cca1_mbps", "cca2_mbps"]);
    let mut charts = Vec::new();
    for r in results {
        let c = &r.config;
        let pair = format!("{}-{}", c.cca1.name(), c.cca2.name());
        jain.row(vec![
            pair.clone(),
            c.aqm.name().to_string(),
            c.topology.to_string(),
            format!("{:.4}", r.jain),
            format!("{:.4}", r.utilization),
        ]);
        goodput.row(vec![
            pair,
            c.aqm.name().to_string(),
            c.topology.to_string(),
            format!("{:.2}", r.sender_mbps.first().copied().unwrap_or(0.0)),
            format!("{:.2}", r.sender_mbps.get(1).copied().unwrap_or(0.0)),
        ]);
    }
    for cca in CcaKind::ALL {
        let of_pair: Vec<_> = results
            .iter()
            .filter(|r| r.config.cca1 == cca && r.config.topology == TopologySpec::Dumbbell)
            .collect();
        let series =
            |name: &str, y: &dyn Fn(&elephants_experiments::runner::AveragedResult) -> f64| {
                Series {
                    name: name.to_string(),
                    points: of_pair
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (i as f64, y(r)))
                        .collect(),
                }
            };
        charts.push((
            format!("{}_vs_cubic", cca.name()),
            ChartSpec {
                title: format!("{} vs CUBIC across queue disciplines", cca.pretty()),
                x_label: "queue discipline (fifo, red, codel, pie, fq_codel)".into(),
                y_label: "Jain index / utilization".into(),
                ..ChartSpec::default()
            },
            vec![
                series("J", &|r| r.jain),
                series("utilization", &|r| r.utilization),
            ],
        ));
    }
    FigureOutput {
        id: "matrix",
        caption: "CCA pair x queue discipline at 2 BDP".into(),
        text: format!("{}\n{}", jain.render(), goodput.render()),
        tables: vec![("jain".into(), jain), ("goodput".into(), goodput)],
        charts,
    }
}

/// The `dynamics` pipeline on one parsed record: window it, compute
/// convergence, late-joiner response and a bootstrap interval, draw the
/// figures.
fn analyze(
    unit: &mut Unit,
    cfg: &ScenarioConfig,
    record: &FlightRecord,
    seed: u64,
    scratch: &Path,
) {
    unit.read(
        "telemetry.samples",
        (record.flow_samples.len() + record.queue_samples.len()) as f64,
    );

    let n_groups = cfg.topology.n_groups() as u32;
    let per_sender = plan_flows(cfg.bandwidth(), n_groups, cfg.flow_scale, seed).per_sender;
    let flow_groups: Vec<u32> = (0..n_groups)
        .flat_map(|g| std::iter::repeat_n(g, per_sender as usize))
        .collect();

    let t = Instant::now();
    let d = fairness_dynamics(record, &flow_groups, ANALYSIS_WINDOW_S, cfg.bw_bps as f64);
    unit.read("analysis.fairness_dynamics_ms", ms_since(t));
    unit.read("analysis.windows", d.t.len() as f64);
    let spec = ConvergenceSpec {
        epsilon: 0.1,
        hold_s: 2.0 * ANALYSIS_WINDOW_S,
    };
    std::hint::black_box(convergence_time(&d, &spec));
    if cfg.is_staggered() {
        let join_s = cfg.start_offset_ms[1] as f64 / 1e3;
        std::hint::black_box(late_joiner_response(&d, 1, join_s, &spec));
    }
    let t = Instant::now();
    std::hint::black_box(bootstrap_ci(&d.jain, 0.95, 2000, seed));
    unit.read("analysis.bootstrap_ms", ms_since(t));

    let stem = cfg.cache_key(seed);
    let dir = scratch.join("dynamics");
    let charts = [
        (
            "jain",
            vec![Series {
                name: "J(t)".into(),
                points: d.jain_series(),
            }],
        ),
        (
            "shares",
            (0..d.n_groups())
                .map(|g| Series {
                    name: format!("group {g}"),
                    points: d.share_series(g),
                })
                .collect(),
        ),
    ];
    for (kind, series) in charts {
        let spec = ChartSpec {
            title: format!("{kind} — {}", cfg.label()),
            x_label: "time (s)".into(),
            y_label: kind.into(),
            ..ChartSpec::default()
        };
        elephants_experiments::svg::write_chart(
            dir.join(format!("{stem}.{kind}.svg")),
            &spec,
            &series,
        )
        .unwrap_or_else(|e| panic!("write {kind} chart: {e}"));
    }
}

/// A record read back from its text must encode to that text again.
fn check_round_trip(unit: &mut Unit, text: &str, record: &FlightRecord) {
    if record.to_json_string() != text {
        unit.violations.push(format!(
            "flight record '{}' does not round-trip",
            record.label
        ));
    }
}

/// Run one unit through the replica with the decorators in place.
pub fn run_traced(
    workload: Workload,
    cells: &[Cell],
    seed: u64,
    scratch: &Path,
) -> (Unit, ReplicaTotals) {
    wipe(scratch);
    let mut unit = Unit::default();
    let mut totals = ReplicaTotals::default();
    let watch = Stopwatch::start();
    for (i, cell) in cells.iter().enumerate() {
        crate::span::set_cell(i as u32);
        let rec = cell.recording.as_ref();
        let t = Instant::now();
        let run = replica::assemble(&cell.cfg, seed, rec, true).and_then(|built| {
            totals.build_ms += ms_since(t);
            replica::run(built, &cell.cfg, seed, rec, true)
        });
        unit.runner_wall_s += t.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                totals.segments_sent += run.segments_sent;
                totals.retransmits_total += run.retransmits_total;
                totals.aqm_drops += run.aqm_drops;
                totals.aqm_marks += run.aqm_marks;
                if let Some(rec) = run.record {
                    totals.into_record_ms += rec.into_record_ms;
                    let parsed = FlightRecord::parse(&rec.text)
                        .unwrap_or_else(|e| panic!("parse {}: {e}", rec.path));
                    analyze(&mut unit, &cell.cfg, &parsed, seed, scratch);
                    check_round_trip(&mut unit, &rec.text, &parsed);
                    totals.records.push(parsed);
                }
                unit.push_cell(&cell.cfg, run.result);
            }
            Err(e) => unit.errors.push(format!("{}: {e}", cell.cfg.label())),
        }
    }
    watch.stop(&mut unit);
    check_unit(&mut unit, workload, cells, Some(&totals));
    (unit, totals)
}

/// The checks every unit must pass: the invariants of any cell, then the
/// property its workload was chosen for.
fn check_unit(unit: &mut Unit, workload: Workload, cells: &[Cell], totals: Option<&ReplicaTotals>) {
    let mut bad = Vec::new();
    for (out, cell) in unit.cells.iter().zip(cells) {
        let r = &out.result;
        let n = cell.cfg.topology.n_groups() as f64;
        let utils = r.links.iter().map(|l| l.utilization).chain([r.utilization]);
        for u in utils {
            if !(0.0..=1.0 + 1e-9).contains(&u) {
                bad.push(format!("{}: utilization {u} outside [0, 1]", out.label));
            }
        }
        if !(1.0 / n - 1e-9..=1.0 + 1e-9).contains(&r.jain) {
            bad.push(format!(
                "{}: Jain index {} outside [1/{n}, 1]",
                out.label, r.jain
            ));
        }
    }
    let sum =
        |f: &dyn Fn(&RunResult) -> u64| -> u64 { unit.cells.iter().map(|c| f(&c.result)).sum() };
    match workload {
        Workload::Steady25g => {
            let (drops, retx, rtos) =
                (sum(&|r| r.drops), sum(&|r| r.retransmits), sum(&|r| r.rtos));
            if drops + retx + rtos > 0 {
                bad.push(format!(
                    "steady state lost packets: {drops} drops, {retx} retransmits, {rtos} RTOs"
                ));
            }
        }
        Workload::Recovery10g => {
            // Segments delivered in the measurement windows, from goodput.
            let delivered: f64 = unit
                .cells
                .iter()
                .zip(cells)
                .map(|(out, cell)| {
                    let window_s =
                        (cell.cfg.duration.as_secs_f64() - cell.cfg.warmup.as_secs_f64()).max(0.0);
                    out.result.sender_mbps.iter().sum::<f64>() * 1e6 * window_s
                        / (8.0 * cell.cfg.mss as f64)
                })
                .sum();
            let (retx, rtos) = (sum(&|r| r.retransmits), sum(&|r| r.rtos));
            if (retx as f64) <= 0.01 * delivered || rtos == 0 {
                bad.push(format!(
                    "not a loss-recovery regime: {retx} retransmits against {delivered:.0} \
                     delivered segments, {rtos} RTOs"
                ));
            }
            if let Some(t) = totals {
                if t.retransmits_total * 100 <= t.segments_sent {
                    bad.push(format!(
                        "replica retransmitted {} of {} segments sent",
                        t.retransmits_total, t.segments_sent
                    ));
                }
            }
        }
        Workload::Matrix1g | Workload::Observed10g => {}
    }
    unit.violations.extend(bad);
}

/// Whether two units simulated the same thing, cell by cell: event counts
/// and canonical `RunMetrics` JSON byte for byte.
pub fn equivalence_failures(reference: &Unit, replica: &Unit) -> Vec<String> {
    if reference.cells.len() != replica.cells.len() {
        return vec![format!(
            "replica ran {} cells, the runner {}",
            replica.cells.len(),
            reference.cells.len()
        )];
    }
    reference
        .cells
        .iter()
        .zip(&replica.cells)
        .filter(|(a, b)| {
            a.result.events != b.result.events
                || a.result.metrics().to_json_string() != b.result.metrics().to_json_string()
        })
        .map(|(a, b)| {
            format!(
                "{}: replica {} events, runner {} events, or their RunMetrics differ",
                a.label, b.result.events, a.result.events
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_generated_from_the_seed_alone() {
        let scratch = Path::new("unused");
        for w in Workload::ALL {
            let a = cells(w, 7, true, scratch);
            let b = cells(w, 7, true, scratch);
            let c = cells(w, 8, true, scratch);
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.cfg == y.cfg),
                "{}",
                w.name()
            );
            assert!(
                a.iter().zip(&c).all(|(x, y)| x.cfg != y.cfg),
                "{}",
                w.name()
            );
            assert!(a
                .iter()
                .all(|x| x.cfg.seed == 7 && x.cfg.bw_bps == 100_000_000));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(cells(Workload::Matrix1g, 1, false, scratch).len(), 27);
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn digest_pins_metrics_and_event_counts() {
        let cell = &cells(Workload::Steady25g, 1, true, Path::new("unused"))[0];
        let result = Runner::new(&cell.cfg).seed(1).run().unwrap().into_first();
        let mut a = Unit::default();
        a.push_cell(&cell.cfg, result.clone());
        let mut b = Unit::default();
        b.push_cell(&cell.cfg, result.clone());
        assert_eq!(a.digest(), b.digest());
        let mut moved = result;
        moved.events += 1;
        let mut c = Unit::default();
        c.push_cell(&cell.cfg, moved);
        assert_ne!(a.digest(), c.digest());
        assert_eq!(equivalence_failures(&a, &b), Vec::<String>::new());
        assert_eq!(equivalence_failures(&a, &c).len(), 1);
    }
}
