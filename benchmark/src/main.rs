//! The repository's benchmark. See `benchmark/README.md` for what is
//! measured and why; `benchmark/run.sh` builds and runs this binary.
//!
//! With `--trace 0|1` the process runs one workload itself and prints the
//! result object as its last line. Without it the process is a parent: it
//! runs each workload in a child process of its own, one after another.

mod host;
mod layers;
mod replica;
mod span;
mod stats;
mod workloads;
mod wrap;

use elephants_cca::CcaKind;
use elephants_json::Value;
use host::Stamp;
use span::Layer;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Unit, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Timed repetitions of a unit, and how few are accepted when `--seconds`
/// runs out first.
const REPETITIONS: usize = 10;
const MIN_REPETITIONS: usize = 7;
/// Measuring time granted when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 60.0;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_sec", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists them.
/// A layer that does not run on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 61] = [
    ("netsim.events", "count"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.self_share", "ratio"),
    ("netsim.build_ms", "ms"),
    ("netsim.peak_queue_pkts", "count"),
    ("netsim.wheel.ns_per_op", "ns"),
    ("netsim.link.ns_per_pkt", "ns"),
    ("netsim.check.violations", "count"),
    ("netsim.check.audit_overhead_share", "ratio"),
    ("aqm.calls", "count"),
    ("aqm.self_ns_per_call", "ns"),
    ("aqm.self_share", "ratio"),
    ("aqm.drops", "count"),
    ("aqm.marks", "count"),
    ("tcp.sender.calls", "count"),
    ("tcp.sender.timer_calls", "count"),
    ("tcp.sender.self_ns_per_call", "ns"),
    ("tcp.sender.self_share", "ratio"),
    ("tcp.sender.retransmits", "count"),
    ("tcp.sender.rtos", "count"),
    ("tcp.receiver.calls", "count"),
    ("tcp.receiver.self_ns_per_call", "ns"),
    ("tcp.receiver.self_share", "ratio"),
    ("tcp.scoreboard.cumack_ns_per_op", "ns"),
    ("tcp.scoreboard.sack_ns_per_op", "ns"),
    ("cca.calls", "count"),
    ("cca.self_ns_per_call", "ns"),
    ("cca.self_share", "ratio"),
    ("cca.bbr1.on_ack_ns", "ns"),
    ("cca.bbr2.on_ack_ns", "ns"),
    ("cca.cubic.on_ack_ns", "ns"),
    ("cca.htcp.on_ack_ns", "ns"),
    ("cca.reno.on_ack_ns", "ns"),
    ("cca.filters.ns_per_update", "ns"),
    ("workload.plan_ms", "ms"),
    ("workload.flows", "count"),
    ("experiments.runner.ms_per_cell", "ms"),
    ("experiments.sweep.cold_ms", "ms"),
    ("experiments.sweep.warm_ms", "ms"),
    ("experiments.cache.put_us", "us"),
    ("experiments.cache.get_us", "us"),
    ("experiments.cache.hits", "count"),
    ("experiments.cache.misses", "count"),
    ("experiments.cache.put_errors", "count"),
    ("experiments.cache.quarantined", "count"),
    ("experiments.cache.bytes", "bytes"),
    ("experiments.figures.assemble_ms", "ms"),
    ("experiments.par.wall_ratio_2w", "ratio"),
    ("experiments.par.cpu_ratio_2w", "ratio"),
    ("json.encode_mb_per_s", "MB/s"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.bytes", "bytes"),
    ("telemetry.samples", "count"),
    ("telemetry.record_overhead_share", "ratio"),
    ("telemetry.into_record_ms", "ms"),
    ("analysis.fairness_dynamics_ms", "ms"),
    ("analysis.bootstrap_ms", "ms"),
    ("analysis.windows", "count"),
    ("metrics.jain_min", "ratio"),
    ("metrics.utilization_mean", "ratio"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some` makes this process run one workload itself.
    trace: Option<bool>,
    /// Parent only: also make the traced run of each workload.
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload W]... [--seed N] [--traced] [--smoke] [--selfcheck]\n       \
         run.sh --workload W --seed N --seconds S --trace 0|1\n\
         workloads: steady_25g recovery_10g matrix_1g observed_10g"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        traced: false,
        smoke: false,
        selfcheck: false,
        out: PathBuf::from("benchmark/target/benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args
                .workloads
                .push(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!(
            "benchmark: this is a debug build; its timings mean nothing. Build with --release \
             (run.sh does) or pass --smoke."
        );
        return ExitCode::from(2);
    }
    let ok = match (args.selfcheck, args.trace) {
        (true, _) => selfcheck(&args),
        (false, None) => run_children(&args),
        (false, Some(traced)) => {
            let &[workload] = args.workloads.as_slice() else {
                usage()
            };
            let stamp = Stamp::collect(args.seed, args.smoke);
            std::fs::create_dir_all(&args.out).expect("create the output directory");
            if traced {
                layer_run(workload, &args, &stamp)
            } else {
                timing_run(workload, &args, &stamp)
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- output

fn num(x: f64) -> Value {
    Value::Float(x)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn cells_json(unit: &Unit) -> Value {
    Value::Array(
        unit.cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("label", Value::Str(c.label.clone())),
                    ("sim_seconds", num(c.sim_s)),
                    ("events", Value::Int(c.result.events as i128)),
                ])
            })
            .collect(),
    )
}

/// Outcome of one run of one workload, as printed on the last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    smoke: bool,
}

impl Outcome {
    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let mut fields = vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted as i128)),
            ("failed", Value::Int(self.failed as i128)),
            ("metrics", Value::Object(metrics)),
        ];
        // A smoke result carries a key the result format does not have, so
        // that nothing takes it for a measurement.
        if self.smoke {
            fields.push(("smoke", Value::Bool(true)));
        }
        obj(fields)
    }
}

fn report_problems(kind: &str, problems: &[String]) {
    for p in problems {
        println!("{kind}: {p}");
    }
}

/// Write `doc` under the output directory and print the result line last.
fn finish(
    args: &Args,
    file: &str,
    mut doc: Vec<(&str, Value)>,
    stamp: &Stamp,
    outcome: Outcome,
) -> bool {
    println!(
        "attempted {}  failed {}  correct {}{}",
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        if outcome.smoke {
            "  smoke true (not comparable)"
        } else {
            ""
        }
    );
    doc.insert(0, ("stamp", stamp.to_json()));
    doc.push(("result", outcome.to_json()));
    let path = args.out.join(file);
    std::fs::write(&path, obj(doc).to_string_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    println!("{}", outcome.to_json().to_string_compact());
    outcome.correct && outcome.failed == 0
}

fn scratch_of(args: &Args, workload: Workload) -> PathBuf {
    args.out.join("scratch").join(workload.name())
}

// ----------------------------------------------------------- timing run

/// Assemble every cell of the workload `k` times from the generated inputs
/// and drop the simulators unrun; host seconds per assembly of the unit.
fn setup_sample(workload: Workload, args: &Args, scratch: &Path, k: u32) -> f64 {
    let started = Instant::now();
    for _ in 0..k {
        let cells = workloads::cells(workload, args.seed, args.smoke, scratch);
        if workload == Workload::Matrix1g {
            std::fs::create_dir_all(scratch.join("cache")).expect("create the cache directory");
        }
        for cell in &cells {
            let built = replica::assemble(&cell.cfg, args.seed, cell.recording.as_ref(), false);
            std::hint::black_box(built.expect("workload cells assemble"));
        }
    }
    started.elapsed().as_secs_f64() / f64::from(k)
}

/// `--trace 0`: one warm-up unit, then the timed repetitions, tracing off.
fn timing_run(workload: Workload, args: &Args, stamp: &Stamp) -> bool {
    let scratch = scratch_of(args, workload);
    let cells = workloads::cells(workload, args.seed, args.smoke, &scratch);
    let k = workload.setup_repeats(args.smoke);
    let repetitions = if args.smoke { 1 } else { REPETITIONS };
    println!(
        "== {} (seed {}, {} cells, tracing off) ==",
        workload.name(),
        args.seed,
        cells.len()
    );

    let warmup = workloads::run_plain(workload, &cells, args.seed, &scratch);
    // Peak memory is read after the first unit of the fresh process. By
    // the end of the run it also holds what the allocator kept back over
    // eleven units, which differs between two runs of the same seed.
    let peak_rss_mib = host::peak_rss_mib();
    let digest = warmup.digest();
    let mut violations = warmup.violations.clone();
    let mut errors = warmup.errors.clone();
    let mut attempted = cells.len() as u64;
    let (mut wall, mut cpu, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    for rep in 0..repetitions {
        if rep >= MIN_REPETITIONS && measuring.elapsed().as_secs_f64() > args.seconds {
            println!("--seconds {} ran out after {rep} repetitions", args.seconds);
            break;
        }
        let unit = workloads::run_plain(workload, &cells, args.seed, &scratch);
        attempted += cells.len() as u64;
        if unit.digest() != digest {
            violations.push(format!(
                "repetition {rep}: sim_digest {} differs from the warm-up's {digest}",
                unit.digest()
            ));
        }
        violations.extend(unit.violations);
        errors.extend(unit.errors);
        wall.push(unit.wall_s);
        cpu.push(unit.cpu_s);
        setup.push(setup_sample(workload, args, &scratch, k));
    }
    workloads::wipe(&scratch);

    let (wall, cpu, setup) = (Summary::of(&wall), Summary::of(&cpu), Summary::of(&setup));
    let events = warmup.events();
    let values = [
        wall.min,
        cpu.min,
        events as f64 / wall.min,
        peak_rss_mib,
        setup.min,
    ];
    let summaries = [Some(&wall), Some(&cpu), None, None, Some(&setup)];
    for (((name, unit), value), s) in END_TO_END.iter().zip(values).zip(summaries) {
        match s {
            Some(s) => println!(
                "{name:<22}{value:>16.6} {unit:<5} min of {} (median {:.6} q1 {:.6} q3 {:.6} max {:.6})",
                s.samples.len(),
                s.median,
                s.q1,
                s.q3,
                s.max
            ),
            None => println!("{name:<22}{value:>16.6} {unit}"),
        }
    }
    println!(
        "sim_events {events}  sim_digest {digest}  setup_repeats {k}  VmHWM at exit {:.1} MiB",
        host::peak_rss_mib()
    );
    println!("model: unvalidated (the repository holds no FABRIC reference numbers)");
    report_problems("failed", &errors);
    report_problems("violation", &violations);

    let outcome = Outcome {
        correct: violations.is_empty() && errors.is_empty(),
        attempted,
        failed: errors.len() as u64,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
        smoke: args.smoke,
    };
    let doc = vec![
        ("workload", Value::Str(workload.name().into())),
        ("repetitions", Value::Int(wall.samples.len() as i128)),
        ("setup_repeats", Value::Int(i128::from(k))),
        ("cells", cells_json(&warmup)),
        ("sim_events", Value::Int(events as i128)),
        ("sim_digest", Value::Str(digest)),
        ("wall_s", wall.to_json()),
        ("cpu_s", cpu.to_json()),
        ("setup_s", setup.to_json()),
        ("failed", strings(&errors)),
        ("violations", strings(&violations)),
    ];
    finish(
        args,
        &format!("{}.json", workload.name()),
        doc,
        stamp,
        outcome,
    )
}

// ------------------------------------------------------------ layer run

/// Named readings, one per per-layer metric; unset ones read 0.
struct Readings(Vec<(String, f64)>);

impl Readings {
    fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the decorators saw of one traced unit.
struct Traced {
    unit: Unit,
    totals: workloads::ReplicaTotals,
    trace: span::Trace,
    cal: span::Calibration,
    est: [span::LayerEstimate; span::N_LAYERS],
}

/// Readings of the decorated layers, and the simulated totals of the unit.
fn decorated_readings(r: &mut Readings, t: &Traced) {
    let of = |l: Layer| t.est[l as usize];
    let events = t.unit.events();
    r.set("netsim.events", events as f64);
    r.set(
        "netsim.self_ns_per_event",
        ratio(of(Layer::Netsim).self_ns, events as f64),
    );
    r.set("netsim.self_share", of(Layer::Netsim).self_share);
    for (prefix, layer) in [
        ("aqm", Layer::Aqm),
        ("tcp.sender", Layer::Sender),
        ("tcp.receiver", Layer::Receiver),
        ("cca", Layer::Cca),
    ] {
        r.set(&format!("{prefix}.calls"), of(layer).calls as f64);
        r.set(
            &format!("{prefix}.self_ns_per_call"),
            of(layer).self_ns_per_call(),
        );
        r.set(&format!("{prefix}.self_share"), of(layer).self_share);
    }
    r.set(
        "tcp.sender.timer_calls",
        t.trace.totals[Layer::Sender as usize].timer_calls as f64,
    );
    for (i, kind) in CcaKind::ALL.into_iter().enumerate() {
        let on_ack = t.trace.on_ack[i];
        if on_ack.timed > 0 {
            let mean_ns = on_ack.ns as f64 / on_ack.timed as f64 - t.cal.inner_ns;
            r.set(&format!("cca.{}.on_ack_ns", kind.name()), mean_ns.max(0.0));
        }
    }
    let results = || t.unit.cells.iter().map(|c| &c.result);
    r.set("netsim.build_ms", t.totals.build_ms);
    r.set(
        "netsim.peak_queue_pkts",
        results().map(|c| c.peak_queue_pkts).max().unwrap_or(0) as f64,
    );
    r.set("aqm.drops", t.totals.aqm_drops as f64);
    r.set("aqm.marks", t.totals.aqm_marks as f64);
    r.set("tcp.sender.retransmits", t.totals.retransmits_total as f64);
    r.set(
        "tcp.sender.rtos",
        results().map(|c| c.rtos).sum::<u64>() as f64,
    );
    r.set(
        "metrics.jain_min",
        results().map(|c| c.jain).fold(f64::INFINITY, f64::min),
    );
    r.set(
        "metrics.utilization_mean",
        ratio(
            results().map(|c| c.utilization).sum(),
            t.unit.cells.len() as f64,
        ),
    );
    r.set("telemetry.into_record_ms", t.totals.into_record_ms);
}

/// Readings of the layers timed through their public functions, on inputs
/// shaped like the workload's first cell.
fn public_function_readings(r: &mut Readings, cells: &[workloads::Cell], args: &Args) {
    let shape = &cells[0].cfg;
    let ops = if args.smoke {
        layers::SMOKE_OPS
    } else {
        layers::OPS
    };
    let (plan_ms, flows) = layers::plan(cells, args.seed);
    let flows_per_cell = flows / cells.len() as u32;
    r.set("workload.plan_ms", plan_ms);
    r.set("workload.flows", f64::from(flows));
    r.set(
        "netsim.wheel.ns_per_op",
        layers::wheel_ns_per_op(shape, flows_per_cell, ops),
    );
    r.set(
        "netsim.link.ns_per_pkt",
        layers::link_ns_per_pkt(shape, ops),
    );
    let (cumack, sack) = layers::scoreboard_ns_per_op(shape, flows_per_cell, ops);
    r.set("tcp.scoreboard.cumack_ns_per_op", cumack);
    r.set("tcp.scoreboard.sack_ns_per_op", sack);
    r.set(
        "cca.filters.ns_per_update",
        layers::filters_ns_per_update(ops),
    );
}

/// `--trace 1`: one reference unit with tracing off, the same unit through
/// the decorated replica, and the readings no decorator can give.
fn layer_run(workload: Workload, args: &Args, stamp: &Stamp) -> bool {
    let scratch = scratch_of(args, workload);
    let cells = workloads::cells(workload, args.seed, args.smoke, &scratch);
    println!(
        "== {} (seed {}, {} cells, traced) ==",
        workload.name(),
        args.seed,
        cells.len()
    );
    let mut r = Readings(Vec::new());

    let cal = span::calibrate();
    // A warm-up first, as in the timing run: the first unit of a process
    // pays for growing the heap. Its time still counts as a second sample
    // of the reference, of which the lower is kept.
    let warmup = workloads::run_plain(workload, &cells, args.seed, &scratch);
    let reference = workloads::run_plain(workload, &cells, args.seed, &scratch);
    let reference_wall_s = reference.runner_wall_s.min(warmup.runner_wall_s);
    span::reset();
    let (unit, totals) = workloads::run_traced(workload, &cells, args.seed, &scratch);
    let trace = span::take();
    let est = span::estimate(&trace.totals, &cal);
    let traced = Traced {
        unit,
        totals,
        trace,
        cal,
        est,
    };
    let mut violations = workloads::equivalence_failures(&reference, &traced.unit);
    violations.extend(reference.violations.iter().cloned());
    violations.extend(traced.unit.violations.iter().cloned());
    let mut errors = reference.errors.clone();
    errors.extend(traced.unit.errors.iter().cloned());

    decorated_readings(&mut r, &traced);
    public_function_readings(&mut r, &cells, args);
    r.set(
        "trace.overhead_share",
        ratio(traced.unit.runner_wall_s, reference_wall_s) - 1.0,
    );
    let results: Vec<_> = reference.cells.iter().map(|c| c.result.clone()).collect();
    let (encode, parse, bytes) = if traced.totals.records.is_empty() {
        layers::json_rates(&results)
    } else {
        layers::json_rates(&traced.totals.records)
    };
    r.set("json.encode_mb_per_s", encode);
    r.set("json.parse_mb_per_s", parse);
    r.set("json.bytes", bytes as f64);

    // Whole-unit variants, run beside the reference.
    r.set(
        "experiments.runner.ms_per_cell",
        reference_wall_s * 1e3 / cells.len() as f64,
    );
    match layers::audit_unit(&cells, args.seed) {
        Ok((found, wall_s)) => {
            r.set("netsim.check.violations", found as f64);
            r.set(
                "netsim.check.audit_overhead_share",
                ratio(wall_s, reference_wall_s) - 1.0,
            );
            if found > 0 {
                violations.push(format!("the audit unit found {found} invariant violations"));
            }
        }
        Err(e) => errors.push(e),
    }
    for &(name, value) in reference.readings.iter().chain(&traced.unit.readings) {
        r.set(name, value);
    }
    if workload == Workload::Matrix1g {
        let costs = layers::cache_costs(&cells, &results, args.seed, &scratch.join("cache-direct"));
        r.set("experiments.cache.put_us", costs.put_us);
        r.set("experiments.cache.get_us", costs.get_us);
        r.set("experiments.cache.hits", costs.hits as f64);
        r.set("experiments.cache.misses", costs.misses as f64);
        r.set("experiments.cache.bytes", costs.bytes as f64);
        if costs.hits != cells.len() as u64 || costs.misses != cells.len() as u64 {
            violations.push(format!(
                "cache served {} hits and {} misses for {} cells",
                costs.hits,
                costs.misses,
                cells.len()
            ));
        }
        let (wall_2w, cpu_2w) = layers::cold_sweep_two_workers(&cells, &scratch.join("cache-2w"));
        r.set(
            "experiments.par.wall_ratio_2w",
            ratio(wall_2w, reference_wall_s),
        );
        r.set(
            "experiments.par.cpu_ratio_2w",
            ratio(cpu_2w, reference.cold_cpu_s),
        );
    }
    if workload == Workload::Observed10g {
        // The first cell once with the recorder off and once more with it on.
        match layers::unrecorded_wall_s(&cells[0], args.seed) {
            Ok(plain_s) => {
                let recorded = workloads::run_plain(workload, &cells[..1], args.seed, &scratch);
                r.set(
                    "telemetry.record_overhead_share",
                    ratio(recorded.runner_wall_s, plain_s) - 1.0,
                );
            }
            Err(e) => errors.push(e),
        }
    }
    workloads::wipe(&scratch);

    for (name, unit) in PER_LAYER {
        println!("{name:<38}{:>18.4} {unit}", r.get(name));
    }
    let Traced {
        unit,
        totals,
        trace,
        ..
    } = &traced;
    println!(
        "sim_digest {}  segments sent {}  spans kept {} (1 call in {} timed, {} left out as interrupted)",
        unit.digest(),
        totals.segments_sent,
        trace.spans.len(),
        span::STRIDE,
        trace.totals.iter().map(|t| t.interrupted).sum::<u64>()
    );
    let root_ns = trace.totals[Layer::Netsim as usize].incl_ns as f64;
    println!(
        "empty span: {:.1} ns inside, {:.1} ns outside, {:.1} ns when only counted; \
         instrumentation modelled at {:.1}% of the event loop",
        cal.inner_ns,
        cal.outer_ns,
        cal.count_ns,
        (ratio(root_ns, traced.est[Layer::Netsim as usize].incl_ns) - 1.0) * 100.0
    );
    report_problems("failed", &errors);
    report_problems("violation", &violations);

    let trace_path = args.out.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&trace_path, trace_json(trace, stamp).to_string_compact())
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
    println!("wrote {}", trace_path.display());

    let outcome = Outcome {
        correct: violations.is_empty() && errors.is_empty(),
        // Warm-up, reference, replica and audit units.
        attempted: 4 * cells.len() as u64,
        failed: errors.len() as u64,
        metrics: PER_LAYER.iter().map(|&(n, u)| (n, r.get(n), u)).collect(),
        smoke: args.smoke,
    };
    let doc = vec![
        ("workload", Value::Str(workload.name().into())),
        ("cells", cells_json(unit)),
        ("sim_digest", Value::Str(unit.digest())),
        ("failed", strings(&errors)),
        ("violations", strings(&violations)),
    ];
    finish(
        args,
        &format!("{}.layers.json", workload.name()),
        doc,
        stamp,
        outcome,
    )
}

/// The kept spans: name, interval, causing span, cell, and self time.
fn trace_json(trace: &span::Trace, stamp: &Stamp) -> Value {
    let own = span::self_times(&trace.spans);
    let spans = trace
        .spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            obj(vec![
                ("name", Value::Str(s.layer.name().into())),
                ("start_ns", Value::Int(i128::from(s.start_ns))),
                ("end_ns", Value::Int(i128::from(s.end_ns))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(i128::from(p))),
                ),
                ("cell", Value::Int(i128::from(s.cell))),
                ("self_ns", Value::Int(i128::from(self_ns))),
            ])
        })
        .collect();
    obj(vec![
        ("stamp", stamp.to_json()),
        ("stride", Value::Int(i128::from(span::STRIDE))),
        ("spans_dropped", Value::Int(i128::from(trace.spans_dropped))),
        ("spans", Value::Array(spans)),
    ])
}

// --------------------------------------------------------------- parent

/// Run this binary again as a child for one workload; its result line.
fn child(args: &Args, workload: Workload, traced: bool, quiet: bool) -> Option<Value> {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
    ])
    .args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .arg("--out")
    .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child run");
    let text = String::from_utf8_lossy(&out.stdout);
    if !quiet {
        print!("{text}");
    }
    let result = text
        .lines()
        .last()
        .and_then(|l| elephants_json::parse(l).ok());
    if !out.status.success() {
        eprintln!("benchmark: {} ended with {}", workload.name(), out.status);
        return None;
    }
    result
}

fn chosen(args: &Args) -> Vec<Workload> {
    if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    }
}

/// Every chosen workload in a child process of its own, one after another.
fn run_children(args: &Args) -> bool {
    let mut ok = true;
    for workload in chosen(args) {
        ok &= child(args, workload, false, false).is_some();
        if args.traced {
            ok &= child(args, workload, true, false).is_some();
        }
    }
    ok
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match result
        .get_field("metrics")
        .ok()?
        .get_field(name)
        .ok()?
        .get_field("value")
        .ok()?
    {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Two interleaved sets of full runs of this build: per metric and
/// workload the two values, their relative difference, and whether the
/// second is worse than the first by more than the metric's bound.
fn selfcheck(args: &Args) -> bool {
    let bounds =
        bounds_of(&std::fs::read_to_string("BENCHMARK.json").expect("read BENCHMARK.json"));
    let workloads = chosen(args);
    let mut sets: [Vec<Option<Value>>; 2] = [Vec::new(), Vec::new()];
    for (i, set) in sets.iter_mut().enumerate() {
        for &workload in &workloads {
            eprintln!("selfcheck: set {} of 2, {}", i + 1, workload.name());
            set.push(child(args, workload, false, true));
        }
    }
    let mut ok = true;
    println!("| workload | metric | set 1 | set 2 | difference | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for (i, workload) in workloads.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][i], &sets[1][i]) else {
            println!("| {} | a run failed | | | | | FAIL |", workload.name());
            ok = false;
            continue;
        };
        for (name, bound, higher_is_better) in &bounds {
            let (Some(x), Some(y)) = (metric_value(a, name), metric_value(b, name)) else {
                ok = false;
                continue;
            };
            let worse = if *higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let pass = worse <= *bound;
            ok &= pass;
            println!(
                "| {} | {name} | {x:.6e} | {y:.6e} | {:+.2}% | {:.0}% | {} |",
                workload.name(),
                (y - x) / x * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    ok
}

/// `(name, bound, higher is better)` of every end-to-end metric in the
/// text of `BENCHMARK.json`.
fn bounds_of(benchmark_json: &str) -> Vec<(String, f64, bool)> {
    let doc = elephants_json::parse(benchmark_json).expect("BENCHMARK.json is JSON");
    let Ok(Value::Array(metrics)) = doc.get_field("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list")
    };
    metrics
        .iter()
        .map(|m| {
            let text = |k: &str| match m.get_field(k) {
                Ok(Value::Str(s)) => s.clone(),
                _ => panic!("end_to_end entry without '{k}'"),
            };
            let bound = match m.get_field("bound") {
                Ok(Value::Float(x)) => *x,
                Ok(Value::Int(i)) => *i as f64,
                _ => panic!("end_to_end entry without a bound"),
            };
            (text("name"), bound, text("better") == "higher")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = elephants_json::parse(&text).unwrap();
        let declared = |list: &str| -> Vec<(String, String)> {
            let Ok(Value::Array(items)) = doc.get_field(list) else {
                panic!("no {list}")
            };
            items
                .iter()
                .map(|m| match (m.get_field("name"), m.get_field("unit")) {
                    (Ok(Value::Str(n)), Ok(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("entry without name and unit"),
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let Ok(Value::Array(workloads)) = doc.get_field("workloads") else {
            panic!()
        };
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for (w, name) in workloads.iter().zip(names) {
            assert_eq!(w.get_field("name").unwrap(), &Value::Str(name.into()));
        }
        assert_eq!(bounds_of(&text).len(), END_TO_END.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_smoke_adds_one() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.5, "s")],
            smoke: false,
        };
        assert_eq!(
            outcome.to_json().to_string_compact(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
        outcome.smoke = true;
        assert!(outcome
            .to_json()
            .to_string_compact()
            .ends_with(r#","smoke":true}"#));
    }
}
