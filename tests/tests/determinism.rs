//! Determinism regression tests: the simulator's output must be a pure
//! function of `(config, seed)`, all the way down to the serialized bytes.
//!
//! The paper's methodology leans on repeat runs being comparable; in the
//! reproduction the stronger property holds — identical runs are
//! *identical*, so every figure is exactly regenerable. This suite guards
//! the property end-to-end through the in-repo JSON encoder: any
//! nondeterminism in the event schedule, the RNG plumbing, float
//! formatting, or object field ordering shows up as a byte diff here.

use elephants::cca::CcaKind;
use elephants::experiments::{
    par_map_with_workers, try_sweep_with_workers, Recording, RunCache, RunOptions, Runner,
    ScenarioConfig,
};
use elephants::json::ToJson;
use elephants::netsim::{FaultPlan, LossModel};
use elephants::{AqmKind, SimDuration};

fn dumbbell_cfg(seed: u64) -> ScenarioConfig {
    let mut opts = RunOptions::quick();
    opts.seed = seed;
    ScenarioConfig::new(CcaKind::Reno, CcaKind::Cubic, AqmKind::FqCodel, 2.0, 100_000_000, &opts)
}

/// The bytes of the flight record a 500 ms-sampled run writes (`tag`
/// keeps concurrently running tests in directories of their own).
fn record_bytes(tag: &str, seed: u64) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("elephants-determinism-{}-{tag}", std::process::id()));
    let recording = Recording::parse("flows,queue")
        .unwrap()
        .interval(SimDuration::from_millis(500))
        .out_dir(&dir)
        .svg(false);
    let outcome =
        Runner::new(&dumbbell_cfg(seed)).seed(seed).recorder(recording).run().expect("valid config");
    let bytes = std::fs::read(outcome.record_path().expect("the run recorded")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn same_seed_produces_byte_identical_json() {
    let a = record_bytes("same-a", 42);
    let b = record_bytes("same-b", 42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same (config, seed) must serialize to identical bytes");
}

#[test]
fn different_seeds_produce_different_json() {
    let a = record_bytes("diff-a", 42);
    let b = record_bytes("diff-b", 43);
    assert_ne!(a, b, "different seeds must produce observably different runs");
}

/// The parallel sweep must be a pure function of the work list: scheduling
/// runs across 1, 2, or the default number of worker threads may change
/// *when* each simulation executes but never *what* it produces, down to
/// the serialized bytes of every run result.
#[test]
fn sweep_json_is_identical_across_worker_counts() {
    let opts = RunOptions::quick();
    let grid = [
        ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
        ScenarioConfig::new(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000, &opts),
        ScenarioConfig::new(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 1.0, 100_000_000, &opts),
    ];
    // Two seeds per config, flattened like `sweep()` does internally.
    let work: Vec<(usize, u64)> = grid
        .iter()
        .enumerate()
        .flat_map(|(i, cfg)| [(i, cfg.seed), (i, cfg.seed + 1)])
        .collect();

    let sweep_json = |workers: usize| -> String {
        par_map_with_workers(&work, workers, |&(i, seed)| {
            Runner::new(&grid[i]).seed(seed).run().expect("run must succeed").into_first()
        })
        .to_json_string()
    };

    let serial = sweep_json(1);
    assert!(!serial.is_empty());
    for workers in [2, 0] {
        let parallel = sweep_json(workers);
        assert_eq!(
            serial, parallel,
            "sweep results must be byte-identical regardless of worker count ({workers})"
        );
    }
}

/// Determinism must survive fault injection: a scenario with a mid-run
/// link flap *and* Gilbert–Elliott burst loss exercises the fault
/// scheduler and the impairment RNG, and the sweep output must still be a
/// pure function of `(config, seed)` — byte-identical across worker
/// counts and across reruns.
#[test]
fn faulted_sweep_json_is_identical_across_worker_counts() {
    let opts = RunOptions::quick();
    let mut flapped =
        ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000, &opts);
    flapped.faults =
        FaultPlan::flap(SimDuration::from_millis(1500), SimDuration::from_millis(400));
    let mut lossy =
        ScenarioConfig::new(CcaKind::Reno, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000, &opts);
    lossy.loss = LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 };
    let grid = [flapped, lossy];

    let sweep_json = |workers: usize| -> String {
        let out = try_sweep_with_workers(&grid, 2, &RunCache::disabled(), workers);
        assert!(out.failed.is_empty(), "faulted grid must still complete: {:?}", out.failed);
        out.results.iter().flat_map(|a| a.runs.iter().cloned()).collect::<Vec<_>>().to_json_string()
    };

    let serial = sweep_json(1);
    assert!(!serial.is_empty());
    for workers in [2, 0, 1] {
        let rerun = sweep_json(workers);
        assert_eq!(
            serial, rerun,
            "faulted sweep must be byte-identical regardless of worker count ({workers})"
        );
    }
}
