//! BBR phase-machine byte-identity tests.
//!
//! `fixtures/coalesce` and `fixtures/topology` pin BBRv2 only over RED at
//! 2 BDP, where `inflight_too_high` almost never fires, and no cell there
//! runs long enough for ProbeRTT. These six cells drive the branches the
//! two controllers do not share — and the ProbeRTT step they do — hundreds
//! of times each. The fixtures were pinned from the build *before* PR 23
//! moved the shared model into `cca::bbr::BbrCore`; any diff means that
//! change altered a gain, a phase transition or a window.
//!
//! Regenerate the pinned fixtures (only when intentionally re-baselining,
//! from a build whose behaviour is known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test bbr_phases
//! ```

use elephants::cca::CcaKind;
use elephants::experiments::{Recording, RunOptions, Runner, ScenarioBuilder, ScenarioConfig};
use elephants::json::ToJson;
use elephants::{AqmKind, SimDuration};
use std::collections::BTreeMap;

const FIXTURE_SEED: u64 = 42;

/// The pinned cells: fixture file, scenario, and the phase labels the cell
/// exists to exercise.
fn fixture_cells() -> Vec<(&'static str, ScenarioConfig, &'static [&'static str])> {
    let mut opts = RunOptions::quick();
    opts.seed = FIXTURE_SEED;
    let cell = |cca1, cca2, aqm, queue_bdp: f64, secs: u64| -> ScenarioBuilder {
        ScenarioConfig::builder(cca1, cca2, aqm, queue_bdp, 100_000_000, &opts)
            .duration(SimDuration::from_secs(secs))
    };
    use AqmKind::{Fifo, Red};
    use CcaKind::{BbrV1, BbrV2, Cubic};
    let cells: [(_, _, &'static [&'static str]); 6] = [
        // CUBIC fills a deep FIFO (it takes ~20 s): the first UP probe into
        // the full buffer sees over 2 % loss and cuts `inflight_hi`.
        ("bbr2_cubic_deep.json", cell(BbrV2, Cubic, Fifo, 16.0, 30), &["probe_bw:down"]),
        // A shallow FIFO overflows in Startup: v2's loss exit.
        ("bbr2_cubic_shallow.json", cell(BbrV2, Cubic, Fifo, 0.5, 12), &["drain", "probe_bw:down"]),
        // RED marking: per-round CE accounting (the CE rate tops out near
        // 0.1 here, under `ecn_thresh`, so no cut comes from it).
        ("bbr2_red_ecn.json", cell(BbrV2, BbrV2, Red, 2.0, 12).ecn(true), &["probe_bw:up"]),
        // The same against CUBIC: the one cell where `on_loss_event` cuts
        // the ceiling (twice, once from Drain) rather than the UP probe;
        // the DOWN it enters is over before the next 10 ms sample.
        ("bbr2_cubic_red_ecn.json", cell(BbrV2, Cubic, Red, 2.0, 12).ecn(true), &["drain"]),
        // Past one RTprop window (10 s in v1, 5 s in v2).
        (
            "bbr1_probe_rtt.json",
            cell(BbrV1, BbrV1, Fifo, 2.0, 25),
            &["probe_rtt", "probe_bw:1.25", "probe_bw:0.75", "probe_bw:1.00"],
        ),
        (
            "bbr2_probe_rtt.json",
            cell(BbrV2, BbrV2, Fifo, 2.0, 12),
            &["probe_rtt", "probe_bw:cruise", "probe_bw:refill", "probe_bw:up", "probe_bw:down"],
        ),
    ];
    cells
        .map(|(name, b, must_see)| (name, b.build().expect("bbr cells are valid scenarios"), must_see))
        .into()
}

/// `RunMetrics` JSON, the event count, and per-flow sample counts by phase
/// label from the 10 ms flow series: two runs that spend a different share
/// of their time in a phase can agree on the first two and not the third.
fn pinned_json(name: &str, cfg: &ScenarioConfig, must_see: &[&str]) -> String {
    let label = cfg.label();
    let dir =
        std::env::temp_dir().join(format!("elephants-bbr-phases-{name}-{}", std::process::id()));
    let outcome = Runner::new(cfg)
        .seed(FIXTURE_SEED)
        .recorder(Recording::flows_only().out_dir(&dir).svg(false))
        .run()
        .unwrap_or_else(|e| panic!("{label} failed: {e}"));
    let record = outcome.load_record().unwrap_or_else(|e| panic!("{label}: {e}"));
    std::fs::remove_dir_all(&dir).ok();

    let mut by_flow: BTreeMap<u32, BTreeMap<&str, u64>> = BTreeMap::new();
    for p in &record.flow_samples {
        *by_flow.entry(p.flow).or_default().entry(&p.phase).or_default() += 1;
    }
    for want in must_see {
        assert!(
            by_flow.values().any(|phases| phases.contains_key(want)),
            "{label}: no flow was ever sampled in {want}: {by_flow:?}"
        );
    }
    let phases = by_flow
        .iter()
        .map(|(flow, counts)| {
            let counts: Vec<String> = counts.iter().map(|(ph, n)| format!("\"{ph}\":{n}")).collect();
            format!("\"{flow}\":{{{}}}", counts.join(","))
        })
        .collect::<Vec<_>>()
        .join(",");
    let result = outcome.into_first();
    format!(
        "{{\"events_processed\":{},\"metrics\":{},\"phase_samples\":{{{phases}}}}}",
        result.events,
        result.metrics().to_json_string()
    )
}

#[test]
fn bbr_phase_machines_are_byte_identical_to_pre_change_fixtures() {
    for (name, cfg, must_see) in fixture_cells() {
        let got = pinned_json(name, &cfg, must_see);
        integration_tests::assert_pinned("bbr", name, &got, &cfg.label());
    }
}
