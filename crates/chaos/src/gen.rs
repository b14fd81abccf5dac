//! Seeded random-but-valid scenario generation.
//!
//! [`generate_case`] maps a case seed to a [`ScenarioConfig`] drawn from
//! the whole configuration surface — CCA/AQM mixes, bandwidths, RTTs,
//! queue depths, loss models, timed fault plans, receive coalescing —
//! under three hard rules:
//!
//! 1. **Valid by construction.** Every generated config satisfies
//!    `ScenarioConfig::validate()`; the fuzzer probes the simulator, not
//!    the input validator (which has its own tests).
//! 2. **Deterministic.** The config is a pure function of the case seed,
//!    so any finding replays from the seed alone.
//! 3. **Discrete knob values.** Sampled floats come from small fixed
//!    menus (or are rounded to a few decimals) so menu coverage can be
//!    asserted and shrunk repros print as round, human-readable numbers.

use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_experiments::{RunOptions, ScenarioConfig};
use elephants_netsim::{
    FaultAction, FaultPlan, LossModel, RngExt, SeedableRng, SimDuration, SmallRng, TopologySpec,
};

/// Distinguishes the generator's RNG stream from plain `seed_from_u64`
/// users of the same seed.
const STREAM_SALT: u64 = 0xC4A0_5CEB_AB1E_F00D;

/// Bottleneck bandwidth menu (bits/s). Spans the paper's 100 Mbps–1 Gbps
/// range downward so debug-mode replays stay fast; flow counts follow
/// Table 2's interpolation at every point.
const BW_MENU: [u64; 6] =
    [25_000_000, 50_000_000, 100_000_000, 150_000_000, 200_000_000, 500_000_000];

/// Queue depths in BDP multiples (the paper's set plus a shallow 0.5).
const QUEUE_MENU: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Flow-count scales (fractions of Table 2's per-sender count).
const FLOW_SCALE_MENU: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Segment sizes: Ethernet, mid, and the paper's 9k-jumbo MSS.
const MSS_MENU: [u32; 3] = [1500, 4500, 8900];

/// Round-trip propagation times (ms); 62 is the paper's path.
const RTT_MENU: [u64; 4] = [10, 31, 62, 124];

/// Event budget for generated cases: a generous multiple of what the
/// largest menu case needs, but finite, so a runaway schedule surfaces as
/// a classified `EventBudget` error instead of hanging the fuzzer.
pub const CASE_EVENT_BUDGET: u64 = 50_000_000;

fn choose<T: Copy>(rng: &mut SmallRng, menu: &[T]) -> T {
    menu[rng.random_range(0..menu.len())]
}

/// A loss probability from a mild menu, exactly representable in a few
/// decimals (shrink-output hygiene).
fn loss_prob(rng: &mut SmallRng) -> f64 {
    choose(rng, &[0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01])
}

fn loss_model(rng: &mut SmallRng) -> LossModel {
    if rng.random_bool(0.7) {
        LossModel::None
    } else if rng.random_bool(0.5) {
        LossModel::Bernoulli { p: loss_prob(rng) }
    } else {
        // Bad-state exits are kept likelier than entries so the link
        // spends most of its time in the Good state (burst loss, not a
        // dead link — dead links are LinkDown's job).
        LossModel::GilbertElliott {
            p_gb: loss_prob(rng),
            p_bg: choose(rng, &[0.1, 0.2, 0.5]),
        }
    }
}

/// A fault plan of `n` events at non-decreasing 10 ms-quantized times in
/// `[0, 1.25 × duration]` — the tail past `duration` deliberately
/// generates events that validate but never fire.
fn fault_plan(rng: &mut SmallRng, duration: SimDuration) -> FaultPlan {
    let n = rng.random_range(1..=4u32);
    let horizon_ms = duration.as_nanos() / 1_000_000 * 5 / 4;
    let mut times_ms: Vec<u64> =
        (0..n).map(|_| rng.random_range(0..=horizon_ms / 10) * 10).collect();
    times_ms.sort_unstable();
    let mut plan = FaultPlan::none();
    let mut down = false;
    for t in times_ms {
        let at = SimDuration::from_millis(t);
        // A downed link is most interesting brought back up; otherwise
        // take it down or swap its loss process, evenly.
        let action = if down && rng.random_bool(0.7) {
            down = false;
            FaultAction::LinkUp
        } else if rng.random_bool(0.5) {
            down = true;
            FaultAction::LinkDown
        } else {
            FaultAction::SetLossModel(if rng.random_bool(0.5) {
                LossModel::None
            } else {
                LossModel::Bernoulli { p: loss_prob(rng) }
            })
        };
        plan = plan.with(at, action);
    }
    plan
}

/// Generate the scenario for one case seed (see the module docs for the
/// guarantees). The config's own `seed` field is the case seed, so a
/// repro fixture carries its provenance.
pub fn generate_case(case_seed: u64) -> ScenarioConfig {
    let mut rng = SmallRng::seed_from_u64(case_seed ^ STREAM_SALT);
    // The kind tables are the menus: a new row is fuzzed from its first commit.
    let cca1 = choose(&mut rng, &CcaKind::ALL);
    let cca2 = choose(&mut rng, &CcaKind::ALL);
    let aqm = choose(&mut rng, &AqmKind::ALL);
    let queue_bdp = choose(&mut rng, &QUEUE_MENU);
    let bw_bps = choose(&mut rng, &BW_MENU);

    // 500–3000 ms in 100 ms steps; warmup in 100 ms steps up to half the
    // duration, so the measurement window always has positive width.
    let duration_ms = rng.random_range(5..=30u64) * 100;
    let warmup_ms = rng.random_range(0..=duration_ms / 200) * 100;
    let duration = SimDuration::from_millis(duration_ms);

    let mut opts = RunOptions::quick();
    opts.seed = case_seed;
    opts.flow_scale = choose(&mut rng, &FLOW_SCALE_MENU);
    let mut cfg = ScenarioConfig::new(cca1, cca2, aqm, queue_bdp, bw_bps, &opts);
    cfg.duration = duration;
    cfg.warmup = SimDuration::from_millis(warmup_ms);
    cfg.mss = choose(&mut rng, &MSS_MENU);
    cfg.rtt_ms = choose(&mut rng, &RTT_MENU);
    cfg.ecn = rng.random_bool(0.1);
    cfg.coalesce = rng.random_bool(0.25);
    cfg.loss = loss_model(&mut rng);
    if rng.random_bool(0.5) {
        cfg.faults = fault_plan(&mut rng, duration);
    }
    cfg.max_events = CASE_EVENT_BUDGET;

    // Topology draws come LAST in the RNG stream: every pre-topology seed
    // consumes the same prefix it always did, so a seed an earlier
    // campaign reported still generates the same dumbbell-era case.
    if rng.random_bool(0.25) {
        cfg.topology = if rng.random_bool(0.5) {
            TopologySpec::ParkingLot { hops: rng.random_range(2..=3u32) as usize }
        } else {
            TopologySpec::MultiDumbbell {
                rtts_ms: vec![choose(&mut rng, &RTT_MENU), choose(&mut rng, &RTT_MENU)],
            }
        };
        // Aim the loss/fault knobs at a uniformly random bottleneck hop
        // (always 0 on single-bottleneck shapes).
        cfg.fault_link = rng.random_range(0..cfg.topology.n_bottlenecks() as u32);
    }

    // Start-offset draws extend the END of the stream (same discipline as
    // the topology block above): every pre-offset seed consumes its old
    // prefix unchanged and still generates the case it always did.
    // One group joins late, 100 ms-quantized, at most half the duration
    // in — the offset must leave the late group time to actually run.
    if rng.random_bool(0.2) {
        let n_groups = cfg.topology.n_groups();
        let idx = rng.random_range(0..n_groups);
        let off_ms = rng.random_range(1..=duration_ms / 200) * 100;
        let mut offsets = vec![0u64; n_groups];
        offsets[idx] = off_ms;
        cfg.start_offset_ms = offsets;
    }

    debug_assert!(cfg.validate().is_ok(), "generator must emit valid configs");
    cfg
}

/// Rough relative cost of simulating a case: bytes the bottleneck can
/// carry over the run, scaled by the flow-count fraction. Used to pick
/// debug-mode-friendly cases for tests; the fuzzer itself runs release.
pub fn case_cost(cfg: &ScenarioConfig) -> u64 {
    let bits = cfg.bw_bps as f64 * cfg.duration.as_secs_f64() * cfg.flow_scale;
    (bits / 8.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_json::ToJson;

    #[test]
    fn every_generated_case_validates() {
        for seed in 0..500 {
            let cfg = generate_case(seed);
            assert!(
                cfg.validate().is_ok(),
                "seed {seed} generated an invalid config: {:?}",
                cfg.validate()
            );
            assert_eq!(cfg.seed, seed, "config must carry its case seed");
            assert_eq!(cfg.max_events, CASE_EVENT_BUDGET);
            assert!(cfg.warmup.as_nanos() * 2 <= cfg.duration.as_nanos());
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = generate_case(seed).to_json_string();
            let b = generate_case(seed).to_json_string();
            assert_eq!(a, b);
        }
        assert_ne!(generate_case(1).to_json_string(), generate_case(2).to_json_string());
    }

    #[test]
    fn knob_menus_are_actually_explored() {
        // 500 seeds must hit every CCA, AQM, both coalesce values, and at
        // least one faulted + one loss-model case — a silent generator
        // collapse (always the same corner) would gut the fuzzer.
        let mut ccas = std::collections::BTreeSet::new();
        let mut aqms = std::collections::BTreeSet::new();
        let (mut coalesced, mut faulted, mut lossy) = (0u32, 0u32, 0u32);
        let (mut parking, mut multi, mut off_hop, mut staggered) = (0u32, 0u32, 0u32, 0u32);
        for seed in 0..500 {
            let cfg = generate_case(seed);
            ccas.insert(format!("{}", cfg.cca1));
            aqms.insert(format!("{}", cfg.aqm));
            coalesced += cfg.coalesce as u32;
            faulted += !cfg.faults.is_empty() as u32;
            lossy += (cfg.loss != LossModel::None) as u32;
            if cfg.is_staggered() {
                staggered += 1;
                assert_eq!(cfg.start_offset_ms.len(), cfg.topology.n_groups());
            }
            match &cfg.topology {
                TopologySpec::Dumbbell => assert_eq!(cfg.fault_link, 0),
                TopologySpec::ParkingLot { .. } => parking += 1,
                TopologySpec::MultiDumbbell { .. } => multi += 1,
            }
            assert!((cfg.fault_link as usize) < cfg.topology.n_bottlenecks());
            off_hop += (cfg.fault_link != 0) as u32;
        }
        assert_eq!(ccas.len(), CcaKind::ALL.len(), "all CCAs explored: {ccas:?}");
        assert_eq!(aqms.len(), AqmKind::ALL.len(), "all AQMs explored: {aqms:?}");
        assert!(coalesced > 50 && coalesced < 450, "coalesce on in {coalesced}/500");
        assert!(faulted > 100, "faulted in only {faulted}/500");
        assert!(lossy > 50, "lossy in only {lossy}/500");
        assert!(parking > 20, "parking-lot in only {parking}/500");
        assert!(multi > 20, "multi-dumbbell in only {multi}/500");
        assert!(off_hop > 10, "fault aimed off hop 0 in only {off_hop}/500");
        assert!(
            staggered > 50 && staggered < 200,
            "staggered starts in {staggered}/500, want ~20%"
        );
    }
}
