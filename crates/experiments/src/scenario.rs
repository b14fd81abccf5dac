//! Scenario configuration and the paper's experiment grid (Table 1).

use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_netsim::rng::fnv1a;
use elephants_netsim::{
    bdp_bytes, Bandwidth, FaultPlan, LossModel, SimDuration, TopologySpec, EDGE_ONE_WAY,
};
use elephants_json::{impl_json_struct, ToJson};

/// The paper's bottleneck bandwidths (Table 1).
pub const PAPER_BWS: [u64; 5] =
    [100_000_000, 500_000_000, 1_000_000_000, 10_000_000_000, 25_000_000_000];

/// The paper's queue lengths in BDP multiples. Table 1 lists 0.5–8; the
/// result figures additionally use 16 BDP, which completes the 810-config
/// grid (9 pairs × 3 AQMs × 6 queues × 5 BWs).
pub const PAPER_QUEUES_BDP: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Jumbo-frame segment size used by every flow in the paper.
pub const PAPER_MSS: u32 = 8900;

/// Share of a run's duration before the measurement window opens.
const WARMUP_FRAC: f64 = 0.25;

/// The CCA every inter-CCA pairing of Table 1 is measured against.
pub const PAPER_BASELINE: CcaKind = CcaKind::Cubic;

/// The inter-CCA pairings: every other paper CCA vs [`PAPER_BASELINE`].
pub fn inter_pairs() -> Vec<(CcaKind, CcaKind)> {
    let others = CcaKind::PAPER_SET.into_iter().filter(|&cca| cca != PAPER_BASELINE);
    others.map(|cca| (cca, PAPER_BASELINE)).collect()
}

/// The intra-CCA pairings: each paper CCA vs itself.
pub fn intra_pairs() -> Vec<(CcaKind, CcaKind)> {
    CcaKind::PAPER_SET.into_iter().map(|cca| (cca, cca)).collect()
}

/// All pairings of Table 1, inter then intra.
pub fn paper_pairs() -> Vec<(CcaKind, CcaKind)> {
    [inter_pairs(), intra_pairs()].concat()
}

/// One cell of the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// CCA on sender node 0.
    pub cca1: CcaKind,
    /// CCA on sender node 1.
    pub cca2: CcaKind,
    /// Bottleneck queue discipline.
    pub aqm: AqmKind,
    /// Queue length as a multiple of the BDP.
    pub queue_bdp: f64,
    /// Bottleneck bandwidth (bits/s).
    pub bw_bps: u64,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Measurement-window start.
    pub warmup: SimDuration,
    /// Fraction of Table 2's flow count to instantiate.
    pub flow_scale: f64,
    /// Segment size.
    pub mss: u32,
    /// Enable ECN end to end (off in the paper).
    pub ecn: bool,
    /// End-to-end round-trip propagation time in milliseconds (paper: 62).
    /// Varying this is the paper's "future work: different RTTs" extension.
    pub rtt_ms: u64,
    /// Base RNG seed; repeats use `seed`, `seed+1`, …
    pub seed: u64,
    /// Steady-state random loss on the bottleneck (paper future work:
    /// "variable rates of packet loss"). Default: none.
    pub loss: LossModel,
    /// Timed faults on the bottleneck (flaps, mid-run rate/delay/loss
    /// changes). Default: empty.
    pub faults: FaultPlan,
    /// Event-budget watchdog: the run fails with `RunError::EventBudget`
    /// if it would process more events than this. Default: effectively
    /// unlimited.
    pub max_events: u64,
    /// GRO-style receive coalescing on every receiver (off by default —
    /// the paper's hosts disable GRO/LRO for the measurements, and the
    /// pinned byte-identity fixtures assume per-segment ACK policy).
    pub coalesce: bool,
    /// Network shape the run is simulated on. The default
    /// [`TopologySpec::Dumbbell`] reproduces the paper testbed exactly;
    /// parking-lot / multi-dumbbell shapes enable the multi-bottleneck and
    /// heterogeneous-RTT extensions.
    pub topology: TopologySpec,
    /// Which bottleneck link (index into the topology's shaped-link list)
    /// the `loss` and `faults` knobs apply to. `0` — the only choice on a
    /// dumbbell — targets the primary bottleneck.
    pub fault_link: u32,
    /// Per-group flow-start offsets in milliseconds (staggered-join
    /// scenarios: a nonzero entry delays every flow of that group, making
    /// it a late joiner). May be shorter than the group count — remaining
    /// groups start at their plan time. Empty (the default) reproduces the
    /// paper's synchronized start.
    pub start_offset_ms: Vec<u64>,
}

impl_json_struct!(ScenarioConfig {
    cca1,
    cca2,
    aqm,
    queue_bdp,
    bw_bps,
    duration,
    warmup,
    flow_scale,
    mss,
    ecn,
    rtt_ms,
    seed,
    loss,
    faults,
    max_events,
    coalesce,
    topology,
    fault_link,
    start_offset_ms,
});

/// Fluent constructor for [`ScenarioConfig`]: start from the paper
/// defaults, override individual fields, and validate once at
/// [`ScenarioBuilder::build`].
///
/// The builder is a pure convenience layer — the JSON shape and cache-key
/// fingerprint of the built config are identical to one assembled with
/// [`ScenarioConfig::new`] plus field mutation.
///
/// ```
/// use elephants_experiments::prelude::*;
/// let cfg = ScenarioConfig::builder(
///     CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Fifo, 2.0, 100_000_000,
///     &RunOptions::quick(),
/// )
/// .rtt_ms(124)
/// .seed(7)
/// .build()
/// .unwrap();
/// assert_eq!(cfg.rtt_ms, 124);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioBuilder {
    /// Override the simulated run length; the warmup stays the first
    /// quarter of it.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.cfg.duration = duration;
        self.cfg.warmup = duration.mul_f64(WARMUP_FRAC);
        self
    }

    /// Override the Table 2 flow-count scale.
    pub fn flow_scale(mut self, scale: f64) -> Self {
        self.cfg.flow_scale = scale;
        self
    }

    /// Enable or disable end-to-end ECN.
    pub fn ecn(mut self, ecn: bool) -> Self {
        self.cfg.ecn = ecn;
        self
    }

    /// Override the round-trip propagation time.
    pub fn rtt_ms(mut self, rtt_ms: u64) -> Self {
        self.cfg.rtt_ms = rtt_ms;
        self
    }

    /// Override the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Install a steady-state loss model on the bottleneck.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.cfg.loss = loss;
        self
    }

    /// Install a timed fault plan on the bottleneck.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Set the event-budget watchdog.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.cfg.max_events = max_events;
        self
    }

    /// Enable GRO-style receive coalescing on every receiver.
    pub fn coalesce(mut self, coalesce: bool) -> Self {
        self.cfg.coalesce = coalesce;
        self
    }

    /// Run on a non-default topology (parking lot, multi-dumbbell, …).
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Aim the loss/fault knobs at bottleneck link `fault_link` (index into
    /// the topology's shaped-link list).
    pub fn fault_link(mut self, fault_link: u32) -> Self {
        self.cfg.fault_link = fault_link;
        self
    }

    /// Stagger group joins: entry `g` delays every flow of group `g` by
    /// that many milliseconds (late-joiner scenarios). Shorter-than-group
    /// lists leave the remaining groups at their plan start.
    pub fn start_offset_ms(mut self, offsets: Vec<u64>) -> Self {
        self.cfg.start_offset_ms = offsets;
        self
    }

    /// Validate and return the config ([`ScenarioConfig::validate`]).
    pub fn build(self) -> Result<ScenarioConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl ScenarioConfig {
    /// Start building a scenario from the paper defaults; see
    /// [`ScenarioBuilder`].
    pub fn builder(
        cca1: CcaKind,
        cca2: CcaKind,
        aqm: AqmKind,
        queue_bdp: f64,
        bw_bps: u64,
        opts: &RunOptions,
    ) -> ScenarioBuilder {
        ScenarioBuilder { cfg: ScenarioConfig::new(cca1, cca2, aqm, queue_bdp, bw_bps, opts) }
    }

    /// A scenario with paper defaults and runtime knobs from `opts`.
    pub fn new(
        cca1: CcaKind,
        cca2: CcaKind,
        aqm: AqmKind,
        queue_bdp: f64,
        bw_bps: u64,
        opts: &RunOptions,
    ) -> Self {
        let duration = opts.duration_for(bw_bps);
        ScenarioConfig {
            cca1,
            cca2,
            aqm,
            queue_bdp,
            bw_bps,
            duration,
            warmup: duration.mul_f64(WARMUP_FRAC),
            flow_scale: opts.flow_scale,
            mss: PAPER_MSS,
            ecn: false,
            rtt_ms: 62,
            seed: opts.seed,
            loss: LossModel::None,
            faults: FaultPlan::none(),
            max_events: u64::MAX,
            coalesce: false,
            topology: TopologySpec::Dumbbell,
            fault_link: 0,
            start_offset_ms: Vec::new(),
        }
    }

    /// Validate the link parameters, the fault-injection knobs and the
    /// watchdog budget.
    ///
    /// Must be called on every config loaded from outside the library
    /// (CLI flags, JSON fault-plan files) before it reaches a simulator:
    /// a zero bandwidth, an RTT inside the edge links' share or an invalid
    /// fault plan panics during assembly, and the run path degrades that
    /// panic into a failed cell rather than a diagnosis.
    pub fn validate(&self) -> Result<(), String> {
        if self.bw_bps == 0 || self.mss == 0 {
            return Err(format!("bw_bps {} and mss {} must be positive", self.bw_bps, self.mss));
        }
        if !(self.queue_bdp.is_finite() && self.queue_bdp > 0.0) {
            return Err(format!("queue_bdp must be finite and positive, got {}", self.queue_bdp));
        }
        if self.rtt() <= EDGE_ONE_WAY * 2 {
            return Err(format!(
                "rtt_ms {} must exceed the {:?} the access and leaf links contribute",
                self.rtt_ms,
                EDGE_ONE_WAY * 2
            ));
        }
        self.loss.validate()?;
        self.faults.validate()?;
        self.topology.validate()?;
        if self.max_events == 0 {
            return Err("max_events budget of zero would fail every run".to_string());
        }
        if !(self.flow_scale > 0.0 && self.flow_scale <= 1.0) {
            return Err(format!("flow_scale out of (0,1]: {}", self.flow_scale));
        }
        let n_bn = self.topology.n_bottlenecks();
        if self.fault_link as usize >= n_bn {
            return Err(format!(
                "fault_link {} out of range: topology '{}' has {} bottleneck link(s)",
                self.fault_link, self.topology, n_bn
            ));
        }
        let n_groups = self.topology.n_groups();
        if self.start_offset_ms.len() > n_groups {
            return Err(format!(
                "{} start offsets for topology '{}' with {} group(s)",
                self.start_offset_ms.len(),
                self.topology,
                n_groups
            ));
        }
        let duration_ms = self.duration.as_nanos() / 1_000_000;
        if let Some(&worst) = self.start_offset_ms.iter().max() {
            if worst >= duration_ms {
                return Err(format!(
                    "start offset {worst}ms leaves no runtime in a {duration_ms}ms run"
                ));
            }
        }
        Ok(())
    }

    /// Whether any group joins late (a nonzero start offset is set).
    pub fn is_staggered(&self) -> bool {
        self.start_offset_ms.iter().any(|&off| off > 0)
    }

    /// Per-group start offsets as typed durations, for the flow wiring.
    pub fn start_offsets(&self) -> Vec<SimDuration> {
        self.start_offset_ms.iter().map(|&ms| SimDuration::from_millis(ms)).collect()
    }

    /// Bottleneck bandwidth as a typed quantity.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bps(self.bw_bps)
    }

    /// The configured round-trip propagation time.
    pub fn rtt(&self) -> SimDuration {
        SimDuration::from_millis(self.rtt_ms)
    }

    /// Queue capacity in bytes for the configured RTT.
    pub fn queue_bytes(&self) -> u64 {
        let bdp = bdp_bytes(self.bandwidth(), self.rtt());
        ((bdp as f64 * self.queue_bdp) as u64).max(4 * self.mss as u64)
    }

    /// 64-bit FNV-1a of the canonical (compact) JSON: the config's
    /// identity wherever a file is named after it. Every field is in the
    /// JSON, so every field is in the hash.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_json_string().as_bytes())
    }

    /// Cache key of this scenario run at `seed`: a prefix for the human
    /// reading a directory listing, then the [`Self::fingerprint`] of the
    /// config with `seed` set to the run's seed (what the `Runner` does,
    /// so configs differing only in `seed` share their results). Different
    /// runs never share a key; equivalent spellings of one run (offsets
    /// `[]` and `[0, 0]`) get different keys and cost one extra miss.
    pub fn cache_key(&self, seed: u64) -> String {
        let run = ScenarioConfig { seed, ..self.clone() };
        format!(
            "{}-{}-{}-q{}bdp-{}-s{}-{:016x}",
            self.cca1,
            self.cca2,
            self.aqm,
            self.queue_bdp,
            self.bandwidth(),
            seed,
            run.fingerprint(),
        )
    }

    /// Human-readable label ("BBRv1 vs CUBIC, fifo, 2 BDP, 1Gbps"); a
    /// non-default topology is appended ("…, parking-lot:3").
    pub fn label(&self) -> String {
        let mut s = format!(
            "{} vs {}, {}, {} BDP, {}",
            self.cca1.pretty(),
            self.cca2.pretty(),
            self.aqm,
            self.queue_bdp,
            self.bandwidth()
        );
        if self.topology != TopologySpec::Dumbbell {
            s.push_str(&format!(", {}", self.topology));
        }
        s
    }
}

/// Runtime knobs shared by all scenario constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Preset governing the per-bandwidth simulated duration.
    pub preset: DurationPreset,
    /// Repetitions per configuration (paper: 5).
    pub repeats: u32,
    /// Table 2 flow-count scale.
    pub flow_scale: f64,
    /// Base seed.
    pub seed: u64,
}

/// How long to simulate per bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationPreset {
    /// Fast shape-check (CI-friendly).
    Quick,
    /// Default: long enough for post-startup dynamics at every bandwidth,
    /// scaled down at high rates to keep packet counts tractable.
    Standard,
    /// The paper's full 200 s everywhere (expensive at 10/25 Gbps).
    Full,
}

impl RunOptions {
    /// Default options: standard durations, 1 repeat, full flow counts.
    pub fn standard() -> Self {
        RunOptions { preset: DurationPreset::Standard, repeats: 1, flow_scale: 1.0, seed: 1 }
    }

    /// Quick options for tests and smoke runs.
    pub fn quick() -> Self {
        RunOptions { preset: DurationPreset::Quick, ..Self::standard() }
    }

    /// Paper-faithful options (200 s × 5 repeats).
    pub fn full() -> Self {
        RunOptions { preset: DurationPreset::Full, repeats: 5, ..Self::standard() }
    }

    /// Simulated duration for a given bottleneck bandwidth.
    pub fn duration_for(&self, bw_bps: u64) -> SimDuration {
        let secs = match self.preset {
            DurationPreset::Full => 200,
            DurationPreset::Standard => match bw_bps {
                b if b <= 150_000_000 => 60,
                b if b <= 600_000_000 => 25,
                b if b <= 1_500_000_000 => 15,
                b if b <= 10_000_000_000 => 6,
                _ => 4,
            },
            DurationPreset::Quick => match bw_bps {
                b if b <= 150_000_000 => 10,
                b if b <= 1_500_000_000 => 5,
                _ => 2,
            },
        };
        SimDuration::from_secs(secs)
    }
}

/// The full 810-configuration grid of Table 1.
pub fn paper_grid(opts: &RunOptions) -> Vec<ScenarioConfig> {
    let mut grid = Vec::new();
    for (cca1, cca2) in paper_pairs() {
        for aqm in AqmKind::PAPER_SET {
            for &q in &PAPER_QUEUES_BDP {
                for &bw in &PAPER_BWS {
                    grid.push(ScenarioConfig::new(cca1, cca2, aqm, q, bw, opts));
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_810_configs() {
        // The one place a literal list is the point: the pairs and the AQM
        // order the hand-written `INTER_PAIRS` / `INTRA_PAIRS` / `PAPER_SET`
        // gave, which `sweep --limit N`, the dataset and every figure's
        // column order follow.
        use AqmKind::{Fifo, FqCodel, Red};
        use CcaKind::{BbrV1, BbrV2, Cubic, Htcp, Reno};
        let pairs = [
            (BbrV1, Cubic),
            (BbrV2, Cubic),
            (Htcp, Cubic),
            (Reno, Cubic),
            (BbrV1, BbrV1),
            (BbrV2, BbrV2),
            (Htcp, Htcp),
            (Reno, Reno),
            (Cubic, Cubic),
        ];
        assert_eq!(inter_pairs(), pairs[..4]);
        assert_eq!(intra_pairs(), pairs[4..]);
        assert_eq!(paper_pairs(), pairs);

        let mut cells = Vec::new();
        for (cca1, cca2) in pairs {
            for aqm in [Fifo, FqCodel, Red] {
                for q in PAPER_QUEUES_BDP {
                    for bw in PAPER_BWS {
                        cells.push((cca1, cca2, aqm, q, bw));
                    }
                }
            }
        }
        let grid: Vec<_> = paper_grid(&RunOptions::standard())
            .iter()
            .map(|c| (c.cca1, c.cca2, c.aqm, c.queue_bdp, c.bw_bps))
            .collect();
        assert_eq!(grid.len(), 810);
        assert_eq!(grid, cells);
    }

    #[test]
    fn queue_bytes_match_bdp_multiples() {
        let opts = RunOptions::standard();
        let c = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            2.0,
            100_000_000,
            &opts,
        );
        // BDP at 100 Mbps × 62 ms = 775 kB; 2 BDP = 1.55 MB.
        assert_eq!(c.queue_bytes(), 1_550_000);
    }

    #[test]
    fn cache_keys_distinguish_configs_and_seeds() {
        let opts = RunOptions::standard();
        let a = ScenarioConfig::new(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Red, 2.0, PAPER_BWS[0], &opts);
        let b = ScenarioConfig::new(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Red, 4.0, PAPER_BWS[0], &opts);
        assert_ne!(a.cache_key(1), b.cache_key(1));
        assert_ne!(a.cache_key(1), a.cache_key(2));
        assert_eq!(a.cache_key(1), a.cache_key(1));
        assert!(a.cache_key(1).starts_with("bbr1-cubic-red-q2bdp-100Mbps-s1-"), "{}", a.cache_key(1));
        // The pairs the fixed-precision key used to merge: `--bw 100M` vs
        // `--bw 100900K`, and 0.50 vs 0.504 BDP.
        let mut off_grid = a.clone();
        off_grid.bw_bps = 100_900_000;
        assert_ne!(a.cache_key(1), off_grid.cache_key(1));
        let half = ScenarioConfig { queue_bdp: 0.5, ..a.clone() };
        let half_ish = ScenarioConfig { queue_bdp: 0.504, ..a.clone() };
        assert_ne!(half.cache_key(1), half_ish.cache_key(1));
        // The runner overrides `cfg.seed` with the run's seed, so it is not
        // part of the run's identity.
        let reseeded = ScenarioConfig { seed: 99, ..a.clone() };
        assert_eq!(a.cache_key(1), reseeded.cache_key(1));
    }

    #[test]
    fn fault_knobs_change_cache_key_and_validate() {
        let opts = RunOptions::standard();
        let base =
            ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, PAPER_BWS[0], &opts);
        assert!(base.validate().is_ok());

        let mut lossy = base.clone();
        lossy.loss = LossModel::GilbertElliott { p_gb: 0.01, p_bg: 0.2 };
        assert!(lossy.validate().is_ok());
        assert_ne!(base.cache_key(1), lossy.cache_key(1));

        let mut flapped = base.clone();
        flapped.faults = FaultPlan::flap(SimDuration::from_secs(3), SimDuration::from_secs(2));
        assert_ne!(base.cache_key(1), flapped.cache_key(1));
        assert_ne!(lossy.cache_key(1), flapped.cache_key(1));

        let mut bad = base.clone();
        bad.loss = LossModel::Bernoulli { p: 7.0 };
        assert!(bad.validate().is_err());
        let mut zero_budget = base.clone();
        zero_budget.max_events = 0;
        assert!(zero_budget.validate().is_err());
    }

    #[test]
    fn fault_link_validates_against_topology_and_fingerprints() {
        let opts = RunOptions::standard();
        let mut cfg =
            ScenarioConfig::new(CcaKind::Cubic, CcaKind::Cubic, AqmKind::Fifo, 2.0, PAPER_BWS[0], &opts);
        cfg.loss = LossModel::Bernoulli { p: 0.001 };
        assert!(cfg.validate().is_ok());
        let key0 = cfg.cache_key(1);
        cfg.fault_link = 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("fault_link"), "{err}");
        cfg.topology = TopologySpec::ParkingLot { hops: 3 };
        assert!(cfg.validate().is_ok(), "hop 1 exists on a 3-hop parking lot");
        assert_ne!(cfg.cache_key(1), key0, "fault_link is part of the fingerprint");
        cfg.fault_link = 3;
        assert!(cfg.validate().is_err(), "3 hops means links 0..=2");
    }

    #[test]
    fn topology_config_round_trips_json() {
        use elephants_json::FromJson;
        let opts = RunOptions::quick();
        for topo in [
            TopologySpec::Dumbbell,
            TopologySpec::ParkingLot { hops: 2 },
            TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] },
        ] {
            let mut cfg = ScenarioConfig::new(
                CcaKind::BbrV1,
                CcaKind::Cubic,
                AqmKind::Fifo,
                2.0,
                PAPER_BWS[0],
                &opts,
            );
            cfg.topology = topo;
            let back = ScenarioConfig::from_json_str(&cfg.to_json_string()).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn start_offset_validation_bounds_groups_and_duration() {
        let opts = RunOptions::quick();
        let builder = |offs: Vec<u64>| {
            ScenarioConfig::builder(
                CcaKind::Cubic,
                CcaKind::Cubic,
                AqmKind::Fifo,
                2.0,
                PAPER_BWS[0],
                &opts,
            )
            .start_offset_ms(offs)
            .build()
        };
        assert!(builder(vec![0, 1000]).unwrap().is_staggered());
        assert!(!builder(vec![0, 0]).unwrap().is_staggered(), "all-zero offsets are synchronized");
        assert!(builder(vec![0, 0, 1000]).is_err(), "dumbbell has two groups");
        let err = builder(vec![0, 10_000_000]).unwrap_err();
        assert!(err.contains("no runtime"), "{err}");
    }

    #[test]
    fn faulted_config_round_trips_json() {
        use elephants_json::FromJson;
        let opts = RunOptions::quick();
        let mut cfg =
            ScenarioConfig::new(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Red, 1.0, PAPER_BWS[0], &opts);
        cfg.loss = LossModel::Bernoulli { p: 0.001 };
        cfg.faults = FaultPlan::flap(SimDuration::from_secs(2), SimDuration::from_secs(1));
        cfg.max_events = 5_000_000;
        cfg.start_offset_ms = vec![0, 2000];
        let back = ScenarioConfig::from_json_str(&cfg.to_json_string()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn builder_matches_field_mutation_byte_for_byte() {
        let opts = RunOptions::quick();
        let built = ScenarioConfig::builder(
            CcaKind::BbrV1,
            CcaKind::Cubic,
            AqmKind::Red,
            2.0,
            PAPER_BWS[0],
            &opts,
        )
        .rtt_ms(124)
        .seed(9)
        .max_events(5_000_000)
        .build()
        .unwrap();

        let mut manual =
            ScenarioConfig::new(CcaKind::BbrV1, CcaKind::Cubic, AqmKind::Red, 2.0, PAPER_BWS[0], &opts);
        manual.rtt_ms = 124;
        manual.seed = 9;
        manual.max_events = 5_000_000;
        // Same JSON bytes and same cache-key fingerprint: the builder is
        // pure convenience, not a new schema.
        assert_eq!(built.to_json_string(), manual.to_json_string());
        assert_eq!(built.cache_key(9), manual.cache_key(9));
    }

    #[test]
    fn builder_validates_at_build() {
        let opts = RunOptions::quick();
        let err = ScenarioConfig::builder(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            PAPER_BWS[0],
            &opts,
        )
        .max_events(0)
        .build()
        .unwrap_err();
        assert!(err.contains("max_events"), "{err}");

        let err = ScenarioConfig::builder(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            PAPER_BWS[0],
            &opts,
        )
        .flow_scale(2.0)
        .build()
        .unwrap_err();
        assert!(err.contains("flow_scale"), "{err}");
    }

    #[test]
    fn builder_duration_rescales_warmup_fraction() {
        let opts = RunOptions::quick();
        let cfg = ScenarioConfig::builder(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            PAPER_BWS[0],
            &opts,
        )
        .duration(SimDuration::from_secs(40))
        .build()
        .unwrap();
        assert_eq!(cfg.duration, SimDuration::from_secs(40));
        assert_eq!(cfg.warmup, SimDuration::from_secs(10));
    }

    #[test]
    fn durations_scale_down_with_bandwidth() {
        let opts = RunOptions::standard();
        assert!(opts.duration_for(100_000_000) > opts.duration_for(25_000_000_000));
        let full = RunOptions::full();
        assert_eq!(full.duration_for(25_000_000_000), SimDuration::from_secs(200));
    }

    #[test]
    fn labels_are_paper_style() {
        let opts = RunOptions::standard();
        let c = ScenarioConfig::new(CcaKind::BbrV2, CcaKind::Cubic, AqmKind::FqCodel, 16.0, PAPER_BWS[4], &opts);
        assert_eq!(c.label(), "BBRv2 vs CUBIC, fq_codel, 16 BDP, 25Gbps");
        let pl = ScenarioConfig { topology: TopologySpec::ParkingLot { hops: 3 }, ..c };
        assert_eq!(pl.label(), "BBRv2 vs CUBIC, fq_codel, 16 BDP, 25Gbps, parking-lot:3");
    }
}
