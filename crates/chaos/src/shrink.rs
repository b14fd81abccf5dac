//! Greedy deterministic shrinking of failing cases.
//!
//! Given a config that fails some oracle, [`shrink`] walks a fixed
//! sequence of simplification passes, accepting a candidate only when it
//! *still fails the same oracle*, and repeats the sequence until a full
//! round changes nothing (a fixpoint) or the evaluation budget runs out.
//! The passes, in order:
//!
//! 1. drop flows (`flow_scale` down its menu),
//! 2. shorten the run (halve `duration`, zero `warmup`),
//! 3. remove fault events (one at a time, from the back),
//! 4. simplify the loss model (Gilbert–Elliott → Bernoulli → None),
//! 5. zero the start offsets (clear the whole staggered-start vector;
//!    failing that, zero one entry at a time from the back),
//! 6. simplify the topology (anything → the paper dumbbell; failing
//!    that, re-aim `fault_link` at hop 0),
//! 7. clear the boolean knobs (`coalesce`, `ecn`),
//! 8. round sizes to paper defaults (`mss` 8900, `rtt` 62 ms,
//!    `queue_bdp` 2.0, bandwidth 100 Mbps, unlimited event budget).
//!
//! Every pass enumerates candidates in a fixed order and the predicate is
//! deterministic, so the same failing input always shrinks to the same
//! minimal config — the property the mutation test pins.

use elephants_experiments::ScenarioConfig;
use elephants_netsim::{LossModel, SimDuration, TopologySpec};

/// Default cap on predicate evaluations per shrink. Each evaluation is
/// one (sometimes two) simulation runs; the passes converge long before
/// this in practice.
pub(crate) const DEFAULT_SHRINK_EVALS: u32 = 200;

/// What a shrink produced.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal config still failing the target oracle.
    pub config: ScenarioConfig,
    /// Predicate evaluations spent.
    pub evals: u32,
    /// Whether shrinking stopped on the eval budget rather than at a
    /// fixpoint (the result is still a valid, smaller repro).
    pub budget_exhausted: bool,
}

struct Shrinker<'a> {
    fails: &'a dyn Fn(&ScenarioConfig) -> bool,
    evals: u32,
    max_evals: u32,
}

impl<'a> Shrinker<'a> {
    /// True when `candidate` still fails; counts the evaluation.
    fn still_fails(&mut self, candidate: &ScenarioConfig) -> bool {
        if self.evals >= self.max_evals {
            return false;
        }
        self.evals += 1;
        candidate.validate().is_ok() && (self.fails)(candidate)
    }

    /// Try one simplified candidate; adopt it into `cfg` when it still
    /// fails. Returns whether it was adopted.
    fn try_adopt(&mut self, cfg: &mut ScenarioConfig, candidate: ScenarioConfig) -> bool {
        if self.still_fails(&candidate) {
            *cfg = candidate;
            true
        } else {
            false
        }
    }

    fn pass_flow_scale(&mut self, cfg: &mut ScenarioConfig) -> bool {
        // Smallest first: one accepted jump to 0.25 beats three ladder steps.
        for scale in [0.25, 0.5, 0.75] {
            if scale < cfg.flow_scale {
                let mut c = cfg.clone();
                c.flow_scale = scale;
                if self.try_adopt(cfg, c) {
                    return true;
                }
            }
        }
        false
    }

    fn pass_duration(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let mut changed = false;
        if !cfg.warmup.is_zero() {
            let mut c = cfg.clone();
            c.warmup = SimDuration::ZERO;
            changed |= self.try_adopt(cfg, c);
        }
        loop {
            let ms = cfg.duration.as_nanos() / 1_000_000;
            if ms <= 500 {
                break;
            }
            let mut c = cfg.clone();
            c.duration = SimDuration::from_millis((ms / 2).max(500));
            c.warmup = c.warmup.min(c.duration);
            if !self.try_adopt(cfg, c) {
                break;
            }
            changed = true;
        }
        changed
    }

    fn pass_faults(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let mut changed = false;
        // Back-to-front removal keeps indices of untried events stable
        // across accepted removals.
        let mut idx = cfg.faults.events.len();
        while idx > 0 {
            idx -= 1;
            let mut c = cfg.clone();
            c.faults.events.remove(idx);
            changed |= self.try_adopt(cfg, c);
        }
        changed
    }

    fn pass_loss(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let candidates: &[LossModel] = match cfg.loss {
            LossModel::None => &[],
            LossModel::Bernoulli { .. } => &[LossModel::None],
            LossModel::GilbertElliott { .. } => {
                &[LossModel::None, LossModel::Bernoulli { p: 0.001 }]
            }
        };
        for loss in candidates {
            let mut c = cfg.clone();
            c.loss = *loss;
            if self.try_adopt(cfg, c) {
                return true;
            }
        }
        false
    }

    fn pass_zero_offset(&mut self, cfg: &mut ScenarioConfig) -> bool {
        if cfg.start_offset_ms.is_empty() {
            return false;
        }
        // Whole-vector clear first: one accepted step beats per-entry
        // zeroing, and an empty vector is the canonical all-synchronous
        // form (it drops the cache-key tag and the serialized field).
        let mut c = cfg.clone();
        c.start_offset_ms = Vec::new();
        if self.try_adopt(cfg, c) {
            return true;
        }
        let mut changed = false;
        let mut idx = cfg.start_offset_ms.len();
        while idx > 0 {
            idx -= 1;
            if cfg.start_offset_ms[idx] != 0 {
                let mut c = cfg.clone();
                c.start_offset_ms[idx] = 0;
                changed |= self.try_adopt(cfg, c);
            }
        }
        changed
    }

    fn pass_topology(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let mut changed = false;
        if cfg.topology != TopologySpec::Dumbbell {
            let mut c = cfg.clone();
            c.topology = TopologySpec::Dumbbell;
            c.fault_link = 0;
            // A wider topology's offset vector may not fit the dumbbell's
            // two groups; drop the tail so the candidate stays valid.
            c.start_offset_ms.truncate(2);
            changed |= self.try_adopt(cfg, c);
        }
        // The dumbbell jump may be rejected (multi-hop failure): still try
        // pulling the fault target back to the first hop.
        if cfg.fault_link != 0 {
            let mut c = cfg.clone();
            c.fault_link = 0;
            changed |= self.try_adopt(cfg, c);
        }
        changed
    }

    fn pass_booleans(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let mut changed = false;
        for clear in [
            (|c: &mut ScenarioConfig| c.coalesce = false) as fn(&mut ScenarioConfig),
            |c| c.ecn = false,
        ] {
            let mut c = cfg.clone();
            clear(&mut c);
            if c != *cfg {
                changed |= self.try_adopt(cfg, c);
            }
        }
        changed
    }

    fn pass_round_sizes(&mut self, cfg: &mut ScenarioConfig) -> bool {
        let mut changed = false;
        let rounders: [fn(&mut ScenarioConfig); 5] = [
            |c| c.mss = 8900,
            |c| c.rtt_ms = 62,
            |c| c.queue_bdp = 2.0,
            |c| c.bw_bps = 100_000_000,
            |c| c.max_events = u64::MAX,
        ];
        for round in rounders {
            let mut c = cfg.clone();
            round(&mut c);
            if c != *cfg {
                changed |= self.try_adopt(cfg, c);
            }
        }
        changed
    }
}

/// Shrink `cfg` against `fails` (true ⇔ the candidate still exhibits the
/// target failure), spending at most `max_evals` predicate evaluations.
///
/// The caller's predicate closes over the target [`crate::OracleKind`].
pub fn shrink(
    cfg: &ScenarioConfig,
    fails: impl Fn(&ScenarioConfig) -> bool,
    max_evals: u32,
) -> ShrinkOutcome {
    let mut shrinker = Shrinker { fails: &fails, evals: 0, max_evals };
    let mut current = cfg.clone();
    loop {
        let mut changed = false;
        changed |= shrinker.pass_flow_scale(&mut current);
        changed |= shrinker.pass_duration(&mut current);
        changed |= shrinker.pass_faults(&mut current);
        changed |= shrinker.pass_loss(&mut current);
        changed |= shrinker.pass_zero_offset(&mut current);
        changed |= shrinker.pass_topology(&mut current);
        changed |= shrinker.pass_booleans(&mut current);
        changed |= shrinker.pass_round_sizes(&mut current);
        if !changed || shrinker.evals >= max_evals {
            break;
        }
    }
    ShrinkOutcome {
        config: current,
        evals: shrinker.evals,
        budget_exhausted: shrinker.evals >= max_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_aqm::AqmKind;
    use elephants_cca::CcaKind;
    use elephants_experiments::RunOptions;
    use elephants_json::ToJson;
    use elephants_netsim::{FaultAction, FaultPlan};

    /// A deliberately baroque config for predicate-driven shrink tests
    /// (no simulation involved — the predicate is pure).
    fn baroque() -> ScenarioConfig {
        let mut opts = RunOptions::quick();
        opts.seed = 3;
        opts.flow_scale = 1.0;
        let mut cfg = ScenarioConfig::new(
            CcaKind::BbrV2,
            CcaKind::Htcp,
            AqmKind::Pie,
            8.0,
            500_000_000,
            &opts,
        );
        cfg.duration = SimDuration::from_millis(3000);
        cfg.warmup = SimDuration::from_millis(1000);
        cfg.mss = 1500;
        cfg.rtt_ms = 124;
        cfg.ecn = true;
        cfg.coalesce = true;
        cfg.loss = LossModel::GilbertElliott { p_gb: 0.001, p_bg: 0.2 };
        cfg.faults = FaultPlan::none()
            .with(SimDuration::from_millis(100), FaultAction::LinkDown)
            .with(SimDuration::from_millis(300), FaultAction::LinkUp);
        cfg.max_events = 50_000_000;
        cfg.topology = TopologySpec::ParkingLot { hops: 3 };
        cfg.fault_link = 2;
        cfg.start_offset_ms = vec![0, 400, 0, 200];
        cfg
    }

    #[test]
    fn always_failing_predicate_shrinks_to_the_floor() {
        let out = shrink(&baroque(), |_| true, 500);
        let min = &out.config;
        assert!(!out.budget_exhausted);
        assert_eq!(min.flow_scale, 0.25);
        assert_eq!(min.duration, SimDuration::from_millis(500));
        assert!(min.warmup.is_zero());
        assert!(min.faults.is_empty());
        assert_eq!(min.loss, LossModel::None);
        assert!(!min.coalesce && !min.ecn);
        assert_eq!(min.mss, 8900);
        assert_eq!(min.rtt_ms, 62);
        assert_eq!(min.queue_bdp, 2.0);
        assert_eq!(min.bw_bps, 100_000_000);
        assert_eq!(min.max_events, u64::MAX);
        assert_eq!(min.topology, TopologySpec::Dumbbell);
        assert_eq!(min.fault_link, 0);
        assert!(min.start_offset_ms.is_empty(), "offsets shrink to synchronous starts");
        // CCA/AQM/seed are identity, not size: never touched.
        assert_eq!(min.cca1, CcaKind::BbrV2);
        assert_eq!(min.aqm, AqmKind::Pie);
        assert_eq!(min.seed, 3);
    }

    #[test]
    fn shrinking_is_deterministic() {
        // A nontrivial predicate: failure needs the coalesce knob AND a
        // duration of at least a second.
        let pred = |c: &ScenarioConfig| c.coalesce && c.duration >= SimDuration::from_millis(1000);
        let a = shrink(&baroque(), pred, 500);
        let b = shrink(&baroque(), pred, 500);
        assert_eq!(a.config.to_json_string(), b.config.to_json_string());
        assert_eq!(a.evals, b.evals);
        assert!(a.config.coalesce, "the failure-carrying knob must survive");
        // Greedy halving: 3000 → 1500 accepted, 750 rejected (< 1 s), stop.
        assert_eq!(a.config.duration, SimDuration::from_millis(1500));
        assert_eq!(a.config.flow_scale, 0.25, "unrelated dimensions still shrink");
    }

    #[test]
    fn multi_hop_failures_keep_the_topology_but_recenter_the_fault() {
        // The failure needs a multi-bottleneck shape: the dumbbell jump is
        // rejected but the fault target still shrinks back to hop 0.
        let pred = |c: &ScenarioConfig| c.topology.n_bottlenecks() > 1;
        let out = shrink(&baroque(), pred, 500);
        assert_eq!(out.config.topology, TopologySpec::ParkingLot { hops: 3 });
        assert_eq!(out.config.fault_link, 0);
        assert!(out.config.validate().is_ok());
    }

    #[test]
    fn stagger_carrying_failures_keep_one_offset() {
        // The whole-vector clear is rejected (the failure needs a late
        // joiner), so the pass zeroes entries back-to-front, keeping
        // exactly the offsets the failure depends on — and the dumbbell
        // jump truncates the vector to the two surviving groups.
        let pred = |c: &ScenarioConfig| c.is_staggered();
        let out = shrink(&baroque(), pred, 500);
        assert!(out.config.is_staggered());
        assert_eq!(out.config.start_offset_ms, vec![0, 400]);
        assert_eq!(out.config.topology, TopologySpec::Dumbbell);
        assert!(out.config.validate().is_ok());
    }

    #[test]
    fn eval_budget_bounds_the_work() {
        let out = shrink(&baroque(), |_| true, 3);
        assert!(out.evals <= 3);
        assert!(out.budget_exhausted);
        assert!(out.config.validate().is_ok());
    }

    #[test]
    fn never_failing_candidate_keeps_the_original() {
        // Predicate holds only for the exact original: nothing shrinks.
        let orig = baroque();
        let orig_json = orig.to_json_string();
        let out = shrink(&orig, move |c| c.to_json_string() == orig_json, 500);
        assert_eq!(out.config, orig);
    }
}
