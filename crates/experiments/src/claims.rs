//! One table of the paper's claims.
//!
//! The paper reports its results as shapes (DESIGN.md §4): who wins a
//! shallow FIFO, J under FQ_CODEL, who retransmits more. Each shape the
//! repo judges is one row of [`CLAIMS`]: the scenarios it runs, how a run
//! is read, and the claim's bounds over the readings. Each bound is
//! written once, with `bound!`, and its words name the measured value and
//! the bound's, so a failing test and `repro` print the same line.
//!
//! A row's id is `<judge>/<claim>`. `<judge>` is either the file under
//! `tests/tests/` whose test `<claim>` runs the row's scenarios and judges
//! their readings (through `integration_tests::check_claim`), or the
//! `repro` target that does (`dynamics`, `rtt_unfair`). The two
//! `dynamics/` rows have both.

use crate::runner::RunOutcome;
use crate::scenario::{RunOptions, ScenarioBuilder, ScenarioConfig};
use elephants_analysis::{late_joiner_response, suppression_shape, ConvergenceSpec, FairnessDynamics};
use elephants_aqm::AqmKind;
use elephants_cca::CcaKind;
use elephants_netsim::{SimDuration, TopologySpec};
use std::str::FromStr;

/// One claim the repo judges.
pub struct Claim {
    /// `<judge>/<claim>`; see the module docs.
    pub id: &'static str,
    /// The paper figure or DESIGN.md §4 shape the claim stands for.
    pub stands_for: &'static str,
    /// Its scenarios at the options' seed and flow scale (a row may fix
    /// its own seed).
    pub runs: fn(&RunOptions) -> Vec<ScenarioBuilder>,
    /// How each run is read: [`totals`], [`suppression`] or [`late_join`].
    /// The last two need the run recorded.
    pub read: fn(&RunOutcome) -> Reading,
    /// The claim's bounds over the readings, in run order.
    pub bounds: fn(&[Reading]) -> Vec<Judgement>,
}

/// What a claim reads from one run.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// The scenario's label.
    pub label: String,
    /// Goodput per group (Mbps).
    pub mbps: Vec<f64>,
    /// Group 0's share of the goodput.
    pub share: f64,
    /// Jain index over the groups.
    pub jain: f64,
    /// Link utilization φ.
    pub phi: f64,
    /// Retransmitted segments in the measurement window.
    pub retx: f64,
    /// Bottleneck links reported.
    pub links: usize,
    /// Read by [`suppression`]: group 1's mean share early in the run,
    pub early: f64,
    /// its mean share late in the run,
    pub late: f64,
    /// and its fair share.
    pub fair: f64,
    /// Read by [`late_join`]: seconds from the join until group 1 held its
    /// share (`None`: never),
    pub claim_s: Option<f64>,
    /// and the fraction of their goodput the incumbents gave up.
    pub concession: f64,
    /// The windowed flight record the two readings above come from.
    pub dynamics: Option<FairnessDynamics>,
}

/// Whether a bound, or a claim, held, and its words with the values.
#[derive(Debug)]
pub struct Judgement {
    /// It held.
    pub holds: bool,
    /// A bound's `<value> <op> <bound>`; a claim's `<id>: <bound>; ...`.
    pub line: String,
}

/// `bound!(value op bound)` on a local `value`: whether it holds, and the
/// words `value <its value> op bound = <its value>`. `bound!(r.field op
/// bound)` bounds a field of the reading `r`, and the words name `r`'s run.
macro_rules! bound {
    ($r:ident . $field:ident $op:tt $($bound:tt)+) => {{
        let $field = $r.$field;
        let bound = bound!($field $op $($bound)+);
        Judgement { line: format!("{}: {}", $r.label, bound.line), ..bound }
    }};
    ($value:ident $op:tt $($bound:tt)+) => {{
        let bound: f64 = $($bound)+;
        let (value, op, words) = (stringify!($value), stringify!($op), stringify!($($bound)+));
        let line = format!("{value} {:.4} {op} {words} = {bound:.4}", $value);
        Judgement { holds: $value $op bound, line }
    }};
}

/// Reads a run's result.
pub fn totals(outcome: &RunOutcome) -> Reading {
    let r = outcome.first();
    Reading {
        label: outcome.config.label(),
        mbps: r.sender_mbps.clone(),
        share: r.sender_mbps[0] / (r.sender_mbps[0] + r.sender_mbps[1]),
        jain: r.jain,
        phi: r.utilization,
        retx: r.retransmits as f64,
        links: r.links.len(),
        ..Reading::default()
    }
}

/// Reads a recorded run's result and group 1's mean share over the first
/// quarter of a 10 s run and over its last 40%, in 250 ms windows.
pub fn suppression(outcome: &RunOutcome) -> Reading {
    let d = outcome.analysis(0.25).unwrap_or_else(|e| panic!("analysis: {e}"));
    let s = suppression_shape(&d, 1, 2.5, 6.0).expect("the run spans both");
    let (early, late, fair) = (s.early_share, s.late_share, s.fair_share);
    Reading { early, late, fair, dynamics: Some(d), ..totals(outcome) }
}

/// Reads a recorded run's result and group 1 joining at its start offset:
/// how long until it holds 70% of its fair share for 1 s, in 1 s windows
/// (share noise in 250 ms windows is ±0.08 of share, which would defeat
/// any sustained hold), and what the incumbent conceded.
pub fn late_join(outcome: &RunOutcome) -> Reading {
    let d = outcome.analysis(1.0).unwrap_or_else(|e| panic!("analysis: {e}"));
    let join_s = outcome.config.start_offset_ms[1] as f64 / 1000.0;
    let join = late_joiner_response(&d, 1, join_s, &ConvergenceSpec { epsilon: 0.3, hold_s: 1.0 });
    let (claim_s, concession) = (join.time_to_fair_share_s, join.concession);
    Reading { claim_s, concession, dynamics: Some(d), ..totals(outcome) }
}

impl Claim {
    /// The row with this id.
    pub fn find(id: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.id == id).unwrap_or_else(|| panic!("no claim {id}"))
    }

    /// Judges the readings of this claim's runs.
    pub fn judge(&self, readings: &[Reading]) -> Judgement {
        let bounds = (self.bounds)(readings);
        let words: Vec<&str> = bounds.iter().map(|b| b.line.as_str()).collect();
        let line = format!("{}: {}", self.id, words.join("; "));
        Judgement { holds: bounds.iter().all(|b| b.holds), line }
    }
}

/// The dumbbell every `dynamics` and `rtt_unfair` run shares: FIFO,
/// 2 BDP, 100 Mbps, 10 s.
pub fn dumbbell(opts: &RunOptions, cca1: CcaKind, cca2: CcaKind) -> ScenarioBuilder {
    ScenarioConfig::builder(cca1, cca2, AqmKind::Fifo, 2.0, 100_000_000, opts)
        .duration(SimDuration::from_secs(10))
}

/// The paper dumbbell with the named CCAs and AQM (the `CcaKind` /
/// `AqmKind` names), `mbps` for `secs`.
pub fn paper(
    opts: &RunOptions,
    cca1: &str,
    cca2: &str,
    aqm: &str,
    queue_bdp: f64,
    mbps: u64,
    secs: u64,
) -> ScenarioBuilder {
    ScenarioConfig::builder(kind(cca1), kind(cca2), kind(aqm), queue_bdp, mbps * 1_000_000, opts)
        .duration(SimDuration::from_secs(secs))
}

fn kind<K: FromStr<Err = String>>(name: &str) -> K {
    name.parse().unwrap_or_else(|e| panic!("{e}"))
}

/// Every claim the repo judges.
pub const CLAIMS: [Claim; 15] = [
    Claim {
        id: "paper_shapes/fifo_small_buffer_favors_bbr1_over_cubic",
        stands_for: "Fig. 2(a), below the equilibrium buffer (the shallow side of shape 1)",
        runs: |o| vec![paper(o, "bbr1", "cubic", "fifo", 0.5, 100, 12)],
        read: totals,
        bounds: |r| { let (bbr1, cubic) = (r[0].mbps[0], r[0].mbps[1]); vec![bound!(bbr1 > cubic)] },
    },
    Claim {
        id: "paper_shapes/fifo_reno_close_at_small_buffer_then_loses_at_large",
        stands_for: "Fig. 2(p)-(t), shape 4",
        // Reno's share. The deep-buffer equilibrium takes many CUBIC epochs
        // to develop (the paper runs 200 s), so the 16 BDP arm runs longer.
        runs: |o| {
            let reno = |q, secs| paper(o, "reno", "cubic", "fifo", q, 100, secs);
            vec![reno(0.5, 30), reno(16.0, 120)]
        },
        read: totals,
        bounds: |r| { let (deep, half) = (r[1].share, r[0].share); vec![bound!(deep < half)] },
    },
    Claim {
        id: "paper_shapes/red_lets_bbr1_crush_cubic",
        stands_for: "Fig. 4(a)-(e), shape 5",
        runs: |o| vec![paper(o, "bbr1", "cubic", "red", 2.0, 100, 12)],
        read: totals,
        bounds: |r| {
            let (bbr1, cubic, jain) = (r[0].mbps[0], r[0].mbps[1], r[0].jain);
            vec![bound!(bbr1 > 3.0 * cubic), bound!(jain < 0.9)]
        },
    },
    Claim {
        id: "paper_shapes/red_keeps_reno_and_cubic_balanced",
        stands_for: "Fig. 4(p)-(t) and Fig. 5, shape 7",
        runs: |o| vec![paper(o, "reno", "cubic", "red", 2.0, 100, 12)],
        read: totals,
        bounds: |r| r.iter().map(|r| bound!(r.jain > 0.9)).collect(),
    },
    Claim {
        id: "paper_shapes/fq_codel_is_fair_for_every_pairing",
        stands_for: "Fig. 6, shape 8",
        runs: |o| {
            let ccas = ["bbr1", "bbr2", "reno", "htcp"];
            ccas.map(|cca| paper(o, cca, "cubic", "fq_codel", 2.0, 100, 12)).into()
        },
        read: totals,
        bounds: |r| r.iter().map(|r| bound!(r.jain > 0.93)).collect(),
    },
    Claim {
        id: "paper_shapes/intra_cca_is_fair_under_fifo",
        stands_for: "Fig. 3(c)-(d)",
        runs: |o| ["cubic", "reno", "htcp", "bbr2"].map(|c| paper(o, c, c, "fifo", 2.0, 100, 12)).into(),
        read: totals,
        bounds: |r| r.iter().map(|r| bound!(r.jain > 0.9)).collect(),
    },
    Claim {
        id: "paper_shapes/fifo_sustains_full_utilization",
        stands_for: "Fig. 7(a)-(b), shape 9 (FIFO side)",
        runs: |o| ["cubic", "bbr1", "bbr2", "htcp"].map(|c| paper(o, c, c, "fifo", 2.0, 100, 12)).into(),
        read: totals,
        bounds: |r| r.iter().map(|r| bound!(r.phi > 0.85)).collect(),
    },
    Claim {
        id: "paper_shapes/red_lags_fifo_at_gigabit",
        stands_for: "Fig. 7 and Table 3, shape 9 (RED at 1 Gbps)",
        runs: |o| ["fifo", "red"].map(|aqm| paper(o, "cubic", "cubic", aqm, 2.0, 1000, 20)).into(),
        read: totals,
        bounds: |r| {
            let (fifo, red) = (r[0].phi, r[1].phi);
            vec![bound!(fifo > 0.97), bound!(red < fifo - 0.03)]
        },
    },
    Claim {
        id: "paper_shapes/bbr1_retransmits_far_more_than_cubic",
        stands_for: "Fig. 8 and Table 3, shape 10",
        runs: |o| ["bbr1", "cubic"].map(|c| paper(o, c, c, "fifo", 0.5, 100, 12)).into(),
        read: totals,
        bounds: |r| {
            let (bbr1, cubic) = (r[0].retx, r[1].retx);
            vec![bound!(bbr1 > 2.0 * cubic.max(1.0))]
        },
    },
    Claim {
        id: "paper_shapes/fifo_retransmissions_fall_with_buffer_depth_for_bbr",
        stands_for: "Fig. 8(a)-(b), shape 10 (FIFO retransmissions fall with buffer)",
        // With a 2 BDP inflight cap BBRv1 never fills a 16 BDP FIFO.
        runs: |o| [0.5, 16.0].map(|q| paper(o, "bbr1", "bbr1", "fifo", q, 100, 20)).into(),
        read: totals,
        bounds: |r| {
            let (shallow, deep) = (r[0].retx, r[1].retx);
            vec![bound!(shallow > 100.0), bound!(deep < shallow / 20.0)]
        },
    },
    Claim {
        id: "paper_shapes/bbr2_tolerates_red_fairly_in_intra_runs",
        stands_for: "Fig. 5(c)-(d), shape 5 (intra-BBRv2 stays fair)",
        runs: |o| vec![paper(o, "bbr2", "bbr2", "red", 2.0, 100, 12)],
        read: totals,
        bounds: |r| r.iter().map(|r| bound!(r.jain > 0.9)).collect(),
    },
    Claim {
        id: "dynamics/bbr1_suppresses_cubic_early_with_partial_recovery",
        stands_for: "Fig. 2(a) in time: CUBIC suppressed early, recovering later (DESIGN.md §3g)",
        runs: |o| vec![dumbbell(o, CcaKind::BbrV1, CcaKind::Cubic)],
        read: suppression,
        bounds: |r| {
            let Reading { early, late, fair, .. } = r[0];
            vec![bound!(early < 0.9 * fair), bound!(late > early + 0.05)]
        },
    },
    Claim {
        id: "dynamics/late_cubic_joiner_reaches_fair_share_in_finite_time",
        stands_for: "AIMD convergence: a late CUBIC joiner is not locked out (DESIGN.md §3g)",
        runs: |o| vec![dumbbell(o, CcaKind::Cubic, CcaKind::Cubic).start_offset_ms(vec![0, 3_000])],
        read: late_join,
        bounds: |r| {
            let (claim_s, concession) = (r[0].claim_s.unwrap_or(f64::INFINITY), r[0].concession);
            vec![bound!(claim_s > 0.0), bound!(claim_s < 7.0), bound!(concession > 0.1)]
        },
    },
    Claim {
        id: "rtt_unfair/short_rtt_bbr1_share_grows_with_the_rtt_ratio",
        stands_for: "RTT unfairness between BBR and CUBIC (FaiRTT; PAPERS.md)",
        // A 31 ms BBRv1 group against CUBIC at 1, 2 and 4 times its RTT:
        // BBR's pacing holds its rate as the competitor's RTT grows, while
        // CUBIC's window growth slows in proportion.
        runs: |o| {
            let rtts = |n: u64| TopologySpec::MultiDumbbell { rtts_ms: vec![31, 31 * n] };
            [1, 2, 4].map(|n| dumbbell(o, CcaKind::BbrV1, CcaKind::Cubic).topology(rtts(n))).into()
        },
        read: totals,
        bounds: |r| r.windows(2).map(|w| { let (r, before) = (&w[1], w[0].share); bound!(r.share > before) }).collect(),
    },
    Claim {
        id: "topology_equiv/multi_dumbbell_short_rtt_group_wins_under_cubic",
        stands_for: "RTT unfairness under loss-based CCAs (\"BBR Fairness Evaluation Using NS-3\"; \
                     PAPERS.md)",
        runs: |o| {
            let rtts = TopologySpec::MultiDumbbell { rtts_ms: vec![10, 124] };
            vec![paper(o, "cubic", "cubic", "fifo", 2.0, 50, 10).topology(rtts).seed(42)]
        },
        read: totals,
        bounds: |r| {
            let (rtt_10ms, rtt_124ms) = (r[0].mbps[0], r[0].mbps[1]);
            let links = r[0].links as f64;
            vec![bound!(rtt_10ms > rtt_124ms), bound!(links == 1.0)]
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_judge_fails_without_suppression_or_recovery() {
        let claim = Claim::find("dynamics/bbr1_suppresses_cubic_early_with_partial_recovery");
        let shape = |early, late| [Reading { early, late, fair: 0.5, ..Reading::default() }];
        assert!(claim.judge(&shape(0.41, 0.71)).holds);
        let j = claim.judge(&shape(0.46, 0.71));
        assert!(!j.holds && j.line.contains("early 0.4600 < "), "{}", j.line);
        assert!(!claim.judge(&shape(0.41, 0.45)).holds, "no recovery");
    }

    #[test]
    fn late_join_judge_fails_when_the_joiner_never_claims() {
        let claim = Claim::find("dynamics/late_cubic_joiner_reaches_fair_share_in_finite_time");
        let join = |claim_s| [Reading { claim_s, concession: 0.3, ..Reading::default() }];
        assert!(claim.judge(&join(Some(2.0))).holds);
        let j = claim.judge(&join(None));
        assert!(!j.holds && j.line.contains("claim_s inf < "), "{}", j.line);
    }

    #[test]
    fn rtt_unfair_judge_fails_on_any_step_down() {
        let claim = Claim::find("rtt_unfair/short_rtt_bbr1_share_grows_with_the_rtt_ratio");
        let shares = |s: &[f64]| s.iter().map(|&share| Reading { share, ..Reading::default() }).collect::<Vec<_>>();
        assert!(claim.judge(&shares(&[0.1177, 0.3085, 0.5539])).holds);
        let j = claim.judge(&shares(&[0.1177, 0.3085, 0.3]));
        assert!(!j.holds && j.line.contains("share 0.3000 > before = 0.3085"), "{}", j.line);
        assert!(!claim.judge(&shares(&[0.2, 0.2])).holds, "a tie is not growth");
    }

    #[test]
    fn every_judge_refuses_runs_that_delivered_nothing() {
        let idle = Reading { mbps: vec![0.0, 0.0], ..Reading::default() };
        for claim in &CLAIMS {
            let n = (claim.runs)(&RunOptions::standard()).len();
            assert!(!claim.judge(&vec![idle.clone(); n]).holds, "{}", claim.id);
        }
    }

    /// Ids are unique, and each row is judged: by the test `<claim>` that
    /// `claim_tests!` makes in `tests/tests/<judge>.rs`, or by the `repro`
    /// target `<judge>`, which names the row.
    #[test]
    fn every_row_is_judged_by_a_test_or_a_repro_target() {
        let repro = include_str!("bin/repro.rs");
        let mut ids = std::collections::BTreeSet::new();
        for claim in &CLAIMS {
            assert!(ids.insert(claim.id), "{} is not unique", claim.id);
            let (judge, name) = claim.id.split_once('/').expect("<judge>/<claim>");
            let tests = format!("{}/../../tests/tests/{judge}.rs", env!("CARGO_MANIFEST_DIR"));
            let listed = std::fs::read_to_string(tests).is_ok_and(|src| {
                src.contains(&format!("claim_tests!(\"{judge}\":\n")) && src.contains(&format!("\n    {name},\n"))
            });
            let by_repro = repro.contains(&format!("(\"{judge}\", ")) && repro.contains(claim.id);
            assert!(listed || by_repro, "nothing judges {}", claim.id);
        }
    }
}
