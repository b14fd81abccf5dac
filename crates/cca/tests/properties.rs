//! Property-based tests on congestion-controller invariants (seeded harness).

use elephants_cca::{
    build_cca_seeded, AckEvent, CcaKind, CongestionControl, LossEvent, WindowedMaxByRound,
    WindowedMinByTime,
};
use elephants_netsim::prop::{run_cases, vec_of};
use elephants_netsim::{prop_check, prop_check_eq, RngExt, SimDuration, SimTime, SmallRng};

const MSS: u32 = 1000;

fn mk_ack(now_ms: u64, rtt_ms: u64, acked: u64, inflight: u64, rate: u64, round: bool, ce: bool) -> AckEvent {
    AckEvent {
        now: SimTime::ZERO + SimDuration::from_millis(now_ms),
        rtt: SimDuration::from_millis(rtt_ms.max(1)),
        min_rtt: SimDuration::from_millis(rtt_ms.clamp(1, 62)),
        srtt: SimDuration::from_millis(rtt_ms.max(1)),
        newly_acked: acked,
        newly_lost: 0,
        inflight,
        delivery_rate: Some(rate.max(1)),
        app_limited: false,
        delivered: now_ms * 1000,
        round_start: round,
        ecn_ce: ce,
        is_app_limited_now: false,
    }
}

/// A random but causally plausible ACK/loss script.
#[derive(Debug, Clone)]
enum Step {
    Ack { dt_ms: u64, rtt_ms: u64, acked_segs: u8, rate_mbps: u32, in_recovery: bool, ce: bool },
    Loss,
    Rto,
    SpuriousRto,
    RecoveryExit,
}

fn gen_script(rng: &mut SmallRng) -> Vec<Step> {
    vec_of(rng, 1, 300, |r| {
        // 8 acks (zero-byte, in recovery and CE-echoing among them) : 1 loss
        // : 1 RTO : 1 spurious-RTO undo : 1 recovery exit.
        match r.random_range(0u32..12) {
            0..=7 => Step::Ack {
                dt_ms: r.random_range(1u64..100),
                rtt_ms: r.random_range(50u64..500),
                acked_segs: r.random_range(0u8..16),
                rate_mbps: r.random_range(1u32..10_000),
                in_recovery: r.random_range(0u32..4) == 0,
                ce: r.random_range(0u32..8) == 0,
            },
            8 => Step::Loss,
            9 => Step::Rto,
            10 => Step::SpuriousRto,
            _ => Step::RecoveryExit,
        }
    })
}

fn drive(cca: &mut dyn CongestionControl, script: &[Step]) -> Result<(), String> {
    let mut now_ms = 0u64;
    let mut round_acc = 0u64;
    for step in script {
        match *step {
            Step::Ack { dt_ms, rtt_ms, acked_segs, rate_mbps, in_recovery, ce } => {
                now_ms += dt_ms;
                round_acc += dt_ms;
                let round = round_acc >= 62;
                if round {
                    round_acc = 0;
                }
                let ack = mk_ack(
                    now_ms,
                    rtt_ms,
                    acked_segs as u64 * MSS as u64,
                    cca.cwnd() / 2,
                    rate_mbps as u64 * 1_000_000,
                    round,
                    ce,
                );
                cca.on_ack(&ack, in_recovery);
            }
            Step::Loss => {
                let ev = LossEvent {
                    now: SimTime::ZERO + SimDuration::from_millis(now_ms),
                    inflight: cca.cwnd(),
                    delivered: now_ms * 1000,
                    min_rtt: SimDuration::from_millis(62),
                    max_rtt_epoch: SimDuration::from_millis(80),
                };
                cca.on_loss_event(&ev);
            }
            Step::Rto => cca.on_rto(SimTime::ZERO + SimDuration::from_millis(now_ms)),
            Step::SpuriousRto => cca.on_spurious_rto(SimTime::ZERO + SimDuration::from_millis(now_ms)),
            Step::RecoveryExit => {
                cca.on_recovery_exit(SimTime::ZERO + SimDuration::from_millis(now_ms))
            }
        }
        // Universal invariants, checked after every step.
        prop_check!(cca.cwnd() >= MSS as u64, "{}: cwnd below 1 MSS: {}", cca.name(), cca.cwnd());
        prop_check!(cca.cwnd() < 10_000_000_000, "{}: cwnd exploded: {}", cca.name(), cca.cwnd());
        if let Some(rate) = cca.pacing_rate() {
            prop_check!(rate > 0, "{}: zero pacing rate", cca.name());
        }
        let fails = cca.check_invariants(MSS);
        prop_check!(fails.is_empty(), "{}: invariants failed after {step:?}: {fails:?}", cca.name());
    }
    Ok(())
}

#[test]
fn all_ccas_survive_arbitrary_scripts() {
    run_cases("all_ccas_survive_arbitrary_scripts", 48, |rng| {
        let script = gen_script(rng);
        let kind = CcaKind::ALL[rng.random_range(0..CcaKind::ALL.len())];
        let mut cca = build_cca_seeded(kind, MSS, 7);
        drive(cca.as_mut(), &script)
    });
}

/// Loss-based CCAs shrink multiplicatively on a loss event.
#[test]
fn loss_based_ccas_cut_on_loss() {
    run_cases("loss_based_ccas_cut_on_loss", 48, |rng| {
        let kind = [CcaKind::Reno, CcaKind::Cubic, CcaKind::Htcp][rng.random_range(0usize..3)];
        let w = rng.random_range(20u64..10_000);
        let mut cca = build_cca_seeded(kind, MSS, 1);
        // Grow to w segments via slow start.
        while cca.cwnd() < w * MSS as u64 {
            cca.on_ack(&mk_ack(1, 62, MSS as u64, 0, 1_000_000, false, false), false);
            if !cca.in_slow_start() {
                break;
            }
        }
        let before = cca.cwnd();
        cca.on_loss_event(&LossEvent {
            now: SimTime::ZERO,
            inflight: before,
            delivered: 0,
            min_rtt: SimDuration::from_millis(62),
            max_rtt_epoch: SimDuration::from_millis(80),
        });
        let after = cca.cwnd();
        prop_check!(
            after < before || before <= 2 * MSS as u64,
            "{}: no cut {before} -> {after}",
            kind.name()
        );
        prop_check!(
            after as f64 >= before as f64 * 0.45,
            "{}: cut too deep {before} -> {after}",
            kind.name()
        );
        Ok(())
    });
}

/// The windowed-max filter always returns an inserted value and is
/// never below any in-window sample.
#[test]
fn max_filter_correctness() {
    run_cases("max_filter_correctness", 256, |rng| {
        let vals = vec_of(rng, 1, 100, |r| r.random_range(1u64..1_000_000));
        let mut f = WindowedMaxByRound::new(8);
        let mut hist: Vec<(u64, u64)> = vec![];
        for (round, &v) in vals.iter().enumerate() {
            let round = round as u64;
            f.update(round, v);
            hist.push((round, v));
            let expect = hist
                .iter()
                .filter(|&&(r, _)| r + 8 >= round)
                .map(|&(_, v)| v)
                .max()
                .unwrap();
            prop_check_eq!(f.get(), Some(expect));
        }
        Ok(())
    });
}

/// The windowed-min filter matches a brute-force reference.
#[test]
fn min_filter_correctness() {
    run_cases("min_filter_correctness", 256, |rng| {
        let vals = vec_of(rng, 1, 100, |r| {
            (r.random_range(0u64..10_000), r.random_range(1u64..100_000))
        });
        let mut f = WindowedMinByTime::new(SimDuration::from_micros(5_000));
        let mut hist: Vec<(u64, u64)> = vec![];
        let mut t = 0u64;
        for &(dt, v) in &vals {
            t += dt;
            f.update(SimTime::from_nanos(t * 1_000), SimDuration::from_nanos(v));
            hist.push((t, v));
            let expect = hist
                .iter()
                .filter(|&&(ht, _)| (t - ht) * 1_000 <= 5_000_000)
                .map(|&(_, v)| v)
                .min()
                .unwrap();
            prop_check_eq!(f.get(), Some(SimDuration::from_nanos(expect)), "at t={}", t);
        }
        Ok(())
    });
}
